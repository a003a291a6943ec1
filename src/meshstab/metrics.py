"""Trajectory stability and frame-similarity metrics for stabilization runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import fftconvolve

from .frames import GrayFrame
from .trajectory import TrajectorySet

__all__ = [
    "SEGMENT_FRAMES",
    "StabilityReport",
    "SsimReport",
    "stability_score",
    "ssim_pair",
    "video_ssim",
    "jitter_energy",
]

# stability is scored on disjoint trajectory segments of this many frames
SEGMENT_FRAMES = 40

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_RANGE = 255.0


@dataclass(frozen=True)
class StabilityReport:
    """Chord-over-path ratios of fixed-length trajectory segments.

    `mean` is None when no trajectory was long enough to yield a segment.
    """

    scores: tuple[float, ...]
    mean: float | None

    @property
    def count(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class SsimReport:
    """SSIM of every adjacent frame pair of a clip, plus the average."""

    pairs: tuple[float, ...]
    mean: float


def stability_score(ts: TrajectorySet) -> StabilityReport:
    """Score how straight the trajectories run, 1.0 being perfectly stable.

    Each trajectory is cut into consecutive disjoint segments of
    SEGMENT_FRAMES points starting at its first frame; a shorter leftover
    tail is ignored.  A segment scores the distance between its endpoints
    divided by its polyline length; a segment that never moves scores 1.0.
    """
    scores: list[float] = []
    for tr in ts.trajectories:
        pts = tr.points
        for s in range(pts.shape[0] // SEGMENT_FRAMES):
            seg = pts[s * SEGMENT_FRAMES:(s + 1) * SEGMENT_FRAMES]
            chord = float(np.hypot(*(seg[-1] - seg[0])))
            steps = np.diff(seg, axis=0)
            path = float(np.hypot(steps[:, 0], steps[:, 1]).sum())
            scores.append(1.0 if path == 0.0 else chord / path)
    if not scores:
        return StabilityReport((), None)
    return StabilityReport(tuple(scores), float(np.mean(scores)))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


def ssim_pair(a: GrayFrame, b: GrayFrame) -> float:
    """Mean local structural similarity of two equally sized frames.

    Local statistics use an 11x11 Gaussian window (sigma 1.5); the
    stabilizing constants come from K1=0.01 / K2=0.03 at dynamic range 255.
    Identical frames score exactly 1.0 and the value is symmetric in its
    arguments.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"frame sizes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    if a.width < SSIM_WINDOW or a.height < SSIM_WINDOW:
        raise ValueError(f"frames must be at least {SSIM_WINDOW} px on a side")
    win = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    pa, pb = a.data, b.data
    mu_a = fftconvolve(pa, win, mode="valid")
    mu_b = fftconvolve(pb, win, mode="valid")
    mu_aa = mu_a * mu_a
    mu_bb = mu_b * mu_b
    mu_ab = mu_a * mu_b
    var_a = fftconvolve(pa * pa, win, mode="valid") - mu_aa
    var_b = fftconvolve(pb * pb, win, mode="valid") - mu_bb
    cov = fftconvolve(pa * pb, win, mode="valid") - mu_ab
    c1 = (SSIM_K1 * SSIM_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_RANGE) ** 2
    num = (2.0 * mu_ab + c1) * (2.0 * cov + c2)
    den = (mu_aa + mu_bb + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def video_ssim(frames: Sequence[GrayFrame]) -> SsimReport:
    """Average SSIM over every adjacent frame pair.

    Each pair equals ``ssim_pair`` bit for bit: the same checks and the same
    expressions, except that a frame's blurred mean and square are carried
    from one pair to the next, so a pair costs 3 convolutions, not 5.
    """
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames, got {len(frames)}")
    win = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * SSIM_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_RANGE) ** 2
    vals: list[float] = []
    mu_a = sq_a = None
    for i in range(len(frames) - 1):
        a, b = frames[i], frames[i + 1]
        if (a.width, a.height) != (b.width, b.height):
            raise ValueError(
                f"frame sizes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
            )
        if a.width < SSIM_WINDOW or a.height < SSIM_WINDOW:
            raise ValueError(f"frames must be at least {SSIM_WINDOW} px on a side")
        pa, pb = a.data, b.data
        if mu_a is None:
            mu_a = fftconvolve(pa, win, mode="valid")
            sq_a = fftconvolve(pa * pa, win, mode="valid")
        mu_b = fftconvolve(pb, win, mode="valid")
        sq_b = fftconvolve(pb * pb, win, mode="valid")
        mu_aa = mu_a * mu_a
        mu_bb = mu_b * mu_b
        mu_ab = mu_a * mu_b
        var_a = sq_a - mu_aa
        var_b = sq_b - mu_bb
        cov = fftconvolve(pa * pb, win, mode="valid") - mu_ab
        num = (2.0 * mu_ab + c1) * (2.0 * cov + c2)
        den = (mu_aa + mu_bb + c1) * (var_a + var_b + c2)
        vals.append(float(np.mean(num / den)))
        mu_a, sq_a = mu_b, sq_b
    return SsimReport(tuple(vals), float(np.mean(vals)))


def jitter_energy(ts: TrajectorySet) -> float:
    """Sum of squared second differences over all trajectories.

    Zero for constant-velocity motion; grows with frame-to-frame shake.
    Trajectories shorter than three frames contribute nothing.
    """
    total = 0.0
    for tr in ts.trajectories:
        if tr.points.shape[0] < 3:
            continue
        d2 = np.diff(tr.points, n=2, axis=0)
        total += float((d2 * d2).sum())
    return total
