"""Shared builders for the test suite.

Everything here is deterministic given the rng handed in; tests own their
seeds so failures reproduce from the test body alone.
"""
from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from meshstab.frames import GrayFrame
from meshstab.stage1 import QuadraticProblem, UnknownIndex
from meshstab.trajectory import FeatureTrajectory, TrajectorySet


def random_set(
    rng: np.random.Generator,
    n_traj: int = 5,
    frame_count: int = 10,
    width: int = 120,
    height: int = 90,
    jitter: float = 2.0,
    staggered: bool = False,
) -> TrajectorySet:
    """A TrajectorySet of points wobbling around fixed anchors.

    With staggered=True trajectories get random sub-intervals of at least
    4 frames, which exercises the alive/dead bookkeeping in every consumer.
    """
    margin = 12.0
    anchors = np.column_stack([
        rng.uniform(margin, width - 1 - margin, n_traj),
        rng.uniform(margin, height - 1 - margin, n_traj),
    ])
    trajs = []
    for i in range(n_traj):
        if staggered and frame_count >= 6:
            length = int(rng.integers(4, frame_count + 1))
            start = int(rng.integers(0, frame_count - length + 1))
        else:
            start, length = 0, frame_count
        pts = anchors[i] + rng.uniform(-jitter, jitter, (length, 2))
        pts = np.clip(pts, 0.0, [width - 1.0, height - 1.0])
        trajs.append(FeatureTrajectory(id=i, start_frame=start, points=pts))
    return TrajectorySet(tuple(trajs), frame_count, (width, height))


def stage1_problem(ts: TrajectorySet) -> QuadraticProblem:
    """An empty problem over ts's stage-1 unknowns, with its UnknownIndex."""
    index = UnknownIndex(ts)
    return QuadraticProblem(index.n, index)


def world_texture(rng: np.random.Generator, width: int, height: int,
                  smooth: float = 1.5) -> np.ndarray:
    """A smoothed random luminance field stretched to the full [0,255] range."""
    raw = gaussian_filter(rng.uniform(0.0, 1.0, (height, width)), smooth)
    raw -= raw.min()
    raw /= raw.max()
    return raw * 255.0


def textured_frames(
    rng: np.random.Generator,
    width: int = 64,
    height: int = 48,
    frame_count: int = 8,
    max_shift: int = 2,
) -> tuple[list[GrayFrame], np.ndarray]:
    """Frames cut from one world texture at integer window offsets.

    Returns (frames, offsets) where offsets[t] = (dx, dy) of frame t's
    window.  Integer offsets keep the inter-frame motion exactly known, so
    tracker output can be scored against ground truth without resampling
    error.
    """
    pad = max_shift
    world = world_texture(rng, width + 2 * pad, height + 2 * pad)
    offsets = np.zeros((frame_count, 2), dtype=np.int64)
    if max_shift > 0:
        offsets[1:] = rng.integers(-max_shift, max_shift + 1, (frame_count - 1, 2))
    frames = []
    for t in range(frame_count):
        dx, dy = int(offsets[t, 0]), int(offsets[t, 1])
        window = world[pad + dy:pad + dy + height, pad + dx:pad + dx + width]
        frames.append(GrayFrame.from_array(window))
    return frames, offsets


def fit_similarity(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares similarity transform sending src points to dst points.

    Returns (linear 2x2, translation, residual) for the model
    dst = [[a, -b], [b, a]] @ src + t.  Used where a test needs the exact
    rigid+scale motion that relates two point clouds.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    m = src.shape[0]
    A = np.zeros((2 * m, 4))
    A[0::2, 0] = src[:, 0]
    A[0::2, 1] = -src[:, 1]
    A[0::2, 2] = 1.0
    A[1::2, 0] = src[:, 1]
    A[1::2, 1] = src[:, 0]
    A[1::2, 3] = 1.0
    rhs = dst.reshape(-1)
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    a, b, tx, ty = sol
    lin = np.array([[a, -b], [b, a]])
    resid = float(np.linalg.norm(A @ sol - rhs))
    return lin, np.array([tx, ty]), resid
