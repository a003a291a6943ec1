"""Feature trajectories: the core data carrier of the pipeline.

A trajectory is one tracked feature point observed over a contiguous frame
interval.  A TrajectorySet bundles every trajectory of a clip together with
the clip's frame count and frame size; both types validate their invariants
on construction and are immutable afterwards, so they can be shared freely
across threads.

Points are float64 arrays of shape (2,) holding (x, y) pixel coordinates,
0-based, with x in [0, width-1] and y in [0, height-1].  Frame indices are
0-based everywhere, including the text file format.

Every later layer works on the features alive at each frame.  A set packs
them once, in one numpy pass, into its ObservationTable: one row per
(trajectory, frame) observation, in ascending id, then frame, order, so row
r is stage-1 unknowns 2r (x) and 2r + 1 (y).  A frame-major permutation of
the rows makes frame t's features, ascending by id, one slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, read_text

__all__ = [
    "FeatureTrajectory",
    "TrajectorySet",
    "ObservationTable",
    "SceneSpec",
    "filter_short",
    "validate_bounds",
    "load_trajectories",
    "save_trajectories",
    "make_scene_spec",
    "synthesize_scene",
]


_INT64_MAX = 2**63 - 1  # ids and frames are held as int64 arrays


@dataclass(frozen=True)
class FeatureTrajectory:
    """One feature point tracked over frames [start_frame, end_frame].

    points has shape (length, 2); row k is the position at frame
    start_frame + k.  Every invariant error names the trajectory's id.
    """

    id: int
    start_frame: int
    points: np.ndarray

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"trajectory id must be >= 0, got {self.id}")
        if self.start_frame < 0:
            raise ValueError(f"trajectory {self.id}: start_frame {self.start_frame} < 0")
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"trajectory {self.id}: points must be (n>=1, 2), got {pts.shape}")
        if max(self.id, self.start_frame + pts.shape[0] - 1) > _INT64_MAX:
            raise ValueError(f"trajectory {self.id}: id or frames beyond the int64 range")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"trajectory {self.id}: non-finite coordinates")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def end_frame(self) -> int:
        return self.start_frame + len(self) - 1

    def alive_at(self, t: int) -> bool:
        return self.start_frame <= t <= self.end_frame

    def point_at(self, t: int) -> np.ndarray:
        """Position at frame t; t must be inside the trajectory's interval."""
        if not self.alive_at(t):
            raise IndexError(
                f"trajectory {self.id} spans frames "
                f"[{self.start_frame}, {self.end_frame}], asked for {t}"
            )
        return self.points[t - self.start_frame]


@dataclass(frozen=True)
class TrajectorySet:
    """All trajectories of one clip plus the clip geometry.

    frame_size is (width, height) in pixels.  Invariants checked here:
    unique ids and every trajectory interval inside [0, frame_count-1].
    Observed (tracked or synthesized) sets additionally satisfy the frame
    rectangle bound; callers at those construction sites run
    validate_bounds().  Smoothed sets may overshoot the border slightly,
    so the container itself stays agnostic.
    """

    trajectories: tuple[FeatureTrajectory, ...]
    frame_count: int
    frame_size: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        w, h = self.frame_size
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")
        if w < 2 or h < 2:
            raise ValueError(f"frame_size must be at least 2x2, got {w}x{h}")
        if max(self.frame_count, w, h) > _INT64_MAX:
            raise ValueError("frame_count or frame_size beyond the int64 range")
        seen: set[int] = set()
        for tr in self.trajectories:
            if tr.id in seen:
                raise ValueError(f"duplicate trajectory id {tr.id}")
            seen.add(tr.id)
            if tr.end_frame > self.frame_count - 1:
                raise ValueError(
                    f"trajectory {tr.id} ends at frame {tr.end_frame}, "
                    f"clip has frames [0, {self.frame_count - 1}]"
                )

    def __len__(self) -> int:
        return len(self.trajectories)

    def by_id(self, tid: int) -> FeatureTrajectory:
        for tr in self.trajectories:
            if tr.id == tid:
                return tr
        raise KeyError(f"no trajectory with id {tid}")

    @cached_property
    def observations(self) -> ObservationTable:
        """The packed table of every observation, built on first use."""
        trs = sorted(self.trajectories, key=lambda tr: tr.id)
        lengths = np.array([len(tr) for tr in trs], dtype=np.int64)
        first = np.concatenate([[0], np.cumsum(lengths)])
        starts = np.array([tr.start_frame for tr in trs], dtype=np.int64)
        frames = np.arange(first[-1]) + np.repeat(starts - first[:-1], lengths)
        order = np.argsort(frames, kind="stable")  # keeps each frame's rows in id order
        return ObservationTable(
            frame_count=self.frame_count,
            ids=np.repeat(np.array([tr.id for tr in trs], dtype=np.int64), lengths),
            frames=frames,
            points=np.concatenate([tr.points for tr in trs] or [np.zeros((0, 2))]),
            order=order,
            frame_major=frames[order],
        )


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Every (trajectory, frame) observation of a TrajectorySet, packed.

    ids, frames and points hold one row per observation, in ascending id,
    then frame, order.  Frame t's rows are the slice of the frame-major
    permutation `order` that binary search over frame_major bounds, which
    keeps the table O(observations) however many frames the set claims.
    """

    frame_count: int
    ids: np.ndarray          # (R,) int64
    frames: np.ndarray       # (R,) int64
    points: np.ndarray       # (R, 2) float64
    order: np.ndarray        # (R,) int64, frame-major row permutation
    frame_major: np.ndarray  # (R,) int64, frames[order]

    def __post_init__(self):
        for arr in (self.ids, self.frames, self.points, self.order, self.frame_major):
            arr.flags.writeable = False

    def at(self, t: int) -> np.ndarray:
        """Rows alive at frame t, ascending by id."""
        if not 0 <= t <= self.frame_count - 1:
            raise IndexError(f"frame {t} out of range [0, {self.frame_count - 1}]")
        lo = np.searchsorted(self.frame_major, t, side="left")
        hi = np.searchsorted(self.frame_major, t, side="right")
        return self.order[lo:hi]

    def rows(self, t: int, ids) -> np.ndarray:
        """Rows of trajectories `ids` at frame t; every one must be alive there."""
        alive = self.at(t)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        pos = np.searchsorted(self.ids[alive], ids)
        hit = pos < alive.size
        hit[hit] = self.ids[alive[pos[hit]]] == ids[hit]
        if not hit.all():
            raise IndexError(f"trajectory {int(ids[~hit][0])} is not alive at frame {t}")
        return alive[pos]


def validate_bounds(ts: TrajectorySet) -> TrajectorySet:
    """Raise ValueError unless every point sits inside the frame rectangle.

    Returns the set unchanged so construction sites can chain it.
    """
    w, h = ts.frame_size
    for tr in ts.trajectories:
        x = tr.points[:, 0]
        y = tr.points[:, 1]
        if x.min() < 0.0 or x.max() > w - 1 or y.min() < 0.0 or y.max() > h - 1:
            raise ValueError(
                f"trajectory {tr.id} leaves the frame rectangle "
                f"[0, {w - 1}] x [0, {h - 1}]"
            )
    return ts


def filter_short(ts: TrajectorySet, min_len: int = 3) -> TrajectorySet:
    """Drop trajectories of length <= min_len (keep strictly longer only)."""
    kept = tuple(tr for tr in ts.trajectories if len(tr) > min_len)
    return TrajectorySet(kept, ts.frame_count, ts.frame_size)


# --- text format ---
#
# Line 1:        <frame_count> <width> <height>
# Per trajectory: <id> <start_frame> <x0> <y0> <x1> <y1> ...
#
# Coordinates are written with repr(), which round-trips float64 exactly.


def save_trajectories(ts: TrajectorySet, path: str | Path) -> None:
    w, h = ts.frame_size
    lines = [f"{ts.frame_count} {w} {h}"]
    for tr in ts.trajectories:
        coords = " ".join(repr(float(v)) for v in tr.points.ravel())
        lines.append(f"{tr.id} {tr.start_frame} {coords}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trajectories(path: str | Path) -> TrajectorySet:
    text = read_text(path)
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty trajectory file", line=1)
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"header must be '<frames> <width> <height>', got {lines[0]!r}", line=1)
    try:
        frame_count, width, height = (int(v) for v in head)
    except ValueError:
        raise ParseError(f"non-integer header field in {lines[0]!r}", line=1) from None
    try:
        TrajectorySet((), frame_count, (width, height))  # the header's own checks
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None
    trajectories = []
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        toks = raw.split()
        if len(toks) < 4:
            raise ParseError(f"trajectory record needs id, start and >=1 point", line=ln)
        try:
            tid = int(toks[0])
            start = int(toks[1])
            coords = np.array([float(v) for v in toks[2:]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"bad numeric field ({exc})", line=ln) from None
        if coords.size % 2 != 0:
            raise ParseError(f"trajectory {tid}: odd coordinate count {coords.size}", line=ln)
        pts = coords.reshape(-1, 2)
        end = start + pts.shape[0] - 1
        if start < 0 or end >= frame_count:
            raise ParseError(
                f"trajectory {tid} spans frames [{start}, {end}], "
                f"clip has frames [0, {frame_count - 1}]",
                line=ln,
            )
        try:
            trajectories.append(FeatureTrajectory(id=tid, start_frame=start, points=pts))
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from None
    try:
        return TrajectorySet(tuple(trajectories), frame_count, (width, height))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# --- synthetic scenes ---


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic shaky clip with known ground truth.

    The camera follows a smooth path (a cubic polynomial per coordinate,
    bounded by path_amplitude) and is shaken by an independent per-frame
    similarity: translation uniform in [-jitter_translation, +..] per axis
    and rotation uniform in [-jitter_rotation_deg, +..] about the frame
    center.  Foreground points additionally follow their own smooth cubic
    motion bounded by foreground_amplitude.
    """

    width: int
    height: int
    frame_count: int
    background: np.ndarray
    foreground: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    path_amplitude: float = 0.0
    jitter_translation: float = 0.0
    jitter_rotation_deg: float = 0.0
    foreground_amplitude: float = 0.0

    def __post_init__(self):
        bg = np.asarray(self.background, dtype=np.float64).reshape(-1, 2)
        fg = np.asarray(self.foreground, dtype=np.float64).reshape(-1, 2)
        object.__setattr__(self, "background", bg)
        object.__setattr__(self, "foreground", fg)
        if self.frame_count < 10:
            raise ValueError(f"need >= 10 frames, got {self.frame_count}")
        pts = np.vstack([bg, fg])
        if pts.shape[0] < 4:
            raise ValueError(f"need >= 4 scene points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("scene points contain non-finite values")
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[1] <= 1e-9 * max(sv[0], 1.0):
            raise ValueError("scene points are (nearly) collinear; cannot mesh such a scene")
        self._check_margins(pts)

    def _check_margins(self, pts: np.ndarray) -> None:
        w, h = self.width, self.height
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        theta = np.deg2rad(self.jitter_rotation_deg)
        dist = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        rot_reach = 2.0 * np.sin(theta / 2.0) * dist
        reach = (self.path_amplitude + self.foreground_amplitude
                 + self.jitter_translation + rot_reach)
        lo = pts - reach[:, None]
        hi = pts + reach[:, None]
        if lo[:, 0].min() < 0 or lo[:, 1].min() < 0 or hi[:, 0].max() > w - 1 or hi[:, 1].max() > h - 1:
            raise ValueError(
                "scene points sit too close to the border for the requested "
                "motion amplitudes; enlarge the margin or shrink the amplitudes"
            )


def _bounded_cubic(rng: np.random.Generator, amplitude: float, tau: np.ndarray) -> np.ndarray:
    """A cubic polynomial c1*tau + c2*tau^2 + c3*tau^3 with max |value| = amplitude.

    Coefficients are always drawn (keeps the rng stream layout independent of
    the amplitude), then scaled so the extreme over tau equals the amplitude.
    """
    c = rng.uniform(-1.0, 1.0, size=3)
    vals = c[0] * tau + c[1] * tau**2 + c[2] * tau**3
    peak = np.abs(vals).max()
    if amplitude == 0.0 or peak == 0.0:
        return np.zeros_like(tau)
    return vals * (amplitude / peak)


def make_scene_spec(
    width: int,
    height: int,
    frame_count: int,
    n_background: int,
    n_foreground: int = 0,
    seed: int = 0,
    path_amplitude: float = 0.0,
    jitter_translation: float = 0.0,
    jitter_rotation_deg: float = 0.0,
    foreground_amplitude: float = 0.0,
    margin: float | None = None,
    min_separation: float = 8.0,
) -> SceneSpec:
    """Draw scene points from `seed` and bundle them into a SceneSpec.

    Points are rejection-sampled inside the frame with `margin` kept free on
    every side and at least `min_separation` px between any two points.
    """
    rng = np.random.default_rng(seed)
    if margin is None:
        # generous slack over the worst-case per-frame displacement
        rot = np.deg2rad(jitter_rotation_deg) * 0.5 * float(np.hypot(width, height))
        margin = path_amplitude + foreground_amplitude + jitter_translation + rot + 4.0
    lo = np.array([margin, margin])
    hi = np.array([width - 1 - margin, height - 1 - margin])
    if np.any(hi - lo < min_separation):
        raise ValueError("frame too small for the requested margin")
    total = n_background + n_foreground
    pts: list[np.ndarray] = []
    attempts = 0
    while len(pts) < total:
        attempts += 1
        if attempts > 200 * total + 1000:
            raise ValueError(
                f"could not place {total} points with separation {min_separation}"
            )
        cand = rng.uniform(lo, hi)
        if all(np.hypot(*(cand - q)) >= min_separation for q in pts):
            pts.append(cand)
    arr = np.array(pts)
    return SceneSpec(
        width=width,
        height=height,
        frame_count=frame_count,
        background=arr[:n_background],
        foreground=arr[n_background:],
        path_amplitude=path_amplitude,
        jitter_translation=jitter_translation,
        jitter_rotation_deg=jitter_rotation_deg,
        foreground_amplitude=foreground_amplitude,
    )


def synthesize_scene(spec: SceneSpec, seed: int) -> tuple[TrajectorySet, TrajectorySet]:
    """Generate (shaky, ground_truth) trajectory sets for a synthetic scene.

    Deterministic: the same spec and seed always produce identical sets.
    Background trajectories get ids 0..n_bg-1, foreground ids follow.
    Every trajectory spans the full clip.
    """
    rng = np.random.default_rng(seed)
    T = spec.frame_count
    tau = np.arange(T, dtype=np.float64) / (T - 1)

    cam = np.column_stack([
        _bounded_cubic(rng, spec.path_amplitude, tau),
        _bounded_cubic(rng, spec.path_amplitude, tau),
    ])  # (T, 2)

    n_fg = spec.foreground.shape[0]
    fg_motion = np.zeros((n_fg, T, 2))
    for i in range(n_fg):
        fg_motion[i, :, 0] = _bounded_cubic(rng, spec.foreground_amplitude, tau)
        fg_motion[i, :, 1] = _bounded_cubic(rng, spec.foreground_amplitude, tau)

    jt = spec.jitter_translation
    jr = np.deg2rad(spec.jitter_rotation_deg)
    shift = rng.uniform(-jt, jt, size=(T, 2))
    theta = rng.uniform(-jr, jr, size=T)

    base = np.vstack([spec.background, spec.foreground])  # (N, 2)
    n = base.shape[0]
    truth = np.empty((n, T, 2))
    truth[:] = base[:, None, :] + cam[None, :, :]
    if n_fg:
        truth[-n_fg:] += fg_motion

    cx, cy = (spec.width - 1) / 2.0, (spec.height - 1) / 2.0
    center = np.array([cx, cy])
    shaky = np.empty_like(truth)
    for t in range(T):
        if theta[t] == 0.0 and shift[t, 0] == 0.0 and shift[t, 1] == 0.0:
            shaky[:, t, :] = truth[:, t, :]
            continue
        c, s = np.cos(theta[t]), np.sin(theta[t])
        rel = truth[:, t, :] - center
        shaky[:, t, 0] = c * rel[:, 0] - s * rel[:, 1] + cx + shift[t, 0]
        shaky[:, t, 1] = s * rel[:, 0] + c * rel[:, 1] + cy + shift[t, 1]

    w, h = spec.width, spec.height
    for name, arr in (("shaky", shaky), ("truth", truth)):
        if (arr[..., 0].min() < 0 or arr[..., 0].max() > w - 1
                or arr[..., 1].min() < 0 or arr[..., 1].max() > h - 1):
            raise ValueError(
                f"{name} trajectories leave the frame; the SceneSpec margins "
                "should have prevented this"
            )

    def build(arr: np.ndarray) -> TrajectorySet:
        trajs = tuple(
            FeatureTrajectory(id=i, start_frame=0, points=arr[i])
            for i in range(n)
        )
        return TrajectorySet(trajs, T, (w, h))

    return build(shaky), build(truth)
