"""Corner detection and pyramidal feature tracking.

Detection scores pixels by the minimum eigenvalue of the local gradient
structure tensor, keeps the strongest corners globally, then tops up every
grid cell whose count fell short with that cell's best remaining
responses, so low-texture regions still contribute mesh vertices.

Tracking is translational iterative flow refined coarse-to-fine over an
image pyramid, with a forward-backward consistency check.  A point is lost
when it leaves the frame, sits on degenerate texture, or fails the check.
Everything here is deterministic: identical frames and config produce an
identical TrajectorySet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .frames import GrayFrame
from .trajectory import (
    FeatureTrajectory,
    TrajectorySet,
    validate_bounds,
)

__all__ = ["TrackerConfig", "detect_corners", "track_frame_pair", "build_trajectories"]

MIN_FRAME_SIDE = 32


@dataclass(frozen=True)
class TrackerConfig:
    grid_cols: int = 10
    grid_rows: int = 10
    corner_target: int = 200
    min_per_cell: int = 1
    response_radius: int = 3          # 7x7 structure tensor window
    global_thresh_ratio: float = 0.01  # of the maximum response
    window: int = 21                   # flow window side length
    pyramid_levels: int = 3
    max_iterations: int = 30
    convergence_px: float = 0.01
    fb_error_max: float = 0.5
    min_eig_threshold: float = 1e-3
    redetect_fraction: float = 0.6
    min_new_corner_dist: float = 5.0

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if not 0.0 < self.global_thresh_ratio < 1.0:
            raise ValueError("global_thresh_ratio must be in (0, 1)")
        # below these bounds tracking runs without complaint but is broken:
        # no grid cell to top up, no corner budget, no structure-tensor
        # window, no refinement step, or a forward-backward bound that no
        # point meets
        for name in ("grid_cols", "grid_rows", "corner_target", "response_radius",
                     "max_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.fb_error_max > 0.0:
            raise ValueError(f"fb_error_max must be > 0, got {self.fb_error_max}")
        # NaN passes every comparison it is meant to fail: a NaN distance
        # lets new corners land on live points, a NaN step never converges
        for name in ("min_new_corner_dist", "convergence_px", "min_eig_threshold"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.redetect_fraction <= 1.0:
            raise ValueError(
                f"redetect_fraction must be in [0, 1], got {self.redetect_fraction}"
            )
        if self.min_per_cell < 0:
            raise ValueError(f"min_per_cell must be >= 0, got {self.min_per_cell}")


def _check_frame(frame: GrayFrame) -> None:
    if frame.width < MIN_FRAME_SIDE or frame.height < MIN_FRAME_SIDE:
        raise ValueError(
            f"frame {frame.width}x{frame.height} too small, need at least "
            f"{MIN_FRAME_SIDE}x{MIN_FRAME_SIDE}"
        )


def _max3x3(a: np.ndarray) -> np.ndarray:
    """Each pixel's 3x3 neighbourhood maximum, the edge pixel repeated outward.

    Equal to scipy.ndimage.maximum_filter(a, size=3), whose 'reflect' mode
    repeats the edge pixel at this size.
    """
    p = np.pad(a, 1, mode="edge")
    rows = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])
    return np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def detect_corners(frame: GrayFrame, cfg: TrackerConfig = TrackerConfig()) -> list[np.ndarray]:
    """Detect corner points, sorted by descending score then row-major position."""
    _check_frame(frame)
    # a grid finer than the pixels has cells no pixel falls in
    for name, side in (("grid_cols", frame.width), ("grid_rows", frame.height)):
        if getattr(cfg, name) > side:
            raise ValueError(f"{name} must be <= the frame side {side}, got {getattr(cfg, name)}")
    # the response needs the (2r+1)^2 window and a one-pixel gradient border
    r, side = cfg.response_radius, min(frame.width, frame.height)
    if 2 * r + 3 > side:
        raise ValueError(f"response_radius must be <= {(side - 3) // 2}, so that its window "
                         f"fits inside the {frame.width}x{frame.height} frame, got {r}")
    resp = kernels.corner_min_eig(frame.data, cfg.response_radius)
    peak = float(resp.max())
    if peak <= 0.0:
        return []
    # 3x3 non-maximum suppression
    is_max = (resp == _max3x3(resp)) & (resp > 0.0)
    ys, xs = np.nonzero(is_max)
    scores = resp[ys, xs]
    order = np.lexsort((xs, ys, -scores))
    ys, xs, scores = ys[order], xs[order], scores[order]

    # the strongest corners above the global threshold, then the grid top-up
    n_global = min(cfg.corner_target, int((scores >= cfg.global_thresh_ratio * peak).sum()))
    chosen = np.arange(scores.size) < n_global
    cell_x = np.minimum((xs * cfg.grid_cols) // frame.width, cfg.grid_cols - 1)
    cell_y = np.minimum((ys * cfg.grid_rows) // frame.height, cfg.grid_rows - 1)
    _top_up_cells(cell_y * cfg.grid_cols + cell_x, chosen, cfg.min_per_cell)

    idx = np.nonzero(chosen)[0]
    return [np.array([float(xs[i]), float(ys[i])]) for i in idx]


def _top_up_cells(cell: np.ndarray, chosen: np.ndarray, min_per_cell: int) -> None:
    """Choose, in each cell short of min_per_cell, its best unchosen candidates.

    Candidates come in descending score order, all of them positive.
    """
    have = np.bincount(cell[chosen], minlength=int(cell.max(initial=0)) + 1)
    free = np.nonzero(~chosen)[0]
    free = free[np.argsort(cell[free], kind="stable")]  # by cell, then score
    c = cell[free]
    rank = np.arange(c.size) - np.searchsorted(c, c)  # place within its cell
    need = min(min_per_cell, cell.size) - have[c]  # capped: a huge min_per_cell overflows int64
    chosen[free[rank < need]] = True


# --- pyramids ---


def _downsample(a: np.ndarray) -> np.ndarray:
    h, w = a.shape
    a = a[: h - (h % 2), : w - (w % 2)]
    return 0.25 * (a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])


def _build_pyramid(data: np.ndarray, levels: int) -> list[np.ndarray]:
    pyr = [np.ascontiguousarray(data, dtype=np.float64)]
    for _ in range(1, levels):
        pyr.append(_downsample(pyr[-1]))
    return pyr


def _usable_levels(shape: tuple[int, int], cfg: TrackerConfig) -> int:
    """How many levels, from level 0 up, keep both sides >= window + 2 px.

    Level lv has sides side // 2**lv, which is >= need exactly when
    2**lv <= side // need.
    """
    return min(cfg.pyramid_levels, (min(shape) // (cfg.window + 2)).bit_length())


def _track_direction(
    src_pyr: list[np.ndarray],
    dst_pyr: list[np.ndarray],
    grad_pyr: list[tuple[np.ndarray, np.ndarray]],
    pts: np.ndarray,
    cfg: TrackerConfig,
    windows: list[kernels.Windows] | None,
) -> tuple[np.ndarray, np.ndarray]:
    levels = _usable_levels(src_pyr[0].shape, cfg)
    n = pts.shape[0]
    disp = np.zeros((n, 2))
    status = np.ones(n, dtype=np.uint8)
    if not levels:
        return disp, np.zeros(n, dtype=np.uint8)
    radius = cfg.window // 2
    for lv in range(levels - 1, -1, -1):
        scale = 1.0 / (1 << lv)
        gx, gy = grad_pyr[lv]
        kernels.lk_refine_level(
            src_pyr[lv], dst_pyr[lv], gx, gy,
            np.ascontiguousarray(pts * scale), disp, status,
            radius, cfg.max_iterations, cfg.convergence_px,
            cfg.min_eig_threshold, strict=(lv == 0),
            windows=None if windows is None else windows[lv],
        )
        if lv:
            disp *= 2.0
    return disp, status


class FrameCache:
    """What tracking one frame pair leaves for the next pair.

    The backward pass of pair (t-1, t) samples frame t at the tracked
    points; the forward pass of pair (t, t+1) samples it again at the
    survivors, which are the same coordinates.  The cache holds frame t,
    its pyramid and gradients, and one ``kernels.Windows`` store per level,
    so frame t is built once and each surviving window is sampled once.
    """

    def __init__(self):
        self.frame: GrayFrame | None = None
        self.cfg: TrackerConfig | None = None
        self.pyr: list[np.ndarray] = []
        self.grad: list[tuple[np.ndarray, np.ndarray]] = []
        self.windows: list[kernels.Windows] | None = None


def _pyramid_and_gradients(frame: GrayFrame, cfg: TrackerConfig):
    # levels past the usable ones are never read; level 0 always is
    pyr = _build_pyramid(frame.data, max(1, _usable_levels(frame.data.shape, cfg)))
    return pyr, [kernels.gradients(p) for p in pyr]


def track_frame_pair(
    prev: GrayFrame,
    nxt: GrayFrame,
    points: list[np.ndarray],
    cfg: TrackerConfig = TrackerConfig(),
    *,
    reuse: FrameCache | None = None,
) -> list[np.ndarray | None]:
    """Track points from `prev` into `nxt`; lost points come back as None.

    With `reuse`, a cache of the previous call whose `nxt` was this
    `prev` lends its pyramid and windows, and the cache is left holding
    `nxt`'s for the next call.  The result is the same with or without it.
    """
    _check_frame(prev)
    if (prev.width, prev.height) != (nxt.width, nxt.height):
        raise ValueError(
            f"frame sizes differ: {prev.width}x{prev.height} vs {nxt.width}x{nxt.height}"
        )
    if not points:
        return []
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if reuse is not None and reuse.frame is prev and reuse.cfg == cfg:
        prev_pyr, prev_grad, prev_win = reuse.pyr, reuse.grad, reuse.windows
    else:
        prev_pyr, prev_grad = _pyramid_and_gradients(prev, cfg)
        prev_win = None
    next_pyr, next_grad = _pyramid_and_gradients(nxt, cfg)
    next_win = None if reuse is None else [kernels.Windows() for _ in next_pyr]

    disp, status = _track_direction(prev_pyr, next_pyr, prev_grad, pts, cfg, prev_win)
    fwd = pts + disp

    back_disp, back_status = _track_direction(next_pyr, prev_pyr, next_grad, fwd, cfg, next_win)
    round_trip = fwd + back_disp
    fb_err = np.hypot(*(round_trip - pts).T)
    if reuse is not None:
        reuse.frame, reuse.cfg = nxt, cfg
        reuse.pyr, reuse.grad, reuse.windows = next_pyr, next_grad, next_win

    w, h = prev.width, prev.height
    qx, qy = fwd.T
    ok = ((status == 1) & (back_status == 1) & (fb_err <= cfg.fb_error_max)
          & (0.0 <= qx) & (qx <= w - 1) & (0.0 <= qy) & (qy <= h - 1))
    return [q if keep else None for q, keep in zip(fwd, ok.tolist())]


def build_trajectories(
    frames: list[GrayFrame],
    cfg: TrackerConfig = TrackerConfig(),
) -> TrajectorySet:
    """Detect and track corners through a clip.

    Corners are detected on the first frame and re-detected whenever the
    live-point count drops below redetect_fraction * corner_target; new
    corners too close to a surviving point are skipped so trajectories do
    not pile up.  Every trajectory is returned, down to a single frame;
    callers drop the short ones with trajectory.filter_short.
    """
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames, got {len(frames)}")
    w, h = frames[0].width, frames[0].height
    if not _usable_levels((h, w), cfg):
        raise ValueError(f"window must be <= {min(w, h) - 2}, so that it fits inside the "
                         f"{w}x{h} frame, got {cfg.window}")

    next_id = 0
    reuse = FrameCache()
    live: list[dict] = []
    done: list[dict] = []

    def start_tracks(t: int, corners: list[np.ndarray]) -> None:
        # a corner is skipped if it lies too close to a live point or to an
        # earlier corner of the same batch that was kept
        nonlocal next_id
        if not corners:
            return
        c = np.asarray(corners)
        if live:
            p = np.array([tr["pts"][-1] for tr in live])
            near = np.hypot(c[:, None, 0] - p[:, 0], c[:, None, 1] - p[:, 1])
            c = c[~(near < cfg.min_new_corner_dist).any(axis=1)]
        close = np.hypot(c[:, None, 0] - c[:, 0], c[:, None, 1] - c[:, 1]) < cfg.min_new_corner_dist
        skip = np.zeros(len(c), dtype=bool)
        for i in range(len(c)):
            if skip[i]:
                continue
            skip[i + 1:] |= close[i, i + 1:]
            live.append({"id": next_id, "start": t, "pts": [c[i]]})
            next_id += 1

    start_tracks(0, detect_corners(frames[0], cfg))

    for t in range(1, len(frames)):
        if live:
            tracked = track_frame_pair(
                frames[t - 1], frames[t], [tr["pts"][-1] for tr in live], cfg, reuse=reuse
            )
            survivors = []
            for tr, q in zip(live, tracked):
                if q is None:
                    done.append(tr)
                else:
                    tr["pts"].append(q)
                    survivors.append(tr)
            live = survivors
        if len(live) < cfg.redetect_fraction * cfg.corner_target:
            start_tracks(t, detect_corners(frames[t], cfg))

    done.extend(live)
    done.sort(key=lambda tr: tr["id"])
    trajs = tuple(
        FeatureTrajectory(id=tr["id"], start_frame=tr["start"], points=np.array(tr["pts"]))
        for tr in done
    )
    return validate_bounds(TrajectorySet(trajs, len(frames), (w, h)))
