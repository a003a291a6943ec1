"""Adaptive term weights for the smoothing optimization.

Two weight families live here.  The temporal weight shapes how hard a
trajectory step is smoothed, as a cubic-exponential falloff in the observed
per-axis step size: slow drift gets weights above 1 (smoothed harder) and
fast intentional motion decays below 1 (preserved).

The spatial weight measures how well a feature's neighborhood fits a single
8-parameter homography between consecutive frames.  Rigid background fits
almost exactly (tiny residual, weight clamps low); independently moving
foreground breaks the fit (weight grows, clamped high), which makes the
shape-preserving terms hold on to discontinuous regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .trajectory import TrajectorySet, frame_feature_set

__all__ = [
    "TemporalWeightParams",
    "LsmParams",
    "LsmTable",
    "temporal_weight",
    "fit_local_homography",
    "lsm_weight",
    "build_lsm_table",
]

COND_LIMIT = 1e12


@dataclass(frozen=True)
class TemporalWeightParams:
    sigma: float = 10.0

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def temporal_weight(d, sigma: float = 10.0):
    """exp(-((d - sigma)/sigma)^3): e at d=0, 1 at d=sigma, 1/e at d=2*sigma.

    Monotonically non-increasing in d.  Accepts a scalar or an array;
    callers feed the magnitude of the observed per-axis step.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u = (np.asarray(d, dtype=np.float64) - sigma) / sigma
    out = np.exp(-(u**3))
    return out if out.ndim else float(out)


def fit_local_homography(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares 8-parameter homography sending src points to dst points.

    Returns (params, residual) where params = (h1..h8) with the map
    x' = (h1 x + h2 y + h3) / (h7 x + h8 y + 1) and likewise for y', and
    residual is the squared norm of the linearized system's error.  Raises
    DegenerateGeometryError when the design matrix is rank-deficient or
    ill-conditioned (condition number beyond COND_LIMIT).
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    m = src.shape[0]
    if dst.shape[0] != m:
        raise ValueError(f"point counts differ: {m} vs {dst.shape[0]}")
    if m < 4:
        raise DegenerateGeometryError(f"homography fit needs >= 4 points, got {m}")
    x, y = src[:, 0], src[:, 1]
    xp, yp = dst[:, 0], dst[:, 1]
    A = np.zeros((2 * m, 8))
    A[0::2, 0] = x
    A[0::2, 1] = y
    A[0::2, 2] = 1.0
    A[0::2, 6] = -xp * x
    A[0::2, 7] = -xp * y
    A[1::2, 3] = x
    A[1::2, 4] = y
    A[1::2, 5] = 1.0
    A[1::2, 6] = -yp * x
    A[1::2, 7] = -yp * y
    rhs = np.empty(2 * m)
    rhs[0::2] = xp
    rhs[1::2] = yp
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(rhs)):
        raise DegenerateGeometryError("homography system has non-finite entries")
    h, _, rank, sv = np.linalg.lstsq(A, rhs, rcond=None)
    # the SVD solve stays accurate far beyond where the squared conditioning
    # of the normal equations would give up, so the guard sits on A itself
    if rank < 8 or sv[-1] <= sv[0] / COND_LIMIT:
        raise DegenerateGeometryError("homography design matrix is (near) rank-deficient")
    r = A @ h - rhs
    return h, float(r @ r)


@dataclass(frozen=True)
class LsmParams:
    k: int = 8
    tau: float = 10.0
    clamp_low: float = 0.1
    clamp_high: float = 10.0
    min_neighbors: int = 4

    def __post_init__(self):
        if self.k < 4:
            raise ValueError(f"k must be >= 4 (8-parameter fit), got {self.k}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.clamp_low < self.clamp_high:
            raise ValueError(
                f"clamp range is empty: [{self.clamp_low}, {self.clamp_high}]"
            )


@dataclass(frozen=True)
class LsmTable:
    """Per-(frame, trajectory) spatial weights; missing entries mean 1.0."""

    weights: dict[tuple[int, int], float]

    def get(self, t: int, tid: int) -> float:
        return self.weights.get((t, tid), 1.0)


def _frame_arrays(ts: TrajectorySet, t: int) -> tuple[np.ndarray, np.ndarray]:
    feats = frame_feature_set(ts, t)
    if not feats:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 2))
    ids = np.array([f[0] for f in feats], dtype=np.int64)
    pts = np.array([f[1] for f in feats])
    return ids, pts


def lsm_weight(
    ts: TrajectorySet,
    t: int,
    target_id: int,
    params: LsmParams = LsmParams(),
) -> float:
    """Spatial weight for one trajectory at one frame.

    Neutral 1.0 at a trajectory's first frame, when fewer than
    min_neighbors co-visible neighbors exist, or when the homography fit is
    degenerate.  Otherwise clamp(theta * residual) into
    [clamp_low, clamp_high], where theta normalizes the neighborhood radius
    by the frame size (mean of width/tau and height/tau).
    """
    tr = ts.by_id(target_id)
    if t == tr.start_frame:
        return 1.0
    ids_t, pts_t = _frame_arrays(ts, t)
    ids_p, pts_p = _frame_arrays(ts, t - 1)
    common, it, ip = np.intersect1d(ids_t, ids_p, return_indices=True)
    if target_id not in common:
        return 1.0
    pos_t = pts_t[it]
    pos_p = pts_p[ip]
    sel = int(np.nonzero(common == target_id)[0][0])
    n_others = len(common) - 1
    if n_others < params.min_neighbors:
        return 1.0
    k_eff = min(params.k, n_others)
    d = np.hypot(pos_t[:, 0] - pos_t[sel, 0], pos_t[:, 1] - pos_t[sel, 1])
    order = [j for j in np.lexsort((common, d)) if j != sel][:k_eff]
    rows = [sel] + order
    try:
        _, residual = fit_local_homography(pos_t[rows], pos_p[rows])
    except DegenerateGeometryError:
        return 1.0
    w, h = ts.frame_size
    rho = (w / params.tau + h / params.tau) / 2.0
    theta = float(d[order].sum()) / (k_eff * rho)
    return float(np.clip(theta * residual, params.clamp_low, params.clamp_high))


def _frame_tables(ts: TrajectorySet) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every frame's alive ids (ascending) and their positions, in one pass."""
    trs = ts.trajectories
    if not trs:
        return ([np.zeros(0, dtype=np.int64)] * ts.frame_count,
                [np.zeros((0, 2))] * ts.frame_count)
    ids = np.repeat([tr.id for tr in trs], [len(tr) for tr in trs])
    frame = np.concatenate([np.arange(tr.start_frame, tr.end_frame + 1) for tr in trs])
    pts = np.concatenate([tr.points for tr in trs])
    order = np.lexsort((ids, frame))
    cuts = np.searchsorted(frame[order], np.arange(1, ts.frame_count))
    return np.split(ids[order], cuts), np.split(pts[order], cuts)


def _batched_residuals(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """fit_local_homography's residual for each of N (m, 2) point sets.

    Sets whose fit fit_local_homography rejects (non-finite, rank-deficient
    or beyond COND_LIMIT) get NaN.  m must be at least 4.
    """
    n, m = src.shape[:2]
    x, y = src[..., 0], src[..., 1]
    xp, yp = dst[..., 0], dst[..., 1]
    A = np.zeros((n, 2 * m, 8))
    A[:, 0::2, 0] = x
    A[:, 0::2, 1] = y
    A[:, 0::2, 2] = 1.0
    A[:, 0::2, 6] = -xp * x
    A[:, 0::2, 7] = -xp * y
    A[:, 1::2, 3] = x
    A[:, 1::2, 4] = y
    A[:, 1::2, 5] = 1.0
    A[:, 1::2, 6] = -yp * x
    A[:, 1::2, 7] = -yp * y
    rhs = dst.reshape(n, 2 * m)
    out = np.full(n, np.nan)
    ok = np.nonzero(np.isfinite(A).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1))[0]
    u, s, vt = np.linalg.svd(A[ok], full_matrices=False)
    # lstsq's rank rule for rcond=None, then the same condition guard
    rank = (s > np.finfo(np.float64).eps * max(2 * m, 8) * s[:, :1]).sum(axis=1)
    good = (rank == 8) & (s[:, -1] > s[:, 0] / COND_LIMIT)
    ok, u, s, vt = ok[good], u[good], s[good], vt[good]
    # the residual is taken from A h - b, not from ||b||^2 - ||U^T b||^2,
    # which cancels for the near-exact fits of a rigid background
    b = rhs[ok, :, None]
    h = np.swapaxes(vt, 1, 2) @ ((np.swapaxes(u, 1, 2) @ b) / s[..., None])
    r = (A[ok] @ h - b)[..., 0]
    out[ok] = (r * r).sum(axis=1)
    return out


def _pair_weights(pos_t: np.ndarray, pos_p: np.ndarray, params: LsmParams,
                  rho: float) -> np.ndarray:
    """lsm_weight for every feature co-visible in frames t and t-1.

    pos_t and pos_p hold the features' positions in the two frames, in
    ascending id order.
    """
    n_others = len(pos_t) - 1
    k_eff = min(params.k, n_others)
    weight = np.ones(len(pos_t))
    # fit_local_homography needs the feature plus at least 3 neighbors
    if n_others < params.min_neighbors or k_eff + 1 < 4:
        return weight
    x, y = pos_t[:, 0], pos_t[:, 1]
    d = np.hypot(x[None] - x[:, None], y[None] - y[:, None])
    np.fill_diagonal(d, np.inf)
    # rows are in id order, so a stable sort breaks distance ties by id
    nb = np.argsort(d, axis=1, kind="stable")[:, :k_eff]
    theta = np.take_along_axis(d, nb, axis=1).sum(axis=1) / (k_eff * rho)
    rows = np.column_stack([np.arange(len(pos_t)), nb])
    resid = _batched_residuals(pos_t[rows], pos_p[rows])
    fit = ~np.isnan(resid)
    weight[fit] = np.clip(theta[fit] * resid[fit], params.clamp_low, params.clamp_high)
    return weight


def build_lsm_table(ts: TrajectorySet, params: LsmParams = LsmParams()) -> LsmTable:
    """Weights for every (frame, trajectory) pair alive in the set.

    One batched pass per frame: the features co-visible in frames t and
    t-1, each one's k nearest neighbors from one distance matrix, and one
    stacked SVD for all of the frame's homography fits.  lsm_weight is the
    scalar reference; the entries match it up to the round-off of that SVD
    against lstsq's (about 1e-12 relative).
    """
    ids, pts = _frame_tables(ts)
    w, h = ts.frame_size
    rho = (w / params.tau + h / params.tau) / 2.0
    table: dict[tuple[int, int], float] = {}
    for t in range(ts.frame_count):
        # a trajectory's first frame is not in common and stays neutral
        weight = np.ones(ids[t].size)
        if t > 0:
            _, it, ip = np.intersect1d(ids[t], ids[t - 1], return_indices=True)
            weight[it] = _pair_weights(pts[t][it], pts[t - 1][ip], params, rho)
        table.update(zip(zip([t] * weight.size, ids[t].tolist()), weight.tolist()))
    return LsmTable(weights=table)
