"""Global quadratic smoothing of feature trajectories.

Every energy term is a weighted sum of squared linear residuals in the
unknown stabilized coordinates, so the whole objective collapses to

    E(x) = x' A x - 2 b' x + c,   A = sum w q q',  b = sum w t q

over residuals q'x - t with weight w.  A is symmetric positive definite as
soon as the regularizer is present (it contributes the identity), which
makes the minimizer the unique solution of A x = b.

Terms:
  * first-difference smoothing, per axis, scaled by a falloff in the
    observed step size so intentional pans are not flattened;
  * second-difference smoothing toward constant velocity;
  * per-triangle shape preservation: each inner-triangle vertex is
    reconstructed from the other two via the original triangle's local
    similarity coordinates, and the reconstruction error is penalized,
    scaled by the local motion-fit weight of that vertex;
  * cross-triangle consistency: the opposite vertex of each triangle in an
    adjacent inner pair is expressed in the other triangle's barycentric
    frame and reconstructed from stabilized vertices;
  * a unit-weight tie to the original positions, which also guarantees
    positive definiteness.

Geometry coefficients (similarity and barycentric coordinates) always come
from the original, observed meshes; only vertex positions are unknowns.
The two shape terms are built as whole-array rows over mesh-local vertex
coordinates by intersim_rows and intrasim_rows, which stage 2 shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DegenerateGeometryError, SolverError
from .mesh import AREA_EPS, FrameMesh, _orient, build_all_meshes
from .trajectory import FeatureTrajectory, TrajectorySet
from .weights import (
    LsmParams,
    LsmTable,
    TemporalWeightParams,
    build_lsm_table,
    temporal_weight,
)

__all__ = [
    "StageOneConfig",
    "UnknownIndex",
    "QuadraticProblem",
    "gram_entries",
    "add_smooth1",
    "add_smooth2",
    "intersim_rows",
    "intrasim_rows",
    "add_intersim",
    "add_intrasim",
    "add_reg",
    "assemble_stage1",
    "solve",
    "stabilize_stage1",
]

DENSE_CUTOFF = 2000


@dataclass(frozen=True)
class StageOneConfig:
    alpha: float = 20.0
    beta: float = 10.0
    gamma: float = 10.0
    epsilon: float = 20.0
    solver_tol: float = 1e-10
    max_iter_factor: int = 10
    dense_cutoff: int = DENSE_CUTOFF
    temporal: TemporalWeightParams = TemporalWeightParams()
    lsm: LsmParams = LsmParams()

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "epsilon"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.solver_tol <= 0.0:
            raise ValueError(f"solver_tol must be positive, got {self.solver_tol}")


class UnknownIndex:
    """Column layout of the stacked unknown vector.

    Trajectories are laid out in ascending id order; within a trajectory,
    frames in order; per frame, x then y.  Keeps enough structure (ids,
    start frames, frame geometry, original values) to rebuild a
    TrajectorySet from a solution vector.
    """

    def __init__(self, ts: TrajectorySet):
        self.frame_count = ts.frame_count
        self.frame_size = ts.frame_size
        self._offset: dict[int, int] = {}
        self._start: dict[int, int] = {}
        self._length: dict[int, int] = {}
        self._order: list[int] = []
        off = 0
        for tr in sorted(ts.trajectories, key=lambda r: r.id):
            self._offset[tr.id] = off
            self._start[tr.id] = tr.start_frame
            self._length[tr.id] = len(tr)
            self._order.append(tr.id)
            off += len(tr)
        self.n = 2 * off
        x0 = np.empty(self.n)
        for tr in ts.trajectories:
            base = 2 * self._offset[tr.id]
            x0[base:base + 2 * len(tr)] = tr.points.ravel()
        x0.flags.writeable = False
        self.x0 = x0

    def col(self, tid: int, t: int, axis: int) -> int:
        """Column of (trajectory tid, frame t, axis); axis 0 is x, 1 is y."""
        start = self._start[tid]
        return 2 * (self._offset[tid] + (t - start)) + axis

    def base(self, tid: int) -> int:
        """Column of the trajectory's first frame, x axis."""
        return 2 * self._offset[tid]

    def unpack(self, x: np.ndarray) -> TrajectorySet:
        if x.shape != (self.n,):
            raise ValueError(f"expected solution of shape ({self.n},), got {x.shape}")
        trajs = []
        for tid in self._order:
            base = 2 * self._offset[tid]
            ln = self._length[tid]
            pts = x[base:base + 2 * ln].reshape(ln, 2).copy()
            trajs.append(FeatureTrajectory(
                id=tid, start_frame=self._start[tid], points=pts))
        return TrajectorySet(tuple(trajs), self.frame_count, self.frame_size)


def gram_entries(
    w: np.ndarray, cols: np.ndarray, coefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate-form (i, j, value) entries of sum_r w[r] q_r q_r', where
    row r of the residuals has coefficients coefs[r] at columns cols[r]."""
    r, m = cols.shape
    wcc = w[:, None, None] * (coefs[:, :, None] * coefs[:, None, :])
    return (np.broadcast_to(cols[:, :, None], (r, m, m)).ravel(),
            np.broadcast_to(cols[:, None, :], (r, m, m)).ravel(),
            wcc.ravel())


class QuadraticProblem:
    """Accumulates weighted squared residuals sum w (q'x - t)^2.

    Entries are collected in coordinate form and only summed into a CSR
    matrix when first needed, so assembly cost is linear in the number of
    residual coefficients.
    """

    def __init__(self, index: UnknownIndex):
        self.index = index
        self.n = index.n
        self._ci: list[np.ndarray] = []
        self._cj: list[np.ndarray] = []
        self._cv: list[np.ndarray] = []
        self.b = np.zeros(self.n)
        self.const = 0.0
        self._mat: scipy.sparse.csr_matrix | None = None

    def add_batch(
        self,
        weights: np.ndarray | float,
        cols: np.ndarray,
        coefs: np.ndarray,
        targets: np.ndarray | None = None,
    ) -> None:
        """Add residual rows: weights (R,), cols (R,m) int, coefs (R,m).

        Each row r contributes weights[r] * (coefs[r] . x[cols[r]] - t_r)^2.
        targets defaults to zero.
        """
        cols = np.asarray(cols, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=np.float64)
        if cols.ndim != 2 or cols.shape != coefs.shape:
            raise ValueError(f"cols/coefs shape mismatch: {cols.shape} vs {coefs.shape}")
        r, m = cols.shape
        if r == 0:
            return
        w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (r,))
        if not np.all(np.isfinite(coefs)) or not np.all(np.isfinite(w)):
            raise ValueError("non-finite residual coefficients")
        if np.any(w < 0.0):
            raise ValueError("negative residual weight")
        if cols.min() < 0 or cols.max() >= self.n:
            raise IndexError("residual column out of range")

        i, j, v = gram_entries(w, cols, coefs)
        self._ci.append(i)
        self._cj.append(j)
        self._cv.append(v)
        if targets is not None:
            t = np.broadcast_to(np.asarray(targets, dtype=np.float64), (r,))
            if not np.all(np.isfinite(t)):
                raise ValueError("non-finite residual target")
            np.add.at(self.b, cols.ravel(), ((w * t)[:, None] * coefs).ravel())
            self.const += float(w @ (t * t))
        self._mat = None

    def matrix(self) -> scipy.sparse.csr_matrix:
        if self._mat is None:
            if self._ci:
                i = np.concatenate(self._ci)
                j = np.concatenate(self._cj)
                v = np.concatenate(self._cv)
            else:
                i = j = np.zeros(0, dtype=np.int64)
                v = np.zeros(0)
            mat = scipy.sparse.coo_matrix((v, (i, j)), shape=(self.n, self.n))
            self._mat = mat.tocsr()
        return self._mat

    def objective(self, x: np.ndarray) -> float:
        a = self.matrix()
        return float(x @ (a @ x) - 2.0 * (self.b @ x) + self.const)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        a = self.matrix()
        return 2.0 * (a @ x - self.b)

    def solve_vector(
        self,
        x0: np.ndarray | None = None,
        dense_cutoff: int = DENSE_CUTOFF,
        tol: float = 1e-10,
        max_iter_factor: int = 10,
    ) -> np.ndarray:
        if self.n == 0:
            return np.zeros(0)
        a = self.matrix()
        if self.n <= dense_cutoff:
            try:
                cf = scipy.linalg.cho_factor(a.toarray())
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"normal matrix not positive definite: {exc}") from None
            return scipy.linalg.cho_solve(cf, self.b)
        if x0 is None:
            x0 = np.zeros(self.n)
        return _pcg(a, self.b, x0, tol, max_iter_factor * self.n)


def _pcg(a, b, x0, tol, max_iter):
    """Conjugate gradient with diagonal preconditioning.

    Stops when ||A x - b|| <= tol * ||b||.  The regularizer puts the
    identity inside A, so the diagonal is strictly positive and the
    smallest eigenvalue is at least the reg weight; convergence is fast in
    practice.
    """
    diag = np.asarray(a.diagonal())
    if np.any(diag <= 0.0):
        raise SolverError("normal matrix has a non-positive diagonal entry")
    inv_diag = 1.0 / diag
    bnorm = float(np.linalg.norm(b))
    target = tol * bnorm if bnorm > 0.0 else tol
    x = x0.astype(np.float64, copy=True)
    r = b - a @ x
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    rnorm = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if rnorm <= target:
            return x
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverError(
                "encountered non-positive curvature; matrix is not positive definite",
                residual=rnorm,
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rnorm = float(np.linalg.norm(r))
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if rnorm <= target:
        return x
    raise SolverError(
        f"conjugate gradient did not reach tolerance in {max_iter} iterations",
        residual=rnorm,
    )


# --- term assembly ---


def add_smooth1(prob: QuadraticProblem, ts: TrajectorySet, cfg: StageOneConfig) -> None:
    """First-difference smoothing with step-size-adaptive weight, per axis.

    The falloff argument is the magnitude of the observed step on that
    axis; large intentional motion therefore weakens its own smoothing.
    """
    sigma = cfg.temporal.sigma
    for tr in ts.trajectories:
        ln = len(tr)
        if ln < 2:
            continue
        base = prob.index.base(tr.id)
        steps = 2 * np.arange(ln - 1, dtype=np.int64)
        for axis in (0, 1):
            d = np.abs(np.diff(tr.points[:, axis]))
            w = cfg.alpha * temporal_weight(d, sigma)
            c0 = base + axis + steps
            cols = np.column_stack([c0 + 2, c0])
            coefs = np.broadcast_to(np.array([1.0, -1.0]), (ln - 1, 2))
            prob.add_batch(w, cols, coefs)


def add_smooth2(prob: QuadraticProblem, ts: TrajectorySet, cfg: StageOneConfig) -> None:
    """Second-difference (constant velocity) smoothing, per axis."""
    for tr in ts.trajectories:
        ln = len(tr)
        if ln < 3:
            continue
        base = prob.index.base(tr.id)
        steps = 2 * np.arange(ln - 2, dtype=np.int64)
        for axis in (0, 1):
            c0 = base + axis + steps
            cols = np.column_stack([c0, c0 + 2, c0 + 4])
            coefs = np.broadcast_to(np.array([1.0, -2.0, 1.0]), (ln - 2, 3))
            prob.add_batch(cfg.beta, cols, coefs)


def add_reg(prob: QuadraticProblem, ts: TrajectorySet, weight: float = 1.0) -> None:
    """Tie every unknown to its original value with unit weight."""
    n = prob.n
    cols = np.arange(n, dtype=np.int64).reshape(n, 1)
    coefs = np.ones((n, 1))
    prob.add_batch(weight, cols, coefs, targets=prob.index.x0)


def _feature_columns(prob: QuadraticProblem, mesh: FrameMesh) -> np.ndarray:
    """x-axis column per feature vertex of a mesh (y is that plus one)."""
    t = mesh.frame
    return np.fromiter(
        (prob.index.col(int(tid), t, 0) for tid in mesh.feature_ids),
        dtype=np.int64,
        count=mesh.n_features,
    )


def intersim_rows(mesh: FrameMesh, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Similarity reconstruction rows over the triangles `which` of a mesh.

    For each triangle and each vertex v1 in turn, v1 is rebuilt from the
    other two vertices (v2, v3) through its similarity coordinates (a, b)
    in the original triangle:
      x: (1-a) x2 + a x3 - b y2 + b y3 - x1
      y: (1-a) y2 + a y3 + b x2 - b x3 - y1
    Returns mesh-local coordinates k = 2*v + axis and coefficients, both
    (6K, 5), rows ordered by role, then axis, then triangle.  The last
    column is always the reconstructed vertex v1.
    """
    tri = mesh.triangles[which].T  # (3, K)
    v1, v2, v3 = tri, np.roll(tri, -1, axis=0), np.roll(tri, -2, axis=0)
    pts = mesh.points
    e = pts[v3] - pts[v2]
    d = pts[v1] - pts[v2]
    l2 = e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1]
    if np.any(l2 <= 0.0):
        raise DegenerateGeometryError(f"zero-length triangle edge in frame {mesh.frame}")
    a = (d[..., 0] * e[..., 0] + d[..., 1] * e[..., 1]) / l2
    bb = (d[..., 0] * e[..., 1] - d[..., 1] * e[..., 0]) / l2
    one = np.ones_like(a)
    k = np.stack([
        np.stack([2 * v2, 2 * v3, 2 * v2 + 1, 2 * v3 + 1, 2 * v1], axis=-1),
        np.stack([2 * v2 + 1, 2 * v3 + 1, 2 * v2, 2 * v3, 2 * v1 + 1], axis=-1),
    ], axis=1)
    c = np.stack([
        np.stack([1.0 - a, a, -bb, bb, -one], axis=-1),
        np.stack([1.0 - a, a, bb, -bb, -one], axis=-1),
    ], axis=1)
    return k.reshape(-1, 5), c.reshape(-1, 5)


def intrasim_rows(mesh: FrameMesh, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric consistency rows over adjacent triangle pairs of a mesh.

    pairs holds rows (i, j, u, v) of mesh.adjacency_array.  The vertex of
    each triangle opposite the shared edge (u, v) is written in the other
    triangle's barycentric frame (wa, wb, wc) and rebuilt from its three
    vertices: wa p0 + wb p1 + wc p2 - p_opp, per axis.  Returns mesh-local
    coordinates k = 2*v + axis and coefficients, both (4P, 4), rows ordered
    by pair, then direction (opposite of i first), then axis.
    """
    ti = mesh.triangles[pairs[:, 0]]
    tj = mesh.triangles[pairs[:, 1]]
    uv = pairs[:, 2] + pairs[:, 3]
    opp = np.stack([ti.sum(axis=1) - uv, tj.sum(axis=1) - uv], axis=1)  # (P, 2)
    other = np.stack([tj, ti], axis=1)  # (P, 2, 3)
    pts = mesh.points.T  # coordinate first, as _orient indexes it
    p, q = pts[:, opp], pts[:, other]
    q0, q1, q2 = q[..., 0], q[..., 1], q[..., 2]
    denom = _orient(q0, q1, q2)
    if np.any(np.abs(denom) <= 2.0 * AREA_EPS):
        raise DegenerateGeometryError("barycentric weights of a degenerate triangle")
    w = np.stack([
        _orient(p, q1, q2) / denom,
        _orient(q0, p, q2) / denom,
        _orient(q0, q1, p) / denom,
        -np.ones_like(denom),
    ], axis=-1)  # (P, 2, 4)
    verts = np.concatenate([other, opp[..., None]], axis=-1)  # (P, 2, 4)
    k = 2 * verts[:, :, None, :] + np.arange(2)[:, None]  # (P, 2, 2, 4)
    c = np.broadcast_to(w[:, :, None, :], k.shape)
    return k.reshape(-1, 4), c.reshape(-1, 4)


def add_intersim(
    prob: QuadraticProblem,
    ts: TrajectorySet,
    meshes: list[FrameMesh],
    lsm_table: LsmTable,
    cfg: StageOneConfig,
) -> None:
    """Shape preservation over inner triangles.

    Every intersim row of each inner triangle is weighted by gamma times
    the reconstructed vertex's local motion-fit weight.  Frames without
    inner triangles contribute nothing.
    """
    for mesh in meshes:
        if mesh.inner.size == 0:
            continue
        k, c = intersim_rows(mesh, mesh.inner)
        lsw = np.array([lsm_table.get(mesh.frame, int(tid)) for tid in mesh.feature_ids])
        colx = _feature_columns(prob, mesh)
        prob.add_batch(cfg.gamma * lsw[k[:, -1] // 2], colx[k // 2] + k % 2, c)


def add_intrasim(
    prob: QuadraticProblem,
    ts: TrajectorySet,
    meshes: list[FrameMesh],
    cfg: StageOneConfig,
) -> None:
    """Cross-triangle consistency over adjacent inner pairs, weighted epsilon.

    Each unordered pair contributes both reconstructions once.
    """
    for mesh in meshes:
        pairs = mesh.adjacency_array
        pairs = pairs[np.isin(pairs[:, :2], mesh.inner).all(axis=1)]
        if pairs.shape[0] == 0:
            continue
        k, c = intrasim_rows(mesh, pairs)
        colx = _feature_columns(prob, mesh)
        prob.add_batch(cfg.epsilon, colx[k // 2] + k % 2, c)


def assemble_stage1(
    ts: TrajectorySet,
    meshes: list[FrameMesh],
    lsm_table: LsmTable,
    cfg: StageOneConfig = StageOneConfig(),
) -> QuadraticProblem:
    """Build the full stage-1 problem over all five terms."""
    if len(meshes) != ts.frame_count:
        raise ValueError(
            f"expected {ts.frame_count} meshes, got {len(meshes)}"
        )
    prob = QuadraticProblem(UnknownIndex(ts))
    add_reg(prob, ts)
    add_smooth1(prob, ts, cfg)
    add_smooth2(prob, ts, cfg)
    add_intersim(prob, ts, meshes, lsm_table, cfg)
    add_intrasim(prob, ts, meshes, cfg)
    return prob


def solve(prob: QuadraticProblem, cfg: StageOneConfig = StageOneConfig()) -> TrajectorySet:
    """Minimize the assembled objective and unpack stabilized trajectories."""
    x = prob.solve_vector(
        x0=prob.index.x0.copy(),
        dense_cutoff=cfg.dense_cutoff,
        tol=cfg.solver_tol,
        max_iter_factor=cfg.max_iter_factor,
    )
    return prob.index.unpack(x)


def stabilize_stage1(
    ts: TrajectorySet,
    meshes: list[FrameMesh] | None = None,
    cfg: StageOneConfig = StageOneConfig(),
    lsm_table: LsmTable | None = None,
) -> TrajectorySet:
    """Mesh (if needed), weight, assemble, and solve in one call."""
    if meshes is None:
        meshes = build_all_meshes(ts)
    if lsm_table is None:
        lsm_table = build_lsm_table(ts, cfg.lsm)
    prob = assemble_stage1(ts, meshes, lsm_table, cfg)
    return solve(prob, cfg)
