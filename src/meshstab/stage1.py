"""Global quadratic smoothing of feature trajectories.

Every energy term is a weighted sum of squared linear residuals
w (q'x - t)^2 in the unknown stabilized coordinates.  Stacking the rows q
into one sparse matrix R, with weights W and targets t, collapses the
whole objective to

    E(x) = x' A x - 2 b' x + c,   A = R' W R,  b = R' W t

A is symmetric positive definite as soon as the regularizer is present
(it contributes the identity), so the minimizer solves A x = b.

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

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

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
        # written so that NaN fails them too
        for name in ("alpha", "beta", "gamma", "epsilon"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.solver_tol > 0.0:
            raise ValueError(f"solver_tol must be positive, got {self.solver_tol}")
        if self.max_iter_factor < 1:
            raise ValueError(f"max_iter_factor must be >= 1, got {self.max_iter_factor}")


class UnknownIndex:
    """Column layout of the stacked unknown vector.

    Row r of the set's observation table is columns 2r (x) and 2r + 1 (y):
    trajectories in ascending id order; within a trajectory, frames in
    order.  Keeps the table and the frame geometry, enough to rebuild a
    TrajectorySet from a solution vector.
    """

    def __init__(self, ts: TrajectorySet):
        self.frame_count = ts.frame_count
        self.frame_size = ts.frame_size
        self.obs = ts.observations
        self.n = 2 * self.obs.ids.size
        self.x0 = self.obs.points.reshape(-1)  # a read-only view

    def col(self, tid: int, t: int, axis: int) -> int:
        """Column of (trajectory tid, frame t, axis); axis 0 is x, 1 is y."""
        return 2 * int(self.obs.rows(t, [tid])[0]) + axis

    def base(self, tid: int) -> int:
        """Column of the trajectory's first frame, x axis."""
        r = int(np.searchsorted(self.obs.ids, tid))
        if r == self.obs.ids.size or self.obs.ids[r] != tid:
            raise KeyError(f"no trajectory with id {tid}")
        return 2 * r

    def unpack(self, x: np.ndarray) -> TrajectorySet:
        if x.shape != (self.n,):
            raise ValueError(f"expected solution of shape ({self.n},), got {x.shape}")
        ids, first = np.unique(self.obs.ids, return_index=True)
        pts = np.split(x.reshape(-1, 2), first[1:])
        trajs = tuple(
            FeatureTrajectory(id=tid, start_frame=start, points=p)
            for tid, start, p in zip(ids.tolist(), self.obs.frames[first].tolist(), pts)
        )
        return TrajectorySet(trajs, self.frame_count, self.frame_size)


class QuadraticProblem:
    """Accumulates weighted squared residuals sum w (q'x - t)^2 over n unknowns.

    Rows are kept in the batches they came in; they are stacked into R,
    and A = R' W R is formed, only when the matrix is first needed.
    Stage 1 attaches the UnknownIndex its columns follow; stage 2 has none.
    """

    def __init__(self, n: int, index: UnknownIndex | None = None):
        self.index = index
        self.n = n
        self._rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
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
        targets defaults to zero.  The arrays are kept until matrix(), not copied.
        """
        cols = np.asarray(cols, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=np.float64)
        if cols.ndim != 2 or cols.shape != coefs.shape:
            raise ValueError(f"cols/coefs shape mismatch: {cols.shape} vs {coefs.shape}")
        r = cols.shape[0]
        if r == 0:
            return
        w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (r,))
        if not np.all(np.isfinite(coefs)) or not np.all(np.isfinite(w)):
            raise ValueError("non-finite residual coefficients")
        if np.any(w < 0.0):
            raise ValueError("negative residual weight")
        if cols.min() < 0 or cols.max() >= self.n:
            raise IndexError("residual column out of range")

        self._rows.append((w, cols, coefs))
        if targets is not None:
            t = np.broadcast_to(np.asarray(targets, dtype=np.float64), (r,))
            if not np.all(np.isfinite(t)):
                raise ValueError("non-finite residual target")
            np.add.at(self.b, cols.ravel(), ((w * t)[:, None] * coefs).ravel())
            self.const += float(w @ (t * t))
        self._mat = None

    def matrix(self) -> scipy.sparse.csr_matrix:
        if self._mat is None:
            if not self._rows:
                return scipy.sparse.csr_matrix((self.n, self.n))
            w, cols, coefs = zip(*self._rows)
            widths = np.repeat([k.shape[1] for k in cols], [k.shape[0] for k in cols])
            r = scipy.sparse.csr_matrix(
                (np.concatenate([c.ravel() for c in coefs]),
                 np.concatenate([k.ravel() for k in cols]),
                 np.concatenate([[0], np.cumsum(widths)])),
                shape=(widths.size, self.n),
            )
            wr = r.copy()
            wr.data *= np.repeat(np.concatenate(w), widths)
            self._mat = (r.T @ wr).tocsr()
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
        """The minimizer, the solution of A x = b.

        Up to dense_cutoff unknowns a dense Cholesky factor solves it;
        above, scipy's conjugate gradient with the Jacobi preconditioner,
        started from x0, stops once ||A x - b|| <= tol * ||b|| and raises
        SolverError after max_iter_factor * n iterations.
        """
        if self.n == 0:
            return np.zeros(0)
        a = self.matrix()
        if self.n <= dense_cutoff:
            try:
                cf = scipy.linalg.cho_factor(a.toarray())
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"normal matrix not positive definite: {exc}") from None
            return scipy.linalg.cho_solve(cf, self.b)
        if max_iter_factor < 1:
            # cg would return after no iteration and report success
            raise ValueError(f"max_iter_factor must be >= 1, got {max_iter_factor}")
        diag = a.diagonal()
        if np.any(diag <= 0.0):
            raise SolverError("normal matrix has a non-positive diagonal entry")
        # times the reciprocal, as the tests' loop oracle does; r / diag rounds differently
        inv_diag = 1.0 / diag
        jacobi = scipy.sparse.linalg.LinearOperator(a.shape, matvec=lambda r: inv_diag * r,
                                                    dtype=np.float64)
        x, info = scipy.sparse.linalg.cg(a, self.b, x0, rtol=tol,
                                         maxiter=max_iter_factor * self.n, M=jacobi)
        if info != 0:
            raise SolverError(
                f"conjugate gradient did not reach tolerance in {info} iterations",
                residual=float(np.linalg.norm(self.b - a @ x)),
            )
        return x


# --- term assembly ---


def add_smooth1(prob: QuadraticProblem, ts: TrajectorySet, cfg: StageOneConfig) -> None:
    """First-difference smoothing with step-size-adaptive weight, per axis.

    The falloff argument is the magnitude of the observed step on that
    axis; large intentional motion therefore weakens its own smoothing.
    """
    obs = ts.observations
    # table rows r and r + 1 of one id are consecutive frames
    r = np.nonzero(obs.ids[1:] == obs.ids[:-1])[0]
    for axis in (0, 1):
        d = np.abs(obs.points[r + 1, axis] - obs.points[r, axis])
        w = cfg.alpha * temporal_weight(d, cfg.temporal.sigma)
        c0 = 2 * r + axis
        prob.add_batch(w, np.column_stack([c0 + 2, c0]),
                       np.broadcast_to([1.0, -1.0], (r.size, 2)))


def add_smooth2(prob: QuadraticProblem, ts: TrajectorySet, cfg: StageOneConfig) -> None:
    """Second-difference (constant velocity) smoothing, per axis."""
    obs = ts.observations
    r = np.nonzero(obs.ids[2:] == obs.ids[:-2])[0]
    for axis in (0, 1):
        c0 = 2 * r + axis
        prob.add_batch(cfg.beta, np.column_stack([c0, c0 + 2, c0 + 4]),
                       np.broadcast_to([1.0, -2.0, 1.0], (r.size, 3)))


def add_reg(prob: QuadraticProblem, ts: TrajectorySet, weight: float = 1.0) -> None:
    """Tie every unknown to its original value with unit weight."""
    n = prob.n
    cols = np.arange(n, dtype=np.int64).reshape(n, 1)
    coefs = np.ones((n, 1))
    prob.add_batch(weight, cols, coefs, targets=prob.index.x0)


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

    pairs holds rows (i, j, u, v) of mesh.adjacency.  The vertex of
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
        colx = 2 * ts.observations.rows(mesh.frame, mesh.feature_ids)
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
        pairs = mesh.adjacency[np.isin(mesh.adjacency[:, :2], mesh.inner).all(axis=1)]
        if pairs.shape[0] == 0:
            continue
        k, c = intrasim_rows(mesh, pairs)
        colx = 2 * ts.observations.rows(mesh.frame, mesh.feature_ids)
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
    index = UnknownIndex(ts)
    prob = QuadraticProblem(index.n, index)
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
