"""Stage-1 assembly and solve, checked against a from-scratch term evaluator.

naive_objective below recomputes every energy term with plain loops from the
mesh geometry; the only thing it shares with the implementation is the
unknown-vector layout.  All quantitative expectations flow through it.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from meshstab import stage1 as s1
from meshstab.errors import SolverError
from meshstab.mesh import barycentric, build_all_meshes, reconstruct_similar, similarity_coords
from meshstab.trajectory import FeatureTrajectory, TrajectorySet
from meshstab.weights import build_lsm_table, temporal_weight

from conftest import random_set, stage1_problem


def naive_objective(prob, ts, meshes, lsm, cfg, xvec):
    def pt(tid, t):
        c = prob.index.col(tid, t, 0)
        return xvec[c:c + 2]

    total = 0.0
    for tr in ts.trajectories:
        for t in range(tr.start_frame, tr.end_frame + 1):
            d = pt(tr.id, t) - tr.point_at(t)
            total += d @ d
    for tr in ts.trajectories:
        for t in range(tr.start_frame + 1, tr.end_frame + 1):
            for ax in range(2):
                dobs = abs(tr.point_at(t)[ax] - tr.point_at(t - 1)[ax])
                w = cfg.alpha * temporal_weight(dobs, cfg.temporal.sigma)
                r = pt(tr.id, t)[ax] - pt(tr.id, t - 1)[ax]
                total += w * r * r
    for tr in ts.trajectories:
        for t in range(tr.start_frame + 1, tr.end_frame):
            r = pt(tr.id, t + 1) - 2 * pt(tr.id, t) + pt(tr.id, t - 1)
            total += cfg.beta * (r @ r)
    for mesh in meshes:
        pts_o = mesh.points
        ids = mesh.feature_ids
        for k in mesh.inner:
            tri = mesh.triangles[k]
            for role in range(3):
                v1, v2, v3 = tri[role], tri[(role + 1) % 3], tri[(role + 2) % 3]
                a, b = similarity_coords(pts_o[v1], pts_o[v2], pts_o[v3])
                qhat = reconstruct_similar(
                    pt(int(ids[v2]), mesh.frame), pt(int(ids[v3]), mesh.frame), a, b)
                q1 = pt(int(ids[v1]), mesh.frame)
                w = cfg.gamma * lsm.get(mesh.frame, int(ids[v1]))
                total += w * ((qhat - q1) @ (qhat - q1))
    for mesh in meshes:
        inner = set(int(i) for i in mesh.inner)
        pts_o = mesh.points
        ids = mesh.feature_ids
        for i, j, u, v in mesh.adjacency.tolist():
            if i not in inner or j not in inner:
                continue
            ti, tj = mesh.triangles[i], mesh.triangles[j]
            oi = int(ti[(ti != u) & (ti != v)][0])
            oj = int(tj[(tj != u) & (tj != v)][0])
            for opp, other in ((oi, tj), (oj, ti)):
                wa, wb, wc = barycentric(pts_o[opp], pts_o[other[0]],
                                         pts_o[other[1]], pts_o[other[2]])
                rec = (wa * pt(int(ids[other[0]]), mesh.frame)
                       + wb * pt(int(ids[other[1]]), mesh.frame)
                       + wc * pt(int(ids[other[2]]), mesh.frame))
                d = rec - pt(int(ids[opp]), mesh.frame)
                total += cfg.epsilon * (d @ d)
    return total


def gram_entries(w, cols, coefs):
    """Coordinate-form (i, j, value) entries of sum_r w[r] q_r q_r', where
    row r of the residuals has coefficients coefs[r] at columns cols[r]."""
    r, m = cols.shape
    wcc = w[:, None, None] * (coefs[:, :, None] * coefs[:, None, :])
    return (np.broadcast_to(cols[:, :, None], (r, m, m)).ravel(),
            np.broadcast_to(cols[:, None, :], (r, m, m)).ravel(),
            wcc.ravel())


class CooProblem:
    """The former stage-1 accumulator, kept as the oracle of A = R'WR:
    every residual row is expanded into its m x m Gram entries as it
    arrives, and the entries are summed from coordinate form.  |entries|
    are summed alongside, the scale each entry's rounding is judged by."""

    def __init__(self, index):
        self.index, self.n = index, index.n
        self.entries = []
        self.b = np.zeros(self.n)
        self.const = 0.0

    def add_batch(self, weights, cols, coefs, targets=None):
        cols = np.asarray(cols, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=np.float64)
        w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (cols.shape[0],))
        self.entries.append(gram_entries(w, cols, coefs))
        if targets is not None:
            t = np.broadcast_to(np.asarray(targets, dtype=np.float64), w.shape)
            np.add.at(self.b, cols.ravel(), ((w * t)[:, None] * coefs).ravel())
            self.const += float(w @ (t * t))

    def dense(self, absolute=False):
        i, j, v = (np.concatenate(e) for e in zip(*self.entries))
        v = np.abs(v) if absolute else v
        return scipy.sparse.coo_matrix((v, (i, j)), shape=(self.n, self.n)).toarray()


def smooth1_per_trajectory(prob, ts, cfg):
    """The former add_smooth1: one add_batch call per trajectory and axis."""
    for tr in ts.trajectories:
        ln = len(tr)
        if ln < 2:
            continue
        base = prob.index.base(tr.id)
        steps = 2 * np.arange(ln - 1, dtype=np.int64)
        for axis in (0, 1):
            d = np.abs(np.diff(tr.points[:, axis]))
            w = cfg.alpha * temporal_weight(d, cfg.temporal.sigma)
            c0 = base + axis + steps
            prob.add_batch(w, np.column_stack([c0 + 2, c0]),
                           np.broadcast_to(np.array([1.0, -1.0]), (ln - 1, 2)))


def smooth2_per_trajectory(prob, ts, cfg):
    """The former add_smooth2: one add_batch call per trajectory and axis."""
    for tr in ts.trajectories:
        ln = len(tr)
        if ln < 3:
            continue
        base = prob.index.base(tr.id)
        steps = 2 * np.arange(ln - 2, dtype=np.int64)
        for axis in (0, 1):
            c0 = base + axis + steps
            prob.add_batch(cfg.beta, np.column_stack([c0, c0 + 2, c0 + 4]),
                           np.broadcast_to(np.array([1.0, -2.0, 1.0]), (ln - 2, 3)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_traj=st.integers(1, 6), frames=st.integers(6, 10),
       cut=st.lists(st.integers(0, 2), min_size=6, max_size=6),
       ids=st.lists(st.integers(0, 2**63 - 1), min_size=6, max_size=6, unique=True))
def test_matrix_matches_coo_oracle(seed, n_traj, frames, cut, ids):
    """Staggered trajectories, some cut to 1 or 2 frames (cut[k] > 0),
    handed over out of id order."""
    rng = np.random.default_rng(seed)
    base = random_set(rng, n_traj=n_traj, frame_count=frames, staggered=True)
    trs = [FeatureTrajectory(id=ids[k], start_frame=tr.start_frame,
                             points=tr.points[:cut[k] or None])
           for k, tr in enumerate(base.trajectories)]
    ts = TrajectorySet(tuple(trs[k] for k in rng.permutation(n_traj)), frames,
                       base.frame_size)
    meshes, lsm, cfg = build_all_meshes(ts), build_lsm_table(ts), s1.StageOneConfig()
    prob = s1.assemble_stage1(ts, meshes, lsm, cfg)
    oracle = CooProblem(s1.UnknownIndex(ts))
    s1.add_reg(oracle, ts)
    smooth1_per_trajectory(oracle, ts, cfg)
    smooth2_per_trajectory(oracle, ts, cfg)
    s1.add_intersim(oracle, ts, meshes, lsm, cfg)
    s1.add_intrasim(oracle, ts, meshes, cfg)
    # entrywise, against the sum of |terms|: an entry whose terms cancel to
    # an exact zero is stored by the COO sum and dropped by the product
    err = np.abs(prob.matrix().toarray() - oracle.dense())
    assert np.all(err <= 1e-12 * oracle.dense(absolute=True))
    assert np.abs(prob.b - oracle.b).max() <= 1e-12 * np.abs(oracle.b).max()
    assert abs(prob.const - oracle.const) <= 1e-12 * abs(oracle.const)


def _instance(rng, staggered=False):
    ts = random_set(rng, n_traj=int(rng.integers(4, 6)),
                    frame_count=int(rng.integers(6, 11)), staggered=staggered)
    meshes = build_all_meshes(ts)
    lsm = build_lsm_table(ts)
    cfg = s1.StageOneConfig()
    prob = s1.assemble_stage1(ts, meshes, lsm, cfg)
    return ts, meshes, lsm, cfg, prob


def test_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(70)
    for _ in range(4):
        _, _, _, _, prob = _instance(rng, staggered=bool(rng.integers(2)))
        A = prob.matrix().toarray()
        assert np.abs(A - A.T).max() <= 1e-12
        eig = np.linalg.eigvalsh(A)
        assert eig[0] >= 0.99  # the unit-weight regularizer floors the spectrum
        np.linalg.cholesky(A)


def test_objective_matches_naive_evaluator():
    rng = np.random.default_rng(71)
    for trial in range(4):
        ts, meshes, lsm, cfg, prob = _instance(rng, staggered=(trial % 2 == 1))
        for _ in range(2):
            x = prob.index.x0 + rng.normal(0, 1.0, prob.n)
            ours = prob.objective(x)
            ref = naive_objective(prob, ts, meshes, lsm, cfg, x)
            assert abs(ours - ref) <= 1e-11 * max(abs(ref), 1.0)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(72)
    h = 1e-5
    for _ in range(3):
        _, _, _, _, prob = _instance(rng)
        x = prob.index.x0 + rng.normal(0, 0.5, prob.n)
        g = prob.gradient(x)
        gfd = np.empty_like(g)
        for k in range(prob.n):
            xp = x.copy(); xp[k] += h
            xm = x.copy(); xm[k] -= h
            gfd[k] = (prob.objective(xp) - prob.objective(xm)) / (2 * h)
        rel = np.linalg.norm(g - gfd) / max(np.linalg.norm(g), 1e-30)
        assert rel < 1e-5


def _similarity_candidate(rng, prob, ts):
    xs = np.empty(prob.n)
    for t in range(ts.frame_count):
        th = rng.uniform(-0.5, 0.5)
        sc = rng.uniform(0.8, 1.2)
        c, s = sc * np.cos(th), sc * np.sin(th)
        tvec = rng.uniform(-5, 5, 2)
        for tr in ts.trajectories:
            if tr.alive_at(t):
                p = tr.point_at(t)
                cc = prob.index.col(tr.id, t, 0)
                xs[cc] = c * p[0] - s * p[1] + tvec[0]
                xs[cc + 1] = s * p[0] + c * p[1] + tvec[1]
    return xs


def test_intersim_vanishes_under_per_frame_similarity():
    rng = np.random.default_rng(73)
    for _ in range(5):
        ts = random_set(rng, n_traj=6, frame_count=6)
        meshes = build_all_meshes(ts)
        lsm = build_lsm_table(ts)
        cfg = s1.StageOneConfig()
        prob = stage1_problem(ts)
        s1.add_intersim(prob, ts, meshes, lsm, cfg)
        xs = _similarity_candidate(rng, prob, ts)
        scale = prob.objective(xs + rng.normal(0, 1.0, prob.n))
        assert scale > 1.0  # the term actually bites at a perturbed candidate
        assert abs(prob.objective(xs)) <= 1e-9 * scale


def test_intrasim_vanishes_under_per_frame_affine():
    rng = np.random.default_rng(74)
    for _ in range(5):
        ts = random_set(rng, n_traj=6, frame_count=6)
        meshes = build_all_meshes(ts)
        cfg = s1.StageOneConfig()
        prob = stage1_problem(ts)
        s1.add_intrasim(prob, ts, meshes, cfg)
        xa = np.empty(prob.n)
        for t in range(ts.frame_count):
            M = rng.uniform(-1.5, 1.5, (2, 2)) + np.eye(2)
            tvec = rng.uniform(-5, 5, 2)
            for tr in ts.trajectories:
                if tr.alive_at(t):
                    q = M @ tr.point_at(t) + tvec
                    cc = prob.index.col(tr.id, t, 0)
                    xa[cc:cc + 2] = q
        scale = prob.objective(xa + rng.normal(0, 1.0, prob.n))
        assert scale > 1.0
        assert abs(prob.objective(xa)) <= 1e-9 * scale


def test_smooth1_zero_iff_constant():
    rng = np.random.default_rng(75)
    ts = random_set(rng, n_traj=4, frame_count=8)
    cfg = s1.StageOneConfig()
    prob = stage1_problem(ts)
    s1.add_smooth1(prob, ts, cfg)
    xc = np.empty(prob.n)
    for tr in ts.trajectories:
        anchor = rng.uniform(0, 50, 2)
        for t in range(tr.start_frame, tr.end_frame + 1):
            cc = prob.index.col(tr.id, t, 0)
            xc[cc:cc + 2] = anchor
    assert prob.objective(xc) <= 1e-12
    bumped = xc.copy()
    bumped[prob.index.col(ts.trajectories[0].id, 2, 0)] += 0.5
    assert prob.objective(bumped) > 1e-3


def test_smooth2_zero_iff_constant_velocity():
    rng = np.random.default_rng(76)
    ts = random_set(rng, n_traj=4, frame_count=8)
    cfg = s1.StageOneConfig()
    prob = stage1_problem(ts)
    s1.add_smooth2(prob, ts, cfg)
    xv = np.empty(prob.n)
    for tr in ts.trajectories:
        p0 = rng.uniform(10, 40, 2)
        vel = rng.uniform(-2, 2, 2)
        for t in range(tr.start_frame, tr.end_frame + 1):
            cc = prob.index.col(tr.id, t, 0)
            xv[cc:cc + 2] = p0 + vel * (t - tr.start_frame)
    assert prob.objective(xv) <= 1e-9
    bumped = xv.copy()
    bumped[prob.index.col(ts.trajectories[1].id, 3, 1)] += 0.5
    assert prob.objective(bumped) > 1e-3


def test_smooth2_hand_value():
    tr = FeatureTrajectory(id=0, start_frame=0,
                           points=np.array([[5.0, 5.0], [6.0, 5.0], [7.0, 5.0]]))
    ts = TrajectorySet((tr,), 3, (64, 64))
    cfg = s1.StageOneConfig(beta=10.0)
    prob = stage1_problem(ts)
    s1.add_smooth2(prob, ts, cfg)
    x = np.array([0.0, 0.0, 1.0, 0.0, 3.0, 0.0])  # (0,0),(1,0),(3,0)
    assert abs(prob.objective(x) - cfg.beta) <= 1e-12


def test_reg_term_values():
    rng = np.random.default_rng(77)
    ts = random_set(rng, n_traj=3, frame_count=5)
    prob = stage1_problem(ts)
    s1.add_reg(prob, ts)
    assert prob.objective(prob.index.x0) == 0.0
    moved = prob.index.x0.copy()
    c = prob.index.col(ts.trajectories[0].id, 2, 0)
    moved[c] += 3.0
    moved[c + 1] += 4.0
    # evaluated as x'Ax - 2b'x + c, so cancellation leaves ~1e-11 of noise
    assert abs(prob.objective(moved) - 25.0) <= 1e-8
    x = prob.index.x0 + rng.normal(0, 1, prob.n)
    assert abs(prob.objective(x) - np.sum((x - prob.index.x0) ** 2)) <= 1e-9


def test_solve_reg_only_returns_input():
    rng = np.random.default_rng(78)
    ts = random_set(rng, n_traj=4, frame_count=6)
    prob = stage1_problem(ts)
    s1.add_reg(prob, ts)
    out = s1.solve(prob)
    for tr in ts.trajectories:
        assert np.abs(out.by_id(tr.id).points - tr.points).max() <= 1e-12


def test_static_trajectories_are_a_fixed_point():
    rng = np.random.default_rng(79)
    anchors = rng.uniform(20, 90, (6, 2))
    trajs = tuple(
        FeatureTrajectory(id=i, start_frame=0, points=np.tile(anchors[i], (8, 1)))
        for i in range(6)
    )
    ts = TrajectorySet(trajs, 8, (120, 100))
    out = s1.stabilize_stage1(ts)
    for tr in ts.trajectories:
        assert np.abs(out.by_id(tr.id).points - tr.points).max() <= 1e-8


def test_solve_matches_dense_oracle_and_descends():
    rng = np.random.default_rng(80)
    for _ in range(4):
        ts, meshes, lsm, cfg, prob = _instance(rng, staggered=bool(rng.integers(2)))
        x = prob.solve_vector(x0=prob.index.x0.copy())
        x_ref = np.linalg.solve(prob.matrix().toarray(), prob.b)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
        assert prob.objective(x) <= prob.objective(prob.index.x0) + 1e-9


def test_iterative_route_agrees_with_dense_route():
    rng = np.random.default_rng(81)
    ts, meshes, lsm, cfg, prob = _instance(rng)
    dense = prob.solve_vector(x0=prob.index.x0.copy(), dense_cutoff=10**6)
    pcg = prob.solve_vector(x0=prob.index.x0.copy(), dense_cutoff=0,
                            tol=1e-12, max_iter_factor=50)
    assert np.linalg.norm(dense - pcg) <= 1e-8 * np.linalg.norm(dense)


def test_argmin_invariant_under_uniform_weight_scaling():
    rng = np.random.default_rng(82)
    ts = random_set(rng, n_traj=5, frame_count=7)
    meshes = build_all_meshes(ts)
    lsm = build_lsm_table(ts)
    base_cfg = s1.StageOneConfig()
    scaled_cfg = s1.StageOneConfig(alpha=200.0, beta=100.0, gamma=100.0,
                                   epsilon=200.0)

    prob_a = stage1_problem(ts)
    s1.add_reg(prob_a, ts)
    s1.add_smooth1(prob_a, ts, base_cfg)
    s1.add_smooth2(prob_a, ts, base_cfg)
    s1.add_intersim(prob_a, ts, meshes, lsm, base_cfg)
    s1.add_intrasim(prob_a, ts, meshes, base_cfg)

    prob_b = stage1_problem(ts)
    s1.add_reg(prob_b, ts, weight=10.0)
    s1.add_smooth1(prob_b, ts, scaled_cfg)
    s1.add_smooth2(prob_b, ts, scaled_cfg)
    s1.add_intersim(prob_b, ts, meshes, lsm, scaled_cfg)
    s1.add_intrasim(prob_b, ts, meshes, scaled_cfg)

    xa = prob_a.solve_vector(x0=prob_a.index.x0.copy())
    xb = prob_b.solve_vector(x0=prob_b.index.x0.copy())
    assert np.linalg.norm(xa - xb) <= 1e-8 * np.linalg.norm(xa)


def test_nonconvergence_raises_with_residual():
    rng = np.random.default_rng(83)
    _, _, _, _, prob = _instance(rng)
    with pytest.raises(SolverError) as exc:
        prob.solve_vector(x0=np.zeros(prob.n), dense_cutoff=0, tol=1e-300,
                          max_iter_factor=1)
    assert exc.value.residual is not None and exc.value.residual > 0


def _pcg_oracle(a, b, x0, tol, max_iter):
    """The hand-written Jacobi-preconditioned CG that scipy's cg replaced.

    Stops when ||A x - b|| <= tol * ||b||; raises SolverError on
    non-positive curvature or when max_iter iterations do not get there.
    """
    inv_diag = 1.0 / np.asarray(a.diagonal())
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
            raise SolverError("non-positive curvature", residual=rnorm)
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
    raise SolverError(f"no convergence in {max_iter} iterations", residual=rnorm)


def test_iterative_route_equals_pcg_oracle():
    rng = np.random.default_rng(84)
    for k in range(6):
        _, _, _, cfg, prob = _instance(rng, staggered=k % 2 == 1)
        for x0 in (prob.index.x0.copy(), None):
            got = prob.solve_vector(x0=x0, dense_cutoff=0, tol=cfg.solver_tol,
                                    max_iter_factor=cfg.max_iter_factor)
            start = np.zeros(prob.n) if x0 is None else x0
            want = _pcg_oracle(prob.matrix(), prob.b, start, cfg.solver_tol,
                               cfg.max_iter_factor * prob.n)
            assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
def test_singular_semidefinite_problem_raises_solver_error():
    # one difference row over two unknowns and no regularizer: A is
    # singular, and b lies outside its range, so no x solves A x = b
    prob = s1.QuadraticProblem(2)
    prob.add_batch(1.0, [[0, 1]], [[1.0, -1.0]])
    prob.b[:] = [1.0, 0.0]
    for cutoff in (0, 2):  # conjugate gradient, then the dense Cholesky
        with pytest.raises(SolverError):
            prob.solve_vector(dense_cutoff=cutoff)


def test_max_iter_factor_below_one_is_rejected():
    rng = np.random.default_rng(85)
    _, _, _, _, prob = _instance(rng)
    for factor in (0, -3):
        with pytest.raises(ValueError, match="max_iter_factor"):
            s1.StageOneConfig(max_iter_factor=factor)
        # cg would report success after no iteration at all
        with pytest.raises(ValueError, match="max_iter_factor"):
            prob.solve_vector(dense_cutoff=0, max_iter_factor=factor)


def _dump_problem(prob) -> str:
    """Text dump: matrix in coordinate form, then RHS, then the constant."""
    a = prob.matrix().tocoo()
    lines = [f"matrix {prob.n} {a.nnz}"]
    for i, j, v in zip(a.row, a.col, a.data):
        lines.append(f"{i} {j} {float(v)!r}")
    lines.append(f"rhs {prob.n}")
    for i, v in enumerate(prob.b):
        lines.append(f"{i} {float(v)!r}")
    lines.append(f"const {float(prob.const)!r}")
    return "\n".join(lines) + "\n"


def test_problem_dump_is_parseable():
    rng = np.random.default_rng(84)
    _, _, _, _, prob = _instance(rng)
    text = _dump_problem(prob)
    lines = text.splitlines()
    head = lines[0].split()
    assert head[0] == "matrix" and int(head[1]) == prob.n
    nnz = int(head[2])
    for ln in lines[1:1 + nnz]:
        r, c, v = ln.split()
        int(r); int(c); float(v)
    assert lines[1 + nnz].split()[0] == "rhs"


def test_stage1_improves_stability_on_jitter():
    from meshstab.metrics import stability_score
    from meshstab.trajectory import make_scene_spec, synthesize_scene
    spec = make_scene_spec(320, 240, 60, n_background=25, seed=6,
                           path_amplitude=6.0, jitter_translation=2.5)
    shaky, _ = synthesize_scene(spec, seed=13)
    out = s1.stabilize_stage1(shaky)
    before = stability_score(shaky).mean
    after = stability_score(out).mean
    assert after > before
