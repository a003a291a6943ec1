"""Stage-1 assembly and solve, checked against a from-scratch term evaluator.

naive_objective below recomputes every energy term with plain loops from the
mesh geometry; the only thing it shares with the implementation is the
unknown-vector layout.  All quantitative expectations flow through it.
"""
from __future__ import annotations

import numpy as np
import pytest

from meshstab import stage1 as s1
from meshstab.errors import SolverError
from meshstab.mesh import barycentric, build_all_meshes, reconstruct_similar, similarity_coords
from meshstab.trajectory import FeatureTrajectory, TrajectorySet
from meshstab.weights import build_lsm_table, temporal_weight

from conftest import random_set


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
        for i, j, (u, v) in mesh.adjacency:
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
        prob = s1.QuadraticProblem(s1.UnknownIndex(ts))
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
        prob = s1.QuadraticProblem(s1.UnknownIndex(ts))
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
    prob = s1.QuadraticProblem(s1.UnknownIndex(ts))
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
    prob = s1.QuadraticProblem(s1.UnknownIndex(ts))
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
    prob = s1.QuadraticProblem(s1.UnknownIndex(ts))
    s1.add_smooth2(prob, ts, cfg)
    x = np.array([0.0, 0.0, 1.0, 0.0, 3.0, 0.0])  # (0,0),(1,0),(3,0)
    assert abs(prob.objective(x) - cfg.beta) <= 1e-12


def test_reg_term_values():
    rng = np.random.default_rng(77)
    ts = random_set(rng, n_traj=3, frame_count=5)
    prob = s1.QuadraticProblem(s1.UnknownIndex(ts))
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
    prob = s1.QuadraticProblem(s1.UnknownIndex(ts))
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

    prob_a = s1.QuadraticProblem(s1.UnknownIndex(ts))
    s1.add_reg(prob_a, ts)
    s1.add_smooth1(prob_a, ts, base_cfg)
    s1.add_smooth2(prob_a, ts, base_cfg)
    s1.add_intersim(prob_a, ts, meshes, lsm, base_cfg)
    s1.add_intrasim(prob_a, ts, meshes, base_cfg)

    prob_b = s1.QuadraticProblem(s1.UnknownIndex(ts))
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
        prob.solve_vector(x0=np.zeros(prob.n), dense_cutoff=0, tol=1e-14,
                          max_iter_factor=0)
    assert exc.value.residual is not None and exc.value.residual > 0


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
