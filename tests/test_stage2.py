from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from meshstab import stage2 as s2
from meshstab.mesh import barycentric, build_all_meshes, reconstruct_similar, similarity_coords
from meshstab.stage1 import StageOneConfig
from meshstab.trajectory import FeatureTrajectory, TrajectorySet

from conftest import random_set


def naive_frame_objective(mesh, stab_feat, cfg, controls):
    """Re-derive the per-frame energy with plain loops over the mesh."""
    pts = mesh.points
    nf = mesh.n_features

    def val(v: int) -> np.ndarray:
        return controls[v - nf] if v >= nf else stab_feat[v]

    total = 0.0
    for k in mesh.outer:
        tri = mesh.triangles[k]
        for role in range(3):
            v1, v2, v3 = (int(tri[role]), int(tri[(role + 1) % 3]),
                          int(tri[(role + 2) % 3]))
            a, b = similarity_coords(pts[v1], pts[v2], pts[v3])
            d = reconstruct_similar(val(v2), val(v3), a, b) - val(v1)
            total += cfg.gamma * (d @ d)

    neighbors: dict[int, list] = {}
    for i, j, *e in mesh.adjacency.tolist():
        neighbors.setdefault(i, []).append((j, e))
        neighbors.setdefault(j, []).append((i, e))
    outer = set(int(x) for x in mesh.outer)
    for i in sorted(outer):
        for j, (u, v) in neighbors.get(i, []):
            ti, tj = mesh.triangles[i], mesh.triangles[j]
            oi = int(ti[(ti != u) & (ti != v)][0])
            oj = int(tj[(tj != u) & (tj != v)][0])
            for opp, other in ((oi, tj), (oj, ti)):
                wa, wb, wc = barycentric(pts[opp], pts[other[0]],
                                         pts[other[1]], pts[other[2]])
                rec = (wa * val(int(other[0])) + wb * val(int(other[1]))
                       + wc * val(int(other[2])))
                d = rec - val(opp)
                total += cfg.epsilon * (d @ d)
    return total


def _vertex_term(mesh, stab_feat, v, axis, coef, cols, coefs):
    """Route one residual term to an unknown column or a fixed value.

    Returns the fixed contribution (0 for control vertices).
    """
    nf = mesh.n_features
    if v >= nf:
        cols.append(2 * (v - nf) + axis)
        coefs.append(coef)
        return 0.0
    return coef * float(stab_feat[v, axis])


def scalar_frame_problem(mesh, stab_feat, cfg):
    """Per-residual assembly of one frame's (a, b, const), one scalar row at
    a time: the slow oracle for assemble_stage2_frame."""
    n = 2 * mesh.control_points.shape[0]
    a, b, const = np.zeros((n, n)), np.zeros(n), 0.0

    def add(weight, terms):
        nonlocal const
        cols, coefs = [], []
        fixed = sum(_vertex_term(mesh, stab_feat, int(v), ax, cf, cols, coefs)
                    for v, ax, cf in terms)
        cols, coefs, target = np.array(cols, dtype=np.int64), np.array(coefs), -fixed
        a[np.ix_(cols, cols)] += weight * np.outer(coefs, coefs)
        b[cols] += weight * target * coefs
        const += weight * target * target

    pts = mesh.points
    for k in mesh.outer:
        tri = mesh.triangles[k]
        for role in range(3):
            v1, v2, v3 = tri[role], tri[(role + 1) % 3], tri[(role + 2) % 3]
            e, d = pts[v3] - pts[v2], pts[v1] - pts[v2]
            l2 = float(e @ e)
            al = float(d @ e) / l2
            bb = float(d[0] * e[1] - d[1] * e[0]) / l2
            add(cfg.gamma, [(v2, 0, 1.0 - al), (v3, 0, al), (v2, 1, -bb),
                            (v3, 1, bb), (v1, 0, -1.0)])
            add(cfg.gamma, [(v2, 1, 1.0 - al), (v3, 1, al), (v2, 0, bb),
                            (v3, 0, -bb), (v1, 1, -1.0)])

    neighbors: dict[int, list] = {}
    for i, j, *e in mesh.adjacency.tolist():
        neighbors.setdefault(i, []).append((j, e))
        neighbors.setdefault(j, []).append((i, e))
    for i in sorted(int(x) for x in mesh.outer):
        for j, (u, v) in neighbors.get(i, []):
            ti, tj = mesh.triangles[i], mesh.triangles[j]
            oi = int(ti[(ti != u) & (ti != v)][0])
            oj = int(tj[(tj != u) & (tj != v)][0])
            for opp, other in ((oi, tj), (oj, ti)):
                w = barycentric(pts[opp], pts[other[0]], pts[other[1]], pts[other[2]])
                for axis in (0, 1):
                    add(cfg.epsilon, [(vv, axis, cf) for vv, cf in zip(other, w)]
                        + [(opp, axis, -1.0)])
    return a, b, const


def _scene(rng, n=8, T=5, W=120, H=90):
    return random_set(rng, n_traj=n, frame_count=T, width=W, height=H)


def test_identity_features_keep_controls():
    rng = np.random.default_rng(90)
    ts = _scene(rng)
    meshes = build_all_meshes(ts)
    sol = s2.solve_stage2(meshes, ts)
    assert sol.fallback_frames == ()
    for t in range(ts.frame_count):
        assert np.abs(sol.points[t] - meshes[t].control_points).max() <= 1e-6


def test_objective_matches_naive_evaluator():
    rng = np.random.default_rng(91)
    cfg = StageOneConfig()
    for _ in range(3):
        ts = _scene(rng)
        mesh = build_all_meshes(ts)[1]
        stab = mesh.feature_points + rng.normal(0, 1.0, (mesh.n_features, 2))
        prob = s2.assemble_stage2_frame(mesh, stab, cfg)
        for _ in range(2):
            cand = mesh.control_points + rng.normal(0, 1.5, mesh.control_points.shape)
            ref = naive_frame_objective(mesh, stab, cfg, cand)
            got = prob.objective(cand.ravel())
            assert abs(got - ref) <= 1e-9 * max(abs(ref), 1.0)


def _sparse_start_set():
    """Frame 0 has no features, frame 1 one feature, frames 2-5 seven."""
    rng = np.random.default_rng(98)
    trajs = [FeatureTrajectory(id=0, start_frame=1,
                               points=rng.uniform([10, 10], [110, 80], (5, 2)))]
    trajs += [FeatureTrajectory(id=i, start_frame=2,
                                points=rng.uniform([10, 10], [110, 80], (4, 2)))
              for i in range(1, 7)]
    return TrajectorySet(tuple(trajs), 6, (120, 90))


def test_assembly_matches_scalar_oracle():
    rng = np.random.default_rng(99)
    cfg = StageOneConfig(gamma=7.0, epsilon=13.0)
    meshes = build_all_meshes(_sparse_start_set())
    for _ in range(3):
        meshes += build_all_meshes(random_set(
            rng, n_traj=int(rng.integers(3, 9)), frame_count=8, staggered=True))
    assert meshes[0].n_features == 0 and meshes[1].n_features == 1
    outer_outer = 0
    for mesh in meshes:
        is_outer = np.isin(np.arange(mesh.triangles.shape[0]), mesh.outer)
        outer_outer += sum(is_outer[i] and is_outer[j] for i, j, _, _ in mesh.adjacency.tolist())
        stab = mesh.feature_points + rng.normal(0, 1.0, (mesh.n_features, 2))
        a, b, const = scalar_frame_problem(mesh, stab, cfg)
        prob = s2.assemble_stage2_frame(mesh, stab, cfg)
        assert np.linalg.norm(prob.matrix().toarray() - a) <= 1e-9 * np.linalg.norm(a)
        assert np.linalg.norm(prob.b - b) <= 1e-9 * np.linalg.norm(b)
        assert abs(prob.const - const) <= 1e-9 * abs(const)
    assert outer_outer > 0


def test_similarity_transform_carries_to_controls():
    rng = np.random.default_rng(92)
    ts = _scene(rng)
    meshes = build_all_meshes(ts)
    th, sc = 0.1, 1.05
    c, s = sc * np.cos(th), sc * np.sin(th)
    tv = np.array([3.0, -2.0])

    def sim(p):
        return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1]]) + tv

    strajs = tuple(
        FeatureTrajectory(id=tr.id, start_frame=tr.start_frame,
                          points=np.array([sim(p) for p in tr.points]))
        for tr in ts.trajectories
    )
    sol = s2.solve_stage2(meshes, TrajectorySet(strajs, ts.frame_count, ts.frame_size))
    assert sol.fallback_frames == ()
    for t in range(ts.frame_count):
        expect = np.array([sim(p) for p in meshes[t].control_points])
        assert np.abs(sol.points[t] - expect).max() <= 1e-8


def test_translation_correction_carries_to_controls():
    rng = np.random.default_rng(93)
    ts = _scene(rng, T=6)
    meshes = build_all_meshes(ts)
    shifts = rng.uniform(-3, 3, (6, 2))
    strajs = tuple(
        FeatureTrajectory(
            id=tr.id, start_frame=tr.start_frame,
            points=tr.points + shifts[tr.start_frame:tr.start_frame + len(tr)])
        for tr in ts.trajectories
    )
    sol = s2.solve_stage2(meshes, TrajectorySet(strajs, 6, ts.frame_size))
    for t in range(6):
        expect = meshes[t].control_points + shifts[t]
        assert np.abs(sol.points[t] - expect).max() <= 1e-3


def test_frame_solve_matches_dense_oracle():
    rng = np.random.default_rng(94)
    cfg = StageOneConfig()
    ts = _scene(rng)
    mesh = build_all_meshes(ts)[0]
    stab = mesh.feature_points + rng.normal(0, 1.0, (mesh.n_features, 2))
    prob = s2.assemble_stage2_frame(mesh, stab, cfg)
    assert prob.n == 72
    x = s2.solve_frame(prob)
    x_ref, *_ = np.linalg.lstsq(prob.matrix().toarray(), prob.b, rcond=None)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
    assert prob.objective(x) <= prob.objective(mesh.control_points.ravel()) + 1e-9


def test_frame_order_does_not_matter():
    rng = np.random.default_rng(95)
    ts = _scene(rng, T=4)
    meshes = build_all_meshes(ts)
    batch = s2.solve_stage2(meshes, ts)
    reversed_sol = s2.solve_stage2(meshes[::-1], ts)
    for t in range(4):
        assert np.array_equal(batch.points[t], reversed_sol.points[3 - t])
    single = s2.solve_stage2([meshes[2]], ts)
    assert np.array_equal(single.points[0], batch.points[2])


def test_failed_factor_falls_back_alone(monkeypatch):
    rng = np.random.default_rng(95)
    ts = _scene(rng, T=4)
    meshes = build_all_meshes(ts)
    ref = s2.solve_stage2(meshes, ts)
    bad = s2.assemble_stage2_frame(meshes[2], meshes[2].feature_points).matrix().toarray()
    factor = scipy.linalg.cho_factor

    def failing(a, *args, **kwargs):
        # frame 2's block passes the eigenvalue test but fails to factor
        if np.array_equal(a, bad):
            raise np.linalg.LinAlgError("not positive definite")
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", failing)
    sol = s2.solve_stage2(meshes, ts)
    assert sol.fallback_frames == (2,)
    assert np.array_equal(sol.points[2], meshes[2].control_points)
    for t in (0, 1, 3):
        assert np.array_equal(sol.points[t], ref.points[t])


def test_feature_free_frames_fall_back():
    empty = TrajectorySet((), 3, (120, 90))
    meshes = build_all_meshes(empty)
    sol = s2.solve_stage2(meshes, empty)
    assert sol.fallback_frames == (0, 1, 2)
    for t in range(3):
        assert np.array_equal(sol.points[t], meshes[t].control_points)


@pytest.mark.parametrize("points, falls_back", [
    # one feature anchors translation but leaves rotation about it free
    ([[50.0, 40.0]], True),
    # two features within 1e-6 px merge into one
    ([[50.0, 40.0], [50.0, 40.0 + 1e-7]], True),
    ([[50.0, 40.0], [70.0, 45.0]], False),
    ([[30.0, 20.0], [50.0, 40.0], [70.0, 60.0]], False),
], ids=["one_feature", "coincident_pair", "distinct_pair", "collinear_triple"])
def test_single_feature_frame_falls_back(points, falls_back):
    ts = TrajectorySet(
        tuple(FeatureTrajectory(id=i, start_frame=0, points=np.tile(p, (3, 1)))
              for i, p in enumerate(points)),
        3, (120, 90))
    meshes = build_all_meshes(ts)
    sol = s2.solve_stage2(meshes, ts)
    assert sol.fallback_frames == ((0, 1, 2) if falls_back else ())
    if not falls_back:
        for t in range(3):
            assert np.abs(sol.points[t] - meshes[t].control_points).max() <= 1e-6


def test_assemble_rejects_shape_mismatch():
    rng = np.random.default_rng(96)
    ts = _scene(rng)
    mesh = build_all_meshes(ts)[0]
    with pytest.raises(ValueError, match="shape"):
        s2.assemble_stage2_frame(mesh, np.zeros((2, 2)))


def _dump_frame_problem(prob) -> str:
    """Coordinate-format text dump in the stage-1 dump layout."""
    a = prob.matrix().toarray()
    nz = np.nonzero(a)
    lines = [f"matrix {prob.n} {len(nz[0])}"]
    for i, j in zip(*nz):
        lines.append(f"{i} {j} {float(a[i, j])!r}")
    lines.append(f"rhs {prob.n}")
    for i, v in enumerate(prob.b):
        lines.append(f"{i} {float(v)!r}")
    lines.append(f"const {float(prob.const)!r}")
    return "\n".join(lines) + "\n"


def test_frame_problem_dump_is_parseable():
    rng = np.random.default_rng(97)
    ts = _scene(rng)
    mesh = build_all_meshes(ts)[0]
    prob = s2.assemble_stage2_frame(mesh, mesh.feature_points)
    text = _dump_frame_problem(prob)
    lines = text.splitlines()
    head = lines[0].split()
    assert head[0] == "matrix" and int(head[1]) == 72
    nnz = int(head[2])
    assert lines[1 + nnz].split()[0] == "rhs"
    for ln in lines[1:4]:
        r, c, v = ln.split()
        int(r); int(c); float(v)


# feature layouts of one frame on a 10 px lattice inside a 120x90 frame,
# away from the border ring; near-coincident layouts would put the
# singularity test at its threshold, where rounding decides either way
_LATTICE = st.tuples(st.integers(1, 11), st.integers(1, 8)).map(lambda p: (10 * p[0], 10 * p[1]))


@st.composite
def _frame_features(draw):
    kind = draw(st.sampled_from(["none", "points", "coincident", "collinear"]))
    if kind == "none":
        return []
    p = draw(_LATTICE)
    if kind == "points":
        return [p] + draw(st.lists(_LATTICE, max_size=2, unique=True).filter(lambda q: p not in q))
    if kind == "coincident":
        return [p, p] + draw(st.lists(_LATTICE, max_size=1))
    d = draw(st.sampled_from([(10, 0), (0, 10), (10, 10), (10, -10), (20, 10)]))
    line = [(p[0] + k * d[0], p[1] + k * d[1]) for k in range(3)]
    return line if all(10 <= x <= 110 and 10 <= y <= 80 for x, y in line) else line[:1]


@st.composite
def _sparse_clip(draw):
    """A clip of 1-6 frames, each with 0-3 features that live one frame,
    and its stabilized version: every feature moved by up to 3 px."""
    frames = draw(st.lists(_frame_features(), min_size=1, max_size=6))
    pts = [(t, p) for t, feats in enumerate(frames) for p in feats]
    shift = draw(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                          min_size=len(pts), max_size=len(pts)))

    def clip(moved):
        trajs = tuple(FeatureTrajectory(id=i, start_frame=t,
                                        points=np.array([p], dtype=np.float64) + d)
                      for i, ((t, p), d) in enumerate(zip(pts, moved)))
        return TrajectorySet(trajs, len(frames), (120, 90))

    return clip([(0.0, 0.0)] * len(pts)), clip(np.array(shift, dtype=np.float64) / 10.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(clips=_sparse_clip())
def test_batched_solve_matches_scalar_oracle(clips):
    ts, stab = clips
    cfg = StageOneConfig(gamma=7.0, epsilon=13.0)
    meshes = build_all_meshes(ts)
    sol = s2.solve_stage2(meshes, stab, cfg)
    obs = stab.observations
    for mesh, got in zip(meshes, sol.points):
        feats = obs.points[obs.rows(mesh.frame, mesh.feature_ids)]
        a, b, _ = scalar_frame_problem(mesh, feats, cfg)
        eig = np.linalg.eigvalsh(a)
        singular = eig[0] <= s2.SINGULAR_EIG_RATIO * eig[-1]
        assert (mesh.frame in sol.fallback_frames) == singular
        one = s2.solve_frame(s2.assemble_stage2_frame(mesh, feats, cfg))
        if singular:
            assert one is None and np.array_equal(got, mesh.control_points)
            continue
        assert np.array_equal(one.reshape(-1, 2), got)
        x_ref, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.linalg.norm(got.ravel() - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
    # two frames to a chunk: the same bits from several batched solves
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(s2, "CHUNK_ENTRIES", 2 * meshes[0].control_points.size ** 2)
        chunked = s2.solve_stage2(meshes, stab, cfg)
    assert chunked.fallback_frames == sol.fallback_frames
    assert np.array_equal(chunked.points, sol.points)
