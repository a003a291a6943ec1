"""End-to-end acceptance checks, one test per numbered criterion.

Each test ends with a single printed PASS line carrying the measured
quantities (run with -s to see them); a failed assertion is the FAIL case.
The twenty jitter scenes are synthesized and stage-1-solved once in a
module fixture and shared between the improvement and rendering checks.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.ndimage

from meshstab import cli
from meshstab.frames import GrayFrame
from meshstab.mesh import build_all_meshes, triangulate
from meshstab.metrics import (
    jitter_energy,
    ssim_pair,
    stability_score,
    video_ssim,
)
from meshstab.stage1 import (
    StageOneConfig,
    add_intersim,
    add_intrasim,
    add_smooth1,
    add_smooth2,
    assemble_stage1,
    stabilize_stage1,
)
from meshstab.stage2 import assemble_stage2_frame, solve_frame, solve_stage2
from meshstab.trajectory import (
    FeatureTrajectory,
    TrajectorySet,
    make_scene_spec,
    synthesize_scene,
)
from meshstab.warp import (
    apply_crop,
    build_warp_field,
    common_crop,
    render,
    render_all,
)
from meshstab.weights import build_lsm_table, lsm_weight, temporal_weight

from conftest import fit_similarity, random_set, stage1_problem, world_texture
from test_mesh import circumcircle_violations, tri_area

SCENE_SEEDS = tuple(range(20))
N_RENDER_SCENES = 5


def _cluster_set(rng, n, T, W=160, H=120):
    """Full-span trajectories whose anchors sit near the frame center, so
    the feature cloud reliably forms interior (all-feature) triangles."""
    cx, cy = (W - 1) / 2.0, (H - 1) / 2.0
    anchors = np.column_stack([
        rng.uniform(cx - 25, cx + 25, n), rng.uniform(cy - 18, cy + 18, n)])
    trajs = tuple(
        FeatureTrajectory(
            id=i, start_frame=0,
            points=np.clip(anchors[i] + rng.uniform(-2, 2, (T, 2)),
                           0, [W - 1, H - 1]))
        for i in range(n))
    return TrajectorySet(trajs, T, (W, H))


@pytest.fixture(scope="module")
def jitter_scenes():
    cfg = StageOneConfig()
    out = []
    for seed in SCENE_SEEDS:
        spec = make_scene_spec(
            width=320, height=240, frame_count=120, n_background=60,
            seed=seed, path_amplitude=6.0, jitter_translation=3.0,
            jitter_rotation_deg=0.5)
        shaky, truth = synthesize_scene(spec, seed)
        t0 = time.perf_counter()
        meshes = build_all_meshes(shaky)
        lsm = build_lsm_table(shaky, cfg.lsm)
        stabilized = stabilize_stage1(shaky, meshes, cfg, lsm)
        seconds = time.perf_counter() - t0
        out.append({
            "seed": seed, "cfg": cfg, "shaky": shaky, "truth": truth,
            "meshes": meshes, "stabilized": stabilized, "seconds": seconds,
        })
    return out


def test_criterion_01_solver_matches_dense_oracle():
    rng = np.random.default_rng(101)
    cfg = StageOneConfig()
    t0 = time.perf_counter()
    worst1 = worst2 = 0.0
    frame_solves = 0
    for k in range(25):
        ts = random_set(
            rng, n_traj=int(rng.integers(3, 6)),
            frame_count=int(rng.integers(4, 11)),
            staggered=(k % 3 == 2))
        meshes = build_all_meshes(ts)
        lsm = build_lsm_table(ts, cfg.lsm)
        prob = assemble_stage1(ts, meshes, lsm, cfg)
        x = prob.solve_vector(
            x0=prob.index.x0.copy(), dense_cutoff=cfg.dense_cutoff,
            tol=cfg.solver_tol, max_iter_factor=cfg.max_iter_factor)
        x_ref = np.linalg.solve(prob.matrix().toarray(), prob.b)
        worst1 = max(worst1, float(
            np.linalg.norm(x - x_ref) / max(np.linalg.norm(x_ref), 1e-30)))
        stab = prob.index.unpack(x)
        by_id = {tr.id: tr for tr in stab.trajectories}
        for mesh in meshes:
            feats = np.array([
                by_id[int(t)].point_at(mesh.frame) for t in mesh.feature_ids
            ]).reshape(mesh.n_features, 2)
            fp = assemble_stage2_frame(mesh, feats, cfg)
            x2 = solve_frame(fp)
            if x2 is None:
                continue
            x2_ref, *_ = np.linalg.lstsq(fp.matrix().toarray(), fp.b, rcond=None)
            worst2 = max(worst2, float(
                np.linalg.norm(x2 - x2_ref)
                / max(np.linalg.norm(x2_ref), 1e-30)))
            frame_solves += 1
    dt = time.perf_counter() - t0
    assert worst1 <= 1e-8
    assert frame_solves > 0
    assert worst2 <= 1e-8
    assert dt < 5.0
    print(f"criterion 1 PASS: stage-1 rel err {worst1:.2e}, stage-2 rel err "
          f"{worst2:.2e} ({frame_solves} frame solves), {dt:.2f}s total")


def test_criterion_02_gradient_matches_finite_differences():
    rng = np.random.default_rng(102)
    cfg = StageOneConfig()
    worst = 0.0
    h = 1e-5
    for k in range(10):
        ts = random_set(
            rng, n_traj=int(rng.integers(3, 6)),
            frame_count=int(rng.integers(4, 9)), staggered=(k % 2 == 1))
        meshes = build_all_meshes(ts)
        lsm = build_lsm_table(ts, cfg.lsm)
        prob = assemble_stage1(ts, meshes, lsm, cfg)
        x = prob.index.x0 + rng.normal(0.0, 1.0, prob.n)
        g = prob.gradient(x)
        fd = np.empty(prob.n)
        for i in range(prob.n):
            e = np.zeros(prob.n)
            e[i] = h
            fd[i] = (prob.objective(x + e) - prob.objective(x - e)) / (2 * h)
        worst = max(worst, float(
            np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30)))
    assert worst <= 1e-5
    print(f"criterion 2 PASS: worst gradient rel err {worst:.2e} "
          f"over 10 instances")


def _transformed_vector(prob, ts, maps):
    x = np.empty(prob.n)
    for tr in ts.trajectories:
        for t in range(tr.start_frame, tr.end_frame + 1):
            lin, tv = maps[t]
            p = lin @ tr.point_at(t) + tv
            x[prob.index.col(tr.id, t, 0)] = p[0]
            x[prob.index.col(tr.id, t, 1)] = p[1]
    return x


def test_criterion_03_energy_term_invariances():
    rng = np.random.default_rng(103)
    cfg = StageOneConfig()
    cases = 100
    inter_live = intra_live = 0
    for _ in range(cases):
        n = int(rng.integers(4, 7))
        T = int(rng.integers(5, 9))
        ts = _cluster_set(rng, n, T)
        meshes = build_all_meshes(ts)
        lsm = build_lsm_table(ts, cfg.lsm)

        # O_InterSim under per-frame similarity maps
        prob = stage1_problem(ts)
        add_intersim(prob, ts, meshes, lsm, cfg)
        ref = prob.objective(prob.index.x0 + rng.normal(0, 1, prob.n))
        if ref > 0.0:
            inter_live += 1
            maps = []
            for _t in range(T):
                th = rng.uniform(-0.6, 0.6)
                sc = rng.uniform(0.7, 1.4)
                c, s = sc * np.cos(th), sc * np.sin(th)
                maps.append((np.array([[c, -s], [s, c]]),
                             rng.uniform(-8, 8, 2)))
            got = prob.objective(_transformed_vector(prob, ts, maps))
            assert abs(got) <= 1e-9 * ref

        # O_IntraSim under per-frame affine maps
        prob = stage1_problem(ts)
        add_intrasim(prob, ts, meshes, cfg)
        ref = prob.objective(prob.index.x0 + rng.normal(0, 1, prob.n))
        if ref > 0.0:
            intra_live += 1
            maps = []
            for _t in range(T):
                while True:
                    lin = rng.uniform(-1.5, 1.5, (2, 2))
                    if abs(np.linalg.det(lin)) >= 0.2:
                        break
                maps.append((lin, rng.uniform(-8, 8, 2)))
            got = prob.objective(_transformed_vector(prob, ts, maps))
            assert abs(got) <= 1e-9 * ref

        # O_Smooth1 zero iff constant
        prob = stage1_problem(ts)
        add_smooth1(prob, ts, cfg)
        ref = prob.objective(prob.index.x0 + rng.normal(0, 1, prob.n))
        assert ref > 0.0
        # constant candidate: every frame pinned to the trajectory's first point
        const = np.empty(prob.n)
        for tr in ts.trajectories:
            for t in range(tr.start_frame, tr.end_frame + 1):
                const[prob.index.col(tr.id, t, 0)] = tr.points[0][0]
                const[prob.index.col(tr.id, t, 1)] = tr.points[0][1]
        assert abs(prob.objective(const)) <= 1e-9 * ref
        bump = const.copy()
        tr = ts.trajectories[0]
        mid = (tr.start_frame + tr.end_frame) // 2
        bump[prob.index.col(tr.id, mid, 0)] += 1.5
        bump[prob.index.col(tr.id, mid, 1)] -= 0.8
        assert prob.objective(bump) > 1e-6 * ref

        # O_Smooth2 zero iff constant velocity
        prob = stage1_problem(ts)
        add_smooth2(prob, ts, cfg)
        ref = prob.objective(prob.index.x0 + rng.normal(0, 1, prob.n))
        assert ref > 0.0
        linear = np.empty(prob.n)
        for tr in ts.trajectories:
            vel = rng.uniform(-2, 2, 2)
            for t in range(tr.start_frame, tr.end_frame + 1):
                p = tr.points[0] + vel * (t - tr.start_frame)
                linear[prob.index.col(tr.id, t, 0)] = p[0]
                linear[prob.index.col(tr.id, t, 1)] = p[1]
        assert abs(prob.objective(linear)) <= 1e-9 * ref
        quad = linear.copy()
        tr = ts.trajectories[0]
        for t in range(tr.start_frame, tr.end_frame + 1):
            quad[prob.index.col(tr.id, t, 0)] += 0.3 * (t - tr.start_frame) ** 2
        assert prob.objective(quad) > 1e-6 * ref
    assert inter_live >= 95
    assert intra_live >= 95
    print(f"criterion 3 PASS: {cases} cases per term "
          f"(non-vacuous: intersim {inter_live}, intrasim {intra_live})")


def test_criterion_04_zero_jitter_scenes_unchanged():
    cfg = StageOneConfig()
    worst = 0.0
    for seed in range(5):
        spec = make_scene_spec(width=200, height=150, frame_count=24,
                               n_background=20, seed=seed)
        shaky, _ = synthesize_scene(spec, seed)
        meshes = build_all_meshes(shaky)
        lsm = build_lsm_table(shaky, cfg.lsm)
        stab = stabilize_stage1(shaky, meshes, cfg, lsm)
        for tr, orig in zip(stab.trajectories, shaky.trajectories):
            worst = max(worst, float(np.abs(tr.points - orig.points).max()))
        controls = solve_stage2(meshes, stab, cfg)
        assert controls.fallback_frames == ()
        for mesh, ctrl in zip(meshes, controls.points):
            worst = max(worst, float(np.abs(ctrl - mesh.control_points).max()))
        field = build_warp_field(meshes, stab, controls)
        for fw in field.frames:
            worst = max(worst, float(np.abs(fw.dst - fw.src).max()))
    assert worst <= 1e-6
    print(f"criterion 4 PASS: max displacement {worst:.2e} px over 5 "
          f"zero-jitter scenes")


def test_criterion_05_stability_improves_on_jitter_scenes(jitter_scenes):
    improved = 0
    drops = []
    slowest = 0.0
    for rec in jitter_scenes:
        sb = stability_score(rec["shaky"]).mean
        sa = stability_score(rec["stabilized"]).mean
        improved += int(sa > sb)
        jb = jitter_energy(rec["shaky"])
        ja = jitter_energy(rec["stabilized"])
        drops.append(1.0 - ja / jb)
        slowest = max(slowest, rec["seconds"])
        assert rec["seconds"] <= 60.0
    avg_drop = float(np.mean(drops))
    assert improved >= 19
    assert avg_drop >= 0.60
    print(f"criterion 5 PASS: stability improved on {improved}/20 seeds, "
          f"avg jitter energy drop {100 * avg_drop:.1f}%, slowest scene "
          f"{slowest:.1f}s")


def test_criterion_06_adaptive_weights():
    for d, expect in ((0.0, np.e), (10.0, 1.0), (20.0, 1.0 / np.e)):
        assert abs(temporal_weight(d, sigma=10.0) - expect) <= 1e-12

    # exact projective neighborhood: every weight clamps to 0.1
    rng = np.random.default_rng(106)
    base = np.column_stack([rng.uniform(40, 160, 9), rng.uniform(40, 110, 9)])
    hm = np.array([[1.02, 0.01, 1.5], [-0.02, 0.99, -0.8],
                   [1e-4, -5e-5, 1.0]])
    moved_h = np.column_stack([base, np.ones(9)]) @ hm.T
    moved = moved_h[:, :2] / moved_h[:, 2:3]
    pts = np.stack([base, moved, moved], axis=1)
    ts = TrajectorySet(
        tuple(FeatureTrajectory(id=i, start_frame=0, points=pts[i])
              for i in range(9)), 3, (200, 150))
    for i in range(9):
        assert lsm_weight(ts, 1, i) == 0.1

    # 12 px foreground jump against 8 static anchors: weight above neutral
    bg = np.array([[40.0, 40.0], [160.0, 40.0], [40.0, 110.0],
                   [160.0, 110.0], [100.0, 30.0], [100.0, 120.0],
                   [30.0, 75.0], [170.0, 75.0]])
    trajs = [FeatureTrajectory(id=i, start_frame=0, points=np.tile(bg[i], (3, 1)))
             for i in range(8)]
    trajs.append(FeatureTrajectory(
        id=8, start_frame=0,
        points=np.array([[94.0, 70.0], [106.0, 70.0], [106.0, 70.0]])))
    outlier = lsm_weight(TrajectorySet(tuple(trajs), 3, (200, 150)), 1, 8)
    assert outlier > 1.0
    print(f"criterion 6 PASS: temporal anchors exact, homography "
          f"neighborhood clamps to 0.1, outlier weight {outlier:.2f} > 1")


def test_criterion_07_mesh_invariants():
    rng = np.random.default_rng(107)
    worst_tile = 0.0
    for k in range(200):
        W = int(rng.integers(60, 201))
        H = int(rng.integers(50, 161))
        n = int(rng.integers(0, 26))
        ts = random_set(rng, n_traj=n, frame_count=3, width=W, height=H)
        mesh = build_all_meshes(ts)[0]
        pts = mesh.points

        # empty-circumcircle property of the unconstrained triangulation
        plain = triangulate(pts)
        assert circumcircle_violations(pts, plain.triangles) == 0

        # the constrained mesh tiles the frame rectangle
        area = sum(tri_area(pts, tri) for tri in mesh.triangles)
        target = float((W - 1) * (H - 1))
        rel = abs(area - target) / target
        worst_tile = max(worst_tile, rel)
        assert rel <= 1e-6

        # inner/outer equals brute-force vertex membership
        nf = mesh.n_features
        inner = set(int(i) for i in mesh.inner)
        outer = set(int(i) for i in mesh.outer)
        assert inner.isdisjoint(outer)
        assert inner | outer == set(range(mesh.triangles.shape[0]))
        for idx, tri in enumerate(mesh.triangles):
            assert (idx in inner) == bool(np.all(tri < nf))
    print(f"criterion 7 PASS: 200 point sets, zero circumcircle violations, "
          f"worst tiling rel err {worst_tile:.2e}")


def test_criterion_08_warp_correctness():
    rng = np.random.default_rng(108)
    # identity fields render bit-exactly
    for _ in range(5):
        W = int(rng.integers(48, 97))
        H = int(rng.integers(40, 81))
        n = int(rng.integers(5, 10))
        base = np.column_stack(
            [rng.uniform(10, W - 10, n), rng.uniform(8, H - 8, n)])
        ts = TrajectorySet(
            tuple(FeatureTrajectory(id=i, start_frame=0,
                                    points=np.tile(base[i], (3, 1)))
                  for i in range(n)), 3, (W, H))
        meshes = build_all_meshes(ts)
        ctrl = np.array([m.control_points for m in meshes])
        field = build_warp_field(meshes, ts, ctrl)
        img = GrayFrame.from_array(
            rng.integers(0, 256, (H, W)).astype(np.float64))
        out, miss = render(img, field.frames[0])
        assert miss == 0
        assert np.array_equal(out.data, img.data)

    # vertex exactness and shared-edge continuity on deformed fields
    worst_v = worst_e = 0.0
    ties = np.linspace(0.0, 1.0, 100)[:, None]
    for _ in range(3):
        W, H, T, n = 96, 72, 3, 8
        base = np.column_stack(
            [rng.uniform(12, W - 12, n), rng.uniform(10, H - 10, n)])
        ts = TrajectorySet(
            tuple(FeatureTrajectory(id=i, start_frame=0,
                                    points=np.tile(base[i], (T, 1)))
                  for i in range(n)), T, (W, H))
        meshes = build_all_meshes(ts)
        ctrl = np.array([m.control_points for m in meshes])
        dts = TrajectorySet(
            tuple(FeatureTrajectory(
                id=tr.id, start_frame=tr.start_frame,
                points=np.clip(tr.points + rng.uniform(-2, 2, tr.points.shape),
                               0, [W - 1, H - 1]))
                for tr in ts.trajectories), T, (W, H))
        field = build_warp_field(meshes, dts,
                                 ctrl + rng.uniform(-2, 2, ctrl.shape))
        for mesh, fw in zip(meshes, field.frames):
            for kk, tri in enumerate(fw.triangles):
                for v in tri:
                    p = fw.affines[kk, :, :2] @ fw.src[v] + fw.affines[kk, :, 2]
                    worst_v = max(worst_v, float(np.abs(p - fw.dst[v]).max()))
            for i, j, u, v in mesh.adjacency.tolist():
                seg = mesh.points[u][None, :] * (1 - ties) + mesh.points[v][None, :] * ties
                ai, aj = fw.affines[i], fw.affines[j]
                pi = seg @ ai[:, :2].T + ai[:, 2]
                pj = seg @ aj[:, :2].T + aj[:, 2]
                worst_e = max(worst_e, float(np.abs(pi - pj).max()))
    assert worst_v <= 1e-9
    assert worst_e <= 1e-9
    print(f"criterion 8 PASS: identity renders bit-exact; vertex err "
          f"{worst_v:.2e} px, edge continuity err {worst_e:.2e} px")


def _shaky_frames(rec):
    """Textured frames whose content moves with the scene's per-frame
    similarity jitter on top of the smooth camera path."""
    shaky, truth = rec["shaky"], rec["truth"]
    W, H = shaky.frame_size
    T = shaky.frame_count
    pad = 16
    wrng = np.random.default_rng(1000 + rec["seed"])
    world = world_texture(wrng, W + 2 * pad, H + 2 * pad)
    truth_pts = np.array([tr.points for tr in truth.trajectories])
    shaky_pts = np.array([tr.points for tr in shaky.trajectories])
    cam = truth_pts[0] - truth_pts[0][0]
    frames = []
    for t in range(T):
        lin, tv, resid = fit_similarity(truth_pts[:, t], shaky_pts[:, t])
        assert resid <= 1e-6
        inv_lin = np.linalg.inv(lin)

        def src_xy(q):
            return inv_lin @ (q - tv) - cam[t]

        o = src_xy(np.zeros(2))
        ex = src_xy(np.array([1.0, 0.0])) - o
        ey = src_xy(np.array([0.0, 1.0])) - o
        mat = np.array([[ey[1], ex[1]], [ey[0], ex[0]]])
        off = np.array([o[1] + pad, o[0] + pad])
        img = scipy.ndimage.affine_transform(
            world, mat, offset=off, output_shape=(H, W), order=1,
            mode="nearest")
        frames.append(GrayFrame.from_array(np.clip(img, 0.0, 255.0)))
    return frames


def test_criterion_09_metrics(jitter_scenes):
    t = np.arange(40, dtype=np.float64)
    zig = np.column_stack([t + 5.0, (t % 2) + 5.0])
    rep = stability_score(TrajectorySet(
        (FeatureTrajectory(id=0, start_frame=0, points=zig),), 40, (64, 64)))
    assert abs(rep.mean - 0.7074) <= 1e-3

    rng = np.random.default_rng(109)
    img = GrayFrame.from_array(rng.uniform(0, 255, (48, 64)))
    assert ssim_pair(img, GrayFrame.from_array(img.data.copy())) == 1.0

    gains = []
    for rec in jitter_scenes[:N_RENDER_SCENES]:
        frames = _shaky_frames(rec)
        controls = solve_stage2(rec["meshes"], rec["stabilized"], rec["cfg"])
        field = build_warp_field(rec["meshes"], rec["stabilized"], controls)
        rendered, _ = render_all(frames, field)
        rect = common_crop(field)
        cropped = [apply_crop(f, rect) for f in rendered]
        s_shaky = video_ssim(frames).mean
        s_stab = video_ssim(cropped).mean
        assert s_stab > s_shaky
        gains.append((s_shaky, s_stab))
    shown = ", ".join(f"{a:.3f}->{b:.3f}" for a, b in gains)
    print(f"criterion 9 PASS: zigzag {rep.mean:.4f}, identical-frame ssim "
          f"1.0, video ssim per scene {shown}")


def test_criterion_10_defaults_audit(capsys):
    assert cli.main(["defaults"]) == 0
    text = capsys.readouterr().out
    vals = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, val = line.split("=", 1)
            vals[key] = val
    assert float(vals["alpha"]) == 20.0
    assert float(vals["beta"]) == 10.0
    assert float(vals["gamma"]) == 10.0
    assert float(vals["epsilon"]) == 20.0
    assert float(vals["sigma"]) == 10.0
    assert float(vals["tau"]) == 10.0
    assert float(vals["clamp_low"]) == 0.1
    assert float(vals["clamp_high"]) == 10.0
    assert int(vals["min_track_len"]) == 3
    assert "length > 3" in text
    assert "control_points=36" in text
    print("criterion 10 PASS: defaults report alpha 20, beta 10, gamma 10, "
          "epsilon 20, sigma 10, tau 10, clamp [0.1, 10], kept length > 3, "
          "36 control points")
