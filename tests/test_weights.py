from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshstab.errors import DegenerateGeometryError
from meshstab.trajectory import FeatureTrajectory, TrajectorySet, make_scene_spec, synthesize_scene
from meshstab.weights import (
    LsmParams,
    build_lsm_table,
    fit_local_homography,
    lsm_weight,
    temporal_weight,
)

from conftest import random_set


def knn_neighbors(
    points: list[tuple[int, np.ndarray]],
    target_id: int,
    k: int,
) -> list[int]:
    """Ids of the k points nearest to `target_id` (itself excluded).

    Distance ties break by ascending id.  When fewer than k other points
    exist, all of them are returned.
    """
    ids = np.array([pid for pid, _ in points], dtype=np.int64)
    pos = np.array([p for _, p in points], dtype=np.float64)
    where = np.nonzero(ids == target_id)[0]
    if len(where) != 1:
        raise KeyError(f"point id {target_id} not present exactly once")
    i = int(where[0])
    d = np.hypot(pos[:, 0] - pos[i, 0], pos[:, 1] - pos[i, 1])
    order = np.lexsort((ids, d))
    out = [int(ids[j]) for j in order if j != i]
    return out[:k]


def dump_lsm_table(table) -> str:
    lines = [f"{t} {tid} {float(w)!r}" for (t, tid), w in sorted(table.weights.items())]
    return "\n".join(lines) + "\n"


def test_temporal_weight_anchor_values():
    assert abs(temporal_weight(10.0, 10.0) - 1.0) <= 1e-12
    assert abs(temporal_weight(0.0, 10.0) - np.e) <= 1e-12
    assert abs(temporal_weight(20.0, 10.0) - 1.0 / np.e) <= 1e-12
    with pytest.raises(ValueError):
        temporal_weight(1.0, 0.0)
    with pytest.raises(ValueError):
        temporal_weight(1.0, float("nan"))


def test_temporal_weight_monotone_and_vectorized():
    d = np.linspace(0.0, 60.0, 500)
    w = temporal_weight(d, 10.0)
    assert np.all(np.diff(w) <= 1e-15)
    assert w[0] > 1.0 > w[-1]
    # scalar call returns a plain float
    assert isinstance(temporal_weight(3.0), float)


def test_knn_line_and_ties():
    pts = [(i, np.array([float(i), 0.0])) for i in range(5)]
    assert knn_neighbors(pts, 2, 2) == [1, 3]
    # symmetric tie at distance 1: lower id first
    assert knn_neighbors(pts, 2, 1) == [1]
    assert knn_neighbors(pts, 0, 10) == [1, 2, 3, 4]
    with pytest.raises(KeyError):
        knn_neighbors(pts, 9, 2)


def test_knn_matches_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(10):
        ids = list(rng.permutation(60)[:30])
        pos = rng.uniform(0, 100, (30, 2))
        pts = [(int(i), p) for i, p in zip(ids, pos)]
        target = int(ids[7])
        got = knn_neighbors(pts, target, 8)
        ref = sorted(
            ((np.hypot(*(p - pos[7])), int(i)) for i, p in zip(ids, pos)
             if int(i) != target),
        )[:8]
        assert got == [i for _, i in ref]


def test_homography_identity_and_translation():
    rng = np.random.default_rng(3)
    src = rng.uniform(0, 50, (9, 2))
    h, r = fit_local_homography(src, src)
    assert r < 1e-18
    expect = np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0])
    assert np.abs(h - expect).max() < 1e-9

    h2, r2 = fit_local_homography(src, src + [5.0, 0.0])
    assert r2 < 1e-15
    assert abs(h2[2] - 5.0) < 1e-7 and abs(h2[5]) < 1e-7


def test_homography_outlier_residual_matches_dense_oracle():
    rng = np.random.default_rng(21)
    src = rng.uniform(0, 80, (9, 2))
    dst = src + np.array([2.0, 1.0])
    dst[4] = src[4] - np.array([6.0, 3.0])  # one point moves against the rest
    h, resid = fit_local_homography(src, dst)

    # independent dense solve of the same linearized system, via the
    # normal equations (the implementation itself factorizes A directly)
    m = src.shape[0]
    A = np.zeros((2 * m, 8))
    x, y = src[:, 0], src[:, 1]
    A[0::2, 0], A[0::2, 1], A[0::2, 2] = x, y, 1.0
    A[0::2, 6], A[0::2, 7] = -dst[:, 0] * x, -dst[:, 0] * y
    A[1::2, 3], A[1::2, 4], A[1::2, 5] = x, y, 1.0
    A[1::2, 6], A[1::2, 7] = -dst[:, 1] * x, -dst[:, 1] * y
    rhs = dst.reshape(-1)
    sol = np.linalg.solve(A.T @ A, A.T @ rhs)
    ref = float(np.sum((A @ sol - rhs) ** 2))
    assert resid > 1.0
    assert abs(resid - ref) <= 1e-8 * max(ref, 1.0)
    assert np.abs(h - sol).max() <= 1e-6


def test_homography_degenerate_cases():
    with pytest.raises(DegenerateGeometryError):
        fit_local_homography(np.zeros((3, 2)), np.zeros((3, 2)))
    line = np.column_stack([np.arange(6.0), np.zeros(6)])
    with pytest.raises(DegenerateGeometryError):
        fit_local_homography(line, line + 1.0)


def _wobble_set(rng, n=12, T=6, W=200, H=150, jitter=0.5):
    anchors = np.column_stack([rng.uniform(30, W - 30, n), rng.uniform(30, H - 30, n)])
    trajs = tuple(
        FeatureTrajectory(id=i, start_frame=0,
                          points=anchors[i] + rng.uniform(-jitter, jitter, (T, 2)))
        for i in range(n)
    )
    return TrajectorySet(trajs, T, (W, H))


def test_lsm_static_scene_clamps_low():
    gx, gy = np.meshgrid(np.linspace(30.0, 170.0, 5), np.array([45.0, 105.0]))
    anchors = np.column_stack([gx.ravel(), gy.ravel()])
    anchors[:, 1] += np.linspace(-7.0, 7.0, 10)  # break the grid regularity
    trajs = tuple(
        FeatureTrajectory(id=i, start_frame=0, points=np.tile(anchors[i], (5, 1)))
        for i in range(10)
    )
    ts = TrajectorySet(trajs, 5, (200, 150))
    p = LsmParams()
    for i in range(10):
        assert lsm_weight(ts, 2, i, p) == p.clamp_low


def test_lsm_exact_homography_neighborhood_clamps_low():
    rng = np.random.default_rng(9)
    base = np.column_stack([rng.uniform(40, 160, 9), rng.uniform(40, 110, 9)])
    # an exact projective map with mild off-diagonal terms
    hm = np.array([[1.02, 0.01, 1.5], [-0.02, 0.99, -0.8], [1e-4, -5e-5, 1.0]])
    moved_h = (np.column_stack([base, np.ones(9)]) @ hm.T)
    moved = moved_h[:, :2] / moved_h[:, 2:3]
    pts = np.stack([base, moved, moved], axis=1)  # frames 0,1,2
    trajs = tuple(FeatureTrajectory(id=i, start_frame=0, points=pts[i]) for i in range(9))
    ts = TrajectorySet(trajs, 3, (200, 150))
    for i in range(9):
        assert lsm_weight(ts, 1, i) == 0.1


def test_lsm_first_frame_neutral():
    rng = np.random.default_rng(10)
    ts = _wobble_set(rng)
    for tr in ts.trajectories:
        assert lsm_weight(ts, tr.start_frame, tr.id) == 1.0


def test_lsm_foreground_outlier_exceeds_one():
    # 8 static background points, one trajectory jumping 12 px between frames
    bg = np.array([[40.0, 40.0], [160.0, 40.0], [40.0, 110.0], [160.0, 110.0],
                   [100.0, 30.0], [100.0, 120.0], [30.0, 75.0], [170.0, 75.0]])
    trajs = [
        FeatureTrajectory(id=i, start_frame=0, points=np.tile(bg[i], (3, 1)))
        for i in range(8)
    ]
    fg = np.array([[94.0, 70.0], [106.0, 70.0], [106.0, 70.0]])
    trajs.append(FeatureTrajectory(id=8, start_frame=0, points=fg))
    ts = TrajectorySet(tuple(trajs), 3, (200, 150))
    w = lsm_weight(ts, 1, 8)
    assert w > 1.0


def test_lsm_theta_hand_value():
    # k=4 neighbors all at distance 50 in a 1000x1000 frame, tau=10 -> theta=0.5
    center = np.array([500.0, 500.0])
    ring = center + 50.0 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    pts = np.vstack([[center], ring])
    # motion: everyone translates by (3,0) except the center point drifts oppositely
    pts_prev = pts - np.array([3.0, 0.0])
    pts_prev[0] = pts[0] + np.array([4.0, 0.0])
    trajs = tuple(
        FeatureTrajectory(id=i, start_frame=0, points=np.vstack([pts_prev[i], pts[i], pts[i]]))
        for i in range(5)
    )
    ts = TrajectorySet(trajs, 3, (1000, 1000))
    params = LsmParams(k=4)
    got = lsm_weight(ts, 1, 0, params)
    # reproduce theta * residual with the independently fitted system
    src = pts
    dst = pts_prev
    _, resid = fit_local_homography(src, dst)
    theta = (4 * 50.0) / (4 * ((1000 / 10.0 + 1000 / 10.0) / 2.0))
    assert abs(theta - 0.5) < 1e-12
    expect = float(np.clip(theta * resid, 0.1, 10.0))
    assert abs(got - expect) <= 1e-9 * expect


def test_lsm_scaling_moves_residual_not_theta():
    """Scaling coordinates and frame size together leaves theta alone, so the
    unclamped weight scales exactly with the squared-pixel residual."""
    rng = np.random.default_rng(30)
    base = np.column_stack([rng.uniform(200, 800, 12), rng.uniform(200, 800, 12)])
    step = np.tile([1.0, 0.5], (12, 1))
    step[3] = [-0.3, 0.15]  # trajectory 3 cuts against the common motion

    def weight_at(scale: float) -> float:
        trajs = tuple(
            FeatureTrajectory(
                id=i, start_frame=0,
                points=scale * np.vstack([base[i] - step[i], base[i], base[i]]))
            for i in range(12)
        )
        ts = TrajectorySet(trajs, 3, (int(1000 * scale), int(1000 * scale)))
        return lsm_weight(ts, 1, 3)

    ref = weight_at(1.0)
    scaled = weight_at(1.5)
    assert 0.1 < ref and scaled < 10.0  # both inside the clamp window
    assert abs(scaled / ref - 1.5**2) <= 1e-6


def test_lsm_table_covers_all_alive_pairs():
    rng = np.random.default_rng(40)
    ts = _wobble_set(rng, n=10, T=5)
    table = build_lsm_table(ts)
    for tr in ts.trajectories:
        for t in range(tr.start_frame, tr.end_frame + 1):
            v = table.get(t, tr.id)
            assert 0.1 <= v <= 10.0 or v == 1.0
    txt = dump_lsm_table(table)
    assert len(txt.splitlines()) == sum(len(tr) for tr in ts.trajectories)


def test_lsm_in_clamp_range_randomized():
    rng = np.random.default_rng(50)
    for _ in range(5):
        ts = _wobble_set(rng, n=14, T=4, jitter=rng.uniform(0.1, 4.0))
        table = build_lsm_table(ts)
        for (t, tid), v in table.weights.items():
            assert 0.1 <= v <= 10.0


# --- the batched table against lsm_weight, entry by entry ---


def _assert_table_matches_oracle(ts, params=LsmParams(), rel=1e-12):
    got = build_lsm_table(ts, params).weights
    ref = {(t, tr.id): lsm_weight(ts, t, tr.id, params)
           for t in range(ts.frame_count) for tr in ts.trajectories if tr.alive_at(t)}
    assert got.keys() == ref.keys()
    for (t, tid), v in got.items():
        assert type(t) is int and type(tid) is int and type(v) is float
        assert abs(v - ref[t, tid]) <= rel * abs(ref[t, tid]), (t, tid, v, ref[t, tid])
    return got


def _set(points_by_id, starts=None, size=(200, 150)):
    starts = starts or {}
    trajs = tuple(FeatureTrajectory(id=i, start_frame=starts.get(i, 0), points=p)
                  for i, p in points_by_id.items())
    frames = max(tr.end_frame for tr in trajs) + 1
    return TrajectorySet(trajs, frames, size)


def test_lsm_table_matches_oracle_on_staggered_trajectories():
    rng = np.random.default_rng(60)
    for _ in range(4):
        ts = random_set(rng, n_traj=16, frame_count=10, width=200, height=150,
                        jitter=0.3, staggered=True)
        got = _assert_table_matches_oracle(ts)
        assert any(0.1 < v < 10.0 and v != 1.0 for v in got.values())
    starts = [tr.start_frame for tr in ts.trajectories]
    ends = [tr.end_frame for tr in ts.trajectories]
    assert min(starts) == 0 < max(starts) and min(ends) < ts.frame_count - 1


def test_lsm_table_too_few_covisible_features_is_neutral():
    rng = np.random.default_rng(61)
    anchors = rng.uniform(20, 130, (6, 2))
    # ids 0-3 live through frames 0-4; 4 and 5 only through frames 0-2, so
    # frames 3 and 4 see 3 other co-visible features, below min_neighbors
    pts = {i: anchors[i] + rng.uniform(-3, 3, (5 if i < 4 else 3, 2)) for i in range(6)}
    ts = _set(pts)
    got = _assert_table_matches_oracle(ts)
    assert all(got[t, i] == 1.0 for t in (3, 4) for i in range(4))
    assert any(got[t, i] != 1.0 for t in (1, 2) for i in range(6))


def test_lsm_table_min_neighbors_zero_rejects_small_fits():
    rng = np.random.default_rng(62)
    anchors = rng.uniform(20, 130, (4, 2))
    # 4, 3 and 2 co-visible features in frames 1, 2 and 3: with fewer than
    # 4 points fit_local_homography rejects the fit and the weight is 1.0;
    # with 4 the 8x8 system fits exactly and clamps low
    pts = {i: anchors[i] + rng.uniform(-3, 3, (n, 2)) for i, n in enumerate([4, 4, 3, 2])}
    ts = _set(pts)
    params = LsmParams(min_neighbors=0)
    got = _assert_table_matches_oracle(ts, params)
    assert {got[t, i] for t in (2, 3) for i in range(4) if (t, i) in got} == {1.0}
    assert all(got[1, i] == params.clamp_low for i in range(4))


def test_lsm_table_breaks_distance_ties_by_id():
    rng = np.random.default_rng(63)
    # a regular grid puts many neighbors at equal distances, and four more
    # features sit on top of grid points; ids are shuffled over positions,
    # and the motion fits no homography, so the weight depends on which
    # tied neighbors are taken
    gx, gy = np.meshgrid(np.arange(40.0, 161.0, 20.0), np.arange(30.0, 121.0, 30.0))
    grid = np.column_stack([gx.ravel(), gy.ravel()])[:20]
    anchors = np.vstack([grid, grid[[3, 7, 8, 12]]])
    order = rng.permutation(len(anchors))
    pts = {int(i): np.vstack([anchors[j] + rng.uniform(-2, 2, 2), anchors[j], anchors[j]])
           for i, j in zip(order, range(len(anchors)))}
    for params in (LsmParams(), LsmParams(k=4), LsmParams(k=5, tau=50.0)):
        got = _assert_table_matches_oracle(_set(pts), params)
        assert any(params.clamp_low < v < params.clamp_high for v in got.values())


def test_lsm_table_collinear_neighborhood_is_neutral():
    xs = np.arange(10.0, 190.0, 15.0)
    line = {i: np.column_stack([np.full(3, x), 20.0 + 0.5 * x + np.array([0.0, 1.0, 3.0])])
            for i, x in enumerate(xs)}
    got = _assert_table_matches_oracle(_set(line))
    assert set(got.values()) == {1.0}

    # nearly collinear at frame 1: full rank by lstsq's rule, but a
    # condition number near 1e13, beyond COND_LIMIT
    rng = np.random.default_rng(66)
    spread = rng.uniform(-50, 50, (9, 2))
    at1 = np.column_stack([100.0 + spread[:, 0], 75.0 + 5e-9 * spread[:, 1]])
    near = {i: np.vstack([at1[i] - [1.0, 0.5] + rng.uniform(-0.1, 0.1, 2), at1[i]])
            for i in range(9)}
    got = _assert_table_matches_oracle(_set(near))
    assert set(got.values()) == {1.0}


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_lsm_table_overflowing_system_is_neutral():
    rng = np.random.default_rng(65)
    anchors = rng.uniform(20, 180, (10, 2))
    pts = {i: anchors[i] + rng.uniform(-0.3, 0.3, (3, 2)) for i in range(10)}
    # the design matrix holds x * x', which overflows for this point
    pts[10] = np.full((3, 2), 1e200)
    got = _assert_table_matches_oracle(_set(pts))
    assert got[1, 10] == 1.0
    assert any(0.1 < got[1, i] < 10.0 for i in range(10))


def test_lsm_table_foreground_scene_between_clamps():
    spec = make_scene_spec(width=320, height=240, frame_count=10, n_background=40,
                           n_foreground=16, seed=4, path_amplitude=6.0,
                           jitter_translation=2.0, jitter_rotation_deg=0.5,
                           foreground_amplitude=20.0)
    ts, _ = synthesize_scene(spec, 4)
    got = _assert_table_matches_oracle(ts)
    assert sum(0.1 < v < 10.0 for v in got.values()) > 100


def test_lsm_table_mixed_k_eff_across_frames():
    rng = np.random.default_rng(64)
    anchors = rng.uniform(20, 180, (12, 2))
    # 12, 9, 7 and 5 co-visible features in frames 1-4: k_eff 8, 8, 6, 4
    lengths = [5] * 5 + [4] * 2 + [3] * 2 + [2] * 3
    pts = {i: anchors[i] + rng.uniform(-0.3, 0.3, (n, 2)) for i, n in enumerate(lengths)}
    got = _assert_table_matches_oracle(_set(pts))
    assert all(0.1 < got[t, 0] < 10.0 for t in range(1, 5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 14), frames=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       grid=st.booleans(), jitter=st.sampled_from([0.1, 1.0, 5.0]), k=st.integers(4, 9),
       tau=st.sampled_from([2.0, 10.0, 100.0]), min_neighbors=st.integers(0, 6))
def test_lsm_table_matches_oracle_on_random_sets(n, frames, seed, grid, jitter, k, tau,
                                                 min_neighbors):
    rng = np.random.default_rng(seed)
    trajs = []
    for tid in rng.permutation(3 * n)[:n].tolist():
        # most live through the clip, so frames have enough co-visible features
        start, end = sorted(rng.integers(0, frames, 2)) if rng.random() < 0.3 else (0, frames - 1)
        length = int(end - start + 1)
        step = rng.uniform(-jitter, jitter, (length, 2))
        if grid:
            # coarse grid anchors, some frames exactly on them: coincident
            # points and distance ties
            anchor = rng.integers(1, 5, 2) * 30.0
            step *= rng.integers(0, 2, (length, 1))
        else:
            anchor = rng.uniform(10, 139, 2)
        trajs.append(FeatureTrajectory(id=tid, start_frame=int(start), points=anchor + step))
    ts = TrajectorySet(tuple(trajs), frames, (150, 150))
    params = LsmParams(k=k, tau=tau, min_neighbors=min_neighbors)
    _assert_table_matches_oracle(ts, params, rel=1e-10)
