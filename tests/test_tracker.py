from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter

from meshstab import kernels, tracker
from meshstab.frames import GrayFrame
from meshstab.tracker import (
    TrackerConfig,
    build_trajectories,
    detect_corners,
    track_frame_pair,
)
from meshstab.trajectory import filter_short

from conftest import textured_frames, world_texture


def _brute_min_eig(img: np.ndarray, radius: int = 3) -> np.ndarray:
    """Independent corner response: loop-free only in the eigenvalue algebra."""
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, 1:-1] = (img[:, 2:] - img[:, :-2]) / 2.0
    gy[1:-1, :] = (img[2:, :] - img[:-2, :]) / 2.0
    h, w = img.shape
    resp = np.zeros_like(img)
    for y in range(radius, h - radius):
        for x in range(radius, w - radius):
            wx = gx[y - radius:y + radius + 1, x - radius:x + radius + 1]
            wy = gy[y - radius:y + radius + 1, x - radius:x + radius + 1]
            sxx = float((wx * wx).sum())
            syy = float((wy * wy).sum())
            sxy = float((wx * wy).sum())
            tr_half = (sxx + syy) / 2.0
            det = np.hypot((sxx - syy) / 2.0, sxy)
            resp[y, x] = tr_half - det
    return resp


def test_constant_frame_yields_no_corners():
    f = GrayFrame.from_array(np.full((40, 40), 128.0))
    assert detect_corners(f) == []


def test_frame_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        detect_corners(GrayFrame.from_array(np.zeros((16, 16))))


def test_white_square_corners_found():
    img = np.zeros((64, 64))
    img[16:36, 20:44] = 255.0
    corners = detect_corners(GrayFrame.from_array(img))
    assert corners
    square = np.array([[20.0, 16.0], [43.0, 16.0], [20.0, 35.0], [43.0, 35.0]])
    got = np.array(corners)
    # every detection sits at a square corner and every square corner is hit
    for c in got:
        assert np.hypot(*(square - c).T).min() <= 4.0
    for s in square:
        assert np.hypot(*(got - s).T).min() <= 4.0

    # the response landscape itself peaks at the square corners
    resp = _brute_min_eig(img)
    by, bx = np.unravel_index(np.argmax(resp), resp.shape)
    assert np.hypot(*(square - [bx, by]).T).min() <= 4.0
    # best detected corner = best brute-force response location
    assert abs(resp[int(corners[0][1]), int(corners[0][0])] - resp[by, bx]) <= 1e-9


def test_corner_budget_and_cell_coverage():
    rng = np.random.default_rng(31)
    img = world_texture(rng, 128, 96, smooth=1.0)
    cfg = TrackerConfig()
    corners = detect_corners(GrayFrame.from_array(img), cfg)
    assert len(corners) <= cfg.corner_target + cfg.grid_rows * cfg.grid_cols * cfg.min_per_cell
    counts = np.zeros((cfg.grid_rows, cfg.grid_cols), dtype=int)
    for c in corners:
        cx = min(int(c[0]) * cfg.grid_cols // 128, cfg.grid_cols - 1)
        cy = min(int(c[1]) * cfg.grid_rows // 96, cfg.grid_rows - 1)
        counts[cy, cx] += 1
    assert counts.min() >= cfg.min_per_cell


def test_self_track_is_stationary():
    rng = np.random.default_rng(4)
    frames, _ = textured_frames(rng, 64, 48, frame_count=1, max_shift=0)
    f = frames[0]
    pts = detect_corners(f)
    assert pts
    tracked = track_frame_pair(f, f, pts, TrackerConfig())
    moved = [q for p, q in zip(pts, tracked) if q is not None]
    assert moved  # interior corners must survive
    for p, q in zip(pts, tracked):
        if q is not None:
            assert np.hypot(*(q - p)) <= 0.05


def test_two_pixel_shift_recovered():
    rng = np.random.default_rng(6)
    world = world_texture(rng, 72, 48)
    a = GrayFrame.from_array(world[:, :64])
    b = GrayFrame.from_array(world[:, 2:66])
    # scene content moves 2 px left in frame coordinates
    pts = detect_corners(a)
    tracked = track_frame_pair(a, b, pts, TrackerConfig())
    hits = 0
    for p, q in zip(pts, tracked):
        if q is None:
            continue
        d = q - p
        assert np.hypot(d[0] + 2.0, d[1]) <= 0.25, (p, q)
        hits += 1
    assert hits >= 5


def test_constant_region_point_is_lost():
    rng = np.random.default_rng(12)
    img = world_texture(rng, 64, 48)
    img[10:38, 36:60] = 77.0  # flatten a patch
    f = GrayFrame.from_array(img)
    tracked = track_frame_pair(f, f, [np.array([47.0, 24.0])], TrackerConfig())
    assert tracked == [None]


def test_track_size_mismatch():
    a = GrayFrame.from_array(np.zeros((48, 64)))
    b = GrayFrame.from_array(np.zeros((48, 60)))
    with pytest.raises(ValueError, match="size"):
        track_frame_pair(a, b, [np.array([5.0, 5.0])], TrackerConfig())


def test_static_video_full_span_tracks():
    rng = np.random.default_rng(19)
    frames, _ = textured_frames(rng, 64, 48, frame_count=6, max_shift=0)
    ts = filter_short(build_trajectories(frames), 3)
    assert len(ts) > 0
    for tr in ts.trajectories:
        assert tr.start_frame == 0 and len(tr) == 6
        drift = np.abs(tr.points - tr.points[0]).max()
        assert drift <= 0.05


def test_translating_video_recovers_shift():
    rng = np.random.default_rng(23)
    T, W, H, step = 6, 64, 48, 2
    world = world_texture(rng, W + step * T, H)
    frames = [GrayFrame.from_array(world[:, step * t: step * t + W]) for t in range(T)]
    ts = filter_short(build_trajectories(frames), 3)
    assert len(ts) >= 5
    for tr in ts.trajectories:
        steps = np.diff(tr.points, axis=0)
        assert np.abs(steps[:, 0] + step).max() <= 0.25
        assert np.abs(steps[:, 1]).max() <= 0.25


def test_two_frame_input_filters_to_empty():
    rng = np.random.default_rng(27)
    frames, _ = textured_frames(rng, 64, 48, frame_count=2, max_shift=0)
    ts = build_trajectories(frames)
    # every track is returned; the length rule is the caller's
    assert max(len(tr) for tr in ts.trajectories) == 2
    assert len(filter_short(ts, 3)) == 0
    assert ts.frame_count == 2


def test_build_trajectories_errors():
    with pytest.raises(ValueError):
        build_trajectories([])
    with pytest.raises(ValueError):
        build_trajectories([GrayFrame.from_array(np.zeros((48, 64)))])


def test_tracker_determinism_and_bounds():
    rng = np.random.default_rng(33)
    frames, _ = textured_frames(rng, 64, 48, frame_count=8, max_shift=2)
    a = build_trajectories(frames)
    b = build_trajectories(frames)
    assert len(a) == len(b) and len(a) > 0
    for p, q in zip(a.trajectories, b.trajectories):
        assert p.id == q.id and p.start_frame == q.start_frame
        assert np.array_equal(p.points, q.points)
    for tr in a.trajectories:
        assert tr.points[:, 0].min() >= 0 and tr.points[:, 0].max() <= 63
        assert tr.points[:, 1].min() >= 0 and tr.points[:, 1].max() <= 47


@pytest.mark.parametrize("field,value", [
    ("max_iterations", 0), ("fb_error_max", -1.0), ("fb_error_max", 0.0),
    ("fb_error_max", float("nan")), ("response_radius", 0), ("corner_target", 0),
    ("grid_cols", 0), ("grid_rows", 0),
    # NaN passes the comparisons these fields feed, so it must be refused too
    *[(f, v) for f in ("min_new_corner_dist", "convergence_px", "min_eig_threshold")
      for v in (float("nan"), -0.5)],
    ("redetect_fraction", float("nan")), ("redetect_fraction", -0.1),
    ("redetect_fraction", 1.5), ("min_per_cell", -1),
])
def test_config_rejects_values_that_track_nothing(field, value):
    with pytest.raises(ValueError, match=field):
        TrackerConfig(**{field: value})


def test_config_accepts_boundary_values():
    TrackerConfig(min_new_corner_dist=0.0, convergence_px=0.0,
                  min_eig_threshold=0.0, redetect_fraction=0.0, min_per_cell=0)
    TrackerConfig(redetect_fraction=1.0)


def test_grid_finer_than_the_frame_is_refused():
    frame = GrayFrame(80, 64, world_texture(np.random.default_rng(3), 80, 64))
    assert detect_corners(frame, TrackerConfig(grid_cols=80, grid_rows=64))
    for field, value in (("grid_cols", 81), ("grid_rows", 65), ("grid_cols", 10**30)):
        with pytest.raises(ValueError, match=field):
            detect_corners(frame, TrackerConfig(**{field: value}))


def _top_up_loop(cell, scores, chosen, min_per_cell, relaxed):
    """The per-cell top-up as two Python passes: first candidates at or above
    the relaxed threshold, then any; the slow oracle for _top_up_cells."""
    for c in np.unique(cell):
        in_cell = np.nonzero(cell == c)[0]
        have = int(chosen[in_cell].sum())
        for passes in (scores[in_cell] >= relaxed, np.ones(in_cell.size, dtype=bool)):
            for i in in_cell[passes]:
                if have >= min_per_cell:
                    break
                if not chosen[i]:
                    chosen[i] = True
                    have += 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cells=st.lists(st.integers(0, 5), max_size=40), n_global=st.integers(0, 40),
       min_per_cell=st.one_of(st.integers(0, 4), st.just(2**70)), relaxed=st.floats(0.0, 1.5))
def test_top_up_matches_two_pass_loop(cells, n_global, min_per_cell, relaxed):
    cell = np.array(cells, dtype=np.int64)
    scores = np.linspace(1.0, 0.01, cell.size)  # descending, as detect_corners orders them
    ref = np.arange(cell.size) < n_global
    got = ref.copy()
    _top_up_loop(cell, scores, ref, min_per_cell, relaxed)
    tracker._top_up_cells(cell, got, min_per_cell)
    assert np.array_equal(got, ref)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40), levels=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 2**32 - 1))
@example(h=1, w=1, levels=4, seed=0)
@example(h=1, w=40, levels=2, seed=1)
@example(h=40, w=1, levels=2, seed=2)
@example(h=40, w=40, levels=1, seed=3)
def test_max3x3_matches_ndimage_maximum_filter(h, w, levels, seed):
    """The 3x3 maximum equals scipy's maximum_filter(size=3) exactly: few
    integer levels make plateaus of tied maxima, levels=1 an all-zero map."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, levels, (h, w)).astype(np.float64)
    got = tracker._max3x3(a)
    assert got.shape == a.shape
    assert np.array_equal(got, maximum_filter(a, size=3))
    noise = rng.uniform(-1.0, 1.0, (h, w))
    assert np.array_equal(tracker._max3x3(noise), maximum_filter(noise, size=3))


def test_pyramid_builds_only_usable_levels():
    # 64 px // (21 + 2) = 2: levels 0 and 1 keep a 23 px side
    rng = np.random.default_rng(4)
    frames, _ = textured_frames(rng, width=64, height=64, frame_count=2, max_shift=1)
    pts = detect_corners(frames[0])
    ref = track_frame_pair(frames[0], frames[1], pts, TrackerConfig())
    huge = TrackerConfig(pyramid_levels=10**9)
    assert len(tracker._pyramid_and_gradients(frames[0], huge)[0]) == 2
    got = track_frame_pair(frames[0], frames[1], pts, huge)
    assert all((p is None and q is None) or np.array_equal(p, q) for p, q in zip(ref, got))
    # a window wider than the frame still builds level 0 and tracks nothing
    narrow = TrackerConfig(window=71, pyramid_levels=10**9)
    assert len(tracker._pyramid_and_gradients(frames[0], narrow)[0]) == 1
    assert track_frame_pair(frames[0], frames[1], pts, narrow) == [None] * len(pts)


def _same_tracks(a, b):
    assert [(t.id, t.start_frame) for t in a.trajectories] == \
        [(t.id, t.start_frame) for t in b.trajectories]
    for p, q in zip(a.trajectories, b.trajectories):
        assert np.array_equal(p.points, q.points)


def _reused_and_fresh(monkeypatch, frames, cfg=TrackerConfig()):
    """Track with the frame cache and again with every window recomputed.

    Returns the tracks and, per frame pair, whether the cache lent the
    previous pair's frame.
    """
    original = tracker.track_frame_pair
    lent = []

    def spy(prev, nxt, points, cfg, *, reuse=None):
        lent.append(reuse is not None and reuse.frame is prev)
        return original(prev, nxt, points, cfg, reuse=reuse)

    def no_reuse(prev, nxt, points, cfg, *, reuse=None):
        return original(prev, nxt, points, cfg)

    monkeypatch.setattr(tracker, "track_frame_pair", spy)
    reused = build_trajectories(frames, cfg)
    monkeypatch.setattr(tracker, "track_frame_pair", no_reuse)
    fresh = build_trajectories(frames, cfg)
    _same_tracks(reused, fresh)
    return reused, lent


def _pan(rng, frames=10, step=3, width=64, height=48):
    world = world_texture(rng, width + step * frames, height)
    return [GrayFrame.from_array(world[:, step * t: step * t + width]) for t in range(frames)]


def test_reuse_through_redetection_and_losses(monkeypatch):
    ts, lent = _reused_and_fresh(monkeypatch, _pan(np.random.default_rng(41)))
    starts = {t.start_frame for t in ts.trajectories}
    ends = {t.start_frame + len(t) for t in ts.trajectories}
    assert len(starts) > 2 and min(ends) < 10  # re-detected, and lost at the edge
    assert lent == [False] + [True] * 8


def test_reuse_resets_after_every_point_is_lost(monkeypatch):
    rng = np.random.default_rng(42)
    frames, _ = textured_frames(rng, 64, 48, frame_count=10, max_shift=1)
    frames[5] = GrayFrame.from_array(np.full((48, 64), 90.0))
    ts, lent = _reused_and_fresh(monkeypatch, frames)
    # nothing is tracked into, across or out of the flat frame
    assert all(t.start_frame + len(t) <= 5 or t.start_frame >= 6 for t in ts.trajectories)
    assert 0 in {t.start_frame for t in ts.trajectories}
    assert 6 in {t.start_frame for t in ts.trajectories}
    # pairs 0-1 .. 4-5, then 6-7 .. 8-9: the cache misses once after the gap
    assert lent == [False, True, True, True, True, False, True, True]


def test_flat_clip_tracks_nothing(monkeypatch):
    frames = [GrayFrame.from_array(np.full((48, 64), 90.0))] * 5
    ts, lent = _reused_and_fresh(monkeypatch, frames)
    assert len(ts) == 0 and lent == []


def test_tracker_calls_both_traced_seams(monkeypatch):
    frames = _pan(np.random.default_rng(43), frames=6)
    plain = build_trajectories(frames)
    calls = {"pair": 0, "lk": 0}
    pair, lk = tracker.track_frame_pair, kernels.lk_refine_level

    def counted_pair(*args, **kwargs):
        calls["pair"] += 1
        out = pair(*args, **kwargs)
        assert isinstance(out, list) and len(out) == len(args[2])
        return out

    def counted_lk(*args, **kwargs):
        calls["lk"] += 1
        assert args[4].ndim == 2 and args[4].shape[1] == 2  # pts, 5th positional
        return lk(*args, **kwargs)

    monkeypatch.setattr(tracker, "track_frame_pair", counted_pair)
    monkeypatch.setattr(kernels, "lk_refine_level", counted_lk)
    _same_tracks(build_trajectories(frames), plain)
    assert calls["pair"] == 5
    assert calls["lk"] == 2 * 2 * calls["pair"]  # two passes, two usable levels


def test_new_corners_keep_their_distance():
    # a corner is kept only if it is far from every live point and from
    # every corner kept before it in the same detection
    cfg = TrackerConfig()
    rng = np.random.default_rng(44)
    world = world_texture(rng, 64 + 24, 48, smooth=1.0)
    frames = [GrayFrame.from_array(world[:, 3 * t: 3 * t + 64]) for t in range(8)]
    ts = build_trajectories(frames, cfg)
    by_id = sorted(ts.trajectories, key=lambda t: t.id)
    assert len({t.start_frame for t in by_id}) > 2
    for t in by_id:
        s = t.start_frame
        for o in by_id:
            if o.id >= t.id or not o.start_frame <= s < o.start_frame + len(o):
                continue
            assert np.hypot(*(t.points[0] - o.points[s - o.start_frame])) >= cfg.min_new_corner_dist
