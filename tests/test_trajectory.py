from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshstab.errors import ParseError
from meshstab.stage1 import UnknownIndex
from meshstab.trajectory import (
    FeatureTrajectory,
    TrajectorySet,
    filter_short,
    load_trajectories,
    make_scene_spec,
    save_trajectories,
    synthesize_scene,
    validate_bounds,
)

from conftest import random_set


def frame_feature_set(ts, t):
    """All (id, position) pairs alive at frame t, ascending id: the
    per-trajectory scan that the observation table replaces, kept as its
    oracle."""
    out = [(tr.id, tr.points[t - tr.start_frame])
           for tr in ts.trajectories if tr.alive_at(t)]
    out.sort(key=lambda p: p[0])
    return out


def _dict_col(ts, tid, t):
    """x column of (tid, t) in the stacked unknowns: trajectories ascending
    by id, each one's frames in order, as the former per-id dicts laid it."""
    offset = 0
    for tr in sorted(ts.trajectories, key=lambda r: r.id):
        if tr.id == tid:
            return 2 * (offset + t - tr.start_frame)
        offset += len(tr)
    raise KeyError(tid)


def _assert_table_matches_oracle(ts):
    obs = ts.observations
    index = UnknownIndex(ts)
    ids = {tr.id for tr in ts.trajectories}
    missing = next(i for i in range(len(ids) + 1) if i not in ids)
    for t in range(ts.frame_count):
        want = frame_feature_set(ts, t)
        rows = obs.at(t)
        assert obs.ids[rows].tolist() == [i for i, _ in want]
        assert np.array_equal(obs.points[rows], np.reshape([p for _, p in want], (-1, 2)))
        assert (obs.frames[rows] == t).all()
        assert np.array_equal(obs.rows(t, obs.ids[rows][::-1]), rows[::-1])
        assert (2 * rows).tolist() == [_dict_col(ts, i, t) for i, _ in want]
        assert [index.col(i, t, 1) for i, _ in want] == [_dict_col(ts, i, t) + 1 for i, _ in want]
        for tid in [tr.id for tr in ts.trajectories if not tr.alive_at(t)] + [missing]:
            with pytest.raises(IndexError, match=f"trajectory {tid} is not alive"):
                obs.rows(t, [tid])
    assert np.array_equal(index.x0, obs.points.ravel())
    for bad in (-1, ts.frame_count):
        with pytest.raises(IndexError):
            obs.at(bad)


def _traj(tid, start, length, x0=10.0, y0=20.0):
    pts = np.column_stack([
        x0 + np.arange(length, dtype=np.float64),
        np.full(length, y0),
    ])
    return FeatureTrajectory(id=tid, start_frame=start, points=pts)


def test_trajectory_invariants():
    tr = _traj(0, 2, 5)
    assert len(tr) == 5
    assert tr.end_frame == 6
    assert tr.alive_at(2) and tr.alive_at(6)
    assert not tr.alive_at(1) and not tr.alive_at(7)
    assert np.array_equal(tr.point_at(3), [11.0, 20.0])
    with pytest.raises(ValueError):
        FeatureTrajectory(id=0, start_frame=0, points=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        FeatureTrajectory(id=0, start_frame=0,
                          points=np.array([[0.0, np.nan]]))
    # ids and frames are packed as int64
    FeatureTrajectory(id=2**63 - 1, start_frame=2**63 - 2, points=np.zeros((2, 2)))
    for tid, start in ((2**63, 0), (10**23, 0), (0, 2**63), (0, 2**63 - 1)):
        with pytest.raises(ValueError, match="int64"):
            FeatureTrajectory(id=tid, start_frame=start, points=np.zeros((2, 2)))


def test_set_rejects_out_of_range_interval():
    with pytest.raises(ValueError):
        TrajectorySet((_traj(0, 3, 5),), 6, (64, 64))
    # exactly filling the clip is fine
    TrajectorySet((_traj(0, 1, 5),), 6, (64, 64))


def test_frame_feature_set_single():
    ts = TrajectorySet((_traj(0, 0, 6),), 8, (64, 64))
    obs = ts.observations
    rows = obs.at(3)
    assert obs.ids[rows].tolist() == [0]
    assert np.array_equal(obs.points[rows[0]], ts.trajectories[0].points[3])
    assert obs.at(7).size == 0
    _assert_table_matches_oracle(ts)


def test_frame_feature_set_staggered_overlap():
    # intervals: id 0 -> [0,4], id 1 -> [3,7], id 2 -> [6,9]
    ts = TrajectorySet(
        (_traj(2, 6, 4), _traj(0, 0, 5), _traj(1, 3, 5)), 10, (64, 64))
    obs = ts.observations
    assert obs.ids[obs.at(4)].tolist() == [0, 1]
    assert obs.ids[obs.at(6)].tolist() == [1, 2]
    assert obs.ids[obs.at(5)].tolist() == [1]
    # rows run by id, then frame: row r is unknowns 2r and 2r + 1
    assert obs.ids.tolist() == [0] * 5 + [1] * 5 + [2] * 4
    assert obs.frames.tolist() == [*range(0, 5), *range(3, 8), *range(6, 10)]
    with pytest.raises(IndexError):
        obs.at(10)
    with pytest.raises(IndexError):
        obs.at(-1)
    with pytest.raises(IndexError, match="trajectory 0 is not alive at frame 5"):
        obs.rows(5, [1, 0])
    _assert_table_matches_oracle(ts)


def test_frame_sizes_sum_to_point_count():
    rng = np.random.default_rng(42)
    for _ in range(10):
        ts = random_set(rng, n_traj=6, frame_count=12, staggered=True)
        total = sum(len(tr) for tr in ts.trajectories)
        by_frame = sum(ts.observations.at(t).size for t in range(ts.frame_count))
        assert by_frame == total
        assert by_frame == sum(len(frame_feature_set(ts, t)) for t in range(ts.frame_count))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_traj=st.integers(0, 6), frames=st.integers(6, 14),
       lead=st.integers(0, 3), tail=st.integers(0, 3),
       ids=st.lists(st.integers(0, 2**63 - 1), min_size=6, max_size=6, unique=True))
# one feature per live frame, with empty frames before and after
@example(seed=1, n_traj=1, frames=6, lead=2, tail=2, ids=[5, 0, 1, 2, 3, 4])
# ids up to the int64 limit
@example(seed=2, n_traj=6, frames=8, lead=0, tail=1, ids=[2**63 - 1, 9, 7, 5, 3, 1])
def test_observation_table_matches_frame_feature_set(seed, n_traj, frames, lead, tail, ids):
    """Staggered trajectories, handed over out of id order and shifted so
    that frames with no feature lead and trail the clip."""
    rng = np.random.default_rng(seed)
    base = random_set(rng, n_traj=n_traj, frame_count=frames, staggered=True)
    trs = [FeatureTrajectory(id=ids[k], start_frame=tr.start_frame + lead, points=tr.points)
           for k, tr in enumerate(base.trajectories)]
    trs = [trs[k] for k in rng.permutation(n_traj)]
    _assert_table_matches_oracle(TrajectorySet(tuple(trs), lead + frames + tail, base.frame_size))


def test_filter_short_thresholds():
    ts = TrajectorySet(
        (_traj(0, 0, 2), _traj(1, 0, 4), _traj(2, 0, 7)), 12, (64, 64))
    kept = filter_short(ts, 3)
    assert sorted(len(tr) for tr in kept.trajectories) == [4, 7]
    assert [tr.id for tr in kept.trajectories] == [1, 2]

    # length exactly min_len is dropped: the cut keeps strictly longer tracks
    only3 = TrajectorySet((_traj(0, 0, 3),), 5, (64, 64))
    assert len(filter_short(only3, 3)) == 0

    all4 = TrajectorySet((_traj(0, 0, 4), _traj(1, 2, 4)), 8, (64, 64))
    assert len(filter_short(all4, 3)) == 2


def test_filter_short_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ts = random_set(rng, n_traj=8, frame_count=10, staggered=True)
        once = filter_short(ts, 3)
        twice = filter_short(once, 3)
        assert [tr.id for tr in once.trajectories] == [tr.id for tr in twice.trajectories]


def test_validate_bounds():
    ok = TrajectorySet((_traj(0, 0, 4),), 4, (64, 64))
    assert validate_bounds(ok) is ok
    bad = TrajectorySet(
        (FeatureTrajectory(id=3, start_frame=0,
                           points=np.array([[0.0, 0.0], [70.0, 1.0]])),),
        2, (64, 64))
    with pytest.raises(ValueError, match="trajectory 3"):
        validate_bounds(bad)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    for trial in range(8):
        ts = random_set(rng, n_traj=5, frame_count=9, staggered=True)
        p = tmp_path / f"t{trial}.txt"
        save_trajectories(ts, p)
        back = load_trajectories(p)
        assert back.frame_count == ts.frame_count
        assert back.frame_size == ts.frame_size
        assert len(back) == len(ts)
        for a, b in zip(ts.trajectories, back.trajectories):
            assert a.id == b.id and a.start_frame == b.start_frame
            assert np.array_equal(a.points, b.points)


def test_load_empty_list_keeps_header(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("12 320 240\n")
    ts = load_trajectories(p)
    assert len(ts) == 0
    assert ts.frame_count == 12
    assert ts.frame_size == (320, 240)


def test_load_rejects_interval_overflow(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 64 64\n7 1 1.0 2.0 3.0 4.0 5.0 6.0\n")
    with pytest.raises(ParseError, match="trajectory 7"):
        load_trajectories(p)


def test_load_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad2.txt"
    p.write_text("4 64 64\n0 0 1.0 2.0 3.0 4.0\n1 0 1.0 x\n")
    with pytest.raises(ParseError, match="line 3"):
        load_trajectories(p)
    p2 = tmp_path / "bad3.txt"
    p2.write_text("4 64\n")
    with pytest.raises(ParseError, match="line 1"):
        load_trajectories(p2)
    p3 = tmp_path / "odd.txt"
    p3.write_text("4 64 64\n0 0 1.0 2.0 3.0\n")
    with pytest.raises(ParseError, match="odd coordinate count"):
        load_trajectories(p3)
    # FeatureTrajectory's own message already names the id; it is not repeated
    p4 = tmp_path / "nan.txt"
    p4.write_text("4 64 64\n3 0 1.0 nan 2.0 3.0\n")
    with pytest.raises(ParseError) as err:
        load_trajectories(p4)
    assert str(err.value) == "line 2: trajectory 3: non-finite coordinates"
    # a header field beyond int64 is the header's fault, not the tracks'
    p5 = tmp_path / "wide.txt"
    p5.write_text("4 99999999999999999999 48\n" + "".join(
        f"{i} 0 " + " ".join(["10.0", f"{10.0 + 5 * i}"] * 5) + "\n" for i in range(3)))
    with pytest.raises(ParseError, match="line 1: .*int64") as err:
        load_trajectories(p5)
    assert err.value.line == 1


def test_synthesize_zero_jitter_identity():
    spec = make_scene_spec(200, 150, 20, n_background=8, seed=3,
                           path_amplitude=5.0)
    shaky, truth = synthesize_scene(spec, seed=11)
    for a, b in zip(shaky.trajectories, truth.trajectories):
        assert np.array_equal(a.points, b.points)


def test_synthesize_translation_jitter_constant_offset():
    spec = make_scene_spec(200, 150, 16, n_background=7, n_foreground=2,
                           seed=4, jitter_translation=3.0)
    shaky, truth = synthesize_scene(spec, seed=5)
    n_bg = 7
    for t in range(spec.frame_count):
        diffs = np.array([
            shaky.by_id(i).point_at(t) - truth.by_id(i).point_at(t)
            for i in range(n_bg)
        ])
        assert np.abs(diffs - diffs[0]).max() < 1e-12
        assert np.abs(diffs[0]).max() <= 3.0


def test_synthesize_seed_determinism():
    spec = make_scene_spec(240, 180, 14, n_background=6, seed=9,
                           path_amplitude=4.0, jitter_translation=2.0,
                           jitter_rotation_deg=0.4)
    a_shaky, a_truth = synthesize_scene(spec, seed=21)
    b_shaky, b_truth = synthesize_scene(spec, seed=21)
    for x, y in ((a_shaky, b_shaky), (a_truth, b_truth)):
        for p, q in zip(x.trajectories, y.trajectories):
            assert np.array_equal(p.points, q.points)
    c_shaky, _ = synthesize_scene(spec, seed=22)
    assert not np.array_equal(a_shaky.trajectories[0].points,
                              c_shaky.trajectories[0].points)


def test_scene_spec_rejects_degenerate_points():
    line = np.column_stack([np.linspace(30, 80, 6), np.full(6, 40.0)])
    from meshstab.trajectory import SceneSpec
    with pytest.raises(ValueError, match="collinear"):
        SceneSpec(width=120, height=90, frame_count=12, background=line)
    with pytest.raises(ValueError):
        SceneSpec(width=120, height=90, frame_count=12,
                  background=np.array([[30.0, 30.0], [60.0, 50.0]]))
