from __future__ import annotations

import numpy as np
import pytest

from meshstab import metrics
from meshstab.frames import GrayFrame
from meshstab.trajectory import FeatureTrajectory, TrajectorySet

from conftest import textured_frames


def _one(points, frame_count, size=(64, 64)):
    return TrajectorySet(
        (FeatureTrajectory(id=0, start_frame=0, points=np.asarray(points, dtype=np.float64)),),
        frame_count, size)


def test_zigzag_score_matches_chord_over_path():
    t = np.arange(40, dtype=np.float64)
    zig = np.column_stack([t + 5.0, (t % 2) + 5.0])
    rep = metrics.stability_score(_one(zig, 40))
    assert rep.count == 1
    # 39 unit-diagonal steps, chord (39, 1)
    expect = float(np.hypot(39.0, 1.0) / (39.0 * np.sqrt(2.0)))
    assert abs(rep.mean - expect) < 1e-12
    assert abs(rep.mean - 0.7073391909812164) < 1e-12


def test_straight_and_static_trajectories_score_one():
    t = np.arange(40, dtype=np.float64)
    line = np.column_stack([5.0 + 0.25 * t, 8.0 + 0.5 * t])
    flat = np.tile([[12.0, 13.0]], (40, 1))
    rep = metrics.stability_score(TrajectorySet(
        (FeatureTrajectory(id=0, start_frame=0, points=line),
         FeatureTrajectory(id=1, start_frame=0, points=flat)), 40, (64, 64)))
    assert rep.count == 2
    assert abs(rep.scores[0] - 1.0) < 1e-12
    assert rep.scores[1] == 1.0
    assert all(0.0 < s <= 1.0 + 1e-15 for s in rep.scores)


def test_short_trajectories_leave_mean_undefined():
    rep = metrics.stability_score(
        _one(np.tile([[3.0, 3.0]], (39, 1)), 39))
    assert rep.count == 0
    assert rep.mean is None


def test_segmentation_drops_leftover_points():
    # 85 points -> two 40-point segments, 5 leftover points ignored
    pts = np.column_stack([np.linspace(5, 50, 85), np.full(85, 20.0)])
    pts[50] += np.array([0.0, 3.0])  # bend lands in the second segment
    rep = metrics.stability_score(_one(pts, 85))
    assert rep.count == 2
    assert abs(rep.scores[0] - 1.0) < 1e-12
    assert rep.scores[1] < 1.0


def test_score_invariant_under_rotation_and_shift():
    rng = np.random.default_rng(7)
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    for _ in range(20):
        base = rng.uniform(10, 50, (40, 2)).cumsum(axis=0) / 10.0 + 10.0
        moved = base @ rot.T + np.array([40.0, 17.0])
        da = metrics.stability_score(_one(base, 40, (1000, 1000))).mean
        db = metrics.stability_score(_one(moved, 40, (1000, 1000))).mean
        assert abs(da - db) < 1e-9


def test_ssim_identical_frames_is_exactly_one():
    rng = np.random.default_rng(7)
    img = GrayFrame.from_array(rng.uniform(0, 255, (48, 64)))
    assert metrics.ssim_pair(img, GrayFrame.from_array(img.data.copy())) == 1.0


def test_ssim_constant_black_vs_white():
    z = GrayFrame.from_array(np.zeros((32, 32)))
    f = GrayFrame.from_array(np.full((32, 32), 255.0))
    got = metrics.ssim_pair(z, f)
    c1 = (0.01 * 255.0) ** 2
    assert abs(got - c1 / (255.0 ** 2 + c1)) < 1e-7
    assert got < 0.01


def test_ssim_is_exactly_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = GrayFrame.from_array(rng.uniform(0, 255, (32, 40)))
        y = GrayFrame.from_array(rng.uniform(0, 255, (32, 40)))
        assert metrics.ssim_pair(x, y) == metrics.ssim_pair(y, x)


def test_ssim_input_validation():
    big = GrayFrame.from_array(np.zeros((48, 64)))
    small = GrayFrame.from_array(np.zeros((32, 32)))
    with pytest.raises(ValueError):
        metrics.ssim_pair(big, small)
    tiny = GrayFrame.from_array(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        metrics.ssim_pair(tiny, tiny)


def test_video_ssim_means_consecutive_pairs():
    rng = np.random.default_rng(12)
    img = GrayFrame.from_array(rng.uniform(0, 255, (48, 64)))
    same = GrayFrame.from_array(img.data.copy())
    rep = metrics.video_ssim([img, same, img])
    assert rep.mean == 1.0
    assert rep.pairs == (1.0, 1.0)
    other = GrayFrame.from_array(rng.uniform(0, 255, (48, 64)))
    repm = metrics.video_ssim([img, other, img])
    assert repm.mean == (repm.pairs[0] + repm.pairs[1]) / 2.0
    with pytest.raises(ValueError):
        metrics.video_ssim([img])


def test_video_ssim_pairs_equal_ssim_pair():
    rng = np.random.default_rng(13)
    noise = [GrayFrame.from_array(rng.uniform(0, 255, (40, 52))) for _ in range(5)]
    textured, _ = textured_frames(rng, 64, 48, frame_count=8, max_shift=3)
    for frames in (noise, textured, textured[:2]):
        rep = metrics.video_ssim(frames)
        want = tuple(metrics.ssim_pair(frames[i], frames[i + 1])
                     for i in range(len(frames) - 1))
        assert rep.pairs == want
        assert all(type(v) is float for v in rep.pairs)
        assert type(rep.mean) is float


def test_video_ssim_input_validation():
    rng = np.random.default_rng(14)
    img = GrayFrame.from_array(rng.uniform(0, 255, (48, 64)))
    for frames in ([], [img]):
        with pytest.raises(ValueError, match="at least 2 frames"):
            metrics.video_ssim(frames)
    small = GrayFrame.from_array(rng.uniform(0, 255, (32, 32)))
    with pytest.raises(ValueError, match="sizes differ"):
        metrics.video_ssim([img, img, img, small])
    tiny = GrayFrame.from_array(np.zeros((8, 12)))
    with pytest.raises(ValueError, match="at least 11 px"):
        metrics.video_ssim([tiny, tiny, tiny])


def test_jitter_energy():
    t = np.arange(40, dtype=np.float64)
    line = np.column_stack([5.0 + 0.25 * t, 8.0 + 0.5 * t])
    assert metrics.jitter_energy(_one(line, 40)) == 0.0
    p3 = np.array([[10.0, 10.0], [12.0, 11.0], [10.0, 10.0]])
    d2 = p3[0] - 2.0 * p3[1] + p3[2]
    assert metrics.jitter_energy(_one(p3, 3)) == float(d2 @ d2)
