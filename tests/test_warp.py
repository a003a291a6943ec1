from __future__ import annotations

import numpy as np
import pytest

from meshstab import warp as wp
from meshstab.errors import DegenerateGeometryError, ParseError
from meshstab.frames import GrayFrame
from meshstab.mesh import build_all_meshes
from meshstab.trajectory import FeatureTrajectory, TrajectorySet

W, H, T, N = 64, 48, 4, 7


def _static_set(rng, integer=False):
    if integer:
        base = np.column_stack(
            [rng.integers(10, 54, N), rng.integers(8, 40, N)]
        ).astype(np.float64)
    else:
        base = np.column_stack([rng.uniform(10, 54, N), rng.uniform(8, 40, N)])
    trajs = tuple(
        FeatureTrajectory(id=i, start_frame=0, points=np.tile(base[i], (T, 1)))
        for i in range(N)
    )
    return TrajectorySet(trajs, T, (W, H))


def _shift_set(ts, dx, dy):
    return TrajectorySet(
        tuple(
            FeatureTrajectory(id=tr.id, start_frame=tr.start_frame,
                              points=tr.points + [dx, dy])
            for tr in ts.trajectories
        ), ts.frame_count, ts.frame_size)


def test_triangle_affine_basics():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(
        wp.triangle_affine(src, src),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert np.allclose(
        wp.triangle_affine(src, src + [5.0, -2.0]),
        [[1, 0, 5], [0, 1, -2]], atol=1e-12)
    assert np.allclose(
        wp.triangle_affine(src, 2.0 * src),
        [[2, 0, 0], [0, 2, 0]], atol=1e-12)
    flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegenerateGeometryError):
        wp.triangle_affine(flat, src)


def test_identity_render_is_bit_exact():
    rng = np.random.default_rng(3)
    ts = _static_set(rng)
    meshes = build_all_meshes(ts)
    ctrl = np.array([m.control_points for m in meshes])
    field = wp.build_warp_field(meshes, ts, ctrl)
    for fw in field.frames:
        assert len(fw.flipped) == 0
    img = GrayFrame.from_array(rng.integers(0, 256, (H, W)).astype(np.float64))
    out, miss = wp.render(img, field.frames[0])
    assert miss == 0
    assert np.array_equal(out.data, img.data)
    assert wp.common_crop(field) == (0, 0, W, H)


def test_translation_render_shifts_and_zeroes_strips():
    rng = np.random.default_rng(3)
    ts = _static_set(rng)
    meshes = build_all_meshes(ts)
    ctrl = np.array([m.control_points for m in meshes])
    img = GrayFrame.from_array(rng.integers(0, 256, (H, W)).astype(np.float64))
    field = wp.build_warp_field(
        meshes, _shift_set(ts, 2.0, 1.0), ctrl + np.array([2.0, 1.0]))
    out, miss = wp.render(img, field.frames[0])
    # pixel (x, y) with x >= 2, y >= 1 samples the source at (x-2, y-1);
    # the affine coefficients carry a little solver round-off
    assert np.allclose(out.data[1:, 2:], img.data[:-1, :-2], atol=1e-9)
    assert np.all(out.data[0, :] == 0.0)
    assert np.all(out.data[:, :2] == 0.0)
    assert miss == 2 * H + W - 2


def test_integer_translation_is_bit_exact():
    rng = np.random.default_rng(4)
    ts = _static_set(rng, integer=True)
    meshes = build_all_meshes(ts)
    ctrl = np.array([m.control_points for m in meshes])
    img = GrayFrame.from_array(rng.integers(0, 256, (H, W)).astype(np.float64))
    field = wp.build_warp_field(
        meshes, _shift_set(ts, 3.0, 0.0), ctrl + np.array([3.0, 0.0]))
    out, _ = wp.render(img, field.frames[0])
    assert np.array_equal(out.data[:, 3:], img.data[:, :-3])
    assert np.all(out.data[:, :3] == 0.0)


def test_crop_shrinks_under_alternating_shift():
    rng = np.random.default_rng(5)
    ts = _static_set(rng)
    two = TrajectorySet(
        tuple(FeatureTrajectory(id=tr.id, start_frame=0,
                                points=tr.points[:2].copy())
              for tr in ts.trajectories), 2, (W, H))
    meshes = build_all_meshes(two)
    fields = []
    for sgn in (1.0, -1.0):
        c = np.array([m.control_points for m in meshes]) + np.array([3.0 * sgn, 0.0])
        fields.append(wp.build_warp_field(meshes, _shift_set(two, 3.0 * sgn, 0.0), c))
    both = wp.WarpField(frame_size=(W, H), n_controls=fields[0].n_controls,
                        frames=fields[0].frames + fields[1].frames)
    rect = wp.common_crop(both)
    assert rect[0] >= 3
    assert rect[2] <= W - 6
    assert rect[1] >= 0 and rect[1] + rect[3] <= H


def _deformed_field(rng):
    ts = _static_set(rng)
    meshes = build_all_meshes(ts)
    ctrl = np.array([m.control_points for m in meshes])
    dts = TrajectorySet(
        tuple(
            FeatureTrajectory(
                id=tr.id, start_frame=tr.start_frame,
                points=np.clip(tr.points + rng.uniform(-2, 2, tr.points.shape),
                               0, [W - 1, H - 1]))
            for tr in ts.trajectories
        ), T, (W, H))
    return meshes, wp.build_warp_field(meshes, dts, ctrl + rng.uniform(-2, 2, ctrl.shape))


def test_affines_hit_vertices_exactly():
    rng = np.random.default_rng(6)
    _, field = _deformed_field(rng)
    worst = 0.0
    for fw in field.frames:
        for k, tri in enumerate(fw.triangles):
            for v in tri:
                p = fw.affines[k, :, :2] @ fw.src[v] + fw.affines[k, :, 2]
                worst = max(worst, float(np.abs(p - fw.dst[v]).max()))
    assert worst <= 1e-9


def test_adjacent_triangle_maps_agree_on_shared_edge():
    rng = np.random.default_rng(7)
    meshes, field = _deformed_field(rng)
    mesh, fw = meshes[0], field.frames[0]
    pts = mesh.points
    ties = np.linspace(0, 1, 100)[:, None]
    for i, j, (u, v) in mesh.adjacency:
        seg = pts[u][None, :] * (1 - ties) + pts[v][None, :] * ties
        ai, aj = fw.affines[i], fw.affines[j]
        pi = seg @ ai[:, :2].T + ai[:, 2]
        pj = seg @ aj[:, :2].T + aj[:, 2]
        assert np.abs(pi - pj).max() <= 1e-9


def test_warpfield_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    _, field = _deformed_field(rng)
    path = tmp_path / "wf.txt"
    wp.save_warpfield(field, path)
    loaded = wp.load_warpfield(path)
    assert loaded.frame_size == field.frame_size
    assert loaded.n_controls == field.n_controls
    for fa, fb in zip(field.frames, loaded.frames):
        assert np.array_equal(fa.triangles, fb.triangles)
        assert np.array_equal(fa.src, fb.src)
        assert np.array_equal(fa.dst, fb.dst)
        assert np.array_equal(fa.affines, fb.affines)
        assert np.array_equal(fa.flipped, fb.flipped)


def test_flipped_triangles_are_flagged():
    rng = np.random.default_rng(9)
    _, field = _deformed_field(rng)
    fw = field.frames[0]
    dst_flip = fw.dst.copy()
    dst_flip[0] = [1.0, 1.0]  # drag one vertex across the frame
    flags = wp._flagged_triangles(fw.src, dst_flip, fw.triangles)
    assert len(flags) > 0


@pytest.mark.parametrize(
    "text,frag",
    [
        ("3 4\n", "header"),
        ("a 64 48\n", "non-integer"),
        ("1 64 48\n", "end of file"),
        ("1 64 48\n1 3 0\n1 0 0 0 1 0 0 1\n", "coefficients"),
        ("1 64 48\n1 3 0\n1 0 0 0 1 0 0 1 5\n", "out of range"),
        ("-2 320 240\n", "line 1: negative frame count"),
        ("1 -5 0\n", "line 1: frame size"),
        ("1 1 48\n", "line 1: frame size"),
        ("1 64 48\n-1 0 0\n", "line 2: negative count"),
        ("1 64 48\n0 0 -1\n", "line 2: negative count"),
        ("1 64 48\n1000000000000 3 0\n", "end of file"),
        ("1 64 48\n1 3 0\n1 0 0 0 1 0 0 1 99999999999999999999\n", "line 3: .* out of range"),
    ],
)
def test_warpfield_parse_errors(tmp_path, text, frag):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=frag):
        wp.load_warpfield(path)


def test_warpfield_rejects_trailing_content(tmp_path):
    rng = np.random.default_rng(10)
    _, field = _deformed_field(rng)
    path = tmp_path / "wf.txt"
    wp.save_warpfield(field, path)
    path.write_text(path.read_text(encoding="utf-8") + "junk\n", encoding="utf-8")
    with pytest.raises(ParseError, match="trailing"):
        wp.load_warpfield(path)


def nudge_affine(path, frame, tri):
    """Shift one stored translation coefficient by 1e-6 px in a saved warp
    field; returns the 1-based line number of the edited triangle line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    ln = 1
    for _ in range(frame):
        ntri, nvert, _ = (int(v) for v in lines[ln].split())
        ln += 1 + ntri + nvert
    ln += 2 + tri
    parts = lines[ln - 1].split()
    parts[2] = repr(float(parts[2]) + 1e-6)
    lines[ln - 1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ln


def test_warpfield_rejects_affine_off_its_vertices(tmp_path):
    rng = np.random.default_rng(11)
    _, field = _deformed_field(rng)
    path = tmp_path / "wf.txt"
    wp.save_warpfield(field, path)
    ln = nudge_affine(path, frame=2, tri=3)
    with pytest.raises(ParseError, match=f"line {ln}: triangle affine"):
        wp.load_warpfield(path)


def test_apply_crop_bounds():
    img = GrayFrame.from_array(np.zeros((H, W)))
    got = wp.apply_crop(img, (4, 2, 10, 8))
    assert (got.height, got.width) == (8, 10)
    with pytest.raises(ValueError, match="crop"):
        wp.apply_crop(img, (60, 0, 10, 8))
