from __future__ import annotations

import logging
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshstab import warp as wp
from meshstab.errors import DegenerateGeometryError, ParseError, read_text
from meshstab.frames import GrayFrame
from meshstab.mesh import build_all_meshes, make_control_points
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


def test_warp_field_affines_equal_triangle_affine():
    # build_warp_field solves a frame's triangles in one batch; the
    # per-triangle triangle_affine is the reference, bit for bit
    rng = np.random.default_rng(7)
    ts = _static_set(rng)
    meshes = build_all_meshes(ts)
    ctrl = np.array([m.control_points for m in meshes])
    some_moved = TrajectorySet(tuple(
        FeatureTrajectory(id=tr.id, start_frame=0,
                          points=tr.points + (tr.id % 3 == 0) * rng.uniform(-2, 2, (T, 2)))
        for tr in ts.trajectories), T, (W, H))
    fields = [
        wp.build_warp_field(meshes, ts, ctrl),
        wp.build_warp_field(meshes, _shift_set(ts, 1.25, -0.5), ctrl + [1.25, -0.5]),
        wp.build_warp_field(meshes, some_moved, ctrl),
        _deformed_field(rng)[1],
    ]
    for field in fields:
        for fw in field.frames:
            ref = np.array([wp.triangle_affine(fw.src[tri], fw.dst[tri])
                            for tri in fw.triangles])
            assert np.array_equal(fw.affines, ref)
    identity = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert all((fw.affines == identity).all() for fw in fields[0].frames)
    assert all((fw.affines[:, :, :2] == identity[:, :2]).all() for fw in fields[1].frames)
    mixed = fields[2].frames[0].affines
    assert 0 < (mixed == identity).all(axis=(1, 2)).sum() < len(mixed)

    # a collinear triangle raises once it moves, as triangle_affine does
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 3, 4]])
    assert np.array_equal(wp._triangle_affines(pts, pts + [3.0, 1.0], tris),
                          [wp.triangle_affine(pts[t], pts[t] + [3.0, 1.0]) for t in tris])
    with pytest.raises(DegenerateGeometryError, match="degenerate"):
        wp._triangle_affines(pts, 2.0 * pts, tris)


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
        ("1 64 48\n0 2 2\n0 0 0 0\n1 1 1 1\n", "line 2: .*at least 3 controls"),
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


# --- the line-by-line warp-field writer and parser, kept as the oracle ---


def _save_warpfield_lines(field, path):
    w, h = field.frame_size
    lines = [f"{len(field.frames)} {w} {h}"]
    for fw in field.frames:
        lines.append(
            f"{fw.triangles.shape[0]} {fw.src.shape[0]} {field.n_controls}"
        )
        for a, tri in zip(fw.affines, fw.triangles):
            coefs = " ".join(repr(float(v)) for v in a.ravel())
            lines.append(f"{coefs} {tri[0]} {tri[1]} {tri[2]}")
        for o, s in zip(fw.src, fw.dst):
            lines.append(
                f"{float(o[0])!r} {float(o[1])!r} "
                f"{float(s[0])!r} {float(s[1])!r}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_warpfield_lines(path):
    text = read_text(path)
    lines = text.splitlines()
    pos = 0

    def take():
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise ParseError("unexpected end of file", line=len(lines))
        pos += 1
        return pos, lines[pos - 1].split()

    ln, head = take()
    if len(head) != 3:
        raise ParseError("header must be '<frames> <width> <height>'", line=ln)
    try:
        count, w, h = (int(v) for v in head)
    except ValueError:
        raise ParseError("non-integer header field", line=ln) from None
    if count < 0:
        raise ParseError(f"negative frame count {count}", line=ln)
    if w < 2 or h < 2:
        raise ParseError(f"frame size must be at least 2x2, got {w}x{h}", line=ln)
    n_controls = None
    frames = []
    for _ in range(count):
        ln, head = take()
        head_ln = ln
        if len(head) != 3:
            raise ParseError(
                "frame header must be '<triangles> <vertices> <controls>'", line=ln
            )
        try:
            ntri, nvert, nc = (int(v) for v in head)
        except ValueError:
            raise ParseError("non-integer frame header field", line=ln) from None
        if min(ntri, nvert, nc) < 0:
            raise ParseError("negative count in frame header", line=ln)
        if n_controls is None:
            n_controls = nc
        elif nc != n_controls:
            raise ParseError(
                f"inconsistent control count {nc} (expected {n_controls})", line=ln
            )
        if nvert < nc:
            raise ParseError(f"fewer vertices ({nvert}) than controls ({nc})", line=ln)
        coefs, corners, tri_lines = [], [], []
        for _ in range(ntri):
            ln, parts = take()
            if len(parts) != 9:
                raise ParseError("triangle line needs 6 coefficients + 3 indices", line=ln)
            try:
                coefs.append([float(v) for v in parts[:6]])
                corners.append([int(v) for v in parts[6:]])
            except ValueError:
                raise ParseError("malformed triangle line", line=ln) from None
            if not all(0 <= v < nvert for v in corners[-1]):
                raise ParseError(
                    f"triangle vertex index out of range [0, {nvert - 1}]", line=ln
                )
            tri_lines.append(ln)
        affines = np.array(coefs, dtype=np.float64).reshape(ntri, 2, 3)
        tris = np.array(corners, dtype=np.int64).reshape(ntri, 3)
        verts = []
        for _ in range(nvert):
            ln, parts = take()
            if len(parts) != 4:
                raise ParseError("vertex line needs 'ox oy sx sy'", line=ln)
            try:
                verts.append([float(v) for v in parts])
            except ValueError:
                raise ParseError("malformed vertex line", line=ln) from None
        verts = np.array(verts, dtype=np.float64).reshape(nvert, 4)
        if nc < 3:
            raise ParseError(f"a frame needs at least 3 controls, got {nc}", line=head_ln)
        src = np.ascontiguousarray(verts[:, :2])
        dst = np.ascontiguousarray(verts[:, 2:])
        hit = (np.einsum("kij,kvj->kvi", affines[:, :, :2], src[tris])
               + affines[:, None, :, 2])
        off = np.nonzero(~(np.abs(hit - dst[tris]).max(axis=(1, 2)) <= wp._AFFINE_TOL))[0]
        if off.size:
            raise ParseError(
                "triangle affine does not map its src vertices onto dst",
                line=tri_lines[off[0]],
            )
        frames.append(wp.FrameWarp(triangles=tris, src=src, dst=dst, affines=affines,
                                   flipped=wp._flagged_triangles(src, dst, tris)))
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos != len(lines):
        raise ParseError("trailing content after last frame", line=pos + 1)
    return wp.WarpField(frame_size=(w, h),
                        n_controls=0 if n_controls is None else n_controls,
                        frames=tuple(frames))


def _load_outcome(load, path):
    """The loaded field, or the error's type, message and line."""
    try:
        return load(path)
    except Exception as exc:  # noqa: BLE001 - any error must match the oracle's
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.frame_size, got.n_controls, len(got)) == \
        (want.frame_size, want.n_controls, len(want))
    for a, b in zip(got.frames, want.frames):
        for name in ("triangles", "src", "dst", "affines", "flipped"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f")


def _oracle_field(seed):
    rng = np.random.default_rng(seed)
    _, field = _deformed_field(rng)
    return field


@pytest.mark.parametrize("seed", [12, 13])
def test_save_warpfield_matches_line_by_line_writer(tmp_path, seed):
    field = _oracle_field(seed)
    # signed zeros, repr's shortest digits and integers stored as floats
    fw = field.frames[1]
    aff = fw.affines.copy()
    aff[0] = [[-0.0, 0.1, 1e-300], [2.0 / 3.0, 1e16, -123456.789]]
    field = wp.WarpField(field.frame_size, field.n_controls, (
        field.frames[0],
        wp.FrameWarp(fw.triangles, fw.src, fw.dst, aff, fw.flipped),
        *field.frames[2:],
        wp.FrameWarp(np.zeros((0, 3), np.int64), np.zeros((0, 2)), np.zeros((0, 2)),
                     np.zeros((0, 2, 3)), np.zeros(0, np.int64)),
    ))
    wp.save_warpfield(field, tmp_path / "new.warp")
    _save_warpfield_lines(field, tmp_path / "old.warp")
    assert (tmp_path / "new.warp").read_bytes() == (tmp_path / "old.warp").read_bytes()


def test_load_warpfield_matches_line_by_line_parser_line_by_line(tmp_path):
    """Whitespace-only lines are skipped.  A file cut after any line, with a
    line appended, or with a malformed token on any line fails with the
    oracle's error at the oracle's line."""
    path = tmp_path / "wf.warp"
    wp.save_warpfield(_oracle_field(14), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for text in (lines, ["", *lines[:5], "  \t", *lines[5:40], "", *lines[40:], " "]):
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        got = _load_outcome(wp.load_warpfield, path)
        assert isinstance(got, wp.WarpField)
        _assert_same_outcome(got, _load_outcome(_load_warpfield_lines, path))
        bad = [[*text, "junk"]]
        for k, line in enumerate(text):
            bad.append(text[:k])
            parts = line.split() or ["x"]
            parts[k % len(parts)] = "x"
            bad.append([*text[:k], " ".join(parts), *text[k + 1:]])
        for cut in bad:
            path.write_text("\n".join(cut) + "\n", encoding="utf-8")
            _assert_same_outcome(_load_outcome(wp.load_warpfield, path),
                                 _load_outcome(_load_warpfield_lines, path))


def test_load_warpfield_holds_one_block_of_tokens_at_a_time(tmp_path):
    """Splitting every line of the file up front peaks at about nine times
    the file's size; a frame's block at a time peaks under three times."""
    field = _oracle_field(16)
    field = wp.WarpField(field.frame_size, field.n_controls, field.frames * 15)
    path = tmp_path / "wf.warp"
    wp.save_warpfield(field, path)
    tracemalloc.start()
    try:
        wp.load_warpfield(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * path.stat().st_size


@pytest.fixture(scope="module")
def oracle_lines(tmp_path_factory):
    """Three frames of a saved field: 277 lines, parsed in about a millisecond."""
    field = _oracle_field(15)
    path = tmp_path_factory.mktemp("oracle") / "wf.warp"
    wp.save_warpfield(wp.WarpField(field.frame_size, field.n_controls, field.frames[:3]), path)
    return path.read_text(encoding="utf-8").splitlines()


_BAD_TOKENS = ["0", "-1", "1", "2", "3", "3.0", "nan", "inf", "-inf", "1e309", "x", "",
               "99999999999999999999", "1_0", "0x1", "--1", "1e-400", "1.2.3", "+-1", "1e"]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(op=st.sampled_from(["set_tok", "shift_int", "del_tok", "dup_tok", "del_line",
                           "dup_line", "swap_lines", "junk_line"]),
       rnd=st.randoms(), token=st.sampled_from(_BAD_TOKENS), shift=st.sampled_from([-2, -1, 1, 2]),
       blank=st.booleans())
def test_load_warpfield_matches_line_by_line_parser_on_corrupt_files(oracle_lines, op, rnd,
                                                                     token, shift, blank):
    """One token or one line of a saved field is corrupted; the parser gives
    the oracle's field, or the oracle's error at the oracle's line.  A
    whitespace-only line may be inserted too, which shifts the line numbers."""
    lines = [ln.split() for ln in oracle_lines]
    if blank:
        lines.insert(rnd.randrange(len(lines) + 1), [])
    # hypothesis draws integers biased toward 0; a seeded Random spreads the
    # edits over the file, with one in three on a header line
    heads = [i for i, p in enumerate(lines) if len(p) == 3]
    i = rnd.choice(heads) if rnd.random() < 1 / 3 else rnd.randrange(len(lines))
    parts = lines[i]
    j = rnd.randrange(len(parts))
    if op == "set_tok":
        parts[j] = token
    elif op == "shift_int":
        ints = [k for k, v in enumerate(parts) if v.lstrip("-").isdigit()]
        if ints:
            k = rnd.choice(ints)
            parts[k] = str(int(parts[k]) + shift)
    elif op == "del_tok":
        del parts[j]
    elif op == "dup_tok":
        parts.insert(j, parts[j])
    elif op == "del_line":
        del lines[i]
    elif op == "dup_line":
        lines.insert(i, list(parts))
    elif op == "swap_lines":
        lines[i:i + 2] = lines[i:i + 2][::-1]
    else:
        lines.insert(i, ["junk"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wf.warp"
        path.write_text("\n".join(" ".join(p) for p in lines) + "\n", encoding="utf-8")
        _assert_same_outcome(_load_outcome(wp.load_warpfield, path),
                             _load_outcome(_load_warpfield_lines, path))


def test_apply_crop_bounds():
    img = GrayFrame.from_array(np.zeros((H, W)))
    got = wp.apply_crop(img, (4, 2, 10, 8))
    assert (got.height, got.width) == (8, 10)
    with pytest.raises(ValueError, match="crop"):
        wp.apply_crop(img, (60, 0, 10, 8))


# --- common crop against a bisection of the same containment test ---


def _orient2(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_cross_properly(p, q, r, s) -> bool:
    o1 = _orient2(*p, *q, *r)
    o2 = _orient2(*p, *q, *s)
    o3 = _orient2(*r, *s, *p)
    o4 = _orient2(*r, *s, *q)
    return (o1 * o2 < 0.0) and (o3 * o4 < 0.0)


def _rect_inside_polygon(rect: tuple[float, float, float, float], poly: np.ndarray) -> bool:
    x0, y0, x1, y1 = rect
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    if not wp._points_in_polygon(corners, poly).all():
        return False
    edges = [
        ((x0, y0), (x1, y0)),
        ((x1, y0), (x1, y1)),
        ((x1, y1), (x0, y1)),
        ((x0, y1), (x0, y0)),
    ]
    n = poly.shape[0]
    for k in range(n):
        r = tuple(poly[k])
        s = tuple(poly[(k + 1) % n])
        for p, q in edges:
            if _segments_cross_properly(p, q, r, s):
                return False
    return True


def _bisection_crop(field: wp.WarpField) -> tuple[int, int, int, int]:
    """Reference common_crop: bisect the crop scale, testing every ring edge."""
    w, h = field.frame_size
    full = (0, 0, w, h)
    if not field.frames:
        return full
    polys = [fw.dst[-field.n_controls:] for fw in field.frames]
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0

    def fits(scale: float) -> bool:
        hw = scale * (w - 1) / 2.0
        hh = scale * (h - 1) / 2.0
        rect = (
            cx - hw + wp._CROP_EPS,
            cy - hh + wp._CROP_EPS,
            cx + hw - wp._CROP_EPS,
            cy + hh - wp._CROP_EPS,
        )
        return all(_rect_inside_polygon(rect, p) for p in polys)

    if not fits(0.0):
        return full
    if fits(1.0):
        return full
    lo, hi = 0.0, 1.0
    for _ in range(wp.CROP_SEARCH_ITERS):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    hw = lo * (w - 1) / 2.0
    hh = lo * (h - 1) / 2.0
    x0 = max(0, int(np.ceil(cx - hw - wp._CROP_EPS)))
    y0 = max(0, int(np.ceil(cy - hh - wp._CROP_EPS)))
    x1 = min(w - 1, int(np.floor(cx + hw + wp._CROP_EPS)))
    y1 = min(h - 1, int(np.floor(cy + hh + wp._CROP_EPS)))
    if x1 < x0 or y1 < y0:
        return full
    return (x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def _ring_field(size, rings):
    """A warp field whose frames hold only their stabilized border rings."""
    frames = tuple(
        wp.FrameWarp(triangles=np.zeros((0, 3), dtype=np.int64), src=r, dst=r,
                     affines=np.zeros((0, 2, 3)), flipped=np.zeros(0, dtype=np.int64))
        for r in rings)
    return wp.WarpField(frame_size=size, n_controls=len(rings[0]), frames=frames)


def _scaled_ring(size, k, per_edge=10):
    """The control ring scaled by k about the frame center."""
    c = (np.array(size) - 1.0) / 2.0
    return c + k * (make_control_points(*size, per_edge) - c)


def _corner_ring(size):
    # the top-left corner pulled in along the crop's corner diagonal
    ring = _scaled_ring(size, 1.0)
    ring[0] = _scaled_ring(size, 0.6)[0]
    return ring


def _flipped_ring(size):
    # two vertices traded across the top-right corner: the ring crosses itself
    ring = _scaled_ring(size, 0.9)
    ring[[7, 10]] = ring[[10, 7]]
    return ring


SIZES = [(64, 48), (81, 61), (160, 120), (320, 240)]
_CROP_CASES = (
    [(f"identity-{w}x{h}", (w, h), [_scaled_ring((w, h), 1.0)], True) for w, h in SIZES]
    + [(f"scaled{k}-{w}x{h}", (w, h), [_scaled_ring((w, h), k)], False)
       for k in (0.3, 0.5, 0.75, 0.999) for w, h in SIZES]
    # just below a grid point, within the _CROP_EPS shrink: the bisection
    # still accepts the grid point
    + [(f"below-grid{k}-{w}x{h}", (w, h), [_scaled_ring((w, h), k)], k > 0.9)
       for k in (0.75 - 1e-11, 1.0 - 1e-12) for w, h in SIZES]
    # every edge parallel to a diagonal, where the kink lies between vertices
    + [(f"diamond-{w}x{h}", (w, h), [make_control_points(w, h, 3)[1::2]], False)
       for w, h in SIZES]
    + [(f"corner-{w}x{h}", (w, h), [_corner_ring((w, h))], False) for w, h in SIZES]
    + [(f"flipped-{w}x{h}", (w, h), [_scaled_ring((w, h), 0.95), _flipped_ring((w, h))], False)
       for w, h in SIZES]
    # the crop rounds to no pixel of an even-sized frame: keep the full frame
    + [("no-pixel-64x48", (64, 48), [_scaled_ring((64, 48), 0.005)], True)]
)


@pytest.mark.parametrize("size, rings, full", [c[1:] for c in _CROP_CASES],
                         ids=[c[0] for c in _CROP_CASES])
def test_common_crop_matches_bisection(size, rings, full):
    field = _ring_field(size, rings)
    rect = wp.common_crop(field)
    assert rect == _bisection_crop(field)
    assert (rect == (0, 0, *size)) == full


def test_common_crop_cut_corner_minimum_between_vertices():
    # the top-left corner cut by u + v = -L: the least shrunk L-inf value on
    # that edge, (L + ea + eb)/2, lies between its vertices and just below 3/4
    a, b = 40.0, 30.0
    ea, eb = wp._CROP_EPS / a, wp._CROP_EPS / b
    cut = 1.5 - 1.5 * eb - 0.5 * ea
    uv = np.array([[-0.9, 0.9 - cut], [0.9 - cut, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])
    field = _ring_field((81, 61), [np.array([a, b]) * (1.0 + uv)])
    assert wp.common_crop(field) == _bisection_crop(field) == (11, 8, 59, 45)


def test_common_crop_exposed_center_warns_and_keeps_full_frame(caplog):
    outside = _scaled_ring((64, 48), 0.5) + [40.0, 0.0]
    field = _ring_field((64, 48), [_scaled_ring((64, 48), 0.9), outside])
    with caplog.at_level(logging.WARNING, logger="meshstab.warp"):
        assert wp.common_crop(field) == (0, 0, 64, 48)
    assert "no common interior" in caplog.text
    assert _bisection_crop(field) == (0, 0, 64, 48)


def test_common_crop_empty_field_is_full_frame():
    field = wp.WarpField(frame_size=(64, 48), n_controls=36, frames=())
    assert wp.common_crop(field) == _bisection_crop(field) == (0, 0, 64, 48)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(size=st.sampled_from(SIZES), frames=st.integers(1, 4),
       per_edge=st.integers(2, 6), spread=st.sampled_from([0.5, 2.0, 6.0]),
       flips=st.lists(st.integers(0, 16), max_size=2), seed=st.integers(0, 2**32 - 1))
def test_common_crop_matches_bisection_on_perturbed_rings(size, frames, per_edge, spread,
                                                          flips, seed):
    rng = np.random.default_rng(seed)
    rings = []
    for _ in range(frames):
        ring = _scaled_ring(size, 1.0, per_edge) + rng.normal(0.0, spread, (4 * per_edge - 4, 2))
        for j in flips:
            j %= len(ring) - 2
            ring[[j, j + 2]] = ring[[j + 2, j]]
        rings.append(ring)
    field = _ring_field(size, rings)
    assert wp.common_crop(field) == _bisection_crop(field)
