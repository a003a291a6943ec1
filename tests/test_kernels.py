from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshstab import kernels
from meshstab.kernels import _EDGE_TOL, _SRC_TOL
from meshstab.mesh import build_all_meshes
from meshstab.tracker import TrackerConfig, build_trajectories
from meshstab.trajectory import FeatureTrajectory, TrajectorySet
from meshstab.warp import build_warp_field

from conftest import textured_frames, world_texture


# --- plain-loop references for the vectorized kernels ---


def _corner_loops(gx, gy, radius):
    H, W = gx.shape
    out = np.zeros((H, W))
    for y in range(radius + 1, H - radius - 1):
        for x in range(radius + 1, W - radius - 1):
            sxx = 0.0
            sxy = 0.0
            syy = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    a = gx[y + dy, x + dx]
                    b = gy[y + dy, x + dx]
                    sxx += a * a
                    sxy += a * b
                    syy += b * b
            d = sxx - syy
            out[y, x] = 0.5 * ((sxx + syy) - np.sqrt(d * d + 4.0 * sxy * sxy))
    return out


def _window_grid(radius: int) -> tuple[np.ndarray, np.ndarray]:
    off = np.arange(-radius, radius + 1, dtype=np.float64)
    ox, oy = np.meshgrid(off, off)
    return ox.ravel(), oy.ravel()


def _bilinear_np(img, xs, ys):
    """Per-sample bilinear gather: the sampler the window kernel replaced."""
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    fx = xs - x0
    fy = ys - y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    flat = img.ravel()
    i = y0 * img.shape[1] + x0
    return (flat.take(i) * gx * gy
            + flat.take(i + 1) * fx * gy
            + flat.take(i + img.shape[1]) * gx * fy
            + flat.take(i + img.shape[1] + 1) * fx * fy)


def _lk_loops(prev, nxt, gx, gy, pts, disp, status, radius, max_iter, eps,
              min_eig_thr, strict):
    H, W = prev.shape
    n = pts.shape[0]
    k = 2 * radius + 1
    for i in range(n):
        if status[i] == 0:
            continue
        px = pts[i, 0]
        py = pts[i, 1]
        if (px - radius < 0.0 or px + radius > W - 2.0
                or py - radius < 0.0 or py + radius > H - 2.0):
            if strict != 0:
                status[i] = 0
            continue
        tmpl = np.empty((k, k))
        tgx = np.empty((k, k))
        tgy = np.empty((k, k))
        sxx = 0.0
        sxy = 0.0
        syy = 0.0
        for wy in range(k):
            for wx in range(k):
                sx = px + (wx - radius)
                sy = py + (wy - radius)
                x0 = int(np.floor(sx))
                y0 = int(np.floor(sy))
                fx = sx - x0
                fy = sy - y0
                w00 = (1.0 - fx) * (1.0 - fy)
                w10 = fx * (1.0 - fy)
                w01 = (1.0 - fx) * fy
                w11 = fx * fy
                tmpl[wy, wx] = (prev[y0, x0] * w00 + prev[y0, x0 + 1] * w10
                                + prev[y0 + 1, x0] * w01 + prev[y0 + 1, x0 + 1] * w11)
                a = (gx[y0, x0] * w00 + gx[y0, x0 + 1] * w10
                     + gx[y0 + 1, x0] * w01 + gx[y0 + 1, x0 + 1] * w11)
                b = (gy[y0, x0] * w00 + gy[y0, x0 + 1] * w10
                     + gy[y0 + 1, x0] * w01 + gy[y0 + 1, x0 + 1] * w11)
                tgx[wy, wx] = a
                tgy[wy, wx] = b
                sxx += a * a
                sxy += a * b
                syy += b * b
        dd = sxx - syy
        min_eig = 0.5 * ((sxx + syy) - np.sqrt(dd * dd + 4.0 * sxy * sxy))
        if min_eig / (k * k) < min_eig_thr:
            if strict != 0:
                status[i] = 0
            continue
        det = sxx * syy - sxy * sxy
        if det <= 0.0:
            if strict != 0:
                status[i] = 0
            continue
        dx = disp[i, 0]
        dy = disp[i, 1]
        ok = True
        for _ in range(max_iter):
            qx = px + dx
            qy = py + dy
            if (qx - radius < 0.0 or qx + radius > W - 2.0
                    or qy - radius < 0.0 or qy + radius > H - 2.0):
                ok = False
                break
            b1 = 0.0
            b2 = 0.0
            for wy in range(k):
                for wx in range(k):
                    sx = qx + (wx - radius)
                    sy = qy + (wy - radius)
                    x0 = int(np.floor(sx))
                    y0 = int(np.floor(sy))
                    fx = sx - x0
                    fy = sy - y0
                    w00 = (1.0 - fx) * (1.0 - fy)
                    w10 = fx * (1.0 - fy)
                    w01 = (1.0 - fx) * fy
                    w11 = fx * fy
                    val = (nxt[y0, x0] * w00 + nxt[y0, x0 + 1] * w10
                           + nxt[y0 + 1, x0] * w01 + nxt[y0 + 1, x0 + 1] * w11)
                    diff = tmpl[wy, wx] - val
                    b1 += diff * tgx[wy, wx]
                    b2 += diff * tgy[wy, wx]
            ux = (syy * b1 - sxy * b2) / det
            uy = (sxx * b2 - sxy * b1) / det
            dx += ux
            dy += uy
            if ux * ux + uy * uy < eps * eps:
                break
        if not ok and strict != 0:
            status[i] = 0
            continue
        disp[i, 0] = dx
        disp[i, 1] = dy
    return disp, status


def _raster_loops(src, tris, inv_affines, out, owner):
    H, W = out.shape
    sh, sw = src.shape
    K = tris.shape[0]
    for t in range(K):
        x1 = tris[t, 0, 0]
        y1 = tris[t, 0, 1]
        x2 = tris[t, 1, 0]
        y2 = tris[t, 1, 1]
        x3 = tris[t, 2, 0]
        y3 = tris[t, 2, 1]
        area = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if area > 0.0:
            s = 1.0
        elif area < 0.0:
            s = -1.0
        else:
            continue
        xmin = max(0, int(np.ceil(min(x1, min(x2, x3)) - 1e-9)))
        xmax = min(W - 1, int(np.floor(max(x1, max(x2, x3)) + 1e-9)))
        ymin = max(0, int(np.ceil(min(y1, min(y2, y3)) - 1e-9)))
        ymax = min(H - 1, int(np.floor(max(y1, max(y2, y3)) + 1e-9)))
        a00 = inv_affines[t, 0, 0]
        a01 = inv_affines[t, 0, 1]
        a02 = inv_affines[t, 0, 2]
        a10 = inv_affines[t, 1, 0]
        a11 = inv_affines[t, 1, 1]
        a12 = inv_affines[t, 1, 2]
        for y in range(ymin, ymax + 1):
            for x in range(xmin, xmax + 1):
                if owner[y, x] >= 0:
                    continue
                e1 = s * ((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1))
                if e1 < -_EDGE_TOL:
                    continue
                e2 = s * ((x3 - x2) * (y - y2) - (y3 - y2) * (x - x2))
                if e2 < -_EDGE_TOL:
                    continue
                e3 = s * ((x1 - x3) * (y - y3) - (y1 - y3) * (x - x3))
                if e3 < -_EDGE_TOL:
                    continue
                owner[y, x] = t
                sx = a00 * x + a01 * y + a02
                sy = a10 * x + a11 * y + a12
                if (sx < -_SRC_TOL or sx > sw - 1.0 + _SRC_TOL
                        or sy < -_SRC_TOL or sy > sh - 1.0 + _SRC_TOL):
                    out[y, x] = 0.0
                    continue
                if sx < 0.0:
                    sx = 0.0
                elif sx > sw - 1.0:
                    sx = sw - 1.0
                if sy < 0.0:
                    sy = 0.0
                elif sy > sh - 1.0:
                    sy = sh - 1.0
                x0 = int(np.floor(sx))
                y0 = int(np.floor(sy))
                if x0 > sw - 2:
                    x0 = sw - 2
                if y0 > sh - 2:
                    y0 = sh - 2
                fx = sx - x0
                fy = sy - y0
                out[y, x] = (src[y0, x0] * (1.0 - fx) * (1.0 - fy)
                             + src[y0, x0 + 1] * fx * (1.0 - fy)
                             + src[y0 + 1, x0] * (1.0 - fx) * fy
                             + src[y0 + 1, x0 + 1] * fx * fy)
    return out, owner


def test_gradients_central_difference():
    rng = np.random.default_rng(20)
    img = rng.uniform(0, 255, (12, 17))
    gx, gy = kernels.gradients(img)
    assert np.allclose(gx[:, 1:-1], 0.5 * (img[:, 2:] - img[:, :-2]))
    assert np.allclose(gy[1:-1, :], 0.5 * (img[2:, :] - img[:-2, :]))
    assert np.all(gx[:, 0] == 0.0) and np.all(gx[:, -1] == 0.0)
    assert np.all(gy[0, :] == 0.0) and np.all(gy[-1, :] == 0.0)


def test_corner_backends_agree():
    rng = np.random.default_rng(21)
    img = world_texture(rng, 40, 32)
    gx, gy = kernels.gradients(img)
    ref = _corner_loops(gx, gy, 3)
    alt = kernels._corner_numpy(gx, gy, 3)
    scale = max(np.abs(ref).max(), 1.0)
    assert np.abs(ref - alt).max() <= 1e-9 * scale
    pub = kernels.corner_min_eig(img, 3)
    assert np.abs(pub - ref).max() <= 1e-9 * scale


def _lk_case(rng):
    world = world_texture(rng, 80, 60)
    prev = world[:, :76]
    nxt = world[:, 1:77]  # 1 px shift left in content terms
    gx, gy = kernels.gradients(prev)
    pts = np.array([
        [20.0, 18.0],
        [40.0, 30.0],
        [55.0, 12.0],
        [33.3, 41.7],
        [2.0, 2.0],     # too close to the border
        [60.0, 50.0],
    ])
    flat = prev.copy()
    flat[35:60, 5:30] = 100.0  # no texture around (17, 47)
    return prev, nxt, gx, gy, pts, flat


@pytest.mark.parametrize("strict", [True, False])
def test_lk_backends_agree(strict):
    rng = np.random.default_rng(22)
    prev, nxt, gx, gy, pts, _ = _lk_case(rng)
    args = (prev, nxt, gx, gy)
    kw = dict(radius=7, max_iter=30, eps=0.01, min_eig_thr=1e-4)
    d1 = np.zeros_like(pts)
    s1 = np.ones(len(pts), dtype=np.int64)
    _lk_loops(*args, pts, d1, s1, strict=1 if strict else 0, **kw)
    d2 = np.zeros_like(pts)
    s2 = np.ones(len(pts), dtype=np.int64)
    kernels._lk_numpy(*args, pts, d2, s2, strict=1 if strict else 0, **kw)
    assert np.array_equal(s1, s2)
    assert np.allclose(d1, d2, atol=1e-9)
    # border point must be dropped only in strict mode
    assert s1[4] == (0 if strict else 1)
    # content moved one pixel left, so the tracked flow is (-1, 0)
    good = s1[:4] == 1
    assert good.all()
    assert np.abs(d1[:4, 0] + 1.0).max() <= 0.2
    assert np.abs(d1[:4, 1]).max() <= 0.2


def test_lk_flat_region_drops_point_in_strict_mode():
    rng = np.random.default_rng(23)
    prev, nxt, _, _, _, flat = _lk_case(rng)
    gx, gy = kernels.gradients(flat)
    pts = np.array([[17.0, 47.0]])
    for impl in (_lk_loops, kernels.lk_refine_level):
        disp = np.zeros((1, 2))
        status = np.ones(1, dtype=np.int64)
        impl(flat, nxt, gx, gy, pts, disp, status,
             radius=7, max_iter=30, eps=0.01, min_eig_thr=1e-4, strict=1)
        assert status[0] == 0


@pytest.mark.parametrize("strict", [True, False])
def test_lk_exit_paths_match_oracle(strict):
    rng = np.random.default_rng(25)
    world = world_texture(rng, 80, 60)
    prev = world[:, :76].copy()
    nxt = world[:, 1:77].copy()  # content moves 1 px left
    prev[35:60, 5:30] = 100.0  # no texture around (17, 47)
    nxt[35:60, 4:29] = 100.0
    gx, gy = kernels.gradients(prev)
    pts = np.array([
        [20.0, 18.0],   # 0-2: converge
        [40.0, 30.0],
        [55.0, 12.0],
        [2.0, 2.0],     # 3: starts on the border
        [17.0, 47.0],   # 4: flat texture
        [7.5, 20.0],    # 5: inside, the first step carries it over the left edge
        [40.0, 30.0],   # 6: its initial disp already lies past the left edge
        [50.0, 40.0],   # 7: status 0 on entry
    ])
    disp0 = np.zeros_like(pts)
    disp0[6] = [-35.0, 0.0]
    disp0[7] = [0.3, -0.2]
    status0 = np.ones(len(pts), dtype=np.int64)
    status0[7] = 0
    kw = dict(radius=7, max_iter=30, eps=0.01, min_eig_thr=1e-4)
    d1, s1 = disp0.copy(), status0.copy()
    _lk_loops(prev, nxt, gx, gy, pts, d1, s1, strict=1 if strict else 0, **kw)
    d2, s2 = disp0.copy(), status0.copy()
    kernels.lk_refine_level(prev, nxt, gx, gy, pts, d2, s2, strict=strict, **kw)
    assert np.array_equal(s2, s1)
    assert np.abs(d2 - d1).max() <= 1e-9
    assert np.array_equal(s2[:3], [1, 1, 1])
    assert np.abs(d2[:3] - [-1.0, 0.0]).max() <= 0.2
    if strict:
        assert np.array_equal(s2[3:], [0, 0, 0, 0, 0])
        assert np.array_equal(d2[3:], disp0[3:])
    else:
        assert np.array_equal(s2[3:], status0[3:])
        assert np.array_equal(d2[[3, 4, 6, 7]], disp0[[3, 4, 6, 7]])
        assert d2[5, 0] < -0.5  # the last iterate, past the edge


def _window_samples(img, pts, radius):
    x0, fx = kernels._axis_weights(pts[:, 0], radius)
    y0, fy = kernels._axis_weights(pts[:, 1], radius)
    return kernels._sample(kernels._windows(img, 2 * radius + 1), x0, y0, fx, fy)


def test_window_sampler_matches_per_sample_gather():
    rng = np.random.default_rng(27)
    img = rng.normal(0.0, 40.0, (150, 170))  # signed, like a gradient image
    radius = 10
    below = np.nextafter(121.0, 0.0)
    # px + offset rounds up onto an integer: the sample lies on pixel 131
    assert below + 10 == 131.0 and np.floor(below) == 120.0
    fixed = np.array([[below, 60.0], [40.25, below], [below, below],
                      [10.0, 10.0], [158.0, 138.0], [10.0 + 1e-12, 137.9999999]])
    # fractions next to an integer make more rounding cases
    near = rng.integers(12, 130, (200, 2)) + rng.choice([0.0, 1e-15, 1e-13, 0.5, 1 - 1e-15], (200, 2))
    pts = np.vstack([fixed, rng.uniform(10.0, 137.0, (300, 2)), near])
    ox, oy = _window_grid(radius)
    want = _bilinear_np(img, pts[:, :1] + ox, pts[:, 1:] + oy)
    assert np.array_equal(_window_samples(img, pts, radius), want)


def _lk_run(prev, nxt, pts, status=None, windows=None, strict=True):
    gx, gy = kernels.gradients(prev)
    disp = np.zeros_like(pts)
    status = np.ones(len(pts), dtype=np.uint8) if status is None else status.copy()
    kernels.lk_refine_level(prev, nxt, gx, gy, pts, disp, status, 7, 30, 0.01,
                            1e-4, strict, windows=windows)
    return disp, status


def test_lk_reused_windows_are_bit_identical():
    rng = np.random.default_rng(28)
    world = world_texture(rng, 80, 60)
    prev = world[:, :76].copy()
    nxt = world[:, 1:77].copy()
    stored = rng.uniform([8.0, 8.0], [66.0, 50.0], (30, 2))
    stored[0] = [2.0, 2.0]  # outside: never sampled, so never lent
    store = kernels.Windows()
    _lk_run(prev, nxt, stored, windows=store)
    assert store.img is prev and store.keys.size == 29
    # shuffled survivors, a repeated point, a near miss and new points
    pts = np.vstack([stored[[5, 0, 3, 3, 17]], stored[9] + [1e-12, 0.0],
                     rng.uniform([8.0, 8.0], [66.0, 50.0], (6, 2)), stored[20:]])
    for strict in (True, False):
        want = _lk_run(prev, nxt, pts, strict=strict)
        s = kernels.Windows()
        _lk_run(prev, nxt, stored, windows=s)
        got = _lk_run(prev, nxt, pts, windows=s, strict=strict)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # the store now holds this call's windows
        assert s.keys.size == len(pts) - 1


def test_lk_windows_of_another_image_are_not_lent():
    rng = np.random.default_rng(29)
    world = world_texture(rng, 80, 60)
    prev = world[:, :76].copy()
    nxt = world[:, 1:77].copy()
    pts = rng.uniform([8.0, 8.0], [66.0, 50.0], (12, 2))
    want = _lk_run(prev, nxt, pts)
    store = kernels.Windows()
    _lk_run(prev.copy(), nxt, pts, windows=store)  # equal pixels, other array
    store.tmpl[:] = 0.0  # lending these rows would change the result
    got = _lk_run(prev, nxt, pts, windows=store)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # the same rows sampled from `prev` itself are lent
    _lk_run(prev, nxt, pts, windows=store)
    store.tmpl[:] = 0.0
    assert not np.array_equal(_lk_run(prev, nxt, pts, windows=store)[0], want[0])


def test_lk_batch_equals_one_point_at_a_time():
    # more points than one sampling chunk, so rows cross chunk edges
    rng = np.random.default_rng(31)
    world = world_texture(rng, 80, 60)
    prev = world[:, :76].copy()
    nxt = world[:, 1:77].copy()
    pts = rng.uniform([4.0, 4.0], [70.0, 54.0], (3 * kernels._LK_CHUNK + 5, 2))
    for strict in (True, False):
        disp, st = _lk_run(prev, nxt, pts, strict=strict)
        assert 0 < st.sum() < len(pts) if strict else st.all()
        for i in range(len(pts)):
            d1, s1 = _lk_run(prev, nxt, pts[i:i + 1], strict=strict)
            assert np.array_equal(d1[0], disp[i]) and s1[0] == st[i]


@pytest.mark.parametrize("case", ["no points", "all status 0", "all outside",
                                  "frame smaller than a window"])
@pytest.mark.parametrize("reuse", [False, True])
def test_lk_degenerate_calls(case, reuse):
    rng = np.random.default_rng(30)
    world = world_texture(rng, 80, 60)
    prev = world[:, :76].copy()
    nxt = world[:, 1:77].copy()
    if case == "frame smaller than a window":
        prev = nxt = world[:10, :12].copy()
    pts = {"no points": np.empty((0, 2)),
           "all status 0": rng.uniform([10.0, 10.0], [60.0, 45.0], (4, 2)),
           "all outside": np.array([[2.0, 30.0], [70.0, 30.0], [30.0, 1.0], [30.0, 55.0]]),
           "frame smaller than a window": np.array([[5.0, 5.0], [6.5, 4.0]])}[case]
    status = np.zeros(len(pts), dtype=np.uint8) if case == "all status 0" else None
    store = kernels.Windows() if reuse else None
    for strict in (True, False):
        for _ in range(2):  # the second call meets the store the first one left
            disp, st = _lk_run(prev, nxt, pts, status=status, windows=store, strict=strict)
            assert np.array_equal(disp, np.zeros_like(pts))
            if case in ("all outside", "frame smaller than a window") and strict:
                assert not st.any()
            else:
                assert np.array_equal(st, np.ones(len(pts)) if status is None else status)
    if reuse:
        assert store.keys.size == 0


def test_tracker_matches_loop_oracle(monkeypatch):
    rng = np.random.default_rng(26)
    frames, _ = textured_frames(rng, 64, 48, frame_count=5, max_shift=2)
    cfg = TrackerConfig(window=7, corner_target=40)
    fast = build_trajectories(frames, cfg)

    def loops(prev, nxt, gx, gy, pts, disp, status, radius, max_iter, eps,
              min_eig_thr, strict=True, *, windows=None):
        return _lk_loops(prev, nxt, gx, gy, pts, disp, status, radius,
                         max_iter, eps, min_eig_thr, 1 if strict else 0)

    monkeypatch.setattr(kernels, "lk_refine_level", loops)
    slow = build_trajectories(frames, cfg)
    assert len(fast) > 10
    assert [(t.id, t.start_frame, len(t)) for t in fast.trajectories] == \
        [(t.id, t.start_frame, len(t)) for t in slow.trajectories]
    for a, b in zip(fast.trajectories, slow.trajectories):
        assert np.abs(a.points - b.points).max() <= 1e-9


def test_raster_backends_agree():
    rng = np.random.default_rng(24)
    W, H, T, N = 48, 36, 2, 6
    base = np.column_stack([rng.uniform(8, 40, N), rng.uniform(6, 30, N)])
    ts = TrajectorySet(
        tuple(FeatureTrajectory(id=i, start_frame=0, points=np.tile(base[i], (T, 1)))
              for i in range(N)), T, (W, H))
    meshes = build_all_meshes(ts)
    ctrl = np.array([m.control_points for m in meshes])
    dts = TrajectorySet(
        tuple(FeatureTrajectory(
            id=tr.id, start_frame=tr.start_frame,
            points=np.clip(tr.points + rng.uniform(-2, 2, tr.points.shape),
                           0, [W - 1, H - 1]))
            for tr in ts.trajectories), T, (W, H))
    field = build_warp_field(meshes, dts, ctrl + rng.uniform(-2, 2, ctrl.shape))
    fw = field.frames[0]
    src = rng.uniform(0, 255, (H, W))
    tris_xy = np.ascontiguousarray(fw.dst[fw.triangles])
    inv = np.ascontiguousarray(fw.inverse_affines())
    out1 = np.zeros((H, W))
    own1 = np.full((H, W), -1, dtype=np.int64)
    _raster_loops(src, tris_xy, inv, out1, own1)
    out2 = np.zeros((H, W))
    own2 = np.full((H, W), -1, dtype=np.int64)
    kernels._raster_numpy(src, tris_xy, inv, out2, own2)
    assert np.array_equal(own1, own2)
    assert np.array_equal(out1, out2)
    out3, own3 = kernels.rasterize(src, tris_xy, inv)
    assert own3.dtype == np.int64
    assert np.array_equal(own3, own1)
    assert np.array_equal(out3, out1)


def _identity_affines(k):
    return np.tile(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), (k, 1, 1))


def _raster_matches_oracle(src, tris, inv, shape=None):
    """Rasterize with the kernel and with the loops; both must be equal."""
    tris = np.asarray(tris, dtype=np.float64)
    inv = np.asarray(inv, dtype=np.float64)
    shape = src.shape if shape is None else shape
    out1 = np.zeros(shape)
    own1 = np.full(shape, -1, dtype=np.int64)
    _raster_loops(src, tris, inv, out1, own1)
    if shape == src.shape:
        out2, own2 = kernels.rasterize(src, tris, inv)
    else:
        out2 = np.zeros(shape)
        own2 = np.full(shape, -1, dtype=np.int64)
        kernels._raster_numpy(src, tris, inv, out2, own2)
    assert np.array_equal(own2, own1)
    assert np.array_equal(out2, out1)
    return out2, own2


def test_raster_overlap_lowest_index_wins():
    rng = np.random.default_rng(27)
    src = rng.uniform(10, 255, (20, 24))
    tris = [
        [[2.0, 2.0], [15.0, 3.0], [4.0, 16.0]],
        [[6.0, 5.0], [22.0, 6.0], [8.0, 18.0]],   # overlaps 0
        [[1.0, 1.0], [23.0, 1.0], [1.0, 19.0]],   # covers 0 and most of 1
        [[6.0, 5.0], [22.0, 6.0], [8.0, 18.0]],   # a copy of 1
    ]
    inv = _identity_affines(4)
    inv[:, :, 2] = rng.uniform(-0.5, 0.5, (4, 2))  # a different sample per owner
    _, own = _raster_matches_oracle(src, tris, inv)
    assert own[5, 6] == 0 and own[8, 12] == 1 and own[2, 20] == 2
    assert not (own == 3).any()


def test_raster_flipped_and_zero_area_triangles():
    rng = np.random.default_rng(28)
    src = rng.uniform(10, 255, (18, 22))
    tris = [
        [[3.0, 3.0], [3.0, 14.0], [17.0, 4.0]],    # clockwise: negative area
        [[2.0, 2.0], [10.0, 6.0], [18.0, 10.0]],   # collinear: zero area
        [[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]],      # a point
        [[1.0, 16.0], [20.0, 1.0], [20.0, 16.0]],  # counter-clockwise
        [[0.0, 0.0], [21.0, 0.0], [21.0, 0.0]],    # two equal vertices
    ]
    _, own = _raster_matches_oracle(src, tris, _identity_affines(5))
    assert (own == 0).sum() > 50 and (own == 3).sum() > 50
    assert not np.isin(own, [1, 2, 4]).any()


def test_raster_triangles_outside_the_frame():
    rng = np.random.default_rng(29)
    src = rng.uniform(10, 255, (16, 20))
    tris = [
        [[-30.0, -5.0], [8.0, -20.0], [6.0, 9.0]],     # partly left and above
        [[14.0, 10.0], [45.0, 12.0], [16.0, 40.0]],    # partly right and below
        [[-9.0, 2.0], [-1.0, 3.0], [-4.0, 12.0]],      # wholly left
        [[20.5, 2.0], [30.0, 3.0], [25.0, 9.0]],       # wholly right
        [[2.0, -8.0], [9.0, -0.5], [15.0, -6.0]],      # wholly above
        [[2.0, 15.5], [9.0, 30.0], [15.0, 22.0]],      # wholly below
        [[-50.0, -50.0], [80.0, -50.0], [-50.0, 80.0]],  # covers the frame
    ]
    _, own = _raster_matches_oracle(src, tris, _identity_affines(7))
    assert (own == 0).any() and (own == 1).any() and (own == 6).any()
    assert not np.isin(own, [2, 3, 4, 5]).any()
    assert (own >= 0).all()


def test_raster_samples_outside_src_write_zero():
    rng = np.random.default_rng(30)
    src = rng.uniform(10, 255, (16, 20))
    tris = [[[0.0, 0.0], [19.0, 0.0], [0.0, 15.0]],
            [[19.0, 0.0], [19.0, 15.0], [0.0, 15.0]]]
    inv = _identity_affines(2)
    inv[0, 0, 2] = 6.3     # maps the right of triangle 0 past the src edge
    inv[1, 1, 2] = -4.7    # maps the top of triangle 1 above the src
    out, own = _raster_matches_oracle(src, tris, inv)
    assert (own >= 0).all()
    assert (out == 0.0).sum() > 20 and (out > 0.0).sum() > 100
    # a src one pixel wide or high: the bilinear corner index clamps to -1,
    # which 2-D indexing wraps onto column or row 0
    for shape in ((16, 1), (1, 20), (1, 1)):
        small = rng.uniform(10, 255, shape)
        inv1 = _identity_affines(2)
        inv1[:, :, :2] *= 0.05
        out1, _ = _raster_matches_oracle(small, tris, inv1, shape=(16, 20))
        assert (out1 > 0.0).any()


@pytest.mark.parametrize("chunk", [1, 7, kernels._RASTER_CHUNK])
def test_raster_chunk_edges_keep_the_result(monkeypatch, chunk):
    rng = np.random.default_rng(31)
    H, W = 30, 40
    src = rng.uniform(10, 255, (H, W))
    # boxes of 1 to about 50 pixels, so a chunk of 7 holds one or several
    corners = rng.uniform([0, 0], [W - 7, H - 7], (60, 1, 2))
    small = corners + rng.uniform(0, 1, (60, 3, 2)) * rng.uniform(0.5, 7, (60, 1, 1))
    big = np.array([[[-1.0, -1.0], [2.0 * W, -1.0], [-1.0, 2.0 * H]]])
    tris = np.concatenate([small[:30], big, small[30:]])
    inv = _identity_affines(61)
    inv[:, :, 2] = rng.uniform(-0.3, 0.3, (61, 2))
    monkeypatch.setattr(kernels, "_RASTER_CHUNK", chunk)
    _, own = _raster_matches_oracle(src, tris, inv)
    assert (own == 30).any() and (own < 30).any() and (own >= 0).all()


_coord = st.integers(-24, 72).map(lambda v: v / 4.0)  # quarter pixels hit edges


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    tris=st.lists(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=3),
                  min_size=1, max_size=8),
    shifts=st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
)
def test_raster_random_meshes_match_oracle(tris, shifts):
    src = np.arange(12 * 14, dtype=np.float64).reshape(12, 14) % 251.0
    k = len(tris)
    inv = _identity_affines(k)
    inv[:, :, 2] = np.resize(shifts, (k, 2))
    inv[:, 0, 1] = np.resize(shifts[::-1], k) / 10.0
    _raster_matches_oracle(src, tris, inv)


def test_raster_chunk_bounds_peak_memory():
    # every box is the whole frame, so expanding all 300 at once would take
    # gigabytes; a chunk is one triangle's 76800 pixels
    rng = np.random.default_rng(32)
    H, W = 240, 320
    src = rng.uniform(0, 255, (H, W))
    cover = np.array([[-10.0, -10.0], [3.0 * W, -10.0], [-10.0, 3.0 * H]])
    tris = cover + rng.uniform(-1, 1, (300, 3, 2))
    inv = _identity_affines(300)
    tracemalloc.start()
    try:
        out, own = kernels.rasterize(src, tris, inv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (own == 0).all()
    assert np.array_equal(out, src)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_raster_rejects_non_finite_vertices():
    tris = np.array([[[0.0, 0.0], [np.nan, 1.0], [1.0, 5.0]]])
    with pytest.raises(ValueError):
        kernels.rasterize(np.zeros((6, 6)), tris, _identity_affines(1))
