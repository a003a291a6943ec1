from __future__ import annotations

import numpy as np
import pytest

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


def test_tracker_matches_loop_oracle(monkeypatch):
    rng = np.random.default_rng(26)
    frames, _ = textured_frames(rng, 64, 48, frame_count=5, max_shift=2)
    cfg = TrackerConfig(window=7, corner_target=40)
    fast = build_trajectories(frames, cfg)

    def loops(prev, nxt, gx, gy, pts, disp, status, radius, max_iter, eps,
              min_eig_thr, strict=True):
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
    assert np.allclose(out1, out2, atol=1e-12)
    out3, own3 = kernels.rasterize(src, tris_xy, inv)
    assert np.array_equal(own3, own1)
    assert np.allclose(out3, out1, atol=1e-12)
