"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

Three inner loops dominate the pipeline's runtime: the corner response map,
the per-point iterative flow refinement, and the per-pixel mesh render.
Each exists twice here: a loop-style implementation compiled with
``numba.njit`` when available, and a vectorized numpy implementation.

Backend selection: the environment variable ``MESHSTAB_NUMBA`` picks the
path at import time.  Unset or truthy -> numba (if importable), ``0`` /
``off`` / ``false`` -> pure numpy.  ``BACKEND`` reports the active choice.
``benchmarks/bench_kernels.py`` times one against the other.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "BACKEND",
    "HAS_NUMBA",
    "corner_min_eig",
    "lk_refine_level",
    "rasterize",
]

_env = os.environ.get("MESHSTAB_NUMBA", "").strip().lower()
_want_numba = _env not in ("0", "off", "false", "no")

if _want_numba:
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:  # numba is the optional [numba] extra
        HAS_NUMBA = False
else:
    HAS_NUMBA = False

BACKEND = "numba" if HAS_NUMBA else "numpy"


def gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients; the one-pixel border stays zero."""
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, 1:-1] = 0.5 * (img[:, 2:] - img[:, :-2])
    gy[1:-1, :] = 0.5 * (img[2:, :] - img[:-2, :])
    return gx, gy


# --- corner response (minimum eigenvalue of the 7x7 structure tensor) ---


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


def _box_sum(a: np.ndarray, radius: int) -> np.ndarray:
    """Windowed sum over (2r+1)^2 blocks; only interior centers are valid."""
    k = 2 * radius + 1
    H, W = a.shape
    cs = np.zeros((H + 1, W))
    np.cumsum(a, axis=0, out=cs[1:])
    vert = cs[k:] - cs[:-k]  # (H-k+1, W); row i holds rows i..i+k-1
    cs2 = np.zeros((vert.shape[0], W + 1))
    np.cumsum(vert, axis=1, out=cs2[:, 1:])
    block = cs2[:, k:] - cs2[:, :-k]  # (H-k+1, W-k+1)
    out = np.zeros((H, W))
    out[radius : H - radius, radius : W - radius] = block
    return out


def _corner_numpy(gx, gy, radius):
    sxx = _box_sum(gx * gx, radius)
    sxy = _box_sum(gx * gy, radius)
    syy = _box_sum(gy * gy, radius)
    d = sxx - syy
    resp = 0.5 * ((sxx + syy) - np.sqrt(d * d + 4.0 * sxy * sxy))
    out = np.zeros_like(resp)
    H, W = resp.shape
    lo = radius + 1
    out[lo : H - radius - 1, lo : W - radius - 1] = resp[lo : H - radius - 1, lo : W - radius - 1]
    return out


# --- iterative translational flow refinement at one pyramid level ---


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


def _window_grid(radius: int) -> tuple[np.ndarray, np.ndarray]:
    off = np.arange(-radius, radius + 1, dtype=np.float64)
    ox, oy = np.meshgrid(off, off)
    return ox.ravel(), oy.ravel()


def _bilinear_np(img, xs, ys):
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    fx = xs - x0
    fy = ys - y0
    return (img[y0, x0] * (1.0 - fx) * (1.0 - fy)
            + img[y0, x0 + 1] * fx * (1.0 - fy)
            + img[y0 + 1, x0] * (1.0 - fx) * fy
            + img[y0 + 1, x0 + 1] * fx * fy)


def _lk_numpy(prev, nxt, gx, gy, pts, disp, status, radius, max_iter, eps,
              min_eig_thr, strict):
    H, W = prev.shape
    k = 2 * radius + 1
    ox, oy = _window_grid(radius)
    for i in range(pts.shape[0]):
        if status[i] == 0:
            continue
        px, py = pts[i]
        if (px - radius < 0.0 or px + radius > W - 2.0
                or py - radius < 0.0 or py + radius > H - 2.0):
            if strict != 0:
                status[i] = 0
            continue
        xs = px + ox
        ys = py + oy
        tmpl = _bilinear_np(prev, xs, ys)
        tgx = _bilinear_np(gx, xs, ys)
        tgy = _bilinear_np(gy, xs, ys)
        sxx = float(np.dot(tgx, tgx))
        sxy = float(np.dot(tgx, tgy))
        syy = float(np.dot(tgy, tgy))
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
        dx, dy = disp[i]
        ok = True
        for _ in range(max_iter):
            qx = px + dx
            qy = py + dy
            if (qx - radius < 0.0 or qx + radius > W - 2.0
                    or qy - radius < 0.0 or qy + radius > H - 2.0):
                ok = False
                break
            vals = _bilinear_np(nxt, qx + ox, qy + oy)
            diff = tmpl - vals
            b1 = float(np.dot(diff, tgx))
            b2 = float(np.dot(diff, tgy))
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


# --- per-pixel mesh render ---

_EDGE_TOL = 1e-7
_SRC_TOL = 1e-9


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


def _raster_numpy(src, tris, inv_affines, out, owner):
    H, W = out.shape
    sh, sw = src.shape
    for t in range(tris.shape[0]):
        (x1, y1), (x2, y2), (x3, y3) = tris[t]
        area = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if area == 0.0:
            continue
        s = 1.0 if area > 0.0 else -1.0
        xmin = max(0, int(np.ceil(min(x1, x2, x3) - 1e-9)))
        xmax = min(W - 1, int(np.floor(max(x1, x2, x3) + 1e-9)))
        ymin = max(0, int(np.ceil(min(y1, y2, y3) - 1e-9)))
        ymax = min(H - 1, int(np.floor(max(y1, y2, y3) + 1e-9)))
        if xmin > xmax or ymin > ymax:
            continue
        xs = np.arange(xmin, xmax + 1, dtype=np.float64)
        ys = np.arange(ymin, ymax + 1, dtype=np.float64)
        xx, yy = np.meshgrid(xs, ys)
        e1 = s * ((x2 - x1) * (yy - y1) - (y2 - y1) * (xx - x1))
        e2 = s * ((x3 - x2) * (yy - y2) - (y3 - y2) * (xx - x2))
        e3 = s * ((x1 - x3) * (yy - y3) - (y1 - y3) * (xx - x3))
        inside = (e1 >= -_EDGE_TOL) & (e2 >= -_EDGE_TOL) & (e3 >= -_EDGE_TOL)
        region = owner[ymin : ymax + 1, xmin : xmax + 1]
        take = inside & (region < 0)
        if not take.any():
            continue
        region[take] = t
        a = inv_affines[t]
        sx = a[0, 0] * xx[take] + a[0, 1] * yy[take] + a[0, 2]
        sy = a[1, 0] * xx[take] + a[1, 1] * yy[take] + a[1, 2]
        ok = ((sx >= -_SRC_TOL) & (sx <= sw - 1.0 + _SRC_TOL)
              & (sy >= -_SRC_TOL) & (sy <= sh - 1.0 + _SRC_TOL))
        vals = np.zeros(sx.shape[0])
        if ok.any():
            gx = np.minimum(np.maximum(sx[ok], 0.0), sw - 1.0)
            gy = np.minimum(np.maximum(sy[ok], 0.0), sh - 1.0)
            x0 = np.minimum(np.floor(gx).astype(np.intp), sw - 2)
            y0 = np.minimum(np.floor(gy).astype(np.intp), sh - 2)
            fx = gx - x0
            fy = gy - y0
            vals[ok] = (src[y0, x0] * (1.0 - fx) * (1.0 - fy)
                        + src[y0, x0 + 1] * fx * (1.0 - fy)
                        + src[y0 + 1, x0] * (1.0 - fx) * fy
                        + src[y0 + 1, x0 + 1] * fx * fy)
        out[ymin : ymax + 1, xmin : xmax + 1][take] = vals
    return out, owner


if HAS_NUMBA:
    _corner_fast = njit(cache=True)(_corner_loops)
    _lk_fast = njit(cache=True)(_lk_loops)
    _raster_fast = njit(cache=True)(_raster_loops)
else:
    _corner_fast = None
    _lk_fast = None
    _raster_fast = None


def corner_min_eig(img: np.ndarray, radius: int = 3) -> np.ndarray:
    """Minimum-eigenvalue corner response over a (2*radius+1)^2 window."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    gx, gy = gradients(img)
    if HAS_NUMBA:
        return _corner_fast(gx, gy, radius)
    return _corner_numpy(gx, gy, radius)


def lk_refine_level(prev, nxt, gx, gy, pts, disp, status, radius, max_iter,
                    eps, min_eig_thr, strict=True):
    """Refine per-point displacements at one pyramid level (in place).

    pts are level-scaled positions in `prev`; disp holds the current
    displacement guesses and is updated.  With strict=True points that
    leave the frame or sit on degenerate texture get status 0; with
    strict=False (coarse pyramid levels) such points keep their status and
    displacement so a finer level can still judge them.
    """
    fn = _lk_fast if HAS_NUMBA else _lk_numpy
    return fn(prev, nxt, gx, gy, pts, disp, status,
              radius, max_iter, eps, min_eig_thr, 1 if strict else 0)


def rasterize(src: np.ndarray, tris: np.ndarray, inv_affines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Render `src` through a triangle mesh.

    tris: (K, 3, 2) output-space triangle vertices; inv_affines: (K, 2, 3)
    affine maps from output pixels back into `src` coordinates.  Triangles
    are rasterized in index order and the first (lowest-index) triangle
    containing a pixel wins, which settles pixels on shared edges.  Returns
    (image, owner) where owner[y, x] is the triangle index or -1.
    """
    H, W = src.shape
    out = np.zeros((H, W))
    owner = np.full((H, W), -1, dtype=np.int64)
    src = np.ascontiguousarray(src, dtype=np.float64)
    tris = np.ascontiguousarray(tris, dtype=np.float64)
    inv_affines = np.ascontiguousarray(inv_affines, dtype=np.float64)
    fn = _raster_fast if HAS_NUMBA else _raster_numpy
    return fn(src, tris, inv_affines, out, owner)
