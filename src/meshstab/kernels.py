"""Hot numeric kernels, written as whole-array numpy.

Three inner loops dominate the pipeline's runtime: the corner response map,
the iterative flow refinement of every tracked point, and the per-pixel mesh
render.  Each is vectorized here; the test suite keeps a plain-loop version
of each as its reference.  ``BACKEND`` names the implementation and is
recorded by the benchmark.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "corner_min_eig",
    "lk_refine_level",
    "rasterize",
]

BACKEND = "numpy"


def gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients; the one-pixel border stays zero."""
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, 1:-1] = 0.5 * (img[:, 2:] - img[:, :-2])
    gy[1:-1, :] = 0.5 * (img[2:, :] - img[:-2, :])
    return gx, gy


# --- corner response (minimum eigenvalue of the 7x7 structure tensor) ---


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


def _window_grid(radius: int) -> tuple[np.ndarray, np.ndarray]:
    off = np.arange(-radius, radius + 1, dtype=np.float64)
    ox, oy = np.meshgrid(off, off)
    return ox.ravel(), oy.ravel()


def _bilinear_np(img, xs, ys):
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    fx = xs - x0
    fy = ys - y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    # flat-index gathers; the products keep the association order of
    # v * wx * wy, so the result is bit-identical to 2-D indexing
    flat = img.ravel()
    i = y0 * img.shape[1] + x0
    return (flat.take(i) * gx * gy
            + flat.take(i + 1) * fx * gy
            + flat.take(i + img.shape[1]) * gx * fy
            + flat.take(i + img.shape[1] + 1) * fx * fy)


def _rowdot(a, b):
    """Row-wise dot products; stacked matmul sums each row as np.dot does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lk_numpy(prev, nxt, gx, gy, pts, disp, status, radius, max_iter, eps,
              min_eig_thr, strict):
    H, W = prev.shape
    k = 2 * radius + 1
    ox, oy = _window_grid(radius)

    def outside(x, y):
        return ((x - radius < 0.0) | (x + radius > W - 2.0)
                | (y - radius < 0.0) | (y + radius > H - 2.0))

    idx = np.flatnonzero(status != 0)
    px, py = pts[idx, 0], pts[idx, 1]
    inside = ~outside(px, py)
    dropped = [idx[~inside]]
    idx, px, py = idx[inside], px[inside], py[inside]
    xs = px[:, None] + ox
    ys = py[:, None] + oy
    tmpl = _bilinear_np(prev, xs, ys)
    tgx = _bilinear_np(gx, xs, ys)
    tgy = _bilinear_np(gy, xs, ys)
    sxx = _rowdot(tgx, tgx)
    sxy = _rowdot(tgx, tgy)
    syy = _rowdot(tgy, tgy)
    dd = sxx - syy
    min_eig = 0.5 * ((sxx + syy) - np.sqrt(dd * dd + 4.0 * sxy * sxy))
    det = sxx * syy - sxy * sxy
    good = ~(min_eig / (k * k) < min_eig_thr) & ~(det <= 0.0)
    dropped.append(idx[~good])
    idx, px, py = idx[good], px[good], py[good]
    tmpl, tgx, tgy = tmpl[good], tgx[good], tgy[good]
    sxx, sxy, syy, det = sxx[good], sxy[good], syy[good], det[good]

    d = disp[idx]
    left = np.zeros(idx.size, dtype=bool)
    act = np.arange(idx.size)  # still iterating: not converged, not left
    for _ in range(max_iter):
        if not act.size:
            break
        qx = px[act] + d[act, 0]
        qy = py[act] + d[act, 1]
        out = outside(qx, qy)
        left[act[out]] = True
        act, qx, qy = act[~out], qx[~out], qy[~out]
        diff = tmpl[act] - _bilinear_np(nxt, qx[:, None] + ox, qy[:, None] + oy)
        b1 = _rowdot(diff, tgx[act])
        b2 = _rowdot(diff, tgy[act])
        ux = (syy[act] * b1 - sxy[act] * b2) / det[act]
        uy = (sxx[act] * b2 - sxy[act] * b1) / det[act]
        d[act, 0] += ux
        d[act, 1] += uy
        act = act[~(ux * ux + uy * uy < eps * eps)]

    if strict != 0:
        dropped.append(idx[left])
        status[np.concatenate(dropped)] = 0
        idx, d = idx[~left], d[~left]
    disp[idx] = d
    return disp, status


# --- per-pixel mesh render ---

_EDGE_TOL = 1e-7
_SRC_TOL = 1e-9


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


def corner_min_eig(img: np.ndarray, radius: int = 3) -> np.ndarray:
    """Minimum-eigenvalue corner response over a (2*radius+1)^2 window."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    gx, gy = gradients(img)
    return _corner_numpy(gx, gy, radius)


def lk_refine_level(prev, nxt, gx, gy, pts, disp, status, radius, max_iter,
                    eps, min_eig_thr, strict=True):
    """Refine per-point displacements at one pyramid level (in place).

    pts are level-scaled positions in `prev`; disp holds the current
    displacement guesses and is updated.  With strict=True points that
    leave the frame or sit on degenerate texture get status 0 and keep
    their displacement; with strict=False (coarse pyramid levels) they keep
    their status so a finer level can still judge them, and a point that
    left the frame keeps its last iterate.
    """
    return _lk_numpy(prev, nxt, gx, gy, pts, disp, status,
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
    return _raster_numpy(src, tris, inv_affines, out, owner)
