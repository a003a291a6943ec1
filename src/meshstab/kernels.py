"""Hot numeric kernels, written as whole-array numpy.

Three inner loops dominate the pipeline's runtime: the corner response map,
the iterative flow refinement of every tracked point, and the per-pixel mesh
render.  Each is vectorized here; the test suite keeps a plain-loop version
of each as its reference.  ``BACKEND`` names the implementation and is
recorded by the benchmark.

The flow refinement samples each point's k x k window from one gathered
(k+1) x (k+1) pixel patch.  A window's columns share their x fractions and
its rows their y fractions, so these are formed per row and column, not per
sample, and the products run over the patches laid end to end, 32 points
at a time.  A ``Windows`` store lets a later call on the same image reuse
the template windows sampled at the same points.  Both give the same bits
as sampling every window pixel on its own.

The render takes all triangles of a frame in one pass.  Along one row of a
triangle's bounding box each edge test is monotone in x, so the pixels
that pass all three form one run; each row's run is found from a closed
form and checked against the same edge expression the per-triangle loop
evaluates.  Only the runs are expanded into pixels, at most
``_RASTER_CHUNK`` at a time, so the working set stays bounded however
large or flipped the triangles are.  Each pixel goes to the lowest-index
triangle that contains it, and the owned pixels are then sampled a chunk
at a time.  Image and owner map are bit-identical to the per-triangle loop.
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


def corner_min_eig(img: np.ndarray, radius: int = 3) -> np.ndarray:
    """Minimum-eigenvalue corner response over a (2*radius+1)^2 window."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    gx, gy = gradients(img)
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

# points whose windows are sampled at once: each temporary then stays under
# 128 KiB.  Without cli._pin_malloc, tracking a 40-frame video_track clip
# (2-core x86-64) took 35-42 ms/frame this way and 50-62 ms/frame with a
# whole level sampled at once; with it the two were even.
_LK_CHUNK = 32


def _axis_weights(p, radius):
    """Bilinear fractions of the window samples p + o, o = -radius..radius.

    Sample o is weighted between pixels floor(p) + o and floor(p) + o + 1,
    so a whole window row (column) lies in one (k+1)-pixel span starting at
    floor(p) - radius.  Returns that first pixel and the fractions f, one
    row per point; the weights are 1 - f and f.  f = (p + o) - (floor(p) + o)
    is exact and equals the per-sample fraction, except where p + o rounds
    up onto an integer: there f is 1.0, so the sample takes all of the next
    pixel and the other pixel adds an exact zero.  Each row has k+1
    entries; the last, for o = radius + 1, pads the row to the patch width
    and is never used.
    """
    off = np.arange(-radius, radius + 2, dtype=np.float64)
    base = np.floor(p)
    return base.astype(np.intp) - radius, (p[:, None] + off) - (base[:, None] + off)


def _sample(win, x0, y0, fx, fy):
    """Bilinear samples over each point's k x k window.

    `win` is the image's (k+1) x (k+1) sliding-window view, so one gather
    takes each point's pixel patch.  Every sample is (v * wx) * wy summed in
    the order top-left, top-right, bottom-left, bottom-right, as a
    per-sample gather computes it, so the result is the same bit for bit.
    The patches are laid end to end and every product runs over the whole
    flat array: a pixel's right neighbour is the next element and the one
    below it s = k+1 further on.  The padding column and row pick up
    neighbours from the next row or patch and are dropped at the end.
    """
    n, s = fx.shape
    k = s - 1
    left = win[y0, x0].reshape(n * s * s)
    wx = np.tile(fx, s).reshape(-1)             # fx of every patch pixel
    right = np.empty_like(left)
    right[-1:] = 0.0
    np.multiply(left[1:], wx[:-1], out=right[:-1])
    np.subtract(1.0, wx, out=wx)
    left *= wx
    bottom = np.repeat(fy.reshape(-1), s)[:-s]  # fy of every patch pixel
    top = 1.0 - bottom
    out = np.empty_like(left)
    o = out[:-s]
    np.multiply(left[:-s], top, out=o)
    o += np.multiply(right[:-s], top, out=top)
    o += np.multiply(left[s:], bottom, out=wx[:-s])
    o += np.multiply(right[s:], bottom, out=bottom)
    return out.reshape(n, s, s)[:, :k, :k].reshape(n, k * k)


class Windows:
    """Template windows sampled from one image, kept for a later call on it.

    Passed to ``lk_refine_level`` as ``windows=``, a store first lends its
    rows: a point whose coordinates equal, bit for bit, a point it sampled
    from the same ``prev`` array reuses that template and its gradient
    windows; every other point is sampled.  The store then holds the
    windows of that call.  Both passes of a frame pair sample the frame
    shared with the next pair at the same points, so a tracker keeps the
    backward pass's store for the next forward pass.
    """

    _KEY = np.dtype((np.void, 16))  # an (x, y) pair of float64, compared as bytes

    def __init__(self):
        self.img = None
        self.radius = -1
        self.keys = np.empty(0, dtype=self._KEY)  # sorted
        self.rows = np.empty(0, dtype=np.intp)    # row of each sorted key
        self.tmpl = self.tgx = self.tgy = None

    def _find(self, img, pts, radius):
        """Stored row of each point, or -1 where none matches."""
        if self.img is not img or self.radius != radius or not self.keys.size:
            return np.full(pts.shape[0], -1, dtype=np.intp)
        keys = np.ascontiguousarray(pts).view(self._KEY).ravel()
        j = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[j] == keys, self.rows[j], -1)

    def _keep(self, img, pts, radius, tmpl, tgx, tgy):
        keys = np.ascontiguousarray(pts).view(self._KEY).ravel()
        self.rows = np.argsort(keys, kind="stable")
        self.keys = keys[self.rows]
        self.img, self.radius = img, radius
        self.tmpl, self.tgx, self.tgy = tmpl, tgx, tgy


def _windows(img, k):
    return np.lib.stride_tricks.sliding_window_view(img, (k + 1, k + 1))


def _chunks(n):
    return (slice(lo, lo + _LK_CHUNK) for lo in range(0, n, _LK_CHUNK))


def _templates(prev, gx, gy, pts, radius, windows):
    """Template and gradient windows of `prev` around each point."""
    n = pts.shape[0]
    k = 2 * radius + 1
    out = [np.empty((n, k * k)) for _ in range(3)]
    row = np.full(n, -1, dtype=np.intp) if windows is None else windows._find(prev, pts, radius)
    old = np.flatnonzero(row >= 0)
    if old.size:
        for w, a in zip(out, (windows.tmpl, windows.tgx, windows.tgy)):
            w[old] = a[row[old]]
    new = np.flatnonzero(row < 0)
    x0, fx = _axis_weights(pts[new, 0], radius)
    y0, fy = _axis_weights(pts[new, 1], radius)
    # an image narrower than a patch has no inside point and no window view
    wins = [_windows(img, k) for img in (prev, gx, gy)] if new.size else []
    for c in _chunks(new.size):
        for w, win in zip(out, wins):
            w[new[c]] = _sample(win, x0[c], y0[c], fx[c], fy[c])
    if windows is not None:
        windows._keep(prev, pts, radius, *out)
    return out


def _rowdot(a, b):
    """Row-wise dot products; stacked matmul sums each row as np.dot does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def lk_refine_level(prev, nxt, gx, gy, pts, disp, status, radius, max_iter,
                    eps, min_eig_thr, strict=True, *, windows=None):
    """Refine per-point displacements at one pyramid level (in place).

    pts are level-scaled positions in `prev`; disp holds the current
    displacement guesses and is updated.  With strict=True points that
    leave the frame or sit on degenerate texture get status 0 and keep
    their displacement; with strict=False (coarse pyramid levels) they keep
    their status so a finer level can still judge them, and a point that
    left the frame keeps its last iterate.

    windows: an optional ``Windows`` store.  Points it sampled from this
    same `prev` array at bit-equal coordinates reuse its windows; on
    return it holds this call's windows.  The result is the same with or
    without it.
    """
    H, W = prev.shape
    k = 2 * radius + 1

    def outside(x, y):
        return ((x - radius < 0.0) | (x + radius > W - 2.0)
                | (y - radius < 0.0) | (y + radius > H - 2.0))

    idx = np.flatnonzero(status != 0)
    px, py = pts[idx, 0], pts[idx, 1]
    inside = ~outside(px, py)
    dropped = [idx[~inside]]
    idx, px, py = idx[inside], px[inside], py[inside]
    tmpl, tgx, tgy = _templates(prev, gx, gy, pts[idx], radius, windows)
    sxx = _rowdot(tgx, tgx)
    sxy = _rowdot(tgx, tgy)
    syy = _rowdot(tgy, tgy)
    dd = sxx - syy
    min_eig = 0.5 * ((sxx + syy) - np.sqrt(dd * dd + 4.0 * sxy * sxy))
    det = sxx * syy - sxy * sxy
    good = ~(min_eig / (k * k) < min_eig_thr) & ~(det <= 0.0)
    dropped.append(idx[~good])
    idx, px, py = idx[good], px[good], py[good]
    rows = np.flatnonzero(good)  # each point's windows in tmpl, tgx, tgy
    sxx, sxy, syy, det = sxx[good], sxy[good], syy[good], det[good]

    d = disp[idx]
    nxt_win = _windows(nxt, k) if idx.size else None
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
        x0, fx = _axis_weights(qx, radius)
        y0, fy = _axis_weights(qy, radius)
        b1 = np.empty(act.size)
        b2 = np.empty(act.size)
        for c in _chunks(act.size):
            r = rows[act[c]]
            diff = tmpl[r] - _sample(nxt_win, x0[c], y0[c], fx[c], fy[c])
            b1[c] = _rowdot(diff, tgx[r])
            b2[c] = _rowdot(diff, tgy[r])
        ux = (syy[act] * b1 - sxy[act] * b2) / det[act]
        uy = (sxx[act] * b2 - sxy[act] * b1) / det[act]
        d[act, 0] += ux
        d[act, 1] += uy
        act = act[~(ux * ux + uy * uy < eps * eps)]

    if strict:
        dropped.append(idx[left])
        status[np.concatenate(dropped)] = 0
        idx, d = idx[~left], d[~left]
    disp[idx] = d
    return disp, status


# --- per-pixel mesh render ---

_EDGE_TOL = 1e-7
_SRC_TOL = 1e-9
# box rows searched, run pixels expanded and owned pixels sampled at once;
# a chunk holds at least one triangle, box row or pixel
_RASTER_CHUNK = 1 << 15


def _spans(sizes):
    """Slices of consecutive items whose sizes sum to at most _RASTER_CHUNK,
    or one larger item."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < sizes.size:
        start = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, start + _RASTER_CHUNK, side="right")))
        yield slice(lo, hi)
        lo = hi


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _row_runs(c, b, xa, lo, hi):
    """The run of columns of each box row that passes all three edge tests.

    c, b, xa: (3, R), one row per edge, so that the test at column x of box
    row r is c - b * (x - xa) >= -_EDGE_TOL, with c the row's y term; a NaN
    value fails.  lo, hi: (R,) box columns [lo, hi).  Each step of that
    expression rounds monotonically in x, so a test passes a prefix of the
    row when b > 0, a suffix when b < 0, and all or none of it when b == 0.
    Its flip, the first column past the prefix or the first of the suffix,
    is estimated from the closed form xa + (c + tol) / b, clipped to the
    box and then searched to the exact flip of the expression above.
    Returns each row's first column and its pixel count (0 for none).
    """
    R = lo.size
    lo = np.tile(lo, 3)
    hi = np.tile(hi, 3)
    c, b, xa = c.reshape(-1), b.reshape(-1), xa.reshape(-1)
    prefix = b >= 0.0

    def flips(j, x):
        # whether column x lies past edge j's prefix, or in its suffix
        return (c[j] - b[j] * (x - xa[j]) >= -_EDGE_TOL) != prefix[j]

    est = xa + (c + _EDGE_TOL) / b
    k = np.where(b > 0.0, np.floor(est) + 1.0, np.ceil(est))
    k = np.where(b == 0.0, np.where(c >= -_EDGE_TOL, hi, lo), k)  # c is the whole test
    k = np.fmin(np.fmax(k, lo), hi).astype(np.intp)  # a NaN estimate goes to lo
    every = slice(None)
    up = (k < hi) & ~flips(every, np.minimum(k, hi - 1))
    down = (k > lo) & flips(every, np.maximum(k - 1, lo))
    # where the estimate is off, bisect the box: the flip lies in (a, z]
    j = np.flatnonzero(up | down)
    a, z = lo[j] - 1, hi[j]
    while True:
        done = z - a <= 1
        k[j[done]] = z[done]
        j, a, z = j[~done], a[~done], z[~done]
        if not j.size:
            break
        mid = (a + z) // 2
        f = flips(j, mid)
        a = np.where(f, a, mid)
        z = np.where(f, mid, z)
    k = k.reshape(3, R)
    prefix = prefix.reshape(3, R)
    start = np.where(prefix, lo[:R], k).max(axis=0)
    end = np.where(prefix, k, hi[:R]).min(axis=0)
    return start, np.maximum(end - start, 0)


def rasterize(src: np.ndarray, tris: np.ndarray, inv_affines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Render `src` through a triangle mesh.

    tris: (K, 3, 2) output-space triangle vertices; inv_affines: (K, 2, 3)
    affine maps from output pixels back into `src` coordinates.  Triangles
    are rasterized in index order and the first (lowest-index) triangle
    containing a pixel wins, which settles pixels on shared edges.  Returns
    (image, owner) where owner[y, x] is the triangle index or -1.

    All triangles are taken in one whole-array pass.  On one row of a
    triangle's box an edge value c - b * (x - xa) is monotone in x, since
    each rounding step is, so the pixels passing it are a prefix of the row
    (b > 0), a suffix (b < 0), or all or none of it (b == 0); a NaN value
    fails.  Each row's run is the overlap of its three, found from the
    closed-form flip xa + (c + tol) / b clipped to the box and then
    searched to the exact flip of the loop's own expression.  Runs are
    expanded a chunk of at most ``_RASTER_CHUNK`` pixels (or one longer
    row) at a time, each pixel keeps the least index of the triangles whose
    runs hold it, and the owned pixels are sampled in chunks of the same
    size.  A triangle of zero or NaN area owns nothing.  The result equals
    the per-triangle loop bit for bit.  Raises ValueError if a vertex is
    not finite.
    """
    src = np.ascontiguousarray(src, dtype=np.float64)
    tris = np.ascontiguousarray(tris, dtype=np.float64)
    inv_affines = np.ascontiguousarray(inv_affines, dtype=np.float64)
    H, W = src.shape  # the output frame has src's shape
    K = tris.shape[0]
    if not np.isfinite(tris).all():
        raise ValueError("triangle vertices must be finite")
    xs, ys = tris[:, :, 0], tris[:, :, 1]
    x1, x2, x3 = xs.T
    y1, y2, y3 = ys.T
    area = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    s = np.where(area > 0.0, 1.0, -1.0)
    # boxes clamped to the frame; an empty box has min > max
    xmin = np.clip(np.ceil(xs.min(axis=1) - 1e-9), 0, W).astype(np.intp)
    xmax = np.clip(np.floor(xs.max(axis=1) + 1e-9), -1, W - 1).astype(np.intp)
    ymin = np.clip(np.ceil(ys.min(axis=1) - 1e-9), 0, H).astype(np.intp)
    ymax = np.clip(np.floor(ys.max(axis=1) + 1e-9), -1, H - 1).astype(np.intp)
    bh = ymax - ymin + 1
    # a zero or NaN area has no orientation: the triangle owns nothing
    keep = np.flatnonzero(((area > 0.0) | (area < 0.0)) & (xmax >= xmin) & (bh > 0))
    # edge a -> b tests s * ((xb - xa) * (y - ya) - (yb - ya) * (x - xa));
    # folding s into both factors is exact (rounding is sign-symmetric), so
    # every edge value is the loop's up to the sign of a zero
    ea = np.stack([s * (x2 - x1), s * (x3 - x2), s * (x1 - x3)])
    eb = np.stack([s * (y2 - y1), s * (y3 - y2), s * (y1 - y3)])
    exa = np.stack([x1, x2, x3])
    eya = np.stack([y1, y2, y3])

    # lowest covering triangle per pixel; K marks an uncovered pixel
    first = np.full(H * W, K, dtype=np.int64)
    for c in _spans(bh[keep]):
        tk = keep[c]
        # one entry per box row, in triangle order
        rt = np.repeat(tk, bh[tk])
        ry = np.arange(rt.size) - np.repeat(np.cumsum(bh[tk]) - bh[tk] - ymin[tk], bh[tk])
        yy = ry.astype(np.float64)
        run0, n = _row_runs(ea[:, rt] * (yy - eya[:, rt]), eb[:, rt], exa[:, rt],
                            xmin[rt], xmax[rt] + 1)
        # then one entry per run pixel, at most a chunk of them at a time
        hit = np.flatnonzero(n)
        rt, run0, n = rt[hit], ry[hit] * W + run0[hit], n[hit]
        for r in _spans(n):
            nr = n[r]
            pix = np.arange(nr.sum()) + np.repeat(run0[r] - (np.cumsum(nr) - nr), nr)
            np.minimum.at(first, pix, np.repeat(rt[r], nr))

    owned = np.flatnonzero(first < K)
    out = np.zeros((H, W))
    owner = np.full((H, W), -1, dtype=np.int64)
    a = inv_affines.reshape(K, 6)
    flat = src.reshape(-1)
    # the right, lower and diagonal neighbours of each gathered pixel; a
    # 1-px-wide (or -high) src clamps x0 (y0) to -1, and 2-D indexing wraps
    # both of its columns (rows) onto column (row) 0
    dx = 1 if W > 1 else 0
    dy = W if H > 1 else 0
    right, below, diag = flat[dx:], flat[dy:], flat[dx + dy:]
    for lo in range(0, owned.size, _RASTER_CHUNK):
        pix = owned[lo:lo + _RASTER_CHUNK]
        t = first[pix]
        np.put(owner, pix, t)
        yi, xi = np.divmod(pix, W)
        xx = xi.astype(np.float64)
        yy = yi.astype(np.float64)
        sx = a[:, 0].take(t) * xx + a[:, 1].take(t) * yy + a[:, 2].take(t)
        sy = a[:, 3].take(t) * xx + a[:, 4].take(t) * yy + a[:, 5].take(t)
        ok = ((sx >= -_SRC_TOL) & (sx <= W - 1.0 + _SRC_TOL)
              & (sy >= -_SRC_TOL) & (sy <= H - 1.0 + _SRC_TOL))
        inside = ok.all()
        if not inside:
            sx, sy = sx[ok], sy[ok]
        gx = np.minimum(np.maximum(sx, 0.0), W - 1.0)
        gy = np.minimum(np.maximum(sy, 0.0), H - 1.0)
        # gx, gy >= 0, so truncation is floor
        x0 = np.minimum(gx.astype(np.intp), W - 2)
        y0 = np.minimum(gy.astype(np.intp), H - 2)
        fx = gx - x0
        fy = gy - y0
        i = np.maximum(y0, 0) * W + np.maximum(x0, 0)
        hx = 1.0 - fx
        hy = 1.0 - fy
        vals = (flat.take(i) * hx * hy + right.take(i) * fx * hy
                + below.take(i) * hx * fy + diag.take(i) * fx * fy)
        if not inside:
            vals, v = np.zeros(pix.size), vals
            vals[ok] = v
        np.put(out, pix, vals)
    return out, owner
