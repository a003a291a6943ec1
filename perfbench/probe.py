"""A fixed piece of work that measures how fast the machine runs right now.

The speed of a shared machine drifts by a factor of two within minutes, and
different kinds of code slow down by different amounts. The probe mixes the
four kinds of work meshstab does, each kept independent of meshstab's own
code so that a change to meshstab does not change the probe:

- interpreter work: point-in-circle tests and list bookkeeping in plain
  Python, like the Bowyer-Watson mesher and the crop search;
- small-array numpy work in a Python loop: a per-triangle rasterizer, like
  the numpy raster kernel;
- small dense linear algebra called in a Python loop, like the per-frame
  stage-2 solves and the local homography fits;
- vectorized array work: bilinear resampling of a frame and sparse
  matrix-vector products, like the corner kernel, SSIM and the stage-1 PCG
  iterations.

The probe is made of slices of about 8 ms, each with some of every part,
so that a quarter of the time goes to each. `speed_probe` runs 25 slices
between pipeline steps. `during` runs one slice every 0.3 s while a step
runs, from a timer signal, so that a long step is measured at the speed it
actually ran at: the machine's speed can change by half within seconds.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse

# the probe takes this long at the speed scaled times are reported at; it is
# the median probe time on the machine the benchmark was tuned on (2 vCPUs,
# x86-64, CPython 3.11, numpy 2.4)
REFERENCE_PROBE_S = 0.2
SLICES_PER_PROBE = 25
REFERENCE_SLICE_S = REFERENCE_PROBE_S / SLICES_PER_PROBE
# seconds between two slices while a pipeline step runs
SLICE_PERIOD_S = 0.3

_rng = np.random.default_rng(20060782)
_TEXTURE = _rng.random((240, 320))
_PY_POINTS = [(random.Random(k).random() * 320.0, random.Random(-k).random() * 240.0)
              for k in range(1, 301)]
_SPD = [m @ m.T + 12.0 * np.eye(12) for m in _rng.standard_normal((16, 12, 12))]
_LSQ = _rng.standard_normal((16, 10, 4))
_GRID_Y, _GRID_X = np.mgrid[0:120, 0:160].astype(np.float64)
_SPARSE = scipy.sparse.random(4000, 4000, density=2e-3, random_state=1, format="csr") \
    + scipy.sparse.eye(4000, format="csr")
_VEC = _rng.standard_normal(4000)


def _in_circle(a, b, c, d) -> bool:
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    return ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)) > 0.0


def _interpreter() -> int:
    pts = _PY_POINTS
    n = len(pts)
    hits = 0
    edges: dict[tuple[int, int], int] = {}
    for i in range(n - 3):
        for j in (i + 1, i + 2):
            if _in_circle(pts[i], pts[j], pts[j + 1], pts[(i * 7) % n]):
                hits += 1
                key = (min(i, j), max(i, j))
                edges[key] = edges.get(key, 0) + 1
    return hits + len(edges)


_TRIANGLES = [(_rng.uniform(0.0, 300.0, 2) + _rng.uniform(0.0, 18.0, (3, 2)))
              for _ in range(24)]


def _small_arrays() -> float:
    acc = 0.0
    for (x1, y1), (x2, y2), (x3, y3) in _TRIANGLES:
        xs = np.arange(np.floor(min(x1, x2, x3)), np.ceil(max(x1, x2, x3)) + 1.0)
        ys = np.arange(np.floor(min(y1, y2, y3)), np.ceil(max(y1, y2, y3)) + 1.0)
        xx, yy = np.meshgrid(xs, ys)
        e1 = (x2 - x1) * (yy - y1) - (y2 - y1) * (xx - x1)
        e2 = (x3 - x2) * (yy - y2) - (y3 - y2) * (xx - x2)
        e3 = (x1 - x3) * (yy - y3) - (y1 - y3) * (xx - x3)
        inside = ((e1 >= 0) & (e2 >= 0) & (e3 >= 0)) | ((e1 <= 0) & (e2 <= 0) & (e3 <= 0))
        sx = np.minimum(0.9 * xx[inside] + 0.1 * yy[inside], 318.0)
        sy = np.minimum(0.9 * yy[inside], 238.0)
        x0, y0 = sx.astype(np.intp), sy.astype(np.intp)
        fx, fy = sx - x0, sy - y0
        acc += float((_TEXTURE[y0, x0] * (1.0 - fx) * (1.0 - fy)
                      + _TEXTURE[y0 + 1, x0 + 1] * fx * fy).sum())
    return acc


def _small_dense() -> float:
    acc = 0.0
    for spd, lsq in zip(_SPD, _LSQ):
        cf = scipy.linalg.cho_factor(spd)
        acc += float(scipy.linalg.cho_solve(cf, spd[0])[0])
        acc += float(np.linalg.lstsq(lsq, lsq[:, 0], rcond=None)[0][0])
    return acc


def _vectorized() -> float:
    u = 0.9 * _GRID_X + 0.1 * _GRID_Y + 3.3
    v = -0.1 * _GRID_X + 0.9 * _GRID_Y + 1.7
    i = np.clip(np.floor(v).astype(np.intp), 0, 238)
    j = np.clip(np.floor(u).astype(np.intp), 0, 318)
    fy, fx = v - np.floor(v), u - np.floor(u)
    t = _TEXTURE
    out = ((t[i, j] * (1 - fx) + t[i, j + 1] * fx) * (1 - fy)
           + (t[i + 1, j] * (1 - fx) + t[i + 1, j + 1] * fx) * fy)
    x = _VEC
    for _ in range(6):
        x = _SPARSE @ x
        x /= np.abs(x).max()
    return float(out.sum()) + float(x[0])


def probe_slice() -> None:
    """One slice of the probe."""
    for _ in range(2):
        _interpreter()
        _small_dense()
    _small_arrays()
    _vectorized()


def speed_probe() -> float:
    """Wall seconds of SLICES_PER_PROBE slices."""
    t0 = perf_counter()
    for _ in range(SLICES_PER_PROBE):
        probe_slice()
    return perf_counter() - t0


@contextmanager
def during():
    """Run a slice every SLICE_PERIOD_S until the block ends; yields the
    list that collects each slice's wall seconds, handler included."""
    slices: list[float] = []

    def on_timer(signum, frame):
        t0 = perf_counter()
        probe_slice()
        slices.append(perf_counter() - t0)

    old = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)
    try:
        yield slices
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
