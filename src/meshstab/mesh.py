"""Per-frame triangle meshes over feature points and fixed border points.

Each frame gets the Delaunay triangulation of its live feature points plus
a ring of evenly spaced control points on the frame border, computed by
Qhull (`scipy.spatial.Delaunay`).  The control points lie on the convex
hull, so every border segment between consecutive border vertices is a hull
edge; `triangulate` checks that it is present, so the mesh always tiles the
frame rectangle exactly.

Triangles whose three vertices are all feature points are "inner"; the rest
("outer") touch at least one control point.  The two coordinate helpers at
the bottom express a vertex in the local frame of a triangle edge
(rotation+scale invariant) and as barycentric weights (affine invariant);
the optimization stages build their shape-preserving terms from them.

All functions are pure and deterministic; meshes for different frames can
be built concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import DegenerateGeometryError
from .trajectory import TrajectorySet, frame_feature_set

__all__ = [
    "FrameMesh",
    "Triangulation",
    "make_control_points",
    "triangulate",
    "build_frame_mesh",
    "build_all_meshes",
    "similarity_coords",
    "reconstruct_similar",
    "barycentric",
]

AREA_EPS = 1e-9          # triangles at or below this area are degenerate
DEDUP_EPS = 1e-6         # vertices closer than this merge


# --- control points ---


def make_control_points(width: int, height: int, per_edge: int = 10) -> np.ndarray:
    """Evenly spaced border points in cyclic order, corners shared.

    per_edge counts points per side including both corners, so the ring has
    4*per_edge - 4 points (36 for the default 10).  Order: top edge left to
    right, right edge downwards, bottom edge right to left, left edge
    upwards; the ring starts at (0, 0).
    """
    if per_edge < 2:
        raise ValueError(f"per_edge must be >= 2, got {per_edge}")
    if width < 2 or height < 2:
        raise ValueError(f"frame must be at least 2x2, got {width}x{height}")
    xs = np.linspace(0.0, width - 1.0, per_edge)
    ys = np.linspace(0.0, height - 1.0, per_edge)
    ring: list[tuple[float, float]] = []
    ring += [(x, 0.0) for x in xs]                      # top, both corners
    ring += [(width - 1.0, y) for y in ys[1:]]          # right, skip shared corner
    ring += [(x, height - 1.0) for x in xs[::-1][1:]]   # bottom, right to left
    ring += [(0.0, y) for y in ys[::-1][1:-1]]          # left, upwards, open end
    return np.array(ring, dtype=np.float64)


# --- triangulation ---


def _orient(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Twice the signed area of triangle (p, q, r); positive = CCW."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])


@dataclass(frozen=True)
class Triangulation:
    """Triangle index triples (each sorted ascending, list in lex order) and
    the adjacency list of triangle pairs sharing an edge."""

    triangles: np.ndarray
    adjacency: tuple[tuple[int, int, tuple[int, int]], ...]


def _canonicalize(tris: np.ndarray) -> np.ndarray:
    arr = np.sort(np.asarray(tris, dtype=np.int64), axis=1)
    order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))
    return arr[order]


def _adjacency(tris: np.ndarray) -> tuple[tuple[int, int, tuple[int, int]], ...]:
    """Pairs (i, j, (u, v)), i < j, of canonical triangles sharing edge u < v."""
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [0, 2]]])
    owners = np.tile(np.arange(tris.shape[0]), 3)
    order = np.lexsort((owners, edges[:, 1], edges[:, 0]))
    edges, owners = edges[order], owners[order]
    shared = np.all(edges[1:] == edges[:-1], axis=1)
    if np.any(shared[1:] & shared[:-1]):
        key = edges[int(np.argmax(shared[1:] & shared[:-1]))]
        count = int(np.all(edges == key, axis=1).sum())
        raise DegenerateGeometryError(
            f"edge {(int(key[0]), int(key[1]))} bounds {count} triangles"
        )
    pairs = np.column_stack([owners[:-1][shared], owners[1:][shared], edges[:-1][shared]])
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    return tuple((i, j, (u, v)) for i, j, u, v in pairs.tolist())


def _border_chains(pts: np.ndarray, rect: tuple[float, float, float, float],
                   tol: float = 1e-9) -> list[list[int]]:
    """Indices of points on each rectangle side, ordered along the side."""
    x0, y0, x1, y1 = rect
    chains = []
    sides = [
        (np.abs(pts[:, 1] - y0) <= tol, 0),  # top: order by x
        (np.abs(pts[:, 0] - x1) <= tol, 1),  # right: order by y
        (np.abs(pts[:, 1] - y1) <= tol, 0),  # bottom
        (np.abs(pts[:, 0] - x0) <= tol, 1),  # left
    ]
    for mask, axis in sides:
        idx = np.nonzero(mask)[0]
        chains.append(list(idx[np.argsort(pts[idx, axis], kind="stable")]))
    return chains


def triangulate(
    points: np.ndarray,
    border: tuple[float, float, float, float] | None = None,
) -> Triangulation:
    """Delaunay-triangulate a point set with Qhull, optionally pinned to a border rect.

    `points` must be pairwise distinct (beyond 1e-6 px) and not all
    collinear.  With `border` = (x0, y0, x1, y1), all points must lie inside
    the rectangle and the four corners must be among the points, so the
    border points lie on the convex hull; every border segment between
    consecutive border points is checked to be a mesh edge.  Raises
    DegenerateGeometryError when an input check fails, when Qhull leaves a
    point out, when a triangle has area <= AREA_EPS or when a border segment
    is missing.  Cocircular ties are broken as Qhull breaks them.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    if pts.shape[0] < 3:
        raise DegenerateGeometryError(f"need >= 3 points, got {pts.shape[0]}")
    # the tree's radius test is not the strict one below, so it gets slack
    pairs = cKDTree(pts).query_pairs(2.0 * DEDUP_EPS, output_type="ndarray")
    d2 = np.sum((pts[pairs[:, 0]] - pts[pairs[:, 1]]) ** 2, axis=1)
    if pairs.size and d2.min() < DEDUP_EPS**2:
        i, j = pairs[int(d2.argmin())]
        raise DegenerateGeometryError(
            f"points {i} and {j} coincide within {DEDUP_EPS} px; merge them first"
        )
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1.0):
        raise DegenerateGeometryError("points are collinear")

    if border is not None:
        x0, y0, x1, y1 = border
        if (pts[:, 0].min() < x0 - 1e-9 or pts[:, 0].max() > x1 + 1e-9
                or pts[:, 1].min() < y0 - 1e-9 or pts[:, 1].max() > y1 + 1e-9):
            raise DegenerateGeometryError("points outside the border rectangle")
        corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        for c in corners:
            if np.min(np.sum((pts - c) ** 2, axis=1)) > 1e-18:
                raise DegenerateGeometryError(
                    f"border corner {tuple(c)} is not among the points"
                )

    span = float(max(np.ptp(pts, axis=0).max(), 1e-9))
    dt = Delaunay((pts - pts.min(axis=0)) / span)  # Qhull on the unit box
    if dt.coplanar.size:
        raise DegenerateGeometryError(
            f"point {int(dt.coplanar[0, 0])} was left out of the triangulation"
        )
    tris = _canonicalize(dt.simplices)
    area = 0.5 * np.abs(_orient(*pts[tris].transpose(1, 2, 0)))
    if np.any(area <= AREA_EPS):
        k = int(np.argmin(area))
        raise DegenerateGeometryError(
            f"triangle {tuple(int(v) for v in tris[k])} has area {area[k]:.3g}"
        )

    if border is not None:
        n = pts.shape[0]
        seg = np.sort(np.concatenate([
            np.column_stack([chain[:-1], chain[1:]])
            for chain in _border_chains(pts, border)
        ]), axis=1)
        missing = ~np.isin(seg[:, 0] * n + seg[:, 1],
                           tris[:, [0, 1, 0]] * n + tris[:, [1, 2, 2]])
        if missing.any():
            u, v = seg[int(np.argmax(missing))]
            raise DegenerateGeometryError(
                f"border segment ({int(u)}, {int(v)}) is not a mesh edge"
            )

    return Triangulation(triangles=tris, adjacency=_adjacency(tris))


# --- frame meshes ---


@dataclass(frozen=True)
class FrameMesh:
    """Triangulation of one frame's features plus the border control ring.

    Vertex indexing: 0..F-1 are feature vertices (feature_ids gives their
    trajectory ids, ascending), F..F+C-1 are control points in ring order.
    inner lists triangle indices whose vertices are all features; outer is
    the complement.  adjacency pairs triangles sharing an edge.
    """

    frame: int
    frame_size: tuple[int, int]
    feature_ids: np.ndarray
    feature_points: np.ndarray
    control_points: np.ndarray
    triangles: np.ndarray
    inner: np.ndarray
    outer: np.ndarray
    adjacency: tuple[tuple[int, int, tuple[int, int]], ...]
    merged_feature_ids: tuple[int, ...] = ()

    @property
    def n_features(self) -> int:
        return int(self.feature_points.shape[0])

    @cached_property
    def points(self) -> np.ndarray:
        """All vertex positions, features then controls (read-only)."""
        pts = np.vstack([self.feature_points, self.control_points])
        pts.flags.writeable = False
        return pts

    @cached_property
    def adjacency_array(self) -> np.ndarray:
        """adjacency as a read-only (P, 4) int array of rows (i, j, u, v)."""
        arr = np.array(
            [(i, j, u, v) for i, j, (u, v) in self.adjacency], dtype=np.int64
        ).reshape(-1, 4)
        arr.flags.writeable = False
        return arr

    def vertex_is_control(self, v: int) -> bool:
        return v >= self.n_features


def build_frame_mesh(ts: TrajectorySet, t: int, per_edge: int = 10) -> FrameMesh:
    """Mesh one frame of a trajectory set.

    Feature points closer than 1e-6 px merge into the lowest trajectory id;
    a feature that lands on a control point yields to the control point.
    A frame with no usable features still gets a control-point-only mesh
    (its inner set is then empty and the optimization skips shape terms).
    """
    w, h = ts.frame_size
    controls = make_control_points(w, h, per_edge)
    feats = frame_feature_set(ts, t)

    ids = np.array([fid for fid, _ in feats], dtype=np.int64)
    fpts = np.array([p for _, p in feats], dtype=np.float64).reshape(-1, 2)
    d2_control = np.sum((fpts[:, None, :] - controls[None, :, :]) ** 2, axis=2)
    keep = ~np.any(d2_control < DEDUP_EPS**2, axis=1)
    # close[i, j]: feature j comes before i and lies within DEDUP_EPS of it
    close = np.tril(np.hypot(fpts[:, None, 0] - fpts[None, :, 0],
                             fpts[:, None, 1] - fpts[None, :, 1]) < DEDUP_EPS, k=-1)
    for i in np.nonzero(close.any(axis=1))[0]:  # ascending id: lowest id survives
        keep[i] = keep[i] and not np.any(close[i] & keep)
    feat_arr = fpts[keep]
    pts = np.vstack([feat_arr, controls])
    tri = triangulate(pts, border=(0.0, 0.0, w - 1.0, h - 1.0))

    nf = feat_arr.shape[0]
    all_feature = np.all(tri.triangles < nf, axis=1)
    inner = np.nonzero(all_feature)[0]
    outer = np.nonzero(~all_feature)[0]
    return FrameMesh(
        frame=t,
        frame_size=(w, h),
        feature_ids=ids[keep],
        feature_points=feat_arr,
        control_points=controls,
        triangles=tri.triangles,
        inner=inner,
        outer=outer,
        adjacency=tri.adjacency,
        merged_feature_ids=tuple(ids[~keep].tolist()),
    )


def build_all_meshes(ts: TrajectorySet, per_edge: int = 10) -> list[FrameMesh]:
    """Meshes for every frame.  Frames are independent of each other."""
    return [build_frame_mesh(ts, t, per_edge) for t in range(ts.frame_count)]


# --- local coordinate systems ---


def similarity_coords(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> tuple[float, float]:
    """Coordinates (a, b) of v1 in the frame spanned by edge v2->v3.

    v1 = v2 + a*(v3 - v2) + b*rot90(v3 - v2), with rot90 mapping (x, y) to
    (y, -x).  Invariant under any translation+rotation+uniform-scale applied
    to all three points, which is what makes it usable as a rigidity
    measure.  Raises when v2 and v3 coincide.
    """
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    v3 = np.asarray(v3, dtype=np.float64)
    e = v3 - v2
    L = float(e[0] * e[0] + e[1] * e[1])
    if L <= (2.0 * AREA_EPS) ** 2:
        raise DegenerateGeometryError("similarity frame edge has zero length")
    d = v1 - v2
    a = float(d[0] * e[0] + d[1] * e[1]) / L
    b = float(d[0] * e[1] - d[1] * e[0]) / L
    return a, b


def reconstruct_similar(w2: np.ndarray, w3: np.ndarray, a: float, b: float) -> np.ndarray:
    """Place the vertex with edge-frame coordinates (a, b) over edge w2->w3."""
    w2 = np.asarray(w2, dtype=np.float64)
    w3 = np.asarray(w3, dtype=np.float64)
    e = w3 - w2
    return np.array([
        w2[0] + a * e[0] + b * e[1],
        w2[1] + a * e[1] - b * e[0],
    ])


def barycentric(p: np.ndarray, v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> tuple[float, float, float]:
    """Barycentric weights of p in triangle (v1, v2, v3); they sum to 1.

    Affine invariant.  Raises for triangles of (near) zero area.
    """
    p = np.asarray(p, dtype=np.float64)
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    v3 = np.asarray(v3, dtype=np.float64)
    denom = _orient(v1, v2, v3)
    if abs(denom) <= 2.0 * AREA_EPS:
        raise DegenerateGeometryError("barycentric weights of a degenerate triangle")
    wa = _orient(p, v2, v3) / denom
    wb = _orient(v1, p, v3) / denom
    wc = _orient(v1, v2, p) / denom
    return float(wa), float(wb), float(wc)
