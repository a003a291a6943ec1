"""Per-frame triangle meshes over feature points and fixed border points.

Each frame gets a Delaunay triangulation of its live feature points plus a
ring of evenly spaced control points on the frame border, built with an
incremental insertion scheme (super-rectangle, cavity retriangulation) and
cleaned up by local edge flips.  The border segments between consecutive
border vertices are verified present, so the mesh always tiles the frame
rectangle exactly.

Triangles whose three vertices are all feature points are "inner"; the rest
("outer") touch at least one control point.  The two coordinate helpers at
the bottom express a vertex in the local frame of a triangle edge
(rotation+scale invariant) and as barycentric weights (affine invariant);
the optimization stages build their shape-preserving terms from them.

All functions are pure and deterministic; meshes for different frames can
be built concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "dump_mesh",
]

AREA_EPS = 1e-9          # triangles at or below this area are degenerate
DEDUP_EPS = 1e-6         # vertices closer than this merge
_INCIRCLE_EPS = 1e-12    # normalized-coordinate predicate cutoff


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


# --- geometric predicates ---


def _orient(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Twice the signed area of triangle (p, q, r); positive = CCW."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])


def _incircle(P: np.ndarray, tri: tuple[int, int, int], p: np.ndarray) -> float:
    """Positive when p lies strictly inside the circumcircle of CCW tri."""
    a, b, c = P[tri[0]], P[tri[1]], P[tri[2]]
    adx, ady = a[0] - p[0], a[1] - p[1]
    bdx, bdy = b[0] - p[0], b[1] - p[1]
    cdx, cdy = c[0] - p[0], c[1] - p[1]
    a2 = adx * adx + ady * ady
    b2 = bdx * bdx + bdy * bdy
    c2 = cdx * cdx + cdy * cdy
    return (adx * (bdy * c2 - b2 * cdy)
            - ady * (bdx * c2 - b2 * cdx)
            + a2 * (bdx * cdy - bdy * cdx))


# --- incremental triangulation ---


class _Triangulator:
    """Bowyer-Watson insertion into a super-rectangle, then Delaunay flips."""

    def __init__(self, pts: np.ndarray):
        self.n = pts.shape[0]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
        self.norm = (pts - lo) / span  # real points in [0, 1]^2
        m = 10.0
        sup = np.array([[-m, -m], [1 + m, -m], [1 + m, 1 + m], [-m, 1 + m]])
        self.P = np.vstack([self.norm, sup])
        s = self.n
        self.tris: list[list[int]] = [[s, s + 1, s + 2], [s, s + 2, s + 3]]
        self.alive: list[bool] = [True, True]

    def insert_all(self) -> None:
        for p in range(self.n):
            self._insert(p)

    def _insert(self, p: int) -> None:
        px, py = self.P[p]
        live = [i for i, a in enumerate(self.alive) if a]
        idx = np.array([self.tris[i] for i in live])
        A = self.P[idx[:, 0]]
        B = self.P[idx[:, 1]]
        C = self.P[idx[:, 2]]
        adx, ady = A[:, 0] - px, A[:, 1] - py
        bdx, bdy = B[:, 0] - px, B[:, 1] - py
        cdx, cdy = C[:, 0] - px, C[:, 1] - py
        a2 = adx * adx + ady * ady
        b2 = bdx * bdx + bdy * bdy
        c2 = cdx * cdx + cdy * cdy
        det = (adx * (bdy * c2 - b2 * cdy)
               - ady * (bdx * c2 - b2 * cdx)
               + a2 * (bdx * cdy - bdy * cdx))
        bad = [live[k] for k in np.nonzero(det > _INCIRCLE_EPS)[0]]
        if not bad:
            raise DegenerateGeometryError(
                f"insertion point {p} found no containing circumcircle"
            )
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            a, b, c = self.tris[t]
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                edge_count[key] = edge_count.get(key, 0) + 1
        for t in bad:
            self.alive[t] = False
            a, b, c = self.tris[t]
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                if edge_count[key] == 1:
                    self.tris.append([u, v, p])
                    self.alive.append(True)

    def real_triangles(self) -> list[list[int]]:
        out = []
        for t, a in zip(self.tris, self.alive):
            if a and max(t) < self.n:
                out.append(list(t))
        return out


def _third_vertex(tri: list[int], u: int, v: int) -> int:
    for w in tri:
        if w != u and w != v:
            return w
    raise ValueError(f"edge ({u}, {v}) not in triangle {tri}")


def _edge_map(tris: list[list[int]]) -> dict[tuple[int, int], list[int]]:
    em: dict[tuple[int, int], list[int]] = {}
    for i, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            em.setdefault(key, []).append(i)
    return em


def _flip(P: np.ndarray, tris: list[list[int]], em: dict, key: tuple[int, int]) -> tuple[int, int] | None:
    """Replace the two triangles on edge `key` by the opposite diagonal.

    Returns the new diagonal, or None when the flip is not applicable
    (boundary edge or non-convex quad).
    """
    owners = em.get(key)
    if owners is None or len(owners) != 2:
        return None
    t1, t2 = owners
    u, v = key
    c = _third_vertex(tris[t1], u, v)
    d = _third_vertex(tris[t2], u, v)
    # the quad u, c, v, d must be strictly convex for the diagonal swap
    if _orient(P[c], P[d], P[u]) * _orient(P[c], P[d], P[v]) >= 0:
        return None
    new1 = [u, c, d]
    new2 = [v, c, d]
    if _orient(P[new1[0]], P[new1[1]], P[new1[2]]) < 0:
        new1[1], new1[2] = new1[2], new1[1]
    if _orient(P[new2[0]], P[new2[1]], P[new2[2]]) < 0:
        new2[1], new2[2] = new2[2], new2[1]
    for t in (t1, t2):
        a, b, cc = tris[t]
        for e0, e1 in ((a, b), (b, cc), (cc, a)):
            k = (e0, e1) if e0 < e1 else (e1, e0)
            em[k].remove(t)
            if not em[k]:
                del em[k]
    tris[t1] = new1
    tris[t2] = new2
    for t in (t1, t2):
        a, b, cc = tris[t]
        for e0, e1 in ((a, b), (b, cc), (cc, a)):
            k = (e0, e1) if e0 < e1 else (e1, e0)
            em.setdefault(k, []).append(t)
    return (c, d) if c < d else (d, c)


def _lawson_pass(P: np.ndarray, tris: list[list[int]]) -> None:
    """Flip interior edges until every adjacent pair is locally Delaunay."""
    em = _edge_map(tris)
    queue = deque(sorted(em.keys()))
    guard = 0
    cap = 20 * (len(tris) ** 2 + 100)
    while queue:
        guard += 1
        if guard > cap:
            raise DegenerateGeometryError("edge flip pass did not terminate")
        key = queue.popleft()
        owners = em.get(key)
        if owners is None or len(owners) != 2:
            continue
        t1, t2 = owners
        d = _third_vertex(tris[t2], *key)
        if _incircle(P, tuple(tris[t1]), P[d]) <= _INCIRCLE_EPS:
            continue
        new_diag = _flip(P, tris, em, key)
        if new_diag is None:
            continue
        u, v = key
        c, dd = new_diag
        for a, b in ((u, c), (c, v), (v, dd), (dd, u)):
            queue.append((a, b) if a < b else (b, a))


def _segments_cross(p1, p2, q1, q2) -> bool:
    """True when open segments p1p2 and q1q2 properly intersect."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def _recover_segment(P: np.ndarray, tris: list[list[int]], u: int, v: int) -> None:
    """Force the edge (u, v) into the triangulation by flipping crossers."""
    for _ in range(4 * len(tris) + 16):
        em = _edge_map(tris)
        key = (u, v) if u < v else (v, u)
        if key in em:
            return
        flipped = False
        for (a, b) in sorted(em.keys()):
            if a in (u, v) or b in (u, v):
                continue
            if _segments_cross(P[a], P[b], P[u], P[v]):
                if _flip(P, tris, em, (a, b)) is not None:
                    flipped = True
                    break
        if not flipped:
            raise DegenerateGeometryError(
                f"could not recover constrained edge ({u}, {v})"
            )
    raise DegenerateGeometryError(f"edge recovery for ({u}, {v}) did not terminate")


@dataclass(frozen=True)
class Triangulation:
    """Triangle index triples (each sorted ascending, list in lex order) and
    the adjacency list of triangle pairs sharing an edge."""

    triangles: np.ndarray
    adjacency: tuple[tuple[int, int, tuple[int, int]], ...]


def _canonicalize(tris: list[list[int]]) -> np.ndarray:
    arr = np.sort(np.asarray(tris, dtype=np.int64), axis=1)
    order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))
    return arr[order]


def _adjacency(tris: np.ndarray) -> tuple[tuple[int, int, tuple[int, int]], ...]:
    em: dict[tuple[int, int], list[int]] = {}
    for i, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (a, c)):
            key = (min(u, v), max(u, v))
            em.setdefault(key, []).append(i)
    pairs = []
    for key, owners in em.items():
        if len(owners) == 2:
            i, j = sorted(owners)
            pairs.append((i, j, key))
        elif len(owners) > 2:
            raise DegenerateGeometryError(f"edge {key} bounds {len(owners)} triangles")
    pairs.sort()
    return tuple((int(i), int(j), (int(u), int(v))) for i, j, (u, v) in pairs)


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
    """Delaunay-triangulate a point set, optionally pinned to a border rect.

    `points` must be pairwise distinct (beyond 1e-6 px) and not all
    collinear.  With `border` = (x0, y0, x1, y1), all points must lie inside
    the rectangle, the four corners must be among the points, and every
    border segment between consecutive border points is guaranteed to be a
    mesh edge on return.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    if pts.shape[0] < 3:
        raise DegenerateGeometryError(f"need >= 3 points, got {pts.shape[0]}")
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    if d2.min() < DEDUP_EPS**2:
        i, j = np.unravel_index(int(d2.argmin()), d2.shape)
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

    tr = _Triangulator(pts)
    tr.insert_all()
    tris = tr.real_triangles()
    if not tris:
        raise DegenerateGeometryError("triangulation produced no triangles")
    P = tr.norm
    _lawson_pass(P, tris)

    if border is not None:
        em = _edge_map(tris)
        for chain in _border_chains(pts, border):
            for u, v in zip(chain, chain[1:]):
                key = (u, v) if u < v else (v, u)
                if key not in em:
                    _recover_segment(P, tris, u, v)
                    em = _edge_map(tris)

    arr = _canonicalize(tris)
    return Triangulation(triangles=arr, adjacency=_adjacency(arr))


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

    kept_ids: list[int] = []
    kept_pts: list[np.ndarray] = []
    merged: list[int] = []
    for fid, p in feats:  # ascending id, so the lowest id survives a merge
        clash = any(np.hypot(*(p - q)) < DEDUP_EPS for q in kept_pts)
        clash = clash or bool(np.min(np.sum((controls - p) ** 2, axis=1)) < DEDUP_EPS**2)
        if clash:
            merged.append(fid)
        else:
            kept_ids.append(fid)
            kept_pts.append(np.asarray(p, dtype=np.float64))

    feat_arr = np.array(kept_pts) if kept_pts else np.zeros((0, 2))
    pts = np.vstack([feat_arr, controls])
    tri = triangulate(pts, border=(0.0, 0.0, w - 1.0, h - 1.0))

    nf = feat_arr.shape[0]
    all_feature = np.all(tri.triangles < nf, axis=1)
    inner = np.nonzero(all_feature)[0]
    outer = np.nonzero(~all_feature)[0]
    return FrameMesh(
        frame=t,
        frame_size=(w, h),
        feature_ids=np.array(kept_ids, dtype=np.int64),
        feature_points=feat_arr,
        control_points=controls,
        triangles=tri.triangles,
        inner=inner,
        outer=outer,
        adjacency=tri.adjacency,
        merged_feature_ids=tuple(merged),
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


def dump_mesh(mesh: FrameMesh) -> str:
    """Debug text dump: vertex lines then triangle lines with an
    inner/outer tag."""
    lines = [f"frame {mesh.frame} {mesh.frame_size[0]} {mesh.frame_size[1]}"]
    for fid, p in zip(mesh.feature_ids, mesh.feature_points):
        lines.append(f"v {float(p[0])!r} {float(p[1])!r} feature {int(fid)}")
    for p in mesh.control_points:
        lines.append(f"v {float(p[0])!r} {float(p[1])!r} control")
    inner = set(int(i) for i in mesh.inner)
    for k, (a, b, c) in enumerate(mesh.triangles):
        tag = "inner" if k in inner else "outer"
        lines.append(f"t {int(a)} {int(b)} {int(c)} {tag}")
    return "\n".join(lines) + "\n"
