from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from meshstab.errors import DegenerateGeometryError
from meshstab.mesh import (
    AREA_EPS,
    _adjacency,
    barycentric,
    build_frame_mesh,
    make_control_points,
    reconstruct_similar,
    similarity_coords,
    triangulate,
)
from meshstab.trajectory import FeatureTrajectory, TrajectorySet

from conftest import random_set


def circumcircle_violations(pts: np.ndarray, tris: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Count (triangle, point) pairs where the point sits strictly inside
    the triangle's circumcircle.  O(n*m) on purpose; this is the oracle."""
    bad = 0
    for tri in tris:
        a, b, c = pts[tri[0]], pts[tri[1]], pts[tri[2]]
        # circumcenter from the two perpendicular-bisector equations
        m = 2.0 * np.array([[b[0] - a[0], b[1] - a[1]],
                            [c[0] - a[0], c[1] - a[1]]])
        rhs = np.array([b @ b - a @ a, c @ c - a @ a])
        center = np.linalg.solve(m, rhs)
        r = np.hypot(*(a - center))
        for k in range(pts.shape[0]):
            if k in (tri[0], tri[1], tri[2]):
                continue
            if np.hypot(*(pts[k] - center)) < r * (1.0 - rel_tol):
                bad += 1
    return bad


def tri_area(pts: np.ndarray, tri) -> float:
    a, b, c = pts[tri[0]], pts[tri[1]], pts[tri[2]]
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


def test_control_points_91():
    cp = make_control_points(91, 91)
    top = sorted(p[0] for p in cp if p[1] == 0.0)
    assert top == [float(v) for v in range(0, 91, 10)]


def test_control_points_count_and_corners():
    rng = np.random.default_rng(0)
    for _ in range(6):
        w = int(rng.integers(32, 640))
        h = int(rng.integers(32, 480))
        cp = make_control_points(w, h)
        assert cp.shape == (36, 2)
        assert len({(p[0], p[1]) for p in cp}) == 36
        for corner in ((0, 0), (w - 1, 0), (w - 1, h - 1), (0, h - 1)):
            assert any(np.array_equal(p, corner) for p in cp)
        # all on the border rectangle
        on = (cp[:, 0] == 0) | (cp[:, 0] == w - 1) | (cp[:, 1] == 0) | (cp[:, 1] == h - 1)
        assert on.all()


def test_triangulate_minimal_cases():
    t1 = triangulate(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
    assert t1.triangles.shape == (1, 3)

    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    t2 = triangulate(sq)
    assert t2.triangles.shape == (2, 3)
    assert abs(sum(tri_area(sq, t) for t in t2.triangles) - 1.0) < 1e-12

    with pytest.raises(DegenerateGeometryError):
        triangulate(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(DegenerateGeometryError):
        triangulate(np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)]))
    with pytest.raises(DegenerateGeometryError, match="coincide"):
        triangulate(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_triangulate_delaunay_property():
    rng = np.random.default_rng(101)
    for _ in range(10):
        pts = rng.uniform(0, 100, (20, 2))
        tri = triangulate(pts)
        assert circumcircle_violations(pts, tri.triangles) == 0
        # hull area equals the sum of triangle areas
        hull = ConvexHull(pts)
        total = sum(tri_area(pts, t) for t in tri.triangles)
        assert abs(total - hull.volume) < 1e-6 * hull.volume


@pytest.mark.parametrize("pts, error", [
    # passes the collinearity check, but its one triangle has area ~1.5e-12
    ([[0.0, 0.0], [1.0, 0.0], [0.5, 3e-12]], "area"),
    # area 5e-7, above AREA_EPS: a proper triangle
    ([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-6]], None),
    # two points 1e-4 px apart in a 1e10 px frame: Qhull leaves one out
    ([[0.0, 0.0], [1e10, 0.0], [0.0, 1e10], [1e10, 1e10], [3e9, 3e9],
      [3e9 + 1e-4, 3e9]], "left out"),
], ids=["flat_triangle", "thin_triangle", "point_left_out"])
def test_triangulate_never_returns_degenerate_output(pts, error):
    pts = np.array(pts)
    if error is None:
        assert triangulate(pts).triangles.shape == (1, 3)
    else:
        with pytest.raises(DegenerateGeometryError, match=error):
            triangulate(pts)


@pytest.mark.parametrize("gap, coincide", [(0.9e-6, True), (1.1e-6, False)])
def test_triangulate_coincidence_threshold(gap, coincide):
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0],
                    [5.0, 5.0], [5.0 + gap, 5.0]])
    if coincide:
        with pytest.raises(DegenerateGeometryError, match="points 4 and 5 coincide"):
            triangulate(pts)
    else:
        assert triangulate(pts).triangles.shape == (6, 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    cells=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                   unique=True, max_size=14),
    duplicate=st.booleans(),
    bordered=st.booleans(),
)
def test_triangulate_property_on_integer_grid(cells, duplicate, bordered):
    # a 7x7 grid makes collinear sets and cocircular ties common
    if bordered:
        cells += [c for c in [(0, 0), (6, 0), (6, 6), (0, 6)] if c not in cells]
    if duplicate and cells:
        cells.append(cells[len(cells) // 2])
    pts = np.array(cells, dtype=np.float64).reshape(-1, 2)
    try:
        tri = triangulate(pts, border=(0.0, 0.0, 6.0, 6.0) if bordered else None)
    except DegenerateGeometryError:
        return
    areas = np.array([tri_area(pts, t) for t in tri.triangles])
    assert np.all(areas > AREA_EPS)
    hull = ConvexHull(pts).volume
    assert abs(areas.sum() - hull) <= 1e-9 * hull
    assert circumcircle_violations(pts, tri.triangles) == 0


def test_adjacency_matches_shared_vertex_count():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 50, (15, 2))
    tri = triangulate(pts)
    tris = tri.triangles
    pairs = {(i, j) for i, j, _ in tri.adjacency}
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            shared = len(set(tris[i]) & set(tris[j]))
            assert ((i, j) in pairs) == (shared == 2)
    assert list(tri.adjacency) == sorted(tri.adjacency)
    for i, j, (u, v) in tri.adjacency:
        assert u < v
        assert {u, v} <= set(tris[i]) and {u, v} <= set(tris[j])
    # an edge bounding three triangles is not a triangulation
    with pytest.raises(DegenerateGeometryError, match="bounds 3 triangles"):
        _adjacency(np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4], [2, 3, 5]]))


def test_frame_mesh_single_feature_all_outer():
    ts = TrajectorySet(
        (FeatureTrajectory(id=0, start_frame=0,
                           points=np.tile([32.0, 24.0], (4, 1))),),
        4, (64, 48))
    mesh = build_frame_mesh(ts, 0)
    assert mesh.n_features == 1
    assert len(mesh.inner) == 0
    assert len(mesh.outer) == len(mesh.triangles)


def test_frame_mesh_three_features_one_inner():
    pts0 = np.array([[20.0, 15.0], [44.0, 18.0], [30.0, 34.0]])
    trajs = tuple(
        FeatureTrajectory(id=i, start_frame=0, points=np.tile(pts0[i], (4, 1)))
        for i in range(3)
    )
    mesh = build_frame_mesh(TrajectorySet(trajs, 4, (64, 48)), 0)
    assert len(mesh.inner) == 1
    tri = mesh.triangles[mesh.inner[0]]
    assert sorted(tri) == [0, 1, 2]


def test_frame_mesh_classification_and_tiling():
    rng = np.random.default_rng(55)
    for _ in range(5):
        ts = random_set(rng, n_traj=50, frame_count=4, width=320, height=240)
        mesh = build_frame_mesh(ts, 2)
        w, h = mesh.frame_size
        pts = mesh.points
        total = sum(tri_area(pts, t) for t in mesh.triangles)
        expect = (w - 1.0) * (h - 1.0)
        assert abs(total - expect) < 1e-6 * expect
        # brute-force re-derivation of inner/outer from vertex indices
        inner_bf = {k for k, t in enumerate(mesh.triangles)
                    if all(v < mesh.n_features for v in t)}
        assert set(mesh.inner.tolist()) == inner_bf
        assert set(mesh.outer.tolist()) == set(range(len(mesh.triangles))) - inner_bf
        assert len(set(mesh.inner) & set(mesh.outer)) == 0


@pytest.mark.parametrize("points, kept, merged", [
    # id 5 sits on id 2
    ({2: [40.0, 30.0], 5: [40.0 + 1e-8, 30.0 + 1e-8], 7: [20.0, 20.0]},
     [2, 7], (5,)),
    # chain: 3-4 and 4-6 are within 1e-6 px, 3-6 is not; 4 merges into 3,
    # and 6 is compared only against kept features, so it stays
    ({3: [40.0, 30.0], 4: [40.0 + 0.8e-6, 30.0], 6: [40.0 + 1.6e-6, 30.0],
      9: [20.0, 20.0]},
     [3, 6, 9], (4,)),
    # id 1 lands on the control point at the top-left corner
    ({1: [1e-8, 0.0], 2: [40.0, 30.0], 8: [20.0, 20.0]}, [2, 8], (1,)),
], ids=["pair", "chain", "on_control"])
def test_frame_mesh_duplicate_features_merge_to_lowest_id(points, kept, merged):
    trajs = tuple(FeatureTrajectory(id=i, start_frame=0, points=np.tile(p, (4, 1)))
                  for i, p in points.items())
    mesh = build_frame_mesh(TrajectorySet(trajs, 4, (64, 48)), 0)
    assert mesh.feature_ids.tolist() == kept
    assert mesh.merged_feature_ids == merged
    assert np.array_equal(mesh.feature_points,
                          np.array([points[i] for i in kept]))


@pytest.mark.parametrize("width, height, per_edge", [
    (64, 48, 10), (320, 240, 10), (91, 91, 10), (100, 100, 4),
    (160, 120, 5), (2, 2, 2), (3, 3, 3), (200, 20, 12),
])
def test_frame_mesh_no_features_is_control_only(width, height, per_edge):
    # the control ring is full of cocircular ties; any tie-break must still
    # give a Delaunay triangulation of C - 2 proper triangles over the frame
    ts = TrajectorySet((), 3, (width, height))
    mesh = build_frame_mesh(ts, 1, per_edge)
    c = mesh.control_points.shape[0]
    assert mesh.n_features == 0
    assert len(mesh.inner) == 0
    assert mesh.triangles.shape == (c - 2, 3)
    areas = np.array([tri_area(mesh.points, t) for t in mesh.triangles])
    assert np.all(areas > AREA_EPS)
    expect = (width - 1.0) * (height - 1.0)
    assert abs(areas.sum() - expect) <= 1e-9 * expect
    edges = {tuple(sorted((int(u), int(v))))
             for t in mesh.triangles for u, v in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))}
    for k in range(c):
        assert tuple(sorted((k, (k + 1) % c))) in edges
    assert circumcircle_violations(mesh.points, mesh.triangles) == 0


def _dump_mesh(mesh) -> str:
    """Text dump: vertex lines then triangle lines with an inner/outer tag."""
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


def test_mesh_determinism():
    rng = np.random.default_rng(63)
    ts = random_set(rng, n_traj=20, frame_count=3, width=160, height=120)
    a = build_frame_mesh(ts, 1)
    b = build_frame_mesh(ts, 1)
    assert np.array_equal(a.triangles, b.triangles)
    assert a.adjacency == b.adjacency
    assert _dump_mesh(a) == _dump_mesh(b)


def test_similarity_coords_hand_values():
    a, b = similarity_coords(np.array([0.0, 1.0]), np.array([0.0, 0.0]),
                             np.array([1.0, 0.0]))
    assert abs(a - 0.0) < 1e-12 and abs(b - (-1.0)) < 1e-12
    a, b = similarity_coords(np.array([0.5, 0.0]), np.array([0.0, 0.0]),
                             np.array([1.0, 0.0]))
    assert abs(a - 0.5) < 1e-12 and abs(b) < 1e-12
    with pytest.raises(DegenerateGeometryError):
        similarity_coords(np.array([1.0, 1.0]), np.array([2.0, 2.0]),
                          np.array([2.0, 2.0]))


def test_similarity_round_trip_and_invariance():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        v = rng.uniform(-10, 10, (3, 2))
        if np.hypot(*(v[1] - v[2])) < 1e-3:
            continue
        a, b = similarity_coords(v[0], v[1], v[2])
        rec = reconstruct_similar(v[1], v[2], a, b)
        assert np.abs(rec - v[0]).max() <= 1e-9 * max(1.0, np.abs(v).max())

        th = rng.uniform(-np.pi, np.pi)
        s = rng.uniform(0.3, 3.0)
        rot = s * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        tv = rng.uniform(-20, 20, 2)
        w = v @ rot.T + tv
        a2, b2 = similarity_coords(w[0], w[1], w[2])
        assert abs(a2 - a) <= 1e-9 * (1 + abs(a))
        assert abs(b2 - b) <= 1e-9 * (1 + abs(b))


def test_barycentric_hand_values():
    v1, v2, v3 = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.allclose(barycentric(v1, v1, v2, v3), (1.0, 0.0, 0.0), atol=1e-12)
    cen = (v1 + v2 + v3) / 3.0
    assert np.allclose(barycentric(cen, v1, v2, v3), (1 / 3, 1 / 3, 1 / 3), atol=1e-12)
    # outside points are legal: coordinates just go negative
    assert np.allclose(barycentric(np.array([2.0, 0.0]), v1, v2, v3),
                       (-1.0, 2.0, 0.0), atol=1e-12)
    with pytest.raises(DegenerateGeometryError):
        barycentric(cen, v1, v2, (v1 + v2) / 2.0)


def test_barycentric_reproduces_point():
    rng = np.random.default_rng(88)
    for _ in range(1000):
        v = rng.uniform(-5, 5, (3, 2))
        if tri_area(v, (0, 1, 2)) < 1e-3:
            continue
        p = rng.uniform(-8, 8, 2)
        a, b, c = barycentric(p, v[0], v[1], v[2])
        assert abs(a + b + c - 1.0) <= 1e-9
        rec = a * v[0] + b * v[1] + c * v[2]
        assert np.abs(rec - p).max() <= 1e-9 * max(1.0, np.abs(p).max())
