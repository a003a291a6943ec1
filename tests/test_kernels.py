from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from meshstab import kernels
from meshstab.mesh import build_all_meshes
from meshstab.trajectory import FeatureTrajectory, TrajectorySet
from meshstab.warp import build_warp_field

from conftest import world_texture


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
    ref = kernels._corner_loops(gx, gy, 3)
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
    kernels._lk_loops(*args, pts, d1, s1, strict=1 if strict else 0, **kw)
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
    for impl in (kernels._lk_loops, kernels._lk_numpy):
        disp = np.zeros((1, 2))
        status = np.ones(1, dtype=np.int64)
        impl(flat, nxt, gx, gy, pts, disp, status,
             radius=7, max_iter=30, eps=0.01, min_eig_thr=1e-4, strict=1)
        assert status[0] == 0


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
    kernels._raster_loops(src, tris_xy, inv, out1, own1)
    out2 = np.zeros((H, W))
    own2 = np.full((H, W), -1, dtype=np.int64)
    kernels._raster_numpy(src, tris_xy, inv, out2, own2)
    assert np.array_equal(own1, own2)
    assert np.allclose(out1, out2, atol=1e-12)
    out3, own3 = kernels.rasterize(src, tris_xy, inv)
    assert np.array_equal(own3, own1)
    assert np.allclose(out3, out1, atol=1e-12)


_SUBPROC_SNIPPET = textwrap.dedent("""
    import numpy as np
    from meshstab import kernels
    from conftest import world_texture
    print(kernels.BACKEND)
    img = world_texture(np.random.default_rng(21), 40, 32)
    np.save({out!r}, kernels.corner_min_eig(img, 3))
""")


def _run_backend_subprocess(tmp_path, env_value):
    out = str(tmp_path / f"resp_{env_value or 'default'}.npy")
    env = dict(os.environ)
    if env_value is None:
        env.pop("MESHSTAB_NUMBA", None)
    else:
        env["MESHSTAB_NUMBA"] = env_value
    # the child imports conftest and the same meshstab as this process,
    # which pytest's own pythonpath setting does not pass on
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(__file__), os.path.dirname(os.path.dirname(kernels.__file__))]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROC_SNIPPET.format(out=out)],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip(), np.load(out)


def test_backend_env_flag(tmp_path):
    backend_off, resp_off = _run_backend_subprocess(tmp_path, "0")
    assert backend_off == "numpy"
    rng = np.random.default_rng(21)
    here = kernels.corner_min_eig(world_texture(rng, 40, 32), 3)
    scale = max(np.abs(here).max(), 1.0)
    assert np.abs(here - resp_off).max() <= 1e-9 * scale
    if importlib.util.find_spec("numba") is not None:
        backend_on, resp_on = _run_backend_subprocess(tmp_path, "1")
        assert backend_on == "numba"
        assert np.abs(resp_on - resp_off).max() <= 1e-9 * scale
