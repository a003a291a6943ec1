"""Workload definitions and seeded input generation.

Every input a run feeds to meshstab is made here: trajectory files from
meshstab's scene synthesizer, and 8-bit PGM frames cut from a smoothed-noise
"world" texture. The pipeline under test only ever sees the files written
here.

Each workload films fixed scenes: the scene points of a synthetic clip and
the world texture of a video clip depend only on the workload and the clip's
index. The seed draws the camera path and the shake. The work a clip takes
then varies little from seed to seed; with the scene drawn from the seed
too, the stabilize time of a tracked clip varied by a third between seeds,
because the texture decides how many features the tracker finds.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from meshstab.trajectory import make_scene_spec, save_trajectories, synthesize_scene

# world texture border around the visible frame, in pixels; wider than any
# camera excursion below so frames never sample past the texture edge
WORLD_MARGIN = 64


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a clip size, a source of trajectories, a count.

    kind "synth": trajectories come from ``meshstab synth`` (full-span,
    known shake) and frames are cut along the recovered camera motion.
    kind "video": only frames are written; ``meshstab track`` makes the
    trajectories.
    """

    name: str
    why: str
    kind: str
    width: int
    height: int
    frames: int
    clips: int = 1
    background: int = 0
    path_amplitude: float = 8.0
    jitter_translation: float = 3.0
    jitter_rotation: float = 0.5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth_dense",
            why="one 320x240 clip with 200 full-span features per frame: "
                "meshing and LSM weights dominate and stage 1 takes its PCG path",
            kind="synth", width=320, height=240, frames=40, background=200,
        ),
        Workload(
            name="synth_clips",
            why="a batch of 160x120 clips with 8 features each: stage 1 takes its "
                "dense path and per-frame stage 2 and crop search dominate",
            kind="synth", width=160, height=120, frames=50, clips=6,
            background=8,
        ),
        Workload(
            name="video_track",
            why="textured 320x240 frames run through track first: the only "
                "workload where the tracker and the LK and corner kernels run",
            kind="video", width=320, height=240, frames=40,
            path_amplitude=25.0, jitter_translation=0.6, jitter_rotation=0.0,
        ),
    )
}


@dataclass(frozen=True)
class ClipInputs:
    """Paths and geometry of one generated clip."""

    root: Path
    frames_dir: Path
    trajectories: Path | None  # None: the clip is tracked first
    width: int
    height: int
    frames: int


def world_texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Smoothed noise at two scales, spread over [16, 239] grey levels."""
    fine = gaussian_filter(rng.standard_normal((height, width)), 1.5)
    coarse = gaussian_filter(rng.standard_normal((height, width)), 6.0)
    img = fine / fine.std() + 0.5 * coarse / coarse.std()
    img = (img - img.min()) / (img.max() - img.min())
    return 16.0 + 223.0 * img


def write_pgm(path: Path, img: np.ndarray) -> None:
    u8 = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    h, w = u8.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + u8.tobytes())


def _cut_frame(world: np.ndarray, inv: np.ndarray, width: int, height: int) -> np.ndarray:
    """Sample `world` at inv @ [x, y, 1] for every frame pixel (x, y).

    inv is the 2x3 map from frame pixels to world coordinates, where world
    (0, 0) is the first frame's top-left pixel.
    """
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    wx = inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2] + WORLD_MARGIN
    wy = inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2] + WORLD_MARGIN
    return map_coordinates(world, [wy, wx], order=1, mode="nearest")


def _fit_similarity(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Least-squares 2x3 similarity [[a, -b, tx], [b, a, ty]] with dst ~ S src."""
    n = src.shape[0]
    m = np.zeros((2 * n, 4))
    m[0::2] = np.column_stack([src[:, 0], -src[:, 1], np.ones(n), np.zeros(n)])
    m[1::2] = np.column_stack([src[:, 1], src[:, 0], np.zeros(n), np.ones(n)])
    a, b, tx, ty = np.linalg.lstsq(m, dst.reshape(-1), rcond=None)[0]
    return np.array([[a, -b, tx], [b, a, ty]])


def _invert_affine(aff: np.ndarray) -> np.ndarray:
    lin = np.linalg.inv(aff[:, :2])
    return np.column_stack([lin, -lin @ aff[:, 2]])


def _scene_seed(w: Workload, k: int) -> int:
    """Seed of the fixed scene of clip k of workload w; the run seed does not enter it."""
    rng = np.random.default_rng([w.width, w.height, w.frames, w.background, k])
    return int(rng.integers(0, 2**31 - 1))


def _synth_clip(w: Workload, k: int, root: Path, rng: np.random.Generator) -> ClipInputs:
    spec = make_scene_spec(
        width=w.width, height=w.height, frame_count=w.frames, n_background=w.background,
        seed=_scene_seed(w, k),
        path_amplitude=w.path_amplitude, jitter_translation=w.jitter_translation,
        jitter_rotation_deg=w.jitter_rotation)
    shaky, truth = synthesize_scene(spec, int(rng.integers(0, 2**31 - 1)))
    shaky_path = root / "shaky.traj"
    save_trajectories(shaky, shaky_path)
    base = np.array([tr.points[0] for tr in truth.trajectories])
    world = world_texture(np.random.default_rng(_scene_seed(w, k)),
                          w.height + 2 * WORLD_MARGIN, w.width + 2 * WORLD_MARGIN)
    frames_dir = root / "frames"
    frames_dir.mkdir()
    for t in range(w.frames):
        tru = np.array([tr.points[t] for tr in truth.trajectories])
        shk = np.array([tr.points[t] for tr in shaky.trajectories])
        # the scene translates rigidly by the smooth path; the shake is the
        # similarity sending the true positions onto the shaky ones
        cam = (tru - base).mean(axis=0)
        inv = _invert_affine(_fit_similarity(tru, shk))
        inv[:, 2] -= cam
        write_pgm(frames_dir / f"f{t:04d}.pgm", _cut_frame(world, inv, w.width, w.height))
    return ClipInputs(root, frames_dir, shaky_path, w.width, w.height, w.frames)


def _video_clip(w: Workload, k: int, root: Path, rng: np.random.Generator) -> ClipInputs:
    world = world_texture(np.random.default_rng(_scene_seed(w, k)),
                          w.height + 2 * WORLD_MARGIN, w.width + 2 * WORLD_MARGIN)
    tau = np.linspace(0.0, 1.0, w.frames)
    path = np.zeros((w.frames, 2))
    for axis in range(2):
        c = rng.uniform(-1.0, 1.0, size=3)
        vals = c[0] * tau + c[1] * tau**2 + c[2] * tau**3
        path[:, axis] = vals * (w.path_amplitude / max(np.abs(vals).max(), 1e-12))
    shake = rng.uniform(-w.jitter_translation, w.jitter_translation, size=(w.frames, 2))
    frames_dir = root / "frames"
    frames_dir.mkdir()
    for t in range(w.frames):
        inv = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        inv[:, 2] = path[t] + shake[t]
        write_pgm(frames_dir / f"f{t:04d}.pgm", _cut_frame(world, inv, w.width, w.height))
    return ClipInputs(root, frames_dir, None, w.width, w.height, w.frames)


def make_inputs(w: Workload, seed: int, workdir: Path) -> list[ClipInputs]:
    """Write every clip of workload `w` for `seed` under `workdir` (emptied first)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng([seed, w.frames, w.width])
    clips = []
    for k in range(w.clips):
        root = workdir / f"clip{k}"
        root.mkdir()
        make = _synth_clip if w.kind == "synth" else _video_clip
        clips.append(make(w, k, root, rng))
    return clips
