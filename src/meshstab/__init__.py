"""Video stabilization on adaptively triangulated feature meshes.

The pipeline: track feature trajectories (or synthesize a scene with known
ground truth), triangulate each frame over the features plus a fixed border
ring, solve a two-stage sparse quadratic program for stabilized feature and
control-point positions, then warp each frame through its per-triangle
affine maps.  `meshstab.cli` exposes the same steps as subcommands.
"""

from __future__ import annotations

from .errors import (
    DegenerateGeometryError,
    MeshstabError,
    ParseError,
    SolverError,
)
from .frames import GrayFrame, load_frame_dir, load_pnm, load_y4m, save_frame_dir, save_pgm
from .mesh import (
    FrameMesh,
    barycentric,
    build_all_meshes,
    build_frame_mesh,
    make_control_points,
    reconstruct_similar,
    similarity_coords,
    triangulate,
)
from .metrics import (
    SsimReport,
    StabilityReport,
    jitter_energy,
    ssim_pair,
    stability_score,
    video_ssim,
)
from .stage1 import StageOneConfig, assemble_stage1, solve, stabilize_stage1
from .stage2 import StabilizedControlPoints, solve_stage2
from .tracker import TrackerConfig, build_trajectories, detect_corners
from .trajectory import (
    FeatureTrajectory,
    SceneSpec,
    TrajectorySet,
    filter_short,
    load_trajectories,
    make_scene_spec,
    save_trajectories,
    synthesize_scene,
    validate_bounds,
)
from .warp import (
    FrameWarp,
    RenderStats,
    WarpField,
    apply_crop,
    build_warp_field,
    common_crop,
    load_warpfield,
    render,
    render_all,
    save_warpfield,
    triangle_affine,
)
from .weights import (
    LsmParams,
    LsmTable,
    TemporalWeightParams,
    build_lsm_table,
    lsm_weight,
    temporal_weight,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MeshstabError",
    "ParseError",
    "DegenerateGeometryError",
    "SolverError",
    "GrayFrame",
    "load_pnm",
    "save_pgm",
    "load_y4m",
    "load_frame_dir",
    "save_frame_dir",
    "FeatureTrajectory",
    "TrajectorySet",
    "SceneSpec",
    "filter_short",
    "validate_bounds",
    "load_trajectories",
    "save_trajectories",
    "make_scene_spec",
    "synthesize_scene",
    "TrackerConfig",
    "detect_corners",
    "build_trajectories",
    "FrameMesh",
    "make_control_points",
    "triangulate",
    "build_frame_mesh",
    "build_all_meshes",
    "similarity_coords",
    "reconstruct_similar",
    "barycentric",
    "TemporalWeightParams",
    "LsmParams",
    "LsmTable",
    "temporal_weight",
    "lsm_weight",
    "build_lsm_table",
    "StageOneConfig",
    "assemble_stage1",
    "solve",
    "stabilize_stage1",
    "StabilizedControlPoints",
    "solve_stage2",
    "FrameWarp",
    "WarpField",
    "RenderStats",
    "triangle_affine",
    "build_warp_field",
    "render",
    "render_all",
    "common_crop",
    "apply_crop",
    "save_warpfield",
    "load_warpfield",
    "StabilityReport",
    "SsimReport",
    "stability_score",
    "ssim_pair",
    "video_ssim",
    "jitter_energy",
]
