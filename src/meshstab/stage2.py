"""Per-frame solves for stabilized border control points.

Stage 1 fixes the feature vertices; this stage moves only the border
controls of each frame so the outer triangles deform consistently with the
stabilized interior.  It minimizes the same two shape terms as stage 1,
built by the same row builders (stage1.intersim_rows/intrasim_rows):
similarity reconstruction over the outer triangles, weighted gamma, and
barycentric consistency over every adjacent pair touching an outer
triangle, weighted epsilon once per outer triangle in the pair.

The rows R, with weights W, are built over all 2(F+C) vertex coordinates
of the frame, F features first, and split at column 2F: R = [R_f R_c].
The stabilized feature coordinates f are fixed, so each row's feature part
is a value s = R_f f, which leaves a dense 2C-unknown problem per frame,

    E(x) = x' A x - 2 b' x + const,   A = R_c' W R_c,   b = -R_c' W s,   const = s' W s,

formed from the rows scaled by W^1/2 and solved by Cholesky.  Frames are independent of each other.

There is no tie to original control positions, so a frame without enough
fixed anchors (fewer than 2 non-coincident features) leaves a similarity
gauge freedom and a singular system; such frames fall back to their
original control points and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mesh import FrameMesh
from .stage1 import StageOneConfig, intersim_rows, intrasim_rows
from .trajectory import TrajectorySet

__all__ = [
    "StageTwoFrameProblem",
    "StabilizedControlPoints",
    "assemble_stage2_frame",
    "solve_frame",
    "solve_stage2",
]

SINGULAR_EIG_RATIO = 1e-10


@dataclass(frozen=True)
class StageTwoFrameProblem:
    """One frame's objective x' a x - 2 b' x + const over its controls.

    x stacks the control points as (c0x, c0y, c1x, c1y, ...).
    """

    a: np.ndarray
    b: np.ndarray
    const: float

    @property
    def n(self) -> int:
        return int(self.b.shape[0])

    def objective(self, x: np.ndarray) -> float:
        return float(x @ (self.a @ x) - 2.0 * (self.b @ x) + self.const)


def assemble_stage2_frame(
    mesh: FrameMesh,
    stab_feat: np.ndarray,
    cfg: StageOneConfig = StageOneConfig(),
) -> StageTwoFrameProblem:
    """Both outer terms for one frame; gamma/epsilon reuse stage-1 values."""
    stab_feat = np.asarray(stab_feat, dtype=np.float64)
    if stab_feat.shape != (mesh.n_features, 2):
        raise ValueError(
            f"stabilized features shape {stab_feat.shape} does not match "
            f"mesh with {mesh.n_features} features"
        )
    n = 2 * mesh.points.shape[0]
    pairs = mesh.adjacency
    n_outer = np.isin(pairs[:, :2], mesh.outer).sum(axis=1)
    touching = n_outer > 0
    nf = 2 * mesh.n_features
    fz = np.zeros(n)  # f, then zeros for the controls
    fz[:nf] = stab_feat.ravel()
    sw = np.sqrt(np.concatenate([np.full(6 * mesh.outer.size, cfg.gamma),
                                 np.repeat(cfg.epsilon * n_outer[touching], 4)]))
    sr, ss = np.zeros((sw.size, n - nf)), np.empty(sw.size)  # W^1/2 R_c and W^1/2 s
    lo = 0
    for k, c in (intersim_rows(mesh, mesh.outer), intrasim_rows(mesh, pairs[touching])):
        hi = lo + k.shape[0]
        c = c * sw[lo:hi, None]
        row, j = np.nonzero(k >= nf)
        sr[lo + row, k[row, j] - nf] = c[row, j]
        ss[lo:hi] = (c * fz[k]).sum(axis=1)
        lo = hi
    return StageTwoFrameProblem(a=sr.T @ sr, b=-(sr.T @ ss), const=float(ss @ ss))


def solve_frame(prob: StageTwoFrameProblem) -> np.ndarray | None:
    """Minimizer of the frame problem, or None when the system is singular."""
    eig = np.linalg.eigvalsh(prob.a)
    if eig[0] <= SINGULAR_EIG_RATIO * max(eig[-1], np.finfo(np.float64).tiny):
        return None
    try:
        cf = scipy.linalg.cho_factor(prob.a)
    except np.linalg.LinAlgError:
        return None
    return scipy.linalg.cho_solve(cf, prob.b)


@dataclass(frozen=True)
class StabilizedControlPoints:
    """Stabilized border controls per frame, plus the frames that fell back."""

    points: np.ndarray  # (frame_count, n_controls, 2)
    fallback_frames: tuple[int, ...] = ()


def solve_stage2(
    meshes: list[FrameMesh],
    stabilized_features: TrajectorySet,
    cfg: StageOneConfig = StageOneConfig(),
) -> StabilizedControlPoints:
    """Solve every frame independently.

    Frames whose system is singular (too few anchoring features) keep
    their original control points and are reported in fallback_frames.
    """
    obs = stabilized_features.observations
    out = []
    fallback: list[int] = []
    for mesh in meshes:
        stab_feat = obs.points[obs.rows(mesh.frame, mesh.feature_ids)]
        prob = assemble_stage2_frame(mesh, stab_feat, cfg)
        x = solve_frame(prob)
        if x is None:
            fallback.append(mesh.frame)
            out.append(mesh.control_points.copy())
        else:
            out.append(x.reshape(-1, 2))
    return StabilizedControlPoints(
        points=np.array(out), fallback_frames=tuple(fallback)
    )
