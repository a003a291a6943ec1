"""Per-frame solves for stabilized border control points.

Stage 1 fixes the feature vertices; this stage moves only the border
controls of each frame so the outer triangles deform consistently with the
stabilized interior.  It minimizes the same two shape terms as stage 1,
built by the same row builders (stage1.intersim_rows/intrasim_rows):
similarity reconstruction over the outer triangles, weighted gamma, and
barycentric consistency over every adjacent pair touching an outer
triangle, weighted epsilon once per outer triangle in the pair.

The rows are built over all 2(F+C) vertex coordinates of the frame, F
features first, and summed into one dense quadratic form A.  Splitting A
at 2F into feature and control blocks and substituting the stabilized
feature coordinates f leaves a dense 2C-unknown problem per frame,

    E(x) = x' A_cc x + 2 x' A_cf f + f' A_ff f,

solved by Cholesky.  Frames are independent of each other.

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
from .stage1 import StageOneConfig, gram_entries, intersim_rows, intrasim_rows
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


def _gram(n: int, k: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense n x n sum over rows r of w[r] q_r q_r', q_r = c[r] at k[r]."""
    i, j, v = gram_entries(w, k, c)
    return np.bincount(i * n + j, v, minlength=n * n).reshape(n, n)


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
    pairs = mesh.adjacency_array
    n_outer = np.isin(pairs[:, :2], mesh.outer).sum(axis=1)
    touching = n_outer > 0
    k1, c1 = intersim_rows(mesh, mesh.outer)
    k2, c2 = intrasim_rows(mesh, pairs[touching])
    a = (_gram(n, k1, c1, np.full(k1.shape[0], cfg.gamma))
         + _gram(n, k2, c2, np.repeat(cfg.epsilon * n_outer[touching], 4)))
    nf = 2 * mesh.n_features
    f = stab_feat.ravel()
    return StageTwoFrameProblem(
        a=a[nf:, nf:].copy(),
        b=-(a[nf:, :nf] @ f),
        const=float(f @ (a[:nf, :nf] @ f)),
    )


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
    by_id = {tr.id: tr for tr in stabilized_features.trajectories}
    out = []
    fallback: list[int] = []
    for mesh in meshes:
        stab_feat = np.array(
            [by_id[int(tid)].point_at(mesh.frame) for tid in mesh.feature_ids]
        ).reshape(mesh.n_features, 2)
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
