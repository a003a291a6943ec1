"""Per-frame solves for stabilized border control points.

Stage 1 fixes the feature vertices; this stage moves only the border
controls of each frame so the outer triangles deform consistently with the
stabilized interior.  It minimizes the same two shape terms as stage 1,
built by the same row builders (stage1.intersim_rows/intrasim_rows):
similarity reconstruction over the outer triangles, weighted gamma, and
barycentric consistency over every adjacent pair touching an outer
triangle, weighted epsilon once per outer triangle in the pair.

The stabilized features f are fixed, so each row's feature part q_f folds
into its target, t = -q_f' f, leaving w (q_c' x - t)^2 over the frame's 2C
controls x.  The rows go through stage 1's accumulator, QuadraticProblem,
with frame s of a chunk of frames owning columns s*2C .. s*2C + 2C - 1, so
A = R' W R is block diagonal.  Its blocks are stacked as (frames, 2C, 2C)
for one batched eigenvalue test; the blocks that pass are then Cholesky
factored and solved one at a time.  A chunk holds as many frames as fit
CHUNK_ENTRIES block entries, at least one.

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
from .stage1 import QuadraticProblem, StageOneConfig, intersim_rows, intrasim_rows
from .trajectory import TrajectorySet

__all__ = ["StabilizedControlPoints", "assemble_stage2_frame", "solve_frame", "solve_stage2"]

SINGULAR_EIG_RATIO = 1e-10
CHUNK_ENTRIES = 1 << 19  # float64 entries of one chunk's stacked blocks


def _frame_rows(mesh: FrameMesh, stab_feat: np.ndarray, cfg: StageOneConfig,
                first_col: int) -> list[tuple[np.ndarray, ...]]:
    """Both outer terms of one frame as (weights, cols, coefs, targets) each.

    Control coordinate k >= 2F is column first_col + k - 2F; feature
    entries are folded into the targets and keep coefficient 0.
    """
    stab_feat = np.asarray(stab_feat, dtype=np.float64)
    if stab_feat.shape != (mesh.n_features, 2):
        raise ValueError(f"stabilized features shape {stab_feat.shape} does not match "
                         f"mesh with {mesh.n_features} features")
    pairs = mesh.adjacency
    n_outer = np.isin(pairs[:, :2], mesh.outer).sum(axis=1)
    touching = n_outer > 0
    nf = 2 * mesh.n_features
    fz = np.zeros(2 * mesh.points.shape[0])  # f, then zeros for the controls
    fz[:nf] = stab_feat.ravel()
    out = []
    for w, (k, c) in ((cfg.gamma, intersim_rows(mesh, mesh.outer)),
                      (np.repeat(cfg.epsilon * n_outer[touching], 4),
                       intrasim_rows(mesh, pairs[touching]))):
        ctrl = k >= nf
        out.append((np.broadcast_to(w, k.shape[:1]), first_col + np.where(ctrl, k - nf, 0),
                    np.where(ctrl, c, 0.0), -(c * fz[k]).sum(axis=1)))
    return out


def _solve_blocks(prob: QuadraticProblem, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers of a block-diagonal problem, one per m-square block.

    Returns x (blocks, m) and whether each block was solved; a singular
    block's x is left at 0.
    """
    a = prob.matrix().tocoo()
    blocks = np.zeros((prob.n // m, m, m))
    blocks[a.row // m, a.row % m, a.col % m] = a.data
    b = prob.b.reshape(-1, m, 1)
    eig = np.linalg.eigvalsh(blocks)
    ok = ~(eig[:, 0] <= SINGULAR_EIG_RATIO * np.maximum(eig[:, -1], np.finfo(np.float64).tiny))
    x = np.zeros_like(b)
    for i in np.nonzero(ok)[0]:
        try:
            x[i] = scipy.linalg.cho_solve(scipy.linalg.cho_factor(blocks[i]), b[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return x[..., 0], ok


def assemble_stage2_frame(
    mesh: FrameMesh,
    stab_feat: np.ndarray,
    cfg: StageOneConfig = StageOneConfig(),
) -> QuadraticProblem:
    """One frame's problem over its 2C controls, x = (c0x, c0y, c1x, ...)."""
    prob = QuadraticProblem(2 * mesh.control_points.shape[0])
    for rows in _frame_rows(mesh, stab_feat, cfg, 0):
        prob.add_batch(*rows)
    return prob


def solve_frame(prob: QuadraticProblem) -> np.ndarray | None:
    """Minimizer of a one-frame problem, or None when the system is singular."""
    x, ok = _solve_blocks(prob, prob.n)
    return x[0] if ok[0] else None


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
    """Solve every frame, one block-diagonal problem per chunk of frames.

    Frames whose system is singular (too few anchoring features) keep
    their original control points and are reported in fallback_frames.
    """
    obs = stabilized_features.observations
    points = []
    fallback: list[int] = []
    m = meshes[0].control_points.size  # 2C unknowns, the same in every frame
    step = max(1, CHUNK_ENTRIES // (m * m))
    for lo in range(0, len(meshes), step):
        chunk = meshes[lo:lo + step]
        ctrl = np.array([mesh.control_points for mesh in chunk]).reshape(len(chunk), m // 2, 2)
        prob = QuadraticProblem(m * len(chunk))
        rows = [_frame_rows(mesh, obs.points[obs.rows(mesh.frame, mesh.feature_ids)], cfg, s * m)
                for s, mesh in enumerate(chunk)]
        for term in zip(*rows):
            prob.add_batch(*(np.concatenate(part) for part in zip(*term)))
        x, ok = _solve_blocks(prob, m)
        points.append(np.where(ok[:, None, None], x.reshape(ctrl.shape), ctrl))
        fallback += [mesh.frame for mesh, solved in zip(chunk, ok) if not solved]
    return StabilizedControlPoints(
        points=np.concatenate(points), fallback_frames=tuple(fallback)
    )
