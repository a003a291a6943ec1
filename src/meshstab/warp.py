"""Piecewise-affine warp fields and stabilized-frame rendering.

Each frame's warp is the unique piecewise-affine map sending the original
mesh vertices to their stabilized positions, one affine map per triangle.
Rendering is destination-driven: every output pixel finds its stabilized
triangle (lowest triangle index wins on shared edges) and samples the
source frame through the inverse map with bilinear interpolation.

Stabilized triangles that flipped orientation or collapsed are flagged and
rendered as-is; there is no untangling pass, the flags just surface in the
evaluation report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, ParseError, read_text
from .frames import GrayFrame
from .mesh import AREA_EPS, FrameMesh, _orient
from .stage2 import StabilizedControlPoints
from .trajectory import TrajectorySet

__all__ = [
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
]

log = logging.getLogger(__name__)

CROP_SEARCH_ITERS = 32
_CROP_EPS = 1e-9
_AFFINE_TOL = 1e-9  # px; triangle_affine hits its vertices well within this


def triangle_affine(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The 2x3 affine map sending the 3 src vertices onto the 3 dst vertices.

    An exactly unchanged triangle short-circuits to the exact identity
    matrix, which keeps identity warps bit-exact through rendering.
    """
    src = np.asarray(src, dtype=np.float64).reshape(3, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(3, 2)
    d = dst - src
    if (d == d[0]).all():
        # pure translation (identity included): exact coefficients, no
        # solver round-off
        return np.array([[1.0, 0.0, d[0, 0]], [0.0, 1.0, d[0, 1]]])
    if abs(_orient(*src)) <= 2.0 * AREA_EPS:
        raise DegenerateGeometryError("source triangle is degenerate")
    m = np.column_stack([src, np.ones(3)])
    coef = np.linalg.solve(m, dst)
    return coef.T.copy()


def _triangle_affines(src: np.ndarray, dst: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """triangle_affine for every triangle of (K, 3) `tris`, as (K, 2, 3).

    Gives the same floats: the translations get the same exact
    coefficients, and the rest the same LAPACK solve, batched.
    """
    s, t = src[tris], dst[tris]
    d = t - s
    moved = ~(d == d[:, :1]).all(axis=(1, 2))
    out = np.zeros((len(tris), 2, 3))
    out[:, 0, 0] = out[:, 1, 1] = 1.0
    out[:, :, 2] = d[:, 0]
    if (np.abs(_orient(*s[moved].transpose(1, 2, 0))) <= 2.0 * AREA_EPS).any():
        raise DegenerateGeometryError("source triangle is degenerate")
    m = np.concatenate([s[moved], np.ones((moved.sum(), 3, 1))], axis=2)
    out[moved] = np.swapaxes(np.linalg.solve(m, t[moved]), 1, 2)
    return out


def _flagged_triangles(src: np.ndarray, dst: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Indices of triangles whose stabilized copy flipped or collapsed."""
    cs = _orient(*src[tris].transpose(1, 2, 0))
    cd = _orient(*dst[tris].transpose(1, 2, 0))
    return np.nonzero(np.sign(cs) * cd <= 2.0 * AREA_EPS)[0]


@dataclass(frozen=True)
class FrameWarp:
    """One frame's triangle list with original/stabilized vertex positions."""

    triangles: np.ndarray  # (K, 3) int
    src: np.ndarray  # (V, 2) original positions
    dst: np.ndarray  # (V, 2) stabilized positions
    affines: np.ndarray  # (K, 2, 3), src -> dst per triangle
    flipped: np.ndarray  # indices into triangles

    def inverse_affines(self) -> np.ndarray:
        """Per-triangle dst->src maps; collapsed triangles get zero maps."""
        lin = self.affines[:, :, :2]
        trans = self.affines[:, :, 2]
        det = lin[:, 0, 0] * lin[:, 1, 1] - lin[:, 0, 1] * lin[:, 1, 0]
        inv = np.zeros_like(self.affines)
        ok = det != 0.0
        d = det[ok]
        inv[ok, 0, 0] = lin[ok, 1, 1] / d
        inv[ok, 0, 1] = -lin[ok, 0, 1] / d
        inv[ok, 1, 0] = -lin[ok, 1, 0] / d
        inv[ok, 1, 1] = lin[ok, 0, 0] / d
        inv[ok, :, 2] = -np.einsum("kij,kj->ki", inv[ok, :, :2], trans[ok])
        return inv


@dataclass(frozen=True)
class WarpField:
    """Per-frame warps plus the clip geometry.

    The last n_controls vertices of every frame are the border control
    ring, in ring order; their stabilized positions trace the forward
    image of the frame boundary, which bounds the common crop.
    """

    frame_size: tuple[int, int]
    n_controls: int
    frames: tuple[FrameWarp, ...]

    def __len__(self) -> int:
        return len(self.frames)


def build_warp_field(
    meshes: list[FrameMesh],
    stabilized_features: TrajectorySet,
    stabilized_controls: StabilizedControlPoints | np.ndarray,
) -> WarpField:
    """One affine per triangle per frame, from original to stabilized."""
    ctrl = (
        stabilized_controls.points
        if isinstance(stabilized_controls, StabilizedControlPoints)
        else np.asarray(stabilized_controls, dtype=np.float64)
    )
    if len(meshes) != ctrl.shape[0]:
        raise ValueError(
            f"{len(meshes)} meshes but control points for {ctrl.shape[0]} frames"
        )
    if len(meshes) != stabilized_features.frame_count:
        raise ValueError(
            f"{len(meshes)} meshes but stabilized set spans "
            f"{stabilized_features.frame_count} frames"
        )
    obs = stabilized_features.observations
    n_controls = ctrl.shape[1]
    frames = []
    for mesh in meshes:
        if mesh.control_points.shape[0] != n_controls:
            raise ValueError(
                f"frame {mesh.frame}: mesh has {mesh.control_points.shape[0]} "
                f"controls, stage-2 output has {n_controls}"
            )
        src = mesh.points
        dst = np.vstack([obs.points[obs.rows(mesh.frame, mesh.feature_ids)],
                         ctrl[mesh.frame]])
        frames.append(
            FrameWarp(
                triangles=mesh.triangles,
                src=src,
                dst=dst,
                affines=_triangle_affines(src, dst, mesh.triangles),
                flipped=_flagged_triangles(src, dst, mesh.triangles),
            )
        )
    return WarpField(
        frame_size=meshes[0].frame_size if meshes else (0, 0),
        n_controls=n_controls,
        frames=tuple(frames),
    )


def render(frame: GrayFrame, fw: FrameWarp) -> tuple[GrayFrame, int]:
    """Render one stabilized frame; returns it plus the uncovered-pixel count.

    Uncovered pixels (possible when triangles flip) are written as 0.
    """
    tris_xy = fw.dst[fw.triangles]
    out, owner = kernels.rasterize(frame.data, tris_xy, fw.inverse_affines())
    # bilinear weights can round a hair past the value range; in-range
    # samples pass through clip bit-exactly
    np.clip(out, 0.0, 255.0, out=out)
    return GrayFrame.from_array(out), int(np.count_nonzero(owner < 0))


@dataclass(frozen=True)
class RenderStats:
    uncovered_pixels: int
    flipped_triangles: int


def render_all(
    frames: list[GrayFrame], field: WarpField
) -> tuple[list[GrayFrame], RenderStats]:
    if len(frames) != len(field.frames):
        raise ValueError(
            f"{len(frames)} frames but warp field has {len(field.frames)}"
        )
    out = []
    uncovered = 0
    for frame, fw in zip(frames, field.frames):
        got, miss = render(frame, fw)
        out.append(got)
        uncovered += miss
    flipped = sum(len(fw.flipped) for fw in field.frames)
    return out, RenderStats(uncovered_pixels=uncovered, flipped_triangles=flipped)


# --- crop ---


def _points_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Ray-casting containment of (P, 2) points in (..., N, 2) polygons.

    Returns (..., P) booleans; boundary points are undefined.  Callers
    shrink the tested rectangle inward by a small epsilon, so the boundary
    ambiguity never matters.
    """
    x = pts[:, 0, None]
    y = pts[:, 1, None]
    x1 = poly[..., None, :, 0]
    y1 = poly[..., None, :, 1]
    x2 = np.roll(x1, -1, axis=-1)
    y2 = np.roll(y1, -1, axis=-1)
    straddle = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
    hits = straddle & (x < xc)
    return (hits.sum(axis=-1) % 2).astype(bool)


def common_crop(field: WarpField) -> tuple[int, int, int, int]:
    """Largest centered same-aspect rectangle valid in every frame.

    In u = (x - cx)/a, v = (y - cy)/b with (a, b) = ((w-1)/2, (h-1)/2), the
    rectangle of scale s shrunk by _CROP_EPS px a side is |u| + ea <= s,
    |v| + eb <= s, with (ea, eb) = _CROP_EPS/(a, b).  Once the center is
    inside every stabilized border ring, the largest such s is the least
    max(|u| + ea, |v| + eb) over all ring edges.  That is convex and
    piecewise linear along an edge, so its minimum lies at a vertex or
    where u +- v = +-(eb - ea).  s is rounded down to the
    2^-CROP_SEARCH_ITERS grid, where the rectangle is the one a bisection
    of the same test finds (the tests keep it as the reference); the pixel
    rounding resolves about 1e-8 px, so an unrounded s could move an edge.

    Returns (x0, y0, width, height); if even the center point is exposed
    somewhere, or the rectangle holds no pixel, returns the full frame
    with a warning.
    """
    w, h = field.frame_size
    full = (0, 0, w, h)
    if not field.frames:
        return full
    half = np.array([(w - 1) / 2.0, (h - 1) / 2.0])  # the center, and (a, b)
    rings = np.array([fw.dst[-field.n_controls:] for fw in field.frames])
    center = half + _CROP_EPS * np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    if not _points_in_polygon(center, rings).all():
        log.warning("crop search found no common interior; keeping full frame")
        return full
    shrink = _CROP_EPS / half
    p = (rings - half) / half  # (T, C, 2) in (u, v)
    d = np.roll(p, -1, axis=1) - p  # each edge, the closing one included
    sign = np.array([1.0, 1.0, -1.0, -1.0])
    level = (shrink[1] - shrink[0]) * np.array([1.0, -1.0, 1.0, -1.0])
    slope = d[..., :1] + sign * d[..., 1:]  # (T, C, 4)
    # an edge parallel to its kink line gets t = 0: its vertices decide
    t = np.divide(level - p[..., :1] - sign * p[..., 1:], slope,
                  out=np.zeros_like(slope), where=slope != 0.0).clip(0.0, 1.0)
    q = np.concatenate([p[..., None, :], p[..., None, :] + t[..., None] * d[..., None, :]], axis=2)
    s = float((np.abs(q) + shrink).max(axis=-1).min())
    lo = np.floor(s * 2.0**CROP_SEARCH_ITERS) / 2.0**CROP_SEARCH_ITERS
    x0, y0 = np.maximum(0, np.ceil(half - lo * half - _CROP_EPS)).astype(int).tolist()
    x1, y1 = np.minimum([w - 1, h - 1], np.floor(half + lo * half + _CROP_EPS)).astype(int).tolist()
    if x1 < x0 or y1 < y0:  # the rectangle holds no pixel
        log.warning("crop search found no common interior; keeping full frame")
        return full
    return (x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def apply_crop(frame: GrayFrame, rect: tuple[int, int, int, int]) -> GrayFrame:
    x0, y0, w, h = rect
    if w < 1 or h < 1 or x0 < 0 or y0 < 0 or x0 + w > frame.width or y0 + h > frame.height:
        raise ValueError(f"crop {rect} does not fit inside {frame.width}x{frame.height}")
    return GrayFrame.from_array(frame.data[y0:y0 + h, x0:x0 + w])


# --- warp field file format ---
#
# Line 1:    <frame_count> <width> <height>
# Per frame: <n_triangles> <n_vertices> <n_controls>
#            then per triangle 6 affine coefficients (row-major 2x3) and
#            3 vertex indices; then per vertex "ox oy sx sy" with the
#            original and stabilized positions.  Floats use repr() and
#            round-trip exactly.


def save_warpfield(field: WarpField, path: str | Path) -> None:
    w, h = field.frame_size
    tri_line = "{!r} {!r} {!r} {!r} {!r} {!r} {} {} {}".format
    vert_line = "{!r} {!r} {!r} {!r}".format
    lines = [f"{len(field.frames)} {w} {h}"]
    for fw in field.frames:
        lines.append(
            f"{fw.triangles.shape[0]} {fw.src.shape[0]} {field.n_controls}"
        )
        lines += [tri_line(*a, *t) for a, t in
                  zip(fw.affines.reshape(-1, 6).tolist(), fw.triangles.tolist())]
        lines += [vert_line(*o, *s) for o, s in zip(fw.src.tolist(), fw.dst.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# A frame's triangle block and vertex block are each checked and converted
# at once.  Only when that fails are the block's lines walked, one by one,
# to raise the first bad line's error; a block with none ran out of lines.


def _triangle_block(rows: list[list[str]], nums: list[int], ntri: int, nvert: int,
                    n_lines: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        if len(rows) == ntri and not set(map(len, rows)) - {9}:
            coefs = [float(v) for parts in rows for v in parts[:6]]
            corners = [int(v) for parts in rows for v in parts[6:]]
            if not corners or (min(corners) >= 0 and max(corners) < nvert):
                return (np.array(coefs, dtype=np.float64).reshape(ntri, 2, 3),
                        np.array(corners, dtype=np.int64).reshape(ntri, 3))
    except ValueError:
        pass
    for parts, ln in zip(rows, nums):
        if len(parts) != 9:
            raise ParseError("triangle line needs 6 coefficients + 3 indices", line=ln)
        try:
            [float(v) for v in parts[:6]]
            corners = [int(v) for v in parts[6:]]
        except ValueError:
            raise ParseError("malformed triangle line", line=ln) from None
        if not all(0 <= v < nvert for v in corners):
            raise ParseError(f"triangle vertex index out of range [0, {nvert - 1}]", line=ln)
    raise ParseError("unexpected end of file", line=n_lines)


def _vertex_block(rows: list[list[str]], nums: list[int], nvert: int,
                  n_lines: int) -> np.ndarray:
    try:
        if len(rows) == nvert and not set(map(len, rows)) - {4}:
            verts = [float(v) for parts in rows for v in parts]
            return np.array(verts, dtype=np.float64).reshape(nvert, 4)
    except ValueError:
        pass
    for parts, ln in zip(rows, nums):
        if len(parts) != 4:
            raise ParseError("vertex line needs 'ox oy sx sy'", line=ln)
        try:
            [float(v) for v in parts]
        except ValueError:
            raise ParseError("malformed vertex line", line=ln) from None
    raise ParseError("unexpected end of file", line=n_lines)


def load_warpfield(path: str | Path) -> WarpField:
    lines = read_text(path).splitlines()
    # the numbers of the lines that are not whitespace only; a block's lines
    # are split when it is parsed, so the whole file's tokens are never held
    nums = list(compress(range(1, len(lines) + 1), map(str.strip, lines)))
    pos = 0

    def take() -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(nums):
            raise ParseError("unexpected end of file", line=len(lines))
        pos += 1
        return nums[pos - 1], lines[nums[pos - 1] - 1].split()

    def block(n: int) -> tuple[list[list[str]], list[int]]:
        nonlocal pos
        ns = nums[pos:pos + n]
        pos += n
        return [lines[k - 1].split() for k in ns], ns

    ln, head = take()
    if len(head) != 3:
        raise ParseError("header must be '<frames> <width> <height>'", line=ln)
    try:
        count, w, h = (int(v) for v in head)
    except ValueError:
        raise ParseError("non-integer header field", line=ln) from None
    if count < 0:
        raise ParseError(f"negative frame count {count}", line=ln)
    if w < 2 or h < 2:
        raise ParseError(f"frame size must be at least 2x2, got {w}x{h}", line=ln)
    if max(count, w, h) >= 2**63:
        raise ParseError("header field beyond the int64 range", line=ln)
    n_controls = None
    frames = []
    for _ in range(count):
        ln, head = take()
        head_ln = ln
        if len(head) != 3:
            raise ParseError(
                "frame header must be '<triangles> <vertices> <controls>'", line=ln
            )
        try:
            ntri, nvert, nc = (int(v) for v in head)
        except ValueError:
            raise ParseError("non-integer frame header field", line=ln) from None
        if min(ntri, nvert, nc) < 0:
            raise ParseError("negative count in frame header", line=ln)
        if max(ntri, nvert, nc) >= 2**63:  # keeps every index inside int64
            raise ParseError("frame header count beyond the int64 range", line=ln)
        if n_controls is None:
            n_controls = nc
        elif nc != n_controls:
            raise ParseError(
                f"inconsistent control count {nc} (expected {n_controls})", line=ln
            )
        if nvert < nc:
            raise ParseError(f"fewer vertices ({nvert}) than controls ({nc})", line=ln)
        # a block's lines are taken first: the counts come from the file, so
        # no array is sized by them before the lines are there
        tri_rows, tri_lines = block(ntri)
        affines, tris = _triangle_block(tri_rows, tri_lines, ntri, nvert, len(lines))
        verts = _vertex_block(*block(nvert), nvert, len(lines))
        if nc < 3:  # the crop takes the last nc vertices as the border ring
            raise ParseError(f"a frame needs at least 3 controls, got {nc}", line=head_ln)
        src = np.ascontiguousarray(verts[:, :2])
        dst = np.ascontiguousarray(verts[:, 2:])
        # rendering trusts the stored affines: each must carry its
        # triangle's src vertices onto their dst vertices
        hit = (np.einsum("kij,kvj->kvi", affines[:, :, :2], src[tris])
               + affines[:, None, :, 2])
        off = np.nonzero(~(np.abs(hit - dst[tris]).max(axis=(1, 2)) <= _AFFINE_TOL))[0]
        if off.size:
            raise ParseError(
                "triangle affine does not map its src vertices onto dst",
                line=tri_lines[off[0]],
            )
        frames.append(
            FrameWarp(
                triangles=tris,
                src=src,
                dst=dst,
                affines=affines,
                flipped=_flagged_triangles(src, dst, tris),
            )
        )
    if pos < len(nums):
        raise ParseError("trailing content after last frame", line=nums[pos])
    return WarpField(
        frame_size=(w, h),
        n_controls=0 if n_controls is None else n_controls,
        frames=tuple(frames),
    )
