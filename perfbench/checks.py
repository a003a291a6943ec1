"""Output checks run after every pipeline pass, outside the timed region.

Each check names the subcommand whose output it tests; a failed check
counts that subcommand run as failed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from meshstab.errors import MeshstabError
from meshstab.frames import load_pnm
from meshstab.trajectory import filter_short, load_trajectories
from meshstab.warp import WarpField, load_warpfield, triangle_affine

# stored affines are recomputed from the stored vertices; a refactor may
# reorder the arithmetic, so allow round-off but nothing more
AFFINE_RTOL = 1e-9
AFFINE_ATOL = 1e-9


def read_keyvals(path: Path) -> dict[str, str]:
    """key=value lines of a manifest or evaluate report."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key.strip()] = val.strip()
    return out


def check_affines(field: WarpField) -> str | None:
    """None when every stored affine equals triangle_affine of its vertices."""
    for t, fw in enumerate(field.frames):
        try:
            want = np.array([triangle_affine(fw.src[tri], fw.dst[tri])
                             for tri in fw.triangles]).reshape(-1, 2, 3)
        except MeshstabError as exc:
            return f"frame {t}: {exc}"
        close = np.isclose(fw.affines, want, rtol=AFFINE_RTOL, atol=AFFINE_ATOL)
        bad = np.nonzero(~close.all(axis=(1, 2)))[0]
        if bad.size:
            return f"frame {t} triangle {bad[0]}: stored affine differs from its vertices"
    return None


def check_stabilize(traj_in: Path, traj_out: Path, warpfield: Path,
                    min_track_len: int = 3) -> list[str]:
    """Outputs load back, every kept input trajectory survives, affines match."""
    try:
        before = filter_short(load_trajectories(traj_in), min_track_len)
        after = load_trajectories(traj_out)
        field = load_warpfield(warpfield)
    except (MeshstabError, OSError) as exc:
        return [f"stabilize output does not load: {exc}"]
    fails = []
    spans_in = {tr.id: (tr.start_frame, len(tr)) for tr in before.trajectories}
    spans_out = {tr.id: (tr.start_frame, len(tr)) for tr in after.trajectories}
    if spans_in != spans_out:
        lost = sorted(set(spans_in) ^ set(spans_out))
        moved = sorted(k for k in set(spans_in) & set(spans_out)
                       if spans_in[k] != spans_out[k])
        fails.append(f"trajectory ids or spans changed: ids {lost[:5]} "
                     f"not in both, spans of {moved[:5]} differ")
    if len(field.frames) != before.frame_count:
        fails.append(f"warp field has {len(field.frames)} frames, "
                     f"clip has {before.frame_count}")
    bad = check_affines(field)
    if bad:
        fails.append(bad)
    return fails


def check_render(manifest: Path, width: int, height: int, frames: int) -> list[str]:
    """The crop rect lies inside the frame and every frame was rendered to it."""
    try:
        x0, y0, w, h = (int(v) for v in read_keyvals(manifest)["crop_rect"].split(","))
    except (OSError, KeyError, ValueError) as exc:
        return [f"render manifest unreadable: {exc!r}"]
    if w < 1 or h < 1 or x0 < 0 or y0 < 0 or x0 + w > width or y0 + h > height:
        return [f"crop rect {(x0, y0, w, h)} not inside {width}x{height}"]
    outs = sorted(manifest.parent.glob("*.pgm"))
    if len(outs) != frames:
        return [f"{len(outs)} rendered frames, expected {frames}"]
    for q in outs:
        try:
            got = load_pnm(q)
        except MeshstabError as exc:
            return [f"rendered frame {q.name} does not load: {exc}"]
        if (got.width, got.height) != (w, h):
            return [f"rendered frame {q.name} is {got.width}x{got.height}, crop is {w}x{h}"]
    return []


def check_report(report: dict[str, str]) -> list[str]:
    """Every score is finite and the jitter energy went down."""
    fails = []
    vals = {}
    for key in ("stability_after", "ssim_after", "jitter_energy_before",
                "jitter_energy_after"):
        try:
            vals[key] = float(report[key])
        except (KeyError, ValueError):
            vals[key] = math.nan
        if not math.isfinite(vals[key]):
            fails.append(f"report {key} is not a finite number")
    if not fails and not vals["jitter_energy_after"] < vals["jitter_energy_before"]:
        fails.append("jitter_ratio is not below 1")
    return fails
