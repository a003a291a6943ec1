"""In-memory spans around meshstab's module boundaries, recorded from outside.

The pipeline's own code is not touched: `Tracer.install` replaces public
functions with timing wrappers by patching module attributes, and
`Tracer.uninstall` puts the originals back. ``meshstab.cli`` binds most
names at import time, so the layer entry points are patched on ``cli``
itself and the inner calls on the module that looks them up.

Spans nest through a stack (single thread). Each records its parent and its
root, the ``cli.<subcommand>`` span of the run it belongs to. Counters are
recorded on the span of the call that does the work.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    parent: int
    root: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _count_frame_load(span, args, kwargs, out):
    span.counts["frames"] = len(out)
    span.counts["bytes"] = _file_bytes(
        q for q in Path(args[0]).iterdir() if q.suffix.lower() in (".pgm", ".ppm"))


def _count_frame_save(span, args, kwargs, out):
    span.counts["frames"] = len(out)
    span.counts["bytes"] = _file_bytes(out)


def _count_tracker(span, args, kwargs, out):
    span.counts["frames"] = len(args[0])


def _count_track_pair(span, args, kwargs, out):
    span.counts["points"] = len(args[2])
    span.counts["survived"] = sum(q is not None for q in out)


def _count_lk(span, args, kwargs, out):
    span.counts["points"] = int(args[4].shape[0])


def _count_raster(span, args, kwargs, out):
    span.counts["pixels"] = int(out[0].size)
    span.counts["uncovered"] = int((out[1] < 0).sum())


def _count_meshes(span, args, kwargs, out):
    span.counts["frames"] = len(out)
    span.counts["triangles"] = sum(int(m.triangles.shape[0]) for m in out)


def _count_lsm(span, args, kwargs, out):
    params = args[1]
    vals = list(out.weights.values())
    span.counts["entries"] = len(vals)
    span.counts["clamped_low"] = sum(v == params.clamp_low for v in vals)
    span.counts["clamped_high"] = sum(v == params.clamp_high for v in vals)


def _keep_solve(span, args, kwargs, out):
    # the residual needs a matrix-vector product; it is computed after the
    # traced run so that it does not land inside any span
    span.counts["_solve"] = (args[0], args[1], out)


def _count_stage2(span, args, kwargs, out):
    span.counts["frames"] = int(out.points.shape[0])
    span.counts["fallback_frames"] = len(out.fallback_frames)


def _count_render(span, args, kwargs, out):
    span.counts["frames"] = len(out[0])
    span.counts["flipped_triangles"] = out[1].flipped_triangles


def _count_ssim(span, args, kwargs, out):
    span.counts["pairs"] = len(out.pairs)


# (module, attribute, span name, counter); the attribute is looked up on
# the module at call time by the code being traced
BOUNDARIES = (
    ("meshstab.cli", "load_frame_dir", "frames.load", _count_frame_load),
    ("meshstab.cli", "save_frame_dir", "frames.save", _count_frame_save),
    ("meshstab.cli", "load_trajectories", "trajectory.load", None),
    ("meshstab.cli", "save_trajectories", "trajectory.save", None),
    ("meshstab.cli", "build_trajectories", "tracker.build_trajectories", _count_tracker),
    ("meshstab.tracker", "detect_corners", "tracker.detect_corners", None),
    ("meshstab.tracker", "track_frame_pair", "tracker.track_frame_pair", _count_track_pair),
    ("meshstab.kernels", "corner_min_eig", "kernels.corner_min_eig", None),
    ("meshstab.kernels", "lk_refine_level", "kernels.lk_refine_level", _count_lk),
    ("meshstab.kernels", "rasterize", "kernels.rasterize", _count_raster),
    ("meshstab.cli", "build_all_meshes", "mesh.build_all_meshes", _count_meshes),
    ("meshstab.cli", "build_lsm_table", "weights.build_lsm_table", _count_lsm),
    ("meshstab.weights", "fit_local_homography", "weights.fit_local_homography", None),
    ("meshstab.cli", "stabilize_stage1", "stage1.stabilize_stage1", None),
    ("meshstab.stage1", "assemble_stage1", "stage1.assemble_stage1", None),
    ("meshstab.stage1.QuadraticProblem", "matrix", "stage1.matrix", None),
    ("meshstab.stage1", "solve", "stage1.solve", _keep_solve),
    ("meshstab.cli", "solve_stage2", "stage2.solve_stage2", _count_stage2),
    ("meshstab.stage2", "assemble_stage2_frame", "stage2.assemble_stage2_frame", None),
    ("meshstab.stage2", "solve_frame", "stage2.solve_frame", None),
    ("meshstab.cli", "build_warp_field", "warp.build_warp_field", None),
    ("meshstab.cli", "save_warpfield", "warp.save_warpfield", None),
    ("meshstab.cli", "load_warpfield", "warp.load_warpfield", None),
    ("meshstab.cli", "common_crop", "warp.common_crop", None),
    ("meshstab.cli", "apply_crop", "warp.apply_crop", None),
    ("meshstab.cli", "render_all", "warp.render_all", _count_render),
    ("meshstab.cli", "video_ssim", "metrics.video_ssim", _count_ssim),
    ("meshstab.metrics", "ssim_pair", "metrics.ssim_pair", None),
    ("meshstab.cli", "stability_score", "metrics.stability_score", None),
    ("meshstab.cli", "jitter_energy", "metrics.jitter_energy", None),
)


def _resolve(dotted: str):
    """A module, or a class inside one ("pkg.mod.Class")."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Spans kept in memory; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.spans[parent].root if parent >= 0 else idx)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.counts["raised"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if count is not None:
                count(span, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        self.missing = []
        for owner_name, attr, name, count in BOUNDARIES:
            owner = _resolve(owner_name)
            fn = getattr(owner, attr, None)
            if fn is None:
                # a boundary renamed by a later refactor: its layer reads 0
                self.missing.append(f"{owner_name}.{attr}")
                print(f"trace: no {owner_name}.{attr}; not traced", file=sys.stderr)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {"name": s.name, "parent": s.parent, "root": s.root,
             "start": s.start, "end": s.end, "self": st,
             "counts": {k: v for k, v in s.counts.items() if not k.startswith("_")}}
            for s, st in zip(self.spans, selfs)
        ]


def _stage1_stats(solves) -> dict[str, float]:
    """Problem size, solver path and relative residual of each stage-1 solve."""
    unknowns, nnz, dense, resid = [], [], [], []
    for prob, cfg, out in solves:
        a = prob.matrix()
        x = np.empty(prob.n)
        for tr in out.trajectories:
            base = prob.index.base(tr.id)
            x[base:base + 2 * len(tr)] = tr.points.ravel()
        bnorm = float(np.linalg.norm(prob.b))
        unknowns.append(prob.n)
        nnz.append(a.nnz)
        dense.append(1.0 if prob.n <= cfg.dense_cutoff else 0.0)
        resid.append(float(np.linalg.norm(a @ x - prob.b)) / (bnorm or 1.0))
    if not solves:
        return {"unknowns": 0.0, "nnz": 0.0, "dense": 0.0, "resid": 0.0}
    return {"unknowns": sum(unknowns) / len(solves), "nnz": sum(nnz) / len(solves),
            "dense": sum(dense) / len(solves), "resid": max(resid)}


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass: (value, unit) by metric name.

    Times are self times in milliseconds summed over the pass; the
    ``ms_per_frame`` ones are divided by the frames that layer processed.
    Counts are summed over the pass, except stage-1 sizes (mean per solve)
    and the stage-1 residual (worst solve). A layer that did not run reads 0.
    """
    selfs = tracer.self_times()

    def ms(*names: str) -> float:
        return 1000.0 * sum(t for s, t in zip(tracer.spans, selfs) if s.name in names)

    def count(name: str, key: str) -> float:
        return float(sum(s.counts.get(key, 0) for s in tracer.spans if s.name == name))

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    tracked = count("tracker.build_trajectories", "frames")
    meshed = count("mesh.build_all_meshes", "frames")
    points = count("tracker.track_frame_pair", "points")
    s1 = _stage1_stats([s.counts["_solve"] for s in tracer.spans
                        if s.name == "stage1.solve" and "_solve" in s.counts])
    out = {
        "tracker.ms_per_frame": (per(ms("tracker.build_trajectories", "tracker.detect_corners",
                                        "tracker.track_frame_pair"), tracked), "ms"),
        "tracker.points_attempted": (points, "count"),
        "tracker.survival_ratio": (per(count("tracker.track_frame_pair", "survived"), points),
                                   "ratio"),
        "kernels.corner_ms": (ms("kernels.corner_min_eig"), "ms"),
        "kernels.lk_ms": (ms("kernels.lk_refine_level"), "ms"),
        "kernels.lk_points": (count("kernels.lk_refine_level", "points"), "count"),
        "kernels.raster_ms": (ms("kernels.rasterize"), "ms"),
        "kernels.raster_px": (count("kernels.rasterize", "pixels"), "count"),
        "frames.io_ms": (ms("frames.load", "frames.save"), "ms"),
        "frames.bytes": (count("frames.load", "bytes") + count("frames.save", "bytes"), "bytes"),
        "trajectory.io_ms": (ms("trajectory.load", "trajectory.save"), "ms"),
        "mesh.ms_per_frame": (per(ms("mesh.build_all_meshes"), meshed), "ms"),
        "mesh.triangles": (count("mesh.build_all_meshes", "triangles"), "count"),
        "weights.lsm_ms": (ms("weights.build_lsm_table", "weights.fit_local_homography"), "ms"),
        "weights.entries": (count("weights.build_lsm_table", "entries"), "count"),
        "weights.degenerate_fits": (float(sum(
            s.counts.get("raised") == "DegenerateGeometryError" for s in tracer.spans
            if s.name == "weights.fit_local_homography")), "count"),
        "weights.clamped_low": (count("weights.build_lsm_table", "clamped_low"), "count"),
        "weights.clamped_high": (count("weights.build_lsm_table", "clamped_high"), "count"),
        # the stabilize_stage1 glue and the CSR build count as assembly
        "stage1.assemble_ms": (ms("stage1.stabilize_stage1", "stage1.assemble_stage1",
                                  "stage1.matrix"), "ms"),
        "stage1.solve_ms": (ms("stage1.solve"), "ms"),
        "stage1.unknowns": (s1["unknowns"], "count"),
        "stage1.nnz": (s1["nnz"], "count"),
        "stage1.dense_path": (s1["dense"], "ratio"),
        "stage1.rel_residual": (s1["resid"], "ratio"),
        # solve_stage2's own loop gathers each frame's features for assembly
        "stage2.assemble_ms": (ms("stage2.solve_stage2", "stage2.assemble_stage2_frame"), "ms"),
        "stage2.solve_ms": (ms("stage2.solve_frame"), "ms"),
        "stage2.fallback_frames": (count("stage2.solve_stage2", "fallback_frames"), "count"),
        "warp.field_ms": (ms("warp.build_warp_field"), "ms"),
        "warp.io_ms": (ms("warp.save_warpfield", "warp.load_warpfield"), "ms"),
        "warp.crop_ms": (ms("warp.common_crop", "warp.apply_crop"), "ms"),
        "warp.render_ms": (ms("warp.render_all"), "ms"),
        "warp.flipped_triangles": (count("warp.render_all", "flipped_triangles"), "count"),
        "warp.uncovered_px": (count("kernels.rasterize", "uncovered"), "count"),
        "metrics.ssim_ms": (ms("metrics.video_ssim", "metrics.ssim_pair"), "ms"),
        "metrics.ssim_pairs": (count("metrics.video_ssim", "pairs"), "count"),
        "metrics.score_ms": (ms("metrics.stability_score", "metrics.jitter_energy"), "ms"),
    }
    for sub in ("track", "stabilize", "render", "evaluate"):
        out[f"cli.{sub}_self_ms"] = (ms(f"cli.{sub}"), "ms")
    out["trace.spans"] = (float(len(tracer.spans)), "count")
    out["trace.overhead_ms"] = (1000.0 * overhead_s, "ms")
    return out


def self_sum_gap(tracer: Tracer, walls: list[float]) -> float:
    """Largest |sum of self times in a subcommand's tree - its traced wall time|.

    walls[i] is the wall time measured around the i-th root span.
    """
    selfs = tracer.self_times()
    roots = [i for i, s in enumerate(tracer.spans) if s.parent < 0]
    if len(roots) != len(walls):
        return float("inf")
    sums = dict.fromkeys(roots, 0.0)
    for s, t in zip(tracer.spans, selfs):
        sums[s.root] += t
    return max((abs(sums[r] - w) for r, w in zip(roots, walls)), default=0.0)
