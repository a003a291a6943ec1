"""Workload runs, metrics, reference outputs and the printed result.

Untraced runs (``--trace 0``) give the end-to-end metrics: every clip of the
workload runs its first pass, then single subcommands run again while one
fits within ``--seconds`` of wall time; each subcommand's time is the median
over all its timings. Traced runs (``--trace 1``) run every clip's first
pass untraced and then traced and give the per-layer metrics; the
difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from meshstab import kernels
from meshstab.trajectory import load_trajectories
from meshstab.warp import load_warpfield

from pipeline import ClipRun, run_clip, run_for
from probe import REFERENCE_PROBE_S, REFERENCE_SLICE_S, speed_probe
from spans import Tracer, layer_metrics, self_sum_gap
from workloads import WORKLOADS, ClipInputs, Workload, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
SRC_DIR = BENCH_DIR.parent / "src"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# a traced subcommand's span self times must add up to its wall time
SELF_SUM_TOLERANCE_S = 1e-3
# stabilized outputs of a refactor must match the reference this closely
REFERENCE_RTOL = 1e-9

E2E_UNITS = {
    "frames_per_s": "1/s",
    "stabilize_ms_per_frame": "ms",
    "render_ms_per_frame": "ms",
    "track_ms_per_frame": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stability_after": "ratio",
    "jitter_ratio": "ratio",
    "ssim_after": "ratio",
    "crop_area_ratio": "ratio",
    "flipped_triangles": "count",
    "uncovered_px_ratio": "ratio",
    "fallback_frame_ratio": "ratio",
    "failed_op_ratio": "ratio",
}


def blas_threads() -> dict[str, int]:
    """OpenBLAS thread count of each bundled BLAS, as the library reports it."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = int(fn())
                    break
    return out


def environment(load_at_start: tuple[float, float, float]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_at_start": list(load_at_start),
    }


# --- metrics ---


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def speed_factor(runs: list[ClipRun]) -> float:
    """Mean machine speed during the runs relative to the reference (>1: faster)."""
    slices = [x for r in runs for ts in r.timings.values() for *_, xs in ts for x in xs]
    return REFERENCE_SLICE_S * len(slices) / sum(slices) if slices else math.nan


def end_to_end(w: Workload, runs: list[ClipRun], setup_s: float) -> dict[str, float]:
    """Subcommand and set-up timings are scaled to the reference speed."""
    ok = [r for r in runs if not r.failed]
    frames = runs[0].clip.frames

    def per_frame_ms(sub: str) -> float:
        # clips differ in cost and get unequal numbers of timings, so each
        # clip's median counts once
        meds = [_median(r.scaled(sub)) for r in ok]
        return 1000.0 * float(np.mean(meds)) / frames if meds else math.nan

    per_frame = {sub: per_frame_ms(sub) for sub in runs[0].steps}
    # quality is a property of each clip, so each clip counts once
    quality = {k: float(np.mean([r.quality[k] for r in ok])) if ok else math.nan
               for k in ("stability_after", "jitter_ratio", "ssim_after", "crop_area_ratio",
                         "flipped_triangles", "uncovered_px_ratio", "fallback_frame_ratio")}
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failed) for r in runs)
    return {
        "frames_per_s": 1000.0 / sum(per_frame.values()),
        "stabilize_ms_per_frame": per_frame["stabilize"],
        "render_ms_per_frame": per_frame["render"],
        "track_ms_per_frame": per_frame.get("track", math.nan),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality,
        "failed_op_ratio": failed / attempted,
    }


# --- reference outputs (stabilized trajectories and warp fields) ---


def snapshot(clips: list[ClipInputs]) -> dict[str, np.ndarray]:
    """The stabilize outputs of every clip as flat arrays."""
    out = {}
    for k, clip in enumerate(clips):
        ts = load_trajectories(clip.root / "stab.traj")
        field = load_warpfield(clip.root / "field.warp")
        fr = field.frames
        out.update({
            f"clip{k}.traj_ids": np.array([tr.id for tr in ts.trajectories]),
            f"clip{k}.traj_starts": np.array([tr.start_frame for tr in ts.trajectories]),
            f"clip{k}.traj_points": np.concatenate([tr.points for tr in ts.trajectories]),
            f"clip{k}.triangle_counts": np.array([fw.triangles.shape[0] for fw in fr]),
            f"clip{k}.triangles": np.concatenate([fw.triangles for fw in fr]),
            f"clip{k}.affines": np.concatenate([fw.affines for fw in fr]),
            f"clip{k}.src": np.concatenate([fw.src for fw in fr]),
            f"clip{k}.dst": np.concatenate([fw.dst for fw in fr]),
        })
    return out


def compare_reference(snap: dict[str, np.ndarray], ref: dict[str, np.ndarray]) -> list[str]:
    """Differences beyond REFERENCE_RTOL, relative to max(1, |reference|)."""
    diffs = []
    for key in sorted(set(snap) | set(ref)):
        a, b = snap.get(key), ref.get(key)
        if a is None or b is None or a.shape != b.shape:
            diffs.append(f"{key}: shape {None if a is None else a.shape} "
                         f"vs reference {None if b is None else b.shape}")
            continue
        rel = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        worst = float(rel.max()) if rel.size else 0.0
        if worst > REFERENCE_RTOL:
            diffs.append(f"{key}: max relative difference {worst:.3e}")
    return diffs


def reference_path(w: Workload) -> Path:
    return BENCH_DIR / "reference" / f"{w.name}.npz"


# --- one workload ---


def import_seconds() -> float:
    """Wall seconds for a fresh interpreter to start and import meshstab.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC_DIR)!r}); import meshstab.cli"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - t0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, write_reference: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result record.

    Set-up is timed SETUP_REPEATS times (traced runs set up once, untimed);
    its time is the median import time plus the median generation time,
    scaled by the median of the probes around them."""
    imports, gen, setup_probes = [], [], [speed_probe()]
    for _ in range(1 if trace else SETUP_REPEATS):
        if not trace:
            imports.append(import_seconds())
        t0 = perf_counter()
        clips = make_inputs(w, seed, workdir)
        gen.append(perf_counter() - t0)
        setup_probes.append(speed_probe())
    setup_s = ((statistics.median(imports) + statistics.median(gen))
               * REFERENCE_PROBE_S / statistics.median(setup_probes)) if imports else math.nan

    problems: list[str] = []
    spans = None
    if trace:
        # each clip runs untraced and then traced, back to back, so that the
        # machine's drift in speed leaks as little as possible into the overhead
        plain, traced = [], []
        tracer = Tracer()
        for clip in clips:
            plain.append(run_clip(clip))
            tracer.install()
            try:
                traced.append(run_clip(clip, tracer))
            finally:
                tracer.uninstall()
        runs = plain + traced
        overhead = (sum(r.first_pass_seconds for r in traced)
                    - sum(r.first_pass_seconds for r in plain))
        layers = layer_metrics(tracer, overhead)
        metrics = {k: v for k, (v, _) in layers.items()}
        units = {k: u for k, (_, u) in layers.items()}
        walls = [ts[0][0] for r in traced for ts in r.timings.values()]
        gap = self_sum_gap(tracer, walls)
        if gap > SELF_SUM_TOLERANCE_S:
            problems.append(f"span self times miss the traced wall time by {gap:.6f} s")
        problems += [f"boundary not traced: {m}" for m in tracer.missing]
        spans = tracer.dump()
    else:
        runs = run_for(clips, seconds)
        metrics = end_to_end(w, runs, setup_s)
        units = dict(E2E_UNITS)
        gap = None

    ref_diffs = None
    if write_reference:
        reference_path(w).parent.mkdir(exist_ok=True)
        np.savez_compressed(reference_path(w), **snapshot(clips))
    elif seed == DEFAULT_SEED and reference_path(w).is_file() and not any(r.failed for r in runs):
        with np.load(reference_path(w)) as ref:
            ref_diffs = compare_reference(snapshot(clips), dict(ref))

    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup": {"import_s": imports, "generate_s": gen, "probes": setup_probes},
        "runs": [{"clip": r.clip.root.name,
                  "timings": {sub: [dict(zip(("seconds", "probe_before", "probe_after",
                                              "slices"), t))
                                    for t in ts] for sub, ts in r.timings.items()},
                  "failed": r.failed, "quality": r.quality} for r in runs],
        "speed_factor": None if trace else speed_factor(runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(len(r.failed) for r in runs),
        "problems": problems,
        "self_sum_gap_s": gap,
        "reference_diffs": ref_diffs,
        "metrics": metrics,
        "units": units,
        "spans": spans,
    }


def _fmt(v: float) -> str:
    return "n/a" if isinstance(v, float) and math.isnan(v) else f"{v:.6g}"


def print_result(res: dict) -> None:
    print(f"== {res['workload']} seed={res['seed']} trace={res['trace']}: "
          f"{len(res['runs'])} clip runs, {res['attempted']} subcommand runs, "
          f"{res['failed']} failed")
    for name, value in res["metrics"].items():
        print(f"  {name:<28} {_fmt(value):>14} {res['units'][name]}")
    if res["speed_factor"] is not None:
        print(f"  machine speed relative to the reference: {res['speed_factor']:.4f} "
              "on average during the steps; the timings above are scaled by the speed measured "
              "during and around each step")
    for r in res["runs"]:
        for sub, why in r["failed"].items():
            print(f"  FAILED {r['clip']} {sub}: {why}")
    for p in res["problems"]:
        print(f"  PROBLEM {p}")
    if res["self_sum_gap_s"] is not None:
        print(f"  span self times add up to each subcommand's traced wall time "
              f"within {res['self_sum_gap_s'] * 1e6:.1f} us")
    if res["reference_diffs"] is not None:
        print("  reference outputs at seed 0: "
              + ("; ".join(res["reference_diffs"]) or f"match to {REFERENCE_RTOL:g} relative"))


def main(argv: list[str] | None, load_at_start) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the stabilize outputs as the workload's reference")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        p.error(f"--write-reference needs the default seed {DEFAULT_SEED} and --trace 0")
    # meshstab.cli.main configures logging only when nothing else has; keep
    # its per-step INFO lines off the benchmark's output
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = environment(load_at_start)
    print("env " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outdir = BENCH_DIR / "out"
    outdir.mkdir(exist_ok=True)
    results = []
    for name in names:
        workdir = BENCH_DIR / "work" / name
        try:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               workdir, args.write_reference)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        res["env"] = env
        stem = f"{name}_seed{args.seed}_trace{args.trace}"
        (outdir / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
        print_result(res)
        results.append(res)

    def metric(res: dict, name: str) -> dict:
        v = res["metrics"][name]
        return {"value": 0.0 if math.isnan(v) else v, "unit": res["units"][name]}

    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{n}" if prefix else n): metric(r, n)
                    for r in results for n in reported},
    }
    print(json.dumps(summary))
    return 0
