"""Drive ``meshstab.cli.main`` in-process through clips and check the outputs.

A clip's first pass runs track (video workloads only), stabilize, render and
evaluate, each timed as a whole from outside. Untraced runs then time single
subcommands again on the same inputs, which rewrites the same outputs, so
that every subcommand gets several timings however long it takes. The output
checks run after the first pass and again at the end, outside the timed
region.
"""

from __future__ import annotations

import io
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from meshstab import cli

from checks import check_render, check_report, check_stabilize, read_keyvals
from probe import REFERENCE_SLICE_S, SLICES_PER_PROBE, during, speed_probe
from spans import Tracer
from workloads import ClipInputs


@dataclass
class ClipRun:
    """One clip: its subcommands in pipeline order, every timed run of each,
    failures and quality.

    A timing is (wall seconds less the slices run during it, the probe
    seconds before it, the probe seconds after it, each slice's seconds).
    """

    clip: ClipInputs
    steps: dict[str, list[str]]
    timings: dict[str, list[tuple[float, float, float, list[float]]]] = field(
        default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        """Subcommand runs, the ones never reached after a failure included."""
        return sum(max(1, len(self.timings.get(sub, []))) for sub in self.steps)

    @property
    def first_pass_seconds(self) -> float:
        return sum(t[0][0] for t in self.timings.values())

    def scaled(self, sub: str) -> list[float]:
        """Seconds of each run of `sub` at the speed where a slice takes
        REFERENCE_SLICE_S. The speed is the mean slice time over the slices
        run during it and the probes before and after it, each probe
        counting as one slice of its mean time."""
        out = []
        for dt, before, after, slices in self.timings.get(sub, []):
            mean_slice = ((before + after) / SLICES_PER_PROBE + sum(slices)) / (2 + len(slices))
            out.append(dt * REFERENCE_SLICE_S / mean_slice)
        return out

    def check(self) -> None:
        """Check the current outputs; a failed check fails its subcommand."""
        root, clip = self.clip.root, self.clip
        traj = clip.trajectories or root / "tracks.traj"
        checks = {
            "stabilize": lambda: check_stabilize(traj, root / "stab.traj", root / "field.warp"),
            "render": lambda: check_render(root / "rendered" / "render.manifest",
                                           clip.width, clip.height, clip.frames),
            "evaluate": lambda: check_report(read_keyvals(root / "report.txt")),
        }
        for sub, check in checks.items():
            fails = check()
            if fails:
                self.failed.setdefault(sub, "; ".join(fails))


def _call(sub: str, argv: list[str], tracer: Tracer | None) -> tuple[int, float]:
    """Run one subcommand; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    t0 = perf_counter()
    span = tracer.open(f"cli.{sub}") if tracer else None
    try:
        with redirect_stdout(sink):
            code = cli.main([sub] + argv)
    except Exception:
        # an uncaught error is a failed run of this subcommand, not of the
        # benchmark: record it and go on with the next clip
        traceback.print_exc(file=sys.stderr)
        code = -1
    finally:
        if span is not None:
            tracer.close(span)
    return code, perf_counter() - t0


def _steps(clip: ClipInputs) -> dict[str, list[str]]:
    root = clip.root
    traj = clip.trajectories or root / "tracks.traj"
    stab, warp = root / "stab.traj", root / "field.warp"
    rendered, report = root / "rendered", root / "report.txt"
    steps = {}
    if clip.trajectories is None:
        steps["track"] = [str(clip.frames_dir), "--out", str(traj)]
    steps["stabilize"] = [str(traj), "--out", str(stab), "--warpfield", str(warp)]
    steps["render"] = [str(clip.frames_dir), str(warp), "--out", str(rendered)]
    steps["evaluate"] = ["--before", str(traj), "--after", str(stab),
                         "--frames-before", str(clip.frames_dir),
                         "--frames-after", str(rendered), "--warpfield", str(warp),
                         "--stabilize-manifest", f"{stab}.manifest",
                         "--report", str(report)]
    return steps


def _timed(run: ClipRun, sub: str, tracer: Tracer | None, before: float) -> float:
    """Run `sub` once and record it; returns the probe taken after it.
    Untraced runs measure the speed during and after the run too."""
    if tracer is None:
        with during() as slices:
            code, dt = _call(sub, run.steps[sub], tracer)
        after = speed_probe()
    else:
        slices = []
        code, dt = _call(sub, run.steps[sub], tracer)
        after = 0.0
    run.timings.setdefault(sub, []).append((dt - sum(slices), before, after, slices))
    if code != 0:
        run.failed.setdefault(sub, f"exit code {code}")
    return after


def run_clip(clip: ClipInputs, tracer: Tracer | None = None) -> ClipRun:
    """The clip's first pass and its checks; untraced runs also probe the speed."""
    run = ClipRun(clip, _steps(clip))
    probe = speed_probe() if tracer is None else 0.0
    for sub in run.steps:
        probe = _timed(run, sub, tracer, probe)
        if run.failed:
            break
    for sub in run.steps:
        if sub not in run.timings:
            run.failed.setdefault(sub, "not run: an earlier step failed")
    if not run.failed:
        run.check()
    if not run.failed:
        run.quality = _quality(run)
    return run


def _quality(run: ClipRun) -> dict[str, float]:
    clip, root = run.clip, run.clip.root
    rep = read_keyvals(root / "report.txt")
    ren = read_keyvals(root / "rendered" / "render.manifest")
    man = read_keyvals(root / "stab.traj.manifest")
    _, _, w, h = (int(v) for v in ren["crop_rect"].split(","))
    pixels = clip.frames * clip.width * clip.height
    return {
        "stability_after": float(rep["stability_after"]),
        "jitter_ratio": float(rep["jitter_energy_after"]) / float(rep["jitter_energy_before"]),
        "ssim_after": float(rep["ssim_after"]),
        "crop_area_ratio": w * h / (clip.width * clip.height),
        "flipped_triangles": float(rep["flipped_triangles"]),
        "uncovered_px_ratio": int(ren["uncovered_pixels"]) / pixels,
        "fallback_frame_ratio": int(man["stage2_fallback_frames"]) / clip.frames,
    }


def run_for(clips: list[ClipInputs], seconds: float) -> list[ClipRun]:
    """The first pass of every clip, then single subcommands again while
    nothing failed and one fits in what is left of `seconds` of wall time.

    The next run is the subcommand with the fewest timings so far, over all
    clips, that fits if it takes as long as its last run of that clip plus
    a probe; so short subcommands get more timings than long ones. The
    outputs are checked once more at the end.
    """
    t0 = perf_counter()
    runs = [run_clip(clip) for clip in clips]
    probe = speed_probe()
    while not any(r.failed for r in runs):
        left = seconds - (perf_counter() - t0)
        count = {sub: sum(len(r.timings[sub]) for r in runs) for sub in runs[0].steps}
        todo = [(count[sub], len(r.timings[sub]), k, i, sub)
                for i, r in enumerate(runs) for k, sub in enumerate(r.steps)
                if r.timings[sub][-1][0] + probe <= left]
        if not todo:
            break
        *_, i, sub = min(todo)
        probe = _timed(runs[i], sub, None, probe)
    for r in runs:
        if not r.failed:
            r.check()
    return runs
