"""Command line pipeline: synthesize, track, stabilize, render, evaluate.

Every pipeline run resolves a flat key=value configuration (file values
overridden by flags) and writes a manifest next to its primary output so a
result can always be traced back to the exact settings that produced it.

Exit codes: 0 ok, 2 usage, 3 malformed input, 4 solver failure, 5 I/O.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import reduce
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import DegenerateGeometryError, ParseError, SolverError, read_text
from .frames import load_frame_dir, save_frame_dir
from .mesh import PER_EDGE, build_all_meshes
from .metrics import jitter_energy, stability_score, video_ssim
from .stage1 import StageOneConfig, stabilize_stage1
from .stage2 import solve_stage2
from .tracker import TrackerConfig, build_trajectories
from .trajectory import (
    TrajectorySet,
    filter_short,
    load_trajectories,
    make_scene_spec,
    save_trajectories,
    synthesize_scene,
)
from .warp import (
    apply_crop,
    build_warp_field,
    common_crop,
    load_warpfield,
    render_all,
    save_warpfield,
)
from .weights import build_lsm_table

__all__ = ["PipelineConfig", "load_config", "resolve_config", "main"]

log = logging.getLogger("meshstab.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4
EXIT_IO = 5


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the pipeline: the stage and tracker configs plus the
    three values only the command line uses.

    _CONFIG_KEYS names each field for the config-file format and the run
    manifests.  Trajectories are kept only when strictly longer than
    min_track_len frames.
    """

    stage1: StageOneConfig = StageOneConfig()
    tracker: TrackerConfig = TrackerConfig()
    min_track_len: int = 3
    grid_per_edge: int = PER_EDGE
    crop: bool = True

    def __post_init__(self):
        if self.min_track_len < 2:
            raise ValueError(
                f"min_track_len must be >= 2, got {self.min_track_len}"
            )
        if self.grid_per_edge < 2:
            raise ValueError(
                f"grid_per_edge must be >= 2, got {self.grid_per_edge}"
            )

    @property
    def control_points(self) -> int:
        return 4 * self.grid_per_edge - 4


# flat config key -> attribute path from PipelineConfig, in the order of the
# defaults output and of every manifest; LsmParams.min_neighbors has no key
_CONFIG_KEYS: dict[str, tuple[str, ...]] = {
    "alpha": ("stage1", "alpha"),
    "beta": ("stage1", "beta"),
    "gamma": ("stage1", "gamma"),
    "epsilon": ("stage1", "epsilon"),
    "sigma": ("stage1", "temporal", "sigma"),
    "tau": ("stage1", "lsm", "tau"),
    "knn": ("stage1", "lsm", "k"),
    "clamp_low": ("stage1", "lsm", "clamp_low"),
    "clamp_high": ("stage1", "lsm", "clamp_high"),
    "min_track_len": ("min_track_len",),
    "grid_per_edge": ("grid_per_edge",),
    "solver_tol": ("stage1", "solver_tol"),
    "max_iter_factor": ("stage1", "max_iter_factor"),
    "dense_cutoff": ("stage1", "dense_cutoff"),
    "crop": ("crop",),
    **{f"tracker_{f.name}": ("tracker", f.name) for f in fields(TrackerConfig)},
}


def _leaf_type(path: tuple[str, ...]) -> type:
    kind = PipelineConfig
    for name in path:
        kind = get_type_hints(kind)[name]
    return kind


_FIELD_TYPES = {key: _leaf_type(path) for key, path in _CONFIG_KEYS.items()}

_TRUE_WORDS = frozenset(("1", "true", "yes", "on"))
_FALSE_WORDS = frozenset(("0", "false", "no", "off"))
_INT64 = range(-(2**63), 2**63)


def _cast_value(key: str, text: str):
    """`text` as the type of `key`; integers must fit in int64."""
    kind = _FIELD_TYPES[key]
    if kind is bool:
        low = text.strip().lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise ValueError(f"expected a boolean for {key}, got {text!r}")
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"expected {kind.__name__} for {key}, got {text!r}") from None
    if kind is int and value not in _INT64:
        raise ValueError(f"{key} must lie in the int64 range [-2**63, 2**63 - 1]")
    return value


def _parse_pair(item: str) -> tuple[str, object]:
    """Split one key=value item and cast the value; ValueError says what is wrong."""
    if "=" not in item:
        raise ValueError(f"expected key=value, got {item!r}")
    key, val = (part.strip() for part in item.split("=", 1))
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    return key, _cast_value(key, val)


def load_config(path: str | Path) -> dict[str, object]:
    """Parse a key=value config file into a dict of typed values.

    Blank lines and '#' comments are ignored; unknown keys and badly typed
    values raise ParseError with the offending line number.
    """
    values: dict[str, object] = {}
    text = read_text(path)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, value = _parse_pair(line)
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from None
        values[key] = value
    return values


def _replace(cfg, values: dict[tuple[str, ...], object]):
    """`cfg` with `values`, keyed by attribute path below it, put in.

    Each nested config is rebuilt once from all of its values, so checks
    across its fields (clamp_low < clamp_high) see the final pair.
    """
    own: dict[str, object] = {}
    nested: dict[str, dict[tuple[str, ...], object]] = {}
    for (name, *rest), value in values.items():
        if rest:
            nested.setdefault(name, {})[tuple(rest)] = value
        else:
            own[name] = value
    own.update((name, _replace(getattr(cfg, name), sub)) for name, sub in nested.items())
    return replace(cfg, **own)


def resolve_config(
    config_path: str | None, overrides: dict[str, object]
) -> PipelineConfig:
    """Merge file values (lowest), then overrides, onto the defaults."""
    values: dict[str, object] = {}
    if config_path is not None:
        values.update(load_config(config_path))
    values.update(overrides)
    try:
        return _replace(PipelineConfig(), {_CONFIG_KEYS[k]: v for k, v in values.items()})
    except ValueError as exc:
        raise ParseError(f"bad configuration: {exc}") from None


def _flag_overrides(args: argparse.Namespace) -> dict[str, object]:
    """Collect --set pairs plus named flags; named flags win."""
    out: dict[str, object] = {}
    for item in getattr(args, "set", None) or []:
        try:
            key, value = _parse_pair(item)
        except ValueError as exc:
            raise ParseError(f"--set: {exc}") from None
        out[key] = value
    for key in _CONFIG_KEYS:
        flag = getattr(args, f"opt_{key}", None)
        if flag is not None:
            out[key] = flag
    return out


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_lines(cfg: PipelineConfig) -> list[str]:
    return [f"{key}={_format_value(reduce(getattr, path, cfg))}"
            for key, path in _CONFIG_KEYS.items()]


def write_manifest(
    path: str | Path,
    command: str,
    cfg: PipelineConfig | None,
    inputs: dict[str, object],
    extra: dict[str, object] | None = None,
) -> None:
    lines = [f"command={command}"]
    lines += [f"{k}={v}" for k, v in inputs.items()]
    if cfg is not None:
        lines += _config_lines(cfg)
    if extra:
        lines += [f"{k}={_format_value(v) if isinstance(v, (bool, float)) else v}"
                  for k, v in extra.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- subcommands ---


def cmd_defaults(args: argparse.Namespace) -> int:
    cfg = PipelineConfig()
    lines = ["# resolved defaults; every line below loads back as a config file"]
    lines += _config_lines(cfg)
    lines.append(
        f"# derived: control_points={cfg.control_points} "
        f"(border ring of a {cfg.grid_per_edge}x{cfg.grid_per_edge} lattice)"
    )
    lines.append(
        "# note: a trajectory is kept only when strictly longer than "
        f"min_track_len frames (length > {cfg.min_track_len})"
    )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        log.info("wrote defaults to %s", args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config, _flag_overrides(args))
    spec = make_scene_spec(
        width=args.width,
        height=args.height,
        frame_count=args.frames,
        n_background=args.background,
        n_foreground=args.foreground,
        seed=args.seed,
        path_amplitude=args.path_amplitude,
        jitter_translation=args.jitter_translation,
        jitter_rotation_deg=args.jitter_rotation,
        foreground_amplitude=args.foreground_amplitude,
    )
    shaky, truth = synthesize_scene(spec, args.seed)
    save_trajectories(shaky, args.out_shaky)
    if args.out_truth:
        save_trajectories(truth, args.out_truth)
    log.info(
        "synthesized %d trajectories over %d frames (seed %d)",
        len(shaky.trajectories), shaky.frame_count, args.seed,
    )
    write_manifest(
        str(args.out_shaky) + ".manifest", "synth", cfg,
        {
            "width": args.width, "height": args.height, "frames": args.frames,
            "background": args.background, "foreground": args.foreground,
            "seed": args.seed, "path_amplitude": args.path_amplitude,
            "jitter_translation": args.jitter_translation,
            "jitter_rotation": args.jitter_rotation,
            "foreground_amplitude": args.foreground_amplitude,
            "out_shaky": args.out_shaky, "out_truth": args.out_truth or "",
        },
    )
    return EXIT_OK


def cmd_track(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config, _flag_overrides(args))
    frames = load_frame_dir(args.frames)
    log.info("tracking %d frames of %dx%d",
             len(frames), frames[0].width, frames[0].height)
    t0 = time.perf_counter()
    ts = build_trajectories(frames, cfg.tracker)
    ts = filter_short(ts, cfg.min_track_len)
    dt = time.perf_counter() - t0
    save_trajectories(ts, args.out)
    per_frame = 1000.0 * dt / max(len(frames), 1)
    log.info("tracked %d trajectories in %.2fs (%.1f ms/frame)",
             len(ts.trajectories), dt, per_frame)
    write_manifest(
        str(args.out) + ".manifest", "track", cfg,
        {"frames": args.frames, "out": args.out},
        {"trajectories": len(ts.trajectories),
         "runtime_per_frame_ms": per_frame},
    )
    return EXIT_OK


def _stabilize(ts: TrajectorySet, cfg: PipelineConfig):
    """Meshes, both solve stages, and the warp field for one trajectory set."""
    s1 = cfg.stage1
    meshes = build_all_meshes(ts, cfg.grid_per_edge)
    lsm = build_lsm_table(ts, s1.lsm)
    stabilized = stabilize_stage1(ts, meshes, s1, lsm)
    controls = solve_stage2(meshes, stabilized, s1)
    field = build_warp_field(meshes, stabilized, controls)
    return stabilized, controls, field


def cmd_stabilize(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config, _flag_overrides(args))
    ts = load_trajectories(args.trajectories)
    ts = filter_short(ts, cfg.min_track_len)
    if not ts.trajectories:
        raise ParseError(
            f"{args.trajectories}: no trajectory longer than "
            f"{cfg.min_track_len} frames; nothing to stabilize"
        )
    # the modules import the scipy they compute with where they call it; load
    # it before the clock starts, so that runtime_per_frame_ms times only work
    import scipy.linalg
    import scipy.sparse.linalg
    import scipy.spatial

    t0 = time.perf_counter()
    stabilized, controls, field = _stabilize(ts, cfg)
    dt = time.perf_counter() - t0
    save_trajectories(stabilized, args.out)
    if args.warpfield:
        save_warpfield(field, args.warpfield)
    per_frame = 1000.0 * dt / ts.frame_count
    flipped = sum(len(fw.flipped) for fw in field.frames)
    log.info(
        "stabilized %d trajectories over %d frames in %.2fs (%.1f ms/frame)",
        len(ts.trajectories), ts.frame_count, dt, per_frame,
    )
    if controls.fallback_frames:
        log.warning(
            "stage-2 fell back to original control points on %d frame(s), first: %s",
            len(controls.fallback_frames), list(controls.fallback_frames[:10]),
        )
    write_manifest(
        str(args.out) + ".manifest", "stabilize", cfg,
        {"trajectories": args.trajectories, "out": args.out,
         "warpfield": args.warpfield or ""},
        {"runtime_per_frame_ms": per_frame,
         "flipped_triangles": flipped,
         "stage2_fallback_frames": len(controls.fallback_frames)},
    )
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config, _flag_overrides(args))
    frames = load_frame_dir(args.frames)
    field = load_warpfield(args.warpfield)
    if len(field.frames) != len(frames):
        raise ParseError(
            f"warp field covers {len(field.frames)} frames, "
            f"input has {len(frames)}"
        )
    size = (frames[0].width, frames[0].height)
    if field.frame_size != size:
        raise ParseError(
            f"warp field is for {field.frame_size[0]}x{field.frame_size[1]} "
            f"frames, input is {size[0]}x{size[1]}"
        )
    t0 = time.perf_counter()
    rendered, stats = render_all(frames, field)
    rect = (0, 0, size[0], size[1])
    if cfg.crop:
        rect = common_crop(field)
        rendered = [apply_crop(f, rect) for f in rendered]
    dt = time.perf_counter() - t0
    save_frame_dir(rendered, args.out)
    per_frame = 1000.0 * dt / len(frames)
    log.info(
        "rendered %d frames in %.2fs (%.1f ms/frame); "
        "%d uncovered px, %d flipped triangles, crop %s",
        len(frames), dt, per_frame, stats.uncovered_pixels,
        stats.flipped_triangles, rect,
    )
    write_manifest(
        Path(args.out) / "render.manifest", "render", cfg,
        {"frames": args.frames, "warpfield": args.warpfield, "out": args.out},
        {"runtime_per_frame_ms": per_frame,
         "uncovered_pixels": stats.uncovered_pixels,
         "flipped_triangles": stats.flipped_triangles,
         "crop_rect": "%d,%d,%d,%d" % rect},
    )
    return EXIT_OK


def _manifest_value(path: str, key: str) -> float:
    for ln, raw in enumerate(read_text(path).splitlines(), start=1):
        if raw.startswith(key + "="):
            try:
                return float(raw.split("=", 1)[1])
            except ValueError:
                raise ParseError(f"bad {key} value {raw!r}", line=ln) from None
    raise ParseError(f"{path}: no {key} line")


def _svg_polyline(points: np.ndarray, color: str) -> str:
    coords = " ".join(f"{p[0]:.3f},{p[1]:.3f}" for p in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="0.7" opacity="0.9"/>'
    )


def plot_trajectories(
    before: TrajectorySet,
    after: TrajectorySet,
    path: str | Path,
    max_tracks: int = 8,
) -> int:
    """SVG overlay of sample trajectories: input red, stabilized blue.

    Picks the longest trajectories (ties by id) present in both sets.
    Returns the number plotted.
    """
    w, h = before.frame_size
    after_by_id = {tr.id: tr for tr in after.trajectories}
    pool = [tr for tr in before.trajectories if tr.id in after_by_id]
    pool.sort(key=lambda tr: (-len(tr), tr.id))
    chosen = pool[:max_tracks]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{2 * w}" height="{2 * h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white" '
        f'stroke="#444" stroke-width="0.5"/>',
    ]
    for tr in chosen:
        parts.append(_svg_polyline(tr.points, "#cc2222"))
    for tr in chosen:
        parts.append(_svg_polyline(after_by_id[tr.id].points, "#2244cc"))
    parts.append('<text x="2" y="8" font-size="6" fill="#cc2222">input</text>')
    parts.append(
        '<text x="2" y="16" font-size="6" fill="#2244cc">stabilized</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
    return len(chosen)


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config, _flag_overrides(args))
    before = load_trajectories(args.before)
    after = load_trajectories(args.after)
    frames_before = load_frame_dir(args.frames_before) if args.frames_before else None
    frames_after = load_frame_dir(args.frames_after) if args.frames_after else None

    source = "trajectories"
    score_before, score_after = before, after
    if args.retrack:
        if frames_before is None or frames_after is None:
            raise ParseError(
                "--retrack needs both --frames-before and --frames-after"
            )
        score_before = filter_short(build_trajectories(frames_before, cfg.tracker),
                                    cfg.min_track_len)
        score_after = filter_short(build_trajectories(frames_after, cfg.tracker),
                                   cfg.min_track_len)
        source = "retracked"

    rep_before = stability_score(score_before)
    rep_after = stability_score(score_after)
    ssim_before = video_ssim(frames_before).mean if frames_before else math.nan
    ssim_after = video_ssim(frames_after).mean if frames_after else math.nan
    flipped: float = math.nan
    if args.warpfield:
        field = load_warpfield(args.warpfield)
        flipped = sum(len(fw.flipped) for fw in field.frames)
    runtime = math.nan
    if args.stabilize_manifest:
        runtime = _manifest_value(args.stabilize_manifest, "runtime_per_frame_ms")

    def fmt(v: float | None) -> str:
        return "nan" if v is None or (isinstance(v, float) and math.isnan(v)) else repr(float(v))

    lines = [
        f"stability_before={fmt(rep_before.mean)}",
        f"stability_after={fmt(rep_after.mean)}",
        f"ssim_before={fmt(ssim_before)}",
        f"ssim_after={fmt(ssim_after)}",
        f"flipped_triangles={int(flipped) if not math.isnan(flipped) else 'nan'}",
        f"runtime_per_frame_ms={fmt(runtime)}",
        f"stability_source={source}",
        f"stability_segments_before={rep_before.count}",
        f"stability_segments_after={rep_after.count}",
        f"jitter_energy_before={fmt(jitter_energy(score_before))}",
        f"jitter_energy_after={fmt(jitter_energy(score_after))}",
    ]
    text = "\n".join(lines) + "\n"
    Path(args.report).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    if args.plot:
        n = plot_trajectories(before, after, args.plot)
        log.info("plotted %d trajectory pairs to %s", n, args.plot)
    return EXIT_OK


# --- argument parsing ---


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", default=None,
                   help="key=value config file (flags override it)")
    p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                   help="override any config key (repeatable)")


def _flag_type(key: str):
    """argparse type for a named flag: the config cast, failing as a usage error."""
    def cast(text: str):
        try:
            return _cast_value(key, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return cast


def _add_named_overrides(p: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    for key in keys:
        kind = _FIELD_TYPES[key]
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            group = p.add_mutually_exclusive_group()
            group.add_argument(flag, dest=f"opt_{key}", action="store_true",
                               default=None)
            group.add_argument("--no-" + key.replace("_", "-"),
                               dest=f"opt_{key}", action="store_false",
                               default=None)
        else:
            p.add_argument(flag, dest=f"opt_{key}", type=_flag_type(key),
                           default=None, metavar=key.upper())


_STAGE_KEYS = (
    "alpha", "beta", "gamma", "epsilon", "sigma", "tau", "knn",
    "clamp_low", "clamp_high", "min_track_len", "grid_per_edge",
    "solver_tol",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshstab",
        description="Video stabilization on adaptively triangulated feature meshes.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("defaults", help="print the resolved default config")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_defaults)

    p = sub.add_parser("synth", help="generate a synthetic shaky scene")
    p.add_argument("--width", type=int, default=320)
    p.add_argument("--height", type=int, default=240)
    p.add_argument("--frames", type=int, default=120)
    p.add_argument("--background", type=int, default=60)
    p.add_argument("--foreground", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--path-amplitude", type=float, default=8.0)
    p.add_argument("--jitter-translation", type=float, default=3.0)
    p.add_argument("--jitter-rotation", type=float, default=0.5,
                   help="degrees")
    p.add_argument("--foreground-amplitude", type=float, default=0.0)
    p.add_argument("--out-shaky", required=True, metavar="FILE")
    p.add_argument("--out-truth", default=None, metavar="FILE")
    _add_common_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("track", help="extract feature trajectories from frames")
    p.add_argument("frames", help="directory of .pgm/.ppm files or a .y4m file")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_common_flags(p)
    _add_named_overrides(p, ("min_track_len",))
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("stabilize", help="solve for stabilized trajectories")
    p.add_argument("trajectories", help="trajectory file (track/synth output)")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="stabilized trajectory file")
    p.add_argument("--warpfield", default=None, metavar="FILE",
                   help="also write the per-frame warp field")
    _add_common_flags(p)
    _add_named_overrides(p, _STAGE_KEYS)
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("render", help="warp frames through a warp field")
    p.add_argument("frames", help="directory of .pgm/.ppm files or a .y4m file")
    p.add_argument("warpfield", help="warp field file (stabilize output)")
    p.add_argument("--out", required=True, metavar="DIR")
    _add_common_flags(p)
    _add_named_overrides(p, ("crop",))
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("evaluate",
                       help="stability and SSIM report, before vs after")
    p.add_argument("--before", required=True, metavar="FILE",
                   help="input trajectory file")
    p.add_argument("--after", required=True, metavar="FILE",
                   help="stabilized trajectory file")
    p.add_argument("--frames-before", default=None, metavar="PATH")
    p.add_argument("--frames-after", default=None, metavar="PATH")
    p.add_argument("--warpfield", default=None, metavar="FILE",
                   help="count flipped triangles from this field")
    p.add_argument("--stabilize-manifest", default=None, metavar="FILE",
                   help="copy runtime_per_frame_ms from this manifest")
    p.add_argument("--retrack", action="store_true",
                   help="re-track the rendered frames for the stability score")
    p.add_argument("--report", required=True, metavar="FILE")
    p.add_argument("--plot", default=None, metavar="SVG")
    _add_common_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def _pin_malloc() -> None:
    """Fix glibc's mmap and trim thresholds at 32 and 64 MiB; idempotent.

    glibc otherwise raises its mmap threshold whenever it frees an mmapped
    block, so whether a subcommand's per-frame arrays (a few hundred KiB)
    come from the heap or from fresh, page-faulting mmaps would depend on
    what ran before it in the process.  A no-op without libc.so.6.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _pin_malloc()
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ParseError as exc:
        log.error("%s", exc)
        return EXIT_PARSE
    except DegenerateGeometryError as exc:
        log.error("degenerate geometry: %s", exc)
        return EXIT_PARSE
    except SolverError as exc:
        log.error("solver failed: %s", exc)
        return EXIT_SOLVER
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_PARSE
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
