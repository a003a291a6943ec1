from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from meshstab import cli
from meshstab.errors import ParseError
from meshstab.frames import load_frame_dir, save_frame_dir, GrayFrame
from meshstab.trajectory import load_trajectories

from conftest import textured_frames
from meshstab.warp import save_warpfield
from test_warp import _ring_field, _scaled_ring, nudge_affine


def _report_dict(path):
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        k, v = raw.split("=", 1)
        out[k] = v
    return out


def test_defaults_reports_resolved_values(capsys):
    assert cli.main(["defaults"]) == 0
    text = capsys.readouterr().out
    vals = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            k, v = line.split("=", 1)
            vals[k] = v
    assert float(vals["alpha"]) == 20.0
    assert float(vals["beta"]) == 10.0
    assert float(vals["gamma"]) == 10.0
    assert float(vals["epsilon"]) == 20.0
    assert float(vals["sigma"]) == 10.0
    assert float(vals["tau"]) == 10.0
    assert float(vals["clamp_low"]) == 0.1
    assert float(vals["clamp_high"]) == 10.0
    assert int(vals["min_track_len"]) == 3
    assert "control_points=36" in text
    assert "length > 3" in text


def test_defaults_output_loads_back_as_config(tmp_path):
    cfgfile = tmp_path / "defaults.cfg"
    assert cli.main(["defaults", "--out", str(cfgfile)]) == 0
    loaded = cli.load_config(cfgfile)
    assert len(loaded) == len(cli._CONFIG_KEYS)
    assert cli.resolve_config(str(cfgfile), {}) == cli.PipelineConfig()


def test_load_config_error_reporting(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha=20\nnot_a_key=3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        cli.load_config(bad)
    bad.write_text("alpha=twenty\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        cli.load_config(bad)
    bad.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ParseError, match="key=value"):
        cli.load_config(bad)


def test_flag_overrides_beat_config_file(tmp_path):
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text("alpha=5.0\nbeta=2.0\n", encoding="utf-8")
    cfg = cli.resolve_config(str(cfgfile), {"alpha": 7.0})
    assert cfg.alpha == 7.0
    assert cfg.beta == 2.0
    assert cfg.gamma == 10.0


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_malformed_trajectory_file_exits_three(tmp_path):
    bad = tmp_path / "bad.traj"
    bad.write_text("garbage\n", encoding="utf-8")
    out = tmp_path / "out.traj"
    assert cli.main(["stabilize", str(bad), "--out", str(out)]) == 3


def test_missing_input_file_exits_five(tmp_path):
    out = tmp_path / "out.traj"
    code = cli.main(["stabilize", str(tmp_path / "nope.traj"), "--out", str(out)])
    assert code == 5


def test_bad_config_value_exits_three(tmp_path, caplog):
    bad = tmp_path / "b.traj"
    bad.write_text("x\n", encoding="utf-8")
    code = cli.main(["stabilize", str(bad), "--out", str(tmp_path / "o"),
                     "--set", "min_track_len=1"])
    assert code == 3
    # NaN passes a `< 0` or `<= 0` check; each stage-1 field must refuse it
    # by name rather than fail later in the solver
    for key in ("solver_tol", "alpha", "beta", "gamma", "epsilon", "sigma", "tau",
                "clamp_low", "clamp_high"):
        caplog.clear()
        code = cli.main(["stabilize", str(bad), "--out", str(tmp_path / "o"),
                         "--set", f"{key}=nan", "--set", "dense_cutoff=0"])
        assert code == 3
        assert key in caplog.text


def test_malloc_pin_falls_back_without_glibc(monkeypatch, capsys):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    assert cli.main(["defaults"]) == 0
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    def no_libc(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    assert cli.main(["defaults"]) == 0
    assert cli.main(["defaults"]) == 0
    assert "alpha" in capsys.readouterr().out


def test_trajectory_id_beyond_int64_exits_three(tmp_path, caplog):
    path = tmp_path / "big.traj"
    path.write_text("5 64 48\n" + str(10**23) + " 0 1.0 2.0 3.0 4.0 5.0 6.0 7.0 8.0\n",
                    encoding="utf-8")
    assert cli.main(["stabilize", str(path), "--out", str(tmp_path / "o.traj")]) == 3
    assert "line 2" in caplog.text and "int64" in caplog.text


def test_control_grid_beyond_frame_side_exits_three(tmp_path, caplog):
    # a linspace of 10^12 points once ran out of memory
    traj = _synth(tmp_path, "in.traj")
    out = tmp_path / "o.traj"
    code = cli.main(["stabilize", str(traj), "--out", str(out),
                     "--set", f"grid_per_edge={10**12}"])
    assert code == cli.EXIT_PARSE
    assert "per_edge" in caplog.text and not out.exists()


@pytest.mark.parametrize("setting", [
    "tracker_max_iterations=0", "tracker_fb_error_max=-1", "tracker_response_radius=0",
    "tracker_corner_target=0", "tracker_grid_cols=0",
    # NaN or out-of-range values that track wrongly without complaint
    "tracker_min_new_corner_dist=nan", "tracker_convergence_px=-0.01",
    "tracker_redetect_fraction=-1.0", "tracker_min_per_cell=-1",
    # a grid finer than the 64x48 frame: once an int64 overflow, once a
    # per-cell Python loop over every cell
    f"tracker_grid_cols={10**30}", "tracker_grid_rows=49",
])
def test_track_rejects_tracker_values_that_track_nothing(tmp_path, setting, caplog):
    rng = np.random.default_rng(41)
    frames, _ = textured_frames(rng, width=64, height=48, frame_count=4, max_shift=1)
    save_frame_dir(frames, tmp_path / "in")
    out = tmp_path / "t.traj"
    code = cli.main(["track", str(tmp_path / "in"), "--out", str(out), "--set", setting])
    assert code == cli.EXIT_PARSE
    assert setting.split("=")[0].removeprefix("tracker_") in caplog.text
    assert not out.exists()


def _synth(tmp_path, name, seed=3, extra=()):
    out = tmp_path / name
    argv = ["synth", "--width", "160", "--height", "120", "--frames", "45",
            "--background", "16", "--seed", str(seed),
            "--path-amplitude", "4.0", "--jitter-translation", "2.0",
            "--jitter-rotation", "0.3", "--out-shaky", str(out), *extra]
    assert cli.main(argv) == 0
    return out


def test_synth_is_deterministic(tmp_path):
    a = _synth(tmp_path, "a.traj")
    b = _synth(tmp_path, "b.traj")
    assert a.read_bytes() == b.read_bytes()
    c = _synth(tmp_path, "c.traj", seed=4)
    assert a.read_bytes() != c.read_bytes()


def test_synth_truth_output(tmp_path):
    out = tmp_path / "s.traj"
    truth = tmp_path / "t.traj"
    assert cli.main([
        "synth", "--width", "160", "--height", "120", "--frames", "20",
        "--background", "10", "--seed", "1",
        "--out-shaky", str(out), "--out-truth", str(truth)]) == 0
    shaky = load_trajectories(out)
    clean = load_trajectories(truth)
    assert shaky.frame_count == clean.frame_count == 20
    assert ([tr.id for tr in shaky.trajectories]
            == [tr.id for tr in clean.trajectories])


def test_solver_failure_exits_four(tmp_path):
    traj = _synth(tmp_path, "s.traj")
    code = cli.main(["stabilize", str(traj), "--out", str(tmp_path / "o.traj"),
                     "--set", "max_iter_factor=0",
                     "--set", "dense_cutoff=0"])
    assert code == 4


def test_stabilize_evaluate_roundtrip(tmp_path):
    traj = _synth(tmp_path, "shaky.traj")
    stab = tmp_path / "stab.traj"
    wf = tmp_path / "field.txt"
    assert cli.main(["stabilize", str(traj), "--out", str(stab),
                     "--warpfield", str(wf)]) == 0
    manifest = Path(str(stab) + ".manifest").read_text(encoding="utf-8")
    assert "command=stabilize" in manifest
    assert "alpha=20.0" in manifest

    report = tmp_path / "report.txt"
    plot = tmp_path / "plot.svg"
    assert cli.main(["evaluate", "--before", str(traj), "--after", str(stab),
                     "--warpfield", str(wf),
                     "--stabilize-manifest", str(stab) + ".manifest",
                     "--report", str(report), "--plot", str(plot)]) == 0
    rep = _report_dict(report)
    for key in ("stability_before", "stability_after", "ssim_before",
                "ssim_after", "flipped_triangles", "runtime_per_frame_ms",
                "stability_source", "jitter_energy_before",
                "jitter_energy_after"):
        assert key in rep
    assert rep["stability_source"] == "trajectories"
    assert float(rep["stability_after"]) > float(rep["stability_before"])
    assert float(rep["jitter_energy_after"]) < float(rep["jitter_energy_before"])
    # no frames were given, so the image metrics stay undefined
    assert rep["ssim_before"] == "nan"
    assert float(rep["runtime_per_frame_ms"]) > 0.0
    svg = plot.read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    assert "polyline" in svg


def test_frame_pipeline_track_stabilize_render(tmp_path):
    rng = np.random.default_rng(40)
    frames, _ = textured_frames(rng, width=64, height=48, frame_count=8,
                                max_shift=2)
    indir = tmp_path / "in"
    save_frame_dir(frames, indir)

    traj = tmp_path / "tracked.traj"
    assert cli.main(["track", str(indir), "--out", str(traj)]) == 0
    ts = load_trajectories(traj)
    assert ts.frame_count == 8
    assert len(ts.trajectories) > 0

    stab = tmp_path / "stab.traj"
    wf = tmp_path / "field.txt"
    assert cli.main(["stabilize", str(traj), "--out", str(stab),
                     "--warpfield", str(wf)]) == 0

    outdir = tmp_path / "out"
    assert cli.main(["render", str(indir), str(wf),
                     "--out", str(outdir)]) == 0
    rendered = load_frame_dir(outdir)
    assert len(rendered) == 8
    manifest = (outdir / "render.manifest").read_text(encoding="utf-8")
    rect = next(l for l in manifest.splitlines()
                if l.startswith("crop_rect=")).split("=", 1)[1]
    x0, y0, w, h = (int(v) for v in rect.split(","))
    assert (rendered[0].width, rendered[0].height) == (w, h)
    assert 0 <= x0 and x0 + w <= 64 and 0 <= y0 and y0 + h <= 48

    report = tmp_path / "report.txt"
    assert cli.main(["evaluate", "--before", str(traj), "--after", str(stab),
                     "--frames-before", str(indir),
                     "--frames-after", str(outdir),
                     "--report", str(report)]) == 0
    rep = _report_dict(report)
    assert rep["ssim_before"] != "nan"
    assert rep["ssim_after"] != "nan"
    assert 0.0 < float(rep["ssim_after"]) <= 1.0


def test_render_rejects_mismatched_field(tmp_path):
    rng = np.random.default_rng(41)
    frames, _ = textured_frames(rng, width=64, height=48, frame_count=4)
    indir = tmp_path / "in"
    save_frame_dir(frames, indir)
    traj = tmp_path / "t.traj"
    assert cli.main(["track", str(indir), "--out", str(traj)]) == 0
    wf = tmp_path / "f.txt"
    assert cli.main(["stabilize", str(traj), "--out", str(tmp_path / "s.traj"),
                     "--warpfield", str(wf)]) == 0
    short = tmp_path / "short"
    save_frame_dir(frames[:3], short)
    assert cli.main(["render", str(short), str(wf),
                     "--out", str(tmp_path / "o")]) == 3


def test_render_rejects_field_with_too_few_controls(tmp_path):
    # with no controls the crop would take every vertex as the border ring
    indir = tmp_path / "in"
    save_frame_dir([GrayFrame.from_array(np.zeros((48, 64)))], indir)
    wf = tmp_path / "f.txt"
    wf.write_text("1 64 48\n2 4 0\n"
                  "1.0 0.0 0.0 0.0 1.0 0.0 0 1 2\n1.0 0.0 0.0 0.0 1.0 0.0 0 2 3\n"
                  "20 15 20 15\n43 15 43 15\n43 32 43 32\n20 32 20 32\n",
                  encoding="utf-8")
    assert cli.main(["render", str(indir), str(wf), "--out", str(tmp_path / "o")]) == 3


def test_render_keeps_full_frame_when_crop_holds_no_pixel(tmp_path):
    # a border ring shrunk to 1/200 about the center leaves a crop that
    # rounds to width and height 0 at 64x48
    indir = tmp_path / "in"
    save_frame_dir([GrayFrame.from_array(np.zeros((48, 64)))], indir)
    wf = tmp_path / "f.txt"
    save_warpfield(_ring_field((64, 48), [_scaled_ring((64, 48), 0.005)]), wf)
    out = tmp_path / "o"
    assert cli.main(["render", str(indir), str(wf), "--out", str(out)]) == 0
    assert [(f.width, f.height) for f in load_frame_dir(out)] == [(64, 48)]
    assert "crop_rect=0,0,64,48" in (out / "render.manifest").read_text()


def test_render_rejects_tampered_affine(tmp_path):
    rng = np.random.default_rng(42)
    frames, _ = textured_frames(rng, width=64, height=48, frame_count=4)
    indir = tmp_path / "in"
    save_frame_dir(frames, indir)
    traj = tmp_path / "t.traj"
    assert cli.main(["track", str(indir), "--out", str(traj)]) == 0
    wf = tmp_path / "f.txt"
    assert cli.main(["stabilize", str(traj), "--out", str(tmp_path / "s.traj"),
                     "--warpfield", str(wf)]) == 0
    nudge_affine(wf, frame=1, tri=0)
    assert cli.main(["render", str(indir), str(wf),
                     "--out", str(tmp_path / "o")]) == 3
