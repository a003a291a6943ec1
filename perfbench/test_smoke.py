"""Smoke test of the pipeline benchmark on tiny versions of its workloads.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
from checks import check_stabilize  # noqa: E402
from pipeline import run_clip  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

TINY = {
    "synth_dense": dict(width=96, height=72, frames=40, background=12),
    "synth_clips": dict(width=96, height=72, frames=40, clips=2, background=6),
    "video_track": dict(width=96, height=72, frames=40, path_amplitude=4.0),
}
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """bench with tiny workloads and its outputs under tmp_path."""
    small = {n: dataclasses.replace(w, **TINY[n]) for n, w in WORKLOADS.items()}
    monkeypatch.setattr(bench, "WORKLOADS", small)
    monkeypatch.setattr(bench, "BENCH_DIR", tmp_path)
    return small


def _run(capsys, *argv: str) -> tuple[str, dict]:
    code = bench.main(list(argv), load_at_start=(0.0, 0.0, 0.0))
    out = capsys.readouterr().out
    assert code == 0
    return out, json.loads(out.strip().splitlines()[-1])


def test_every_end_to_end_metric_prints_with_its_unit(tiny, capsys):
    out, result = _run(capsys, "--workload", "all", "--seconds", "0")
    assert result["correct"], out
    assert result["failed"] == 0
    assert result["attempted"] == 4 + 3 * 2 + 3
    for name, unit in bench.E2E_UNITS.items():
        rows = re.findall(rf"^  {re.escape(name)} +(\S+) {re.escape(unit)}$", out, re.M)
        assert len(rows) == len(tiny), name
    for w in tiny:
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert got["value"] > 0.0, (w, m["name"])


def test_every_per_layer_metric_prints_with_its_unit(tiny, capsys):
    out, result = _run(capsys, "--workload", "video_track", "--trace", "1")
    assert result["correct"], out
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^  {re.escape(m['name'])} +\S+ {re.escape(m['unit'])}$", out, re.M)
    assert "span self times add up" in out
    assert result["metrics"]["tracker.points_attempted"]["value"] > 0


def test_corrupted_warp_field_affine_fails_the_check(tiny, tmp_path):
    clip = make_inputs(tiny["synth_dense"], 3, tmp_path / "work")[0]
    run = run_clip(clip)
    assert not run.failed
    traj, stab, warp = clip.trajectories, clip.root / "stab.traj", clip.root / "field.warp"
    assert check_stabilize(traj, stab, warp) == []

    lines = warp.read_text(encoding="utf-8").splitlines()
    first_triangle = lines[2].split()  # after the file and frame headers
    first_triangle[2] = repr(float(first_triangle[2]) + 0.25)
    lines[2] = " ".join(first_triangle)
    warp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fails = check_stabilize(traj, stab, warp)
    assert len(fails) == 1 and "stored affine differs" in fails[0]


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
