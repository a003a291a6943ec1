"""Which scipy subpackages each entry point loads.

Every case runs in a fresh interpreter and asserts on the names in its
``sys.modules`` only, never on times.  A subpackage is ``scipy.<name>``
with a public name; what a bare ``import scipy`` loads is the floor.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshstab import cli
from meshstab.frames import save_frame_dir

from conftest import textured_frames

SRC = Path(__file__).resolve().parents[1] / "src"

# loaded by no entry point: they cost most of the import time and compute nothing
NEVER = {"scipy.signal", "scipy.ndimage", "scipy.stats"}

_PROBE = """\
import json, sys
sys.path.insert(0, {src!r})
{body}
with open({out!r}, "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), fh)
"""


def _subpackages(body: str, out: Path) -> set[str]:
    """The public scipy subpackages loaded after running `body` in a fresh interpreter."""
    code = _PROBE.format(src=str(SRC), body=body, out=str(out))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(out.read_text())
    return {".".join(m.split(".")[:2]) for m in names
            if "." in m and not m.split(".")[1].startswith("_")}


def _cli_body(argv: list[str]) -> str:
    return ("from meshstab import cli\n"
            "try:\n"
            f"    code = cli.main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "assert code == 0, code\n")


@pytest.fixture(scope="module")
def clip(tmp_path_factory):
    """A small clip with its tracks, stabilized tracks, warp field and render."""
    root = tmp_path_factory.mktemp("footprint")
    frames, _ = textured_frames(np.random.default_rng(40), width=64, height=48,
                                frame_count=8, max_shift=2)
    save_frame_dir(frames, root / "in")
    paths = {"in": root / "in", "traj": root / "t.traj", "stab": root / "s.traj",
             "field": root / "f.warp", "out": root / "out"}
    assert cli.main(["track", str(paths["in"]), "--out", str(paths["traj"])]) == 0
    assert cli.main(["stabilize", str(paths["traj"]), "--out", str(paths["stab"]),
                     "--warpfield", str(paths["field"])]) == 0
    assert cli.main(["render", str(paths["in"]), str(paths["field"]),
                     "--out", str(paths["out"])]) == 0
    return paths


@pytest.fixture(scope="module")
def floor(tmp_path_factory):
    """What bare `import scipy` loads, and what `import scipy.fft` loads."""
    root = tmp_path_factory.mktemp("floor")
    return (_subpackages("import scipy", root / "bare.json"),
            _subpackages("import scipy.fft", root / "fft.json"))


@pytest.mark.parametrize("body", [
    "import meshstab",
    "import meshstab.cli",
    _cli_body(["defaults"]),
    _cli_body(["--help"]),
], ids=["import-meshstab", "import-cli", "defaults", "help"])
def test_import_and_help_load_no_scipy_subpackage(body, floor, tmp_path):
    assert _subpackages(body, tmp_path / "mods.json") <= floor[0]


def test_synth_track_and_render_load_no_scipy_subpackage(clip, floor, tmp_path):
    synth = _cli_body(["synth", "--frames", "20", "--out-shaky", str(tmp_path / "syn.traj")])
    track = _cli_body(["track", str(clip["in"]), "--out", str(tmp_path / "t.traj")])
    render = _cli_body(["render", str(clip["in"]), str(clip["field"]),
                        "--out", str(tmp_path / "out")])
    for body in (synth, track, render):
        loaded = _subpackages(body, tmp_path / "mods.json")
        assert loaded <= floor[0]
        assert not loaded & NEVER


@pytest.mark.parametrize("retrack", [False, True], ids=["ssim", "retrack"])
def test_evaluate_loads_scipy_fft_and_nothing_else(retrack, clip, floor, tmp_path):
    argv = ["evaluate", "--before", str(clip["traj"]), "--after", str(clip["stab"]),
            "--frames-before", str(clip["in"]), "--frames-after", str(clip["out"]),
            "--warpfield", str(clip["field"]), "--report", str(tmp_path / "r.txt")]
    loaded = _subpackages(_cli_body(argv + ["--retrack"] * retrack), tmp_path / "mods.json")
    assert "scipy.fft" in loaded
    assert loaded == floor[1]
    assert not loaded & NEVER


def test_stabilize_loads_its_solvers_and_qhull_only(clip, tmp_path):
    body = _cli_body(["stabilize", str(clip["traj"]), "--out", str(tmp_path / "s.traj"),
                      "--warpfield", str(tmp_path / "f.warp")])
    loaded = _subpackages(body, tmp_path / "mods.json")
    assert {"scipy.linalg", "scipy.sparse", "scipy.spatial"} <= loaded
    assert not loaded & NEVER
