"""Malformed text inputs: every parser either loads a file or raises ParseError.

The property tests start from a valid trajectory file, warp-field file and
config file, and mutate them by deleting, duplicating or replacing tokens
and lines and by injecting arbitrary bytes.
"""
from __future__ import annotations

import re
import tempfile
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshstab import cli
from meshstab.errors import ParseError
from meshstab.mesh import build_all_meshes
from meshstab.trajectory import load_trajectories, save_trajectories
from meshstab.warp import build_warp_field, load_warpfield, save_warpfield

from conftest import random_set


@pytest.mark.parametrize("load, text, line", [
    (load_trajectories, b"3 64 48\n0 0 1.0 2.0 \xff\n", 2),
    (load_trajectories, b"\xc3(", 1),
    (load_warpfield, b"1 64 48\n0 0 0\n\xfe\n", 3),
    (cli.load_config, b"alpha=1\n# caf\xe9\nbeta=2\n", 2),
    (cli.load_config, b"alpha=1\r\nbeta=\x80\n", 2),
], ids=["traj", "traj_first_byte", "warp", "config_comment", "config_crlf"])
def test_non_utf8_input_raises_parse_error(tmp_path, load, text, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(ParseError, match=f"line {line}: not UTF-8") as err:
        load(path)
    assert err.value.line == line


def test_non_utf8_trajectory_file_exits_three(tmp_path):
    bad = tmp_path / "bad.traj"
    bad.write_bytes(b"3 64 48\n\xff\xfe\n")
    assert cli.main(["stabilize", str(bad), "--out", str(tmp_path / "o.traj")]) == 3


# --- property tests over mutated valid files ---

_TOKENS = st.one_of(
    st.integers(-2, 2).map(str),
    st.sampled_from(["0", "1", "2", "-1", "-5", "3.5", "nan", "inf", "-inf",
                     "1e309", "99999999999999999999", "x", "=", "#", "true"]),
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
    st.text(min_size=1, max_size=4),
)


@st.composite
def _mutated(draw, text: str) -> bytes:
    # a line is a list of tokens at even indices and separators (whitespace,
    # "=") at odd ones; an emptied line keeps one empty token
    lines = [re.split(r"(\s+|=)", ln) for ln in text.splitlines()]
    # positions come from a seeded Random, since hypothesis draws integers
    # with a bias toward 0 and would edit the first line in most examples;
    # three edits in ten go to the short lines, the headers that size what
    # follows them
    rnd = draw(st.randoms(use_true_random=True))
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        short = [k for k, p in enumerate(lines) if len(p) <= 5]
        i = rnd.choice(short) if short and rnd.random() < 0.3 else rnd.randrange(len(lines))
        parts = lines[i]
        j = 2 * rnd.randrange((len(parts) + 1) // 2)
        op = draw(st.sampled_from(["set_tok", "del_line", "dup_line", "del_tok", "dup_tok"]))
        if op == "del_line":
            del lines[i]
        elif op == "dup_line":
            lines.insert(i, list(parts))
        elif op == "del_tok":
            del parts[j:j + 2]
            parts[:] = parts or [""]
        elif op == "dup_tok":
            parts[j:j] = [parts[j], " "]
        else:
            parts[j] = draw(_TOKENS)
    data = "\n".join("".join(p) for p in lines).encode("utf-8")
    if rnd.random() < 0.25:
        pos = rnd.randrange(len(data) + 1)
        data = data[:pos] + draw(st.binary(min_size=1, max_size=4)) + data[pos:]
    return data


def _write(tmp: str, data: bytes) -> Path:
    path = Path(tmp) / "input.txt"
    path.write_bytes(data)
    return path


def _saved_text(save, obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.txt"
        save(obj, path)
        return path.read_text(encoding="utf-8")


def _valid_trajectories() -> str:
    return _saved_text(save_trajectories, random_set(
        np.random.default_rng(40), n_traj=4, frame_count=6, staggered=True))


def _valid_warpfield() -> str:
    rng = np.random.default_rng(41)
    ts = random_set(rng, n_traj=1, frame_count=2, width=40, height=30)
    meshes = build_all_meshes(ts, per_edge=2)
    ctrl = np.array([m.control_points for m in meshes])
    field = build_warp_field(meshes, ts, ctrl + rng.uniform(-1, 1, ctrl.shape))
    return _saved_text(save_warpfield, field)


def _valid_config() -> str:
    return "# tuned\nalpha=5.0\nknn = 6\ncrop=false  # no crop\n\ntracker_window=15\n"


def _load_resolved_config(path):
    return cli.resolve_config(str(path), {})


def _load_trajectories_and_table(path):
    # every id and frame a load accepts must also pack into the int64 table
    ts = load_trajectories(path)
    return ts, ts.observations


_CASES = {
    "trajectories": (_load_trajectories_and_table, _valid_trajectories()),
    "warpfield": (load_warpfield, _valid_warpfield()),
    "config": (_load_resolved_config, _valid_config()),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_unmutated_input_loads(name):
    load, valid = _CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        load(_write(tmp, valid.encode("utf-8")))


@pytest.mark.parametrize("name", list(_CASES))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_input_loads_or_raises_parse_error(name, data):
    load, valid = _CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, data.draw(_mutated(valid)))
        try:
            load(path)
        except ParseError:
            pass


# --- integers at and beyond the int64 range in every integer field ---

_WIDE_INTS = st.one_of(
    st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1, 2**31, 10**20, 10**400]),
    st.integers(2**62, 2**66), st.integers(-(2**66), -(2**62)))


_INT_KEYS = [key for key, kind in cli._FIELD_TYPES.items() if kind is int]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(keys=st.lists(st.sampled_from(_INT_KEYS), min_size=1, max_size=3, unique=True),
       data=st.data())
def test_config_integers_beyond_int64_load_or_raise_parse_error(keys, data):
    pairs = [f"{key}={data.draw(_WIDE_INTS)}" for key in keys]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "\n".join(pairs).encode("utf-8"))
        for load in (lambda: cli.resolve_config(str(path), {}),
                     lambda: cli.resolve_config(None, cli._flag_overrides(SimpleNamespace(set=pairs)))):
            try:
                cfg = load()
            except ParseError:
                continue
            # every integer a load accepts is held as int64 downstream
            np.array([reduce(getattr, cli._CONFIG_KEYS[k], cfg) for k in _INT_KEYS],
                     dtype=np.int64)


def _warpfield_integer_fields(text: str) -> tuple[list[list[str]], list[list[tuple[int, int]]]]:
    """The tokens of each line, and (line, token) of every integer field in
    three groups: the header, the frame headers and the triangles' vertex
    indices."""
    lines = [ln.split() for ln in text.splitlines()]
    groups = [[(0, k) for k in range(3)], [], []]
    i = 1
    for _ in range(int(lines[0][0])):
        ntri, nvert, _ = map(int, lines[i])
        groups[1] += [(i, k) for k in range(3)]
        groups[2] += [(i + 1 + t, k) for t in range(ntri) for k in (6, 7, 8)]
        i += 1 + ntri + nvert
    return lines, groups


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_warpfield_integers_beyond_int64_load_or_raise_parse_error(data):
    lines, groups = _warpfield_integer_fields(_CASES["warpfield"][1])
    for _ in range(data.draw(st.integers(1, 2))):
        i, k = data.draw(st.sampled_from(data.draw(st.sampled_from(groups))))
        lines[i][k] = str(data.draw(_WIDE_INTS))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "\n".join(map(" ".join, lines)).encode("utf-8"))
        try:
            field = load_warpfield(path)
        except ParseError:
            return
    # every count a load accepts is held as int64 downstream
    np.array([len(field.frames), *field.frame_size, field.n_controls], dtype=np.int64)
