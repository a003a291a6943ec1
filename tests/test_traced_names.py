"""perfbench traces the pipeline by patching names on meshstab's modules.

A refactor that drops or renames one of them makes a traced benchmark run
read 0 for that layer; this catches it here instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves(monkeypatch):
    spans = _boundaries(monkeypatch)
    assert spans.BOUNDARIES
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in spans.BOUNDARIES
               if not callable(getattr(spans._resolve(owner), attr, None))]
    assert missing == []


def test_traced_rasterize_returns_frame_sized_image_and_owner_map(monkeypatch):
    # perfbench counts kernels.raster_px as out[0].size and
    # warp.uncovered_px as (out[1] < 0).sum(), so both must be frame-sized
    spans = _boundaries(monkeypatch)
    owner, attr, _, count = next(b for b in spans.BOUNDARIES if b[2] == "kernels.rasterize")
    rasterize = getattr(spans._resolve(owner), attr)
    H, W = 12, 17
    tris = np.array([[[0.0, 0.0], [16.0, 0.0], [0.0, 11.0]]])
    inv = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    for src in (np.arange(H * W, dtype=np.uint8).reshape(H, W), np.ones((H, W))):
        out = rasterize(src, tris, inv)
        img, own = out
        assert img.shape == (H, W) and img.dtype == np.float64
        assert own.shape == (H, W) and own.dtype == np.int64
        span = SimpleNamespace(counts={})
        count(span, (src, tris, inv), {}, out)
        assert span.counts == {"pixels": H * W, "uncovered": int((own < 0).sum())}
        assert 0 < span.counts["uncovered"] < H * W
