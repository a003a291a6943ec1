"""perfbench traces the pipeline by patching names on meshstab's modules.

A refactor that drops or renames one of them makes a traced benchmark run
read 0 for that layer; this catches it here instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
