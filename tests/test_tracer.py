"""The benchmark's per-layer tracer still binds every name it wraps, and
the suite leaves no bytecode in the sources the benchmark imports."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer._patches
    finally:
        assert tracer.uninstall() == []


def test_the_suite_writes_no_bytecode():
    # set by conftest before toricray is imported: a __pycache__ left under
    # src/ changes what the benchmark's fresh interpreters compile at set-up
    assert sys.dont_write_bytecode
