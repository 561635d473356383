"""The benchmark's per-layer tracer still binds every name it wraps."""

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
