"""The benchmark harness still fits the package: the tracer finds every name
it patches, and the layer probe runs."""

import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``run`` and ``tracing`` from bench/, imported with bench/ on sys.path
    for this test only: the path entry and every bench module imported here
    are gone afterwards, so their generic names shadow nothing."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    yield SimpleNamespace(
        run=importlib.import_module("run"),
        tracing=importlib.import_module("tracing"),
    )
    for name in set(sys.modules) - before:
        origin = getattr(sys.modules[name], "__file__", None) or ""
        if Path(origin).parent == BENCH:
            del sys.modules[name]


def test_tracer_patches_and_restores_every_name(bench):
    tracer = bench.tracing.Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_probe_layers_is_finite(bench):
    probe = bench.run.probe_layers(1)
    assert probe
    assert all(math.isfinite(v) for v in probe.values())
