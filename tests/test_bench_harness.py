"""The benchmark harness still fits the package: the tracer finds every name
it patches, the layer probe runs, and a traced round of every workload
passes its checks."""

import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``run``, ``tracing`` and ``workloads`` from bench/, imported with
    bench/ on sys.path for this test only: the path entry and every bench
    module imported here are gone afterwards, so their generic names shadow
    nothing."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    yield SimpleNamespace(
        run=importlib.import_module("run"),
        tracing=importlib.import_module("tracing"),
        workloads=importlib.import_module("workloads"),
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


def test_traced_mini_round_passes_every_check(bench, tmp_path):
    # the small round of every workload that a traced run makes first: no
    # operation fails or is refused by a check, and the tracer reads the
    # models of every exact pass from its result
    tracer = bench.tracing.Tracer()
    tally = bench.run.Tally()
    passes = 0
    tracer.install()
    try:
        for name, cls in bench.workloads.WORKLOADS.items():
            workload = cls(1, tmp_path, mini=True)
            first = len(tracer.spans)
            workload.setup()
            tally.run_round(workload.ops(), tracer)
            for span in tracer.spans[first:]:
                if span.name == "exact.enumerate_exact":
                    assert span.attrs["models"] == 2**workload.p, name
                    passes += 1
    finally:
        tracer.uninstall()
    assert tally.attempted > 0
    assert tally.failed == tally.wrong == 0
    assert passes > 0
