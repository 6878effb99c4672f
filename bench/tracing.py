"""Spans and counts recorded from the benchmark's side of each layer boundary.

A layer is a module of the package: linmodel, bayesfactor, sampler,
estimators, exact and cli. ``Tracer.install`` replaces public functions, in
the module namespaces the program looks them up in, with wrappers, and
``Tracer.uninstall`` puts the originals back; nothing in the package changes.

Calls made once per command or once per sweep get one span each (name,
layer, start, end, parent span). Calls made per model or per component
(``FitState.add``/``delete``, ``log_bf_value``, ``sample_prior_g``,
``sse_direct``) are too many to keep as spans: each is counted and timed
into the span that encloses it. A span's self time is its duration minus
its child spans and the calls counted into it.

Work done in pool workers is not traced: a forked worker puts the original
functions back as it starts, and the parent's wait for the pool shows as
self time of the span that waits (``exact.enumerate_exact``,
``cli.compare_runs``).

Spans carry a phase: "probe" for the fixed set of small operations every
traced run makes first, "main" for the workload's own rounds. A per-layer
metric is taken from the main phase where the workload exercises that
layer, and from the probe otherwise, so every traced run reports every
metric.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("linmodel", "bayesfactor", "sampler", "estimators", "exact", "cli")


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0
    calls: dict = field(default_factory=dict)  # name -> [layer, count, seconds]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.child_time: list[float] = []
        self.phase = "probe"
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, layer, parent, self.phase, time.perf_counter())
        self.spans.append(span)
        self.child_time.append(0.0)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.child_time[span.parent] += span.duration

    def span_wrapper(self, fn, name: str, layer: str, attrs=None):
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def call_wrapper(self, fn, name: str, layer: str):
        stack = self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            t = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t
            if stack:
                rec = stack[-1].calls.get(name)
                if rec is None:
                    stack[-1].calls[name] = [layer, 1, dt]
                else:
                    rec[1] += 1
                    rec[2] += dt
            return result

        return wrapper

    def sweep_wrapper(self, fn):
        """gibbs_sweep, split by prior, with the bits the sweep flipped."""

        def wrapper(state, g, prior, rng, *args, **kwargs):
            kind = "zs" if prior.hierarchical else "fixed"
            before = state.bits
            span = self.open(f"sampler.gibbs_sweep_{kind}", "sampler")
            try:
                result = fn(state, g, prior, rng, *args, **kwargs)
            finally:
                self.close(span)
            span.attrs["flips"] = (before ^ state.bits).bit_count()
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from modelspace import cli, estimators, exact, linmodel, sampler

        os.register_at_fork(after_in_child=self.uninstall)
        span, call = self.span_wrapper, self.call_wrapper

        def size(args, kwargs, result):
            return {"size": len(result)}

        def exact_pass(args, kwargs, result):
            return {"models": result.model_count, "K": kwargs.get("K", 1000),
                    "workers": kwargs.get("workers") or exact.default_workers()}

        by_namespace = {
            cli: {
                "main": ("cli.main", "cli"),
                "write_trace": ("cli.write_trace", "cli"),
                "write_report": ("cli.write_report", "cli"),
                "read_trace": ("cli.read_trace", "cli"),
                "compare_runs": ("cli.compare_runs", "cli"),
                "score_external_trace": ("cli.score_external_trace", "cli"),
                "load_csv": ("linmodel.load_csv", "linmodel"),
                "expand_design": ("linmodel.expand_design", "linmodel"),
                "run_chain": ("sampler.run_chain", "sampler"),
                "summarize_trace": ("estimators.summarize_trace", "estimators"),
                "renormalized_estimate": ("estimators.renormalized_estimate", "estimators"),
                "find_hpm": ("estimators.find_hpm", "estimators"),
                "find_mpm": ("estimators.find_mpm", "estimators"),
                "topk_mass_log10": ("estimators.topk_mass_log10", "estimators"),
            },
            estimators: {
                name: (f"estimators.{name}", "estimators")
                for name in ("hh_inclusion", "hh_dimension", "find_hpm", "find_mpm",
                             "rank_models", "topk_mass_log10", "renormalized_estimate")
            },
            sampler: {"mh_step_g": ("sampler.mh_step_g", "sampler")},
            exact: {
                "enumerate_shard": ("exact.enumerate_shard", "exact"),
                "reduce_shards": ("exact.reduce_shards", "exact"),
            },
        }
        for owner, table in by_namespace.items():
            for attr, (name, layer) in table.items():
                self.patch(owner, attr, span(getattr(owner, attr), name, layer))
        for owner in (cli, estimators):
            self.patch(owner, "dedupe_models",
                       span(owner.dedupe_models, "estimators.dedupe_models", "estimators", size))
        self.patch(exact, "enumerate_exact",
                   span(exact.enumerate_exact, "exact.enumerate_exact", "exact", exact_pass))
        self.patch(sampler, "gibbs_sweep", self.sweep_wrapper(sampler.gibbs_sweep))
        for owner in (sampler, exact):
            self.patch(owner, "log_bf_value",
                       call(owner.log_bf_value, "bayesfactor.log_bf_value", "bayesfactor"))
        self.patch(sampler, "sample_prior_g",
                   call(sampler.sample_prior_g, "bayesfactor.sample_prior_g", "bayesfactor"))
        self.patch(sampler, "sse_direct", call(sampler.sse_direct, "linmodel.sse_direct", "linmodel"))
        for attr in ("add", "delete"):
            self.patch(linmodel.FitState, attr,
                       call(getattr(linmodel.FitState, attr), f"linmodel.FitState.{attr}", "linmodel"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_time(self, span: Span) -> float:
        inner = sum(rec[2] for rec in span.calls.values())
        return span.duration - self.child_time[span.sid] - inner

    def layer_self_seconds(self, phase: str) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            if s.phase != phase:
                continue
            if s.layer in out:
                out[s.layer] += self.self_time(s)
            for layer, _, seconds in s.calls.values():
                out[layer] += seconds
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "layer": s.layer, "parent": s.parent,
                    "phase": s.phase, "start": s.start - self.t0, "end": s.end - self.t0,
                    "self": self.self_time(s), "calls": s.calls, "attrs": s.attrs,
                }) + "\n")


# name, unit, better
PER_LAYER = [
    ("linmodel.load_expand_ms", "ms", "lower"),
    ("linmodel.add_delete_pair_us", "us", "lower"),
    ("linmodel.add_calls_per_sweep", "count", "lower"),
    ("linmodel.delete_calls_per_sweep", "count", "lower"),
    ("linmodel.fit_model_us", "us", "lower"),
    ("bayesfactor.log_bf_value_us", "us", "lower"),
    ("bayesfactor.sample_prior_g_us", "us", "lower"),
    ("sampler.gibbs_sweep_fixed_ms", "ms", "lower"),
    ("sampler.gibbs_sweep_zs_ms", "ms", "lower"),
    ("sampler.mh_step_g_us", "us", "lower"),
    ("sampler.bit_flips_per_sweep", "count", "higher"),
    ("sampler.flip_ratio", "ratio", "higher"),
    ("estimators.summarize_trace_ms", "ms", "lower"),
    ("estimators.hh_inclusion_ms", "ms", "lower"),
    ("estimators.dedupe_models_ms", "ms", "lower"),
    ("estimators.distinct_models", "count", "higher"),
    ("estimators.renormalized_inclusion_ms", "ms", "lower"),
    ("exact.shard_us_per_model", "us", "lower"),
    ("exact.reduce_shards_ms", "ms", "lower"),
    ("exact.quantity_shard_us_per_model", "us", "lower"),
    ("exact.shard_result_bytes", "bytes", "lower"),
    ("exact.pool_efficiency", "ratio", "higher"),
    ("cli.write_trace_ms", "ms", "lower"),
    ("cli.write_report_ms", "ms", "lower"),
    ("cli.read_trace_ms", "ms", "lower"),
    ("cli.score_external_trace_self_ms", "ms", "lower"),
    ("cli.compare_runs_s", "s", "lower"),
] + [(f"{layer}.self_ms_per_round", "ms", "lower") for layer in LAYERS] + [
    ("trace.overhead_pct", "%", "lower"),
]


def _mean(values) -> float:
    return statistics.fmean(values) if values else float("nan")


def layer_metrics(tracer: Tracer, probe: dict, rounds: dict, overhead_pct: float) -> dict:
    """Per-layer metrics from the spans, the direct probe timings in
    ``probe`` and the number of rounds per phase."""

    def pick(*names):
        for phase in ("main", "probe"):
            found = [s for s in tracer.spans if s.phase == phase and s.name in names]
            if found:
                return found
        return []

    def ms(name, scale=1e3):
        return _mean([s.duration for s in pick(name)]) * scale

    def calls(spans, name):
        recs = [s.calls.get(name, [None, 0, 0.0]) for s in spans]
        return sum(r[1] for r in recs), sum(r[2] for r in recs)

    out = {}
    loads = pick("linmodel.load_csv")
    expands = [s for s in tracer.spans if s.name == "linmodel.expand_design"
               and loads and s.phase == loads[0].phase]
    out["linmodel.load_expand_ms"] = (
        1e3 * (sum(s.duration for s in loads) + sum(s.duration for s in expands)) / len(loads)
        if loads else float("nan")
    )
    fixed = pick("sampler.gibbs_sweep_fixed")
    n_add, t_add = calls(fixed, "linmodel.FitState.add")
    n_del, t_del = calls(fixed, "linmodel.FitState.delete")
    out["linmodel.add_delete_pair_us"] = 1e6 * (t_add / max(n_add, 1) + t_del / max(n_del, 1))
    sweeps = pick("sampler.gibbs_sweep_fixed", "sampler.gibbs_sweep_zs")
    n_add, _ = calls(sweeps, "linmodel.FitState.add")
    n_del, _ = calls(sweeps, "linmodel.FitState.delete")
    flips = sum(s.attrs["flips"] for s in sweeps)
    out["linmodel.add_calls_per_sweep"] = n_add / max(len(sweeps), 1)
    out["linmodel.delete_calls_per_sweep"] = n_del / max(len(sweeps), 1)
    out["linmodel.fit_model_us"] = probe["fit_model_us"]
    out["bayesfactor.log_bf_value_us"] = probe["log_bf_value_us"]
    out["bayesfactor.sample_prior_g_us"] = probe["sample_prior_g_us"]
    out["sampler.gibbs_sweep_fixed_ms"] = ms("sampler.gibbs_sweep_fixed")
    out["sampler.gibbs_sweep_zs_ms"] = ms("sampler.gibbs_sweep_zs")
    out["sampler.mh_step_g_us"] = ms("sampler.mh_step_g", 1e6)
    out["sampler.bit_flips_per_sweep"] = flips / max(len(sweeps), 1)
    out["sampler.flip_ratio"] = flips / max(n_add + n_del, 1)
    out["estimators.summarize_trace_ms"] = ms("estimators.summarize_trace")
    out["estimators.hh_inclusion_ms"] = ms("estimators.hh_inclusion")
    out["estimators.dedupe_models_ms"] = ms("estimators.dedupe_models")
    out["estimators.distinct_models"] = _mean([s.attrs["size"] for s in pick("estimators.dedupe_models")])
    renorm = pick("estimators.renormalized_estimate")
    parents = {s.parent for s in renorm}
    out["estimators.renormalized_inclusion_ms"] = (
        1e3 * sum(s.duration for s in renorm) / max(len(parents), 1)
    )
    out["exact.shard_us_per_model"] = probe["shard_us_per_model"]
    out["exact.reduce_shards_ms"] = ms("exact.reduce_shards")
    out["exact.quantity_shard_us_per_model"] = probe["quantity_shard_us_per_model"]
    out["exact.shard_result_bytes"] = probe["shard_result_bytes"]
    passes = [s for s in pick("exact.enumerate_exact") if s.attrs.get("K", 1) > 1]
    if passes:
        pooled = sum(s.attrs["models"] for s in passes) / sum(s.duration for s in passes)
        workers = passes[0].attrs["workers"]
        out["exact.pool_efficiency"] = pooled / (workers * 1e6 / probe["shard_us_per_model"])
    else:
        out["exact.pool_efficiency"] = float("nan")
    out["cli.write_trace_ms"] = ms("cli.write_trace")
    out["cli.write_report_ms"] = ms("cli.write_report")
    out["cli.read_trace_ms"] = ms("cli.read_trace")
    out["cli.score_external_trace_self_ms"] = 1e3 * _mean(
        [tracer.self_time(s) for s in pick("cli.score_external_trace")]
    )
    out["cli.compare_runs_s"] = ms("cli.compare_runs", 1.0)
    main = tracer.layer_self_seconds("main")
    probe_self = tracer.layer_self_seconds("probe")
    for layer in LAYERS:
        if main[layer] > 0:
            out[f"{layer}.self_ms_per_round"] = 1e3 * main[layer] / rounds["main"]
        else:
            out[f"{layer}.self_ms_per_round"] = 1e3 * probe_self[layer] / rounds["probe"]
    out["trace.overhead_pct"] = overhead_pct
    return out
