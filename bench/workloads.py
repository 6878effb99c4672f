"""The three workloads: their inputs, the operations of one round, and the
checks and rates of each operation.

Every command goes through ``modelspace.cli.main`` in-process, the way the
``modelspace`` entry point runs it; the library calls are the public ones.
Module attributes are looked up at call time so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks
import inputs
from reference import Design, FullSpace, read_trace_file, renormalized_inclusion

from modelspace import cli, linmodel
from modelspace import exact as exact_mod
from modelspace.bayesfactor import GPriorSpec
from modelspace.estimators import indicator_of_variable

MAINS_ARG = ",".join(inputs.MAINS)
TOP_K = 1000  # the CLI's default --top-k


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class OpError(Exception):
    pass


def call_cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise OpError(f"modelspace {argv[0]} exited with {rc}")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def schema(name: str) -> dict:
    return load_json(Path(cli.__file__).parent / "schemas" / name)


@dataclass
class Op:
    name: str
    rate: str | None  # "primary" or "secondary": which end-to-end rate it feeds
    work: float  # items of work the rate counts
    run: Callable[[], object]  # the timed call
    collect: Callable[[object], object]  # untimed: the output the checks read
    checks: list
    ctx: object


class Workload:
    name = ""
    primary = ("", "")  # issue-level metric name and unit of the primary rate
    secondary = ("", "")

    def __init__(self, seed: int, workdir: Path, mini: bool = False):
        self.seed = seed
        self.dir = workdir
        self.mini = mini
        self.workers = nproc()
        self.prior = GPriorSpec.fixed(inputs.G)

    def path(self, name: str) -> str:
        return str(self.dir / f"{self.name}-{name}")

    def expanded_prefix(self, p: int, replicate: int = 0):
        """Mains CSV -> `modelspace expand` -> first p columns. Returns the
        prefix CSV path and the reference design."""
        y, Z = inputs.draw_mains(self.seed, replicate)
        mains, wide, prefix = (self.path(f"r{replicate}-{name}")
                               for name in ("mains.csv", "wide.csv", f"p{p}.csv"))
        inputs.write_mains_csv(mains, y, Z)
        call_cli(["expand", mains, "--response", "y", "--mains", MAINS_ARG, "--out", wide])
        y, X = inputs.write_prefix_csv(wide, prefix, p)
        return prefix, Design(y, X)

    def setup_seconds(self) -> float:
        """Wall time of the program's own set-up for this workload's input:
        what every command does before its first sweep or shard."""
        t = time.perf_counter()
        self.load()
        return time.perf_counter() - t


class GibbsP35(Workload):
    """One fixed-g and one Zellner-Siow chain per replicate of the p=35
    stand-in. The sweep does nearly all the work and exact enumeration none."""

    name = "gibbs-p35"
    primary = ("gibbs_fixed_sweeps_per_s", "sweeps/s")
    secondary = ("gibbs_zs_sweeps_per_s", "sweeps/s")

    def setup(self):
        self.replicates = 1 if self.mini else 2
        self.iterations = 100 if self.mini else 1000
        self.csvs, self.designs = [], []
        for r in range(self.replicates):
            y, Z = inputs.draw_mains(self.seed, r)
            path = self.path(f"mains{r}.csv")
            inputs.write_mains_csv(path, y, Z)
            self.csvs.append(path)
            self.designs.append(Design(y, inputs.expand_columns(Z)))
        self.schema = schema("run_report.schema.json")

    def load(self):
        return linmodel.expand_design(linmodel.load_csv(self.csvs[0], "y"), inputs.MAINS)

    def ops(self):
        out = []
        for r, (path, design) in enumerate(zip(self.csvs, self.designs)):
            for kind, prior_args, g in (("fixed", ["--g", repr(inputs.G)], inputs.G),
                                        ("zs", ["--zellner-siow"], None)):
                trace, report = self.path(f"r{r}-{kind}.tsv"), self.path(f"r{r}-{kind}.json")
                argv = ["gibbs", path, "--response", "y", "--mains", MAINS_ARG, *prior_args,
                        "--iterations", str(self.iterations),
                        "--seed", str(self.seed * 1000 + 2 * r + (kind == "zs")),
                        "--trace", trace, "--out", report]
                ctx = SimpleNamespace(design=design, g=g, iterations=self.iterations,
                                      schema=self.schema)
                out.append(Op(
                    name=f"gibbs-{kind}", rate="primary" if kind == "fixed" else "secondary",
                    work=self.iterations, run=lambda argv=argv: call_cli(argv),
                    collect=lambda _, t=trace, rep=report: {
                        "report": load_json(rep), "trace": read_trace_file(t)},
                    checks=checks.GIBBS_CHECKS, ctx=ctx))
        return out


class ExactEnumerate(Workload):
    """`modelspace exact` over a prefix, then one `exact_quantity` and one
    `count_models_above` pass on the same data: the Gray-code walk, the
    shard reduction and the process pool do the work, the sampler none."""

    name = "exact-enumerate"
    primary = ("exact_models_per_s", "models/s")
    secondary = ("exact_aux_models_per_s", "models/s")

    def setup(self):
        self.p = 12 if self.mini else 17
        self.csv, design = self.expanded_prefix(self.p)
        full = FullSpace(design, inputs.G)
        self.ctx = SimpleNamespace(
            design=design, full=full, g=inputs.G, top_k=TOP_K,
            schema=schema("run_report.schema.json"),
            variable=int(np.argmin(np.abs(full.inclusion - 0.5))))
        self.data = self.load()
        self.last_report = None
        self.threshold = float(np.sort(full.lbf)[::-1][TOP_K - 1])

    def load(self):
        return linmodel.load_csv(self.csv, "y")

    def _collect_report(self, path):
        self.last_report = load_json(path)
        self.threshold = self.last_report["summary"]["top_models"][TOP_K - 1]["log_bf"]
        return self.last_report

    def ops(self):
        models = 1 << self.p
        report = self.path("exact.json")
        argv = ["exact", self.csv, "--response", "y", "--g", repr(inputs.G),
                "--workers", str(self.workers), "--out", report]

        def quantity():
            return exact_mod.exact_quantity(
                self.data, inputs.G, self.prior, indicator_of_variable(self.ctx.variable),
                workers=self.workers)

        def count():
            thr = self.threshold
            return thr, exact_mod.count_models_above(
                self.data, inputs.G, self.prior, thr, workers=self.workers)

        return [
            Op("exact", "primary", models, lambda: call_cli(argv),
               lambda _: self._collect_report(report), checks.EXACT_CHECKS, self.ctx),
            Op("quantity", "secondary", models, quantity,
               lambda v: {"value": v, "report": self.last_report}, checks.QUANTITY_CHECKS, self.ctx),
            Op("count", "secondary", models, count,
               lambda r: {"threshold": r[0], "count": r[1]}, checks.COUNT_CHECKS, self.ctx),
        ]


class CompareSearchers(Workload):
    """The paper's experiment: `modelspace compare` with R short chains
    scored against an exact report, plus an external searcher's trace
    scored with the renormalized estimators."""

    name = "compare-searchers"
    primary = ("compare_sweeps_per_s", "sweeps/s")
    secondary = ("trace_scored_records_per_s", "records/s")

    def setup(self):
        self.p = 12 if self.mini else 16
        self.runs = max(8 if self.mini else 16, 2 * self.workers)
        self.iterations = 200 if self.mini else 400
        self.scores = 2 if self.mini else 30
        self.replicates = [self._setup_replicate(r) for r in range(1 if self.mini else 2)]

    def _setup_replicate(self, r: int) -> SimpleNamespace:
        csv, design = self.expanded_prefix(self.p, r)
        full = FullSpace(design, inputs.G)
        exact_report = self.path(f"r{r}-exact.json")
        call_cli(["exact", csv, "--response", "y", "--g", repr(inputs.G),
                  "--workers", str(self.workers), "--out", exact_report])
        # the external searcher: a chain under another seed, written as a trace
        ext_trace = self.path(f"r{r}-external.tsv")
        call_cli(["gibbs", csv, "--response", "y", "--g", repr(inputs.G),
                  "--iterations", str(500 if self.mini else 2000),
                  "--seed", str(self.seed * 1000 + 7919 + r),
                  "--trace", ext_trace, "--out", self.path(f"r{r}-external.json")])
        records = read_trace_file(ext_trace)
        bits = list(dict.fromkeys(b for b, _, _ in records))
        lbfs = full.lbf[bits]
        ext = SimpleNamespace(
            bits=bits, records=len(records),
            inclusion=renormalized_inclusion(bits, list(lbfs), self.p),
            hpm=min(zip(-lbfs, bits))[1])
        ctx = SimpleNamespace(
            design=design, full=full, runs=self.runs, iterations=self.iterations,
            schema=schema("compare_report.schema.json"), ext=ext)
        return SimpleNamespace(csv=csv, exact_report=exact_report, ext_trace=ext_trace,
                               ctx=ctx, data=linmodel.load_csv(csv, "y"))

    def load(self):
        return linmodel.load_csv(self.replicates[0].csv, "y")

    def ops(self):
        ops = []
        for r, rep in enumerate(self.replicates):
            report = self.path(f"r{r}-compare.json")
            argv = ["compare", rep.csv, "--response", "y", "--g", repr(inputs.G),
                    "--runs", str(self.runs), "--iterations", str(self.iterations),
                    "--seed", str(self.seed * 1000 + r), "--workers", str(self.workers),
                    "--exact", rep.exact_report, "--trace-file", rep.ext_trace, "--out", report]
            ops.append(Op("compare", "primary", self.runs * self.iterations,
                          lambda argv=argv: call_cli(argv),
                          lambda _, report=report: load_json(report), checks.COMPARE_CHECKS, rep.ctx))
            for _ in range(self.scores):
                ops.append(Op(
                    "score", "secondary", rep.ctx.ext.records,
                    lambda rep=rep: cli.score_external_trace(rep.ext_trace, rep.data, self.prior, TOP_K),
                    lambda res: res, checks.SCORE_CHECKS, rep.ctx))
        return ops


WORKLOADS = {w.name: w for w in (GibbsP35, ExactEnumerate, CompareSearchers)}
