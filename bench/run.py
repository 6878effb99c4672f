"""modelspace benchmark: one workload per call, or every workload in turn.

    python3 bench/run.py --workload gibbs-p35 --seed 1 --seconds 33 --trace 0
    python3 bench/run.py                       # every workload, untraced

Run from the root of a checkout; the package is imported from ./src. The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. Untraced runs report the end-to-end metrics, traced
runs (--trace 1) the per-layer metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import timeit
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 51
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "MODELSPACE_WORKERS")


class PeakRss:
    """Peak summed resident set size of this process and all its
    descendants (pool workers included), sampled every 50 ms."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _rss_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError):
            pass
        return 0

    @staticmethod
    def _children(pid: int) -> list[int]:
        out = []
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                    out += [int(c) for c in fh.read().split()]
        except (FileNotFoundError, ProcessLookupError):
            pass
        return out

    def sample(self) -> None:
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            total += self._rss_kb(pid)
            todo += self._children(pid)
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self):
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()


class Tally:
    """Operations attempted and failed, with the wall time of each
    successful one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed because an output check rejected it
        self.rounds: list[dict[str, list[tuple[float, float]]]] = []

    def run_round(self, ops, tracer=None) -> float:
        from checks import run_checks

        rec: dict[str, list[tuple[float, float]]] = {}
        t_round = time.perf_counter()
        for op in ops:
            self.attempted += 1
            span = tracer.open(f"op.{op.name}", "bench") if tracer else None
            t0 = time.perf_counter()
            try:
                raw = op.run()
                wall = time.perf_counter() - t0
            except Exception:  # a crash in the program is a failed operation
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            finally:
                if span is not None:
                    tracer.close(span)
            failures = run_checks(op.checks, op.collect(raw), op.ctx)
            if failures:
                self.failed += 1
                self.wrong += 1
                for f in failures:
                    print(f"CHECK FAILED {op.name}: {f}", file=sys.stderr)
                continue
            if op.rate:
                rec.setdefault(op.rate, []).append((op.work, wall))
        self.rounds.append(rec)
        return time.perf_counter() - t_round

    def rate(self, kind: str) -> float:
        """Median over rounds of (work / wall) summed over the round's ops."""
        per_round = [sum(w for w, _ in r[kind]) / sum(t for _, t in r[kind])
                     for r in self.rounds if r.get(kind)]
        return statistics.median(per_round) if per_round else float("nan")

    def walls(self, kind: str) -> list[float]:
        return [t for r in self.rounds for _, t in r.get(kind, [])]


def measure(ops, seconds: float, tally: Tally, tracer=None) -> int:
    """Whole rounds for about `seconds`: a new round starts while at least
    half of one (as long as the last) still fits, and there is always one."""
    start = time.perf_counter()
    last = tally.run_round(ops, tracer)
    rounds = 1
    while time.perf_counter() - start + last / 2 <= seconds:
        last = tally.run_round(ops, tracer)
        rounds += 1
    return rounds


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 2 prints instead of returning
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
    }


def probe_layers(seed: int) -> dict:
    """Direct timings of single layer calls on the p=35 stand-in and its
    p=17 prefix, made before the tracer is installed."""
    import numpy as np

    import inputs
    from modelspace import exact as exact_mod
    from modelspace.bayesfactor import GPriorSpec, log_bf_value, sample_prior_g
    from modelspace.estimators import indicator_of_variable
    from modelspace.linmodel import ModelIndex, fit_model, make_dataset

    def best_of(fn, number, repeat=5):
        return min(timeit.repeat(fn, number=number, repeat=repeat)) / number

    y, Z = inputs.draw_mains(seed)
    X = inputs.expand_columns(Z)
    names = inputs.expanded_names()
    data35 = make_dataset(y, X, names)
    rng = np.random.default_rng(seed)
    models = [ModelIndex.from_indices(rng.choice(35, 8, replace=False)) for _ in range(100)]
    fixed = GPriorSpec.fixed(inputs.G)
    zs = GPriorSpec.zellner_siow(inputs.N)
    gen = np.random.default_rng(seed)
    out = {
        "fit_model_us": 1e6 * best_of(lambda: [fit_model(data35, m) for m in models], 1) / len(models),
        "log_bf_value_us": 1e6 * best_of(lambda: log_bf_value(200.0, 8, 400.0, 178, 178.0), 20000),
        "sample_prior_g_us": 1e6 * best_of(lambda: sample_prior_g(zs, gen), 2000),
    }
    data17 = make_dataset(y, X[:, :17], names[:17])
    s = exact_mod.default_shard_bits(17)
    shards = range(4)
    n = len(shards) << (17 - s)
    t = best_of(lambda: [exact_mod.enumerate_shard(data17, s, i, inputs.G, fixed, 1000)
                         for i in shards], 1, repeat=3)
    out["shard_us_per_model"] = 1e6 * t / n
    q = indicator_of_variable(0)
    t = best_of(lambda: [exact_mod.enumerate_shard(data17, s, i, inputs.G, fixed, 1, q)
                         for i in shards], 1, repeat=3)
    out["quantity_shard_us_per_model"] = 1e6 * t / n
    out["shard_result_bytes"] = len(pickle.dumps(
        exact_mod.enumerate_shard(data17, s, 0, inputs.G, fixed, 1000)))
    return out


def run_workload(args) -> dict:
    import tracing
    from workloads import WORKLOADS

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs_dir = workdir / "inputs"
    inputs_dir.mkdir(parents=True)
    env = environment()
    print("environment:", json.dumps(env))
    try:
        workload = WORKLOADS[args.workload](args.seed, inputs_dir)
        t = time.perf_counter()
        workload.setup()
        print(f"benchmark set-up (inputs and references): {time.perf_counter() - t:.2f} s")
        tally = Tally()
        ops = workload.ops()
        if not args.trace:
            setup_s = statistics.median(workload.setup_seconds() for _ in range(SETUP_REPEATS))
            with PeakRss() as rss:
                rounds = measure(ops, args.seconds, tally)
            metrics = {
                "primary_per_s": (tally.rate("primary"), "items/s"),
                "secondary_per_s": (tally.rate("secondary"), "items/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss.peak_kb / 1024.0, "MB"),
            }
            (name1, unit1), (name2, unit2) = workload.primary, workload.secondary
            print(f"{args.workload}: {rounds} rounds, attempted {tally.attempted}, failed {tally.failed}")
            for name, value, unit in ((name1, metrics["primary_per_s"][0], unit1),
                                      (name2, metrics["secondary_per_s"][0], unit2),
                                      ("setup_s", setup_s, "s"),
                                      ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB")):
                print(f"  {name:32s} {value:14.6g} {unit}")
        else:
            # untraced reference round for the overhead figure
            base = Tally()
            base.run_round(ops)
            probe = probe_layers(args.seed)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.phase = "probe"
                for name, cls in WORKLOADS.items():
                    if name != args.workload:
                        mini = cls(args.seed, inputs_dir, mini=True)
                        mini.setup()
                        tally.run_round(mini.ops(), tracer)
                tracer.phase = "main"
                main_tally = Tally()
                rounds = measure(ops, args.seconds, main_tally, tracer)
            finally:
                tracer.uninstall()
            tally.attempted += base.attempted + main_tally.attempted
            tally.failed += base.failed + main_tally.failed
            tally.wrong += base.wrong + main_tally.wrong
            untraced = statistics.median(base.walls("primary"))
            traced = statistics.median(main_tally.walls("primary"))
            overhead = 100.0 * (traced / untraced - 1.0)
            values = tracing.layer_metrics(tracer, probe, {"main": rounds, "probe": 1}, overhead)
            tracer.write(workdir / "spans.jsonl")
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            metrics = {name: (values[name], units[name]) for name in units}
            print(f"{args.workload} traced: {rounds} rounds, {len(tracer.spans)} spans "
                  f"-> {workdir / 'spans.jsonl'}")
            for name, (value, unit) in metrics.items():
                print(f"  {name:40s} {value:14.6g} {unit}")
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, **result}, fh, indent=2)
    return result


def run_all(args) -> int:
    """Every workload in its own process, so no peak carries over."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "modelspace" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'modelspace'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
