"""Command-line surface: expand, gibbs, exact, compare.

Reports are machine-readable JSON validating against the schemas shipped in
``modelspace/schemas``; Bayes-factor masses are reported in decimal log.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import exact as exact_mod
from .bayesfactor import GPriorSpec
from .errors import DataError, NumericalError, UsageError
from .estimators import (
    PosteriorSummary,
    dedupe_models,
    logsumexp,
    rank_models,
    renormalized_inclusion,
    summarize_trace,
)
# these stay in this namespace: the benchmark's tracer wraps them by name.
from .estimators import (  # noqa: F401
    find_hpm, find_mpm, renormalized_estimate, topk_mass_log10,
)
from .linmodel import Dataset, bit_indices, expand_design, load_csv
from .sampler import ChainTrace, SamplerConfig, run_chain

SCHEMA_VERSION = 1
LOG10 = math.log(10.0)

# The diagnostics of an exact summary that its run report carries, beside
# its excluded_count.
EXACT_DIAGNOSTICS = ("shard_bits", "low_bits", "workers")


# ---------------------------------------------------------------------------
# trace files: one line per draw, "hex-bitmask<TAB>g<TAB>log_bf"

def write_trace(path, trace: ChainTrace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{b:x}\t{g!r}\t{lbf!r}\n"
            for b, g, lbf in zip(
                trace.bits.tolist(), trace.g_draws.tolist(), trace.log_bfs.tolist()
            )
        )


def read_trace(path) -> ChainTrace:
    """A trace file's bitmasks, g draws and log Bayes factors as arrays."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except OSError as e:  # missing, a directory, unreadable
        raise DataError(f"{path}: not found or unreadable ({e.strerror})") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e})") from None
    rows = [line.split("\t") for line in map(str.strip, lines) if line]
    if not rows:
        raise DataError(f"{path}: empty trace")
    # numpy converts each field as float() does
    try:
        if any(len(row) != 3 for row in rows):
            raise ValueError("a record without 3 fields")
        hexes, g_draws, log_bfs = zip(*rows)
        columns = (
            [int(h, 16) for h in hexes],
            np.array(g_draws, dtype=np.float64),
            np.array(log_bfs, dtype=np.float64),
        )
    except ValueError:
        columns = _parse_records(path, lines)
    return ChainTrace(*columns)


def _parse_records(path, lines: list[str]) -> tuple[list, np.ndarray, np.ndarray]:
    """Record by record in file order, so that the first bad one is named
    with its line number."""
    records = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{i}: expected 3 tab-separated fields")
        try:
            records.append((int(parts[0], 16), float(parts[1]), float(parts[2])))
        except ValueError:
            raise DataError(f"{path}:{i}: unparseable trace record") from None
    bits, g_draws, log_bfs = zip(*records)
    return list(bits), np.array(g_draws), np.array(log_bfs)


# ---------------------------------------------------------------------------
# report assembly

def _names_of(bits: int, data: Dataset) -> list[str]:
    return [data.names[j] for j in bit_indices(bits)]


def _records(key: str, labels, **columns) -> list[dict]:
    """One record per label, holding the label under ``key`` and entry i
    of each column: an array's ``tolist()`` value, or None in every record
    for a None column (a one-draw chain's SE)."""
    keys = (key, *columns)
    lists = [[None] * len(labels) if c is None else c.tolist() for c in columns.values()]
    return [dict(zip(keys, row)) for row in zip(labels, *lists)]


def _config(args) -> dict:
    """A report's echo of every parsed option but the output paths."""
    skip = ("command", "func", "out", "trace")
    return {key: value for key, value in vars(args).items() if key not in skip}


def summary_to_json(
    summary: PosteriorSummary, data: Dataset, top_k: int
) -> dict:
    """The ``summary`` object of a run report, from a chain or an enumeration."""
    method = "exact" if summary.method == "exact" else "empirical"
    renorm = summary.inclusion_renormalized
    top = summary.top_models
    log_total = summary.log_total_bf
    return {
        "method": summary.method,
        "p": data.p,
        "names": list(data.names),
        "n_used": summary.n_used,
        "inclusion": _records(
            "name", data.names, value=summary.inclusion, se=summary.inclusion_se,
            method=np.full(data.p, method),
        ),
        "inclusion_renormalized": None if renorm is None else _records(
            "name", data.names, value=renorm
        ),
        "dimension": _records(
            "k", range(data.p + 1), value=summary.dimension, se=summary.dimension_se
        ),
        "hpm": {
            "bits_hex": format(summary.hpm, "x"),
            "variables": _names_of(summary.hpm, data),
            "log_bf": summary.hpm_log_bf,
            "log10_bf": summary.hpm_log_bf / LOG10,
            "posterior": summary.hpm_posterior,
        },
        "mpm": {
            "bits_hex": format(summary.mpm, "x"),
            "variables": _names_of(summary.mpm, data),
        },
        # up to K records: as literals, 0.25 ms less than _records at K = 1000
        "top_models": [
            {"bits_hex": format(b, "x"), "log_bf": lbf}
            for b, lbf in zip(top.bits.tolist(), top.log_bfs.tolist())
        ],
        "top_k": top_k,
        "topk_mass_log10": summary.mass_log10,
        "log10_total_bf": None if log_total is None else log_total / LOG10,
        "excluded_count": summary.excluded_count,
    }


def build_report(kind: str, data: Dataset, args, timing: dict, **fields) -> dict:
    """A report of any command: its kind and own fields, the dataset's
    digest, the echoed options and where its time went."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "dataset_digest": data.digest(),
        "config": _config(args),
        **fields,
        "timing": timing,
    }


def write_report(path, report: dict) -> None:
    # one line: with indent set, json.dumps falls back to its Python encoder.
    # The text is built before the file opens: NaN or infinity leaves no file.
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NumericalError(f"report holds a non-finite number ({e})") from None
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _load(args) -> Dataset:
    data = load_csv(args.data, args.response)
    if getattr(args, "mains", None):
        data = expand_design(data, args.mains.split(","))
    return data


def _prior_from_args(args, data: Dataset) -> GPriorSpec:
    if args.zellner_siow and args.g is not None:
        raise UsageError("--g and --zellner-siow are mutually exclusive")
    if args.zellner_siow:
        return GPriorSpec.zellner_siow(data.N)
    if args.g is None:
        raise UsageError("one of --g or --zellner-siow is required")
    return GPriorSpec.fixed(args.g)


def cmd_expand(args) -> int:
    data = load_csv(args.data, args.response)
    expanded = expand_design(data, args.mains.split(","))
    if args.response in expanded.names:
        raise DataError(
            f"{args.data}: the response {args.response!r} is also the name "
            "of an expanded column"
        )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.response] + expanded.names)
        for i in range(expanded.N):
            writer.writerow(
                [repr(float(expanded.y[i]))]
                + [repr(float(v)) for v in expanded.X[i]]
            )
    return 0


def cmd_gibbs(args) -> int:
    t0 = time.perf_counter()
    data = _load(args)
    prior = _prior_from_args(args, data)
    config = SamplerConfig(
        iterations=args.iterations,
        prior=prior,
        burn=args.burn,
        thin=args.thin,
        seed=args.seed,
        start=args.start,
    )
    t1 = time.perf_counter()
    trace = run_chain(data, config)
    t2 = time.perf_counter()
    if args.trace:
        write_trace(args.trace, trace)
    summary = summarize_trace(trace, data, top_k=args.top_k)
    t3 = time.perf_counter()
    timing = {
        "load_seconds": t1 - t0,
        "sample_seconds": t2 - t1,
        "summarize_seconds": t3 - t2,
    }
    report = build_report(
        "run", data, args, timing, command="gibbs",
        summary=summary_to_json(summary, data, args.top_k),
        diagnostics={**summary.diagnostics, "distinct_models": summary.model_count},
    )
    write_report(args.out, report)
    return 0


def cmd_exact(args) -> int:
    t0 = time.perf_counter()
    data = _load(args)
    prior = GPriorSpec.fixed(args.g)
    t1 = time.perf_counter()
    summary = exact_mod.enumerate_exact(
        data,
        args.g,
        prior,
        K=args.top_k,
        workers=args.workers,
        force=args.force,
    )
    t2 = time.perf_counter()
    timing = {
        "load_seconds": t1 - t0,
        "enumerate_seconds": t2 - t1,
        "models_per_s": summary.model_count / (t2 - t1),
    }
    diagnostics = {key: summary.diagnostics[key] for key in EXACT_DIAGNOSTICS}
    report = build_report(
        "run", data, args, timing, command="exact",
        summary=summary_to_json(summary, data, args.top_k),
        diagnostics={"excluded_count": summary.excluded_count, **diagnostics},
    )
    write_report(args.out, report)
    return 0


def _compare_worker(job) -> tuple[PosteriorSummary, np.ndarray]:
    """One chain's summary and its visited bitmasks."""
    data, config, top_k = job
    trace = run_chain(data, config)
    return summarize_trace(trace, data, top_k), trace.bits


def compare_runs(
    data: Dataset,
    prior: GPriorSpec,
    runs: int,
    iterations: int,
    base_seed: int,
    top_k: int = 1000,
    start: str = "null_model",
    workers: int | None = None,
    exact_report: dict | None = None,
) -> dict:
    """Execute R seeded chains in parallel and aggregate the comparison axes:
    per-variable mean estimate / mean estimated SE / cross-run observed SD,
    HPM and MPM hit counts against an exact result, and top-K mass stability."""
    if runs < 2:
        raise UsageError("compare needs at least 2 runs")
    if iterations < 2:
        raise UsageError("compare needs at least 2 iterations per run")
    if base_seed < 0:
        raise UsageError(f"seed (--seed) must be >= 0, got {base_seed}")
    if exact_report is not None:
        if exact_report.get("dataset_digest") != data.digest():
            raise DataError("exact-result file does not match this dataset")
        if prior.hierarchical:
            raise DataError(
                "exact results are for a fixed g; a Zellner-Siow run cannot be "
                "scored against them"
            )
        exact_g = (exact_report.get("config") or {}).get("g")
        if exact_g != prior.g:
            raise DataError(
                f"exact-result file was made with g={exact_g}, "
                f"this run uses g={prior.g}"
            )
    try:
        seeds = np.random.SeedSequence(base_seed).generate_state(runs, dtype=np.uint64)
    except (MemoryError, ValueError):  # more seeds than memory can hold
        raise UsageError(f"runs (--runs) {runs} is too many to seed") from None
    configs = [
        SamplerConfig(iterations=iterations, prior=prior, seed=int(s), start=start)
        for s in seeds
    ]
    jobs = [(data, c, top_k) for c in configs]
    workers = exact_mod.default_workers() if workers is None else max(1, workers)
    if workers == 1:
        results = [_compare_worker(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, runs)) as pool:
            results = list(pool.map(_compare_worker, jobs))

    summaries, visited = zip(*results)
    flips = [s.diagnostics["bit_flips_per_sweep"] for s in summaries]
    # p x runs, each variable's runs one contiguous row: a reduction along
    # a row adds in the order a reduction down a runs x p column does
    incl = np.array([s.inclusion for s in summaries]).T.copy()
    ses = np.array([s.inclusion_se for s in summaries]).T.copy()
    masses = np.array([s.mass_log10 for s in summaries])

    hpm_hits = mpm_hits = hpm_visited = None
    if exact_report is not None:
        ex = exact_report["summary"]
        exact_hpm = int(ex["hpm"]["bits_hex"], 16)
        exact_mpm = int(ex["mpm"]["bits_hex"], 16)
        hpm_hits = sum(s.hpm == exact_hpm for s in summaries)
        mpm_hits = sum(s.mpm == exact_mpm for s in summaries)
        hpm_visited = sum(exact_hpm in bits.tolist() for bits in visited)

    return {
        "runs": runs,
        "iterations": iterations,
        "variables": _records(
            "name", data.names, mean_estimate=incl.mean(axis=1),
            mean_se=ses.mean(axis=1), observed_sd=incl.std(axis=1, ddof=1),
        ),
        "topk_mass_log10": {
            "per_run": masses.tolist(),
            "mean": float(masses.mean()),
            "sd": float(masses.std(ddof=1)),
        },
        "bit_flips_per_sweep": {"per_run": flips, "mean": float(np.mean(flips))},
        "hpm_hits": hpm_hits,
        "mpm_hits": mpm_hits,
        "hpm_visited": hpm_visited,
    }


def score_external_trace(path, data: Dataset, prior: GPriorSpec, top_k: int) -> dict:
    """Score a third-party searcher's visited-model file with the
    renormalized estimators. Under a fixed ``prior`` every record must carry
    its g; under Zellner-Siow any finite g > 0 is accepted."""
    trace = read_trace(path)
    bits, log_bfs = trace.bits, trace.log_bfs
    beyond = np.flatnonzero(bits >> data.p)
    if beyond.size:
        raise DataError(
            f"{path}: model {int(bits[beyond[0]]):x} sets a bit beyond "
            f"the {data.p} columns"
        )
    # -inf marks an excluded model; NaN and +inf are no log Bayes factor
    bad = np.flatnonzero(np.isnan(log_bfs) | (log_bfs == np.inf))
    if bad.size:
        raise DataError(
            f"{path}: model {int(bits[bad[0]]):x} has log BF "
            f"{float(log_bfs[bad[0]])!r}; only -inf (excluded) may be non-finite"
        )
    if not (log_bfs > -np.inf).any():
        raise DataError(
            f"{path}: model {int(bits[0]):x} and every other record have "
            "log BF -inf: all models are excluded"
        )
    g = trace.g_draws
    bad = np.flatnonzero(~(np.isfinite(g) & (g > 0)))
    if bad.size:
        raise DataError(
            f"{path}: model {int(bits[bad[0]]):x} has g {float(g[bad[0]])!r}; "
            "g must be finite and > 0"
        )
    # 0 <= SSE <= SSE0 puts a finite log BF of a k-variable model at g in
    # [-k/2, (N-k-1)/2] * ln(1+g), with a slack for rounding, and leaves a
    # model of k > N - 2 variables none. Made-up values inside are trusted.
    N = data.N
    k = np.bitwise_count(bits).astype(np.float64)
    scale = np.log1p(g)
    slack = 1e-9 * N * scale
    lo = -0.5 * k * scale - slack
    hi = 0.5 * (N - k - 1) * scale + slack
    bad = np.flatnonzero(
        (log_bfs > -np.inf) & ((k > N - 2) | (log_bfs < lo) | (log_bfs > hi))
    )
    if bad.size:
        i = bad[0]
        raise DataError(
            f"{path}: model {int(bits[i]):x} has log BF {float(log_bfs[i])!r}, "
            f"outside the range of a {int(k[i])}-variable model at "
            f"g={float(g[i])!r} with N={N}"
        )
    if not prior.hierarchical:
        bad = np.flatnonzero(g != prior.g)
        if bad.size:
            i = bad[0]
            raise DataError(
                f"{path}: model {int(bits[i]):x} was scored at "
                f"g={float(g[i])!r}, this run uses g={prior.g!r}"
            )
    distinct = dedupe_models(trace)
    # one ranking gives the HPM and the top-K mass, as PosteriorSummary's do
    top = rank_models(distinct, top_k)
    return {
        "label": str(path),
        "method": "renormalized",
        "distinct_models": len(distinct),
        "inclusion": _records(
            "name", data.names, value=renormalized_inclusion(distinct, data.p)
        ),
        "hpm_bits_hex": format(int(top.bits[0]), "x"),
        "topk_mass_log10": logsumexp(top.log_bfs) / LOG10,
    }


def _read_exact_report(path) -> dict:
    """Load an ``exact`` run report for ``compare --exact``, checking the
    fields the comparison reads before any chain runs."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as e:
        raise DataError(f"{path}: not found or unreadable ({e.strerror})") from None
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: not a JSON file ({e})") from None
    try:
        if report["command"] != "exact":
            raise ValueError
        report["dataset_digest"]
        report["config"]["g"]
        for key in ("hpm", "mpm"):
            int(report["summary"][key]["bits_hex"], 16)
    except (TypeError, KeyError, ValueError):
        raise DataError(
            f"{path}: not an exact run report (needs command \"exact\", "
            "dataset_digest, config.g, summary.hpm.bits_hex and "
            "summary.mpm.bits_hex)"
        ) from None
    return report


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    data = _load(args)
    prior = _prior_from_args(args, data)
    exact_report = _read_exact_report(args.exact) if args.exact else None
    body = compare_runs(
        data,
        prior,
        runs=args.runs,
        iterations=args.iterations,
        base_seed=args.seed,
        top_k=args.top_k,
        start=args.start,
        workers=args.workers,
        exact_report=exact_report,
    )
    external = [
        score_external_trace(path, data, prior, args.top_k)
        for path in (args.trace_file or [])
    ]
    t1 = time.perf_counter()
    report = build_report(
        "compare", data, args, {"total_seconds": t1 - t0}, **body, external=external
    )
    write_report(args.out, report)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelspace",
        description="Bayesian variable selection under Zellner g-priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    workers_help = "at most N processes (default: MODELSPACE_WORKERS or the CPU count)"

    def add_common(sp):
        sp.add_argument("data", help="input CSV (header row, '.' decimals)")
        sp.add_argument("--response", required=True, help="response column name")
        sp.add_argument(
            "--mains",
            default=None,
            help="comma-separated main effects; expands to mains + squares + interactions",
        )
        sp.add_argument("--out", default="-", help="output JSON path (- for stdout)")
        sp.add_argument("--top-k", type=int, default=1000)

    sp = sub.add_parser("expand", help="write an expanded-design CSV")
    sp.add_argument("data")
    sp.add_argument("--response", required=True)
    sp.add_argument("--mains", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("gibbs", help="run one Gibbs chain and summarize")
    add_common(sp)
    sp.add_argument("--g", type=float, default=None, help="fixed g (e.g. N)")
    sp.add_argument(
        "--zellner-siow", action="store_true", help="hierarchical Zellner-Siow prior on g"
    )
    sp.add_argument("--iterations", type=int, required=True)
    sp.add_argument("--burn", type=int, default=0)
    sp.add_argument("--thin", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--start", choices=["null_model", "full_model", "random"], default="null_model"
    )
    sp.add_argument("--trace", default=None, help="optional trace-file dump path")
    sp.set_defaults(func=cmd_gibbs)

    sp = sub.add_parser("exact", help="exact enumeration of the model space")
    add_common(sp)
    sp.add_argument("--g", type=float, required=True)
    sp.add_argument("--workers", type=int, metavar="N", help=workers_help)
    sp.add_argument(
        "--force",
        action="store_true",
        help=f"override the p-guard (p > {exact_mod.P_GUARD} is a long job)",
    )
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("compare", help="multi-run comparison harness")
    add_common(sp)
    sp.add_argument("--g", type=float, default=None)
    sp.add_argument("--zellner-siow", action="store_true")
    sp.add_argument("--runs", type=int, required=True)
    sp.add_argument("--iterations", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0, help="base seed for child chains")
    sp.add_argument(
        "--start", choices=["null_model", "full_model", "random"], default="null_model"
    )
    sp.add_argument("--workers", type=int, metavar="N", help=workers_help)
    sp.add_argument(
        "--exact", default=None, help="exact-result JSON to score hits against"
    )
    sp.add_argument(
        "--trace-file",
        action="append",
        default=None,
        help="external visited-model trace to score with renormalized estimators",
    )
    sp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # before any chain or shard runs
        if getattr(args, "top_k", 1) < 1:
            raise UsageError(f"--top-k must be >= 1, got {args.top_k}")
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        for flag in ("out", "trace"):
            path = getattr(args, flag, None) or "-"
            if path == "-":
                continue
            if os.path.isdir(path):
                raise UsageError(f"--{flag} {path}: is a directory")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise UsageError(f"--{flag} {path}: no such directory")
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
