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
    find_hpm,
    renormalized_inclusion,
    summarize_exact,
    summarize_trace,
    topk_mass_log10,
)
# find_mpm and renormalized_estimate stay in this namespace: the benchmark's
# tracer wraps them by name.
from .estimators import find_mpm, renormalized_estimate  # noqa: F401
from .linmodel import Dataset, ModelIndex, expand_design, load_csv
from .sampler import ChainTrace, SamplerConfig, run_chain

SCHEMA_VERSION = 1
LOG10 = math.log(10.0)


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

def _names_of(model: ModelIndex, data: Dataset) -> list[str]:
    return [data.names[j] for j in model.indices()]


def _with_se(values: np.ndarray, se: np.ndarray | None) -> zip:
    """(value, SE) pairs of a per-variable or per-dimension field."""
    return zip(values.tolist(), [None] * values.size if se is None else se.tolist())


def summary_to_json(
    summary: PosteriorSummary, data: Dataset, top_k: int
) -> dict:
    """The ``summary`` object of a run report, from a chain or an enumeration."""
    method = "exact" if summary.method == "exact" else "empirical"
    renorm = summary.inclusion_renormalized
    top = summary.top_models
    return {
        "method": summary.method,
        "p": data.p,
        "names": list(data.names),
        "n_used": summary.n_used,
        "inclusion": [
            {"name": name, "value": v, "se": se, "method": method}
            for name, (v, se) in zip(
                data.names, _with_se(summary.inclusion, summary.inclusion_se)
            )
        ],
        "inclusion_renormalized": None if renorm is None else [
            {"name": name, "value": v} for name, v in zip(data.names, renorm.tolist())
        ],
        "dimension": [
            {"k": k, "value": v, "se": se}
            for k, (v, se) in enumerate(
                _with_se(summary.dimension, summary.dimension_se)
            )
        ],
        "hpm": {
            "bits_hex": summary.hpm.to_hex(),
            "variables": _names_of(summary.hpm, data),
            "log_bf": summary.hpm_log_bf,
            "log10_bf": summary.hpm_log_bf / LOG10,
            "posterior": summary.hpm_posterior,
        },
        "mpm": {
            "bits_hex": summary.mpm.to_hex(),
            "variables": _names_of(summary.mpm, data),
        },
        "top_models": [
            {"bits_hex": format(b, "x"), "log_bf": lbf}
            for b, lbf in zip(top.bits.tolist(), top.log_bfs.tolist())
        ],
        "top_k": top_k,
        "topk_mass_log10": summary.mass_log10,
        "log10_total_bf": summary.log10_total_bf,
        "excluded_count": summary.excluded_count,
    }


def build_run_report(command, data, config_echo, summary, diagnostics, timing):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run",
        "command": command,
        "dataset_digest": data.digest(),
        "config": config_echo,
        "summary": summary,
        "diagnostics": diagnostics,
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
    report = build_run_report(
        "gibbs",
        data,
        {
            "data": str(args.data),
            "response": args.response,
            "mains": args.mains,
            "g": args.g,
            "zellner_siow": args.zellner_siow,
            "iterations": args.iterations,
            "burn": args.burn,
            "thin": args.thin,
            "seed": args.seed,
            "start": args.start,
            "top_k": args.top_k,
        },
        summary_to_json(summary, data, args.top_k),
        {
            "g_accept_rate": trace.meta["g_accept_rate"],
            "sse_spot_check_max_rel": trace.meta["sse_spot_check_max_rel"],
            "bit_flips_per_sweep": trace.meta["bit_flips_per_sweep"],
            "distinct_models": len(dedupe_models(trace)),
        },
        {
            "load_seconds": t1 - t0,
            "sample_seconds": t2 - t1,
            "summarize_seconds": t3 - t2,
        },
    )
    write_report(args.out, report)
    return 0


def cmd_exact(args) -> int:
    t0 = time.perf_counter()
    data = _load(args)
    prior = GPriorSpec.fixed(args.g)
    t1 = time.perf_counter()
    res = exact_mod.enumerate_exact(
        data,
        args.g,
        prior,
        K=args.top_k,
        workers=args.workers,
        force=args.force,
    )
    t2 = time.perf_counter()
    report = build_run_report(
        "exact",
        data,
        {
            "data": str(args.data),
            "response": args.response,
            "mains": args.mains,
            "g": args.g,
            "workers": args.workers,
            "top_k": args.top_k,
            "force": args.force,
        },
        summary_to_json(summarize_exact(res), data, args.top_k),
        {
            "excluded_count": res.excluded_count,
            "shard_bits": res.shard_bits,
            "low_bits": res.low_bits,
            "workers": res.workers,
        },
        {
            "load_seconds": t1 - t0,
            "enumerate_seconds": t2 - t1,
            "models_per_s": res.model_count / (t2 - t1),
        },
    )
    write_report(args.out, report)
    return 0


def _compare_worker(job) -> tuple[PosteriorSummary, float, np.ndarray]:
    """One chain's summary, its bit flips per sweep and its visited bitmasks."""
    data, config, top_k = job
    trace = run_chain(data, config)
    return (
        summarize_trace(trace, data, top_k),
        trace.meta["bit_flips_per_sweep"],
        trace.bits,
    )


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
    seeds = np.random.SeedSequence(base_seed).generate_state(runs, dtype=np.uint64)
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

    summaries, flips, visited = zip(*results)
    incl = np.array([s.inclusion for s in summaries])  # runs x p
    ses = np.array([s.inclusion_se for s in summaries])
    masses = np.array([s.mass_log10 for s in summaries])
    variables = [
        {
            "name": name,
            "mean_estimate": float(incl[:, l].mean()),
            "mean_se": float(ses[:, l].mean()),
            "observed_sd": float(incl[:, l].std(ddof=1)),
        }
        for l, name in enumerate(data.names)
    ]

    hpm_hits = mpm_hits = hpm_visited = None
    if exact_report is not None:
        ex = exact_report["summary"]
        exact_hpm = int(ex["hpm"]["bits_hex"], 16)
        exact_mpm = int(ex["mpm"]["bits_hex"], 16)
        hpm_hits = sum(s.hpm.bits == exact_hpm for s in summaries)
        mpm_hits = sum(s.mpm.bits == exact_mpm for s in summaries)
        hpm_visited = sum(exact_hpm in bits.tolist() for bits in visited)

    return {
        "runs": runs,
        "iterations": iterations,
        "variables": variables,
        "topk_mass_log10": {
            "per_run": [float(m) for m in masses],
            "mean": float(masses.mean()),
            "sd": float(masses.std(ddof=1)),
        },
        "bit_flips_per_sweep": {"per_run": list(flips), "mean": float(np.mean(flips))},
        "hpm_hits": hpm_hits,
        "mpm_hits": mpm_hits,
        "hpm_visited": hpm_visited,
    }


def score_external_trace(path, data: Dataset, prior: GPriorSpec, top_k: int) -> dict:
    """Score a third-party searcher's visited-model file with the
    renormalized estimators; ``prior`` is unused (the model prior cancels)."""
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
    distinct = dedupe_models(trace)
    incl = renormalized_inclusion(distinct, data.p).tolist()
    return {
        "label": str(path),
        "method": "renormalized",
        "distinct_models": len(distinct),
        "inclusion": [
            {"name": name, "value": v} for name, v in zip(data.names, incl)
        ],
        "hpm_bits_hex": find_hpm(distinct).to_hex(),
        "topk_mass_log10": topk_mass_log10(distinct, top_k),
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
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "compare",
        "dataset_digest": data.digest(),
        "config": {
            "data": str(args.data),
            "response": args.response,
            "mains": args.mains,
            "g": args.g,
            "zellner_siow": args.zellner_siow,
            "runs": args.runs,
            "iterations": args.iterations,
            "seed": args.seed,
            "start": args.start,
            "top_k": args.top_k,
        },
        **body,
        "external": external,
        "timing": {"total_seconds": t1 - t0},
    }
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
