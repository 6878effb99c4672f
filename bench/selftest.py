"""Self-test of the output checks.

Runs each workload once at its small (probe) size, shows that every check
passes on the program's real output, and that each check rejects a copy of
that output with one deliberate fault in it, so that no check passes
vacuously. Exits 1 if a check fails on real output or accepts a fault.

    python3 bench/selftest.py [--seed N]
"""

from __future__ import annotations

import argparse
import copy
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _set(path, value):
    """Perturbation that sets report[path...] = value(old)."""

    def apply(out, ctx):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
        return out

    return apply


def _shift_trace_lbf(out, ctx):
    bits, g, lbf = out["trace"][0]
    out["trace"][0] = (bits, g, lbf + 1e-3)
    return out


def _drop_last_draw(out, ctx):
    out["trace"].pop()
    return out


def _swap_top_pair(out, ctx):
    top = out["summary"]["top_models"]
    top[0], top[1] = top[1], top[0]
    return out


def _shift_dimension_mode(out, ctx):
    dim = out["summary"]["dimension"]
    max(dim, key=lambda d: d["value"])["value"] += 0.01
    return out


def _shift_unbiased(out, ctx):
    l = int(abs(ctx.full.inclusion - 0.5).argmin())
    v = out["variables"][l]
    v["mean_estimate"] += 0.2 if v["mean_estimate"] < 0.8 else -0.2
    return out


def _zs_or_fixed(fixed, zs):
    return lambda out, ctx: (fixed if ctx.g is not None else zs)(out, ctx)


def faults():
    """check name -> list of (fault description, perturbation)."""
    R = ["report"]
    S = ["report", "summary"]
    return {
        "gibbs_schema": [
            ("summary without an HPM", lambda o, c: (o["report"]["summary"].pop("hpm"), o)[1]),
            ("renormalized inclusion 1 + 1e-9", _set(S + ["inclusion_renormalized", 0, "value"], lambda v: 1 + 1e-9)),
        ],
        "gibbs_trace_length": [("one draw missing from the trace", _drop_last_draw)],
        "gibbs_trace_log_bf": [("wrong log BF (+1e-3) at draw 0", _shift_trace_lbf)],
        "gibbs_inclusion_sum": [("inclusion[3] shifted by +0.05", _set(S + ["inclusion", 3, "value"], lambda v: v + 0.05))],
        "gibbs_renormalized": [(
            "renormalized inclusion[2] shifted (+1e-4 fixed g, to 1.5 ZS)",
            _zs_or_fixed(_set(S + ["inclusion_renormalized", 2, "value"], lambda v: v + 1e-4),
                         _set(S + ["inclusion_renormalized", 2, "value"], lambda v: 1.5)))],
        "gibbs_hpm": [(
            "HPM log BF +0.5 (fixed g) / unvisited HPM (ZS)",
            _zs_or_fixed(_set(S + ["hpm", "log_bf"], lambda v: v + 0.5),
                         _set(S + ["hpm", "bits_hex"], lambda v: "7" * 9)))],
        "gibbs_diagnostics": [
            ("SSE spot-check error 1e-3", _set(R + ["diagnostics", "sse_spot_check_max_rel"], lambda v: 1e-3)),
            ("g acceptance rate 1.0 (ZS) / 0.5 (fixed g)",
             _set(R + ["diagnostics", "g_accept_rate"], lambda v: 0.5 if v is None else 1.0)),
        ],
        "report_schema": [("report without its dataset digest", lambda o, c: (o.pop("dataset_digest"), o)[1])],
        "exact_model_count": [("model_count 2^p - 1", _set(["summary", "n_used"], lambda v: v - 1))],
        "exact_dimension_sum": [("dimension mode +0.01", _shift_dimension_mode)],
        "exact_inclusion_sum": [("inclusion[0] shifted by -0.01", _set(["summary", "inclusion", 0, "value"], lambda v: v - 0.01))],
        "exact_top_models": [
            ("top-K pair 0 and 1 swapped", _swap_top_pair),
            ("wrong log BF (+1e-3) at top model 5", _set(["summary", "top_models", 5, "log_bf"], lambda v: v + 1e-3)),
        ],
        "exact_reference": [
            ("log10 total BF +1e-3", _set(["summary", "log10_total_bf"], lambda v: v + 1e-3)),
            ("HPM replaced by the null model", _set(["summary", "hpm", "bits_hex"], lambda v: "0")),
        ],
        "quantity_matches": [("exact_quantity value +1e-6", _set(["value"], lambda v: v + 1e-6))],
        "count_rank": [("count_models_above off by one", _set(["count"], lambda v: v + 1))],
        "compare_shape": [("runs R + 1", _set(["runs"], lambda v: v + 1))],
        "compare_unbiased": [("run-mean inclusion shifted by 0.2", _shift_unbiased)],
        "compare_hits": [("hpm_hits R + 1", _set(["hpm_hits"], lambda v: v + 1))],
        "compare_external": [("external inclusion[0] +1e-4",
                              _set(["external", 0, "inclusion", 0, "value"], lambda v: v + 1e-4))],
        "score_matches": [
            ("distinct_models + 1", _set(["distinct_models"], lambda v: v + 1)),
            ("inclusion[1] +1e-4", _set(["inclusion", 1, "value"], lambda v: v + 1e-4)),
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test of the benchmark's output checks")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (SRC / "modelspace" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'modelspace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import CheckFailed, run_checks
    from workloads import WORKLOADS

    table = faults()
    covered = set()
    bad = 0
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH))
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(args.seed, workdir, mini=True)
            workload.setup()
            for op in workload.ops():
                out = op.collect(op.run())
                failures = run_checks(op.checks, out, op.ctx)
                for f in failures:
                    print(f"FAIL  {name}/{op.name}: real output rejected: {f}")
                bad += len(failures)
                for check in op.checks:
                    for label, perturb in table[check.__name__]:
                        covered.add(check.__name__)
                        try:
                            check(perturb(copy.deepcopy(out), op.ctx), op.ctx)
                        except CheckFailed as e:
                            print(f"ok    {name}/{op.name} {check.__name__}: rejects {label} ({e})")
                        else:
                            print(f"FAIL  {name}/{op.name} {check.__name__}: accepts {label}")
                            bad += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(table) - covered
    for m in sorted(missing):
        print(f"FAIL  {m}: no operation exercised this check")
    bad += len(missing)
    print(f"self-test: {'PASS' if bad == 0 else 'FAIL'} ({len(covered)} checks, {bad} problems)")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
