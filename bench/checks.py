"""Output checks: independent computations and properties of the methods.

No check compares against a stored copy of an earlier output, so seeded
chains may change (a new sweep, a new random stream) and the checks still
hold. Each check takes (output, ctx) and raises ``CheckFailed``.
"""

from __future__ import annotations

import copy
import math

import jsonschema
import numpy as np

from reference import renormalized_inclusion

LBF_TOL = 1e-7  # relative to max(1, |log BF|)
PROB_TOL = 1e-8
SUM_TOL = 1e-9
# Run-mean inclusion frequency must lie within this many standard errors
# (observed_sd / sqrt(R)) of the exact inclusion probability.
UNBIASED_SE = 8.0
REFIT_SAMPLE = 24  # trace draws refit per chain


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close_lbf(a: float, b: float) -> bool:
    return abs(a - b) <= LBF_TOL * max(1.0, abs(b))


def run_checks(checks, out, ctx) -> list[str]:
    failures = []
    for check in checks:
        try:
            check(out, ctx)
        except CheckFailed as e:
            failures.append(f"{check.__name__}: {e}")
    return failures


def sample_indices(n: int, m: int = REFIT_SAMPLE) -> list[int]:
    return sorted({int(i) for i in np.linspace(0, n - 1, min(n, m))})


def inclusion_values(entries) -> np.ndarray:
    return np.array([e["value"] for e in entries])


# -- gibbs ------------------------------------------------------------------
# out: {"report": run report, "trace": [(bits, g, log_bf), ...]}
# ctx: design (reference.Design), g (None under Zellner-Siow), iterations,
#      schema

# Renormalized inclusion is a sum of normalized weights and can exceed 1 by
# rounding (1 + 1.4e-14 seen), against the schemas' bound. The benchmark
# accepts values within ROUNDING of [0, 1] there and nowhere else.
ROUNDING = 1e-12


def _clip_rounding(entries) -> None:
    for e in entries or []:
        if -ROUNDING <= e["value"] < 0.0 or 1.0 < e["value"] <= 1.0 + ROUNDING:
            e["value"] = min(max(e["value"], 0.0), 1.0)


def validate(report, schema) -> None:
    report = copy.deepcopy(report)
    if report.get("kind") == "run":
        _clip_rounding(report["summary"].get("inclusion_renormalized"))
    for ext in report.get("external", []):
        _clip_rounding(ext["inclusion"])
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as e:
        raise CheckFailed(f"report does not validate: {e.message}") from None


def gibbs_schema(out, ctx):
    validate(out["report"], ctx.schema)


def gibbs_trace_length(out, ctx):
    n_used = out["report"]["summary"]["n_used"]
    require(len(out["trace"]) == ctx.iterations == n_used,
            f"{len(out['trace'])} trace records, n_used {n_used}, expected {ctx.iterations}")


def gibbs_trace_log_bf(out, ctx):
    trace = out["trace"]
    for i in sample_indices(len(trace)):
        bits, g, lbf = trace[i]
        if ctx.g is not None:
            require(g == ctx.g, f"draw {i} has g={g}, expected {ctx.g}")
        ref = ctx.design.refit_log_bf(bits, g)
        require(close_lbf(lbf, ref), f"draw {i} ({bits:x}, g={g}): log BF {lbf!r}, refit {ref!r}")


def gibbs_inclusion_sum(out, ctx):
    s = out["report"]["summary"]
    total = inclusion_values(s["inclusion"]).sum()
    mean_dim = sum(d["k"] * d["value"] for d in s["dimension"])
    trace_dim = sum(b.bit_count() for b, _, _ in out["trace"]) / len(out["trace"])
    require(abs(total - mean_dim) <= SUM_TOL * max(1.0, mean_dim),
            f"sum of inclusion {total!r} != mean dimension {mean_dim!r}")
    require(abs(mean_dim - trace_dim) <= SUM_TOL * max(1.0, mean_dim),
            f"mean dimension {mean_dim!r} != mean model size in the trace {trace_dim!r}")


def _distinct_refits(out, ctx):
    if "refits" not in out:
        bits = list(dict.fromkeys(b for b, _, _ in out["trace"]))
        out["refits"] = bits, [ctx.design.refit_log_bf(b, ctx.g) for b in bits]
    return out["refits"]


def gibbs_renormalized(out, ctx):
    values = inclusion_values(out["report"]["summary"]["inclusion_renormalized"])
    if ctx.g is None:
        # Zellner-Siow: the weights are first-visit BFs at sampled g, which
        # depend on sampler noise, so only the range is a property.
        require(bool(np.all((values >= -ROUNDING) & (values <= 1 + ROUNDING))),
                "renormalized inclusion outside [0, 1]")
        return
    bits, lbfs = _distinct_refits(out, ctx)
    ref = renormalized_inclusion(bits, lbfs, ctx.design.p)
    err = float(np.abs(values - ref).max())
    require(err <= PROB_TOL, f"renormalized inclusion differs from recomputation by {err:.3g}")


def gibbs_hpm(out, ctx):
    hpm = out["report"]["summary"]["hpm"]
    hpm_bits = int(hpm["bits_hex"], 16)
    visited = {b for b, _, _ in out["trace"]}
    require(hpm_bits in visited, f"HPM {hpm['bits_hex']} never visited")
    if ctx.g is not None:
        bits, lbfs = _distinct_refits(out, ctx)
        best = max(lbfs)
        require(close_lbf(hpm["log_bf"], best), f"HPM log BF {hpm['log_bf']!r}, best visited {best!r}")


def gibbs_diagnostics(out, ctx):
    diag = out["report"]["diagnostics"]
    spot = diag["sse_spot_check_max_rel"]
    require(0.0 <= spot < 1e-8, f"sse_spot_check_max_rel {spot!r}")
    rate = diag["g_accept_rate"]
    if ctx.g is None:
        require(rate is not None and 0.0 < rate < 1.0, f"g acceptance rate {rate!r} outside (0, 1)")
    else:
        require(rate is None, f"fixed g reports an acceptance rate {rate!r}")


GIBBS_CHECKS = [gibbs_schema, gibbs_trace_length, gibbs_trace_log_bf, gibbs_inclusion_sum,
                gibbs_renormalized, gibbs_hpm, gibbs_diagnostics]


# -- exact ------------------------------------------------------------------
# out: run report of `modelspace exact`
# ctx: design, full (reference.FullSpace), g, top_k, schema

def report_schema(out, ctx):
    validate(out, ctx.schema)


def exact_model_count(out, ctx):
    s = out["summary"]
    require(s["n_used"] == 1 << ctx.design.p, f"model_count {s['n_used']}, expected 2^{ctx.design.p}")
    require(s["excluded_count"] == 0, f"{s['excluded_count']} models excluded on a full-rank design")


def exact_dimension_sum(out, ctx):
    total = sum(d["value"] for d in out["summary"]["dimension"])
    require(abs(total - 1.0) <= SUM_TOL, f"dimension posterior sums to {total!r}")


def exact_inclusion_sum(out, ctx):
    s = out["summary"]
    total = inclusion_values(s["inclusion"]).sum()
    mean_dim = sum(d["k"] * d["value"] for d in s["dimension"])
    require(abs(total - mean_dim) <= SUM_TOL * max(1.0, mean_dim),
            f"sum of inclusion {total!r} != mean dimension {mean_dim!r}")


def exact_top_models(out, ctx):
    top = out["summary"]["top_models"]
    K = min(ctx.top_k, 1 << ctx.design.p)
    require(len(top) == K, f"{len(top)} top models, expected {K}")
    keys = [(-t["log_bf"], int(t["bits_hex"], 16)) for t in top]
    require(keys == sorted(keys), "top models are not in non-increasing log BF order")
    ref_sorted = np.sort(ctx.full.lbf)[::-1][:K]
    for rank, t in enumerate(top):
        bits = int(t["bits_hex"], 16)
        ref = ctx.design.refit_log_bf(bits, ctx.g)
        require(close_lbf(t["log_bf"], ref), f"top model {rank} ({t['bits_hex']}): log BF {t['log_bf']!r}, refit {ref!r}")
        require(close_lbf(t["log_bf"], ref_sorted[rank]),
                f"top model {rank} has log BF {t['log_bf']!r}, the {rank}-th best is {ref_sorted[rank]!r}")


def exact_reference(out, ctx):
    s = out["summary"]
    full = ctx.full
    log_total = s["log10_total_bf"] * math.log(10.0)
    require(close_lbf(log_total, full.log_total_bf), f"log total BF {log_total!r}, reference {full.log_total_bf!r}")
    err = float(np.abs(inclusion_values(s["inclusion"]) - full.inclusion).max())
    require(err <= PROB_TOL, f"inclusion differs from the reference by {err:.3g}")
    dim = np.array([d["value"] for d in s["dimension"]])
    err = float(np.abs(dim - full.dimension).max())
    require(err <= PROB_TOL, f"dimension differs from the reference by {err:.3g}")
    require(int(s["hpm"]["bits_hex"], 16) == full.hpm_bits,
            f"HPM {s['hpm']['bits_hex']}, reference {full.hpm_bits:x}")


EXACT_CHECKS = [report_schema, exact_model_count, exact_dimension_sum, exact_inclusion_sum,
                exact_top_models, exact_reference]


# out: {"value": exact_quantity result, "report": the round's exact report or None}
# ctx: as for exact, plus variable (index of the indicator)

def quantity_matches(out, ctx):
    v = out["value"]
    ref = float(ctx.full.inclusion[ctx.variable])
    require(abs(v - ref) <= PROB_TOL, f"exact_quantity {v!r}, reference inclusion {ref!r}")
    if out["report"] is not None:
        rep = out["report"]["summary"]["inclusion"][ctx.variable]["value"]
        require(abs(v - rep) <= SUM_TOL, f"exact_quantity {v!r}, report inclusion {rep!r}")


# out: {"count": count_models_above result, "threshold": the K-th top log BF}

def count_rank(out, ctx):
    thr = out["threshold"]
    lbf = ctx.full.lbf
    tol = LBF_TOL * max(1.0, abs(thr))
    above = int(np.sum(lbf > thr + tol))
    ties = int(np.sum(np.abs(lbf - thr) <= tol))
    K = min(ctx.top_k, 1 << ctx.design.p)
    if ties == 1:
        require(out["count"] == K - 1, f"count_models_above at the {K}-th log BF is {out['count']}, expected {K - 1}")
    else:
        require(above <= out["count"] <= above + ties - 1,
                f"count {out['count']} outside [{above}, {above + ties - 1}] with {ties} tied models")


QUANTITY_CHECKS = [quantity_matches]
COUNT_CHECKS = [count_rank]


# -- compare ----------------------------------------------------------------
# out: compare report
# ctx: design, full, runs, iterations, schema, ext (reference of the
#      external trace: bits, inclusion, hpm)

def compare_shape(out, ctx):
    require(out["runs"] == ctx.runs and out["iterations"] == ctx.iterations,
            f"runs {out['runs']} x {out['iterations']}, expected {ctx.runs} x {ctx.iterations}")
    require(len(out["variables"]) == ctx.design.p, f"{len(out['variables'])} variables, expected {ctx.design.p}")
    require(len(out["topk_mass_log10"]["per_run"]) == ctx.runs, "one top-K mass per run expected")


def compare_unbiased(out, ctx):
    """Each variable's run mean lies within UNBIASED_SE standard errors of the
    exact inclusion. The SD is floored at the binomial SD of one chain of
    this length, so a variable every chain agrees on is not held to zero."""
    n = ctx.iterations
    for l, v in enumerate(out["variables"]):
        q = float(ctx.full.inclusion[l])
        qc = min(max(q, 1.0 / n), 1.0 - 1.0 / n)
        sd = max(v["observed_sd"], math.sqrt(qc * (1.0 - qc) / n))
        tol = UNBIASED_SE * sd / math.sqrt(ctx.runs)
        require(abs(v["mean_estimate"] - q) <= tol,
                f"{v['name']}: run mean {v['mean_estimate']:.4f}, exact {q:.4f}, allowed {tol:.4f}")


def compare_hits(out, ctx):
    for key in ("hpm_hits", "mpm_hits", "hpm_visited"):
        require(isinstance(out[key], int) and 0 <= out[key] <= ctx.runs,
                f"{key} = {out[key]!r} outside [0, {ctx.runs}]")
    require(out["hpm_hits"] <= out["hpm_visited"], "a run found the HPM without visiting it")


def compare_external(out, ctx):
    require(len(out["external"]) == 1, f"{len(out['external'])} external entries, expected 1")
    score_matches(out["external"][0], ctx)


# out: score_external_trace result

def score_matches(out, ctx):
    require(out["distinct_models"] == len(ctx.ext.bits),
            f"{out['distinct_models']} distinct models, the file has {len(ctx.ext.bits)}")
    err = float(np.abs(inclusion_values(out["inclusion"]) - ctx.ext.inclusion).max())
    require(err <= PROB_TOL, f"renormalized inclusion differs from recomputation by {err:.3g}")
    require(int(out["hpm_bits_hex"], 16) == ctx.ext.hpm,
            f"HPM {out['hpm_bits_hex']}, best visited {ctx.ext.hpm:x}")


COMPARE_CHECKS = [report_schema, compare_shape, compare_unbiased, compare_hits, compare_external]
SCORE_CHECKS = [score_matches]
