"""Time exact enumeration at the paper's size: shards of the p=35 stand-in.

Builds the benchmark's p=35 stand-in (``bench/inputs.draw_mains``, expanded
by the program's own ``linmodel.expand_design``) and times
``enumerate_shard`` in-process, at K = 1000, on default-layout shards
(s = 8, 2^27 models each) whose prefixes ``numpy.random.default_rng(seed)``
draws. It prints one JSON object:

- ``models_per_s``: each prefix's best rate over the rounds, in models/s
  per core;
- ``core_minutes_2_35``: what 2^35 models cost at the median of those rates;
- ``us_per_outer_model``: ``subset_sse``, ``log_bf_values`` and
  ``Shard.absorb`` per outer model, from one more pass over the prefixes
  with each wrapped by a timer;
- ``shards``: per prefix, the models visited and excluded, and a sha256 of
  the shard's sums, scale and top models, which two checkouts that score
  bit-identically share.

Run from a checkout, for example on the prefixes 171, 206 and 5::

    python3 tools/shard_probe.py --shards 3 --rounds 3 --seed 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from modelspace import exact  # noqa: E402
from modelspace.bayesfactor import GPriorSpec  # noqa: E402
from modelspace.linmodel import expand_design, make_dataset  # noqa: E402

K = 1000
TIMED = ("subset_sse", "log_bf_values", "absorb")


def standin():
    y, Z = inputs.draw_mains(1)
    return expand_design(make_dataset(y, Z, inputs.MAINS), inputs.MAINS)


def digest(shard) -> str:
    h = hashlib.sha256()
    for a in (shard.sums, np.float64(shard.m), shard.top.bits, shard.top.log_bfs):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def timed_split(data, s, prefixes, prior) -> dict:
    """Microseconds per outer model of each timed function, from one pass
    over the prefixes with each wrapped by a timer."""
    spent = dict.fromkeys(TIMED, 0.0)
    calls = dict.fromkeys(TIMED, 0)

    def timer(fn, name):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t
                calls[name] += 1
        return wrapper

    originals = (exact.subset_sse, exact.log_bf_values, exact.Shard.absorb)
    exact.subset_sse = timer(originals[0], "subset_sse")
    exact.log_bf_values = timer(originals[1], "log_bf_values")
    exact.Shard.absorb = timer(originals[2], "absorb")
    try:
        for pre in prefixes:
            exact.enumerate_shard(data, s, pre, inputs.G, prior, K)
    finally:
        exact.subset_sse, exact.log_bf_values, exact.Shard.absorb = originals
    return {name: 1e6 * spent[name] / max(1, calls[name]) for name in TIMED}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=3, help="prefixes to time")
    parser.add_argument("--rounds", type=int, default=3, help="timed passes per prefix")
    parser.add_argument("--seed", type=int, default=5, help="seed of the prefix draw")
    args = parser.parse_args()
    if args.shards < 1 or args.rounds < 1 or args.seed < 0:
        parser.error("--shards and --rounds must be >= 1, --seed >= 0")

    data = standin()
    s = exact.default_shard_bits(data.p)
    prefixes = [int(x) for x in np.random.default_rng(args.seed).integers(1 << s, size=args.shards)]
    prior = GPriorSpec.fixed(inputs.G)
    best = dict.fromkeys(prefixes, float("inf"))
    shards = {}
    for _ in range(args.rounds):
        for pre in prefixes:
            t = time.perf_counter()
            shard = exact.enumerate_shard(data, s, pre, inputs.G, prior, K)
            best[pre] = min(best[pre], time.perf_counter() - t)
            shards[pre] = shard
    rates = {pre: shards[pre].count / best[pre] for pre in prefixes}
    out = {
        "p": data.p,
        "shard_bits": s,
        "low_bits": min(data.p - s, exact.LOW_BITS),
        "K": K,
        "rounds": args.rounds,
        "models_per_s": {str(pre): rate for pre, rate in rates.items()},
        "core_minutes_2_35": (1 << data.p) / statistics.median(rates.values()) / 60.0,
        "us_per_outer_model": timed_split(data, s, prefixes, prior),
        "shards": {
            str(pre): {
                "count": shards[pre].count,
                "excluded_count": shards[pre].excluded_count,
                "digest": digest(shards[pre]),
            }
            for pre in prefixes
        },
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
