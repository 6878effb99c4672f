"""Time Gibbs chains in-process: the p=35 stand-in and a p=512 design.

Runs ``sampler.run_chain`` from the null model, with no burn-in, on

- the benchmark's p=35 stand-in (``bench/inputs.draw_mains``, expanded by
  the program's own ``linmodel.expand_design``), at the fixed g = 178 and
  under the Zellner-Siow prior, both on the swept-matrix ``FitState``;
- a seeded Gaussian design with N = 100 rows and p = 512 columns, three of
  them active, built by ``linmodel.make_dataset``, at the fixed g = N. Its
  sweep runs on ``InverseGramState``.

It prints one JSON object with, for each chain:

- ``sweeps_per_s``: the best of the rounds;
- ``flips_per_sweep``: the chain's ``bit_flips_per_sweep``;
- ``draws``: the models the chain recorded;
- ``digest``: a sha256 of the recorded bitmasks, g draws and log Bayes
  factors, which two checkouts whose chains are bit-identical share.

Run from a checkout, for example::

    python3 tools/sweep_probe.py --sweeps 2000 --rounds 3 --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from modelspace.bayesfactor import GPriorSpec  # noqa: E402
from modelspace.linmodel import expand_design, make_dataset  # noqa: E402
from modelspace.sampler import SamplerConfig, run_chain, sweep_state  # noqa: E402

# the large-p design: N rows, P columns, a signal on ACTIVE, data seed 3
N, P = 100, 512
ACTIVE = {0: 0.8, 5: -0.6, 17: 0.5}


def standin():
    y, Z = inputs.draw_mains(1)
    return expand_design(make_dataset(y, Z, inputs.MAINS), inputs.MAINS)


def wide():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((N, P))
    beta = np.zeros(P)
    beta[list(ACTIVE)] = list(ACTIVE.values())
    y = X @ beta + rng.standard_normal(N)
    return make_dataset(y, X, [f"x{j}" for j in range(P)])


def digest(trace) -> str:
    h = hashlib.sha256()
    # the bitmasks of a design wider than 63 columns are Python ints
    h.update(str(trace.bits.tolist()).encode())
    h.update(trace.g_draws.tobytes())
    h.update(trace.log_bfs.tobytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=2000, help="sweeps per chain")
    parser.add_argument("--rounds", type=int, default=3, help="timed runs per chain")
    parser.add_argument("--seed", type=int, default=1, help="seed of every chain")
    args = parser.parse_args()
    if args.sweeps < 1 or args.rounds < 1 or args.seed < 0:
        parser.error("--sweeps and --rounds must be >= 1, --seed >= 0")

    p35, p512 = standin(), wide()
    chains = {
        "p35-fixed": (p35, GPriorSpec.fixed(inputs.G)),
        "p35-zs": (p35, GPriorSpec.zellner_siow(p35.N)),
        "p512-fixed": (p512, GPriorSpec.fixed(float(N))),
    }
    out = {"sweeps": args.sweeps, "rounds": args.rounds, "seed": args.seed, "chains": {}}
    for name, (data, prior) in chains.items():
        config = SamplerConfig(iterations=args.sweeps, prior=prior, seed=args.seed)
        best = float("inf")
        for _ in range(args.rounds):
            t = time.perf_counter()
            trace = run_chain(data, config)
            best = min(best, time.perf_counter() - t)
        out["chains"][name] = {
            "p": data.p,
            "state": type(sweep_state(data)).__name__,
            "sweeps_per_s": trace.meta["raw_sweeps"] / best,
            "flips_per_sweep": trace.meta["bit_flips_per_sweep"],
            "draws": trace.n,
            "digest": digest(trace),
        }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
