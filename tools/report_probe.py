"""Digest the program's seeded reports: gibbs, exact and compare.

Runs ``modelspace.cli.main`` in-process, inside a temporary directory, on
the benchmark's stand-in (``bench/inputs.draw_mains``, seed 1), with every
input written under a fixed relative name so that the paths a report
echoes are the same in any checkout:

- ``gibbs-p35-fixed`` and ``gibbs-p35-zs``: a chain on the p=35 stand-in
  (``mains.csv`` expanded by ``--mains``) at the fixed g = 178 and under
  the Zellner-Siow prior;
- ``gibbs-p17``: a chain on the p=17 prefix of the expanded design
  (``p17.csv``), which writes ``p17.trace``;
- ``exact-p17``: the exact pass of that prefix;
- ``compare-p17``: 16 chains on the prefix, scored against ``exact-p17``
  with ``--exact`` and against ``p17.trace`` with ``--trace-file``.

Each report is validated against its schema. The probe prints one JSON
object whose ``reports`` map each name to a sha256 of
``json.dumps(report, sort_keys=True)`` with ``timing`` removed, and any
further top-level keys named by ``--drop``. Two checkouts whose reports
are identical apart from timing print the same digests.

Run from a checkout, for example::

    python3 tools/report_probe.py
    python3 tools/report_probe.py --drop config
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import jsonschema  # noqa: E402

import inputs  # noqa: E402
from modelspace import cli  # noqa: E402

G = repr(inputs.G)
P35 = ["mains.csv", "--response", "y", "--mains", ",".join(inputs.MAINS)]
P17 = ["p17.csv", "--response", "y"]
RUNS = {
    "gibbs-p35-fixed": ["gibbs", *P35, "--g", G, "--iterations", "2000", "--seed", "1"],
    "gibbs-p35-zs": ["gibbs", *P35, "--zellner-siow", "--iterations", "2000", "--seed", "1"],
    "gibbs-p17": ["gibbs", *P17, "--g", G, "--iterations", "2000", "--seed", "2",
                  "--trace", "p17.trace"],
    "exact-p17": ["exact", *P17, "--g", G, "--workers", "1"],
    "compare-p17": ["compare", *P17, "--g", G, "--runs", "16", "--iterations", "300",
                    "--seed", "3", "--workers", "2", "--exact", "exact-p17.json",
                    "--trace-file", "p17.trace"],
}


def schema(name: str) -> dict:
    with open(Path(cli.__file__).parent / "schemas" / name, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--drop", action="append", default=[], metavar="KEY",
        help="a further top-level report key left out of every digest",
    )
    args = parser.parse_args()
    schemas = {
        "run": schema("run_report.schema.json"),
        "compare": schema("compare_report.schema.json"),
    }
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        inputs.write_mains_csv("mains.csv", *inputs.draw_mains(1))
        if cli.main(["expand", *P35, "--out", "wide.csv"]) != 0:
            raise SystemExit("expand failed")
        inputs.write_prefix_csv("wide.csv", "p17.csv", 17)
        for name, argv in RUNS.items():
            out = f"{name}.json"
            if cli.main([*argv, "--out", out]) != 0:
                raise SystemExit(f"{name}: modelspace {argv[0]} failed")
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            jsonschema.validate(report, schemas[report["kind"]])
            for key in ["timing", *args.drop]:
                report.pop(key, None)
            text = json.dumps(report, sort_keys=True)
            digests[name] = hashlib.sha256(text.encode()).hexdigest()
        os.chdir(ROOT)
    print(json.dumps({"dropped": ["timing", *args.drop], "reports": digests}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
