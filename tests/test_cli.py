import argparse
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from modelspace import ChainTrace, cli, sampler
from modelspace.cli import build_parser, main, read_trace, write_trace
from conftest import synth_dataset

jsonschema = pytest.importorskip("jsonschema")

ROOT = os.path.dirname(os.path.dirname(__file__))
SCHEMA_DIR = os.path.join(ROOT, "src", "modelspace", "schemas")


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, data):
    header = ["y"] + list(data.names)
    lines = [",".join(header)]
    for i in range(data.N):
        lines.append(
            ",".join([repr(float(data.y[i]))] + [repr(float(v)) for v in data.X[i]])
        )
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def csv5(tmp_path_factory):
    data = synth_dataset(N=30, p=5, active=(0, 2), betas=(0.8, -0.6), seed=42)
    path = tmp_path_factory.mktemp("cli") / "d5.csv"
    return write_csv(path, data), data


@pytest.fixture(scope="module")
def csv4(tmp_path_factory):
    data = synth_dataset(N=25, p=4, active=(1,), betas=(0.9,), seed=4)
    path = tmp_path_factory.mktemp("cli") / "d4.csv"
    return write_csv(path, data)


@pytest.fixture(scope="module")
def exact4(csv4, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ex4.json"
    assert main(["exact", csv4, "--response", "y", "--g", "40", "--out", str(out)]) == 0
    return str(out)


def run_json(argv, out_path):
    rc = main(argv + ["--out", str(out_path)])
    assert rc == 0
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(
            ["gibbs", str(tmp_path / "nope.csv"), "--response", "y",
             "--g", "10", "--iterations", "5"]
        )
        assert rc == 3

    def test_conflicting_priors_is_usage_error(self, csv5):
        path, _ = csv5
        rc = main(
            ["gibbs", path, "--response", "y", "--g", "10",
             "--zellner-siow", "--iterations", "5", "--out", os.devnull]
        )
        assert rc == 2

    def test_no_prior_is_usage_error(self, csv5):
        path, _ = csv5
        rc = main(["gibbs", path, "--response", "y", "--iterations", "5"])
        assert rc == 2

    def test_p_guard_is_usage_error(self, tmp_path):
        data = synth_dataset(N=40, p=31, seed=9)
        path = write_csv(tmp_path / "wide.csv", data)
        rc = main(["exact", path, "--response", "y", "--g", "40"])
        assert rc == 2

    def test_bad_worker_env_is_usage_error(self, csv5, monkeypatch, capsys):
        path, _ = csv5
        for env in ("x", "0", "-3"):
            monkeypatch.setenv("MODELSPACE_WORKERS", env)
            rc = main(["exact", path, "--response", "y", "--g", "20",
                       "--out", os.devnull])
            assert rc == 2, env
            assert "MODELSPACE_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [["exact"], ["gibbs", "--iterations", "20000"],
         ["compare", "--runs", "4", "--iterations", "20000", "--workers", "1"]],
        ids=["exact", "gibbs", "compare"],
    )
    def test_top_k_below_one_is_usage_error(
        self, csv4, command, top_k, capsys, monkeypatch
    ):
        # refused before any chain runs
        monkeypatch.setattr(cli, "run_chain", None)
        rc = main(
            command + [csv4, "--response", "y", "--g", "40", "--top-k", top_k,
                       "--out", os.devnull]
        )
        assert rc == 2
        assert "--top-k" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [["exact"], ["compare", "--runs", "4", "--iterations", "20000"]],
        ids=["exact", "compare"],
    )
    def test_workers_below_one_is_usage_error(
        self, csv4, command, workers, capsys, monkeypatch
    ):
        # refused before any chain or shard runs
        monkeypatch.setattr(cli, "run_chain", None)
        monkeypatch.setattr(cli.exact_mod, "enumerate_shard", None)
        rc = main(
            command + [csv4, "--response", "y", "--g", "40", "--workers", workers,
                       "--out", os.devnull]
        )
        assert rc == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["gibbs", "--iterations", "10"],
         ["compare", "--runs", "4", "--iterations", "10", "--workers", "1"]],
        ids=["gibbs", "compare"],
    )
    def test_negative_seed_is_usage_error(self, csv4, command, capsys, monkeypatch):
        # refused before any chain runs
        monkeypatch.setattr(cli, "run_chain", None)
        rc = main(
            command + [csv4, "--response", "y", "--g", "30", "--seed", "-1",
                       "--out", os.devnull]
        )
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    def test_non_finite_g_is_usage_error(self, csv4):
        for g in ("nan", "inf"):
            rc = main(["exact", csv4, "--response", "y", "--g", g, "--out", os.devnull])
            assert rc == 2

    def test_exact_report_for_another_g_is_data_error(self, csv4, exact4, capsys):
        rc = main(
            ["compare", csv4, "--response", "y", "--g", "0.01", "--runs", "2",
             "--iterations", "50", "--exact", exact4, "--workers", "1",
             "--out", os.devnull]
        )
        assert rc == 3
        assert "g=40.0" in capsys.readouterr().err

    def test_exact_report_for_hierarchical_run_is_data_error(self, csv4, exact4):
        rc = main(
            ["compare", csv4, "--response", "y", "--zellner-siow", "--runs", "2",
             "--iterations", "50", "--exact", exact4, "--workers", "1",
             "--out", os.devnull]
        )
        assert rc == 3

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[1, 2]", '{"command": "exact", "dataset_digest": "x", '
         '"config": {"g": 40.0}, "summary": {"mpm": {"bits_hex": "2"}}}', None],
        ids=["not-json", "not-an-object", "no-summary-hpm", "gibbs-report"],
    )
    def test_bad_exact_report_is_data_error(self, csv4, tmp_path, text, capsys):
        bad = tmp_path / "bad.json"
        if text is None:
            # a gibbs report of the same data and g has every field but
            # the command
            argv = ["gibbs", csv4, "--response", "y", "--g", "40",
                    "--iterations", "50", "--out", str(bad)]
            assert main(argv) == 0
        else:
            bad.write_text(text)
        rc = main(
            ["compare", csv4, "--response", "y", "--g", "40", "--runs", "2",
             "--iterations", "10", "--exact", str(bad), "--workers", "1",
             "--out", os.devnull]
        )
        assert rc == 3
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, model",
        [("1\t30.0\t2.0\nff\t30.0\t99.0\n", "ff"),
         ("1\t30.0\t1.5\n3\t30.0\tnan\n", "3"),
         ("1\t30.0\t1.5\n3\t30.0\tinf\n", "3"),
         ("1\t30.0\t-inf\n3\t30.0\t-inf\n", "1"),
         # k = 1 at g = 30, N = 25: log BF <= (23/2) ln 31 = 39.491
         ("1\t30.0\t1e308\n2\t30.0\t-1e308\n", "1"),
         ("3\t30.0\t2.0\n1\t30.0\t39.5\n", "1"),
         # k = 2: log BF >= -ln 31 = -3.434
         ("1\t30.0\t2.0\n3\t30.0\t-3.44\n", "3"),
         ("1\t30.0\t2.0\n2\t0.0\t1.0\n", "2"),
         ("1\t30.0\t2.0\n2\tnan\t-inf\n", "2"),
         # a record scored at g = 2 does not belong to a run at g = 30
         ("1\t30.0\t2.0\n2\t2.0\t1.0\n", "2")],
        ids=["bits-beyond-p", "nan-log-bf", "inf-log-bf", "all-excluded",
             "log-bf-overflows", "log-bf-above-range", "log-bf-below-range",
             "g-zero", "g-nan", "g-differs"],
    )
    def test_trace_bits_beyond_p_is_data_error(
        self, csv4, tmp_path, text, model, capsys
    ):
        # a record no searcher could have scored is a data error naming it;
        # -inf on some records only marks excluded models. A finite log BF
        # must lie in the range that 0 <= SSE <= SSE0 gives at its g, and
        # under a fixed g that g must be the run's
        trace_path = tmp_path / "foreign.tsv"
        trace_path.write_text(text)
        rc = main(
            ["compare", csv4, "--response", "y", "--g", "30", "--runs", "2",
             "--iterations", "10", "--workers", "1",
             "--trace-file", str(trace_path), "--out", os.devnull]
        )
        assert rc == 3
        assert f"model {model} " in capsys.readouterr().err

    def test_repeated_header_name_is_data_error(self, tmp_path, capsys):
        # a second "y" is neither the response nor a candidate
        rng = np.random.default_rng(5)
        rows = "".join(
            ",".join(repr(float(v)) for v in row) + "\n"
            for row in rng.standard_normal((12, 4))
        )
        path = tmp_path / "dup.csv"
        path.write_text("y,a,y,b\n" + rows)
        rc = main(["gibbs", str(path), "--response", "y", "--g", "12",
                   "--iterations", "10", "--out", os.devnull])
        assert rc == 3
        assert "'y'" in capsys.readouterr().err

    def test_digest_mismatch_is_data_error(self, csv5, tmp_path):
        path, _ = csv5
        exact_out = tmp_path / "exact.json"
        run_json(["exact", path, "--response", "y", "--g", "30"], exact_out)
        other = write_csv(
            tmp_path / "other.csv", synth_dataset(N=20, p=5, seed=7)
        )
        rc = main(
            ["compare", other, "--response", "y", "--g", "20", "--runs", "2",
             "--iterations", "10", "--exact", str(exact_out),
             "--workers", "1", "--out", os.devnull]
        )
        assert rc == 3

    @pytest.mark.parametrize(
        "runs, iterations", [("2", "1"), ("1", "50")],
        ids=["one-iteration", "one-run"],
    )
    def test_compare_below_two_is_usage_error(
        self, csv4, runs, iterations, capsys, monkeypatch
    ):
        # refused before any chain runs: one draw has no SE, one run no SD
        monkeypatch.setattr(cli, "run_chain", None)
        rc = main(
            ["compare", csv4, "--response", "y", "--g", "30", "--runs", runs,
             "--iterations", iterations, "--workers", "1", "--out", os.devnull]
        )
        assert rc == 2
        assert "at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [(["gibbs", "--iterations", str(2**56)], "--iterations"),
         (["gibbs", "--iterations", str(2**60)], "--iterations"),
         (["compare", "--runs", str(2**60), "--iterations", "10", "--workers", "1"],
          "--runs")],
        ids=["gibbs-2^56", "gibbs-2^60", "compare-2^60"],
    )
    def test_too_many_to_allocate_is_usage_error(
        self, csv4, command, flag, capsys, monkeypatch
    ):
        # numpy refuses the trace (MemoryError at 2^56 draws, ValueError at
        # 2^60) or the seeds before any sweep runs
        monkeypatch.setattr(sampler, "gibbs_sweep", None)
        rc = main(
            command + [csv4, "--response", "y", "--g", "30", "--out", os.devnull]
        )
        assert rc == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_report_is_numerical_error(
        self, csv5, tmp_path, value, capsys, monkeypatch
    ):
        path, _ = csv5
        to_json = cli.summary_to_json

        def with_non_finite(*args):
            summary = to_json(*args)
            summary["topk_mass_log10"] = float(value)
            return summary

        monkeypatch.setattr(cli, "summary_to_json", with_non_finite)
        out = tmp_path / "run.json"
        rc = main(["gibbs", path, "--response", "y", "--g", "30",
                   "--iterations", "20", "--out", str(out)])
        assert rc == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["data", "trace-file", "exact"])
    def test_directory_as_input_is_data_error(
        self, csv4, exact4, tmp_path, role, capsys
    ):
        folder = str(tmp_path)
        argv = ["compare", csv4, "--response", "y", "--g", "40", "--runs", "2",
                "--iterations", "10", "--workers", "1", "--out", os.devnull]
        if role == "data":
            argv[1] = folder
        else:
            argv += [f"--{role}", folder]
        rc = main(argv)
        assert rc == 3
        assert f"{folder}: not found or unreadable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["exact", "--out"], ["gibbs", "--iterations", "20", "--trace"]],
        ids=["exact-out", "gibbs-trace"],
    )
    def test_missing_output_directory_is_usage_error(
        self, csv4, tmp_path, argv, capsys, monkeypatch
    ):
        # refused before any chain or shard runs
        monkeypatch.setattr(cli, "run_chain", None)
        monkeypatch.setattr(cli.exact_mod, "enumerate_shard", None)
        target = str(tmp_path / "missing" / "x")
        rc = main(
            [argv[0], csv4, "--response", "y", "--g", "40"] + argv[1:] + [target]
        )
        assert rc == 2
        assert f"{target}: no such directory" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "argv",
        [["gibbs", "--iterations", "20", "--out"],
         ["gibbs", "--iterations", "20", "--trace"],
         ["exact", "--out"],
         ["compare", "--runs", "2", "--iterations", "10", "--workers", "1", "--out"]],
        ids=["gibbs-out", "gibbs-trace", "exact-out", "compare-out"],
    )
    def test_output_directory_is_usage_error(
        self, csv4, tmp_path, argv, capsys, monkeypatch
    ):
        # refused before any chain or shard runs
        monkeypatch.setattr(cli, "run_chain", None)
        monkeypatch.setattr(cli.exact_mod, "enumerate_shard", None)
        folder = str(tmp_path)
        rc = main([argv[0], csv4, "--response", "y", "--g", "40"] + argv[1:] + [folder])
        assert rc == 2
        assert f"{folder}: is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["data", "trace-file"])
    def test_non_utf8_input_is_data_error(self, csv4, tmp_path, role, capsys):
        binary = tmp_path / "utf16.tsv"
        binary.write_bytes("1\t40.0\t0.5\n".encode("utf-16"))
        assert binary.read_bytes()[:2] == b"\xff\xfe"
        argv = ["compare", csv4, "--response", "y", "--g", "40", "--runs", "2",
                "--iterations", "10", "--workers", "1", "--out", os.devnull]
        if role == "data":
            argv[1] = str(binary)
        else:
            argv += ["--trace-file", str(binary)]
        rc = main(argv)
        assert rc == 3
        assert "utf16.tsv: not UTF-8 text" in capsys.readouterr().err


class TestExpand:
    def test_column_count(self, csv5, tmp_path):
        path, data = csv5
        out = tmp_path / "expanded.csv"
        rc = main(
            ["expand", path, "--response", "y",
             "--mains", "x0,x1,x2", "--out", str(out)]
        )
        assert rc == 0
        header = out.read_text().splitlines()[0].split(",")
        # 3 mains + 3 squares + 3 interactions + response column
        assert len(header) == 10
        assert header[0] == "y"
        assert "x0x1" in header and "x2x2" in header

    def test_response_name_clash_is_data_error(self, tmp_path, capsys):
        # the square of main "a" is "aa", the response's name: refused
        # before the output file is written
        rng = np.random.default_rng(6)
        rows = "".join(
            ",".join(repr(float(v)) for v in row) + "\n"
            for row in rng.standard_normal((12, 3))
        )
        path = tmp_path / "d.csv"
        path.write_text("aa,a,b\n" + rows)
        out = tmp_path / "expanded.csv"
        rc = main(["expand", str(path), "--response", "aa", "--mains", "a,b",
                   "--out", str(out)])
        assert rc == 3
        assert "'aa'" in capsys.readouterr().err
        assert not out.exists()

    def test_roundtrip_through_loader(self, csv5, tmp_path):
        from modelspace import load_csv

        path, _ = csv5
        out = tmp_path / "expanded.csv"
        main(["expand", path, "--response", "y", "--mains", "x0,x1", "--out", str(out)])
        reloaded = load_csv(out, "y")
        assert reloaded.p == 5
        assert reloaded.N == 30


class TestGibbsReport:
    def test_schema_and_content(self, csv5, tmp_path):
        path, data = csv5
        report = run_json(
            ["gibbs", path, "--response", "y", "--g", "30",
             "--iterations", "200", "--seed", "1", "--top-k", "20"],
            tmp_path / "run.json",
        )
        jsonschema.validate(report, load_schema("run_report.schema.json"))
        assert report["kind"] == "run"
        assert report["command"] == "gibbs"
        assert report["dataset_digest"] == data.digest()
        assert report["summary"]["n_used"] == 200
        assert len(report["summary"]["inclusion"]) == 5
        for entry in report["summary"]["inclusion"]:
            assert 0.0 <= entry["value"] <= 1.0

    def test_bit_flips_per_sweep(self, csv5, tmp_path):
        path, _ = csv5
        trace_path = tmp_path / "trace.tsv"
        report = run_json(
            ["gibbs", path, "--response", "y", "--g", "30", "--iterations", "300",
             "--burn", "0", "--thin", "1", "--seed", "4", "--trace", str(trace_path)],
            tmp_path / "run.json",
        )
        schema = load_schema("run_report.schema.json")
        jsonschema.validate(report, schema)
        bits = [0] + read_trace(trace_path).bits.tolist()
        hamming = [(a ^ b).bit_count() for a, b in zip(bits, bits[1:])]
        flips = report["diagnostics"]["bit_flips_per_sweep"]
        assert flips == pytest.approx(np.mean(hamming), rel=1e-12)
        assert flips > 0
        report["diagnostics"]["bit_flips_per_sweep"] = -1.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)

    def test_renormalized_inclusion_within_schema(self, tmp_path):
        # every visited model holds x0; summing normalized weights used to
        # give its renormalized inclusion 1 + 5e-15 on this chain
        data = synth_dataset(
            N=60, p=10, active=(0, 3, 6), betas=(2.0, -1.0, 0.6), seed=17
        )
        path = write_csv(tmp_path / "d10.csv", data)
        report = run_json(
            ["gibbs", path, "--response", "y", "--g", "60",
             "--iterations", "200", "--seed", "17"],
            tmp_path / "run.json",
        )
        jsonschema.validate(report, load_schema("run_report.schema.json"))
        assert report["summary"]["inclusion_renormalized"][0]["value"] == 1.0

    def test_single_iteration(self, csv5, tmp_path):
        path, _ = csv5
        report = run_json(
            ["gibbs", path, "--response", "y", "--g", "30", "--iterations", "1"],
            tmp_path / "one.json",
        )
        assert report["summary"]["n_used"] == 1
        # a one-draw chain has no SE: every record says so with a null
        for field in ("inclusion", "dimension"):
            records = report["summary"][field]
            assert records and all(e["se"] is None for e in records)

    def test_seed_determinism(self, csv5, tmp_path):
        path, _ = csv5
        args = ["gibbs", path, "--response", "y", "--g", "30",
                "--iterations", "100", "--seed", "4"]
        a = run_json(args, tmp_path / "a.json")
        b = run_json(args, tmp_path / "b.json")
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_trace_roundtrip(self, csv5, tmp_path):
        path, _ = csv5
        trace_path = tmp_path / "trace.tsv"
        run_json(
            ["gibbs", path, "--response", "y", "--g", "30",
             "--iterations", "50", "--trace", str(trace_path)],
            tmp_path / "r.json",
        )
        trace = read_trace(trace_path)
        assert trace.n == 50
        assert trace.bits.dtype == np.int64
        assert (trace.g_draws == 30.0).all()
        assert np.isfinite(trace.log_bfs).all()

    def test_hierarchical_run(self, csv5, tmp_path):
        path, _ = csv5
        report = run_json(
            ["gibbs", path, "--response", "y", "--zellner-siow",
             "--iterations", "100", "--seed", "2"],
            tmp_path / "zs.json",
        )
        jsonschema.validate(report, load_schema("run_report.schema.json"))
        assert 0.0 < report["diagnostics"]["g_accept_rate"] <= 1.0


class TestExactReport:
    def test_report_does_not_depend_on_blas_threads(self, tmp_path):
        # every product in a shard stays below OpenBLAS's threading cutoffs,
        # so a report is the same whether BLAS may run one thread or two;
        # p = LOW_BITS runs the widest block
        p = cli.exact_mod.LOW_BITS
        data = synth_dataset(
            N=40, p=p, active=(0, 7, p - 1), betas=(0.7, -0.5, 0.4), seed=31
        )
        path = write_csv(tmp_path / f"d{p}.csv", data)
        pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"ex{threads}.json"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
            )
            code = "import sys; from modelspace.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run(
                [sys.executable, "-c", code, "exact", path, "--response", "y",
                 "--g", "40", "--out", str(out)],
                env=env, check=True,
            )
            report = json.loads(out.read_text(encoding="utf-8"))
            del report["timing"]
            reports.append(report)
        assert reports[0]["summary"]["inclusion"]
        assert reports[0] == reports[1]

    def test_p2_hand_computed(self, tmp_path):
        # 4-term sum done by hand from the closed form
        from modelspace import load_csv, log_bf_value, sse_direct

        data = synth_dataset(N=12, p=2, active=(0,), betas=(1.0,), seed=3)
        path = write_csv(tmp_path / "p2.csv", data)
        g = 12.0
        report = run_json(
            ["exact", path, "--response", "y", "--g", "12", "--top-k", "4"],
            tmp_path / "p2.json",
        )
        lbfs = {}
        for bits in range(4):
            lbfs[bits] = log_bf_value(
                sse_direct(data, bits), bits.bit_count(), data.sse0, data.N, g
            )
        total = math.log(sum(math.exp(v) for v in lbfs.values()))
        assert report["summary"]["log10_total_bf"] == pytest.approx(
            total / math.log(10.0), abs=1e-10
        )
        incl0 = (math.exp(lbfs[0b01]) + math.exp(lbfs[0b11])) / math.exp(total)
        assert report["summary"]["inclusion"][0]["value"] == pytest.approx(
            incl0, abs=1e-12
        )
        hpm_bits = max(lbfs, key=lambda b: (lbfs[b], -b))
        assert int(report["summary"]["hpm"]["bits_hex"], 16) == hpm_bits
        assert report["summary"]["hpm"]["posterior"] == pytest.approx(
            math.exp(lbfs[hpm_bits] - total), rel=1e-10
        )

    def test_schema(self, csv5, tmp_path):
        path, _ = csv5
        report = run_json(
            ["exact", path, "--response", "y", "--g", "30", "--top-k", "32"],
            tmp_path / "ex.json",
        )
        jsonschema.validate(report, load_schema("run_report.schema.json"))
        assert report["summary"]["method"] == "exact"
        assert report["summary"]["excluded_count"] == 0
        assert report["summary"]["n_used"] == 32

    @pytest.mark.parametrize(
        "shard_bits, layout", [(None, (0, 5)), (2, (2, 3))],
        ids=["default", "explicit"],
    )
    def test_layout_in_diagnostics(
        self, csv5, tmp_path, shard_bits, layout, set_shard_bits
    ):
        # the shard layout fixes the reduction order, so the report says
        # which one made it
        if shard_bits is not None:
            set_shard_bits(shard_bits)
        path, _ = csv5
        report = run_json(
            ["exact", path, "--response", "y", "--g", "30", "--workers", "1"],
            tmp_path / "ex.json",
        )
        schema = load_schema("run_report.schema.json")
        jsonschema.validate(report, schema)
        diag = report["diagnostics"]
        assert (diag["shard_bits"], diag["low_bits"]) == layout
        # a pass asked for no quantity and no count reports neither
        assert set(diag) == {"excluded_count", "shard_bits", "low_bits", "workers"}
        for field in ("shard_bits", "low_bits"):
            bad = json.loads(json.dumps(report))
            bad["diagnostics"][field] = -1
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema)

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
    def test_workers_in_diagnostics(
        self, tmp_path, pooled, set_models_per_worker
    ):
        # 8 shards of 2^LOW_BITS models run in-process unless the test
        # scales down the work a pool process needs
        if pooled:
            set_models_per_worker(1 << cli.exact_mod.LOW_BITS)
        p = cli.exact_mod.LOW_BITS + 3
        data = synth_dataset(N=40, p=p, active=(0, 5), betas=(0.7, -0.5), seed=31)
        path = write_csv(tmp_path / "wide.csv", data)
        report = run_json(
            ["exact", path, "--response", "y", "--g", "40", "--workers", "2",
             "--top-k", "5"],
            tmp_path / "ex.json",
        )
        schema = load_schema("run_report.schema.json")
        jsonschema.validate(report, schema)
        assert report["diagnostics"]["workers"] == (2 if pooled else 1)
        assert report["config"]["workers"] == 2
        bad = json.loads(json.dumps(report))
        bad["diagnostics"]["workers"] = 0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)

    def test_report_is_one_line(self, csv5, tmp_path):
        path, _ = csv5
        out = tmp_path / "ex.json"
        run_json(["exact", path, "--response", "y", "--g", "30"], out)
        text = out.read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1

    def test_timing_throughput(self, csv5, tmp_path):
        path, _ = csv5
        report = run_json(
            ["exact", path, "--response", "y", "--g", "30", "--workers", "1"],
            tmp_path / "ex.json",
        )
        schema = load_schema("run_report.schema.json")
        jsonschema.validate(report, schema)
        timing = report["timing"]
        assert timing["models_per_s"] == pytest.approx(
            32 / timing["enumerate_seconds"], rel=1e-12
        )
        for field in ("load_seconds", "enumerate_seconds", "models_per_s"):
            bad = json.loads(json.dumps(report))
            bad["timing"][field] = -1.0
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema)


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture(scope="module")
def run_reports(csv5, tmp_path_factory):
    path, _ = csv5
    out = tmp_path_factory.mktemp("reports")
    gibbs = ["gibbs", path, "--response", "y", "--iterations", "300", "--seed", "3"]
    return {
        "fixed-g": run_json(gibbs + ["--g", "30"], out / "fixed.json"),
        "zellner-siow": run_json(gibbs + ["--zellner-siow"], out / "zs.json"),
        "exact": run_json(["exact", path, "--response", "y", "--g", "30"],
                          out / "exact.json"),
    }


@pytest.mark.parametrize(
    "field, value",
    [("g_accept_rate", 1.5), ("g_accept_rate", -0.1), ("g_accept_rate", "0.5"),
     ("sse_spot_check_max_rel", -1.0), ("sse_spot_check_max_rel", None),
     ("distinct_models", -4), ("distinct_models", 0), ("distinct_models", 2.5),
     ("excluded_count", -1), ("excluded_count", 1.5)],
)
def test_run_report_diagnostics_bounds(run_reports, field, value):
    # real fixed-g, Zellner-Siow and exact reports validate; each one that
    # has the field fails with the bad value in its place
    schema = load_schema("run_report.schema.json")
    checked = 0
    for report in run_reports.values():
        jsonschema.validate(report, schema)
        if field not in report["diagnostics"]:
            continue
        bad = json.loads(json.dumps(report))
        bad["diagnostics"][field] = value
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        checked += 1
    assert checked >= 1


def test_gibbs_and_exact_share_one_summary_shape(csv5, tmp_path):
    # summary_to_json writes both: the same keys, the same schema, strict JSON
    path, _ = csv5
    schema = load_schema("run_report.schema.json")
    summaries = []
    for command in (["gibbs", "--iterations", "200"], ["exact"]):
        out = tmp_path / f"{command[0]}.json"
        assert main(command[:1] + [path, "--response", "y", "--g", "30"]
                    + command[1:] + ["--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_refuse)
        jsonschema.validate(report, schema)
        summaries.append(report["summary"])
    gibbs, exact = summaries
    assert gibbs.keys() == exact.keys()
    assert (gibbs["method"], exact["method"]) == ("gibbs", "exact")


def option_dests(command):
    """The dests of a subcommand's options, read off the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions
            if not isinstance(a, argparse._HelpAction)}


@pytest.mark.parametrize("argv", [
    ["gibbs", "--g", "30", "--iterations", "20"],
    ["exact", "--g", "30"],
    ["compare", "--g", "30", "--runs", "2", "--iterations", "20", "--workers", "1"],
], ids=lambda argv: argv[0])
def test_config_echoes_every_option_but_the_outputs(csv5, tmp_path, argv):
    # a new flag is echoed without another edit, and output paths never are
    path, _ = csv5
    report = run_json(argv[:1] + [path, "--response", "y"] + argv[1:], tmp_path / "r.json")
    assert set(report["config"]) == option_dests(argv[0]) - {"out", "trace"}


class TestCompareReport:
    def test_schema_and_hits(self, csv5, tmp_path):
        path, _ = csv5
        exact_out = tmp_path / "exact.json"
        run_json(["exact", path, "--response", "y", "--g", "30"], exact_out)
        report = run_json(
            ["compare", path, "--response", "y", "--g", "30",
             "--runs", "3", "--iterations", "300", "--seed", "5",
             "--workers", "1", "--exact", str(exact_out)],
            tmp_path / "cmp.json",
        )
        jsonschema.validate(report, load_schema("compare_report.schema.json"))
        assert report["runs"] == 3
        assert len(report["variables"]) == 5
        assert len(report["topk_mass_log10"]["per_run"]) == 3
        assert 0 <= report["hpm_hits"] <= 3
        assert 0 <= report["mpm_hits"] <= 3
        assert report["hpm_visited"] >= report["hpm_hits"]

    def test_bit_flips_per_sweep(self, csv5, tmp_path):
        path, _ = csv5
        from modelspace import GPriorSpec, SamplerConfig, load_csv, run_chain

        report = run_json(
            ["compare", path, "--response", "y", "--g", "30",
             "--runs", "2", "--iterations", "150", "--seed", "3", "--workers", "1"],
            tmp_path / "cmp.json",
        )
        schema = load_schema("compare_report.schema.json")
        jsonschema.validate(report, schema)
        data = load_csv(path, "y")
        seeds = np.random.SeedSequence(3).generate_state(2, dtype=np.uint64)
        expected = [
            run_chain(data, SamplerConfig(iterations=150, prior=GPriorSpec.fixed(30.0),
                                          seed=int(s))).meta["bit_flips_per_sweep"]
            for s in seeds
        ]
        flips = report["bit_flips_per_sweep"]
        assert flips["per_run"] == expected
        assert flips["mean"] == pytest.approx(np.mean(expected), rel=1e-12)
        assert flips["mean"] > 0
        bad = json.loads(json.dumps(report))
        bad["bit_flips_per_sweep"]["per_run"][0] = -1.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        bad = json.loads(json.dumps(report))
        bad["bit_flips_per_sweep"]["mean"] = -1.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        # reports written before the field existed still validate
        old = json.loads(json.dumps(report))
        del old["bit_flips_per_sweep"]
        jsonschema.validate(old, schema)

    def test_determinism(self, csv5, tmp_path):
        path, _ = csv5
        args = ["compare", path, "--response", "y", "--g", "30",
                "--runs", "2", "--iterations", "100", "--seed", "9",
                "--workers", "1"]
        a = run_json(args, tmp_path / "a.json")
        b = run_json(args, tmp_path / "b.json")
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_report_does_not_depend_on_workers(self, csv5, tmp_path):
        # the chains run in-process at one worker and on the pool at two;
        # each pooled chain reports whether it visited the exact HPM
        path, _ = csv5
        from modelspace import GPriorSpec, SamplerConfig, load_csv, run_chain

        exact_out = tmp_path / "exact.json"
        exact = run_json(["exact", path, "--response", "y", "--g", "30"], exact_out)
        args = ["compare", path, "--response", "y", "--g", "30", "--runs", "6",
                "--iterations", "6", "--seed", "11", "--exact", str(exact_out)]
        one, two = (run_json(args + ["--workers", w], tmp_path / f"w{w}.json")
                    for w in ("1", "2"))
        for report in (one, two):
            report.pop("timing")
            report["config"].pop("workers")
        assert one == two
        hpm = int(exact["summary"]["hpm"]["bits_hex"], 16)
        data = load_csv(path, "y")
        seeds = np.random.SeedSequence(11).generate_state(6, dtype=np.uint64)
        visited = [
            hpm in run_chain(data, SamplerConfig(iterations=6, prior=GPriorSpec.fixed(30.0),
                                                 seed=int(s))).bits.tolist()
            for s in seeds
        ]
        # chains this short visit the HPM in some runs and miss it in others
        assert 0 < sum(visited) < 6
        assert two["hpm_visited"] == sum(visited)

    def test_external_trace_scoring(self, csv5, tmp_path):
        path, data = csv5
        from modelspace import GPriorSpec, SamplerConfig, run_chain

        trace = run_chain(
            data, SamplerConfig(iterations=100, prior=GPriorSpec.fixed(30.0), seed=8)
        )
        trace_path = tmp_path / "ext.tsv"
        write_trace(trace_path, trace)
        report = run_json(
            ["compare", path, "--response", "y", "--g", "30",
             "--runs", "2", "--iterations", "50", "--workers", "1",
             "--trace-file", str(trace_path)],
            tmp_path / "cmp.json",
        )
        jsonschema.validate(report, load_schema("compare_report.schema.json"))
        assert len(report["external"]) == 1
        ext = report["external"][0]
        assert ext["method"] == "renormalized"
        assert ext["distinct_models"] >= 1
        for entry in ext["inclusion"]:
            assert 0.0 <= entry["value"] <= 1.0 + 1e-12


class TestTraceFormat:
    def test_roundtrip_values(self, tmp_path):
        from modelspace import ChainTrace

        trace = ChainTrace(
            [0, 5, 1023], np.array([1.0, 2.5, 1e6]), np.array([0.0, -3.25, 117.0])
        )
        path = tmp_path / "t.tsv"
        write_trace(path, trace)
        # the format is one "hex<TAB>g<TAB>log_bf" line per draw, reprs exact
        assert path.read_text() == "0\t1.0\t0.0\n5\t2.5\t-3.25\n3ff\t1000000.0\t117.0\n"
        back = read_trace(path)
        assert back.bits.tolist() == [0, 5, 1023]
        assert back.g_draws.tolist() == [1.0, 2.5, 1e6]
        assert back.log_bfs.tolist() == [0.0, -3.25, 117.0]
        # a byte-order mark before the first record is not part of it
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_trace(path).bits.tolist() == [0, 5, 1023]

    def test_malformed_line(self, tmp_path):
        from modelspace import DataError

        path = tmp_path / "bad.tsv"
        path.write_text("ff\t1.0\n")
        with pytest.raises(DataError, match="3 tab-separated"):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        from modelspace import DataError

        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_trace(path)

    @pytest.mark.parametrize(
        "text, message",
        [("1\t1.0\t0.0\n\n  \n2\t1.0\tzz\n", ":4: unparseable"),
         ("\r\n1\t1.0\t0.0\r\n\r\n2\t1.0\r\n", ":4: expected 3 tab-separated"),
         ("1\t1.0\tzz\n\n2\t1.0\n", ":1: unparseable"),
         ("1\t1.0\t0.0\n\n2\t1.0\t0.0\tx\n3\t1.0\tzz\n", ":3: expected 3"),
         ("1\t1.0\t0.0\x0c2\t1.0\t0.0\n", ":1: expected 3")],
        ids=["after-blank-lines", "crlf", "first-fault-wins", "extra-field",
             "form-feed-breaks-no-line"],
    )
    def test_bad_record_line_number(self, tmp_path, text, message):
        from modelspace import DataError

        path = tmp_path / "bad.tsv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match=message):
            read_trace(path)

    def test_blank_lines_and_spaces_are_skipped(self, tmp_path):
        path = tmp_path / "spaced.tsv"
        path.write_text("\n 1f\t 2.5\t-inf \n\n\n0\t1_0\t١\n\n")
        trace = read_trace(path)
        assert trace.bits.tolist() == [0x1F, 0]
        assert trace.g_draws.tolist() == [2.5, 10.0]
        assert trace.log_bfs.tolist() == [-math.inf, 1.0]


def scoring_reference(records, p, top_k):
    """``score_external_trace`` model by model in plain Python: the first
    visit's log BF per distinct model, weights exp(lbf - top), the HPM and
    top K by decreasing log BF with ties by ascending bitmask."""
    first = {}
    for bits, _, lbf in records:
        first.setdefault(bits, lbf)
    top = max(first.values())
    w = {b: math.exp(lbf - top) for b, lbf in first.items()}
    total = sum(w.values())
    ranked = sorted(first.items(), key=lambda t: (-t[1], t[0]))
    mass = top + math.log(sum(math.exp(lbf - top) for _, lbf in ranked[:top_k]))
    return {
        "distinct_models": len(first),
        "inclusion": [sum(wb for b, wb in w.items() if b >> l & 1) / total
                      for l in range(p)],
        "hpm_bits_hex": format(ranked[0][0], "x"),
        "topk_mass_log10": mass / math.log(10.0),
        "ranked": ranked,
    }


class TestExternalTraceScoring:
    # revisits, excluded (-inf) records, a three-way tie at the top, and
    # revisits whose log BF differs from the first visit's
    RECORDS = [
        (0b0101, 40.0, 2.0),
        (0b0011, 40.0, 3.5),
        (0b0110, 40.0, 3.5),
        (0b0101, 52.0, 9.0),  # the first visit's 2.0 is kept
        (0b1000, 40.0, -math.inf),
        (0b0001, 40.0, 3.5),  # ties: the lowest bitmask is the HPM
        (0b0011, 40.0, 1.0),
        (0b1111, 40.0, -math.inf),
        (0b1000, 40.0, 0.5),  # an excluded model stays excluded
        (0b0100, 40.0, -1.25),
    ]

    def write(self, path, records):
        path.write_text("".join(f"{b:x}\t{g!r}\t{lbf!r}\n" for b, g, lbf in records))
        return path

    @pytest.mark.parametrize("top_k", [1, 2, 4, 1000])
    def test_matches_per_model_reference(self, csv4, tmp_path, top_k):
        from modelspace import GPriorSpec, load_csv

        data = load_csv(csv4, "y")
        path = self.write(tmp_path / "ext.tsv", self.RECORDS)
        # the revisit at g = 52 makes this a Zellner-Siow trace
        prior = GPriorSpec.zellner_siow(data.N)
        out = cli.score_external_trace(path, data, prior, top_k)
        ref = scoring_reference(self.RECORDS, data.p, top_k)
        assert out["distinct_models"] == ref["distinct_models"] == 7
        assert out["hpm_bits_hex"] == ref["hpm_bits_hex"] == "1"
        values = [e["value"] for e in out["inclusion"]]
        assert values == pytest.approx(ref["inclusion"], rel=1e-14, abs=1e-15)
        assert out["topk_mass_log10"] == pytest.approx(ref["topk_mass_log10"], rel=1e-14)

    @pytest.mark.parametrize("top_k", [3, 1000])
    def test_chain_trace_scores_as_its_summary(self, csv5, tmp_path, top_k):
        # a chain's own trace file, scored as a foreign one, gives the
        # chain summary's renormalized figures bit for bit
        from modelspace import GPriorSpec, SamplerConfig, run_chain, summarize_trace

        _, data = csv5
        prior = GPriorSpec.fixed(30.0)
        trace = run_chain(data, SamplerConfig(iterations=300, prior=prior, seed=6))
        path = tmp_path / "own.tsv"
        write_trace(path, trace)
        summary = summarize_trace(trace, data, top_k)
        out = cli.score_external_trace(path, data, prior, top_k)
        assert summary.model_count > 3
        assert out["hpm_bits_hex"] == format(summary.hpm, "x")
        assert out["topk_mass_log10"] == summary.mass_log10
        assert out["distinct_models"] == summary.model_count
        values = [e["value"] for e in out["inclusion"]]
        assert values == summary.inclusion_renormalized.tolist()

    def test_fixed_g_refuses_a_record_at_another_g(self, csv4, tmp_path):
        from modelspace import DataError, GPriorSpec, load_csv

        data = load_csv(csv4, "y")
        path = self.write(tmp_path / "ext.tsv", self.RECORDS)
        with pytest.raises(
            DataError, match="ext.tsv: model 5 was scored at g=52.0, this run uses g=40.0"
        ):
            cli.score_external_trace(path, data, GPriorSpec.fixed(40.0), 10)

    def test_ranking_breaks_ties_by_bitmask(self, tmp_path):
        from modelspace import dedupe_models, rank_models

        path = self.write(tmp_path / "ext.tsv", self.RECORDS)
        distinct = dedupe_models(read_trace(path))
        top = rank_models(distinct)
        ranked = list(zip(top.bits.tolist(), top.log_bfs.tolist()))
        assert ranked == scoring_reference(self.RECORDS, 4, 1)["ranked"]
        assert [b for b, _ in ranked[:3]] == [0b0001, 0b0011, 0b0110]

    @pytest.mark.parametrize("prior", [["--g", "12"], ["--zellner-siow"]],
                             ids=["fixed-g", "zellner-siow"])
    @pytest.mark.parametrize(
        "N, p, betas, noise",
        [(12, 8, (3.0, -2.0, 1.5), 0.05), (60, 6, (), 1.0)],
        ids=["near-saturation", "pure-noise"],
    )
    @pytest.mark.parametrize("max_p", [96, 4], ids=["swept-matrix", "inverse-gram"])
    def test_sampler_traces_are_in_range(
        self, tmp_path, monkeypatch, prior, N, p, betas, noise, max_p
    ):
        # every record a chain writes, from either sweep state, passes the
        # range check, with SSE near 0 on the near-saturated design and near
        # SSE0 on the noise one; a log BF just beyond its bound does not
        from modelspace import DataError, GPriorSpec, load_csv, sampler

        monkeypatch.setattr(sampler, "SWEEP_MATRIX_MAX_P", max_p)

        data = synth_dataset(N=N, p=p, active=range(len(betas)), betas=betas,
                             noise=noise, seed=N)
        path = write_csv(tmp_path / "d.csv", data)
        trace_path = tmp_path / "trace.tsv"
        assert main(["gibbs", path, "--response", "y", *prior, "--iterations", "2000",
                     "--seed", "5", "--trace", str(trace_path), "--out", os.devnull]) == 0
        data = load_csv(path, "y")
        # scored under the prior the chain ran with
        run_prior = (GPriorSpec.zellner_siow(data.N) if "--zellner-siow" in prior
                     else GPriorSpec.fixed(12.0))
        cli.score_external_trace(trace_path, data, run_prior, 10)
        trace = read_trace(trace_path)
        k = np.bitwise_count(trace.bits).astype(float)
        scale = np.log1p(trace.g_draws)
        beyond = 1e-6 * N * scale
        for row, lbf in ((0, 0.5 * (N - k[0] - 1) * scale[0] + beyond[0]),
                         (-1, -0.5 * k[-1] * scale[-1] - beyond[-1])):
            lbfs = trace.log_bfs.copy()
            lbfs[row] = lbf
            write_trace(trace_path, ChainTrace(trace.bits, trace.g_draws, lbfs))
            with pytest.raises(DataError, match=f"model {int(trace.bits[row]):x} "):
                cli.score_external_trace(trace_path, data, run_prior, 10)

    def test_saturated_model_has_no_finite_log_bf(self, tmp_path):
        from modelspace import DataError, GPriorSpec

        data = synth_dataset(N=6, p=5, seed=6)
        path = tmp_path / "sat.tsv"
        path.write_text("1\t6.0\t0.5\n1f\t6.0\t-inf\n")
        cli.score_external_trace(path, data, GPriorSpec.fixed(6.0), 10)
        path.write_text("1\t6.0\t0.5\n1f\t6.0\t-0.5\n")
        with pytest.raises(DataError, match="model 1f .*5-variable .*N=6"):
            cli.score_external_trace(path, data, GPriorSpec.fixed(6.0), 10)

    def test_wide_trace_round_trip(self, tmp_path):
        # p = 70: bitmasks at and above 2^63 take the object-dtype path
        from modelspace import ChainTrace, GPriorSpec

        p = 70
        data = synth_dataset(N=80, p=p, seed=70)
        rng = np.random.default_rng(70)
        masks = [int.from_bytes(rng.bytes(9), "little") & ((1 << p) - 1)
                 for _ in range(200)]
        masks += [(1 << 63) | 5, (1 << 69), (1 << p) - 1, 0] + masks[:30]
        # log BFs >= 0 lie in every model's range here, the null model's too
        lbfs = np.abs(rng.normal(0.0, 3.0, size=len(masks)))
        lbfs[7] = -math.inf
        path = tmp_path / "wide.tsv"
        write_trace(path, ChainTrace(masks, np.full(len(masks), 70.0), lbfs))
        trace = read_trace(path)
        assert trace.bits.dtype == object
        assert trace.bits.tolist() == masks
        assert trace.log_bfs.tolist() == lbfs.tolist()
        out = cli.score_external_trace(path, data, GPriorSpec.fixed(70.0), 20)
        records = list(zip(masks, trace.g_draws.tolist(), lbfs.tolist()))
        ref = scoring_reference(records, p, 20)
        assert out["distinct_models"] == ref["distinct_models"]
        assert out["hpm_bits_hex"] == ref["hpm_bits_hex"]
        values = [e["value"] for e in out["inclusion"]]
        assert values == pytest.approx(ref["inclusion"], rel=1e-12, abs=1e-15)
        assert out["topk_mass_log10"] == pytest.approx(ref["topk_mass_log10"], rel=1e-14)


def test_readme_cli_examples_parse():
    # every command the README shows must parse, so that the docs cannot
    # advertise an option the parser no longer has
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("modelspace ")
    ]
    assert [argv[1] for argv in commands] == [
        "expand", "gibbs", "gibbs", "exact", "compare"
    ]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's library example runs as shown on a small data.csv, and
    # the models it returns are int bitmasks
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    write_csv(tmp_path / "data.csv",
              synth_dataset(N=30, p=6, active=(0, 2), betas=(1.0, -0.8), seed=8))
    namespace = {}
    exec(block, namespace)
    assert isinstance(namespace["summary"].hpm, int)
    assert isinstance(namespace["exact"].hpm, int)
