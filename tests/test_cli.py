import json
import math
import os

import numpy as np
import pytest

from modelspace import ModelIndex
from modelspace.cli import main, read_trace, write_trace
from conftest import synth_dataset

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "src", "modelspace", "schemas"
)


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
        monkeypatch.setenv("MODELSPACE_WORKERS", "x")
        rc = main(["exact", path, "--response", "y", "--g", "20"])
        assert rc == 2
        assert "MODELSPACE_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_is_usage_error(self, csv4, top_k, capsys):
        rc = main(
            ["exact", csv4, "--response", "y", "--g", "40", "--top-k", top_k,
             "--out", os.devnull]
        )
        assert rc == 2
        assert "top-k" in capsys.readouterr().err

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
        ["{not json", "[1, 2]", '{"dataset_digest": "x", "config": {"g": 40.0}, '
         '"summary": {"mpm": {"bits_hex": "2"}}}'],
        ids=["not-json", "not-an-object", "no-summary-hpm"],
    )
    def test_bad_exact_report_is_data_error(self, csv4, tmp_path, text, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(
            ["compare", csv4, "--response", "y", "--g", "40", "--runs", "2",
             "--iterations", "10", "--exact", str(bad), "--workers", "1",
             "--out", os.devnull]
        )
        assert rc == 3
        assert "bad.json" in capsys.readouterr().err

    def test_trace_bits_beyond_p_is_data_error(self, csv4, tmp_path):
        trace_path = tmp_path / "foreign.tsv"
        trace_path.write_text("1\t30.0\t2.0\nff\t30.0\t99.0\n")
        rc = main(
            ["compare", csv4, "--response", "y", "--g", "30", "--runs", "2",
             "--iterations", "10", "--workers", "1",
             "--trace-file", str(trace_path), "--out", os.devnull]
        )
        assert rc == 3

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
        bits = [0] + [m.bits for m, _, _ in read_trace(trace_path)]
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
        assert all(e["se"] is None for e in report["summary"]["inclusion"])

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
        records = read_trace(trace_path)
        assert len(records) == 50
        for m, g, lbf in records:
            assert g == 30.0
            assert isinstance(m, ModelIndex)
            assert math.isfinite(lbf)

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
            m = ModelIndex.from_bits(bits)
            lbfs[bits] = log_bf_value(
                sse_direct(data, m), m.k, data.sse0, data.N, g
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

        models = [ModelIndex.from_bits(b) for b in (0, 5, 1023)]
        trace = ChainTrace(
            models, np.array([1.0, 2.5, 1e6]), np.array([0.0, -3.25, 117.0])
        )
        path = tmp_path / "t.tsv"
        write_trace(path, trace)
        back = read_trace(path)
        assert [(m.bits, g, lbf) for m, g, lbf in back] == [
            (0, 1.0, 0.0), (5, 2.5, -3.25), (1023, 1e6, 117.0)
        ]

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
