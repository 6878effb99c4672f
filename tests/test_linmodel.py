import numpy as np
import pytest

from modelspace import (
    DataError,
    FitState,
    SingularModelError,
    bit_indices,
    expand_design,
    fit_model,
    load_csv,
    make_dataset,
    sse_direct,
)
from modelspace.linmodel import bits_array
from conftest import duplicated_column_dataset, standin_dataset, synth_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_row_example(self, tmp_path):
        # a byte-order mark, as Excel's "CSV UTF-8" writes, is not part of
        # the first column's name
        for bom in ("", "\ufeff"):
            path = write(tmp_path, bom + "y,x1\n1,0\n2,1\n3,2\n")
            data = load_csv(path, "y")
            assert data.N == 3
            assert data.p == 1
            assert data.ybar == 2.0
            assert data.sse0 == 2.0
            assert load_csv(path, "x1").names == ["y"]

    def test_constant_column_dropped(self, tmp_path):
        data = load_csv(write(tmp_path, "y,x1,x2\n1,0,5\n2,1,5\n3,2,5\n"), "y")
        assert data.p == 1
        assert data.names == ["x1"]
        assert data.dropped == ["x2"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write(tmp_path, "y,x1\n1,0\n2,oops\n3,2\n")
        with pytest.raises(DataError, match=r":3:.*x1"):
            load_csv(path, "y")

    @pytest.mark.parametrize(
        "text, message",
        [("y,x1\n1,0\n\n2,inf\n3\n", ":4: non-finite value in column 'x1'"),
         ("y,x1\n1,0\n2\n3,oops\n", ":3: expected 2 cells"),
         ("y,x1,x2\n1,0\n2,1\n3,2\n", ":2: expected 3 cells"),
         ("y,x1\n1,0\n2,nan\n3,x\n", ":3: non-finite value in column 'x1'")],
        ids=["non-finite-before-short-row", "short-row-before-text",
             "every-row-short", "nan"],
    )
    def test_first_bad_cell_in_file_order(self, tmp_path, text, message):
        # blank lines keep their numbers; the earliest fault is the one named
        with pytest.raises(DataError) as err:
            load_csv(write(tmp_path, text), "y")
        assert str(err.value).endswith(message)

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = ["1_0", " 1.5", "٣", "-2e-3", "7"]
        text = "y,x1\n" + "".join(f"{c},{j}\n" for j, c in enumerate(cells))
        data = load_csv(write(tmp_path, text), "y")
        assert data.y.tolist() == [float(c) for c in cells]

    def test_non_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes("y,x1\n1,0\n2,1\n3,2\n".encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        with pytest.raises(DataError, match="utf16.csv: not UTF-8 text"):
            load_csv(path, "y")

    def test_constant_response(self, tmp_path):
        with pytest.raises(DataError, match="constant response"):
            load_csv(write(tmp_path, "y,x1\n2,0\n2,1\n2,2\n"), "y")

    def test_missing_response_column(self, tmp_path):
        with pytest.raises(DataError, match="no column named"):
            load_csv(write(tmp_path, "y,x1\n1,0\n2,1\n3,2\n"), "z")

    def test_near_saturation_warning(self, tmp_path, caplog):
        text = "y," + ",".join(f"x{j}" for j in range(4)) + "\n"
        rng = np.random.default_rng(0)
        for _ in range(6):
            text += ",".join(str(v) for v in rng.standard_normal(5)) + "\n"
        with caplog.at_level("WARNING"):
            load_csv(write(tmp_path, text), "y")
        assert any("saturation" in r.message for r in caplog.records)


class TestExpandDesign:
    def test_counts(self):
        data = synth_dataset(N=60, p=10, seed=5)
        for m, expected in [(7, 35), (10, 65), (1, 2)]:
            mains = [f"x{j}" for j in range(m)]
            assert expand_design(data, mains).p == expected

    def test_naming_convention(self):
        data = synth_dataset(N=30, p=3, seed=5)
        out = expand_design(data, ["x0", "x2"])
        assert out.names == ["x0", "x2", "x0x0", "x2x2", "x0x2"]

    def test_values(self):
        data = synth_dataset(N=30, p=3, seed=5)
        out = expand_design(data, ["x0", "x1"])
        x0 = data.X[:, 0]
        x1 = data.X[:, 1]
        np.testing.assert_allclose(out.X[:, out.names.index("x0x0")], x0 * x0)
        np.testing.assert_allclose(out.X[:, out.names.index("x0x1")], x0 * x1)

    def test_unknown_main(self):
        data = synth_dataset(N=30, p=3, seed=5)
        with pytest.raises(DataError, match="unknown"):
            expand_design(data, ["x9"])

    def test_empty_mains(self):
        data = synth_dataset(N=30, p=3, seed=5)
        with pytest.raises(DataError):
            expand_design(data, [])


class _ReferenceFitState(FitState):
    """FitState with a reference arithmetic for its update and clamp: the
    pivot row copied and divided twice, and builtin min/max. Counts the
    ``flip_sse`` results the clamp changed."""

    def __init__(self, data):
        super().__init__(data)
        self.clamped = 0

    def flip_sse(self, i):
        d = self.D[i]
        if (self.bits >> i) & 1:
            if self.k == 1:
                return self.data.sse0
        elif self.k >= self._kmax or d <= self._tiny[i]:
            return None
        c = self.C[i]
        raw = self.sse - c * c / d
        sse = min(max(raw, 0.0), self.data.sse0)
        self.clamped += sse != raw
        return sse

    def _sweep(self, i):
        drop = (self.bits >> i) & 1
        self.bits ^= 1 << i
        self.k += -1 if drop else 1
        M = self.M
        if not self.k:
            np.copyto(M, self._M0)
            return
        col = M[i].copy()
        h = col[i]
        M -= np.multiply.outer(col, col / h)
        col /= -h if drop else h
        col[i] = -1.0 / h
        M[i] = col
        M[:, i] = col


def _exact_fit():
    # y in the span of three columns: SSEs near 0 round either side of it
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 6))
    return make_dataset(X[:, :3].sum(axis=1), X, [f"x{j}" for j in range(6)])


def _hex(sse):
    return None if sse is None else sse.hex()


class TestFitState:
    @pytest.mark.parametrize(
        "build",
        [lambda: standin_dataset(20), duplicated_column_dataset, _exact_fit],
        ids=["standin", "duplicated-column", "exact-fit"],
    )
    def test_flips_match_the_reference_arithmetic(self, build):
        # the sweep's flips, add(j, sse) and delete(j, sse), against the
        # reference's add(j) and delete(j), bit for bit after every flip
        data = build()
        state, ref = FitState(data), _ReferenceFitState(data)
        rng = np.random.default_rng(29)
        for _ in range(300):
            j = int(rng.integers(data.p))
            sse = state.flip_sse(j)
            if (state.bits >> j) & 1:
                state.delete(j, sse)
                ref.delete(j)
            else:
                assert state.add(j, sse) == ref.add(j)
            assert (state.bits, state.k, state.sse.hex()) == (ref.bits, ref.k, ref.sse.hex())
            assert state.M.tobytes() == ref.M.tobytes()
            assert np.array(state.D).tobytes() == np.array(ref.D).tobytes()
            assert np.array(state.C).tobytes() == np.array(ref.C).tobytes()
            assert [_hex(state.flip_sse(i)) for i in range(data.p)] == [
                _hex(ref.flip_sse(i)) for i in range(data.p)
            ]
        if build is _exact_fit:
            assert ref.clamped > 0

    def test_fit_empty(self):
        data = make_dataset([1.0, 2.0, 3.0], [[0.0], [1.0], [2.5]], ["x"])
        state = FitState(data)
        assert state.sse == data.sse0 == 2.0
        assert state.bits == 0
        assert state.k == 0

    def test_add_then_delete_roundtrip(self, p10_data):
        state = FitState(p10_data)
        for j in (1, 4, 7):
            state.add(j)
        before = state.sse
        state.add(3)
        state.delete(3)
        assert state.sse == pytest.approx(before, rel=1e-8)
        assert state.bits == 0b10010010

    def test_orthogonal_column_leaves_sse(self):
        rng = np.random.default_rng(11)
        N = 30
        X = rng.standard_normal((N, 3))
        y = X[:, 0] + rng.standard_normal(N)
        # make column 2 orthogonal (centered) to y and to columns 0, 1
        z = rng.standard_normal(N)
        basis = np.column_stack(
            [np.ones(N), y - y.mean(), X[:, 0] - X[:, 0].mean(), X[:, 1] - X[:, 1].mean()]
        )
        z -= basis @ np.linalg.lstsq(basis, z, rcond=None)[0]
        X[:, 2] = z
        data = make_dataset(y, X, ["a", "b", "c"])
        state = FitState(data)
        state.add(0)
        state.add(1)
        before = state.sse
        state.add(2)
        assert state.sse == pytest.approx(before, rel=1e-8)

    def test_add_matches_full_refit(self):
        data = synth_dataset(N=20, p=5, active=(0, 2), betas=(1.0, -1.0), seed=9)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            cols = list(rng.permutation(5)[: rng.integers(1, 6)])
            state = FitState(data)
            for j in cols:
                state.add(int(j))
            ref = sse_direct(data, state.bits)
            assert state.sse == pytest.approx(ref, rel=1e-8, abs=1e-8 * data.sse0)

    def test_delete_matches_full_refit(self):
        data = synth_dataset(N=25, p=6, seed=13)
        rng = np.random.default_rng(2)
        for _ in range(300):
            cols = list(rng.permutation(6)[: rng.integers(2, 7)])
            state = FitState(data)
            for j in cols:
                state.add(int(j))
            victim = int(cols[rng.integers(len(cols))])
            state.delete(victim)
            ref = sse_direct(data, state.bits)
            assert state.sse == pytest.approx(ref, rel=1e-8, abs=1e-8 * data.sse0)

    def test_delete_only_variable_restores_empty(self, p10_data):
        state = FitState(p10_data)
        state.add(5)
        state.delete(5)
        assert state.k == 0
        assert state.bits == 0
        assert abs(state.sse - p10_data.sse0) <= 1e-10 * p10_data.sse0

    def test_pure_wrappers(self, p10_data):
        # each fit_model call builds its own state: adds and deletes on one
        # leave the others untouched
        s0 = fit_model(p10_data, 0)
        s1 = fit_model(p10_data, 0b100)
        assert s1.add(5)
        assert s0.k == 0 and s1.k == 2
        s2 = fit_model(p10_data, 0b100)
        s2.delete(2)
        assert s1.k == 2 and s2.k == 0
        assert s0.sse == p10_data.sse0

    def test_singular_add(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 4))
        X[:, 3] = X[:, 0]  # duplicate
        y = X[:, 1] + rng.standard_normal(20)
        data = make_dataset(y, X, list("abcd"))
        state = FitState(data)
        assert state.add(0)
        assert not state.add(3)
        assert state.k == 1  # failed add leaves the state untouched
        with pytest.raises(SingularModelError, match="model 9 is rank-deficient"):
            fit_model(data, 0b1001)

    def test_path_independence(self):
        data = synth_dataset(N=30, p=8, seed=21)
        rng = np.random.default_rng(3)
        target = [0, 2, 5, 7]
        refs = []
        for _ in range(20):
            state = FitState(data)
            # random interleaving of adds and spurious add/delete pairs
            order = list(rng.permutation(target))
            extras = list(rng.permutation([1, 3, 6]))
            for j in order:
                state.add(int(j))
            for j in extras:
                state.add(int(j))
            for j in extras:
                state.delete(int(j))
            refs.append(state.sse)
        assert max(refs) - min(refs) <= 1e-8 * data.sse0

    def test_random_walk_agreement(self):
        data = synth_dataset(N=40, p=12, seed=31)
        rng = np.random.default_rng(8)
        state = FitState(data)
        worst = 0.0
        for step in range(10_000):
            j = int(rng.integers(12))
            if state.bits >> j & 1:
                state.delete(j)
            else:
                if state.k >= data.N - 2:
                    continue
                state.add(j)
            if step % 5 == 0:
                ref = sse_direct(data, state.bits)
                worst = max(worst, abs(state.sse - ref) / data.sse0)
        assert worst <= 1e-8

    def test_monotonicity_nested_models(self):
        data = synth_dataset(N=40, p=6, seed=41)
        for bits in range(1 << 6):
            sse = fit_model(data, bits).sse
            for j in range(6):
                if not (bits >> j) & 1:
                    bigger = fit_model(data, bits | 1 << j)
                    assert bigger.sse <= sse + 1e-12 * data.sse0


class TestBitIndices:
    def test_ascending_columns(self):
        assert bit_indices(0) == []
        assert bit_indices(0b100101) == [0, 2, 5]

    def test_trace_elements(self):
        # a trace holds int64 up to p = 63 and Python ints above
        narrow = bits_array([0b100101, (1 << 63) - 1])
        wide = bits_array([1 << 70 | 0b101])
        assert narrow.dtype == np.int64 and wide.dtype == object
        assert bit_indices(narrow[0]) == [0, 2, 5]
        assert bit_indices(narrow[1]) == list(range(63))
        assert bit_indices(wide[0]) == [0, 2, 70]


class TestSseDirect:
    def test_null_model(self, p10_data):
        assert sse_direct(p10_data, 0) == p10_data.sse0

    def test_exact_interpolation(self):
        # y constructed inside span(intercept, columns) -> SSE 0
        rng = np.random.default_rng(6)
        N = 12
        X = rng.standard_normal((N, N - 2))
        y = 3.0 + X @ rng.standard_normal(N - 2)
        data = make_dataset(y, X, [f"x{j}" for j in range(N - 2)])
        full = (1 << (N - 2)) - 1
        assert sse_direct(data, full) <= 1e-8 * data.sse0

    def test_matches_chained_adds_exhaustively(self):
        data = synth_dataset(N=30, p=7, seed=51)
        for bits in range(1 << 7):
            state = fit_model(data, bits)
            assert state.sse == pytest.approx(
                sse_direct(data, bits), rel=1e-8, abs=1e-8 * data.sse0
            )

    def test_rank_deficient_reports_columns(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 3))
        X[:, 2] = X[:, 0] - X[:, 1]
        y = X[:, 0] + rng.standard_normal(20)
        data = make_dataset(y, X, ["a", "b", "c"])
        with pytest.raises(DataError, match="rank-deficient"):
            sse_direct(data, 0b111)

    def test_oversaturated_rejected(self):
        data = synth_dataset(N=6, p=5, seed=61)
        with pytest.raises(DataError, match="excluded"):
            sse_direct(data, 0b11111)
        # the incremental fit refuses the same model
        with pytest.raises(SingularModelError):
            fit_model(data, 0b11111)


def test_dataset_digest_tracks_content():
    d1 = synth_dataset(N=20, p=4, seed=1)
    d2 = synth_dataset(N=20, p=4, seed=1)
    d3 = synth_dataset(N=20, p=4, seed=2)
    assert d1.digest() == d2.digest()
    assert d1.digest() != d3.digest()


def test_centering_invariant(p10_data):
    centered = p10_data.Xc
    assert np.abs(centered.mean(axis=0)).max() < 1e-12
