"""Labeled arrays, flat tables vs a nested-loop oracle, LaTeX, and CSV."""

import csv
import io
import itertools
import math
import random

import numpy as np
import pytest

from conftest import float_bits, poly_study, random_store, tiny_varlist

from mcgrid import (LabeledArray, array2df, collapse, ftable, get_array,
                    latex_escape, run_study, to_csv, to_latex_table,
                    varlist_to_latex)
from mcgrid.analysis import _cell_str


def mk_arr(sizes, names=None):
    names = names or [f"v{k}" for k in range(len(sizes))]
    dims = tuple((names[k], tuple(f"L{j}" for j in range(sizes[k])))
                 for k in range(len(sizes)))
    data = np.arange(math.prod(sizes), dtype=float).reshape(sizes)
    return LabeledArray(dims=dims, data=data)


class TestLabeledArray:
    def test_axis_and_labels(self):
        arr = mk_arr([2, 3])
        assert arr.axis("v1") == 1
        assert arr.labels("v1") == ("L0", "L1", "L2")
        with pytest.raises(KeyError):
            arr.axis("nope")

    def test_slice_drops_dimension(self):
        arr = mk_arr([2, 3])
        s = arr.slice("v0", "L1")
        assert s.dim_names == ("v1",)
        assert np.array_equal(s.data, arr.data[1])

    def test_slice_to_scalar(self):
        arr = mk_arr([2])
        s = arr.slice("v0", "L1")
        assert s.dims == ()
        assert s.data[()] == 1.0
        words = LabeledArray(dims=(("v0", ("L0", "L1")),),
                             data=np.array(["a", "bc"], dtype=object))
        s = words.slice("v0", "L1")
        assert s.dims == () and s.data.shape == () and s.data.dtype == object
        assert s.data[()] == "bc"

    def test_slice_unknown_label(self):
        with pytest.raises(KeyError):
            mk_arr([2]).slice("v0", "L9")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LabeledArray(dims=(("a", ("x",)),), data=np.zeros(2))


class TestCollapse:
    def test_mean_collapse(self):
        arr = mk_arr([2, 4])
        out = collapse(arr, "v1", np.mean)
        assert out.dim_names == ("v0",)
        assert np.allclose(out.data, arr.data.mean(axis=1))

    def test_string_cells_not_truncated(self):
        arr = mk_arr([2, 3])
        out = collapse(arr, "v1", lambda m, axis: [f"{v.mean():.1f} ({v.std():.1f})" * 3
                                                   for v in m])
        assert out.data.dtype == object
        assert all(len(s) > 20 for s in out.data.ravel())

    def test_float_sums_are_each_cells_own_sum(self):
        # collapsing a leading dim sees each cell's values strided; a row
        # must still be summed as its own 1-D array is (pairwise)
        arr = mk_arr([40, 6, 12])
        arr.data = np.random.default_rng(4).random((40, 6, 12)) * 1000
        for name in ("v0", "v1", "v2"):
            ax = arr.axis(name)
            cells = np.moveaxis(arr.data, ax, -1).reshape(-1, arr.data.shape[ax])
            got = collapse(arr, name, np.sum).data
            assert float_bits(got.ravel()) == float_bits([v.sum() for v in cells])

    def test_collapse_last_remaining_dim(self):
        arr = mk_arr([4])
        out = collapse(arr, "v0", np.sum)
        assert out.dims == () and out.data[()] == 6.0


class TestGetArray:
    def setup_method(self):
        self.store = run_study(tiny_varlist(n_sim=2), poly_study)

    def test_value_layout(self):
        arr = get_array(self.store, "value")
        assert arr.dim_names == ("p", "a", "b", "n.sim")
        # direct recomputation at a handful of coordinates
        assert arr.slice("p", "1.0").slice("a", "2").slice("b", "10") \
                  .slice("n.sim", "2").data[()] == 2 * 10 * 1.0 + 100

    def test_error_indicator_and_err_value(self):
        def fragile(params, rng, warn):
            if params["a"] == 2:
                raise RuntimeError("no")
            return np.array([1.0, 2.0, 3.0])

        store = run_study(tiny_varlist(n_sim=2), fragile)
        err = get_array(store, "error")
        assert err.data.dtype == bool
        assert err.dim_names == ("a", "b", "n.sim")
        want = np.zeros((2, 2, 2), dtype=bool)
        want[1, :, :] = True
        assert np.array_equal(err.data, want)
        val = get_array(store, "value", err_value=-7.5)
        assert (val.slice("a", "2").data == -7.5).all()
        assert (val.slice("a", "1").data != -7.5).all()

    def test_warning_indicator_and_map_fn(self):
        def warny(params, rng, warn):
            if params["b"] == 20:
                warn("w1")
                warn("w2")
            return np.array([0.0, 0.0, 0.0])

        store = run_study(tiny_varlist(n_sim=2), warny)
        ind = get_array(store, "warning")
        assert np.array_equal(ind.slice("b", "20").data, np.ones((2, 2), bool))
        assert not ind.slice("b", "10").data.any()
        counts = get_array(store, "warning", map_fn=lambda r: len(r.warnings))
        assert (counts.slice("b", "20").data == 2).all()

    def test_time_component(self):
        t = get_array(self.store, "time")
        assert t.data.dtype == float
        assert (t.data >= 0).all() and np.isfinite(t.data).all()


def get_array_by_records(store, component, err_value, cell):
    """Reference for get_array: one loop over the store's records."""
    recs = store.records
    if component == "value":
        inner = store.value.shape[:-1]
        data = np.full(inner + (len(recs),), err_value)
        for i, rec in enumerate(recs):
            if rec.value is not None:
                data[..., i] = rec.value
        return data.reshape(inner + store.sizes, order="F")
    return np.array([cell(r) for r in recs]).reshape(store.sizes, order="F")


@pytest.mark.parametrize("seed", range(20))
def test_get_array_matches_record_loop(seed):
    store = random_store(random.Random(seed))
    cases = [("value", None, None), ("error", None, lambda r: r.error is not None),
             ("warning", None, lambda r: len(r.warnings) > 0),
             ("warning", lambda r: len(r.warnings), lambda r: len(r.warnings)),
             ("time", None, lambda r: r.time_ms)]
    for component, map_fn, cell in cases:
        got = get_array(store, component, map_fn=map_fn, err_value=-2.5)
        want = get_array_by_records(store, component, -2.5, cell)
        assert got.data.dtype == want.dtype
        assert np.array_equal(got.data, want, equal_nan=True), component


class TestArray2df:
    def test_first_dim_fastest(self):
        arr = mk_arr([2, 2])
        df = array2df(arr)
        assert df.columns == ("v0", "v1", "value")
        assert [r[:2] for r in df.rows] == [
            ("L0", "L0"), ("L1", "L0"), ("L0", "L1"), ("L1", "L1")]
        assert [r[2] for r in df.rows] == [0.0, 2.0, 1.0, 3.0]

    @pytest.mark.parametrize("arr", [
        mk_arr([2, 3, 4]),
        LabeledArray(dims=(("p", ("a", "b")), ("q", ("x", "y", "z"))),
                     data=np.array([[p + q for q in "xyz"] for p in "ab"], dtype=object)),
    ], ids=["3d", "strings"])
    def test_rows_match_indices_sorted_first_dim_fastest(self, arr):
        want = []
        for idx in sorted(np.ndindex(arr.data.shape), key=lambda t: t[::-1]):
            cell = arr.data[idx]
            want.append(tuple(arr.dims[k][1][i] for k, i in enumerate(idx))
                        + (cell.item() if isinstance(cell, np.generic) else cell,))
        rows = array2df(arr).rows
        assert rows == want
        assert [type(r[-1]) for r in rows] == [type(w[-1]) for w in want]

    def test_full_study_row_count(self):
        arr = get_array(run_study(tiny_varlist(3), poly_study))
        df = array2df(arr)
        assert len(df.rows) == 3 * 2 * 2 * 3
        assert len(df.columns) == 5


def ftable_oracle(arr, row_vars, col_vars):
    """Independent nested-loop layout: body cells, labels with suppression."""
    row_levels = [arr.labels(v) for v in row_vars]
    col_levels = [arr.labels(v) for v in col_vars]
    body = []
    prev = None
    for combo in itertools.product(*[range(len(l)) for l in row_levels]):
        # itertools.product iterates the LAST position fastest, as required
        labels = []
        for k in range(len(combo)):
            changed = prev is None or any(prev[j] != combo[j] for j in range(k + 1))
            labels.append(row_levels[k][combo[k]] if changed else "")
        cells = []
        for ccombo in itertools.product(*[range(len(l)) for l in col_levels]):
            index = {v: i for v, i in zip(row_vars, combo)}
            index.update({v: i for v, i in zip(col_vars, ccombo)})
            full = tuple(index[name] for name in arr.dim_names)
            cells.append(_cell_str(arr.data[full]))
        body.append(labels + cells)
        prev = combo
    return body


def breaks_oracle(arr, row_vars):
    row_levels = [arr.labels(v) for v in row_vars]
    combos = list(itertools.product(*[range(len(l)) for l in row_levels]))
    breaks = []
    for i in range(1, len(combos)):
        for k in range(len(row_vars)):
            if combos[i][k] != combos[i - 1][k]:
                if k < len(row_vars) - 1:
                    breaks.append((i - 1, k + 1))
                break
    return breaks


def all_splits(names):
    """Every ordered (row_vars, col_vars) partition with both sides nonempty."""
    out = []
    names = list(names)
    for r_size in range(1, len(names)):
        for r_set in itertools.combinations(names, r_size):
            rest = [n for n in names if n not in r_set]
            for r_perm in itertools.permutations(r_set):
                for c_perm in itertools.permutations(rest):
                    out.append((r_perm, c_perm))
    return out


class TestFtableAgainstOracle:
    def test_exhaustive_small_arrays(self):
        counter = 0
        for ndim in (2, 3, 4):
            for sizes in itertools.product((1, 2, 3), repeat=ndim):
                arr = mk_arr(list(sizes))
                for row_vars, col_vars in all_splits(arr.dim_names):
                    ft = ftable(arr, row_vars, col_vars)
                    assert ft.body == ftable_oracle(arr, row_vars, col_vars), \
                        (sizes, row_vars, col_vars)
                    assert ft.row_group_breaks == breaks_oracle(arr, row_vars)
                    counter += 1
        assert counter > 5000

    def test_header_group_labels_and_spans(self):
        arr = mk_arr([2, 2, 3], names=["r", "c1", "c2"])
        ft = ftable(arr, ["r"], ["c1", "c2"])
        assert ft.header_rows[0][0] == "c1"
        assert ft.header_rows[0][1:] == ["L0", "", "", "L1", "", ""]
        assert ft.header_rows[1][1:] == ["L0", "L1", "L2"] * 2
        assert ft.spans == [(0, 1, 3), (0, 4, 6)]

    def test_validation(self):
        arr = mk_arr([2, 2])
        with pytest.raises(ValueError):
            ftable(arr, ["v0", "v1"], [])
        with pytest.raises(ValueError):
            ftable(arr, ["v0"], ["v0"])
        with pytest.raises(ValueError):
            ftable(arr, ["v0"], ["v1", "v1"])
        arr3 = mk_arr([2, 2, 2])
        with pytest.raises(ValueError):
            ftable(arr3, ["v0"], ["v1"])  # v2 unplaced


class TestCellStr:
    def test_bools_render_upper(self):
        assert _cell_str(True) == "TRUE"
        assert _cell_str(np.False_) == "FALSE"

    def test_integral_floats_lose_point(self):
        assert _cell_str(3.0) == "3"
        assert _cell_str(np.float64(-2.0)) == "-2"

    def test_fractional_floats_roundtrip(self):
        assert _cell_str(0.1) == "0.1"
        assert float(_cell_str(1 / 3)) == 1 / 3

    def test_nan(self):
        assert _cell_str(float("nan")) == "NaN"

    def test_infinities_use_the_store_tags(self):
        assert _cell_str(math.inf) == "Inf"
        assert _cell_str(-math.inf) == "-Inf"
        assert _cell_str(np.float64(-np.inf)) == "-Inf"
        assert _cell_str(np.float32(np.inf)) == "Inf"

    def test_strings_pass(self):
        assert _cell_str("3.9 (0.2)") == "3.9 (0.2)"


class TestLatex:
    def test_escape(self):
        assert latex_escape("a_b & 5% #x") == r"a\_b \& 5\% \#x"
        assert latex_escape("{x}") == r"\{x\}"

    def test_table_structure(self):
        arr = mk_arr([2, 2, 2, 2], names=["f", "g", "t", "a"])
        ft = ftable(arr, ["f", "g"], ["t", "a"])
        text = to_latex_table(ft, labels={"t": "$\\tau$"}, caption="Cap",
                              tag="tab:x", fontsize="scriptsize")
        assert "\\begin{tabular}{*{2}{l}*{4}{r}}" in text
        assert "\\cmidrule(lr){3-4} \\cmidrule(lr){5-6}" in text
        assert "\\( \\tau \\)" in text
        assert "\\textbar\\" in text
        assert "\\caption{Cap}" in text and "\\label{tab:x}" in text
        assert "\\centering\\scriptsize" in text
        assert "\\addlinespace[6pt]" in text  # after the f-group boundary

    def test_varlist_caption_and_label_close_the_table(self):
        lines = varlist_to_latex(tiny_varlist(), caption="Variables", tag="tab:vars").splitlines()
        assert lines[-3:] == ["  \\caption{Variables}", "  \\label{tab:vars}",
                              "\\end{table}"]
        assert lines[-5:-3] == ["    \\bottomrule", "  \\end{tabular}"]

    def test_addlinespace_tiers(self):
        arr = mk_arr([2, 2, 2, 2], names=["o", "m", "i", "c"])
        ft = ftable(arr, ["o", "m", "i"], ["c"])
        text = to_latex_table(ft)
        spaced = [l for l in text.splitlines() if "addlinespace" in l]
        # 8 body rows; innermost (i) changes draw no space, so the breaks sit
        # after rows 1 (m, 3pt), 3 (o, 6pt), 5 (m, 3pt)
        assert len(spaced) == 3
        assert "[3pt]" in spaced[0] and "[6pt]" in spaced[1] and "[3pt]" in spaced[2]


class TestCsv:
    def test_flat_table_csv_parses_back(self):
        arr = mk_arr([2, 3], names=["r", "c"])
        ft = ftable(arr, ["r"], ["c"])
        text = to_csv(ft)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["c", "L0", "L1", "L2"]
        assert rows[1] == ["r", "", "", ""]
        assert rows[2] == ["L0", "0", "1", "2"]
        assert rows[3] == ["L1", "3", "4", "5"]

    def test_quoting_of_commas_and_quotes(self):
        arr = LabeledArray(dims=(("x", ('a,b', 'q"t')),),
                           data=np.array([1.0, 2.0]))
        df = array2df(arr)
        text = to_csv(df)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1] == ["a,b", "1"]
        assert rows[2] == ['q"t', "2"]

    def test_crlf_line_endings(self):
        arr = mk_arr([2])
        assert "\r\n" in to_csv(array2df(arr))
