"""Box statistics and the SVG conditioning-plot renderer."""

import itertools
import math
import re
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import boxplot_stats_cell, float_bits, report_matrices, tiny_varlist
from light_studies import poly_study

from mcgrid import (LabeledArray, PlotSpec, boxplot_stats, get_array,
                    mayplot_svg, run_study)
from mcgrid.plot import GAP, MARGIN_L, PALETTE, PANEL_W

DATA = Path(__file__).parent / "data"

# facet rows b, x levels, replications; the first cell of b=1 has no positive
# value and the first cell of b=2 has no finite one
MIXED = LabeledArray(
    dims=(("b", ("1", "2")), ("x", ("1", "2")), ("rep", ("1", "2", "3", "4"))),
    data=np.array([[[math.nan, math.inf, 0.0, -1.0], [2.0, -math.inf, 3.0, 5.0]],
                   [[math.nan, math.nan, -math.inf, math.inf], [0.0, -2.0, 4.0, 1.0]]]))


class TestBoxplotStats:
    def test_simple_case_no_outliers(self):
        st = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert st.median == 3.0
        assert st.q1 == 2.0 and st.q3 == 4.0  # type-7 quartiles
        assert st.whisker_lo == 1.0 and st.whisker_hi == 5.0
        assert st.outliers == ()

    def test_outlier_detached_from_whisker(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
        st = boxplot_stats(data)
        assert st.outliers == (100.0,)
        assert st.whisker_hi == 5.0  # furthest point within 1.5 IQR of the box

    def test_whisker_is_a_data_point(self):
        data = [0.0, 10.0, 11.0, 12.0, 13.0, 14.0, 30.0]
        st = boxplot_stats(data)
        assert st.whisker_lo in data and st.whisker_hi in data

    def test_low_outliers(self):
        st = boxplot_stats([-50.0, 10.0, 11.0, 12.0, 13.0, 14.0])
        assert st.outliers == (-50.0,)

    def test_nonfinite_dropped(self):
        st = boxplot_stats([1.0, 2.0, 3.0, math.nan, math.inf])
        assert st.median == 2.0

    def test_all_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([math.nan])

    @given(report_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_one_cell_code(self, x):
        def fields(st):
            return st and (st.median, st.q1, st.q3, st.whisker_lo, st.whisker_hi,
                           *st.outliers)

        boxes = [fields(st) for st in boxplot_stats(x)]
        # equal, not bit for bit: which of -0.0 and 0.0 numpy's min and max
        # return as a whisker depends on where the zeros sit in the array
        assert boxes == [boxplot_stats_cell(v) for v in x]
        got = [st and float_bits(st) for st in boxes]
        for v, want in zip(x, got):
            if want is None:
                with pytest.raises(ValueError, match="no finite values"):
                    boxplot_stats(v)
            else:
                assert float_bits(fields(boxplot_stats(v))) == want

    def test_matches_numpy_quartiles(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        st = boxplot_stats(x)
        q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
        assert st.q1 == pytest.approx(q1) and st.q3 == pytest.approx(q3)
        assert st.median == pytest.approx(med)


@pytest.fixture(scope="module")
def study_array():
    store = run_study(tiny_varlist(n_sim=6), poly_study)
    return get_array(store, "value")


class TestMayplotSvg:
    def test_well_formed_xml(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b",
                                                cols=None))
        xml.dom.minidom.parseString(svg)

    def test_deterministic_bytes(self, study_array):
        spec = PlotSpec(x="p", series="a", rows="b")
        assert mayplot_svg(study_array, spec) == mayplot_svg(study_array, spec)

    def test_facet_grid_panels(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b"))
        assert len(re.findall(r'id="bg-', svg)) == 2  # b has two levels
        svg2 = mayplot_svg(study_array, PlotSpec(x="p", rows="a", cols="b"))
        assert len(re.findall(r'id="bg-', svg2)) == 4

    def test_auto_kind_boxes_with_replications(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b"))
        assert '<rect' in svg and 'class="data"' in svg
        assert "<polyline" not in svg

    def test_auto_kind_lines_without_replications(self, study_array):
        sliced = study_array.slice("n.sim", "1")
        svg = mayplot_svg(sliced, PlotSpec(x="p", series="a", rows="b"))
        assert "<polyline" in svg

    def test_box_kind_requires_replication_dim(self, study_array):
        sliced = study_array.slice("n.sim", "1")
        with pytest.raises(ValueError):
            mayplot_svg(sliced, PlotSpec(x="p", series="a", rows="b",
                                         panel_kind="box"))

    def test_two_leftover_dims_rejected(self, study_array):
        with pytest.raises(ValueError):
            mayplot_svg(study_array, PlotSpec(x="p"))

    def test_unknown_variable_rejected(self, study_array):
        with pytest.raises(KeyError):
            mayplot_svg(study_array, PlotSpec(x="zzz", series="a", rows="b"))

    def test_duplicate_roles_rejected(self, study_array):
        with pytest.raises(ValueError):
            mayplot_svg(study_array, PlotSpec(x="p", series="p", rows="b"))

    def test_replication_strip_label(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b"))
        assert "n.sim = 6" in svg

    def test_facet_strip_labels(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="n.sim",
                                                rows="a", cols="b"))
        assert "a = 1" in svg and "a = 2" in svg
        assert "b = 10" in svg and "b = 20" in svg

    def test_data_marks_clipped_to_panels(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b"))
        assert svg.count("<clipPath") == 2
        assert 'clip-path="url(#panel-0-0)"' in svg
        assert 'clip-path="url(#panel-1-0)"' in svg

    def test_no_external_references(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b"))
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_log_y_ticks_at_decades(self):
        dims = (("x", ("1", "2")), ("rep", tuple(str(i) for i in range(1, 9))))
        data = np.array([[1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 40.0, 3.0],
                         [5.0, 50.0, 500.0, 5000.0, 2.0, 20.0, 200.0, 2000.0]])
        arr = LabeledArray(dims=dims, data=data)
        svg = mayplot_svg(arr, PlotSpec(x="x", log_y=True))
        for lab in (">10<", ">100<", ">1000<"):
            assert lab in svg

    def test_nonfinite_dropped_with_annotation(self):
        dims = (("x", ("1", "2")), ("rep", ("1", "2", "3", "4")))
        data = np.array([[1.0, 2.0, math.nan, 4.0],
                         [2.0, math.inf, 3.0, 5.0]])
        arr = LabeledArray(dims=dims, data=data)
        svg = mayplot_svg(arr, PlotSpec(x="x"))
        assert "dropped: 2" in svg
        for ylim in ("global", "local"):
            svg = mayplot_svg(MIXED, PlotSpec(x="x", rows="b", ylim=ylim))
            assert "dropped: 7" in svg
            assert svg.count('fill-opacity="0.4"') == 3  # boxes of the kept cells

    def test_log_y_drops_nonpositive(self):
        dims = (("x", ("1",)), ("rep", ("1", "2", "3", "4")))
        data = np.array([[1.0, -2.0, 0.0, 4.0]])
        arr = LabeledArray(dims=dims, data=data)
        svg = mayplot_svg(arr, PlotSpec(x="x", log_y=True))
        assert "dropped: 2" in svg
        for ylim in ("global", "local"):
            svg = mayplot_svg(MIXED, PlotSpec(x="x", rows="b", ylim=ylim, log_y=True))
            assert "dropped: 11" in svg
            assert svg.count('fill-opacity="0.4"') == 2

    def test_local_ylim_differs_from_global(self, study_array):
        g = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b",
                                              ylim="global"))
        l = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b",
                                              ylim="local"))
        assert g != l

    def test_bad_ylim_rejected(self, study_array):
        with pytest.raises(ValueError):
            mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b",
                                              ylim="weird"))

    def test_legend_lists_series_levels(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b"))
        assert ">a:<" in svg
        assert ">1<" in svg and ">2<" in svg

    def test_coordinates_have_two_decimals(self, study_array):
        svg = mayplot_svg(study_array, PlotSpec(x="p", series="a", rows="b"))
        m = re.search(r'<rect x="([-0-9.]+)"', svg)
        assert m and re.fullmatch(r"-?\d+\.\d\d", m.group(1))


def permuted(arr, order):
    """The same labeled array with its dims stored in ``order``."""
    return LabeledArray(dims=tuple(arr.dims[k] for k in order),
                        data=np.transpose(arr.data, order))


def role_assignments(names):
    """Every way to put ``names`` on distinct plot roles with x among them."""
    for roles in itertools.permutations(ROLES, len(names)):
        if "x" in roles:
            yield dict(zip(roles, names))


ROLES = ("rows", "cols", "x", "series")
GRID = (("a", ("a0", "a1")), ("b", ("b0", "b1", "b2")), ("c", ("c0", "c1", "c2", "c3")))
REP = ("rep", ("1", "2", "3"))


def data_boxes(svg):
    """(panel, box centre x, fill) of every box body, by its clip group."""
    boxes = []
    for panel, group in re.findall(r'<g clip-path="url\(#panel-(\d+-\d+)\)">(.*?)</g>',
                                   svg, flags=re.S):
        for x, w, fill in re.findall(r'<rect x="([-0-9.]+)" y="[-0-9.]+" '
                                     r'width="([-0-9.]+)" height="[-0-9.]+" '
                                     r'fill="(#[0-9A-F]+)" fill-opacity="0.4"', group):
            boxes.append((panel, float(x) + float(w) / 2, fill))
    return boxes


class TestPlacement:
    def test_one_finite_cell_lands_in_its_panel_slot_and_series(self):
        sizes = [len(labels) for _, labels in GRID]
        n_checked = 0
        for cell in itertools.product(*map(range, sizes)):
            data = np.full(sizes + [3], np.nan)
            data[cell] = [1.0, 2.0, 4.0]
            arr = LabeledArray(dims=GRID + (REP,), data=data)
            level = dict(zip(["a", "b", "c"], cell))
            for assign in role_assignments(["a", "b", "c"]):
                svg = mayplot_svg(arr, PlotSpec(**assign))
                r = level[assign["rows"]] if "rows" in assign else 0
                c = level[assign["cols"]] if "cols" in assign else 0
                s = level[assign["series"]] if "series" in assign else 0
                xi, nx = level[assign["x"]], sizes["abc".index(assign["x"])]
                (panel, centre, fill), = data_boxes(svg)
                assert panel == f"{r}-{c}" and fill == PALETTE[s], (cell, assign)
                slot_w = PANEL_W / nx
                left = MARGIN_L + c * (PANEL_W + GAP) + xi * slot_w
                assert left < centre < left + slot_w, (cell, assign)
                n_checked += 1
        assert n_checked == 24 * 18


class TestLayoutInvariance:
    @pytest.mark.parametrize("spec", [
        PlotSpec(x="c", series="a", rows="b"),
        PlotSpec(x="b", cols="c", rows="a", ylim="local", log_y=True),
        PlotSpec(x="a", series="rep", cols="b", rows="c"),
    ])
    def test_same_bytes_for_every_dim_order(self, spec):
        rng = np.random.default_rng(17)
        data = rng.integers(1, 60, size=(2, 3, 4, 3)).astype(float)
        data[1, 2, 0, 1] = np.nan
        arr = LabeledArray(dims=GRID + (REP,), data=data)
        want = mayplot_svg(arr, spec)
        for order in itertools.permutations(range(4)):
            assert mayplot_svg(permuted(arr, order), spec) == want, order


def golden_array():
    """Small integer data: 2 n x 2 tau panels, 3 d slots, 2 families, 5 reps."""
    dims = (("d", ("5", "20", "100")), ("family", ("Clayton", "Gumbel")),
            ("n", ("64", "256")), ("tau", ("0.25", "0.5")),
            ("rep", ("1", "2", "3", "4", "5")))
    data = ((np.arange(120) * 37) % 41).astype(float).reshape(3, 2, 2, 2, 5)
    data[0, 1, 1, 0, 4] = 95.0      # an outlier
    data[2, 0, 0, 1, 2] = np.nan    # a dropped value
    return LabeledArray(dims=dims, data=data)


def test_golden_svg():
    """``tests/data/golden-plot.svg`` was written by the per-cell slicing
    renderer of commit 0c91073 from :func:`golden_array`; integer data on a
    linear scale keeps libm rounding out of the bytes."""
    spec = PlotSpec(x="d", series="family", rows="n", cols="tau")
    golden = (DATA / "golden-plot.svg").read_bytes().decode("utf-8")
    assert mayplot_svg(golden_array(), spec) == golden
