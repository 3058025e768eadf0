"""Variable lists, level formatting, and physical grid order."""

import json
import math

import numpy as np
import pytest

from mcgrid import (ErrorInfo, SeedSpec, SubJobRecord, VarList, VarSpec, assemble,
                    canonical_json, format_levels, get_array, mk_grid, non_grid_args)
from mcgrid.results import Columns, store_dims
from mcgrid.var_copula import example_varlist


class TestFormatLevels:
    def test_integers_render_without_decimals(self):
        assert format_levels((64, 256)) == ("64", "256")
        assert format_levels((5, 20, 100, 500)) == ("5", "20", "100", "500")

    def test_common_decimal_width_two_levels(self):
        assert format_levels((0.25, 0.5)) == ("0.25", "0.50")

    def test_common_decimal_width_three_levels(self):
        assert format_levels((0.95, 0.99, 0.999)) == ("0.950", "0.990", "0.999")

    def test_strings_pass_through(self):
        assert format_levels(("Clayton", "Gumbel")) == ("Clayton", "Gumbel")

    def test_integral_floats_render_as_integers(self):
        assert format_levels((1.0, 2.0)) == ("1", "2")

    def test_mixed_precision_pads_to_widest(self):
        assert format_levels((0.1, 0.125)) == ("0.100", "0.125")

    def test_levels_are_labelled_as_the_canonical_form_reads_them_back(self):
        # a tuple reads back as a list, a non-finite float as its tag
        for levels, labels in ((((1, 2), (3, 4)), ("[1, 2]", "[3, 4]")),
                               (([1, (2, 3)], [4]), ("[1, [2, 3]]", "[4]")),
                               ((0.5, math.inf, -math.inf, math.nan),
                                ("0.5", "Inf", "-Inf", "NaN"))):
            assert format_levels(levels) == labels
            assert format_levels(json.loads(canonical_json(list(levels)))) == labels
        with pytest.raises(TypeError, match="cannot serialize"):
            format_levels((1, len))


class TestVarSpec:
    def test_frozen_payload_is_wrapped_once(self):
        s = VarSpec("w", "frozen", {"a": 1})
        assert s.payload == {"a": 1}
        assert len(s.values) == 1

    def test_default_label_is_math_wrapped_name(self):
        assert VarSpec("tau", "grid", (0.25, 0.5)).label == "$tau$"

    def test_numeric_dict_payload_displays_values(self):
        s = VarSpec("w", "frozen", {"5": 1, "20": 1, "100": 1, "500": 1})
        assert s.value_display() == "1, 1, 1, 1"

    def test_non_numeric_dict_payload_displays_keys(self):
        s = VarSpec("qF", "frozen", {"qF": "std-normal"})
        assert s.value_display() == "qF"


class TestValidation:
    def test_example_is_clean(self):
        assert example_varlist().validate() == []

    def test_duplicate_names_reported(self):
        vl = VarList([VarSpec("x", "grid", (1, 2)), VarSpec("x", "grid", (3,))])
        problems = vl.validate()
        assert any("duplicate" in p for p in problems)

    def test_two_replication_vars_reported(self):
        vl = VarList([VarSpec("n.sim", "N", 4), VarSpec("m", "N", 2)])
        assert any("more than one" in p for p in vl.validate())

    def test_bad_replication_count(self):
        assert VarList([VarSpec("n.sim", "N", 0)]).validate()
        assert VarList([VarSpec("n.sim", "N", (2, 3))]).validate()

    def test_colliding_level_display_strings(self):
        vl = VarList([VarSpec("x", "grid", (1, 1.0))])
        assert any("not distinct" in p for p in vl.validate())

    def test_unknown_type(self):
        assert VarList([VarSpec("x", "wild", (1,))]).validate()


class TestGridOrder:
    def test_first_declared_varies_fastest(self):
        grid = mk_grid(example_varlist())
        assert grid.n_rows == 32
        assert grid.row_params(0) == {"n": 64, "d": 5, "family": "Clayton", "tau": 0.25}
        assert grid.row_params(1) == {"n": 256, "d": 5, "family": "Clayton", "tau": 0.25}
        assert grid.row_params(2) == {"n": 64, "d": 20, "family": "Clayton", "tau": 0.25}
        assert grid.row_params(3) == {"n": 256, "d": 20, "family": "Clayton", "tau": 0.25}
        # slowest variable is the last declared grid variable
        assert grid.row_params(16)["tau"] == 0.5
        assert grid.row_params(31) == {"n": 256, "d": 500, "family": "Gumbel", "tau": 0.5}

    def test_decode_encode_roundtrip(self):
        grid = mk_grid(example_varlist())
        for row in range(grid.n_rows):
            assert grid.encode(grid.decode(row)) == row

    def test_zero_grid_vars_single_row(self):
        vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("c", "frozen", 7)])
        grid = mk_grid(vl)
        assert grid.n_rows == 1
        assert grid.row_params(0) == {}


class TestResultDims:
    def test_example_dims_order_and_sizes(self):
        vl = example_varlist()
        n = mk_grid(vl).n_rows * vl.n_sim
        skipped = Columns.from_records([SubJobRecord(error=ErrorInfo("skipped", "test"))] * n)
        store = assemble(vl, skipped, True, SeedSpec.seq(), False, "")
        dims = get_array(store, "value").dims
        assert [(name, len(labels)) for name, labels in dims] == [
            ("alpha", 3), ("n", 2), ("d", 4), ("family", 2), ("tau", 2), ("n.sim", 32)]
        assert dims[1:] == store_dims(vl)
        names = dict(dims)
        assert names["alpha"] == ("0.950", "0.990", "0.999")
        assert names["tau"] == ("0.25", "0.50")
        assert names["n.sim"][:3] == ("1", "2", "3")

    def test_replication_dim_absent_when_single(self):
        vl = VarList([VarSpec("n.sim", "N", 1), VarSpec("x", "grid", (1, 2))])
        assert [name for name, _ in store_dims(vl)] == ["x"]


class TestNonGridArgs:
    def test_frozen_payloads_and_inner_levels(self):
        args = non_grid_args(example_varlist())
        assert args["varWgts"] == {"5": 1, "20": 1, "100": 1, "500": 1}
        assert args["qF"] == {"qF": "std-normal"}
        assert args["alpha"] == [0.95, 0.99, 0.999]
        assert set(args) == {"varWgts", "qF", "alpha"}


class TestCanonical:
    def test_roundtrip(self):
        vl = example_varlist()
        back = VarList.from_canonical(vl.canonical())
        assert back.canonical() == vl.canonical()
        assert back.n_sim == 32

    def test_with_n_sim_overrides(self):
        vl = example_varlist().with_n_sim(8)
        assert vl.n_sim == 8
        assert vl.names() == example_varlist().names()

    def test_from_canonical_rejects_invalid(self):
        doc = {"variables": [{"name": "x", "type": "wild", "label": None, "value": [1]}]}
        with pytest.raises(ValueError):
            VarList.from_canonical(doc)
