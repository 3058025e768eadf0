"""Command line behavior: exit codes, caching, outputs, worker mode."""

import json
import math
import re
import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import huber_mean_cell, mad_cell, report_matrices
from mcgrid import load
from mcgrid.cli import _hub_mad, main
from mcgrid.executor import WORKER_FLAG, encode_frame, read_frame

DATA = Path(__file__).parent / "data"


def write_config(path, n_sim=2, study="test_cli:cli_probe_study"):
    doc = {
        "study": study,
        "variables": [
            {"name": "n.sim", "type": "N", "label": None, "value": n_sim},
            {"name": "x", "type": "grid", "label": "$x$", "value": [3, 4, 5]},
        ],
    }
    path.write_text(json.dumps(doc))
    return path


# module-level so workers and the module:attr path can resolve it
def cli_probe_study(params, rng, warn):
    return float(params["x"]) * 2.0


def cli_erroring_study(params, rng, warn):
    if params["x"] == 4:
        raise RuntimeError("four is right out")
    if params["x"] == 5:
        warn("five is suspicious")
    return float(params["x"])


def cli_infinite_study(params, rng, warn):
    return {3: 3.0, 4: math.inf, 5: -math.inf}[params["x"]]


def cli_report_study(params, rng, warn):
    """Every kind of cell a report meets: row x=3, g=b always errors; x=2
    warns and errors on its low draws; x=1, g=a is constant; the rest mix
    the draw with NaN, inf and outlying replications."""
    x, g, u = params["x"], params["g"], rng.uniform()
    if x == 3 and g == "b":
        raise RuntimeError("row 3b always fails")
    if x == 2:
        warn("x is two")
        if u < 0.3:
            raise ValueError("low draw")
    if x == 1 and g == "a":
        return [4.0, 4.0]
    value = [10.0 * x + 8.0 * u, 10.0 * x - 16.0 * u]
    if u > 0.8:
        value[1] = math.nan
    if g == "b" and 0.25 < u < 0.4:
        value[0] = math.inf
    if 0.45 < u < 0.55:
        value[0] = 100.0 * x
    return value


def write_report_config(path):
    doc = {
        "study": "test_cli:cli_report_study",
        "variables": [
            {"name": "n.sim", "type": "N", "label": None, "value": 9},
            {"name": "x", "type": "grid", "label": "$x$", "value": [1, 2, 3]},
            {"name": "g", "type": "grid", "label": None, "value": ["a", "b"]},
            {"name": "q", "type": "inner", "label": "$q$", "value": [0.5, 2.0]},
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def cli_ragged_study(params, rng, warn):
    return [1.0, 2.0] if params["x"] == 4 else float(params["x"])


def cli_digits_study(params, rng, warn):
    return float(len(str(params["x"])))


def cli_worker_killing_study(params, rng, warn):
    """Kills the process worker that runs it, never the calling process."""
    if WORKER_FLAG in sys.argv:  # a worker forked from the zygote
        os._exit(3)
    return 0.0


CALLS = []


def cli_counting_study(params, rng, warn):
    CALLS.append(params["x"])
    return float(params["x"])


class TestUsageErrors:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_exits_1(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1

    def test_missing_config_file_exits_1(self, capsys, tmp_path):
        for path in (tmp_path / "absent.json", tmp_path):
            assert main(["run", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("mcgrid: cannot read config: ") and err.count("\n") == 1
            assert err.count(str(path)) == 1

    def test_invalid_json_config_exits_1(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 1

    def test_unknown_study_exits_1(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="definitely-not-registered")
        assert main(["run", str(p)]) == 1
        assert "unknown study" in capsys.readouterr().err

    def test_bad_seed_argument_exits_1(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        assert main(["run", str(p), "--seed", "bogus-mode"]) == 1

    @pytest.mark.parametrize("cap, why", [("two", "is not an integer"), ("0", "must be >= 1")])
    def test_a_bad_worker_cap_exits_1(self, capsys, tmp_path, monkeypatch, cap, why):
        monkeypatch.setenv("MCGRID_MAX_WORKERS", cap)
        p = write_config(tmp_path / "c.json")
        assert main(["run", str(p), "--backend", "threads", "--workers", "2"]) == 1
        assert capsys.readouterr().err == f"mcgrid: MCGRID_MAX_WORKERS={cap!r} {why}\n"


class TestRun:
    def test_clean_run_exit_0(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ran 6 sub-jobs" in text and "errors: 0" in text
        assert out.exists()

    def test_cache_hit_second_time(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", str(p), "--out", str(out)]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_changed_declaration_invalidates_cache(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        p2 = write_config(tmp_path / "c2.json", n_sim=3)
        assert main(["run", str(p2), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("delete the file") == 1

    def test_keep_seed_on_a_cache_without_seeds_exits_1(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", str(p), "--out", str(out), "--keep-seed"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"mcgrid: {out}: saved without keep_seed")
        assert captured.err.count(str(out)) == 1
        assert main(["run", str(p), "--out", str(out)]) == 0  # still a hit without it
        assert "cache hit" in capsys.readouterr().out

    def test_a_non_finite_level_is_refused_by_a_cache_and_by_workers(self, capsys, tmp_path):
        # the canonical form writes Infinity as "Inf": a cache or a worker
        # would see the string level of another declaration
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"study": "test_cli:cli_probe_study", "variables": [
            {"name": "n.sim", "type": "N", "label": None, "value": 2},
            {"name": "x", "type": "grid", "label": "$x$", "value": [1.0, math.inf]}]}))
        assert "Infinity" in p.read_text()
        out = tmp_path / "res.json"
        for flags, user in ((["--out", str(out)], "a cache"),
                            (["--backend", "procs", "--workers", "2"], "the process backend")):
            assert main(["run", str(p), *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith(f"mcgrid: {user} needs JSON-serializable "
                                           "variables: x: ")
        assert list(tmp_path.iterdir()) == [p]  # no result file, no temporary one
        assert main(["run", str(p)]) == 0
        assert "ran 4 sub-jobs" in capsys.readouterr().out

    def test_other_study_invalidates_cache(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        assert main(["run", str(write_config(tmp_path / "c.json")), "--out", str(out)]) == 0
        saved = out.read_bytes()
        capsys.readouterr()
        other = write_config(tmp_path / "c2.json", study="test_cli:cli_erroring_study")
        assert main(["run", str(other), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"mcgrid: {out}: fingerprint ")
        assert captured.err.count(str(out)) == 1
        assert captured.err.count("\n") == 1 and "delete the file" in captured.err
        assert out.read_bytes() == saved

    def test_run_with_errors_exits_2(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_erroring_study")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 2
        text = capsys.readouterr().out
        assert "errors: 2" in text and "warnings: 2" in text

    def test_a_raw_fallback_exits_2_and_is_not_analyzed(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_ragged_study")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "errors: 0, warnings: 0" in captured.out
        assert captured.err == ("dense assembly not possible: virtual record 2: value shape "
                                "(2,) does not match the inner-dimension signature ()\n")
        assert main(["analyze", str(out), "--rows", "x", "--cols", "n.sim"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mcgrid: results {str(out)!r} hold a raw fallback (virtual ")
        assert err.endswith("); no dense analysis available\n") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["none", "unseeded"])
    def test_unseeded_disciplines_run(self, capsys, tmp_path, seed):
        p = write_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--seed", seed, "--keep-seed", "--out", str(out)]) == 0
        assert "ran 6 sub-jobs" in capsys.readouterr().out
        res = load(out)
        assert res.meta.seed_spec.kind == seed
        # under none each sub-job keeps the state it started from; unseeded keeps none
        assert (res.seeds is not None) == (seed == "none")

    def test_a_400_digit_level_runs_and_reloads(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"study": "test_cli:cli_digits_study", "variables": [
            {"name": "x", "type": "grid", "label": None, "value": [10**400, 1]}]}))
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        res = load(out)
        assert res.dims == (("x", (str(10**400), "1")),)
        assert res.value.tolist() == [401.0, 1.0]
        assert main(["run", str(p), "--out", str(out)]) == 0
        assert "cache hit" in capsys.readouterr().out
        # past Python's limit on the digits of an int that text converts to
        p.write_text(p.read_text().replace(str(10**400), "1" * 5000))
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mcgrid: config {str(p)!r} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_a_dead_worker_aborts_the_run_in_one_line(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_worker_killing_study")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--backend", "procs", "--workers", "2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert re.fullmatch(r"mcgrid: run aborted: worker \d died mid-run; aborting, no retry\n",
                            captured.err)
        assert not out.exists()

    def test_threads_backend_and_worker_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MCGRID_MAX_WORKERS", "2")
        p = write_config(tmp_path / "c.json")
        assert main(["run", str(p), "--backend", "threads", "--workers", "16",
                     "--block-size", "2"]) == 0
        assert "2 workers" in capsys.readouterr().out

    def test_procs_backend_matches_seq(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", n_sim=2)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["run", str(p), "--out", str(out_a)]) == 0
        assert main(["run", str(p), "--backend", "procs", "--workers", "2",
                     "--out", str(out_b)]) == 0
        from mcgrid import do_res_equal, load
        cmp = do_res_equal(load(out_a), load(out_b))
        assert cmp, cmp.report

    def test_monitor_lines_on_stderr(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        assert main(["run", str(p), "--monitor"]) == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("i=")]
        assert len(lines) == 6
        assert all(re.fullmatch(r"i=\d+, time=\d+ms", l) for l in lines)

    def test_out_in_missing_directory_runs_nothing(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_counting_study")
        CALLS.clear()
        assert main(["run", str(p), "--out", str(tmp_path / "absent" / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mcgrid: ") and "absent" in err
        assert err.count("\n") == 1 and CALLS == []

    def test_out_is_a_directory_exits_1(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        assert main(["run", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mcgrid: ") and err.count("\n") == 1

    def test_n_sim_override(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", n_sim=2)
        assert main(["run", str(p), "--n-sim", "4"]) == 0
        assert "x 4 replications" in capsys.readouterr().out

    def test_seed_file(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        seed_doc = {"kind": "per-rep-integer", "seeds": [11, 22]}
        sp = tmp_path / "seed.json"
        sp.write_text(json.dumps(seed_doc))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["run", str(p), "--seed", str(sp), "--out", str(out1)]) == 0
        assert main(["run", str(p), "--seed", str(sp), "--out", str(out2)]) == 0
        assert out1.read_bytes() != b""  # both runs persisted
        from mcgrid import do_res_equal, load
        assert do_res_equal(load(out1), load(out2))


class TestAnalyze:
    @pytest.fixture()
    def results(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", n_sim=4)
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_latex_value_table(self, results, capsys, tmp_path):
        assert main(["analyze", str(results), "--rows", "x", "--cols", "n.sim"]) == 0
        text = capsys.readouterr().out
        assert "\\begin{tabular}{*{1}{l}*{4}{r}}" in text
        assert "\\( x \\)" in text

    def test_latex_collapses_replications_when_unlisted(self, results, capsys,
                                                        tmp_path):
        cfg = tmp_path / "c2.json"
        doc = {
            "study": "test_cli:cli_probe_study",
            "variables": [
                {"name": "n.sim", "type": "N", "label": None, "value": 4},
                {"name": "x", "type": "grid", "label": None, "value": [3, 4, 5]},
                {"name": "y", "type": "grid", "label": None, "value": [1, 2]},
            ],
        }
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--rows", "x", "--cols", "y"]) == 0
        text = capsys.readouterr().out
        # deterministic study: MAD is zero, center is the value itself
        assert re.search(r"6\.0 \(0\.0\)", text)

    def test_value_with_unlisted_grid_var_is_usage_error(self, results, capsys,
                                                         tmp_path):
        cfg = write_config(tmp_path / "c3.json", n_sim=2)
        out = tmp_path / "r3.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--rows", "n.sim", "--cols", "n.sim"]) == 1

    def test_csv_error_component(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_erroring_study",
                         n_sim=2)
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 2
        capsys.readouterr()
        assert main(["analyze", str(out), "--component", "error", "--rows", "x",
                     "--cols", "n.sim", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        rows = [l.split(",") for l in text.strip().splitlines()]
        assert rows[2] == ["3", "0", "0"]
        assert rows[3] == ["4", "1", "1"]

    def test_warning_component_sums_collapsed_dims(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_erroring_study",
                         n_sim=4)
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 2
        capsys.readouterr()
        assert main(["analyze", str(out), "--component", "warning",
                     "--rows", "x", "--cols", "component-placeholder"]) == 1
        assert main(["analyze", str(out), "--component", "warning",
                     "--rows", "n.sim", "--cols", "x", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        # x=5 warns once per replication
        assert text.splitlines()[2].split(",")[3] == "1"

    def test_infinite_values_render_as_tags(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_infinite_study")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--rows", "x", "--cols", "n.sim",
                     "--format", "csv"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.strip().splitlines()]
        assert rows[2:] == [["3", "3", "3"], ["4", "Inf", "Inf"], ["5", "-Inf", "-Inf"]]

    def test_infinite_err_value(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_erroring_study")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 2
        capsys.readouterr()
        for fill in (["--err-value=-inf"], ["--err-value", "-inf"], ["--err-value", "-Inf"]):
            assert main(["analyze", str(out), "--rows", "x", "--cols", "n.sim", *fill]) == 0
            assert "4 & -Inf & -Inf \\\\" in capsys.readouterr().out

    def test_time_component_formats_whole_ms(self, results, capsys):
        assert main(["analyze", str(results), "--component", "time",
                     "--rows", "x", "--cols", "n.sim", "--format", "csv"]) == 0
        body = capsys.readouterr().out.strip().splitlines()[2:]
        for line in body:
            for cell in line.split(",")[1:]:
                assert re.fullmatch(r"\d+", cell)

    def test_output_file(self, results, tmp_path, capsys):
        dest = tmp_path / "table.tex"
        assert main(["analyze", str(results), "--rows", "x", "--cols", "n.sim",
                     "--out", str(dest), "--caption", "C", "--tag", "t"]) == 0
        text = dest.read_text()
        assert "\\caption{C}" in text and "\\label{t}" in text

    def test_output_in_missing_directory_exits_1(self, results, tmp_path, capsys):
        dest = tmp_path / "absent" / "table.tex"
        assert main(["analyze", str(results), "--rows", "x", "--cols", "n.sim",
                     "--out", str(dest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mcgrid: ") and "absent" in err
        assert err.count("\n") == 1

    def test_missing_results_file(self, capsys, tmp_path):
        for path in (tmp_path / "no.json", tmp_path):
            assert main(["analyze", str(path), "--rows", "x", "--cols", "y"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("mcgrid: cannot read results: ") and err.count(str(path)) == 1

    def test_malformed_result_file_is_one_line(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json")
        bad = tmp_path / "bad.json"
        for text, why in (('{"format": "mcgrid-result-v3", "meta": 5}', "malformed result file"),
                          ("garbage", "not a result file")):
            bad.write_text(text)
            for argv in (["run", str(p), "--out", str(bad)],
                         ["analyze", str(bad), "--rows", "x", "--cols", "n.sim"]):
                assert main(argv) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"mcgrid: {bad}: {why} (") and err.count("\n") == 1
                assert err.count(str(bad)) == 1

    @pytest.mark.parametrize("name", ["v1-store", "v2-store"])
    def test_a_retired_format_file_is_one_line_and_left_as_it_was(self, capsys, tmp_path,
                                                                    name):
        p = write_config(tmp_path / "c.json")
        old = tmp_path / f"{name}.json"
        shutil.copy(DATA / f"{name}.json", old)
        for argv in (["analyze", str(old), "--rows", "a,b", "--cols", "q"],
                     ["plot", str(old), "--x", "a", "--out", str(tmp_path / "fig.svg")],
                     ["run", str(p), "--out", str(old)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"mcgrid: {old}: mcgrid-result-{name[:2]} files are no longer "
                                    "read; mcgrid at commit d3eef42 loads one and saves it again "
                                    "as mcgrid-result-v3\n")
        assert old.read_bytes() == (DATA / f"{name}.json").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", f"{name}.json"]

    @given(report_matrices())
    @settings(max_examples=200, deadline=None)
    def test_value_cells_match_the_one_cell_code(self, x):
        def cell(values):
            finite = values[np.isfinite(values)]
            if finite.size == 0:
                return "NA"
            return f"{huber_mean_cell(finite):.1f} ({mad_cell(finite):.1f})"

        assert _hub_mad(x).tolist() == [cell(v) for v in x]

    def test_table_error_is_one_bare_line(self, results, capsys):
        assert main(["analyze", str(results), "--rows", "x,x", "--cols", "n.sim"]) == 1
        assert capsys.readouterr().err == "mcgrid: duplicate variable\n"


# the report files of cli_report_study's store, and the commands that write them
GOLDEN_REPORTS = {
    "golden-report-value.tex": ["analyze", "--rows", "x,g", "--cols", "q",
                                "--format", "latex"],
    "golden-report-error.csv": ["analyze", "--component", "error", "--rows", "x",
                                "--cols", "g", "--format", "csv"],
    "golden-report-box.svg": ["plot", "--x", "x", "--series", "g", "--cols", "q"],
}


def test_golden_reports(capsys, tmp_path):
    """``tests/data/golden-report-*`` were written by the per-cell report
    code of commit af10cbd, before the statistics were computed for whole
    tables: a Huber (MAD) value table with NA, constant and partly
    non-finite cells, a summed error table and a box plot with an empty box."""
    store = tmp_path / "res.json"
    assert main(["run", str(write_report_config(tmp_path / "c.json")),
                 "--out", str(store)]) == 2
    for name, (command, *argv) in GOLDEN_REPORTS.items():
        dest = tmp_path / name
        assert main([command, str(store), *argv, "--out", str(dest)]) == 0
        assert dest.read_bytes() == (DATA / name).read_bytes(), name


class TestPlot:
    def test_plot_svg_written(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", n_sim=4)
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        dest = tmp_path / "fig.svg"
        assert main(["plot", str(out), "--x", "x", "--out", str(dest)]) == 0
        svg = dest.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_slice_syntax_errors(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", n_sim=2)
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        dest = tmp_path / "fig.svg"
        assert main(["plot", str(out), "--x", "x", "--slice", "nonsense",
                     "--out", str(dest)]) == 1
        assert main(["plot", str(out), "--x", "x", "--slice", "x=99",
                     "--out", str(dest)]) == 1

    def test_unknown_dimension_is_one_bare_line(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", n_sim=2)
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 0
        capsys.readouterr()
        dest = str(tmp_path / "fig.svg")
        for argv, message in (
                (["--slice", "alpha=0.990"], "no dimension 'alpha'; have ('x', 'n.sim')"),
                (["--slice", "x=9"], "'x' has no level '9'; have ('3', '4', '5')"),
                (["--series", "zz"], "series variable 'zz' not among dims ('x', 'n.sim')")):
            assert main(["plot", str(out), "--x", "x", *argv, "--out", dest]) == 1
            assert capsys.readouterr().err == f"mcgrid: {message}\n"


class TestExampleConfig:
    def test_prints_valid_runnable_config(self, capsys, tmp_path):
        assert main(["example-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["study"] == "var-copula"
        names = [v["name"] for v in doc["variables"]]
        assert names == ["n.sim", "n", "d", "varWgts", "qF", "family", "tau",
                         "alpha"]

    def test_example_runs_end_to_end(self, capsys, tmp_path):
        cfg = tmp_path / "study.json"
        assert main(["example-config", "--out", str(cfg)]) == 0
        out = tmp_path / "res.json"
        assert main(["run", str(cfg), "--n-sim", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--rows", "family,n,d",
                     "--cols", "tau,alpha"]) == 0
        text = capsys.readouterr().out
        assert "\\begin{tabular}{*{3}{l}*{6}{r}}" in text


class TestWorkerMode:
    def test_worker_flag_with_other_args_rejected(self, capsys):
        assert main(["--worker", "run"]) == 1

    def test_worker_flag_is_not_a_command(self, capsys):
        # the one worker entry is python -m mcgrid --worker
        assert main(["--worker"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "python -m mcgrid --worker" in err

    @staticmethod
    def _zygote(*flags):
        """A zygote started as the process backend starts it, and our end of
        its control socket."""
        ours, theirs = socket.socketpair()
        with theirs:
            proc = subprocess.Popen([sys.executable, *flags, "-m", "mcgrid", "--worker"],
                                    stdin=theirs, stderr=subprocess.PIPE)
        return proc, ours

    def test_zygote_forks_a_worker_and_ends_at_eof(self):
        from mcgrid import RngStream, SeedSpec, seed_for
        from mcgrid.executor import _Worker
        states = [seed_for(SeedSpec.seq(), rep) for rep in (1, 2)]
        varlist = {"n_sim": 2, "variables": [
            {"name": "n.sim", "type": "N", "label": "$n.sim$", "value": 2},
            {"name": "x", "type": "grid", "label": "$x$", "value": [3, 4]}]}
        setup = {"tag": "setup", "study": "probe-first-uniform", "varlist": varlist,
                 "seed": {"kind": "seq"}, "keep_seed": False, "rep_first": True,
                 "block_size": 1}
        task = {"tag": "task", "blocks": [1, 4]}  # row 0 rep 2, then row 1 reps 1 and 2
        proc, control = self._zygote()
        worker = _Worker()
        with control, proc.stderr, worker.stdout:
            worker.fork(control)
            assert worker.pid > 0 and worker.pid != proc.pid
            with worker.stdin:
                worker.stdin.write(encode_frame(setup) + encode_frame(task))
            out = worker.stdout
            want = [states[1:], states]  # one result frame per task, its blocks in order
            frame = read_frame(out)
            assert (frame["tag"], frame["blocks"], frame["shapes"]) == ("result", 3, [[]] * 3)
            assert np.frombuffer(frame["tail"], "<f8").tolist() == \
                [RngStream.from_state(st).uniform() for block in want for st in block]
            assert len(frame["time_ms"]) == 3
            assert read_frame(out) is None  # 1 frame
            assert worker.wait() == 0  # end of input is a clean exit, reported by the zygote
        assert proc.wait(timeout=60) == 0  # end of input on the control socket

    def test_zygote_starts_without_the_report_modules(self):
        proc, control = self._zygote("-X", "importtime")
        control.close()
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0  # end of input, no fork request: a clean exit
        # each line ends "| <indent><module name>"; whole names, as _posixsubprocess
        # is not subprocess
        modules = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                   if line.startswith("import time:")}
        # numpy.random too, once, so that no worker imports it after its fork
        assert {"mcgrid.executor", "mcgrid.var_copula", "numpy.random"} <= modules
        # the report modules, and the parent's spawning
        for module in ("mcgrid.analysis", "mcgrid.plot", "mcgrid.cli", "subprocess"):
            assert module not in modules

    def test_zygote_bad_bytes_exit_nonzero(self):
        proc, control = self._zygote()
        with control:
            control.sendall(b"\x01\x02")
        with proc.stderr:
            assert b"malformed fork request" in proc.stderr.read()
        assert proc.wait(timeout=60) == 1


def test_every_public_name_resolves():
    # the report names load on first use: in a fresh interpreter, before any
    # of them is loaded, a star import still binds every public name
    code = "\n".join([
        "import sys, mcgrid",
        "assert 'mcgrid.analysis' not in sys.modules and 'mcgrid.plot' not in sys.modules",
        "assert set(mcgrid.__all__) <= set(dir(mcgrid))",
        "bound = {}",
        "exec('from mcgrid import *', bound)",
        "assert set(mcgrid.__all__) <= set(bound)",
        "from mcgrid import analysis, plot",
        "assert bound['collapse'] is analysis.collapse and bound['PlotSpec'] is plot.PlotSpec",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    import mcgrid
    for name in mcgrid.__all__:
        assert getattr(mcgrid, name) is not None, name
    with pytest.raises(AttributeError, match="no_such_name"):
        mcgrid.no_such_name
