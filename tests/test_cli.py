"""Command line behavior: exit codes, caching, outputs, worker mode."""

import json
import re
import subprocess
import sys

import pytest

from mcgrid.cli import main
from mcgrid.executor import encode_frame, read_frame


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


class TestUsageErrors:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_exits_1(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1

    def test_missing_config_file_exits_1(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

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
        assert "delete the file" in capsys.readouterr().err

    def test_run_with_errors_exits_2(self, capsys, tmp_path):
        p = write_config(tmp_path / "c.json", study="test_cli:cli_erroring_study")
        out = tmp_path / "res.json"
        assert main(["run", str(p), "--out", str(out)]) == 2
        text = capsys.readouterr().out
        assert "errors: 2" in text and "warnings: 2" in text

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

    def test_missing_results_file(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "no.json"), "--rows", "x",
                     "--cols", "y"]) == 1


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

    def test_worker_subprocess_task_and_eof(self):
        from mcgrid import RngStream, SeedSpec, seed_for
        state = seed_for(SeedSpec.seq(), 1)
        setup = {"tag": "setup", "study": "probe-first-uniform", "grid": [["x", [3, 4]]],
                 "base_args": {}, "seed_kind": "seq", "keep_seed": False,
                 "monitor": False, "n_sim": 1, "rep_first": True}
        task = {"tag": "task", "block": {"row": 1, "rep_start": 1, "size": 1},
                "seeds": [state.to_hex()]}
        proc = subprocess.run(
            [sys.executable, "-m", "mcgrid", "--worker"],
            input=encode_frame(setup) + encode_frame(task),
            capture_output=True, timeout=60)
        assert proc.returncode == 0  # end of input is a clean exit
        import io
        frame = read_frame(io.BytesIO(proc.stdout))
        assert frame["tag"] == "result"
        assert frame["records"][0]["value"] == RngStream.from_state(state).uniform()

    def test_worker_subprocess_bad_bytes_exit_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mcgrid", "--worker"],
            input=b"\x01\x02", capture_output=True, timeout=60)
        assert proc.returncode == 1
