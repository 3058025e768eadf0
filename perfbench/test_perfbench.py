"""Tests of the span arithmetic and of BENCHMARK.json's metric names.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import Span, Tracer, covered_ns, durations, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered_ns([], 0, 100) == 0
    assert covered_ns([(10, 20), (30, 40)], 0, 100) == 20
    assert covered_ns([(10, 30), (20, 40)], 0, 100) == 30
    assert covered_ns([(10, 40), (15, 20)], 0, 100) == 30
    assert covered_ns([(-50, 10), (90, 150)], 0, 100) == 20
    assert covered_ns([(200, 300)], 0, 100) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, "outer", 0, 100, None, 1),
        Span(2, "mid", 10, 60, 1, 1),
        Span(3, "leaf", 20, 30, 2, 1),
        Span(4, "leaf", 40, 45, 2, 1),
        Span(5, "mid", 70, 80, 1, 1),
    ]
    own = self_times(spans)
    assert own == {"outer": 100 - 50 - 10, "mid": (50 - 15) + 10, "leaf": 10 + 5}
    assert sum(own.values()) == 100
    assert durations(spans) == {"outer": 100, "mid": 60, "leaf": 15}


def test_overlapping_children_are_not_subtracted_twice():
    spans = [Span(1, "p", 0, 100, None, 1), Span(2, "c", 0, 80, 1, 1),
             Span(3, "c", 50, 90, 1, 1)]
    assert self_times(spans)["p"] == 10


def test_tracer_nests_per_thread_and_restores_patches():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @classmethod
        def make(cls, x):
            return cls.inner(x) * 2

    t = Tracer()
    t.patch(Box, "inner", lambda fn: t.wrap(fn, "inner"))
    t.patch(Box, "make", lambda fn: t.wrap(fn, lambda parent: f"make<{parent}>"))
    outer = t.wrap(lambda: Box.make(1), "outer")
    assert outer() == 4
    worker = threading.Thread(target=Box.make, args=(2,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    t.restore()
    assert Box.make(1) == 4 and len(t.spans) == 5   # restored: no new spans

    by_id = {s.id: s for s in t.spans}
    names = {s.name: s for s in t.spans if s.thread == threading.get_ident()}
    assert names["make<outer>"].parent == names["outer"].id
    assert by_id[names["inner"].parent].name == "make<outer>"
    root_elsewhere = [s for s in t.spans if s.name == "make<None>"]
    assert len(root_elsewhere) == 1 and root_elsewhere[0].parent is None
    assert root_elsewhere[0].thread != threading.get_ident()


def test_benchmark_metric_names_are_valid_and_unique():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    groups = [doc["workloads"], doc["end_to_end"], doc["per_layer"]]
    for group in groups:
        names = [m["name"] for m in group]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_metric_name_pattern_rejects_bad_names():
    for bad in ("", ".x", "has space", "a/b", "x" * 65, "é"):
        assert not NAME.fullmatch(bad)


def test_timing_scales_wall_time_by_the_probe_speed(monkeypatch):
    from perfbench import clock
    probes = iter([0.04, 0.02, 0.01])     # the machine speeds up step by step
    monkeypatch.setattr(clock, "probe", lambda kind: next(probes))
    c = clock.Clock()
    out, t = c.time(lambda: "done")
    assert out == "done"
    assert t.speed == {"python": clock.REFERENCE_S["python"] / 0.03}
    assert t.norm_s() == t.wall_s * t.speed["python"]
    _, t2 = c.time(lambda: None)          # the probe after step 1 opens step 2
    assert t2.speed["python"] == clock.REFERENCE_S["python"] / 0.015


def test_report_check_accepts_the_cli_reports_and_catches_a_wrong_cell(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from mcgrid import executor, results
    from perfbench import workloads as wl

    w = wl.WORKLOADS["cheap-threads"]
    decl = wl.declare(w, 3)
    decl = wl.Declaration(decl.vl.with_n_sim(3), decl.seed, executor.Sequential())
    store = executor.run_study(decl.vl, wl.study_fn(w), seed=decl.seed, backend=decl.backend)
    results.save(store, tmp_path / "results.json")
    for _, argv in wl.report_args(w, tmp_path / "results.json", tmp_path):
        wl._cli(argv)
    r = wl.REPORTS[w.study]
    assert wl.check_reports(r, decl, store, tmp_path) == []

    tex = (tmp_path / "table.tex").read_text(encoding="utf-8")
    cell = wl._latex_body(tex)[0][-1]
    (tmp_path / "table.tex").write_text(tex.replace(f" {cell} \\\\", " 9.9 (9.9) \\\\", 1),
                                        encoding="utf-8")
    assert any("table.tex row 0" in p for p in wl.check_reports(r, decl, store, tmp_path))

    svg = (tmp_path / "fig.svg").read_text(encoding="utf-8")
    first_box = svg.index('fill-opacity="0.4"')
    start = svg.rindex("<rect", 0, first_box)
    (tmp_path / "fig.svg").write_text(svg[:start] + svg[svg.index("/>", first_box) + 2:],
                                      encoding="utf-8")
    assert any("fig.svg" in p for p in wl.check_reports(r, decl, store, tmp_path))
