"""Per-module instrumentation of mcgrid from outside, and the per-layer metrics.

Each wrapper sits on the name a caller looks up at call time: a module global
of the calling module (``mcgrid.executor.seed_for``), or a class attribute for
methods and classmethods (``PhysicalGrid.row_params``,
``SubJobRecord.from_doc``).  Only parent-side code is seen; spans inside worker
processes are out of reach from here.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np

from mcgrid import analysis, cli, executor, plot, results, seeding, var_copula, varlist
from perfbench.spans import Tracer, call_counts, durations, self_times


class _CountingReader:
    def __init__(self, stream, tracer: Tracer):
        self._stream, self._tracer = stream, tracer

    def read(self, n: int) -> bytes:
        data = self._stream.read(n)
        if data:
            self._tracer.add("executor.ipc_bytes", len(data))
        return data


def _canonical_json_name(parent: str | None) -> str:
    if parent == "results.save":
        return "results.canonical_json.save"
    if parent == "executor.encode_frame":
        return "results.canonical_json.frame"
    return "results.canonical_json.other"


def _from_doc_name(parent: str | None) -> str:
    return "results.from_doc" if parent == "results.load" else "executor.decode"


def instrument(t: Tracer) -> None:
    """Patch every boundary; ``t.restore()`` undoes it."""
    def span(name):
        return lambda fn: t.wrap(fn, name)

    def observed(name, observe):
        def make(fn):
            traced = t.wrap(fn, name)

            @functools.wraps(fn)
            def call(*args, **kwargs):
                out = traced(*args, **kwargs)
                observe(args, out)
                return out
            return call
        return make

    def read_frame(fn):
        traced = t.wrap(fn, "executor.read_frame")

        def call(stream):
            doc = traced(_CountingReader(stream, t))
            if doc is not None:
                t.add("executor.frames")
            return doc
        return call

    def frame_sent(args, out):
        t.add("executor.frames")
        t.add("executor.ipc_bytes", len(out))

    # seeding
    t.patch(executor, "seed_for", span("seeding.seed_for"))
    t.patch(seeding.RngStream, "from_state", span("seeding.from_state"))
    # executor: harness, scheduling, IPC
    t.patch(executor, "subjob", span("executor.subjob"))
    t.patch(executor, "do_call_we", span("executor.do_call_we"))
    t.patch(executor, "partition_blocks",
            observed("executor.partition_blocks",
                     lambda args, out: t.add("executor.blocks", len(out))))
    t.patch(executor, "encode_frame", observed("executor.encode_frame", frame_sent))
    t.patch(executor, "read_frame", read_frame)
    t.patch(results.SubJobRecord, "from_doc", span(_from_doc_name))
    # varlist
    for owner in (executor, results):
        t.patch(owner, "mk_grid", span("varlist.mk_grid"))
    t.patch(executor, "non_grid_args", span("varlist.non_grid_args"))
    t.patch(varlist.PhysicalGrid, "row_params", span("varlist.row_params"))
    t.patch(varlist.VarList, "validate", span("varlist.validate"))
    t.patch(varlist.VarList, "canonical", span("varlist.canonical"))
    # results
    t.patch(executor, "assemble", span("results.assemble"))
    t.patch(executor, "canonical_json", span(_canonical_json_name))
    t.patch(results, "canonical_json", span(_canonical_json_name))
    for owner in (executor, results):
        t.patch(owner, "save", observed(
            "results.save",
            lambda args, out: t.add("results.save.bytes", os.path.getsize(args[1]))))
    for owner in (results, cli):
        t.patch(owner, "load", span("results.load"))
    t.patch(executor, "maybe_read", span("results.maybe_read"))
    # analysis, plot, cli
    t.patch(cli, "get_array", span("analysis.get_array"))
    t.patch(analysis, "collapse", span("analysis.collapse"))
    for name in ("ftable", "to_latex_table", "to_csv"):
        t.patch(cli, name, span(f"analysis.{name}"))
    t.patch(cli, "mayplot_svg", observed(
        "plot.mayplot_svg", lambda args, out: t.add("plot.svg_bytes", len(out.encode()))))
    t.patch(plot, "boxplot_stats", span("plot.boxplot_stats"))
    t.patch(cli, "cmd_analyze", span("cli.cmd_analyze"))
    t.patch(cli, "cmd_plot", span("cli.cmd_plot"))
    # var_copula kernels (in-process backends only)
    t.patch(var_copula, "do_one_var", span("var_copula.do_one_var"))
    t.patch(var_copula, "sample_copula", observed(
        "var_copula.sample_copula",
        lambda args, out: t.add("var_copula.margin_elems.traced", args[2] * args[3])))
    t.patch(var_copula, "portfolio_loss", span("var_copula.portfolio_loss"))
    t.patch(var_copula, "quantile_type7", span("var_copula.quantile_type7"))


def time_ms_chars(store) -> int:
    """Characters the variable-width ``time_ms`` numbers take in a store's
    text; subtracted from byte counts before they are compared exactly."""
    return sum(len(results.canonical_json(float(r.time_ms))) for r in store.records)


# counts that must repeat exactly between traced pipelines of one seed; the
# byte counts are compared net of their time_ms characters
EXACT = ("seeding.seed_for.calls", "executor.subjob.calls", "executor.blocks",
         "executor.frames", "executor.ipc_bytes", "varlist.mk_grid.calls",
         "varlist.row_params.calls", "results.save.bytes", "results.from_doc.calls",
         "plot.boxplot_stats.calls", "plot.svg_bytes", "var_copula.do_one_var.calls")


def exact_counts(m: dict[str, float]) -> dict[str, float]:
    """The EXACT counts of one traced pipeline's metrics, byte counts net."""
    return {name: m.get(name + ".net", m[name]) for name in EXACT}


def traced_metrics(t: Tracer, run_start_ns: int, fresh) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline, plus the ``.net`` byte
    counts used by the exactness check."""
    spans = t.spans
    own = self_times(spans)
    calls = call_counts(spans)
    dur = durations(spans)

    def ms(name):
        return own.get(name, 0) / 1e6

    done = [s.end for s in spans if s.name in ("executor.subjob", "executor.read_frame")]
    chars = time_ms_chars(fresh)
    frames = t.counts["executor.frames"]
    saves, plots = max(calls["results.save"], 1), max(calls["plot.mayplot_svg"], 1)
    m = {
        "seeding.seed_for.calls": calls["seeding.seed_for"],
        "seeding.seed_for.self_ms": ms("seeding.seed_for"),
        "seeding.from_state.self_ms": ms("seeding.from_state"),
        "executor.subjob.calls": calls["executor.subjob"],
        "executor.subjob.self_ms": ms("executor.subjob"),
        "executor.do_call_we.self_ms": ms("executor.do_call_we"),
        "executor.blocks": t.counts["executor.blocks"],
        "executor.frames": frames,
        "executor.ipc_bytes": t.counts["executor.ipc_bytes"],
        "executor.encode_frame.self_ms": ms("executor.encode_frame"),
        "executor.read_frame.wait_ms": dur.get("executor.read_frame", 0) / 1e6,
        "executor.decode.self_ms": ms("executor.decode"),
        "executor.first_task_ms": (min(done) - run_start_ns) / 1e6 if done else 0.0,
        "varlist.mk_grid.calls": calls["varlist.mk_grid"],
        "varlist.row_params.calls": calls["varlist.row_params"],
        "varlist.self_ms": sum(v for k, v in own.items() if k.startswith("varlist.")) / 1e6,
        "results.assemble.self_ms": ms("results.assemble"),
        "results.canonical_json.save.self_ms": ms("results.canonical_json.save"),
        "results.canonical_json.frame.self_ms": ms("results.canonical_json.frame"),
        "results.save.bytes": t.counts["results.save.bytes"] / saves,
        "results.load.self_ms": ms("results.load"),
        "results.from_doc.calls": calls["results.from_doc"],
        "results.maybe_read.self_ms": ms("results.maybe_read"),
        "analysis.get_array.self_ms": ms("analysis.get_array"),
        "analysis.collapse.self_ms": ms("analysis.collapse"),
        "analysis.ftable.self_ms": ms("analysis.ftable"),
        "analysis.to_latex_table.self_ms": ms("analysis.to_latex_table"),
        "analysis.to_csv.self_ms": ms("analysis.to_csv"),
        "plot.mayplot_svg.self_ms": ms("plot.mayplot_svg"),
        "plot.boxplot_stats.calls": calls["plot.boxplot_stats"],
        "plot.svg_bytes": t.counts["plot.svg_bytes"] / plots,
        "cli.cmd_analyze.self_ms": ms("cli.cmd_analyze"),
        "cli.cmd_plot.self_ms": ms("cli.cmd_plot"),
        "var_copula.do_one_var.calls": calls["var_copula.do_one_var"],
        "var_copula.sample_copula.self_ms": ms("var_copula.sample_copula"),
        "var_copula.portfolio_loss.self_ms": ms("var_copula.portfolio_loss"),
        "var_copula.quantile_type7.self_ms": ms("var_copula.quantile_type7"),
        "var_copula.margin_elems.traced": t.counts["var_copula.margin_elems.traced"],
        "executor.ipc_bytes.net": t.counts["executor.ipc_bytes"] - (chars if frames else 0),
        "results.save.bytes.net": t.counts["results.save.bytes"] / saves - chars,
    }
    return m


def margin_elems(decl) -> int:
    """Sum of n*d over all sub-jobs of a var declaration, computed from the grid."""
    grid = varlist.mk_grid(decl.vl)
    return decl.vl.n_sim * sum(p["n"] * p["d"] for p in map(grid.row_params, range(grid.n_rows)))


def quantile_ns_per_elem(repeats: int = 7, size: int = 1 << 17) -> float:
    """Median time of ``std_normal_quantile`` on a fixed input, per element."""
    p = np.random.default_rng(12345).random(size)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        var_copula.std_normal_quantile(p)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / size
