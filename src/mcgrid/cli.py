"""Command line front end: run a study grid, tabulate results, plot them.

Exit codes: 0 for a clean run, 2 when the run completed but some sub-jobs
errored (or the values fell back to a raw store), 1 for usage or
configuration problems.

``python -m mcgrid --worker`` starts the process backend's zygote, which
forks its workers (see ``executor``); ``mcgrid --worker`` is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import var_copula
from .analysis import (COMPONENTS, LabeledArray, finite_groups, ftable, get_array, to_csv,
                       to_latex_table)
from .executor import (BackendSpec, ExecutionError, ProtocolError, WORKER_FLAG,
                       run_study, stderr_monitor)
from .plot import PlotSpec, mayplot_svg
from .registry import get_study
from .results import CacheInvalidError, RawFallback, load
from .seeding import SeedSpec
from .var_copula import huber_mean, mad
from .varlist import VarList

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for completed-with-
    # errors, so usage problems are rerouted to exit 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    p = _Parser(prog="mcgrid",
                description="Run grids of simulation sub-jobs and report on them.")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    run = sub.add_parser("run", help="execute a study over its variable grid",
                         parents=[], add_help=True)
    run.add_argument("config", help="JSON file with {'study': ..., 'variables': [...]}")
    run.add_argument("--out", help="result file; reused as a cache when it already "
                                   "matches this study declaration")
    run.add_argument("--seed", default="seq",
                     help="'seq' (default), 'none', 'unseeded', or a JSON file "
                          "holding a seeding document")
    run.add_argument("--backend", choices=["seq", "threads", "procs"], default="seq")
    run.add_argument("--workers", type=int, default=4,
                     help="worker count for threads/procs (capped by "
                          "MCGRID_MAX_WORKERS)")
    run.add_argument("--block-size", type=int, default=1,
                     help="replications handed out per block; must divide n_sim")
    run.add_argument("--no-load-balancing", action="store_true",
                     help="pre-assign blocks round-robin instead of pulling "
                          "from a shared queue")
    run.add_argument("--virtual-order", choices=["rep-first", "row-first"],
                     default="rep-first",
                     help="rep-first keeps all replications of a grid row "
                          "consecutive in the virtual grid")
    run.add_argument("--n-sim", type=int, help="override the replication count")
    run.add_argument("--keep-seed", action="store_true",
                     help="record each sub-job's pre-call stream state")
    run.add_argument("--monitor", action="store_true",
                     help="progress lines on stderr, one per sub-job")

    report = argparse.ArgumentParser(add_help=False)  # what analyze and plot share
    report.add_argument("results", help="result file written by 'run'")
    report.add_argument("--component", choices=COMPONENTS, default="value")

    an = sub.add_parser("analyze", help="tabulate a result file", parents=[report])
    an.add_argument("--rows", required=True,
                    help="comma-separated row variables (last varies fastest)")
    an.add_argument("--cols", required=True,
                    help="comma-separated column variables (last varies fastest)")
    an.add_argument("--format", choices=["latex", "csv"], default="latex")
    an.add_argument("--out", help="output file (default stdout)")
    an.add_argument("--caption")
    an.add_argument("--tag", help="LaTeX label")
    an.add_argument("--fontsize", help="LaTeX size command, e.g. scriptsize")
    an.add_argument("--err-value", type=float, default=math.nan,
                    help="fill value for errored cells in value tables")

    pl = sub.add_parser("plot", help="render a result file as an SVG panel grid",
                        parents=[report])
    pl.add_argument("--x", required=True, help="variable on the x axis")
    pl.add_argument("--series", help="variable drawn as colored series")
    pl.add_argument("--rows", help="facet variable across panel rows")
    pl.add_argument("--cols", help="facet variable across panel columns")
    pl.add_argument("--slice", action="append", default=[], metavar="NAME=LABEL",
                    help="fix a variable at one level (repeatable)")
    pl.add_argument("--ylim", choices=["global", "local"], default="global")
    pl.add_argument("--log-y", action="store_true")
    pl.add_argument("--kind", choices=["auto", "box", "line"], default="auto")
    pl.add_argument("--ylab", default="value")
    pl.add_argument("--out", required=True, help="SVG output file")

    ex = sub.add_parser("example-config",
                        help="print the packaged example study configuration")
    ex.add_argument("--out", help="output file (default stdout)")
    return p


def _load_config(path: str) -> tuple[str, VarList]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config: {exc}") from exc  # exc names the path
    except ValueError as exc:  # not JSON, not UTF-8, or an int past Python's digit limit
        raise _UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "study" not in doc or "variables" not in doc:
        raise _UsageError(f"config {path!r} must be an object with 'study' and "
                          "'variables'")
    try:
        vl = VarList.from_canonical(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"config {path!r}: {exc}") from exc
    return doc["study"], vl


def _load_seed(spec: str) -> SeedSpec:
    if spec == "seq":
        return SeedSpec.seq()
    if spec == "none":
        return SeedSpec.none_reseed()
    if spec == "unseeded":
        return SeedSpec.unseeded()
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return SeedSpec.from_canonical(doc)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise _UsageError(f"--seed {spec!r}: expected 'seq', 'none', 'unseeded' "
                          f"or a seeding JSON file ({exc})") from exc


def _worker_cap(requested: int) -> int:
    cap = os.environ.get("MCGRID_MAX_WORKERS")
    if cap is None:
        return requested
    try:
        cap_n = int(cap)
    except ValueError:
        raise _UsageError(f"MCGRID_MAX_WORKERS={cap!r} is not an integer")
    if cap_n < 1:
        raise _UsageError(f"MCGRID_MAX_WORKERS={cap!r} must be >= 1")
    return min(requested, cap_n)


def cmd_run(args) -> int:
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise _UsageError(f"--out {args.out!r}: its directory does not exist")
    study_name, vl = _load_config(args.config)
    if args.n_sim is not None:
        vl = vl.with_n_sim(args.n_sim)
    try:
        study_fn = get_study(study_name)
    except (KeyError, ImportError, AttributeError, ValueError) as exc:
        raise _UsageError(f"unknown study {study_name!r}: {exc}") from exc
    seed = _load_seed(args.seed)
    kind = {"seq": "sequential", "threads": "threads", "procs": "processes"}[args.backend]
    workers = _worker_cap(args.workers) if kind != "sequential" else 1
    backend = BackendSpec(kind=kind, workers=workers, block_size=args.block_size,
                          load_balancing=not args.no_load_balancing)
    monitor = stderr_monitor if args.monitor else None

    try:
        result = run_study(vl, study_fn, seed=seed, backend=backend,
                           cache_path=args.out, keep_seed=args.keep_seed,
                           monitor=monitor,
                           rep_first=args.virtual_order == "rep-first")
    except (CacheInvalidError, ValueError) as exc:  # a file's problem names its path
        raise _UsageError(str(exc)) from exc

    n = result.n_subjobs
    if result.from_cache:
        print(f"cache hit: reused {n} sub-job records from {args.out} "
              f"(fingerprint {result.meta.fingerprint})")
    else:
        n_sim = vl.n_sim
        pool = "" if kind == "sequential" else f", {workers} workers"
        print(f"ran {n} sub-jobs ({n // n_sim} grid rows x {n_sim} replications) "
              f"on backend {args.backend}{pool}")
        if args.out:
            print(f"results written to {args.out}")
    errors, warnings = result.error_count(), result.warning_count()
    print(f"errors: {errors}, warnings: {warnings}")
    if isinstance(result, RawFallback):
        print(f"dense assembly not possible: {result.diagnostic}", file=sys.stderr)
        return 2
    return 2 if errors else 0


def _split_vars(text: str) -> list[str]:
    out = [t.strip() for t in text.split(",") if t.strip()]
    if not out:
        raise _UsageError(f"empty variable list {text!r}")
    return out


def _hub_mad(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """``huber (mad)`` of each row's finite values; ``NA`` for a row with none."""
    out = np.full(len(values), "NA", dtype=object)
    for rows, finite in finite_groups(values):
        out[rows] = [f"{c:.1f} ({m:.1f})" for c, m in
                     zip(huber_mean(finite).tolist(), mad(finite).tolist())]
    return out


def _load_store(path: str):
    try:
        res = load(path)
    except OSError as exc:
        raise _UsageError(f"cannot read results: {exc}") from exc  # exc names the path
    except ValueError as exc:
        raise _UsageError(exc.args[0]) from exc
    if isinstance(res, RawFallback):
        raise _UsageError(f"results {path!r} hold a raw fallback "
                          f"({res.diagnostic}); no dense analysis available")
    return res


def _component_array(store, component: str, err_value: float = math.nan):
    """The component ``analyze`` and ``plot`` report: values (errored cells
    set to ``err_value``), error and warning counts, or milliseconds."""
    if component not in ("error", "warning"):
        return get_array(store, component, err_value=err_value)
    counts = store.error_mask().astype(int) if component == "error" else store.warning_counts()
    return LabeledArray(dims=store.dims, data=counts.reshape(store.sizes, order="F"))


def cmd_analyze(args) -> int:
    # imported per call: perfbench/layers.py times analysis.collapse by patching it
    from .analysis import collapse

    store = _load_store(args.results)
    rows, cols = _split_vars(args.rows), _split_vars(args.cols)
    rep_name = store.meta.varlist.n_sim_name

    arr = _component_array(store, args.component, args.err_value)
    listed = set(rows) | set(cols)
    for name in [n for n in arr.dim_names if n not in listed]:
        if args.component == "value":
            if name != rep_name:
                raise _UsageError(f"value tables must place every variable; "
                                  f"{name!r} is neither a row nor a column")
            arr = collapse(arr, name, _hub_mad)
        else:
            arr = collapse(arr, name, np.sum)
    if args.component == "time":
        arr = _format_ms(arr)

    try:
        ft = ftable(arr, rows, cols)
    except (KeyError, ValueError) as exc:
        raise _UsageError(exc.args[0]) from exc

    if args.format == "latex":
        labels = {s.name: s.label for s in store.meta.varlist.specs}
        text = to_latex_table(ft, labels=labels, caption=args.caption,
                              tag=args.tag, fontsize=args.fontsize)
    else:
        text = to_csv(ft)
    _write_out(text, args.out)
    return 0


def _format_ms(arr):
    """Element-wise replacement of millisecond floats with %.0f strings."""
    data = np.array([f"{v:.0f}" for v in arr.data.ravel().tolist()], dtype=object)
    return LabeledArray(dims=arr.dims, data=data.reshape(arr.data.shape))


def cmd_plot(args) -> int:
    store = _load_store(args.results)
    arr = _component_array(store, args.component)
    for cut in args.slice:
        name, sep, label = cut.partition("=")
        if not sep:
            raise _UsageError(f"--slice {cut!r} must look like NAME=LABEL")
        try:
            arr = arr.slice(name.strip(), label.strip())
        except KeyError as exc:
            raise _UsageError(exc.args[0]) from exc
    spec = PlotSpec(x=args.x, series=args.series, rows=args.rows, cols=args.cols,
                    ylim=args.ylim, log_y=args.log_y, panel_kind=args.kind,
                    ylab=args.ylab)
    try:
        svg = mayplot_svg(arr, spec)
    except (KeyError, ValueError) as exc:
        raise _UsageError(exc.args[0]) from exc
    _write_out(svg, args.out)
    print(f"plot written to {args.out}")
    return 0


def cmd_example_config(args) -> int:
    text = json.dumps(var_copula.example_config(), indent=2) + "\n"
    _write_out(text, args.out)
    return 0


def _write_out(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads a lone -inf as an option
        if argv[i] == "--err-value" and argv[i + 1].lower() == "-inf":
            argv[i:i + 2] = [f"--err-value={argv[i + 1]}"]
    if WORKER_FLAG in argv:  # the zygote's one entry is python -m mcgrid --worker
        print(f"mcgrid: {WORKER_FLAG} is only for the process backend's zygote, started as "
              f"'python -m mcgrid {WORKER_FLAG}' with no other arguments", file=sys.stderr)
        return 1

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        handler = {"run": cmd_run, "analyze": cmd_analyze, "plot": cmd_plot,
                   "example-config": cmd_example_config}[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"mcgrid: {exc}", file=sys.stderr)
        return 1
    except (ExecutionError, ProtocolError) as exc:
        print(f"mcgrid: run aborted: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"mcgrid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
