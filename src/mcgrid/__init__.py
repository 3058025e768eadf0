"""mcgrid: declare, execute, persist and analyze grids of simulation sub-jobs.

A study is a function of (grid parameters, rng, warn sink).  Its variable list
spans a physical grid (cartesian product of the grid variables) replicated
``n_sim`` times into a virtual grid of sub-jobs, each run under a chosen
seeding discipline on a sequential, thread, or process backend.  Results are
dense labeled stores that persist byte-stably to JSON and flatten to LaTeX,
CSV, or SVG.
"""

import importlib

from . import var_copula  # noqa: F401  (registers the packaged studies)
from .executor import (BackendSpec, ExecutionError, ProcessPool,
                       ProtocolError, Sequential, ThreadPool, VirtualIndex,
                       do_call_we, partition_blocks,
                       run_study, stderr_monitor, virtual_index, worker_main)
from .registry import get_study, register_study, study_name
from .results import (CacheInvalidError, ErrorInfo, RawFallback, ResComparison,
                      ResultStore, StoreMeta, SubJobRecord, assemble,
                      canonical_json, do_res_equal, load, maybe_read, save,
                      study_fingerprint)
from .seeding import (RngStream, SeedSpec, StreamState, ambient_stream,
                      derive_state, derive_streams, seed_for)
from .varlist import (PhysicalGrid, VarList, VarSpec, format_levels, linear_of,
                      mk_grid, non_grid_args)

__version__ = "0.1.0"

# the report modules load on first use, so a process worker starts without them
_LAZY = {name: module for module, names in (
    ("analysis", ("FlatTable", "LabeledArray", "LongTable", "array2df", "collapse",
                  "ftable", "get_array", "latex_escape", "to_csv", "to_latex_table",
                  "varlist_to_latex")),
    ("plot", ("BoxStats", "PlotSpec", "boxplot_stats", "mayplot_svg")),
) for name in names}


def __getattr__(name: str):
    if name in ("analysis", "plot"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "VarSpec", "VarList", "PhysicalGrid", "mk_grid",
    "non_grid_args", "format_levels",
    "StreamState", "RngStream", "SeedSpec", "seed_for", "derive_state",
    "derive_streams", "ambient_stream",
    "register_study", "get_study", "study_name",
    "run_study", "BackendSpec", "Sequential", "ThreadPool", "ProcessPool",
    "VirtualIndex", "virtual_index", "linear_of", "partition_blocks",
    "do_call_we", "stderr_monitor", "worker_main",
    "ExecutionError", "ProtocolError",
    "SubJobRecord", "ErrorInfo", "ResultStore", "RawFallback", "StoreMeta",
    "assemble", "save", "load", "maybe_read", "do_res_equal", "ResComparison",
    "study_fingerprint", "canonical_json", "CacheInvalidError",
    "LabeledArray", "collapse", "get_array", "array2df", "LongTable",
    "FlatTable", "ftable", "to_latex_table", "varlist_to_latex", "to_csv",
    "latex_escape",
    "PlotSpec", "BoxStats", "boxplot_stats", "mayplot_svg",
    "__version__",
]
