"""Workloads, the closed-loop study pipeline and its correctness gate.

One pipeline is what a user of ``mcgrid run``/``analyze``/``plot`` pays for:
run the study, save the store, rerun with ``cache_path`` (a cache hit), then
three in-process CLI reports: a LaTeX value table, a CSV time table and an SVG
plot.  Each step starts when the previous one returns, and each is timed
between two speed probes (``perfbench.clock``).  The save, reload and report
steps are repeated in rounds.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import random
import shutil
import statistics
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mcgrid import analysis, cli, executor, results, var_copula
from mcgrid.seeding import RngStream, SeedSpec, seed_for
from mcgrid.varlist import VarList, mk_grid, non_grid_args
from perfbench import cheap
from perfbench.clock import Clock, Timing

HERE = Path(__file__).resolve().parent
WORKERS = 2
SAMPLE_CELLS = 64    # cheap-* cells whose values are recomputed per pipeline


@dataclass(frozen=True)
class Workload:
    name: str
    study: str      # "var" (packaged VaR example) or "cheap" (perfbench.cheap)
    backend: str    # BackendSpec kind
    rounds: int     # save/reload/report rounds per pipeline

    @property
    def run_probe(self) -> str | None:
        """The probe kind (perfbench/clock.py) that normalises the run step;
        None times it by wall clock.  The other steps are Python work."""
        if self.backend == "processes":
            return None     # the work is in worker processes, out of the probes' reach
        return "numpy" if self.study == "var" else "python"


# A var-* round takes ~0.2 s with its probes, a cheap-* round about a second.
WORKLOADS = {w.name: w for w in (
    Workload("var-seq", "var", "sequential", 4),
    Workload("var-procs", "var", "processes", 4),
    Workload("cheap-procs", "cheap", "processes", 2),
    Workload("cheap-threads", "cheap", "threads", 2),
)}


@dataclass(frozen=True)
class Reports:
    """The three CLI reports of a study: table variables and plot roles."""
    value: tuple[tuple[str, ...], tuple[str, ...]]    # LaTeX value table rows, cols
    time: tuple[tuple[str, ...], tuple[str, ...]]     # CSV time table rows, cols
    x: str
    series: str
    rows: str
    cols: str | None
    cut: tuple[str, str] | None                       # --slice NAME=LABEL
    log_y: bool
    extra: tuple[str, ...] = ()                       # more `analyze` options


REPORTS = {
    "var": Reports(value=(("family", "n", "d"), ("tau", "alpha")),
                   time=(("n", "d"), ("family", "tau")),
                   x="d", series="family", rows="n", cols="tau", cut=("alpha", "0.990"),
                   log_y=True, extra=("--fontsize", "scriptsize")),
    "cheap": Reports(value=(("b", "a"), ("k",)), time=(("b",), ("a",)),
                     x="b", series="k", rows="a", cols=None, cut=None, log_y=False),
}


@dataclass(frozen=True)
class Declaration:
    vl: VarList
    seed: SeedSpec
    backend: executor.BackendSpec

    @property
    def n_subjobs(self) -> int:
        return mk_grid(self.vl).n_rows * self.vl.n_sim

    @property
    def workers(self) -> int:
        return self.backend.workers


def declare(w: Workload, seed: int) -> Declaration:
    """The study declaration; ``seed`` becomes one seed integer per replication."""
    vl = var_copula.example_varlist() if w.study == "var" else cheap.varlist()
    rnd = random.Random(seed)
    spec = SeedSpec.per_rep_integer([rnd.getrandbits(63) for _ in range(vl.n_sim)])
    workers = 1 if w.backend == "sequential" else WORKERS
    return Declaration(vl, spec, executor.BackendSpec(w.backend, workers))


def study_fn(w: Workload):
    # looked up at every call, so a traced run passes the wrapped function
    return var_copula.do_one_var if w.study == "var" else cheap.cheap_study


@contextlib.contextmanager
def work_dir():
    path = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def warm_up(w: Workload, decl: Declaration, work: Path) -> None:
    """Two replications through run, save and load on the workload's backend."""
    res = executor.run_study(decl.vl.with_n_sim(2), study_fn(w), seed=decl.seed,
                             backend=decl.backend)
    results.save(res, work / "warm.json")
    results.load(work / "warm.json")


def report_args(w: Workload, store: Path, work: Path) -> list[tuple[str, list[str]]]:
    r = REPORTS[w.study]
    s = str(store)
    plot = ["--x", r.x, "--series", r.series, "--rows", r.rows]
    plot += ["--cols", r.cols] if r.cols else []
    plot += ["--slice", "=".join(r.cut)] if r.cut else []
    plot += ["--log-y"] if r.log_y else []
    return [
        ("analyze", ["analyze", s, "--rows", ",".join(r.value[0]), "--cols",
                     ",".join(r.value[1]), *r.extra, "--format", "latex",
                     "--out", str(work / "table.tex")]),
        ("analyze_time", ["analyze", s, "--component", "time", "--rows", ",".join(r.time[0]),
                          "--cols", ",".join(r.time[1]), "--format", "csv",
                          "--out", str(work / "time.csv")]),
        ("plot", ["plot", s, *plot, "--out", str(work / "fig.svg")]),
    ]


class StepFailed(RuntimeError):
    pass


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise StepFailed(f"mcgrid {argv[0]} exited {code}")
    return code


REPORT_STEPS = ("analyze", "analyze_time", "plot")
ROUND = ("save", "load", *REPORT_STEPS)


@dataclass
class Pipeline:
    start_ns: int                 # perf_counter_ns when the run step began
    run_probe: str | None
    run: Timing | None = None
    rounds: list[dict[str, Timing]] = field(default_factory=list)   # step -> timing
    fresh: object = None
    cached: object = None
    failed_step: str | None = None
    error: str | None = None

    @property
    def complete(self) -> bool:
        return self.failed_step is None

    @property
    def steps_done(self) -> int:
        return (self.run is not None) + sum(len(r) for r in self.rounds)

    def samples(self, name: str, raw: bool = False) -> list[float]:
        """Normalised (or, with ``raw``, wall) seconds of ``run``, or of
        ``save``, ``load`` or ``report`` (the three CLI calls together) in
        every round."""
        if name == "run":
            kind = None if raw else self.run_probe
            return [self.run.norm_s(kind) if kind else self.run.wall_s]

        def value(t: Timing) -> float:
            return t.wall_s if raw else t.norm_s()
        if name == "report":
            return [sum(value(r[s]) for s in REPORT_STEPS) for r in self.rounds]
        return [value(r[name]) for r in self.rounds]

    def phase(self, name: str) -> float:
        """The median of :meth:`samples`; ``pipeline`` is the run plus the
        median save, reload and report."""
        if name == "pipeline":
            return sum(self.phase(n) for n in ("run", "save", "load", "report"))
        return statistics.median(self.samples(name))


def steps_per_pipeline(w: Workload) -> int:
    return 1 + len(ROUND) * w.rounds


def run_pipeline(w: Workload, decl: Declaration, work: Path) -> Pipeline:
    """The run, then ``w.rounds`` rounds of save, cache-hit reload and reports;
    the first step that raises ends the pipeline."""
    for p in work.iterdir():
        p.unlink()
    store = work / "results.json"
    fn = study_fn(w)
    pipe = Pipeline(start_ns=0, run_probe=w.run_probe)
    steps = [
        ("save", lambda: results.save(pipe.fresh, store)),
        ("load", lambda: executor.run_study(decl.vl, fn, seed=decl.seed, backend=decl.backend,
                                            cache_path=str(store))),
        *[(name, lambda a=argv: _cli(a)) for name, argv in report_args(w, store, work)],
    ]
    current = "run"
    # every step starts from the same collector state, as a fresh `mcgrid`
    # process would; the collections are not timed
    gc.collect()
    clock = Clock(("python", w.run_probe) if w.run_probe == "numpy" else ("python",))
    try:
        pipe.fresh, pipe.run = clock.time(
            lambda: executor.run_study(decl.vl, fn, seed=decl.seed, backend=decl.backend))
        pipe.start_ns = clock.started_ns
        for _ in range(w.rounds):
            times: dict[str, Timing] = {}
            pipe.rounds.append(times)
            for current, step in steps:
                gc.collect()
                out, times[current] = clock.time(step)
                if current == "load":
                    pipe.cached = out
    except Exception as exc:  # a failing step is a counted outcome, not a crash
        pipe.failed_step, pipe.error = current, f"{type(exc).__name__}: {exc}"
    return pipe


# ---------------------------------------------------------------------------
# correctness gate

def check(w: Workload, decl: Declaration, pipe: Pipeline, work: Path,
          seed: int) -> tuple[int, list[str]]:
    """Wrong or missing sub-job outcomes, and a description of every problem.

    A pipeline that stopped early is checked no further; its failed steps are
    counted by the caller.
    """
    if not pipe.complete:
        return 0, [f"step {pipe.failed_step} failed: {pipe.error}"]
    # a wrong cache-hit store or report counts as one wrong outcome each
    problems = []
    same = results.do_res_equal(pipe.fresh, pipe.cached)
    if not same or not pipe.cached.from_cache:
        problems.append(f"cache-hit store differs from the fresh store: {same.report}")
    problems += check_reports(REPORTS[w.study], decl, pipe.fresh, work)
    if w.study == "var":
        wrong, more = _check_var(decl, pipe.fresh)
    else:
        wrong, more = _check_cheap(decl, pipe.fresh, random.Random(seed))
    return wrong + len(problems), problems + more


def _check_cheap(decl: Declaration, store, rnd: random.Random) -> tuple[int, list[str]]:
    """Errors and warnings of every cell, values of a sample of cells, each
    recomputed from the declaration and the public seeding API."""
    grid = mk_grid(decl.vl)
    base = non_grid_args(decl.vl)
    n_sim = decl.vl.n_sim
    wrong, problems = 0, []

    def row_params(row):
        params = dict(grid.row_params(row))
        params.update(base)
        return params

    for row in range(grid.n_rows):
        params = row_params(row)
        want_error = (results.ErrorInfo(cheap.error_message(params), "ValueError")
                      if cheap.fails(params) else None)
        want_warnings = cheap.expected_warnings(params)
        for rep in range(1, n_sim + 1):
            rec = store.record(row, rep)
            if rec.error != want_error or rec.warnings != want_warnings \
                    or (want_error is None) != (rec.value is not None):
                wrong += 1
                if len(problems) < 3:
                    problems.append(f"cheap row {row} rep {rep}: got {rec.error!r}, "
                                    f"{rec.warnings!r}; want {want_error!r}, {want_warnings!r}")
    for _ in range(SAMPLE_CELLS):
        row, rep = rnd.randrange(grid.n_rows), rnd.randrange(1, n_sim + 1)
        params = row_params(row)
        if cheap.fails(params):
            continue
        u = RngStream.from_state(seed_for(decl.seed, rep)).uniform()
        want = np.asarray([params["scale"] * u * k for k in params["k"]])
        got = store.record(row, rep).value
        if got is None or not np.array_equal(np.asarray(got), want):
            wrong += 1
            if len(problems) < 6:
                problems.append(f"cheap row {row} rep {rep}: value {got!r}, want {want!r}")
    return wrong, problems


def _check_var(decl: Declaration, store) -> tuple[int, list[str]]:
    """Per-cell Huber centers against the reference table.

    The reference holds, per (family, n, d, tau, alpha) cell, the mean Huber
    center over independent seeds and the pooled MAD of the replications.
    With dev = (center - ref) / mad, every cell must have
    ``|dev| <= tolerance_mad`` and the root mean square of dev over all cells
    must be at most ``rms_tolerance_mad``; the second catches a systematic
    error (a kernel 10% off) that hides inside the per-cell scatter.  Copula
    floats are never compared exactly.
    """
    with open(HERE / "var_reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    tol = ref["tolerance_mad"]
    n_sim = decl.vl.n_sim
    wrong = sum(1 for r in store.records if r.error is not None or r.value is None)
    problems = [f"var: {wrong} sub-jobs errored"] if wrong else []
    centers = analysis.collapse(analysis.get_array(store, "value"), decl.vl.n_sim_name,
                                var_copula.huber_mean)
    index = {name: {lab: i for i, lab in enumerate(labels)} for name, labels in centers.dims}
    bad_rows, devs = set(), []
    for cell in ref["cells"]:
        key = tuple(index[name][cell[name]] for name in centers.dim_names)
        got = float(centers.data[key])
        devs.append((got - cell["center"]) / cell["mad"])
        if not abs(devs[-1]) <= tol:
            bad_rows.add(tuple(cell[n] for n in ("family", "n", "d", "tau")))
            if len(problems) < 4:
                problems.append(f"var cell {cell}: center {got:.4f} outside "
                                f"{tol} MAD of the reference")
    if len(ref["cells"]) != centers.data.size:
        problems.append(f"reference has {len(ref['cells'])} cells, store {centers.data.size}")
    rms = float(np.sqrt(np.mean(np.square(devs))))
    if not rms <= ref["rms_tolerance_mad"]:
        problems.append(f"var: rms deviation {rms:.3f} MAD over all cells exceeds "
                        f"{ref['rms_tolerance_mad']}")
        return decl.n_subjobs, problems
    return wrong + n_sim * len(bad_rows), problems


# ---------------------------------------------------------------------------
# the reports, recomputed from the store's records

def _levels(vl: VarList, names) -> list[dict[str, int]]:
    """Every combination of level indices of ``names``, last name fastest."""
    combos = [{}]
    for name in names:
        combos = [{**c, name: i} for c in combos for i in range(len(vl[name].values))]
    return combos


def _rep_values(decl: Declaration, store, levels: dict[str, int], component: str) -> np.ndarray:
    """One cell's value (or ``time_ms``) over the replications, NaN where a
    sub-job failed; ``levels`` fixes every grid variable (and inner variable)."""
    grid = mk_grid(decl.vl)
    row = grid.encode([levels[name] for name in grid.var_names])
    out = []
    for rep in range(1, decl.vl.n_sim + 1):
        rec = store.record(row, rep)
        if component == "time":
            out.append(float(rec.time_ms))
        else:
            inner = tuple(levels[s.name] for s in decl.vl.specs if s.vtype == "inner")
            out.append(np.nan if rec.value is None else float(np.asarray(rec.value)[inner]))
    return np.asarray(out)


def _value_cell(values: np.ndarray) -> str:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return "NA"
    return f"{var_copula.huber_mean(finite):.1f} ({var_copula.mad(finite):.1f})"


def _expected_body(decl, store, rows, cols, component) -> list[list[str]]:
    def cell(levels):
        values = _rep_values(decl, store, levels, component)
        return f"{values.sum():.0f}" if component == "time" else _value_cell(values)
    return [[cell({**r, **c}) for c in _levels(decl.vl, cols)]
            for r in _levels(decl.vl, rows)]


def _latex_body(text: str) -> list[list[str]]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == r"\midrule")
    end = next(i for i, line in enumerate(lines) if line.strip() == r"\bottomrule")
    body = []
    for line in lines[start + 1:end]:
        line = line.split(r" \addlinespace")[0].strip()
        body.append(line.removesuffix(r"\\").strip().split(" & "))
    return body


def _compare_body(name: str, got: list[list[str]], want: list[list[str]]) -> list[str]:
    if len(got) != len(want):
        return [f"report {name}: {len(got)} body rows, want {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if g[-len(w):] != w:
            return [f"report {name} row {i}: cells {g[-len(w):]}, want {w}"]
    return []


def check_reports(r: Reports, decl: Declaration, store, work: Path) -> list[str]:
    """Every cell of the two tables, and the panels and boxes of the plot,
    against what the fresh store's records give; one problem per wrong
    report."""
    problems = []
    try:
        tex = (work / "table.tex").read_text(encoding="utf-8")
        with open(work / "time.csv", encoding="utf-8", newline="") as fh:
            time_rows = list(csv.reader(fh))
        svg = ET.parse(work / "fig.svg").getroot()
        got_tex = _latex_body(tex)
    except (OSError, ET.ParseError, StopIteration) as exc:
        return [f"reports missing or malformed: {type(exc).__name__}: {exc}"]
    problems += _compare_body("table.tex", got_tex,
                              _expected_body(decl, store, *r.value, "value"))
    problems += _compare_body("time.csv", time_rows[len(r.time[1]) + 1:],
                              _expected_body(decl, store, *r.time, "time"))

    # one background rect per panel; one translucent box rect per
    # (panel, x, series) cell that has a value to plot
    fixed = {}
    if r.cut:
        fixed[r.cut[0]] = decl.vl[r.cut[0]].level_labels().index(r.cut[1])
    roles = [v for v in (r.rows, r.cols, r.x, r.series) if v]
    want_panels = len(_levels(decl.vl, [v for v in (r.rows, r.cols) if v]))
    want_boxes = 0
    for levels in _levels(decl.vl, roles):
        values = _rep_values(decl, store, {**levels, **fixed}, "value")
        values = values[np.isfinite(values)]
        want_boxes += bool((values[values > 0] if r.log_y else values).size)
    rects = [e for e in svg.iter() if e.tag.rsplit("}", 1)[-1] == "rect"]
    panels = sum(e.get("id", "").startswith("bg-") for e in rects)
    boxes = sum(e.get("class") == "data" for e in rects)
    if (panels, boxes) != (want_panels, want_boxes):
        problems.append(f"report fig.svg: {panels} panels and {boxes} boxes, "
                        f"want {want_panels} and {want_boxes}")
    return problems
