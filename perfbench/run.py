"""Closed-loop pipeline benchmark for mcgrid.

    python3 perfbench/run.py --workload var-seq --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 50 --trace 1

Run from the repository root.  One process runs one workload: one pipeline
at a time (run, save, cache-hit reload, three CLI reports), each step starting
when the previous one returns, with at most two workers.  Times are
normalised by the machine's speed around each step (perfbench/clock.py).
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` the per-layer metrics, from a second set of pipelines whose
module boundaries are wrapped, and checks that their exact counts repeat in a
second process.  Every pipeline's outputs pass the correctness gate, or the
command exits 1.  ``--workload all`` runs each workload in its own process.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

WORKLOAD_NAMES = ("var-seq", "var-procs", "cheap-procs", "cheap-threads")
SETUP_SAMPLES = 7
MIN_PIPELINES = 3          # untraced pipelines per --trace 0 run
MIN_TRACE_PIPELINES = 2    # per half of a --trace 1 run
CHILD_TIMEOUT_S = 170


def _declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def _import_mcgrid():
    """Import mcgrid from this checkout's src/, or exit 1 without a result."""
    try:
        import mcgrid
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mcgrid from {ROOT / 'src'}: {exc}")
    if not Path(mcgrid.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: mcgrid imported from {mcgrid.__file__}, not from "
                 f"{ROOT / 'src'}")
    return mcgrid


def machine_block() -> dict:
    def read(path) -> str | None:
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(idx / "type") != "Instruction":
            caches[int(read(idx / "level") or 0)] = read(idx / "size")
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get(2),
        "llc": caches[max(caches)] if caches else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mcgrid_max_workers": os.environ.get("MCGRID_MAX_WORKERS"),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _child(args, flag: str) -> dict:
    """The last line of a child process of this script, as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), flag,
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_probe(args) -> int:
    """Set-up time of this fresh process: import, declaration and warm-up,
    timed between two speed probes (the probe code is imported first)."""
    from perfbench.clock import Clock
    clock = Clock()

    def setup():
        _import_mcgrid()
        from perfbench import workloads
        w = workloads.WORKLOADS[args.workload]
        decl = workloads.declare(w, args.seed)
        with workloads.work_dir() as work:
            workloads.warm_up(w, decl, work)

    _, timing = clock.time(setup)
    print(json.dumps({"setup_s": timing.norm_s()}))
    return 0


def counts_probe(args) -> int:
    """One traced pipeline in a fresh process; prints its exact counts."""
    _import_mcgrid()
    from perfbench import layers
    from perfbench import workloads as wl
    from perfbench.spans import Tracer
    w = wl.WORKLOADS[args.workload]
    decl = wl.declare(w, args.seed)
    tracer = Tracer()
    with wl.work_dir() as work:
        wl.warm_up(w, decl, work)
        layers.instrument(tracer)
        try:
            pipe = wl.run_pipeline(w, decl, work)
        finally:
            tracer.restore()
    if not pipe.complete:
        sys.exit(f"perfbench: traced pipeline failed: {pipe.error}")
    print(json.dumps(layers.exact_counts(
        layers.traced_metrics(tracer, pipe.start_ns, pipe.fresh))))
    return 0


def run_one(args) -> int:
    e2e_units, layer_units = _declared_metrics()
    _import_mcgrid()
    from perfbench import workloads as wl
    w = wl.WORKLOADS[args.workload]
    machine = machine_block()
    machine["loadavg_before"] = os.getloadavg()

    attempted = failed = 0
    problems: list[str] = []

    def checked(pipe, work):
        nonlocal attempted, failed
        wrong, found = wl.check(w, decl, pipe, work, args.seed)
        steps = wl.steps_per_pipeline(w)
        attempted += decl.n_subjobs + steps
        failed += wrong + steps - pipe.steps_done
        problems.extend(found)
        return pipe

    def loop(budget_s: float, minimum: int, make) -> list:
        """Pipelines until the next one would end past the budget."""
        out, took, t_end = [], [], time.perf_counter() + budget_s
        while len(out) < minimum or time.perf_counter() + _median(took) <= t_end:
            t0 = time.perf_counter()
            out.append(make())
            took.append(time.perf_counter() - t0)
            if not out[-1].complete:
                break
        return out

    setup = [] if args.trace else [_child(args, "--setup-probe")["setup_s"]
                                   for _ in range(SETUP_SAMPLES)]
    decl = wl.declare(w, args.seed)
    with wl.work_dir() as work:
        wl.warm_up(w, decl, work)
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = loop(budget, MIN_TRACE_PIPELINES if args.trace else MIN_PIPELINES,
                     lambda: checked(wl.run_pipeline(w, decl, work), work))
        traced = []
        if args.trace:
            from perfbench import layers
            from perfbench.spans import Tracer

            def traced_pipeline():
                tracer = Tracer()
                layers.instrument(tracer)
                try:
                    pipe = wl.run_pipeline(w, decl, work)
                finally:
                    tracer.restore()
                checked(pipe, work)
                if pipe.complete:
                    traced.append(layers.traced_metrics(tracer, pipe.start_ns, pipe.fresh))
                return pipe

            tpipes = loop(args.seconds / 2, MIN_TRACE_PIPELINES, traced_pipeline)
    if args.trace and traced:
        try:
            other = _child(args, "--counts-probe")
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            problems.append(f"second traced process failed: {exc}")
            other = {}
        mine = layers.exact_counts(traced[0])
        for key in sorted(set(mine) | set(other)):
            if mine.get(key) != other.get(key):
                problems.append(f"exact count {key} differs between two processes "
                                f"of one seed: {mine.get(key)} and {other.get(key)}")
    machine["loadavg_after"] = os.getloadavg()

    done = [p for p in plain if p.complete]
    if args.trace:
        metrics, counts = _layer_metrics(w, decl, done, tpipes, traced, problems)
        units = layer_units
    else:
        metrics, counts = _end_to_end(w, decl, done, setup, attempted, failed)
        units = e2e_units
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                        f"BENCHMARK.json")
    correct = not problems and failed == 0

    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine " + json.dumps(machine))
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>16.6g} {units.get(name, '?'):6s} {counts[name]}")
    for p in problems:
        print(f"MISMATCH {p}", file=sys.stderr)
    print(f"failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units.get(k, "?")}
                    for k in sorted(metrics)},
    }))
    return 0 if correct else 1


def _end_to_end(w, decl, done, setup, attempted, failed):
    n = len(done)
    metrics = {
        "pipeline_s": _median([p.phase("pipeline") for p in done]),
        "subjobs_per_s": _median([decl.n_subjobs / p.phase("run") for p in done]),
    }
    counts = {k: f"median of {n} pipelines" for k in metrics}
    if w.run_probe:
        wall = _median([decl.n_subjobs / p.samples("run", raw=True)[0] for p in done])
        counts["subjobs_per_s"] += f"; wall {wall:.6g}"
    else:
        counts["subjobs_per_s"] += "; run timed by wall clock"
    for name in ("save", "load", "report"):
        metrics[f"{name}_s"] = _median([t for p in done for t in p.samples(name)])
        wall = _median([t for p in done for t in p.samples(name, raw=True)])
        counts[f"{name}_s"] = f"median of {n * w.rounds} rounds; wall {wall:.6g}"
    metrics["setup_s"] = _median(setup)
    counts["setup_s"] = f"median of {len(setup)} fresh processes"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts["peak_rss_mb"] = "benchmark process, workers excluded"
    metrics["ok_frac"] = 1 - failed / max(attempted, 1)
    counts["ok_frac"] = f"1 - {failed}/{attempted} failed"
    return metrics, counts


def _layer_metrics(w, decl, done, tpipes, traced, problems):
    from perfbench import layers
    if not traced:
        problems.append("no traced pipeline completed")
        return {}, {}
    for name in layers.EXACT:
        values = {layers.exact_counts(m)[name] for m in traced}
        if len(values) != 1:
            problems.append(f"exact count {name} differs between traced pipelines "
                            f"of one seed: {sorted(values)}")
    metrics = {k: _median([m[k] for m in traced]) for k in traced[0]
               if not k.endswith(".net") and k != "var_copula.margin_elems.traced"}
    counts = {k: f"median of {len(traced)} traced" for k in metrics}
    counts.update({k: f"exact, repeated in {len(traced)} traced and in a second process"
                   for k in layers.EXACT})
    for k in ("executor.ipc_bytes", "results.save.bytes"):
        counts[k] += " (net of time_ms digits)"

    # from the untraced pipelines: the program's own time_ms against wall time
    study_ms = [sum(r.time_ms for r in p.fresh.records) for p in done]
    wall_ms = [decl.workers * p.run.wall_s * 1000 for p in done]
    metrics["executor.study_ms"] = _median(study_ms)
    metrics["executor.overhead_us_per_subjob"] = _median(
        [(wm - sm) * 1000 / decl.n_subjobs for wm, sm in zip(wall_ms, study_ms)])
    metrics["executor.worker_busy_frac"] = _median(
        [sm / wm for wm, sm in zip(wall_ms, study_ms)])
    for k in ("executor.study_ms", "executor.overhead_us_per_subjob",
              "executor.worker_busy_frac"):
        counts[k] = f"median of {len(done)} untraced (wall time)"

    var = w.study == "var"
    metrics["var_copula.margin_elems"] = layers.margin_elems(decl) if var else 0
    counts["var_copula.margin_elems"] = "computed from the grid"
    observed = {m["var_copula.margin_elems.traced"] for m in traced}
    if w.backend != "processes" and observed != {metrics["var_copula.margin_elems"]}:
        problems.append(f"traced n*d {sorted(observed)} differs from the computed "
                        f"{metrics['var_copula.margin_elems']}")
    metrics["var_copula.std_normal_quantile.ns_per_elem"] = layers.quantile_ns_per_elem()
    counts["var_copula.std_normal_quantile.ns_per_elem"] = "median of 7 direct calls"
    untraced_s = _median([p.phase("pipeline") for p in done])
    traced_s = _median([p.phase("pipeline") for p in tpipes if p.complete])
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1 if untraced_s else 0.0
    counts["trace.overhead_frac"] = "traced / untraced pipeline_s - 1"
    return metrics, counts


def run_all(args) -> int:
    """Every workload in a fresh process, so no peak RSS leaks across them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S * 2)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return 1
        total["correct"] &= res["correct"] and proc.returncode == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measuring time; a run always completes its minimum pipelines")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--counts-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.counts_probe:
        return counts_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
