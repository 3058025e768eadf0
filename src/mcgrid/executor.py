"""Execution of the virtual grid: harness, blocks, and backends.

The virtual grid stacks ``n_sim`` replications of the physical grid; one
virtual cell is one sub-job.  ``rep_first=True`` places all replications of a
grid row consecutively (linear = row * n_sim + rep - 1); ``rep_first=False``
interleaves rows within a replication (linear = (rep - 1) * n_G + row).

Work is partitioned into blocks of ``block_size`` consecutive replications of
a single grid row (``block_size`` must divide ``n_sim``).  Three backends run
the blocks: in-process sequentially, on a thread pool, or on spawned worker
processes speaking a length-prefixed frame protocol over their standard pipes.
With load balancing (default) blocks are pulled from a shared queue as workers
become free; without it they are pre-assigned round-robin.  Either way the
assembled results are identical for deterministic studies; only timing fields
may differ.

Frame protocol: 4-byte big-endian payload length, then the payload, a
canonical-JSON document (the same text family as the result files).  Frames
above 64 MiB are a protocol error.  A worker that dies mid-run aborts the run
with a diagnostic; there is no mid-run respawn or retry.
"""

from __future__ import annotations

import json
import os
import queue
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import registry
from .results import (ErrorInfo, RawFallback, ResultStore, SubJobRecord,
                      assemble, canonical_json, maybe_read, save,
                      study_fingerprint)
from .seeding import RngStream, SeedSpec, ambient_stream, seed_for
from .varlist import VarList, mk_grid, non_grid_args

MAX_FRAME = 64 * 1024 * 1024
WORKER_FLAG = "--worker"


class ProtocolError(RuntimeError):
    """Malformed traffic on a worker pipe."""


class ExecutionError(RuntimeError):
    """A backend failed (worker death, unusable study for the backend, ...)."""


def default_timer() -> float:
    """Monotonic wall clock in milliseconds."""
    return time.perf_counter_ns() / 1e6


def stderr_monitor(vidx: "VirtualIndex", record: SubJobRecord) -> None:
    print(f"i={vidx.linear}, time={record.time_ms:.0f}ms", file=sys.stderr)


# ---------------------------------------------------------------------------
# virtual indexing and blocks

@dataclass(frozen=True)
class VirtualIndex:
    linear: int
    row: int   # physical grid row, 0-based
    rep: int   # replication, 1-based


def virtual_index(linear: int, n_G: int, n_sim: int, rep_first: bool) -> VirtualIndex:
    if not 0 <= linear < n_G * n_sim:
        raise IndexError(f"linear index {linear} out of range [0, {n_G * n_sim})")
    if rep_first:
        return VirtualIndex(linear, linear // n_sim, linear % n_sim + 1)
    return VirtualIndex(linear, linear % n_G, linear // n_G + 1)


def linear_of(row: int, rep: int, n_G: int, n_sim: int, rep_first: bool) -> int:
    if not 0 <= row < n_G:
        raise IndexError(f"grid row {row} out of range [0, {n_G})")
    if not 1 <= rep <= n_sim:
        raise IndexError(f"replication {rep} out of range [1, {n_sim}]")
    return row * n_sim + rep - 1 if rep_first else (rep - 1) * n_G + row


@dataclass(frozen=True)
class Block:
    """``size`` consecutive replications of one grid row."""

    row: int
    rep_start: int  # 1-based
    size: int

    def indices(self, n_G: int, n_sim: int, rep_first: bool) -> list[VirtualIndex]:
        return [VirtualIndex(linear_of(self.row, rep, n_G, n_sim, rep_first), self.row, rep)
                for rep in range(self.rep_start, self.rep_start + self.size)]


def partition_blocks(n_G: int, n_sim: int, block_size: int, rep_first: bool) -> list[Block]:
    """Cover the virtual grid exactly once, ordered by first linear index."""
    if block_size < 1 or n_sim % block_size != 0:
        raise ValueError(f"block size {block_size} must divide n_sim {n_sim}")
    chunks = n_sim // block_size
    if rep_first:
        return [Block(row, 1 + c * block_size, block_size)
                for row in range(n_G) for c in range(chunks)]
    return [Block(row, 1 + c * block_size, block_size)
            for c in range(chunks) for row in range(n_G)]


# ---------------------------------------------------------------------------
# harness

def do_call_we(study_fn, params: dict, rng, timer=None):
    """Call the study function capturing value/error/warnings/time.

    Nothing escapes: exceptions become error records, warnings emitted through
    the sink are collected in order, and the timing covers exactly the call.
    Faults in the harness itself are tagged "harness".
    """
    timer = timer or default_timer
    warnings_list: list[str] = []

    def warn(message):
        warnings_list.append(str(message))

    try:
        t0 = timer()
    except Exception as exc:
        return None, ErrorInfo(f"timer failed: {exc}", "harness"), tuple(warnings_list), 0.0

    value = None
    error = None
    try:
        value = study_fn(params, rng, warn)
    except Exception as exc:
        error = ErrorInfo(str(exc) or type(exc).__name__, type(exc).__name__)

    try:
        t1 = timer()
        time_ms = float(t1 - t0)
        if not (time_ms >= 0.0 and np.isfinite(time_ms)):
            time_ms = 0.0
    except Exception as exc:
        return None, ErrorInfo(f"timer failed: {exc}", "harness"), tuple(warnings_list), 0.0

    if error is None:
        try:
            value = _normalize_value(value)
        except Exception as exc:
            value, error = None, ErrorInfo(f"unusable study value: {exc}", "invalid-return")
    return value, error, tuple(warnings_list), time_ms


def _normalize_value(value):
    if value is None:
        raise ValueError("study function returned no value")
    arr = np.asarray(value, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


_DERIVE = object()


def subjob(vidx: VirtualIndex, row_params: dict, base_args: dict, seed_spec: SeedSpec,
           keep_seed: bool, study_fn, timer=None, monitor=None, *,
           state=_DERIVE) -> SubJobRecord:
    """Run one sub-job: seed, call through the harness, record.

    ``state`` is ``seed_for(seed_spec, vidx.rep)`` when the caller has already
    derived it; by default it is derived here.
    """
    params = dict(row_params)
    params.update(base_args)
    if state is _DERIVE:
        state = seed_for(seed_spec, vidx.rep)
    if state is None:
        rng = ambient_stream()
        seed_hex = rng.state.to_hex() if keep_seed and seed_spec.kind != "unseeded" else None
    else:
        rng = RngStream.from_state(state)
        seed_hex = state.to_hex() if keep_seed else None
    value, error, warnings, time_ms = do_call_we(study_fn, params, rng, timer)
    rec = SubJobRecord(value=value, error=error, warnings=warnings,
                       time_ms=time_ms, seed=seed_hex)
    if monitor is not None:
        monitor(vidx, rec)
    return rec


# ---------------------------------------------------------------------------
# backends

@dataclass(frozen=True)
class BackendSpec:
    kind: str = "sequential"       # sequential | threads | processes
    workers: int = 1
    block_size: int = 1
    load_balancing: bool = True

    def validate(self, n_sim: int) -> list[str]:
        problems = []
        if self.kind not in ("sequential", "threads", "processes"):
            problems.append(f"unknown backend kind {self.kind!r}")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if self.block_size < 1 or n_sim % self.block_size != 0:
            problems.append(f"block size {self.block_size} must divide n_sim {n_sim}")
        return problems


def Sequential(block_size: int = 1) -> BackendSpec:
    return BackendSpec("sequential", 1, block_size)


def ThreadPool(workers: int, block_size: int = 1, load_balancing: bool = True) -> BackendSpec:
    return BackendSpec("threads", workers, block_size, load_balancing)


def ProcessPool(workers: int, block_size: int = 1, load_balancing: bool = True) -> BackendSpec:
    return BackendSpec("processes", workers, block_size, load_balancing)


_run_active = threading.Lock()


def run_study(vl: VarList, study_fn, *, seed: SeedSpec | None = None,
              backend: BackendSpec | None = None, cache_path=None,
              keep_seed: bool = False, monitor=None, rep_first: bool = True,
              timer=None) -> ResultStore | RawFallback:
    """Run the whole virtual grid and assemble (and optionally persist) results.

    When ``cache_path`` names an existing file whose fingerprint matches this
    study declaration, the persisted results are returned without running
    anything (``from_cache`` is set on the returned object); a mismatching
    fingerprint raises CacheInvalidError.  Fresh results are saved to
    ``cache_path`` when given.  Nested calls are rejected: one live backend
    per process.
    """
    seed = seed if seed is not None else SeedSpec.seq()
    backend = backend if backend is not None else Sequential()
    problems = vl.validate()
    problems += seed.validate(vl.n_sim)
    problems += backend.validate(vl.n_sim)
    if problems:
        raise ValueError("; ".join(problems))

    fingerprint = study_fingerprint(vl, rep_first, seed)
    if cache_path is not None:
        cached = maybe_read(cache_path, fingerprint)
        if cached is not None:
            return cached

    if not _run_active.acquire(blocking=False):
        raise RuntimeError("nested run_study calls are not supported "
                           "(one live backend per process)")
    try:
        grid = mk_grid(vl)
        n_G, n_sim = grid.n_rows, vl.n_sim
        blocks = partition_blocks(n_G, n_sim, backend.block_size, rep_first)
        base_args = non_grid_args(vl)
        # seed_for depends only on (seed, rep): derive each replication once
        states = [seed_for(seed, rep) for rep in range(1, n_sim + 1)]
        ctx = _RunContext(grid=grid, n_G=n_G, n_sim=n_sim, rep_first=rep_first,
                          base_args=base_args, seed=seed, states=states,
                          keep_seed=keep_seed, study_fn=study_fn, timer=timer,
                          monitor=monitor)
        if backend.kind == "sequential":
            records = _run_sequential(ctx, blocks)
        elif backend.kind == "threads":
            records = _run_threads(ctx, blocks, backend)
        else:
            records = _run_processes(ctx, blocks, backend)
    finally:
        _run_active.release()

    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result = assemble(vl, records, rep_first, seed, keep_seed, created)
    if cache_path is not None:
        save(result, cache_path)
    return result


@dataclass
class _RunContext:
    grid: object
    n_G: int
    n_sim: int
    rep_first: bool
    base_args: dict
    seed: SeedSpec
    states: list  # seed_for(seed, rep) at index rep - 1
    keep_seed: bool
    study_fn: object
    timer: object
    monitor: object


def _run_block(ctx: _RunContext, block: Block) -> list[tuple[int, SubJobRecord]]:
    out = []
    row_params = ctx.grid.row_params(block.row)
    for vidx in block.indices(ctx.n_G, ctx.n_sim, ctx.rep_first):
        rec = subjob(vidx, row_params, ctx.base_args, ctx.seed, ctx.keep_seed,
                     ctx.study_fn, ctx.timer, ctx.monitor, state=ctx.states[vidx.rep - 1])
        out.append((vidx.linear, rec))
    return out


def _run_sequential(ctx: _RunContext, blocks: list[Block]) -> list[SubJobRecord]:
    slots: list[SubJobRecord | None] = [None] * (ctx.n_G * ctx.n_sim)
    for block in blocks:
        for linear, rec in _run_block(ctx, block):
            slots[linear] = rec
    return slots


def _run_threads(ctx: _RunContext, blocks: list[Block], backend: BackendSpec) -> list[SubJobRecord]:
    slots: list[SubJobRecord | None] = [None] * (ctx.n_G * ctx.n_sim)
    slot_lock = threading.Lock()
    failures: list[BaseException] = []

    def consume(pulled: list[tuple[int, SubJobRecord]]):
        with slot_lock:
            for linear, rec in pulled:
                slots[linear] = rec

    if backend.load_balancing:
        q: queue.Queue = queue.Queue()
        for b in blocks:
            q.put(b)

        def work():
            try:
                while True:
                    try:
                        b = q.get_nowait()
                    except queue.Empty:
                        return
                    consume(_run_block(ctx, b))
            except BaseException as exc:  # harness bugs must not hang the run
                failures.append(exc)

        threads = [threading.Thread(target=work, name=f"mcgrid-worker-{i}")
                   for i in range(backend.workers)]
    else:
        assigned: list[list[Block]] = [[] for _ in range(backend.workers)]
        for i, b in enumerate(blocks):
            assigned[i % backend.workers].append(b)

        def work_static(mine: list[Block]):
            try:
                for b in mine:
                    consume(_run_block(ctx, b))
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=work_static, args=(mine,),
                                    name=f"mcgrid-worker-{i}")
                   for i, mine in enumerate(assigned)]

    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise ExecutionError(f"thread worker failed: {failures[0]!r}") from failures[0]
    return slots


# ---------------------------------------------------------------------------
# frame protocol

def encode_frame(doc: dict) -> bytes:
    payload = canonical_json(doc).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the 64 MiB limit")
    return struct.pack(">I", len(payload)) + payload


def read_frame(stream) -> dict | None:
    """Next frame from a byte stream; None on clean EOF."""
    header = stream.read(4)
    if header == b"" or header is None:
        return None
    if len(header) < 4:
        raise ProtocolError("truncated frame header")
    (n,) = struct.unpack(">I", header)
    if n > MAX_FRAME:
        raise ProtocolError(f"frame of {n} bytes exceeds the 64 MiB limit")
    payload = b""
    while len(payload) < n:
        chunk = stream.read(n - len(payload))
        if not chunk:
            raise ProtocolError(f"truncated frame payload ({len(payload)}/{n} bytes)")
        payload += chunk
    return json.loads(payload.decode("utf-8"))


def _task_doc(ctx: _RunContext, block: Block, study: str, monitor: bool,
              seed_hex: list) -> dict:
    seeds = seed_hex[block.rep_start - 1:block.rep_start - 1 + block.size]
    return {
        "tag": "task",
        "study": study,
        "block": {"row": block.row, "rep_start": block.rep_start, "size": block.size},
        "n_G": ctx.n_G,
        "n_sim": ctx.n_sim,
        "rep_first": ctx.rep_first,
        "row_params": ctx.grid.row_params(block.row),
        "base_args": ctx.base_args,
        "seed_kind": ctx.seed.kind,
        "seeds": seeds,
        "keep_seed": ctx.keep_seed,
        "monitor": monitor,
    }


def run_task(task: dict) -> dict:
    """Execute one task frame (worker side) and build the result frame."""
    from .seeding import StreamState

    study_fn = registry.get_study(task["study"])
    block = Block(task["block"]["row"], task["block"]["rep_start"], task["block"]["size"])
    n_G, n_sim, rep_first = task["n_G"], task["n_sim"], task["rep_first"]
    monitor = stderr_monitor if task.get("monitor") else None
    keep_seed = task["keep_seed"]
    unseeded = task.get("seed_kind") == "unseeded"

    records = []
    for vidx, seed_hex in zip(block.indices(n_G, n_sim, rep_first), task["seeds"]):
        if seed_hex is None:
            rng = ambient_stream()
            seed_out = rng.state.to_hex() if keep_seed and not unseeded else None
        else:
            state = StreamState.from_hex(seed_hex)
            rng = RngStream.from_state(state)
            seed_out = seed_hex if keep_seed else None
        params = dict(task["row_params"])
        params.update(task["base_args"])
        value, error, warnings, time_ms = do_call_we(study_fn, params, rng)
        rec = SubJobRecord(value=value, error=error, warnings=warnings,
                           time_ms=time_ms, seed=seed_out)
        if monitor is not None:
            monitor(vidx, rec)
        records.append(rec.doc())
    return {"tag": "result", "block": task["block"], "records": records}


def _claim_stdout():
    """Move the frame channel off fd 1 and send everything else written to
    standard output, by Python or native code, to standard error."""
    sys.stdout.flush()
    channel = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    return channel


def worker_main(stdin=None, stdout=None) -> int:
    """Frame-serving loop for a spawned worker process.

    With the default streams, frames go out on a duplicate of fd 1, and fd 1
    and ``sys.stdout`` point at standard error before the first task resolves
    its study, so neither importing nor running a study can write into the
    frame channel.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else _claim_stdout()
    while True:
        try:
            frame = read_frame(stdin)
        except ProtocolError as exc:
            print(f"worker: protocol error: {exc}", file=sys.stderr)
            return 1
        if frame is None:
            return 0
        tag = frame.get("tag")
        if tag == "control":
            op = frame.get("op")
            if op == "shutdown":
                return 0
            if op == "ping":
                stdout.write(encode_frame({"tag": "control", "op": "ping"}))
                stdout.flush()
                continue
            print(f"worker: unknown control op {op!r}", file=sys.stderr)
            return 1
        if tag != "task":
            print(f"worker: unexpected frame tag {tag!r}", file=sys.stderr)
            return 1
        try:
            result = run_task(frame)
        except Exception as exc:
            print(f"worker: task failed: {exc}", file=sys.stderr)
            return 1
        stdout.write(encode_frame(result))
        stdout.flush()


def _run_processes(ctx: _RunContext, blocks: list[Block], backend: BackendSpec) -> list[SubJobRecord]:
    study = registry.study_name(ctx.study_fn)
    if study is None:
        raise ExecutionError(
            "the process backend needs a registered or module-level study "
            "function (register_study, or a plain function addressable as "
            "module:name)")
    try:
        canonical_json(ctx.base_args)
        canonical_json(ctx.grid.row_params(0) if ctx.n_G else {})
    except TypeError as exc:
        raise ExecutionError(
            f"the process backend needs JSON-serializable variables: {exc}") from exc
    monitor = ctx.monitor is not None
    seed_hex = [None if st is None else st.to_hex() for st in ctx.states]

    slots: list[SubJobRecord | None] = [None] * (ctx.n_G * ctx.n_sim)
    slot_lock = threading.Lock()
    failures: list[Exception] = []
    done_blocks = [0]

    cmd = [sys.executable, "-m", "mcgrid", WORKER_FLAG]
    # workers resolve module:attr study names, so they need the parent's
    # import path (same idea as multiprocessing's spawn preparation)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    procs = [subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              env=env)
             for _ in range(backend.workers)]

    if backend.load_balancing:
        shared: queue.Queue = queue.Queue()
        for b in blocks:
            shared.put(b)

        def next_block(_i):
            try:
                return shared.get_nowait()
            except queue.Empty:
                return None
    else:
        assigned: list[list[Block]] = [[] for _ in range(backend.workers)]
        for i, b in enumerate(blocks):
            assigned[i % backend.workers].append(b)
        cursors = [0] * backend.workers

        def next_block(i):
            mine = assigned[i]
            if cursors[i] >= len(mine):
                return None
            b = mine[cursors[i]]
            cursors[i] += 1
            return b

    def drive(i: int, proc: subprocess.Popen):
        try:
            while True:
                b = next_block(i)
                if b is None:
                    proc.stdin.write(encode_frame({"tag": "control", "op": "shutdown"}))
                    proc.stdin.flush()
                    proc.stdin.close()
                    return
                proc.stdin.write(encode_frame(_task_doc(ctx, b, study, monitor, seed_hex)))
                proc.stdin.flush()
                resp = read_frame(proc.stdout)
                if resp is None:
                    raise ExecutionError(
                        f"worker {i} died mid-run (after {done_blocks[0]} completed "
                        f"blocks of {len(blocks)}); aborting, no retry")
                if resp.get("tag") != "result":
                    raise ProtocolError(f"worker {i}: expected result frame, "
                                        f"got {resp.get('tag')!r}")
                recs = [SubJobRecord.from_doc(d) for d in resp["records"]]
                indices = Block(resp["block"]["row"], resp["block"]["rep_start"],
                                resp["block"]["size"]).indices(ctx.n_G, ctx.n_sim,
                                                               ctx.rep_first)
                with slot_lock:
                    for vidx, rec in zip(indices, recs):
                        slots[vidx.linear] = rec
                    done_blocks[0] += 1
        except Exception as exc:
            failures.append(exc)
            try:
                proc.kill()
            except OSError:
                pass

    drivers = [threading.Thread(target=drive, args=(i, p), name=f"mcgrid-driver-{i}")
               for i, p in enumerate(procs)]
    for t in drivers:
        t.start()
    for t in drivers:
        t.join()
    for p in procs:
        if failures:
            p.kill()
        p.wait()
    if failures:
        raise failures[0] if isinstance(failures[0], (ExecutionError, ProtocolError)) \
            else ExecutionError(f"process backend failed: {failures[0]!r}")
    return slots
