"""Execution of the virtual grid: harness, blocks, and backends.

The virtual grid stacks ``n_sim`` replications of the physical grid; one
virtual cell is one sub-job.  ``rep_first=True`` places all replications of a
grid row consecutively (linear = row * n_sim + rep - 1); ``rep_first=False``
interleaves rows within a replication (linear = (rep - 1) * n_G + row).

Work is partitioned into blocks of ``block_size`` consecutive replications of
a single grid row (``block_size`` must divide ``n_sim``).  One scheduler hands
the blocks to slots that each execute one block at a time: the calling thread
(sequential), one thread per slot (thread pool), or one thread per spawned
worker process, which runs the same block path behind a frame protocol on its
standard pipes.  With load balancing (default) blocks are pulled from a shared
queue as slots become free; without it they are pre-assigned round-robin.
Either way the assembled results are identical for deterministic studies;
only timing fields may differ.  Once any slot fails, no slot takes a new
block.

Frame protocol: 4-byte big-endian payload length, then the payload, a
canonical-JSON document (the same text family as the result files).  Frames
above 64 MiB are a protocol error.  The parent sends each worker one
``setup`` frame (study name, grid names and levels, the common arguments,
seed kind, flags, ``n_sim`` and the virtual order), from which the worker
builds its run context once.  Then each ``task`` frame carries only a block's
coordinates and its replications' seed states, and the worker answers with a
``result`` frame holding the block's records in order.  A ``shutdown`` frame
or end of input ends the worker cleanly.  A worker that dies mid-run aborts
the run with a diagnostic; there is no mid-run respawn or retry.
"""

from __future__ import annotations

import json
import functools
import os
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
from .seeding import RngStream, SeedSpec, StreamState, ambient_stream, seed_for
from .varlist import VarList, VarSpec, mk_grid, non_grid_args, ravel, unravel

MAX_FRAME = 64 * 1024 * 1024
WORKER_FLAG = "--worker"


class ProtocolError(RuntimeError):
    """Malformed traffic on a worker pipe."""


class ExecutionError(RuntimeError):
    """A backend failed (worker death, unusable study for the backend, ...)."""


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
        rep, row = unravel(linear, (n_sim, n_G))
    else:
        row, rep = unravel(linear, (n_G, n_sim))
    return VirtualIndex(linear, row, rep + 1)


def linear_of(row: int, rep: int, n_G: int, n_sim: int, rep_first: bool) -> int:
    if not 0 <= row < n_G:
        raise IndexError(f"grid row {row} out of range [0, {n_G})")
    if not 1 <= rep <= n_sim:
        raise IndexError(f"replication {rep} out of range [1, {n_sim}]")
    if rep_first:
        return ravel((rep - 1, row), (n_sim, n_G))
    return ravel((row, rep - 1), (n_G, n_sim))


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

def do_call_we(study_fn, params: dict, rng):
    """Call the study function capturing value/error/warnings/time.

    Nothing escapes: exceptions become error records, warnings emitted through
    the sink are collected in order, and the timing covers exactly the call.
    """
    warnings_list: list[str] = []

    def warn(message):
        warnings_list.append(str(message))

    value = None
    error = None
    t0 = time.perf_counter_ns()
    try:
        value = study_fn(params, rng, warn)
    except Exception as exc:
        error = ErrorInfo(str(exc) or type(exc).__name__, type(exc).__name__)
    time_ms = (time.perf_counter_ns() - t0) / 1e6

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
           keep_seed: bool, study_fn, monitor=None, *, state=_DERIVE) -> SubJobRecord:
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
    value, error, warnings, time_ms = do_call_we(study_fn, params, rng)
    rec = SubJobRecord(value=value, error=error, warnings=warnings,
                       time_ms=time_ms, seed=seed_hex)
    if monitor is not None:
        monitor(vidx, rec)
    return rec


@dataclass
class _RunContext:
    """Everything a block needs, built once per run (or per worker process)."""

    grid: object
    n_G: int
    n_sim: int
    rep_first: bool
    base_args: dict
    seed: SeedSpec
    states: list  # seed_for(seed, rep) at index rep - 1
    keep_seed: bool
    study_fn: object
    monitor: object


def _run_block(ctx: _RunContext, block: Block) -> list[tuple[int, SubJobRecord]]:
    row_params = ctx.grid.row_params(block.row)
    return [(vidx.linear, subjob(vidx, row_params, ctx.base_args, ctx.seed, ctx.keep_seed,
                                 ctx.study_fn, ctx.monitor, state=ctx.states[vidx.rep - 1]))
            for vidx in block.indices(ctx.n_G, ctx.n_sim, ctx.rep_first)]


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
              keep_seed: bool = False, monitor=None,
              rep_first: bool = True) -> ResultStore | RawFallback:
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
                          keep_seed=keep_seed, study_fn=study_fn, monitor=monitor)
        if backend.kind == "processes":
            records = _run_processes(ctx, blocks, backend)
        else:
            slots = 1 if backend.kind == "sequential" else backend.workers
            records = _run_pool(n_G * n_sim, blocks, backend.load_balancing,
                                [functools.partial(_run_block, ctx)] * slots)
    finally:
        _run_active.release()

    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result = assemble(vl, records, rep_first, seed, keep_seed, created)
    if cache_path is not None:
        save(result, cache_path)
    return result


def _run_pool(n_records: int, blocks: list[Block], load_balancing: bool,
              slots: list) -> list[SubJobRecord]:
    """Execute every block on ``slots``, callables that each run one block at
    a time and return its ``(linear index, record)`` pairs.

    A single slot runs on the calling thread, more run on one thread each.
    ``next_block(slot)`` pulls from a shared queue with load balancing and
    from the slot's round-robin share without.  Once any slot fails, no slot
    takes a new block; the first failure is raised after every slot stopped.
    """
    records: list[SubJobRecord | None] = [None] * n_records
    failures: list[BaseException] = []
    lock = threading.Lock()
    if load_balancing:
        shared = iter(blocks)
        queues = [shared] * len(slots)
    else:
        queues = [iter(blocks[i::len(slots)]) for i in range(len(slots))]

    def next_block(slot: int) -> Block | None:
        with lock:
            return None if failures else next(queues[slot], None)

    def drive(slot: int) -> None:
        try:
            while (block := next_block(slot)) is not None:
                for linear, rec in slots[slot](block):
                    records[linear] = rec
        except BaseException as exc:  # re-raised below, once every slot stopped
            with lock:
                failures.append(exc)

    if len(slots) == 1:
        drive(0)
    else:
        threads = [threading.Thread(target=drive, args=(i,), name=f"mcgrid-slot-{i}")
                   for i in range(len(slots))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if failures:
        exc = failures[0]
        if isinstance(exc, (ExecutionError, ProtocolError)) or not isinstance(exc, Exception):
            raise exc
        raise ExecutionError(f"backend slot failed: {exc!r}") from exc
    return records


# ---------------------------------------------------------------------------
# frame protocol and process workers

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


def _setup_doc(ctx: _RunContext, study: str) -> dict:
    grid = ctx.grid
    return {
        "tag": "setup",
        "study": study,
        "grid": [[name, list(levels)] for name, levels in zip(grid.var_names, grid.level_values)],
        "base_args": ctx.base_args,
        "seed_kind": ctx.seed.kind,
        "keep_seed": ctx.keep_seed,
        "monitor": ctx.monitor is not None,
        "n_sim": ctx.n_sim,
        "rep_first": ctx.rep_first,
    }


def _worker_context(setup: dict) -> _RunContext:
    """The run context a setup frame describes; task frames fill in ``states``."""
    grid = mk_grid(VarList([VarSpec(name, "grid", levels) for name, levels in setup["grid"]]))
    return _RunContext(grid=grid, n_G=grid.n_rows, n_sim=setup["n_sim"],
                       rep_first=setup["rep_first"], base_args=setup["base_args"],
                       seed=SeedSpec(setup["seed_kind"]), states=[None] * setup["n_sim"],
                       keep_seed=setup["keep_seed"],
                       study_fn=registry.get_study(setup["study"]),
                       monitor=stderr_monitor if setup["monitor"] else None)


def _worker_result(ctx: _RunContext, task: dict) -> dict:
    block = Block(**task["block"])
    for rep, seed_hex in enumerate(task["seeds"], start=block.rep_start):
        ctx.states[rep - 1] = None if seed_hex is None else StreamState.from_hex(seed_hex)
    return {"tag": "result", "records": [rec.doc() for _, rec in _run_block(ctx, block)]}


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
    and ``sys.stdout`` point at standard error before the setup frame
    resolves the study, so neither importing nor running a study can write
    into the frame channel.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else _claim_stdout()
    ctx = None
    while True:
        try:
            frame = read_frame(stdin)
        except ProtocolError as exc:
            print(f"worker: protocol error: {exc}", file=sys.stderr)
            return 1
        if frame is None or frame.get("tag") == "shutdown":
            return 0
        tag = frame.get("tag")
        try:
            if tag == "setup" and ctx is None:
                ctx = _worker_context(frame)
                continue
            if tag != "task" or ctx is None:
                print(f"worker: unexpected frame tag {tag!r}", file=sys.stderr)
                return 1
            result = _worker_result(ctx, frame)
        except Exception as exc:
            print(f"worker: {tag} failed: {exc}", file=sys.stderr)
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
        setup = encode_frame(_setup_doc(ctx, study))
    except TypeError as exc:
        raise ExecutionError(
            f"the process backend needs JSON-serializable variables: {exc}") from exc
    seed_hex = [None if st is None else st.to_hex() for st in ctx.states]

    def slot(i: int, proc: subprocess.Popen):
        def execute(block: Block) -> list[tuple[int, SubJobRecord]]:
            seeds = seed_hex[block.rep_start - 1:block.rep_start - 1 + block.size]
            proc.stdin.write(encode_frame({
                "tag": "task", "seeds": seeds,
                "block": {"row": block.row, "rep_start": block.rep_start, "size": block.size}}))
            proc.stdin.flush()
            resp = read_frame(proc.stdout)
            if resp is None:
                raise ExecutionError(f"worker {i} died mid-run; aborting, no retry")
            if resp.get("tag") != "result":
                raise ProtocolError(f"worker {i}: expected result frame, "
                                    f"got {resp.get('tag')!r}")
            return [(vidx.linear, SubJobRecord.from_doc(doc)) for vidx, doc in
                    zip(block.indices(ctx.n_G, ctx.n_sim, ctx.rep_first), resp["records"],
                        strict=True)]
        return execute

    cmd = [sys.executable, "-m", "mcgrid", WORKER_FLAG]
    # workers resolve module:attr study names, so they need the parent's
    # import path (same idea as multiprocessing's spawn preparation)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    procs: list[subprocess.Popen] = []
    try:
        for _ in range(backend.workers):
            procs.append(subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, env=env))
        for proc in procs:
            proc.stdin.write(setup)
            proc.stdin.flush()
        records = _run_pool(ctx.n_G * ctx.n_sim, blocks, backend.load_balancing,
                            [slot(i, p) for i, p in enumerate(procs)])
        for proc in procs:
            proc.stdin.write(encode_frame({"tag": "shutdown"}))
            proc.stdin.close()
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.wait()
    return records
