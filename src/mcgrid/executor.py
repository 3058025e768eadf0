"""Execution of the virtual grid: harness, blocks, and backends.

The virtual grid stacks ``n_sim`` replications of the physical grid; one
virtual cell is one sub-job.  ``rep_first=True`` places all replications of a
grid row consecutively (linear = row * n_sim + rep - 1); ``rep_first=False``
interleaves rows within a replication (linear = (rep - 1) * n_G + row).

Work is partitioned into blocks of ``block_size`` consecutive replications of
a single grid row (``block_size`` must divide ``n_sim``), and the blocks into
tasks, runs of consecutive blocks (guided self-scheduling: each task takes
``ceil(remaining / (2 * slots))`` blocks, no more than hold 64 sub-jobs and
at least one, so the tail is single blocks).  Task composition depends only
on the block list and the slot count, never on timing.  One scheduler hands
the tasks to slots: the calling thread (sequential), one thread per slot
(thread pool), or one thread per forked worker process, whose main thread
runs the same slot behind a frame protocol on its task and result pipes.
With load balancing (default) tasks are pulled from a shared queue as slots
become free; without it they are pre-assigned round-robin.  Either way the
assembled results are identical for deterministic studies; only timing
fields may differ.  Once any slot fails,
or the calling thread is interrupted, no slot starts another block.

A slot that runs sub-jobs owns one random stream: under a seeded discipline
it resets it to the replication's state before each call, under ``none``/
``unseeded`` it carries on its thread's ambient stream.  A study's ``rng`` is
valid only during its call.  A block's outcomes are columns (values, times,
sparse errors and warnings, seeds) that the scheduler writes straight into the
run's store-order columns; records are built only for a monitor.

Frame protocol: 4-byte big-endian payload length, then a canonical-JSON
payload (the result files' text family); a frame above 64 MiB is a protocol
error.  The parent sends each worker one ``setup`` frame (study name, the
declaration's canonical form, the canonical seeding spec, ``keep_seed`` and
the virtual order), from which the worker builds its run context as the
parent does.  A declaration that this form cannot carry faithfully (a payload
that is not JSON, a non-finite float) or a setup frame over the limit (a
``per-rep-stream`` spec takes ~211 bytes per replication, so ~318k at most)
fails the run before any worker starts.  A ``task`` frame carries only block
coordinates, ``[[row, rep_start, size], ...]``, at most ``IN_FLIGHT`` unread
per worker, which never fill a pipe: the parent never waits to write a task
while its worker waits to write results.  The worker answers a task with
``{"tag": "result", "blocks": [...]}``, its blocks' ``Columns.doc()`` in
order (errors and warnings by offset from the block's start), each encoded
once as the block finishes; a frame goes out as soon as the next block would
take it over the limit, so only a single block over the limit is an error.
The parent joins a frame's block documents into one, checking each block's
columns and offsets against that block, reads it at once (its values
through one array when they stack) and writes it into the store with one
put.  End of input ends the worker; an unexpected frame tag, a result frame
that answers no block or more blocks than are outstanding, or a block
document whose columns are not the block's size or whose error or warning
offset lies outside the block, is a protocol error.  A worker dying mid-run
aborts the run (no retry), and on any failure or interrupt the parent kills
every worker at once.  The monitor runs in the calling process.

Workers are forked, per run, from a zygote, a fork server that a process's
first process-backend run spawns as ``python -m mcgrid --worker``.  It
imports numpy and this module, no study or report module, and draws from no
stream, so each worker draws its own entropy under ``none``/``unseeded``.  A
worker takes the parent's working directory, import path, environment and
standard error (also as its standard output) as they are at the fork; BLAS
thread settings are read once, at the zygote's start.  The parent kills a
worker through the zygote, which signals only a child it has not reaped, so
never a process that took a reaped worker's pid.  The zygote ends at end of
input on its control socket, killing any worker left (its parent was
killed); an ``atexit`` hook closes the socket and waits for the zygote, and
a zygote that is gone is respawned.  A child forked from the parent drops
its copy of the socket at once and spawns its own zygote when it needs one.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import functools
import importlib
import json
import os
import signal
import struct
import sys
import threading
import time
import types
from dataclasses import dataclass, field, replace

import numpy as np

from . import registry
from .results import (Columns, ErrorInfo, ResultStore, SubJobRecord, _Encoded, assemble,
                      canonical_json, maybe_read, save, study_fingerprint)
from .seeding import RngStream, SeedSpec, ambient_stream, seed_for
from .varlist import VarList, linear_of, mk_grid, non_grid_args, unravel

MAX_FRAME = 64 * 1024 * 1024
WORKER_FLAG = "--worker"
TASK_SUBJOBS = 64  # most sub-jobs in a task of more than one block
IN_FLIGHT = 2     # task frames a process slot keeps sent but not yet answered


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


@dataclass(frozen=True)
class Block:
    """``size`` consecutive replications of one grid row."""

    row: int
    rep_start: int  # 1-based
    size: int

    def indices(self, n_G: int, n_sim: int, rep_first: bool) -> list[VirtualIndex]:
        return [VirtualIndex(linear_of(self.row, rep, n_G, n_sim, rep_first), self.row, rep)
                for rep in range(self.rep_start, self.rep_start + self.size)]

    def cells(self, n_G: int) -> range:
        """Its store cells, ``row + n_G * (rep - 1)``, whatever the virtual order."""
        return range(self.row + n_G * (self.rep_start - 1),
                     self.row + n_G * (self.rep_start + self.size - 1), n_G)


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


def partition_tasks(blocks: list[Block], slots: int) -> list[list[Block]]:
    """Split ``blocks``, all of one size, into tasks of consecutive blocks, in
    order.

    Guided self-scheduling: each task takes ``ceil(remaining / (2 * slots))``
    blocks, no more than hold ``TASK_SUBJOBS`` sub-jobs and at least one, so
    tasks are large while much work remains and single blocks at the tail,
    where they keep slots balanced.  The cap counts sub-jobs, not blocks: the
    costs of a task's frames are spread over its sub-jobs.
    """
    tasks, start = [], 0
    while start < len(blocks):
        cap = max(1, TASK_SUBJOBS // blocks[start].size)
        size = min(cap, -(-(len(blocks) - start) // (2 * slots)))
        tasks.append(blocks[start:start + size])
        start += size
    return tasks


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


def _freeze(arg):
    """A read-only copy of a study argument, level by level: lists and
    tuples become tuples, sets frozensets, dicts read-only mappings, arrays
    read-only views; anything else passes through."""
    if type(arg) in (list, tuple):
        return tuple(map(_freeze, arg))
    if isinstance(arg, set):
        return frozenset(arg)
    if isinstance(arg, dict):
        return types.MappingProxyType({k: _freeze(v) for k, v in arg.items()})
    if isinstance(arg, np.ndarray):
        arg = arg.view()
        arg.flags.writeable = False
    return arg


@dataclass
class _RunContext:
    """Everything a block needs, built once per run from the declaration: in
    the calling process from ``run_study``'s arguments, in a worker from its
    setup frame."""

    vl: VarList
    rep_first: bool
    seed: SeedSpec
    keep_seed: bool
    study_fn: object
    grid: object = field(init=False)  # mk_grid(vl), with read-only levels
    n_G: int = field(init=False)
    n_sim: int = field(init=False)
    args: dict = field(init=False)    # non_grid_args(vl), each one read-only
    states: list = field(init=False)  # seed_for(seed, rep) at index rep - 1
    philox: list = field(init=False)  # their Philox states; None: never reset
    seeds: list | None = field(init=False)  # their hex texts, kept under keep_seed

    def __post_init__(self):
        grid = mk_grid(self.vl)  # its labels, so the store dims, stay the declared ones
        self.grid = replace(grid, level_values=_freeze(grid.level_values))
        self.n_G = self.grid.n_rows
        self.n_sim = self.vl.n_sim
        self.args = {name: _freeze(arg) for name, arg in non_grid_args(self.vl).items()}
        # seed_for depends only on (seed, rep): derive each replication once
        self.states = [seed_for(self.seed, rep) for rep in range(1, self.n_sim + 1)]
        self.philox = [s and s.philox_state() for s in self.states]
        self.seeds = ([s.to_hex() for s in self.states]
                      if self.keep_seed and self.states[0] else None)


def subjob(ctx: _RunContext, rng: RngStream, rep: int, params: dict) -> tuple:
    """Run one sub-job of replication ``rep`` through the harness, on the
    slot's stream ``rng`` reset to the replication's state (left as it is
    under ``none``/``unseeded``); returns the harness outcome."""
    if (state := ctx.philox[rep - 1]) is not None:
        rng.reset(state)
    return do_call_we(ctx.study_fn, dict(params), rng)


def _run_block(ctx: _RunContext, rng: RngStream, block: Block, params: dict) -> Columns:
    """The outcomes of ``block``, whose row's study arguments are ``params``,
    as columns in rep order."""
    first = block.rep_start - 1
    ambient = ctx.keep_seed and ctx.seed.kind == "none"
    seeds = [] if ambient else ctx.seeds and ctx.seeds[first:first + block.size]
    values, times, errors, warns = [], [], {}, {}
    for k in range(block.size):
        if ambient:  # the state the sub-job starts from
            seeds.append(rng.state.to_hex())
        value, error, warnings, time_ms = subjob(ctx, rng, block.rep_start + k, params)
        values.append(value)
        times.append(time_ms)
        if error is not None:
            errors[k] = error
        if warnings:
            warns[k] = warnings
    return Columns(values, times, errors, warns, seeds)


def _run_tasks(ctx: _RunContext, take):
    """A slot: the tasks ``take()`` hands out, as ``(block, columns)``.  The
    slot owns one stream: reset before every sub-job, or under ``none``/
    ``unseeded`` its thread's ambient stream, carried on between sub-jobs."""
    rng = RngStream.from_state(ctx.states[0]) if ctx.states[0] else ambient_stream()
    while (task := take()) is not None:
        row = None  # a row's arguments are built once per run of its blocks in a task
        for block in task:
            if block.row != row:
                row, params = block.row, ctx.grid.row_params(block.row)
                params.update(ctx.args)
            yield [block], _run_block(ctx, rng, block, params)


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
_NAMED_STUDY = ("a registered or module-level study function (register_study, or a plain "
                "function addressable as module:name)")


def run_study(vl: VarList, study_fn, *, seed: SeedSpec | None = None,
              backend: BackendSpec | None = None, cache_path=None,
              keep_seed: bool = False, monitor=None,
              rep_first: bool = True) -> ResultStore:
    """Run the whole virtual grid and assemble (and optionally persist) results.

    When ``cache_path`` names an existing file whose fingerprint matches this
    study declaration and study, the persisted results are returned without
    running anything (``from_cache`` is set on the returned object); a
    mismatching fingerprint raises CacheInvalidError.  Fresh results are
    saved to ``cache_path`` when given.  A cache needs a study with a name
    (``registry.study_name``).  Nested calls are rejected: one live backend
    per process.

    ``monitor(vidx, record)`` is called once per sub-job, in the calling
    process on every backend, after each block and from the thread that
    drives its slot (so from several threads on the pools).  On the process
    backend a task's blocks arrive together, as the list of block documents
    of one result frame (of several past the frame limit), and reach the
    monitor block by block.  A monitor that raises stops the run with
    ``ExecutionError``.
    """
    seed = seed if seed is not None else SeedSpec.seq()
    backend = backend if backend is not None else Sequential()
    problems = vl.validate()
    problems += seed.validate(vl.n_sim)
    problems += backend.validate(vl.n_sim)
    if problems:
        raise ValueError("; ".join(problems))

    study = registry.study_name(study_fn)
    if cache_path is not None:
        if study is None:
            raise ValueError(f"a cache needs {_NAMED_STUDY}")
        cached = maybe_read(cache_path, study_fingerprint(vl, rep_first, seed, study))
        if cached is not None:
            return cached

    if not _run_active.acquire(blocking=False):
        raise RuntimeError("nested run_study calls are not supported "
                           "(one live backend per process)")
    try:
        ctx = _RunContext(vl, rep_first, seed, keep_seed, study_fn)
        blocks = partition_blocks(ctx.n_G, ctx.n_sim, backend.block_size, rep_first)
        if backend.kind == "processes":
            outcomes = _run_processes(ctx, blocks, backend, study, monitor)
        else:
            slots = 1 if backend.kind == "sequential" else backend.workers
            outcomes = _run_pool(ctx, blocks, backend.load_balancing,
                                 [functools.partial(_run_tasks, ctx)] * slots, monitor)
    finally:
        _run_active.release()

    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result = assemble(vl, outcomes, rep_first, seed, keep_seed, created, study)
    if cache_path is not None:
        save(result, cache_path)
    return result


def _run_pool(ctx: _RunContext, blocks: list[Block], load_balancing: bool,
              slots: list, monitor=None, stop=None) -> Columns:
    """The run's columns in store order, from every block run on ``slots``:
    callables that take a ``take`` function and yield ``(blocks, columns)``,
    consecutive blocks of a task and their sub-jobs' columns, for the tasks
    ``take()`` hands out until it returns None.  Each yield's columns go into
    the store with one put, then its sub-jobs to ``monitor`` (if given),
    block by block.

    A single slot runs on the calling thread, more run on one thread each.
    ``take()`` pulls from a shared task queue with load balancing and from the
    slot's round-robin share without.  Once any slot fails, or the calling
    thread is interrupted while it waits, ``take()`` hands out nothing more,
    ``stop()`` (if given) is called once so that slots waiting on work in
    flight return at once, and every slot stops after its current block; the
    first failure (or the interrupt) is raised after every slot stopped.
    """
    n_G, n = ctx.n_G, ctx.n_G * ctx.n_sim
    kept = ctx.keep_seed and ctx.seed.kind != "unseeded"
    out = Columns([None] * n, [0.0] * n, {}, {}, [None] * n if kept else None)
    failures: list[BaseException] = []
    lock = threading.Lock()
    tasks = partition_tasks(blocks, len(slots))
    if load_balancing:
        shared = iter(tasks)
        queues = [shared] * len(slots)
    else:
        queues = [iter(tasks[i::len(slots)]) for i in range(len(slots))]

    def fail(exc: BaseException) -> None:
        with lock:
            failures.append(exc)
            first = len(failures) == 1
        if first and stop is not None:
            stop()

    def drive(slot: int) -> None:
        def take() -> list[Block] | None:
            with lock:
                return None if failures else next(queues[slot], None)

        try:
            for blocks, cols in slots[slot](take):
                # a single block's cells stay a range: in-process slots yield block by block
                out.put(blocks[0].cells(n_G) if len(blocks) == 1 else
                        [cell for block in blocks for cell in block.cells(n_G)], cols)
                if monitor is not None:
                    vidxs = (vidx for block in blocks
                             for vidx in block.indices(n_G, ctx.n_sim, ctx.rep_first))
                    for k, vidx in enumerate(vidxs):
                        monitor(vidx, cols.record(k))
                if failures:
                    break
        except BaseException as exc:  # re-raised below, once every slot stopped
            fail(exc)

    if len(slots) == 1:
        drive(0)
    else:
        threads = [threading.Thread(target=drive, args=(i,), name=f"mcgrid-slot-{i}")
                   for i in range(len(slots))]
        for t in threads:
            t.start()
        try:
            for t in threads:
                t.join()
        except BaseException as exc:  # Ctrl-C: stop the slots, then re-raise
            fail(exc)
            for t in threads:
                t.join()
            raise
    if failures:
        exc = failures[0]
        if isinstance(exc, (ExecutionError, ProtocolError)) or not isinstance(exc, Exception):
            raise exc
        raise ExecutionError(f"backend slot failed: {exc!r}") from exc
    return out


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


def _worker_context(setup: dict) -> _RunContext:
    """The run context a setup frame describes, built as the parent built its own."""
    return _RunContext(VarList.from_canonical(setup["varlist"]), setup["rep_first"],
                       SeedSpec.from_canonical(setup["seed"]), setup["keep_seed"],
                       registry.get_study(setup["study"]))


class _ResultFrames:
    """A worker's result frames for a task's blocks, built as they finish.

    Each block's column document is encoded to canonical JSON once, and
    consecutive blocks share a frame, which lists their documents.  A frame
    is written as soon as the next block would take it over the frame limit,
    so the worker holds at most about one frame of text, and a task over the
    limit goes out as several frames of whole blocks.  A single block over
    the limit is a ProtocolError, from ``encode_frame``.
    """

    # with it, the pending size, a comma counted per block, bounds the frame's size
    SKELETON = len(canonical_json({"tag": "result", "blocks": []}))

    def __init__(self, out):
        self.out = out
        self.blocks: list[_Encoded] = []  # the pending blocks' documents
        self.size = 0  # pending bytes, with a comma per block

    def add(self, cols: Columns) -> None:
        text = canonical_json(cols.doc())
        size = len(text.encode("utf-8")) + 1
        if self.blocks and self.SKELETON + self.size + size > MAX_FRAME:
            self.flush()
        self.blocks.append(_Encoded(text))
        self.size += size

    def flush(self) -> None:
        """Write the pending blocks' frame, if there are any."""
        if self.blocks:
            doc = {"tag": "result", "blocks": self.blocks}
            self.blocks, self.size = [], 0
            self.out.write(encode_frame(doc))


def _task_results(stream, task: list[Block], worker: int):
    """``(blocks, columns)`` for each result frame that answers ``task``, in
    order: the blocks of the task it answers, and their column documents
    joined into one and read at once."""
    while task:
        frame = read_frame(stream)
        if frame is None:
            raise _died(worker)
        if frame.get("tag") != "result":
            raise ProtocolError(f"worker {worker}: expected result frame, "
                                f"got {frame.get('tag')!r}")
        docs = frame.get("blocks") or ()
        if not 0 < len(docs) <= len(task):
            raise ProtocolError(f"worker {worker}: a result frame answers {len(docs)} "
                                f"blocks, {len(task)} outstanding")
        blocks, task = task[:len(docs)], task[len(docs):]
        yield blocks, Columns.from_doc(_joined_doc(blocks, docs, worker))


def _joined_doc(blocks: list[Block], docs: list, worker: int) -> list:
    """The column documents ``docs`` of ``blocks`` as one document of their
    sub-jobs in order, each block's error and warning offsets shifted by the
    block's start; every column and offset is checked against its own block."""
    values, times, errors, warnings, seeds = [], [], [], [], []
    for block, (v, t, e, w, s) in zip(blocks, docs):
        size = block.size
        if len(v) != size or len(t) != size or s is not None and len(s) != size:
            raise ProtocolError(f"worker {worker}: a block of {size} sub-jobs "
                                "answered with columns of other lengths")
        if e or w:
            if not all(type(k) is int and 0 <= k < size for k, *_ in [*e, *w]):
                raise ProtocolError(f"worker {worker}: an error or warning offset outside "
                                    f"a block of {size} sub-jobs")
            start = len(values)
            errors += ([start + k, message, kind] for k, message, kind in e)
            warnings += ([start + k, messages] for k, messages in w)
        values += v
        times += t
        seeds.append(s)
    if seeds.count(None) == len(seeds):  # no block kept its seeds
        return [values, times, errors, warnings, None]
    return [values, times, errors, warnings,
            [seed for block, s in zip(blocks, seeds) for seed in s or [None] * block.size]]


def _died(worker: int) -> ExecutionError:
    return ExecutionError(f"worker {worker} died mid-run; aborting, no retry")


def worker_main(stdin, stdout) -> int:
    """Frame-serving loop of a process worker on its task and result pipes.
    The worker ends at end of input."""
    def next_frame(tag: str) -> dict | None:  # None at end of input
        frame = read_frame(stdin)
        got = frame.get("tag") if isinstance(frame, dict) else None
        if frame is not None and got != tag:
            raise ProtocolError(f"unexpected frame tag {got!r}")
        return frame

    frames = _ResultFrames(stdout)

    def take() -> list[Block] | None:
        frames.flush()  # the rest of the previous task's results
        stdout.flush()
        task = next_frame("task")
        return None if task is None else [Block(*b) for b in task["blocks"]]

    try:
        setup = next_frame("setup")
        if setup is None:
            return 0
        for _, cols in _run_tasks(_worker_context(setup), take):
            frames.add(cols)
    except Exception as exc:
        print(f"worker: {exc!r}", file=sys.stderr)
        return 1
    return 0


def _task_frame(task: list[Block]) -> bytes:
    """A task frame, its block coordinates written as one JSON text."""
    blocks = ",".join(f"[{b.row},{b.rep_start},{b.size}]" for b in task)
    return encode_frame({"tag": "task", "blocks": _Encoded(f"[{blocks}]")})


# ---------------------------------------------------------------------------
# the zygote: a fork server for process workers

def zygote_main() -> int:
    """The zygote, on a control socket at fd 0: for each fork request (four
    descriptors on the byte ``F``, then a frame) fork a worker, and write its
    pid, then its exit code once reaped, on the request's status pipe; for
    each kill request (``K``, then a pid) kill that worker if it is not yet
    reaped, so its pid cannot have been reused.  At end of input, kill the
    workers still running and end."""
    import select  # here, as socket below: the in-process backends need neither
    import socket
    control = socket.socket(fileno=0)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda *_: None)  # only to wake select()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C is for the parent
    children: dict[int, int] = {}  # pid -> status pipe

    def recv_exact(n: int) -> bytes:  # never past this message: no buffered reader
        data = b""
        while len(data) < n:
            if not (chunk := control.recv(n - len(data))):
                raise ProtocolError("truncated control message")
            data += chunk
        return data

    def reap(flags: int) -> None:
        while children and (reaped := os.waitpid(-1, flags))[0]:
            fd = children.pop(reaped[0])
            with contextlib.suppress(OSError):  # the parent is gone
                os.write(fd, struct.pack(">i", os.waitstatus_to_exitcode(reaped[1])))
            os.close(fd)

    try:
        while True:
            if control in select.select([control, wake_r], [], [])[0]:
                kind, fds, _, _ = socket.recv_fds(control, 1, 4)
                if not kind:
                    return 0
                if kind == b"K" and not fds:
                    if (pid := struct.unpack(">i", recv_exact(4))[0]) in children:
                        os.kill(pid, signal.SIGKILL)
                    continue  # its exit comes as a SIGCHLD
                if kind != b"F" or len(fds) != 4:
                    raise ProtocolError("malformed fork request")
                request = read_frame(types.SimpleNamespace(read=recv_exact))
                if (pid := os.fork()) == 0:  # the control socket is fd 0
                    _forked_worker(request, fds, [0, wake_r, wake_w, *children.values()])
                children[pid] = fds[2]
                os.write(fds[2], struct.pack(">i", pid))
                for fd in (fds[0], fds[1], fds[3]):
                    os.close(fd)
            else:
                os.read(wake_r, 512)
            reap(os.WNOHANG)
    except Exception as exc:
        print(f"zygote: {exc!r}", file=sys.stderr)
        return 1
    finally:  # a parent killed mid-run leaves workers behind
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        reap(0)


def _forked_worker(request: dict, fds: list[int], inherited: list[int]) -> None:
    """A forked worker: take on the parent's state that ``request`` and ``fds``
    bring, serve frames, and leave, never returning into the zygote."""
    code = 1
    try:
        task, result, status, stderr = fds
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        os.dup2(stderr, 1)
        os.dup2(stderr, 2)
        for fd in (*inherited, status, stderr):
            os.close(fd)
        os.open(os.devnull, os.O_RDONLY)  # takes fd 0, the control socket's
        os.chdir(request["cwd"])
        sys.path[:] = request["path"]
        os.environ.clear()
        os.environ.update(request["env"])
        importlib.invalidate_caches()  # see modules written since the zygote started
        with open(task, "rb") as stdin, open(result, "wb") as stdout:
            code = worker_main(stdin, stdout)
    finally:
        with contextlib.suppress(Exception):
            sys.stdout.flush(), sys.stderr.flush()
        os._exit(code)


def _worker_env() -> dict:
    # workers resolve module:attr study names on the parent's import path
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}


_zygote = None  # (Popen, control socket) of this process's zygote


def _zygote_control():
    """The control socket of this process's zygote, spawned if none runs."""
    global _zygote
    if _zygote is not None and _zygote[0].poll() is None:
        return _zygote[1]
    _stop_zygote()
    import socket
    import subprocess  # here: neither the zygote nor a worker spawns one
    ours, theirs = socket.socketpair()
    with theirs:
        proc = subprocess.Popen([sys.executable, "-m", "mcgrid", WORKER_FLAG], stdin=theirs,
                                stdout=subprocess.DEVNULL, env=_worker_env())
    _zygote = proc, ours
    return ours


@atexit.register
def _stop_zygote() -> None:
    """End this process's zygote, if any: end of input on its control socket."""
    global _zygote
    if _zygote is not None:
        (proc, control), _zygote = _zygote, None
        control.close()
        proc.wait()


def _forget_zygote() -> None:
    """In a forked child: let go of the parent's zygote without waiting for
    it.  The child's copy of the control socket would keep the zygote's input
    open, and so its end waiting, until the child exits."""
    global _zygote
    if _zygote is not None:
        (proc, control), _zygote = _zygote, None
        control.close()
        proc.returncode = 0  # not this process's child: nothing to wait for


os.register_at_fork(after_in_child=_forget_zygote)


class _Worker:
    """A worker forked by the zygote: ``stdin`` and ``stdout`` are its task
    and result pipes; its pid, then its exit code, come on a status pipe."""

    def __init__(self):
        task, result, status = os.pipe(), os.pipe(), os.pipe()
        self.stdin, self.stdout = open(task[1], "wb"), open(result[0], "rb")
        self._status, self.pid, self.returncode = open(status[0], "rb"), None, None
        self._theirs = [task[0], result[1], status[1]]
        self._control = None

    def fork(self, control) -> None:
        """Have the zygote fork the worker; its pid comes on the status pipe."""
        import socket
        self._control = control
        request = json.dumps({"cwd": os.getcwd(), "path": sys.path,
                              "env": _worker_env()}).encode()
        try:  # the worker's ends, and this process's standard error as it is now
            socket.send_fds(control, [b"F"], [*self._theirs, 2])
            control.sendall(struct.pack(">I", len(request)) + request)
        finally:
            while self._theirs:
                os.close(self._theirs.pop())
        self.pid = self._read()

    def _read(self) -> int | None:  # None at end of input: the zygote is gone
        return struct.unpack(">i", d)[0] if len(d := self._status.read(4)) == 4 else None

    def kill(self) -> None:
        """Have the zygote kill the worker, which it does only while the
        worker is its unreaped child, so never another process that took the
        pid.  A zygote that is gone has killed its workers already."""
        if self.pid is not None and not self._status.closed:  # exit code unread
            with contextlib.suppress(OSError):
                self._control.sendall(b"K" + struct.pack(">i", self.pid))

    def wait(self) -> int | None:
        """The exit code (None if the zygote ended first)."""
        while self._theirs:  # never forked
            os.close(self._theirs.pop())
        if self.pid is not None and not self._status.closed:
            self.returncode = self._read()
        self._status.close()
        return self.returncode


def _run_processes(ctx: _RunContext, blocks: list[Block], backend: BackendSpec,
                   study: str | None, monitor) -> Columns:
    if study is None:
        raise ExecutionError(f"the process backend needs {_NAMED_STUDY}")
    for spec in ctx.vl:
        # the canonical form writes an unencodable payload as its display text
        # and a non-finite float as a tagged string: a worker would get both
        try:
            json.dumps(spec.values, allow_nan=False)  # also refuses cycles
            canonical_json(spec.values)  # also refuses non-string keys
        except (TypeError, ValueError) as exc:
            raise ExecutionError("the process backend needs JSON-serializable "
                                 f"variables: {spec.name}: {exc}") from exc
    setup = encode_frame({"tag": "setup", "study": study, "varlist": ctx.vl.canonical(),
                          "seed": ctx.seed.canonical(), "keep_seed": ctx.keep_seed,
                          "rep_first": ctx.rep_first})

    def send(i: int, worker: _Worker, frame: bytes) -> None:
        try:
            worker.stdin.write(frame)
            worker.stdin.flush()
        except OSError as exc:  # the worker closed its end: it is gone
            raise _died(i) from exc

    def slot(i: int, worker: _Worker):
        def execute(take):
            sent: collections.deque[list[Block]] = collections.deque()
            while True:
                while len(sent) < IN_FLIGHT and (task := take()) is not None:
                    send(i, worker, _task_frame(task))
                    sent.append(task)
                if not sent:
                    return
                yield from _task_results(worker.stdout, sent.popleft(), i)
        return execute

    workers = [_Worker() for _ in range(backend.workers)]

    def kill_all() -> None:
        for worker in workers:
            worker.kill()

    try:
        control = _zygote_control()
        for i, worker in enumerate(workers):
            worker.fork(control)
            send(i, worker, setup)
        # on a failure or an interrupt, killed workers end every slot's wait
        # for results at once instead of after the tasks in flight
        outcomes = _run_pool(ctx, blocks, backend.load_balancing,
                             [slot(i, w) for i, w in enumerate(workers)], monitor,
                             stop=kill_all)
        for worker in workers:
            worker.stdin.close()  # end of input ends the worker
    except BaseException:
        kill_all()
        raise
    finally:
        for worker in workers:
            worker.wait()
            worker.stdout.close()
            with contextlib.suppress(OSError):  # bytes a dead worker never took
                worker.stdin.close()
    return outcomes
