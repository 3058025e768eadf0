"""Execution of the virtual grid: harness, blocks, and backends.

The virtual grid stacks ``n_sim`` replications of the physical grid; one
virtual cell is one sub-job.  ``rep_first=True`` places all replications of a
grid row consecutively (linear = row * n_sim + rep - 1); ``rep_first=False``
interleaves rows within a replication (linear = (rep - 1) * n_G + row).

Work is partitioned into blocks of ``block_size`` consecutive replications of
a single grid row (``block_size`` must divide ``n_sim``), numbered as the
sub-jobs of the virtual grid of ``n_sim // block_size`` replications, so in
order of their first linear index, and the blocks into tasks, ranges of
consecutive block numbers (guided self-scheduling: each task takes
``ceil(remaining / (2 * slots))`` blocks, no more than hold 64 sub-jobs and
at least one, so the tail is single blocks).  Task composition depends only
on the number of blocks, their size and the slot count, never on timing.
One scheduler hands the tasks to slots: the calling thread (sequential), one
thread per slot (thread pool), or one thread per forked worker process, whose
main thread runs the same slot behind a frame protocol on its task and result
pipes.  With load balancing (default) tasks are pulled from a shared queue as
slots become free; without it they are pre-assigned round-robin.  Either way
the assembled results are identical for deterministic studies; only timing
fields may differ.  The slot and the scheduler each compute a task's grid
rows and replications once, with numpy.  Once any slot fails, or the calling
thread is interrupted, no slot starts another block.

A slot that runs sub-jobs owns one random stream: under a seeded discipline
it resets it to the replication's state before each call, under ``none``/
``unseeded`` it carries on its thread's ambient stream.  A study's ``rng`` is
valid only during its call; a value is copied when it returns.  A task's
outcomes are columns (values, times, sparse errors and warnings, seeds),
which a slot hands over once per task (kept seeds only under ``none``: the
scheduler fills in other kept seeds from its table of the replications'
states) and the scheduler writes into the run's store-order columns with
one put: values into one float64 array, inner dimensions first, until the
first value of another shape turns it into the per-cell list of a raw
fallback.  Records are built only for a monitor, whose calls never overlap:
one that raises is the last.

Frame protocol: 4-byte big-endian payload length, then a canonical-JSON
payload (the result files' text family), followed in a result frame by a
newline and a tail of raw bytes; a frame above 64 MiB is a protocol error.
The parent sends each worker one ``setup`` frame (study name, the
declaration's canonical form, the canonical seeding spec, ``keep_seed``, the
virtual order and the block size), from which the worker builds its run
context as the parent does (``run_study`` has refused a declaration that this
form does not carry faithfully, ``VarList.lossy``).  A setup frame over the
limit (a ``per-rep-stream`` spec takes ~211 bytes per replication, so ~318k
at most) fails the run before any worker starts.  A ``task`` frame carries
only ``[start, stop]`` block numbers, at most ``IN_FLIGHT`` unread per
worker, which never fill a pipe: the parent never waits to write a task while
its worker waits to write results.  The worker answers a task with ``result``
frames, ``{"tag": "result", "blocks": n, ...}`` and the fields and tail of
``results.frame_parts`` (no ``shapes`` when each value has the inner shape)
for the task's next ``n`` blocks, in order.  It runs a whole task, then
encodes it as one frame; if ``encode_frame`` refuses that as over the limit,
it sends one frame per block, so only a single block over the limit is an
error.  Each frame sent is encoded once.  The parent checks a frame's tag and
block count, reads its columns as a whole with ``results.frame_columns``, and
writes them into the run's columns with one put.  End of input ends the
worker; an unexpected frame tag, task blocks other than two ints ``0 <= start
< stop <=`` the number of blocks, a result frame that answers no block or
more blocks than are outstanding, or one whose columns do not read or whose
seeds are not what the run ships (a list under ``none`` with ``keep_seed``,
else null), is a protocol error naming the worker, so a malformed answer
never lands in a cell that the frame does not answer.  A worker dying mid-run
aborts the run (no retry), and on any failure or interrupt the parent kills
every worker at once.  The monitor runs in the calling process.

Workers are forked, per run, from a zygote, a fork server that a process's
first process-backend run spawns as ``python -m mcgrid --worker``.  It
imports numpy, ``numpy.random`` and this module, no study or report module,
and draws from no stream, so each worker draws its own entropy under
``none``/``unseeded``; each worker also reseeds numpy's legacy global
generator from its own entropy.  A worker takes the parent's working
directory, import path, environment, numpy error state, warning filters and
standard error (also as its standard output) as they are at the fork; it
imports its study's module first, and drops a filter on a category whose
module neither that nor the zygote has loaded (pytest's, say), as importing
it would cost each worker more than its start.  BLAS thread settings are
read once, at the zygote's start.  A slot thread runs in a copy of the
calling thread's context, so under its numpy error state too.  The parent
kills a worker through the zygote, which signals only a child it has not
reaped, so never a process that took a reaped worker's pid.  The zygote ends at end of
input on its control socket, killing any worker left (its parent was
killed); an ``atexit`` hook closes the socket and waits for the zygote, and
a zygote that is gone is respawned.  A child forked from the parent drops
its copy of the socket at once and spawns its own zygote when it needs one.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import contextvars
import functools
import importlib
import json
import math
import os
import signal
import struct
import sys
import threading
import time
import types
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import registry
from .results import (CacheInvalidError, Columns, ErrorInfo, ResultStore, SubJobRecord,
                      _fingerprint, _inner_shape, assemble, canonical_json, frame_columns,
                      frame_parts, maybe_read, save)
from .seeding import RngStream, SeedSpec, ambient_stream, seed_for
from .varlist import VarList, mk_grid, non_grid_args, unravel

MAX_FRAME = 64 * 1024 * 1024
WORKER_FLAG = "--worker"
TASK_SUBJOBS = 64  # most sub-jobs in a task of more than one block
IN_FLIGHT = 2     # task frames a process slot keeps sent but not yet answered


class ProtocolError(RuntimeError):
    """Malformed traffic on a worker pipe."""


class ExecutionError(RuntimeError):
    """A backend failed at run time (a worker died, a slot or a monitor raised)."""


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


def partition_blocks(n_G: int, n_sim: int, block_size: int) -> range:
    """The numbers of the blocks that cover the virtual grid exactly once."""
    if block_size < 1 or n_sim % block_size != 0:
        raise ValueError(f"block size {block_size} must divide n_sim {n_sim}")
    return range(n_G * n_sim // block_size)


def partition_tasks(blocks: range, block_size: int, slots: int) -> list[range]:
    """Split ``blocks``, each of ``block_size`` sub-jobs, into tasks of
    consecutive blocks, in order.

    Guided self-scheduling: each task takes ``ceil(remaining / (2 * slots))``
    blocks, no more than hold ``TASK_SUBJOBS`` sub-jobs and at least one, so
    tasks are large while much work remains and single blocks at the tail,
    where they keep slots balanced.  The cap counts sub-jobs, not blocks: the
    costs of a task's frames are spread over its sub-jobs.
    """
    cap = max(1, TASK_SUBJOBS // block_size)
    tasks, start = [], 0
    while start < len(blocks):
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
    A value is a plain float or a float64 array copied at return, so a study
    may refill and return the same buffer.
    """
    warnings_list: list[str] = []

    def warn(message):
        warnings_list.append(str(message))

    value = error = None
    t0 = time.perf_counter_ns()
    try:
        value = study_fn(params, rng, warn)
    except Exception as exc:
        error = ErrorInfo(str(exc) or type(exc).__name__, type(exc).__name__)
    time_ms = (time.perf_counter_ns() - t0) / 1e6

    if error is None and type(value) is not float:
        try:
            if value is None:
                raise ValueError("study function returned no value")
            value = np.array(value, dtype=float)
            if value.ndim == 0:
                value = float(value)
        except Exception as exc:
            value, error = None, ErrorInfo(f"unusable study value: {exc}", "invalid-return")
    return value, error, tuple(warnings_list), time_ms


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
    block_size: int
    seed: SeedSpec
    keep_seed: bool
    study_fn: object
    grid: object = field(init=False)  # mk_grid(vl), with read-only levels
    n_G: int = field(init=False)
    n_sim: int = field(init=False)
    args: dict = field(init=False)    # non_grid_args(vl), each one read-only
    states: list = field(init=False)  # seed_for(seed, rep) at index rep - 1
    philox: list = field(init=False)  # their Philox states; None: never reset
    inner: tuple = field(init=False)  # the shape of a value that stacks
    ships_seeds: bool = field(init=False)  # a slot's columns carry seeds: kept under none

    def __post_init__(self):
        grid = mk_grid(self.vl)
        self.grid = replace(grid, level_values=_freeze(grid.level_values))
        self.n_G = self.grid.n_rows
        self.n_sim = self.vl.n_sim
        self.inner = _inner_shape(self.vl)
        self.ships_seeds = self.keep_seed and self.seed.kind == "none"
        self.args = {name: _freeze(arg) for name, arg in non_grid_args(self.vl).items()}
        # seed_for depends only on (seed, rep): derive each replication once
        self.states = [seed_for(self.seed, rep) for rep in range(1, self.n_sim + 1)]
        self.philox = [s and s.philox_state() for s in self.states]

    def subjobs(self, blocks: range) -> tuple[np.ndarray, np.ndarray]:
        """The grid rows and replications (1-based) of the sub-jobs of
        consecutive ``blocks``, in task order: sub-job ``t`` of the block
        order is at offset ``t % block_size`` in block ``t // block_size``."""
        size = self.block_size
        t = np.arange(blocks.start * size, blocks.stop * size)
        if self.rep_first:  # a row's blocks are consecutive: t is the linear index
            rows, reps = np.divmod(t, self.n_sim)
        else:
            chunks, rows = np.divmod(t // size, self.n_G)
            reps = chunks * size + t % size
        return rows, reps + 1


def subjob(ctx: _RunContext, rng: RngStream, rep: int, params: dict) -> tuple:
    """Run one sub-job of replication ``rep`` through the harness, on the
    slot's stream ``rng`` reset to the replication's state (left as it is
    under ``none``/``unseeded``); returns the harness outcome."""
    if (state := ctx.philox[rep - 1]) is not None:
        rng.reset(state)
    return do_call_we(ctx.study_fn, dict(params), rng)


def _run_tasks(ctx: _RunContext, take, stopped=lambda: False):
    """A slot: each task ``take()`` hands out and its sub-jobs' columns, in
    task order, once the whole task has run.  Once ``stopped()`` is true
    before a block, the slot ends without another yield.  The slot owns one
    stream: reset before every sub-job, or under ``none``/``unseeded`` its
    thread's ambient stream, carried on between sub-jobs."""
    rng = RngStream.from_state(ctx.states[0]) if ctx.states[0] else ambient_stream()
    while (task := take()) is not None:
        rows, reps = map(np.ndarray.tolist, ctx.subjobs(task))
        values, times, errors, warns, seeds = [], [], {}, {}, []
        params = {}  # each row's arguments, built once per task
        for k, (row, rep) in enumerate(zip(rows, reps)):
            if k % ctx.block_size == 0 and stopped():
                return
            if row not in params:
                params[row] = ctx.grid.row_params(row) | ctx.args
            if ctx.ships_seeds:  # the state the sub-job starts from
                seeds.append(rng.state.to_hex())
            value, error, warnings, time_ms = subjob(ctx, rng, rep, params[row])
            if error is not None:
                errors[k] = error
            if warnings:
                warns[k] = warnings
            values.append(value)
            times.append(time_ms)
        yield task, Columns(values, times, errors, warns, seeds if ctx.ships_seeds else None)


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
              rep_first: bool = True) -> ResultStore:
    """Run the whole virtual grid and assemble (and optionally persist) results.

    When ``cache_path`` names an existing file whose fingerprint matches this
    study declaration and study, the persisted results are returned without
    running anything (``from_cache`` is set on the returned object); a
    mismatching fingerprint raises CacheInvalidError, and so does a file
    saved without ``keep_seed`` when ``keep_seed`` is asked for (it holds no
    seeds).  Fresh results are saved to ``cache_path`` when given.  A cache
    and the process backend need a named study (``registry.study_name``) and
    a declaration not ``VarList.lossy``: ``ValueError`` before anything runs.
    Nested calls are rejected: one live backend per process.

    ``monitor(vidx, record)`` is called once per sub-job, in the calling
    process on every backend, after each task and from the thread that
    drives its slot (so from several threads on the pools).  On the process
    backend a task's results come in one result frame (in several past the
    frame limit), and reach the monitor frame by frame.  Calls never overlap.
    A monitor that raises stops the run with ``ExecutionError``, and no call
    follows the one that raised.
    """
    seed = seed if seed is not None else SeedSpec.seq()
    backend = backend if backend is not None else Sequential()
    problems = vl.validate()
    problems += seed.validate(vl.n_sim)
    problems += backend.validate(vl.n_sim)
    study = registry.study_name(study_fn)
    if cache_path is not None or backend.kind == "processes":  # the declaration leaves
        user = "a cache" if cache_path is not None else "the process backend"
        if study is None:
            problems.append(f"{user} needs a registered or module-level study function "
                            "(register_study, or a plain function addressable as module:name)")
        problems += [f"{user} needs JSON-serializable variables: {p}" for p in vl.lossy()]
    if problems:
        raise ValueError("; ".join(problems))

    if cache_path is not None:  # a faithful declaration, as lossy() found above
        cached = maybe_read(cache_path, _fingerprint(vl, rep_first, seed, study, False))
        if cached is not None:
            if keep_seed and not cached.meta.keep_seed:
                raise CacheInvalidError(f"{cache_path}: saved without keep_seed, so it holds "
                                        "no seeds; delete the file or point the run elsewhere")
            return cached

    if not _run_active.acquire(blocking=False):
        raise RuntimeError("nested run_study calls are not supported "
                           "(one live backend per process)")
    try:
        ctx = _RunContext(vl, rep_first, backend.block_size, seed, keep_seed, study_fn)
        blocks = partition_blocks(ctx.n_G, ctx.n_sim, ctx.block_size)
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


def _run_pool(ctx: _RunContext, blocks: range, load_balancing: bool,
              slots: list, monitor=None, stop=None) -> Columns:
    """The run's columns in store order, from every block run on ``slots``:
    callables that take functions ``take`` and ``stopped`` and yield
    ``(blocks, columns)``, a range of consecutive blocks of a task and their
    sub-jobs' columns, for the tasks ``take()`` hands out until it returns
    None.  Each yield's columns, kept seeds filled in, go into the run's
    columns with one put, then its sub-jobs to ``monitor`` (if given).

    A single slot runs on the calling thread, more run on one thread each.
    ``take()`` pulls from a shared task queue with load balancing and from the
    slot's round-robin share without.  Once any slot fails, or the calling
    thread is interrupted while it waits, ``take()`` hands out nothing more,
    ``stopped()`` is true, ``stop()`` (if given) is called once so that slots
    waiting on work in flight return at once, no monitor call follows, and
    every slot stops after its current block; the first failure (or the
    interrupt) is raised after every slot stopped.
    """
    n_G, n = ctx.n_G, ctx.n_G * ctx.n_sim
    kept = ctx.keep_seed and ctx.seed.kind != "unseeded"
    table = np.array([s.to_hex() for s in ctx.states], dtype=object) \
        if kept and ctx.states[0] else None
    out = Columns(np.full(ctx.inner + (n,), math.nan), np.zeros(n), {}, {},
                  np.full(n, None, dtype=object) if kept else None)
    failures: list[BaseException] = []
    lock, monitor_lock = threading.Lock(), threading.Lock()
    tasks = partition_tasks(blocks, ctx.block_size, len(slots))
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
        def take() -> range | None:
            with lock:
                return None if failures else next(queues[slot], None)

        try:
            for blocks, cols in slots[slot](take, lambda: bool(failures)):
                rows, reps = ctx.subjobs(blocks)
                if table is not None:
                    cols.seeds = table[reps - 1]
                with lock:  # the first value of another shape changes the value column
                    out.put(rows + n_G * (reps - 1), cols)  # whatever the virtual order
                if monitor is not None:
                    linears = rows * ctx.n_sim + reps - 1 if ctx.rep_first else \
                        (reps - 1) * n_G + rows
                    with monitor_lock:
                        try:  # a failure is recorded before another call can start
                            for k, vidx in enumerate(map(VirtualIndex, linears.tolist(),
                                                         rows.tolist(), reps.tolist())):
                                if failures:
                                    break
                                monitor(vidx, cols.record(k))
                        except BaseException as exc:
                            fail(exc)
                if failures:
                    break
        except BaseException as exc:  # re-raised below, once every slot stopped
            fail(exc)

    if len(slots) == 1:
        drive(0)
    else:
        threads = [threading.Thread(target=contextvars.copy_context().run, args=(drive, i),
                                    name=f"mcgrid-slot-{i}") for i in range(len(slots))]
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

def encode_frame(doc: dict, tail: list | None = None) -> bytes:
    """A frame of ``doc``'s canonical JSON; with a ``tail``, a list of
    bytes-like chunks, the text is followed by a newline and their bytes."""
    payload = canonical_json(doc).encode("utf-8")
    chunks = [payload] if tail is None else [payload, b"\n", *tail]
    n = sum(memoryview(chunk).nbytes for chunk in chunks)
    if n > MAX_FRAME:
        raise ProtocolError(f"frame of {n} bytes exceeds the 64 MiB limit")
    return b"".join([struct.pack(">I", n), *chunks])


def read_frame(stream) -> dict | None:
    """Next frame's document from a byte stream; None on clean EOF.  A frame
    with a tail has its bytes under ``"tail"``, as a memoryview."""
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
    # canonical text has no newline byte, not even inside a UTF-8 sequence
    end = payload.find(b"\n")
    doc = json.loads((payload if end < 0 else payload[:end]).decode("utf-8"))
    if end >= 0:
        if not isinstance(doc, dict):
            raise ProtocolError("a frame with a tail is not a document")
        doc["tail"] = memoryview(payload)[end + 1:]
    return doc


def _result_frames(ctx: _RunContext, blocks: range, cols: Columns):
    """The result frames, each encoded once, that answer a task's ``blocks``,
    whose sub-jobs' outcomes are ``cols``: one frame, or, when
    ``encode_frame`` refuses that one as over the limit, one frame per block.
    A single block over the limit is a ProtocolError."""
    def frame(i: int, j: int) -> bytes:  # of blocks i to j
        doc, tail = frame_parts(cols, i * ctx.block_size, j * ctx.block_size, ctx.inner)
        return encode_frame({"tag": "result", "blocks": j - i, **doc}, tail)

    try:
        frames = [frame(0, len(blocks))]
    except ProtocolError:
        if len(blocks) == 1:
            raise
        frames = (frame(i, i + 1) for i in range(len(blocks)))
    yield from frames


def _task_results(stream, ctx: _RunContext, task: range, worker: int):
    """``(blocks, columns)`` for each result frame that answers ``task``, in
    order: the blocks of the task it answers, and its columns, read and
    checked as a whole by ``frame_columns`` before any of it is yielded.
    Its seeds are a list exactly when the run ships them."""
    while task:
        frame = read_frame(stream)
        if frame is None:
            raise _died(worker)
        if (tag := frame.get("tag") if isinstance(frame, dict) else None) != "result":
            raise ProtocolError(f"worker {worker}: expected result frame, got {tag!r}")
        n = frame.get("blocks")
        if type(n) is not int or not 0 < n <= len(task):
            raise ProtocolError(f"worker {worker}: a result frame answers {n} "
                                f"blocks, {len(task)} outstanding")
        blocks, task = task[:n], task[n:]
        try:
            cols = frame_columns(frame, n * ctx.block_size, ctx.inner)
            if (cols.seeds is not None) != ctx.ships_seeds:
                raise ValueError(f"seeds not {'a list' if ctx.ships_seeds else 'null'}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"worker {worker}: malformed result frame ({exc!r})") from exc
        yield blocks, cols


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

    def take() -> range | None:
        if (task := next_frame("task")) is None:
            return None
        if type(b := task.get("blocks")) is not list or list(map(type, b)) != [int, int] \
                or not 0 <= b[0] < b[1] <= len(blocks):
            raise ProtocolError(f"task blocks {b!r} are not [start, stop] of {len(blocks)} blocks")
        return blocks[b[0]:b[1]]

    try:
        setup = next_frame("setup")
        if setup is None:
            return 0
        # the run context, built as the parent built its own
        ctx = _RunContext(VarList.from_canonical(setup["varlist"]), setup["rep_first"],
                          setup["block_size"], SeedSpec.from_canonical(setup["seed"]),
                          setup["keep_seed"], registry.get_study(setup["study"]))
        blocks = partition_blocks(ctx.n_G, ctx.n_sim, ctx.block_size)
        for task, cols in _run_tasks(ctx, take):
            stdout.writelines(_result_frames(ctx, task, cols))  # holds one frame at a time
            stdout.flush()
    except Exception as exc:
        print(f"worker: {exc!r}", file=sys.stderr)
        return 1
    return 0


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

    import numpy.random  # noqa: F401 -- once here, not in each worker after its fork
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
        np.seterr(**request["errstate"])
        np.random.seed()  # the legacy global generator: the worker's own entropy
        with contextlib.suppress(Exception):  # else worker_main reports it
            registry.get_study(request["study"])  # first: its warning categories too
        warnings.resetwarnings()
        for action, category, lineno, message, module in request["filters"]:
            module_name, _, qualname = category.partition(":")
            with contextlib.suppress(AttributeError):  # a category not loaded here is dropped
                category = functools.reduce(getattr, qualname.split("."),
                                            sys.modules.get(module_name))
                warnings.filterwarnings(action, message, category, module, lineno, append=True)
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

    def __init__(self, study: str | None = None):
        self.study = study  # imported at the fork, before the warning filters
        task, result, status = os.pipe(), os.pipe(), os.pipe()
        self.stdin, self.stdout = open(task[1], "wb"), open(result[0], "rb")
        self._status, self.pid, self.returncode = open(status[0], "rb"), None, None
        self._theirs = [task[0], result[1], status[1]]
        self._control = None

    def fork(self, control) -> None:
        """Have the zygote fork the worker; its pid comes on the status pipe."""
        import socket
        self._control = control
        request = json.dumps({
            "cwd": os.getcwd(), "path": sys.path, "env": _worker_env(), "study": self.study,
            "errstate": np.geterr(),
            # a filter's message and module are None, a compiled pattern or a string
            "filters": [[action, f"{c.__module__}:{c.__qualname__}", lineno,
                         *(getattr(p, "pattern", p) or "" for p in (message, module))]
                        for action, message, c, module, lineno in warnings.filters]}).encode()
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


def _run_processes(ctx: _RunContext, blocks: range, backend: BackendSpec,
                   study: str, monitor) -> Columns:
    setup = encode_frame({"tag": "setup", "study": study, "varlist": ctx.vl.canonical(),
                          "seed": ctx.seed.canonical(), "keep_seed": ctx.keep_seed,
                          "rep_first": ctx.rep_first, "block_size": ctx.block_size})

    def send(i: int, worker: _Worker, frame: bytes) -> None:
        try:
            worker.stdin.write(frame)
            worker.stdin.flush()
        except OSError as exc:  # the worker closed its end: it is gone
            raise _died(i) from exc

    def slot(i: int, worker: _Worker):
        def execute(take, stopped):  # a failure kills the workers instead
            sent: collections.deque[range] = collections.deque()
            while True:
                while len(sent) < IN_FLIGHT and (task := take()) is not None:
                    send(i, worker, encode_frame({"tag": "task",
                                                  "blocks": [task.start, task.stop]}))
                    sent.append(task)
                if not sent:
                    return
                yield from _task_results(worker.stdout, ctx, sent.popleft(), i)
        return execute

    workers = [_Worker(study) for _ in range(backend.workers)]

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
