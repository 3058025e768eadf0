"""Harness capture, virtual indexing, blocks, frames, and backends."""

import contextlib
import gc
import io
import json
import math
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits, scalar_varlist, tiny_varlist
from light_studies import (SPECIAL_DOUBLES, StudyWarning, appending_level_study, appending_study,
                           buffer_study, chatty_study, cheap_style_study, coin_study,
                           dividing_study, dying_study, float_type_study, fresh_buffer_study,
                           interrupting_study, legacy_random_study, matmul_study, mid_buffer_study,
                           params_probe_study, poly_noisy, poly_study, ragged_study,
                           shape_switch_study, shaped_coin_study, special_doubles_study,
                           square_study, warning_study, wide_study)

from mcgrid import (ErrorInfo, ExecutionError, ProcessPool, ProtocolError,
                    RawFallback, ResultStore, RngStream, SeedSpec, Sequential,
                    ThreadPool, VarList, VarSpec, do_call_we, do_res_equal, get_array,
                    linear_of, partition_blocks, run_study, seed_for, virtual_index)
from mcgrid import executor
from mcgrid.executor import (TASK_SUBJOBS, WORKER_FLAG, encode_frame, partition_tasks,
                             read_frame, worker_main)
from mcgrid.results import Columns, SubJobRecord, canonical_json, load, save
from mcgrid.seeding import StreamState, derive_streams
from mcgrid.var_copula import probe_first_uniform

try:
    import fcntl
except ImportError:  # not a POSIX system: test_minimum_pipe_capacity skips
    fcntl = None


def _fork_spy(seen: list):
    """``_Worker.fork`` that also lists each worker it forks in ``seen``."""
    fork = executor._Worker.fork

    def spy(self, control):
        seen.append(self)
        fork(self, control)

    return spy


@pytest.fixture
def forked(monkeypatch):
    """The parent-side handle of every worker the zygote forks in the test."""
    seen = []
    monkeypatch.setattr(executor._Worker, "fork", _fork_spy(seen))
    return seen


def _in_child(scenario: str, *args, timeout: float = 60) -> None:
    """Run ``scenario(*args)``, a function of this module, in a fresh
    interpreter with this one's warning options, and fail when it fails,
    leaves an exception unraisable, or takes over ``timeout`` seconds: a
    pool that a broken kill leaves waiting fails the test instead of hanging
    it (a run waits for every worker's exit code, even after an interrupt)."""
    flags = [f"-W{w}" for w in sys.warnoptions] + (["-X", "dev"] if sys.flags.dev_mode else [])
    code = f"import test_executor\ntest_executor.{scenario}(*{args!r})"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=os.path.dirname(__file__),
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    assert "Exception ignored" not in proc.stderr, proc.stderr


class TestDoCallWe:
    def test_value_and_time_captured(self):
        def fn(params, rng, warn):
            return 41.5

        value, error, warnings, time_ms = do_call_we(fn, {}, None)
        assert value == 41.5 and error is None and warnings == ()
        assert np.isfinite(time_ms) and time_ms >= 0

    def test_warnings_kept_in_emission_order(self):
        def fn(params, rng, warn):
            warn("first")
            warn("second")
            warn("third")
            return 1.0

        _, _, warnings, _ = do_call_we(fn, {}, None)
        assert warnings == ("first", "second", "third")

    def test_error_captured_with_warnings_before_failure(self):
        def fn(params, rng, warn):
            warn("about to fail")
            raise ValueError("deliberate")

        value, error, warnings, _ = do_call_we(fn, {}, None)
        assert value is None
        assert error is not None and "deliberate" in error.message
        assert warnings == ("about to fail",)

    def test_none_return_is_invalid(self):
        value, error, _, _ = do_call_we(lambda p, r, w: None, {}, None)
        assert value is None and error is not None
        assert error.kind == "invalid-return"

    def test_non_numeric_return_is_invalid(self):
        value, error, _, _ = do_call_we(lambda p, r, w: "nope", {}, None)
        assert value is None and error.kind == "invalid-return"

    def test_scalar_array_return_unwrapped(self):
        value, error, _, _ = do_call_we(lambda p, r, w: np.float64(3.5), {}, None)
        assert error is None and value == 3.5 and isinstance(value, float)


class TestVirtualIndex:
    def test_rep_first_layout(self):
        idx = virtual_index(7, n_G=4, n_sim=3, rep_first=True)
        assert (idx.row, idx.rep) == (2, 2)
        assert linear_of(2, 2, 4, 3, True) == 7

    def test_row_first_layout(self):
        idx = virtual_index(7, n_G=4, n_sim=3, rep_first=False)
        assert (idx.row, idx.rep) == (3, 2)
        assert linear_of(3, 2, 4, 3, False) == 7

    def test_bounds_checked(self):
        with pytest.raises(IndexError):
            virtual_index(12, 4, 3, True)
        with pytest.raises(IndexError):
            linear_of(4, 1, 4, 3, True)
        with pytest.raises(IndexError):
            linear_of(0, 0, 4, 3, True)

    @given(st.integers(1, 64), st.integers(1, 64), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bijection(self, n_G, n_sim, rep_first):
        seen = set()
        for linear in range(n_G * n_sim):
            v = virtual_index(linear, n_G, n_sim, rep_first)
            assert linear_of(v.row, v.rep, n_G, n_sim, rep_first) == linear
            seen.add((v.row, v.rep))
        assert len(seen) == n_G * n_sim


def _context(n_G: int, n_sim: int, block_size: int, rep_first: bool = True,
             keep_seed: bool = False, seed: SeedSpec = SeedSpec.seq()) -> executor._RunContext:
    """The run context of a grid of rows x=0, 1, ..., n_G - 1, with no study."""
    vl = VarList([VarSpec("n.sim", "N", n_sim), VarSpec("x", "grid", tuple(range(n_G)))])
    return executor._RunContext(vl, rep_first, block_size, seed, keep_seed, None)


def _block(ctx, b: int) -> tuple[int, int]:
    """Block ``b``'s grid row and first replication (1-based)."""
    rows, reps = ctx.subjobs(range(b, b + 1))
    return int(rows[0]), int(reps[0])


def _linears(ctx, b: int) -> list[int]:
    """The linear indices of block ``b``'s sub-jobs, in replication order."""
    rows, reps = ctx.subjobs(range(b, b + 1))
    return [linear_of(row, rep, ctx.n_G, ctx.n_sim, ctx.rep_first)
            for row, rep in zip(rows.tolist(), reps.tolist())]


class TestBlocks:
    def test_partition_covers_exactly_once(self):
        for rep_first in (True, False):
            ctx = _context(3, 4, 2, rep_first)
            seen = [k for b in partition_blocks(3, 4, 2) for k in _linears(ctx, b)]
            assert sorted(seen) == list(range(12))

    def test_block_is_consecutive_reps_of_one_row(self):
        for rep_first in (True, False):
            ctx = _context(5, 8, 4, rep_first)
            for b in partition_blocks(5, 8, 4):
                idxs = [virtual_index(k, 5, 8, rep_first) for k in _linears(ctx, b)]
                assert len({v.row for v in idxs}) == 1
                reps = [v.rep for v in idxs]
                assert reps == list(range(reps[0], reps[0] + 4))

    def test_blocks_ordered_by_first_linear(self):
        for rep_first in (True, False):
            ctx = _context(4, 6, 3, rep_first)
            firsts = [_linears(ctx, b)[0] for b in partition_blocks(4, 6, 3)]
            assert firsts == sorted(firsts)

    def test_nondividing_block_size_rejected(self):
        with pytest.raises(ValueError):
            partition_blocks(2, 6, 4)

    @given(st.integers(1, 6), st.sampled_from([(1, 1), (4, 1), (4, 2), (6, 3), (8, 8)]),
           st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_task_coordinates_are_its_blocks_sub_jobs(self, n_G, sizes, rep_first, data):
        # block b is sub-job b of the virtual grid of n_sim / block_size
        # replications, widened to block_size consecutive replications
        n_sim, size = sizes
        ctx = _context(n_G, n_sim, size, rep_first)
        n_blocks = n_G * n_sim // size
        start = data.draw(st.integers(0, n_blocks - 1))
        task = range(start, data.draw(st.integers(start + 1, n_blocks)))
        want = [(v.row, (v.rep - 1) * size + 1 + i)
                for v in (virtual_index(b, n_G, n_sim // size, rep_first) for b in task)
                for i in range(size)]
        rows, reps = ctx.subjobs(task)
        assert list(zip(rows.tolist(), reps.tolist())) == want


class TestTasks:
    @given(st.integers(0, 400), st.integers(1, 6), st.sampled_from([1, 3, 16, 64, 100]))
    @settings(max_examples=200, deadline=None)
    def test_guided_partition(self, n_blocks, slots, block_size):
        blocks = partition_blocks(n_blocks, block_size, block_size)
        tasks = partition_tasks(blocks, block_size, slots)
        assert [b for task in tasks for b in task] == list(blocks)  # each once, in order
        assert all(type(task) is range and task.step == 1 for task in tasks)
        sizes = [len(task) for task in tasks]
        # at most TASK_SUBJOBS sub-jobs in a task, unless it is a single block
        assert all(k == 1 or 1 < k * block_size <= TASK_SUBJOBS for k in sizes)
        assert sizes == sorted(sizes, reverse=True)
        remaining = n_blocks
        for k in sizes:  # the tail is single blocks
            assert k == 1 or remaining > 2 * slots
            remaining -= k

    def test_sizes_for_two_slots(self):
        sizes = [len(t) for t in partition_tasks(partition_blocks(10_000, 1, 1), 1, 2)]
        assert sizes[-19:] == [64, 64, 52, 39, 30, 22, 17, 12, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1, 1]
        assert len(sizes) == 170


class TestFrames:
    def test_roundtrip(self):
        doc = {"tag": "task", "payload": [1, 2.5, "x", None]}
        buf = io.BytesIO(encode_frame(doc))
        assert read_frame(buf) == doc

    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-2**31, 2**31) |
        st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4) |
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=12))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_arbitrary_documents(self, doc):
        buf = io.BytesIO(encode_frame(doc))
        assert read_frame(buf) == doc

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_truncated_header_raises(self):
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_payload_raises(self):
        frame = encode_frame({"a": 1})
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(frame[:-2]))

    def test_oversize_declared_length_raises(self):
        buf = io.BytesIO(struct.pack(">I", 65 * 1024 * 1024) + b"x")
        with pytest.raises(ProtocolError):
            read_frame(buf)

    def test_oversize_outgoing_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "y" * (65 * 1024 * 1024)})


class TestWorkerLoop:
    # setup and task frames built by hand: the schema is the wire contract
    def _setup(self, vl, study, keep_seed=False, block_size=1):
        return {"tag": "setup", "study": study, "varlist": vl.canonical(),
                "seed": {"kind": "seq"}, "keep_seed": keep_seed, "rep_first": True,
                "block_size": block_size}

    def _task(self, start, stop):
        return {"tag": "task", "blocks": [start, stop]}

    def _serve(self, *frames):
        stdin = io.BytesIO(b"".join(encode_frame(f) for f in frames))
        stdout = io.BytesIO()
        code = worker_main(stdin, stdout)
        stdout.seek(0)
        return code, stdout

    def test_task_frame_produces_records(self):
        vl = scalar_varlist(n_sim=4)
        # blocks 3 and 4: reps 3-4 of row 1 (x=4), then reps 1-2 of row 2 (x=5)
        code, stdout = self._serve(self._setup(vl, "square", keep_seed=True, block_size=2),
                                   self._task(3, 5))
        assert code == 0
        # one result frame per task: its sub-jobs' columns in block order,
        # each block's in rep order, then the values as float64 bytes
        result = read_frame(stdout)
        assert set(result) == {"tag", "blocks", "shapes", "time_ms", "errors", "warnings",
                               "seeds", "tail"}
        assert (result["tag"], result["blocks"], result["shapes"]) == ("result", 2, [[]] * 4)
        assert np.frombuffer(result["tail"], "<f8").tolist() == [16.0, 16.0, 25.0, 25.0]
        assert len(result["time_ms"]) == 4
        assert all(isinstance(t, float) for t in result["time_ms"])
        assert result["errors"] == result["warnings"] == []
        # a seeded discipline's kept seeds come from the parent's table, so
        # the worker sends none; under none they are the states it started from
        assert result["seeds"] is None
        assert read_frame(stdout) is None  # 1 frame
        setup = self._setup(vl, "light_studies:coin_study", keep_seed=True, block_size=2)
        code, stdout = self._serve(dict(setup, seed={"kind": "none"}), self._task(3, 5))
        seeds = read_frame(stdout)["seeds"]
        assert code == 0 and len(set(seeds)) == 4
        assert all(StreamState.from_hex(seed).to_hex() == seed for seed in seeds)

    def test_result_frame_keeps_errors_and_warnings_by_offset(self):
        # coin_study: rep 1 succeeds, reps 2 and 3 fail, rep 4 warns; errors
        # and warnings count from the frame's first sub-job, and an errored
        # sub-job has a null shape and no bytes
        vl = VarList([VarSpec("n.sim", "N", 4), VarSpec("x", "grid", (3, 4, 5))])
        code, stdout = self._serve(self._setup(vl, "light_studies:coin_study", block_size=2),
                                   self._task(2, 4))  # reps 1-2 and 3-4 of row 1
        assert code == 0
        result = read_frame(stdout)
        u = [RngStream.from_state(seed_for(SeedSpec.seq(), rep)).uniform() for rep in (1, 4)]
        assert result["shapes"] == [[], None, None, []]
        assert np.frombuffer(result["tail"], "<f8").tolist() == [4 + u[0], 4 + u[1]]
        assert result["errors"] == [[k, "low draw", "RuntimeError"] for k in (1, 2)]
        assert result["warnings"] == [[3, ["high draw"]]]
        assert result["seeds"] is None
        assert read_frame(stdout) is None

    def test_worker_main_frame_loop(self):
        vl = scalar_varlist(n_sim=1)
        code, stdout = self._serve(self._setup(vl, "square"), self._task(0, 2),
                                   self._task(2, 3))
        assert code == 0  # end of input ends the worker
        for want in ([9.0, 16.0], [25.0]):  # one result frame per task
            result = read_frame(stdout)
            assert (result["tag"], result["blocks"]) == ("result", len(want))
            assert np.frombuffer(result["tail"], "<f8").tolist() == want
            assert result["seeds"] is None
        assert read_frame(stdout) is None  # 2 frames

    def test_shutdown_frame_is_protocol_error(self, capsys):
        vl = scalar_varlist(n_sim=1)
        code, stdout = self._serve(self._setup(vl, "square"), {"tag": "shutdown"},
                                   self._task(1, 2))
        assert code == 1
        assert "unexpected frame tag 'shutdown'" in capsys.readouterr().err
        assert read_frame(stdout) is None

    def test_worker_eof_is_clean_exit(self):
        assert worker_main(io.BytesIO(b""), io.BytesIO()) == 0

    def test_worker_rejects_unknown_study(self, capsys):
        vl = scalar_varlist(n_sim=1)
        code, _ = self._serve(self._setup(vl, "no-such-study"), self._task(0, 2))
        assert code != 0
        assert "no-such-study" in capsys.readouterr().err

    def test_malformed_task_blocks_are_a_protocol_error(self, capsys):
        # of the run's three blocks: a stepped range, a prefix, an empty or
        # reversed range, a range past the run, and anything but two ints
        setup = self._setup(scalar_varlist(n_sim=1), "square")
        for bad in ([0, 3, 2], [2], [], [1, 1], [2, 1], [0, 4], [-1, 1], [True, 2],
                    [0, 2.0], [[0], [2]], "02", {"0": 2}, None):
            code, stdout = self._serve(setup, {"tag": "task", "blocks": bad})
            assert code == 1 and stdout.getvalue() == b""
            assert f"task blocks {bad!r} are not [start, stop] of 3 blocks" in \
                capsys.readouterr().err

    def test_worker_garbage_frame_is_protocol_error(self, capsys):
        code = worker_main(io.BytesIO(b"\x00\x00"), io.BytesIO())
        assert code != 0
        assert "protocol" in capsys.readouterr().err.lower()


class TestTaskFrames:
    # a task of five 2-rep blocks on rows x=3, 4, 5; under coin_study rep 1
    # succeeds, reps 2 and 3 fail, rep 4 warns, so errors and warnings fall
    # at every block offset of the task
    VL = VarList([VarSpec("n.sim", "N", 4), VarSpec("x", "grid", (3, 4, 5))])
    CTX = executor._RunContext(VL, True, 2, SeedSpec.seq(), True, coin_study)
    TASK = range(5)

    def _serve(self, task, block_size=2, seed=SeedSpec.seq()):
        loop = TestWorkerLoop()
        setup = loop._setup(self.VL, "light_studies:coin_study", keep_seed=True,
                            block_size=block_size)
        return loop._serve(dict(setup, seed=seed.canonical()), loop._task(task.start, task.stop))

    def _frames(self, stdout) -> list[dict]:
        frames = []
        while (frame := read_frame(stdout)) is not None:
            frames.append(frame)
        stdout.seek(0)
        return frames

    def _expected(self, blocks: range) -> Columns:
        spec, records = SeedSpec.seq(), []
        for b in blocks:
            row, first = _block(self.CTX, b)
            x = self.VL.specs[1].values[row]
            for rep in range(first, first + 2):
                u = RngStream.from_state(seed_for(spec, rep)).uniform()
                if u < 0.5:
                    records.append(SubJobRecord(error=ErrorInfo("low draw", "RuntimeError")))
                else:
                    warned = ("high draw",) if u > 0.75 else ()
                    records.append(SubJobRecord(value=x + u, warnings=warned))
        return Columns.from_records(records)

    def _check(self, got):
        # each frame's blocks, as one set of columns with offsets from the
        # frame's first block; kept seq seeds come from the parent's table
        assert [b for blocks, _ in got for b in blocks] == list(self.TASK)
        for blocks, cols in got:
            want = self._expected(blocks)
            assert len(cols.time_ms) == 2 * len(blocks)
            assert (cols.errors, cols.warnings, cols.seeds) == (want.errors, want.warnings, None)
            assert [(r.value, r.error) for r in map(cols.record, range(len(cols.time_ms)))] == \
                [(r.value, r.error) for r in map(want.record, range(len(cols.time_ms)))]

    def test_one_frame_per_task(self):
        code, stdout = self._serve(self.TASK)
        assert code == 0
        (frame,) = self._frames(stdout)
        tail = frame.pop("tail")
        assert encode_frame(frame, [tail]) == stdout.getvalue()  # canonical text
        low, high = ["low draw", "RuntimeError"], ["high draw"]
        # errors and warnings by offset from the frame's first sub-job
        assert frame["errors"] == [[k, *low] for k in (1, 2, 5, 6, 9)]
        assert frame["warnings"] == [[k, high] for k in (3, 7)]
        self._check(list(executor._task_results(stdout, self.CTX, self.TASK, 0)))

    def test_over_limit_task_is_several_frames_of_whole_blocks(self, monkeypatch):
        code, stdout = self._serve(self.TASK)
        # under the task's one frame, over its setup frame (which ships no seeds)
        limit = 3 * len(stdout.getvalue()) // 4
        monkeypatch.setattr(executor, "MAX_FRAME", limit)
        encodes, encode = [], executor.encode_frame
        monkeypatch.setattr(executor, "encode_frame",
                            lambda *args: encodes.append(args) or encode(*args))
        counts = []
        for _ in range(2):
            code, stdout = self._serve(self.TASK)
            assert code == 0
            frames = self._frames(stdout)
            counts.append([f["blocks"] for f in frames])
            # one frame per block, each within the limit and encoded once,
            # after the one refused encode of the whole task
            assert [f["blocks"] for f in frames] == [1] * len(self.TASK)
            assert len(encodes) == len(frames) + 1
            assert all(len(encode(f, [f.pop("tail")])) <= limit + 4 for f in frames)
            self._check(list(executor._task_results(stdout, self.CTX, self.TASK, 0)))
            encodes.clear()
        assert counts[0] == counts[1]  # the split depends on the outcomes, not the times

    def test_over_limit_block_is_a_protocol_error(self, monkeypatch, capsys):
        # row 1, reps 1-4, under none: a worker ships the four kept seeds
        code, stdout = self._serve(range(1, 2), block_size=4, seed=SeedSpec.none_reseed())
        monkeypatch.setattr(executor, "MAX_FRAME", len(stdout.getvalue()) // 2)
        code, stdout = self._serve(range(1, 2), block_size=4, seed=SeedSpec.none_reseed())
        assert code == 1 and stdout.getvalue() == b""
        assert "exceeds" in capsys.readouterr().err

        def frames_of(blocks: int) -> bytes:  # a task of blocks of 8 sub-jobs
            cols = Columns([1.0] * 8 * blocks, [0.5] * 8 * blocks, {}, {}, None)
            return b"".join(executor._result_frames(types.SimpleNamespace(block_size=8),
                                                    range(blocks), cols))

        monkeypatch.setattr(executor, "MAX_FRAME", 64 * 1024 * 1024)
        one = frames_of(1)
        assert frames_of(2) == encode_frame(  # one frame of both
            {"tag": "result", "blocks": 2, "shapes": [[]] * 16, "time_ms": [0.5] * 16,
             "errors": [], "warnings": [], "seeds": None}, [np.ones(16)])
        monkeypatch.setattr(executor, "MAX_FRAME", len(one) - 4)  # its payload
        assert frames_of(2) == one + one
        monkeypatch.setattr(executor, "MAX_FRAME", len(one) - 5)
        with pytest.raises(ProtocolError, match="exceeds"):
            frames_of(1)

    @staticmethod
    def _answer(*frames) -> io.BytesIO:
        """Result frames by hand, each given as ``blocks, shapes, values``
        and any other fields: times of 0.5 and no errors, warnings or seeds
        unless given."""
        out = io.BytesIO()
        for blocks, shapes, values, *more in frames:
            doc = {"tag": "result", "blocks": blocks, "shapes": shapes,
                   "time_ms": [0.5] * len(shapes), "errors": [], "warnings": [], "seeds": None}
            doc.update(*more)
            out.write(encode_frame(doc, [np.array(values, dtype="<f8")]))
        out.seek(0)
        return out

    TWO = (1, [[]] * 2, [1.0, 2.0])  # a frame answering one block of two scalars

    def test_frame_ending_inside_a_block_is_a_protocol_error(self):
        task = range(2)
        # a column of another length than the sub-jobs of the blocks answered:
        # shapes, times or seeds
        for bad in ((1, [[]] * 3, [1.0] * 3), (1, [[]] * 2, [1.0] * 2, {"time_ms": [0.5]}),
                    (1, [[]] * 2, [1.0] * 2, {"seeds": ["00"]}),
                    (1, [[]] * 2, [1.0] * 2, {"seeds": []}), (2, [[]] * 2, [1.0] * 2)):
            # the frame is checked as a whole before any of it is taken
            got = executor._task_results(self._answer(bad), self.CTX, task, 0)
            with pytest.raises(ProtocolError, match=r"worker 0: malformed result frame \(Value"
                                                    r"Error\('a time, value or seed column not "
                                                    r"of [24] entries'\)\)"):
                next(got)
        # a frame that answers no block
        with pytest.raises(ProtocolError, match="worker 0: a result frame answers 0 blocks"):
            list(executor._task_results(self._answer((0, [], [])), self.CTX, task, 0))
        # end of input before the task is covered: the worker is gone
        got = executor._task_results(self._answer(self.TWO), self.CTX, task, 1)
        assert next(got)[0] == task[:1]
        with pytest.raises(ExecutionError, match="worker 1 died mid-run"):
            next(got)

    def test_offset_outside_its_block_is_a_protocol_error(self):
        # an offset past the frame would write a cell of a block it does not
        # answer, and a repeated one would drop an entry
        task = range(2)
        for errors, warnings in (([[2, "m", "E"]], []), ([], [[2, ["w"]]]),
                                 ([[-1, "m", "E"]], []), ([], [[True, ["w"]]]),
                                 ([[1.0, "m", "E"]], []), ([[1, "m", "E"], [1, "m", "E"]], []),
                                 ([[1, "m", "E"]], [[0, ["a"]], [0, ["b"]]])):
            bad = (1, [[], None], [1.0], {"errors": errors, "warnings": warnings})
            for frames in ((bad, self.TWO), (self.TWO, bad)):
                got = executor._task_results(self._answer(*frames), self.CTX, task, 3)
                if frames[0] is not bad:
                    next(got)
                with pytest.raises(ProtocolError, match=r"worker 3: malformed result frame "
                                                        r"\(ValueError\('error or warning indices "
                                                        r"not increasing ints in \[0, 2\)'\)\)"):
                    next(got)

    def test_values_that_do_not_fill_the_shapes_are_a_protocol_error(self):
        task = range(1)
        for bad in ((1, [[], []], [1.0]), (1, [[], []], [1.0] * 3), (1, [[2], []], [1.0] * 2),
                    (1, [[-1], [4]], [1.0] * 3), (1, [["2"], []], [1.0] * 3),
                    (1, [[[2]], []], [1.0] * 3), (1, [{"2": 1}, []], [1.0] * 2)):
            with pytest.raises(ProtocolError, match=r"worker 0: malformed result frame \(Value"
                                                    r"Error\('values that do not fill their "
                                                    r"shapes'\)\)"):
                next(executor._task_results(self._answer(bad), self.CTX, task, 0))
        doc = {"tag": "result", "blocks": 1, "shapes": [[], []], "time_ms": [0.5] * 2,
               "errors": [], "warnings": [], "seeds": None}
        with pytest.raises(ProtocolError, match="do not fill their shapes"):  # 17 value bytes
            next(executor._task_results(io.BytesIO(encode_frame(doc, [bytes(17)])),
                                        self.CTX, task, 0))

    def test_values_at_errored_sub_jobs_are_a_protocol_error(self):
        # a value where an error is, or a null shape where none is
        task = range(1)
        error = {"errors": [[1, "m", "E"]]}
        for bad in ((1, [[], []], [1.0, 2.0], error), (1, [None, []], [1.0]),
                    (1, [None, []], [1.0], error)):
            with pytest.raises(ProtocolError, match=r"worker 0: malformed result frame \(Value"
                                                    r"Error\('errors not exactly at the null "
                                                    r"values'\)\)"):
                next(executor._task_results(self._answer(bad), self.CTX, task, 0))
        ((_, cols),) = executor._task_results(self._answer((1, [[], None], [1.0], error)),
                                              self.CTX, task, 0)
        assert (cols.record(0).value, cols.record(1).value) == (1.0, None)
        assert cols.errors == {1: ErrorInfo("m", "E")}

    def test_malformed_fields_are_a_protocol_error_that_names_the_worker(self):
        # a missing column, times that are not a column, an error entry that
        # is not a triple, and warning messages that are not a list: never a
        # bare KeyError, TypeError or ValueError from inside the read
        doc = {"tag": "result", "blocks": 1, "shapes": [[], None], "time_ms": [0.5, 0.5],
               "errors": [[1, "m", "E"]], "warnings": [], "seeds": None}
        for edit, cause in ((lambda d: d.pop("seeds"), KeyError),
                            (lambda d: d.update(time_ms=5), ValueError),
                            (lambda d: d.update(errors=[[1, "m"]]), ValueError),
                            (lambda d: d.update(errors=[1]), TypeError),
                            (lambda d: d.update(warnings=[[0, 5]]), TypeError)):
            bad = dict(doc)
            edit(bad)
            stream = io.BytesIO(encode_frame(bad, [np.ones(1)]))
            with pytest.raises(ProtocolError, match=r"^worker 2: malformed result frame \(") \
                    as info:
                next(executor._task_results(stream, self.CTX, range(1), 2))
            assert type(info.value.__cause__) is cause
        # seeds where the run ships none, and none where it does (under none
        # with keep_seed): either would leave the run's kept seeds wrong
        ships = executor._RunContext(self.VL, True, 2, SeedSpec.none_reseed(), True, coin_study)
        for ctx, seeds, want in ((self.CTX, ["00", "01"], "null"), (ships, None, "a list")):
            stream = io.BytesIO(encode_frame(dict(doc, seeds=seeds), [np.ones(1)]))
            with pytest.raises(ProtocolError, match=r"^worker 2: malformed result frame \(Value"
                                                    rf"Error\('seeds not {want}'\)\)"):
                next(executor._task_results(stream, ctx, range(1), 2))
        # a frame that is not a document
        with pytest.raises(ProtocolError, match="worker 2: expected result frame, got None"):
            next(executor._task_results(io.BytesIO(encode_frame([1])), self.CTX, range(1), 2))

    def test_frame_answering_more_blocks_than_outstanding_is_a_protocol_error(self):
        task = range(2)
        stream = self._answer(self.TWO, (2, [[]] * 4, [1.0] * 4))
        got = executor._task_results(stream, self.CTX, task, 0)
        assert next(got)[0] == task[:1]
        with pytest.raises(ProtocolError, match="answers 2 blocks, 1 outstanding"):
            next(got)


_SCALARS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324])


@st.composite
def _result_frames(draw):
    """A run's blocks, each block's columns (scalar, multi-dimensional or
    ragged values, errors with null values, warnings, and under ``none``
    kept seeds or none; a seeded run that keeps seeds ships none),
    and for each task its result frames as a worker writes them, the task
    split into frames at random, under a frame limit of 64 MiB or of one or
    two times the largest single block's payload, so that a frame over it
    goes one per block.  The first shape drawn is the inner shape."""
    n_G, size = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n_sim, rep_first = size * draw(st.integers(1, 4)), draw(st.booleans())
    shapes = draw(st.lists(st.sampled_from([(), (2,), (2, 3), (0,), (1, 2)]),
                           min_size=1, max_size=2))  # two shapes: ragged values
    kept, slots = draw(st.booleans()), draw(st.integers(1, 3))
    seed = draw(st.sampled_from([SeedSpec.seq(), SeedSpec.none_reseed()]))
    ctx = _context(n_G, n_sim, size, rep_first, kept, seed)
    shipped = kept and seed.kind == "none"  # the seeds a result frame carries
    ctx.inner = shapes[0]
    blocks = partition_blocks(n_G, n_sim, size)
    columns, streams = {}, {}
    for task in partition_tasks(blocks, size, slots):
        cuts = set(draw(st.sets(st.integers(1, len(task) - 1), max_size=3))) \
            if len(task) > 1 else set()
        for block in task:
            value, errors, warns = [], {}, {}
            for j in range(size):
                if draw(st.booleans()):
                    errors[j] = ErrorInfo(draw(st.text(max_size=3)), "E")
                    value.append(None)
                else:
                    shape = draw(st.sampled_from(shapes))
                    flat = draw(st.lists(_SCALARS, min_size=math.prod(shape),
                                         max_size=math.prod(shape)))
                    value.append(np.array(flat, dtype=float).reshape(shape) if shape
                                 else flat[0])
                if draw(st.booleans()):
                    warns[j] = tuple(draw(st.lists(st.text(max_size=3), min_size=1, max_size=2)))
            seeds = [draw(st.none() | st.text("0123456789abcdef", max_size=4))
                     for _ in range(size)] if shipped else None
            times = draw(st.lists(_SCALARS, min_size=size, max_size=size))
            columns[block] = Columns(value, times, errors, warns, seeds)
        streams[task] = [task[i:j] for i, j in zip([0, *sorted(cuts)],
                                                   [*sorted(cuts), len(task)])]
    # the payload of the largest frame of a single block
    largest = max(len(b"".join(executor._result_frames(ctx, range(1), columns[b]))) - 4
                  for b in blocks)
    limit = draw(st.sampled_from([executor.MAX_FRAME, largest, 2 * largest]))
    default, executor.MAX_FRAME = executor.MAX_FRAME, limit
    try:
        for task, parts in streams.items():
            streams[task] = b""
            for part in parts:
                each = [columns[block] for block in part]  # as one task's columns
                cols = Columns([v for c in each for v in c.value],
                               [t for c in each for t in c.time_ms],
                               {size * b + k: e for b, c in enumerate(each)
                                for k, e in c.errors.items()},
                               {size * b + k: w for b, c in enumerate(each)
                                for k, w in c.warnings.items()},
                               [x for c in each for x in c.seeds] if shipped else None)
                streams[task] += b"".join(executor._result_frames(ctx, part, cols))
    finally:
        executor.MAX_FRAME = default
    return ctx, slots, blocks, columns, streams


@given(_result_frames())
@settings(max_examples=150, deadline=None)
def test_frames_decode_as_block_by_block_reads(frames):
    # reference: each block's columns written at the block's store cells
    # value by value, with no frame in between
    ctx, slots, blocks, columns, streams = frames
    n_G, kept, inner = ctx.n_G, ctx.keep_seed, ctx.inner
    n = n_G * ctx.n_sim
    want = Columns([None] * n, [0.0] * n, {}, {}, [None] * n if kept else None)
    for b in blocks:
        row, first = _block(ctx, b)
        cols, start = columns[b], row + n_G * (first - 1)
        at = slice(start, start + n_G * ctx.block_size, n_G)
        want.value[at] = cols.value
        want.time_ms[at] = cols.time_ms
        if cols.seeds is not None:
            want.seeds[at] = cols.seeds
        elif kept and ctx.seed.kind == "seq":  # filled in from the parent's table
            want.seeds[at] = [seed_for(ctx.seed, rep).to_hex()
                              for rep in range(first, first + ctx.block_size)]
        want.errors.update({start + n_G * k: e for k, e in cols.errors.items()})
        want.warnings.update({start + n_G * k: w for k, w in cols.warnings.items()})

    def slot(take, stopped):
        while (task := take()) is not None:
            yield from executor._task_results(io.BytesIO(streams[task]), ctx, task, 0)

    got = executor._run_pool(ctx, blocks, True, [slot] * slots)
    # one array while every value has the inner shape, else each cell's value
    assert (type(got.value) is list) == \
        any(v is not None and np.shape(v) != inner for v in want.value)
    values = [got.record(cell).value for cell in range(n)]
    assert [type(v) for v in values] == [type(v) for v in want.value]
    assert [np.shape(v) for v in values] == [np.shape(v) for v in want.value]
    assert [np.asarray(v).tobytes() for v in values if v is not None] == \
        [np.asarray(v).tobytes() for v in want.value if v is not None]
    assert float_bits(got.time_ms) == float_bits(want.time_ms)
    assert (got.errors, got.warnings) == (want.errors, want.warnings)
    assert (got.seeds is None or list(got.seeds)) == (want.seeds is None or want.seeds)


class TestRunStudySequential:
    def test_values_match_direct_computation(self):
        vl = tiny_varlist(n_sim=2)
        res = run_study(vl, poly_study)
        for row in range(4):
            for rep in (1, 2):
                rec = res.record(row, rep)
                assert rec.error is None
                a = [1, 2][row % 2]
                b = [10, 20][row // 2]
                expect = [a * b * p + 100 for p in (0.5, 1.0, 2.0)]
                assert np.allclose(rec.value, expect)

    def test_monitor_called_per_subjob(self):
        vl = scalar_varlist(n_sim=2)
        lines = []
        res = run_study(vl, square_study,
                        monitor=lambda v, rec: lines.append((v.linear, rec.time_ms)))
        assert len(lines) == 6
        assert sorted(l for l, _ in lines) == list(range(6))
        assert isinstance(res.record(0, 1).time_ms, float)

    def test_keep_seed_records_pre_call_state(self):
        vl = scalar_varlist(n_sim=2)
        res = run_study(vl, square_study, keep_seed=True)
        from mcgrid import seed_for
        want = seed_for(SeedSpec.seq(), 2).to_hex()
        assert res.record(0, 2).seed == want
        assert res.record(2, 2).seed == want

    def test_seed_never_recorded_for_unseeded(self):
        vl = scalar_varlist(n_sim=2)
        res = run_study(vl, square_study, seed=SeedSpec.unseeded(), keep_seed=True)
        assert all(r.seed is None for r in res.records)

    def test_invalid_backend_reported_before_running(self):
        vl = scalar_varlist(n_sim=2)
        with pytest.raises(ValueError):
            run_study(vl, square_study, backend=Sequential(block_size=4))

    def test_errors_recorded_not_raised(self):
        def sometimes(params, rng, warn):
            if params["x"] == 4:
                raise RuntimeError("no four")
            return float(params["x"])

        res = run_study(scalar_varlist(2), sometimes)
        assert res.error_count() == 2
        assert res.record(1, 1).error is not None
        assert "no four" in res.record(1, 2).error.message
        assert res.record(0, 1).value == 3.0

    def test_unserializable_variables_rejected_up_front(self, monkeypatch, tmp_path):
        vl = VarList([VarSpec("n.sim", "N", 1), VarSpec("x", "grid", (3, np.int64(4)))])
        with pytest.raises(ValueError, match="x: levels are not JSON-serializable"):
            run_study(vl, square_study)
        # frozen payloads may be any object in-process, but not in a worker
        # or a cache; JSON objects need string keys.  The canonical form
        # writes non-finite floats as the strings "NaN", "Inf" and "-Inf", so
        # a worker would receive strings.  Both are refused before the run
        # lock is taken or a seed state derived.
        x = VarSpec("x", "grid", (3, 4))
        cases = [("f", [x, VarSpec("f", "frozen", {"fn": len})]),
                 ("f", [x, VarSpec("f", "frozen", {1: 2})]),
                 ("x", [VarSpec("x", "grid", (3, math.inf))]),
                 ("p", [x, VarSpec("p", "inner", (0.5, math.nan))]),
                 ("f", [x, VarSpec("f", "frozen", {"a": {"b": [1.0, math.nan]}})])]
        for name, specs in cases:
            vl = VarList([VarSpec("n.sim", "N", 1), *specs])
            assert run_study(vl, square_study).error_count() == 0
            assert run_study(vl, square_study, backend=ThreadPool(2)).error_count() == 0
            calls = []
            monkeypatch.setattr(executor, "seed_for", lambda *args: calls.append(args))
            with executor._run_active:  # a check after the lock would see a nested run
                for user, kwargs in (("the process backend", {"backend": ProcessPool(2)}),
                                     ("a cache", {"cache_path": tmp_path / "c.json"})):
                    with pytest.raises(ValueError,
                                       match=f"{user} needs JSON-serializable variables: "
                                             f"{name}: "):
                        run_study(vl, square_study, **kwargs)
            monkeypatch.undo()
            assert calls == [] and not (tmp_path / "c.json").exists()

    def test_whole_float_values_stay_floats_on_every_backend(self):
        vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (1.0, 2.5)),
                      VarSpec("f", "frozen", 3.0)])
        for backend in (Sequential(), ThreadPool(2), ProcessPool(2)):
            res = run_study(vl, float_type_study, backend=backend)
            assert [r.value for r in res.records] == [1.0] * 4, backend

    def test_every_backend_hands_a_study_the_same_params(self):
        vl = VarList([
            VarSpec("n.sim", "N", 2),
            VarSpec("i", "grid", (1, 2)),
            VarSpec("w", "grid", (1.0, 2.0)),
            VarSpec("s", "grid", ("a", "b")),
            VarSpec("b", "grid", (True, False)),
            VarSpec("g", "grid", ((1, 2), (3, 4))),  # a worker reads JSON lists
            VarSpec("q", "inner", (0.25, 0.5)),
            VarSpec("d", "frozen", {"k": 1, "v": 0.5}),
            VarSpec("l", "frozen", [1, 2.0, "x"]),
            VarSpec("t", "frozen", "NaN"),  # the text that tags a float NaN on the wire
            VarSpec("z", "frozen", None),
            VarSpec("n", "frozen", {"outer": {"inner": [1, {"deep": True}]}}),
        ])
        # the probe returns a scalar despite the inner variable: raw records
        seq = run_study(vl, params_probe_study)
        assert isinstance(seq, RawFallback) and seq.error_count() == 0
        assert len({r.value for r in seq.records}) == 32  # one checksum per grid row
        for backend in (ThreadPool(2), ProcessPool(2)):
            res = run_study(vl, params_probe_study, backend=backend)
            assert do_res_equal(seq, res), (backend, do_res_equal(seq, res).report)

    def test_rep_first_false_same_store(self):
        vl = tiny_varlist(n_sim=2)
        a = run_study(vl, poly_study, rep_first=True)
        b = run_study(vl, poly_study, rep_first=False)
        # stores index identically; only the virtual execution order changed
        for row in range(4):
            for rep in (1, 2):
                assert np.array_equal(a.record(row, rep).value,
                                      b.record(row, rep).value)


class TestThreadBackend:
    @pytest.mark.parametrize("block_size", [1, 2])
    @pytest.mark.parametrize("lb", [True, False])
    def test_matches_sequential(self, block_size, lb):
        vl = tiny_varlist(n_sim=4)
        base = run_study(vl, poly_study)
        res = run_study(vl, poly_study,
                        backend=ThreadPool(3, block_size=block_size,
                                           load_balancing=lb))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report

    def test_study_exception_inside_worker_recorded(self):
        def boom(params, rng, warn):
            raise RuntimeError("pow")

        res = run_study(scalar_varlist(2), boom, backend=ThreadPool(2))
        assert res.error_count() == 6


class TestProcessBackend:
    def test_matches_sequential_registered_study(self):
        vl = tiny_varlist(n_sim=4)
        base = run_study(vl, poly_study)
        res = run_study(vl, poly_study,
                        backend=ProcessPool(2, block_size=2))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report

    def test_static_assignment_matches_too(self):
        vl = scalar_varlist(n_sim=4)
        base = run_study(vl, square_study)
        res = run_study(vl, square_study,
                        backend=ProcessPool(3, block_size=1, load_balancing=False))
        assert do_res_equal(base, res)

    def test_multi_block_tasks_match_sequential(self):
        vl = tiny_varlist(n_sim=25)  # 100 blocks: tasks of 25, 19, ... and a ragged tail
        base = run_study(vl, poly_noisy, keep_seed=True)
        res = run_study(vl, poly_noisy, keep_seed=True,
                        backend=ProcessPool(2, load_balancing=False))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report

    @pytest.mark.parametrize("backend", [ProcessPool(2), ProcessPool(2, block_size=2),
                                         ProcessPool(2, load_balancing=False)])
    def test_cheap_style_study_matches_sequential(self, backend):
        # 48 sub-jobs: the first tasks hold several blocks, with errors and
        # warnings at offsets past their first block
        vl = VarList([VarSpec("n.sim", "N", 8), VarSpec("x", "grid", (3, 4, 5)),
                      VarSpec("y", "grid", (1, 2)), VarSpec("k", "inner", (1, 2))])
        base = run_study(vl, cheap_style_study, keep_seed=True)
        assert (base.error_count(), base.warning_count()) == (8, 24)
        res = run_study(vl, cheap_style_study, keep_seed=True, backend=backend)
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report

    def test_result_frames_beyond_the_pipe_buffer(self):
        vl = scalar_varlist(n_sim=2)
        base = run_study(vl, wide_study)
        res = run_study(vl, wide_study, backend=ProcessPool(2))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                        reason="pipe capacity cannot be set here")
    def test_minimum_pipe_capacity(self, monkeypatch, forked):
        # the worker reads its input only between tasks: with every pipe at
        # the 4,096-byte minimum, the unread task frames in flight must still
        # fit while the worker writes results larger than its result pipe
        pipe, shrunk = os.pipe, []

        def shrinking():
            ends = pipe()
            fcntl.fcntl(ends[1], fcntl.F_SETPIPE_SZ, 4096)
            shrunk.append(fcntl.fcntl(ends[1], fcntl.F_GETPIPE_SZ))
            return ends

        executor._zygote_control()  # started first: only the workers' pipes count
        monkeypatch.setattr(os, "pipe", shrinking)
        # ~110 kB of results per block, with a second task in flight
        vl = scalar_varlist(n_sim=400)
        base = run_study(vl, square_study, keep_seed=True)
        res = run_study(vl, square_study, keep_seed=True,
                        backend=ProcessPool(2, block_size=400, load_balancing=False))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report
        # 100 blocks: many tasks of up to 8 blocks
        vl = tiny_varlist(n_sim=25)
        base = run_study(vl, poly_noisy, keep_seed=True)
        res = run_study(vl, poly_noisy, keep_seed=True, backend=ProcessPool(2))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report
        # task, result and status pipes of 2 workers in each of 2 runs, each
        # at the kernel's minimum (4,096 bytes with 4 KiB pages)
        assert len(shrunk) == 12 and len(set(shrunk)) == 1 and len(forked) == 4
        assert all(w.returncode == 0 for w in forked)  # ended, exit codes read

    def test_unregistered_lambda_rejected(self, monkeypatch):
        vl = scalar_varlist(n_sim=1)
        calls = []
        monkeypatch.setattr(executor, "seed_for", lambda *args: calls.append(args))
        with executor._run_active, pytest.raises(
                ValueError, match="the process backend needs a registered or module-level"):
            run_study(vl, lambda p, r, w: 1.0, backend=ProcessPool(2))
        assert calls == []

    def test_dead_worker_stops_the_pool(self, tmp_path):
        _in_child("_dead_worker_stops_the_pool", str(tmp_path))

    def test_worker_pipes_are_closed(self, tmp_path):
        vl = VarList([VarSpec("n.sim", "N", 200), VarSpec("x", "grid", (3, 4, 5)),
                      VarSpec("paths", "frozen", {"log": str(tmp_path / "subjobs.log"),
                                                  "marker": str(tmp_path / "died")})])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            run_study(scalar_varlist(n_sim=2), square_study, backend=ProcessPool(2))
            with pytest.raises(ExecutionError, match="died mid-run"):
                run_study(vl, dying_study, backend=ProcessPool(2))
            gc.collect()  # a pipe left open warns when its file object is freed
        assert [str(w.message) for w in seen if issubclass(w.category, ResourceWarning)] == []

    def test_oversized_setup_frame_fails_before_spawning(self, monkeypatch):
        # a per-rep-stream spec travels in the setup frame, ~211 bytes a state
        monkeypatch.setattr(executor, "MAX_FRAME", 10_000)
        requests = []
        monkeypatch.setattr(socket, "send_fds", lambda *args: requests.append(args))
        seed = SeedSpec.per_rep_stream(derive_streams(100, [1]))
        with pytest.raises(ProtocolError, match="exceeds"):
            run_study(scalar_varlist(n_sim=100), square_study, seed=seed,
                      backend=ProcessPool(2))
        assert requests == []  # no fork request sent

    def test_refused_task_frame_reads_as_a_dead_worker(self, monkeypatch, forked):
        # a worker that dies while the parent writes its next task shows up
        # as a broken pipe on the write, not as end of input on a read
        class GonePipe:
            def __init__(self, pipe):
                self.pipe, self.writes = pipe, 0

            def write(self, data):
                if self.writes == 2:  # the setup frame and one task went through
                    raise BrokenPipeError(32, "Broken pipe")
                self.writes += 1
                return self.pipe.write(data)

            def flush(self):
                self.pipe.flush()

            def close(self):
                self.pipe.close()

        fork = executor._Worker.fork

        def gone(self, control):
            fork(self, control)
            self.stdin = GonePipe(self.stdin)

        monkeypatch.setattr(executor._Worker, "fork", gone)
        with pytest.raises(ExecutionError, match=r"worker \d died mid-run"):
            run_study(tiny_varlist(n_sim=40), poly_study, backend=ProcessPool(2))
        assert len(forked) == 2
        assert all(w.returncode == -signal.SIGKILL for w in forked)  # killed, exit codes read

    def test_worker_flag_constant(self):
        assert WORKER_FLAG == "--worker"

    def test_printing_study_matches_sequential(self, capfd):
        vl = scalar_varlist(n_sim=4)
        base = run_study(vl, chatty_study, keep_seed=True)
        res = run_study(vl, chatty_study, keep_seed=True, backend=ProcessPool(2))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report
        assert "chatty: x=3" in capfd.readouterr().err  # workers' prints go to stderr


def _dead_worker_stops_the_pool(tmp: str) -> None:
    forked = []
    executor._Worker.fork = _fork_spy(forked)
    log = os.path.join(tmp, "subjobs.log")
    vl = VarList([VarSpec("n.sim", "N", 200), VarSpec("x", "grid", (3, 4, 5)),
                  VarSpec("paths", "frozen", {"log": log, "sleep": 0.01,
                                              "marker": os.path.join(tmp, "died")})])
    with pytest.raises(ExecutionError, match="died mid-run"):
        run_study(vl, dying_study, backend=ProcessPool(2))
    # 60 sub-jobs of the surviving worker take 0.6 s; a pool that does
    # not stop logs all 600
    with open(log, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) < 60
    assert len(forked) == 2
    # the one that died exits 3, the other is killed; both exit codes read
    assert sorted(w.returncode for w in forked) == [-signal.SIGKILL, 3]


@pytest.mark.parametrize("backend", [ThreadPool(2), ProcessPool(2)])
def test_interrupt_stops_every_slot(tmp_path, backend):
    _in_child("_interrupt_stops_every_slot", str(tmp_path), backend.kind)


def _interrupt_stops_every_slot(tmp: str, kind: str) -> None:
    forked = []
    executor._Worker.fork = _fork_spy(forked)
    log = os.path.join(tmp, "subjobs.log")
    vl = VarList([VarSpec("n.sim", "N", 500), VarSpec("x", "grid", (3, 4)),
                  VarSpec("ctl", "frozen", {"log": log, "pid": os.getpid(),
                                            "marker": os.path.join(tmp, "sent")})])
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_study(vl, interrupting_study, backend=executor.BackendSpec(kind, 2))
    finally:
        signal.signal(signal.SIGINT, previous)
    done = os.path.getsize(log)
    time.sleep(0.3)
    assert os.path.getsize(log) == done < 200  # of 1,000 sub-jobs
    assert not [t for t in threading.enumerate() if t.name.startswith("mcgrid-slot")]
    assert len(forked) == (2 if kind == "processes" else 0)
    assert all(w.returncode == -signal.SIGKILL for w in forked)  # killed, exit codes read


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestZygote:
    def test_no_zygote_or_worker_outlives_a_killed_parent(self, tmp_path):
        if not os.path.exists(f"/proc/{os.getpid()}/stat"):
            pytest.skip("needs /proc to tell a running process from a zombie")
        log = tmp_path / "pids.log"
        code = "\n".join([
            "from light_studies import pid_study",
            "from mcgrid import ProcessPool, VarList, VarSpec, run_study",
            "vl = VarList([VarSpec('n.sim', 'N', 100), VarSpec('x', 'grid', (3, 4)),",
            f"              VarSpec('ctl', 'frozen', {{'log': {str(log)!r}, 'sleep': 5}})])",
            "run_study(vl, pid_study, backend=ProcessPool(2))",
        ])
        tests = os.path.dirname(__file__)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        parent = subprocess.Popen([sys.executable, "-c", code], cwd=tests, env=env)
        try:
            deadline = time.monotonic() + 60
            while len(pids := {line.split()[0] for line in
                               (log.read_text().splitlines() if log.exists() else [])}) < 2:
                assert time.monotonic() < deadline and parent.poll() is None
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait()
        zygotes = {line.split()[1] for line in log.read_text().splitlines()}
        assert len(zygotes) == 1 and zygotes != {str(parent.pid)}  # forked by the zygote
        left = {int(pid) for pid in pids | zygotes}
        deadline = time.monotonic() + 10
        while left := {pid for pid in left if _alive(pid)}:
            assert time.monotonic() < deadline, f"still running: {sorted(left)}"
            time.sleep(0.05)

    def test_a_killed_zygote_is_respawned(self):
        vl = tiny_varlist(n_sim=4)
        first = run_study(vl, poly_noisy, keep_seed=True, backend=ProcessPool(2))
        proc = executor._zygote[0]
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        second = run_study(vl, poly_noisy, keep_seed=True, backend=ProcessPool(2))
        assert executor._zygote[0] is not proc and executor._zygote[0].poll() is None
        cmp = do_res_equal(first, second)
        assert cmp, cmp.report

    def test_unseeded_workers_draw_apart(self):
        # a zygote that drew from its own ambient stream would hand both
        # workers the same one, and their draws would repeat each other's
        vl = scalar_varlist(n_sim=8)
        res = run_study(vl, probe_first_uniform, seed=SeedSpec.unseeded(),
                        backend=ProcessPool(2, load_balancing=False))
        values = res.value.ravel().tolist()
        assert res.error_count() == 0 and len(set(values)) == len(values) == 24

    def test_blas_product_matches_sequential(self):
        vl = scalar_varlist(n_sim=2)
        base = run_study(vl, matmul_study)
        res = run_study(vl, matmul_study, backend=ProcessPool(2))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report

    def test_workers_follow_the_parent_run_by_run(self, tmp_path, monkeypatch, capfd):
        run_study(scalar_varlist(n_sim=1), square_study, backend=ProcessPool(2))
        zygote = executor._zygote[0]
        mods = tmp_path / "mods"
        mods.mkdir()
        name = f"follow_{os.getpid()}"
        (mods / f"{name}.py").write_text(
            "import os\n"
            "def study(params, rng, warn):\n"
            "    print('cwd', os.getcwd(), 'env', os.environ.get('MCGRID_FOLLOW'))\n"
            "    return float(os.path.exists('here.txt'))\n", encoding="utf-8")
        monkeypatch.syspath_prepend(str(mods))  # after the zygote started
        monkeypatch.delitem(sys.modules, name, raising=False)
        study = __import__(name).study
        for where, here in (("a", True), ("b", False)):
            (tmp_path / where).mkdir()
            if here:
                (tmp_path / where / "here.txt").write_text("", encoding="utf-8")
            monkeypatch.chdir(tmp_path / where)
            monkeypatch.setenv("MCGRID_FOLLOW", where)
            capfd.readouterr()
            res = run_study(scalar_varlist(n_sim=2), study, backend=ProcessPool(2))
            assert res.value.ravel().tolist() == [float(here)] * 6
            assert f"cwd {tmp_path / where} env {where}" in capfd.readouterr().err
        assert executor._zygote[0] is zygote  # one zygote throughout

    def test_a_kill_request_spares_a_process_that_is_not_an_unreaped_worker(self, forked):
        vl = scalar_varlist(n_sim=2)
        run_study(vl, square_study, backend=ProcessPool(1))
        reaped = forked[0].pid
        sleeper = subprocess.Popen(["sleep", "60"])
        try:
            control = executor._zygote_control()
            for pid in (sleeper.pid, reaped):  # kill requests, as _Worker.kill sends them
                control.sendall(b"K" + struct.pack(">i", pid))
            # the zygote serves requests in order: once the next run's worker
            # is forked, it has handled both kill requests
            run_study(vl, square_study, backend=ProcessPool(1))
            assert len(forked) == 2 and forked[1].returncode == 0
            assert sleeper.poll() is None
        finally:
            sleeper.kill()
            sleeper.wait()

    def test_a_kill_request_right_behind_a_fork_request_is_served(self):
        # the kill request is already in the socket when the zygote reads the
        # fork request before it: a reader that read ahead would swallow it
        class KillBehind:
            def __init__(self, control, pid):
                self.control, self.kill = control, b"K" + struct.pack(">i", pid)

            def sendmsg(self, *args):
                return self.control.sendmsg(*args)

            def sendall(self, data):
                self.control.sendall(data + self.kill)

        control = executor._zygote_control()
        first, second, third = executor._Worker(), executor._Worker(), executor._Worker()
        try:
            first.fork(control)
            second.fork(KillBehind(control, first.pid))
            third.fork(control)  # forked after the kill request was served
            for worker in (first, second, third):
                worker.stdin.close()
            assert [w.wait() for w in (first, second, third)] == [-signal.SIGKILL, 0, 0]
        finally:
            for worker in (first, second, third):
                worker.kill()
                worker.wait()
                worker.stdout.close()
                with contextlib.suppress(OSError):
                    worker.stdin.close()

    def test_a_forked_child_leaves_the_zygote_to_its_parent(self):
        _in_child("_forked_child_leaves_the_zygote")


def _forked_child_leaves_the_zygote() -> None:
    # the child holds on for 2 s, then runs the study on a zygote of its own;
    # the parent ends its zygote meanwhile, which the child's copy of the
    # control socket would delay until the child let go of it
    vl = tiny_varlist(n_sim=4)
    want = run_study(vl, poly_noisy, keep_seed=True, backend=ProcessPool(2))
    ready_r, ready_w = os.pipe()
    done_r, done_w = os.pipe()
    if (pid := os.fork()) == 0:
        code = 1
        try:
            os.write(ready_w, b"r")
            time.sleep(2)
            res = run_study(vl, poly_noisy, keep_seed=True, backend=ProcessPool(2))
            executor._stop_zygote()
            os.write(done_w, b"=" if do_res_equal(want, res) else b"!")
            code = 0
        finally:
            os._exit(code)
    os.close(ready_w)
    os.close(done_w)
    assert os.read(ready_r, 1) == b"r"
    started = time.monotonic()
    executor._stop_zygote()
    stopped = time.monotonic() - started
    assert os.read(done_r, 1) == b"="  # the child's store equals the parent's
    assert os.waitpid(pid, 0)[1] == 0
    assert stopped < 1.0, f"the parent's zygote took {stopped:.2f} s to end"
    os.close(ready_r)
    os.close(done_r)


def test_interrupt_does_not_wait_for_tasks_in_flight(tmp_path):
    # sub-jobs of 0.3 s: the interrupted worker's task of 50 blocks would run
    # for 15 s more, but the parent kills the workers instead of waiting
    log, marker = tmp_path / "subjobs.log", tmp_path / "sent"
    vl = VarList([VarSpec("n.sim", "N", 100), VarSpec("x", "grid", (3, 4)),
                  VarSpec("ctl", "frozen", {"log": str(log), "pid": os.getpid(),
                                            "marker": str(marker), "at": 2,
                                            "sleep": 0.3})])
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_study(vl, interrupting_study, backend=ProcessPool(2))
        stopped = time.time()
    finally:
        signal.signal(signal.SIGINT, previous)
    assert stopped - float(marker.read_text()) < 1.0
    assert log.stat().st_size < 10  # of 200 sub-jobs


class TestSeedMemo:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(spec, rep):
            seen.append(rep)
            return seed_for(spec, rep)

        monkeypatch.setattr(executor, "seed_for", counting)
        return seen

    @pytest.mark.parametrize("backend", [Sequential(), ThreadPool(2, block_size=2),
                                         ProcessPool(2, block_size=2)])
    def test_one_derivation_per_replication(self, calls, backend):
        vl = tiny_varlist(n_sim=4)
        res = run_study(vl, poly_noisy, keep_seed=True, backend=backend)
        assert calls == [1, 2, 3, 4]
        for row in range(4):
            for rep in range(1, 5):
                assert res.record(row, rep).seed == seed_for(SeedSpec.seq(), rep).to_hex()


@pytest.mark.parametrize("backend", [ThreadPool(2), ProcessPool(2)])
def test_monitor_sees_every_subjob_in_the_calling_process(backend):
    def watch(calls):
        return lambda vidx, rec: calls.append((vidx.linear, rec.value, os.getpid()))

    vl = scalar_varlist(n_sim=4)
    want, got = [], []
    run_study(vl, square_study, monitor=watch(want))
    run_study(vl, square_study, backend=backend, monitor=watch(got))
    assert len(got) == 12  # one call per sub-job
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("backend", [ThreadPool(2), ProcessPool(2)])
def test_failed_slot_stops_the_pool(backend):
    _in_child("_failed_slot_stops_the_pool", backend.kind)


def _failed_slot_stops_the_pool(kind: str) -> None:
    forked = []
    executor._Worker.fork = _fork_spy(forked)
    calls = []
    lock = threading.Lock()

    def monitor(vidx, rec):
        with lock:
            calls.append(vidx.linear)
            first = len(calls) == 1
        if first:
            raise RuntimeError("monitor broke")

    vl = scalar_varlist(n_sim=200)
    with pytest.raises(ExecutionError, match="monitor broke"):
        run_study(vl, square_study, backend=executor.BackendSpec(kind, 2), monitor=monitor)
    assert len(calls) == 1  # of 600 sub-jobs: no call follows the one that raised
    assert len(forked) == (2 if kind == "processes" else 0)
    assert all(w.returncode == -signal.SIGKILL for w in forked)  # killed, exit codes read


def test_monitor_calls_never_overlap():
    _in_child("_monitor_calls_never_overlap")


def _monitor_calls_never_overlap() -> None:
    # four slots on fewer cores and a short switch interval: a call that
    # started while another ran would find it still inside
    inside, overlaps = [], []

    def monitor(vidx, rec):
        inside.append(vidx.linear)
        time.sleep(0.0001)  # lets another slot's thread run
        overlaps.append(inside != [vidx.linear])
        inside.remove(vidx.linear)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_study(scalar_varlist(n_sim=100), square_study, backend=ThreadPool(4),
                  monitor=monitor)
    finally:
        sys.setswitchinterval(interval)
    assert len(overlaps) == 300 and not any(overlaps)


def test_no_monitor_call_follows_a_failure():
    # a task yielded after another slot failed goes unmonitored, even when
    # it was taken before: the monitor loop, not only the slot, checks
    ctx = _context(1, 128, 1)
    taken, seen = threading.Event(), []

    def failing(take, stopped):
        take()
        taken.wait(10)
        raise RuntimeError("slot broke")
        yield

    def late(take, stopped):
        task = take()
        taken.set()
        deadline = time.monotonic() + 10
        while not stopped() and time.monotonic() < deadline:
            time.sleep(0.001)
        yield task, Columns([1.0] * len(task), [0.5] * len(task), {}, {}, None)

    with pytest.raises(ExecutionError, match="slot broke"):
        executor._run_pool(ctx, partition_blocks(1, 128, 1), True, [failing, late],
                           monitor=lambda vidx, rec: seen.append(vidx))
    assert taken.is_set() and seen == []


def test_in_process_slot_stops_between_the_blocks_of_its_task():
    # a slot hands a task back only once it has run, so a failure elsewhere
    # must still stop it before the next block, not after the task's 64
    calls = []

    def counting_study(params, rng, warn):
        calls.append(params["x"])
        return 1.0

    ctx = executor._RunContext(scalar_varlist(n_sim=64), True, 1, SeedSpec.seq(), False,
                               counting_study)
    tasks = iter([partition_blocks(ctx.n_G, 64, 1)[:64]])
    slot = executor._run_tasks(ctx, lambda: next(tasks, None), lambda: len(calls) >= 3)
    assert list(slot) == [] and len(calls) == 3


@pytest.mark.parametrize("seed", [SeedSpec.per_rep_integer([9, 8, 7, 6]),
                                  SeedSpec.per_rep_stream(derive_streams(4, [5, 6]))])
@pytest.mark.parametrize("backend", [ThreadPool(2), ProcessPool(2)])
def test_seed_kinds_match_sequential(seed, backend):
    # workers derive every replication's state from the setup frame's spec
    vl = tiny_varlist(n_sim=4)
    base = run_study(vl, poly_noisy, seed=seed, keep_seed=True)
    res = run_study(vl, poly_noisy, seed=seed, keep_seed=True, backend=backend)
    assert res.record(1, 3).seed == seed_for(seed, 3).to_hex()
    cmp = do_res_equal(base, res)
    assert cmp, cmp.report


EVERY_BACKEND = [Sequential(), Sequential(2), ThreadPool(2), ThreadPool(2, load_balancing=False),
                 ProcessPool(2), ProcessPool(2, block_size=2, load_balancing=False)]


@pytest.mark.parametrize("rep_first", [True, False])
@pytest.mark.parametrize("backend", [Sequential(1), Sequential(2), ThreadPool(2),
                                     ThreadPool(2, load_balancing=False), ProcessPool(2),
                                     ProcessPool(2, load_balancing=False)])
def test_slot_stream_is_reset_before_every_subjob(backend, rep_first):
    # a sub-job that stops mid-buffer must not leak into the next one on its slot
    vl = VarList([VarSpec("n.sim", "N", 4), VarSpec("x", "grid", (1, 2, 3))])
    spec = SeedSpec.seq()
    res = run_study(vl, mid_buffer_study, seed=spec, keep_seed=True, backend=backend,
                    rep_first=rep_first)
    for row in range(3):
        for rep in range(1, 5):
            rec = res.record(row, rep)
            assert rec.value == RngStream.from_state(seed_for(spec, rep)).uniform()
            assert rec.seed == seed_for(spec, rep).to_hex()


@pytest.mark.parametrize("backend", [Sequential(), Sequential(2), ThreadPool(2),
                                     ProcessPool(2)])
def test_kept_ambient_state_reproduces_its_subjob(backend):
    # under none the slot's stream carries on, and keep_seed records where
    # each sub-job started
    vl = VarList([VarSpec("n.sim", "N", 4), VarSpec("x", "grid", (1, 2, 3))])
    res = run_study(vl, probe_first_uniform, seed=SeedSpec.none_reseed(), keep_seed=True,
                    backend=backend)
    seeds = [r.seed for r in res.records]
    assert None not in seeds and len(set(seeds)) == len(seeds)
    for rec in res.records:
        assert RngStream.from_state(StreamState.from_hex(rec.seed)).uniform() == rec.value


def noisy_x_study(params, rng, warn):
    return params["x"] + rng.uniform()


class TestOneStreamPerSlot:
    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        original = RngStream.from_state

        def counting(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(RngStream, "from_state", staticmethod(counting))
        return calls

    VL = VarList([VarSpec("n.sim", "N", 8), VarSpec("x", "grid", tuple(range(10)))])

    @pytest.mark.parametrize("backend, slots", [(Sequential(), 1), (ThreadPool(2), 2)])
    def test_in_process_slots(self, built, backend, slots):
        res = run_study(self.VL, noisy_x_study, backend=backend)
        assert res.error_count() == 0
        assert 1 <= len(built) <= slots  # not one per sub-job (80)

    def test_worker(self, built):
        loop = TestWorkerLoop()
        # blocks of 4: reps 1-8 of rows 0 and 1, then reps 1-8 of row 2
        code, stdout = loop._serve(loop._setup(self.VL, "probe-first-uniform", block_size=4),
                                   loop._task(0, 4), loop._task(4, 6))
        assert code == 0
        assert len(built) == 1
        for task in ((range(1, 9), range(1, 9)), (range(1, 5), range(5, 9))):  # a frame each
            assert np.frombuffer(read_frame(stdout)["tail"], "<f8").tolist() == \
                [RngStream.from_state(seed_for(SeedSpec.seq(), rep)).uniform()
                 for want in task for rep in want]
        assert read_frame(stdout) is None  # 2 frames


@pytest.mark.parametrize("form", ["scalar", "matrix", "ragged"])
def test_special_doubles_come_back_bit_identical(form):
    # NaN (with a payload), ±Inf, ±0.0 and subnormals as scalars, 2x3 arrays,
    # or ragged values with an error (a raw fallback): a result frame's value
    # bytes carry every bit the sequential backend keeps
    inner = [VarSpec("i", "inner", (1, 2)), VarSpec("j", "inner", (1, 2, 3))]
    vl = VarList([VarSpec("n.sim", "N", 4), VarSpec("x", "grid", tuple(range(9))),
                  VarSpec("form", "frozen", form), *(inner if form == "matrix" else [])])
    stores = [run_study(vl, special_doubles_study, backend=backend)
              for backend in (Sequential(), ProcessPool(2), ProcessPool(2, block_size=4))]
    for res in stores:
        assert type(res) is (RawFallback if form == "ragged" else ResultStore)
        assert res.errors.keys() == ({cell for cell in range(36) if cell % 3 == 2}
                                     if form == "ragged" else set())
    values = [[np.asarray(v).tobytes() for v in res.value] if form == "ragged" else
              [res.value.shape, res.value.tobytes()] for res in stores]
    assert values[1] == values[0] and values[2] == values[0]
    drawn = b"".join(values[0]) if form == "ragged" else values[0][1]
    for x in SPECIAL_DOUBLES:  # each one's bits, and its sign, reach the store
        assert np.array(x).tobytes() in drawn


def test_workers_reseed_numpy_legacy_generator():
    # the zygote preloads numpy.random; each worker reseeds the legacy global
    # generator, so two workers (round-robin tasks: 10 and 6 sub-jobs) and two
    # runs forked from one zygote never repeat each other's draws
    vl = VarList([VarSpec("n.sim", "N", 8), VarSpec("x", "grid", (1, 2))])
    draws = [run_study(vl, legacy_random_study, backend=ProcessPool(2, load_balancing=False))
             .value.tolist() for _ in range(2)]
    assert len(set(draws[0] + draws[1])) == 32


@pytest.mark.parametrize("rep_first", [True, False])
def test_raw_fallback_is_the_same_on_every_backend(rep_first):
    vl = VarList([VarSpec("n.sim", "N", 4), VarSpec("x", "grid", (3, 4, 5))])
    spec = SeedSpec.seq()
    first_ragged = 1 * 4 if rep_first else 1  # x=4 (row 1), rep 1
    stores = [run_study(vl, ragged_study, seed=spec, keep_seed=True, backend=backend,
                        rep_first=rep_first) for backend in EVERY_BACKEND]
    for res in stores:
        assert isinstance(res, RawFallback)
        assert res.diagnostic == (f"virtual record {first_ragged}: value shape (2,) does "
                                  "not match the inner-dimension signature ()")
        assert res.n_subjobs == 12
        for row in range(3):
            for rep in range(1, 5):
                rec = res.record(row, rep)
                x = (3, 4, 5)[row]
                u = RngStream.from_state(seed_for(spec, rep)).uniform()
                assert rec.seed == seed_for(spec, rep).to_hex()
                assert rec.warnings == (("three",) if x == 3 else ())
                if x == 5:
                    assert rec.error == ErrorInfo("five", "ValueError") and rec.value is None
                else:
                    assert rec.error is None
                    assert np.array_equal(rec.value, [4, u] if x == 4 else 3 + u)
        cmp = do_res_equal(stores[0], res)
        assert cmp, cmp.report


@pytest.mark.parametrize("pair", [0, 4])
def test_first_value_of_another_shape_anywhere_gives_one_raw_fallback(pair, tmp_path):
    # rep-first, x=0 is the very first sub-job and x=4 the last 40, run in
    # later tasks than the dense ones; x=2 errs on some replications before
    # and after the switch to a raw fallback
    vl = VarList([VarSpec("n.sim", "N", 40), VarSpec("x", "grid", tuple(range(5))),
                  VarSpec("pair", "frozen", pair)])
    texts = set()
    for backend in (Sequential(), ThreadPool(2), ProcessPool(2)):
        seen = []
        res = run_study(vl, shape_switch_study, backend=backend, keep_seed=True,
                        monitor=lambda vidx, rec: seen.append((vidx, rec)))
        assert isinstance(res, RawFallback)
        assert res.diagnostic == (f"virtual record {pair * 40}: value shape (2,) does not "
                                  "match the inner-dimension signature ()")
        assert 0 < res.error_count() < 40
        assert sorted(v.linear for v, _ in seen) == list(range(200))
        for vidx, rec in seen:  # no NaN row of the dense columns in a record
            assert (rec.value is None) == (rec.error is not None)
            stored = res.record(vidx.row, vidx.rep)
            assert (rec.error, rec.seed) == (stored.error, stored.seed)
            assert np.array_equal(rec.value, stored.value) or rec.value is stored.value is None
        save(res, tmp_path / "raw.json")
        assert do_res_equal(load(tmp_path / "raw.json"), res)  # null exactly at the errors
        doc = json.loads((tmp_path / "raw.json").read_text(encoding="utf-8"))
        doc["meta"]["created"] = doc["time_ms"] = None
        texts.add(canonical_json(doc))
    assert len(texts) == 1


def test_scalar_run_peaks_below_50_bytes_per_subjob():
    # values and times go into float64 columns as each task ends, not into
    # lists of Python floats that the store stacks again, and blocks and
    # tasks are ranges of block numbers, not an object per block
    vl = VarList([VarSpec("n.sim", "N", 100), VarSpec("x", "grid", tuple(range(200)))])
    run_study(scalar_varlist(n_sim=2), probe_first_uniform)  # imports and caches
    tracemalloc.start()
    try:
        run_study(vl, probe_first_uniform)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 20_000 < 50


def test_over_limit_task_peaks_below_130_mib_in_the_worker_and_the_parent(tmp_path):
    # 64 blocks of one 200,000-element value each, 97.7 MiB in all, are past
    # the frame limit: the worker holds the task's values and one block's
    # frame at a time, and the parent the run's values and one frame
    vl = VarList([VarSpec("n.sim", "N", 1), VarSpec("x", "grid", tuple(range(64)))])
    loop = TestWorkerLoop()
    stdin = io.BytesIO(encode_frame(loop._setup(vl, "light_studies:wide_study")) +
                       encode_frame(loop._task(0, 64)))
    with open(tmp_path / "frames", "wb") as stdout:
        tracemalloc.start()
        try:
            assert worker_main(stdin, stdout) == 0
            worker = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    ctx = executor._RunContext(vl, True, 1, SeedSpec.seq(), False, wide_study)
    with open(tmp_path / "frames", "rb") as stream:
        tracemalloc.start()
        try:
            out = Columns(np.full(ctx.inner + (64,), math.nan), np.zeros(64), {}, {}, None)
            for blocks, cols in executor._task_results(stream, ctx, range(64), 0):
                out.put(np.arange(blocks.start, blocks.stop), cols)  # cell = block = row
            parent = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert [out.record(k).value[1] for k in (0, 63)] == [1.5, 1.5]
    assert worker < 130 * 2**20 and parent < 130 * 2**20, (worker / 2**20, parent / 2**20)


@pytest.mark.parametrize("backend", EVERY_BACKEND + [ProcessPool(2, block_size=2)])
def test_monitor_records_equal_the_stored_ones(backend):
    vl = VarList([VarSpec("n.sim", "N", 8), VarSpec("x", "grid", (3, 4, 5))])
    seen = []
    lock = threading.Lock()

    def monitor(vidx, rec):
        with lock:
            seen.append((vidx, rec))

    res = run_study(vl, coin_study, keep_seed=True, backend=backend, monitor=monitor,
                    rep_first=False)
    assert type(res) is ResultStore and res.error_count() and res.warning_count()
    # errors and warnings also fall in the later blocks of multi-block tasks,
    # where a process worker's result frame holds them at an offset
    ctx = _context(3, 8, backend.block_size, rep_first=False)
    later = {k for task in partition_tasks(partition_blocks(3, 8, ctx.block_size),
                                           ctx.block_size, backend.workers)
             for b in task[1:] for k in _linears(ctx, b)}
    assert any(rec.error for v, rec in seen if v.linear in later)
    assert any(rec.warnings for v, rec in seen if v.linear in later)
    cmp = do_res_equal(run_study(vl, coin_study, keep_seed=True, rep_first=False), res)
    assert cmp, cmp.report
    assert sorted(v.linear for v, _ in seen) == list(range(24))
    for vidx, rec in seen:
        assert vidx == virtual_index(vidx.linear, 3, 8, False)
        stored = res.record(vidx.row, vidx.rep)
        assert (rec.error, rec.warnings, rec.seed, rec.time_ms) == \
            (stored.error, stored.warnings, stored.seed, stored.time_ms)
        assert rec.value == stored.value


_Z_LEVELS = {  # the level kinds of the third grid variable, z
    "int": st.integers(-9, 9),
    "float": st.sampled_from([0.5, 0.25, -1.5, 2.0, 1e-07, 0.1, 1e20]),
    "str": st.sampled_from(["a", "b", "Inf", "NaN", "\u00e9", ""]),
    "tuple": st.tuples(st.integers(0, 2), st.integers(0, 2)),
    "nested": st.lists(st.integers(0, 2) | st.tuples(st.integers(0, 2)), min_size=1,
                       max_size=2),  # list levels, some with a tuple in them
}


@st.composite
def _declarations(draw):
    """A declaration of 1-3 grid variables (``x`` and ``y`` of integer
    levels, ``z`` of integer, float, string, tuple or list-with-a-tuple
    levels), 0-1 inner variable, the frozen ``form`` of
    ``shaped_coin_study``'s values and 1-12 replications, and how to run it:
    a block size that divides them, the seeding (``seq``,
    ``per-rep-integer`` or ``per-rep-stream``), the virtual order,
    ``keep_seed``, load balancing and 1-3 workers.  Half are lossy: the
    canonical form does not carry a non-finite grid or inner level or a
    frozen payload (``junk``, unread) that is not JSON."""
    levels = st.lists(st.integers(-9, 9), min_size=1, max_size=3, unique=True)
    grid = [VarSpec(name, "grid", tuple(draw(levels)))
            for name in ("x", "y")[:draw(st.integers(1, 2))]]
    inner = [VarSpec("k", "inner", tuple(draw(levels)))] if draw(st.booleans()) else []
    form = VarSpec("form", "frozen", draw(st.sampled_from(["scalar", "inner", "ragged"])))
    lossy = draw(st.sampled_from(["", "", "", "level", "inner", "frozen"]))
    non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
    if lossy == "level":
        last = grid[-1]
        grid[-1] = VarSpec(last.name, "grid", last.values + (draw(non_finite),))
    if lossy == "inner":
        inner = [VarSpec("k", "inner", (inner[0].values if inner else ()) + (draw(non_finite),))]
    if draw(st.booleans()):
        kind = _Z_LEVELS[draw(st.sampled_from(sorted(_Z_LEVELS)))]
        grid.append(VarSpec("z", "grid", tuple(draw(st.lists(kind, min_size=1, max_size=3,
                                                             unique_by=repr)))))
    junk = [VarSpec("junk", "frozen", draw(st.sampled_from(
        [math.nan, {"w": [1.0, -math.inf]}, np.arange(2.0), {1: 2}, {"f": len}])))] \
        if lossy == "frozen" else []
    n_sim = draw(st.integers(1, 12))
    block_size = draw(st.sampled_from([d for d in range(1, n_sim + 1) if n_sim % d == 0]))
    keys = st.lists(st.integers(0, 2**32), min_size=n_sim, max_size=n_sim)
    seed = draw(st.just(SeedSpec.seq()) | keys.map(SeedSpec.per_rep_integer) |
                keys.map(lambda key: SeedSpec.per_rep_stream(derive_streams(n_sim, key))))
    return (VarList([VarSpec("n.sim", "N", n_sim), *grid, *inner, form, *junk]), block_size,
            seed, draw(st.booleans()), draw(st.booleans()), draw(st.booleans()),
            draw(st.integers(1, 3)))


def _monitored(rec) -> tuple:
    """What a monitor record says of a sub-job, but its time; values by bits."""
    value = None if rec.value is None else (np.shape(rec.value),
                                            np.asarray(rec.value, dtype=float).tobytes())
    return value, rec.error, rec.warnings, rec.seed


@given(_declarations())
@settings(deadline=None)  # the profile's examples: 100 by default, 500 under "ci"
def test_drawn_declarations_give_the_sequential_bytes_on_every_backend(declaration):
    # errors on half the sub-jobs and warnings on a quarter fall at every
    # offset of blocks and tasks, each row has values of its own, and the
    # values are scalars, inner-shaped or ragged, so result frames carry
    # tails of every kind; a lossy declaration runs in-process only
    vl, block_size, seed, rep_first, keep_seed, load_balancing, workers = declaration
    n_G, n_sim = math.prod(len(s.values) for s in vl.specs if s.vtype == "grid"), vl.n_sim
    texts, records, seen = [], [], []

    def run(**kwargs):
        seen.clear()
        return run_study(vl, shaped_coin_study, seed=seed, keep_seed=keep_seed,
                         rep_first=rep_first, monitor=lambda *call: seen.append(call), **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.json")
        backends = [Sequential(), ThreadPool(workers, block_size, load_balancing)]
        process = ProcessPool(workers, block_size, load_balancing)
        if vl.lossy():
            for kwargs in ({"backend": process}, {"cache_path": path}):
                with pytest.raises(ValueError, match="needs JSON-serializable variables"):
                    run(**kwargs)
                assert seen == [] and not os.path.exists(path)
        else:
            backends.append(process)
        for backend in backends:
            res = run(backend=backend)
            assert sorted(v.linear for v, _ in seen) == list(range(n_G * n_sim))
            assert all(v == virtual_index(v.linear, n_G, n_sim, rep_first) for v, _ in seen)
            if keep_seed:  # each sub-job's replication's state, on every backend
                assert all(rec.seed == seed_for(seed, v.rep).to_hex() for v, rec in seen)
            records.append(sorted((v.linear, _monitored(rec)) for v, rec in seen))
            save(res, path)
            back = load(path)
            cmp = do_res_equal(res, back)
            assert cmp, cmp.report
            if type(res) is ResultStore:  # labelled alike, inner dims too
                assert get_array(res).dims == get_array(back).dims
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["meta"]["created"] = doc["time_ms"] = None
            texts.append(canonical_json(doc))
    assert all(text == texts[0] for text in texts)
    assert all(each == records[0] for each in records)


def test_a_returned_buffer_is_copied_on_every_backend():
    # a study that refills and returns one buffer gets each sub-job's own
    # values stored, whatever a task holds before its put
    vl = VarList([VarSpec("n.sim", "N", 4), VarSpec("a", "grid", (1, 2)),
                  VarSpec("k", "inner", (1, 2))])
    want = run_study(vl, fresh_buffer_study)
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        for backend in (Sequential(), ThreadPool(2), ProcessPool(2)):
            res = run_study(vl, buffer_study, backend=backend)
            assert res.value.tobytes() == want.value.tobytes()
            save(res, os.path.join(tmp, "results.json"))
            with open(os.path.join(tmp, "results.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["meta"]["created"] = doc["time_ms"] = None
            texts.append(canonical_json(doc))
    assert texts[1] == texts[0] and texts[2] == texts[0]


def test_common_arguments_are_read_only_on_every_backend():
    frozen = VarList([VarSpec("n.sim", "N", 3), VarSpec("x", "grid", (1, 2)),
                      VarSpec("p", "frozen", [1])])
    level = VarList([VarSpec("n.sim", "N", 3), VarSpec("g", "grid", ([1], [2]))])
    want = ErrorInfo("'tuple' object has no attribute 'append'", "AttributeError")
    for vl, study in ((frozen, appending_study), (level, appending_level_study)):
        stores = [run_study(vl, study, backend=backend)
                  for backend in (Sequential(), ThreadPool(2), ProcessPool(2))]
        for res in stores:
            assert res.errors == {cell: want for cell in range(6)}
            assert do_res_equal(stores[0], res)
    assert frozen["p"].payload == [1]
    assert level["g"].values == ([1], [2])


def test_frozen_arguments_are_read_only_copies():
    array = np.arange(3.0)
    declared = {"levels": [1, 2], "cfg": {"k": [3, {"deep": [4]}], "a": array}, "t": (5,),
                "s": {6}}
    frozen = executor._freeze(declared)
    assert frozen["levels"] == (1, 2) and frozen["t"] == (5,)
    assert frozen["s"] == frozenset({6})
    assert frozen["cfg"]["k"] == (3, {"deep": (4,)})
    assert np.array_equal(frozen["cfg"]["a"], array)
    with pytest.raises(TypeError):
        frozen["cfg"]["k"] = 0
    with pytest.raises(TypeError):
        frozen["cfg"]["k"][1]["deep"] = 0
    with pytest.raises(ValueError):
        frozen["cfg"]["a"][0] = 7.0
    array[0] = 7.0  # a view: the declaration itself stays writeable
    assert frozen["cfg"]["a"][0] == 7.0


def test_thread_slots_fill_every_cell_under_frequent_switches():
    # more slots than cores and a short switch interval: a write into the
    # shared run columns that got lost would leave a cell empty or wrong
    vl = VarList([VarSpec("n.sim", "N", 40), VarSpec("x", "grid", tuple(range(25)))])
    want = run_study(vl, coin_study, keep_seed=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_study(vl, coin_study, keep_seed=True, backend=ThreadPool(8))
    finally:
        sys.setswitchinterval(interval)
    assert want.error_count() and want.warning_count()
    cmp = do_res_equal(want, got)
    assert cmp, cmp.report


@pytest.mark.parametrize("environment", ["default", "errstate", "filters", "study-category"])
def test_a_subjob_runs_under_the_callers_error_state_and_warning_filters(environment):
    # numpy's error state and the warning filters of the calling thread hold
    # in slot threads and process workers too, a filter on a category of the
    # study's module included; one whose category a worker has not loaded
    # is dropped there
    vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (1.0, 2.0))])
    unreachable = type("Unreachable", (Warning,), {"__module__": "no_such_module_anywhere"})
    study = warning_study if environment == "study-category" else dividing_study
    with warnings.catch_warnings(record=True), \
            np.errstate(**({"divide": "raise"} if environment == "errstate" else {})):
        if environment in ("filters", "study-category"):
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", StudyWarning)
            warnings.simplefilter("ignore", unreachable)
        seq, *others = [run_study(vl, study, backend=backend)
                        for backend in (Sequential(), ThreadPool(2), ProcessPool(2))]
    kind = {"default": None, "errstate": "FloatingPointError", "filters": "RuntimeWarning",
            "study-category": "StudyWarning"}
    assert {e.kind for e in seq.errors.values()} == ({kind[environment]} - {None})
    assert seq.error_count() == (0 if environment == "default" else 4)
    for res in others:
        cmp = do_res_equal(seq, res)
        assert cmp, cmp.report


@pytest.mark.parametrize("backend", [Sequential(), ThreadPool(2)], ids=["seq", "threads"])
def test_a_nested_run_is_each_subjobs_error(backend):
    inner = VarList([VarSpec("x", "grid", (1,))])

    def nesting_study(params, rng, warn):
        return run_study(inner, square_study).value[0]

    res = run_study(tiny_varlist(), nesting_study, backend=backend)
    assert res.error_count() == res.n_subjobs > 0
    assert set(res.errors.values()) == {ErrorInfo(
        "nested run_study calls are not supported (one live backend per process)",
        "RuntimeError")}
