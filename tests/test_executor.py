"""Harness capture, virtual indexing, blocks, frames, and backends."""

import io
import json
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (chatty_study, dying_study, poly_noisy, poly_study,
                      scalar_varlist, square_study, tiny_varlist)

from mcgrid import (Block, ExecutionError, ProcessPool, ProtocolError,
                    RawFallback, SeedSpec, Sequential, ThreadPool, VarList,
                    VarSpec, VirtualIndex, do_call_we, do_res_equal, linear_of,
                    partition_blocks, run_study, seed_for, virtual_index)
from mcgrid import executor
from mcgrid.executor import (WORKER_FLAG, encode_frame, read_frame, subjob,
                             worker_main)
from mcgrid.seeding import RngStream
from mcgrid.var_copula import probe_first_uniform


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


class TestBlocks:
    def test_partition_covers_exactly_once(self):
        for rep_first in (True, False):
            blocks = partition_blocks(3, 4, 2, rep_first)
            seen = []
            for b in blocks:
                for v in b.indices(3, 4, rep_first):
                    seen.append(v.linear)
            assert sorted(seen) == list(range(12))

    def test_block_is_consecutive_reps_of_one_row(self):
        for b in partition_blocks(5, 8, 4, True):
            idxs = b.indices(5, 8, True)
            assert len({v.row for v in idxs}) == 1
            reps = [v.rep for v in idxs]
            assert reps == list(range(reps[0], reps[0] + 4))

    def test_blocks_ordered_by_first_linear(self):
        for rep_first in (True, False):
            blocks = partition_blocks(4, 6, 3, rep_first)
            firsts = [b.indices(4, 6, rep_first)[0].linear for b in blocks]
            assert firsts == sorted(firsts)

    def test_nondividing_block_size_rejected(self):
        with pytest.raises(ValueError):
            partition_blocks(2, 6, 4, True)


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
    def _setup(self, vl, study, keep_seed=False):
        from mcgrid.varlist import mk_grid, non_grid_args
        grid = mk_grid(vl)
        return {"tag": "setup", "study": study,
                "grid": [[name, list(levels)]
                         for name, levels in zip(grid.var_names, grid.level_values)],
                "base_args": non_grid_args(vl), "seed_kind": "seq",
                "keep_seed": keep_seed, "monitor": False,
                "n_sim": vl.n_sim, "rep_first": True}

    def _task(self, block):
        seeds = [seed_for(SeedSpec.seq(), rep).to_hex()
                 for rep in range(block.rep_start, block.rep_start + block.size)]
        return {"tag": "task", "seeds": seeds,
                "block": {"row": block.row, "rep_start": block.rep_start,
                          "size": block.size}}

    def _serve(self, *frames):
        stdin = io.BytesIO(b"".join(encode_frame(f) for f in frames))
        stdout = io.BytesIO()
        code = worker_main(stdin, stdout)
        stdout.seek(0)
        return code, stdout

    def test_task_frame_produces_records(self):
        vl = scalar_varlist(n_sim=2)
        code, stdout = self._serve(self._setup(vl, "square", keep_seed=True),
                                   self._task(Block(row=1, rep_start=1, size=2)))
        assert code == 0
        result = read_frame(stdout)
        assert result["tag"] == "result"
        assert [r["value"] for r in result["records"]] == [16.0, 16.0]
        assert [r["seed"] for r in result["records"]] == \
            [seed_for(SeedSpec.seq(), rep).to_hex() for rep in (1, 2)]

    def test_worker_main_frame_loop(self):
        vl = scalar_varlist(n_sim=1)
        code, stdout = self._serve(self._setup(vl, "square"),
                                   self._task(Block(0, 1, 1)), self._task(Block(2, 1, 1)),
                                   {"tag": "shutdown"}, self._task(Block(1, 1, 1)))
        assert code == 0
        for want in (9.0, 25.0):
            result = read_frame(stdout)
            assert result["tag"] == "result"
            assert result["records"][0]["value"] == want
        assert read_frame(stdout) is None  # nothing after shutdown

    def test_worker_eof_is_clean_exit(self):
        assert worker_main(io.BytesIO(b""), io.BytesIO()) == 0

    def test_worker_rejects_unknown_study(self, capsys):
        vl = scalar_varlist(n_sim=1)
        code, _ = self._serve(self._setup(vl, "no-such-study"), self._task(Block(0, 1, 1)))
        assert code != 0
        assert "no-such-study" in capsys.readouterr().err

    def test_worker_garbage_frame_is_protocol_error(self, capsys):
        code = worker_main(io.BytesIO(b"\x00\x00"), io.BytesIO())
        assert code != 0
        assert "protocol" in capsys.readouterr().err.lower()


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

    def test_unserializable_variables_rejected_up_front(self):
        vl = VarList([VarSpec("n.sim", "N", 1), VarSpec("x", "grid", (3, np.int64(4)))])
        with pytest.raises(ValueError, match="x: levels are not JSON-serializable"):
            run_study(vl, square_study)
        # frozen payloads may be any object in-process, but not in a worker
        vl = VarList([VarSpec("n.sim", "N", 1), VarSpec("x", "grid", (3, 4)),
                      VarSpec("f", "frozen", {"fn": len})])
        assert run_study(vl, square_study).error_count() == 0
        with pytest.raises(ExecutionError, match="needs JSON-serializable variables"):
            run_study(vl, square_study, backend=ProcessPool(2))

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

    def test_failed_slot_stops_the_pool(self):
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
            run_study(vl, square_study, backend=ThreadPool(2), monitor=monitor)
        assert len(calls) < 60  # of 600 sub-jobs


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

    def test_unregistered_lambda_rejected(self):
        vl = scalar_varlist(n_sim=1)
        with pytest.raises(ExecutionError):
            run_study(vl, lambda p, r, w: 1.0, backend=ProcessPool(2))

    def test_dead_worker_stops_the_pool(self, tmp_path, monkeypatch):
        spawned = []
        popen = executor.subprocess.Popen

        def spy(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(executor.subprocess, "Popen", spy)
        log = tmp_path / "subjobs.log"
        vl = VarList([VarSpec("n.sim", "N", 200), VarSpec("x", "grid", (3, 4, 5)),
                      VarSpec("paths", "frozen", {"log": str(log),
                                                  "marker": str(tmp_path / "died")})])
        with pytest.raises(ExecutionError, match="died mid-run"):
            run_study(vl, dying_study, backend=ProcessPool(2))
        assert len(log.read_text().splitlines()) < 60  # of 600 sub-jobs
        assert len(spawned) == 2
        assert all(p.returncode is not None for p in spawned)  # killed and reaped

    def test_worker_flag_constant(self):
        assert WORKER_FLAG == "--worker"

    def test_printing_study_matches_sequential(self, capfd):
        vl = scalar_varlist(n_sim=4)
        base = run_study(vl, chatty_study, keep_seed=True)
        res = run_study(vl, chatty_study, keep_seed=True, backend=ProcessPool(2))
        cmp = do_res_equal(base, res)
        assert cmp, cmp.report
        assert "chatty: x=3" in capfd.readouterr().err  # workers' prints go to stderr


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

    @pytest.mark.parametrize("seed", [SeedSpec.seq(), SeedSpec.per_rep_integer([9, 8]),
                                      SeedSpec.unseeded()])
    def test_direct_subjob_derives_its_seed(self, seed):
        vidx = VirtualIndex(linear=1, row=0, rep=2)
        direct = subjob(vidx, {"x": 3}, {}, seed, True, probe_first_uniform)
        given = subjob(vidx, {"x": 3}, {}, seed, True, probe_first_uniform,
                       state=seed_for(seed, 2))
        if seed.kind == "unseeded":
            assert direct.seed is None and given.seed is None
        else:
            assert direct.seed == given.seed == seed_for(seed, 2).to_hex()
            assert direct.value == given.value
