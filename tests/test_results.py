"""Canonical JSON, dense stores, persistence, and result comparison."""

import dataclasses
import enum
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits, random_store, scalar_varlist, tiny_varlist, v1_stores
from light_studies import coin_study, fresh_buffer_study, masked, params_probe_study, square_study

from mcgrid import (CacheInvalidError, ProcessPool, RawFallback, ResultStore, SeedSpec,
                    Sequential, SubJobRecord, ThreadPool, VarList, VarSpec, assemble,
                    canonical_json, do_res_equal, get_array, load, maybe_read, run_study,
                    save, study_fingerprint)
from mcgrid import executor, results
from mcgrid.results import Columns, ErrorInfo, _fmt_floats
from mcgrid.var_copula import probe_first_uniform

DATA = Path(__file__).parent / "data"


def header(path) -> tuple:
    """A result file's header document, and its tail."""
    head, _, tail = Path(path).read_bytes().partition(b"\n")
    return json.loads(head), tail


def write(path, doc: dict, tail: bytes) -> None:
    """A result file of header ``doc`` (written by ``json``) and ``tail``."""
    Path(path).write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + tail)


def never_study(params, rng, warn):
    raise AssertionError("a cache hit or a refused cache runs nothing")


class Tagged(int):
    """An int whose ``str()`` is not its digits (as an IntEnum's is on
    Python 3.10)."""

    def __str__(self):
        return f"level-{int(self)}"


class TestCanonicalJson:
    def test_plain_document(self):
        doc = {"b": 1, "a": [1.5, "x", None, True]}
        text = canonical_json(doc)
        assert json.loads(text) == {"b": 1, "a": [1.5, "x", None, True]}

    def test_byte_stability(self):
        doc = {"z": [0.1, 0.2, 0.30000000000000004], "nested": {"k": [1, 2]}}
        assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))

    def test_nonfinite_floats_become_tagged_strings(self):
        text = canonical_json({"v": [math.nan, math.inf, -math.inf]})
        assert '"NaN"' in text and '"Inf"' in text and '"-Inf"' in text
        json.loads(text)  # stays valid JSON

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_float_roundtrip_exact(self, x):
        back = json.loads(canonical_json({"v": x}))["v"]
        assert back == x and type(back) is float
        assert math.copysign(1.0, back) == math.copysign(1.0, x)

    @given(st.text(), st.text())
    @settings(max_examples=200, deadline=None)
    def test_strings_match_json_dumps(self, key, value):
        assert canonical_json({key: value}) == \
            json.dumps({key: value}, ensure_ascii=False, separators=(",", ":"))

    def test_whole_doubles_keep_a_fraction(self):
        text = canonical_json([1.0, -0.0, 0.0, -3.0, 1e16, 1e17, 2.5, 1])
        assert text == "[1.0,-0.0,0.0,-3.0,10000000000000000.0,1e+17,2.5,1]"

    @given(st.lists(st.one_of(st.floats(), st.integers(-10**6, 10**6).map(float),
                              st.sampled_from([0.0, -0.0, 1e16, -1e300]))))
    @settings(max_examples=200, deadline=None)
    def test_column_text_matches_canonical_json(self, xs):
        expected = ",".join(canonical_json(x) for x in xs)
        assert _fmt_floats(np.array(xs, dtype=float)) == expected

    @given(st.lists(st.tuples(
               st.one_of(st.none(), st.floats(), st.lists(st.floats(), max_size=3).map(np.array)),
               st.floats(0, 1e6), st.text(max_size=4),
               st.lists(st.text(max_size=4), max_size=2), st.text(max_size=4)), min_size=1),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_column_document_round_trips(self, entries, seeded):
        # values of every kind (NaN, infinities, -0.0, arrays), errors (where
        # the value is None) and warnings with non-ASCII text, kept seeds or
        # none: the wire form of a block's columns, a worker's result frame,
        # reads back as the same columns
        cols = Columns([v for v, *_ in entries], [t for _, t, *_ in entries],
                       {k: ErrorInfo(e, "E") for k, (v, _, e, *_) in enumerate(entries)
                        if v is None},
                       {k: tuple(w) for k, (*_, w, _) in enumerate(entries) if w},
                       [s for *_, s in entries] if seeded else None)
        # one block of them all; a frame ships seeds exactly when the run does
        ctx = types.SimpleNamespace(block_size=len(entries), inner=(), ships_seeds=seeded)
        out = io.BytesIO(b"".join(executor._result_frames(ctx, range(1), cols)))
        ((_, back),) = executor._task_results(out, ctx, range(1), 0)
        assert len(back.time_ms) == len(cols.value)
        for k, v in enumerate(cols.value):
            w = back.record(k).value
            assert (v is None) == (w is None)
            if v is not None:
                assert float_bits(np.ravel(v)) == float_bits(np.ravel(w))
                assert np.shape(v) == np.shape(w)
        assert float_bits(back.time_ms) == float_bits(cols.time_ms)
        assert (back.errors, back.warnings, back.seeds) == (cols.errors, cols.warnings,
                                                            cols.seeds)

    def test_an_int_subclass_is_written_as_its_digits(self):
        level = enum.IntEnum("Level", "A B")
        assert canonical_json([level.B, Tagged(3), True]) == canonical_json([2, 3, True]) \
            == json.dumps([2, 3, True], separators=(",", ":"))
        assert canonical_json(level.A) == canonical_json(level.A.value)

    def test_seventeen_digit_floats_roundtrip(self):
        for x in (0.1, 1/3, 2**-52, 1e300, -1.2345678901234567e-8):
            assert json.loads(canonical_json(x)) == x

    def test_parse_value_restores_nonfinite(self):
        vals = SubJobRecord.from_doc({"value": ["NaN", "Inf", "-Inf", 1.5]}).value
        assert math.isnan(vals[0]) and vals[1] == math.inf and vals[2] == -math.inf


def columns(values, **fields) -> Columns:
    """Store-order columns of ``values``, one sub-job each, 1 ms apiece."""
    return Columns.from_records([SubJobRecord(value=v, time_ms=1.0, **fields) for v in values])


class TestAssemble:
    def test_records_land_at_row_plus_ngrid_times_rep(self):
        vl = scalar_varlist(n_sim=2)  # 3 grid rows
        store = assemble(vl, columns([float(i) for i in range(6)]), rep_first=True,
                         seed_spec=SeedSpec.seq(), keep_seed=False, created="t")
        # store cell row + 3*(rep-1), whatever the virtual order
        assert store.record(0, 1).value == 0.0
        assert store.record(0, 2).value == 3.0
        assert store.record(1, 1).value == 1.0
        assert store.record(2, 2).value == 5.0
        assert [r.value for r in store.records] == [float(i) for i in range(6)]

    def test_row_first_virtual_order(self):
        # the store is the same under either virtual order, and so is a raw
        # fallback's; its diagnostic names store cell 1 (row 1, rep 1) by its
        # virtual index: rep-first row*2 + rep-1, row-first (rep-1)*3 + row
        vl = scalar_varlist(n_sim=2)
        values = [0.0, np.array([1.0, 2.0]), *map(float, range(2, 6))]
        for rep_first, virtual in ((True, 2), (False, 1)):
            store = assemble(vl, columns([float(i) for i in range(6)]), rep_first=rep_first,
                             seed_spec=SeedSpec.seq(), keep_seed=False, created="t")
            assert store.value.tolist() == [float(i) for i in range(6)]
            raw = assemble(vl, columns(values), rep_first=rep_first, seed_spec=SeedSpec.seq(),
                           keep_seed=False, created="t")
            assert isinstance(raw, RawFallback)
            assert raw.diagnostic.startswith(f"virtual record {virtual}:")
            assert [np.shape(r.value) for r in raw.records] == [(), (2,), (), (), (), ()]
            assert [r.value for r in raw.records[2:]] == [2.0, 3.0, 4.0, 5.0]
            assert raw.record(1, 1).value.tolist() == [1.0, 2.0]

    def test_record_rejects_out_of_range_cells(self):
        vl = VarList([VarSpec("n.sim", "N", 3), VarSpec("x", "grid", (1, 2))])
        store = assemble(vl, columns([float(i) for i in range(6)]), rep_first=True,
                         seed_spec=SeedSpec.seq(), keep_seed=False, created="t")
        for row, rep, message in ((2, 1, r"grid row 2 out of range \[0, 2\)"),
                                  (-1, 1, r"grid row -1 out of range \[0, 2\)"),
                                  (0, 0, r"replication 0 out of range \[1, 3\]"),
                                  (0, 4, r"replication 4 out of range \[1, 3\]")):
            with pytest.raises(IndexError, match=message):
                store.record(row, rep)
        assert store.record(1, 3).value == 5.0

    def test_shape_mismatch_falls_back_to_raw(self):
        vl = scalar_varlist(n_sim=1)
        recs = [SubJobRecord(value=np.array([1.0, 2.0]), error=None, warnings=(),
                             time_ms=0.0, seed=None)]
        recs += [SubJobRecord(value=1.0, error=None, warnings=(), time_ms=0.0,
                              seed=None)] * 2
        res = assemble(vl, Columns.from_records(recs), True, SeedSpec.seq(), False, "t")
        assert isinstance(res, RawFallback)
        assert "shape" in res.diagnostic
        assert len(res.records) == 3

    def test_error_records_do_not_trigger_fallback(self):
        vl = scalar_varlist(n_sim=1)
        recs = [SubJobRecord(value=None, error=ErrorInfo("x", "study"),
                             warnings=(), time_ms=0.0, seed=None)]
        recs += [SubJobRecord(value=2.0, error=None, warnings=(), time_ms=0.0,
                              seed=None)] * 2
        assert type(assemble(vl, Columns.from_records(recs), True, SeedSpec.seq(), False,
                             "t")) is ResultStore

    def test_wrong_record_count_rejected(self):
        with pytest.raises(ValueError, match="expected 6 records, got 5"):
            assemble(scalar_varlist(2), columns([1.0] * 5), True, SeedSpec.seq(), False, "t")


class TestFingerprint:
    def test_stable_across_calls(self):
        vl = tiny_varlist()
        f1 = study_fingerprint(vl, True, SeedSpec.seq(), "poly")
        f2 = study_fingerprint(vl, True, SeedSpec.seq(), "poly")
        assert f1 == f2 and len(f1) == 16

    def test_sensitive_to_every_input(self):
        vl = tiny_varlist()
        base = study_fingerprint(vl, True, SeedSpec.seq(), "poly")
        assert study_fingerprint(vl, False, SeedSpec.seq(), "poly") != base
        assert study_fingerprint(vl, True, SeedSpec.none_reseed(), "poly") != base
        assert study_fingerprint(vl.with_n_sim(5), True, SeedSpec.seq(), "poly") != base
        assert study_fingerprint(vl, True, SeedSpec.seq(), "poly-noisy") != base
        assert study_fingerprint(vl, True, SeedSpec.seq(), None) != base


class TestPersistence:
    def test_roundtrip_full_fidelity_randomized(self, tmp_path):
        rng = random.Random(20260819)
        for case in range(25):
            res = random_store(rng)
            path = tmp_path / f"s{case}.json"
            save(res, path)
            back = load(path)
            assert type(back) is type(res)
            cmp = do_res_equal(res, back)
            assert cmp, cmp.report
            # fields the comparison deliberately ignores must survive too
            for a, b in zip(res.records, back.records):
                assert a.time_ms == b.time_ms or (
                    math.isnan(a.time_ms) and math.isnan(b.time_ms))
            assert back.meta.created == res.meta.created
            assert back.meta.fingerprint == res.meta.fingerprint

    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, failure,
                                                     step):
        res = run_study(scalar_varlist(n_sim=2), square_study)
        path = tmp_path / "results.json"
        save(res, path)
        before = path.read_bytes()

        class Truncating:  # writes the text's first bytes, then fails
            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:10])
                self.fh.flush()
                raise failure

        def failing_replace(src, dst):
            raise failure

        if step == "write":
            monkeypatch.setattr(results, "open", Truncating, raising=False)
        else:
            monkeypatch.setattr(results.os, "replace", failing_replace)
        with pytest.raises(type(failure)):
            save(res, path)
        assert sorted(os.listdir(tmp_path)) == ["results.json"]  # no results.json.tmp
        assert path.read_bytes() == before  # the old file stands

    def test_raw_fallback_roundtrip(self, tmp_path):
        rng = random.Random(7)
        res = random_store(rng, force_kind="raw")
        assert isinstance(res, RawFallback)
        path = tmp_path / "raw.json"
        save(res, path)
        back = load(path)
        assert isinstance(back, RawFallback)
        assert back.diagnostic == res.diagnostic
        assert do_res_equal(res, back)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_v4_roundtrip_random_store(self, seed, raw):
        res = random_store(random.Random(seed), force_kind="raw" if raw else None)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.json")
            save(res, path)
            assert header(path)[0]["format"] == "mcgrid-result-v4"
            back = load(path)
        assert type(back) is type(res) and back.dims == res.dims
        cmp = do_res_equal(res, back)
        assert cmp, cmp.report
        assert float_bits(back.time_ms) == float_bits(res.time_ms)
        for a, b in zip(res.records, back.records):
            if a.value is not None:
                assert np.asarray(a.value).tobytes() == np.asarray(b.value).tobytes()

    def test_negative_zero_and_whole_values_survive(self, tmp_path):
        vl = scalar_varlist(1)
        recs = [SubJobRecord(value=v, time_ms=t) for v, t in ((-0.0, 1.0), (0.0, -0.0), (2.0, 3.5))]
        res = assemble(vl, Columns.from_records(recs), True, SeedSpec.seq(), False, "t")
        save(res, tmp_path / "z.json")
        back = load(tmp_path / "z.json")
        assert np.signbit(back.value).tolist() == [True, False, False]
        assert np.signbit(back.time_ms).tolist() == [False, True, False]
        assert back.value.tolist() == [0.0, 0.0, 2.0]

    def test_malformed_tagged_documents_are_value_errors(self, tmp_path):
        # the v3 reader: a raw file's values are a JSON list
        path = tmp_path / "raw.json"
        raw = json.loads((DATA / "v3-raw.json").read_text(encoding="utf-8"))
        n = len(raw["value"])
        bad_value = dict(raw, value=[{}] + raw["value"][1:])
        short = dict(raw, value=raw["value"][1:])
        long = dict(raw, value=raw["value"] + [1.0])
        error_outside = dict(raw, errors=raw["errors"] + [[n, "boom", "E"]])
        warning_outside = dict(raw, warnings=[[-1, ["w"]]])
        no_diagnostic = {k: v for k, v in raw.items() if k != "diagnostic"}
        ok = next(c for c in range(n) if c not in {e[0] for e in raw["errors"]})
        null_without_error = dict(raw, value=[None if c == ok else v
                                              for c, v in enumerate(raw["value"])])
        set_at_error = dict(raw, errors=raw["errors"] + [[ok, "boom", "E"]])
        error_not_a_list = dict(raw, errors=[5] + raw["errors"])
        for doc, cause in (({"format": "mcgrid-result-v3"}, KeyError),
                           ({"format": "mcgrid-result-v3", "meta": 5}, TypeError),
                           (bad_value, TypeError), (short, ValueError), (long, ValueError),
                           (error_outside, ValueError), (warning_outside, ValueError),
                           (no_diagnostic, KeyError), (null_without_error, ValueError),
                           (set_at_error, ValueError), (error_not_a_list, TypeError)):
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="malformed result file") as info:
                load(path)
            assert isinstance(info.value.__cause__, cause)

    def test_files_that_are_not_json_are_value_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        for data in (b"garbage", b"\xff\xfe{}"):
            path.write_bytes(data)
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value).startswith(f"{path}: not a result file (")
            assert isinstance(info.value.__cause__, ValueError)

    def test_file_bytes_are_stable(self, tmp_path):
        res = random_store(random.Random(3))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(res, p1)
        save(res, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # a header line, then float64 values
        _, newline, tail = p1.read_bytes().partition(b"\n")
        assert newline and len(tail) == 8 * (res.n_subjobs - res.error_count()) * \
            math.prod(res.value.shape[:-1])

    def test_maybe_read_absent_returns_none(self, tmp_path):
        assert maybe_read(tmp_path / "missing.json", "0" * 16) is None

    def test_maybe_read_fingerprint_mismatch_raises(self, tmp_path):
        res = random_store(random.Random(5))
        path = tmp_path / "s.json"
        save(res, path)
        with pytest.raises(CacheInvalidError):
            maybe_read(path, "f" * 16)

    def test_maybe_read_match_sets_from_cache(self, tmp_path):
        res = random_store(random.Random(6))
        path = tmp_path / "s.json"
        save(res, path)
        back = maybe_read(path, res.meta.fingerprint)
        assert back is not None and back.from_cache
        assert not res.from_cache

    def test_run_study_cache_cycle(self, tmp_path):
        path = tmp_path / "cache.json"
        vl = scalar_varlist(2)
        r1 = run_study(vl, square_study, cache_path=path)
        assert not r1.from_cache
        r2 = run_study(vl, square_study, cache_path=path)
        assert r2.from_cache
        assert do_res_equal(r1, r2)
        with pytest.raises(CacheInvalidError):
            run_study(vl.with_n_sim(3), square_study, cache_path=path)

    def test_another_study_on_the_same_cache_file_is_refused(self, tmp_path):
        path = tmp_path / "cache.json"
        vl = scalar_varlist(2)
        first = run_study(vl, probe_first_uniform, cache_path=path)
        with pytest.raises(CacheInvalidError):
            run_study(vl, square_study, cache_path=path)
        cmp = do_res_equal(first, load(path))
        assert cmp, cmp.report

    def test_a_cache_without_seeds_never_serves_a_run_that_keeps_them(self, tmp_path):
        # a file saved without keep_seed holds no seeds, so it cannot serve
        # a run that asks for them; a file with seeds serves either run
        vl = VarList([VarSpec("n.sim", "N", 3), VarSpec("x", "grid", (1, 2))])
        plain, kept = tmp_path / "plain.json", tmp_path / "kept.json"
        run_study(vl, probe_first_uniform, cache_path=plain)
        saved = plain.read_bytes()
        with pytest.raises(CacheInvalidError, match="saved without keep_seed"):
            run_study(vl, probe_first_uniform, keep_seed=True, cache_path=plain)
        assert plain.read_bytes() == saved
        first = run_study(vl, probe_first_uniform, keep_seed=True, cache_path=kept)
        for keep_seed in (True, False):
            hit = run_study(vl, probe_first_uniform, keep_seed=keep_seed, cache_path=kept)
            assert hit.from_cache and hit.seeds == first.seeds is not None

    def test_a_cache_needs_a_named_study(self, tmp_path):
        path = tmp_path / "cache.json"
        ran = []

        def nameless(params, rng, warn):
            ran.append(params["x"])
            return 1.0

        with pytest.raises(ValueError, match="a cache needs a registered or module-level"):
            run_study(scalar_varlist(2), nameless, cache_path=path)
        assert ran == [] and not path.exists()
        assert run_study(scalar_varlist(2), nameless).n_subjobs == 6  # without a cache it runs


    def test_a_cache_refuses_a_declaration_its_canonical_form_does_not_carry(self, tmp_path):
        # two frozen arrays that differ in one element print alike, so their
        # canonical forms, and fingerprints, are equal
        path = tmp_path / "cache.json"
        first, second = np.arange(10_000.0), np.arange(10_000.0)
        second[5_000] = -1e9
        for payload in (first, second):
            vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (1, 2)),
                          VarSpec("a", "frozen", payload)])
            with pytest.raises(ValueError, match="a cache needs JSON-serializable variables: "
                                                 "a: Object of type ndarray"):
                run_study(vl, never_study, cache_path=path)
            assert not path.exists()

    def test_a_lossy_store_is_never_a_cache_hit_for_a_faithful_declaration(self, tmp_path):
        # the canonical form writes math.inf as "Inf": the two declarations
        # would share a canonical form but for the fingerprint's lossy mark
        lossy = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (1.0, math.inf))])
        faithful = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (1.0, "Inf"))])
        assert canonical_json(lossy.canonical()) == canonical_json(faithful.canonical())
        path = tmp_path / "lossy.json"
        with pytest.raises(ValueError, match="a cache needs JSON-serializable variables: x: "
                                             "Out of range float values"):
            run_study(lossy, never_study, cache_path=path)
        res = run_study(lossy, square_study)
        save(res, path)
        cmp = do_res_equal(res, load(path))  # the lossy level's labels load as saved
        assert cmp, cmp.report
        with pytest.raises(CacheInvalidError):  # the same study: only the mark differs
            run_study(faithful, square_study, cache_path=path)
        fresh = tmp_path / "faithful.json"
        ran = run_study(faithful, square_study, cache_path=fresh)
        assert not ran.from_cache and ran.dims[0] == ("x", ("1", "Inf"))
        hit = run_study(faithful, square_study, cache_path=fresh)
        assert hit.from_cache and do_res_equal(ran, hit)

    def test_dims_other_than_the_declarations_are_malformed(self, tmp_path):
        # a 3 x 2 declaration whose file says 2 rows x 3 replications, or
        # relabels its replications, loads as neither
        vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (3, 4, 5))])
        path = tmp_path / "cache.json"
        run_study(vl, square_study, cache_path=path)
        doc, tail = header(path)
        assert doc["dims"] == [["x", ["3", "4", "5"]], ["n.sim", ["1", "2"]]]
        for dims in ([["x", ["3", "4"]], ["n.sim", ["1", "2", "3"]]],
                     [["x", ["3", "4", "5"]], ["n.sim", ["2", "1"]]],
                     [["x", ["3", "4", "6"]], ["n.sim", ["1", "2"]]],
                     [["x", ["3", "4", "5"]]]):
            write(path, dict(doc, dims=dims), tail)
            with pytest.raises(ValueError, match="malformed result file .*dims are not those "
                                                 "of the declaration"):
                run_study(vl, never_study, cache_path=path)

    def test_a_small_file_declaring_a_huge_replication_count_is_refused(self, tmp_path):
        # the file's dims are compared by length before any label is built:
        # 10**12 declared replications against the file's 2 are malformed,
        # not 10**12 labels, in a child whose address space is capped at
        # 256 MiB above what it maps once mcgrid is imported
        doc, tail = header(DATA / "v4-store.json")
        varlist = doc["meta"]["varlist"]
        doc["meta"]["n_sim"] = varlist["n_sim"] = varlist["variables"][0]["value"] = 10 ** 12
        path = tmp_path / "huge.json"
        write(path, doc, tail)
        code = "\n".join([
            "import resource, sys",
            "from mcgrid import load",
            "with open('/proc/self/statm') as fh:",
            "    size = int(fh.read().split()[0]) * resource.getpagesize()",
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]",
            "resource.setrlimit(resource.RLIMIT_AS, (size + 2 ** 28, hard))",
            "try:",
            "    load(sys.argv[1])",
            "except ValueError as exc:",
            "    assert 'dims are not those of the declaration' in str(exc), exc",
            "else:",
            "    sys.exit('loaded')",
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("backend", [Sequential(), ThreadPool(2), ProcessPool(2)],
                             ids=["seq", "threads", "procs"])
    def test_tuple_level_stores_save_load_and_serve_their_cache(self, tmp_path, backend):
        # a tuple level is labelled as the list the file holds, so the file's
        # dims are those of the declaration it reads back
        for levels, labels in ((((1, 2), (3, 4)), ("[1, 2]", "[3, 4]")),
                               (([1, (2, 3)], [4]), ("[1, [2, 3]]", "[4]"))):
            vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", levels)])
            path = tmp_path / f"{len(labels[0])}.json"
            ran = run_study(vl, params_probe_study, backend=backend, cache_path=path)
            assert not ran.from_cache and ran.dims[0] == ("x", labels)
            cmp = do_res_equal(ran, load(path))
            assert cmp, cmp.report
            hit = run_study(vl, params_probe_study, backend=backend, cache_path=path)
            assert hit.from_cache and do_res_equal(ran, hit)

    @pytest.mark.parametrize("backend", [Sequential(), ProcessPool(2)], ids=["seq", "procs"])
    def test_an_int_subclass_level_and_payload_save_load_and_serve_their_cache(self, tmp_path,
                                                                                backend):
        # written as their digits, they read back as the ints they are
        vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (Tagged(1), Tagged(2))),
                      VarSpec("f", "frozen", Tagged(3))])
        assert vl.validate() == [] and vl.lossy() == []
        assert vl["x"].level_labels() == ("1", "2")
        path = tmp_path / "r.json"
        ran = run_study(vl, params_probe_study, backend=backend, cache_path=path)
        assert not ran.from_cache and ran.dims[0] == ("x", ("1", "2"))
        cmp = do_res_equal(run_study(vl, params_probe_study), ran)
        assert cmp, cmp.report
        hit = run_study(vl, params_probe_study, backend=backend, cache_path=path)
        cmp = do_res_equal(ran, hit)
        assert hit.from_cache and cmp, cmp.report

    def test_a_cache_hit_asks_lossy_once(self, tmp_path, monkeypatch):
        vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (1, 2))])
        path = tmp_path / "r.json"
        run_study(vl, square_study, cache_path=path)
        calls, lossy = [], VarList.lossy
        monkeypatch.setattr(VarList, "lossy", lambda self: calls.append(self) or lossy(self))
        assert run_study(vl, square_study, cache_path=path).from_cache
        assert calls == [vl]

    def test_a_non_finite_inner_level_is_labelled_by_its_tag_fresh_and_reloaded(self, tmp_path):
        vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("a", "grid", (1, 2)),
                      VarSpec("k", "inner", (0.5, math.inf, -math.inf, math.nan))])
        res = run_study(vl, fresh_buffer_study)
        save(res, tmp_path / "inner.json")
        back = load(tmp_path / "inner.json")
        assert get_array(res).dims[0] == ("k", ("0.5", "Inf", "-Inf", "NaN"))
        assert get_array(back).dims == get_array(res).dims
        cmp = do_res_equal(res, back)
        assert cmp, cmp.report

    def test_a_file_of_a_non_finite_level_saved_before_the_lossy_mark_is_refused(
            self, tmp_path):
        # saved from grid levels (1.0, math.inf) by a release before the
        # fingerprint's lossy mark: dims "1.0", "inf", and the fingerprint of
        # the faithful (1.0, "Inf"), which labels its levels "1", "Inf"
        faithful = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (1.0, "Inf"))])
        path = tmp_path / "old.json"
        shutil.copy(DATA / "pre-mark-inf-level.json", path)
        doc = json.loads(path.read_text())
        assert doc["dims"][0] == ["x", ["1.0", "inf"]]
        assert doc["meta"]["fingerprint"] == study_fingerprint(faithful, True, SeedSpec.seq(),
                                                               "square")
        for read in (lambda: load(path),
                     lambda: run_study(faithful, square_study, cache_path=path)):
            with pytest.raises(ValueError, match="malformed result file .*dims are not those "
                                                 "of the declaration"):
                read()
        assert path.read_bytes() == (DATA / "pre-mark-inf-level.json").read_bytes()


def test_repeated_error_or_warning_cells_are_malformed(tmp_path):
    # a second entry for a cell would replace the first on load
    res = run_study(VarList([VarSpec("n.sim", "N", 4), VarSpec("x", "grid", (3, 4, 5))]),
                    coin_study)
    assert res.error_count() and res.warning_count()
    path = tmp_path / "coin.json"
    save(res, path)
    doc, tail = header(path)
    for field, later in (("errors", lambda e: [e[0], "later", e[2]]),
                         ("warnings", lambda w: [w[0], ["later"]])):
        entries = doc[field]
        write(path, dict(doc, **{field: [entries[0], later(entries[0]), *entries[1:]]}), tail)
        with pytest.raises(ValueError, match="malformed result file .*error or warning "
                                             "indices not increasing") as info:
            load(path)
        assert isinstance(info.value.__cause__, ValueError)


class TestFormatV1:
    """Files written by the v1 and v2 writers are refused, so never serve as a cache."""

    def test_matching_v1_file_is_not_a_cache_hit(self, tmp_path):
        # a v1 or v2 file is refused in one line that names its tag and the
        # last commit that reads it, and is left as it was
        want = v1_stores()["store"]
        for name in ("v1-store", "v2-store"):
            path = tmp_path / f"{name}.json"
            shutil.copy(DATA / f"{name}.json", path)
            tag = f"mcgrid-result-{name[:2]}"
            message = (f"{path}: {tag} files are no longer read; mcgrid at commit d3eef42 "
                       "loads one and saves it again as mcgrid-result-v3")
            for read in (lambda: load(path), lambda: maybe_read(path, want.meta.fingerprint),
                         lambda: run_study(want.meta.varlist, never_study, cache_path=path,
                                           keep_seed=True)):
                with pytest.raises(ValueError) as info:
                    read()
                assert str(info.value) == message
            assert path.read_bytes() == (DATA / f"{name}.json").read_bytes()


class TestFormatV2:
    """``tests/data/v2-<name>.json`` were saved from ``v1_stores()`` by the v2
    writer while ``assemble`` still took records in virtual order.  v2 store
    files hold the columns that v3 files keep."""

    @pytest.mark.parametrize("name", ["store", "scalar", "float_levels"])
    def test_stores_built_from_columns_save_the_golden_bytes(self, name, tmp_path):
        # a store saves the v2 document's content again: its header holds the
        # v2 fields but kind and value, and its tail the values of the cells
        # that did not err, cell after cell (the v2 column is inner dims first)
        save(v1_stores()[name], tmp_path / "v4.json")
        v2 = json.loads((DATA / f"v2-{name}.json").read_text(encoding="utf-8"))
        value, n = np.array(v2.pop("value"), dtype=float), len(v2["time_ms"])
        values = np.delete(value.reshape(n, -1), [k for k, *_ in v2["errors"]], axis=0)
        del v2["kind"]
        assert header(tmp_path / "v4.json")[0]["time_ms"] == v2["time_ms"]
        write(tmp_path / "v2.json", v2, values.astype("<f8").tobytes())
        assert masked(tmp_path / "v4.json") == masked(tmp_path / "v2.json")

    EDITS = {
        "error-cell-99": lambda doc: doc["errors"].append([99, "boom", "E"]),
        "error-cell-1.0": lambda doc: doc["errors"].append([1.0, "boom", "E"]),
        "warning-cell-minus-1": lambda doc: doc["warnings"].append([-1, ["w"]]),
        "warning-cell-4": lambda doc: doc["warnings"].append([4, ["w"]]),
        "one-seed": lambda doc: doc.update(seeds=["00"]),
        "short-value": lambda doc: doc["value"].pop(),
        "long-value": lambda doc: doc["value"].append(1.0),
        "short-time": lambda doc: doc["time_ms"].pop(),
    }

    @pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
    def test_cells_outside_the_store_are_malformed(self, tmp_path, edit):
        # a 4-cell store: each edit names a cell it lacks, or sizes a column wrongly
        doc = json.loads((DATA / "v3-float_levels.json").read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: malformed result file (")


class TestFormatV3:
    """``tests/data/v3-<name>.json`` were saved from ``v1_stores()`` by the v3
    writer, the last that wrote values as text."""

    @pytest.mark.parametrize("name", ["store", "scalar", "raw", "float_levels"])
    def test_save_reproduces_the_golden_bytes(self, name, tmp_path):
        # a v3 file loads as its store, times too, and saves as its v4 file
        want = v1_stores()[name]
        back = load(DATA / f"v3-{name}.json")
        cmp = do_res_equal(want, back)
        assert cmp, cmp.report
        assert float_bits(back.time_ms) == float_bits(want.time_ms)
        save(back, tmp_path / "v4.json")
        assert (tmp_path / "v4.json").read_bytes() == (DATA / f"v4-{name}.json").read_bytes()

    @pytest.mark.parametrize("name", ["store", "scalar", "float_levels"])
    def test_store_files_differ_from_v2_only_in_tag_and_fingerprint(self, name):
        assert masked(DATA / f"v3-{name}.json") == masked(DATA / f"v2-{name}.json")
        assert header(DATA / f"v3-{name}.json")[0]["time_ms"] == \
            header(DATA / f"v2-{name}.json")[0]["time_ms"]
        # v3 hashes the study (here none) into the fingerprint
        assert load(DATA / f"v3-{name}.json").meta.fingerprint != \
            json.loads((DATA / f"v2-{name}.json").read_text())["meta"]["fingerprint"]

    def test_raw_file_keeps_the_store_columns(self):
        doc = json.loads((DATA / "v3-raw.json").read_text(encoding="utf-8"))
        store = json.loads((DATA / "v3-scalar.json").read_text(encoding="utf-8"))
        assert list(doc) == list(store) + ["diagnostic"]
        assert doc["kind"] == "raw" and doc["dims"] == store["dims"]
        # one value per cell in store order, null where the sub-job errored
        assert doc["value"] == [0.0, [1.0, 2.0], None, 1.5, 4.5, 7.5]
        assert doc["errors"] == [[2, "boom", "RuntimeError"]]
        assert doc["warnings"] == [[1, ["odd shape"]]]


class TestFormatV4:
    """``tests/data/v4-<name>.json`` were saved from ``v1_stores()`` by the v4
    writer: a header line, then the values as float64."""

    @pytest.mark.parametrize("name", ["store", "scalar", "raw", "float_levels"])
    def test_save_reproduces_the_golden_bytes(self, name, tmp_path):
        want = v1_stores()[name]
        save(want, tmp_path / "v4.json")
        assert (tmp_path / "v4.json").read_bytes() == (DATA / f"v4-{name}.json").read_bytes()
        back = load(DATA / f"v4-{name}.json")
        cmp = do_res_equal(want, back)
        assert cmp, cmp.report
        assert float_bits(back.time_ms) == float_bits(want.time_ms)
        if name != "raw":  # bit for bit, and writable: not a view of the file's bytes
            assert back.value.tobytes() == want.value.tobytes()
            assert back.value.flags.writeable

    def test_a_dense_file_lists_no_shapes_and_a_raw_file_does(self):
        # a dense file's nulls follow from its errors: the values of the
        # cells that did not err, cell after cell, each in C order
        doc, tail = header(DATA / "v4-store.json")
        store = v1_stores()["store"]
        assert list(doc) == ["format", "meta", "dims", "time_ms", "errors", "warnings", "seeds"]
        assert tail == np.delete(np.moveaxis(store.value, -1, 0), list(store.errors),
                                 axis=0).tobytes()
        raw, tail = header(DATA / "v4-raw.json")
        assert list(raw) == ["format", "meta", "dims", "diagnostic", "shapes", *list(doc)[3:]]
        assert raw["shapes"] == [[], [2], None, [], [], []]
        assert np.frombuffer(tail, "<f8").tolist() == [0.0, 1.0, 2.0, 1.5, 4.5, 7.5]
        assert raw["errors"] == [[2, "boom", "RuntimeError"]]

    EDITS = {  # name: golden file, edit of its header, edit of its tail
        "tail-1-byte-short": ("store", None, lambda t: t[:-1]),
        "tail-1-byte-long": ("store", None, lambda t: t + b"\0"),
        "tail-8-bytes-short": ("store", None, lambda t: t[:-8]),
        "tail-8-bytes-long": ("store", None, lambda t: t + bytes(8)),
        "raw-tail-8-bytes-short": ("raw", None, lambda t: t[:-8]),
        "no-newline": ("store", None, None),
        "header-not-an-object": ("store", lambda d: [d], None),
        "shapes-not-filling-the-tail": ("raw", lambda d: dict(
            d, shapes=[[], [3], None, [], [], []]), None),
        "short-shapes": ("raw", lambda d: dict(d, shapes=d["shapes"][:-1]), None),
        "errors-not-at-the-null-shapes": ("raw", lambda d: dict(
            d, shapes=[[], [2], [], [], [], None]), None),
        "error-without-a-null-value": ("scalar", lambda d: dict(
            d, errors=d["errors"] + [[5, "boom", "E"]]), None),
        "diagnostic-with-dense-values": ("store", lambda d: dict(d, diagnostic="x"), None),
        "no-diagnostic-with-raw-values": ("raw", lambda d: {
            k: v for k, v in d.items() if k != "diagnostic"}, None),
    }

    @pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
    def test_malformed_files_are_value_errors(self, tmp_path, edit):
        name, edit_header, edit_tail = edit
        doc, tail = header(DATA / f"v4-{name}.json")
        doc = edit_header(doc) if edit_header else doc
        path = tmp_path / "bad.json"
        if edit_tail is None and edit_header is None:  # the header alone
            path.write_bytes(json.dumps(doc).encode("utf-8"))
        else:
            write(path, doc, edit_tail(tail) if edit_tail else tail)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: malformed result file (")


def first_difference_by_records(a, b):
    """Reference for do_res_equal: the per-record loop, first differing cell."""
    for i, (ra, rb) in enumerate(zip(a.records, b.records)):
        same_value = (ra.value is None) == (rb.value is None) and (
            ra.value is None or np.array_equal(ra.value, rb.value, equal_nan=True))
        if (ra.error, ra.warnings, ra.seed) != (rb.error, rb.warnings, rb.seed) \
                or not same_value:
            return i
    return None


class TestComparison:
    @pytest.mark.parametrize("seed", range(40))
    def test_first_difference_matches_record_loop(self, seed):
        rng = random.Random(seed)
        a = random_store(rng)
        n = a.n_subjobs
        value, errors = a.value.copy(), dict(a.errors)
        warnings, seeds = dict(a.warnings), None if a.seeds is None else list(a.seeds)
        for _ in range(rng.choice([1, 2])):
            cell = rng.randrange(n)
            kind = rng.choice(["value", "error", "warning", "seed"])
            if kind == "value" and cell not in errors:
                value[..., cell] = 123.25
            elif kind == "error":
                errors[cell] = ErrorInfo("changed", "test")
            elif kind == "warning":
                warnings[cell] = warnings.get(cell, ()) + ("extra",)
            else:
                seeds = seeds or [None] * n
                seeds[cell] = "f" * 208
        b = dataclasses.replace(a, value=value, errors=errors, warnings=warnings, seeds=seeds)
        want = first_difference_by_records(a, b)
        cmp = do_res_equal(a, b)
        if want is None:
            assert cmp, cmp.report
        else:
            labels = ", ".join(f"{name}={lab}"
                               for (name, _), lab in zip(a.dims, a.cell_labels(want)))
            assert not cmp and cmp.report.startswith(f"cell ({labels}): ")


    def test_time_and_created_ignored(self):
        vl = scalar_varlist(1)
        mk = lambda t: assemble(vl, Columns.from_records([
            SubJobRecord(value=float(i), error=None, warnings=(), time_ms=t, seed=None)
            for i in range(3)]), True, SeedSpec.seq(), False, created=f"T{t}")
        assert do_res_equal(mk(1.0), mk(99.0))

    def test_value_difference_reported_with_cell(self):
        vl = scalar_varlist(1)

        def mk(v):
            recs = [SubJobRecord(value=float(i), error=None, warnings=(),
                                 time_ms=0.0, seed=None) for i in (0, 1, 2)]
            recs[1] = SubJobRecord(value=v, error=None, warnings=(),
                                   time_ms=0.0, seed=None)
            return assemble(vl, Columns.from_records(recs), True, SeedSpec.seq(), False, "t")

        cmp = do_res_equal(mk(1.0), mk(1.5))
        assert not cmp
        assert "value" in cmp.report
        assert "1.5" in cmp.report and "x" in cmp.report

    def test_nan_values_compare_equal(self):
        vl = scalar_varlist(1)
        mk = lambda: assemble(vl, columns([math.nan] * 3), True, SeedSpec.seq(), False, "t")
        assert do_res_equal(mk(), mk())

    def test_warning_order_matters(self):
        vl = scalar_varlist(1)

        def mk(order):
            recs = [SubJobRecord(value=1.0, error=None, warnings=order,
                                 time_ms=0.0, seed=None) for _ in range(3)]
            return assemble(vl, Columns.from_records(recs), True, SeedSpec.seq(), False, "t")

        assert do_res_equal(mk(("a", "b")), mk(("a", "b")))
        cmp = do_res_equal(mk(("a", "b")), mk(("b", "a")))
        assert not cmp and "warning" in cmp.report

    def test_error_vs_value_difference(self):
        vl = scalar_varlist(1)

        def mk(err):
            rec = (SubJobRecord(value=None, error=ErrorInfo("bad", "study"),
                                warnings=(), time_ms=0.0, seed=None) if err else
                   SubJobRecord(value=1.0, error=None, warnings=(), time_ms=0.0,
                                seed=None))
            recs = [rec] + [SubJobRecord(value=1.0, error=None, warnings=(),
                                         time_ms=0.0, seed=None)] * 2
            return assemble(vl, Columns.from_records(recs), True, SeedSpec.seq(), False, "t")

        cmp = do_res_equal(mk(True), mk(False))
        assert not cmp and "error" in cmp.report

    def test_fingerprint_difference_caught(self):
        vl = scalar_varlist(1)
        recs = lambda: [SubJobRecord(value=float(i), error=None, warnings=(),
                                     time_ms=0.0, seed=None) for i in range(3)]
        a = assemble(vl, Columns.from_records(recs()), True, SeedSpec.seq(), False, "t")
        b = assemble(vl, Columns.from_records(recs()), True, SeedSpec.none_reseed(), False, "t")
        cmp = do_res_equal(a, b)
        assert not cmp and "fingerprint" in cmp.report

