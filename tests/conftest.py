"""Shared fixtures and independent helper oracles for the test suite."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from mcgrid import (RngStream, SeedSpec, StreamState, SubJobRecord, VarList,
                    VarSpec, assemble, linear_of, seed_for)
from mcgrid.results import Columns, ErrorInfo

# a wider search, the same on every run: pytest --hypothesis-profile=ci; a
# test that sets its own max_examples keeps them
settings.register_profile("ci", max_examples=500, deadline=None, derandomize=True)


def tiny_varlist(n_sim: int = 3) -> VarList:
    """2x2 grid with one inner variable; cheap to run everywhere."""
    return VarList([
        VarSpec("n.sim", "N", n_sim),
        VarSpec("a", "grid", (1, 2)),
        VarSpec("b", "grid", (10, 20)),
        VarSpec("base", "frozen", {"offset": 100}),
        VarSpec("p", "inner", (0.5, 1.0, 2.0)),
    ])


def scalar_varlist(n_sim: int = 2) -> VarList:
    return VarList([
        VarSpec("n.sim", "N", n_sim),
        VarSpec("x", "grid", (3, 4, 5)),
    ])


# ---------------------------------------------------------------------------
# the report statistics one cell at a time: the oracles of the whole-table code

def mad_cell(sample, constant: float = 1.4826) -> float:
    x = np.asarray(sample, dtype=float)
    return constant * float(np.median(np.abs(x - np.median(x))))


def huber_mean_cell(sample, k: float = 1.5, tol: float = 1e-6, max_iter: int = 50) -> float:
    x = np.asarray(sample, dtype=float)
    mu = float(np.median(x))
    s = mad_cell(x)
    if s == 0.0:
        return mu
    for _ in range(max_iter):
        mu1 = float(np.clip(x, mu - k * s, mu + k * s).mean())
        if abs(mu1 - mu) < tol * s:
            return mu1
        mu = mu1
    return mu


def boxplot_stats_cell(values) -> tuple[float, ...] | None:
    """(median, q1, q3, whisker_lo, whisker_hi, *outliers) of the finite
    values, None when there are none."""
    x = np.asarray(values, dtype=float)
    x = x[np.isfinite(x)]
    if x.size == 0:
        return None
    q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    iqr = q3 - q1
    inside = x[(x >= q1 - 1.5 * iqr) & (x <= q3 + 1.5 * iqr)]
    wlo, whi = float(inside.min()), float(inside.max())
    outliers = sorted(float(v) for v in x[(x < wlo) | (x > whi)])
    return (float(med), float(q1), float(q3), wlo, whi, *outliers)


def float_bits(values) -> list[str]:
    """Exact text of each float: tells -0.0 from 0.0, and every NaN reads 'nan'."""
    return [float.hex(float(v)) for v in values]


_FINITE = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5])
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def report_matrices(draw) -> np.ndarray:
    """(cells, replications) arrays as reports meet them: rows of one
    repeated value (zero MAD), of a few tied values, of spread values, with
    NaN and ±inf among them, and with no finite value at all."""
    n_reps = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["constant", "ties", "spread", "mixed", "none"]))
        if kind == "constant":
            rows.append([draw(_FINITE)] * n_reps)
            continue
        values = {"ties": st.sampled_from([1.0, 2.0, 3.0]), "spread": _FINITE,
                  "mixed": _FINITE | _NON_FINITE, "none": _NON_FINITE}[kind]
        rows.append(draw(st.lists(values, min_size=n_reps, max_size=n_reps)))
    return np.array(rows, dtype=float)


def in_store_order(records: list, n_sim: int, rep_first: bool) -> Columns:
    """The columns, in store order, of ``records`` listed in virtual order:
    store cell ``row + n_G * (rep - 1)`` holds virtual record
    ``linear_of(row, rep, ...)``."""
    n_G = len(records) // n_sim
    return Columns.from_records([
        records[linear_of(cell % n_G, cell // n_G + 1, n_G, n_sim, rep_first)]
        for cell in range(len(records))])


def random_store(rng: random.Random, force_kind: str | None = None):
    """Randomized result store (or raw fallback) for round-trip tests.

    Exercises NaN/Inf values, errors, ordered warnings, recorded seeds and
    irregular time values.  Its records are drawn in store order; cell 0,
    the one a raw fallback breaks, is virtual record 0 in either order.
    """
    n_sim = rng.choice([1, 2, 4])
    sizes = [rng.choice([1, 2, 3]) for _ in range(rng.choice([1, 2]))]
    specs = [VarSpec("n.sim", "N", n_sim)]
    for k, size in enumerate(sizes):
        specs.append(VarSpec(f"g{k}", "grid", tuple(range(1, size + 1))))
    inner = rng.choice([0, 2])
    if inner:
        specs.append(VarSpec("q", "inner", tuple(0.1 * (i + 1) for i in range(inner))))
    vl = VarList(specs)
    n_G = math.prod(sizes)
    keep_seed = rng.random() < 0.5
    seed_spec = SeedSpec.seq()

    def one_value():
        pool = [rng.uniform(-5, 5), math.nan, math.inf, -math.inf, 0.0, -0.0]
        if inner:
            return np.array([rng.choice(pool) for _ in range(inner)])
        return rng.choice(pool)

    break_shape = force_kind == "raw"
    records = []
    for i in range(n_G * n_sim):
        warnings = tuple(f"w{i}-{j}" for j in range(rng.choice([0, 0, 1, 2])))
        seed = StreamState.from_hex("0" * 200 + f"{i:08x}").to_hex() if keep_seed else None
        if rng.random() < 0.2 and not (break_shape and i == 0):
            rec = SubJobRecord(value=None,
                               error=ErrorInfo(f"boom {i}", "study"),
                               warnings=warnings,
                               time_ms=rng.uniform(0, 50), seed=seed)
        else:
            value = one_value()
            if break_shape and i == 0:
                value = np.array([1.0, 2.0, 3.0]) if inner != 3 else 7.0
            rec = SubJobRecord(value=value, error=None, warnings=warnings,
                               time_ms=rng.uniform(0, 50), seed=seed)
        records.append(rec)
    return assemble(vl, Columns.from_records(records), rep_first=bool(rng.getrandbits(1)),
                    seed_spec=seed_spec, keep_seed=keep_seed,
                    created="2026-01-01T00:00:00Z")


def v1_stores() -> dict:
    """Small fixed stores whose format-v1 file ``tests/data/v1-store.json``
    was written by the last v1 ``save`` (commit 0e812d0), whose v2 files
    ``tests/data/v2-<name>.json`` (but ``raw``) by the v2 ``save`` before
    ``assemble`` took columns only, whose v3 files
    ``tests/data/v3-<name>.json`` by the last v3 ``save``, and whose v4 files
    ``tests/data/v4-<name>.json`` by the v4 ``save``; the tests load the v3
    and v4 files and compare them with these stores, save these stores to
    the v4 bytes, and check that ``load`` refuses the v1 and v2 files.  Each
    store's records are listed in virtual order and assembled as columns in
    store order.

    * ``store``: inner dim, rep-first, errors, ordered warnings, NaN/±Inf and
      whole-number values, kept seeds;
    * ``scalar``: no inner dim, row-first, a frozen payload, no seeds;
    * ``raw``: a value of the wrong shape, which makes it a RawFallback;
    * ``float_levels``: float grid levels 1.0 and 2.5, whose fingerprint the
      v2 number format changes.
    """
    def rec(i, value=None, error=None, warnings=(), seed=None):
        return SubJobRecord(value=value, error=error, warnings=warnings,
                            time_ms=0.125 * i + 1 / 3, seed=seed)

    spec = SeedSpec.seq()
    vl = VarList([
        VarSpec("n.sim", "N", 3),
        VarSpec("a", "grid", (1, 2)),
        VarSpec("b", "grid", ("x", "y")),
        VarSpec("q", "inner", (0.25, 0.5)),
    ])
    odd = [np.array([math.nan, 1.0]), np.array([math.inf, -math.inf]),
           np.array([100.0, -2.5])]
    records = []
    for i in range(12):
        seed = seed_for(spec, i % 3 + 1).to_hex()
        if i in (4, 9):
            records.append(rec(i, error=ErrorInfo(f"boom {i}", "ValueError"),
                               warnings=("first", "second"), seed=seed))
        else:
            value = odd[i // 4] if i % 4 == 2 else np.array([0.1 * i, 1 / (i + 3)])
            records.append(rec(i, value=value, warnings=("w",) if i == 7 else (),
                               seed=seed))
    out = {"store": assemble(vl, in_store_order(records, 3, True), rep_first=True,
                             seed_spec=spec, keep_seed=True, created="2026-01-01T00:00:00Z")}

    vl = VarList([
        VarSpec("n.sim", "N", 2),
        VarSpec("x", "grid", (3, 4, 5)),
        VarSpec("cfg", "frozen", {"mode": "fast", "k": [1, 2]}),
    ])
    records = [rec(i, value=[math.nan, 7.0, -0.5, 1e300, 2.0, -math.inf][i])
               for i in range(6)]
    records[3] = rec(3, error=ErrorInfo("no value", "invalid-return"))
    out["scalar"] = assemble(vl, in_store_order(records, 2, False), rep_first=False,
                             seed_spec=spec, keep_seed=False, created="2026-01-02T00:00:00Z")

    records = [rec(i, value=1.5 * i) for i in range(6)]
    records[2] = rec(2, value=np.array([1.0, 2.0]), warnings=("odd shape",))
    records[4] = rec(4, error=ErrorInfo("boom", "RuntimeError"))
    out["raw"] = assemble(vl, in_store_order(records, 2, True), rep_first=True,
                          seed_spec=spec, keep_seed=False, created="2026-01-03T00:00:00Z")

    vl = VarList([VarSpec("n.sim", "N", 2), VarSpec("x", "grid", (1.0, 2.5))])
    records = [rec(i, value=float(i)) for i in range(4)]
    out["float_levels"] = assemble(vl, in_store_order(records, 2, True), rep_first=True,
                                   seed_spec=spec, keep_seed=False,
                                   created="2026-01-04T00:00:00Z")
    return out


@pytest.fixture
def rng_fixed():
    return RngStream.from_integer(12345)
