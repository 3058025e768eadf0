"""Shared fixtures and independent helper oracles for the test suite."""

from __future__ import annotations

import math
import os
import random

import numpy as np
import pytest

from mcgrid import (RngStream, SeedSpec, StreamState, SubJobRecord, VarList,
                    VarSpec, assemble, register_study)
from mcgrid.results import ErrorInfo


def tiny_varlist(n_sim: int = 3) -> VarList:
    """2x2 grid with one inner variable; cheap to run everywhere."""
    return VarList([
        VarSpec("n.sim", "N", n_sim),
        VarSpec("a", "grid", (1, 2)),
        VarSpec("b", "grid", (10, 20)),
        VarSpec("base", "frozen", {"offset": 100}),
        VarSpec("p", "inner", (0.5, 1.0, 2.0)),
    ])


@register_study("poly")
def poly_study(params, rng, warn):
    """Deterministic polynomial of the grid values, one entry per inner level."""
    a, b, off = params["a"], params["b"], params["base"]["offset"]
    return np.array([a * b * p + off for p in params["p"]], dtype=float)


@register_study("poly-noisy")
def poly_noisy(params, rng, warn):
    """Same polynomial plus one uniform draw, to exercise stream use."""
    shift = rng.uniform()
    a, b, off = params["a"], params["b"], params["base"]["offset"]
    return np.array([a * b * p + off + shift for p in params["p"]], dtype=float)


def scalar_varlist(n_sim: int = 2) -> VarList:
    return VarList([
        VarSpec("n.sim", "N", n_sim),
        VarSpec("x", "grid", (3, 4, 5)),
    ])


@register_study("square")
def square_study(params, rng, warn):
    return float(params["x"]) ** 2


def chatty_study(params, rng, warn):
    """Writes to standard output at the Python and the file-descriptor level."""
    print(f"chatty: x={params['x']}")
    os.write(1, b"chatty: raw write on fd 1\n")
    return float(params["x"]) + rng.uniform()


def dying_study(params, rng, warn):
    """Logs each sub-job to ``paths["log"]``; the first sub-job to create
    ``paths["marker"]`` kills its own process."""
    paths = params["paths"]
    with open(paths["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{params['x']}\n")
    try:
        os.close(os.open(paths["marker"], os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return float(params["x"])
    os._exit(3)


def random_store(rng: random.Random, force_kind: str | None = None):
    """Randomized result store (or raw fallback) for round-trip tests.

    Exercises NaN/Inf values, errors, ordered warnings, recorded seeds and
    irregular time values.
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
    return assemble(vl, records, rep_first=bool(rng.getrandbits(1)),
                    seed_spec=seed_spec, keep_seed=keep_seed,
                    created="2026-01-01T00:00:00Z")


@pytest.fixture
def rng_fixed():
    return RngStream.from_integer(12345)
