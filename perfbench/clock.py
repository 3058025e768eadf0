"""Step timing normalised by the machine's current speed.

The benchmark was tuned on a shared 2-core virtual machine whose speed drifts
by 20-40% within seconds (a fixed loop took 18-25 ms in successive 5-s
windows, with no steal time: the cores themselves were slower).  Such a drift
moves every wall-clock figure of a run, and a slow period of minutes moves
whole runs.  So each timed step sits between two runs of a fixed probe that
the program under test cannot change, and the step counts as

    normalised_s = wall_s * REFERENCE_S[kind] / mean(probe before, probe after)

the seconds the step would take at the speed at which the probe of the
step's kind of work takes ``REFERENCE_S[kind]``.  Two programs compared on
one machine keep their ratio; the drift, which slows the probe and the step
alike, cancels out.

The drift hits interpreted Python and large-array numpy code differently, so
there are two probes.  ``python`` (``json`` round trips, a sort and a loop)
tracks the save, reload and report steps and the thread backend's run.
``numpy`` does, with numpy alone, the work of one large cell of the VaR
example (n = 256, d = 500: frailty sampling, a rational function, ``expm1``,
row sums, a sort) and tracks the VaR run, which the Python probe does not.
Neither tracks a run in worker processes; the caller times that by wall
clock.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass

REFERENCE_S = {"python": 0.01, "numpy": 0.01}
_DOC = [{"i": i, "x": i * 0.25, "s": f"r{i:04d}", "v": [i, i % 7, -i]} for i in range(300)]


def _python_work() -> None:
    acc = 0
    for _ in range(10):
        rows = json.loads(json.dumps(_DOC, sort_keys=True))
        rows.sort(key=lambda r: (r["v"][1], r["s"]))
        for r in rows:
            acc += r["i"] * 3 % 11 + len(r["s"])


def _numpy_work() -> None:
    # imported here, so that a set-up timed with the Python probe still pays
    # for importing numpy, as mcgrid's own import does
    import numpy as np

    rng = np.random.Generator(np.random.Philox(20130917))
    n, d, theta = 256, 500, 2.0
    for _ in range(2):
        v = rng.standard_gamma(1 / theta, n)
        e = -np.log1p(-rng.random((n, d)))
        q = (1.0 + e / v[:, None]) ** (-1.0 / theta) - 0.5
        r = q * q
        x = q * (((2.5 * r + 3.3) * r + 6.7) * r + 4.5) / (((5.2 * r + 2.8) * r + 3.9) * r + 1.0)
        np.sort(-np.expm1(x).sum(axis=1))


_WORK = {"python": _python_work, "numpy": _numpy_work}


def probe(kind: str = "python") -> float:
    """Wall seconds of one kind of fixed probe work, with the collector off
    so that the program's live heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _WORK[kind]()
        return (time.perf_counter_ns() - t0) / 1e9
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Timing:
    wall_s: float
    speed: dict[str, float]   # per probe kind: REFERENCE_S / mean probe time

    def norm_s(self, kind: str = "python") -> float:
        return self.wall_s * self.speed[kind]


class Clock:
    """Times steps back to back; the probes after one step are the probes
    before the next."""

    def __init__(self, kinds: tuple[str, ...] = ("python",)):
        self._kinds = kinds
        self._last = {k: probe(k) for k in kinds}
        self.started_ns = 0     # perf_counter_ns when the last step began

    def time(self, fn):
        """``(fn(), Timing)``.  An exception from ``fn`` propagates."""
        t0 = self.started_ns = time.perf_counter_ns()
        out = fn()
        wall = (time.perf_counter_ns() - t0) / 1e9
        after = {k: probe(k) for k in self._kinds}
        speed = {k: REFERENCE_S[k] / ((self._last[k] + after[k]) / 2) for k in after}
        self._last = after
        return out, Timing(wall, speed)
