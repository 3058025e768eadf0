"""A near-free study with 10,000 sub-jobs, used by the ``cheap-*`` workloads.

Its kernel costs a single uniform draw, so a run's time is the framework's:
seeding, the sub-job harness, scheduling and IPC, assembly and the store.
It has a small inner variable, warns on one grid level and raises on a fixed
set of grid rows that does not depend on the seed.  It lives at module level
so that process workers can import it as ``perfbench.cheap:cheap_study``.
"""

from __future__ import annotations

from mcgrid import VarList, VarSpec

A_LEVELS = tuple(range(10))
B_LEVELS = tuple(range(25))
N_SIM = 40          # 10 x 25 grid rows x 40 replications = 10,000 sub-jobs
WARN_B = 3
ERROR_MOD = 23


def varlist() -> VarList:
    return VarList([
        VarSpec("n.sim", "N", N_SIM),
        VarSpec("a", "grid", A_LEVELS),
        VarSpec("b", "grid", B_LEVELS),
        VarSpec("k", "inner", (1, 2)),
        VarSpec("scale", "frozen", 0.5),
    ])


def fails(params: dict) -> bool:
    return (7 * params["a"] + params["b"]) % ERROR_MOD == 0


def expected_warnings(params: dict) -> tuple[str, ...]:
    return (f"b={WARN_B}: flagged level",) if params["b"] == WARN_B else ()


def error_message(params: dict) -> str:
    return f"cell a={params['a']}, b={params['b']} fails by design"


def cheap_study(params, rng, warn):
    for message in expected_warnings(params):
        warn(message)
    if fails(params):
        raise ValueError(error_message(params))
    u = rng.uniform()
    return [params["scale"] * u * k for k in params["k"]]
