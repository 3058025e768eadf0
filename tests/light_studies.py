"""Studies for tests that run many short process-backend runs.  A worker
imports its study's module; this one imports nothing, where ``conftest``
brings in pytest and hypothesis, ~0.2 s in each worker."""


def levels_coin_study(params, rng, warn):
    """Fails when its first uniform is below 1/2 and warns when it is above
    3/4; returns ``100 * x + y`` of its grid levels plus that uniform."""
    u = rng.uniform()
    if u < 0.5:
        raise RuntimeError("low draw")
    if u > 0.75:
        warn("high draw")
    return 100 * params["x"] + params.get("y", 0) + u
