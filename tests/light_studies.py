"""Study functions for the tests, at module level so that process workers
can import them.  A worker imports its study's module: this one needs only
the standard library, numpy and mcgrid, which a worker has loaded already,
where ``conftest`` brings in pytest and hypothesis, ~0.3 s in each worker."""

import math
import os
import signal
import threading
import time
import warnings
import zlib

import numpy as np

from mcgrid import register_study


def levels_coin_study(params, rng, warn):
    """Fails when its first uniform is below 1/2 and warns when it is above
    3/4; returns ``100 * x + y`` of its grid levels plus that uniform."""
    u = rng.uniform()
    if u < 0.5:
        raise RuntimeError("low draw")
    if u > 0.75:
        warn("high draw")
    return 100 * params["x"] + params.get("y", 0) + u


def shaped_coin_study(params, rng, warn):
    """``levels_coin_study``'s value, plus a whole number of 0-999 that the
    text of the level of a grid variable ``z`` of any kind decides (when
    there is one), in the form that the frozen ``form`` picks: "scalar";
    "inner", the value times each level of the inner variable ``k`` (a
    scalar without one); or "ragged", the pair ``[value, x]`` where ``x`` is
    even and the value elsewhere.  A scalar or ragged value under an inner
    variable makes the store a raw fallback."""
    value = levels_coin_study(params, rng, warn)
    if "z" in params:
        value += zlib.crc32(repr(params["z"]).encode()) % 1000
    if params["form"] == "inner":
        return value * np.asarray(params.get("k", 1.0), dtype=float)
    if params["form"] == "ragged" and params["x"] % 2 == 0:
        return [value, params["x"]]
    return value


_buffers = threading.local()


def buffer_study(params, rng, warn):
    """``a + k * u`` for each of two inner levels ``k`` and its first uniform
    ``u``, written into one buffer, which it returns every time (a buffer per
    thread, so that the threads of a pool do not race on it)."""
    if (buffer := getattr(_buffers, "value", None)) is None:
        buffer = _buffers.value = np.empty(2)
    u = rng.uniform()
    buffer[:] = [params["a"] + k * u for k in params["k"]]
    return buffer


def fresh_buffer_study(params, rng, warn):
    """``buffer_study``'s values in a new array each call."""
    u = rng.uniform()
    return np.array([params["a"] + k * u for k in params["k"]])


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


@register_study("square")
def square_study(params, rng, warn):
    return float(params["x"]) ** 2


def dividing_study(params, rng, warn):
    """``x / 0.0`` in numpy doubles: inf, unless numpy's error state or the
    warning filters make the division by zero raise."""
    return np.float64(params["x"]) / 0.0


class StudyWarning(UserWarning):
    """A warning category of this module's own."""


def warning_study(params, rng, warn):
    """Issues a ``StudyWarning`` through the warnings module, then returns 1."""
    warnings.warn(f"x={params['x']}", StudyWarning)
    return 1.0


def chatty_study(params, rng, warn):
    """Writes to standard output at the Python and the file-descriptor level."""
    print(f"chatty: x={params['x']}")
    os.write(1, b"chatty: raw write on fd 1\n")
    return float(params["x"]) + rng.uniform()


def float_type_study(params, rng, warn):
    """1.0 when the grid level and the frozen value both arrive as floats."""
    return float(isinstance(params["x"], float) and isinstance(params["f"], float))


def params_probe_study(params, rng, warn):
    """A checksum of the params a sub-job receives, their types included."""
    return float(zlib.crc32(repr(sorted(params.items())).encode()))


def dying_study(params, rng, warn):
    """Logs each sub-job to ``paths["log"]``; the first sub-job to create
    ``paths["marker"]`` kills its own process, the others take
    ``paths["sleep"]`` seconds (default 0)."""
    paths = params["paths"]
    with open(paths["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{params['x']}\n")
    try:
        os.close(os.open(paths["marker"], os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        time.sleep(paths.get("sleep", 0))
        return float(params["x"])
    os._exit(3)


def matmul_study(params, rng, warn):
    """The sum of ``a @ b`` for two 300 x 300 uniform draws: a product large
    enough for OpenBLAS to run it on its threads."""
    a, b = rng.uniforms((300, 300)), rng.uniforms((300, 300))
    return float((a @ b).sum()) + params["x"]


def pid_study(params, rng, warn):
    """Logs the worker's pid and its parent's to ``ctl["log"]``, then sleeps
    ``ctl["sleep"]`` seconds."""
    ctl = params["ctl"]
    with open(ctl["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()} {os.getppid()}\n")
    time.sleep(ctl["sleep"])
    return float(params["x"])


def wide_study(params, rng, warn):
    """A 200,000-element value, so every result frame outgrows a pipe buffer."""
    value = np.arange(200_000) + 0.5
    value[0] = rng.uniform()
    return value


def interrupting_study(params, rng, warn):
    """Logs each sub-job as one byte to ``ctl["log"]`` and takes
    ``ctl["sleep"]`` seconds (default 2 ms).  The sub-job that logs byte
    ``ctl["at"]`` (default 20) writes the time into ``ctl["marker"]`` and
    sends SIGINT to process ``ctl["pid"]``."""
    ctl = params["ctl"]
    with open(ctl["log"], "ab") as fh:
        fh.write(b".")
    if os.path.getsize(ctl["log"]) >= ctl.get("at", 20):
        try:
            fd = os.open(ctl["marker"], os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.write(fd, repr(time.time()).encode())
            os.close(fd)
            os.kill(ctl["pid"], signal.SIGINT)
    time.sleep(ctl.get("sleep", 0.002))
    return float(params["x"])


def mid_buffer_study(params, rng, warn):
    """Returns its first uniform, then leaves the stream mid-buffer: a gamma
    draw and a 32-bit draw, which keeps half of a 64-bit word for later."""
    u = rng.uniform()
    rng.standard_gamma(0.5, 3)
    rng._gen.integers(0, 1000, dtype=np.uint32)
    return u


def coin_study(params, rng, warn):
    """Fails when its first uniform is below 1/2 and warns when it is above
    3/4; returns ``x`` plus that uniform."""
    u = rng.uniform()
    if u < 0.5:
        raise RuntimeError("low draw")
    if u > 0.75:
        warn("high draw")
    return params["x"] + u


def cheap_style_study(params, rng, warn):
    """After perfbench's cheap study: one uniform draw times each inner level
    ``k``, a warning on y=2 and an error on x=4, y=2, by grid level, so on
    the same cells under every seed."""
    if params["y"] == 2:
        warn("y=2: flagged level")
    if (params["x"], params["y"]) == (4, 2):
        raise ValueError("x=4, y=2 fails by design")
    u = rng.uniform()
    return [u * k for k in params["k"]]


def ragged_study(params, rng, warn):
    """``x`` plus the first uniform, but the pair ``[x, u]`` on x=4 and an
    error on x=5, so that the store falls back to raw records."""
    u = rng.uniform()
    if params["x"] == 3:
        warn("three")
    if params["x"] == 5:
        raise ValueError("five")
    return [params["x"], u] if params["x"] == 4 else params["x"] + u


def shape_switch_study(params, rng, warn):
    """``x`` plus the first uniform, but the pair ``[x, u]`` where ``x`` is
    ``params["pair"]``, and an error on x=2 when the uniform is below 0.3."""
    u = rng.uniform()
    if params["x"] == 2 and u < 0.3:
        raise ValueError("low on two")
    return [params["x"], u] if params["x"] == params["pair"] else params["x"] + u


# NaN with a payload, ±Inf, ±0.0, a subnormal of each sign, and an ordinary double
SPECIAL_DOUBLES = (float(np.frombuffer(bytes.fromhex("bc0a000000f8ff7f"), "<f8")[0]),
                   math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1.5)


def special_doubles_study(params, rng, warn):
    """The special doubles from index ``x`` plus a drawn offset, cyclically:
    one of them when the frozen ``form`` is "scalar", six as a 2x3 array when
    it is "matrix"; when it is "ragged", one where ``x % 3`` is 0, two where it
    is 1 and an error where it is 2.  On x = 0..8 each form returns every
    special double in every replication."""
    k = params["x"] + int(rng.uniform() * len(SPECIAL_DOUBLES))
    rotated = np.roll(np.array(SPECIAL_DOUBLES), -k)
    form = params["form"]
    if form == "ragged":
        form = ("scalar", "pair", "error")[params["x"] % 3]
    if form == "error":
        raise ValueError("no value")
    return {"scalar": rotated[0], "pair": rotated[:2], "matrix": rotated[:6].reshape(2, 3)}[form]


def legacy_random_study(params, rng, warn):
    """A draw from numpy's legacy global generator, not from ``rng``."""
    return np.random.random()


def appending_study(params, rng, warn):
    """Appends to the frozen list ``p``."""
    params["p"].append(7)
    return float(len(params["p"]))


def appending_level_study(params, rng, warn):
    """Appends to the list-valued grid level ``g``."""
    params["g"].append(9)
    return float(len(params["g"]))


