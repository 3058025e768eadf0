"""Replication seeding.

Every sub-job of a run draws from its slot's stream of a counter-based,
splittable generator (Philox4x64).  A seeded discipline resets that stream to
a state that depends only on the discipline and the replication index, never
on the grid row, worker, backend or execution order.  Consequently all grid
rows of one replication consume identical random numbers (common random
numbers), and a persisted stream state can be re-hydrated byte-exactly
anywhere.

Integer-to-state derivation contract (stable across versions, part of the
persistence format): the 128-bit Philox key is produced by two steps of
SplitMix64 (increment 0x9E3779B97F4A7C15, finalizer constants
0xBF58476D1CE4E5B9 / 0x94D049BB133111EB) started at the seed integer modulo
2**64; the counter starts at zero.  Master-seed *lists* are folded through the
same SplitMix64 chain (see :func:`derive_streams`) and stream ``i`` is the
folded base stream jumped ``i`` times (the 256-bit counter advanced by
``i * 2**128``), which makes the per-replication substreams disjoint.

Seeding disciplines

* ``seq``             -- replication ``i`` uses the stream derived from the
                         integer ``i`` (default).
* ``per-rep-integer`` -- replication ``i`` uses the stream derived from the
                         ``i``-th integer of a user list.
* ``per-rep-stream``  -- replication ``i`` uses the ``i``-th of a list of
                         explicit stream states.
* ``none``            -- no reseeding: a slot carries on its thread's ambient
                         OS-entropy stream, so results are not reproducible.
* ``unseeded``        -- like ``none``, but the ambient state is never
                         recorded; result records carry no seed component.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

_M64 = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15
_FOLD_INIT = 0xD1B54A32D192ED03

SEED_KINDS = ("seq", "none", "unseeded", "per-rep-integer", "per-rep-stream")


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _SM64_GAMMA) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


@dataclass(frozen=True)
class StreamState:
    """Complete, serializable state of one generator stream.

    Serializes to a fixed-width (208-character) hex string: the four counter
    words, two key words, four buffer words, buffer position, 32-bit-leftover
    flag and leftover value, each as 16 hex digits, big-endian.
    """

    counter: tuple[int, int, int, int]
    key: tuple[int, int]
    buffer: tuple[int, int, int, int]
    buffer_pos: int
    has_uint32: int
    uinteger: int

    HEX_WIDTH = 208

    def to_hex(self) -> str:
        words = [*self.counter, *self.key, *self.buffer,
                 self.buffer_pos, self.has_uint32, self.uinteger]
        return "".join(f"{w:016x}" for w in words)

    @classmethod
    def from_hex(cls, s: str) -> "StreamState":
        if len(s) != cls.HEX_WIDTH:
            raise ValueError(f"stream state must be {cls.HEX_WIDTH} hex chars, got {len(s)}")
        words = [int(s[i:i + 16], 16) for i in range(0, cls.HEX_WIDTH, 16)]
        return cls(counter=tuple(words[0:4]), key=tuple(words[4:6]),
                   buffer=tuple(words[6:10]), buffer_pos=words[10],
                   has_uint32=words[11], uinteger=words[12])

    def philox_state(self) -> dict:
        """This state as numpy's ``Philox.state`` document, of the Python int
        words it holds: numpy's setter reads them faster than uint64 arrays."""
        return {"bit_generator": "Philox", "state": {"counter": self.counter, "key": self.key},
                "buffer": self.buffer, "buffer_pos": self.buffer_pos,
                "has_uint32": self.has_uint32, "uinteger": self.uinteger}

    @classmethod
    def _from_philox(cls, st: dict) -> "StreamState":
        return cls(counter=tuple(int(x) for x in st["state"]["counter"]),
                   key=tuple(int(x) for x in st["state"]["key"]),
                   buffer=tuple(int(x) for x in st["buffer"]),
                   buffer_pos=int(st["buffer_pos"]),
                   has_uint32=int(st["has_uint32"]),
                   uinteger=int(st["uinteger"]))


class RngStream:
    """A live stream: scalar/vector draws plus byte-exact state snapshots.

    Uniform draws are ``((raw64 >> 11) + 0.5) * 2**-53`` and therefore lie
    strictly inside (0, 1).
    """

    def __init__(self, bitgen: np.random.Philox):
        self._bg = bitgen
        self._gen = np.random.Generator(bitgen)

    @classmethod
    def from_state(cls, state: StreamState) -> "RngStream":
        bg = np.random.Philox()
        bg.state = state.philox_state()
        return cls(bg)

    @classmethod
    def from_integer(cls, seed: int) -> "RngStream":
        return cls.from_state(derive_state(seed))

    @classmethod
    def from_entropy(cls) -> "RngStream":
        return cls(np.random.Philox())

    @property
    def state(self) -> StreamState:
        return StreamState._from_philox(self._bg.state)

    @state.setter
    def state(self, st: StreamState):
        self.reset(st.philox_state())

    def reset(self, philox_state: dict) -> None:
        """Set the whole state from a :meth:`StreamState.philox_state`
        document, buffer position and 32-bit leftover included, so that no
        earlier draw carries over."""
        self._bg.state = philox_state

    def uniform(self) -> float:
        return ((self._bg.random_raw() >> 11) + 0.5) * 2.0 ** -53

    def uniforms(self, size) -> np.ndarray:
        n = int(np.prod(size)) if not np.isscalar(size) else int(size)
        raw = self._bg.random_raw(n)
        raw >>= np.uint64(11)
        u = raw.astype(np.float64)
        u += 0.5
        u *= 2.0 ** -53
        return u.reshape(size)

    def exponentials(self, size) -> np.ndarray:
        # -log1p(-u) maps the strict-open uniforms to strictly positive values
        u = self.uniforms(size)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        return np.negative(u, out=u)

    def standard_gamma(self, shape: float, size) -> np.ndarray:
        return self._gen.standard_gamma(shape, size=size)


def derive_state(seed: int) -> StreamState:
    """Fixed integer -> fresh stream state derivation (see module docstring)."""
    st = seed & _M64
    st, k0 = _splitmix64(st)
    st, k1 = _splitmix64(st)
    return _fresh_state((k0, k1))


def _fresh_state(key: tuple[int, int], jumps: int = 0) -> StreamState:
    """Unused stream at counter ``jumps * 2**128`` (numpy's ``jumped(jumps)``)."""
    return StreamState(counter=(0, 0, jumps & _M64, jumps >> 64), key=key,
                       buffer=(0,) * 4, buffer_pos=4, has_uint32=0, uinteger=0)


def derive_streams(n_sim: int, master_seed) -> list[StreamState]:
    """``n_sim`` disjoint stream states from a list of master-seed integers.

    The master integers are folded through SplitMix64 into a base key; stream
    ``i`` is the base stream jumped ``i`` times, so streams never overlap.
    The result depends only on the arguments.
    """
    st = _FOLD_INIT
    for x in master_seed:
        st, out = _splitmix64(st ^ (int(x) & _M64))
        st ^= out
    st, k0 = _splitmix64(st)
    st, k1 = _splitmix64(st)
    return [_fresh_state((k0, k1), i) for i in range(n_sim)]


@dataclass(frozen=True)
class SeedSpec:
    """Seeding discipline: kind plus per-replication payload where applicable."""

    kind: str
    seeds: tuple[int, ...] | None = None
    states: tuple[StreamState, ...] | None = None

    @classmethod
    def seq(cls) -> "SeedSpec":
        return cls("seq")

    @classmethod
    def none_reseed(cls) -> "SeedSpec":
        return cls("none")

    @classmethod
    def unseeded(cls) -> "SeedSpec":
        return cls("unseeded")

    @classmethod
    def per_rep_integer(cls, seeds) -> "SeedSpec":
        return cls("per-rep-integer", seeds=tuple(int(s) for s in seeds))

    @classmethod
    def per_rep_stream(cls, states) -> "SeedSpec":
        return cls("per-rep-stream", states=tuple(states))

    def validate(self, n_sim: int) -> list[str]:
        problems = []
        if self.kind not in SEED_KINDS:
            problems.append(f"unknown seeding kind {self.kind!r}")
        if self.kind == "per-rep-integer" and (self.seeds is None or len(self.seeds) < n_sim):
            problems.append(f"per-rep-integer needs >= {n_sim} seed integers")
        if self.kind == "per-rep-stream" and (self.states is None or len(self.states) < n_sim):
            problems.append(f"per-rep-stream needs >= {n_sim} stream states")
        return problems

    def canonical(self) -> dict:
        doc = {"kind": self.kind}
        if self.seeds is not None:
            doc["seeds"] = list(self.seeds)
        if self.states is not None:
            doc["states"] = [s.to_hex() for s in self.states]
        return doc

    @classmethod
    def from_canonical(cls, doc: dict) -> "SeedSpec":
        kind = doc["kind"]
        if kind == "per-rep-integer":
            return cls.per_rep_integer(doc["seeds"])
        if kind == "per-rep-stream":
            return cls.per_rep_stream(StreamState.from_hex(h) for h in doc["states"])
        if kind in SEED_KINDS:
            return cls(kind)
        raise ValueError(f"unknown seeding kind {kind!r}")


def seed_for(spec: SeedSpec, rep_index: int) -> StreamState | None:
    """Stream state for replication ``rep_index`` (1-based), or None.

    Depends only on (spec, rep_index): identical for every grid row, worker
    and backend.  ``none``/``unseeded`` return None (ambient, nondeterministic).
    """
    if rep_index < 1:
        raise ValueError("replication index is 1-based")
    if spec.kind == "seq":
        return derive_state(rep_index)
    if spec.kind == "per-rep-integer":
        return derive_state(spec.seeds[rep_index - 1])
    if spec.kind == "per-rep-stream":
        return spec.states[rep_index - 1]
    if spec.kind in ("none", "unseeded"):
        return None
    raise ValueError(f"unknown seeding kind {spec.kind!r}")


_ambient = threading.local()


def ambient_stream() -> RngStream:
    """Per-thread OS-entropy stream: a slot's stream under ``none``/``unseeded``.

    Created lazily on first use and never reset: each sub-job carries on
    where the last one stopped, so repeated runs differ with probability ~1.
    """
    stream = getattr(_ambient, "stream", None)
    if stream is None:
        stream = RngStream.from_entropy()
        _ambient.stream = stream
    return stream
