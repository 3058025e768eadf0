"""Variable lists: the declarative description of a simulation study.

A study is described by an ordered list of variables.  Each variable has a
role:

* ``"N"``     -- the replication count (at most one such variable; its single
                 positive-integer value is the number of replications).
* ``"frozen"``-- a constant handed to the study function verbatim (weights,
                 auxiliary functions, ...).  Frozen variables do not create
                 dimensions.
* ``"grid"``  -- the variable's levels span the physical grid; the study runs
                 once per combination of grid levels (times replications).
* ``"inner"`` -- all levels are handled inside a single study-function call,
                 which returns one value per level (vectorized dimension).

The physical grid is the cartesian product of the grid variables' levels, with
the first-declared grid variable varying fastest.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field

VTYPES = ("N", "frozen", "grid", "inner")
_NATIVE = {int, float, str, bool, type(None), list, dict}  # JSON's own types
_STRICT_JSON = json.JSONEncoder(allow_nan=False)  # also refuses cycles


def format_levels(values) -> tuple[str, ...]:
    """Render levels as display strings, as the canonical form carries them:
    a level set that is not JSON-native (ints, finite floats, strings, bools,
    None, lists and string-keyed dicts of these) is read back through
    ``canonical_json`` first, so a tuple is labelled as a list and a
    non-finite float as its tag "NaN", "Inf" or "-Inf"; one it cannot write
    raises TypeError.  Numeric level sets are formatted with a common number
    of decimals (the most any level's shortest round-trip form needs), e.g.
    ``[0.25, 0.5] -> "0.25", "0.50"`` and ``[64, 256] -> "64", "256"``; an
    int is never passed through a float that cannot hold it, so it keeps its
    digits.  String levels pass through unchanged.
    """
    if not _json_native(values):
        from .results import canonical_json  # results imports this module
        values = json.loads(canonical_json(list(values)))
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        if all(isinstance(v, int) or v.is_integer() for v in values):
            return tuple(str(int(v)) for v in values)
        reprs = [_shortest(v) for v in values]
        if any("e" in r for r in reprs):
            return tuple(reprs)
        ndec = max(len(r.partition(".")[2]) for r in reprs)
        return tuple(f"{v:.{ndec}f}" if isinstance(v, float) else f"{v}.{'0' * ndec}"
                     for v in values)
    # strings, or mixed types: format each level on its own
    return tuple(_scalar_label(v) for v in values)


def _json_native(values) -> bool:
    """Whether ``canonical_json`` reads each of ``values`` back as it is."""
    for v in values:
        t = type(v)
        if t not in _NATIVE or t is float and not math.isfinite(v) or \
                t is list and not _json_native(v) or \
                t is dict and not (all(type(k) is str for k in v) and _json_native(v.values())):
            return False
    return True


def _shortest(v) -> str:
    """The shortest text that reads back as the number ``v``: its float's,
    or the digits of an int that no float holds."""
    with contextlib.suppress(OverflowError):
        if float(v) == v:
            return repr(float(v))
    return str(v)


def _scalar_label(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, float)):
        if isinstance(v, int) or v.is_integer():
            return str(int(v))
        return repr(float(v))
    if callable(v):
        return getattr(v, "__name__", repr(v))
    return str(v)


def payload_display(payload) -> str:
    """Display string for a frozen payload.

    Mapping entries show their value when numeric, otherwise their key;
    sequences show each element; callables show their name.
    """
    if isinstance(payload, dict):
        parts = []
        for k, v in payload.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                parts.append(_scalar_label(v))
            else:
                parts.append(str(k))
        return ", ".join(parts)
    if isinstance(payload, (list, tuple)):
        return ", ".join(_scalar_label(v) for v in payload)
    return _scalar_label(payload)


@dataclass(frozen=True)
class VarSpec:
    """One study variable.

    ``label`` is the display label used in tables and plots.  A label wrapped
    in ``$...$`` is treated as math by the LaTeX emitters; the default label is
    the math form of the variable's name.
    """

    name: str
    vtype: str
    values: tuple = ()
    label: str | None = None

    def __init__(self, name, vtype, values=(), label=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vtype", vtype)
        if vtype == "frozen":
            vals = (values,)  # the payload, verbatim
        elif vtype == "N":
            vals = (values,) if isinstance(values, int) else tuple(values)
        else:
            vals = tuple(values)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "label", label if label is not None else f"${name}$")

    @property
    def payload(self):
        """The frozen payload (first value)."""
        return self.values[0]

    def level_labels(self) -> tuple[str, ...]:
        if self.vtype == "frozen":
            return (payload_display(self.values[0]),)
        return format_levels(self.values)

    def value_display(self) -> str:
        """Comma-joined rendering of the variable's value(s) for summaries."""
        return ", ".join(self.level_labels())


class VarList:
    """Ordered collection of :class:`VarSpec`, addressable by name."""

    def __init__(self, specs):
        self.specs: list[VarSpec] = list(specs)
        self._by_name = {s.name: s for s in self.specs}

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def __getitem__(self, name: str) -> VarSpec:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def n_sim(self) -> int:
        """Replication count: the N variable's value, 1 when absent."""
        return next((int(s.values[0]) for s in self.specs if s.vtype == "N"), 1)

    @property
    def n_sim_name(self) -> str:
        return next((s.name for s in self.specs if s.vtype == "N"), "n.sim")

    def names(self, vtype: str | None = None) -> list[str]:
        return [s.name for s in self.specs if vtype is None or s.vtype == vtype]

    def validate(self) -> list[str]:
        """Return a list of problems; empty means the list is well formed."""
        problems = []
        seen = set()
        n_count = 0
        for s in self.specs:
            if not s.name or not isinstance(s.name, str):
                problems.append(f"variable with empty or non-string name: {s!r}")
                continue
            if s.name in seen:
                problems.append(f"duplicate variable name: {s.name!r}")
            seen.add(s.name)
            if s.vtype not in VTYPES:
                problems.append(f"{s.name}: unknown type {s.vtype!r}")
                continue
            if s.vtype == "N":
                n_count += 1
                if len(s.values) != 1 or not isinstance(s.values[0], int) \
                        or isinstance(s.values[0], bool) or s.values[0] < 1:
                    problems.append(f"{s.name}: replication count must be one positive integer")
            elif s.vtype in ("grid", "inner"):
                try:
                    labels = s.level_labels()
                except (TypeError, RecursionError) as exc:
                    problems.append(f"{s.name}: levels are not JSON-serializable ({exc})")
                    continue
                if not labels:
                    problems.append(f"{s.name}: needs at least one level")
                elif len(set(labels)) != len(labels):
                    problems.append(f"{s.name}: level display strings not distinct: {labels}")
        if n_count > 1:
            problems.append("more than one replication-count variable")
        return problems

    def lossy(self) -> list[str]:
        """Each variable that ``canonical()`` does not carry faithfully, with why."""
        return [f"{s.name}: {why}" for s in self.specs if (why := _lossy(s.values))]

    def with_n_sim(self, n_sim: int) -> "VarList":
        """Copy of this list with the replication count replaced (or added)."""
        specs = []
        replaced = False
        for s in self.specs:
            if s.vtype == "N":
                specs.append(VarSpec(s.name, "N", n_sim, label=s.label))
                replaced = True
            else:
                specs.append(s)
        if not replaced:
            specs.insert(0, VarSpec("n.sim", "N", n_sim, label="$N_{sim}$"))
        return VarList(specs)

    def canonical(self) -> dict:
        """JSON-ready canonical form (used for persistence and fingerprints)."""
        variables = []
        for s in self.specs:
            if s.vtype == "frozen":
                value = payload_display(s.values[0]) if _lossy(s.values) else s.values[0]
            elif s.vtype == "N":
                value = int(s.values[0])
            else:
                value = list(s.values)
            variables.append({"name": s.name, "type": s.vtype, "label": s.label, "value": value})
        return {"n_sim": self.n_sim, "variables": variables}

    @classmethod
    def from_canonical(cls, doc: dict) -> "VarList":
        vl = cls(VarSpec(v["name"], v["type"], v["value"], label=v.get("label"))
                 for v in doc["variables"])
        problems = vl.validate()
        if problems:
            raise ValueError("invalid variable list: " + "; ".join(problems))
        return vl


def _lossy(value) -> str | None:
    """Why the canonical form does not carry ``value`` faithfully, or None:
    it carries JSON with string keys and no non-finite float, but writes any
    other frozen payload as its display text and a non-finite float as a tag."""
    from .results import canonical_json  # results imports this module

    try:
        _STRICT_JSON.encode(value)
        canonical_json(value)  # also refuses non-string keys
    except (TypeError, ValueError, RecursionError) as exc:
        return str(exc)
    return None


def unravel(i: int, sizes) -> tuple[int, ...]:
    """Flat index -> multi-index in odometer order, first dimension fastest."""
    multi = []
    for size in sizes:
        multi.append(i % size)
        i //= size
    return tuple(multi)


def ravel(multi, sizes) -> int:
    """Multi-index -> flat index, first dimension fastest (inverse of unravel)."""
    i, stride = 0, 1
    for k, size in zip(multi, sizes):
        i += k * stride
        stride *= size
    return i


def linear_of(row: int, rep: int, n_G: int, n_sim: int, rep_first: bool) -> int:
    """Virtual-grid index of grid row ``row`` (0-based) and replication
    ``rep`` (1-based); ``rep_first=False`` is also the store's cell order."""
    if not 0 <= row < n_G:
        raise IndexError(f"grid row {row} out of range [0, {n_G})")
    if not 1 <= rep <= n_sim:
        raise IndexError(f"replication {rep} out of range [1, {n_sim}]")
    if rep_first:
        return ravel((rep - 1, row), (n_sim, n_G))
    return ravel((row, rep - 1), (n_G, n_sim))


@dataclass(frozen=True)
class PhysicalGrid:
    """Cartesian product of the grid variables' levels.

    Row ``r`` decodes with the first-declared grid variable varying fastest
    (odometer order, leftmost fastest).
    """

    var_names: tuple[str, ...]
    level_values: tuple[tuple, ...]   # per variable
    sizes: tuple[int, ...] = field(init=False)
    n_rows: int = field(init=False)

    def __post_init__(self):
        sizes = tuple(len(v) for v in self.level_values)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "n_rows", math.prod(sizes) if sizes else 1)

    def decode(self, row: int) -> tuple[int, ...]:
        """Row number -> tuple of level indices (first variable fastest)."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"grid row {row} out of range [0, {self.n_rows})")
        return unravel(row, self.sizes)

    def encode(self, indices) -> int:
        for size, i in zip(self.sizes, indices):
            if not 0 <= i < size:
                raise IndexError(f"level index {i} out of range [0, {size})")
        return ravel(indices, self.sizes)

    def row_values(self, row: int) -> tuple:
        return tuple(vals[i] for vals, i in zip(self.level_values, self.decode(row)))

    def row_params(self, row: int) -> dict:
        return dict(zip(self.var_names, self.row_values(row)))


def mk_grid(vl: VarList) -> PhysicalGrid:
    """Build the physical grid of a variable list."""
    grid = [s for s in vl.specs if s.vtype == "grid"]
    return PhysicalGrid(tuple(s.name for s in grid), tuple(s.values for s in grid))


def non_grid_args(vl: VarList) -> dict:
    """Arguments common to every sub-job: frozen payloads and inner levels.

    Inner variables pass their complete level list; frozen variables pass
    their payload verbatim.
    """
    args = {}
    for s in vl.specs:
        if s.vtype == "frozen":
            args[s.name] = s.values[0]
        elif s.vtype == "inner":
            args[s.name] = list(s.values)
    return args
