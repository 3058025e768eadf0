"""Result records, dense result stores, persistence and comparison.

One sub-job yields one :class:`SubJobRecord` with exactly one of ``value`` /
``error`` populated, an ordered list of captured warnings, the wall time in
milliseconds, and optionally the serialized stream state the sub-job started
from.  A completed run is assembled into a :class:`ResultStore`: a dense array
of records over the grid dimensions plus the replication dimension (records
carry their inner-dimension value arrays internally).  When the study's return
shapes are inconsistent the untouched record list is kept as a
:class:`RawFallback` instead, so results are never lost.

Persistence is a single self-describing text file (JSON family).  Doubles are
written with 17 significant digits (exact round-trip); NaN and infinities are
written as the tagged strings "NaN", "Inf", "-Inf".  File bytes are a pure
function of the logical content.

The study fingerprint is the first 8 bytes (16 hex characters) of SHA-256 over
the canonical JSON of {"varlist": ..., "n_sim": ..., "rep_first": ...,
"seed": ...}; independent implementations following this note will agree.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .seeding import SeedSpec
from .varlist import VarList, mk_grid, ravel, unravel

FORMAT_TAG = "mcgrid-result-v1"


class CacheInvalidError(RuntimeError):
    """A persisted result exists but was produced by a different study setup."""


# ---------------------------------------------------------------------------
# canonical JSON

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Inf"' if x > 0 else '"-Inf"'
    return "%.17g" % x


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            if i:
                out.append(",")
            out.append(json.dumps(k, ensure_ascii=False))
            out.append(":")
            _emit(v, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text with tagged non-finite doubles."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _parse_number(v) -> float:
    if isinstance(v, str):
        return {"NaN": math.nan, "Inf": math.inf, "-Inf": -math.inf}[v]
    return float(v)


def _parse_value(v):
    """Nested lists / scalar from file -> float or float ndarray."""
    if v is None:
        return None
    if isinstance(v, list):
        def conv(node):
            if isinstance(node, list):
                return [conv(x) for x in node]
            return _parse_number(node)
        return np.asarray(conv(v), dtype=float)
    return _parse_number(v)


def _value_doc(v):
    if v is None:
        return None
    if isinstance(v, np.ndarray):
        return v.astype(float).tolist()
    return float(v)


# ---------------------------------------------------------------------------
# records

@dataclass(frozen=True)
class ErrorInfo:
    message: str
    kind: str

    def doc(self) -> dict:
        return {"message": self.message, "kind": self.kind}


@dataclass(frozen=True)
class SubJobRecord:
    """Outcome of one sub-job.  Exactly one of value/error is populated."""

    value: float | np.ndarray | None = None
    error: ErrorInfo | None = None
    warnings: tuple[str, ...] = ()
    time_ms: float = 0.0
    seed: str | None = None

    def doc(self) -> dict:
        return {
            "value": _value_doc(self.value),
            "error": None if self.error is None else self.error.doc(),
            "warnings": list(self.warnings),
            "time_ms": float(self.time_ms),
            "seed": self.seed,
        }

    @classmethod
    def from_doc(cls, d: dict) -> "SubJobRecord":
        err = d.get("error")
        return cls(
            value=_parse_value(d.get("value")),
            error=None if err is None else ErrorInfo(err["message"], err["kind"]),
            warnings=tuple(d.get("warnings", ())),
            time_ms=_parse_number(d.get("time_ms", 0.0)),
            seed=d.get("seed"),
        )


# ---------------------------------------------------------------------------
# stores

@dataclass(frozen=True)
class StoreMeta:
    varlist: VarList
    rep_first: bool
    seed_spec: SeedSpec
    keep_seed: bool
    created: str
    fingerprint: str

    def doc(self) -> dict:
        return {
            "created": self.created,
            "n_sim": self.varlist.n_sim,
            "rep_first": self.rep_first,
            "keep_seed": self.keep_seed,
            "seed_spec": self.seed_spec.canonical(),
            "varlist": self.varlist.canonical(),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_doc(cls, d: dict) -> "StoreMeta":
        return cls(
            varlist=VarList.from_canonical(d["varlist"]),
            rep_first=bool(d["rep_first"]),
            seed_spec=SeedSpec.from_canonical(d["seed_spec"]),
            keep_seed=bool(d["keep_seed"]),
            created=d["created"],
            fingerprint=d["fingerprint"],
        )


@dataclass
class ResultStore:
    """Dense records over grid dims + replication dim (odometer order,
    first dimension fastest; the replication dimension is last)."""

    dims: tuple[tuple[str, tuple[str, ...]], ...]
    records: list[SubJobRecord]
    meta: StoreMeta
    from_cache: bool = field(default=False, compare=False)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(labels) for _, labels in self.dims)

    @property
    def n_grid_rows(self) -> int:
        n_sim = self.meta.varlist.n_sim
        return len(self.records) // n_sim if n_sim else len(self.records)

    def record(self, row: int, rep: int) -> SubJobRecord:
        """Record of grid row ``row`` (0-based) and replication ``rep`` (1-based)."""
        return self.records[ravel((row, rep - 1), (self.n_grid_rows, self.meta.varlist.n_sim))]

    def cell_labels(self, index: int) -> tuple[str, ...]:
        return tuple(labels[k] for (_, labels), k in zip(self.dims, unravel(index, self.sizes)))

    def error_count(self) -> int:
        return sum(1 for r in self.records if r.error is not None)

    def warning_count(self) -> int:
        return sum(len(r.warnings) for r in self.records)


@dataclass
class RawFallback:
    """Record list kept in execution (virtual) order when dense assembly is
    impossible; carries the reason in ``diagnostic``."""

    records: list[SubJobRecord]
    meta: StoreMeta
    diagnostic: str
    from_cache: bool = field(default=False, compare=False)


def study_fingerprint(vl: VarList, rep_first: bool, seed_spec: SeedSpec) -> str:
    doc = {
        "varlist": vl.canonical(),
        "n_sim": vl.n_sim,
        "rep_first": bool(rep_first),
        "seed": seed_spec.canonical(),
    }
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    return digest[:16]


def store_dims(vl: VarList) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Grid dims in declaration order, plus the replication dim when n_sim > 1."""
    grid = mk_grid(vl)
    dims = [(name, labels) for name, labels in zip(grid.var_names, grid.level_labels)]
    if vl.n_sim > 1:
        dims.append((vl.n_sim_name, tuple(str(i) for i in range(1, vl.n_sim + 1))))
    return tuple(dims)


def _inner_shape(vl: VarList) -> tuple[int, ...]:
    return tuple(len(s.values) for s in vl.specs if s.vtype == "inner")


def assemble(vl: VarList, records_virtual: list[SubJobRecord], rep_first: bool,
             seed_spec: SeedSpec, keep_seed: bool, created: str) -> ResultStore | RawFallback:
    """Dense store from records in virtual (execution) order.

    Every successful record's value must match the inner-dimension signature of
    the variable list (scalar when there are no inner variables); otherwise the
    untouched list is returned as a RawFallback.
    """
    grid = mk_grid(vl)
    n_G, n_sim = grid.n_rows, vl.n_sim
    if len(records_virtual) != n_G * n_sim:
        raise ValueError(f"expected {n_G * n_sim} records, got {len(records_virtual)}")
    meta = StoreMeta(varlist=vl, rep_first=rep_first, seed_spec=seed_spec,
                     keep_seed=keep_seed, created=created,
                     fingerprint=study_fingerprint(vl, rep_first, seed_spec))

    expected = _inner_shape(vl)
    for i, rec in enumerate(records_virtual):
        if rec.value is None:
            continue
        got = np.shape(rec.value)
        if got != expected:
            diag = (f"virtual record {i}: value shape {got} does not match "
                    f"the inner-dimension signature {expected}")
            return RawFallback(records=list(records_virtual), meta=meta, diagnostic=diag)

    storage = list(records_virtual)
    if rep_first:  # the virtual order runs the replication fastest, the store the grid row
        storage = [rec for rep in range(n_sim) for rec in storage[rep::n_sim]]
    return ResultStore(dims=store_dims(vl), records=storage, meta=meta)


# ---------------------------------------------------------------------------
# persistence

def _store_doc(res: ResultStore | RawFallback) -> dict:
    if isinstance(res, ResultStore):
        return {
            "format": FORMAT_TAG,
            "kind": "store",
            "meta": res.meta.doc(),
            "dims": [[name, list(labels)] for name, labels in res.dims],
            "records": [r.doc() for r in res.records],
        }
    return {
        "format": FORMAT_TAG,
        "kind": "raw",
        "meta": res.meta.doc(),
        "diagnostic": res.diagnostic,
        "records": [r.doc() for r in res.records],
    }


def save(res: ResultStore | RawFallback, path: str | os.PathLike) -> None:
    text = canonical_json(_store_doc(res))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    os.replace(tmp, path)


def load(path: str | os.PathLike) -> ResultStore | RawFallback:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ValueError(f"{path}: not a result file (format tag missing)")
    meta = StoreMeta.from_doc(doc["meta"])
    records = [SubJobRecord.from_doc(d) for d in doc["records"]]
    if doc["kind"] == "raw":
        return RawFallback(records=records, meta=meta, diagnostic=doc["diagnostic"])
    dims = tuple((name, tuple(labels)) for name, labels in doc["dims"])
    return ResultStore(dims=dims, records=records, meta=meta)


def maybe_read(path: str | os.PathLike,
               expected_fingerprint: str | None = None) -> ResultStore | RawFallback | None:
    """Load a previous run's results if present.

    Returns None when the file does not exist.  When an expected fingerprint
    is given and the file's fingerprint differs, raises CacheInvalidError:
    the persisted results belong to a different study declaration.
    """
    if not os.path.exists(path):
        return None
    res = load(path)
    if expected_fingerprint is not None and res.meta.fingerprint != expected_fingerprint:
        raise CacheInvalidError(
            f"{path}: fingerprint {res.meta.fingerprint} does not match the "
            f"requested study ({expected_fingerprint}); delete the file or "
            f"point the run elsewhere")
    res = replace(res, from_cache=True)
    return res


# ---------------------------------------------------------------------------
# comparison

class ResComparison:
    """Truthy when equal; ``report`` holds the first difference found."""

    def __init__(self, report: str | None):
        self.report = report

    def __bool__(self) -> bool:
        return self.report is None

    def __repr__(self) -> str:
        return "ResComparison(equal)" if self else f"ResComparison({self.report!r})"


def _values_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    aa, bb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return aa.shape == bb.shape and bool(np.array_equal(aa, bb, equal_nan=True))


def do_res_equal(a: ResultStore | RawFallback, b: ResultStore | RawFallback) -> ResComparison:
    """Compare two results: dims, values (exact), errors, warnings, seeds.

    Timing fields and creation stamps are ignored.  The report names the first
    differing cell.
    """
    if type(a) is not type(b):
        return ResComparison(f"kind differs: {type(a).__name__} vs {type(b).__name__}")
    if isinstance(a, ResultStore) and a.dims != b.dims:
        return ResComparison(f"dims differ: {a.dims} vs {b.dims}")
    if a.meta.fingerprint != b.meta.fingerprint:
        return ResComparison(
            f"fingerprint differs: {a.meta.fingerprint} vs {b.meta.fingerprint}")
    if len(a.records) != len(b.records):
        return ResComparison(f"record count differs: {len(a.records)} vs {len(b.records)}")

    for i, (ra, rb) in enumerate(zip(a.records, b.records)):
        if isinstance(a, ResultStore):
            where = "cell (" + ", ".join(
                f"{name}={lab}" for (name, _), lab in zip(a.dims, a.cell_labels(i))) + ")"
        else:
            where = f"virtual record {i}"
        if ra.error != rb.error:
            return ResComparison(f"{where}: error differs: {ra.error!r} vs {rb.error!r}")
        if not _values_equal(ra.value, rb.value):
            return ResComparison(f"{where}: value differs: {ra.value!r} vs {rb.value!r}")
        if ra.warnings != rb.warnings:
            return ResComparison(f"{where}: warnings differ: {ra.warnings!r} vs {rb.warnings!r}")
        if ra.seed != rb.seed:
            return ResComparison(f"{where}: seed differs")
    return ResComparison(None)
