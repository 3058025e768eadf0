"""Result records, columnar result stores, persistence and comparison.

One sub-job yields exactly one of a value or an error, an ordered list of
captured warnings, the wall time in milliseconds, and optionally the
serialized stream state the sub-job started from.  A run gathers these as
:class:`Columns` in store order, block by block, and assembles them into a
:class:`ResultStore`: columns over the store cells, the grid dimensions plus
the replication dimension in odometer order (first dimension fastest,
replication last).  ``value`` holds the inner dimensions first and NaN where a
sub-job errored; ``time_ms`` is a float column; errors, warnings are kept
sparsely by cell; seeds only when a sub-job kept one.  A
:class:`SubJobRecord` is a view of one sub-job, built on demand.  When the
study's return shapes are inconsistent the store is a :class:`RawFallback`,
whose ``value`` lists each cell's value instead, so results are never lost.

Persistence is a single self-describing text file (JSON family), tagged
``mcgrid-result-v3``.  Doubles are written with 17 significant digits (exact
round-trip), and always as JSON fractions: a whole number keeps a ``.0``
(``1.0``, ``-0.0``, ``1e+20`` stays as is), so it reads back as a double with
its sign; NaN and infinities are written as the tagged strings "NaN", "Inf",
"-Inf".  A store file holds ``meta`` and ``dims``, then ``value`` (the value
array flattened in odometer order over the inner dims followed by the store
dims), ``time_ms`` (one number per cell), ``errors`` (``[cell, message,
kind]`` per errored cell), ``warnings`` (``[cell, [messages]]`` per cell that
warned) and ``seeds`` (one hex string or null per cell, or null when no
sub-job kept its seed); cells count in store order from 0.  A raw fallback
file adds ``diagnostic``; its ``value`` has one entry per cell, null exactly
at the errored cells.  File bytes are a pure function of the logical content.
Files tagged ``mcgrid-result-v2`` (whose raw files list one record document
per sub-job in virtual order) and ``mcgrid-result-v1`` (one record document
per cell, whole numbers written without ``.0``) are still read, never
written; as they name no study, they read with the fingerprint of no study.

The study fingerprint is the first 8 bytes (16 hex characters) of SHA-256 over
the canonical JSON of {"varlist": ..., "n_sim": ..., "rep_first": ...,
"seed": ..., "study": ...}, "study" being ``registry.study_name`` of the study
function or null; independent implementations following this note will agree.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
# the text of json.dumps(s, ensure_ascii=False), without building an encoder per call
from json.encoder import encode_basestring

import numpy as np

from .seeding import SeedSpec
from .varlist import VarList, linear_of, mk_grid, unravel

FORMAT_TAG = "mcgrid-result-v3"
_V2_TAG = "mcgrid-result-v2"
_V1_TAG = "mcgrid-result-v1"


class CacheInvalidError(RuntimeError):
    """A persisted result exists but was produced by a different study setup."""


# ---------------------------------------------------------------------------
# canonical JSON

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Inf"' if x > 0 else '"-Inf"'
    text = "%.17g" % x
    # a bare integer would read back as a JSON integer and lose -0.0's sign
    return text if "." in text or "e" in text else text + ".0"


def _fmt_floats(x: np.ndarray) -> str:
    """The ``_fmt_float`` texts of a 1-D float array, comma-joined."""
    values = x.tolist()
    formats = ["%.17g"] * len(values)
    # NaN, infinities and whole numbers (with ±0) need more than "%.17g"
    for i in np.flatnonzero(~np.isfinite(x) | (x == np.trunc(x))).tolist():
        formats[i], values[i] = "%s", _fmt_float(values[i])
    return ",".join(formats) % tuple(values)


@dataclass(frozen=True)
class _Encoded:
    """JSON text that canonical_json writes verbatim."""

    text: str


def _emit(obj, out: list):
    if type(obj) is float:  # first: most entries of a document are floats
        out.append(_fmt_float(obj))
    elif obj is None:
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
        out.append(encode_basestring(obj))
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
            out.append(encode_basestring(k))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, _Encoded):
        out.append(obj.text)
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


def _parse_values(values: list) -> list:
    """``_parse_value`` of each entry, the non-null ones converted through
    one array when they stack (as a store's value column is), else each on
    its own."""
    try:
        stacked = np.array([v for v in values if v is not None], dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers: each on its own
        return [_parse_value(v) for v in values]
    parsed = iter(stacked.tolist() if stacked.ndim == 1 else stacked)
    return [None if v is None else next(parsed) for v in values]


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


@dataclass(frozen=True)
class SubJobRecord:
    """Outcome of one sub-job.  Exactly one of value/error is populated."""

    value: float | np.ndarray | None = None
    error: ErrorInfo | None = None
    warnings: tuple[str, ...] = ()
    time_ms: float = 0.0
    seed: str | None = None

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


@dataclass(eq=False)
class ResultStore:
    """Columns over the store cells: grid dims + replication dim in odometer
    order (first dimension fastest; the replication dimension is last)."""

    dims: tuple[tuple[str, tuple[str, ...]], ...]
    meta: StoreMeta
    value: np.ndarray                     # inner dims ++ (cell,); NaN where errored
    time_ms: np.ndarray                   # (cell,)
    errors: dict[int, ErrorInfo]          # errored cells only
    warnings: dict[int, tuple[str, ...]]  # cells that warned only
    seeds: list[str | None] | None        # None when no sub-job kept its seed
    from_cache: bool = field(default=False, compare=False)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(labels) for _, labels in self.dims)

    @property
    def n_subjobs(self) -> int:
        return self.time_ms.size

    @property
    def n_grid_rows(self) -> int:
        n_sim = self.meta.varlist.n_sim
        return self.n_subjobs // n_sim if n_sim else self.n_subjobs

    def record(self, row: int, rep: int) -> SubJobRecord:
        """Record of grid row ``row`` (0-based) and replication ``rep`` (1-based)."""
        # store cells are in row-first order, whatever the run's virtual order
        return self._record(linear_of(row, rep, self.n_grid_rows, self.meta.varlist.n_sim, False))

    @property
    def records(self) -> list[SubJobRecord]:
        """Every cell's record in store order, built on each access."""
        return [self._record(i) for i in range(self.n_subjobs)]

    def _record(self, cell: int) -> SubJobRecord:
        error = self.errors.get(cell)
        return SubJobRecord(value=self._value(cell) if error is None else None, error=error,
                            warnings=self.warnings.get(cell, ()),
                            time_ms=float(self.time_ms[cell]),
                            seed=None if self.seeds is None else self.seeds[cell])

    def _value(self, cell: int) -> float | np.ndarray:
        value = self.value[..., cell]
        return float(value) if value.ndim == 0 else value.copy()

    def cell_labels(self, index: int) -> tuple[str, ...]:
        return tuple(labels[k] for (_, labels), k in zip(self.dims, unravel(index, self.sizes)))

    def error_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_subjobs, dtype=bool)
        mask[list(self.errors)] = True
        return mask

    def warning_counts(self) -> np.ndarray:
        counts = np.zeros(self.n_subjobs, dtype=int)
        for cell, messages in self.warnings.items():
            counts[cell] = len(messages)
        return counts

    def error_count(self) -> int:
        return len(self.errors)

    def warning_count(self) -> int:
        return sum(map(len, self.warnings.values()))


@dataclass(eq=False)
class RawFallback(ResultStore):
    """A store whose values do not stack into one array (their shapes
    differ): ``value`` lists each cell's value, None where the sub-job
    errored; ``diagnostic`` names the first sub-job whose shape is wrong."""

    diagnostic: str = field(kw_only=True)

    def _value(self, cell: int) -> float | np.ndarray:
        return self.value[cell]


def study_fingerprint(vl: VarList, rep_first: bool, seed_spec: SeedSpec, study: str | None) -> str:
    """The fingerprint of a declaration run by the study named ``study``."""
    import hashlib  # here: a process worker never fingerprints
    doc = {
        "varlist": vl.canonical(),
        "n_sim": vl.n_sim,
        "rep_first": bool(rep_first),
        "seed": seed_spec.canonical(),
        "study": study,
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


@dataclass
class Columns:
    """Outcomes of sub-jobs as columns, one entry per sub-job: ``value`` (None
    where it errored), ``time_ms``, errors and warnings kept sparsely by
    position, and ``seeds`` (None when no sub-job kept its seed).  A block's
    columns run in rep order, a run's in store order."""

    value: list
    time_ms: list
    errors: dict[int, ErrorInfo]
    warnings: dict[int, tuple[str, ...]]
    seeds: list[str | None] | None

    @classmethod
    def from_records(cls, records: list[SubJobRecord]) -> "Columns":
        seeds = [r.seed for r in records]
        return cls(value=[None if r.error is not None else r.value for r in records],
                   time_ms=[r.time_ms for r in records],
                   errors={k: r.error for k, r in enumerate(records) if r.error is not None},
                   warnings={k: tuple(r.warnings) for k, r in enumerate(records) if r.warnings},
                   seeds=None if seeds.count(None) == len(seeds) else seeds)

    def record(self, k: int) -> SubJobRecord:
        return SubJobRecord(value=self.value[k], error=self.errors.get(k),
                            warnings=self.warnings.get(k, ()), time_ms=float(self.time_ms[k]),
                            seed=None if self.seeds is None else self.seeds[k])

    def put(self, cells: range | list[int], cols: "Columns") -> None:
        """Write ``cols``' entries at positions ``cells``, in order."""
        for cell, value, time_ms in zip(cells, cols.value, cols.time_ms):
            self.value[cell] = value
            self.time_ms[cell] = time_ms
        if cols.seeds is not None:
            for cell, seed in zip(cells, cols.seeds):
                self.seeds[cell] = seed
        for k, e in cols.errors.items():
            self.errors[cells[k]] = e
        for k, w in cols.warnings.items():
            self.warnings[cells[k]] = w

    def doc(self) -> list:
        """``[values, times, errors, warnings, seeds]``: errors as ``[k,
        message, kind]`` and warnings as ``[k, [messages]]``, by position."""
        return [[_value_doc(v) for v in self.value], self.time_ms,
                [[k, e.message, e.kind] for k, e in self.errors.items()],
                [[k, list(w)] for k, w in self.warnings.items()], self.seeds]

    @classmethod
    def from_doc(cls, d: list) -> "Columns":
        values, times, errors, warnings, seeds = d
        return cls(value=_parse_values(values), time_ms=times,
                   errors={k: ErrorInfo(message, kind) for k, message, kind in errors},
                   warnings={k: tuple(w) for k, w in warnings}, seeds=seeds)


def _fields(meta: StoreMeta, cols: Columns, dims) -> dict:
    """The fields, but ``value``, of a store of store-order columns."""
    return {"dims": dims, "meta": meta, "time_ms": np.array(cols.time_ms, dtype=float),
            "errors": dict(sorted(cols.errors.items())),
            "warnings": dict(sorted(cols.warnings.items())), "seeds": cols.seeds}


def assemble(vl: VarList, outcomes: Columns, rep_first: bool, seed_spec: SeedSpec,
             keep_seed: bool, created: str, study: str | None = None) -> ResultStore:
    """Dense store from a run's outcomes, columns in store order, of the study
    named ``study`` (None when it has no name).

    Every successful value must match the inner-dimension signature of the
    variable list (scalar when there are no inner variables); otherwise the
    values are kept, one per cell, in a RawFallback whose diagnostic names
    the first cell that does not match by its sub-job's virtual index.
    """
    n_G, n_sim = mk_grid(vl).n_rows, vl.n_sim
    if len(outcomes.value) != n_G * n_sim:
        raise ValueError(f"expected {n_G * n_sim} records, got {len(outcomes.value)}")
    meta = StoreMeta(varlist=vl, rep_first=rep_first, seed_spec=seed_spec,
                     keep_seed=keep_seed, created=created,
                     fingerprint=study_fingerprint(vl, rep_first, seed_spec, study))
    fields = _fields(meta, outcomes, store_dims(vl))
    inner = _inner_shape(vl)
    missing = np.full(inner, math.nan)
    values = [missing if v is None else v for v in outcomes.value]
    try:
        value = np.array(values, dtype=float)
    except ValueError:  # values of different shapes
        value = None
    if value is None or value.shape[1:] != inner:
        for cell, v in enumerate(values):
            if np.shape(v) != inner:
                virtual = linear_of(cell % n_G, cell // n_G + 1, n_G, n_sim, rep_first)
                return RawFallback(value=list(outcomes.value), **fields, diagnostic=(
                    f"virtual record {virtual}: value shape {np.shape(v)} does not match "
                    f"the inner-dimension signature {inner}"))
    return ResultStore(value=np.moveaxis(value, 0, -1), **fields)


# ---------------------------------------------------------------------------
# persistence

def _store_doc(res: ResultStore) -> dict:
    raw = isinstance(res, RawFallback)
    doc = {
        "format": FORMAT_TAG,
        "kind": "raw" if raw else "store",
        "meta": res.meta.doc(),
        "dims": [[name, list(labels)] for name, labels in res.dims],
        "value": ([_value_doc(v) for v in res.value] if raw else
                  _Encoded(f"[{_fmt_floats(res.value.ravel(order='F'))}]")),
        "time_ms": _Encoded(f"[{_fmt_floats(res.time_ms)}]"),
        "errors": [[cell, e.message, e.kind] for cell, e in sorted(res.errors.items())],
        "warnings": [[cell, list(w)] for cell, w in sorted(res.warnings.items())],
        "seeds": res.seeds,
    }
    if raw:
        doc["diagnostic"] = res.diagnostic
    return doc


def save(res: ResultStore, path: str | os.PathLike) -> None:
    text = canonical_json(_store_doc(res))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    os.replace(tmp, path)


def _from_records(doc: dict, meta: StoreMeta) -> ResultStore:
    """A v1 file or a v2 raw file, assembled from its record documents: one
    per cell, in store order in a v1 store, in virtual order in a raw file."""
    records = [SubJobRecord.from_doc(d) for d in doc["records"]]
    n_G, n_sim = mk_grid(meta.varlist).n_rows, meta.varlist.n_sim
    if len(records) != n_G * n_sim:
        raise ValueError(f"{len(records)} records for {n_G * n_sim} cells")
    if doc["kind"] == "raw":
        records = [records[linear_of(cell % n_G, cell // n_G + 1, n_G, n_sim, meta.rep_first)]
                   for cell in range(len(records))]
    return assemble(meta.varlist, Columns.from_records(records), meta.rep_first,
                    meta.seed_spec, meta.keep_seed, meta.created)


def load(path: str | os.PathLike) -> ResultStore:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: not a result file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") not in (FORMAT_TAG, _V2_TAG, _V1_TAG):
        raise ValueError(f"{path}: not a result file (format tag missing)")
    try:
        meta = StoreMeta.from_doc(doc["meta"])
        raw = doc["kind"] == "raw"
        if doc["format"] == _V1_TAG or raw and doc["format"] == _V2_TAG:
            return _from_records(doc, meta)
        if doc["format"] == _V2_TAG:  # names no study
            meta = replace(meta, fingerprint=study_fingerprint(
                meta.varlist, meta.rep_first, meta.seed_spec, None))
        dims = tuple((name, tuple(labels)) for name, labels in doc["dims"])
        n = math.prod(len(labels) for _, labels in dims)
        # a store's values are read below, as one array
        cols = Columns.from_doc([doc["value"] if raw else [], doc["time_ms"], doc["errors"],
                                 doc["warnings"], doc["seeds"]])
        # the sparse entries only: a check per cell would cost as much as the load
        if not all(type(cell) is int and 0 <= cell < n for cell in [*cols.errors, *cols.warnings]):
            raise ValueError(f"an error or warning cell outside [0, {n})")
        seeds = cols.time_ms if cols.seeds is None else cols.seeds
        if {len(cols.time_ms), len(seeds), len(cols.value) if raw else n} != {n}:
            raise ValueError(f"a time, value or seed column not of {n} cells")
        if raw and any((v is None) != (c in cols.errors) for c, v in enumerate(cols.value)):
            raise ValueError("a raw value null at a cell without an error, or set at one with")
        if raw:
            return RawFallback(value=cols.value, diagnostic=doc["diagnostic"],
                               **_fields(meta, cols, dims))
        value = np.array(doc["value"], dtype=float)
        return ResultStore(value=value.reshape(_inner_shape(meta.varlist) + (n,), order="F"),
                           **_fields(meta, cols, dims))
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed result file ({exc!r})") from exc


def maybe_read(path: str | os.PathLike,
               expected_fingerprint: str | None = None) -> ResultStore | None:
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
    return replace(res, from_cache=True)


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


def _record_difference(ra: SubJobRecord, rb: SubJobRecord) -> str | None:
    if ra.error != rb.error:
        return f"error differs: {ra.error!r} vs {rb.error!r}"
    if not _values_equal(ra.value, rb.value):
        return f"value differs: {ra.value!r} vs {rb.value!r}"
    if ra.warnings != rb.warnings:
        return f"warnings differ: {ra.warnings!r} vs {rb.warnings!r}"
    if ra.seed != rb.seed:
        return "seed differs"
    return None


def do_res_equal(a: ResultStore, b: ResultStore) -> ResComparison:
    """Compare two results: kind, dims, values (exact), errors, warnings, seeds.

    Timing fields and creation stamps are ignored.  The report names the first
    differing cell by its labels.
    """
    if type(a) is not type(b):
        return ResComparison(f"kind differs: {type(a).__name__} vs {type(b).__name__}")
    if a.dims != b.dims:
        return ResComparison(f"dims differ: {a.dims} vs {b.dims}")
    if a.meta.fingerprint != b.meta.fingerprint:
        return ResComparison(
            f"fingerprint differs: {a.meta.fingerprint} vs {b.meta.fingerprint}")
    if a.n_subjobs != b.n_subjobs:
        return ResComparison(f"record count differs: {a.n_subjobs} vs {b.n_subjobs}")

    if (not isinstance(a, RawFallback) and a.errors == b.errors and a.warnings == b.warnings
            and a.seeds == b.seeds and np.array_equal(a.value, b.value, equal_nan=True)):
        return ResComparison(None)
    for i, (ra, rb) in enumerate(zip(a.records, b.records)):
        difference = _record_difference(ra, rb)
        if difference is not None:
            where = ", ".join(f"{name}={lab}"
                              for (name, _), lab in zip(a.dims, a.cell_labels(i)))
            return ResComparison(f"cell ({where}): {difference}")
    return ResComparison(None)
