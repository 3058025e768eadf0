"""Result records, columnar result stores, persistence and comparison.

One sub-job yields exactly one of a value or an error, an ordered list of
captured warnings, the wall time in milliseconds, and optionally the
serialized stream state the sub-job started from.  A run gathers these as
:class:`Columns` in store order, one put per task, and assembles them into a
:class:`ResultStore`: columns over the store cells, the grid dimensions plus
the replication dimension in odometer order (first dimension fastest,
replication last).  ``value`` holds the inner dimensions first and NaN where a
sub-job errored; ``time_ms`` is a float column; errors, warnings are kept
sparsely by cell; seeds only when a sub-job kept one.  A
:class:`SubJobRecord` is a view of one sub-job, built on demand.  When the
study's return shapes are inconsistent the store is a :class:`RawFallback`,
whose ``value`` lists each cell's value instead, so results are never lost.

Persistence is a single self-describing file tagged ``mcgrid-result-v4``: a
worker's result frame of all the store's cells.  Its header, one line of
canonical JSON text (JSON family), holds ``format``, ``meta``, ``dims``, a raw
fallback's ``diagnostic``, then the fields a file and a frame share:
``shapes``, each sub-job's value shape (null where it errored, ``[]`` for a
scalar), unless every non-null value has the declaration's inner shape (the
nulls then follow from the errors); ``time_ms``, one number per cell;
``errors``, ``[cell, message, kind]`` per errored cell; ``warnings``,
``[cell, [messages]]`` per cell that warned; and ``seeds``, one hex string or
null per cell, or null when no sub-job kept its seed; cells count from the
first.  After a newline, the tail holds the non-null values' elements as
little-endian float64, value after value, each in C order.  Text doubles
have 17 significant digits (exact round-trip) and are always JSON fractions:
a whole number keeps a ``.0`` (``1.0``, ``-0.0``, ``1e+20`` stays as is), so
it reads back as a double with its sign; NaN and infinities are the tagged
strings "NaN", "Inf", "-Inf", which ``float`` reads back; an int (a subclass
too) is its digits.  File bytes are a pure function of the logical content.
One encoder, ``frame_parts``, writes files and frames, and one reader,
``frame_columns``, checks them: columns of one entry per sub-job, error and
warning indices strictly increasing ints inside them, errors exactly at the
null shapes, which fill the tail exactly.  A ``mcgrid-result-v3`` file (all
text, ``value`` a JSON column) still loads; a ``mcgrid-result-v1`` or ``-v2``
one is refused in one line naming its tag (commit d3eef42 loads it).

The study fingerprint is the first 8 bytes (16 hex characters) of SHA-256 over
the canonical JSON of {"varlist": ..., "n_sim": ..., "rep_first": ...,
"seed": ..., "study": ...}, "study" being ``registry.study_name`` of the study
function or null, then ``"lossy": true`` if ``VarList.lossy`` names a
variable, so no faithful declaration shares a lossy one's fingerprint;
independent implementations following this note will agree.
"""

from __future__ import annotations

import collections
import contextlib
import json
import math
import os
from dataclasses import dataclass, field, replace
# the text of json.dumps(s, ensure_ascii=False), without building an encoder per call
from json.encoder import encode_basestring

import numpy as np

from .seeding import SeedSpec
from .varlist import VarList, linear_of, mk_grid, unravel

FORMAT_TAG = "mcgrid-result-v4"
_V3 = "mcgrid-result-v3"  # values as text; read, no longer written
_RETIRED = ("mcgrid-result-v1", "mcgrid-result-v2")  # read up to commit d3eef42


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
    elif isinstance(obj, int):  # its digits, whatever a subclass's str() says
        out.append(int.__repr__(obj))
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
        err, value = d.get("error"), d.get("value")
        if value is not None:  # a number or nested lists of them, tags too
            value = np.asarray(value, dtype=float)
            value = float(value) if value.ndim == 0 else value
        return cls(
            value=value,
            error=None if err is None else ErrorInfo(err["message"], err["kind"]),
            warnings=tuple(d.get("warnings", ())),
            time_ms=float(d.get("time_ms", 0.0)),
            seed=d.get("seed"),
        )


def _cell_record(cols, k: int) -> SubJobRecord:
    """Sub-job ``k``'s record in ``cols``, a store or :class:`Columns`, from a
    dense ``value`` (inner dimensions first) or a list of each sub-job's."""
    error, value = cols.errors.get(k), None
    if error is None and type(cols.value) is list:
        value = cols.value[k]
    elif error is None:
        value = cols.value[..., k]
        value = float(value) if value.ndim == 0 else value.copy()
    return SubJobRecord(value=value, error=error, warnings=cols.warnings.get(k, ()),
                        time_ms=float(cols.time_ms[k]),
                        seed=None if cols.seeds is None else cols.seeds[k])


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
        return self.n_subjobs // self.meta.varlist.n_sim

    def record(self, row: int, rep: int) -> SubJobRecord:
        """Record of grid row ``row`` (0-based) and replication ``rep`` (1-based)."""
        # store cells are in row-first order, whatever the run's virtual order
        return _cell_record(self, linear_of(row, rep, self.n_grid_rows, self.meta.varlist.n_sim,
                                            False))

    @property
    def records(self) -> list[SubJobRecord]:
        """Every cell's record in store order, built on each access."""
        return [_cell_record(self, i) for i in range(self.n_subjobs)]

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


def study_fingerprint(vl: VarList, rep_first: bool, seed_spec: SeedSpec, study: str | None) -> str:
    """The fingerprint of a declaration run by the study named ``study``."""
    return _fingerprint(vl, rep_first, seed_spec, study, bool(vl.lossy()))


def _fingerprint(vl, rep_first, seed_spec, study, lossy: bool) -> str:
    """``study_fingerprint``, told whether ``VarList.lossy`` names a variable."""
    import hashlib  # here: a process worker never fingerprints
    doc = {
        "varlist": vl.canonical(),
        "n_sim": vl.n_sim,
        "rep_first": bool(rep_first),
        "seed": seed_spec.canonical(),
        "study": study,
        **({"lossy": True} if lossy else {}),
    }
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    return digest[:16]


def store_dims(vl: VarList) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Grid dims in declaration order, plus the replication dim when n_sim > 1."""
    dims = [(s.name, s.level_labels()) for s in vl.specs if s.vtype == "grid"]
    if vl.n_sim > 1:
        dims.append((vl.n_sim_name, tuple(str(i) for i in range(1, vl.n_sim + 1))))
    return tuple(dims)


def _inner_shape(vl: VarList) -> tuple[int, ...]:
    return tuple(len(s.values) for s in vl.specs if s.vtype == "inner")


@dataclass
class Columns:
    """Outcomes of sub-jobs as columns, one entry per sub-job: ``value``,
    ``time_ms``, errors and warnings kept sparsely by position, and ``seeds``
    (None when no sub-job kept its seed).  ``value`` is one float64 array,
    inner dimensions first and sub-job last, NaN where a sub-job errored, or
    a list of each sub-job's value, None where it errored.  A task's columns
    run in task order, a run's in store order."""

    value: np.ndarray | list
    time_ms: np.ndarray | list
    errors: dict[int, ErrorInfo]
    warnings: dict[int, tuple[str, ...]]
    seeds: np.ndarray | list[str | None] | None

    @classmethod
    def from_records(cls, records: list[SubJobRecord]) -> "Columns":
        seeds = [r.seed for r in records]
        return cls(value=[None if r.error is not None else r.value for r in records],
                   time_ms=[r.time_ms for r in records],
                   errors={k: r.error for k, r in enumerate(records) if r.error is not None},
                   warnings={k: tuple(r.warnings) for k, r in enumerate(records) if r.warnings},
                   seeds=None if seeds.count(None) == len(seeds) else seeds)

    record = _cell_record

    def put(self, cells: np.ndarray, cols: "Columns") -> None:
        """Write ``cols``' entries at positions ``cells`` of dense columns,
        ``seeds`` an object array: values with one indexed assignment while
        each has the inner shape; from the first that does not, ``value`` is
        the list of each position's value that a raw fallback keeps."""
        if type(self.value) is not list:
            inner = self.value.shape[:-1]
            value = _stacked(cols.value, inner) if type(cols.value) is list else cols.value
            if value is not None and value.shape[:-1] == inner:
                self.value[..., cells] = value
            else:  # the first value of another shape
                self.value = _each(self.value, self.errors)
        if type(self.value) is list:
            for cell, v in zip(cells.tolist(), _each(cols.value, cols.errors)):
                self.value[cell] = v
        self.time_ms[cells] = cols.time_ms
        if cols.seeds is not None:
            self.seeds[cells] = cols.seeds
        for k, e in cols.errors.items():
            self.errors[int(cells[k])] = e
        for k, w in cols.warnings.items():
            self.warnings[int(cells[k])] = w


def _stacked(values: list, inner: tuple[int, ...]) -> np.ndarray | None:
    """``values`` as one float64 array, inner dimensions first and sub-job
    last, NaN where a value is None; None unless each other value has the
    inner shape."""
    missing = np.full(inner, math.nan)
    try:
        value = np.array([missing if v is None else v for v in values], dtype=float)
    except ValueError:  # values of different shapes
        return None
    return np.moveaxis(value, 0, -1) if value.shape[1:] == inner else None


def _each(value: np.ndarray | list, errors: dict) -> list:
    """Each sub-job's value of a ``value`` column: as it is when a list, else
    a float or a writable array of the inner shape, None where it errored."""
    if type(value) is list:
        return value
    rows = np.moveaxis(value, -1, 0).copy()
    each = rows.tolist() if rows.ndim == 1 else list(rows)
    for k in errors:
        each[k] = None
    return each


def _fields(meta: StoreMeta, cols: Columns, dims) -> dict:
    """The fields, but ``value``, of a store of store-order columns."""
    return {"dims": dims, "meta": meta, "time_ms": np.asarray(cols.time_ms, dtype=float),
            "errors": dict(sorted(cols.errors.items())),
            "warnings": dict(sorted(cols.warnings.items())),
            "seeds": None if cols.seeds is None else list(cols.seeds)}


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
    if len(outcomes.time_ms) != n_G * n_sim:
        raise ValueError(f"expected {n_G * n_sim} records, got {len(outcomes.time_ms)}")
    meta = StoreMeta(varlist=vl, rep_first=rep_first, seed_spec=seed_spec,
                     keep_seed=keep_seed, created=created,
                     fingerprint=study_fingerprint(vl, rep_first, seed_spec, study))
    fields = _fields(meta, outcomes, store_dims(vl))
    inner = _inner_shape(vl)
    value = outcomes.value
    if type(value) is list:
        value = _stacked(value, inner)
    if value is not None:
        return ResultStore(value=value, **fields)
    for cell, v in enumerate(outcomes.value):
        if v is not None and np.shape(v) != inner:
            virtual = linear_of(cell % n_G, cell // n_G + 1, n_G, n_sim, rep_first)
            return RawFallback(value=list(outcomes.value), **fields, diagnostic=(
                f"virtual record {virtual}: value shape {np.shape(v)} does not match "
                f"the inner-dimension signature {inner}"))


# ---------------------------------------------------------------------------
# the binary form of columns: store files and result frames

def _columns(doc: dict, n: int) -> Columns:
    """:class:`Columns` of ``n`` sub-jobs, ``value`` None, from a document's
    shared fields.  Raises ValueError unless the time and seed columns hold
    ``n`` entries, and error and warning indices are ints strictly
    increasing in ``[0, n)``."""
    time_ms, seeds = np.asarray(doc["time_ms"], dtype=float), doc["seeds"]
    errors = [(k, ErrorInfo(message, kind)) for k, message, kind in doc["errors"]]
    warnings = [(k, tuple(messages)) for k, messages in doc["warnings"]]
    if time_ms.shape != (n,) or seeds is not None and (type(seeds) is not list or len(seeds) != n):
        raise ValueError(f"a time, value or seed column not of {n} entries")
    for ks in ([k for k, _ in errors], [k for k, _ in warnings]):
        if not all(type(k) is int for k in ks) or \
                not all(i < j for i, j in zip([-1, *ks], [*ks, n])):
            raise ValueError(f"error or warning indices not increasing ints in [0, {n})")
    return Columns(None, time_ms, dict(errors), dict(warnings), seeds)


def frame_parts(cols, a: int, b: int, inner: tuple[int, ...]) -> tuple[dict, list]:
    """The fields of a result frame of sub-jobs ``[a, b)`` of ``cols`` (a
    store or :class:`Columns`), with ``shapes`` only where some value's shape
    is not ``inner``, and its tail, a list of float64 arrays."""
    doc = {
        "time_ms": _Encoded(f"[{_fmt_floats(np.asarray(cols.time_ms[a:b], dtype=float))}]"),
        "errors": [[k - a, e.message, e.kind] for k, e in sorted(cols.errors.items())
                   if a <= k < b],
        "warnings": [[k - a, list(w)] for k, w in sorted(cols.warnings.items()) if a <= k < b],
        "seeds": None if cols.seeds is None else list(cols.seeds[a:b]),
    }
    if type(cols.value) is not list:  # every value has the inner shape
        rows = np.moveaxis(cols.value[..., a:b], -1, 0)
        if doc["errors"]:
            rows = np.delete(rows, [k for k, *_ in doc["errors"]], axis=0)
        return doc, [np.ascontiguousarray(rows, dtype="<f8")]
    values = cols.value[a:b]
    shapes = [None if v is None else () if type(v) is float else np.shape(v) for v in values]
    values = [v for v in values if v is not None]
    # floats as one array, arrays as their own bytes, never a copy of them all
    tail = [np.array(values, dtype="<f8")] if not any(shapes) else \
        [np.ascontiguousarray(v, dtype="<f8").ravel() for v in values]
    if any(shape is not None and shape != inner for shape in shapes):
        doc = {"shapes": shapes, **doc}
    return doc, tail


def frame_columns(frame: dict, n: int, inner: tuple[int, ...]) -> Columns:
    """The columns of a result frame of ``n`` sub-jobs, its tail under
    ``"tail"``, checked as a whole.  Its values are the float64 tail at the
    non-null shapes (without ``shapes``, ``inner`` but at the errors): when
    each is ``inner``, one array, sub-job last, NaN where a shape is null (a
    view of the tail where none is); else a list of each, None where null, a
    float for the shape [] and an array otherwise.  Raises ValueError,
    KeyError or TypeError."""
    cols, shapes, tail = _columns(frame, n), frame.get("shapes"), frame["tail"]
    nulls = list(cols.errors)
    if shapes is not None and (type(shapes) is not list or len(shapes) != n):
        raise ValueError(f"a time, value or seed column not of {n} entries")
    if shapes is not None and nulls != [k for k, shape in enumerate(shapes) if shape is None]:
        raise ValueError("errors not exactly at the null values")
    try:
        kinds = {inner: n - len(nulls)} if shapes is None else \
            collections.Counter(tuple(shape) for shape in shapes if shape is not None)
        fits = all(type(d) is int and d >= 0 for kind in kinds for d in kind) and \
            len(tail) == 8 * sum(math.prod(kind) * count for kind, count in kinds.items())
    except TypeError:  # a shape that is not a list of numbers
        fits = False
    if not fits:
        raise ValueError("values that do not fill their shapes")
    flat = np.frombuffer(tail, dtype="<f8")
    if set(kinds) <= {inner}:
        value = flat.reshape(n - len(nulls), *inner)
        if nulls:  # NaN where a sub-job errored
            value, ok = np.full((n, *inner), math.nan), value
            value[np.isin(np.arange(n), nulls, invert=True)] = ok
        cols.value = np.moveaxis(value, 0, -1)
        return cols
    # a value of another shape: each a float, or a view of a writable copy
    sizes = [0 if shape is None else math.prod(shape) for shape in shapes]
    flat, ends = flat.astype(float), np.cumsum(sizes).tolist()
    cols.value = [shape if shape is None else flat[end - size:end].reshape(shape) if shape
                  else float(flat[end - 1]) for shape, size, end in zip(shapes, sizes, ends)]
    return cols


# ---------------------------------------------------------------------------
# persistence

def save(res: ResultStore, path: str | os.PathLike) -> None:
    """Write ``res`` to ``path`` through ``<path>.tmp``, which a write that
    raises or is interrupted removes."""
    doc, tail = frame_parts(res, 0, res.n_subjobs, _inner_shape(res.meta.varlist))
    head = {"format": FORMAT_TAG, "meta": res.meta.doc(),
            "dims": [[name, list(labels)] for name, labels in res.dims],
            **({"diagnostic": res.diagnostic} if isinstance(res, RawFallback) else {}), **doc}
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in (canonical_json(head).encode("utf-8"), b"\n", *tail):
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load(path: str | os.PathLike) -> ResultStore:
    with open(path, "rb") as fh:
        # canonical text has no newline byte, so a v3 file is all header
        head, newline, tail = fh.read().partition(b"\n")
    try:
        doc = json.loads(head.decode("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a result file ({exc})") from exc
    tag = doc.get("format") if isinstance(doc, dict) else None
    if tag in _RETIRED:
        raise ValueError(f"{path}: {tag} files are no longer read; mcgrid at commit d3eef42 "
                         f"loads one and saves it again as {_V3}")
    if tag not in (FORMAT_TAG, _V3) and (isinstance(doc, dict) or not tail):
        raise ValueError(f"{path}: not a result file (format tag missing)")
    try:
        meta = StoreMeta.from_doc(doc["meta"])
        dims = tuple((name, tuple(labels)) for name, labels in doc["dims"])
        if dims != store_dims(meta.varlist):
            raise ValueError("dims are not those of the declaration")
        n, inner = math.prod(len(labels) for _, labels in dims), _inner_shape(meta.varlist)
        if tag == FORMAT_TAG and newline:
            cols = frame_columns(dict(doc, tail=tail), n, inner)
        elif tag == FORMAT_TAG or tail:
            raise ValueError("a v4 header without its newline, or a v3 one with a tail")
        elif doc["kind"] == "raw":  # v3: values as text, read as a frame's shapes and tail
            values = [None if v is None else np.asarray(v, dtype="<f8") for v in doc["value"]]
            cols = frame_columns(dict(doc, shapes=[v if v is None else v.shape for v in values],
                                      tail=b"".join(v.tobytes() for v in values if v is not None)),
                                 n, inner)
        else:
            cols = _columns(doc, n)
            cols.value = np.array(doc["value"], dtype=float).reshape(inner + (n,), order="F")
        if type(cols.value) is list:
            return RawFallback(value=cols.value, diagnostic=doc["diagnostic"],
                               **_fields(meta, cols, dims))
        if "diagnostic" in doc:
            raise ValueError("a diagnostic with values that stack")
        # a view of the file's bytes is read-only: a loaded store owns its values
        value = cols.value if cols.value.flags.writeable else np.array(cols.value)
        return ResultStore(value=value, **_fields(meta, cols, dims))
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
