"""Turning result stores into labeled arrays, flat tables, LaTeX and CSV.

A :class:`LabeledArray` is a dense array with named, labeled dimensions; flat
ordering conventions are odometer with the FIRST dimension varying fastest
(matching the result store).  :func:`ftable` lays such an array out in two
dimensions: rows iterate the chosen row variables with the LAST one varying
fastest, columns likewise; repeated row labels are suppressed (shown only on
change, outer to inner).  The LaTeX emitter renders publication tables in the
booktabs idiom; cell content is taken verbatim (formatting values into strings
is the caller's job).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .results import RawFallback, ResultStore
from .varlist import VarList

__all__ = ["LabeledArray", "get_array", "array2df", "LongTable", "ftable",
           "FlatTable", "to_latex_table", "varlist_to_latex", "to_csv",
           "latex_escape", "collapse", "finite_groups"]


@dataclass
class LabeledArray:
    """Dense array with named, labeled dims.  data.shape matches the dims."""

    dims: tuple[tuple[str, tuple[str, ...]], ...]
    data: np.ndarray

    def __post_init__(self):
        shape = tuple(len(labels) for _, labels in self.dims)
        if tuple(self.data.shape) != shape:
            raise ValueError(f"data shape {self.data.shape} does not match dims {shape}")

    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dims)

    def axis(self, name: str) -> int:
        try:
            return self.dim_names.index(name)
        except ValueError:
            raise KeyError(f"no dimension {name!r}; have {self.dim_names}") from None

    def labels(self, name: str) -> tuple[str, ...]:
        return self.dims[self.axis(name)][1]

    def slice(self, name: str, label: str) -> "LabeledArray":
        """Fix one dimension at a labeled level and drop it."""
        ax = self.axis(name)
        labels = self.dims[ax][1]
        try:
            k = labels.index(label)
        except ValueError:
            raise KeyError(f"{name!r} has no level {label!r}; have {labels}") from None
        # the trailing Ellipsis makes a 1-d array's slice 0-d, not a scalar
        data = self.data[(slice(None),) * ax + (k, ...)].copy()
        dims = self.dims[:ax] + self.dims[ax + 1:]
        return LabeledArray(dims=dims, data=data)


def collapse(arr: LabeledArray, name: str, fn) -> LabeledArray:
    """Collapse one dimension with one call ``fn(matrix, axis=-1)``: each row
    of ``matrix`` holds one cell's values along ``name``, and ``fn`` returns
    one value per row, as ``np.mean`` or ``var_copula.huber_mean`` do.
    String results produce an object array (no numpy string truncation)."""
    ax = arr.axis(name)
    moved = np.moveaxis(arr.data, ax, -1)
    data = np.asarray(fn(np.ascontiguousarray(moved.reshape(-1, moved.shape[-1])), axis=-1))
    if data.dtype.kind == "U":
        data = data.astype(object)
    dims = arr.dims[:ax] + arr.dims[ax + 1:]
    return LabeledArray(dims=dims, data=data.reshape(moved.shape[:-1]))


def finite_groups(matrix: np.ndarray):
    """Yields ``(rows, values)`` per count of finite values in a row of a 2-D
    array: ``values`` holds those rows' finite values, in order, as a
    (len(rows), count) array.  Rows with no finite value are left out."""
    finite = np.isfinite(matrix)
    counts = finite.sum(axis=1)
    for n in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == n)
        yield rows, matrix[rows][finite[rows]].reshape(rows.size, n)


COMPONENTS = ("value", "error", "warning", "time")  # what get_array extracts


def get_array(store: ResultStore, component: str = "value", map_fn=None,
              err_value: float = math.nan) -> LabeledArray:
    """Extract a component of a result store as a labeled array.

    * ``value``:   inner dims ++ store dims; cells of errored sub-jobs are
                   filled with ``err_value``.
    * ``error``:   store dims, default boolean indicator, ``map_fn(record)``
                   overrides the cell function.
    * ``warning``: store dims, default indicator of >= 1 warning.
    * ``time``:    store dims, wall milliseconds.
    """
    if isinstance(store, RawFallback):
        raise TypeError("raw fallback results have no dense arrays; "
                        f"diagnostic: {store.diagnostic}")
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    # store cells are in odometer order (first dimension fastest), which is
    # Fortran order over the store dims
    if component == "value":
        inner = [(s.name, s.level_labels()) for s in store.meta.varlist.specs
                 if s.vtype == "inner"]
        data = store.value.copy()
        data[..., store.error_mask()] = float(err_value)
        return LabeledArray(dims=tuple(inner) + store.dims,
                            data=data.reshape(data.shape[:-1] + store.sizes, order="F"))

    if map_fn is not None:
        cells = [map_fn(rec) for rec in store.records]
        data = np.asarray(cells, dtype=np.asarray(cells[0]).dtype if cells else float)
    elif component == "error":
        data = store.error_mask()
    elif component == "warning":
        data = store.warning_counts() > 0
    else:
        data = store.time_ms.copy()
    return LabeledArray(dims=store.dims, data=data.reshape(store.sizes, order="F"))


@dataclass
class LongTable:
    """Long-format table: one row per cell, one column per dim plus the value."""

    columns: tuple[str, ...]
    rows: list[tuple]


def array2df(arr: LabeledArray, value_name: str = "value") -> LongTable:
    """Long-format view of a labeled array, first dim varying fastest down rows."""
    # Fortran order runs the first dim fastest; so does the product over the
    # reversed labels once each combination is turned back round
    combos = itertools.product(*(labels for _, labels in reversed(arr.dims)))
    rows = [combo[::-1] + (cell,)
            for combo, cell in zip(combos, arr.data.ravel(order="F").tolist())]
    return LongTable(columns=arr.dim_names + (value_name,), rows=rows)


# ---------------------------------------------------------------------------
# flat tables

@dataclass
class FlatTable:
    """2-D layout of an array: header rows, body (row-label columns first,
    suppressed repeats), group spans for rules, and row-group breaks
    (body row index after which a separator of the given tier belongs)."""

    row_vars: tuple[str, ...]
    col_vars: tuple[str, ...]
    header_rows: list[list[str]]
    body: list[list[str]]
    spans: list[tuple[int, int, int]]          # (header row, start col, end col), 0-based
    row_group_breaks: list[tuple[int, int]]    # (after body row, tier >= 1)
    n_row_label_cols: int = field(init=False)

    def __post_init__(self):
        self.n_row_label_cols = len(self.row_vars)


def _cell_str(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "TRUE" if v else "FALSE"
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "NaN"
        if math.isinf(f):
            return "Inf" if f > 0 else "-Inf"
        if f == int(f) and abs(f) < 1e15:
            return str(int(f))
        return repr(f)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def ftable(arr: LabeledArray, row_vars, col_vars) -> FlatTable:
    """Flatten an array to rows x columns.

    ``row_vars`` and ``col_vars`` must be disjoint and together name every
    dimension.  Rows iterate ``row_vars`` with the last one varying fastest;
    columns likewise.
    """
    row_vars, col_vars = tuple(row_vars), tuple(col_vars)
    names = arr.dim_names
    if set(row_vars) & set(col_vars):
        raise ValueError("row and column variables overlap")
    if len(row_vars) + len(col_vars) != len(set(row_vars) | set(col_vars)):
        raise ValueError("duplicate variable")
    if (set(row_vars) | set(col_vars)) != set(names):
        raise ValueError(f"row_vars + col_vars must name every dim {names}")
    if not row_vars or not col_vars:
        raise ValueError("need at least one row variable and one column variable")

    row_axes = [arr.axis(v) for v in row_vars]
    col_axes = [arr.axis(v) for v in col_vars]
    row_labels = [arr.dims[a][1] for a in row_axes]
    col_sizes = [len(arr.dims[a][1]) for a in col_axes]
    n_cols = math.prod(col_sizes)
    nrv = len(row_vars)

    # with the row axes, then the column axes, moved to the front, C order is
    # the layout order: the last row variable fastest down, the last column
    # variable fastest across
    cells = np.transpose(arr.data, row_axes + col_axes).reshape(-1, n_cols)

    # body: row labels with suppression, then data cells
    body: list[list[str]] = []
    breaks: list[tuple[int, int]] = []
    levels = itertools.product(*(range(len(labels)) for labels in row_labels))
    prev: tuple[int, ...] = ()
    for i, (level, row) in enumerate(zip(levels, cells)):
        # the outermost changed level; labels show from there inwards
        k = 0 if i == 0 else next(j for j in range(nrv) if level[j] != prev[j])
        if i and k < nrv - 1:  # innermost changes draw no separator
            breaks.append((i - 1, k + 1))
        body.append([""] * k + [row_labels[j][level[j]] for j in range(k, nrv)]
                    + [_cell_str(v) for v in row.tolist()])
        prev = level

    # headers: one row per column variable; group labels sit at span starts
    width = nrv + n_cols
    header_rows: list[list[str]] = []
    spans: list[tuple[int, int, int]] = []
    n_cv = len(col_vars)
    for c in range(n_cv):
        row = [""] * width
        row[nrv - 1] = col_vars[c]
        deeper = math.prod(col_sizes[c + 1:])
        shallower = math.prod(col_sizes[:c])
        labels_c = arr.dims[col_axes[c]][1]
        for r0 in range(shallower):
            for li, lab in enumerate(labels_c):
                start = nrv + (r0 * len(labels_c) + li) * deeper
                end = start + deeper - 1
                row[start] = lab
                if c < n_cv - 1:
                    spans.append((c, start, end))
        header_rows.append(row)

    return FlatTable(row_vars=row_vars, col_vars=col_vars, header_rows=header_rows,
                     body=body, spans=spans, row_group_breaks=breaks)


# ---------------------------------------------------------------------------
# LaTeX

_LATEX_SPECIALS = {
    "\\": r"\textbackslash{}", "&": r"\&", "%": r"\%", "$": r"\$", "#": r"\#",
    "_": r"\_", "{": r"\{", "}": r"\}", "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
}


def latex_escape(text: str) -> str:
    return "".join(_LATEX_SPECIALS.get(ch, ch) for ch in str(text))


def _latex_label(label: str) -> str:
    """Labels wrapped in $...$ render in math mode, others escaped verbatim."""
    if len(label) >= 2 and label.startswith("$") and label.endswith("$"):
        return f"\\( {label[1:-1]} \\)"
    return latex_escape(label)


def _break_space(tier: int) -> str:
    # 6pt for the outermost group, 6/k pt for tier k
    pt = 6.0 / tier
    return f"{pt:g}pt"


def _latex_table(colspec: str, head: list[str], body: list[str], caption: str | None,
                 tag: str | None, fontsize: str | None = None) -> str:
    """A booktabs ``table`` environment around the head and body lines."""
    lines = ["\\begin{table}[htbp]", "  \\centering" + (f"\\{fontsize}" if fontsize else ""),
             f"  \\begin{{tabular}}{{{colspec}}}", "    \\toprule"]
    lines += ["    " + line for line in head]
    lines.append("    \\midrule")
    lines += ["    " + line for line in body]
    lines += ["    \\bottomrule", "  \\end{tabular}"]
    if caption:
        lines.append(f"  \\caption{{{caption}}}")
    if tag:
        lines.append(f"  \\label{{{tag}}}")
    lines.append("\\end{table}")
    return "\n".join(lines) + "\n"


def to_latex_table(ft: FlatTable, labels: dict | None = None, caption: str | None = None,
                   tag: str | None = None, fontsize: str | None = None) -> str:
    """Booktabs LaTeX rendering of a flat table.

    ``labels`` maps variable names to display labels ($...$ for math).  Row
    label columns are left aligned, data columns right aligned; column-variable
    groups get cmidrules; row groups are separated by addlinespace with wider
    space for outer groups.  Cells are inserted verbatim (escaped).
    """
    labels = labels or {}

    def var_label(name: str) -> str:
        return _latex_label(labels.get(name, name))

    nrv = ft.n_row_label_cols
    n_data = len(ft.body[0]) - nrv if ft.body else len(ft.header_rows[0]) - nrv
    n_cv = len(ft.col_vars)

    head = []
    for c in range(n_cv - 1):
        cells = [""] * (nrv - 1) + [var_label(ft.col_vars[c])]
        row_spans = [s for s in ft.spans if s[0] == c]
        for _, start, end in row_spans:
            lab = latex_escape(ft.header_rows[c][start])
            cells.append(f"\\multicolumn{{{end - start + 1}}}{{c}}{{{lab}}}")
        head.append(" & ".join(cells) + " \\\\")
        head.append(" ".join(f"\\cmidrule(lr){{{start + 1}-{end + 1}}}"
                             for _, start, end in row_spans))

    last = n_cv - 1
    cells = [var_label(v) for v in ft.row_vars[:-1]]
    cells.append(var_label(ft.row_vars[-1]) + " \\textbar\\ " + var_label(ft.col_vars[last]))
    for j in range(n_data):
        lab = latex_escape(ft.header_rows[last][nrv + j])
        cells.append(f"\\multicolumn{{1}}{{c}}{{{lab}}}")
    head.append(" & ".join(cells) + " \\\\")

    breaks = {after: tier for after, tier in ft.row_group_breaks}
    body = []
    for i, row in enumerate(ft.body):
        text = " & ".join(latex_escape(c) for c in row) + " \\\\"
        if i in breaks:
            text += f" \\addlinespace[{_break_space(breaks[i])}]"
        body.append(text)
    return _latex_table(f"*{{{nrv}}}{{l}}*{{{n_data}}}{{r}}", head, body,
                        caption, tag, fontsize)


def varlist_to_latex(vl: VarList, caption: str | None = None, tag: str | None = None) -> str:
    """Summary table of a variable list: name, display label, role, value(s)."""
    head = ["\\multicolumn{1}{c}{Variable} & \\multicolumn{1}{c}{expression} & "
            "\\multicolumn{1}{c}{type} & \\multicolumn{1}{c}{value} \\\\"]
    body = [f"\\texttt{{{latex_escape(s.name)}}} & {_latex_label(s.label)} & {s.vtype} & "
            f"{latex_escape(s.value_display())} \\\\" for s in vl.specs]
    return _latex_table("l*{2}{c}r", head, body, caption, tag)


# ---------------------------------------------------------------------------
# CSV

def to_csv(obj: FlatTable | LongTable) -> str:
    """RFC 4180 rendering of a flat or long table."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    if isinstance(obj, LongTable):
        writer.writerow(obj.columns)
        for row in obj.rows:
            writer.writerow(["" if v is None else _cell_str(v) for v in row])
        return buf.getvalue()

    nrv = obj.n_row_label_cols
    for c, hdr in enumerate(obj.header_rows):
        writer.writerow(hdr)
    writer.writerow(list(obj.row_vars) + [""] * (len(obj.body[0]) - nrv if obj.body else 0))
    for row in obj.body:
        writer.writerow(row)
    return buf.getvalue()
