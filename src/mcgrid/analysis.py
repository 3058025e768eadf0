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
import math
from dataclasses import dataclass, field

import numpy as np

from .results import RawFallback, ResultStore
from .varlist import VarList, unravel

__all__ = ["LabeledArray", "get_array", "array2df", "LongTable", "ftable",
           "FlatTable", "to_latex_table", "varlist_to_latex", "to_csv",
           "latex_escape", "collapse"]


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
        data = np.take(self.data, k, axis=ax)
        if not isinstance(data, np.ndarray):  # np.take collapsed to a scalar
            boxed = np.empty((), dtype=self.data.dtype)
            boxed[()] = data
            data = boxed
        dims = self.dims[:ax] + self.dims[ax + 1:]
        return LabeledArray(dims=dims, data=data)


def collapse(arr: LabeledArray, name: str, fn) -> LabeledArray:
    """Collapse one dimension by applying ``fn`` along it (cell-wise).

    String-valued ``fn`` results produce an object array (no numpy string
    truncation)."""
    ax = arr.axis(name)
    moved = np.moveaxis(arr.data, ax, -1)
    lead_shape = moved.shape[:-1]
    flat = moved.reshape(-1, moved.shape[-1])
    out = [fn(flat[i]) for i in range(flat.shape[0])]
    if out and isinstance(out[0], str):
        data = np.empty(len(out), dtype=object)
        data[:] = out
    else:
        data = np.asarray(out)
    dims = arr.dims[:ax] + arr.dims[ax + 1:]
    return LabeledArray(dims=dims, data=data.reshape(lead_shape))


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
    vl = store.meta.varlist
    store_sizes = tuple(len(labels) for _, labels in store.dims)

    # records are in odometer order (first dimension fastest), which is
    # Fortran order over the store dims
    if component == "value":
        inner = [(s.name, s.level_labels()) for s in vl.specs if s.vtype == "inner"]
        inner_shape = tuple(len(lab) for _, lab in inner)
        data = np.full(inner_shape + (len(store.records),), float(err_value), dtype=float)
        for i, rec in enumerate(store.records):
            if rec.value is not None:
                data[..., i] = rec.value
        return LabeledArray(dims=tuple(inner) + store.dims,
                            data=data.reshape(inner_shape + store_sizes, order="F"))

    if component == "error":
        cell = map_fn if map_fn is not None else (lambda r: r.error is not None)
    elif component == "warning":
        cell = map_fn if map_fn is not None else (lambda r: len(r.warnings) > 0)
    elif component == "time":
        cell = map_fn if map_fn is not None else (lambda r: float(r.time_ms))
    else:
        raise ValueError(f"unknown component {component!r}")

    cells = [cell(rec) for rec in store.records]
    data = np.asarray(cells, dtype=np.asarray(cells[0]).dtype if cells else float)
    return LabeledArray(dims=store.dims, data=data.reshape(store_sizes, order="F"))


@dataclass
class LongTable:
    """Long-format table: one row per cell, one column per dim plus the value."""

    columns: tuple[str, ...]
    rows: list[tuple]


def array2df(arr: LabeledArray, value_name: str = "value") -> LongTable:
    """Long-format view of a labeled array, first dim varying fastest down rows."""
    sizes = tuple(len(labels) for _, labels in arr.dims)
    total = int(np.prod(sizes)) if sizes else 1
    rows = []
    for i in range(total):
        multi = unravel(i, sizes)
        labels = tuple(arr.dims[k][1][multi[k]] for k in range(len(sizes)))
        cell = arr.data[multi]
        rows.append(labels + (cell.item() if isinstance(cell, np.generic) else cell,))
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
    if isinstance(v, np.str_):
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "TRUE" if v else "FALSE"
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "NaN"
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
    columns likewise.  Body cell (i, j) is the array cell addressed by
    decoding i and j.
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
    row_sizes = [len(arr.dims[a][1]) for a in row_axes]
    col_sizes = [len(arr.dims[a][1]) for a in col_axes]
    n_rows = math.prod(row_sizes)
    n_cols = math.prod(col_sizes)
    nrv = len(row_vars)

    def decode(i: int, sizes: list[int]) -> tuple[int, ...]:
        # last variable varies fastest: the odometer over the reversed sizes
        return unravel(i, sizes[::-1])[::-1]

    # body: row labels with suppression, then data cells
    body: list[list[str]] = []
    prev_levels: list[int] | None = None
    breaks: list[tuple[int, int]] = []
    for i in range(n_rows):
        levels = decode(i, row_sizes)
        labels = []
        show_rest = prev_levels is None
        for k in range(nrv):
            show_rest = show_rest or levels[k] != prev_levels[k]
            labels.append(arr.dims[row_axes[k]][1][levels[k]] if show_rest else "")
        if prev_levels is not None:
            for k in range(nrv):
                if levels[k] != prev_levels[k]:
                    if k < nrv - 1:  # innermost changes draw no separator
                        breaks.append((i - 1, k + 1))
                    break
        cells = []
        for j in range(n_cols):
            cidx = decode(j, col_sizes)
            full = [0] * len(names)
            for k, a in enumerate(row_axes):
                full[a] = levels[k]
            for k, a in enumerate(col_axes):
                full[a] = cidx[k]
            cells.append(_cell_str(arr.data[tuple(full)]))
        body.append(labels + cells)
        prev_levels = levels

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

    lines = ["\\begin{table}[htbp]", "  \\centering"]
    if fontsize:
        lines[-1] += f"\\{fontsize}"
    lines.append(f"  \\begin{{tabular}}{{*{{{nrv}}}{{l}}*{{{n_data}}}{{r}}}}")
    lines.append("    \\toprule")

    for c in range(n_cv - 1):
        cells = [""] * (nrv - 1) + [var_label(ft.col_vars[c])]
        row_spans = [s for s in ft.spans if s[0] == c]
        for _, start, end in row_spans:
            lab = latex_escape(ft.header_rows[c][start])
            cells.append(f"\\multicolumn{{{end - start + 1}}}{{c}}{{{lab}}}")
        lines.append("    " + " & ".join(cells) + " \\\\")
        rules = " ".join(f"\\cmidrule(lr){{{start + 1}-{end + 1}}}"
                         for _, start, end in row_spans)
        lines.append("    " + rules)

    last = n_cv - 1
    head = [var_label(v) for v in ft.row_vars[:-1]]
    head.append(var_label(ft.row_vars[-1]) + " \\textbar\\ " + var_label(ft.col_vars[last]))
    for j in range(n_data):
        lab = latex_escape(ft.header_rows[last][nrv + j])
        head.append(f"\\multicolumn{{1}}{{c}}{{{lab}}}")
    lines.append("    " + " & ".join(head) + " \\\\")
    lines.append("    \\midrule")

    breaks = {after: tier for after, tier in ft.row_group_breaks}
    for i, row in enumerate(ft.body):
        text = "    " + " & ".join(latex_escape(c) for c in row) + " \\\\"
        if i in breaks:
            text += f" \\addlinespace[{_break_space(breaks[i])}]"
        lines.append(text)

    lines.append("    \\bottomrule")
    lines.append("  \\end{tabular}")
    if caption:
        lines.append(f"  \\caption{{{caption}}}")
    if tag:
        lines.append(f"  \\label{{{tag}}}")
    lines.append("\\end{table}")
    return "\n".join(lines) + "\n"


def varlist_to_latex(vl: VarList, caption: str | None = None, tag: str | None = None) -> str:
    """Summary table of a variable list: name, display label, role, value(s)."""
    lines = [
        "\\begin{table}[htbp]",
        "  \\centering",
        "  \\begin{tabular}{l*{2}{c}r}",
        "    \\toprule",
        "    \\multicolumn{1}{c}{Variable} & \\multicolumn{1}{c}{expression} & "
        "\\multicolumn{1}{c}{type} & \\multicolumn{1}{c}{value} \\\\",
        "    \\midrule",
    ]
    for s in vl.specs:
        name = f"\\texttt{{{latex_escape(s.name)}}}"
        label = _latex_label(s.label)
        value = latex_escape(s.value_display())
        lines.append(f"    {name} & {label} & {s.vtype} & {value} \\\\")
    lines.append("    \\bottomrule")
    lines.append("  \\end{tabular}")
    if caption:
        lines.append(f"  \\caption{{{caption}}}")
    if tag:
        lines.append(f"  \\label{{{tag}}}")
    lines.append("\\end{table}")
    return "\n".join(lines) + "\n"


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
