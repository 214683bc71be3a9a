"""Machine-readable run reports.

Two formats:

* json-lines: a config record, one record per shot / sweep point, and a
  summary record, in that order.
* csv: a ``# config=...`` comment line, one header row, data rows, and a
  trailing ``# summary=...`` comment line.  A cell whose text holds a
  comma, a double quote or a line break (complex numbers and lists, which
  are written as JSON) is quoted as RFC 4180 prescribes.

Serialization is deterministic: fields keep insertion order, floats are
printed with 17 significant digits, newlines are always "\\n".  Identical
seeds therefore produce byte-identical files.  NaN and infinities are
refused with ``ValueError``: neither format has a token for them.

Rows are rendered column by column in chunks of ``CHUNK_ROWS``.
``emit_report`` writes a long report chunk by chunk as it is rendered, to
a temporary sibling file that replaces the target only once it is
complete.
"""
from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

CHUNK_ROWS = 1 << 14

_CSV_SPECIAL = frozenset(',"\n\r')


class RowTable:
    """Report rows held column by column.

    ``columns`` maps each field name to a sequence (a 1-d numpy array or a
    list) holding one value per row.  The table reads like the list of
    row dicts it replaces: ``len`` is the row count, iteration yields one
    dict of Python scalars per row, and two tables are equal when their
    field names and values are.
    """

    def __init__(self, columns: dict):
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise ValueError("every column must hold one value per row")
        self.columns = dict(columns)
        self._rows = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._rows

    def __iter__(self):
        names = list(self.columns)
        values = [col.tolist() if isinstance(col, np.ndarray) else col
                  for col in self.columns.values()]
        for row in zip(*values):
            yield dict(zip(names, row))

    def __eq__(self, other) -> bool:
        if isinstance(other, RowTable):
            return (list(self.columns) == list(other.columns)
                    and all(np.array_equal(a, b) for a, b in
                            zip(self.columns.values(), other.columns.values())))
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowTable({len(self)} rows: {', '.join(self.columns)})"


@dataclass
class RunReport:
    pipeline: str
    config: dict
    seed: int
    rows: list | RowTable = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def format_value(value) -> str:
    """JSON text for one scalar or container, floats at 17 significant digits.

    Raises ``ValueError`` for NaN and infinities.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite value {value!r}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {format_value(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    if isinstance(value, complex):
        return format_value({"re": value.real, "im": value.imag})
    if hasattr(value, "item"):  # numpy scalar
        return format_value(value.item())
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _record(kind: str, payload: dict) -> str:
    body = {"record": kind}
    body.update(payload)
    return format_value(body)


def _csv_quote(text: str) -> str:
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _csv_cell(value) -> str:
    return _csv_quote(value if isinstance(value, str) else format_value(value))


def _columns(rows) -> tuple[dict, int]:
    """(field -> column, row count) for a RowTable or a list of row dicts."""
    if isinstance(rows, RowTable):
        return rows.columns, len(rows)
    if not rows:
        return {}, 0
    names = list(rows[0])
    if not names or any(list(row) != names for row in rows):
        raise ValueError("report rows must share one non-empty column set")
    return {name: [row[name] for row in rows] for name in names}, len(rows)


def _cell_source(col, cell):
    """Callable (lo, hi) -> iterable of the cell texts of rows lo..hi-1.

    Integer arrays print through ``str``.  String arrays (word labels,
    with few distinct values) format each distinct value once and gather
    the texts.  Everything else goes through ``cell`` one by one.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind == "U":
        distinct, inverse = np.unique(col, return_inverse=True)
        texts = np.array([cell(v) for v in distinct.tolist()], dtype=object)
        return lambda lo, hi: texts[inverse[lo:hi]].tolist()
    if isinstance(col, np.ndarray):
        to_text = str if col.dtype.kind in "iu" else cell
        return lambda lo, hi: map(to_text, col[lo:hi].tolist())
    return lambda lo, hi: map(cell, col[lo:hi])


def _chunks(report: RunReport, fmt: str):
    """The report text in pieces: the head, ``CHUNK_ROWS`` rows at a time, the tail.

    A row is the text of each cell after its column's prefix, then
    ``end``; a chunk joins all pieces of its rows in one ``str.join``.
    """
    columns, n_rows = _columns(report.rows)
    if fmt == "json-lines":
        head = [_record("config", report.config)]
        tail = _record("summary", report.summary)
        cell = format_value
        prefixes = [f", {json.dumps(str(k))}: " for k in columns]
        if prefixes:
            prefixes[0] = '{"record": "row"' + prefixes[0]
        end = "}\n"
    elif fmt == "csv":
        head = ["# config=" + format_value(report.config)]
        if n_rows:
            head.append(",".join(_csv_quote(str(k)) for k in columns))
        tail = "# summary=" + format_value(report.summary)
        cell = _csv_cell
        prefixes = [""] + [","] * (len(columns) - 1)
        end = "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    yield "\n".join(head) + "\n"
    sources = [(prefix, _cell_source(col, cell)) for prefix, col in zip(prefixes, columns.values())]
    for lo in range(0, n_rows, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n_rows)
        pieces = []
        for prefix, source in sources:
            if prefix:
                pieces.append(repeat(prefix, hi - lo))
            pieces.append(source(lo, hi))
        pieces.append(repeat(end, hi - lo))
        yield "".join(chain.from_iterable(zip(*pieces)))
    yield tail + "\n"


def render_report(report: RunReport, fmt: str) -> str:
    """The whole report text: the join of the chunks ``emit_report`` writes."""
    return "".join(_chunks(report, fmt))


def _replace_target(path: str):
    """The regular file that a report for ``path`` replaces, or None to write in place.

    Symlinks are followed, so a link keeps naming the new report.  A link
    into ``/proc`` (``/dev/stdout``, ``/dev/fd/N``) stands for an open file
    descriptor, a device or pipe cannot be replaced, and a file that cannot
    be written must not be: all of these are written in place.
    """
    hop = path
    for _ in range(40):
        if not os.path.islink(hop):
            break
        if os.path.realpath(os.path.dirname(os.path.abspath(hop))).startswith("/proc/"):
            return None
        hop = os.path.join(os.path.dirname(hop), os.readlink(hop))
    try:
        mode = os.stat(hop).st_mode
    except FileNotFoundError:
        return hop
    return hop if stat.S_ISREG(mode) and os.access(hop, os.W_OK) else None


def _write_replacing(report: RunReport, target: str, fmt: str) -> None:
    tmp = f"{target}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            # Small reports go through render_report so the benchmark's
            # render spans keep counting them (ROADMAP item 6).
            if len(report.rows) <= CHUNK_ROWS:
                fh.write(render_report(report, fmt))
            else:
                fh.writelines(_chunks(report, fmt))
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, target)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def emit_report(report: RunReport, path, fmt: str) -> None:
    """Write the report to ``path``.

    A new path or a writable regular file (after following symlinks) is
    written to a temporary sibling that replaces it only when complete, so
    a failure leaves neither a partial report nor the temporary file.  A
    report longer than ``CHUNK_ROWS`` rows is written chunk by chunk as it
    is rendered, so its full text is never held in memory.  A replaced file
    keeps its permission bits, not its owner, group or hard links.

    Anything else (see ``_replace_target``), and a file whose directory
    forbids the temporary file or the replace, is written in place.  Its
    text is rendered whole before the file is opened, so a refused report
    leaves the file untouched.
    """
    path = os.fspath(path)
    target = _replace_target(path)
    if target is not None:
        try:
            _write_replacing(report, target, fmt)
            return
        except PermissionError:
            pass
    text = render_report(report, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def parse_config_echo(text: str) -> dict:
    """Recover the echoed config from either report format."""
    first = text.splitlines()[0]
    if first.startswith("# config="):
        return json.loads(first[len("# config="):])
    record = json.loads(first)
    if record.get("record") != "config":
        raise ValueError("report does not start with a config record")
    record.pop("record")
    return record
