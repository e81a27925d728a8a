"""Result tables as CSV text and SVG charts; apart from cli.py to keep it under 4,096 parser tokens.
A float64 array table is formatted in blocks of rows, with the bits of the per-cell path."""

from __future__ import annotations

import csv
import io
import math
from typing import Optional, Sequence

import numpy as np

from .svg import line_chart


class OutputError(RuntimeError):
    """A result value is not finite, or an output file cannot be written; the run fails."""

    stage = "output"


def fmt_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise OutputError(f"non-finite result value {float(v)}")
        return f"{float(v):.17g}"
    if isinstance(v, np.ndarray):
        return ",".join(fmt_value(float(c)) for c in v)
    return str(v)


def csv_text(name: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The table as CSV text; the first unwritable value in row order raises OutputError naming file and column."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.shape[1:] == (len(header),):
        if np.count_nonzero(np.isfinite(rows)) != rows.size:
            row, col = divmod(int(np.flatnonzero(~np.isfinite(rows.ravel()))[0]), len(header))
            raise OutputError(f"{name}, column {header[col]}: non-finite result value {float(rows[row, col])}")
        line = ",".join(["%.17g"] * len(header)) + "\r\n"
        for block in np.split(rows, range(256, len(rows), 256)):  # peaks lower than a row or all rows a call
            buf.write(line * len(block) % tuple(block.ravel().tolist()))
        return buf.getvalue()
    for row in rows:
        cells = []
        for col, v in zip(header, row, strict=True):
            try:
                cells.append(fmt_value(v))
            except OutputError as exc:
                raise OutputError(f"{name}, column {col}: {exc}") from None
        writer.writerow(cells)
    return buf.getvalue()


def table(
    name: str, header: Sequence[str], rows: Sequence[Sequence], chart: Optional[str] = None, **spec
) -> dict[str, str]:
    """The table's CSV text and, given a chart file name, its `line_chart` of spec, by file name."""
    texts = {name: csv_text(name, header, rows)}
    if chart is not None:
        texts[chart] = line_chart(header, rows, **spec)
    return texts
