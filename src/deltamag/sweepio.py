"""Reading and writing measurement sweep files.

One CSV file holds any number of sweeps; rows carry their sweep identity in
the (sample_id, T_bath_K, theta_deg) columns. Plot-data files emitted by
the analysis start with a '#' marker line precisely so they can never be
mistaken for measurement input.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

SWEEP_COLUMNS = (
    "sample_id",
    "T_bath_K",
    "theta_deg",
    "B_T",
    "R_xx_ohm",
    "R_xy_ohm",
    "I_A",
)
SWEEP_HEADER = ",".join(SWEEP_COLUMNS)
FLOAT_FMT = "%.12g"


def check_sample_id(sample_id: str) -> None:
    """Reject an id that cannot be one unquoted CSV cell and one file-name
    part: empty, '.' or '..', with leading or trailing blanks (the parser
    strips them), or holding a path separator, a comma, a double quote or a
    line break."""
    bad = sample_id in ("", ".", "..") or sample_id != sample_id.strip()
    if bad or not set(sample_id).isdisjoint('/\\,"\r\n'):
        raise ValueError(f"sample_id {sample_id!r} cannot name an output file and one CSV cell")


@dataclass
class SweepRecord:
    """One magnetoconductance sweep at fixed temperature and orientation."""

    sample_id: str
    T_bath: float
    theta_deg: float
    B: np.ndarray
    R_xx: np.ndarray
    R_xy: Optional[np.ndarray]  # None for sweeps without a Hall pickup
    current: float

    def __post_init__(self):
        check_sample_id(self.sample_id)
        self.B = np.asarray(self.B, dtype=float)
        self.R_xx = np.asarray(self.R_xx, dtype=float)
        if self.R_xy is not None:
            self.R_xy = np.asarray(self.R_xy, dtype=float)
            if self.R_xy.shape != self.B.shape:
                raise ValueError("R_xy length differs from B")
        if self.B.shape != self.R_xx.shape or self.B.ndim != 1:
            raise ValueError("B and R_xx must be 1-d arrays of equal length")
        if not np.isfinite(self.B).all():
            raise ValueError("B must be finite")
        if not self.T_bath > 0.0:
            raise ValueError("T_bath must be positive")


def parse_sweep_csv(path) -> list:
    """Parse a sweep CSV into SweepRecord objects, one column at a time.

    The header must match the sweep format exactly; the error names the
    first offending column. Of the bad rows and cells (nan and inf
    included) the error names the first in file order, with its row
    number. Within a sweep, B must be strictly monotone; violations are
    re-sorted ascending with a warning that names a repeated field. R_xy
    cells may all be empty (no Hall data) but a sweep cannot mix the two.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        raise ValueError(f"{path}: empty file")
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"{path}: unreadable CSV: {exc}") from None
    header = rows[0]
    if header and header[0].lstrip().startswith("#"):
        raise ValueError(
            f"{path}: starts with a '#' marker line; this is an emitted "
            "plot-data file, not measurement input"
        )
    for i, want in enumerate(SWEEP_COLUMNS):
        got = header[i].strip() if i < len(header) else None
        if got != want:
            raise ValueError(
                f"{path}: malformed header: expected column {i + 1} to be "
                f"{want!r}, got {got!r}"
            )
    if len(header) > len(SWEEP_COLUMNS):
        raise ValueError(
            f"{path}: malformed header: unexpected extra column {header[len(SWEEP_COLUMNS)]!r}"
        )

    # indices of the data rows: not the header, an empty or a blank line
    keep = [i for i, row in enumerate(rows) if i and (len(row) > 1 or row and row[0].strip())]
    if not keep:
        raise ValueError(f"{path}: no data rows")
    body = [rows[i] for i in keep]
    try:
        ids, num, filled, xy = _columns(body)
    except ValueError:  # re-scan in file order for the first bad field
        for i in keep:
            _check_row(path, i + 1, rows[i])
        # every cell reads once stripped: float() strips less than str.strip()
        ids, num, filled, xy = _columns([[c.strip() for c in row] for row in body])

    # a sweep is the runs of rows that share one (sample_id, T_bath, theta) key
    cut = (num[:2, 1:] != num[:2, :-1]).any(axis=0) | (ids[1:] != ids[:-1])
    starts = [0, *(np.flatnonzero(cut) + 1).tolist(), len(body)]
    runs: dict = {}
    for a, b in zip(starts, starts[1:]):
        runs.setdefault((ids[a], float(num[0, a]), float(num[1, a])), []).append(slice(a, b))
    records = []
    for (sample_id, T_bath, theta), parts in runs.items():
        idx = parts[0] if len(parts) == 1 else np.r_[tuple(parts)]
        has_xy = filled[idx]
        if has_xy.any() and not has_xy.all():
            bad = keep[np.r_[idx][~has_xy][0]] + 1
            raise ValueError(f"{path}: row {bad}: R_xy missing in a sweep that has R_xy elsewhere")
        current = float(num[4, idx][0])
        dB = np.diff(num[2, idx])
        if len(dB) and not ((dB > 0.0).all() or (dB < 0.0).all()):
            idx = np.r_[idx][np.argsort(num[2, idx], kind="stable")]
            B = num[2, idx]
            repeated = B[:-1][B[1:] == B[:-1]]
            warnings.warn(
                f"{path}: sweep ({sample_id}, {T_bath} K, {theta} deg): "
                "B not strictly monotone; re-sorted ascending"
                + (f"; B = {FLOAT_FMT % repeated[0]} T is read more than once" if repeated.size else "")
            )
        R_xy = xy[idx] if has_xy.all() else None
        records.append(SweepRecord(sample_id, T_bath, theta, num[2, idx], num[3, idx], R_xy, current))
    return records


def _columns(body):
    """Sample ids, the (T_bath, theta, B, R_xx, I) array, the filled-R_xy
    mask and R_xy of the data rows. A bad field raises ValueError."""
    if set(map(len, body)) != {len(SWEEP_COLUMNS)}:
        raise ValueError("field count")
    ids, T_bath, theta, B, R_xx, R_xy, current = zip(*body)
    ids = np.array([s.strip() for s in ids], dtype=object)
    filled = np.array([bool(c.strip()) for c in R_xy])
    num = np.array([T_bath, theta, B, R_xx, current], dtype=float)
    xy = np.zeros(len(body))
    xy[filled] = np.array(R_xy, dtype=object)[filled].astype(float)
    if not (all(ids) and np.isfinite(num).all() and np.isfinite(xy).all()):
        raise ValueError("empty sample_id or non-finite value")
    return ids, num, filled, xy


def _check_row(path, line_no, row) -> None:
    """Raise the error of a data row's first bad field, if it has one."""
    if len(row) != len(SWEEP_COLUMNS):
        raise ValueError(f"{path}: row {line_no}: expected {len(SWEEP_COLUMNS)} fields, got {len(row)}")
    if not row[0].strip():
        raise ValueError(f"{path}: row {line_no}: empty sample_id")
    for cell, name in zip(row[1:], SWEEP_COLUMNS[1:]):
        cell = cell.strip()
        try:
            kind = None if math.isfinite(float(cell)) else "non-finite"
        except ValueError:
            kind = None if name == "R_xy_ohm" and not cell else "non-numeric"
        if kind:
            raise ValueError(f"{path}: row {line_no}: {kind} value {cell!r} in column {name}")


def write_sweep_csv(path, records: Sequence[SweepRecord]) -> None:
    """Write sweeps in the same format ``parse_sweep_csv`` reads.

    Floats are emitted at 12 significant digits, enough that a write/read
    round trip re-emits byte-identical files.
    """
    lines = [SWEEP_HEADER]
    for rec in records:
        for i in range(len(rec.B)):
            xy = "" if rec.R_xy is None else FLOAT_FMT % rec.R_xy[i]
            lines.append(
                ",".join(
                    (
                        rec.sample_id,
                        FLOAT_FMT % rec.T_bath,
                        FLOAT_FMT % rec.theta_deg,
                        FLOAT_FMT % rec.B[i],
                        FLOAT_FMT % rec.R_xx[i],
                        xy,
                        FLOAT_FMT % rec.current,
                    )
                )
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plot_csv(path, title: str, columns) -> None:
    """Write analysis plot data: a '#' title line, a header, then rows.

    ``columns`` is a sequence of (name, array) pairs. The leading marker
    line keeps these files out of ``parse_sweep_csv``.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(a, dtype=float) for _, a in columns]
    n = arrays[0].size if arrays else 0
    if any(a.size != n for a in arrays):
        raise ValueError("plot columns must have equal length")
    lines = [f"# {title}", ",".join(names)]
    if n:  # one '%' for the table: every cell, row-major, through the same format
        table = "\n".join([",".join([FLOAT_FMT] * len(arrays))] * n)
        lines.append(table % tuple(np.column_stack(arrays).ravel().tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
