"""Reading and writing measurement sweep files.

One CSV file holds any number of sweeps; rows carry their sweep identity in
the (sample_id, T_bath_K, theta_deg) columns. Plot-data files emitted by
the analysis start with a '#' marker line precisely so they can never be
mistaken for measurement input.
"""

from __future__ import annotations

import csv
import io
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
        self.B = np.asarray(self.B, dtype=float)
        self.R_xx = np.asarray(self.R_xx, dtype=float)
        if self.R_xy is not None:
            self.R_xy = np.asarray(self.R_xy, dtype=float)
            if self.R_xy.shape != self.B.shape:
                raise ValueError("R_xy length differs from B")
        if self.B.shape != self.R_xx.shape or self.B.ndim != 1:
            raise ValueError("B and R_xx must be 1-d arrays of equal length")
        if not self.T_bath > 0.0:
            raise ValueError("T_bath must be positive")


def parse_sweep_csv(path) -> list:
    """Parse a sweep CSV into SweepRecord objects.

    The header must match the sweep format exactly; the error names the
    first offending column. Cell errors, nan and inf included, carry the
    file row number. Within a sweep, B must be strictly monotone;
    violations are re-sorted ascending with a warning. R_xy cells may all
    be empty (no Hall data) but a sweep cannot mix empty and filled.
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

    groups: dict = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(SWEEP_COLUMNS):
            raise ValueError(
                f"{path}: row {line_no}: expected {len(SWEEP_COLUMNS)} fields, got {len(row)}"
            )
        sample_id = row[0].strip()
        if not sample_id:
            raise ValueError(f"{path}: row {line_no}: empty sample_id")

        def num(idx, name, line_no=line_no, row=row):
            cell = row[idx].strip()
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or not np.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise ValueError(f"{path}: row {line_no}: {kind} value {cell!r} in column {name}")
            return value

        T_bath = num(1, "T_bath_K")
        theta = num(2, "theta_deg")
        B = num(3, "B_T")
        R_xx = num(4, "R_xx_ohm")
        R_xy = None if row[5].strip() == "" else num(5, "R_xy_ohm")
        current = num(6, "I_A")
        key = (sample_id, T_bath, theta)
        groups.setdefault(key, []).append((line_no, B, R_xx, R_xy, current))

    if not groups:
        raise ValueError(f"{path}: no data rows")

    records = []
    for (sample_id, T_bath, theta), pts in groups.items():
        have_xy = [p[3] is not None for p in pts]
        if any(have_xy) and not all(have_xy):
            bad = next(p[0] for p, h in zip(pts, have_xy) if not h)
            raise ValueError(
                f"{path}: row {bad}: R_xy missing in a sweep that has R_xy elsewhere"
            )
        B = np.array([p[1] for p in pts])
        R_xx = np.array([p[2] for p in pts])
        R_xy = np.array([p[3] for p in pts]) if all(have_xy) and pts else None
        dB = np.diff(B)
        if len(dB) and not (np.all(dB > 0.0) or np.all(dB < 0.0)):
            warnings.warn(
                f"{path}: sweep ({sample_id}, {T_bath} K, {theta} deg): "
                "B not strictly monotone; re-sorted ascending"
            )
            order = np.argsort(B, kind="stable")
            B = B[order]
            R_xx = R_xx[order]
            if R_xy is not None:
                R_xy = R_xy[order]
        records.append(
            SweepRecord(
                sample_id=sample_id,
                T_bath=T_bath,
                theta_deg=theta,
                B=B,
                R_xx=R_xx,
                R_xy=R_xy,
                current=pts[0][4],
            )
        )
    return records


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
    for i in range(n):
        lines.append(",".join(FLOAT_FMT % a[i] for a in arrays))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
