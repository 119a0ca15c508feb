import csv
import hashlib
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltamag import (
    SweepRecord,
    SynthConfig,
    generate_dataset,
    parse_sweep_csv,
    write_plot_csv,
    write_sweep_csv,
)
from deltamag.sweepio import FLOAT_FMT, SWEEP_COLUMNS, SWEEP_HEADER


def sample_records():
    B = np.linspace(-2.0, 2.0, 9)
    return [
        SweepRecord(
            sample_id="S1",
            T_bath=0.3,
            theta_deg=0.0,
            B=B,
            R_xx=1000.0 + 3.7 * B**2,
            R_xy=52.8 * B,
            current=1e-9,
        ),
        SweepRecord(
            sample_id="S1",
            T_bath=0.3,
            theta_deg=90.0,
            B=B,
            R_xx=1001.5 - 0.8 * B**2,
            R_xy=None,
            current=1e-9,
        ),
    ]


def test_write_read_round_trip_is_byte_stable(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_sweep_csv(p1, sample_records())
    write_sweep_csv(p2, parse_sweep_csv(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_parse_recovers_values(tmp_path):
    p = tmp_path / "a.csv"
    recs = sample_records()
    write_sweep_csv(p, recs)
    back = parse_sweep_csv(p)
    assert len(back) == 2
    perp = next(r for r in back if r.theta_deg == 0.0)
    inpl = next(r for r in back if r.theta_deg == 90.0)
    np.testing.assert_allclose(perp.B, recs[0].B, rtol=1e-11)
    np.testing.assert_allclose(perp.R_xy, recs[0].R_xy, rtol=1e-11)
    np.testing.assert_allclose(perp.R_xx, recs[0].R_xx, rtol=1e-11)
    assert inpl.R_xy is None
    assert perp.current == 1e-9


def test_header_mismatch_names_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(SWEEP_HEADER.replace("R_xx_ohm", "Rxx") + "\nS1,0.3,0,0,1,1,1\n")
    with pytest.raises(ValueError, match="expected column 5 to be 'R_xx_ohm', got 'Rxx'"):
        parse_sweep_csv(p)


def test_extra_column_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(SWEEP_HEADER + ",note\n")
    with pytest.raises(ValueError, match="extra column 'note'"):
        parse_sweep_csv(p)


def test_non_numeric_cell_carries_row_number(tmp_path):
    p = tmp_path / "bad.csv"
    for cell, kind in (("oops", "non-numeric"), ("nan", "non-finite"), ("-inf", "non-finite")):
        p.write_text(SWEEP_HEADER + f"\nS1,0.3,0,0.0,1000,0.0,1e-9\nS1,0.3,0,0.1,{cell},5.2,1e-9\n")
        message = rf"bad.csv: row 3: {kind} value '{cell}' in column R_xx_ohm"
        with pytest.raises(ValueError, match=message):
            parse_sweep_csv(p)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        parse_sweep_csv(p)
    p.write_text(SWEEP_HEADER + "\n")
    with pytest.raises(ValueError, match="no data rows"):
        parse_sweep_csv(p)


def test_plot_files_are_not_measurement_input(tmp_path):
    p = tmp_path / "plot.csv"
    write_plot_csv(p, "coherence length vs temperature", [("T_K", [0.3, 0.5]), ("l_phi_nm", [50.0, 40.0])])
    text = p.read_text()
    assert text.startswith("# coherence length vs temperature\n")
    with pytest.raises(ValueError, match="plot-data file, not measurement input"):
        parse_sweep_csv(p)


def test_plot_columns_must_align():
    with pytest.raises(ValueError, match="equal length"):
        write_plot_csv("/tmp/unused.csv", "t", [("a", [1.0, 2.0]), ("b", [1.0])])


def test_plot_rows_format_like_each_cell(tmp_path):
    # one '%' per row gives the bytes of formatting each cell on its own
    cells = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300, 3.0, -42.0, 5e-324]
    columns = [("a", cells), ("b", cells[::-1]), ("c", np.arange(len(cells), dtype=float))]
    p = tmp_path / "plot.csv"
    write_plot_csv(p, "edge values", columns)
    rows = zip(*(np.asarray(v, dtype=float) for _, v in columns))
    expected = ["# edge values", "a,b,c"] + [",".join(FLOAT_FMT % v for v in row) for row in rows]
    assert p.read_bytes() == ("\n".join(expected) + "\n").encode()
    write_plot_csv(p, "empty", [("a", []), ("b", [])])
    assert p.read_bytes() == b"# empty\na,b\n"


def test_mixed_hall_column_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        SWEEP_HEADER + "\nS1,0.3,0,0.0,1000,0.0,1e-9\nS1,0.3,0,0.1,1000,,1e-9\n"
    )
    with pytest.raises(ValueError, match="row 3: R_xy missing"):
        parse_sweep_csv(p)


def test_unsorted_sweep_warns_and_sorts(tmp_path):
    p = tmp_path / "shuffled.csv"
    p.write_text(
        SWEEP_HEADER
        + "\nS1,0.3,0,0.5,1010,2.0,1e-9\nS1,0.3,0,0.0,1000,0.0,1e-9\nS1,0.3,0,1.0,1020,4.0,1e-9\n"
    )
    with pytest.warns(UserWarning, match="re-sorted"):
        (rec,) = parse_sweep_csv(p)
    np.testing.assert_array_equal(rec.B, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(rec.R_xx, [1000.0, 1010.0, 1020.0])
    np.testing.assert_array_equal(rec.R_xy, [0.0, 2.0, 4.0])


def test_blank_lines_skipped(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text(SWEEP_HEADER + "\n\nS1,0.3,0,0.0,1000,0.0,1e-9\n\nS1,0.3,0,1.0,1010,1.0,1e-9\n")
    (rec,) = parse_sweep_csv(p)
    assert rec.B.size == 2


def test_empty_sample_id_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(SWEEP_HEADER + "\n,0.3,0,0.0,1000,0.0,1e-9\n")
    with pytest.raises(ValueError, match="empty sample_id"):
        parse_sweep_csv(p)


@pytest.mark.parametrize("sample_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "a,b", 'a"b', "a\nb", "a\rb"])
def test_unusable_sample_id_rejected(sample_id):
    with pytest.raises(ValueError, match="cannot name an output file and one CSV cell"):
        SweepRecord(sample_id, 0.3, 0.0, [0.0, 1.0], [1000.0, 1010.0], None, 1e-9)


@pytest.mark.parametrize("sample_id", [" S1", "S1 "])
def test_sample_id_with_surrounding_blanks_rejected(sample_id):
    # the parser strips every cell, so such an id would read back as 'S1'
    with pytest.raises(ValueError, match="cannot name an output file and one CSV cell"):
        SweepRecord(sample_id, 0.3, 0.0, [0.0, 1.0], [1000.0, 1010.0], None, 1e-9)


@pytest.mark.parametrize("sample_id", ["S1", "a.b", "...", "a b", "δ-1"])
def test_usable_sample_id_round_trips(tmp_path, sample_id):
    rec = SweepRecord(sample_id, 0.3, 0.0, [0.0, 1.0], [1000.0, 1010.0], None, 1e-9)
    path = tmp_path / f"{sample_id}_sweeps.csv"
    write_sweep_csv(path, [rec])
    assert [r.sample_id for r in parse_sweep_csv(path)] == [sample_id]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_field_rejected(bad):
    with pytest.raises(ValueError, match="B must be finite"):
        SweepRecord("S1", 0.3, 0.0, [0.0, bad], [1000.0, 1010.0], None, 1e-9)


def test_sweeps_split_by_identity(tmp_path):
    p = tmp_path / "multi.csv"
    rows = ["S1,0.3,0,%g,1000,%g,1e-9" % (b, b) for b in (0.0, 1.0)]
    rows += ["S1,0.5,0,%g,1000,%g,1e-9" % (b, b) for b in (0.0, 1.0)]
    rows += ["S2,0.3,0,%g,1000,%g,1e-9" % (b, b) for b in (0.0, 1.0)]
    p.write_text(SWEEP_HEADER + "\n" + "\n".join(rows) + "\n")
    recs = parse_sweep_csv(p)
    assert len(recs) == 3
    assert sorted({r.sample_id for r in recs}) == ["S1", "S2"]


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(lambda v: abs(v) > 1e-6 or v == 0.0),
        min_size=3,
        max_size=12,
    )
)
def test_round_trip_values_survive(tmp_path_factory, r_xx):
    tmp = tmp_path_factory.mktemp("io")
    B = np.arange(len(r_xx), dtype=float)
    rec = SweepRecord(
        sample_id="P1", T_bath=1.0, theta_deg=0.0, B=B, R_xx=np.array(r_xx), R_xy=None, current=1e-9
    )
    path = tmp / "x.csv"
    write_sweep_csv(path, [rec])
    (back,) = parse_sweep_csv(path)
    np.testing.assert_allclose(back.R_xx, rec.R_xx, rtol=1e-11, atol=1e-17)


CELL = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["S1", "0", "90", "0.3", "1e-9", "", " "]),
    st.text(max_size=4),
)
ROWS = st.lists(st.lists(CELL, min_size=6, max_size=8).map(",".join), max_size=6).map("\n".join)


@given(st.sampled_from(["", SWEEP_HEADER + "\n"]), st.one_of(ROWS, st.text()))
@example(SWEEP_HEADER + "\n", "x" * 131073)  # longer than the csv module's field limit
def test_any_text_gives_records_or_value_error(tmp_path_factory, header, body):
    path = tmp_path_factory.mktemp("fuzz") / "x.csv"
    path.write_bytes((header + body).encode("utf-8", "surrogatepass"))
    try:
        records = parse_sweep_csv(path)
    except ValueError:
        return
    assert records and all(np.all(np.isfinite(r.R_xx)) for r in records)


# ------------------------------------------------- row-by-row reference parser


def row_by_row_parse(path) -> list:
    """The row-by-row parser that the columnar ``parse_sweep_csv`` replaced.

    Kept as an oracle: both must give bitwise-equal records and the same
    warnings, or the same ValueError message. The only edit is the warning
    for a sweep that reads one field more than once, which now names that
    field.
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
            if value is None or not math.isfinite(value):
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
            ascending = B[np.argsort(B, kind="stable")].tolist()
            repeated = [a for a, b in zip(ascending, ascending[1:]) if a == b]
            warnings.warn(
                f"{path}: sweep ({sample_id}, {T_bath} K, {theta} deg): "
                "B not strictly monotone; re-sorted ascending"
                + (f"; B = {FLOAT_FMT % repeated[0]} T is read more than once" if repeated else "")
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


def record_bits(rec):
    """Every field of a record, floats and arrays as exact bytes and types."""
    arrays = [rec.B, rec.R_xx] + ([] if rec.R_xy is None else [rec.R_xy])
    return (
        rec.sample_id,
        [type(v).__name__ + v.hex() for v in (rec.T_bath, rec.theta_deg, rec.current)],
        [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
        rec.R_xy is None,
    )


def outcome(parse, path):
    """What ``parse`` makes of ``path``: (record bits or error message, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [record_bits(r) for r in parse(path)]
        except ValueError as exc:
            result = f"ValueError: {exc}"
    return result, [(w.category, str(w.message)) for w in caught]


# cells that float() reads after str.strip(), and cells that it rejects
ODD_NUMBERS = ["1_0", " 2.5 ", "\t-3\t", "１２", "\x1c4", "5\x1f", "+.5", "1e400", "-0", "1e-400"]
BAD_CELLS = ["nan", "-inf", "Infinity", "oops", "1,5", "0x10", "1__0", "\x00", "1 2", "-1"]


@st.composite
def sweep_files(draw):
    """Sweep CSV text with interleaved, repeated and malformed rows."""
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["S1", " S1 ", "S2"]),
                st.sampled_from(["0.3", "0.30", " 0.3", "1.2"]),
                st.sampled_from(["0", "-0", "0.0", "90"]),
                st.booleans(),  # has R_xy
            ),
            min_size=1,
            max_size=4,
        )
    )
    numbers = st.sampled_from(["0", "0.1", "-0.1", "0.25", "1", "-2", "1e-9", "1000", "1000.5"])
    lines = [SWEEP_HEADER]
    for _ in range(draw(st.integers(1, 14))):
        sid, T, theta, has_xy = draw(st.sampled_from(keys))
        xy = draw(numbers) if has_xy else draw(st.sampled_from(["", "  "]))
        if draw(st.integers(0, 19)) == 0:  # a partial R_xy column
            xy = draw(st.sampled_from(["", "7"]))
        row = [sid, T, theta, draw(numbers), draw(numbers), xy, draw(numbers)]
        if draw(st.integers(0, 3)) == 0:
            row[draw(st.integers(1, 6))] = draw(st.sampled_from(ODD_NUMBERS))
        if draw(st.integers(0, 24)) == 0:
            row[draw(st.integers(1, 6))] = draw(st.sampled_from(BAD_CELLS))
        if draw(st.integers(0, 29)) == 0:
            row[0] = draw(st.sampled_from(["", "  "]))
        if draw(st.integers(0, 29)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["x"]
        if draw(st.integers(0, 5)) == 0:  # a quoted cell
            i = draw(st.integers(0, len(row) - 1))
            row[i] = '"' + row[i] + '"'
        lines.append(",".join(row))
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", ","])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


@settings(max_examples=300, deadline=None)
@given(sweep_files())
@example(SWEEP_HEADER + "\nS1,0.3,0,0,1,2,1\nS1,0.3,0,0.1,oops,2,1\nS1,0.3,0,0.2,1,2\n")
@example(SWEEP_HEADER + "\nS1,0.3,0,0.1,1,,1\n\nS2,0.3,0,0,1,,1\nS1,0.3,0,0,1,3,1\n")
@example(SWEEP_HEADER + "\r\nS1,0.3,0,1,1,\x1c4,1\r\nS1,0.3,-0,0,1,5,1\r\n")
def test_columnar_parser_matches_row_by_row(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(parse_sweep_csv, path) == outcome(row_by_row_parse, path)


def test_repeated_field_is_named_in_the_warning(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(SWEEP_HEADER + "\nS1,0.3,0,0,1000,,1\nS1,0.3,0,1,1010,,1\nS1,0.3,0,0,1001,,1\n")
    with pytest.warns(UserWarning, match="re-sorted ascending; B = 0 T is read more than once"):
        (rec,) = parse_sweep_csv(path)
    np.testing.assert_array_equal(rec.B, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(rec.R_xx, [1000.0, 1001.0, 1010.0])


# ------------------------------------------------- parsed sweeps, pinned

SWEEP_PARSE_SHA256 = "cc0a061b9495ac9ee1d81af242901bd2da84af391805ef908593213b992bcafd"


def pinned_plan_files(tmp_path):
    """Seeded synth files of the demo-05 plan (5 T x 2 x 81) and the Hall survey plan (3 T x 2 x 41)."""
    plans = [("DEMO1", (0.1, 0.2, 0.4, 0.7, 1.0), 81, 0.002, 0.25, seed) for seed in (12, 13)]
    plans += [(f"H{seed}", (0.4, 0.7, 1.2), 41, 0.01, 0.0, seed) for seed in (501, 502)]
    for sample_id, temps, num, sigma, t_sat, seed in plans:
        cfg = SynthConfig.from_dict(
            {
                "sample_id": sample_id,
                "sample": {"n_2d_cm2": 2.14e13, "mobility_cm2_Vs": 38.9, "delta_nm": 0.42, "F": 0.5},
                "l_phi_law": {"amplitude_nm": 35.5, "exponent": -0.31},
                "t_sat_K": t_sat,
                "noise": {"relative_sigma": sigma, "seed": seed},
                "sweep_plan": [
                    {"T_bath_K": T, "theta_deg": th, "B_T": {"start": -2.0, "stop": 2.0, "num": num}}
                    for T in temps
                    for th in (0.0, 90.0)
                ],
            }
        )
        path = tmp_path / f"{sample_id}_{seed}.csv"
        write_sweep_csv(path, generate_dataset(cfg))
        yield path


def test_parsed_sweeps_are_pinned(tmp_path):
    """Every parsed record field of the pinned plan files, at full precision,
    hashes to a fixed digest. A change to parsing that alters a bit of a
    record must update the digest and say why.
    """
    digest = hashlib.sha256()
    for path in pinned_plan_files(tmp_path):
        for rec in parse_sweep_csv(path):
            digest.update(repr(record_bits(rec)).encode())
    assert digest.hexdigest() == SWEEP_PARSE_SHA256
