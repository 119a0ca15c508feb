import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from deltamag import SweepRecord, parse_sweep_csv, write_plot_csv, write_sweep_csv
from deltamag.sweepio import SWEEP_HEADER


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
