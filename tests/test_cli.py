"""Command-line interface: exit codes, output files, section views, flags."""

import json
import math

import numpy as np
import pytest

from deltamag import SynthConfig, generate_dataset, write_sweep_csv
from deltamag.cli import main
from deltamag.sweepio import SWEEP_HEADER

TEMPS = (0.4, 0.7, 1.2)


def config_dict(noise=0.0, seed=0, thetas=(0.0, 90.0), num=41):
    return {
        "sample_id": "S1",
        "sample": {
            "n_2d_cm2": 2.14e13,
            "mobility_cm2_Vs": 38.9,
            "delta_nm": 0.42,
            "F": 0.5,
        },
        "l_phi_law": {"amplitude_nm": 35.5, "exponent": -0.31},
        "t_sat_K": 0.0,
        "noise": {"relative_sigma": noise, "seed": seed},
        "sweep_plan": [
            {
                "T_bath_K": T,
                "theta_deg": th,
                "B_T": {"start": -2.0, "stop": 2.0, "num": num},
            }
            for T in TEMPS
            for th in thetas
        ],
    }


def write_config(path, **kwargs):
    path.write_text(json.dumps(config_dict(**kwargs)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def sweeps_csv(tmp_path_factory):
    tmpdir = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmpdir / "config.json")
    assert main(["synth", str(cfg), "--out", str(tmpdir)]) == 0
    return tmpdir / "S1_sweeps.csv"


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_synth_writes_files(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json")
    assert main(["synth", str(cfg), "--out", str(tmp_path)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines == [
        str(tmp_path / "S1_sweeps.csv"),
        str(tmp_path / "S1_truth.json"),
    ]
    truth = json.loads((tmp_path / "S1_truth.json").read_text())
    assert truth["sample_id"] == "S1"
    assert truth["F"] == 0.5
    assert truth["t_eff_K"]["0.4"] == 0.4
    assert (tmp_path / "S1_sweeps.csv").stat().st_size > 0


def test_synth_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", noise=0.01, seed=1)
    for sub, seed in [("a", 1), ("b", 1), ("c", 2)]:
        assert main(["synth", str(cfg), "--out", str(tmp_path / sub), "--seed", str(seed)]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "S1_sweeps.csv").read_bytes()
    b = (tmp_path / "b" / "S1_sweeps.csv").read_bytes()
    c = (tmp_path / "c" / "S1_sweeps.csv").read_bytes()
    assert a == b
    assert a != c


def test_hall_section_view(sweeps_csv, capsys):
    code, view = run_json(capsys, ["hall", str(sweeps_csv)])
    assert code == 0
    assert set(view) == {"sample", "hall"}
    assert view["sample"] == "S1"
    assert view["hall"]["status"] == "ok"
    assert view["hall"]["n_2d_m2"]["value"] == pytest.approx(2.14e17, rel=1e-5)


def test_hall_out_file(sweeps_csv, tmp_path, capsys):
    code = main(["hall", str(sweeps_csv), "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    section = tmp_path / "S1_hall.json"
    assert section.read_text(encoding="utf-8") == printed


def test_fit_wl_sections(sweeps_csv, capsys):
    code, view = run_json(capsys, ["fit-wl", str(sweeps_csv)])
    assert code == 0
    assert set(view) == {"sample", "hall", "wl", "powerlaw"}
    fits = view["wl"]["per_temperature"]
    assert [f["T_bath_K"] for f in fits] == sorted(TEMPS)
    assert view["powerlaw"]["exponent"]["value"] == pytest.approx(-0.31, abs=2e-3)


def test_fit_window_restricts_points(sweeps_csv, capsys):
    code, view = run_json(capsys, ["fit-wl", str(sweeps_csv), "--fit-window", "0,1"])
    assert code == 0
    assert all(f["n_points"] == 21 for f in view["wl"]["per_temperature"])


def test_collapse_sections_and_overrides(sweeps_csv, capsys):
    _, base = run_json(capsys, ["collapse", str(sweeps_csv)])
    code, view = run_json(
        capsys, ["collapse", str(sweeps_csv), "--fit-window", "0,1", "--kappa", "1.0"]
    )
    assert code == 0
    assert set(view) == {"sample", "hall", "wl", "collapse"}
    assert all(f["n_points"] == 21 for f in view["wl"]["per_temperature"])
    ratio = view["hall"]["r_s"]["value"] / base["hall"]["r_s"]["value"]
    assert ratio == pytest.approx(1.0 / 3.37, rel=1e-4)
    assert view["collapse"]["anchor_T_bath_K"] == max(TEMPS)


def test_kappa_override(sweeps_csv, capsys):
    _, base = run_json(capsys, ["hall", str(sweeps_csv)])
    _, scaled = run_json(capsys, ["hall", str(sweeps_csv), "--kappa", "1.0"])
    ratio = scaled["hall"]["r_s"]["value"] / base["hall"]["r_s"]["value"]
    assert ratio == pytest.approx(1.0 / 3.37, rel=1e-4)


def test_report_cmd(sweeps_csv, tmp_path, capsys):
    code = main(["report", str(sweeps_csv), "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "S1_report.json")
    report = json.loads((tmp_path / "S1_report.json").read_text())
    assert {k: v["status"] for k, v in report["stages"].items()} == {
        "hall": "ok",
        "wl": "ok",
        "powerlaw": "ok",
        "collapse": "ok",
    }
    assert (tmp_path / "S1_aa_master.csv").exists()


def test_report_exit_1_when_a_stage_degrades(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", thetas=(0.0,))
    assert main(["synth", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["report", str(tmp_path / "S1_sweeps.csv"), "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "S1_report.json").read_text())
    assert report["stages"]["wl"]["status"] == "skipped"


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_zero_resistance_row_is_a_stage_error(sweeps_csv, tmp_path, capsys):
    # an in-plane R_xx of 0 makes one difference-curve point infinite; the WL
    # stage skips that temperature and fits the other two, too few for the
    # power law and the collapse, so the report exits 1
    lines = sweeps_csv.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("S1,0.4,90,1.5,"))
    fields = lines[i].split(",")
    fields[4] = "0"
    lines[i] = ",".join(fields)
    path = tmp_path / "zero.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", str(path), "--out", str(tmp_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    stages = json.loads((tmp_path / "S1_report.json").read_text())["stages"]
    assert stages["hall"]["status"] == "ok"
    assert stages["wl"]["status"] == "ok"
    assert [f["T_bath_K"] for f in stages["wl"]["per_temperature"]] == [0.7, 1.2]
    assert stages["wl"]["skipped"] == [
        {"T_bath_K": 0.4, "reason": "non-finite difference conductivity at B = 1.5 T (R_xx = 0?)"}
    ]
    assert stages["powerlaw"]["status"] == "skipped"
    assert stages["collapse"] == {
        "status": "skipped", "reason": "need WL fits at 3 or more temperatures"
    }


def test_bad_fit_window(sweeps_csv, capsys):
    code = main(["fit-wl", str(sweeps_csv), "--fit-window", "junk"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("deltamag:")
    assert "BMIN,BMAX" in err


def test_missing_input_file(tmp_path, capsys):
    code = main(["hall", str(tmp_path / "nope.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("deltamag:")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "JSON object"),
        ('{"fit_window_T": 5}', "'fit_window_T' must be a list of 2 numbers"),
        ('{"geometry_um": 5}', "'geometry_um' must be a list of 2 numbers"),
        ('{"geometry_um": [200, 20, 5]}', "'geometry_um' must be a list of 2 numbers"),
        ('{"kappa_nm": null}', "'kappa_nm' must be a number"),
        ('{"extrapolate_l_phi": "false"}', "unknown analysis config key 'extrapolate_l_phi'"),
        ('{"kapa_nm": 3.0}', "unknown analysis config key 'kapa_nm'"),
        ('{"h_min": 3.0}', "unknown analysis config key 'h_min'"),
    ],
    ids=["array", "window-number", "geometry-number", "geometry-triple", "kappa-null",
         "extrapolate-string", "unknown-key", "removed-key"],
)
def test_config_must_be_object(sweeps_csv, tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code = main(["hall", str(sweeps_csv), "--config", str(bad)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ({"g": 0}, [], "'g' must be positive, got 0.0"),
        ({"g": -2}, [], "'g' must be positive, got -2.0"),
        ({"kappa_nm": 0.0}, [], "'kappa_nm' must be positive, got 0.0"),
        ({}, ["--kappa", "-1"], "'kappa_nm' must be positive, got -1.0"),
        ({"fit_window_T": [1.5, 0.5]}, [], "'fit_window_T' needs BMIN < BMAX, got [1.5, 0.5]"),
        ({}, ["--fit-window", "1,1"], "'fit_window_T' needs BMIN < BMAX, got [1.0, 1.0]"),
    ],
    ids=["g-zero", "g-negative", "kappa-zero", "kappa-flag", "window-reversed", "window-flag-empty"],
)
def test_config_out_of_range_is_exit_2(sweeps_csv, tmp_path, capsys, recwarn, config, flags, message):
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", str(sweeps_csv), "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert [str(w.message) for w in recwarn] == [] and not out.exists()


@pytest.mark.parametrize(
    "cell",
    ["../escaped", '"a,b"', ".", '"a\nb"'],
    ids=["parent-path", "comma", "dot", "line-break"],
)
def test_unusable_sample_id_is_exit_2(tmp_path, capsys, cell):
    # the id names the report files and is written back as one unquoted cell
    data = tmp_path / "in" / "sweeps.csv"
    data.parent.mkdir()
    rows = [f"{cell},0.4,0,{b},1000,{b},1e-9" for b in (0.0, 0.5, 1.0)]
    data.write_text(SWEEP_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert main(["report", str(data), "--out", str(tmp_path / "out")]) == 2
    assert "cannot name an output file and one CSV cell" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["in", "sweeps.csv"]


def test_synth_rejects_an_unusable_sample_id(tmp_path, capsys):
    cfg = tmp_path / "in" / "config.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps({**config_dict(), "sample_id": "a,b"}), encoding="utf-8")
    assert main(["synth", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "sample_id 'a,b' cannot name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "in"]


@pytest.mark.parametrize("sample_id", [" S1", "S1 "])
def test_synth_rejects_a_sample_id_with_surrounding_blanks(tmp_path, capsys, sample_id):
    # the parser strips every cell, so the written CSV would read back as 'S1'
    cfg = tmp_path / "in" / "config.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps({**config_dict(), "sample_id": sample_id}), encoding="utf-8")
    assert main(["synth", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"sample_id {sample_id!r} cannot name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "in"]


@pytest.mark.parametrize("sample_id", [None, 12, ["S1"]], ids=["null", "number", "list"])
def test_synth_rejects_a_sample_id_that_is_not_a_string(tmp_path, capsys, sample_id):
    # str() would make the samples 'None', '12' and "['S1']"
    cfg = tmp_path / "in" / "config.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps({**config_dict(), "sample_id": sample_id}), encoding="utf-8")
    assert main(["synth", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config key 'sample_id' has the wrong type, got {sample_id!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "in"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: [d], "synth config: expected a JSON object"),
        (lambda d: {**d, "sample": []}, "'sample' has the wrong type"),
        (lambda d: {**d, "sweep_plan": 5}, "'sweep_plan' has the wrong type"),
        (lambda d: {**d, "noise": [1]}, "'noise' has the wrong type"),
        (lambda d: {k: v for k, v in d.items() if k != "l_phi_law"}, "missing key 'l_phi_law'"),
        (lambda d: {**d, "t_sat_K": "0.1"}, "'t_sat_K' must be a number"),
        (lambda d: {**d, "noise": {"seed": math.inf}}, "'seed' must be finite"),
    ],
    ids=["array", "sample-list", "plan-number", "noise-list", "missing-key", "string-number",
         "infinite-seed"],
)
def test_synth_config_errors_name_the_key(tmp_path, capsys, edit, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(config_dict())), encoding="utf-8")
    assert main(["synth", str(bad), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "kwargs, key, value",
    [({"num": 41.9}, "num", 41.9), ({"seed": 1.7}, "seed", 1.7),
     ({"num": -1}, "num", -1), ({"seed": -1}, "seed", -1)],
    ids=["fractional-num", "fractional-seed", "negative-num", "negative-seed"],
)
def test_synth_rejects_a_count_that_is_not_a_non_negative_integer(tmp_path, capsys, kwargs, key, value):
    # int() made 41.9 fields 41 and seed 1.7 seed 1
    cfg = write_config(tmp_path / "config.json", **kwargs)
    assert main(["synth", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config key {key!r} must be a non-negative integer, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_takes_an_integral_float_count(tmp_path):
    # 41.0 is the count 41, as a JSON reader may write it
    cfg = write_config(tmp_path / "config.json", num=41.0, seed=3.0)
    cfg_int = write_config(tmp_path / "config_int.json", num=41, seed=3)
    assert main(["synth", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", str(cfg_int), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "S1_sweeps.csv").read_bytes() == (tmp_path / "b" / "S1_sweeps.csv").read_bytes()


def _misspelled_plan_entry(d, key, where=None):
    """``d`` with a key ``key`` added to its first plan entry, or to that entry's ``where``."""
    first = dict(d["sweep_plan"][0])
    if where:
        first[where] = {**first[where], key: 0.1}
    else:
        first[key] = 0.1
    return {**d, "sweep_plan": [first, *d["sweep_plan"][1:]]}


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: {**d, "tsat_K": 0.2}, "tsat_K"),
        (lambda d: {**d, "sample": {**d["sample"], "dleta_nm": 0.4}}, "dleta_nm"),
        (lambda d: {**d, "l_phi_law": {**d["l_phi_law"], "exponant": -0.3}}, "exponant"),
        (lambda d: {**d, "noise": {**d["noise"], "relative_sgima": 0.01}}, "relative_sgima"),
        (lambda d: {**d, "geometry": {"L_um": 200.0, "W_mu": 20.0}}, "W_mu"),
        (lambda d: _misspelled_plan_entry(d, "T_K"), "T_K"),
        (lambda d: _misspelled_plan_entry(d, "step", "B_T"), "step"),
    ],
    ids=["top", "sample", "l_phi_law", "noise", "geometry", "plan-entry", "B_T"],
)
def test_synth_rejects_an_unknown_key(tmp_path, capsys, edit, key):
    # a misspelled optional key would otherwise leave its default in force, unsaid
    cfg = tmp_path / "in" / "config.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps(edit(config_dict())), encoding="utf-8")
    assert main(["synth", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"unknown synth config key {key!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "in"]


def test_analysis_config_file_is_honored(sweeps_csv, tmp_path, capsys):
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"g": 4.0, "fit_window_T": [0.0, 1.0]}), encoding="utf-8")
    code, view = run_json(capsys, ["collapse", str(sweeps_csv), "--config", str(cfg)])
    assert code == 0
    assert all(f["n_points"] == 21 for f in view["wl"]["per_temperature"])
    # the data were made with g = 2: at g = 4 the same h needs twice the temperature
    for t in view["collapse"]["temperatures"]:
        assert t["T_eff_K"] == pytest.approx(2.0 * t["T_bath_K"], rel=1e-6)


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [("hall", "--seed"), ("synth", "--kappa"), ("collapse", "--h-min"), ("report", "--anchor")],
)
def test_flag_a_command_does_not_read_is_a_usage_error(command, flag, sweeps_csv, tmp_path, capsys):
    infile = write_config(tmp_path / "config.json") if command == "synth" else sweeps_csv
    with pytest.raises(SystemExit) as exc_info:
        main([command, str(infile), flag, "3", "--out", str(tmp_path)])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("deltamag ")


def survey_sample(seed, j, tmp_path):
    """Sample j of the ``hall_survey`` benchmark plan of one survey seed.

    3 T x 2 orientations x 41 points at 1% noise, the noise seeds drawn
    from the survey seed.
    """
    ns = np.random.default_rng(seed).integers(0, 2**31, size=20)[j]
    cfg = dict(config_dict(noise=0.01, seed=int(ns)), sample_id=f"H{j:02d}")
    csv = tmp_path / f"H{j:02d}_sweeps.csv"
    write_sweep_csv(csv, generate_dataset(SynthConfig.from_dict(cfg)))
    return csv


@pytest.mark.parametrize("seed", [501, 502, 503])
def test_collapse_of_small_noisy_samples_reaches_no_cap(seed, tmp_path, capsys):
    """No collapse fit runs into levmar's iteration cap on 20 small samples.

    Seed 502 sample 15 and seed 503 sample 0 once ran 200 iterations and
    reported ``converged: false``.
    """
    for j in range(20):
        code, view = run_json(capsys, ["collapse", str(survey_sample(seed, j, tmp_path))])
        col = view["collapse"]
        assert code == 0 and col["status"] == "ok", (j, col)
        assert col["converged"] and col["reason"] != "max_iter", (j, col["reason"])


def test_collapse_says_when_t_eff_is_not_determined(tmp_path, capsys):
    # the 1.2 K curve of this noise-dominated sample stays below h = 0.2 at
    # its fitted T_eff, which sits on the 30x cap: the report flags it
    _, view = run_json(capsys, ["collapse", str(survey_sample(501, 0, tmp_path))])
    row = {t["T_bath_K"]: t for t in view["collapse"]["temperatures"]}[1.2]
    assert row["at_bound"] is True
    assert row["T_eff_K"] == pytest.approx(30.0 * 1.2)
    assert row["h_max"] < 0.2


def test_hall_reads_a_sweep_that_repeats_its_zero_field(tmp_path, capsys):
    """Each sweep of a 2 T x 2 x 41-point file ends with its B = 0 row again.

    The parser re-sorts it and names the repeated field; sigma0 averages the
    two identical readings, so sigma_xx and n_2d are those of the file
    without the repeat.
    """
    cfg = config_dict(noise=0.01, seed=3)
    cfg["sweep_plan"] = [e for e in cfg["sweep_plan"] if e["T_bath_K"] in (0.4, 1.2)]
    plain = tmp_path / "plain.csv"
    write_sweep_csv(plain, generate_dataset(SynthConfig.from_dict(cfg)))
    header, *rows = plain.read_text().splitlines()
    repeated = [header]
    for k in range(0, len(rows), 41):
        sweep = rows[k:k + 41]
        repeated += sweep + [sweep[20]]
    assert all(row.split(",")[3] == "0" for row in repeated[42::42])
    again = tmp_path / "repeated.csv"
    again.write_text("\n".join(repeated) + "\n")

    _, want = run_json(capsys, ["hall", str(plain)])
    with pytest.warns(UserWarning, match="re-sorted ascending; B = 0 T is read more than once") as caught:
        code, got = run_json(capsys, ["hall", str(again)])
    assert code == 0 and len(caught) == 4
    assert got["hall"]["status"] == "ok"
    assert got["hall"]["n_points"] == want["hall"]["n_points"] + 1
    for key in ("sigma_xx_S", "n_2d_m2"):
        assert got["hall"][key]["value"] == want["hall"][key]["value"]
