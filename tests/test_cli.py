"""Command-line interface: exit codes, output files, section views, flags."""

import json
import math

import numpy as np
import pytest

from deltamag import SynthConfig, generate_dataset, write_sweep_csv
from deltamag.cli import main

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
    code, view = run_json(
        capsys, ["collapse", str(sweeps_csv), "--h-min", "4", "--anchor", "0.4"]
    )
    assert code == 0
    assert set(view) == {"sample", "hall", "wl", "collapse"}
    assert view["collapse"]["h_min"] == 4.0
    assert view["collapse"]["anchor_T_bath_K"] == 0.4


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
    # an in-plane R_xx of 0 makes one difference-curve point infinite
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
    assert stages["wl"]["status"] == "error"
    assert "T_bath = 0.4 K" in stages["wl"]["message"]
    assert "B = 1.5 T" in stages["wl"]["message"]


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
        ('{"extrapolate_l_phi": "false"}', "'extrapolate_l_phi' must be true or false"),
        ('{"kapa_nm": 3.0}', "unknown analysis config key 'kapa_nm'"),
    ],
    ids=["array", "window-number", "geometry-number", "geometry-triple", "kappa-null",
         "extrapolate-string", "unknown-key"],
)
def test_config_must_be_object(sweeps_csv, tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code = main(["hall", str(sweeps_csv), "--config", str(bad)])
    assert code == 2
    assert message in capsys.readouterr().err


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


def test_analysis_config_file_is_honored(sweeps_csv, tmp_path, capsys):
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"h_min": 5.0, "anchor_T_K": 0.7}), encoding="utf-8")
    code, view = run_json(capsys, ["collapse", str(sweeps_csv), "--config", str(cfg)])
    assert code == 0
    assert view["collapse"]["h_min"] == 5.0
    assert view["collapse"]["anchor_T_bath_K"] == 0.7


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("command, flag", [("hall", "--seed"), ("synth", "--kappa")])
def test_flag_a_command_does_not_read_is_a_usage_error(command, flag, sweeps_csv, tmp_path, capsys):
    infile = sweeps_csv if command == "hall" else write_config(tmp_path / "config.json")
    with pytest.raises(SystemExit) as exc_info:
        main([command, str(infile), flag, "3", "--out", str(tmp_path)])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("deltamag ")


@pytest.mark.filterwarnings("ignore:too few master-curve bins")
@pytest.mark.parametrize("seed", [501, 502, 503])
def test_collapse_of_small_noisy_samples_reaches_no_cap(seed, tmp_path, capsys):
    """No collapse fit runs into levmar's iteration cap on 20 small samples.

    These are the samples of the ``hall_survey`` benchmark plan: 3 T x 2
    orientations x 41 points at 1% noise, noise seeds drawn from the survey
    seed. Seed 502 sample 15 (fine fit) and seed 503 sample 0 (coarse fit)
    used to run 200 iterations and report ``converged: false``.
    """
    noise_seeds = np.random.default_rng(seed).integers(0, 2**31, size=20)
    for j, ns in enumerate(noise_seeds):
        cfg = dict(config_dict(noise=0.01, seed=int(ns)), sample_id=f"H{j:02d}")
        csv = tmp_path / f"H{j:02d}_sweeps.csv"
        write_sweep_csv(csv, generate_dataset(SynthConfig.from_dict(cfg)))
        code, view = run_json(capsys, ["collapse", str(csv)])
        col = view["collapse"]
        assert code == 0 and col["status"] == "ok", (j, col)
        assert col["converged"] and "max_iter" not in col["reasons"], (j, col["reasons"])
