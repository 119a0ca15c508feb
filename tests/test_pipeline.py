"""End-to-end pipeline tests on noiseless synthetic data.

With zero measurement noise every stage should reproduce the generating
parameters to numerical precision, so these tests double as a wiring
check for the whole CSV -> report chain.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import deltamag.pipeline as pipeline
from deltamag.cli import SECTION_OF, main
from deltamag import (
    AnalysisConfig,
    Dataset,
    SweepRecord,
    SynthConfig,
    __version__,
    generate_dataset,
    load_datasets,
    parse_sweep_csv,
    run_analysis,
    write_report,
    write_sweep_csv,
)

TEMPS = (0.4, 0.7, 1.0, 1.5)
N_2D_CM2 = 2.14e13
MOBILITY = 38.9          # cm^2/Vs
DELTA_NM = 0.42
AMP_NM = 35.5
EXPONENT = -0.31
F_TRUE = 0.5
GOLDEN = Path(__file__).parent / "golden"


def synth_dict(temps=TEMPS, num=81, **over):
    d = {
        "sample_id": "S1",
        "sample": {
            "n_2d_cm2": N_2D_CM2,
            "mobility_cm2_Vs": MOBILITY,
            "delta_nm": DELTA_NM,
            "F": F_TRUE,
        },
        "l_phi_law": {"amplitude_nm": AMP_NM, "exponent": EXPONENT},
        "t_sat_K": 0.0,
        "noise": {"relative_sigma": 0.0, "seed": 7},
        "sweep_plan": [
            {
                "T_bath_K": T,
                "theta_deg": th,
                "B_T": {"start": -2.0, "stop": 2.0, "num": num},
            }
            for T in temps
            for th in (0.0, 90.0)
        ],
    }
    d.update(over)
    return d


def build_dataset(tmpdir, cfg_dict, analysis=None):
    cfg = SynthConfig.from_dict(cfg_dict)
    path = tmpdir / f"{cfg.sample_id}_sweeps.csv"
    write_sweep_csv(path, generate_dataset(cfg))
    datasets = load_datasets([path], analysis or AnalysisConfig())
    assert len(datasets) == 1
    return cfg, path, datasets[0]


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    tmpdir = tmp_path_factory.mktemp("pipeline")
    cfg, path, ds = build_dataset(tmpdir, synth_dict())
    return {"cfg": cfg, "path": path, "ds": ds, "report": run_analysis(ds)}


def test_all_stages_ok(clean_run):
    statuses = {name: stage["status"] for name, stage in clean_run["report"].stages.items()}
    assert statuses == {
        "hall": "ok",
        "wl": "ok",
        "powerlaw": "ok",
        "collapse": "ok",
    }


def test_hall_stage_recovers_truth(clean_run):
    cfg = clean_run["cfg"]
    hall = clean_run["report"].stages["hall"]
    assert hall["T_K"] == max(TEMPS)  # warmest Hall sweep wins
    assert hall["n_points"] == 81
    assert hall["n_2d_m2"]["value"] == pytest.approx(cfg.n_2d, rel=1e-9)
    assert hall["sigma_xx_S"]["value"] == pytest.approx(cfg.sigma0, rel=1e-9)
    assert hall["mobility_m2_Vs"]["value"] == pytest.approx(cfg.mobility, rel=1e-9)
    assert hall["l_mfp_m"]["value"] == pytest.approx(cfg.l_mfp, rel=1e-9)
    assert hall["kf_l"]["value"] == pytest.approx(cfg.sigma0 / 3.874045865e-5, rel=1e-6)


def test_wl_stage_recovers_coherence_lengths(clean_run):
    cfg = clean_run["cfg"]
    wl = clean_run["report"].stages["wl"]
    fits = wl["per_temperature"]
    assert [f["T_bath_K"] for f in fits] == sorted(TEMPS)
    assert wl["skipped"] == []
    for f in fits:
        assert f["converged"]
        assert f["reason"] in ("gtol", "ftol", "xtol") and f["nfev"] >= 1
        assert f["n_points"] == 81
        assert f["l_phi_m"]["value"] == pytest.approx(
            cfg.l_phi_at(f["T_bath_K"]), rel=1e-6
        )
        assert f["delta_m"]["value"] == pytest.approx(cfg.delta, rel=1e-4)


def test_wl_pooled_thickness(clean_run):
    pooled = clean_run["report"].stages["wl"]["delta_m"]
    assert pooled["value"] == pytest.approx(DELTA_NM * 1e-9, rel=1e-6)
    assert pooled["stderr"] > 0.0


def test_powerlaw_stage(clean_run):
    pl = clean_run["report"].stages["powerlaw"]
    assert pl["T_c_K"] == 0.3
    assert pl["n_points"] == len(TEMPS)
    assert pl["exponent"]["value"] == pytest.approx(EXPONENT, abs=1e-6)
    assert pl["amplitude_m"]["value"] == pytest.approx(AMP_NM * 1e-9, rel=1e-6)


def test_collapse_stage(clean_run):
    col = clean_run["report"].stages["collapse"]
    assert col["anchor_T_bath_K"] == max(TEMPS)
    assert col["h_min"] == 3.0
    temps = col["temperatures"]
    assert [t["T_bath_K"] for t in temps] == sorted(TEMPS)
    for t in temps:
        # t_sat = 0, so every effective temperature is the bath value
        assert t["T_eff_K"] == pytest.approx(t["T_bath_K"], rel=1e-3)
    anchor = [t for t in temps if t["T_bath_K"] == max(TEMPS)][0]
    assert anchor["T_eff_K"] == anchor["T_bath_K"]
    assert anchor["T_eff_stderr_K"] == 0.0  # gauge-fixed
    assert col["converged"] is True
    # summed over both series fits; neither starts at its own optimum
    assert isinstance(col["iterations"], int) and col["iterations"] >= 2
    assert col["nfev"] >= 2 and len(col["reasons"]) == 2
    assert col["dispersion"] < 1e-16
    assert col["dispersion_at_bath"] < 1e-16
    assert col["F"]["value"] == pytest.approx(F_TRUE, abs=5e-3)
    assert col["intercept_check"] == pytest.approx(1.3, rel=2e-2)


def test_plot_tables_present(clean_run):
    plots = clean_run["report"].plots
    assert set(plots) == {"wl_difference", "l_phi", "sigma0", "aa_collapse", "aa_master"}
    for columns in plots.values():
        sizes = {arr.size for _, arr in columns}
        assert len(sizes) == 1 and sizes.pop() > 0
    names = [name for name, _ in plots["wl_difference"]]
    assert names == ["T_bath_K", "B_T", "d_sigma_S", "d_sigma_fit_S"]
    # fitted curve should track the measured difference closely
    cols = dict(plots["wl_difference"])
    assert np.allclose(cols["d_sigma_S"], cols["d_sigma_fit_S"], atol=1e-12)


def golden_dict(sample_id, perp_only):
    d = synth_dict(
        temps=(0.1, 0.2, 0.4, 0.7, 1.0),
        sample_id=sample_id,
        t_sat_K=0.25,
        noise={"relative_sigma": 0.002, "seed": 12},
    )
    if perp_only:
        d["sweep_plan"] = [e for e in d["sweep_plan"] if e["theta_deg"] == 0.0]
    return d


@pytest.mark.parametrize("sample_id, perp_only", [("DEMO1", False), ("PERP1", True)])
def test_report_matches_golden(tmp_path, sample_id, perp_only):
    """Report bytes are pinned across refactors.

    DEMO1 is the demos/05 dataset (seed 12); PERP1 is the same sample with
    its in-plane sweeps dropped. A change that alters reported numbers must
    regenerate tests/golden/<sample>_report.json from run_analysis(...).to_json()
    and say why.
    """
    _, _, ds = build_dataset(tmp_path, golden_dict(sample_id, perp_only))
    golden = GOLDEN / f"{sample_id}_report.json"
    assert run_analysis(ds).to_json() == golden.read_text(encoding="utf-8")


def test_report_json_deterministic(clean_run):
    ds2 = load_datasets([clean_run["path"]], AnalysisConfig())[0]
    assert run_analysis(ds2).to_json() == clean_run["report"].to_json()


def zero_resistance(path, prefix):
    """Set R_xx to 0 on the first row of ``path`` that starts with ``prefix``."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    fields = lines[i].split(",")
    fields[4] = "0"
    lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


VIEW_DATASETS = ("DEMO1", "PERP1", "NOHALL", "ZERO_INPLANE", "ZERO_HALL")


@pytest.fixture(scope="module")
def view_csvs(tmp_path_factory):
    """Sweep files: the two golden datasets, no Hall data, and two R_xx = 0 cells."""
    tmpdir = tmp_path_factory.mktemp("views")
    no_hall = synth_dict(temps=(0.4, 0.7), num=41)
    no_hall["sweep_plan"] = [e for e in no_hall["sweep_plan"] if e["theta_deg"] == 90.0]
    dicts = {
        "DEMO1": golden_dict("DEMO1", False),
        "PERP1": golden_dict("PERP1", True),
        "NOHALL": no_hall,
        "ZERO_INPLANE": synth_dict(temps=(0.4, 0.7, 1.2), num=41),
        "ZERO_HALL": synth_dict(temps=(0.4, 0.7, 1.2), num=41),
    }
    paths = {}
    for name, d in dicts.items():
        path = tmpdir / f"{name}_sweeps.csv"
        write_sweep_csv(path, generate_dataset(SynthConfig.from_dict(d)))
        paths[name] = path
    # one point of one 0.4 K in-plane difference curve becomes infinite
    zero_resistance(paths["ZERO_INPLANE"], "S1,0.4,90,1.5,")
    # the Hall sweep (1.2 K, perpendicular) at B = 0, where sigma0 is extrapolated
    zero_resistance(paths["ZERO_HALL"], "S1,1.2,0,0,")
    return paths


@pytest.mark.parametrize("name", VIEW_DATASETS)
@pytest.mark.parametrize("command", sorted(SECTION_OF))
def test_command_output_matches_full_analysis(view_csvs, tmp_path, capsys, name, command):
    """Each command prints its sections exactly as a full analysis reports them."""
    path = view_csvs[name]
    full = run_analysis(load_datasets([path], AnalysisConfig())[0])
    sections = SECTION_OF[command]
    want_code = 0 if all(full.stages[s]["status"] == "ok" for s in sections) else 1
    if command == "report":
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == want_code
        assert (out / f"{full.sample}_report.json").read_text() == full.to_json()
        write_report(full, tmp_path / "full")
        for csv_path in sorted((tmp_path / "full").glob("*.csv")):
            assert (out / csv_path.name).read_bytes() == csv_path.read_bytes()
        assert len(list(out.iterdir())) == len(list((tmp_path / "full").iterdir()))
    else:
        assert main([command, str(path)]) == want_code
        view = {"sample": full.sample, **{s: full.stages[s] for s in sections}}
        text = json.dumps(pipeline._round_floats(view), sort_keys=True, indent=2)
        assert capsys.readouterr().out == text + "\n"


def test_zero_hall_resistance_is_a_hall_error(view_csvs, capsys):
    assert main(["hall", str(view_csvs["ZERO_HALL"])]) == 1
    hall = json.loads(capsys.readouterr().out)["hall"]
    assert hall["status"] == "error"
    assert "T_bath = 1.2 K, theta = 0 deg" in hall["message"]
    assert "non-positive conductivity" in hall["message"]


def _refuse(*args, **kwargs):
    raise AssertionError("a stage outside the requested sections ran")


@pytest.mark.parametrize(
    "command, stages, refused",
    [
        ("hall", ["hall"], ["fit_wl_difference", "fit_coherence_power_law", "collapse_teff"]),
        ("fit-wl", ["hall", "wl", "powerlaw"], ["collapse_teff", "isolate_aa"]),
        ("collapse", ["hall", "wl", "collapse"], ["fit_coherence_power_law"]),
    ],
    ids=["hall", "fit-wl", "collapse"],
)
def test_commands_run_only_their_stages(view_csvs, monkeypatch, capsys, command, stages, refused):
    for attr in refused:
        monkeypatch.setattr(pipeline, attr, _refuse)
    assert main([command, str(view_csvs["DEMO1"])]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == sorted(["sample", *stages])
    ds = load_datasets([view_csvs["DEMO1"]], AnalysisConfig())[0]
    report = pipeline.run_analysis(ds, SECTION_OF[command])
    assert list(report.stages) == stages


@pytest.mark.parametrize(
    "sections, stages",
    [
        (("powerlaw",), ["hall", "wl", "powerlaw"]),
        (("collapse",), ["hall", "wl", "collapse"]),
        (("collapse", "hall"), ["hall", "wl", "collapse"]),
        ((), []),
    ],
    ids=["powerlaw", "collapse", "collapse-hall", "none"],
)
def test_sections_run_their_upstream_stages(clean_run, sections, stages):
    report = run_analysis(clean_run["ds"], sections)
    assert list(report.stages) == stages
    for name in stages:
        assert report.stages[name] == clean_run["report"].stages[name]


def test_unknown_section_is_rejected(clean_run):
    with pytest.raises(ValueError, match="unknown section"):
        run_analysis(clean_run["ds"], ("hall", "wl_fit"))


PLOTS_DEMO1_SHA256 = "6a437236fba08d040be8b3c147bd6fcef7218fd57e8035df73d9770f8b80d7bd"


def test_plot_tables_of_a_full_run_are_pinned(view_csvs):
    """The plot tables of DEMO1, at 6 significant digits, hash to a fixed digest.

    A change that alters the tables must update the digest and say why.
    """
    report = run_analysis(load_datasets([view_csvs["DEMO1"]], AnalysisConfig())[0])
    tables = {k: [[n, np.asarray(a).tolist()] for n, a in cols] for k, cols in report.plots.items()}
    text = json.dumps(pipeline._round_floats(tables), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PLOTS_DEMO1_SHA256
    # a partial run has the tables its stages support
    hall_only = run_analysis(load_datasets([view_csvs["DEMO1"]], AnalysisConfig())[0], ("hall",))
    assert set(hall_only.plots) == {"sigma0"}


def test_write_report_files(clean_run, tmp_path):
    report = clean_run["report"]
    json_path = write_report(report, tmp_path)
    assert json_path == tmp_path / "S1_report.json"
    assert json_path.read_text(encoding="utf-8") == report.to_json()
    for key in report.plots:
        csv_path = tmp_path / f"S1_{key}.csv"
        assert csv_path.exists()
        with pytest.raises(ValueError, match="plot-data file"):
            parse_sweep_csv(csv_path)
    # a second write produces byte-identical files
    second = tmp_path / "again"
    write_report(report, second)
    assert (second / "S1_report.json").read_bytes() == json_path.read_bytes()
    assert (second / "S1_aa_master.csv").read_bytes() == (
        tmp_path / "S1_aa_master.csv"
    ).read_bytes()


def test_provenance_block(clean_run):
    prov = clean_run["report"].provenance
    path = clean_run["path"]
    assert prov["inputs"] == [
        {"name": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    ]
    assert prov["config"] == clean_run["ds"].config.to_dict()
    assert prov["version"] == __version__
    assert prov["sigma0_method"] == pipeline.SIGMA0_METHOD


def test_round_floats():
    out = pipeline._round_floats(
        {
            "a": 0.123456789,
            "b": [math.nan, math.inf, True, 3],
            "c": {"d": np.float64(1.2345678e-7)},
        }
    )
    assert out["a"] == 0.123457
    assert out["b"] == [None, None, True, 3]
    assert out["b"][2] is True
    assert out["c"]["d"] == 1.23457e-7


def test_config_defaults_and_round_trip():
    cfg = AnalysisConfig()
    assert cfg.g_factor == 2.0
    assert cfg.T_c == 0.3
    assert cfg.h_min == 3.0
    assert cfg.fit_window == (0.0, 2.0)
    assert cfg.kappa == pytest.approx(3.37e9)
    assert cfg.anchor_T is None
    assert AnalysisConfig.from_dict({}) == cfg
    # geometry goes through a um conversion, so allow float round-off there
    rt = AnalysisConfig.from_dict(cfg.to_dict())
    assert rt.geometry.L == pytest.approx(cfg.geometry.L, rel=1e-12)
    assert rt.geometry.W == pytest.approx(cfg.geometry.W, rel=1e-12)
    assert dataclasses.replace(rt, geometry=cfg.geometry) == cfg

    full = AnalysisConfig.from_dict(
        {
            "g": 1.4,
            "T_c_K": 0.5,
            "h_min": 5.0,
            "fit_window_T": [0.1, 1.5],
            "kappa_nm": 2.0,
            "anchor_T_K": 0.7,
            "geometry_um": [100.0, 10.0],
            "extrapolate_l_phi": True,
        }
    )
    assert full.g_factor == 1.4
    assert full.kappa == pytest.approx(2.0e9)
    assert full.anchor_T == 0.7
    assert full.geometry.L == pytest.approx(100e-6, rel=1e-12)
    assert full.geometry.W == pytest.approx(10e-6, rel=1e-12)
    assert full.geometry.squares == pytest.approx(10.0)
    assert full.extrapolate_l_phi is True
    rt = AnalysisConfig.from_dict(full.to_dict())
    assert rt.kappa == pytest.approx(full.kappa, rel=1e-12)
    assert rt.geometry.squares == pytest.approx(full.geometry.squares, rel=1e-12)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@given(
    st.dictionaries(
        st.sampled_from(sorted(AnalysisConfig().to_dict())) | st.text(max_size=6),
        JSON_VALUES,
        max_size=4,
    )
)
def test_config_from_any_json_object(d):
    try:
        cfg = AnalysisConfig.from_dict(d)
    except ValueError:
        return
    assert isinstance(cfg, AnalysisConfig)


def test_dataset_rejects_mismatched_sample():
    rec = SweepRecord("S1", 0.5, 0.0, [0.0, 0.1, 0.2], [10.0, 10.1, 10.2], None, 1e-9)
    with pytest.raises(ValueError, match="differs"):
        Dataset(sample_id="S2", sweeps=[rec], config=AnalysisConfig())


def test_dataset_rejects_odd_orientation():
    rec = SweepRecord("S1", 0.5, 45.0, [0.0, 0.1, 0.2], [10.0, 10.1, 10.2], None, 1e-9)
    with pytest.raises(ValueError, match="unsupported orientation"):
        Dataset(sample_id="S1", sweeps=[rec], config=AnalysisConfig())


def test_perp_only_degrades_gracefully(tmp_path):
    d = synth_dict(temps=(0.4, 0.7, 1.0), num=41)
    d["sweep_plan"] = [e for e in d["sweep_plan"] if e["theta_deg"] == 0.0]
    _, _, ds = build_dataset(tmp_path, d)
    report = run_analysis(ds)
    assert report.stages["hall"]["status"] == "ok"
    wl = report.stages["wl"]
    assert wl["status"] == "skipped"
    assert "both orientations" in wl["reason"]
    for name in ("powerlaw", "collapse"):
        stage = report.stages[name]
        assert stage["status"] == "skipped"
        assert stage["reason"] == "wl stage unavailable"
    # sigma0 traces are still plottable without the model stages
    assert set(report.plots) == {"sigma0"}


def test_no_hall_data_is_an_error(tmp_path):
    d = synth_dict(temps=(0.4, 0.7), num=41)
    d["sweep_plan"] = [e for e in d["sweep_plan"] if e["theta_deg"] == 90.0]
    _, _, ds = build_dataset(tmp_path, d)
    report = run_analysis(ds)
    hall = report.stages["hall"]
    assert hall["status"] == "error"
    assert "no sweep with Hall data" in hall["message"]
    assert report.stages["wl"] == {"status": "skipped", "reason": "hall stage unavailable"}
    # downstream of a skipped stage the skip propagates, naming that stage
    for name in ("powerlaw", "collapse"):
        assert report.stages[name] == {"status": "skipped", "reason": "wl stage unavailable"}


def test_partial_temperatures_are_reported(tmp_path):
    # one unpaired temperature and one pair with too few shared points
    d = synth_dict(temps=(0.4, 0.7, 1.0), num=41)
    d["sweep_plan"].append(
        {"T_bath_K": 2.0, "theta_deg": 0.0, "B_T": {"start": -2.0, "stop": 2.0, "num": 41}}
    )
    for th in (0.0, 90.0):
        d["sweep_plan"].append(
            {"T_bath_K": 3.0, "theta_deg": th, "B_T": {"start": -2.0, "stop": 2.0, "num": 8}}
        )
    _, path, ds = build_dataset(tmp_path, d)
    report = run_analysis(ds)
    wl = report.stages["wl"]
    assert wl["status"] == "ok"
    assert [f["T_bath_K"] for f in wl["per_temperature"]] == [0.4, 0.7, 1.0]
    reasons = {s["T_bath_K"]: s["reason"] for s in wl["skipped"]}
    assert reasons == {
        2.0: "missing orientation pair",
        3.0: "fewer than 10 shared points in window",
    }
    assert report.stages["powerlaw"]["status"] == "ok"
    # the 2 K and 3 K sweeps lie outside the fitted coherence table, so the
    # collapse refuses them unless extrapolation is requested explicitly
    col = report.stages["collapse"]
    assert col["status"] == "error"
    assert "outside the fitted range" in col["message"]

    allow = AnalysisConfig(extrapolate_l_phi=True)
    report2 = run_analysis(load_datasets([path], allow)[0])
    col2 = report2.stages["collapse"]
    assert col2["status"] == "ok"
    assert [t["T_bath_K"] for t in col2["temperatures"]] == [0.4, 0.7, 1.0, 2.0, 3.0]


def test_sigma0_quadratic():
    B = np.linspace(-0.5, 0.5, 11)
    sigma = 2.0e-4 - 3.0e-5 * B + 4.0e-5 * B * B
    R_xx = 10.0 / sigma
    assert pipeline._sigma0_quadratic(B, R_xx, 10.0) == pytest.approx(2.0e-4, rel=1e-12)
    with pytest.raises(ValueError, match="at least 3 points"):
        pipeline._sigma0_quadratic(B[:2], R_xx[:2], 10.0)
    with pytest.raises(ValueError, match="degenerate"):
        pipeline._sigma0_quadratic([0.0, 0.0, 0.1], [10.0, 10.0, 10.0], 10.0)
    for r0 in (0.0, -5.0e4):
        R_flat = np.full(B.size, 5.0e4)
        R_flat[5] = r0  # B = 0
        with pytest.raises(ValueError, match="non-positive conductivity near B = 0"):
            pipeline._sigma0_quadratic(B, R_flat, 10.0)
        R_flat[5] = 5.0e4
        R_flat[0] = r0  # far from B = 0: not used
        assert pipeline._sigma0_quadratic(B, R_flat, 10.0) == pytest.approx(2.0e-4, rel=1e-12)
