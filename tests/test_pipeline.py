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
from deltamag.sweepio import FLOAT_FMT, SweepRecord, write_plot_csv
from deltamag import (
    AnalysisConfig,
    Dataset,
    Measured,
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


def test_wl_pooled_thickness_without_converged_fits(clean_run, monkeypatch):
    # no per-temperature fit converged: no pooled thickness, nothing downstream
    real = pipeline.fit_wl_difference

    def unconverged(*args):
        res = real(*args)
        return dataclasses.replace(res, fit=dataclasses.replace(res.fit, converged=False, reason="max_iter"))

    monkeypatch.setattr(pipeline, "fit_wl_difference", unconverged)
    report = run_analysis(clean_run["ds"])
    stages = json.loads(report.to_json())["stages"]
    assert stages["wl"]["status"] == "ok"
    assert stages["wl"]["delta_m"] == {"value": None, "stderr": None}
    assert stages["powerlaw"] == {
        "status": "skipped", "reason": "need at least 3 converged fits above T_c = 0.3 K"
    }
    assert stages["collapse"] == {
        "status": "skipped", "reason": "need WL fits at 3 or more temperatures"
    }


def test_wl_pooled_thickness_with_a_zero_stderr(clean_run, monkeypatch):
    # one fit without a thickness error: the plain mean, with stderr 0
    real = pipeline.fit_wl_difference
    deltas = []

    def exact_first(*args):
        res = real(*args)
        deltas.append(res.delta.value)
        if len(deltas) > 1:
            return res
        return dataclasses.replace(res, delta=Measured(res.delta.value, 0.0))

    monkeypatch.setattr(pipeline, "fit_wl_difference", exact_first)
    pooled = run_analysis(clean_run["ds"], ("wl",)).stages["wl"]["delta_m"]
    assert len(deltas) == len(TEMPS)
    assert pooled == {"value": float(np.mean(deltas)), "stderr": 0.0}


def test_powerlaw_stage(clean_run):
    pl = clean_run["report"].stages["powerlaw"]
    assert pl["T_c_K"] == 0.3
    assert pl["n_points"] == len(TEMPS)
    assert pl["exponent"]["value"] == pytest.approx(EXPONENT, abs=1e-6)
    assert pl["amplitude_m"]["value"] == pytest.approx(AMP_NM * 1e-9, rel=1e-6)


def test_collapse_stage(clean_run):
    col = clean_run["report"].stages["collapse"]
    # no temperature is pinned; the hottest is named for the check below
    assert col["anchor_T_bath_K"] == max(TEMPS)
    temps = col["temperatures"]
    assert [t["T_bath_K"] for t in temps] == sorted(TEMPS)
    for t in temps:
        # t_sat = 0, so every effective temperature is the bath value
        assert t["T_eff_K"] == pytest.approx(t["T_bath_K"], rel=1e-3)
        assert t["T_eff_stderr_K"] > 0.0
        assert t["at_bound"] is False
        # the largest field, 2 T, at the fitted temperature
        assert t["h_max"] == pytest.approx(2.0 * 1.3434 / t["T_eff_K"], rel=1e-4)
    assert col["converged"] is True
    assert isinstance(col["iterations"], int) and col["iterations"] >= 1
    assert col["nfev"] >= 2 and col["reason"] in ("gtol", "ftol", "xtol")
    assert col["dispersion"] < 1e-16
    assert col["dispersion_at_bath"] < 1e-16
    assert col["F"]["value"] == pytest.approx(F_TRUE, abs=5e-3)


def collapse_points_per_temperature(report):
    """{T_bath as the collapse holds it: pooled nonzero-field points}."""
    T, counts = np.unique(dict(report.plots["aa_collapse"])["T_bath_K"], return_counts=True)
    return dict(zip(T.tolist(), counts.tolist()))


def test_collapse_pools_a_pair_read_below_the_9th_decimal():
    # the 0.7 K sweeps read T_bath 3e-11 K high, the in-plane one 1e-12 K above
    # the perpendicular one: one WL pair, and the collapse pools both sweeps at
    # the first sweep's T_bath as read
    T0 = 0.7 + 3e-11
    sweeps = [
        dataclasses.replace(s, T_bath=T0 + (1e-12 if s.theta_deg else 0.0))
        if s.T_bath == 0.7 else s
        for s in generate_dataset(SynthConfig.from_dict(synth_dict()))
    ]
    report = run_analysis(Dataset("S1", sweeps, AnalysisConfig()))
    wl = report.stages["wl"]
    assert [f["T_bath_K"] for f in wl["per_temperature"]] == sorted(TEMPS)
    assert wl["skipped"] == []
    assert report.stages["collapse"]["status"] == "ok"
    # 81 fields from -2 to 2 T per sweep, B = 0 left out
    assert collapse_points_per_temperature(report) == {0.4: 160, T0: 160, 1.0: 160, 1.5: 160}


def test_collapse_leaves_out_an_unconverged_temperature(clean_run, monkeypatch):
    real = pipeline.fit_wl_difference
    calls = []

    def second_unconverged(*args):  # the WL stage fits in ascending T_bath
        res = real(*args)
        calls.append(res)
        if len(calls) != 2:
            return res
        return dataclasses.replace(res, fit=dataclasses.replace(res.fit, converged=False, reason="max_iter"))

    monkeypatch.setattr(pipeline, "fit_wl_difference", second_unconverged)
    report = run_analysis(clean_run["ds"])
    assert [f["converged"] for f in report.stages["wl"]["per_temperature"]] == [True, False, True, True]
    col = report.stages["collapse"]
    assert col["status"] == "ok"
    assert [t["T_bath_K"] for t in col["temperatures"]] == [0.4, 1.0, 1.5]
    assert collapse_points_per_temperature(report) == {0.4: 160, 1.0: 160, 1.5: 160}


def test_report_solver_keys_are_the_fits_own(clean_run, monkeypatch):
    # each WL row, the power law and the collapse hold their levmar FitResult's record
    wl_fits, powerlaws, collapses = [], [], []

    def kept(real, into):
        def call(*args, **kwargs):
            into.append(real(*args, **kwargs))
            return into[-1]
        return call

    monkeypatch.setattr(pipeline, "fit_wl_difference", kept(pipeline.fit_wl_difference, wl_fits))
    monkeypatch.setattr(pipeline, "fit_coherence_power_law", kept(pipeline.fit_coherence_power_law, powerlaws))
    monkeypatch.setattr(pipeline, "collapse_teff", kept(pipeline.collapse_teff, collapses))
    stages = run_analysis(clean_run["ds"]).stages
    rows = stages["wl"]["per_temperature"]
    pairs = [(row, res.fit) for row, res in zip(rows, wl_fits)] + [
        (stages["powerlaw"], powerlaws[0].fit), (stages["collapse"], collapses[0].fit)]
    assert len(pairs) == len(TEMPS) + 2
    for section, fit in pairs:
        for key in ("converged", "iterations", "nfev", "reason"):
            assert type(section[key]) is type(getattr(fit, key)), key
            assert section[key] == getattr(fit, key), key
    assert [row["residual_norm"] for row in rows] == [res.fit.residual_norm for res in wl_fits]


def test_report_does_not_depend_on_the_sweep_direction(tmp_path):
    # 40 fields, -1.95 to 1.95 T, no B = 0: the three fields nearest zero are
    # -0.05, 0.05 and a third of +-0.15 that ties on |B|, whichever way the
    # sweep ran; the down-sweeps are the same readings in reverse order
    fields = [k / 20 for k in range(-39, 40, 2)]
    d = synth_dict(temps=(0.1, 0.2, 0.4, 0.7, 1.0), t_sat_K=0.25,
                   noise={"relative_sigma": 0.002, "seed": 12})
    for entry in d["sweep_plan"]:
        entry["B_T"] = fields
    _, up, ds_up = build_dataset(tmp_path, d)
    down = tmp_path / "down.csv"
    write_sweep_csv(down, [
        dataclasses.replace(s, B=s.B[::-1], R_xx=s.R_xx[::-1],
                            R_xy=None if s.R_xy is None else s.R_xy[::-1])
        for s in parse_sweep_csv(up)
    ])
    (ds_down,) = load_datasets([down], AnalysisConfig())
    assert ds_down.sweeps[0].B[0] == 1.95
    report_up, report_down = run_analysis(ds_up), run_analysis(ds_down)
    assert all(st["status"] == "ok" for st in report_up.stages.values())
    assert report_down.stages == report_up.stages


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


PLOTS_DEMO1_SHA256 = "cb97ae27d3b16c9377394072989a2b0b9055f58d0211646f37d3558bcbaecc3c"


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


def row_by_row_plot_csv(title, columns) -> bytes:
    """A plot table as the per-row ``write_plot_csv`` rendered it, one '%' per row."""
    arrays = [np.asarray(a, dtype=float) for _, a in columns]
    row = ",".join([FLOAT_FMT] * len(arrays))
    lines = [f"# {title}", ",".join(name for name, _ in columns)]
    lines.extend(row % cells for cells in zip(*(a.tolist() for a in arrays)))
    return ("\n".join(lines) + "\n").encode()


EDGE_CELLS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 2.0 / 3.0]
EDGE_TABLES = {
    "no rows": [("a", []), ("b", [])],
    "no columns": [],
    "one row": [("a", [1.5]), ("b", [-0.0]), ("c", [math.nan])],
    "one column": [("a", EDGE_CELLS)],
    "edge cells": [("a", EDGE_CELLS), ("b", EDGE_CELLS[::-1]), ("c", np.arange(len(EDGE_CELLS)))],
}


def test_plot_csvs_are_the_row_by_row_rendering(view_csvs, tmp_path):
    """The one-call table rendering writes the bytes of one '%' per row."""
    report = run_analysis(load_datasets([view_csvs["DEMO1"]], AnalysisConfig())[0])
    write_report(report, tmp_path)
    assert len(report.plots) == 5
    for key, columns in report.plots.items():
        want = row_by_row_plot_csv(key.replace("_", " "), columns)
        assert (tmp_path / f"DEMO1_{key}.csv").read_bytes() == want, key
    for title, columns in EDGE_TABLES.items():
        write_plot_csv(tmp_path / "edge.csv", title, columns)
        assert (tmp_path / "edge.csv").read_bytes() == row_by_row_plot_csv(title, columns), title


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
    assert cfg.fit_window == (0.0, 2.0)
    assert cfg.kappa == pytest.approx(3.37e9)
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
            "fit_window_T": [0.1, 1.5],
            "kappa_nm": 2.0,
            "geometry_um": [100.0, 10.0],
        }
    )
    assert full.g_factor == 1.4
    assert full.kappa == pytest.approx(2.0e9)
    assert full.T_c == 0.5
    assert full.geometry.L == pytest.approx(100e-6, rel=1e-12)
    assert full.geometry.W == pytest.approx(10e-6, rel=1e-12)
    assert full.geometry.squares == pytest.approx(10.0)
    rt = AnalysisConfig.from_dict(full.to_dict())
    assert rt.kappa == pytest.approx(full.kappa, rel=1e-12)
    assert rt.geometry.squares == pytest.approx(full.geometry.squares, rel=1e-12)


def test_readme_config_schema_lists_every_key():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Analysis config schema", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert sorted(json.loads(block)) == sorted(AnalysisConfig().to_dict())


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


def test_dataset_rejects_an_unusable_sample_id():
    with pytest.raises(ValueError, match="cannot name an output file"):
        Dataset(sample_id="../escaped", sweeps=[], config=AnalysisConfig())


def test_dataset_rejects_a_repeated_sweep_key():
    # a second 0.4 K pair, exactly or below the 9th decimal: the WL stage would
    # fit one copy and the collapse pool both
    noisy = {"relative_sigma": 0.002, "seed": 12}
    whole = generate_dataset(SynthConfig.from_dict(synth_dict(num=41, noise=noisy)))
    extra = generate_dataset(
        SynthConfig.from_dict(synth_dict(temps=(0.4,), num=41, noise={**noisy, "seed": 99}))
    )
    message = r"^sweep \(sample 'S1', T_bath = 0.4 K, theta = 0 deg\) appears twice in the dataset$"
    for dT in (0.0, 1e-12):
        again = [dataclasses.replace(s, T_bath=s.T_bath + dT) for s in extra]
        with pytest.raises(ValueError, match=message):
            Dataset(sample_id="S1", sweeps=whole + again, config=AnalysisConfig())


def test_sweep_split_across_files_is_rejected(tmp_path, capsys):
    # a second 0.4 K pair from another noise draw, in a second file: the WL
    # stage would fit one copy and the collapse pool both
    noisy = {"relative_sigma": 0.002, "seed": 12}
    whole = generate_dataset(SynthConfig.from_dict(synth_dict(num=41, noise=noisy)))
    extra = generate_dataset(
        SynthConfig.from_dict(synth_dict(temps=(0.4,), num=41, noise={**noisy, "seed": 99}))
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(a, whole)
    write_sweep_csv(b, extra)
    for first, second in ((a, b), (b, a), (a, a)):
        message = (
            f"^sweep \\(sample 'S1', T_bath = 0.4 K, theta = 0 deg\\) is split across "
            f"{first} and {second}$"
        )
        with pytest.raises(ValueError, match=message):
            load_datasets([first, second], AnalysisConfig())
    assert main(["report", str(a), str(b), "--out", str(tmp_path / "out")]) == 2
    assert "is split across" in capsys.readouterr().err
    # other sweeps may sit in other files
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    write_sweep_csv(c, whole[2:])
    write_sweep_csv(d, whole[:2])
    split = load_datasets([c, d], AnalysisConfig())[0].sweeps
    one = load_datasets([a], AnalysisConfig())[0].sweeps
    assert [(s.T_bath, s.theta_deg, s.B.tobytes(), s.R_xx.tobytes()) for s in split] == [
        (s.T_bath, s.theta_deg, s.B.tobytes(), s.R_xx.tobytes()) for s in one[2:] + one[:2]
    ]


def test_sweep_read_twice_in_one_file_is_rejected(tmp_path, capsys):
    # a second 0.4 K pair 1e-12 K away, from another noise draw, in the same
    # file: the parser keeps it apart, while the 9-decimal key would let the WL
    # stage fit one copy and the collapse pool both
    noisy = {"relative_sigma": 0.002, "seed": 12}
    whole = generate_dataset(SynthConfig.from_dict(synth_dict(num=41, noise=noisy)))
    extra = generate_dataset(
        SynthConfig.from_dict(synth_dict(temps=(0.4,), num=41, noise={**noisy, "seed": 99}))
    )
    for s in extra:
        s.T_bath += 1e-12
    a = tmp_path / "a.csv"
    write_sweep_csv(a, whole + extra)
    assert len(parse_sweep_csv(a)) == 10
    message = f"^sweep \\(sample 'S1', T_bath = 0.4 K, theta = 0 deg\\) appears twice in {a}$"
    with pytest.raises(ValueError, match=message):
        load_datasets([a], AnalysisConfig())
    assert main(["report", str(a), "--out", str(tmp_path / "out")]) == 2
    assert "appears twice in" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    _, _, ds = build_dataset(tmp_path, d)
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
    # the 2 K and 3 K sweeps have no WL fit of their own, so they stay out of
    # the collapse and are named only under wl.skipped
    col = report.stages["collapse"]
    assert col["status"] == "ok"
    assert [t["T_bath_K"] for t in col["temperatures"]] == [0.4, 0.7, 1.0]


def test_zero_resistance_skips_only_its_temperature(tmp_path):
    # an in-plane R_xx of 0 at 0.7 K, B = 1.5 T: one infinite point in one
    # difference curve
    d = synth_dict(num=41)
    _, path, _ = build_dataset(tmp_path, d)
    zero_resistance(path, "S1,0.7,90,1.5,")
    report = run_analysis(load_datasets([path], AnalysisConfig())[0])
    wl = report.stages["wl"]
    assert wl["status"] == "ok"
    assert [f["T_bath_K"] for f in wl["per_temperature"]] == [0.4, 1.0, 1.5]
    assert wl["skipped"] == [
        {"T_bath_K": 0.7, "reason": "non-finite difference conductivity at B = 1.5 T (R_xx = 0?)"}
    ]
    assert report.stages["powerlaw"]["status"] == "ok"
    col = report.stages["collapse"]
    assert col["status"] == "ok"
    assert [t["T_bath_K"] for t in col["temperatures"]] == [0.4, 1.0, 1.5]


def test_zero_resistance_outside_the_window_is_a_collapse_error(tmp_path, recwarn):
    # the 0.7 K fit converges on |B| <= 1.5 T; its in-plane sweep still
    # carries an R_xx of 0 at 1.8 T, which only the collapse reads
    _, path, _ = build_dataset(tmp_path, synth_dict(num=41))
    zero_resistance(path, "S1,0.7,90,1.8,")
    report = run_analysis(load_datasets([path], AnalysisConfig(fit_window=(0.0, 1.5)))[0])
    assert report.stages["wl"]["status"] == "ok"
    assert report.stages["wl"]["skipped"] == []
    assert report.stages["powerlaw"]["status"] == "ok"
    assert report.stages["collapse"] == {
        "status": "error",
        "message": "non-finite conductivity at T_bath = 0.7 K, theta = 90 deg, B = 1.8 T (R_xx = 0?)",
    }
    assert [str(w.message) for w in recwarn] == []


def test_every_temperature_non_finite_skips_the_wl_stage(tmp_path):
    d = synth_dict(temps=(0.4,), num=41)
    _, path, _ = build_dataset(tmp_path, d)
    zero_resistance(path, "S1,0.4,90,1.5,")
    report = run_analysis(load_datasets([path], AnalysisConfig())[0])
    assert report.stages["wl"] == {
        "status": "skipped",
        "reason": "no temperature has both orientations with enough shared, finite points",
    }


def numpy_scalar_sigma0(B, R_xx, squares):
    """The three-point Lagrange sum as it was written on numpy scalars."""
    B = np.asarray(B, dtype=float)
    idx = np.lexsort((B, np.abs(B)))[:3]
    b = B[idx]
    s = squares / np.asarray(R_xx, dtype=float)[idx]
    total = 0.0
    for i in range(3):
        li = 1.0
        for j in range(3):
            if j != i:
                li *= (0.0 - b[j]) / (b[i] - b[j])
        total += s[i] * li
    return float(total)


@given(
    st.integers(3, 82),
    st.sampled_from([(-2.0, 2.0), (2.0, -2.0), (-0.5, 1.5), (0.3, 2.0), (-2.0, -0.1)]),
    st.integers(0, 2**32 - 1),
)
def test_sigma0_is_bitwise_the_numpy_scalar_sum(num, span, seed):
    # ascending and descending grids, odd and even counts: with an even count
    # a symmetric grid has no zero and +B and -B tie on |B|
    B = np.linspace(*span, num)
    R_xx = 1.0e4 * (1.0 + 0.01 * np.random.default_rng(seed).standard_normal(num))
    got = pipeline._sigma0_quadratic(B, R_xx, 3.0)
    assert type(got) is float
    assert got.hex() == numpy_scalar_sigma0(B, R_xx, 3.0).hex()


def test_sigma0_averages_repeated_fields():
    B = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
    R_xx = np.array([1.0, 2.0, 4.0, 2.5, 1.25])
    once = pipeline._sigma0_quadratic(B, R_xx, 8.0)
    # B = 0 read again with the same R_xx: the same bits
    assert pipeline._sigma0_quadratic(np.append(B, 0.0), np.append(R_xx, 4.0), 8.0) == once
    # read again with another R_xx: the mean conductivity, (2 + 4) / 2 = 3 S at B = 0
    again = pipeline._sigma0_quadratic(np.append(B, 0.0), np.append(R_xx, 8.0 / 4.0), 8.0)
    assert again == pytest.approx(once + 1.0, rel=1e-15)
    # a repeat of the third field is found past a field that ties it on |B|
    B3 = np.array([0.1, 0.2, -0.3, 0.3, -0.3])
    R3 = np.array([4.0, 2.0, 1.0, 3.0, 0.5])
    assert pipeline._sigma0_quadratic(B3, R3, 8.0) == pytest.approx(
        pipeline._sigma0_quadratic(B3[:3], np.array([4.0, 2.0, 8.0 / 12.0]), 8.0), rel=1e-15
    )


def test_difference_curve_averages_repeated_fields(tmp_path):
    """Each sweep of a 2 T x 2 x 41-point file reads B = 0 again, 1% higher.

    The difference curve keeps its 41 points, and at B = 0 it is the
    difference of each orientation's mean conductivity over its two readings.
    """
    d = synth_dict(temps=(0.4, 1.2), num=41, noise={"relative_sigma": 0.01, "seed": 3})
    _, plain, _ = build_dataset(tmp_path, d)
    header, *rows = plain.read_text().splitlines()
    repeated = [header]
    for k in range(0, len(rows), 41):
        sweep = rows[k:k + 41]
        again = sweep[20].split(",")
        assert again[3] == "0"
        again[4] = repr(1.01 * float(again[4]))
        repeated += sweep + [",".join(again)]
    path = tmp_path / "repeated.csv"
    path.write_text("\n".join(repeated) + "\n")
    with pytest.warns(UserWarning, match="B = 0 T is read more than once"):
        (ds,) = load_datasets([path], AnalysisConfig())
    squares = ds.config.geometry.squares
    perp, inpl = (s for s in ds.sweeps if s.T_bath == 0.4)
    assert perp.theta_deg == 0.0 and inpl.theta_deg == 90.0 and perp.B.size == 42
    B, d_sigma = pipeline._difference_curve(perp, inpl, squares)
    assert B.size == d_sigma.size == 41
    mean = [np.mean(1.0 / s.R_xx[s.B == 0.0]) for s in (perp, inpl)]
    assert d_sigma[B == 0.0] == pytest.approx(squares * (mean[0] - mean[1]), rel=1e-12)
    # every other field is read once and keeps its bits
    once = B != 0.0
    want = squares * (1.0 / perp.R_xx[perp.B != 0.0] - 1.0 / inpl.R_xx[inpl.B != 0.0])
    assert np.array_equal(d_sigma[once], want)


def field_means(s):
    """Each distinct field of a sweep and the mean conductivity of its readings, by dicts."""
    readings = {}
    for b, g in zip(s.B.tolist(), (1.0 / s.R_xx).tolist()):
        readings.setdefault(b, []).append(g)
    return {b: sum(gs) / len(gs) for b, gs in readings.items()}


def dict_difference_curve(perp, inpl, squares):
    """The difference on the fields both sweeps read exactly, paired through dicts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g_p, g_i = field_means(perp), field_means(inpl)
        common = sorted(g_p.keys() & g_i.keys())
        d = squares * (np.array([g_p[b] for b in common]) - np.array([g_i[b] for b in common]))
    return np.array(common, dtype=float), d


def interp_difference_curve(perp, inpl, squares):
    """The difference at each perpendicular field inside the in-plane range, the
    in-plane per-field means interpolated there by np.interp."""
    g_p, g_i = field_means(perp), field_means(inpl)
    b_i = sorted(g_i)
    B = np.array([b for b in sorted(g_p) if b_i[0] <= b <= b_i[-1]])
    d = squares * (np.array([g_p[b] for b in B]) - np.interp(B, b_i, [g_i[b] for b in b_i]))
    return B, d


def difference_sweep(rng, theta, B, R_xx=None):
    R_xx = 100.0 * (1.0 + 0.01 * rng.standard_normal(len(B))) if R_xx is None else R_xx
    return SweepRecord("S", 0.4, theta, B, R_xx, None, 1e-8)


def assert_bitwise(got, want, name):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_difference_curve_is_bitwise_the_dict_pairing():
    # on fields the two orientations read exactly alike, np.interp returns the
    # in-plane knot values, so the curve is the exact pairing bit for bit
    rng = np.random.default_rng(21)
    grid = np.linspace(-2.0, 2.0, 81)
    repeated = np.r_[grid[:50], 0.0, 0.0, grid[10:30:3], -0.05]
    zero_cell = 100.0 * np.ones(81)
    zero_cell[[7, 40]] = 0.0
    cases = {
        "shared grid": (grid, grid[::-1], None, None),  # the in-plane sweep runs down
        "repeated readings": (repeated, np.r_[repeated[::-1], 0.0], None, None),
        "R_xx = 0": (grid, grid, zero_cell, np.where(grid == 0.0, 0.0, 99.0)),
    }
    for name, (b_p, b_i, r_p, r_i) in cases.items():
        perp, inpl = difference_sweep(rng, 0.0, b_p, r_p), difference_sweep(rng, 90.0, b_i, r_i)
        got = pipeline._difference_curve(perp, inpl, 7.5)
        assert_bitwise(got, dict_difference_curve(perp, inpl, 7.5), name)
        if name == "R_xx = 0":  # each zero marks only its own point
            assert np.isnan(got[1]).sum() == 1 and np.isinf(got[1]).sum() == 1


def test_difference_curve_interpolates_the_in_plane_sweep():
    rng = np.random.default_rng(21)
    grid = np.linspace(-2.0, 2.0, 81)
    cases = {
        # a down sweep whose readbacks sit 3e-10 T above the perpendicular fields
        "readback offset": (grid[::-1] + 3e-10, 80),
        # off-grid readbacks and a field past the end: B = -2 T is below the in-plane range
        "mismatched grids": (np.r_[grid[::2] + 1e-6, grid[1::4], 2.5], 80),
    }
    perp = difference_sweep(rng, 0.0, grid)
    for name, (b_i, size) in cases.items():
        inpl = difference_sweep(rng, 90.0, b_i)
        got = pipeline._difference_curve(perp, inpl, 7.5)
        assert_bitwise(got, interp_difference_curve(perp, inpl, 7.5), name)
        assert got[0].size == size, name
        np.testing.assert_array_equal(got[0], grid[1:])
    # an in-plane conductivity linear in B is interpolated exactly
    inpl = difference_sweep(rng, 90.0, grid[::3] + 1e-6, 1.0 / (0.01 + 1e-4 * (grid[::3] + 1e-6)))
    B, d = pipeline._difference_curve(perp, inpl, 7.5)
    g_p = 1.0 / perp.R_xx[np.searchsorted(grid, B)]
    np.testing.assert_allclose(d, 7.5 * (g_p - 0.01 - 1e-4 * B), rtol=1e-12)
    # an empty sweep overlaps nothing
    empty = difference_sweep(rng, 90.0, [])
    for pair in ((perp, empty), (empty, perp), (empty, empty)):
        B, d = pipeline._difference_curve(*pair, 7.5)
        assert B.size == d.size == 0


def jittered(sweeps, seed):
    """The sweeps with each in-plane readback 1 uT above or below its field."""
    rng = np.random.default_rng(seed)
    return [
        dataclasses.replace(s, B=s.B + 1e-6 * rng.choice([-1.0, 1.0], s.B.size))
        if s.theta_deg == 90.0 else s
        for s in sweeps
    ]


@pytest.mark.parametrize("seed", [12, 13])
def test_jittered_in_plane_readbacks_fit_every_temperature(seed):
    """In-plane readbacks 1 uT off the perpendicular fields share no field with
    them; interpolating the in-plane sweep still fits every temperature, and
    l_phi and delta agree with the fit on aligned fields within one stderr."""
    cfg = SynthConfig.from_dict(
        synth_dict(temps=(0.1, 0.2, 0.4, 0.7, 1.0), t_sat_K=0.25,
                   noise={"relative_sigma": 0.002, "seed": seed})
    )
    sweeps = generate_dataset(cfg)
    aligned, shifted = (
        run_analysis(Dataset("S1", sw, AnalysisConfig()), ("wl",)).stages["wl"]
        for sw in (sweeps, jittered(sweeps, seed))
    )
    assert shifted["status"] == aligned["status"] == "ok"
    assert shifted["skipped"] == []
    assert len(shifted["per_temperature"]) == len(aligned["per_temperature"]) == 5
    for a, j in zip(aligned["per_temperature"], shifted["per_temperature"]):
        assert j["T_bath_K"] == a["T_bath_K"] and j["converged"]
        assert j["n_points"] >= 79  # a readback above -2 T or below 2 T drops that end
        for key in ("l_phi_m", "delta_m"):
            assert abs(j[key]["value"] - a[key]["value"]) <= j[key]["stderr"], key
    delta = shifted["delta_m"]
    assert abs(delta["value"] - aligned["delta_m"]["value"]) <= delta["stderr"]


def test_sparse_in_plane_sweep_is_skipped():
    # the 0.7 K in-plane sweep reads 9 distinct fields, each twice: interpolation
    # would cover all 81 perpendicular fields, but does not stand in for it
    sweeps = generate_dataset(SynthConfig.from_dict(synth_dict()))
    sparse = [
        dataclasses.replace(s, B=np.repeat(s.B[::10], 2), R_xx=np.repeat(s.R_xx[::10], 2))
        if (s.T_bath, s.theta_deg) == (0.7, 90.0) else s
        for s in sweeps
    ]
    wl = run_analysis(Dataset("S1", sparse, AnalysisConfig()), ("wl",)).stages["wl"]
    assert wl["status"] == "ok"
    assert [f["T_bath_K"] for f in wl["per_temperature"]] == [0.4, 1.0, 1.5]
    assert wl["skipped"] == [{"T_bath_K": 0.7, "reason": "fewer than 10 shared points in window"}]


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
