"""Release gate: one test per acceptance criterion.

Each test records a PASS/FAIL line through the ``criterion`` fixture; the
collected lines are printed in the terminal summary. Tolerances are part
of the contract and must not be loosened here.
"""

import hashlib
import json
import math

import numpy as np

from deltamag import (
    AaCurve,
    AaParams,
    G0,
    InPlaneParams,
    REFERENCE_LAYERS,
    WlParams,
    collapse_teff,
    digamma,
    fit_coherence_power_law,
    fit_wl_difference,
    gamma_param,
    interaction_rs,
    isolate_aa,
    total_delta_sigma,
    wl_inplane,
    wl_perp,
    zeeman_aa,
)
from deltamag.cli import main

EULER = 0.5772156649015329


def test_01_layer_table_reproduction(criterion):
    """sigma_xx, l and kF*l derived from (n, mu) match the tabulated values."""
    worst = 0.0
    for rec in REFERENCE_LAYERS:
        sp = rec.physics()
        derived = {
            "sigma_xx": sp.sigma_xx / 1e-4,  # back to the table's 1e-4 S/sq
            "l_mfp": sp.l_mfp / 1e-9,
            "kf_l": sp.kf_l,
        }
        for name, got in derived.items():
            quoted, err = getattr(rec, name)
            tol = max(err, 0.015 * quoted)
            worst = max(worst, abs(got - quoted) / tol)
    first, last = REFERENCE_LAYERS[0], REFERENCE_LAYERS[-1]
    anchors = (
        first.l_mfp[0] == 11.7
        and first.kf_l[0] == 40.1
        and last.l_mfp[0] == 2.01
        and last.kf_l[0] == 1.73
        and last.sigma_xx[0] == 0.67
    )
    criterion(
        1,
        "layer table: sigma_xx, l, kF*l from (n, mu) for all 10 rows",
        worst < 1.0 and anchors,
        f"worst deviation {worst:.2f} of allowance",
    )


def test_02_rs_endpoints(criterion):
    rs_dilute = interaction_rs(1.18e17)
    rs_dense = interaction_rs(18.73e17)
    ok = abs(rs_dilute - 5.5) <= 0.1 and abs(rs_dense - 1.4) <= 0.05
    criterion(
        2,
        "interaction strength spans r_s = 1.4 to 5.5",
        ok,
        f"r_s = {rs_dense:.3f} .. {rs_dilute:.3f}",
    )


def test_03_digamma_identities(criterion):
    rng = np.random.default_rng(3)
    anchor = max(
        abs(digamma(1.0) + EULER),
        abs(digamma(0.5) + EULER + 2.0 * math.log(2.0)),
    )
    x = 10.0 ** rng.uniform(-2.0, 3.0, 10_000)
    recurrence = np.max(np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x))
    u = rng.uniform(0.01, 0.99, 10_000)
    reflection = np.max(
        np.abs(digamma(1.0 - u) - digamma(u) - math.pi / np.tan(math.pi * u))
    )
    err = max(anchor, float(recurrence), float(reflection))
    criterion(
        3,
        "digamma values, recurrence and reflection over 1e4 points",
        err <= 1e-10,
        f"max abs error {err:.2e}",
    )


def test_04_wl_lineshape_limits(criterion):
    rng = np.random.default_rng(4)
    # the vanishing-field bound needs lab-scale lengths (B_phi well above
    # 1e-6 T), the saturation bound needs long lengths (B_l far below 1e6 T);
    # no single draw range satisfies both, so each limit gets its own draws
    lphi_s = rng.uniform(20e-9, 180e-9, 100)
    lm_s = rng.uniform(2e-9, 15e-9, 100)
    small = max(
        abs(wl_perp(1e-6, WlParams(lp, lm))) for lp, lm in zip(lphi_s, lm_s)
    )
    lm_l = rng.uniform(1.5e-6, 4e-6, 100)
    lphi_l = lm_l * rng.uniform(1.5, 4.0, 100)
    large = max(
        abs(
            wl_perp(1e6, WlParams(lp, lm))
            - (G0 / math.pi) * math.log(2.0 * lp * lp / (lm * lm))
        )
        for lp, lm in zip(lphi_l, lm_l)
    )
    grid = np.geomspace(1e-6, 1e6, 200)
    monotone = all(
        np.all(np.diff(wl_perp(grid, WlParams(lp, lm))) >= 0.0)
        for lp, lm in list(zip(lphi_s, lm_s)) + list(zip(lphi_l, lm_l))
    )
    ok = small < 1e-9 * G0 and large < 1e-9 * G0 and monotone
    criterion(
        4,
        "WL limits: quadratic vanishing, log saturation, monotone",
        ok,
        f"small {small / G0:.1e} G0, large {large / G0:.1e} G0",
    )


def difference_curve(rec, B):
    n = rec.si("n_2d")
    l_mfp = rec.si("l_mfp")
    l_phi = rec.si("l_phi")
    delta = rec.si("delta")
    gam = gamma_param(delta, n, l_phi, l_mfp)
    clean = wl_perp(np.abs(B), WlParams(l_phi, l_mfp)) - wl_inplane(
        B, InPlaneParams(gam)
    )
    return clean, n, l_mfp, l_phi, delta


def test_05_wl_fit_round_trip(criterion):
    B = np.linspace(-2.0, 2.0, 100)
    worst_l = worst_d = 0.0
    for rec in REFERENCE_LAYERS:
        clean, n, l_mfp, l_phi, delta = difference_curve(rec, B)
        f = fit_wl_difference(B, clean, l_mfp, n)
        worst_l = max(worst_l, abs(f.l_phi.value - l_phi) / l_phi)
        worst_d = max(worst_d, abs(f.delta.value - delta) / delta)
    noiseless_ok = worst_l <= 1e-6 and worst_d <= 1e-6

    # noisy trials on the rows whose curvature supports a 10% thickness
    # readout at 1% noise; 3 x 167 seeds > 500 trials
    ok_l = ok_d = total = 0
    for row in (0, 1, 5):
        clean, n, l_mfp, l_phi, delta = difference_curve(REFERENCE_LAYERS[row], B)
        for seed in range(167):
            rng = np.random.default_rng((row, seed))
            y = clean * (1.0 + 0.01 * rng.standard_normal(B.size))
            f = fit_wl_difference(B, y, l_mfp, n)
            total += 1
            ok_l += abs(f.l_phi.value - l_phi) / l_phi < 0.02
            ok_d += abs(f.delta.value - delta) / delta < 0.10
    noisy_ok = ok_l >= 0.95 * total and ok_d >= 0.95 * total
    criterion(
        5,
        "WL difference fit round trip, noiseless and 1% noise",
        noiseless_ok and noisy_ok,
        f"noiseless <= {max(worst_l, worst_d):.1e}; "
        f"noisy l_phi {ok_l}/{total}, delta {ok_d}/{total}",
    )


def test_06_no_prefactor_guard(criterion):
    B = np.linspace(-2.0, 2.0, 100)
    clean, n, l_mfp, l_phi, delta = difference_curve(REFERENCE_LAYERS[0], B)
    gam = gamma_param(delta, n, l_phi, l_mfp)
    wrong = 1.3 * wl_perp(np.abs(B), WlParams(l_phi, l_mfp)) - wl_inplane(
        B, InPlaneParams(gam)
    )
    scale = np.abs(clean).max()
    two_params = fit_wl_difference(B, clean, l_mfp, n).fit.params.size == 2

    d_cost = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noise = 0.01 * scale * rng.standard_normal(B.size)
        f0 = fit_wl_difference(B, clean + noise, l_mfp, n)
        f1 = fit_wl_difference(B, wrong + noise, l_mfp, n)
        d_cost.append(f1.fit.residual_norm**2 - f0.fit.residual_norm**2)
    d = np.array(d_cost)
    positive = int((d > 0.0).sum())
    t_stat = d.mean() / (d.std(ddof=1) / math.sqrt(d.size))
    ok = two_params and positive >= 95 and t_stat > 10.0
    criterion(
        6,
        "two free parameters; 1.3x prefactor worsens residuals",
        ok,
        f"{positive}/100 positive, paired t = {t_stat:.0f}",
    )


def test_07_power_law_recovery(criterion):
    temps = np.geomspace(0.3, 4.0, 8)
    l_true = 35.5e-9 * temps**-0.31
    hits = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        vals = l_true * (1.0 + 0.03 * rng.standard_normal(temps.size))
        f = fit_coherence_power_law(temps, vals)
        hits += abs(f.exponent.value + 0.31) <= 0.05
    criterion(
        7,
        "coherence power law -0.31 +- 0.05 from 3% noise",
        hits >= 475,
        f"{hits}/500 within band",
    )


def test_08_aa_scale_invariance_and_slope(criterion):
    rng = np.random.default_rng(8)
    aa = AaParams(F=0.5)
    B = 10.0 ** rng.uniform(-3.0, math.log10(2.0), 10_000)
    T = 10.0 ** rng.uniform(math.log10(0.05), math.log10(4.0), 10_000)
    c = 10.0 ** rng.uniform(-1.0, 1.0, 10_000)
    invariance = 0.0
    for Bi, Ti, ci in zip(B, T, c):
        a = zeeman_aa(Bi, Ti, aa)
        b = zeeman_aa(ci * Bi, ci * Ti, aa)
        invariance = max(invariance, abs(a - b) / max(abs(a), abs(b)))

    # F from the collapse fit of g2 curves at four temperatures
    B40 = np.linspace(0.02, 2.0, 40)
    temps = (0.1, 0.2, 0.4, 0.8)
    clean = [AaCurve(T, B40, zeeman_aa(B40, T, aa)) for T in temps]
    clean_err = abs(collapse_teff(clean).F.value - 0.5) / 0.5
    rng = np.random.default_rng(1)
    noisy = [
        AaCurve(T, B40, c.delta_sigma * (1.0 + 0.02 * rng.standard_normal(B40.size)))
        for T, c in zip(temps, clean)
    ]
    noisy_err = abs(collapse_teff(noisy).F.value - 0.5) / 0.5

    ok = invariance <= 1e-12 and clean_err <= 1e-10 and noisy_err <= 0.01
    criterion(
        8,
        "AA curve depends on B/T only; F = 0.5 recovery by the collapse fit",
        ok,
        f"invariance {invariance:.1e}, F err clean {clean_err:.1e} "
        f"noisy {noisy_err:.1e}",
    )


def test_09_effective_temperature_collapse(criterion):
    temps = np.array([0.04, 0.1, 0.2, 0.4, 0.7, 1.0])
    t_sat = 0.25
    true = np.hypot(temps, t_sat)
    B = np.linspace(0.02, 2.0, 120)
    aa = AaParams(F=0.5)
    rng = np.random.default_rng(3)
    noisy = []
    for T, te in zip(temps, true):
        y = zeeman_aa(B, te, aa)
        noisy.append(y + 0.002 * np.abs(y).max() * rng.standard_normal(B.size))
    curves = [AaCurve(T, B, y) for T, y in zip(temps, noisy)]

    res = collapse_teff(curves)
    e_teff = float(np.max(np.abs(res.t_eff / true - 1.0)))
    e_f = abs(res.F.value - 0.5) / 0.5
    q = (res.t_eff / res.t_eff[5]) / (true / true[5])
    e_ratio = float(np.max(np.abs(q - 1.0)))
    ok = e_teff <= 0.05 and e_f <= 0.02 and e_ratio <= 0.02
    criterion(
        9,
        "6-temperature collapse: T_eff 5%, F 2%, ratios to the hottest 2%",
        ok,
        f"T_eff {e_teff:.1%}, F {e_f:.2%}, ratios {e_ratio:.2%}",
    )


def test_10_report_determinism(criterion, tmp_path, capsys):
    cfg = {
        "sample_id": "S1",
        "sample": {
            "n_2d_cm2": 2.14e13,
            "mobility_cm2_Vs": 38.9,
            "delta_nm": 0.42,
            "F": 0.5,
        },
        "l_phi_law": {"amplitude_nm": 35.5, "exponent": -0.31},
        "t_sat_K": 0.0,
        "noise": {"relative_sigma": 0.01, "seed": 42},
        "sweep_plan": [
            {
                "T_bath_K": T,
                "theta_deg": th,
                "B_T": {"start": -2.0, "stop": 2.0, "num": 41},
            }
            for T in (0.4, 0.7, 1.2)
            for th in (0.0, 90.0)
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["synth", str(cfg_path), "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "S1_sweeps.csv"

    codes, digests = [], []
    for sub in ("run1", "run2"):
        outdir = tmp_path / sub
        codes.append(main(["report", str(csv_path), "--out", str(outdir)]))
        digests.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.iterdir())
            }
        )
    capsys.readouterr()
    same = codes[0] == codes[1] and digests[0] == digests[1]
    criterion(
        10,
        "repeated report runs are byte-identical",
        same and "S1_report.json" in digests[0],
        f"{len(digests[0])} files compared",
    )


def test_11_aa_isotropy(criterion):
    rec = REFERENCE_LAYERS[6]
    n = rec.si("n_2d")
    l_mfp = rec.si("l_mfp")
    delta = rec.si("delta")
    amp = rec.si("l_phi")

    def lphi(T):
        return amp * T**-0.31

    temps = (0.1, 0.3, 0.6)
    B = np.linspace(-2.0, 2.0, 41)
    aa = AaParams(F=0.5)
    rng = np.random.default_rng(11)
    by, sigmas = {}, {}
    for T in temps:
        wl = WlParams(lphi(T), l_mfp)
        ip = InPlaneParams(gamma_param(delta, n, lphi(T), l_mfp))
        for theta_deg in (0.0, 90.0):
            y = total_delta_sigma(np.abs(B), theta_deg, T, wl, ip, aa)
            s = 0.01 * np.abs(y).max()
            sweep = (theta_deg, B, y + s * rng.standard_normal(B.size))
            # one orientation per call, so the two residues at a temperature stay apart
            by[(T, theta_deg)] = isolate_aa(T, [sweep], wl.l_phi, ip.gamma, l_mfp).delta_sigma
            sigmas[(T, theta_deg)] = s
    z_max = 0.0
    for T in temps:
        s = math.hypot(sigmas[(T, 0.0)], sigmas[(T, 90.0)])
        z = np.abs(by[(T, 0.0)] - by[(T, 90.0)]) / s
        z_max = max(z_max, float(z.max()))
    criterion(
        11,
        "interaction residue is orientation-independent within noise",
        z_max < 3.0,
        f"max |z| = {z_max:.2f}",
    )
