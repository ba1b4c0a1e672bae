"""Acceptance suite: one test per criterion, one printed line per criterion.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The shared comparison grid (criteria 8-10) and the telecom-only HCF grid
(criterion 9) are evaluated once per module.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from repeaterscope import coupling as cp
from repeaterscope.cascade import CascadeConfig, _paired_rows, run_cascade_batch
from repeaterscope.channel import (
    LinkBudget,
    MEMORY_NM,
    TELECOM_NM,
    conversion_threshold,
    elementary_success,
    hcf_profile,
    select_wavelength,
    smf_profile,
)
from repeaterscope.oracle import MonteCarloConfig, dm_dejmps, dm_swap, mc_cascade
from repeaterscope.states import (
    BellDiagonal,
    NoiseParams,
    apply_dephasing,
    dejmps,
    swap,
)
from repeaterscope.sweep import figure_preset, run_sweep, rows_to_csv


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def comparison_grid():
    """Depth-optimized rows over the headline grid, keyed by (medium, point)."""
    t0 = time.perf_counter()
    rows = run_sweep(figure_preset("fig5"))
    elapsed = time.perf_counter() - t0
    table = {}
    for row in rows:
        table[(row.medium, row.total_distance_km, row.conv_eff, row.eps_g)] = row
    return table, elapsed


@pytest.fixture(scope="module")
def telecom_hcf_grid():
    """HCF restricted to 1550 nm on the comparison grid, keyed by point."""
    hcf = hcf_profile()
    telecom_hcf = dataclasses.replace(
        hcf, att_length_km={TELECOM_NM: hcf.att_length_km[TELECOM_NM]}
    )
    spec = dataclasses.replace(figure_preset("fig5"), media=("HCF",))
    rows = run_sweep(spec, media_profiles={"HCF": telecom_hcf})
    return {(row.total_distance_km, row.conv_eff, row.eps_g): row for row in rows}


def test_criterion_1_mode_solver():
    best = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        mode = cp.solve_characteristic(2.405)
        best = min(best, time.perf_counter() - t0)
    ok = (
        abs(mode.u - 1.645) <= 0.005
        and abs(mode.w - 1.754) <= 0.005
        and best < 1e-3
    )
    report(1, ok, f"U={mode.u:.4f} W={mode.w:.4f} runtime={best * 1e3:.3f} ms")


def test_criterion_2_coupling_optimum():
    mode = cp.solve_characteristic(2.405)
    fiber = cp.StepIndexFiber(core_radius_um=5.0, n1=1.45, n2=1.449)
    t0 = time.perf_counter()
    w_opt, eta_opt = cp.optimize_waist(fiber, mode)
    elapsed = time.perf_counter() - t0
    ratio = w_opt / fiber.core_radius_um
    ok = abs(eta_opt - 0.997) <= 0.002 and abs(ratio - 1.09) <= 0.02 and elapsed < 1.0
    report(2, ok, f"eta_opt={eta_opt:.4f} w_opt/a={ratio:.4f} runtime={elapsed:.2f} s")


def test_criterion_3_fresnel():
    t = cp.fresnel_transmission(1.0, 1.45)
    ok = abs(t - 0.9663) <= 1e-4
    report(3, ok, f"T={t:.6f}")


def test_criterion_4_smf_facet_efficiency():
    fiber = cp.near_cutoff_smf(1550.0, ar_coated=True)
    eta = cp.effective_coupling(fiber, 0.025, 1550.0)
    ok = abs(eta - 0.83) <= 0.05
    report(4, ok, f"eta(0.025 rad)={eta:.4f}")


def test_criterion_5_cascade_vs_monte_carlo():
    t0 = time.perf_counter()
    worst_tv = 0.0
    worst_dev = 0.0
    for pi0 in (0.1, 0.3, 0.7):
        for flags, succ in (
            ((False, False, False), (1.0, 1.0, 1.0)),
            ((True, False, False), (0.9, 1.0, 1.0)),
        ):
            config = CascadeConfig(
                n=2, m=16, pi0=pi0, distill_flags=flags, distill_success=succ
            )
            analytic = run_cascade_batch([config])
            mc = mc_cascade(config, MonteCarloConfig(trials=1_000_000, seed=20260809))
            a = analytic.p_cond[-1][0]
            e = mc.end_distribution
            width = max(len(a), len(e))
            pa = np.zeros(width)
            pa[: len(a)] = a
            pe = np.zeros(width)
            pe[: len(e)] = e
            worst_tv = max(worst_tv, 0.5 * float(np.abs(pa - pe).sum()))
            comp, comp_se = mc.completion_estimate()
            dev = abs(analytic.completion_prob[0] - comp) / max(comp_se, 1e-12)
            worst_dev = max(worst_dev, dev)
    elapsed = time.perf_counter() - t0
    ok = worst_tv < 0.01 and worst_dev <= 3.0 and elapsed < 60.0
    report(
        5,
        ok,
        f"max TV={worst_tv:.5f} max completion dev={worst_dev:.2f} SE "
        f"runtime={elapsed:.1f} s",
    )


def test_criterion_6_closed_forms_vs_density_matrix():
    rng = np.random.default_rng(20260809)
    noiseless = NoiseParams(0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        v1 = rng.random(4) + 1e-3
        v2 = rng.random(4) + 1e-3
        s1 = BellDiagonal(*(v1 / v1.sum()))
        s2 = BellDiagonal(*(v2 / v2.sum()))
        swap_closed = swap(s1, s2, noiseless)
        swap_dense, _ = dm_swap(s1, s2)
        worst = max(
            worst,
            max(
                abs(x - y)
                for x, y in zip(swap_closed.as_tuple(), swap_dense.as_tuple())
            ),
        )
        dej_closed, p_closed = dejmps(s1, s2, noiseless)
        dej_dense, p_dense = dm_dejmps(s1, s2)
        worst = max(
            worst,
            abs(p_closed - p_dense),
            max(
                abs(x - y)
                for x, y in zip(dej_closed.as_tuple(), dej_dense.as_tuple())
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    report(6, ok, f"max deviation={worst:.2e} runtime={elapsed:.1f} s")


def test_criterion_7_wavelength_boundary():
    hcf = hcf_profile()
    smf = smf_profile()
    worst = 0.0
    for l0 in np.linspace(1.0, 100.0, 67):
        def gap(conv, l0=l0):
            budget = LinkBudget(eta_hardware=1.0, conv_eff=conv, l0_km=float(l0))
            return elementary_success(hcf, budget, 780) - elementary_success(
                hcf, budget, TELECOM_NM
            )

        closed = conversion_threshold(hcf, float(l0))
        numeric = brentq(gap, 1e-9, 1.0, xtol=1e-14, rtol=8.9e-16)
        worst = max(worst, abs(closed - numeric))
    smf_ok = all(
        select_wavelength(
            smf, LinkBudget(eta_hardware=1.0, conv_eff=conv, l0_km=l0)
        )[0]
        == TELECOM_NM
        for conv in (0.1, 0.5, 1.0)
        for l0 in (1.0, 20.0, 80.0)
    )
    ok = worst < 1e-9 and smf_ok
    report(7, ok, f"max |closed - numeric|={worst:.2e}, SMF always 1550 nm={smf_ok}")


def test_criterion_8_headline_dominance(comparison_grid):
    table, elapsed = comparison_grid
    violations = []
    for (medium, dist, conv, eps), row in table.items():
        if medium != "HCF":
            continue
        smf_row = table[("SMF", dist, conv, eps)]
        if row.skr_pcu < smf_row.skr_pcu:
            violations.append((dist, conv, eps))
    ok = not violations and elapsed < 600.0
    report(
        8,
        ok,
        f"HCF >= SMF on {80 - len(violations)}/80 points, "
        f"violations={violations}, grid runtime={elapsed:.0f} s",
    )


def test_criterion_9_spacing_claim(comparison_grid, telecom_hcf_grid):
    # The paper scopes the spacing claim to telecom transmission ("even at
    # telecom wavelengths, HCF enables larger optimal repeater spacing").
    table, _ = comparison_grid
    violations = []
    positive = 0
    all_telecom = all(
        row.wavelength_used_nm == TELECOM_NM for row in telecom_hcf_grid.values()
    )
    for point, row in telecom_hcf_grid.items():
        smf_row = table[("SMF", *point)]
        if row.skr_pcu > 0 and smf_row.skr_pcu > 0:
            positive += 1
            if row.best_l0_km < smf_row.best_l0_km:
                violations.append((*point, row.best_l0_km, smf_row.best_l0_km))
    # Under the adaptive wavelength choice HCF may run memory-native, where
    # its attenuation length (24.127 km) is shorter than SMF's at 1550 nm
    # (28.95 km), so a tighter spacing can pay off; only there may it win
    # with a smaller spacing than SMF.
    tighter = []
    for (medium, dist, conv, eps), row in table.items():
        if medium != "HCF":
            continue
        smf_row = table[("SMF", dist, conv, eps)]
        if (
            row.skr_pcu > 0
            and smf_row.skr_pcu > 0
            and row.best_l0_km < smf_row.best_l0_km
        ):
            tighter.append(((dist, conv, eps), row.wavelength_used_nm))
    memory_native = [point for point, wl in tighter if wl == MEMORY_NM]
    ok = all_telecom and not violations and len(memory_native) == len(tighter)
    report(
        9,
        ok,
        f"best_l0(HCF@1550) >= best_l0(SMF) on {positive - len(violations)}/"
        f"{positive} positive-key points, violations={violations}, "
        f"HCF always 1550 nm={all_telecom}; adaptive HCF tighter on "
        f"{len(tighter)} points, memory-native exceptions={memory_native}",
    )


def test_criterion_10_ops_per_key(comparison_grid):
    table, _ = comparison_grid
    satisfied = 0
    positive = 0
    for (medium, dist, conv, eps), row in table.items():
        if medium != "HCF":
            continue
        smf_row = table[("SMF", dist, conv, eps)]
        if row.skr_pcu > 0 and smf_row.skr_pcu > 0:
            positive += 1
            # a zero-op chain (n = 0) trivially wins the comparison
            if (
                row.ops_per_secret_bit == 0.0
                or smf_row.ops_per_secret_bit / row.ops_per_secret_bit >= 1.0
            ):
                satisfied += 1
    frac = satisfied / positive if positive else 0.0
    ok = frac >= 0.95
    report(10, ok, f"ratio >= 1 on {satisfied}/{positive} points ({frac:.1%})")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(99)
    noise = NoiseParams(0.01)
    checks = []

    # state normalization and non-negativity through every channel
    for _ in range(200):
        v1, v2 = rng.random(4) + 1e-6, rng.random(4) + 1e-6
        s1 = BellDiagonal(*(v1 / v1.sum()))
        s2 = BellDiagonal(*(v2 / v2.sum()))
        for out in (
            swap(s1, s2, noise),
            dejmps(s1, s2, noise)[0],
            apply_dephasing(s1, rng.random(), 1.0),
        ):
            checks.append(abs(sum(out.as_tuple()) - 1.0) <= 1e-12)
            checks.append(min(out.as_tuple()) >= 0.0)

    # dephasing semigroup
    for _ in range(50):
        v = rng.random(4) + 1e-6
        s = BellDiagonal(*(v / v.sum()))
        t1, t2 = rng.random(), rng.random()
        once = apply_dephasing(s, t1 + t2, 1.0)
        twice = apply_dephasing(apply_dephasing(s, t1, 1.0), t2, 1.0)
        checks.append(
            max(abs(a - b) for a, b in zip(once.as_tuple(), twice.as_tuple()))
            <= 1e-12
        )

    # swap convolution identity and commutativity
    ident = BellDiagonal(1, 0, 0, 0)
    noiseless = NoiseParams(0.0)
    for _ in range(50):
        v1, v2 = rng.random(4) + 1e-6, rng.random(4) + 1e-6
        s1 = BellDiagonal(*(v1 / v1.sum()))
        s2 = BellDiagonal(*(v2 / v2.sum()))
        checks.append(
            max(
                abs(a - b)
                for a, b in zip(
                    swap(ident, s1, noiseless).as_tuple(), s1.as_tuple()
                )
            )
            <= 1e-12
        )
        forward = swap(s1, s2, noise)
        backward = swap(s2, s1, noise)
        checks.append(
            max(
                abs(a - b)
                for a, b in zip(forward.as_tuple(), backward.as_tuple())
            )
            <= 1e-12
        )

    # distribution unit mass and brute-force pairing-minimum equivalence
    for _ in range(50):
        width = int(rng.integers(1, 10))
        raw = rng.random(width) + 1e-9
        probs = raw / raw.sum()
        paired, _ = _paired_rows(probs[None, :])
        out = paired[0] / paired[0].sum()
        checks.append(abs(out.sum() - 1.0) <= 1e-10)
        brute = np.zeros(width)
        for j1 in range(width):
            for j2 in range(width):
                brute[min(j1, j2)] += probs[j1] * probs[j2]
        checks.append(float(np.abs(out - brute).max()) <= 1e-12)

    # CSV determinism
    spec = figure_preset("fig3")
    small = type(spec)(
        media=("HCF", "SMF"),
        total_distance_km=(10.0, 20.0),
        conv_eff=(0.5, 1.0),
        eps_g=(1e-3,),
        n_range=(0,),
        m=64,
    )
    csv_a = rows_to_csv(run_sweep(small, threads=1))
    csv_b = rows_to_csv(run_sweep(small, threads=3))
    checks.append(csv_a == csv_b)

    ok = all(checks)
    report(11, ok, f"{sum(checks)}/{len(checks)} property checks hold")
