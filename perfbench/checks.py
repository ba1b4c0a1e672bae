"""Output checks, computed apart from the program.

Each check returns a list of failure messages; an empty list means the
outputs passed.  The physical constants below are the model's inputs as the
README states them (attenuation lengths, facet couplings, signal velocity),
so link probabilities, thresholds and closed forms are recomputed here from
first principles rather than read back from the program.  Two checks use
the program on purpose: the depth-choice check re-evaluates every depth of a
sampled grid point with ``protocol.evaluate_chain`` to test the sweep's
argmax, and the distilling-chain check compares against the Monte-Carlo
sampler in ``oracle``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
from scipy.special import j0, j1, k0, k1
from scipy.stats import binom

MEMORY_NM = 780
TELECOM_NM = 1550
ATT_LENGTH_KM = {"SMF": {TELECOM_NM: 28.95}, "HCF": {MEMORY_NM: 24.127, TELECOM_NM: 78.96}}
FACET_COUPLING = {"SMF": 0.83, "HCF": 0.79}
SIGNAL_VELOCITY_KMS = 2.0e5

# relative tolerances: a value recomputed with the same formula in another
# order, and a closed form against the count recursion (which agree to about
# 2e-13 over the drawn chains; a 1e-6 error must still be caught)
SAME_FORMULA_RTOL = 1e-12
CLOSED_FORM_RTOL = 1e-9
# Monte-Carlo agreement, in standard errors
MC_SIGMAS = 5.0
MC_TRIALS = 40_000
MC_SAMPLE = 3
# tilt factor against the Marcuse Gaussian estimate, relative, up to the
# 0.025 rad design tolerance; the drawn fibers stay within 0.27% there (the
# estimate drifts further, to about 1.7%, by 0.05 rad)
MARCUSE_RTOL = 0.005
MARCUSE_MAX_THETA = 0.025
# the fundamental-mode root: residual bound, or a sign change this many
# float steps either side of it
MODE_RESIDUAL = 1e-9
ROOT_ULPS = 4


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def link_pi0(medium: str, wavelength: int, eta_hw: float, conv: float, l0: float) -> float:
    """pi0 = 1/2 (eta_hw c conv)^2 exp(-l0/L), conversion paid at 1550 nm only."""
    eta = eta_hw * FACET_COUPLING[medium] * (conv if wavelength == TELECOM_NM else 1.0)
    return 0.5 * eta * eta * math.exp(-l0 / ATT_LENGTH_KM[medium][wavelength])


def wavelength_choices(medium: str, eta_hw: float, conv: float, l0: float) -> dict[int, float]:
    """Acceptable wavelengths and their pi0: the argmax, ties going to 1550 nm.

    When the two candidates agree to rounding either one is accepted, since
    the program may round its products in another order.
    """
    pi0 = {wl: link_pi0(medium, wl, eta_hw, conv, l0) for wl in ATT_LENGTH_KM[medium]}
    best = max(pi0, key=lambda wl: (pi0[wl], wl == TELECOM_NM))
    return {
        wl: p for wl, p in pi0.items() if wl == best or _close(p, pi0[best], SAME_FORMULA_RTOL)
    }


def conversion_threshold(l0: float) -> float:
    att = ATT_LENGTH_KM["HCF"]
    return math.exp(-l0 / 2.0 * (1.0 / att[MEMORY_NM] - 1.0 / att[TELECOM_NM]))


def _h(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def single_link_key_fraction(eps_g: float, l0: float, t2: float) -> float:
    """BB84 fraction 1 - h(e_X) - h(e_Z) of the dephased Werner link state.

    The Werner state of fidelity 1 - 1.25 eps_g waits l0/v for its herald;
    dephasing mixes phi+ with phi- by (1 - lam), lam = (1 + exp(-2t/T2))/2.
    e_Z is the psi weight, e_X the phi- plus psi- weight.
    """
    fid = 1.0 - 1.25 * eps_g
    rest = (1.0 - fid) / 3.0
    lam = 0.5 * (1.0 + math.exp(-2.0 * (l0 / SIGNAL_VELOCITY_KMS) / t2))
    phi_minus = lam * rest + (1.0 - lam) * fid
    e_z = 2.0 * rest
    e_x = phi_minus + rest
    return max(0.0, 1.0 - _h(e_x) - _h(e_z))


def plain_chain_forms(m: int, n: int, pi0: float) -> tuple[float, float]:
    """Completion and expected end pairs of a chain that never distills.

    Each of the N = 2**n links holds K ~ Binomial(m, pi0) pairs and the chain
    completes when every K >= 1; the end count is the minimum over links:
    completion = P(K>=1)^N and E[end] = completion sum_k (P(K>=k)/P(K>=1))^N.
    """
    links = 1 << n
    at_least = binom.sf(np.arange(m), m, pi0)  # P(K >= k), k = 1..m
    first = at_least[0]
    completion = first**links
    return float(completion), float(completion * np.sum((at_least / first) ** links))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep_rows(spec, text: str) -> list[str]:
    """Grid order and the per-row identities of every emitted row."""
    rows = parse_csv(text)
    failures = []
    grid = list(
        itertools.product(
            spec.media, spec.total_distance_km, spec.conv_eff, spec.eta_hardware,
            spec.t2_s, spec.eps_g,
        )
    )
    keys = ("medium", "total_distance_km", "conv_eff", "eta_hardware", "t2_s", "eps_g")
    got = [(r["medium"], *(float(r[k]) for k in keys[1:])) for r in rows]
    if got != grid:
        failures.append(f"rows do not walk the grid in order ({len(rows)} rows, {len(grid)} points)")
    for i, r in enumerate(rows):
        medium = r["medium"]
        dist, l0, n = float(r["total_distance_km"]), float(r["best_l0_km"]), int(r["best_n"])
        wl = int(r["wavelength_used_nm"])
        skr, comp = float(r["skr_pcu"]), float(r["completion_prob"])
        ops, thr = float(r["ops_per_secret_bit"]), float(r["conv_eff_threshold"])
        where = f"row {i} ({medium}, {dist:g} km)"
        if l0 * (1 << n) != dist:
            failures.append(f"{where}: best_l0_km * 2**best_n = {l0 * (1 << n)!r} != {dist!r}")
        choices = wavelength_choices(medium, float(r["eta_hardware"]), float(r["conv_eff"]), l0)
        if wl not in choices:
            failures.append(f"{where}: wavelength {wl} nm, expected {sorted(choices)}")
            continue
        if medium == "HCF":
            if not _close(thr, conversion_threshold(l0), SAME_FORMULA_RTOL):
                failures.append(f"{where}: threshold {thr!r} != {conversion_threshold(l0)!r}")
        elif not math.isnan(thr):
            failures.append(f"{where}: threshold {thr!r} on a single-wavelength medium")
        if not 0.0 <= comp <= 1.0:
            failures.append(f"{where}: completion_prob {comp!r} outside [0, 1]")
        bound = choices[wl] / (1 << n) * (1.0 + SAME_FORMULA_RTOL)
        if not 0.0 <= skr <= bound:
            failures.append(f"{where}: skr_pcu {skr!r} outside [0, pi0/2**n = {bound!r}]")
        if math.isinf(ops) != (skr == 0.0):
            failures.append(f"{where}: ops_per_secret_bit {ops!r} with skr_pcu {skr!r}")
    return failures


def check_depth_choice(spec, text: str, row_indices) -> list[str]:
    """No depth in ``n_range`` beats the chosen one; ties keep the smaller n."""
    from repeaterscope import channel, protocol
    from repeaterscope.channel import LinkBudget
    from repeaterscope.states import NoiseParams

    rows = parse_csv(text)
    media = channel.default_media()
    failures = []
    for i in row_indices:
        r = rows[i]
        dist, best_n, skr = float(r["total_distance_km"]), int(r["best_n"]), float(r["skr_pcu"])
        by_depth = {}
        for n in spec.n_range:
            config = protocol.ProtocolConfig(
                medium=media[r["medium"]],
                budget=LinkBudget(float(r["eta_hardware"]), float(r["conv_eff"]), dist / (1 << n)),
                noise=NoiseParams(float(r["eps_g"]), t2=float(r["t2_s"])),
                n=n,
                m=spec.m,
                f_th=spec.f_th,
            )
            by_depth[n] = protocol.evaluate_chain(config).skr_pcu
        if by_depth.get(best_n) != skr:
            failures.append(f"row {i}: skr_pcu {skr!r} != {by_depth.get(best_n)!r} at n={best_n}")
        better = [n for n, v in by_depth.items() if v > skr or (v == skr and n < best_n)]
        if better:
            failures.append(f"row {i}: depths {better} beat the chosen n={best_n}")
    return failures


# ---------------------------------------------------------------------------
# single chains
# ---------------------------------------------------------------------------


def _chain_pi0(config) -> dict[int, float]:
    b = config.budget
    return wavelength_choices(config.medium.name, b.eta_hardware, b.conv_eff, b.l0_km)


def check_chain(item, point) -> list[str]:
    """Bounds for every chain; closed forms at n = 0 and without distillation."""
    config = item.config
    where = f"chain ({config.medium.name}, m={config.m}, n={config.n}, l0={config.budget.l0_km:.6g})"
    choices = _chain_pi0(config)
    if point.wavelength_used_nm not in choices:
        return [f"{where}: wavelength {point.wavelength_used_nm} nm, expected {sorted(choices)}"]
    pi0 = choices[point.wavelength_used_nm]
    failures = []
    skr, comp = point.skr_pcu, point.completion_prob
    if not 0.0 <= comp <= 1.0:
        failures.append(f"{where}: completion_prob {comp!r} outside [0, 1]")
    if not 0.0 <= skr <= pi0 / (1 << config.n) * (1.0 + SAME_FORMULA_RTOL):
        failures.append(f"{where}: skr_pcu {skr!r} outside [0, pi0/2**n]")
    if config.n == 0:
        noise = config.noise
        expected = pi0 * single_link_key_fraction(noise.eps_g, config.budget.l0_km, noise.t2)
        if not _close(skr, expected, CLOSED_FORM_RTOL):
            failures.append(f"{where}: skr_pcu {skr!r} != pi0 * key fraction {expected!r}")
    if not item.distills:
        completion, end_pairs = plain_chain_forms(config.m, config.n, pi0)
        if not _close(comp, completion, CLOSED_FORM_RTOL):
            failures.append(f"{where}: completion_prob {comp!r} != closed form {completion!r}")
        if not _close(point.expected_end_pairs, end_pairs, CLOSED_FORM_RTOL):
            failures.append(
                f"{where}: expected_end_pairs {point.expected_end_pairs!r} != closed form {end_pairs!r}"
            )
    return failures


def oracle_sample(items, seed: int) -> list[int]:
    """Seeded sample of distilling chains cheap enough to replay by Monte Carlo.

    Candidates have n <= 4 and at least ten pairs per link on average
    (m * pi0 >= 10), so that enough trials stay clean to estimate the mean.
    """
    candidates = []
    for i, item in enumerate(items):
        c = item.config
        if item.distills and c.n <= 4 and c.m * max(_chain_pi0(c).values()) >= 10.0:
            candidates.append(i)
    rng = np.random.default_rng([seed, 1])
    size = min(MC_SAMPLE, len(candidates))
    return sorted(int(i) for i in rng.choice(candidates, size=size, replace=False))


def check_chain_oracle(item, point, seed: int) -> list[str]:
    """Completion and mean end pairs against ``oracle.mc_cascade``."""
    from repeaterscope import protocol
    from repeaterscope.cascade import CascadeConfig
    from repeaterscope.oracle import MonteCarloConfig, mc_cascade

    config = item.config
    where = f"chain ({config.medium.name}, m={config.m}, n={config.n})"
    schedule = protocol.build_schedule(config)
    cascade_config = CascadeConfig(
        n=config.n,
        m=config.m,
        pi0=_chain_pi0(config)[point.wavelength_used_nm],
        distill_flags=schedule.distill_flags,
        distill_success=schedule.distill_success,
    )
    mc = mc_cascade(cascade_config, MonteCarloConfig(trials=MC_TRIALS, seed=seed))
    failures = []
    comp, comp_se = mc.completion_estimate()
    if abs(point.completion_prob - comp) > MC_SIGMAS * comp_se + 1e-9:
        failures.append(
            f"{where}: completion {point.completion_prob!r} vs Monte Carlo {comp:.6f} +- {comp_se:.2g}"
        )
    if mc.clean_trials < 100 or point.completion_prob <= 0.0:
        return failures + [f"{where}: too few clean Monte-Carlo trials ({mc.clean_trials})"]
    counts = np.arange(len(mc.end_histogram))
    mean = float(counts @ mc.end_histogram) / mc.clean_trials
    sd = math.sqrt(max(float(counts**2 @ mc.end_histogram) / mc.clean_trials - mean**2, 0.0))
    mean_se = max(sd, 1.0) / math.sqrt(mc.clean_trials)
    analytic = point.expected_end_pairs / point.completion_prob
    if abs(analytic - mean) > MC_SIGMAS * mean_se:
        failures.append(f"{where}: end pairs per completed burst {analytic!r} vs Monte Carlo {mean:.4f} +- {mean_se:.2g}")
    return failures


# ---------------------------------------------------------------------------
# facet coupling
# ---------------------------------------------------------------------------


def marcuse_tilt_factor(core_radius_um: float, v: float, wavelength_nm: float, theta: float) -> float:
    """exp(-(pi w_M theta / lambda)^2), w_M = a (0.65 + 1.619 V^-1.5 + 2.879 V^-6)."""
    w_m = core_radius_um * (0.65 + 1.619 * v**-1.5 + 2.879 * v**-6)
    return math.exp(-((math.pi * w_m * theta / (wavelength_nm * 1e-3)) ** 2))


def lp01_mismatch(u: float, v: float) -> float:
    """u J1(u)/J0(u) - w K1(w)/K0(w) with w = sqrt(v^2 - u^2)."""
    w = math.sqrt(v * v - u * u)
    return u * j1(u) / j0(u) - w * k1(w) / k0(w)


def is_mode_root(u: float, v: float, ulps: int = ROOT_ULPS) -> bool:
    """The characteristic residual at u is at most 1e-9, or the mismatch
    changes sign within a few float steps of u.

    The second form accepts a root where the mismatch is so steep that no
    float lands within 1e-9 of zero, as it is where U nears the first zero
    of J0.
    """
    residual = lp01_mismatch(u, v)
    if abs(residual) <= MODE_RESIDUAL:
        return True
    step = ulps * math.ulp(u)
    below, above = lp01_mismatch(u - step, v), lp01_mismatch(u + step, v)
    return math.isfinite(below) and math.isfinite(above) and below * above <= 0.0


def check_facet(item, scan, thetas) -> list[str]:
    """Mode root, efficiency bounds, monotone tilt loss, zero-tilt identity
    and the Marcuse estimate of the tilt factor."""
    from repeaterscope import coupling

    fiber = item.fiber
    where = f"fiber (a={fiber.core_radius_um:.4f} um, V={item.v:.4f}, {item.wavelength_nm:g} nm)"
    failures = []
    if not is_mode_root(scan.mode.u, item.v):
        residual = lp01_mismatch(scan.mode.u, item.v)
        failures.append(f"{where}: characteristic residual {residual!r} at u={scan.mode.u!r}")
    if not _close(scan.mode.v, item.v, CLOSED_FORM_RTOL):
        failures.append(f"{where}: mode V {scan.mode.v!r} != {item.v!r}")
    etas = scan.eta_tilted
    for name, values in (("tilted", etas), ("HCF", scan.eta_hcf)):
        if not all(0.0 <= e <= 1.0 for e in values):
            failures.append(f"{where}: {name} efficiency outside [0, 1]")
        if any(b > a for a, b in zip(values, values[1:])):
            failures.append(f"{where}: {name} efficiency rises with tilt")
    fresnel = 1.0 if fiber.ar_coated else 1.0 - ((fiber.n1 - 1.0) / (fiber.n1 + 1.0)) ** 2
    if not _close(scan.facet, fresnel, SAME_FORMULA_RTOL):
        failures.append(f"{where}: facet transmission {scan.facet!r} != {fresnel!r}")
    beam = coupling.GaussianBeam(waist_um=scan.waist_um, wavelength_nm=item.wavelength_nm)
    if etas[0] != coupling.overlap_eta(beam, fiber, scan.mode):
        failures.append(f"{where}: tilted_eta at 0 rad differs from overlap_eta")
    for theta, eta in zip(thetas, etas):
        if theta > MARCUSE_MAX_THETA:
            break
        estimate = marcuse_tilt_factor(fiber.core_radius_um, item.v, item.wavelength_nm, theta)
        if not _close(eta / etas[0], estimate, MARCUSE_RTOL):
            failures.append(
                f"{where}: tilt factor {eta / etas[0]:.6f} at {theta:.4f} rad vs Marcuse {estimate:.6f}"
            )
            break
    return failures


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def check_round(inputs, outputs, seed: int) -> list[str]:
    """Run every check that applies to one round's inputs and outputs."""
    from repeaterscope import sweep
    from workloads import FACET_THETAS, ChainInput, FacetInput, SweepInput

    failures = []
    done = [(item, out) for item, out in zip(inputs, outputs) if out is not None]
    for item, out in done:
        if isinstance(item, SweepInput):
            failures += check_sweep_rows(item.spec, out)
            failures += check_depth_choice(item.spec, out, item.check_rows)
            if item.threads > 1 and out != sweep.rows_to_csv(sweep.run_sweep(item.spec)):
                failures.append(f"CSV with {item.threads} threads differs from the serial CSV")
        elif isinstance(item, ChainInput):
            failures += check_chain(item, out)
        elif isinstance(item, FacetInput):
            failures += check_facet(item, out, FACET_THETAS)
    if inputs and isinstance(inputs[0], ChainInput):
        for i in oracle_sample(inputs, seed):
            if outputs[i] is not None:
                failures += check_chain_oracle(inputs[i], outputs[i], seed)
    return failures
