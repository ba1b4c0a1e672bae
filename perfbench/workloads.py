"""Workload inputs and the timed operations that run them.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  A workload is a fixed list of
operations (one *round*) generated from the seed; a run repeats whole rounds
until its time is up, so every run attempts the same operations in the same
proportions.

Operations reach the program through module attributes (``sweep.run_sweep``,
``protocol.evaluate_chain``, ...) rather than names bound at import, so that
the traced run can rebind them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import jn_zeros

from repeaterscope import channel, coupling, protocol, sweep
from repeaterscope.channel import LinkBudget
from repeaterscope.protocol import ProtocolConfig
from repeaterscope.states import NoiseParams

# the worker count of the README's --threads examples on a 2-core host
SWEEP_THREADS = 2

# sampled grid rows whose depth choice is re-derived after the timed loop
DEPTH_CHECK_ROWS = 3

CHAIN_WIDTHS = (16, 1024, 4096)
# depths at which the drawn parameters give a schedule without (with) a
# distillation: at n <= 1 no draw distills, at n >= 9 every draw does
PLAIN_DEPTHS = tuple(range(0, 9))
DISTILLING_DEPTHS = tuple(range(2, 11))
CHAIN_DRAWS_PER_CELL = 2

FACET_GEOMETRIES = 64  # seeded, after the two `couple` fibers
FACET_V_MIN = 1.6
CUTOFF_V = float(jn_zeros(0, 1)[0])  # first zero of J0: the single-mode cutoff
FACET_WAVELENGTHS_NM = (780.0, 1550.0)
# the `repeaterscope couple` defaults: 26 tilt points on [0, 0.05] rad
FACET_THETAS = tuple(float(t) for t in np.linspace(0.0, 0.05, 26))


@dataclass(frozen=True)
class Operation:
    """One timed call: ``run()`` returns the output the checks inspect."""

    run: Callable[[], Any]
    items: int  # grid points, chain evaluations or facet scans it produces


@dataclass(frozen=True)
class SweepInput:
    spec: sweep.SweepSpec
    threads: int
    check_rows: tuple[int, ...]  # row indices re-derived by the depth check


@dataclass(frozen=True)
class ChainInput:
    config: ProtocolConfig
    distills: bool  # whether the static schedule distills at some level


@dataclass(frozen=True)
class FacetInput:
    fiber: coupling.StepIndexFiber
    wavelength_nm: float
    v: float


@dataclass(frozen=True)
class FacetScan:
    """Output of one facet scan, as ``repeaterscope couple`` computes it."""

    mode: coupling.ModeSolution
    waist_um: float
    eta_tilted: tuple[float, ...]  # at FACET_THETAS, facet factor excluded
    facet: float
    eta_hcf: tuple[float, ...]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _grid_size(spec: sweep.SweepSpec) -> int:
    return (
        len(spec.media)
        * len(spec.total_distance_km)
        * len(spec.conv_eff)
        * len(spec.eta_hardware)
        * len(spec.t2_s)
        * len(spec.eps_g)
    )


def _sweep_input(spec: sweep.SweepSpec, threads: int, rng) -> SweepInput:
    rows = rng.choice(_grid_size(spec), size=DEPTH_CHECK_ROWS, replace=False)
    return SweepInput(spec, threads, tuple(sorted(int(r) for r in rows)))


def fig5_inputs(seed: int, threads: int = 1) -> list[SweepInput]:
    """The fixed `fig5` grid; the seed only picks the depth-checked rows."""
    rng = np.random.default_rng(seed)
    return [_sweep_input(sweep.figure_preset("fig5"), threads, rng)]


def memory_inputs(seed: int) -> list[SweepInput]:
    """A 30-point slice of `skr_curves`: both media, all three T2 values.

    One distance is drawn from each block of four consecutive `skr_curves`
    distances, so every seed spans the same range and costs about the same.
    """
    rng = np.random.default_rng(seed)
    full = sweep.figure_preset("skr_curves")
    blocks = [full.total_distance_km[i : i + 4] for i in range(0, 20, 4)]
    distances = tuple(float(rng.choice(block)) for block in blocks)
    spec = dataclasses.replace(
        full, total_distance_km=distances, conv_eff=(0.5,), eps_g=(1e-3,)
    )
    return [_sweep_input(spec, 1, rng)]


def sweep_operation(item: SweepInput) -> Operation:
    def run() -> str:
        rows = sweep.run_sweep(item.spec, threads=item.threads)
        return sweep.rows_to_csv(rows)

    return Operation(run, _grid_size(item.spec))


# ---------------------------------------------------------------------------
# single chains
# ---------------------------------------------------------------------------


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _draw_chain(rng, medium: str, n: int, m: int) -> ChainInput:
    budget = LinkBudget(
        eta_hardware=float(rng.uniform(0.5, 1.0)),
        conv_eff=float(rng.uniform(0.3, 1.0)),
        l0_km=_log_uniform(rng, 5.0, 80.0),
    )
    noise = NoiseParams(_log_uniform(rng, 1e-4, 1e-2), t2=_log_uniform(rng, 0.01, 10.0))
    config = ProtocolConfig(
        medium=channel.default_media()[medium], budget=budget, noise=noise, n=n, m=m
    )
    return ChainInput(config, any(protocol.build_schedule(config).distill_flags))


def chain_inputs(seed: int) -> list[ChainInput]:
    """Chains over every (m, n, medium, distills) cell, two draws per cell.

    Spacing, efficiencies, gate error and T2 are drawn from the seed; a draw
    is repeated until the schedule distills (or does not) as its cell asks,
    so every seed holds the same mix of widths, depths and schedules.
    """
    rng = np.random.default_rng(seed)
    cells = [(n, False) for n in PLAIN_DEPTHS] + [(n, True) for n in DISTILLING_DEPTHS]
    chains = []
    for m in CHAIN_WIDTHS:
        for n, distills in cells:
            for medium in ("HCF", "SMF"):
                for _ in range(CHAIN_DRAWS_PER_CELL):
                    for _attempt in range(10_000):
                        chain = _draw_chain(rng, medium, n, m)
                        if chain.distills == distills:
                            break
                    else:
                        raise RuntimeError(
                            f"no draw gives distills={distills} at m={m}, n={n}"
                        )
                    chains.append(chain)
    return chains


def chain_operation(item: ChainInput) -> Operation:
    return Operation(lambda: protocol.evaluate_chain(item.config), 1)


# ---------------------------------------------------------------------------
# facet coupling
# ---------------------------------------------------------------------------


def _facet_input(v: float, na: float, wavelength: float, ar: bool) -> FacetInput:
    fiber = coupling.StepIndexFiber(
        core_radius_um=v * wavelength * 1e-3 / (2.0 * math.pi * na),
        n1=coupling.SILICA_INDEX,
        n2=math.sqrt(coupling.SILICA_INDEX**2 - na**2),
        ar_coated=ar,
    )
    return FacetInput(fiber, wavelength, v)


def facet_inputs(seed: int) -> list[FacetInput]:
    """Single-mode step-index silica fibers, V up to the cutoff, NA 0.08-0.2.

    Every round starts with the fiber `repeaterscope couple` builds
    (``coupling.near_cutoff_smf``: V at the cutoff, NA 0.08, AR-coated) at
    each wavelength.  The seeded fibers follow: V and NA drawn as a Latin
    hypercube (one draw in each of 64 equal slices of either range, paired
    at random), half of them at each wavelength and half AR-coated, so that
    every seed spans the same geometries and a round costs about the same
    whatever the seed.
    """
    rng = np.random.default_rng(seed)
    k = FACET_GEOMETRIES

    def strata(lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k

    vs, nas = strata(FACET_V_MIN, CUTOFF_V), strata(0.08, 0.20)
    wavelengths = rng.permutation(np.resize(FACET_WAVELENGTHS_NM, k))
    coated = rng.permutation(np.arange(k) % 2 == 0)
    out = [
        FacetInput(coupling.near_cutoff_smf(wavelength), wavelength, CUTOFF_V)
        for wavelength in FACET_WAVELENGTHS_NM
    ]
    for v, na, wavelength, ar in zip(vs, nas, wavelengths, coated):
        out.append(_facet_input(float(v), float(na), float(wavelength), bool(ar)))
    return out


def facet_operation(item: FacetInput) -> Operation:
    """Mode solve, waist optimisation and tilt scan, as `couple` runs them."""

    def run() -> FacetScan:
        fiber, wavelength = item.fiber, item.wavelength_nm
        mode = coupling.fiber_mode(fiber, wavelength)
        waist, _ = coupling.optimize_waist(fiber, mode)
        beam = coupling.GaussianBeam(waist_um=waist, wavelength_nm=wavelength)
        tilted = tuple(coupling.tilted_eta(beam, fiber, mode, t) for t in FACET_THETAS)
        hcf = tuple(coupling.effective_coupling("HCF", t) for t in FACET_THETAS)
        return FacetScan(
            mode=mode,
            waist_um=waist,
            eta_tilted=tilted,
            facet=coupling.facet_transmission(fiber),
            eta_hcf=hcf,
        )

    return Operation(run, 1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], list]
    operation: Callable[[Any], Operation]


WORKLOADS = {
    "fig5_sweep": Workload(fig5_inputs, sweep_operation),
    "fig5_threaded": Workload(lambda seed: fig5_inputs(seed, SWEEP_THREADS), sweep_operation),
    "memory_sweep": Workload(memory_inputs, sweep_operation),
    "wide_chains": Workload(chain_inputs, chain_operation),
    "facet_scan": Workload(facet_inputs, facet_operation),
}
