"""Static per-level schedule and end-to-end evaluation of one chain.

The schedule is precomputed once on representative (mean) states: starting
from the heralded elementary-link state, each level first waits out its
classical-confirmation time (dephasing), then distills if the fidelity has
dropped below the threshold and channel capacity permits, then swaps upward.
The resulting flags and success probabilities feed the count recursion; the
secret-key rate per channel use divides the expected secret bits of a burst
by all of its channel uses, M multiplexed attempts on each of the N
elementary links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import metrics
from .cascade import CascadeConfig, end_pairs_bound, run_cascade_batch
from .channel import LinkBudget, MediumProfile, select_wavelength
from .states import (
    BellDiagonal,
    NoiseParams,
    apply_dephasing,
    dejmps,
    initial_state,
    key_fraction,
    swap,
)

# deepest nesting the model is evaluated at: 2**12 links.  Each swap level
# doubles the rounding in the schedule's Bell coefficient sum, so far deeper
# chains (n = 19 at eps_g 0.1) fail the states' sum check.
MAX_DEPTH = 12


def check_depth(n: int) -> None:
    """Reject a nesting depth outside ``[0, MAX_DEPTH]``."""
    if not 0 <= n <= MAX_DEPTH:
        raise ValueError(f"nesting depth must lie in [0, {MAX_DEPTH}], got {n}")


@dataclass(frozen=True)
class ProtocolConfig:
    """One chain configuration: medium, link budget, noise, depth, width."""

    medium: MediumProfile
    budget: LinkBudget
    noise: NoiseParams
    n: int
    m: int
    f_th: float = 0.95

    def __post_init__(self) -> None:
        check_depth(self.n)
        if self.m < 1:
            raise ValueError("multiplexing width must be at least 1")
        if not 0.0 <= self.f_th <= 1.0:
            raise ValueError("fidelity threshold must lie in [0, 1]")


@dataclass(frozen=True)
class LevelStep:
    """Trace entry for one nesting level of the precomputed schedule."""

    level: int
    wait_s: float
    pre_state: BellDiagonal
    distilled: bool
    distill_success: float
    post_state: BellDiagonal

    @property
    def fidelity(self) -> float:
        return self.post_state.fidelity()


@dataclass(frozen=True)
class LevelTrace:
    steps: tuple[LevelStep, ...]

    @property
    def end_state(self) -> BellDiagonal:
        return self.steps[-1].post_state

    @property
    def distill_flags(self) -> tuple[bool, ...]:
        return tuple(s.distilled for s in self.steps)

    @property
    def distill_success(self) -> tuple[float, ...]:
        return tuple(s.distill_success for s in self.steps)


@dataclass(frozen=True)
class PerformancePoint:
    """Evaluated chain outcome for one configuration."""

    skr_pcu: float
    expected_end_pairs: float
    completion_prob: float
    end_state: BellDiagonal
    ops: metrics.OpCounts
    wavelength_used_nm: int
    l0_km: float
    n: int
    m: int
    mass_defect: float = 0.0
    diagnostic: str | None = None


def wait_time(level: int, l0_km: float, velocity_kms: float) -> float:
    """Classical-signaling wait at a level, in seconds.

    Level 0 waits one link length for the midpoint herald; level i waits the
    confirmation time across its 2**i-link span.
    """
    return (1 << level) * l0_km / velocity_kms


def build_schedule(config: ProtocolConfig) -> LevelTrace:
    """Precompute per-level states, distillation flags and success probs.

    Distillation is scheduled at a level when the arriving fidelity falls
    below ``f_th`` and at least two pairs of capacity remain; the top level
    never distills.
    """
    l0 = config.budget.l0_km
    velocity = config.medium.signal_velocity_kms
    state = initial_state(config.noise.eps_g)
    width = config.m
    steps: list[LevelStep] = []
    for level in range(config.n + 1):
        wait = wait_time(level, l0, velocity)
        state = apply_dephasing(state, wait, config.noise.t2)
        pre = state
        distilled = False
        succ = 1.0
        if (
            level < config.n
            and pre.fidelity() < config.f_th
            and width >= 2
        ):
            distilled = True
            state, succ = dejmps(state, state, config.noise)
            width //= 2
        steps.append(
            LevelStep(
                level=level,
                wait_s=wait,
                pre_state=pre,
                distilled=distilled,
                distill_success=succ,
                post_state=state,
            )
        )
        if level < config.n:
            state = swap(state, state, config.noise)
    return LevelTrace(steps=tuple(steps))


def cascade_config(config: ProtocolConfig, trace: LevelTrace, pi0: float) -> CascadeConfig:
    """The count-recursion input of a chain, from its schedule and ``pi0``."""
    return CascadeConfig(
        n=config.n,
        m=config.m,
        pi0=pi0,
        distill_flags=trace.distill_flags,
        distill_success=trace.distill_success,
    )


def evaluate_chain(config: ProtocolConfig) -> PerformancePoint:
    """Full evaluation: wavelength choice, schedule, count recursion, SKR."""
    return plan_chains([config]).evaluate()[0]


@dataclass(frozen=True)
class ChainPlan:
    """Chains that share one schedule, planned but not yet evaluated.

    Holds each chain's wavelength choice ``(wavelength_nm, pi0)``, the shared
    schedule and its end state's key fraction: the inputs of both the SKR
    bound and the count recursion, so that the bound costs no extra work.
    """

    configs: tuple[ProtocolConfig, ...]
    choices: tuple[tuple[int, float], ...]
    trace: LevelTrace
    key: float

    def skr_bounds(self) -> list[float]:
        """Each chain's SKR upper bound ``pi0 * key / 2**n``, formed as
        ``skr_pcu`` is, from ``cascade.end_pairs_bound`` (which proves it).

        A computed ``skr_pcu`` stays within 1e-12 relative of its bound.
        """
        return [
            end_pairs_bound(c.m, pi0) * self.key / (c.m * (1 << c.n))
            for c, (_, pi0) in zip(self.configs, self.choices)
        ]

    def evaluate(self, rows: Sequence[int] | None = None) -> list[PerformancePoint]:
        """Evaluate the chains at ``rows`` (all by default) in one batched
        count recursion; each point is the same whatever else is evaluated
        with it."""
        rows = range(len(self.configs)) if rows is None else rows
        configs = [self.configs[b] for b in rows]
        choices = [self.choices[b] for b in rows]
        batch = run_cascade_batch(
            [cascade_config(c, self.trace, pi0) for c, (_, pi0) in zip(configs, choices)]
        )
        points = []
        for b, (config, (wavelength, _)) in enumerate(zip(configs, choices)):
            end_pairs = float(batch.expected_end_pairs[b])
            reason = batch.certain_reset[b]
            # normalize by all channel uses of the burst: M attempts on each
            # of the N elementary links
            channel_uses = config.m * (1 << config.n)
            points.append(PerformancePoint(
                skr_pcu=end_pairs * self.key / channel_uses,
                expected_end_pairs=end_pairs,
                completion_prob=float(batch.completion_prob[b]),
                end_state=self.trace.end_state,
                ops=metrics.ops_per_burst(batch.swaps[b], batch.distill_attempts[b]),
                wavelength_used_nm=wavelength,
                l0_km=config.budget.l0_km,
                n=config.n,
                m=config.m,
                mass_defect=float(batch.mass_defect[b].max()),
                diagnostic=f"certain reset: {reason}" if reason else None,
            ))
        return points


def plan_chains(configs: Sequence[ProtocolConfig]) -> ChainPlan:
    """Plan chains that share one schedule: the same depth, width, threshold,
    noise, spacing and signal velocity.  Such chains differ only in their
    elementary success probability, so one schedule serves them all."""
    def schedule_inputs(c: ProtocolConfig) -> tuple:
        return (c.n, c.m, c.f_th, c.noise, c.budget.l0_km, c.medium.signal_velocity_kms)

    if any(schedule_inputs(c) != schedule_inputs(configs[0]) for c in configs[1:]):
        raise ValueError("chains of one batch must share their schedule inputs")
    choices = tuple(select_wavelength(c.medium, c.budget) for c in configs)
    trace = build_schedule(configs[0])
    return ChainPlan(tuple(configs), choices, trace, key_fraction(trace.end_state))

