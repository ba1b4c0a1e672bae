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
from functools import cached_property
from typing import Iterable, Sequence

from . import metrics
from .cascade import CascadeSchedule, end_pairs_bound, run_cascade_batch
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


@dataclass(frozen=True)
class RowOutcome:
    """What a ``PerformancePoint`` takes from its count-recursion row."""

    expected_end_pairs: float
    completion_prob: float
    ops: metrics.OpCounts
    mass_defect: float
    certain_reset: str | None


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


def evaluate_chain(config: ProtocolConfig) -> PerformancePoint:
    """Full evaluation: wavelength choice, schedule, count recursion, SKR."""
    return plan_chains([config]).evaluate()[0]


# rows of one ``run_cascade_batch`` call: a batch holds a (rows, m + 1)
# array per level, so an unbounded batch (all of fig3's rows share the n = 0
# schedule) costs memory, and no more speed, than chunks of this many
_BATCH_ROWS = 16


@dataclass(frozen=True)
class ChainPlan:
    """Chains that share one schedule, planned but not yet evaluated.

    Holds each chain's wavelength choice ``(wavelength_nm, pi0)``.  The
    shared schedule (``trace``), its end state's key fraction (``key``) and
    its count-recursion ``schedule`` are computed once each, on first use, so
    a caller that needs only the schedule-free bound ``skr_bounds(key=1.0)``
    never builds the schedule.
    """

    configs: tuple[ProtocolConfig, ...]
    choices: tuple[tuple[int, float], ...]

    @cached_property
    def trace(self) -> LevelTrace:
        return build_schedule(self.configs[0])

    @cached_property
    def key(self) -> float:
        return key_fraction(self.trace.end_state)

    @cached_property
    def schedule(self) -> CascadeSchedule:
        """The count-recursion schedule every chain of the plan shares."""
        head, trace = self.configs[0], self.trace
        return CascadeSchedule(head.n, head.m, trace.distill_flags, trace.distill_success)

    def skr_bounds(self, key: float | None = None) -> list[float]:
        """Each chain's SKR upper bound ``pi0 * key / 2**n``, formed as
        ``skr_pcu`` is, from ``cascade.end_pairs_bound`` (which proves it).

        ``key`` defaults to the schedule's key fraction; a computed
        ``skr_pcu`` stays within 1e-12 relative of that bound.  A key
        fraction is at most 1, so ``key=1.0`` gives a looser bound, never
        below the tight one, that needs no schedule.
        """
        key = self.key if key is None else key
        return [
            end_pairs_bound(c.m, pi0) * key / (c.m * (1 << c.n))
            for c, (_, pi0) in zip(self.configs, self.choices)
        ]

    def evaluate(
        self,
        rows: Sequence[int] | None = None,
        outcomes: dict[CascadeSchedule, dict[float, RowOutcome]] | None = None,
    ) -> list[PerformancePoint]:
        """Evaluate the chains at ``rows`` (all by default); each point is the
        same whatever else is evaluated with it.

        The rows are ``pi0``s of the plan's one ``schedule``.  ``outcomes``
        maps a schedule to the outcomes of its count-recursion rows by
        ``pi0``; the rows it lacks are run first (``run_rows``) and added.
        """
        rows = range(len(self.configs)) if rows is None else rows
        outcomes = {} if outcomes is None else outcomes
        run_rows([(self, rows)], outcomes)
        known = outcomes[self.schedule]
        points = []
        for b in rows:
            config, (wavelength, pi0) = self.configs[b], self.choices[b]
            outcome = known[pi0]
            reason = outcome.certain_reset
            # normalize by all channel uses of the burst: M attempts on each
            # of the N elementary links
            channel_uses = config.m * (1 << config.n)
            points.append(PerformancePoint(
                skr_pcu=outcome.expected_end_pairs * self.key / channel_uses,
                expected_end_pairs=outcome.expected_end_pairs,
                completion_prob=outcome.completion_prob,
                end_state=self.trace.end_state,
                ops=outcome.ops,
                wavelength_used_nm=wavelength,
                l0_km=config.budget.l0_km,
                n=config.n,
                m=config.m,
                mass_defect=outcome.mass_defect,
                diagnostic=f"certain reset: {reason}" if reason else None,
            ))
        return points


def run_rows(
    requests: Iterable[tuple[ChainPlan, Sequence[int]]],
    outcomes: dict[CascadeSchedule, dict[float, RowOutcome]],
) -> None:
    """Run the count-recursion rows that the ``(plan, rows)`` requests need
    and ``outcomes`` lacks, and add their outcomes to it.

    Each distinct ``(schedule, pi0)`` runs once, and the rows of one schedule
    share batches of at most ``_BATCH_ROWS``, whichever plans ask for them.
    The reuse is exact: ``run_cascade_batch`` gives a row the same bits
    whatever else shares its batch.
    """
    missing: dict[CascadeSchedule, dict[float, None]] = {}
    for plan, rows in requests:
        known = outcomes.setdefault(plan.schedule, {})
        todo = missing.setdefault(plan.schedule, {})
        for b in rows:
            pi0 = plan.choices[b][1]
            if pi0 not in known:
                todo[pi0] = None
    for schedule, todo in missing.items():
        pi0s = list(todo)
        for start in range(0, len(pi0s), _BATCH_ROWS):
            chunk = pi0s[start:start + _BATCH_ROWS]
            batch = run_cascade_batch(schedule, chunk)
            for j, pi0 in enumerate(chunk):
                outcomes[schedule][pi0] = RowOutcome(
                    expected_end_pairs=float(batch.expected_end_pairs[j]),
                    completion_prob=float(batch.completion_prob[j]),
                    ops=metrics.ops_per_burst(batch.swaps[j], batch.distill_attempts[j]),
                    mass_defect=float(batch.mass_defect[j].max()),
                    certain_reset=batch.certain_reset[j],
                )


def plan_chains(configs: Sequence[ProtocolConfig]) -> ChainPlan:
    """Plan chains that share one schedule: the same depth, width, threshold,
    noise, spacing and signal velocity.  Such chains differ only in their
    elementary success probability, so one schedule serves them all.  Only
    the wavelengths are chosen here; the plan builds the schedule on first
    use."""
    def schedule_inputs(c: ProtocolConfig) -> tuple:
        return (c.n, c.m, c.f_th, c.noise, c.budget.l0_km, c.medium.signal_velocity_kms)

    if any(schedule_inputs(c) != schedule_inputs(configs[0]) for c in configs[1:]):
        raise ValueError("chains of one batch must share their schedule inputs")
    return ChainPlan(tuple(configs), tuple(select_wavelength(c.medium, c.budget) for c in configs))

