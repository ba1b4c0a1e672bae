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

import math
from dataclasses import dataclass
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

# widest multiplexing the model is evaluated at: a distillation's thinning
# table holds up to (m/2 + 1)**2 floats, about 0.5 GB at this bound
MAX_WIDTH = 1 << 14


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
        if not 1 <= self.m <= MAX_WIDTH:
            raise ValueError(f"multiplexing width must lie in [1, {MAX_WIDTH}], got {self.m}")
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
    mass_defect: float
    diagnostic: str | None

    @property
    def ops_per_secret_bit(self) -> float:
        """Two-qubit gates spent per delivered secret bit; inf in no-key regimes."""
        secret_bits = self.skr_pcu * self.m * (1 << self.n)
        if secret_bits <= 0.0:
            return math.inf
        return self.ops.two_qubit_gates / secret_bits


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
    choice = select_wavelength(config.medium, config.budget)
    return ChainPlan.from_trace(config, (choice,), build_schedule(config)).evaluate([0], {})[0]


def end_pairs_bounds(config: ProtocolConfig, choices: Sequence[tuple[int, float]]) -> list[float]:
    """Each chain's bound on ``expected_end_pairs`` at the config's depth,
    ``m * pi0 * s_0**(2**n - 1)`` (``cascade.end_pairs_bound`` proves it with
    the depth factor).

    ``s_0 = -expm1(m log1p(-pi0))`` is the level-0 survival, formed as the
    recursion forms it.  The bound needs no schedule, so a sweep forms it
    once per depth and keys it twice with ``skr_bounds``.
    """
    links = 1 << config.n
    out = []
    for _, pi0 in choices:
        # math.log1p(-1) raises; at pi0 = 1 every link survives
        survive = -math.expm1(config.m * math.log1p(-pi0)) if pi0 < 1.0 else 1.0
        out.append(end_pairs_bound(config.m, pi0) * survive ** (links - 1))
    return out


def skr_bounds(config: ProtocolConfig, end_pairs: Sequence[float], key: float) -> list[float]:
    """Each chain's SKR upper bound ``pi0 * s_0**(2**n - 1) * key / 2**n``,
    formed as ``skr_pcu`` is, from its ``end_pairs_bounds`` entry.

    At the schedule's key fraction a computed ``skr_pcu`` stays within 1e-12
    relative of the bound.  A key fraction is at most 1, so ``key=1.0`` gives
    a looser bound, never below the tight one, that needs no schedule.
    """
    channel_uses = config.m * (1 << config.n)
    return [bound * key / channel_uses for bound in end_pairs]


# rows of one ``run_cascade_batch`` call: a batch holds a (rows, m + 1)
# array per level, so an unbounded batch (all of fig3's rows share the n = 0
# schedule) costs memory, and no more speed, than chunks of this many
_BATCH_ROWS = 16


@dataclass(frozen=True)
class ChainPlan:
    """Chains of one depth that share one schedule, planned.

    ``config`` holds the inputs the chains share: depth, width, threshold,
    noise, spacing and signal velocity; its medium and link budget are those
    of one chain, and the others differ only there.  ``choices`` holds each
    chain's wavelength choice ``(wavelength_nm, pi0)``.  Of the schedule the
    plan keeps only what evaluation reads: the count-recursion ``schedule``,
    the ``end_state`` and its key fraction ``key``.
    """

    config: ProtocolConfig
    choices: tuple[tuple[int, float], ...]
    schedule: CascadeSchedule
    end_state: BellDiagonal
    key: float

    @classmethod
    def from_trace(
        cls, config: ProtocolConfig, choices: Sequence[tuple[int, float]], trace: LevelTrace
    ) -> ChainPlan:
        """The plan of chains whose shared schedule is ``trace``
        (``build_schedule(config)``)."""
        schedule = CascadeSchedule(config.n, config.m, trace.distill_flags, trace.distill_success)
        return cls(config, tuple(choices), schedule, trace.end_state, key_fraction(trace.end_state))

    def evaluate(
        self, rows: Sequence[int], outcomes: dict[CascadeSchedule, dict[float, RowOutcome]]
    ) -> list[PerformancePoint]:
        """Evaluate the chains at ``rows``; each point is the same whatever
        else is evaluated with it.

        The rows are ``pi0``s of the plan's one ``schedule``.  ``outcomes``
        maps a schedule to the outcomes of its count-recursion rows by
        ``pi0``; the rows it lacks are run first (``run_rows``) and added.
        """
        run_rows([(self, rows)], outcomes)
        known = outcomes[self.schedule]
        config = self.config
        # normalize by all channel uses of the burst: M attempts on each of
        # the N elementary links
        channel_uses = config.m * (1 << config.n)
        points = []
        for b in rows:
            wavelength, pi0 = self.choices[b]
            outcome = known[pi0]
            reason = outcome.certain_reset
            points.append(PerformancePoint(
                skr_pcu=outcome.expected_end_pairs * self.key / channel_uses,
                expected_end_pairs=outcome.expected_end_pairs,
                completion_prob=outcome.completion_prob,
                end_state=self.end_state,
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
