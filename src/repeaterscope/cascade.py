"""Exact evolution of multiplexed Bell-pair-count distributions.

A burst starts with a binomial number of pairs on each elementary link.
Ascending the swapping hierarchy, an optional distillation step thins the
count of each segment, and pairing two adjacent segments keeps the minimum
of their counts.  The recursion follows the conditional distributions
``p_cond``/``q_cond`` which, at each level, condition on at least one pair
surviving per segment.

The per-level reset probabilities follow the termination bookkeeping in
which a pairing of counts (0, 1) at a distilling level is excluded from the
reset event, and levels without scheduled distillation never reset.  The
pairing mass that this bookkeeping drops (instead of counting it as reset)
is renormalized away and reported per level in ``mass_defect``.

The recursion runs on ``(B, width + 1)`` arrays: one row per configuration,
every row sharing the depth, width and distillation schedule.  Each step is
row-wise (elementwise arithmetic, per-row sums and products), so a row comes
out bit for bit the same whatever else shares its batch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

_MASS_TOL = 1e-10


class InvariantError(ArithmeticError):
    """Raised when a computed quantity breaks a numeric invariant of the model
    (a level's rows are not probability vectors, or a rate is NaN)."""


def _flush_subnormal(p):
    # log-space binomials overflow or lose the tail on subnormal inputs
    return np.where(np.abs(p) >= sys.float_info.min, p, 0.0)


def _binomial_rows(n: int, p: np.ndarray) -> np.ndarray:
    """Binomial(n, p) pmf over k = 0..n for each entry of ``p``, in log space:
    the count of simultaneous elementary-link successes over n channels."""
    p = _flush_subnormal(np.asarray(p, dtype=np.float64))
    rows = np.zeros((len(p), n + 1))
    rows[p == 0.0, 0] = 1.0
    rows[p == 1.0, n] = 1.0
    inner = (p > 0.0) & (p < 1.0)
    if inner.any():
        pi = p[inner, None]
        k = np.arange(n + 1)
        log_comb = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        raw = np.exp(log_comb + k * np.log(pi) + (n - k) * np.log1p(-pi))
        rows[inner] = raw / raw.sum(axis=1, keepdims=True)
    return rows


def _thinning_table(rows: int, cap: int, d: float) -> np.ndarray:
    """Rows m = 0..rows-1 of the Binomial(m, d) pmf over k = 0..cap.

    Built by the Pascal recurrence, which only ever forms convex
    combinations and is therefore exact to rounding.  Row m is zero past
    k = m, so each step only touches its support.
    """
    table = np.zeros((rows, cap + 1))
    table[0, 0] = 1.0
    for m in range(rows - 1):
        top = min(m + 1, cap) + 1
        row = table[m]
        table[m + 1, :top] = (1.0 - d) * row[:top]
        table[m + 1, 1:top] += d * row[: top - 1]
    return table


def _row_means(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    return (probs * values).sum(axis=1)


def _check_rows(probs: np.ndarray, dead: np.ndarray, what: str) -> None:
    """Every live row is finite, non-negative and of unit mass."""
    # comparisons with NaN are false, and an infinite entry breaks the mass,
    # so a row with a non-finite entry fails
    ok = (probs >= 0.0).all(axis=1) & (np.abs(probs.sum(axis=1) - 1.0) <= _MASS_TOL)
    bad = np.flatnonzero(~ok & ~dead)
    if len(bad):
        raise InvariantError(f"{what}: row {bad[0]} is not a probability vector")


def _thin_rows(probs: np.ndarray, d: float, cap: int) -> np.ndarray:
    """Thin each row's count through one round of pairwise distillation.

    k input pairs form floor(k/2) disjoint attempts, each surviving with
    probability ``d``; an odd leftover pair is consumed.  ``cap`` is the
    output support bound floor(M_i / 2), which rows of width M_i + 1 cannot
    exceed.
    """
    # group j in {2m, 2m+1}: both feed floor(j/2) = m attempts
    grouped = probs[:, 0::2].copy()
    odd = probs[:, 1::2]
    grouped[:, : odd.shape[1]] += odd
    # each row stops at its last group with mass: a table row costs a Pascal
    # step, and most of the tail of a wide binomial underflows to zero
    support = [len(g) - np.argmax(g[::-1] != 0.0) for g in grouped]
    table = _thinning_table(max(support), cap, float(_flush_subnormal(d)))
    # one vector-matrix product per row: a matrix product would round a row
    # differently depending on the batch around it
    out = np.stack([g[:s] @ table[:s] for g, s in zip(grouped, support)])
    return out / out.sum(axis=1, keepdims=True)


def _paired_rows(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized min(K1, K2) of two i.i.d. segment counts drawn from each
    row, and each row's upper tail."""
    cum = np.cumsum(q, axis=1)
    tail = cum[:, -1:] - cum  # sum_{j > k} q_j
    return q * q + 2.0 * q * tail, tail


def _init_rows(m: int, pi0):
    """Generation: ``(r0, survival, conditioned rows, certain-reset mask)``.

    ``r0 = (1 - pi0)**m`` is the probability that a single link produces no
    pair, and the rows are the Binomial(m, pi0) count conditioned on at least
    one pair.  ``r0`` and the survival ``1 - r0`` both come from one
    ``m * log1p(-pi0)``, so that the survival does not cancel when
    ``m * pi0`` is small.
    """
    pi0 = np.asarray(pi0, dtype=np.float64)
    kept = _binomial_rows(m, pi0)
    kept[:, 0] = 0.0
    total = kept.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # pi0 = 1; no mass left
        log_none = m * np.log1p(-pi0)
        return np.exp(log_none), -np.expm1(log_none), kept / total[:, None], total <= 0.0


def _level_rows(q: np.ndarray, distill_next: bool):
    """One pairing level: ``(r, next rows, defect, mean min, failure codes)``.

    Pairs two segments of each row, counts the reset and renormalizes.  The
    reset probability ``r`` counts the pairings (0, 0) and (0, >=2), and
    only when a distillation is scheduled at the destination level
    (``distill_next``); the (0, 1) pairing mass and, at non-distilling
    levels, all zero-pairing mass is removed by renormalization and returned
    as ``defect``.  Failure code 1 marks a certain reset, 2 a pairing that
    keeps no pair.
    """
    paired, tail = _paired_rows(q)
    mean_min = _row_means(paired / paired.sum(axis=1, keepdims=True), np.arange(q.shape[1]))
    if distill_next:
        q1 = q[:, 1] if q.shape[1] > 1 else 0.0
        r = q[:, 0] * q[:, 0] + 2.0 * q[:, 0] * (tail[:, 0] - q1)
    else:
        r = np.zeros(len(q))
    survivor = 1.0 - r
    paired[:, 0] = 0.0
    total = paired.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # failing rows turn NaN
        scaled_total = total / survivor
        nxt = paired / total[:, None]
    failure = np.where(survivor <= 0.0, 1, np.where(scaled_total <= 0.0, 2, 0))
    defect = np.maximum(1.0 - scaled_total, 0.0)
    return r, nxt, defect, mean_min, failure


_LEVEL_FAILURES = (None, "reset occurs with probability one", "no pairing outcome keeps at least one pair")


def _reset_rows(survive: np.ndarray, n_links: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-level burst reset probabilities ``f`` and the completion
    probability, from the per-segment survival probability of each level.

    Level i holds ``n_links / 2**i`` independent segments, each surviving
    with probability ``survive[:, i]`` (``1 - r_i``); each row's ``f`` and
    completion sum to one.
    """
    f = np.zeros_like(survive)
    carried = np.ones(len(survive))
    for i in range(survive.shape[1]):
        segments = max(n_links >> i, 1)
        level_survive = survive[:, i] ** segments
        f[:, i] = carried * (1.0 - level_survive)
        carried = carried * level_survive
    return f, carried


@dataclass(frozen=True)
class CascadeConfig:
    """Static inputs of one burst evaluation.

    ``distill_flags[i]`` schedules a distillation at nesting level i (the
    top level must be False); ``distill_success[i]`` is the per-attempt
    success probability used when scheduled.  ``m`` is the multiplexing
    width and ``pi0`` the elementary success probability.
    """

    n: int
    m: int
    pi0: float
    distill_flags: tuple[bool, ...] = ()
    distill_success: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("nesting depth must be non-negative")
        if self.m < 1:
            raise ValueError("multiplexing width must be at least 1")
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError(f"pi0 must lie in [0, 1], got {self.pi0}")
        flags = tuple(bool(f) for f in self.distill_flags)
        if not flags:
            flags = (False,) * (self.n + 1)
        if len(flags) != self.n + 1:
            raise ValueError("distill_flags must have one entry per level 0..n")
        if flags[self.n]:
            raise ValueError("no distillation is allowed at the top level")
        succ = tuple(float(d) for d in self.distill_success)
        if not succ:
            succ = (1.0,) * (self.n + 1)
        if len(succ) != self.n + 1:
            raise ValueError("distill_success must have one entry per level 0..n")
        if any(not 0.0 <= d <= 1.0 for d in succ):
            raise ValueError("distillation success probabilities must lie in [0, 1]")
        for i, flag in enumerate(flags):
            if flag and self.level_width_for(self.m, flags, i) < 2:
                raise ValueError(
                    f"level {i} schedules distillation but has width < 2; "
                    "increase m or drop the flag"
                )
        object.__setattr__(self, "distill_flags", flags)
        object.__setattr__(self, "distill_success", succ)

    @staticmethod
    def level_width_for(m: int, flags: tuple[bool, ...], level: int) -> int:
        return m // (1 << sum(flags[:level]))

    def level_width(self, level: int) -> int:
        """Channel capacity M_i available at a level, halved per prior distillation."""
        return self.level_width_for(self.m, self.distill_flags, level)

    @property
    def n_links(self) -> int:
        return 1 << self.n

    @property
    def schedule(self) -> tuple:
        """Everything but ``pi0``: the inputs a batch of rows must share."""
        return (self.n, self.m, self.distill_flags, self.distill_success)


@dataclass(frozen=True)
class CascadeBatch:
    """Row-wise results of one recursion over configurations sharing a schedule.

    Every array has one row per configuration; per-level arrays have a column
    per level 0..n.  ``swaps[:, i]`` and ``distill_attempts[:, i]`` are the
    expected operations of a burst at level i: a scheduled distillation runs
    E[floor(k/2)] attempts per segment and every pairing performs
    min(left, right) swaps, weighted by the probability that no segment has
    run dry before the level executes.  ``certain_reset[b]`` names why row b
    resets with probability one, or is None.  Such a burst delivers nothing:
    its ``completion_prob``, ``expected_end_pairs``, ``mass_defect``,
    ``swaps`` and ``distill_attempts`` are zero, and its ``p_cond``,
    ``q_cond``, ``r`` and ``f`` carry no meaning.  ``p_cond``/``q_cond``
    hold each level's rows.

    ``completion_prob`` is the product of per-level no-reset factors
    ``(1 - r_i) ** (N / 2**i)``; together with the reset probabilities ``f``
    it sums to one.  Level 0 takes its factor from the survival
    ``-expm1(m log1p(-pi0))``, which ``r[:, 0] = exp(m log1p(-pi0))``
    complements to the ulp, and not from ``1 - r[:, 0]``: when ``r[:, 0]``
    lies within ``m pi0`` of 1, forming ``1 - r[:, 0]`` keeps only the float
    spacing near 1 (8e-4 relative at m=16, pi0=1e-15).

    ``mass_defect[:, i]`` is the pairing mass at level i that the
    termination bookkeeping neither kept nor counted as reset, removed by
    renormalization (zero whenever no distillation ran below).
    """

    p_cond: tuple[np.ndarray, ...]
    q_cond: tuple[np.ndarray, ...]
    r: np.ndarray
    f: np.ndarray
    completion_prob: np.ndarray
    expected_end_pairs: np.ndarray
    mass_defect: np.ndarray
    swaps: np.ndarray
    distill_attempts: np.ndarray
    certain_reset: tuple[str | None, ...]


def end_pairs_bound(m: int, pi0: float) -> float:
    """``m * pi0``, an upper bound on ``expected_end_pairs`` at any depth and
    distillation schedule: a burst never delivers more end pairs than one
    elementary link generates.

    Proof.  Write p_i for ``p_cond[i]`` (no mass at 0), q_i for ``q_cond[i]``
    (q_i = p_i unless level i thins), K ~ p_i, Q ~ q_i, q0 = q_i(0),
    p1 = p_i(1), and d for level i's success probability.  Let
    s_0 = 1 - r_0 and s_{i+1} = s_i**2 (1 - r_{i+1}); then s_n is
    ``completion_prob``, and mu_i = s_i E[K] runs from mu_0 = E[K0; K0 >= 1]
    = m pi0 (K0 the binomial count) to mu_n = ``expected_end_pairs``.  It
    suffices that mu_{i+1} <= s_i mu_i.  Pairing keeps min(Q, Q') of two
    independent draws, with E[min] = sum_{k>=1} P(Q >= k)**2
    <= (1 - q0) E[Q], and level i + 1 conditions it on at least one pair:
    its mean is E[min] / (1 - q0)**2.

    - Level i does not thin.  Then q0 = 0 and r_{i+1} = 0, so
      mu_{i+1} = s_i**2 E[min] <= s_i**2 E[K] = s_i mu_i.
    - Level i thins and level i + 1 distills.  Q ~ Binomial(floor(K/2), d)
      gives E[Q] <= d E[K] / 2, and 1 - r_{i+1} = (1 - q0)**2 + 2 q0 q_i(1)
      <= (1 - q0)(1 + q0), so mu_{i+1} <= s_i**2 (1 + q0) E[Q]
      <= s_i**2 d E[K] <= s_i mu_i.
    - Level i thins and level i + 1 does not distill.  Then r_{i+1} = 0:
      the (0, k) pairings are renormalized away, and
      mu_{i+1} <= s_i**2 E[Q] / (1 - q0).  It remains that
      E[Q] <= (1 - q0) E[K].  One attempt keeps a pair with probability d,
      so 1 - q0 >= d (1 - p1); floor(k/2) <= (k - [k = 1]) / 2 gives
      E[Q] <= d (E[K] - p1) / 2.  The claim follows if
      (E[K] - p1) / 2 <= (1 - p1) E[K], that is E[K] (2 p1 - 1) <= p1:
      at once when p1 <= 1/2, and from E[K] <= 1/p1 when p1 > 1/2, since
      2 p1 - 1 <= p1**2.  E[K] <= 1/p1 holds when p_i's hazard
      p_i(k) / P(K >= k) does not decrease on k >= 1 (then
      P(K >= k) <= (1 - p1)**(k - 1)), which holds when p_i is log-concave.

    Every p_i is log-concave, since every step keeps the stronger
    ultra-log-concavity (ULC: k! a_k is log-concave without internal zeros).
    The facts used are that convolution keeps sequences log-concave, that a
    product of log-concave sequences is log-concave, and that so is every
    arithmetic-progression subsequence of one.

    - Generation: k! C(m, k) pi0**k (1 - pi0)**(m - k) =
      m!/(m - k)! pi0**k (1 - pi0)**(m - k), and conditioning on K >= 1
      restricts it to an interval.
    - Grouping floor(K/2): c = a * (1, 1) is ULC (ULC is closed under
      convolution: Walkup, J. Appl. Probab. 13, 76, 1976; Liggett, J. Combin.
      Theory A 79, 315, 1997), and j! P(floor(K/2) = j) =
      (2j+1)! c_{2j+1} * j!/(2j+1)!, a subsequence times a log-concave
      factor.
    - Binomial thinning: k! b_k = d**k sum_l u_{k+l} (1 - d)**l / l! with
      u_j = j! a_j, the convolution of u with a reflected Poisson weight.
    - Pairing: k! P(min = k) = k! a_k (S_k + S_{k+1}), where the upper tail S
      is a's convolution with a step and S_k + S_{k+1} that with (1, 1);
      conditioning on at least one pair is a restriction again.

    So the bound holds for every schedule.  A computed row meets it to far
    within 1e-12 relative; callers compare with that slack.
    """
    return m * pi0


def run_cascade_batch(configs: Sequence[CascadeConfig]) -> CascadeBatch:
    """Run the recursion once for configurations that differ only in ``pi0``;
    each row is the same, bit for bit, whatever else shares its batch.

    Each level's rows are checked once: finite, non-negative, unit mass.
    """
    head = configs[0]
    if any(c.schedule != head.schedule for c in configs[1:]):
        raise ValueError("a batch must share n, m and the distillation schedule")
    n, flags, n_links = head.n, head.distill_flags, head.n_links
    zeros = np.zeros(len(configs))
    dead = zeros.astype(bool)  # rows that reset with certainty: unchecked
    failures: list[str | None] = [None] * len(configs)

    def fail(newly, message):
        for b in np.flatnonzero(newly & ~dead):
            failures[b] = message(b)
        np.logical_or(dead, newly, out=dead)

    pi0 = [c.pi0 for c in configs]
    r0, survive0, p, no_mass = _init_rows(head.m, pi0)
    fail(no_mass, lambda b: f"generation cannot reach the threshold 1 (m={head.m}, pi0={pi0[b]})")
    _check_rows(p, dead, "generation")
    p_cond, q_cond, r, survive, defects = [p], [], [r0], [survive0], [zeros]
    swaps, attempts = [], []
    running = survive0**n_links
    for i in range(n + 1):
        segments = max(n_links >> i, 1)
        q = p
        if flags[i]:
            attempts.append(running * segments * _row_means(p, np.arange(p.shape[1]) // 2))
            q = _thin_rows(p, head.distill_success[i], head.level_width(i) // 2)
            _check_rows(q, dead, f"distillation at level {i}")
        else:
            attempts.append(zeros)
        q_cond.append(q)
        if i == n:
            swaps.append(zeros)
            break
        ri, p, defect, mean_min, failure = _level_rows(q, flags[i + 1])
        fail(failure > 0, lambda b: _LEVEL_FAILURES[failure[b]])
        _check_rows(p, dead, f"pairing into level {i + 1}")
        swaps.append(running * (segments // 2) * mean_min)
        running = running * ((1.0 - q[:, 0]) ** 2) ** (segments // 2)
        p_cond.append(p)
        r.append(ri)
        survive.append(1.0 - ri)
        defects.append(defect)
    f, completion = _reset_rows(np.column_stack(survive), n_links)
    per_level = dead[:, None]
    return CascadeBatch(
        p_cond=tuple(p_cond),
        q_cond=tuple(q_cond),
        r=np.column_stack(r),
        f=f,
        completion_prob=np.where(dead, 0.0, completion),
        expected_end_pairs=np.where(dead, 0.0, completion * _row_means(p, np.arange(p.shape[1]))),
        mass_defect=np.where(per_level, 0.0, np.column_stack(defects)),
        swaps=np.where(per_level, 0.0, np.column_stack(swaps)),
        distill_attempts=np.where(per_level, 0.0, np.column_stack(attempts)),
        certain_reset=tuple(failures),
    )
