"""Exact evolution of multiplexed Bell-pair-count distributions.

A burst starts with a binomial number of pairs on each elementary link.
Ascending the swapping hierarchy, an optional distillation step thins the
count of each segment, and pairing two adjacent segments keeps the minimum
of their counts.  The recursion follows the conditional distributions
``p_cond`` which, at each level, condition on at least one pair surviving
per segment.

Each level's rows are carried as their pmf ``p`` (``p[:, 0] = 0``) and upper
tails ``T[:, k] = P(K >= k)`` (``T[:, 0] = T[:, 1] = 1``): the minimum of two
i.i.d. counts has ``P(min = k) = p_k (T_k + T_{k+1})`` and ``P(min >= k) =
T_k**2``, and a thinned row's tails are summed from the top, never 1 - sum.

The per-level reset probabilities follow the termination bookkeeping in
which a pairing of counts (0, 1) at a distilling level is excluded from the
reset event, and levels without scheduled distillation never reset.  The
pairing mass that this bookkeeping drops (instead of counting it as reset)
is renormalized away and reported per level in ``mass_defect``.

The recursion runs on ``(B, width + 1)`` arrays, one row per ``pi0`` of one
``CascadeSchedule``.  Each step is elementwise, a cumulative sum along a row
or a sum over a width fixed by the schedule, so a row comes out bit for bit
the same whatever else shares its batch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

_MASS_TOL = 1e-10


class InvariantError(ArithmeticError):
    """Raised when a computed quantity breaks a numeric invariant of the model
    (a level's rows are not probability vectors, or a rate is NaN)."""


def _flush_subnormal(p):
    # a subnormal probability keeps too few significant bits to build a
    # distribution from, so it counts as 0: a subnormal pi0 resets for certain
    return np.where(np.abs(p) >= sys.float_info.min, p, 0.0)


def _binomial_rows(n: int, p: np.ndarray) -> np.ndarray:
    """Binomial(n, p) pmf over k = 0..n per entry of ``p`` (the count of
    elementary-link successes over n channels), by the ratio recurrence
    ``pmf(k + 1) / pmf(k) = (n - k) / (k + 1) * p / (1 - p)`` run outward from
    the mode floor((n + 1) p), which holds 1 until the row is normalized.
    Every ratio on the way out is at most 1; at p = 0 and p = 1 those past the
    mode (0 or n) are exactly 0."""
    p = _flush_subnormal(np.asarray(p, dtype=np.float64))
    rows = np.ones((len(p), n + 1))
    k = np.arange(n + 1.0)
    up, down = (n - k[:n]) / (k[:n] + 1), k[1:] / (n - k[1:] + 1)
    for row, pi in zip(rows, p.tolist()):
        mode = min(int((n + 1) * pi), n)
        if mode < n:
            row[mode + 1 :] = np.cumprod(up[mode:] * (pi / (1 - pi)))
        if mode:
            row[:mode] = np.cumprod(down[mode - 1 :: -1] * ((1 - pi) / pi))[::-1]
    return rows / rows.sum(axis=1, keepdims=True)


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
    # step, and most of the tail of a wide binomial underflows to zero.  A row
    # without mass (NaN or all zero: a certain reset) stops at its first, so
    # that it does not size the table; Pascal rows do not depend on the rows
    # that follow them, so no other row's bits move
    support = [len(g) - np.argmax(g[::-1] != 0.0) if g.sum() > 0.0 else 1 for g in grouped]
    table = _thinning_table(max(support), cap, float(_flush_subnormal(d)))
    # one vector-matrix product per row: a matrix product would round a row
    # differently depending on the batch around it
    out = np.stack([g[:s] @ table[:s] for g, s in zip(grouped, support)])
    return out / out.sum(axis=1, keepdims=True)


def _tails(probs: np.ndarray) -> np.ndarray:
    """Upper tails ``T[:, k] = P(K >= k)`` of each row, k = 0..width, summed
    from the top; ``T[:, width]`` is 0."""
    tails = np.zeros((len(probs), probs.shape[1] + 1))
    np.cumsum(probs[:, ::-1], axis=1, out=tails[:, -2::-1])
    return tails


def _pair(probs: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min(K1, K2) of two i.i.d. counts with each row's pmf and upper tails:
    ``P(min = k) = p_k (T_k + T_{k+1})`` and ``P(min >= k) = T_k**2``."""
    return probs * (tails[:, :-1] + tails[:, 1:]), tails * tails


def _init_rows(m: int, pi0):
    """Generation: ``(r0, survival, conditioned rows, certain-reset mask)``.

    ``r0 = (1 - pi0)**m`` is the probability that a single link produces no
    pair, and the rows are the Binomial(m, pi0) count conditioned on at least
    one pair.  ``r0`` and the survival ``1 - r0`` both come from one
    ``m * log1p(-pi0)``, so the survival does not cancel at small ``m pi0``.
    """
    pi0 = np.asarray(pi0, dtype=np.float64)
    kept = _binomial_rows(m, pi0)
    kept[:, 0] = 0.0
    total = kept.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # pi0 = 1; no mass left
        log_none = m * np.log1p(-pi0)
        return np.exp(log_none), -np.expm1(log_none), kept / total[:, None], total <= 0.0


def _pair_thinned(q: np.ndarray, distill_next: bool):
    """Pairing of thinned rows ``q``: ``(r, next rows, their tails,
    P(min >= 1), defect, failure codes)``.

    ``r`` counts the pairings (0, 0) and (0, >=2) when the destination level
    distills (``distill_next``), else none; the rest of the zero-pairing mass
    is renormalized away as ``defect``.  Tails are divided by ``T[:, 1]``
    before squaring, so a tiny ``T[:, 1]`` neither underflows nor overflows.
    Failure code 1 marks a certain reset, 2 a pairing that keeps no pair.
    """
    tails = _tails(q)
    t1 = tails[:, 1].copy()
    r = q[:, 0] * q[:, 0] + 2.0 * q[:, 0] * tails[:, 2] if distill_next else np.zeros(len(q))
    survivor = 1.0 - r
    kept = t1 * t1
    with np.errstate(divide="ignore", invalid="ignore"):  # failing rows turn NaN
        tails[:, 1:] /= t1[:, None]
        tails[:, 0] = 1.0
        paired, tails = _pair(q, tails)
        paired[:, 0] = 0.0
        nxt = paired / paired.sum(axis=1, keepdims=True)
        scaled_total = kept / survivor
    failure = np.where(survivor <= 0.0, 1, np.where(scaled_total <= 0.0, 2, 0))
    defect = np.maximum(1.0 - scaled_total, 0.0)
    return r, nxt, tails, kept, defect, failure


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
class CascadeSchedule:
    """What the rows of one recursion batch share: everything but ``pi0``.

    ``distill_flags[i]`` schedules a distillation at nesting level i (the
    top level must be False); ``distill_success[i]`` is the per-attempt
    success probability used when scheduled.  ``m`` is the multiplexing
    width.
    """

    n: int
    m: int
    distill_flags: tuple[bool, ...] = ()
    distill_success: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("nesting depth must be non-negative")
        if self.m < 1:
            raise ValueError("multiplexing width must be at least 1")
        flags = tuple(bool(f) for f in self.distill_flags) or (False,) * (self.n + 1)
        if len(flags) != self.n + 1:
            raise ValueError("distill_flags must have one entry per level 0..n")
        if flags[self.n]:
            raise ValueError("no distillation is allowed at the top level")
        succ = tuple(float(d) for d in self.distill_success) or (1.0,) * (self.n + 1)
        if len(succ) != self.n + 1:
            raise ValueError("distill_success must have one entry per level 0..n")
        if any(not 0.0 <= d <= 1.0 for d in succ):
            raise ValueError("distillation success probabilities must lie in [0, 1]")
        object.__setattr__(self, "distill_flags", flags)
        object.__setattr__(self, "distill_success", succ)
        for i, flag in enumerate(flags):
            if flag and self.level_width(i) < 2:
                raise ValueError(f"level {i} schedules distillation but has width < 2; "
                                 "increase m or drop the flag")

    def level_width(self, level: int) -> int:
        """Channel capacity M_i available at a level, halved per prior distillation."""
        return self.m // (1 << sum(self.distill_flags[:level]))


@dataclass(frozen=True)
class CascadeConfig(CascadeSchedule):
    """Static inputs of one burst: a schedule and the elementary success
    probability ``pi0``."""

    pi0: float = field(kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError(f"pi0 must lie in [0, 1], got {self.pi0}")


@dataclass(frozen=True)
class CascadeBatch:
    """Row-wise results of one recursion: one row per ``pi0`` of one schedule.

    Every array has one row per ``pi0``; per-level arrays have a column per
    level 0..n.  ``swaps[:, i]`` and ``distill_attempts[:, i]`` are the
    expected operations of a burst at level i: a scheduled distillation runs
    E[floor(k/2)] = sum_j T_{2j} attempts per segment and every pairing
    performs E[min(left, right)] = sum_k T_k**2 swaps, weighted by the
    probability that no segment has run dry before the level executes (a
    thinned row survives with ``T_1``).  ``certain_reset[b]`` names why row b
    resets with probability one, or is None.  Such a burst delivers nothing:
    its ``completion_prob``, ``expected_end_pairs``, ``mass_defect``,
    ``swaps`` and ``distill_attempts`` are zero, and its ``p_cond``, ``r``
    and ``f`` carry no meaning.  ``p_cond`` holds each level's rows.

    ``completion_prob`` is the product of per-level no-reset factors
    ``(1 - r_i) ** (N / 2**i)``; together with the reset probabilities ``f``
    it sums to one.  Level 0 takes its factor from the survival
    ``-expm1(m log1p(-pi0))``, which ``r[:, 0] = exp(m log1p(-pi0))``
    complements to the ulp, and not from ``1 - r[:, 0]``: when ``r[:, 0]``
    lies within ``m pi0`` of 1, forming ``1 - r[:, 0]`` keeps only the float
    spacing near 1 (8e-4 relative at m=16, pi0=1e-15).

    ``mass_defect[:, i]`` is the pairing mass at level i that the
    termination bookkeeping neither kept nor counted as reset, removed by
    renormalization; it is exactly zero at a level whose rows did not thin.
    """

    p_cond: tuple[np.ndarray, ...]
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

    Proof.  Write p_i for ``p_cond[i]`` (no mass at 0), q_i for the thinned
    rows (q_i = p_i unless level i thins), K ~ p_i, Q ~ q_i, q0 = q_i(0),
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

    The same steps give a tighter bound at depth n.  Since 1 - r <= 1,
    s_{i+1} <= s_i**2, so s_i <= s_0**(2**i), and chaining
    mu_{i+1} <= s_i mu_i from mu_0 = m pi0 gives
    ``expected_end_pairs`` <= m pi0 s_0**(2**n - 1).  The factor needs no
    schedule; ``protocol.end_pairs_bounds`` applies it.
    """
    return m * pi0


def run_cascade_batch(schedule: CascadeSchedule, pi0) -> CascadeBatch:
    """Run the recursion of ``schedule`` once, one row per entry of the
    ``pi0`` column; each row is the same, bit for bit, whatever else shares
    its batch, a repeat of itself included.  So a caller may reuse a row
    computed in another batch in place of running it again.

    Every ``pi0`` must lie in [0, 1].  Each level's rows are checked once:
    finite, non-negative, unit mass.
    """
    pi0 = np.asarray(pi0, dtype=np.float64)
    bad = pi0[~((pi0 >= 0.0) & (pi0 <= 1.0))]  # NaN fails both comparisons
    if len(bad):
        raise ValueError(f"pi0 must lie in [0, 1], got {bad[0]}")
    n, m, flags = schedule.n, schedule.m, schedule.distill_flags
    n_links = 1 << n
    zeros = np.zeros(len(pi0))
    dead = zeros.astype(bool)  # rows that reset with certainty: unchecked
    failures: list[str | None] = [None] * len(pi0)

    def fail(newly, message):
        for b in np.flatnonzero(newly & ~dead):
            failures[b] = message(b)
        np.logical_or(dead, newly, out=dead)

    r0, survive0, p, no_mass = _init_rows(m, pi0)
    fail(no_mass, lambda b: f"generation cannot reach the threshold 1 (m={m}, pi0={pi0[b]})")
    _check_rows(p, dead, "generation")
    tails = _tails(p)
    tails /= tails[:, 1:2]  # T[:, 0] = T[:, 1] = 1 exactly
    levels = [(p, r0, survive0, zeros)]  # each level's rows, r, 1 - r and defect
    swaps, attempts = [], []
    running = survive0**n_links
    for i in range(n):
        segments = n_links >> i
        # E[floor(K/2)] = sum_{j >= 1} P(K >= 2j)
        attempts.append(running * segments * tails[:, 2::2].sum(axis=1) if flags[i] else zeros)
        if flags[i]:
            q = _thin_rows(p, schedule.distill_success[i], schedule.level_width(i) // 2)
            _check_rows(q, dead, f"distillation at level {i}")
            ri, p, tails, kept, defect, failure = _pair_thinned(q, flags[i + 1])
            fail(failure > 0, lambda b: _LEVEL_FAILURES[failure[b]])
        else:  # no count is 0, so nothing resets or is dropped
            p, tails = _pair(p, tails)
            ri, kept, defect = zeros, 1.0, zeros
        _check_rows(p, dead, f"pairing into level {i + 1}")
        swaps.append(running * (segments // 2) * (kept * tails[:, 1:].sum(axis=1)))
        running = running * kept ** (segments // 2)
        levels.append((p, ri, 1.0 - ri, defect))
    p_cond, r, survive, defects = zip(*levels)
    f, completion = _reset_rows(np.column_stack(survive), n_links)
    per_level = dead[:, None]
    return CascadeBatch(
        p_cond=p_cond,
        r=np.column_stack(r),
        f=f,
        completion_prob=np.where(dead, 0.0, completion),
        expected_end_pairs=np.where(dead, 0.0, completion * tails[:, 1:].sum(axis=1)),
        mass_defect=np.where(per_level, 0.0, np.column_stack(defects)),
        # the top level neither thins nor pairs
        swaps=np.where(per_level, 0.0, np.column_stack([*swaps, zeros])),
        distill_attempts=np.where(per_level, 0.0, np.column_stack([*attempts, zeros])),
        certain_reset=tuple(failures),
    )
