"""The count recursion against an extended-precision replay of itself.

``replay`` runs the same recursion as ``cascade.run_cascade_batch`` (the
same generation, thinning, pairing and termination bookkeeping) in stdlib
``decimal`` at 50 significant digits, and rounds each output once to
float64.  Each output field of the float64 recursion must meet it within
a bound stated per field below, from the errors measured on these rows.
"""

import decimal
import sys
from decimal import Decimal

import numpy as np
import pytest

from repeaterscope.cascade import CascadeSchedule, run_cascade_batch

_DIGITS = 50

# worst error of each field: relative, against max(|reference|, the
# smallest normal float), except for the probabilities f and mass_defect,
# which are absolute
BOUNDS = {
    "r": 6e-14,
    "f": 6e-15,
    "completion_prob": 2e-14,
    "expected_end_pairs": 2e-14,
    "swaps": 5e-14,
    "distill_attempts": 3e-14,
    "mass_defect": 2e-15,
}
ABSOLUTE = ("f", "mass_defect")


def _binomial(m: int, pi0: Decimal) -> list[Decimal]:
    if pi0 == 1:
        return [Decimal(0)] * m + [Decimal(1)]
    odds, value, out = pi0 / (1 - pi0), (1 - pi0) ** m, []
    for k in range(m + 1):
        out.append(value)
        value = value * (m - k) / (k + 1) * odds
    return out


def _thin(p: list[Decimal], d: Decimal, cap: int) -> list[Decimal]:
    """k pairs make floor(k/2) attempts, each kept with probability d."""
    groups = [Decimal(0)] * (len(p) // 2 + 1)
    for k, pk in enumerate(p):
        groups[k // 2] += pk
    out = [Decimal(0)] * (cap + 1)
    row = [Decimal(1)]  # Binomial(j, d), by Pascal's rule
    for j, g in enumerate(groups):
        if j:
            row = [(1 - d) * a + d * b for a, b in zip(row + [0], [0] + row)]
        if g:
            for k, b in enumerate(row):
                out[k] += g * b
    return out


def _tail(p: list[Decimal]) -> list[Decimal]:
    """T[k] = sum_{j >= k} p[j], k = 0..len(p)."""
    out = [Decimal(0)] * (len(p) + 1)
    for k in range(len(p) - 1, -1, -1):
        out[k] = out[k + 1] + p[k]
    return out


def replay(schedule: CascadeSchedule, pi0: float) -> dict[str, np.ndarray] | None:
    """Every output field of one ``run_cascade_batch`` row, formed at 50
    digits and rounded once to float64; ``None`` if the row resets with
    certainty."""
    n, m, flags = schedule.n, schedule.m, schedule.distill_flags
    links = 1 << n
    with decimal.localcontext() as ctx:
        ctx.prec = _DIGITS
        pi = Decimal(pi0)
        b = _binomial(m, pi)
        none = (1 - pi) ** m
        survive = [1 - none]
        r = [none]
        if survive[0] == 0:
            return None
        p = [Decimal(0)] + [x / survive[0] for x in b[1:]]
        running = survive[0] ** links
        swaps, attempts, defects = [], [], [Decimal(0)]
        for i in range(n + 1):
            segments = max(links >> i, 1)
            q = p
            if flags[i]:
                halves = sum((k // 2) * pk for k, pk in enumerate(p))
                attempts.append(running * segments * halves)
                q = _thin(p, Decimal(schedule.distill_success[i]), schedule.level_width(i) // 2)
            else:
                attempts.append(Decimal(0))
            if i == n:
                swaps.append(Decimal(0))
                break
            tail = _tail(q)
            paired = [qk * qk + 2 * qk * tail[k + 1] for k, qk in enumerate(q)]
            swaps.append(running * (segments // 2) * sum(k * x for k, x in enumerate(paired)))
            ri = q[0] * q[0] + 2 * q[0] * tail[2] if flags[i + 1] and len(q) > 1 else Decimal(0)
            total = sum(paired[1:])
            if ri == 1 or total == 0:
                return None
            p = [Decimal(0)] + [x / total for x in paired[1:]]
            running = running * tail[1] ** (2 * (segments // 2))
            r.append(ri)
            survive.append(1 - ri)
            defects.append(max(1 - total / (1 - ri), Decimal(0)))
        f, carried = [], Decimal(1)
        for i, s in enumerate(survive):
            level = s ** max(links >> i, 1)
            f.append(carried * (1 - level))
            carried *= level
        mean = sum(k * x for k, x in enumerate(p))
        fields = {
            "r": r,
            "f": f,
            "completion_prob": [carried],
            "expected_end_pairs": [carried * mean],
            "mass_defect": defects,
            "swaps": swaps,
            "distill_attempts": attempts,
        }
        return {name: np.array([float(x) for x in v]) for name, v in fields.items()}


def replay_errors(schedule: CascadeSchedule, pi0s) -> dict[str, float]:
    """The worst error of each field of ``run_cascade_batch`` over ``pi0s``
    against ``replay``: relative (against max(|reference|, the smallest
    normal float)), and absolute for ``f`` and ``mass_defect``."""
    batch = run_cascade_batch(schedule, pi0s)
    worst = dict.fromkeys(BOUNDS, 0.0)
    for b, pi0 in enumerate(pi0s):
        want = replay(schedule, pi0)
        assert (want is None) == (batch.certain_reset[b] is not None), pi0
        if want is None:
            continue
        for name, ref in want.items():
            got = np.atleast_1d(getattr(batch, name)[b])
            err = np.abs(got - ref)
            if name not in ABSOLUTE:
                err = err / np.maximum(np.abs(ref), sys.float_info.min)
            worst[name] = max(worst[name], float(err.max()))
    return worst


def assert_within_bounds(errors: dict[str, float]) -> None:
    for name, bound in BOUNDS.items():
        assert errors[name] <= bound, (name, errors[name])


def distilling(n: int, m: int, levels: dict[int, float]) -> CascadeSchedule:
    flags = tuple(i in levels for i in range(n + 1))
    return CascadeSchedule(n, m, flags, tuple(levels.get(i, 1.0) for i in range(n + 1)))


ROWS = [
    pytest.param(CascadeSchedule(0, 16), [1e-15, 0.3, 1.0], id="m16-n0"),
    pytest.param(CascadeSchedule(6, 16), [0.02, 0.4, 0.9], id="m16-n6"),
    pytest.param(distilling(3, 16, {0: 0.9, 2: 0.85}), [0.02, 0.35, 0.9], id="m16-n3-distill"),
    pytest.param(distilling(6, 16, {0: 0.7, 1: 0.9, 4: 0.95}), [0.3, 0.6], id="m16-n6-distill"),
    pytest.param(CascadeSchedule(0, 1024), [1e-9, 0.0026, 0.3], id="m1024-n0"),
    pytest.param(CascadeSchedule(6, 1024), [0.001, 0.02, 0.5], id="m1024-n6"),
    pytest.param(distilling(4, 1024, {0: 0.9}), [0.004, 0.01], id="m1024-n4-distill"),
    pytest.param(
        distilling(6, 1024, {0: 0.9, 2: 0.8, 5: 0.84}), [0.002, 0.02], id="m1024-n6-distill"
    ),
]

# a row of the fig6 sweep whose thinned rows hold almost all their mass at 0
# (0.99915 at level 5, 1 - 6.8e-28 at level 6)
FIG6 = CascadeSchedule(
    n=7,
    m=1024,
    distill_flags=(False,) * 5 + (True, True, False),
    distill_success=(1.0,) * 5 + (0.8840622571250697, 0.8374221450125313, 1.0),
)
FIG6_PI0 = [0.0026298240039713634]


class TestReplay:
    @pytest.mark.parametrize("schedule, pi0s", ROWS)
    def test_fields_meet_the_replay(self, schedule, pi0s):
        assert_within_bounds(replay_errors(schedule, pi0s))

    def test_fig6_row_meets_the_replay(self):
        assert_within_bounds(replay_errors(FIG6, FIG6_PI0))

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "schedule, pi0s",
        [
            (CascadeSchedule(3, 4096), [1e-6, 0.001, 0.2]),
            (distilling(6, 4096, {0: 0.9, 3: 0.85}), [0.0005, 0.004]),
        ],
    )
    def test_widest_rows_meet_the_replay(self, schedule, pi0s):
        assert_within_bounds(replay_errors(schedule, pi0s))

    def test_replay_matches_a_hand_computed_row(self):
        # m = 2, pi0 = 1/2, one level without distillation: a link holds K
        # pairs with P(K=1) = 2/3, P(K=2) = 1/3 given K >= 1; min of two
        # such has P(min=2) = 1/9
        want = replay(CascadeSchedule(1, 2), 0.5)
        assert want["completion_prob"][0] == 0.5625
        assert want["expected_end_pairs"][0] == pytest.approx(0.5625 * 10 / 9, rel=1e-15)
        assert want["swaps"].tolist() == [pytest.approx(0.5625 * 10 / 9, rel=1e-15), 0.0]
