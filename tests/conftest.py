import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from repeaterscope import protocol
from repeaterscope.cascade import end_pairs_bound
from repeaterscope.channel import select_wavelength
from repeaterscope.states import BellDiagonal


@st.composite
def bell_diagonal(draw):
    """Random valid Bell-diagonal state, bounded away from degenerate corners."""
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=4,
            max_size=4,
        )
    )
    total = sum(raw)
    return BellDiagonal(*(x / total for x in raw))


@st.composite
def count_distribution(draw, max_width: int = 12):
    """Random probability vector over small pair counts."""
    width = draw(st.integers(min_value=1, max_value=max_width))
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=width,
            max_size=width,
        ).filter(lambda xs: sum(xs) > 1e-6)
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


def reference_binomial_rows(n: int, p) -> np.ndarray:
    """Binomial(n, p) pmf over k = 0..n for each entry of ``p``, formed at 50
    digits and rounded once to float64.

    Each row starts from ``(1 - p)**n`` and multiplies in the ratios
    ``(n - k) / (k + 1) * p / (1 - p)``; at 50 digits the rounding of n such
    steps stays far below float64's.
    """
    p = np.asarray(p, dtype=np.float64)
    rows = np.zeros((len(p), n + 1))
    with mpmath.workdps(50):
        for row, pi in zip(rows, p):
            if pi == 1.0:
                row[n] = 1.0
                continue
            pi = mpmath.mpf(float(pi))
            odds, value = pi / (1 - pi), (1 - pi) ** n
            for k in range(n + 1):
                row[k] = float(value)
                value = value * (n - k) / (k + 1) * odds
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def level_means(batch, schedule, pi0):
    """mu_i = s_i E[p_i] of every row and level (see ``cascade.end_pairs_bound``),
    with s_0 the single-link survival 1 - (1 - pi0)**m and
    s_{i+1} = s_i**2 (1 - r_{i+1})."""
    pi0 = np.asarray(pi0, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        survive = -np.expm1(schedule.m * np.log1p(-pi0))
        means = []
        for i, p in enumerate(batch.p_cond):
            if i:
                survive = survive * survive * (1.0 - batch.r[:, i])
            means.append(survive * (p @ np.arange(p.shape[1])))
    return np.column_stack(means)


def assert_end_pairs_bounded(batch, schedule, pi0):
    """Every live row delivers at most ``m * pi0`` end pairs, and at most
    ``m * pi0 * s_0**(2**n - 1)``; mu_i never grows from one level to the
    next, up to rounding."""
    slack = 1e-12
    means = level_means(batch, schedule, pi0)
    for b, p in enumerate(pi0):
        if batch.certain_reset[b]:
            continue
        bound = end_pairs_bound(schedule.m, p)
        assert batch.expected_end_pairs[b] <= bound * (1.0 + slack)
        with np.errstate(divide="ignore", under="ignore"):
            survive = -np.expm1(schedule.m * np.log1p(-p))
            depth = survive ** ((1 << schedule.n) - 1)
        assert batch.expected_end_pairs[b] <= bound * depth * (1.0 + slack)
        assert means[b, 0] <= bound * (1.0 + slack)
        for i in range(schedule.n):
            assert means[b, i + 1] <= means[b, i] * (1.0 + slack), (i, means[b])
        assert means[b, -1] == pytest.approx(batch.expected_end_pairs[b], rel=1e-9, abs=1e-300)


def plan_of(configs):
    """The plan of chains that share their schedule inputs, each with its
    own config: the first config's schedule, and each chain's wavelength."""
    head = configs[0]
    choices = [select_wavelength(c.medium, c.budget) for c in configs]
    return protocol.ChainPlan.from_trace(head, choices, protocol.build_schedule(head))
