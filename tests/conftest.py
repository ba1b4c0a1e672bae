import numpy as np
import pytest
from hypothesis import strategies as st

from repeaterscope.cascade import end_pairs_bound
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def level_means(batch, configs):
    """mu_i = s_i E[p_i] of every row and level (see ``cascade.end_pairs_bound``),
    with s_0 the single-link survival 1 - (1 - pi0)**m and
    s_{i+1} = s_i**2 (1 - r_{i+1})."""
    m = np.array([c.m for c in configs], dtype=np.float64)
    pi0 = np.array([c.pi0 for c in configs])
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        survive = -np.expm1(m * np.log1p(-pi0))
        means = []
        for i, p in enumerate(batch.p_cond):
            if i:
                survive = survive * survive * (1.0 - batch.r[:, i])
            means.append(survive * (p @ np.arange(p.shape[1])))
    return np.column_stack(means)


def assert_end_pairs_bounded(batch, configs):
    """Every live row delivers at most ``m * pi0`` end pairs, and mu_i never
    grows from one level to the next, up to rounding."""
    slack = 1e-12
    means = level_means(batch, configs)
    for b, config in enumerate(configs):
        if batch.certain_reset[b]:
            continue
        bound = end_pairs_bound(config.m, config.pi0)
        assert batch.expected_end_pairs[b] <= bound * (1.0 + slack)
        assert means[b, 0] <= bound * (1.0 + slack)
        for i in range(config.n):
            assert means[b, i + 1] <= means[b, i] * (1.0 + slack), (i, means[b])
        assert means[b, -1] == pytest.approx(batch.expected_end_pairs[b], rel=1e-9, abs=1e-300)
