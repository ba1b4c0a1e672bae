import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repeaterscope import oracle
from repeaterscope.states import (
    BellDiagonal,
    DegenerateInputError,
    NoiseParams,
    apply_dephasing,
    binary_entropy,
    dejmps,
    initial_state,
    key_fraction,
    swap,
    werner,
)

from conftest import bell_diagonal

NOISELESS = NoiseParams(0.0)


def assert_close(state: BellDiagonal, expected, tol=1e-12):
    for got, want in zip(state.as_tuple(), expected):
        assert got == pytest.approx(want, abs=tol)


class TestBellDiagonal:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BellDiagonal(1.1, -0.1, 0.0, 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            BellDiagonal(0.5, 0.2, 0.2, 0.2)

    def test_fidelity_is_first_coefficient(self):
        s = BellDiagonal(0.7, 0.1, 0.1, 0.1)
        assert s.fidelity() == 0.7

    def test_noise_params_default_xi(self):
        noise = NoiseParams(0.01)
        assert noise.xi == pytest.approx(0.0025)

    def test_noise_params_rejects_bad_t2(self):
        with pytest.raises(ValueError):
            NoiseParams(0.01, t2=0.0)

    def test_noise_params_rejects_eps_g_past_zero_link_fidelity(self):
        # at eps_g = 0.8 the heralded link's fidelity 1 - 1.25 eps_g is 0
        assert initial_state(NoiseParams(0.8).eps_g).fidelity() == 0.0
        with pytest.raises(ValueError, match="eps_g"):
            NoiseParams(0.81)


class TestInitialState:
    def test_noiseless_identity(self):
        assert_close(initial_state(0.0), (1, 0, 0, 0))

    def test_fidelity_formula(self):
        assert initial_state(1e-2).fidelity() == pytest.approx(0.9875)

    def test_werner_split(self):
        third = 0.00125 / 3
        assert_close(initial_state(1e-3), (0.99875, third, third, third))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            initial_state(0.81)
        with pytest.raises(ValueError):
            initial_state(-0.1)


class TestDephasing:
    def test_zero_time_is_identity(self):
        s = werner(0.8)
        assert_close(apply_dephasing(s, 0.0, 1.0), s.as_tuple())

    def test_infinite_time_limit(self):
        out = apply_dephasing(BellDiagonal(1, 0, 0, 0), 1e9, 1.0)
        assert_close(out, (0.5, 0.5, 0, 0), tol=1e-9)

    def test_half_t2_value(self):
        out = apply_dephasing(BellDiagonal(1, 0, 0, 0), 0.5, 1.0)
        assert out.a == pytest.approx((1 + math.exp(-1)) / 2, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            apply_dephasing(werner(0.9), -1.0, 1.0)

    @given(bell_diagonal(), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_semigroup_law(self, s, t1, t2):
        once = apply_dephasing(s, t1 + t2, 1.0)
        twice = apply_dephasing(apply_dephasing(s, t1, 1.0), t2, 1.0)
        assert_close(twice, once.as_tuple())

    @given(bell_diagonal(), st.floats(0.0, 10.0))
    def test_matches_density_matrix_channel(self, s, t):
        fast = apply_dephasing(s, t, 2.0)
        slow = oracle.dm_dephase(s, t, 2.0)
        assert_close(fast, slow.as_tuple(), tol=1e-10)


class TestSwap:
    def test_perfect_inputs(self):
        out = swap(BellDiagonal(1, 0, 0, 0), BellDiagonal(1, 0, 0, 0), NOISELESS)
        assert_close(out, (1, 0, 0, 0))

    @given(bell_diagonal())
    def test_convolution_identity(self, s):
        out = swap(BellDiagonal(1, 0, 0, 0), s, NOISELESS)
        assert_close(out, s.as_tuple())

    def test_werner_fidelity(self):
        out = swap(werner(0.9), werner(0.9), NOISELESS)
        assert out.a == pytest.approx(0.9**2 + 0.1**2 / 3, abs=1e-12)

    @given(bell_diagonal(), bell_diagonal())
    def test_commutative(self, s1, s2):
        noise = NoiseParams(0.01)
        assert_close(swap(s1, s2, noise), swap(s2, s1, noise).as_tuple())

    @given(bell_diagonal(), bell_diagonal(), bell_diagonal())
    def test_associative_when_ideal(self, s1, s2, s3):
        left = swap(swap(s1, s2, NOISELESS), s3, NOISELESS)
        right = swap(s1, swap(s2, s3, NOISELESS), NOISELESS)
        assert_close(left, right.as_tuple())

    @given(bell_diagonal(), bell_diagonal(), st.floats(0.0, 0.2))
    def test_preserves_normalization(self, s1, s2, eps):
        out = swap(s1, s2, NoiseParams(eps))
        assert sum(out.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert min(out.as_tuple()) >= 0.0


class TestDejmps:
    def test_perfect_inputs(self):
        out, p = dejmps(BellDiagonal(1, 0, 0, 0), BellDiagonal(1, 0, 0, 0), NOISELESS)
        assert_close(out, (1, 0, 0, 0))
        assert p == pytest.approx(1.0)

    def test_werner_examples(self):
        out, p = dejmps(werner(0.9), werner(0.9), NOISELESS)
        assert p == pytest.approx(197 / 225, abs=1e-12)
        assert out.a == pytest.approx(730 / 788, abs=1e-12)

    @given(bell_diagonal(), bell_diagonal(), st.floats(0.0, 0.3))
    def test_xi_zero_reduces_to_ideal_on_depolarized_inputs(self, s1, s2, eps):
        noise = NoiseParams(eps, xi=0.0)
        mixed1 = BellDiagonal(*((1 - eps) * x + eps / 4 for x in s1.as_tuple()))
        mixed2 = BellDiagonal(*((1 - eps) * x + eps / 4 for x in s2.as_tuple()))
        full, p_full = dejmps(s1, s2, noise)
        ideal, p_ideal = dejmps(mixed1, mixed2, NOISELESS)
        assert_close(full, ideal.as_tuple())
        assert p_full == pytest.approx(p_ideal, abs=1e-12)

    def test_degenerate_input_raises(self):
        phi_plus = BellDiagonal(1, 0, 0, 0)
        phi_minus = BellDiagonal(0, 1, 0, 0)
        # coincidence weight vanishes and xi = 0: acceptance is exactly zero
        with pytest.raises(DegenerateInputError):
            dejmps(phi_plus, phi_minus, NoiseParams(0.0, xi=0.0))

    @given(bell_diagonal(), bell_diagonal(), st.floats(0.0, 0.2))
    def test_preserves_normalization(self, s1, s2, eps):
        out, p = dejmps(s1, s2, NoiseParams(eps))
        assert sum(out.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < p <= 1.0


class TestOracleAgreement:
    """Ideal closed forms against the dense two-pair simulator."""

    def test_swap_matches_oracle_on_random_pairs(self, rng):
        for _ in range(100):
            v1 = rng.random(4) + 1e-3
            v2 = rng.random(4) + 1e-3
            s1 = BellDiagonal(*(v1 / v1.sum()))
            s2 = BellDiagonal(*(v2 / v2.sum()))
            closed = swap(s1, s2, NOISELESS)
            dense, _ = oracle.dm_swap(s1, s2)
            assert_close(closed, dense.as_tuple(), tol=1e-12)

    def test_dejmps_matches_oracle_on_random_pairs(self, rng):
        for _ in range(100):
            v1 = rng.random(4) + 1e-3
            v2 = rng.random(4) + 1e-3
            s1 = BellDiagonal(*(v1 / v1.sum()))
            s2 = BellDiagonal(*(v2 / v2.sum()))
            closed, p = dejmps(s1, s2, NOISELESS)
            dense, p_dense = oracle.dm_dejmps(s1, s2)
            assert_close(closed, dense.as_tuple(), tol=1e-12)
            assert p == pytest.approx(p_dense, abs=1e-12)


class TestKeyFraction:
    def test_perfect_state(self):
        assert key_fraction(BellDiagonal(1, 0, 0, 0)) == 1.0

    def test_werner_value(self):
        expected = 1.0 - 2.0 * binary_entropy(1.0 / 30.0)
        assert key_fraction(werner(0.95)) == pytest.approx(expected, abs=1e-12)
        assert key_fraction(werner(0.95)) == pytest.approx(0.578315, abs=1e-6)

    def test_maximally_mixed_clamps_to_zero(self):
        assert key_fraction(BellDiagonal(0.25, 0.25, 0.25, 0.25)) == 0.0

    def test_monotone_in_werner_fidelity(self):
        fs = [0.5 + 0.005 * k for k in range(101)]
        rates = [key_fraction(werner(f)) for f in fs]
        assert all(lo <= hi + 1e-15 for lo, hi in zip(rates, rates[1:]))

    def test_entropy_edge_cases(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
