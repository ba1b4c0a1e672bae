import numpy as np
import pytest

from repeaterscope.cascade import CascadeConfig
from repeaterscope.oracle import (
    McCascadeResult,
    MonteCarloConfig,
    dm_dejmps,
    dm_swap,
    mc_cascade,
)
from repeaterscope.states import BellDiagonal, werner


class TestDensityMatrixOracle:
    def test_swap_of_perfect_pairs(self):
        out, p = dm_swap(BellDiagonal(1, 0, 0, 0), BellDiagonal(1, 0, 0, 0))
        assert out.a == pytest.approx(1.0, abs=1e-12)
        assert p == 1.0

    def test_swap_output_is_valid_state(self, rng):
        for _ in range(20):
            v1, v2 = rng.random(4) + 1e-3, rng.random(4) + 1e-3
            out, _ = dm_swap(
                BellDiagonal(*(v1 / v1.sum())), BellDiagonal(*(v2 / v2.sum()))
            )
            assert sum(out.as_tuple()) == pytest.approx(1.0, abs=1e-12)
            assert min(out.as_tuple()) >= 0.0

    def test_dejmps_success_probability_matches_postselection(self):
        out, p = dm_dejmps(werner(0.9), werner(0.9))
        assert p == pytest.approx(197 / 225, abs=1e-12)
        assert out.a == pytest.approx(730 / 788, abs=1e-12)

    def test_swap_of_werner_pairs(self):
        # two Werner pairs of fidelity F swap to F**2 + (1 - F)**2 / 3
        s = werner(0.95)
        assert dm_swap(s, s)[0].a == pytest.approx(0.95**2 + 0.05**2 / 3, abs=1e-12)


class TestMonteCarloSampler:
    def test_deterministic_given_seed(self):
        config = CascadeConfig(n=1, m=8, pi0=0.4)
        mc = MonteCarloConfig(trials=50_000, seed=123)
        a = mc_cascade(config, mc)
        b = mc_cascade(config, mc)
        assert np.array_equal(a.end_histogram, b.end_histogram)
        assert a.swap_ops_sum == b.swap_ops_sum

    def test_multi_chunk_runs_are_deterministic(self):
        # trials spanning several chunks exercise the per-chunk stream keys
        config = CascadeConfig(n=1, m=8, pi0=0.4)
        mc = MonteCarloConfig(trials=150_000, seed=7)  # three chunks
        whole = mc_cascade(config, mc)
        again = mc_cascade(config, mc)
        assert np.array_equal(whole.end_histogram, again.end_histogram)
        assert whole.swap_ops_sum == again.swap_ops_sum
        assert np.array_equal(whole.reset_trials, again.reset_trials)

    def test_different_seeds_agree_within_error(self):
        config = CascadeConfig(n=1, m=8, pi0=0.4)
        a = mc_cascade(config, MonteCarloConfig(trials=200_000, seed=1))
        b = mc_cascade(config, MonteCarloConfig(trials=200_000, seed=2))
        assert not np.array_equal(a.end_histogram, b.end_histogram)
        mean_a = (np.arange(len(a.end_histogram)) @ a.end_histogram) / a.clean_trials
        mean_b = (np.arange(len(b.end_histogram)) @ b.end_histogram) / b.clean_trials
        assert mean_a == pytest.approx(mean_b, rel=0.02)

    def test_certain_success_is_exact(self):
        config = CascadeConfig(
            n=1, m=4, pi0=1.0, distill_flags=(True, False), distill_success=(1.0, 1.0)
        )
        mc = mc_cascade(config, MonteCarloConfig(trials=10_000, seed=3))
        assert mc.clean_trials == 10_000
        assert mc.end_histogram[2] == 10_000  # 4 pairs -> 2 distilled -> min 2
        comp, _ = mc.completion_estimate()
        assert comp == 1.0

    def test_level_where_every_entrant_resets_gives_zero_completion(self):
        # 4 of 10 trials reach level 1 and all 4 reset there; the estimate's
        # stderr would divide by 1 - 4/4
        mc = McCascadeResult(
            trials=10,
            end_histogram=np.zeros(3, dtype=np.int64),
            clean_trials=0,
            reset_trials=np.array([6, 4]),
            entered_trials=np.array([10, 4]),
            swap_ops_sum=0.0,
            swap_ops_sumsq=0.0,
            distill_ops_sum=0.0,
            distill_ops_sumsq=0.0,
        )
        assert mc.completion_estimate() == (0.0, 0.0)
