import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from repeaterscope import cascade
from repeaterscope.cascade import (
    CascadeConfig,
    CertainResetError,
    PairCountDistribution,
    conditional_init,
    conditional_level_update,
    delta_distribution,
    distillation_thinning,
    generation_distribution,
    pair_minimum,
    reset_probability_f,
    run_cascade,
    run_cascade_batch,
)
from repeaterscope.oracle import MonteCarloConfig, mc_cascade

from conftest import count_distribution


def aligned_tv(p: np.ndarray, q: np.ndarray) -> float:
    width = max(len(p), len(q))
    a = np.zeros(width)
    a[: len(p)] = p
    b = np.zeros(width)
    b[: len(q)] = q
    return 0.5 * float(np.abs(a - b).sum())


class TestPairCountDistribution:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            PairCountDistribution(np.array([0.5, -0.1, 0.6]))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            PairCountDistribution(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError):
            PairCountDistribution(np.array([bad, 1.0]))
        with pytest.raises(ValueError):
            PairCountDistribution(np.full(3, bad))

    def test_mean_helpers(self):
        dist = PairCountDistribution(np.array([0.25, 0.25, 0.25, 0.25]))
        assert dist.mean() == pytest.approx(1.5)


class TestGeneration:
    def test_certain_success(self):
        dist = generation_distribution(1, 1.0)
        assert dist.probs[1] == pytest.approx(1.0)

    def test_binomial_value(self):
        dist = generation_distribution(4, 0.5)
        assert dist.probs[2] == pytest.approx(0.375, abs=1e-12)

    def test_certain_failure(self):
        dist = generation_distribution(1024, 0.0)
        assert dist.probs[0] == pytest.approx(1.0)

    def test_large_width_stays_normalized(self):
        dist = generation_distribution(1 << 12, 0.37)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert dist.mean() == pytest.approx((1 << 12) * 0.37, rel=1e-9)

    def test_widest_supported_multiplexing(self):
        dist = generation_distribution(1 << 16, 3e-5)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert dist.mean() == pytest.approx((1 << 16) * 3e-5, rel=1e-9)
        assert np.isfinite(dist.probs).all()

    @pytest.mark.parametrize("pi0", [1e-6, 0.013, 0.5, 0.87, 1 - 1e-9])
    def test_matches_exact_combinatorial_pmf(self, pi0):
        m = 30
        dist = generation_distribution(m, pi0)
        exact = np.array(
            [
                math.comb(m, k) * pi0**k * (1.0 - pi0) ** (m - k)
                for k in range(m + 1)
            ]
        )
        assert np.allclose(dist.probs, exact, rtol=1e-11, atol=1e-300)


class TestThinning:
    def test_guaranteed_single_pair(self):
        out = distillation_thinning(delta_distribution(2), 1.0, cap=1)
        assert out.probs[1] == pytest.approx(1.0)

    def test_binomial_split(self):
        out = distillation_thinning(delta_distribution(4), 0.5, cap=2)
        assert np.allclose(out.probs, [0.25, 0.5, 0.25], atol=1e-12)

    def test_odd_leftover_consumed(self):
        out = distillation_thinning(delta_distribution(3), 1.0, cap=1)
        assert out.probs[1] == pytest.approx(1.0)

    def test_single_pair_lost(self):
        out = distillation_thinning(delta_distribution(1), 0.9, cap=1)
        assert out.probs[0] == pytest.approx(1.0)

    @given(count_distribution(), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_matches_direct_sum(self, probs, d):
        dist = PairCountDistribution(probs)
        cap = (len(probs) - 1) // 2 + 1
        out = distillation_thinning(dist, d, cap=cap)
        direct = np.zeros(cap + 1)
        for j, pj in enumerate(probs):
            pairs = j // 2
            for k in range(pairs + 1):
                direct[k] += (
                    pj * math.comb(pairs, k) * d**k * (1.0 - d) ** (pairs - k)
                )
        assert aligned_tv(out.probs, direct / direct.sum()) < 1e-12


class TestPairMinimum:
    def test_deterministic_input(self):
        out = pair_minimum(delta_distribution(3))
        assert out.probs[3] == pytest.approx(1.0)

    def test_two_point_example(self):
        out = pair_minimum(PairCountDistribution(np.array([0.5, 0.5])))
        assert np.allclose(out.probs, [0.75, 0.25], atol=1e-12)

    @given(count_distribution())
    @settings(max_examples=50)
    def test_matches_quadratic_brute_force(self, probs):
        dist = PairCountDistribution(probs)
        out = pair_minimum(dist)
        brute = np.zeros(len(probs))
        for j1, j2 in itertools.product(range(len(probs)), repeat=2):
            brute[min(j1, j2)] += probs[j1] * probs[j2]
        assert aligned_tv(out.probs, brute) < 1e-12


class TestConditionalInit:
    def test_certain_generation(self):
        r0, dist = conditional_init(3, 1.0)
        assert r0 == 0.0
        assert dist.probs[3] == pytest.approx(1.0)

    def test_two_channel_example(self):
        r0, dist = conditional_init(2, 0.5)
        assert r0 == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(dist.probs, [0.0, 2 / 3, 1 / 3], atol=1e-12)

    def test_zero_success_raises(self):
        with pytest.raises(CertainResetError):
            conditional_init(8, 0.0)

    def test_higher_threshold(self):
        r0, dist = conditional_init(4, 0.5, reset_threshold=2)
        assert r0 == pytest.approx(binom.cdf(1, 4, 0.5), abs=1e-12)
        assert dist.probs[0] == 0.0
        assert dist.probs[1] == 0.0


class TestConditionalLevelUpdate:
    def test_no_zero_mass_means_no_reset(self):
        dist = PairCountDistribution(np.array([0.0, 0.5, 0.5]))
        r, out, defect = conditional_level_update(dist, distill_scheduled=True)
        assert r == 0.0
        assert defect == pytest.approx(0.0, abs=1e-12)

    def test_reset_probability_example(self):
        dist = PairCountDistribution(np.array([0.2, 0.0, 0.8]))
        r, out, defect = conditional_level_update(dist, distill_scheduled=True)
        assert r == pytest.approx(0.36, abs=1e-12)
        assert defect == pytest.approx(0.0, abs=1e-12)
        assert out.probs[0] == 0.0

    def test_no_distillation_forces_zero_reset(self):
        dist = PairCountDistribution(np.array([0.2, 0.3, 0.5]))
        r, out, defect = conditional_level_update(dist, distill_scheduled=False)
        assert r == 0.0
        # all zero-pairing mass is dropped instead
        assert defect == pytest.approx(0.2**2 + 2 * 0.2 * 0.8, abs=1e-12)

    def test_pairing_exclusion_recorded_as_defect(self):
        dist = PairCountDistribution(np.array([0.2, 0.5, 0.3]))
        r, out, defect = conditional_level_update(dist, distill_scheduled=True)
        expected_r = 0.2**2 + 2 * 0.2 * 0.3
        assert r == pytest.approx(expected_r, abs=1e-12)
        assert defect == pytest.approx(2 * 0.2 * 0.5 / (1 - expected_r), abs=1e-12)

    def test_certain_reset(self):
        dist = PairCountDistribution(np.array([1.0, 0.0]))
        with pytest.raises(CertainResetError):
            conditional_level_update(dist, distill_scheduled=True)


class TestResetProbabilityF:
    def test_no_resets(self):
        f, completion = reset_probability_f(np.zeros(3), 4)
        assert np.allclose(f, 0.0)
        assert completion == 1.0

    def test_generation_only(self):
        f, completion = reset_probability_f(np.array([0.25, 0.0, 0.0]), 4)
        assert f[0] == pytest.approx(1 - 0.75**4, abs=1e-12)
        assert completion == pytest.approx(0.75**4, abs=1e-12)

    def test_certain_reset_at_level(self):
        f, completion = reset_probability_f(np.array([0.1, 1.0]), 2)
        assert completion == 0.0
        assert f.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(st.floats(0.0, 0.9), min_size=1, max_size=5),
        st.integers(0, 4),
    )
    def test_total_mass_conserved(self, r, n):
        r = np.asarray(r[: n + 1] if len(r) > n else r)
        f, completion = reset_probability_f(r, 1 << n)
        assert f.sum() + completion == pytest.approx(1.0, abs=1e-10)


class TestRunCascade:
    def test_single_link_reduces_to_conditional_init(self):
        config = CascadeConfig(n=0, m=8, pi0=0.4)
        report = run_cascade(config)
        r0, cond = conditional_init(8, 0.4)
        assert report.r[0] == pytest.approx(r0)
        assert np.allclose(report.end_distribution.probs, cond.probs, atol=1e-12)
        assert report.completion_prob == pytest.approx(1 - r0)
        assert report.expected_end_pairs == pytest.approx((1 - r0) * cond.mean())

    def test_distill_flag_capacity_validation(self):
        with pytest.raises(ValueError):
            CascadeConfig(n=1, m=1, pi0=0.5, distill_flags=(True, False))

    def test_top_level_distillation_rejected(self):
        with pytest.raises(ValueError):
            CascadeConfig(n=1, m=4, pi0=0.5, distill_flags=(False, True))

    def test_all_distributions_normalized(self):
        config = CascadeConfig(
            n=3,
            m=32,
            pi0=0.35,
            distill_flags=(True, False, True, False),
            distill_success=(0.9, 1.0, 0.85, 1.0),
        )
        report = run_cascade(config)
        for track in (report.p_cond, report.q_cond):
            for dist in track:
                assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
                assert dist.probs.min() >= 0.0
        assert report.f.sum() + report.completion_prob == pytest.approx(
            1.0, abs=1e-10
        )

    def test_expected_pairs_monotone_in_pi0_and_m(self):
        base = CascadeConfig(n=2, m=16, pi0=0.3)
        richer = CascadeConfig(n=2, m=16, pi0=0.5)
        wider = CascadeConfig(n=2, m=32, pi0=0.3)
        e_base = run_cascade(base).expected_end_pairs
        assert run_cascade(richer).expected_end_pairs > e_base
        assert run_cascade(wider).expected_end_pairs > e_base

    def test_min_of_binomials_upper_bound(self, rng):
        # без distillation the end count is the min over all links
        config = CascadeConfig(n=2, m=16, pi0=0.3)
        report = run_cascade(config)
        samples = rng.binomial(16, 0.3, size=(200_000, 4)).min(axis=1)
        assert report.expected_end_pairs <= samples.mean() + 0.01

    @pytest.mark.parametrize("pi0", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize(
        "flags,succ",
        [
            ((False, False, False), (1.0, 1.0, 1.0)),
            ((True, False, False), (0.9, 1.0, 1.0)),
        ],
    )
    def test_against_monte_carlo(self, pi0, flags, succ):
        config = CascadeConfig(
            n=2, m=16, pi0=pi0, distill_flags=flags, distill_success=succ
        )
        report = run_cascade(config)
        mc = mc_cascade(config, MonteCarloConfig(trials=200_000, seed=11))
        tv = aligned_tv(report.end_distribution.probs, mc.end_distribution)
        assert tv < 0.01
        comp, comp_se = mc.completion_estimate()
        assert abs(report.completion_prob - comp) <= max(3 * comp_se, 1e-9)

    def test_double_distillation_against_monte_carlo(self):
        # distillation at both lower levels; pi0 large enough that the
        # conditional completion event stays well populated
        config = CascadeConfig(
            n=2,
            m=16,
            pi0=0.3,
            distill_flags=(True, True, False),
            distill_success=(0.9, 0.85, 1.0),
        )
        report = run_cascade(config)
        mc = mc_cascade(config, MonteCarloConfig(trials=400_000, seed=17))
        tv = aligned_tv(report.end_distribution.probs, mc.end_distribution)
        assert tv < 0.01
        comp, comp_se = mc.completion_estimate()
        assert abs(report.completion_prob - comp) <= 3 * comp_se


class TestRunCascadeBatch:
    FLAGS = (True, False, True, False)
    SUCCESS = (0.9, 1.0, 0.85, 1.0)

    def configs(self, pi0s, **kw):
        return [
            CascadeConfig(n=3, m=32, pi0=p, distill_flags=self.FLAGS, distill_success=self.SUCCESS, **kw)
            for p in pi0s
        ]

    def test_rows_equal_single_runs_bit_for_bit(self):
        configs = self.configs([0.35, 0.02, 0.0, 0.9, 1.0])
        batch = run_cascade_batch(configs)
        assert batch.certain_reset[2] is not None
        for b, config in enumerate(configs):
            if b == 2:
                with pytest.raises(CertainResetError):
                    run_cascade(config)
                continue
            assert batch.certain_reset[b] is None
            report = run_cascade(config)
            for name in ("r", "f", "mass_defect", "swaps", "distill_attempts"):
                assert np.array_equal(getattr(batch, name)[b], getattr(report, name)), name
            assert batch.completion_prob[b] == report.completion_prob
            assert batch.expected_end_pairs[b] == report.expected_end_pairs
            assert np.array_equal(batch.p_cond[-1][b], report.end_distribution.probs)

    def test_rows_must_share_the_schedule(self):
        mixed = self.configs([0.3]) + [CascadeConfig(n=3, m=32, pi0=0.3)]
        with pytest.raises(ValueError):
            run_cascade_batch(mixed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_level_is_rejected(self, monkeypatch, bad):
        table = cascade._thinning_table

        def poisoned(rows, cap, d):
            out = table(rows, cap, d)
            out[-1, 0] = bad
            return out

        monkeypatch.setattr(cascade, "_thinning_table", poisoned)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="distillation at level 0"):
            run_cascade_batch(self.configs([0.35]))

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("pi0", [1e-15, 1e-13])
    def test_completion_matches_closed_form_at_tiny_success(self, n, pi0):
        # no distillation: the burst completes when every link clears the
        # threshold, (1 - (1 - pi0)**m)**N
        report = run_cascade(CascadeConfig(n=n, m=16, pi0=pi0))
        expected = binom.sf(0, 16, pi0) ** (1 << n)
        assert report.completion_prob == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert report.f.sum() + report.completion_prob == pytest.approx(1.0, abs=1e-12)
