import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from repeaterscope import cascade
from repeaterscope.cascade import (
    CascadeConfig,
    InvariantError,
    _binomial_rows,
    _check_rows,
    _init_rows,
    _level_rows,
    _paired_rows,
    _reset_rows,
    _thin_rows,
    end_pairs_bound,
    run_cascade_batch,
)
from repeaterscope.oracle import MonteCarloConfig, mc_cascade

from conftest import assert_end_pairs_bounded, count_distribution


def aligned_tv(p: np.ndarray, q: np.ndarray) -> float:
    width = max(len(p), len(q))
    a = np.zeros(width)
    a[: len(p)] = p
    b = np.zeros(width)
    b[: len(q)] = q
    return 0.5 * float(np.abs(a - b).sum())


def mean(probs: np.ndarray) -> float:
    return float(np.arange(len(probs)) @ probs)


def delta(k: int) -> np.ndarray:
    """A (1, k + 1) row holding all its mass at count k."""
    row = np.zeros((1, k + 1))
    row[0, k] = 1.0
    return row


def min_of_pair(probs: np.ndarray) -> np.ndarray:
    """min(K1, K2) of two i.i.d. counts drawn from ``probs``, normalized."""
    paired, _ = _paired_rows(np.asarray(probs)[None, :])
    return paired[0] / paired[0].sum()


def level_update(probs, distill_next: bool):
    """``(r, next row, defect, failure code)`` of one pairing level."""
    r, nxt, defect, _, failure = _level_rows(np.asarray(probs)[None, :], distill_next)
    return r[0], nxt[0], defect[0], failure[0]


def resets_and_completion(r, n_links: int):
    f, completion = _reset_rows(1.0 - np.asarray(r, dtype=np.float64)[None, :], n_links)
    return f[0], completion[0]


def run_one(config: CascadeConfig):
    """The batch of one configuration, which must not reset with certainty."""
    batch = run_cascade_batch([config])
    assert batch.certain_reset[0] is None
    return batch


LIVE = np.zeros(1, dtype=bool)


class TestCheckRows:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvariantError):
            _check_rows(np.array([[0.5, -0.1, 0.6]]), LIVE, "level")

    def test_rejects_bad_mass(self):
        with pytest.raises(InvariantError):
            _check_rows(np.array([[0.5, 0.4]]), LIVE, "level")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvariantError):
            _check_rows(np.array([[bad, 1.0]]), LIVE, "level")
        with pytest.raises(InvariantError):
            _check_rows(np.full((1, 3), bad), LIVE, "level")

    def test_skips_rows_that_reset_with_certainty(self):
        rows = np.array([[0.25, 0.75], [np.nan, np.nan]])
        _check_rows(rows, np.array([False, True]), "level")
        with pytest.raises(InvariantError, match="level: row 1"):
            _check_rows(rows, np.array([False, False]), "level")


class TestGeneration:
    def test_certain_success(self):
        probs = _binomial_rows(1, [1.0])[0]
        assert probs[1] == pytest.approx(1.0)

    def test_binomial_value(self):
        probs = _binomial_rows(4, [0.5])[0]
        assert probs[2] == pytest.approx(0.375, abs=1e-12)

    def test_certain_failure(self):
        probs = _binomial_rows(1024, [0.0])[0]
        assert probs[0] == pytest.approx(1.0)

    def test_large_width_stays_normalized(self):
        probs = _binomial_rows(1 << 12, [0.37])[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert mean(probs) == pytest.approx((1 << 12) * 0.37, rel=1e-9)

    def test_widest_supported_multiplexing(self):
        probs = _binomial_rows(1 << 16, [3e-5])[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert mean(probs) == pytest.approx((1 << 16) * 3e-5, rel=1e-9)
        assert np.isfinite(probs).all()

    @pytest.mark.parametrize("pi0", [1e-6, 0.013, 0.5, 0.87, 1 - 1e-9])
    def test_matches_exact_combinatorial_pmf(self, pi0):
        m = 30
        probs = _binomial_rows(m, [pi0])[0]
        exact = np.array(
            [
                math.comb(m, k) * pi0**k * (1.0 - pi0) ** (m - k)
                for k in range(m + 1)
            ]
        )
        assert np.allclose(probs, exact, rtol=1e-11, atol=1e-300)


class TestThinning:
    def test_guaranteed_single_pair(self):
        out = _thin_rows(delta(2), 1.0, cap=1)[0]
        assert out[1] == pytest.approx(1.0)

    def test_binomial_split(self):
        out = _thin_rows(delta(4), 0.5, cap=2)[0]
        assert np.allclose(out, [0.25, 0.5, 0.25], atol=1e-12)

    def test_odd_leftover_consumed(self):
        out = _thin_rows(delta(3), 1.0, cap=1)[0]
        assert out[1] == pytest.approx(1.0)

    def test_single_pair_lost(self):
        out = _thin_rows(delta(1), 0.9, cap=1)[0]
        assert out[0] == pytest.approx(1.0)

    @given(count_distribution(), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_matches_direct_sum(self, probs, d):
        cap = (len(probs) - 1) // 2 + 1
        out = _thin_rows(probs[None, :], d, cap=cap)[0]
        direct = np.zeros(cap + 1)
        for j, pj in enumerate(probs):
            pairs = j // 2
            for k in range(pairs + 1):
                direct[k] += (
                    pj * math.comb(pairs, k) * d**k * (1.0 - d) ** (pairs - k)
                )
        assert aligned_tv(out, direct / direct.sum()) < 1e-12


class TestPairMinimum:
    def test_deterministic_input(self):
        out = min_of_pair(delta(3)[0])
        assert out[3] == pytest.approx(1.0)

    def test_two_point_example(self):
        out = min_of_pair(np.array([0.5, 0.5]))
        assert np.allclose(out, [0.75, 0.25], atol=1e-12)

    @given(count_distribution())
    @settings(max_examples=50)
    def test_matches_quadratic_brute_force(self, probs):
        out = min_of_pair(probs)
        brute = np.zeros(len(probs))
        for j1, j2 in itertools.product(range(len(probs)), repeat=2):
            brute[min(j1, j2)] += probs[j1] * probs[j2]
        assert aligned_tv(out, brute) < 1e-12


class TestConditionalInit:
    def test_certain_generation(self):
        r0, _, cond, _ = _init_rows(3, [1.0])
        assert r0[0] == 0.0
        assert cond[0, 3] == pytest.approx(1.0)

    def test_two_channel_example(self):
        r0, _, cond, _ = _init_rows(2, [0.5])
        assert r0[0] == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(cond[0], [0.0, 2 / 3, 1 / 3], atol=1e-12)

    def test_zero_success_raises(self):
        # the conditioned row has no mass, so it is flagged as a certain
        # reset, and the level check raises unless the row is skipped
        _, _, cond, dead = _init_rows(8, [0.0])
        assert dead[0]
        with np.errstate(invalid="ignore"), pytest.raises(InvariantError):
            _check_rows(cond, LIVE, "generation")
        batch = run_cascade_batch([CascadeConfig(n=0, m=8, pi0=0.0)])
        assert batch.certain_reset[0] == "generation cannot reach the threshold 1 (m=8, pi0=0.0)"

    @pytest.mark.parametrize("m,pi0", [(1024, 1e-3), (16, 0.3)])
    def test_reset_and_survival_share_one_formula(self, m, pi0):
        # r0 = (1 - pi0)**m from the same log1p as the survival, so the two
        # complement each other to the ulp (the normalized binomial row's pmf[0]
        # misses by hundreds of ulps at m=1024)
        r0, survive, _, _ = _init_rows(m, [pi0])
        batch = run_cascade_batch([CascadeConfig(n=0, m=m, pi0=pi0)])
        assert batch.r[0, 0] == math.exp(m * math.log1p(-pi0))
        assert batch.r[0, 0] == r0[0]
        assert abs(r0[0] + survive[0] - 1.0) <= math.ulp(1.0)
        assert batch.completion_prob[0] == survive[0]


class TestConditionalLevelUpdate:
    def test_no_zero_mass_means_no_reset(self):
        r, out, defect, _ = level_update([0.0, 0.5, 0.5], distill_next=True)
        assert r == 0.0
        assert defect == pytest.approx(0.0, abs=1e-12)

    def test_reset_probability_example(self):
        r, out, defect, _ = level_update([0.2, 0.0, 0.8], distill_next=True)
        assert r == pytest.approx(0.36, abs=1e-12)
        assert defect == pytest.approx(0.0, abs=1e-12)
        assert out[0] == 0.0

    def test_no_distillation_forces_zero_reset(self):
        r, out, defect, _ = level_update([0.2, 0.3, 0.5], distill_next=False)
        assert r == 0.0
        # all zero-pairing mass is dropped instead
        assert defect == pytest.approx(0.2**2 + 2 * 0.2 * 0.8, abs=1e-12)

    def test_pairing_exclusion_recorded_as_defect(self):
        r, out, defect, _ = level_update([0.2, 0.5, 0.3], distill_next=True)
        expected_r = 0.2**2 + 2 * 0.2 * 0.3
        assert r == pytest.approx(expected_r, abs=1e-12)
        assert defect == pytest.approx(2 * 0.2 * 0.5 / (1 - expected_r), abs=1e-12)

    def test_certain_reset(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            _, _, _, failure = level_update([1.0, 0.0], distill_next=True)
        assert cascade._LEVEL_FAILURES[failure] == "reset occurs with probability one"


class TestResetProbabilityF:
    def test_no_resets(self):
        f, completion = resets_and_completion(np.zeros(3), 4)
        assert np.allclose(f, 0.0)
        assert completion == 1.0

    def test_generation_only(self):
        f, completion = resets_and_completion(np.array([0.25, 0.0, 0.0]), 4)
        assert f[0] == pytest.approx(1 - 0.75**4, abs=1e-12)
        assert completion == pytest.approx(0.75**4, abs=1e-12)

    def test_certain_reset_at_level(self):
        f, completion = resets_and_completion(np.array([0.1, 1.0]), 2)
        assert completion == 0.0
        assert f.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(st.floats(0.0, 0.9), min_size=1, max_size=5),
        st.integers(0, 4),
    )
    def test_total_mass_conserved(self, r, n):
        r = np.asarray(r[: n + 1] if len(r) > n else r)
        f, completion = resets_and_completion(r, 1 << n)
        assert f.sum() + completion == pytest.approx(1.0, abs=1e-10)


class TestRunCascade:
    def test_single_link_reduces_to_init_rows(self):
        config = CascadeConfig(n=0, m=8, pi0=0.4)
        batch = run_one(config)
        r0, _, cond, _ = _init_rows(8, [0.4])
        assert batch.r[0, 0] == pytest.approx(r0[0])
        assert np.allclose(batch.p_cond[-1][0], cond[0], atol=1e-12)
        assert batch.completion_prob[0] == pytest.approx(1 - r0[0])
        assert batch.expected_end_pairs[0] == pytest.approx((1 - r0[0]) * mean(cond[0]))

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
        batch = run_one(config)
        for track in (batch.p_cond, batch.q_cond):
            for rows in track:
                assert rows[0].sum() == pytest.approx(1.0, abs=1e-10)
                assert rows[0].min() >= 0.0
        assert batch.f[0].sum() + batch.completion_prob[0] == pytest.approx(
            1.0, abs=1e-10
        )

    def test_expected_pairs_monotone_in_pi0_and_m(self):
        base = CascadeConfig(n=2, m=16, pi0=0.3)
        richer = CascadeConfig(n=2, m=16, pi0=0.5)
        wider = CascadeConfig(n=2, m=32, pi0=0.3)
        e_base = run_one(base).expected_end_pairs[0]
        assert run_one(richer).expected_end_pairs[0] > e_base
        assert run_one(wider).expected_end_pairs[0] > e_base

    def test_min_of_binomials_upper_bound(self, rng):
        # without distillation the end count is the min over all links
        config = CascadeConfig(n=2, m=16, pi0=0.3)
        batch = run_one(config)
        samples = rng.binomial(16, 0.3, size=(200_000, 4)).min(axis=1)
        assert batch.expected_end_pairs[0] <= samples.mean() + 0.01

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
        batch = run_one(config)
        mc = mc_cascade(config, MonteCarloConfig(trials=200_000, seed=11))
        tv = aligned_tv(batch.p_cond[-1][0], mc.end_distribution)
        assert tv < 0.01
        comp, comp_se = mc.completion_estimate()
        assert abs(batch.completion_prob[0] - comp) <= max(3 * comp_se, 1e-9)

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
        batch = run_one(config)
        mc = mc_cascade(config, MonteCarloConfig(trials=400_000, seed=17))
        tv = aligned_tv(batch.p_cond[-1][0], mc.end_distribution)
        assert tv < 0.01
        comp, comp_se = mc.completion_estimate()
        assert abs(batch.completion_prob[0] - comp) <= 3 * comp_se


def distilling(n: int, pi0: float, levels: dict[int, float]) -> CascadeConfig:
    """A width-1024 configuration distilling at ``levels`` (level: success)."""
    flags = tuple(i in levels for i in range(n + 1))
    success = tuple(levels.get(i, 1.0) for i in range(n + 1))
    return CascadeConfig(n=n, m=1024, pi0=pi0, distill_flags=flags, distill_success=success)


class TestProductionScaleMonteCarlo:
    """The recursion against the sampler at the production width m = 1024,
    deeper chains and distillation below the top."""

    @pytest.mark.parametrize(
        "config,trials",
        [
            (distilling(4, 0.01, {}), 50_000),
            (distilling(4, 0.01, {0: 0.9}), 50_000),
            # completion about 0.77: generation resets are common
            (distilling(4, 0.004, {0: 0.9}), 50_000),
            (distilling(6, 0.02, {0: 0.9, 2: 0.8}), 20_000),
        ],
    )
    def test_against_monte_carlo(self, config, trials):
        batch = run_one(config)
        mc = mc_cascade(config, MonteCarloConfig(trials=trials, seed=20260809))
        analytic = batch.p_cond[-1][0]
        empirical = mc.end_distribution
        assert aligned_tv(analytic, empirical) < 0.01
        comp, comp_se = mc.completion_estimate()
        assert abs(batch.completion_prob[0] - comp) <= 3 * comp_se
        # mean end count per completed burst, against the recursion's spread
        counts = np.arange(len(analytic))
        spread = math.sqrt(analytic @ counts**2 - mean(analytic) ** 2)
        assert abs(mean(empirical) - mean(analytic)) <= 5 * spread / math.sqrt(mc.clean_trials)
        assert comp * mean(empirical) <= end_pairs_bound(config.m, config.pi0)


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
            single = run_cascade_batch([config])
            assert single.certain_reset[0] == batch.certain_reset[b]
            if b == 2:
                continue
            assert batch.certain_reset[b] is None
            for name in ("r", "f", "mass_defect", "swaps", "distill_attempts"):
                assert np.array_equal(getattr(batch, name)[b], getattr(single, name)[0]), name
            assert batch.completion_prob[b] == single.completion_prob[0]
            assert batch.expected_end_pairs[b] == single.expected_end_pairs[0]
            for level in range(config.n + 1):
                assert np.array_equal(batch.p_cond[level][b], single.p_cond[level][0])
                assert np.array_equal(batch.q_cond[level][b], single.q_cond[level][0])

    @pytest.mark.parametrize(
        "config,reason",
        [
            pytest.param(CascadeConfig(n=1, m=16, pi0=0.0), "generation cannot", id="generation"),
            # a level-0 distillation that never succeeds leaves no pair: the
            # next level resets for sure if it distills (code 1) and keeps no
            # pair if it does not (code 2)
            pytest.param(
                CascadeConfig(n=2, m=16, pi0=0.5, distill_flags=(True, True, False),
                              distill_success=(0.0, 1.0, 1.0)),
                "reset occurs with probability one", id="code-1",
            ),
            pytest.param(
                CascadeConfig(n=1, m=16, pi0=0.5, distill_flags=(True, False), distill_success=(0.0, 1.0)),
                "no pairing outcome keeps at least one pair", id="code-2",
            ),
        ],
    )
    def test_dead_rows_deliver_nothing(self, config, reason):
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = run_cascade_batch([config])
        assert batch.certain_reset[0].startswith(reason)
        assert batch.completion_prob[0] == batch.expected_end_pairs[0] == 0.0
        for name in ("mass_defect", "swaps", "distill_attempts"):
            assert np.array_equal(getattr(batch, name)[0], np.zeros(config.n + 1)), name

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
        with np.errstate(invalid="ignore"), pytest.raises(InvariantError, match="distillation at level 0"):
            run_cascade_batch(self.configs([0.35]))

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("pi0", [1e-15, 1e-13])
    def test_completion_matches_closed_form_at_tiny_success(self, n, pi0):
        # no distillation: the burst completes when every link clears the
        # threshold, (1 - (1 - pi0)**m)**N
        batch = run_one(CascadeConfig(n=n, m=16, pi0=pi0))
        expected = binom.sf(0, 16, pi0) ** (1 << n)
        assert batch.completion_prob[0] == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert batch.f[0].sum() + batch.completion_prob[0] == pytest.approx(1.0, abs=1e-12)


# the smallest normal double, a subnormal and the smallest subnormal
_EXTREME_PI0 = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-15, 1.0)


@st.composite
def cascade_batches(draw):
    """Configurations sharing a random valid schedule: any flag pattern the
    width allows, any success probability in [0, 1], m from 1 to 1024."""
    n = draw(st.integers(min_value=0, max_value=12))
    m = draw(st.integers(min_value=1, max_value=1024))
    flags, width = [], m
    for _ in range(n):
        flag = width >= 2 and draw(st.booleans())
        flags.append(flag)
        width //= 2 if flag else 1
    flags.append(False)
    success = tuple(draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(n + 1))
    pi0 = st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(_EXTREME_PI0),
        st.floats(min_value=-16.0, max_value=0.0).map(lambda e: 10.0**e),
    )
    return [
        CascadeConfig(n=n, m=m, pi0=p, distill_flags=tuple(flags), distill_success=success)
        for p in draw(st.lists(pi0, min_size=1, max_size=4))
    ]


class TestEndPairsBound:
    """``end_pairs_bound`` on the batch API: at most ``m * pi0`` end pairs,
    and mu_i = s_i E[p_i] does not grow from level to level."""

    @settings(max_examples=40, deadline=None)
    @given(cascade_batches())
    @example([CascadeConfig(n=4, m=1, pi0=p) for p in (0.3, 5e-324, 1.0)])
    @example([CascadeConfig(n=12, m=1024, pi0=p) for p in (1e-300, 1e-3, 0.9)])
    @example(
        [
            CascadeConfig(
                n=12, m=1024, pi0=p, distill_flags=(True,) * 10 + (False,) * 3,
                distill_success=(0.5,) * 13,
            )
            for p in (5e-324, 2.2250738585072014e-308, 0.05, 1.0)
        ]
    )
    def test_bound_and_level_means(self, configs):
        with np.errstate(invalid="ignore", divide="ignore", under="ignore"):
            batch = run_cascade_batch(configs)
        assert_end_pairs_bounded(batch, configs)

    def test_subnormal_success_resets_with_certainty(self):
        batch = run_cascade_batch([CascadeConfig(n=2, m=16, pi0=5e-324)])
        assert batch.certain_reset[0] is not None
        assert end_pairs_bound(16, 5e-324) == 16 * 5e-324

    def test_bound_is_reached_by_a_lossless_chain(self):
        # every link fills all m slots and nothing distills: the bound is tight
        batch = run_one(CascadeConfig(n=3, m=8, pi0=1.0))
        assert batch.expected_end_pairs[0] == end_pairs_bound(8, 1.0) == 8.0
