import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeaterscope.cascade import CascadeConfig, run_cascade_batch
from repeaterscope.channel import LinkBudget, hcf_profile, select_wavelength, smf_profile
from repeaterscope.oracle import MonteCarloConfig, mc_cascade
from repeaterscope.protocol import (
    ProtocolConfig,
    build_schedule,
    evaluate_chain,
    skr_bounds,
    wait_time,
)
from repeaterscope.states import (
    NoiseParams,
    apply_dephasing,
    dejmps,
    initial_state,
    key_fraction,
    swap,
)

from conftest import assert_end_pairs_bounded, plan_of

HCF = hcf_profile()
SMF = smf_profile()


def make_config(medium=HCF, l0=20.0, conv=0.5, eta_hw=1.0, eps=1e-3, t2=1.0,
                n=2, m=16, f_th=0.95):
    return ProtocolConfig(
        medium=medium,
        budget=LinkBudget(eta_hardware=eta_hw, conv_eff=conv, l0_km=l0),
        noise=NoiseParams(eps, t2=t2),
        n=n,
        m=m,
        f_th=f_th,
    )


class TestWaitTime:
    def test_zero_spacing(self):
        assert wait_time(0, 0.0, 2e5) == 0.0
        # positive spacings must still be accepted downstream
        assert wait_time(0, 20.0, 2e5) == pytest.approx(1e-4)

    def test_heralding_wait(self):
        assert wait_time(0, 20.0, 2e5) == pytest.approx(1.0e-4, abs=1e-12)

    def test_doubling_law(self):
        assert wait_time(3, 5.0, 2e5) == pytest.approx(8 * wait_time(0, 5.0, 2e5))


class TestBuildSchedule:
    def test_noiseless_chain_never_distills(self):
        config = make_config(eps=0.0, t2=math.inf, n=4, m=64)
        trace = build_schedule(config)
        assert all(not step.distilled for step in trace.steps)
        assert all(step.post_state.fidelity() == pytest.approx(1.0) for step in trace.steps)

    def test_zero_threshold_never_distills(self):
        config = make_config(eps=1e-2, f_th=0.0, n=3, m=64)
        trace = build_schedule(config)
        assert all(not step.distilled for step in trace.steps)

    def test_matches_hand_traced_pipeline(self):
        """Step-for-step replay of the scheduling pipeline on n = 3."""
        config = make_config(eps=1e-2, l0=10.0, n=3, m=64)
        trace = build_schedule(config)

        noise = config.noise
        v = config.medium.signal_velocity_kms
        state = initial_state(1e-2)
        flags = []
        for level in range(4):
            wait = (10.0 / v) if level == 0 else (2**level * 10.0 / v)
            state = apply_dephasing(state, wait, noise.t2)
            distill = level < 3 and state.fidelity() < 0.95
            flags.append(distill)
            if distill:
                state, _ = dejmps(state, state, noise)
            if level < 3:
                state = swap(state, state, noise)

        assert trace.distill_flags == tuple(flags)
        assert trace.end_state.fidelity() == pytest.approx(
            state.fidelity(), abs=1e-12
        )

    def test_first_distillation_at_threshold_crossing(self):
        config = make_config(eps=1e-2, l0=10.0, n=3, m=64)
        trace = build_schedule(config)
        crossing = [s.pre_state.fidelity() < 0.95 for s in trace.steps]
        first = crossing.index(True)
        assert trace.steps[first].distilled
        assert not any(s.distilled for s in trace.steps[:first])

    def test_capacity_blocks_distillation(self):
        config = make_config(eps=1e-2, l0=10.0, n=3, m=1)
        trace = build_schedule(config)
        assert not any(step.distilled for step in trace.steps)

    def test_top_level_never_distills(self):
        config = make_config(eps=5e-2, l0=30.0, n=2, m=64, f_th=0.999)
        trace = build_schedule(config)
        assert not trace.steps[-1].distilled


class TestEvaluateChain:
    def test_zero_success_probability_flags_diagnostic(self):
        config = make_config(eta_hw=0.0, n=1, m=4)
        point = evaluate_chain(config)
        assert point.skr_pcu == 0.0
        assert point.completion_prob == 0.0
        assert point.diagnostic is not None

    def test_single_perfect_link_reduces_to_bernoulli(self):
        medium = hcf_profile()
        config = ProtocolConfig(
            medium=medium,
            budget=LinkBudget(eta_hardware=1.0, conv_eff=1.0, l0_km=1e-9),
            noise=NoiseParams(0.0, t2=math.inf),
            n=0,
            m=1,
        )
        point = evaluate_chain(config)
        _, pi0 = select_wavelength(medium, config.budget)
        assert point.skr_pcu == pytest.approx(pi0, abs=1e-9)

    def test_matches_monte_carlo_end_to_end(self):
        config = make_config()  # HCF defaults, eps 1e-3, conv 0.5, l0 20, n 2, m 16
        point = evaluate_chain(config)
        trace = build_schedule(config)
        _, pi0 = select_wavelength(config.medium, config.budget)
        cc = CascadeConfig(
            n=2, m=16, pi0=pi0,
            distill_flags=trace.distill_flags,
            distill_success=trace.distill_success,
        )
        mc = mc_cascade(cc, MonteCarloConfig(trials=1_000_000, seed=5))
        kf = key_fraction(trace.end_state)
        counts = np.arange(len(mc.end_histogram))
        per_trial_bits = counts * kf
        mean_bits = float(per_trial_bits @ mc.end_histogram) / mc.trials
        mean_sq = float((per_trial_bits**2) @ mc.end_histogram) / mc.trials
        se = math.sqrt(max(mean_sq - mean_bits**2, 0.0) / mc.trials)
        uses = 16 * 4
        assert abs(point.skr_pcu - mean_bits / uses) <= 2 * se / uses

    def test_skr_monotone_in_total_distance(self):
        skrs = [
            evaluate_chain(make_config(l0=l0, n=2)).skr_pcu
            for l0 in (10.0, 20.0, 40.0, 80.0)
        ]
        assert all(hi >= lo for hi, lo in zip(skrs, skrs[1:]))

    def test_skr_monotone_in_efficiencies(self):
        base = evaluate_chain(make_config(conv=0.4, eta_hw=0.8, t2=0.5))
        better_conv = evaluate_chain(make_config(conv=0.6, eta_hw=0.8, t2=0.5))
        better_hw = evaluate_chain(make_config(conv=0.4, eta_hw=0.9, t2=0.5))
        better_t2 = evaluate_chain(make_config(conv=0.4, eta_hw=0.8, t2=1.0))
        assert better_conv.skr_pcu >= base.skr_pcu
        assert better_hw.skr_pcu >= base.skr_pcu
        assert better_t2.skr_pcu >= base.skr_pcu

    def test_fidelity_decays_with_depth_without_distillation(self):
        config = make_config(eps=1e-3, f_th=0.0, n=4, m=16)
        trace = build_schedule(config)
        fids = [step.post_state.fidelity() for step in trace.steps]
        assert all(hi > lo for hi, lo in zip(fids, fids[1:]))

    def test_wavelength_invariant_under_hardware_scaling(self):
        full = evaluate_chain(make_config(eta_hw=1.0))
        scaled = evaluate_chain(make_config(eta_hw=0.3))
        assert full.wavelength_used_nm == scaled.wavelength_used_nm


@st.composite
def chain_configs(draw):
    """Random valid chains, out to the noise extremes: eps_g up to its 0.8
    bound and T2 down to 1e-12 s."""
    return make_config(
        medium=draw(st.sampled_from((HCF, SMF))),
        l0=draw(st.floats(min_value=0.01, max_value=400.0)),
        conv=draw(st.floats(min_value=0.0, max_value=1.0)),
        eta_hw=draw(st.floats(min_value=0.0, max_value=1.0)),
        eps=draw(st.one_of(st.floats(min_value=0.0, max_value=0.8), st.just(0.8))),
        t2=draw(st.one_of(st.floats(min_value=-12.0, max_value=3.0).map(lambda e: 10.0**e),
                          st.just(math.inf))),
        n=draw(st.integers(min_value=0, max_value=12)),
        m=draw(st.integers(min_value=1, max_value=1024)),
        f_th=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


class TestSkrBound:
    """``protocol.skr_bounds`` against the evaluated chain, and the end-pair
    bound on the recursion input the chain builds."""

    @settings(max_examples=40, deadline=None)
    @given(chain_configs())
    @example(make_config(eps=0.8, t2=1e-12, n=12, m=1024, f_th=0.99))
    @example(make_config(eps=1e-4, t2=1e-12, n=6, m=1024, f_th=0.5))
    @example(make_config(m=1, n=12, l0=0.5))
    def test_skr_within_bound(self, config):
        plan = plan_of([config])
        (loose,) = skr_bounds(config, plan.choices, key=1.0)
        (bound,) = skr_bounds(config, plan.choices, plan.key)
        (point,) = plan.evaluate([0], {})
        assert 0.0 <= point.skr_pcu <= bound * (1.0 + 1e-12)
        assert bound <= loose
        assert point == evaluate_chain(config)
        _, pi0 = plan.choices[0]
        schedule = plan.schedule
        with np.errstate(invalid="ignore", divide="ignore", under="ignore"):
            batch = run_cascade_batch(schedule, [pi0])
        assert_end_pairs_bounded(batch, schedule, [pi0])

    def test_evaluating_a_subset_leaves_rows_unchanged(self):
        configs = [make_config(conv=c, n=3, m=64, eps=1e-2, f_th=0.99) for c in (0.3, 0.5, 0.7, 1.0)]
        plan = plan_of(configs)
        assert plan.schedule.distill_flags[0]
        full = plan.evaluate(range(4), {})
        assert plan.evaluate([3, 1], {}) == [full[3], full[1]]
