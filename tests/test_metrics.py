import ast
import inspect
import math

import pytest

from repeaterscope import metrics
from repeaterscope.cascade import CascadeConfig, run_cascade_batch
from repeaterscope.channel import LinkBudget, hcf_profile, smf_profile
from repeaterscope.metrics import ops_per_burst
from repeaterscope.oracle import MonteCarloConfig, mc_cascade
from repeaterscope.protocol import ProtocolConfig, evaluate_chain
from repeaterscope.states import NoiseParams


def test_metrics_is_a_leaf_module():
    # the prices import no other repeaterscope module, so any layer can use them
    for node in ast.walk(ast.parse(inspect.getsource(metrics))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("repeaterscope"), node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("repeaterscope") for alias in node.names)


class TestOpsPerBurst:
    def test_single_link_has_no_ops(self):
        config = CascadeConfig(n=0, m=4, pi0=0.6)
        batch = run_cascade_batch(config, [config.pi0])
        ops = ops_per_burst(batch.swaps[0], batch.distill_attempts[0])
        assert ops.swaps == 0.0
        assert ops.distill_attempts == 0.0

    def test_deterministic_single_swap(self):
        config = CascadeConfig(n=1, m=1, pi0=1.0)
        batch = run_cascade_batch(config, [config.pi0])
        ops = ops_per_burst(batch.swaps[0], batch.distill_attempts[0])
        assert ops.swaps == pytest.approx(1.0, abs=1e-12)
        assert ops.two_qubit_gates == pytest.approx(1.0, abs=1e-12)
        assert ops.measurements == pytest.approx(2.0, abs=1e-12)

    def test_constant_operation_prices(self):
        # one gate and two measurements per swap, two gates and two
        # measurements per distillation attempt
        config = CascadeConfig(
            n=2, m=8, pi0=0.4,
            distill_flags=(True, False, False),
            distill_success=(0.9, 1.0, 1.0),
        )
        batch = run_cascade_batch(config, [config.pi0])
        ops = ops_per_burst(batch.swaps[0], batch.distill_attempts[0])
        assert ops.distill_attempts > 0.0
        assert ops.two_qubit_gates == pytest.approx(
            ops.swaps + 2 * ops.distill_attempts, abs=1e-12
        )
        assert ops.measurements == pytest.approx(
            2 * ops.swaps + 2 * ops.distill_attempts, abs=1e-12
        )

    def test_matches_monte_carlo_counter(self):
        config = CascadeConfig(
            n=2, m=8, pi0=0.4,
            distill_flags=(True, False, False),
            distill_success=(0.9, 1.0, 1.0),
        )
        batch = run_cascade_batch(config, [config.pi0])
        ops = ops_per_burst(batch.swaps[0], batch.distill_attempts[0])
        mc = mc_cascade(config, MonteCarloConfig(trials=400_000, seed=99))
        sw_mean, sw_se, di_mean, di_se = mc.ops_estimate()
        assert abs(ops.swaps - sw_mean) <= 2 * sw_se
        assert abs(ops.distill_attempts - di_mean) <= 2 * di_se


class TestOpsPerSecretBit:
    def test_single_perfect_link_is_free(self):
        medium = hcf_profile()
        config = ProtocolConfig(
            medium=medium,
            budget=LinkBudget(eta_hardware=1.0, conv_eff=1.0, l0_km=1e-9),
            noise=NoiseParams(0.0, t2=math.inf),
            n=0,
            m=1,
        )
        point = evaluate_chain(config)
        assert point.ops_per_secret_bit == 0.0

    def test_no_key_regime_is_infinite(self):
        medium = smf_profile()
        config = ProtocolConfig(
            medium=medium,
            budget=LinkBudget(eta_hardware=0.0, conv_eff=1.0, l0_km=10.0),
            noise=NoiseParams(1e-3),
            n=1,
            m=4,
        )
        point = evaluate_chain(config)
        assert math.isinf(point.ops_per_secret_bit)

    def test_homogeneity_in_key_rate(self):
        medium = hcf_profile()
        config = ProtocolConfig(
            medium=medium,
            budget=LinkBudget(eta_hardware=1.0, conv_eff=0.5, l0_km=20.0),
            noise=NoiseParams(1e-3),
            n=2,
            m=16,
        )
        point = evaluate_chain(config)
        halved = point.__class__(
            **{**point.__dict__, "skr_pcu": point.skr_pcu / 2}
        )
        assert halved.ops_per_secret_bit == pytest.approx(
            2 * point.ops_per_secret_bit
        )

    def test_smf_needs_more_ops_at_400km(self):
        ratios = []
        for medium in (smf_profile(), hcf_profile()):
            best = None
            for n in range(0, 9):
                config = ProtocolConfig(
                    medium=medium,
                    budget=LinkBudget(
                        eta_hardware=1.0, conv_eff=0.5, l0_km=400.0 / (1 << n)
                    ),
                    noise=NoiseParams(1e-3),
                    n=n,
                    m=1024,
                )
                point = evaluate_chain(config)
                skr = point.skr_pcu
                if best is None or skr > best[0]:
                    best = (skr, point)
            ratios.append(best[1].ops_per_secret_bit)
        assert ratios[0] / ratios[1] > 1.0

