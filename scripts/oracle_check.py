#!/usr/bin/env python3
"""Side-by-side check of the count recursion against the Monte-Carlo sampler.

Prints total-variation distance of the end-level distribution and the
completion probability with its sampling error for a few burst scenarios.
"""

import argparse
import sys

import numpy as np

from repeaterscope.cascade import CascadeConfig, run_cascade_batch
from repeaterscope.oracle import MonteCarloConfig, mc_cascade


def compare(config: CascadeConfig, trials: int, seed: int) -> None:
    batch = run_cascade_batch([config])
    mc = mc_cascade(config, MonteCarloConfig(trials=trials, seed=seed))
    analytic = batch.p_cond[-1][0]
    empirical = mc.end_distribution
    width = max(len(analytic), len(empirical))
    a = np.zeros(width)
    a[: len(analytic)] = analytic
    e = np.zeros(width)
    e[: len(empirical)] = empirical
    tv = 0.5 * np.abs(a - e).sum()
    comp, comp_se = mc.completion_estimate()
    print(
        f"n={config.n} m={config.m} pi0={config.pi0} "
        f"distill={config.distill_flags}: TV={tv:.5f} "
        f"completion {batch.completion_prob[0]:.5f} vs {comp:.5f}+-{comp_se:.5f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=20260809)
    args = parser.parse_args(argv)

    for pi0 in (0.1, 0.3, 0.7):
        compare(CascadeConfig(n=2, m=16, pi0=pi0), args.trials, args.seed)
        compare(
            CascadeConfig(
                n=2,
                m=16,
                pi0=pi0,
                distill_flags=(True, False, False),
                distill_success=(0.9, 1.0, 1.0),
            ),
            args.trials,
            args.seed,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
