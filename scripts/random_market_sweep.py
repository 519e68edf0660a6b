#!/usr/bin/env python3
"""Sweep randomized markets: trading process versus the dispatch benchmark.

For each market, runs the full trading loop with whole-market certification,
solves the welfare benchmark, checks that the benchmark's plans and prices
form a competitive equilibrium, and reports convergence steps, optimality
gap, and how often lines actually congest.  Useful for sizing tolerances and
for spotting generator drift after changes.  Exits 1 when any market fails
to converge, ends more than ``--epsilon`` (relative) from the benchmark, or
fails the equilibrium check at the benchmark's prices.
"""

import argparse
import sys
import time

import numpy as np

from gridtrade.dispatch import check_arrow_debreu, solve_dispatch, welfare_gap
from gridtrade.generators import random_market
from gridtrade.proposer import ProposerStrategy, make_proposer
from gridtrade.trading import EngineConfig, run_trading


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--proposer", choices=["full", "exhaustive", "random"], default="full")
    args = parser.parse_args()

    modes = {
        "full": ProposerStrategy("full_group"),
        "exhaustive": ProposerStrategy("exhaustive_subsets", max_size=3),
        "random": ProposerStrategy("random_subsets", max_size=3, attempts=10),
    }
    master = np.random.default_rng(args.seed)
    gaps, steps, times = [], [], []
    congested = 0
    failures = 0
    for k in range(args.count):
        rng = np.random.default_rng(master.integers(2**63))
        market = random_market(rng, meshed=(k % 2 == 0))
        proposer = make_proposer(modes[args.proposer])
        t0 = time.perf_counter()
        result = run_trading(market, EngineConfig(epsilon=args.epsilon), proposer)
        solution = solve_dispatch(market)
        times.append(time.perf_counter() - t0)
        gap = welfare_gap(market, dict(result.state.y), solution)
        gaps.append(gap / (1.0 + abs(solution.objective)))
        steps.append(result.steps)
        verdict = check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_).verdict
        if not result.converged or gaps[-1] > args.epsilon or not verdict:
            failures += 1
            print(f"  market {k}: converged={result.converged} rel_gap={gaps[-1]:.3e} equilibrium={verdict}")
        if any(r.gamma < 1.0 for r in result.state.records if r.accepted):
            congested += 1

    print(f"markets: {args.count}   failures: {failures}")
    print(f"steps: median {np.median(steps):.0f}, max {max(steps)}")
    print(f"relative gap: median {np.median(gaps):.2e}, max {max(gaps):.2e}")
    print(f"runtime per market: median {np.median(times) * 1e3:.0f} ms, max {max(times) * 1e3:.0f} ms")
    print(f"runs with curtailment: {congested}/{args.count}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
