"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line.  Criteria
2, 3, and 5 share one fleet of fifty randomized markets, built once per
session; the fleet records every intermediate network state so feasibility
can be asserted for each step of each run.
"""

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from gridtrade.dispatch import check_arrow_debreu, lmp_from_marginals, solve_dispatch, welfare_gap
from gridtrade.generators import random_interval_sequence, random_market, random_tree_instance
from gridtrade.market import two_bus_market
from gridtrade.market_io import write_trace
from gridtrade.network import build_loading_matrix
from gridtrade.proposer import ProposerStrategy, make_proposer
from gridtrade.robust import (
    IntervalState,
    accept_interval_trade,
    bisection_curtailment_factor,
    nodal_interval,
    robust_curtailment_factor,
)
from gridtrade.trading import EngineConfig, run_trading
from gridtrade.tree import (
    RedundancyCertificate,
    decompose_conformal,
    decompose_profitable,
    decompose_sequential,
    tree_flows,
)

# FLEET_SEED and FLEET_SIZE stay importable from here: the benchmark checks
# its fleet draw against this module.
from conftest import FLEET_SEED, FLEET_SIZE, assert_plans_close, fleet_markets, kkt_report  # noqa: F401

EPSILON = 1e-3


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num} ({name}): PASS")


@dataclass
class FleetRun:
    market: object
    lm: object
    result: object
    solution: object
    elapsed: float
    intermediate_x: list


@pytest.fixture(scope="module")
def fleet():
    runs = []
    for market in fleet_markets():
        lm = build_loading_matrix(market.network)
        started = time.perf_counter()
        result = run_trading(market, EngineConfig(epsilon=EPSILON), make_proposer(ProposerStrategy(), lm), lm)
        solution = solve_dispatch(market, lm)
        elapsed = time.perf_counter() - started
        x = np.zeros((market.scenario_count, market.network.bus_count))
        states = [x]
        for record in result.state.records:
            if record.accepted:
                gamma = (
                    np.asarray(record.gamma_by_scenario)[:, None]
                    if record.gamma_by_scenario is not None
                    else record.gamma
                )
                x = x + gamma * record.nodal
                states.append(x)
        runs.append(FleetRun(market, lm, result, solution, elapsed, states))
    return runs


class TestAcceptance:
    def test_criterion_1_two_bus_golden_run(self, golden_plans):
        with criterion(1, "two-bus golden run"):
            market = two_bus_market()
            started = time.perf_counter()
            result = run_trading(market, EngineConfig(epsilon=EPSILON), make_proposer(ProposerStrategy()))
            elapsed = time.perf_counter() - started
            assert elapsed <= 1.0
            assert result.converged, "termination must be certified"
            accepted = [r for r in result.state.records if r.accepted]
            assert len(accepted) == 2
            first, second = accepted
            assert_plans_close(
                {pid: first.trade.plans[pid] for pid in first.trade.group},
                golden_plans["initial"],
            )
            assert first.gamma == pytest.approx(0.8, abs=1e-9)
            reconstructed = {
                pid: first.gamma * first.trade.plans[pid] for pid in first.trade.group
            }
            assert_plans_close(reconstructed, golden_plans["curtailed"])
            assert second.gamma == pytest.approx(1.0)
            assert_plans_close(dict(result.state.y), golden_plans["final"])
            np.testing.assert_allclose(
                result.state.x, [[120.0, -120.0], [70.0, -70.0]], atol=1e-6
            )

    def test_criterion_2_oracle_equivalence(self, fleet):
        with criterion(2, "oracle equivalence on 50 random markets"):
            for k, run in enumerate(fleet):
                assert run.elapsed <= 5.0, f"market {k} took {run.elapsed:.2f}s"
                assert run.result.converged, f"market {k} did not certify"
                gap = welfare_gap(run.market, dict(run.result.state.y), run.solution)
                bound = EPSILON * (1.0 + abs(run.solution.objective))
                assert gap <= bound, f"market {k}: gap {gap:.3e} > {bound:.3e}"

    def test_criterion_3_every_step_feasibility(self, fleet):
        with criterion(3, "every intermediate state feasible"):
            violations = 0
            for run in fleet:
                for x in run.intermediate_x:
                    for s in range(x.shape[0]):
                        limits = run.lm.limits_for(None)
                        if np.any(run.lm.rows @ x[s] > limits + 1e-8):
                            violations += 1
                        if abs(float(x[s].sum())) > 1e-9:
                            violations += 1
            assert violations == 0

    def test_criterion_4_price_discovery(self, two_bus, two_bus_dispatch):
        with criterion(4, "price discovery and equilibrium"):
            quotes = (
                lmp_from_marginals(two_bus, two_bus_dispatch.plans, 1, 0),
                lmp_from_marginals(two_bus, two_bus_dispatch.plans, 1, 1),
            )
            assert quotes[0] == pytest.approx(48.0, abs=1e-6)
            assert quotes[1] == pytest.approx(32.0, abs=1e-6)
            assert quotes[0] == pytest.approx(two_bus_dispatch.lambda_[0, 1], abs=1e-6)
            assert quotes[1] == pytest.approx(two_bus_dispatch.lambda_[1, 1], abs=1e-6)
            np.testing.assert_allclose(
                two_bus_dispatch.lambda_, [[18.0, 48.0], [32.0, 32.0]], atol=1e-6
            )
            report = check_arrow_debreu(
                two_bus, two_bus_dispatch.plans, two_bus_dispatch.x, two_bus_dispatch.lambda_
            )
            assert report.verdict
            for s, n in itertools.product(range(2), range(2)):
                perturbed = two_bus_dispatch.lambda_.copy()
                perturbed[s, n] += 1.0
                broken = check_arrow_debreu(
                    two_bus, two_bus_dispatch.plans, two_bus_dispatch.x, perturbed
                )
                assert not broken.verdict, f"perturbing price ({n},{s}) went unnoticed"

    def test_criterion_5_kkt_property_suite(self, fleet):
        with criterion(5, "optimality system on every dispatch solve"):
            for k, run in enumerate(fleet):
                problems = kkt_report(run.market, run.solution, run.lm, atol=1e-6)
                assert problems == [], f"market {k}: {problems}"

    def test_criterion_6_tree_decomposition(self):
        with criterion(6, "bilateral decomposition on radial networks"):
            rng = np.random.default_rng(606)
            for _ in range(30):
                net, trade, state = random_tree_instance(rng, with_state=bool(rng.integers(0, 2)))
                n = net.bus_count
                caps = [Fraction(line.capacity) for line in net.lines]
                base = tree_flows(net, state)

                def total(components):
                    vec = [Fraction(0)] * n
                    for c in components:
                        vec[c.supply_bus] += c.quantity
                        vec[c.demand_bus] -= c.quantity
                    return vec

                def prefix_ok(components):
                    flows = list(base)
                    for c in components:
                        step = tree_flows(net, c.as_vector(n))
                        flows = [f + s for f, s in zip(flows, step)]
                        if any(abs(f) > cap for f, cap in zip(flows, caps)):
                            return False
                    return True

                seq = decompose_sequential(net, trade, state)
                assert total(seq) == list(trade)
                assert prefix_ok(seq)

                conf = decompose_conformal(net, trade, state)
                assert total(conf) == list(trade)
                whole = tree_flows(net, trade)
                for c in conf:
                    own = tree_flows(net, c.as_vector(n))
                    assert all(a * b >= 0 for a, b in zip(own, whole))
                for _ in range(20):
                    order = rng.permutation(len(conf)).tolist()
                    assert prefix_ok([conf[i] for i in order])

    def test_criterion_7_profitable_decomposition(self):
        with criterion(7, "profitable bilateral decomposition"):
            rng = np.random.default_rng(707)
            instances = 0
            certificates = 0
            while instances < 20:
                net, trade, _ = random_tree_instance(rng)
                alpha = [Fraction(int(rng.integers(-100, 100))) for _ in range(net.bus_count)]
                profit = sum(a * v for a, v in zip(alpha, trade))
                if profit == 0:
                    continue
                if profit < 0:
                    alpha = [-a for a in alpha]
                    profit = -profit
                instances += 1
                outcome = decompose_profitable(net, trade, alpha)
                if isinstance(outcome, RedundancyCertificate):
                    certificates += 1
                    assert outcome.remaining_profit >= outcome.original_profit - Fraction(1, 10**9)
                    flows = tree_flows(net, list(outcome.remaining))
                    assert all(
                        abs(f) <= Fraction(line.capacity)
                        for f, line in zip(flows, net.lines)
                    )
                else:
                    for c in outcome:
                        assert c.quantity * (alpha[c.supply_bus] - alpha[c.demand_bus]) > 0
            assert certificates >= 1, "constructed instances never exercised redundancy"

    def test_criterion_8_robust_corner_soundness(self):
        with criterion(8, "robust interval curtailment"):
            rng = np.random.default_rng(808)
            for _ in range(20):
                market = random_market(rng, max_buses=4, max_scenarios=1, max_participants=5)
                lm = build_loading_matrix(market.network)
                state = IntervalState.initial(market.network.bus_count)
                for trade in random_interval_sequence(rng, market, n_trades=3):
                    q_lo, q_hi = nodal_interval(trade, market)
                    closed = robust_curtailment_factor(lm, state, q_lo, q_hi)
                    iterated = bisection_curtailment_factor(lm, state, q_lo, q_hi)
                    assert abs(closed - iterated) <= 1e-8
                    _, state = accept_interval_trade(state, trade, lm, market)
                spans = [
                    (r.gamma * r.q_lower, r.gamma * r.q_upper)
                    for r in state.records
                    if r.accepted
                ]
                wides = [
                    [n for n in range(market.network.bus_count) if hi[n] - lo[n] > 0]
                    for lo, hi in spans
                ]
                assert sum(len(w) for w in wides) <= 12
                for bits in itertools.product(
                    *[itertools.product((0, 1), repeat=len(w)) for w in wides]
                ):
                    x = np.zeros(market.network.bus_count)
                    for (lo, hi), wide, chosen in zip(spans, wides, bits):
                        realised = lo.copy()
                        for n, bit in zip(wide, chosen):
                            if bit:
                                realised[n] = hi[n]
                        x += realised
                    assert np.all(lm.rows @ x <= lm.limits + 1e-8)

    def test_criterion_9_determinism(self, tmp_path):
        with criterion(9, "byte-identical traces for identical inputs"):
            blobs = []
            for attempt in range(2):
                market = two_bus_market()
                result = run_trading(
                    market, EngineConfig(epsilon=EPSILON, seed=42), make_proposer(ProposerStrategy())
                )
                path = tmp_path / f"trace_{attempt}.jsonl"
                with open(path, "w") as fp:
                    write_trace(result.state.records, fp)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1] and len(blobs[0]) > 0
