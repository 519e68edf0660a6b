import numpy as np
import pytest

from gridtrade import solve_dispatch, two_bus_market, welfare_gap
from gridtrade.generators import random_market
from gridtrade.market import Market
from gridtrade.network import Network, build_loading_matrix, is_feasible_direction
from gridtrade.participants import Participant, ScenarioSet
from gridtrade.proposer import (
    FullGroupProposer,
    GroupSampler,
    ProposerStrategy,
    find_worthy_fd_trade,
    make_proposer,
)
from gridtrade.trading import (
    Certificate,
    EngineConfig,
    Trade,
    TradingState,
    announce,
    is_worthy,
    run_trading,
    so_step,
    validate_trade,
)

from conftest import assert_plans_close, fleet_markets


@pytest.fixture(scope="module")
def market():
    return two_bus_market()


@pytest.fixture(scope="module")
def lm(market):
    return build_loading_matrix(market.network)


@pytest.fixture(scope="module")
def curtailed_state(market, lm, golden_plans):
    state = TradingState.initial(market)
    _, state = so_step(state, Trade(golden_plans["initial"]), EngineConfig(), lm, market)
    return state


class TestGroupSampler:
    def test_full_group_returns_everyone(self, market):
        sampler = GroupSampler(ProposerStrategy("full_group"), market.participant_ids)
        assert sampler.sample(np.random.default_rng(0)) == market.participant_ids

    def test_exhaustive_enumerates_all_pairs(self):
        ids = ("a", "b", "c", "d")
        sampler = GroupSampler(ProposerStrategy("exhaustive_subsets", max_size=2), ids)
        rng = np.random.default_rng(0)
        seen = {sampler.sample(rng) for _ in range(6)}
        assert len(seen) == 6
        assert all(len(g) == 2 for g in seen)

    def test_random_sampling_is_seed_deterministic(self):
        ids = tuple(f"p{i}" for i in range(6))
        strategy = ProposerStrategy("random_subsets", max_size=4, attempts=5)
        draws = []
        for _ in range(2):
            sampler = GroupSampler(strategy, ids)
            rng = np.random.default_rng(42)
            draws.append([sampler.sample(rng) for _ in range(10)])
        assert draws[0] == draws[1]
        assert all(2 <= len(g) <= 4 for g in draws[0])

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            ProposerStrategy("psychic")
        with pytest.raises(ValueError):
            ProposerStrategy("random_subsets", max_size=1)


class TestFindWorthyFdTrade:
    def test_curtailed_state_yields_congestion_relief_trade(self, market, lm, curtailed_state, golden_plans):
        announcements = announce(curtailed_state, lm)
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, curtailed_state, announcements, 1e-3, market, lm
        )
        assert trade is not None and optimum == pytest.approx(28280.0, abs=1e-5)
        expected = {
            pid: golden_plans["final"][pid] - golden_plans["curtailed"][pid]
            for pid in golden_plans["final"]
        }
        assert_plans_close(dict(trade.plans), expected)

    def test_final_state_certifies_none(self, market, lm, golden_plans):
        state = TradingState(
            y=golden_plans["final"],
            x=market.aggregate_nodal(golden_plans["final"]),
        )
        announcements = announce(state, lm)
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, state, announcements, 1e-9, market, lm
        )
        assert trade is None and optimum <= 1e-9

    def test_pair_at_equal_marginals_has_no_improvement(self):
        # Both producers interior with identical marginal cost: first-order
        # optimal for the pair, so the search certifies zero.
        network = Network(1, (), reference_bus=0)
        a = Participant.producer("a", 0, "RT", (100.0,), 40.0)
        b = Participant.producer("b", 0, "RT", (100.0,), 40.0)
        market = Market(network, ScenarioSet((1.0,)), (a, b))
        state = TradingState(
            y={"a": np.array([30.0]), "b": np.array([30.0])},
            x=np.array([[60.0]]),
        )
        trade, optimum = find_worthy_fd_trade(("a", "b"), state, ((),), 1e-9, market,
                                              build_loading_matrix(network))
        assert trade is None and optimum == pytest.approx(0.0, abs=1e-9)

    def test_returned_trade_is_valid_and_directional(self, market, lm, curtailed_state):
        announcements = announce(curtailed_state, lm)
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, curtailed_state, announcements, 1e-3, market, lm
        )
        assert validate_trade(trade, curtailed_state, market) == []
        from gridtrade.trading import nodal_injection

        q = nodal_injection(trade, market)
        assert is_feasible_direction(lm, curtailed_state.x, q)
        worthy, delta = is_worthy(trade, curtailed_state, 1e-3, market)
        assert worthy and delta == pytest.approx(optimum, abs=1e-7)

    def test_group_without_freedom_certifies_zero(self, market, lm):
        state = TradingState.initial(market)
        trade, optimum = find_worthy_fd_trade(("G1", "G3"), state, announce(state, lm),
                                              1e500, market, lm)
        assert trade is None and optimum >= 0.0


class TestSubsetProposers:
    def test_exhaustive_proposer_reaches_optimum(self, market):
        strategy = ProposerStrategy("exhaustive_subsets", max_size=3)
        result = run_trading(market, EngineConfig(epsilon=1e-3), make_proposer(strategy))
        assert result.converged
        solution = solve_dispatch(market)
        assert welfare_gap(market, dict(result.state.y), solution) <= 1e-3

    def test_random_proposer_reaches_optimum(self, market):
        strategy = ProposerStrategy("random_subsets", max_size=3, attempts=4)
        result = run_trading(market, EngineConfig(epsilon=1e-3, seed=7), make_proposer(strategy))
        assert result.converged
        solution = solve_dispatch(market)
        assert welfare_gap(market, dict(result.state.y), solution) <= 1e-3

    def test_certification_matches_oracle_on_random_markets(self):
        rng = np.random.default_rng(123)
        for _ in range(8):
            market = random_market(rng, max_buses=4, max_scenarios=3, max_participants=6)
            result = run_trading(market, EngineConfig(epsilon=1e-3), FullGroupProposer())
            assert result.converged
            solution = solve_dispatch(market)
            gap = welfare_gap(market, dict(result.state.y), solution)
            assert gap <= 1e-3 * (1.0 + abs(solution.objective))


class GapCheckingProposer:
    """Full-group search that checks, before every step, the certified gap.

    The search is the welfare program restricted to the announced lines, a
    relaxation of the dispatch around the current plans, so its optimum must
    bound the remaining gap to the dispatch benchmark from above.
    """

    def __init__(self, lm, objective):
        self.lm = lm
        self.objective = objective
        self.calls = 0

    def propose(self, market, state, announcements, epsilon, rng):
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, state, announcements, epsilon, market, self.lm
        )
        gap = self.objective - market.total_utility(dict(state.y), subjective=True)
        slack = (gap - optimum) / (1.0 + abs(self.objective))
        assert slack <= 1e-9, f"gap {gap!r} above certified optimum {optimum!r}"
        self.calls += 1
        return Certificate(optimum) if trade is None else trade


class TestCertifiedGap:
    @staticmethod
    def check_every_step(market):
        lm = build_loading_matrix(market.network)
        proposer = GapCheckingProposer(lm, solve_dispatch(market, lm).objective)
        result = run_trading(market, EngineConfig(epsilon=1e-3), proposer, lm)
        assert result.converged
        assert proposer.calls == result.steps + 1  # every step plus the certificate

    def test_search_optimum_bounds_dispatch_gap_at_every_step(self):
        for market in fleet_markets():
            self.check_every_step(market)

    def test_medium_market(self):
        # Seed 32 is the first default_rng seed whose medium-tier draw has at
        # least 15 buses, 12 scenarios and 30 participants.
        market = random_market(
            np.random.default_rng(32), max_buses=20, max_scenarios=16, max_participants=40
        )
        sizes = (market.network.bus_count, market.scenario_count, len(market.participants))
        assert sizes == (18, 16, 31)
        self.check_every_step(market)
