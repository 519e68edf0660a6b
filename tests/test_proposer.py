import io
import itertools
from dataclasses import replace

import numpy as np
import pytest

from gridtrade import lp
from gridtrade import proposer as proposer_mod
from gridtrade import solve_dispatch, two_bus_market, welfare_gap
from gridtrade.generators import random_market
from gridtrade.market import Market
from gridtrade.market_io import write_trace
from gridtrade.network import Network, build_loading_matrix, is_feasible_direction
from gridtrade.participants import Participant, ScenarioSet
from gridtrade.proposer import (
    ProposerStrategy,
    find_worthy_fd_trade,
    make_proposer,
    pair_bound,
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

from conftest import assert_plans_close, fleet_markets, medium_full_markets, state_at

# The announcement on a one-scenario network without lines.
NO_LINES = np.zeros((1, 0), dtype=bool)


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
        proposer = make_proposer(ProposerStrategy("full_group"))
        assert list(proposer.groups(market.participant_ids, np.random.default_rng(0))) == []

    def test_exhaustive_enumerates_all_pairs(self):
        ids = ("a", "b", "c", "d")
        proposer = make_proposer(ProposerStrategy("exhaustive_subsets", max_size=2))
        rng = np.random.default_rng(0)
        seen = set(proposer.groups(ids, rng))
        assert len(seen) == 6
        assert all(len(g) == 2 for g in seen)

    def test_random_sampling_is_seed_deterministic(self):
        ids = tuple(f"p{i}" for i in range(6))
        strategy = ProposerStrategy("random_subsets", max_size=4, attempts=5)
        draws = []
        for _ in range(2):
            proposer = make_proposer(strategy)
            rng = np.random.default_rng(42)
            draws.append([g for _ in range(2) for g in proposer.groups(ids, rng)])
        assert draws[0] == draws[1]
        assert all(2 <= len(g) <= 4 for g in draws[0])

    def test_exhaustive_resumes_where_the_last_call_stopped(self):
        ids = ("a", "b", "c")
        proposer = make_proposer(ProposerStrategy("exhaustive_subsets", max_size=2))
        rng = np.random.default_rng(0)
        assert next(proposer.groups(ids, rng)) == ("a", "b")
        assert list(proposer.groups(ids, rng)) == [("a", "c"), ("b", "c"), ("a", "b")]

    @pytest.mark.parametrize("mode", ["exhaustive_subsets", "random_subsets"])
    def test_single_participant_certifies_by_whole_market_search(self, mode):
        only = Participant.producer("a", 0, "RT", (10.0,), 5.0)
        market = Market(Network(1, (), reference_bus=0), ScenarioSet((1.0,)), (only,))
        result = run_trading(market, EngineConfig(), make_proposer(ProposerStrategy(mode)))
        assert result.converged and result.steps == 0

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            ProposerStrategy("psychic")
        with pytest.raises(ValueError):
            ProposerStrategy("random_subsets", max_size=1)

    @pytest.mark.parametrize("field", ["max_size", "attempts", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ProposerStrategy("random_subsets", **{field: value})

    def test_numpy_integer_counts_accepted(self):
        strategy = ProposerStrategy("random_subsets", max_size=np.int64(3), attempts=np.int32(5), seed=np.uint8(7))
        assert (strategy.max_size, strategy.attempts, strategy.seed) == (3, 5, 7)


class TestFindWorthyFdTrade:
    def test_curtailed_state_yields_congestion_relief_trade(self, market, lm, curtailed_state, golden_plans):
        announcements = announce(curtailed_state.x, lm)
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, curtailed_state, announcements, 1e-3, market
        )
        assert trade is not None and optimum == pytest.approx(28280.0, abs=1e-5)
        expected = {
            pid: golden_plans["final"][pid] - golden_plans["curtailed"][pid]
            for pid in golden_plans["final"]
        }
        assert_plans_close(dict(trade.plans), expected)

    def test_final_state_certifies_none(self, market, lm, golden_plans):
        state = state_at(
            market,
            golden_plans["final"],
            market.aggregate_nodal(golden_plans["final"]),
        )
        announcements = announce(state.x, lm)
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, state, announcements, 1e-9, market
        )
        assert trade is None and optimum <= 1e-9

    def test_pair_at_equal_marginals_has_no_improvement(self):
        # Both producers interior with identical marginal cost: first-order
        # optimal for the pair, so the search certifies zero.
        network = Network(1, (), reference_bus=0)
        a = Participant.producer("a", 0, "RT", (100.0,), 40.0)
        b = Participant.producer("b", 0, "RT", (100.0,), 40.0)
        market = Market(network, ScenarioSet((1.0,)), (a, b))
        state = state_at(
            market,
            {"a": np.array([30.0]), "b": np.array([30.0])},
            np.array([[60.0]]),
        )
        trade, optimum = find_worthy_fd_trade(("a", "b"), state, NO_LINES, 1e-9, market)
        assert trade is None and optimum == pytest.approx(0.0, abs=1e-9)

    def test_plan_past_its_bound_by_round_off_still_searches(self):
        # a sits 1e-10 MW above its 100 MW bound, inside LOCAL_TOL, and b at
        # its own bound, so no pair trade can pull a back inside.  The search's
        # box still contains d = 0, so it certifies instead of failing.
        network = Network(1, (), reference_bus=0)
        a = Participant.producer("a", 0, "RT", (100.0,), 40.0)
        b = Participant.producer("b", 0, "RT", (100.0,), 30.0)
        market = Market(network, ScenarioSet((1.0,)), (a, b))
        state = state_at(market, {"a": np.array([100.0 + 1e-10]), "b": np.array([100.0])},
                         np.array([[200.0 + 1e-10]]))
        trade, optimum = find_worthy_fd_trade(("a", "b"), state, NO_LINES, 1e-3, market)
        assert trade is None and optimum == pytest.approx(0.0, abs=1e-9)

    def test_returned_trade_is_valid_and_directional(self, market, lm, curtailed_state):
        announcements = announce(curtailed_state.x, lm)
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, curtailed_state, announcements, 1e-3, market
        )
        assert validate_trade(trade, curtailed_state, market) == []
        q = market.aggregate_nodal(trade.plans)
        assert is_feasible_direction(lm, curtailed_state.x, q)
        worthy, delta = is_worthy(trade, curtailed_state, 1e-3, market)
        assert worthy and delta == pytest.approx(optimum, abs=1e-7)

    def test_group_without_freedom_certifies_zero(self, market, lm):
        state = TradingState.initial(market)
        trade, optimum = find_worthy_fd_trade(("G1", "G3"), state, announce(state.x, lm),
                                              1e500, market)
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
            result = run_trading(market, EngineConfig(epsilon=1e-3), make_proposer(ProposerStrategy()))
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
            market.participant_ids, state, announcements, epsilon, market
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


def rated_subjective(market, rng):
    """``market`` with per-scenario line ratings and every other member's own beliefs."""
    lines = market.network.lines
    caps = None
    if lines:
        nominal = np.array([line.capacity for line in lines])
        caps = nominal * rng.uniform(0.5, 1.0, size=(market.scenario_count, len(lines)))
    beliefs = tuple(np.roll(market.scenarios.as_array(), 1))
    participants = tuple(
        replace(p, subjective_probabilities=beliefs) if k % 2 else p
        for k, p in enumerate(market.participants)
    )
    return Market(replace(market.network, scenario_capacities=caps), market.scenarios, participants)


class PairChecker:
    """Runs the wrapped proposer after comparing every pair's scan with its LP."""

    def __init__(self, inner, lm):
        self.inner, self.lm = inner, lm
        self.seen = {"day_ahead": 0, "same_bus": 0, "signed": 0, "subjective": 0}

    def propose(self, market, state, announcements, epsilon, rng):
        _, rows = np.nonzero(announcements)
        for pair in itertools.combinations(market.participant_ids, 2):
            bound = pair_bound(market.table, pair, state, announcements, market.network.shift_factors)
            _, optimum = find_worthy_fd_trade(pair, state, announcements, epsilon, market)
            if bound is None:  # bounds crossed by round-off: the pair goes to the LP
                continue
            assert abs(bound - optimum) <= 1e-9, (pair, bound, optimum)
            members = [market.participants[i] for i in market.table.rows(pair)]
            buses = [p.bus for p in members]
            self.seen["day_ahead"] += any(p.timing == "DA" for p in members)
            self.seen["same_bus"] += buses[0] == buses[1] and rows.size > 0
            self.seen["signed"] += bool(np.any(self.lm.rows[rows, buses[0]] != self.lm.rows[rows, buses[1]]))
            self.seen["subjective"] += any(p.subjective_probabilities is not None for p in members)
        return self.inner.propose(market, state, announcements, epsilon, rng)


def counting_searches(monkeypatch) -> list:
    """Patch the trade search to record each searched group; returns the record."""
    searches = []
    search = proposer_mod.find_worthy_fd_trade

    def counted(group, *args):
        searches.append(group)
        return search(group, *args)

    monkeypatch.setattr(proposer_mod, "find_worthy_fd_trade", counted)
    return searches


def traced_run(monkeypatch, market, strategy, config):
    """Trace text, certificate and search count of one run with a fresh proposer."""
    with monkeypatch.context() as patch:
        searches = counting_searches(patch)
        result = run_trading(market, config, make_proposer(strategy))
    buf = io.StringIO()
    write_trace(result.state.records, buf)
    return buf.getvalue(), result.certified_bound, len(searches)


class TestPairScreen:
    def test_bound_equals_pair_optimum_along_fleet_runs(self):
        # Every pair at every state of full-group runs on a quarter of the
        # fleet, plain and with per-scenario ratings and subjective
        # probabilities.  Same-bus pairs have a coefficient of exactly 0.
        rng = np.random.default_rng(5)
        checked = {"day_ahead": 0, "same_bus": 0, "signed": 0, "subjective": 0}
        for market in fleet_markets()[::4]:
            for variant in (market, rated_subjective(market, rng)):
                lm = build_loading_matrix(variant.network)
                inner = make_proposer(ProposerStrategy("full_group"), lm)
                checker = PairChecker(inner, lm)
                assert run_trading(variant, EngineConfig(epsilon=1e-3), checker, lm).converged
                for kind, count in checker.seen.items():
                    checked[kind] += count
        assert min(checked.values()) >= 100, checked

    @pytest.mark.parametrize("strategy,config", [
        (ProposerStrategy("exhaustive_subsets", max_size=2), EngineConfig(epsilon=1e-3)),
        (ProposerStrategy("random_subsets", max_size=3, attempts=6, seed=3),
         EngineConfig(epsilon=1e-3, curtailment_mode="hybrid")),
    ], ids=["exhaustive", "random_hybrid"])
    def test_traces_match_unscreened_runs(self, monkeypatch, strategy, config):
        skipped = 0
        for market in fleet_markets()[::5]:
            screened = traced_run(monkeypatch, market, strategy, config)
            with monkeypatch.context() as patch:
                patch.setattr(proposer_mod, "pair_bound", lambda *args: None)
                unscreened = traced_run(patch, market, strategy, config)
            assert screened[:2] == unscreened[:2]
            skipped += unscreened[2] - screened[2]
        assert skipped > 0

    def test_crossed_bounds_fall_back_to_the_lp(self, monkeypatch):
        # a sits 1e-12 MW above its upper bound and b at its own: a pair
        # trade must lower a and raise b, so the scan's interval is empty.
        a = Participant.producer("a", 0, "RT", (100.0,), 40.0)
        b = Participant.producer("b", 0, "RT", (100.0,), 30.0)
        network = Network(1, (), reference_bus=0)
        market = Market(network, ScenarioSet((1.0,)), (a, b))
        lm = build_loading_matrix(network)
        state = state_at(market, {"a": np.array([100.0 + 1e-12]), "b": np.array([100.0])},
                         np.array([[200.0 + 1e-12]]))
        assert pair_bound(market.table, ("a", "b"), state, NO_LINES, network.shift_factors) is None
        proposer = make_proposer(ProposerStrategy("exhaustive_subsets", max_size=2), lm)
        searches = counting_searches(monkeypatch)
        outcome = proposer.propose(market, state, NO_LINES, 1e-3, np.random.default_rng(0))
        # At a state the scan covers, the pair's LP is skipped.
        searches.append("interior")
        inside = state_at(market, {"a": np.array([50.0]), "b": np.array([50.0])}, np.array([[100.0]]))
        proposer.propose(market, inside, NO_LINES, 1e3, np.random.default_rng(0))
        assert searches == [("a", "b"), ("a", "b"), "interior", ("a", "b")]
        assert isinstance(outcome, Certificate) and outcome.optimum == pytest.approx(0.0, abs=1e-9)


class TestProposerReuse:
    def test_reused_proposer_reads_each_markets_own_table(self, monkeypatch):
        tables = []
        scan = proposer_mod.pair_bound

        def recorded(table, *args):
            tables.append(table)
            return scan(table, *args)

        monkeypatch.setattr(proposer_mod, "pair_bound", recorded)
        shared = make_proposer(ProposerStrategy("exhaustive_subsets", max_size=2))
        for market in (two_bus_market(), *fleet_markets()[:3]):
            tables.clear()
            run_trading(market, EngineConfig(epsilon=1e-3), shared)
            assert tables and all(table is market.table for table in tables)

    @pytest.mark.parametrize("mode", ["full_group", "exhaustive_subsets"])
    def test_one_proposer_serves_markets_of_different_topology(self, mode):
        fleet = fleet_markets()
        four_bus = next(m for m in fleet if m.network.bus_count == 4)
        other_four_bus = next(
            m for m in fleet if m.network.bus_count == 4 and m.network.lines != four_bus.network.lines
        )
        strategy = ProposerStrategy(mode, max_size=2)
        config = EngineConfig(epsilon=1e-3)
        shared = make_proposer(strategy)
        for market in (two_bus_market(), four_bus, other_four_bus):
            reused = run_trading(market, config, shared)
            fresh = run_trading(market, config, make_proposer(strategy))
            assert reused.steps == fresh.steps and reused.certified_bound == fresh.certified_bound
            for pid, plan in fresh.state.y.items():
                np.testing.assert_array_equal(reused.state.y[pid], plan)


@pytest.fixture(scope="module")
def medium_warm_searches():
    """Medium market 0's full-group run: its steps and each warm whole-market search with a cold solve of its LP.

    Each warm search is ``(program, start, solution)``, in order; the first
    search of the run starts cold.
    """
    searches = []
    solve = lp.solve

    def recorded(program, *start):
        solution = solve(program, *start)
        if start:
            searches.append((program, start[0], solution))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve", recorded)
        result = run_trading(medium_full_markets()[0], EngineConfig(epsilon=1e-3), make_proposer(ProposerStrategy()))
    assert result.converged and searches[0][1] is lp.COLD
    warm = searches[1:]
    return result.steps, warm, [lp.solve(program) for program, _, _ in warm]


class TestWarmStart:
    def test_every_whole_market_search_after_the_first_starts_warm(self, medium_warm_searches):
        steps, warm, _ = medium_warm_searches
        assert len(warm) == steps  # every step's search, then the certificate, after the first
        assert all(start.col_status and solution.basis is not None for _, start, solution in warm)

    def test_warm_searches_match_cold_solves(self, medium_warm_searches):
        _, warm, cold = medium_warm_searches
        for (program, _, solution), reference in zip(warm, cold):
            assert abs(solution.objective - reference.objective) <= 1e-9 * (1.0 + abs(reference.objective))
            n_d = program.c.size // 2  # the increments, then as many epigraph columns
            np.testing.assert_allclose(solution.x[:n_d], reference.x[:n_d], rtol=0, atol=1e-8)

    def test_warm_searches_take_under_a_fifth_of_the_cold_iterations(self, medium_warm_searches):
        _, warm, cold = medium_warm_searches
        warm_iterations = sum(solution.iterations for _, _, solution in warm)
        assert 5 * warm_iterations < sum(reference.iterations for reference in cold)

    def test_dropped_nonbasic_row_marks_the_basis_alien(self):
        kept_mask, basis = np.array([[True, True]]), lp.Basis(["c"], ["seg", lp.BASIC, "nonbasic", "eq"])
        warm = proposer_mod.WarmStart()
        assert warm.start(kept_mask, 3) is lp.COLD
        warm.keep(kept_mask, basis)
        assert warm.start(kept_mask, 3).row_status == basis.row_status
        first_only = warm.start(np.array([[True, False]]), 2)
        assert first_only.row_status == ["seg", lp.BASIC, "eq"] and first_only.alien
        second_only = warm.start(np.array([[False, True]]), 2)
        assert second_only.row_status == ["seg", "nonbasic", "eq"] and not second_only.alien

    def test_reused_proposer_traces_match_fresh_proposers(self):
        def trace(market, proposer):
            result = run_trading(market, EngineConfig(epsilon=1e-3), proposer)
            buf = io.StringIO()
            write_trace(result.state.records, buf)
            return buf.getvalue()

        first, second = medium_full_markets()[:2]
        fresh = {id(m): trace(m, make_proposer(ProposerStrategy())) for m in (first, second)}
        same = make_proposer(ProposerStrategy())
        assert [trace(first, same) for _ in range(2)] == [fresh[id(first)]] * 2
        alternating = make_proposer(ProposerStrategy())
        for market in (first, second, first, second):
            assert trace(market, alternating) == fresh[id(market)]


INPUT_ERRORS = [
    (lambda: ProposerStrategy(attempts=0), ValueError, "attempts must be >= 1"),
]


@pytest.mark.parametrize("call,error,message", INPUT_ERRORS, ids=[m for *_, m in INPUT_ERRORS])
def test_documented_input_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
