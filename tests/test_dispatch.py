import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from gridtrade import dispatch, lp, network
from gridtrade.dispatch import (
    DispatchInfeasibleError,
    check_arrow_debreu,
    lmp_from_marginals,
    solve_dispatch,
    welfare_gap,
)
from gridtrade.generators import random_market
from gridtrade.market import Market, two_bus_market
from gridtrade.network import Line, LoadingMatrix, Network, build_loading_matrix
from gridtrade.participants import Participant, ScenarioSet, UtilityFunction
from gridtrade.proposer import ProposerStrategy, find_worthy_fd_trade, make_proposer
from gridtrade.trading import EngineConfig, announce, run_trading

from conftest import (
    assert_plans_close,
    fleet_markets,
    kkt_report,
    medium_full_markets,
    scenario_rated_markets,
)


def two_bus_cost_oracle(cap: float) -> float:
    """Brute-force production cost: sweep the committed unit, fill by merit.

    For each candidate day-ahead output of the 50 $/MW unit, the free wind
    farm is used to the line's remaining room and the 80 $/MW unit covers the
    rest, per scenario.  Fine sweep over the one degree of freedom.
    """
    best = float("inf")
    for p1 in np.arange(0.0, 200.0 + 1e-9, 0.05):
        cost = 50.0 * p1
        feasible = True
        for prob, wind_cap in ((0.6, 100.0), (0.4, 50.0)):
            wind = min(wind_cap, max(cap - p1, 0.0), 150.0 - p1)
            gas = 150.0 - p1 - wind
            if gas < -1e-9 or gas > 100.0 + 1e-9 or p1 + wind > cap + 1e-9:
                feasible = False
                break
            cost += prob * 80.0 * max(gas, 0.0)
        if feasible:
            best = min(best, cost)
    return best


class TestSolveDispatch:
    def test_congested_two_bus_matches_golden_plan(self, two_bus, two_bus_dispatch, golden_plans):
        assert_plans_close(two_bus_dispatch.plans, golden_plans["final"])
        # Welfare = consumption value minus 5000 $ of expected production cost.
        value = 150.0 * 1000.0
        assert two_bus_dispatch.objective == pytest.approx(value - 5000.0, abs=1e-6)
        assert two_bus_dispatch.objective == pytest.approx(value - two_bus_cost_oracle(120.0), abs=1e-4)

    def test_uncongested_two_bus_matches_sweep_oracle(self):
        market = two_bus_market(line_capacity=150.0)
        solution = solve_dispatch(market)
        cost = 150.0 * 1000.0 - solution.objective
        assert cost == pytest.approx(4100.0, abs=1e-6)
        assert cost == pytest.approx(two_bus_cost_oracle(150.0), abs=1e-4)

    def test_single_bus_forced_balance(self):
        network = Network(1, (), reference_bus=0)
        gen = Participant.producer("gen", 0, "RT", (200.0,), 50.0)
        fixed = Participant(
            "load", 0, "load", "RT", ((-100.0, -100.0),),
            (UtilityFunction((-100.0, 0.0), (0.0,)),),
        )
        market = Market(network, ScenarioSet((1.0,)), (gen, fixed))
        solution = solve_dispatch(market)
        assert solution.plans["gen"][0] == pytest.approx(100.0)
        assert solution.objective == pytest.approx(-5000.0)

    def test_objective_is_the_utility_of_its_plans(self, two_bus, two_bus_dispatch):
        # Two-sided, unlike welfare_gap, which clamps at 0: an objective too low fails too.
        for market, solution in [
            (two_bus, two_bus_dispatch),
            *((m, solve_dispatch(m)) for m in [*fleet_markets(), *medium_full_markets()]),
        ]:
            achieved = market.total_utility(solution.plans, subjective=True)
            assert abs(solution.objective - achieved) <= 1e-9 * (1 + abs(solution.objective))

    def test_infeasible_market_reported(self):
        network = Network(2, (Line(0, 1, 1.0, 10.0),), reference_bus=1)
        gen = Participant.producer("gen", 0, "RT", (200.0,), 50.0)
        fixed = Participant(
            "load", 1, "load", "RT", ((-100.0, -100.0),),
            (UtilityFunction((-100.0, 0.0), (0.0,)),),
        )
        market = Market(network, ScenarioSet((1.0,)), (gen, fixed))
        with pytest.raises(DispatchInfeasibleError):
            solve_dispatch(market)


class TestPriceDiscovery:
    def test_interior_quotes_at_flexible_bus(self, two_bus, two_bus_dispatch):
        quote_windy = lmp_from_marginals(two_bus, two_bus_dispatch.plans, 1, 0)
        quote_breezy = lmp_from_marginals(two_bus, two_bus_dispatch.plans, 1, 1)
        assert quote_windy == pytest.approx(48.0, abs=1e-9)
        assert quote_breezy == pytest.approx(32.0, abs=1e-9)

    def test_bus_without_interior_participant_defers(self, two_bus, two_bus_dispatch):
        # Wind sits at its cap and the coal unit is committed ahead, so no
        # local marginal quote exists at bus 0 in the windy scenario.
        assert lmp_from_marginals(two_bus, two_bus_dispatch.plans, 0, 0) is None

    def test_quotes_agree_with_duals(self, two_bus, two_bus_dispatch):
        for s in range(2):
            quote = lmp_from_marginals(two_bus, two_bus_dispatch.plans, 1, s)
            assert quote == pytest.approx(two_bus_dispatch.lambda_[s, 1], abs=1e-6)

    def test_full_price_matrix(self, two_bus_dispatch):
        np.testing.assert_allclose(
            two_bus_dispatch.lambda_, [[18.0, 48.0], [32.0, 32.0]], atol=1e-6
        )

    def test_quotes_match_the_per_participant_scan(self, two_bus):
        # The reference walks the roster for each bus, as the quote did before it read the table.
        def reference(market, plans, n, s):
            for p in market.participants:
                if p.bus != n or p.timing != "RT":
                    continue
                val, (lo, hi) = float(plans[p.id][s]), p.bounds[s]
                if lo + 1e-7 < val < hi - 1e-7 and all(abs(val - b) > 1e-7 for b in p.utility[s].breakpoints):
                    return -float(p.weights(market.scenarios)[s]) * p.utility[s].marginals(val)[0]
            return None

        quoted = 0
        for market in [two_bus, *fleet_markets()]:
            plans = solve_dispatch(market).plans
            for n in range(market.network.bus_count):
                for s in range(market.scenario_count):
                    quote = lmp_from_marginals(market, plans, n, s)
                    assert quote == reference(market, plans, n, s)
                    quoted += quote is not None
        assert quoted > 50

    def test_quote_uses_the_participants_own_weights(self):
        # An interior seller with subjective beliefs quotes at its believed
        # marginal cost, and the benchmark's duals agree.
        network = Network(1, (), reference_bus=0)
        seller = Participant.producer(
            "gen", 0, "RT", (100.0, 100.0), 50.0, subjective_probabilities=(0.3, 0.7)
        )
        buyer = Participant(
            "dem", 0, "load", "RT",
            ((-60.0, 0.0), (-60.0, 0.0)),
            (UtilityFunction((-60.0, -30.0, 0.0), (-20.0, -80.0)),) * 2,
        )
        market = Market(network, ScenarioSet((0.5, 0.5)), (seller, buyer))
        solution = solve_dispatch(market)
        for s, w in enumerate((0.3, 0.7)):
            assert solution.plans["gen"][s] == pytest.approx(30.0)
            quote = lmp_from_marginals(market, solution.plans, 0, s)
            assert quote == pytest.approx(w * 50.0, abs=1e-6)
            assert quote == pytest.approx(solution.lambda_[s, 0], abs=1e-6)


class TestWelfareGap:
    def test_zero_at_the_optimum(self, two_bus, two_bus_dispatch, golden_plans):
        assert welfare_gap(two_bus, golden_plans["final"], two_bus_dispatch) <= 1e-6

    def test_positive_at_curtailed_state(self, two_bus, two_bus_dispatch, golden_plans):
        gap = welfare_gap(two_bus, golden_plans["curtailed"], two_bus_dispatch)
        assert gap == pytest.approx(28280.0, abs=1e-6)

    def test_zero_for_dispatch_plan_itself(self, two_bus, two_bus_dispatch):
        assert welfare_gap(two_bus, two_bus_dispatch.plans, two_bus_dispatch) <= 1e-9

    def test_missing_plan_names_the_participant(self, two_bus, two_bus_dispatch):
        plans = {pid: plan for pid, plan in two_bus_dispatch.plans.items() if pid != "G3"}
        with pytest.raises(KeyError, match="no plan for participant id 'G3'"):
            welfare_gap(two_bus, plans, two_bus_dispatch)


class TestArrowDebreu:
    def test_dispatch_tuple_is_an_equilibrium(self, two_bus, two_bus_dispatch):
        report = check_arrow_debreu(
            two_bus, two_bus_dispatch.plans, two_bus_dispatch.x, two_bus_dispatch.lambda_
        )
        assert report.verdict
        assert all(report.participant_ok.values()) and report.so_ok and report.clearing_ok

    @pytest.mark.parametrize("s,n", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_any_single_price_perturbation_breaks_it(self, two_bus, two_bus_dispatch, s, n):
        prices = two_bus_dispatch.lambda_.copy()
        prices[s, n] += 1.0
        report = check_arrow_debreu(two_bus, two_bus_dispatch.plans, two_bus_dispatch.x, prices)
        assert not report.verdict

    @pytest.mark.parametrize("entry", [100.0 + 1e-6, np.nan])
    def test_plan_outside_bounds_names_the_participant(self, two_bus, two_bus_dispatch, entry):
        plans = dict(two_bus_dispatch.plans, G3=np.array([0.0, entry]))
        with pytest.raises(ValueError, match=r"^G3: plan .* outside bounds \[0.0, 100.0\] in scenario 1"):
            check_arrow_debreu(two_bus, plans, two_bus_dispatch.x, two_bus_dispatch.lambda_)

    def test_missing_plan_names_the_participant(self, two_bus, two_bus_dispatch):
        plans = {pid: plan for pid, plan in two_bus_dispatch.plans.items() if pid != "G3"}
        with pytest.raises(KeyError, match="no plan for participant id 'G3'"):
            check_arrow_debreu(two_bus, plans, two_bus_dispatch.x, two_bus_dispatch.lambda_)

    def test_plan_of_wrong_length_raises(self, two_bus, two_bus_dispatch):
        plans = dict(two_bus_dispatch.plans, G2=np.array([50.0]))
        with pytest.raises(ValueError):
            check_arrow_debreu(two_bus, plans, two_bus_dispatch.x, two_bus_dispatch.lambda_)

    def test_solutions_compare_by_identity(self, two_bus, two_bus_dispatch):
        # Arrays inside: == is identity and hash works, as for trading records.
        lm = build_loading_matrix(two_bus.network)
        rows = np.ones((2, lm.rows.shape[0]), dtype=bool)
        program = dispatch.welfare_program(two_bus, [0, 1], np.zeros((2, 2)), rows)
        program = replace(program, b_ub=program.b_ub + lm.stacked_limits(2)[rows])
        for a, b in [
            (two_bus_dispatch, solve_dispatch(two_bus)),
            (lm, build_loading_matrix(two_bus.network)),
            (program, replace(program)),
            (lp.solve(program), lp.solve(program)),
        ]:
            assert a == a and a != b
            assert hash(a) == hash(a)

    def test_prices_of_another_shape_are_rejected(self, two_bus, two_bus_dispatch):
        with pytest.raises(ValueError, match=r"prices \(2, 3\) .* must both have shape \(2, 2\)"):
            check_arrow_debreu(two_bus, two_bus_dispatch.plans, two_bus_dispatch.x, np.zeros((2, 3)))

    def test_empty_market_is_vacuously_in_equilibrium(self):
        network = Network(2, (Line(0, 1, 1.0, 50.0),), reference_bus=0)
        market = Market(network, ScenarioSet((1.0,)), ())
        report = check_arrow_debreu(market, {}, np.zeros((1, 2)), np.zeros((1, 2)))
        assert report.verdict

    def test_empty_market_has_an_empty_table(self):
        table = Market(Network(1, ()), ScenarioSet((1.0,)), ()).table
        assert table.index == {} and table.bus.shape == table.day_ahead.shape == (0,)
        assert table.weights.shape == table.lower.shape == table.upper.shape == (0, 1)
        assert table.slopes.shape[:2] == table.breakpoints.shape[:2] == table.real.shape[:2] == (0, 1)

    def test_operator_slack_scaled_by_scenario_ratings(self):
        # Ratings of 10 MW in the only scenario over a 1 MW base rating.  The
        # operator could earn 1 $/MW on 0.001 MW more flow: a slack of 1e-3,
        # inside 1e-6 * (1 + 201 * 10) but not 1e-6 * (1 + 201 * 1).
        network = Network(2, (Line(0, 1, 1.0, 1.0),), reference_bus=0, scenario_capacities=((10.0,),))
        gen = Participant.producer("gen", 0, "RT", (20.0,), 50.0)
        dem = Participant.load("dem", 1, "RT", (20.0,), 200.0)
        market = Market(network, ScenarioSet((1.0,)), (gen, dem))
        plans = {"gen": np.array([9.999]), "dem": np.array([-9.999])}
        report = check_arrow_debreu(market, plans, np.array([[9.999, -9.999]]), np.array([[100.0, 101.0]]))
        assert report.so_slack == pytest.approx(1e-3)
        assert report.so_ok

    def test_random_markets_first_welfare_theorem(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            market = random_market(rng, max_buses=4, max_scenarios=3, max_participants=6)
            solution = solve_dispatch(market)
            report = check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_)
            assert report.verdict
            assert welfare_gap(market, solution.plans, solution) <= 1e-6


def best_response_reference(p: Participant, lam_at_bus: np.ndarray, w: np.ndarray) -> float:
    """The price-taking optimum by a scalar scan of bounds and breakpoints, one candidate at a time."""
    blocks = [range(len(w))] if p.timing == "DA" else [[s] for s in range(len(w))]
    total = 0.0
    for block in blocks:
        lo, hi = p.bounds[block[0]]
        candidates = {lo, hi}
        for s in block:
            candidates.update(b for b in p.utility[s].breakpoints if lo < b < hi)
        total += max(
            sum(lam_at_bus[s] * z + w[s] * p.utility[s].value(z) for s in block)
            for z in candidates
        )
    return total


def with_own_beliefs(market: Market) -> Market:
    """``market`` with every other participant trading on rolled scenario probabilities."""
    beliefs = tuple(np.roll(market.scenarios.as_array(), 1))
    participants = tuple(
        replace(p, subjective_probabilities=beliefs) if k % 2 else p
        for k, p in enumerate(market.participants)
    )
    return Market(market.network, market.scenarios, participants)


class TestBestResponse:
    def test_table_scan_matches_scalar_scan(self):
        # At the dispatch prices and at randomly perturbed ones, on every fleet market.
        rng = np.random.default_rng(29)
        seen = {"DA": 0, "RT": 0, "subjective": 0}
        for plain in fleet_markets():
            market = with_own_beliefs(plain)
            lam = solve_dispatch(market).lambda_
            perturbed = lam * rng.uniform(0.5, 1.5, size=lam.shape) + rng.normal(0.0, 5.0, size=lam.shape)
            for prices in (lam, perturbed):
                bests = dispatch._best_responses(market.table, prices[:, market.table.bus].T)
                for p, best in zip(market.participants, bests):
                    reference = best_response_reference(p, prices[:, p.bus], p.weights(market.scenarios))
                    assert abs(best - reference) <= 1e-9 * (1 + abs(reference)), (p.id, best, reference)
                    seen[p.timing] += 1
                    seen["subjective"] += p.subjective_probabilities is not None
        assert min(seen.values()) >= 100, seen


class TestDualConsistency:
    def test_kkt_system_on_two_bus(self, two_bus, two_bus_dispatch):
        lm = build_loading_matrix(two_bus.network)
        assert kkt_report(two_bus, two_bus_dispatch, lm) == []

    def test_kkt_system_on_random_markets(self):
        rng = np.random.default_rng(5150)
        for _ in range(6):
            market = random_market(rng, max_buses=5, max_scenarios=3, max_participants=7)
            lm = build_loading_matrix(market.network)
            solution = solve_dispatch(market, lm)
            assert kkt_report(market, solution, lm) == []

    def test_congestion_rent_sign_on_random_two_bus_markets(self):
        rng = np.random.default_rng(321)
        for _ in range(10):
            cap = float(rng.uniform(20.0, 60.0))
            network = Network(2, (Line(0, 1, 1.0, cap),), reference_bus=1)
            gen = Participant.producer("gen", 0, "RT", (150.0,), float(rng.uniform(10, 40)))
            back = Participant.producer("back", 1, "RT", (150.0,), float(rng.uniform(50, 90)))
            dem = Participant.load("dem", 1, "RT", (float(rng.uniform(60, 140)),), 400.0)
            market = Market(network, ScenarioSet((1.0,)), (gen, back, dem))
            solution = solve_dispatch(market)
            for rows, s in [(build_loading_matrix(network), 0)]:
                for line_row in range(network.line_count):
                    flow = rows.rows[line_row] @ solution.x[s]
                    if abs(flow - network.lines[line_row].capacity) <= 1e-6:
                        importer, exporter = (1, 0) if flow > 0 else (0, 1)
                        rent = solution.lambda_[s, importer] - solution.lambda_[s, exporter]
                        assert rent >= -1e-8


class TestMismatchedLoadingMatrix:
    """A loading matrix of another network is an input error at each entry point, of its shape or not."""

    SHAPE = r"shape \(4, 3\), but the market's network needs \(2, 2\)"
    ROWS = "loading matrix rows are not the shift factors of the market's network"

    @staticmethod
    def three_bus_lm():
        return build_loading_matrix(Network(3, (Line(0, 1, 1.0, 100.0), Line(1, 2, 1.0, 100.0))))

    @staticmethod
    def other_reference_lm():
        """The two-bus network's shape, but bus 0 as the reference: other shift factors."""
        return build_loading_matrix(Network(2, (Line(0, 1, 1.0, 120.0),), reference_bus=0))

    def test_solve_dispatch_rejects_it(self, two_bus):
        with pytest.raises(ValueError, match=self.SHAPE):
            solve_dispatch(two_bus, self.three_bus_lm())
        with pytest.raises(ValueError, match=self.ROWS):
            solve_dispatch(two_bus, self.other_reference_lm())

    def test_check_arrow_debreu_rejects_it(self, two_bus, two_bus_dispatch):
        for lm, message in ((self.three_bus_lm(), self.SHAPE), (self.other_reference_lm(), self.ROWS)):
            with pytest.raises(ValueError, match=message):
                check_arrow_debreu(two_bus, two_bus_dispatch.plans, two_bus_dispatch.x,
                                   two_bus_dispatch.lambda_, lm=lm)

    def test_run_trading_and_make_proposer_reject_it(self, two_bus):
        own = build_loading_matrix(two_bus.network)
        for lm, message in ((self.three_bus_lm(), self.SHAPE), (self.other_reference_lm(), self.ROWS)):
            with pytest.raises(ValueError, match=message):
                run_trading(two_bus, EngineConfig(), make_proposer(ProposerStrategy()), lm)
            with pytest.raises(ValueError, match=message):
                run_trading(two_bus, EngineConfig(), make_proposer(ProposerStrategy(), lm), own)

    def test_fleet_matrices_of_the_same_shape_are_refused(self):
        # Without the check, fleet market 0's matrix certified market 10 at a
        # state over its own lines, and kept market 13's proposer from certifying.
        fleet = fleet_markets()
        lm0 = build_loading_matrix(fleet[0].network)
        assert lm0.rows.shape == fleet[10].network.shift_factors.shape == fleet[13].network.shift_factors.shape
        config = EngineConfig(epsilon=1e-3)
        with pytest.raises(ValueError, match=self.ROWS):
            run_trading(fleet[10], config, make_proposer(ProposerStrategy(), lm0), lm0)
        with pytest.raises(ValueError, match=self.ROWS):
            solve_dispatch(fleet[10], lm0)
        with pytest.raises(ValueError, match=self.ROWS):
            run_trading(fleet[13], config, make_proposer(ProposerStrategy(), lm0),
                        build_loading_matrix(fleet[13].network))

    def test_a_copy_of_the_network_and_its_ratings_override_are_accepted(self, two_bus):
        net = two_bus.network
        copy = build_loading_matrix(Network(net.bus_count, net.lines, net.reference_bus))
        rated = copy.with_scenario_capacities(np.full((2, 1), 60.0))
        result = run_trading(two_bus, EngineConfig(), make_proposer(ProposerStrategy(), rated), rated)
        assert result.converged
        solution = solve_dispatch(two_bus, rated)
        assert solution.objective == solve_dispatch(unrated_two_bus(60.0)).objective
        assert check_arrow_debreu(two_bus, solution.plans, solution.x, solution.lambda_, lm=rated).verdict


class TestNetworkRatings:
    """Without ``lm`` the dispatch and the equilibrium check read the network's own ratings."""

    @staticmethod
    def markets():
        return [*fleet_markets(), *medium_full_markets(), *scenario_rated_markets()]

    def test_no_shift_factors_and_the_same_results_by_bytes(self, monkeypatch):
        markets = self.markets()
        assert any(m.network.scenario_capacities is not None for m in markets)
        expected = []
        for market in markets:
            lm = build_loading_matrix(market.network)
            solution = solve_dispatch(market, lm)
            report = check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_, lm=lm)
            expected.append((solution, report))

        def refuse(net):
            raise AssertionError("shift factors built for a call without lm")

        for module in (network, dispatch):  # dispatch must reach it under neither module's name
            monkeypatch.setattr(module, "build_loading_matrix", refuse, raising=False)
        for market, (want, want_report) in zip(self.markets(), expected):  # networks no call has touched
            got = solve_dispatch(market)
            report = check_arrow_debreu(market, got.plans, got.x, got.lambda_)
            assert "shift_factors" not in vars(market.network)
            assert got.objective == want.objective
            for name in ("x", "lambda_", "beta"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert report.participant_slack == want_report.participant_slack
            assert report.so_slack == want_report.so_slack
            assert report.verdict == want_report.verdict


def unrated_two_bus(capacity=math.inf):
    base = two_bus_market()
    return Market(Network(2, (Line(0, 1, 1.0, capacity),), reference_bus=1), base.scenarios, base.participants)


class TestUnratedLines:
    """An infinite rating is no limit: the line gets no flow row and its ``beta`` entries are 0."""

    def test_two_bus_dispatch_matches_a_rating_that_never_binds(self):
        market = unrated_two_bus()
        lm = build_loading_matrix(market.network)
        result = run_trading(market, EngineConfig(), make_proposer(ProposerStrategy(), lm), lm)
        assert result.converged and result.final_welfare == 145900.0
        solution = solve_dispatch(market)
        assert solution.objective == 145900.0 == solve_dispatch(unrated_two_bus(1e6)).objective
        np.testing.assert_array_equal(solution.lambda_, [[18.0, 18.0], [32.0, 32.0]])
        np.testing.assert_array_equal(solution.beta, 0.0)

    def test_two_bus_equilibrium_at_the_dispatch_prices(self):
        market = unrated_two_bus()
        solution = solve_dispatch(market)
        report = check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_)
        assert report.verdict and report.so_slack == 0.0
        assert kkt_report(market, solution, build_loading_matrix(market.network)) == []

    def test_prices_that_differ_across_an_unrated_line_fail(self):
        market = unrated_two_bus()
        solution = solve_dispatch(market)
        prices = solution.lambda_ + [[0.0, 1.0], [0.0, 0.0]]
        report = check_arrow_debreu(market, solution.plans, solution.x, prices)
        assert report.so_slack == math.inf
        assert not report.so_ok and not report.verdict

    def test_one_unrated_line_in_one_scenario_of_meshed_markets(self):
        # Scenario 0's first line is unrated; with a rating of 1e7 MW in its
        # place, which never binds, the optimum is the same.
        for market in fleet_markets()[::2]:
            net = market.network
            caps = np.tile([line.capacity for line in net.lines], (market.scenario_count, 1))
            outcomes = []
            for rating in (math.inf, 1e7):
                caps[0, 0] = rating
                rated = Network(net.bus_count, net.lines, net.reference_bus, scenario_capacities=caps.tolist())
                outcomes.append(Market(rated, market.scenarios, market.participants))
            unrated, rated = outcomes
            solution = solve_dispatch(unrated)
            assert solution.objective == pytest.approx(solve_dispatch(rated).objective, rel=1e-9, abs=1e-9)
            assert solution.beta[0, [0, net.line_count]].tolist() == [0.0, 0.0]
            assert kkt_report(unrated, solution, build_loading_matrix(unrated.network)) == []
            assert check_arrow_debreu(unrated, solution.plans, solution.x, solution.lambda_).verdict


def shift_factor_dispatch(market, lm):
    """Reference dispatch in shift-factor form: ``welfare_program`` with every loading row at its limit.

    Returns the objective, the utility of its plans, and the prices
    ``-(gamma + beta H)`` read from its system balance duals ``gamma`` and
    loading-row duals ``beta``.
    """
    n_p, n_s, n_rows = len(market.participants), market.scenario_count, lm.rows.shape[0]
    members, y, rows = np.arange(n_p), np.zeros((n_p, n_s)), np.ones((n_s, n_rows), dtype=bool)
    program = dispatch.welfare_program(market, members, y, rows)
    program = replace(program, b_ub=program.b_ub + lm.stacked_limits(n_s)[rows])
    sol = lp.solve(program)
    assert sol.status == "optimal"
    plans = dict(zip(market.participant_ids, dispatch.welfare_plans(market, members, sol.x)))
    beta = sol.duals_ub[sol.duals_ub.size - n_s * n_rows:].reshape(n_s, n_rows)
    return market.total_utility(plans, subjective=True), -(sol.duals_eq[-n_s:, None] + beta @ lm.rows)


def per_scenario_operator_profit(lm, prices, limits):
    """Reference operator optimum: one LP per scenario over ``[H; -H] x <= limits[s]`` and ``sum x = 0``."""
    total = 0.0
    for s in range(len(prices)):
        sol = lp.solve(lp.LinearProgram(c=-prices[s], a_eq=np.ones((1, lm.bus_count)), b_eq=np.zeros(1),
                                        a_ub=lm.rows, b_ub=limits[s]))
        assert sol.status == "optimal"
        total += sol.objective
    return total


class TestBusAngleForm:
    """The bus-angle dispatch and operator LPs against the shift-factor forms they replaced."""

    @pytest.fixture(scope="class")
    def medium(self):
        return medium_full_markets()

    def test_dispatch_objective_matches_shift_factor_form(self, medium):
        for market in [*fleet_markets(), *medium]:
            lm = build_loading_matrix(market.network)
            objective, _ = shift_factor_dispatch(market, lm)
            assert abs(solve_dispatch(market, lm).objective - objective) <= 1e-9 * (1 + abs(objective))

    def test_prices_match_shift_factor_form_on_medium_markets(self, medium):
        for market in medium:
            lm = build_loading_matrix(market.network)
            _, prices = shift_factor_dispatch(market, lm)
            np.testing.assert_allclose(solve_dispatch(market, lm).lambda_, prices, rtol=0, atol=1e-8)

    def test_fleet_prices_pass_kkt_and_support_the_equilibrium(self):
        for market in fleet_markets():
            lm = build_loading_matrix(market.network)
            solution = solve_dispatch(market, lm)
            assert kkt_report(market, solution, lm) == []
            assert check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_, lm=lm).verdict

    def test_operator_optimum_matches_per_scenario_lps(self, medium):
        # Perturbed dispatch prices under the network's ratings, per-scenario
        # ratings, another reference bus and forward ratings unlike reverse ones.
        rng = np.random.default_rng(11)
        for market in [*fleet_markets(), *medium]:
            net, n_s = market.network, market.scenario_count
            lam = solve_dispatch(market).lambda_
            prices = lam + rng.normal(0.0, 5.0, size=lam.shape)
            base = build_loading_matrix(net)
            moved = Network(net.bus_count, net.lines, reference_bus=net.bus_count - 1,
                            scenario_capacities=net.scenario_capacities)
            ratings = base.limits[:net.line_count] * rng.uniform(0.5, 1.5, size=(n_s, net.line_count))
            for lm, network in [
                (base, net),
                (base.with_scenario_capacities(ratings), net),
                (build_loading_matrix(moved), moved),
                (LoadingMatrix(base.rows, base.limits * rng.uniform(0.5, 1.5, size=base.limits.size)), net),
            ]:
                limits = lm.stacked_limits(n_s)
                expected = per_scenario_operator_profit(lm, prices, limits)
                got = dispatch._operator_profit(network, prices, limits)
                assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), (got, expected)


class TestWelfareProgramMatrixForms:
    """Dense and sparse constraint matrices give the same dispatch, operator LP and search.

    The fleet's LPs are below the dense-cell threshold, so the threshold is
    forced to each extreme to run both forms on the same markets.
    """

    @staticmethod
    def curtailed_case(market):
        # One curtailed full-group step, so the search carries line rows.
        lm = build_loading_matrix(market.network)
        result = run_trading(market, EngineConfig(max_steps=1), make_proposer(ProposerStrategy(), lm), lm)
        assert result.state.records[0].gamma < 1.0
        state = result.state
        return lm, state, announce(state.x, lm)

    @pytest.mark.parametrize("k", [None, 18])  # two-bus; a meshed fleet market with DA participants
    def test_dense_and_sparse_agree(self, monkeypatch, k):
        market = two_bus_market() if k is None else fleet_markets()[k]
        assert any(p.timing == "DA" for p in market.participants)
        if k is not None:
            # A bus on two or more lines repeats its nodal balance entries.
            ends = [b for line in market.network.lines for b in (line.from_bus, line.to_bus)]
            assert np.bincount(ends).max() >= 2
        lm, state, announcements = self.curtailed_case(market)
        assert announcements.any()
        outcomes = []
        inner = lp.solve
        for cells, form in ((0, sparse.csr_matrix), (10**12, np.ndarray)):
            monkeypatch.setattr(dispatch, "_DENSE_CELLS", cells)
            programs = []
            monkeypatch.setattr(lp, "solve", lambda program: programs.append(program) or inner(program))
            solution = solve_dispatch(market, lm)
            report = check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_, lm=lm)
            trade, optimum = find_worthy_fd_trade(
                market.participant_ids, state, announcements, 1e-3, market
            )
            monkeypatch.setattr(lp, "solve", inner)
            assert len(programs) == 3  # the dispatch, one operator LP and the search
            assert all(isinstance(p.a_ub, form) and isinstance(p.a_eq, form) for p in programs)
            assert kkt_report(market, solution, lm) == []
            assert report.verdict
            assert trade is not None
            outcomes.append((solution, report, trade, optimum))
        (sol_a, report_a, trade_a, opt_a), (sol_b, report_b, trade_b, opt_b) = outcomes
        assert sol_a.objective == pytest.approx(sol_b.objective, rel=1e-9, abs=1e-9)
        assert_plans_close(sol_a.plans, sol_b.plans, tol=1e-9)
        np.testing.assert_allclose(sol_a.lambda_, sol_b.lambda_, rtol=0, atol=1e-9)
        assert report_a.so_slack == pytest.approx(report_b.so_slack, rel=1e-9, abs=1e-9)
        assert opt_a == pytest.approx(opt_b, rel=1e-9, abs=1e-9)
        assert_plans_close(dict(trade_a.plans), dict(trade_b.plans), tol=1e-9)
