import math

import numpy as np
import pytest

from gridtrade import trading, two_bus_market
from gridtrade.dispatch import solve_dispatch
from gridtrade.market import Market
from gridtrade.market_io import write_trace
from gridtrade.network import BALANCE_TOL, Line, Network, ViolationReport, build_loading_matrix, check_feasible
from gridtrade.participants import LOCAL_TOL, Participant, ScenarioSet, UtilityFunction
from gridtrade.proposer import ProposerStrategy, make_proposer
from gridtrade.trading import (
    Certificate,
    EngineConfig,
    InfeasibleStateError,
    Trade,
    TradingState,
    announce,
    is_worthy,
    run_trading,
    so_step,
    validate_trade,
)

from conftest import assert_plans_close, fleet_markets, medium_full_markets, state_at


@pytest.fixture(scope="module")
def market():
    return two_bus_market()


@pytest.fixture(scope="module")
def lm(market):
    return build_loading_matrix(market.network)


@pytest.fixture
def config():
    return EngineConfig(epsilon=1e-3)


def table_one_trade(golden_plans):
    return Trade(golden_plans["initial"])


class ScriptedProposer:
    """Submits the given trades in order, then certifies."""

    def __init__(self, *trades):
        self.trades = list(trades)

    def propose(self, market, state, announcements, epsilon, rng):
        return self.trades.pop(0) if self.trades else Certificate(0.0)


# Plans of the wrong length for the two-scenario market, and the operator's reasons.
WRONG_LENGTH = [
    ({"G2": [5.0], "L": [-5.0]},
     ("shape: G2 plan has 1 entries, expected 2", "shape: L plan has 1 entries, expected 2")),
    ({"G2": [5.0] * 3, "G3": [-5.0] * 3},
     ("shape: G2 plan has 3 entries, expected 2", "shape: G3 plan has 3 entries, expected 2")),
]


def per_plan_nodal(market, plans):
    """The reference: each plan added at its participant's bus, one plan at a time, in order."""
    bus = {p.id: p.bus for p in market.participants}
    x = np.zeros((market.scenario_count, market.network.bus_count))
    for pid, plan in plans.items():
        x[:, bus[pid]] += plan
    return x


class TestNodalInjection:
    def test_matches_the_per_plan_loop_bit_for_bit(self):
        # Fleet dispatch plans, and random trades whose members come in
        # random order and often share a bus.
        rng = np.random.default_rng(17)
        shared = 0
        for market in fleet_markets():
            ids = market.participant_ids
            plans = [solve_dispatch(market).plans]
            for _ in range(4):
                members = rng.choice(len(ids), size=int(rng.integers(1, len(ids) + 1)), replace=False)
                plans.append({ids[i]: rng.normal(0.0, 50.0, market.scenario_count) for i in members})
                shared += len({market.participants[i].bus for i in members}) < members.size
            for plan in plans:
                assert market.aggregate_nodal(plan).tobytes() == per_plan_nodal(market, plan).tobytes()
        assert shared > 50

    def test_two_bus_initial_trade(self, market, golden_plans):
        q = market.aggregate_nodal(table_one_trade(golden_plans).plans)
        np.testing.assert_allclose(q, [[150.0, -150.0], [100.0, -100.0]], atol=1e-12)

    def test_same_bus_trade_cancels(self, market):
        trade = Trade({"G1": np.array([10.0, 10.0]), "G2": np.array([-10.0, -10.0])})
        np.testing.assert_allclose(market.aggregate_nodal(trade.plans), 0.0, atol=0)

    def test_empty_trade_is_zero(self, market):
        np.testing.assert_allclose(market.aggregate_nodal(Trade({}).plans), 0.0, atol=0)

    def test_unknown_participant_rejected(self, market):
        with pytest.raises(KeyError, match="G9"):
            market.aggregate_nodal(Trade({"G9": np.array([1.0, -1.0])}).plans)

    def test_non_finite_plan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Trade({"G1": np.array([np.nan, 1.0])})


class TestValidateTrade:
    def test_initial_trade_ok_at_zero_state(self, market, golden_plans):
        state = TradingState.initial(market)
        assert validate_trade(table_one_trade(golden_plans), state, market) == []

    def test_unbalanced_scenario_flagged(self, market):
        state = TradingState.initial(market)
        trade = Trade({"G1": np.array([10.0, 10.0]), "L": np.array([0.0, -10.0])})
        problems = validate_trade(trade, state, market)
        assert any("balance: scenario 0" in p for p in problems)

    def test_da_nonanticipation_flagged(self, market):
        state = TradingState.initial(market)
        trade = Trade({"G1": np.array([10.0, 5.0]), "G3": np.array([-10.0, -5.0])})
        problems = validate_trade(trade, state, market)
        assert any("non-anticipation" in p for p in problems)

    def test_bounds_violation_flagged(self, market):
        state = TradingState.initial(market)
        trade = Trade({"G2": np.array([120.0, 0.0]), "L": np.array([-120.0, 0.0])})
        problems = validate_trade(trade, state, market)
        assert any("bounds" in p for p in problems)

    def test_zero_trade_is_degenerate(self, market):
        state = TradingState.initial(market)
        assert validate_trade(Trade({"G1": np.zeros(2)}), state, market)

    def test_balance_messages_match_the_per_plan_loop(self):
        # Ten-member trades balanced up to noise near the tolerance, in one
        # scenario, where numpy's pairwise sum over members would differ
        # from the loop: flagged scenarios and their sums are the loop's.
        market = Market(
            Network(2, (Line(0, 1, 1.0, 100.0),)), ScenarioSet((1.0,)),
            tuple(Participant.producer(f"G{k}", k % 2, "RT", (100.0,), 10.0) for k in range(10)),
        )
        rng = np.random.default_rng(3)
        state = TradingState.initial(market)
        flagged = 0
        for _ in range(300):
            d = rng.uniform(-50.0, 50.0, (10, 1))
            d[-1] = rng.normal(0.0, 1e-9) - d[:-1].sum()
            trade = Trade(dict(zip(market.participant_ids, d)))
            sums = np.zeros(1)
            for plan in trade.plans.values():
                sums += plan
            want = [f"balance: scenario {s} sums to {r:.3e}" for s, r in enumerate(sums) if abs(r) > BALANCE_TOL]
            assert [p for p in validate_trade(trade, state, market) if p.startswith("balance")] == want
            flagged += bool(want)
        assert 0 < flagged < 300


class TestIsWorthy:
    def test_cost_saving_swap(self, market):
        # Shift 10 MW in both scenarios from the expensive unit to the cheap
        # one: saves (0.6 + 0.4) * 80 * 10 - 50 * 10 = 300.
        state = TradingState.initial(market)
        base = {"G1": np.array([10.0, 10.0]), "G3": np.array([40.0, 40.0]),
                "L": np.array([-50.0, -50.0])}
        state = state_at(market, {**state.y, **base}, market.aggregate_nodal(base))
        trade = Trade({"G1": np.array([10.0, 10.0]), "G3": np.array([-10.0, -10.0])})
        worthy, delta = is_worthy(trade, state, 300.0, market)
        assert worthy and delta == pytest.approx(300.0)

    def test_zero_trade_unworthy(self, market):
        state = TradingState.initial(market)
        worthy, delta = is_worthy(Trade({}), state, 1e-9, market)
        assert not worthy and delta == 0.0

    def test_reverse_swap_destroys_value(self, market):
        state = TradingState.initial(market)
        base = {"G1": np.array([10.0, 10.0]), "G3": np.array([40.0, 40.0]),
                "L": np.array([-50.0, -50.0])}
        state = state_at(market, {**state.y, **base}, market.aggregate_nodal(base))
        trade = Trade({"G1": np.array([-10.0, -10.0]), "G3": np.array([10.0, 10.0])})
        worthy, delta = is_worthy(trade, state, 0.0, market)
        assert not worthy and delta == pytest.approx(-300.0)


class TestSoStep:
    def test_initial_trade_curtailed_to_golden_state(self, market, lm, config, golden_plans):
        state = TradingState.initial(market)
        record, new_state = so_step(state, table_one_trade(golden_plans), config, lm, market)
        assert record.accepted and record.gamma == pytest.approx(0.8, abs=1e-12)
        assert_plans_close(new_state.y, golden_plans["curtailed"])
        np.testing.assert_allclose(new_state.x, [[120.0, -120.0], [80.0, -80.0]], atol=1e-9)

    def test_second_trade_reaches_final_state(self, market, lm, config, golden_plans):
        state = TradingState.initial(market)
        _, state = so_step(state, table_one_trade(golden_plans), config, lm, market)
        delta = {
            pid: golden_plans["final"][pid] - golden_plans["curtailed"][pid]
            for pid in golden_plans["final"]
        }
        record, state = so_step(state, Trade(delta), config, lm, market)
        assert record.accepted and record.gamma == 1.0
        assert_plans_close(state.y, golden_plans["final"])

    def test_wrong_direction_trade_rejected(self, market, lm, config, golden_plans):
        state = TradingState.initial(market)
        _, state = so_step(state, table_one_trade(golden_plans), config, lm, market)
        before = {pid: v.copy() for pid, v in state.y.items()}
        # Pushes more flow over the already binding line in the windy scenario.
        bad = Trade({"G2": np.array([0.0, 5.0]), "G3": np.array([0.0, -5.0]),
                     "G1": np.array([2.0, 2.0]), "L": np.array([-2.0, -2.0])})
        record, after = so_step(state, bad, config, lm, market)
        assert not record.accepted and record.gamma == 0.0
        assert any("direction" in r for r in record.reasons)
        for pid, v in before.items():
            np.testing.assert_array_equal(after.y[pid], v)

    def test_invalid_trade_rejected_with_reasons(self, market, lm, config):
        state = TradingState.initial(market)
        record, _ = so_step(state, Trade({"G1": np.array([5.0, 5.0])}), config, lm, market)
        assert not record.accepted and record.reasons

    def test_trade_below_epsilon_rejected(self, market, lm, config):
        # Balanced and locally feasible, but worth 1000 $/MW * 1e-7 MW = 1e-4 $ < epsilon.
        state = TradingState.initial(market)
        tiny = Trade({"G2": np.array([1e-7, 1e-7]), "L": np.array([-1e-7, -1e-7])})
        assert validate_trade(tiny, state, market) == []
        assert is_worthy(tiny, state, 0.0, market)[1] == pytest.approx(1e-4)
        record, after = so_step(state, tiny, config, lm, market)
        assert not record.accepted and record.gamma == 0.0
        assert record.reasons == ("not epsilon-worthy",)
        for pid, v in state.y.items():
            np.testing.assert_array_equal(after.y[pid], v)
        np.testing.assert_array_equal(after.x, state.x)
        assert after.records == (record,)

    @pytest.mark.parametrize("plans,reasons", WRONG_LENGTH)
    def test_wrong_length_plan_rejected(self, market, lm, config, plans, reasons):
        state = TradingState.initial(market)
        record, after = so_step(state, Trade(plans), config, lm, market)
        assert not record.accepted and record.reasons == reasons
        np.testing.assert_array_equal(record.nodal, np.zeros_like(state.x))
        np.testing.assert_array_equal(after.x, state.x)
        assert after.records == (record,)


def normalize(plans, market):
    """``trading._normalize`` on the ``(G, S)`` stack of ``plans``, rows in id order; returned by id."""
    ids = sorted(plans)
    day_ahead = market.table.day_ahead[[market.table.index[pid] for pid in ids]]
    return dict(zip(ids, trading._normalize(np.array([plans[pid] for pid in ids]), day_ahead)))


class TestStatePlans:
    def test_plans_and_id_view_are_read_only_and_in_roster_order(self, market, lm, config, golden_plans):
        _, state = so_step(TradingState.initial(market), table_one_trade(golden_plans), config, lm, market)
        assert state.plans.shape == (4, 2) and not state.plans.flags.writeable
        view = state.y
        assert list(view) == list(market.participant_ids) == ["G1", "G2", "G3", "L"]
        for row, plan in zip(state.plans, view.values()):
            assert plan.tobytes() == row.tobytes() and not plan.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view["G1"][0] = 0.0
        assert not TradingState.initial(market).plans.flags.writeable

    def test_accepted_step_leaves_the_previous_state_unchanged(self, market, lm, config, golden_plans):
        _, state = so_step(TradingState.initial(market), table_one_trade(golden_plans), config, lm, market)
        plans, x = state.plans.tobytes(), state.x.tobytes()
        delta = {pid: golden_plans["final"][pid] - golden_plans["curtailed"][pid] for pid in golden_plans["final"]}
        record, after = so_step(state, Trade(delta), config, lm, market)
        assert record.accepted and after.plans is not state.plans and after.x is not state.x
        assert state.plans.tobytes() == plans and state.x.tobytes() == x
        assert after.ids is state.ids

    def test_rejected_step_keeps_the_same_plans(self, market, lm, config):
        state = TradingState.initial(market)
        record, after = so_step(state, Trade({"G1": np.array([5.0, 5.0])}), config, lm, market)
        assert not record.accepted
        assert after.plans is state.plans and after.x is state.x


class TestEngineConfig:
    @pytest.mark.parametrize("field", ["max_steps", "seed"])
    @pytest.mark.parametrize("value", [2.5, 1.0, True, None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_bool_epsilon_rejected(self, value):
        with pytest.raises(ValueError, match="epsilon must be a number"):
            EngineConfig(epsilon=value)

    def test_numpy_integers_accepted(self):
        config = EngineConfig(epsilon=1, max_steps=np.int64(3), seed=np.int32(2))
        assert (config.max_steps, config.seed) == (3, 2)


class TestNormalize:
    def test_day_ahead_spread_snaps_to_its_exact_mean(self, market):
        spread = np.array([10.0, 10.0 + 2e-12])
        out = normalize({"G1": spread, "G2": np.array([5.0, 5.0]), "L": np.array([-15.0, -15.0])}, market)["G1"]
        np.testing.assert_array_equal(out, np.full(2, math.fsum(spread) / 2))

    def test_residual_lands_on_largest_real_time_member_per_scenario(self, market):
        plans = {"G2": np.array([5.0, 1.0]), "G3": np.array([1.0, 5.0]),
                 "L": np.full(2, -6.000000001)}
        out = normalize(plans, market)
        residual = [math.fsum(plan[s] for plan in plans.values()) for s in range(2)]
        assert residual[0] != 0.0 and residual[1] != 0.0
        np.testing.assert_array_equal(out["G2"], [5.0 - residual[0], 1.0])
        np.testing.assert_array_equal(out["G3"], [1.0, 5.0 - residual[1]])
        np.testing.assert_array_equal(out["L"], plans["L"])

    def test_equal_plans_send_the_residual_to_the_later_id(self, market):
        plans = {"G3": np.full(2, 5.0), "G2": np.full(2, 5.0), "L": np.full(2, -10.000000001)}
        out = normalize(plans, market)
        residual = [math.fsum(plan[s] for plan in plans.values()) for s in range(2)]
        np.testing.assert_array_equal(out["G2"], plans["G2"])
        np.testing.assert_array_equal(out["G3"], plans["G3"] - residual)

    def test_all_day_ahead_residual_lands_on_largest_member_and_stays_constant(self, market):
        plans = {"G1": np.full(2, 7.0), "L": np.full(2, -6.9999999999)}
        out = normalize(plans, market)
        residual = math.fsum([7.0, -6.9999999999])
        assert residual != 0.0
        np.testing.assert_array_equal(out["G1"], np.full(2, 7.0 - residual))
        np.testing.assert_array_equal(out["L"], plans["L"])


class TestWelfareDeltas:
    @pytest.mark.parametrize("markets", [fleet_markets, medium_full_markets], ids=["fleet", "medium_full"])
    def test_accepted_deltas_sum_to_final_welfare(self, markets):
        # Every utility is zero at the initial state, so the accepted steps' deltas telescope.
        for market in markets():
            lm = build_loading_matrix(market.network)
            result = run_trading(market, EngineConfig(epsilon=1e-3), make_proposer(ProposerStrategy(), lm), lm)
            total = math.fsum(r.welfare_delta for r in result.state.records if r.accepted)
            assert abs(total - result.final_welfare) <= 1e-12 * (1.0 + abs(result.final_welfare))


class TestLocalFeasibility:
    RUNS = {
        "fleet": (fleet_markets, EngineConfig(epsilon=1e-3), ProposerStrategy()),
        "fleet_hybrid_random": (
            fleet_markets, EngineConfig(epsilon=1e-3, curtailment_mode="hybrid"),
            ProposerStrategy("random_subsets", max_size=3, attempts=6, seed=3),
        ),
        "medium_full": (medium_full_markets, EngineConfig(epsilon=1e-3), ProposerStrategy()),
    }

    @pytest.mark.parametrize("runs", RUNS)
    def test_every_accepted_state_is_locally_feasible(self, monkeypatch, runs):
        # Each accepted state's plans lie within their bounds and each day-ahead plan is flat, to LOCAL_TOL.
        markets, config, strategy = self.RUNS[runs]
        step, overshoots = trading.so_step, []

        def recorded(state, trade, config, lm, market):
            record, after = step(state, trade, config, lm, market)
            if record.accepted:
                table = market.table
                spread = np.ptp(after.plans, axis=1)[table.day_ahead]
                overshoots.append(max(
                    float(np.max(table.lower - after.plans)), float(np.max(after.plans - table.upper)),
                    float(np.max(spread, initial=0.0)),
                ))
            return record, after

        monkeypatch.setattr(trading, "so_step", recorded)
        for market in markets():
            assert run_trading(market, config, make_proposer(strategy)).converged
        assert overshoots and max(overshoots) <= LOCAL_TOL


class TestAnnounce:
    def test_zero_state_announces_nothing(self, market, lm):
        state = TradingState.initial(market)
        np.testing.assert_array_equal(announce(state.x, lm), [[False, False], [False, False]])

    def test_curtailed_state_announces_windy_forward_row(self, market, lm, config, golden_plans):
        state = TradingState.initial(market)
        _, state = so_step(state, table_one_trade(golden_plans), config, lm, market)
        # Breezy flow is 80 < 120, so only the windy scenario binds.
        np.testing.assert_array_equal(announce(state.x, lm), [[True, False], [False, False]])

    def test_final_state_announcement_unchanged(self, market, lm, config, golden_plans):
        state = TradingState.initial(market)
        _, state = so_step(state, table_one_trade(golden_plans), config, lm, market)
        delta = {
            pid: golden_plans["final"][pid] - golden_plans["curtailed"][pid]
            for pid in golden_plans["final"]
        }
        _, state = so_step(state, Trade(delta), config, lm, market)
        np.testing.assert_array_equal(announce(state.x, lm), [[True, False], [False, False]])

    def test_recorded_announcement_is_read_only(self, market, lm, config, golden_plans):
        record, _ = so_step(TradingState.initial(market), table_one_trade(golden_plans), config, lm, market)
        with pytest.raises(ValueError, match="read-only"):
            record.binding_after[0, 1] = True


class TestRunTrading:
    def test_two_bus_golden_run(self, market, config, golden_plans):
        result = run_trading(market, config, make_proposer(ProposerStrategy()))
        assert result.converged and result.certified_bound <= config.epsilon
        assert_plans_close(result.state.y, golden_plans["final"])
        # Expected production cost 5000 behind the fixed consumption value.
        assert result.final_welfare == pytest.approx(145000.0, abs=1e-6)

    def test_runs_compare_by_identity(self, market, config):
        # Results, states, records and trades hold arrays, so == is identity and hash works.
        first, second = (run_trading(market, config, make_proposer(ProposerStrategy())) for _ in range(2))
        for a, b in [
            (first, second),
            (first.state, second.state),
            (first.state.records[0], second.state.records[0]),
            (first.state.records[0].trade, second.state.records[0].trade),
        ]:
            assert a == a and a != b
            assert hash(a) == hash(a)

    def test_single_bus_pair_converges_in_one_trade(self):
        network = Network(1, (), reference_bus=0)
        scenarios = ScenarioSet((1.0,))
        producer = Participant.producer("gen", 0, "RT", (100.0,), 20.0)
        consumer = Participant.load("dem", 0, "RT", (60.0,), 90.0)
        market = Market(network, scenarios, (producer, consumer))
        result = run_trading(market, EngineConfig(epsilon=1e-6), make_proposer(ProposerStrategy()))
        accepted = [r for r in result.state.records if r.accepted]
        assert result.converged and len(accepted) == 1
        assert result.state.y["gen"][0] == pytest.approx(60.0)
        assert result.final_welfare == pytest.approx((90.0 - 20.0) * 60.0)

    def test_welfare_monotone_and_states_consistent(self, market, config):
        result = run_trading(market, config, make_proposer(ProposerStrategy()))
        lm = build_loading_matrix(market.network)
        y = {pid: np.zeros(market.scenario_count) for pid in market.participant_ids}
        welfare = market.total_utility(y)
        for record in result.state.records:
            if not record.accepted:
                continue
            assert record.welfare_delta > 0.0
            for pid, plan in record.trade.plans.items():
                y[pid] = y[pid] + record.gamma * plan
            welfare_next = market.total_utility(y)
            assert welfare_next > welfare
            welfare = welfare_next
            x = market.aggregate_nodal(y)
            assert check_feasible(lm, x).ok
        np.testing.assert_allclose(market.aggregate_nodal(dict(result.state.y)),
                                   result.state.x, atol=1e-9)

    def test_replay_determinism(self, market, config, tmp_path):
        traces = []
        for run in range(2):
            result = run_trading(market, config, make_proposer(ProposerStrategy()))
            path = tmp_path / f"trace{run}.jsonl"
            with open(path, "w") as fp:
                write_trace(result.state.records, fp)
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]

    def test_huge_epsilon_certifies_immediately(self, market):
        result = run_trading(market, EngineConfig(epsilon=1e9), make_proposer(ProposerStrategy()))
        assert result.converged and result.steps == 0
        assert not result.state.records

    def test_max_steps_flags_non_convergence(self, market):
        result = run_trading(market, EngineConfig(epsilon=1e-3, max_steps=1), make_proposer(ProposerStrategy()))
        assert not result.converged and result.steps == 1

    def test_invalid_proposals_recorded_as_rejections(self, market, config):
        out_of_bounds = Trade({"G2": np.array([150.0, 0.0]), "L": np.array([-150.0, 0.0])})
        unbalanced = Trade({"G1": np.array([5.0, 5.0])})
        result = run_trading(market, config, ScriptedProposer(out_of_bounds, unbalanced))
        assert result.converged and result.steps == 2
        first, second = result.state.records
        assert not first.accepted
        assert first.reasons == ("local: G2 violates bounds", "local: L violates non-anticipation")
        assert not second.accepted and second.reasons[0].startswith("balance:")
        assert all(not np.any(plan) for plan in result.state.y.values())

    @pytest.mark.parametrize("plans,reasons", WRONG_LENGTH)
    def test_wrong_length_proposal_recorded_as_rejection(self, market, config, plans, reasons):
        result = run_trading(market, config, ScriptedProposer(Trade(plans)))
        assert result.converged and result.steps == 1
        (record,) = result.state.records
        assert not record.accepted and record.reasons == reasons
        assert all(not np.any(plan) for plan in result.state.y.values())

    def test_unknown_id_raises_before_the_shape_check(self, market):
        # G9's plan also has the wrong length; the unknown id is reported first.
        trade = Trade({"G9": np.array([1.0]), "L": np.array([-1.0, -1.0])})
        with pytest.raises(KeyError, match="unknown participant id 'G9'"):
            validate_trade(trade, TradingState.initial(market), market)

    def test_unknown_participant_raises(self, market, config):
        trade = Trade({"G9": np.array([1.0, 1.0]), "L": np.array([-1.0, -1.0])})
        with pytest.raises(KeyError, match="G9"):
            run_trading(market, config, ScriptedProposer(trade))

    def test_infeasible_post_step_state_raises(self, market, config, monkeypatch):
        overloaded = ViolationReport(((0, 0, 1.0),), (0.0, 0.0))
        monkeypatch.setattr(trading, "check_feasible", lambda lm, x: overloaded)
        with pytest.raises(InfeasibleStateError, match="post-step state infeasible"):
            run_trading(market, config, make_proposer(ProposerStrategy()))

    def test_accepted_overload_raises_before_announcing(self, config, monkeypatch):
        # A ratio test that passes a 50 MW trade in full over a 10 MW line.
        market = two_bus_market(line_capacity=10.0)
        lm = build_loading_matrix(market.network)
        monkeypatch.setattr(trading, "curtailment_factor", lambda lm, x, q: 1.0)
        trade = Trade({"G2": np.array([50.0, 50.0]), "L": np.array([-50.0, -50.0])})
        with pytest.raises(InfeasibleStateError, match="post-step state infeasible"):
            so_step(TradingState.initial(market), trade, config, lm, market)
        with pytest.raises(InfeasibleStateError, match="post-step state infeasible"):
            run_trading(market, config, ScriptedProposer(trade), lm)

    @pytest.mark.parametrize("proposal,name", [(None, "NoneType"), ({"G2": [5.0, 5.0]}, "dict")])
    def test_proposal_neither_trade_nor_certificate_raises(self, market, config, proposal, name):
        with pytest.raises(TypeError, match=f"propose must return a Trade or a Certificate, got {name}$"):
            run_trading(market, config, ScriptedProposer(proposal))

    def test_initial_state_requires_zero_feasible(self):
        network = Network(1, (), reference_bus=0)
        fixed = Participant(
            "fix", 0, "load", "RT", ((-50.0, -50.0),),
            (UtilityFunction((-50.0, 0.0), (-100.0,)),),
        )
        producer = Participant.producer("gen", 0, "RT", (100.0,), 20.0)
        market = Market(network, ScenarioSet((1.0,)), (fixed, producer))
        with pytest.raises(ValueError, match="zero injection"):
            TradingState.initial(market)


@pytest.fixture(scope="module")
def rt_market():
    # Two RT participants per bus over two scenarios, one line of 50 MW.
    network = Network(2, (Line(0, 1, 1.0, 50.0),), reference_bus=1)
    scenarios = ScenarioSet((0.5, 0.5))
    gen = Participant.producer("gen", 0, "RT", (100.0, 100.0), 10.0)
    dem = Participant.load("dem", 1, "RT", (100.0, 100.0), 200.0)
    return Market(network, scenarios, (gen, dem))


class TestHybridCurtailment:
    def test_per_scenario_factors_without_da_members(self, rt_market):
        lm = build_loading_matrix(rt_market.network)
        config = EngineConfig(epsilon=1e-6, curtailment_mode="hybrid")
        state = TradingState.initial(rt_market)
        trade = Trade({"gen": np.array([100.0, 40.0]), "dem": np.array([-100.0, -40.0])})
        record, state = so_step(state, trade, config, lm, rt_market)
        assert record.accepted
        assert record.gamma_by_scenario == (pytest.approx(0.5), 1.0)
        np.testing.assert_allclose(state.y["gen"], [50.0, 40.0], atol=1e-9)

    def test_uniform_factor_when_da_member_present(self, market, lm, golden_plans):
        config = EngineConfig(epsilon=1e-3, curtailment_mode="hybrid")
        state = TradingState.initial(market)
        record, state = so_step(state, Trade(golden_plans["initial"]), config, lm, market)
        # G1 and the load commit ahead of time, so scaling stays uniform.
        assert record.gamma_by_scenario is None
        assert record.gamma == pytest.approx(0.8)
        assert_plans_close(state.y, golden_plans["curtailed"])

    def test_hybrid_run_stays_feasible_and_converges(self, rt_market):
        config = EngineConfig(epsilon=1e-6, curtailment_mode="hybrid")
        result = run_trading(rt_market, config, make_proposer(ProposerStrategy()))
        assert result.converged
        lm = build_loading_matrix(rt_market.network)
        assert check_feasible(lm, result.state.x).ok
        assert result.state.y["gen"][0] == pytest.approx(50.0)


class TestSubjectiveWorthiness:
    def test_subjective_delta_decides_but_market_delta_recorded(self):
        network = Network(1, (), reference_bus=0)
        scenarios = ScenarioSet((0.5, 0.5))
        # The optimist believes scenario 0 (where their cost is low) dominates.
        optimist = Participant(
            "opt", 0, "producer", "RT",
            ((0.0, 50.0), (0.0, 50.0)),
            (UtilityFunction((0.0, 50.0), (-10.0,)), UtilityFunction((0.0, 50.0), (-100.0,))),
            subjective_probabilities=(0.99, 0.01),
        )
        dem = Participant.load("dem", 0, "RT", (50.0, 50.0), 30.0)
        market = Market(network, scenarios, (optimist, dem))
        state = TradingState.initial(market)
        trade = Trade({"opt": np.array([10.0, 10.0]), "dem": np.array([-10.0, -10.0])})
        worthy, delta = is_worthy(trade, state, 1.0, market)
        # Seller cost believed 0.99*100 + 0.01*1000 = 109; buyer value 300.
        assert worthy and delta == pytest.approx(191.0)
        config = EngineConfig(epsilon=1.0)
        lm = build_loading_matrix(market.network)
        record, _ = so_step(state, trade, config, lm, market)
        market_delta = 0.5 * (-100.0) + 0.5 * (-1000.0) + 300.0
        assert record.welfare_delta == pytest.approx(market_delta)


INPUT_ERRORS = [
    (lambda: Trade({"A": np.zeros((2, 2))}), ValueError, "A: plan must be a per-scenario vector"),
    (lambda: EngineConfig(curtailment_mode="x"), ValueError, "curtailment_mode must be 'uniform' or 'hybrid'"),
]


@pytest.mark.parametrize("call,error,message", INPUT_ERRORS, ids=[m for *_, m in INPUT_ERRORS])
def test_documented_input_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
