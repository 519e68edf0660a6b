import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrade.generators import random_interval_sequence, random_market
from gridtrade.market import Market, two_bus_market
from gridtrade.network import Line, Network, build_loading_matrix, curtailment_factor
from gridtrade.participants import Participant, ScenarioSet
from gridtrade.robust import (
    IntervalState,
    IntervalTrade,
    accept_interval_trade,
    bisection_curtailment_factor,
    nodal_interval,
    robust_curtailment_factor,
)

from conftest import fleet_markets


@pytest.fixture(scope="module")
def market():
    network = Network(2, (Line(0, 1, 1.0, 120.0),), reference_bus=1)
    scenarios = ScenarioSet((1.0,))
    gen = Participant.producer("gen", 0, "RT", (200.0,), 10.0)
    gen2 = Participant.producer("gen2", 0, "RT", (200.0,), 30.0)
    dem = Participant.load("dem", 1, "RT", (200.0,), 300.0)
    return Market(network, scenarios, (gen, gen2, dem))


@pytest.fixture(scope="module")
def lm(market):
    return build_loading_matrix(market.network)


class TestNodalInterval:
    def test_single_participant(self, market):
        lo, hi = nodal_interval(IntervalTrade({"gen": 80.0}, {"gen": 100.0}), market)
        np.testing.assert_allclose(lo, [80.0, 0.0])
        np.testing.assert_allclose(hi, [100.0, 0.0])

    def test_same_bus_intervals_add(self, market):
        trade = IntervalTrade({"gen": 0.0, "gen2": -5.0}, {"gen": 10.0, "gen2": 5.0})
        lo, hi = nodal_interval(trade, market)
        np.testing.assert_allclose(lo, [-5.0, 0.0])
        np.testing.assert_allclose(hi, [15.0, 0.0])

    def test_point_interval_reduces_to_plain_injection(self, market):
        trade = IntervalTrade({"gen": 70.0, "dem": -70.0}, {"gen": 70.0, "dem": -70.0})
        lo, hi = nodal_interval(trade, market)
        np.testing.assert_allclose(lo, hi)
        np.testing.assert_allclose(lo, [70.0, -70.0])

    def test_matches_the_per_member_loop_bit_for_bit(self):
        rng = np.random.default_rng(23)
        shared = 0
        for market in fleet_markets()[:20]:
            ids, bus = market.participant_ids, {p.id: p.bus for p in market.participants}
            for _ in range(5):
                members = [ids[i] for i in rng.choice(len(ids), size=int(rng.integers(1, len(ids) + 1)), replace=False)]
                centre, width = rng.normal(0.0, 30.0, len(members)), rng.uniform(0.0, 10.0, len(members))
                trade = IntervalTrade(dict(zip(members, centre - width)), dict(zip(members, centre + width)))
                expected = np.zeros((2, market.network.bus_count))
                for pid in trade.participant_ids:
                    expected[:, bus[pid]] += (trade.lower[pid], trade.upper[pid])
                lo, hi = nodal_interval(trade, market)
                assert (lo.tobytes(), hi.tobytes()) == (expected[0].tobytes(), expected[1].tobytes())
                shared += len({bus[pid] for pid in members}) < len(members)
        assert shared > 20

    def test_unknown_participant_rejected(self, market):
        with pytest.raises(KeyError, match="unknown participant id 'nobody'"):
            nodal_interval(IntervalTrade({"nobody": 0.0}, {"nobody": 1.0}), market)

    @pytest.mark.parametrize("lower, upper", [
        (np.nan, np.nan), (0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (np.inf, np.inf),
    ])
    def test_bounds_must_be_finite(self, lower, upper):
        # A NaN bound passes the order check, so it would reach the state box.
        with pytest.raises(ValueError, match="G2: bounds must be finite"):
            IntervalTrade({"G2": lower, "L": -10.0}, {"G2": upper, "L": -5.0})

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="lower"):
            IntervalTrade({"gen": 10.0}, {"gen": 5.0})


class TestRobustCurtailmentFactor:
    def test_worst_case_within_limits_passes_whole(self, market, lm):
        state = IntervalState.initial(2)
        trade = IntervalTrade({"gen": 80.0, "dem": -100.0}, {"gen": 100.0, "dem": -80.0})
        q_lo, q_hi = nodal_interval(trade, market)
        assert robust_curtailment_factor(lm, state, q_lo, q_hi) == 1.0

    def test_ratio_against_remaining_headroom(self, market, lm):
        state = IntervalState(np.array([40.0, -60.0]), np.array([60.0, -40.0]))
        trade = IntervalTrade({"gen": 80.0, "dem": -100.0}, {"gen": 100.0, "dem": -80.0})
        q_lo, q_hi = nodal_interval(trade, market)
        # Worst accumulated flow 60, worst increment 100, limit 120.
        assert robust_curtailment_factor(lm, state, q_lo, q_hi) == pytest.approx(0.6)

    def test_point_intervals_match_deterministic_factor(self, market, lm):
        state = IntervalState(np.array([30.0, -30.0]), np.array([30.0, -30.0]))
        q = np.array([120.0, -120.0])
        robust_gamma = robust_curtailment_factor(lm, state, q, q)
        plain_gamma = curtailment_factor(lm, np.array([[30.0, -30.0]]), q[None, :])
        assert robust_gamma == pytest.approx(plain_gamma)

    def test_bisection_agrees_with_closed_form(self, market, lm):
        rng = np.random.default_rng(99)
        for _ in range(200):
            center = rng.uniform(-40.0, 40.0)
            width = rng.uniform(0.0, 30.0)
            state = IntervalState(
                np.array([center - width, -center - width]),
                np.array([center + width, -center + width]),
            )
            q_lo = np.array([rng.uniform(0.0, 80.0), rng.uniform(-80.0, 0.0)])
            q_hi = q_lo + rng.uniform(0.0, 40.0, size=2)
            closed = robust_curtailment_factor(lm, state, q_lo, q_hi)
            iterated = bisection_curtailment_factor(lm, state, q_lo, q_hi)
            assert closed == pytest.approx(iterated, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.floats(-30.0, 30.0),
        width=st.floats(0.0, 20.0),
        widen=st.floats(0.0, 25.0),
    )
    def test_widening_never_raises_gamma(self, market, lm, lo, width, widen):
        state = IntervalState.initial(2)
        base = robust_curtailment_factor(
            lm, state, np.array([lo, -lo - width]), np.array([lo + width, -lo])
        )
        wider = robust_curtailment_factor(
            lm, state, np.array([lo - widen, -lo - width - widen]),
            np.array([lo + width + widen, -lo + widen]),
        )
        assert wider <= base + 1e-12


class TestAcceptIntervalTrade:
    def test_golden_sequence(self, market, lm):
        state = IntervalState.initial(2)
        trade = IntervalTrade({"gen": 80.0, "dem": -100.0}, {"gen": 100.0, "dem": -80.0})
        gamma, state = accept_interval_trade(state, trade, lm, market)
        assert gamma == 1.0
        np.testing.assert_allclose(state.x_lower, [80.0, -100.0])
        np.testing.assert_allclose(state.x_upper, [100.0, -80.0])
        # A second identical trade only fits one fifth: headroom 20 over 100.
        gamma, state = accept_interval_trade(state, trade, lm, market)
        assert gamma == pytest.approx(0.2)
        np.testing.assert_allclose(state.x_upper[0], 120.0)

    def test_states_and_records_compare_by_identity(self, market, lm):
        # Arrays inside: == is identity and hash works, as for trading records.
        trade = IntervalTrade({"gen": 80.0, "dem": -100.0}, {"gen": 100.0, "dem": -80.0})
        first, second = (accept_interval_trade(IntervalState.initial(2), trade, lm, market)[1] for _ in range(2))
        for a, b in [(first, second), (first.records[0], second.records[0])]:
            assert a == a and a != b
            assert hash(a) == hash(a)

    def test_zero_width_zero_trade_accepted_whole(self, market, lm):
        state = IntervalState.initial(2)
        gamma, new_state = accept_interval_trade(
            state, IntervalTrade({"gen": 0.0}, {"gen": 0.0}), lm, market
        )
        assert gamma == 1.0
        np.testing.assert_array_equal(new_state.x_lower, state.x_lower)

    def test_rejection_when_no_headroom(self, market, lm):
        state = IntervalState(np.array([100.0, -120.0]), np.array([120.0, -100.0]))
        trade = IntervalTrade({"gen": 5.0, "dem": -5.0}, {"gen": 10.0, "dem": -5.0})
        gamma, new_state = accept_interval_trade(state, trade, lm, market)
        assert gamma == 0.0
        assert not new_state.records[-1].accepted
        np.testing.assert_array_equal(new_state.x_upper, state.x_upper)

    def test_bounds_recomputed_from_records_match(self, market, lm):
        rng = np.random.default_rng(5)
        state = IntervalState.initial(2)
        for trade in random_interval_sequence(rng, market, n_trades=4):
            _, state = accept_interval_trade(state, trade, lm, market)
        lo = np.zeros(2)
        hi = np.zeros(2)
        for record in state.records:
            if record.accepted:
                lo = lo + record.gamma * record.q_lower
                hi = hi + record.gamma * record.q_upper
        np.testing.assert_array_equal(lo, state.x_lower)
        np.testing.assert_array_equal(hi, state.x_upper)

    def test_per_scenario_limits_rejected(self):
        # The box state has no scenario index, so 10 MW scenario ratings
        # cannot be honoured; a silent check against the base 120 MW rating
        # would accept this trade whole.
        two_bus = two_bus_market()
        lm = build_loading_matrix(two_bus.network).with_scenario_capacities(np.full((2, 1), 10.0))
        trade = IntervalTrade({"G2": 80.0, "L": -100.0}, {"G2": 100.0, "L": -80.0})
        state = IntervalState.initial(2)
        with pytest.raises(ValueError, match="per-scenario"):
            robust_curtailment_factor(lm, state, *nodal_interval(trade, two_bus))
        with pytest.raises(ValueError, match="per-scenario"):
            accept_interval_trade(state, trade, lm, two_bus)


def corner_states(records, bus_count):
    """Brute-force all box corners of the accepted, curtailed trades."""
    spans = []
    for record in records:
        if not record.accepted:
            continue
        lo = record.gamma * record.q_lower
        hi = record.gamma * record.q_upper
        wide = [n for n in range(bus_count) if hi[n] - lo[n] > 0]
        spans.append((lo, hi, wide))
    choices = [list(itertools.product((0, 1), repeat=len(w))) for _, _, w in spans]
    for combo in itertools.product(*choices):
        x = np.zeros(bus_count)
        for (lo, hi, wide), bits in zip(spans, combo):
            realised = lo.copy()
            for n, bit in zip(wide, bits):
                if bit:
                    realised[n] = hi[n]
            x += realised
        yield x


class TestCornerSoundness:
    def test_every_corner_realisation_is_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            market = random_market(rng, max_buses=4, max_scenarios=1, max_participants=5)
            lm = build_loading_matrix(market.network)
            state = IntervalState.initial(market.network.bus_count)
            for trade in random_interval_sequence(rng, market, n_trades=3):
                _, state = accept_interval_trade(state, trade, lm, market)
            for x in corner_states(state.records, market.network.bus_count):
                assert np.all(lm.rows @ x <= lm.limits + 1e-8)


OVERLOADED = IntervalState(np.array([100.0, -200.0]), np.array([200.0, -100.0]))
INPUT_ERRORS = [
    (lambda: robust_curtailment_factor(build_loading_matrix(two_bus_market().network), OVERLOADED,
                                       np.zeros(2), np.zeros(2)),
     ValueError, "accumulated state is not robustly feasible"),
    (lambda: IntervalTrade(lower={"A": 0.0}, upper={"B": 1.0}), ValueError,
     "lower and upper must cover the same participants"),
    (lambda: IntervalState(np.zeros(2), np.zeros(3)), ValueError, "bounds must be equal-length vectors"),
    (lambda: IntervalState(np.ones(2), np.zeros(2)), ValueError, "lower state bound exceeds upper state bound"),
]


@pytest.mark.parametrize("call,error,message", INPUT_ERRORS, ids=[m for *_, m in INPUT_ERRORS])
def test_documented_input_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
