import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridtrade.market import Market
from gridtrade.network import Network
from gridtrade.participants import (
    Participant,
    ScenarioSet,
    UtilityFunction,
    evaluate_utility,
    local_feasible,
)

SCENARIOS = ScenarioSet((0.6, 0.4))
MARKET_WEIGHTS = SCENARIOS.as_array()


class TestScenarioSet:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ScenarioSet((0.5, 0.4))

    def test_probabilities_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ScenarioSet((1.2, -0.2))

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ScenarioSet((np.nan, 1.0))

    def test_thirds_are_accepted(self):
        ScenarioSet((1 / 3, 1 / 3, 1 / 3))


class TestUtilityFunction:
    def test_value_anchored_at_zero(self):
        u = UtilityFunction((-10.0, 0.0, 10.0), (5.0, 2.0))
        assert u.value(0.0) == 0.0
        assert u.value(10.0) == pytest.approx(20.0)
        assert u.value(-10.0) == pytest.approx(-50.0)

    def test_increasing_slopes_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            UtilityFunction((0.0, 1.0, 2.0), (1.0, 2.0))

    def test_domain_must_contain_zero(self):
        with pytest.raises(ValueError, match="contain 0"):
            UtilityFunction((5.0, 10.0), (1.0,))

    def test_marginals_at_breakpoint_are_one_sided(self):
        u = UtilityFunction((0.0, 5.0, 10.0), (4.0, 1.0))
        assert u.marginals(5.0) == (4.0, 1.0)
        assert u.marginals(2.5) == (4.0, 4.0)
        assert u.marginals(0.0) == (4.0, 4.0)
        assert u.marginals(10.0) == (1.0, 1.0)


def g1():
    return Participant.producer("G1", 0, "DA", (200.0, 200.0), 50.0)


def g2():
    return Participant.producer("G2", 0, "RT", (100.0, 50.0), 0.0)


def g3():
    return Participant.producer("G3", 1, "RT", (100.0, 100.0), 80.0)


def voll_load(value=1000.0):
    return Participant.load("L", 1, "DA", (150.0, 150.0), value)


class TestEvaluateUtility:
    def test_constant_cost_producer(self):
        assert evaluate_utility(g1(), np.array([50.0, 50.0]), MARKET_WEIGHTS) == pytest.approx(-2500.0)

    def test_zero_plan_is_zero(self):
        for p in (g1(), g2(), g3(), voll_load()):
            assert evaluate_utility(p, np.zeros(2), MARKET_WEIGHTS) == 0.0

    def test_scenario_weighted_cost(self):
        assert evaluate_utility(g3(), np.array([0.0, 50.0]), MARKET_WEIGHTS) == pytest.approx(-1600.0)

    def test_out_of_bounds_plan_rejected(self):
        with pytest.raises(ValueError, match="outside bounds"):
            evaluate_utility(g2(), np.array([150.0, 0.0]), MARKET_WEIGHTS)

    def test_weights_must_cover_every_scenario(self):
        with pytest.raises(ValueError):
            evaluate_utility(g3(), np.array([10.0, 10.0]), np.array([1.0]))

    def test_subjective_probabilities_override(self):
        skeptic = Participant.producer(
            "G", 0, "RT", (100.0, 100.0), 80.0, subjective_probabilities=(0.1, 0.9)
        )
        plan = np.array([10.0, 0.0])
        assert evaluate_utility(skeptic, plan, skeptic.weights(SCENARIOS)) == pytest.approx(-80.0)
        assert evaluate_utility(skeptic, plan, MARKET_WEIGHTS) == pytest.approx(-480.0)


class TestTotalUtility:
    @staticmethod
    def narrow_market():
        # Bounded to [0, 50] MW on a utility domain of [0, 100] MW.
        u = UtilityFunction.constant_marginal(-10.0, 0.0, 100.0)
        p = Participant("G", 0, "producer", "RT", ((0.0, 50.0),), (u,))
        return Market(Network(1, ()), ScenarioSet((1.0,)), (p,))

    def test_within_bounds_both_weightings_agree(self):
        market = self.narrow_market()
        plans = {"G": np.array([40.0])}
        assert market.total_utility(plans) == market.total_utility(plans, subjective=True) == -400.0

    @pytest.mark.parametrize("subjective", [False, True])
    def test_out_of_bounds_plan_rejected(self, subjective):
        with pytest.raises(ValueError, match="outside bounds"):
            self.narrow_market().total_utility({"G": np.array([80.0])}, subjective=subjective)


class TestMarginalUtility:
    def test_interior_constant_cost(self):
        assert g3().utility[0].marginals(30.0) == (-80.0, -80.0)

    def test_free_production(self):
        assert g2().utility[0].marginals(70.0) == (0.0, 0.0)

    def test_single_segment_load_slope(self):
        left, right = voll_load(1000.0).utility[1].marginals(-75.0)
        assert left == right == -1000.0


class TestLocalFeasible:
    def test_da_plan_within_bounds(self):
        assert local_feasible(g1(), np.array([50.0, 50.0]))

    def test_da_plan_must_not_vary(self):
        assert not local_feasible(g1(), np.array([50.0, 40.0]))

    def test_rt_plan_varies_freely(self):
        assert local_feasible(g2(), np.array([100.0, 50.0]))

    def test_bounds_respected_per_scenario(self):
        assert not local_feasible(g2(), np.array([100.0, 60.0]))


class TestParticipantValidation:
    def test_producer_bounds_nonnegative(self):
        with pytest.raises(ValueError, match="producer"):
            Participant(
                "P", 0, "producer", "RT",
                ((-5.0, 10.0),),
                (UtilityFunction((-5.0, 10.0), (1.0,)),),
            )

    def test_load_bounds_nonpositive(self):
        with pytest.raises(ValueError, match="load"):
            Participant(
                "P", 0, "load", "RT",
                ((-5.0, 10.0),),
                (UtilityFunction((-5.0, 10.0), (1.0,)),),
            )

    def test_da_bounds_must_match(self):
        with pytest.raises(ValueError, match="DA bounds"):
            Participant.producer("P", 0, "DA", (10.0, 20.0), 5.0)

    def test_nan_subjective_probability_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Participant(
                "P", 0, "producer", "RT",
                ((0.0, 10.0), (0.0, 10.0)),
                (UtilityFunction((0.0, 10.0), (-1.0,)),) * 2,
                subjective_probabilities=(np.nan, 1.0),
            )

    def test_utility_domain_covers_bounds(self):
        with pytest.raises(ValueError, match="domain"):
            Participant(
                "P", 0, "producer", "RT",
                ((0.0, 50.0),),
                (UtilityFunction((0.0, 10.0), (-1.0,)),),
            )


def _pwl_participant():
    u = UtilityFunction((0.0, 40.0, 80.0, 120.0), (-10.0, -30.0, -90.0))
    return Participant("P", 0, "producer", "RT", ((0.0, 120.0), (0.0, 120.0)), (u, u))


plans = st.tuples(st.floats(0, 120), st.floats(0, 120)).map(np.array)


class TestConcavityProperties:
    @settings(max_examples=50, deadline=None)
    @given(a=plans, b=plans, t=st.floats(0.01, 0.99))
    def test_expected_utility_concave_on_segments(self, a, b, t):
        p = _pwl_participant()
        mix = t * a + (1 - t) * b
        ua = evaluate_utility(p, a, MARKET_WEIGHTS)
        ub = evaluate_utility(p, b, MARKET_WEIGHTS)
        umix = evaluate_utility(p, mix, MARKET_WEIGHTS)
        assert umix >= t * ua + (1 - t) * ub - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(0.5, 119.5))
    def test_marginals_bracket_finite_differences(self, x):
        p = _pwl_participant()
        u = p.utility[0]
        h = 1e-5
        # The bracket presumes the step does not straddle a kink.
        assume(all(not (b - h < x < b) for b in u.breakpoints))
        fd = (u.value(min(x + h, 120.0)) - u.value(x)) / h
        left, right = u.marginals(x)
        assert right - 1e-6 <= fd <= left + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(plan=plans, gamma=st.floats(0, 1))
    def test_uniform_scaling_preserves_local_feasibility(self, plan, gamma):
        p = _pwl_participant()
        if local_feasible(p, plan):
            assert local_feasible(p, gamma * plan)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(-100, 100), gamma=st.floats(0, 1))
    def test_uniform_scaling_preserves_da_constancy(self, c, gamma):
        da = Participant.producer("P", 0, "DA", (150.0, 150.0), 10.0)
        plan = np.array([abs(c), abs(c)])
        assert local_feasible(da, plan)
        assert local_feasible(da, gamma * plan)
