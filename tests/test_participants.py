from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridtrade.market import Market, two_bus_market
from gridtrade.network import Network
from gridtrade.participants import (
    Participant,
    ScenarioSet,
    UtilityFunction,
    UtilityTable,
    evaluate_utility,
    scan_maximum,
)

from conftest import fleet_markets, medium_full_markets

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("breakpoints, slopes", [
        (lambda x: (-10.0, x, 10.0), lambda x: (-1.0, -2.0)),
        (lambda x: (0.0, 5.0, x), lambda x: (-1.0, -2.0)),
        (lambda x: (-10.0, 0.0, 10.0), lambda x: (x, -2.0)),
        (lambda x: (-10.0, 0.0, 10.0), lambda x: (-1.0, x)),
    ], ids=["inner-breakpoint", "last-breakpoint", "first-slope", "last-slope"])
    def test_non_finite_entries_rejected(self, breakpoints, slopes, bad):
        with pytest.raises(ValueError, match="finite"):
            UtilityFunction(breakpoints(bad), slopes(bad))

    def test_constants_are_computed_on_first_use(self):
        u = UtilityFunction((-10.0, 0.0, 10.0), (5.0, 2.0))
        assert "_segments" not in vars(u)
        u.value(1.0)
        assert "_segments" in vars(u)

    def test_segments_are_cached_read_only_arrays(self):
        u = UtilityFunction((-10.0, 0.0, 10.0), (5.0, 2.0))
        m, a = u.segments()
        again = u.segments()
        assert again[0] is m and again[1] is a
        np.testing.assert_array_equal(m, [5.0, 2.0])
        np.testing.assert_array_equal(a, [0.0, 0.0])
        for arr in (m, a):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("breakpoints, slopes, intercepts", [
        # Values -11, -2, 4, 2, -6 at the breakpoints, with 0 inside the second segment.
        ((-4.0, -1.0, 2.0, 6.0, 8.0), (3.0, 2.0, -0.5, -4.0), (1.0, 0.0, 5.0, 26.0)),
        # Values 10, 6, 0, with 0 at the domain's upper end.
        ((-6.0, -2.0, 0.0), (-1.0, -3.0), (4.0, 0.0)),
    ], ids=["zero-inside", "zero-at-upper-end"])
    def test_segments_of_a_multi_segment_function(self, breakpoints, slopes, intercepts):
        m, a = UtilityFunction(breakpoints, slopes).segments()
        assert m.tolist() == list(slopes) and a.tolist() == list(intercepts)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_value_matches_table_and_exact_interpolation(self, data):
        lo = data.draw(st.floats(-1e3, 0.0))
        hi = data.draw(st.floats(0.0, 1e3))
        assume(lo < hi)
        inner = data.draw(st.lists(st.floats(lo, hi), max_size=4))
        bps = tuple(sorted({lo, hi, *inner}))
        slopes = tuple(sorted(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=len(bps) - 1,
                                                 max_size=len(bps) - 1)), reverse=True))
        u = UtilityFunction(bps, slopes)
        table = UtilityTable.of((Participant("P", 0, "producer", "RT", ((0.0, 0.0),), (u,)),), ScenarioSet((1.0,)))
        points = (*bps, 0.0, lo - 1e-9, hi + 1e-9, *data.draw(st.lists(st.floats(lo, hi), max_size=5)))
        expected = table.value(0, np.array([points]))[0]
        # Exact values at the breakpoints, anchored at zero; outside the domain the end segments extend.
        values = [Fraction(0)]
        for j, m in enumerate(slopes):
            values.append(values[-1] + Fraction(m) * (Fraction(bps[j + 1]) - Fraction(bps[j])))

        def exact(p):
            j = min(max(sum(b <= p for b in bps[1:-1]), 0), len(slopes) - 1)
            return values[j] + Fraction(slopes[j]) * (Fraction(p) - Fraction(bps[j]))

        scale = 1.0 + max(map(abs, slopes)) * max(abs(lo), hi)
        for p, table_value in zip(points, expected):
            assert np.float64(u.value(p)).tobytes() == table_value.tobytes()  # a zero's sign too
            assert abs(Fraction(u.value(p)) - (exact(p) - exact(0.0))) <= 1e-14 * len(bps) * scale
        for p in (np.nextafter(lo - 1e-9, -np.inf), np.nextafter(hi + 1e-9, np.inf)):
            with pytest.raises(ValueError, match="outside utility domain"):
                u.value(p)

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


class TestUtilityTable:
    def test_built_on_first_use_and_kept(self):
        market = two_bus_market()
        assert "table" not in vars(market)
        assert market.table is market.table
        assert "table" in vars(market)

    def test_rows_hold_each_participants_own_numbers(self):
        for market in fleet_markets()[:10]:
            table = market.table
            for i, p in enumerate(market.participants):
                assert table.index[p.id] == i and table.bus[i] == p.bus
                assert table.day_ahead[i] == (p.timing == "DA")
                assert table.weights[i].tolist() == p.weights(market.scenarios).tolist()
                assert np.column_stack([table.lower[i], table.upper[i]]).tolist() == [list(b) for b in p.bounds]
                for s, u in enumerate(p.utility):
                    slopes, intercepts = u.segments()
                    real = table.real[i, s]
                    assert table.slopes[i, s][real].tolist() == slopes.tolist()
                    assert table.intercepts[i, s][real].tolist() == intercepts.tolist()
                    assert table.breakpoints[i, s][: slopes.size + 1].tolist() == list(u.breakpoints)
                    assert not real[slopes.size:].any()

    def test_value_matches_interpolation(self):
        # At every breakpoint, bound and 0 of every fleet and medium_full participant.
        checked = 0
        for market in [*fleet_markets(), *medium_full_markets()]:
            table = market.table
            for i, p in enumerate(market.participants):
                z = np.column_stack([
                    table.breakpoints[i], table.lower[i], table.upper[i], np.zeros(market.scenario_count),
                ])
                expected = np.array([[u.value(v) for v in row] for u, row in zip(p.utility, z)])
                np.testing.assert_array_less(np.abs(table.value(i, z) - expected), 1e-9 * (1 + np.abs(expected)))
                checked += expected.size
        assert checked > 10_000

    def test_padding_repeats_each_functions_last_entry(self):
        # One, two and three segments mixed within rows and within scenarios.
        one = UtilityFunction.constant_marginal(-5.0, 0.0, 50.0)
        two = UtilityFunction((0.0, 20.0, 50.0), (-1.0, -4.0))
        three = UtilityFunction((-30.0, -20.0, -5.0, 0.0), (60.0, 10.0, 1.0))
        participants = (
            Participant("a", 0, "producer", "RT", ((0.0, 50.0),) * 3, (one, two, one)),
            Participant("b", 0, "load", "DA", ((-5.0, 0.0),) * 3, (three, three, three)),
            Participant("c", 0, "producer", "RT", ((0.0, 50.0),) * 3, (two, one, two)),
        )
        table = UtilityTable.of(participants, ScenarioSet((0.5, 0.25, 0.25)))
        assert table.slopes.shape == table.intercepts.shape == table.real.shape == (3, 3, 3)
        assert table.breakpoints.shape == (3, 3, 4)
        for i, p in enumerate(participants):
            for s, u in enumerate(p.utility):
                m, a = u.segments()
                pad = (0, 3 - m.size)
                assert table.slopes[i, s].tolist() == np.pad(m, pad, mode="edge").tolist()
                assert table.intercepts[i, s].tolist() == np.pad(a, pad, mode="edge").tolist()
                assert table.breakpoints[i, s].tolist() == np.pad(u.breakpoints, pad, mode="edge").tolist()
                assert table.real[i, s].tolist() == [k < m.size for k in range(3)]

    def test_stack_keeps_the_mapping_order(self):
        table = two_bus_market().table
        rows, plans = table.stack({"L": [-5.0, -6.0], "G1": np.array([5.0, 6.0])})
        assert rows.tolist() == [3, 0] and plans.tolist() == [[-5.0, -6.0], [5.0, 6.0]]
        rows, plans = table.stack({})
        assert rows.shape == (0,) and plans.shape == (0, 2)

    def test_stack_rejects_an_unknown_id(self):
        with pytest.raises(KeyError, match="unknown participant id 'G9'"):
            two_bus_market().table.stack({"G1": [1.0, 1.0], "G9": [-1.0, -1.0]})

    @pytest.mark.parametrize("plans", [
        {"G1": [1.0, 1.0], "G2": [1.0]},
        {"G1": [1.0, 1.0], "G2": [1.0, 1.0, 1.0]},
        {"G2": 1.0, "G1": 1.0},
        {"G2": [[1.0, 1.0]], "G1": [[1.0, 1.0]]},  # as many entries as (2, 2), not one per scenario
    ])
    def test_stack_rejects_a_plan_of_the_wrong_length(self, plans):
        with pytest.raises(ValueError, match="G2: plan must cover 2 scenarios"):
            two_bus_market().table.stack(plans)

    def test_value_of_many_rows_matches_each_row(self):
        for market in fleet_markets()[:10]:
            table = market.table
            z = np.concatenate([table.breakpoints, table.lower[..., None], table.upper[..., None]], axis=-1)
            rows = np.arange(len(market.participants))
            expected = np.array([table.value(i, z[i]) for i in rows]).reshape(z.shape)
            assert table.value(rows, z).tolist() == expected.tolist()


def concave_gain(alpha, beta, kinks):
    """Per-scenario ``-alpha |t - k0| + beta min(t - k1, 0)``, concave with kinks ``k0`` and ``k1``."""
    return lambda t: -alpha[:, None] * np.abs(t - kinks[:, :1]) + beta[:, None] * np.minimum(t - kinks[:, 1:], 0.0)


class TestScanMaximum:
    def test_crossed_bounds_have_no_maximum(self):
        gain = concave_gain(np.ones(2), np.ones(2), np.zeros((2, 2)))
        assert scan_maximum(np.array([0.0, 2.0]), np.array([1.0, 3.0]), np.zeros((2, 2)), gain, True) is None
        assert scan_maximum(np.array([0.0, 2.0]), np.array([1.0, 1.0]), np.zeros((2, 2)), gain, False) is None

    @pytest.mark.parametrize("shared", [False, True])
    def test_empty_batch(self, shared):
        best = scan_maximum(np.zeros((0, 3)), np.ones((0, 3)), np.zeros((0, 3, 2)), lambda t: t, shared)
        assert best.shape == (0,)

    def test_matches_a_grid_search(self):
        # A shared t over unequal intervals ranges over their intersection only.
        rng = np.random.default_rng(5)
        for _ in range(20):
            lower, upper = rng.uniform(-3.0, 0.0, 3), rng.uniform(1.0, 4.0, 3)
            kinks = rng.uniform(-4.0, 5.0, (3, 2))
            gain = concave_gain(rng.uniform(0.0, 2.0, 3), rng.uniform(0.0, 2.0, 3), kinks)
            grid = np.linspace(lower.max(), upper.min(), 30_001)
            shared = gain(np.broadcast_to(grid, (3, grid.size))).sum(axis=0).max()
            own = sum(gain(np.broadcast_to(np.linspace(lo, hi, 30_001), (3, 30_001)))[s].max()
                      for s, (lo, hi) in enumerate(zip(lower, upper)))
            for flag, expected in ((True, shared), (False, own)):
                best = scan_maximum(lower, upper, kinks, gain, flag)
                # Grid steps are at most 7 / 30000 and the summed gain is 12-Lipschitz.
                assert expected - 1e-12 <= best <= expected + 12 * 7 / 30_000, (flag, best, expected)


class TestMarginalUtility:
    def test_interior_constant_cost(self):
        assert g3().utility[0].marginals(30.0) == (-80.0, -80.0)

    def test_free_production(self):
        assert g2().utility[0].marginals(70.0) == (0.0, 0.0)

    def test_single_segment_load_slope(self):
        left, right = voll_load(1000.0).utility[1].marginals(-75.0)
        assert left == right == -1000.0


def local_feasible(participant, plan) -> bool:
    """``UtilityTable.local_violations`` for one participant's plan over ``SCENARIOS``."""
    outside, spread = UtilityTable.of((participant,), SCENARIOS).local_violations([0], np.array([plan]))
    return not outside.any() and not spread.any()


class TestLocalFeasible:
    def test_da_plan_within_bounds(self):
        assert local_feasible(g1(), np.array([50.0, 50.0]))

    def test_da_plan_must_not_vary(self):
        assert not local_feasible(g1(), np.array([50.0, 40.0]))

    def test_rt_plan_varies_freely(self):
        assert local_feasible(g2(), np.array([100.0, 50.0]))

    def test_bounds_respected_per_scenario(self):
        assert not local_feasible(g2(), np.array([100.0, 60.0]))

    def test_nan_is_outside(self):
        outside, spread = UtilityTable.of((g2(),), SCENARIOS).local_violations([0], np.array([[np.nan, 50.0]]))
        assert outside.tolist() == [[True, False]] and spread.tolist() == [False]

    def test_each_kind_reported_separately(self):
        # Rows: a varying DA plan within bounds, an RT plan past its bound by more than LOCAL_TOL in
        # scenario 1, and a DA plan both varying and out of bounds.  LOCAL_TOL itself is allowed.
        table = UtilityTable.of((g1(), g2()), SCENARIOS)
        plans = np.array([[50.0, 40.0], [100.0 + 1e-9, 50.0 + 1e-8], [250.0, 0.0]])
        outside, spread = table.local_violations([0, 1, 0], plans)
        assert outside.tolist() == [[False, False], [False, True], [True, False]]
        assert spread.tolist() == [True, False, True]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_bounds_rejected(self, side, bad):
        bounds = [0.0, 10.0]
        bounds[side] = bad
        with pytest.raises(ValueError, match="g: bounds must be finite"):
            Participant("g", 0, "producer", "RT", (tuple(bounds), (0.0, 10.0)),
                        (UtilityFunction((0.0, 10.0), (-1.0,)),) * 2)

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
