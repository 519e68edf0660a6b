from fractions import Fraction

import numpy as np
import pytest

from gridtrade.generators import random_tree_instance
from gridtrade.network import Line, Network
from gridtrade.participants import UtilityFunction
from gridtrade.tree import (
    BilateralTrade,
    NonTreeNetworkError,
    RedundancyCertificate,
    decompose_conformal,
    decompose_profitable,
    decompose_sequential,
    split_nonlinear,
    tree_flows,
)

F = Fraction


def path3(caps=(10, 10)):
    return Network(3, (Line(0, 1, 1.0, caps[0]), Line(1, 2, 1.0, caps[1])), reference_bus=0)


def star4():
    return Network(
        4,
        (Line(0, 1, 1.0, 10.0), Line(0, 2, 1.0, 10.0), Line(0, 3, 1.0, 10.0)),
        reference_bus=0,
    )


def components_sum(components, n):
    total = [F(0)] * n
    for c in components:
        total[c.supply_bus] += c.quantity
        total[c.demand_bus] -= c.quantity
    return total


def prefixes_feasible(network, components, base):
    flows = tree_flows(network, base)
    for c in components:
        step = tree_flows(network, c.as_vector(network.bus_count))
        flows = [f + s for f, s in zip(flows, step)]
        for e, f in enumerate(flows):
            if abs(f) > F(network.lines[e].capacity):
                return False
    return True


class TestDecomposeSequential:
    def test_path_instance(self):
        net = path3()
        comps = decompose_sequential(net, [F(5), F(-2), F(-3)])
        assert components_sum(comps, 3) == [F(5), F(-2), F(-3)]
        assert sorted((c.supply_bus, c.demand_bus, c.quantity) for c in comps) == [
            (0, 1, F(2)),
            (0, 2, F(3)),
        ]
        assert prefixes_feasible(net, comps, [F(0)] * 3)

    def test_bilateral_input_returned_as_is(self):
        comps = decompose_sequential(path3(), [F(4), F(0), F(-4)])
        assert comps == [BilateralTrade(0, 2, F(4))]

    def test_star_demand_at_center(self):
        net = star4()
        comps = decompose_sequential(net, [F(-6), F(2), F(2), F(2)])
        assert components_sum(comps, 4) == [F(-6), F(2), F(2), F(2)]
        assert sorted((c.supply_bus, c.quantity) for c in comps) == [(1, F(2)), (2, F(2)), (3, F(2))]

    def test_accumulated_state_shrinks_capacity(self):
        # 6 MW already flows 0->2, so only 4 MW more fits in that direction.
        net = path3()
        with pytest.raises(ValueError, match="not feasible"):
            decompose_sequential(net, [F(5), F(0), F(-5)], [F(6), F(0), F(-6)])
        comps = decompose_sequential(net, [F(4), F(0), F(-4)], [F(6), F(0), F(-6)])
        assert prefixes_feasible(net, comps, [F(6), F(0), F(-6)])

    def test_counterflow_uses_released_capacity(self):
        # The line is saturated toward bus 2; a reverse trade is still fine.
        net = path3()
        comps = decompose_sequential(net, [F(-3), F(0), F(3)], [F(10), F(0), F(-10)])
        assert components_sum(comps, 3) == [F(-3), F(0), F(3)]

    def test_non_tree_rejected(self):
        mesh = Network(
            3, (Line(0, 1, 1.0, 5.0), Line(1, 2, 1.0, 5.0), Line(0, 2, 1.0, 5.0))
        )
        with pytest.raises(NonTreeNetworkError):
            decompose_sequential(mesh, [F(1), F(0), F(-1)])

    def test_unbalanced_trade_rejected(self):
        with pytest.raises(ValueError, match="balance"):
            decompose_sequential(path3(), [F(1), F(0), F(0)])

    @pytest.mark.parametrize("decompose", [
        decompose_sequential,
        decompose_conformal,
        lambda net, trade: decompose_profitable(net, trade, [F(0), F(1), F(2)]),
    ], ids=["sequential", "conformal", "profitable"])
    def test_scenario_capacities_rejected(self, decompose):
        # The trade fits the 10 MW base ratings but not the 1 MW second-scenario ones.
        net = Network(3, path3().lines, reference_bus=0, scenario_capacities=((10, 10), (1, 1)))
        with pytest.raises(ValueError, match="scenario_capacities"):
            decompose(net, [F(-5), F(0), F(5)])


class TestDecomposeConformal:
    def test_components_follow_the_trade_flow(self):
        net = path3()
        trade = [F(5), F(-2), F(-3)]
        comps = decompose_conformal(net, trade)
        assert components_sum(comps, 3) == trade
        whole = tree_flows(net, trade)
        for c in comps:
            own = tree_flows(net, c.as_vector(3))
            assert all(a * b >= 0 for a, b in zip(own, whole))

    def test_every_permutation_prefix_feasible(self):
        net = path3((6, 6))
        trade = [F(5), F(-2), F(-3)]
        comps = decompose_conformal(net, trade)
        rng = np.random.default_rng(0)
        orders = set()
        for _ in range(20):
            orders.add(tuple(rng.permutation(len(comps)).tolist()))
        for order in orders:
            assert prefixes_feasible(net, [comps[i] for i in order], [F(0)] * 3)

    def test_zero_flow_line_stays_unused(self):
        net = star4()
        trade = [F(0), F(3), F(-3), F(0)]
        comps = decompose_conformal(net, trade)
        for c in comps:
            own = tree_flows(net, c.as_vector(4))
            assert own[2] == 0  # line 0-3 carries nothing in the whole trade

    def test_single_pair_returns_itself(self):
        comps = decompose_conformal(path3(), [F(2), F(0), F(-2)])
        assert comps == [BilateralTrade(0, 2, F(2))]

    def test_zero_trade_decomposes_to_nothing(self):
        assert decompose_conformal(path3(), [F(0)] * 3) == []


class TestDecomposeProfitable:
    def test_single_profitable_pair(self):
        net = Network(2, (Line(0, 1, 1.0, 20.0),), reference_bus=0)
        # Supplier cost 50/MW, consumer value 80/MW, both linear in injection.
        comps = decompose_profitable(net, [F(10), F(-10)], [F(-50), F(-80)])
        assert comps == [BilateralTrade(0, 1, F(10))]
        profit = F(10) * (F(-50) - F(-80))
        assert profit == 300

    def test_redundant_component_is_certified(self):
        # Bus 0 supplies buses 2 (value 90) and 3 (value 30 < cost 50): the
        # leg to bus 3 loses money and dropping it raises total profit.
        net = star4()
        trade = [F(10), F(0), F(-6), F(-4)]
        alpha = [F(-50), F(0), F(-90), F(-30)]
        result = decompose_profitable(net, trade, alpha)
        assert isinstance(result, RedundancyCertificate)
        assert result.dropped.demand_bus == 3
        assert result.remaining_profit >= result.original_profit
        flows = tree_flows(net, list(result.remaining))
        assert all(abs(f) <= F(10) for f in flows)

    def test_zero_trade_gives_empty_decomposition(self):
        assert decompose_profitable(path3(), [F(0)] * 3, [F(0)] * 3) == []

    def test_unprofitable_trade_rejected(self):
        net = Network(2, (Line(0, 1, 1.0, 20.0),), reference_bus=0)
        with pytest.raises(ValueError, match="profitable"):
            decompose_profitable(net, [F(10), F(-10)], [F(-80), F(-50)])


class TestSplitNonlinear:
    def cost_curve(self):
        return UtilityFunction((0.0, 6.0, 12.0), (-10.0, -40.0))

    def value_curve(self):
        return UtilityFunction((-12.0, -6.0, 0.0), (-90.0, -120.0))

    def test_single_copy_is_the_trade(self):
        copies = split_nonlinear([F(10), F(-10)], 1, [self.cost_curve(), self.value_curve()])
        assert len(copies) == 1
        assert copies[0].plan == (F(10), F(-10))

    def test_each_copy_beats_average_from_base(self):
        utilities = [self.cost_curve(), self.value_curve()]
        trade = [F(10), F(-10)]
        total = sum(u.value(float(v)) for u, v in zip(utilities, trade))
        copies = split_nonlinear(trade, 4, utilities)
        for copy in copies:
            standalone = sum(u.value(float(v)) for u, v in zip(utilities, copy.plan))
            assert standalone >= total / 4 - 1e-9

    def test_fine_split_linearisation_converges(self):
        # A many-segment concave curve: the per-copy linearised profits sum
        # close to the exact total as the number of copies grows.
        n_seg = 24
        bps = tuple(np.linspace(0.0, 12.0, n_seg + 1))
        slopes = tuple(-10.0 - 3.0 * k for k in range(n_seg))
        cost = UtilityFunction(bps, slopes)
        value = UtilityFunction((-12.0, 0.0), (-100.0,))
        utilities = [cost, value]
        trade = [F(12), F(-12)]
        exact = sum(u.value(float(v)) for u, v in zip(utilities, trade))
        m = 100
        copies = split_nonlinear(trade, m, utilities)
        linearised = sum(
            sum(float(alpha) * float(v) for alpha, v in zip(copy.marginals, copy.plan))
            for copy in copies
        )
        assert linearised == pytest.approx(exact, abs=abs(exact) * 0.02 + 3.0)

    def test_unprofitable_trade_rejected(self):
        cheap_value = UtilityFunction((-12.0, 0.0), (-5.0,))
        with pytest.raises(ValueError, match="profitable"):
            split_nonlinear([F(10), F(-10)], 2, [self.cost_curve(), cheap_value])


class TestRandomRadialInstances:
    def test_sequential_and_conformal_properties(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            net, trade, state = random_tree_instance(rng, with_state=bool(rng.integers(0, 2)))
            n = net.bus_count
            supply_count = sum(1 for v in trade if v > 0)
            demand_count = sum(1 for v in trade if v < 0)

            seq = decompose_sequential(net, trade, state)
            assert components_sum(seq, n) == list(trade)
            assert prefixes_feasible(net, seq, state)
            assert len(seq) <= supply_count * demand_count + net.line_count

            conf = decompose_conformal(net, trade, state)
            assert components_sum(conf, n) == list(trade)
            assert len(conf) <= supply_count * demand_count + net.line_count
            whole = tree_flows(net, trade)
            for c in conf:
                own = tree_flows(net, c.as_vector(n))
                assert all(a * b >= 0 for a, b in zip(own, whole))
                assert prefixes_feasible(net, [c], state)
            for _ in range(20):
                order = rng.permutation(len(conf)).tolist()
                assert prefixes_feasible(net, [conf[i] for i in order], state)
