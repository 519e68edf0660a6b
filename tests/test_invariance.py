"""What a run's results must not depend on, checked on the acceptance fleet with full-group proposals.

Each case rebuilds a fleet market in an equivalent form, trades it to the
certificate and solves its dispatch, and compares with the original:

- roster order: the same trace, byte for byte;
- value scale: every utility slope and epsilon times a power of two gives
  the same steps and exactly scaled welfare and dispatch objective;
- bus relabelling: the same steps, welfare and dispatch objective to
  round-off, and an equilibrium at the relabelled market's own prices.
  Prices are compared by verdict, not entry by entry, since the dual
  solution need not be unique;
- line order: the same steps and welfare, the dispatch objective to
  round-off, and an equilibrium at the reordered market's own prices;
- reference bus: the same steps, welfare and dispatch objective to
  round-off, and an equilibrium at both the moved market's own prices and
  the original market's (the prices themselves may differ).
"""

import io
from dataclasses import replace

import numpy as np
import pytest

from gridtrade import ProposerStrategy, make_proposer
from gridtrade.dispatch import check_arrow_debreu, solve_dispatch
from gridtrade.market import Market
from gridtrade.market_io import write_trace
from gridtrade.network import Line, Network
from gridtrade.participants import UtilityFunction
from gridtrade.trading import EngineConfig, run_trading

from conftest import FLEET_SIZE, fleet_markets

EPSILON = 1e-3


@pytest.fixture(scope="module")
def fleet():
    return fleet_markets()


def trade(market, epsilon=EPSILON):
    return run_trading(market, EngineConfig(epsilon=epsilon), make_proposer(ProposerStrategy("full_group")))


def trace(result) -> str:
    buf = io.StringIO()
    write_trace(result.state.records, buf)
    return buf.getvalue()


def test_roster_order_leaves_the_trace_unchanged(fleet):
    rng = np.random.default_rng(11)
    for k, market in enumerate(fleet):
        order = rng.permutation(len(market.participants))
        shuffled = Market(market.network, market.scenarios, tuple(market.participants[i] for i in order))
        assert trace(trade(shuffled)) == trace(trade(market)), k
    assert len(fleet) == FLEET_SIZE


def test_value_scale_by_a_power_of_two_scales_welfare_exactly(fleet):
    scale = 4.0
    for k, market in enumerate(fleet):
        participants = tuple(
            replace(p, utility=tuple(UtilityFunction(u.breakpoints, tuple(scale * m for m in u.slopes))
                                     for u in p.utility))
            for p in market.participants
        )
        scaled = Market(market.network, market.scenarios, participants)
        base, big = trade(market), trade(scaled, scale * EPSILON)
        assert big.converged and big.steps == base.steps, k
        assert big.final_welfare == scale * base.final_welfare, k
        assert solve_dispatch(scaled).objective == scale * solve_dispatch(market).objective, k


def test_bus_relabelling_keeps_steps_welfare_and_equilibrium(fleet):
    rng = np.random.default_rng(12)
    for k, market in enumerate(fleet):
        net = market.network
        label = rng.permutation(net.bus_count)
        lines = tuple(Line(int(label[ln.from_bus]), int(label[ln.to_bus]), ln.reactance, ln.capacity)
                      for ln in net.lines)
        relabelled = Market(
            Network(net.bus_count, lines, int(label[net.reference_bus]), net.scenario_capacities),
            market.scenarios,
            tuple(replace(p, bus=int(label[p.bus])) for p in market.participants),
        )
        base, moved = trade(market), trade(relabelled)
        assert moved.converged and moved.steps == base.steps, k
        assert moved.final_welfare == pytest.approx(base.final_welfare, rel=1e-12, abs=0.0), k
        solution = solve_dispatch(relabelled)
        assert solution.objective == pytest.approx(solve_dispatch(market).objective, rel=1e-12, abs=0.0), k
        report = check_arrow_debreu(relabelled, solution.plans, solution.x, solution.lambda_)
        assert report.verdict, k


def test_line_order_keeps_steps_welfare_and_equilibrium(fleet):
    rng = np.random.default_rng(13)
    for k, market in enumerate(fleet):
        net = market.network
        order = rng.permutation(net.line_count)
        caps = net.scenario_capacities and [[row[i] for i in order] for row in net.scenario_capacities]
        reordered = Market(Network(net.bus_count, tuple(net.lines[i] for i in order), net.reference_bus, caps),
                           market.scenarios, market.participants)
        base, moved = trade(market), trade(reordered)
        assert moved.converged and moved.steps == base.steps, k
        assert moved.final_welfare == base.final_welfare, k
        solution = solve_dispatch(reordered)
        assert solution.objective == pytest.approx(solve_dispatch(market).objective, rel=1e-15, abs=0.0), k
        assert check_arrow_debreu(reordered, solution.plans, solution.x, solution.lambda_).verdict, k


def test_reference_bus_keeps_steps_welfare_and_equilibrium(fleet):
    rng = np.random.default_rng(14)
    for k, market in enumerate(fleet):
        net = market.network
        reference = int(rng.choice([b for b in range(net.bus_count) if b != net.reference_bus]))
        moved_market = Market(Network(net.bus_count, net.lines, reference, net.scenario_capacities),
                              market.scenarios, market.participants)
        base, moved = trade(market), trade(moved_market)
        assert moved.converged and moved.steps == base.steps, k
        assert moved.final_welfare == pytest.approx(base.final_welfare, rel=1e-12, abs=0.0), k
        original, solution = solve_dispatch(market), solve_dispatch(moved_market)
        assert solution.objective == pytest.approx(original.objective, rel=1e-12, abs=0.0), k
        for prices in (solution.lambda_, original.lambda_):
            assert check_arrow_debreu(moved_market, solution.plans, solution.x, prices).verdict, k
