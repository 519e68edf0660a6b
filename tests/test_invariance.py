"""What a run's results must not depend on, checked on the acceptance fleet with full-group proposals.

Roster order and value scale are also checked on markets hypothesis draws
from ``generators.random_market``, value scale with random-subset hybrid
proposals too.

Each case rebuilds a fleet market in an equivalent form, trades it to the
certificate and solves its dispatch, and compares with the original:

- roster order: the same trace, byte for byte;
- value scale: every utility slope and epsilon times a power of two gives
  the same steps and exactly scaled welfare and dispatch objective (and
  prices, on the benchmark's medium markets), because HiGHS receives the
  same LPs;
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
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrade import ProposerStrategy, lp, make_proposer
from gridtrade.dispatch import check_arrow_debreu, solve_dispatch
from gridtrade.generators import random_market
from gridtrade.market import Market
from gridtrade.market_io import write_trace
from gridtrade.network import Line, Network
from gridtrade.participants import UtilityFunction
from gridtrade.trading import EngineConfig, run_trading

from conftest import FLEET_SIZE, fleet_markets, medium_full_markets

EPSILON = 1e-3


@pytest.fixture(scope="module")
def fleet():
    return fleet_markets()


FULL_GROUP = (ProposerStrategy("full_group"), EngineConfig(epsilon=EPSILON))
RANDOM_HYBRID = (ProposerStrategy("random_subsets", max_size=3, attempts=6, seed=3),
                 EngineConfig(epsilon=EPSILON, curtailment_mode="hybrid"))

# Markets of up to 8 buses and 12 participants, drawn from a seed.
drawn_markets = st.integers(0, 2**63 - 1).map(
    lambda seed: random_market(np.random.default_rng(seed), max_buses=8, max_participants=12)
)
draws = settings(derandomize=True, deadline=None, max_examples=25)


def trade(market, epsilon=EPSILON, proposals=FULL_GROUP):
    strategy, config = proposals
    return run_trading(market, replace(config, epsilon=epsilon), make_proposer(strategy))


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


@draws
@given(drawn_markets, st.data())
def test_roster_order_leaves_the_trace_unchanged_on_drawn_markets(market, data):
    order = data.draw(st.permutations(range(len(market.participants))))
    shuffled = Market(market.network, market.scenarios, tuple(market.participants[i] for i in order))
    assert trace(trade(shuffled)) == trace(trade(market))


@draws
@given(drawn_markets, st.sampled_from([FULL_GROUP, RANDOM_HYBRID]))
def test_value_scale_on_drawn_markets_scales_welfare_exactly(market, proposals):
    base, objective = trade(market, proposals=proposals), solve_dispatch(market).objective
    for scale in (2.0**20, 2.0**-20):
        scaled = value_scaled(market, scale)
        big = trade(scaled, scale * EPSILON, proposals)
        assert big.converged and big.steps == base.steps, scale
        assert big.final_welfare == scale * base.final_welfare, scale
        assert solve_dispatch(scaled).objective == scale * objective, scale


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


def value_scaled(market, scale):
    """``market`` with every utility slope times ``scale``."""
    participants = tuple(
        replace(p, utility=tuple(UtilityFunction(u.breakpoints, tuple(scale * m for m in u.slopes))
                                 for u in p.utility))
        for p in market.participants
    )
    return Market(market.network, market.scenarios, participants)


def test_value_scale_on_medium_markets_scales_welfare_exactly():
    for k, market in enumerate(medium_full_markets()):
        base, solution = trade(market), solve_dispatch(market)
        for scale in (2.0**20, 2.0**-20):
            scaled = value_scaled(market, scale)
            big, big_solution = trade(scaled, scale * EPSILON), solve_dispatch(scaled)
            assert big.converged and big.steps == base.steps, (k, scale)
            assert big.final_welfare == scale * base.final_welfare, (k, scale)
            assert big_solution.objective == scale * solution.objective, (k, scale)
            assert np.array_equal(big_solution.lambda_, scale * solution.lambda_), (k, scale)


def highs_models(monkeypatch, work) -> list[bytes]:
    """The bytes of every model ``work()`` hands HiGHS, in order."""
    models = []
    build = lp.highs_model

    def recorded(program, scale):
        model = build(program, scale)
        matrix = model.a_matrix_
        fields = (model.col_cost_, model.col_lower_, model.col_upper_, model.row_lower_, model.row_upper_,
                  matrix.start_, matrix.index_, matrix.value_)
        models.append(b"|".join(np.asarray(f).tobytes() for f in fields))
        return model

    with monkeypatch.context() as patch:
        patch.setattr(lp, "highs_model", recorded)
        work()
    return models


def test_value_scale_by_a_power_of_two_leaves_the_lps_unchanged(monkeypatch, fleet):
    market = fleet[42]
    scaled = value_scaled(market, 4.0)
    base = highs_models(monkeypatch, lambda: (trade(market), solve_dispatch(market)))
    big = highs_models(monkeypatch, lambda: (trade(scaled, 4.0 * EPSILON), solve_dispatch(scaled)))
    assert len(base) > 2 and big == base


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
