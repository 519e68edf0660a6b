"""Workload inputs: the acceptance fleet draw and a market builder that scales.

``generators.random_market`` draws marginal costs and values from pools of
26 entries each, so it cannot build markets with more than a few dozen
utility segments.  ``scaled_market`` uses only the public constructors and
pools sized to the draw, with every marginal cost below every marginal
value and all of them distinct, so dispatch duals stay well posed.

Builders import ``gridtrade`` at call time, so a set-up that re-imports the
package gets markets built from the fresh modules.
"""

from __future__ import annotations

import numpy as np

FLEET_SEED = 20240817
FLEET_SIZE = 50
TREE_SEED = 606
TREE_COUNT = 30
ROBUST_SEED = 808
ROBUST_COUNT = 20


def fleet_markets():
    """The acceptance suite's 50 markets, drawn exactly as its fixture does."""
    from gridtrade.generators import random_market

    master = np.random.default_rng(FLEET_SEED)
    markets = []
    for k in range(FLEET_SIZE):
        rng = np.random.default_rng(master.integers(2**63))
        markets.append(
            random_market(rng, max_buses=6, max_scenarios=4, max_participants=10, meshed=(k % 2 == 0))
        )
    return markets


def tree_instances():
    """The acceptance suite's 30 radial instances with their replay orders.

    Criterion 6 draws 20 replay orders of each conformal decomposition from
    the same generator between instances, so reproducing its draw means
    decomposing each instance here.
    """
    from gridtrade.generators import random_tree_instance
    from gridtrade.tree import decompose_conformal

    rng = np.random.default_rng(TREE_SEED)
    out = []
    for _ in range(TREE_COUNT):
        net, trade, state = random_tree_instance(rng, with_state=bool(rng.integers(0, 2)))
        count = len(decompose_conformal(net, trade, state))
        out.append((net, trade, state, [rng.permutation(count).tolist() for _ in range(20)]))
    return out


def robust_instances():
    """The acceptance suite's 20 interval sequences (criterion 8 draw order)."""
    from gridtrade.generators import random_interval_sequence, random_market

    rng = np.random.default_rng(ROBUST_SEED)
    out = []
    for _ in range(ROBUST_COUNT):
        market = random_market(rng, max_buses=4, max_scenarios=1, max_participants=5)
        out.append((market, random_interval_sequence(rng, market, n_trades=3)))
    return out


def scaled_network(rng: np.random.Generator, buses: int):
    """Ring through all buses in random order plus up to ``buses // 2`` chords.

    Capacities of 40 to 160 MW congest a sizeable share of lines at the
    participant sizes ``scaled_market`` draws.
    """
    from gridtrade.network import Line, Network

    def line(u: int, v: int):
        return Line(u, v, reactance=float(rng.uniform(0.5, 2.0)),
                    capacity=float(rng.uniform(40.0, 160.0)))

    order = rng.permutation(buses).tolist()
    pairs = {tuple(sorted((order[k], order[(k + 1) % buses]))) for k in range(buses)}
    for _ in range(buses // 2):
        pairs.add(tuple(sorted(rng.choice(buses, size=2, replace=False).tolist())))
    lines = [line(u, v) for u, v in sorted(pairs)]
    return Network(bus_count=buses, lines=tuple(lines), reference_bus=int(rng.integers(0, buses)))


def _utility(rng: np.random.Generator, lo: float, hi: float, slopes: list[float]):
    """Concave piecewise-linear utility on ``[lo, hi]`` with the given slopes."""
    from gridtrade.participants import UtilityFunction

    cuts = np.sort(rng.uniform(0.2, 0.8, size=len(slopes) - 1)) * (hi - lo) + lo
    return UtilityFunction((lo, *cuts.tolist(), hi), tuple(slopes))


def scaled_market(
    system: np.random.Generator,
    conditions: np.random.Generator,
    buses: int,
    scenarios: int,
    participants: int,
):
    """Meshed market of the given size; producers real-time, loads mixed DA/RT.

    ``system`` draws what a grid operator would call the test system: lines,
    who sits where, timing, utility slopes and nominal sizes.  ``conditions``
    draws the operating point: scenario probabilities, each real-time
    participant's per-scenario capacity or demand as a share of its nominal
    size, and where the utility kinks fall.  Producers are the even ``P<k>``,
    loads the odd ones, each at a random bus.  Zero injection is always locally
    feasible, so trading starts from the empty state.
    """
    from gridtrade.market import Market
    from gridtrade.participants import Participant, ScenarioSet

    network = scaled_network(system, buses)
    raw = conditions.uniform(0.1, 1.0, size=scenarios)
    probs = raw / raw.sum()
    probs[-1] = 1.0 - float(probs[:-1].sum())
    scenario_set = ScenarioSet(tuple(float(p) for p in probs))

    # Three segments at most per participant: pools that large never run dry.
    pool_size = 3 * participants
    cost_pool = list(20.0 + 2.0 * np.arange(pool_size))
    value_pool = list(cost_pool[-1] + 40.0 + 3.0 * np.arange(pool_size))
    system.shuffle(cost_pool)
    system.shuffle(value_pool)

    roster = []
    for k in range(participants):
        bus = int(system.integers(0, buses))
        n_seg = int(system.integers(1, 4))
        if k % 2 == 0:
            nominal = float(system.uniform(20.0, 120.0))
            caps = nominal * conditions.uniform(0.5, 1.0, size=scenarios)
            slopes = [-m for m in sorted(cost_pool.pop() for _ in range(n_seg))]
            utility = tuple(_utility(conditions, 0.0, float(c), slopes) for c in caps)
            roster.append(Participant(f"P{k}", bus, "producer", "RT",
                                      tuple((0.0, float(c)) for c in caps), utility))
        else:
            timing = "DA" if system.random() < 0.5 else "RT"
            nominal = float(system.uniform(20.0, 100.0))
            share = 1.0 if timing == "DA" else conditions.uniform(0.5, 1.0, size=scenarios)
            dems = np.broadcast_to(nominal * share, (scenarios,))
            slopes = [-v for v in sorted(value_pool.pop() for _ in range(n_seg))]
            if timing == "DA":
                utility = (_utility(conditions, -nominal, 0.0, slopes),) * scenarios
            else:
                utility = tuple(_utility(conditions, -float(d), 0.0, slopes) for d in dems)
            roster.append(Participant(f"P{k}", bus, "load", timing,
                                      tuple((-float(d), 0.0) for d in dems), utility))
    return Market(network, scenario_set, tuple(roster))


def scenario_capacities(rng: np.random.Generator, market) -> np.ndarray:
    """Per-scenario line capacities, each a random 60% to 100% of nominal."""
    nominal = np.array([line.capacity for line in market.network.lines])
    return nominal[None, :] * rng.uniform(0.6, 1.0, size=(market.scenario_count, nominal.size))
