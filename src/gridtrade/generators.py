"""Random instance builders for property tests and desk-scale experiments.

Markets are drawn with strictly separated marginal costs and values so that
dispatch optima are well conditioned; networks mix radial and meshed
topologies.  The tree-instance builder emits integer-valued balanced trades
with capacities chosen to keep them feasible, which keeps the rational
decomposition arithmetic exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

import numpy as np

from .market import Market
from .network import Line, Network
from .participants import Participant, ScenarioSet, UtilityFunction
from .robust import IntervalTrade
from .tree import tree_flows

__all__ = [
    "random_network",
    "random_market",
    "random_tree_instance",
    "random_interval_sequence",
]


def random_network(
    rng: np.random.Generator,
    max_buses: int = 6,
    meshed: bool | None = None,
) -> Network:
    """Connected network: random tree plus optional chords.

    Line capacities of 15-110 MW are tight enough that a sizeable share of
    random markets congest, which is what the trading-process tests need.
    """
    n = int(rng.integers(2, max_buses + 1))

    def cap() -> float:
        return float(rng.uniform(15.0, 110.0))

    lines = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        lines.append(Line(u, v, reactance=float(rng.uniform(0.5, 2.0)), capacity=cap()))
    add_chords = bool(rng.random() < 0.5) if meshed is None else meshed
    if add_chords and n >= 3:
        existing = {(line.from_bus, line.to_bus) for line in lines}
        for _ in range(int(rng.integers(1, 3))):
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            if (u, v) in existing:
                continue
            existing.add((u, v))
            lines.append(Line(u, v, reactance=float(rng.uniform(0.5, 2.0)), capacity=cap()))
    return Network(bus_count=n, lines=tuple(lines), reference_bus=int(rng.integers(0, n)))


def _pwl_producer_utility(rng: np.random.Generator, capacity: float, costs: list[float]) -> UtilityFunction:
    segments = len(costs)
    cuts = np.sort(rng.uniform(0.2, 0.8, size=segments - 1)) * capacity if segments > 1 else np.array([])
    breakpoints = (0.0, *cuts.tolist(), capacity)
    return UtilityFunction(tuple(breakpoints), tuple(-c for c in costs))


def _pwl_load_utility(rng: np.random.Generator, demand: float, values: list[float]) -> UtilityFunction:
    # Injection domain [-demand, 0]; marginal value of consumption falls as
    # consumption grows, so slopes over injection are increasingly negative
    # toward the left and must be listed ascending in injection order.
    segments = len(values)
    cuts = -np.sort(rng.uniform(0.2, 0.8, size=segments - 1))[::-1] * demand if segments > 1 else np.array([])
    breakpoints = (-demand, *cuts.tolist(), 0.0)
    return UtilityFunction(tuple(breakpoints), tuple(-v for v in sorted(values)))


def _price_pool(rng: np.random.Generator, start: float, step: float) -> Iterator[float]:
    """Distinct prices in ``[start, start + 26 step)``: the grid ``start + k step``
    shuffled, then unshuffled decks in its gaps (offset ``(1 - 2**-r) step`` in
    round ``r``), so large markets never run dry and draw no extra randomness."""
    deck = list(start + step * np.arange(26))
    rng.shuffle(deck)
    later = (start + step * (k + 1.0 - 0.5**r) for r in itertools.count(1) for k in range(25, -1, -1))
    return itertools.chain(reversed(deck), later)


def random_market(
    rng: np.random.Generator,
    max_buses: int = 6,
    max_scenarios: int = 4,
    max_participants: int = 10,
    meshed: bool | None = None,
) -> Market:
    network = random_network(rng, max_buses, meshed)
    n_s = int(rng.integers(1, max_scenarios + 1))
    raw = rng.uniform(0.1, 1.0, size=n_s)
    probs = raw / raw.sum()
    probs[-1] = 1.0 - float(probs[:-1].sum())
    scenarios = ScenarioSet(tuple(float(p) for p in probs))

    n_parts = int(rng.integers(2, max_participants + 1))
    # Strict separation of every marginal cost and value, for well-posed duals.
    cost_pool = _price_pool(rng, 20.0, 7.0)
    value_pool = _price_pool(rng, 260.0, 13.0)
    participants = []
    for k in range(n_parts):
        is_load = k == 1 or (k > 1 and rng.random() < 0.4)  # k==0 producer, k==1 load
        timing = "DA" if rng.random() < 0.4 else "RT"
        bus = int(rng.integers(0, network.bus_count))
        n_seg = int(rng.integers(1, 4))
        if not is_load:
            if timing == "DA":
                caps = (float(rng.uniform(30.0, 120.0)),) * n_s
            else:
                caps = tuple(float(rng.uniform(10.0, 120.0)) for _ in range(n_s))
            costs = sorted(next(cost_pool) for _ in range(n_seg))
            utility = tuple(_pwl_producer_utility(rng, cap, costs) for cap in caps)
            participants.append(
                Participant(f"P{k}", bus, "producer", timing, tuple((0.0, c) for c in caps), utility)
            )
        else:
            if timing == "DA":
                dems = (float(rng.uniform(20.0, 100.0)),) * n_s
            else:
                dems = tuple(float(rng.uniform(10.0, 100.0)) for _ in range(n_s))
            values = sorted((next(value_pool) for _ in range(n_seg)), reverse=True)
            utility = tuple(_pwl_load_utility(rng, d, values) for d in dems)
            participants.append(
                Participant(f"P{k}", bus, "load", timing, tuple((-d, 0.0) for d in dems), utility)
            )
    return Market(network, scenarios, tuple(participants))


def random_tree_instance(
    rng: np.random.Generator,
    max_buses: int = 8,
    with_state: bool = False,
) -> tuple[Network, list[Fraction], list[Fraction]]:
    """Radial network, feasible balanced integer trade, accumulated state.

    Capacities are integers chosen above the combined flows so the trade is
    feasible at the state; at least three buses trade.
    """
    n = int(rng.integers(3, max_buses + 1))
    parents = [int(rng.integers(0, v)) for v in range(1, n)]
    trade = _balanced_integer_vector(rng, n, lo=1, hi=9, min_active=3)
    state = (
        _balanced_integer_vector(rng, n, lo=0, hi=4, min_active=0)
        if with_state
        else [Fraction(0)] * n
    )
    skeleton = Network(
        bus_count=n,
        lines=tuple(Line(parents[v - 1], v, 1.0, 1.0) for v in range(1, n)),
        reference_bus=0,
    )
    combined = tree_flows(skeleton, [a + b for a, b in zip(trade, state)])
    state_flows = tree_flows(skeleton, state)
    lines = []
    for e in range(n - 1):
        need = max(abs(combined[e]), abs(state_flows[e]))
        cap = int(need) + int(rng.integers(1, 6))
        lines.append(Line(parents[e], e + 1, 1.0, float(cap)))
    return Network(n, tuple(lines), 0), trade, state


def _balanced_integer_vector(
    rng: np.random.Generator, n: int, lo: int, hi: int, min_active: int
) -> list[Fraction]:
    while True:
        vec = [Fraction(0)] * n
        active = max(min_active, 2)
        buses = rng.choice(n, size=min(active, n), replace=False)
        half = len(buses) // 2
        supply, demand = buses[:half] if half else buses[:1], buses[half:]
        total = 0
        for b in supply:
            amount = int(rng.integers(lo if lo > 0 else 1, hi + 1))
            vec[int(b)] += amount
            total += amount
        remaining = total
        for j, b in enumerate(demand):
            take = remaining if j == len(demand) - 1 else int(rng.integers(0, remaining + 1))
            vec[int(b)] -= take
            remaining -= take
        if lo == 0 and min_active == 0 and rng.random() < 0.3:
            return [Fraction(0)] * n
        nonzero = sum(1 for v in vec if v != 0)
        if nonzero >= min_active and sum(vec) == 0 and (min_active == 0 or nonzero >= 3):
            return vec


def random_interval_sequence(
    rng: np.random.Generator,
    market: Market,
    n_trades: int = 3,
) -> list[IntervalTrade]:
    """Interval trades over the market's participants with at most 2**12 corners."""
    trades = []
    bits = 0
    ids = list(market.participant_ids)
    for _ in range(n_trades):
        members = rng.choice(len(ids), size=min(len(ids), int(rng.integers(1, 3))), replace=False)
        lower = {}
        upper = {}
        for m in members:
            pid = ids[int(m)]
            center = float(rng.uniform(-20.0, 20.0))
            width = float(rng.uniform(0.0, 15.0)) if bits < 12 else 0.0
            if width > 0:
                bits += 1
            lower[pid] = center - width
            upper[pid] = center + width
        trades.append(IntervalTrade(lower=lower, upper=upper))
    return trades
