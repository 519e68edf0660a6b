"""Bilateral decomposition of multilateral trades on radial networks.

On a tree the DC model reduces to ordinary network flow: the flow on each
line is the signed sum of injections on one side.  A feasible multilateral
trade then equals a max flow from a synthetic source (feeding the supply
buses) to a synthetic sink (draining the demand buses), and augmenting-path
decomposition yields bilateral trades whose prefixes stay feasible.  A
conformal decomposition never routes against the trade's own flow on any
line, which makes every replay order feasible.

All arithmetic in this module is exact rational: prefix feasibility is
asserted with zero tolerance and augmenting-path termination needs rational
capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .network import Network
from .participants import UtilityFunction

__all__ = [
    "BilateralTrade",
    "FlowGraph",
    "RedundancyCertificate",
    "SplitCopy",
    "NonTreeNetworkError",
    "tree_flows",
    "decompose_sequential",
    "decompose_conformal",
    "decompose_profitable",
    "split_nonlinear",
]


class NonTreeNetworkError(ValueError):
    """Decomposition requires a radial (cycle-free, connected) network."""


@dataclass(frozen=True)
class BilateralTrade:
    """Transfer of ``quantity`` MW from ``supply_bus`` to ``demand_bus``."""

    supply_bus: int
    demand_bus: int
    quantity: Fraction

    def __post_init__(self) -> None:
        if self.supply_bus == self.demand_bus:
            raise ValueError("bilateral trade needs two distinct buses")
        if self.quantity <= 0:
            raise ValueError("quantity must be positive")

    def as_vector(self, bus_count: int) -> tuple[Fraction, ...]:
        vec = [Fraction(0)] * bus_count
        vec[self.supply_bus] = self.quantity
        vec[self.demand_bus] = -self.quantity
        return tuple(vec)


@dataclass(frozen=True)
class RedundancyCertificate:
    """Witness that a trade can be curtailed without losing profit.

    ``dropped`` is an unprofitable conformal component; removing it leaves
    ``remaining`` which is feasible and at least as profitable as the input.
    """

    dropped: BilateralTrade
    remaining: tuple[Fraction, ...]
    original_profit: Fraction
    remaining_profit: Fraction


@dataclass(frozen=True)
class SplitCopy:
    """One of M equal slices of a trade with marginals frozen at its start."""

    plan: tuple[Fraction, ...]
    marginals: tuple[float, ...]


def _to_fractions(values: Sequence) -> list[Fraction]:
    return [Fraction(v) if not isinstance(v, Fraction) else v for v in values]


def _require_tree(network: Network) -> None:
    if not network.is_tree:
        raise NonTreeNetworkError(
            f"network has {network.line_count} lines over {network.bus_count} buses; expected a tree"
        )


def _adjacency(network: Network) -> list[list[tuple[int, int, int]]]:
    """Per bus: sorted (neighbor, line index, orientation) triples.

    Orientation is +1 when leaving along the line's positive direction.
    """
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(network.bus_count)]
    for idx, line in enumerate(network.lines):
        adj[line.from_bus].append((line.to_bus, idx, 1))
        adj[line.to_bus].append((line.from_bus, idx, -1))
    for entries in adj:
        entries.sort()
    return adj


def _tree_path(adj, start: int, goal: int) -> list[tuple[int, int]]:
    """Unique path as (line index, orientation) steps from start to goal."""
    parent: dict[int, tuple[int, int, int]] = {start: (-1, -1, 0)}
    stack = [start]
    while stack:
        u = stack.pop()
        if u == goal:
            break
        for v, line_idx, orient in adj[u]:
            if v not in parent:
                parent[v] = (u, line_idx, orient)
                stack.append(v)
    if goal not in parent:
        raise NonTreeNetworkError("buses are not connected")
    path: list[tuple[int, int]] = []
    node = goal
    while node != start:
        prev, line_idx, orient = parent[node]
        path.append((line_idx, orient))
        node = prev
    path.reverse()
    return path


def tree_flows(network: Network, injections: Sequence) -> list[Fraction]:
    """Per-line flows (positive along from->to) induced by balanced injections."""
    _require_tree(network)
    inj = _to_fractions(injections)
    if len(inj) != network.bus_count:
        raise ValueError("one injection per bus required")
    if sum(inj) != 0:
        raise ValueError("injections must balance exactly")
    adj = _adjacency(network)
    flows = [Fraction(0)] * network.line_count
    # Flow on each line equals the subtree injection sum on its from-side.
    visited = [False] * network.bus_count
    order: list[int] = []
    parent_edge: dict[int, tuple[int, int, int]] = {}
    stack = [0]
    visited[0] = True
    while stack:
        u = stack.pop()
        order.append(u)
        for v, line_idx, orient in adj[u]:
            if not visited[v]:
                visited[v] = True
                parent_edge[v] = (u, line_idx, orient)
                stack.append(v)
    subtree = list(inj)
    for u in reversed(order):
        if u in parent_edge:
            parent, line_idx, orient = parent_edge[u]
            # The subtree rooted at u exports its net injection toward the
            # parent; orient +1 means the line's positive direction points
            # parent -> u, so that export counts negatively.
            flows[line_idx] -= orient * subtree[u]
            subtree[parent] += subtree[u]
    return flows


def _feasible_trade(
    network: Network, trade: Sequence, accumulated: Sequence | None
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """The trade, the accumulated state's flows and the trade's flows, once the
    trade is known to balance and to fit the line ratings on top of that state.
    """
    _require_tree(network)
    if network.scenario_capacities is not None:
        # A decomposition checks one set of ratings; per-scenario ones would go unchecked.
        raise ValueError("decomposition checks one set of line ratings, not scenario_capacities")
    p = _to_fractions(trade)
    if len(p) != network.bus_count:
        raise ValueError("trade must have one entry per bus")
    if sum(p) != 0:
        raise ValueError("trade must balance exactly")
    base = tree_flows(network, accumulated) if accumulated is not None else [Fraction(0)] * network.line_count
    flows = tree_flows(network, p)
    if any(abs(b + f) > Fraction(line.capacity) for b, f, line in zip(base, flows, network.lines)):
        raise ValueError("trade is not feasible at the accumulated state")
    return p, base, flows


@dataclass
class FlowGraph:
    """Residual flow network for routing a trade's supply to its demand.

    The synthetic source/sink edges are the ``supply`` and ``demand``
    remainders (per-bus capacities equal to the trade's injections); the tree
    lines carry the accumulated state's flows, so residual capacity in a
    traversal direction is ``cap - orient * flow``.
    """

    network: Network
    supply: dict[int, Fraction]
    demand: dict[int, Fraction]
    flow: list[Fraction]
    adjacency: list

    @classmethod
    def for_trade(cls, network: Network, trade: Sequence, base_flows: list[Fraction]) -> "FlowGraph":
        p = _to_fractions(trade)
        return cls(
            network=network,
            supply={v: p[v] for v in range(network.bus_count) if p[v] > 0},
            demand={v: -p[v] for v in range(network.bus_count) if p[v] < 0},
            flow=list(base_flows),
            adjacency=_adjacency(network),
        )

    def residual(self, path: list[tuple[int, int]]) -> Fraction:
        caps = self.network.lines
        return min(
            (Fraction(caps[e].capacity) - orient * self.flow[e] for e, orient in path),
            default=Fraction(0),
        )

    def augment(self, a: int, b: int, path: list[tuple[int, int]], qty: Fraction) -> None:
        for e, orient in path:
            self.flow[e] += orient * qty
        self.supply[a] -= qty
        self.demand[b] -= qty
        if self.supply[a] == 0:
            del self.supply[a]
        if self.demand[b] == 0:
            del self.demand[b]

    def path(self, a: int, b: int) -> list[tuple[int, int]]:
        return _tree_path(self.adjacency, a, b)


def decompose_sequential(
    network: Network,
    trade: Sequence,
    accumulated: Sequence | None = None,
) -> list[BilateralTrade]:
    """Bilateral trades summing to ``trade`` with every prefix feasible.

    Augmenting-path construction on the residual network: line capacities are
    offset by the flows of the accumulated state, then supply is routed to
    demand one simple path at a time, smallest supply bus first, smallest
    reachable demand bus second.  Each step stays inside the residual
    capacities, which is exactly prefix feasibility.
    """
    p, base, _ = _feasible_trade(network, trade, accumulated)
    graph = FlowGraph.for_trade(network, p, base)
    components: list[BilateralTrade] = []
    while graph.supply:
        progressed = False
        for a in sorted(graph.supply):
            for b in sorted(graph.demand):
                path = graph.path(a, b)
                bottleneck = graph.residual(path)
                if bottleneck <= 0:
                    continue
                qty = min(graph.supply[a], graph.demand[b], bottleneck)
                graph.augment(a, b, path, qty)
                components.append(BilateralTrade(a, b, qty))
                progressed = True
                break
            if progressed:
                break
        if not progressed:  # pragma: no cover - impossible for feasible trades
            raise RuntimeError("no augmenting path although supply remains")
    return components


def decompose_conformal(
    network: Network,
    trade: Sequence,
    accumulated: Sequence | None = None,
) -> list[BilateralTrade]:
    """Bilateral trades that never oppose the trade's own flow on any line.

    Built by walking the trade's flow from each supply bus downstream to a
    demand bus and peeling off the bottleneck quantity.  Because each
    component's flow has the same sign as the whole trade's flow on every
    line, any application order keeps every prefix between the accumulated
    state and the fully applied trade, hence feasible.
    """
    p, _, remaining_flow = _feasible_trade(network, trade, accumulated)
    adj = _adjacency(network)
    supply = {v: p[v] for v in range(network.bus_count) if p[v] > 0}
    demand = {v: -p[v] for v in range(network.bus_count) if p[v] < 0}
    components: list[BilateralTrade] = []
    while supply:
        a = min(supply)
        # Walk along positive remaining flow away from a until a bus with
        # remaining demand; conservation guarantees the walk cannot stall.
        path: list[tuple[int, int]] = []
        node = a
        visited = {a}
        while node not in demand:
            step = None
            for v, line_idx, orient in adj[node]:
                if v in visited:
                    continue
                if orient * remaining_flow[line_idx] > 0:
                    step = (v, line_idx, orient)
                    break
            if step is None:  # pragma: no cover - conservation rules this out
                raise RuntimeError("conformal walk stalled")
            node, line_idx, orient = step
            visited.add(node)
            path.append((line_idx, orient))
        qty = min(supply[a], demand[node], *(orient * remaining_flow[e] for e, orient in path)) \
            if path else min(supply[a], demand[node])
        for e, orient in path:
            remaining_flow[e] -= orient * qty
        components.append(BilateralTrade(a, node, qty))
        supply[a] -= qty
        demand[node] -= qty
        if supply[a] == 0:
            del supply[a]
        if demand[node] == 0:
            del demand[node]
    return components


def decompose_profitable(
    network: Network,
    trade: Sequence,
    linear_marginals: Sequence,
    accumulated: Sequence | None = None,
) -> "list[BilateralTrade] | RedundancyCertificate":
    """Split a profitable trade into profitable bilateral pieces, if possible.

    Utilities must be linear in injection: bus ``v`` values the trade at
    ``alpha[v] * p[v]``.  When every conformal component is profitable they
    are returned; otherwise dropping the first losing component yields a
    feasible curtailed trade at least as profitable as the input, returned
    as a :class:`RedundancyCertificate`.
    """
    p = _to_fractions(trade)
    alpha = _to_fractions(linear_marginals)
    if len(alpha) != network.bus_count:
        raise ValueError("one marginal per bus required")
    total_profit = sum(a * v for a, v in zip(alpha, p))
    if not all(v == 0 for v in p) and total_profit <= 0:
        raise ValueError("trade is not profitable under the given marginals")
    components = decompose_conformal(network, trade, accumulated)
    for comp in components:
        profit = comp.quantity * (alpha[comp.supply_bus] - alpha[comp.demand_bus])
        if profit <= 0:
            remaining = list(p)
            remaining[comp.supply_bus] -= comp.quantity
            remaining[comp.demand_bus] += comp.quantity
            return RedundancyCertificate(
                dropped=comp,
                remaining=tuple(remaining),
                original_profit=total_profit,
                remaining_profit=total_profit - profit,
            )
    return components


def split_nonlinear(
    trade: Sequence,
    m_copies: int,
    utilities: Sequence[UtilityFunction],
) -> list[SplitCopy]:
    """M equal slices of a trade, each tagged with start-of-slice marginals.

    Concavity makes each slice, taken on its own from the base state, worth
    at least 1/M of the whole trade, so every copy is individually
    profitable whenever the trade is.  The attached marginals linearise the
    utilities at the point where the copy begins (one-sided, in the movement
    direction), suitable for feeding the linear-utility decomposition.
    """
    if m_copies < 1:
        raise ValueError("m_copies must be >= 1")
    p = _to_fractions(trade)
    if len(p) != len(utilities):
        raise ValueError("one utility per bus required")

    def total_value(scale: Fraction) -> float:
        return sum(
            utilities[v].value(float(p[v] * scale)) for v in range(len(p)) if p[v] != 0
        )

    total = total_value(Fraction(1))
    if total <= 0:
        raise ValueError("trade must be profitable under the given utilities")
    slice_plan = tuple(v / m_copies for v in p)
    copies = []
    for m in range(m_copies):
        marginals = []
        for v in range(len(p)):
            start = float(p[v] * Fraction(m, m_copies))
            left, right = utilities[v].marginals(start)
            marginals.append(right if p[v] > 0 else left if p[v] < 0 else 0.0)
        copies.append(SplitCopy(plan=slice_plan, marginals=tuple(marginals)))
    # Standalone worth of one slice: at least total/M by concavity.
    first_delta = total_value(Fraction(1, m_copies))
    if first_delta < total / m_copies - 1e-9:  # pragma: no cover - concavity guard
        raise AssertionError("utilities are not concave")
    return copies
