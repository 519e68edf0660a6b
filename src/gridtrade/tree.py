"""Bilateral decomposition of multilateral trades on radial networks.

On a tree the DC model reduces to ordinary network flow: the flow on each
line is the signed sum of injections on one side, the subtree it feeds in
the network's depth-first walk from bus 0 (``Network.walk_order`` and
``Network.walk_links``).  A feasible multilateral trade then equals a max
flow from a synthetic source (feeding the supply buses) to a synthetic sink
(draining the demand buses), and one augmenting-path routine peels off the
bilateral trades; each path climbs the walk's parent links from both ends
to their common ancestor.  Run on the line
ratings over the accumulated state's flows, it keeps every prefix feasible
(sequential decomposition).  Run on zero ratings over the negated trade
flows, the room on each line is the trade's own remaining flow, so no
component routes against it and every replay order is feasible (conformal
decomposition).

All arithmetic in this module is exact rational: prefix feasibility is
asserted with zero tolerance and augmenting-path termination needs rational
capacities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .network import Network
from .participants import UtilityFunction

__all__ = [
    "BilateralTrade",
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


def _tree_path(network: Network, depth: list[int], start: int, goal: int) -> list[tuple[int, int]]:
    """Unique path as (line index, orientation) steps between ``start`` and
    ``goal``, climbing the network's walk links from the deeper end until the
    two ends meet.  Orientation is +1 when the step runs along the line's
    positive direction.
    """
    path: list[tuple[int, int]] = []
    while start != goal:
        if depth[start] >= depth[goal]:
            start, line_idx, orient = network.walk_links[start]
            path.append((line_idx, -orient))
        else:
            goal, line_idx, orient = network.walk_links[goal]
            path.append((line_idx, orient))
    return path


def tree_flows(network: Network, injections: Sequence) -> list[Fraction]:
    """Per-line flows (positive along from->to) induced by balanced injections."""
    _require_tree(network)
    inj = _to_fractions(injections)
    if len(inj) != network.bus_count:
        raise ValueError("one injection per bus required")
    if sum(inj) != 0:
        raise ValueError("injections must balance exactly")
    flows = [Fraction(0)] * network.line_count
    # Flow on each line equals the injection sum of the subtree it feeds.
    subtree = list(inj)
    for u in reversed(network.walk_order[1:]):
        parent, line_idx, orient = network.walk_links[u]
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


def _peel(
    network: Network, p: list[Fraction], capacity: list[Fraction], flows: list[Fraction]
) -> list[BilateralTrade]:
    """Route ``p``'s supply to its demand one augmenting path at a time.

    The room on a line in a traversal direction is ``capacity - orient *
    flow``.  Each path joins the smallest supply bus to the smallest demand
    bus it reaches with room to spare, carries as much as the room, the
    supply and the demand allow, and adds that to ``flows`` in place.
    """
    depth = [0] * network.bus_count
    for v in network.walk_order[1:]:
        depth[v] = depth[network.walk_links[v][0]] + 1
    supply = {v: q for v, q in enumerate(p) if q > 0}
    demand = {v: -q for v, q in enumerate(p) if q < 0}
    components: list[BilateralTrade] = []
    while supply:
        for a, b in itertools.product(sorted(supply), sorted(demand)):
            path = _tree_path(network, depth, a, b)
            room = min(capacity[e] - orient * flows[e] for e, orient in path)
            if room > 0:
                break
        else:  # pragma: no cover - impossible while the trade fits the room
            raise RuntimeError("no augmenting path although supply remains")
        qty = min(supply[a], demand[b], room)
        for e, orient in path:
            flows[e] += orient * qty
        components.append(BilateralTrade(a, b, qty))
        for side, bus in ((supply, a), (demand, b)):
            side[bus] -= qty
            if side[bus] == 0:
                del side[bus]
    return components


def decompose_sequential(
    network: Network,
    trade: Sequence,
    accumulated: Sequence | None = None,
) -> list[BilateralTrade]:
    """Bilateral trades summing to ``trade`` with every prefix feasible.

    Augmenting paths on the residual network: the room on each line is its
    rating less the accumulated state's flow.  Each step stays inside that
    room, which is exactly prefix feasibility.
    """
    p, base, _ = _feasible_trade(network, trade, accumulated)
    return _peel(network, p, [Fraction(line.capacity) for line in network.lines], base)


def decompose_conformal(
    network: Network,
    trade: Sequence,
    accumulated: Sequence | None = None,
) -> list[BilateralTrade]:
    """Bilateral trades that never oppose the trade's own flow on any line.

    Augmenting paths with zero ratings over the negated trade flows: the
    room on each line is the trade's own remaining flow in the direction
    travelled.  Because each component's flow has the same sign as the
    whole trade's flow on every line, any application order keeps every
    prefix between the accumulated state and the fully applied trade, hence
    feasible.
    """
    p, _, flows = _feasible_trade(network, trade, accumulated)
    return _peel(network, p, [Fraction(0)] * network.line_count, [-f for f in flows])


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
