"""DC network model: topology, shift factors, and all feasibility queries.

Line flows are linear in nodal injections.  The loading matrix stacks the
shift-factor rows for both flow directions, so every capacity constraint has
the one-sided form ``h @ x <= limit``.  Injection arrays are scenario-major:
shape ``(S, N)``, one row per scenario.  Every query treats all scenarios
at once as ``(S, 2L)`` arrays of loadings and limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Line",
    "Network",
    "LoadingMatrix",
    "ViolationReport",
    "DisconnectedNetworkError",
    "build_loading_matrix",
    "check_feasible",
    "binding_mask",
    "binding_lines",
    "is_feasible_direction",
    "curtailment_factors",
    "curtailment_factor",
    "FEASIBILITY_TOL",
    "BINDING_TOL",
    "DIRECTION_TOL",
    "BALANCE_TOL",
]

# Absolute tolerances in MW.  Feasibility is strict (post-curtailment states
# must satisfy it); binding detection is looser so that repeated ratio tests
# do not drop a genuinely active line to round-off.
FEASIBILITY_TOL = 1e-8
BINDING_TOL = 1e-6
DIRECTION_TOL = 1e-9
BALANCE_TOL = 1e-9


class DisconnectedNetworkError(ValueError):
    """Raised when the bus graph is not connected."""


@dataclass(frozen=True)
class Line:
    """Transmission line between two buses (0-indexed endpoints).

    ``capacity`` limits the magnitude of the flow in both directions; the
    positive flow direction is ``from_bus -> to_bus``.
    """

    from_bus: int
    to_bus: int
    reactance: float
    capacity: float

    def __post_init__(self) -> None:
        if self.from_bus == self.to_bus:
            raise ValueError(f"line endpoints must be distinct, got {self.from_bus}")
        if not self.reactance > 0:
            raise ValueError(f"reactance must be positive, got {self.reactance}")
        if not self.capacity > 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")


@dataclass(frozen=True)
class Network:
    """Connected transmission network with a flow reference bus.

    ``scenario_capacities``, when given, holds one row of line ratings per
    scenario and replaces each ``Line.capacity`` in that scenario.

    Construction walks the bus graph depth first from bus 0, visiting
    neighbours in ascending order.  ``walk_order`` lists the buses in visit
    order; ``walk_links[v]`` is ``(parent bus, line index, orientation)``
    for the line that reached ``v`` (``None`` for bus 0), with orientation
    +1 when the line's positive direction runs from the parent to ``v``.
    On a radial network these links are the whole network.
    """

    bus_count: int
    lines: tuple[Line, ...]
    reference_bus: int = 0
    scenario_capacities: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.bus_count < 1:
            raise ValueError("bus_count must be >= 1")
        object.__setattr__(self, "lines", tuple(self.lines))
        if self.scenario_capacities is not None:
            caps = tuple(tuple(float(c) for c in row) for row in self.scenario_capacities)
            if any(len(row) != len(self.lines) for row in caps):
                raise ValueError(f"scenario_capacities rows must hold {len(self.lines)} ratings")
            if not all(c > 0 for row in caps for c in row):
                raise ValueError("scenario_capacities must be positive")
            object.__setattr__(self, "scenario_capacities", caps)
        for line in self.lines:
            for b in (line.from_bus, line.to_bus):
                if not 0 <= b < self.bus_count:
                    raise ValueError(f"line endpoint {b} out of range [0, {self.bus_count})")
        if not 0 <= self.reference_bus < self.bus_count:
            raise ValueError(f"reference_bus {self.reference_bus} out of range")
        self._walk()
        if len(self.walk_order) != self.bus_count:
            raise DisconnectedNetworkError("bus graph is not connected")

    @property
    def line_count(self) -> int:
        return len(self.lines)

    @property
    def is_tree(self) -> bool:
        return self.line_count == self.bus_count - 1

    def _walk(self) -> None:
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.bus_count)]
        for idx, line in enumerate(self.lines):
            adj[line.from_bus].append((line.to_bus, idx, 1))
            adj[line.to_bus].append((line.from_bus, idx, -1))
        links: list[tuple[int, int, int] | None] = [None] * self.bus_count
        order: list[int] = []
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            order.append(u)
            for v, idx, orient in sorted(adj[u]):
                if v not in seen:
                    seen.add(v)
                    links[v] = (u, idx, orient)
                    stack.append(v)
        object.__setattr__(self, "walk_order", tuple(order))
        object.__setattr__(self, "walk_links", tuple(links))

    def incidence(self) -> np.ndarray:
        """Oriented incidence matrix, one row per line (+1 from, -1 to)."""
        a = np.zeros((self.line_count, self.bus_count))
        for idx, line in enumerate(self.lines):
            a[idx, line.from_bus] = 1.0
            a[idx, line.to_bus] = -1.0
        return a


@dataclass(frozen=True, eq=False)
class LoadingMatrix:
    """Stacked shift factors ``rows = [H_hat; -H_hat]`` with limits ``[r; r]``.

    Row ``l`` (0 <= l < L) is the forward direction of line ``l``; row
    ``l + L`` is its negation (reverse direction).  ``scenario_limits``, when
    present, overrides ``limits`` per scenario (shape ``(S, 2L)``).
    """

    rows: np.ndarray
    limits: np.ndarray
    scenario_limits: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        limits = np.asarray(self.limits, dtype=float)
        if rows.ndim != 2 or rows.shape[0] % 2 != 0:
            raise ValueError("rows must be a (2L, N) matrix")
        if limits.shape != (rows.shape[0],):
            raise ValueError("limits must have one entry per row")
        if not np.isfinite(rows).all():
            raise ValueError("rows must be finite")
        if not (limits > 0).all():  # NaN fails too; inf is no limit, as for Line
            raise ValueError(f"limits must be positive, got {limits[~(limits > 0)][0]}")
        rows.setflags(write=False)
        limits.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "limits", limits)
        if self.scenario_limits is not None:
            sl = np.asarray(self.scenario_limits, dtype=float)
            if sl.ndim != 2 or sl.shape[1] != rows.shape[0]:
                raise ValueError("scenario_limits must have shape (S, 2L)")
            if not (sl > 0).all():
                raise ValueError(f"scenario_limits must be positive, got {sl[~(sl > 0)][0]}")
            sl.setflags(write=False)
            object.__setattr__(self, "scenario_limits", sl)

    @property
    def line_count(self) -> int:
        return self.rows.shape[0] // 2

    @property
    def bus_count(self) -> int:
        return self.rows.shape[1]

    def limits_for(self, scenario: int | None = None) -> np.ndarray:
        """One scenario's limits; ``scenario`` may be ``None`` only without ``scenario_limits``."""
        if self.scenario_limits is None:
            return self.limits
        if scenario is None:
            raise ValueError("per-scenario limits need a scenario index")
        return self.scenario_limits[scenario]

    def stacked_limits(self, scenario_count: int) -> np.ndarray:
        """Limits as ``(S, 2L)``: ``scenario_limits``, or ``limits`` in every scenario."""
        if self.scenario_limits is None:
            return np.broadcast_to(self.limits, (scenario_count, self.limits.size))
        rows = len(self.scenario_limits)
        if rows != scenario_count:
            raise ValueError(f"scenario_limits has {rows} rows for {scenario_count} scenarios")
        return self.scenario_limits

    def with_scenario_capacities(self, capacities: np.ndarray) -> "LoadingMatrix":
        """Attach per-scenario line capacities (shape ``(S, L)``)."""
        caps = np.asarray(capacities, dtype=float)
        if caps.ndim != 2 or caps.shape[1] != self.line_count:
            raise ValueError("capacities must have shape (S, L)")
        return LoadingMatrix(self.rows, self.limits, np.hstack([caps, caps]))


def build_loading_matrix(network: Network) -> LoadingMatrix:
    """Shift factors via the reduced weighted-Laplacian inverse.

    For any balanced injection ``p`` (sum zero), ``H_hat @ p`` is the DC line
    flow vector with the network's reference bus as the angle reference.
    Exact for the DC model; O(N^3) which is fine at the scale used here.
    The network's ``scenario_capacities``, if any, become ``scenario_limits``.
    """
    n, ref = network.bus_count, network.reference_bus
    a = network.incidence()
    b = np.array([1.0 / line.reactance for line in network.lines])
    lap = a.T @ (b[:, None] * a)
    keep = [i for i in range(n) if i != ref]
    h_hat = np.zeros((network.line_count, n))
    if keep:
        reduced = lap[np.ix_(keep, keep)]
        try:
            sol = np.linalg.solve(reduced, (b[:, None] * a[:, keep]).T)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by Network
            raise DisconnectedNetworkError("singular susceptance matrix") from exc
        h_hat[:, keep] = sol.T
    caps = np.array([line.capacity for line in network.lines])
    lm = LoadingMatrix(np.vstack([h_hat, -h_hat]), np.concatenate([caps, caps]))
    if network.scenario_capacities is not None:
        lm = lm.with_scenario_capacities(network.scenario_capacities)
    return lm


def _as_scenario_major(x: np.ndarray, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"injections must have shape (S, {n}) or ({n},)")
    if not np.all(np.isfinite(arr)):
        # NaNs would sail through the one-sided comparisons below.
        raise ValueError("injections must be finite")
    return arr


def _state_and_direction(lm: LoadingMatrix, x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x_arr = _as_scenario_major(x, lm.bus_count)
    q_arr = _as_scenario_major(q, lm.bus_count)
    if x_arr.shape != q_arr.shape:
        raise ValueError("state and direction must have matching shapes")
    return x_arr, q_arr


def _loading(lm: LoadingMatrix, x: np.ndarray) -> np.ndarray:
    """Row loadings ``(S, 2L)``, bit for bit ``lm.rows @ x[s]`` per scenario (``x @ rows.T`` is not)."""
    return (lm.rows @ x[..., None])[..., 0]


def _excess(lm: LoadingMatrix, x: np.ndarray) -> np.ndarray:
    """Loading minus limit ``(S, 2L)``; positive entries are violations."""
    return _loading(lm, x) - lm.stacked_limits(x.shape[0])


def _binding(excess: np.ndarray) -> np.ndarray:
    if np.any(excess > BINDING_TOL):
        worst = float(excess.max())
        raise ValueError(f"injection infeasible by {worst:.3e} MW; binding set undefined")
    return np.abs(excess) <= BINDING_TOL


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a feasibility check over all scenarios.

    ``line_violations`` holds ``(row, scenario, excess)`` triples for rows
    exceeding their limit beyond tolerance; ``balance_residuals`` holds the
    per-scenario injection sums.
    """

    line_violations: tuple[tuple[int, int, float], ...]
    balance_residuals: tuple[float, ...]

    @property
    def balanced(self) -> bool:
        return all(abs(r) <= BALANCE_TOL for r in self.balance_residuals)

    @property
    def ok(self) -> bool:
        return not self.line_violations and self.balanced


def check_feasible(lm: LoadingMatrix, x: np.ndarray) -> ViolationReport:
    """Report every (row, scenario) limit violation beyond ``FEASIBILITY_TOL`` and balance residual."""
    arr = _as_scenario_major(x, lm.bus_count)
    excess = _excess(lm, arr)
    violations = tuple(
        (int(row), int(s), float(excess[s, row])) for s, row in np.argwhere(excess > FEASIBILITY_TOL)
    )
    return ViolationReport(violations, tuple(arr.sum(axis=1).tolist()))


def binding_mask(lm: LoadingMatrix, x: np.ndarray) -> np.ndarray:
    """``(S, 2L)`` mask of the rows loaded within ``BINDING_TOL`` of their limit.

    The state must be feasible within ``BINDING_TOL`` in every scenario.
    """
    return _binding(_excess(lm, _as_scenario_major(x, lm.bus_count)))


def binding_lines(lm: LoadingMatrix, x_s: np.ndarray, scenario: int | None = None) -> tuple[int, ...]:
    """One scenario's rows loaded within ``BINDING_TOL`` of the limit, ascending.

    ``x_s`` is a single scenario's injection vector and must be feasible
    within ``BINDING_TOL`` against ``lm.limits_for(scenario)``; a matrix
    with ``scenario_limits`` needs ``scenario``, else ``ValueError``.
    """
    vec = np.asarray(x_s, dtype=float)
    if vec.shape != (lm.bus_count,):
        raise ValueError("binding_lines expects a single scenario vector")
    mask = _binding(_loading(lm, vec[None]) - lm.limits_for(scenario))
    return tuple(np.flatnonzero(mask[0]).tolist())


def is_feasible_direction(lm: LoadingMatrix, x: np.ndarray, q: np.ndarray) -> bool:
    """True iff ``q`` does not increase loading on any binding row, any scenario."""
    x_arr, q_arr = _state_and_direction(lm, x, q)
    increase = _loading(lm, q_arr)
    return not np.any(binding_mask(lm, x_arr) & (increase > DIRECTION_TOL))


def curtailment_factors(lm: LoadingMatrix, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Largest ``gamma[s]`` in [0, 1] with ``x[s] + gamma[s] * q[s]`` feasible, by ratio test.

    The state must already be feasible.  Rows with loading increase at or
    below ``DIRECTION_TOL`` never constrain a factor.  A binding row loaded
    beyond ``DIRECTION_TOL`` yields 0 for its scenario.  Closed form, no search.
    """
    x_arr, q_arr = _state_and_direction(lm, x, q)
    headroom = lm.stacked_limits(x_arr.shape[0]) - _loading(lm, x_arr)
    if np.any(headroom < -FEASIBILITY_TOL):
        raise ValueError("curtailment_factor requires a feasible state")
    increase = _loading(lm, q_arr)
    active = increase > DIRECTION_TOL
    ratios = np.divide(
        np.maximum(headroom, 0.0), increase, out=np.full(increase.shape, np.inf), where=active
    )
    return np.maximum(ratios.min(axis=1, initial=1.0), 0.0)


def curtailment_factor(lm: LoadingMatrix, x: np.ndarray, q: np.ndarray) -> float:
    """Largest gamma in [0, 1] with ``x + gamma * q`` feasible: the least of the
    per-scenario factors.  Zero, which callers treat as a rejection, means no headroom.
    """
    return float(curtailment_factors(lm, x, q).min())
