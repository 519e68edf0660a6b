"""The benchmark's workloads: what each operation runs, times and checks.

An operation is one market, tree instance or interval sequence.  ``run``
calls the library through its module attributes (so a tracer's wrappers
see the calls) and adds the durations users wait on to a :class:`PassTimes`;
``check`` applies the correctness gates to the outputs; ``digest`` hashes
the outputs at full precision so repetitions can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import markets

EPSILON = 1e-3
FEAS_TOL = 1e-8
BALANCE_TOL = 1e-9


@dataclass
class PassTimes:
    """Durations of one pass over a workload's operations, in wall-clock seconds."""

    wall: float = 0.0
    trade: float = 0.0
    dispatch: float = 0.0
    equilibrium: float = 0.0
    step_ms: list = field(default_factory=list)


class StepTimer:
    """Proposer wrapper noting each ``propose`` entry; a step runs entry to entry."""

    def __init__(self, inner, entries: list):
        self.inner = inner
        self.entries = entries

    def propose(self, market, state, announcements, epsilon, rng):
        self.entries.append(time.perf_counter())
        return self.inner.propose(market, state, announcements, epsilon, rng)


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _arrays(mapping) -> bytes:
    return b"".join(np.asarray(mapping[k], dtype=float).tobytes() for k in sorted(mapping))


@dataclass
class TradingOp:
    """Trade to the certificate, then solve the benchmark, check equilibrium, write the trace."""

    index: int
    market: object
    lm: object
    config: object
    strategy: object

    def run(self, times: PassTimes):
        from gridtrade import dispatch, market_io, proposer, trading

        entries: list[float] = []
        timed = StepTimer(proposer.make_proposer(self.strategy, self.lm), entries)
        t0 = time.perf_counter()
        result = trading.run_trading(self.market, self.config, timed, self.lm)
        t1 = time.perf_counter()
        solution = dispatch.solve_dispatch(self.market, self.lm)
        t2 = time.perf_counter()
        report = dispatch.check_arrow_debreu(
            self.market, solution.plans, solution.x, solution.lambda_, lm=self.lm
        )
        t3 = time.perf_counter()
        buf = io.StringIO()
        market_io.write_trace(result.state.records, buf)
        times.trade += t1 - t0
        times.dispatch += t2 - t1
        times.equilibrium += t3 - t2
        times.step_ms.extend(1e3 * np.diff(entries))
        return result, solution, report, buf.getvalue()

    def check(self, outcome) -> list[str]:
        from gridtrade.dispatch import welfare_gap

        result, solution, report, _ = outcome
        problems = []
        if not result.converged or not result.certified_bound < self.config.epsilon:
            problems.append(f"not certified: converged={result.converged} bound={result.certified_bound}")
        gap = welfare_gap(self.market, dict(result.state.y), solution)
        if gap > self.config.epsilon * (1.0 + abs(solution.objective)):
            problems.append(f"oracle gap {gap:.3e}")
        scenario_limits = self.lm.scenario_limits is not None
        for k, x in enumerate(intermediate_states(result, self.market)):
            for s in range(x.shape[0]):
                limits = self.lm.limits_for(s if scenario_limits else None)
                excess = float(np.max(self.lm.rows @ x[s] - limits))
                if excess > FEAS_TOL:
                    problems.append(f"state {k} scenario {s}: line limit exceeded by {excess:.3e} MW")
                if abs(float(x[s].sum())) > BALANCE_TOL:
                    problems.append(f"state {k} scenario {s}: balance {x[s].sum():.3e} MW")
        if not report.verdict:
            problems.append("equilibrium verdict false")
        return problems

    def digest(self, outcome) -> str:
        result, solution, report, trace = outcome
        return _hash(
            trace.encode(), result.state.x.tobytes(), _arrays(result.state.y),
            solution.x.tobytes(), solution.lambda_.tobytes(), report.verdict,
        )

    def trace_digest(self, outcome) -> str:
        return _hash(outcome[3].encode())


def intermediate_states(result, market) -> list[np.ndarray]:
    """Network states after each accepted record, replayed from the records."""
    x = np.zeros((market.scenario_count, market.network.bus_count))
    states = [x]
    for record in result.state.records:
        if record.accepted:
            gamma = (
                np.asarray(record.gamma_by_scenario)[:, None]
                if record.gamma_by_scenario is not None
                else record.gamma
            )
            x = x + gamma * record.nodal
            states.append(x)
    return states


@dataclass
class DispatchOp:
    """Benchmark solve and equilibrium check only, no trading."""

    index: int
    market: object
    lm: object

    def run(self, times: PassTimes):
        from gridtrade import dispatch

        t0 = time.perf_counter()
        solution = dispatch.solve_dispatch(self.market, self.lm)
        t1 = time.perf_counter()
        report = dispatch.check_arrow_debreu(
            self.market, solution.plans, solution.x, solution.lambda_, lm=self.lm
        )
        t2 = time.perf_counter()
        times.dispatch += t1 - t0
        times.equilibrium += t2 - t1
        return solution, report

    def check(self, outcome) -> list[str]:
        return [] if outcome[1].verdict else ["equilibrium verdict false"]

    def digest(self, outcome) -> str:
        solution, report = outcome
        return _hash(solution.x.tobytes(), solution.lambda_.tobytes(), _arrays(solution.plans),
                     report.verdict, sorted(report.participant_slack.items()))

    trace_digest = digest


@dataclass
class TreeOp:
    """Sequential and conformal decompositions of one radial instance."""

    index: int
    network: object
    trade: list
    state: list
    orders: list

    def run(self, times: PassTimes):
        from gridtrade import tree

        return (
            tree.decompose_sequential(self.network, self.trade, self.state),
            tree.decompose_conformal(self.network, self.trade, self.state),
        )

    def check(self, outcome) -> list[str]:
        """Acceptance criterion 6 on this instance, replay orders included."""
        from gridtrade.tree import tree_flows

        seq, conf = outcome
        n = self.network.bus_count
        caps = [Fraction(line.capacity) for line in self.network.lines]
        base = tree_flows(self.network, self.state)

        def total(components):
            vec = [Fraction(0)] * n
            for c in components:
                vec[c.supply_bus] += c.quantity
                vec[c.demand_bus] -= c.quantity
            return vec

        def prefix_ok(components):
            flows = list(base)
            for c in components:
                flows = [f + s for f, s in zip(flows, tree_flows(self.network, c.as_vector(n)))]
                if any(abs(f) > cap for f, cap in zip(flows, caps)):
                    return False
            return True

        problems = []
        if total(seq) != list(self.trade) or not prefix_ok(seq):
            problems.append("sequential decomposition")
        whole = tree_flows(self.network, self.trade)
        conformal = all(
            a * b >= 0
            for c in conf
            for a, b in zip(tree_flows(self.network, c.as_vector(n)), whole)
        )
        if total(conf) != list(self.trade) or not conformal:
            problems.append("conformal decomposition")
        if not all(prefix_ok([conf[i] for i in order]) for order in self.orders):
            problems.append("conformal replay order infeasible")
        return problems

    def digest(self, outcome) -> str:
        return _hash(outcome)

    trace_digest = digest


@dataclass
class RobustOp:
    """One interval-trade sequence under robust curtailment."""

    index: int
    market: object
    lm: object
    trades: list

    def run(self, times: PassTimes):
        from gridtrade import robust

        state = robust.IntervalState.initial(self.market.network.bus_count)
        for trade in self.trades:
            _, state = robust.accept_interval_trade(state, trade, self.lm, self.market)
        return state

    def check(self, state) -> list[str]:
        """Acceptance criterion 8: closed form equals bisection; every corner is feasible."""
        from gridtrade.robust import (
            IntervalState,
            bisection_curtailment_factor,
            robust_curtailment_factor,
        )

        problems = []
        replay = IntervalState.initial(self.market.network.bus_count)
        for k, record in enumerate(state.records):
            closed = robust_curtailment_factor(self.lm, replay, record.q_lower, record.q_upper)
            iterated = bisection_curtailment_factor(self.lm, replay, record.q_lower, record.q_upper)
            if abs(closed - iterated) > FEAS_TOL or closed != record.gamma:
                problems.append(f"trade {k}: factor {record.gamma} closed {closed} bisection {iterated}")
            if record.accepted:
                replay = IntervalState(replay.x_lower + record.gamma * record.q_lower,
                                       replay.x_upper + record.gamma * record.q_upper)
        spans = [(r.gamma * r.q_lower, r.gamma * r.q_upper) for r in state.records if r.accepted]
        wides = [[n for n in range(lo.size) if hi[n] - lo[n] > 0] for lo, hi in spans]
        if sum(len(w) for w in wides) > 12:
            return problems + ["more than 12 uncertain injections"]
        for bits in itertools.product(*[itertools.product((0, 1), repeat=len(w)) for w in wides]):
            x = np.zeros(self.market.network.bus_count)
            for (lo, hi), wide, chosen in zip(spans, wides, bits):
                realised = lo.copy()
                for n, bit in zip(wide, chosen):
                    if bit:
                        realised[n] = hi[n]
                x += realised
            if np.any(self.lm.rows @ x > self.lm.limits + FEAS_TOL):
                problems.append(f"corner {bits} infeasible")
                break
        return problems

    def digest(self, state) -> str:
        return _hash(state.x_lower.tobytes(), state.x_upper.tobytes(),
                     [(r.gamma, r.accepted) for r in state.records])

    trace_digest = digest


@dataclass(frozen=True)
class Tier:
    """A family of scaled markets: ``systems`` fixed test systems of one size."""

    tag: int
    buses: int
    scenarios: int
    participants: int
    systems: int

    def markets(self, seed: int):
        """One market per system; the system is fixed, the seed draws its operating point."""
        return [
            markets.scaled_market(
                np.random.default_rng([self.tag, i]),
                np.random.default_rng([seed, self.tag, i]),
                self.buses, self.scenarios, self.participants,
            )
            for i in range(self.systems)
        ]


MEDIUM = Tier(tag=20, buses=20, scenarios=16, participants=40, systems=6)
SUBSET = Tier(tag=8, buses=8, scenarios=6, participants=16, systems=12)
SUBSET_CONDITIONS = 0
LARGE = Tier(tag=40, buses=40, scenarios=24, participants=80, systems=6)


def build_fleet(seed: int) -> list:
    """Acceptance fleet, tree and robust draws; the seed only shuffles their order."""
    from gridtrade import network
    from gridtrade.proposer import ProposerStrategy
    from gridtrade.trading import EngineConfig

    ops: list = []
    for market in markets.fleet_markets():
        ops.append(TradingOp(len(ops), market, network.build_loading_matrix(market.network),
                             EngineConfig(epsilon=EPSILON), ProposerStrategy("full_group")))
    for net, trade, state, orders in markets.tree_instances():
        ops.append(TreeOp(len(ops), net, trade, state, orders))
    for market, trades in markets.robust_instances():
        ops.append(RobustOp(len(ops), market, network.build_loading_matrix(market.network), trades))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def build_medium(seed: int) -> list:
    from gridtrade import network
    from gridtrade.proposer import ProposerStrategy
    from gridtrade.trading import EngineConfig

    return [
        TradingOp(i, m, network.build_loading_matrix(m.network),
                  EngineConfig(epsilon=EPSILON), ProposerStrategy("full_group"))
        for i, m in enumerate(MEDIUM.markets(seed))
    ]


def build_subset(seed: int) -> list:
    """Random-subset trading on fixed inputs; the seed only shuffles their order.

    Any change to a market's numbers moves its random-subset trajectory, and
    with it the time to certificate, by about 25%.  Drawing the operating
    point from the seed, as the other scaled tiers do, spread ten-seed
    medians of ``wall_s`` by 0.21 of their median on top of the host's own
    drift, close to the largest bound the benchmark may set.
    """
    from gridtrade import network
    from gridtrade.proposer import ProposerStrategy
    from gridtrade.trading import EngineConfig

    ops = []
    for i, m in enumerate(SUBSET.markets(SUBSET_CONDITIONS)):
        rng = np.random.default_rng([SUBSET_CONDITIONS, SUBSET.tag, i, 1])
        lm = network.build_loading_matrix(m.network).with_scenario_capacities(
            markets.scenario_capacities(rng, m)
        )
        strategy = ProposerStrategy("random_subsets", max_size=3, attempts=20,
                                    seed=int(rng.integers(2**31)))
        config = EngineConfig(epsilon=EPSILON, curtailment_mode="hybrid")
        ops.append(TradingOp(i, m, lm, config, strategy))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def build_large(seed: int) -> list:
    from gridtrade import network

    return [
        DispatchOp(i, m, network.build_loading_matrix(m.network))
        for i, m in enumerate(LARGE.markets(seed))
    ]


BUILDERS = {
    "fleet": build_fleet,
    "medium_full": build_medium,
    "subset_hybrid": build_subset,
    "dispatch_large": build_large,
}

SIZES = {
    "fleet": {"markets": markets.FLEET_SIZE, "market_seed": markets.FLEET_SEED,
              "max_buses": 6, "max_scenarios": 4, "max_participants": 10,
              "tree_instances": markets.TREE_COUNT, "tree_seed": markets.TREE_SEED,
              "robust_sequences": markets.ROBUST_COUNT, "robust_seed": markets.ROBUST_SEED},
    "medium_full": vars(MEDIUM),
    "subset_hybrid": {**vars(SUBSET), "conditions_seed": SUBSET_CONDITIONS},
    "dispatch_large": vars(LARGE),
}
