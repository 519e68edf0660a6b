"""Market aggregate: network, scenario set, and participant roster."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .network import Line, Network
from .participants import Participant, ScenarioSet, UtilityTable, evaluate_utility

__all__ = ["Market", "two_bus_market"]


@dataclass(frozen=True)
class Market:
    network: Network
    scenarios: ScenarioSet
    participants: tuple[Participant, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "participants", tuple(self.participants))
        caps = self.network.scenario_capacities
        if caps is not None and len(caps) != self.scenarios.count:
            raise ValueError(f"scenario_capacities has {len(caps)} rows for {self.scenarios.count} scenarios")
        seen: set[str] = set()
        for p in self.participants:
            if p.id in seen:
                raise ValueError(f"duplicate participant id {p.id!r}")
            seen.add(p.id)
            if not 0 <= p.bus < self.network.bus_count:
                raise ValueError(f"{p.id}: bus {p.bus} out of range")
            if p.scenario_count != self.scenarios.count:
                raise ValueError(f"{p.id}: expected {self.scenarios.count} scenarios")

    @property
    def scenario_count(self) -> int:
        return self.scenarios.count

    @cached_property
    def table(self) -> UtilityTable:
        """The roster as arrays, in participant order; built on first use."""
        return UtilityTable.of(self.participants, self.scenarios)

    @property
    def participant_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.participants)

    def aggregate_nodal(self, plans: Mapping[str, np.ndarray]) -> np.ndarray:
        """Per-scenario nodal injections (S, N): each plan added at its participant's bus, in order."""
        rows, stacked = self.table.stack(plans)
        x = np.zeros((self.scenario_count, self.network.bus_count))
        np.add.at(x.T, self.table.bus[rows], stacked)
        return x

    def total_utility(self, plans: dict[str, np.ndarray], subjective: bool = False) -> float:
        """Sum of participant utilities; market probabilities unless ``subjective``."""
        market_weights = self.scenarios.as_array()
        total = 0.0
        for p in self.participants:
            w = p.weights(self.scenarios) if subjective else market_weights
            total += evaluate_utility(p, plans[p.id], w)
        return total


def two_bus_market(line_capacity: float = 120.0) -> Market:
    """Bundled demonstration market: two buses joined by one line.

    A day-ahead coal plant (cost 50, up to 200 MW) and a free wind farm
    (100 MW windy / 50 MW breezy) sit at bus 0; a fast gas plant (cost 80,
    up to 100 MW) and a 150 MW load sit at bus 1.  Scenario probabilities
    are 0.6 / 0.4.  The load is elastic down to zero consumption with a
    large constant value per MWh so that restoring curtailed demand is
    always worthwhile.
    """
    network = Network(
        bus_count=2,
        lines=(Line(from_bus=0, to_bus=1, reactance=1.0, capacity=line_capacity),),
        reference_bus=1,
    )
    scenarios = ScenarioSet(probabilities=(0.6, 0.4), names=("windy", "breezy"))
    participants = (
        Participant.producer("G1", bus=0, timing="DA", capacity=(200.0, 200.0), marginal_cost=50.0),
        Participant.producer("G2", bus=0, timing="RT", capacity=(100.0, 50.0), marginal_cost=0.0),
        Participant.producer("G3", bus=1, timing="RT", capacity=(100.0, 100.0), marginal_cost=80.0),
        Participant.load("L", bus=1, timing="DA", max_demand=(150.0, 150.0), value=1000.0),
    )
    return Market(network, scenarios, participants)
