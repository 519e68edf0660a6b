"""Market file loading, validation, and canonical JSON output.

Market files are JSON with 1-based bus indices (as humans label diagrams);
everything in memory is 0-based.  Numbers are serialised with 12 significant
digits and all object keys in a fixed order, so outputs are diffable and two
runs with the same inputs produce byte-identical traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, IO

import numpy as np

from .market import Market
from .network import Line, Network
from .participants import Participant, ScenarioSet, UtilityFunction
from .proposer import ProposerStrategy
from .robust import IntervalTrade
from .trading import EngineConfig, TradeRecord, TradingResult

__all__ = [
    "MarketFormatError",
    "RunSpec",
    "load_market",
    "parse_market",
    "market_to_jsonable",
    "canonical",
    "dumps",
    "write_trace",
    "record_to_jsonable",
    "result_to_jsonable",
]


class MarketFormatError(ValueError):
    """Schema problem with a precise field path for diagnostics."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class RunSpec:
    """Everything a run needs: the market plus engine and proposer settings."""

    market: Market
    engine: EngineConfig
    strategy: ProposerStrategy
    interval_trades: tuple[IntervalTrade, ...] = ()


def _require(obj: dict, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise MarketFormatError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise MarketFormatError(f"{path}.{key}" if path else key, "required field is missing")
    return obj[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MarketFormatError(path, f"expected a number, got {value!r}")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MarketFormatError(path, f"expected an integer, got {value!r}")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise MarketFormatError(path, f"expected an array, got {type(value).__name__}")
    return value


def _bus_index(value: Any, bus_count: int, path: str) -> int:
    b = _integer(value, path)
    if not 1 <= b <= bus_count:
        raise MarketFormatError(path, f"bus {b} out of range 1..{bus_count}")
    return b - 1


def _parse_network(section: Any, scenario_count: int, path: str = "network") -> Network:
    buses = _integer(_require(section, "buses", path), f"{path}.buses")
    lines_json = _array(_require(section, "lines", path), f"{path}.lines")
    lines = []
    for i, rec in enumerate(lines_json):
        p = f"{path}.lines[{i}]"
        lines.append(
            Line(
                from_bus=_bus_index(_require(rec, "from", p), buses, f"{p}.from"),
                to_bus=_bus_index(_require(rec, "to", p), buses, f"{p}.to"),
                reactance=_number(_require(rec, "reactance", p), f"{p}.reactance"),
                capacity=_number(_require(rec, "capacity", p), f"{p}.capacity"),
            )
        )
    ref = _bus_index(_require(section, "reference_bus", path), buses, f"{path}.reference_bus")
    caps = None
    if "scenario_capacities" in section:
        p = f"{path}.scenario_capacities"
        rows = _array(section["scenario_capacities"], p)
        if len(rows) != scenario_count:
            raise MarketFormatError(p, f"expected {scenario_count} rows, one per scenario")
        caps = []
        for s, row in enumerate(rows):
            row = _array(row, f"{p}[{s}]")
            if len(row) != len(lines):
                raise MarketFormatError(f"{p}[{s}]", f"expected {len(lines)} ratings, one per line")
            caps.append(tuple(_number(v, f"{p}[{s}][{l}]") for l, v in enumerate(row)))
    try:
        return Network(bus_count=buses, lines=tuple(lines), reference_bus=ref,
                       scenario_capacities=None if caps is None else tuple(caps))
    except ValueError as exc:
        raise MarketFormatError(path, str(exc)) from exc


def _parse_utility(spec: Any, path: str) -> UtilityFunction:
    records = _array(spec, path)
    if len(records) < 2:
        raise MarketFormatError(path, "need at least two breakpoint records")
    breakpoints = []
    slopes = []
    for j, rec in enumerate(records):
        p = f"{path}[{j}]"
        breakpoints.append(_number(_require(rec, "breakpoint", p), f"{p}.breakpoint"))
        last = j == len(records) - 1
        if last:
            if "slope" in rec:
                raise MarketFormatError(f"{p}.slope", "final breakpoint closes the domain and takes no slope")
        else:
            slopes.append(_number(_require(rec, "slope", p), f"{p}.slope"))
    try:
        return UtilityFunction(tuple(breakpoints), tuple(slopes))
    except ValueError as exc:
        raise MarketFormatError(path, str(exc)) from exc


def _parse_participant(rec: Any, bus_count: int, n_scenarios: int, path: str) -> Participant:
    pid = _require(rec, "id", path)
    if not isinstance(pid, str) or not pid:
        raise MarketFormatError(f"{path}.id", "must be a non-empty string")
    bounds_json = _array(_require(rec, "bounds", path), f"{path}.bounds")
    if len(bounds_json) != n_scenarios:
        raise MarketFormatError(f"{path}.bounds", f"expected {n_scenarios} per-scenario intervals")
    bounds = []
    for s, pair in enumerate(bounds_json):
        p = f"{path}.bounds[{s}]"
        pair = _array(pair, p)
        if len(pair) != 2:
            raise MarketFormatError(p, "expected [lower, upper]")
        bounds.append((_number(pair[0], f"{p}[0]"), _number(pair[1], f"{p}[1]")))
    util_spec = _require(rec, "utility", path)
    util_list = _array(util_spec, f"{path}.utility")
    if util_list and isinstance(util_list[0], list):
        if len(util_list) != n_scenarios:
            raise MarketFormatError(f"{path}.utility", f"expected {n_scenarios} per-scenario functions")
        utility = tuple(_parse_utility(u, f"{path}.utility[{s}]") for s, u in enumerate(util_list))
    else:
        shared = _parse_utility(util_list, f"{path}.utility")
        utility = (shared,) * n_scenarios
    subjective = rec.get("subjective_probabilities")
    if subjective is not None:
        subjective = tuple(
            _number(v, f"{path}.subjective_probabilities[{s}]")
            for s, v in enumerate(_array(subjective, f"{path}.subjective_probabilities"))
        )
    try:
        return Participant(
            id=pid,
            bus=_bus_index(_require(rec, "bus", path), bus_count, f"{path}.bus"),
            kind=_require(rec, "kind", path),
            timing=_require(rec, "timing", path),
            bounds=tuple(bounds),
            utility=utility,
            subjective_probabilities=subjective,
        )
    except ValueError as exc:
        raise MarketFormatError(path, str(exc)) from exc


def parse_market(doc: Any) -> RunSpec:
    if not isinstance(doc, dict):
        raise MarketFormatError("$", "top level must be a JSON object")
    scen_sec = _require(doc, "scenarios", "")
    probs = tuple(
        _number(v, f"scenarios.probabilities[{i}]")
        for i, v in enumerate(_array(_require(scen_sec, "probabilities", "scenarios"), "scenarios.probabilities"))
    )
    names = scen_sec.get("names")
    if names is not None:
        names = tuple(str(x) for x in _array(names, "scenarios.names"))
    try:
        scenarios = ScenarioSet(probabilities=probs, names=names)
    except ValueError as exc:
        raise MarketFormatError("scenarios", str(exc)) from exc
    network = _parse_network(_require(doc, "network", ""), scenarios.count)

    parts_json = _array(_require(doc, "participants", ""), "participants")
    if not parts_json:
        raise MarketFormatError("participants", "at least one participant is required")
    participants = tuple(
        _parse_participant(rec, network.bus_count, scenarios.count, f"participants[{i}]")
        for i, rec in enumerate(parts_json)
    )
    try:
        market = Market(network, scenarios, participants)
    except ValueError as exc:
        raise MarketFormatError("participants", str(exc)) from exc

    engine_sec = doc.get("engine", {})
    if not isinstance(engine_sec, dict):
        raise MarketFormatError("engine", "expected an object")
    max_steps = _integer(engine_sec.get("max_steps", 500), "engine.max_steps")
    engine_seed = _integer(engine_sec.get("seed", 0), "engine.seed")
    try:
        engine = EngineConfig(
            epsilon=float(engine_sec.get("epsilon", 1e-3)),
            curtailment_mode=engine_sec.get("curtailment", "uniform"),
            max_steps=max_steps, seed=engine_seed,
        )
    except (TypeError, ValueError) as exc:
        raise MarketFormatError("engine", str(exc)) from exc
    prop_sec = engine_sec.get("proposer", {})
    if isinstance(prop_sec, str):
        prop_sec = {"mode": prop_sec}
    if not isinstance(prop_sec, dict):
        raise MarketFormatError("engine.proposer", "expected an object or mode string")
    max_size = _integer(prop_sec.get("max_size", 2), "engine.proposer.max_size")
    attempts = _integer(prop_sec.get("attempts", 20), "engine.proposer.attempts")
    proposer_seed = prop_sec.get("seed")
    if proposer_seed is not None:
        proposer_seed = _integer(proposer_seed, "engine.proposer.seed")
    try:
        strategy = ProposerStrategy(
            mode=prop_sec.get("mode", "full_group"),
            max_size=max_size,
            attempts=attempts,
            seed=proposer_seed,
        )
    except (TypeError, ValueError) as exc:
        raise MarketFormatError("engine.proposer", str(exc)) from exc

    interval_trades = []
    for i, rec in enumerate(_array(doc.get("interval_trades", []), "interval_trades")):
        p = f"interval_trades[{i}]"
        lower = _require(rec, "lower", p)
        upper = _require(rec, "upper", p)
        if not isinstance(lower, dict) or not isinstance(upper, dict):
            raise MarketFormatError(p, "lower/upper must map participant ids to MW")
        for pid in set(lower) | set(upper):
            if pid not in market.participant_ids:
                raise MarketFormatError(p, f"unknown participant id {pid!r}")
        try:
            interval_trades.append(IntervalTrade(lower=lower, upper=upper))
        except ValueError as exc:
            raise MarketFormatError(p, str(exc)) from exc

    return RunSpec(market, engine, strategy, tuple(interval_trades))


def load_market(path: "str | Path") -> RunSpec:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MarketFormatError(str(path), f"cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MarketFormatError(
            str(path), f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_market(doc)


def _utility_to_jsonable(u: UtilityFunction) -> list:
    out = []
    for j, b in enumerate(u.breakpoints):
        rec: dict[str, Any] = {"breakpoint": b}
        if j < len(u.slopes):
            rec["slope"] = u.slopes[j]
        out.append(rec)
    return out


def market_to_jsonable(spec_or_market: "RunSpec | Market") -> dict:
    spec = spec_or_market
    if isinstance(spec, Market):
        spec = RunSpec(spec, EngineConfig(), ProposerStrategy())
    market, engine, strategy = spec.market, spec.engine, spec.strategy
    net = market.network
    doc: dict[str, Any] = {
        "network": {
            "buses": net.bus_count,
            "lines": [
                {
                    "from": line.from_bus + 1,
                    "to": line.to_bus + 1,
                    "reactance": line.reactance,
                    "capacity": line.capacity,
                }
                for line in net.lines
            ],
            "reference_bus": net.reference_bus + 1,
        },
        "scenarios": {"probabilities": list(market.scenarios.probabilities)},
        "participants": [],
        "engine": {
            "epsilon": engine.epsilon,
            "curtailment": engine.curtailment_mode,
            "max_steps": engine.max_steps,
            "seed": engine.seed,
            "proposer": {
                "mode": strategy.mode,
                "max_size": strategy.max_size,
                "attempts": strategy.attempts,
            },
        },
    }
    if net.scenario_capacities is not None:
        doc["network"]["scenario_capacities"] = [list(row) for row in net.scenario_capacities]
    if strategy.seed is not None:
        doc["engine"]["proposer"]["seed"] = strategy.seed
    if market.scenarios.names is not None:
        doc["scenarios"]["names"] = list(market.scenarios.names)
    for p in market.participants:
        rec: dict[str, Any] = {
            "id": p.id,
            "bus": p.bus + 1,
            "kind": p.kind,
            "timing": p.timing,
            "bounds": [[lo, hi] for lo, hi in p.bounds],
        }
        if all(u == p.utility[0] for u in p.utility[1:]):
            rec["utility"] = _utility_to_jsonable(p.utility[0])
        else:
            rec["utility"] = [_utility_to_jsonable(u) for u in p.utility]
        if p.subjective_probabilities is not None:
            rec["subjective_probabilities"] = list(p.subjective_probabilities)
        doc["participants"].append(rec)
    if spec.interval_trades:
        doc["interval_trades"] = [{"lower": dict(t.lower), "upper": dict(t.upper)}
                                  for t in spec.interval_trades]
    return doc


def canonical(value: Any) -> Any:
    """Recursively round floats to 12 significant digits for stable output."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(f"{float(value):.12g}") + 0.0  # +0.0 folds -0.0 into 0.0
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [canonical(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def dumps(value: Any, indent: int | None = 2) -> str:
    return json.dumps(canonical(value), indent=indent, allow_nan=False)


def record_to_jsonable(record: TradeRecord) -> dict:
    gamma: Any = record.gamma
    if record.gamma_by_scenario is not None:
        gamma = list(record.gamma_by_scenario)
    return {
        "step": record.step,
        "group": list(record.trade.group),
        "plans": {pid: list(record.trade.plans[pid]) for pid in record.trade.group},
        "gamma": gamma,
        "accepted": record.accepted,
        "reasons": list(record.reasons),
        "welfare_delta": record.welfare_delta,
        "binding_lines_after": [list(rows) for rows in record.binding_after],
    }


def write_trace(records, fp: IO[str]) -> None:
    for record in records:
        fp.write(json.dumps(canonical(record_to_jsonable(record)), allow_nan=False))
        fp.write("\n")


def result_to_jsonable(result: TradingResult, market: Market, oracle_gap: float | None = None) -> dict:
    state = result.state
    doc = {
        "steps": result.steps,
        "converged": result.converged,
        "certified_bound": result.certified_bound,
        "final_welfare": result.final_welfare,
        "final_state": {
            "plans": {pid: list(state.y[pid]) for pid in market.participant_ids},
            "injections": [list(row) for row in state.x],
        },
    }
    if oracle_gap is not None:
        doc["oracle_gap"] = oracle_gap
    return doc
