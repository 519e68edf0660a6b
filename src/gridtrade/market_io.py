"""Input parsing, validation, and canonical JSON output.

Values from outside (market files, other JSON files through ``read_json`` and
``parse_matrix``, command-line vectors through ``parse_vector``, output
directories through ``output_dir``) are checked here; each problem raises
:class:`MarketFormatError` naming its field or flag.

Market files are JSON with 1-based bus indices (as humans label diagrams);
everything in memory is 0-based.  Numbers are serialised with 12 significant
digits and all object keys in a fixed order, so outputs are diffable and two
runs with the same inputs produce byte-identical traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
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
    "read_json",
    "parse_matrix",
    "parse_vector",
    "output_dir",
    "market_to_jsonable",
    "canonical",
    "dumps",
    "write_trace",
    "record_to_jsonable",
    "result_to_jsonable",
]


class MarketFormatError(ValueError):
    """Problem with an outside value, naming its field path, flag or file."""

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
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise MarketFormatError(path, f"expected a finite number, got {value!r}")
    return number


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MarketFormatError(path, f"expected an integer, got {value!r}")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise MarketFormatError(path, f"expected an array, got {type(value).__name__}")
    return value


def _numbers(value: Any, path: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{path}[{k}]") for k, v in enumerate(_array(value, path)))


def parse_matrix(value: Any, shape: tuple[int, int], path: str, columns: str) -> tuple[tuple[float, ...], ...]:
    """One row per scenario of finite numbers; ``columns`` names a row's entries."""
    rows = tuple(_numbers(row, f"{path}[{s}]") for s, row in enumerate(_array(value, path)))
    if len(rows) != shape[0]:
        raise MarketFormatError(path, f"expected {shape[0]} rows, one per scenario")
    for s, row in enumerate(rows):
        if len(row) != shape[1]:
            raise MarketFormatError(f"{path}[{s}]", f"expected {shape[1]} {columns}")
    return rows


def parse_vector(text: str, length: int, flag: str) -> list[Fraction]:
    """Comma-separated exact values such as ``5/2,-3/2,-1``, one per bus."""
    try:
        values = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise MarketFormatError(flag, f"expected exact numbers such as 5/2 or -1.5, got {text!r}") from exc
    if len(values) != length:
        raise MarketFormatError(flag, f"expected {length} comma-separated per-bus values, got {len(values)}")
    return values


def _bus_index(value: Any, bus_count: int, path: str) -> int:
    b = _integer(value, path)
    if not 1 <= b <= bus_count:
        raise MarketFormatError(path, f"bus {b} out of range 1..{bus_count}")
    return b - 1


def _parse_network(section: Any, scenario_count: int) -> Network:
    path = "network"
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
        caps = parse_matrix(section["scenario_capacities"], (scenario_count, len(lines)),
                            f"{path}.scenario_capacities", "ratings, one per line")
    try:
        return Network(bus_count=buses, lines=tuple(lines), reference_bus=ref, scenario_capacities=caps)
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
    bounds = parse_matrix(_require(rec, "bounds", path), (n_scenarios, 2), f"{path}.bounds",
                          "numbers, [lower, upper]")
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
        subjective = _numbers(subjective, f"{path}.subjective_probabilities")
    try:
        return Participant(
            id=pid,
            bus=_bus_index(_require(rec, "bus", path), bus_count, f"{path}.bus"),
            kind=_require(rec, "kind", path),
            timing=_require(rec, "timing", path),
            bounds=bounds,
            utility=utility,
            subjective_probabilities=subjective,
        )
    except ValueError as exc:
        raise MarketFormatError(path, str(exc)) from exc


def _as_given(value: Any, path: str) -> Any:
    return value


# File key -> (field, parser) for the run settings; the dataclasses validate
# the parsed values and hold the defaults for every key a file leaves out.
_ENGINE_KEYS = {"epsilon": ("epsilon", _number), "curtailment": ("curtailment_mode", _as_given),
                "max_steps": ("max_steps", _integer), "seed": ("seed", _integer)}
_PROPOSER_KEYS = {"mode": ("mode", _as_given), "max_size": ("max_size", _integer),
                  "attempts": ("attempts", _integer), "seed": ("seed", _integer)}


def _settings(section: Any, path: str, keys: dict, cls: type) -> Any:
    if not isinstance(section, dict):
        raise MarketFormatError(path, "expected an object")
    given = {field: parse(section[key], f"{path}.{key}") for key, (field, parse) in keys.items() if key in section}
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise MarketFormatError(path, str(exc)) from exc


def _fields(settings: Any, keys: dict) -> dict:
    """``settings`` keyed as :func:`_settings` reads them, leaving out ``None`` fields."""
    return {key: getattr(settings, f) for key, (f, _) in keys.items() if getattr(settings, f) is not None}


def parse_market(doc: Any) -> RunSpec:
    if not isinstance(doc, dict):
        raise MarketFormatError("$", "top level must be a JSON object")
    scen_sec = _require(doc, "scenarios", "")
    probs = _numbers(_require(scen_sec, "probabilities", "scenarios"), "scenarios.probabilities")
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
    engine = _settings(engine_sec, "engine", _ENGINE_KEYS, EngineConfig)
    strategy = _settings(engine_sec.get("proposer", {}), "engine.proposer", _PROPOSER_KEYS, ProposerStrategy)

    interval_trades = []
    for i, rec in enumerate(_array(doc.get("interval_trades", []), "interval_trades")):
        p = f"interval_trades[{i}]"
        lower = _require(rec, "lower", p)
        upper = _require(rec, "upper", p)
        if not isinstance(lower, dict) or not isinstance(upper, dict):
            raise MarketFormatError(p, "lower/upper must map participant ids to MW")
        for pid in sorted(set(lower) | set(upper)):
            if pid not in market.participant_ids:
                raise MarketFormatError(p, f"unknown participant id {pid!r}")
        lower = {pid: _number(v, f"{p}.lower.{pid}") for pid, v in lower.items()}
        upper = {pid: _number(v, f"{p}.upper.{pid}") for pid, v in upper.items()}
        try:
            interval_trades.append(IntervalTrade(lower=lower, upper=upper))
        except ValueError as exc:
            raise MarketFormatError(p, str(exc)) from exc

    return RunSpec(market, engine, strategy, tuple(interval_trades))


def read_json(path: "str | Path") -> Any:
    """The JSON document in the file at ``path``."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MarketFormatError(str(path), f"cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MarketFormatError(
            str(path), f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def output_dir(path: "str | Path") -> Path:
    """The directory at ``path``, created if missing; a path that cannot be one is an input error."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MarketFormatError("--out", f"cannot create directory: {exc}") from exc
    return path


def load_market(path: "str | Path") -> RunSpec:
    return parse_market(read_json(path))


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
            **_fields(engine, _ENGINE_KEYS),
            "proposer": _fields(strategy, _PROPOSER_KEYS),
        },
    }
    if net.scenario_capacities is not None:
        doc["network"]["scenario_capacities"] = [list(row) for row in net.scenario_capacities]
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
        "binding_lines_after": [np.flatnonzero(rows).tolist() for rows in record.binding_after],
    }


def write_trace(records, fp: IO[str]) -> None:
    for record in records:
        fp.write(json.dumps(canonical(record_to_jsonable(record)), allow_nan=False))
        fp.write("\n")


def result_to_jsonable(result: TradingResult, oracle_gap: float | None = None) -> dict:
    doc = {
        "steps": result.steps,
        "converged": result.converged,
        "certified_bound": result.certified_bound,
        "final_welfare": result.final_welfare,
        "final_state": {
            "plans": {pid: list(plan) for pid, plan in result.state.y.items()},
            "injections": [list(row) for row in result.state.x],
        },
    }
    if oracle_gap is not None:
        doc["oracle_gap"] = oracle_gap
    return doc
