"""The benchmark's own tests: deterministic inputs, the fleet draw, self time.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import markets  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gridtrade.market_io import market_to_jsonable  # noqa: E402


def as_json(ops):
    out = []
    for op in ops:
        doc = {"index": op.index}
        if hasattr(op, "market"):
            doc["market"] = market_to_jsonable(op.market)
        if hasattr(op, "lm"):
            doc["limits"] = None if op.lm.scenario_limits is None else op.lm.scenario_limits.tolist()
        if hasattr(op, "strategy"):
            doc["strategy"] = repr(op.strategy)
        out.append(json.dumps(doc, sort_keys=True, default=str))
    return out


@pytest.mark.parametrize("workload", ["medium_full", "dispatch_large"])
def test_scaled_builders_are_deterministic_per_seed(workload):
    build = workloads.BUILDERS[workload]
    first, again, other = as_json(build(3)), as_json(build(3)), as_json(build(4))
    assert first == again
    assert first != other


def test_seed_draws_operating_point_not_system():
    tier = workloads.MEDIUM
    a, b = tier.markets(1)[0], tier.markets(2)[0]
    assert market_to_jsonable(a)["network"] == market_to_jsonable(b)["network"]
    assert a.scenarios.probabilities != b.scenarios.probabilities


def test_scaled_market_separates_costs_from_values():
    rng = np.random.default_rng(0)
    market = markets.scaled_market(rng, rng, 10, 3, 60)
    costs = {-m for p in market.participants if p.kind == "producer" for m in p.utility[0].slopes}
    values = {-m for p in market.participants if p.kind == "load" for m in p.utility[0].slopes}
    assert max(costs) < min(values)
    slopes = [m for p in market.participants for m in p.utility[0].slopes]
    assert len(slopes) == len(set(slopes))


@pytest.mark.parametrize("workload", ["fleet", "subset_hybrid"])
def test_fixed_input_workloads_seed_only_reorders(workload):
    build = workloads.BUILDERS[workload]
    a, b = build(1), build(2)
    assert as_json(a) == as_json(build(1))
    assert [op.index for op in a] != [op.index for op in b]
    assert sorted(as_json(a)) == sorted(as_json(b))


def test_fleet_draw_equals_acceptance_fixture():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import test_acceptance
    finally:
        sys.path.remove(str(ROOT / "tests"))
    fixture = test_acceptance.fleet.__wrapped__()
    ours = markets.fleet_markets()
    assert (markets.FLEET_SEED, markets.FLEET_SIZE) == (
        test_acceptance.FLEET_SEED, test_acceptance.FLEET_SIZE)
    assert [market_to_jsonable(m) for m in ours] == [market_to_jsonable(r.market) for r in fixture]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["leaf", 6.0, 8.5, 3],
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"root": 3.0, "a": 2.0, "leaf": 3.5, "b": 1.5}
    )
    assert sum(tracing.self_times(spans).values()) == pytest.approx(10.0)


def test_tracer_nests_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    selfs = tracing.self_times(tracer.spans)
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    assert selfs["outer"] + selfs["inner"] == pytest.approx(outer)


def test_tracer_wraps_every_binding_and_restores():
    import gridtrade
    from gridtrade import network, trading

    original = network.curtailment_factor
    tracer = tracing.Tracer()
    with tracer.installed():
        assert trading.curtailment_factor is network.curtailment_factor
        assert network.curtailment_factor is not original
        assert gridtrade.curtailment_factor is network.curtailment_factor
        result = trading.run_trading(
            gridtrade.two_bus_market(), trading.EngineConfig(), gridtrade.make_proposer(
                gridtrade.ProposerStrategy()))
    assert result.converged
    assert network.curtailment_factor is original and trading.curtailment_factor is original
    names = {name for name, *_ in tracer.spans}
    assert {"trading.run", "trading.so_step", "network.curtailment", "proposer.search",
            "lp.solve", "lp.linprog"} <= names
    assert tracer.counts["network.curtailment_calls"] == 2
    assert tracer.counts["participants.value_calls"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)
