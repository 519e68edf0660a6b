import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gridtrade.market import Market, two_bus_market
from gridtrade.market_io import (
    MarketFormatError,
    RunSpec,
    canonical,
    dumps,
    load_market,
    market_to_jsonable,
    parse_market,
)
from gridtrade.proposer import ProposerStrategy
from gridtrade.robust import IntervalTrade
from gridtrade.trading import EngineConfig

MARKET_FILE = Path(__file__).resolve().parents[1] / "markets" / "two_bus.json"


def base_doc():
    return json.loads(MARKET_FILE.read_text())


class TestRoundTrip:
    def test_bundled_file_matches_builder(self):
        spec = load_market(MARKET_FILE)
        built = two_bus_market()
        assert spec.market.network == built.network
        assert spec.market.scenarios == built.scenarios
        assert spec.market.participants == built.participants

    def test_serialise_parse_cycle(self):
        base = two_bus_market()
        network = replace(base.network, scenario_capacities=((120.0,), (60.0,)))
        spec = RunSpec(
            Market(network, base.scenarios, base.participants),
            EngineConfig(epsilon=2.5, curtailment_mode="hybrid", max_steps=40, seed=9),
            ProposerStrategy("random_subsets", max_size=3, attempts=7, seed=5),
            (IntervalTrade(lower={"G2": 80.0, "L": -100.0}, upper={"G2": 100.0, "L": -80.0}),),
        )
        again = parse_market(json.loads(dumps(market_to_jsonable(spec))))
        for field in fields(RunSpec):
            assert getattr(again, field.name) == getattr(spec, field.name), field.name
        assert again.market.network.scenario_capacities == ((120.0,), (60.0,))

    def test_engine_sections_in_file_key_order(self):
        doc = json.loads(dumps(market_to_jsonable(two_bus_market())))
        assert list(doc["engine"].items()) == [
            ("epsilon", 1e-3), ("curtailment", "uniform"), ("max_steps", 500), ("seed", 0),
            ("proposer", {"mode": "full_group", "max_size": 2, "attempts": 20}),
        ]
        spec = RunSpec(two_bus_market(), EngineConfig(), ProposerStrategy(seed=4))
        assert list(market_to_jsonable(spec)["engine"]["proposer"].items())[-1] == ("seed", 4)

    def test_bus_indices_are_one_based_in_files(self):
        doc = base_doc()
        assert doc["network"]["lines"][0]["from"] == 1
        spec = parse_market(doc)
        assert spec.market.network.lines[0].from_bus == 0


MISSING_FIELD_CASES = [
    (lambda d: d.pop("network"), "network"),
    (lambda d: d.pop("scenarios"), "scenarios"),
    (lambda d: d.pop("participants"), "participants"),
    (lambda d: d["network"].pop("buses"), "network.buses"),
    (lambda d: d["network"].pop("reference_bus"), "network.reference_bus"),
    (lambda d: d["network"]["lines"][0].pop("from"), "network.lines[0].from"),
    (lambda d: d["network"]["lines"][0].pop("reactance"), "network.lines[0].reactance"),
    (lambda d: d["network"]["lines"][0].pop("capacity"), "network.lines[0].capacity"),
    (lambda d: d["scenarios"].pop("probabilities"), "scenarios.probabilities"),
    (lambda d: d["participants"][0].pop("id"), "participants[0].id"),
    (lambda d: d["participants"][0].pop("bus"), "participants[0].bus"),
    (lambda d: d["participants"][0].pop("kind"), "participants[0].kind"),
    (lambda d: d["participants"][0].pop("timing"), "participants[0].timing"),
    (lambda d: d["participants"][0].pop("bounds"), "participants[0].bounds"),
    (lambda d: d["participants"][0].pop("utility"), "participants[0].utility"),
    (lambda d: d["participants"][0]["utility"][0].pop("slope"), "participants[0].utility[0].slope"),
]


class TestDiagnostics:
    @pytest.mark.parametrize("mutate,expected", MISSING_FIELD_CASES,
                             ids=[path for _, path in MISSING_FIELD_CASES])
    def test_each_missing_field_names_its_path(self, mutate, expected):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(MarketFormatError) as err:
            parse_market(doc)
        assert expected in str(err.value)

    def test_invalid_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"network": \n broken')
        with pytest.raises(MarketFormatError, match="line 2"):
            load_market(bad)

    def test_out_of_range_bus_rejected(self):
        doc = base_doc()
        doc["participants"][0]["bus"] = 3
        with pytest.raises(MarketFormatError, match="out of range"):
            parse_market(doc)

    def test_slope_on_final_breakpoint_rejected(self):
        doc = base_doc()
        doc["participants"][0]["utility"][-1]["slope"] = -1.0
        with pytest.raises(MarketFormatError, match="takes no slope"):
            parse_market(doc)

    def test_wrong_type_rejected(self):
        doc = base_doc()
        doc["network"]["buses"] = "two"
        with pytest.raises(MarketFormatError, match="expected an integer"):
            parse_market(doc)

    def test_unknown_interval_participant_rejected(self):
        doc = base_doc()
        doc["interval_trades"] = [{"lower": {"nobody": 0.0}, "upper": {"nobody": 1.0}}]
        with pytest.raises(MarketFormatError, match="nobody"):
            parse_market(doc)


class TestExtensions:
    def test_interval_trades_parse(self):
        doc = base_doc()
        doc["interval_trades"] = [
            {"lower": {"G2": 80.0, "L": -100.0}, "upper": {"G2": 100.0, "L": -80.0}}
        ]
        spec = parse_market(doc)
        assert len(spec.interval_trades) == 1
        assert spec.interval_trades[0].lower["G2"] == 80.0

    def test_scenario_capacities_parse_and_validate(self):
        doc = base_doc()
        doc["network"]["scenario_capacities"] = [[120.0], [60.0]]
        spec = parse_market(doc)
        assert spec.market.network.scenario_capacities == ((120.0,), (60.0,))
        doc["network"]["scenario_capacities"] = [[120.0]]
        with pytest.raises(MarketFormatError, match="scenario_capacities"):
            parse_market(doc)

    @pytest.mark.parametrize("caps,path,message", [
        ([[120.0], [60.0], [60.0]], "network.scenario_capacities", "expected 2 rows"),
        ([[120.0], [60.0, 1.0]], "network.scenario_capacities[1]", "expected 1 ratings"),
        ([[120.0], ["x"]], "network.scenario_capacities[1][0]", "expected a number"),
        ([[120.0], [0.0]], "network", "scenario_capacities must be positive"),
    ])
    def test_scenario_capacities_errors_name_the_field(self, caps, path, message):
        doc = base_doc()
        doc["network"]["scenario_capacities"] = caps
        with pytest.raises(MarketFormatError, match=message) as err:
            parse_market(doc)
        assert err.value.field == path

    @pytest.mark.parametrize("path", [
        "engine.max_steps", "engine.seed", "engine.proposer.max_size",
        "engine.proposer.attempts", "engine.proposer.seed",
    ])
    @pytest.mark.parametrize("value", ["abc", 2.7, True])
    def test_integer_fields_name_the_field(self, path, value):
        doc = base_doc()
        *parents, key = path.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
        with pytest.raises(MarketFormatError, match="expected an integer") as err:
            parse_market(doc)
        assert err.value.field == path

    def test_no_participants_rejected(self):
        doc = base_doc()
        doc["participants"] = []
        with pytest.raises(MarketFormatError) as err:
            parse_market(doc)
        assert err.value.field == "participants"

    def test_subjective_probabilities_round_trip(self):
        doc = base_doc()
        doc["participants"][2]["subjective_probabilities"] = [0.3, 0.7]
        spec = parse_market(doc)
        assert spec.market.participants[2].id == "G3"
        assert spec.market.participants[2].subjective_probabilities == (0.3, 0.7)
        again = market_to_jsonable(RunSpec(spec.market, spec.engine, spec.strategy))
        assert again["participants"][2]["subjective_probabilities"] == [0.3, 0.7]


class TestCanonicalOutput:
    def test_floats_rounded_to_twelve_significant_digits(self):
        assert canonical(1 / 3) == 0.333333333333
        assert canonical(-0.0) == 0.0
        assert dumps({"x": 2.0000000000000004}, indent=None) == '{"x": 2.0}'

    def test_numpy_values_coerced(self):
        doc = canonical({"a": np.float64(0.25), "b": np.arange(3), "c": np.int64(7)})
        assert doc == {"a": 0.25, "b": [0, 1, 2], "c": 7}

    def test_key_order_preserved(self):
        assert list(canonical({"z": 1, "a": 2})) == ["z", "a"]
