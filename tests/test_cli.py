import json
from pathlib import Path

import numpy as np
import pytest

from gridtrade import trading
from gridtrade.cli import main
from gridtrade.dispatch import solve_dispatch
from gridtrade.market_io import load_market
from gridtrade.network import Network, ViolationReport, build_loading_matrix, check_feasible
from gridtrade.proposer import ProposerStrategy, make_proposer
from gridtrade.trading import EngineConfig, run_trading

MARKET_FILE = str(Path(__file__).resolve().parents[1] / "markets" / "two_bus.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_market(tmp_path, edit):
    """The bundled two-bus file with ``edit`` applied to its JSON document."""
    doc = json.loads(Path(MARKET_FILE).read_text())
    edit(doc)
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    return str(path)


def rate_line_120_60(doc):
    doc["network"]["scenario_capacities"] = [[120.0], [60.0]]


class TestRun:
    def test_two_bus_run_writes_trace_and_report(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "run", MARKET_FILE, "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["final_welfare"] == pytest.approx(145000.0)
        assert report["oracle_gap"] <= 1e-6
        assert report["equilibrium_verdict"] is True
        final = report["final_state"]["plans"]
        assert final["G1"] == [20.0, 20.0]
        assert final["G3"] == [30.0, 80.0]
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["gamma"] == 0.8
        assert first["binding_lines_after"] == [[0], []]

    def test_huge_epsilon_converges_without_trades(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "run", MARKET_FILE, "--out", str(out), "--epsilon", "1e9", "--skip-oracle"
        )
        assert code == 0
        assert json.loads(stdout)["steps"] == 0

    def test_non_convergence_exit_code(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", MARKET_FILE, "--out", str(tmp_path / "o"), "--max-steps", "1",
            "--skip-oracle",
        )
        assert code == 3

    def test_infeasible_post_step_state_is_numerical_failure(self, capsys, tmp_path, monkeypatch):
        overloaded = ViolationReport(((0, 0, 1.0),), (0.0, 0.0))
        monkeypatch.setattr(trading, "check_feasible", lambda lm, x: overloaded)
        code, _, stderr = run_cli(capsys, "run", MARKET_FILE, "--out", str(tmp_path / "o"))
        assert code == 4
        assert "post-step state infeasible" in stderr

    def test_malformed_json_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "run", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("key,value", [
        ("seed", "abc"), ("seed", 2.7), ("max_size", 2.7), ("attempts", 2.7),
    ])
    def test_bad_proposer_integer_is_input_error(self, capsys, tmp_path, key, value):
        def edit(doc):
            doc["engine"]["proposer"] = {"mode": "random_subsets", key: value}

        market = write_market(tmp_path, edit)
        code, _, err = run_cli(capsys, "run", market, "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"engine.proposer.{key}: expected an integer" in err

    @pytest.mark.parametrize("key", ["seed", "max_steps"])
    def test_bad_engine_integer_is_input_error(self, capsys, tmp_path, key):
        def edit(doc):
            doc["engine"][key] = 2.7

        market = write_market(tmp_path, edit)
        code, _, err = run_cli(capsys, "run", market, "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"engine.{key}: expected an integer" in err

    def test_determinism_across_runs(self, capsys, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "run", MARKET_FILE, "--out", str(out), "--seed", "11", "--skip-oracle"
            )
            assert code == 0
            blobs.append((out / "trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_random_proposer_flag(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "run", MARKET_FILE, "--out", str(out), "--proposer", "random",
            "--seed", "3", "--skip-oracle",
        )
        assert code == 0
        assert json.loads(stdout)["converged"] is True

    def test_proposer_flag_keeps_file_proposer_seed(self, capsys, tmp_path):
        def seeded_random(doc):
            doc["engine"]["proposer"] = {"mode": "random_subsets", "seed": 5}

        market = write_market(tmp_path, seeded_random)
        traces = []
        for name, flags in (("file", []), ("flag1", ["--proposer", "random", "--seed", "1"]),
                            ("flag2", ["--proposer", "random", "--seed", "2"])):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "run", market, "--out", str(out), "--skip-oracle", *flags)
            assert code == 0
            traces.append((out / "trace.jsonl").read_bytes())
        # The file's proposer seed drives group sampling whatever the engine seed.
        assert traces[1] == traces[0] and traces[2] == traces[0]

    @pytest.mark.parametrize("command", ["dispatch", "prices", "check-eq", "decompose", "robust-run"])
    @pytest.mark.parametrize("flag", [["--epsilon", "1"], ["--seed", "1"], ["--max-steps", "1"],
                                      ["--proposer", "random"], ["--curtailment", "hybrid"]],
                             ids=lambda flag: flag[0])
    def test_run_flags_only_on_run(self, capsys, command, flag):
        extra = ["--trade", "5,-5"] if command == "decompose" else []
        with pytest.raises(SystemExit) as exc:
            main([command, MARKET_FILE, *extra, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run"], ["dispatch"], ["prices"], ["check-eq"], ["decompose", "--trade", "5,-5"], ["robust-run"],
    ], ids=lambda argv: argv[0])
    def test_no_participants_is_input_error(self, capsys, tmp_path, argv):
        def empty(doc):
            doc["participants"] = []

        market = write_market(tmp_path, empty)
        code, _, err = run_cli(capsys, argv[0], market, *argv[1:])
        assert code == 2
        assert "participants" in err


class TestScenarioCapacities:
    """Per-scenario line ratings in the file reach every entry point."""

    def test_dispatch_api_matches_cli(self, capsys, tmp_path):
        market = write_market(tmp_path, rate_line_120_60)
        code, stdout, _ = run_cli(capsys, "dispatch", market)
        assert code == 0
        objective = solve_dispatch(load_market(market).market).objective
        assert objective == pytest.approx(json.loads(stdout)["objective"], abs=1e-6)
        assert objective == pytest.approx(144700.0)

    def test_run_trading_without_lm_stays_within_ratings(self, tmp_path):
        market = load_market(write_market(tmp_path, rate_line_120_60)).market
        result = run_trading(market, EngineConfig(), make_proposer(ProposerStrategy()))
        assert result.converged
        base = Network(market.network.bus_count, market.network.lines, market.network.reference_bus)
        lm = build_loading_matrix(base).with_scenario_capacities(np.array([[120.0], [60.0]]))
        x = np.zeros((market.scenario_count, market.network.bus_count))
        for record in result.state.records:
            if record.accepted:
                x = x + record.gamma * record.nodal
                assert check_feasible(lm, x).ok, record.step
        np.testing.assert_allclose(x, result.state.x, atol=1e-9)

    def test_decompose_rejects_ratings(self, capsys, tmp_path):
        market = write_market(tmp_path, rate_line_120_60)
        code, stdout, err = run_cli(capsys, "decompose", market, "--trade", "50,-50")
        assert code == 2
        assert "scenario_capacities" in err and stdout == ""


class TestDispatchCommands:
    def test_dispatch_emits_plan_and_duals(self, capsys):
        code, stdout, _ = run_cli(capsys, "dispatch", MARKET_FILE)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["status"] == "optimal"
        assert doc["plans"]["G2"] == [100.0, 50.0]
        assert doc["duals"]["lambda"] == [[18.0, 48.0], [32.0, 32.0]]

    def test_prices_reports_quotes_and_duals(self, capsys):
        code, stdout, _ = run_cli(capsys, "prices", MARKET_FILE)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["lambda"] == [[18.0, 48.0], [32.0, 32.0]]
        assert doc["raw_duals"] == doc["lambda"]
        assert doc["marginal_quotes"][0][1] == 48.0
        assert doc["marginal_quotes"][1][1] == 32.0
        assert doc["marginal_quotes"][0][0] is None

    def test_check_eq_passes_on_dispatch_prices(self, capsys):
        code, stdout, _ = run_cli(capsys, "check-eq", MARKET_FILE)
        assert code == 0
        assert json.loads(stdout)["verdict"] is True

    def test_check_eq_fails_on_perturbed_prices(self, capsys, tmp_path):
        prices = [[18.0, 49.0], [32.0, 32.0]]
        path = tmp_path / "prices.json"
        path.write_text(json.dumps(prices))
        code, stdout, _ = run_cli(capsys, "check-eq", MARKET_FILE, "--prices", str(path))
        assert code == 1
        assert json.loads(stdout)["verdict"] is False


class TestDecomposeCommand:
    @pytest.fixture
    def path_market(self, tmp_path):
        doc = {
            "network": {
                "buses": 3,
                "lines": [
                    {"from": 1, "to": 2, "reactance": 1.0, "capacity": 10.0},
                    {"from": 2, "to": 3, "reactance": 1.0, "capacity": 10.0},
                ],
                "reference_bus": 1,
            },
            "scenarios": {"probabilities": [1.0]},
            "participants": [
                {"id": "g", "bus": 1, "kind": "producer", "timing": "RT",
                 "bounds": [[0, 10]],
                 "utility": [{"breakpoint": 0, "slope": -5}, {"breakpoint": 10}]},
                {"id": "d", "bus": 3, "kind": "load", "timing": "RT",
                 "bounds": [[-10, 0]],
                 "utility": [{"breakpoint": -10, "slope": -50}, {"breakpoint": 0}]},
            ],
        }
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_sequential_components_emitted(self, capsys, path_market):
        code, stdout, _ = run_cli(
            capsys, "decompose", path_market, "--trade", "5,-2,-3", "--mode", "sequential"
        )
        assert code == 0
        comps = json.loads(stdout)["components"]
        assert len(comps) == 2
        assert {(c["supply_bus"], c["demand_bus"], c["quantity"]) for c in comps} == {
            (1, 2, 2.0), (1, 3, 3.0),
        }

    def test_profitable_mode_requires_alpha(self, capsys, path_market):
        code, _, err = run_cli(capsys, "decompose", path_market, "--trade", "5,-2,-3",
                               "--mode", "profitable")
        assert code == 2 and "--alpha" in err

    def test_wrong_length_trade_rejected(self, capsys, path_market):
        code, _, err = run_cli(capsys, "decompose", path_market, "--trade", "5,-5")
        assert code == 2

    def test_fractional_values_accepted(self, capsys, path_market):
        code, stdout, _ = run_cli(
            capsys, "decompose", path_market, "--trade", "5/2,-3/2,-1", "--mode", "conformal"
        )
        assert code == 0
        comps = json.loads(stdout)["components"]
        assert {c["quantity_exact"] for c in comps} == {"3/2", "1"}

    def test_scenario_indexed_trades_decompose_independently(self, capsys, path_market):
        code, stdout, _ = run_cli(
            capsys, "decompose", path_market,
            "--trade", "5,-2,-3", "--trade", "1,0,-1", "--mode", "conformal",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["scenarios"]) == 2
        assert len(doc["scenarios"][0]["components"]) == 2
        assert len(doc["scenarios"][1]["components"]) == 1


class TestRobustRunCommand:
    def test_interval_trades_processed(self, capsys, tmp_path):
        doc = json.loads(Path(MARKET_FILE).read_text())
        doc["interval_trades"] = [
            {"lower": {"G2": 80.0, "L": -100.0}, "upper": {"G2": 100.0, "L": -80.0}},
            {"lower": {"G2": 80.0, "L": -100.0}, "upper": {"G2": 100.0, "L": -80.0}},
        ]
        market = tmp_path / "robust.json"
        market.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "robust-run", str(market), "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["accepted"] == 2
        lines = [json.loads(l) for l in (out / "robust_trace.jsonl").read_text().splitlines()]
        assert lines[0]["gamma"] == 1.0
        assert lines[1]["gamma"] == pytest.approx(0.2)

    def test_scenario_capacities_rejected(self, capsys, tmp_path):
        # Robust curtailment checks one set of limits; with per-scenario
        # ratings of 10 MW it would accept a trade the line cannot carry.
        doc = json.loads(Path(MARKET_FILE).read_text())
        doc["network"]["scenario_capacities"] = [[10.0], [10.0]]
        doc["interval_trades"] = [
            {"lower": {"G2": 80.0, "L": -100.0}, "upper": {"G2": 100.0, "L": -80.0}},
        ]
        market = tmp_path / "robust.json"
        market.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "robust-run", str(market), "--out", str(out))
        assert code == 2
        assert "network.scenario_capacities" in err
        assert not out.exists()

    def test_missing_interval_section_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "robust-run", MARKET_FILE, "--out", str(tmp_path / "o"))
        assert code == 2
