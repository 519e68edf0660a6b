import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridtrade
from gridtrade import cli, market_io, robust, trading
from gridtrade.cli import main
from gridtrade.dispatch import check_arrow_debreu, solve_dispatch
from gridtrade.generators import random_market
from gridtrade.market_io import load_market, market_to_jsonable
from gridtrade.network import Network, ViolationReport, build_loading_matrix, check_feasible
from gridtrade.proposer import ProposerStrategy, make_proposer
from gridtrade.trading import EngineConfig, run_trading

MARKET_FILE = str(Path(__file__).resolve().parents[1] / "markets" / "two_bus.json")
UNRATED_FILE = str(Path(__file__).resolve().parents[1] / "markets" / "two_bus_unrated.json")


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


def oversupply(doc):
    # G1 must inject at least 300 MW; the load can absorb 150 MW at most.
    doc["participants"][0]["bounds"] = [[300.0, 400.0], [300.0, 400.0]]
    doc["participants"][0]["utility"] = [{"breakpoint": 0.0, "slope": -50.0},
                                         {"breakpoint": 400.0}]


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
        assert list(final) == ["G1", "G2", "G3", "L"]
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
        code, _, stderr = run_cli(
            capsys, "run", MARKET_FILE, "--out", str(tmp_path / "o"), "--max-steps", "1",
            "--skip-oracle",
        )
        assert code == 3
        assert stderr == "did not certify termination within 1 steps\n"

    def test_infeasible_post_step_state_is_numerical_failure(self, capsys, tmp_path, monkeypatch):
        overloaded = ViolationReport(((0, 0, 1.0),), (0.0, 0.0))
        monkeypatch.setattr(trading, "check_feasible", lambda lm, x: overloaded)
        code, _, stderr = run_cli(capsys, "run", MARKET_FILE, "--out", str(tmp_path / "o"))
        assert code == 4
        assert "post-step state infeasible" in stderr

    def test_accepted_overload_is_numerical_failure(self, capsys, tmp_path, monkeypatch):
        # A ratio test that passes every trade in full overloads the 10 MW line.
        path = write_market(tmp_path, lambda doc: doc["network"]["lines"][0].update(capacity=10.0))
        monkeypatch.setattr(trading, "curtailment_factor", lambda lm, x, q: 1.0)
        code, _, stderr = run_cli(capsys, "run", path, "--out", str(tmp_path / "o"))
        assert code == 4
        assert "numerical failure: post-step state infeasible" in stderr

    def test_out_naming_a_file_is_input_error_before_trading(self, capsys, tmp_path, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        monkeypatch.setattr(cli, "run_trading", lambda *args: pytest.fail("traded before --out check"))
        code, stdout, err = run_cli(capsys, "run", MARKET_FILE, "--out", str(taken), "--skip-oracle")
        assert code == 2 and stdout == ""
        assert err.startswith("input error: --out: cannot create directory")
        assert taken.read_text() == "keep"

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

    @pytest.mark.parametrize("flag,value", [
        ("--epsilon", "nan"), ("--epsilon", "-1"), ("--epsilon", "inf"),
        ("--seed", "-1"), ("--max-steps", "-3"),
    ])
    def test_bad_run_flag_is_input_error(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(
            capsys, "run", MARKET_FILE, "--out", str(tmp_path / "o"), "--skip-oracle", flag, value
        )
        assert code == 2
        assert "input error: run: " in err

    @pytest.mark.parametrize("section,key,value", [
        ("engine", "seed", -1), ("engine", "max_steps", -3), ("engine.proposer", "seed", -1),
    ])
    def test_negative_engine_setting_is_input_error(self, capsys, tmp_path, section, key, value):
        def edit(doc):
            target = doc["engine"]["proposer"] if section == "engine.proposer" else doc["engine"]
            target[key] = value

        market = write_market(tmp_path, edit)
        code, _, err = run_cli(capsys, "run", market, "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{section}: {key} must be non-negative" in err

    def test_proposer_mode_string_is_input_error(self, capsys, tmp_path):
        def edit(doc):
            doc["engine"]["proposer"] = "full_group"

        market = write_market(tmp_path, edit)
        code, _, err = run_cli(capsys, "run", market, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "engine.proposer: expected an object" in err

    @pytest.mark.parametrize("path,value", [
        (("network", "lines", 0, "capacity"), math.inf),
        (("network", "lines", 0, "capacity"), math.nan),
        (("network", "lines", 0, "reactance"), math.inf),
        pytest.param(("network", "lines", 0, "capacity"), 10**400, id="capacity-10**400"),
        (("participants", 0, "utility", 0, "slope"), math.inf),
        (("participants", 0, "utility", 0, "slope"), math.nan),
        (("participants", 0, "utility", 1, "breakpoint"), math.inf),
        (("participants", 0, "utility", 1, "breakpoint"), math.nan),
        (("scenarios", "probabilities", 0), math.inf),
        (("scenarios", "probabilities", 0), math.nan),
        (("engine", "epsilon"), math.inf),
        (("engine", "epsilon"), "0.001"),
        (("engine", "epsilon"), True),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
    def test_bad_number_is_input_error(self, capsys, tmp_path, path, value):
        def edit(doc):
            *keys, last = path
            for key in keys:
                doc = doc[key]
            doc[last] = value

        market = write_market(tmp_path, edit)
        code, _, err = run_cli(capsys, "run", market, "--out", str(tmp_path / "o"))
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
        assert code == 2
        assert f"{field}: expected a" in err

    def test_zero_state_not_locally_feasible_is_input_error(self, capsys, tmp_path):
        def must_run(doc):
            doc["participants"][0]["bounds"] = [[10.0, 200.0], [10.0, 200.0]]

        market = write_market(tmp_path, must_run)
        code, stdout, err = run_cli(capsys, "run", market, "--out", str(tmp_path / "o"))
        assert code == 2 and stdout == ""
        assert err.startswith("input error: participants: G1: zero injection is not locally feasible")
        assert not (tmp_path / "o").exists()

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


def run_per_hash_seed(make_argv) -> list[str]:
    """Standard output of ``python -m gridtrade.cli`` run at once in two fresh
    interpreters, string-hash seeds 1 and 2; ``make_argv(seed)`` gives the arguments."""
    src = str(Path(gridtrade.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, "-m", "gridtrade.cli", *make_argv(seed)],
                         env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed in ("1", "2")
    ]
    results = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, results):
        assert proc.returncode == 0, err
    return [out for out, _ in results]


class TestDeterminismAcrossProcesses:
    """Outputs must not depend on string hashing, which differs between processes."""

    @pytest.mark.parametrize("proposer", ["random", "exhaustive"])
    def test_run(self, tmp_path, proposer):
        market = random_market(np.random.default_rng(7), max_buses=5, max_scenarios=3,
                               max_participants=8)
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market_to_jsonable(market)))
        run_per_hash_seed(lambda seed: ["run", str(path), "--out", str(tmp_path / seed),
                                        "--proposer", proposer, "--seed", "3"])
        outputs = []
        for seed in ("1", "2"):
            report = json.loads((tmp_path / seed / "report.json").read_text())
            del report["timing_sec"]
            outputs.append(((tmp_path / seed / "trace.jsonl").read_bytes(), json.dumps(report)))
        assert outputs[0] == outputs[1]

    def test_decompose_conformal(self, tmp_path):
        doc = {
            "network": {
                "buses": 5,
                "lines": [{"from": u, "to": v, "reactance": 1.0, "capacity": 10.0}
                          for u, v in ((1, 2), (2, 3), (2, 4), (4, 5))],
                "reference_bus": 1,
            },
            "scenarios": {"probabilities": [1.0]},
            "participants": [
                {"id": "g", "bus": 1, "kind": "producer", "timing": "RT", "bounds": [[0, 10]],
                 "utility": [{"breakpoint": 0, "slope": -5}, {"breakpoint": 10}]},
            ],
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        first, second = run_per_hash_seed(
            lambda seed: ["decompose", str(path), "--trade", "3,-1,2,-2,-2", "--mode", "conformal"])
        assert len(json.loads(first)["components"]) >= 3
        assert first == second


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


class TestUnratedLine:
    """``markets/two_bus_unrated.json``: the two-bus market with ``"capacity": null``."""

    def test_file_is_the_two_bus_market_with_an_unrated_line(self):
        doc = json.loads(Path(MARKET_FILE).read_text())
        doc["network"]["lines"][0]["capacity"] = None
        assert json.loads(Path(UNRATED_FILE).read_text()) == doc
        assert load_market(UNRATED_FILE).market.network.ratings.tolist() == [math.inf, math.inf]

    def test_dispatch_clears_at_one_price_per_scenario(self, capsys):
        code, stdout, _ = run_cli(capsys, "dispatch", UNRATED_FILE)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["objective"] == 145900.0
        assert doc["duals"]["lambda"] == [[18.0, 18.0], [32.0, 32.0]]
        assert doc["duals"]["beta"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_check_eq_passes_on_dispatch_prices(self, capsys):
        code, stdout, _ = run_cli(capsys, "check-eq", UNRATED_FILE)
        assert code == 0
        assert json.loads(stdout)["verdict"] is True

    def test_infinite_so_slack_is_written_as_null(self, capsys, tmp_path):
        prices = [[18.0, 40.0], [32.0, 32.0]]
        path = tmp_path / "prices.json"
        path.write_text(json.dumps(prices))
        spec = load_market(UNRATED_FILE)
        solution = solve_dispatch(spec.market)
        report = check_arrow_debreu(spec.market, solution.plans, solution.x, np.array(prices))
        assert report.so_slack == math.inf
        code, stdout, _ = run_cli(capsys, "check-eq", UNRATED_FILE, "--prices", str(path))
        assert code == 1
        assert '"so_slack": null' in stdout
        assert json.loads(stdout)["verdict"] is False


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
        assert "raw_duals" not in doc
        assert doc["marginal_quotes"][0][1] == 48.0
        assert doc["marginal_quotes"][1][1] == 32.0
        assert doc["marginal_quotes"][0][0] is None

    def test_check_eq_passes_on_dispatch_prices(self, capsys):
        code, stdout, _ = run_cli(capsys, "check-eq", MARKET_FILE)
        assert code == 0
        assert json.loads(stdout)["verdict"] is True

    def test_dispatch_of_infeasible_market_reports_status(self, capsys, tmp_path):
        code, stdout, _ = run_cli(capsys, "dispatch", write_market(tmp_path, oversupply))
        assert code == 0
        assert json.loads(stdout) == {"status": "infeasible"}

    @pytest.mark.parametrize("command,code,doc", [
        ("prices", 0, {"status": "infeasible"}),
        ("check-eq", 1, {"status": "infeasible", "verdict": False}),
    ])
    def test_infeasible_market_is_an_answer_not_a_failure(self, capsys, tmp_path, command, code, doc):
        result = run_cli(capsys, command, write_market(tmp_path, oversupply))
        assert result == (code, market_io.dumps(doc) + "\n", "")

    def test_check_eq_bad_prices_on_infeasible_market_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "prices.json"
        path.write_text("[[18, 48]]")
        code, stdout, err = run_cli(capsys, "check-eq", write_market(tmp_path, oversupply),
                                    "--prices", str(path))
        assert code == 2 and stdout == ""
        assert err.startswith("input error: --prices: expected 2 rows")

    @pytest.mark.parametrize("text,field,reason", [
        (None, "missing.json", "cannot read file"),
        ("[[18, 48], [32", "prices.json", "invalid JSON"),
        ('[[1, 2], [3, "x"]]', "--prices[1][1]", "expected a number, got 'x'"),
        ('{"a": 1}', "--prices", "expected an array, got dict"),
        ("[[NaN, 48], [32, 32]]", "--prices[0][0]", "expected a finite number, got nan"),
        ("[[18, 48], [32, Infinity]]", "--prices[1][1]", "expected a finite number, got inf"),
        ("[[true, 2], [3, 4]]", "--prices[0][0]", "expected a number, got True"),
        ('[["18", 48], [32, 32]]', "--prices[0][0]", "expected a number, got '18'"),
        ("[[18, 48]]", "--prices", "expected 2 rows"),
        ("[[18, 48, 0], [32, 32]]", "--prices[0]", "expected 2 prices"),
    ], ids=["missing", "invalid-json", "string", "object", "nan", "infinity", "boolean",
            "numeric-string", "rows", "columns"])
    def test_check_eq_bad_prices_is_input_error(self, capsys, tmp_path, text, field, reason):
        path = tmp_path / ("missing.json" if text is None else "prices.json")
        if text is not None:
            path.write_text(text)
        code, stdout, err = run_cli(capsys, "check-eq", MARKET_FILE, "--prices", str(path))
        assert code == 2 and stdout == ""
        assert err.startswith("input error: ")
        assert f"{field}: {reason}" in err

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

    @pytest.mark.parametrize("flags,field", [
        (["--state", "abc"], "--state"),
        (["--state", "1/0,0"], "--state"),
        (["--state", "1,2,3"], "--state"),
        (["--state", "0,0", "--state", "0,0"], "--state"),
        (["--trade", "5,x"], "--trade"),
        (["--mode", "profitable", "--alpha", "1/0,2"], "--alpha"),
        (["--mode", "profitable", "--alpha", "1,2,3"], "--alpha"),
    ], ids=["state-text", "state-zero-denominator", "state-length", "state-count", "trade-text",
            "alpha-zero-denominator", "alpha-length"])
    def test_bad_vector_flag_is_input_error(self, capsys, flags, field):
        code, stdout, err = run_cli(capsys, "decompose", MARKET_FILE, "--trade", "5,-5", *flags)
        assert code == 2 and stdout == ""
        assert err.startswith(f"input error: {field}: ")

    def test_profitable_mode_emits_profitable_components(self, capsys, path_market):
        code, stdout, _ = run_cli(capsys, "decompose", path_market, "--trade", "5,-2,-3",
                                  "--mode", "profitable", "--alpha", "3,1,2")
        assert code == 0
        comps = json.loads(stdout)["components"]
        assert {(c["supply_bus"], c["demand_bus"], c["quantity_exact"]) for c in comps} == {
            (1, 2, "2"), (1, 3, "3"),
        }

    def test_profitable_mode_emits_redundancy_certificate(self, capsys, path_market):
        # Moving 2 MW from bus 1 (worth 3) to bus 2 (worth 4) loses 2; the trade earns 4.
        code, stdout, _ = run_cli(capsys, "decompose", path_market, "--trade", "5,-2,-3",
                                  "--mode", "profitable", "--alpha", "3,4,1")
        assert code == 0
        assert json.loads(stdout) == {
            "redundant": True,
            "dropped": {"supply_bus": 1, "demand_bus": 2, "quantity": 2.0, "quantity_exact": "2"},
            "remaining_trade": ["3", "0", "-3"],
            "original_profit": 4.0,
            "remaining_profit": 6.0,
        }

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

    @pytest.mark.parametrize("value", ["80", math.nan, True, None], ids=repr)
    def test_bad_interval_bound_is_input_error(self, capsys, tmp_path, value):
        def edit(doc):
            doc["interval_trades"] = [{"lower": {"G2": value, "L": -100.0},
                                       "upper": {"G2": 100.0, "L": -80.0}}]

        market = write_market(tmp_path, edit)
        code, stdout, err = run_cli(capsys, "robust-run", market, "--out", str(tmp_path / "o"))
        assert code == 2 and stdout == ""
        assert err.startswith("input error: interval_trades[0].lower.G2: expected a")

    def test_out_naming_a_file_is_input_error_before_trading(self, capsys, tmp_path, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        monkeypatch.setattr(robust, "accept_interval_trade",
                            lambda *args: pytest.fail("traded before --out check"))
        market = Path(MARKET_FILE).with_name("two_bus_robust.json")
        code, stdout, err = run_cli(capsys, "robust-run", str(market), "--out", str(taken))
        assert code == 2 and stdout == ""
        assert err.startswith("input error: --out: cannot create directory")
        assert taken.read_text() == "keep"

    def test_bundled_robust_market(self, capsys, tmp_path):
        market = Path(MARKET_FILE).with_name("two_bus_robust.json")
        code, stdout, _ = run_cli(capsys, "robust-run", str(market), "--out", str(tmp_path / "o"))
        assert code == 0
        assert json.loads(stdout)["accepted"] == 2
