"""Command-line entry point.

Subcommands: run, dispatch, prices, check-eq, decompose, robust-run.
Exit codes: 0 success, 1 equilibrium verdict false, 2 input error,
3 non-convergence within the step budget, 4 internal or numerical failure.
Files, flags and vectors are parsed by ``market_io``; any problem with them
raises ``MarketFormatError``, which ``main`` alone reports as
``input error: <field>: <reason>`` with exit 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from . import dispatch as dispatch_mod
from . import market_io, robust, tree
from .lp import LpError
from .network import build_loading_matrix
from .proposer import make_proposer
from .trading import InfeasibleStateError, TradingState, run_trading

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4


_PROPOSER_MODES = {"full": "full_group", "exhaustive": "exhaustive_subsets", "random": "random_subsets"}


def _run_spec(args) -> market_io.RunSpec:
    """The file's run settings with the ``run`` flags that were given laid over them."""
    spec = market_io.load_market(args.market)
    try:  # a run starts every participant at zero injection
        TradingState.initial(spec.market)
    except ValueError as exc:
        raise market_io.MarketFormatError("participants", str(exc)) from exc
    flags = {"epsilon": args.epsilon, "seed": args.seed, "max_steps": args.max_steps,
             "curtailment_mode": args.curtailment}
    try:
        engine = replace(spec.engine, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise market_io.MarketFormatError("run", str(exc)) from exc
    strategy = spec.strategy
    if args.proposer is not None:
        strategy = replace(strategy, mode=_PROPOSER_MODES[args.proposer])
    return replace(spec, engine=engine, strategy=strategy)


def cmd_run(args) -> int:
    spec = _run_spec(args)
    out_dir = market_io.output_dir(args.out)
    started = time.perf_counter()
    result = run_trading(spec.market, spec.engine, make_proposer(spec.strategy))
    elapsed = time.perf_counter() - started

    report = market_io.result_to_jsonable(result)
    if not args.skip_oracle:
        solution = dispatch_mod.solve_dispatch(spec.market)
        report["oracle_gap"] = dispatch_mod.welfare_gap(spec.market, result.state.y, solution)
        report["prices"] = solution.lambda_
        report["equilibrium_verdict"] = dispatch_mod.check_arrow_debreu(
            spec.market, solution.plans, solution.x, solution.lambda_).verdict

    with open(out_dir / "trace.jsonl", "w") as fp:
        market_io.write_trace(result.state.records, fp)
    report["timing_sec"] = elapsed
    (out_dir / "report.json").write_text(market_io.dumps(report) + "\n")
    print(market_io.dumps(report))
    if not result.converged:
        print(f"did not certify termination within {spec.engine.max_steps} steps", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _dispatch_or_status(market, **fields):
    """The market's dispatch, or ``None`` once a market without one has printed its status."""
    try:
        return dispatch_mod.solve_dispatch(market)
    except dispatch_mod.DispatchInfeasibleError as exc:
        print(market_io.dumps({"status": exc.status, **fields}))
        return None


def cmd_dispatch(args) -> int:
    spec = market_io.load_market(args.market)
    solution = _dispatch_or_status(spec.market)
    if solution is None:
        return EXIT_OK
    doc = {
        "status": "optimal",
        "objective": solution.objective,
        "plans": solution.plans,
        "injections": solution.x,
        "duals": {
            "lambda": solution.lambda_,
            "gamma_s": solution.gamma_s,
            "beta": solution.beta,
            "eta_lower": solution.eta_lower,
            "eta_upper": solution.eta_upper,
            "zeta": solution.zeta,
        },
    }
    print(market_io.dumps(doc))
    return EXIT_OK


def cmd_prices(args) -> int:
    spec = market_io.load_market(args.market)
    solution = _dispatch_or_status(spec.market)
    if solution is None:
        return EXIT_OK
    quotes = [[dispatch_mod.lmp_from_marginals(spec.market, solution.plans, n, s)
               for n in range(spec.market.network.bus_count)]
              for s in range(spec.market.scenario_count)]
    doc = {"lambda": solution.lambda_, "marginal_quotes": quotes}
    print(market_io.dumps(doc))
    return EXIT_OK


def cmd_check_eq(args) -> int:
    spec = market_io.load_market(args.market)
    market = spec.market
    prices = None if args.prices is None else market_io.parse_matrix(
        market_io.read_json(args.prices), (market.scenario_count, market.network.bus_count), "--prices",
        "prices, one per bus")
    solution = _dispatch_or_status(market, verdict=False)
    if solution is None:
        return EXIT_VERDICT_FALSE
    prices = solution.lambda_ if prices is None else prices
    report = dispatch_mod.check_arrow_debreu(market, solution.plans, solution.x, prices)
    doc = {
        "verdict": report.verdict,
        "participant_ok": report.participant_ok,
        "participant_slack": report.participant_slack,
        "so_ok": report.so_ok,
        "so_slack": report.so_slack,
        "clearing_residual": report.clearing_residual,
    }
    print(market_io.dumps(doc))
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def _decompose_one(mode, network, values, state, alpha):
    if mode == "sequential":
        result = tree.decompose_sequential(network, values, state)
    elif mode == "conformal":
        result = tree.decompose_conformal(network, values, state)
    else:
        result = tree.decompose_profitable(network, values, alpha, state)
    if isinstance(result, tree.RedundancyCertificate):
        return {
            "redundant": True,
            "dropped": _component_to_jsonable(result.dropped),
            "remaining_trade": [str(v) for v in result.remaining],
            "original_profit": float(result.original_profit),
            "remaining_profit": float(result.remaining_profit),
        }
    return {"components": [_component_to_jsonable(c) for c in result]}


def cmd_decompose(args) -> int:
    spec = market_io.load_market(args.market)
    network = spec.market.network
    if args.mode == "profitable" and args.alpha is None:
        raise market_io.MarketFormatError("--alpha", "required for profitable mode")
    trades = [market_io.parse_vector(t, network.bus_count, "--trade") for t in args.trade]
    states = [market_io.parse_vector(s, network.bus_count, "--state") for s in args.state or ()] or [None]
    if len(states) == 1:
        states = states * len(trades)
    elif len(states) != len(trades):
        raise market_io.MarketFormatError("--state", "give one vector, or one per --trade")
    alpha = None if args.alpha is None else market_io.parse_vector(args.alpha, network.bus_count, "--alpha")
    try:
        docs = [_decompose_one(args.mode, network, values, state, alpha)
                for values, state in zip(trades, states)]
    except ValueError as exc:  # NonTreeNetworkError included
        raise market_io.MarketFormatError("decompose", str(exc)) from exc
    # Scenario-indexed trades decompose independently; a single vector keeps
    # the flat layout.
    print(market_io.dumps(docs[0] if len(docs) == 1 else {"scenarios": docs}))
    return EXIT_OK


def _component_to_jsonable(c: tree.BilateralTrade) -> dict:
    return {
        "supply_bus": c.supply_bus + 1,
        "demand_bus": c.demand_bus + 1,
        "quantity": float(c.quantity),
        "quantity_exact": str(c.quantity),
    }


def cmd_robust_run(args) -> int:
    spec = market_io.load_market(args.market)
    if not spec.interval_trades:
        raise market_io.MarketFormatError("interval_trades", "robust-run needs a nonempty section")
    if spec.market.network.scenario_capacities is not None:
        # Robust curtailment checks one set of line limits for all scenarios.
        raise market_io.MarketFormatError("network.scenario_capacities", "robust-run does not support them")
    out_dir = market_io.output_dir(args.out)
    lm = build_loading_matrix(spec.market.network)
    state = robust.IntervalState.initial(spec.market.network.bus_count)
    for trade in spec.interval_trades:
        _, state = robust.accept_interval_trade(state, trade, lm, spec.market)
    with open(out_dir / "robust_trace.jsonl", "w") as fp:
        market_io.write_lines(({"step": step, "lower": r.trade.lower, "upper": r.trade.upper,
                                "gamma": r.gamma, "accepted": r.accepted}
                               for step, r in enumerate(state.records)), fp)
    summary = {
        "trades": len(state.records),
        "accepted": sum(1 for r in state.records if r.accepted),
        "state_lower": state.x_lower,
        "state_upper": state.x_upper,
    }
    (out_dir / "robust_report.json").write_text(market_io.dumps(summary) + "\n")
    print(market_io.dumps(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridtrade", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("market", help="market definition JSON file")
        if out_default is not None:
            p.add_argument("--out", default=out_default, help="output directory")

    p_run = sub.add_parser("run", help="run the trading process to termination")
    common(p_run, out_default="out")
    p_run.add_argument("--epsilon", type=float, default=None, help="worthiness threshold in $")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--proposer", choices=_PROPOSER_MODES, default=None)
    p_run.add_argument("--curtailment", choices=["uniform", "hybrid"], default=None)
    p_run.add_argument("--skip-oracle", action="store_true", help="skip the dispatch comparison")
    p_run.set_defaults(func=cmd_run)

    p_dispatch = sub.add_parser("dispatch", help="solve the welfare-maximising dispatch")
    common(p_dispatch)
    p_dispatch.set_defaults(func=cmd_dispatch)

    p_prices = sub.add_parser("prices", help="contingent nodal prices and marginal quotes")
    common(p_prices)
    p_prices.set_defaults(func=cmd_prices)

    p_check = sub.add_parser("check-eq", help="verify the competitive equilibrium conditions")
    common(p_check)
    p_check.add_argument("--prices", default=None, help="JSON file with an (S x N) price matrix")
    p_check.set_defaults(func=cmd_check_eq)

    p_dec = sub.add_parser("decompose", help="split a nodal trade into bilateral trades")
    common(p_dec)
    p_dec.add_argument("--trade", required=True, action="append",
                       help="comma-separated per-bus MW values; repeat for scenario-indexed trades")
    p_dec.add_argument("--state", default=None, action="append",
                       help="comma-separated accumulated per-bus MW")
    p_dec.add_argument("--mode", choices=["sequential", "conformal", "profitable"], default="sequential")
    p_dec.add_argument("--alpha", default=None, help="comma-separated per-bus linear marginals")
    p_dec.set_defaults(func=cmd_decompose)

    p_rob = sub.add_parser("robust-run", help="process the file's interval trades robustly")
    common(p_rob, out_default="out")
    p_rob.set_defaults(func=cmd_robust_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except market_io.MarketFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LpError, InfeasibleStateError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
