#!/usr/bin/env python3
"""gridtrade benchmark: time to certificate, benchmark solve and equilibrium check.

Run from the repository root:

    python3 bench/run.py --workload medium_full --seed 1 --seconds 28 --trace 0

One process, one client, operations one after another (a closed loop).  A
run imports ``gridtrade`` from ``src/`` and builds the workload's inputs
from ``--seed`` several times (``setup_s`` is the median), then repeats
passes over the inputs for about ``--seconds`` seconds.  Every operation's
outputs go through the correctness gates and every repetition must
reproduce them bit for bit.  With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer split of a
traced pass, next to an untraced pass for the overhead, and the spans are
written to ``.bench_out/``.  A metadata line precedes the result.  Exit
status 1 means a gate failed, 2 that the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracing import Tracer, self_times
from workloads import BUILDERS, SIZES, PassTimes, TradingOp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "dispatch_s": "s",
    "equilibrium_s": "s",
}

# Span name -> self-time metric; setup spans are reported from a traced set-up.
SELF_TIMES = {
    "lp.solve": "lp.solve_s",
    "lp.linprog": "lp.linprog_s",
    "proposer.search": "proposer.search_s",
    "participants.evaluate_utility": "participants.evaluate_utility_s",
    "market.total_utility": "market.total_utility_s",
    "trading.run": "trading.run_s",
    "trading.so_step": "trading.so_step_s",
    "trading.validate": "trading.validate_s",
    "trading.is_worthy": "trading.is_worthy_s",
    "trading.announce": "trading.announce_s",
    "network.curtailment": "network.curtailment_s",
    "network.direction": "network.direction_s",
    "network.binding": "network.binding_s",
    "network.check_feasible": "network.check_feasible_s",
    "dispatch.solve_dispatch": "dispatch.solve_dispatch_s",
    "dispatch.check_eq": "dispatch.check_eq_s",
    "market_io.write_trace": "market_io.write_trace_s",
    "tree.decompose": "tree.decompose_s",
    "robust.accept": "robust.accept_s",
    "trace.counters": "trace.counters_s",
    "bench.pass": "trace.unattributed_s",
}
SETUP_SELF_TIMES = {"network.build_loading_matrix": "network.build_loading_matrix_s"}
COUNTS = (
    "lp.solve_calls", "lp.rows", "lp.cols", "lp.nnz", "lp.dense_cells",
    "proposer.search_calls", "participants.evaluate_utility_calls", "participants.value_calls",
    "network.curtailment_calls", "network.direction_calls", "network.binding_calls",
    "network.check_feasible_calls", "tree.bilateral_trades", "robust.accept_calls",
)

PER_LAYER = {
    **{name: "s" for name in SELF_TIMES.values()},
    **{name: "s" for name in SETUP_SELF_TIMES.values()},
    **{name: "count" for name in COUNTS},
    "proposer.useful_ratio": "ratio",
    "trading.accepted": "count",
    "trading.rejected": "count",
    "trading.curtailed": "count",
    "trading.hybrid_steps": "count",
    "market_io.trace_bytes": "bytes",
    "trade_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "steps": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def fresh_import():
    """Import ``gridtrade`` anew from ``src/``, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "gridtrade" or n.startswith("gridtrade.")]:
        del sys.modules[name]
    module = importlib.import_module("gridtrade")
    if Path(module.__file__).resolve().parent != SRC / "gridtrade":
        raise ImportError(f"gridtrade imported from {module.__file__}, not {SRC}")
    return module


def setup(build, seed: int, tracer=None):
    """Import the package, build the workload's inputs; returns (seconds, ops)."""
    gc.collect()
    t0 = time.perf_counter()
    fresh_import()
    with tracer.installed() if tracer else nullcontext():
        ops = build(seed)
    return time.perf_counter() - t0, ops


def one_pass(ops, tracer=None):
    """Run every operation once; exceptions are recorded, not raised."""
    times = PassTimes()
    outcomes = []
    with tracer.installed() if tracer else nullcontext():
        with tracer.span("bench.pass") if tracer else nullcontext():
            t0 = time.perf_counter()
            for op in ops:
                try:
                    outcomes.append(op.run(times))
                except Exception as exc:  # one failed operation must not end the run
                    traceback.print_exc(file=sys.stderr)
                    outcomes.append(exc)
            times.wall = time.perf_counter() - t0
    return times, outcomes


def run_passes(ops, budget: float, traced: bool) -> list:
    """Passes until another would exceed ``budget`` seconds; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced else None
        gc.collect()
        times, outcomes = one_pass(ops, tracer)
        passes.append((times, outcomes, tracer))
        if time.perf_counter() - start + times.wall > budget:
            return passes


def gate(ops, passes) -> tuple[int, list[str]]:
    """Failed operation-passes and the failure messages."""
    messages = []
    reference = passes[0][1]
    bad = set()
    digests = []
    for op, outcome in zip(ops, reference):
        if isinstance(outcome, Exception):
            bad.add(op.index)
            messages.append(f"op {op.index}: {type(outcome).__name__}: {outcome}")
            digests.append(None)
            continue
        try:
            problems = op.check(outcome)
        except Exception as exc:  # a check that cannot run is a failed gate
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            bad.add(op.index)
            messages += [f"op {op.index}: {p}" for p in problems]
        digests.append(op.digest(outcome))
    failed = 0
    for k, (_, outcomes, _) in enumerate(passes):
        for op, outcome, ref in zip(ops, outcomes, digests):
            if op.index in bad or isinstance(outcome, Exception):
                failed += 1
            elif k and op.digest(outcome) != ref:
                failed += 1
                messages.append(f"op {op.index}: pass {k} differs from pass 0")
    return failed, messages


def trace_digest(ops, outcomes) -> str:
    """SHA-256 over every operation's trace digest, in build order."""
    parts = sorted(
        (op.index, None if isinstance(o, Exception) else op.trace_digest(o))
        for op, o in zip(ops, outcomes)
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def quantile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def trading_counts(ops, outcomes) -> dict:
    counts = dict.fromkeys(
        ("trading.accepted", "trading.rejected", "trading.curtailed", "trading.hybrid_steps",
         "market_io.trace_bytes", "steps"), 0)
    for op, outcome in zip(ops, outcomes):
        if not isinstance(op, TradingOp) or isinstance(outcome, Exception):
            continue
        result, _, _, trace = outcome
        records = result.state.records
        counts["trading.accepted"] += sum(r.accepted for r in records)
        counts["trading.rejected"] += sum(not r.accepted for r in records)
        counts["trading.curtailed"] += sum(r.accepted and r.gamma < 1.0 for r in records)
        counts["trading.hybrid_steps"] += sum(r.gamma_by_scenario is not None for r in records)
        counts["market_io.trace_bytes"] += len(trace.encode())
        counts["steps"] += result.steps
    return counts


def layer_metrics(tracer, ops, times, outcomes) -> dict:
    selfs = self_times(tracer.spans)
    metrics = {metric: selfs.get(span, 0.0) for span, metric in SELF_TIMES.items()}
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    searches = tracer.counts.get("proposer.search_calls", 0)
    metrics["proposer.useful_ratio"] = tracer.counts.get("proposer.useful", 0) / searches if searches else 0.0
    metrics.update(trading_counts(ops, outcomes))
    metrics["trace.wall_s"] = times.wall
    return metrics


def step_metrics(passes) -> dict:
    samples = [ms for t, _, _ in passes for ms in t.step_ms]
    return {
        "trade_s": statistics.median(t.trade for t, _, _ in passes),
        "step_ms.p50": quantile(samples, 50),
        # The 90th percentile needs ten samples beyond it.
        "step_ms.p90": quantile(samples, 90) if len(samples) >= 100 else 0.0,
    }


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha(*dirs: Path) -> str:
    """SHA-256 over the Python sources under ``dirs``."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha(SRC / "gridtrade"),
        "bench_sha256": source_sha(BENCH),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {
            "name": blas.get("name"),
            "config": blas.get("openblas configuration"),
            "threads_env": {
                k: os.environ.get(k)
                for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
    }


def check_repeatable(key: str, record: dict) -> str | None:
    """Compare with the digest an earlier run of the same code and seed stored."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and known[key] != record:
        return f"{key}: {record} differs from an earlier run's {known[key]}"
    known[key] = record
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridtrade" / "__init__.py").is_file():
        print(f"bench: no gridtrade sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(BUILDERS)}")
    build = BUILDERS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        ops = None  # release the previous build before timing the next
        seconds, ops = setup(build, args.seed)
        setup_times.append(seconds)

    if args.trace:
        setup_tracer = Tracer()
        ops = None
        _, ops = setup(build, args.seed, setup_tracer)
        plain = run_passes(ops, args.seconds / 2, traced=False)
        traced = run_passes(ops, args.seconds / 2, traced=True)
        passes = plain + traced
    else:
        passes = run_passes(ops, args.seconds, traced=False)

    failed, messages = gate(ops, passes)
    reference = passes[0][1]
    record = {
        "trace_sha256": trace_digest(ops, reference),
        "steps": trading_counts(ops, reference)["steps"],
    }
    key = f"{source_sha(SRC / 'gridtrade', BENCH)[:16]}/{args.workload}/{args.seed}"
    mismatch = check_repeatable(key, record)
    if mismatch:
        messages.append(mismatch)
        failed = max(failed, 1)

    if args.trace:
        per_pass = [layer_metrics(tr, ops, t, o) for t, o, tr in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        setup_selfs = self_times(setup_tracer.spans)
        for span, metric in SETUP_SELF_TIMES.items():
            metrics[metric] = setup_selfs.get(span, 0.0)
        metrics.update(step_metrics(plain))
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            t.wall for t, _, _ in plain
        )
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fp:
            setup_tracer.write(fp, "setup")
            for k, (_, _, tr) in enumerate(traced):
                tr.write(fp, f"pass{k}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(t.wall for t, _, _ in passes),
            "dispatch_s": statistics.median(t.dispatch for t, _, _ in passes),
            "equilibrium_s": statistics.median(t.equilibrium for t, _, _ in passes),
        }
        units = END_TO_END

    for message in messages:
        print(f"bench: FAIL {message}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": SIZES[args.workload],
        "operations": len(ops),
        "passes": len(passes),
        "traced_passes": len(traced) if args.trace else 0,
        "setup_repeats": SETUP_REPEATS,
        "setup_s_all": setup_times,
        "wall_s_all": [t.wall for t, _, _ in passes],
        **record,
        **environment(),
    }
    print(json.dumps({"meta": meta}))
    attempted = len(ops) * len(passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
