"""Benchmark of the coordinated spatio-temporal access-control engine.

One run::

    python3 perfbench/run.py --workload zipf-scale --seed 1 --seconds 12 --trace 0

checks the workload's decisions for correctness, measures it and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (untraced); ``--trace 1`` reports the per-layer
metrics of a separate traced pass, plus the tracing overhead.

Every workload and metric at once, as two tables::

    python3 perfbench/run.py --report [--seed 1] [--seconds 12]

See perfbench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

from harness import BenchError

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("zipf-scale", "hot-sessions", "session-churn", "coalition-roaming")

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "rss_growth_mb": "MB",
}

PER_LAYER = {
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.self_s": "s",
    "service.queue_wait_p99_ms": "ms",
    "service.failed": "count",
    "sweep.calls": "count",
    "sweep.s": "s",
    "sweep.us_per_request": "us",
    "sweep.sessions_per_call": "count",
    "sweep.singleton_share": "ratio",
    "engine.vector_fallbacks": "count",
    "engine.decide.calls": "count",
    "engine.decide.s": "s",
    "engine.open_sessions_s": "s",
    "engine.expire_sessions_s": "s",
    "engine.prewarm_s": "s",
    "engine.candidate_hit_ratio": "ratio",
    "store.bytes_mb": "MB",
    "store.bytes_per_resident": "B",
    "store.growth_ratio": "ratio",
    "srac.cache_misses": "count",
    "agent.run_s": "s",
    "agent.self_s": "s",
    "agent.migrations": "count",
    "agent.accesses": "count",
    "proofs.flushes": "count",
    "proofs.per_flush": "count",
    "proofs.flush_s": "s",
    "gc.gen2_collections": "count",
    "gc.pause_max_ms": "ms",
    "gc.pause_total_ms": "ms",
    "driver.late_max_ms": "ms",
    "driver.latency_p50_ms": "ms",
    "driver.latency_p99_ms": "ms",
    "trace.overhead": "ratio",
    "trace.missing_entry_points": "count",
}


def pin_to_one_cpu() -> None:
    """Run the submitter and the worker on one CPU.  The interpreter
    lock already serialises their Python code; what two CPUs add is
    cross-CPU wake-up latency that swung open-loop latency by ~40%
    from run to run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if name == "coalition-roaming":
        import roaming

        return roaming.run(seed, seconds, trace)
    import vector

    if name == "session-churn":
        return vector.run_churn(seed, seconds, trace)
    shape = vector.ZIPF if name == "zipf-scale" else vector.HOT
    return vector.run_steady(name, shape, seed, seconds, trace)


def result_line(report: dict, trace: bool) -> dict:
    measured = report["traced" if trace else "untraced"]
    if trace:
        layers = dict(
            measured["layers"],
            **{
                "driver.latency_p50_ms": measured["latency_p50_ms"],
                "driver.latency_p99_ms": measured["latency_p99_ms"],
            },
        )
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(measured[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": True,
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": metrics,
    }


def describe(report: dict, trace: bool) -> None:
    """Human-readable lines ahead of the JSON result."""
    inputs = report["inputs"]
    print(f"workload {inputs['workload']}: {inputs['why']}")
    print("inputs: " + ", ".join(
        f"{k}={v}" for k, v in inputs.items() if k not in ("workload", "why")
    ))
    for label in ("untraced", "traced") if trace else ("untraced",):
        measured = report[label]
        raw = ", ".join(f"{k} {v:.4g}" for k, v in measured["raw"].items())
        print(
            f"{label}: {measured['closed_requests']} requests in "
            f"{measured['closed_wall_s']:.2f}s closed loop, "
            f"{measured['open_requests']} latency samples "
            f"(p50 {measured['latency_p50_ms']:.4g} ms, "
            f"p99 {measured['latency_p99_ms']:.4g} ms), "
            f"set-up samples {[round(s, 4) for s in measured['setup_samples']]}; "
            f"as measured: {raw}"
        )
    for name in report.get("missing", ()):
        print(f"trace: entry point {name} is missing; its layer reads 0")


def report_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in its own process,
    and print the end-to-end and per-layer tables."""
    results: dict[str, dict[int, dict]] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                print(f"{name} (trace {trace}) failed")
                return 1
            results.setdefault(name, {})[trace] = json.loads(
                done.stdout.strip().splitlines()[-1]
            )
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        print("\n" + ("end-to-end (untraced)" if not trace else "per layer (traced)"))
        print(f"{'metric':34}{'unit':>7}" + "".join(f"{w:>19}" for w in WORKLOADS))
        for metric, unit in table.items():
            row = [results[w][trace]["metrics"][metric]["value"] for w in WORKLOADS]
            print(f"{metric:34}{unit:>7}" + "".join(f"{v:>19.4g}" for v in row))
    print("\nall workloads passed their correctness gates")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if args.report:
        return report_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required (or use --report)")
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: correctness check failed: {error}", file=sys.stderr)
        return 1
    describe(report, bool(args.trace))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
