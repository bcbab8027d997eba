#!/usr/bin/env python3
"""One harness for every speed and space claim in this repo.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--aa [K]] [--print-ops W]

Builds each workload from the seed, checks every answer against the
vertical-partitioning oracle, prints every metric by name with its unit and
writes ``benchmarks/perf/results/<workload>.json`` (with ``--trace 1``:
``<workload>.trace.json``, and the spans in ``trace-<workload>.json``).  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``, or
with ``--trace 1`` its per-layer metrics.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

DEFAULT_SEED = 13


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload in this process "
                             "(default: all five, one child process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced round and the per-layer ladder")
    parser.add_argument("--scale", default="full",
                        choices=("tiny", "small", "full"))
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=None,
                        metavar="K", help="A/A self-check: two interleaved "
                        "sets of K full runs must agree")
    parser.add_argument("--print-ops", default=None, metavar="W",
                        help="dump workload W's op list and exit")
    return parser.parse_args(argv)


def run_one(args, spec) -> int:
    """One workload in this process: report, result file, contract line."""
    from perfkit import harness, report
    from perfkit.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    result = harness.run_workload(WORKLOADS[args.workload], args.seed,
                                  args.scale, args.seconds, trace)
    facts = result["facts"]
    print(f"{args.workload}: seed {args.seed}, {facts['ops']} ops x "
          f"{facts['rounds']} timed rounds, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print("\n".join(report.format_metrics(result["end_to_end"])))
    if trace:
        summary = facts["trace"]
        print(f"  trace_overhead_ratio  {summary['trace_overhead_ratio']:.4f}")
        for name, share in summary["self_time_share"].items():
            print(f"  self time {name:<24} {share:7.2%}")
        if "ladder_sum_over_untraced_op" in summary:
            print(f"  ladder sum / untraced op: "
                  f"{summary['ladder_sum_over_untraced_op']}")
        print("\n".join(report.format_metrics(result["per_layer"])))
    document = {
        "workload": args.workload,
        "manifest": dict(report.fingerprint(), seed=args.seed,
                         scale=args.scale, seconds=args.seconds, **facts),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in result["end_to_end"].items()},
        "per_layer": {name: {"value": value, "unit": unit}
                      for name, (value, unit) in result["per_layer"].items()},
    }
    # A traced run halves the timed budget and sets up once, so its
    # end-to-end numbers are kept apart from an untraced run's.
    name = f"{args.workload}.trace.json" if trace else f"{args.workload}.json"
    harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (harness.RESULTS_DIR / name).write_text(
        json.dumps(document, indent=2) + "\n")
    print(report.contract_line(result, trace))
    return 0


def child_arguments(args, workload, seed, trace) -> list:
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--scale", args.scale]


def run_all(args, spec) -> int:
    from perfkit import report
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        line = report.run_child(
            child_arguments(args, workload, args.seed, args.trace))
        merged["correct"] &= line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            key = name if args.trace else f"{workload}/{name}"
            merged["metrics"][key] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def run_aa(args, spec) -> int:
    """Two sets of K full runs, interleaved A B B A ...; run i of either set
    uses seed + i, so a spread holds what the driver's does: the box's
    noise plus what is left of the seed's influence."""
    from perfkit import harness, report
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {label: {w: [] for w in workloads} for label in "AB"}
    identical = True
    for i in range(args.aa):
        pair = {}
        for label in ("AB", "BA")[i % 2]:
            for workload in workloads:
                line = report.run_child(
                    child_arguments(args, workload, args.seed + i, 0))
                if not line["correct"]:
                    print(f"{workload}: {line['failed']} failed ops",
                          file=sys.stderr)
                    identical = False
                values = {name: m["value"]
                          for name, m in line["metrics"].items()}
                values["attempted"] = line["attempted"]
                runs[label][workload].append(values)
                pair.setdefault(workload, []).append(values)
        for workload, (first, second) in pair.items():
            # Not "!=": a persisted cluster holds epoch documents with the
            # shards' process ids, a digit more or less from run to run.
            bits = first["bits_per_triple"], second["bits_per_triple"]
            if abs(bits[0] - bits[1]) > 1e-4 * bits[0]:
                print(f"{workload}: bits_per_triple differs for seed "
                      f"{args.seed + i}", file=sys.stderr)
                identical = False
    # The ladder does not depend on the workload that asks for it: two
    # traced runs of one workload check its exact counts.
    ladders = [report.run_child(child_arguments(
        args, workloads[0], args.seed, 1))["metrics"] for _ in range(2)]
    for name in report.EXACT_LAYER_ROWS:
        if ladders[0][name]["value"] != ladders[1][name]["value"]:
            print(f"{name} differs between two runs", file=sys.stderr)
            identical = False

    comparison = report.compare_sets(spec, runs)
    print("\n".join(report.format_comparison(comparison)))
    print(f"exact counts identical: {identical}; every gap and spread "
          f"within bound: {comparison['ok']}; within the shipping target "
          f"(gap <= bound/2, spread <= bound/3): "
          f"{comparison['within_target']}")
    harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (harness.RESULTS_DIR / "aa.json").write_text(json.dumps({
        "manifest": dict(report.fingerprint(), seed=args.seed, runs=args.aa,
                         seconds=args.seconds, scale=args.scale),
        "exact_counts_identical": identical,
        "ok": comparison["ok"],
        "within_target": comparison["within_target"],
        "rows": comparison["rows"],
        "ladder": ladders,
    }, indent=2) + "\n")
    return 0 if comparison["ok"] and identical else 1


def print_ops(args) -> int:
    from perfkit.workloads import WORKLOADS
    workload = WORKLOADS[args.print_ops](args.seed, args.scale)
    workload.generate()
    for op in workload.ops:
        print(json.dumps(op.describe()))
    return 0


def main(argv=None) -> int:
    args = parse_arguments(argv)
    # A driver's SIGTERM must still stop the servers (finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        import repro  # noqa: F401 - fail here, not halfway through a run
        from perfkit import report
        spec = report.load_spec()
    except (ImportError, OSError) as error:
        print(f"cannot run here: {error} (the harness needs the repo's "
              f"src/ and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.print_ops:
        return print_ops(args)
    if args.aa is not None:
        return run_aa(args, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
