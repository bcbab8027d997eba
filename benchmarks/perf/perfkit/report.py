"""Run manifest, printing, and the A/A comparison of two sets of runs."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

REPO_DIR = Path(__file__).resolve().parents[3]

#: Per-layer rows that are exact counts: identical for the same seed.
EXACT_LAYER_ROWS = (
    "queries.seeks_per_result", "queries.blocks_per_result",
    "queries.matched_per_result", "cluster.rpcs_per_query.routed",
    "cluster.rpcs_per_query.star", "cluster.rpcs_per_query.join",
    "dynamic.compactions", "storage.container_bytes_per_triple",
    "storage.wal.bytes_per_triple",
)


def load_spec() -> Dict[str, Any]:
    return json.loads((REPO_DIR / "BENCHMARK.json").read_text())


def fingerprint() -> Dict[str, Any]:
    """The machine and code a result was measured on."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (REPO_DIR / ".git").exists():
        done = subprocess.run(["git", "-C", str(REPO_DIR), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": platform.release(),
        "git_sha": sha,
    }


def format_metrics(metrics: Dict[str, tuple]) -> List[str]:
    width = max((len(name) for name in metrics), default=0)
    return [f"  {name:<{width}}  {value:>14.6g} {unit}"
            for name, (value, unit) in metrics.items()]


def contract_line(result: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# --------------------------------------------------------------------------- #
# A/A: two sets of runs of the same code must agree.
# --------------------------------------------------------------------------- #

def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def compare_sets(spec: Dict[str, Any],
                 runs: Dict[str, Dict[str, List[Dict[str, float]]]]
                 ) -> Dict[str, Any]:
    """``runs[set][workload]`` is a list of ``{metric: value}``.

    Per (workload, metric): both medians and quartiles, each set's spread
    (interquartile range over median) and the relative gap between the
    medians.  A row fails when the gap exceeds the metric's bound or —
    ``setup_s`` apart, exactly as the driver judges it — a spread does.
    """
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {"workload": workload, "metric": name, "bound": bound}
            medians = {}
            for label in ("A", "B"):
                values = [run[name] for run in runs[label][workload]]
                q1, q2, q3 = _quartiles(values)
                median = statistics.median(values)
                medians[label] = median
                row[label] = {"median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median if median else 0.0,
                              "values": values}
            base = medians["A"]
            row["gap"] = abs(medians["B"] - base) / base if base else 0.0
            spreads = max(row["A"]["spread"], row["B"]["spread"])
            row["ok"] = row["gap"] <= bound and (
                name == "setup_s" or spreads <= bound)
            row["within_target"] = row["gap"] <= bound / 2 and (
                name == "setup_s" or spreads <= bound / 3)
            rows.append(row)
    return {"rows": rows, "ok": all(row["ok"] for row in rows),
            "within_target": all(row["within_target"] for row in rows)}


def format_comparison(comparison: Dict[str, Any]) -> List[str]:
    lines = [f"{'workload':<16} {'metric':<16} {'median A':>12} "
             f"{'median B':>12} {'gap':>7} {'spread A':>9} {'spread B':>9} "
             f"{'bound':>6}"]
    for row in comparison["rows"]:
        flag = "" if row["within_target"] else (
            "  over target" if row["ok"] else "  FAIL")
        lines.append(
            f"{row['workload']:<16} {row['metric']:<16} "
            f"{row['A']['median']:>12.5g} {row['B']['median']:>12.5g} "
            f"{row['gap']:>7.2%} {row['A']['spread']:>9.2%} "
            f"{row['B']['spread']:>9.2%} {row['bound']:>6.1%}{flag}")
    return lines


def run_child(arguments: Sequence[str]) -> Dict[str, Any]:
    """Run ``run.py <arguments>`` in a fresh process; returns its contract
    line, parsed.  The child's own report goes to this process's stderr."""
    script = Path(__file__).resolve().parents[1] / "run.py"
    done = subprocess.run([sys.executable, str(script), *arguments],
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"run.py {' '.join(arguments)} exited with {done.returncode}")
    return json.loads(lines[-1])
