"""Smoke test of the performance harness at ``--scale tiny``.

Every workload once (about 2 k triples, 20 ops, one timed round), the
served ones with their real subprocesses, plus one ``--trace 1`` run for the
per-layer ladder.  The six runs go side by side, so the whole module stays
under ten seconds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
SPEC = json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
TRACED = "bgp-join"
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(PERF_DIR))


def _launch(workload: str, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
         "--scale", "tiny", "--seed", "13", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def runs():
    """``{(workload, trace): (contract line, pid)}`` of six tiny runs."""
    launched = {(workload, 0): _launch(workload, 0) for workload in WORKLOADS}
    launched[(TRACED, 1)] = _launch(TRACED, 1)
    finished = {}
    for key, process in launched.items():
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, f"{key}: {err}"
        finished[key] = (json.loads(out.strip().splitlines()[-1]),
                         process.pid)
    return finished


def _check_metrics(line: dict, declared: list) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = line["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], float), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_as_declared(runs, workload):
    line, _pid = runs[(workload, 0)]
    _check_metrics(line, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_layer_metrics_are_emitted_as_declared(runs):
    line, _pid = runs[(TRACED, 1)]
    _check_metrics(line, SPEC["per_layer"])
    assert len(line["metrics"]) == 70


def test_runs_leave_no_process_or_directory_behind(runs):
    """A workload's scratch directory carries its run's pid; the servers'
    command lines carry the directory."""
    for _line, pid in runs.values():
        marker = f"-tiny-{pid}-"
        scratch = PERF_DIR / "results" / "tmp"
        assert not [path for path in scratch.glob("*") if marker in path.name]
        for command in Path("/proc").glob("[0-9]*/cmdline"):
            try:
                assert marker not in command.read_text()
            except OSError:
                pass  # the process ended while we were looking


def test_a_wrong_expected_count_is_a_failed_op_not_a_crash():
    from perfkit import harness
    from perfkit.workloads import WORKLOADS as classes

    def tamper(workload):
        workload.ops[0].count += 1
    result = harness.run_workload(classes["select-patterns"], seed=13,
                                  scale="tiny", seconds=1.0, trace=False,
                                  tamper=tamper)
    # Once in the verification round, once in the single timed round.
    assert result["failed"] == 2
    assert result["attempted"] > result["failed"]
