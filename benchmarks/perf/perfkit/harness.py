"""Estimators: how a workload is set up, replayed, timed and checked.

The rules (README.md explains each):

* a workload is a fixed op list; every round replays it in the same order;
* round 0 warms up and verifies count + row hash of every op, untimed;
* per-op latency is the op's *lowest decile across timed rounds* (noise on
  a shared box only ever adds time), and p50/p95 are nearest-rank
  percentiles over those per-op values;
* throughput and ns/result use the *quiet round*: the per-op values summed
  along each client lane;
* ``setup_s`` is the same lowest decile over several repetitions of the
  set-up sequence.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from perfkit import procs
from perfkit.oracle import rows_digest

PERF_DIR = Path(__file__).resolve().parents[1]
RESULTS_DIR = PERF_DIR / "results"

#: Per scale: set-up repetitions, seconds of :func:`procs.wake_cores` before
#: them, the clamp on timed rounds, and the scale the layer probes run at.
#: ``tiny`` exists for the smoke test (everything once).  Three rounds is the
#: floor: one round of ``cluster-join`` takes 4.5 s, most of it the 40 ms
#: stalls README describes.
_MEASURED = dict(setup_repetitions=3, wake_seconds=2.0, rounds=(3, 40),
                 probe_scale="small")
SCALE_RULES = {
    "tiny": dict(setup_repetitions=1, wake_seconds=0.0, rounds=(1, 1),
                 probe_scale="tiny"),
    "small": _MEASURED,
    "full": _MEASURED,
}

#: Traced rounds, and replays of the layers beneath each op, of an
#: in-process workload.
TRACED_PASSES = 3


@dataclass
class Op:
    """One operation with the answer the oracle expects."""

    kind: str
    request: Any
    #: Expected results: rows returned, or triples applied by a write.
    count: int
    #: Expected order-independent row hash; ``None`` for writes.
    digest: Optional[int] = None

    def describe(self) -> list:
        request = self.request
        if isinstance(request, bytes):
            request = request.decode("utf-8")
        return [self.kind, request, self.count, self.digest]


class Workload:
    """What the harness needs from a workload; see README, "Adding one"."""

    name = ""
    #: Span name of one op in the traced round.
    layer = ""
    #: Client connections a round is spread over; 0 = in-process calls.
    connections = 0
    #: Whether ops replace the index (compaction): the peak RSS of such an
    #: in-process workload is taken by :func:`memory_round`.
    replaces_index = False

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = scale
        self.ops: List[Op] = []
        #: Server subprocesses, stopped by :meth:`teardown`.
        self.processes: List = []
        self.workdir = (RESULTS_DIR / "tmp"
                        / f"{self.name}-{scale}-{os.getpid()}-{id(self):x}")

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    # -- untimed ------------------------------------------------------- #
    def generate(self) -> None:
        """Build the data set, the op list and the expected answers."""
        raise NotImplementedError

    def restore(self) -> None:
        """Put a stateful system back to pristine before a round."""

    def teardown(self) -> None:
        """Stop processes and drop what :meth:`setup` created."""
        procs.stop_all(self.processes)
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- timed --------------------------------------------------------- #
    def setup(self) -> None:
        """Generated triples in memory -> ready for the first op."""
        raise NotImplementedError

    def execute(self, op: Op, connection=None, spans: Optional[list] = None):
        """Run one op and return its raw result (consumed, not decoded)."""
        raise NotImplementedError

    # -- decoding a raw result (after the clock stopped) ---------------- #
    def count(self, op: Op, raw) -> int:
        return len(raw)

    def rows(self, op: Op, raw) -> Sequence[Sequence[int]]:
        return raw

    # -- reporting ----------------------------------------------------- #
    def connect(self):
        """One client connection (served workloads only)."""
        raise NotImplementedError

    def bits_per_triple(self) -> float:
        raise NotImplementedError

    def span_name(self, op: Op) -> str:
        """Name of the traced round's span around ``op``."""
        return self.layer

    def replay_layers(self, op: Op, tracer: "Tracer", index: int) -> None:
        """Call the layers beneath one op separately and hand their spans
        to ``tracer.replayed``."""

    def layer_rows(self, rows: Dict[str, tuple]) -> None:
        """Add this workload's per-layer metrics to ``rows`` as
        ``name -> (value, unit)``."""

    def describe(self) -> Dict[str, Any]:
        """Workload facts for the run manifest."""
        return {}


# --------------------------------------------------------------------------- #
# Spans.
# --------------------------------------------------------------------------- #

class Tracer:
    """Spans the harness records around its own calls into each layer.

    Spans of one op share the op index; a span's id is ``"<op>:<n>"`` and
    the op's root span is ``"<op>:0"``.  An op executed or replayed more
    than once keeps the spans of its fastest pass, for the reason per-op
    latencies are quiet values: see :func:`quiet`.
    """

    def __init__(self):
        #: op -> (cost_ns, [(name, start_ns, end_ns), ...]); of an executed
        #: op the first span is the root and the rest lie inside it.
        self._executed: Dict[int, tuple] = {}
        self._replayed: Dict[int, tuple] = {}

    @staticmethod
    def _keep_faster(kept: Dict[int, tuple], op: int, cost: int,
                     spans: list) -> None:
        if op not in kept or cost < kept[op][0]:
            kept[op] = (cost, spans)

    def executed(self, op: int, root: tuple, children: list) -> None:
        """One pass of ``op`` in a traced round."""
        self._keep_faster(self._executed, op, root[2] - root[1],
                          [root, *children])

    def replayed(self, op: int, spans: list) -> None:
        """The layers beneath ``op`` called one by one, outside any round;
        they become children of the op's root span."""
        self._keep_faster(self._replayed, op,
                          sum(end - start for _name, start, end in spans),
                          spans)

    def _spans_of(self, op: int) -> List[list]:
        spans = self._executed[op][1] + self._replayed.get(op, (0, []))[1]
        return [[f"{op}:{n}", name, start, end, f"{op}:0" if n else None]
                for n, (name, start, end) in enumerate(spans)]

    def spans(self) -> List[dict]:
        return [dict(id=s[0], name=s[1], start_ns=s[2], end_ns=s[3],
                     parent=s[4], op=op)
                for op in sorted(self._executed) for s in self._spans_of(op)]

    def op_breakdown(self, op: int) -> Dict[str, int]:
        """Self time per span name for one op: a span's duration minus the
        part its children cover (never below zero)."""
        spans = self._spans_of(op)
        covered: Dict[Optional[str], int] = {}
        for _id, _name, start, end, parent in spans:
            covered[parent] = covered.get(parent, 0) + (end - start)
        breakdown: Dict[str, int] = {}
        for span_id, name, start, end, _parent in spans:
            own = max(0, (end - start) - covered.get(span_id, 0))
            breakdown[name] = breakdown.get(name, 0) + own
        return breakdown

    def self_times(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for op in self._executed:
            for name, own in self.op_breakdown(op).items():
                totals[name] = totals.get(name, 0) + own
        return totals


# --------------------------------------------------------------------------- #
# Rounds.
# --------------------------------------------------------------------------- #

@dataclass
class Round:
    latencies_ns: np.ndarray
    wall_ns: int
    failed: int


def _play_slice(workload: Workload, indexes: Sequence[int], connection,
                latencies: np.ndarray, failures: List[int], verify: bool,
                tracer: Optional[Tracer]) -> None:
    ops = workload.ops
    clock = time.perf_counter_ns
    for index in indexes:
        op = ops[index]
        spans = [] if tracer is not None else None
        started = clock()
        try:
            raw = workload.execute(op, connection, spans)
            ended = clock()
            ok = workload.count(op, raw) == op.count
            if ok and verify and op.digest is not None:
                ok = rows_digest(workload.rows(op, raw))[1] == op.digest
        except Exception:  # a failed op is a result, not a crash
            ended = clock()
            ok = False
        latencies[index] = ended - started
        if not ok:
            failures.append(index)
        if tracer is not None:
            tracer.executed(index, (workload.span_name(op), started, ended),
                            spans)


def play_round(workload: Workload, verify: bool = False,
               tracer: Optional[Tracer] = None) -> Round:
    """Replay the whole op list once, in order."""
    workload.restore()
    count = len(workload.ops)
    latencies = np.zeros(count, dtype=np.int64)
    failures: List[int] = []
    if workload.connections == 0:
        started = time.perf_counter_ns()
        _play_slice(workload, range(count), None, latencies, failures,
                    verify, tracer)
        wall = time.perf_counter_ns() - started
    else:
        # Closed loop: connection j sends ops j, j + C, j + 2C, ... each
        # after the previous reply, so every round issues the same ops on
        # the same connection in the same order.
        lanes = workload.connections
        clients = [workload.connect() for _ in range(lanes)]
        barrier = threading.Barrier(lanes + 1)

        def lane(position: int) -> None:
            barrier.wait()
            _play_slice(workload, range(position, count, lanes),
                        clients[position], latencies, failures, verify,
                        tracer)
        threads = [threading.Thread(target=lane, args=(j,))
                   for j in range(lanes)]
        try:
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter_ns()
            for thread in threads:
                thread.join()
            wall = time.perf_counter_ns() - started
        finally:
            for client in clients:
                client.close()
    return Round(latencies, wall, len(failures))


def quiet(samples) -> np.ndarray:
    """Lowest decile down the first axis: what the code costs when the box
    leaves it alone.

    Interference on a shared machine is one-sided and comes in bursts: a
    fixed spin loop here takes 114 ms for some seconds, then 165 to 200 ms
    for the next two to thirty, with no steal time to show for it.  A median
    over repetitions lands on either side of a burst edge from one run to
    the next (identical code read 559 and 838 ops/s).  The lowest decile
    stays in a quiet phase as long as a tenth of the repetitions met one;
    with ten or fewer repetitions it is the minimum.
    """
    return np.quantile(np.asarray(samples), 0.10, axis=0, method="lower")


def memory_round(workload: Workload) -> Round:
    """One more round, with the cyclic collector paused, for ``VmHWM``.

    With the collector running, the peak of a workload that replaces its
    index hangs on *when* a generation-2 collection happens to fall: the old
    index stays alive until the collector finds its reference cycle, and
    collections are triggered by allocation counts, which differ from one op
    list to the next.  ``update-mix`` read 82 to 96 MB over eight seeds that
    way, and 88.7 to 89.0 MB this way.  Pausing the collector for exactly
    one round makes the peak a property of the code: what the round
    allocates and cannot free by reference counting alone.  (Workloads that
    keep their index do better with the plain ``VmHWM``: their garbage is
    proportional to the rows returned, which the pause would pile up.)
    """
    gc.collect()
    gc.disable()
    try:
        procs.reset_peak_rss()
        return play_round(workload)
    finally:
        gc.enable()


def nearest_rank(sorted_values: np.ndarray, fraction: float) -> float:
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return float(sorted_values[rank - 1])


# --------------------------------------------------------------------------- #
# One workload, end to end.
# --------------------------------------------------------------------------- #

def measure_setup(workload_class: Callable[[int, str], Workload], seed: int,
                  scale: str, repetitions: int, wake_seconds: float):
    """Generate, then time the set-up ``repetitions`` times.

    Returns the workload left set up by the last repetition and the list of
    set-up times in seconds.
    """
    # One throw-away tiny build first, so that imports and numpy's lazily
    # initialised kernels are not billed to the first repetition.
    from repro.core.builder import IndexBuilder
    from repro.datasets import generate_from_profile
    IndexBuilder(generate_from_profile("dbpedia", 2_000, seed=0)).build("2tp")
    workload = workload_class(seed, scale)
    workload.generate()
    # Generation's transients (oracle joins, candidate pools) are not the
    # system's memory: peak RSS counts from here.
    gc.collect()
    procs.reset_peak_rss()
    if workload.connections and wake_seconds:
        procs.wake_cores(wake_seconds)  # the servers start side by side
    times = []
    for repetition in range(repetitions):
        started = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.teardown()
            raise
        times.append(time.perf_counter() - started)
        if repetition < repetitions - 1:
            workload.teardown()
    return workload, times


def run_workload(workload_class, seed: int, scale: str, seconds: float,
                 trace: bool, tamper: Optional[Callable] = None
                 ) -> Dict[str, Any]:
    """Set up, verify, time (and optionally trace) one workload.

    Returns ``{"attempted", "failed", "end_to_end", "per_layer", "facts"}``;
    ``per_layer`` is empty unless ``trace``.  ``tamper`` (tests only)
    receives the generated workload before round 0.
    """
    rules = SCALE_RULES[scale]
    workload, setup_times = measure_setup(
        workload_class, seed, scale,
        1 if trace else rules["setup_repetitions"], rules["wake_seconds"])
    try:
        if tamper is not None:
            tamper(workload)
        verification = play_round(workload, verify=True)
        attempted = len(workload.ops)
        failed = verification.failed
        # An in-process peak is read here, not after the timed rounds: up to
        # here the allocation history is the same in every run, after them
        # it depends on how many rounds the box's speed allowed
        # (``bgp-join`` read 64 MB after 7 rounds and 70 MB after 25).
        if workload.replaces_index:
            memory = memory_round(workload)
            attempted += len(workload.ops)
            failed += memory.failed
        in_process_peak = procs.peak_rss_mb()

        low, high = rules["rounds"]
        budget = seconds / 2 if trace else seconds
        round0_s = max(verification.wall_ns / 1e9, 1e-6)
        planned = min(high, max(low, math.ceil(budget / round0_s)))
        gc.collect()
        gc.freeze()
        timed: List[Round] = []
        for _ in range(planned):
            timed.append(play_round(workload))
        attempted += planned * len(workload.ops)
        failed += sum(r.failed for r in timed)

        walls = [r.wall_ns for r in timed]
        per_op = quiet(np.stack([r.latencies_ns for r in timed]))
        lanes = max(1, workload.connections)
        quiet_wall_ns = max(float(per_op[lane::lanes].sum())
                            for lane in range(lanes))
        ordered = np.sort(per_op)
        results_per_round = sum(op.count for op in workload.ops)
        # The processes holding the index: the servers, if there are any.
        peak = (sum(procs.peak_rss_mb(server.pid)
                    for server in workload.processes)
                if workload.processes else in_process_peak)
        end_to_end = {
            "setup_s": (float(quiet(setup_times)), "s"),
            "ops_per_s": (len(workload.ops) / (quiet_wall_ns / 1e9), "1/s"),
            "op_p50_us": (nearest_rank(ordered, 0.50) / 1e3, "us"),
            "op_p95_us": (nearest_rank(ordered, 0.95) / 1e3, "us"),
            "ns_per_result": (quiet_wall_ns / max(1, results_per_round),
                              "ns"),
            "bits_per_triple": (workload.bits_per_triple(), "bits"),
            "peak_rss_mb": (peak, "MB"),
        }
        facts = {
            "ops": len(workload.ops),
            "rounds": planned,
            "results_per_round": results_per_round,
            "round0_wall_s": round0_s,
            "round_wall_s": [w / 1e9 for w in walls],
            "quiet_round_wall_s": quiet_wall_ns / 1e9,
            "setup_times_s": setup_times,
            "op_list_sha256": op_list_hash(workload.ops),
            "time_share_by_kind": time_share_by_kind(workload.ops, per_op),
            "workdir_filesystem": procs.filesystem_of(RESULTS_DIR),
        }
        facts.update(workload.describe())

        per_layer: Dict[str, tuple] = {}
        if trace:
            tracer = Tracer()
            # A served round is seconds of 40 ms stalls: traced once.
            passes = 1 if workload.connections else TRACED_PASSES
            traced = [play_round(workload, tracer=tracer)
                      for _ in range(passes)]
            attempted += passes * len(workload.ops)
            failed += sum(r.failed for r in traced)
            for _ in range(passes):
                for index, op in enumerate(workload.ops):
                    workload.replay_layers(op, tracer, index)
            facts["trace"] = trace_summary(
                workload, tracer, per_op,
                float(quiet([r.wall_ns for r in traced]) / quiet(walls)))
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            (RESULTS_DIR / f"trace-{workload.name}.json").write_text(
                json.dumps({"workload": workload.name, "seed": seed,
                            "spans": tracer.spans()}) + "\n")
    finally:
        gc.unfreeze()
        workload.teardown()
    if trace:
        per_layer = layer_ladder(seed, rules["probe_scale"])
    return {"attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": per_layer, "facts": facts}


def trace_summary(workload: Workload, tracer: Tracer, per_op_ns: np.ndarray,
                  overhead_ratio: float) -> Dict[str, Any]:
    """Where the traced round's time went, by span name."""
    totals = tracer.self_times()
    whole = sum(totals.values()) or 1
    summary: Dict[str, Any] = {
        "trace_overhead_ratio": overhead_ratio,
        "self_time_share": {name: own / whole
                            for name, own in sorted(totals.items())},
    }
    # The replayed ladder should add up to the op as timed without tracing.
    ratios = []
    for index in range(len(workload.ops)):
        breakdown = tracer.op_breakdown(index)
        if len(breakdown) > 1 and per_op_ns[index] > 0:
            ratios.append(sum(breakdown.values()) / per_op_ns[index])
    if ratios:
        ratios.sort()
        summary["ladder_sum_over_untraced_op"] = {
            "p50": float(ratios[len(ratios) // 2]),
            "share_within_5pct": float(
                sum(abs(r - 1) <= 0.05 for r in ratios) / len(ratios)),
        }
    return summary


def layer_ladder(seed: int, scale: str) -> Dict[str, tuple]:
    """Every per-layer metric, each from the workload that owns its layer.

    The probes run on their own small fixtures so the 70 rows mean the same
    whichever workload's run asked for them.
    """
    from perfkit.workloads import WORKLOADS
    rows: Dict[str, tuple] = {}
    for workload_class in WORKLOADS.values():
        workload = workload_class(seed, scale)
        workload.generate()
        try:
            workload.setup()
            play_round(workload)  # warm caches and lazily decoded mirrors
            workload.layer_rows(rows)
        finally:
            workload.teardown()
    return rows


def time_share_by_kind(ops: Sequence[Op], per_op_ns: np.ndarray
                       ) -> Dict[str, float]:
    """Each op kind's share of the quiet round."""
    totals: Dict[str, float] = {}
    for op, latency in zip(ops, per_op_ns):
        totals[op.kind] = totals.get(op.kind, 0.0) + float(latency)
    whole = sum(totals.values()) or 1.0
    return {kind: total / whole for kind, total in sorted(totals.items())}


def op_list_hash(ops: Sequence[Op]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(json.dumps(op.describe()).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Helpers for the layer probes.
# --------------------------------------------------------------------------- #

def quiet_seconds(function: Callable[[], Any], repeats: int = 5) -> float:
    """Quiet wall time of ``function()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter_ns()
        function()
        times.append(time.perf_counter_ns() - started)
    return float(quiet(times)) / 1e9
