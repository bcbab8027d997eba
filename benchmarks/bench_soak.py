"""Soak the pre-fork pool: 1k+ concurrent connections, p99, chaos.

Four phases against a real ``repro serve`` process tree (master + writer
+ N forked workers over one shared listener):

1. **ramp** — open ``--connections`` keep-alive connections (default
   1000) from one selector-driven, single-threaded client;
2. **measure** — every connection continuously POSTs small pattern
   queries; reports throughput, p50/p99 latency and the failure count
   (the acceptance bar is ZERO failed requests);
3. **chaos** — a sequence of ``POST /update`` writes runs while one
   worker is SIGKILLed mid-stream; every *acknowledged* write must still
   be answered by the (respawned) pool — the publish-before-ack contract
   means a kill can fail an in-flight request, never un-acknowledge one;
4. **baseline** — the same measurement against ``--workers 1`` (the
   single-process threaded server) for the multi-process speedup ratio.
   The bar scales with what the box can physically deliver
   (``min(workers, cpus)``-way parallelism): 2.5x at 4-way and above,
   1.3x at 2-3-way, 0.5x (oversubscription overhead, but no collapse)
   on a single core — and is always asserted, so a saturated CI runner
   still gates on "forking must not fall off a cliff".

Run directly (``python benchmarks/bench_soak.py``) or as the CI smoke
profile (``--ci --workers 2``: shorter windows, same phases including
the chaos kill).  Writes ``benchmarks/results/BENCH_soak.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import common  # noqa: E402

from repro.core.builder import build_index  # noqa: E402
from repro.rdf.triples import TripleStore  # noqa: E402
from repro.storage import save_index  # noqa: E402

#: The base graph: hub-and-ring, ~50k triples — big enough that queries do
#: real index work, small enough to build in a second.
NUM_NODES = 4000


def speedup_bar_for(parallelism: int) -> float:
    """The multi-process speedup bar for ``min(workers, cpus)``-way
    parallelism.  Forking cannot beat the core count, so the bar tracks
    the hardware: ambitious on real multi-core boxes, and on a single
    core — where extra workers only buy scheduling and IPC overhead —
    merely "not catastrophically slower".  Always gated, so a saturated
    CI runner still catches a pathological collapse."""
    if parallelism >= 4:
        return 2.5
    if parallelism >= 2:
        return 1.3
    return 0.5


def _build_index_file(path: Path) -> int:
    triples = set()
    for i in range(NUM_NODES):
        triples.add((i, 0, (i * 7 + 1) % NUM_NODES))
        triples.add((i, 0, (i + 13) % NUM_NODES))
        triples.add((i, 1, NUM_NODES + i % 31))
    for hub in range(8):
        for i in range(0, NUM_NODES, 2):
            triples.add((hub, 2, i))
    store = TripleStore.from_triples(sorted(triples))
    index = build_index(store, "2tp")
    save_index(index, path, aligned=True)
    return index.num_triples


def _start_pool(index_path: Path, workers: int, wal: Path,
                max_inflight: int) -> tuple:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(index_path),
         "--port", "0", "--quiet", "--workers", str(workers),
         "--wal", str(wal), "--max-inflight", str(max_inflight)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    match = None
    lines = []
    try:
        # The single-process server prints a "loaded ..." line before its
        # banner; scan until the bound address appears.
        for line in proc.stdout:
            lines.append(line)
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is not None:
                break
    finally:
        watchdog.cancel()
    if match is None:
        proc.kill()
        raise RuntimeError(f"pool failed to start: {lines!r}\n"
                           f"{proc.stderr.read()}")
    return proc, match.group(1), int(match.group(2))


def _stop_pool(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    proc.stdout.close()
    proc.stderr.close()


# --------------------------------------------------------------------------- #
# The selector client: many keep-alive connections, one thread.
# --------------------------------------------------------------------------- #

_BODIES = [json.dumps({"pattern": [s, 0, None]}).encode("utf-8")
           for s in range(0, NUM_NODES, 97)]


def _request_bytes(body: bytes) -> bytes:
    return (f"POST /query HTTP/1.1\r\nHost: soak\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class _Connection:
    __slots__ = ("sock", "outbox", "inbox", "started", "sequence",
                 "expected")

    def __init__(self, sock):
        self.sock = sock
        self.outbox = b""
        self.inbox = b""
        self.started = 0.0
        self.sequence = 0
        self.expected = -1  # -1: headers not complete yet

    def begin(self, now: float) -> None:
        body = _BODIES[self.sequence % len(_BODIES)]
        self.sequence += 1
        self.outbox = _request_bytes(body)
        self.inbox = b""
        self.expected = -1
        self.started = now

    def response_complete(self) -> bool:
        if self.expected < 0:
            head_end = self.inbox.find(b"\r\n\r\n")
            if head_end < 0:
                return False
            match = re.search(rb"[Cc]ontent-[Ll]ength:\s*(\d+)",
                              self.inbox[:head_end])
            self.expected = head_end + 4 + (int(match.group(1))
                                            if match else 0)
        return len(self.inbox) >= self.expected

    def status(self) -> int:
        return int(self.inbox.split(None, 2)[1])


def _open_connections(host: str, port: int, count: int) -> list:
    connections = []
    for i in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(20)
        sock.connect((host, port))
        sock.setblocking(False)
        connections.append(_Connection(sock))
        if i % 100 == 99:
            time.sleep(0.02)  # let the accept queue drain
    return connections


def _run_load(host: str, port: int, num_connections: int,
              duration: float) -> dict:
    """Hammer the pool for ``duration`` seconds; return the measurements."""
    selector = selectors.DefaultSelector()
    connections = _open_connections(host, port, num_connections)
    now = time.monotonic()
    for connection in connections:
        connection.begin(now)
        selector.register(connection.sock, selectors.EVENT_WRITE, connection)
    latencies = []
    failures = 0
    statuses = {}
    deadline = now + duration
    while time.monotonic() < deadline:
        for key, events in selector.select(timeout=0.5):
            connection = key.data
            try:
                if events & selectors.EVENT_WRITE:
                    sent = connection.sock.send(connection.outbox)
                    connection.outbox = connection.outbox[sent:]
                    if not connection.outbox:
                        selector.modify(connection.sock,
                                        selectors.EVENT_READ, connection)
                if events & selectors.EVENT_READ:
                    chunk = connection.sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("server closed the connection")
                    connection.inbox += chunk
                    if connection.response_complete():
                        status = connection.status()
                        statuses[status] = statuses.get(status, 0) + 1
                        if status != 200:
                            failures += 1
                        latencies.append(
                            time.monotonic() - connection.started)
                        connection.begin(time.monotonic())
                        selector.modify(connection.sock,
                                        selectors.EVENT_WRITE, connection)
            except (OSError, ConnectionError, ValueError):
                failures += 1
                selector.unregister(connection.sock)
                connection.sock.close()
    for key in list(selector.get_map().values()):
        selector.unregister(key.fileobj)
        key.fileobj.close()
    selector.close()
    latencies.sort()

    def percentile(fraction: float) -> float:
        if not latencies:
            return float("nan")
        return latencies[min(len(latencies) - 1,
                             int(fraction * len(latencies)))] * 1e3

    return {
        "connections": num_connections,
        "duration_seconds": duration,
        "requests": len(latencies),
        "throughput_rps": len(latencies) / duration,
        "p50_ms": percentile(0.50),
        "p99_ms": percentile(0.99),
        "max_ms": latencies[-1] * 1e3 if latencies else float("nan"),
        "failures": failures,
        "statuses": statuses,
    }


# --------------------------------------------------------------------------- #
# Chaos: kill one worker mid-write-stream; no acked write may vanish.
# --------------------------------------------------------------------------- #

def _post(url: str, path: str, body: dict, timeout: float = 15.0):
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url + path, data=data, method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _run_chaos(url: str, num_writes: int) -> dict:
    acked = []
    killed_pid = None
    retried = 0
    for i in range(num_writes):
        triple = [100_000 + i, 9, i]
        if i == num_writes // 2:
            # Mid-stream, SIGKILL whichever worker answers the probe.
            killed_pid = json.loads(urllib.request.urlopen(
                url + "/healthz", timeout=10).read())["pid"]
            os.kill(killed_pid, signal.SIGKILL)
        for attempt in range(60):
            try:
                status, body = _post(url, "/update", {"insert": [triple]})
            except (urllib.error.URLError, ConnectionError, OSError):
                retried += 1  # the killed worker took this connection down
                time.sleep(0.2)
                continue
            if status == 200:
                acked.append(triple)  # the writer's ack: durable + published
                break
            retried += 1  # 503 WriterUnavailableError while respawning, etc.
            time.sleep(0.2)
        else:
            raise RuntimeError(f"update {triple} never acknowledged")
    status, result = _post(url, "/query",
                           {"pattern": [None, 9, None], "cache": False,
                            "limit": num_writes + 10})
    served = {tuple(t) for t in result["triples"]}
    lost = [t for t in acked if tuple(t) not in served]
    return {
        "writes_acknowledged": len(acked),
        "killed_worker_pid": killed_pid,
        "retries": retried,
        "acked_writes_lost": len(lost),
        "lost": lost,
    }


# --------------------------------------------------------------------------- #
# Orchestration.
# --------------------------------------------------------------------------- #

def run_soak(workers: int, connections: int, duration: float,
             chaos_writes: int) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="repro-soak-"))
    index_path = tmp / "soak.bin"
    num_triples = _build_index_file(index_path)
    cpus = os.cpu_count() or 1
    parallelism = min(workers, cpus)
    report = {
        "workers": workers,
        "cpus": cpus,
        "num_triples": num_triples,
        "speedup_parallelism": parallelism,
        "speedup_bar": speedup_bar_for(parallelism),
    }

    proc, host, port = _start_pool(index_path, workers, tmp / "soak.wal",
                                   max_inflight=max(4096, connections))
    try:
        url = f"http://{host}:{port}"
        _run_load(host, port, min(64, connections), 1.0)  # warm-up
        report["measure"] = _run_load(host, port, connections, duration)
        report["chaos"] = _run_chaos(url, chaos_writes)
        metrics = urllib.request.urlopen(url + "/metrics",
                                         timeout=10).read().decode()
        restarts = re.search(r"repro_worker_restarts_total (\d+)", metrics)
        report["worker_restarts"] = int(restarts.group(1)) if restarts else 0
    finally:
        _stop_pool(proc)

    # Single-process baseline (``--workers 1`` takes the threaded in-process
    # path): same load shape, smaller connection count so one process is
    # measured on throughput, not on accept-queue overflow.
    proc, host, port = _start_pool(index_path, 1, tmp / "base.wal",
                                   max_inflight=max(4096, connections))
    try:
        baseline_connections = min(connections, 256)
        _run_load(host, port, min(64, baseline_connections), 1.0)
        report["baseline"] = _run_load(host, port, baseline_connections,
                                       duration)
    finally:
        _stop_pool(proc)

    report["speedup_vs_single_process"] = (
        report["measure"]["throughput_rps"]
        / report["baseline"]["throughput_rps"]
        if report["baseline"]["throughput_rps"] else float("nan"))
    return report


def check_bars(report: dict) -> list:
    problems = []
    if report["measure"]["failures"]:
        problems.append(
            f"{report['measure']['failures']} failed requests in the "
            f"measure phase (bar: zero)")
    if report["chaos"]["acked_writes_lost"]:
        problems.append(
            f"chaos lost {report['chaos']['acked_writes_lost']} "
            f"acknowledged writes: {report['chaos']['lost']} (bar: zero)")
    if report["speedup_vs_single_process"] < report["speedup_bar"]:
        problems.append(
            f"multi-worker throughput only "
            f"{report['speedup_vs_single_process']:.2f}x the single-process "
            f"baseline (bar: {report['speedup_bar']}x at "
            f"{report['speedup_parallelism']}-way parallelism — "
            f"{report['workers']} workers on {report['cpus']} CPU(s))")
    return problems


def _format_report(report: dict) -> str:
    measure, baseline, chaos = (report["measure"], report["baseline"],
                                report["chaos"])
    gate = (f"{report['speedup_parallelism']}-way parallelism, "
            f"{report['cpus']} CPU(s)")
    return "\n".join([
        f"Soak — {report['workers']} workers, "
        f"{measure['connections']} concurrent connections, "
        f"{measure['duration_seconds']:.0f}s measure window",
        f"  requests        {measure['requests']}",
        f"  throughput      {measure['throughput_rps']:.0f} req/s",
        f"  p50 / p99 / max {measure['p50_ms']:.1f} / {measure['p99_ms']:.1f}"
        f" / {measure['max_ms']:.1f} ms",
        f"  failures        {measure['failures']}",
        f"  chaos           killed pid {chaos['killed_worker_pid']}, "
        f"{chaos['writes_acknowledged']} acked writes, "
        f"{chaos['acked_writes_lost']} lost, {chaos['retries']} retries",
        f"  baseline        {baseline['throughput_rps']:.0f} req/s over "
        f"{baseline['connections']} connections (1 process)",
        f"  speedup         {report['speedup_vs_single_process']:.2f}x "
        f"({gate}; bar {report['speedup_bar']}x)",
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--connections", type=int, default=1000)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="measure window, seconds")
    parser.add_argument("--chaos-writes", type=int, default=40)
    parser.add_argument("--ci", action="store_true",
                        help="short smoke profile: 4s window, 20 writes")
    args = parser.parse_args(argv)
    if args.ci:
        args.duration = min(args.duration, 4.0)
        args.chaos_writes = min(args.chaos_writes, 20)

    report = run_soak(args.workers, args.connections, args.duration,
                      args.chaos_writes)
    problems = check_bars(report)
    report["problems"] = problems
    common.write_result("soak", _format_report(report), data=report)
    if problems:
        for problem in problems:
            print(f"BAR FAILED: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
