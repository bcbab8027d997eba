"""Server subprocesses and the HTTP client the served workloads use."""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

SRC_DIR = Path(__file__).resolve().parents[3] / "src"
READY_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0
_JSON_HEADERS = {"Content-Type": "application/json"}


def free_port() -> int:
    """A port nobody listens on right now (the servers get it by number
    because their output, where ``--port 0`` would print it, is discarded)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_repro(arguments: Sequence[str]) -> subprocess.Popen:
    """Start ``python -m repro <arguments>`` with its output discarded."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + inherited if inherited else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments], env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


def wake_cores(seconds: float) -> None:
    """Keep every core busy for ``seconds``, one spinning process each.

    On this kind of box a core left idle for ten seconds comes back at half
    speed and needs one to two seconds of load to recover: two shards start
    in 0.7 to 0.8 s instead of 0.4 s.  A run's generation phase is
    single-threaded, so the servers of the first set-up repetitions landed
    on a sleepy core and those of the third sometimes did and sometimes did
    not: ``cluster-join/setup_s`` read 1.95 or 2.33 s, run by run.
    """
    spin = ("import time\nend = time.perf_counter() + %r\n"
            "while time.perf_counter() < end: pass" % seconds)
    spinners = [subprocess.Popen([sys.executable, "-c", spin])
                for _ in range(os.cpu_count() or 1)]
    try:
        for spinner in spinners:
            spinner.wait(timeout=seconds + 10)
    finally:
        stop_all(spinners)


def stop_all(processes: List[subprocess.Popen]) -> None:
    """SIGTERM every process, wait for each, SIGKILL what lingers."""
    for process in processes:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    for process in processes:
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
    processes.clear()


def _wait_until(probe, process: subprocess.Popen, what: str) -> None:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"{what} exited with code {process.returncode}")
        if probe():
            return
        # Not more often: probing every 5 ms, this process kept preempting
        # the servers it waited for on a 2-core box, and two shards then
        # took 0.5 to 1.0 s to come up instead of a steady 0.4 s.
        time.sleep(0.02)
    raise RuntimeError(f"{what} was not ready within {READY_TIMEOUT_S} s")


def wait_http_ready(port: int, process: subprocess.Popen, what: str) -> None:
    """Block until ``GET /healthz`` answers 200."""
    def probe() -> bool:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            return response.status == 200
        except OSError:
            return False
        finally:
            connection.close()
    _wait_until(probe, process, what)


def wait_shard_ready(port: int, process: subprocess.Popen, what: str) -> None:
    """Block until the shard's RPC port answers a ping."""
    from repro.cluster.rpc import RpcClient

    def probe() -> bool:
        client = RpcClient("127.0.0.1", port, retries=0)
        try:
            return client.ping()
        finally:
            client.close()
    _wait_until(probe, process, what)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a live process in MB (this process when ``pid`` is None)."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def reset_peak_rss() -> None:
    """Hand freed heap back to the system and restart this process's
    ``VmHWM`` from what is left.

    Without the trim, what generation freed but the allocator kept moved
    ``bgp-join``'s peak between 63.5 and 66.2 MB from run to run of one seed;
    with it, between 63.15 and 63.19.  (glibc and Linux; elsewhere, or where
    /proc is read-only, the peak simply keeps whatever came before.)
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


class HttpClient:
    """One keep-alive connection, one request in flight."""

    def __init__(self, port: int):
        self._port = port
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def post(self, path: str, body: bytes, spans: Optional[list] = None
             ) -> Tuple[int, bytes]:
        """POST ``body``; with ``spans`` also record the client-side phases
        as ``(name, start_ns, end_ns)``."""
        connection = self._connection
        started = time.perf_counter_ns()
        try:
            connection.request("POST", path, body=body, headers=_JSON_HEADERS)
            sent = time.perf_counter_ns()
            response = connection.getresponse()
            first_byte = time.perf_counter_ns()
            data = response.read()
        except (OSError, http.client.HTTPException):
            # The next op must not inherit a half-read connection.
            connection.close()
            raise
        if spans is not None:
            spans.append(("http.request", started, sent))
            spans.append(("http.ttfb", sent, first_byte))
            spans.append(("http.read", first_byte, time.perf_counter_ns()))
        return response.status, data

    def get_json(self, path: str):
        self._connection.request("GET", path)
        response = self._connection.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self._connection.close()


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest matching mount point)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and target.startswith(fields[1]) \
                and len(fields[1]) >= len(best):
            best, kind = fields[1], fields[2]
    return kind
