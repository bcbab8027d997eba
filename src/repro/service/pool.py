"""The pre-fork worker pool behind ``repro serve --workers N``.

One box, many cores, one index.  The GIL caps a single
:class:`~repro.service.http.QueryServiceServer` at one CPU, but the
compressed tries are immutable and (since the v3 aligned container)
mmap-loadable — the classic HDT/RDF-3X serving shape applies: page-share
one read-only index across processes and let the kernel do the fan-out.

Process model::

    master ──────────── binds the listening socket, forks, supervises
      ├─ writer         owns the DynamicIndex + WAL; applies every write,
      │                 publishes an epoch document after each one
      └─ worker × N     mmap the index read-only, accept() on the shared
                        listener, answer queries; follow the writer's
                        epochs; forward /update & /compact to the writer

* **Sockets.**  The master binds and listens once; every worker inherits
  the socket through ``fork`` and calls ``accept`` on it, so the kernel
  load-balances connections across workers and a worker crash never loses
  the listening queue.  ``SO_REUSEPORT`` is additionally set where the
  platform offers it, so an operator can co-bind a second pool on the
  same port for a blue-green handover.
* **Writes.**  Workers never mutate anything.  A worker serves a
  :class:`WorkerService`, whose ``update``/``compact`` frame the batch as
  JSON over a unix domain socket to the single writer process.  Its
  :class:`~repro.service.writer.Writer` applies them (WAL first, then
  visible), *publishes* the new epoch, and only then lets the process
  acknowledge — so an acknowledged write is durable and observable from
  every worker.
* **Epochs.**  Publication is a tiny atomically-replaced JSON document
  (see :mod:`repro.dynamic.follower`).  Workers serve through
  :meth:`QueryService.follow <repro.service.engine.QueryService.follow>`
  and refresh at the start of every request: one ``stat`` when nothing
  changed, a WAL tail replay when something did, a container re-map when
  a compaction landed or the writer restarted.
* **Supervision.**  The master reaps children; a crashed worker (or
  writer) is respawned into the same metrics slot, a SIGTERM drains:
  workers stop accepting, finish their in-flight requests, then the
  writer flushes and exits, then the master closes the listener.

Metrics are aggregated across processes through one pre-fork shared
memory block (:mod:`repro.service.metrics`) — any worker can answer
``GET /metrics`` for the whole pool.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
import time
import traceback
from typing import Dict, Optional, Tuple

from repro import wire
from repro.dynamic.follower import read_epoch_document
from repro.errors import WriterUnavailableError
from repro.net import read_frame, send_frame
from repro.obs import get_logger
from repro.service.engine import QueryService, WriteResult
from repro.service.http import (
    AdmissionControl,
    QueryServiceServer,
    TokenBucketLimiter,
    error_body,
    status_for_error,
)
from repro.service.metrics import MetricsBlock
from repro.service.writer import Writer

__all__ = ["ServerPool", "WorkerService", "WriterClient"]

#: How long a worker waits for (re)connecting to the writer socket.
_WRITER_CONNECT_TIMEOUT = 5.0
#: Per-request writer timeout — compactions rebuild the index, so this is
#: generous; queries never wait on it.
_WRITER_REPLY_TIMEOUT = 600.0


class WriterClient:
    """A worker's connection to the writer process (lazy, self-healing).

    One request/reply in flight at a time per worker (serialised on a
    lock); a broken connection is retried once — the writer may have just
    been respawned.  An unreachable writer is reported as a 503
    :class:`~repro.errors.WriterUnavailableError` body, not an exception:
    queries must keep flowing while writes shed.
    """

    def __init__(self, path):
        self._path = str(path)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(_WRITER_CONNECT_TIMEOUT)
        sock.connect(self._path)
        sock.settimeout(_WRITER_REPLY_TIMEOUT)
        return sock

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                finally:
                    self._sock = None

    def request(self, message: dict) -> Tuple[int, dict]:
        """Send one operation; returns ``(http_status, json_body)``."""
        payload = json.dumps(message).encode("utf-8")
        with self._lock:
            last_error: Optional[Exception] = None
            for _ in range(2):
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    send_frame(self._sock, payload)
                    reply = read_frame(self._sock)
                    if reply is None:
                        raise ConnectionError("writer closed the connection")
                    response = json.loads(reply.decode("utf-8"))
                    return (int(response.get("status", 500)),
                            response.get("body", {}))
                except (OSError, ValueError, ConnectionError) as exc:
                    last_error = exc
                    if self._sock is not None:
                        try:
                            self._sock.close()
                        finally:
                            self._sock = None
        return 503, error_body(WriterUnavailableError(
            f"the writer process is unreachable ({last_error}); "
            f"retry later"))


def _writer_error(payload: dict) -> Exception:
    """The exception a non-200 writer reply's ``error`` object describes:
    a :mod:`repro.errors` type decodes as itself, any other (a 500) is
    re-raised under its own name, so the worker's reply matches the
    writer's."""
    name = str(payload.get("type", ""))
    if name in wire.ERROR_TYPES:
        return wire.decode_error(payload)
    return type(name or "Exception", (Exception,), {})(
        str(payload.get("message", "")))


class WorkerService(QueryService):
    """A pool worker's service, built with :meth:`QueryService.follow`:
    reads follow the writer's published epochs; a write goes to the writer
    process and returns once durable, published and refreshed onto here
    (read-your-writes)."""

    def __init__(self, *args, writer_socket, **options):
        super().__init__(*args, **options)
        self._writer = WriterClient(writer_socket)

    def update(self, inserts=(), deletes=()) -> WriteResult:
        return self._write({"op": "update",
                            "insert": [list(t) for t in inserts],
                            "delete": [list(t) for t in deletes]})

    def compact(self) -> WriteResult:
        return self._write({"op": "compact"})

    def _write(self, message: dict) -> WriteResult:
        status, body = self._writer.request(message)
        if status != 200:
            raise _writer_error(body.get("error", {}))
        try:
            self.refresh()
        except Exception:  # the ack stands; the next request catches up
            pass
        return WriteResult(body)

    def close(self) -> None:
        self._writer.close()
        super().close()


class _WriterProcess:
    """The single mutating process: a :class:`Writer` behind a unix socket."""

    def __init__(self, pool: "ServerPool"):
        self._pool = pool
        self._stop = threading.Event()
        self._writer: Optional[Writer] = None

    def run(self) -> int:
        pool = self._pool
        signal.signal(signal.SIGTERM, lambda *_: self._stop.set())
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self._writer = Writer(
            pool.index_path, pool.wal_path, pool.epoch_path,
            compaction_ratio=pool.compaction_ratio, mmap=pool.mmap,
            **pool.service_options)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            os.unlink(pool.writer_socket_path)
        except OSError:
            pass
        server.bind(pool.writer_socket_path)
        server.listen(pool.workers + 8)
        server.settimeout(0.5)
        threads = []
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True)
                thread.start()
                threads.append(thread)
        finally:
            server.close()
            for thread in threads:
                thread.join(timeout=2.0)
            # Flush-on-shutdown: the WAL handle is fsync-per-append, so
            # closing is about releasing the descriptor cleanly.
            self._writer.close()
        return 0

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    frame = read_frame(conn)
                except (OSError, ConnectionError):
                    return
                if frame is None:
                    return
                try:
                    message = json.loads(frame.decode("utf-8"))
                    status, body = self._handle(message)
                except Exception as error:  # noqa: BLE001 - reply, don't die
                    status, body = status_for_error(error), error_body(error)
                try:
                    send_frame(conn, json.dumps(
                        {"status": status, "body": body}).encode("utf-8"))
                except OSError:
                    return

    def _handle(self, message: dict) -> Tuple[int, dict]:
        # The Writer publishes *before* returning: once the client sees 200
        # the write is durable in the WAL and visible to any worker that
        # refreshes — the no-lost-acknowledged-writes contract.
        operation = message.get("op")
        if operation == "ping":
            return 200, {"status": "ok", "pid": os.getpid()}
        if operation == "update":
            return 200, self._writer.update(
                inserts=[tuple(t) for t in message.get("insert", [])],
                deletes=[tuple(t) for t in message.get("delete", [])],
            ).to_json()
        if operation == "compact":
            return 200, self._writer.compact().to_json()
        return 400, {"error": {"type": "BadRequest",
                               "message": f"unknown writer op {operation!r}"}}


class ServerPool:
    """Master of the pre-fork pool: bind, fork, supervise, drain.

    ``run()`` blocks until SIGTERM/SIGINT and returns a process exit
    code.  ``service_options`` are forwarded to every per-process
    :class:`~repro.service.engine.QueryService` (engine, default timeout,
    cache sizes, page cap).
    """

    def __init__(self, index_path, workers: int = 2,
                 host: str = "127.0.0.1", port: int = 8377,
                 writable: bool = False, wal_path=None,
                 compaction_ratio: Optional[float] = None,
                 mmap: bool = True, quiet: bool = False,
                 max_inflight: int = 64, rate_limit: float = 0.0,
                 rate_burst: Optional[float] = None,
                 drain_timeout: float = 10.0,
                 service_options: Optional[dict] = None,
                 log_format: str = "text"):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if writable and wal_path is None:
            # The WAL doubles as the write-publication bus, so a writable
            # pool always has one (single-process serve keeps it optional).
            wal_path = str(index_path) + ".wal"
        self.index_path = index_path
        self.workers = workers
        self.host = host
        self.port = port
        self.writable = writable
        self.wal_path = wal_path
        self.compaction_ratio = compaction_ratio
        self.mmap = mmap
        self.quiet = quiet
        self.max_inflight = max_inflight
        self.rate_limit = rate_limit
        self.rate_burst = rate_burst
        self.drain_timeout = drain_timeout
        self.service_options = dict(service_options or {})
        self.log_format = log_format
        self.epoch_path = (str(wal_path) + ".epoch") if wal_path else None
        self.writer_socket_path = (str(wal_path) + ".sock") if wal_path \
            else None
        self._listener: Optional[socket.socket] = None
        self._block: Optional[MetricsBlock] = None
        #: pid → ("worker", slot) or ("writer", None)
        self._children: Dict[int, Tuple[str, Optional[int]]] = {}
        self._stopping = False

    # ------------------------------------------------------------------ #
    # Master.
    # ------------------------------------------------------------------ #

    def _bind_listener(self) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):
            try:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            except OSError:  # pragma: no cover - platform quirk
                pass
        listener.bind((self.host, self.port))
        listener.listen(1024)
        self.port = listener.getsockname()[1]
        return listener

    def _log(self, message: str) -> None:
        if not self.quiet:
            get_logger("pool", self.log_format).info(
                "supervise", message=message, pid=os.getpid())

    def run(self) -> int:
        """Run the pool until SIGTERM/SIGINT; returns an exit code."""
        self._listener = self._bind_listener()
        self._block = MetricsBlock(self.workers)
        signal.signal(signal.SIGTERM, self._request_stop)
        signal.signal(signal.SIGINT, self._request_stop)
        if self.writable:
            self._spawn_writer()
            self._await_writer()
        print(f"serving on http://{self.host}:{self.port} "
              f"(pid {os.getpid()}, workers {self.workers}"
              f"{', writable' if self.writable else ''})", flush=True)
        for slot in range(self.workers):
            self._spawn_worker(slot)
        self._supervise()
        self._drain()
        return 0

    def _request_stop(self, *_args) -> None:
        self._stopping = True

    def _fork(self, target, role: Tuple[str, Optional[int]]) -> int:
        pid = os.fork()
        if pid != 0:
            self._children[pid] = role
            return pid
        # Child: never return into the master's stack.
        code = 1
        try:
            code = target() or 0
        except SystemExit as exit_:  # pragma: no cover - child plumbing
            code = exit_.code if isinstance(exit_.code, int) else 0
        except BaseException:  # noqa: BLE001 - child must report and die
            traceback.print_exc()
            code = 1
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)

    def _spawn_writer(self) -> int:
        return self._fork(lambda: _WriterProcess(self).run(),
                          ("writer", None))

    def _spawn_worker(self, slot: int) -> int:
        pid = self._fork(lambda: self._worker_main(slot), ("worker", slot))
        self._block.master().add("workers")
        return pid

    def _await_writer(self, timeout: float = 60.0) -> None:
        """Block until the writer has published and answers pings."""
        client = WriterClient(self.writer_socket_path)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if read_epoch_document(self.epoch_path) is not None:
                status, _ = client.request({"op": "ping"})
                if status == 200:
                    client.close()
                    return
            if self._reap_one():
                break  # the writer died on startup: surface it below
            time.sleep(0.05)
        client.close()
        raise RuntimeError(
            f"writer process did not become ready within {timeout:.0f}s "
            f"(index {self.index_path}, wal {self.wal_path})")

    def _reap_one(self) -> Optional[int]:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return None
        return pid or None

    def _supervise(self) -> None:
        master = self._block.master()
        while not self._stopping:
            pid = self._reap_one()
            if pid is None:
                time.sleep(0.1)
                continue
            role = self._children.pop(pid, None)
            if role is None or self._stopping:
                continue
            kind, slot = role
            master.add("restarts")
            self._log(f"[pool] {kind} {pid} exited unexpectedly; respawning")
            if kind == "writer":
                self._spawn_writer()
            else:
                master.sub("workers")
                self._spawn_worker(slot)

    def _alive(self, kind: str) -> Dict[int, Tuple[str, Optional[int]]]:
        return {pid: role for pid, role in self._children.items()
                if role[0] == kind}

    def _terminate(self, pids, grace: float) -> None:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                self._children.pop(pid, None)
        deadline = time.monotonic() + grace
        while (any(pid in self._children for pid in pids)
               and time.monotonic() < deadline):
            pid = self._reap_one()
            if pid:
                self._children.pop(pid, None)
            else:
                time.sleep(0.05)
        for pid in pids:
            if pid in self._children:  # drain timeout: stop waiting nicely
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except (ChildProcessError, OSError):
                    pass
                self._children.pop(pid, None)

    def _drain(self) -> None:
        """Orderly shutdown: workers first (they finish in-flight requests),
        then the writer (no more writes can arrive), then the listener."""
        self._log("[pool] draining workers")
        self._terminate(list(self._alive("worker")), grace=self.drain_timeout)
        self._block.master().set("workers", 0)
        self._terminate(list(self._alive("writer")), grace=self.drain_timeout)
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # ------------------------------------------------------------------ #
    # Worker.
    # ------------------------------------------------------------------ #

    def _worker_main(self, slot: int) -> int:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        metrics = self._block.worker(slot)
        # A predecessor killed mid-request leaves its gauge high forever.
        metrics.set("inflight", 0)
        if self.writable:
            service = WorkerService.follow(
                self.index_path, self.epoch_path, mmap=self.mmap,
                writer_socket=self.writer_socket_path,
                **self.service_options)
        else:
            service = QueryService.from_file(
                self.index_path, writable=False, mmap=self.mmap,
                **self.service_options)
        limiter = (TokenBucketLimiter(self.rate_limit, self.rate_burst)
                   if self.rate_limit and self.rate_limit > 0 else None)
        server = QueryServiceServer(
            (self.host, self.port), service, quiet=self.quiet,
            listen_socket=self._listener,
            admission=AdmissionControl(self.max_inflight),
            rate_limiter=limiter, metrics=metrics, metrics_block=self._block,
            drain=True, handler_timeout=5.0,
            log_format=self.log_format, subsystem="pool")

        def _graceful(*_args):
            # shutdown() blocks until serve_forever exits, and the handler
            # runs *on* the serve_forever thread — hand it to a helper.
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _graceful)
        server.serve_forever(poll_interval=0.1)
        server.server_close()  # joins in-flight handler threads
        service.close()
        return 0
