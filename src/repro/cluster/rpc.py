"""Length-prefixed JSON RPC between the cluster's processes.

The shard servers (:mod:`repro.cluster.shard`) and the coordinator's
shard clients (:mod:`repro.cluster.client`) talk over TCP in the
:mod:`repro.net` framing — the same frames the pre-fork pool's
worker↔writer channel uses: a 4-byte little-endian payload length
followed by that many bytes of UTF-8 JSON.  The framing helpers are
re-exported here for existing importers.

The value-level vocabulary inside the JSON is :mod:`repro.wire` — the
same codec the HTTP endpoints speak — so the stack has exactly one
serialisation story from browser to shard.

Two call shapes on top of the framing:

* **unary** — one request frame, one response frame
  ``{"ok": true, ...}`` or ``{"ok": false, "error": {type, message}}``;
* **streaming** — one request frame, then any number of
  ``{"rows": [...]}`` chunk frames, terminated by an
  ``{"eos": true, ...}`` frame (which may carry trailers such as merged
  statistics) or an error frame.  The terminator is what lets a client
  distinguish "stream finished" from "peer died mid-stream".

:class:`RpcClient` keeps one persistent socket for unary calls and a
free-list of sockets for streams: a stream socket is returned to the
free-list only after a clean ``eos`` — a stream abandoned early (say the
coordinator filled its limit page) leaves unread frames behind, so its
socket is closed rather than reused.  Unary calls retry with backoff
across reconnects (shard restarts are expected events, and every shard
operation is idempotent by design); an unreachable peer surfaces as
:class:`~repro.errors.ShardUnavailableError`.

**Trace context.**  A profiled request frame may carry two extra keys —
``"profile": true`` and ``"trace": {"trace_id": <32-hex>,
"parent_span_id": <16-hex>}`` (the :mod:`repro.obs.spans` codec,
re-exported by :mod:`repro.wire`).  Handlers that do not understand them
ignore them; handlers that do (the shard's ``query`` op) execute under
that trace and return their span tree in the ``eos`` trailer's
``"profile"`` key, which is how a cluster query stitches into one tree.
Malformed trace fields are dropped by the tolerant decoder, never an
error — tracing is metadata, not semantics.
"""

from __future__ import annotations

import json
import random
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro import wire
from repro.errors import ReproError, ShardUnavailableError
from repro.net import read_message, send_frame, send_message
# The rest of the framing is re-exported for existing importers.
from repro.net import FRAME, MAX_FRAME_BYTES  # noqa: F401
from repro.net import read_frame, recv_exactly  # noqa: F401

#: Rows per streaming chunk frame — large enough to amortise framing,
#: small enough that limit/offset pages stop the producer promptly.
STREAM_CHUNK_ROWS = 512

_CONNECT_TIMEOUT = 5.0
#: Compactions rebuild the index, so the reply timeout is generous.
_REPLY_TIMEOUT = 600.0

#: Ceiling on any single retry sleep.  Uncapped exponential backoff turns a
#: shard restart into a multi-second stall; anything a retry can fix (a
#: restarting process, a dropped socket) resolves well under a second.
MAX_BACKOFF = 1.0


def backoff_delay(attempt: int, base: float, cap: float = MAX_BACKOFF) -> float:
    """Full-jitter delay before retry ``attempt`` (1-based).

    The exponential bound ``base * 2**(attempt-1)`` is capped at ``cap``
    and the actual sleep drawn uniformly from ``[0, bound]`` — full jitter
    desynchronises a coordinator fan-out so K clients retrying one dead
    shard do not reconnect in lockstep storms.
    """
    bound = min(float(cap), float(base) * (2 ** (max(attempt, 1) - 1)))
    return random.uniform(0.0, bound)


# --------------------------------------------------------------------------- #
# Server.
# --------------------------------------------------------------------------- #

class RpcHandlerError(ReproError):
    """Internal marker wrapping non-repro handler failures for the reply."""


class _RpcConnection(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: "RpcServer" = self.server  # type: ignore[assignment]
        sock = self.request
        sock.settimeout(_REPLY_TIMEOUT)
        try:
            # Replies are sequences of small frames (chunk, chunk, eos);
            # with Nagle on, every frame after the first waits for the
            # client's delayed ACK — a flat ~40ms per response.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        server.track_connection(sock)
        try:
            while not server.stopping:
                try:
                    message = read_message(sock)
                except (OSError, ConnectionError, ValueError):
                    return
                if message is None or server.stopping:
                    return
                try:
                    self._dispatch(server, sock, message)
                except (OSError, ConnectionError):
                    return
        finally:
            server.untrack_connection(sock)

    def _dispatch(self, server: "RpcServer", sock: socket.socket,
                  message: Dict[str, Any]) -> None:
        op = str(message.get("op", ""))
        handler = server.handlers.get(op)
        if handler is None:
            send_message(sock, {"ok": False, "error": {
                "type": "ClusterError",
                "message": f"unknown rpc op {op!r}"}})
            return
        try:
            result = handler(message)
        except Exception as error:  # noqa: BLE001 - reply, don't die
            send_message(sock, {"ok": False,
                                "error": wire.encode_error(error)})
            return
        if isinstance(result, Iterator):
            self._stream(sock, result)
        else:
            reply = dict(result or {})
            reply.setdefault("ok", True)
            send_message(sock, reply)

    def _stream(self, sock: socket.socket, frames: Iterator[dict]) -> None:
        """Relay handler-produced frames; the handler owns chunking and
        must finish with an ``{"eos": true}`` frame of its own."""
        try:
            for frame in frames:
                send_message(sock, frame)
        except Exception as error:  # noqa: BLE001 - mid-stream failure
            try:
                send_message(sock, {"ok": False,
                                    "error": wire.encode_error(error)})
            except OSError:
                pass
        finally:
            close = getattr(frames, "close", None)
            if close is not None:
                close()


class RpcServer(socketserver.ThreadingTCPServer):
    """A threaded TCP server dispatching framed JSON ops to handlers.

    ``handlers`` maps op name to a callable taking the request dict and
    returning either a reply dict (unary) or an iterator of frame dicts
    (streaming; the iterator must yield its own ``eos`` terminator).
    Raised :class:`~repro.errors.ReproError` subclasses travel to the
    client via :func:`repro.wire.encode_error` and re-raise there.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address,
                 handlers: Dict[str, Callable[[dict], Any]]):
        self.handlers = dict(handlers)
        self.stopping = False
        self._connections: "set[socket.socket]" = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _RpcConnection)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def track_connection(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.add(sock)

    def untrack_connection(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(sock)

    def shutdown(self) -> None:
        """Stop accepting *and* sever live connections.

        Coordinators hold persistent sockets; without the hard close a
        "stopped" shard would keep answering them, which breaks both real
        shutdown and chaos testing (kill must look like a crash)."""
        self.stopping = True
        super().shutdown()
        with self._connections_lock:
            victims = list(self._connections)
        for sock in victims:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


def serve_in_thread(server: RpcServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1}, daemon=True)
    thread.start()
    return thread


# --------------------------------------------------------------------------- #
# Client.
# --------------------------------------------------------------------------- #

class RpcClient:
    """One shard's endpoint: retried unary calls + pooled stream sockets.

    ``retries`` counts *re*-attempts after the first try; between attempts
    the client sleeps a full-jitter exponential delay starting from
    ``backoff`` seconds and capped at :data:`MAX_BACKOFF` (no sleep after
    the final attempt).  Thread-safe: unary calls serialise on the
    persistent socket's lock, streams each draw a dedicated socket from
    the free-list.
    """

    def __init__(self, host: str, port: int,
                 retries: int = 2, backoff: float = 0.05):
        self.host = host
        self.port = int(port)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._free: List[socket.socket] = []

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=_CONNECT_TIMEOUT)
        sock.settimeout(_REPLY_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                finally:
                    self._sock = None
            for sock in self._free:
                try:
                    sock.close()
                except OSError:
                    pass
            self._free.clear()

    # -- unary ---------------------------------------------------------- #

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/reply; raises the remote error or
        :class:`~repro.errors.ShardUnavailableError` when unreachable."""
        payload = json.dumps(message).encode("utf-8")
        last_error: Optional[Exception] = None
        with self._lock:
            for attempt in range(self.retries + 1):
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    send_frame(self._sock, payload)
                    reply = read_message(self._sock)
                    if reply is None:
                        raise ConnectionError("shard closed the connection")
                except (OSError, ConnectionError, ValueError) as exc:
                    last_error = exc
                    if self._sock is not None:
                        try:
                            self._sock.close()
                        finally:
                            self._sock = None
                    if attempt < self.retries:
                        time.sleep(backoff_delay(attempt + 1, self.backoff))
                    continue
                if reply.get("ok", False):
                    return reply
                raise wire.decode_error(reply.get("error", {}))
        raise ShardUnavailableError(
            f"shard {self.address} unreachable after "
            f"{self.retries + 1} attempt(s): {last_error}")

    # -- streaming ------------------------------------------------------ #

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._free:
                return self._free.pop()
        return self._connect()

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            self._free.append(sock)

    def stream(self, message: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Yield chunk frames for a streaming op, ending with the ``eos``
        frame (yielded, so callers can read its trailers).

        Connection failures *before the first frame* retry like a unary
        call; a failure mid-stream raises — the caller cannot know what
        was already consumed, so silent re-send would duplicate rows.
        """
        payload = json.dumps(message).encode("utf-8")
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                sock = self._checkout()
            except OSError as exc:
                last_error = exc
                if attempt < self.retries:
                    time.sleep(backoff_delay(attempt + 1, self.backoff))
                continue
            try:
                send_frame(sock, payload)
                first = read_message(sock)
                if first is None:
                    raise ConnectionError("shard closed the connection")
            except (OSError, ConnectionError, ValueError) as exc:
                last_error = exc
                try:
                    sock.close()
                except OSError:
                    pass
                if attempt < self.retries:
                    time.sleep(backoff_delay(attempt + 1, self.backoff))
                continue
            return self._consume(sock, first)
        raise ShardUnavailableError(
            f"shard {self.address} unreachable after "
            f"{self.retries + 1} attempt(s): {last_error}")

    def _consume(self, sock: socket.socket,
                 first: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        clean = False
        try:
            frame: Optional[Dict[str, Any]] = first
            while True:
                if frame is None:
                    raise ConnectionError("shard closed mid-stream")
                if not frame.get("ok", True):
                    raise wire.decode_error(frame.get("error", {}))
                yield frame
                if frame.get("eos"):
                    clean = True
                    return
                frame = read_message(sock)
        finally:
            # Only a fully-drained stream leaves the socket at a frame
            # boundary; an abandoned or failed one must not be reused.
            if clean:
                self._checkin(sock)
            else:
                try:
                    sock.close()
                except OSError:
                    pass

    def ping(self) -> bool:
        try:
            return bool(self.call({"op": "ping"}).get("ok"))
        except ReproError:
            return False


def chunk_rows(rows: Iterable[Any],
               size: int = STREAM_CHUNK_ROWS) -> Iterator[List[Any]]:
    """Batch an iterable into lists of at most ``size`` for chunk frames."""
    batch: List[Any] = []
    for row in rows:
        batch.append(row)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch
