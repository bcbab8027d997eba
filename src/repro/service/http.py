"""A threaded HTTP front-end for :class:`repro.service.engine.QueryService`.

Stdlib only (``http.server``): a :class:`ThreadingHTTPServer` dispatches each
request to its own thread, all of them sharing one read-only index through
the service — the shape the paper's immutable compressed tries are built for.
For multi-core serving, :mod:`repro.service.pool` forks several of these
servers over one inherited listening socket; everything in this module is
per-process and needs no coordination beyond the optional shared metrics
slot it is handed.

Endpoints:

* ``POST /query`` — body is a JSON object with either ``"sparql"`` (query
  text) or ``"pattern"`` (three terms, ``null`` = wildcard), plus optional
  ``"limit"``, ``"offset"``, ``"timeout"``, ``"cache"``, ``"engine"``
  (SPARQL only: ``"nested"``, ``"wcoj"`` or ``"auto"``) and — for patterns
  with a bundled dictionary — ``"decode"``.  A ``"batch"`` key with a list
  of such objects answers many queries in one round trip; failed entries
  carry an ``"error"`` object instead of killing the whole batch.
* ``POST /update`` — body is ``{"insert": [[s, p, o], ...]}`` and/or
  ``{"delete": [...]}`` (integer ID triples).  Requires a writable service
  (``repro serve --writable``); responds with the applied counts and the
  new index epoch, plus the compaction report if the batch tripped the
  size-ratio trigger.  Under the pre-fork pool the worker's service hands
  the batch to the single writer process and acknowledges it only once
  durable and published.
* ``POST /compact`` — fold the in-memory delta into a freshly built
  index; responds with the compaction report (a no-op when the delta is
  empty).
* ``GET /stats`` — cache hit rates, latency percentiles, index sizes,
  delta/epoch gauges.
* ``GET /metrics`` — Prometheus text exposition (see
  :mod:`repro.service.metrics`), aggregated across workers under the pool.
* ``GET /healthz`` — liveness probe; reports the answering process's pid
  and index epoch.

One handler serves every deployment shape (single box, pool worker,
cluster coordinator); a shape plugs in through the service object it
builds, the only thing the handler talks to.

Failures are structured: every error response is
``{"error": {"type": ..., "message": ...}}`` with the HTTP status mapped
from the :mod:`repro.errors` hierarchy (bad input 400, timeout 408,
storage trouble 500).  Load shedding is explicit: a full admission gate
answers 503, an exhausted per-client token bucket answers 429, both with
``Retry-After``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import wire
from repro.errors import (
    DictionaryError,
    ParseError,
    PatternError,
    QueryTimeoutError,
    ReproError,
    ServiceError,
    ShardUnavailableError,
    StorageError,
    UpdateError,
    WriterUnavailableError,
)
from repro.obs import decode_trace_context, get_logger, new_trace_id
from repro.service.engine import QueryService
from repro.service.jsonio import pattern_result_to_json, query_result_to_json

#: ``repro.errors`` to HTTP status; first match wins (order matters:
#: subclasses before :class:`ReproError`).
_STATUS_BY_ERROR: Tuple[Tuple[type, int], ...] = (
    (ParseError, 400),
    (PatternError, 400),
    (DictionaryError, 400),
    (UpdateError, 400),
    (ServiceError, 400),
    (QueryTimeoutError, 408),
    (ShardUnavailableError, 503),
    (WriterUnavailableError, 503),
    (StorageError, 500),
    (ReproError, 400),
)


#: Largest request body accepted (a SPARQL BGP or a batch of them fits in
#: far less); bigger declared bodies are rejected with 413 before reading.
MAX_BODY_BYTES = 4 * 1024 * 1024


def status_for_error(error: Exception) -> int:
    """The HTTP status code a failure maps to (500 for non-repro errors)."""
    for error_type, status in _STATUS_BY_ERROR:
        if isinstance(error, error_type):
            return status
    return 500


def error_body(error: Exception) -> Dict[str, Any]:
    """The structured JSON body describing ``error``."""
    return {"error": wire.encode_error(error)}


class AdmissionControl:
    """A bounded in-flight gate: at most ``max_inflight`` requests execute.

    Load shedding beats queueing for an interactive query endpoint: once
    every executor slot is busy, a new request would only wait behind work
    it cannot speed up, so the server answers 503 + ``Retry-After``
    immediately and the client (or its load balancer) retries elsewhere.
    """

    def __init__(self, max_inflight: int):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self._inflight = 0

    @property
    def inflight(self) -> int:
        return self._inflight

    def try_acquire(self) -> bool:
        with self._lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)


class TokenBucketLimiter:
    """Per-client token buckets: ``rate`` requests/second, ``burst`` deep.

    Keyed by client IP.  Buckets refill lazily on access; idle full
    buckets are pruned so the table cannot grow without bound under an
    address scan.
    """

    #: Prune sweep threshold — far above any honest client population.
    MAX_CLIENTS = 8192

    def __init__(self, rate: float, burst: Optional[float] = None):
        if rate <= 0:
            raise ValueError(f"rate must be > 0 requests/second, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst else max(1.0, 2 * self.rate)
        self._lock = threading.Lock()
        self._buckets: Dict[str, Tuple[float, float]] = {}

    def allow(self, client: str) -> bool:
        now = time.monotonic()
        with self._lock:
            tokens, last = self._buckets.get(client, (self.burst, now))
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            allowed = tokens >= 1.0
            if allowed:
                tokens -= 1.0
            self._buckets[client] = (tokens, now)
            if len(self._buckets) > self.MAX_CLIENTS:
                self._prune(now)
            return allowed

    def _prune(self, now: float) -> None:
        refilled = {
            client for client, (tokens, last) in self._buckets.items()
            if tokens + (now - last) * self.rate >= self.burst}
        for client in refilled:
            del self._buckets[client]


def _validate_page_options(limit, offset, timeout) -> None:
    """Reject malformed paging/deadline fields before they reach a join.

    ``bool`` is an ``int`` subclass in Python, so ``true``/``false`` would
    otherwise sail through the integer checks and mean 1/0 downstream.
    """
    if limit is not None:
        if isinstance(limit, bool) or not isinstance(limit, int):
            raise ServiceError("limit must be an integer")
        if limit < 0:
            raise ServiceError(f"limit must be >= 0, got {limit}")
    if isinstance(offset, bool) or not isinstance(offset, int):
        raise ServiceError("offset must be an integer")
    if offset < 0:
        raise ServiceError(f"offset must be >= 0, got {offset}")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ServiceError("timeout must be a number (seconds)")
        if timeout <= 0:
            raise ServiceError(
                f"timeout must be > 0 seconds, got {timeout}")


def _observe_result(metrics, result) -> None:
    """Feed one answered query's stage times and engine counters into the
    shared metrics slot (``parse`` folds into the plan histogram)."""
    stages = getattr(result, "stages", None) or {}
    metrics.observe_stage(
        "plan", stages.get("parse", 0.0) + stages.get("plan", 0.0))
    metrics.observe_stage("execute", stages.get("execute", 0.0))
    summary = getattr(result, "statistics", None) or {}
    engine = summary.get("engine")
    if engine in ("nested", "wcoj"):
        seeks = int(summary.get("seeks", 0) or 0)
        blocks = int(summary.get("blocks_decoded", 0) or 0)
        if seeks:
            metrics.add(f"{engine}_seeks", seeks)
        if blocks:
            metrics.add(f"{engine}_blocks", blocks)


def _run_one(service: QueryService, request: Dict[str, Any],
             metrics=None, trace: Optional[Dict[str, str]] = None
             ) -> Dict[str, Any]:
    """Execute one request object against ``service`` and serialise it,
    merging in the service's :meth:`~QueryService.request_report`."""
    if not isinstance(request, dict):
        raise ServiceError("each query must be a JSON object")
    unknown = set(request) - {"sparql", "pattern", "limit", "offset",
                              "timeout", "cache", "decode", "engine",
                              "profile"}
    if unknown:
        raise ServiceError(f"unknown request field(s): {sorted(unknown)}")
    limit = request.get("limit")
    offset = request.get("offset", 0)
    timeout = request.get("timeout")
    use_cache = bool(request.get("cache", True))
    engine = request.get("engine")
    profile = request.get("profile", False)
    if not isinstance(profile, bool):
        raise ServiceError("'profile' must be a boolean")
    _validate_page_options(limit, offset, timeout)
    if engine is not None and engine not in QueryService.ENGINES:
        raise ServiceError(
            f"unknown engine {engine!r}; expected one of "
            f"{list(QueryService.ENGINES)}")

    if "sparql" in request:
        text = request["sparql"]
        if not isinstance(text, str):
            raise ServiceError("'sparql' must be a string")
        result = service.execute(text, limit=limit, offset=offset,
                                 timeout=timeout, use_cache=use_cache,
                                 engine=engine, profile=profile, trace=trace)
        if metrics is None:
            body = query_result_to_json(result)
        else:
            _observe_result(metrics, result)
            stamp = time.perf_counter()
            body = query_result_to_json(result)
            metrics.observe_stage("serialize", time.perf_counter() - stamp)
    else:
        if engine is not None:
            raise ServiceError("'engine' only applies to SPARQL queries")
        if profile:
            raise ServiceError("'profile' only applies to SPARQL queries")
        if "pattern" not in request:
            raise ServiceError(
                "a query needs either a 'sparql' or a 'pattern' field")
        pattern = request["pattern"]
        if (not isinstance(pattern, (list, tuple)) or len(pattern) != 3 or
                not all(term is None or isinstance(term, int)
                        for term in pattern)):
            raise ServiceError(
                "'pattern' must be a list of 3 terms, each an integer ID "
                "or null for a wildcard")
        result = service.select(pattern, limit=limit, offset=offset,
                                use_cache=use_cache)
        dictionary = service.dictionary if request.get("decode") else None
        body = pattern_result_to_json(result, dictionary=dictionary)
    body.update(service.request_report())
    return body


def _parse_triples(value: Any, field: str) -> list:
    """Check the JSON *shape* of one ``insert``/``delete`` triple list.

    Only structure is validated here; the component rules (integers,
    non-negative, int64-bounded) live in one place —
    :func:`repro.dynamic.delta.normalize_triple`, reached through
    ``service.update`` — so the two layers cannot drift apart.  Both error
    types map to HTTP 400.
    """
    if not isinstance(value, list):
        raise ServiceError(f"'{field}' must be a list of [s, p, o] triples")
    triples = []
    for entry in value:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ServiceError(
                f"each '{field}' entry must be a list of 3 integer IDs, "
                f"got {entry!r}")
        triples.append(tuple(entry))
    return triples


def _run_update(service: QueryService, request: Dict[str, Any]) -> Dict[str, Any]:
    """Shape-check one ``POST /update`` body and apply it to ``service``."""
    unknown = set(request) - {"insert", "delete"}
    if unknown:
        raise ServiceError(f"unknown update field(s): {sorted(unknown)}")
    inserts = _parse_triples(request["insert"], "insert") \
        if "insert" in request else []
    deletes = _parse_triples(request["delete"], "delete") \
        if "delete" in request else []
    if not inserts and not deletes:
        raise ServiceError(
            "an update needs an 'insert' and/or a 'delete' list")
    # One atomic batch: a failure anywhere applies nothing, and readers
    # never observe the inserts without the deletes.
    result = service.update(inserts=inserts, deletes=deletes)
    return result.to_json()


class QueryServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the shared :class:`QueryService`."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    #: Set when admission control sheds this request (which closes the
    #: connection): only that 503 counts as ``overload``.
    _overloaded = False

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        timeout = getattr(self.server, "handler_timeout", None)
        if timeout is not None:
            # Bounds an idle keep-alive read so a draining worker's
            # server_close() cannot block forever on a silent client.
            self.timeout = timeout
        super().setup()

    def log_request(self, code="-", size="-") -> None:
        """One structured access-log line per response (replaces the
        ad-hoc ``BaseHTTPRequestHandler`` Common Log Format line)."""
        if getattr(self.server, "quiet", False):
            return
        logger = getattr(self.server, "access_logger", None)
        if logger is None:  # embedding API built the server directly
            BaseHTTPRequestHandler.log_request(self, code, size)
            return
        status = getattr(code, "value", code)
        logger.info("access", client=self.address_string(),
                    method=getattr(self, "command", None),
                    path=getattr(self, "path", None), status=status,
                    trace_id=getattr(self, "_trace_id", None))

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "quiet", False):
            return
        logger = getattr(self.server, "access_logger", None)
        if logger is None:
            BaseHTTPRequestHandler.log_message(self, format, *args)
            return
        logger.warning("http", client=self.address_string(),
                       message=format % args)

    def _send_json(self, status: int, body: Dict[str, Any],
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        payload = json.dumps(body).encode("utf-8")
        self._send_payload(status, payload, "application/json",
                           extra_headers)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_payload(status, text.encode("utf-8"), content_type)

    def _send_payload(self, status: int, payload: bytes, content_type: str,
                      extra_headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            # Echo the request's trace id (accepted or generated) so a
            # client can correlate its logs with the slow-query log.
            self.send_header("X-Trace-Id", trace_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)
        self._count_response(status)

    def _count_response(self, status: int) -> None:
        metrics = getattr(self.server, "metrics", None)
        if metrics is None:
            return
        metrics.add("requests")
        started = getattr(self, "_request_started", None)
        if started is not None:
            metrics.observe_latency(time.monotonic() - started)
            self._request_started = None  # one observation per request
        if status == 408:
            metrics.add("timeouts")
        elif status == 429:
            metrics.add("ratelimited")
        elif self._overloaded:
            metrics.add("overload")
        elif status >= 500:
            metrics.add("errors")
        elif status >= 400:
            metrics.add("client_errors")

    def _send_error_json(self, error: Exception) -> None:
        self._send_json(status_for_error(error), error_body(error))

    def _begin_request(self) -> None:
        self._request_started = time.monotonic()
        # Accept a caller's trace id (tolerantly — a malformed header is
        # ignored, never a 400) or mint one; every response echoes it and
        # every span/log line of this request carries it.
        header = self.headers.get("X-Trace-Id") if self.headers else None
        trace_id, _ = decode_trace_context(
            {"trace_id": header.strip().lower()} if header else None)
        self._trace_id = trace_id or new_trace_id()
        try:
            # Catch up with the writer's published epoch before answering:
            # this is what gives the pool read-your-writes across worker
            # processes.
            if self.service.refresh():
                metrics = getattr(self.server, "metrics", None)
                if metrics is not None:
                    metrics.add("refreshes")
        except Exception:  # pragma: no cover - replication must not 500 reads
            pass

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._begin_request()
        try:
            if self.path == "/healthz":
                self._send_json(200, self.service.health())
            elif self.path == "/stats":
                self._send_json(200, self.service.statistics())
            elif self.path == "/metrics":
                from repro.service.metrics import (
                    render_prometheus,
                    service_gauges,
                )
                block = getattr(self.server, "metrics_block", None)
                self._send_text(
                    200,
                    render_prometheus(block, service_gauges(self.service)),
                    "text/plain; version=0.0.4; charset=utf-8")
            elif self.path == "/query":
                self._send_json(405, {"error": {
                    "type": "MethodNotAllowed",
                    "message": "use POST /query"}})
            else:
                self._send_json(404, {"error": {
                    "type": "NotFound",
                    "message": f"unknown path {self.path!r}"}})
        except Exception as error:  # pragma: no cover - handler guard
            self._send_error_json(error)

    def _read_body_length(self) -> Optional[int]:
        """The validated Content-Length, or ``None`` after rejecting.

        A missing header on a body-carrying method is 411 and a malformed
        one is 400 — both used to fall through to ``int()`` and surface as
        a raw 500.  Either way the connection closes: the body (if any)
        was never read and would poison the next keep-alive request.
        """
        header = self.headers.get("Content-Length")
        if header is None:
            self.close_connection = True
            self._send_json(411, {"error": {
                "type": "LengthRequired",
                "message": "POST requires a Content-Length header"}})
            return None
        try:
            length = int(header.strip())
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            self._send_json(400, {"error": {
                "type": "BadRequest",
                "message": f"malformed Content-Length {header!r}"}})
            return None
        return length

    def _shed_load(self) -> bool:
        """Apply rate limiting; True = a 429 was sent."""
        limiter = getattr(self.server, "rate_limiter", None)
        if limiter is not None and not limiter.allow(self.client_address[0]):
            self.close_connection = True
            self._send_json(429, {"error": {
                "type": "RateLimited",
                "message": "per-client rate limit exceeded; retry later"}},
                extra_headers={"Retry-After": "1"})
            return True
        return False

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._begin_request()
        if self.path not in ("/query", "/update", "/compact"):
            self._send_json(404, {"error": {
                "type": "NotFound",
                "message": f"unknown path {self.path!r}"}})
            return
        if self._shed_load():
            return
        admission = getattr(self.server, "admission", None)
        metrics = getattr(self.server, "metrics", None)
        if admission is not None and not admission.try_acquire():
            self.close_connection = True
            self._overloaded = True
            self._send_json(503, {"error": {
                "type": "Overloaded",
                "message": f"all {admission.max_inflight} request slots are "
                           f"busy; retry later"}},
                extra_headers={"Retry-After": "1"})
            return
        if metrics is not None:
            metrics.add("inflight")
        try:
            self._handle_post()
        finally:
            if metrics is not None:
                metrics.sub("inflight")
            if admission is not None:
                admission.release()

    def _handle_post(self) -> None:
        try:
            length = self._read_body_length()
            if length is None:
                return
            if length > MAX_BODY_BYTES:
                # The unread body would poison the next keep-alive request.
                self.close_connection = True
                self._send_json(413, {"error": {
                    "type": "PayloadTooLarge",
                    "message": f"request body of {length} bytes exceeds the "
                               f"{MAX_BODY_BYTES} byte limit"}})
                return
            raw = self.rfile.read(length) if length else b""
            try:
                request = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ServiceError(f"request body is not valid JSON: {error}"
                                   ) from error
            if not isinstance(request, dict):
                raise ServiceError("request body must be a JSON object")
            if self.path == "/update":
                body = _run_update(self.service, request)
                applied = (int(body.get("inserted", 0))
                           + int(body.get("deleted", 0)))
                metrics = getattr(self.server, "metrics", None)
                if metrics is not None and applied:
                    metrics.add("updates", applied)
                self._send_json(200, body)
            elif self.path == "/compact":
                if request:
                    raise ServiceError("POST /compact takes an empty body")
                self._send_json(200, self.service.compact().to_json())
            elif "batch" in request:
                batch = request["batch"]
                if not isinstance(batch, list):
                    raise ServiceError("'batch' must be a list of query objects")
                results = []
                for entry in batch:
                    try:
                        results.append(self._run_query_object(entry))
                    except Exception as error:
                        body = error_body(error)
                        body["error"]["status"] = status_for_error(error)
                        results.append(body)
                self._send_json(200, {"results": results,
                                      "count": len(results)})
            else:
                self._send_json(200, self._run_query_object(request))
        except Exception as error:
            self._send_error_json(error)

    def _run_query_object(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One ``POST /query`` object → response body."""
        return _run_one(self.service, request,
                        metrics=getattr(self.server, "metrics", None),
                        trace={"trace_id": self._trace_id})


class QueryServiceServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one shared :class:`QueryService`.

    Beyond the address/service pair this carries the per-process serving
    policy the handler consults: an optional :class:`AdmissionControl`
    gate, an optional :class:`TokenBucketLimiter`, the process's shared
    metrics slot, and — under the pre-fork pool — an already-bound
    ``listen_socket`` to adopt instead of binding.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: QueryService,
                 quiet: bool = False,
                 listen_socket: Optional[socket.socket] = None,
                 admission: Optional[AdmissionControl] = None,
                 rate_limiter: Optional[TokenBucketLimiter] = None,
                 metrics=None, metrics_block=None,
                 drain: bool = False,
                 handler_timeout: Optional[float] = None,
                 log_format: str = "text",
                 subsystem: str = "http"):
        if listen_socket is None:
            super().__init__(address, QueryServiceHandler)
        else:
            # Adopt a socket bound (and listened) by the pool master before
            # forking: every worker accepts from the same kernel queue.
            super().__init__(address, QueryServiceHandler,
                             bind_and_activate=False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()[:2]
            self.server_name, self.server_port = self.server_address
        self.service = service
        self.quiet = quiet
        self.admission = admission
        self.rate_limiter = rate_limiter
        self.metrics = metrics
        self.metrics_block = metrics_block
        self.handler_timeout = handler_timeout
        #: Structured per-subsystem access logger (``--log-format``).
        self.access_logger = get_logger(subsystem, log_format)
        if metrics is not None and getattr(service, "metrics_slot",
                                           None) is None:
            # Let the engine bump profile/slow-query counters in the shared
            # block directly; the slot is per-process, like the service.
            service.metrics_slot = metrics
        if drain:
            # Graceful shutdown: server_close() joins the in-flight handler
            # threads (ThreadingMixIn.block_on_close) instead of abandoning
            # them mid-response.  ``handler_timeout`` bounds how long an
            # idle keep-alive connection can hold the join.
            self.daemon_threads = False


def build_server(service: QueryService, host: str = "127.0.0.1",
                 port: int = 8377, quiet: bool = False,
                 **server_options) -> QueryServiceServer:
    """Bind a server (``port=0`` picks a free port) without starting it.

    Call ``serve_forever()`` to run; the bound port is
    ``server.server_address[1]``.  ``server_options`` are forwarded to
    :class:`QueryServiceServer` (admission control, rate limiter, metrics,
    pool plumbing).
    """
    return QueryServiceServer((host, port), service, quiet=quiet,
                              **server_options)


def serve(index_path, host: str = "127.0.0.1", port: int = 8377,
          quiet: bool = False,
          service: Optional[QueryService] = None,
          **service_options) -> QueryServiceServer:
    """One-call embedding API: load ``index_path`` and bind a server on it."""
    if service is None:
        service = QueryService.from_file(index_path, **service_options)
    return build_server(service, host=host, port=port, quiet=quiet)
