"""The coordinator: the single-box service surface over many shards.

:class:`ClusterQueryService` subclasses the ordinary
:class:`~repro.service.engine.QueryService`, swapping the local index
for a :class:`~repro.cluster.client.ClusterIndex` and overriding the
write path to route batches to their owning shards.  Everything else —
SPARQL parsing against the cluster dictionary, plan cache, epoch-keyed
result cache, limit/offset/timeout enforcement, latency statistics, the
whole HTTP layer — is inherited: the coordinator is a plain
:class:`~repro.service.http.QueryServiceServer` over this service.  Two
execution strategies:

**Star pushdown.**  When every pattern of the BGP has the *same* subject
term (one shared variable, or one constant), every solution's triples
live on a single subject-hash shard, so the whole BGP is scattered and
each shard runs it locally with the requested engine; the disjoint
binding streams are concatenated and the page (``offset``/``limit``) is
cut at the coordinator.  A constant subject narrows the scatter to its
one owning shard.  Per-shard result caches make repeated pushdowns
cheap; the merged statistics sum the shards' counters.

**Coordinator-side join.**  Any other BGP runs through the *inherited*
``QueryService.execute`` against the :class:`ClusterIndex` facade: each
per-pattern probe of the nested-loop (or materialising wcoj) executor
becomes a routed ``select`` scatter.  Correctness needs nothing beyond
``select()``, which is exactly what the facade provides.

The **partial-failure policy** is chosen at coordinator start
(``best_effort=True``) — reads then skip shards whose whole replica set
is unreachable and mark the response ``incomplete``; the default is
fail-fast (503).  The result cache stores complete responses only (an
incomplete page is computed fresh every time and never served later),
so best-effort mode keeps its cache hits.  Writes are always fail-fast
and idempotent, so a retried batch cannot double-apply and an
acknowledgement means every owning shard has the triples WAL-durable.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.client import (
    ClusterClient,
    ClusterIndex,
    absorb_failure,
    begin_request,
    end_request,
    request_events,
    request_failures,
)
from repro.cluster.partition import (
    MANIFEST_NAME,
    META_NAME,
    load_cluster_meta,
    read_manifest,
    shard_of,
)
from repro.errors import (
    ClusterError,
    QueryTimeoutError,
    ServiceError,
    ShardUnavailableError,
)
from repro.obs import QueryProfile, Span, decode_trace_context
from repro.queries.sparql import is_variable
from repro.service.engine import (
    QueryResult,
    QueryService,
    WriteResult,
    latency_report,
)
from repro.service.http import QueryServiceServer
from repro import wire


class _CompleteOnlyResultCache:
    """A result-cache wrapper that refuses to store partial pages.

    Only ``put`` is guarded: a page computed while any shard was being
    skipped (the thread-local request scope recorded failures) is never
    stored, so everything *in* the cache is a complete response and
    lookups need no guard — best-effort mode keeps its cache hits, and
    only actually-incomplete results bypass the cache.
    """

    def __init__(self, inner):
        self._inner = inner

    def put(self, key, value) -> None:
        if request_failures():
            return
        self._inner.put(key, value)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ClusterQueryService(QueryService):
    """A :class:`QueryService` whose index is a shard cluster."""

    def __init__(self, cluster: ClusterClient, dictionary=None,
                 cardinalities=None, best_effort: bool = False,
                 meta: Optional[dict] = None, **options):
        index = ClusterIndex(cluster)
        super().__init__(index, dictionary=dictionary,
                         cardinalities=cardinalities,
                         meta=meta, writable=True, **options)
        self._cluster = cluster
        self.best_effort = bool(best_effort)
        self._request_state = threading.local()
        # Complete responses are cacheable even in best-effort mode; only
        # a page computed with a shard skipped must never be stored.
        self._result_cache = _CompleteOnlyResultCache(self._result_cache)

    @classmethod
    def from_cluster_dir(cls, cluster_dir,
                         addresses: Sequence[Tuple[str, int]],
                         key: Optional[str] = None,
                         **options) -> "ClusterQueryService":
        """Open a partitioner output directory: verify the manifest, load
        the dictionary + global planner stats, connect the shard clients."""
        from pathlib import Path
        cluster_dir = Path(cluster_dir)
        manifest = read_manifest(cluster_dir / MANIFEST_NAME, key)
        meta_path = cluster_dir / manifest.get("meta_container", META_NAME)
        dictionary = planner_stats = None
        if meta_path.exists():
            dictionary, planner_stats, _ = load_cluster_meta(meta_path)
        client = ClusterClient(manifest, addresses)
        return cls(client, dictionary=dictionary,
                   cardinalities=planner_stats,
                   meta={"num_shards": manifest["num_shards"],
                         "layout": "cluster"},
                   **options)

    # ------------------------------------------------------------------ #
    # Per-request partial-failure bookkeeping.
    # ------------------------------------------------------------------ #

    def request_report(self) -> Dict[str, Any]:
        """``{"incomplete": bool}`` plus the ``failed_shards`` list when
        non-empty, for the most recent read executed on the calling
        thread."""
        state = self._request_state
        report = {"incomplete": bool(getattr(state, "incomplete", False))}
        failed = list(getattr(state, "failed", ()))
        if failed:
            report["failed_shards"] = failed
        return report

    def _remember(self, failures: Dict[int, str]) -> None:
        self._request_state.incomplete = bool(failures)
        self._request_state.failed = sorted(failures)

    # ------------------------------------------------------------------ #
    # Reads.
    # ------------------------------------------------------------------ #

    def _pushdown_route(self, query) -> Tuple[Optional[str], Optional[int]]:
        """``("broadcast"|"single", shard)`` when the BGP is subject-star
        pushdownable, ``(None, None)`` for a coordinator-side join."""
        subjects = [template.subject for template in query.bgp]
        if not subjects:
            return None, None
        first = subjects[0]
        if any(subject != first for subject in subjects):
            return None, None
        if is_variable(first):
            return "broadcast", None
        return "single", shard_of(int(first), self._cluster.num_shards)

    def execute(self, query, limit: Optional[int] = None, offset: int = 0,
                timeout: Optional[float] = None, use_cache: bool = True,
                engine: Optional[str] = None, profile: bool = False,
                trace: Optional[Dict[str, str]] = None) -> QueryResult:
        if isinstance(query, str):
            query = self.parse(query)
        want_profile = bool(profile) or self._slow_log is not None
        # The guarded result cache holds complete responses only, so
        # best-effort requests may both read it and (when every shard
        # answered) populate it; a partial page is never stored.  A
        # profiled request additionally records failover attempts and
        # best-effort drops for the span tree.
        begin_request(self.best_effort, collect_events=want_profile)
        failures: Dict[int, str] = {}
        try:
            route, shard = self._pushdown_route(query)
            if route is None:
                result = super().execute(query, limit=limit, offset=offset,
                                         timeout=timeout,
                                         use_cache=use_cache, engine=engine,
                                         profile=profile, trace=trace)
                self._append_events(result.profile)
            else:
                result = self._execute_pushdown(query, route, shard, limit,
                                                offset, timeout, use_cache,
                                                engine, profile, trace)
        finally:
            failures = end_request()
            self._remember(failures)
        result.statistics["incomplete"] = bool(failures)
        if failures:
            result.statistics["failed_shards"] = sorted(failures)
        return result

    @staticmethod
    def _append_events(profile_doc: Optional[Dict[str, Any]]) -> None:
        """Graft the failover/drop events of the open request scope onto
        an already-serialised profile (the inherited execute path)."""
        if profile_doc is None:
            return
        events = request_events()
        if not events:
            return
        root = profile_doc.get("root")
        if not isinstance(root, dict):
            return
        span = Span("failover", parent_span_id=root.get("span_id"))
        span.counters["attempts"] = len(events)
        dropped = sum(1 for event in events if event.get("dropped"))
        if dropped:
            span.counters["dropped"] = dropped
        span.attrs["last_error"] = events[-1].get("error")
        root.setdefault("children", []).append(span.to_json())

    def _execute_pushdown(self, query, route: str, shard: Optional[int],
                          limit: Optional[int], offset: int,
                          timeout: Optional[float], use_cache: bool,
                          engine: Optional[str], profile: bool = False,
                          trace: Optional[Dict[str, str]] = None
                          ) -> QueryResult:
        if offset < 0:
            raise ServiceError(f"offset must be >= 0, got {offset}")
        started = time.monotonic()
        want_profile = bool(profile) or self._slow_log is not None
        query_profile: Optional[QueryProfile] = None
        execute_span: Optional[Span] = None
        shard_spans: Dict[int, Span] = {}
        if want_profile:
            trace_id, parent_span_id = decode_trace_context(trace)
            query_profile = QueryProfile(name="coordinator",
                                         trace_id=trace_id,
                                         parent_span_id=parent_span_id)
            if profile:
                with self._lock:
                    self._profile_requests += 1
                self._bump_metric("profile_requests")
        try:
            limit = self._effective_limit(limit)
            timeout = self._default_timeout if timeout is None else timeout
            engine = self._resolve_engine(query, engine)
            deadline = None if timeout is None else started + timeout
            # One solution past the page proves (or disproves) has_more.
            fetch = None if limit is None else offset + limit + 1
            targets = ([shard] if route == "single"
                       else range(self._cluster.num_shards))
            if query_profile is not None:
                plan_span = query_profile.span("plan")
                plan_span.attrs.update({
                    "route": route, "engine": engine,
                    "shards": len(list(targets))})
                plan_span.elapsed_seconds = time.monotonic() - started
                execute_span = query_profile.span("execute")
            rows: List[Dict[str, int]] = []
            payloads: List[dict] = []
            cached = True
            for shard_id in targets:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise QueryTimeoutError(
                        f"query exceeded its {timeout:.3f}s budget while "
                        f"scattering to shard {shard_id}")
                shard_span: Optional[Span] = None
                shard_trace: Optional[Dict[str, str]] = None
                if execute_span is not None:
                    # The shard's own spans take this per-shard RPC span
                    # as their parent, so the stitched tree reads
                    # coordinator → shard RPC → shard engine operators.
                    shard_span = execute_span.child(f"shard:{shard_id}")
                    shard_spans[shard_id] = shard_span
                    shard_trace = {"trace_id": query_profile.trace_id,
                                   "parent_span_id": shard_span.span_id}
                shard_started = time.monotonic()
                try:
                    shard_rows, trailer = self._cluster.query_shard(
                        shard_id, query, engine, fetch, remaining, use_cache,
                        profile=want_profile, trace=shard_trace)
                except ShardUnavailableError as error:
                    if absorb_failure(shard_id, error):
                        cached = False
                        if shard_span is not None:
                            shard_span.elapsed_seconds = (
                                time.monotonic() - shard_started)
                            shard_span.attrs["dropped"] = True
                            shard_span.attrs["error"] = str(error)
                        continue
                    raise
                rows.extend(shard_rows)
                payloads.append(trailer.get("statistics", {}))
                cached = cached and bool(trailer.get("cached"))
                if shard_span is not None:
                    shard_span.elapsed_seconds = (
                        time.monotonic() - shard_started)
                    shard_span.counters["rows"] = len(shard_rows)
                    if trailer.get("cached"):
                        shard_span.attrs["cache_hit"] = True
                    shard_profile = trailer.get("profile")
                    if isinstance(shard_profile, dict) and isinstance(
                            shard_profile.get("root"), dict):
                        shard_span.children.append(
                            Span.from_json(shard_profile["root"]))
                if fetch is not None and len(rows) >= fetch:
                    # The page (plus its has_more sentinel) is already
                    # full; the remaining shards cannot change it.
                    break
            has_more: Optional[bool] = None
            if limit is not None:
                has_more = len(rows) > offset + limit
                page = rows[offset:offset + limit]
            else:
                page = rows[offset:] if offset else rows
            summary = wire.merge_statistics(payloads, engine=engine)
            projection = tuple(query.projection or query.variables())
            elapsed = time.monotonic() - started
            self._record(elapsed, engine=engine)
            result = QueryResult(
                variables=projection, bindings=page,
                cached=cached and bool(payloads),
                elapsed_seconds=elapsed, limit=limit, offset=offset,
                has_more=has_more, statistics=summary,
                stages={"plan": 0.0, "execute": elapsed})
            if query_profile is not None:
                self._stitch(query_profile, execute_span, shard_spans,
                             summary)
                self._finalize_profile(query_profile, profile, result, None)
            return result
        except Exception as error:
            elapsed = time.monotonic() - started
            self._record(elapsed,
                         timed_out=isinstance(error, QueryTimeoutError),
                         failed=not isinstance(error, QueryTimeoutError))
            raise

    def _stitch(self, query_profile: QueryProfile,
                execute_span: Optional[Span],
                shard_spans: Dict[int, Span],
                summary: Dict[str, Any]) -> None:
        """Fold the request scope's failover events into the per-shard
        spans and close the tree's bookkeeping counters."""
        root = query_profile.root
        root.attrs["engine"] = summary.get("engine")
        if execute_span is not None:
            execute_span.finish()
        for event in request_events():
            span = shard_spans.get(int(event.get("shard", -1)))
            if span is None:
                continue
            span.add("attempts")
            if event.get("dropped"):
                span.attrs["dropped"] = True
            if event.get("error"):
                span.attrs["error"] = str(event["error"])

    def select(self, pattern, limit: Optional[int] = None, offset: int = 0,
               use_cache: bool = True):
        begin_request(self.best_effort)
        try:
            return super().select(pattern, limit=limit, offset=offset,
                                  use_cache=use_cache)
        finally:
            self._remember(end_request())

    # ------------------------------------------------------------------ #
    # Routed writes.
    # ------------------------------------------------------------------ #

    def update(self, inserts: Sequence[Tuple[int, int, int]] = (),
               deletes: Sequence[Tuple[int, int, int]] = ()):
        """Route one atomic batch to its owning shards; ack only once
        every shard has acknowledged (WAL-durable, epoch-published)."""
        from repro.dynamic.delta import normalize_triple
        inserts = [normalize_triple(t) for t in inserts]
        deletes = [normalize_triple(t) for t in deletes]
        payload = self._cluster.update(inserts, deletes)
        self._index.bump_epoch()
        payload["epoch"] = self._index.epoch
        with self._lock:
            self._updates_applied += (payload.get("inserted", 0)
                                      + payload.get("deleted", 0))
        return WriteResult(payload)

    def compact(self):
        payload = self._cluster.compact()
        self._index.bump_epoch()
        payload["epoch"] = self._index.epoch
        return WriteResult(payload)

    # ------------------------------------------------------------------ #
    # Observability.
    # ------------------------------------------------------------------ #

    def health(self) -> Dict[str, Any]:
        """The aggregated ``/healthz`` body: cluster-wide epoch + lag plus
        every shard's own report (unreachable shards degrade the status)."""
        shards = self._cluster.health()
        reachable = [s for s in shards if s.get("status") == "ok"]
        return {
            "status": "ok" if len(reachable) == len(shards) else "degraded",
            "num_shards": len(shards),
            "shards_reachable": len(reachable),
            "combined_epoch": sum(int(s.get("combined_epoch", 0))
                                  for s in reachable),
            "wal_lag": sum(int(s.get("wal_lag", 0)) for s in reachable),
            "num_triples": sum(int(s.get("num_triples", 0))
                               for s in reachable),
            "best_effort": self.best_effort,
            "shards": shards,
        }

    def statistics(self) -> Dict[str, Any]:
        shard_stats = self._cluster.stats()
        report = {
            "cluster": {
                "num_shards": self._cluster.num_shards,
                "has_replicas": self._cluster.has_replicas,
                "best_effort": self.best_effort,
                "epoch": self._index.epoch,
            },
            "coordinator": self._local_statistics(),
            "shards": shard_stats,
        }
        return report

    def _local_statistics(self) -> Dict[str, Any]:
        """The inherited per-service report, minus the index gauges that
        would each cost a cluster-wide fan-in of their own."""
        with self._lock:
            queries = self._queries_executed
            patterns = self._patterns_executed
            batches = self._batches_executed
            timeouts = self._timeouts
            errors = self._errors
            engine_counts = dict(self._engine_counts)
            updates_applied = self._updates_applied
            profile_requests = self._profile_requests
            slow_queries = self._slow_queries
            latencies = sorted(self._latencies)
        return {
            "uptime_seconds": time.monotonic() - self._started,
            "requests": {
                "queries": queries,
                "patterns": patterns,
                "batches": batches,
                "timeouts": timeouts,
                "errors": errors,
                "engines": engine_counts,
                "profile_requests": profile_requests,
                "slow_queries": slow_queries,
            },
            "engine": self._default_engine,
            "updates": {"applied": updates_applied},
            "result_cache": self._result_cache.snapshot(),
            "plan_cache": self._plan_cache.snapshot(),
            "latency_ms": latency_report(latencies),
        }

    def close(self) -> None:
        self._cluster.close()
        if self._slow_log is not None:
            self._slow_log.close()


def parse_address(text: str) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)`` (for --shard CLI flags)."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ClusterError(
            f"shard address must be host:port, got {text!r}")
    return host, int(port)


def parse_replica_set(text: str) -> List[Tuple[str, int]]:
    """``host:port[,host:port...]`` → one shard's replica endpoints.

    The leader's endpoint comes first; a plain ``host:port`` is the
    unreplicated degenerate case.
    """
    endpoints = [parse_address(part.strip())
                 for part in text.split(",") if part.strip()]
    if not endpoints:
        raise ClusterError(f"no shard endpoints in {text!r}")
    return endpoints


def build_coordinator(cluster_dir, addresses: Sequence[Tuple[str, int]],
                      host: str = "127.0.0.1", port: int = 8378,
                      key: Optional[str] = None, quiet: bool = False,
                      best_effort: bool = False,
                      log_format: str = "text",
                      **service_options) -> QueryServiceServer:
    """Open the cluster and bind (not start) the coordinator HTTP server."""
    service = ClusterQueryService.from_cluster_dir(
        cluster_dir, addresses, key=key, best_effort=best_effort,
        **service_options)
    return QueryServiceServer((host, port), service, quiet=quiet,
                              log_format=log_format, subsystem="coordinator")
