"""The embeddable query engine behind ``repro serve``.

A :class:`QueryService` owns one loaded, immutable :class:`TripleIndex`
(plus its optional RDF dictionary and planner statistics) and answers SPARQL
BGPs and triple selection patterns from any number of threads:

* **plan cache** — planning is selectivity-driven and deterministic, so the
  greedy template order is cached per *normalized* BGP (variables renamed to
  canonical ``?v0, ?v1, ...``), making alpha-equivalent queries share a plan;
* **result cache** — an LRU over result *pages* (normalized BGP + projection
  + limit/offset), so repeated hot queries skip the join entirely; cached
  bindings are stored under canonical variable names and translated back to
  each requester's spelling on a hit;
* **streaming execution** — misses run through
  :func:`repro.queries.planner.stream_bgp`, so ``limit`` pages never
  materialise the full result set and a per-request wall-clock ``timeout``
  bounds runaway joins;
* **statistics** — hit/miss/eviction counters for both caches, query and
  timeout totals, and latency percentiles over a sliding window, all
  exported by :meth:`QueryService.statistics` (the ``/stats`` endpoint);
* **updates** — when the index is a :class:`repro.dynamic.DynamicIndex`
  (``from_file(..., writable=True)`` / ``repro serve --writable``),
  :meth:`insert`, :meth:`delete` and :meth:`compact` mutate it.  Every
  request executes against one pinned snapshot (epoch) of the index, and
  result-cache keys carry that epoch, so a write can never serve stale
  pages; cached plans are invalidated when a compaction refreshes the
  planner's cardinality histograms.

Everything is thread-safe: reads run against immutable snapshots, writes
serialise inside the dynamic index, the caches lock internally, and the
counters share one service lock.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.base import TripleIndex
from repro.errors import ServiceError
from repro.obs import (
    OperatorCounters,
    QueryProfile,
    SlowQueryLog,
    decode_trace_context,
)
from repro.queries.planner import ENGINES as _ENGINES
from repro.queries.planner import (
    Cardinalities,
    ExecutionStatistics,
    QueryPlanner,
    stream_bgp,
)
from repro.queries.wcoj import (
    plan_variable_order,
    stream_bgp_wcoj,
    variable_estimates,
)
from repro.queries.sparql import SparqlQuery, parse_sparql
from repro.service.cache import LRUCache, normalize_bgp

#: What :meth:`QueryService.execute` accepts: SPARQL text or a parsed query.
QueryLike = Union[str, SparqlQuery]
#: A selection pattern: three terms, ``None`` meaning wildcard.
PatternLike = Sequence[Optional[int]]


@dataclass
class QueryResult:
    """One answered query: a page of bindings plus how it was produced."""

    variables: Tuple[str, ...]
    bindings: List[Dict[str, int]]
    cached: bool
    elapsed_seconds: float
    limit: Optional[int] = None
    offset: int = 0
    #: Whether more solutions exist beyond this page (``None`` = unknown,
    #: i.e. the query ran without a limit and the page is complete).
    has_more: Optional[bool] = None
    #: Plain-dict execution summary (``patterns_executed`` etc.); for a
    #: cache hit this is the summary recorded when the entry was computed.
    statistics: Dict[str, int] = field(default_factory=dict)
    #: Wall time per request stage (``parse`` / ``plan`` / ``execute``,
    #: seconds) — always populated (three clock reads), feeding the
    #: per-stage Prometheus histograms.
    stages: Dict[str, float] = field(default_factory=dict)
    #: The JSON span tree (``{"trace_id", "root"}``) when the request asked
    #: for ``profile=True``; ``None`` otherwise.
    profile: Optional[Dict[str, Any]] = None

    @property
    def count(self) -> int:
        return len(self.bindings)


@dataclass
class PatternResult:
    """One answered triple selection pattern."""

    triples: List[Tuple[int, int, int]]
    cached: bool
    elapsed_seconds: float
    limit: Optional[int] = None
    offset: int = 0
    has_more: Optional[bool] = None

    @property
    def count(self) -> int:
        return len(self.triples)


class WriteResult:
    """A write (or compaction) acknowledged by other processes: the pool's
    writer or a coordinator's owning shards."""

    def __init__(self, payload: Dict[str, Any]):
        self.payload = payload

    def to_json(self) -> Dict[str, Any]:
        return dict(self.payload)

    def __getattr__(self, name: str):
        try:
            return self.payload[name]
        except KeyError:
            raise AttributeError(name) from None


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence.

    The classic ``ceil(fraction * n) - 1`` rank: monotone in ``fraction``
    by construction, so ``p50 <= p90 <= p99`` holds for every window size
    (the previous ``round``-based rank relied on the rounding mode and made
    that property easy to break when tweaked; the ceiling form is the
    textbook definition and keeps ``p100`` = max).
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[rank]


def latency_report(latencies: Sequence[float]) -> Dict[str, float]:
    """The ``latency_ms`` block of a ``/stats`` report (shared with the
    coordinator so both report percentiles identically)."""
    ordered = sorted(latencies)
    return {
        "window": len(ordered),
        "mean": (sum(ordered) / len(ordered) * 1e3 if ordered else 0.0),
        "p50": _percentile(ordered, 0.50) * 1e3,
        "p90": _percentile(ordered, 0.90) * 1e3,
        "p99": _percentile(ordered, 0.99) * 1e3,
        "max": (ordered[-1] * 1e3) if ordered else 0.0,
    }


def _build_spans(query_profile: "QueryProfile", stages: Dict[str, float],
                 counters: Optional[List[OperatorCounters]],
                 operator_kind: str, plan_attrs: Dict[str, Any],
                 summary: Dict[str, Any], cached: bool) -> None:
    """Assemble the parse/plan/execute span tree for one request.

    Stage spans carry real wall times; operator spans (one per join level,
    attached under ``execute``) carry counters and the estimated-vs-actual
    cardinality pair but no own clock — a per-visit timer would cost more
    than the work it measures.
    """
    root = query_profile.root
    engine = summary.get("engine") or plan_attrs.get("engine")
    if engine:
        root.attrs["engine"] = engine
    if "parse" in stages:
        parse_span = root.child("parse")
        parse_span.elapsed_seconds = stages["parse"]
    plan_span = root.child("plan")
    plan_span.elapsed_seconds = stages.get("plan", 0.0)
    for key, value in plan_attrs.items():
        plan_span.attrs.setdefault(key, value)
    execute_span = root.child("execute")
    execute_span.elapsed_seconds = stages.get("execute", 0.0)
    if cached:
        execute_span.attrs["cache_hit"] = True
    for key in ("patterns_executed", "triples_matched", "seeks",
                "blocks_decoded"):
        value = summary.get(key)
        if value:
            execute_span.counters[key] = int(value)
    if counters:
        for level in counters:
            level.attach(execute_span, operator_kind)


class QueryService:
    """A long-lived, thread-safe query engine over one loaded index.

    ``max_limit`` caps the page size a single request may ask for (and is
    the implicit limit when a request gives none) — the guard rail that
    keeps one pathological query from materialising millions of bindings
    inside a shared server.  ``default_timeout`` (seconds) applies to every
    request that does not bring its own.

    ``engine`` is the default executor for SPARQL BGPs: ``"nested"`` (the
    nested-loop pipeline), ``"wcoj"`` (the leapfrog multiway join) or
    ``"auto"`` (wcoj for cyclic/multi-join BGPs).  Requests may override it
    per call; every result's statistics record which executor actually ran.
    """

    #: The accepted executor names, shared with the query layer.
    ENGINES = _ENGINES

    def __init__(self, index: TripleIndex, dictionary: Optional[Any] = None,
                 cardinalities: Optional[Cardinalities] = None,
                 plan_cache_size: int = 256,
                 result_cache_size: int = 256,
                 default_timeout: Optional[float] = None,
                 max_limit: Optional[int] = None,
                 latency_window: int = 2048,
                 engine: str = "auto",
                 meta: Optional[dict] = None,
                 writable: Optional[bool] = None,
                 slow_log=None,
                 slow_ms: float = 500.0):
        if engine not in self.ENGINES:
            raise ServiceError(
                f"unknown engine {engine!r}; expected one of {self.ENGINES}")
        self._index = index
        #: Whether this service accepts insert/delete/compact.  ``None``
        #: (the default) means "iff the index is dynamic" — right for a
        #: caller who constructed a DynamicIndex deliberately.  from_file
        #: passes an explicit value so a delta-carrying file served without
        #: ``writable=True`` stays read-only: the dynamic wrapper is then
        #: only there so reads see the merged view.
        if writable is None:
            writable = hasattr(index, "delta_statistics")
        self._writable = bool(writable)
        self._dictionary = dictionary
        self._planner = QueryPlanner(cardinalities=cardinalities)
        self._default_engine = engine
        self._meta = dict(meta or {})
        self._plan_cache = LRUCache(plan_cache_size)
        self._result_cache = LRUCache(result_cache_size)
        self._default_timeout = default_timeout
        self._max_limit = max_limit
        self._lock = threading.Lock()
        self._latencies: deque = deque(maxlen=max(1, latency_window))
        self._queries_executed = 0
        self._patterns_executed = 0
        self._batches_executed = 0
        self._timeouts = 0
        self._errors = 0
        self._engine_counts: Dict[str, int] = {"nested": 0, "wcoj": 0}
        self._updates_applied = 0
        #: ``slow_log`` is a path (or a ready :class:`SlowQueryLog`); when
        #: set, every query is profiled so an offending one can be logged
        #: with its span tree (you cannot profile retroactively).
        if slow_log is not None and not isinstance(slow_log, SlowQueryLog):
            slow_log = SlowQueryLog(slow_log, threshold_ms=slow_ms)
        self._slow_log: Optional[SlowQueryLog] = slow_log
        self._profile_requests = 0
        self._slow_queries = 0
        #: Optional per-process shared-metrics slot (set by the HTTP layer)
        #: mirroring ``profile_requests``/``slow_queries`` into /metrics.
        self.metrics_slot = None
        #: Set by :meth:`from_file`; a compaction persists the rebuilt
        #: index here (None = in-memory only, the WAL keeps the history).
        self._source_path = None
        #: Last compaction-persist failure (None = the last persist, if
        #: any, succeeded); surfaced under ``updates.persist_error``.
        self._persist_error: Optional[str] = None
        #: Bumped when the planner's cardinalities change (compaction):
        #: carried in every plan-cache key, so stale plans die with it.
        self._plan_epoch = 0
        self._started = time.monotonic()
        #: The :class:`~repro.dynamic.EpochFollower` behind a service built
        #: by :meth:`follow` (``None`` otherwise); see :meth:`refresh`.
        self._follower = None

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #

    @classmethod
    def from_file(cls, path, writable: bool = False, wal_path=None,
                  compaction_ratio: Optional[float] = None,
                  mmap: bool = False, **options) -> "QueryService":
        """Load a saved index file once and serve it indefinitely.

        Planner statistics bundled in the file (``repro build`` writes them
        by default) become the service's selectivity estimates.  With
        ``writable=True`` (implied by ``wal_path``) the index is wrapped in
        a :class:`repro.dynamic.DynamicIndex` so :meth:`insert`,
        :meth:`delete` and :meth:`compact` work; ``wal_path`` makes the
        accepted writes durable (replayed if the file already exists), and
        ``compaction_ratio`` arms the automatic size-ratio compaction
        trigger.  A file carrying a ``delta`` section is always served
        through the merged dynamic view so reads are correct, but it stays
        *read-only* unless writability was explicitly requested.

        ``mmap=True`` page-maps the container instead of reading it eagerly,
        so start-up is O(1) in index size (best paired with a v3 aligned
        file, see ``save_index(..., aligned=True)``).  Writability composes
        with it: the base stays a read-only view while delta state lives on
        the side.
        """
        from repro.storage import load_index
        loaded = load_index(path, mmap=mmap)
        index = loaded.queryable(wal_path=wal_path,
                                 compaction_ratio=compaction_ratio,
                                 writable=writable)
        service = cls(index, dictionary=loaded.dictionary,
                      cardinalities=loaded.planner_stats, meta=loaded.meta,
                      writable=writable or wal_path is not None,
                      **options)
        # Remembering the source file lets a compaction persist the rebuilt
        # index back (and only then truncate the WAL).
        service._source_path = path
        return service

    @classmethod
    def follow(cls, index_path, epoch_path, mmap: bool = True,
               **options) -> "QueryService":
        """A read-only service over an :class:`~repro.dynamic.EpochFollower`
        that tails the epochs a :class:`~repro.service.writer.Writer`
        publishes at ``epoch_path`` for the container at ``index_path``.

        The follower is the service's :attr:`index`; call :meth:`refresh`
        at the start of every request to see each acknowledged write.
        """
        from repro.dynamic.follower import EpochFollower
        follower = EpochFollower(index_path, epoch_path, mmap=mmap)
        service = cls(follower, dictionary=follower.dictionary,
                      cardinalities=follower.planner_stats,
                      meta=follower.meta, writable=False, **options)
        service._follower = follower
        return service

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #

    @property
    def index(self) -> TripleIndex:
        return self._index

    @property
    def persist_error(self) -> Optional[str]:
        """Why the last compaction failed to persist (``None`` = it did,
        or there was none): the container and WAL then still hold the
        pre-compaction history."""
        return self._persist_error

    def _snapshot(self) -> TripleIndex:
        """The view one request executes against (pinned for its duration)."""
        factory = getattr(self._index, "snapshot", None)
        return factory() if factory is not None else self._index

    def _dynamic_index(self):
        """The mutable index behind :meth:`insert`/:meth:`delete`/:meth:`compact`."""
        from repro.dynamic import DynamicIndex
        if not self._writable or not isinstance(self._index, DynamicIndex):
            raise ServiceError(
                "this service is read-only: open the index with "
                "writable=True (CLI: repro serve --writable) to accept "
                "updates")
        return self._index

    @property
    def dictionary(self) -> Optional[Any]:
        return self._dictionary

    def parse(self, text: str) -> SparqlQuery:
        """Parse SPARQL text against this service's dictionary."""
        return parse_sparql(text, dictionary=self._dictionary)

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #

    def _effective_limit(self, limit: Optional[int]) -> Optional[int]:
        if limit is None:
            return self._max_limit
        if limit < 0:
            raise ServiceError(f"limit must be >= 0, got {limit}")
        if self._max_limit is not None:
            return min(limit, self._max_limit)
        return limit

    def _plan_for(self, query: SparqlQuery, key) -> Tuple[Tuple[int, ...], int]:
        """The cached ``(template order, num Cartesian joins)`` for ``key``."""
        entry = self._plan_cache.get(key)
        if entry is None:
            entry = self._planner.plan_order(query.bgp)
            self._plan_cache.put(key, entry)
        return entry

    def _record(self, elapsed: float, timed_out: bool = False,
                failed: bool = False, pattern: bool = False,
                engine: Optional[str] = None) -> None:
        with self._lock:
            self._latencies.append(elapsed)
            if pattern:
                self._patterns_executed += 1
            else:
                self._queries_executed += 1
            if timed_out:
                self._timeouts += 1
            if failed:
                self._errors += 1
            if engine is not None:
                self._engine_counts[engine] = (
                    self._engine_counts.get(engine, 0) + 1)

    def _resolve_engine(self, query: SparqlQuery, engine: Optional[str]) -> str:
        """Pick the executor for one request (``None`` = service default)."""
        if engine is None:
            engine = self._default_engine
        if engine not in self.ENGINES:
            raise ServiceError(
                f"unknown engine {engine!r}; expected one of {self.ENGINES}")
        if engine == "auto":
            from repro.queries.wcoj import choose_engine
            engine = choose_engine(query.bgp)
        return engine

    def execute(self, query: QueryLike, limit: Optional[int] = None,
                offset: int = 0, timeout: Optional[float] = None,
                use_cache: bool = True,
                engine: Optional[str] = None,
                profile: bool = False,
                trace: Optional[Dict[str, Any]] = None) -> QueryResult:
        """Answer one SPARQL BGP, preferring the result cache.

        ``query`` is SPARQL text (parsed against the bundled dictionary) or
        an already-parsed :class:`SparqlQuery`.  The result page honours
        ``limit``/``offset`` (clamped to the service's ``max_limit``) and
        reports ``has_more`` whenever a limit was in force.  ``engine``
        overrides the service's default executor for this request; the
        result's ``statistics["engine"]`` records which executor ran (pages
        are cached per executor — the two engines enumerate the same solution
        multiset in different orders).

        ``profile=True`` additionally records a span tree — parse, plan and
        execute stages plus one operator span per join level with the
        planner's estimated cardinality next to the actual bindings
        produced — returned as ``result.profile``.  Profiling never changes
        the result: the same executor runs the same plan, only counters are
        collected.  ``trace`` (a ``{"trace_id", "parent_span_id"}`` mapping,
        see :func:`repro.obs.encode_trace_context`) stitches this profile
        into a caller's distributed trace.
        """
        if offset < 0:
            raise ServiceError(f"offset must be >= 0, got {offset}")
        started = time.monotonic()
        query_text = query if isinstance(query, str) else None
        # A slow-query log means every query is profiled (you cannot
        # profile retroactively); the span tree is only *returned* when the
        # request asked for it.
        want_profile = bool(profile) or self._slow_log is not None
        query_profile: Optional[QueryProfile] = None
        if want_profile:
            trace_id, parent_span_id = decode_trace_context(trace)
            query_profile = QueryProfile(trace_id=trace_id,
                                         parent_span_id=parent_span_id)
            if profile:
                with self._lock:
                    self._profile_requests += 1
                self._bump_metric("profile_requests")
        stages: Dict[str, float] = {}
        counters: Optional[List[OperatorCounters]] = None
        operator_kind = "pattern"
        plan_attrs: Dict[str, Any] = {}
        statistics: Optional[ExecutionStatistics] = None
        try:
            if isinstance(query, str):
                stamp = time.perf_counter()
                query = self.parse(query)
                stages["parse"] = time.perf_counter() - stamp
            limit = self._effective_limit(limit)
            timeout = self._default_timeout if timeout is None else timeout
            stamp = time.perf_counter()
            engine = self._resolve_engine(query, engine)

            # Pin one snapshot (and its epoch) for the whole request: the
            # join sees a consistent view even while writes land, and the
            # epoch in the cache key retires every page a write outdates.
            index = self._snapshot()
            epoch = getattr(index, "epoch", 0)

            key, mapping = normalize_bgp(query.bgp)
            projection = tuple(query.projection or query.variables())
            # Projection-only variables (absent from the BGP) are prefixed so
            # they can never collide with the canonical ``?vN`` names.
            normalized_projection = tuple(mapping.get(v, "?_" + v)
                                          for v in projection)
            reverse = {canonical: original
                       for original, canonical in mapping.items()}
            result_key = (key, normalized_projection, limit, offset, engine,
                          epoch)
            plan_attrs["engine"] = engine

            if use_cache:
                entry = self._result_cache.get(result_key)
                if entry is not None:
                    normalized_bindings, has_more, summary = entry
                    bindings = [
                        {reverse[variable]: value
                         for variable, value in binding.items()}
                        for binding in normalized_bindings]
                    stages["plan"] = time.perf_counter() - stamp
                    stages["execute"] = 0.0
                    elapsed = time.monotonic() - started
                    # Cache hits do not run an executor, so they do not
                    # count toward the per-engine execution counters.
                    self._record(elapsed)
                    result = QueryResult(
                        variables=projection, bindings=bindings, cached=True,
                        elapsed_seconds=elapsed, limit=limit, offset=offset,
                        has_more=has_more, statistics=dict(summary),
                        stages=stages)
                    self._observe(query_profile, profile, result, query_text,
                                  None, operator_kind, plan_attrs)
                    return result

            statistics = ExecutionStatistics()
            # Fetch one solution past the page to learn whether more exist.
            fetch = None if limit is None else limit + 1
            if engine == "wcoj":
                # The variable elimination order is cached per normalized
                # BGP (stored under canonical variable names, translated to
                # this request's spelling) — the wcoj counterpart of the
                # nested path's template-order plan cache.
                plan_key = ("wcoj", key, self._plan_epoch)
                cached_order = self._plan_cache.get(plan_key)
                if cached_order is None:
                    order = plan_variable_order(query.bgp, self._planner)
                    self._plan_cache.put(
                        plan_key, tuple(mapping[v] for v in order))
                else:
                    order = tuple(reverse[v] for v in cached_order)
                stages["plan"] = time.perf_counter() - stamp
                if query_profile is not None:
                    operator_kind = "var"
                    estimates = variable_estimates(query.bgp, self._planner)
                    counters = [OperatorCounters(v, estimates.get(v))
                                for v in order]
                    plan_attrs["order"] = list(order)
                stamp = time.perf_counter()
                bindings = list(stream_bgp_wcoj(
                    index, query, planner=self._planner,
                    limit=fetch, offset=offset, timeout=timeout,
                    statistics=statistics, variable_order=order,
                    profile=counters))
                stages["execute"] = time.perf_counter() - stamp
            else:
                order, cartesian_joins = self._plan_for(
                    query, (key, self._plan_epoch))
                statistics.cartesian_joins = cartesian_joins
                plan_templates = [query.bgp.templates[i] for i in order]
                stages["plan"] = time.perf_counter() - stamp
                if query_profile is not None:
                    labels = [" ".join(str(term) for term in template.terms())
                              for template in plan_templates]
                    counters = [
                        OperatorCounters(
                            label,
                            self._planner.selectivity_key(template)[1])
                        for label, template in zip(labels, plan_templates)]
                    plan_attrs["order"] = labels
                stamp = time.perf_counter()
                bindings = list(stream_bgp(
                    index, query, planner=self._planner,
                    plan=plan_templates,
                    limit=fetch, offset=offset, timeout=timeout,
                    statistics=statistics, profile=counters))
                stages["execute"] = time.perf_counter() - stamp
            has_more: Optional[bool] = None
            if limit is not None:
                has_more = len(bindings) > limit
                bindings = bindings[:limit]
            summary = {
                "patterns_executed": statistics.patterns_executed,
                "triples_matched": statistics.triples_matched,
                "cartesian_joins": statistics.cartesian_joins,
                "seeks": statistics.seeks,
                "blocks_decoded": statistics.blocks_decoded,
                "engine": statistics.engine,
            }
            if use_cache:
                normalized_bindings = [
                    {mapping.get(variable, "?_" + variable): value
                     for variable, value in binding.items()}
                    for binding in bindings]
                self._result_cache.put(
                    result_key, (normalized_bindings, has_more, dict(summary)))
            elapsed = time.monotonic() - started
            self._record(elapsed, engine=statistics.engine)
            result = QueryResult(
                variables=projection, bindings=bindings, cached=False,
                elapsed_seconds=elapsed, limit=limit, offset=offset,
                has_more=has_more, statistics=summary, stages=stages)
            self._observe(query_profile, profile, result, query_text,
                          counters, operator_kind, plan_attrs)
            return result
        except Exception as error:
            from repro.errors import QueryTimeoutError
            elapsed = time.monotonic() - started
            timed_out = isinstance(error, QueryTimeoutError)
            self._record(elapsed, timed_out=timed_out, failed=not timed_out)
            if (query_profile is not None and self._slow_log is not None
                    and self._slow_log.should_log(elapsed)):
                # A timed-out (or failed) slow query is the one you most
                # want in the log — record it with whatever the engines
                # tallied before the abort.
                summary = {} if statistics is None else {
                    "patterns_executed": statistics.patterns_executed,
                    "triples_matched": statistics.triples_matched,
                    "seeks": statistics.seeks,
                    "blocks_decoded": statistics.blocks_decoded,
                    "engine": statistics.engine,
                }
                _build_spans(query_profile, stages, counters, operator_kind,
                             plan_attrs, summary, cached=False)
                query_profile.finish()
                with self._lock:
                    self._slow_queries += 1
                self._bump_metric("slow_queries")
                entry = {
                    "trace_id": query_profile.trace_id,
                    "elapsed_ms": round(elapsed * 1e3, 3),
                    "slow_ms": self._slow_log.threshold_ms,
                    "error": type(error).__name__,
                    "timed_out": timed_out,
                    "statistics": summary,
                    "profile": query_profile.to_json(),
                }
                if query_text is not None:
                    entry["query"] = query_text
                self._slow_log.record(entry)
            raise

    def _bump_metric(self, field: str) -> None:
        slot = self.metrics_slot
        if slot is not None:
            try:
                slot.add(field)
            except Exception:  # pragma: no cover - metrics must not fail
                pass

    def _observe(self, query_profile: Optional[QueryProfile],
                 requested_profile: bool, result: QueryResult,
                 query_text: Optional[str],
                 counters: Optional[List[OperatorCounters]],
                 operator_kind: str, plan_attrs: Dict[str, Any]) -> None:
        """Finalise the span tree and feed the slow-query log."""
        if query_profile is None:
            return
        _build_spans(query_profile, result.stages, counters, operator_kind,
                     plan_attrs, result.statistics, cached=result.cached)
        self._finalize_profile(query_profile, requested_profile, result,
                               query_text)

    def _finalize_profile(self, query_profile: QueryProfile,
                          requested_profile: bool, result: QueryResult,
                          query_text: Optional[str]) -> None:
        """Close a fully-assembled span tree: attach it to the result when
        requested and emit the slow-query log line when the query was slow
        (shared with the coordinator, which builds its own stitched tree)."""
        query_profile.finish()
        document = query_profile.to_json()
        if requested_profile:
            result.profile = document
        slow_log = self._slow_log
        if slow_log is None or not slow_log.should_log(result.elapsed_seconds):
            return
        with self._lock:
            self._slow_queries += 1
        self._bump_metric("slow_queries")
        entry = {
            "trace_id": query_profile.trace_id,
            "elapsed_ms": round(result.elapsed_seconds * 1e3, 3),
            "slow_ms": slow_log.threshold_ms,
            "engine": result.statistics.get("engine"),
            "cached": result.cached,
            "limit": result.limit,
            "offset": result.offset,
            "results": result.count,
            "statistics": dict(result.statistics),
            "profile": document,
        }
        if query_text is not None:
            entry["query"] = query_text
        slow_log.record(entry)

    def execute_batch(self, queries: Iterable[QueryLike],
                      limit: Optional[int] = None, offset: int = 0,
                      timeout: Optional[float] = None,
                      use_cache: bool = True,
                      engine: Optional[str] = None) -> List[QueryResult]:
        """Answer several queries in one call (shared options apply to all).

        One call, one pass over the service: batching amortises the
        per-request overhead for clients that replay query logs or fan out
        template instantiations.
        """
        results = [self.execute(query, limit=limit, offset=offset,
                                timeout=timeout, use_cache=use_cache,
                                engine=engine)
                   for query in queries]
        with self._lock:
            self._batches_executed += 1
        return results

    def select(self, pattern: PatternLike, limit: Optional[int] = None,
               offset: int = 0, use_cache: bool = True) -> PatternResult:
        """Answer one triple selection pattern (``None`` terms = wildcards)."""
        if len(pattern) != 3:
            raise ServiceError(
                f"a selection pattern needs exactly 3 terms, got {len(pattern)}")
        if offset < 0:
            raise ServiceError(f"offset must be >= 0, got {offset}")
        started = time.monotonic()
        limit = self._effective_limit(limit)
        index = self._snapshot()
        key = ("pattern", tuple(pattern), limit, offset,
               getattr(index, "epoch", 0))
        if use_cache:
            entry = self._result_cache.get(key)
            if entry is not None:
                triples, has_more = entry
                elapsed = time.monotonic() - started
                self._record(elapsed, pattern=True)
                return PatternResult(triples=list(triples), cached=True,
                                     elapsed_seconds=elapsed, limit=limit,
                                     offset=offset, has_more=has_more)
        triples: List[Tuple[int, int, int]] = []
        has_more: Optional[bool] = None
        fetch = None if limit is None else offset + limit + 1
        for position, triple in enumerate(index.select(tuple(pattern))):
            if position < offset:
                continue
            triples.append(triple)
            if fetch is not None and position + 1 >= fetch:
                break
        if limit is not None:
            has_more = len(triples) > limit
            triples = triples[:limit]
        if use_cache:
            self._result_cache.put(key, (list(triples), has_more))
        elapsed = time.monotonic() - started
        self._record(elapsed, pattern=True)
        return PatternResult(triples=triples, cached=False,
                             elapsed_seconds=elapsed, limit=limit,
                             offset=offset, has_more=has_more)

    # ------------------------------------------------------------------ #
    # Updates (dynamic indexes only).
    # ------------------------------------------------------------------ #

    def update(self, inserts: Sequence[Tuple[int, int, int]] = (),
               deletes: Sequence[Tuple[int, int, int]] = ()):
        """Apply inserts and deletes as one atomic batch.

        Requires a writable (dynamic) index.  The whole request is
        validated before anything mutates (a malformed triple anywhere
        rejects it all), applied under one lock with one epoch bump, and
        made durable per the index's WAL configuration; cache invalidation
        is automatic through the epoch carried in every result-cache key.
        If the batch trips the compaction threshold, the returned result
        carries the compaction report.
        """
        result = self._dynamic_index().update(inserts=inserts,
                                              deletes=deletes)
        self._record_update(result)
        return result

    def insert(self, triples: Sequence[Tuple[int, int, int]]):
        """Insert a batch of ID triples; returns the applied counts."""
        return self.update(inserts=triples)

    def delete(self, triples: Sequence[Tuple[int, int, int]]):
        """Delete a batch of ID triples (tombstoning base triples)."""
        return self.update(deletes=triples)

    def compact(self):
        """Fold the delta into a freshly built index and swap it in.

        Queries keep streaming from the pre-compaction snapshot while the
        rebuild runs; afterwards the planner adopts the rebuilt index's
        cardinality histograms and cached plans are retired.  A service
        opened with :meth:`from_file` also persists the compacted container
        back to its source file — only then is the WAL truncated, so a
        crash at any point between leaves a replayable history.
        """
        result = self._dynamic_index().compact()
        if result.compacted:
            self._adopt_compaction(result)
        return result

    def _record_update(self, result) -> None:
        with self._lock:
            self._updates_applied += result.inserted + result.deleted
        if result.compaction is not None and result.compaction.compacted:
            self._adopt_compaction(result.compaction)

    def _adopt_compaction(self, compaction) -> None:
        if self._source_path is not None:
            # Durability hand-over: once the rebuilt index (with its empty
            # delta) is in the container, the logged history is redundant.
            # A failed persist must not fail the (already durable, already
            # visible) request that triggered it: the WAL still holds the
            # full history, so nothing is lost — record the error for
            # ``/stats`` and move on.
            try:
                self._index.save(self._source_path,
                                 dictionary=self._dictionary,
                                 planner_stats=compaction.cardinalities,
                                 reset_wal=True)
                self._persist_error = None
            except Exception as error:
                self._persist_error = f"{type(error).__name__}: {error}"
        if compaction.cardinalities is not None:
            self._planner = QueryPlanner(
                cardinalities=compaction.cardinalities)
        with self._lock:
            # Retire every cached plan: the old histograms are gone.
            self._plan_epoch += 1

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release held resources — the WAL handle of a writable index.

        The graceful-shutdown path (SIGTERM / pool drain) calls this after
        the HTTP server stops accepting, so the log's file descriptor is
        released cleanly; every acknowledged write was already fsync-ed at
        append time.  Idempotent, and a no-op for read-only services.
        """
        closer = getattr(self._index, "close", None)
        if closer is not None:
            closer()
        if self._slow_log is not None:
            self._slow_log.close()

    def refresh(self) -> bool:
        """Catch up with the writer's published epoch; returns whether the
        view changed.  Only a :meth:`follow` service has anything to catch
        up with — the no-change fast path is a single ``stat``."""
        return self._follower is not None and self._follower.refresh()

    # ------------------------------------------------------------------ #
    # Statistics.
    # ------------------------------------------------------------------ #

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body.  A process applying its own writes
        never trails the WAL; a :meth:`follow` service reports its
        follower's gauges, ``"degraded"`` if one of them fails."""
        index = self._index
        body = {
            "status": "ok",
            "pid": os.getpid(),
            "epoch": int(getattr(index, "epoch", 0)),
            "combined_epoch": int(getattr(index, "combined_epoch",
                                          getattr(index, "epoch", 0))),
            "wal_lag": 0,
            "num_triples": int(index.num_triples),
        }
        follower = self._follower
        if follower is not None:
            try:
                body.update({"combined_epoch": follower.combined_epoch,
                             "wal_lag": follower.wal_lag(),
                             "generation": follower.generation})
            except Exception:  # health must not 500 on a gauge
                body["status"] = "degraded"
        return body

    def request_report(self) -> Dict[str, Any]:
        """Fields to merge into the response body of the read this thread
        just ran (a coordinator flags partial answers here)."""
        return {}

    def statistics(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the service's behaviour so far."""
        with self._lock:
            latencies = sorted(self._latencies)
            queries = self._queries_executed
            patterns = self._patterns_executed
            batches = self._batches_executed
            timeouts = self._timeouts
            errors = self._errors
            engine_counts = dict(self._engine_counts)
            updates_applied = self._updates_applied
            profile_requests = self._profile_requests
            slow_queries = self._slow_queries
        index = self._index
        report = {
            "uptime_seconds": time.monotonic() - self._started,
            "index": {
                "layout": getattr(index, "name", type(index).__name__),
                "num_triples": int(index.num_triples),
                "size_in_bits": int(index.size_in_bits()),
                "bits_per_triple": index.bits_per_triple(),
                "has_dictionary": self._dictionary is not None,
                "has_planner_stats": self._planner.cardinalities is not None,
            },
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
            "result_cache": self._result_cache.snapshot(),
            "plan_cache": self._plan_cache.snapshot(),
            "latency_ms": latency_report(latencies),
        }
        report["index"]["epoch"] = int(getattr(index, "epoch", 0))
        delta_statistics = getattr(index, "delta_statistics", None)
        report["index"]["writable"] = (self._writable
                                       and delta_statistics is not None)
        # ``compactions`` comes from the index (the single source of truth:
        # it also counts compactions applied outside this service).
        report["updates"] = {"applied": updates_applied, "compactions": 0}
        if delta_statistics is not None:
            report["updates"].update(delta_statistics())
            report["updates"]["persist_error"] = self._persist_error
        return report
