"""Tests for the serving layer engine: caching, streaming, concurrency.

The HTTP front-end has its own file (``test_service_http.py``); here the
:class:`QueryService` is driven directly, the way an embedding application
would.
"""

import itertools
import threading

import pytest

from repro.core.base import TripleIndex
from repro.core.builder import build_index
from repro.errors import QueryTimeoutError, ServiceError
from repro.queries.planner import execute_bgp
from repro.queries.sparql import BasicGraphPattern, TriplePatternTemplate, parse_sparql
from repro.rdf.triples import TripleStore
from repro.service import LRUCache, QueryService, normalize_bgp
from repro.storage import save_index

KNOWS, WORKS_FOR, LIKES = 0, 1, 2
NUM_PEOPLE = 24


def _graph_triples():
    """A small social graph: a knows-ring, employers, and liked items."""
    triples = set()
    for person in range(NUM_PEOPLE):
        triples.add((person, KNOWS, (person + 1) % NUM_PEOPLE))
        triples.add((person, KNOWS, (person + 5) % NUM_PEOPLE))
        triples.add((person, WORKS_FOR, 100 + person % 3))
        if person % 2 == 0:
            triples.add((person, LIKES, 200 + person % 7))
    return sorted(triples)


@pytest.fixture(scope="module")
def store():
    return TripleStore.from_triples(_graph_triples())


@pytest.fixture(scope="module")
def index(store):
    return build_index(store, "2tp")


@pytest.fixture(scope="module")
def cardinalities(store):
    from repro.queries.planner import QueryPlanner
    return QueryPlanner.cardinalities_from_store(store)


@pytest.fixture()
def service(index, cardinalities):
    """A fresh service per test so cache statistics start at zero.

    Planning from the same cardinality histograms as a store-backed
    ``execute_bgp`` keeps result order comparable across the two paths.
    """
    return QueryService(index, cardinalities=cardinalities)


JOIN_QUERY = "SELECT ?x ?y ?c WHERE { ?x 0 ?y . ?y 1 ?c }"


class TestExecute:
    def test_matches_execute_bgp(self, service, index, store):
        query = parse_sparql(JOIN_QUERY)
        expected, _ = execute_bgp(index, query, store=store)
        result = service.execute(JOIN_QUERY)
        assert result.bindings == expected
        assert result.cached is False
        assert result.variables == ("?x", "?y", "?c")
        assert result.statistics["patterns_executed"] >= 1

    def test_parsed_query_accepted(self, service):
        query = parse_sparql(JOIN_QUERY)
        assert service.execute(query).count == service.execute(JOIN_QUERY).count

    def test_repeat_is_served_from_cache(self, service):
        cold = service.execute(JOIN_QUERY)
        warm = service.execute(JOIN_QUERY)
        assert warm.cached is True
        assert warm.bindings == cold.bindings
        assert warm.statistics == cold.statistics
        report = service.statistics()
        assert report["result_cache"]["hits"] == 1
        assert report["result_cache"]["misses"] == 1

    def test_alpha_equivalent_queries_share_the_cache(self, service):
        cold = service.execute("SELECT ?x ?y WHERE { ?x 0 ?y }")
        renamed = service.execute("SELECT ?person ?friend WHERE { ?person 0 ?friend }")
        assert renamed.cached is True
        assert renamed.variables == ("?person", "?friend")
        assert [{"?person": b["?x"], "?friend": b["?y"]} for b in cold.bindings] \
            == renamed.bindings

    def test_use_cache_false_recomputes(self, service):
        service.execute(JOIN_QUERY)
        again = service.execute(JOIN_QUERY, use_cache=False)
        assert again.cached is False

    def test_plan_cache_shared_across_pages(self, service):
        service.execute(JOIN_QUERY, limit=2)
        service.execute(JOIN_QUERY, limit=2, offset=2)  # new result page,
        report = service.statistics()                   # same cached plan
        assert report["plan_cache"]["hits"] == 1
        assert report["plan_cache"]["misses"] == 1
        assert report["result_cache"]["hits"] == 0

    def test_bad_limit_and_offset_rejected(self, service):
        with pytest.raises(ServiceError):
            service.execute(JOIN_QUERY, limit=-1)
        with pytest.raises(ServiceError):
            service.execute(JOIN_QUERY, offset=-1)


class TestPagination:
    def test_pages_tile_the_full_result(self, service):
        full = service.execute(JOIN_QUERY).bindings
        pages = []
        offset = 0
        while True:
            page = service.execute(JOIN_QUERY, limit=7, offset=offset)
            pages.extend(page.bindings)
            if not page.has_more:
                break
            offset += 7
        assert pages == full

    def test_has_more_flag(self, service):
        total = service.execute(JOIN_QUERY).count
        assert service.execute(JOIN_QUERY, limit=total).has_more is False
        assert service.execute(JOIN_QUERY, limit=total - 1).has_more is True
        assert service.execute(JOIN_QUERY).has_more is None

    def test_limit_zero(self, service):
        page = service.execute(JOIN_QUERY, limit=0)
        assert page.bindings == []
        assert page.has_more is True

    def test_max_limit_caps_every_request(self, index):
        service = QueryService(index, max_limit=3)
        unbounded = service.execute(JOIN_QUERY)
        assert unbounded.count == 3
        assert unbounded.has_more is True
        assert service.execute(JOIN_QUERY, limit=10).count == 3


class _CountingIndex(TripleIndex):
    """Delegating index that counts the triples pulled out of ``select``."""

    name = "counting"

    def __init__(self, inner):
        self._inner = inner
        self.triples_pulled = 0

    def select(self, pattern):
        for triple in self._inner.select(pattern):
            self.triples_pulled += 1
            yield triple

    def size_in_bits(self):
        return self._inner.size_in_bits()

    @property
    def num_triples(self):
        return self._inner.num_triples


class TestStreaming:
    def test_limited_page_does_not_materialise_everything(self, index):
        counting = _CountingIndex(index)
        service = QueryService(counting)
        full_count = service.execute("SELECT ?s ?o WHERE { ?s 0 ?o }",
                                     use_cache=False).count
        assert full_count == 2 * NUM_PEOPLE
        counting.triples_pulled = 0
        page = service.execute("SELECT ?s ?o WHERE { ?s 0 ?o }", limit=3,
                               use_cache=False)
        assert page.count == 3
        # limit+1 pulls (the has_more probe), nowhere near the full scan.
        assert counting.triples_pulled == 4

    def test_timeout_raises_and_is_counted(self, service):
        with pytest.raises(QueryTimeoutError):
            service.execute(JOIN_QUERY, timeout=0.0)
        report = service.statistics()
        assert report["requests"]["timeouts"] == 1
        assert report["requests"]["errors"] == 0


class TestPatternSelect:
    def test_select_matches_index(self, service, index):
        result = service.select((0, None, None))
        assert result.triples == list(index.select((0, None, None)))
        assert result.cached is False

    def test_select_cached_and_paged(self, service):
        cold = service.select((None, KNOWS, None), limit=5)
        warm = service.select((None, KNOWS, None), limit=5)
        assert warm.cached is True
        assert warm.triples == cold.triples
        assert cold.has_more is True
        assert len(cold.triples) == 5

    def test_select_offset(self, service):
        full = service.select((None, KNOWS, None)).triples
        page = service.select((None, KNOWS, None), limit=4, offset=3)
        assert page.triples == full[3:7]

    def test_malformed_pattern_rejected(self, service):
        with pytest.raises(ServiceError):
            service.select((None, None))


class TestEviction:
    def test_lru_eviction_is_counted(self, index):
        service = QueryService(index, result_cache_size=2)
        queries = ["SELECT ?x WHERE { ?x 0 %d }" % i for i in range(4)]
        for text in queries:
            service.execute(text)
        report = service.statistics()["result_cache"]
        assert report["evictions"] == 2
        assert report["size"] == 2
        # The most recent query is still cached, the oldest is not.
        assert service.execute(queries[-1]).cached is True
        assert service.execute(queries[0]).cached is False


class TestBatch:
    def test_batch_matches_individual_execution(self, service):
        texts = [JOIN_QUERY,
                 "SELECT ?x WHERE { ?x 1 100 }",
                 "SELECT ?s ?o WHERE { ?s 2 ?o }"]
        batch = service.execute_batch(texts)
        assert [r.count for r in batch] == \
            [service.execute(t).count for t in texts]
        assert service.statistics()["requests"]["batches"] == 1


class TestFromFile:
    def test_serves_a_saved_index_with_stats_and_dictionary(self, tmp_path):
        from repro.queries.planner import QueryPlanner
        from repro.rdf.dictionary import RdfDictionary

        term_triples = [("<a>", "<knows>", "<b>"), ("<a>", "<knows>", "<c>"),
                        ("<b>", "<knows>", "<c>"), ("<b>", "<likes>", "<d>")]
        dictionary, store = RdfDictionary.from_term_triples(term_triples)
        index = build_index(store, "2tp")
        path = tmp_path / "graph.ridx"
        save_index(index, path, dictionary=dictionary,
                   planner_stats=QueryPlanner.cardinalities_from_store(store))

        service = QueryService.from_file(path)
        report = service.statistics()["index"]
        assert report["has_dictionary"] is True
        assert report["has_planner_stats"] is True
        result = service.execute("SELECT ?x WHERE { <a> <knows> ?x }")
        assert result.count == 2


class TestConcurrency:
    def test_many_threads_hammering_one_service(self, index, store, cardinalities):
        service = QueryService(index, result_cache_size=8,
                               cardinalities=cardinalities)
        texts = [JOIN_QUERY,
                 "SELECT ?x ?y WHERE { ?x 0 ?y }",
                 "SELECT ?x WHERE { ?x 1 100 }",
                 "SELECT ?s ?o WHERE { ?s 2 ?o }",
                 "SELECT ?a ?b WHERE { ?a 0 ?b . ?b 0 ?c }"]
        expected = {text: execute_bgp(index, parse_sparql(text),
                                      store=store)[0]
                    for text in texts}
        num_threads, per_thread = 8, 40
        failures = []
        barrier = threading.Barrier(num_threads)

        def worker(seed):
            rotation = itertools.islice(
                itertools.cycle(texts[seed % len(texts):]
                                + texts[:seed % len(texts)]), per_thread)
            barrier.wait()
            for text in rotation:
                result = service.execute(text)
                if result.bindings != expected[text]:
                    failures.append((text, result.bindings))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert failures == []
        report = service.statistics()
        assert report["requests"]["queries"] == num_threads * per_thread
        cache = report["result_cache"]
        assert cache["hits"] + cache["misses"] == num_threads * per_thread
        assert cache["hits"] > 0


class TestLRUCacheUnit:
    def test_basic_lru_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes "a"
        cache.put("c", 3)                   # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.statistics.evictions == 1

    def test_capacity_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_snapshot_shape(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        snapshot = cache.snapshot()
        assert snapshot == {"hits": 1, "misses": 1, "evictions": 0,
                            "hit_rate": 0.5, "size": 1, "capacity": 4}


class TestNormalizeBgp:
    def test_alpha_equivalence(self):
        first, first_mapping = normalize_bgp(
            parse_sparql("SELECT ?x WHERE { ?x 0 ?y . ?y 1 ?z }").bgp)
        second, second_mapping = normalize_bgp(
            parse_sparql("SELECT ?a WHERE { ?a 0 ?b . ?b 1 ?c }").bgp)
        assert first == second
        assert first_mapping == {"?x": "?v0", "?y": "?v1", "?z": "?v2"}
        assert second_mapping == {"?a": "?v0", "?b": "?v1", "?c": "?v2"}

    def test_structure_is_preserved(self):
        different, _ = normalize_bgp(
            parse_sparql("SELECT ?x WHERE { ?x 0 ?y . ?x 1 ?z }").bgp)
        chained, _ = normalize_bgp(
            parse_sparql("SELECT ?x WHERE { ?x 0 ?y . ?y 1 ?z }").bgp)
        assert different != chained

    def test_constants_kept_verbatim(self):
        key, _ = normalize_bgp(BasicGraphPattern(
            [TriplePatternTemplate(3, 1, "?x")]))
        assert key == ((3, 1, "?v0"),)


class TestUpdates:
    """The service's dynamic-update surface: insert/delete/compact plus
    epoch-keyed cache invalidation."""

    def dynamic_service(self, store, cardinalities):
        from repro.dynamic import DynamicIndex
        index = DynamicIndex(build_index(store, "2tp"))
        return QueryService(index, cardinalities=cardinalities)

    def test_read_only_service_rejects_updates(self, service):
        with pytest.raises(ServiceError, match="read-only"):
            service.insert([(900, 0, 901)])
        with pytest.raises(ServiceError, match="read-only"):
            service.delete([(0, 0, 1)])
        with pytest.raises(ServiceError, match="read-only"):
            service.compact()

    def test_insert_invalidates_cached_results(self, store, cardinalities):
        service = self.dynamic_service(store, cardinalities)
        query = "SELECT ?x WHERE { ?x 0 1 }"
        cold = service.execute(query)
        warm = service.execute(query)
        assert not cold.cached and warm.cached
        result = service.insert([(900, KNOWS, 1)])
        assert result.inserted == 1
        fresh = service.execute(query)
        assert not fresh.cached  # the epoch in the key retired the old page
        assert fresh.count == cold.count + 1
        assert service.execute(query).cached  # new epoch page caches again

    def test_delete_invalidates_pattern_cache(self, store, cardinalities):
        service = self.dynamic_service(store, cardinalities)
        first = service.select((0, KNOWS, None))
        assert service.select((0, KNOWS, None)).cached
        service.delete([first.triples[0]])
        after = service.select((0, KNOWS, None))
        assert not after.cached
        assert after.count == first.count - 1

    def test_compact_preserves_answers_and_refreshes_planner(
            self, store, cardinalities):
        service = self.dynamic_service(store, cardinalities)
        service.insert([(900, KNOWS, 0), (0, KNOWS, 900)])
        service.delete([(0, KNOWS, 1)])
        before = service.execute(JOIN_QUERY, use_cache=False)
        result = service.compact()
        assert result.compacted
        after = service.execute(JOIN_QUERY, use_cache=False)
        assert (sorted(map(sorted, (b.items() for b in before.bindings)))
                == sorted(map(sorted, (a.items() for a in after.bindings))))
        report = service.statistics()
        assert report["updates"]["compactions"] == 1
        assert report["updates"]["delta_inserted"] == 0
        assert report["index"]["epoch"] == 3

    def test_statistics_report_delta_gauges(self, store, cardinalities):
        service = self.dynamic_service(store, cardinalities)
        service.insert([(901, LIKES, 300)])
        report = service.statistics()
        assert report["index"]["writable"] is True
        assert report["index"]["epoch"] == 1
        assert report["updates"]["applied"] == 1
        assert report["updates"]["delta_inserted"] == 1
        read_only = QueryService(build_index(store, "2tp"),
                                 cardinalities=cardinalities)
        assert read_only.statistics()["index"]["writable"] is False

    def test_auto_compaction_through_the_service(self, store, cardinalities):
        from repro.dynamic import DynamicIndex
        index = DynamicIndex(build_index(store, "2tp"),
                             compaction_ratio=0.01)
        service = QueryService(index, cardinalities=cardinalities)
        result = service.insert([(910, KNOWS, 911), (912, KNOWS, 913)])
        assert result.compaction is not None
        assert service.statistics()["updates"]["compactions"] == 1

    def test_from_file_writable_round_trip(self, store, cardinalities,
                                           tmp_path):
        path = tmp_path / "dyn.ridx"
        save_index(build_index(store, "2tp"), path)
        wal = tmp_path / "dyn.wal"
        service = QueryService.from_file(path, writable=True, wal_path=wal)
        service.insert([(920, KNOWS, 921)])
        service.index.close()
        # A restart replays the WAL: the acknowledged insert is still there.
        recovered = QueryService.from_file(path, writable=True, wal_path=wal)
        assert recovered.select((920, KNOWS, None)).count == 1
        recovered.index.close()

    def test_compact_persists_container_and_resets_wal(self, store,
                                                       cardinalities,
                                                       tmp_path):
        """Durability hand-over: the WAL survives an in-memory compaction
        and is truncated only once the rebuilt container is on disk."""
        from repro.dynamic import DynamicIndex
        from repro.storage import file_info

        path = tmp_path / "dyn.ridx"
        save_index(build_index(store, "2tp"), path)
        wal = tmp_path / "dyn.wal"
        service = QueryService.from_file(path, writable=True, wal_path=wal)
        service.insert([(930, KNOWS, 931)])
        # A bare DynamicIndex.compact keeps the WAL (nothing persisted)...
        bare = DynamicIndex.open(build_index(store, "2tp"),
                                 wal_path=tmp_path / "bare.wal")
        bare.insert([(1, KNOWS, 940)])
        bare.compact()
        assert bare._wal.num_records == 1
        bare.close()
        # ...while the service persists to its source file, then truncates.
        service.compact()
        assert service.index._wal.num_records == 0
        info = file_info(path)
        assert info["meta"]["num_triples"] == len(_graph_triples()) + 1
        assert "delta" not in info["section_bytes"]
        service.index.close()
        # A restart sees the compacted container; the empty WAL adds nothing.
        recovered = QueryService.from_file(path, writable=True, wal_path=wal)
        assert recovered.select((930, KNOWS, None)).count == 1
        recovered.index.close()

    def test_failed_compaction_persist_does_not_fail_the_request(
            self, store, cardinalities, tmp_path, monkeypatch):
        path = tmp_path / "dyn.ridx"
        save_index(build_index(store, "2tp"), path)
        wal = tmp_path / "dyn.wal"
        service = QueryService.from_file(path, writable=True, wal_path=wal)
        service.insert([(940, KNOWS, 941)])
        from repro.errors import StorageError

        def failing_save(*args, **kwargs):
            raise StorageError("disk full")

        monkeypatch.setattr(type(service.index), "save", failing_save)
        result = service.compact()  # compaction itself succeeds in memory
        assert result.compacted
        monkeypatch.undo()
        report = service.statistics()["updates"]
        assert "StorageError" in report["persist_error"]
        # The WAL was NOT reset: a restart still replays the full history.
        assert service.index._wal.num_records == 1
        service.index.close()
        recovered = QueryService.from_file(path, writable=True, wal_path=wal)
        assert recovered.select((940, KNOWS, None)).count == 1
        recovered.index.close()

    def test_delta_file_served_read_only_stays_read_only(self, store,
                                                         cardinalities,
                                                         tmp_path):
        """A delta-carrying file needs the dynamic wrapper for correct
        reads, but that must not silently enable writes."""
        from repro.dynamic import DynamicIndex
        path = tmp_path / "delta.ridx"
        writable = DynamicIndex(build_index(store, "2tp"))
        writable.insert([(950, KNOWS, 951)])
        writable.save(path)
        service = QueryService.from_file(path)  # no writable=True
        # Reads see the merged view (the stored delta insert is there)...
        assert service.select((950, KNOWS, None)).count == 1
        # ...but every mutation is refused, and /stats says read-only.
        with pytest.raises(ServiceError, match="read-only"):
            service.insert([(960, KNOWS, 961)])
        with pytest.raises(ServiceError, match="read-only"):
            service.compact()
        assert service.statistics()["index"]["writable"] is False
