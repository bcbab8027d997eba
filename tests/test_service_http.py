"""Tests for the HTTP front-end: endpoints, error mapping, concurrency.

One threaded server (bound to an ephemeral port) is shared by the whole
module; every test talks real HTTP through ``urllib`` — no handler mocking.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.builder import build_index
from repro.rdf.dictionary import RdfDictionary
from repro.rdf.triples import TripleStore
from repro.service import QueryService, build_server
from repro.service.writer import Writer
from repro.storage import save_index

KNOWS = "<http://example.org/knows>"
LIKES = "<http://example.org/likes>"


def _person(name):
    return f"<http://example.org/{name}>"


TERM_TRIPLES = [
    (_person("alice"), KNOWS, _person("bob")),
    (_person("alice"), KNOWS, _person("carol")),
    (_person("bob"), KNOWS, _person("carol")),
    (_person("bob"), KNOWS, _person("dave")),
    (_person("carol"), KNOWS, _person("dave")),
    (_person("alice"), LIKES, _person("dave")),
]


@pytest.fixture(scope="module")
def server():
    dictionary, store = RdfDictionary.from_term_triples(TERM_TRIPLES)
    service = QueryService(build_index(store, "2tp"), dictionary=dictionary)
    instance = build_server(service, host="127.0.0.1", port=0, quiet=True)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url, body):
    data = json.dumps(body).encode("utf-8") if isinstance(body, dict) else body
    request = urllib.request.Request(url + "/query", data=data, method="POST",
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestProbes:
    def test_healthz(self, base_url):
        status, body = _get(base_url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["num_triples"] == len(TERM_TRIPLES)

    def test_healthz_reports_epoch_and_lag(self, base_url):
        status, body = _get(base_url + "/healthz")
        assert status == 200
        # Uniform probe contract across single box, pool workers and
        # cluster shards: a follower's combined (generation, epoch) point
        # plus how far its view trails the published WAL.
        assert body["combined_epoch"] == 0
        assert body["wal_lag"] == 0

    def _follow(self, tmp_path):
        """A :class:`Writer` over a saved index and a
        :meth:`QueryService.follow` service over its files."""
        index_path = tmp_path / "idx.bin"
        store = TripleStore.from_triples([(i, 0, i + 1) for i in range(9)])
        save_index(build_index(store, "2tp"), index_path, aligned=True)
        writer = Writer(index_path, tmp_path / "idx.wal",
                        tmp_path / "idx.wal.epoch", mmap=True)
        return writer, QueryService.follow(index_path,
                                           tmp_path / "idx.wal.epoch")

    def test_healthz_reports_follower_fields(self, tmp_path):
        writer, service = self._follow(tmp_path)
        try:
            writer.update(inserts=[(50, 7, 51)])
            body = service.health()
            assert body["status"] == "ok"
            assert body["wal_lag"] == 1  # the write is not replayed yet
            assert body["generation"] == 0
            assert service.refresh()
            body = service.health()
            assert body["wal_lag"] == 0
            assert body["combined_epoch"] == body["epoch"] == 1
            assert body["num_triples"] == 10
        finally:
            service.close()
            writer.close()

    def test_healthz_degrades_when_a_follower_gauge_fails(self, tmp_path,
                                                          monkeypatch):
        writer, service = self._follow(tmp_path)

        def broken():
            raise RuntimeError("follower is wedged")

        monkeypatch.setattr(service.index, "wal_lag", broken)
        instance = build_server(service, host="127.0.0.1", port=0,
                                quiet=True)
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = instance.server_address[:2]
            status, body = _get(f"http://{host}:{port}/healthz")
            assert status == 200
            assert body["status"] == "degraded"
        finally:
            instance.shutdown()
            instance.server_close()
            thread.join(timeout=5)
            service.close()
            writer.close()

    def test_stats_shape(self, base_url):
        status, body = _get(base_url + "/stats")
        assert status == 200
        assert body["index"]["num_triples"] == len(TERM_TRIPLES)
        for section in ("result_cache", "plan_cache", "latency_ms",
                        "requests"):
            assert section in body
        assert 0.0 <= body["result_cache"]["hit_rate"] <= 1.0

    def test_unknown_path_is_404(self, base_url):
        status, body = _get(base_url + "/nope")
        assert status == 404
        assert body["error"]["type"] == "NotFound"

    def test_get_query_is_405(self, base_url):
        status, body = _get(base_url + "/query")
        assert status == 405


class TestQueryEndpoint:
    def test_sparql_query(self, base_url):
        status, body = _post(base_url, {
            "sparql": f"SELECT ?who WHERE {{ {_person('alice')} {KNOWS} ?who }}"})
        assert status == 200
        assert body["count"] == 2
        assert body["variables"] == ["who"]
        assert body["cached"] is False
        assert body["statistics"]["patterns_executed"] == 1

    def test_repeat_query_reports_cached(self, base_url):
        request = {"sparql": f"SELECT ?a ?b WHERE {{ ?a {LIKES} ?b }}"}
        _post(base_url, request)
        status, body = _post(base_url, request)
        assert status == 200
        assert body["cached"] is True
        assert body["count"] == 1

    def test_pagination(self, base_url):
        request = {"sparql": f"SELECT ?a ?b WHERE {{ ?a {KNOWS} ?b }}",
                   "limit": 3}
        status, first = _post(base_url, request)
        assert status == 200
        assert first["count"] == 3
        assert first["has_more"] is True
        status, rest = _post(base_url, dict(request, offset=3))
        assert rest["count"] == 2
        assert rest["has_more"] is False

    def test_pattern_query_with_decode(self, base_url, server):
        knows_id = server.service.dictionary.predicates.id_of(KNOWS)
        status, body = _post(base_url, {"pattern": [None, knows_id, None]})
        assert status == 200
        assert body["count"] == 5
        assert all(isinstance(term, int) for term in body["triples"][0])
        status, decoded = _post(base_url, {"pattern": [None, knows_id, None],
                                           "decode": True})
        assert decoded["triples"][0][1] == KNOWS

    def test_batch_mixes_successes_and_errors(self, base_url):
        status, body = _post(base_url, {"batch": [
            {"sparql": f"SELECT ?who WHERE {{ {_person('bob')} {KNOWS} ?who }}"},
            {"sparql": "SELECT nonsense"},
            {"pattern": [None, None, None], "limit": 2},
        ]})
        assert status == 200
        assert body["count"] == 3
        assert body["results"][0]["count"] == 2
        assert body["results"][1]["error"]["type"] == "ParseError"
        assert body["results"][1]["error"]["status"] == 400
        assert body["results"][2]["count"] == 2


class TestErrorPaths:
    def test_bad_sparql_is_400(self, base_url):
        status, body = _post(base_url, {"sparql": "this is not sparql"})
        assert status == 400
        assert body["error"]["type"] == "ParseError"

    def test_unknown_term_is_400(self, base_url):
        status, body = _post(base_url, {
            "sparql": f"SELECT ?x WHERE {{ <http://example.org/nobody> {KNOWS} ?x }}"})
        assert status == 400
        assert body["error"]["type"] == "DictionaryError"
        assert "unknown term" in body["error"]["message"]

    def test_timeout_is_408(self, base_url):
        status, body = _post(base_url, {
            "sparql": f"SELECT ?a ?b ?c WHERE {{ ?a {KNOWS} ?b . ?b {KNOWS} ?c }}",
            "timeout": 1e-9, "cache": False})
        assert status == 408
        assert body["error"]["type"] == "QueryTimeoutError"

    def test_invalid_json_body_is_400(self, base_url):
        status, body = _post(base_url, b"{not json")
        assert status == 400
        assert body["error"]["type"] == "ServiceError"

    def test_missing_query_field_is_400(self, base_url):
        status, body = _post(base_url, {"limit": 5})
        assert status == 400
        assert "'sparql' or a 'pattern'" in body["error"]["message"]

    def test_unknown_field_is_400(self, base_url):
        status, body = _post(base_url, {"sparql": "SELECT ?x WHERE { ?x 0 ?y }",
                                        "sparkle": True})
        assert status == 400
        assert "sparkle" in body["error"]["message"]

    def test_malformed_pattern_is_400(self, base_url):
        status, body = _post(base_url, {"pattern": [1, "two", 3]})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"

    def test_negative_limit_is_400(self, base_url):
        status, body = _post(base_url, {"pattern": [None, None, None],
                                        "limit": -1})
        assert status == 400
        assert "limit" in body["error"]["message"]

    def test_negative_offset_is_400(self, base_url):
        status, body = _post(base_url, {"pattern": [None, None, None],
                                        "offset": -3})
        assert status == 400
        assert "offset" in body["error"]["message"]

    def test_boolean_limit_is_400(self, base_url):
        # bool subclasses int; it must not silently mean limit=1.
        status, body = _post(base_url, {"pattern": [None, None, None],
                                        "limit": True})
        assert status == 400
        assert "limit" in body["error"]["message"]

    @pytest.mark.parametrize("timeout", [0, 0.0, -1, -0.5, "fast", False])
    def test_nonpositive_or_nonnumeric_timeout_is_400(self, base_url, timeout):
        status, body = _post(base_url, {
            "sparql": "SELECT ?x WHERE { ?x 0 ?y }", "timeout": timeout})
        assert status == 400
        assert "timeout" in body["error"]["message"]


class TestContentLength:
    """Raw-socket cases urllib cannot produce: absent/garbled framing used
    to fall through ``int()`` and surface as an opaque 500."""

    def _raw(self, server, request_bytes):
        import socket

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as conn:
            conn.sendall(request_bytes)
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                response += chunk
            # The body may arrive after the header chunk; read until EOF
            # (these responses all close the connection).
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        return status, json.loads(body) if body else {}

    def test_missing_content_length_is_411(self, server):
        status, body = self._raw(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status == 411
        assert body["error"]["type"] == "LengthRequired"

    def test_malformed_content_length_is_400(self, server):
        status, body = self._raw(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: banana\r\n\r\n")
        assert status == 400
        assert body["error"]["type"] == "BadRequest"

    def test_negative_content_length_is_400(self, server):
        status, body = self._raw(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -5\r\n\r\n")
        assert status == 400
        assert body["error"]["type"] == "BadRequest"


class TestConcurrentClients:
    def test_parallel_posts_all_answered_consistently(self, base_url):
        request = {"sparql": f"SELECT ?a ?b WHERE {{ ?a {KNOWS} ?b }}"}
        results = []
        errors = []

        def client():
            try:
                for _ in range(10):
                    status, body = _post(base_url, request)
                    results.append((status, body["count"]))
            except Exception as error:  # pragma: no cover - diagnostic aid
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert len(results) == 80
        assert set(results) == {(200, 5)}


class TestBodySizeLimit:
    def test_oversized_body_rejected_with_413(self, base_url):
        import urllib.error
        import urllib.request

        from repro.service.http import MAX_BODY_BYTES

        request = urllib.request.Request(
            base_url + "/query", data=b"x",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "PayloadTooLarge"


def _post_path(url, path, body):
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url + path, data=data, method="POST",
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture()
def writable_url():
    """A fresh writable server per test (updates mutate state)."""
    from repro.dynamic import DynamicIndex

    dictionary, store = RdfDictionary.from_term_triples(TERM_TRIPLES)
    index = DynamicIndex(build_index(store, "2tp"))
    service = QueryService(index, dictionary=dictionary)
    instance = build_server(service, host="127.0.0.1", port=0, quiet=True)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    host, port = instance.server_address[:2]
    yield f"http://{host}:{port}"
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


def test_http_conformance_single_box(writable_url, http_conformance):
    http_conformance(writable_url)


class TestUpdateEndpoint:
    def test_insert_query_compact_requery(self, writable_url):
        """The serving-loop acceptance flow, over real HTTP."""
        status, before = _post_path(writable_url, "/query",
                                    {"pattern": [None, None, None]})
        assert status == 200
        status, update = _post_path(
            writable_url, "/update",
            {"insert": [[90, 0, 91], [91, 0, 92]], "delete": [[0, 0, 1]]})
        assert status == 200
        assert update["inserted"] == 2 and update["deleted"] == 1
        # insert + delete land as ONE atomic batch: a single epoch bump.
        assert update["epoch"] == 1 and update["compacted"] is False
        status, merged = _post_path(writable_url, "/query",
                                    {"pattern": [None, None, None]})
        assert merged["count"] == before["count"] + 1
        status, compacted = _post_path(writable_url, "/compact", {})
        assert status == 200
        assert compacted["compacted"] is True
        assert compacted["absorbed_inserts"] == 2
        status, after = _post_path(writable_url, "/query",
                                   {"pattern": [None, None, None]})
        assert after["count"] == merged["count"]
        assert after["triples"] == merged["triples"]

    def test_stats_expose_delta_and_epoch_gauges(self, writable_url):
        _post_path(writable_url, "/update", {"insert": [[80, 1, 81]]})
        status, stats = _get(writable_url + "/stats")
        assert status == 200
        assert stats["index"]["writable"] is True
        assert stats["index"]["epoch"] == 1
        assert stats["updates"]["delta_inserted"] == 1
        assert stats["updates"]["applied"] == 1

    def test_malformed_updates_are_400(self, writable_url):
        # Shape errors raise ServiceError at the HTTP layer; component
        # errors raise UpdateError from the one shared validator.  Either
        # way: structured 400, nothing applied.
        for body in ({}, {"insert": "nope"}, {"insert": [[1, 2]]},
                     {"insert": [[1, 2, -3]]}, {"insert": [[1, 2, 2**63]]},
                     {"insert": [], "bogus": 1}):
            status, response = _post_path(writable_url, "/update", body)
            assert status == 400, body
            assert response["error"]["type"] in ("ServiceError",
                                                 "UpdateError")
        status, q = _post_path(writable_url, "/query",
                               {"pattern": [None, None, None]})
        assert q["count"] == len(TERM_TRIPLES)

    def test_compact_rejects_a_body(self, writable_url):
        status, response = _post_path(writable_url, "/compact",
                                      {"unexpected": True})
        assert status == 400
        assert "empty body" in response["error"]["message"]

    def test_read_only_server_rejects_updates(self, base_url):
        status, response = _post_path(base_url, "/update",
                                      {"insert": [[1, 1, 1]]})
        assert status == 400
        assert "read-only" in response["error"]["message"]
