"""Shared fixtures for the test suite.

Heavier artifacts (stores, indexes) are session-scoped so the cost of building
them is paid once; tests must therefore treat them as read-only.
"""

from __future__ import annotations

import http.client
import json
import random
import urllib.parse

import pytest

from repro.core.builder import IndexBuilder
from repro.datasets.synthetic import generate_from_profile
from repro.datasets.watdiv import generate_watdiv
from repro.rdf.triples import TripleStore


def make_skewed_triples(count: int, num_subjects: int = 180, num_predicates: int = 12,
                        num_objects: int = 260, seed: int = 13) -> list:
    """Random triples with mild skew, deduplicated and sorted."""
    rng = random.Random(seed)
    triples = set()
    while len(triples) < count:
        subject = min(rng.randint(0, num_subjects - 1),
                      rng.randint(0, num_subjects - 1))
        predicate = min(rng.randint(0, num_predicates - 1),
                        rng.randint(0, num_predicates - 1))
        obj = min(rng.randint(0, num_objects - 1), rng.randint(0, num_objects - 1))
        triples.add((subject, predicate, obj))
    return sorted(triples)


@pytest.fixture(scope="session")
def small_store() -> TripleStore:
    """A small, skewed, deduplicated store with dense per-role ID spaces."""
    return TripleStore.from_triples(make_skewed_triples(2500), densify=True)


@pytest.fixture(scope="session")
def reference_triples(small_store) -> list:
    """The triples of :func:`small_store` as a sorted ground-truth list."""
    return sorted(small_store)


@pytest.fixture(scope="session")
def builder(small_store) -> IndexBuilder:
    """An :class:`IndexBuilder` over the small store."""
    return IndexBuilder(small_store)


@pytest.fixture(scope="session")
def index_3t(builder):
    """The 3T index over the small store."""
    return builder.build("3t")


@pytest.fixture(scope="session")
def index_cc(builder):
    """The CC index over the small store."""
    return builder.build("cc")


@pytest.fixture(scope="session")
def index_2tp(builder):
    """The 2Tp index over the small store."""
    return builder.build("2tp")


@pytest.fixture(scope="session")
def index_2to(builder):
    """The 2To index over the small store."""
    return builder.build("2to")


@pytest.fixture(scope="session")
def all_indexes(index_3t, index_cc, index_2tp, index_2to):
    """All four paper layouts keyed by name."""
    return {"3t": index_3t, "cc": index_cc, "2tp": index_2tp, "2to": index_2to}


@pytest.fixture(scope="session")
def dbpedia_like_store() -> TripleStore:
    """A scaled-down DBpedia-shaped dataset (used by statistics tests)."""
    return generate_from_profile("dbpedia", 15_000, seed=5)


@pytest.fixture(scope="session")
def watdiv_dataset():
    """A small WatDiv-like dataset with numeric literals for range queries."""
    return generate_watdiv(scale=120, seed=9)


#: One request script every HTTP deployment shape (single box, pool worker,
#: cluster coordinator) must answer alike: (method, path, JSON body or
#: ``None``, expected status, expected error ``type``).  A POST with no body
#: is sent without a Content-Length header; a batch expects one error type
#: (or ``None``) per entry.
HTTP_CONFORMANCE = (
    ("POST", "/query", {"pattern": [None, None, None], "limit": 1},
     200, None),
    ("POST", "/query", {"sparql": "SELECT ?s ?o WHERE { ?s 0 ?o }",
                        "limit": 1}, 200, None),
    ("POST", "/query", {"batch": [{"pattern": [None, None, None],
                                   "limit": 1},
                                  {"pattern": [1, 2]}]},
     200, [None, "ServiceError"]),
    ("POST", "/update", {"insert": [[1, 2]]}, 400, "ServiceError"),
    ("POST", "/update", {"insert": [[-1, 0, 0]]}, 400, "UpdateError"),
    ("POST", "/compact", {"force": True}, 400, "ServiceError"),
    ("GET", "/query", None, 405, "MethodNotAllowed"),
    ("GET", "/nowhere", None, 404, "NotFound"),
    ("POST", "/query", None, 411, "LengthRequired"),
)


def _conformance_exchange(base_url, method, path, body):
    """(status, error type) of one request — per entry for a batch."""
    address = urllib.parse.urlsplit(base_url)
    connection = http.client.HTTPConnection(address.hostname, address.port,
                                            timeout=30)
    try:
        if body is None and method == "POST":
            connection.putrequest(method, path)
            connection.endheaders()
        else:
            payload = None if body is None else json.dumps(body).encode()
            connection.request(method, path, body=payload,
                               headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        reply = json.loads(response.read())
    finally:
        connection.close()
    if "results" in reply:
        return response.status, [entry.get("error", {}).get("type")
                                 for entry in reply["results"]]
    return response.status, reply.get("error", {}).get("type")


@pytest.fixture(scope="session")
def http_conformance():
    """Run :data:`HTTP_CONFORMANCE` against a served base URL (writable:
    the update requests must reach the write path) and assert every
    status and error type."""
    def check(base_url):
        for method, path, body, status, error_type in HTTP_CONFORMANCE:
            assert _conformance_exchange(base_url, method, path, body) == (
                status, error_type), (method, path, body)
    return check
