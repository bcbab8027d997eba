"""The sharded cluster: partitioner, replication, coordinator, chaos.

The load-bearing property is **differential**: for every shard count K
(including K=1) and both executors, the coordinator must return exactly
the bindings the single-box service returns over the same data — through
interleaved inserts, deletes, compactions, shard kills + restarts, and
(with R > 1 serving processes per shard) the loss of any single replica.
Everything runs in-process (shard servers on background threads, real TCP
between coordinator and shards), so the suite exercises the actual RPC
framing without subprocess management.
"""

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster import rpc
from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import (
    ClusterQueryService,
    parse_address,
    parse_replica_set,
)
from repro.cluster.partition import (
    MANIFEST_NAME,
    build_cluster,
    read_manifest,
    rebalance_cluster,
    shard_of,
    splitmix64,
    write_manifest,
)
from repro.cluster.shard import ShardServer
from repro.core import build_index
from repro.errors import ClusterError, NotLeaderError, ShardUnavailableError
from repro.queries.planner import QueryPlanner
from repro.rdf.dictionary import RdfDictionary
from repro.service import build_server
from repro.service.engine import QueryService
from repro.storage import save_index

QUERIES = [
    "SELECT ?s ?o WHERE { ?s 1 ?o }",
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    "SELECT ?a ?b ?c WHERE { ?a 0 ?b . ?b 0 ?c }",
    "SELECT ?a ?c WHERE { ?a 0 ?b . ?a 1 ?c }",
]
ENGINES = ["nested", "wcoj"]
PATTERNS = [(None, None, None), (3, None, None), (None, 1, None),
            (None, None, 5), (3, 1, None), (None, 1, 5)]


def _term_triples():
    triples = []
    for i in range(260):
        triples.append((f"<http://x/s{i % 50}>", f"<http://x/p{i % 6}>",
                        f"<http://x/o{i % 37}>"))
        triples.append((f"<http://x/s{i % 50}>", "<http://x/knows>",
                        f"<http://x/s{(i + 11) % 50}>"))
    return triples


@pytest.fixture(scope="module")
def source_container(tmp_path_factory):
    dictionary, store = RdfDictionary.from_term_triples(_term_triples())
    index = build_index(store, "2tp")
    stats = QueryPlanner.cardinalities_from_store(store)
    path = tmp_path_factory.mktemp("cluster-src") / "box.repro"
    save_index(index, path, dictionary=dictionary, planner_stats=stats,
               aligned=True)
    return path


class _Cluster:
    """An in-process cluster: shard threads + a connected coordinator.

    With ``num_replicas > 1`` every shard gets R serving processes over
    the same containers — replica 0 the writable leader, the rest
    read-only followers tailing its WAL.  ``source=None`` reopens an
    existing cluster directory (e.g. after a rebalance) without
    rebuilding it.
    """

    def __init__(self, source, directory, num_shards, num_replicas=1,
                 **service_options):
        self.directory = directory
        self.num_replicas = num_replicas
        if source is None:
            self.manifest = read_manifest(directory / MANIFEST_NAME)
        else:
            self.manifest = build_cluster(source, directory, num_shards,
                                          num_replicas=num_replicas)
        self.servers = []
        for entry in self.manifest["shards"]:
            # The leader publishes the epoch documents the followers
            # tail, so replica 0 must be up before any follower opens.
            self.servers.append([self._spawn(entry, port=0, replica=index)
                                 for index in range(num_replicas)])
        self.service = ClusterQueryService.from_cluster_dir(
            directory, self.addresses(), **service_options)

    def _spawn(self, entry, port, replica=0):
        replica_container = (None if entry["replica"] is None
                             else self.directory / entry["replica"])
        return ShardServer(
            entry["id"], self.directory / entry["primary"],
            replica_container, port=port, replica_index=replica).start()

    @property
    def shards(self):
        """The per-shard leader servers (the PR 7 single-process view)."""
        return [group[0] for group in self.servers]

    def addresses(self):
        if self.num_replicas == 1:
            return [(group[0].host, group[0].port)
                    for group in self.servers]
        return [[(server.host, server.port) for server in group]
                for group in self.servers]

    def kill(self, shard_id, replica=None):
        """Stop one replica process, or the whole shard when unset."""
        group = self.servers[shard_id]
        for server in (group if replica is None else [group[replica]]):
            server.close()

    def restart(self, shard_id, replica=None):
        entry = self.manifest["shards"][shard_id]
        indices = (range(self.num_replicas) if replica is None
                   else [replica])
        for index in indices:
            port = self.servers[shard_id][index].port
            self.servers[shard_id][index] = self._spawn(
                entry, port=port, replica=index)

    def close(self):
        self.service.close()
        for group in self.servers:
            for server in group:
                server.close()


# --------------------------------------------------------------------------- #
# Partitioner.
# --------------------------------------------------------------------------- #

class TestPartitioner:
    def test_splitmix64_is_stable(self):
        # Pinned values: routing must not depend on PYTHONHASHSEED or
        # platform, or a rebuilt coordinator would mis-route every shard.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1
        assert shard_of(0, 4) == splitmix64(0) % 4

    def test_partition_is_exact_cover(self, source_container, tmp_path):
        manifest = build_cluster(source_container, tmp_path / "c", 2)
        box = QueryService.from_file(source_container)
        expected = sorted(box.select((None, None, None), limit=10**6).triples)
        for side in ("primary", "replica"):
            union = []
            for entry in manifest["shards"]:
                loaded = QueryService.from_file(tmp_path / "c" / entry[side])
                part = loaded.select((None, None, None), limit=10**6).triples
                union.extend(part)
                for s, p, o in part:
                    key = s if side == "primary" else o
                    assert shard_of(key, 2) == entry["id"]
            assert sorted(union) == expected

    def test_manifest_tamper_detection(self, source_container, tmp_path):
        build_cluster(source_container, tmp_path / "c", 2)
        manifest_path = tmp_path / "c" / MANIFEST_NAME
        document = json.loads(manifest_path.read_text())
        document["manifest"]["num_shards"] = 3
        manifest_path.write_text(json.dumps(document))
        with pytest.raises(ClusterError):
            read_manifest(manifest_path)

    @pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
    def test_manifest_that_is_not_an_object_is_rejected(self, tmp_path, text):
        path = tmp_path / MANIFEST_NAME
        path.write_text(text)
        with pytest.raises(ClusterError, match="not a shard manifest"):
            read_manifest(path)

    def test_manifest_rewrite_replaces_the_file(self, source_container,
                                                tmp_path):
        manifest = build_cluster(source_container, tmp_path / "c", 2)
        path = tmp_path / "c" / MANIFEST_NAME
        before = path.stat().st_ino
        write_manifest(path, manifest)
        # A new inode: the file was swapped in whole, never rewritten in place.
        assert path.stat().st_ino != before
        assert list(path.parent.glob("*.tmp")) == []
        assert read_manifest(path) == manifest

    def test_failed_manifest_rewrite_keeps_the_previous_one(
            self, source_container, tmp_path, monkeypatch):
        manifest = build_cluster(source_container, tmp_path / "c", 2)
        path = tmp_path / "c" / MANIFEST_NAME

        def crash(*args, **kwargs):
            raise OSError("crashed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crashed before the rename"):
            write_manifest(path, dict(manifest, num_shards=3))
        monkeypatch.undo()
        assert read_manifest(path)["num_shards"] == 2
        assert list(path.parent.glob("*.tmp")) == []

    def test_manifest_wrong_key_rejected(self, source_container, tmp_path):
        build_cluster(source_container, tmp_path / "c", 2, key="secret-a")
        with pytest.raises(ClusterError):
            read_manifest(tmp_path / "c" / MANIFEST_NAME, "secret-b")
        read_manifest(tmp_path / "c" / MANIFEST_NAME, "secret-a")

    def test_more_shards_than_subjects_builds_empty_shards(self, tmp_path):
        # Regression: K greater than the number of distinct subjects used
        # to be a build error.  An empty hash bucket is legitimate (small
        # or skewed data); the shard gets a valid empty container that
        # answers every pattern with zero rows.
        dictionary, store = RdfDictionary.from_term_triples(
            [("<http://x/a>", "<http://x/p>", "<http://x/b>")])
        index = build_index(store, "2tp")
        path = tmp_path / "tiny.repro"
        save_index(index, path, dictionary=dictionary)
        manifest = build_cluster(path, tmp_path / "c", 4)
        assert len(manifest["shards"]) == 4
        populated = 0
        for entry in manifest["shards"]:
            service = QueryService.from_file(tmp_path / "c" / entry["primary"])
            rows = service.select((None, None, None), limit=10).triples
            populated += bool(rows)
            service.close()
        assert populated == 1  # one subject lands in exactly one bucket

        # The cluster over those shards still answers exactly.
        cluster = _Cluster(path, tmp_path / "cl", 4)
        try:
            result = cluster.service.select((None, None, None), limit=10)
            assert len(result.triples) == 1
            empty = cluster.service.select((999, None, None), limit=10,
                                           use_cache=False)
            assert list(empty.triples) == []
        finally:
            cluster.close()

    def test_manifest_v1_is_normalized_on_read(self, source_container,
                                               tmp_path):
        build_cluster(source_container, tmp_path / "c", 2)
        path = tmp_path / "c" / MANIFEST_NAME
        manifest = json.loads(path.read_text())["manifest"]
        # Strip the v2 vocabulary and re-sign, exactly what a PR 7
        # partitioner would have written.
        manifest["manifest_version"] = 1
        del manifest["num_replicas"]
        del manifest["version"]
        write_manifest(path, manifest)
        reread = read_manifest(path)
        assert reread["num_replicas"] == 1
        assert reread["version"] == 1

    def test_rejects_unknown_manifest_version(self, source_container,
                                              tmp_path):
        build_cluster(source_container, tmp_path / "c", 2)
        path = tmp_path / "c" / MANIFEST_NAME
        manifest = json.loads(path.read_text())["manifest"]
        manifest["manifest_version"] = 99
        write_manifest(path, manifest)
        with pytest.raises(ClusterError, match="version 99"):
            read_manifest(path)

    def test_replica_layout_none(self, source_container, tmp_path):
        manifest = build_cluster(source_container, tmp_path / "c", 2,
                                 replica_layout="none")
        assert all(entry["replica"] is None
                   for entry in manifest["shards"])


# --------------------------------------------------------------------------- #
# Differential: coordinator vs single box.
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_cluster_matches_single_box(source_container, tmp_path, num_shards):
    box = QueryService.from_file(source_container, writable=True)
    cluster = _Cluster(source_container, tmp_path / "c", num_shards)
    try:
        for pattern in PATTERNS:
            expected = sorted(box.select(pattern, limit=10**6).triples)
            actual = sorted(
                cluster.service.select(pattern, limit=10**6).triples)
            assert actual == expected, pattern
        for query in QUERIES:
            for engine in ENGINES:
                expected = box.execute(query, engine=engine, limit=10**6)
                actual = cluster.service.execute(query, engine=engine,
                                                 limit=10**6)
                key = lambda row: sorted(row.items())
                assert sorted(actual.bindings, key=key) == \
                    sorted(expected.bindings, key=key), (query, engine)
                assert actual.statistics["incomplete"] is False

        # Interleaved writes: insert / query / delete / compact / query.
        batch = [(9001, 9001, 9002), (9002, 9001, 9003),
                 (9003, 9001, 9001), (9004, 9001, 9002)]
        for target in (box, cluster.service):
            target.update(inserts=batch)
        for target in (box, cluster.service):
            target.update(deletes=batch[:2])
        box.compact()
        cluster.service.compact()
        for pattern in [(None, 9001, None), (None, None, 9002),
                        (9003, None, None), (None, None, None)]:
            expected = sorted(box.select(pattern, limit=10**6).triples)
            actual = sorted(
                cluster.service.select(pattern, limit=10**6).triples)
            assert actual == expected, pattern
        for engine in ENGINES:
            query = "SELECT ?s ?o WHERE { ?s 9001 ?o }"
            expected = box.execute(query, engine=engine)
            actual = cluster.service.execute(query, engine=engine)
            key = lambda row: sorted(row.items())
            assert sorted(actual.bindings, key=key) == \
                sorted(expected.bindings, key=key)
    finally:
        cluster.close()
        box.close()


def test_limit_offset_paging(source_container, tmp_path):
    box = QueryService.from_file(source_container)
    cluster = _Cluster(source_container, tmp_path / "c", 2)
    try:
        query = "SELECT ?s ?o WHERE { ?s 1 ?o }"
        full = cluster.service.execute(query, limit=10**6)
        pages = []
        offset = 0
        while True:
            page = cluster.service.execute(query, limit=7, offset=offset)
            pages.extend(page.bindings)
            if not page.has_more:
                break
            offset += 7
        assert pages == full.bindings
        assert len(full.bindings) == len(
            box.execute(query, limit=10**6).bindings)
    finally:
        cluster.close()
        box.close()


def test_kill_and_restart_shard_mid_run(source_container, tmp_path):
    box = QueryService.from_file(source_container, writable=True)
    cluster = _Cluster(source_container, tmp_path / "c", 2)
    try:
        batch = [(8101, 8100, 8102), (8102, 8100, 8103),
                 (8103, 8100, 8101)]
        box.update(inserts=batch)
        cluster.service.update(inserts=batch)

        cluster.kill(1)
        with pytest.raises(ShardUnavailableError):
            cluster.service.select((None, None, None), use_cache=False)
        cluster.restart(1)

        # The restarted shard replayed its WAL: acknowledged writes and
        # base data are all still there, exactly matching the single box.
        for pattern in [(None, None, None), (None, 8100, None)]:
            expected = sorted(box.select(pattern, limit=10**6).triples)
            actual = sorted(
                cluster.service.select(pattern, limit=10**6,
                                       use_cache=False).triples)
            assert actual == expected, pattern
        for engine in ENGINES:
            query = "SELECT ?a ?c WHERE { ?a 8100 ?b . ?b 8100 ?c }"
            expected = box.execute(query, engine=engine)
            actual = cluster.service.execute(query, engine=engine,
                                             use_cache=False)
            key = lambda row: sorted(row.items())
            assert sorted(actual.bindings, key=key) == \
                sorted(expected.bindings, key=key)
    finally:
        cluster.close()
        box.close()


def test_best_effort_marks_partial_results(source_container, tmp_path):
    cluster = _Cluster(source_container, tmp_path / "c", 2,
                       best_effort=True)
    try:
        complete = cluster.service.execute(
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o }", limit=10**6)
        assert complete.statistics["incomplete"] is False

        cluster.kill(0)
        partial = cluster.service.execute(
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o }", limit=10**6)
        assert partial.statistics["incomplete"] is True
        assert partial.statistics["failed_shards"] == [0]
        assert 0 < len(partial.bindings) < len(complete.bindings)
        report = cluster.service.request_report()
        assert report["incomplete"] is True

        # Writes stay fail-fast even under best-effort: an acknowledged
        # write must never silently miss a dead owning shard.
        with pytest.raises(ShardUnavailableError):
            cluster.service.update(inserts=[(4, 4, 4), (5, 5, 5),
                                            (6, 6, 6), (7, 7, 7)])
    finally:
        cluster.close()


def test_best_effort_caches_complete_pages(source_container, tmp_path):
    # Regression: best-effort mode used to bypass the result cache for
    # every request.  Complete responses are cacheable — only a page
    # computed while a shard was being skipped must never be stored.
    cluster = _Cluster(source_container, tmp_path / "c", 2,
                       best_effort=True)
    try:
        query = "SELECT ?a ?b ?c WHERE { ?a 0 ?b . ?b 0 ?c }"
        complete = cluster.service.execute(query, limit=10**6)
        assert complete.statistics["incomplete"] is False
        repeat = cluster.service.execute(query, limit=10**6)
        assert repeat.cached is True
        assert repeat.bindings == complete.bindings

        # The cached page was computed while every shard answered, so a
        # shard dying later must not degrade it to a partial recompute.
        cluster.kill(0)
        served = cluster.service.execute(query, limit=10**6)
        assert served.cached is True
        assert served.statistics["incomplete"] is False
        assert served.bindings == complete.bindings
    finally:
        cluster.close()


def test_partial_pages_are_never_cached(source_container, tmp_path):
    cluster = _Cluster(source_container, tmp_path / "c", 2,
                       best_effort=True)
    try:
        query = "SELECT ?x ?z WHERE { ?x 1 ?y . ?y 0 ?z }"
        cluster.kill(0)
        partial = cluster.service.execute(query, limit=10**6)
        assert partial.statistics["incomplete"] is True
        assert partial.cached is False
        again = cluster.service.execute(query, limit=10**6)
        assert again.cached is False  # nothing partial was stored

        # Once the shard is back the same request heals to the full
        # answer — a cached partial page would have been served instead.
        cluster.restart(0)
        healed = cluster.service.execute(query, limit=10**6)
        assert healed.statistics["incomplete"] is False
        assert len(healed.bindings) >= len(partial.bindings)
    finally:
        cluster.close()


def test_star_query_single_shard_pushdown(source_container, tmp_path):
    cluster = _Cluster(source_container, tmp_path / "c", 2)
    try:
        # Constant subject: the whole star routes to one shard, so the
        # other shard being dead must not matter.
        target = 3
        dead = 1 - shard_of(target, 2)
        cluster.kill(dead)
        query = f"SELECT ?b ?c WHERE {{ {target} 0 ?b . {target} 1 ?c }}"
        result = cluster.service.execute(query, use_cache=False)
        assert result.statistics["incomplete"] is False
    finally:
        cluster.close()


# --------------------------------------------------------------------------- #
# Epochs and observability.
# --------------------------------------------------------------------------- #

def test_health_aggregation_and_epochs(source_container, tmp_path):
    cluster = _Cluster(source_container, tmp_path / "c", 2)
    try:
        health = cluster.service.health()
        assert health["status"] == "ok"
        assert health["shards_reachable"] == 2
        assert health["wal_lag"] == 0
        before = health["combined_epoch"]

        cluster.service.update(inserts=[(7001, 7000, 7002)])
        after = cluster.service.health()["combined_epoch"]
        assert after > before

        stats = cluster.service.statistics()
        assert set(stats) == {"cluster", "coordinator", "shards"}
        assert stats["cluster"]["num_shards"] == 2
        assert len(stats["shards"]) == 2

        cluster.kill(1)
        degraded = cluster.service.health()
        assert degraded["status"] == "degraded"
        assert degraded["shards_reachable"] == 1
    finally:
        cluster.close()


def test_shard_epoch_survives_restart(source_container, tmp_path):
    cluster = _Cluster(source_container, tmp_path / "c", 2)
    try:
        cluster.service.update(inserts=[(6001, 6000, 6002),
                                        (6002, 6000, 6001)])
        owner = shard_of(6001, 2)
        before = cluster.shards[owner].combined_epoch()
        assert before > 0
        cluster.kill(owner)
        cluster.restart(owner)
        assert cluster.shards[owner].combined_epoch() > before
    finally:
        cluster.close()


# --------------------------------------------------------------------------- #
# Process replication and failover (R > 1).
# --------------------------------------------------------------------------- #

class TestReplication:
    def test_followers_serve_acked_writes(self, source_container, tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 2,
                           num_replicas=2)
        try:
            batch = [(9101, 9100, 9102), (9102, 9100, 9101)]
            cluster.service.update(inserts=batch)
            # Ask each follower directly: publish-before-ack means the
            # write is epoch-visible there the moment the ack returned.
            for shard_id, group in enumerate(cluster.servers):
                follower = group[1]
                client = rpc.RpcClient(follower.host, follower.port,
                                       retries=0)
                try:
                    report = client.call({"op": "health"})
                    assert report["role"] == "follower"
                    assert report["wal_lag"] == 0
                    rows = []
                    for frame in client.stream(
                            {"op": "select",
                             "pattern": [None, 9100, None],
                             "side": "primary"}):
                        rows.extend(tuple(row)
                                    for row in frame.get("rows", ()))
                finally:
                    client.close()
                expected = [t for t in batch
                            if shard_of(t[0], 2) == shard_id]
                assert sorted(rows) == sorted(expected)
        finally:
            cluster.close()

    def test_followers_reject_writes(self, source_container, tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 2,
                           num_replicas=2)
        try:
            follower = cluster.servers[0][1]
            client = rpc.RpcClient(follower.host, follower.port, retries=0)
            try:
                with pytest.raises(NotLeaderError, match="follower"):
                    client.call({"op": "update",
                                 "primary": {"insert": [[1, 2, 3]]}})
                with pytest.raises(NotLeaderError):
                    client.call({"op": "compact"})
            finally:
                client.close()
        finally:
            cluster.close()

    def test_kill_any_single_replica_keeps_reads_complete(
            self, source_container, tmp_path):
        # The acceptance bar: with K=2 / R=2 the loss of any single
        # serving process must leave every acknowledged write readable
        # and every result complete (never marked incomplete).
        box = QueryService.from_file(source_container, writable=True)
        cluster = _Cluster(source_container, tmp_path / "c", 2,
                           num_replicas=2, best_effort=True)
        try:
            batch = [(9201, 9200, 9202), (9202, 9200, 9203),
                     (9203, 9200, 9201)]
            box.update(inserts=batch)
            cluster.service.update(inserts=batch)
            patterns = [(None, None, None), (None, 9200, None),
                        (None, None, 9202)]
            for shard_id in range(2):
                for replica in range(2):
                    cluster.kill(shard_id, replica=replica)
                    for pattern in patterns:
                        expected = sorted(
                            box.select(pattern, limit=10**6).triples)
                        actual = sorted(cluster.service.select(
                            pattern, limit=10**6, use_cache=False).triples)
                        assert actual == expected, (shard_id, replica,
                                                    pattern)
                        report = cluster.service.request_report()
                        assert report["incomplete"] is False
                    cluster.restart(shard_id, replica=replica)
        finally:
            cluster.close()
            box.close()

    def test_leader_kill_promotes_follower_for_writes(
            self, source_container, tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 2,
                           num_replicas=2)
        try:
            first = [(9301, 9300, 9302), (9302, 9300, 9303)]
            cluster.service.update(inserts=first)
            cluster.kill(0, replica=0)
            cluster.kill(1, replica=0)

            # The write exhausts the dead leader's retry budget, then
            # promotes the surviving follower and retries there — all
            # inside one coordinator call.
            second = [(9303, 9300, 9304), (9304, 9300, 9301)]
            reply = cluster.service.update(inserts=second)
            assert reply.inserted == len(second)

            result = cluster.service.select((None, 9300, None),
                                            limit=10**6, use_cache=False)
            assert sorted(result.triples) == sorted(first + second)

            # The promoted replicas now answer as leaders, and the
            # sticky leader pointer makes the next write go straight in.
            for report in cluster.service.health()["shards"]:
                assert report["role"] == "leader"
            third = cluster.service.update(inserts=[(9305, 9300, 9306)])
            assert third.inserted == 1
        finally:
            cluster.close()

    def test_replica_health_detail(self, source_container, tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 2,
                           num_replicas=2)
        try:
            health = cluster.service.health()
            assert health["status"] == "ok"
            for shard in health["shards"]:
                assert shard["replicas_reachable"] == 2
                roles = [entry["role"] for entry in shard["replicas"]]
                assert roles == ["leader", "follower"]

            # Losing one replica degrades nothing: the shard is down
            # only when every replica is.
            cluster.kill(0, replica=1)
            health = cluster.service.health()
            assert health["status"] == "ok"
            assert health["shards_reachable"] == 2
            assert health["shards"][0]["replicas_reachable"] == 1
        finally:
            cluster.close()


# --------------------------------------------------------------------------- #
# Rebalancing.
# --------------------------------------------------------------------------- #

class TestRebalance:
    def test_rebalance_preserves_acked_writes(self, source_container,
                                              tmp_path):
        box = QueryService.from_file(source_container, writable=True)
        cluster = _Cluster(source_container, tmp_path / "c", 2)
        batch = [(9401, 9400, 9402), (9402, 9400, 9403)]
        box.update(inserts=batch)
        cluster.service.update(inserts=batch)
        expected = sorted(box.select((None, None, None), limit=10**6).triples)
        box.close()
        cluster.close()  # rebalancing is offline

        manifest = rebalance_cluster(tmp_path / "c", 3)
        assert manifest["num_shards"] == 3
        assert manifest["version"] == 2
        # The WALs were folded into the rebuilt containers; replaying
        # them again would double-apply, so the sidecars must be gone.
        assert not list((tmp_path / "c").glob("*.wal"))
        assert not list((tmp_path / "c").glob("*.epoch"))

        reopened = _Cluster(None, tmp_path / "c", 3)
        try:
            actual = sorted(reopened.service.select(
                (None, None, None), limit=10**6).triples)
            assert actual == expected
        finally:
            reopened.close()

    def test_rebalance_shrink_removes_stale_shards(self, source_container,
                                                   tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 3)
        expected = sorted(cluster.service.select(
            (None, None, None), limit=10**6).triples)
        cluster.close()

        manifest = rebalance_cluster(tmp_path / "c", 2)
        assert manifest["num_shards"] == 2
        assert manifest["version"] == 2
        assert not (tmp_path / "c" / "shard-002.repro").exists()
        assert not (tmp_path / "c" / "shard-002-replica.repro").exists()

        reopened = _Cluster(None, tmp_path / "c", 2)
        try:
            actual = sorted(reopened.service.select(
                (None, None, None), limit=10**6).triples)
            assert actual == expected
        finally:
            reopened.close()


# --------------------------------------------------------------------------- #
# RPC layer.
# --------------------------------------------------------------------------- #

class TestRpc:
    def test_unary_and_error(self):
        def boom(message):
            raise ClusterError("no such thing")

        server = rpc.RpcServer(("127.0.0.1", 0),
                               {"echo": lambda m: {"value": m["value"]},
                                "boom": boom})
        rpc.serve_in_thread(server)
        client = rpc.RpcClient("127.0.0.1", server.port, retries=0)
        try:
            assert client.call({"op": "echo", "value": 7})["value"] == 7
            with pytest.raises(ClusterError, match="no such thing"):
                client.call({"op": "boom"})
            with pytest.raises(ClusterError, match="unknown rpc op"):
                client.call({"op": "nope"})
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_streaming_and_socket_reuse(self):
        def stream(message):
            def frames():
                for batch in rpc.chunk_rows(range(1000), 128):
                    yield {"rows": list(batch)}
                yield {"eos": True, "count": 1000}
            return frames()

        server = rpc.RpcServer(("127.0.0.1", 0), {"nums": stream})
        rpc.serve_in_thread(server)
        client = rpc.RpcClient("127.0.0.1", server.port, retries=0)
        try:
            rows = []
            for frame in client.stream({"op": "nums"}):
                rows.extend(frame.get("rows", ()))
            assert rows == list(range(1000))
            # Fully-drained stream returns its socket to the free-list …
            assert len(client._free) == 1
            # … an abandoned one is closed, not reused (unread frames
            # would corrupt the next request on that socket).
            iterator = client.stream({"op": "nums"})
            next(iterator)
            iterator.close()
            assert len(client._free) == 0
            rows = []
            for frame in client.stream({"op": "nums"}):
                rows.extend(frame.get("rows", ()))
            assert rows == list(range(1000))
            assert len(client._free) == 1
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_unreachable_peer_raises_shard_unavailable(self):
        client = rpc.RpcClient("127.0.0.1", 1, retries=1, backoff=0.01)
        with pytest.raises(ShardUnavailableError):
            client.call({"op": "ping"})
        with pytest.raises(ShardUnavailableError):
            list(client.stream({"op": "select"}))

    def test_shutdown_severs_live_connections(self):
        server = rpc.RpcServer(("127.0.0.1", 0),
                               {"ping": lambda m: {"pong": True}})
        rpc.serve_in_thread(server)
        client = rpc.RpcClient("127.0.0.1", server.port, retries=0)
        try:
            assert client.call({"op": "ping"})["pong"] is True
            server.shutdown()
            server.server_close()
            with pytest.raises(ShardUnavailableError):
                client.call({"op": "ping"})
        finally:
            client.close()

    def test_cluster_client_validates_address_count(self, source_container,
                                                    tmp_path):
        manifest = build_cluster(source_container, tmp_path / "c", 2)
        with pytest.raises(ClusterError, match="address"):
            ClusterClient(manifest, [("127.0.0.1", 1)])

    def test_parse_address(self):
        assert parse_address("10.0.0.1:8390") == ("10.0.0.1", 8390)
        with pytest.raises(ClusterError):
            parse_address("nope")

    def test_parse_replica_set(self):
        assert parse_replica_set("10.0.0.1:8390") == [("10.0.0.1", 8390)]
        assert parse_replica_set("a:1,b:2, c:3") == [
            ("a", 1), ("b", 2), ("c", 3)]
        with pytest.raises(ClusterError):
            parse_replica_set(",")


class TestBackoff:
    def test_delay_is_capped_full_jitter(self):
        # Full jitter: uniform in [0, min(cap, base * 2^(n-1))].  The
        # cap keeps a long outage from sleeping for minutes, the jitter
        # keeps a shard restart from being met by synchronized retries.
        for attempt in range(1, 12):
            bound = min(rpc.MAX_BACKOFF, 0.05 * 2 ** (attempt - 1))
            for _ in range(50):
                delay = rpc.backoff_delay(attempt, 0.05)
                assert 0.0 <= delay <= bound
        # An overflow-scale attempt count must still respect the cap.
        assert rpc.backoff_delay(64, 0.05) <= rpc.MAX_BACKOFF

    def test_no_sleep_after_final_attempt(self, monkeypatch):
        # Regression: the retry loop used to sleep and then give up —
        # pure added latency on an already-failed call.
        sleeps = []
        monkeypatch.setattr(rpc.time, "sleep", sleeps.append)
        client = rpc.RpcClient("127.0.0.1", 1, retries=2, backoff=0.01)
        with pytest.raises(ShardUnavailableError):
            client.call({"op": "ping"})
        assert len(sleeps) == 2  # three attempts, two sleeps between
        assert all(0.0 <= delay <= rpc.MAX_BACKOFF for delay in sleeps)

    def test_no_sleep_without_retries(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(rpc.time, "sleep", sleeps.append)
        client = rpc.RpcClient("127.0.0.1", 1, retries=0)
        with pytest.raises(ShardUnavailableError):
            client.call({"op": "ping"})
        with pytest.raises(ShardUnavailableError):
            list(client.stream({"op": "select"}))
        assert sleeps == []


# --------------------------------------------------------------------------- #
# Coordinator HTTP front.
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def http_cluster(source_container, tmp_path_factory):
    directory = tmp_path_factory.mktemp("http-cluster")
    cluster = _Cluster(source_container, directory / "c", 2)
    server = build_server(cluster.service, port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield cluster, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    cluster.close()


def _http(url, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method="POST" if data else "GET",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestCoordinatorHttp:
    def test_query(self, http_cluster):
        _, base = http_cluster
        status, body = _http(base + "/query",
                             {"sparql": QUERIES[0], "limit": 5})
        assert status == 200
        assert body["variables"] == ["s", "o"]
        assert len(body["bindings"]) == 5
        assert body["incomplete"] is False

    def test_update_and_read_back(self, http_cluster):
        _, base = http_cluster
        status, body = _http(base + "/update",
                             {"insert": [[5101, 5100, 5102]]})
        assert status == 200
        assert body["inserted"] == 1
        status, body = _http(base + "/query",
                             {"sparql": "SELECT ?s ?o WHERE { ?s 5100 ?o }"})
        assert status == 200
        assert body["bindings"] == [{"s": 5101, "o": 5102}]

    def test_compact(self, http_cluster):
        _, base = http_cluster
        status, body = _http(base + "/compact", {})
        assert status == 200
        assert "shards" in body

    def test_healthz_aggregates_shards(self, http_cluster):
        _, base = http_cluster
        status, body = _http(base + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["num_shards"] == 2
        assert {"combined_epoch", "wal_lag", "num_triples"} <= set(body)
        assert len(body["shards"]) == 2

    def test_stats_and_metrics(self, http_cluster):
        _, base = http_cluster
        status, body = _http(base + "/stats")
        assert status == 200
        assert set(body) == {"cluster", "coordinator", "shards"}
        request = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(request, timeout=30) as response:
            text = response.read().decode()
        assert "repro_index_triples" in text

    def test_http_conformance(self, http_cluster, http_conformance):
        _, base = http_cluster
        http_conformance(base)

    def test_dead_shard_maps_to_503(self, source_container,
                                    tmp_path_factory):
        directory = tmp_path_factory.mktemp("http-503")
        cluster = _Cluster(source_container, directory / "c", 2)
        server = build_server(cluster.service, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            cluster.kill(1)
            status, body = _http(base + "/query",
                                 {"sparql": QUERIES[1], "cache": False})
            assert status == 503
            assert body["error"]["type"] == "ShardUnavailableError"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            cluster.close()


# --------------------------------------------------------------------------- #
# Distributed tracing: one stitched span tree per cluster query.
# --------------------------------------------------------------------------- #

def _span_names(span):
    yield span["name"]
    for child in span.get("children", ()):
        yield from _span_names(child)


def _find_span(span, name):
    if span["name"] == name:
        return span
    for child in span.get("children", ()):
        found = _find_span(child, name)
        if found is not None:
            return found
    return None


class TestClusterTracing:
    STAR = "SELECT ?b ?c WHERE { ?a 0 ?b . ?a 1 ?c }"

    def test_pushdown_profile_stitches_both_shards(self, source_container,
                                                   tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 2)
        try:
            result = cluster.service.execute(self.STAR, profile=True,
                                             use_cache=False)
            profile = result.profile
            assert profile is not None
            assert len(profile["trace_id"]) == 32
            root = profile["root"]
            assert root["name"] == "coordinator"
            names = set(_span_names(root))
            assert {"plan", "execute", "shard:0", "shard:1"} <= names
            plan = _find_span(root, "plan")
            assert plan["attrs"]["route"] == "broadcast"
            assert plan["attrs"]["shards"] == 2
            for shard_id in (0, 1):
                shard_span = _find_span(root, f"shard:{shard_id}")
                # The shard's own span tree is grafted under the RPC span:
                # its engine root, then stage spans, then operator spans.
                grafted = _find_span(shard_span, "query")
                assert grafted is not None
                execute = _find_span(grafted, "execute")
                assert execute is not None and execute["children"]
                operator = execute["children"][0]
                assert operator["name"].split(":")[0] in ("pattern", "var")
                # The graft preserves the parent/child link: the shard ran
                # under the coordinator's trace, not a fresh one.
                assert grafted["parent_span_id"] == shard_span["span_id"]
        finally:
            cluster.close()

    def test_coordinator_side_join_still_profiles(self, source_container,
                                                  tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 2)
        try:
            # A path join is not subject-star pushdownable: it executes on
            # the coordinator over the scatter-gather index, so the span
            # tree is the single-box shape under the coordinator's trace.
            result = cluster.service.execute(QUERIES[2], profile=True,
                                             use_cache=False)
            root = result.profile["root"]
            assert root["name"] == "query"
            # The coordinator parses before delegating, so the tree starts
            # at the plan stage (no parse span for a pre-parsed query).
            assert {"plan", "execute"} <= set(_span_names(root))
        finally:
            cluster.close()

    def test_best_effort_drop_is_recorded_in_profile(self, source_container,
                                                     tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 2,
                           best_effort=True)
        try:
            cluster.kill(1)
            result = cluster.service.execute(self.STAR, profile=True,
                                             use_cache=False)
            assert result.statistics["incomplete"] is True
            shard_span = _find_span(result.profile["root"], "shard:1")
            assert shard_span["attrs"]["dropped"] is True
            assert shard_span["attrs"]["error"]
        finally:
            cluster.close()

    def test_profile_does_not_change_cluster_results(self, source_container,
                                                     tmp_path):
        cluster = _Cluster(source_container, tmp_path / "c", 2)
        try:
            for query in QUERIES:
                plain = cluster.service.execute(query, use_cache=False)
                profiled = cluster.service.execute(query, profile=True,
                                                   use_cache=False)
                assert profiled.bindings == plain.bindings
        finally:
            cluster.close()

    def test_http_profile_round_trip(self, http_cluster):
        _, base = http_cluster
        status, body = _http(base + "/query",
                             {"sparql": self.STAR, "profile": True,
                              "cache": False})
        assert status == 200
        profile = body["profile"]
        names = set(_span_names(profile["root"]))
        assert {"shard:0", "shard:1"} <= names
        # One trace id covers the coordinator and every grafted shard span.
        assert len(profile["trace_id"]) == 32

    def test_coordinator_slow_log_records_stitched_profile(
            self, source_container, tmp_path):
        slow_path = tmp_path / "slow.jsonl"
        cluster = _Cluster(source_container, tmp_path / "c", 2,
                           slow_log=str(slow_path), slow_ms=0.0)
        try:
            cluster.service.execute(self.STAR, use_cache=False)
        finally:
            cluster.close()
        entries = [json.loads(line)
                   for line in slow_path.read_text().splitlines()]
        assert entries
        names = set(_span_names(entries[0]["profile"]["root"]))
        assert {"shard:0", "shard:1"} <= names
