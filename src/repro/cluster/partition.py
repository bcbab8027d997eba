"""Hash-partitioning a built index into K shard containers + a manifest.

The partitioning scheme is the classic distributed-RDF one: dictionary-
encoded triples are routed by **subject hash** into K primary shards, so
any subject-rooted lookup — and any star join around one subject —
touches exactly one shard.  Because object- and predicate-rooted lookups
would otherwise degrade to broadcasts, every shard also gets a
**replica** container holding the triples whose *object* hashes to it
(stored in an object-rooted layout), keeping ``(?, ?, o)`` point lookups
single-shard and the wcoj leapfrog's per-pattern probes cheap in both
directions.  Primary and replica are two complete, disjoint partitions
of the same triple set; a query pattern is routed through exactly one of
them, so nothing is ever double-counted.

Routing must be stable across processes, machines and Python versions,
so the hash is a fixed **splitmix64** finalizer over the component ID —
never ``hash()``, which is salted per process.

Every shard container is a self-sufficient ordinary index file (it
carries the full dictionary and shard-local planner statistics), so the
existing single-box tooling — ``repro query``, ``repro serve``,
``repro info``, ``repro verify`` — works on a shard unchanged.  A
``cluster-meta.repro`` container carries the dictionary and the *global*
planner statistics for the coordinator.

The **manifest** (``manifest.json``) names every container, records the
partitioning scheme and counts, and is signed with HMAC-SHA256 over its
canonical JSON form.  :func:`read_manifest` refuses an unsigned or
tampered manifest — a coordinator must never scatter queries over a
shard map it cannot trust.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import build_index
from repro.errors import ClusterError, StorageError
from repro.queries.planner import QueryPlanner
from repro.rdf.triples import TripleStore
from repro.storage.container import atomic_write, read_container, write_container
from repro.storage.index_io import (
    SECTION_DICTIONARY,
    SECTION_META,
    SECTION_STATS,
    _dump_meta,
    _dump_planner_stats,
    _load_meta,
    _load_planner_stats,
    load_index,
)
from repro.storage.codecs import dumps_object, loads_object

MANIFEST_VERSION = 2
#: Manifest versions this build can read.  Version 1 (PR 7) predates
#: replication and topology versioning; it normalises to ``num_replicas=1``
#: and topology ``version=1`` on read.
SUPPORTED_MANIFEST_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
META_NAME = "cluster-meta.repro"
PARTITION_SCHEME = "splitmix64-mod"

#: The default signing key.  HMAC with a published key is an integrity
#: check (it catches corruption and accidental edits); operators who want
#: tamper evidence pass their own key (``--key`` / ``REPRO_CLUSTER_KEY``).
DEFAULT_KEY = "repro-cluster-manifest-v1"


def manifest_key(key: Optional[str] = None) -> bytes:
    """Resolve the signing key: explicit > ``REPRO_CLUSTER_KEY`` > default."""
    if key is None:
        key = os.environ.get("REPRO_CLUSTER_KEY") or DEFAULT_KEY
    return key.encode("utf-8")


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a fixed, well-mixed 64-bit permutation."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def shard_of(component_id: int, num_shards: int) -> int:
    """The shard owning ``component_id`` under the fixed routing hash."""
    return splitmix64(int(component_id)) % num_shards


# --------------------------------------------------------------------------- #
# Manifest.
# --------------------------------------------------------------------------- #

def _canonical(manifest: dict) -> bytes:
    return json.dumps(manifest, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def sign_manifest(manifest: dict, key: Optional[str] = None) -> str:
    return hmac.new(manifest_key(key), _canonical(manifest),
                    hashlib.sha256).hexdigest()


def write_manifest(path, manifest: dict, key: Optional[str] = None) -> None:
    document = {"manifest": manifest,
                "signature": sign_manifest(manifest, key)}
    with atomic_write(path) as handle:
        handle.write((json.dumps(document, indent=2) + "\n").encode("utf-8"))


def read_manifest(path, key: Optional[str] = None) -> dict:
    """Load and verify a manifest; raises :class:`ClusterError` when the
    signature does not match (wrong key, or a tampered/corrupt file)."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ClusterError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ClusterError(f"{path}: not a shard manifest")
    manifest = document.get("manifest")
    signature = document.get("signature")
    if not isinstance(manifest, dict) or not isinstance(signature, str):
        raise ClusterError(f"{path}: not a shard manifest")
    expected = sign_manifest(manifest, key)
    if not hmac.compare_digest(expected, signature):
        raise ClusterError(
            f"{path}: manifest signature mismatch — wrong key or the "
            f"manifest was modified after signing")
    version = int(manifest.get("manifest_version", 0))
    if version not in SUPPORTED_MANIFEST_VERSIONS:
        raise ClusterError(
            f"{path}: manifest version {version} not supported "
            f"(this build reads versions {SUPPORTED_MANIFEST_VERSIONS})")
    # Normalise version-1 manifests to the version-2 vocabulary so every
    # consumer sees one shape.
    manifest.setdefault("num_replicas", 1)
    manifest.setdefault("version", 1)
    return manifest


# --------------------------------------------------------------------------- #
# Cluster meta container (dictionary + global planner stats).
# --------------------------------------------------------------------------- #

def _write_cluster_meta(path, dictionary, planner_stats, meta: dict) -> int:
    sections: Dict[str, bytes] = {SECTION_META: _dump_meta(meta)}
    if dictionary is not None:
        sections[SECTION_DICTIONARY] = dumps_object(dictionary)
    if planner_stats is not None:
        sections[SECTION_STATS] = _dump_planner_stats(planner_stats)
    return write_container(path, sections)


def load_cluster_meta(path) -> Tuple[Optional[object], Optional[dict], dict]:
    """``(dictionary, planner_stats, meta)`` from ``cluster-meta.repro``."""
    sections = read_container(path)
    meta = _load_meta(sections, str(path))
    if meta.get("kind") != "cluster-meta":
        raise StorageError(f"{path}: not a cluster meta container")
    dictionary = (loads_object(sections[SECTION_DICTIONARY])
                  if SECTION_DICTIONARY in sections else None)
    planner_stats = (_load_planner_stats(sections[SECTION_STATS], str(path))
                     if SECTION_STATS in sections else None)
    return dictionary, planner_stats, meta


# --------------------------------------------------------------------------- #
# Partitioning.
# --------------------------------------------------------------------------- #

def _shard_save(triples: List[Tuple[int, int, int]], path, layout: str,
                dictionary, aligned: bool) -> dict:
    store = TripleStore.from_triples(triples)
    index = build_index(store, layout)
    stats = QueryPlanner.cardinalities_from_store(store)
    from repro.storage import save_index
    size = save_index(index, path, dictionary=dictionary,
                      planner_stats=stats, aligned=aligned)
    return {"num_triples": int(index.num_triples), "bytes": int(size)}


def _partition_triples(triples, num_shards: int, with_replicas: bool
                       ) -> Tuple[List[List[Tuple[int, int, int]]],
                                  List[List[Tuple[int, int, int]]], int]:
    """Route an iterable of triples into per-shard primary/replica lists."""
    primary: List[List[Tuple[int, int, int]]] = [[] for _ in range(num_shards)]
    replica: List[List[Tuple[int, int, int]]] = [[] for _ in range(num_shards)]
    total = 0
    for triple in triples:
        total += 1
        primary[shard_of(triple[0], num_shards)].append(triple)
        if with_replicas:
            replica[shard_of(triple[2], num_shards)].append(triple)
    return primary, replica, total


def _write_shards(out: Path, primary, replica, num_shards: int, layout: str,
                  replica_layout: str, with_replicas: bool, dictionary,
                  aligned: bool) -> List[dict]:
    """Write every shard container; returns the manifest ``shards`` list.

    A shard that received no triples on a side still gets a valid (empty)
    container: skewed small datasets with a large K legitimately leave
    hash buckets empty, and an empty shard answers every pattern with
    zero rows — exactly the right contribution to a scatter.
    """
    shards = []
    for shard in range(num_shards):
        primary_name = f"shard-{shard:03d}.repro"
        primary_info = _shard_save(primary[shard], out / primary_name,
                                   layout, dictionary, aligned)
        entry = {
            "id": shard,
            "primary": primary_name,
            "replica": None,
            "num_triples": primary_info["num_triples"],
            "replica_num_triples": 0,
        }
        if with_replicas:
            replica_name = f"shard-{shard:03d}-replica.repro"
            replica_info = _shard_save(replica[shard], out / replica_name,
                                       replica_layout, dictionary, aligned)
            entry["replica"] = replica_name
            entry["replica_num_triples"] = replica_info["num_triples"]
        shards.append(entry)
    return shards


def build_cluster(source_path, out_dir, num_shards: int,
                  layout: Optional[str] = None,
                  replica_layout: str = "2to",
                  key: Optional[str] = None,
                  aligned: bool = True,
                  mmap: bool = False,
                  num_replicas: int = 1) -> dict:
    """Partition a built index container into ``num_shards`` shard files.

    Writes, under ``out_dir``: ``shard-NNN.repro`` (subject-partitioned
    primary, in ``layout`` — default: the source's layout),
    ``shard-NNN-replica.repro`` (object-partitioned POS-style replica, in
    ``replica_layout``; ``"none"`` skips replicas and object-routed
    lookups broadcast instead), ``cluster-meta.repro`` and a signed
    ``manifest.json``.  Returns the manifest.

    ``num_replicas`` records how many serving processes each shard's
    containers are assigned to (R-way process replication over shared
    storage): replica 0 is the shard's leader (writable, WAL + epoch
    publication), replicas 1..R-1 are read-only followers tailing the
    leader's WAL.  The containers themselves are written once — the
    processes share them.

    A shard that receives no triples on a side gets a valid empty
    container (small or skewed data with a large K is legitimate).
    """
    if num_shards < 1:
        raise ClusterError(f"num_shards must be >= 1, got {num_shards}")
    if num_replicas < 1:
        raise ClusterError(f"num_replicas must be >= 1, got {num_replicas}")
    with_replicas = replica_layout not in (None, "none")
    loaded = load_index(source_path, mmap=mmap)
    if loaded.dictionary is None:
        raise ClusterError(
            f"{source_path}: container has no dictionary section; "
            f"partitioning needs the full dictionary to replicate it "
            f"into every shard")
    index = loaded.queryable()
    layout = layout or loaded.meta.get("layout", "2tp")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    primary, replica, total = _partition_triples(
        index.select((None, None, None)), num_shards, with_replicas)
    shards = _write_shards(out, primary, replica, num_shards, layout,
                           replica_layout, with_replicas, loaded.dictionary,
                           aligned)

    global_stats = loaded.planner_stats
    if global_stats is None:
        # Recompute from the full data so the coordinator can plan.
        store = TripleStore.from_triples(index.select((None, None, None)))
        global_stats = QueryPlanner.cardinalities_from_store(store)
    _write_cluster_meta(out / META_NAME, loaded.dictionary, global_stats,
                        {"kind": "cluster-meta", "num_shards": num_shards,
                         "num_triples": total})

    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "partition": {"scheme": PARTITION_SCHEME,
                      "primary_key": "subject", "replica_key": "object"},
        "num_shards": num_shards,
        "num_replicas": int(num_replicas),
        "version": 1,
        "num_triples": total,
        "layout": layout,
        "replica_layout": replica_layout,
        "meta_container": META_NAME,
        "shards": shards,
        "source": str(source_path),
    }
    write_manifest(out / MANIFEST_NAME, manifest, key)
    return manifest


# --------------------------------------------------------------------------- #
# Rebalancing.
# --------------------------------------------------------------------------- #

def _shard_triples_with_wal(path) -> Iterator[Tuple[int, int, int]]:
    """Every triple a shard container holds, WAL tail included.

    Loads the container (base + any persisted delta) and folds in the
    shard's WAL file if one exists beside it — the same replay the shard
    server performs on restart, so rebalancing sees exactly the
    acknowledged state.
    """
    from repro.dynamic.delta import DeltaState
    from repro.dynamic.index import SnapshotIndex
    from repro.storage.wal import WalReader

    loaded = load_index(path)
    base = loaded.index
    delta = loaded.delta or DeltaState.empty()
    wal_path = Path(str(path) + ".wal")
    if wal_path.exists():
        for inserts, deletes in WalReader(wal_path).read():
            delta, _, _ = delta.apply(base, inserts=inserts, deletes=deletes,
                                      validate=False)
    return SnapshotIndex(base, delta, epoch=0).select((None, None, None))


def rebalance_cluster(cluster_dir, num_shards: int,
                      key: Optional[str] = None,
                      aligned: bool = True,
                      num_replicas: Optional[int] = None) -> dict:
    """Repartition an existing cluster directory to ``num_shards`` shards.

    An offline, manifest-versioned move: every current shard's primary
    container is loaded (with its WAL tail folded in, so no acknowledged
    write is lost), the union is re-routed under the same splitmix64
    scheme, fresh shard containers are written, and a new manifest is
    signed with its topology ``version`` incremented.  Stale WAL/epoch
    sidecar files and out-of-range shard containers are removed — the
    folded-in WALs must not be replayed over the rebuilt containers.

    Shard servers must be stopped while rebalancing (it rewrites the
    files under them); ``repro verify`` checks the result.
    """
    if num_shards < 1:
        raise ClusterError(f"num_shards must be >= 1, got {num_shards}")
    cluster = Path(cluster_dir)
    manifest = read_manifest(cluster / MANIFEST_NAME, key)
    with_replicas = manifest.get("replica_layout") not in (None, "none")
    layout = manifest.get("layout", "2tp")
    replica_layout = manifest.get("replica_layout", "none")
    if num_replicas is None:
        num_replicas = int(manifest.get("num_replicas", 1))
    if num_replicas < 1:
        raise ClusterError(f"num_replicas must be >= 1, got {num_replicas}")

    # Primaries partition the triple set, so chaining them (WAL included)
    # reproduces the full data exactly once.
    def all_triples():
        for entry in manifest["shards"]:
            yield from _shard_triples_with_wal(cluster / entry["primary"])

    primary, replica, total = _partition_triples(
        all_triples(), num_shards, with_replicas)

    dictionary, global_stats, _ = load_cluster_meta(
        cluster / manifest.get("meta_container", META_NAME))
    if dictionary is None:
        raise ClusterError(
            f"{cluster}: cluster meta container has no dictionary")

    # Remove every stale sidecar first: the old WALs are folded into the
    # new containers and must never be replayed again.
    for pattern in ("shard-*.repro.wal", "shard-*.repro.epoch"):
        for stale in cluster.glob(pattern):
            stale.unlink()

    shards = _write_shards(cluster, primary, replica, num_shards, layout,
                           replica_layout, with_replicas, dictionary, aligned)

    # Drop containers beyond the new shard count (shrinking K).
    for stale in cluster.glob("shard-*.repro"):
        if not any(stale.name in (entry["primary"], entry.get("replica"))
                   for entry in shards):
            stale.unlink()

    store = TripleStore.from_triples(
        triple for bucket in primary for triple in bucket)
    global_stats = QueryPlanner.cardinalities_from_store(store)
    _write_cluster_meta(cluster / META_NAME, dictionary, global_stats,
                        {"kind": "cluster-meta", "num_shards": num_shards,
                         "num_triples": total})

    new_manifest = dict(manifest)
    new_manifest.update({
        "manifest_version": MANIFEST_VERSION,
        "num_shards": num_shards,
        "num_replicas": int(num_replicas),
        "version": int(manifest.get("version", 1)) + 1,
        "num_triples": total,
        "layout": layout,
        "replica_layout": replica_layout,
        "shards": shards,
    })
    write_manifest(cluster / MANIFEST_NAME, new_manifest, key)
    return new_manifest
