"""Sharded-cluster serving: partitioner, shard servers, coordinator.

The subsystem that turns the single-box server into a horizontally
scalable system (see ``docs/ARCHITECTURE.md``, "Cluster topology"):

* :mod:`repro.cluster.partition` — hash-partition a built container into
  K subject-routed primary shards + object-routed replicas, with a
  signed ``manifest.json``;
* :mod:`repro.cluster.rpc` — the unary + streaming RPC every cluster
  process speaks, over the :mod:`repro.net` framing;
* :mod:`repro.cluster.shard` — one shard's serve stack behind that RPC
  (``repro shard``);
* :mod:`repro.cluster.client` / :mod:`repro.cluster.coordinator` — the
  scatter-gather coordinator and its HTTP front (``repro coordinator``).

This package root stays import-light (framing + partitioning only), so
importing it does not pull in the whole serving stack.  Import the
heavier submodules explicitly.
"""

from repro.cluster.partition import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    META_NAME,
    build_cluster,
    load_cluster_meta,
    read_manifest,
    shard_of,
    splitmix64,
    write_manifest,
)
from repro.cluster.rpc import (
    FRAME,
    MAX_FRAME_BYTES,
    RpcClient,
    RpcServer,
    read_frame,
    recv_exactly,
    send_frame,
)

__all__ = [
    "MANIFEST_NAME", "MANIFEST_VERSION", "META_NAME",
    "build_cluster", "load_cluster_meta", "read_manifest",
    "shard_of", "splitmix64", "write_manifest",
    "FRAME", "MAX_FRAME_BYTES", "RpcClient", "RpcServer",
    "read_frame", "recv_exactly", "send_frame",
]
