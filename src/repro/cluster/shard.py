"""One shard of the cluster: the single-box serve stack behind an RPC.

A :class:`ShardServer` serves one shard's **primary** (subject-routed)
and **replica** (object-routed) containers.  Since PR 9 a shard may be
served by R processes over the same files — ``replica_index`` selects
the process's role:

**Leader** (``replica_index == 0``)
    one :class:`~repro.service.writer.Writer` per container side — the
    same writer the pre-fork pool runs — each with its own shard-local
    WAL, plan/result caches, compaction trigger and latency statistics.
    Every write is applied WAL-first and the side's epoch document
    (``<container>.epoch``) is published *before* the acknowledgement;
    that document is the WAL shipping channel to the followers.

**Follower** (``replica_index > 0``)
    read-only services over :class:`~repro.dynamic.follower.EpochFollower`
    views of the same containers, refreshed at the start of every read:
    the follower stats the leader's epoch document and tail-replays the
    acknowledged WAL records through :class:`~repro.storage.wal.WalReader`
    — exactly the pre-fork pool's worker replication path.  Because the
    leader publishes before acknowledging, an acknowledged write is
    always readable from any follower that refreshed after the ack.
    Writes and compactions answer :class:`~repro.errors.NotLeaderError`.
    The ``promote`` op turns a follower into the leader: it reopens the
    writable stack over the shared container + WAL (replaying every
    acknowledged record) under a new generation, so a coordinator that
    confirmed the old leader dead can fail writes over without losing an
    acknowledged triple.

The :mod:`repro.cluster.rpc` surface the coordinator talks to:

``ping`` / ``health`` / ``stats``
    liveness (now with ``role``), ``combined_epoch`` + WAL state,
    aggregated service reports.
``select`` (streaming)
    one triple pattern against the primary or replica side — the
    coordinator's distributed-join probe path.  Rows stream lazily off
    the snapshot, so an abandoned coordinator stream stops the scan.
``query`` (streaming)
    a whole dictionary-encoded BGP executed locally (the coordinator's
    star-pushdown path) through ``QueryService.execute`` — plan cache,
    result cache and engine selection included.
``update`` / ``compact`` / ``promote``
    routed writes (leader only): the coordinator sends each shard
    exactly the triples it owns, split into a primary and a replica
    portion; both are applied WAL-first under one lock.  Updates are
    idempotent (set semantics), so a coordinator retry after an
    ambiguous failure is safe.

Epoch publication is :mod:`repro.service.writer`'s: one atomically
replaced JSON document per container, ``generation`` bumped when a
persisted compaction re-points the container and on every leader open.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterator, List, Optional

from repro.cluster import rpc
from repro.dynamic.follower import EpochFollower
from repro.errors import ClusterError, NotLeaderError
from repro.service.engine import QueryService
from repro.service.writer import Writer
from repro import wire


class ShardServer:
    """Serve one shard's primary + replica containers over the cluster RPC.

    ``replica_path=None`` runs a primary-only shard (K=1 clusters and
    tests); object-routed lookups then fall back to the primary side.
    ``replica_index`` picks the process role: 0 is the shard leader
    (writable), anything higher a read-only follower over the same
    files.  ``service_options`` forward to the underlying
    ``QueryService``s.
    """

    def __init__(self, shard_id: int, primary_path, replica_path=None,
                 host: str = "127.0.0.1", port: int = 0,
                 compaction_ratio: Optional[float] = None,
                 mmap: bool = True, quiet: bool = True,
                 replica_index: int = 0,
                 service_options: Optional[dict] = None):
        self.shard_id = int(shard_id)
        self.primary_path = str(primary_path)
        self.replica_path = str(replica_path) if replica_path else None
        self.replica_index = int(replica_index)
        self.quiet = quiet
        self._options = dict(service_options or {})
        self._compaction_ratio = compaction_ratio
        self._mmap = mmap
        self.primary: QueryService
        self.replica: Optional[QueryService] = None
        #: Leader: one Writer per side, keyed "primary" / "replica".
        self._writers: Dict[str, Writer] = {}
        #: Follower: the epoch-following views behind each side's service.
        self._followers: List[EpochFollower] = []
        # One lock serialises apply + publish + ack across both sides
        # (and, on a follower, a promotion against everything else).
        self._write_lock = threading.Lock()
        if self.is_leader:
            self._open_leader()
        else:
            self._open_follower()
        self._server = rpc.RpcServer((host, port), {
            "ping": self._op_ping,
            "health": self._op_health,
            "stats": self._op_stats,
            "select": self._op_select,
            "query": self._op_query,
            "update": self._op_update,
            "compact": self._op_compact,
            "promote": self._op_promote,
        })
        self.host = host
        self.port = self._server.port
        self._thread: Optional[threading.Thread] = None

    @property
    def is_leader(self) -> bool:
        return self.replica_index == 0

    @property
    def role(self) -> str:
        return "leader" if self.is_leader else "follower"

    # ------------------------------------------------------------------ #
    # Role stacks.
    # ------------------------------------------------------------------ #

    def _containers(self) -> Dict[str, str]:
        """Container path per side this shard serves."""
        sides = {"primary": self.primary_path}
        if self.replica_path is not None:
            sides["replica"] = self.replica_path
        return sides

    def _open_leader(self) -> None:
        """Open one Writer per side: WAL-replaying services that publish
        a new generation, so combined epochs stay monotonic across
        restarts and promotions."""
        self._writers = {
            side: Writer(path, path + ".wal", path + ".epoch",
                         compaction_ratio=self._compaction_ratio,
                         mmap=self._mmap, **self._options)
            for side, path in self._containers().items()}
        self._followers = []
        self.primary = self._writers["primary"].service
        if "replica" in self._writers:
            self.replica = self._writers["replica"].service

    def _open_follower(self) -> None:
        """Open read-only services over epoch-following views of the
        leader's containers (the WAL-shipping consumer side)."""
        services = {side: QueryService.follow(path, path + ".epoch",
                                              mmap=self._mmap,
                                              **self._options)
                    for side, path in self._containers().items()}
        self.primary = services["primary"]
        self.replica = services.get("replica")
        self._followers = [service.index for service in services.values()]

    def _refresh(self) -> None:
        """Catch a follower up with the leader's published epoch documents
        (one ``stat`` each when nothing changed); no-op on the leader."""
        for follower in self._followers:
            follower.refresh()

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        if not self.quiet:
            print(f"shard {self.shard_id} ({self.role}) serving on "
                  f"{self.host}:{self.port} (pid {os.getpid()})", flush=True)
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "ShardServer":
        """Serve on a background thread (tests and embedded clusters)."""
        self._thread = rpc.serve_in_thread(self._server)
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for service in (self.primary, self.replica):
            if service is not None:
                service.close()

    def combined_epoch(self) -> int:
        if self._writers:
            return self._writers["primary"].combined_epoch
        return int(self.primary.index.combined_epoch)

    # ------------------------------------------------------------------ #
    # Read ops.
    # ------------------------------------------------------------------ #

    def _op_ping(self, message: dict) -> dict:
        return {"pid": os.getpid(), "shard": self.shard_id,
                "role": self.role, "replica_index": self.replica_index}

    def _op_health(self, message: dict) -> dict:
        self._refresh()
        report = {
            "shard": self.shard_id,
            "status": "ok",
            "role": self.role,
            "replica_index": self.replica_index,
            "combined_epoch": self.combined_epoch(),
            "num_triples": int(self.primary.index.num_triples),
            "has_replica": self.replica is not None,
        }
        if self._writers:
            published = self._writers["primary"].published
            report["generation"] = published["generation"]
            report["epoch"] = published["epoch"]
            # The leader applies its own writes synchronously, so its
            # view never trails the WAL: lag is by construction zero.
            report["wal_lag"] = 0
            report["wal_records"] = published["wal_records"]
        else:
            follower = self.primary.index
            report["generation"] = follower.generation
            report["epoch"] = follower.epoch
            # Published records this follower has not applied yet; the
            # publish-before-ack contract plus refresh-per-read keeps it
            # at zero on every served request.
            report["wal_lag"] = int(follower.wal_lag())
            report["wal_records"] = 0
        return report

    def _op_stats(self, message: dict) -> dict:
        self._refresh()
        payload: Dict[str, Any] = {
            "shard": self.shard_id,
            "role": self.role,
            "primary": self.primary.statistics(),
        }
        if self.replica is not None:
            payload["replica"] = self.replica.statistics()
        return payload

    def _side(self, name: str) -> QueryService:
        if name == "replica":
            if self.replica is None:
                raise ClusterError(
                    f"shard {self.shard_id} has no replica container")
            return self.replica
        if name != "primary":
            raise ClusterError(f"unknown shard side {name!r}")
        return self.primary

    def _op_select(self, message: dict) -> Iterator[dict]:
        raw = message.get("pattern")
        if not isinstance(raw, (list, tuple)) or len(raw) != 3:
            raise ClusterError(f"malformed select pattern {raw!r}")
        pattern = tuple(None if term is None else int(term) for term in raw)
        self._refresh()
        service = self._side(str(message.get("side", "primary")))
        index = service.index
        factory = getattr(index, "snapshot", None)
        snapshot = factory() if factory is not None else index

        def frames() -> Iterator[dict]:
            count = 0
            for batch in rpc.chunk_rows(snapshot.select(pattern)):
                count += len(batch)
                yield {"rows": wire.encode_triples(batch)}
            yield {"eos": True, "count": count,
                   "epoch": self.combined_epoch()}
        return frames()

    def _op_query(self, message: dict) -> Iterator[dict]:
        query = wire.decode_query(message.get("query", {}))
        limit = message.get("limit")
        offset = int(message.get("offset", 0))
        timeout = message.get("timeout")
        engine = message.get("engine")
        use_cache = bool(message.get("use_cache", True))
        # Trace context rides the request frame (see repro.wire); the
        # shard's spans then share the coordinator's trace id, with the
        # coordinator's per-shard span as their parent.
        profile = bool(message.get("profile", False))
        trace = message.get("trace")
        if not isinstance(trace, dict):
            trace = None
        self._refresh()
        result = self.primary.execute(
            query, limit=None if limit is None else int(limit),
            offset=offset, timeout=timeout, engine=engine,
            use_cache=use_cache, profile=profile, trace=trace)

        def frames() -> Iterator[dict]:
            for batch in rpc.chunk_rows(result.bindings):
                yield {"rows": [
                    {wire.variable_name(v): int(value)
                     for v, value in row.items()} for row in batch]}
            trailer = {"eos": True, "count": len(result.bindings),
                       "has_more": result.has_more,
                       "cached": result.cached,
                       "statistics": dict(result.statistics),
                       "epoch": self.combined_epoch()}
            if result.profile is not None:
                trailer["profile"] = result.profile
            yield trailer
        return frames()

    # ------------------------------------------------------------------ #
    # Write ops.
    # ------------------------------------------------------------------ #

    def _require_leader(self, op: str) -> None:
        if not self.is_leader:
            raise NotLeaderError(
                f"shard {self.shard_id} replica {self.replica_index} is a "
                f"read-only follower; send {op!r} to the leader (or promote "
                f"this replica once the leader is confirmed dead)")

    def _op_update(self, message: dict) -> dict:
        self._require_leader("update")
        with self._write_lock:
            reply: Dict[str, Any] = {"shard": self.shard_id}
            for side, writer in self._writers.items():
                portion = message.get(side) or {}
                inserts = [tuple(t) for t in portion.get("insert", [])]
                deletes = [tuple(t) for t in portion.get("delete", [])]
                if inserts or deletes:
                    # The Writer publishes before returning: once the
                    # coordinator sees the reply the write is WAL-durable
                    # and epoch-visible on every follower of this shard.
                    reply[side] = writer.update(inserts=inserts,
                                                deletes=deletes).to_json()
            reply["combined_epoch"] = self.combined_epoch()
        return reply

    def _op_compact(self, message: dict) -> dict:
        self._require_leader("compact")
        with self._write_lock:
            reply: Dict[str, Any] = {"shard": self.shard_id}
            for side, writer in self._writers.items():
                reply[side] = writer.compact().to_json()
            reply["combined_epoch"] = self.combined_epoch()
        return reply

    def _op_promote(self, message: dict) -> dict:
        """Become this shard's leader (idempotent).

        Safe when the old leader is dead: the writable stack reopens over
        the shared container + WAL, replaying every acknowledged record,
        and publishes a new generation.  The caller (the coordinator's
        write failover) only promotes after the configured leader failed
        its whole retry budget.  The old follower views are simply
        dropped — in-flight readers keep their pinned snapshots.
        """
        with self._write_lock:
            if not self.is_leader:
                self._open_leader()
                self.replica_index = 0
                promoted = True
            else:
                promoted = False
            return {"shard": self.shard_id, "role": self.role,
                    "promoted": promoted,
                    "combined_epoch": self.combined_epoch()}
