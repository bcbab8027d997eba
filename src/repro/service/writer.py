"""The single writer behind every replicated deployment shape.

A :class:`Writer` owns one writable
:class:`~repro.service.engine.QueryService` (WAL-backed, compactions
persisted back to the container), the epoch document its followers tail
(:mod:`repro.dynamic.follower`) and the generation that document
carries.  Every write runs apply → bump the generation if a compaction
persisted → publish → return, under one lock, so a caller that
acknowledges after :meth:`Writer.update` returns has made the write
durable in the WAL *and* visible to every follower that refreshes.

The pool's writer process (:mod:`repro.service.pool`) holds one; a shard
leader (:mod:`repro.cluster.shard`) holds one per container side.

**Reopen rule.**  A writer that opens over an existing epoch document
publishes ``generation + 1``.  The previous writer may have persisted a
compaction (re-pointing the container, resetting the WAL) and died
before publishing it, so a follower's replay position can no longer be
trusted; the new generation makes every follower re-map the container
and replay the WAL from the start — O(header) under ``--mmap``, once
per writer restart — and keeps ``(generation << 32) + epoch`` above
everything the old writer ever published.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence, Tuple

from repro.dynamic.follower import (
    combined_epoch,
    read_epoch_document,
    write_epoch_document,
)
from repro.service.engine import QueryService

__all__ = ["Writer"]


class Writer:
    """Apply writes to one container and publish its epoch document.

    ``options`` forward to :meth:`QueryService.from_file` (engine, cache
    sizes, ``compaction_ratio``, ``mmap``, ...).
    """

    def __init__(self, index_path, wal_path, epoch_path, **options):
        self.wal_path = str(wal_path)
        self.epoch_path = str(epoch_path)
        self.service = QueryService.from_file(
            index_path, writable=True, wal_path=self.wal_path, **options)
        self._lock = threading.Lock()
        previous = read_epoch_document(self.epoch_path)
        self.generation = (0 if previous is None
                           else int(previous.get("generation", 0)) + 1)
        #: The last document written to :attr:`epoch_path`.
        self.published: dict = {}
        self._publish()

    @property
    def combined_epoch(self) -> int:
        """The published ``(generation << 32) + epoch`` point."""
        return combined_epoch(self.published["generation"],
                              self.published["epoch"])

    def update(self, inserts: Sequence[Tuple[int, int, int]] = (),
               deletes: Sequence[Tuple[int, int, int]] = ()):
        """Apply one batch (WAL first) and publish before returning."""
        with self._lock:
            result = self.service.update(inserts=inserts, deletes=deletes)
            self._publish(result.compaction)
            return result

    def compact(self):
        """Fold the delta into the container and publish before returning."""
        with self._lock:
            result = self.service.compact()
            self._publish(result)
            return result

    def close(self) -> None:
        self.service.close()

    def _publish(self, compaction=None) -> None:
        # Only a *persisted* compaction re-points the container and resets
        # the WAL; a new generation then tells followers to re-map.  If the
        # persist failed, the WAL still holds the full history and the
        # followers' merged views stay correct as they are.
        if (compaction is not None and compaction.compacted
                and self.service.persist_error is None):
            self.generation += 1
        stats = self.service.index.delta_statistics()
        self.published = {
            "generation": self.generation,
            "epoch": int(stats.get("epoch", 0)),
            "wal": self.wal_path,
            "wal_records": int(stats.get("wal_records", 0)),
            "pid": os.getpid(),
        }
        write_epoch_document(self.epoch_path, self.published)
