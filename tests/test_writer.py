"""The epoch-publishing :class:`~repro.service.writer.Writer`.

In-process, no sockets: a :class:`Writer` and a follower service
(:meth:`QueryService.follow`) over the same container, WAL and epoch
document — the pool writer/worker and shard leader/follower pairs with
the transport taken away.
"""

import json

import pytest

from repro.core.builder import build_index
from repro.errors import StorageError
from repro.rdf.triples import TripleStore
from repro.service import QueryService
from repro.service.writer import Writer
from repro.storage import save_index

BASE = sorted({(i, 0, (i * 7 + 1) % 97) for i in range(97)})


@pytest.fixture
def files(tmp_path):
    index_path = tmp_path / "idx.bin"
    save_index(build_index(TripleStore.from_triples(BASE), "2tp"),
               index_path, aligned=True)
    return index_path, tmp_path / "idx.wal", tmp_path / "idx.wal.epoch"


def _document(path):
    return json.loads(path.read_text())


def test_every_reopen_bumps_the_generation(files):
    combined = []
    for _ in range(3):
        writer = Writer(*files, mmap=True)
        writer.update(inserts=[(500, 7, 501)])
        combined.append(writer.combined_epoch)
        writer.close()
    assert [value >> 32 for value in combined] == [0, 1, 2]
    assert combined == sorted(set(combined))


def test_only_a_persisted_compaction_bumps_the_generation(files,
                                                         monkeypatch):
    writer = Writer(*files, mmap=True)
    follower = QueryService.follow(files[0], files[2]).index
    try:
        writer.update(inserts=[(500, 7, 501)])
        assert writer.compact().compacted
        assert (writer.published["generation"],
                writer.published["wal_records"]) == (1, 0)
        assert _document(files[2]) == writer.published
        follower.refresh()
        assert follower.generation == 1
        assert follower.contains((500, 7, 501))

        def failing_save(*args, **kwargs):
            raise StorageError("disk full")

        writer.update(inserts=[(502, 7, 503)])
        monkeypatch.setattr(type(writer.service.index), "save", failing_save)
        assert writer.compact().compacted
        assert writer.service.persist_error is not None
        # The WAL still holds the history, so followers need no re-map.
        assert (writer.published["generation"],
                writer.published["wal_records"]) == (1, 1)
    finally:
        writer.close()


def test_ack_after_crash_between_persist_and_publish_is_visible(files):
    """A writer persists a compaction (container re-pointed, WAL reset)
    and dies before publishing it; its successor's first ack must still
    reach a follower that replayed the old WAL."""
    writer = Writer(*files, mmap=True)
    follower = QueryService.follow(files[0], files[2]).index
    for i in range(5):
        writer.update(inserts=[(500 + i, 7, 600 + i)])
    follower.refresh()
    assert follower.wal_lag() == 0
    assert writer.service.compact().compacted  # persisted, not published
    writer.close()

    writer = Writer(*files, mmap=True)
    try:
        writer.update(inserts=[(900, 7, 901)])
        follower.refresh()
        assert follower.contains((900, 7, 901))
        assert all(follower.contains((500 + i, 7, 600 + i))
                   for i in range(5))
        assert follower.wal_lag() == 0
    finally:
        writer.close()
