"""Tests for the dynamic update subsystem.

Covers the delta store's set semantics and pattern lookups, the merged
overlay (``select`` and the seekable-cursor protocol) across all four index
layouts, WAL durability including a real SIGKILL crash-recovery run, the
container's ``delta`` section, and compaction equivalence.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.builder import IndexBuilder
from repro.core.patterns import PatternKind, TriplePattern, reference_select
from repro.core.trie import ArrayCursor
from repro.dynamic import (
    DeltaState,
    DynamicIndex,
    MergedCursor,
    normalize_triple,
)
from repro.errors import StorageError, UpdateError
from repro.queries.planner import execute_bgp
from repro.queries.sparql import (
    BasicGraphPattern,
    SparqlQuery,
    TriplePatternTemplate,
)
from repro.rdf.triples import TripleStore
from repro.storage import (file_info, load_index, load_object, save_index,
                           save_object)
from repro.storage.wal import WriteAheadLog

LAYOUTS = ("3t", "cc", "2tp", "2to")

BASE_TRIPLES = [
    (0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 0), (2, 0, 0),
    (2, 1, 1), (3, 0, 3), (3, 2, 1), (0, 2, 3),
]


def build_store():
    return TripleStore.from_triples(BASE_TRIPLES, densify=True)


def solution_bag(results):
    return sorted(tuple(sorted(binding.items())) for binding in results)


# --------------------------------------------------------------------------- #
# Delta state.
# --------------------------------------------------------------------------- #

class TestDeltaState:
    def test_normalize_triple_rejects_bad_shapes(self):
        for bad in ((1, 2), (1, 2, 3, 4), (1, 2, "x"), (1, 2, -1),
                    (1, 2, True), "abc", (1, 2, 3.5)):
            with pytest.raises(UpdateError):
                normalize_triple(bad)
        assert normalize_triple((1, 2, 3)) == (1, 2, 3)
        assert normalize_triple([4, 5, 6]) == (4, 5, 6)

    def test_insert_delete_set_semantics(self):
        base = IndexBuilder(build_store()).build("2tp")
        state = DeltaState.empty()
        # Inserting a base triple is a no-op; a fresh one applies.
        state, ni, nd = state.apply(base, inserts=[(0, 0, 1), (7, 0, 7)])
        assert (ni, nd) == (1, 0)
        assert state.inserted == {(7, 0, 7)}
        # Deleting a delta insert removes it without a tombstone; deleting
        # a base triple tombstones it; deleting nothing is a no-op.
        state, ni, nd = state.apply(
            base, deletes=[(7, 0, 7), (0, 0, 1), (9, 9, 9)])
        assert (ni, nd) == (0, 2)
        assert state.inserted == frozenset()
        assert state.deleted == {(0, 0, 1)}
        # Re-inserting a tombstoned base triple just drops the tombstone.
        state, ni, nd = state.apply(base, inserts=[(0, 0, 1)])
        assert (ni, nd) == (1, 0)
        assert not state

    def test_noop_apply_returns_same_state(self):
        base = IndexBuilder(build_store()).build("2tp")
        state = DeltaState.empty()
        same, ni, nd = state.apply(base, inserts=[(0, 0, 1)])
        assert same is state and ni == 0 and nd == 0

    @pytest.mark.parametrize("kind", PatternKind.all_kinds())
    def test_matching_agrees_with_reference_on_every_kind(self, kind):
        base = IndexBuilder(build_store()).build("2tp")
        inserts = [(5, 0, 1), (5, 1, 5), (0, 0, 5), (6, 2, 2), (1, 2, 1)]
        state, _, _ = DeltaState.empty().apply(base, inserts=inserts)
        for probe in inserts + [(0, 0, 1), (9, 9, 9)]:
            pattern = TriplePattern.from_triple_with_wildcards(probe, kind)
            assert (sorted(state.matching(pattern))
                    == reference_select(inserts, pattern))

    def test_candidates_are_sorted_distinct(self):
        base = IndexBuilder(build_store()).build("2tp")
        inserts = [(5, 0, 1), (5, 0, 3), (5, 1, 3), (6, 0, 2)]
        state, _, _ = DeltaState.empty().apply(base, inserts=inserts)
        assert state.candidates({0: 5}, 2) == [1, 3]
        assert state.candidates({0: 5, 1: 0}, 2) == [1, 3]
        assert state.candidates({}, 0) == [5, 6]
        assert state.candidates({2: 3}, 0) == [5]
        assert state.candidates({0: 9}, 1) == []

    def test_columns_round_trip(self):
        base = IndexBuilder(build_store()).build("2tp")
        state, _, _ = DeltaState.empty().apply(
            base, inserts=[(5, 0, 1), (6, 1, 2)], deletes=[(0, 0, 1)])
        restored = DeltaState.from_columns(state.to_columns())
        assert restored.inserted == state.inserted
        assert restored.deleted == state.deleted


# --------------------------------------------------------------------------- #
# Merged cursor.
# --------------------------------------------------------------------------- #

class TestMergedCursor:
    def drain(self, cursor):
        values = []
        while cursor.key is not None:
            values.append(cursor.key)
            cursor.advance()
        return values

    def test_union_deduplicates(self):
        cursor = MergedCursor(ArrayCursor([1, 3, 5, 7]), ArrayCursor([2, 3, 8]))
        assert self.drain(cursor) == [1, 2, 3, 5, 7, 8]

    def test_empty_sides(self):
        assert self.drain(MergedCursor(ArrayCursor([]), ArrayCursor([4]))) == [4]
        assert self.drain(MergedCursor(ArrayCursor([4]), ArrayCursor([]))) == [4]
        assert MergedCursor(ArrayCursor([]), ArrayCursor([])).key is None

    def test_remaining_block_unions_both_sides(self):
        cursor = MergedCursor(ArrayCursor([1, 3, 5]), ArrayCursor([2, 3, 8]))
        cursor.advance()
        assert cursor.remaining_block().tolist() == [2, 3, 5, 8]
        # Producing the block must not move the cursor.
        assert cursor.key == 2

    def test_no_block_when_a_side_cannot_produce_one(self):
        """A child without ``remaining_block`` (the predicate-filtered
        cursors) must leave the merged cursor block-less — the engines'
        ``getattr`` probe then routes to the scalar walk instead of
        crashing inside a union of a method that does not exist."""
        class ScalarOnly:
            def __init__(self, values):
                self._inner = ArrayCursor(values)

            @property
            def key(self):
                return self._inner.key

            def advance(self):
                self._inner.advance()

            def seek(self, value):
                self._inner.seek(value)

        cursor = MergedCursor(ScalarOnly([1, 4]), ArrayCursor([2, 4, 6]))
        assert getattr(cursor, "remaining_block", None) is None
        assert self.drain(cursor) == [1, 2, 4, 6]

    def test_seek(self):
        cursor = MergedCursor(ArrayCursor([1, 4, 9]), ArrayCursor([2, 6, 9]))
        cursor.seek(3)
        assert cursor.key == 4
        cursor.seek(5)
        assert cursor.key == 6
        cursor.seek(9)
        assert cursor.key == 9
        cursor.advance()
        assert cursor.key is None
        cursor.seek(100)  # exhausted cursors tolerate further seeks
        assert cursor.key is None


# --------------------------------------------------------------------------- #
# The overlay, across every layout.
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("layout", LAYOUTS)
class TestDynamicOverlay:
    def build(self, layout):
        store = build_store()
        return store, DynamicIndex(IndexBuilder(store).build(layout))

    def test_select_merges_and_filters(self, layout):
        store, dyn = self.build(layout)
        dyn.insert([(5, 0, 1), (0, 2, 0)])
        dyn.delete([(1, 0, 2), (3, 2, 1)])
        current = set(BASE_TRIPLES) - {(1, 0, 2), (3, 2, 1)}
        current |= {(5, 0, 1), (0, 2, 0)}
        for kind in PatternKind.all_kinds():
            for probe in sorted(current) + [(9, 9, 9)]:
                pattern = TriplePattern.from_triple_with_wildcards(probe, kind)
                assert (sorted(dyn.select(pattern))
                        == reference_select(current, pattern)), (kind, probe)
        assert dyn.num_triples == len(current)

    def test_contains_sees_the_merged_view(self, layout):
        _, dyn = self.build(layout)
        dyn.insert([(7, 1, 7)])
        dyn.delete([(0, 0, 1)])
        assert dyn.contains((7, 1, 7))
        assert not dyn.contains((0, 0, 1))
        assert dyn.contains((1, 0, 2))

    def test_engines_agree_under_delta(self, layout):
        _, dyn = self.build(layout)
        dyn.insert([(2, 0, 3), (3, 0, 0), (0, 0, 3)])
        dyn.delete([(2, 0, 0)])
        bgp = BasicGraphPattern([
            TriplePatternTemplate("?a", 0, "?b"),
            TriplePatternTemplate("?b", 0, "?c"),
        ])
        query = SparqlQuery(projection=bgp.variables(), bgp=bgp)
        nested, _ = execute_bgp(dyn, query, engine="nested")
        wcoj, statistics = execute_bgp(dyn, query, engine="wcoj")
        assert solution_bag(nested) == solution_bag(wcoj)
        assert statistics.engine == "wcoj"

    def test_seek_cursor_becomes_inexact_under_tombstones(self, layout):
        _, dyn = self.build(layout)
        native = dyn.seek_cursor({1: 0}, 0)
        if native is None:
            pytest.skip("layout serves this shape via materialisation")
        dyn.delete([(1, 0, 2)])
        demoted = dyn.seek_cursor({1: 0}, 0)
        assert demoted is not None
        _, exact = demoted
        assert exact is False

    def test_seek_cursor_union_includes_delta(self, layout):
        _, dyn = self.build(layout)
        dyn.insert([(11, 0, 1)])
        native = dyn.seek_cursor({1: 0}, 0)
        if native is None:
            pytest.skip("layout serves this shape via materialisation")
        cursor, _ = native
        values = []
        while cursor.key is not None:
            values.append(cursor.key)
            cursor.advance()
        assert 11 in values
        assert values == sorted(set(values))

    def test_compaction_preserves_solutions(self, layout):
        _, dyn = self.build(layout)
        dyn.insert([(4, 0, 4), (4, 0, 1), (0, 0, 4)])
        dyn.delete([(0, 0, 1), (3, 0, 3)])
        before = sorted(dyn.select((None, None, None)))
        bgp = BasicGraphPattern([
            TriplePatternTemplate("?a", 0, "?b"),
            TriplePatternTemplate("?b", 0, "?c"),
        ])
        query = SparqlQuery(projection=bgp.variables(), bgp=bgp)
        before_bag = solution_bag(execute_bgp(dyn, query, engine="wcoj")[0])
        result = dyn.compact()
        assert result.compacted
        assert result.layout == layout
        assert not dyn.delta
        assert sorted(dyn.select((None, None, None))) == before
        for engine in ("nested", "wcoj"):
            assert solution_bag(
                execute_bgp(dyn, query, engine=engine)[0]) == before_bag


class TestDynamicIndexLifecycle:
    def test_epoch_counts_effective_mutations(self):
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"))
        assert dyn.epoch == 0
        dyn.insert([(9, 0, 9)])
        assert dyn.epoch == 1
        dyn.insert([(9, 0, 9)])  # no-op batch: epoch unchanged
        assert dyn.epoch == 1
        dyn.delete([(9, 0, 9)])
        assert dyn.epoch == 2
        dyn.compact()  # empty delta: no-op
        assert dyn.epoch == 2

    def test_snapshot_isolation_across_mutations(self):
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"))
        snapshot = dyn.snapshot()
        dyn.insert([(9, 0, 9)])
        assert not snapshot.contains((9, 0, 9))
        assert dyn.contains((9, 0, 9))

    def test_compact_noop_and_empty_guard(self):
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"))
        assert dyn.compact().compacted is False
        dyn.delete(list(BASE_TRIPLES))
        assert dyn.num_triples == 0
        with pytest.raises(UpdateError, match="empty"):
            dyn.compact()

    def test_auto_compaction_ratio(self):
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"),
                           compaction_ratio=0.5)
        result = dyn.insert([(20 + i, 0, i) for i in range(6)])
        assert result.compaction is not None
        assert result.compaction.compacted
        assert not dyn.delta
        assert dyn.num_triples == len(BASE_TRIPLES) + 6

    def test_cannot_stack_dynamic_indexes(self):
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"))
        with pytest.raises(UpdateError):
            DynamicIndex(dyn)


# --------------------------------------------------------------------------- #
# Write-ahead log.
# --------------------------------------------------------------------------- #

class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(1, 2, 3), (4, 5, 6)])
            wal.append(deletes=[(1, 2, 3)])
            wal.append(inserts=[(7, 7, 7)], deletes=[(4, 5, 6)])
            assert wal.num_records == 3
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [
                ([(1, 2, 3), (4, 5, 6)], []),
                ([], [(1, 2, 3)]),
                ([(7, 7, 7)], [(4, 5, 6)]),
            ]

    def test_mixed_batch_is_one_record(self, tmp_path):
        """Crash atomicity: inserts and their paired deletes share a record,
        so replay can never surface one half without the other."""
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(1, 0, 2)], deletes=[(3, 0, 4)])
            assert wal.num_records == 1
        # Truncate ANY amount off the tail: the whole batch disappears.
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.truncate(handle.tell() - 1)
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == []

    def test_torn_tail_is_discarded_and_log_stays_appendable(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(1, 1, 1)])
            wal.append(inserts=[(2, 2, 2)])
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.truncate(handle.tell() - 3)
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [([(1, 1, 1)], [])]
            wal.append(deletes=[(3, 3, 3)])
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [([(1, 1, 1)], []),
                                          ([], [(3, 3, 3)])]

    def test_corrupt_payload_stops_replay(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(1, 1, 1)])
            end_of_first = wal.size_bytes()
            wal.append(inserts=[(2, 2, 2)])
        data = bytearray(path.read_bytes())
        data[end_of_first + 12] ^= 0xFF  # flip a byte inside record 2
        path.write_bytes(bytes(data))
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [([(1, 1, 1)], [])]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "log.wal"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        with pytest.raises(StorageError, match="bad magic"):
            WriteAheadLog(path)

    def test_reset_drops_records(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(1, 1, 1)])
            wal.reset()
            assert wal.num_records == 0
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == []

    def test_replay_through_dynamic_index(self, tmp_path):
        base = IndexBuilder(build_store()).build("2tp")
        path = tmp_path / "log.wal"
        dyn = DynamicIndex.open(base, wal_path=path)
        dyn.insert([(9, 0, 9), (10, 1, 10)])
        dyn.delete([(0, 0, 1)])
        expected = sorted(dyn.select((None, None, None)))
        dyn.close()
        recovered = DynamicIndex.open(base, wal_path=path)
        assert sorted(recovered.select((None, None, None))) == expected
        recovered.close()


CRASH_SCRIPT = textwrap.dedent("""
    import os, signal, sys
    from repro.dynamic import DynamicIndex
    from repro.storage import load_index

    index_path, wal_path = sys.argv[1], sys.argv[2]
    dyn = DynamicIndex.open(load_index(index_path).index, wal_path=wal_path)
    dyn.insert([(101, 0, 102), (103, 1, 104)])
    dyn.delete([(0, 0, 1)])
    print("ACK", flush=True)
    os.kill(os.getpid(), signal.SIGKILL)  # no atexit, no flush, no close
""")


class TestCrashRecovery:
    def test_sigkill_after_ack_loses_nothing(self, tmp_path):
        """Acceptance: acknowledged inserts survive a hard process kill."""
        store = build_store()
        index_path = tmp_path / "base.ridx"
        save_index(IndexBuilder(store).build("2tp"), index_path)
        wal_path = tmp_path / "crash.wal"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.run(
            [sys.executable, "-c", CRASH_SCRIPT,
             str(index_path), str(wal_path)],
            capture_output=True, text=True, env=env, timeout=120)
        # The process must have ACKed the writes, then died by SIGKILL.
        assert "ACK" in process.stdout
        assert process.returncode == -signal.SIGKILL
        recovered = DynamicIndex.open(load_index(index_path).index,
                                      wal_path=wal_path)
        assert recovered.contains((101, 0, 102))
        assert recovered.contains((103, 1, 104))
        assert not recovered.contains((0, 0, 1))
        assert recovered.delta.num_inserted == 2
        assert recovered.delta.num_deleted == 1
        recovered.close()


# --------------------------------------------------------------------------- #
# Container integration (the ``delta`` section).
# --------------------------------------------------------------------------- #

class TestDeltaPersistence:
    def test_delta_section_round_trip(self, tmp_path):
        path = tmp_path / "dyn.ridx"
        dyn = DynamicIndex(IndexBuilder(build_store()).build("cc"))
        dyn.insert([(9, 0, 9)])
        dyn.delete([(2, 0, 0)])
        dyn.save(path)
        info = file_info(path)
        assert info["format_version"] == 2
        assert "delta" in info["section_bytes"]
        assert info["meta"]["has_delta"] is True
        assert info["meta"]["delta_inserted"] == 1
        assert info["meta"]["delta_deleted"] == 1
        loaded = load_index(path)
        assert loaded.delta is not None
        merged = loaded.queryable()
        assert isinstance(merged, DynamicIndex)
        assert sorted(merged.select((None, None, None))) \
            == sorted(dyn.select((None, None, None)))

    def test_empty_delta_writes_a_plain_file(self, tmp_path):
        path = tmp_path / "plain.ridx"
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"))
        dyn.save(path)
        info = file_info(path)
        assert info["format_version"] == 1
        assert "delta" not in info["section_bytes"]
        assert load_index(path).delta is None

    def test_queryable_without_delta_is_the_bare_index(self, tmp_path):
        path = tmp_path / "plain.ridx"
        save_index(IndexBuilder(build_store()).build("2tp"), path)
        loaded = load_index(path)
        assert loaded.queryable() is loaded.index
        assert isinstance(loaded.queryable(writable=True), DynamicIndex)


# --------------------------------------------------------------------------- #
# Dynamic dictionary growth.
# --------------------------------------------------------------------------- #

class TestDictionaryGrowth:
    def test_add_keeps_existing_ids_and_prefix_ranges(self):
        from repro.rdf.dictionary import Dictionary
        dictionary = Dictionary(["<http://a/1>", "<http://a/2>", "<http://b/1>"])
        before = {term: dictionary.id_of(term) for term in dictionary.terms()}
        fresh = dictionary.add("<http://a/0>")  # lexicographically early
        assert fresh == 3  # appended, not resorted
        assert dictionary.add("<http://a/0>") == fresh
        for term, identifier in before.items():
            assert dictionary.id_of(term) == identifier
        low, high = dictionary.prefix_range("<http://a/")
        assert (low, high) == (0, 2)  # appended region excluded

    def test_restore_recovers_sorted_prefix(self, tmp_path):
        from repro.rdf.dictionary import Dictionary
        dictionary = Dictionary(["b", "c"])
        dictionary.add("a")
        path = tmp_path / "dict.bin"
        save_object(dictionary, path)
        restored = load_object(path, expected_type=Dictionary)
        assert restored.terms() == ["b", "c", "a"]
        assert restored.id_of("a") == 2
        assert restored.prefix_range("b") == (0, 1)

    def test_encode_or_add_shares_resource_ids(self):
        from repro.rdf.dictionary import RdfDictionary
        dictionary, _ = RdfDictionary.from_term_triples(
            [("<s>", "<p>", "<o>")])
        s, p, o = dictionary.encode_or_add("<new>", "<p2>", "<new>")
        assert s == o  # shared resource dictionary: same entity, same ID
        assert dictionary.decode((s, p, o)) == ("<new>", "<p2>", "<new>")


class TestReviewRegressions:
    def test_components_beyond_int64_are_rejected_up_front(self):
        from repro.dynamic.delta import MAX_COMPONENT
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"))
        with pytest.raises(UpdateError, match="64-bit"):
            dyn.insert([(MAX_COMPONENT + 1, 0, 0)])
        result = dyn.insert([(MAX_COMPONENT, 0, 0)])  # the edge fits
        assert result.inserted == 1
        assert len(DeltaState.from_columns(
            dyn.delta.to_columns()).inserted) == 1  # and persists

    def test_update_batch_is_atomic(self):
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"))
        with pytest.raises(UpdateError):
            dyn.update(inserts=[(50, 0, 51)], deletes=[(0, 0, "bad")])
        # The malformed delete rejected the whole batch: nothing applied.
        assert not dyn.delta and dyn.epoch == 0
        result = dyn.update(inserts=[(50, 0, 51)], deletes=[(0, 0, 1)])
        assert result.inserted == 1 and result.deleted == 1
        assert dyn.epoch == 1  # one bump for the combined batch

    def test_non_positive_compaction_ratio_disables_the_trigger(self):
        for ratio in (0, -1.5):
            dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"),
                               compaction_ratio=ratio)
            result = dyn.insert([(60 + i, 0, i) for i in range(20)])
            assert result.compaction is None
            assert dyn.delta.num_inserted == 20

    def test_non_finite_floats_raise_update_error(self):
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"))
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(UpdateError, match="integers"):
                dyn.insert([(bad, 1, 2)])

    def test_torn_wal_header_is_healed(self, tmp_path):
        path = tmp_path / "torn.wal"
        path.write_bytes(b"REPRO")  # died mid-header: nothing was durable
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == []
            wal.append(inserts=[(1, 1, 1)])
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [([(1, 1, 1)], [])]

    def test_failed_append_rolls_back_to_the_record_boundary(self, tmp_path):
        path = tmp_path / "fail.wal"
        wal = WriteAheadLog(path)
        wal.append(inserts=[(1, 1, 1)])
        real_write = wal._handle.write

        def partial_write(data):
            real_write(data[:5])  # simulate disk-full mid-record
            raise OSError(28, "No space left on device")

        wal._handle.write = partial_write
        with pytest.raises(StorageError, match="cannot append"):
            wal.append(inserts=[(2, 2, 2)])
        wal._handle.write = real_write
        # The torn bytes were rolled back: the next append is replayable.
        wal.append(inserts=[(3, 3, 3)])
        wal.close()
        with WriteAheadLog(path) as reopened:
            assert list(reopened.replay()) == [([(1, 1, 1)], []),
                                               ([(3, 3, 3)], [])]

    def test_exactness_survives_unrelated_tombstones(self):
        """Only tombstones under the cursor's bound prefix demote exactness
        — one unrelated delete must not strip the leapfrog acceleration."""
        dyn = DynamicIndex(IndexBuilder(build_store()).build("3t"))
        native = dyn.seek_cursor({1: 0}, 0)
        assert native is not None
        _, exact_before = native
        dyn.delete([(3, 2, 1)])  # predicate 2: unrelated to bound {1: 0}
        unrelated = dyn.seek_cursor({1: 0}, 0)
        assert unrelated is not None and unrelated[1] == exact_before
        dyn.delete([(1, 0, 2)])  # predicate 0: under the bound prefix
        related = dyn.seek_cursor({1: 0}, 0)
        assert related is not None and related[1] is False
        # And the engines still agree on the merged view.
        bgp = BasicGraphPattern([TriplePatternTemplate("?a", 0, "?b"),
                                 TriplePatternTemplate("?b", 0, "?c")])
        query = SparqlQuery(projection=bgp.variables(), bgp=bgp)
        nested, _ = execute_bgp(dyn, query, engine="nested")
        wcoj, _ = execute_bgp(dyn, query, engine="wcoj")
        assert solution_bag(nested) == solution_bag(wcoj)

    def test_failed_auto_compaction_does_not_wedge_writes(self, monkeypatch):
        dyn = DynamicIndex(IndexBuilder(build_store()).build("2tp"),
                           compaction_ratio=0.01)
        monkeypatch.setattr(
            DynamicIndex, "compact",
            lambda self: (_ for _ in ()).throw(MemoryError("boom")))
        result = dyn.insert([(40, 0, 40)])
        # The write succeeded; the failure is recorded, the trigger disarmed.
        assert result.inserted == 1 and result.compaction is None
        assert "MemoryError" in dyn.delta_statistics()["auto_compact_error"]
        assert dyn.insert([(41, 0, 41)]).inserted == 1  # no re-trip
        monkeypatch.undo()
        explicit = dyn.compact()  # a successful compact re-arms the trigger
        assert explicit.compacted
        assert dyn.delta_statistics()["auto_compact_error"] is None


class TestDictionaryPrefixRunConsistency:
    def test_prefix_range_agrees_across_save_load(self, tmp_path):
        """In-order appends extend the lexicographic run; the live answer
        must equal what a reload re-derives from the stored term order."""
        from repro.rdf.dictionary import Dictionary
        dictionary = Dictionary(["a", "b"])
        assert dictionary.add("c") == 2       # extends the sorted run
        assert dictionary.prefix_range("c") == (2, 3)
        assert dictionary.add("aa") == 3      # out of order: run freezes
        assert dictionary.add("z") == 4       # after a freeze, stays frozen
        live = {p: dictionary.prefix_range(p) for p in ("a", "aa", "c", "z")}
        path = tmp_path / "dict.bin"
        save_object(dictionary, path)
        restored = load_object(path, expected_type=Dictionary)
        for prefix, expected in live.items():
            assert restored.prefix_range(prefix) == expected, prefix


class TestOverlaySelectValues:
    """The block-building fast path (``select_values``) under live deltas.

    The contract: a returned block is *exact* (tombstoned values removed,
    delta inserts merged in), and any bound shape where per-value tombstone
    filtering is ambiguous returns None so callers fall back to the
    conservative cursor path.  See docs/ARCHITECTURE.md.
    """

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_blocks_reflect_inserts_and_deletes(self, layout):
        base = IndexBuilder(build_store()).build(layout)
        if getattr(base, "select_values", None) is None:
            pytest.skip(f"{layout} has no block fast path")
        dyn = DynamicIndex(base)
        dyn.insert([(0, 0, 7)])
        dyn.delete([(0, 0, 1)])
        block = dyn.select_values({0: 0, 1: 0}, role=2)
        if block is None:
            pytest.skip(f"{layout} returned no block for this bound shape")
        values = list(block)
        assert 7 in values      # delta insert merged in
        assert 1 not in values  # tombstone filtered out
        # And the block agrees with the merged select.
        expected = sorted(t[2] for t in dyn.select_list((0, 0, None)))
        assert values == expected

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_single_bound_with_tombstones_falls_back(self, layout):
        """With one bound role a block value may have several witnesses, so
        tombstone filtering is unsound — the overlay must return None."""
        base = IndexBuilder(build_store()).build(layout)
        if getattr(base, "select_values", None) is None:
            pytest.skip(f"{layout} has no block fast path")
        dyn = DynamicIndex(base)
        dyn.delete([(0, 0, 1)])
        assert dyn.select_values({0: 0}, role=2) is None

    def test_clean_delta_passes_base_block_through(self):
        base = IndexBuilder(build_store()).build("2tp")
        dyn = DynamicIndex(base)
        base_block = base.select_values({0: 0, 1: 0}, role=2)
        overlay_block = dyn.select_values({0: 0, 1: 0}, role=2)
        if base_block is None:
            assert overlay_block is None
        else:
            assert list(overlay_block) == list(base_block)
