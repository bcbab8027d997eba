"""Persistence tests: container format, codec round trips, index round trips,
corruption and wrong-version error handling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import HdtFoqIndex
from repro.core.builder import IndexBuilder, build_index
from repro.core.pairs import PairStructure
from repro.core.patterns import PatternKind, TriplePattern
from repro.core.trie import PermutationTrie, TrieConfig
from repro.errors import StorageError
from repro.rdf.dictionary import Dictionary, NumericIndex, RdfDictionary
from repro.rdf.triples import TripleStore
from repro.sequences.base import EncodedSequence
from repro.sequences.bitvector import BitVector
from repro.sequences.compact import CompactVector
from repro.sequences.elias_fano import EliasFano
from repro.sequences.partitioned_elias_fano import PartitionedEliasFano
from repro.sequences.vbyte import VByte
from repro.storage import (
    dumps_object,
    file_info,
    load_index,
    load_object,
    loads_object,
    read_container,
    save_index,
    save_object,
    verify_container,
    write_container,
)
from repro.storage import container as container_module

MONOTONE_CODECS = (EliasFano, PartitionedEliasFano)
GENERAL_CODECS = (CompactVector, VByte)
ALL_CODECS = MONOTONE_CODECS + GENERAL_CODECS

monotone_values = st.lists(st.integers(0, 2000), min_size=0, max_size=300).map(sorted)
general_values = st.lists(st.integers(0, 2000), min_size=0, max_size=300)
bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=400)


# --------------------------------------------------------------------------- #
# Container format.
# --------------------------------------------------------------------------- #

class TestContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.bin"
        sections = {"meta": b"m" * 10, "payload": bytes(range(256)), "x": b""}
        written = write_container(path, sections)
        assert written == path.stat().st_size
        assert read_container(path) == sections

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not an index file, but long enough")
        with pytest.raises(StorageError, match="bad magic"):
            read_container(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"RE")
        with pytest.raises(StorageError, match="too short"):
            read_container(path)

    def test_wrong_version_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "future.bin"
        monkeypatch.setattr(container_module, "FORMAT_VERSION", 999)
        write_container(path, {"payload": b"hello"})
        monkeypatch.undo()
        with pytest.raises(StorageError, match="unsupported container format version 999"):
            read_container(path)

    def test_corrupted_payload_detected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"payload": b"A" * 64})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="checksum mismatch"):
            read_container(path)

    def test_corrupted_header_detected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"payload": b"A" * 64})
        data = bytearray(path.read_bytes())
        data[18] ^= 0x01  # inside the section table (a section-name byte)
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="header checksum mismatch"):
            read_container(path)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"payload": b"A" * 64})
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(StorageError):
            read_container(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="cannot read"):
            read_container(tmp_path / "nope.bin")


class TestVerifyContainer:
    def test_clean_report(self, tmp_path):
        path = tmp_path / "c.bin"
        sections = {"meta": b"m" * 10, "payload": bytes(range(256))}
        write_container(path, sections)
        report = verify_container(path)
        assert report["ok"] is True
        assert report["problems"] == []
        assert [s["name"] for s in report["sections"]] == ["meta", "payload"]
        assert all(s["crc_ok"] for s in report["sections"])

    def test_aligned_report(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"a": b"x" * 70, "b": b"y" * 3},
                        version=container_module.ALIGNED_FORMAT_VERSION)
        report = verify_container(path)
        assert report["ok"] is True
        assert report["aligned"] is True
        for section in report["sections"]:
            assert section["offset"] % container_module.SECTION_ALIGNMENT == 0

    def test_reports_every_corrupted_section(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"a": b"A" * 64, "b": b"B" * 64})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF          # corrupt section "b"
        data[-70] ^= 0xFF         # corrupt section "a"
        path.write_bytes(bytes(data))
        report = verify_container(path)
        assert report["ok"] is False
        # One pass reports *both* damaged sections, unlike read_container
        # which stops at the first.
        assert [s["crc_ok"] for s in report["sections"]] == [False, False]
        assert len(report["problems"]) == 2

    def test_misaligned_section_reported(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"a": b"A" * 64})
        data = bytearray(path.read_bytes())
        # Advertise the aligned format without the aligned layout.
        struct_at = container_module._FIXED_HEADER
        magic, _version, count = struct_at.unpack_from(data, 0)
        struct_at.pack_into(data, 0, magic,
                            container_module.ALIGNED_FORMAT_VERSION, count)
        # Re-seal the header CRC so only the alignment claim is wrong.
        crc_offset = len(data) - 64 - container_module._CRC.size
        container_module._CRC.pack_into(
            data, crc_offset, container_module._crc32(bytes(data[:crc_offset])))
        path.write_bytes(bytes(data))
        report = verify_container(path)
        assert report["ok"] is False
        assert any("aligned" in problem for problem in report["problems"])

    def test_structural_damage_still_raises(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not an index file, but long enough")
        with pytest.raises(StorageError, match="bad magic"):
            verify_container(path)

    def test_real_index_file_verifies(self, tmp_path, index_2tp):
        path = tmp_path / "idx.repro"
        save_index(index_2tp, path, aligned=True)
        report = verify_container(path)
        assert report["ok"] is True
        assert report["aligned"] is True
        assert {s["name"] for s in report["sections"]} >= {"meta", "index"}


# --------------------------------------------------------------------------- #
# Codec round trips.
# --------------------------------------------------------------------------- #

def _assert_sequence_equal(loaded, original, values):
    assert type(loaded) is type(original)
    assert len(loaded) == len(original)
    assert loaded.to_list() == list(values)
    assert loaded.size_in_bits() == original.size_in_bits()
    if values:
        middle = len(values) // 2
        assert loaded.access(middle) == values[middle]
        if list(values) == sorted(values):
            assert loaded.find(0, len(values), values[middle]) == \
                original.find(0, len(values), values[middle])


class TestCodecRoundTrips:
    @pytest.mark.parametrize("codec_class", ALL_CODECS)
    @settings(max_examples=25, deadline=None)
    @given(values=monotone_values)
    def test_in_memory_round_trip(self, codec_class, values):
        """Property: load(save(seq)) is observationally identical, all codecs."""
        original = codec_class.from_values(values)
        loaded = loads_object(dumps_object(original))
        _assert_sequence_equal(loaded, original, values)

    @pytest.mark.parametrize("codec_class", GENERAL_CODECS)
    @settings(max_examples=25, deadline=None)
    @given(values=general_values)
    def test_non_monotone_round_trip(self, codec_class, values):
        original = codec_class.from_values(values)
        loaded = loads_object(dumps_object(original))
        _assert_sequence_equal(loaded, original, values)

    @settings(max_examples=25, deadline=None)
    @given(bits=bit_lists)
    def test_bitvector_round_trip(self, bits):
        original = BitVector.from_bits(bits)
        loaded = loads_object(dumps_object(original))
        assert loaded.to_list() == bits
        assert loaded.num_ones == original.num_ones
        for k in range(original.num_ones):
            assert loaded.select1(k) == original.select1(k)
        for position in range(0, len(bits) + 1, max(1, len(bits) // 7)):
            assert loaded.rank1(position) == original.rank1(position)

    @pytest.mark.parametrize("codec_class", ALL_CODECS)
    def test_file_round_trip(self, codec_class, tmp_path):
        values = sorted([1, 1, 5, 9, 20, 21, 300, 301, 302, 9000])
        original = codec_class.from_values(values)
        path = tmp_path / "seq.bin"
        written = save_object(original, path)
        assert written == path.stat().st_size
        loaded = load_object(path, expected_type=codec_class)
        _assert_sequence_equal(loaded, original, values)
        # The base class as expected type accepts any codec.
        assert load_object(path, expected_type=EncodedSequence).to_list() == values

    def test_typed_load_rejects_other_codec(self, tmp_path):
        path = tmp_path / "seq.bin"
        save_object(CompactVector.from_values([1, 2, 3]), path)
        with pytest.raises(StorageError, match="holds a CompactVector"):
            load_object(path, expected_type=EliasFano)

    def test_bitvector_file_round_trip(self, tmp_path):
        original = BitVector.from_positions(100, [0, 3, 64, 65, 99])
        path = tmp_path / "bv.bin"
        save_object(original, path)
        loaded = load_object(path, expected_type=BitVector)
        assert loaded.to_list() == original.to_list()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        """Determinism: a loaded structure re-saves to the identical file."""
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_object(PartitionedEliasFano.from_values(list(range(0, 4000, 3))),
                    first)
        save_object(load_object(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unregistered_type_raises(self):
        with pytest.raises(StorageError, match="no serializer registered"):
            dumps_object(object())


# --------------------------------------------------------------------------- #
# Trie and pair-structure round trips.
# --------------------------------------------------------------------------- #

class TestTrieRoundTrip:
    def test_trie_file_round_trip(self, builder, tmp_path):
        original = builder.build_trie("spo")
        path = tmp_path / "trie.bin"
        save_object(original, path)
        loaded = load_object(path, expected_type=PermutationTrie)
        assert loaded.permutation_name == original.permutation_name
        assert loaded.num_triples == original.num_triples
        assert loaded.num_pairs == original.num_pairs
        for first in range(0, original.num_first, 13):
            assert list(loaded.children_of(first)) == list(original.children_of(first))
        assert sorted(loaded.scan_all()) == sorted(original.scan_all())
        assert loaded.space_breakdown() == original.space_breakdown()

    def test_pair_structure_round_trip(self, builder, tmp_path):
        original = builder.build_ps_structure()
        path = tmp_path / "ps.bin"
        save_object(original, path)
        loaded = load_object(path, expected_type=PairStructure)
        assert loaded.num_pairs == original.num_pairs
        for first in range(0, original.num_first, 3):
            assert list(loaded.values_of(first)) == list(original.values_of(first))


# --------------------------------------------------------------------------- #
# Index round trips: every family, every pattern kind.
# --------------------------------------------------------------------------- #

def _assert_indexes_answer_identically(loaded, original, triples):
    probes = triples[:: max(1, len(triples) // 6)]
    for triple in probes:
        for kind in PatternKind:
            pattern = TriplePattern.from_triple_with_wildcards(triple, kind)
            assert loaded.select_list(pattern) == original.select_list(pattern)
    assert loaded.size_in_bits() == original.size_in_bits()
    assert loaded.space_breakdown() == original.space_breakdown()


class TestIndexRoundTrips:
    @pytest.mark.parametrize("layout", ["3t", "cc", "2tp", "2to"])
    def test_layout_round_trip(self, all_indexes, reference_triples, tmp_path, layout):
        original = all_indexes[layout]
        path = tmp_path / f"{layout}.ridx"
        save_index(original, path)
        loaded = load_index(path)
        assert type(loaded.index) is type(original)
        assert loaded.dictionary is None
        assert loaded.meta["layout"] == original.name
        assert loaded.meta["num_triples"] == original.num_triples
        _assert_indexes_answer_identically(loaded.index, original, reference_triples)

    @pytest.mark.parametrize("level1", ["compact", "ef", "pef", "vbyte"])
    @pytest.mark.parametrize("level2", ["compact", "ef", "pef", "vbyte"])
    def test_all_codec_configurations_round_trip(self, tmp_path, level1, level2):
        """Every node-codec configuration survives a save/load round trip."""
        triples = sorted({(s % 23, s % 3, (s * 7) % 31) for s in range(160)})
        store = TripleStore.from_triples(triples, densify=True)
        triples = sorted(store)
        config = TrieConfig(level1_nodes=level1, level2_nodes=level2,
                            codec_options={"pef": {"partition_size": 32}})
        configs = {name: config for name in ("spo", "pos", "osp", "ops")}
        original = IndexBuilder(store, trie_configs=configs).build("3t")
        path = tmp_path / "cfg.ridx"
        save_index(original, path)
        loaded = load_index(path).index
        trie = loaded.trie("spo")
        assert trie.config.level1_nodes == level1
        assert trie.config.level2_nodes == level2
        _assert_indexes_answer_identically(loaded, original, triples)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(triples=st.sets(st.tuples(st.integers(0, 12), st.integers(0, 3),
                                     st.integers(0, 12)),
                           min_size=1, max_size=50),
           layout=st.sampled_from(["3t", "cc", "2tp", "2to"]))
    def test_round_trip_property(self, triples, layout):
        """Property: load(save(index)) answers every pattern identically."""
        triples = sorted(triples)
        store = TripleStore.from_triples(triples)
        original = build_index(store, layout)
        loaded = loads_object(dumps_object(original))
        for triple in triples:
            for kind in PatternKind:
                pattern = TriplePattern.from_triple_with_wildcards(triple, kind)
                assert loaded.select_list(pattern) == original.select_list(pattern)

    def test_baseline_indexes_are_not_persistable(self, small_store, tmp_path):
        baseline = HdtFoqIndex(small_store)
        with pytest.raises(StorageError, match="no serializer registered"):
            save_index(baseline, tmp_path / "baseline.ridx")

    def test_load_object_rejects_index_file(self, all_indexes, tmp_path):
        path = tmp_path / "i.ridx"
        save_index(all_indexes["2tp"], path)
        with pytest.raises(StorageError, match="missing 'payload' section"):
            load_object(path)

    def test_load_index_rejects_object_file(self, tmp_path):
        path = tmp_path / "seq.bin"
        save_object(CompactVector.from_values([1, 2]), path)
        with pytest.raises(StorageError, match="missing 'index' section"):
            load_index(path)

    def test_file_info(self, all_indexes, tmp_path):
        path = tmp_path / "i.ridx"
        save_index(all_indexes["2tp"], path)
        info = file_info(path)
        assert info["meta"]["layout"] == "2tp"
        assert info["total_bytes"] == path.stat().st_size
        assert set(info["section_bytes"]) == {"meta", "index"}


# --------------------------------------------------------------------------- #
# Dictionary round trips.
# --------------------------------------------------------------------------- #

class TestDictionaryRoundTrips:
    def test_dictionary_round_trip(self, tmp_path):
        original = Dictionary.from_terms(["b", "a", "c", "a", "z\nnewline"])
        path = tmp_path / "dict.bin"
        save_object(original, path)
        loaded = load_object(path, expected_type=Dictionary)
        assert loaded.terms() == original.terms()
        for term in original.terms():
            assert loaded.id_of(term) == original.id_of(term)

    def test_rdf_dictionary_preserves_sharing(self, tmp_path):
        term_triples = [
            ("<http://e/a>", "<http://e/p>", "<http://e/b>"),
            ("<http://e/b>", "<http://e/p>", '"lit"'),
        ]
        original, store = RdfDictionary.from_term_triples(term_triples)
        assert original.subjects is original.objects
        path = tmp_path / "rdfdict.bin"
        save_object(original, path)
        loaded = load_object(path, expected_type=RdfDictionary)
        assert loaded.subjects is loaded.objects
        for triple in store:
            assert loaded.decode(triple) == original.decode(triple)

    def test_numeric_index_round_trip(self):
        original = NumericIndex([3.25, -1.5, 0.0, 10.75, 2.5], scale=2)
        loaded = loads_object(dumps_object(original))
        assert len(loaded) == len(original)
        for position in range(len(original)):
            assert loaded.value_at(position) == original.value_at(position)
        assert loaded.id_range(-1.0, 5.0) == original.id_range(-1.0, 5.0)
        assert loaded.id_range(-1.5, 2.5, inclusive=True) == \
            original.id_range(-1.5, 2.5, inclusive=True)

    def test_index_with_dictionary_round_trip(self, tmp_path):
        term_triples = [
            ("<http://e/a>", "<http://e/knows>", "<http://e/b>"),
            ("<http://e/a>", "<http://e/name>", '"A"'),
            ("<http://e/b>", "<http://e/knows>", "<http://e/a>"),
        ]
        dictionary, store = RdfDictionary.from_term_triples(term_triples)
        index = IndexBuilder(store).build("2tp")
        path = tmp_path / "full.ridx"
        save_index(index, path, dictionary=dictionary)
        loaded = load_index(path)
        assert loaded.meta["has_dictionary"] is True
        knows = loaded.dictionary.predicates.id_of("<http://e/knows>")
        results = loaded.index.select_list((None, knows, None))
        assert len(results) == 2
        decoded = {loaded.dictionary.decode(t) for t in results}
        assert ("<http://e/a>", "<http://e/knows>", "<http://e/b>") in decoded


class TestPlannerStatsPersistence:
    def _store(self):
        return TripleStore.from_triples(
            [(0, 0, 1), (0, 0, 2), (1, 0, 2), (2, 1, 3), (3, 1, 4), (3, 2, 0)])

    def test_round_trip(self, tmp_path):
        from repro.queries.planner import QueryPlanner

        store = self._store()
        index = build_index(store, "2tp")
        histograms = QueryPlanner.cardinalities_from_store(store)
        path = tmp_path / "with_stats.ridx"
        save_index(index, path, planner_stats=histograms)
        loaded = load_index(path)
        assert loaded.meta["has_planner_stats"] is True
        assert loaded.planner_stats == histograms
        # The loaded histograms drive planning exactly like the live store.
        assert QueryPlanner(cardinalities=loaded.planner_stats).cardinalities \
            == QueryPlanner(store=store).cardinalities

    def test_absent_stats_load_as_none(self, tmp_path):
        store = self._store()
        index = build_index(store, "2tp")
        path = tmp_path / "without_stats.ridx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.planner_stats is None
        assert loaded.meta["has_planner_stats"] is False

    def test_stats_section_visible_in_file_info(self, tmp_path):
        from repro.queries.planner import QueryPlanner

        store = self._store()
        index = build_index(store, "2tp")
        path = tmp_path / "with_stats.ridx"
        save_index(index, path,
                   planner_stats=QueryPlanner.cardinalities_from_store(store))
        info = file_info(path)
        assert "stats" in info["section_bytes"]
        assert info["section_bytes"]["stats"] > 0

    def test_malformed_stats_section_raises_storage_error(self, tmp_path):
        from repro.storage import format as binary_format
        from repro.storage.container import read_container, write_container

        store = self._store()
        index = build_index(store, "2tp")
        path = tmp_path / "broken_stats.ridx"
        from repro.queries.planner import QueryPlanner
        save_index(index, path,
                   planner_stats=QueryPlanner.cardinalities_from_store(store))
        sections = dict(read_container(path))
        sections["stats"] = binary_format.dumps({"roles": [{}, {}, {}]})
        write_container(path, sections)
        with pytest.raises(StorageError, match="malformed 'stats' section"):
            load_index(path)
