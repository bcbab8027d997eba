"""``select-patterns``: the paper's Table 4 experiment.

In-process ``index.select(pattern)`` over a ``dbpedia``-profile data set, all
eight pattern kinds.  ``sequences`` and ``core`` do all the work; ``queries``,
``service`` and ``cluster`` none.  The per-kind op counts are fixed so that
every kind is 5-30 % of a round's wall time: with equal counts ``?P?`` alone
is 90 % of it and hides the lookups.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.core.builder import LAYOUTS, IndexBuilder
from repro.datasets import generate_from_profile
from repro.sequences.factory import CODECS, encode_sequence

from perfkit.harness import Op, Workload, play_round, quiet, quiet_seconds
from perfkit.oracle import Oracle, stratified_pick

#: Kind name -> bound roles (x marks a wildcard).
KINDS = {"spo": (0, 1, 2), "spx": (0, 1), "sxo": (0, 2), "xpo": (1, 2),
         "sxx": (0,), "xpx": (1,), "xxo": (2,), "xxx": ()}

#: The data set does not depend on ``--seed``: ``bits_per_triple`` must
#: compare across seeds to 0.1 %.  The seed draws the ops.
DATA_SEED = 42

SCALES = {
    "tiny": dict(triples=2_500, per_kind=dict(
        spo=3, spx=3, sxo=3, xpo=3, sxx=3, xpx=3, xxo=2, xxx=1)),
    "small": dict(triples=12_000, per_kind=dict(
        spo=100, spx=150, sxo=150, xpo=60, sxx=120, xpx=30, xxo=120,
        xxx=1)),
    "full": dict(triples=100_000, per_kind=dict(
        spo=2500, spx=2500, sxo=2500, xpo=2000, sxx=2000, xpx=100, xxo=900,
        xxx=1)),
}


class SelectPatterns(Workload):
    name = "select-patterns"
    layer = "core.select"

    def generate(self) -> None:
        scale = SCALES[self.scale]
        self.store = generate_from_profile("dbpedia", scale["triples"],
                                           seed=DATA_SEED)
        oracle = Oracle(self.store)
        rng = self.rng()
        self.ops = []
        for kind, bound in KINDS.items():
            patterns, counts = oracle.groups(bound)
            for pick in stratified_pick(rng, counts, scale["per_kind"][kind]):
                pattern = tuple(None if v < 0 else int(v)
                                for v in patterns[pick])
                count, digest = oracle.digest(pattern)
                self.ops.append(Op(kind, pattern, count, digest))
        # Interleave the kinds: a round is then one mixed stream, and a
        # burst of noise hits every kind alike.  The full scan goes first:
        # its 83 k tuples are the peak of ``peak_rss_mb``, and taken on the
        # same heap in every run that peak is steady to 0.1 % (anywhere in
        # the list it moved 4 %).
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.ops.sort(key=lambda op: op.kind != "xxx")

    def setup(self) -> None:
        self.index = IndexBuilder(self.store).build("2tp")

    def execute(self, op: Op, connection=None, spans=None):
        return list(self.index.select(op.request))

    def bits_per_triple(self) -> float:
        return self.index.size_in_bits() / self.index.num_triples

    def describe(self) -> Dict:
        return {"triples": self.index.num_triples, "layout": "2tp",
                "profile": "dbpedia"}

    # ------------------------------------------------------------------ #
    # Layer probes: sequences.* and core.*
    # ------------------------------------------------------------------ #

    def layer_rows(self, rows: Dict[str, tuple]) -> None:
        self._sequence_rows(rows)
        self._core_rows(rows)

    def _sequence_rows(self, rows: Dict[str, tuple]) -> None:
        """Each codec on the POS trie's second level (the sorted objects of
        every predicate), made monotone the way the trie's prefix-sum
        transform does.  Timed on the codec itself: a ``RangedSequence``
        answers from a decoded mirror after 64 calls, whatever the codec."""
        trie = self.index.trie("pos")
        level = trie.nodes_level1
        ranges, blocks, base = [], [], 0
        for first in range(trie.num_first):
            begin, end = trie.children_range(first)
            if begin == end:
                continue
            block = level.decode_block_in_range(begin, end) + base
            base = int(block[-1]) + 1
            ranges.append((begin, end))
            blocks.append(block)
        values = np.concatenate(blocks)
        rng = np.random.default_rng(DATA_SEED)
        probes = []
        for _ in range(100):
            begin, end = ranges[int(rng.integers(len(ranges)))]
            value = int(rng.integers(values[begin], values[end - 1] + 1))
            probes.append((value, begin, end))
        # Bound the decode work: VByte and PEF decode a range in Python.
        decode_ranges = [r for r in ranges if r[1] - r[0] <= 4096][:64]
        decoded = sum(end - begin for begin, end in decode_ranges)
        for codec in CODECS:
            sequence = encode_sequence(values.tolist(), codec)
            seek = quiet_seconds(lambda: [
                sequence.next_geq(v, b, e) for v, b, e in probes], repeats=3)
            decode = quiet_seconds(lambda: [
                sequence.decode_block(b, e) for b, e in decode_ranges],
                repeats=3)
            rows[f"sequences.{codec}.next_geq_ns"] = (
                seek / len(probes) * 1e9, "ns")
            rows[f"sequences.{codec}.decode_block_ns_per_int"] = (
                decode / decoded * 1e9, "ns")
            rows[f"sequences.{codec}.bits_per_int"] = (
                sequence.size_in_bits() / len(sequence), "bits")

    def _core_rows(self, rows: Dict[str, tuple]) -> None:
        builder = IndexBuilder(self.store)
        rows["core.build_s"] = (
            quiet_seconds(lambda: builder.build("2tp"), repeats=3), "s")

        # Per kind on 2Tp: per-op medians over three rounds of this list.
        rounds = [play_round(self) for _ in range(3)]
        per_op = quiet(np.stack([r.latencies_ns for r in rounds]))
        for kind in KINDS:
            chosen = [i for i, op in enumerate(self.ops) if op.kind == kind]
            results = sum(self.ops[i].count for i in chosen)
            rows[f"core.select.{kind}.ns_per_result"] = (
                float(per_op[chosen].sum()) / max(1, results), "ns")

        # The whole list per layout: the paper's space/time trade-off.
        results = sum(op.count for op in self.ops)
        built = self.index
        try:
            for layout in LAYOUTS:
                self.index = built if layout == "2tp" else builder.build(layout)
                play_round(self)  # warm this layout's decoded mirrors
                rows[f"core.{layout}.select_ns_per_result"] = (
                    play_round(self).wall_ns / results, "ns")
                rows[f"core.{layout}.bits_per_triple"] = (
                    self.bits_per_triple(), "bits")
        finally:
            self.index = built

        # Cursor seeks and candidate blocks, the primitives of both engines.
        spo = built.trie("spo")
        subjects = [op.request[0] for op in self.ops if op.kind == "sxx"][:300]
        cursors: List = []

        def make_cursors():
            cursors[:] = [spo.children_cursor(s) for s in subjects]
        make_cursors()
        targets = [cursor.key + 1 for cursor in cursors]
        seeks = []
        for _ in range(5):
            make_cursors()
            started = time.perf_counter_ns()
            for cursor, target in zip(cursors, targets):
                cursor.seek(target)
            seeks.append(time.perf_counter_ns() - started)
        rows["core.trie.seek_ns"] = (
            float(quiet(seeks)) / len(cursors), "ns")

        bounds = [({0: op.request[0], 1: op.request[1]}, 2)
                  for op in self.ops if op.kind == "spx"][:300]
        bounds += [({1: op.request[1], 2: op.request[2]}, 0)
                   for op in self.ops if op.kind == "xpo"][:300]
        values = sum(len(built.select_values(b, role)) for b, role in bounds)
        seconds = quiet_seconds(lambda: [
            built.select_values(b, role) for b, role in bounds])
        rows["core.select_values.ns_per_value"] = (
            seconds / max(1, values) * 1e9, "ns")
