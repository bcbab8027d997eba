"""``serve-http``: a ``repro serve --mmap`` process answering from its cache.

200 requests per round, drawn Zipf(1.0) from 40 distinct SPARQL texts with
10-3000 result rows, over two keep-alive connections.  Round 0 fills the
result cache, so timed rounds are cache hits: ``service.cache``,
``service.jsonio`` and ``service.http`` do the work and the engines almost
none — the mirror image of ``bgp-join``.

Known at the seed commit and reproduced on purpose: ``op_p50_us`` is about
44 000, because ``QueryServiceHandler`` writes headers and body as two
segments without ``TCP_NODELAY`` (Nagle meets the client's delayed ACK on
every keep-alive request after the first).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np

from repro.core.builder import IndexBuilder
from repro.queries import QueryPlanner
from repro.service import QueryService
from repro.service.jsonio import query_result_to_json
from repro.storage import load_index, save_index

from perfkit import procs
from perfkit.harness import Op, Workload, quiet_seconds, play_round
from perfkit.oracle import Oracle, strata
from perfkit.workloads import templates
from perfkit.workloads.bgp_join import DATA_SEED, lubm_store

SCALES = {
    "tiny": dict(universities=1, texts=8, requests=20, rows=(1, 3000),
                 candidates=4),
    "small": dict(universities=1, texts=12, requests=40, rows=(2, 3000),
                  candidates=8),
    "full": dict(universities=8, texts=40, requests=200, rows=(10, 3000),
                 candidates=30),
}


def zipf_frequencies(ranks: int, total: int) -> List[int]:
    """``total`` requests split over ``ranks`` texts proportionally to
    1/rank (largest remainders), every text requested at least once."""
    shares = 1.0 / np.arange(1, ranks + 1)
    exact = shares / shares.sum() * (total - ranks)
    counts = np.floor(exact).astype(int)
    for position in np.argsort(-(exact - counts),
                               kind="stable")[:total - ranks - counts.sum()]:
        counts[position] += 1
    return (counts + 1).tolist()


def decode_rows(data: bytes, field: str):
    """``(count, rows)`` of a ``/query`` response body."""
    body = json.loads(data)
    if field == "triples":
        return body["count"], body["triples"]
    names = body["variables"]
    return body["count"], [[b[n] for n in names] for b in body["bindings"]]


def size_spectrum_templates():
    """LUBM shapes added to the log's so that result sizes cover 10-3000
    rows evenly: a department's students with their courses or e-mail, its
    faculty with their courses, one advisor's students with their courses,
    and a university's faculty, students, and students with courses."""
    p = templates.LUBM_PREDICATES
    university = ("?d", p["subOrganizationOf"], "?u")
    return [
        templates.Template("U1", (university, ("?x", p["worksFor"], "?d")),
                           ("?d", "?x"), "?u"),
        templates.Template("U2", (university, ("?x", p["memberOf"], "?d")),
                           ("?d", "?x"), "?u"),
        templates.Template("U3", (university, ("?x", p["memberOf"], "?d"),
                                  ("?x", p["takesCourse"], "?c")),
                           ("?x", "?c"), "?u"),
        templates.Template("M1", (("?x", p["memberOf"], "?d"),
                                  ("?x", p["takesCourse"], "?c")),
                           ("?x", "?c"), "?d"),
        templates.Template("M2", (("?x", p["memberOf"], "?d"),
                                  ("?x", p["emailAddress"], "?e")),
                           ("?x", "?e"), "?d"),
        templates.Template("M3", (("?x", p["worksFor"], "?d"),
                                  ("?x", p["teacherOf"], "?c")),
                           ("?x", "?c"), "?d"),
        templates.Template("M4", (("?x", p["advisor"], "?a"),
                                  ("?x", p["takesCourse"], "?c")),
                           ("?x", "?c"), "?a"),
    ]


class ServeHttp(Workload):
    name = "serve-http"
    layer = "service.http"
    connections = min(2, os.cpu_count() or 1)

    def generate(self) -> None:
        scale = SCALES[self.scale]
        self.store = lubm_store(scale["universities"])
        oracle = Oracle(self.store)
        rng = self.rng()
        low, high = scale["rows"]
        # Q6 stays out: its classes have 8 to 2917 instances, so the largest
        # text would hang on the draw.  The candidates are the same for
        # every seed; the seed picks among them.
        family = [template
                  for name, template in templates.lubm_templates().items()
                  if name != "Q6"] + size_spectrum_templates()
        pool_rng = np.random.default_rng(templates.POOL_SEED)
        pool = [bound for template in family
                for bound in templates.bind(oracle, template, pool_rng,
                                            scale["candidates"])
                if low <= bound.count <= high]
        pool.sort(key=lambda bound: (bound.count, bound.text))
        sizes = np.array([bound.count for bound in pool])
        # One text per quantile of the size-sorted pool, and popularity rank
        # k at a fixed quantile: the same spread of result sizes for every
        # seed.
        groups = strata(np.ones(len(pool)), scale["texts"])
        ranks = np.random.default_rng(DATA_SEED).permutation(len(groups))
        frequencies = np.array(zipf_frequencies(len(groups),
                                                scale["requests"]))
        # Rows per round is the denominator of ns_per_result, and a round's
        # wall time hardly depends on it (44 ms per request, whatever its
        # size): of 64 draws the seed keeps the one whose rows per round are
        # nearest the expected number, which holds them to 0.1 % where one
        # draw moved them 8 %.
        expected = sum(frequency * sizes[groups[rank]].mean()
                       for rank, frequency in zip(ranks, frequencies))
        draws = [[int(group[rng.integers(len(group))]) for group in groups]
                 for _ in range(64)]
        picks = min(draws, key=lambda draw: abs(
            float(frequencies @ sizes[np.array(draw)[ranks]]) - expected))
        texts = [pool[pick] for pick in picks]
        self.ops = []
        for rank, frequency in zip(ranks, frequencies):
            bound = texts[rank]
            body = json.dumps({"sparql": bound.text}).encode("utf-8")
            self.ops.extend(Op(bound.shape, body, bound.count, bound.digest)
                            for _ in range(frequency))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.distinct_texts = len(texts)

    def container(self):
        return self.workdir / "lubm.repro"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        index = IndexBuilder(self.store).build("2tp")
        self.num_triples = index.num_triples
        save_index(index, self.container(), aligned=True,
                   planner_stats=QueryPlanner.cardinalities_from_store(
                       self.store))
        self.port = procs.free_port()
        server = procs.spawn_repro(
            ["serve", str(self.container()), "--mmap", "--quiet",
             "--port", str(self.port)])
        self.processes.append(server)
        procs.wait_http_ready(self.port, server, "repro serve")

    def connect(self):
        return procs.HttpClient(self.port)

    def execute(self, op: Op, connection=None, spans=None):
        status, data = connection.post("/query", op.request, spans)
        if status != 200:
            raise RuntimeError(f"HTTP {status}")
        return data

    def count(self, op: Op, raw) -> int:
        return decode_rows(raw, "bindings")[0]

    def rows(self, op: Op, raw):
        return decode_rows(raw, "bindings")[1]

    def bits_per_triple(self) -> float:
        return procs.directory_bytes(self.workdir) * 8 / self.num_triples

    def describe(self) -> Dict:
        return {"triples": self.num_triples,
                "distinct_texts": self.distinct_texts,
                "connections": self.connections}

    # ------------------------------------------------------------------ #
    # Layer probes: service.cache/http/jsonio from outside, storage.*
    # ------------------------------------------------------------------ #

    def layer_rows(self, rows: Dict[str, tuple]) -> None:
        client = self.connect()
        try:
            before = client.get_json("/stats")["result_cache"]
            probe = play_round(self)
            after = client.get_json("/stats")["result_cache"]
        finally:
            client.close()
        lookups = (after["hits"] + after["misses"]
                   - before["hits"] - before["misses"])
        rows["service.cache_hit_ratio"] = (
            (after["hits"] - before["hits"]) / max(1, lookups), "ratio")
        round_trip_us = float(probe.latencies_ns.mean()) / 1e3

        # The same requests answered in this process: a cached execute and
        # the JSON encoding are what the server does besides HTTP.
        service = QueryService.from_file(self.container(), mmap=True)
        in_process_ns = 0
        response_bytes = 0
        for op in self.ops:
            text = json.loads(op.request)["sparql"]
            service.execute(text)
            started = time.perf_counter_ns()
            result = service.execute(text)
            payload = json.dumps(query_result_to_json(result)).encode("utf-8")
            in_process_ns += time.perf_counter_ns() - started
            response_bytes += len(payload)
        service.close()
        results = max(1, sum(op.count for op in self.ops))
        rows["service.http.bytes_per_result"] = (
            response_bytes / results, "bytes")
        rows["service.http.overhead_us"] = (
            round_trip_us - in_process_ns / len(self.ops) / 1e3, "us")

        index = IndexBuilder(self.store).build("2tp")
        scratch = self.workdir / "probe.repro"
        rows["storage.save_s"] = (quiet_seconds(
            lambda: save_index(index, scratch, aligned=True), repeats=3), "s")
        rows["storage.load_eager_s"] = (quiet_seconds(
            lambda: load_index(scratch), repeats=3), "s")
        rows["storage.load_mmap_s"] = (quiet_seconds(
            lambda: load_index(scratch, mmap=True), repeats=3), "s")
        rows["storage.container_bytes_per_triple"] = (
            scratch.stat().st_size / index.num_triples, "bytes")
        scratch.unlink()
