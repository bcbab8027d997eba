"""``bgp-join``: SPARQL BGPs through ``QueryService.execute``, cache off.

Three in-process indexes (LUBM, WatDiv, the ``bench_wcoj`` Zipf graph) and
at least 240 distinct ops, a third each star, path and cyclic by wall time.
``queries`` (parser, planner, both engines) dominates, ``service`` adds the
result packing, and there are no sockets: the result cache is bypassed, as
if the working set never fitted it.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

import numpy as np

from repro import wire
from repro.core.builder import IndexBuilder
from repro.datasets import generate_lubm, generate_watdiv
from repro.queries import (
    ExecutionStatistics,
    QueryPlanner,
    choose_engine,
    parse_sparql,
    plan_variable_order,
    stream_bgp,
    stream_bgp_wcoj,
)
from repro.rdf.triples import TripleStore
from repro.service import QueryService
from repro.service.jsonio import query_result_to_json

from perfkit.harness import Op, Tracer, Workload, quiet
from perfkit.oracle import Oracle
from perfkit.workloads import templates

#: Fixed data-set seeds (see select_patterns.DATA_SEED for why).
DATA_SEED = 3
ZIPF_EXPONENT = 0.75
SHAPES = ("star", "path", "cyclic")

SCALES = {
    "tiny": dict(universities=1, watdiv=40, zipf=(1_500, 400), per_template=1),
    "small": dict(universities=1, watdiv=100, zipf=(4_000, 1_000),
                  per_template=2),
    "full": dict(universities=8, watdiv=900, zipf=(15_000, 4_000),
                 per_template=None),
}

#: Ops per template at full scale, set so that each shape is about a third
#: of a round's wall time on the seed commit (see README, "bgp-join").
FULL_COUNTS = {
    "Q1": 40, "Q4": 40, "Q5": 60, "Q6": 11, "S1": 40, "S2": 40, "S3": 40,
    "Q7": 30, "L1": 30, "L2": 30, "L3": 30, "F1": 20, "F2": 20, "C1": 30,
    "C2": 6, "chain": 20,
    "Q2": 30, "Q9": 30, "triangle": 30, "square": 8,
}


def zipf_graph(num_edges: int, num_nodes: int) -> TripleStore:
    """``bench_wcoj``'s hub-heavy directed multigraph over three predicates."""
    rng = np.random.default_rng(0)
    weights = np.arange(1, num_nodes + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    weights /= weights.sum()
    subjects = rng.choice(num_nodes, size=num_edges, p=weights)
    objects = rng.choice(num_nodes, size=num_edges, p=weights)
    predicates = rng.integers(0, 3, size=num_edges)
    dense, _ = TripleStore.from_columns(subjects, predicates,
                                        objects).densified()
    return dense


def lubm_store(universities: int) -> TripleStore:
    return generate_lubm(num_universities=universities, seed=DATA_SEED)


class BgpJoin(Workload):
    name = "bgp-join"
    layer = "service.execute"

    def generate(self) -> None:
        scale = SCALES[self.scale]
        self.stores = {
            "lubm": lubm_store(scale["universities"]),
            "watdiv": generate_watdiv(scale=scale["watdiv"],
                                      seed=DATA_SEED).store,
            "zipf": zipf_graph(*scale["zipf"]),
        }
        families = {"lubm": templates.lubm_templates(),
                    "watdiv": templates.watdiv_templates(),
                    "zipf": templates.zipf_templates()}
        rng = self.rng()
        self.ops = []
        for dataset, family in families.items():
            oracle = Oracle(self.stores[dataset])
            for name, template in family.items():
                wanted = scale["per_template"] or FULL_COUNTS[name]
                for bound in templates.bind(oracle, template, rng, wanted):
                    self.ops.append(Op(
                        bound.shape,
                        (dataset, bound.text, list(bound.projection),
                         bound.template),
                        bound.count, bound.digest))
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]

    def setup(self) -> None:
        self.indexes = {}
        self.planners = {}
        self.services = {}
        for dataset, store in self.stores.items():
            index = IndexBuilder(store).build("2tp")
            stats = QueryPlanner.cardinalities_from_store(store)
            self.indexes[dataset] = index
            self.planners[dataset] = QueryPlanner(cardinalities=stats)
            self.services[dataset] = QueryService(index, cardinalities=stats)

    def execute(self, op: Op, connection=None, spans=None):
        dataset, text = op.request[:2]
        return self.services[dataset].execute(text, use_cache=False)

    def count(self, op: Op, raw) -> int:
        return raw.count

    def rows(self, op: Op, raw):
        projection = op.request[2]
        return [[binding[v] for v in projection] for binding in raw.bindings]

    def bits_per_triple(self) -> float:
        indexes = self.indexes.values()
        return (sum(index.size_in_bits() for index in indexes)
                / sum(index.num_triples for index in indexes))

    def describe(self) -> Dict:
        shapes = [op.kind for op in self.ops]
        return {"triples": {name: index.num_triples
                            for name, index in self.indexes.items()},
                "ops_per_shape": {s: shapes.count(s) for s in SHAPES}}

    # ------------------------------------------------------------------ #
    # The ladder beneath one op, called the way the service calls it.
    # ------------------------------------------------------------------ #

    def _ladder(self, op: Op) -> Tuple[Tuple[int, int, int, int],
                                       ExecutionStatistics, int]:
        """parse -> plan -> execute with the ``auto`` engine; returns the
        four timestamps between them, the engine's counters and the number
        of solutions."""
        dataset, text = op.request[:2]
        index, planner = self.indexes[dataset], self.planners[dataset]
        counters = ExecutionStatistics()
        clock = time.perf_counter_ns
        t0 = clock()
        query = parse_sparql(text)
        t1 = clock()
        if choose_engine(query.bgp) == "wcoj":
            order = plan_variable_order(query.bgp, planner)
            t2 = clock()
            solutions = list(stream_bgp_wcoj(
                index, query, planner=planner, variable_order=order,
                statistics=counters))
        else:
            positions, _cartesian = planner.plan_order(query.bgp)
            plan = [query.bgp.templates[i] for i in positions]
            t2 = clock()
            solutions = list(stream_bgp(
                index, query, planner=planner, plan=plan,
                statistics=counters))
        t3 = clock()
        return (t0, t1, t2, t3), counters, len(solutions)

    def replay_layers(self, op: Op, tracer: Tracer, index: int) -> None:
        (t0, t1, t2, t3), _counters, _count = self._ladder(op)
        tracer.replayed(index, [("queries.parse", t0, t1),
                                ("queries.plan", t1, t2),
                                ("queries.execute", t2, t3)])

    def layer_rows(self, rows: Dict[str, tuple]) -> None:
        repeats = 3
        parse, plan, execute, cold, hit = [], [], [], [], []
        forced: Dict[Tuple[str, str], List[float]] = {}
        seeks = blocks = matched = results = 0
        encode_s = wire_encode_s = wire_decode_s = 0.0
        encoded_rows = 0
        for op in self.ops:
            dataset, text = op.request[:2]
            index, planner = self.indexes[dataset], self.planners[dataset]
            service = self.services[dataset]
            ladders = [self._ladder(op) for _ in range(repeats)]
            stamps = np.array([l[0] for l in ladders], dtype=np.int64)
            steps = quiet(np.diff(stamps, axis=1))
            parse.append(steps[0])
            plan.append(steps[1])
            execute.append(steps[2])
            counters = ladders[0][1]
            seeks += counters.seeks
            blocks += counters.blocks_decoded
            matched += counters.triples_matched
            results += ladders[0][2]

            query = parse_sparql(text)
            # Once each: nested on a cyclic op is the slowest call here.
            for engine in ("nested", "wcoj"):
                started = time.perf_counter_ns()
                list(stream_bgp(index, query, planner=planner, engine=engine))
                forced.setdefault((engine, op.kind), []).append(
                    time.perf_counter_ns() - started)

            def timed(**options):
                times = []
                for _ in range(repeats):
                    started = time.perf_counter_ns()
                    result = service.execute(text, **options)
                    times.append(time.perf_counter_ns() - started)
                return float(quiet(times)), result
            cold_ns, result = timed(use_cache=False)
            cold.append(cold_ns)
            service.execute(text)  # fill the result cache
            hit_ns, cached = timed()
            if not cached.cached:
                raise RuntimeError("a repeated query missed the result cache")
            hit.append(hit_ns)

            started = time.perf_counter()
            json.dumps(query_result_to_json(result))
            encode_s += time.perf_counter() - started
            started = time.perf_counter()
            payload = wire.encode_bindings(result.variables, result.bindings)
            middle = time.perf_counter()
            wire.decode_bindings(payload)
            wire_decode_s += time.perf_counter() - middle
            wire_encode_s += middle - started
            encoded_rows += result.count

        def mean_us(values) -> float:
            return float(np.mean(values)) / 1e3
        rows["queries.parse_us"] = (mean_us(parse), "us")
        rows["queries.plan_us"] = (mean_us(plan), "us")
        for (engine, shape), values in sorted(forced.items()):
            rows[f"queries.{engine}.exec_us.{shape}"] = (mean_us(values), "us")
        results = max(1, results)
        rows["queries.seeks_per_result"] = (seeks / results, "count")
        rows["queries.blocks_per_result"] = (blocks / results, "count")
        rows["queries.matched_per_result"] = (matched / results, "count")
        rows["service.execute_cold_us"] = (mean_us(cold), "us")
        rows["service.overhead_us"] = (
            mean_us(cold) - mean_us(parse) - mean_us(plan) - mean_us(execute),
            "us")
        rows["service.cache_hit_us"] = (mean_us(hit), "us")
        encoded_rows = max(1, encoded_rows)
        rows["service.jsonio.encode_us_per_row"] = (
            encode_s / encoded_rows * 1e6, "us")
        rows["wire.encode_us_per_row"] = (
            wire_encode_s / encoded_rows * 1e6, "us")
        rows["wire.decode_us_per_row"] = (
            wire_decode_s / encoded_rows * 1e6, "us")
