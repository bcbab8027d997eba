"""BGP templates re-bound to sampled IDs, shared by four workloads.

The shapes are the repo's own LUBM and WatDiv query logs plus the
``bench_wcoj`` triangle / square / chain.  Each template names one *anchor*
variable; an op is the template with the anchor replaced by a concrete ID
(and dropped from the projection), so one template yields as many distinct
ops as it has anchor values.  Anchors are picked with
:func:`perfkit.oracle.stratified_pick`, weighted by how many triples the
anchor value has in the template's first pattern that mentions it — a cheap
stand-in for the op's cost that keeps the cost profile seed-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.lubm import LUBM_PREDICATES
from repro.queries import lubm_query_log, watdiv_query_log

from perfkit.oracle import is_variable, rows_digest, stratified_pick

Terms = Tuple  # (subject, predicate, object); a str is a variable

#: Seed of the candidate pools that do not depend on ``--seed``.
POOL_SEED = 3


@dataclass(frozen=True)
class Template:
    name: str
    patterns: Tuple[Terms, ...]
    projection: Tuple[str, ...]
    anchor: str
    #: Anchor values with more triples than this are not candidates (the
    #: hubs of a skewed graph, whose cycles number in the tens of thousands).
    max_weight: int = 1 << 62
    #: Where the anchor's triple count says little about the op's cost, bind
    #: a pool of this many candidates — the same pool for every seed — and
    #: let the seed pick from it stratified on the oracle's row count.
    pool: int = 0
    #: Pool members returning more rows than this are dropped.
    max_rows: int = 1 << 62


@dataclass(frozen=True)
class BoundQuery:
    """A template with its anchor bound, plus the oracle's answer."""

    template: str
    shape: str           # star | path | cyclic
    text: str            # SPARQL over integer IDs
    projection: Tuple[str, ...]
    count: int
    digest: int


#: Anchor variable per log template: the variable whose binding keeps the
#: query connected and leaves at least one variable free.
_ANCHORS = {
    "Q1": "?c", "Q2": "?k", "Q4": "?d", "Q5": "?d", "Q7": "?z", "Q9": "?k",
    "L1": "?u", "L2": "?u", "L3": "?g", "S1": "?f", "S2": "?g", "S3": "?p",
    "F1": "?g", "F2": "?rt", "C1": "?u", "C2": "?g",
}

#: Binding any variable of a triangle opens it, so the two cyclic LUBM
#: queries are anchored through one extra pattern instead: the students of
#: one advisor (Q2), the professors of one department (Q9).
_EXTRA_PATTERNS = {
    "Q2": ("?x", LUBM_PREDICATES["advisor"], "?k"),
    "Q9": ("?y", LUBM_PREDICATES["worksFor"], "?k"),
}


def _from_log(queries) -> Dict[str, Template]:
    templates = {}
    for query in queries:
        anchor = _ANCHORS.get(query.name)
        if anchor is None:
            continue
        patterns = [t.terms() for t in query.bgp]
        if query.name in _EXTRA_PATTERNS:
            patterns.append(_EXTRA_PATTERNS[query.name])
        templates[query.name] = Template(
            query.name, tuple(patterns), tuple(query.projection), anchor)
    return templates


def lubm_templates() -> Dict[str, Template]:
    templates = _from_log(lubm_query_log())
    # Q6/Q14 are one pattern with a class constant; re-binding that constant
    # is anchoring the class of "?x type ?class".
    templates["Q6"] = Template(
        "Q6", (("?x", LUBM_PREDICATES["type"], "?class"),), ("?x",), "?class")
    return templates


def watdiv_templates() -> Dict[str, Template]:
    return _from_log(watdiv_query_log())


def zipf_templates() -> Dict[str, Template]:
    """``bench_wcoj``'s shapes; the cycles are rooted at the predecessors of
    one node (an extra pattern), which keeps them cycles."""
    return {
        "triangle": Template(
            "triangle", (("?a", 0, "?b"), ("?b", 0, "?c"), ("?c", 0, "?a"),
                         ("?a", 1, "?k")), ("?a", "?b", "?c"), "?k",
            max_weight=4, pool=400),
        "square": Template(
            "square", (("?a", 0, "?b"), ("?b", 1, "?c"), ("?c", 0, "?d"),
                       ("?d", 1, "?a"), ("?a", 2, "?k")),
            ("?a", "?b", "?c", "?d"), "?k", max_weight=4, pool=120,
            max_rows=600),
        "chain": Template(
            "chain", (("?a", 0, "?b"), ("?b", 1, "?c")), ("?b", "?c"), "?a",
            pool=200),
    }


def shape_of(patterns: Sequence[Terms]) -> str:
    """``star`` (every pattern has the same subject), ``cyclic`` (the
    pattern/variable incidence graph has a cycle) or ``path`` (the rest)."""
    if len({terms[0] for terms in patterns}) == 1:
        return "star"
    parent: Dict = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node
    for position, terms in enumerate(patterns):
        for variable in {term for term in terms if is_variable(term)}:
            a, b = find(position), find(variable)
            if a == b:
                return "cyclic"
            parent[a] = b
    return "path"


def render(patterns: Sequence[Terms], projection: Sequence[str]) -> str:
    body = " . ".join(" ".join(str(term) for term in terms)
                      for terms in patterns)
    return f"SELECT {' '.join(projection)} WHERE {{ {body} }}"


def anchor(oracle, template: Template, rng: np.random.Generator, count: int
           ) -> List[Tuple[Tuple[Terms, ...], Tuple[str, ...]]]:
    """Up to ``count`` distinct ``(patterns, projection)`` of one template,
    its anchor bound to values drawn from ``oracle``'s data."""
    first = next(terms for terms in template.patterns
                 if template.anchor in terms)
    role = first.index(template.anchor)
    probe = tuple(None if is_variable(term) else term for term in first)
    values, weights = np.unique(oracle.rows(probe)[:, role],
                                return_counts=True)
    light = weights <= template.max_weight
    values, weights = values[light], weights[light]
    # Fewer candidates than wanted: all of them, whatever the seed.
    picks = (range(len(values)) if count >= len(values)
             else stratified_pick(rng, weights, count))
    anchored = []
    for pick in picks:
        value = int(values[pick])
        patterns = tuple(
            tuple(value if term == template.anchor else term
                  for term in terms) for terms in template.patterns)
        projection = tuple(v for v in template.projection
                           if v != template.anchor)
        if not projection:
            projection = tuple(dict.fromkeys(
                term for terms in patterns for term in terms
                if is_variable(term)))
        anchored.append((patterns, projection))
    return anchored


def answer(source, name: str, patterns: Sequence[Terms],
           projection: Sequence[str]) -> BoundQuery:
    """The bound query with what ``source`` (an oracle) says it returns."""
    size, digest = rows_digest(source.evaluate(patterns, projection))
    return BoundQuery(name, shape_of(patterns), render(patterns, projection),
                      tuple(projection), size, digest)


def bind(oracle, template: Template, rng: np.random.Generator, count: int
         ) -> List[BoundQuery]:
    """Up to ``count`` distinct bound queries of one template, answered."""
    if not template.pool:
        return [answer(oracle, template.name, patterns, projection)
                for patterns, projection in anchor(oracle, template, rng,
                                                   count)]
    pool = [answer(oracle, template.name, patterns, projection)
            for patterns, projection in anchor(
                oracle, template, np.random.default_rng(POOL_SEED),
                template.pool)]
    pool = [query for query in pool if query.count <= template.max_rows]
    sizes = np.array([query.count + 1 for query in pool])
    return [pool[i] for i in stratified_pick(rng, sizes, count)]
