"""Independent answers: what every op of every workload must return.

The triples come from one full scan of the repo's
``VerticalPartitioningIndex`` (the baseline ROADMAP keeps as the sole
oracle).  Its own ``select`` scans a whole predicate table for every
object-bound pattern (0.7 s per ``??O`` on 83 k triples), so patterns are
matched here instead, over three sorted copies of that scan.  BGPs are joined
by :meth:`Oracle.evaluate` (whole columns of solutions at a time) or, on the
mutable :class:`LiveModel`, by the plain nested loop of
:func:`evaluate_bgp`; neither shares code with ``repro.queries``.

A result is compared by row count and an order-independent hash: the sum
(mod 2**64) of one 64-bit hash per row.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import VerticalPartitioningIndex

Pattern = Tuple[Optional[int], Optional[int], Optional[int]]
Digest = Tuple[int, int]

#: Bits per component in a packed sort key; every generated ID stays below.
_SHIFT = 21

#: Sort orders and the bound-role sets each answers with one key range.
_ORDERS = {"spo": (0, 1, 2), "pos": (1, 2, 0), "osp": (2, 0, 1)}
_ORDER_FOR = {(): "spo", (0,): "spo", (0, 1): "spo", (0, 1, 2): "spo",
              (1,): "pos", (1, 2): "pos", (2,): "osp", (0, 2): "osp"}


def row_hashes(rows: np.ndarray) -> np.ndarray:
    """One 64-bit hash per row of an ``(n, width)`` integer array."""
    hashes = np.full(len(rows), 0x9E3779B97F4A7C15, dtype=np.uint64)
    for column in rows.T.astype(np.uint64):
        hashes = (hashes ^ column) * np.uint64(0xBF58476D1CE4E5B9)
        hashes ^= hashes >> np.uint64(29)
    return hashes


def rows_digest(rows: Sequence[Sequence[int]]) -> Digest:
    """``(count, order-independent hash)`` of a list of equal-width rows."""
    if len(rows) == 0:
        return 0, 0
    array = np.asarray(rows, dtype=np.int64).reshape(len(rows), -1)
    return len(rows), int(row_hashes(array).sum(dtype=np.uint64))


def is_variable(term) -> bool:
    return isinstance(term, str)


class Oracle:
    """Every triple of the VP index, sorted three ways."""

    def __init__(self, store):
        scan = VerticalPartitioningIndex(store).select((None, None, None))
        triples = np.array(list(scan), dtype=np.int64)
        if int(triples.max()) >= 1 << _SHIFT:
            raise ValueError("an ID does not fit the oracle's packed keys")
        self.num_triples = len(triples)
        self._keys: Dict[str, np.ndarray] = {}
        self._rows: Dict[str, np.ndarray] = {}
        self._hash_sums: Dict[str, np.ndarray] = {}
        for name, order in _ORDERS.items():
            keys = ((triples[:, order[0]] << (2 * _SHIFT))
                    | (triples[:, order[1]] << _SHIFT) | triples[:, order[2]])
            permutation = np.argsort(keys, kind="stable")
            rows = triples[permutation]
            self._keys[name] = keys[permutation]
            self._rows[name] = rows
            self._hash_sums[name] = np.concatenate(
                [np.zeros(1, dtype=np.uint64),
                 np.cumsum(row_hashes(rows), dtype=np.uint64)])

    def _range(self, pattern: Pattern) -> Tuple[str, int, int]:
        bound = tuple(role for role in range(3) if pattern[role] is not None)
        name = _ORDER_FOR[bound]
        prefix = [pattern[role] for role in _ORDERS[name][:len(bound)]]
        low = 0
        for value in prefix:
            low = (low << _SHIFT) | int(value)
        free = _SHIFT * (3 - len(prefix))
        keys = self._keys[name]
        begin = int(np.searchsorted(keys, low << free, side="left"))
        end = int(np.searchsorted(keys, (low + 1) << free, side="left"))
        return name, begin, end

    def rows(self, pattern: Pattern) -> np.ndarray:
        """Matching triples as an ``(n, 3)`` array in (s, p, o) columns."""
        name, begin, end = self._range(pattern)
        return self._rows[name][begin:end]

    def match(self, pattern: Pattern) -> List[List[int]]:
        return self.rows(pattern).tolist()

    def count(self, pattern: Pattern) -> int:
        _name, begin, end = self._range(pattern)
        return end - begin

    def digest(self, pattern: Pattern) -> Digest:
        name, begin, end = self._range(pattern)
        sums = self._hash_sums[name]
        return end - begin, (int(sums[end]) - int(sums[begin])) % (1 << 64)

    def evaluate(self, patterns: Sequence[Tuple], projection: Sequence[str]
                 ) -> np.ndarray:
        """The solutions of a BGP, projected, as an ``(n, width)`` array.

        The same join order as :func:`evaluate_bgp`, but every step extends
        all partial solutions at once: one vectorised key-range lookup per
        pattern instead of one per solution.
        """
        columns: Dict[str, np.ndarray] = {}
        size = 1  # the one empty solution
        remaining = list(patterns)
        while remaining:
            template = min(remaining, key=lambda terms: _join_cost(
                self, terms, columns))
            remaining.remove(template)
            bound = tuple(role for role, term in enumerate(template)
                          if not is_variable(term) or term in columns)
            name = _ORDER_FOR[bound]
            low = np.zeros(size, dtype=np.int64)
            for role in _ORDERS[name][:len(bound)]:
                term = template[role]
                low = (low << _SHIFT) | (columns[term] if is_variable(term)
                                         else term)
            free = _SHIFT * (3 - len(bound))
            keys = self._keys[name]
            begin = np.searchsorted(keys, low << free, side="left")
            counts = np.searchsorted(keys, (low + 1) << free,
                                     side="left") - begin
            first = np.cumsum(counts) - counts
            within = np.arange(int(counts.sum())) - np.repeat(first, counts)
            matched = self._rows[name][np.repeat(begin, counts) + within]
            parent = np.repeat(np.arange(size), counts)
            columns = {v: column[parent] for v, column in columns.items()}
            keep = np.ones(len(parent), dtype=bool)
            for role, term in enumerate(template):
                if is_variable(term) and role not in bound:
                    if term in columns:  # the variable twice in one pattern
                        keep &= columns[term] == matched[:, role]
                    else:
                        columns[term] = matched[:, role]
            if not keep.all():
                columns = {v: column[keep] for v, column in columns.items()}
            size = int(keep.sum())
        return np.stack([columns[v] for v in projection], axis=1)

    def groups(self, bound: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Every distinct pattern binding exactly ``bound``, with its match
        count: ``(patterns, counts)``, wildcards as ``-1``."""
        name = _ORDER_FOR[bound]
        free = _SHIFT * (3 - len(bound))
        _, first, counts = np.unique(self._keys[name] >> free,
                                     return_index=True, return_counts=True)
        patterns = self._rows[name][first].copy()
        for role in range(3):
            if role not in bound:
                patterns[:, role] = -1
        return patterns, counts


class LiveModel:
    """A mutable triple set mirroring a workload's writes.

    Answers the pattern shapes ``update-mix`` reads with (subject-bound, or
    predicate and object bound) from two hash indexes.
    """

    def __init__(self, triples: Iterable[Sequence[int]]):
        self._by_subject = defaultdict(set)
        self._by_pair = defaultdict(set)
        self.num_triples = 0
        self.insert(triples)

    def __contains__(self, triple) -> bool:
        s, p, o = triple
        return (p, o) in self._by_subject.get(s, ())

    def insert(self, triples: Iterable[Sequence[int]]) -> int:
        applied = 0
        for s, p, o in triples:
            if (p, o) not in self._by_subject[s]:
                self._by_subject[s].add((p, o))
                self._by_pair[(p, o)].add(s)
                applied += 1
        self.num_triples += applied
        return applied

    def delete(self, triples: Iterable[Sequence[int]]) -> int:
        applied = 0
        for s, p, o in triples:
            if (p, o) in self._by_subject.get(s, ()):
                self._by_subject[s].discard((p, o))
                self._by_pair[(p, o)].discard(s)
                applied += 1
        self.num_triples -= applied
        return applied

    def match(self, pattern: Pattern) -> List[List[int]]:
        s, p, o = pattern
        if s is not None:
            return [[s, q, r] for q, r in self._by_subject.get(s, ())
                    if (p is None or p == q) and (o is None or o == r)]
        if p is not None and o is not None:
            return [[t, p, o] for t in self._by_pair.get((p, o), ())]
        raise ValueError(f"LiveModel cannot answer the pattern {pattern}")

    def count(self, pattern: Pattern) -> int:
        s, p, o = pattern
        if s is None and (p is None or o is None):
            return self.num_triples  # no index for it: as bad as a scan
        return len(self.match(pattern))

    def digest(self, pattern: Pattern) -> Digest:
        return rows_digest(self.match(pattern))

    def evaluate(self, patterns: Sequence[Tuple], projection: Sequence[str]
                 ) -> List[List[int]]:
        return evaluate_bgp(self, patterns, projection)


def _join_cost(source, terms: Tuple, bound_variables) -> Tuple[int, int]:
    """Join-order key: most bound positions first, then the fewest matches
    of the pattern's constants alone — which keeps intermediates small."""
    bound = sum(not is_variable(term) or term in bound_variables
                for term in terms)
    constants = tuple(None if is_variable(term) else term for term in terms)
    return -bound, source.count(constants)


def evaluate_bgp(source, patterns: Sequence[Tuple], projection: Sequence[str]
                 ) -> List[List[int]]:
    """Join ``patterns`` over ``source.match`` and project the solutions.

    ``patterns`` are ``(s, p, o)`` term triples, a ``str`` being a variable.
    A nested-loop join, one ``source.match`` per partial solution.
    """
    solutions: List[Dict[str, int]] = [{}]
    bound_variables: set = set()
    remaining = list(patterns)
    while remaining:
        template = min(remaining, key=lambda terms: _join_cost(
            source, terms, bound_variables))
        remaining.remove(template)
        extended = []
        for solution in solutions:
            probe = tuple(solution.get(term) if is_variable(term) else term
                          for term in template)
            for triple in source.match(probe):
                candidate = dict(solution)
                for term, value in zip(template, triple):
                    if is_variable(term) and candidate.setdefault(
                            term, value) != value:
                        break
                else:
                    extended.append(candidate)
        solutions = extended
        bound_variables.update(t for t in template if is_variable(t))
    return [[solution[variable] for variable in projection]
            for solution in solutions]


def strata(weights: np.ndarray, count: int) -> List[np.ndarray]:
    """Candidates sorted by weight and cut into ``count`` groups of equal
    total weight (as indexes into ``weights``).  A candidate heavier than a
    whole group leaves its neighbours empty, and those are dropped: fewer
    groups, but the same ones for every seed."""
    weights = np.asarray(weights, dtype=np.float64)
    order = np.argsort(weights, kind="stable")
    cumulative = np.cumsum(weights[order])
    cuts = cumulative[-1] * np.arange(1, count) / count
    edges = np.concatenate(
        [[0], np.searchsorted(cumulative, cuts, side="left"), [len(order)]])
    return [order[low:high] for low, high in zip(edges[:-1], edges[1:])
            if high > low]


def stratified_pick(rng: np.random.Generator, weights: np.ndarray,
                    count: int) -> List[int]:
    """Pick candidates so the weight profile is the same for every seed:
    the seed picks one candidate inside each of :func:`strata`'s groups.

    The picks are distinct and weight-biased (heavy candidates are picked as
    often as uniform sampling of the underlying triples would), yet their
    sorted weights barely move with the seed — so a workload's cost profile
    is a property of the data set, not of the draw.
    """
    return [int(group[rng.integers(len(group))])
            for group in strata(weights, count)]
