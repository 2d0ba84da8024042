"""Immutable multi-relational directed graph: the deduplicated triples as
three int64 index columns in canonical order, plus the degree counts the
propagation layer normalizes by."""

from __future__ import annotations

import numpy as np

from .autodiff import FlatCache


class GraphError(ValueError):
    """Invalid triple data handed to the graph builder."""


class KnowledgeGraph:
    """Distinct triples as the columns heads, rels and tails, ascending in
    canonical (head, relation, tail) order, so every aggregation
    downstream has one fixed summation order; in_degree, out_degree and
    rel_degree count the edges into, out of and labeled by each id.

    flat_cache[name] holds the flat scatter positions of the index array
    `name` (heads, tails or rels), one entry per plane width, filled by
    the tape on first use (see `autodiff.scatter_add`), and its id count.
    """

    def __init__(self, num_entities: int, num_relations: int, heads: np.ndarray,
                 rels: np.ndarray, tails: np.ndarray):
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.heads, self.rels, self.tails = heads, rels, tails
        n, rn = self.num_entities, self.num_relations
        self.flat_cache = {"heads": FlatCache(n), "tails": FlatCache(n), "rels": FlatCache(rn)}
        for name, cache in self.flat_cache.items():   # once for every tape op on them
            ids = getattr(self, name)
            if ids.size and (ids.min() < 0 or ids.max() >= cache.rows):
                raise GraphError(f"{name} id outside [0, {cache.rows})")
        self.in_degree = np.bincount(tails, minlength=self.num_entities)
        self.out_degree = np.bincount(heads, minlength=self.num_entities)
        self.rel_degree = np.bincount(rels, minlength=self.num_relations)
        self.norm_columns: dict = {}

    def norm_column(self, alpha: float, factor: int, entity: bool) -> np.ndarray:
        """factor * alpha / degree (edges in and out of each entity, or on each
        relation) as one column, zero where the degree is 0; built once."""
        key = (alpha, factor, entity)
        if key not in self.norm_columns:
            deg = (self.in_degree + self.out_degree if entity else self.rel_degree)[:, None]
            norm = np.divide(alpha, deg, out=np.zeros(deg.shape), where=deg > 0)
            self.norm_columns[key] = factor * norm
        return self.norm_columns[key]

    @property
    def num_triples(self) -> int:
        return len(self.heads)


def build_graph(triples, num_entities: int, num_relations: int) -> KnowledgeGraph:
    """Graph over (head, relation, tail) rows; the first row holding an
    out-of-range id (entities checked before the relation) is reported."""
    try:
        rows = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        raise GraphError("triple id out of range: beyond 64 bits") from None
    ends = rows[:, ::2]
    if rows.size and not (rows.min() >= 0 and ends.max() < num_entities
                          and rows[:, 1].max() < num_relations):
        bad_entity = ((ends < 0) | (ends >= num_entities)).any(axis=1)
        bad_relation = (rows[:, 1] < 0) | (rows[:, 1] >= num_relations)
        i = int(np.flatnonzero(bad_entity | bad_relation)[0])
        h, r, v = rows[i].tolist()
        what = "entity" if bad_entity[i] else "relation"
        raise GraphError(f"triple {i}: {what} id out of range in ({h},{r},{v})")
    n, rn = int(num_entities), int(num_relations)
    if n * rn * n > 2 ** 63:   # then the rows are sorted as (head, relation, tail) tuples
        rows = rows[np.lexsort(rows.T[::-1])]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return KnowledgeGraph(n, rn, *(np.ascontiguousarray(c) for c in rows[first].T))
    keys = (rows[:, 0] * rn + rows[:, 1]) * n + rows[:, 2]   # in (head, relation, tail) order
    keys.sort()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys
    heads, rest = np.divmod(keys, rn * n)
    return KnowledgeGraph(n, rn, heads, *np.divmod(rest, n))

