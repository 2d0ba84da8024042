"""Immutable multi-relational directed graph with the three neighborhood
indices the propagation layer iterates over."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class GraphError(ValueError):
    """Invalid triple data handed to the graph builder."""


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class KnowledgeGraph:
    """Deduplicated triple set plus per-entity and per-relation indices.

    in_adj[v] lists (head, relation) over edges into v; out_adj[v] lists
    (tail, relation) over edges out of v; rel_index[r] lists (head, tail)
    over edges labeled r.  All lists ascend lexicographically and the
    canonical triple order is ascending (head, relation, tail), so every
    aggregation downstream has one fixed summation order.

    flat_cache[name] holds the flat scatter positions of the index array
    `name` (heads, tails or rels), one entry per (width, planes) layout,
    filled by the tape on first use (see `autodiff.scatter_add`).
    """

    def __init__(self, num_entities: int, num_relations: int, triples):
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.triples = tuple(triples)
        self.heads = np.array([t.head for t in self.triples], dtype=np.int64)
        self.rels = np.array([t.relation for t in self.triples], dtype=np.int64)
        self.tails = np.array([t.tail for t in self.triples], dtype=np.int64)
        self.flat_cache = {"heads": {}, "tails": {}, "rels": {}}
        in_adj = [[] for _ in range(self.num_entities)]
        out_adj = [[] for _ in range(self.num_entities)]
        rel_index = [[] for _ in range(self.num_relations)]
        for h, r, t in self.triples:
            in_adj[t].append((h, r))
            out_adj[h].append((t, r))
            rel_index[r].append((h, t))
        self.in_adj = tuple(tuple(sorted(lst)) for lst in in_adj)
        self.out_adj = tuple(tuple(sorted(lst)) for lst in out_adj)
        self.rel_index = tuple(tuple(sorted(lst)) for lst in rel_index)
        self.in_degree = np.array([len(a) for a in self.in_adj], dtype=np.int64)
        self.out_degree = np.array([len(a) for a in self.out_adj], dtype=np.int64)
        self.rel_degree = np.array([len(a) for a in self.rel_index], dtype=np.int64)

    @property
    def num_triples(self) -> int:
        return len(self.triples)


def build_graph(triples, num_entities: int, num_relations: int) -> KnowledgeGraph:
    seen = set()
    clean = []
    for i, t in enumerate(triples):
        h, r, v = int(t[0]), int(t[1]), int(t[2])
        if not (0 <= h < num_entities and 0 <= v < num_entities):
            raise GraphError(f"triple {i}: entity id out of range in ({h},{r},{v})")
        if not (0 <= r < num_relations):
            raise GraphError(f"triple {i}: relation id out of range in ({h},{r},{v})")
        key = (h, r, v)
        if key not in seen:
            seen.add(key)
            clean.append(Triple(h, r, v))
    clean.sort()
    return KnowledgeGraph(num_entities, num_relations, clean)


def entity_norm_factors(g: KnowledgeGraph, alpha: float) -> np.ndarray:
    """Per-entity alpha/(|N_in|+|N_out|) column, zero where isolated."""
    deg = g.in_degree + g.out_degree
    out = np.zeros(g.num_entities, dtype=np.float64)
    np.divide(alpha, deg, out=out, where=deg > 0)
    return out


def relation_norm_factors(g: KnowledgeGraph, alpha: float) -> np.ndarray:
    out = np.zeros(g.num_relations, dtype=np.float64)
    np.divide(alpha, g.rel_degree, out=out, where=g.rel_degree > 0)
    return out
