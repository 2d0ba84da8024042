"""Eager per-entity reference implementation of one propagation layer.

The oracle the batched tape layer (`propagation.layer_forward_tape`) is
tested against: every entity and relation sums its messages edge by edge
over its ascending neighbourhood (`checks.in_edges`, `out_edges`,
`relation_edges` below), with the closed-form score gradients of
`scorer_oracle` and the scalar degree normalizations below.
"""

from typing import Optional

import numpy as np

from kegcn.checks import _phi_eager, in_edges, out_edges
from kegcn.graph import KnowledgeGraph
from kegcn.propagation import EmbeddingState, LayerParams
from kegcn.scorers import Scorer
from scorer_oracle import gradients


def relation_edges(g: KnowledgeGraph, r: int) -> list:
    """(head, tail) of every edge labeled r, ascending."""
    mask = g.rels == r
    return sorted(zip(g.heads[mask].tolist(), g.tails[mask].tolist()))


def degree_norm(g: KnowledgeGraph, v: int, alpha: float) -> float:
    deg = int(g.in_degree[v] + g.out_degree[v])
    return alpha / deg if deg > 0 else 0.0


def relation_norm(g: KnowledgeGraph, r: int, alpha: float) -> float:
    deg = int(g.rel_degree[r])
    return alpha / deg if deg > 0 else 0.0


def _eager_edge_message(mode, scorer, state, u, r, v, position):
    """Message an entity receives from one incident edge (u, r, v);
    position says whether the receiver is the tail or the head."""
    ent, rel = state.entity, state.relation
    if mode == "kegcn":
        return gradients(scorer, ent[u], rel[r], ent[v])[2 if position == "tail" else 0]
    if mode.startswith("compgcn"):
        neighbor = ent[u] if position == "tail" else ent[v]
        return _phi_eager(mode, neighbor, rel[r])
    # rgcn / wgcn: the neighbor embedding itself
    return ent[u] if position == "tail" else ent[v]


def _apply_transform(g: np.ndarray, params: LayerParams, r: int) -> np.ndarray:
    if params.w_per_rel is not None:
        return g @ params.w_per_rel[r]
    if params.rel_scale is not None:
        return (params.rel_scale[r, 0] * g) @ params.w
    return g @ params.w


def entity_message(graph: KnowledgeGraph, state: EmbeddingState, scorer: Optional[Scorer],
                   v: int, params: LayerParams, mode: str = "kegcn") -> np.ndarray:
    """Transformed, degree-normalized message sum for one entity."""
    out_w = (params.w_per_rel if params.w is None else params.w).shape[-1]
    acc = np.zeros(out_w)
    for u, r in in_edges(graph, v):
        g = _eager_edge_message(mode, scorer, state, u, r, v, "tail")
        acc += _apply_transform(g, params, r)
    for u, r in out_edges(graph, v):
        g = _eager_edge_message(mode, scorer, state, v, r, u, "head")
        acc += _apply_transform(g, params, r)
    factor = 1.0 if params.alpha is None else degree_norm(graph, v, params.alpha)
    return factor * acc


def relation_message(graph: KnowledgeGraph, state: EmbeddingState, scorer: Optional[Scorer],
                     r: int, params: LayerParams, mode: str = "kegcn") -> np.ndarray:
    """Degree-normalized sum of d f / d h_r over the edges labeled r."""
    width = state.relation.shape[1]
    if mode != "kegcn":
        return np.zeros(width)
    acc = np.zeros(width)
    for u, v in relation_edges(graph, r):
        acc += gradients(scorer, state.entity[u], state.relation[r], state.entity[v])[1]
    factor = 1.0 if params.alpha is None else relation_norm(graph, r, params.alpha)
    return factor * acc


def layer_forward(graph: KnowledgeGraph, state: EmbeddingState, params: LayerParams,
                  scorer: Optional[Scorer], last: bool, mode: str = "kegcn") -> EmbeddingState:
    """Reference per-entity implementation of one synchronous layer, the
    last of its stack if `last`: relu inside the stack, identity on the
    last layer and on every compgcn relation."""
    w_self = params.w0 if params.w0 is not None else params.w
    new_ent = np.zeros((graph.num_entities, w_self.shape[1]))
    for v in range(graph.num_entities):
        pre = entity_message(graph, state, scorer, v, params, mode) + state.entity[v] @ w_self
        new_ent[v] = pre if last else np.maximum(pre, 0.0)
    new_rel = None
    if state.relation is not None and params.w_rel is not None:
        new_rel = np.zeros((graph.num_relations, params.w_rel.shape[1]))
        for r in range(graph.num_relations):
            if mode == "kegcn":
                mr = relation_message(graph, state, scorer, r, params, mode)
                pre = (mr + state.relation[r]) @ params.w_rel
            else:
                pre = state.relation[r] @ params.w_rel
            new_rel[r] = pre if last or mode.startswith("compgcn") else np.maximum(pre, 0.0)
    return EmbeddingState(new_ent, new_rel)
