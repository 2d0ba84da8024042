"""Numerical verification harnesses: finite-difference suites for the
scorers' messages and whole-model training gradients, and the printed
baseline layers the reduction modes are checked against, which sum per
entity over the ascending neighbourhoods below.  These are the checks the
test suite and the `gradcheck` / `verify-reductions` CLI subcommands run.
The finite differences take the production gradients as they are; the
baseline layers avoid the code paths they are checking.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .autodiff import ForwardTape, Tape, fd_error, finite_diff_check
from .graph import KnowledgeGraph, build_graph
from .numerics import RandomSource, truncated_normal_fill
from .propagation import (REDUCTION_MODES, EmbeddingState, LayerParams, ModelConfig,
                          config_scorer, forward_on_tape, init_params, init_state,
                          lift_params, model_forward)
from .scorers import Scorer, make_scorer
from .synthetic import random_triples
from .tasks import (LabelSet, alignment_loss, classification_loss, named_parameters,
                    sample_negatives)


def _sample_triple(scorer: Scorer, rng: RandomSource):
    u = rng.normal(scorer.entity_width)
    r = rng.normal(scorer.relation_width)
    # keep projected relation tuples away from the modulus reset so the
    # score stays smooth at the probe point
    while scorer.planes > 1 and np.any(
            np.linalg.norm(r.reshape(-1, scorer.planes), axis=1) < 0.3):
        r = rng.normal(scorer.relation_width)
    v = rng.normal(scorer.entity_width)
    return u, r, v


def message_gradients(scorer: Scorer, u, r, v) -> list:
    """Gradients of scorer.score at one interleaved (u, r, v) triple with
    respect to each argument, from `messages` on a one-row tape."""
    k = scorer.planes
    tape = ForwardTape()
    rows = [tape.leaf(x[None] if k == 1 else x.reshape(1, -1, k).transpose(2, 0, 1))
            for x in (u, r, v)]
    return [(g.value if k == 1 else g.value.transpose(1, 2, 0)).reshape(-1)
            for g in scorer.messages(tape, *rows)]


def scorer_gradient_fd(kind: str, dim: int = 4, n_points: int = 100, seed: int = 0,
                       eps: float = 1e-5, rel_floor: float = 1e-2) -> float:
    """Worst floored relative error of the three gradients `messages`
    computes for one scorer against central differences of its score,
    over n_points random smooth points."""
    scorer = make_scorer(kind, dim)
    rng = RandomSource(seed)
    worst = 0.0
    for _ in range(n_points):
        u, r, v = _sample_triple(scorer, rng)
        worst = max(worst, fd_error(lambda args: scorer.score(*args), [u, r, v],
                                    message_gradients(scorer, u, r, v), eps, rel_floor))
    return worst


END_TO_END_TASKS = ("alignment", "multiclass", "multilabel")


def end_to_end_gradient_fd(task: str, scorer_kind: str, mode: str = "kegcn",
                           dim: int = 4, layers: int = 2, seed: int = 0,
                           max_coords: int = 40) -> float:
    """Finite-difference check of the full training gradient: graph layers
    stacked on trainable embedding tables, through one task loss.  Probes
    every parameter tensor (subsampled coordinates) on a 10-entity,
    3-relation instance and returns the worst floored relative error.

    Central differences only certify a gradient where the loss is smooth,
    so instances whose relu or abs inputs sit within 3e-4 of a kink are
    redrawn from the next seed before probing."""
    fn, point = _build_end_to_end(task, scorer_kind, mode, dim, layers, seed)
    for bump in range(1, 50):
        if _kink_margin(fn, point) > 3e-4:
            break
        fn, point = _build_end_to_end(task, scorer_kind, mode, dim, layers,
                                      seed + bump)
    return finite_diff_check(fn, point, max_coords=max_coords)


class _KinkTape(Tape):
    """A Tape that keeps the distance of the closest relu or abs input to
    its kink at zero (a Tape keeps no input that no vjp needs)."""

    margin = np.inf

    def _kink(self, x):
        self.margin = min(self.margin, float(np.abs(x.value).min(initial=np.inf)))
        return x

    def relu(self, x):
        return super().relu(self._kink(x))

    def abs(self, x):
        return super().abs(self._kink(x))


def _kink_margin(fn, point) -> float:
    """Distance of the closest relu or abs input to its kink at zero."""
    tape = _KinkTape()
    fn(tape, *[tape.leaf(np.asarray(p)) for p in point])
    return tape.margin


def _build_end_to_end(task: str, scorer_kind: str, mode: str, dim: int,
                      layers: int, seed: int):
    if task not in END_TO_END_TASKS:
        raise ValueError(f"unknown task {task!r}")
    n, r = 10, 3
    rng = RandomSource(seed)
    g1 = build_graph(random_triples(n, r, 25, rng), n, r)
    out_dim = 3 if task != "alignment" else None
    cfg = ModelConfig(mode=mode, scorer_kind=scorer_kind, dim=dim,
                      layers=layers, alpha=0.3, out_dim=out_dim)
    scorer = config_scorer(cfg)
    params = init_params(cfg, r, rng)

    point = list(named_parameters(params, {}).values())
    n_param = len(point)

    def layer_vars(tape, vars):
        leaves = iter(vars[:n_param])
        return [lift_params(tape, p, leaves) for p in params]

    graphs = [g1] + ([build_graph(random_triples(n, r, 25, rng), n, r)]
                     if task == "alignment" else [])
    inits = [init_state(cfg, g, rng) for g in graphs]
    has_rel = inits[0].relation is not None
    point += [st.entity for st in inits] + ([st.relation for st in inits] if has_rel else [])
    if task == "alignment":
        positives = np.array([(i, i) for i in range(4)])
        neg_u, neg_v = sample_negatives(positives, 2, n, n, rng)

        def loss(tape, h1, h2):
            return alignment_loss(tape, h1, h2, positives, neg_u, neg_v, 3.0)
    else:
        multi = task == "multilabel"
        ids = list(range(6))
        if multi:
            labels = {}
            for e in ids:
                mask = rng.integers(0, 2, 3)
                picked = tuple(int(c) for c in np.flatnonzero(mask))
                labels[e] = picked if picked else (int(rng.integers(0, 3, 1)[0]),)
        else:
            labels = {e: (int(rng.integers(0, 3, 1)[0]),) for e in ids}
        label_set = LabelSet(labels, 3, multi, train=ids)

        def loss(tape, logits):
            return classification_loss(tape, logits, label_set, ids)

    def fn(tape, *vars):
        lvs = layer_vars(tape, vars)
        k = len(graphs)
        rels = vars[n_param + k:] if has_rel else [None] * k
        return loss(tape, *(forward_on_tape(tape, g, mode, scorer, params, lvs, e, r)[0]
                            for g, e, r in zip(graphs, vars[n_param:n_param + k], rels)))

    return fn, point


def _phi_eager(mode: str, h_neighbor: np.ndarray, h_rel: np.ndarray) -> np.ndarray:
    if mode == "compgcn-sub":
        return h_neighbor - h_rel
    if mode == "compgcn-mult":
        return h_neighbor * h_rel
    if mode == "compgcn-corr":
        return numerics.circular_correlation(h_neighbor, h_rel)
    raise ValueError(f"no composition for mode {mode!r}")


def _pairs(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> list:
    return sorted(zip(a[mask].tolist(), b[mask].tolist()))


def in_edges(graph: KnowledgeGraph, v: int) -> list:
    """(head, relation) of every edge into v, ascending."""
    return _pairs(graph.tails == v, graph.heads, graph.rels)


def out_edges(graph: KnowledgeGraph, v: int) -> list:
    """(tail, relation) of every edge out of v, ascending."""
    return _pairs(graph.heads == v, graph.tails, graph.rels)


def baseline_forward(kind: str, graph: KnowledgeGraph, state: EmbeddingState,
                     params: LayerParams) -> EmbeddingState:
    """Literal transcription of one printed baseline layer; no
    normalization.  Used only as the oracle side of verify_reduction."""
    if kind not in REDUCTION_MODES:
        raise ValueError(f"no baseline for mode {kind!r}")
    ent, rel = state.entity, state.relation
    w_self = params.w if kind == "wgcn" else params.w0
    new_ent = np.zeros((graph.num_entities, w_self.shape[1]))
    for v in range(graph.num_entities):
        m = np.zeros(w_self.shape[1])
        for u, r in in_edges(graph, v) + out_edges(graph, v):
            if kind.startswith("compgcn"):
                m = m + _phi_eager(kind, ent[u], rel[r]) @ params.w_per_rel[r]
            elif kind == "rgcn":
                m = m + ent[u] @ params.w_per_rel[r]
            else:
                m = m + (params.rel_scale[r, 0] * ent[u]) @ params.w
        new_ent[v] = numerics.activation(params.act_ent, m + ent[v] @ w_self)
    new_rel = None
    if kind.startswith("compgcn"):
        new_rel = rel @ params.w_rel
    return EmbeddingState(new_ent, new_rel)


def verify_reduction(mode: str, graph: KnowledgeGraph, seed: int,
                     layers: int = 3, dim: int = 8) -> float:
    """Max absolute discrepancy, over all layers, between the generic
    layer configured per the corresponding reduction and the literal
    baseline, on one random instance."""
    if mode not in REDUCTION_MODES:
        raise ValueError(f"verify_reduction expects a reduction mode, got {mode!r}")
    rng = RandomSource(seed)
    n, rn = graph.num_entities, graph.num_relations
    ent = truncated_normal_fill((n, dim), rng)
    rel = truncated_normal_fill((rn, dim), rng) if mode.startswith("compgcn") else None
    params = []

    def w(*shape):
        return truncated_normal_fill(shape, rng, width=dim)

    for _ in range(layers):
        if mode == "wgcn":
            params.append(LayerParams(w=w(dim, dim), rel_scale=rng.normal((rn, 1))))
        else:   # compgcn: relation updates without an activation; rgcn: no relations
            params.append(LayerParams(w_per_rel=w(rn, dim, dim), w0=w(dim, dim),
                                      w_rel=w(dim, dim) if rel is not None else None,
                                      act_rel="identity"))
    state = EmbeddingState(ent, rel)
    generic = model_forward(graph, state, params, mode=mode, collect=True)
    worst = 0.0
    base = state
    for layer_state, p in zip(generic, params):
        base = baseline_forward(mode, graph, base, p)
        worst = max(worst, float(np.max(np.abs(layer_state.entity - base.entity))))
        if base.relation is not None:
            worst = max(worst, float(np.max(np.abs(layer_state.relation - base.relation))))
    return worst


def reduction_discrepancy(mode: str, seed: int, n: int = 20, r: int = 4,
                          edges: int = 60, layers: int = 3, dim: int = 8) -> float:
    """verify_reduction on one random graph drawn from the seed."""
    graph = build_graph(random_triples(n, r, edges, RandomSource(seed * 7919 + 13)), n, r)
    return verify_reduction(mode, graph, seed, layers=layers, dim=dim)
