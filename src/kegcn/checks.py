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
from .autodiff import ForwardTape, Tape
from .graph import KnowledgeGraph, build_graph
from .propagation import (REDUCTION_MODES, EmbeddingState, LayerParams, ModelConfig,
                          config_scorer, init_params, init_state, layer_forward_tape, lift)
from .scorers import Scorer, make_scorer
from .synthetic import random_triples
from .tasks import (LabelSet, alignment_loss, classification_loss, named_parameters,
                    record_forward, sample_negatives)


def _sample_triple(scorer: Scorer, rng: numerics.Generator):
    u = rng.normal(size=scorer.entity_width)
    r = rng.normal(size=scorer.relation_width)
    # keep projected relation tuples away from the modulus reset so the
    # score stays smooth at the probe point
    while scorer.planes > 1 and np.any(
            np.linalg.norm(r.reshape(-1, scorer.planes), axis=1) < 0.3):
        r = rng.normal(size=scorer.relation_width)
    v = rng.normal(size=scorer.entity_width)
    return u, r, v


def fd_error(value_at, point: list, analytic: list, max_coords: int | None = None) -> float:
    """The worst error of `analytic`, the gradients of value_at(point) with
    respect to each array of `point`, against central differences of step
    1e-5: |analytic - numeric| divided by max(|analytic|, |numeric|, 1e-2);
    the floor makes the comparison an absolute one near zero.  `max_coords`
    caps the probed coordinates per array (deterministic subsample) to
    bound runtime on large parameter sets.  The arrays of `point` are
    changed in place and restored."""
    eps = 1e-5
    worst = 0.0
    pick = numerics.seeded(20240917)
    for k, p in enumerate(point):
        n = p.size
        coords = np.arange(n)
        if max_coords is not None and n > max_coords:
            coords = np.sort(pick.choice(n, size=max_coords, replace=False))
        flat = p.ravel()
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = value_at(point)
            flat[c] = orig - eps
            f_minus = value_at(point)
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[k].ravel()[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-2)
            worst = max(worst, err)
    return worst


def message_gradients(scorer: Scorer, u, r, v) -> list:
    """Gradients of scorer.score at one interleaved (u, r, v) triple with
    respect to each argument, from `Scorer.gradients` on a one-row tape."""
    k = scorer.planes
    tape = ForwardTape()
    rows = [tape.leaf(x[None] if k == 1 else x.reshape(1, -1, k).transpose(2, 0, 1))
            for x in (u, r, v)]
    return [(g.value if k == 1 else g.value.transpose(1, 2, 0)).reshape(-1)
            for g in scorer.gradients(tape, *rows)]


def scorer_gradient_fd(kind: str, n_points: int = 100, seed: int = 0) -> float:
    """Worst floored relative error of the three gradients
    `Scorer.gradients` computes for one scorer of base dimension 4 against central
    differences of its score, over n_points random smooth points."""
    scorer = make_scorer(kind, 4)
    rng = numerics.seeded(seed)
    worst = 0.0
    for _ in range(n_points):
        u, r, v = _sample_triple(scorer, rng)
        worst = max(worst, fd_error(lambda args: scorer.score(*args), [u, r, v],
                                    message_gradients(scorer, u, r, v)))
    return worst


END_TO_END_TASKS = ("alignment", "multiclass", "multilabel")


def end_to_end_gradient_fd(task: str, scorer_kind: str, max_coords: int = 40) -> float:
    """Finite-difference check of the full training gradient: the tape a
    training epoch records (`tasks.record_forward`: two kegcn layers of
    width 4 over trainable embedding tables) through one task loss, on a
    10-entity, 3-relation instance.  Probes every parameter tensor
    (subsampled coordinates) and returns the worst floored relative error.

    Central differences only certify a gradient where the loss is smooth,
    so instances whose relu or abs inputs sit within 3e-4 of a kink are
    redrawn from the next seed, up to seed 49, before probing."""
    for seed in range(50):
        named, record = _end_to_end_instance(task, scorer_kind, seed)
        tape = _KinkTape()
        record(tape)
        if tape.margin > 3e-4:
            break
    tape = Tape()
    leaves, loss = record(tape)
    grads = tape.backward(loss)
    return fd_error(lambda _: float(record(Tape())[1].value), list(named.values()),
                    [grads[leaves[name]] for name in named], max_coords=max_coords)


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


def _end_to_end_instance(task: str, scorer_kind: str, seed: int):
    """The parameter arrays by name of one random instance, and
    record(tape) -> (their leaves by name, the task loss), which records
    what a training epoch records and reads the arrays as they are."""
    if task not in END_TO_END_TASKS:
        raise ValueError(f"unknown task {task!r}")
    n, r = 10, 3
    rng = numerics.seeded(seed)
    g1 = build_graph(random_triples(n, r, 25, rng), n, r)
    mc = ModelConfig(scorer_kind=scorer_kind, dim=4, layers=2, alpha=0.3,
                     out_dim=3 if task != "alignment" else None)
    params = init_params(mc, r, rng)
    graphs = {"g1": g1}
    if task == "alignment":
        graphs["g2"] = build_graph(random_triples(n, r, 25, rng), n, r)
    tables = {name: init_state(mc, g, rng) for name, g in graphs.items()}
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

    scorer = config_scorer(mc)

    def record(tape):
        leaves, outs = record_forward(tape, graphs, mc.mode, scorer, params, tables)
        return leaves, loss(tape, *outs)

    return named_parameters(params, tables), record


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
                     params: LayerParams, last: bool) -> EmbeddingState:
    """Literal transcription of one printed baseline layer, the last of its
    stack if `last`; no normalization.  The oracle side of verify_reduction."""
    if kind not in REDUCTION_MODES:
        raise ValueError(f"no baseline for mode {kind!r}")
    ent, rel = state.entity, state.relation
    w_self = params.w if kind == "wgcn" else params.w0
    new_ent = np.zeros((graph.num_entities, w_self.shape[1]))
    for v in range(graph.num_entities):
        m = np.zeros(w_self.shape[1])
        for u, r in in_edges(graph, v) + out_edges(graph, v):
            if kind.startswith("compgcn"):
                m = m + _phi_eager(kind, ent[u], rel[r]) @ params.w
            elif kind == "rgcn":
                m = m + ent[u] @ params.w_per_rel[r]
            else:
                m = m + (params.rel_scale[r, 0] * ent[u]) @ params.w
        pre = m + ent[v] @ w_self
        new_ent[v] = pre if last else np.maximum(pre, 0.0)
    new_rel = None
    if kind.startswith("compgcn"):
        new_rel = rel @ params.w_rel
    return EmbeddingState(new_ent, new_rel)


def verify_reduction(mode: str, graph: KnowledgeGraph, seed: int) -> float:
    """Max absolute discrepancy, over all 3 layers of width 8, between the
    generic layers of the reduction mode, as training builds them without
    normalization, and the literal baseline, on one random instance.
    wgcn's relation scales are drawn at random, not left at their initial
    ones, so every scale is exercised."""
    if mode not in REDUCTION_MODES:
        raise ValueError(f"verify_reduction expects a reduction mode, got {mode!r}")
    rng = numerics.seeded(seed)
    mc = ModelConfig(mode=mode, dim=8, layers=3, alpha=None)
    params = init_params(mc, graph.num_relations, rng)
    state = init_state(mc, graph, rng)
    for p in params:
        if p.rel_scale is not None:
            p.rel_scale = rng.normal(size=p.rel_scale.shape)
    tape = ForwardTape()
    st = lift(tape, state)
    hv, hr = st.entity, st.relation
    worst, base = 0.0, state
    for i, p in enumerate(params):
        last = i == len(params) - 1
        hv, hr = layer_forward_tape(tape, graph, mode, None, lift(tape, p), hv, hr, last)
        base = baseline_forward(mode, graph, base, p, last)
        worst = max(worst, float(np.max(np.abs(hv.value - base.entity))))
        if base.relation is not None:
            worst = max(worst, float(np.max(np.abs(hr.value - base.relation))))
    return worst


def reduction_discrepancy(mode: str, seed: int) -> float:
    """verify_reduction on one random graph of 20 entities, 4 relations and
    about 60 edges, drawn from the seed."""
    graph = build_graph(random_triples(20, 4, 60, numerics.seeded(seed * 7919 + 13)), 20, 4)
    return verify_reduction(mode, graph, seed)
