"""Numerical verification harnesses: finite-difference suites for scorer
gradients and whole-model training gradients.  These are the oracles the
test suite and the `gradcheck` CLI subcommand run; they deliberately
avoid the closed-form gradient code paths they are checking.
"""

from __future__ import annotations

import numpy as np

from .numerics import RandomSource
from .scorers import Scorer, make_scorer


def _fd_error(analytic: float, numeric: float, rel_floor: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), rel_floor)


def _sample_triple(scorer: Scorer, rng: RandomSource):
    u = rng.normal(scorer.entity_width)
    r = rng.normal(scorer.relation_width)
    # keep projected relation tuples away from the modulus reset so the
    # score stays smooth at the probe point
    if scorer.kind in ("rotate", "quate"):
        k = 2 if scorer.kind == "rotate" else 4
        while True:
            tuples = r.reshape(-1, k)
            norms = np.linalg.norm(tuples, axis=1)
            if np.all(norms >= 0.3):
                break
            r = rng.normal(scorer.relation_width)
    v = rng.normal(scorer.entity_width)
    return u, r, v


def scorer_gradient_fd(kind: str, dim: int = 4, n_points: int = 100, seed: int = 0,
                       eps: float = 1e-5, rel_floor: float = 1e-2) -> float:
    """Worst floored relative error of the three closed-form gradients of
    one scorer against central differences of its score, over n_points
    random smooth points."""
    scorer = make_scorer(kind, dim)
    rng = RandomSource(seed)
    worst = 0.0
    for _ in range(n_points):
        u, r, v = _sample_triple(scorer, rng)
        args = [u, r, v]
        grads = [
            scorer.grad_head(u, r, v),
            scorer.grad_rel(u, r, v),
            scorer.grad_tail(u, r, v),
        ]
        for k in range(3):
            vec = args[k]
            for c in range(vec.shape[0]):
                orig = vec[c]
                vec[c] = orig + eps
                f_plus = scorer.score(*args)
                vec[c] = orig - eps
                f_minus = scorer.score(*args)
                vec[c] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                worst = max(worst, _fd_error(float(grads[k][c]), numeric, rel_floor))
    return worst


END_TO_END_TASKS = ("alignment", "multiclass", "multilabel")


def _random_training_graph(rng: RandomSource, n: int, r: int, edges: int):
    from .graph import build_graph

    triples = [
        (int(h), int(q), int(t))
        for h, q, t in zip(rng.integers(0, n, edges), rng.integers(0, r, edges),
                           rng.integers(0, n, edges))
        if h != t
    ]
    return build_graph(triples, n, r)


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
    from .autodiff import finite_diff_check

    fn, point = _build_end_to_end(task, scorer_kind, mode, dim, layers, seed)
    for bump in range(1, 50):
        if _kink_margin(fn, point) > 3e-4:
            break
        fn, point = _build_end_to_end(task, scorer_kind, mode, dim, layers,
                                      seed + bump)
    return finite_diff_check(fn, point, max_coords=max_coords)


def _kink_margin(fn, point) -> float:
    """Distance of the closest relu or abs input to its kink at zero."""
    from .autodiff import Tape

    tape = Tape()
    leaves = [tape.leaf(np.asarray(p)) for p in point]
    fn(tape, *leaves)
    margin = np.inf
    for node in tape.nodes:
        if node.name in ("relu", "abs"):
            pre = tape.nodes[node.parents[0]].value
            if pre.size:
                margin = min(margin, float(np.abs(pre).min()))
    return margin


def _build_end_to_end(task: str, scorer_kind: str, mode: str, dim: int,
                      layers: int, seed: int):
    from .propagation import (LayerVars, ModelConfig, config_scorer,
                              forward_on_tape, init_params, init_state)
    from .tasks import (LabelSet, alignment_loss, classification_loss,
                        sample_negatives)

    if task not in END_TO_END_TASKS:
        raise ValueError(f"unknown task {task!r}")
    n, r = 10, 3
    rng = RandomSource(seed)
    g1 = _random_training_graph(rng, n, r, 25)
    out_dim = 3 if task != "alignment" else None
    cfg = ModelConfig(mode=mode, scorer_kind=scorer_kind, dim=dim,
                      layers=layers, alpha=0.3, out_dim=out_dim)
    scorer = config_scorer(cfg)
    params = init_params(cfg, r, rng)

    fields = ("w", "w0", "wrel", "wstack", "relscale")
    keys = []
    point = []
    for i, p in enumerate(params):
        for suffix, arr in zip(fields, (p.w, p.w0, p.w_rel, p.w_per_rel, p.rel_scale)):
            if arr is not None:
                keys.append((i, suffix))
                point.append(arr)
    n_param = len(point)

    def layer_vars(vars):
        members = [{f: None for f in fields} for _ in params]
        for (i, suffix), var in zip(keys, vars[:n_param]):
            members[i][suffix] = var
        return [LayerVars(m["w"], m["w0"], m["wrel"], m["wstack"], m["relscale"])
                for m in members]

    if task == "alignment":
        g2 = _random_training_graph(rng, n, r, 25)
        init1 = init_state(cfg, g1, rng)
        init2 = init_state(cfg, g2, rng)
        positives = np.array([(i, i) for i in range(4)])
        neg_u, neg_v = sample_negatives(positives, 2, n, n, rng)
        point.extend([init1.entity, init2.entity])
        has_rel = init1.relation is not None
        if has_rel:
            point.extend([init1.relation, init2.relation])

        def fn(tape, *vars):
            lvs = layer_vars(vars)
            e1, e2 = vars[n_param], vars[n_param + 1]
            r1 = vars[n_param + 2] if has_rel else None
            r2 = vars[n_param + 3] if has_rel else None
            h1, _ = forward_on_tape(tape, g1, mode, scorer, params, lvs, e1, r1)
            h2, _ = forward_on_tape(tape, g2, mode, scorer, params, lvs, e2, r2)
            return alignment_loss(tape, h1, h2, positives, neg_u, neg_v, 3.0)

    else:
        init1 = init_state(cfg, g1, rng)
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
        point.append(init1.entity)
        has_rel = init1.relation is not None
        if has_rel:
            point.append(init1.relation)

        def fn(tape, *vars):
            lvs = layer_vars(vars)
            e1 = vars[n_param]
            r1 = vars[n_param + 1] if has_rel else None
            logits, _ = forward_on_tape(tape, g1, mode, scorer, params, lvs, e1, r1)
            return classification_loss(tape, logits, label_set, ids)

    return fn, point


def reduction_discrepancy(mode: str, seed: int, n: int = 20, r: int = 4,
                          edges: int = 60, layers: int = 3, dim: int = 8) -> float:
    """verify_reduction on one random graph drawn from the seed."""
    from .propagation import verify_reduction

    graph = _random_training_graph(RandomSource(seed * 7919 + 13), n, r, edges)
    return verify_reduction(mode, graph, seed, layers=layers, dim=dim)

