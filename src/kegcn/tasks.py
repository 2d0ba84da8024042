"""Training objectives and the two end-to-end tasks.

Alignment trains two layer stacks with SHARED weights, one per graph,
with separate trainable input embedding tables, under a margin ranking
loss over corrupted seed pairs.  Classification trains one stack whose
last layer emits C columns, under softmax cross-entropy (multi-class)
or element-wise sigmoid binary cross-entropy (multi-label).  Both run
full-batch Adam; every epoch rebuilds one tape over the whole loss, so
gradients flow through the score-gradient messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .autodiff import Tape, Variable
from .graph import KnowledgeGraph
from .numerics import RandomSource, sigmoid, softmax_row
from .propagation import (
    EmbeddingState,
    LayerParams,
    LayerVars,
    ModelConfig,
    config_scorer,
    forward_on_tape,
    init_params,
    init_state,
    model_forward,
)
from . import metrics as metrics_mod


class UnsupportedModeError(ValueError):
    """Operation needs relation embeddings the mode does not have."""


class TrainingDivergedError(ValueError):
    """The training loss stopped being finite."""


def _finite_loss(loss: Variable, epoch: int) -> float:
    value = float(loss.value)
    if not np.isfinite(value):
        raise TrainingDivergedError(
            f"training diverged: loss is {value} at epoch {epoch}; try a lower lr")
    return value


@dataclass
class AlignmentSeeds:
    train: list = field(default_factory=list)
    valid: list = field(default_factory=list)
    test: list = field(default_factory=list)


@dataclass
class LabelSet:
    labels: dict
    num_classes: int
    multi_label: bool
    train: list = field(default_factory=list)
    valid: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def __post_init__(self):
        for ent, labs in self.labels.items():
            if not labs:
                raise ValueError(f"entity {ent} has an empty label set")
            if not self.multi_label and len(labs) != 1:
                raise ValueError(f"entity {ent} carries {len(labs)} labels in multi-class data")
            for c in labs:
                if not (0 <= c < self.num_classes):
                    raise ValueError(f"label id {c} out of range for {self.num_classes} classes")


@dataclass
class TrainConfig:
    mode: str = "kegcn"
    scorer: str = "transe"
    dim: int = 200
    layers: int = 4
    alpha: float = 0.3
    lr: float = 0.01
    epochs: int = 1000
    patience: int = 50
    gamma: float = 3.0
    negatives: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("margin gamma must be positive")
        if self.negatives < 1:
            raise ValueError("need at least one negative per positive")

    def model_config(self, out_dim: Optional[int] = None) -> ModelConfig:
        return ModelConfig(mode=self.mode, scorer_kind=self.scorer, dim=self.dim,
                           layers=self.layers, alpha=self.alpha, out_dim=out_dim)


# ---------------- losses ----------------


def sample_negatives(pairs: np.ndarray, k: int, n1: int, n2: int, source: RandomSource):
    """k corrupted pairs per positive; a coin flip picks which side to
    replace, uniformly over that graph's entities, never reproducing the
    original entity (so every negative differs in exactly one slot)."""
    pairs = np.asarray(pairs, dtype=np.int64)
    p = pairs.shape[0]
    flips = source.integers(0, 2, (p, k)).astype(bool)
    u_col = np.broadcast_to(pairs[:, 0:1], (p, k))
    v_col = np.broadcast_to(pairs[:, 1:2], (p, k))
    r1 = source.integers(0, n1, (p, k))
    if n1 > 1:
        bad = flips & (r1 == u_col)
        while bad.any():
            r1[bad] = source.integers(0, n1, int(bad.sum()))
            bad = flips & (r1 == u_col)
    r2 = source.integers(0, n2, (p, k))
    if n2 > 1:
        bad = (~flips) & (r2 == v_col)
        while bad.any():
            r2[bad] = source.integers(0, n2, int(bad.sum()))
            bad = (~flips) & (r2 == v_col)
    neg_u = np.where(flips, r1, u_col)
    neg_v = np.where(flips, v_col, r2)
    return neg_u, neg_v


def alignment_loss(tape: Tape, h1: Variable, h2: Variable, positives: np.ndarray,
                   neg_u: np.ndarray, neg_v: np.ndarray, gamma: float) -> Variable:
    """sum over positives and their negatives of
    max(0, d(pos) + gamma - d(neg)), d = L1 over final embeddings."""
    positives = np.asarray(positives, dtype=np.int64)
    p, k = neg_u.shape
    pos_d = tape.sum_axis(tape.abs(tape.sub(
        tape.gather(h1, positives[:, 0]), tape.gather(h2, positives[:, 1]))))
    neg_d = tape.sum_axis(tape.abs(tape.sub(
        tape.gather(h1, neg_u.reshape(-1)), tape.gather(h2, neg_v.reshape(-1)))))
    pos_rep = tape.gather(pos_d, np.repeat(np.arange(p), k))
    margin = tape.leaf(np.full((1, 1), float(gamma)))
    return tape.sum(tape.relu(tape.sub(tape.add(pos_rep, margin), neg_d)))


def _label_matrix(label_set: LabelSet, entity_ids) -> np.ndarray:
    y = np.zeros((len(entity_ids), label_set.num_classes))
    for i, ent in enumerate(entity_ids):
        for c in label_set.labels[ent]:
            y[i, c] = 1.0
    return y


def classification_loss(tape: Tape, logits: Variable, label_set: LabelSet,
                        entity_ids) -> Variable:
    """Cross-entropy over the given labeled entities only; probabilities
    clamped to [1e-12, 1 - 1e-12] before any log."""
    if label_set.num_classes < 1:
        raise ValueError("classification needs at least one class")
    if logits.shape[1] != label_set.num_classes:
        raise ValueError(
            f"logit width {logits.shape[1]} != class count {label_set.num_classes}")
    rows = tape.gather(logits, np.asarray(entity_ids, dtype=np.int64))
    y = tape.leaf(_label_matrix(label_set, entity_ids))
    lo, hi = 1e-12, 1.0 - 1e-12
    if label_set.multi_label:
        s = tape.clamp(tape.sigmoid(rows), lo, hi)
        ones = tape.leaf(np.ones((1, 1)))
        pos = tape.sum(tape.mul(y, tape.log(s)))
        neg = tape.sum(tape.mul(tape.sub(ones, y), tape.log(tape.sub(ones, s))))
        return tape.scale(tape.add(pos, neg), -1.0)
    p_var = tape.clamp(tape.softmax_row(rows), lo, hi)
    return tape.scale(tape.sum(tape.mul(y, tape.log(p_var))), -1.0)


class Adam:
    """Full-batch Adam with bias correction; beta1 0.9, beta2 0.999,
    eps 1e-8.  Updates parameter arrays in place."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, params: dict, grads: dict) -> None:
        self.step_count += 1
        t = self.step_count
        for name, arr in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(arr)
                self.v[name] = np.zeros_like(arr)
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            mhat = m / (1.0 - self.beta1**t)
            vhat = v / (1.0 - self.beta2**t)
            arr -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------- parameter plumbing ----------------


def named_parameters(params_list: list[LayerParams], tables: dict) -> dict:
    out: dict = {}
    for i, p in enumerate(params_list):
        for suffix, arr in (("w", p.w), ("w0", p.w0), ("wrel", p.w_rel),
                            ("wstack", p.w_per_rel), ("relscale", p.rel_scale)):
            if arr is not None:
                out[f"layer{i}.{suffix}"] = arr
    for gname, st in tables.items():
        out[f"{gname}.entity"] = st.entity
        if st.relation is not None:
            out[f"{gname}.relation"] = st.relation
    return out


def _lift_all(tape: Tape, params_list: list[LayerParams], tables: dict):
    pvars: dict = {}
    lvs = []
    for i, p in enumerate(params_list):
        members = {}
        for suffix, arr in (("w", p.w), ("w0", p.w0), ("wrel", p.w_rel),
                            ("wstack", p.w_per_rel), ("relscale", p.rel_scale)):
            if arr is None:
                members[suffix] = None
            else:
                var = tape.leaf(arr)
                pvars[f"layer{i}.{suffix}"] = var
                members[suffix] = var
        lvs.append(LayerVars(members["w"], members["w0"], members["wrel"],
                             members["wstack"], members["relscale"]))
    tvars: dict = {}
    for gname, st in tables.items():
        ev = tape.leaf(st.entity)
        pvars[f"{gname}.entity"] = ev
        rv = None
        if st.relation is not None:
            rv = tape.leaf(st.relation)
            pvars[f"{gname}.relation"] = rv
        tvars[gname] = (ev, rv)
    return pvars, lvs, tvars


# ---------------- evaluation ----------------


def l1_cdist(a: np.ndarray, b: np.ndarray, chunk: Optional[int] = None) -> np.ndarray:
    """Pairwise L1 distances, chunked over rows of a.  The default chunk
    keeps the (chunk, len(b), d) broadcast temporary near 1 MiB; each
    row's sum is the same whatever the chunk."""
    if chunk is None:
        chunk = max(1, (1 << 20) // max(1, 8 * b.size))
    out = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], chunk):
        hi = min(lo + chunk, a.shape[0])
        out[lo:hi] = np.sum(np.abs(a[lo:hi, None, :] - b[None, :, :]), axis=2)
    return out


def _direction_ranks(h_src: np.ndarray, h_dst: np.ndarray, pairs: np.ndarray,
                     src_col: int) -> np.ndarray:
    dst_col = 1 - src_col
    dist = l1_cdist(h_src[pairs[:, src_col]], h_dst)
    return metrics_mod.ranks_from_distance_matrix(dist, pairs[:, dst_col])


def evaluate_alignment(state1: EmbeddingState, state2: EmbeddingState,
                       pairs) -> dict:
    """MRR / Hits@1 / Hits@10 averaged over both ranking directions,
    candidate pool = every entity of the target graph."""
    pairs = np.asarray(pairs, dtype=np.int64)
    fwd = _direction_ranks(state1.entity, state2.entity, pairs, 0)
    bwd = _direction_ranks(state2.entity, state1.entity, pairs, 1)
    return {
        "mrr": 0.5 * (metrics_mod.mrr(fwd) + metrics_mod.mrr(bwd)),
        "hits1": 0.5 * (metrics_mod.hits_at_k(fwd, 1) + metrics_mod.hits_at_k(bwd, 1)),
        "hits10": 0.5 * (metrics_mod.hits_at_k(fwd, 10) + metrics_mod.hits_at_k(bwd, 10)),
    }


def zero_shot_relation_alignment(state1: EmbeddingState, state2: EmbeddingState,
                                 rel_pairs) -> dict:
    """Rank relations across graphs by L1 over the trained relation
    embeddings; no relation supervision is ever used."""
    if state1.relation is None or state2.relation is None:
        raise UnsupportedModeError(
            "relation alignment needs a mode with relation embeddings")
    pairs = np.asarray(rel_pairs, dtype=np.int64)
    fwd = _direction_ranks(state1.relation, state2.relation, pairs, 0)
    bwd = _direction_ranks(state2.relation, state1.relation, pairs, 1)
    return {
        "mrr": 0.5 * (metrics_mod.mrr(fwd) + metrics_mod.mrr(bwd)),
        "hits1": 0.5 * (metrics_mod.hits_at_k(fwd, 1) + metrics_mod.hits_at_k(bwd, 1)),
        "hits10": 0.5 * (metrics_mod.hits_at_k(fwd, 10) + metrics_mod.hits_at_k(bwd, 10)),
    }


def evaluate_classification(scores: np.ndarray, label_set: LabelSet,
                            entity_ids) -> dict:
    """Accuracy, or p@1 / p@5 / ndcg@5 for multi-label sets, over entity_ids.
    Rows are ranked as the per-row `metrics` functions rank them: argmax
    and stable descending sorts give ties to the lowest class id."""
    rows = np.asarray(scores)[np.asarray(entity_ids, dtype=np.int64)]
    if label_set.multi_label:
        truth = _label_matrix(label_set, entity_ids) > 0
        top = np.argsort(-rows, axis=1, kind="stable")[:, :5]
        hits = np.take_along_axis(truth, top, axis=1)
        out = {f"p{k}": float(np.mean(hits[:, :k].sum(axis=1) / k)) for k in (1, 5)}
        n5 = [metrics_mod.ndcg_at_k(scores[e], label_set.labels[e], 5) for e in entity_ids]
        out["ndcg5"] = float(np.mean(n5))
        return out
    true = [label_set.labels[e][0] for e in entity_ids]
    return {"accuracy": metrics_mod.accuracy(np.argmax(rows, axis=1), true)}


# ---------------- training loops ----------------


@dataclass
class AlignmentResult:
    params: list[LayerParams]
    init1: EmbeddingState
    init2: EmbeddingState
    state1: EmbeddingState
    state2: EmbeddingState
    best_valid_hits1: Optional[float]
    best_epoch: int
    epochs_run: int
    losses: list


@dataclass
class ClassificationResult:
    params: list[LayerParams]
    init: EmbeddingState
    logits: np.ndarray
    scores: np.ndarray
    best_valid_metric: Optional[float]
    best_epoch: int
    epochs_run: int
    losses: list


def _snapshot(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


def _restore(params: dict, snap: dict) -> None:
    for k, v in params.items():
        v[...] = snap[k]


def train_alignment(g1: KnowledgeGraph, g2: KnowledgeGraph, seeds: AlignmentSeeds,
                    cfg: TrainConfig,
                    progress: Optional[Callable] = None) -> AlignmentResult:
    if not seeds.train:
        raise ValueError("empty training set")
    mc = cfg.model_config()
    scorer = config_scorer(mc)
    rng = RandomSource(cfg.seed)
    num_rel = max(g1.num_relations, g2.num_relations)
    params_list = init_params(mc, num_rel, rng)
    init1 = init_state(mc, g1, rng)
    init2 = init_state(mc, g2, rng)
    tables = {"g1": init1, "g2": init2}
    named = named_parameters(params_list, tables)
    adam = Adam(cfg.lr)
    positives = np.asarray(seeds.train, dtype=np.int64)
    valid = np.asarray(seeds.valid, dtype=np.int64) if seeds.valid else None

    best_metric = None
    best_epoch = 0
    best_snap = None
    losses = []
    epochs_run = 0
    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        neg_u, neg_v = sample_negatives(positives, cfg.negatives,
                                        g1.num_entities, g2.num_entities, rng)
        tape = Tape()
        pvars, lvs, tvars = _lift_all(tape, params_list, tables)
        h1, _ = forward_on_tape(tape, g1, mc.mode, scorer, params_list, lvs, *tvars["g1"])
        h2, _ = forward_on_tape(tape, g2, mc.mode, scorer, params_list, lvs, *tvars["g2"])
        loss = alignment_loss(tape, h1, h2, positives, neg_u, neg_v, cfg.gamma)
        losses.append(_finite_loss(loss, epoch))
        grads = tape.backward(loss)

        hits1 = None
        if valid is not None:
            s1 = EmbeddingState(h1.value, None)
            s2 = EmbeddingState(h2.value, None)
            hits1 = evaluate_alignment(s1, s2, valid)["hits1"]
            if best_metric is None or hits1 > best_metric:
                best_metric = hits1
                best_epoch = epoch
                best_snap = _snapshot(named)  # the parameters just scored
        adam.step(named, {name: grads[var] for name, var in pvars.items()})
        if progress is not None:
            progress(epoch, losses[-1], hits1)
        if valid is not None and epoch - best_epoch >= cfg.patience:
            break

    if best_snap is not None:
        _restore(named, best_snap)
    final1 = model_forward(g1, init1, params_list, mode=mc.mode, scorer=scorer)
    final2 = model_forward(g2, init2, params_list, mode=mc.mode, scorer=scorer)
    return AlignmentResult(params_list, init1, init2, final1, final2,
                           best_metric, best_epoch, epochs_run, losses)


def train_classification(g: KnowledgeGraph, label_set: LabelSet, cfg: TrainConfig,
                         progress: Optional[Callable] = None) -> ClassificationResult:
    if label_set.num_classes < 1:
        raise ValueError("classification needs at least one class")
    if not label_set.train:
        raise ValueError("empty training set")
    mc = cfg.model_config(out_dim=label_set.num_classes)
    scorer = config_scorer(mc)
    rng = RandomSource(cfg.seed)
    params_list = init_params(mc, g.num_relations, rng)
    init = init_state(mc, g, rng)
    tables = {"g": init}
    named = named_parameters(params_list, tables)
    adam = Adam(cfg.lr)
    train_ids = list(label_set.train)
    valid_ids = list(label_set.valid)
    metric_key = "p1" if label_set.multi_label else "accuracy"

    best_metric = None
    best_epoch = 0
    best_snap = None
    losses = []
    epochs_run = 0
    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        tape = Tape()
        pvars, lvs, tvars = _lift_all(tape, params_list, tables)
        logits, _ = forward_on_tape(tape, g, mc.mode, scorer, params_list, lvs, *tvars["g"])
        loss = classification_loss(tape, logits, label_set, train_ids)
        losses.append(_finite_loss(loss, epoch))
        grads = tape.backward(loss)

        metric = None
        if valid_ids:
            scores = _scores_from_logits(logits.value, label_set.multi_label)
            metric = evaluate_classification(scores, label_set, valid_ids)[metric_key]
            if best_metric is None or metric > best_metric:
                best_metric = metric
                best_epoch = epoch
                best_snap = _snapshot(named)  # the parameters just scored
        adam.step(named, {name: grads[var] for name, var in pvars.items()})
        if progress is not None:
            progress(epoch, losses[-1], metric)
        if valid_ids and epoch - best_epoch >= cfg.patience:
            break

    if best_snap is not None:
        _restore(named, best_snap)
    final = model_forward(g, init, params_list, mode=mc.mode, scorer=scorer)
    scores = _scores_from_logits(final.entity, label_set.multi_label)
    return ClassificationResult(params_list, init, final.entity, scores,
                                best_metric, best_epoch, epochs_run, losses)


def _scores_from_logits(logits: np.ndarray, multi_label: bool) -> np.ndarray:
    return sigmoid(logits) if multi_label else softmax_row(logits)
