"""Training objectives and the two end-to-end tasks.

Alignment trains two layer stacks with SHARED weights, one per graph,
with separate trainable input embedding tables, under a margin ranking
loss over corrupted seed pairs.  Classification trains one stack whose
last layer emits C logits, under cross-entropy written from the logits:
softmax cross-entropy logsumexp(x) - x of the true class (multi-class),
or per-class sigmoid cross-entropy softplus(x) - y x (multi-label).  Both
run full-batch Adam; every epoch rebuilds one tape over the whole loss, so
gradients flow through the score-gradient messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .autodiff import Tape, Variable
from .graph import KnowledgeGraph
from .numerics import Generator, pooled, seeded, sigmoid, softmax_row
from .propagation import (
    MODES,
    EmbeddingState,
    LayerParams,
    ModelConfig,
    config_scorer,
    forward_on_tape,
    init_params,
    init_state,
    lift,
    model_forward,
)
from .scorers import SCORERS
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
    """Training hyperparameters.  Every field is also a config-file key and
    a training flag, in this order, typed by its default; `choices`
    metadata lists the values a string field accepts."""

    mode: str = field(default="kegcn", metadata={"choices": MODES})
    scorer: str = field(default="transe", metadata={"choices": tuple(sorted(SCORERS))})
    dim: int = 200
    layers: int = 4
    lr: float = 0.01
    alpha: float = 0.3
    gamma: float = 3.0
    negatives: int = 5
    epochs: int = 1000
    patience: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"learning rate lr must be positive and finite, got {self.lr}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"margin gamma must be positive and finite, got {self.gamma}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be at least 1, got {self.negatives}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.patience < 0:
            raise ValueError(f"patience must be non-negative, got {self.patience}")
        if not 0 <= self.seed < 2 ** 53:   # a checkpoint holds it as an exact float64
            raise ValueError(f"seed must be at least 0 and below 2**53, got {self.seed}")

    def model_config(self, out_dim: Optional[int] = None) -> ModelConfig:
        return ModelConfig(mode=self.mode, scorer_kind=self.scorer, dim=self.dim,
                           layers=self.layers, alpha=self.alpha, out_dim=out_dim)


# ---------------- losses ----------------


def sample_negatives(pairs: np.ndarray, k: int, n1: int, n2: int, source: Generator):
    """k corrupted pairs per positive; a coin flip picks which side to
    replace, uniformly over that graph's entities, never reproducing the
    original entity (so every negative differs in exactly one slot)."""
    pairs = np.asarray(pairs, dtype=np.int64)
    p = pairs.shape[0]
    flips = source.integers(0, 2, (p, k)).astype(bool)
    u_col = np.broadcast_to(pairs[:, 0:1], (p, k))
    v_col = np.broadcast_to(pairs[:, 1:2], (p, k))

    def draw(n, side, col):   # entities of n, redrawn where they equal col on side
        r = source.integers(0, n, (p, k))
        bad = side & (r == col)
        while n > 1 and bad.any():
            r[bad] = source.integers(0, n, int(bad.sum()))
            bad = side & (r == col)
        return r

    neg_u = np.where(flips, draw(n1, flips, u_col), u_col)
    neg_v = np.where(flips, v_col, draw(n2, ~flips, v_col))
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
    return tape.sum(tape.relu(tape.sub(tape.add(pos_rep, float(gamma)), neg_d)))


def _label_matrix(label_set: LabelSet, entity_ids) -> np.ndarray:
    y = np.zeros((len(entity_ids), label_set.num_classes))
    for i, ent in enumerate(entity_ids):
        for c in label_set.labels[ent]:
            y[i, c] = 1.0
    return y


def classification_loss(tape: Tape, logits: Variable, label_set: LabelSet,
                        entity_ids) -> Variable:
    """Cross-entropy of the given labeled entities only, from their logits x
    and label rows y: multi-class sum y (logsumexp(x) - x), multi-label
    (per-class sigmoid) sum softplus(x) - y x.  Every term is >= +0.0, and
    a saturated logit keeps its gradient (softmax(x) - y, sigmoid(x) - y)."""
    if label_set.num_classes < 1:
        raise ValueError("classification needs at least one class")
    if logits.shape[1] != label_set.num_classes:
        raise ValueError(
            f"logit width {logits.shape[1]} != class count {label_set.num_classes}")
    rows = tape.gather(logits, np.asarray(entity_ids, dtype=np.int64))
    y = _label_matrix(label_set, entity_ids)   # a constant, like the norm columns
    if label_set.multi_label:
        return tape.sum(tape.sub(tape.softplus(rows), tape.scale(rows, y)))
    return tape.sum(tape.scale(tape.neg_log_softmax(rows), y))


class Adam:
    """Full-batch Adam with bias correction.  Updates parameter arrays in
    place.  The moments m and v are flat, one span per parameter of the
    first step, which every later step must name again with the same
    shapes.  Each elementwise operation runs once over all parameters as
    one span, and every element sees the operations it would see alone."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self._layout = None

    def step(self, params: dict, grads: dict) -> None:
        layout = [(name, a.shape) for name, a in params.items()]
        if self._layout is None:
            self._layout, n = layout, sum(a.size for a in params.values())
            self.m, self.v, self._scratch = np.zeros(n), np.zeros(n), np.empty((2, n))
        if layout != self._layout:
            raise ValueError("Adam.step takes the parameters of its first step")
        self.step_count += 1
        t = self.step_count
        m, v, (a, b) = self.m, self.v, self._scratch
        g = np.concatenate([grads[k] for k in params], axis=None, out=b)
        # m += (1 - beta1) (g - m); v += (1 - beta2) (g g - v);
        # arr -= lr mhat / (sqrt(vhat) + eps): the same operations in place
        np.subtract(g, m, out=a)
        a *= 1.0 - self.beta1
        m += a
        np.multiply(g, g, out=a)
        a -= v
        a *= 1.0 - self.beta2
        v += a
        np.divide(m, 1.0 - self.beta1**t, out=a)
        a *= self.lr
        np.divide(v, 1.0 - self.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        for arr in params.values():
            arr -= a[:arr.size].reshape(arr.shape)
            a = a[arr.size:]


# ---------------- parameter plumbing ----------------


def named_parameters(params_list: list, tables: dict) -> dict:
    """`layer{i}.{weight}` for every layer weight (`LayerParams.WEIGHTS`), then
    `{table}.entity` and `{table}.relation`; the members may be arrays or,
    when `lift`ed, their tape leaves."""
    out = {f"layer{i}.{f}": getattr(p, f) for i, p in enumerate(params_list)
           for f in LayerParams.WEIGHTS if getattr(p, f) is not None}
    out.update({f"{g}.{f}": getattr(st, f) for g, st in tables.items()
                for f in ("entity", "relation") if getattr(st, f) is not None})
    return out


# ---------------- evaluation ----------------


# Bytes of the one block buffer l1_cdist reuses: the fastest of 64 KiB to
# 4 MiB in a timeit sweep at 140 x 200 and 200 x 5,000 rows of dim 64 on a
# host with 2 MiB L2 per core (`BENCH_13.json` `cdist_buffer_sweep`).
_CDIST_BUFFER_BYTES = 512 << 10


def l1_cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise L1 distances, out[i, j] = sum_k |a[i, k] - b[j, k]|.

    Works block by block: as many rows of b as fit _CDIST_BUFFER_BYTES,
    against as many rows of a as then fill it.  `subtract`, `abs` and
    `sum` write through `out=` into one (chunk, cols, d) buffer made once
    per call, so no block allocates (and page-faults) temporaries of its
    own; a timeit sweep found that buffer size fastest (see
    _CDIST_BUFFER_BYTES).  Each distance is one sum over the same
    contiguous d axis, so the result is bitwise the same whatever the
    block shape."""
    n, d = b.shape
    cols = max(1, min(n, _CDIST_BUFFER_BYTES // max(1, 8 * d)))
    chunk = max(1, _CDIST_BUFFER_BYTES // max(1, 8 * d * cols))
    out = np.empty((a.shape[0], n))
    buf = np.empty((min(chunk, a.shape[0]), cols, d))
    for lo in range(0, a.shape[0], chunk):
        for jlo in range(0, n, cols):
            block = buf[:min(chunk, a.shape[0] - lo), :min(cols, n - jlo)]
            np.subtract(a[lo:lo + chunk, None, :], b[jlo:jlo + cols], out=block)
            np.abs(block, out=block)
            np.sum(block, axis=2, out=out[lo:lo + chunk, jlo:jlo + cols])
    return out


def _two_way_ranking(x1: np.ndarray, x2: np.ndarray, pairs) -> dict:
    """MRR / Hits@1 / Hits@10 of the pairs' partners, ranked among every
    row of x2 for each x1 row and back, averaged over both directions.

    Each pair distance is computed once: |a - b| == |b - a| exactly and
    each distance is the same sum over the same contiguous d axis, so the
    backward matrix's columns at the source ids are the forward matrix's
    columns at the target ids, transposed, bit for bit.  Only the other
    rows of x1 are measured against x2[dst], in row blocks.  The forward
    matrix is dropped once ranked and copied from.  Exactly two
    `metrics.ranks_from_distance_matrix` calls rank the forward (q, n2)
    and then the backward (q, n1) matrix, the same matrices as ranking
    each direction from scratch; perfbench's rank check
    (`workloads.capture_ranks`) records those two calls."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if len(pairs) == 0:
        raise ValueError("no pairs to rank")
    src, dst = pairs[:, 0], pairs[:, 1]
    dist = l1_cdist(x1[src], x2)
    fwd = metrics_mod.ranks_from_distance_matrix(dist, dst)
    shared = dist[:, dst]
    del dist
    dist = np.empty((len(pairs), x1.shape[0]))
    dist[:, src] = shared.T
    del shared
    rest = np.setdiff1d(np.arange(x1.shape[0]), src)
    step = max(1, _CDIST_BUFFER_BYTES // max(1, 8 * len(rest)))
    for lo in range(0, len(dst), step):
        dist[lo:lo + step, rest] = l1_cdist(x2[dst[lo:lo + step]], x1[rest])
    bwd = metrics_mod.ranks_from_distance_matrix(dist, src)
    return {
        "mrr": 0.5 * (metrics_mod.mrr(fwd) + metrics_mod.mrr(bwd)),
        "hits1": 0.5 * (metrics_mod.hits_at_k(fwd, 1) + metrics_mod.hits_at_k(bwd, 1)),
        "hits10": 0.5 * (metrics_mod.hits_at_k(fwd, 10) + metrics_mod.hits_at_k(bwd, 10)),
    }


def evaluate_alignment(state1: EmbeddingState, state2: EmbeddingState,
                       pairs) -> dict:
    """MRR / Hits@1 / Hits@10 averaged over both ranking directions,
    candidate pool = every entity of the target graph."""
    return _two_way_ranking(state1.entity, state2.entity, pairs)


def zero_shot_relation_alignment(state1: EmbeddingState, state2: EmbeddingState,
                                 rel_pairs) -> dict:
    """Rank relations across graphs by L1 over the trained relation
    embeddings; no relation supervision is ever used."""
    if state1.relation is None or state2.relation is None:
        raise UnsupportedModeError(
            "relation alignment needs a mode with relation embeddings")
    return _two_way_ranking(state1.relation, state2.relation, rel_pairs)


def evaluate_classification(scores: np.ndarray, label_set: LabelSet,
                            entity_ids) -> dict:
    """Accuracy, or p@1 / p@5 / ndcg@5 for multi-label sets, over entity_ids.
    Rows are ranked as the per-row `metrics` functions rank them: argmax
    and stable descending sorts give ties to the lowest class id.  One
    ranking of each row serves p@1, p@5 and ndcg@5."""
    rows = np.asarray(scores)[np.asarray(entity_ids, dtype=np.int64)]
    if label_set.multi_label:
        truth = _label_matrix(label_set, entity_ids) > 0
        top = np.argsort(-rows, axis=1, kind="stable")[:, :5]
        hits = np.take_along_axis(truth, top, axis=1)
        out = {f"p{k}": float(np.mean(hits[:, :k].sum(axis=1) / k)) for k in (1, 5)}
        out["ndcg5"] = float(np.mean(metrics_mod.ndcg_of_hits(hits, truth.sum(axis=1), 5)))
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


def record_forward(tape: Tape, graphs: dict, mode: str, scorer, params_list: list,
                   tables: dict):
    """What a training epoch records on `tape` before its loss: the layer
    weights as leaves, then each table (in `tables` order), then the stack
    over each graph (in `graphs` order), its last layer without w_rel (no
    loss reads that relation update; the leaf gets a zero gradient).
    Returns the leaves by `named_parameters` name and each graph's output
    entities."""
    layers = [lift(tape, p) for p in params_list]
    tvars = {name: lift(tape, st) for name, st in tables.items()}
    stack = [*layers[:-1], replace(layers[-1], w_rel=None)]
    outs = [forward_on_tape(tape, g, mode, scorer, stack, tvars[name].entity,
                            tvars[name].relation)[0]
            for name, g in graphs.items()]
    return named_parameters(layers, tvars), outs


def fit(graphs: dict, mc: ModelConfig, cfg: TrainConfig, loss_fn: Callable,
        metric_fn: Optional[Callable], progress: Optional[Callable]):
    """The training loop of both tasks.  Initializes the shared layer stack
    and one embedding table per graph; each epoch records one tape with the
    stack over every graph (in `graphs` order) and
    loss_fn(tape, rng, *outputs), backpropagates, scores validation with
    metric_fn(*output values) when given, snapshots the best-scoring
    parameters, steps Adam, and stops after `patience` epochs without a
    new best.  The best snapshot is restored before the final forward.
    Returns (params, tables, final states, best metric, best epoch,
    epochs run, losses).

    The epochs run in one `numerics.pooled()` block: every epoch's tape
    draws from one pool, freed after the last epoch, and the final forward
    allocates from NumPy like all inference.  A tape keeps no intermediate
    that no vjp needs, and a vjp keeps a gathered operand, or a product of
    them, as its recipe, so a pooled array the layer code drops serves a
    later op of the same forward pass and what a vjp rebuilds during
    `backward` comes from the pool too.  `backward` consumes the tape, and
    each epoch drops its tape, outputs, loss and gradients before the next
    one starts.  After the first epoch a run allocates almost nothing new.
    metric_fn reads outputs the epoch still holds, which the pool cannot
    hand out again."""
    scorer = config_scorer(mc)
    rng = seeded(cfg.seed)
    params_list = init_params(mc, max(g.num_relations for g in graphs.values()), rng)
    tables = {name: init_state(mc, g, rng) for name, g in graphs.items()}
    named = named_parameters(params_list, tables)
    adam = Adam(cfg.lr)
    best_metric, best_epoch, best_snap, losses = None, 0, None, []
    epochs_run = 0
    with pooled():
        for epoch in range(cfg.epochs):
            epochs_run = epoch + 1
            tape = Tape()
            pvars, outs = record_forward(tape, graphs, mc.mode, scorer, params_list, tables)
            loss = loss_fn(tape, rng, *outs)
            losses.append(_finite_loss(loss, epoch))
            grads = tape.backward(loss)

            metric = None
            if metric_fn is not None:
                metric = metric_fn(*(h.value for h in outs))
                if best_metric is None or metric > best_metric:
                    best_metric, best_epoch = metric, epoch
                    best_snap = {k: v.copy() for k, v in named.items()}  # just scored
            adam.step(named, {name: grads[var] for name, var in pvars.items()})
            # nothing of this epoch outlives it: the next forward finds the pool free
            del tape, pvars, outs, loss, grads
            if progress is not None:
                progress(epoch, losses[-1], metric)
            if metric_fn is not None and epoch - best_epoch >= cfg.patience:
                break

    # the pool is freed before the final forward, so the two never hold memory at once
    if best_snap is not None:
        for k, v in named.items():
            v[...] = best_snap[k]
    final = {name: model_forward(g, tables[name], params_list, mode=mc.mode, scorer=scorer)
             for name, g in graphs.items()}
    return params_list, tables, final, best_metric, best_epoch, epochs_run, losses


def train_alignment(g1: KnowledgeGraph, g2: KnowledgeGraph, seeds: AlignmentSeeds,
                    cfg: TrainConfig,
                    progress: Optional[Callable] = None) -> AlignmentResult:
    if not seeds.train:
        raise ValueError("empty training set")
    positives = np.asarray(seeds.train, dtype=np.int64)
    valid = np.asarray(seeds.valid, dtype=np.int64)

    def loss_fn(tape, rng, h1, h2):
        neg_u, neg_v = sample_negatives(positives, cfg.negatives,
                                        g1.num_entities, g2.num_entities, rng)
        return alignment_loss(tape, h1, h2, positives, neg_u, neg_v, cfg.gamma)

    def metric_fn(h1, h2):
        return evaluate_alignment(EmbeddingState(h1), EmbeddingState(h2), valid)["hits1"]

    params, tables, final, *rest = fit({"g1": g1, "g2": g2}, cfg.model_config(), cfg,
                                       loss_fn, metric_fn if seeds.valid else None, progress)
    return AlignmentResult(params, tables["g1"], tables["g2"], final["g1"], final["g2"], *rest)


def train_classification(g: KnowledgeGraph, label_set: LabelSet, cfg: TrainConfig,
                         progress: Optional[Callable] = None) -> ClassificationResult:
    if label_set.num_classes < 1:
        raise ValueError("classification needs at least one class")
    if not label_set.train:
        raise ValueError("empty training set")
    train_ids, valid_ids = list(label_set.train), list(label_set.valid)
    metric_key = "p1" if label_set.multi_label else "accuracy"

    def loss_fn(tape, rng, logits):
        return classification_loss(tape, logits, label_set, train_ids)

    def metric_fn(logits):
        scores = scores_from_logits(logits, label_set.multi_label)
        return evaluate_classification(scores, label_set, valid_ids)[metric_key]

    mc = cfg.model_config(out_dim=label_set.num_classes)
    params, tables, final, *rest = fit({"g": g}, mc, cfg, loss_fn,
                                       metric_fn if valid_ids else None, progress)
    logits = final["g"].entity
    return ClassificationResult(params, tables["g"], logits,
                                scores_from_logits(logits, label_set.multi_label), *rest)


def scores_from_logits(logits: np.ndarray, multi_label: bool) -> np.ndarray:
    """Class scores of logits: sigmoid per class (multi-label) or softmax."""
    return sigmoid(logits) if multi_label else softmax_row(logits)
