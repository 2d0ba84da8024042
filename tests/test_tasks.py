"""Tests for losses, negative sampling, Adam, and the training loops."""

import importlib.util
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from kegcn import synthetic
from kegcn import tasks as tasks_mod
from kegcn.autodiff import BufferPool, Tape, finite_diff_check
from kegcn.checks import end_to_end_gradient_fd
from kegcn.graph import build_graph
from kegcn.numerics import RandomSource
from kegcn.tasks import (
    Adam,
    AlignmentSeeds,
    LabelSet,
    TrainConfig,
    TrainingDivergedError,
    UnsupportedModeError,
    alignment_loss,
    classification_loss,
    evaluate_alignment,
    evaluate_classification,
    l1_cdist,
    named_parameters,
    sample_negatives,
    train_alignment,
    train_classification,
    zero_shot_relation_alignment,
)
from kegcn import propagation
from kegcn.propagation import REDUCTION_MODES, EmbeddingState


def ring_graph(n, r):
    triples = [(i, i % r, (i + 1) % n) for i in range(n)]
    triples += [(i, (i + 1) % r, (i + 3) % n) for i in range(n)]
    return build_graph(triples, n, r)


# ---------------- negative sampling ----------------


def test_sample_negatives_shape_and_one_slot():
    pairs = np.array([(0, 0), (1, 1), (2, 2)])
    neg_u, neg_v = sample_negatives(pairs, 5, 6, 7, RandomSource(3))
    assert neg_u.shape == (3, 5) and neg_v.shape == (3, 5)
    assert np.all(neg_u >= 0) and np.all(neg_u < 6)
    assert np.all(neg_v >= 0) and np.all(neg_v < 7)
    changed_u = neg_u != pairs[:, 0:1]
    changed_v = neg_v != pairs[:, 1:2]
    assert np.all(changed_u ^ changed_v)


def test_sample_negatives_deterministic():
    pairs = np.array([(0, 1), (2, 3)])
    a = sample_negatives(pairs, 4, 5, 5, RandomSource(9))
    b = sample_negatives(pairs, 4, 5, 5, RandomSource(9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_negatives(pairs, 4, 5, 5, RandomSource(10))
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


def test_sample_negatives_hits_both_sides():
    pairs = np.array([(2, 3)])
    neg_u, neg_v = sample_negatives(pairs, 200, 9, 9, RandomSource(0))
    assert (neg_u != 2).sum() > 50
    assert (neg_v != 3).sum() > 50


# ---------------- alignment loss ----------------


def test_alignment_loss_hand_case():
    # pos distance 1, neg distance 2, margin 3: each term is 1 + 3 - 2 = 2
    tape = Tape()
    h1 = tape.leaf(np.array([[0.0]]))
    h2 = tape.leaf(np.array([[1.0], [2.0]]))
    pos = np.array([(0, 0)])
    loss = alignment_loss(tape, h1, h2, pos, np.array([[0]]), np.array([[1]]), 3.0)
    assert abs(float(loss.value) - 2.0) <= 1e-12
    loss2 = alignment_loss(tape, h1, h2, pos, np.array([[0, 0]]), np.array([[1, 1]]), 3.0)
    assert abs(float(loss2.value) - 4.0) <= 1e-12


def test_alignment_loss_zero_when_margin_met():
    tape = Tape()
    h1 = tape.leaf(np.array([[0.0]]))
    h2 = tape.leaf(np.array([[0.5], [50.0]]))
    loss = alignment_loss(tape, h1, h2, np.array([(0, 0)]),
                          np.array([[0]]), np.array([[1]]), 3.0)
    assert float(loss.value) == 0.0


def test_alignment_loss_gradients_fd():
    rng = RandomSource(4)
    pos = np.array([(0, 0), (1, 2), (3, 1)])
    neg_u, neg_v = sample_negatives(pos, 3, 5, 5, rng)

    def fn(tape, a, b):
        return alignment_loss(tape, a, b, pos, neg_u, neg_v, 3.0)

    err = finite_diff_check(fn, [rng.normal((5, 4)), rng.normal((5, 4))])
    assert err <= 1e-7


# ---------------- classification loss ----------------


def test_multiclass_uniform_gives_log2():
    label_set = LabelSet({0: (0,)}, 2, False, train=[0])
    tape = Tape()
    logits = tape.leaf(np.zeros((1, 2)))
    loss = classification_loss(tape, logits, label_set, [0])
    assert abs(float(loss.value) - np.log(2.0)) <= 1e-12


def test_multilabel_half_gives_two_log2():
    label_set = LabelSet({0: (0,)}, 2, True, train=[0])
    tape = Tape()
    logits = tape.leaf(np.zeros((1, 2)))
    loss = classification_loss(tape, logits, label_set, [0])
    assert abs(float(loss.value) - 2.0 * np.log(2.0)) <= 1e-12


def test_classification_loss_sums_over_entities():
    label_set = LabelSet({0: (0,), 1: (1,)}, 2, False, train=[0, 1])
    tape = Tape()
    logits = tape.leaf(np.zeros((2, 2)))
    loss = classification_loss(tape, logits, label_set, [0, 1])
    assert abs(float(loss.value) - 2.0 * np.log(2.0)) <= 1e-12


def test_classification_loss_clamped_stays_finite():
    label_set = LabelSet({0: (0,)}, 2, False, train=[0])
    tape = Tape()
    logits = tape.leaf(np.array([[-1e6, 1e6]]))
    loss = classification_loss(tape, logits, label_set, [0])
    assert np.isfinite(float(loss.value))
    grads = tape.backward(loss)
    assert np.all(np.isfinite(grads[logits]))


def test_classification_loss_gradients_fd():
    label_set = LabelSet({0: (0, 2), 1: (1,), 2: (0,)}, 3, True, train=[0, 1, 2])
    rng = RandomSource(8)

    def fn(tape, x):
        return classification_loss(tape, x, label_set, [0, 1, 2])

    err = finite_diff_check(fn, [rng.normal((4, 3))])
    assert err <= 1e-7


def test_label_set_validation_errors():
    with pytest.raises(ValueError, match="out of range"):
        LabelSet({0: (3,)}, 3, False)
    with pytest.raises(ValueError, match="out of range"):
        LabelSet({0: (-1,)}, 3, True)
    with pytest.raises(ValueError, match="2 labels"):
        LabelSet({0: (0, 1)}, 3, False)
    with pytest.raises(ValueError, match="empty label set"):
        LabelSet({0: ()}, 3, True)


def test_classification_loss_width_mismatch():
    label_set = LabelSet({0: (0,)}, 2, False, train=[0])
    tape = Tape()
    logits = tape.leaf(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="class count"):
        classification_loss(tape, logits, label_set, [0])


# ---------------- Adam ----------------


def test_adam_zero_gradient_no_move():
    x = np.array([1.0, -2.0, 3.0])
    Adam(0.01).step({"x": x}, {"x": np.zeros(3)})
    assert np.array_equal(x, [1.0, -2.0, 3.0])


def test_adam_first_step_magnitude_is_lr():
    x = np.array([5.0, -5.0])
    Adam(0.01).step({"x": x}, {"x": np.array([0.3, -40.0])})
    # bias-corrected first step is lr * g / (|g| + eps), one lr per slot
    assert np.all(np.abs(np.abs(x - [5.0, -5.0]) - 0.01) <= 1e-8)
    assert x[0] < 5.0 and x[1] > -5.0


def test_adam_deterministic():
    runs = []
    for _ in range(2):
        x = np.array([0.7, -1.3])
        opt = Adam(0.05)
        for t in range(25):
            opt.step({"x": x}, {"x": np.array([np.sin(t + 1.0), np.cos(t)])})
        runs.append(x.copy())
    assert np.array_equal(runs[0], runs[1])


def test_adam_minimizes_quadratic():
    x = np.array([8.0])
    opt = Adam(0.1)
    for _ in range(500):
        opt.step({"x": x}, {"x": 2.0 * (x - 3.0)})
    assert abs(x[0] - 3.0) <= 1e-3


# ---------------- end-to-end gradients ----------------


def test_end_to_end_fd_alignment_transe():
    assert end_to_end_gradient_fd("alignment", "transe", max_coords=25) <= 1e-4


def test_end_to_end_fd_multiclass_quate():
    assert end_to_end_gradient_fd("multiclass", "quate", max_coords=25) <= 1e-4


def test_end_to_end_fd_multilabel_rotate():
    assert end_to_end_gradient_fd("multilabel", "rotate", max_coords=25) <= 1e-4


# ---------------- evaluation helpers ----------------


def test_l1_cdist_matches_naive():
    rng = RandomSource(5)
    a = rng.normal((7, 3))
    b = rng.normal((9, 3))
    want = np.array([[np.sum(np.abs(x - y)) for y in b] for x in a])
    assert np.allclose(l1_cdist(a, b, chunk=2), want, atol=1e-12)


def _l1_oracle(a, b):
    """One plain-NumPy row of L1 distances per row of a."""
    return np.array([np.sum(np.abs(row - b), axis=1) for row in a]).reshape(len(a), len(b))


def test_l1_cdist_chunking_is_bitwise():
    # a with no rows; b of 1100 rows at dim 64 fills more than one block
    rng = np.random.default_rng(12)
    for rows_a, rows_b, dim in ((11, 23, 64), (0, 23, 64), (5, 1100, 64), (9, 40, 3)):
        a = rng.normal(size=(rows_a, dim))
        b = rng.normal(size=(rows_b, dim))
        want = _l1_oracle(a, b)
        for chunk in (None, 1, 3, 12, 50):
            got = l1_cdist(a, b, chunk=chunk)
            assert got.shape == (rows_a, rows_b) and np.array_equal(got, want)


def test_evaluate_classification_matches_per_row_metrics_with_ties():
    from kegcn import metrics
    import helpers

    rng = np.random.default_rng(13)
    scores = rng.integers(0, 3, size=(40, 7)) / 4.0   # many tied scores per row
    scores[0] = 0.5                                     # a row that is all ties
    ids = [int(i) for i in rng.permutation(40)[:30]]
    single = LabelSet({i: (int(rng.integers(0, 7)),) for i in range(40)}, 7, False)
    got = evaluate_classification(scores, single, ids)
    pred = [helpers.argmax_prediction(scores[e]) for e in ids]
    assert got["accuracy"] == metrics.accuracy(pred, [single.labels[e][0] for e in ids])
    multi = LabelSet({i: tuple(sorted({int(c) for c in rng.integers(0, 7, size=3)}))
                      for i in range(40)}, 7, True)
    got = evaluate_classification(scores, multi, ids)
    for key, k in (("p1", 1), ("p5", 5)):
        per_row = [helpers.precision_at_k(scores[e], multi.labels[e], k) for e in ids]
        assert got[key] == float(np.mean(per_row))
    per_row = [metrics.ndcg_at_k(scores[e], multi.labels[e], 5) for e in ids]
    assert got["ndcg5"] == float(np.mean(per_row))


def test_evaluate_alignment_perfect_match():
    rng = RandomSource(6)
    ent = rng.normal((8, 4))
    s1 = EmbeddingState(ent.copy(), None)
    s2 = EmbeddingState(ent.copy(), None)
    pairs = [(i, i) for i in range(8)]
    out = evaluate_alignment(s1, s2, pairs)
    assert out["hits1"] == 1.0 and out["mrr"] == 1.0 and out["hits10"] == 1.0


def test_zero_shot_identity_relations():
    rng = RandomSource(7)
    rel = rng.normal((5, 4))
    s1 = EmbeddingState(np.zeros((2, 4)), rel.copy())
    s2 = EmbeddingState(np.zeros((2, 4)), rel.copy())
    out = zero_shot_relation_alignment(s1, s2, [(i, i) for i in range(5)])
    assert out["hits1"] == 1.0 and out["mrr"] == 1.0


def _rank_cases():
    rng = np.random.default_rng(21)
    half = lambda n, d=5: rng.integers(0, 4, size=(n, d)) / 2.0   # many tied distances
    ties = half(30), half(30)
    yield "ties", ties, rng.permutation(30)[:20], rng.permutation(30)[:20]
    yield "n1<n2", (half(12), half(31)), rng.permutation(12)[:9], rng.permutation(31)[:9]
    yield "n1>n2", (rng.normal(size=(40, 6)), rng.normal(size=(17, 6))), \
        rng.permutation(40)[:15], rng.permutation(17)[:15]
    yield "repeated-source", ties, np.array([3, 7, 3, 0, 7, 3]), np.array([1, 2, 5, 5, 0, 9])
    yield "q=n1", ties, rng.permutation(30), rng.permutation(30)
    yield "q=1", ties, np.array([4]), np.array([11])


@pytest.mark.parametrize("case", list(_rank_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("table", ["entity", "relation"])
def test_two_way_ranking_matches_two_matrix_oracle_bitwise(monkeypatch, case, table):
    """Each direction's matrix, and so its ranks and the report, equals one
    plain L1 matrix per direction; ranks are taken exactly twice, forward
    (q, n2) then backward (q, n1)."""
    from kegcn import metrics

    _, (x1, x2), src, dst = case
    calls = []
    inner = metrics.ranks_from_distance_matrix

    def recording(dist, truths):
        ranks = inner(dist, truths)
        calls.append((dist.copy(), np.array(truths), ranks))
        return ranks

    monkeypatch.setattr(metrics, "ranks_from_distance_matrix", recording)
    pairs = list(zip(src.tolist(), dst.tolist()))
    if table == "entity":
        got = evaluate_alignment(EmbeddingState(x1), EmbeddingState(x2), pairs)
    else:
        got = zero_shot_relation_alignment(EmbeddingState(np.zeros((1, 2)), x1),
                                           EmbeddingState(np.zeros((1, 2)), x2), pairs)
    want_fwd, want_bwd = _l1_oracle(x1[src], x2), _l1_oracle(x2[dst], x1)
    r_fwd, r_bwd = inner(want_fwd, dst), inner(want_bwd, src)
    assert len(calls) == 2
    (fwd, fwd_truths, fwd_ranks), (bwd, bwd_truths, bwd_ranks) = calls
    assert fwd.shape == (len(src), len(x2)) and np.array_equal(fwd, want_fwd)
    assert bwd.shape == (len(src), len(x1)) and np.array_equal(bwd, want_bwd)
    assert np.array_equal(fwd_truths, dst) and np.array_equal(bwd_truths, src)
    assert np.array_equal(fwd_ranks, r_fwd) and np.array_equal(bwd_ranks, r_bwd)
    assert got == {
        "mrr": 0.5 * (metrics.mrr(r_fwd) + metrics.mrr(r_bwd)),
        "hits1": 0.5 * (metrics.hits_at_k(r_fwd, 1) + metrics.hits_at_k(r_bwd, 1)),
        "hits10": 0.5 * (metrics.hits_at_k(r_fwd, 10) + metrics.hits_at_k(r_bwd, 10)),
    }


@pytest.mark.parametrize("pairs", [[], np.zeros((0, 2), dtype=np.int64)])
def test_two_way_ranking_rejects_no_pairs(pairs):
    s = EmbeddingState(np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="no pairs"):
        evaluate_alignment(s, s, pairs)
    with pytest.raises(ValueError, match="no pairs"):
        zero_shot_relation_alignment(s, s, pairs)


def test_zero_shot_needs_relation_embeddings():
    s1 = EmbeddingState(np.zeros((2, 4)), None)
    s2 = EmbeddingState(np.zeros((2, 4)), None)
    with pytest.raises(UnsupportedModeError):
        zero_shot_relation_alignment(s1, s2, [(0, 0)])


def test_evaluate_classification_multiclass():
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    label_set = LabelSet({0: (0,), 1: (1,), 2: (1,)}, 2, False)
    out = evaluate_classification(scores, label_set, [0, 1, 2])
    assert abs(out["accuracy"] - 2.0 / 3.0) <= 1e-12


def test_evaluate_classification_multilabel_keys():
    scores = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.3]])
    label_set = LabelSet({0: (0, 2), 1: (1,)}, 3, True)
    out = evaluate_classification(scores, label_set, [0, 1])
    assert out["p1"] == 1.0
    assert 0.0 <= out["ndcg5"] <= 1.0


# ---------------- training loops ----------------


def small_alignment_instance():
    g1 = ring_graph(12, 2)
    g2 = ring_graph(12, 2)
    seeds = AlignmentSeeds(train=[(i, i) for i in range(8)],
                           valid=[(i, i) for i in range(8, 12)])
    return g1, g2, seeds


def test_train_alignment_empty_train_rejected():
    g1, g2, _ = small_alignment_instance()
    cfg = TrainConfig(dim=4, layers=2, epochs=2)
    with pytest.raises(ValueError, match="empty training set"):
        train_alignment(g1, g2, AlignmentSeeds(train=[], valid=[]), cfg)


def test_train_alignment_loss_decreases():
    g1, g2, seeds = small_alignment_instance()
    cfg = TrainConfig(dim=6, layers=2, epochs=25, patience=25, seed=1)
    res = train_alignment(g1, g2, seeds, cfg)
    assert res.losses[-1] < res.losses[0]
    assert res.epochs_run == 25
    assert res.state1.entity.shape == (12, 6)


def test_train_alignment_deterministic():
    g1, g2, seeds = small_alignment_instance()
    cfg = TrainConfig(dim=4, layers=2, epochs=10, seed=3)
    a = train_alignment(g1, g2, seeds, cfg)
    b = train_alignment(g1, g2, seeds, cfg)
    assert a.losses == b.losses
    assert np.array_equal(a.state1.entity, b.state1.entity)
    assert np.array_equal(a.state2.entity, b.state2.entity)
    assert np.array_equal(a.state1.relation, b.state1.relation)


def test_scatter_cache_size_fixed_across_epochs():
    g1, g2, seeds = small_alignment_instance()
    sizes = []

    def progress(*_):
        sizes.append(sum(len(c) for g in (g1, g2) for c in g.flat_cache.values()))

    cfg = TrainConfig(dim=4, layers=2, epochs=30, patience=30, negatives=3)
    train_alignment(g1, g2, seeds, cfg, progress=progress)
    assert len(sizes) == 30 and sizes[0] > 0
    assert sizes == [sizes[0]] * 30


def test_quate_scatter_cache_one_entry_per_layout_across_epochs():
    # quaternion messages scatter from (4, E, d) planes: one layout per index
    g1, g2, seeds = small_alignment_instance()
    sizes = []

    def progress(*_):
        sizes.append(sum(len(c) for g in (g1, g2) for c in g.flat_cache.values()))

    cfg = TrainConfig(scorer="quate", dim=8, layers=2, epochs=30, patience=30, negatives=3)
    train_alignment(g1, g2, seeds, cfg, progress=progress)
    assert sizes == [6] * 30
    for g in (g1, g2):
        assert all(list(g.flat_cache[name]) == [(8, 4)] for name in ("heads", "tails", "rels"))


def _epoch_node_counts(monkeypatch, train):
    counts = []

    class CountingTape(Tape):
        def backward(self, loss):
            counts.append(len(self.nodes))
            return super().backward(loss)

    monkeypatch.setattr(tasks_mod, "Tape", CountingTape)
    train()
    return counts


def test_quate_epoch_tape_node_count(monkeypatch):
    # 4 layers on two graphs plus the loss; messages record no reshape nodes.
    # The last layer records no relation update: per graph no quat_mul for
    # ghat, unit_project_pullback, relation segment_sum, norm mul, add or
    # matmul (200 nodes with it)
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs)
    cfg = TrainConfig(scorer="quate", dim=8, layers=4, epochs=2)
    assert _epoch_node_counts(monkeypatch, lambda: train_alignment(g1, g2, seeds, cfg)) \
        == [188, 188]


def test_transe_classification_epoch_tape_node_count(monkeypatch):
    # 4 layers plus the loss; the last layer records no gr scale, relation
    # segment_sum, norm mul, add or matmul (106 nodes with them)
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(dim=8, layers=4, epochs=2)
    assert _epoch_node_counts(monkeypatch, lambda: train_classification(g, label_set, cfg)) \
        == [101, 101]


FULL_STACK_CASES = ([("kegcn", s) for s in ("transe", "distmult", "transh", "transd",
                                             "rotate", "quate")]
                    + [(m, "transe") for m in REDUCTION_MODES])


@pytest.mark.parametrize("task", ["alignment", "classification"])
@pytest.mark.parametrize("mode,scorer", FULL_STACK_CASES)
def test_epoch_equals_the_full_stack_bitwise(monkeypatch, task, mode, scorer):
    # training skips the last layer's relation update and takes the planes
    # scorers' unit-projection parts once per relation row; the full stack
    # records that update and lets every projection op compute its parts
    # per edge.  Losses and every leaf gradient must not move by one bit.
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(mode=mode, scorer=scorer, dim=8, layers=3, epochs=2, lr=0.05)
    epochs = []

    class RecordingTape(Tape):
        def backward(self, loss):
            grads = super().backward(loss)
            leaves = [i for i, node in enumerate(self.nodes) if node.name == "leaf"]
            epochs.append((float(loss.value), [grads._grads[i] if i < len(grads._grads)
                                               else None for i in leaves]))
            return grads

    monkeypatch.setattr(tasks_mod, "Tape", RecordingTape)
    run = ((lambda: train_alignment(g1, g2, seeds, cfg)) if task == "alignment"
           else (lambda: train_classification(g, label_set, cfg)))
    run()
    trained, epochs[:] = list(epochs), []

    def full_forward(*args, **kwargs):
        return propagation.forward_on_tape(*args, **{**kwargs, "final_relation": True})

    monkeypatch.setattr(tasks_mod, "forward_on_tape", full_forward)
    monkeypatch.setattr(propagation, "edge_unit_parts", lambda *_: None)
    run()
    assert len(trained) == len(epochs) == 2
    for (loss, grads), (full_loss, full_grads) in zip(trained, epochs):
        assert loss == full_loss
        assert len(grads) == len(full_grads)
        for a, b in zip(grads, full_grads):
            assert (a is None and b is None) or np.array_equal(a, b)


# ---------------- training memory ----------------

ADAM_STEP = Adam.step


def _fit_record(monkeypatch, task, mode, scorer, epochs=3):
    """Losses and the leaf gradients of every epoch, as Adam receives them."""
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(mode=mode, scorer=scorer, dim=8, layers=3, epochs=epochs, lr=0.05)
    grads = []

    def recording_step(self, params, g):
        grads.append({k: v.copy() for k, v in g.items()})
        return ADAM_STEP(self, params, g)

    monkeypatch.setattr(Adam, "step", recording_step)
    res = (train_alignment(g1, g2, seeds, cfg) if task == "alignment"
           else train_classification(g, label_set, cfg))
    return res.losses, grads


@pytest.mark.parametrize("task", ["alignment", "classification"])
@pytest.mark.parametrize("mode,scorer", FULL_STACK_CASES)
def test_pooled_training_is_bitwise_plain_tape_training(monkeypatch, task, mode, scorer):
    pooled = _fit_record(monkeypatch, task, mode, scorer)
    monkeypatch.setattr(tasks_mod, "Tape", lambda pool=None: Tape())
    plain = _fit_record(monkeypatch, task, mode, scorer)
    assert pooled[0] == plain[0]
    assert len(pooled[1]) == len(plain[1]) == 3
    for a, b in zip(pooled[1], plain[1]):
        assert a.keys() == b.keys()
        for k in a:
            assert a[k].shape == b[k].shape
            assert np.array_equal(a[k].view(np.int64), b[k].view(np.int64)), k


@pytest.mark.parametrize("scorer", ["transe", "quate"])
def test_no_array_of_an_epoch_outlives_it(monkeypatch, scorer):
    # when fit makes epoch t+1's tape, epoch t's tape, gradients and every
    # array its nodes held are gone, and the pool hands all its arrays out
    # again: epoch t+1's forward runs with nothing of epoch t alive
    history, checked = [], []

    class ProbeTape(Tape):
        def __init__(self, pool=None):
            if history:
                tape, grads, arrays = history[-1]
                assert tape() is None and grads() is None
                assert all(r() is None for r in arrays)
                assert pool.held() == []
                checked.append(True)
            super().__init__(pool)

        def backward(self, loss):
            arrays = [weakref.ref(n.value) for n in self.nodes if n.name != "leaf"]
            grads = super().backward(loss)
            history.append((weakref.ref(self), weakref.ref(grads), arrays))
            return grads

    monkeypatch.setattr(tasks_mod, "Tape", ProbeTape)
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    train_alignment(g1, g2, seeds, TrainConfig(scorer=scorer, dim=8, layers=3, epochs=4))
    assert len(checked) == 3


def test_validation_reads_outputs_the_pool_did_not_recycle(monkeypatch):
    # the last layer's outputs are pooled arrays that validation reads after
    # backward: backward must not have handed them out again
    pools, outs, checked = [], [], []

    class ProbePool(BufferPool):
        def __init__(self):
            super().__init__()
            pools.append(self)

    forward = tasks_mod.forward_on_tape

    def recording_forward(*args, **kwargs):
        hv, hr = forward(*args, **kwargs)
        outs.append(hv.value.copy())
        return hv, hr

    evaluate = tasks_mod.evaluate_alignment

    def checking_evaluate(s1, s2, pairs):
        for got, want in zip((s1.entity, s2.entity), outs[-2:]):
            assert any(np.may_share_memory(got, a) for a in pools[-1].held())
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        checked.append(True)
        return evaluate(s1, s2, pairs)

    monkeypatch.setattr(tasks_mod, "BufferPool", ProbePool)
    monkeypatch.setattr(tasks_mod, "forward_on_tape", recording_forward)
    monkeypatch.setattr(tasks_mod, "evaluate_alignment", checking_evaluate)
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    train_alignment(g1, g2, seeds, TrainConfig(scorer="quate", dim=32, layers=3, epochs=3))
    assert len(checked) == 3


def test_training_memory_is_one_epoch():
    # traced memory peaks per epoch: the later epochs reuse the first one's
    # arrays, so none holds two tapes' arrays at once.  The margin covers
    # what the first epoch allocates after its peak (Adam's state, about
    # 100 KiB here); one more tape's arrays would add about 1.5 MiB
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(60, 3, 300, seed=2)
    seeds = synthetic.alignment_split(ent_pairs)
    cfg = TrainConfig(scorer="quate", dim=16, layers=3, epochs=3)
    peaks = []

    def progress(*_):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        train_alignment(g1, g2, seeds, cfg, progress=progress)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3
    assert max(peaks[1:]) <= peaks[0] + 256 * 1024, peaks


def test_train_alignment_early_stops_on_plateau():
    g1, g2, seeds = small_alignment_instance()
    cfg = TrainConfig(dim=4, layers=2, epochs=400, patience=5, seed=0)
    res = train_alignment(g1, g2, seeds, cfg)
    # validation hits@1 takes finitely many values, so a plateau must come
    assert res.epochs_run < 400
    assert res.epochs_run == res.best_epoch + cfg.patience + 1
    assert res.best_valid_hits1 is not None


def test_train_alignment_shares_layer_weights():
    g1, g2, seeds = small_alignment_instance()
    cfg = TrainConfig(dim=4, layers=2, epochs=2)
    res = train_alignment(g1, g2, seeds, cfg)
    named = named_parameters(res.params, {"g1": res.init1, "g2": res.init2})
    assert named["layer0.w"] is res.params[0].w
    assert res.init1.entity is not res.init2.entity


def test_train_classification_overfits_single_entity():
    g = build_graph([(0, 0, 1)], 2, 1)
    labels = LabelSet({0: (1,)}, 2, False, train=[0])
    cfg = TrainConfig(dim=4, layers=2, lr=0.05, epochs=200, seed=0)
    res = train_classification(g, labels, cfg)
    assert res.losses[-1] < 1e-3
    assert res.logits.shape == (2, 2)


def test_train_classification_deterministic():
    g = ring_graph(10, 2)
    labels = LabelSet({i: (i % 3,) for i in range(6)}, 3, False,
                      train=[0, 1, 2, 3], valid=[4, 5])
    cfg = TrainConfig(dim=4, layers=2, epochs=8, seed=2)
    a = train_classification(g, labels, cfg)
    b = train_classification(g, labels, cfg)
    assert a.losses == b.losses
    assert np.array_equal(a.logits, b.logits)


def test_train_classification_no_classes_rejected():
    g = ring_graph(6, 2)
    labels = LabelSet({}, 0, False, train=[0])
    cfg = TrainConfig(dim=4, layers=2, epochs=2)
    with pytest.raises(ValueError, match="at least one class"):
        train_classification(g, labels, cfg)


def test_train_classification_multilabel_runs():
    g = ring_graph(10, 2)
    labels = LabelSet({i: (i % 2, 2) for i in range(6)}, 3, True,
                      train=[0, 1, 2, 3], valid=[4, 5])
    cfg = TrainConfig(dim=4, layers=2, epochs=6, seed=1)
    res = train_classification(g, labels, cfg)
    assert res.scores.shape == (10, 3)
    assert np.all(res.scores > 0) and np.all(res.scores < 1)
    assert res.best_valid_metric is not None


def test_train_alignment_rgcn_has_no_relation_table():
    g1, g2, seeds = small_alignment_instance()
    cfg = TrainConfig(mode="rgcn", dim=4, layers=2, epochs=3)
    res = train_alignment(g1, g2, seeds, cfg)
    assert res.state1.relation is None
    with pytest.raises(UnsupportedModeError):
        zero_shot_relation_alignment(res.state1, res.state2, [(0, 0)])


# ---------------- best checkpoint ----------------


def test_train_alignment_restores_the_scored_checkpoint():
    # the restored model must be the one whose validation score was kept
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(200, 5, 1000, seed=122)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    res = train_alignment(g1, g2, seeds, TrainConfig(dim=32, lr=0.05, patience=5))
    assert res.epochs_run < 1000
    rescored = evaluate_alignment(res.state1, res.state2, seeds.valid)["hits1"]
    assert rescored == res.best_valid_hits1


def test_train_classification_restores_the_scored_checkpoint():
    g, labels = synthetic.block_classification(300, 3, 1500, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(dim=32, lr=0.05, patience=5, epochs=200, seed=3)
    res = train_classification(g, label_set, cfg)
    assert res.epochs_run < 200
    rescored = evaluate_classification(res.scores, label_set, label_set.valid)["accuracy"]
    assert rescored == res.best_valid_metric


# ---------------- benchmark tracing hooks ----------------


def test_perfbench_tracing_patch_points_resolve():
    # perfbench/tracing.py patches module attributes of the package by name
    # (tasks.forward_on_tape, tasks.sample_negatives, io.build_graph, ...);
    # a renamed or dropped one breaks only traced benchmark runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    g1, g2, seeds = small_alignment_instance()
    g = ring_graph(10, 2)
    labels = LabelSet({i: (i % 3,) for i in range(6)}, 3, False,
                      train=[0, 1, 2, 3], valid=[4, 5])
    cfg = TrainConfig(dim=4, layers=2, epochs=2)
    runs = {"tasks.negatives": lambda: train_alignment(g1, g2, seeds, cfg),
            "tasks.final_forward": lambda: train_classification(g, labels, cfg)}
    for extra, run in runs.items():
        tr = tracing.Tracer()
        # entering looks up every patched name
        with tracing.instrument(tr):
            run()
        names = {span[0] for span in tr.spans}
        assert {"tasks.loss", "tasks.valid", "tasks.adam", "propagation.layer0",
                "propagation.layer1", extra} <= names, names
        assert any(m[0] == "propagation.layer0.tape_nodes" for m in tr.marks)
        # the tracer sums node values just before backward drops them
        for mark in ("autodiff.tape_bytes", "propagation.layer0.tape_bytes"):
            sizes = [m[2] for m in tr.marks if m[0] == mark]
            assert sizes and min(sizes) > 0, mark


# ---------------- diverged runs ----------------


def test_diverged_alignment_raises_naming_the_epoch():
    # the loss is finite at epoch 0 and nan from epoch 1 on; the run used to
    # finish and report mrr = hits@1 = 1.0 from nan distances
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs)
    cfg = TrainConfig(scorer="quate", dim=8, layers=2, lr=1e300, epochs=4)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match=r"epoch 1\b"):
        train_alignment(g1, g2, seeds, cfg)
    assert issubclass(TrainingDivergedError, ValueError)


def test_diverged_classification_raises_naming_the_epoch():
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(dim=8, layers=2, lr=1e300, epochs=4)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match=r"epoch 1\b"):
        train_classification(g, label_set, cfg)


def test_evaluate_alignment_rejects_non_finite_embeddings():
    good = EmbeddingState(np.arange(6.0).reshape(3, 2))
    bad = EmbeddingState(np.array([[0.0, 1.0], [np.nan, 0.0], [2.0, 2.0]]))
    with pytest.raises(ValueError, match="finite"):
        evaluate_alignment(good, bad, [(0, 0), (1, 1)])
