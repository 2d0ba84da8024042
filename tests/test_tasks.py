"""Tests for losses, negative sampling, Adam, and the training loops."""

import numpy as np
import pytest

from kegcn import synthetic
from kegcn.autodiff import Tape, finite_diff_check
from kegcn.checks import end_to_end_gradient_fd
from kegcn.graph import build_graph
from kegcn.numerics import RandomSource
from kegcn.tasks import (
    Adam,
    AlignmentSeeds,
    LabelSet,
    TrainConfig,
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
from kegcn.propagation import EmbeddingState


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


def test_l1_cdist_chunking_is_bitwise():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(11, 64))
    b = rng.normal(size=(23, 64))
    want = np.stack([np.sum(np.abs(row - b), axis=1) for row in a])
    for chunk in (None, 1, 3, 12):
        assert np.array_equal(l1_cdist(a, b, chunk=chunk), want)


def test_evaluate_classification_matches_per_row_metrics_with_ties():
    from kegcn import metrics

    rng = np.random.default_rng(13)
    scores = rng.integers(0, 3, size=(40, 7)) / 4.0   # many tied scores per row
    scores[0] = 0.5                                     # a row that is all ties
    ids = [int(i) for i in rng.permutation(40)[:30]]
    single = LabelSet({i: (int(rng.integers(0, 7)),) for i in range(40)}, 7, False)
    got = evaluate_classification(scores, single, ids)
    pred = [metrics.argmax_prediction(scores[e]) for e in ids]
    assert got["accuracy"] == metrics.accuracy(pred, [single.labels[e][0] for e in ids])
    multi = LabelSet({i: tuple(sorted({int(c) for c in rng.integers(0, 7, size=3)}))
                      for i in range(40)}, 7, True)
    got = evaluate_classification(scores, multi, ids)
    for key, k in (("p1", 1), ("p5", 5)):
        per_row = [metrics.precision_at_k(scores[e], multi.labels[e], k) for e in ids]
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
