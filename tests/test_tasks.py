"""Tests for losses, negative sampling, Adam, and the training loops."""

import contextlib
import tracemalloc
import weakref

import numpy as np
import pytest

from kegcn import checks, numerics, scorers, synthetic
from kegcn import tasks as tasks_mod
from helpers import PerParameterAdam, finite_diff_check, ndcg_at_k, perfbench_module
from kegcn.autodiff import Tape
from kegcn.checks import end_to_end_gradient_fd
from kegcn.graph import build_graph
from kegcn.numerics import seeded
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
    neg_u, neg_v = sample_negatives(pairs, 5, 6, 7, seeded(3))
    assert neg_u.shape == (3, 5) and neg_v.shape == (3, 5)
    assert np.all(neg_u >= 0) and np.all(neg_u < 6)
    assert np.all(neg_v >= 0) and np.all(neg_v < 7)
    changed_u = neg_u != pairs[:, 0:1]
    changed_v = neg_v != pairs[:, 1:2]
    assert np.all(changed_u ^ changed_v)


def test_sample_negatives_deterministic():
    pairs = np.array([(0, 1), (2, 3)])
    a = sample_negatives(pairs, 4, 5, 5, seeded(9))
    b = sample_negatives(pairs, 4, 5, 5, seeded(9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_negatives(pairs, 4, 5, 5, seeded(10))
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


def test_sample_negatives_hits_both_sides():
    pairs = np.array([(2, 3)])
    neg_u, neg_v = sample_negatives(pairs, 200, 9, 9, seeded(0))
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
    rng = seeded(4)
    pos = np.array([(0, 0), (1, 2), (3, 1)])
    neg_u, neg_v = sample_negatives(pos, 3, 5, 5, rng)

    def fn(tape, a, b):
        return alignment_loss(tape, a, b, pos, neg_u, neg_v, 3.0)

    err = finite_diff_check(fn, [rng.normal(size=(5, 4)), rng.normal(size=(5, 4))])
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
    rng = seeded(8)

    def fn(tape, x):
        return classification_loss(tape, x, label_set, [0, 1, 2])

    err = finite_diff_check(fn, [rng.normal(size=(4, 3))])
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


def test_perfect_fits_read_positive_zero():
    # both losses are sums of terms that are >= 0 term by term
    for multi in (False, True):
        label_set = LabelSet({0: (1,)}, 2, multi, train=[0])
        tape = Tape()
        loss = classification_loss(tape, tape.leaf(np.array([[-1e3, 1e3]])), label_set, [0])
        assert float(loss.value) == 0.0 and np.copysign(1.0, loss.value) == 1.0


@pytest.mark.parametrize("multi", [False, True])
def test_saturated_logits_still_get_a_gradient(multi):
    # a confident wrong answer is pushed back: logits near +-1e3, where the
    # probabilities round to 0 and 1
    label_set = LabelSet({0: (0,)}, 2, multi, train=[0])
    tape = Tape()
    logits = tape.leaf(np.array([[-1e3, 1e3]]))
    grads = tape.backward(classification_loss(tape, logits, label_set, [0]))
    assert np.array_equal(grads[logits], [[-1.0, 1.0]])


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


def test_flat_adam_is_bitwise_the_per_parameter_step():
    # all parameters share one pass of each elementwise op; every element
    # still sees the operations it sees alone, non-contiguous gradients too
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 3), "d": (1,), "e": (4, 3),
              "f": (2,), "g": (3, 3)}
    rng = seeded(83)
    flat = {k: rng.normal(size=s) for k, s in shapes.items()}
    oracle = {k: v.copy() for k, v in flat.items()}
    adam, ref = Adam(0.05), PerParameterAdam(0.05)
    for t in range(50):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for k, s in shapes.items()}
        grads["c"] = rng.normal(size=(3, 2)).T          # strided views
        grads["e"] = rng.normal(size=(3, 4)).T
        if t % 7 == 3:
            grads["b"][:] = 0.0
        adam.step(flat, grads)
        ref.step(oracle, grads)
        for k in shapes:
            assert np.array_equal(flat[k].view(np.int64), oracle[k].view(np.int64)), (t, k)
    assert np.array_equal(adam.m, np.concatenate([ref.m[k] for k in shapes], axis=None))
    assert np.array_equal(adam.v, np.concatenate([ref.v[k] for k in shapes], axis=None))


def test_adam_steps_the_parameters_of_its_first_step_only():
    adam = Adam(0.01)
    adam.step({"x": np.zeros(3)}, {"x": np.ones(3)})
    with pytest.raises(ValueError, match="first step"):
        adam.step({"x": np.zeros(4)}, {"x": np.ones(4)})
    with pytest.raises(ValueError, match="first step"):
        adam.step({"y": np.zeros(3)}, {"y": np.ones(3)})


# ---------------- end-to-end gradients ----------------


def test_end_to_end_fd_alignment_transe():
    assert end_to_end_gradient_fd("alignment", "transe", max_coords=25) <= 1e-4


def test_end_to_end_fd_multiclass_quate():
    assert end_to_end_gradient_fd("multiclass", "quate", max_coords=25) <= 1e-4


def test_end_to_end_fd_multilabel_rotate():
    assert end_to_end_gradient_fd("multilabel", "rotate", max_coords=25) <= 1e-4


# ---------------- evaluation helpers ----------------


def test_l1_cdist_matches_naive(monkeypatch):
    rng = seeded(5)
    a = rng.normal(size=(7, 3))
    b = rng.normal(size=(9, 3))
    want = np.array([[np.sum(np.abs(x - y)) for y in b] for x in a])
    # blocks of 2 rows of a against all 9 of b
    monkeypatch.setattr(tasks_mod, "_CDIST_BUFFER_BYTES", 2 * 9 * 3 * 8)
    assert np.allclose(l1_cdist(a, b), want, atol=1e-12)


def _l1_oracle(a, b):
    """One plain-NumPy row of L1 distances per row of a."""
    return np.array([np.sum(np.abs(row - b), axis=1) for row in a]).reshape(len(a), len(b))


def test_l1_cdist_chunking_is_bitwise(monkeypatch):
    # a with no rows; b of 1100 rows at dim 64 fills more than one block;
    # buffers from one row pair per block to every pair in one block
    rng = seeded(12)
    for rows_a, rows_b, dim in ((11, 23, 64), (0, 23, 64), (5, 1100, 64), (9, 40, 3)):
        a = rng.normal(size=(rows_a, dim))
        b = rng.normal(size=(rows_b, dim))
        want = _l1_oracle(a, b)
        for size in (8, 3 * 8 * dim, 7 * 8 * dim, 12 * 8 * dim * rows_b, 512 << 10, 8 << 20):
            monkeypatch.setattr(tasks_mod, "_CDIST_BUFFER_BYTES", size)
            got = l1_cdist(a, b)
            assert got.shape == (rows_a, rows_b) and np.array_equal(got, want)


def test_evaluate_classification_matches_per_row_metrics_with_ties():
    from kegcn import metrics
    import helpers

    rng = seeded(13)
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
    per_row = [ndcg_at_k(scores[e], multi.labels[e], 5) for e in ids]
    assert got["ndcg5"] == float(np.mean(per_row))


def test_evaluate_alignment_perfect_match():
    rng = seeded(6)
    ent = rng.normal(size=(8, 4))
    s1 = EmbeddingState(ent.copy(), None)
    s2 = EmbeddingState(ent.copy(), None)
    pairs = [(i, i) for i in range(8)]
    out = evaluate_alignment(s1, s2, pairs)
    assert out["hits1"] == 1.0 and out["mrr"] == 1.0 and out["hits10"] == 1.0


def test_zero_shot_identity_relations():
    rng = seeded(7)
    rel = rng.normal(size=(5, 4))
    s1 = EmbeddingState(np.zeros((2, 4)), rel.copy())
    s2 = EmbeddingState(np.zeros((2, 4)), rel.copy())
    out = zero_shot_relation_alignment(s1, s2, [(i, i) for i in range(5)])
    assert out["hits1"] == 1.0 and out["mrr"] == 1.0


def _rank_cases():
    rng = seeded(21)
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


@pytest.mark.parametrize("key, value", [("lr", -1.0), ("lr", 0.0), ("lr", float("nan")),
                                        ("lr", float("inf")), ("gamma", float("nan")),
                                        ("gamma", float("inf")), ("alpha", float("nan")),
                                        ("alpha", float("-inf"))])
def test_train_config_rejects_bad_lr_and_nonfinite_gamma_alpha(key, value):
    with pytest.raises(ValueError, match=f"{key} must be"):
        TrainConfig(**{key: value})


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
    # quaternion messages scatter from (4, E, d) planes, one plane at a time:
    # one entry per index, the positions of one (E, d) plane
    g1, g2, seeds = small_alignment_instance()
    sizes = []

    def progress(*_):
        sizes.append(sum(len(c) for g in (g1, g2) for c in g.flat_cache.values()))

    cfg = TrainConfig(scorer="quate", dim=8, layers=2, epochs=30, patience=30, negatives=3)
    train_alignment(g1, g2, seeds, cfg, progress=progress)
    assert sizes == [6] * 30
    for g in (g1, g2):
        for name in ("heads", "tails", "rels"):
            assert list(g.flat_cache[name]) == [2]
            assert g.flat_cache[name][2].size == 2 * len(getattr(g, name))


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
    # ghat, unit_project_pullback, relation segment_sum, norm scale, add or
    # matmul (195 nodes with it).  The norm columns and the margin are
    # constants, not leaves
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs)
    cfg = TrainConfig(scorer="quate", dim=8, layers=4, epochs=2)
    assert _epoch_node_counts(monkeypatch, lambda: train_alignment(g1, g2, seeds, cfg)) \
        == [183, 183]


def test_transe_classification_epoch_tape_node_count(monkeypatch):
    # 4 layers plus the loss (gather, neg_log_softmax, label scale, sum);
    # the last layer records no relation segment_sum, norm scale, add or
    # matmul (88 nodes with them).  TransE's message is e itself: its
    # factors -2, -2, 2 ride on the norm scales, not on three edge scale
    # nodes per layer.  The norm columns and the label rows are constants,
    # not leaves
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(dim=8, layers=4, epochs=2)
    assert _epoch_node_counts(monkeypatch, lambda: train_classification(g, label_set, cfg)) \
        == [84, 84]


@pytest.mark.parametrize("task", ["alignment", "classification"])
def test_every_leaf_of_a_training_tape_is_a_named_parameter(monkeypatch, task):
    # the margin and the label rows are constants, so backward computes no
    # gradient that Adam does not step
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs)
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(dim=8, layers=3, epochs=1)
    named, leaves, record_forward = [], [], tasks_mod.record_forward

    def recording_forward(tape, *args):
        pvars, outs = record_forward(tape, *args)
        named.append(sorted(v.index for v in pvars.values()))
        return pvars, outs

    class LeafTape(Tape):
        def backward(self, loss):
            leaves.append([i for i in range(len(self.nodes)) if self.nodes[i].name == "leaf"])
            return super().backward(loss)

    monkeypatch.setattr(tasks_mod, "record_forward", recording_forward)
    monkeypatch.setattr(tasks_mod, "Tape", LeafTape)
    if task == "alignment":
        train_alignment(g1, g2, seeds, cfg)
    else:
        train_classification(g, label_set, cfg)
    assert len(leaves) == 1 and leaves == named


def _zero_loss_run(monkeypatch, relu=None):
    """Alignment over 18 epochs, epoch 14 of them with loss exactly 0: the
    names of the vjps each backward ran, Adam's gradients, the losses and
    the trained arrays.  `relu` replaces Tape.relu when given."""
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs)
    cfg = TrainConfig(dim=8, layers=2, epochs=18, lr=0.05, gamma=0.1, patience=100)
    ran, grads, step = [], [], Adam.step

    class CountingTape(Tape):
        def backward(self, loss):
            names = []
            for node in self.nodes.all:
                if node.vjp is not None:
                    node.vjp = (lambda vjp, name: lambda g: names.append(name) or vjp(g))(
                        node.vjp, node.name)
            ran.append(names)
            return super().backward(loss)

    def recording_step(self, params, g):
        grads.append([g[k].copy() for k in sorted(g)])
        step(self, params, g)

    with monkeypatch.context() as m:
        m.setattr(tasks_mod, "Tape", CountingTape)
        m.setattr(Adam, "step", recording_step)
        if relu is not None:
            m.setattr(Tape, "relu", relu)
        res = train_alignment(g1, g2, seeds, cfg)
    trained = [*named_parameters(res.params, {}).values(), res.init1.entity, res.init2.entity]
    return ran, grads, res.losses, trained


def test_zero_loss_epoch_runs_no_vjp_below_the_hinge(monkeypatch):
    ran, grads, losses, _ = _zero_loss_run(monkeypatch)
    zero = [i for i, loss in enumerate(losses) if loss == 0.0]
    assert zero == [14], losses
    assert ran[14] == ["sum", "relu"]   # relu returns no gradient: nothing below runs
    assert {len(names) for i, names in enumerate(ran) if i != 14} == {75}   # every vjp
    assert not any(a.any() for a in grads[14])


def test_pruned_backward_trains_as_the_unpruned_one(monkeypatch):
    # the relu of the parent: g * mask even when the mask holds no True
    def unpruned_relu(self, x):
        mask = x.value > 0
        return self._record(np.maximum(x.value, 0.0), (x,), lambda g: (g * mask,), "relu")

    ran, grads, losses, trained = _zero_loss_run(monkeypatch)
    ran_u, grads_u, losses_u, trained_u = _zero_loss_run(monkeypatch, unpruned_relu)
    assert len(ran_u[14]) == len(ran[13]) > 2   # the unpruned tape runs every vjp
    assert losses == losses_u and 0.0 in losses
    assert all(np.array_equal(a, b) for step_a, step_b in zip(grads, grads_u)
               for a, b in zip(step_a, step_b))   # equal up to the sign of a zero
    assert [a.tobytes() for a in trained] == [b.tobytes() for b in trained_u]


def test_classification_with_saturating_logits_keeps_training():
    # alpha 3 saturates the logits in the first epoch; saturated logits
    # must still get a gradient, so the loss moves
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(dim=8, layers=4, lr=0.05, alpha=3.0, epochs=5, patience=10)
    losses = train_classification(g, label_set, cfg).losses
    assert len(set(losses)) == 5, losses


def gather_without_rows(tape, *args, **kwargs):
    """Tape.gather whose result keeps no rows: a vjp that reads it captures
    the gathered array, and the projection ops take its unit parts per edge."""
    out = Tape.gather(tape, *args, **kwargs)
    out.rows = None
    return out


FULL_STACK_CASES = ([("kegcn", s) for s in ("transe", "distmult", "transh", "transd",
                                             "rotate", "quate")]
                    + [(m, "transe") for m in REDUCTION_MODES])


@pytest.mark.parametrize("task", ["alignment", "classification"])
@pytest.mark.parametrize("mode,scorer", FULL_STACK_CASES)
def test_epoch_equals_the_full_stack_bitwise(monkeypatch, task, mode, scorer):
    # training skips the last layer's relation update and takes the planes
    # scorers' unit-projection parts once per relation row; the full stack
    # records that update, and with gathers that keep no rows every
    # projection op computes its parts per edge.  Losses and every leaf
    # gradient must not move by one bit.
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    cfg = TrainConfig(mode=mode, scorer=scorer, dim=8, layers=3, epochs=2, lr=0.05)
    epochs = []

    class RecordingTape(Tape):
        def backward(self, loss):
            grads = super().backward(loss)
            leaves = [i for i in range(len(self.nodes)) if self.nodes[i].name == "leaf"]
            epochs.append((float(loss.value), [grads._grads[i] if i < len(grads._grads)
                                               else None for i in leaves]))
            return grads

    monkeypatch.setattr(tasks_mod, "Tape", RecordingTape)
    run = ((lambda: train_alignment(g1, g2, seeds, cfg)) if task == "alignment"
           else (lambda: train_classification(g, label_set, cfg)))
    run()
    trained, epochs[:] = list(epochs), []

    def full_stack(tape, graphs, mode, scorer, params_list, tables):
        # record_forward with the last layer's w_rel kept
        layers = [propagation.lift(tape, p) for p in params_list]
        tvars = {name: propagation.lift(tape, st) for name, st in tables.items()}
        outs = [propagation.forward_on_tape(tape, g, mode, scorer, layers, tvars[name].entity,
                                            tvars[name].relation)[0]
                for name, g in graphs.items()]
        return tasks_mod.named_parameters(layers, tvars), outs

    monkeypatch.setattr(tasks_mod, "record_forward", full_stack)
    monkeypatch.setattr(RecordingTape, "gather", gather_without_rows)
    run()
    assert len(trained) == len(epochs) == 2
    for (loss, grads), (full_loss, full_grads) in zip(trained, epochs):
        assert loss == full_loss
        assert len(grads) == len(full_grads)
        for a, b in zip(grads, full_grads):
            assert (a is None and b is None) or np.array_equal(a, b)


class UnfoldedTransE(scorers.TransE):
    """TransE with its factors inside the messages: the score gradients
    -2e, -2e and 2e, one edge-sized scale node each."""

    factors = (1, 1, 1)

    def messages(self, tape, U, R, V, relation=True):
        e = tape.sub(tape.add(U, R), V)
        return (tape.scale(e, -2.0), tape.scale(e, -2.0) if relation else None,
                tape.scale(e, 2.0))


class UnfoldedTransH(scorers.TransH):
    """TransH with its factors inside the messages: the score gradients
    -2t, [-2 g1 ; -2e] and 2t, with a scale node per edge term."""

    factors = (1, 1, 1)

    def messages(self, tape, U, R, V, relation=True):
        d = self.dim
        r1 = tape.slice_cols(R, 0, d)
        r2 = tape.slice_cols(R, d, 2 * d)
        pu = tape.sum_axis(tape.mul(r1, U))
        pv = tape.sum_axis(tape.mul(r1, V))
        uproj = tape.sub(U, tape.mul(pu, r1))
        vproj = tape.sub(V, tape.mul(pv, r1))
        e = tape.sub(tape.add(uproj, r2), vproj)
        pe = tape.sum_axis(tape.mul(r1, e))
        t = tape.sub(e, tape.mul(pe, r1))
        gh = tape.scale(t, -2.0)
        gt = tape.scale(t, 2.0)
        if not relation:
            return gh, None, gt
        duv = tape.sub(V, U)
        pduv = tape.sum_axis(tape.mul(r1, duv))
        g1 = tape.scale(tape.add(tape.mul(pe, duv), tape.mul(pduv, e)), -2.0)
        g2 = tape.scale(e, -2.0)
        return gh, tape.concat([g1, g2]), gt


class UnfoldedTransD(scorers.TransD):
    """TransD with its factors inside the messages: every half of every
    score gradient scaled by -2 or 2 on its own edge-sized node."""

    factors = (1, 1, 1)

    def messages(self, tape, U, R, V, relation=True):
        d = self.dim
        u1 = tape.slice_cols(U, 0, d)
        u2 = tape.slice_cols(U, d, 2 * d)
        v1 = tape.slice_cols(V, 0, d)
        v2 = tape.slice_cols(V, d, 2 * d)
        r1 = tape.slice_cols(R, 0, d)
        r2 = tape.slice_cols(R, d, 2 * d)
        au = tape.sum_axis(tape.mul(u2, u1))
        av = tape.sum_axis(tape.mul(v2, v1))
        e = tape.add(tape.sub(tape.add(tape.add(u1, tape.mul(au, r1)), r2), v1),
                     tape.mul(av, r1))
        pe = tape.sum_axis(tape.mul(r1, e))
        gh = tape.concat([tape.scale(tape.add(e, tape.mul(pe, u2)), -2.0),
                          tape.scale(tape.mul(pe, u1), -2.0)])
        gt = tape.concat([tape.scale(tape.sub(e, tape.mul(pe, v2)), 2.0),
                          tape.scale(tape.mul(pe, v1), -2.0)])
        if not relation:
            return gh, None, gt
        gr = tape.concat([tape.scale(tape.mul(tape.add(au, av), e), -2.0),
                          tape.scale(e, -2.0)])
        return gh, gr, gt


UNFOLDED = {"transe": UnfoldedTransE, "transh": UnfoldedTransH, "transd": UnfoldedTransD}


def _scorer_run(monkeypatch, kind, task, alpha):
    """Losses, every epoch's leaf gradients as Adam receives them, and the
    trained arrays and final states (model_forward, final relation
    included) of a run of scorer `kind` with `alpha` on its ModelConfig.  Without
    alpha the stack is shallower (2 layers for alignment, 1 for
    classification): deeper unnormalized messages saturate the loss."""
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    g, labels = synthetic.block_classification(60, 3, 200, noise=0.1, seed=3)
    label_set = synthetic.classification_split(labels, 3, seed=3)
    layers = 3 if alpha is not None else 2 if task == "alignment" else 1
    cfg = TrainConfig(scorer=kind, dim=8, layers=layers, epochs=3, lr=0.05)
    model_config = TrainConfig.model_config

    def config(self, out_dim=None):
        mc = model_config(self, out_dim)
        mc.alpha = alpha
        return mc

    grads = []

    def recording_step(self, params, gr):
        grads.append({k: v.copy() for k, v in gr.items()})
        return ADAM_STEP(self, params, gr)

    with monkeypatch.context() as mp:
        mp.setattr(TrainConfig, "model_config", config)
        mp.setattr(Adam, "step", recording_step)
        if task == "alignment":
            res = train_alignment(g1, g2, seeds, cfg)
            runs = [(g1, res.init1), (g2, res.init2)]
            mc = cfg.model_config()
        else:
            res = train_classification(g, label_set, cfg)
            runs = [(g, res.init)]
            mc = cfg.model_config(label_set.num_classes)
    scorer = propagation.config_scorer(mc)
    finals = [propagation.model_forward(gr, st, res.params, scorer=scorer) for gr, st in runs]
    arrays = [a for p in res.params for a in (p.w, p.w0, p.w_rel)]
    arrays += [a for gr, st in runs for a in (st.entity, st.relation)]
    arrays += [a for st in finals for a in (st.entity, st.relation)]
    return (res.losses, grads), arrays, type(scorer)


def _assert_fold_is_bitwise(monkeypatch, kind, task, alpha):
    folded, arrays, cls = _scorer_run(monkeypatch, kind, task, alpha)
    assert cls is scorers.SCORERS[kind] and cls.factors != (1, 1, 1)
    monkeypatch.setitem(scorers.SCORERS, kind, UNFOLDED[kind])
    unfolded, ref_arrays, cls = _scorer_run(monkeypatch, kind, task, alpha)
    assert cls is UNFOLDED[kind]
    assert len(set(folded[0])) == 3          # the loss moves every epoch
    _assert_bitwise_records(folded, unfolded, 3)
    assert len(arrays) == len(ref_arrays)
    for a, b in zip(arrays, ref_arrays):
        assert (a is None and b is None) or np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("alpha", [0.3, None])
@pytest.mark.parametrize("task", ["alignment", "classification"])
def test_transe_fold_is_bitwise_the_unfolded_messages(monkeypatch, task, alpha):
    # the layer applies TransE's -2, -2 and 2 once per summed row, folded
    # into the degree norms; scaling each edge message first gives the same
    # bits: the factors are powers of two, and e's gradient still adds
    # (tail + relation) + head
    _assert_fold_is_bitwise(monkeypatch, "transe", task, alpha)


@pytest.mark.parametrize("alpha", [0.3, None])
@pytest.mark.parametrize("task", ["alignment", "classification"])
@pytest.mark.parametrize("kind", ["transh", "transd"])
def test_projection_fold_is_bitwise_the_unfolded_messages(monkeypatch, kind, task, alpha):
    # TransH's -2, -2, 2 and TransD's -2, -2, -2 folded into the degree
    # norms give the bits of the parent's messages, each scaled on the
    # tape: every shared node (TransH's t and e, TransD's e and the
    # products of pe) keeps its consumers in the same order
    _assert_fold_is_bitwise(monkeypatch, kind, task, alpha)


@pytest.mark.parametrize("kind", ["transe", "transh", "transd"])
def test_translation_scorers_send_no_scale_node_per_edge(monkeypatch, kind):
    # one alignment epoch over two graphs, 3 layers: the only scale nodes
    # are the degree-norm columns, two per layer and graph (entities,
    # relations) less the last layer's relation update, which training
    # does not record; the factors ride on those columns
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs)
    names = []

    class NamingTape(Tape):
        def backward(self, loss):
            names.append([self.nodes[i].name for i in range(len(self.nodes))])
            return super().backward(loss)

    monkeypatch.setattr(tasks_mod, "Tape", NamingTape)
    train_alignment(g1, g2, seeds, TrainConfig(scorer=kind, dim=8, layers=3, epochs=1))
    assert len(names) == 1 and names[0].count("scale") == 10


# ---------------- training memory ----------------

ADAM_STEP = Adam.step


def recording_pools(monkeypatch) -> list:
    """The BufferPools `numerics.pooled` makes from now on, in order."""
    pools = []

    class RecordingPool(numerics.BufferPool):
        def __init__(self):
            super().__init__()
            pools.append(self)

    monkeypatch.setattr(numerics, "BufferPool", RecordingPool)
    return pools


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


def _assert_bitwise_records(got, want, epochs):
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1]) == epochs
    for a, b in zip(got[1], want[1]):
        assert a.keys() == b.keys()
        for k in a:
            assert a[k].shape == b[k].shape
            assert np.array_equal(a[k].view(np.int64), b[k].view(np.int64)), k


@pytest.mark.parametrize("task", ["alignment", "classification"])
@pytest.mark.parametrize("mode,scorer", FULL_STACK_CASES)
def test_pooled_training_is_bitwise_plain_tape_training(monkeypatch, task, mode, scorer):
    pools = recording_pools(monkeypatch)
    pooled = _fit_record(monkeypatch, task, mode, scorer)
    assert len(pools) == 1
    monkeypatch.setattr(tasks_mod, "pooled", contextlib.nullcontext)
    plain = _fit_record(monkeypatch, task, mode, scorer)
    assert len(pools) == 1
    _assert_bitwise_records(pooled, plain, 3)


class KeepingTape(Tape):
    """A Tape that holds every value it records until backward starts, so
    no array of the forward pass goes back to the pool before then."""

    def __init__(self):
        super().__init__()
        self.kept = []

    def _record(self, value, parents=(), vjp=None, name="leaf"):
        var = super()._record(value, parents, vjp, name)
        self.kept.append(var.value)
        return var

    def backward(self, loss):
        self.kept.clear()
        return super().backward(loss)


@pytest.mark.parametrize("task", ["alignment", "classification"])
@pytest.mark.parametrize("mode,scorer", FULL_STACK_CASES[:7])   # six scorers, compgcn-sub
def test_training_is_bitwise_a_tape_that_keeps_every_value(monkeypatch, task, mode, scorer):
    # a pooled array that a dropped Variable gave back serves a later op of
    # the same forward pass; values and gradients must not move by one bit
    got = _fit_record(monkeypatch, task, mode, scorer, epochs=2)
    monkeypatch.setattr(tasks_mod, "Tape", KeepingTape)
    want = _fit_record(monkeypatch, task, mode, scorer, epochs=2)
    _assert_bitwise_records(got, want, 2)


class CapturingTape(Tape):
    """A Tape whose vjps capture every operand array they read, as they did
    before gathers kept their rows."""

    gather = gather_without_rows


@pytest.mark.parametrize("task", ["alignment", "classification"])
@pytest.mark.parametrize("mode,scorer", FULL_STACK_CASES)
def test_training_is_bitwise_a_tape_that_captures_gathered_arrays(monkeypatch, task, mode,
                                                                   scorer):
    # a vjp that takes its gathered operands (and QuatE/RotatE projections)
    # again from their rows must compute what the captured arrays give
    got = _fit_record(monkeypatch, task, mode, scorer, epochs=2)
    monkeypatch.setattr(tasks_mod, "Tape", CapturingTape)
    want = _fit_record(monkeypatch, task, mode, scorer, epochs=2)
    _assert_bitwise_records(got, want, 2)


@pytest.mark.parametrize("scorer, k", [("quate", 4), ("rotate", 2)])
def test_planes_tape_holds_no_edge_planes_when_backward_starts(monkeypatch, scorer, k):
    # every (k, E, d) array a vjp reads is a gathered operand or a product of
    # them (QuatE's ghat, RotatE's w and ghat), rebuilt when the vjp runs:
    # none outlives the layer that made it, and the pool holds none
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    d = 4
    sizes = {k * g.num_triples * d for g in (g1, g2)}
    checked = []
    pools = recording_pools(monkeypatch)

    class ProbeTape(Tape):
        def backward(self, loss):
            nodes = [self.nodes[i] for i in range(len(self.nodes))]
            # 2 graphs x (3 + 3 + 2) message products; the last layer makes no ghat
            assert sum(n.name in ("quat_mul", "complex_mul") for n in nodes) == 16
            assert [n.name for n in nodes if n.value is not None and n.value.size in sizes] == []
            assert [a for a in pools[-1].held() if a.size in sizes] == []
            checked.append(True)
            return super().backward(loss)

    monkeypatch.setattr(tasks_mod, "Tape", ProbeTape)
    train_alignment(g1, g2, seeds, TrainConfig(scorer=scorer, dim=k * d, layers=3, epochs=1))
    assert checked == [True]


@pytest.mark.parametrize("scorer", ["transe", "quate"])
def test_no_array_of_an_epoch_outlives_it(monkeypatch, scorer):
    # when fit makes epoch t+1's tape, epoch t's tape, gradients and every
    # array its nodes held are gone, and the pool hands all its arrays out
    # again: epoch t+1's forward runs with nothing of epoch t alive
    history, checked = [], []
    pools = recording_pools(monkeypatch)

    class ProbeTape(Tape):
        def __init__(self):
            if history:
                tape, grads, arrays = history[-1]
                assert tape() is None and grads() is None
                assert all(r() is None for r in arrays)
                assert pools[-1].held() == []
                checked.append(True)
            super().__init__()

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
    pools, outs, checked = recording_pools(monkeypatch), [], []
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


def pooled_array(a) -> bool:
    """Whether `a` came from a BufferPool: pooled arrays are views of the
    pool's flat arrays, and np.empty's own arrays have no base."""
    return a.base is not None


def test_a_pool_lives_for_one_training_run(monkeypatch):
    # fit runs its epochs in one pooled() block: one pool per run, which is
    # unreachable once fit returns; the final forward runs on NumPy arrays
    pools, final = [], []

    class WeakPool(numerics.BufferPool):
        def __init__(self):
            super().__init__()
            pools.append(weakref.ref(self))

    forward = tasks_mod.model_forward

    def checking_forward(*args, **kwargs):
        assert pools[-1]() is None
        out = forward(*args, **kwargs)
        final.append(pooled_array(numerics.empty((64, 32))) or pooled_array(out.entity))
        return out

    monkeypatch.setattr(numerics, "BufferPool", WeakPool)
    monkeypatch.setattr(tasks_mod, "model_forward", checking_forward)
    g1, g2, ent_pairs, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    seeds = synthetic.alignment_split(ent_pairs, valid_fraction=0.1)
    for run in range(2):
        train_alignment(g1, g2, seeds, TrainConfig(scorer="quate", dim=32, layers=2, epochs=2))
        assert len(pools) == run + 1 and pools[-1]() is None
    assert final == [False] * 4
    assert not pooled_array(numerics.empty((64, 32)))


def test_inference_checks_and_plain_tapes_allocate_from_numpy(monkeypatch):
    class NoPool(numerics.BufferPool):
        def __init__(self):
            raise AssertionError("a BufferPool outside a training run")

    monkeypatch.setattr(numerics, "BufferPool", NoPool)
    g1, _, _, _ = synthetic.hub_signature_pair(40, 3, 150, seed=1)
    mc = propagation.ModelConfig(scorer_kind="quate", dim=32, layers=2)
    rng = seeded(0)
    params = propagation.init_params(mc, g1.num_relations, rng)
    out = propagation.model_forward(g1, propagation.init_state(mc, g1, rng), params,
                                    scorer=propagation.config_scorer(mc))
    assert not pooled_array(out.entity) and not pooled_array(out.relation)
    end_to_end_gradient_fd("alignment", "quate", max_coords=2)
    checks.reduction_discrepancy("compgcn-sub", 0)
    checks.scorer_gradient_fd("rotate", n_points=2)
    tape = Tape()
    x = tape.leaf(np.ones((64, 32)))
    h = tape.relu(tape.scale(x, 2.0))
    grads = tape.backward(tape.sum(tape.mul(h, h)))
    assert not pooled_array(h.value) and not pooled_array(grads[x])


def test_synthetic_splits_shuffle_and_carve_alike():
    # both splits share one shuffle: these lists pin the permutation and
    # the carving that the benchmark instances are built from
    seeds = synthetic.alignment_split([(i, 10 + i) for i in range(10)], 0.3, seed=4,
                                      valid_fraction=0.2)
    assert seeds.train == [(1, 11), (0, 10), (7, 17)]
    assert seeds.valid == [(2, 12), (9, 19)]
    assert seeds.test == [(8, 18), (6, 16), (4, 14), (3, 13), (5, 15)]
    split = synthetic.classification_split({i * 2: (i % 3,) for i in range(10)}, 3, 0.3, 0.2,
                                           seed=4)
    assert (split.train, split.valid, split.test) == ([2, 0, 14], [4, 18], [16, 12, 8, 6, 10])
    assert not split.multi_label and split.num_classes == 3


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
    tracing = perfbench_module("tracing")
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
