import tracemalloc

import numpy as np
import pytest

from helpers import argmax_prediction, ndcg_at_k, ndcg_one_row, precision_at_k, top_k_classes
from kegcn import metrics
from kegcn.metrics import (
    accuracy,
    hits_at_k,
    mrr,
    rank_of_truth,
    ranks_from_distance_matrix,
)
from kegcn.numerics import seeded


def test_rank_of_truth_basic():
    assert rank_of_truth([(0, 0.1), (1, 0.5), (2, 0.9)], 0) == 1
    assert rank_of_truth([(0, 0.5), (1, 0.1), (2, 0.9)], 0) == 2
    with pytest.raises(ValueError):
        rank_of_truth([(0, 0.1)], 7)


def test_ranks_reject_non_finite_distances():
    # every comparison against nan is False, so nan used to rank first
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            rank_of_truth([(0, bad), (1, 0.5)], 0)
        with pytest.raises(ValueError, match="finite"):
            rank_of_truth([(0, 0.1), (1, bad)], 0)
        with pytest.raises(ValueError, match="finite"):
            ranks_from_distance_matrix(np.array([[0.1, 0.2], [bad, 0.3]]), np.array([0, 1]))


def test_rank_of_truth_tie_break():
    # equal distances, truth has the larger id, so it ranks second
    assert rank_of_truth([(0, 1.0), (1, 1.0)], 1) == 2
    assert rank_of_truth([(0, 1.0), (1, 1.0)], 0) == 1


def test_rank_of_truth_permutation_invariant():
    rng = seeded(3)
    pairs = [(i, float(d)) for i, d in enumerate(rng.normal(size=20))]
    base = rank_of_truth(pairs, 7)
    for _ in range(10):
        perm = rng.permutation(20)
        shuffled = [pairs[i] for i in perm]
        assert rank_of_truth(shuffled, 7) == base


def test_ranks_from_distance_matrix_matches_scalar():
    rng = seeded(5)
    dist = rng.normal(size=(15, 30))
    dist[3, 4] = dist[3, 9]  # force one tie
    truths = rng.integers(0, 30, 15)
    got = ranks_from_distance_matrix(dist, truths)
    for i in range(15):
        pairs = list(enumerate(dist[i]))
        assert got[i] == rank_of_truth(pairs, int(truths[i]))


def test_ranks_from_distance_matrix_ties_match_oracle():
    rng = seeded(11)
    # distances from a handful of values, so most rows hold many ties
    dist = rng.integers(0, 4, (40, 25)).astype(np.float64)
    dist[0] = 1.0  # a whole row tied
    truths = rng.integers(0, 25, 40)
    truths[0] = 24
    got = ranks_from_distance_matrix(dist, truths)
    want = [rank_of_truth(list(enumerate(dist[i])), int(truths[i])) for i in range(40)]
    assert got.dtype == np.int64 and got.tolist() == want
    assert got[0] == 25
    assert ranks_from_distance_matrix(np.zeros((0, 5)), np.zeros(0, np.int64)).shape == (0,)



@pytest.mark.parametrize("block_bytes", [1, 25, 60, 1 << 20])
def test_ranks_from_distance_matrix_by_row_blocks_match_oracle(monkeypatch, block_bytes):
    # 25 candidates a row: blocks of 1, 1 and 2 rows, and all 40 at once
    monkeypatch.setattr(metrics, "_RANK_BLOCK_BYTES", block_bytes)
    rng = seeded(11)
    dist = rng.integers(0, 4, (40, 25)).astype(np.float64)
    truths = rng.integers(0, 25, 40)
    want = [rank_of_truth(list(enumerate(dist[i])), int(truths[i])) for i in range(40)]
    assert ranks_from_distance_matrix(dist, truths).tolist() == want
    dist[-1, 0] = np.nan   # in the last block
    with pytest.raises(ValueError, match="finite"):
        ranks_from_distance_matrix(dist, truths)


def test_ranks_from_distance_matrix_builds_no_full_size_temporary():
    rng = seeded(13)
    dist = rng.integers(0, 50, (2000, 1000)).astype(np.float64)
    truths = rng.integers(0, 1000, 2000)
    tracemalloc.start()
    try:
        ranks_from_distance_matrix(dist, truths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dist.size, peak   # one boolean of the matrix's shape

def test_mrr_hits():
    assert mrr([1, 1, 1]) == 1.0
    assert hits_at_k([1, 1, 1], 1) == 1.0
    assert abs(mrr([1, 2, 4]) - (1.0 + 0.5 + 0.25) / 3.0) <= 1e-12
    assert hits_at_k([1, 3, 1, 10], 1) == 0.5
    with pytest.raises(ValueError):
        mrr([])
    with pytest.raises(ValueError):
        hits_at_k([], 5)


def test_rank_metric_invariants():
    rng = seeded(7)
    ranks = rng.integers(1, 50, 200)
    m = mrr(ranks)
    h1 = hits_at_k(ranks, 1)
    assert 0.0 <= h1 <= m <= 1.0
    prev = 0.0
    for k in (1, 2, 5, 10, 20, 50):
        h = hits_at_k(ranks, k)
        assert h >= prev
        prev = h


def test_accuracy():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2], [1, 9]) == 0.5
    with pytest.raises(ValueError):
        accuracy([], [])


def test_argmax_tie_to_lowest_class():
    assert argmax_prediction([0.2, 0.5, 0.5]) == 1
    assert argmax_prediction([0.7, 0.7, 0.1]) == 0


def test_top_k_tie_break():
    row = [0.5, 0.9, 0.5, 0.1]
    assert list(top_k_classes(row, 3)) == [1, 0, 2]


def test_precision_at_k():
    row = [0.9, 0.8, 0.7, 0.1, 0.0]
    assert precision_at_k(row, {0, 1, 2}, 3) == 1.0
    assert precision_at_k(row, {4}, 1) == 0.0
    assert precision_at_k(row, {1}, 5) == 0.2
    assert precision_at_k(row, set(), 5) == 0.0


def test_ndcg_hand_case():
    # truth {a, b}; top-5 = [a, x, b, y, z]
    row = [0.9, 0.8, 0.7, 0.6, 0.5]
    truth = {0, 2}
    want = (1.0 + 1.0 / np.log2(4.0)) / (1.0 + 1.0 / np.log2(3.0))
    assert abs(ndcg_at_k(row, truth, 5) - want) <= 1e-12
    assert abs(want - 0.9197) <= 1e-4


def test_ndcg_perfect_and_empty():
    row = [0.9, 0.8, 0.1, 0.1, 0.1]
    assert ndcg_at_k(row, {0, 1}, 5) == 1.0
    assert ndcg_at_k(row, set(), 5) == 0.0


@pytest.mark.parametrize("k", [1, 5, 9])
def test_ndcg_of_a_batch_is_bitwise_each_row_alone(k):
    # tied scores, empty, full and out-of-range truths: every row of one
    # batched call, and their mean, equals the per-row loop bit for bit
    rng = seeded(29)
    scores = np.round(rng.random((40, 7)) * 4.0) / 4.0
    scores[0] = 0.5
    truths = [{int(c) for c in rng.integers(0, 7, size=int(rng.integers(1, 6)))}
              for _ in range(36)] + [set(), set(range(7)), {2, 9}, {-1}]
    got = ndcg_at_k(scores, truths, k)
    want = np.array([ndcg_one_row(row, t, k) for row, t in zip(scores, truths)])
    assert got.shape == (40,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert float(np.mean(got)) == float(np.mean(list(want)))
    assert [ndcg_at_k(row, t, k) for row, t in zip(scores, truths)] == list(want)


def test_metric_bounds_random():
    rng = seeded(11)
    for _ in range(50):
        row = rng.normal(size=8)
        truth = {int(c) for c in rng.integers(0, 8, 3)}
        for k in (1, 5):
            p = precision_at_k(row, truth, k)
            n = ndcg_at_k(row, truth, k)
            assert 0.0 <= p <= 1.0
            assert 0.0 <= n <= 1.0
