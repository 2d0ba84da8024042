"""Ranking and classification metrics.

Determinism conventions: candidate ranking sorts ascending by distance
with ties broken by ascending candidate id; top-k for label scores sorts
descending by score with ties broken by ascending class id; argmax ties
go to the lowest class id.  NDCG uses binary gains with discount
1/log2(1+position).
"""

from __future__ import annotations

import math

import numpy as np


def rank_of_truth(distances, truth) -> int:
    """1-based rank of `truth` among (candidate-id, distance) pairs.
    Raises ValueError on a non-finite distance."""
    found = False
    d_true = 0.0
    for cid, d in distances:
        if cid == truth:
            d_true = d
            found = True
            break
    if not found:
        raise ValueError(f"truth {truth!r} not among candidates")
    rank = 1
    for cid, d in distances:
        if not math.isfinite(d):
            raise ValueError(f"non-finite distance {d!r} for candidate {cid!r}")
        if d < d_true or (d == d_true and cid < truth):
            rank += 1
    return rank


# Distances per ranked row block: 64-128 KiB ran fastest in a sweep (`BENCH_22.json`)
_RANK_BLOCK_BYTES = 128 << 10


def ranks_from_distance_matrix(dist: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Row q's rank of candidate truths[q]; same ordering convention as
    rank_of_truth, vectorized over a block of rows at a time.  Raises
    ValueError on a non-finite distance: every comparison with nan is
    False, so a nan row would rank its truth first."""
    dist = np.asarray(dist, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.int64)
    step = max(1, _RANK_BLOCK_BYTES // max(1, dist.shape[1]))
    ranks = np.empty(len(dist), dtype=np.int64)
    for lo in range(0, len(dist), step):
        block, t = dist[lo:lo + step], truths[lo:lo + step, None]
        if not np.isfinite(block).all():
            raise ValueError("non-finite distance in the ranking matrix")
        dt = np.take_along_axis(block, t, axis=1)
        before = (block < dt) | (block == dt) & (np.arange(block.shape[1]) < t)
        ranks[lo:lo + step] = 1 + np.count_nonzero(before, axis=1)
    return ranks


def mrr(ranks) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("mrr of an empty rank list")
    return float(np.mean(1.0 / ranks))


def hits_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("hits@k of an empty rank list")
    return float(np.mean(ranks <= k))


def accuracy(pred_labels, true_labels) -> float:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.size == 0:
        raise ValueError("accuracy of an empty test set")
    return float(np.mean(pred == true))


def ndcg_of_hits(hits: np.ndarray, num_true, k: int) -> np.ndarray:
    """Each row's NDCG@k from whether its k best classes in rank order are
    true, and its count of true classes.  Gains are added in rank order
    from 0.0 with scalar np.log2 discounts, so each row's value is the one
    it has alone."""
    discount = np.array([1.0 / np.log2(1.0 + pos) for pos in range(1, k + 1)])
    dcg = np.zeros(len(hits))
    for pos in range(hits.shape[1]):
        dcg += np.where(hits[:, pos], discount[pos], 0.0)
    ideal = np.minimum(num_true, k)
    return np.where(ideal > 0, dcg / np.cumsum(discount)[np.maximum(ideal - 1, 0)], 0.0)
