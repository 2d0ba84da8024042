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


def ranks_from_distance_matrix(dist: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Row q's rank of candidate truths[q]; same ordering convention as
    rank_of_truth, vectorized over rows and candidates.  Raises ValueError
    on a non-finite distance: every comparison with nan is False, so a
    nan row would rank its truth first."""
    dist = np.asarray(dist, dtype=np.float64)
    if not np.isfinite(dist).all():
        raise ValueError("non-finite distance in the ranking matrix")
    truths = np.asarray(truths, dtype=np.int64)
    dt = dist[np.arange(dist.shape[0]), truths][:, None]
    ties_below = (dist == dt) & (np.arange(dist.shape[1]) < truths[:, None])
    return 1 + np.count_nonzero(dist < dt, axis=1) + np.count_nonzero(ties_below, axis=1)


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


def top_k_classes(scores_row: np.ndarray, k: int) -> np.ndarray:
    row = np.asarray(scores_row, dtype=np.float64)
    order = np.argsort(-row, kind="stable")
    return order[:k]


def ndcg_at_k(scores_row, truth, k: int) -> float:
    truth = set(truth)
    if not truth:
        return 0.0
    top = top_k_classes(scores_row, k)
    dcg = 0.0
    for pos, c in enumerate(top, start=1):
        if int(c) in truth:
            dcg += 1.0 / np.log2(1.0 + pos)
    ideal_hits = min(len(truth), k)
    idcg = sum(1.0 / np.log2(1.0 + pos) for pos in range(1, ideal_hits + 1))
    return float(dcg / idcg)
