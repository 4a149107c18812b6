"""Pseudo-label assignment for unlabeled target domains.

The default method chains four stages: keep each class's most confident
samples, build softmax-weighted feature centroids from that pool, re-select
the samples most cosine-similar to each centroid, then let those selections
vote as a kNN committee over the whole domain. Baselines: plain argmax of
the softmax, and a centroid-assignment scheme with one refinement round.

The kNN vote filters and refines (Seidl & Kriegel, SIGMOD 1998) in three
tiers. Gram-form distances from one matmul label a sample outright when an
error bound from the floating-point arithmetic proves they give the brute
force's kappa nearest and one class leads; otherwise they pick a few
candidates, exact distances rank them, and a sample whose candidates might
miss a neighbour goes back through the whole pool. The labels equal a
brute-force vote's bit for bit (see `knn_assign`).

All methods are deterministic; ties break toward the smaller sample index
or class index so repeated runs agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from . import nets

METHODS = ("t2pl", "softmax", "shot_style")

KNN_SLACK = 16  # candidates the Gram filter keeps beyond kappa
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


@dataclass
class LabelerConfig:
    r_top: float = 2.0
    r_top_prime: float = 20.0
    method: str = "t2pl"


@dataclass
class PseudoLabelSet:
    labels: np.ndarray
    method: str
    stage: int
    probs: np.ndarray  # the model's class probabilities of the same rows


def class_share(n: int, classes: int, ratio: float) -> int:
    """Rows per class at a ratio: t2pl's list size at r_top, its kappa at r_top_prime."""
    return int(n // (ratio * classes))


def _top_per_class(scores: np.ndarray, r_top: float) -> np.ndarray:
    """[m, classes] rows of each class's m largest scores, largest first, ties
    toward the smaller row; m is the class share at r_top, at least 1."""
    n, classes = scores.shape
    if n < classes:
        raise ValueError(f"labeler: need at least {classes} samples, got {n}")
    return np.argsort(-scores, axis=0, kind="stable")[:max(1, class_share(n, classes, r_top))]


def top_confidence_pool(probs: np.ndarray, r_top: float) -> np.ndarray:
    """Sorted unique indices of each class's most confident samples."""
    chosen = np.zeros(probs.shape[0], dtype=bool)
    chosen[_top_per_class(probs, r_top)] = True
    return np.flatnonzero(chosen)


def weighted_centroids(feats: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-class soft-weighted feature means, [classes, feature_dim]; class k
    weights row i of feats by weights[i, k]."""
    denom = weights.sum(axis=0)
    if np.any(denom <= 0.0):
        raise ValueError(f"labeler: class {np.argmax(denom <= 0.0)} has zero total weight "
                         "in the centroid pool")
    return (weights.T @ feats) / denom[:, None]


def class_means(feats: np.ndarray, labels: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Set the row of means of each class present in labels to
    feats[labels == k].mean(axis=0) and return means; other rows keep their
    values. No BLAS product, so the bits are the same on every kernel."""
    for k in np.flatnonzero(np.bincount(labels)):
        means[k] = feats[labels == k].mean(axis=0)
    return means


def cosine_to_centroids(feats: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Similarity matrix [n, classes]; zero vectors get similarity 0."""
    fn = np.linalg.norm(feats, axis=1, keepdims=True)
    cn = np.linalg.norm(centroids, axis=1, keepdims=True)
    sims = feats @ centroids.T
    scale = fn * cn.T
    return np.divide(sims, scale, out=np.zeros_like(sims), where=scale > 0.0)


def top_similarity_sets(feats: np.ndarray, centroids: np.ndarray,
                        r_top: float) -> tuple[np.ndarray, np.ndarray]:
    """Labeled pool: per class, the samples most similar to its centroid.

    Returns (sample indices, class labels) in class-major order, each class's
    samples by descending similarity. A sample picked by several classes
    appears once per pick.
    """
    top = _top_per_class(cosine_to_centroids(feats, centroids), r_top)
    return top.T.ravel(), np.repeat(np.arange(top.shape[1]), top.shape[0])


def _nearest(member_feats: np.ndarray, q: np.ndarray, cand: np.ndarray,
             kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and pool entries of each query row's kappa nearest candidates.

    Each row of cand lists pool entries in ascending order, so the stable sort
    by distance breaks ties toward the smaller entry. The distances are
    norm(axis=...) over the last axis, the brute-force vote's own arithmetic.
    """
    dist = np.linalg.norm(member_feats[cand] - q[:, None, :], axis=2)
    order = np.argsort(dist, axis=1, kind="stable")[:, :kappa]
    rows = np.arange(q.shape[0])[:, None]
    return dist[rows, order], cand[rows, order]


def _vote(dist: np.ndarray, labels: np.ndarray, classes: int) -> np.ndarray:
    """Majority label of each row's neighbours, given nearest first; a tie goes
    to the smaller sum of a class's distances, then to the smaller class. The
    sums add nearest first, as the brute force does (a plain sum adds 8 or more
    terms pairwise); other classes' distances count as +0.0, which changes no sum."""
    mine = labels[:, None, :] == np.arange(classes)[:, None]  # [rows, classes, kappa]
    cum = np.cumsum(np.where(mine, dist[:, None, :], 0.0), axis=2)[:, :, -1]
    return np.lexsort((cum, -mine.sum(axis=2)), axis=1)[:, 0]  # stable: smaller class


def _gram(q: np.ndarray, member_t2: np.ndarray, member_sq: np.ndarray) -> np.ndarray:
    """Gram-form squared distances less |q|^2, |m|^2 - 2 q.m from m.T times -2;
    adding |q|^2 keeps each row's order, so callers add it only where needed."""
    score = q @ member_t2
    score += member_sq
    return score


def knn_assign(feats: np.ndarray, member_idx: np.ndarray, member_labels: np.ndarray,
               kappa: int, classes: int) -> np.ndarray:
    """Majority vote over each sample's kappa nearest pool members.

    Vote ties break by smaller cumulative neighbor distance, added nearest
    first, then smaller class index. Pool members are candidate neighbors
    for every sample, including the sample itself when it sits in the pool.

    The labels equal a brute-force vote that takes every distance as
    np.linalg.norm(member_feats - x, axis=1) and sorts the pool by
    (distance, entry). A Gram score |q|^2 + |m|^2 - 2 q.m and the brute
    force's squared norm each lie within B = gamma_{d+2} (|q| + max |m|)^2 of
    the true squared distance (Higham, ch. 3). Rows go through three tiers in
    the blocks of `dc.row_blocks` at the width of a tier's score or candidate
    matrix; with its 16-row floor, a `moons-wide` candidate block holds
    16 x 1 056 elements, 3% over `dc.BLOCK_ELEMENTS`. When kappa + KNN_SLACK
    reaches the pool, every row takes the whole pool as its candidates at once.
    - Gram vote: let S hold a row's kappa smallest scores, s_K the largest
      of them and s_F the smallest one outside S. An entry of S has a squared
      norm at most s_K + 2B, one outside at least s_F - 2B; so if
      s_F - 2B > max(s_K + 2B, 0) (1 + 16u), each entry outside S is farther
      in the brute force by a margin that the square root and the test's own
      roundings cannot close, and S is its kappa nearest whatever the
      tie-break. If one class has the most votes in S, that is the label.
      Other rows fall through: ties on counts, duplicate entries or distances
      within 4B across the kappa-th place, cancellation far from the origin
      and non-finite scores (NaN fails every comparison).
    - Filter and refine: the kappa + KNN_SLACK smallest scores are the
      candidates; their distances, by the brute force's arithmetic and sorted
      as it sorts, give the kappa nearest candidates and the vote.
    - Safety: if the smallest score left out clears the kappa-th squared
      distance by 2B, every entry left out is farther in the brute force too;
      a row that fails is refined again with the whole pool as candidates.
    """
    kappa = min(kappa, member_idx.shape[0])
    if kappa < 1:
        raise ValueError("labeler: kappa is zero; lower r_top_prime or add samples")
    member_feats = feats[member_idx]
    pool, dim = member_feats.shape
    width = kappa + KNN_SLACK
    entries = np.arange(pool)
    member_t2 = np.multiply(member_feats.T, -2.0, order="C")  # matmul is slow on a view
    member_sq = (member_feats * member_feats).sum(axis=1)
    reach = np.sqrt(member_sq.max())  # the largest |m|
    # Higham's gamma_n = n u / (1 - n u) at n = d + 3: one rounding more than
    # the bound's d + 2 covers the norms the bound is computed from
    gamma = (dim + 3) * _UNIT_ROUNDOFF / (1 - (dim + 3) * _UNIT_ROUNDOFF)
    q_sq = (feats * feats).sum(axis=1)
    bound = 2.0 * gamma * (np.sqrt(q_sq) + reach) ** 2  # 2B per row
    labels = np.full(feats.shape[0], -1)
    if width < pool:
        onehot = (member_labels[:, None] == np.arange(classes)).astype(float)
        for rows in dc.row_blocks(feats.shape[0], pool):
            score = _gram(feats[rows], member_t2, member_sq)
            part = np.partition(score, kappa, axis=1)
            s_k = part[:, :kappa].max(axis=1)
            votes = (score <= s_k[:, None]) @ onehot
            sure = (part[:, kappa] + q_sq[rows] - bound[rows]
                    > np.maximum(s_k + q_sq[rows] + bound[rows], 0.0) * (1 + 16 * _UNIT_ROUNDOFF))
            sure &= (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) == 1
            labels[rows] = np.where(sure, votes.argmax(axis=1), -1)
    rest = np.flatnonzero(labels < 0)
    for block in dc.row_blocks(rest.shape[0], max(pool, width * dim)):  # bounds the refine too
        rows = rest[block]
        q = feats[rows]
        if width < pool:
            score = _gram(q, member_t2, member_sq)
            part = np.argpartition(score, width, axis=1)
            cand = np.sort(part[:, :width], axis=1)
            floor = score[np.arange(q.shape[0]), part[:, width]] + q_sq[rows]
        else:
            cand = np.broadcast_to(entries, (q.shape[0], pool))
            floor = np.inf
        dist, entry = _nearest(member_feats, q, cand, kappa)
        # 8u covers the square root's rounding, squaring back and a strict order
        kth_sq = dist[:, -1] * dist[:, -1] * (1 + 8 * _UNIT_ROUNDOFF)
        for i in np.flatnonzero(~(floor > kth_sq + bound[rows])):
            dist[i], entry[i] = _nearest(member_feats, q[i:i + 1], entries[None], kappa)
        labels[rows] = _vote(dist, member_labels[entry], classes)
    return labels


def assign_labels(net, x: np.ndarray, cfg: LabelerConfig, stage: int) -> PseudoLabelSet:
    """Pseudo-labels of one domain by cfg.method, from one forward of x."""
    feats = nets.feature_values(net, x)
    probs = nets.probs_from_features(net, feats)
    n, classes = probs.shape
    if cfg.method == "t2pl":
        pool = top_confidence_pool(probs, cfg.r_top)
        cents = weighted_centroids(feats[pool], probs[pool])
        member_idx, member_labels = top_similarity_sets(feats, cents, cfg.r_top)
        kappa = class_share(n, classes, cfg.r_top_prime)
        labels = knn_assign(feats, member_idx, member_labels, kappa, classes)
    elif cfg.method == "softmax":
        labels = np.argmax(probs, axis=1)
    else:  # shot_style: centroids from all rows, cosine assignment, one refinement
        cents = weighted_centroids(feats, probs)
        labels = np.argmax(cosine_to_centroids(feats, cents), axis=1)
        cents = class_means(feats, labels, cents)  # a class no row took keeps its soft centroid
        labels = np.argmax(cosine_to_centroids(feats, cents), axis=1)
    return PseudoLabelSet(labels=labels, method=cfg.method, stage=stage, probs=probs)


def t2pl(net, x: np.ndarray, cfg: LabelerConfig, stage: int) -> PseudoLabelSet:
    return assign_labels(net, x, replace(cfg, method="t2pl"), stage)
