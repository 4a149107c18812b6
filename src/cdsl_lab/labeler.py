"""Pseudo-label assignment for unlabeled target domains.

The default method chains four stages: keep each class's most confident
samples, build softmax-weighted feature centroids from that pool, re-select
the samples most cosine-similar to each centroid, then let those selections
vote as a kNN committee over the whole domain. Baselines: plain argmax of
the softmax, and a centroid-assignment scheme with one refinement round.

All methods are deterministic; ties break toward the smaller sample index
or class index so repeated runs agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets

METHODS = ("t2pl", "softmax", "shot_style")


@dataclass
class LabelerConfig:
    r_top: float = 2.0
    r_top_prime: float = 20.0
    method: str = "t2pl"

    def __post_init__(self):
        if self.r_top < 1.0:
            raise ValueError(f"labeler: r_top must be at least 1, got {self.r_top}")
        if self.r_top_prime < self.r_top:
            raise ValueError(
                f"labeler: r_top_prime ({self.r_top_prime}) must be >= r_top ({self.r_top})")
        if self.method not in METHODS:
            raise ValueError(f"labeler: unknown method {self.method!r}, expected one of {METHODS}")


@dataclass
class TopSet:
    per_class: list[np.ndarray]  # selected sample indices, one array per class
    union: np.ndarray  # sorted unique indices across classes


@dataclass
class PseudoLabelSet:
    labels: np.ndarray
    method: str
    stage: int


def _class_list_size(n: int, classes: int, ratio: float) -> int:
    if n < classes:
        raise ValueError(f"labeler: need at least {classes} samples, got {n}")
    return max(1, int(n // (ratio * classes)))


def _top_by_score(scores: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m largest scores, descending, ascending index on ties."""
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order[:m]


def top_confidence_sets(probs: np.ndarray, r_top: float) -> TopSet:
    n, classes = probs.shape
    m = _class_list_size(n, classes, r_top)
    per_class = [_top_by_score(probs[:, k], m) for k in range(classes)]
    union = np.unique(np.concatenate(per_class))
    return TopSet(per_class=per_class, union=union)


def weighted_centroids(feats: np.ndarray, weights: np.ndarray,
                       indices: np.ndarray | None = None) -> np.ndarray:
    """Per-class weighted feature means, [classes, feature_dim].

    Each pooled sample counts once.
    """
    if indices is not None:
        feats = feats[indices]
        weights = weights[indices]
    denom = weights.sum(axis=0)
    if np.any(denom <= 0.0):
        raise ValueError("labeler: a class has zero total weight in the centroid pool")
    return (weights.T @ feats) / denom[:, None]


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

    Returns (sample indices, class labels) in class-major order. A sample
    picked by several classes appears once per pick.
    """
    n = feats.shape[0]
    classes = centroids.shape[0]
    m = _class_list_size(n, classes, r_top)
    sims = cosine_to_centroids(feats, centroids)
    idx_parts, label_parts = [], []
    for k in range(classes):
        chosen = _top_by_score(sims[:, k], m)
        idx_parts.append(chosen)
        label_parts.append(np.full(chosen.shape[0], k, dtype=int))
    return np.concatenate(idx_parts), np.concatenate(label_parts)


def knn_assign(feats: np.ndarray, member_idx: np.ndarray, member_labels: np.ndarray,
               kappa: int, classes: int) -> np.ndarray:
    """Majority vote over each sample's kappa nearest pool members.

    Vote ties break by smaller cumulative neighbor distance, then smaller
    class index. Pool members are candidate neighbors for every sample,
    including the sample itself when it sits in the pool.
    """
    if kappa < 1:
        raise ValueError("labeler: kappa is zero; lower r_top_prime or add samples")
    kappa = min(kappa, member_idx.shape[0])
    member_feats = feats[member_idx]
    labels = np.empty(feats.shape[0], dtype=int)
    entry_order = np.arange(member_idx.shape[0])
    for i in range(feats.shape[0]):
        dists = np.linalg.norm(member_feats - feats[i], axis=1)
        nearest = np.lexsort((entry_order, dists))[:kappa]
        votes = np.bincount(member_labels[nearest], minlength=classes)
        best = votes.max()
        tied = np.flatnonzero(votes == best)
        if tied.shape[0] == 1:
            labels[i] = tied[0]
        else:
            cum = np.array([dists[nearest[member_labels[nearest] == k]].sum()
                            for k in tied])
            labels[i] = tied[np.argmin(cum)]
    return labels


def t2pl_kappa(n: int, classes: int, r_top_prime: float) -> int:
    """Neighbours in t2pl's kNN vote over a domain of n samples."""
    return int(n // (r_top_prime * classes))


def t2pl(net, x: np.ndarray, cfg: LabelerConfig, stage: int) -> PseudoLabelSet:
    probs = nets.predict_probs(net, x)
    feats = nets.feature_values(net, x)
    n, classes = probs.shape
    pool = top_confidence_sets(probs, cfg.r_top)
    cents = weighted_centroids(feats, probs, pool.union)
    member_idx, member_labels = top_similarity_sets(feats, cents, cfg.r_top)
    kappa = t2pl_kappa(n, classes, cfg.r_top_prime)
    labels = knn_assign(feats, member_idx, member_labels, kappa, classes)
    return PseudoLabelSet(labels=labels, method="t2pl", stage=stage)


def softmax_labels(net, x: np.ndarray, stage: int) -> PseudoLabelSet:
    labels = np.argmax(nets.predict_probs(net, x), axis=1)
    return PseudoLabelSet(labels=labels, method="softmax", stage=stage)


def shot_style_labels(net, x: np.ndarray, stage: int) -> PseudoLabelSet:
    """Centroids from all samples, cosine assignment, one refinement round."""
    probs = nets.predict_probs(net, x)
    feats = nets.feature_values(net, x)
    classes = probs.shape[1]
    cents = weighted_centroids(feats, probs)
    labels = np.argmax(cosine_to_centroids(feats, cents), axis=1)
    onehot = np.eye(classes)[labels]
    counts = onehot.sum(axis=0)
    refined = cents.copy()
    filled = counts > 0
    refined[filled] = (onehot.T @ feats)[filled] / counts[filled, None]
    labels = np.argmax(cosine_to_centroids(feats, refined), axis=1)
    return PseudoLabelSet(labels=labels, method="shot_style", stage=stage)


def assign_labels(net, x: np.ndarray, cfg: LabelerConfig, stage: int) -> PseudoLabelSet:
    if cfg.method == "t2pl":
        return t2pl(net, x, cfg, stage)
    if cfg.method == "softmax":
        return softmax_labels(net, x, stage)
    return shot_style_labels(net, x, stage)
