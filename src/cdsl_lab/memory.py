"""Replay memory holding a few representative exemplars per seen domain.

Capacity is fixed; every admitted domain gets an equal share, so older
buckets shrink as new domains arrive. Within a domain, exemplars are the
samples nearest their own class centroid in feature space, picked in a
class-balanced round-robin so no class dominates the bucket.

The buckets are a list in admission order, one (inputs, labels) pair of
arrays per admitted domain with rows in round-robin order. That order does
not depend on the quota, so a bucket shrinks to a prefix: its first q rows
are the round-robin pick at quota q, and one selection rule serves admission
and every later shrink. Only this module reads that layout.
"""

from __future__ import annotations

import numpy as np

from . import labeler, nets, synthdata


class ExemplarMemory:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.buckets: list[tuple[np.ndarray, np.ndarray]] = []

    def sizes(self) -> dict[int, int]:
        """Rows held per bucket, keyed by admission position."""
        return {i: labels.shape[0] for i, (_, labels) in enumerate(self.buckets)}

    def total(self) -> int:
        return sum(self.sizes().values())


def select_round_robin(distances: np.ndarray, labels: np.ndarray, quota: int) -> list[int]:
    """Class-balanced nearest-first selection of sample indices.

    Classes take turns (ascending class id) contributing their next-nearest
    unused sample until the quota is filled or every sample is taken. That is
    the first `quota` rows ordered by rank within their class, then class id,
    where a row's rank comes from its distance, then its index.
    """
    by_class = np.lexsort((distances, labels))
    sorted_labels = labels[by_class]
    rank = np.arange(labels.shape[0]) - np.searchsorted(sorted_labels, sorted_labels)
    return by_class[np.lexsort((sorted_labels, rank))][:quota].tolist()


def admit_domain(mem: ExemplarMemory, net, x: np.ndarray, labels: np.ndarray) -> dict:
    """Store a new domain's representative samples and cut every bucket to
    its equal share, a prefix of its round-robin order.

    Returns a record of the selection (per-sample centroid distances and the
    chosen indices) so the choice can be audited against a full sort.
    """
    new_count = len(mem.buckets) + 1
    quota = mem.capacity // new_count
    if quota < 1:
        raise ValueError(
            f"memory: capacity {mem.capacity} cannot hold {new_count} domains")
    feats = nets.feature_values(net, x)
    labels = np.asarray(labels, dtype=int)
    # an absent class keeps a zero row, which nothing reads
    centroids = labeler.class_means(feats, labels, np.zeros((labels.max() + 1, feats.shape[1])))
    diff = feats - centroids[labels]
    # the same bits as np.linalg.norm of each row; norm(diff, axis=1) differs
    distances = np.sqrt(np.vecdot(diff, diff))
    chosen = select_round_robin(distances, labels, quota)
    mem.buckets.append((x[chosen], labels[chosen]))
    mem.buckets = [tuple(part[:quota] for part in bucket) for bucket in mem.buckets]
    return {"quota": quota, "distances": distances, "labels": labels.copy(),
            "chosen": chosen}


def replay_batch(mem: ExemplarMemory, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draw of n exemplars from all buckets, in admission order;
    without replacement when possible."""
    if mem.total() == 0:
        raise ValueError("memory: replay from empty memory")
    inputs, labels = (np.concatenate(parts) for parts in zip(*mem.buckets))
    return synthdata.draw_rows(inputs, labels, n, rng)
