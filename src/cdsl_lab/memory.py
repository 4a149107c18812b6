"""Replay memory holding a few representative exemplars per seen domain.

Capacity is fixed; every admitted domain gets an equal share, so older
buckets shrink as new domains arrive. Within a domain, exemplars are the
samples nearest their own class centroid in feature space, picked in a
class-balanced round-robin so no class dominates the bucket.

Each domain's bucket is one (inputs, labels, distances) tuple of arrays
with rows in admission order; only this module reads that layout.
"""

from __future__ import annotations

import numpy as np

from . import nets


class ExemplarMemory:
    def __init__(self, capacity: int = 200):
        if capacity < 1:
            raise ValueError(f"memory: capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.buckets: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def sizes(self) -> dict[int, int]:
        """Rows held per domain, in admission order."""
        return {dom: labels.shape[0] for dom, (_, labels, _) in self.buckets.items()}

    def total(self) -> int:
        return sum(self.sizes().values())


def rebalance(mem: ExemplarMemory) -> None:
    """Shrink every bucket to its equal share, keeping its nearest rows in
    stored order; the earlier row wins a distance tie."""
    quota = mem.capacity // len(mem.buckets)
    for dom, (inputs, labels, distances) in mem.buckets.items():
        keep = np.sort(np.argsort(distances, kind="stable")[:quota])
        mem.buckets[dom] = (inputs[keep], labels[keep], distances[keep])


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


def admit_domain(mem: ExemplarMemory, net, x: np.ndarray, labels: np.ndarray,
                 domain_id: int) -> dict:
    """Store a new domain's representative samples and shrink older buckets.

    Returns a record of the selection (per-sample centroid distances and the
    chosen indices) so the choice can be audited against a full sort.
    """
    if domain_id in mem.buckets:
        raise ValueError(f"memory: domain {domain_id} was already admitted")
    new_count = len(mem.buckets) + 1
    quota = mem.capacity // new_count
    if quota < 1:
        raise ValueError(
            f"memory: capacity {mem.capacity} cannot hold {new_count} domains")
    feats = nets.feature_values(net, x)
    labels = np.asarray(labels, dtype=int)
    classes, row_class = np.unique(labels, return_inverse=True)
    centroids = np.stack([feats[row_class == j].mean(axis=0)
                          for j in range(classes.shape[0])])
    diff = feats - centroids[row_class]
    # the same bits as np.linalg.norm of each row; norm(diff, axis=1) differs
    distances = np.sqrt(np.vecdot(diff, diff))
    chosen = select_round_robin(distances, labels, quota)
    mem.buckets[domain_id] = (x[chosen], labels[chosen], distances[chosen])
    rebalance(mem)
    return {"domain_id": domain_id, "quota": quota,
            "distances": distances, "labels": labels.copy(),
            "chosen": chosen}


def replay_batch(mem: ExemplarMemory, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draw of n exemplars from all buckets, in admission order;
    without replacement when possible."""
    if mem.total() == 0:
        raise ValueError("memory: replay from empty memory")
    inputs, labels, _ = (np.concatenate(parts) for parts in zip(*mem.buckets.values()))
    idx = rng.choice(labels.shape[0], size=n, replace=n > labels.shape[0])
    return inputs[idx], labels[idx]
