"""Replay memory holding a few representative exemplars per seen domain.

Capacity is fixed; every admitted domain gets an equal share, so older
buckets shrink as new domains arrive. Within a domain, exemplars are the
samples nearest their own class centroid in feature space, picked in a
class-balanced round-robin so no class dominates the bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets


@dataclass
class Exemplar:
    input: np.ndarray
    label: int
    domain_id: int
    distance: float


class ExemplarMemory:
    def __init__(self, capacity: int = 200):
        if capacity < 1:
            raise ValueError(f"memory: capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.buckets: dict[int, list[Exemplar]] = {}

    def total(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def domains(self) -> list[int]:
        return sorted(self.buckets)

    def quota(self) -> int:
        if not self.buckets:
            return self.capacity
        return self.capacity // len(self.buckets)

    def all_exemplars(self) -> list[Exemplar]:
        """Flat view in deterministic order: domain id, then bucket order."""
        out = []
        for dom in self.domains():
            out.extend(self.buckets[dom])
        return out


def _keep_nearest(bucket: list[Exemplar], quota: int) -> list[Exemplar]:
    """Smallest-distance exemplars, preserving stored order; stable on ties."""
    if len(bucket) <= quota:
        return bucket
    ranked = sorted(range(len(bucket)), key=lambda i: (bucket[i].distance, i))
    keep = sorted(ranked[:quota])
    return [bucket[i] for i in keep]


def rebalance(mem: ExemplarMemory) -> None:
    quota = mem.quota()
    if quota < 1:
        raise ValueError(
            f"memory: capacity {mem.capacity} cannot hold {len(mem.buckets)} domains")
    for dom in mem.buckets:
        mem.buckets[dom] = _keep_nearest(mem.buckets[dom], quota)


def select_round_robin(distances: np.ndarray, labels: np.ndarray, quota: int) -> list[int]:
    """Class-balanced nearest-first selection of sample indices.

    Classes take turns (ascending class id) contributing their next-nearest
    unused sample until the quota is filled or every sample is taken.
    """
    per_class = {}
    for k in sorted(set(int(v) for v in labels)):
        members = np.flatnonzero(labels == k)
        order = members[np.lexsort((members, distances[members]))]
        per_class[k] = list(order)
    chosen: list[int] = []
    while len(chosen) < quota and any(per_class.values()):
        for k in sorted(per_class):
            if per_class[k] and len(chosen) < quota:
                chosen.append(int(per_class[k].pop(0)))
    return chosen


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
    centroids = {k: feats[labels == k].mean(axis=0) for k in np.unique(labels)}
    distances = np.array([np.linalg.norm(feats[i] - centroids[labels[i]])
                          for i in range(x.shape[0])])
    chosen = select_round_robin(distances, labels, quota)
    mem.buckets[domain_id] = [
        Exemplar(input=x[i].copy(), label=int(labels[i]), domain_id=domain_id,
                 distance=float(distances[i]))
        for i in chosen]
    rebalance(mem)
    return {"domain_id": domain_id, "quota": quota,
            "distances": distances, "labels": labels.copy(),
            "chosen": list(chosen)}


def replay_batch(mem: ExemplarMemory, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform draw of n exemplars; without replacement when possible."""
    pool = mem.all_exemplars()
    if not pool:
        raise ValueError("memory: replay from empty memory")
    idx = rng.choice(len(pool), size=n, replace=n > len(pool))
    picked = [pool[i] for i in idx]
    return (np.stack([e.input for e in picked]),
            np.array([e.label for e in picked], dtype=int),
            np.array([e.domain_id for e in picked], dtype=int))
