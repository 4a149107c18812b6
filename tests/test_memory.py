import numpy as np
import pytest
from scipy import stats

from cdsl_lab import memory, nets
from cdsl_lab.diffcore import Tensor


def identity_net(dim=2):
    layer = nets.DenseLayer(Tensor(np.eye(dim), requires_grad=True), None)
    clf = nets.DenseLayer(Tensor(np.eye(dim), requires_grad=True), None)
    return nets.Network(nets.FeatureExtractor([layer]), None, clf)


def exemplar(dom, dist, label=0):
    return memory.Exemplar(input=np.zeros(2), label=label, domain_id=dom,
                           distance=dist)


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        memory.ExemplarMemory(0)


def test_rebalance_keeps_smallest_distances():
    mem = memory.ExemplarMemory(capacity=4)
    mem.buckets[0] = [exemplar(0, d) for d in (0.5, 0.1, 0.9, 0.3)]
    mem.buckets[1] = [exemplar(1, d) for d in (0.2, 0.8, 0.4)]
    memory.rebalance(mem)
    assert [e.distance for e in mem.buckets[0]] == [0.1, 0.3]
    assert [e.distance for e in mem.buckets[1]] == [0.2, 0.4]
    assert mem.total() == 4


def test_rebalance_is_stable_on_distance_ties():
    mem = memory.ExemplarMemory(capacity=2)
    mem.buckets[0] = [exemplar(0, 0.5, label=i) for i in range(4)]
    memory.rebalance(mem)
    assert [e.label for e in mem.buckets[0]] == [0, 1]


def test_round_robin_takes_nearest_from_each_class_in_turn():
    # two classes, quota 4 -> two nearest of each
    distances = np.array([0.9, 0.1, 0.5, 0.2, 0.8, 0.3])
    labels = np.array([0, 0, 0, 1, 1, 1])
    chosen = memory.select_round_robin(distances, labels, quota=4)
    assert chosen == [1, 3, 2, 5]


def test_round_robin_spills_over_when_a_class_runs_dry():
    distances = np.array([0.4, 0.1, 0.2, 0.3])
    labels = np.array([0, 1, 1, 1])
    chosen = memory.select_round_robin(distances, labels, quota=3)
    assert chosen == [0, 1, 2]


def test_admit_picks_nearest_to_class_centroids():
    net = identity_net()
    # class 0 clusters at (0,0); class 1 at (10,10); one outlier per class
    x = np.array([
        [0.0, 0.0], [0.1, 0.0], [3.0, 3.0],
        [10.0, 10.0], [10.1, 10.0], [7.0, 7.0],
    ])
    labels = np.array([0, 0, 0, 1, 1, 1])
    mem = memory.ExemplarMemory(capacity=4)
    record = memory.admit_domain(mem, net, x, labels, domain_id=0)
    assert record["quota"] == 4
    kept = {tuple(e.input) for e in mem.buckets[0]}
    assert (3.0, 3.0) not in kept
    assert (7.0, 7.0) not in kept
    assert len(kept) == 4


def test_admit_rejects_duplicate_domains_and_overflow():
    net = identity_net()
    x = np.zeros((4, 2))
    labels = np.zeros(4, dtype=int)
    mem = memory.ExemplarMemory(capacity=3)
    memory.admit_domain(mem, net, x, labels, domain_id=0)
    with pytest.raises(ValueError, match="already admitted"):
        memory.admit_domain(mem, net, x, labels, domain_id=0)
    memory.admit_domain(mem, net, x, labels, domain_id=1)
    memory.admit_domain(mem, net, x, labels, domain_id=2)
    with pytest.raises(ValueError, match="cannot hold"):
        memory.admit_domain(mem, net, x, labels, domain_id=3)


def test_five_domain_run_respects_quotas_and_matches_exhaustive_sort():
    rng = np.random.default_rng(0)
    net = identity_net(dim=3)
    mem = memory.ExemplarMemory(capacity=20)
    for dom in range(5):
        x = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        record = memory.admit_domain(mem, net, x, labels, domain_id=dom)
        t = dom + 1
        assert mem.total() <= 20
        assert all(len(b) <= 20 // t for b in mem.buckets.values())

        # oracle: replay the round robin from a full (distance, index) sort
        expected = []
        pools = {}
        for k in sorted(set(record["labels"])):
            members = [i for i in range(30) if record["labels"][i] == k]
            pools[k] = sorted(members, key=lambda i: (record["distances"][i], i))
        while len(expected) < record["quota"] and any(pools.values()):
            for k in sorted(pools):
                if pools[k] and len(expected) < record["quota"]:
                    expected.append(pools[k].pop(0))
        assert record["chosen"] == expected


def test_replay_is_uniform_over_memory():
    mem = memory.ExemplarMemory(capacity=10)
    for dom in range(2):
        mem.buckets[dom] = [exemplar(dom, 0.1 * i, label=i) for i in range(5)]
    rng = np.random.default_rng(1)
    counts = np.zeros(10)
    for _ in range(2500):
        _, labels, doms = memory.replay_batch(mem, 4, rng)
        for lab, dom in zip(labels, doms):
            counts[dom * 5 + lab] += 1
    assert counts.sum() == 10000
    assert stats.chisquare(counts).pvalue > 0.01


def test_replay_without_replacement_when_batch_fits():
    mem = memory.ExemplarMemory(capacity=10)
    mem.buckets[0] = [memory.Exemplar(np.array([float(i), 0.0]), i, 0, 0.0)
                      for i in range(6)]
    x, labels, _ = memory.replay_batch(mem, 6, np.random.default_rng(2))
    assert sorted(labels) == list(range(6))
    x2, _, _ = memory.replay_batch(mem, 9, np.random.default_rng(3))
    assert x2.shape == (9, 2)


def test_replay_from_empty_memory_errors():
    mem = memory.ExemplarMemory(capacity=5)
    with pytest.raises(ValueError, match="empty"):
        memory.replay_batch(mem, 2, np.random.default_rng(4))
