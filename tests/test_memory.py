import numpy as np
import pytest
from scipy import stats

from cdsl_lab import memory, nets
from cdsl_lab.diffcore import Tensor


def identity_net(dim=2):
    layer = (Tensor(np.eye(dim), requires_grad=True),
             Tensor(np.zeros(dim), requires_grad=True))
    return nets.Network([layer], [], Tensor(np.eye(dim), requires_grad=True))


def bucket(distances, labels=None, first_input=0):
    """A stored bucket whose rows are told apart by their first input."""
    m = len(distances)
    inputs = np.stack([np.arange(first_input, first_input + m, dtype=float),
                       np.zeros(m)], axis=1)
    labels = np.zeros(m, dtype=int) if labels is None else np.asarray(labels)
    return inputs, labels, np.asarray(distances, dtype=float)


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        memory.ExemplarMemory(0)


def test_rebalance_keeps_smallest_distances():
    mem = memory.ExemplarMemory(capacity=4)
    mem.buckets[0] = bucket((0.3, 0.9, 0.1, 0.5))
    mem.buckets[1] = bucket((0.2, 0.8, 0.4), first_input=10)
    memory.rebalance(mem)
    # the nearest rows, still in stored order, with their inputs and labels
    inputs, labels, distances = mem.buckets[0]
    assert list(distances) == [0.3, 0.1]
    assert list(inputs[:, 0]) == [0.0, 2.0]
    assert labels.shape == (2,)
    assert list(mem.buckets[1][2]) == [0.2, 0.4]
    assert list(mem.buckets[1][0][:, 0]) == [10.0, 12.0]
    assert mem.sizes() == {0: 2, 1: 2}
    assert mem.total() == 4


def test_rebalance_is_stable_on_distance_ties():
    mem = memory.ExemplarMemory(capacity=2)
    mem.buckets[0] = bucket([0.5] * 4, labels=range(4))
    memory.rebalance(mem)
    assert list(mem.buckets[0][1]) == [0, 1]


def round_robin_oracle(distances, labels, quota):
    """Per-class queues sorted by (distance, index), popped in turn by
    ascending class id."""
    queues = {k: sorted(np.flatnonzero(labels == k).tolist(),
                        key=lambda i: (distances[i], i))
              for k in sorted(set(labels.tolist()))}
    chosen = []
    while len(chosen) < quota and any(queues.values()):
        for k in queues:
            if queues[k] and len(chosen) < quota:
                chosen.append(queues[k].pop(0))
    return chosen


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


@pytest.mark.parametrize("seed", range(6))
def test_round_robin_matches_queue_oracle_on_exact_ties(seed):
    # distances on a quarter grid tie often; class ids are sparse
    rng = np.random.default_rng(seed)
    n = 13
    distances = rng.integers(0, 4, n) / 4
    labels = rng.choice([0, 3, 7], size=n)
    for quota in range(1, n + 3):
        assert memory.select_round_robin(distances, labels, quota) == \
            round_robin_oracle(distances, labels, quota), quota


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
    inputs, kept_labels, distances = mem.buckets[0]
    kept = {tuple(row) for row in inputs}
    assert (3.0, 3.0) not in kept
    assert (7.0, 7.0) not in kept
    assert len(kept) == 4
    assert np.array_equal(inputs, x[record["chosen"]])
    assert np.array_equal(kept_labels, labels[record["chosen"]])
    assert np.array_equal(distances, record["distances"][record["chosen"]])


def test_admit_distances_match_a_per_row_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    net = identity_net(dim=16)
    x = rng.normal(size=(500, 16))
    labels = rng.integers(0, 4, size=500)
    record = memory.admit_domain(memory.ExemplarMemory(capacity=20), net, x, labels,
                                 domain_id=0)
    feats = nets.feature_values(net, x)
    centroids = {k: feats[labels == k].mean(axis=0) for k in np.unique(labels)}
    oracle = np.array([np.linalg.norm(feats[i] - centroids[labels[i]])
                       for i in range(x.shape[0])])
    assert np.array_equal(record["distances"], oracle)


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
        assert all(size <= 20 // t for size in mem.sizes().values())

        assert record["chosen"] == round_robin_oracle(
            record["distances"], record["labels"], record["quota"])


def test_replay_is_uniform_over_memory():
    mem = memory.ExemplarMemory(capacity=10)
    for dom in range(2):
        mem.buckets[dom] = bucket([0.1 * i for i in range(5)], first_input=5 * dom)
    rng = np.random.default_rng(1)
    counts = np.zeros(10)
    for _ in range(2500):
        x, _ = memory.replay_batch(mem, 4, rng)
        np.add.at(counts, x[:, 0].astype(int), 1)
    assert counts.sum() == 10000
    assert stats.chisquare(counts).pvalue > 0.01


def test_replay_without_replacement_when_batch_fits():
    mem = memory.ExemplarMemory(capacity=10)
    mem.buckets[0] = bucket([0.0] * 6, labels=range(6))
    x, labels = memory.replay_batch(mem, 6, np.random.default_rng(2))
    assert sorted(labels) == list(range(6))
    assert sorted(x[:, 0]) == list(range(6))
    x2, _ = memory.replay_batch(mem, 9, np.random.default_rng(3))
    assert x2.shape == (9, 2)


def test_replay_from_empty_memory_errors():
    mem = memory.ExemplarMemory(capacity=5)
    with pytest.raises(ValueError, match="empty"):
        memory.replay_batch(mem, 2, np.random.default_rng(4))
