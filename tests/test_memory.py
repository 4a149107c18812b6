import numpy as np
import pytest
from scipy import stats

from cdsl_lab import memory, nets
from cdsl_lab.diffcore import Tensor


def identity_net(dim=2):
    layer = (Tensor(np.eye(dim), requires_grad=True),
             Tensor(np.zeros(dim), requires_grad=True))
    return nets.Network([layer], [], Tensor(np.eye(dim), requires_grad=True))


def bucket(m, labels=None, first_input=0):
    """A stored bucket of m rows told apart by their first input."""
    inputs = np.stack([np.arange(first_input, first_input + m, dtype=float),
                       np.zeros(m)], axis=1)
    labels = np.zeros(m, dtype=int) if labels is None else np.asarray(labels)
    return inputs, labels


def test_shrink_keeps_every_class_when_the_nearest_rows_are_one_class():
    """Class 0 lies nearer its centroid than class 1 does, so domain 0's two
    nearest rows are both class 0; the shrink to quota 2 keeps the prefix of
    the round-robin order, one row of each class."""
    net = identity_net()
    x = np.array([[0.0, 0.1], [0.0, -0.1], [0.2, 0.0], [-0.2, 0.0],
                  [11.0, 10.0], [9.0, 10.0], [10.0, 13.0], [10.0, 7.0]])
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    mem = memory.ExemplarMemory(capacity=4)
    record = memory.admit_domain(mem, net, x, labels)
    assert list(record["distances"]) == [0.1, 0.1, 0.2, 0.2, 1.0, 1.0, 3.0, 3.0]
    assert record["chosen"] == [0, 4, 1, 5]
    memory.admit_domain(mem, net, x + 1.0, labels)
    assert mem.sizes() == {0: 2, 1: 2}
    assert mem.total() == 4
    inputs, kept_labels = mem.buckets[0]
    assert np.array_equal(inputs, x[[0, 4]])
    assert list(kept_labels) == [0, 1]


def test_rebalance_keeps_smallest_distances():
    """Every shrink of an older bucket keeps, within each class, that class's
    nearest rows."""
    rng = np.random.default_rng(3)
    net = identity_net(dim=3)
    mem = memory.ExemplarMemory(capacity=24)
    xs, records = {}, {}
    for dom in range(4):
        xs[dom] = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        records[dom] = memory.admit_domain(mem, net, xs[dom], labels)
        assert mem.sizes() == {d: 24 // (dom + 1) for d in range(dom + 1)}
        for d, (inputs, kept_labels) in enumerate(mem.buckets):
            row_of = {tuple(row): i for i, row in enumerate(xs[d])}
            kept = np.array([row_of[tuple(row)] for row in inputs])
            distances, all_labels = records[d]["distances"], records[d]["labels"]
            assert np.array_equal(kept_labels, all_labels[kept])
            for c in np.unique(kept_labels):
                ours = np.sort(distances[kept[kept_labels == c]])
                nearest = np.sort(distances[all_labels == c])[:ours.shape[0]]
                assert np.array_equal(ours, nearest), (dom, d, c)


def test_rebalance_is_stable_on_distance_ties():
    """Every row lies at distance 1 from its class centroid, so the shrink keeps
    the lowest-index row of each class."""
    net = identity_net()
    ring = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    x = np.stack([ring, ring + 10.0], axis=1).reshape(8, 2)
    labels = np.array([0, 1] * 4)
    mem = memory.ExemplarMemory(capacity=4)
    record = memory.admit_domain(mem, net, x, labels)
    assert list(record["distances"]) == [1.0] * 8
    assert record["chosen"] == [0, 1, 2, 3]
    memory.admit_domain(mem, net, x, labels)
    inputs, kept_labels = mem.buckets[0]
    assert np.array_equal(inputs, x[[0, 1]])
    assert list(kept_labels) == [0, 1]


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
    record = memory.admit_domain(mem, net, x, labels)
    assert record["quota"] == 4
    inputs, kept_labels = mem.buckets[0]
    kept = {tuple(row) for row in inputs}
    assert (3.0, 3.0) not in kept
    assert (7.0, 7.0) not in kept
    assert len(kept) == 4
    assert np.array_equal(inputs, x[record["chosen"]])
    assert np.array_equal(kept_labels, labels[record["chosen"]])


def assert_admission_matches_oracles(x, labels, capacity):
    """Distances equal a per-row norm from each present class's plain mean,
    bit for bit, and the chosen rows are the queue oracle's."""
    net = identity_net(dim=x.shape[1])
    record = memory.admit_domain(memory.ExemplarMemory(capacity=capacity), net, x, labels)
    feats = nets.feature_values(net, x)
    centroids = {k: feats[labels == k].mean(axis=0) for k in np.unique(labels)}
    oracle = np.array([np.linalg.norm(feats[i] - centroids[labels[i]])
                       for i in range(x.shape[0])])
    assert np.array_equal(record["distances"], oracle)
    assert record["chosen"] == round_robin_oracle(oracle, labels, capacity)


def test_admit_distances_match_a_per_row_norm_bit_for_bit():
    """At 16-d and at 2-d features; at 2-d a one-hot BLAS product of the
    class sums can round apart from mean(axis=0), as OpenBLAS's SkylakeX gemm does."""
    rng = np.random.default_rng(5)
    assert_admission_matches_oracles(rng.normal(size=(500, 16)),
                                     rng.integers(0, 4, size=500), capacity=20)
    rng = np.random.default_rng(11)
    assert_admission_matches_oracles(rng.normal(size=(200, 2)),
                                     rng.integers(0, 2, size=200), capacity=20)


@pytest.mark.parametrize("present", [(0, 2), (1, 2)], ids=["no_class_1", "no_class_0"])
def test_admit_when_the_labels_skip_a_class(present):
    """Pseudo labels can leave a class out; its centroid is never read."""
    rng = np.random.default_rng(7)
    assert_admission_matches_oracles(rng.normal(size=(90, 8)),
                                     rng.choice(present, size=90), capacity=25)


def test_admit_rejects_duplicate_domains_and_overflow():
    net = identity_net()
    x = np.zeros((4, 2))
    labels = np.zeros(4, dtype=int)
    mem = memory.ExemplarMemory(capacity=3)
    memory.admit_domain(mem, net, x, labels)
    # buckets are numbered by admission: the same rows again open the next one
    memory.admit_domain(mem, net, x, labels)
    assert mem.sizes() == {0: 1, 1: 1}
    memory.admit_domain(mem, net, x, labels)
    with pytest.raises(ValueError, match="cannot hold"):
        memory.admit_domain(mem, net, x, labels)


def test_five_domain_run_respects_quotas_and_matches_exhaustive_sort():
    rng = np.random.default_rng(0)
    net = identity_net(dim=3)
    mem = memory.ExemplarMemory(capacity=20)
    xs, records = {}, {}
    for dom in range(5):
        xs[dom] = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        records[dom] = record = memory.admit_domain(mem, net, xs[dom], labels)
        t = dom + 1
        assert mem.total() <= 20
        assert all(size <= 20 // t for size in mem.sizes().values())

        assert record["chosen"] == round_robin_oracle(
            record["distances"], record["labels"], record["quota"])
        # every bucket is its own admission's round-robin pick at today's quota
        for d, (inputs, kept_labels) in enumerate(mem.buckets):
            rows = records[d]["chosen"][:record["quota"]]
            assert np.array_equal(inputs, xs[d][rows]), (dom, d)
            assert np.array_equal(kept_labels, records[d]["labels"][rows]), (dom, d)


def test_replay_is_uniform_over_memory():
    mem = memory.ExemplarMemory(capacity=10)
    for dom in range(2):
        mem.buckets.append(bucket(5, first_input=5 * dom))
    rng = np.random.default_rng(1)
    counts = np.zeros(10)
    for _ in range(2500):
        x, _ = memory.replay_batch(mem, 4, rng)
        np.add.at(counts, x[:, 0].astype(int), 1)
    assert counts.sum() == 10000
    assert stats.chisquare(counts).pvalue > 0.01


def test_replay_without_replacement_when_batch_fits():
    mem = memory.ExemplarMemory(capacity=10)
    mem.buckets.append(bucket(6, labels=range(6)))
    x, labels = memory.replay_batch(mem, 6, np.random.default_rng(2))
    assert sorted(labels) == list(range(6))
    assert sorted(x[:, 0]) == list(range(6))
    x2, _ = memory.replay_batch(mem, 9, np.random.default_rng(3))
    assert x2.shape == (9, 2)


def test_replay_from_empty_memory_errors():
    mem = memory.ExemplarMemory(capacity=5)
    with pytest.raises(ValueError, match="empty"):
        memory.replay_batch(mem, 2, np.random.default_rng(4))
