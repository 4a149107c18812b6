import numpy as np
import pytest

from cdsl_lab import labeler, nets


def tiny_net(seed=0, input_dim=4, classes=3):
    rng = np.random.default_rng(seed)
    return nets.build_network(input_dim, classes, rng, hidden=(8,), bottleneck=(6, 4))


def test_config_validation():
    with pytest.raises(ValueError, match="r_top"):
        labeler.LabelerConfig(r_top=0.5)
    with pytest.raises(ValueError, match="r_top_prime"):
        labeler.LabelerConfig(r_top=4.0, r_top_prime=2.0)
    with pytest.raises(ValueError, match="method"):
        labeler.LabelerConfig(method="oracle")


def test_top_confidence_default_keeps_half_per_class():
    # 8 samples, 2 classes, ratio 2 -> top 2 per class
    probs = np.array([
        [0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4],
        [0.4, 0.6], [0.3, 0.7], [0.2, 0.8], [0.1, 0.9],
    ])
    assert [list(labeler._top_by_score(probs[:, k], 2)) for k in range(2)] == [[0, 1], [7, 6]]
    assert list(labeler.top_confidence_pool(probs, r_top=2.0)) == [0, 1, 6, 7]


def test_top_selection_breaks_ties_by_ascending_index():
    probs = np.array([[0.5, 0.5]] * 6)
    assert list(labeler._top_by_score(probs[:, 0], 3)) == [0, 1, 2]
    assert list(labeler._top_by_score(probs[:, 1], 3)) == [0, 1, 2]
    assert list(labeler.top_confidence_pool(probs, r_top=1.0)) == [0, 1, 2]


def test_list_size_clamps_to_one():
    assert labeler._class_list_size(4, 2, 4.0) == 1  # floor(4/8) = 0 -> 1
    probs = np.full((4, 2), 0.5)
    # both classes keep only their top sample, the tied sample 0
    assert list(labeler.top_confidence_pool(probs, r_top=4.0)) == [0]
    with pytest.raises(ValueError, match="samples"):
        labeler.top_confidence_pool(np.full((1, 2), 0.5), r_top=2.0)


def test_equal_weights_reduce_centroid_to_arithmetic_mean():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(10, 3))
    weights = np.full((10, 2), 0.5)
    idx = np.array([1, 4, 7])
    cents = labeler.weighted_centroids(feats[idx], weights[idx])
    expected = feats[idx].mean(axis=0)
    assert np.allclose(cents[0], expected, atol=1e-12)
    assert np.allclose(cents[1], expected, atol=1e-12)


def test_weighted_centroids_match_brute_force():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(12, 5))
    weights = rng.dirichlet(np.ones(3), size=12)
    cents = labeler.weighted_centroids(feats, weights)
    for k in range(3):
        num = sum(weights[i, k] * feats[i] for i in range(12))
        den = sum(weights[i, k] for i in range(12))
        assert np.allclose(cents[k], num / den, atol=1e-12)


def test_union_counts_each_sample_once():
    # sample 0 tops both classes; the centroid pool must hold it once
    probs = np.array([[0.9, 0.9], [0.8, 0.1], [0.1, 0.8], [0.5, 0.5]])
    assert list(labeler._top_by_score(probs[:, 0], 1)) == [0]
    assert list(labeler._top_by_score(probs[:, 1], 1)) == [0]
    assert list(labeler.top_confidence_pool(probs, r_top=2.0)) == [0]


def test_cosine_ranking_and_duplicate_membership():
    feats = np.array([
        [1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9], [0.7, 0.7],
        [1.0, 0.1], [0.1, 1.0], [0.8, 0.2],
    ])
    centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
    idx, labels = labeler.top_similarity_sets(feats, centroids, r_top=2.0)
    assert idx.shape[0] == 4  # two per class
    sims = labeler.cosine_to_centroids(feats, centroids)
    for k in (0, 1):
        got = idx[labels == k]
        best = np.argsort(-sims[:, k], kind="stable")[:2]
        assert set(got) == set(best)


def test_cosine_of_zero_vector_is_zero():
    feats = np.array([[0.0, 0.0], [1.0, 0.0]])
    centroids = np.array([[1.0, 1.0], [0.0, 0.0]])
    sims = labeler.cosine_to_centroids(feats, centroids)
    assert sims[0, 0] == 0.0
    assert sims[1, 1] == 0.0
    assert sims[1, 0] == pytest.approx(np.cos(np.pi / 4))


def test_knn_single_neighbor_copies_its_label():
    feats = np.array([[0.0], [1.0], [10.0], [11.0]])
    member_idx = np.array([0, 2])
    member_labels = np.array([0, 1])
    got = labeler.knn_assign(feats, member_idx, member_labels, kappa=1, classes=2)
    assert list(got) == [0, 0, 1, 1]


def test_knn_vote_tie_breaks_by_cumulative_distance():
    # both classes supply one neighbor; class 1's is nearer
    feats = np.array([[0.0], [-2.0], [1.0]])
    member_idx = np.array([1, 2])
    member_labels = np.array([0, 1])
    got = labeler.knn_assign(feats, member_idx, member_labels, kappa=2, classes=2)
    assert got[0] == 1


def test_knn_full_tie_breaks_by_class_index():
    feats = np.array([[0.0], [-1.0], [1.0]])
    member_idx = np.array([1, 2])
    member_labels = np.array([1, 0])
    got = labeler.knn_assign(feats, member_idx, member_labels, kappa=2, classes=2)
    assert got[0] == 0


def knn_oracle(feats, member_idx, member_labels, kappa, classes):
    """Brute force: the kappa nearest pool entries by (distance, entry), a
    vote, then the smaller cumulative distance and the smaller class."""
    labels = []
    for i in range(feats.shape[0]):
        dist = [float(np.linalg.norm(feats[m] - feats[i])) for m in member_idx]
        nearest = sorted(range(len(member_idx)), key=lambda e: (dist[e], e))[:kappa]
        votes = [0] * classes
        cum = [0.0] * classes
        for e in nearest:
            votes[member_labels[e]] += 1
            cum[member_labels[e]] += dist[e]
        tied = [k for k in range(classes) if votes[k] == max(votes)]
        labels.append(min(tied, key=lambda k: (cum[k], k)))
    return labels


@pytest.mark.parametrize("seed", range(6))
def test_knn_matches_brute_force_on_exact_ties(seed):
    # integer 1-d features: distances and their sums are exact, so ties are real
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 5, size=(14, 1)).astype(float)
    member_idx = rng.integers(0, 14, size=7)  # repeats put one sample in twice
    member_labels = rng.integers(0, 3, size=7)
    for kappa in range(1, 10):
        got = labeler.knn_assign(feats, member_idx, member_labels, kappa, classes=3)
        want = knn_oracle(feats, member_idx, member_labels, kappa, classes=3)
        assert got.tolist() == want, kappa


def test_knn_rejects_zero_kappa():
    feats = np.zeros((3, 2))
    with pytest.raises(ValueError, match="r_top_prime"):
        labeler.knn_assign(feats, np.array([0]), np.array([0]), kappa=0, classes=2)


def test_t2pl_end_to_end_is_deterministic_and_in_range():
    net = tiny_net()
    x = np.random.default_rng(3).normal(size=(60, 4))
    cfg = labeler.LabelerConfig(r_top=2.0, r_top_prime=5.0)
    a = labeler.t2pl(net, x, cfg, stage=1)
    b = labeler.t2pl(net, x, cfg, stage=1)
    assert np.array_equal(a.labels, b.labels)
    assert a.labels.shape == (60,)
    assert set(np.unique(a.labels)).issubset({0, 1, 2})
    assert a.method == "t2pl"


def test_t2pl_kappa_guard_fires_for_tiny_domains():
    net = tiny_net()
    x = np.random.default_rng(4).normal(size=(12, 4))
    cfg = labeler.LabelerConfig(r_top=2.0, r_top_prime=20.0)  # floor(12/60) = 0
    with pytest.raises(ValueError, match="r_top_prime"):
        labeler.t2pl(net, x, cfg, stage=1)


def test_softmax_labels_are_argmax():
    net = tiny_net()
    x = np.random.default_rng(5).normal(size=(20, 4))
    got = labeler.softmax_labels(net, x, stage=2)
    assert np.array_equal(got.labels, np.argmax(nets.predict_probs(net, x), axis=1))
    assert got.method == "softmax"
    assert got.stage == 2


def test_shot_style_matches_small_brute_force():
    net = tiny_net(seed=7)
    x = np.random.default_rng(6).normal(size=(15, 4))
    got = labeler.shot_style_labels(net, x, stage=1)

    probs = nets.predict_probs(net, x)
    feats = nets.feature_values(net, x)
    classes = probs.shape[1]
    cents = np.stack([
        sum(probs[i, k] * feats[i] for i in range(15)) / probs[:, k].sum()
        for k in range(classes)])
    first = np.argmax(labeler.cosine_to_centroids(feats, cents), axis=1)
    refined = cents.copy()
    for k in range(classes):
        mask = first == k
        if mask.any():
            refined[k] = feats[mask].mean(axis=0)
    expected = np.argmax(labeler.cosine_to_centroids(feats, refined), axis=1)
    assert np.array_equal(got.labels, expected)


def test_assign_labels_dispatches_by_method():
    net = tiny_net()
    x = np.random.default_rng(8).normal(size=(30, 4))
    for method in labeler.METHODS:
        cfg = labeler.LabelerConfig(r_top=2.0, r_top_prime=2.5, method=method)
        out = labeler.assign_labels(net, x, cfg, stage=3)
        assert out.method == method
