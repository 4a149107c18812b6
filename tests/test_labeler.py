import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from cdsl_lab import diffcore as dc
from cdsl_lab import labeler, nets
from conftest import blas_core, runs_openblas_haswell_kernels
from test_cli import fresh_python


def tiny_net(seed=0, input_dim=4, classes=3):
    rng = np.random.default_rng(seed)
    return nets.build_network(input_dim, classes, rng, hidden=(8,), bottleneck=(6, 4))


def test_top_confidence_default_keeps_half_per_class():
    # 8 samples, 2 classes, ratio 2 -> top 2 per class
    probs = np.array([
        [0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4],
        [0.4, 0.6], [0.3, 0.7], [0.2, 0.8], [0.1, 0.9],
    ])
    # as features against the unit centroids, each row's similarities keep
    # its probabilities' order within a class: the picks come out descending
    idx, _ = labeler.top_similarity_sets(probs, np.eye(2), r_top=2.0)
    assert list(idx) == [0, 1, 7, 6]
    assert list(labeler.top_confidence_pool(probs, r_top=2.0)) == [0, 1, 6, 7]


def test_top_selection_breaks_ties_by_ascending_index():
    probs = np.array([[0.5, 0.5]] * 6)
    idx, _ = labeler.top_similarity_sets(probs, np.eye(2), r_top=1.0)
    assert list(idx) == [0, 1, 2, 0, 1, 2]
    assert list(labeler.top_confidence_pool(probs, r_top=1.0)) == [0, 1, 2]


def test_list_size_clamps_to_one():
    probs = np.full((4, 2), 0.5)
    assert labeler._top_per_class(probs, 4.0).shape == (1, 2)  # floor(4/8) = 0 -> 1
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


def test_weighted_centroids_name_a_class_with_zero_weight():
    # a collapsed model can give one class probability exactly 0 on every row
    weights = np.array([[0.7, 0.0, 0.3], [0.4, 0.0, 0.6]])
    with pytest.raises(ValueError, match="class 1 has zero total weight"):
        labeler.weighted_centroids(np.ones((2, 4)), weights)


def class_means_mismatches() -> list[str]:
    """The draws, 10 at each of widths 2, 16 and 64, whose class_means differs
    in any bit from each present class's feats[labels == k].mean(axis=0) or
    moves the row of class 2, which no label names."""
    bad = []
    for width in (2, 16, 64):
        for seed in range(10):
            rng = np.random.default_rng([width, seed])
            feats = rng.normal(size=(300, width))
            labels = rng.choice([0, 1, 3], size=300)
            expected = np.full((4, width), 7.0)
            for k in (0, 1, 3):
                expected[k] = feats[labels == k].mean(axis=0)
            got = labeler.class_means(feats, labels, np.full((4, width), 7.0))
            if not np.array_equal(got, expected):
                bad.append(f"width {width} seed {seed}")
    return bad


def test_class_means_are_per_class_row_means_bit_for_bit():
    assert class_means_mismatches() == []


@pytest.mark.skipif(not runs_openblas_haswell_kernels(),
                    reason="needs numpy's bundled OpenBLAS on an x86-64 CPU with AVX2")
def test_class_means_keep_their_bits_on_the_haswell_kernels():
    """The same check in a child interpreter whose OpenBLAS runs its Haswell
    kernels, which round a BLAS product differently from other cores."""
    proc = fresh_python(__file__, OPENBLAS_CORETYPE="Haswell")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"blas_core": "Haswell", "mismatches": []}


def test_union_counts_each_sample_once():
    # sample 0 tops both classes; the centroid pool must hold it once
    probs = np.array([[0.9, 0.9], [0.8, 0.1], [0.1, 0.8], [0.5, 0.5]])
    assert list(np.argsort(-probs, axis=0, kind="stable")[:1].ravel()) == [0, 0]
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
        dist = np.linalg.norm(feats[member_idx] - feats[i], axis=1).tolist()
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


def test_knn_rejects_an_empty_pool():
    empty = np.array([], dtype=int)
    with pytest.raises(ValueError, match="r_top_prime"):
        labeler.knn_assign(np.zeros((3, 2)), empty, empty, kappa=5, classes=2)


def t2pl_style_pool(rng, n, size, classes):
    """size // classes distinct rows per class, drawn per class, so one row
    can sit in the pool twice with different labels."""
    m = size // classes
    idx = np.concatenate([rng.permutation(n)[:m] for _ in range(classes)])
    return idx, np.repeat(np.arange(classes), m)


def kappas_around(pool):
    """kappa at the edges of the Gram filter: one neighbour, one below the
    widest filter that leaves an entry out, the whole pool and beyond it."""
    return (1, 4, pool - labeler.KNN_SLACK - 1, pool, pool + 3)


def assert_matches_oracle(feats, member_idx, member_labels, classes):
    for kappa in kappas_around(member_idx.shape[0]):
        got = labeler.knn_assign(feats, member_idx, member_labels, kappa, classes)
        want = knn_oracle(feats, member_idx, member_labels, kappa, classes)
        assert got.tolist() == want, kappa


@pytest.mark.parametrize("classes", [2, 3, 4, 5])
@pytest.mark.parametrize("dim, values", [(8, 5), (3, 2)])
def test_knn_matches_brute_force_on_exact_ties_in_many_dimensions(classes, dim, values):
    # small integers: every distance is the root of an exact integer, so many
    # pool entries tie at the kappa-th neighbour and many votes tie; with 2
    # values in 3-d more entries tie than the filter keeps beyond kappa
    rng = np.random.default_rng(classes)
    feats = rng.integers(0, values, size=(90, dim)).astype(float)
    member_idx, member_labels = t2pl_style_pool(rng, 90, 60, classes)
    assert len(set(member_idx.tolist())) < member_idx.shape[0]  # duplicate entries
    assert_matches_oracle(feats, member_idx, member_labels, classes)


def test_knn_tie_sums_each_class_nearest_first():
    # row 0's six neighbours tie 3-3; class 0's distances e, e, 1 sum to 1 + 2e
    # nearest first but to 1 farthest first, and class 1's 0, 0, 1 sum to 1
    e = 2.0 ** -53
    feats = np.array([[0.0], [0.0], [0.0], [e], [-e], [1.0], [-1.0]])
    member_idx = np.arange(1, 7)
    member_labels = np.array([1, 1, 0, 0, 0, 1])
    got = labeler.knn_assign(feats, member_idx, member_labels, 6, 2)
    assert got[0] == 1
    assert got.tolist() == knn_oracle(feats, member_idx, member_labels, 6, 2)


@pytest.mark.parametrize("gram", [False, True])
def test_knn_tie_of_eight_sums_each_class_nearest_first(monkeypatch, gram):
    # row 0's 16 neighbours tie 8-8. Nearest first, class 0's seven e and its 1
    # sum to 1 + 8e, and class 1's seven 0 and its 1 + 6e to 1 + 6e; numpy's
    # pairwise sum of class 0's eight terms gives 1 + 6e, a tie the smaller
    # class would win. With the far entries the pool outgrows kappa +
    # KNN_SLACK and row 0 goes through the Gram vote first.
    e = 2.0 ** -53
    near = np.array([0.0] + [e] * 7 + [1.0] + [0.0] * 7 + [1.0 + 6 * e])
    far, far_labels = far_entries() if gram else (np.empty(0), np.empty(0, dtype=int))
    feats = np.concatenate([near, far])[:, None]
    member_idx = np.arange(1, feats.shape[0])
    member_labels = np.concatenate([[0] * 8, [1] * 8, far_labels])
    assert np.sum(near[1:9]) == near[16] < 1.0 + 8 * e
    assert (member_idx.shape[0] > 16 + labeler.KNN_SLACK) == gram
    assert_left_to_exact_distances(monkeypatch, feats, member_idx, member_labels, 16, 1)


def test_knn_vote_keeps_the_leading_class_when_distances_overflow():
    # every distance from row 0 squares past the largest double, so each
    # class's sum is inf; the label is still class 1, which leads 3-1
    feats = np.array([[0.0], [1e200], [2e200], [3e200], [4e200]])
    member_idx = np.arange(1, 5)
    member_labels = np.array([1, 1, 0, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        got = labeler.knn_assign(feats, member_idx, member_labels, 4, 2)
        assert got.tolist() == knn_oracle(feats, member_idx, member_labels, 4, 2) == [1] * 5


@pytest.mark.parametrize("classes", [2, 5])
def test_knn_matches_brute_force_on_tenths(classes):
    for dim in (1, 8, 16):
        rng = np.random.default_rng(10 + classes)
        feats = np.round(rng.normal(size=(90, dim)), 1)
        member_idx, member_labels = t2pl_style_pool(rng, 90, 60, classes)
        assert_matches_oracle(feats, member_idx, member_labels, classes)


@pytest.mark.parametrize("offset", [1e4, 1e6])
def test_knn_matches_brute_force_far_from_the_origin(offset):
    # |q|^2 + |m|^2 - 2 q.m cancels to a tiny remainder of large terms here
    rng = np.random.default_rng(int(offset))
    centers = offset + 3.0 * rng.normal(size=(3, 8))
    feats = centers[rng.integers(0, 3, size=90)] + rng.normal(size=(90, 8))
    member_idx, member_labels = t2pl_style_pool(rng, 90, 60, 3)
    assert_matches_oracle(feats, member_idx, member_labels, 3)


def test_knn_matches_brute_force_across_blocks(monkeypatch):
    rng = np.random.default_rng(21)
    feats = rng.normal(size=(200, 16))
    member_idx, member_labels = t2pl_style_pool(rng, 200, 400, 2)
    kappa = 10
    want = knn_oracle(feats, member_idx, member_labels, kappa, 2)
    gram = labeler._gram
    for block_elements in (2 ** 10, 2 ** 14, 2 ** 20):
        blocks = []

        def spy(q, member_t2, member_sq):
            blocks.append(q.shape[0])
            return gram(q, member_t2, member_sq)

        with monkeypatch.context() as patch:
            patch.setattr(dc, "BLOCK_ELEMENTS", block_elements)
            patch.setattr(labeler, "_gram", spy)
            got = labeler.knn_assign(feats, member_idx, member_labels, kappa, 2)
            # the Gram vote scores every row in the blocks at the pool's width,
            # and the rows it leaves go on in the blocks at the candidates' width
            gram_blocks = [rows.stop - rows.start for rows in dc.row_blocks(200, 400)]
            rest = blocks[len(gram_blocks):]
            width = max(400, (kappa + labeler.KNN_SLACK) * 16)
            rest_blocks = [rows.stop - rows.start for rows in dc.row_blocks(sum(rest), width)]
        assert got.tolist() == want, block_elements
        assert blocks[:len(gram_blocks)] == gram_blocks, block_elements
        assert (len(gram_blocks) > 1) == (block_elements < 2 ** 20), block_elements
        assert rest == rest_blocks, block_elements


def spy_on_full_pool_refines(monkeypatch):
    """Record how many rows are refined against the whole pool."""
    seen = []
    nearest = labeler._nearest

    def spy(member_feats, q, cand, kappa):
        if cand.shape[1] == member_feats.shape[0]:
            seen.append(q.shape[0])
        return nearest(member_feats, q, cand, kappa)

    monkeypatch.setattr(labeler, "_nearest", spy)
    return seen


def test_knn_refines_unsafe_rows_against_the_whole_pool(monkeypatch):
    # 1e8 from the origin a Gram score's terms are about 1.6e17, where doubles
    # lie 32 apart, while squared distances differ by 1; the scores misorder
    # the neighbours near the kappa-th, and no candidate set passes the test
    rng = np.random.default_rng(5)
    feats = 1e8 + rng.integers(-3, 4, size=(60, 8)).astype(float)
    member_idx, member_labels = t2pl_style_pool(rng, 60, 40, 2)
    kappa = 5
    member_feats = feats[member_idx]
    exact = ((feats[:, None, :] - member_feats) ** 2).sum(axis=2)
    gram = ((feats ** 2).sum(axis=1)[:, None] + (member_feats ** 2).sum(axis=1)
            - 2.0 * feats @ member_feats.T)
    assert np.any(np.argsort(gram, axis=1, kind="stable")[:, :kappa]
                  != np.argsort(exact, axis=1, kind="stable")[:, :kappa])
    seen = spy_on_full_pool_refines(monkeypatch)
    got = labeler.knn_assign(feats, member_idx, member_labels, kappa, 2)
    assert sum(seen) == 60
    assert got.tolist() == knn_oracle(feats, member_idx, member_labels, kappa, 2)


@pytest.mark.parametrize("kappa", [5, 40 - labeler.KNN_SLACK])
def test_knn_refines_safe_rows_once(monkeypatch, kappa):
    # well-spread data leaves every candidate set safe, and a filter as wide
    # as the pool keeps every entry, so no row is refined twice
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(60, 8))
    member_idx, member_labels = t2pl_style_pool(rng, 60, 40, 2)
    seen = spy_on_full_pool_refines(monkeypatch)
    labeler.knn_assign(feats, member_idx, member_labels, kappa, 2)
    assert sum(seen) == (60 if kappa + labeler.KNN_SLACK >= 40 else 0)


def spy_on_exact_rows(monkeypatch):
    """Record every query row whose exact distances are taken."""
    seen = []
    nearest = labeler._nearest

    def spy(member_feats, q, cand, kappa):
        seen.extend(q.tolist())
        return nearest(member_feats, q, cand, kappa)

    monkeypatch.setattr(labeler, "_nearest", spy)
    return seen


def far_entries():
    """20 pool rows at 10 to 29, far beyond the cases' nearest ones, so the pool
    is wider than kappa + KNN_SLACK and the Gram vote runs; labels alternate."""
    return 10.0 + np.arange(20.0), np.arange(20) % 2


def assert_left_to_exact_distances(monkeypatch, feats, member_idx, member_labels, kappa, want):
    """Row 0 is not labelled by the Gram vote, and every row's label is the
    brute force's, row 0's being want."""
    seen = spy_on_exact_rows(monkeypatch)
    got = labeler.knn_assign(feats, member_idx, member_labels, kappa, 2)
    assert feats[0].tolist() in seen
    assert got[0] == want
    assert got.tolist() == knn_oracle(feats, member_idx, member_labels, kappa, 2)


def test_knn_duplicate_entry_across_the_kappa_th_place(monkeypatch):
    # row 3 sits in the pool twice, first with label 1 (entry 0), then with
    # label 0 (entry 3), at the 3rd and 4th places from row 0; the brute force
    # takes entry 0, and entry 3 in its place would turn the vote to class 0
    far, far_labels = far_entries()
    feats = np.concatenate([[0.0, 1.0, -2.0, 3.0], far])[:, None]
    member_idx = np.concatenate([[3, 1, 2, 3], 4 + np.arange(far.shape[0])])
    member_labels = np.concatenate([[1, 0, 1, 0], far_labels])
    assert_left_to_exact_distances(monkeypatch, feats, member_idx, member_labels, 3, 1)


def test_knn_distances_one_ulp_apart_across_the_kappa_th_place(monkeypatch):
    # row 0's 3rd and 4th nearest lie at 1 and at the next double above it;
    # the farther one comes first in the pool, so a tie-break by entry would
    # pick it and turn the vote to class 0
    far, far_labels = far_entries()
    next_one = np.nextafter(1.0, 2.0)
    feats = np.concatenate([[0.0, 0.25, 0.5, 1.0, next_one], far])[:, None]
    assert np.linalg.norm(feats[4] - feats[0]) == next_one
    member_idx = np.concatenate([[4, 1, 2, 3], 5 + np.arange(far.shape[0])])
    member_labels = np.concatenate([[0, 0, 1, 1], far_labels])
    assert_left_to_exact_distances(monkeypatch, feats, member_idx, member_labels, 3, 1)


def test_knn_even_split_is_decided_by_cumulative_distance(monkeypatch):
    # row 0's 4 nearest are certain but split 2-2: class 0's lie at 1 and 5,
    # class 1's at 2 and 3, so class 1 wins on the smaller sum
    far, far_labels = far_entries()
    feats = np.concatenate([[0.0, 1.0, 2.0, -3.0, 5.0], far])[:, None]
    member_idx = np.arange(1, feats.shape[0])
    member_labels = np.concatenate([[0, 1, 1, 0], far_labels])
    assert_left_to_exact_distances(monkeypatch, feats, member_idx, member_labels, 4, 1)


def test_knn_gap_below_the_error_bound_far_from_the_origin(monkeypatch):
    # 1e6 from the origin the bound B is about 0.04, and row 0's 3rd and 4th
    # squared distances, 4 and 4.0401, lie less than 4B apart
    dim, offset = 8, 1e6
    far, far_labels = far_entries()
    steps = np.concatenate([[0.0, 1.0, 1.5, 2.0, 2.01], far])
    feats = np.full((steps.shape[0], dim), offset)
    feats[:, 0] += steps
    member_idx = np.arange(1, feats.shape[0])
    member_labels = np.concatenate([[0, 1, 1, 0], far_labels])
    gamma = (dim + 3) * labeler._UNIT_ROUNDOFF / (1 - (dim + 3) * labeler._UNIT_ROUNDOFF)
    norms = np.linalg.norm(feats, axis=1)
    bound = gamma * (norms[0] + norms[member_idx].max()) ** 2
    assert 2.01 ** 2 - 2.0 ** 2 < 4 * bound
    assert_left_to_exact_distances(monkeypatch, feats, member_idx, member_labels, 3, 1)


def test_knn_gram_vote_labels_well_separated_clusters(monkeypatch):
    # two 16-d clusters and a pool labelled by cluster, at moons-wide size:
    # the Gram scores fix almost every row's 50 nearest and a clear majority
    rng = np.random.default_rng(15)
    cluster = np.repeat([0, 1], 1000)
    feats = rng.normal(size=(2000, 16)) + 6.0 * cluster[:, None]
    member_idx = np.concatenate([rng.permutation(1000)[:500], 1000 + rng.permutation(1000)[:500]])
    seen = spy_on_exact_rows(monkeypatch)
    labels = labeler.knn_assign(feats, member_idx, cluster[member_idx], 50, 2)
    assert np.array_equal(labels, cluster)
    assert len(seen) <= 0.1 * 2000


def moons_scale_case(kind):
    """A call the size of moons-wide's: 2 000 rows of 16 features, a
    1 000-entry pool of 2 classes and kappa 50."""
    rng = np.random.default_rng(2000)
    feats = rng.normal(size=(2000, 16))
    if kind == "rounded":
        feats = np.round(feats)
    elif kind == "tenths":
        feats = np.round(feats, 1)
    elif kind == "offset":
        feats = feats + 1e6
    member_idx, member_labels = t2pl_style_pool(rng, 2000, 1000, 2)
    return feats, member_idx, member_labels


# sha256 of the int64 labels that the per-row loop this path replaced gave
MOONS_SCALE_DIGESTS = {
    "gaussian": "ed1fe91f9b6ddb90e9c6f0c7b5f3eb09db23d45614733d65c01367fa2894813a",
    "rounded": "9135fb89f8f85162ccd1f91a533fcb405bd89e2a36152a7371f7793cbd816fe2",
    "tenths": "0c48b8fcc0267628ee2483dd46cd607bf75aed39c2e098c69cd2f28c4b667415",
    "offset": "ed1fe91f9b6ddb90e9c6f0c7b5f3eb09db23d45614733d65c01367fa2894813a",
}


@pytest.mark.parametrize("kind", MOONS_SCALE_DIGESTS)
def test_knn_labels_and_memory_at_moons_wide_scale(kind):
    args = (*moons_scale_case(kind), 50, 2)
    labels = labeler.knn_assign(*args)
    assert hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest() == \
        MOONS_SCALE_DIGESTS[kind]
    # the loop's working memory was 0.44 MB; a larger block would show here
    # before it showed in the benchmark's peak_rss_mb
    tracemalloc.start()
    try:
        labeler.knn_assign(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


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
    got = labeler.assign_labels(net, x, labeler.LabelerConfig(method="softmax"), stage=2)
    assert np.array_equal(got.labels, np.argmax(nets.predict_probs(net, x), axis=1))
    assert got.method == "softmax"
    assert got.stage == 2


def test_every_method_carries_the_bits_of_predict_probs():
    net = tiny_net()
    x = np.random.default_rng(9).normal(size=(30, 4))
    want = nets.predict_probs(net, x)
    for method in labeler.METHODS:
        cfg = labeler.LabelerConfig(r_top=2.0, r_top_prime=2.5, method=method)
        got = labeler.assign_labels(net, x, cfg, stage=1).probs
        assert got.tobytes() == want.tobytes(), method


def test_shot_style_matches_small_brute_force():
    # the second case's first assignment leaves a class without rows, which
    # keeps its soft centroid through the refinement
    for net_seed, x_seed, empty in ((7, 6, False), (3, 103, True)):
        net = tiny_net(seed=net_seed)
        x = np.random.default_rng(x_seed).normal(size=(15, 4))
        cfg = labeler.LabelerConfig(method="shot_style")
        got = labeler.assign_labels(net, x, cfg, stage=1)

        probs = nets.predict_probs(net, x)
        feats = nets.feature_values(net, x)
        classes = probs.shape[1]
        cents = np.stack([
            sum(probs[i, k] * feats[i] for i in range(15)) / probs[:, k].sum()
            for k in range(classes)])
        first = np.argmax(labeler.cosine_to_centroids(feats, cents), axis=1)
        assert (np.bincount(first, minlength=classes) == 0).any() == empty
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


if __name__ == "__main__":
    json.dump({"blas_core": blas_core(), "mismatches": class_means_mismatches()}, sys.stdout)
