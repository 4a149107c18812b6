import numpy as np
import pytest

from cdsl_lab import protocol, synthdata
from cdsl_lab.synthdata import DomainSpec


def test_spec_validation():
    with pytest.raises(ValueError, match="generator"):
        DomainSpec("spirals", classes=2, samples=50)
    with pytest.raises(ValueError, match="at least 8 samples"):
        DomainSpec("gauss_mix", classes=2, samples=7)
    with pytest.raises(ValueError, match="two-class"):
        DomainSpec("two_moons", classes=3, samples=50)
    with pytest.raises(ValueError, match="bitmap8 supports"):
        DomainSpec("bitmap8", classes=5, samples=100)
    with pytest.raises(ValueError, match="sigma"):
        DomainSpec("gauss_mix", classes=2, samples=20, sigma=-0.1)


@pytest.mark.parametrize("kind,classes,dim", [
    ("gauss_mix", 4, 2), ("two_moons", 2, 2), ("bitmap8", 4, 64),
])
def test_shapes_balance_and_determinism(kind, classes, dim):
    spec = DomainSpec(kind, classes=classes, samples=101, sigma=0.1)
    x, y = synthdata.generate(spec, seed=2022)
    assert x.shape == (101, dim)
    assert y.shape == (101,)
    counts = np.bincount(y, minlength=classes)
    assert counts.max() - counts.min() <= 1
    x2, y2 = synthdata.generate(spec, seed=2022)
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)
    x3, _ = synthdata.generate(spec, seed=2023)
    assert not np.array_equal(x, x3)


def test_gauss_mix_class_means_obey_law_of_large_numbers():
    spec = DomainSpec("gauss_mix", classes=3, samples=600, sigma=0.2,
                      rotation_deg=30.0)
    x, y = synthdata.generate(spec, seed=7)
    rot = synthdata.rotation_matrix(30.0)
    angles = 2.0 * np.pi * np.arange(3) / 3
    centers = synthdata.GAUSS_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for k in range(3):
        expected = rot @ centers[k] + synthdata.GAUSS_CENTER
        empirical = x[y == k].mean(axis=0)
        bound = 3.0 * 0.2 / np.sqrt((y == k).sum())
        assert np.all(np.abs(empirical - expected) <= bound)


def test_full_turn_rotation_equals_no_rotation():
    for kind, classes in (("gauss_mix", 3), ("two_moons", 2), ("bitmap8", 2)):
        a = DomainSpec(kind, classes=classes, samples=40, rotation_deg=0.0, sigma=0.05)
        b = DomainSpec(kind, classes=classes, samples=40, rotation_deg=360.0, sigma=0.05)
        xa, _ = synthdata.generate(a, seed=3)
        xb, _ = synthdata.generate(b, seed=3)
        assert np.array_equal(xa, xb), kind


def test_rotation_moves_gauss_centers():
    base = DomainSpec("gauss_mix", classes=4, samples=400, sigma=0.05)
    turned = DomainSpec("gauss_mix", classes=4, samples=400, sigma=0.05,
                        rotation_deg=45.0)
    xa, ya = synthdata.generate(base, seed=5)
    xb, yb = synthdata.generate(turned, seed=5)
    for k in range(4):
        # a 45 degree turn displaces each center by 2 R sin(22.5) ~ 0.27
        assert np.linalg.norm(xa[ya == k].mean(axis=0) - xb[yb == k].mean(axis=0)) > 0.2


def test_bitmap_values_are_binary_and_flips_scale_with_sigma():
    clean = DomainSpec("bitmap8", classes=4, samples=80, sigma=0.0)
    noisy = DomainSpec("bitmap8", classes=4, samples=80, sigma=0.25)
    xc, yc = synthdata.generate(clean, seed=11)
    xn, _ = synthdata.generate(noisy, seed=11)
    assert set(np.unique(xc)) <= {0.0, 1.0}
    assert set(np.unique(xn)) <= {0.0, 1.0}
    assert np.array_equal(xc[0], xc[4])  # same class, no noise -> same glyph
    flip_rate = np.mean(xc != xn)
    assert 0.15 < flip_rate < 0.35


def test_split_source_is_disjoint_and_exhaustive():
    spec = DomainSpec("gauss_mix", classes=2, samples=50, sigma=0.1)
    x, y = synthdata.generate(spec, seed=1)
    xt, yt, xv, yv = synthdata.split_source(x, y, fraction=0.8, seed=9)
    assert xt.shape[0] == 40
    assert xv.shape[0] == 10
    joined = np.vstack([xt, xv])
    assert np.array_equal(np.sort(joined, axis=0), np.sort(x, axis=0))
    xt2, _, _, _ = synthdata.split_source(x, y, fraction=0.8, seed=9)
    assert np.array_equal(xt, xt2)
    with pytest.raises(ValueError, match="fraction"):
        synthdata.split_source(x, y, fraction=1.0)


def test_standard_sequences_layout():
    seqs = synthdata.standard_sequences()
    assert set(seqs) == {"rot5", "moons4", "bitmap5"}
    rot5 = seqs["rot5"]
    assert len(rot5.specs) == 5
    assert [s.rotation_deg for s in rot5.specs] == [0, 20, 40, 60, 80]
    assert rot5.specs[0].rotation_deg == 0  # source domain is unshifted
    assert all(s.kind == "gauss_mix" for s in rot5.specs)
    assert len(seqs["moons4"].specs) == 4
    assert len(seqs["bitmap5"].specs) == 5
    assert seqs["bitmap5"].input_dim == 64


def test_image_side_sets_input_dim():
    seqs = synthdata.standard_sequences()
    bitmap, points = seqs["bitmap5"].specs[0], seqs["rot5"].specs[0]
    assert (bitmap.image_side, bitmap.input_dim) == (8, 64)
    assert (points.image_side, points.input_dim) == (None, 2)


def test_sequence_validation():
    g = DomainSpec("gauss_mix", classes=2, samples=20)
    m = DomainSpec("two_moons", classes=2, samples=20)
    with pytest.raises(ValueError, match="mixed"):
        synthdata.DomainSequence("bad", [g, m])
    with pytest.raises(ValueError, match="at least one"):
        synthdata.DomainSequence("empty", [])
    g3 = DomainSpec("gauss_mix", classes=3, samples=20)
    with pytest.raises(ValueError, match="varies"):
        synthdata.DomainSequence("bad", [g, g3])


def test_rotated_glyphs_match_ndimage_on_a_quarter_degree_grid():
    ndimage = pytest.importorskip("scipy.ndimage")
    for template in synthdata.BITMAP_TEMPLATES:
        for deg in np.arange(0.0, 360.0, 0.25):  # includes 90, 180 and 270
            want = ndimage.rotate(template, deg, reshape=False, order=1) > 0.5
            assert np.array_equal(synthdata.rotate_image(template, deg) > 0.5, want), deg


def _ndimage_bitmap8(spec, rng):
    """_bitmap8 with ndimage.rotate for the turn, as the reference."""
    from scipy import ndimage
    y = np.arange(spec.samples) % spec.classes
    glyphs = []
    for template in synthdata.BITMAP_TEMPLATES[:spec.classes]:
        img = ndimage.rotate(template, spec.rotation_deg % 360.0, reshape=False, order=1)
        glyphs.append((img > 0.5).astype(np.float64).reshape(-1))
    base = np.stack(glyphs)[y]
    flips = rng.random(size=base.shape) < spec.sigma
    return np.abs(base - flips.astype(np.float64)), y


@pytest.mark.parametrize("seed", [2022, 2023, 2024])
def test_bitmap5_domains_match_an_ndimage_reference(seed):
    pytest.importorskip("scipy.ndimage")
    for i, spec in enumerate(synthdata.standard_sequences()["bitmap5"].specs):
        key = (seed, protocol.STREAM_DATA, 10 + i)  # the stream run_cdsl draws it from
        x, y = synthdata.generate(spec, protocol.rng_for(*key))
        want_x, want_y = _ndimage_bitmap8(spec, protocol.rng_for(*key))
        assert np.array_equal(x, want_x), i
        assert np.array_equal(y, want_y), i
