import json
import sys

import numpy as np
import pytest

from conftest import AWKWARD_WIDTHS, awkward_rows, blas_core, runs_openblas_haswell_kernels
from test_cli import fresh_python

from cdsl_lab import nets, randmix

# the sizes the ensemble draws, and wider ones than an 8x8 bitmap, whose
# outer taps never land inside the image
CHECKED_KERNEL_SIZES = (5, 7, 9, 13, 17)


def tiny_net(seed=0, input_dim=4, classes=3):
    rng = np.random.default_rng(seed)
    return nets.build_network(input_dim, classes, rng, hidden=(8,), bottleneck=(6, 4))


def member(dim, rng, index=0, image_side=None) -> randmix.RandAutoencoder:
    """Member `index` of a default-size ensemble drawn from rng."""
    stack, _ = randmix.draw_ensemble(dim, randmix.RandMixConfig(image_side=image_side), rng)
    return list(stack)[index]


def test_autoencoder_preserves_outer_shape_dense_and_conv():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 6))
    ae = member(6, rng)
    assert randmix.autoencode(ae, x).shape == (5, 6)

    imgs = rng.normal(size=(3, 64))
    conv = member(64, rng, index=1, image_side=8)  # a 7x7 kernel
    assert randmix.autoencode(conv, imgs).shape == (3, 64)


def test_autoencode_matches_hand_rolled_formula():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 5))
    ae = member(5, rng)
    got = randmix.autoencode(ae, x)

    e = x @ ae.enc
    mu = e.mean(axis=1, keepdims=True)
    sd = np.sqrt(e.var(axis=1, keepdims=True) + randmix.NORM_EPS)
    manual = (ae.scale * ((e - mu) / sd) + ae.shift) @ ae.dec
    assert np.allclose(got, manual, atol=1e-12)


def test_constant_row_normalizes_to_zero_before_decoding():
    z = randmix.instance_norm(np.full((2, 7), 4.2))
    assert np.array_equal(z, np.zeros((2, 7)))


@pytest.mark.parametrize("width", AWKWARD_WIDTHS)
def test_instance_norm_keeps_the_bits_of_ndarray_mean_and_var(width):
    """On [n, d] rows, and on a [members, n, d] stack of them along its last axis."""
    rows = awkward_rows(width)
    for x in [*rows, np.stack(rows)]:
        mu = x.mean(axis=-1, keepdims=True)
        want = (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + randmix.NORM_EPS)
        assert randmix.instance_norm(x).tobytes() == want.tobytes()
    stacked = randmix.instance_norm(np.stack(rows))
    assert stacked.tobytes() == np.stack([randmix.instance_norm(x) for x in rows]).tobytes()


def test_mix_output_strictly_inside_unit_interval():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 6)) * 50.0  # provoke sigmoid saturation
    aes, w = randmix.draw_ensemble(6, randmix.RandMixConfig(), rng)
    out = randmix.mix(x, [randmix.autoencode(a, x) for a in aes], w)
    assert np.all(out > 0.0)
    assert np.all(out < 1.0)


def test_mix_with_only_input_weight_collapses_to_sigmoid():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 4))
    aes, _ = randmix.draw_ensemble(4, randmix.RandMixConfig(), rng)
    w = np.array([0.7, 0.0, 0.0, 0.0, 0.0])
    out = randmix.mix(x, [randmix.autoencode(a, x) for a in aes], w)
    assert np.allclose(out, 1.0 / (1.0 + np.exp(-x)), atol=1e-12)


def test_mix_weight_sum_never_near_zero():
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = randmix.draw_mix_weights(4, rng)
        assert abs(w.sum()) >= randmix.WEIGHT_SUM_FLOOR


BAD_INPUT_CASES = [
    ("image_side 7 does not square to dim 64",
     lambda rng: randmix.draw_ensemble(64, randmix.RandMixConfig(image_side=7), rng)),
    ("3 weights for 4 encodings",
     lambda rng: randmix.mix(np.ones((2, 4)), [np.ones((2, 4))] * 4, np.ones(3))),
    ("unknown stage kind 'replay'",
     lambda rng: randmix.augment_batch(tiny_net(), np.ones((3, 4)), np.zeros(3, dtype=int),
                                       randmix.RandMixConfig(), "replay", rng)),
]


@pytest.mark.parametrize("message,call", BAD_INPUT_CASES,
                         ids=["image_side", "mix_weights", "stage_kind"])
def test_bad_inputs_raise_naming_the_problem(message, call):
    with pytest.raises(ValueError, match=f"randmix: {message}"):
        call(np.random.default_rng(0))


def test_gate_is_monotone_in_threshold():
    net = tiny_net()
    x = np.random.default_rng(4).normal(size=(40, 4))
    counts = [randmix.gate(net, x, r).sum() for r in (0.0, 0.4, 0.8, 1.01)]
    assert counts[0] == 40
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0


def test_source_stage_augments_every_row():
    net = tiny_net()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 4))
    labels = np.arange(9) % 3
    aug_x, aug_y = randmix.augment_batch(net, x, labels, randmix.RandMixConfig(),
                                         "source", rng)
    assert aug_x.shape == (9, 4)
    assert np.array_equal(aug_y, labels)


def test_target_stage_keeps_only_gate_passers():
    net = tiny_net()
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 4))
    labels = np.arange(30) % 3
    probs = nets.predict_probs(net, x)
    thresh = np.quantile(probs.max(axis=1), 0.5)
    cfg = randmix.RandMixConfig(r_con=float(thresh))
    expected = probs.max(axis=1) >= cfg.r_con
    aug_x, aug_y = randmix.augment_batch(net, x, labels, cfg, "target",
                                         np.random.default_rng(7))
    assert aug_x.shape[0] == expected.sum()
    assert np.array_equal(aug_y, labels[expected])


def test_impossible_gate_yields_zero_augmentations():
    net = tiny_net()
    rng = np.random.default_rng(8)
    x = rng.normal(size=(12, 4))
    cfg = randmix.RandMixConfig(r_con=1.0)  # un-clearable for a smooth softmax
    aug_x, aug_y = randmix.augment_batch(net, x, np.zeros(12, dtype=int), cfg,
                                         "target", rng)
    assert aug_x.shape[0] == 0
    assert aug_y.shape[0] == 0


def test_successive_batches_redraw_parameters():
    rng = np.random.default_rng(9)
    net = tiny_net()
    x = np.random.default_rng(10).normal(size=(5, 4))
    labels = np.zeros(5, dtype=int)
    cfg = randmix.RandMixConfig()
    first, _ = randmix.augment_batch(net, x, labels, cfg, "source", rng)
    second, _ = randmix.augment_batch(net, x, labels, cfg, "source", rng)
    assert not np.allclose(first, second)


def test_augmentation_is_seed_deterministic():
    net = tiny_net()
    x = np.random.default_rng(11).normal(size=(5, 4))
    labels = np.zeros(5, dtype=int)
    cfg = randmix.RandMixConfig()
    a, _ = randmix.augment_batch(net, x, labels, cfg, "source", np.random.default_rng(21))
    b, _ = randmix.augment_batch(net, x, labels, cfg, "source", np.random.default_rng(21))
    assert np.array_equal(a, b)


def _same_conv_by_taps(imgs, w):
    """Direct "same" 2-D convolution: one shifted, weighted copy per kernel tap."""
    side, k = imgs.shape[1], w.shape[0]
    h = k // 2
    padded = np.pad(imgs, ((0, 0), (h, h), (h, h)))
    out = np.zeros_like(imgs)
    for a in range(k):
        for b in range(k):
            out += w[a, b] * padded[:, 2 * h - a:2 * h - a + side, 2 * h - b:2 * h - b + side]
    return out


@pytest.mark.parametrize("size", CHECKED_KERNEL_SIZES)
def test_bitmap_map_is_a_same_convolution(size):
    rng = np.random.default_rng(size)
    w = rng.normal(size=(size, size))
    for rows in (1, 7, 64, 160):
        x = rng.normal(size=(rows, 64))
        want = _same_conv_by_taps(x.reshape(rows, 8, 8), w).reshape(rows, 64)
        assert np.allclose(x @ randmix.conv_matrix(w, 8), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("side", (5, 8))
@pytest.mark.parametrize("k", (1, 3, 5, 7))
def test_conv_matrix_matches_entry_by_entry_construction(k, side):
    """Entry (in, out) is the kernel tap out - in + k // 2 on each axis, else 0;
    a second call reuses the cached index and still builds its own kernel's matrix."""
    rng = np.random.default_rng(10 * k + side)
    for w in (rng.normal(size=(k, k)), rng.normal(size=(k, k))):
        want = np.zeros((side * side, side * side))
        for i in range(side * side):
            for o in range(side * side):
                a = o // side - i // side + k // 2
                b = o % side - i % side + k // 2
                if 0 <= a < k and 0 <= b < k:
                    want[i, o] = w[a, b]
        assert np.array_equal(randmix.conv_matrix(w, side), want)


def noise_statistics(image_side: int | None, count: int = 2000) -> tuple[float, float, float]:
    """Per-entry std of scale - 1 and of shift over `count` 16-d autoencoders,
    drawn as ensembles of the default size, and the correlation of
    |scale - 1|^2 with |shift|^2 across them."""
    rng = np.random.default_rng(7)
    cfg = randmix.RandMixConfig(image_side=image_side)
    aes = [ae for _ in range(count // cfg.n_aug)
           for ae in randmix.draw_ensemble(16, cfg, rng)[0]]
    scale = np.array([ae.scale for ae in aes]) - 1.0
    shift = np.array([ae.shift for ae in aes])
    corr = np.corrcoef((scale ** 2).sum(axis=1), (shift ** 2).sum(axis=1))[0, 1]
    return scale.std(), shift.std(), corr


def test_bitmap_and_dense_noise_draws_share_one_law():
    """Bitmaps draw scale and shift from d normals, dense inputs from two [d, d]
    matrices. Both spreads follow |noise|, so |scale - 1| and |shift| correlate
    across autoencoders; a spread that ignored the noise would not."""
    bitmap, dense = noise_statistics(image_side=4), noise_statistics(image_side=None)
    for b, d in zip(bitmap[:2], dense[:2]):
        assert b == pytest.approx(d, rel=0.05)
        assert d == pytest.approx(0.4, rel=0.05)  # 0.1 * sqrt(d)
    assert bitmap[2] == pytest.approx(dense[2], abs=0.1)


# (dim, image_side) of the ensembles the replayed draw must match
STACK_CASES = {"dense d=2": (2, None), "dense d=6": (6, None), "bitmap 8x8": (64, 8)}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def replayed_ensemble(dim: int, image_side: int | None, n_aug: int,
                      rng: np.random.Generator) -> tuple[list, np.ndarray]:
    """An ensemble's members and mix weights rebuilt from plain rng.normal calls
    in the documented order. Per member, dense: enc, dec, noise, w_scale,
    w_shift; bitmap: two kernels through conv_matrix, then noise, z_scale,
    z_shift. Then the mix weights, redrawn while their sum is near zero."""
    members = []
    for i in range(n_aug):
        if image_side is None:
            enc = rng.normal(size=(dim, dim))
            dec = rng.normal(size=(dim, dim))
            noise = rng.normal(size=dim)
            w_scale = rng.normal(scale=0.1, size=(dim, dim))
            w_shift = rng.normal(scale=0.1, size=(dim, dim))
            scale, shift = noise @ w_scale + 1.0, noise @ w_shift
        else:
            k = randmix.KERNEL_SIZES[i % len(randmix.KERNEL_SIZES)]
            enc = randmix.conv_matrix(rng.normal(size=(k, k)), image_side)
            dec = randmix.conv_matrix(rng.normal(size=(k, k)), image_side)
            noise = rng.normal(size=dim)
            r = 0.1 * np.sqrt(noise @ noise)
            z_scale = rng.normal(size=dim)
            z_shift = rng.normal(size=dim)
            scale, shift = 1.0 + r * z_scale, r * z_shift
        members.append(randmix.RandAutoencoder(enc, dec, scale, shift))
    weights = rng.normal(size=n_aug + 1)
    while abs(weights.sum()) < randmix.WEIGHT_SUM_FLOOR:
        weights = rng.normal(size=n_aug + 1)
    return members, weights


def stack_mismatches() -> list[str]:
    """Where a drawn ensemble differs in any bit from its replay from the same
    Generator state: the members' fields, the mix weights, the Generator state
    after the draw, each member's encoding and the mix, over batches of 0, 1,
    7 and 64 rows."""
    bad = []
    for case, (dim, side) in STACK_CASES.items():
        for n_aug in (4, 6):  # 6 wraps around KERNEL_SIZES
            for seed in range(3):
                where = f"{case} n_aug={n_aug} seed {seed}"
                cfg = randmix.RandMixConfig(n_aug=n_aug, image_side=side)
                rng, one = np.random.default_rng([dim, seed]), np.random.default_rng([dim, seed])
                stack, weights = randmix.draw_ensemble(dim, cfg, rng)
                members, want_weights = replayed_ensemble(dim, side, n_aug, one)
                checks = {"weights": same_bits(weights, want_weights),
                          "generator state": rng.bit_generator.state == one.bit_generator.state,
                          "member count": len(list(stack)) == n_aug}
                for i, (got, want) in enumerate(zip(stack, members)):
                    for field in ("enc", "dec", "scale", "shift"):
                        checks[f"member {i} {field}"] = same_bits(getattr(got, field),
                                                                  getattr(want, field))
                for rows in (0, 1, 7, 64):
                    x = np.random.default_rng([dim, seed, rows]).normal(size=(rows, dim))
                    encoded = randmix.autoencode(stack, x)
                    listed = [randmix.autoencode(ae, x) for ae in members]
                    for i, want in enumerate(listed):
                        checks[f"{rows} rows autoencode {i}"] = same_bits(encoded[i], want)
                    checks[f"{rows} rows mix"] = same_bits(randmix.mix(x, encoded, weights),
                                                           randmix.mix(x, listed, weights))
                bad += [f"{where}: {name}" for name, ok in checks.items() if not ok]
    return bad


def test_stacked_ensemble_equals_one_member_at_a_time_bit_for_bit():
    assert stack_mismatches() == []


@pytest.mark.skipif(not runs_openblas_haswell_kernels(),
                    reason="needs numpy's bundled OpenBLAS on an x86-64 CPU with AVX2")
def test_stacked_ensemble_keeps_its_bits_on_the_haswell_kernels():
    """The replay check in a child interpreter whose OpenBLAS runs its Haswell
    kernels, which round a BLAS product differently from other cores."""
    proc = fresh_python(__file__, OPENBLAS_CORETYPE="Haswell")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"blas_core": "Haswell", "mismatches": []}


if __name__ == "__main__":
    json.dump({"blas_core": blas_core(), "mismatches": stack_mismatches()}, sys.stdout)
