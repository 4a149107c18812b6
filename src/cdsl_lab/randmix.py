"""Training-free stochastic augmentation with throwaway autoencoders.

Every batch draws a fresh ensemble of randomly initialized autoencoders,
passes the input through each, and squashes a random convex-ish mix of the
results through a sigmoid. Nothing here is trained and nothing needs
gradients; augmented rows are ordinary input data downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets

KERNEL_SIZES = (5, 9, 13, 17)
NORM_EPS = 1e-5
WEIGHT_SUM_FLOOR = 0.1
_OPEN_LO = 1e-12
_OPEN_HI = 1.0 - 1e-12


@dataclass
class RandMixConfig:
    n_aug: int = 4
    r_con: float = 0.8
    image_side: int | None = None  # set for flattened square bitmaps

    def __post_init__(self):
        if self.n_aug < 1:
            raise ValueError(f"randmix: n_aug must be at least 1, got {self.n_aug}")
        if not 0.0 <= self.r_con <= 1.0:
            raise ValueError(f"randmix: r_con must be in [0, 1], got {self.r_con}")


@dataclass
class RandAutoencoder:
    enc: np.ndarray  # dense [d, d] or conv kernel [k, k]
    dec: np.ndarray
    scale: np.ndarray  # [d], multiplicative noise (offset by +1)
    shift: np.ndarray  # [d], additive noise
    image_side: int | None


def effective_kernel(size: int, side: int) -> int:
    """Largest odd kernel size that is <= both the requested size and the side."""
    k = min(size, side)
    if k % 2 == 0:
        k -= 1
    return max(k, 1)


def instance_norm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + NORM_EPS)


def make_autoencoder(dim: int, rng: np.random.Generator,
                     image_side: int | None = None,
                     kernel_size: int = KERNEL_SIZES[0]) -> RandAutoencoder:
    """Draw one throwaway autoencoder. Consumes rng in a fixed order."""
    if image_side is not None:
        if image_side * image_side != dim:
            raise ValueError(f"randmix: image_side {image_side} does not square to dim {dim}")
        k = effective_kernel(kernel_size, image_side)
        enc = rng.normal(size=(k, k))
        dec = rng.normal(size=(k, k))
    else:
        enc = rng.normal(size=(dim, dim))
        dec = rng.normal(size=(dim, dim))
    noise = rng.normal(size=dim)
    w_scale = rng.normal(scale=0.1, size=(dim, dim))
    w_shift = rng.normal(scale=0.1, size=(dim, dim))
    return RandAutoencoder(enc=enc, dec=dec,
                           scale=noise @ w_scale + 1.0,
                           shift=noise @ w_shift,
                           image_side=image_side)


def _fft_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c at or above n."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _apply_map(weights: np.ndarray, x: np.ndarray, side: int | None) -> np.ndarray:
    if side is None:
        return x @ weights
    # "Same" 2-D convolution of every image with the kernel by real FFT. The
    # 5-smooth padded length, the unscaled inverse and one 1 / n^2 scale keep
    # the bits the presets have always produced; other lengths or numpy's
    # per-axis scaling move most outputs by an ulp or so.
    k = weights.shape[0]
    n = _fft_len(side + k - 1)
    spectrum = (np.fft.rfftn(x.reshape(-1, side, side), s=(n, n), axes=(1, 2))
                * np.fft.rfftn(weights, s=(n, n), axes=(0, 1)))
    full = np.fft.irfftn(spectrum, s=(n, n), axes=(1, 2), norm="forward") * (1.0 / (n * n))
    lo = (k - 1) // 2
    return full[:, lo:lo + side, lo:lo + side].reshape(x.shape[0], -1)


def autoencode(ae: RandAutoencoder, x: np.ndarray) -> np.ndarray:
    """Encode, normalize per sample, apply noise scale/shift, decode."""
    z = instance_norm(_apply_map(ae.enc, x, ae.image_side))
    h = ae.scale * z + ae.shift
    return _apply_map(ae.dec, h, ae.image_side)


def draw_mix_weights(n_aug: int, rng: np.random.Generator) -> np.ndarray:
    """n_aug + 1 normal weights; redrawn while the sum is too close to zero."""
    while True:
        w = rng.normal(size=n_aug + 1)
        if abs(w.sum()) >= WEIGHT_SUM_FLOOR:
            return w


def mix(x: np.ndarray, encoded: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Sigmoid of the weight-normalized blend of the input and its encodings."""
    if len(encoded) != len(weights) - 1:
        raise ValueError(f"randmix: {len(weights)} weights for {len(encoded)} encodings")
    blend = weights[0] * x
    for w, enc in zip(weights[1:], encoded):
        blend = blend + w * enc
    blend /= weights.sum()
    with np.errstate(over="ignore"):
        squashed = 1.0 / (1.0 + np.exp(-blend))
    # float64 saturates to exactly 0/1 around |t| ~ 37; keep the interval open
    return np.clip(squashed, _OPEN_LO, _OPEN_HI)


def gate(net, x: np.ndarray, r_con: float) -> np.ndarray:
    """Confidence gate: True where the top softmax score reaches r_con."""
    return nets.predict_probs(net, x).max(axis=1) >= r_con


def draw_ensemble(dim: int, cfg: RandMixConfig, rng: np.random.Generator):
    aes = [make_autoencoder(dim, rng, image_side=cfg.image_side,
                            kernel_size=KERNEL_SIZES[i % len(KERNEL_SIZES)])
           for i in range(cfg.n_aug)]
    weights = draw_mix_weights(cfg.n_aug, rng)
    return aes, weights


def augment_batch(net, x: np.ndarray, labels: np.ndarray, cfg: RandMixConfig,
                  stage_kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Augment a batch with one fresh ensemble; labels are inherited.

    Source stages augment every row; target stages only rows whose current
    prediction clears the confidence gate. May return zero rows.
    """
    if stage_kind not in ("source", "target"):
        raise ValueError(f"randmix: unknown stage kind {stage_kind!r}")
    aes, weights = draw_ensemble(x.shape[1], cfg, rng)
    if stage_kind == "target":
        keep = gate(net, x, cfg.r_con)
        x, labels = x[keep], labels[keep]
    if x.shape[0] == 0:
        return np.empty((0, aes[0].scale.shape[0])), np.empty(0, dtype=labels.dtype)
    encoded = [autoencode(ae, x) for ae in aes]
    return mix(x, encoded, weights), labels.copy()
