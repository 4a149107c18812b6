"""Training-free stochastic augmentation with throwaway autoencoders.

Every batch draws a fresh ensemble of randomly initialized autoencoders,
passes the input through each, and squashes a random convex-ish mix of the
results through a sigmoid. Nothing here is trained and nothing needs
gradients; augmented rows are ordinary input data downstream.

Bitmap autoencoders draw small random kernels, as in RandConv, and store each
as the matrix of its "same" convolution, so every autoencoder is two [d, d]
matmuls.

The noise scale and shift modulate the normalized code as in AdaIN. Dense
autoencoders form them as `noise @ w_scale + 1` and `noise @ w_shift` with two
[d, d] matrices of N(0, 0.1^2) entries. Given `noise`, each column gives
`noise @ w ~ N(0, (0.1 |noise|)^2)`, independently, so bitmap autoencoders
draw the same joint law from d standard normals per vector: `r = 0.1 |noise|`,
`scale = 1 + r z_scale`, `shift = r z_shift` (192 normals in place of 8 256 at
d = 64). The dense branch keeps its matrices: at d <= 6 the pair costs at most
72 normals, and a new draw order there would move every dense run's stream.

Dense inputs with d = 2 collapse: `instance_norm` maps an encoded row (a, b)
to c (1, -1), c = t / sqrt(t^2 + NORM_EPS) with t = (a - b) / 2. The sign of c
gives the side of one random line through the origin on which the input
lies, and |c| is near 1 away from that line, so a dense 2-d autoencoder
passes on little more than that side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import nets

KERNEL_SIZES = (5, 7, 7, 7)  # per ensemble member; odd, and no wider than an 8x8 bitmap
NORM_EPS = 1e-5
WEIGHT_SUM_FLOOR = 0.1
_OPEN_LO = 1e-12
_OPEN_HI = 1.0 - 1e-12


@dataclass
class RandMixConfig:
    n_aug: int = 4
    r_con: float = 0.8
    image_side: int | None = None  # set for flattened square bitmaps


@dataclass
class RandAutoencoder:
    enc: np.ndarray  # [d, d], dense or the matrix of a "same" convolution
    dec: np.ndarray  # [d, d], likewise
    scale: np.ndarray  # [d], multiplicative noise (offset by +1)
    shift: np.ndarray  # [d], additive noise


def instance_norm(x: np.ndarray) -> np.ndarray:
    centred, var = dc.row_moments(x)
    return centred / np.sqrt(var + NORM_EPS)


@functools.cache
def _conv_index(k: int, side: int) -> np.ndarray:
    """conv_matrix's gather index into the flat kernel followed by one zero (at k * k)."""
    tap = np.arange(side) - np.arange(side)[:, None] + k // 2  # [in, out] on one axis
    tap = np.where((tap >= 0) & (tap < k), tap, k * k)  # outside: row * k + col >= k * k
    return np.minimum(tap[:, None, :, None] * k + tap[None, :, None, :], k * k)


def conv_matrix(kernel: np.ndarray, side: int) -> np.ndarray:
    """[side^2, side^2] M with conv_same(img).ravel() == img.ravel() @ M: entry
    (in, out) holds tap out - in + k // 2 on each axis, 0 outside the kernel."""
    return np.append(kernel, 0.0)[_conv_index(kernel.shape[0], side)].reshape(side * side, -1)


def make_autoencoder(dim: int, rng: np.random.Generator,
                     image_side: int | None = None,
                     kernel_size: int = KERNEL_SIZES[0]) -> RandAutoencoder:
    """Draw one throwaway autoencoder. Consumes rng in a fixed order."""
    if image_side is None:
        enc = rng.normal(size=(dim, dim))
        dec = rng.normal(size=(dim, dim))
        noise = rng.normal(size=dim)
        w_scale = rng.normal(scale=0.1, size=(dim, dim))
        w_shift = rng.normal(scale=0.1, size=(dim, dim))
        return RandAutoencoder(enc=enc, dec=dec, scale=noise @ w_scale + 1.0,
                               shift=noise @ w_shift)
    if image_side * image_side != dim:
        raise ValueError(f"randmix: image_side {image_side} does not square to dim {dim}")
    enc = conv_matrix(rng.normal(size=(kernel_size, kernel_size)), image_side)
    dec = conv_matrix(rng.normal(size=(kernel_size, kernel_size)), image_side)
    noise = rng.normal(size=dim)
    # the dense branch's law from d normals per vector (module docstring)
    r = 0.1 * np.linalg.norm(noise)
    z_scale = rng.normal(size=dim)
    z_shift = rng.normal(size=dim)
    return RandAutoencoder(enc=enc, dec=dec, scale=1.0 + r * z_scale, shift=r * z_shift)


def autoencode(ae: RandAutoencoder, x: np.ndarray) -> np.ndarray:
    """Encode, normalize per sample, apply noise scale/shift, decode."""
    h = ae.scale * instance_norm(x @ ae.enc) + ae.shift
    return h @ ae.dec


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
    encoded = [autoencode(ae, x) for ae in aes]
    return mix(x, encoded, weights), labels.copy()
