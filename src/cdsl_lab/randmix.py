"""Training-free stochastic augmentation with throwaway autoencoders.

Every batch draws a fresh ensemble of randomly initialized autoencoders,
passes the input through each, and squashes a random convex-ish mix of the
results through a sigmoid. Nothing here is trained and nothing needs
gradients; augmented rows are ordinary input data downstream.

Bitmap autoencoders draw small random kernels, as in RandConv, and store each
as the matrix of its "same" convolution, so every autoencoder is two [d, d]
matmuls.

An ensemble is one `RandAutoencoder` whose fields carry a leading member axis.
`draw_ensemble` takes every member's normals in one draw, member after member
(enc, dec, noise, then w_scale and w_shift for dense inputs or z_scale and
z_shift for bitmaps), and then the mix weights. `autoencode` runs the whole
stack in one stacked product (one gemm per member, with the bits of its own)
and `mix` blends the [members, n, d] result. Iterating the stack yields its
members.

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
    """One autoencoder, or an ensemble stacked along a leading member axis;
    iterating a stack yields its members."""

    enc: np.ndarray  # [d, d] or [members, d, d], dense or the matrix of a "same" convolution
    dec: np.ndarray  # likewise
    scale: np.ndarray  # [d] or [members, d], multiplicative noise (offset by +1)
    shift: np.ndarray  # likewise, additive noise

    def __iter__(self):
        return map(RandAutoencoder, self.enc, self.dec, self.scale, self.shift)


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


@functools.cache
def _bitmap_layout(kernel_sizes: tuple[int, ...], side: int):
    """Where a bitmap stack's fields sit in its one draw followed by a zero:
    the [members, 2, d, d] gather index of the enc and dec matrices, the
    [3, members, d] index of noise, z_scale and z_shift, and the draw's length."""
    dim = side * side
    sizes = np.array(kernel_sizes)
    starts = np.cumsum([0, *(2 * sizes * sizes + 3 * dim)])
    total = int(starts[-1])
    maps = []
    for start, k in zip(starts, kernel_sizes):
        tap = _conv_index(k, side).reshape(dim, dim)
        maps.append([np.where(tap < k * k, start + j * k * k + tap, total) for j in (0, 1)])
    vectors = starts[:-1, None] + 2 * sizes[:, None] ** 2 + np.arange(3 * dim)
    return np.array(maps), vectors.reshape(-1, 3, dim).transpose(1, 0, 2).copy(), total


def autoencode(ae: RandAutoencoder, x: np.ndarray) -> np.ndarray:
    """Encode, normalize per sample, apply noise scale/shift, decode: [n, d]
    for one autoencoder, [members, n, d] for a stack, each member's products
    one gemm with the bits of its own."""
    h = ae.scale[..., None, :] * instance_norm(x @ ae.enc) + ae.shift[..., None, :]
    return h @ ae.dec


def draw_mix_weights(n_aug: int, rng: np.random.Generator) -> np.ndarray:
    """n_aug + 1 normal weights; redrawn while the sum is too close to zero."""
    while True:
        w = rng.normal(size=n_aug + 1)
        if abs(w.sum()) >= WEIGHT_SUM_FLOOR:
            return w


def mix(x: np.ndarray, encoded: np.ndarray | list[np.ndarray],
        weights: np.ndarray) -> np.ndarray:
    """Sigmoid of the weight-normalized blend of the input and its encodings,
    a [members, n, d] stack or a list of [n, d] arrays, added left to right."""
    if len(encoded) != len(weights) - 1:
        raise ValueError(f"randmix: {len(weights)} weights for {len(encoded)} encodings")
    blend = weights[0] * x
    for term in weights[1:, None, None] * encoded:
        blend += term
    blend /= weights.sum()
    with np.errstate(over="ignore"):
        squashed = 1.0 / (1.0 + np.exp(-blend))
    # float64 saturates to exactly 0/1 around |t| ~ 37; keep the interval open
    return np.clip(squashed, _OPEN_LO, _OPEN_HI)


def gate(net, x: np.ndarray, r_con: float) -> np.ndarray:
    """Confidence gate: True where the top softmax score reaches r_con."""
    return nets.predict_probs(net, x).max(axis=1) >= r_con


def draw_ensemble(dim: int, cfg: RandMixConfig,
                  rng: np.random.Generator) -> tuple[RandAutoencoder, np.ndarray]:
    """cfg.n_aug autoencoders as one stack, member i of kernel size
    KERNEL_SIZES[i % len(KERNEL_SIZES)] on bitmaps, then the mix weights, all
    from rng in the order of the module docstring."""
    members, side = cfg.n_aug, cfg.image_side
    if side is None:
        sq = dim * dim
        z = rng.normal(size=(members, 4 * sq + dim))
        noise = z[:, None, None, 2 * sq:2 * sq + dim]
        w = 0.1 * z[:, 2 * sq + dim:].reshape(members, 2, dim, dim)  # w_scale, w_shift
        mod = (noise @ w)[:, :, 0]  # [members, 2, d]: noise @ w_scale, noise @ w_shift
        ensemble = RandAutoencoder(enc=z[:, :sq].reshape(members, dim, dim),
                                   dec=z[:, sq:2 * sq].reshape(members, dim, dim),
                                   scale=mod[:, 0] + 1.0, shift=mod[:, 1])
    else:
        if side * side != dim:
            raise ValueError(f"randmix: image_side {side} does not square to dim {dim}")
        sizes = tuple(KERNEL_SIZES[i % len(KERNEL_SIZES)] for i in range(members))
        maps, vectors, total = _bitmap_layout(sizes, side)
        z = np.append(rng.normal(size=total), 0.0)
        maps = z[maps]
        noise, z_scale, z_shift = z[vectors]
        # the dense branch's law from d normals per vector (module docstring);
        # vecdot keeps the bits of np.linalg.norm of each row
        r = 0.1 * np.sqrt(np.vecdot(noise, noise))[:, None]
        ensemble = RandAutoencoder(enc=maps[:, 0], dec=maps[:, 1],
                                   scale=1.0 + r * z_scale, shift=r * z_shift)
    return ensemble, draw_mix_weights(members, rng)


def augment_batch(net, x: np.ndarray, labels: np.ndarray, cfg: RandMixConfig,
                  stage_kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Augment a batch with one fresh ensemble; labels are inherited.

    Source stages augment every row; target stages only rows whose current
    prediction clears the confidence gate. May return zero rows.
    """
    if stage_kind not in ("source", "target"):
        raise ValueError(f"randmix: unknown stage kind {stage_kind!r}")
    ensemble, weights = draw_ensemble(x.shape[1], cfg, rng)
    if stage_kind == "target":
        keep = gate(net, x, cfg.r_con)
        x, labels = x[keep], labels[keep]
    return mix(x, autoencode(ensemble, x), weights), labels.copy()
