"""The model: dense trunk, optional bottleneck, class prototypes.

A `Network` is plain weights. The trunk is a stack of dense layers with a
ReLU between consecutive layers; the neck (the bottleneck) is a dense
reduction, per-row standardization, ReLU and a second dense layer. Logits
are bias-free scores against the prototypes, one weight row per class;
training moves prototypes and features jointly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

Dense = tuple[Tensor, Tensor]  # (weight [out, in], bias [out])


@dataclass
class Network:
    trunk: list[Dense]
    neck: list[Dense]  # empty, or the [pre, post] pair of the bottleneck
    prototypes: Tensor  # [classes, d]


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def build_network(input_dim: int, classes: int, rng: np.random.Generator, *,
                  hidden: tuple[int, ...],
                  bottleneck: tuple[int, int] | None) -> Network:
    """Fresh trainable network; weights Glorot-uniform, biases zero."""
    widths = [input_dim, *hidden, *(bottleneck or ())]
    layers = [(Tensor(glorot_uniform(rng, out, d), requires_grad=True),
               Tensor(np.zeros(out), requires_grad=True))
              for d, out in zip(widths, widths[1:])]
    protos = Tensor(glorot_uniform(rng, classes, widths[-1]), requires_grad=True)
    return Network(layers[:len(hidden)], layers[len(hidden):], protos)


def features(net: Network, x) -> Tensor:
    """Representation after trunk and bottleneck (the prototype space)."""
    out = dc.as_tensor(x)
    for i, (w, b) in enumerate(net.trunk):
        if i > 0:
            out = dc.relu(out)
        out = dc.linear(out, w, b)
    if net.neck:
        (w_pre, b_pre), (w_post, b_post) = net.neck
        out = dc.relu(dc.standardize_rows(dc.linear(out, w_pre, b_pre)))
        out = dc.linear(out, w_post, b_post)
    return out


def feature_values(net: Network, x: np.ndarray) -> np.ndarray:
    """`features(net, x).values`, untaped, in the row blocks of `dc.row_blocks`
    at the widest layer, written into one output: what a call takes beyond its
    output does not grow with the rows, and each row keeps its bits."""
    layers = net.trunk + net.neck
    widest = max([x.shape[1], *(w.shape[0] for w, _ in layers)])
    blocks = dc.row_blocks(x.shape[0], widest)
    if len(blocks) == 1:  # one block: no copy
        return features(net, x).values
    out = np.empty((x.shape[0], layers[-1][0].shape[0] if layers else x.shape[1]))
    for rows in blocks:
        out[rows] = features(net, x[rows]).values
    return out


def softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.maximum.reduce(z, axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


def probs_from_features(net: Network, feats: np.ndarray) -> np.ndarray:
    """Class probabilities of rows already mapped to the prototype space."""
    return softmax_rows(dc.linear(feats, net.prototypes).values)


def predict_probs(net: Network, x: np.ndarray) -> np.ndarray:
    return probs_from_features(net, feature_values(net, x))


def predict_labels(net: Network, x: np.ndarray) -> np.ndarray:
    return np.argmax(dc.linear(feature_values(net, x), net.prototypes).values, axis=1)


def named_parameters(net: Network) -> list[tuple[str, Tensor]]:
    prefixes = [f"ext.{i}" for i in range(len(net.trunk))]
    if net.neck:
        prefixes += ["neck.pre", "neck.post"]
    out = []
    for prefix, (w, b) in zip(prefixes, net.trunk + net.neck):
        out += [(f"{prefix}.weight", w), (f"{prefix}.bias", b)]
    return out + [("proto.weight", net.prototypes)]


def parameters(net: Network) -> list[Tensor]:
    return [t for _, t in named_parameters(net)]


def pack_parameters(net: Network) -> Tensor:
    """One trainable Tensor of every parameter's values, in `named_parameters`
    order, with a zero gradient of its own size. Each parameter's values
    become a view of it, so one update of the packed values moves every
    parameter."""
    params = parameters(net)
    packed = Tensor(np.concatenate([p.values for p in params], axis=None), requires_grad=True)
    packed.grad = np.zeros_like(packed.values)
    offset = 0
    for p in params:
        p.values = packed.values[offset:offset + p.values.size].reshape(p.shape)
        offset += p.values.size
    return packed


def param_hash(net: Network) -> str:
    digest = hashlib.sha256()
    for name, t in named_parameters(net):
        digest.update(name.encode())
        digest.update(str(t.shape).encode())
        digest.update(t.values.tobytes())
    return digest.hexdigest()


def snapshot(net: Network) -> Network:
    """Frozen deep copy: same values, requires_grad off everywhere."""

    def copy(layers: list[Dense]) -> list[Dense]:
        return [(Tensor(w.values.copy()), Tensor(b.values.copy())) for w, b in layers]

    return Network(copy(net.trunk), copy(net.neck), Tensor(net.prototypes.values.copy()))
