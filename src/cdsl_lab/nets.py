"""Model pieces: dense feature extractor, bottleneck, prototype classifier.

The classifier is a bias-free linear layer whose weight rows act as class
prototypes; training moves prototypes and features jointly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


@dataclass
class DenseLayer:
    weight: Tensor  # [out, in]
    bias: Tensor | None = None  # [out]

    def __call__(self, x: Tensor) -> Tensor:
        return dc.linear(x, self.weight, self.bias)


@dataclass
class FeatureExtractor:
    """Stack of dense layers with ReLU between consecutive layers."""

    layers: list[DenseLayer]

    def __call__(self, x: Tensor) -> Tensor:
        out = x
        for i, layer in enumerate(self.layers):
            if i > 0:
                out = dc.relu(out)
            out = layer(out)
        return out


@dataclass
class Bottleneck:
    """Dense reduction with per-row standardization and ReLU in between."""

    pre: DenseLayer
    post: DenseLayer

    def __call__(self, x: Tensor) -> Tensor:
        return self.post(dc.relu(dc.standardize_rows(self.pre(x))))


@dataclass
class Network:
    extractor: FeatureExtractor
    bottleneck: Bottleneck | None
    classifier: DenseLayer  # bias-free; weight rows are the class prototypes


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def build_network(input_dim: int, classes: int, rng: np.random.Generator,
                  hidden: tuple[int, ...] = (64, 64),
                  bottleneck: tuple[int, int] | None = (32, 16)) -> Network:
    """Fresh trainable network; weights Glorot-uniform, biases zero."""
    layers = []
    d = input_dim
    for width in hidden:
        layers.append(DenseLayer(
            Tensor(glorot_uniform(rng, width, d), requires_grad=True),
            Tensor(np.zeros(width), requires_grad=True)))
        d = width
    neck = None
    if bottleneck is not None:
        mid, out = bottleneck
        neck = Bottleneck(
            DenseLayer(Tensor(glorot_uniform(rng, mid, d), requires_grad=True),
                       Tensor(np.zeros(mid), requires_grad=True)),
            DenseLayer(Tensor(glorot_uniform(rng, out, mid), requires_grad=True),
                       Tensor(np.zeros(out), requires_grad=True)))
        d = out
    clf = DenseLayer(Tensor(glorot_uniform(rng, classes, d), requires_grad=True))
    return Network(FeatureExtractor(layers), neck, clf)


def features(net: Network, x) -> Tensor:
    """Representation after extractor and bottleneck (the prototype space)."""
    out = net.extractor(dc.as_tensor(x))
    if net.bottleneck is not None:
        out = net.bottleneck(out)
    return out


def logits(net: Network, x) -> Tensor:
    return net.classifier(features(net, x))


def feature_values(net: Network, x: np.ndarray) -> np.ndarray:
    return features(net, x).values


def predict_probs(net: Network, x: np.ndarray) -> np.ndarray:
    return dc.softmax_rows(logits(net, x)).values


def predict_labels(net: Network, x: np.ndarray) -> np.ndarray:
    return np.argmax(logits(net, x).values, axis=1)


def named_parameters(net: Network) -> list[tuple[str, Tensor]]:
    layers = [(f"ext.{i}", layer) for i, layer in enumerate(net.extractor.layers)]
    if net.bottleneck is not None:
        layers += [("neck.pre", net.bottleneck.pre), ("neck.post", net.bottleneck.post)]
    layers.append(("proto", net.classifier))
    out = []
    for prefix, layer in layers:
        out.append((f"{prefix}.weight", layer.weight))
        if layer.bias is not None:
            out.append((f"{prefix}.bias", layer.bias))
    return out


def parameters(net: Network) -> list[Tensor]:
    return [t for _, t in named_parameters(net)]


def param_hash(net: Network) -> str:
    digest = hashlib.sha256()
    for name, t in named_parameters(net):
        digest.update(name.encode())
        digest.update(str(t.shape).encode())
        digest.update(t.values.tobytes())
    return digest.hexdigest()


def snapshot(net: Network) -> Network:
    """Frozen deep copy: same values, requires_grad off everywhere."""

    def copy_layer(layer: DenseLayer) -> DenseLayer:
        bias = Tensor(layer.bias.values.copy()) if layer.bias is not None else None
        return DenseLayer(Tensor(layer.weight.values.copy()), bias)

    neck = None
    if net.bottleneck is not None:
        neck = Bottleneck(copy_layer(net.bottleneck.pre), copy_layer(net.bottleneck.post))
    return Network(
        FeatureExtractor([copy_layer(l) for l in net.extractor.layers]),
        neck,
        copy_layer(net.classifier))
