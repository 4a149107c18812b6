"""Synthetic domains with a controllable shift knob.

Three generator families: Gaussian blobs evenly placed on a circle,
interleaved half-moons, and 8x8 binary glyphs. A domain is a generator plus
shift parameters (rotation, noise); a sequence is an ordered list of domains
whose first entry is the labeled source.

Preset constants were calibrated once so a source-only model lands between
chance and 70% accuracy on each preset's last domain, then frozen. For
blobs on a circle that window constrains the class count: rotating by R
degrees keeps a blob nearest its own source position only while R is less
than half the angular spacing, so the largest preset rotation dictates how
many classes the circle can carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GENERATORS = ("gauss_mix", "two_moons", "bitmap8")

# Blob layout lives inside the unit box so augmented samples (squashed to
# (0, 1) by the mixing sigmoid) share the data's range, as pixel data would.
GAUSS_CENTER = np.array([0.5, 0.5])
GAUSS_RADIUS = 0.35
MOON_SHIFT = np.array([0.5, 0.25])  # centers the standard two-moon layout
MOON_SCALE = 0.4
MOON_CENTER = np.array([0.5, 0.5])
BITMAP_SIDE = 8
# At quarter turns cos or sin of the angle is not exactly 0, and rounding can
# put a source coordinate just past the image edge.
_EDGE_TOL = 1e-9


def _glyph(rows: list[str]) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in rows])


# Glyphs are chosen to stay mutually distinct under rotation (solid mass,
# hollow ring, cross arms, separated corner dots) so a turned domain
# degrades gracefully instead of morphing one class into another.
BITMAP_TEMPLATES = [
    _glyph(["00000000", "00000000", "00111100", "00111100",
            "00111100", "00111100", "00000000", "00000000"]),  # solid block
    _glyph(["00000000", "01111110", "01000010", "01000010",
            "01000010", "01000010", "01111110", "00000000"]),  # hollow frame
    _glyph(["00011000", "00011000", "00011000", "11111111",
            "11111111", "00011000", "00011000", "00011000"]),  # plus sign
    _glyph(["11000011", "11000011", "00000000", "00000000",
            "00000000", "00000000", "11000011", "11000011"]),  # corner dots
]


@dataclass
class DomainSpec:
    kind: str
    classes: int
    samples: int
    rotation_deg: float = 0.0
    sigma: float = 0.0  # coordinate noise std; pixel flip probability for bitmap8

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise ValueError(f"synthdata: unknown generator {self.kind!r}")
        if self.classes < 2:
            raise ValueError(f"synthdata: need at least 2 classes, got {self.classes}")
        if self.samples < 4 * self.classes:
            raise ValueError(
                f"synthdata: need at least {4 * self.classes} samples for "
                f"{self.classes} classes, got {self.samples}")
        if self.kind == "two_moons" and self.classes != 2:
            raise ValueError("synthdata: two_moons is a two-class generator")
        if self.kind == "bitmap8" and self.classes > len(BITMAP_TEMPLATES):
            raise ValueError(
                f"synthdata: bitmap8 supports up to {len(BITMAP_TEMPLATES)} classes")
        if self.sigma < 0.0:
            raise ValueError(f"synthdata: sigma must be non-negative, got {self.sigma}")

    @property
    def image_side(self) -> int | None:
        """Side of the square image a bitmap row flattens; None for points."""
        return BITMAP_SIDE if self.kind == "bitmap8" else None

    @property
    def input_dim(self) -> int:
        side = self.image_side
        return 2 if side is None else side * side


@dataclass
class DomainSequence:
    name: str
    specs: list[DomainSpec] = field(default_factory=list)

    def __post_init__(self):
        if not self.specs:
            raise ValueError("synthdata: a sequence needs at least one domain")
        kinds = {s.kind for s in self.specs}
        if len(kinds) > 1:
            raise ValueError(f"synthdata: mixed generators in one sequence: {kinds}")
        classes = {s.classes for s in self.specs}
        if len(classes) > 1:
            raise ValueError(f"synthdata: class count varies across domains: {classes}")

    @property
    def classes(self) -> int:
        return self.specs[0].classes

    @property
    def input_dim(self) -> int:
        return self.specs[0].input_dim


def rotation_matrix(deg: float) -> np.ndarray:
    rad = np.deg2rad(deg % 360.0)
    c, s = np.cos(rad), np.sin(rad)
    return np.array([[c, -s], [s, c]])


def rotate_image(img: np.ndarray, deg: float) -> np.ndarray:
    """Turn a square image by deg about its centre, bilinearly.

    Output pixel p reads the input at R(deg).T @ (p - mid) + mid. A source
    coordinate outside [0, side - 1] reads 0; nothing is interpolated from
    beyond the edge.
    """
    side = img.shape[0]
    mid = (side - 1) / 2.0
    out = np.indices((side, side)).reshape(2, -1) - mid
    src = rotation_matrix(deg).T @ out + mid
    inside = np.all((src >= -_EDGE_TOL) & (src <= side - 1 + _EDGE_TOL), axis=0)
    src = np.clip(src, 0.0, side - 1.0)
    r, q = np.minimum(np.floor(src), side - 2).astype(int)
    fr, fq = src - (r, q)
    val = ((1.0 - fr) * ((1.0 - fq) * img[r, q] + fq * img[r, q + 1])
           + fr * ((1.0 - fq) * img[r + 1, q] + fq * img[r + 1, q + 1]))
    return np.where(inside, val, 0.0).reshape(side, side)


def _balanced_labels(n: int, classes: int) -> np.ndarray:
    return np.arange(n) % classes


def _gauss_mix(spec: DomainSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    y = _balanced_labels(spec.samples, spec.classes)
    angles = 2.0 * np.pi * np.arange(spec.classes) / spec.classes
    centers = GAUSS_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = centers[y] + rng.normal(size=(spec.samples, 2)) * spec.sigma
    pts = pts @ rotation_matrix(spec.rotation_deg).T  # spin about the circle center
    return pts + GAUSS_CENTER, y


def _two_moons(spec: DomainSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    y = _balanced_labels(spec.samples, 2)
    t = rng.uniform(0.0, np.pi, size=spec.samples)
    upper = np.stack([np.cos(t), np.sin(t)], axis=1)
    lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
    pts = np.where((y == 0)[:, None], upper, lower) - MOON_SHIFT
    pts = pts + rng.normal(size=(spec.samples, 2)) * spec.sigma
    pts = pts @ rotation_matrix(spec.rotation_deg).T * MOON_SCALE
    return pts + MOON_CENTER, y


def _bitmap8(spec: DomainSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if spec.sigma > 0.5:
        raise ValueError("synthdata: bitmap8 flip probability above 0.5 destroys labels")
    y = _balanced_labels(spec.samples, spec.classes)
    prototypes = []
    for k in range(spec.classes):
        img = rotate_image(BITMAP_TEMPLATES[k], spec.rotation_deg)
        prototypes.append((img > 0.5).astype(np.float64).reshape(-1))
    base = np.stack(prototypes)[y]
    flips = rng.random(size=base.shape) < spec.sigma
    return np.abs(base - flips.astype(np.float64)), y


def generate(spec: DomainSpec, seed) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic dataset for (spec, seed); labels exactly balanced."""
    rng = np.random.default_rng(seed)
    if spec.kind == "gauss_mix":
        return _gauss_mix(spec, rng)
    if spec.kind == "two_moons":
        return _two_moons(spec, rng)
    return _bitmap8(spec, rng)


def split_source(x: np.ndarray, y: np.ndarray, fraction: float = 0.8,
                 seed=0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test split; fraction applies to the whole set."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"synthdata: split fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(x.shape[0])
    cut = int(x.shape[0] * fraction)
    train, test = perm[:cut], perm[cut:]
    return x[train], y[train], x[test], y[test]


def standard_sequences() -> dict[str, DomainSequence]:
    """The frozen benchmark sequences. Domain 0 is always the source."""

    def gauss(rot):
        # two classes: an 80 degree turn must stay inside half the class
        # spacing, else the source model drops below chance on the last domain
        return DomainSpec("gauss_mix", classes=2, samples=200,
                          rotation_deg=rot, sigma=0.15)

    def moons(rot):
        return DomainSpec("two_moons", classes=2, samples=200,
                          rotation_deg=rot, sigma=0.06)

    def bitmap(rot):
        return DomainSpec("bitmap8", classes=4, samples=160,
                          rotation_deg=rot, sigma=0.04)

    return {
        "rot5": DomainSequence("rot5", [gauss(r) for r in (0, 20, 40, 60, 80)]),
        "moons4": DomainSequence("moons4", [moons(r) for r in (0, 25, 50, 75)]),
        "bitmap5": DomainSequence("bitmap5", [bitmap(r) for r in (0, 15, 30, 45, 60)]),
    }
