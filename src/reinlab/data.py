"""Procedural segmentation scenes with a controllable appearance shift.

A scene is a textured background plus a handful of colored shapes, each
carrying a class id. Scene geometry (shape kinds, positions, classes) and
appearance (texture noise, hue rotation, contrast) are drawn from separate
seeded streams, so two domain specs that differ only in appearance produce
pixel-identical label maps for the same seed: the shift is purely visual.

Images are stored as binary PPM (P6), labels as binary PGM (P5, 255 =
ignore), plus a JSON manifest at the dataset root.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError


def default_palette(k: int):
    """Background gray plus k-1 saturated hues, evenly spaced."""
    colors = [(0.35, 0.35, 0.35)]
    for i in range(k - 1):
        h = i / (k - 1)
        colors.append(_hsv_to_rgb(h, 0.85, 0.95))
    return colors


def _hsv_to_rgb(h, s, v):
    i = int(h * 6) % 6
    f = h * 6 - int(h * 6)
    p, q, t = v * (1 - s), v * (1 - f * s), v * (1 - (1 - f) * s)
    return [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]


def hue_rotation_matrix(degrees: float) -> np.ndarray:
    """RGB-space rotation about the gray axis; rows sum to 1."""
    th = math.radians(degrees)
    c, s = math.cos(th), math.sin(th)
    third = (1.0 - c) / 3.0
    a = c + third
    b = third - s / math.sqrt(3.0)
    d = third + s / math.sqrt(3.0)
    return np.array([[a, b, d], [d, a, b], [b, d, a]])


@dataclass
class DomainSpec:
    palette: list
    texture_noise: float = 0.02
    hue_shift: float = 0.0
    contrast: float = 1.0
    size_min: float = 0.12
    size_max: float = 0.40
    background_class: int = 0

    def __post_init__(self):
        if self.texture_noise < 0:
            raise ConfigError("texture_noise must be nonnegative")
        self.palette = [tuple(float(v) for v in col) for col in self.palette]

    def as_dict(self):
        d = asdict(self)
        d["palette"] = [list(col) for col in d["palette"]]  # JSON-native
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def default_source_spec(k: int) -> DomainSpec:
    return DomainSpec(palette=default_palette(k))


def default_target_spec(k: int) -> DomainSpec:
    return DomainSpec(palette=default_palette(k), texture_noise=0.05,
                      hue_shift=60.0, contrast=0.7)


@dataclass
class SceneSample:
    image: np.ndarray  # [3, H, W] float32 in [0, 1]
    label: np.ndarray  # [H, W] uint8, class ids (< K) or 255


def _seed_tuple(seed):
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


def _rasterize(geo, spec, k, h, w):
    label = np.full((h, w), spec.background_class, dtype=np.uint8)
    yy, xx = np.mgrid[0:h, 0:w]
    count = int(geo.integers(3, 9))
    classes = [c for c in range(k) if c != spec.background_class]
    order = geo.permutation(len(classes))
    lo = spec.size_min * min(h, w)
    hi = spec.size_max * min(h, w)
    for j in range(count):
        cls = classes[order[j % len(classes)]]
        kind = int(geo.integers(0, 3))
        cy, cx = geo.uniform(0, h), geo.uniform(0, w)
        size = geo.uniform(lo, hi)
        if kind == 0:  # rectangle
            hy, hx = size * geo.uniform(0.4, 0.8), size * geo.uniform(0.4, 0.8)
            mask = (np.abs(yy - cy) <= hy) & (np.abs(xx - cx) <= hx)
        elif kind == 1:  # circle
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= (size / 2) ** 2
        else:  # triangle from three vertices around the centre
            ang = geo.uniform(0, 2 * math.pi)
            verts = []
            for v in range(3):
                a = ang + v * 2 * math.pi / 3 + geo.uniform(-0.4, 0.4)
                rad = size / 2 * geo.uniform(0.7, 1.0)
                verts.append((cy + rad * math.sin(a), cx + rad * math.cos(a)))
            mask = np.ones((h, w), dtype=bool)
            for v in range(3):
                y0, x0 = verts[v]
                y1, x1 = verts[(v + 1) % 3]
                cross = (x1 - x0) * (yy - y0) - (y1 - y0) * (xx - x0)
                side = (x1 - x0) * (verts[(v + 2) % 3][0] - y0) - \
                    (y1 - y0) * (verts[(v + 2) % 3][1] - x0)
                mask &= (cross * side) >= 0
        label[mask] = cls
    return label


def generate_scene(seed, spec: DomainSpec, k: int, h: int, w: int) -> SceneSample:
    """Deterministic scene for (seed, spec): 3-8 shapes over a textured
    background, with appearance shifted per the spec."""
    if k < 3:
        raise ConfigError(f"need at least 3 classes, got {k}")
    if len(spec.palette) != k:
        raise ConfigError(f"palette has {len(spec.palette)} colors, expected {k}")
    base_seed = _seed_tuple(seed)
    label = None
    for attempt in range(32):
        geo = np.random.default_rng((*base_seed, 11, attempt))
        label = _rasterize(geo, spec, k, h, w)
        if len(np.unique(label)) >= 2:
            break
    else:
        raise ConfigError("could not place two distinct classes in 32 attempts")

    app = np.random.default_rng((*base_seed, 13))
    palette = np.asarray(spec.palette, dtype=np.float64)
    img = palette[label]  # [H, W, 3]
    img = img + app.standard_normal(img.shape) * spec.texture_noise
    if spec.hue_shift != 0.0:
        img = img @ hue_rotation_matrix(spec.hue_shift).T
    img = (img - 0.5) * spec.contrast + 0.5
    img = np.clip(img, 0.0, 1.0).astype(np.float32)
    return SceneSample(image=img.transpose(2, 0, 1).copy(), label=label)


# ---------------------------------------------------------------------------
# PPM / PGM io


def _write_pnm(path, magic, arr2d_or_3d, w, h):
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr2d_or_3d.tobytes())


def write_ppm(path, image: np.ndarray):
    """image: [3, H, W] floats in [0, 1] -> 8-bit binary PPM."""
    _, h, w = image.shape
    pix = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    _write_pnm(path, "P6", pix.transpose(1, 2, 0), w, h)


def write_pgm(path, label: np.ndarray):
    h, w = label.shape
    _write_pnm(path, "P5", label.astype(np.uint8), w, h)


def _decode_pnm(data, path, magic_want, channels):
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data) and (data[pos:pos + 1].isspace() or data[pos] == 0x23):
            # whitespace, or a '#' comment that runs to the end of its line
            end = data.find(b"\n", pos) if data[pos] == 0x23 else pos
            pos = len(data) if end < 0 else end + 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(path, start, "unexpected end of header")
        return data[start:pos]

    magic = token()
    if magic != magic_want.encode("ascii"):
        raise ParseError(path, 0, f"bad magic {magic!r}, expected {magic_want}")
    try:
        w, h, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise ParseError(path, pos, "non-integer header field") from None
    if maxval != 255:
        raise ParseError(path, pos, f"unsupported maxval {maxval}")
    if w < 1 or h < 1:
        raise ParseError(path, pos, f"image size {w}x{h} is not positive")
    pos += 1  # single whitespace byte after maxval
    need = w * h * channels
    body = data[pos:pos + need]
    if len(body) != need:
        raise ParseError(path, pos + len(body),
                         f"truncated body: have {len(body)} of {need} bytes")
    arr = np.frombuffer(body, dtype=np.uint8)
    return arr, w, h


def decode_ppm(data: bytes, path="<bytes>") -> np.ndarray:
    """8-bit binary PPM bytes -> [3, H, W] floats in [0, 1]."""
    arr, w, h = _decode_pnm(data, path, "P6", 3)
    img = arr.reshape(h, w, 3).transpose(2, 0, 1)
    return (img.astype(np.float32) / 255.0)


def decode_pgm(data: bytes, path="<bytes>") -> np.ndarray:
    """8-bit binary PGM bytes -> [H, W] uint8 labels."""
    arr, w, h = _decode_pnm(data, path, "P5", 1)
    return arr.reshape(h, w).copy()


# ---------------------------------------------------------------------------
# dataset directories


def write_dataset(directory, samples):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(samples):
        write_ppm(directory / f"{i:05d}.ppm", sample.image)
        write_pgm(directory / f"{i:05d}.pgm", sample.label)


def read_dataset(directory):
    directory = Path(directory)
    samples = []
    for ppm in sorted(directory.glob("*.ppm")):
        pgm = ppm.with_suffix(".pgm")
        if not pgm.exists():
            raise ParseError(pgm, 0, "missing label file for image")
        samples.append(SceneSample(image=decode_ppm(ppm.read_bytes(), ppm),
                                   label=decode_pgm(pgm.read_bytes(), pgm)))
    return samples


SPLITS = ("train", "val", "test")


def generate_benchmark(root, k=6, size=64, counts=(200, 50, 50), seed=0,
                       source=None, target=None):
    """Write the source-train / source-val / target-test benchmark.

    Returns the manifest dict (also stored as ``manifest.json``).
    """
    root = Path(root)
    source = source or default_source_spec(k)
    target = target or default_target_spec(k)
    specs = {"train": source, "val": source, "test": target}
    manifest = {"k": k, "h": size, "w": size, "seed": seed, "splits": {}}
    for sidx, split in enumerate(SPLITS):
        n = counts[sidx]
        samples = [generate_scene((seed, sidx, i), specs[split], k, size, size)
                   for i in range(n)]
        write_dataset(root / split, samples)
        manifest["splits"][split] = {
            "count": n, "spec": specs[split].as_dict(),
        }
    with open(root / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_manifest(root):
    path = Path(root) / "manifest.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(path, 0, "manifest.json not found") from None
    except json.JSONDecodeError as e:
        raise ParseError(path, e.pos, f"bad manifest: {e.msg}") from None


def load_split(root, split):
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    return read_dataset(Path(root) / split)
