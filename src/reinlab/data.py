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


_MAX_SHAPES = 8
_ATTEMPTS = 32  # geometry draws per scene before giving up on two classes
_RECT, _CIRCLE = 0, 1  # shape kinds; kind 2 is a triangle


def _draw_shapes(geo, spec, k, h, w):
    """One geometry attempt: 3 to ``_MAX_SHAPES`` shapes in paint order, each
    ``(class, kind, params)`` with the floats its mask is computed from."""
    count = int(geo.integers(3, _MAX_SHAPES + 1))
    classes = [c for c in range(k) if c != spec.background_class]
    order = geo.permutation(len(classes))
    lo = spec.size_min * min(h, w)
    hi = spec.size_max * min(h, w)
    shapes = []
    for j in range(count):
        cls = classes[order[j % len(classes)]]
        kind = int(geo.integers(0, 3))
        cy, cx = geo.uniform(0, h), geo.uniform(0, w)
        size = geo.uniform(lo, hi)
        if kind == _RECT:  # centre and half-extents
            hy, hx = size * geo.uniform(0.4, 0.8), size * geo.uniform(0.4, 0.8)
            shapes.append((cls, kind, (cy, cx, hy, hx)))
        elif kind == _CIRCLE:  # centre and squared radius
            shapes.append((cls, kind, (cy, cx, (size / 2) ** 2)))
        else:  # triangle from three vertices around the centre
            ang = geo.uniform(0, 2 * math.pi)
            verts = []
            for v in range(3):
                a = ang + v * 2 * math.pi / 3 + geo.uniform(-0.4, 0.4)
                rad = size / 2 * geo.uniform(0.7, 1.0)
                verts.append((cy + rad * math.sin(a), cx + rad * math.cos(a)))
            edges = []  # per edge: start, direction, and the third vertex's side
            for v in range(3):
                y0, x0 = verts[v]
                y1, x1 = verts[(v + 1) % 3]
                side = (x1 - x0) * (verts[(v + 2) % 3][0] - y0) - \
                    (y1 - y0) * (verts[(v + 2) % 3][1] - x0)
                edges += [y0, x0, y1 - y0, x1 - x0, side]
            shapes.append((cls, kind, tuple(edges)))
    return shapes


def _rasterize(scenes, h, w):
    """Label maps [n, h, w] of ``(background class, shapes)`` pairs: a pixel
    takes the class of the last shape covering it. Each kind's masks for
    the whole batch come from one set of array operations."""
    n = len(scenes)
    # a column and a row that broadcast to [h, w] in every mask expression
    yy, xx = np.arange(h)[:, None], np.arange(w)[None, :]
    lut = np.zeros((n, _MAX_SHAPES + 1), dtype=np.uint8)  # slot 0: background
    by_kind = ([], [], [])
    for i, (background, shapes) in enumerate(scenes):
        lut[i, 0] = background
        for j, (cls, kind, params) in enumerate(shapes):
            lut[i, j + 1] = cls
            by_kind[kind].append((i, j, *params))
    cover = np.zeros((n, _MAX_SHAPES, h, w), dtype=bool)
    for kind, rows in enumerate(by_kind):
        if not rows:
            continue
        cols = np.array(rows).T
        scene, slot = cols[:2].astype(np.intp)
        p = cols[2:, :, None, None]  # one [s, 1, 1] column per parameter
        if kind == _RECT:
            mask = (np.abs(yy - p[0]) <= p[2]) & (np.abs(xx - p[1]) <= p[3])
        elif kind == _CIRCLE:
            mask = (yy - p[0]) ** 2 + (xx - p[1]) ** 2 <= p[2]
        else:
            mask = np.ones((len(rows), h, w), dtype=bool)
            for y0, x0, dy, dx, side in (p[5 * e:5 * e + 5] for e in range(3)):
                cross = dx * (yy - y0) - dy * (xx - x0)
                cross *= side
                mask &= cross >= 0
        cover[scene, slot] = mask
    depth = np.arange(1, _MAX_SHAPES + 1, dtype=np.uint8)[:, None, None]
    level = (cover * depth).max(axis=1)  # 1 + slot of the top shape, 0 for none
    return np.take_along_axis(lut, level.reshape(n, -1), axis=1).reshape(n, h, w)


def generate_scene(seed, spec: DomainSpec, k: int, h: int, w: int) -> SceneSample:
    """Deterministic scene for (seed, spec): 3-8 shapes over a textured
    background, with appearance shifted per the spec."""
    images, labels = generate_scenes([seed], [spec], k, h, w)
    return SceneSample(image=images[0], label=labels[0])


def generate_scenes(seeds, specs, k: int, h: int, w: int):
    """``generate_scene`` of each ``(seeds[i], specs[i])`` pair as one batch:
    images [n, 3, h, w] float32 and labels [n, h, w] uint8. A scene's bytes
    depend on its own pair alone; the batch only shares the array work."""
    if k < 3:
        raise ConfigError(f"need at least 3 classes, got {k}")
    if len(specs) != len(seeds):
        raise ConfigError(f"{len(seeds)} seeds but {len(specs)} domain specs")
    for spec in specs:
        if len(spec.palette) != k:
            raise ConfigError(f"palette has {len(spec.palette)} colors, expected {k}")
    seeds = [_seed_tuple(seed) for seed in seeds]
    n = len(seeds)

    def attempt(i, a):
        geo = np.random.default_rng((*seeds[i], 11, a))
        return specs[i].background_class, _draw_shapes(geo, specs[i], k, h, w)

    labels = _rasterize([attempt(i, 0) for i in range(n)], h, w)
    flat = labels.reshape(n, -1)
    for i in np.flatnonzero(flat.min(axis=1) == flat.max(axis=1)):
        for a in range(1, _ATTEMPTS):  # one class only: draw the geometry again
            labels[i] = _rasterize([attempt(i, a)], h, w)[0]
            if labels[i].min() != labels[i].max():
                break
        else:
            raise ConfigError(
                f"could not place two distinct classes in {_ATTEMPTS} attempts")

    def column(values):
        return np.array(values)[:, None, None, None]

    # in place where the arithmetic allows: each step computes what the
    # one-scene expression does, without another batch-sized temporary
    colors = np.array([spec.palette for spec in specs], dtype=np.float64).reshape(-1, 3)
    offset = (np.arange(n, dtype=np.intp) * k)[:, None, None]  # scene i's palette row
    img = np.take(colors, labels + offset, axis=0)  # [n, h, w, 3]
    noise = np.empty_like(img)
    for i, seed in enumerate(seeds):
        np.random.default_rng((*seed, 13)).standard_normal(out=noise[i])
    noise *= column([spec.texture_noise for spec in specs])
    img += noise
    del noise  # before the hue product allocates its result
    shifted = [i for i, spec in enumerate(specs) if spec.hue_shift != 0.0]
    if shifted:
        # transposed views, as in ``img @ hue_rotation_matrix(deg).T``
        rot = np.stack([hue_rotation_matrix(specs[i].hue_shift) for i in shifted])
        rows = slice(None) if len(shifted) == n else shifted  # a view if all turn
        img[rows] = img[rows] @ rot.transpose(0, 2, 1)[:, None]
    img -= 0.5
    img *= column([spec.contrast for spec in specs])
    img += 0.5
    np.clip(img, 0.0, 1.0, out=img)
    return np.ascontiguousarray(img.transpose(0, 3, 1, 2), dtype=np.float32), labels


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
    if len(data) > pos + need:
        raise ParseError(path, pos + need,
                         f"{len(data) - pos - need} trailing bytes after the image")
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


def generate_benchmark(root, k=6, size=64, counts=(200, 50, 50), seed=0):
    """Write the source-train / source-val / target-test benchmark.

    Returns the manifest dict (also stored as ``manifest.json``).
    """
    root = Path(root)
    source = default_source_spec(k)
    specs = {"train": source, "val": source, "test": default_target_spec(k)}
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
