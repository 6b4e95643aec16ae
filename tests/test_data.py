"""Scene generation determinism, domain-shift semantics, file round-trips."""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import tiny_train_config
from reinlab import data as D
from reinlab.errors import ConfigError, ContractError, ParseError
from reinlab.train import build_model


def test_scene_deterministic():
    spec = D.default_source_spec(6)
    a = D.generate_scene(7, spec, 6, 64, 64)
    b = D.generate_scene(7, spec, 6, 64, 64)
    assert a.image.tobytes() == b.image.tobytes()
    assert a.label.tobytes() == b.label.tobytes()


def test_shift_changes_image_not_labels():
    src = D.DomainSpec(palette=D.default_palette(6), texture_noise=0.0)
    tgt = D.DomainSpec(palette=D.default_palette(6), texture_noise=0.05,
                       hue_shift=60.0, contrast=0.7)
    a = D.generate_scene(3, src, 6, 64, 64)
    b = D.generate_scene(3, tgt, 6, 64, 64)
    assert a.label.tobytes() == b.label.tobytes()
    assert a.image.tobytes() != b.image.tobytes()


def test_scene_has_two_classes_and_valid_ids():
    spec = D.default_source_spec(6)
    for seed in range(25):
        s = D.generate_scene(seed, spec, 6, 64, 64)
        ids = np.unique(s.label)
        assert len(ids) >= 2
        assert ids.max() < 6
        # the pixels are the batch's floats in [0, 1] rounded to 8 bits
        floats = D.generate_scenes([seed], [spec], 6, 64, 64)[0][0]
        assert floats.min() >= 0.0 and floats.max() <= 1.0
        want = np.rint(floats * np.float32(255.0)).astype(np.uint8)
        assert s.image.dtype == np.uint8 and s.image.tobytes() == want.tobytes()


def test_label_histogram_covers_all_classes():
    spec = D.default_source_spec(6)
    hist = np.zeros(6, dtype=np.int64)
    for seed in range(100):
        s = D.generate_scene(seed, spec, 6, 64, 64)
        hist += np.bincount(s.label.reshape(-1), minlength=6)
    assert np.all(hist > 0)


def test_small_k_rejected():
    with pytest.raises(ConfigError):
        D.generate_scene(0, D.default_source_spec(3), 2, 32, 32)


def test_palette_size_must_match_k():
    with pytest.raises(ConfigError):
        D.generate_scene(0, D.default_source_spec(4), 6, 32, 32)


def test_class_frequency_stable_across_seed_chunks():
    # aggregate per-class pixel frequency over 5 chunks of 200 scenes each
    # (1000 seeds total) stays within 20% of the global mean, so no class
    # degenerates
    spec = D.default_source_spec(6)
    chunk_freq = np.zeros((5, 6))
    for chunk in range(5):
        hist = np.zeros(6, dtype=np.int64)
        for i in range(200):
            s = D.generate_scene(chunk * 200 + i, spec, 6, 32, 32)
            hist += np.bincount(s.label.reshape(-1), minlength=6)
        chunk_freq[chunk] = hist / hist.sum()
    global_freq = chunk_freq.mean(axis=0)
    rel = np.abs(chunk_freq - global_freq) / global_freq
    assert rel.max() <= 0.2


def test_label_maps_match_recorded_digest():
    # SHA-256 of the label maps of 160 fixed scenes, recorded before the
    # rasteriser switched from a dense grid to broadcast coordinates.
    # Labels only: the image bytes also pass through a BLAS matmul.
    digest = hashlib.sha256()
    for spec in (D.default_source_spec(6), D.default_target_spec(6)):
        for h, w in ((64, 64), (32, 48)):
            for seed in range(40):
                digest.update(D.generate_scene((seed, 7), spec, 6, h, w).label.tobytes())
    assert digest.hexdigest() == \
        "9810dbed5d678f0c8fc7d944915c28e026ecc6e365e8a0ba68551b642d03a342"


def _loop_scene(seed, spec, k, h, w):
    """One scene, one shape at a time on a dense pixel grid: the reference
    that ``generate_scenes`` must equal bit for bit. Also returns the
    geometry attempt that placed two classes."""
    yy, xx = np.mgrid[0:h, 0:w]
    for attempt in range(32):
        geo = np.random.default_rng((*seed, 11, attempt))
        label = np.full((h, w), spec.background_class, dtype=np.uint8)
        count = int(geo.integers(3, 9))
        classes = [c for c in range(k) if c != spec.background_class]
        order = geo.permutation(len(classes))
        lo, hi = spec.size_min * min(h, w), spec.size_max * min(h, w)
        for j in range(count):
            cls = classes[order[j % len(classes)]]
            kind = int(geo.integers(0, 3))
            cy, cx = geo.uniform(0, h), geo.uniform(0, w)
            size = geo.uniform(lo, hi)
            if kind == 0:
                hy, hx = size * geo.uniform(0.4, 0.8), size * geo.uniform(0.4, 0.8)
                mask = (np.abs(yy - cy) <= hy) & (np.abs(xx - cx) <= hx)
            elif kind == 1:
                mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= (size / 2) ** 2
            else:
                ang = geo.uniform(0, 2 * math.pi)
                verts = []
                for v in range(3):
                    a = ang + v * 2 * math.pi / 3 + geo.uniform(-0.4, 0.4)
                    rad = size / 2 * geo.uniform(0.7, 1.0)
                    verts.append((cy + rad * math.sin(a), cx + rad * math.cos(a)))
                mask = np.ones((h, w), dtype=bool)
                for v in range(3):
                    (y0, x0), (y1, x1), (y2, x2) = (verts[(v + i) % 3] for i in range(3))
                    cross = (x1 - x0) * (yy - y0) - (y1 - y0) * (xx - x0)
                    side = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
                    mask &= (cross * side) >= 0
            label[mask] = cls
        if len(np.unique(label)) >= 2:
            break
    else:
        raise ConfigError("could not place two distinct classes in 32 attempts")
    img = np.asarray(spec.palette, dtype=np.float64)[label]
    noise = np.random.default_rng((*seed, 13)).standard_normal(img.shape)
    img = img + noise * spec.texture_noise
    if spec.hue_shift != 0.0:
        img = img @ D.hue_rotation_matrix(spec.hue_shift).T
    img = np.clip((img - 0.5) * spec.contrast + 0.5, 0.0, 1.0).astype(np.float32)
    return img.transpose(2, 0, 1), label, attempt


@pytest.mark.parametrize("h, w", [(64, 64), (32, 48), (9, 17)])
def test_batched_scenes_equal_the_per_scene_loop(h, w):
    palette = D.default_palette(6)
    rng = np.random.default_rng(h * w)
    specs = [D.default_source_spec(6), D.default_target_spec(6),
             # shapes under a pixel wide often miss every pixel centre: redraws
             D.DomainSpec(palette=palette, size_min=0.3 / min(h, w),
                          size_max=0.8 / min(h, w), background_class=2,
                          texture_noise=0)]
    specs += [D.DomainSpec(palette=palette, hue_shift=rng.uniform(-180, 180),
                           contrast=rng.uniform(0.5, 1.2),
                           texture_noise=rng.uniform(0, 0.08)) for _ in range(5)]
    seeds = [(i, 9) for i in range(48)]
    batch = [specs[i % len(specs)] for i in range(len(seeds))]
    images, labels = D.generate_scenes(seeds, batch, 6, h, w)
    attempts = []
    for i, (seed, spec) in enumerate(zip(seeds, batch)):
        image, label, attempt = _loop_scene(seed, spec, 6, h, w)
        assert images[i].tobytes() == image.tobytes(), i
        assert labels[i].tobytes() == label.tobytes(), i
        attempts.append(attempt)
    assert max(attempts) > 0  # the redraw path ran


def test_scene_without_two_classes_raises():
    spec = D.DomainSpec(palette=D.default_palette(6), size_min=1e-4, size_max=2e-4)
    with pytest.raises(ConfigError, match="32 attempts"):
        D.generate_scene(0, spec, 6, 8, 8)


def test_scenes_need_one_spec_per_seed():
    with pytest.raises(ConfigError, match="2 seeds but 1 domain specs"):
        D.generate_scenes([0, 1], [D.default_source_spec(6)], 6, 16, 16)


def test_hue_rotation_preserves_gray():
    m = D.hue_rotation_matrix(77.0)
    np.testing.assert_allclose(m @ np.ones(3), np.ones(3), atol=1e-12)


# ---------------------------------------------------------------------------
# file io


def test_roundtrip(tmp_path):
    spec = D.default_source_spec(6)
    samples = [D.generate_scene(i, spec, 6, 32, 32) for i in range(4)]
    D.write_dataset(tmp_path / "train", samples)
    back = D.read_dataset(tmp_path / "train")
    assert len(back) == 4
    for orig, got in zip(samples, back):
        assert orig.label.tobytes() == got.label.tobytes()
        assert orig.image.tobytes() == got.image.tobytes()


def test_loaded_split_holds_pixels_that_batch_as_decode_ppm(tiny_benchmark):
    samples = D.load_split(tiny_benchmark, "train")
    for s in samples:
        assert s.image.dtype == np.uint8 and s.image.shape == (3, 32, 32)
        assert s.image.flags.c_contiguous
    ppms = sorted((tiny_benchmark / "train").glob("*.ppm"))
    want = np.stack([D.decode_ppm(p.read_bytes(), p) for p in ppms])
    pixels = np.stack([s.image for s in samples])
    assert want.dtype == np.uint8 and pixels.tobytes() == want.tobytes()
    got = D.pixel_floats(pixels)
    assert got.dtype == np.float32
    assert got.tobytes() == (pixels.astype(np.float32) / 255.0).tobytes()


def test_unconverted_pixels_are_rejected(tiny_benchmark, tmp_path):
    pixels = np.stack([s.image for s in D.load_split(tiny_benchmark, "val")])
    with pytest.raises(ContractError, match="uint8"):
        D.pixel_floats(D.pixel_floats(pixels))
    with pytest.raises(ContractError, match="float images"):
        build_model(tiny_train_config(tiny_benchmark)).predict_labels(pixels)
    with pytest.raises(ContractError, match="expected uint8 pixels, got float32"):
        D.write_ppm(tmp_path / "x.ppm", D.pixel_floats(pixels[0]))
    assert not (tmp_path / "x.ppm").exists()


def test_truncated_ppm_raises_parse_error(tmp_path):
    spec = D.default_source_spec(6)
    sample = D.generate_scene(0, spec, 6, 32, 32)
    path = tmp_path / "x.ppm"
    D.write_ppm(path, sample.image)
    raw = path.read_bytes()
    with pytest.raises(ParseError, match="truncated"):
        D.decode_ppm(raw[: len(raw) // 2], path)


def test_bad_magic_raises():
    with pytest.raises(ParseError, match="magic"):
        D.decode_pgm(b"JUNK\n2 2\n255\n....")


def test_benchmark_manifest_and_reproducibility(tmp_path):
    def digest(p):
        h = hashlib.sha256()
        for f in sorted(p.rglob("*")):
            if f.is_file():
                h.update(f.relative_to(p).as_posix().encode())
                h.update(f.read_bytes())
        return h.hexdigest()

    a, b = tmp_path / "a", tmp_path / "b"
    manifest = D.generate_benchmark(a, k=6, size=32, counts=(4, 2, 2), seed=5)
    assert manifest["splits"]["train"]["count"] == 4
    assert D.read_manifest(a) == manifest
    assert len(D.load_split(a, "test")) == 2
    D.generate_benchmark(b, k=6, size=32, counts=(4, 2, 2), seed=5)
    assert digest(a) == digest(b)


def test_missing_manifest(tmp_path):
    with pytest.raises(ParseError):
        D.read_manifest(tmp_path)


def test_bad_manifest_json_raises_parse_error(tmp_path):
    (tmp_path / "manifest.json").write_text('{"k": 6,')
    with pytest.raises(ParseError, match="bad manifest") as err:
        D.read_manifest(tmp_path)
    assert err.value.offset == 8


@pytest.mark.parametrize("manifest,message", [
    ([6, 32, 32], "not an object"),
    ({"h": 32, "w": 32}, "'k' must be a positive int, got None"),
    ({"k": "6", "h": 32, "w": 32}, "'k' must be a positive int"),
    ({"k": 6, "h": 0, "w": 32}, "'h' must be a positive int"),
    ({"k": 6, "h": 32, "w": True}, "'w' must be a positive int"),
    ({"k": 6, "h": 32, "w": 32.0}, "'w' must be a positive int"),
    ({"k": 6, "h": 32, "w": 32}, "split 'train' must have a non-negative int count, got None"),
    ({"k": 6, "h": 32, "w": 32, "splits": {"train": {"count": 4}, "val": {"count": -1},
                                           "test": {"count": 0}}},
     "split 'val' must have a non-negative int count, got -1"),
    ({"k": 6, "h": 32, "w": 32, "splits": {"train": {"count": 4}, "val": {"count": 1},
                                           "test": {"count": "2"}}},
     "split 'test' must have a non-negative int count, got '2'"),
], ids=["list", "no-k", "string-k", "zero-h", "bool-w", "float-w", "no-splits",
        "negative-count", "string-count"])
def test_manifest_fields_raise_parse_error(tmp_path, manifest, message):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match=message):
        D.read_manifest(tmp_path)


def test_missing_label_file_raises_parse_error(tmp_path):
    D.write_dataset(tmp_path, [D.generate_scene(0, D.default_source_spec(6), 6, 16, 16)])
    (tmp_path / "00000.pgm").unlink()
    with pytest.raises(ParseError, match="missing label"):
        D.read_dataset(tmp_path)


def test_load_split_with_missing_files_raises_parse_error(tmp_path):
    D.generate_benchmark(tmp_path, k=6, size=16, counts=(4, 1, 1), seed=0)
    for suffix in (".ppm", ".pgm"):
        (tmp_path / "train" / ("00001" + suffix)).unlink()
    with pytest.raises(ParseError, match="split 'train' holds 3 scenes, but the "
                       "manifest counts 4"):
        D.load_split(tmp_path, "train")
    assert len(D.load_split(tmp_path, "val")) == 1


def test_load_split_rejects_unknown_split(tmp_path):
    with pytest.raises(ConfigError, match="unknown split"):
        D.load_split(tmp_path, "dev")
