"""Scene generation determinism, domain-shift semantics, file round-trips."""

import numpy as np
import pytest

from reinlab import data as D
from reinlab.errors import ConfigError, ParseError


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
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


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
        assert np.max(np.abs(orig.image - got.image)) <= 1.0 / 255.0


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
    import hashlib

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
