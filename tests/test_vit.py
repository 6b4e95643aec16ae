"""Backbone: patch embedding, encoder recurrence, hook contract, freezing."""

import numpy as np
import pytest

from reinlab import tensor as T
from reinlab.errors import ConfigError, ContractError, ShapeError
from reinlab.tensor import Tensor
from reinlab.vit import ViTBackbone, ViTConfig, default_tap_layers


def toy_cfg(**kw):
    base = dict(image_size=32, patch_size=8, depth=4, dim=16, heads=2)
    base.update(kw)
    return ViTConfig(**base)


def rand_image(rng, size):
    return rng.uniform(0, 1, (3, size, size)).astype(np.float32)


def test_patch_count_32():
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(0))
    out = bb.embed(rand_image(np.random.default_rng(1), 32))
    assert out.shape == (16, 16)


def test_patch_count_64():
    cfg = toy_cfg(image_size=64)
    bb = ViTBackbone(cfg, np.random.default_rng(0))
    out = bb.embed(rand_image(np.random.default_rng(1), 64))
    assert out.shape == (64, 16)


def test_zero_everything_embeds_to_zero():
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(0))
    for name in ("patch.W", "patch.b", "pos"):
        bb.params[name].data[:] = 0.0
    out = bb.embed(np.zeros((3, 32, 32), dtype=np.float32))
    assert np.all(out.data == 0.0)


def test_wrong_image_size_rejected():
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        bb.embed(np.zeros((3, 48, 48), dtype=np.float32))


def test_config_validation():
    with pytest.raises(ConfigError):
        ViTConfig(image_size=30, patch_size=8)
    with pytest.raises(ConfigError):
        ViTConfig(dim=30, heads=4)
    with pytest.raises(ConfigError):
        ViTConfig(depth=4, tap_layers=(2, 1, 4))
    with pytest.raises(ConfigError):
        ViTConfig(depth=4, tap_layers=(1, 2))  # must end at depth


def test_default_taps():
    assert default_tap_layers(4) == (1, 2, 3, 4)
    assert default_tap_layers(24) == (8, 12, 16, 24)
    assert default_tap_layers(32) == (8, 16, 24, 32)
    assert default_tap_layers(2) == (1, 2)


def test_no_hook_equals_zero_hook_bitwise():
    rng = np.random.default_rng(5)
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(2))
    img = rand_image(rng, 32)
    taps_a, out_a = bb.forward(img)
    taps_b, out_b = bb.forward(img, hook=lambda i, f: Tensor(np.zeros(f.shape)))
    assert out_a.data.tobytes() == out_b.data.tobytes()
    for ta, tb in zip(taps_a, taps_b):
        assert ta.data.tobytes() == tb.data.tobytes()


def test_hook_wrong_shape_rejected():
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(2))
    img = rand_image(np.random.default_rng(0), 32)
    with pytest.raises(ContractError):
        bb.forward(img, hook=lambda i, f: Tensor(np.zeros((2, 2))))


def test_recurrence_matches_straight_line_loop():
    # Independent re-implementation of the refine-and-forward recurrence:
    # f1 = L1(embed(x)); f_{i+1} = L_{i+1}(f_i + d_i); out = f_N + d_N.
    cfg = toy_cfg()  # N=4, c=16, n=16
    bb = ViTBackbone(cfg, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    img = rand_image(rng, 32)
    deltas = {i: rng.standard_normal((16, 16)).astype(np.float32) * 0.1
              for i in range(1, 5)}

    def hook(i, f):
        return Tensor(deltas[i])

    taps, out = bb.forward(img, hook=hook)

    f = bb.embed(img)
    expected_taps = []
    for i in range(1, cfg.depth + 1):
        f = bb.layer_forward(i, f)
        f = T.add(f, Tensor(deltas[i]))
        expected_taps.append(f)
    np.testing.assert_array_equal(out.data, expected_taps[-1].data)
    for got, want in zip(taps, expected_taps):
        np.testing.assert_array_equal(got.data, want.data)


def test_batch_forward_matches_per_image():
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    imgs = np.stack([rand_image(rng, 32) for _ in range(3)])
    _, out_batch = bb.forward(imgs)
    n = bb.cfg.num_patches
    for b in range(3):
        _, out_single = bb.forward(imgs[b])
        np.testing.assert_allclose(
            out_batch.data[b * n:(b + 1) * n], out_single.data, atol=2e-5
        )


def test_frozen_backbone_has_no_trainable_tensors():
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(0), frozen=True)
    assert all(not t.requires_grad for t in bb.params.values())
    before = bb.state_bytes()
    img = rand_image(np.random.default_rng(1), 32)
    with T.Tape() as tape:
        _, out = bb.forward(img)
        tape.backward(T.sum_all(out))
    assert all(t.grad is None for t in bb.params.values())
    assert bb.state_bytes() == before


def test_same_seed_same_bytes():
    a = ViTBackbone(toy_cfg(), np.random.default_rng(42))
    b = ViTBackbone(toy_cfg(), np.random.default_rng(42))
    assert a.state_bytes() == b.state_bytes()
    img = rand_image(np.random.default_rng(0), 32)
    _, out_a = a.forward(img)
    _, out_b = b.forward(img)
    assert out_a.data.tobytes() == out_b.data.tobytes()


def test_layer_forward_adds_twelve_tape_records():
    # layer norm, q/k/v linears, attention, output linear, residual add,
    # layer norm, two MLP linears around GELU, residual add
    cfg = toy_cfg()
    bb = ViTBackbone(cfg, np.random.default_rng(0))
    imgs = np.stack([rand_image(np.random.default_rng(s), 32) for s in (1, 2)])
    with T.Tape() as tape:
        f = bb.embed(imgs)
        before = len(tape)
        bb.layer_forward(1, f, batch_size=2)
        assert len(tape) - before == 12
