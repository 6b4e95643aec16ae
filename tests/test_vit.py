"""Backbone: patch embedding, encoder recurrence, hook contract, freezing."""

import numpy as np
import pytest

from conftest import state_bytes
from reinlab import tensor as T
from reinlab.errors import ConfigError, ContractError, ShapeError
from reinlab.head import HeadConfig
from reinlab.model import SegModel
from reinlab.train import TrainConfig
from reinlab.tensor import Tensor
from reinlab.vit import ViTBackbone, ViTConfig, default_tap_layers


def toy_cfg(**kw):
    base = dict(image_size=32, patch_size=8, depth=4, dim=16, heads=2)
    base.update(kw)
    return ViTConfig(**base)


def rand_image(rng, size):
    """A batch of one [1, 3, size, size] image."""
    return rng.uniform(0, 1, (1, 3, size, size)).astype(np.float32)


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
    for name in ("backbone.patch.W", "backbone.patch.b", "backbone.pos"):
        bb.params[name].data[:] = 0.0
    out = bb.embed(np.zeros((1, 3, 32, 32), dtype=np.float32))
    assert np.all(out.data == 0.0)


def test_wrong_image_size_rejected():
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        bb.embed(np.zeros((1, 3, 48, 48), dtype=np.float32))


def test_images_without_batch_axis_rejected():
    # one convention: a single image is a batch of one, [1, 3, H, W]
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(0))
    for shape in ((3, 32, 32), (2, 1, 3, 32, 32)):
        with pytest.raises(ShapeError):
            bb.patchify(np.zeros(shape, dtype=np.float32))


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
    taps_a = bb.forward(img)
    taps_b = bb.forward(img, hook=lambda i, f: Tensor(np.zeros(f.shape)))
    assert len(taps_a) == len(taps_b) == len(bb.cfg.tap_layers)
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

    taps = bb.forward(img, hook=hook)

    f = bb.embed(img)
    expected_taps = []
    for i in range(1, cfg.depth + 1):
        f = bb.layer_forward(i, f)
        f = T.add(f, Tensor(deltas[i]))
        expected_taps.append(f)
    assert len(taps) == cfg.depth  # toy taps are every layer, the last included
    for got, want in zip(taps, expected_taps):
        np.testing.assert_array_equal(got.data, want.data)


def test_batch_forward_matches_per_image():
    bb = ViTBackbone(toy_cfg(), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    imgs = np.concatenate([rand_image(rng, 32) for _ in range(3)])
    out_batch = bb.forward(imgs)[-1]
    n = bb.cfg.num_patches
    for b in range(3):
        out_single = bb.forward(imgs[b:b + 1])[-1]
        np.testing.assert_allclose(
            out_batch.data[b * n:(b + 1) * n], out_single.data, atol=2e-5
        )


@pytest.mark.parametrize("cfg", [ViTConfig(image_size=32, patch_size=8, depth=2, dim=32, heads=4),
                                 ViTConfig(image_size=64, patch_size=8, depth=4, dim=64, heads=4)],
                         ids=["tiny", "desk"])
@pytest.mark.parametrize("split", [(1, 3), (2, 2), (1, 1, 1, 1)], ids=["1+3", "2+2", "1+1+1+1"])
def test_sub_batch_taps_equal_the_batch_rows_bitwise(cfg, split):
    # train() runs a frozen step's backbone on the images it has not run
    # yet and joins their rows with held ones, which gives the batch
    # forward's bytes only while an image's rows do not depend on its
    # batch-mates
    bb = ViTBackbone(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    imgs = np.concatenate([rand_image(rng, cfg.image_size) for _ in range(4)])
    want = [t.data for t in bb.forward(imgs)]
    starts = np.cumsum((0,) + split)
    parts = [bb.forward(imgs[a:b]) for a, b in zip(starts[:-1], starts[1:])]
    for i, tap in enumerate(want):
        got = np.concatenate([taps[i].data for taps in parts])
        assert got.tobytes() == tap.tobytes()


def test_frozen_backbone_has_no_trainable_tensors():
    head = HeadConfig(num_classes=3, embed_dim=8, num_queries=4)
    bb = SegModel(TrainConfig(vit=toy_cfg(), head=head, mode="freeze")).backbone
    assert all(not t.requires_grad for t in bb.params.values())
    before = state_bytes(bb)
    img = rand_image(np.random.default_rng(1), 32)
    with T.Tape() as tape:
        tape.backward(T.sum_all(bb.forward(img)[-1]))
    assert all(t.grad is None for t in bb.params.values())
    assert state_bytes(bb) == before


def test_same_seed_same_bytes():
    a = ViTBackbone(toy_cfg(), np.random.default_rng(42))
    b = ViTBackbone(toy_cfg(), np.random.default_rng(42))
    assert state_bytes(a) == state_bytes(b)
    img = rand_image(np.random.default_rng(0), 32)
    out_a = a.forward(img)[-1]
    out_b = b.forward(img)[-1]
    assert out_a.data.tobytes() == out_b.data.tobytes()


def test_layer_forward_adds_twelve_tape_records():
    # layer norm, q/k/v linears, attention, output linear, residual add,
    # layer norm, two MLP linears around GELU, residual add
    cfg = toy_cfg()
    bb = ViTBackbone(cfg, np.random.default_rng(0))
    imgs = np.concatenate([rand_image(np.random.default_rng(s), 32) for s in (1, 2)])
    with T.Tape() as tape:
        f = bb.embed(imgs)
        before = len(tape)
        bb.layer_forward(1, f)
        assert len(tape) - before == 12


def test_layer_forward_counts_images_from_rows():
    # each image attends within its own patches; a single attention over the
    # rows of both images would mix them
    bb = ViTBackbone(toy_cfg(image_size=16, depth=1), np.random.default_rng(0))
    imgs = np.concatenate([rand_image(np.random.default_rng(s), 16) for s in (1, 2)])
    both = bb.layer_forward(1, bb.embed(imgs)).data
    each = [bb.layer_forward(1, bb.embed(imgs[j:j + 1])).data for j in (0, 1)]
    np.testing.assert_allclose(both, np.concatenate(each), atol=1e-6)
    with pytest.raises(ShapeError):
        bb.layer_forward(1, Tensor(np.zeros((6, 16), dtype=np.float32)))
