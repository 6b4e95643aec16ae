"""Backbone pretraining: determinism, sharing across modes, provenance."""

import dataclasses

import numpy as np
import pytest

from conftest import tiny_train_config
from reinlab import train as train_mod
from reinlab.data import SPLITS, generate_scene, default_source_spec
from reinlab.errors import ConfigError
from reinlab.pretrain import (PRETRAIN_SPLIT, RECIPE, PretrainConfig,
                              lr_factor, pretrain_backbone, pretrain_scene,
                              pretrained_backbone)
from reinlab.train import TrainConfig, build_model, desk_config
from reinlab.vit import ViTConfig

SHORT = PretrainConfig(steps=3)


def _backbone_bytes(ckpt):
    return b"".join(arr.tobytes() for arr, _ in ckpt.tensors.values())


def test_recipe_is_byte_deterministic():
    vit = desk_config().vit
    a = pretrain_backbone(vit, SHORT)
    b = pretrain_backbone(vit, SHORT)
    assert a.to_bytes() == b.to_bytes()
    # the recipe really trains: three steps move the backbone off its init
    c = pretrain_backbone(vit, dataclasses.replace(SHORT, steps=0))
    assert _backbone_bytes(a) != _backbone_bytes(c)


def test_recipe_seed_changes_bytes():
    vit = desk_config().vit
    a = pretrain_backbone(vit, SHORT)
    b = pretrain_backbone(vit, dataclasses.replace(SHORT, seed=1))
    assert _backbone_bytes(a) != _backbone_bytes(b)


def test_checkpoint_records_recipe_and_holds_only_backbone():
    vit = desk_config().vit
    ckpt = pretrain_backbone(vit, SHORT)
    assert PretrainConfig(**ckpt.meta["pretrain"]) == SHORT
    assert ckpt.meta["recipe"] == RECIPE
    assert {comp for _, comp in ckpt.tensors.values()} == {"backbone"}
    assert ckpt.meta["recon_loss_first"] > 0.0
    assert ckpt.from_bytes(ckpt.to_bytes()).to_bytes() == ckpt.to_bytes()


@pytest.mark.slow  # runs the ~3 min desk recipe (memoised per process)
def test_desk_modes_share_the_pretrained_backbone():
    recipe = desk_config().pretrain
    assert recipe is not None
    reference = _backbone_bytes(pretrained_backbone(desk_config().vit, recipe))
    for seed in (1, 2, 3, 4, 5):
        for mode in ("full", "freeze", "rein"):
            model = build_model(desk_config(mode=mode, seed=seed))
            assert model.backbone.state_bytes() == reference, (mode, seed)


@pytest.mark.slow  # runs the ~3 min desk recipe (memoised per process)
def test_desk_recipe_reduces_reconstruction_loss():
    ckpt = pretrained_backbone(desk_config().vit, desk_config().pretrain)
    assert ckpt.meta["recon_loss_last"] < 0.5 * ckpt.meta["recon_loss_first"]


def test_pretraining_scenes_are_not_benchmark_scenes():
    assert PRETRAIN_SPLIT not in range(len(SPLITS))
    size = 32
    ours = pretrain_scene(SHORT, 0, size)
    for split in range(len(SPLITS)):
        theirs = generate_scene((SHORT.seed, split, 0), default_source_spec(6),
                                6, size, size).image
        assert not np.array_equal(ours, theirs)


def test_lr_factor_warms_up_then_decays_to_zero():
    steps = 100
    f = [lr_factor(s, steps) for s in range(steps)]
    assert f[0] == pytest.approx(0.2)
    assert max(f) == pytest.approx(1.0)
    assert f[-1] < 1e-3
    peak = int(np.argmax(f))
    assert all(a >= b for a, b in zip(f[peak:], f[peak + 1:]))


def test_config_round_trip_keeps_recipe():
    cfg = desk_config(mode="full", seed=3)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again.pretrain == cfg.pretrain
    assert again.config_hash() == cfg.config_hash()


def test_backbone_seed_conflicts_with_recipe():
    with pytest.raises(ConfigError, match="backbone_seed"):
        build_model(desk_config(backbone_seed=4))
    # without a recipe the random backbone seed still applies
    cfg = desk_config(pretrain=None, backbone_seed=4)
    assert build_model(cfg).backbone_seed == 4


def test_model_from_checkpoint_meta_skips_pretraining(monkeypatch):
    cfg = desk_config(mode="rein", seed=1,
                      pretrain=dataclasses.replace(SHORT, seed=12345))

    def refuse(*_args, **_kw):
        raise AssertionError("pretraining ran while rebuilding from metadata")

    monkeypatch.setattr(train_mod, "pretrained_backbone", refuse)
    model = train_mod.model_from_meta({"config": cfg.to_dict()})
    assert model.mode == "rein"


def test_pretrain_config_validation():
    with pytest.raises(ConfigError):
        PretrainConfig(steps=-1)


def test_full_mode_probe_stage_trains_the_head_alone(tiny_benchmark, monkeypatch):
    def run(mode):
        cfg = tiny_train_config(tiny_benchmark, mode=mode, iterations=4,
                                eval_interval=4)
        ckpt, _ = train_mod.train(cfg)
        return {comp: b"".join(a.tobytes() for a, c in ckpt.tensors.values()
                               if c == comp) for comp in ("backbone", "head")}

    start = build_model(tiny_train_config(tiny_benchmark, mode="full")
                        ).backbone.state_bytes()
    assert run("full")["backbone"] != start
    # a probe stage spanning the whole run is exactly a freeze-mode run
    monkeypatch.setattr(train_mod, "PROBE_FRACTION", 1.0)
    held = run("full")
    assert held["backbone"] == start
    assert held["head"] == run("freeze")["head"]


def test_vit_key_distinguishes_geometry():
    a = ViTConfig(image_size=32, patch_size=8, depth=2, dim=32, heads=4)
    b = ViTConfig(image_size=32, patch_size=8, depth=2, dim=16, heads=4)
    ca = pretrained_backbone(a, SHORT)
    cb = pretrained_backbone(b, SHORT)
    assert ca.tensors["backbone.pos"][0].shape == (16, 32)
    assert cb.tensors["backbone.pos"][0].shape == (16, 16)
