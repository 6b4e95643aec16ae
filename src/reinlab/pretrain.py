"""Deterministic masked-patch pretraining of the backbone.

Rein refines a strong pre-trained foundation model; a randomly initialised
ViT has nothing to refine, so every desk mode fine-tunes one backbone that
this module pre-trains first. The objective is masked-patch reconstruction
in the style of MAE (arXiv 2111.06377), with the SimMIM simplification that
the encoder sees every patch: half of the patches are blanked to zero
pixels, and a linear decoder on the final features regresses the raw pixels
of the blanked patches. (MAE's per-patch normalised target would be mostly
texture noise on these flat-coloured scenes.)

The unlabeled pretraining scenes come from ``generate_scene`` with
appearance drawn afresh per scene (hue, contrast, texture noise), the way a
foundation model sees broad imagery before any labeled fine-tuning. Their
seeds ``(seed, PRETRAIN_SPLIT, index)`` never coincide with the benchmark's
``(seed, split, index)`` because ``PRETRAIN_SPLIT`` lies outside the split
range, and no label is used.

The result is a checkpoint holding backbone tensors only, with the recipe
in its metadata; identical recipes give identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .data import DomainSpec, default_palette, generate_scene
from .errors import ConfigError
from .optim import AdamW
from .tensor import Tape, Tensor
from .vit import ViTBackbone, ViTConfig, trunc_normal

PRETRAIN_SPLIT = 100  # the benchmark's split indices are 0, 1, 2

# The fixed part of the recipe; it is stored in every checkpoint's metadata.
RECIPE = {
    "objective": "masked-patch pixel MSE, linear decoder on the last layer",
    "mask_ratio": 0.5,
    "lr": 1e-3,
    "batch_size": 8,
    "warmup_fraction": 0.05,  # linear warm-up, then cosine decay to zero
    "weight_decay": 0.05,
    "palette_size": 6,
    "hue_range": 180.0,
    "contrast_range": [0.5, 1.2],
    "noise_range": [0.0, 0.08],
}
LOSS_WINDOW = 100  # steps averaged for the loss summary in the metadata

_STREAM_INIT = 0
_STREAM_APPEARANCE = 1
_STREAM_MASK = 2


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 12000
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"pretrain steps must be >= 0, got {self.steps}")


def pretrain_scene(cfg: PretrainConfig, index: int, size: int):
    """Image of pretraining scene ``index``: fresh geometry and appearance."""
    app = np.random.default_rng((cfg.seed, PRETRAIN_SPLIT, index, _STREAM_APPEARANCE))
    hue = RECIPE["hue_range"]
    spec = DomainSpec(palette=default_palette(RECIPE["palette_size"]),
                      hue_shift=float(app.uniform(-hue, hue)),
                      contrast=float(app.uniform(*RECIPE["contrast_range"])),
                      texture_noise=float(app.uniform(*RECIPE["noise_range"])))
    return generate_scene((cfg.seed, PRETRAIN_SPLIT, index), spec,
                          RECIPE["palette_size"], size, size).image


def lr_factor(step: int, steps: int) -> float:
    """Linear warm-up over the recipe's warm-up fraction of the run, then
    cosine decay to zero (the MAE schedule); ``step`` counts from 0."""
    n_warm = max(1, round(RECIPE["warmup_fraction"] * steps))
    if step < n_warm:
        return (step + 1) / n_warm
    return 0.5 * (1.0 + math.cos(math.pi * (step - n_warm) / max(1, steps - n_warm)))


def pretrain_backbone(vit_cfg: ViTConfig, cfg: PretrainConfig) -> Checkpoint:
    """Run the recipe; returns a checkpoint of the backbone tensors."""
    backbone = ViTBackbone(vit_cfg, np.random.default_rng((cfg.seed, _STREAM_INIT)))
    pdim = 3 * vit_cfg.patch_size * vit_cfg.patch_size
    decoder = {
        "decoder.W": Tensor(trunc_normal(np.random.default_rng((cfg.seed, _STREAM_INIT, 1)),
                                         (vit_cfg.dim, pdim)), requires_grad=True),
        "decoder.b": Tensor(np.zeros(pdim), requires_grad=True),
    }
    params = backbone.named_tensors() + list(decoder.items())
    opt = AdamW(params, RECIPE["lr"], weight_decay=RECIPE["weight_decay"])
    mask_rng = np.random.default_rng((cfg.seed, PRETRAIN_SPLIT, _STREAM_MASK))
    n = vit_cfg.num_patches
    n_masked = max(1, round(RECIPE["mask_ratio"] * n))
    size, ps, g = vit_cfg.image_size, vit_cfg.patch_size, vit_cfg.grid
    bsz = RECIPE["batch_size"]
    losses = []
    for step in range(cfg.steps):
        opt.lr = RECIPE["lr"] * lr_factor(step, cfg.steps)
        first = step * bsz
        images = np.stack([pretrain_scene(cfg, first + j, size)
                           for j in range(bsz)])
        target = backbone.patchify(images)
        masked = np.zeros((bsz, n), dtype=bool)
        for j in range(bsz):
            masked[j, mask_rng.permutation(n)[:n_masked]] = True
        pixel_mask = masked.reshape(bsz, g, 1, g, 1)
        pixel_mask = np.broadcast_to(pixel_mask, (bsz, g, ps, g, ps))
        visible = np.where(pixel_mask.reshape(bsz, 1, size, size),
                           0.0, images).astype(images.dtype)
        weight = masked.reshape(-1, 1) / float(masked.sum() * pdim)
        with Tape() as tape:
            _, feats = backbone.forward(visible)
            pred = T.linear(feats, decoder["decoder.W"], decoder["decoder.b"])
            err = T.add(pred, Tensor(-target))
            loss = T.sum_all(T.mul(T.mul(err, err), Tensor(weight)))
            tape.backward(loss)
        opt.step()
        opt.zero_grad()
        losses.append(loss.item())
    window = max(1, min(LOSS_WINDOW, len(losses)))
    meta = {"pretrain": asdict(cfg), "recipe": dict(RECIPE),
            "vit": asdict(vit_cfg),
            "recon_loss_first": float(np.mean(losses[:window])) if losses else None,
            "recon_loss_last": float(np.mean(losses[-window:])) if losses else None}
    tensors = {"backbone." + name: (np.asarray(t.data, dtype="<f4").copy(), "backbone")
               for name, t in backbone.named_tensors()}
    return Checkpoint(tensors=tensors, meta=meta)


@functools.lru_cache(maxsize=4)
def _cached(vit_json: str, cfg: PretrainConfig) -> bytes:
    return pretrain_backbone(ViTConfig(**json.loads(vit_json)), cfg).to_bytes()


def pretrained_backbone(vit_cfg: ViTConfig, cfg: PretrainConfig) -> Checkpoint:
    """``pretrain_backbone`` memoised per process: the recipe runs once and
    every model built from it afterwards loads the same bytes."""
    return Checkpoint.from_bytes(_cached(json.dumps(asdict(vit_cfg), sort_keys=True), cfg))
