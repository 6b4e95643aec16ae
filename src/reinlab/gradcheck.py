"""Whole-model gradient verification against the finite-difference oracle.

Builds a toy-dimension model in float64 (so the 1e-3 relative tolerance
measures the analytic backward rules, not float32 rounding), randomizes
every trainable tensor away from its structured initialization, and compares
tape gradients of the segmentation loss over a two-image batch with central
differences per tensor. The suite runs the model in ``rein`` mode (adapter
and head train) and in ``full`` mode (every backbone tensor trains too).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .adapter import ReinConfig
from .head import HeadConfig
from .model import SegModel
from .tensor import Tape
from .train import TrainConfig
from .vit import ViTConfig

TOY = dict(image_size=8, patch_size=4, depth=2, dim=8, heads=2,
           m=4, r=2, c_prime=4, num_classes=3, embed_dim=8, batch=2)
CHECKED_MODES = ("rein", "full")
# Central differences of an O(1) float64 loss carry ~1e-13 rounding noise.
# Attention key biases have an exactly zero gradient (softmax ignores a
# per-query constant), so errors are scaled by at least this much.
FD_FLOOR = 1e-9


def build_toy_model(seed: int, mode: str) -> SegModel:
    vit = ViTConfig(image_size=TOY["image_size"], patch_size=TOY["patch_size"],
                    depth=TOY["depth"], dim=TOY["dim"], heads=TOY["heads"])
    rein = ReinConfig(c=TOY["dim"], depth=TOY["depth"], m=TOY["m"], r=TOY["r"],
                      c_prime=TOY["c_prime"])
    head = HeadConfig(num_classes=TOY["num_classes"], embed_dim=TOY["embed_dim"],
                      num_queries=TOY["m"])
    return SegModel(TrainConfig(vit=vit, head=head, rein=rein, mode=mode, seed=seed))


def model_gradient_check(seed: int, mode: str, h=1e-3):
    """Per-tensor relative error between tape and finite-difference
    gradients of the full model loss; returns {tensor name: error}.

    Zero-initialized tensors are randomized first: the check must hold at a
    generic point, not only at the structured start.
    """
    with T.using_dtype(np.float64):
        model = build_toy_model(seed, mode)
        rng = np.random.default_rng((seed, 77))
        trainables = model.trainable_tensors()
        for _, t in trainables:
            t.data = rng.uniform(-0.5, 0.5, t.shape)
        hw = (TOY["image_size"], TOY["image_size"])
        image = rng.uniform(0, 1, (TOY["batch"], 3, *hw))
        label = rng.integers(0, TOY["num_classes"], (TOY["batch"], *hw))

        def loss_fn(_ignored=None):
            return model.batch_loss(image, label)

        with Tape() as tape:
            tape.backward(loss_fn())

        errors = {}
        for name, t in trainables:
            numeric = T.finite_difference_gradient(loss_fn, t, h=h)
            errors[name] = T.relative_error(t.grad, numeric.data, floor=FD_FLOOR)
        return errors


def run_gradient_suite(seeds=(1, 2, 3, 4, 5), h=1e-3):
    """Worst per-tensor error across seeds and modes: {name: max error}."""
    worst = {}
    for mode in CHECKED_MODES:
        for seed in seeds:
            for name, err in model_gradient_check(seed, mode, h=h).items():
                worst[name] = max(worst.get(name, 0.0), err)
    return worst
