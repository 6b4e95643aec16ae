"""Full segmentation model: backbone + optional adapter + decode head.

Three fine-tune modes; ``TRAINED`` names the components each one trains, and
a model sets its tensors' ``requires_grad`` from it once, when it is built:

  full   - every backbone tensor trains alongside the head, after the
           frozen steps of ``train.PROBE_FRACTION``
  freeze - backbone fixed, only the head trains
  rein   - backbone fixed, the refinement adapter and the head train

In rein mode with query linking enabled, the adapter's aggregated query set
replaces the head's own queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .adapter import ReinAdapter
from .errors import ContractError
from .head import SegHead
from .vit import ViTBackbone

if TYPE_CHECKING:
    from .train import TrainConfig

MODES = ("full", "freeze", "rein")
# the components whose tensors train in each mode; nothing else gets gradients
TRAINED = {"full": ("backbone", "head"), "freeze": ("head",),
           "rein": ("adapter", "head")}

# fixed per-component rng streams so e.g. rein and freeze models built from
# the same seed share backbone and head draws
_STREAM_BACKBONE = 0
_STREAM_ADAPTER = 1
_STREAM_HEAD = 2


class SegModel:
    def __init__(self, cfg: TrainConfig):
        """Components of a checked config; in every mode, ``rein.c_prime`` sets
        the head's query width (16 without a rein section)."""
        self.cfg = cfg
        vit, rein = cfg.vit, cfg.rein
        backbone_seed = cfg.seed if cfg.backbone_seed is None else cfg.backbone_seed
        self.backbone = ViTBackbone(
            vit, np.random.default_rng((backbone_seed, _STREAM_BACKBONE)))
        self.adapter = None
        if cfg.mode == "rein":
            self.adapter = ReinAdapter(
                rein, np.random.default_rng((cfg.seed, _STREAM_ADAPTER)))
        linked = self.adapter is not None and rein.use_link
        query_dim = rein.c_prime if rein is not None else 16
        self.head = SegHead(
            cfg.head, len(vit.tap_layers), vit.dim, query_dim,
            (vit.grid, vit.grid), (vit.image_size, vit.image_size),
            np.random.default_rng((cfg.seed, _STREAM_HEAD)), owns_queries=not linked)
        for _, t, comp in self.named_tensors():
            t.requires_grad = comp in TRAINED[cfg.mode]

    # -- parameters ----------------------------------------------------------

    def named_tensors(self):
        """(name, tensor, component) triples in a fixed order."""
        parts = (("backbone", self.backbone), ("adapter", self.adapter),
                 ("head", self.head))
        return [(n, t, comp) for comp, part in parts if part is not None
                for n, t in part.named_tensors()]

    def trainable_tensors(self):
        return [(n, t) for n, t, _ in self.named_tensors() if t.requires_grad]

    def n_trainable(self):
        return sum(t.size for _, t in self.trainable_tensors())

    def zero_grad(self):
        for _, t, _ in self.named_tensors():
            t.grad = None

    # -- forward -------------------------------------------------------------

    def forward_rows(self, images: np.ndarray):
        """Decode a [B,3,H,W] batch to per-pixel logit rows [B*H*W, K]. In
        rein mode each T_i is computed once; it refines layer i and, when
        linked, feeds the query fusion that replaces ``head.queries``."""
        adapter, hook, tokens = self.adapter, None, None
        if adapter is not None:
            tokens = [adapter.tokens(i) for i in range(1, self.cfg.vit.depth + 1)]

            def hook(i, f):
                return adapter(i, f, tokens[i - 1])

        return self.decode_taps(self.backbone.forward(images, hook=hook), tokens)

    def decode_taps(self, tapped, tokens=None):
        """Logit rows [B*H*W, K] from the backbone's tap features; the query
        is the fusion of rein's ``tokens`` when linked, else ``head.queries``."""
        if tokens is not None and self.adapter.cfg.use_link:
            query = self.adapter.aggregate_query(tokens)
        else:
            query = self.head.params["head.queries"]
        return self.head.decode_rows(tapped, query)[0]

    def predict_labels(self, images: np.ndarray) -> np.ndarray:
        """Argmax label maps [B, H, W] for a batch, without building grads.

        The argmax runs over the class-major [K, B*H*W] memory under the
        rows, one class at a time; a strict ``>`` keeps the first maximum,
        as ``argmax`` does, without a row-major copy of the scores.
        """
        bsz = images.shape[0]
        scores = self.forward_rows(images).data.T
        best = scores[0].copy()
        labels = np.zeros(best.shape, dtype=np.intp)
        for k in range(1, scores.shape[0]):
            np.copyto(labels, k, where=scores[k] > best)
            np.maximum(best, scores[k], out=best)
        hw = self.cfg.vit.image_size
        return labels.reshape(bsz, hw, hw)

    def batch_loss(self, images: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy over a batch; labels [B, H, W] with 255 ignore."""
        if images.shape[0] != labels.shape[0]:
            raise ContractError(
                f"batch size mismatch: {images.shape[0]} images vs "
                f"{labels.shape[0]} labels")
        rows = self.forward_rows(images)
        return T.cross_entropy_logits(rows, np.asarray(labels).reshape(-1))
