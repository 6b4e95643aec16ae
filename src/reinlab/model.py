"""Full segmentation model: backbone + optional adapter + decode head.

Three fine-tune modes; ``TRAINED`` names the components each one trains:

  full   - every backbone tensor trains alongside the head, after a
           head-only start in every config (``train.PROBE_FRACTION``)
  freeze - backbone fixed, only the head trains
  rein   - backbone fixed, the refinement adapter and the head train

In rein mode with query linking enabled, the adapter's aggregated query set
replaces the head's own queries.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .adapter import ReinAdapter, ReinConfig
from .errors import ConfigError, ContractError
from .head import HeadConfig, SegHead
from .vit import ViTBackbone, ViTConfig

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
    def __init__(self, vit_cfg: ViTConfig, head_cfg: HeadConfig, mode: str,
                 rein_cfg: ReinConfig | None = None, seed: int = 0,
                 backbone_seed: int | None = None):
        """``rein_cfg`` builds the adapter in rein mode; in every mode its
        ``c_prime`` sets the head's query width (16 without one)."""
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; pick from {MODES}")
        if mode == "rein":
            if rein_cfg is None:
                raise ConfigError("rein mode requires a ReinConfig")
            if rein_cfg.c != vit_cfg.dim or rein_cfg.depth != vit_cfg.depth:
                raise ConfigError(
                    f"adapter dims (c={rein_cfg.c}, depth={rein_cfg.depth}) do not "
                    f"match backbone (dim={vit_cfg.dim}, depth={vit_cfg.depth})")
        self.vit_cfg = vit_cfg
        self.mode = mode
        seed = int(seed)
        self.backbone_seed = int(backbone_seed if backbone_seed is not None else seed)

        self.backbone = ViTBackbone(
            vit_cfg, np.random.default_rng((self.backbone_seed, _STREAM_BACKBONE)))
        self.adapter = None
        linked = False
        if mode == "rein":
            self.adapter = ReinAdapter(
                rein_cfg, np.random.default_rng((seed, _STREAM_ADAPTER)))
            linked = rein_cfg.use_link
        query_dim = rein_cfg.c_prime if rein_cfg is not None else 16
        if linked and head_cfg.num_queries != rein_cfg.m:
            raise ConfigError(
                f"head num_queries ({head_cfg.num_queries}) must equal the "
                f"adapter token count m ({rein_cfg.m}) when queries are linked")
        grid = (vit_cfg.grid, vit_cfg.grid)
        out = (vit_cfg.image_size, vit_cfg.image_size)
        self.head = SegHead(
            head_cfg, len(vit_cfg.tap_layers), vit_cfg.dim, query_dim,
            grid, out, np.random.default_rng((seed, _STREAM_HEAD)),
            owns_queries=not linked)
        self.set_trained(TRAINED[mode])

    # -- parameters ----------------------------------------------------------

    def named_tensors(self):
        """(name, tensor, component) triples in a fixed order."""
        parts = (("backbone", self.backbone), ("adapter", self.adapter),
                 ("head", self.head))
        return [(n, t, comp) for comp, part in parts if part is not None
                for n, t in part.named_tensors()]

    def set_trained(self, components):
        """Let exactly the tensors of ``components`` take gradients: the
        mode's ``TRAINED`` set, or a subset of it for a training phase."""
        for _, t, comp in self.named_tensors():
            t.requires_grad = comp in components
            if not t.requires_grad:
                t.grad = None

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
        adapter, hook = self.adapter, None
        if adapter is not None:
            tokens = [adapter.tokens(i) for i in range(1, self.vit_cfg.depth + 1)]

            def hook(i, f):
                return adapter(i, f, tokens[i - 1])

        tapped = self.backbone.forward(images, hook=hook)
        if adapter is not None and adapter.cfg.use_link:
            query = adapter.aggregate_query(tokens)
        else:
            query = self.head.params["head.queries"]
        rows, _, _, _ = self.head.decode_rows(tapped, query)
        return rows

    def predict_labels(self, images: np.ndarray) -> np.ndarray:
        """Argmax label maps [B, H, W] for a batch, without building grads."""
        bsz = images.shape[0]
        rows = self.forward_rows(images)
        hw = self.vit_cfg.image_size
        return rows.data.argmax(axis=1).reshape(bsz, hw, hw)

    def batch_loss(self, images: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy over a batch; labels [B, H, W] with 255 ignore."""
        if images.shape[0] != labels.shape[0]:
            raise ContractError(
                f"batch size mismatch: {images.shape[0]} images vs "
                f"{labels.shape[0]} labels")
        rows = self.forward_rows(images)
        return T.cross_entropy_logits(rows, np.asarray(labels).reshape(-1))
