"""Lightweight query-based segmentation head.

Tapped multi-layer features are fused into per-patch pixel embeddings; a
query set (either handed in by the adapter or owned by the head) yields
per-query mask logits against those embeddings and per-query class logits.
The two combine into per-pixel class scores by

    fused[k, p] = sum_q sigmoid(mask[q, p]) * class[q, k]

which are bilinearly upsampled from the patch grid to label resolution.
The query-to-pixel projection and the class projection start at zero, so a
freshly built model makes identical predictions no matter where its queries
come from; a randomly initialized per-query class bias keeps the queries
distinguishable from the first gradient step.

A per-pixel linear fallback head (``use_query_head=False``) skips the query
pathway entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor


@dataclass
class HeadConfig:
    num_classes: int
    embed_dim: int = 32
    num_queries: int = 16
    use_query_head: bool = True

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.embed_dim < 4:
            raise ConfigError(f"embed_dim must be >= 4, got {self.embed_dim}")


def bilinear_matrix(src_hw, dst_hw):
    """Interpolation matrix P with P @ vec(src) = vec(dst), rows summing to 1.

    Half-pixel-centre convention; edge samples clamp to the border texel.
    """
    sh, sw = src_hw
    dh, dw = dst_hw

    def axis_weights(src, dst):
        x = (np.arange(dst) + 0.5) * (src / dst) - 0.5
        x0f = np.floor(x)
        t = x - x0f
        x0 = np.clip(x0f, 0, src - 1).astype(int)
        x1 = np.clip(x0f + 1, 0, src - 1).astype(int)
        return x0, x1, t

    y0, y1, ty = axis_weights(sh, dh)
    x0, x1, tx = axis_weights(sw, dw)
    p = np.zeros((dh * dw, sh * sw), dtype=np.float64)
    for dy in range(dh):
        for dx in range(dw):
            row = dy * dw + dx
            for sy, wy in ((y0[dy], 1 - ty[dy]), (y1[dy], ty[dy])):
                for sx, wx in ((x0[dx], 1 - tx[dx]), (x1[dx], tx[dx])):
                    p[row, sy * sw + sx] += wy * wx
    return p


@dataclass
class SegPrediction:
    class_logits: Tensor | None   # [q, K]
    mask_logits: Tensor | None    # [q, n]
    fused_coarse: Tensor          # [K, n] pre-upsample scores
    pixel_rows: Tensor            # [H*W, K] upsampled logits
    out_hw: tuple


class SegHead:
    """Decode head over tapped features; stateless given its parameters."""

    def __init__(self, cfg: HeadConfig, n_taps, feat_dim, query_dim,
                 grid_hw, out_hw, rng, owns_queries=True):
        self.cfg = cfg
        self.grid_hw = tuple(grid_hw)
        self.out_hw = tuple(out_hw)
        self.owns_queries = bool(owns_queries)
        self.n_patches = grid_hw[0] * grid_hw[1]
        d, cp, k = cfg.embed_dim, query_dim, cfg.num_classes
        fused_in = n_taps * feat_dim

        def uniform(shape, fan_in):
            bound = 1.0 / math.sqrt(fan_in)
            return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        p = {}
        p["head.W_pix"] = uniform((fused_in, d), fused_in)
        p["head.b_pix"] = zeros((d,))
        if cfg.use_query_head:
            # Everything the query set feeds starts at zero, so predictions
            # at initialization cannot depend on where the queries come
            # from; the per-query class bias alone seeds the output and its
            # row diversity is what lets individual queries specialize
            # (a shared zero bias is a saddle these dynamics never leave).
            p["head.W_qd"] = zeros((cp, d))
            p["head.b_qd"] = zeros((d,))
            p["head.W_cls"] = zeros((cp, k))
            bias_bound = 2.0 / math.sqrt(cfg.num_queries)
            p["head.b_cls"] = Tensor(
                rng.uniform(-bias_bound, bias_bound, (cfg.num_queries, k)),
                requires_grad=True)
            # drawn last so heads with and without own queries share the
            # same common-weight values for a given rng
            if self.owns_queries:
                p["head.queries"] = uniform((cfg.num_queries, cp), cp)
        else:
            p["head.W_lin"] = zeros((d, k))
            p["head.b_lin"] = zeros((k,))
        self.params = p
        self._upsample = Tensor(np.ascontiguousarray(
            bilinear_matrix(self.grid_hw, self.out_hw).T))  # [n, H*W]

    def named_tensors(self):
        return list(self.params.items())

    def _pixel_embed(self, tapped):
        fused_feats = T.concat(list(tapped), axis=-1)
        return T.linear(fused_feats, self.params["head.W_pix"], self.params["head.b_pix"])

    def decode_rows(self, tapped, query=None, batch_size=1):
        """Batch decode; returns (pixel_rows [B*H*W, K], class_logits,
        mask_logits, coarse [K, B*n]).

        ``tapped`` holds [B*n, c] tensors; pixel rows come back image-major
        then row-major within each image, as a transposed view of class-major
        [K, B*H*W] memory.
        """
        p = self.params
        pix = self._pixel_embed(tapped)  # [B*n, d]
        if self.cfg.use_query_head:
            if query is None:
                if not self.owns_queries:
                    raise ContractError(
                        "query-based head expects an external query set")
                query = p["head.queries"]
            qd = T.linear(query, p["head.W_qd"], p["head.b_qd"])
            mask_logits = T.matmul(qd, T.transpose(pix))          # [q, B*n]
            class_logits = T.linear(query, p["head.W_cls"], p["head.b_cls"])
            coarse = T.matmul(T.transpose(class_logits), T.sigmoid(mask_logits))
        else:
            class_logits = mask_logits = None
            coarse = T.transpose(
                T.linear(pix, p["head.W_lin"], p["head.b_lin"]))  # [K, B*n]
        # [K, B*n] is [K*B, n] with one image per row, so a single GEMM
        # upsamples the batch; [K*B, H*W] is then class-major [K, B*H*W],
        # and its transpose gives image-major pixel rows without a copy.
        k = coarse.shape[0]
        up = T.matmul(T.reshape(coarse, (k * batch_size, self.n_patches)),
                      self._upsample)
        rows = T.transpose(T.reshape(up, (k, -1)))
        return rows, class_logits, mask_logits, coarse

    def decode(self, tapped, query=None) -> SegPrediction:
        """Single-image decode to a SegPrediction."""
        rows, class_logits, mask_logits, coarse = self.decode_rows(tapped, query)
        return SegPrediction(class_logits, mask_logits, coarse, rows, self.out_hw)


def segmentation_loss(pred: SegPrediction, label: np.ndarray) -> Tensor:
    """Mean per-pixel cross-entropy over non-ignored pixels (255 = ignore)."""
    return T.cross_entropy_logits(pred.pixel_rows, np.asarray(label).reshape(-1))


def miou(pred_labels: np.ndarray, gt_labels: np.ndarray, num_classes: int,
         ignore_index=255):
    """Per-class intersection-over-union and its mean.

    Classes absent from both prediction and ground truth are excluded from
    the mean (their IoU is reported as NaN). Accumulation is pure integer
    counting, so the result is order-independent.
    """
    pred = np.asarray(pred_labels).reshape(-1)
    gt = np.asarray(gt_labels).reshape(-1)
    if pred.shape != gt.shape:
        raise ConfigError(f"label shapes differ: {pred.shape} vs {gt.shape}")
    valid = gt != ignore_index
    cm = confusion_matrix(pred[valid], gt[valid], num_classes)
    return iou_from_confusion(cm)


def confusion_matrix(pred, gt, num_classes):
    """[K, K] integer matrix indexed [gt, pred]."""
    idx = gt.astype(np.int64) * num_classes + pred.astype(np.int64)
    return np.bincount(idx, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes)


def iou_from_confusion(cm):
    inter = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - np.diag(cm)
    present = union > 0
    ious = np.full(cm.shape[0], np.nan)
    ious[present] = inter[present] / union[present]
    mean = float(ious[present].mean()) if present.any() else 0.0
    return ious, mean
