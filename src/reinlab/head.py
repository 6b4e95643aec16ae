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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor


@dataclass
class HeadConfig:
    num_classes: int
    embed_dim: int = 32
    num_queries: int = 16
    use_query_head: bool = True  # stored configs carry it; only True is built

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.embed_dim < 4:
            raise ConfigError(f"embed_dim must be >= 4, got {self.embed_dim}")
        if self.num_queries < 1:
            raise ConfigError(f"num_queries must be >= 1, got {self.num_queries}")
        if not self.use_query_head:
            raise ConfigError("use_query_head=False: the query head is the only decode head")


def _interp_matrix(src, dst):
    """[dst, src] linear-interpolation weights along one axis, rows summing
    to 1; half-pixel-centre convention, edge samples clamp to the border."""
    x = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    x0 = np.floor(x)
    t = x - x0
    taps = np.clip(np.stack([x0, x0 + 1]), 0, src - 1).astype(int)  # [2, dst]
    m = np.zeros((dst, src))
    np.add.at(m, (np.arange(dst), taps), np.stack([1 - t, t]))
    return m


def bilinear_matrix(src_hw, dst_hw):
    """Interpolation matrix P with P @ vec(src) = vec(dst), rows summing to 1.

    Bilinear weights separate by axis, so P is the Kronecker product of the
    row and column interpolation matrices.
    """
    return np.kron(_interp_matrix(src_hw[0], dst_hw[0]),
                   _interp_matrix(src_hw[1], dst_hw[1]))


@functools.lru_cache(maxsize=8)
def _upsample_matrix(grid_hw, out_hw, dtype):
    """The [n, H*W] upsampling matrix (``bilinear_matrix`` transposed) in
    ``dtype``; every head of one shape shares it, so it is read-only."""
    m = np.ascontiguousarray(bilinear_matrix(grid_hw, out_hw).T, dtype=dtype)
    m.setflags(write=False)
    return m


def param_shapes(cfg: HeadConfig, n_taps, feat_dim, query_dim, owns_queries=True):
    """Head tensors in draw order: name -> (shape, init), in the format that
    ``tensor.parameters`` draws. A weight's uniform bound is 1/sqrt(fan_in);
    the class bias's is 2/sqrt(num_queries)."""
    d, cp, k = cfg.embed_dim, query_dim, cfg.num_classes
    fused_in = n_taps * feat_dim
    p = {"head.W_pix": ((fused_in, d), 1.0 / math.sqrt(fused_in)),
         "head.b_pix": ((d,), "zero"),
         # Everything the query set feeds starts at zero, so predictions at
         # initialization cannot depend on where the queries come from; the
         # per-query class bias alone seeds the output and its row diversity
         # is what lets individual queries specialize (a shared zero bias is
         # a saddle these dynamics never leave).
         "head.W_qd": ((cp, d), "zero"),
         "head.b_qd": ((d,), "zero"),
         "head.W_cls": ((cp, k), "zero"),
         "head.b_cls": ((cfg.num_queries, k), 2.0 / math.sqrt(cfg.num_queries))}
    # drawn last so heads with and without own queries share the same
    # common-weight values for a given rng
    if owns_queries:
        p["head.queries"] = ((cfg.num_queries, cp), 1.0 / math.sqrt(cp))
    return p


class SegHead:
    """Decode head over tapped features; stateless given its parameters."""

    def __init__(self, cfg: HeadConfig, n_taps, feat_dim, query_dim,
                 grid_hw, out_hw, rng, owns_queries=True):
        self.cfg = cfg
        self.grid_hw = tuple(grid_hw)
        self.out_hw = tuple(out_hw)
        self.n_patches = grid_hw[0] * grid_hw[1]
        self.params = T.parameters(
            param_shapes(cfg, n_taps, feat_dim, query_dim, owns_queries), rng)
        self._upsample = Tensor._wrap(_upsample_matrix(
            self.grid_hw, self.out_hw, T.default_dtype()), False)

    def named_tensors(self):
        return list(self.params.items())

    def _pixel_embed(self, tapped):
        fused_feats = T.concat(list(tapped), axis=-1)
        return T.linear(fused_feats, self.params["head.W_pix"], self.params["head.b_pix"])

    def decode_rows(self, tapped, query):
        """Batch decode; returns (pixel_rows [B*H*W, K], class_logits,
        mask_logits, coarse [K, B*n]).

        ``tapped`` holds [B*n, c] tensors and ``query`` is the [q, c'] query
        set, the head's own ``head.queries`` or the adapter's fusion, which
        ``SegModel.forward_rows`` picks; pixel rows come back image-major
        then row-major within each image, as a transposed view of class-major
        [K, B*H*W] memory.
        """
        p = self.params
        pix = self._pixel_embed(tapped)  # [B*n, d]
        if pix.shape[0] % self.n_patches:
            raise ShapeError(f"{pix.shape[0]} feature rows do not split into "
                             f"images of {self.n_patches} patches")
        qd = T.linear(query, p["head.W_qd"], p["head.b_qd"])
        mask_logits = T.matmul(qd, T.transpose(pix))          # [q, B*n]
        class_logits = T.linear(query, p["head.W_cls"], p["head.b_cls"])
        coarse = T.matmul(T.transpose(class_logits), T.sigmoid(mask_logits))
        # [K, B*n] is [K*B, n] with one image per row, so a single GEMM
        # upsamples the batch; [K*B, H*W] is then class-major [K, B*H*W],
        # and its transpose gives image-major pixel rows without a copy.
        k = coarse.shape[0]
        up = T.matmul(T.reshape(coarse, (-1, self.n_patches)),
                      self._upsample)
        rows = T.transpose(T.reshape(up, (k, -1)))
        return rows, class_logits, mask_logits, coarse


def confusion_matrix(pred, gt, num_classes, ignore_index=255):
    """[K, K] integer matrix indexed [gt, pred] over the pixels whose label
    is not ``ignore_index``; pure integer counting, so order-independent."""
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    if pred.shape != gt.shape:
        raise ShapeError(f"label shapes differ: {pred.shape} vs {gt.shape}")
    # one count over gt*K + pred + 1, with ignored pixels in bin 0, which is
    # dropped; a gt label >= K lands past the K*K bins
    idx = gt.astype(np.intp)
    idx *= num_classes
    idx += pred
    idx += 1
    idx[gt == ignore_index] = 0
    counts = np.bincount(idx, minlength=num_classes * num_classes + 1)
    if counts.size > num_classes * num_classes + 1:
        raise ContractError(f"labels outside [0,{num_classes}) and != {ignore_index}")
    return counts[1:].reshape(num_classes, num_classes)


def iou_from_confusion(cm):
    """Per-class IoU and their mean; a class absent from both prediction and
    ground truth gets NaN and is left out of the mean."""
    inter = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - np.diag(cm)
    present = union > 0
    ious = np.full(cm.shape[0], np.nan)
    ious[present] = inter[present] / union[present]
    mean = float(ious[present].mean()) if present.any() else 0.0
    return ious, mean
