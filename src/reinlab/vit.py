"""Plain pre-norm vision transformer with an optional between-layer
refinement hook.

The backbone runs one image or a batch; features travel as [B*n, c] rows so
every row-wise op handles the whole batch at once, and the attention op
splits them into heads itself. A hook, when installed, receives (layer index i,
features f_i) after each encoder layer and returns a delta of identical
shape; the refined f_i + delta feeds the next layer and is what gets tapped
for the decode head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor

_TAP_DEFAULTS = {24: (8, 12, 16, 24), 32: (8, 16, 24, 32)}


def default_tap_layers(depth: int) -> tuple:
    """1-based layer indices whose refined outputs feed the decode head."""
    if depth in _TAP_DEFAULTS:
        return _TAP_DEFAULTS[depth]
    if depth <= 4:
        return tuple(range(1, depth + 1))
    taps = sorted({max(1, round(depth * k / 4)) for k in range(1, 5)})
    taps[-1] = depth
    return tuple(taps)


@dataclass
class ViTConfig:
    image_size: int = 64
    patch_size: int = 8
    depth: int = 4
    dim: int = 64
    heads: int = 4
    mlp_ratio: float = 4.0
    tap_layers: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch {self.patch_size}"
            )
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if not self.tap_layers:
            self.tap_layers = default_tap_layers(self.depth)
        self.tap_layers = tuple(int(i) for i in self.tap_layers)
        if list(self.tap_layers) != sorted(set(self.tap_layers)):
            raise ConfigError(f"tap_layers {self.tap_layers} not strictly increasing")
        if self.tap_layers[0] < 1 or self.tap_layers[-1] != self.depth:
            raise ConfigError(
                f"tap_layers {self.tap_layers} must lie in [1,{self.depth}] and end at {self.depth}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def mlp_hidden(self) -> int:
        return int(self.dim * self.mlp_ratio)


def trunc_normal(rng, shape, std=0.02):
    """Normal(0, std) clipped to two standard deviations."""
    return np.clip(rng.standard_normal(shape), -2.0, 2.0) * std


class ViTBackbone:
    """Patch embedding + ``depth`` pre-norm encoder layers."""

    def __init__(self, cfg: ViTConfig, rng, frozen=False):
        self.cfg = cfg
        self.frozen = bool(frozen)
        c = cfg.dim
        hid = cfg.mlp_hidden
        pdim = 3 * cfg.patch_size * cfg.patch_size
        rg = not self.frozen

        def param(shape, init="tn"):
            if init == "tn":
                data = trunc_normal(rng, shape)
            elif init == "zero":
                data = np.zeros(shape)
            elif init == "one":
                data = np.ones(shape)
            return Tensor(data, requires_grad=rg)

        p = {}
        p["patch.W"] = param((pdim, c))
        p["patch.b"] = param((c,), "zero")
        p["pos"] = param((cfg.num_patches, c))
        for i in range(1, cfg.depth + 1):
            lp = f"layer{i:02d}."
            p[lp + "ln1.g"] = param((c,), "one")
            p[lp + "ln1.b"] = param((c,), "zero")
            for nm in ("Wq", "Wk", "Wv", "Wo"):
                p[lp + "attn." + nm] = param((c, c))
            for nm in ("bq", "bk", "bv", "bo"):
                p[lp + "attn." + nm] = param((c,), "zero")
            p[lp + "ln2.g"] = param((c,), "one")
            p[lp + "ln2.b"] = param((c,), "zero")
            p[lp + "mlp.W1"] = param((c, hid))
            p[lp + "mlp.b1"] = param((hid,), "zero")
            p[lp + "mlp.W2"] = param((hid, c))
            p[lp + "mlp.b2"] = param((c,), "zero")
        self.params = p

    # -- parameter plumbing -------------------------------------------------

    def named_tensors(self):
        return list(self.params.items())

    def set_frozen(self, frozen: bool):
        self.frozen = bool(frozen)
        for t in self.params.values():
            t.requires_grad = not self.frozen
            if self.frozen:
                t.grad = None

    def state_bytes(self) -> bytes:
        """Concatenated raw bytes of every parameter, for integrity checks."""
        return b"".join(t.data.tobytes() for t in self.params.values())

    # -- forward ------------------------------------------------------------

    def patchify(self, images: np.ndarray) -> np.ndarray:
        """[B,3,H,W] -> [B*n, 3*p*p] rows, patches in row-major grid order."""
        cfg = self.cfg
        if images.ndim == 3:
            images = images[None]
        b, ch, h, w = images.shape
        if ch != 3 or h != cfg.image_size or w != cfg.image_size:
            raise ShapeError(
                f"expected [B,3,{cfg.image_size},{cfg.image_size}] image, got {images.shape}"
            )
        g, ps = cfg.grid, cfg.patch_size
        x = images.reshape(b, 3, g, ps, g, ps)
        x = x.transpose(0, 2, 4, 1, 3, 5).reshape(b * g * g, 3 * ps * ps)
        return np.ascontiguousarray(x)

    def embed(self, images: np.ndarray) -> Tensor:
        """Patch embedding plus learned positional embedding, as [B*n, c]."""
        rows = Tensor(self.patchify(images))
        n, c = self.cfg.num_patches, self.cfg.dim
        bsz = rows.shape[0] // n
        x = T.linear(rows, self.params["patch.W"], self.params["patch.b"])
        # a [B, n, c] view lets the [n, c] embedding broadcast over the batch
        x = T.add(T.reshape(x, (bsz, n, c)), self.params["pos"])
        return T.reshape(x, (bsz * n, c))

    def layer_forward(self, i: int, f: Tensor, batch_size: int = 1) -> Tensor:
        """Apply encoder layer ``i`` (1-based) to [B*n, c] features."""
        p = self.params
        lp = f"layer{i:02d}."
        x = T.layer_norm(f, p[lp + "ln1.g"], p[lp + "ln1.b"])
        q = T.linear(x, p[lp + "attn.Wq"], p[lp + "attn.bq"])
        k = T.linear(x, p[lp + "attn.Wk"], p[lp + "attn.bk"])
        v = T.linear(x, p[lp + "attn.Wv"], p[lp + "attn.bv"])
        ctx = T.attention(q, k, v, batch_size, self.cfg.heads)
        f = T.add(f, T.linear(ctx, p[lp + "attn.Wo"], p[lp + "attn.bo"]))

        x = T.layer_norm(f, p[lp + "ln2.g"], p[lp + "ln2.b"])
        x = T.gelu(T.linear(x, p[lp + "mlp.W1"], p[lp + "mlp.b1"]))
        x = T.linear(x, p[lp + "mlp.W2"], p[lp + "mlp.b2"])
        return T.add(f, x)

    def forward(self, images: np.ndarray, hook=None):
        """Run the encoder; returns (tapped refined features, final features).

        ``hook(i, f_i) -> delta_i`` runs after every layer; the refined
        ``f_i + delta_i`` feeds layer i+1 and is what tap layers expose.
        """
        if images.ndim == 3:
            images = images[None]
        bsz = images.shape[0]
        f = self.embed(images)
        taps = {}
        for i in range(1, self.cfg.depth + 1):
            f = self.layer_forward(i, f, bsz)
            if hook is not None:
                delta = hook(i, f)
                if delta.shape != f.shape:
                    raise ContractError(
                        f"refinement hook returned {delta.shape}, expected {f.shape}"
                    )
                f = T.add(f, delta)
            if i in self.cfg.tap_layers:
                taps[i] = f
        return [taps[i] for i in self.cfg.tap_layers], f
