"""Token-based feature refinement between backbone layers.

Each layer i owns a learnable token sequence T_i of m vectors in R^c,
optionally factorized as A_i x B_i with rank r. Patch features are matched
to tokens through a scaled softmax similarity map; everything but the first
token then contributes a feature delta:

    S_i    = softmax(f_i T_i^T / sqrt(c))            [n, m]
    dbar_i = S_i[:, 1:] (T_i[1:] W_T + b_T)          [n, c]
    d_i    = (dbar_i + f_i) W_f + b_f                [n, c]

Dropping the first similarity column leaves each row's modification mass in
[0, 1), so patches that match no token get little or no alteration. W_f and
all biases start at zero, which makes the whole adapter an exact no-op at
initialization.

Tokens also produce per-layer query sets Q_i = T_i W_Q + b_Q, combined into
a single query matrix via elementwise max / mean across layers plus the last
layer, for a query-based decode head. MLP weights (W_T, W_f, W_Q) may be
shared across layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

VARIANTS = {
    "rein-core": dict(use_link=False, use_share=False, use_lora=False),
    "rein-link": dict(use_link=True, use_share=False, use_lora=False),
    "rein-share": dict(use_link=True, use_share=True, use_lora=False),
    "rein-lora": dict(use_link=True, use_share=True, use_lora=True),
}


@dataclass
class ReinConfig:
    c: int
    depth: int
    m: int = 100
    r: int = 16
    c_prime: int = 256
    use_link: bool = True
    use_share: bool = True
    use_lora: bool = True

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError(f"token length m={self.m}: need m >= 2 so dropping "
                              "the first token leaves at least one")
        if self.use_lora and not 1 <= self.r < self.c:
            raise ConfigError(f"rank r={self.r} must lie in [1, c={self.c})")
        if self.depth < 1 or self.c < 1 or self.c_prime < 1:
            raise ConfigError("depth, c and c_prime must be positive")

    @property
    def variant_name(self) -> str:
        for name, flags in VARIANTS.items():
            if all(getattr(self, k) == v for k, v in flags.items()):
                return name
        return "custom"

    @classmethod
    def from_variant(cls, variant: str, **kw) -> "ReinConfig":
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; pick from {sorted(VARIANTS)}")
        return cls(**{**kw, **VARIANTS[variant]})


def param_shapes(cfg: ReinConfig) -> dict:
    """Adapter tensors in draw order: name -> (shape, init), in the format
    that ``tensor.parameters`` draws. A weight is drawn uniform in
    (-1/sqrt(fan_in), 1/sqrt(fan_in)), where fan_in is the dimension it
    contracts in its defining product; W_f and every bias start at zero so
    the adapter begins as the identity."""
    c, cp, m, r = cfg.c, cfg.c_prime, cfg.m, cfg.r

    def bound(fan_in):
        return 1.0 / math.sqrt(fan_in)

    mlps = {"W_T": ((c, c), bound(c)), "b_T": ((c,), "zero"),
            "W_f": ((c, c), "zero"), "b_f": ((c,), "zero")}
    if cfg.use_link:
        mlps.update({"W_Q": ((c, cp), bound(c)), "b_Q": ((cp,), "zero")})
    p = {}
    for i in range(1, cfg.depth + 1):
        lp = f"adapter.layer{i:02d}."
        if cfg.use_lora:
            p[lp + "A"] = ((m, r), bound(r))
            p[lp + "B"] = ((r, c), bound(r))
        else:
            p[lp + "T"] = ((m, c), bound(c))
        if not cfg.use_share:
            p.update({lp + k: v for k, v in mlps.items()})
    if cfg.use_share:
        p.update({"adapter.shared." + k: v for k, v in mlps.items()})
    if cfg.use_link:
        p["adapter.final.W_Q_cat"] = ((3 * cp, cp), bound(3 * cp))
        p["adapter.final.b_Q_cat"] = ((cp,), "zero")
    return p


def similarity_map(f: Tensor, tokens: Tensor, c: int) -> Tensor:
    """Row-softmax of f tokens^T / sqrt(c); rows sum to one."""
    logits = T.scale(T.matmul(f, T.transpose(tokens)), 1.0 / math.sqrt(c))
    return T.softmax_rows(logits)


class ReinAdapter:
    """Adapter tensors and the backbone hook that applies them.

    Per-layer tensors live under ``adapter.layerNN.*`` (1-based), shared
    MLPs under ``adapter.shared.*`` and the query-fusion map under
    ``adapter.final.*``; every tensor starts trainable, as it stays in
    ``rein`` mode, the one mode whose ``SegModel`` has an adapter.

    The adapter holds no state of a forward pass: ``adapter(i, f_i, T_i)``
    returns layer i's feature delta from the tokens it is given, and
    ``aggregate_query([T_1, ..., T_N])`` fuses the query sets of the same
    tokens, so a caller that computes each T_i once feeds both.
    """

    def __init__(self, cfg: ReinConfig, rng):
        self.cfg = cfg
        self.params = T.parameters(param_shapes(cfg), rng)

    def named_tensors(self):
        return list(self.params.items())

    def mlp(self, kind: str, i: int) -> tuple:
        """(weight, bias) of MLP ``kind`` in {T, f, Q} for layer ``i``."""
        scope = "adapter.shared" if self.cfg.use_share else f"adapter.layer{i:02d}"
        return self.params[f"{scope}.W_{kind}"], self.params[f"{scope}.b_{kind}"]

    def tokens(self, i: int) -> Tensor:
        """Token sequence T_i as an [m, c] tensor (A_i x B_i when factorized)."""
        lp = f"adapter.layer{i:02d}."
        if not self.cfg.use_lora:
            return self.params[lp + "T"]
        return T.matmul(self.params[lp + "A"], self.params[lp + "B"])

    def __call__(self, i: int, f: Tensor, tokens: Tensor) -> Tensor:
        """Feature delta d_i of layer ``i`` from its tokens T_i."""
        cfg = self.cfg
        sim = similarity_map(f, tokens, cfg.c)
        folded = T.linear(T.narrow(tokens, 0, 1, cfg.m), *self.mlp("T", i))
        dbar = T.matmul(T.narrow(sim, 1, 1, cfg.m), folded)
        return T.linear(T.add(dbar, f), *self.mlp("f", i))

    def aggregate_query(self, tokens: list) -> Tensor:
        """Fuse the layer queries Q_i = T_i W_Q + b_Q of ``tokens``
        [T_1, ..., T_N]: concat([max_i Q_i, mean_i Q_i, Q_N]) W + b."""
        if not self.cfg.use_link:
            raise ContractError("aggregate_query requires the link variant")
        if len(tokens) != self.cfg.depth:
            raise ContractError(f"got {len(tokens)} token sets, expected {self.cfg.depth}")
        qs = [T.linear(t, *self.mlp("Q", i)) for i, t in enumerate(tokens, 1)]
        fused = T.concat([T.stack_max(qs), T.stack_mean(qs), qs[-1]], axis=-1)
        return T.linear(fused, self.params["adapter.final.W_Q_cat"],
                        self.params["adapter.final.b_Q_cat"])
