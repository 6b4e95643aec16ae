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
shared across layers, and both products T_i and T_i[1:] W_T + b_T can be
cached for inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if self.use_lora and not self.r < self.c:
            raise ConfigError(f"rank r={self.r} must be < c={self.c}")
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


class ReinAdapterParams:
    """Parameter store with canonical tensor names.

    Per-layer tensors live under ``adapter.layerNN.*`` (1-based), shared
    MLPs under ``adapter.shared.*`` and the query-fusion map under
    ``adapter.final.*``.
    """

    def __init__(self, cfg: ReinConfig, tensors: dict):
        self.cfg = cfg
        self.tensors = tensors
        self.cache_enabled = False
        self._token_cache = {}
        self._folded_cache = {}

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def named_tensors(self):
        return list(self.tensors.items())

    def mlp(self, kind: str, i: int) -> tuple:
        """(weight, bias) of MLP ``kind`` in {T, f, Q} for layer ``i``."""
        scope = "adapter.shared" if self.cfg.use_share else f"adapter.layer{i:02d}"
        return self.tensors[f"{scope}.W_{kind}"], self.tensors[f"{scope}.b_{kind}"]

    def enable_cache(self):
        """Freeze token products for repeated inference passes; using the
        cache under an active tape raises ``ContractError``."""
        self.cache_enabled = True


def init_parameters(cfg: ReinConfig, seed) -> ReinAdapterParams:
    """Build the adapter parameter set.

    Uniform entries are drawn from (-1/sqrt(fan_in), 1/sqrt(fan_in)) where
    fan_in is the dimension the matrix contracts in its defining product;
    W_f and every bias start at zero so the adapter begins as the identity.
    """
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    c, cp, m, r = cfg.c, cfg.c_prime, cfg.m, cfg.r
    p = {}
    for i in range(1, cfg.depth + 1):
        lp = f"adapter.layer{i:02d}."
        if cfg.use_lora:
            p[lp + "A"] = uniform((m, r), r)
            p[lp + "B"] = uniform((r, c), r)
        else:
            p[lp + "T"] = uniform((m, c), c)
        if not cfg.use_share:
            p[lp + "W_T"] = uniform((c, c), c)
            p[lp + "b_T"] = zeros((c,))
            p[lp + "W_f"] = zeros((c, c))
            p[lp + "b_f"] = zeros((c,))
            if cfg.use_link:
                p[lp + "W_Q"] = uniform((c, cp), c)
                p[lp + "b_Q"] = zeros((cp,))
    if cfg.use_share:
        p["adapter.shared.W_T"] = uniform((c, c), c)
        p["adapter.shared.b_T"] = zeros((c,))
        p["adapter.shared.W_f"] = zeros((c, c))
        p["adapter.shared.b_f"] = zeros((c,))
        if cfg.use_link:
            p["adapter.shared.W_Q"] = uniform((c, cp), c)
            p["adapter.shared.b_Q"] = zeros((cp,))
    if cfg.use_link:
        p["adapter.final.W_Q_cat"] = uniform((3 * cp, cp), 3 * cp)
        p["adapter.final.b_Q_cat"] = zeros((cp,))
    return ReinAdapterParams(cfg, p)


# ---------------------------------------------------------------------------
# the refinement chain


def _check_cache_off_tape(params: ReinAdapterParams):
    """The caches hold detached tensors, so under a tape A, B and W_T would
    silently get no gradient."""
    if params.cache_enabled and T.active_tape() is not None:
        raise ContractError("adapter token cache is enabled under an active tape; "
                            "it is for inference only")


def materialize_tokens(params: ReinAdapterParams, i: int) -> Tensor:
    """Token sequence T_i as an [m, c] tensor (A_i x B_i when factorized).

    With the cache enabled, repeated calls return the identical tensor
    object, detached from the parameters.
    """
    _check_cache_off_tape(params)
    cfg = params.cfg
    if not cfg.use_lora:
        return params[f"adapter.layer{i:02d}.T"]
    if params.cache_enabled:
        cached = params._token_cache.get(i)
        if cached is not None:
            return cached
    tokens = T.matmul(params[f"adapter.layer{i:02d}.A"],
                      params[f"adapter.layer{i:02d}.B"])
    if params.cache_enabled:
        tokens = tokens.detach()
        params._token_cache[i] = tokens
    return tokens


def similarity_map(f: Tensor, tokens: Tensor, c: int) -> Tensor:
    """Row-softmax of f tokens^T / sqrt(c); rows sum to one."""
    logits = T.scale(T.matmul(f, T.transpose(tokens)), 1.0 / math.sqrt(c))
    return T.softmax_rows(logits)


def folded_tokens(params: ReinAdapterParams, i: int, tokens: Tensor) -> Tensor:
    """T_i[1:] W_T + b_T, cached alongside the tokens when enabled."""
    _check_cache_off_tape(params)
    w, b = params.mlp("T", i)
    if params.cache_enabled:
        cached = params._folded_cache.get(i)
        if cached is not None:
            return cached
    folded = T.linear(T.row_slice(tokens, 1, params.cfg.m), w, b)
    if params.cache_enabled:
        folded = folded.detach()
        params._folded_cache[i] = folded
    return folded


def token_delta(sim: Tensor, tokens: Tensor, w_t: Tensor, b_t: Tensor) -> Tensor:
    """First-token-excluded combination S[:, 1:] (T[1:] W_T + b_T)."""
    m = tokens.shape[0]
    if m < 2:
        raise ConfigError("token_delta needs m >= 2 (first token is dropped)")
    folded = T.linear(T.row_slice(tokens, 1, m), w_t, b_t)
    return T.matmul(T.col_slice(sim, 1, m), folded)


def feature_delta(dbar: Tensor, f: Tensor, w_f: Tensor, b_f: Tensor) -> Tensor:
    """Final modification (dbar + f) W_f + b_f."""
    return T.linear(T.add(dbar, f), w_f, b_f)


def layer_queries(tokens: Tensor, w_q: Tensor, b_q: Tensor) -> Tensor:
    """Per-layer query set Q_i = T_i W_Q + b_Q."""
    return T.linear(tokens, w_q, b_q)


def aggregate_queries(qs, w_cat: Tensor, b_cat: Tensor) -> Tensor:
    """Fuse layer queries: concat([max_i Q_i, mean_i Q_i, Q_N]) W + b."""
    qs = list(qs)
    if not qs:
        raise ContractError("aggregate_queries: empty layer-query list")
    fused = T.concat([T.stack_max(qs), T.stack_mean(qs), qs[-1]], axis=-1)
    return T.linear(fused, w_cat, b_cat)


def rein_refine(i: int, f: Tensor, params: ReinAdapterParams):
    """One layer of refinement; returns (delta_f_i, Q_i or None)."""
    cfg = params.cfg
    tokens = materialize_tokens(params, i)
    sim = similarity_map(f, tokens, cfg.c)
    folded = folded_tokens(params, i, tokens)
    dbar = T.matmul(T.col_slice(sim, 1, cfg.m), folded)
    w_f, b_f = params.mlp("f", i)
    delta = feature_delta(dbar, f, w_f, b_f)
    q_i = None
    if cfg.use_link:
        w_q, b_q = params.mlp("Q", i)
        q_i = layer_queries(tokens, w_q, b_q)
    return delta, q_i


class ReinAdapter:
    """Backbone hook wrapping a parameter set.

    Calling the adapter as ``hook(i, f_i)`` returns the layer's feature
    delta and stashes its query set; ``aggregate_query()`` fuses the stash
    once the forward pass has visited every layer.
    """

    def __init__(self, params: ReinAdapterParams):
        self.params = params
        self._queries = []

    @property
    def cfg(self) -> ReinConfig:
        return self.params.cfg

    def __call__(self, i: int, f: Tensor) -> Tensor:
        if i == 1:
            self._queries = []
        delta, q_i = rein_refine(i, f, self.params)
        if q_i is not None:
            self._queries.append(q_i)
        return delta

    def aggregate_query(self) -> Tensor:
        if not self.cfg.use_link:
            raise ContractError("aggregate_query requires the link variant")
        if len(self._queries) != self.cfg.depth:
            raise ContractError(
                f"saw {len(self._queries)} layer queries, expected {self.cfg.depth}"
            )
        return aggregate_queries(
            self._queries,
            self.params["adapter.final.W_Q_cat"],
            self.params["adapter.final.b_Q_cat"],
        )

    def named_tensors(self):
        return self.params.named_tensors()
