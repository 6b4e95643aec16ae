"""Closed-form trainable-parameter accounting.

Enumerates every trainable tensor for a fine-tune mode and adapter variant
from shape algebra alone, independent of model construction; a test pins
the two routes against each other. Counts cover the backbone scope
(backbone weights in full mode, adapter weights in rein mode, nothing in
freeze mode); the decode head is deliberately outside this budget.

For the reference transformer geometry (c=1024, N=24, m=100, r=16) the
variant ladder counts to 52,838,400 (core) / 59,332,864 (+link) /
5,016,064 (+share) / 2,990,080 (+lora), and c'=256 is the unique query
width that simultaneously yields 2,990,080 there and 4,510,720 at
(c=1280, N=32).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .adapter import ReinConfig, VARIANTS
from .errors import ConfigError
from .model import MODES
from .vit import ViTConfig


@dataclass
class ParamRow:
    name: str
    shape: tuple
    component: str

    @property
    def count(self) -> int:
        return int(prod(self.shape))


@dataclass
class ParamReport:
    rows: list
    mode: str
    variant: str

    @property
    def total(self) -> int:
        return sum(r.count for r in self.rows)

    def component_total(self, component: str) -> int:
        return sum(r.count for r in self.rows if r.component == component)

    def to_csv(self) -> str:
        lines = ["name,shape,count,component"]
        for r in self.rows:
            shape = "x".join(str(s) for s in r.shape)
            lines.append(f"{r.name},{shape},{r.count},{r.component}")
        lines.append(f"total,,{self.total},")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        name_w = max([len(r.name) for r in self.rows] + [10])
        lines = [f"mode={self.mode} variant={self.variant}",
                 f"{'name':<{name_w}}  {'shape':>12}  {'count':>12}"]
        for r in self.rows:
            shape = "x".join(str(s) for s in r.shape)
            lines.append(f"{r.name:<{name_w}}  {shape:>12}  {r.count:>12,}")
        lines.append("-" * (name_w + 28))
        lines.append(f"{'total':<{name_w}}  {'':>12}  {self.total:>12,}")
        return "\n".join(lines)


def _backbone_rows(vit: ViTConfig):
    c = vit.dim
    hid = vit.mlp_hidden
    pdim = 3 * vit.patch_size * vit.patch_size
    rows = [
        ParamRow("backbone.patch.W", (pdim, c), "backbone"),
        ParamRow("backbone.patch.b", (c,), "backbone"),
        ParamRow("backbone.pos", (vit.num_patches, c), "backbone"),
    ]
    for i in range(1, vit.depth + 1):
        lp = f"backbone.layer{i:02d}."
        rows += [ParamRow(lp + "ln1.g", (c,), "backbone"),
                 ParamRow(lp + "ln1.b", (c,), "backbone")]
        for nm in ("Wq", "Wk", "Wv", "Wo"):
            rows.append(ParamRow(lp + "attn." + nm, (c, c), "backbone"))
        for nm in ("bq", "bk", "bv", "bo"):
            rows.append(ParamRow(lp + "attn." + nm, (c,), "backbone"))
        rows += [ParamRow(lp + "ln2.g", (c,), "backbone"),
                 ParamRow(lp + "ln2.b", (c,), "backbone"),
                 ParamRow(lp + "mlp.W1", (c, hid), "backbone"),
                 ParamRow(lp + "mlp.b1", (hid,), "backbone"),
                 ParamRow(lp + "mlp.W2", (hid, c), "backbone"),
                 ParamRow(lp + "mlp.b2", (c,), "backbone")]
    return rows


def _adapter_rows(rein: ReinConfig):
    c, cp, m, r = rein.c, rein.c_prime, rein.m, rein.r
    rows = []
    for i in range(1, rein.depth + 1):
        lp = f"adapter.layer{i:02d}."
        if rein.use_lora:
            rows += [ParamRow(lp + "A", (m, r), "adapter"),
                     ParamRow(lp + "B", (r, c), "adapter")]
        else:
            rows.append(ParamRow(lp + "T", (m, c), "adapter"))
        if not rein.use_share:
            rows += [ParamRow(lp + "W_T", (c, c), "adapter"),
                     ParamRow(lp + "b_T", (c,), "adapter"),
                     ParamRow(lp + "W_f", (c, c), "adapter"),
                     ParamRow(lp + "b_f", (c,), "adapter")]
            if rein.use_link:
                rows += [ParamRow(lp + "W_Q", (c, cp), "adapter"),
                         ParamRow(lp + "b_Q", (cp,), "adapter")]
    if rein.use_share:
        rows += [ParamRow("adapter.shared.W_T", (c, c), "adapter"),
                 ParamRow("adapter.shared.b_T", (c,), "adapter"),
                 ParamRow("adapter.shared.W_f", (c, c), "adapter"),
                 ParamRow("adapter.shared.b_f", (c,), "adapter")]
        if rein.use_link:
            rows += [ParamRow("adapter.shared.W_Q", (c, cp), "adapter"),
                     ParamRow("adapter.shared.b_Q", (cp,), "adapter")]
    if rein.use_link:
        rows += [ParamRow("adapter.final.W_Q_cat", (3 * cp, cp), "adapter"),
                 ParamRow("adapter.final.b_Q_cat", (cp,), "adapter")]
    return rows


def count_trainable(vit: ViTConfig, rein: ReinConfig | None, mode: str,
                    variant: str | None = None) -> ParamReport:
    """Trainable-parameter report for the backbone scope of one setup.

    ``variant`` (one of the rein-* names) overrides the adapter's flag
    combination; biases are counted since they train.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; pick from {MODES}")
    if variant is not None:
        if variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {variant!r}; pick from {sorted(VARIANTS)}")
        if rein is None:
            raise ConfigError("a rein config is required to apply a variant")
        rein = ReinConfig(c=rein.c, depth=rein.depth, m=rein.m, r=rein.r,
                          c_prime=rein.c_prime, **VARIANTS[variant])
    if mode == "freeze":
        rows = []
        label = "-"
    elif mode == "full":
        rows = _backbone_rows(vit)
        label = "-"
    else:
        if rein is None:
            raise ConfigError("rein mode requires a rein config")
        rows = _adapter_rows(rein)
        label = rein.variant_name
    return ParamReport(rows=rows, mode=mode, variant=label)
