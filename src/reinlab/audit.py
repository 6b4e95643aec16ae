"""Closed-form trainable-parameter accounting.

Enumerates every trainable tensor for a fine-tune mode and adapter variant
from the components' tensor tables (``vit.param_shapes``,
``adapter.param_shapes``) and the mode's ``model.TRAINED`` set, without
building a model. Counts cover the backbone scope (backbone weights in full
mode, adapter weights in rein mode, nothing in freeze mode); the decode head
is deliberately outside this budget. The paper budgets below and the golden
CSVs pin the tables independently of the code that reads them.

For the reference transformer geometry (c=1024, N=24, m=100, r=16) the
variant ladder counts to 52,838,400 (core) / 59,332,864 (+link) /
5,016,064 (+share) / 2,990,080 (+lora), and c'=256 is the unique query
width that simultaneously yields 2,990,080 there and 4,510,720 at
(c=1280, N=32).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .adapter import ReinConfig
from .adapter import param_shapes as adapter_shapes
from .errors import ConfigError
from .model import MODES, TRAINED
from .vit import ViTConfig
from .vit import param_shapes as vit_shapes


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


def count_trainable(vit: ViTConfig, rein: ReinConfig | None, mode: str) -> ParamReport:
    """Trainable-parameter report for the backbone scope of one setup: the
    rows of every non-head component that ``TRAINED[mode]`` names, read from
    the same tables that build the model. Biases are counted since they
    train."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; pick from {MODES}")
    trained = TRAINED[mode]
    if "adapter" in trained and rein is None:
        raise ConfigError("rein mode requires a rein config")
    rows = []
    if "backbone" in trained:
        rows += [ParamRow(name, shape, "backbone")
                 for name, (shape, _) in vit_shapes(vit).items()]
    if "adapter" in trained:
        rows += [ParamRow(name, shape, "adapter")
                 for name, (shape, _) in adapter_shapes(rein).items()]
    label = rein.variant_name if "adapter" in trained else "-"
    return ParamReport(rows=rows, mode=mode, variant=label)
