"""Parameter accounting: reference budgets, monotonicity, live-model agreement."""

import numpy as np
import pytest

from reinlab.adapter import ReinConfig
from reinlab.audit import count_trainable
from reinlab.errors import ConfigError
from reinlab.head import HeadConfig
from reinlab.model import SegModel
from reinlab.train import TrainConfig
from reinlab.vit import ViTConfig

LARGE_VIT = ViTConfig(image_size=512, patch_size=16, depth=24, dim=1024, heads=16)
HUGE_VIT = ViTConfig(image_size=512, patch_size=16, depth=32, dim=1280, heads=16)


def large_rein(variant, c=1024, depth=24):
    return ReinConfig.from_variant(variant, c=c, depth=depth, m=100, r=16,
                                   c_prime=256)


REFERENCE_BUDGETS = {
    "rein-core": 52_838_400,
    "rein-link": 59_332_864,
    "rein-share": 5_016_064,
    "rein-lora": 2_990_080,
}


@pytest.mark.parametrize("variant,total", sorted(REFERENCE_BUDGETS.items()))
def test_reference_budgets_large(variant, total):
    report = count_trainable(LARGE_VIT, large_rein(variant), "rein")
    assert report.total == total


def test_reference_budget_huge():
    rein = large_rein("rein-lora", c=1280, depth=32)
    assert count_trainable(HUGE_VIT, rein, "rein").total == 4_510_720


def test_freeze_counts_zero():
    assert count_trainable(LARGE_VIT, large_rein("rein-lora"), "freeze").total == 0


def test_variant_lattice_ordering():
    totals = {v: count_trainable(LARGE_VIT, large_rein(v), "rein").total
              for v in REFERENCE_BUDGETS}
    assert totals["rein-core"] < totals["rein-link"]
    assert totals["rein-share"] < totals["rein-core"]
    assert totals["rein-lora"] < totals["rein-share"]


def test_monotonic_in_each_dimension():
    base = dict(c=64, depth=4, m=16, r=4, c_prime=16)
    base_total = count_trainable(
        ViTConfig(image_size=64, patch_size=8, depth=4, dim=64, heads=4),
        ReinConfig(**base), "rein").total
    for key, bump in (("c", 96), ("depth", 6), ("m", 24), ("r", 8),
                      ("c_prime", 32)):
        cfg = dict(base)
        cfg[key] = bump
        vit = ViTConfig(image_size=64, patch_size=8, depth=cfg["depth"],
                        dim=cfg["c"], heads=4)
        bumped = count_trainable(vit, ReinConfig(**cfg), "rein").total
        assert bumped >= base_total, key


def test_enumeration_matches_constructed_models():
    rng = np.random.default_rng(0)
    variants = sorted(REFERENCE_BUDGETS)
    for trial in range(10):
        heads = int(rng.choice([2, 4]))
        dim = int(rng.choice([16, 32, 48])) // heads * heads
        depth = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(8, dim)))
        cp = int(rng.choice([4, 8, 16]))
        vit = ViTConfig(image_size=32, patch_size=8, depth=depth, dim=dim,
                        heads=heads)
        rein = ReinConfig.from_variant(variants[trial % 4], c=dim, depth=depth,
                                       m=m, r=r, c_prime=cp)
        mode = ["rein", "full", "freeze"][trial % 3]
        head = HeadConfig(num_classes=4, embed_dim=8, num_queries=m)
        model = SegModel(TrainConfig(vit=vit, head=head, rein=rein, mode=mode, seed=trial))
        report = count_trainable(vit, rein, mode)
        counted = [(r.name, r.shape, r.component) for r in report.rows]
        live = [(n, t.shape, c) for n, t, c in model.named_tensors()
                if t.requires_grad and c != "head"]
        assert counted == live, (trial, mode, rein.variant_name)


def test_report_rendering():
    rein = ReinConfig(c=8, depth=1, m=4, r=2, c_prime=4)
    vit = ViTConfig(image_size=16, patch_size=8, depth=1, dim=8, heads=2)
    report = count_trainable(vit, rein, "rein")
    text = report.to_text()
    assert "total" in text and f"{report.total:,}" in text
    csv = report.to_csv()
    assert csv.startswith("name,shape,count,component")
    assert csv.rstrip().endswith(f"total,,{report.total},")
    assert {r.component for r in report.rows} == {"adapter"}


@pytest.mark.parametrize("field,build", [
    ("image_size", lambda: ViTConfig(image_size=0, patch_size=8)),
    ("patch_size", lambda: ViTConfig(patch_size=0)),
    ("depth", lambda: ViTConfig(depth=0)),
    ("dim", lambda: ViTConfig(dim=0, heads=4)),
    ("heads", lambda: ViTConfig(heads=0)),
    ("heads", lambda: ViTConfig(heads=-4)),
    ("r=", lambda: ReinConfig(c=64, depth=4, r=0)),
    ("r=", lambda: ReinConfig(c=64, depth=4, r=-1)),
    ("num_queries", lambda: HeadConfig(num_classes=4, num_queries=0)),
    ("mlp_ratio", lambda: ViTConfig(mlp_ratio=0)),
    ("mlp_ratio", lambda: ViTConfig(mlp_ratio=0.01)),
    ("mlp_ratio", lambda: ViTConfig(mlp_ratio=-1)),
], ids=["image_size-0", "patch_size-0", "depth-0", "dim-0", "heads-0",
        "heads-neg", "r-0", "r-neg", "num_queries-0", "mlp_ratio-0",
        "mlp_ratio-tiny", "mlp_ratio-neg"])
def test_out_of_range_geometry_rejected(field, build):
    with pytest.raises(ConfigError, match=field):
        build()


GOLDEN = {
    "rein-lora-c1024": ("rein-lora", 1024, 24, 2_990_080),
    "rein-share-c1024": ("rein-share", 1024, 24, 5_016_064),
    "rein-link-c1024": ("rein-link", 1024, 24, 59_332_864),
    "rein-core-c1024": ("rein-core", 1024, 24, 52_838_400),
    "rein-lora-c1280": ("rein-lora", 1280, 32, 4_510_720),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_golden_csv(label, tmp_path):
    import pathlib

    variant, c, depth, total = GOLDEN[label]
    vit = LARGE_VIT if c == 1024 else HUGE_VIT
    report = count_trainable(vit, large_rein(variant, c=c, depth=depth), "rein")
    golden = pathlib.Path(__file__).parent / "golden" / f"params_{label}.csv"
    assert report.total == total
    assert report.to_csv() == golden.read_text()
