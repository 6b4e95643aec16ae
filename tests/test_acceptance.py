"""Acceptance criteria, one test per criterion, one printed line each.

Without ``-s`` pytest captures the lines; ``conftest.py`` repeats them in
the closing summary.

The generalization-trend criterion trains 3 modes x 5 seeds x 2000
iterations at desk scale, every run fine-tuning the same backbone that
``reinlab.pretrain`` pre-trains once per process. It dominates the runtime
(~6 min on a 2-core machine, pretraining included) and is marked ``slow``;
``pytest -m "not slow"`` runs everything else.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import state_bytes
from reinlab import adapter as A
from reinlab import tensor as T
from reinlab.adapter import ReinConfig
from reinlab.audit import count_trainable
from reinlab.checkpoint import Checkpoint, swap_adapter
from reinlab.data import generate_benchmark
from reinlab.errors import ParseError
from reinlab.gradcheck import run_gradient_suite
from reinlab.head import HeadConfig
from reinlab.model import SegModel
from reinlab.tensor import Tensor
from reinlab.train import TrainConfig, desk_config, evaluate, train
from reinlab.vit import ViTConfig


def _report(name, ok, detail):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} | {name} | {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def desk_benchmark(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk64")
    generate_benchmark(root, k=6, size=64, counts=(200, 50, 50), seed=0)
    return root


@pytest.fixture(scope="module")
def small_benchmark(tmp_path_factory):
    root = tmp_path_factory.mktemp("small32")
    generate_benchmark(root, k=6, size=32, counts=(8, 3, 3), seed=0)
    return root


def small_config(root, mode="rein", **overrides):
    vit = ViTConfig(image_size=32, patch_size=8, depth=2, dim=32, heads=4)
    rein = ReinConfig(c=32, depth=2, m=6, r=2, c_prime=8)
    head = HeadConfig(num_classes=6, embed_dim=16, num_queries=6)
    from reinlab.train import TrainConfig

    base = dict(vit=vit, head=head, rein=rein, mode=mode, iterations=20,
                batch_size=2, eval_interval=20, loss_window=10,
                data_root=str(root), seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------


def test_parameter_budget_reproduction():
    large = ViTConfig(image_size=512, patch_size=16, depth=24, dim=1024, heads=16)
    huge = ViTConfig(image_size=512, patch_size=16, depth=32, dim=1280, heads=16)

    def rein(variant, c, depth):
        return ReinConfig.from_variant(variant, c=c, depth=depth, m=100, r=16,
                                       c_prime=256)

    got = {
        "lora": count_trainable(large, rein("rein-lora", 1024, 24), "rein").total,
        "share": count_trainable(large, rein("rein-share", 1024, 24), "rein").total,
        "link": count_trainable(large, rein("rein-link", 1024, 24), "rein").total,
        "core": count_trainable(large, rein("rein-core", 1024, 24), "rein").total,
        "lora-huge": count_trainable(huge, rein("rein-lora", 1280, 32), "rein").total,
        "freeze": count_trainable(large, rein("rein-lora", 1024, 24), "freeze").total,
    }
    want = {"lora": 2_990_080, "share": 5_016_064, "link": 59_332_864,
            "core": 52_838_400, "lora-huge": 4_510_720, "freeze": 0}
    _report("parameter-budget reproduction", got == want,
            f"exact integers {got}")


def test_enumeration_construction_agreement():
    rng = np.random.default_rng(0)
    variants = sorted(A.VARIANTS)
    mismatches = []
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
        counted = [(r.name, r.shape) for r in count_trainable(vit, rein, mode).rows]
        live = [(n, t.shape) for n, t, c in model.named_tensors()
                if t.requires_grad and c != "head"]
        if counted != live:
            mismatches.append((trial, len(counted), len(live)))
    _report("enumeration-construction agreement", not mismatches,
            f"10 random configs, mismatches={mismatches}")


def test_identity_at_init():
    vit = ViTConfig(image_size=32, patch_size=8, depth=2, dim=32, heads=4)
    rein = ReinConfig(c=32, depth=2, m=6, r=2, c_prime=8)
    head = HeadConfig(num_classes=6, embed_dim=16, num_queries=6)
    rein_model = SegModel(TrainConfig(vit=vit, head=head, rein=rein, mode="rein", seed=11))
    freeze_model = SegModel(TrainConfig(vit=vit, head=head, rein=rein, mode="freeze",
                                        seed=11))
    adapter = rein_model.adapter
    tokens = [adapter.tokens(i) for i in (1, 2)]

    def hook(i, f):
        return adapter(i, f, tokens[i - 1])

    rng = np.random.default_rng(123)
    ok = True
    for _ in range(20):
        img = rng.uniform(0, 1, (1, 3, 32, 32)).astype(np.float32)
        taps_r = rein_model.backbone.forward(img, hook=hook)
        taps_f = freeze_model.backbone.forward(img)
        for tr, tf in zip(taps_r, taps_f):
            ok &= tr.data.tobytes() == tf.data.tobytes()
        pr = rein_model.forward_rows(img).data.tobytes()
        pf = freeze_model.forward_rows(img).data.tobytes()
        ok &= pr == pf
    _report("identity-at-init", ok,
            "tapped features and fused logits bitwise equal on 20 images")


def test_gradient_correctness():
    worst = run_gradient_suite(seeds=(1, 2, 3, 4, 5))
    max_err = max(worst.values())
    _report("gradient correctness", max_err <= 1e-3,
            f"{len(worst)} tensor classes, 5 seeds, max rel err {max_err:.2e}")


def test_frozen_backbone_integrity(small_benchmark):
    cfg = small_config(small_benchmark, iterations=100, eval_interval=100)
    from reinlab.train import build_model

    reference = state_bytes(build_model(cfg).backbone)
    ckpt, _ = train(cfg)
    trained_bytes = b"".join(
        arr.tobytes() for name, (arr, comp) in ckpt.tensors.items()
        if comp == "backbone")
    _report("frozen-backbone integrity", trained_bytes == reference,
            "backbone bytes unchanged after 100 rein-mode steps")


def test_row_mass_property():
    rng = np.random.default_rng(42)
    ok = True
    worst_tail, worst_row = 0.0, 0.0
    for _ in range(1000):
        n, m, c = rng.integers(2, 8), rng.integers(2, 8), rng.integers(4, 16)
        f = Tensor(rng.standard_normal((n, c)))
        tok = Tensor(rng.standard_normal((m, c)))
        s = A.similarity_map(f, tok, int(c)).data.astype(np.float64)
        tail = s[:, 1:].sum(axis=1)
        ok &= bool(np.all(tail >= 0.0) and np.all(tail < 1.0))
        worst_tail = max(worst_tail, float(tail.max()))
        worst_row = max(worst_row, float(np.abs(s.sum(axis=1) - 1.0).max()))
        ok &= worst_row <= 1e-6
    _report("row-mass property", ok,
            f"1000 draws, max excluded-row mass {worst_tail:.6f}, "
            f"max |row sum - 1| {worst_row:.1e}")


@pytest.mark.slow
def test_desk_scale_generalization_trend(desk_benchmark):
    seeds = (1, 2, 3, 4, 5)
    results = {}
    for seed in seeds:
        for mode in ("full", "freeze", "rein"):
            cfg = desk_config(data_root=desk_benchmark, mode=mode, seed=seed,
                              iterations=2000, eval_interval=2000)
            _, log = train(cfg)
            row = log.rows[-1]
            results[(mode, seed)] = (row.train_loss, row.test_miou)
            print(f"  trend run mode={mode:6s} seed={seed}: "
                  f"loss={row.train_loss:.4f} test_miou={row.test_miou:.4f}",
                  flush=True)
    miou_wins = sum(results[("rein", s)][1] >= results[("freeze", s)][1]
                    for s in seeds)
    loss_wins = sum(
        results[("full", s)][0] <= results[("rein", s)][0] <=
        results[("freeze", s)][0]
        for s in seeds)
    _report("desk-scale generalization trend",
            miou_wins >= 4 and loss_wins >= 4,
            f"rein>=freeze target mIoU in {miou_wins}/5 seeds; "
            f"full<=rein<=freeze train loss in {loss_wins}/5 seeds")


def test_swap_fidelity(small_benchmark):
    base_cfg = small_config(small_benchmark, iterations=30, eval_interval=30,
                            seed=3, backbone_seed=9)
    donor_cfg = small_config(small_benchmark, iterations=30, eval_interval=30,
                             seed=4, backbone_seed=9)
    base, _ = train(base_cfg)
    donor, _ = train(donor_cfg)
    swapped = swap_adapter(base, donor)
    r_donor = evaluate(donor, small_benchmark, "test")
    r_swapped = evaluate(swapped, small_benchmark, "test")
    same = (r_donor.miou == r_swapped.miou and
            str(r_donor.per_class) == str(r_swapped.per_class))
    _report("swap fidelity", same,
            f"swapped mIoU {r_swapped.miou:.6f} == donor {r_donor.miou:.6f}")


def test_checkpoint_roundtrip(small_benchmark):
    cfg = small_config(small_benchmark, iterations=5, eval_interval=5)
    ckpt, _ = train(cfg)
    raw = ckpt.to_bytes()
    ok = Checkpoint.from_bytes(raw).to_bytes() == raw
    rejected = 0
    for cut in (4, 16, len(raw) // 3, len(raw) - 3):
        try:
            Checkpoint.from_bytes(raw[:cut])
        except ParseError:
            rejected += 1
    _report("checkpoint round-trip", ok and rejected == 4,
            f"save-load-save byte-identical; {rejected}/4 truncations rejected")


def test_acceptance_lines_survive_output_capture():
    # pytest's default fd capture hides the printed lines; the summary hook
    # in conftest.py must bring them back without ``-s``
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "row_mass", str(Path(__file__).resolve())],
        cwd=repo, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "ACCEPTANCE PASS | row-mass property" in run.stdout
