"""CLI dispatch, exit codes, determinism of outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reinlab
from conftest import tiny_train_config
from reinlab.cli import main


def test_audit_params_reference_value(capsys):
    code = main(["audit-params", "--c", "1024", "--layers", "24", "--m", "100",
                 "--r", "16", "--c-prime", "256", "--variant", "rein-lora"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2,990,080" in out


def test_audit_params_csv_output(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    code = main(["audit-params", "--c", "64", "--layers", "4", "--m", "16",
                 "--r", "4", "--c-prime", "16", "--csv", str(csv_path)])
    assert code == 0
    assert csv_path.read_text().startswith("name,shape,count,component")


@pytest.mark.parametrize("flags,field", [
    (["--r", "-1"], "r="),
    (["--heads", "0"], "heads"),
    (["--patch-size", "0"], "patch_size"),
    (["--layers", "0"], "depth"),
], ids=["r", "heads", "patch-size", "layers"])
def test_audit_params_rejects_out_of_range_geometry(flags, field, capsys):
    argv = ["audit-params", "--c", "1024", "--layers", "24"] + flags
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert "total trainable parameters" not in captured.out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_rejected(capsys):
    assert main(["audit-params", "--c", "8", "--layers", "1", "--wat"]) == 1


def test_gradcheck_passes(capsys):
    code = main(["gradcheck", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "max relative error" in out


def test_gen_data_deterministic(tmp_path, capsys):
    import hashlib

    def digest(p):
        h = hashlib.sha256()
        for f in sorted(p.rglob("*")):
            if f.is_file():
                h.update(f.relative_to(p).as_posix().encode())
                h.update(f.read_bytes())
        return h.hexdigest()

    args = ["gen-data", "--k", "6", "--size", "32", "--train", "3", "--val",
            "1", "--test", "1", "--seed", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert (tmp_path / "a" / "resolved_config.json").exists()


def test_train_eval_swap_cycle(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--k", "6", "--size", "32",
                 "--train", "4", "--val", "2", "--test", "2", "--seed", "1"]) == 0

    cfg = {
        "vit": {"image_size": 32, "patch_size": 8, "depth": 2, "dim": 32,
                "heads": 4, "mlp_ratio": 4.0, "tap_layers": [1, 2]},
        "rein": {"c": 32, "depth": 2, "m": 6, "r": 2, "c_prime": 8,
                 "use_link": True, "use_share": True, "use_lora": True},
        "head": {"num_classes": 6, "embed_dim": 16, "num_queries": 6,
                 "use_query_head": True},
        "mode": "rein", "iterations": 4, "batch_size": 2, "eval_interval": 4,
        "loss_window": 4, "seed": 0, "data_root": "",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    run_a = tmp_path / "runA"
    run_b = tmp_path / "runB"
    base_args = ["train", "--data", str(data), "--config", str(cfg_path)]
    assert main(base_args + ["--out", str(run_a)]) == 0
    assert main(base_args + ["--out", str(run_b), "--seed", "5"]) == 0
    assert (run_a / "checkpoint.ckpt").exists()
    assert (run_a / "metrics.csv").exists()
    assert json.loads((run_a / "resolved_config.json").read_text())[
        "config"]["mode"] == "rein"

    assert main(["eval", "--ckpt", str(run_a / "checkpoint.ckpt"), "--data",
                 str(data), "--split", "test"]) == 0
    out = capsys.readouterr().out
    assert "mIoU" in out

    swapped = tmp_path / "swapped.ckpt"
    assert main(["swap-adapter", "--base", str(run_a / "checkpoint.ckpt"),
                 "--donor", str(run_b / "checkpoint.ckpt"), "--out",
                 str(swapped)]) == 0
    assert swapped.exists()


def test_eval_out_writes_report_and_snapshot(tiny_benchmark, tmp_path, capsys):
    from reinlab.train import train

    ckpt, _ = train(tiny_train_config(tiny_benchmark, iterations=2))
    ckpt.save(tmp_path / "run.ckpt")
    out = tmp_path / "report"
    assert main(["eval", "--ckpt", str(tmp_path / "run.ckpt"), "--data",
                 str(tiny_benchmark), "--split", "val", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    report = json.loads((out / "eval_val.json").read_text())
    assert printed == f"mIoU (val, 3 images): {report['miou']:.4f}"
    assert report["n_images"] == 3 and len(report["per_class"]) == 6
    snapshot = json.loads((out / "resolved_config.json").read_text())
    assert snapshot == {"command": "eval", "ckpt": str(tmp_path / "run.ckpt"),
                        "split": "val"}


def test_eval_missing_checkpoint_is_runtime_error(tmp_path, capsys):
    code = main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"), "--data",
                 str(tmp_path)])
    assert code == 2


def test_backbone_seed_flag_trains_a_random_desk_backbone(tmp_path, monkeypatch,
                                                          capsys):
    from reinlab import train as train_mod

    def refuse(*_args, **_kw):
        raise AssertionError("pretraining ran despite --backbone-seed")

    monkeypatch.setattr(train_mod, "pretrained_backbone", refuse)
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--k", "6", "--size", "64",
                 "--train", "2", "--val", "1", "--test", "1", "--seed", "1"]) == 0
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--mode",
                 "full", "--iterations", "1", "--backbone-seed", "3"]) == 0
    cfg = json.loads((out / "resolved_config.json").read_text())["config"]
    assert cfg["pretrain"] is None and cfg["backbone_seed"] == 3


def test_variant_flag_sets_the_desk_adapter(tmp_path, capsys):
    from dataclasses import asdict

    from reinlab.train import desk_config

    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--k", "6", "--size", "64",
                 "--train", "2", "--val", "1", "--test", "1", "--seed", "1"]) == 0
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--variant",
                 "rein-core", "--iterations", "1", "--backbone-seed", "3"]) == 0
    cfg = json.loads((out / "resolved_config.json").read_text())["config"]
    assert cfg["rein"] == asdict(desk_config(variant="rein-core").rein)


def test_train_validates_flags_before_writing(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--k", "6", "--size", "64",
                 "--train", "2", "--val", "1", "--test", "1", "--seed", "1"]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--out", str(out),
                 "--iterations", "-3", "--backbone-seed", "0"])
    assert code != 0
    assert "iterations" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_train_validates_config_file_before_writing(tiny_benchmark, tmp_path, capsys):
    cfg = tiny_train_config(tiny_benchmark).to_dict()
    cfg["eval_interval"] = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--data", str(tiny_benchmark),
                 "--out", str(out)]) != 0
    assert "eval_interval" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run_python(code, **env_extra):
    """Run ``code`` in a fresh interpreter whose environment sets no BLAS
    thread variable; returns the last line it prints."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    src = str(Path(reinlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_numpy_and_sets_no_thread_variable():
    out = _run_python(
        "import os, sys, reinlab\n"
        f"print(sorted(v for v in {_BLAS_VARS!r} if v in os.environ), "
        "'numpy' in sys.modules, reinlab.Tensor is reinlab.tensor.Tensor)")
    assert out == "[] False True"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_reinlab_threads_caps_blas_from_the_cli():
    out = _run_python(
        "import os\n"
        "from reinlab.cli import main\n"
        "assert main(['audit-params', '--c', '64', '--layers', '4', '--m', '16',\n"
        "             '--r', '4', '--c-prime', '16']) == 0\n"
        "import numpy as np\n"
        "a = np.ones((512, 512))\n"
        "a @ a\n"
        "print(len(os.listdir('/proc/self/task')))",
        REINLAB_THREADS="1")
    assert out == "1"
