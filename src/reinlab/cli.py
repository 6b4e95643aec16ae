"""Command-line entry point.

Subcommands: gen-data, train, eval, audit-params, gradcheck, swap-adapter.
Exit codes: 0 success, 1 usage error, 2 runtime failure. All randomness
flows from --seed; every run that produces files also writes a
resolved-config snapshot next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # runtime failures
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="reinlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    p = sub.add_parser("gen-data",
                       help="generate the synthetic shift benchmark")
    p.add_argument("--out", required=True, help="dataset root directory")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--train", type=int, default=200)
    p.add_argument("--val", type=int, default=50)
    p.add_argument("--test", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="run fine-tuning")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--mode", choices=("full", "freeze", "rein"))
    p.add_argument("--variant", choices=("rein-core", "rein-link",
                                         "rein-share", "rein-lora"))
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--backbone-seed", type=int,
                   help="train on a random backbone drawn from this seed "
                        "instead of the config's pretrained one")

    p = sub.add_parser("eval",
                       help="evaluate a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", help="optional directory for the report JSON")

    p = sub.add_parser("audit-params",
                       help="closed-form trainable-parameter report")
    p.add_argument("--c", type=int, required=True, help="backbone width")
    p.add_argument("--layers", type=int, required=True, help="backbone depth")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--c-prime", type=int, default=256)
    p.add_argument("--variant", default="rein-lora",
                   choices=("rein-core", "rein-link", "rein-share", "rein-lora"))
    p.add_argument("--mode", default="rein", choices=("full", "freeze", "rein"))
    p.add_argument("--image-size", type=int, default=512)
    p.add_argument("--patch-size", type=int, default=16)
    p.add_argument("--heads", type=int, default=16)
    p.add_argument("--csv", help="also write the report as CSV here")

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all model gradients")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of consecutive seeds to run")

    p = sub.add_parser("swap-adapter",
                       help="graft a donor's adapter+head onto a base backbone")
    p.add_argument("--base", required=True)
    p.add_argument("--donor", required=True)
    p.add_argument("--out", required=True, help="output checkpoint path")
    return parser


def _write_snapshot(out_dir, payload):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved_config.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_gen_data(args):
    from .data import generate_benchmark

    manifest = generate_benchmark(args.out, k=args.k, size=args.size,
                                  counts=(args.train, args.val, args.test),
                                  seed=args.seed)
    _write_snapshot(args.out, {"command": "gen-data", "k": args.k,
                               "size": args.size, "seed": args.seed,
                               "counts": [args.train, args.val, args.test]})
    total = sum(s["count"] for s in manifest["splits"].values())
    print(f"wrote {total} scenes to {args.out}")
    return 0


def _cmd_train(args):
    from .adapter import VARIANTS
    from .train import TrainConfig, desk_config, train

    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = TrainConfig.from_dict(json.load(fh))
    else:
        cfg = desk_config()
    # replace() runs TrainConfig's checks on the final field values
    flags = {"data_root": args.data, "mode": args.mode,
             "iterations": args.iterations, "seed": args.seed}
    changes = {k: v for k, v in flags.items() if v is not None}
    if args.variant and cfg.rein is not None:
        changes["rein"] = replace(cfg.rein, **VARIANTS[args.variant])
    if args.backbone_seed is not None:
        changes.update(backbone_seed=args.backbone_seed, pretrain=None)
    cfg = replace(cfg, **changes)

    ckpt, metrics = train(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt.save(out / "checkpoint.ckpt")
    metrics.write_csv(out / "metrics.csv")
    _write_snapshot(out, {"command": "train", "config": cfg.to_dict(),
                          "config_hash": cfg.config_hash()})
    last = metrics.rows[-1]
    print(f"finished {cfg.mode} ({cfg.iterations} iters): "
          f"train_loss={last.train_loss:.4f} val_miou={last.val_miou:.4f} "
          f"test_miou={last.test_miou:.4f} params={last.params}")
    return 0


def _cmd_eval(args):
    from .checkpoint import Checkpoint
    from .train import evaluate

    report = evaluate(Checkpoint.load(args.ckpt), args.data, args.split)
    for k, iou in enumerate(report.per_class):
        shown = "absent" if iou != iou else f"{iou:.4f}"
        print(f"class {k}: IoU {shown}")
    print(f"mIoU ({args.split}, {report.n_images} images): {report.miou:.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"eval_{args.split}.json", "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_snapshot(out, {"command": "eval", "ckpt": str(args.ckpt),
                              "split": args.split})
    return 0


def _cmd_audit(args):
    from .adapter import ReinConfig
    from .audit import count_trainable
    from .vit import ViTConfig

    vit = ViTConfig(image_size=args.image_size, patch_size=args.patch_size,
                    depth=args.layers, dim=args.c, heads=args.heads)
    rein = ReinConfig.from_variant(args.variant, c=args.c, depth=args.layers,
                                   m=args.m, r=args.r, c_prime=args.c_prime)
    report = count_trainable(vit, rein, args.mode)
    print(report.to_text())
    print(f"total trainable parameters: {report.total:,}")
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    return 0


def _cmd_gradcheck(args):
    from .gradcheck import run_gradient_suite

    seeds = tuple(range(args.seed, args.seed + args.seeds))
    worst = run_gradient_suite(seeds=seeds)
    max_err = max(worst.values())
    ok = max_err <= 1e-3
    print(f"checked {len(worst)} tensors over seeds {list(seeds)}")
    print(f"max relative error {max_err:.3e} (tolerance 1e-3): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_swap(args):
    from .checkpoint import Checkpoint, swap_adapter

    swapped = swap_adapter(Checkpoint.load(args.base),
                           Checkpoint.load(args.donor))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    swapped.save(out)
    print(f"wrote swapped checkpoint to {out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "audit-params": _cmd_audit,
    "gradcheck": _cmd_gradcheck,
    "swap-adapter": _cmd_swap,
}


def main(argv=None) -> int:
    # cap BLAS/OpenMP pools before numpy spins them up; default single
    # threaded for determinism
    threads = os.environ.get("REINLAB_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:  # noqa: BLE001 - boundary: report and set exit code
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
