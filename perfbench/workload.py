"""One desk workload in one process: set up, time whole rounds, check outputs.

Started by run.py, which pins the BLAS threads and puts the checkout's
``src/`` on PYTHONPATH. A round is one call of a public entry point:

  finetune-<mode>  reinlab.train.train on the 64 px source->target scenes,
                   from the shared backbone of a shortened desk recipe
  pretrain         reinlab.pretrain.pretrain_backbone, fresh scenes per step
  eval-<mode>      reinlab.train.evaluate of a checkpoint file, from path
                   to report, on a large target split

Rounds repeat until --seconds have passed; all rounds of a run are the same
call on the same inputs, so they must return the same bytes. The first
round's outputs are checked against the independent reference in
reference.py. With --trace 1 the rounds run under tracing.Tracer and the
per-layer metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import reference
from tracing import Tracer

RECIPE_STEPS = 64           # the desk pretraining recipe, cut short
FINETUNE_ITERATIONS = 200
SCENE_COUNTS = (200, 50, 50)  # source train / source val / target test
PRETRAIN_STEPS = 128
EVAL_IMAGES = 256
SAMPLE_IMAGES = 4           # images compared with the reference forward
FD_STEP = 1e-5
# float64 central differences of an O(1) loss: truncation ~ h^2, rounding
# ~ 1e-16 / h, both far below this
FD_TOLERANCE = 1e-6
# float32 forward against float64, relative to the largest logit; seeds
# 1-10 of the eval checkpoints reach 2.7e-6, trained fine-tunes 3e-7
LOGIT_TOLERANCE = 2e-5


def read_pnm(path):
    """uint8 pixels of a binary PPM/PGM as the program writes it: three
    newline-terminated header lines, then the raster."""
    magic, dims, maxval, body = Path(path).read_bytes().split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    channels = {b"P6": 3, b"P5": 1}[magic]
    if int(maxval) != 255 or len(body) != w * h * channels:
        raise ValueError(f"{path}: unexpected header or raster size")
    return np.frombuffer(body, np.uint8).reshape(h, w, channels)


def read_split(root, split):
    """(images [N,3,H,W] float32 in [0, 1], labels [N,H,W] uint8)."""
    ppms = sorted((Path(root) / split).glob("*.ppm"))
    images = np.stack([read_pnm(p).transpose(2, 0, 1) for p in ppms]) / np.float32(255)
    labels = np.stack([read_pnm(p.with_suffix(".pgm"))[:, :, 0] for p in ppms])
    return images, labels


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Check:
    """Named pass/fail results of one run."""

    def __init__(self):
        self.results = []

    def __call__(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)


def check_forward(check, rtrain, ckpt, ckpt_bytes, images, labels, reported_miou,
                  split):
    """The program's logits against the reference on a sample, and its
    labels, in evaluate()'s batches of 8, recounted to the reported mIoU."""
    tensors, meta = reference.parse_checkpoint(ckpt_bytes)
    program = rtrain.model_from_meta(ckpt.meta)
    ckpt.load_into(program)
    sample = images[:SAMPLE_IMAGES]
    got = program.forward_rows(sample).data.astype(np.float64)
    want = reference.forward_logits(tensors, meta["config"], sample).reshape(got.shape)
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max()) / scale
    check(f"reference_logits_{split}", err <= LOGIT_TOLERANCE, f"max rel err {err:.2e}")
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = (top2[:, 1] - top2[:, 0]) > 2 * LOGIT_TOLERANCE * scale
    agree = got.argmax(1) == want.argmax(1)
    check(f"reference_labels_{split}", agree[clear].all(),
          f"{int((~agree[clear]).sum())} of {int(clear.sum())} clear pixels differ")
    preds = np.concatenate([program.predict_labels(images[i:i + 8])
                            for i in range(0, len(images), 8)])
    recount = reference.miou(preds, labels, meta["config"]["head"]["num_classes"])
    check(f"miou_recount_{split}", abs(recount - reported_miou) <= 1e-12,
          f"{recount:.6f} vs reported {reported_miou:.6f}")


def check_directional_fd(check, rtrain, ckpt, images, labels, seed):
    """Tape.backward in float64 against a central difference along one
    seeded random unit direction over every trainable tensor."""
    from reinlab import tensor as T

    with T.using_dtype(np.float64):
        model = rtrain.model_from_meta(ckpt.meta)
        ckpt.load_into(model)
        params = [t for _, t in model.trainable_tensors()]
        rng = np.random.default_rng((seed, 99))
        dirs = [rng.standard_normal(t.shape) for t in params]
        norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
        dirs = [d / norm for d in dirs]
        images = images.astype(np.float64)
        with T.Tape() as tape:
            tape.backward(model.batch_loss(images, labels))
        analytic = sum(float((t.grad * d).sum()) for t, d in zip(params, dirs))
        base = [t.data.copy() for t in params]

        def loss_at(step):
            for t, b, d in zip(params, base, dirs):
                t.data[...] = b + step * d
            return model.batch_loss(images, labels).item()

        numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2 * FD_STEP)
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
    check("directional_fd", rel <= FD_TOLERANCE,
          f"{analytic:.6e} vs {numeric:.6e}, rel {rel:.1e}")


# ---------------------------------------------------------------------------
# workloads


class Finetune:
    """Fine-tune one mode from the shared short-recipe backbone."""

    setup_repeats = 3  # the 1 s recipe dominates every repeat

    def __init__(self, mode, seed):
        from reinlab import data, pretrain, train

        self.data, self.pretrain, self.train = data, pretrain, train
        self.mode, self.seed = mode, seed

    def setup(self, directory):
        self.root = directory
        self.data.generate_benchmark(directory, counts=SCENE_COUNTS, seed=self.seed)
        self.cfg = self.train.desk_config(
            directory, mode=self.mode, seed=self.seed, iterations=FINETUNE_ITERATIONS,
            pretrain=self.pretrain.PretrainConfig(steps=RECIPE_STEPS, seed=self.seed))
        # the recipe is memoised per process; every repeat pays for it
        self.pretrain._cached.cache_clear()
        self.pretrain.pretrained_backbone(self.cfg.vit, self.cfg.pretrain)

    def run(self):
        ckpt, log = self.train.train(self.cfg)
        return self.cfg.iterations * self.cfg.batch_size, (ckpt, log)

    def fingerprint(self, result):
        ckpt, log = result
        return digest(ckpt.to_bytes() + log.to_csv_bytes())

    def check(self, check, result):
        ckpt, log = result
        row = log.rows[-1]
        ckpt_bytes = ckpt.to_bytes()
        config = self.cfg.to_dict()
        want = reference.trainable_params(config)
        check("params_closed_form", row.params == want, f"{row.params} vs {want}")
        recipe, _ = reference.parse_checkpoint(
            self.pretrain.pretrained_backbone(self.cfg.vit, self.cfg.pretrain).to_bytes())
        tensors, _ = reference.parse_checkpoint(ckpt_bytes)
        same = all(tensors[n][0].tobytes() == a.tobytes() for n, (a, _) in recipe.items())
        if self.mode == "full":
            check("backbone_trained", not same, "full mode moved the backbone")
        else:
            check("backbone_is_recipe", same, "frozen backbone equals the recipe bytes")
        for split, reported in (("val", row.val_miou), ("test", row.test_miou)):
            images, labels = read_split(self.root, split)
            check_forward(check, self.train, ckpt, ckpt_bytes, images, labels,
                          reported, split)
        check_directional_fd(check, self.train, ckpt, images[:2], labels[:2], self.seed)
        return [f"train_loss {row.train_loss:.6f} nats", f"val_miou {row.val_miou:.6f}",
                f"target_miou {row.test_miou:.6f}", f"params {row.params}"]


class Pretrain:
    """The masked-patch recipe for a fixed step count."""

    setup_repeats = 5  # a 0.07 s import: the median of 5 is steady

    def __init__(self, mode, seed):
        from reinlab import pretrain, train

        self.pretrain = pretrain
        self.vit = train.desk_config().vit
        self.cfg = pretrain.PretrainConfig(steps=PRETRAIN_STEPS, seed=seed)

    def setup(self, directory):
        # no inputs to prepare: the recipe draws its own scenes, so the
        # workload's set-up is loading the program in a fresh interpreter
        subprocess.run([sys.executable, "-c", "import reinlab.pretrain"],
                       check=True)

    def run(self):
        ckpt = self.pretrain.pretrain_backbone(self.vit, self.cfg)
        return self.cfg.steps * self.pretrain.RECIPE["batch_size"], ckpt

    def fingerprint(self, ckpt):
        return digest(ckpt.to_bytes())

    def check(self, check, ckpt):
        first, last = ckpt.meta["recon_loss_first"], ckpt.meta["recon_loss_last"]
        check("recon_loss_fell", last < first, f"{first:.6f} -> {last:.6f}")
        tensors, _ = reference.parse_checkpoint(ckpt.to_bytes())
        backbone = b"".join(a.tobytes() for a, _ in tensors.values())
        count = len(backbone) // 4
        want = reference.backbone_params(ckpt.meta["vit"])
        check("backbone_size", count == want, f"{count} vs {want}")
        return [f"recon_loss {last:.6f} MSE", f"digest of the backbone bytes: {digest(backbone)}"]


class Eval:
    """evaluate() of a seeded random checkpoint file on a large target split."""

    # the first two set-ups in a fresh process take 0.18 s, later ones
    # 0.11 s; the median of 5 is a warm one
    setup_repeats = 5

    def __init__(self, mode, seed):
        from reinlab import checkpoint, data, train

        self.checkpoint, self.data, self.train = checkpoint, data, train
        self.mode, self.seed = mode, seed

    def setup(self, directory):
        self.root, self.path = directory, directory / f"{self.mode}.ckpt"
        self.data.generate_benchmark(directory, counts=(0, 0, EVAL_IMAGES), seed=self.seed)
        self.cfg = self.train.desk_config(directory, mode=self.mode, seed=self.seed)
        model = self.train.build_model(replace(self.cfg, pretrain=None))
        ckpt = self.checkpoint.Checkpoint.from_model(model, {"config": self.cfg.to_dict()})
        rng = np.random.default_rng((self.seed, 7))
        for name, (arr, _) in ckpt.tensors.items():
            noise = rng.standard_normal(arr.shape)
            if arr.ndim == 2:  # x @ W weights: unit gain over the fan-in
                arr[...] = noise / np.sqrt(arr.shape[0])
            else:
                arr[...] = (1.0 if name.endswith(".g") else 0.0) + 0.1 * noise
        self.drawn = ckpt.to_bytes()
        ckpt.save(self.path)

    def run(self):
        report = self.train.evaluate(self.checkpoint.Checkpoint.load(self.path), self.root)
        return report.n_images, report

    def fingerprint(self, report):
        return json.dumps(report.as_dict(), sort_keys=True)

    def check(self, check, report):
        stored = self.path.read_bytes()
        check("checkpoint_file", stored == self.drawn, "saved bytes equal the draw")
        check("n_images", report.n_images == EVAL_IMAGES, f"{report.n_images}")
        images, labels = read_split(self.root, "test")
        check_forward(check, self.train, self.checkpoint.Checkpoint.load(self.path),
                      stored, images, labels, report.miou, "test")
        return [f"target_miou {report.miou:.6f}"]


WORKLOADS = {
    "finetune-full": (Finetune, "full"),
    "finetune-freeze": (Finetune, "freeze"),
    "finetune-rein": (Finetune, "rein"),
    "pretrain": (Pretrain, None),
    "eval-rein": (Eval, "rein"),
    "eval-freeze": (Eval, "freeze"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    import reinlab

    if Path(reinlab.__file__).resolve().parent != root / "src" / "reinlab":
        print(f"error: reinlab imported from {reinlab.__file__}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    out = root / ".perfbench_out"
    work = out / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        kind, mode = WORKLOADS[args.workload]
        wl = kind(mode, args.seed)
        setups = []
        for rep in range(wl.setup_repeats):  # each into a fresh directory
            directory = work / f"setup{rep}"
            t0 = time.perf_counter()
            wl.setup(directory)
            setups.append(time.perf_counter() - t0)

        run = tracer.wrap(wl.run, "bench.round") if tracer else wl.run
        rates, first, first_print = [], None, None
        attempted = failed = 0
        check = Check()
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < args.seconds:
            attempted += 1
            try:
                if tracer:
                    tracer.recording = True
                t0 = time.perf_counter()
                images, result = run()
                dt = time.perf_counter() - t0
            except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
                failed += 1
                traceback.print_exc()
                continue
            finally:
                if tracer:
                    tracer.recording = False
            rates.append(images / dt)
            fp = wl.fingerprint(result)
            if first is None:
                first, first_print, n_images = result, fp, images
            elif fp != first_print:
                check(f"deterministic_round_{attempted}", False, "output bytes changed")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        threads = len(os.listdir("/proc/self/task"))
        if first is None:
            print("error: every round failed", file=sys.stderr)
            return 2
        info = wl.check(check, first)
        if tracer:
            tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = tracer.metrics(n_images * len(rates))
        else:
            metrics = {"setup_s": statistics.median(setups),
                       "img_per_s": statistics.median(rates),
                       "peak_rss_mb": peak_rss_mb}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if tracer else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed}: {len(rates)} rounds, "
          f"os_threads {threads}")
    for line in info:
        print(line)
    for name, ok, detail in check.results:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(json.dumps({"correct": check.ok, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": units[m]}
                                  for m, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
