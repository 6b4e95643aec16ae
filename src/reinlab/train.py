"""Fine-tuning harness: config, training loop, evaluation, metrics logging.

All randomness flows from the config seed through fixed per-purpose rng
streams, so a run is reproducible byte for byte: identical seeds give
identical metrics logs and identical checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import signal
import threading
from collections import deque
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .adapter import ReinConfig
from .checkpoint import Checkpoint
from .data import load_split, pixel_floats, read_manifest
from .errors import ConfigError, NumericError, ReinlabError
from .head import HeadConfig, confusion_matrix, iou_from_confusion
from .model import MODES, TRAINED, SegModel
from .optim import AdamW
from .pretrain import PretrainConfig, pretrained_backbone
from .tensor import Tape
from .vit import ViTConfig

_STREAM_DATA = 4
# ``full`` mode fine-tunes in LP-FT form (arXiv 2202.10054): over this leading
# fraction of the iterations only the head trains. A fresh head's first
# gradients fit the class prior and are the same at every pixel; if the
# backbone trained on them, Adam would turn them into a common feature offset
# that saturates the query masks at the class-prior plateau.
PROBE_FRACTION = 0.25
PROBE_TRAINED = ("head",)


@dataclass
class TrainConfig:
    vit: ViTConfig
    head: HeadConfig
    rein: ReinConfig | None = None
    mode: str = "rein"
    iterations: int = 2000
    batch_size: int = 4
    lr_backbone: float = 1e-5
    lr_head_and_rein: float = 1e-4
    weight_decay: float = 0.01
    seed: int = 0
    backbone_seed: int | None = None  # random backbone draw (no recipe)
    pretrain: PretrainConfig | None = None  # recipe of the shared backbone
    data_root: str = ""
    eval_interval: int = 500
    loss_window: int = 200
    augment: bool = True

    def __post_init__(self):
        """Every rule of a config, how its sections fit included; it runs at
        construction, so before any data loads."""
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; pick from {MODES}")
        for name, low in (("iterations", 0), ("batch_size", 1), ("eval_interval", 1),
                          ("loss_window", 1), ("seed", 0), ("backbone_seed", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if self.pretrain is not None and self.backbone_seed is not None:
            raise ConfigError("backbone_seed draws a random backbone; a "
                              "pretrained one comes from its recipe's seed")
        if self.mode != "rein":
            return
        if self.rein is None:
            raise ConfigError("rein mode requires a rein config")
        if (self.rein.c, self.rein.depth) != (self.vit.dim, self.vit.depth):
            raise ConfigError(f"rein: c={self.rein.c}, depth={self.rein.depth} must equal "
                              f"vit dim={self.vit.dim}, depth={self.vit.depth}")
        if self.rein.use_link and self.head.num_queries != self.rein.m:
            raise ConfigError(f"head: num_queries={self.head.num_queries} must equal "
                              f"rein m={self.rein.m} when queries are linked")

    def to_dict(self):
        d = asdict(self)
        d["vit"]["tap_layers"] = list(d["vit"]["tap_layers"])
        return d

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``; an unknown or missing key, or a section
        that is neither an object nor null, raises ConfigError naming it."""
        d = _fields_of(cls, d, "config")
        d["vit"] = ViTConfig(**_fields_of(ViTConfig, d["vit"], "vit"))
        d["head"] = HeadConfig(**_fields_of(HeadConfig, d["head"], "head"))
        for key, kind in (("rein", ReinConfig), ("pretrain", PretrainConfig)):
            d[key] = None if d.get(key) is None else kind(**_fields_of(kind, d[key], key))
        return cls(**d)

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# JSON value kinds of the annotated config field types; a section field
# (a config dataclass) is checked by its own ``_fields_of`` call instead
_VALUE_KINDS = {
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a boolean"),
    "str": ((str,), "a string"),
    "tuple": ((list, tuple), "a list of integers"),
}


def _fields_of(kind, d, where):
    """A copy of ``d`` checked to hold every required field of the dataclass
    ``kind``, no other key, and values of the fields' JSON kinds."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    known = {f.name: f for f in fields(kind)}
    for key in d:
        if key not in known:
            raise ConfigError(f"{where}: unknown field {key!r}")
    for key, f in known.items():
        if key not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where}: missing field {key!r}")
            continue
        if f.type in _VALUE_KINDS and not _is_kind(d[key], f.type):
            raise ConfigError(f"{where}: field {key!r} must be "
                              f"{_VALUE_KINDS[f.type][1]}, got {d[key]!r}")
    return dict(d)


def _is_kind(value, type_name):
    """Whether a JSON value fits a field type; a bool is no number."""
    types, _ = _VALUE_KINDS[type_name]
    if isinstance(value, (list, tuple)) and tuple in types:
        return all(_is_kind(v, "int") for v in value)
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def desk_config(data_root="", mode="rein", variant="rein-lora", seed=0,
                iterations=2000, **overrides):
    """Default desk-scale benchmark setup: 64px scenes, 4-layer ViT.

    Every mode fine-tunes the backbone of one pretraining recipe, as every
    mode in the paper fine-tunes the same foundation model. After its
    head-only start (``PROBE_FRACTION``), ``full`` mode trains the backbone
    at the adapter-and-head rate, so ``full`` and ``rein`` differ only in
    which tensors train.
    """
    vit = ViTConfig(image_size=64, patch_size=8, depth=4, dim=64, heads=4)
    rein = ReinConfig.from_variant(variant, c=vit.dim, depth=vit.depth,
                                   m=16, r=4, c_prime=16)
    head = HeadConfig(num_classes=6, embed_dim=32, num_queries=rein.m)
    overrides.setdefault("pretrain", PretrainConfig())
    overrides.setdefault("lr_backbone", 1e-4)
    return TrainConfig(vit=vit, head=head, rein=rein, mode=mode, seed=seed,
                       iterations=iterations, data_root=str(data_root),
                       **overrides)


def build_model(cfg: TrainConfig) -> SegModel:
    """Model for ``cfg``; with a pretrain recipe set, its backbone is the
    recipe's output rather than a random draw."""
    model = SegModel(cfg)
    if cfg.pretrain is not None:
        pretrained_backbone(cfg.vit, cfg.pretrain).load_into(model, "backbone")
    return model


def model_from_meta(meta: dict) -> SegModel:
    """Architecture from checkpoint metadata; the checkpoint's own tensors
    are loaded next, so the pretraining recipe does not run."""
    if "config" not in meta:
        raise ConfigError("checkpoint metadata carries no model config")
    return build_model(replace(TrainConfig.from_dict(meta["config"]), pretrain=None))


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsRow:
    iteration: int
    train_loss: float
    val_miou: float
    test_miou: float
    params: int


@dataclass
class MetricsLog:
    rows: list = field(default_factory=list)

    def add(self, **kw):
        self.rows.append(MetricsRow(**kw))

    def to_csv_bytes(self) -> bytes:
        lines = ["iteration,train_loss,val_miou,test_miou,params"]
        for r in self.rows:
            lines.append(f"{r.iteration},{r.train_loss:.6f},{r.val_miou:.6f},"
                         f"{r.test_miou:.6f},{r.params}")
        return ("\n".join(lines) + "\n").encode()

    def write_csv(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_csv_bytes())


class TrainDiverged(NumericError):
    """Loss became non-finite; carries the metrics gathered so far."""

    def __init__(self, iteration, metrics):
        super().__init__(f"non-finite loss at iteration {iteration}")
        self.iteration = iteration
        self.metrics = metrics


@dataclass
class EvalReport:
    per_class: list
    miou: float
    n_images: int

    def as_dict(self):
        return {"per_class": [None if math.isnan(v) else v for v in self.per_class],
                "miou": self.miou, "n_images": self.n_images}


# ---------------------------------------------------------------------------
# evaluation


def evaluate_model(model: SegModel, samples, num_classes, batch=8) -> EvalReport:
    """Deterministic per-class IoU over loaded samples (uint8 pixels, as
    ``load_split`` holds them); each batch becomes floats in the process
    that counts it.

    The batches split into one share per CPU the process may use. The
    caller counts share 0; each other share is counted in a child process
    forked from the caller, since a forward is hundreds of short numpy
    steps that threads would serialise on the interpreter lock. A process
    running other Python threads, or with one share, counts every batch
    itself: a fork copies only the calling thread. Each share counts an
    integer confusion matrix, so the sum, and the report, equal those of a
    serial run. An exception raised in a child is raised here; a child that
    ends without a result raises ``ReinlabError``. No child outlives the
    call.
    """
    starts = range(0, len(samples), batch)
    workers = max(1, min(len(os.sched_getaffinity(0)), len(starts)))

    def count(share):
        cm = np.zeros((num_classes, num_classes), dtype=np.int64)
        for start in share:
            chunk = samples[start:start + batch]
            preds = model.predict_labels(pixel_floats(np.stack([s.image for s in chunk])))
            cm += confusion_matrix(preds, np.stack([s.label for s in chunk]), num_classes)
        return cm

    if workers < 2 or threading.active_count() > 1:
        cm = count(starts)
    else:
        cm = _forked_sum(count, [starts[j::workers] for j in range(workers)])
    ious, mean = iou_from_confusion(cm)
    return EvalReport(per_class=list(ious), miou=mean, n_images=len(samples))


def _forked_sum(count, shares):
    """Sum of ``count(share)`` over ``shares``: the first on the caller,
    each other in a forked child that sends its matrix through a pipe."""
    children = {}  # pid -> read end of the child's pipe
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(count, share, write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        total = count(shares[0])
        for pid in list(children):
            with children[pid] as pipe:
                blob = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if blob[:1] == b"E":
                exc = pickle.loads(blob[1:])
                exc.add_note(f"raised in evaluation child {pid}")
                raise exc
            if blob[:1] != b"M" or len(blob) != 1 + total.nbytes:
                raise ReinlabError(f"evaluation child {pid} ended without a result "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            total += np.frombuffer(blob[1:], dtype=total.dtype).reshape(total.shape)
        return total
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(count, share, write_fd):
    """A forked child's whole life: count ``share``, write ``M`` and the
    matrix, or ``E`` and the pickled exception, to the pipe, and exit
    without running the parent's cleanup."""
    status = 1
    try:
        try:
            blob = b"M" + count(share).tobytes()
        except BaseException as exc:  # sent to the caller, which raises it
            try:
                blob = b"E" + pickle.dumps(exc)
                pickle.loads(blob[1:])
            except Exception:  # an exception that does not round-trip
                blob = b"E" + pickle.dumps(ReinlabError(f"{type(exc).__name__}: {exc}"))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(blob)
        status = 0
    finally:
        os._exit(status)


def _check_dataset(manifest, cfg: TrainConfig):
    """ConfigError unless a dataset's classes and image size are the model's."""
    got = (manifest["k"], manifest["h"], manifest["w"])
    want = (cfg.head.num_classes, cfg.vit.image_size, cfg.vit.image_size)
    if got != want:
        raise ConfigError("dataset has {} classes of {}x{} images, model expects "
                          "{} classes of {}x{}".format(*got, *want))


def evaluate(ckpt: Checkpoint, data_root, split="test", batch=8) -> EvalReport:
    """Evaluate a checkpoint on one split of a stored benchmark."""
    manifest = read_manifest(data_root)
    model = model_from_meta(ckpt.meta)
    _check_dataset(manifest, model.cfg)
    ckpt.load_into(model)
    samples = load_split(data_root, split)
    return evaluate_model(model, samples, manifest["k"], batch=batch)


# ---------------------------------------------------------------------------
# training


def _make_optimizers(model: SegModel, cfg: TrainConfig):
    """(backbone optimizer or None, adapter-and-head optimizer) over the
    components that ``TRAINED`` names for the mode."""
    trained = TRAINED[cfg.mode]

    def adamw(components, lr):
        return AdamW([(n, t) for n, t, c in model.named_tensors() if c in components],
                     lr, weight_decay=cfg.weight_decay)

    backbone = adamw(("backbone",), cfg.lr_backbone) if "backbone" in trained else None
    tuned = tuple(c for c in trained if c != "backbone")
    return backbone, adamw(tuned, cfg.lr_head_and_rein)


def train(cfg: TrainConfig):
    """Run the fine-tuning loop; returns (Checkpoint, MetricsLog).

    Raises TrainDiverged on a non-finite loss, keeping the partial log.
    """
    manifest = read_manifest(cfg.data_root)
    _check_dataset(manifest, cfg)
    train_set = load_split(cfg.data_root, "train")
    val_set = load_split(cfg.data_root, "val")
    test_set = load_split(cfg.data_root, "test")

    model = build_model(cfg)
    backbone_opt, tuned_opt = _make_optimizers(model, cfg)
    n_params = model.n_trainable()
    # LP-FT probe stage: only the head trains, so backward skips the backbone
    probe_steps = round(PROBE_FRACTION * cfg.iterations) if backbone_opt else 0
    if probe_steps:
        model.set_trained(PROBE_TRAINED)
    rng = np.random.default_rng((cfg.seed, _STREAM_DATA))
    window = deque(maxlen=cfg.loss_window)
    metrics = MetricsLog()
    k = manifest["k"]

    def eval_row(iteration):
        loss = float(np.mean(window)) if window else float("nan")
        val = evaluate_model(model, val_set, k)
        test = evaluate_model(model, test_set, k)
        metrics.add(iteration=iteration, train_loss=loss, val_miou=val.miou,
                    test_miou=test.miou, params=n_params)

    for t in range(1, cfg.iterations + 1):
        if probe_steps and t == probe_steps + 1:
            model.set_trained(TRAINED[cfg.mode])
        idx = rng.integers(0, len(train_set), cfg.batch_size)
        flips = rng.random(cfg.batch_size) < 0.5
        imgs, labels = [], []
        for j, i in enumerate(idx):
            s = train_set[i]
            if cfg.augment and flips[j]:
                imgs.append(s.image[:, :, ::-1])
                labels.append(s.label[:, ::-1])
            else:
                imgs.append(s.image)
                labels.append(s.label)
        with Tape() as tape:
            loss = model.batch_loss(pixel_floats(np.stack(imgs)), np.stack(labels))
            value = loss.item()
            if not math.isfinite(value):
                raise TrainDiverged(t, metrics)
            tape.backward(loss)
        tuned_opt.step()
        if backbone_opt is not None and t > probe_steps:
            backbone_opt.step()
        model.zero_grad()
        window.append(value)
        if t % cfg.eval_interval == 0 or t == cfg.iterations:
            eval_row(t)
    if cfg.iterations == 0:
        eval_row(0)

    meta = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "iteration": cfg.iterations,
        "seed": cfg.seed,
    }
    return Checkpoint.from_model(model, meta), metrics
