"""Fine-tuning harness: config, training loop, evaluation, metrics logging.

All randomness flows from the config seed through fixed per-purpose rng
streams, so a run is reproducible byte for byte: identical seeds give
identical metrics logs and identical checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import contextlib
import fcntl
import math
import os
import pickle
import signal
from collections import Counter, deque
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from itertools import islice

import numpy as np

from .adapter import ReinConfig
from .checkpoint import Checkpoint
from .data import load_split, pixel_floats, read_manifest
from .errors import ConfigError, NumericError, ReinlabError
from .head import HeadConfig, confusion_matrix, iou_from_confusion
from .model import MODES, TRAINED, SegModel
from .optim import AdamW
from .pretrain import PretrainConfig, pretrained_backbone
from .tensor import Tape, Tensor, cross_entropy_logits, default_dtype
from .vit import ViTConfig

_STREAM_DATA = 4
# ``full`` mode fine-tunes in LP-FT form (arXiv 2202.10054): over this leading
# fraction of the iterations only the head trains. A fresh head's first
# gradients fit the class prior and are the same at every pixel; if the
# backbone trained on them, Adam would turn them into a common feature offset
# that saturates the query masks at the class-prior plateau.
PROBE_FRACTION = 0.25


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


def evaluate_model(model: SegModel, samples, batch=8) -> EvalReport:
    """Deterministic per-class IoU over the model's classes of loaded samples
    (uint8 pixels, as ``load_split`` holds them); each batch becomes floats
    in the process that counts it.

    The batches split into one share per CPU the process may use. The
    caller counts share 0, and a ``_Child`` each other share: in a forked
    process when it may fork, since a forward is hundreds of short numpy
    steps that threads would serialise on the interpreter lock. Each share
    counts an integer confusion matrix, so the sum, and the report, equal
    those of a serial run. No child outlives the call.
    """
    num_classes = model.cfg.head.num_classes
    starts = range(0, len(samples), batch)
    workers = max(1, min(len(os.sched_getaffinity(0)), len(starts)))
    shares = [starts[j::workers] for j in range(workers)]

    def count(share):  # yields the share's confusion matrix
        cm = np.zeros((num_classes, num_classes), dtype=np.int64)
        for start in share:
            chunk = samples[start:start + batch]
            preds = model.predict_labels(pixel_floats(np.stack([s.image for s in chunk])))
            cm += confusion_matrix(preds, np.stack([s.label for s in chunk]), num_classes)
        yield cm

    children = []
    try:
        for share in shares[1:]:
            children.append(_Child(partial(count, share), "evaluation",
                                   (num_classes, num_classes), np.int64))
        cm = next(count(shares[0]))
        for child in children:
            cm += child.receive()
    finally:
        for child in children:
            child.close()
    ious, mean = iou_from_confusion(cm)
    return EvalReport(per_class=list(ious), miou=mean, n_images=len(samples))


def _os_threads():
    """This process's OS threads, a BLAS or OpenMP pool's included."""
    return len(os.listdir("/proc/self/task"))


def _may_fork():
    """Whether work may go to forked children: two CPUs or more, and one OS
    thread. A fork copies only the calling thread, so another thread's lock
    stays held in the child, and a BLAS pool starts again in every child."""
    return len(os.sched_getaffinity(0)) >= 2 and _os_threads() == 1


class _Child:
    """The items that the generator ``produce()`` yields, one per
    ``receive``, each an array of one ``shape`` and ``dtype``; and the one
    place that decides whether work forks. When ``_may_fork`` allows, a forked child runs it and frames each
    item on a pipe sized for one, as ``D`` and its bytes, or ``E`` and the
    pickled exception that ends it; otherwise it runs lazily in the caller."""

    def __init__(self, produce, role, shape, dtype):
        self.role, self.shape, self.dtype = role, shape, np.dtype(dtype)
        self.nbytes = math.prod(shape) * self.dtype.itemsize
        self.pid = self.pipe = None
        if not _may_fork():
            self.items = produce()
            return
        read_fd, write_fd = os.pipe()
        with contextlib.suppress(OSError):  # over the system's limit
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, self.nbytes + 1)
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(read_fd)
            _child_main(produce, write_fd)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")

    def receive(self):
        """The next item, from a child as one read-only array; a child's
        exception, with a note naming it, or ``ReinlabError`` when it ended without."""
        if self.pipe is None:
            return next(self.items)
        tag = self.pipe.read(1)
        if tag == b"D":
            blob = self.pipe.read(self.nbytes)
            if len(blob) == self.nbytes:
                return np.frombuffer(blob, self.dtype).reshape(self.shape)
        elif tag == b"E":
            exc = pickle.loads(self.pipe.read())
            exc.add_note(f"raised in {self.role} child {self.pid}")
            raise exc
        pid, self.pid = self.pid, None
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        raise ReinlabError(f"{self.role} child {pid} ended without a result "
                           f"(exit status {status})")

    def close(self):
        """Kill and reap the child, unless ``receive`` reaped it."""
        if self.pipe is None:
            self.items.close()
            return
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _child_main(produce, write_fd):
    """A forked child's whole life: frame what ``produce()`` yields, then exit."""
    status = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            try:
                for item in produce():
                    pipe.writelines((b"D", np.ascontiguousarray(item)))
                    pipe.flush()
            except BaseException as exc:  # sent to the caller, which raises it
                try:
                    blob = pickle.dumps(exc)
                    pickle.loads(blob)
                except Exception:  # an exception that does not round-trip
                    blob = pickle.dumps(ReinlabError(f"{type(exc).__name__}: {exc}"))
                pipe.write(b"E" + blob)
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


def evaluate(ckpt: Checkpoint, data_root, split="test") -> EvalReport:
    """Evaluate a checkpoint on one split of a stored benchmark."""
    manifest = read_manifest(data_root)
    model = model_from_meta(ckpt.meta)
    _check_dataset(manifest, model.cfg)
    ckpt.load_into(model)
    samples = load_split(data_root, split)
    return evaluate_model(model, samples)


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


def _batches(cfg: TrainConfig, n_samples):
    """Each step's drawn (index, flip) pairs, from the run's data stream: a
    plain ``(int, bool)`` pair names one input of the run, so it can key the
    frozen backbone's memo. Replaying it with the same config yields the
    same pairs."""
    rng = np.random.default_rng((cfg.seed, _STREAM_DATA))
    for _ in range(cfg.iterations):
        idx = rng.integers(0, n_samples, cfg.batch_size)
        flips = (rng.random(cfg.batch_size) < 0.5) & cfg.augment
        yield list(zip(idx.tolist(), flips.tolist()))


def _stacked(samples, drawn, attr):
    """The drawn samples' ``image`` or ``label`` arrays, stacked, each flipped as drawn."""
    return np.stack([getattr(samples[i], attr)[..., ::-1] if f else getattr(samples[i], attr)
                     for i, f in drawn])


def train(cfg: TrainConfig):
    """Run the fine-tuning loop; returns (Checkpoint, MetricsLog).

    Frozen steps (all of ``freeze``, the first ``PROBE_FRACTION`` of
    ``full``, none of ``rein``) have tap features that depend on the batch
    alone: a ``_Child`` replays the data stream and runs the backbone, one
    to two steps ahead when it forks, and each step reads its taps before
    the tape opens, so the tape holds the head alone. The backbone runs
    once per distinct (index, flip) input of those steps: an input's tap
    rows are held while a later frozen step still draws it, and each step's
    frame joins its inputs' rows in draw order. The other steps run
    ``forward_rows``, and only they step the backbone's optimizer. The
    run's bytes are those of a one-CPU run. A child's exception is raised
    here, and no child outlives the call.

    Raises TrainDiverged on a non-finite loss, keeping the partial log.
    """
    manifest = read_manifest(cfg.data_root)
    _check_dataset(manifest, cfg)
    train_set = load_split(cfg.data_root, "train")
    if not train_set:
        raise ConfigError(f"the train split of {cfg.data_root} has no scenes")
    val_set = load_split(cfg.data_root, "val")
    test_set = load_split(cfg.data_root, "test")

    model = build_model(cfg)
    backbone_opt, tuned_opt = _make_optimizers(model, cfg)
    n_params = model.n_trainable()
    frozen_steps = (0 if model.adapter else cfg.iterations if backbone_opt is None
                    else round(PROBE_FRACTION * cfg.iterations))
    tap_shape = (len(cfg.vit.tap_layers), cfg.batch_size * cfg.vit.num_patches, cfg.vit.dim)
    window = deque(maxlen=cfg.loss_window)
    metrics = MetricsLog()

    def eval_row(iteration):
        loss = float(np.mean(window)) if window else float("nan")
        val = evaluate_model(model, val_set)
        test = evaluate_model(model, test_set)
        metrics.add(iteration=iteration, train_loss=loss, val_miou=val.miou,
                    test_miou=test.miou, params=n_params)

    def taps_ahead():  # each frozen step's tap features, as one array
        steps = list(islice(_batches(cfg, len(train_set)), frozen_steps))
        draws_left = Counter(key for drawn in steps for key in drawn)
        held = {}  # an input's [taps, patches, dim] rows while a later step draws it
        for drawn in steps:
            new = [key for key in dict.fromkeys(drawn) if key not in held]
            if new:  # one sub-batch; an image's rows do not depend on its batch-mates
                taps = model.backbone.forward(pixel_floats(_stacked(train_set, new, "image")))
                held.update(zip(new, np.stack([f.data.reshape(len(new), -1, cfg.vit.dim)
                                               for f in taps], axis=1)))
            yield np.concatenate([held[key] for key in drawn], axis=1)
            draws_left.subtract(drawn)
            for key in dict.fromkeys(drawn):
                if not draws_left[key]:
                    del held[key]
                elif key in new:  # a copy, so the sub-batch's other rows can go
                    held[key] = held[key].copy()

    producer = (_Child(taps_ahead, "backbone", tap_shape, default_dtype())
                if frozen_steps else None)
    try:
        for t, drawn in enumerate(_batches(cfg, len(train_set)), 1):
            frozen = t <= frozen_steps
            taps = producer.receive() if frozen else None
            with Tape() as tape:
                rows = (model.decode_taps([Tensor._wrap(a, False) for a in taps]) if frozen
                        else model.forward_rows(pixel_floats(_stacked(train_set, drawn, "image"))))
                loss = cross_entropy_logits(rows, _stacked(train_set, drawn, "label").reshape(-1))
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainDiverged(t, metrics)
                tape.backward(loss)
            tuned_opt.step()
            if backbone_opt is not None and not frozen:
                backbone_opt.step()
            model.zero_grad()
            window.append(value)
            if t % cfg.eval_interval == 0 or t == cfg.iterations:
                eval_row(t)
    finally:
        if producer is not None:
            producer.close()
    if cfg.iterations == 0:
        eval_row(0)

    meta = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "iteration": cfg.iterations,
        "seed": cfg.seed,
    }
    return Checkpoint.from_model(model, meta), metrics
