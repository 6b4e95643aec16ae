"""Spans around reinlab's public functions, recorded from outside the program.

``install`` replaces each function in ``TARGETS`` with a wrapper that, while
the tracer is recording, appends a span (name, start, end, parent, count)
to an in-memory list. The wrappers are installed once per process, before
the benchmark looks any function up, so a module that imported a function
by name is patched too.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module under reinlab, function or Class.method)
TARGETS = (
    ("vit.embed", "vit", "ViTBackbone.embed"),
    ("vit.layer", "vit", "ViTBackbone.layer_forward"),
    ("adapter.refine", "adapter", "ReinAdapter.__call__"),
    ("adapter.query", "adapter", "ReinAdapter.aggregate_query"),
    ("head.decode", "head", "SegHead.decode_rows"),
    ("tensor.backward", "tensor", "Tape.backward"),
    ("tensor.loss", "tensor", "cross_entropy_logits"),
    ("optim.step", "optim", "AdamW.step"),
    ("model.forward", "model", "SegModel.forward_rows"),
    ("model.build", "train", "build_model"),
    ("train.train", "train", "train"),
    ("train.evaluate", "train", "evaluate"),
    ("train.evaluate_model", "train", "evaluate_model"),
    ("data.scene", "data", "generate_scene"),
    ("data.load_split", "data", "load_split"),
    ("checkpoint.load", "checkpoint", "Checkpoint.load"),
    ("checkpoint.from_bytes", "checkpoint", "Checkpoint.from_bytes"),
    ("checkpoint.load_into", "checkpoint", "Checkpoint.load_into"),
    ("pretrain.pretrain_backbone", "pretrain", "pretrain_backbone"),
)

# per call: mean duration of the span, its children included
PER_CALL = {
    "vit.embed_ms": "vit.embed",
    "vit.layer_ms": "vit.layer",
    "adapter.refine_ms": "adapter.refine",
    "adapter.query_ms": "adapter.query",
    "head.decode_ms": "head.decode",
    "tensor.backward_ms": "tensor.backward",
    "tensor.loss_ms": "tensor.loss",
    "model.forward_ms": "model.forward",
    "model.build_ms": "model.build",
    "train.evaluate_ms": "train.evaluate_model",
    "data.scene_ms": "data.scene",
    "data.load_split_ms": "data.load_split",
    "checkpoint.from_bytes_ms": "checkpoint.from_bytes",
    "checkpoint.load_into_ms": "checkpoint.load_into",
}
# per training step (one Tape.backward per step): total time of the span
PER_STEP_TOTAL = {"optim.step_ms": "optim.step"}
# per training step: self time of the span that runs the loop
PER_STEP_SELF = {"train.loop_self_ms": "train.train",
                 "pretrain.self_ms": "pretrain.pretrain_backbone"}
MODULES = ("vit", "adapter", "head", "tensor", "optim", "model", "train",
           "data", "checkpoint", "pretrain")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, count]
        self._stack = []
        self.recording = False

    def wrap(self, fn, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent,
                    count(args) if count else 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self):
        """Wrap every function in ``TARGETS``; call before using reinlab."""
        for name, module, attr in TARGETS:
            mod = importlib.import_module("reinlab." + module)
            count = (lambda args: len(args[0])) if name == "tensor.backward" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, name, count)))
                else:
                    setattr(cls, meth, self.wrap(raw, name, count))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, name, count)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("reinlab")
                        and getattr(other, attr, None) is orig):
                    setattr(other, attr, wrapped)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")

    def metrics(self, images):
        """Per-layer metrics of the recorded spans.

        Root spans are the benchmark's timed rounds. Self time is a span's
        duration minus its children's; module self times plus the roots'
        own self time (the remainder) add up to the traced wall time.
        """
        dur = [end - start for _, start, end, _, _ in self.spans]
        self_t = list(dur)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                self_t[parent] -= dur[i]
        calls, total, selfsum, counts = (defaultdict(int), defaultdict(float),
                                         defaultdict(float), defaultdict(int))
        wall = remainder = 0.0
        for i, (name, _, _, parent, count) in enumerate(self.spans):
            if parent < 0:
                wall += dur[i]
                remainder += self_t[i]
                continue
            calls[name] += 1
            total[name] += dur[i]
            selfsum[name] += self_t[i]
            counts[name] += count
        steps = calls["tensor.backward"]

        def per(value, n):
            return 1e3 * value / n if n else 0.0

        out = {m: per(total[s], calls[s]) for m, s in PER_CALL.items()}
        out["tensor.tape_records"] = counts["tensor.backward"] / steps if steps else 0.0
        out.update({m: per(total[s], steps) for m, s in PER_STEP_TOTAL.items()})
        out.update({m: per(selfsum[s], steps) for m, s in PER_STEP_SELF.items()})
        for module in MODULES:
            out[f"{module}.self_ms_per_img"] = per(
                sum(v for s, v in selfsum.items() if s.split(".")[0] == module), images)
        out["trace.remainder_ms_per_img"] = per(remainder, images)
        out["trace.wall_ms_per_img"] = per(wall, images)
        out["trace.img_per_s"] = images / wall
        return out
