"""Binary checkpoints of named, component-tagged tensors.

Layout (little-endian):

    magic "REINLAB1" | u32 version | u32 tensor_count
    per tensor: u16 name_len | name utf-8 | u8 component_tag | u8 ndim
                | u32 x ndim dims | f32 data
    trailer:    u32 meta_len | meta JSON utf-8

The trailer carries run metadata (config, iteration, seed, config hash);
readers that stop after ``tensor_count`` tensors can ignore it. Nothing may
follow the trailer. Tensor names are unique and the metadata is stored in
one canonical JSON form (sorted keys, no spaces, ASCII), so a file that
loads re-saves as the same bytes. Component tags {backbone: 0, adapter: 1,
head: 2} partition the tensor set, which is what makes adapter/head
swapping a pure re-tagging of byte ranges.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, ShapeError

MAGIC = b"REINLAB1"
VERSION = 1
COMPONENTS = ("backbone", "adapter", "head")
_TAG = {name: i for i, name in enumerate(COMPONENTS)}


@dataclass
class Checkpoint:
    tensors: dict = field(default_factory=dict)  # name -> (np.float32 array, component)
    meta: dict = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_model(cls, model, meta=None):
        tensors = {
            name: (np.asarray(t.data, dtype="<f4").copy(), comp)
            for name, t, comp in model.named_tensors()
        }
        return cls(tensors=tensors, meta=dict(meta or {}))

    def load_into(self, model, component=None):
        """Copy stored arrays into a freshly built model's tensors; with
        ``component`` set, only that component's tensors, the rest untouched."""
        targets = [(name, t) for name, t, comp in model.named_tensors()
                   if component is None or comp == component]
        stored = {name for name, (_, comp) in self.tensors.items()
                  if component is None or comp == component}
        names = {name for name, _ in targets}
        missing = names - stored
        extra = stored - names
        if missing or extra:
            raise ContractError(
                f"checkpoint/model tensor sets differ; missing={sorted(missing)[:3]} "
                f"extra={sorted(extra)[:3]}")
        for name, t in targets:
            arr, _ = self.tensors[name]
            if tuple(arr.shape) != tuple(t.shape):
                raise ShapeError(
                    f"tensor {name!r}: checkpoint shape {arr.shape} != model {t.shape}")
            t.data[:] = arr
        return model

    def component(self, comp):
        return {n: v for n, v in self.tensors.items() if v[1] == comp}

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = [MAGIC, struct.pack("<II", VERSION, len(self.tensors))]
        for name, (arr, comp) in self.tensors.items():
            nb = name.encode("utf-8")
            arr = np.asarray(arr, dtype="<f4")
            out.append(struct.pack("<H", len(nb)))
            out.append(nb)
            out.append(struct.pack("<BB", _TAG[comp], arr.ndim))
            out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            out.append(arr.tobytes())
        meta = _meta_json(self.meta)
        if _meta_json(json.loads(meta)) != meta:  # e.g. non-string keys
            raise ContractError("metadata does not survive a JSON round trip; "
                                "the file would not load")
        out.append(struct.pack("<I", len(meta)))
        out.append(meta)
        return b"".join(out)

    def save(self, path):
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes, path="<bytes>") -> "Checkpoint":
        pos = 0

        def take(n, what):
            nonlocal pos
            if pos + n > len(data):
                raise ParseError(path, pos, f"truncated while reading {what}")
            chunk = data[pos:pos + n]
            pos += n
            return chunk

        def text(n, what):
            start = pos
            try:
                return take(n, what).decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(path, start + e.start, f"{what} is not utf-8") from None

        if take(8, "magic") != MAGIC:
            raise ParseError(path, 0, "bad magic; not a checkpoint file")
        version, count = struct.unpack("<II", take(8, "header"))
        if version != VERSION:
            raise ParseError(path, 8, f"unsupported version {version}")
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            name_pos = pos
            name = text(name_len, "name")
            if name in tensors:
                raise ParseError(path, name_pos, f"duplicate tensor name {name!r}")
            tag, ndim = struct.unpack("<BB", take(2, "tensor header"))
            if tag >= len(COMPONENTS):
                raise ParseError(path, pos - 2, f"unknown component tag {tag}")
            dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
            # Python ints: a product of u32 dims cannot overflow
            raw = take(4 * math.prod(dims), f"data of {name!r}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
            tensors[name] = (arr, COMPONENTS[tag])
        (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
        meta_pos = pos
        try:
            meta = json.loads(text(meta_len, "metadata"))
        except json.JSONDecodeError as e:
            at = meta_pos + len(e.doc[:e.pos].encode("utf-8"))
            raise ParseError(path, at, f"bad metadata JSON: {e.msg}") from None
        except (ValueError, RecursionError) as e:  # e.g. an over-long integer
            raise ParseError(path, meta_pos, f"bad metadata: {e}") from None
        if not isinstance(meta, dict):
            raise ParseError(path, meta_pos, "metadata is not a JSON object")
        raw, canonical = data[meta_pos:pos], _meta_json(meta)
        if raw != canonical:
            # a space, unsorted or repeated keys: it would not re-save as itself
            at = next((i for i, (a, b) in enumerate(zip(raw, canonical)) if a != b),
                      min(len(raw), len(canonical)))
            raise ParseError(path, meta_pos + at, "metadata is not in canonical form")
        if pos != len(data):
            raise ParseError(path, pos, f"{len(data) - pos} trailing bytes after metadata")
        return cls(tensors=tensors, meta=meta)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        return cls.from_bytes(Path(path).read_bytes(), path=str(path))


def _meta_json(meta: dict) -> bytes:
    """The one byte form of a metadata dict: sorted keys, no spaces, ASCII."""
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()


def swap_adapter(base: Checkpoint, donor: Checkpoint) -> Checkpoint:
    """Base's backbone with the donor's adapter and head.

    Both checkpoints must describe the same architecture: identical tensor
    names with identical shapes, component by component.
    """
    for comp in COMPONENTS:
        b, d = base.component(comp), donor.component(comp)
        if set(b) != set(d):
            diff = sorted(set(b) ^ set(d))
            raise ShapeError(f"{comp} tensor sets differ, e.g. {diff[:3]}")
        for name in b:
            if b[name][0].shape != d[name][0].shape:
                raise ShapeError(
                    f"tensor {name!r}: base shape {b[name][0].shape} != "
                    f"donor {d[name][0].shape}")
    tensors = {}
    for name, (arr, comp) in donor.tensors.items():
        src = base if comp == "backbone" else donor
        tensors[name] = (src.tensors[name][0].copy(), comp)
    return Checkpoint(tensors=tensors, meta=dict(donor.meta))
