"""Independent float64 reference for the desk model, in plain numpy.

Nothing here imports reinlab. The forward follows the equations of the
module docstrings and PAPER.md, reading every weight by name from a
checkpoint's bytes:

  ViT      pre-norm encoder: f += Attn(LN1 f); f += MLP(LN2 f), tanh GELU
  Rein     S = softmax(f T^T / sqrt(c)); dbar = S[:, 1:] (T[1:] W_T + b_T);
           f += (dbar + f) W_f + b_f;  Q_i = T_i W_Q + b_Q;
           query = [max_i Q_i, mean_i Q_i, Q_N] W_Q_cat + b_Q_cat
  head     fused[k, p] = sum_q sigmoid(mask[q, p]) class[q, k], then a
           half-pixel-centre bilinear upsample with border clamping

It also parses the REINLAB1 checkpoint layout, recounts mIoU and counts
trainable parameters in closed form.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"REINLAB1"
COMPONENTS = ("backbone", "adapter", "head")
LN_EPS = 1e-5


def parse_checkpoint(data: bytes):
    """({name: (float32 array, component)}, metadata) of a REINLAB1 file."""
    if data[:8] != MAGIC:
        raise ValueError("not a REINLAB1 checkpoint")
    _, count = struct.unpack_from("<II", data, 8)
    pos, tensors = 16, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        tag, ndim = struct.unpack_from("<BB", data, pos)
        dims = struct.unpack_from(f"<{ndim}I", data, pos + 2)
        pos += 2 + 4 * ndim
        size = math.prod(dims)
        arr = np.frombuffer(data, "<f4", size, pos).reshape(dims)
        tensors[name] = (arr, COMPONENTS[tag])
        pos += 4 * size
    (meta_len,) = struct.unpack_from("<I", data, pos)
    if pos + 4 + meta_len != len(data):
        raise ValueError("checkpoint length does not match its header")
    meta = json.loads(data[pos + 4:]) if meta_len else {}
    return tensors, meta


def _layer_norm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _softmax(z):
    e = np.exp(z - z.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def _encoder_layer(w, p, f, heads):
    b, n, c = f.shape
    dh = c // heads
    x = _layer_norm(f, w[p + "ln1.g"], w[p + "ln1.b"])
    q, k, v = ((x @ w[p + f"attn.W{s}"] + w[p + f"attn.b{s}"])
               .reshape(b, n, heads, dh).transpose(0, 2, 1, 3) for s in "qkv")
    att = _softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh))
    f = f + (att @ v).transpose(0, 2, 1, 3).reshape(b, n, c) @ w[p + "attn.Wo"] + w[p + "attn.bo"]
    x = _layer_norm(f, w[p + "ln2.g"], w[p + "ln2.b"])
    return f + _gelu(x @ w[p + "mlp.W1"] + w[p + "mlp.b1"]) @ w[p + "mlp.W2"] + w[p + "mlp.b2"]


def _rein_layer(w, i, f):
    """(feature delta, query set) of layer ``i`` of the desk adapter:
    low-rank tokens A_i B_i, MLPs shared across layers, linked queries."""
    tokens = w[f"adapter.layer{i:02d}.A"] @ w[f"adapter.layer{i:02d}.B"]
    sim = _softmax(f @ tokens.T / math.sqrt(f.shape[-1]))
    dbar = sim[..., 1:] @ (tokens[1:] @ w["adapter.shared.W_T"] + w["adapter.shared.b_T"])
    delta = (dbar + f) @ w["adapter.shared.W_f"] + w["adapter.shared.b_f"]
    return delta, tokens @ w["adapter.shared.W_Q"] + w["adapter.shared.b_Q"]


def _upsample_matrix(src, dst):
    """[dst, src] 1-D linear interpolation weights, half-pixel centres."""
    x = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    x0 = np.floor(x)
    t = x - x0
    m = np.zeros((dst, src))
    rows = np.arange(dst)
    np.add.at(m, (rows, np.clip(x0, 0, src - 1).astype(int)), 1.0 - t)
    np.add.at(m, (rows, np.clip(x0 + 1, 0, src - 1).astype(int)), t)
    return m


def forward_logits(tensors, config, images):
    """Per-pixel class logits [B, H, W, K] in float64.

    ``tensors`` is the first value of ``parse_checkpoint``; ``config`` is the
    checkpoint's training config, whose adapter must be the desk variant
    (``rein-lora``) and whose head must be query-based; ``images`` is
    [B, 3, H, W].
    """
    _require_desk_variant(config)
    w = {name: arr.astype(np.float64) for name, (arr, _) in tensors.items()}
    vit = config["vit"]
    x = np.asarray(images, dtype=np.float64)
    bsz, _, size, _ = x.shape
    ps = vit["patch_size"]
    g = size // ps
    patches = x.reshape(bsz, 3, g, ps, g, ps).transpose(0, 2, 4, 1, 3, 5)
    f = patches.reshape(bsz, g * g, -1) @ w["backbone.patch.W"] + w["backbone.patch.b"]
    f = f + w["backbone.pos"]
    rein = config["mode"] == "rein"
    taps, layer_queries = [], []
    for i in range(1, vit["depth"] + 1):
        f = _encoder_layer(w, f"backbone.layer{i:02d}.", f, vit["heads"])
        if rein:
            delta, q_i = _rein_layer(w, i, f)
            f = f + delta
            layer_queries.append(q_i)
        if i in vit["tap_layers"]:
            taps.append(f)
    pix = np.concatenate(taps, axis=-1) @ w["head.W_pix"] + w["head.b_pix"]
    if rein:
        qs = np.stack(layer_queries)
        fused = np.concatenate([qs.max(0), qs.mean(0), qs[-1]], axis=-1)
        query = fused @ w["adapter.final.W_Q_cat"] + w["adapter.final.b_Q_cat"]
    else:
        query = w["head.queries"]
    mask = pix @ (query @ w["head.W_qd"] + w["head.b_qd"]).T          # [B, n, q]
    cls = query @ w["head.W_cls"] + w["head.b_cls"]                     # [q, K]
    coarse = (0.5 * (1.0 + np.tanh(0.5 * mask))) @ cls                  # [B, n, K]
    up = _upsample_matrix(g, size)
    return np.einsum("yi,bijk,xj->byxk", up, coarse.reshape(bsz, g, g, -1), up)


def miou(pred, gt, num_classes, ignore=255):
    """Mean IoU over the classes present in prediction or ground truth."""
    pred, gt = np.asarray(pred).ravel(), np.asarray(gt).ravel()
    keep = gt != ignore
    pred, gt = pred[keep], gt[keep]
    ious = []
    for k in range(num_classes):
        union = np.count_nonzero((pred == k) | (gt == k))
        if union:
            ious.append(np.count_nonzero((pred == k) & (gt == k)) / union)
    return sum(ious) / len(ious) if ious else 0.0


def backbone_params(vit) -> int:
    """Parameter count of a ViT config: patch embedding, positions and
    per layer two LayerNorms, attention and the MLP."""
    c, ps, size = vit["dim"], vit["patch_size"], vit["image_size"]
    hid = int(c * vit["mlp_ratio"])
    return (3 * ps * ps * c + c + (size // ps) ** 2 * c
            + vit["depth"] * (4 * c + 4 * c * c + 4 * c + 2 * c * hid + hid + c))


def trainable_params(config) -> int:
    """Trainable-parameter count of a desk training config, from its shapes.

    ``full`` trains backbone and head, ``freeze`` the head and ``rein`` the
    adapter and head; in ``rein`` the adapter supplies the head's queries.
    """
    _require_desk_variant(config)
    vit, head, rein, mode = config["vit"], config["head"], config["rein"], config["mode"]
    c, cp = vit["dim"], rein["c_prime"]
    d, k, nq = head["embed_dim"], head["num_classes"], head["num_queries"]
    head_n = (len(vit["tap_layers"]) * c * d + d + cp * d + d + cp * k + nq * k
              + (0 if mode == "rein" else nq * cp))
    if mode == "full":
        return backbone_params(vit) + head_n
    if mode == "freeze":
        return head_n
    tokens = rein["m"] * rein["r"] + rein["r"] * c
    shared = 2 * (c * c + c) + c * cp + cp
    return vit["depth"] * tokens + shared + 3 * cp * cp + cp + head_n


def _require_desk_variant(config):
    rein = config["rein"]
    if not (config["head"]["use_query_head"] and rein["use_lora"]
            and rein["use_share"] and rein["use_link"]):
        raise ValueError("the reference covers the desk variant only: rein-lora "
                         "with a query head")
