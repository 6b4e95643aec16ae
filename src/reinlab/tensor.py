"""Dense float tensors with tape-based reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default). Operations executed while a
Tape is active on the same thread record their output tensor, input tensors
and backward closure; replaying the tape in reverse computes vector-Jacobian
products in a map keyed by the tensors themselves and accumulates what
reaches the leaves into ``.grad`` of every tensor that requires gradient.
Gradients accumulate across backward calls; call ``zero_grad`` between
optimizer steps.

A finite-difference oracle (``finite_difference_gradient``) is provided for
verifying the analytic backward rules; it never touches the tape.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_DEFAULT_DTYPE = np.float32


class _TapeStack(threading.local):
    """Each thread's open tapes: an op records only on the innermost tape
    its own thread entered."""

    def __init__(self):
        self.tapes: list["Tape"] = []


_TAPE_STACK = _TapeStack()

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@contextmanager
def using_dtype(dtype):
    """Temporarily switch the dtype of newly created tensors (float32 or
    float64; used by verification suites)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ContractError(f"unsupported dtype {dtype}")
    prev, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dtype
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


def default_dtype():
    """The dtype new tensors take: float32, or what ``using_dtype`` set."""
    return _DEFAULT_DTYPE


class Tensor:
    """A dense n-dimensional float array, and its own graph node: tensors
    hash by identity (no ``__eq__``), so the tape keys gradients by them.

    ``grad`` stays ``None`` until a backward pass deposits into it; tensors
    with ``requires_grad=False`` never accumulate gradient.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=_DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @classmethod
    def _wrap(cls, arr, requires_grad):
        """Internal constructor for op outputs and shared constants; wraps
        ``arr`` itself, without a copy or a dtype cast."""
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return (
            f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )


def trunc_normal(rng, shape, std=0.02):
    """Normal(0, std) clipped to two standard deviations."""
    return np.clip(rng.standard_normal(shape), -2.0, 2.0) * std


def parameters(table: dict, rng) -> dict:
    """Draw a tensor table ``name -> (shape, init)`` in table order into
    trainable tensors. ``init`` is "tn" (``trunc_normal``), "zero", "one"
    or a bound b for Uniform(-b, b); only "tn" and bounds consume ``rng``."""
    fill = {"zero": np.zeros, "one": np.ones}

    def draw(shape, init):
        if init == "tn":
            return trunc_normal(rng, shape)
        return fill[init](shape) if init in fill else rng.uniform(-init, init, shape)

    return {name: Tensor(draw(shape, init), requires_grad=True)
            for name, (shape, init) in table.items()}


class Tape:
    """Ordered record of executed operations.

    Execution order is a topological order of the graph, so a single reverse
    sweep visits every recorded node exactly once.
    """

    def __init__(self):
        self._records = []  # (out, inputs tuple, backward_fn)

    def __enter__(self):
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._records)

    def record(self, inputs, out, backward_fn):
        self._records.append((out, inputs, backward_fn))

    def backward(self, root):
        """Accumulate d(root)/d(leaf) into ``.grad`` of the requires_grad
        leaves reachable from ``root`` (``root`` itself when no record
        produced it).

        Uses a fresh per-call gradient map so repeated calls add their
        contributions instead of compounding stale state. Stored arrays are
        never mutated in place (closures may hand the same buffer, or views
        of it, to several inputs), so accumulation allocates a new array.
        """
        if root.data.size != 1:
            raise ContractError(
                f"backward root must be scalar, got shape {tuple(root.shape)}"
            )
        grads = {root: np.ones_like(root.data)}
        for out, inputs, backward_fn in reversed(self._records):
            g = grads.pop(out, None)
            if g is None:
                continue
            for t, gt in zip(inputs, backward_fn(g)):
                if gt is None or not t.requires_grad:
                    continue
                acc = grads.get(t)
                grads[t] = gt if acc is None else acc + gt
        # Entries that were never popped belong to tensors no record produced,
        # i.e. the leaves of this tape.
        for t, g in grads.items():
            t.accumulate_grad(g)


def _record(inputs, out, backward_fn):
    tapes = _TAPE_STACK.tapes
    if tapes and out.requires_grad:
        tapes[-1].record(inputs, out, backward_fn)
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must be equal or numpy-broadcastable."""
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None
    rg = a.requires_grad or b.requires_grad
    out = Tensor._wrap(out_data, rg)

    def backward(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record((a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product with broadcasting."""
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None
    rg = a.requires_grad or b.requires_grad
    out = Tensor._wrap(out_data, rg)
    a_data, b_data = a.data, b.data

    def backward(g):
        ga = _unbroadcast(g * b_data, a_data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a_data, b_data.shape) if b.requires_grad else None
        return ga, gb

    return _record((a, b), out, backward)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (dtype-preserving)."""
    s = float(s)
    out = Tensor._wrap(a.data * s, a.requires_grad)

    def backward(g):
        return (g * s,)

    return _record((a,), out, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    2-D operands follow the [p,q] x [q,s] -> [p,s] contract; higher-rank
    operands must carry identical leading (stack) dims and are multiplied
    slice-wise. Backward: dA = g @ B^T, dB = A^T @ g.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires >=2-D operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor._wrap(a.data @ b.data, a.requires_grad or b.requires_grad)
    a_data, b_data = a.data, b.data

    def backward(g):
        ga = g @ np.swapaxes(b_data, -1, -2) if a.requires_grad else None
        gb = np.swapaxes(a_data, -1, -2) @ g if b.requires_grad else None
        return ga, gb

    return _record((a, b), out, backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one record.

    ``x`` is [p, q] and ``w`` is [q, s]; ``b`` is either [s] (one bias per
    output column) or [p, s] (one per output entry). The bias is added into
    the product's own buffer, so the result has the bits of
    ``add(matmul(x, w), b)``.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape}")
    out_shape = (x.shape[0], w.shape[1])
    if b.shape not in (out_shape[1:], out_shape):
        raise ShapeError(f"linear: bias {b.shape} fits neither {out_shape[1:]} nor {out_shape}")
    out_data = x.data @ w.data
    out_data += b.data
    out = Tensor._wrap(out_data, x.requires_grad or w.requires_grad or b.requires_grad)
    x_data, w_data = x.data, w.data
    row_bias = b.ndim == 1

    def backward(g):
        gx = g @ w_data.T if x.requires_grad else None
        gw = x_data.T @ g if w.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = g.sum(axis=0) if row_bias else g
        return gx, gw, gb

    return _record((x, w, b), out, backward)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out_data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None
    out = Tensor._wrap(out_data, a.requires_grad)
    in_shape = a.data.shape

    def backward(g):
        return (g.reshape(in_shape),)

    return _record((a,), out, backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes (reverse them when ``axes`` is None)."""
    out = Tensor._wrap(np.transpose(a.data, axes), a.requires_grad)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inv),)

    return _record((a,), out, backward)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) of ``a`` along ``axis``."""
    if not 0 <= axis < a.ndim:
        raise ShapeError(f"narrow: axis {axis} outside {a.shape}")
    if not (0 <= start < stop <= a.shape[axis]):
        raise ShapeError(f"narrow [{start}:{stop}] on axis {axis} outside {a.shape}")
    index = (slice(None),) * axis + (slice(start, stop),)
    out = Tensor._wrap(a.data[index].copy(), a.requires_grad)
    in_shape = a.data.shape

    def backward(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _record((a,), out, backward)


def concat(tensors, axis=-1) -> Tensor:
    """Concatenate along ``axis`` (last axis by default)."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of empty tensor list")
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[t.shape for t in tensors]}"
        ) from None
    rg = any(t.requires_grad for t in tensors)
    out = Tensor._wrap(out_data, rg)
    extents = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def backward(g):
        g = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(g[offsets[i]:offsets[i + 1]], 0, axis)
            for i in range(len(extents))
        )

    return _record(tuple(tensors), out, backward)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def _softmax(x, out):
    """Row softmax of ``x`` along its last axis, written into ``out``.

    ``out`` is a buffer the caller allocated; it may be ``x`` itself when the
    caller owns ``x``. Non-finite entries raise.
    """
    if not np.isfinite(x).all():
        raise NumericError("softmax received non-finite input")
    # Row maxima read down the columns of a transposed copy: numpy reduces
    # short rows one at a time, but an outer axis with whole-row maxima.
    # max is exact, so the output has the bits it had with ``x.max(axis=-1)``.
    cols = np.swapaxes(np.atleast_2d(x), -1, -2).copy()
    np.subtract(x, cols.max(axis=-2).reshape(x.shape[:-1] + (1,)), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_vjp(y, g):
    """y * (g - sum(g * y)) per row, into one new buffer; ``g`` is only read."""
    gx = g * y
    dot = gx.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=gx)
    gx *= y
    return gx


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis with per-row max subtraction.

    Rows are nonnegative and sum to 1; shifting a row's logits by a constant
    leaves its output unchanged.
    """
    if x.ndim < 1:
        raise ShapeError("softmax_rows expects at least 1-D input")
    y = _softmax(x.data, np.empty_like(x.data))
    out = Tensor._wrap(y, x.requires_grad)

    def backward(g):
        return (_softmax_vjp(y, g),)

    return _record((x,), out, backward)


def attention(q: Tensor, k: Tensor, v: Tensor, batch_size: int, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [B*n, c] rows, as one record.

    Rows are image-major; head ``j`` reads columns [j*dh, (j+1)*dh) with
    dh = c / heads. Per image and head: softmax(q k^T / sqrt(dh)) v. The
    backward is hand-written and performs the same float operations as the
    reshape/transpose/matmul/scale/softmax/matmul chain it replaces.
    """
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(
            f"attention: q/k/v shapes {q.shape}/{k.shape}/{v.shape} differ or are not 2-D")
    rows, c = q.shape
    if batch_size < 1 or rows % batch_size or heads < 1 or c % heads:
        raise ShapeError(
            f"attention: {q.shape} rows do not split into {batch_size} images "
            f"of {heads} heads")
    n, dh = rows // batch_size, c // heads
    s = 1.0 / math.sqrt(dh)

    def split(a):  # [B*n, c] -> [B, heads, n, dh] view
        return a.reshape(batch_size, n, heads, dh).transpose(0, 2, 1, 3)

    def merged():  # a new [B*n, c] buffer and its split view
        buf = np.empty((rows, c), dtype=q.data.dtype)
        return buf, split(buf)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    y = qh @ kh.swapaxes(-1, -2)
    y *= s
    _softmax(y, y)
    out_data, out4 = merged()
    np.matmul(y, vh, out=out4)
    out = Tensor._wrap(out_data, q.requires_grad or k.requires_grad or v.requires_grad)

    def backward(g):
        g4 = split(g)
        gq = gk = gv = None
        if v.requires_grad:
            gv, gv4 = merged()
            np.matmul(y.swapaxes(-1, -2), g4, out=gv4)
        if q.requires_grad or k.requires_grad:
            gl = _softmax_vjp(y, g4 @ vh.swapaxes(-1, -2))
            gl *= s
            if q.requires_grad:
                gq, gq4 = merged()
                np.matmul(gl, kh, out=gq4)
            if k.requires_grad:
                gk = (qh.swapaxes(-1, -2) @ gl).transpose(0, 3, 1, 2).reshape(rows, c)
        return gq, gk, gv

    return _record((q, k, v), out, backward)


def _row_mean(a):
    """``a.mean(axis=-1, keepdims=True)`` with its bits, without the Python
    overhead of ``ndarray.mean``: the same float sum, then a division that
    rounds once (``mean`` rounds through float64, which gives the same
    float32 quotient)."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps=1e-5) -> Tensor:
    """Normalize each trailing-axis row to zero mean / unit variance, then
    apply the affine (gamma, beta)."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} != ({d},)"
        )
    xhat = x.data - _row_mean(x.data)
    y = xhat * xhat
    inv = 1.0 / np.sqrt(_row_mean(y) + eps)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = Tensor._wrap(y, x.requires_grad or gamma.requires_grad or beta.requires_grad)
    gamma_data = gamma.data

    def backward(g):
        gx = ggamma = gbeta = None
        if gamma.requires_grad:
            ggamma = (g * xhat).reshape(-1, d).sum(axis=0)
        if beta.requires_grad:
            gbeta = g.reshape(-1, d).sum(axis=0)
        if x.requires_grad:
            gx = g * gamma_data
            m1 = _row_mean(gx)
            tmp = gx * xhat
            m2 = _row_mean(tmp)
            np.multiply(xhat, m2, out=tmp)
            gx -= m1
            gx -= tmp
            gx *= inv
        return gx, ggamma, gbeta

    return _record((x, gamma, beta), out, backward)


def gelu(x: Tensor) -> Tensor:
    """GELU via the tanh approximation (agrees with the erf form to ~1e-3)."""
    xd = x.data
    t = xd * xd
    t *= xd
    t *= _GELU_A
    t += xd
    t *= _GELU_K
    np.tanh(t, out=t)  # t = tanh(K (x + A x^3))
    # (x / 2) (1 + t) in one buffer, computed as ((1 + t) / 2) x with the
    # same bits: 1 + t is 0 or at least one ulp of 1, so halving it is
    # exact, and 1 + t is exactly 1 wherever x / 2 would round
    y = t + 1.0
    y *= 0.5
    y *= xd
    out = Tensor._wrap(y, x.requires_grad)

    def backward(g):
        # d = 0.5 (1 + t) + 0.5 x sech^2 K (1 + 3 A x^2), in that order
        d = t * t
        np.subtract(1.0, d, out=d)
        w = xd * 0.5
        w *= d
        w *= _GELU_K
        np.multiply(xd, 3.0 * _GELU_A, out=d)
        d *= xd
        d += 1.0
        w *= d
        np.add(t, 1.0, out=d)
        d *= 0.5
        d += w
        d *= g
        return (d,)

    return _record((x,), out, backward)


def sigmoid(x: Tensor) -> Tensor:
    # z = e^{-|x|} keeps both the value and the derivative exact in the
    # saturated tails: y(1-y) computed directly would flush to zero once
    # y rounds to 1.0, killing gradients instead of shrinking them.
    xd = x.data
    z = np.exp(-np.abs(xd))
    denom = 1.0 + z
    y = np.where(xd >= 0, 1.0 / denom, z / denom)
    out = Tensor._wrap(y, x.requires_grad)

    def backward(g):
        return (g * (z / (denom * denom)),)

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# reductions across tensor lists


def _same_shape_list(tensors, op):
    """``tensors`` as a non-empty list of one shape, or a typed error naming ``op``."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError(f"{op} of empty tensor list")
    shape = tensors[0].shape
    for t in tensors:
        if t.shape != shape:
            raise ShapeError(f"{op}: shape {t.shape} != {shape}")
    return tensors


def stack_max(tensors) -> Tensor:
    """Per-position maximum across a list of same-shape tensors.

    Backward routes each position's gradient to the first tensor attaining
    the maximum (deterministic tie-break).
    """
    tensors = _same_shape_list(tensors, "stack_max")
    stacked = np.stack([t.data for t in tensors], axis=0)
    idx = stacked.argmax(axis=0)
    out = Tensor._wrap(stacked.max(axis=0), any(t.requires_grad for t in tensors))

    def backward(g):
        return tuple(
            np.where(idx == i, g, 0.0) if t.requires_grad else None
            for i, t in enumerate(tensors)
        )

    return _record(tuple(tensors), out, backward)


def stack_mean(tensors) -> Tensor:
    """Per-position mean across a list of same-shape tensors."""
    tensors = _same_shape_list(tensors, "stack_mean")
    k = float(len(tensors))
    acc = tensors[0].data.copy()
    for t in tensors[1:]:
        acc += t.data
    out = Tensor._wrap(acc / k, any(t.requires_grad for t in tensors))

    def backward(g):
        gi = g / k
        return tuple(gi if t.requires_grad else None for t in tensors)

    return _record(tuple(tensors), out, backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a 0-d scalar tensor."""
    out = Tensor._wrap(x.data.sum(dtype=x.data.dtype).reshape(()), x.requires_grad)
    in_shape = x.data.shape

    def backward(g):
        return (np.broadcast_to(g, in_shape).astype(g.dtype, copy=True),)

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# loss


def cross_entropy_logits(logits: Tensor, labels, ignore_index=255) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under row ``logits``.

    ``labels`` is a plain integer array of shape [P] for logits [P, K];
    entries equal to ``ignore_index`` are excluded from the mean.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [P,K] logits, got {logits.shape}")
    p, k = logits.shape
    if labels.shape != (p,):
        raise ShapeError(f"labels shape {labels.shape} != ({p},)")
    rows = np.flatnonzero(labels != ignore_index)
    count = rows.size
    if count == 0:
        raise ContractError("cross_entropy: every pixel is ignored")
    lab = labels[rows]
    if lab.min() < 0 or lab.max() >= k:
        raise ContractError(f"labels outside [0,{k}) and != {ignore_index}")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1, keepdims=True)
    lse = np.log(denom[:, 0])
    nll = lse[rows] - z[rows, lab]
    out = Tensor._wrap(
        (nll.sum(dtype=z.dtype) / count).reshape(()).astype(z.dtype), logits.requires_grad
    )

    def backward(g):
        grad = e / denom
        if count < p:
            grad[labels == ignore_index] = 0.0
        grad[rows, lab] -= 1.0
        return (grad * (float(g) / count),)

    return _record((logits,), out, backward)


# ---------------------------------------------------------------------------
# verification oracle


def finite_difference_gradient(f, x: Tensor, h=1e-3) -> Tensor:
    """Central-difference estimate of d f / d x, coordinate by coordinate.

    ``f`` maps a Tensor to a scalar Tensor and must be a pure function of
    ``x``'s values. Runs entirely outside the tape and is therefore an
    independent check of the analytic backward rules.
    """
    if h <= 0:
        raise ContractError(f"finite difference step must be positive, got {h}")
    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite objective at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return Tensor._wrap(grad.reshape(x.data.shape), False)


def relative_error(a, b, floor=1e-12):
    """Max-norm relative discrepancy between two same-shape arrays.

    Defined as max|a-b| / max(max|a|, max|b|, floor); used by every
    gradient-check in the test suite so the tolerance means one thing.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    num = float(np.max(np.abs(a - b))) if a.size else 0.0
    den = max(float(np.max(np.abs(a))) if a.size else 0.0,
              float(np.max(np.abs(b))) if b.size else 0.0,
              floor)
    return num / den
