"""Minimal dense-tensor numeric core with reverse-mode differentiation.

Everything is built on contiguous numpy arrays. Each differentiable
operation records a node on an implicit tape (parent links plus a backward
closure); `backward` runs the closures in reverse topological order.
Double precision is the default so gradients can be validated against
central finite differences; training code may opt into float32.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GraphError",
    "tensor",
    "backward",
    "finite_difference_check",
    "set_strict_mode",
    "no_grad",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's shape rule."""


class GraphError(RuntimeError):
    """Raised on invalid tape usage (e.g. double backward)."""


_STRICT_MODE = False
_GRAD_ENABLED = True


def set_strict_mode(enabled: bool) -> None:
    """When enabled, every op rejects a non-finite result."""
    global _STRICT_MODE
    _STRICT_MODE = bool(enabled)


class no_grad:
    """Context manager that disables tape recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _check_finite(op, a):
    if _STRICT_MODE and not np.all(np.isfinite(a)):
        raise ValueError(f"{op}: non-finite result in strict mode")


class Tensor:
    """A numpy array plus optional gradient buffer and tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        # ascontiguousarray would promote 0-d arrays to 1-d; keep them 0-d
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad)


def _make(op, data, parents, backward_fn):
    """Create a result tensor, recording a tape node when grad is needed."""
    _check_finite(op, data)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if t.grad is None:
        t.grad = np.array(g)
    else:
        t.grad += g  # in place: a parameter's gradient is a view of Model.flat_grad


def _unbroadcast(g, shape):
    """Sum gradient `g` down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def backward(out: Tensor, seed=None):
    """Reverse-mode pass from `out`; fills `.grad` on gradient-requiring leaves.

    `seed` defaults to ones (scalar outputs get 1.0). A second backward
    through the same tape is rejected.
    """
    if not out.requires_grad:
        return
    if out._consumed:
        raise GraphError("backward already ran on this graph; re-run forward first")
    # iterative topological order over the tape
    topo = []
    visited = set()
    stack = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    if seed is None:
        seed = np.ones_like(out.data)
    else:
        seed = np.asarray(seed, dtype=out.data.dtype)
        if seed.shape != out.data.shape:
            raise ShapeError(f"backward: seed shape {seed.shape} != output shape {out.data.shape}")
    out.grad = seed
    for node in reversed(topo):
        node._consumed = True
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None  # an interior gradient is spent once passed to the parents


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make("add", data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make("mul", data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    data = a.data * c

    def bw(g):
        _accum(a, g * c)

    return _make("scale", data, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.shape))

    return _make("reshape", data, (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.ascontiguousarray(a.data.transpose(axes))

    def bw(g):
        _accum(a, g.transpose(np.argsort(axes)))

    return _make("transpose", data, (a,), bw)


def concat(tensors, axis=0) -> Tensor:
    datas = [t.data for t in tensors]
    data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _make("concat", data, tuple(tensors), bw)


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape))
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.shape))

    return _make("sum", data, (a,), bw)


def mean_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    data = np.matmul(a.data, b.data)

    def bw(g):
        if b.ndim == 1:
            ga = np.multiply.outer(g, b.data) if a.ndim > 1 else g * b.data
            gb = np.tensordot(g, a.data, axes=(range(g.ndim), range(a.ndim - 1)))
            _accum(a, ga.reshape(a.shape))
            _accum(b, gb)
            return
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.shape))
        _accum(b, _unbroadcast(gb, b.shape))

    return _make("matmul", data, (a, b), bw)


def silu(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # exp overflow saturates sig to 0 exactly
        sig = 1.0 / (1.0 + np.exp(-a.data))
    data = a.data * sig

    def bw(g):
        _accum(a, g * (sig * (1.0 + a.data * (1.0 - sig))))

    return _make("silu", data, (a,), bw)


def glu(a: Tensor, axis=-1) -> Tensor:
    """Gated linear unit: split `a` in half along `axis`, first * sigmoid(second)."""
    n = a.shape[axis]
    if n % 2 != 0:
        raise ShapeError(f"glu: axis extent {n} of shape {a.shape} is odd")
    half = n // 2
    x, gate = np.split(a.data, 2, axis=axis)
    sig = 1.0 / (1.0 + np.exp(-gate))
    data = x * sig

    def bw(g):
        gx = g * sig
        gg = g * x * sig * (1.0 - sig)
        _accum(a, np.concatenate([gx, gg], axis=axis))

    return _make("glu", data, (a,), bw)


def softmax(a: Tensor, axis=-1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accum(a, data * (g - dot))

    return _make("softmax", data, (a,), bw)


def log_softmax(a: Tensor, axis=-1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    p = np.exp(data)

    def bw(g):
        _accum(a, g - p * g.sum(axis=axis, keepdims=True))

    return _make("log_softmax", data, (a,), bw)


def layer_norm(a: Tensor, eps=1e-5) -> Tensor:
    """Normalize over the last axis (no affine; apply gain/bias separately)."""
    # np.add.reduce / n: the same values as ndarray.mean, without its wrapper's cost
    n = a.shape[-1]
    mu = np.add.reduce(a.data, axis=-1, keepdims=True) / n
    xc = a.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    data = xc * inv

    def bw(g):
        gm = np.add.reduce(g, axis=-1, keepdims=True) / n
        gxm = np.add.reduce(g * data, axis=-1, keepdims=True) / n
        _accum(a, inv * (g - gm - data * gxm))

    return _make("layer_norm", data, (a,), bw)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup; ids is an integer array, output shape ids.shape + (d,)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ShapeError(
            f"embedding: id out of range for table {weight.shape} (ids span "
            f"[{ids.min()}, {ids.max()}])"
        )
    data = weight.data[ids]

    def bw(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, weight.shape[1]))
        _accum(weight, gw)

    return _make("embedding", data, (weight,), bw)


def gather_index(a: Tensor, ids) -> Tensor:
    """a: N x V, ids: N -> N values a[i, ids[i]]."""
    ids = np.asarray(ids, dtype=np.int64)
    if a.ndim != 2 or ids.shape != (a.shape[0],):
        raise ShapeError(f"gather_index: got {a.shape} with ids {ids.shape}")
    rows = np.arange(a.shape[0])
    data = a.data[rows, ids]

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[rows, ids] = g
        _accum(a, ga)

    return _make("gather_index", data, (a,), bw)


def mask_fill(a: Tensor, mask, value) -> Tensor:
    """Set positions where `mask` is True to `value`; their gradient is zero."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, np.asarray(value, dtype=a.dtype), a.data)

    def bw(g):
        _accum(a, _unbroadcast(np.where(mask, 0.0, g), a.shape))

    return _make("mask_fill", data, (a,), bw)


def dropout(a: Tensor, rate: float, draws: np.ndarray) -> Tensor:
    """Inverted-scaling dropout: keeps the elements whose uniform draw (an
    array of a's shape) is >= rate, scaled by 1 / (1 - rate)."""
    if draws.shape != a.shape:
        raise ShapeError(f"dropout: draws {draws.shape} for input {a.shape}")
    keep = (draws >= rate).astype(a.dtype) / (1.0 - rate)

    def bw(g):
        _accum(a, g * keep)

    return _make("dropout", a.data * keep, (a,), bw)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def conv1d_out_len(t: int, kernel: int, stride: int, padding: int) -> int:
    return (t + 2 * padding - kernel) // stride + 1


def _frame_windows(op, x: Tensor, w: Tensor, stride, padding):
    """Check a convolution's shapes, then frame x (B x T x C) into its
    zero-padded windows B x T_out x K x C (a copy)."""
    kernel = w.shape[0]
    if stride < 1 or kernel < 1:
        raise ShapeError(f"{op}: invalid stride {stride} or kernel {kernel}")
    if x.ndim != 3 or x.shape[2] != w.shape[1]:
        raise ShapeError(f"{op}: input {x.shape} does not match weight {w.shape}")
    if x.shape[1] + 2 * padding < kernel:
        raise ShapeError(f"{op}: input {x.shape} shorter than kernel {kernel}")
    xp = np.pad(x.data, ((0, 0), (padding, padding), (0, 0)))
    t_out = (xp.shape[1] - kernel) // stride + 1
    return np.take(xp, np.arange(t_out)[:, None] * stride + np.arange(kernel), axis=1)


def _overlap_add(gwin, t, stride, padding):
    """Adjoint of `_frame_windows`: window gradients B x T_out x K x C summed
    back onto the T input frames, one slice per tap. Taps run last to first,
    so each frame adds its windows in the order np.add.at would."""
    b, t_out, kernel, c = gwin.shape
    gx = np.zeros((b, t + 2 * padding, c), gwin.dtype)
    span = stride * (t_out - 1) + 1
    for k in reversed(range(kernel)):
        gx[:, k : k + span : stride] += gwin[:, :, k]
    return gx[:, padding : padding + t]


def conv1d(x: Tensor, w: Tensor, b: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """Strided 1D convolution. x: B x T x Cin, w: K x Cin x Cout, b: Cout."""
    win = _frame_windows("conv1d", x, w, stride, padding)
    bsz, t_out, kernel, cin = win.shape
    # windows as (B*T_out) x (K*Cin) columns times a (K*Cin) x Cout weight; the
    # output and input-gradient products take the weight as left operand,
    # which rounds them exactly as the einsum form of the convolution
    cols = win.reshape(bsz * t_out, kernel * cin)
    w2 = w.data.reshape(kernel * cin, -1)
    data = np.matmul(w2.T, cols.T).T.reshape(bsz, t_out, -1)
    if b is not None:
        data = data + b.data

    def bw(g):
        if b is not None:
            _accum(b, g.sum(axis=(0, 1)))
        g2 = g.reshape(bsz * t_out, -1)
        _accum(w, np.matmul(cols.T, g2).reshape(w.shape))
        if x.requires_grad:
            gwin = np.matmul(w2, g2.T).T.reshape(bsz, t_out, kernel, cin)
            _accum(x, _overlap_add(gwin, x.shape[1], stride, padding))

    parents = (x, w, b) if b is not None else (x, w)
    return _make("conv1d", data, parents, bw)


def depthwise_conv1d(x: Tensor, w: Tensor, b: Tensor | None, padding: int = 0) -> Tensor:
    """Per-channel 1D convolution, stride 1. x: B x T x C, w: K x C, b: C."""
    win = _frame_windows("depthwise_conv1d", x, w, 1, padding)
    data = np.einsum("btkc,kc->btc", win, w.data)
    if b is not None:
        data = data + b.data

    def bw(g):
        if b is not None:
            _accum(b, g.sum(axis=(0, 1)))
        _accum(w, np.einsum("btkc,btc->kc", win, g))
        if x.requires_grad:
            _accum(x, _overlap_add(g[:, :, None, :] * w.data, x.shape[1], 1, padding))

    parents = (x, w, b) if b is not None else (x, w)
    return _make("depthwise_conv1d", data, parents, bw)


# ---------------------------------------------------------------------------
# the finite-difference oracle
# ---------------------------------------------------------------------------


def finite_difference_check(f, x: Tensor, eps: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must be a deterministic scalar-valued function of one tensor
    (dropout off). The relative error per element is
    |analytic - central| / max(|central|, 1e-8).
    """
    x = Tensor(np.asarray(x.data, dtype=np.float64), requires_grad=True)
    out = f(x)
    if not np.all(np.isfinite(out.data)):
        raise ValueError("finite_difference_check: f(x) is non-finite")
    backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    def scalar(t):
        arr = np.asarray(t.data)
        if arr.size != 1:
            raise ShapeError(f"finite_difference_check: f must be scalar-valued, got {arr.shape}")
        return float(arr.reshape(-1)[0])

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = scalar(f(Tensor(x.data.copy())))
        flat[i] = orig - eps
        fm = scalar(f(Tensor(x.data.copy())))
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * eps)
    numeric = numeric.reshape(x.shape)
    denom = np.maximum(np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
