"""Minimal dense-tensor numeric core with reverse-mode differentiation.

Everything is built on contiguous numpy arrays. Each differentiable
operation records a node on an implicit tape (parent links plus a backward
closure); `backward` runs the closures in reverse topological order.
Double precision is the default so gradients can be validated against
central finite differences; training code may opt into float32.

Python cost per node bounds a desk-size step, so the model's layers are fused
nodes with analytic backwards: `matmul` with a bias (linear layer),
`layer_norm` with a gain and a bias (affine layer norm) and `attention` (head
split, scaled QK^T, key mask, softmax, dropout, times V, head merge).
"""

from __future__ import annotations

import math

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
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
MASK_VALUE = -1e30  # score of a masked attention key: its softmax weight underflows to 0


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad)


def _make(op, data, parents, backward_fn):
    """Result tensor of an op, a tape node if grad is enabled and a parent needs
    it. A C-contiguous float array (what ops return) skips `Tensor`'s conversions."""
    if _STRICT_MODE and not np.isfinite(data).all():
        raise ValueError(f"{op}: non-finite result in strict mode")
    if type(data) is np.ndarray and data.dtype in _FLOATS and data.flags.c_contiguous:
        out = Tensor.__new__(Tensor)
        out.data, out.grad, out.requires_grad = data, None, False
        out._parents, out._backward, out._consumed = (), None, False
    else:
        out = Tensor(data)
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward_fn
                break
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


def concat(tensors, axis=0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def bw(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        for t, gt in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, gt)

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


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus `bias` (one value per column) when given: a linear layer."""
    if b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    if bias is not None and bias.shape != b.shape[-1:]:
        raise ShapeError(f"matmul: bias {bias.shape} for weight {b.shape}")
    data = np.matmul(a.data, b.data)
    if bias is not None:
        data += bias.data

    def bw(g):
        if bias is not None:
            _accum(bias, _unbroadcast(g, bias.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))

    parents = (a, b) if bias is None else (a, b, bias)
    return _make("matmul", data, parents, bw)


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


def log_softmax(a: Tensor, axis=-1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bw(g):
        _accum(a, g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _make("log_softmax", data, (a,), bw)


def layer_norm(a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
               eps=1e-5) -> Tensor:
    """Normalize over the last axis, then scale by `gain` and shift by `bias` if given."""
    n = a.shape[-1]
    if any(t is not None and t.shape != (n,) for t in (gain, bias)):
        raise ShapeError(f"layer_norm: gain or bias not of shape ({n},) for input {a.shape}")
    # np.add.reduce / n: the same values as ndarray.mean, without its wrapper's cost
    mu = np.add.reduce(a.data, axis=-1, keepdims=True) / n
    xc = a.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    data = y if gain is None else y * gain.data
    if bias is not None:
        data = data + bias.data

    def bw(g):
        if bias is not None:
            _accum(bias, _unbroadcast(g, bias.shape))
        if gain is not None:
            _accum(gain, _unbroadcast(g * y, gain.shape))
            g = g * gain.data
        if a.requires_grad:
            gm = np.add.reduce(g, axis=-1, keepdims=True) / n
            gym = np.add.reduce(g * y, axis=-1, keepdims=True) / n
            _accum(a, inv * (g - gm - y * gym))

    parents = (a,) + tuple(t for t in (gain, bias) if t is not None)
    return _make("layer_norm", data, parents, bw)


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


def _keep(op, rate, draws, shape, dtype):
    """Dropout's scale per element: 1 / (1 - rate) where the draw is >= rate, else 0."""
    if draws.shape != shape:
        raise ShapeError(f"{op}: draws {draws.shape} for input {shape}")
    return (draws >= rate).astype(dtype) / (1.0 - rate)


def dropout(a: Tensor, rate: float, draws: np.ndarray) -> Tensor:
    """Inverted-scaling dropout: keeps the elements whose uniform draw (an
    array of a's shape) is >= rate, scaled by 1 / (1 - rate)."""
    keep = _keep("dropout", rate, draws, a.shape, a.dtype)

    def bw(g):
        _accum(a, g * keep)

    return _make("dropout", a.data * keep, (a,), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None, rate: float = 0.0,
              draws: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention, heads split and merged inside.

    q: B x Tq x d; k, v: B x Tk x d, or 1 x Tk x d shared by every query row;
    mask: bool, True where a key is hidden, broadcastable to B x heads x Tq x
    Tk; draws: None, or uniform draws of that shape for dropout at `rate` on
    the attention weights (as in `dropout`). Returns B x Tq x d.
    """
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or q.shape[2] % heads
            or k.shape[2] != q.shape[2] or k.shape[0] not in (1, q.shape[0])):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    (b, tq, d), (bk, tk, _) = q.shape, k.shape
    dh, c = d // heads, 1.0 / math.sqrt(d // heads)
    # contiguous head-major copies (K transposed): the products round as on these layouts
    qh = np.ascontiguousarray(q.data.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(k.data.reshape(bk, tk, heads, dh).transpose(0, 2, 3, 1))
    vh = np.ascontiguousarray(v.data.reshape(bk, tk, heads, dh).transpose(0, 2, 1, 3))
    scores = np.matmul(qh, kt) * c
    if mask is not None:
        scores = np.where(mask, scores.dtype.type(MASK_VALUE), scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    keep = None if draws is None else _keep("attention", rate, draws, p.shape, p.dtype)
    pd = p if keep is None else p * keep
    data = np.matmul(pd, vh).transpose(0, 2, 1, 3).reshape(b, tq, d)

    def bw(g):
        g4 = g.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3)
        gp = np.matmul(g4, np.swapaxes(vh, -1, -2))
        gv = _unbroadcast(np.matmul(np.swapaxes(pd, -1, -2), g4), vh.shape)
        gp = gp if keep is None else gp * keep
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        if mask is not None:
            gs = np.where(mask, 0.0, gs)
        gs = gs * c
        gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
        gk = _unbroadcast(np.matmul(np.swapaxes(qh, -1, -2), gs), kt.shape)
        _accum(v, gv.transpose(0, 2, 1, 3).reshape(bk, tk, d))
        _accum(k, gk.transpose(0, 3, 1, 2).reshape(bk, tk, d))
        _accum(q, gq.transpose(0, 2, 1, 3).reshape(b, tq, d))

    return _make("attention", data, (q, k, v), bw)


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
