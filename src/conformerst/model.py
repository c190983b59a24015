"""Conformer encoder-decoder with a convolutional subsampler, an
intermediate-layer CTC tap, and two independent CTC projection heads.

Layout per encoder block is the macaron structure: half-FFN, self-attention,
depthwise-conv module, half-FFN, final layernorm. The decoder is a pre-norm
Transformer. Positional encoding is sinusoidal absolute, added after
subsampling and after the decoder embedding.

The decoder has one path, `decode_step` over a `DecoderState`: teacher forcing
feeds whole sequences to a fresh state, incremental decoding feeds each row's
next tokens to a state that it keeps.

The layers are numcore's fused nodes: a linear layer is one `matmul` node with
its bias, a layer norm one `layer_norm` node with its gain and bias, and the
attention core (head split, scaled QK^T, mask, softmax, dropout, times V,
head merge) one `attention` node.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, asdict

import numpy as np

from . import numcore as nc
from .numcore import Tensor

CHECKPOINT_MAGIC = b"FAMA"
CHECKPOINT_VERSION = 1


def tap_layer_for(enc_layers: int) -> int:
    """Intermediate CTC tap at two thirds of the encoder depth."""
    return round(2 * enc_layers / 3)


@dataclass
class ModelConfig:
    vocab_size: int
    enc_layers: int = 4
    dec_layers: int = 2
    d_model: int = 64
    heads: int = 4
    d_ffn: int = 256
    conv_kernel: int = 15
    tap_layer: int | None = None
    dropout: float = 0.1
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("enc_layers", "dec_layers", "d_model", "heads", "d_ffn", "conv_kernel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.d_model % 2:
            raise ValueError(f"d_model {self.d_model} is odd: sine and cosine columns need an even width")
        if self.conv_kernel % 2 == 0:
            raise ValueError(f"conv_kernel must be odd for 'same' padding, got {self.conv_kernel}")
        if self.enc_layers != 2 * self.dec_layers:
            raise ValueError(
                f"encoder depth must be twice the decoder depth, got "
                f"{self.enc_layers}/{self.dec_layers}"
            )
        if self.tap_layer is None:
            self.tap_layer = tap_layer_for(self.enc_layers)
        elif self.tap_layer != tap_layer_for(self.enc_layers):
            raise ValueError(
                f"tap_layer must be round(2*enc_layers/3) = "
                f"{tap_layer_for(self.enc_layers)}, got {self.tap_layer}"
            )
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


# full-scale "small" reference configuration (used for the parameter-count check)
def small_config(vocab_size: int = 16000) -> "ModelConfig":
    return ModelConfig(
        vocab_size=vocab_size,
        enc_layers=12,
        dec_layers=6,
        d_model=1024,
        heads=16,
        d_ffn=4096,
        conv_kernel=31,
    )


@dataclass
class EncoderOutput:
    states: Tensor  # B x T' x d, padded positions zero
    tap_states: Tensor  # B x T' x d at the tap layer
    lengths: np.ndarray  # per-utterance valid frame counts after subsampling


@dataclass
class DecoderState:
    """Incremental decoder state of the rows (beams) of one encoder output;
    made by `Model.decoder_state`, advanced by `Model.decode_step`."""

    cross_kv: list  # per layer (keys, values), encoder batch x T' x d
    pe: np.ndarray  # positional table, rows 0..; starts empty, doubles on demand
    self_kv: list  # per layer (keys, values) of the positions fed so far, rows x pos x d
    pos: int = 0  # positions fed so far

    def reorder(self, parent_rows):
        """Row r continues from row parent_rows[r]; rows may repeat or drop."""
        rows = np.asarray(parent_rows, dtype=np.int64)
        if not self.self_kv or np.array_equal(rows, np.arange(self.self_kv[0][0].shape[0])):
            return  # rows stay in order: nothing to copy
        self.self_kv = [tuple(Tensor(t.data[rows]) for t in kv) for kv in self.self_kv]

    def truncate(self, pos: int):
        """Keep the first `pos` positions fed; the next `decode_step` feeds
        position `pos` onward, as if the later ones had never been fed."""
        if not 0 <= pos <= self.pos:
            raise ValueError(f"truncate: position {pos} outside 0..{self.pos}")
        if pos < self.pos:
            self.self_kv = [tuple(Tensor(t.data[:, :pos]) for t in kv) for kv in self.self_kv]
            self.pos = pos


NUM_FEATURES = 80
SUBSAMPLE_KERNEL = 5
SUBSAMPLE_STRIDE = 2
SUBSAMPLE_PAD = SUBSAMPLE_KERNEL // 2


def subsampled_length(t: int) -> int:
    for _ in range(2):
        t = nc.conv1d_out_len(t, SUBSAMPLE_KERNEL, SUBSAMPLE_STRIDE, SUBSAMPLE_PAD)
    return t


def sinusoidal_encoding(length: int, d: int, dtype) -> np.ndarray:
    pos = np.arange(length)[:, None]
    div = np.exp(np.arange(0, d, 2) * (-math.log(10000.0) / d))
    pe = np.zeros((length, d))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div)
    return pe.astype(dtype)


def parameter_shapes(config: ModelConfig):
    """Named (shape, init-kind) inventory; the count is a pure function of it."""
    c = config
    d, v = c.d_model, c.vocab_size
    out = []

    def add(name, shape, kind="linear"):
        out.append((name, tuple(shape), kind))

    def add_linear(name, d_in, d_out):
        add(f"{name}.w", (d_in, d_out))
        add(f"{name}.b", (d_out,), "zeros")

    def add_ln(name):
        add(f"{name}.g", (d,), "ones")
        add(f"{name}.b", (d,), "zeros")

    # subsampler: two strided convs with SiLU, then a linear projection
    add("sub.conv1.w", (SUBSAMPLE_KERNEL, NUM_FEATURES, d))
    add("sub.conv1.b", (d,), "zeros")
    add("sub.conv2.w", (SUBSAMPLE_KERNEL, d, d))
    add("sub.conv2.b", (d,), "zeros")
    add_linear("sub.proj", d, d)
    for i in range(c.enc_layers):
        p = f"enc.{i}"
        for ffn in ("ffn1", "ffn2"):
            add_ln(f"{p}.{ffn}.ln")
            add_linear(f"{p}.{ffn}.fc1", d, c.d_ffn)
            add_linear(f"{p}.{ffn}.fc2", c.d_ffn, d)
        add_ln(f"{p}.attn.ln")
        for m in ("q", "k", "v", "o"):
            add_linear(f"{p}.attn.{m}", d, d)
        add_ln(f"{p}.conv.ln")
        add_linear(f"{p}.conv.pw1", d, 2 * d)
        add(f"{p}.conv.dw.w", (c.conv_kernel, d))
        add(f"{p}.conv.dw.b", (d,), "zeros")
        add_ln(f"{p}.conv.norm")
        add_linear(f"{p}.conv.pw2", d, d)
        add_ln(f"{p}.final_ln")
    for i in range(c.dec_layers):
        p = f"dec.{i}"
        add_ln(f"{p}.self.ln")
        for m in ("q", "k", "v", "o"):
            add_linear(f"{p}.self.{m}", d, d)
        add_ln(f"{p}.cross.ln")
        for m in ("q", "k", "v", "o"):
            add_linear(f"{p}.cross.{m}", d, d)
        add_ln(f"{p}.ffn.ln")
        add_linear(f"{p}.ffn.fc1", d, c.d_ffn)
        add_linear(f"{p}.ffn.fc2", c.d_ffn, d)
    add("dec.embed", (v, d))
    add_ln("dec.final_ln")
    add_linear("dec.out", d, v)
    add_linear("ctc.src", d, v)
    add_linear("ctc.tgt", d, v)
    return out


def parameter_count_for(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_shapes(config))


class Model:
    """Holds the parameter registry and the forward passes.

    Every parameter's `data` is a view of one contiguous array, `flat`, in
    `parameter_shapes` order; after the first `zero_grad`, every `grad` is the
    matching view of `flat_grad`, so the optimizer sees two flat arrays.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.flat_grad = None  # allocated by the first zero_grad
        self._rng = np.random.default_rng(seed)
        self._build()
        self.training = False
        self.dropout_rng = np.random.default_rng(seed + 1)  # trainers key per-row generators off it
        self._row_rngs = None  # per-row dropout generators, set by row_dropout()

    # -- parameter registry ------------------------------------------------

    def _split(self, flat):
        """(name, init kind, view of `flat`) per parameter, in `parameter_shapes` order."""
        offset = 0
        for name, shape, kind in parameter_shapes(self.config):
            size = math.prod(shape)
            yield name, kind, flat[offset : offset + size].reshape(shape)
            offset += size

    def _build(self):
        self.flat = np.zeros(parameter_count_for(self.config), dtype=self.config.np_dtype)
        for name, kind, arr in self._split(self.flat):
            if kind == "ones":
                arr[...] = 1.0
            elif kind == "linear":
                fan_in = arr.shape[0] if arr.ndim == 1 else math.prod(arr.shape[:-1])
                arr[...] = self._rng.standard_normal(arr.shape) / math.sqrt(max(fan_in, 1))
            self.params[name] = Tensor(arr, requires_grad=True)

    def zero_grad(self):
        """Zero every parameter gradient. The first call allocates `flat_grad`
        and binds its views as the gradients, into which backward adds."""
        if self.flat_grad is None:
            self.flat_grad = np.zeros_like(self.flat)
            for name, _, view in self._split(self.flat_grad):
                self.params[name].grad = view
        else:
            self.flat_grad.fill(0)

    def state_arrays(self) -> dict:
        return {k: p.data for k, p in self.params.items()}

    def load_state(self, arrays: dict):
        for k, p in self.params.items():
            if k not in arrays:
                raise KeyError(f"checkpoint missing tensor {k!r}")
            a = np.asarray(arrays[k], dtype=self.config.np_dtype)
            if a.shape != p.data.shape:
                raise ValueError(f"tensor {k!r}: checkpoint shape {a.shape} != model {p.data.shape}")
            p.data[...] = a  # a copy: optimizer updates never mutate the caller's arrays

    # -- building blocks ----------------------------------------------------

    def _p(self, name):
        return self.params[name]

    def _linear(self, name, x):
        return nc.matmul(x, self._p(f"{name}.w"), self._p(f"{name}.b"))

    def _ln(self, name, x):
        return nc.layer_norm(x, self._p(f"{name}.g"), self._p(f"{name}.b"))

    @contextmanager
    def row_dropout(self, rngs):
        """Within this block, row b of every batch draws its dropout masks from
        rngs[b] at its own unpadded extent, so a row's masks depend neither on
        the padding nor on the other rows of the batch. A forward in training
        mode with dropout needs it."""
        self._row_rngs = list(rngs)
        try:
            yield
        finally:
            self._row_rngs = None

    def _draws(self, shape, q_lens, k_lens=None):
        """Uniform dropout draws of `shape`, or None when dropout is off.
        q_lens: valid positions per row on axis 1 (B x T x d), or on the query
        axis of attention weights (B x H x Tq x Tk) with k_lens valid keys."""
        if not self.training or self.config.dropout <= 0.0:
            return None
        if self._row_rngs is None or len(self._row_rngs) != shape[0]:
            given = "no" if self._row_rngs is None else len(self._row_rngs)
            raise ValueError(f"training forward of a batch of {shape[0]} needs one dropout "
                             f"generator per row (Model.row_dropout); got {given}")
        draws = np.ones(shape)  # padded positions are kept; no valid position reads them
        for b, rng in enumerate(self._row_rngs):
            ext = ((q_lens[b],) + shape[2:] if k_lens is None
                   else (shape[1], q_lens[b], k_lens[b]))
            draws[(b,) + tuple(slice(0, e) for e in ext)] = rng.random(ext)
        return draws

    def _dropout(self, x, lens):
        draws = self._draws(x.shape, lens)
        return x if draws is None else nc.dropout(x, self.config.dropout, draws)

    def _kv(self, prefix, x):
        """Keys and values of attention `prefix` over states x (B x T x d)."""
        return self._linear(f"{prefix}.k", x), self._linear(f"{prefix}.v", x)

    def _mha(self, prefix, x_q, kv, mask, q_lens, k_lens):
        """kv: (keys, values) from `_kv`, B x Tk x d, or with batch 1 to
        broadcast one encoder output over the query rows; mask: bool array,
        True where a key is hidden, broadcastable to B x H x Tq x Tk;
        q_lens/k_lens: valid query/key positions per row (for dropout)."""
        b, tq, _ = x_q.shape
        h = self.config.heads
        draws = self._draws((b, h, tq, kv[0].shape[1]), q_lens, k_lens)
        out = nc.attention(self._linear(f"{prefix}.q", x_q), *kv, h, mask,
                           self.config.dropout, draws)
        return self._linear(f"{prefix}.o", out)

    def _ffn(self, prefix, x, lens):
        h = nc.silu(self._linear(f"{prefix}.fc1", self._ln(f"{prefix}.ln", x)))
        return self._dropout(self._linear(f"{prefix}.fc2", h), lens)

    def _conv_module(self, prefix, x, mask_mul, lens):
        h = self._ln(f"{prefix}.ln", x)
        h = nc.glu(self._linear(f"{prefix}.pw1", h))
        if mask_mul is not None:
            h = nc.mul(h, mask_mul)  # keep padded frames out of the conv window
        h = nc.depthwise_conv1d(
            h, self._p(f"{prefix}.dw.w"), self._p(f"{prefix}.dw.b"),
            padding=self.config.conv_kernel // 2,
        )
        h = nc.silu(self._ln(f"{prefix}.norm", h))
        return self._dropout(self._linear(f"{prefix}.pw2", h), lens)

    # -- forward passes ------------------------------------------------------

    def subsample(self, features: np.ndarray, lengths) -> tuple[Tensor, np.ndarray]:
        """features: B x T x 80 (padded with zeros); returns B x T' x d states."""
        if features.ndim != 3 or features.shape[2] != NUM_FEATURES:
            raise nc.ShapeError(f"subsample: expected B x T x {NUM_FEATURES}, got {features.shape}")
        if features.shape[1] < SUBSAMPLE_KERNEL:
            raise nc.ShapeError(
                f"subsample: input length {features.shape[1]} shorter than kernel {SUBSAMPLE_KERNEL}"
            )
        lengths = np.asarray(lengths, dtype=np.int64)
        x = features if isinstance(features, Tensor) else Tensor(
            np.asarray(features, dtype=self.config.np_dtype)
        )
        len1 = nc.conv1d_out_len(lengths, SUBSAMPLE_KERNEL, SUBSAMPLE_STRIDE, SUBSAMPLE_PAD)
        len2 = nc.conv1d_out_len(len1, SUBSAMPLE_KERNEL, SUBSAMPLE_STRIDE, SUBSAMPLE_PAD)
        h = nc.silu(nc.conv1d(x, self._p("sub.conv1.w"), self._p("sub.conv1.b"),
                              stride=SUBSAMPLE_STRIDE, padding=SUBSAMPLE_PAD))
        h = nc.mul(h, Tensor(self._length_mask(len1, h.shape[1])))
        h = nc.silu(nc.conv1d(h, self._p("sub.conv2.w"), self._p("sub.conv2.b"),
                              stride=SUBSAMPLE_STRIDE, padding=SUBSAMPLE_PAD))
        mask2 = Tensor(self._length_mask(len2, h.shape[1]))
        h = nc.mul(h, mask2)
        h = nc.mul(self._linear("sub.proj", h), mask2)
        return h, len2

    def _length_mask(self, lengths, t):
        m = (np.arange(t)[None, :] < np.asarray(lengths)[:, None]).astype(self.config.np_dtype)
        return m[:, :, None]

    def encode(self, features: np.ndarray, lengths) -> EncoderOutput:
        lengths = np.asarray(lengths, dtype=np.int64)
        if (lengths > features.shape[1]).any():
            raise nc.ShapeError(
                f"encode: lengths {lengths.tolist()} exceed frame axis {features.shape[1]}"
            )
        h, sub_len = self.subsample(features, lengths)
        b, t, d = h.shape
        mask_mul = Tensor(self._length_mask(sub_len, t))
        attn_mask = np.arange(t)[None, None, None, :] >= sub_len[:, None, None, None]
        pe = Tensor(sinusoidal_encoding(t, d, self.config.np_dtype))
        h = nc.add(h, pe)
        h = self._dropout(h, sub_len)
        h = nc.mul(h, mask_mul)
        for i in range(self.config.enc_layers):
            p = f"enc.{i}"
            h = nc.add(h, nc.scale(self._ffn(f"{p}.ffn1", h, sub_len), 0.5))
            x = self._ln(f"{p}.attn.ln", h)
            h = nc.add(h, self._dropout(self._mha(f"{p}.attn", x, self._kv(f"{p}.attn", x),
                                                  attn_mask, sub_len, sub_len), sub_len))
            h = nc.add(h, self._conv_module(f"{p}.conv", h, mask_mul, sub_len))
            h = nc.add(h, nc.scale(self._ffn(f"{p}.ffn2", h, sub_len), 0.5))
            h = self._ln(f"{p}.final_ln", h)
            h = nc.mul(h, mask_mul)
            if i + 1 == self.config.tap_layer:
                tap_states = h
        return EncoderOutput(states=h, tap_states=tap_states, lengths=sub_len)

    def decoder_state(self, enc: EncoderOutput) -> DecoderState:
        """Empty incremental state for decoding `enc` with `decode_step`.

        Each layer's cross-attention keys and values are projected here once;
        with an encoder batch of 1 they are shared by every row (beam) fed
        later. The self-attention keys and values grow as positions are fed.
        """
        return DecoderState(
            cross_kv=[self._kv(f"dec.{i}.cross", enc.states) for i in range(self.config.dec_layers)],
            pe=sinusoidal_encoding(0, self.config.d_model, self.config.np_dtype),
            self_kv=[None] * self.config.dec_layers,
        )

    def decode_step(self, enc: EncoderOutput, prefix, lengths=None, state=None) -> Tensor:
        """Decoder log-probs for every position of `prefix` (B x N x V).

        `prefix` holds the next N tokens of each row, at positions `state.pos`
        onward. Only those positions are computed: they attend to the keys and
        values the state holds for the earlier positions, and their own are
        appended to it. Call `state.reorder` when rows are selected or
        duplicated between steps. A state passed in (from `decoder_state`) is
        for inference only.

        Without `state` this is teacher forcing: a fresh state, so `prefix`
        holds whole token sequences from position 0. Rows may be right-padded
        to a common length; `lengths` gives each row's valid positions
        (default: all N), and the causal mask keeps the padding out of every
        valid position.
        """
        prefix = np.asarray(prefix, dtype=np.int64)
        if prefix.ndim == 1:
            prefix = prefix[None, :]
        if prefix.shape[1] == 0:
            raise ValueError("decode_step: empty prefix (must start with [bos, lang])")
        if state is None:
            state = self.decoder_state(enc)
        elif self.training:
            raise ValueError("decode_step: an incremental state is for inference; "
                             "training runs teacher forcing (state=None)")
        b, n = prefix.shape
        lens = np.full(b, n) if lengths is None else np.asarray(lengths, dtype=np.int64)
        d = self.config.d_model
        start = state.pos
        if state.pe.shape[0] < start + n:
            state.pe = sinusoidal_encoding(2 * (start + n), d, self.config.np_dtype)
        h = nc.scale(nc.embedding(self._p("dec.embed"), prefix), math.sqrt(d))
        h = nc.add(h, Tensor(state.pe[start : start + n]))
        h = self._dropout(h, lens)
        # query i sits at position start + i and sees keys up to it
        causal = (np.arange(start + n)[None, :] > np.arange(start, start + n)[:, None])[None, None]
        t_enc = enc.states.shape[1]
        cross_mask = np.arange(t_enc)[None, None, None, :] >= enc.lengths[:, None, None, None]
        for i in range(self.config.dec_layers):
            p = f"dec.{i}"
            x = self._ln(f"{p}.self.ln", h)
            kv = self._kv(f"{p}.self", x)
            if state.self_kv[i] is not None:
                kv = tuple(nc.concat([old, new], axis=1) for old, new in zip(state.self_kv[i], kv))
            state.self_kv[i] = kv
            h = nc.add(h, self._dropout(self._mha(f"{p}.self", x, kv, causal, lens, lens), lens))
            x = self._ln(f"{p}.cross.ln", h)
            h = nc.add(h, self._dropout(
                self._mha(f"{p}.cross", x, state.cross_kv[i], cross_mask, lens, enc.lengths), lens))
            h = nc.add(h, self._ffn(f"{p}.ffn", h, lens))
        state.pos = start + n
        h = self._ln("dec.final_ln", h)
        logits = self._linear("dec.out", h)
        return nc.log_softmax(logits)

    def ctc_head(self, states: Tensor, which: str) -> Tensor:
        """Per-frame log-probs over the vocabulary (blank included)."""
        if which == "src-tap":
            return nc.log_softmax(self._linear("ctc.src", states))
        if which == "tgt-final":
            return nc.log_softmax(self._linear("ctc.tgt", states))
        raise ValueError(f"unknown CTC head {which!r}; expected 'src-tap' or 'tgt-final'")


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def save_checkpoint(path, arrays: dict, config: ModelConfig, step: int, stage: str) -> None:
    """Binary container: magic, version, JSON metadata, named f32 tensors.

    Written to a temporary file in the same directory and moved over `path`
    at the end, so `path` holds either the previous or the new checkpoint."""
    meta = json.dumps(
        {"config": asdict(config), "step": int(step), "stage": stage},
        sort_keys=True,
    ).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta)))
            f.write(meta)
            names = sorted(arrays)
            f.write(struct.pack("<I", len(names)))
            for name in names:
                arr = np.ascontiguousarray(np.asarray(arrays[name], dtype="<f4"))
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (arrays, config, step, stage); a truncated or malformed file
    raises ValueError naming `path`."""
    with open(path, "rb") as f:

        def read(n):
            data = f.read(n)
            if len(data) != n:
                raise ValueError(f"{path}: truncated checkpoint (read {len(data)} of {n} bytes "
                                 f"at offset {f.tell() - len(data)})")
            return data

        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        version, meta_len = struct.unpack("<II", read(8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        meta = json.loads(read(meta_len).decode("utf-8"))
        (count,) = struct.unpack("<I", read(4))
        arrays = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            name = read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            size = int(np.prod(shape)) if ndim else 1
            arrays[name] = np.frombuffer(read(4 * size), dtype="<f4").reshape(shape).copy()
    config = ModelConfig(**meta["config"])
    return arrays, config, meta["step"], meta["stage"]
