"""Training objectives: label-smoothed cross-entropy, CTC, and their
weighted combination over a padded batch.

All CTC goes through one log-space recursion over the blank-augmented label
sequences (`_alpha`), vectorized over rows and extended-label states with
masks for each row's frames and labels. `ctc_lattice` runs it forward for the
loss and the decoder's rescoring; the loss's backward variables are the same
recursion run on each row's time- and state-reversed lattice. The batched
loss returns per-row values as a single tape node whose gradient w.r.t. the
input log-probabilities is the analytic occupancy, and the smoothed
cross-entropy is one tape node as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numcore as nc
from .numcore import Tensor

NEG_INF = -np.inf
BLANK_ID = 0


@dataclass
class LossWeights:
    lambda_ce: float = 5.0
    lambda_ctc_src: float = 1.0
    lambda_ctc_tgt: float = 2.0
    smoothing: float = 0.1

    def __post_init__(self):
        if min(self.lambda_ce, self.lambda_ctc_src, self.lambda_ctc_tgt) < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")


@dataclass
class LossBreakdown:
    """Per-utterance terms of one padded batch, each an array over its utterances."""

    ce: np.ndarray  # token-mean smoothed CE
    ctc_src: np.ndarray  # intermediate-tap CTC loss over the transcript length
    ctc_tgt: np.ndarray  # final-encoder CTC loss over the task target length
    tokens: int  # decoder targets that are not padding
    ctc_infeasible: int  # CTC rows (both heads) whose target cannot fit the frames


def loss_total(weights: LossWeights, ce: float, ctc_src: float, ctc_tgt: float) -> float:
    """The single place the weighted sum is evaluated (keeps it bit-exact)."""
    return (
        weights.lambda_ce * ce
        + weights.lambda_ctc_src * ctc_src
        + weights.lambda_ctc_tgt * ctc_tgt
    )


def label_smoothed_ce(logprobs: Tensor, targets, smoothing: float, pad_id: int | None = None) -> Tensor:
    """Mean per-token smoothed NLL, one tape node.

    logprobs: N x V log-softmax rows with N integer target ids, giving the
    scalar mean; or B x N x V with B x N targets, giving the B per-row means
    (each row's own token mean). Positions equal to pad_id are excluded from
    the means. Each token costs -(1 - smoothing) times its target's log-prob
    minus smoothing times the mean log-prob over the V classes.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logprobs.ndim not in (2, 3) or targets.shape != logprobs.shape[:-1]:
        raise nc.ShapeError(f"label_smoothed_ce: logprobs {logprobs.shape} vs targets {targets.shape}")
    v = logprobs.shape[-1]
    mask = np.ones(targets.shape) if pad_id is None else (targets != pad_id).astype(np.float64)
    count = mask.sum(axis=-1)
    if np.any(count == 0):
        raise ValueError("label_smoothed_ce: all positions are padding")
    inv_count = 1.0 / count
    mask = mask.astype(logprobs.dtype)
    safe = np.where(mask > 0, targets, 0)[..., None]
    lp = logprobs.data
    picked = np.take_along_axis(lp, safe, axis=-1)[..., 0]
    uniform = lp.sum(axis=-1) * (1.0 / v)
    per_tok = picked * -(1.0 - smoothing) + uniform * -smoothing
    data = (per_tok * mask).sum(axis=-1) * inv_count

    def bw(g):
        # one factor at a time in the log-probs' dtype, in this order: the
        # gradient is then bit-identical to these steps as separate numcore ops
        g_tok = (g * inv_count).astype(lp.dtype)[..., None] * mask
        g_uniform = g_tok * -smoothing * (1.0 / v)
        grad = np.repeat(g_uniform[..., None], v, axis=-1)
        np.put_along_axis(grad, safe, (g_tok * -(1.0 - smoothing) + g_uniform)[..., None], axis=-1)
        nc._accum(logprobs, grad)

    return nc._make("label_smoothed_ce", data, (logprobs,), bw)


def ctc_feasible(num_frames: int, target) -> bool:
    target = list(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return num_frames >= len(target) + repeats


class Lattice(NamedTuple):
    log_p: np.ndarray  # R: log P(target | frames), -inf if the target cannot fit
    alpha: np.ndarray  # R x T x S log forward variables (emission included)
    emit: np.ndarray  # R x T x S emission log-probs, -inf at padded states
    ext: np.ndarray  # R x S extended label ids (blank-interleaved, blank-padded)
    s_len: np.ndarray  # R extended-sequence lengths (2 * len(target) + 1)


def _skip(ext: np.ndarray, blank: int) -> np.ndarray:
    """R x S: 0 where the two-state skip into s is allowed, -inf where it is not."""
    skip = np.full(ext.shape, NEG_INF)
    skip[:, 2:][(ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])] = 0.0
    return skip


def _alpha(emit: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """The CTC recursion (Graves et al., 2006) over R x T x S emission
    log-probs, vectorized over rows and states; the only one in the package.
    Every row starts in its first two states at frame 0."""
    rows, t_max, s_max = emit.shape
    alpha = np.full(emit.shape, NEG_INF)
    alpha[:, 0, :2] = emit[:, 0, :2]
    prev = np.full((rows, s_max + 2), NEG_INF)  # two -inf states on the left
    for t in range(1, t_max):
        prev[:, 2:] = alpha[:, t - 1]
        alpha[:, t] = (np.logaddexp(np.logaddexp(prev[:, 2:], prev[:, 1:-1]), prev[:, :-2] + skip)
                       + emit[:, t])
    return alpha


def ctc_lattice(logp: np.ndarray, targets, lengths, blank: int = BLANK_ID) -> Lattice:
    """The CTC forward variables and sequence log-likelihoods of R rows.

    logp: R x T x V frame log-probs (a broadcast view is fine); targets: R
    label sequences without blanks; lengths: R valid frame counts (frames
    past a row's length are ignored). Row r's extended sequence is blank,
    l1, blank, ..., blank, right-padded to the longest row with states whose
    emission is -inf.
    """
    rows, t_max, _ = logp.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(targets) != rows or lengths.shape != (rows,):
        raise nc.ShapeError(f"ctc_lattice: {rows} rows, {len(targets)} targets, lengths {lengths.shape}")
    if rows and (lengths.min() < 1 or lengths.max() > t_max):
        raise nc.ShapeError(f"ctc_lattice: lengths {lengths.tolist()} outside [1, {t_max}]")
    s_len = np.array([2 * len(t) + 1 for t in targets], dtype=np.int64)
    s_max = int(s_len.max(initial=1))
    ext = np.full((rows, s_max), blank, dtype=np.int64)
    for r, t in enumerate(targets):
        ext[r, 1 : s_len[r] : 2] = np.asarray(t, dtype=np.int64)
    valid = np.arange(s_max)[None, :] < s_len[:, None]
    emit = np.take_along_axis(logp, ext[:, None, :], axis=2).astype(np.float64)
    emit[~np.broadcast_to(valid[:, None, :], emit.shape)] = NEG_INF
    alpha = _alpha(emit, _skip(ext, blank))
    ends = valid & (np.arange(s_max)[None, :] >= s_len[:, None] - 2)  # final blank and label
    log_p = np.logaddexp.reduce(np.where(ends, alpha[np.arange(rows), lengths - 1], NEG_INF), axis=1)
    return Lattice(log_p, alpha, emit, ext, s_len)


def _beta(lat: Lattice, lengths: np.ndarray, blank: int) -> np.ndarray:
    """R x T x S log backward variables (emission included): the forward
    recursion run on each row's time- and state-reversed emissions and
    extended labels, read back in reverse. -inf past a row's last frame and
    at padded states."""
    rows, t_max, s_max = lat.emit.shape
    t = lengths[:, None] - 1 - np.arange(t_max)  # < 0 past the last frame
    s = lat.s_len[:, None] - 1 - np.arange(s_max)  # < 0 at padded states
    outside = (t < 0)[:, :, None] | (s < 0)[:, None, :]
    # flat index of each row's reversed (frame, state), wrapped where outside
    idx = ((np.arange(rows)[:, None] * t_max + t % t_max) * s_max)[:, :, None] + (s % s_max)[:, None, :]

    def flip(x):  # its own inverse on each row's frames and states
        out = x.take(idx)
        out[outside] = NEG_INF  # in place: np.where's second R x T x S array cost 3x more
        return out

    ext = np.where(s < 0, blank, np.take_along_axis(lat.ext, s % s_max, axis=1))
    return flip(_alpha(flip(lat.emit), _skip(ext, blank)))


def ctc_loss(logprobs: Tensor, target, input_len=None, blank: int = BLANK_ID) -> Tensor:
    """Negative log-likelihood of label sequences (no blanks) under frame logprobs.

    Unbatched: logprobs T x V, target one sequence, input_len one frame count
    (default T); returns a scalar. Batched: logprobs R x T x V, target R
    sequences, input_len R frame counts (default all T); returns the R
    per-row values as one tape node. A target that cannot fit its frames
    yields +inf and no gradient instead of raising. The gradient w.r.t.
    logprobs is the analytic forward-backward occupancy.
    """
    batched = logprobs.ndim == 3
    logp = logprobs.data if batched else logprobs.data[None]
    rows, t_max, v = logp.shape
    lengths = np.full(rows, t_max) if input_len is None else np.asarray(input_len, np.int64).reshape(-1)
    lat = ctc_lattice(logp, target if batched else [target], lengths, blank)
    loss_val = -lat.log_p

    def bw(g):
        # d(-logP)/dlogp[r,t,k] = -sum_{s: ext[r,s]=k} exp(alpha+beta-emit-logP)
        beta = _beta(lat, lengths, blank)
        with np.errstate(invalid="ignore"):
            occ = lat.alpha + beta - lat.emit - lat.log_p[:, None, None]
            w = np.where(np.isnan(occ), 0.0, np.exp(occ))  # nan: padded state
        w[~np.isfinite(lat.log_p)] = 0.0
        onehot = np.zeros((rows, lat.ext.shape[1], v))
        np.put_along_axis(onehot, lat.ext[:, :, None], 1.0, axis=2)
        grad = np.matmul(w, onehot) * -np.reshape(g, (-1, 1, 1))
        nc._accum(logprobs, grad if batched else grad[0])

    return nc._make("ctc_loss", loss_val if batched else loss_val[0], (logprobs,), bw)


def ctc_brute_force(logp: np.ndarray, target, blank: int = BLANK_ID) -> float:
    """Oracle: -log of the summed probability over all alignment paths.

    Enumerates every V^T frame labeling and keeps those that collapse
    (dedupe repeats, drop blanks) to the target. Exponential; tests only.
    """
    import itertools

    t_len, v = logp.shape
    target = [int(t) for t in target]
    total = NEG_INF
    for path in itertools.product(range(v), repeat=t_len):
        collapsed = []
        prev = None
        for p in path:
            if p != prev and p != blank:
                collapsed.append(p)
            prev = p
        if collapsed == target:
            total = np.logaddexp(total, sum(logp[t, p] for t, p in enumerate(path)))
    return float(-total)


@dataclass
class BatchOutputs:
    """Model outputs of one padded batch and the references of the combined
    objective."""

    dec_logprobs: Tensor  # B x N x V, teacher-forced next-token log-probs
    dec_targets: np.ndarray  # B x N target ids (shifted sequence), right-padded with pad_id
    ctc_src_logprobs: Tensor  # B x T' x V, intermediate-tap head
    ctc_tgt_logprobs: Tensor  # B x T' x V, final-encoder head
    enc_lengths: np.ndarray  # B valid encoder frames
    src_targets: list  # B transcript text-token ids (CTCsrc reference)
    task_targets: list  # B task text-token ids: transcript for ASR, translation for ST
    pad_id: int  # dec_targets padding, excluded from the CE means


def combined_loss(outputs: BatchOutputs, weights: LossWeights):
    """Weighted sum of CE and the two CTC losses over a padded batch.

    Each utterance's term is lambda_ce times its own token-mean CE plus each
    CTC loss divided by its target length; both CTC heads go through one
    batched lattice.

    Returns (LossBreakdown, objective) where objective is the sum over
    utterances of per-utterance terms (divide its gradients by the
    utterance count; keeping it a plain sum makes gradient accumulation
    split-invariant).
    """
    n = len(outputs.enc_lengths)
    ce = label_smoothed_ce(outputs.dec_logprobs, outputs.dec_targets, weights.smoothing,
                           outputs.pad_id)
    targets = list(outputs.src_targets) + list(outputs.task_targets)
    ctc = ctc_loss(nc.concat([outputs.ctc_src_logprobs, outputs.ctc_tgt_logprobs], axis=0),
                   targets, np.concatenate([outputs.enc_lengths, outputs.enc_lengths]))
    ctc = nc.mul(ctc, nc.tensor(np.array([1.0 / max(len(t), 1) for t in targets])))
    lambdas = np.repeat([weights.lambda_ctc_src, weights.lambda_ctc_tgt], n)
    objective = nc.add(nc.scale(nc.sum_(ce), weights.lambda_ce),
                       nc.sum_(nc.mul(ctc, nc.tensor(lambdas))))
    breakdown = LossBreakdown(
        ce=ce.data.astype(np.float64),
        ctc_src=ctc.data[:n],
        ctc_tgt=ctc.data[n:],
        tokens=int(np.sum(outputs.dec_targets != outputs.pad_id)),
        ctc_infeasible=int(np.isinf(ctc.data).sum()),
    )
    return breakdown, objective
