"""Attention beam search with unknown-token penalty, no-repeat n-gram
blocking, and joint CTC rescoring of completed hypotheses; and the one
decode loop over manifest entries.

The beam search decodes incrementally: it feeds `[bos, lang]` once and then
only each beam's newest token to `Model.decode_step`, whose state keeps every
decoder layer's self-attention keys and values and projects the
cross-attention keys and values once per utterance. Each step scores all
beams' continuations in one beams x V array. Every search finishes through
`joint_rescore`, which skips the CTC lattice at CTC weight 0.

Decoding has no RNG: identical inputs and config produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .losses import ctc_lattice
from .textproc import LANGS, task_fields
from .textproc import decode as decode_ids

NEG_INF = -np.inf


@dataclass
class DecodeConfig:
    beam: int = 5
    unk_penalty: float = 10000.0  # subtracted from the unk log-score
    no_repeat_ngram: int = 5
    ctc_weight: float = 0.2
    max_len_factor: float = 1.0  # output cap: factor * encoder frames + 10
    length_normalize: bool = True

    def __post_init__(self):
        if self.beam < 1:
            raise ValueError(f"beam must be >= 1, got {self.beam}")
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError(f"ctc_weight must be in [0, 1], got {self.ctc_weight}")


@dataclass
class Hypothesis:
    tokens: list
    attn_logp: float = 0.0
    ctc_logp: float = 0.0
    score: float = 0.0

    def text_tokens(self, vocab):
        """Generated text ids: strip bos/lang prefix and the trailing eos."""
        toks = self.tokens[2:]
        if toks and toks[-1] == vocab.eos_id:
            toks = toks[:-1]
        return toks


def banned_ngram_tokens(tokens, n: int):
    """Tokens that would complete an n-gram already present in `tokens`."""
    if n <= 0 or len(tokens) < n - 1:
        return set()
    prefix = tuple(tokens[-(n - 1):]) if n > 1 else ()
    banned = set()
    for i in range(len(tokens) - n + 1):
        if tuple(tokens[i : i + n - 1]) == prefix:
            banned.add(tokens[i + n - 1])
    return banned


def combined_score(attn_logp: float, ctc_logp: float, w: float, hyp_len: int, normalize: bool) -> float:
    score = (1.0 - w) * attn_logp + w * ctc_logp
    return score / max(hyp_len, 1) if normalize else score


def joint_rescore(hyps, ctc_logprobs, w: float, vocab, normalize: bool = True):
    """Rerank finished hypotheses by (1-w)*attention + w*CTC sequence score;
    all hypotheses are scored in one lattice. At w = 0 no lattice is built
    and every CTC score is 0, so `ctc_logprobs` is not read."""
    if w > 0.0:
        logp = np.asarray(ctc_logprobs)
        rows = len(hyps)
        scores = ctc_lattice(np.broadcast_to(logp, (rows,) + logp.shape),
                             [h.text_tokens(vocab) for h in hyps], [logp.shape[0]] * rows,
                             vocab.blank_id).log_p
    else:
        scores = [0.0] * len(hyps)
    for h, ctc_logp in zip(hyps, scores):
        h.ctc_logp = float(ctc_logp)
        h.score = combined_score(h.attn_logp, h.ctc_logp, w, len(h.tokens) - 2, normalize)
    return sorted(hyps, key=lambda h: h.score, reverse=True)


def beam_search(model, vocab, enc, tgt_lang: str, cfg: DecodeConfig):
    """Decode one utterance; returns hypotheses ranked by combined score."""
    if enc.states.shape[0] != 1:
        raise ValueError(f"beam_search decodes one utterance; got an encoder batch of "
                         f"{enc.states.shape[0]} (slice one row)")
    start = [vocab.bos_id, vocab.lang_id(tgt_lang)]
    never = [vocab.blank_id, vocab.pad_id, vocab.bos_id] + [vocab.lang_id(lang) for lang in LANGS]
    max_len = int(enc.lengths[0] * cfg.max_len_factor) + 10
    beams = [Hypothesis(tokens=list(start))]
    finished = []
    with nc.no_grad():
        ctc_logprobs = None
        if cfg.ctc_weight > 0.0:
            ctc_logprobs = model.ctc_head(enc.states, "tgt-final").data[0, : enc.lengths[0]]
        state = model.decoder_state(enc)
        feed = [start]
        for _ in range(max_len):
            scores = model.decode_step(enc, feed, state=state).data[:, -1, :].astype(np.float64)
            scores[:, vocab.unk_id] -= cfg.unk_penalty
            scores[:, never] = NEG_INF
            for i, b in enumerate(beams):
                banned = banned_ngram_tokens(b.tokens, cfg.no_repeat_ngram)
                if banned:
                    scores[i, list(banned)] = NEG_INF
            # every continuation masked: force eos at the beam's own score
            # rather than deadlock
            scores[~np.isfinite(scores).any(axis=1), vocab.eos_id] = 0.0
            # per row: descending, the higher id first among ties
            top = np.argsort(scores, axis=1, kind="stable")[:, ::-1][:, : cfg.beam]
            top_scores = scores[np.arange(len(beams))[:, None], top]
            rows, ranks = np.nonzero(np.isfinite(top_scores))  # row-major candidate order
            totals = np.array([b.attn_logp for b in beams])[rows] + top_scores[rows, ranks]
            next_beams, parents = [], []
            for j in np.argsort(-totals, kind="stable"):  # descending, stable among ties
                b, tok = beams[rows[j]], int(top[rows[j], ranks[j]])
                hyp = Hypothesis(tokens=b.tokens + [tok], attn_logp=float(totals[j]))
                if tok == vocab.eos_id:
                    finished.append(hyp)
                else:
                    next_beams.append(hyp)
                    parents.append(rows[j])
                if len(next_beams) >= cfg.beam:
                    break
            beams = next_beams
            if not beams or len(finished) >= cfg.beam:
                break
            state.reorder(parents)
            feed = [[b.tokens[-1]] for b in beams]
        # length cap reached with open beams: close them with eos
        if not finished:
            for b in beams:
                finished.append(Hypothesis(tokens=b.tokens + [vocab.eos_id], attn_logp=b.attn_logp))
    return joint_rescore(finished, ctc_logprobs, cfg.ctc_weight, vocab, cfg.length_normalize)


def decode_entries(model, vocab, entries, cache, cfg: DecodeConfig, task: str) -> list:
    """Best-hypothesis text of each manifest entry: features from `cache`,
    encoder, beam search, all without a tape. Every entry is checked for the
    task's target before any is decoded."""
    entries = list(entries)
    langs = [task_fields(entry, task)[1] for entry in entries]
    texts = []
    for entry, lang in zip(entries, langs):
        feats = cache(entry)
        with nc.no_grad():
            enc = model.encode(feats[None], [feats.shape[0]])
        best = beam_search(model, vocab, enc, lang, cfg)[0]
        texts.append(decode_ids(best.text_tokens(vocab), vocab))
    return texts

