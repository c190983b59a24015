"""Attention beam search with unknown-token penalty, no-repeat n-gram
blocking, and joint CTC rescoring of completed hypotheses; and the one
decode loop over manifest entries.

The beam search decodes incrementally: it feeds `[bos, lang]` once and then
only each beam's newest token to `Model.decode_step`, whose state keeps every
decoder layer's self-attention keys and values and projects the
cross-attention keys and values once per utterance. Each step scores all
beams' continuations in one beams x V array (`step_scores`: unk penalty,
never-emitted ids, n-gram bans, forced eos).

Beam 1 is greedy decoding checked against a draft (`greedy_search`): the best
path of the tap CTC head (`ctc_draft`: per-frame argmax, repeats merged,
blanks dropped, cut to the length cap) is fed after `[bos, lang]` in one
`decode_step` call on a fresh state. Its positions are scored in order with
`step_scores`, each against the prefix accepted so far, and the search
accepts while its pick (the higher id among ties, as in the beam) is the
draft token, stopping at eos or the cap. At the first mismatch it keeps its
own pick, drops the rejected positions with `DecoderState.truncate`, and goes
on one token per call; nothing is drafted again. The tokens are exactly those
of one-token-per-call greedy decoding. The accepted positions' scores come
from one call on a fresh state, which is the teacher-forced computation, so
they can differ in the last bits from incremental scores. Every search
finishes through `joint_rescore`, which skips the CTC lattice at CTC weight 0.

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
        if self.no_repeat_ngram < 0:
            raise ValueError(f"no_repeat_ngram must be >= 0 (0 disables blocking), "
                             f"got {self.no_repeat_ngram}")
        if self.max_len_factor < 0:
            raise ValueError(f"max_len_factor must be >= 0, got {self.max_len_factor}")


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


def step_scores(logp, prefixes, vocab, never, cfg: DecodeConfig) -> np.ndarray:
    """Scores of each row's next token (float64, rows x V) from the decoder
    log-probs `logp`, row i continuing `prefixes[i]`: the unk penalty, -inf on
    the `never` ids and on tokens that would repeat an n-gram of the prefix,
    and, in a row where every continuation is masked, eos forced at score 0
    rather than a deadlock. Callers pick the higher id among equal scores."""
    scores = logp.astype(np.float64)
    scores[:, vocab.unk_id] -= cfg.unk_penalty
    scores[:, never] = NEG_INF
    for i, tokens in enumerate(prefixes):
        banned = banned_ngram_tokens(tokens, cfg.no_repeat_ngram)
        if banned:
            scores[i, list(banned)] = NEG_INF
    scores[~np.isfinite(scores).any(axis=1), vocab.eos_id] = 0.0
    return scores


def ctc_draft(model, vocab, enc, max_len: int) -> list:
    """Best path of the tap CTC head: the per-frame argmax with repeats merged
    and blanks dropped, cut to `max_len` tokens."""
    best = model.ctc_head(enc.tap_states, "src-tap").data[0, : enc.lengths[0]].argmax(axis=1)
    path = best[np.r_[True, best[1:] != best[:-1]]]
    return path[path != vocab.blank_id][:max_len].tolist()


def greedy_search(model, vocab, enc, start, never, max_len: int, cfg: DecodeConfig) -> Hypothesis:
    """Beam 1, checking the tap CTC head's best path as a draft.

    `start + draft` is fed in one `decode_step` call on a fresh state; its
    positions are scored in order, and the search accepts while its pick is
    the draft token. At the first rejection the rejected positions are
    dropped from the state (`DecoderState.truncate`), and decoding goes on
    one token per call. The tokens are those of a one-token-per-call greedy
    search; the accepted positions' scores are teacher-forced ones.
    """
    tokens, attn = list(start), 0.0
    state = model.decoder_state(enc)
    draft = ctc_draft(model, vocab, enc, max_len)
    feed = tokens + draft
    while True:
        logp = model.decode_step(enc, [feed], state=state).data[0, -len(draft) - 1 :]
        scores = step_scores(logp, [tokens + draft[:i] for i in range(len(draft) + 1)],
                             vocab, never, cfg)
        picks = scores.shape[1] - 1 - scores[:, ::-1].argmax(axis=1)  # the higher id among ties
        for i, tok in enumerate(picks.tolist()):
            tokens.append(tok)
            attn += scores[i, tok]
            if tok == vocab.eos_id:
                return Hypothesis(tokens=tokens, attn_logp=float(attn))
            if len(tokens) - len(start) == max_len:  # length cap: close with an unscored eos
                return Hypothesis(tokens=tokens + [vocab.eos_id], attn_logp=float(attn))
            if i == len(draft) or tok != draft[i]:
                break
        state.truncate(len(tokens) - 1)  # the newest token is fed next
        feed, draft = tokens[-1:], []


def beam_search(model, vocab, enc, tgt_lang: str, cfg: DecodeConfig):
    """Decode one utterance; returns hypotheses ranked by combined score."""
    if enc.states.shape[0] != 1:
        raise ValueError(f"beam_search decodes one utterance; got an encoder batch of "
                         f"{enc.states.shape[0]} (slice one row)")
    start = [vocab.bos_id, vocab.lang_id(tgt_lang)]
    never = [vocab.blank_id, vocab.pad_id, vocab.bos_id] + [vocab.lang_id(lang) for lang in LANGS]
    max_len = int(enc.lengths[0] * cfg.max_len_factor) + 10
    with nc.no_grad():
        ctc_logprobs = None
        if cfg.ctc_weight > 0.0:
            ctc_logprobs = model.ctc_head(enc.states, "tgt-final").data[0, : enc.lengths[0]]
        if cfg.beam == 1:
            finished = [greedy_search(model, vocab, enc, start, never, max_len, cfg)]
        else:
            finished = _beam_loop(model, vocab, enc, start, never, max_len, cfg)
    return joint_rescore(finished, ctc_logprobs, cfg.ctc_weight, vocab, cfg.length_normalize)


def _beam_loop(model, vocab, enc, start, never, max_len: int, cfg: DecodeConfig) -> list:
    """Finished hypotheses of a width-`cfg.beam` search, unranked."""
    beams = [Hypothesis(tokens=list(start))]
    finished = []
    state = model.decoder_state(enc)
    feed = [start]
    for _ in range(max_len):
        logp = model.decode_step(enc, feed, state=state).data[:, -1, :]
        scores = step_scores(logp, [b.tokens for b in beams], vocab, never, cfg)
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
    return finished


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

