"""Quality and throughput metrics: word error rate, teacher-forced
perplexity, and inverse real-time factor (xRTF) benchmarking."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import frontend
from . import numcore as nc
from .decoding import DecodeConfig, decode_entries
from .frontend import FeatureCache
from .textproc import encode, normalize_text, task_fields


@dataclass
class EvalReport:
    """WER counts or xRTF timings; the fields a report does not measure stay None."""

    wer: float | None = None
    substitutions: int | None = None
    deletions: int | None = None
    insertions: int | None = None
    ref_words: int | None = None
    xrtf: float | None = None
    audio_seconds: float | None = None
    compute_seconds: float | None = None

    def table(self) -> str:
        rows = [(k, v) for k, v in vars(self).items() if v is not None]
        width = max((len(k) for k, _ in rows), default=1)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _edit_counts(ref_words, hyp_words):
    """Levenshtein alignment counts with uniform costs.

    On cost ties the backtrace prefers substitution, then insertion, then
    deletion, so counts are deterministic.
    """
    m, n = len(ref_words), len(hyp_words)
    # dp[i][j] = (cost, subs, ins, dels) for ref[:i] vs hyp[:j]
    dp = [[None] * (n + 1) for _ in range(m + 1)]
    dp[0][0] = (0, 0, 0, 0)
    for i in range(1, m + 1):
        c = dp[i - 1][0]
        dp[i][0] = (c[0] + 1, c[1], c[2], c[3] + 1)
    for j in range(1, n + 1):
        c = dp[0][j - 1]
        dp[0][j] = (c[0] + 1, c[1], c[2] + 1, c[3])
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            match = ref_words[i - 1] == hyp_words[j - 1]
            d = dp[i - 1][j - 1]
            sub = (d[0] + (0 if match else 1), d[1] + (0 if match else 1), d[2], d[3])
            a = dp[i][j - 1]
            ins = (a[0] + 1, a[1], a[2] + 1, a[3])
            b = dp[i - 1][j]
            dele = (b[0] + 1, b[1], b[2], b[3] + 1)
            dp[i][j] = min((sub, ins, dele), key=lambda c: c[0])
    return dp[m][n]


def wer(refs, hyps) -> EvalReport:
    """Corpus WER: edit counts pooled over all pairs, divided by pooled
    reference words; both sides normalized first."""
    refs, hyps = list(refs), list(hyps)
    if len(refs) != len(hyps):
        raise ValueError(f"wer: {len(refs)} references vs {len(hyps)} hypotheses")
    if not refs:
        raise ValueError("wer: empty reference corpus")
    subs = ins = dels = ref_words = 0
    for r, h in zip(refs, hyps):
        rw = normalize_text(r).split()
        hw = normalize_text(h).split()
        _, s, i, d = _edit_counts(rw, hw)
        subs, ins, dels = subs + s, ins + i, dels + d
        ref_words += len(rw)
    if ref_words == 0:
        raise ValueError("wer: reference corpus has no words after normalization")
    return EvalReport(
        wer=(subs + dels + ins) / ref_words,
        substitutions=subs,
        deletions=dels,
        insertions=ins,
        ref_words=ref_words,
    )


def perplexity(model, vocab, entries, task: str, cache: FeatureCache) -> float:
    """exp of the token-mean unsmoothed CE of teacher-forced gold targets."""
    entries = list(entries)
    if not entries:
        raise ValueError("perplexity: empty manifest")
    total_nll = 0.0
    total_tokens = 0
    with nc.no_grad():
        for entry in entries:
            text, lang = task_fields(entry, task)
            ids = encode(text, lang, vocab)
            feats = cache(entry)
            enc = model.encode(feats[None], [feats.shape[0]])
            logp = model.decode_step(enc, [ids[:-1]]).data[0]
            targets = np.asarray(ids[1:])
            total_nll -= logp[np.arange(len(targets)), targets].sum()
            total_tokens += len(targets)
    return float(np.exp(total_nll / total_tokens))


def xrtf_bench(model, vocab, entries, cache: FeatureCache,
               cfg: DecodeConfig | None = None, task: str = "ST"):
    """Seconds of audio decoded per second of compute.

    Timing covers feature extraction through decoding of every entry in one
    `decode_entries` call; file reads happen before the clock starts, and
    the first entry is decoded once untimed as a warm-up.

    Returns (EvalReport, hypothesis texts).
    """
    entries = list(entries)
    if not entries:
        raise ValueError("xrtf_bench: empty manifest")
    cfg = cfg or DecodeConfig()
    # audio is read before the clock starts; features are extracted inside it
    waves = {entry.audio: frontend.read_wav(cache.resolve(entry)) for entry in entries}

    def features(entry):
        return frontend.extract_features(waves[entry.audio])

    decode_entries(model, vocab, entries[:1], features, cfg, task)  # warm-up
    start = time.perf_counter()
    hyps = decode_entries(model, vocab, entries, features, cfg, task)
    compute = time.perf_counter() - start
    audio = sum(e.duration_s for e in entries)
    report = EvalReport(xrtf=audio / compute, audio_seconds=audio, compute_seconds=compute)
    return report, hyps
