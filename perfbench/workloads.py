"""The three benchmark workloads, driven from outside the library.

Each workload is one closed loop with one client: the next operation starts
when the previous one has finished. It calls only public functions of the
library, looked up on their modules at call time, so that a tracer that
replaces a module attribute sees the calls.

  train-desk         stage-1 ASR pre-training of the desk model from scratch;
                     one operation is one optimizer step.
  decode-st-beam5    ST decoding with the paper's defaults (beam 5, CTC weight
                     0.2, no-repeat 5-gram, unk penalty 10000) with the fixture
                     checkpoint; one operation is one utterance, samples to text.
  decode-asr-greedy  ASR decoding with beam 1, no CTC and no n-gram blocking,
                     same checkpoint, corpus and clock.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import common

import numpy as np

from conformerst import decoding, frontend, model as model_mod, training
from conformerst.evaluation import perplexity, wer
from conformerst.frontend import FeatureCache
from conformerst.textproc import Vocabulary, build_vocab, decode as decode_ids

TRAIN_UTTS = 32
WARMUP_STEPS = 10
# Training length is fixed by --seconds at the seed commit's rate on two cores,
# so the training loss is a function of the seed and --seconds only.
STEPS_PER_SECOND = 8
MIN_TIMED = 100  # a p90 needs at least ten samples beyond it
CHECKPOINT_INTERVAL = 100
LOSS_TAIL_SHARE = 0.5  # loss: mean over the last half of the timed steps
DECODE_UTTS = 240
# Five lengths, 4 to 8 tone-words, 48 utterances each. Decode latency grows
# with length in steps, so with an even number of equal groups the p50 falls
# between two groups and jumps between the slowest decode of one length and the
# fastest of the next; with five, p50 and p90 fall in the middle of a group.
DECODE_TOKEN_COUNTS = common.TOKEN_COUNTS[1:]
# Every utterance is decoded at least twice, so that repeats can be compared
# and a latency burst from another process on one decode can be left out.
MIN_PASSES = 2
# Set-up takes a fraction of a second, so a burst of load from another process
# can double one repetition: setup_s is the fastest of many, spread over a few
# seconds (perfbench/README.md).
SETUP_REPEATS = 20
SETUP_SECONDS = 4.0

DECODE_CONFIGS = {
    "decode-st-beam5": ("ST", decoding.DecodeConfig(beam=5, ctc_weight=0.2,
                                                    no_repeat_ngram=5, unk_penalty=10000.0)),
    "decode-asr-greedy": ("ASR", decoding.DecodeConfig(beam=1, ctc_weight=0.0,
                                                       no_repeat_ngram=0, unk_penalty=10000.0)),
}
# Quality the fixture meets on every held-out decode corpus (perfbench/README.md).
WER_BOUNDS = {"decode-st-beam5": 0.15, "decode-asr-greedy": 0.1}
# Greedy decoding without n-gram blocking runs away on a run of one repeated
# word in 0-2 of 480 utterances per seed; such a decode still returns text.
CAP_HIT_BOUND = 0.01
WORKLOADS = ("train-desk",) + tuple(DECODE_CONFIGS)


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    checks: dict = field(default_factory=dict)  # check name -> passed
    ops: int = 0  # timed operations (steps or utterances)
    wall_s: float = 0.0  # timed wall time
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) with statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(setup):
    """Run `setup(k)` at least SETUP_REPEATS times and for at least
    SETUP_SECONDS; returns (fastest seconds, last result)."""
    times, out = [], None
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        out = None  # free the previous repetition's corpus first
        t0 = time.perf_counter()
        out = setup(len(times))
        times.append(time.perf_counter() - t0)
    return min(times), out


# ---------------------------------------------------------------------------
# train-desk
# ---------------------------------------------------------------------------


class FirstStep(Exception):
    """Raised at the first step boundary of a probing `train_stage` call."""


class StepClock:
    """Optimizer-step boundaries seen from outside `train_stage`.

    `train_stage` calls `model.zero_grad()` once at the start of every step
    and fetches each utterance's features from the cache it is given; this
    records the time of the first and the entries of the second.
    """

    def __init__(self, model, tracer=None):
        self.starts: list[float] = []
        self.batches: list[list[str]] = []
        self.probing = False
        zero_grad = model.zero_grad

        def step_start():
            if self.probing:
                raise FirstStep
            self.starts.append(time.perf_counter())
            self.batches.append([])
            if tracer is not None:
                tracer.mark_step(len(self.starts))
            zero_grad()

        model.zero_grad = step_start
        clock = self

        class Cache(FeatureCache):
            def __call__(self, entry):
                if clock.batches:
                    clock.batches[-1].append(entry.audio)
                return super().__call__(entry)

        self.cache = Cache()

    def run_to_first_step(self, call):
        """Run `call` up to its first optimizer step, which it does not start,
        so the model is left as it was."""
        self.probing = True
        try:
            call()
        except FirstStep:
            return
        finally:
            self.probing = False
        raise RuntimeError("train_stage returned before its first optimizer step")


def timed_steps(seconds: float) -> int:
    return max(MIN_TIMED, int(round(STEPS_PER_SECOND * seconds)))


def train_desk(seed: int, seconds: float, work_dir: str, tracer=None) -> Result:
    n_timed = timed_steps(seconds)
    max_steps = WARMUP_STEPS + n_timed
    cfg = common.desk_stage1(max_steps, seed, CHECKPOINT_INTERVAL)

    def setup(k):
        entries = common.synth_stratified(os.path.join(work_dir, f"data{k}"), TRAIN_UTTS,
                                          "train", seed)
        vocab = build_vocab([e.transcript for e in entries] + [e.translation for e in entries])
        model = model_mod.Model(common.desk_model_config(len(vocab)), seed=seed)
        clock = StepClock(model, tracer)
        for e in entries:  # memoize features before step 1
            clock.cache(e)
        # train_stage's own work before step 1 (batching), timed with the rest
        clock.run_to_first_step(lambda: training.train_stage(
            entries, model, vocab, cfg, os.path.join(work_dir, f"probe{k}"), cache=clock.cache))
        return entries, vocab, model, clock

    setup_s, (entries, vocab, model, clock) = timed_setup(setup)
    out_dir = os.path.join(work_dir, "stage1")
    if tracer is not None:
        tracer.timed_from = WARMUP_STEPS + 1
    _, metrics_path = training.train_stage(entries, model, vocab, cfg, out_dir, cache=clock.cache)
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.mark_step(None)

    checks = {"one step boundary per optimizer step": len(clock.starts) == max_steps}
    if not checks["one step boundary per optimizer step"]:
        return Result({}, max_steps, max_steps, checks)
    bounds = clock.starts + [t_end]
    step_s = np.diff(bounds)[WARMUP_STEPS:]
    batch_utts = np.array([len(b) for b in clock.batches[WARMUP_STEPS:]])
    audio_s = {e.audio: e.duration_s for e in entries}
    timed_audio = sum(audio_s[a] for b in clock.batches[WARMUP_STEPS:] for a in b)
    wall = bounds[-1] - bounds[WARMUP_STEPS]

    with open(metrics_path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    skipped = sum(1 for r in records if r.get("skipped"))
    totals = [r["total"] for r in records[WARMUP_STEPS:]]
    loss = float(np.mean(totals[-int(len(totals) * LOSS_TAIL_SHARE):]))

    ms = step_s * 1000.0
    per_utt = ms / batch_utts
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "step_ms_p50": percentile(ms, 50),
        "step_ms_p90": percentile(ms, 90),
        "utt_ms_p50": percentile(per_utt, 50),
        "utt_ms_p90": percentile(per_utt, 90),
        "utts_per_s": int(batch_utts.sum()) / wall,
        "xrtf": timed_audio / wall,
        "loss": loss,
    }
    checks.update({
        "loss is finite": math.isfinite(loss),
        "loss falls below the first timed step's": loss < totals[0],
        "no skipped steps": skipped == 0,
        "every step fetched its features from the given cache": all(clock.batches),
    })
    return Result(metrics, max_steps, skipped, checks, ops=n_timed, wall_s=wall,
                  detail={"totals": totals, "batches": clock.batches[WARMUP_STEPS:]})


# ---------------------------------------------------------------------------
# decode workloads
# ---------------------------------------------------------------------------


def load_fixture():
    vocab = Vocabulary.load(common.FIXTURE_VOCAB)
    arrays, config, _, _ = model_mod.load_checkpoint(common.FIXTURE_CKPT)
    model = model_mod.Model(config, seed=0)
    model.load_state(arrays)
    return model, vocab


def decode_one(model, vocab, samples, lang: str, cfg):
    """Samples to text, the path `conformerst decode` takes per utterance."""
    feats = frontend.extract_features(samples)
    enc = model.encode(feats[None], [feats.shape[0]])
    hyps = decoding.beam_search(model, vocab, enc, lang, cfg)
    return decode_ids(hyps[0].text_tokens(vocab), vocab), hyps, int(enc.lengths[0])


def length_cap(enc_len: int, cfg) -> int:
    """Output cap documented on DecodeConfig.max_len_factor."""
    return int(enc_len * cfg.max_len_factor) + 10


def rescore_changed_best(hyps, cfg) -> bool:
    """Whether the returned best differs from the best by attention score alone."""
    attn = max(hyps, key=lambda h: decoding.combined_score(
        h.attn_logp, 0.0, 0.0, len(h.tokens) - 2, cfg.length_normalize))
    return attn.tokens != hyps[0].tokens


def decode_workload(name: str, seed: int, seconds: float, work_dir: str, tracer=None) -> Result:
    task, cfg = DECODE_CONFIGS[name]

    def setup(k):
        entries = common.synth_stratified(os.path.join(work_dir, f"data{k}"), DECODE_UTTS,
                                          "decode", seed, DECODE_TOKEN_COUNTS)
        samples = [frontend.read_wav(e.audio) for e in entries]
        model, vocab = load_fixture()
        lang = entries[0].src_lang if task == "ASR" else entries[0].tgt_lang
        decode_one(model, vocab, samples[0], lang, cfg)  # first-call set-up
        return entries, samples, model, vocab, lang

    setup_s, (entries, samples, model, vocab, lang) = timed_setup(setup)
    refs = [e.transcript if task == "ASR" else e.translation for e in entries]

    n = len(samples)
    if tracer is not None:  # per-layer means over the first pass
        tracer.timed_to = n
    latencies = [[] for _ in range(n)]  # seconds per decode, by utterance
    emitted = np.zeros(n, dtype=int)  # tokens of each utterance's hypothesis
    audio, texts = 0.0, []
    failed = cap_hits = changed = 0
    passes_agree = True
    start = time.perf_counter()
    k = 0  # whole passes, at least MIN_PASSES, until --seconds have passed
    while k < MIN_PASSES * n or k % n or time.perf_counter() - start < seconds:
        i = k % n
        k += 1
        if tracer is not None:
            tracer.begin_unit(k)
        t0 = time.perf_counter()
        try:
            text, hyps, enc_len = decode_one(model, vocab, samples[i], lang, cfg)
        except Exception:  # a decode that raises is a failed operation
            traceback.print_exc()
            text, hyps, enc_len = None, None, 0
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_unit()
        latencies[i].append(t1 - t0)
        audio += entries[i].duration_s
        first = k <= n
        if first:
            texts.append(text)
        passes_agree = passes_agree and text == texts[i]
        if hyps is None:
            failed += 1
            continue
        if first:
            emitted[i] = len(hyps[0].tokens) - 2
            cap_hits += emitted[i] > length_cap(enc_len, cfg)  # closed by the cap
            changed += rescore_changed_best(hyps, cfg)
    wall = time.perf_counter() - start
    peak_mb = peak_rss_mb()  # before the quality evaluation below allocates

    loss = math.log(perplexity(model, vocab, entries, task, FeatureCache()))
    score = wer(refs, [t or "" for t in texts]).wer
    ms = np.array([statistics.median(t) for t in latencies]) * 1000.0  # per utterance
    # one sample per decoder step: each step gets its utterance's mean step time
    done = emitted > 0
    tok_ms = np.repeat(ms[done] / emitted[done], emitted[done])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "step_ms_p50": percentile(tok_ms, 50),
        "step_ms_p90": percentile(tok_ms, 90),
        "utt_ms_p50": percentile(ms, 50),
        "utt_ms_p90": percentile(ms, 90),
        "utts_per_s": k / wall,
        "xrtf": audio / wall,
        "loss": loss,
    }
    checks = {
        f"wer <= {WER_BOUNDS[name]}": score <= WER_BOUNDS[name],
        f"length-cap hits <= {CAP_HIT_BOUND:.0%} of utterances": cap_hits <= CAP_HIT_BOUND * n,
        "every pass decodes the same text": passes_agree,
        "no decode raised": failed == 0,
    }
    return Result(metrics, k, failed, checks, ops=k, wall_s=wall,
                  detail={"wer": score, "texts": texts, "length_cap_hits": cap_hits,
                          "rescore_changed": changed / n})


def run(name: str, seed: int, seconds: float, work_dir: str, tracer=None) -> Result:
    if name == "train-desk":
        return train_desk(seed, seconds, work_dir, tracer)
    return decode_workload(name, seed, seconds, work_dir, tracer)
