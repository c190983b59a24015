"""Two-stage trainer: LR schedules, AdamW with decoupled weight decay,
gradient clipping, task sampling, token-budget batching with gradient
accumulation, checkpointing/averaging, and a catastrophic-forgetting probe.

Each micro-batch runs one padded forward (encoder, teacher-forced decoder
over right-padded prefixes, both CTC heads) and one batched loss. The
optimizer objective is still the plain sum of per-utterance losses;
gradients are divided by the utterance count only at the optimizer step,
which makes gradient accumulation exactly equivalent to one large batch.
The optimizer step works on the model's two flat arrays: backward adds every
parameter's gradient into its view of `Model.flat_grad`, which is scaled,
clipped by its global norm and applied to `Model.flat` by AdamW in place.
Dropout masks are drawn per utterance from a generator keyed by the model's
dropout stream at the step and the utterance index, at the utterance's
unpadded extent, so they do not depend on which utterances share a batch.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .evaluation import perplexity
from .frontend import FeatureCache
from .losses import BatchOutputs, LossWeights, combined_loss, loss_total
from .model import NUM_FEATURES, Model, load_checkpoint, save_checkpoint
from .textproc import encode, encode_text, task_fields
from . import numcore as nc

STAGES = ("ASR-pretrain", "ASR+ST")
SCHEDULES = ("noam", "piecewise-noam", "constant")


# ---------------------------------------------------------------------------
# learning-rate schedules
# ---------------------------------------------------------------------------


def noam_lr(step: int, peak: float = 2e-3, warmup: int = 25_000) -> float:
    """peak * min(step/warmup, sqrt(warmup/step)); peak reached at `warmup`."""
    if warmup <= 0:
        raise ValueError(f"warmup must be positive, got {warmup}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return peak * min(step / warmup, math.sqrt(warmup / step))


def piecewise_noam_lr(step: int, lr_a: float = 2e-5, knee_a: int = 25_000,
                      lr_b: float = 2e-4, knee_b: int = 50_000) -> float:
    """Linear 0->lr_a over [0, knee_a], lr_a->lr_b over [knee_a, knee_b],
    then inverse square root decay from lr_b."""
    if not 0 < knee_a < knee_b:
        raise ValueError(f"knees must satisfy 0 < {knee_a} < {knee_b}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if step <= knee_a:
        return lr_a * step / knee_a
    if step <= knee_b:
        return lr_a + (lr_b - lr_a) * (step - knee_a) / (knee_b - knee_a)
    return lr_b * math.sqrt(knee_b / step)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.98
    weight_decay: float = 0.001
    eps: float = 1e-8

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")


class AdamW:
    """Decoupled-weight-decay Adam (Loshchilov & Hutter, ICLR 2019) over one
    flat parameter array, updated in place.

    Decay shrinks the parameters before the Adam delta is applied. The
    moments `m` and `v` are flat arrays like the parameters, created at the
    first applied step. A step whose gradient contains non-finite values is
    skipped entirely: `skipped` increments and the moments and step count `t`
    stay untouched.
    """

    def __init__(self, opt: OptimizerConfig | None = None):
        self.opt = opt or OptimizerConfig()
        self.m = self.v = None
        self.t = 0
        self.skipped = 0

    def step(self, p: np.ndarray, g: np.ndarray, lr: float) -> bool:
        if not np.all(np.isfinite(g)):
            self.skipped += 1
            return False
        o = self.opt
        if self.m is None:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
        self.t += 1
        bc1 = 1.0 - o.beta1**self.t
        bc2 = 1.0 - o.beta2**self.t
        self.m *= o.beta1
        self.m += (1 - o.beta1) * g
        self.v *= o.beta2
        self.v += (1 - o.beta2) * g * g
        p *= 1.0 - lr * o.weight_decay
        p -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + o.eps)
        return True


def clip_grad_norm(g: np.ndarray, max_norm: float = 10.0) -> float:
    """Scales the flat gradient `g` in place to L2 norm `max_norm` when it is
    larger; returns the pre-clip norm, accumulated in float64."""
    g64 = g.astype(np.float64)
    total = math.sqrt(float((g64 * g64).sum()))
    if total > max_norm and total > 0:
        g *= max_norm / total
    return total


def sample_task(rng: np.random.Generator, p_asr: float) -> str:
    if not 0.0 <= p_asr <= 1.0:
        raise ValueError(f"p_asr must be in [0, 1], got {p_asr}")
    return "ASR" if rng.random() < p_asr else "ST"


# ---------------------------------------------------------------------------
# stage configuration
# ---------------------------------------------------------------------------


@dataclass
class StageConfig:
    stage: str = "ASR-pretrain"
    schedule: str = "noam"
    lr_peak: float = 2e-3
    lr_const: float = 1e-4
    warmup_steps: int = 25_000
    p_asr: float = 0.5
    max_steps: int = 2_000  # reference recipe trains for 1M steps
    batch_tokens: int = 10_000
    accum: int = 1
    clip_norm: float = 10.0
    checkpoint_interval: int = 1_000
    shuffle: bool = True  # shuffle batch order each epoch (off for debugging)
    seed: int = 0

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if (self.schedule == "constant") != (self.stage == "ASR+ST"):
            raise ValueError("constant schedule is used exactly for the ASR+ST stage")
        if not 0.0 <= self.p_asr <= 1.0:
            raise ValueError(f"p_asr must be in [0, 1], got {self.p_asr}")
        if self.max_steps < 0 or self.accum < 1 or self.batch_tokens < 1:
            raise ValueError("max_steps >= 0, accum >= 1, batch_tokens >= 1 required")
        if self.checkpoint_interval < 1 or self.warmup_steps < 1:
            raise ValueError("checkpoint_interval >= 1 and warmup_steps >= 1 required")

    def lr_at(self, step: int) -> float:
        if self.schedule == "noam":
            return noam_lr(step, self.lr_peak, self.warmup_steps)
        if self.schedule == "piecewise-noam":
            return piecewise_noam_lr(step)
        return self.lr_const


def load_stage_config(path) -> StageConfig:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    known = set(StageConfig.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {unknown}")
    return StageConfig(**data)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def _target_tokens(entry) -> int:
    longest = max(len(entry.transcript), len(entry.translation or ""))
    return longest + 3  # bos + language tag + eos


def make_batches(entries, batch_tokens: int, cache: FeatureCache):
    """Sort by feature length, then fill each batch up to the token budget."""
    order = sorted(range(len(entries)), key=lambda i: cache(entries[i]).shape[0])
    batches, current, budget = [], [], 0
    for i in order:
        need = _target_tokens(entries[i])
        if current and budget + need > batch_tokens:
            batches.append(current)
            current, budget = [], 0
        current.append(i)
        budget += need
    if current:
        batches.append(current)
    return batches


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def forward_batch(model, vocab, entries, feats, task: str) -> BatchOutputs:
    """One padded forward of a micro-batch: encoder, teacher-forced decoder
    and both CTC heads. feats: per-entry T_i x 80 features.

    Returns the BatchOutputs with its CTC references: transcript ids and
    the task text's ids, which are the decoder sequence without bos,
    language tag and eos. Features are zero-padded at the end and decoder
    prefixes right-padded with pad, which the length masks and the causal
    mask keep out of every valid position.
    """
    ids = [encode(*task_fields(e, task), vocab) for e in entries]
    b = len(entries)
    lengths = np.array([f.shape[0] for f in feats])
    x = np.zeros((b, lengths.max(), NUM_FEATURES))
    for i, f in enumerate(feats):
        x[i, : len(f)] = f
    dec_lens = np.array([len(s) - 1 for s in ids])
    prefixes = np.full((b, dec_lens.max()), vocab.pad_id, dtype=np.int64)
    targets = prefixes.copy()
    for i, s in enumerate(ids):
        prefixes[i, : dec_lens[i]] = s[:-1]
        targets[i, : dec_lens[i]] = s[1:]
    enc = model.encode(x, lengths)
    return BatchOutputs(
        dec_logprobs=model.decode_step(enc, prefixes, dec_lens),
        dec_targets=targets,
        ctc_src_logprobs=model.ctc_head(enc.tap_states, "src-tap"),
        ctc_tgt_logprobs=model.ctc_head(enc.states, "tgt-final"),
        enc_lengths=enc.lengths,
        src_targets=[encode_text(e.transcript, vocab) for e in entries],
        task_targets=[s[2:-1] for s in ids],
        pad_id=vocab.pad_id,
    )


def _checkpoint_path(out_dir, step: int) -> str:
    return os.path.join(out_dir, f"ckpt_{step:06d}.ckpt")


def train_stage(entries, model: Model, vocab, cfg: StageConfig, out_dir,
                weights: LossWeights | None = None, cache: FeatureCache | None = None,
                opt: OptimizerConfig | None = None):
    """Runs one training stage; returns (final checkpoint path, metrics path).

    Writes `ckpt_<step>.ckpt` every `cfg.checkpoint_interval` optimizer steps
    plus the final step (`ckpt_000000` when there are no steps), and appends
    one JSON metrics line per step. A micro-batch whose objective is not
    finite adds no gradient, and a step with a non-finite loss or gradient
    is skipped.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("train_stage: empty manifest")
    os.makedirs(out_dir, exist_ok=True)
    weights = weights or LossWeights()
    cache = cache or FeatureCache()
    optimizer = AdamW(opt)
    rng = np.random.default_rng(cfg.seed)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")

    batches = make_batches(entries, cfg.batch_tokens, cache)
    model.training = True

    def save(step):
        save_checkpoint(_checkpoint_path(out_dir, step), model.state_arrays(), model.config,
                        step, cfg.stage)

    metrics_f = open(metrics_path, "w", encoding="utf-8")
    try:
        if cfg.max_steps == 0:
            save(0)
        batch_cursor = 0
        epoch_order = None
        for step in range(1, cfg.max_steps + 1):
            t0 = time.perf_counter()
            task = "ASR" if cfg.stage == "ASR-pretrain" else sample_task(rng, cfg.p_asr)
            model.zero_grad()
            # dropout masks are a function of (model dropout stream, step, utterance)
            step_key = int(model.dropout_rng.integers(2**63))
            parts, frames = [], 0
            for _ in range(cfg.accum):
                if epoch_order is None or batch_cursor >= len(epoch_order):
                    epoch_order = (rng.permutation(len(batches)) if cfg.shuffle
                                   else np.arange(len(batches)))
                    batch_cursor = 0
                batch = batches[epoch_order[batch_cursor]]
                batch_cursor += 1
                feats = [cache(entries[i]) for i in batch]
                with model.row_dropout([np.random.default_rng([step_key, i]) for i in batch]):
                    outputs = forward_batch(model, vocab, [entries[i] for i in batch], feats, task)
                breakdown, objective = combined_loss(outputs, weights)
                if np.isfinite(objective.data):
                    nc.backward(objective)
                parts.append(breakdown)
                frames += int(outputs.enc_lengths.sum())
                del outputs, objective  # free this micro-batch's tape before the next forward
            terms = [np.concatenate(t) for t in zip(*((b.ce, b.ctc_src, b.ctc_tgt) for b in parts))]
            n_utts = len(terms[0])
            ce, ctc_src, ctc_tgt = (sum(t.tolist()) / n_utts for t in terms)
            total = loss_total(weights, ce, ctc_src, ctc_tgt)
            model.flat_grad /= n_utts
            norm = clip_grad_norm(model.flat_grad, cfg.clip_norm)
            lr = cfg.lr_at(step)
            record = {
                "step": step,
                "lr": lr,
                "ce": ce,
                "ctc_src": ctc_src,
                "ctc_tgt": ctc_tgt,
                "grad_norm": norm,
                "task": task,
                "utts": n_utts,
                "frames": frames,
                "tokens": sum(b.tokens for b in parts),
                "ctc_infeasible": sum(b.ctc_infeasible for b in parts),
                "total": total,
            }
            applied = np.isfinite(total) and np.isfinite(norm)
            if applied:
                applied = optimizer.step(model.flat, model.flat_grad, lr)
            if not applied:
                record["skipped"] = True
            record["wall_ms"] = (time.perf_counter() - t0) * 1000.0
            metrics_f.write(json.dumps(record) + "\n")
            if step % cfg.checkpoint_interval == 0 or step == cfg.max_steps:
                save(step)
        return _checkpoint_path(out_dir, cfg.max_steps), metrics_path
    finally:
        metrics_f.close()
        model.training = False


# ---------------------------------------------------------------------------
# checkpoint averaging
# ---------------------------------------------------------------------------


def average_checkpoints(paths, out_path=None):
    """Elementwise mean of named tensors over checkpoints; metadata keeps
    the maximum step. Accumulates in float64 before casting back."""
    paths = list(paths)
    if not paths:
        raise ValueError("average_checkpoints: no checkpoints given")
    ref_arrays, config, step, stage = load_checkpoint(paths[0])
    acc = {n: a.astype(np.float64) for n, a in ref_arrays.items()}
    for p in paths[1:]:
        arrays, cfg_i, step_i, _ = load_checkpoint(p)
        if cfg_i != config:
            raise ValueError(f"average_checkpoints: {p} has a different model config")
        if set(arrays) != set(acc):
            odd = sorted(set(arrays) ^ set(acc))
            raise ValueError(f"average_checkpoints: {p} tensor names differ: {odd}")
        for n, a in arrays.items():
            if a.shape != acc[n].shape:
                raise ValueError(
                    f"average_checkpoints: {p} tensor {n!r} shape {a.shape} != {acc[n].shape}"
                )
            acc[n] += a
        step = max(step, step_i)
    k = len(paths)
    mean = {n: (a / k).astype(ref_arrays[n].dtype) for n, a in acc.items()}
    if out_path is not None:
        save_checkpoint(out_path, mean, config, step, stage)
    return mean, config, step, stage


# ---------------------------------------------------------------------------
# catastrophic-forgetting probe
# ---------------------------------------------------------------------------


def forgetting_probe(pretrained_path, train_entries, val_entries, vocab,
                     lr_variants, p_asr_variants, steps: int, out_dir,
                     eval_interval: int = 100, batch_tokens: int = 10_000,
                     seed: int = 0, cache: FeatureCache | None = None):
    """Runs short second-stage trainings from one pretrained checkpoint and
    tracks ASR/ST validation perplexity per (lr, p_asr) variant.

    Each variant is one `train_stage` run of `steps` steps that checkpoints
    every `eval_interval` steps; the perplexities are read back from those
    checkpoints. Returns a report dict and writes a plottable series file plus
    a text table under `out_dir`.
    """
    val_entries = list(val_entries)
    if not val_entries:
        raise ValueError("forgetting_probe: empty validation set")
    if eval_interval < 1 or steps < 0:
        raise ValueError(f"forgetting_probe: need eval_interval >= 1 and steps >= 0, "
                         f"got {eval_interval} and {steps}")
    os.makedirs(out_dir, exist_ok=True)
    cache = cache or FeatureCache()
    arrays, config, _, _ = load_checkpoint(pretrained_path)
    marks = [*range(eval_interval, steps, eval_interval), steps] if steps else []

    runs = []
    for lr in lr_variants:
        for p_asr in p_asr_variants:
            model = Model(config, seed=seed)
            model.load_state(arrays)
            cfg = StageConfig(stage="ASR+ST", schedule="constant", lr_const=lr, p_asr=p_asr,
                              max_steps=steps, batch_tokens=batch_tokens,
                              checkpoint_interval=eval_interval, seed=seed)
            run_dir = os.path.join(out_dir, f"lr{lr:g}_p{p_asr:g}")
            train_stage(train_entries, model, vocab, cfg, run_dir, cache=cache)
            series = {"lr": lr, "p_asr": p_asr, "steps": [0] + marks, "asr_ppl": [], "st_ppl": []}
            for step in series["steps"]:
                model.load_state(load_checkpoint(_checkpoint_path(run_dir, step))[0] if step
                                 else arrays)
                series["asr_ppl"].append(perplexity(model, vocab, val_entries, "ASR", cache))
                series["st_ppl"].append(perplexity(model, vocab, val_entries, "ST", cache))
            runs.append(series)

    series_path = os.path.join(out_dir, "probe_series.jsonl")
    with open(series_path, "w", encoding="utf-8") as f:
        for s in runs:
            f.write(json.dumps(s) + "\n")
    lines = [f"{'lr':>10} {'p_asr':>6} {'asr_ppl_0':>10} {'asr_ppl_T':>10} "
             f"{'st_ppl_0':>10} {'st_ppl_T':>10}"]
    for s in runs:
        lines.append(f"{s['lr']:>10g} {s['p_asr']:>6g} {s['asr_ppl'][0]:>10.4f} "
                     f"{s['asr_ppl'][-1]:>10.4f} {s['st_ppl'][0]:>10.4f} "
                     f"{s['st_ppl'][-1]:>10.4f}")
    table = "\n".join(lines)
    with open(os.path.join(out_dir, "probe_table.txt"), "w", encoding="utf-8") as f:
        f.write(table + "\n")
    return {"runs": runs, "series_path": series_path, "table": table}
