"""Regenerate the decode fixture: a desk model trained once, stage 1 then
stage 2, on a corpus from the fixture seed stream.

    python3 perfbench/make_fixture.py

Writes perfbench/fixture/{desk_st.ckpt,vocab.json,FIXTURE.json}. The decode
workloads load this checkpoint instead of training one, so their numbers do
not move when training numerics change. Takes about ten minutes on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import common  # pins BLAS threads before numpy loads

import workloads
from conformerst.evaluation import wer
from conformerst.frontend import FeatureCache, read_wav
from conformerst.model import Model
from conformerst.textproc import build_vocab
from conformerst.training import StageConfig, train_stage

WORK_DIR = os.path.join(common.REPO_ROOT, ".perfbench_work", "fixture")
# The recipe FIXTURE.json records.
UTTS = 192
SEED = 0
STAGE1_STEPS = 3000
STAGE2_STEPS = 2000
STAGE2_LR = 5e-4


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def corpus_wer(model, vocab, entries, workload: str) -> float:
    task, cfg = workloads.DECODE_CONFIGS[workload]
    asr = task == "ASR"
    hyps = [workloads.decode_one(model, vocab, read_wav(e.audio),
                                 e.src_lang if asr else e.tgt_lang, cfg)[0] for e in entries]
    return wer([e.transcript if asr else e.translation for e in entries], hyps).wer


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    start = time.perf_counter()
    entries = common.synth_stratified(os.path.join(WORK_DIR, "data"), UTTS, "fixture", SEED)
    vocab = build_vocab([e.transcript for e in entries] + [e.translation for e in entries])
    cache = FeatureCache()
    model = Model(common.desk_model_config(len(vocab)), seed=SEED)
    s1 = common.desk_stage1(STAGE1_STEPS, SEED, STAGE1_STEPS)
    train_stage(entries, model, vocab, s1, os.path.join(WORK_DIR, "stage1"), cache=cache)
    s2 = StageConfig(stage="ASR+ST", schedule="constant", lr_const=STAGE2_LR,
                     p_asr=0.5, max_steps=STAGE2_STEPS, batch_tokens=160,
                     checkpoint_interval=STAGE2_STEPS, seed=SEED)
    final, _ = train_stage(entries, model, vocab, s2, os.path.join(WORK_DIR, "stage2"),
                           cache=cache)
    train_seconds = time.perf_counter() - start

    os.makedirs(common.FIXTURE_DIR, exist_ok=True)
    shutil.copyfile(final, common.FIXTURE_CKPT)
    vocab.save(common.FIXTURE_VOCAB)

    held_out = common.synth_stratified(os.path.join(WORK_DIR, "held_out"), 48, "decode", 0)
    st, asr = "decode-st-beam5", "decode-asr-greedy"
    record = {
        "checkpoint": os.path.basename(common.FIXTURE_CKPT),
        "checkpoint_sha256": sha256(common.FIXTURE_CKPT),
        "vocab_sha256": sha256(common.FIXTURE_VOCAB),
        "training_commit": common.head_commit(),
        "corpus": {"stream": "fixture", "seed": SEED, "utts": UTTS},
        "stage1": {"steps": STAGE1_STEPS, "schedule": "noam", "lr_peak": 1e-3,
                   "warmup": 150, "batch_tokens": 160},
        "stage2": {"steps": STAGE2_STEPS, "schedule": "constant",
                   "lr": STAGE2_LR, "p_asr": 0.5, "batch_tokens": 160},
        "train_seconds": round(train_seconds, 1),
        "wer": {
            "train_corpus_st_beam5": corpus_wer(model, vocab, entries, st),
            "held_out_decode_seed0_st_beam5": corpus_wer(model, vocab, held_out, st),
            "held_out_decode_seed0_asr_greedy": corpus_wer(model, vocab, held_out, asr),
        },
        "environment": common.environment_record(SEED),
        "command": "python3 perfbench/make_fixture.py",
    }
    with open(os.path.join(common.FIXTURE_DIR, "FIXTURE.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(record["wer"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
