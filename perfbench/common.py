"""Shared set-up for the benchmark scripts: pinned BLAS threads, the path to
the library sources, the desk configuration and the synthetic corpora.

Import this module before numpy: OpenBLAS reads its thread count from the
environment when it is loaded.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the desk-size matmuls gain nothing from a thread pool, and a
# pool that spins while another process holds the second core made feature
# extraction 15x slower in one measurement.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
if not os.path.isdir(os.path.join(SRC_DIR, "conformerst")):
    sys.exit(f"perfbench: library sources not found at {SRC_DIR}/conformerst; "
             "run from a checkout of the repository")
sys.path.insert(0, SRC_DIR)

import numpy as np  # noqa: E402

from conformerst.frontend import CorpusSpec, synth_corpus  # noqa: E402
from conformerst.model import ModelConfig  # noqa: E402
from conformerst.training import StageConfig  # noqa: E402

FIXTURE_DIR = os.path.join(BENCH_DIR, "fixture")
FIXTURE_CKPT = os.path.join(FIXTURE_DIR, "desk_st.ckpt")
FIXTURE_VOCAB = os.path.join(FIXTURE_DIR, "vocab.json")

# Every utterance length of CorpusSpec's default range gets an equal share of
# a corpus, so the seed changes which words are spoken but not how much audio
# there is or how the token-budget batches are filled. Timings then compare
# across seeds.
TOKEN_COUNTS = tuple(range(CorpusSpec(num_utts=1).min_tokens,
                           CorpusSpec(num_utts=1).max_tokens + 1))

# Independent seed streams: the fixture corpus never coincides with a corpus
# the decode workloads are measured on.
STREAMS = {"train": 1, "decode": 2, "fixture": 3}


def desk_model_config(vocab_size: int) -> ModelConfig:
    """The ROADMAP desk model: enc 2 / dec 1 / d 32 / heads 4 / ffn 64 / kernel 7."""
    return ModelConfig(vocab_size=vocab_size, enc_layers=2, dec_layers=1, d_model=32,
                       heads=4, d_ffn=64, conv_kernel=7, dropout=0.1)


def desk_stage1(max_steps: int, seed: int, checkpoint_interval: int) -> StageConfig:
    """Stage-1 ASR pre-training: Noam, peak 1e-3, warm-up 150, 160-token batches."""
    return StageConfig(stage="ASR-pretrain", schedule="noam", lr_peak=1e-3,
                       warmup_steps=150, max_steps=max_steps, batch_tokens=160,
                       checkpoint_interval=checkpoint_interval, seed=seed)


def corpus_seed(stream: str, seed: int, n_tokens: int) -> int:
    return int(np.random.SeedSequence([STREAMS[stream], seed, n_tokens]).generate_state(1)[0])


def synth_stratified(out_dir: str, num_utts: int, stream: str, seed: int,
                     token_counts=TOKEN_COUNTS) -> list:
    """Synthetic tone-word corpus with an equal share of each utterance length."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entries = []
    for k, n_tok in enumerate(token_counts):
        count = num_utts // len(token_counts) + (k < num_utts % len(token_counts))
        spec = CorpusSpec(num_utts=count, min_tokens=n_tok, max_tokens=n_tok,
                          seed=corpus_seed(stream, seed, n_tok))
        part, _ = synth_corpus(spec, os.path.join(out_dir, f"len{n_tok}"))
        entries.extend(part)
    return entries


def head_commit() -> str | None:
    """The checked-out commit, read from .git without starting a process."""
    git = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment_record(seed: int) -> dict:
    """What the numbers depend on besides the code: machine, BLAS, seed."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "commit": head_commit(),
        "seed": seed,
    }
