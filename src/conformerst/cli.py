"""Command-line entry point for the full pipeline: synthetic data
generation, manifest filtering, vocabulary preparation, two-stage training,
beam-search decoding, evaluation, throughput benchmarking, checkpoint
averaging, and the forgetting probe.

Every run writes a `run.json` provenance record (subcommand, flags, seed)
next to its outputs so it can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .decoding import DecodeConfig, decode_entries
from .evaluation import perplexity, wer, xrtf_bench
from .frontend import CorpusSpec, FeatureCache, SOURCE_WORDS, synth_corpus
from .model import Model, ModelConfig, load_checkpoint
from .textproc import (
    DEFAULT_BOUNDS,
    FilterBounds,
    Vocabulary,
    build_vocab,
    load_manifest,
    ratio_filter,
    save_manifest,
    task_fields,
)
from .training import (
    StageConfig,
    average_checkpoints,
    forgetting_probe,
    load_stage_config,
    train_stage,
)

OUTPUT_DIR_ENV = "CONFORMERST_OUTPUT_DIR"


def _default_out():
    return os.environ.get(OUTPUT_DIR_ENV, ".")


def _require(path, what="input"):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _write_provenance(out_dir, ns):
    os.makedirs(out_dir, exist_ok=True)
    record = {k: v for k, v in vars(ns).items() if k != "func"}
    record["subcommand"] = ns.subcommand
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, default=str)


def _load_model(checkpoint_path, seed=0):
    arrays, config, step, stage = load_checkpoint(_require(checkpoint_path, "checkpoint"))
    model = Model(config, seed=seed)
    model.load_state(arrays)
    return model, step, stage


def _decode_config(ns) -> DecodeConfig:
    return DecodeConfig(beam=ns.beam, ctc_weight=ns.ctc_weight,
                        no_repeat_ngram=ns.no_repeat_ngram, unk_penalty=ns.unk_penalty)


def _add_decode_flags(p):
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--ctc-weight", type=float, default=0.2)
    p.add_argument("--no-repeat-ngram", type=int, default=5)
    p.add_argument("--unk-penalty", type=float, default=10_000.0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth_data(ns):
    spec = CorpusSpec(num_utts=ns.num_utts,
                      token_inventory=SOURCE_WORDS[: ns.inventory_size],
                      min_tokens=ns.min_tokens, max_tokens=ns.max_tokens, seed=ns.seed)
    entries, manifest = synth_corpus(spec, ns.out)
    _write_provenance(ns.out, ns)
    print(f"wrote {len(entries)} utterances; manifest: {manifest}")
    return 0


def cmd_filter(ns):
    entries = load_manifest(_require(ns.manifest, "manifest"))
    default = DEFAULT_BOUNDS[ns.direction]
    ns.rmin = default.r_min if ns.rmin is None else ns.rmin
    ns.rmax = default.r_max if ns.rmax is None else ns.rmax
    kept, report = ratio_filter(entries, FilterBounds(ns.rmin, ns.rmax))
    os.makedirs(os.path.dirname(os.path.abspath(ns.out)), exist_ok=True)
    save_manifest(kept, ns.out)
    _write_provenance(os.path.dirname(os.path.abspath(ns.out)), ns)
    print(f"kept {report.kept}, removed {report.removed}, "
          f"empty translations {report.empty_translation} "
          f"({report.removed_fraction:.1%} removed)")
    return 0


def cmd_prepare(ns):
    entries = load_manifest(_require(ns.manifest, "manifest"))
    texts = [e.transcript for e in entries]
    texts += [e.translation for e in entries if e.translation is not None]
    vocab = build_vocab(texts)
    os.makedirs(os.path.dirname(os.path.abspath(ns.out)), exist_ok=True)
    vocab.save(ns.out)
    _write_provenance(os.path.dirname(os.path.abspath(ns.out)), ns)
    print(f"vocabulary of {len(vocab)} tokens written to {ns.out}")
    return 0


def cmd_train(ns):
    entries = load_manifest(_require(ns.manifest, "manifest"))
    vocab = Vocabulary.load(_require(ns.vocab, "vocabulary"))
    if ns.config is not None:
        cfg = load_stage_config(_require(ns.config, "stage config"))
    elif ns.stage == 1:
        cfg = StageConfig(stage="ASR-pretrain", schedule="noam", seed=ns.seed)
    else:
        cfg = StageConfig(stage="ASR+ST", schedule="constant", seed=ns.seed)
    overrides = {"max_steps": ns.steps, "lr_peak": ns.lr, "lr_const": ns.lr,
                 "batch_tokens": ns.batch_tokens, "warmup_steps": ns.warmup,
                 "checkpoint_interval": ns.checkpoint_interval}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})

    if ns.init_checkpoint is not None:
        model, _, _ = _load_model(ns.init_checkpoint, seed=ns.seed)
    else:
        mc = ModelConfig(vocab_size=len(vocab), enc_layers=ns.enc_layers,
                         dec_layers=ns.dec_layers, d_model=ns.d_model, heads=ns.heads,
                         d_ffn=ns.d_ffn, conv_kernel=ns.conv_kernel, dropout=ns.dropout)
        model = Model(mc, seed=ns.seed)
    _write_provenance(ns.out, ns)
    final, metrics = train_stage(entries, model, vocab, cfg, ns.out,
                                 cache=FeatureCache(root=os.path.dirname(ns.manifest)))
    print(f"final checkpoint: {final}\nmetrics: {metrics}")
    return 0


def cmd_decode(ns):
    entries = load_manifest(_require(ns.manifest, "manifest"))
    vocab = Vocabulary.load(_require(ns.vocab, "vocabulary"))
    model, _, _ = _load_model(ns.checkpoint, seed=ns.seed)
    cache = FeatureCache(root=os.path.dirname(ns.manifest))
    hyps = decode_entries(model, vocab, entries, cache, _decode_config(ns), ns.task)
    os.makedirs(os.path.dirname(os.path.abspath(ns.out)), exist_ok=True)
    with open(ns.out, "w", encoding="utf-8") as f:
        for entry, hyp in zip(entries, hyps):
            f.write(json.dumps({"audio": entry.audio, "hyp": hyp}) + "\n")
    _write_provenance(os.path.dirname(os.path.abspath(ns.out)), ns)
    print(f"decoded {len(hyps)} utterances to {ns.out}")
    return 0


def cmd_evaluate(ns):
    entries = load_manifest(_require(ns.manifest, "manifest"))
    refs = [task_fields(e, ns.task)[0] for e in entries]
    vocab = Vocabulary.load(_require(ns.vocab, "vocabulary"))
    model, _, _ = _load_model(ns.checkpoint, seed=ns.seed)
    cache = FeatureCache(root=os.path.dirname(ns.manifest))
    if ns.hyps is not None:
        with open(_require(ns.hyps, "hypotheses")) as f:
            hyps = [json.loads(line)["hyp"] for line in f if line.strip()]
    else:
        hyps = decode_entries(model, vocab, entries, cache, _decode_config(ns), ns.task)
    report = wer(refs, hyps)
    ppl = perplexity(model, vocab, entries, ns.task, cache)
    print(report.table())
    print(f"ppl_{ns.task.lower()}  {ppl:.4f}")
    return 0


def cmd_bench(ns):
    entries = load_manifest(_require(ns.manifest, "manifest"))
    vocab = Vocabulary.load(_require(ns.vocab, "vocabulary"))
    model, _, _ = _load_model(ns.checkpoint, seed=ns.seed)
    cache = FeatureCache(root=os.path.dirname(ns.manifest))
    report, _ = xrtf_bench(model, vocab, entries, cache, cfg=_decode_config(ns), task=ns.task)
    print(report.table())
    return 0


def cmd_average(ns):
    for p in ns.checkpoints:
        _require(p, "checkpoint")
    _, _, step, stage = average_checkpoints(ns.checkpoints, out_path=ns.out)
    _write_provenance(os.path.dirname(os.path.abspath(ns.out)), ns)
    print(f"averaged {len(ns.checkpoints)} checkpoints (max step {step}, {stage}) -> {ns.out}")
    return 0


def cmd_probe_forgetting(ns):
    train_entries = load_manifest(_require(ns.train_manifest, "train manifest"))
    val_entries = load_manifest(_require(ns.val_manifest, "validation manifest"))
    vocab = Vocabulary.load(_require(ns.vocab, "vocabulary"))
    _require(ns.checkpoint, "checkpoint")
    cache = FeatureCache(root=os.path.dirname(ns.train_manifest))
    report = forgetting_probe(ns.checkpoint, train_entries, val_entries, vocab,
                              lr_variants=[float(x) for x in ns.lrs.split(",")],
                              p_asr_variants=[float(x) for x in ns.p_asr.split(",")],
                              steps=ns.steps, out_dir=ns.out,
                              eval_interval=ns.eval_interval, seed=ns.seed, cache=cache)
    _write_provenance(ns.out, ns)
    print(report["table"])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conformerst",
                                     description="Speech recognition/translation toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic tone-word corpus")
    p.add_argument("--out", default=_default_out())
    p.add_argument("--num-utts", type=int, default=32)
    p.add_argument("--inventory-size", type=int, default=8)
    p.add_argument("--min-tokens", type=int, default=3)
    p.add_argument("--max-tokens", type=int, default=8)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("filter", help="drop entries with outlier length ratios")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=os.path.join(_default_out(), "filtered.jsonl"))
    p.add_argument("--rmin", type=float, help="default: the direction's bound")
    p.add_argument("--rmax", type=float, help="default: the direction's bound")
    p.add_argument("--direction", default="en-it", choices=sorted(DEFAULT_BOUNDS))
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("prepare", help="build the character vocabulary")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=os.path.join(_default_out(), "vocab.json"))
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--stage", type=int, choices=(1, 2), default=1)
    p.add_argument("--config", help="stage config JSON (flags override it)")
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--batch-tokens", type=int)
    p.add_argument("--checkpoint-interval", type=int)
    p.add_argument("--init-checkpoint")
    p.add_argument("--enc-layers", type=int, default=4)
    p.add_argument("--dec-layers", type=int, default=2)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--d-ffn", type=int, default=256)
    p.add_argument("--conv-kernel", type=int, default=15)
    p.add_argument("--dropout", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="beam-search decode a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=os.path.join(_default_out(), "hyps.jsonl"))
    p.add_argument("--task", choices=("ASR", "ST"), default="ST")
    _add_decode_flags(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("evaluate", help="WER and perplexity on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", choices=("ASR", "ST"), default="ST")
    p.add_argument("--hyps", help="pre-decoded hypotheses (otherwise decodes)")
    _add_decode_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="inverse real-time-factor benchmark")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", choices=("ASR", "ST"), default="ST")
    _add_decode_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("average", help="average the given checkpoints")
    p.add_argument("checkpoints", nargs="+")
    p.add_argument("--out", default=os.path.join(_default_out(), "averaged.ckpt"))
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("probe-forgetting", help="second-stage perplexity probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train-manifest", required=True)
    p.add_argument("--val-manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--lrs", default="1e-4,1e-3", help="comma-separated learning rates")
    p.add_argument("--p-asr", default="0.5", help="comma-separated sampling probabilities")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--eval-interval", type=int, default=100)
    p.add_argument("--out", default=_default_out())
    p.set_defaults(func=cmd_probe_forgetting)

    for sp in sub.choices.values():
        sp.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
