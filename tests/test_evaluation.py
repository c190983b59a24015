import time

import numpy as np
import pytest

from conformerst import frontend
from conformerst.decoding import DecodeConfig
from conformerst.evaluation import EvalReport, perplexity, wer, xrtf_bench
from conformerst.frontend import CorpusSpec, FeatureCache, synth_corpus
from conformerst.model import Model, ModelConfig
from conformerst.textproc import ManifestEntry, build_vocab


class TestWer:
    def test_identical_zero(self):
        assert wer(["a b c", "x y"], ["a b c", "x y"]).wer == 0.0

    def test_single_substitution(self):
        r = wer(["a b c"], ["a x c"])
        assert r.wer == pytest.approx(1 / 3)
        assert (r.substitutions, r.deletions, r.insertions) == (1, 0, 0)
        assert r.ref_words == 3

    def test_normalization_applied_to_both_sides(self):
        assert wer(["Hello, World!"], ["hello world"]).wer == 0.0

    def test_deletion_and_insertion_counts(self):
        r = wer(["a b"], ["b"])
        assert (r.substitutions, r.deletions, r.insertions) == (0, 1, 0)
        r = wer(["b"], ["a b"])
        assert (r.substitutions, r.deletions, r.insertions) == (0, 0, 1)

    def test_corpus_pools_counts(self):
        pooled = wer(["a b c", "d e"], ["a x c", "d e f"])
        assert pooled.substitutions == 1 and pooled.insertions == 1
        assert pooled.wer == pytest.approx(2 / 5)

    def test_pooling_order_invariant(self):
        a = wer(["a b c", "d e"], ["a x c", "d e f"]).wer
        b = wer(["d e", "a b c"], ["d e f", "a x c"]).wer
        assert a == b

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            wer([], [])
        with pytest.raises(ValueError, match="references"):
            wer(["a"], ["a", "b"])

    def test_report_invariant(self):
        r = wer(["a b c d"], ["a x d"])
        assert r.wer == (r.substitutions + r.deletions + r.insertions) / r.ref_words


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval_corpus")
    entries, _ = synth_corpus(CorpusSpec(num_utts=3, min_tokens=3, max_tokens=4, seed=21), root)
    texts = [e.transcript for e in entries] + [e.translation for e in entries]
    vocab = build_vocab(texts)
    cfg = ModelConfig(vocab_size=len(vocab), enc_layers=2, dec_layers=1,
                      d_model=16, heads=2, d_ffn=32, conv_kernel=3)
    model = Model(cfg, seed=5)
    return model, vocab, entries, FeatureCache()


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self, setup):
        model, vocab, entries, cache = setup
        uni = Model(model.config, seed=6)
        uni.params["dec.out.w"].data[:] = 0.0
        uni.params["dec.out.b"].data[:] = 0.0
        ppl = perplexity(uni, vocab, entries, "ASR", cache)
        assert abs(ppl - len(vocab)) <= 1e-6 * len(vocab)

    def test_deterministic(self, setup):
        model, vocab, entries, cache = setup
        a = perplexity(model, vocab, entries, "ST", cache)
        assert a == perplexity(model, vocab, entries, "ST", cache)
        assert a >= 1.0

    def test_missing_translation_rejected(self, setup):
        model, vocab, entries, cache = setup
        bare = ManifestEntry(audio=entries[0].audio, duration_s=entries[0].duration_s,
                             src_lang="en", transcript=entries[0].transcript)
        with pytest.raises(ValueError, match="translation"):
            perplexity(model, vocab, [bare], "ST", cache)

    def test_empty_rejected(self, setup):
        model, vocab, _, cache = setup
        with pytest.raises(ValueError, match="empty"):
            perplexity(model, vocab, [], "ASR", cache)


class TestXrtf:
    def test_arithmetic_and_fields(self, setup):
        model, vocab, entries, cache = setup
        cfg = DecodeConfig(beam=1, ctc_weight=0.0)
        report, hyps = xrtf_bench(model, vocab, entries, cache, batch_size=2, cfg=cfg)
        assert len(hyps) == len(entries)
        assert report.audio_seconds == pytest.approx(sum(e.duration_s for e in entries))
        assert report.xrtf == pytest.approx(report.audio_seconds / report.compute_seconds)
        assert report.batch_size == 2
        rows = [line.split()[0] for line in report.table().splitlines()]
        assert rows == ["xrtf", "audio_seconds", "compute_seconds", "batch_size"]

    def test_decode_outputs_deterministic(self, setup):
        model, vocab, entries, cache = setup
        cfg = DecodeConfig(beam=2)
        _, a = xrtf_bench(model, vocab, entries, cache, cfg=cfg)
        _, b = xrtf_bench(model, vocab, entries, cache, cfg=cfg)
        assert a == b

    def test_sleep_halves_xrtf(self, setup):
        model, vocab, entries, cache = setup
        one = entries[:1]
        cfg = DecodeConfig(beam=1, ctc_weight=0.0)
        fast, _ = xrtf_bench(model, vocab, one, cache, cfg=cfg, sleep_per_batch=0.2)
        slow, _ = xrtf_bench(model, vocab, one, cache, cfg=cfg, sleep_per_batch=0.4)
        ratio = fast.xrtf / slow.xrtf
        assert 1.6 <= ratio <= 2.4

    def test_empty_rejected(self, setup):
        model, vocab, _, cache = setup
        with pytest.raises(ValueError, match="empty"):
            xrtf_bench(model, vocab, [], cache)

    def test_clock_includes_feature_extraction(self, setup, monkeypatch):
        model, vocab, entries, cache = setup
        extract = frontend.extract_features

        def slow_extract(samples):
            time.sleep(0.05)
            return extract(samples)

        monkeypatch.setattr(frontend, "extract_features", slow_extract)
        cfg = DecodeConfig(beam=1, ctc_weight=0.0)
        report, _ = xrtf_bench(model, vocab, entries, cache, cfg=cfg)
        assert report.compute_seconds >= 0.05 * len(entries)  # one extraction per entry

    def test_table_rendering(self):
        text = EvalReport(wer=0.25, substitutions=1, ref_words=4).table()
        assert "wer" in text and "0.25" in text
        # a perfect decode keeps its zero rows
        rows = dict(line.split() for line in wer(["a b c"], ["a b c"]).table().splitlines())
        assert rows == {"wer": "0.0", "substitutions": "0", "deletions": "0",
                        "insertions": "0", "ref_words": "3"}
