import numpy as np
import pytest

from conformerst.decoding import (
    DecodeConfig,
    Hypothesis,
    banned_ngram_tokens,
    beam_search,
    combined_score,
    decode_entries,
    joint_rescore,
)
from conformerst import decoding
from conformerst.losses import ctc_forward, ctc_loss
from conformerst.model import DecoderState, Model, ModelConfig
from conformerst import numcore as nc
from conformerst.textproc import ManifestEntry, build_vocab


def rand_logprobs(t, v, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t, v))
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


def no_ctc(*args, **kwargs):
    raise AssertionError("CTC evaluated at CTC weight 0")


class TestCtcPrefixScore:
    """CTC score of a complete hypothesis, as joint rescoring uses it."""

    def test_infeasible_repeat(self):
        # "aa" needs at least 3 frames (a blank a); one or two cannot carry it
        assert ctc_forward(rand_logprobs(1, 3), [1, 1]) == -np.inf
        assert ctc_forward(rand_logprobs(2, 3), [1, 1]) == -np.inf

    def test_complete_matches_negated_ctc_loss(self):
        logp = rand_logprobs(6, 4, seed=1)
        for target in ([1], [2, 1], [1, 1], [3, 2, 3]):
            want = -float(ctc_loss(nc.tensor(logp), target).data)
            assert abs(ctc_forward(logp, target) - want) <= 1e-9


class TestNgramBlocking:
    def test_bans_completion_of_seen_ngram(self):
        toks = [1, 2, 3, 4, 5, 1, 2, 3, 4]
        assert banned_ngram_tokens(toks, 5) == {5}

    def test_no_ban_without_match(self):
        assert banned_ngram_tokens([1, 2, 3, 4, 5, 6, 7], 5) == set()

    def test_disabled(self):
        assert banned_ngram_tokens([1, 1, 1, 1, 1, 1], 0) == set()


def make_setup(seed=0, dtype="float32"):
    vocab = build_vocab(["ab ba ca", "bc ab cb"])
    cfg = ModelConfig(vocab_size=len(vocab), enc_layers=2, dec_layers=1,
                      d_model=16, heads=2, d_ffn=32, conv_kernel=3, dropout=0.0, dtype=dtype)
    model = Model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    feats = rng.standard_normal((1, 48, 80)) * 0.5
    enc = model.encode(feats, [48])
    return model, vocab, enc


class TestBeamSearch:
    def test_deterministic(self):
        model, vocab, enc = make_setup(seed=1)
        cfg = DecodeConfig()
        a = beam_search(model, vocab, enc, "it", cfg)
        b = beam_search(model, vocab, enc, "it", cfg)
        assert [h.tokens for h in a] == [h.tokens for h in b]
        assert [h.score for h in a] == [h.score for h in b]

    def test_structure_and_bans(self):
        model, vocab, enc = make_setup(seed=2)
        hyps = beam_search(model, vocab, enc, "en", DecodeConfig())
        assert hyps and len(hyps) <= 5
        for h in hyps:
            assert h.tokens[:2] == [vocab.bos_id, vocab.lang_id("en")]
            assert h.tokens[-1] == vocab.eos_id
            body = h.tokens[2:-1]
            assert vocab.unk_id not in body
            assert vocab.blank_id not in body and vocab.pad_id not in body
            # no 5-gram may occur twice anywhere in the emitted sequence
            grams = [tuple(h.tokens[i:i + 5]) for i in range(len(h.tokens) - 4)]
            assert len(grams) == len(set(grams))

    def test_batch_of_two_rejected(self):
        model, vocab, _ = make_setup(seed=4)
        feats = np.random.default_rng(5).standard_normal((2, 48, 80)) * 0.5
        enc = model.encode(feats, [48, 40])
        with pytest.raises(ValueError, match="one utterance"):
            beam_search(model, vocab, enc, "en", DecodeConfig())

    def test_beam1_no_ctc_matches_manual_greedy(self):
        model, vocab, enc = make_setup(seed=3)
        cfg = DecodeConfig(beam=1, ctc_weight=0.0, no_repeat_ngram=0)
        hyp = beam_search(model, vocab, enc, "it", cfg)[0]

        tokens = [vocab.bos_id, vocab.lang_id("it")]
        never = [vocab.blank_id, vocab.pad_id, vocab.bos_id,
                 vocab.lang_id("en"), vocab.lang_id("it")]
        with nc.no_grad():
            for _ in range(int(enc.lengths[0]) + 10):
                lp = model.decode_step(enc, [tokens]).data[0, -1].astype(np.float64)
                lp[vocab.unk_id] -= cfg.unk_penalty
                lp[never] = -np.inf
                tok = int(lp.argmax())
                tokens.append(tok)
                if tok == vocab.eos_id:
                    break
        if tokens[-1] != vocab.eos_id:  # length cap: decoder closes with eos
            tokens.append(vocab.eos_id)
        assert hyp.tokens == tokens

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_attention_scores_match_teacher_forcing(self, seed):
        """Each returned hypothesis' attention score is the sum of the
        teacher-forced log-probs of its tokens (the incremental search scores
        exactly what decode_step gives the whole prefix)."""
        model, vocab, enc = make_setup(seed=seed, dtype="float64")
        cfg = DecodeConfig(beam=5, ctc_weight=0.2, no_repeat_ngram=5)
        max_len = int(enc.lengths[0]) + 10
        hyps = beam_search(model, vocab, enc, "it", cfg)
        assert len(hyps) >= 1
        for h in hyps:
            with nc.no_grad():
                lp = model.decode_step(enc, [h.tokens[:-1]]).data[0]
            gen = h.tokens[2:]
            scored = min(len(gen), max_len)  # the length cap closes with an unscored eos
            want = sum(float(lp[1 + j, gen[j]]) for j in range(scored))
            assert abs(h.attn_logp - want) <= 1e-9

    def test_zero_ctc_weight_preserves_attention_ranking(self, monkeypatch):
        model, vocab, enc = make_setup(seed=4)
        monkeypatch.setattr(model, "ctc_head", no_ctc)
        monkeypatch.setattr(decoding, "ctc_lattice", no_ctc)
        hyps = beam_search(model, vocab, enc, "en", DecodeConfig(ctc_weight=0.0))
        norm = [h.attn_logp / max(len(h.tokens) - 2, 1) for h in hyps]
        assert norm == sorted(norm, reverse=True)
        assert all(h.score == pytest.approx(s) for h, s in zip(hyps, norm))

    def test_reorder_shortcut_keeps_hypotheses(self, monkeypatch):
        model, vocab, enc = make_setup(seed=2)
        cfgs = [DecodeConfig(beam=1, ctc_weight=0.0, no_repeat_ngram=0), DecodeConfig()]

        def decode_all():
            return [[h.tokens for h in beam_search(model, vocab, enc, "en", c)] for c in cfgs]

        got = decode_all()

        def copy_rows(state, parent_rows):  # reorder without the identity shortcut
            rows = np.asarray(parent_rows, dtype=np.int64)
            state.self_kv = [tuple(nc.Tensor(t.data[rows]) for t in kv) for kv in state.self_kv]

        monkeypatch.setattr(DecoderState, "reorder", copy_rows)
        assert got == decode_all()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="beam"):
            DecodeConfig(beam=0)
        with pytest.raises(ValueError, match="ctc_weight"):
            DecodeConfig(ctc_weight=1.5)


def test_decode_entries_rejects_entry_without_translation():
    model, vocab, _ = make_setup(seed=1)
    bare = ManifestEntry(audio="missing.wav", duration_s=1.0, src_lang="en", transcript="ab")

    def cache(entry):
        raise AssertionError("decoded before the entries were checked")

    with pytest.raises(ValueError, match="missing.wav has no translation"):
        decode_entries(model, vocab, [bare], cache, DecodeConfig(), "ST")


class TestJointRescore:
    def test_ctc_evidence_flips_ranking(self):
        vocab = build_vocab(["ab"])
        a, b = vocab.id("a"), vocab.id("b")
        h1 = Hypothesis(tokens=[vocab.bos_id, vocab.lang_id("en"), a, vocab.eos_id],
                        attn_logp=-1.0)
        h2 = Hypothesis(tokens=[vocab.bos_id, vocab.lang_id("en"), b, vocab.eos_id],
                        attn_logp=-1.2)
        # frame posteriors put nearly all CTC mass on "b"
        probs = np.full((4, len(vocab)), 1e-6)
        probs[:, b] = 1.0
        logp = np.log(probs / probs.sum(axis=1, keepdims=True))

        attn_only = joint_rescore([h1, h2], logp, 0.0, vocab)
        assert attn_only[0] is h1
        joint = joint_rescore([h1, h2], logp, 0.2, vocab)
        assert joint[0] is h2
        for h in joint:
            want = combined_score(h.attn_logp, h.ctc_logp, 0.2, len(h.tokens) - 2, True)
            assert h.score == pytest.approx(want)

    def test_zero_weight_builds_no_lattice(self, monkeypatch):
        vocab = build_vocab(["ab"])
        a, b = vocab.id("a"), vocab.id("b")
        # 3 labels over 2 frames: CTC-infeasible (log-prob -inf), and 0 * -inf is nan
        h = Hypothesis(tokens=[vocab.bos_id, vocab.lang_id("en"), a, b, a, vocab.eos_id],
                       attn_logp=-1.5)
        monkeypatch.setattr(decoding, "ctc_lattice", no_ctc)
        [got] = joint_rescore([h], rand_logprobs(2, len(vocab)), 0.0, vocab)
        assert got.ctc_logp == 0.0 and got.score == -1.5 / 4
