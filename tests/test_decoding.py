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
from conformerst.losses import ctc_lattice, ctc_loss
from conformerst.model import DecoderState, Model, ModelConfig
from conformerst import numcore as nc
from conformerst.textproc import LANGS, ManifestEntry, build_vocab
from conformerst.textproc import decode as decode_ids


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
        assert ctc_lattice(rand_logprobs(1, 3)[None], [[1, 1]], [1]).log_p[0] == -np.inf
        assert ctc_lattice(rand_logprobs(2, 3)[None], [[1, 1]], [2]).log_p[0] == -np.inf

    def test_complete_matches_negated_ctc_loss(self):
        logp = rand_logprobs(6, 4, seed=1)
        for target in ([1], [2, 1], [1, 1], [3, 2, 3]):
            want = -float(ctc_loss(nc.tensor(logp), target).data)
            assert abs(ctc_lattice(logp[None], [target], [6]).log_p[0] - want) <= 1e-9


class TestNgramBlocking:
    def test_bans_completion_of_seen_ngram(self):
        toks = [1, 2, 3, 4, 5, 1, 2, 3, 4]
        assert banned_ngram_tokens(toks, 5) == {5}

    def test_no_ban_without_match(self):
        assert banned_ngram_tokens([1, 2, 3, 4, 5, 6, 7], 5) == set()

    def test_disabled(self):
        assert banned_ngram_tokens([1, 1, 1, 1, 1, 1], 0) == set()


def make_setup(seed=0, dtype="float32", frames=48):
    vocab = build_vocab(["ab ba ca", "bc ab cb"])
    cfg = ModelConfig(vocab_size=len(vocab), enc_layers=2, dec_layers=1,
                      d_model=16, heads=2, d_ffn=32, conv_kernel=3, dropout=0.0, dtype=dtype)
    model = Model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    feats = rng.standard_normal((1, frames, 80)) * 0.5
    enc = model.encode(feats, [frames])
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

    def test_beam1_tie_picks_the_argsort_token(self):
        """A zeroed output projection makes every token's score tie; beam 1
        picks by the stable argsort rule, the highest id that is not masked."""
        model, vocab, enc = make_setup(seed=3)
        model.params["dec.out.w"].data[...] = 0.0
        model.params["dec.out.b"].data[...] = 0.0
        cfg = DecodeConfig(beam=1, ctc_weight=0.0, no_repeat_ngram=0)
        row = np.zeros(len(vocab))
        row[vocab.unk_id] -= cfg.unk_penalty
        row[[vocab.blank_id, vocab.pad_id, vocab.bos_id] + [vocab.lang_id(x) for x in LANGS]] = -np.inf
        want = int(np.argsort(row, kind="stable")[::-1][0])
        assert want != vocab.eos_id and (row == row[want]).sum() > 1
        hyp = beam_search(model, vocab, enc, "it", cfg)[0]
        assert hyp.tokens[2:] == [want] * (int(enc.lengths[0]) + 10) + [vocab.eos_id]

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
        with pytest.raises(ValueError, match=r"no_repeat_ngram must be >= 0 .*got -1"):
            DecodeConfig(no_repeat_ngram=-1)
        with pytest.raises(ValueError, match=r"max_len_factor must be >= 0, got -0.5"):
            DecodeConfig(max_len_factor=-0.5)
        DecodeConfig(no_repeat_ngram=0, max_len_factor=0.0)  # both bounds are allowed


def manual_greedy(model, vocab, enc, lang, cfg):
    """Beam-1 decoding by its rules, one teacher-forced call per token:
    returns (tokens, attention score)."""
    tokens, attn = [vocab.bos_id, vocab.lang_id(lang)], 0.0
    never = [vocab.blank_id, vocab.pad_id, vocab.bos_id] + [vocab.lang_id(x) for x in LANGS]
    with nc.no_grad():
        for _ in range(int(enc.lengths[0] * cfg.max_len_factor) + 10):
            lp = model.decode_step(enc, [tokens]).data[0, -1].astype(np.float64)
            lp[vocab.unk_id] -= cfg.unk_penalty
            lp[never] = -np.inf
            lp[list(banned_ngram_tokens(tokens, cfg.no_repeat_ngram))] = -np.inf
            if not np.isfinite(lp).any():
                lp[vocab.eos_id] = 0.0
            tok = len(lp) - 1 - int(lp[::-1].argmax())  # the higher id among ties
            tokens.append(tok)
            attn += lp[tok]
            if tok == vocab.eos_id:
                return tokens, attn
    return tokens + [vocab.eos_id], attn


def force_draft(monkeypatch, model, vocab, enc, draft):
    """Make the tap CTC head's best path spell `draft`: one frame per token,
    a blank between repeats, blanks after."""
    frames = []
    for tok in draft:
        if frames and frames[-1] == tok:
            frames.append(vocab.blank_id)
        frames.append(tok)
    t = enc.tap_states.shape[1]
    assert len(frames) <= t
    frames += [vocab.blank_id] * (t - len(frames))
    probs = np.full((1, t, len(vocab)), 1e-3)
    probs[0, np.arange(t), frames] = 1.0
    tap = nc.Tensor(np.log(probs / probs.sum(axis=2, keepdims=True)))
    real = model.ctc_head
    monkeypatch.setattr(model, "ctc_head",
                        lambda states, which: tap if which == "src-tap" else real(states, which))


def count_decoder_calls(monkeypatch, model):
    """The prefixes of the model's `decode_step` calls from now on."""
    calls = []
    real = model.decode_step

    def spy(enc, prefix, **kwargs):
        calls.append(prefix)
        return real(enc, prefix, **kwargs)

    monkeypatch.setattr(model, "decode_step", spy)
    return calls


# beam 1 on 160 input frames (40 encoder frames) of the seed-0 setup: CAP
# closes the decode at its 10-token cap, BANS blocks repeated bigrams and
# ends in eos (after 10 tokens)
CAP = DecodeConfig(beam=1, ctc_weight=0.0, no_repeat_ngram=0, max_len_factor=0.0)
BANS = DecodeConfig(beam=1, ctc_weight=0.0, no_repeat_ngram=2)


def other_letter(vocab, tok):
    return vocab.id("a") if tok != vocab.id("a") else vocab.id("b")


class TestDraftedGreedy:
    """Beam 1 checks the tap CTC head's best path in one decoder call and
    returns exactly what one-token-per-call greedy decoding returns."""

    def decode(self, monkeypatch, cfg, draft):
        """Decode with the tap head drafting `draft(reference tokens after
        [bos, lang], vocab)`; the hypothesis must be the reference's. Returns
        (scored positions of the reference, decoder calls, truncations as
        (fed, kept) positions)."""
        model, vocab, enc = make_setup(seed=0, dtype="float64", frames=160)
        tokens, attn = manual_greedy(model, vocab, enc, "it", cfg)
        capped = len(tokens) - 3 == int(40 * cfg.max_len_factor) + 10
        assert capped == (cfg is CAP)
        force_draft(monkeypatch, model, vocab, enc, draft(tokens[2:], vocab))
        calls = count_decoder_calls(monkeypatch, model)
        cuts = []
        real = DecoderState.truncate
        monkeypatch.setattr(DecoderState, "truncate",
                            lambda state, pos: (cuts.append((state.pos, pos)), real(state, pos)))
        hyp = beam_search(model, vocab, enc, "it", cfg)[0]
        assert hyp.tokens == tokens
        assert abs(hyp.attn_logp - attn) <= 1e-9
        return len(tokens) - 2 - capped, calls, cuts

    @pytest.mark.parametrize("cfg", [CAP, BANS], ids=["cap", "eos"])
    def test_accepted_draft_takes_one_call(self, monkeypatch, cfg):
        _, calls, cuts = self.decode(monkeypatch, cfg, lambda gen, v: gen[:-1])
        assert len(calls) == 1 and all(fed == kept for fed, kept in cuts)

    def test_accepted_draft_scores_are_teacher_forced_bits(self, monkeypatch):
        """float32: the one call on a fresh state is the teacher-forced call."""
        model, vocab, enc = make_setup(seed=0, frames=160)
        tokens, _ = manual_greedy(model, vocab, enc, "it", BANS)
        force_draft(monkeypatch, model, vocab, enc, tokens[2:-1])
        calls = count_decoder_calls(monkeypatch, model)
        hyp = beam_search(model, vocab, enc, "it", BANS)[0]
        assert hyp.tokens == tokens and tokens[-1] == vocab.eos_id and len(calls) == 1
        with nc.no_grad():
            lp = model.decode_step(enc, [tokens[:-1]]).data[0]
        assert lp.dtype == np.float32
        assert hyp.attn_logp == sum(float(lp[1 + j, tok]) for j, tok in enumerate(tokens[2:]))

    @pytest.mark.parametrize("cfg", [CAP, BANS], ids=["cap", "eos"])
    def test_rejected_first_token(self, monkeypatch, cfg):
        scored, calls, cuts = self.decode(
            monkeypatch, cfg, lambda gen, v: [other_letter(v, gen[0])] + gen[1:-1])
        assert len(calls) == scored and cuts[0] == (2 + 10, 2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_rejected_mid_draft_truncates(self, monkeypatch, k):
        scored, calls, cuts = self.decode(
            monkeypatch, CAP, lambda gen, v: gen[:k] + [other_letter(v, gen[k])] + gen[k + 1 : -1])
        # the first call accepts k tokens and picks token k; then one token per call
        assert len(calls) == 1 + scored - (k + 1) and cuts[0] == (2 + 10, 2 + k)

    @pytest.mark.parametrize("cfg", [CAP, BANS], ids=["cap", "eos"])
    def test_empty_draft(self, monkeypatch, cfg):
        scored, calls, cuts = self.decode(monkeypatch, cfg, lambda gen, v: [])
        assert len(calls) == scored and all(fed == kept for fed, kept in cuts)

    def test_draft_longer_than_the_cap(self, monkeypatch):
        scored, calls, cuts = self.decode(
            monkeypatch, CAP, lambda gen, v: gen[:-1] + [v.id("a"), v.id("b")] * 4)
        assert len(calls) == 1 and not cuts

    def test_draft_with_unk(self, monkeypatch):
        scored, calls, cuts = self.decode(
            monkeypatch, CAP, lambda gen, v: gen[:2] + [v.unk_id] + gen[3:-1])
        assert len(calls) == 1 + scored - 3 and cuts[0] == (2 + 10, 2 + 2)

    def test_draft_with_banned_ngram(self, monkeypatch):
        found = []

        def draft(gen, vocab):
            start = [vocab.bos_id, vocab.lang_id("it")]
            k = next(k for k in range(len(gen)) if banned_ngram_tokens(start + gen[:k], 2))
            found.append(k)
            return gen[:k] + [min(banned_ngram_tokens(start + gen[:k], 2))] + gen[k + 1 : -1]

        scored, calls, cuts = self.decode(monkeypatch, BANS, draft)
        [k] = found
        assert len(calls) == 1 + scored - (k + 1) and cuts[0][1] == 2 + k


def test_truncate_then_feed_matches_a_fresh_state():
    model, vocab, enc = make_setup(seed=8, dtype="float64")
    start = [vocab.bos_id, vocab.lang_id("en")]
    a, b, c = vocab.id("a"), vocab.id("b"), vocab.id("c")
    with nc.no_grad():
        state = model.decoder_state(enc)
        model.decode_step(enc, [start + [a, b, c, a]], state=state)
        state.truncate(3)
        assert state.pos == 3 and all(k.shape[1] == 3 for kv in state.self_kv for k in kv)
        got = model.decode_step(enc, [[c, b]], state=state).data[0]
        got = np.concatenate([got, model.decode_step(enc, [[a]], state=state).data[0]])
        want = model.decode_step(enc, [start + [a, c, b, a]]).data[0, 3:]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    for pos in (-1, 7):
        with pytest.raises(ValueError, match="outside 0..6"):
            state.truncate(pos)


def test_decode_entries_rejects_entry_without_translation():
    model, vocab, _ = make_setup(seed=1)
    bare = ManifestEntry(audio="missing.wav", duration_s=1.0, src_lang="en", transcript="ab")

    def cache(entry):
        raise AssertionError("decoded before the entries were checked")

    with pytest.raises(ValueError, match="missing.wav has no translation"):
        decode_entries(model, vocab, [bare], cache, DecodeConfig(), "ST")


def test_decode_entries_encodes_without_a_tape(monkeypatch):
    model, vocab, _ = make_setup(seed=3)
    entries = [ManifestEntry(audio=f"u{i}.wav", duration_s=1.0, src_lang="en", transcript="ab")
               for i in range(2)]
    feats = {e.audio: np.random.default_rng(i).standard_normal((40, 80)) * 0.5
             for i, e in enumerate(entries)}
    cfg = DecodeConfig()
    seen = []

    def spy(model, vocab, enc, lang, cfg):
        seen.append(enc.states)
        return beam_search(model, vocab, enc, lang, cfg)

    monkeypatch.setattr(decoding, "beam_search", spy)
    texts = decode_entries(model, vocab, entries, lambda e: feats[e.audio], cfg, "ASR")
    assert [(s.requires_grad, s._parents) for s in seen] == [(False, ())] * len(entries)
    # the same texts as an encoder that records a tape
    taped = [model.encode(feats[e.audio][None], [40]) for e in entries]
    assert taped[0].states._parents
    assert texts == [decode_ids(beam_search(model, vocab, enc, "en", cfg)[0].text_tokens(vocab), vocab)
                     for enc in taped]


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
