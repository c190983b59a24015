import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformerst import frontend as fe


def tone(duration_s, freq=440.0, amp=0.3):
    t = np.arange(int(duration_s * fe.SAMPLE_RATE)) / fe.SAMPLE_RATE
    return amp * np.sin(2 * np.pi * freq * t)


class TestWav:
    def test_roundtrip(self, tmp_path):
        x = tone(0.5)
        p = tmp_path / "t.wav"
        fe.write_wav(p, x)
        y = fe.read_wav(p)
        assert len(y) == len(x)
        assert np.abs(x - y).max() < 1e-4  # 16-bit quantization

    def test_rejects_wrong_rate(self, tmp_path):
        import wave

        p = tmp_path / "bad.wav"
        with wave.open(str(p), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(b"\x00\x00" * 100)
        with pytest.raises(ValueError, match="16000"):
            fe.read_wav(p)


class TestFeatures:
    def test_one_second_gives_98_frames(self):
        feats = fe.extract_features(tone(1.0))
        assert feats.shape == (98, 80)

    def test_single_window(self):
        feats = fe.extract_features(np.zeros(400) + 0.01)
        assert feats.shape == (1, 80)

    def test_silence_hits_log_floor(self):
        feats = fe.extract_features(np.zeros(1600))
        assert np.allclose(feats, np.log(1e-10))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            fe.extract_features(np.zeros(399))

    @given(st.integers(min_value=400, max_value=20000))
    @settings(max_examples=30, deadline=None)
    def test_frame_count_formula(self, n):
        feats = fe.extract_features(np.full(n, 0.05))
        assert feats.shape == (1 + (n - 400) // 160, 80)

    def test_filterbank_properties(self):
        fb = fe.mel_filterbank()
        assert fb.shape[0] == 80
        assert (fb >= 0).all()
        assert (fb.sum(axis=1) > 0).all()


class TestSpecAugment:
    def feats(self):
        return fe.extract_features(tone(1.5, freq=700.0))

    def test_zero_masks_identity(self):
        x = self.feats()
        policy = fe.SpecAugmentPolicy(num_freq_masks=0, num_time_masks=0)
        assert np.array_equal(fe.spec_augment(x, policy), x)

    def test_full_freq_mask(self):
        x = self.feats()
        # width sampled in [0, max]; force a deterministic full mask
        policy = fe.SpecAugmentPolicy(num_freq_masks=0, num_time_masks=0)
        out = x.copy()
        out[:, :] = x.mean()
        y = x.copy()
        y[:, 0:80] = x.mean()
        assert np.array_equal(out, y)

    def test_deterministic(self):
        x = self.feats()
        policy = fe.SpecAugmentPolicy(seed=42)
        a = fe.spec_augment(x, policy)
        b = fe.spec_augment(x, policy)
        assert np.array_equal(a, b)

    def test_shape_unchanged_and_untouched_outside_masks(self):
        x = self.feats()
        policy = fe.SpecAugmentPolicy(seed=1)
        y = fe.spec_augment(x, policy)
        assert y.shape == x.shape
        changed = y != x
        fill = x.mean()
        assert np.all(y[changed] == fill)

    def test_width_clamped_with_warning(self):
        x = self.feats()[:5]
        policy = fe.SpecAugmentPolicy(max_time_width=1000, seed=0)
        with pytest.warns(UserWarning, match="clamped"):
            fe.spec_augment(x, policy)


class TestSynthCorpus:
    def test_reproducible(self, tmp_path):
        spec = fe.CorpusSpec(num_utts=4, seed=7)
        e1, m1 = fe.synth_corpus(spec, tmp_path / "a")
        e2, m2 = fe.synth_corpus(spec, tmp_path / "b")
        assert [x.transcript for x in e1] == [x.transcript for x in e2]
        w1 = (tmp_path / "a" / "utt0000.wav").read_bytes()
        w2 = (tmp_path / "b" / "utt0000.wav").read_bytes()
        assert w1 == w2

    def test_duration_arithmetic(self, tmp_path):
        spec = fe.CorpusSpec(num_utts=1, min_tokens=5, max_tokens=5, seed=1)
        entries, _ = fe.synth_corpus(spec, tmp_path)
        assert entries[0].duration_s == 1.0

    def test_tones_classifiable(self, tmp_path):
        spec = fe.CorpusSpec(num_utts=6, seed=3)
        entries, _ = fe.synth_corpus(spec, tmp_path)
        inv = spec.token_inventory
        for e in entries:
            samples = fe.read_wav(e.audio)
            idx = fe.classify_tokens(samples, len(inv))
            assert " ".join(inv[i] for i in idx) == e.transcript

    def test_translation_is_token_remap(self, tmp_path):
        spec = fe.CorpusSpec(num_utts=3, seed=5)
        entries, _ = fe.synth_corpus(spec, tmp_path)
        for e in entries:
            assert len(e.transcript.split()) == len(e.translation.split())

    def test_empty_inventory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fe.synth_corpus(fe.CorpusSpec(num_utts=1, token_inventory=[]), tmp_path)
