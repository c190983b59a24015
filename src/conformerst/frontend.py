"""Audio ingestion and features: WAV I/O, log-mel filterbanks, SpecAugment,
and the synthetic tone-word corpus used for desk-scale experiments."""

from __future__ import annotations

import os
import wave
import warnings
from dataclasses import dataclass, field

import numpy as np

from .textproc import ManifestEntry, save_manifest

SAMPLE_RATE = 16000
FRAME_LEN = 400  # 25 ms
FRAME_SHIFT = 160  # 10 ms
NUM_MELS = 80
LOG_FLOOR = 1e-10
TOKEN_DUR_S = 0.2


# ---------------------------------------------------------------------------
# WAV I/O (PCM 16-bit LE, mono, 16 kHz only; no resampling)
# ---------------------------------------------------------------------------


def read_wav(path) -> np.ndarray:
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got {w.getnchannels()} channels")
        if w.getframerate() != SAMPLE_RATE:
            raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {w.getframerate()}")
        if w.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
        raw = w.readframes(w.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def write_wav(path, samples: np.ndarray) -> None:
    pcm = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# log-mel features
# ---------------------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank():
    """Triangular mel filters over [0, Nyquist]; rows NUM_MELS x (FRAME_LEN//2+1)."""
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), NUM_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    bins = np.fft.rfftfreq(FRAME_LEN, d=1.0 / SAMPLE_RATE)
    fb = np.zeros((NUM_MELS, len(bins)))
    for i in range(NUM_MELS):
        lo, mid, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (bins - lo) / (mid - lo)
        down = (hi - bins) / (hi - mid)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb


_FILTERBANK = None


def _filterbank():
    global _FILTERBANK
    if _FILTERBANK is None:
        _FILTERBANK = mel_filterbank()
    return _FILTERBANK


def num_frames(num_samples: int) -> int:
    return 1 + (num_samples - FRAME_LEN) // FRAME_SHIFT


def extract_features(segment) -> np.ndarray:
    """T x 80 log-mel energies (Hann window, power spectrum, natural log)."""
    samples = np.asarray(segment)
    if len(samples) < FRAME_LEN:
        raise ValueError(
            f"segment too short for feature extraction: {len(samples)} samples, "
            f"minimum is one {FRAME_LEN}-sample window"
        )
    t = num_frames(len(samples))
    idx = np.arange(t)[:, None] * FRAME_SHIFT + np.arange(FRAME_LEN)[None, :]
    frames = samples[idx]
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
    spec = np.fft.rfft(frames * window, axis=1)
    power = spec.real**2 + spec.imag**2
    mel = power @ _filterbank().T
    return np.log(np.maximum(mel, LOG_FLOOR))


# ---------------------------------------------------------------------------
# SpecAugment
# ---------------------------------------------------------------------------


@dataclass
class SpecAugmentPolicy:
    num_freq_masks: int = 2
    max_freq_width: int = 27
    num_time_masks: int = 2
    max_time_width: int = 100
    seed: int = 0


def spec_augment(features: np.ndarray, policy: SpecAugmentPolicy) -> np.ndarray:
    """Mask random frequency bands and time spans with the utterance mean."""
    t, f = features.shape
    max_fw = policy.max_freq_width
    max_tw = policy.max_time_width
    if max_fw > f:
        warnings.warn(f"spec_augment: freq width {max_fw} clamped to {f} bins")
        max_fw = f
    if max_tw > t:
        warnings.warn(f"spec_augment: time width {max_tw} clamped to {t} frames")
        max_tw = t
    rng = np.random.default_rng(policy.seed)
    out = features.copy()
    fill = features.mean()
    for _ in range(policy.num_freq_masks):
        width = int(rng.integers(0, max_fw + 1))
        start = int(rng.integers(0, f - width + 1))
        out[:, start : start + width] = fill
    for _ in range(policy.num_time_masks):
        width = int(rng.integers(0, max_tw + 1))
        start = int(rng.integers(0, t - width + 1))
        out[start : start + width, :] = fill
    return out


# ---------------------------------------------------------------------------
# synthetic tone-word corpus
# ---------------------------------------------------------------------------

SOURCE_WORDS = ["ba", "de", "ki", "mo", "ru", "sa", "te", "vi", "no", "lu",
                "pe", "go", "fa", "zi", "me", "du"]
TARGET_WORDS = ["ol", "ym", "ax", "ur", "ec", "iv", "os", "an", "ek", "uz",
                "ip", "oy", "eb", "ag", "uf", "yd"]


def token_frequency(index: int) -> float:
    """Distinct base frequency per pseudo-word, well separated for FFT picks."""
    return 400.0 + 150.0 * index


@dataclass
class CorpusSpec:
    num_utts: int
    token_inventory: list = field(default_factory=lambda: SOURCE_WORDS[:8])
    min_tokens: int = 3
    max_tokens: int = 8
    seed: int = 0
    src_lang: str = "en"
    tgt_lang: str = "it"


def render_tokens(token_indices) -> np.ndarray:
    """Concatenate 0.2 s tones, one per token, with short fade ramps."""
    n = int(TOKEN_DUR_S * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    ramp = np.ones(n)
    edge = int(0.005 * SAMPLE_RATE)
    ramp[:edge] = np.linspace(0.0, 1.0, edge)
    ramp[-edge:] = np.linspace(1.0, 0.0, edge)
    pieces = [0.3 * np.sin(2 * np.pi * token_frequency(i) * t) * ramp for i in token_indices]
    return np.concatenate(pieces)


def classify_tokens(samples: np.ndarray, inventory_size: int) -> list:
    """Oracle inverse of render_tokens: per-slice FFT peak -> nearest token."""
    n = int(TOKEN_DUR_S * SAMPLE_RATE)
    freqs = np.array([token_frequency(i) for i in range(inventory_size)])
    out = []
    for k in range(len(samples) // n):
        chunk = samples[k * n : (k + 1) * n]
        spec = np.abs(np.fft.rfft(chunk))
        peak_hz = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)[np.argmax(spec)]
        out.append(int(np.argmin(np.abs(freqs - peak_hz))))
    return out


def synth_corpus(spec: CorpusSpec, out_dir):
    """Generate WAV files plus a manifest; fully reproducible from the seed.

    The translation is a fixed per-token remapping of the source inventory
    into a disjoint target inventory, so the translation task is exactly
    learnable and measurable without human references.
    """
    if not spec.token_inventory:
        raise ValueError("synth_corpus: empty token inventory")
    if len(spec.token_inventory) > len(TARGET_WORDS):
        raise ValueError(f"synth_corpus: inventory larger than {len(TARGET_WORDS)} is unsupported")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    translation_of = {w: TARGET_WORDS[i] for i, w in enumerate(spec.token_inventory)}
    entries = []
    for u in range(spec.num_utts):
        count = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        idx = rng.integers(0, len(spec.token_inventory), size=count).tolist()
        samples = render_tokens(idx)
        path = os.path.join(out_dir, f"utt{u:04d}.wav")
        write_wav(path, samples)
        words = [spec.token_inventory[i] for i in idx]
        entries.append(
            ManifestEntry(
                audio=path,
                duration_s=round(count * TOKEN_DUR_S, 6),
                src_lang=spec.src_lang,
                transcript=" ".join(words),
                translation=" ".join(translation_of[w] for w in words),
                tgt_lang=spec.tgt_lang,
            )
        )
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    save_manifest(entries, manifest_path)
    return entries, manifest_path

class FeatureCache:
    """Lazily extracts and memoizes log-mel features for manifest entries."""

    def __init__(self, root=None):
        self.root = root
        self._store = {}

    def resolve(self, entry) -> str:
        path = entry.audio
        if self.root is not None and not os.path.isabs(path):
            candidate = os.path.join(self.root, path)
            if os.path.exists(candidate):
                return candidate
        return path

    def __call__(self, entry) -> np.ndarray:
        path = self.resolve(entry)
        if path not in self._store:
            if not os.path.exists(path):
                raise FileNotFoundError(f"audio file not found: {path}")
            self._store[path] = extract_features(read_wav(path))
        return self._store[path]
