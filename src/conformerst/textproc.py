"""Vocabulary, character tokenization with language tokens, text
normalization, manifest I/O, and the source/target length-ratio filter."""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field, asdict

BLANK = "<blank>"
PAD = "<pad>"
UNK = "<unk>"
BOS = "<bos>"
EOS = "<eos>"
LANG_TOKENS = {"en": "<lang:en>", "it": "<lang:it>"}
SPECIALS = [BLANK, PAD, UNK, BOS, EOS, LANG_TOKENS["en"], LANG_TOKENS["it"]]
LANGS = ("en", "it")


@dataclass
class Vocabulary:
    """Dense token<->id map; specials occupy the lowest ids, blank is id 0."""

    tokens: list

    def __post_init__(self):
        if self.tokens[: len(SPECIALS)] != SPECIALS:
            raise ValueError("vocabulary must start with the reserved special tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self._ids = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    @property
    def blank_id(self):
        return 0

    @property
    def pad_id(self):
        return self._ids[PAD]

    @property
    def unk_id(self):
        return self._ids[UNK]

    @property
    def bos_id(self):
        return self._ids[BOS]

    @property
    def eos_id(self):
        return self._ids[EOS]

    def lang_id(self, lang: str) -> int:
        if lang not in LANG_TOKENS:
            raise ValueError(f"unknown language {lang!r}; expected one of {LANGS}")
        return self._ids[LANG_TOKENS[lang]]

    def id(self, token: str) -> int:
        return self._ids.get(token, self.unk_id)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"tokens": self.tokens}, f, ensure_ascii=False)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls(json.load(f)["tokens"])


def build_vocab(corpus) -> Vocabulary:
    """Specials plus the sorted distinct characters of all corpus strings."""
    chars = set()
    empty = True
    for text in corpus:
        if text is None:
            continue
        empty = False
        chars.update(text)
    if empty:
        raise ValueError("build_vocab: empty corpus")
    return Vocabulary(SPECIALS + sorted(chars))


def encode(text: str, lang: str, vocab: Vocabulary) -> list:
    """[bos, <lang:lang>, chars..., eos]; unknown characters map to unk."""
    return (
        [vocab.bos_id, vocab.lang_id(lang)]
        + [vocab.id(c) for c in text]
        + [vocab.eos_id]
    )


def encode_text(text: str, vocab: Vocabulary) -> list:
    """Bare text tokens (CTC targets): characters only, no specials."""
    return [vocab.id(c) for c in text]


def decode(ids, vocab: Vocabulary) -> str:
    """Inverse of encode: strips structural specials, keeps a visible <unk>."""
    out = []
    structural = {vocab.bos_id, vocab.eos_id, vocab.pad_id, vocab.blank_id,
                  vocab.lang_id("en"), vocab.lang_id("it")}
    for i in ids:
        i = int(i)
        if i in structural:
            continue
        out.append(vocab.tokens[i])
    return "".join(out)


def normalize_text(s: str) -> str:
    """Lowercase, strip unicode punctuation, collapse whitespace."""
    s = s.lower()
    s = "".join(" " if unicodedata.category(c).startswith("P") else c for c in s)
    return " ".join(s.split())


@dataclass
class ManifestEntry:
    audio: str
    duration_s: float
    src_lang: str
    transcript: str
    translation: str | None = None
    tgt_lang: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.src_lang not in LANGS:
            raise ValueError(f"src_lang must be one of {LANGS}, got {self.src_lang!r}")
        if (self.translation is None) != (self.tgt_lang is None):
            raise ValueError("translation and tgt_lang must be present together")
        if self.tgt_lang is not None and self.tgt_lang == self.src_lang:
            raise ValueError("tgt_lang must differ from src_lang")

    def to_json(self) -> str:
        d = {k: v for k, v in asdict(self).items() if k != "extra" and v is not None}
        d.update(self.extra)
        return json.dumps(d, ensure_ascii=False)

    @classmethod
    def from_dict(cls, d: dict):
        known = {"audio", "duration_s", "src_lang", "transcript", "translation", "tgt_lang"}
        missing = {"audio", "duration_s", "src_lang", "transcript"} - d.keys()
        if missing:
            raise ValueError(f"missing required field(s): {sorted(missing)}")
        extra = {k: v for k, v in d.items() if k not in known}
        return cls(
            audio=d["audio"],
            duration_s=float(d["duration_s"]),
            src_lang=d["src_lang"],
            transcript=d["transcript"],
            translation=d.get("translation"),
            tgt_lang=d.get("tgt_lang"),
            extra=extra,
        )


def task_fields(entry: ManifestEntry, task: str) -> tuple:
    """(reference text, language) that `task` decodes an entry into."""
    if task == "ASR":
        return entry.transcript, entry.src_lang
    if task == "ST":
        if entry.translation is None:
            raise ValueError(f"entry {entry.audio} has no translation and target language "
                             f"for ST")
        return entry.translation, entry.tgt_lang
    raise ValueError(f"unknown task {task!r}")


def load_manifest(path) -> list:
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(ManifestEntry.from_dict(json.loads(line)))
            except (json.JSONDecodeError, ValueError, TypeError) as e:
                raise ValueError(f"{path}: malformed manifest line {lineno}: {e}") from e
    return entries


def save_manifest(entries, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for e in entries:
            f.write(e.to_json() + "\n")


@dataclass
class FilterBounds:
    r_min: float
    r_max: float

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got ({self.r_min}, {self.r_max})")


# character-ratio bounds per language pair (source/target length distributions)
DEFAULT_BOUNDS = {
    "en-it": FilterBounds(0.75, 1.45),
    "it-en": FilterBounds(0.65, 1.35),
}


@dataclass
class FilterReport:
    kept: int
    removed: int
    empty_translation: int

    @property
    def total(self):
        return self.kept + self.removed + self.empty_translation

    @property
    def removed_fraction(self):
        return (self.removed + self.empty_translation) / self.total if self.total else 0.0


def ratio_filter(entries, bounds: FilterBounds):
    """Keep entries whose transcript/translation character-length ratio lies
    inside [r_min, r_max]. Ratios are measured on raw text."""
    kept, removed, empty = [], [], 0
    for e in entries:
        if e.translation is None:
            raise ValueError(f"ratio_filter: entry {e.audio!r} has no translation")
        if len(e.translation) == 0:
            empty += 1
            continue
        r = len(e.transcript) / len(e.translation)
        if bounds.r_min <= r <= bounds.r_max:
            kept.append(e)
        else:
            removed.append(e)
    return kept, FilterReport(kept=len(kept), removed=len(removed), empty_translation=empty)
