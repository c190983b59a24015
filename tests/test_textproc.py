import pytest
from hypothesis import given, strategies as st

from conformerst.textproc import (
    DEFAULT_BOUNDS,
    FilterBounds,
    LANGS,
    ManifestEntry,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    encode_text,
    load_manifest,
    normalize_text,
    ratio_filter,
    save_manifest,
    SPECIALS,
)


class TestVocabulary:
    def test_build_from_small_corpus(self):
        v = build_vocab(["ab", "ba"])
        assert len(v) == len(SPECIALS) + 2
        assert v.tokens[len(SPECIALS):] == ["a", "b"]

    def test_deterministic(self):
        assert build_vocab(["ab", "ba"]).tokens == build_vocab(["ba", "ab"]).tokens

    def test_unicode_char_is_one_token(self):
        v = build_vocab(["à"])
        assert "à" in v.tokens

    def test_blank_is_id_zero(self):
        v = build_vocab(["x"])
        assert v.blank_id == 0 and v.tokens[0] == "<blank>"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_specials_must_lead(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b"])

    def test_specials_are_fixed(self):
        # saved vocabularies, the decode fixture's among them, start with this list
        assert SPECIALS == ["<blank>", "<pad>", "<unk>", "<bos>", "<eos>", "<lang:en>",
                            "<lang:it>"]

    def test_save_load_roundtrip(self, tmp_path):
        v = build_vocab(["hello à"])
        p = tmp_path / "vocab.json"
        v.save(p)
        assert Vocabulary.load(p).tokens == v.tokens


class TestEncode:
    def test_structure(self):
        v = build_vocab(["ab"])
        ids = encode("ab", "en", v)
        assert ids == [v.bos_id, v.lang_id("en"), v.id("a"), v.id("b"), v.eos_id]

    def test_empty_text(self):
        v = build_vocab(["ab"])
        assert encode("", "it", v) == [v.bos_id, v.lang_id("it"), v.eos_id]

    def test_decode_strips_every_language_tag(self):
        v = build_vocab(["ab"])
        assert decode([v.lang_id(lang) for lang in LANGS] + [v.id("a")], v) == "a"

    def test_unknown_char_maps_to_unk(self):
        v = build_vocab(["ab"])
        ids = encode("aZb", "en", v)
        assert ids[3] == v.unk_id
        assert decode(ids, v) == "a<unk>b"

    def test_roundtrip(self):
        v = build_vocab(["the quick brown fox"])
        for s in ["fox the", "quick quick", ""]:
            assert decode(encode(s, "en", v), v) == s

    def test_encode_text_has_no_specials(self):
        v = build_vocab(["ab"])
        assert encode_text("ab", v) == [v.id("a"), v.id("b")]

    def test_bad_lang(self):
        v = build_vocab(["a"])
        with pytest.raises(ValueError):
            encode("a", "fr", v)


class TestNormalize:
    def test_basic(self):
        assert normalize_text("Hello, World!") == "hello world"

    def test_whitespace_collapse(self):
        assert normalize_text("  a   b ") == "a b"

    @given(st.text(max_size=80))
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once
        assert "  " not in once


class TestManifest:
    def entry(self, **kw):
        base = dict(audio="a.wav", duration_s=1.0, src_lang="en", transcript="hi",
                    translation="ciao", tgt_lang="it")
        base.update(kw)
        return ManifestEntry(**base)

    def test_roundtrip(self, tmp_path):
        entries = [self.entry(), self.entry(audio="b.wav", translation=None, tgt_lang=None)]
        p = tmp_path / "m.jsonl"
        save_manifest(entries, p)
        loaded = load_manifest(p)
        assert loaded == entries

    def test_unknown_keys_preserved(self, tmp_path):
        e = self.entry()
        e.extra["speaker"] = "s1"
        p = tmp_path / "m.jsonl"
        save_manifest([e], p)
        assert load_manifest(p)[0].extra == {"speaker": "s1"}

    def test_negative_duration_names_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        good = self.entry().to_json()
        p.write_text(good + "\n" + good.replace("1.0", "-1.0") + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_manifest(p)

    def test_missing_field_named(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"audio": "a.wav"}\n')
        with pytest.raises(ValueError, match="duration_s"):
            load_manifest(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("")
        assert load_manifest(p) == []

    def test_translation_implies_tgt_lang(self):
        with pytest.raises(ValueError):
            self.entry(tgt_lang=None)

    def test_tgt_lang_differs(self):
        with pytest.raises(ValueError):
            self.entry(tgt_lang="en")


class TestRatioFilter:
    def entry(self, nsrc, ntgt, i=0):
        return ManifestEntry(
            audio=f"{i}.wav", duration_s=1.0, src_lang="en",
            transcript="x" * nsrc, translation="y" * ntgt, tgt_lang="it",
        )

    def test_kept_at_ratio_one(self):
        kept, rep = ratio_filter([self.entry(100, 100)], DEFAULT_BOUNDS["en-it"])
        assert rep.kept == 1 and rep.removed == 0

    def test_removed_below_rmin(self):
        kept, rep = ratio_filter([self.entry(60, 100)], DEFAULT_BOUNDS["en-it"])
        assert rep.kept == 0 and rep.removed == 1

    def test_constructed_fraction(self):
        entries = [self.entry(100, 100, i) for i in range(966)]
        entries += [self.entry(200, 100, 1000 + i) for i in range(34)]
        kept, rep = ratio_filter(entries, DEFAULT_BOUNDS["en-it"])
        assert rep.removed == 34
        assert abs(rep.removed_fraction - 0.034) < 1e-12

    def test_idempotent_and_order_preserving(self):
        entries = [self.entry(100 + i, 100, i) for i in range(50)]
        kept, _ = ratio_filter(entries, DEFAULT_BOUNDS["en-it"])
        kept2, rep2 = ratio_filter(kept, DEFAULT_BOUNDS["en-it"])
        assert kept2 == kept and rep2.removed == 0
        assert [e.audio for e in kept] == [e.audio for e in entries if e in kept]

    def test_empty_translation_counted_separately(self):
        entries = [self.entry(100, 100), self.entry(10, 0)]
        kept, rep = ratio_filter(entries, DEFAULT_BOUNDS["en-it"])
        assert rep.empty_translation == 1 and rep.kept == 1

    def test_missing_translation_rejected(self):
        e = ManifestEntry(audio="a.wav", duration_s=1.0, src_lang="en", transcript="x")
        with pytest.raises(ValueError):
            ratio_filter([e], DEFAULT_BOUNDS["en-it"])

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            FilterBounds(1.5, 0.7)

    def test_it_en_bounds(self):
        b = DEFAULT_BOUNDS["it-en"]
        assert (b.r_min, b.r_max) == (0.65, 1.35)
