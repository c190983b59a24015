import dataclasses
import json
import os

import pytest

from conformerst.cli import main
from conformerst.decoding import DecodeConfig
from conformerst.evaluation import xrtf_bench
from conformerst.frontend import FeatureCache
from conformerst.model import Model, load_checkpoint
from conformerst.textproc import Vocabulary
from conformerst.textproc import ManifestEntry, load_manifest, save_manifest

MODEL_FLAGS = ["--enc-layers", "2", "--dec-layers", "1", "--d-model", "16",
               "--heads", "2", "--d-ffn", "32", "--conv-kernel", "3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth-data", "--out", str(data), "--num-utts", "4",
                 "--min-tokens", "3", "--max-tokens", "4", "--seed", "3"]) == 0
    manifest = data / "manifest.jsonl"
    vocab = root / "vocab.json"
    assert main(["prepare", "--manifest", str(manifest), "--out", str(vocab)]) == 0
    return root, manifest, vocab


class TestPipeline:
    def test_synth_and_prepare_artifacts(self, workspace):
        root, manifest, vocab = workspace
        assert manifest.exists() and vocab.exists()
        assert len(load_manifest(manifest)) == 4
        assert (manifest.parent / "run.json").exists()

    def test_train_zero_steps(self, workspace, tmp_path):
        root, manifest, vocab = workspace
        out = tmp_path / "run0"
        code = main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(out), "--steps", "0", *MODEL_FLAGS])
        assert code == 0
        assert (out / "ckpt_000000.ckpt").exists()
        assert (out / "metrics.jsonl").read_text() == ""

    def test_train_decode_evaluate_average(self, workspace, tmp_path):
        root, manifest, vocab = workspace
        out = tmp_path / "run"
        assert main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(out), "--steps", "2", "--checkpoint-interval", "1",
                     *MODEL_FLAGS]) == 0
        ckpts = sorted(str(p) for p in out.glob("ckpt_*.ckpt"))
        assert len(ckpts) == 2

        avg = tmp_path / "avg.ckpt"
        assert main(["average", *ckpts, "--out", str(avg)]) == 0
        assert avg.exists()

        hyps = tmp_path / "hyps.jsonl"
        assert main(["decode", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--checkpoint", str(avg), "--out", str(hyps), "--task", "ASR",
                     "--beam", "2"]) == 0
        lines = [json.loads(l) for l in hyps.read_text().splitlines()]
        assert len(lines) == 4 and all("hyp" in l for l in lines)

        assert main(["evaluate", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--checkpoint", str(avg), "--task", "ASR",
                     "--hyps", str(hyps)]) == 0

    def test_evaluate_prints_a_perfect_wer(self, workspace, tmp_path, capsys):
        root, manifest, vocab = workspace
        out = tmp_path / "run0"
        assert main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(out), "--steps", "0", *MODEL_FLAGS]) == 0
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text("".join(json.dumps({"hyp": e.transcript}) + "\n"
                                for e in load_manifest(manifest)))
        capsys.readouterr()
        assert main(["evaluate", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--checkpoint", str(out / "ckpt_000000.ckpt"), "--task", "ASR",
                     "--hyps", str(hyps)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["wer", "0.0"] in rows and ["substitutions", "0"] in rows

    def test_decode_and_bench_give_the_same_texts(self, workspace, tmp_path):
        root, manifest, vocab = workspace
        out = tmp_path / "run0"
        assert main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(out), "--steps", "0", *MODEL_FLAGS]) == 0
        ckpt = out / "ckpt_000000.ckpt"
        hyps = tmp_path / "hyps.jsonl"
        assert main(["decode", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--checkpoint", str(ckpt), "--out", str(hyps), "--task", "ST",
                     "--beam", "2"]) == 0
        decoded = [json.loads(l)["hyp"] for l in hyps.read_text().splitlines()]

        arrays, config, _, _ = load_checkpoint(ckpt)
        model = Model(config)
        model.load_state(arrays)
        _, benched = xrtf_bench(model, Vocabulary.load(vocab), load_manifest(manifest),
                                FeatureCache(), batch_size=3, cfg=DecodeConfig(beam=2),
                                task="ST")
        assert benched == decoded

    def test_decode_default_flags_recorded(self, workspace, tmp_path):
        root, manifest, vocab = workspace
        out = tmp_path / "run0"
        main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
              "--out", str(out), "--steps", "0", *MODEL_FLAGS])
        hyps = tmp_path / "dec" / "hyps.jsonl"
        assert main(["decode", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--checkpoint", str(out / "ckpt_000000.ckpt"),
                     "--out", str(hyps), "--task", "ASR"]) == 0
        rec = json.loads((hyps.parent / "run.json").read_text())
        assert rec["beam"] == 5
        assert rec["ctc_weight"] == 0.2
        assert rec["no_repeat_ngram"] == 5
        assert rec["unk_penalty"] == 10_000.0


class TestFilter:
    def test_filter_reports_removed(self, tmp_path, capsys):
        entries = []
        for i in range(10):
            ratio_ok = i < 9
            entries.append(ManifestEntry(
                audio=f"u{i}.wav", duration_s=1.0, src_lang="en",
                transcript="abcdefgh" if ratio_ok else "a" * 40,
                translation="abcdefgh", tgt_lang="it"))
        src = tmp_path / "m.jsonl"
        save_manifest(entries, src)
        out = tmp_path / "filtered.jsonl"
        assert main(["filter", "--manifest", str(src), "--out", str(out),
                     "--rmin", "0.75", "--rmax", "1.45"]) == 0
        assert len(load_manifest(out)) == 9
        assert "removed 1" in capsys.readouterr().out

    def test_default_bounds_follow_direction(self, tmp_path):
        # ratio 1.4: inside en-it's [0.75, 1.45], outside it-en's [0.65, 1.35]
        src = tmp_path / "m.jsonl"
        save_manifest([ManifestEntry(audio="u.wav", duration_s=1.0, src_lang="it",
                                     transcript="a" * 14, translation="a" * 10,
                                     tgt_lang="en")], src)
        for direction, kept, bounds in (("en-it", 1, [0.75, 1.45]), ("it-en", 0, [0.65, 1.35])):
            out = tmp_path / direction / "filtered.jsonl"
            assert main(["filter", "--manifest", str(src), "--out", str(out),
                         "--direction", direction]) == 0
            assert len(load_manifest(out)) == kept
            rec = json.loads((out.parent / "run.json").read_text())
            assert [rec["rmin"], rec["rmax"]] == bounds


class TestErrors:
    def test_missing_manifest_names_path(self, capsys):
        assert main(["prepare", "--manifest", "/no/such/file.jsonl"]) == 1
        assert "/no/such/file.jsonl" in capsys.readouterr().err

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as e:
            main(["synth-data", "--bogus", "1"])
        assert e.value.code != 0

    def test_evaluate_st_without_translations(self, workspace, tmp_path, capsys):
        root, manifest, vocab = workspace
        out = tmp_path / "run0"
        assert main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(out), "--steps", "0", *MODEL_FLAGS]) == 0
        entries = [dataclasses.replace(e, translation=None, tgt_lang=None)
                   for e in load_manifest(manifest)]
        bare = tmp_path / "asr_only.jsonl"
        save_manifest(entries, bare)
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text("".join(json.dumps({"hyp": "ab"}) + "\n" for _ in entries))
        capsys.readouterr()
        assert main(["evaluate", "--manifest", str(bare), "--vocab", str(vocab),
                     "--checkpoint", str(out / "ckpt_000000.ckpt"), "--task", "ST",
                     "--hyps", str(hyps)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no translation" in err

    def test_train_zero_heads(self, workspace, tmp_path, capsys):
        root, manifest, vocab = workspace
        capsys.readouterr()
        assert main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(tmp_path), "--steps", "0", *MODEL_FLAGS, "--heads", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "heads" in err

    @pytest.mark.parametrize("flag, value, field", [
        ("--steps", "-3", "max_steps"),
        ("--batch-tokens", "0", "batch_tokens"),
        ("--checkpoint-interval", "0", "checkpoint_interval"),
        ("--warmup", "0", "warmup_steps"),
    ])
    def test_train_override_validated(self, workspace, tmp_path, capsys, flag, value, field):
        root, manifest, vocab = workspace
        capsys.readouterr()
        assert main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(tmp_path), "--steps", "2", flag, value, *MODEL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not list(tmp_path.glob("ckpt_*.ckpt"))

    def test_bench_zero_batch_size(self, workspace, tmp_path, capsys):
        root, manifest, vocab = workspace
        out = tmp_path / "run0"
        assert main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(out), "--steps", "0", *MODEL_FLAGS]) == 0
        capsys.readouterr()
        assert main(["bench", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--checkpoint", str(out / "ckpt_000000.ckpt"),
                     "--batch-size", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "batch_size" in err

    def test_decode_negative_ngram(self, workspace, tmp_path, capsys):
        root, manifest, vocab = workspace
        out = tmp_path / "run0"
        assert main(["train", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--out", str(out), "--steps", "0", *MODEL_FLAGS]) == 0
        capsys.readouterr()
        hyps = tmp_path / "hyps.jsonl"
        assert main(["decode", "--manifest", str(manifest), "--vocab", str(vocab),
                     "--checkpoint", str(out / "ckpt_000000.ckpt"), "--out", str(hyps),
                     "--no-repeat-ngram", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no_repeat_ngram" in err
        assert not hyps.exists()

    def test_output_dir_env_var(self, workspace, tmp_path, monkeypatch):
        root, manifest, vocab = workspace
        monkeypatch.setenv("CONFORMERST_OUTPUT_DIR", str(tmp_path))
        # parser defaults are bound at construction, so go through main fresh
        assert main(["prepare", "--manifest", str(manifest)]) == 0
        assert (tmp_path / "vocab.json").exists()
