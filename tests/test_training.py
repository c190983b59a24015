import dataclasses
import json
import math

import numpy as np
import pytest

from conformerst import numcore as nc
from conformerst.frontend import CorpusSpec, FeatureCache, synth_corpus
from conformerst.losses import LossWeights, combined_loss, loss_total
from conformerst.model import Model, ModelConfig, load_checkpoint, save_checkpoint, subsampled_length
from conformerst.textproc import build_vocab, encode_text
from conformerst.training import (
    AdamW,
    OptimizerConfig,
    StageConfig,
    average_checkpoints,
    clip_grad_norm,
    forgetting_probe,
    forward_batch,
    load_stage_config,
    make_batches,
    noam_lr,
    piecewise_noam_lr,
    sample_task,
    train_stage,
)


class TestNoam:
    def test_peak_value(self):
        assert abs(noam_lr(25_000, 2e-3, 25_000) - 2e-3) / 2e-3 <= 1e-12

    def test_linear_half(self):
        assert abs(noam_lr(12_500, 2e-3, 25_000) - 1e-3) / 1e-3 <= 1e-12

    def test_inverse_sqrt_tail(self):
        want = 2e-3 * math.sqrt(25_000 / 100_000)
        assert abs(noam_lr(100_000, 2e-3, 25_000) - want) / want <= 1e-12

    def test_shape(self):
        vals = [noam_lr(s, 2e-3, 100) for s in range(1, 401)]
        assert vals[:100] == sorted(vals[:100])
        assert vals[99:] == sorted(vals[99:], reverse=True)
        assert abs(vals[99] - 2e-3) <= 1e-15

    def test_bad_args(self):
        with pytest.raises(ValueError, match="warmup"):
            noam_lr(1, 2e-3, 0)
        with pytest.raises(ValueError, match="step"):
            noam_lr(0, 2e-3, 100)


class TestPiecewiseNoam:
    def test_reference_points(self):
        assert abs(piecewise_noam_lr(25_000) - 2e-5) / 2e-5 <= 1e-12
        assert abs(piecewise_noam_lr(50_000) - 2e-4) / 2e-4 <= 1e-12
        want = 2e-4 * math.sqrt(50_000 / 200_000)
        assert abs(piecewise_noam_lr(200_000) - want) / want <= 1e-12

    def test_continuity_at_knees(self):
        for knee in (25_000, 50_000):
            assert abs(piecewise_noam_lr(knee + 1) - piecewise_noam_lr(knee)) <= 1e-8


class TestAdamW:
    def test_first_step_hand_value(self):
        opt = AdamW(OptimizerConfig())
        p = np.array([1.0])
        opt.step(p, np.array([1.0]), lr=0.1)
        # theta' = 1*(1 - 0.1*0.001) - 0.1 * m_hat/(sqrt(v_hat)+eps), m_hat=v_hat=1
        want = 1.0 * (1 - 0.1 * 0.001) - 0.1 * (1.0 / (1.0 + 1e-8))
        assert abs(p[0] - want) <= 1e-12

    def test_zero_grad_zero_decay_is_identity(self):
        opt = AdamW(OptimizerConfig(weight_decay=0.0))
        p = np.array([1.5, -2.0])
        opt.step(p, np.zeros(2), lr=0.1)
        assert np.array_equal(p, [1.5, -2.0])

    def test_nonfinite_grads_skip_without_state_damage(self):
        opt = AdamW()
        p = np.array([1.0])
        opt.step(p, np.array([0.5]), lr=0.01)
        snap = (p.copy(), opt.m.copy(), opt.v.copy(), opt.t)
        applied = opt.step(p, np.array([np.nan]), lr=0.01)
        assert not applied and opt.skipped == 1
        assert np.array_equal(p, snap[0])
        assert np.array_equal(opt.m, snap[1])
        assert np.array_equal(opt.v, snap[2])
        assert opt.t == snap[3]

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            opt = AdamW()
            p = np.linspace(-1, 1, 5)
            rng = np.random.default_rng(0)
            for _ in range(10):
                opt.step(p, rng.standard_normal(5), lr=0.01)
            runs.append(p)
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_update_matches_per_array_reference(self, dtype):
        """The flat update is bit-identical to the per-array formula."""
        o = OptimizerConfig()
        shapes = [(3, 4), (4,), (2, 3, 5), (1,)]
        sizes = [math.prod(s) for s in shapes]
        cuts = np.cumsum(sizes)[:-1]
        rng = np.random.default_rng(4)
        flat = rng.standard_normal(sum(sizes)).astype(dtype)
        ref = [a.reshape(s).copy() for a, s in zip(np.split(flat, cuts), shapes)]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        ref_t = 0
        opt = AdamW(o)
        for step in range(6):
            g = (rng.standard_normal(flat.size) * 3).astype(dtype)
            if step == 2:
                g[5] = np.inf
            lr = 1e-3 * (step + 1)
            gs = [a.reshape(s) for a, s in zip(np.split(g, cuts), shapes)]
            if all(np.all(np.isfinite(x)) for x in gs):
                ref_t += 1
                bc1 = 1.0 - o.beta1**ref_t
                bc2 = 1.0 - o.beta2**ref_t
                for i, x in enumerate(gs):
                    ref_m[i] = o.beta1 * ref_m[i] + (1 - o.beta1) * x
                    ref_v[i] = o.beta2 * ref_v[i] + (1 - o.beta2) * x * x
                    m_hat = ref_m[i] / bc1
                    v_hat = ref_v[i] / bc2
                    ref[i] *= 1.0 - lr * o.weight_decay
                    ref[i] -= lr * m_hat / (np.sqrt(v_hat) + o.eps)
            assert opt.step(flat, g, lr) == (step != 2)
            assert flat.dtype == dtype and opt.m.dtype == dtype
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in ref]))
            assert np.array_equal(opt.m, np.concatenate([a.ravel() for a in ref_m]))
            assert np.array_equal(opt.v, np.concatenate([a.ravel() for a in ref_v]))
        assert opt.t == ref_t == 5 and opt.skipped == 1


class TestClip:
    def test_scales_large_norm(self):
        g = np.array([12.0, 16.0])  # norm 20
        norm = clip_grad_norm(g, 10.0)
        assert norm == pytest.approx(20.0)
        assert math.sqrt(float((g * g).sum())) == pytest.approx(10.0)

    def test_small_norm_unchanged(self):
        g = np.array([3.0, 4.0])  # norm 5
        assert clip_grad_norm(g, 10.0) == pytest.approx(5.0)
        assert np.array_equal(g, [3.0, 4.0])

    def test_zero_grads(self):
        g = np.zeros(3)
        assert clip_grad_norm(g, 10.0) == 0.0
        assert np.array_equal(g, np.zeros(3))


class TestSampleTask:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        assert all(sample_task(rng, 1.0) == "ASR" for _ in range(50))
        assert all(sample_task(rng, 0.0) == "ST" for _ in range(50))

    def test_balanced_fraction(self):
        rng = np.random.default_rng(7)
        frac = sum(sample_task(rng, 0.5) == "ASR" for _ in range(10_000)) / 10_000
        assert 0.48 <= frac <= 0.52


class TestStageConfig:
    def test_constant_schedule_requires_stage_two(self):
        with pytest.raises(ValueError, match="constant"):
            StageConfig(stage="ASR-pretrain", schedule="constant")
        with pytest.raises(ValueError, match="constant"):
            StageConfig(stage="ASR+ST", schedule="noam")
        StageConfig(stage="ASR+ST", schedule="constant")  # valid

    @pytest.mark.parametrize("field", ["checkpoint_interval", "warmup_steps"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_interval_or_warmup_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} >= 1"):
            StageConfig(**{field: value})

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"stage": "ASR-pretrain", "momentum": 0.9}))
        with pytest.raises(ValueError, match="momentum"):
            load_stage_config(p)

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"stage": "ASR+ST", "schedule": "constant",
                                 "lr_const": 1e-4, "max_steps": 10}))
        cfg = load_stage_config(p)
        assert cfg.lr_at(1) == 1e-4 and cfg.max_steps == 10


def tiny_model(vocab, seed=0, dropout=0.1, dtype="float32"):
    cfg = ModelConfig(vocab_size=len(vocab), enc_layers=2, dec_layers=1,
                      d_model=16, heads=2, d_ffn=32, conv_kernel=3, dropout=dropout,
                      dtype=dtype)
    return Model(cfg, seed=seed)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec(num_utts=6, min_tokens=3, max_tokens=3, seed=11)
    entries, _ = synth_corpus(spec, root)
    texts = [e.transcript for e in entries] + [e.translation for e in entries]
    return entries, build_vocab(texts)


class TestTrainStage:
    def test_checkpoints_and_metrics_schedule(self, corpus, tmp_path):
        entries, vocab = corpus
        # the last step is saved also when the interval does not divide it
        for max_steps, saved in ((4, [2, 4]), (5, [2, 4, 5])):
            out = tmp_path / f"steps{max_steps}"
            cfg = StageConfig(max_steps=max_steps, checkpoint_interval=2, batch_tokens=40,
                              seed=1)
            final, metrics = train_stage(entries, tiny_model(vocab), vocab, cfg, out)
            assert sorted(p.name for p in out.glob("ckpt_*.ckpt")) == [
                f"ckpt_{s:06d}.ckpt" for s in saved]
            assert final == str(out / f"ckpt_{max_steps:06d}.ckpt")
            lines = [json.loads(l) for l in open(metrics)]
            assert [l["step"] for l in lines] == list(range(1, max_steps + 1))
            for key in ("lr", "ce", "ctc_src", "ctc_tgt", "total", "grad_norm", "wall_ms"):
                assert key in lines[0]

    def test_zero_steps_emits_initial_checkpoint(self, corpus, tmp_path):
        entries, vocab = corpus
        model = tiny_model(vocab)
        cfg = StageConfig(max_steps=0)
        final, metrics = train_stage(entries, model, vocab, cfg, tmp_path)
        assert final.endswith("ckpt_000000.ckpt")
        assert open(metrics).read() == ""

    def test_empty_manifest_rejected(self, corpus, tmp_path):
        _, vocab = corpus
        with pytest.raises(ValueError, match="empty"):
            train_stage([], tiny_model(vocab), vocab, StageConfig(max_steps=1), tmp_path)

    def test_accumulation_equivalence(self, corpus, tmp_path):
        entries, vocab = corpus
        # every utterance has 3 two-char words -> identical token budgets,
        # so budget B holds exactly one utterance and 2B exactly two
        per_utt = len(entries[0].transcript) + 3
        results = []
        for accum, budget in ((1, 2 * per_utt), (2, per_utt)):
            model = tiny_model(vocab, seed=3)
            cfg = StageConfig(max_steps=3, batch_tokens=budget, accum=accum,
                              checkpoint_interval=100, shuffle=False, seed=5)
            train_stage(entries, model, vocab, cfg, tmp_path / f"acc{accum}")
            results.append({n: p.data.copy() for n, p in model.params.items()})
        for name in results[0]:
            diff = np.abs(results[0][name] - results[1][name]).max()
            assert diff <= 1e-6, name

    def test_batches_respect_budget(self, corpus):
        entries, _ = corpus
        cache = FeatureCache()
        per_utt = len(entries[0].transcript) + 3
        batches = make_batches(entries, 2 * per_utt, cache)
        assert all(len(b) == 2 for b in batches)
        assert sorted(i for b in batches for i in b) == list(range(len(entries)))


def assert_views(model, attr, flat):
    """Each parameter's `attr` array is exactly its slice of `flat`, in registry order."""
    offset = 0
    for name, p in model.params.items():
        arr = getattr(p, attr)
        end = offset + arr.size
        assert np.shares_memory(arr, flat[offset:end]), name
        assert not np.shares_memory(arr, flat[:offset]), name
        assert not np.shares_memory(arr, flat[end:]), name
        offset = end
    assert offset == flat.size


class TestFlatArrays:
    def test_parameters_and_gradients_are_views(self, corpus, tmp_path):
        entries, vocab = corpus
        model = tiny_model(vocab, seed=2)
        assert_views(model, "data", model.flat)
        model.load_state({n: a + 1.0 for n, a in tiny_model(vocab, seed=3).state_arrays().items()})
        assert_views(model, "data", model.flat)
        assert model.flat_grad is None
        model.zero_grad()
        assert_views(model, "grad", model.flat_grad)
        assert not model.flat_grad.any()
        cfg = StageConfig(max_steps=3, batch_tokens=40, checkpoint_interval=100, seed=1)
        train_stage(entries, model, vocab, cfg, tmp_path)
        assert_views(model, "data", model.flat)
        assert_views(model, "grad", model.flat_grad)
        assert model.flat_grad.any()

    def test_gradient_memory_waits_for_zero_grad(self, corpus):
        entries, vocab = corpus
        model = tiny_model(vocab, dropout=0.0)
        cache = FeatureCache()
        outputs = forward_batch(model, vocab, entries[:2], [cache(e) for e in entries[:2]], "ASR")
        nc.backward(combined_loss(outputs, LossWeights())[1])
        assert model.flat_grad is None
        stray = model.params["ctc.src.w"].grad
        model.zero_grad()
        grad = model.flat_grad
        assert not grad.any() and model.params["ctc.src.w"].grad is not stray
        grad += 1.0
        model.zero_grad()
        assert model.flat_grad is grad and not grad.any()


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """Utterances of 2 to 5 tone-words: mixed frame and target lengths."""
    root = tmp_path_factory.mktemp("mixed")
    spec = CorpusSpec(num_utts=4, min_tokens=2, max_tokens=5, seed=12)
    entries, _ = synth_corpus(spec, root)
    texts = [e.transcript for e in entries] + [e.translation for e in entries]
    return entries, build_vocab(texts)


def batch_losses(model, vocab, entries, cache, task="ST"):
    """Per-utterance objective terms of one padded forward, and its gradients."""
    model.zero_grad()
    weights = LossWeights()
    outputs = forward_batch(model, vocab, entries, [cache(e) for e in entries], task)
    bd, objective = combined_loss(outputs, weights)
    nc.backward(objective)
    grads = {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}
    return loss_total(weights, bd.ce, bd.ctc_src, bd.ctc_tgt), grads


class TestForwardBatch:
    def test_references_are_the_text_ids(self, mixed_corpus):
        entries, vocab = mixed_corpus
        cache = FeatureCache()
        with nc.no_grad():
            outputs = forward_batch(tiny_model(vocab), vocab, entries,
                                    [cache(e) for e in entries], "ST")
        assert outputs.src_targets == [encode_text(e.transcript, vocab) for e in entries]
        assert outputs.task_targets == [encode_text(e.translation, vocab) for e in entries]
        assert outputs.pad_id == vocab.pad_id

    def test_st_requires_translation(self, mixed_corpus):
        entries, vocab = mixed_corpus
        cache = FeatureCache()
        bare = dataclasses.replace(entries[1], translation=None, tgt_lang=None)
        with pytest.raises(ValueError, match="has no translation"):
            forward_batch(tiny_model(vocab), vocab, [entries[0], bare],
                          [cache(e) for e in entries[:2]], "ST")

    def test_unknown_task(self, mixed_corpus):
        entries, vocab = mixed_corpus
        cache = FeatureCache()
        with pytest.raises(ValueError, match="unknown task"):
            forward_batch(tiny_model(vocab), vocab, entries[:1], [cache(entries[0])], "XX")


class TestBatchedStep:
    def test_padded_batch_matches_each_utterance_alone(self, mixed_corpus):
        entries, vocab = mixed_corpus
        cache = FeatureCache()
        assert len({cache(e).shape[0] for e in entries}) > 1
        assert len({len(e.translation) for e in entries}) > 1
        model = tiny_model(vocab, seed=6, dropout=0.0, dtype="float64")
        batched, batch_grads = batch_losses(model, vocab, entries, cache)
        summed = {}
        for i, e in enumerate(entries):
            (alone,), grads = batch_losses(model, vocab, [e], cache)
            assert abs(batched[i] - alone) <= 1e-5, i
            for n, g in grads.items():
                summed[n] = summed.get(n, 0.0) + g
        assert set(summed) == set(batch_grads)
        for n, g in batch_grads.items():
            assert np.abs(g - summed[n]).max() <= 1e-8, n

    def test_dropout_masks_independent_of_batch(self, mixed_corpus):
        entries, vocab = mixed_corpus
        cache = FeatureCache()
        model = tiny_model(vocab, seed=7, dropout=0.1, dtype="float64")
        plain, _ = batch_losses(model, vocab, entries, cache)
        model.training = True
        with model.row_dropout([np.random.default_rng([9, i]) for i in range(len(entries))]):
            batched, _ = batch_losses(model, vocab, entries, cache)
        for i, e in enumerate(entries):
            with model.row_dropout([np.random.default_rng([9, i])]):
                (alone,), _ = batch_losses(model, vocab, [e], cache)
            assert abs(batched[i] - alone) <= 1e-5, i
            assert abs(batched[i] - plain[i]) > 1e-3, i  # dropout did act
        with model.row_dropout([np.random.default_rng(0)]):
            with pytest.raises(ValueError, match="one dropout generator per row"):
                batch_losses(model, vocab, entries[:2], cache)
        with pytest.raises(ValueError, match="row_dropout"):
            batch_losses(model, vocab, entries[:1], cache)

    def test_tape_size_of_a_desk_micro_batch(self, mixed_corpus):
        """The fused numcore nodes keep one desk-config training micro-batch's
        tape (the nodes reachable from its objective) at most 125 nodes."""
        entries, vocab = mixed_corpus
        cache = FeatureCache()
        model = Model(ModelConfig(vocab_size=len(vocab), enc_layers=2, dec_layers=1, d_model=32,
                                  heads=4, d_ffn=64, conv_kernel=7, dropout=0.1))
        model.training = True
        with model.row_dropout([np.random.default_rng([1, i]) for i in range(len(entries))]):
            outputs = forward_batch(model, vocab, entries, [cache(e) for e in entries], "ASR")
        _, objective = combined_loss(outputs, LossWeights())
        nodes, stack = set(), [objective]
        while stack:
            t = stack.pop()
            if t._parents and id(t) not in nodes:
                nodes.add(id(t))
                stack.extend(t._parents)
        assert len(nodes) <= 125

    def test_metrics_count_utterances_frames_and_tokens(self, mixed_corpus, tmp_path):
        entries, vocab = mixed_corpus
        cache = FeatureCache()
        batches = make_batches(entries, 30, cache)
        assert len(batches) >= 2 and max(len(b) for b in batches) >= 2
        cfg = StageConfig(max_steps=len(batches), batch_tokens=30, shuffle=False, seed=2)
        _, metrics = train_stage(entries, tiny_model(vocab), vocab, cfg, tmp_path, cache=cache)
        lines = [json.loads(l) for l in open(metrics)]
        assert len(lines) == len(batches)
        for line, batch in zip(lines, batches):
            assert line["utts"] == len(batch)
            assert line["frames"] == sum(subsampled_length(cache(entries[i]).shape[0])
                                         for i in batch)
            assert line["tokens"] == sum(len(entries[i].transcript) + 2 for i in batch)
            assert line["ctc_infeasible"] == 0
            assert "skipped" not in line

    def test_infeasible_ctc_target_skips_the_step(self, mixed_corpus, tmp_path):
        entries, vocab = mixed_corpus
        # a transcript far longer than the encoder frames cannot be aligned
        long = dataclasses.replace(entries[0], transcript=entries[0].transcript * 30)
        cfg = StageConfig(max_steps=1, batch_tokens=10_000, seed=3)
        model = tiny_model(vocab)
        before = {n: p.data.copy() for n, p in model.params.items()}
        _, metrics = train_stage([long] + entries[1:], model, vocab, cfg, tmp_path)
        (line,) = [json.loads(l) for l in open(metrics)]
        assert line["ctc_infeasible"] >= 1
        assert line["skipped"] is True and line["total"] == math.inf
        for n, p in model.params.items():
            assert np.array_equal(p.data, before[n]), n


class TestAveraging:
    def make_ckpts(self, tmp_path, k, seed=0):
        vocab_size = 12
        cfg = ModelConfig(vocab_size=vocab_size, enc_layers=2, dec_layers=1,
                          d_model=16, heads=2, d_ffn=32, conv_kernel=3)
        base = Model(cfg, seed=1).state_arrays()
        rng = np.random.default_rng(seed)
        paths = []
        for i in range(k):
            arrays = {n: (a + rng.standard_normal(a.shape).astype(a.dtype) * 0.01)
                      for n, a in base.items()}
            p = tmp_path / f"c{i}.ckpt"
            save_checkpoint(p, arrays, cfg, step=1000 * (i + 1), stage="ASR-pretrain")
            paths.append(p)
        return paths, cfg

    def test_identity_on_identical(self, tmp_path):
        paths, _ = self.make_ckpts(tmp_path, 1)
        paths = paths * 3
        mean, _, step, _ = average_checkpoints(paths)
        ref, *_ = load_checkpoint(paths[0])
        for n in ref:
            assert np.array_equal(mean[n], ref[n]), n

    def test_two_point_mean(self, tmp_path):
        paths, cfg = self.make_ckpts(tmp_path, 2)
        a0, *_ = load_checkpoint(paths[0])
        a1, *_ = load_checkpoint(paths[1])
        name = next(iter(a0))
        a0[name][:] = 0.0
        a1[name][:] = 2.0
        save_checkpoint(paths[0], a0, cfg, 1000, "ASR-pretrain")
        save_checkpoint(paths[1], a1, cfg, 2000, "ASR-pretrain")
        mean, _, step, _ = average_checkpoints(paths)
        assert np.all(mean[name] == 1.0)
        assert step == 2000

    def test_matches_wide_accumulator_mean(self, tmp_path):
        paths, _ = self.make_ckpts(tmp_path, 25, seed=2)
        mean, *_ = average_checkpoints(paths)
        loaded = [load_checkpoint(p)[0] for p in paths]
        for n in mean:
            want = np.mean(np.stack([a[n].astype(np.float64) for a in loaded]), axis=0)
            assert np.array_equal(mean[n], want.astype(mean[n].dtype)), n

    def test_mismatched_names_rejected(self, tmp_path):
        paths, cfg = self.make_ckpts(tmp_path, 2)
        arrays, *_ = load_checkpoint(paths[1])
        arrays["spurious.w"] = np.zeros(3, dtype=np.float32)
        save_checkpoint(paths[1], arrays, cfg, 2000, "ASR-pretrain")
        with pytest.raises(ValueError, match="spurious.w"):
            average_checkpoints(paths)


class TestForgettingProbe:
    def test_probe_structure(self, corpus, tmp_path):
        entries, vocab = corpus
        model = tiny_model(vocab, seed=4)
        ckpt = tmp_path / "pre.ckpt"
        save_checkpoint(ckpt, model.state_arrays(), model.config, 0, "ASR-pretrain")
        report = forgetting_probe(ckpt, entries, entries, vocab,
                                  lr_variants=[1e-4], p_asr_variants=[0.5],
                                  steps=2, out_dir=tmp_path / "probe",
                                  eval_interval=2, batch_tokens=40, seed=9)
        (run,) = report["runs"]
        assert run["steps"] == [0, 2]
        assert len(run["asr_ppl"]) == 2 and len(run["st_ppl"]) == 2
        assert all(p >= 1.0 for p in run["asr_ppl"] + run["st_ppl"])
        assert (tmp_path / "probe" / "probe_series.jsonl").exists()
        assert "asr_ppl_T" in report["table"]

    def test_one_run_per_variant(self, corpus, tmp_path):
        """Evaluating every 2 steps does not change the training: the final
        checkpoint is the one a plain 6-step second stage writes."""
        entries, vocab = corpus
        model = tiny_model(vocab, seed=4)
        ckpt = tmp_path / "pre.ckpt"
        save_checkpoint(ckpt, model.state_arrays(), model.config, 0, "ASR-pretrain")
        finals = []
        for interval in (2, 6):
            out = tmp_path / f"probe{interval}"
            report = forgetting_probe(ckpt, entries, entries, vocab, [1e-3], [0.5], steps=6,
                                      out_dir=out, eval_interval=interval, batch_tokens=40,
                                      seed=9)
            assert report["runs"][0]["steps"] == list(range(0, 7, interval))
            finals.append((out / "lr0.001_p0.5" / "ckpt_000006.ckpt").read_bytes())
        plain = Model(model.config, seed=9)
        plain.load_state(load_checkpoint(ckpt)[0])
        cfg = StageConfig(stage="ASR+ST", schedule="constant", lr_const=1e-3, p_asr=0.5,
                          max_steps=6, batch_tokens=40, seed=9)
        final, _ = train_stage(entries, plain, vocab, cfg, tmp_path / "plain")
        finals.append(open(final, "rb").read())
        assert finals[0] == finals[1] == finals[2]

    def test_bad_interval_or_steps_rejected(self, corpus, tmp_path):
        entries, vocab = corpus
        model = tiny_model(vocab)
        ckpt = tmp_path / "pre.ckpt"
        save_checkpoint(ckpt, model.state_arrays(), model.config, 0, "ASR-pretrain")
        for steps, interval in ((2, 0), (2, -1), (-1, 1)):
            with pytest.raises(ValueError, match="eval_interval >= 1 and steps >= 0"):
                forgetting_probe(ckpt, entries, entries, vocab, [1e-4], [0.5], steps,
                                 tmp_path / "p", eval_interval=interval)

    def test_empty_validation_rejected(self, corpus, tmp_path):
        entries, vocab = corpus
        model = tiny_model(vocab)
        ckpt = tmp_path / "pre.ckpt"
        save_checkpoint(ckpt, model.state_arrays(), model.config, 0, "ASR-pretrain")
        with pytest.raises(ValueError, match="validation"):
            forgetting_probe(ckpt, entries, [], vocab, [1e-4], [0.5], 1, tmp_path / "p")
