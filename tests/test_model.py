import os

import numpy as np
import pytest

from conformerst import numcore as nc
from conformerst.losses import ctc_loss
from conformerst.model import (
    EncoderOutput,
    Model,
    ModelConfig,
    load_checkpoint,
    parameter_count_for,
    save_checkpoint,
    small_config,
    subsampled_length,
    tap_layer_for,
)

# the decode benchmark's committed checkpoint
FIXTURE_CKPT = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixture", "desk_st.ckpt")


def desk_config(vocab=12, dtype="float32"):
    return ModelConfig(vocab_size=vocab, enc_layers=4, dec_layers=2, d_model=32,
                       heads=4, d_ffn=64, conv_kernel=7, dtype=dtype)


def features(t, b=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, t, 80)) * 0.5


class TestConfig:
    def test_depth_ratio_enforced(self):
        with pytest.raises(ValueError, match="twice"):
            ModelConfig(vocab_size=10, enc_layers=4, dec_layers=3)

    def test_tap_rule(self):
        assert tap_layer_for(12) == 8
        assert tap_layer_for(24) == 16
        assert desk_config().tap_layer == tap_layer_for(4)

    def test_heads_divide_dim(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(vocab_size=10, enc_layers=4, dec_layers=2, d_model=30, heads=4)

    @pytest.mark.parametrize("bad, match", [
        (dict(enc_layers=-2, dec_layers=-1), "enc_layers"),
        (dict(enc_layers=0, dec_layers=0), "enc_layers"),
        (dict(d_model=0), "d_model"),
        (dict(heads=0), "heads"),
        (dict(d_ffn=0), "d_ffn"),
        (dict(conv_kernel=0), "conv_kernel"),
        (dict(conv_kernel=4), "odd"),
        (dict(d_model=3, heads=1), "even width"),
    ])
    def test_bad_sizes_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            ModelConfig(**{**dict(vocab_size=10, enc_layers=4, dec_layers=2), **bad})

    def test_fixture_checkpoint_config_loads(self):
        arrays, config, _, _ = load_checkpoint(FIXTURE_CKPT)
        Model(config).load_state(arrays)

    def test_reference_small_parameter_count(self):
        count = parameter_count_for(small_config(16000))
        assert abs(count - 475e6) / 475e6 <= 0.03


class TestSubsample:
    def test_length_chain_100_to_25(self):
        assert subsampled_length(100) == 25
        m = Model(desk_config(), seed=1)
        h, lens = m.subsample(features(100), [100])
        assert h.shape == (1, 25, 32) and lens.tolist() == [25]

    def test_length_16_to_4(self):
        assert subsampled_length(16) == 4

    def test_too_short_rejected(self):
        m = Model(desk_config(), seed=1)
        with pytest.raises(nc.ShapeError):
            m.subsample(features(4), [4])

    def test_padded_batch_lengths_and_zero_states(self):
        m = Model(desk_config(), seed=1)
        f = np.zeros((2, 100, 80))
        f[0] = features(100, seed=2)[0]
        f[1, :16] = features(16, seed=3)[0]
        h, lens = m.subsample(f, [100, 16])
        assert lens.tolist() == [25, 4]
        assert np.all(h.data[1, 4:] == 0.0)


class TestEncode:
    def test_eval_deterministic(self):
        m = Model(desk_config(), seed=2)
        f = features(60, seed=4)
        a = m.encode(f, [60]).states.data
        b = m.encode(f, [60]).states.data
        assert np.array_equal(a, b)

    def test_lengths_exceeding_frames_rejected(self):
        m = Model(desk_config(), seed=2)
        with pytest.raises(nc.ShapeError):
            m.encode(features(60), [61])

    def test_padding_invariance(self):
        m = Model(desk_config(), seed=2)
        f = features(60, seed=5)
        alone = m.encode(f, [60])
        batch_f = np.zeros((3, 100, 80))
        batch_f[0, :60] = f[0]
        batch_f[1] = features(100, seed=6)[0]
        batch_f[2, :24] = features(24, seed=7)[0]
        batched = m.encode(batch_f, [60, 100, 24])
        t = alone.states.shape[1]
        assert np.abs(batched.states.data[0, :t] - alone.states.data[0]).max() <= 1e-5
        assert np.abs(batched.tap_states.data[0, :t] - alone.tap_states.data[0]).max() <= 1e-5

    def test_tap_is_intermediate(self):
        m = Model(desk_config(), seed=3)
        out = m.encode(features(40, seed=8), [40])
        assert out.tap_states.shape == out.states.shape
        assert not np.allclose(out.tap_states.data, out.states.data)


class TestDecode:
    def enc(self, m, seed=9):
        return m.encode(features(40, seed=seed), [40])

    def test_rows_normalize(self):
        m = Model(desk_config(), seed=4)
        lp = m.decode_step(self.enc(m), [[3, 5, 7]])
        assert np.allclose(np.exp(lp.data).sum(axis=-1), 1.0, atol=1e-6)

    def test_causality(self):
        m = Model(desk_config(), seed=4)
        enc = self.enc(m)
        lp_short = m.decode_step(enc, [[3, 5, 7]])
        lp_long = m.decode_step(enc, [[3, 5, 7, 2]])
        assert np.abs(lp_long.data[0, :3] - lp_short.data[0]).max() <= 1e-6

    def test_empty_prefix_rejected(self):
        m = Model(desk_config(), seed=4)
        with pytest.raises(ValueError, match="empty prefix"):
            m.decode_step(self.enc(m), [[]])

    def test_zeroed_output_projection_is_uniform(self):
        m = Model(desk_config(vocab=12), seed=4)
        m.params["dec.out.w"].data[:] = 0.0
        m.params["dec.out.b"].data[:] = 0.0
        lp = m.decode_step(self.enc(m), [[3, 5]])
        assert np.allclose(lp.data, -np.log(12), atol=1e-6)

    def test_decoder_padding_invariance(self):
        m = Model(desk_config(), seed=5)
        f = features(60, seed=10)
        alone = m.decode_step(m.encode(f, [60]), [[3, 5, 7]])
        batch_f = np.zeros((2, 90, 80))
        batch_f[0, :60] = f[0]
        batch_f[1] = features(90, seed=11)[0]
        enc = m.encode(batch_f, [60, 90])
        both = m.decode_step(enc, [[3, 5, 7], [3, 6, 8]])
        assert np.abs(both.data[0] - alone.data[0]).max() <= 1e-5


class TestIncrementalDecode:
    """decode_step with a decoder state against teacher forcing of each row's
    whole prefix (float64, so only summation order differs)."""

    def setup_model(self):
        m = Model(desk_config(dtype="float64"), seed=4)
        return m, m.encode(features(40, seed=9), [40])

    def test_every_position_matches_full_prefix(self):
        m, enc = self.setup_model()
        # 30 positions: the state's positional table, empty at first, doubles
        # four times (to 4, 10, 22 and 46 rows)
        tokens = [3, 5] + np.random.default_rng(1).integers(7, 12, size=28).tolist()
        with nc.no_grad():
            full = m.decode_step(enc, [tokens]).data
            st = m.decoder_state(enc)
            steps = [m.decode_step(enc, [tokens[:2]], state=st).data]
            steps += [m.decode_step(enc, [[t]], state=st).data for t in tokens[2:]]
        inc = np.concatenate(steps, axis=1)
        assert inc.shape == full.shape and st.pos == len(tokens)
        assert np.abs(inc - full).max() <= 1e-10

    def test_reorder_duplicates_and_drops_rows(self):
        m, enc = self.setup_model()
        rows = [[3, 5], [3, 5], [3, 5]]
        feeds = [[[7], [8], [9]], [[4], [6], [11]], [[10], [10], [7]]]
        parents = [[2, 2, 0], [1, 0, 0]]  # row 1 dropped, rows duplicated
        with nc.no_grad():
            st = m.decoder_state(enc)
            m.decode_step(enc, rows, state=st)
            for k, feed in enumerate(feeds):
                rows = [r + f for r, f in zip(rows, feed)]
                got = m.decode_step(enc, feed, state=st).data[:, 0]
                want = m.decode_step(enc, rows).data[:, -1]
                assert np.abs(got - want).max() <= 1e-10, k
                if k < len(parents):
                    st.reorder(parents[k])
                    rows = [rows[i] for i in parents[k]]

    def test_identity_reorder_copies_nothing(self):
        m, enc = self.setup_model()
        with nc.no_grad():
            st = m.decoder_state(enc)
            m.decode_step(enc, [[3, 5], [3, 6]], state=st)
            before = [t for kv in st.self_kv for t in kv]
            st.reorder([0, 1])
            assert all(a is b for a, b in zip(before, [t for kv in st.self_kv for t in kv]))
            st.reorder([0])  # the leading rows alone are not the identity
            assert all(t.shape[0] == 1 for kv in st.self_kv for t in kv)

    def test_state_rejected_in_training(self):
        m, enc = self.setup_model()
        st = m.decoder_state(enc)
        m.training = True
        with pytest.raises(ValueError, match="inference"):
            m.decode_step(enc, [[3, 5]], state=st)


class TestCtcHead:
    def test_normalized_and_shaped(self):
        m = Model(desk_config(), seed=6)
        enc = m.encode(features(40, seed=12), [40])
        lp = m.ctc_head(enc.states, "tgt-final")
        assert lp.shape == (1, enc.states.shape[1], 12)
        assert np.allclose(np.exp(lp.data).sum(axis=-1), 1.0, atol=1e-6)

    def test_heads_are_independent(self):
        m = Model(desk_config(), seed=6)
        enc = m.encode(features(40, seed=12), [40])
        src = m.ctc_head(enc.states, "src-tap")
        tgt = m.ctc_head(enc.states, "tgt-final")
        assert not np.allclose(src.data, tgt.data)

    def test_unknown_head_rejected(self):
        m = Model(desk_config(), seed=6)
        enc = m.encode(features(40, seed=12), [40])
        with pytest.raises(ValueError, match="CTC head"):
            m.ctc_head(enc.states, "middle")


class TestGradients:
    def test_miniature_end_to_end(self):
        cfg = ModelConfig(vocab_size=6, enc_layers=2, dec_layers=1, d_model=8,
                          heads=2, d_ffn=16, conv_kernel=3, dropout=0.0, dtype="float64")
        m = Model(cfg, seed=7)
        f = features(12, seed=13)
        prefix = np.array([[3, 4, 2]])
        rng = np.random.default_rng(14)
        wdec = rng.standard_normal((1, 3, 6))

        def loss_from_features(x):
            enc = m.encode(x, [12])
            dec = m.decode_step(enc, prefix)
            ctc = nc.sum_(ctc_loss(m.ctc_head(enc.states, "src-tap"), [[2, 1]]))
            return nc.add(nc.sum_(nc.mul(dec, nc.tensor(wdec))), ctc)

        # eps 1e-6 leaves central differences roundoff-dominated end to end;
        # 3e-5 balances truncation against cancellation at this loss scale
        err = nc.finite_difference_check(loss_from_features, nc.tensor(f), eps=3e-5)
        assert err <= 1e-5

        # spot-check parameter gradients through the same composite loss
        f64 = nc.tensor(f)
        for name in ["enc.0.conv.dw.w", "enc.1.attn.q.w", "dec.0.cross.v.w", "ctc.src.w"]:
            def param_loss(t, _name=name):
                old = m.params[_name]
                m.params[_name] = t
                try:
                    return loss_from_features(nc.tensor(f))
                finally:
                    m.params[_name] = old

            err = nc.finite_difference_check(param_loss, m.params[name], eps=3e-5)
            assert err <= 1e-5, name


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = Model(desk_config(), seed=8)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, m.state_arrays(), m.config, step=17, stage="ASR-pretrain")
        arrays, cfg, step, stage = load_checkpoint(p1)
        assert step == 17 and stage == "ASR-pretrain"
        assert cfg == m.config
        save_checkpoint(p2, arrays, cfg, step, stage)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_into_model(self, tmp_path):
        m = Model(desk_config(), seed=8)
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, m.state_arrays(), m.config, 0, "ASR-pretrain")
        m2 = Model(desk_config(), seed=99)
        arrays, *_ = load_checkpoint(p)
        m2.load_state(arrays)
        f = features(40, seed=15)
        assert np.array_equal(m.encode(f, [40]).states.data, m2.encode(f, [40]).states.data)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        m = Model(desk_config(), seed=8)
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, m.state_arrays(), m.config, 1, "ASR-pretrain")
        before = p.read_bytes()

        class Unwritable:  # fails when the writer reaches it, midway through the file
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        arrays = dict(m.state_arrays())
        arrays["enc.0.conv.dw.w"] = Unwritable()
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(p, arrays, m.config, 2, "ASR-pretrain")
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["a.ckpt"]

    def test_truncated_file_rejected(self, tmp_path):
        m = Model(desk_config(), seed=8)
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, m.state_arrays(), m.config, 3, "ASR-pretrain")
        data = p.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in (0, 3, 6, 12, 40, len(data) // 2, len(data) - 5, len(data) - 1):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match="cut.ckpt"):
                load_checkpoint(cut)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)
