import math

import numpy as np
import pytest

from conformerst import numcore as nc
from conformerst.losses import (
    BatchOutputs,
    LossWeights,
    combined_loss,
    ctc_brute_force,
    ctc_feasible,
    ctc_lattice,
    ctc_loss,
    label_smoothed_ce,
    loss_total,
)


def random_logprobs(t, v, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t, v))
    x = x - np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) - x.max(axis=1, keepdims=True)
    return x


class TestLabelSmoothedCE:
    def test_uniform_gives_log_v(self):
        v = 7
        lp = nc.tensor(np.full((4, v), -math.log(v)))
        for eps in (0.0, 0.1, 0.5):
            loss = label_smoothed_ce(lp, [0, 1, 2, 3], eps)
            assert abs(float(loss.data) - math.log(v)) < 1e-12

    def test_zero_smoothing_is_nll(self):
        lp = nc.tensor(random_logprobs(5, 6, 1))
        tgt = [0, 3, 2, 5, 1]
        loss = label_smoothed_ce(lp, tgt, 0.0)
        nll = -np.mean([lp.data[i, t] for i, t in enumerate(tgt)])
        assert abs(float(loss.data) - nll) < 1e-12

    def test_hand_computed_binary_case(self):
        lp = nc.tensor(np.log([[0.9, 0.1]]))
        loss = label_smoothed_ce(lp, [0], 0.1)
        expect = 0.9 * -math.log(0.9) + 0.1 * (-math.log(0.9) - math.log(0.1)) / 2
        assert abs(float(loss.data) - expect) < 1e-12

    def test_linear_in_smoothing(self):
        lp = nc.tensor(random_logprobs(3, 5, 2))
        tgt = [1, 4, 0]
        l0 = float(label_smoothed_ce(lp, tgt, 0.0).data)
        l1 = float(label_smoothed_ce(lp, tgt, 0.4).data)
        lmid = float(label_smoothed_ce(lp, tgt, 0.2).data)
        assert abs(lmid - (l0 + l1) / 2) < 1e-12

    def test_pad_exclusion(self):
        lp = nc.tensor(random_logprobs(4, 5, 3))
        full = float(label_smoothed_ce(lp, [1, 2, 1, 2], 0.1).data)
        padded = float(label_smoothed_ce(nc.tensor(np.vstack([lp.data, lp.data[:1]])), [1, 2, 1, 2, 9], 0.1, pad_id=9).data)
        assert abs(full - padded) < 1e-12

    def test_all_pad_rejected(self):
        lp = nc.tensor(random_logprobs(2, 5, 4))
        with pytest.raises(ValueError):
            label_smoothed_ce(lp, [9, 9], 0.1, pad_id=9)

    def test_gradient(self):
        def f(x):
            return label_smoothed_ce(nc.log_softmax(x), [1, 0, 2], 0.1)

        x = nc.tensor(np.random.default_rng(5).standard_normal((3, 4)))
        assert nc.finite_difference_check(f, x) <= 1e-6

    def test_batched_gradient_with_padding_and_row_weights(self):
        # rows of different lengths that end in pad_id, each row weighted
        targets = np.array([[1, 3, 0, 2], [4, 2, 9, 9], [0, 9, 9, 9]])
        weights = nc.tensor(np.array([1.0, 0.5, 2.0]))

        def f(x):
            rows = label_smoothed_ce(nc.log_softmax(x), targets, 0.1, pad_id=9)
            return nc.sum_(nc.mul(rows, weights))

        x = nc.tensor(np.random.default_rng(6).standard_normal((3, 4, 10)))
        assert nc.finite_difference_check(f, x) <= 1e-5


class TestCTC:
    def test_single_frame_single_path(self):
        lp = nc.tensor(np.log(np.full((1, 2), 0.5)))
        loss = ctc_loss(lp, [1])
        assert abs(float(loss.data) - math.log(2)) < 1e-12

    def test_two_frames_three_paths(self):
        lp = nc.tensor(np.log(np.full((2, 2), 0.5)))
        loss = ctc_loss(lp, [1])
        assert abs(float(loss.data) - (-math.log(0.75))) < 1e-12

    def test_matches_brute_force_random(self):
        lp = random_logprobs(5, 4, 7)
        loss = float(ctc_loss(nc.tensor(lp), [2, 1]).data)
        assert abs(loss - ctc_brute_force(lp, [2, 1])) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_sweep(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 7))
        v = int(rng.integers(2, 5))
        l = int(rng.integers(1, 4))
        target = rng.integers(1, v, size=l).tolist()
        lp = random_logprobs(t, v, seed + 100)
        ours = float(ctc_loss(nc.tensor(lp), target).data)
        oracle = ctc_brute_force(lp, target)
        if math.isinf(oracle):
            assert math.isinf(ours)
        else:
            assert abs(ours - oracle) < 1e-9

    def test_infeasible_returns_inf_not_crash(self):
        lp = nc.tensor(random_logprobs(1, 3, 8))
        assert math.isinf(float(ctc_loss(lp, [1, 2]).data))
        assert not ctc_feasible(1, [1, 2])
        assert not ctc_feasible(2, [1, 1])
        assert ctc_feasible(3, [1, 1])

    def test_monotone_feasibility(self):
        # once feasible, adding frames keeps the loss finite
        target = [1, 1, 2]
        for t in range(4, 9):
            lp = nc.tensor(random_logprobs(t, 3, t))
            assert math.isfinite(float(ctc_loss(lp, target).data))

    def test_gradient_matches_finite_differences(self):
        target = [1, 2]

        def f(x):
            return ctc_loss(nc.log_softmax(x), target)

        x = nc.tensor(np.random.default_rng(9).standard_normal((4, 3)))
        assert nc.finite_difference_check(f, x) <= 1e-5

    def test_input_len_ignores_tail_frames(self):
        lp = random_logprobs(6, 3, 10)
        a = float(ctc_loss(nc.tensor(lp), [1, 2], input_len=4).data)
        b = float(ctc_loss(nc.tensor(lp[:4]), [1, 2]).data)
        assert abs(a - b) < 1e-12

    def test_ctc_forward_equals_loss(self):
        lp = random_logprobs(5, 4, 11)
        assert abs(ctc_lattice(lp[None], [[3, 1]], [5]).log_p[0]
                   + float(ctc_loss(nc.tensor(lp), [3, 1]).data)) < 1e-12


def padded_batch(rows, v, seed):
    """rows: (frames, target) pairs -> R x T_max x V log-probs; padded frames
    hold unrelated log-probs that the lattice must ignore."""
    t_max = max(t for t, _ in rows)
    lp = np.stack([random_logprobs(t_max, v, seed + r) for r in range(len(rows))])
    return lp, [target for _, target in rows], [t for t, _ in rows]


class TestBatchedCTC:
    # mixed input and target lengths: an empty target, a repeated label and
    # one infeasible row ([1, 2, 1] needs 3 frames, its row has 2)
    ROWS = [(5, [2, 1]), (3, []), (4, [1, 1]), (2, [1, 2, 1]), (6, [3]), (6, [1, 3, 3, 2])]

    def test_rows_match_brute_force_and_unbatched_gradients(self):
        lp, targets, lengths = padded_batch(self.ROWS, 4, seed=20)
        x = nc.tensor(lp, requires_grad=True)
        out = ctc_loss(x, targets, lengths)
        assert out.shape == (len(self.ROWS),)
        nc.backward(out, seed=np.ones(len(self.ROWS)))
        assert np.all(np.isfinite(x.grad))
        for r, (t, target) in enumerate(self.ROWS):
            oracle = ctc_brute_force(lp[r, :t], target)
            if math.isinf(oracle):
                assert out.data[r] == np.inf
                assert not ctc_feasible(t, target)
                assert np.all(x.grad[r] == 0.0)
                continue
            assert abs(out.data[r] - oracle) < 1e-9, r
            alone = nc.tensor(lp[r, :t], requires_grad=True)
            nc.backward(ctc_loss(alone, target))
            assert np.abs(x.grad[r, :t] - alone.grad).max() < 1e-12, r
            assert np.all(x.grad[r, t:] == 0.0), r  # padded frames get no gradient

    def test_infeasible_row_leaves_other_rows_unchanged(self):
        lp, targets, lengths = padded_batch(self.ROWS, 4, seed=21)
        keep = [r for r, (t, target) in enumerate(self.ROWS) if ctc_feasible(t, target)]
        full = ctc_loss(nc.tensor(lp), targets, lengths).data
        part = ctc_loss(nc.tensor(lp[keep]), [targets[r] for r in keep],
                        [lengths[r] for r in keep]).data
        assert np.array_equal(full[keep], part)

    def test_gradient_matches_finite_differences(self):
        targets, lengths = [[1, 2], [2, 2], []], [5, 4, 2]
        weights = nc.tensor(np.array([1.0, 0.5, 2.0]))

        def f(x):
            return nc.sum_(nc.mul(ctc_loss(nc.log_softmax(x), targets, lengths), weights))

        x = nc.tensor(np.random.default_rng(22).standard_normal((3, 5, 3)))
        assert nc.finite_difference_check(f, x) <= 1e-5

    def test_batched_ce_takes_each_rows_own_mean(self):
        lp = np.stack([random_logprobs(4, 5, 30), random_logprobs(4, 5, 31)])
        targets = np.array([[1, 2, 3, 4], [2, 0, 9, 9]])  # row 1: two tokens, then pad 9
        rows = label_smoothed_ce(nc.tensor(lp), targets, 0.1, pad_id=9).data
        assert abs(rows[0] - float(label_smoothed_ce(nc.tensor(lp[0]), [1, 2, 3, 4], 0.1).data)) < 1e-12
        assert abs(rows[1] - float(label_smoothed_ce(nc.tensor(lp[1, :2]), [2, 0], 0.1).data)) < 1e-12


class TestCombined:
    def _outputs(self, seed):
        """Two utterances; the second has two decoder targets and then padding (9)."""
        rng = np.random.default_rng(seed)
        dec = nc.log_softmax(nc.tensor(rng.standard_normal((2, 4, 6)), requires_grad=True))
        src = nc.log_softmax(nc.tensor(rng.standard_normal((2, 5, 6)), requires_grad=True))
        tgt = nc.log_softmax(nc.tensor(rng.standard_normal((2, 5, 6)), requires_grad=True))
        return BatchOutputs(dec, np.array([[1, 2, 3, 4], [2, 3, 9, 9]]), src, tgt,
                            enc_lengths=np.array([5, 4]), src_targets=[[1, 2], [3]],
                            task_targets=[[1, 2], [4, 5]], pad_id=9)

    def test_weighted_sum(self):
        w = LossWeights()
        assert loss_total(w, 1.0, 2.0, 3.0) == 13.0

    def test_zero_weights(self):
        w = LossWeights(lambda_ce=0.0, lambda_ctc_src=0.0, lambda_ctc_tgt=0.0)
        assert loss_total(w, 3.3, 1.1, 7.7) == 0.0

    def test_objective_is_sum_of_per_utterance_terms(self):
        w = LossWeights()
        bd, objective = combined_loss(self._outputs(3), w)
        assert bd.ce.shape == bd.ctc_src.shape == bd.ctc_tgt.shape == (2,)
        assert bd.tokens == 6 and bd.ctc_infeasible == 0
        per_utt = loss_total(w, bd.ce, bd.ctc_src, bd.ctc_tgt)
        assert float(objective.data) == pytest.approx(per_utt.sum(), rel=1e-12)
