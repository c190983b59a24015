import numpy as np
import pytest

from conformerst import numcore as nc


def rand(*shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


class TestShapes:
    def test_matmul_shape(self):
        a = nc.tensor(rand(2, 3))
        b = nc.tensor(rand(3, 4))
        assert nc.matmul(a, b).shape == (2, 4)

    def test_matmul_mismatch_names_op_and_shapes(self):
        a = nc.tensor(rand(2, 3))
        b = nc.tensor(rand(4, 4))
        with pytest.raises(nc.ShapeError, match=r"matmul.*\(2, 3\).*\(4, 4\)"):
            nc.matmul(a, b)

    def test_conv1d_length_rule(self):
        x = nc.tensor(rand(1, 100, 3))
        w = nc.tensor(rand(5, 3, 7))
        out = nc.conv1d(x, w, None, stride=2, padding=2)
        assert out.shape == (1, 50, 7)
        assert nc.conv1d_out_len(100, 5, 2, 2) == 50

    def test_conv1d_bad_attrs(self):
        x = nc.tensor(rand(1, 10, 3))
        w = nc.tensor(rand(5, 3, 7))
        with pytest.raises(nc.ShapeError):
            nc.conv1d(x, w, None, stride=0)

    def test_attention_weights_sum_to_one(self):
        """Values of all ones come out as ones: each query's weights sum to one."""
        q, k = nc.tensor(rand(2, 4, 6, seed=3)), nc.tensor(rand(2, 9, 6, seed=4))
        out = nc.attention(q, k, nc.tensor(np.ones((2, 9, 6))), 3, mask=KEY_MASK9)
        assert np.allclose(out.data, 1.0, atol=1e-12)

    def test_fused_shape_errors(self):
        x, w = nc.tensor(rand(3, 6)), nc.tensor(rand(6, 4))
        with pytest.raises(nc.ShapeError, match="bias"):
            nc.matmul(x, w, nc.tensor(rand(6)))
        with pytest.raises(nc.ShapeError, match="layer_norm"):
            nc.layer_norm(x, nc.tensor(rand(4)))
        q, kv = nc.tensor(rand(2, 3, 6)), nc.tensor(rand(3, 5, 6))
        with pytest.raises(nc.ShapeError, match="attention"):
            nc.attention(q, kv, kv, 2)  # key batch neither 1 nor the query batch
        with pytest.raises(nc.ShapeError, match="attention"):
            nc.attention(q, q, q, 4)  # 6 features do not split into 4 heads

    def test_strict_mode_rejects_nonfinite(self):
        nc.set_strict_mode(True)
        try:
            with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
                nc.scale(nc.tensor([1e308]), 10.0)
            with pytest.raises(ValueError, match="matmul: non-finite"), np.errstate(over="ignore"):
                nc.matmul(nc.tensor([[1e200]]), nc.tensor([[1e200]]), nc.tensor([1.0]))
        finally:
            nc.set_strict_mode(False)

    def test_no_finiteness_check_without_strict_mode(self, monkeypatch):
        def isfinite(*args, **kwargs):
            raise AssertionError("np.isfinite called with strict mode off")

        monkeypatch.setattr(np, "isfinite", isfinite)
        x = nc.tensor(rand(2, 3, 6), requires_grad=True)
        h = nc.layer_norm(nc.matmul(x, nc.tensor(rand(6, 6)), nc.tensor(rand(6))),
                          nc.tensor(rand(6)), nc.tensor(rand(6)))
        nc.backward(nc.sum_(nc.attention(h, h, h, 2)))
        with nc.no_grad():
            assert not nc.silu(x).requires_grad


class TestBackward:
    def test_sum_gradient_all_ones(self):
        x = nc.tensor(rand(3, 4), requires_grad=True)
        nc.backward(nc.sum_(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares(self):
        x = nc.tensor([1.0, 2.0], requires_grad=True)
        nc.backward(nc.sum_(nc.mul(x, x)))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_double_backward_rejected(self):
        x = nc.tensor([1.0], requires_grad=True)
        y = nc.sum_(nc.mul(x, x))
        nc.backward(y)
        with pytest.raises(nc.GraphError):
            nc.backward(y)

    def test_nonparticipating_leaf(self):
        x = nc.tensor(rand(3), requires_grad=True)
        y = nc.tensor(rand(3), requires_grad=True)
        nc.backward(nc.sum_(x))
        assert y.grad is None  # zero by convention: never touched


OPS = {
    "silu": lambda x: nc.sum_(nc.silu(x)),
    "glu": lambda x: nc.sum_(nc.glu(x)),
    "log_softmax": lambda x: nc.sum_(nc.mul(nc.log_softmax(x), nc.tensor(rand(3, 6, seed=9)))),
    "layer_norm": lambda x: nc.sum_(nc.mul(nc.layer_norm(x), nc.tensor(rand(3, 6, seed=9)))),
    "matmul": lambda x: nc.sum_(nc.matmul(x, nc.tensor(rand(6, 2, seed=4)))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    x = nc.tensor(rand(3, 6, seed=17) * 0.7)
    err = nc.finite_difference_check(OPS[name], x, eps=1e-6)
    assert err <= 1e-5, f"{name}: {err}"


# keys 7..8 of 9 hidden in row 0, key 8 in row 1 (B x 1 x 1 x Tk)
KEY_MASK9 = (np.arange(9) >= np.array([7, 8])[:, None])[:, None, None, :]
KEY_MASK = (np.arange(5) >= np.array([3, 5])[:, None])[:, None, None, :]  # row 0 sees 3 of 5 keys
CAUSAL = (np.arange(4)[None, :] > np.arange(4)[:, None])[None, None]
DRAWS = np.random.default_rng(30).random((2, 2, 3, 5))

# fused op -> (inputs, function of the input tensors); each input's gradient is checked
FUSED = {
    "linear_2d": ({"x": rand(3, 6, seed=1), "w": rand(6, 4, seed=2), "b": rand(4, seed=3)},
                  lambda a: nc.matmul(a["x"], a["w"], a["b"])),
    "linear_3d": ({"x": rand(2, 3, 6, seed=1), "w": rand(6, 4, seed=2), "b": rand(4, seed=3)},
                  lambda a: nc.matmul(a["x"], a["w"], a["b"])),
    "layer_norm": ({"x": rand(2, 3, 6, seed=1), "gain": rand(6, seed=2), "bias": rand(6, seed=3)},
                   lambda a: nc.layer_norm(a["x"], a["gain"], a["bias"])),
    "attention_key_mask": ({"q": rand(2, 3, 8, seed=1), "k": rand(2, 5, 8, seed=2),
                            "v": rand(2, 5, 8, seed=3)},
                           lambda a: nc.attention(a["q"], a["k"], a["v"], 2, mask=KEY_MASK)),
    "attention_causal": ({"q": rand(2, 4, 8, seed=1), "k": rand(2, 4, 8, seed=2),
                          "v": rand(2, 4, 8, seed=3)},
                         lambda a: nc.attention(a["q"], a["k"], a["v"], 2, mask=CAUSAL)),
    "attention_dropout": ({"q": rand(2, 3, 8, seed=1), "k": rand(2, 5, 8, seed=2),
                           "v": rand(2, 5, 8, seed=3)},
                          lambda a: nc.attention(a["q"], a["k"], a["v"], 2, mask=KEY_MASK,
                                                 rate=0.3, draws=DRAWS)),
    "attention_shared_kv": ({"q": rand(3, 2, 8, seed=1), "k": rand(1, 5, 8, seed=2),
                             "v": rand(1, 5, 8, seed=3)},
                            lambda a: nc.attention(a["q"], a["k"], a["v"], 4, mask=KEY_MASK[:1])),
}


@pytest.mark.parametrize("op,var", [(op, var) for op in FUSED for var in FUSED[op][0]])
def test_fused_op_gradients_match_finite_differences(op, var):
    args, fn = FUSED[op]
    out_shape = fn({k: nc.tensor(v) for k, v in args.items()}).shape
    weights = nc.tensor(rand(*out_shape, seed=9))

    def f(value):
        a = {k: nc.tensor(v) for k, v in args.items()}
        a[var] = value
        return nc.sum_(nc.mul(fn(a), weights))

    # eps 1e-5: at 1e-6 the rounding of f (about 1e-16 / eps) is 4e-5 of the
    # smallest key gradient (1e-5) of attention_key_mask
    err = nc.finite_difference_check(f, nc.tensor(args[var] * 0.7), eps=1e-5)
    assert err <= 1e-5, (op, var, err)


def test_attention_matches_per_head_reference():
    """Each head attends with its own slice of the features, a hidden key gets
    no weight, dropout scales the kept weights, and K/V of batch 1 serve every
    query row."""
    q, k, v = rand(3, 4, 8, seed=1), rand(1, 5, 8, seed=2), rand(1, 5, 8, seed=3)
    key_draws = DRAWS[0, 0, 0]  # one draw per key, the same for every head and query
    for heads in (1, 4):
        draws = np.ascontiguousarray(np.broadcast_to(key_draws, (3, heads, 4, 5)))
        got = nc.attention(nc.tensor(q), nc.tensor(k), nc.tensor(v), heads,
                           mask=(np.arange(5) >= 4)[None, None, None], rate=0.3, draws=draws)
        dh = 8 // heads
        want = np.zeros((3, 4, 8))
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = q[:, :, cols] @ k[0, :, cols].T / np.sqrt(dh)
            s[:, :, 4] = -np.inf
            w = np.exp(s - s.max(axis=-1, keepdims=True))
            w = w / w.sum(axis=-1, keepdims=True) * (key_draws >= 0.3) / 0.7
            want[:, :, cols] = w @ v[0, :, cols]
        assert np.abs(got.data - want).max() <= 1e-12, heads


def test_conv_gradients():
    w = nc.tensor(rand(5, 3, 4, seed=2) * 0.3)
    dw = nc.tensor(rand(5, 4, seed=6) * 0.3)

    def f(x):
        h = nc.conv1d(x, w, None, stride=2, padding=2)
        h = nc.depthwise_conv1d(h, dw, None, padding=2)
        return nc.sum_(nc.silu(h))

    x = nc.tensor(rand(2, 12, 3, seed=8) * 0.5)
    assert nc.finite_difference_check(f, x, eps=1e-6) <= 1e-5

    # weight gradients, checked by treating the weight as the variable
    x0 = nc.tensor(rand(2, 12, 3, seed=8) * 0.5)

    def g(wv):
        return nc.sum_(nc.silu(nc.conv1d(x0, wv, None, stride=2, padding=2)))

    assert nc.finite_difference_check(g, w, eps=1e-6) <= 1e-5

    # every input of both convolutions (kernel 5), biases included, over
    # input lengths that leave 0, 1 or 2 frames past the last window
    for t, stride, padding in [(12, 2, 2), (13, 2, 2), (14, 2, 2),
                               (12, 3, 0), (13, 3, 0), (14, 3, 0)]:
        args = {"x": rand(2, t, 3, seed=8) * 0.5, "w": rand(5, 3, 4, seed=2) * 0.3,
                "b": rand(4, seed=3) * 0.3, "dw": rand(5, 4, seed=6) * 0.3,
                "db": rand(4, seed=7) * 0.3}

        def both(var, value):
            a = {k: nc.tensor(v) for k, v in args.items()}
            a[var] = value
            h = nc.conv1d(a["x"], a["w"], a["b"], stride=stride, padding=padding)
            h = nc.depthwise_conv1d(h, a["dw"], a["db"], padding=2)
            return nc.sum_(nc.silu(h))

        for var in args:
            err = nc.finite_difference_check(lambda v: both(var, v), nc.tensor(args[var]))
            assert err <= 1e-5, (t, stride, padding, var, err)

        # frames that no window covers get exactly zero gradient, the others not
        xt = nc.tensor(args["x"], requires_grad=True)
        out = nc.conv1d(xt, nc.tensor(args["w"]), None, stride=stride, padding=padding)
        nc.backward(out, rand(*out.shape, seed=4))
        covered = stride * (out.shape[1] - 1) + 5 - padding
        assert np.array_equal(xt.grad[:, covered:], np.zeros((2, max(t - covered, 0), 3)))
        assert np.all(xt.grad[:, :covered] != 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_overlap_add_equals_scatter(dtype):
    """The window-gradient adjoint gives the same bits as an np.add.at scatter."""
    for t, kernel, stride, padding in [(13, 5, 2, 2), (14, 5, 3, 0), (40, 7, 1, 3), (9, 15, 1, 7)]:
        t_out = nc.conv1d_out_len(t, kernel, stride, padding)
        gwin = rand(3, t_out, kernel, 4, seed=t + kernel).astype(dtype) * 10.0
        ref = np.zeros((3, t + 2 * padding, 4), dtype)
        idx = np.arange(t_out)[:, None] * stride + np.arange(kernel)
        np.add.at(ref, (slice(None), idx, slice(None)), gwin)
        assert np.array_equal(nc._overlap_add(gwin, t, stride, padding), ref[:, padding:padding + t])


def test_embedding_gradient_scatter():
    w = nc.tensor(rand(5, 3), requires_grad=True)
    out = nc.embedding(w, np.array([1, 1, 4]))
    nc.backward(nc.sum_(out))
    expect = np.zeros((5, 3))
    expect[1] = 2.0
    expect[4] = 1.0
    assert np.array_equal(w.grad, expect)


def test_masked_positions_zero_grad():
    """Hidden keys get no weight, so their keys and values get zero gradient."""
    q = nc.tensor(rand(2, 3, 8, seed=1), requires_grad=True)
    k = nc.tensor(rand(2, 5, 8, seed=2), requires_grad=True)
    v = nc.tensor(rand(2, 5, 8, seed=3), requires_grad=True)
    nc.backward(nc.sum_(nc.mul(nc.attention(q, k, v, 2, mask=KEY_MASK), nc.tensor(rand(2, 3, 8)))))
    for t in (k, v):
        assert not t.grad[0, 3:].any() and not t.grad[1, 5:].any()
        assert np.all(t.grad[0, :3] != 0) and np.all(t.grad[1] != 0)


def test_determinism():
    x = rand(3, 5, seed=11)
    a = nc.log_softmax(nc.tensor(x)).data
    b = nc.log_softmax(nc.tensor(x)).data
    assert np.array_equal(a, b)


def test_fd_check_exact_for_sum():
    x = nc.tensor(rand(2, 3, seed=13))
    assert nc.finite_difference_check(lambda t: nc.sum_(t), x) <= 1e-8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_equals_mean_formulation(dtype):
    """layer_norm's reductions give the same bits as the ndarray.mean form."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(1, 130)))
        x = (rng.standard_normal(shape) * rng.uniform(0.01, 100.0)).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        y = xc * inv
        dx = inv * (g - g.mean(axis=-1, keepdims=True)
                    - y * (g * y).mean(axis=-1, keepdims=True))
        t = nc.tensor(x, requires_grad=True)
        out = nc.layer_norm(t)
        nc.backward(out, g)
        assert out.dtype == dtype and t.grad.dtype == dtype
        assert np.array_equal(out.data, y)
        assert np.array_equal(t.grad, dx)
