"""Tests for the autodiff engine: every primitive against central differences."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import erf

from biaxial import autodiff as ad
from biaxial import data as dt
from biaxial import model as md
from biaxial import training as tr
from biaxial.autodiff import backward, grad_check, tensor


def finite_diff(f, arrays, step=1e-5):
    """Central-difference gradients of a scalar f(*arrays) wrt each array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f(*arrays)
            flat[i] = orig - step
            fm = f(*arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * step)
        grads.append(g)
    return grads


def assert_close_rel(a, b, tol=1e-3):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    err = np.max(np.abs(a - b) / denom)
    assert err <= tol, f"max relative error {err} > {tol}"


class TestMatmul:
    def test_identity(self):
        a = tensor([[1.0, 0.0], [0.0, 1.0]])
        b = tensor([[2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_dot_product(self):
        # hand accumulation: 1*3 + 2*4 = 11
        out = ad.matmul(tensor([[1.0, 2.0]]), tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_gradient_matches_spec_value(self):
        a = tensor([[1.0, 2.0]], requires_grad=True)
        b = tensor([[3.0], [4.0]])
        loss = ad.sum_reduce(ad.matmul(a, b))
        backward(loss)
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]], atol=1e-10)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a_np = rng.uniform(-2, 2, (3, 4))
        b_np = rng.uniform(-2, 2, (4, 5))

        def f(a_arr, b_arr):
            return float((a_arr @ b_arr).sum() + ((a_arr @ b_arr) ** 2).sum())

        fd_a, fd_b = finite_diff(f, [a_np, b_np])
        a, b = tensor(a_np, requires_grad=True), tensor(b_np, requires_grad=True)
        c = ad.matmul(a, b)
        backward(ad.add(ad.sum_reduce(c), ad.sum_reduce(ad.mul(c, c))))
        assert_close_rel(a.grad, fd_a)
        assert_close_rel(b.grad, fd_b)

    def test_stacked_batch_gradient(self):
        rng = np.random.default_rng(1)
        a_np = rng.uniform(-2, 2, (2, 3, 4))
        b_np = rng.uniform(-2, 2, (2, 4, 3))
        fd_a, fd_b = finite_diff(lambda a, b: float(((a @ b) ** 2).sum()), [a_np, b_np])
        a, b = tensor(a_np, requires_grad=True), tensor(b_np, requires_grad=True)
        c = ad.matmul(a, b)
        backward(ad.sum_reduce(ad.mul(c, c)))
        assert_close_rel(a.grad, fd_a)
        assert_close_rel(b.grad, fd_b)

    def test_stacked_times_2d_gradient(self):
        rng = np.random.default_rng(2)
        a_np = rng.uniform(-2, 2, (2, 3, 4))
        w_np = rng.uniform(-2, 2, (4, 6))
        fd_a, fd_w = finite_diff(lambda a, w: float(((a @ w) ** 2).sum()), [a_np, w_np])
        a, w = tensor(a_np, requires_grad=True), tensor(w_np, requires_grad=True)
        c = ad.matmul(a, w)
        backward(ad.sum_reduce(ad.mul(c, c)))
        assert_close_rel(a.grad, fd_a)
        assert_close_rel(w.grad, fd_w)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_uniform_on_constant(self):
        out = ad.softmax(tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_large_inputs_do_not_overflow(self):
        out = ad.softmax(tensor([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_two_point_values(self):
        out = ad.softmax(tensor([1.0, 2.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.2689, 0.7311], atol=1e-4)

    def test_sums_to_one_up_to_magnitude_1e4(self):
        rng = np.random.default_rng(3)
        for scale in (1.0, 10.0, 1e3, 1e4):
            x = tensor(rng.uniform(-scale, scale, (5, 7)))
            out = ad.softmax(x, axis=1)
            np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-9)
            assert (out.data >= 0).all()

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x_np = rng.uniform(-2, 2, (3, 5))
        w = rng.uniform(-1, 1, (3, 5))

        def f(x_arr):
            e = np.exp(x_arr - x_arr.max(axis=1, keepdims=True))
            s = e / e.sum(axis=1, keepdims=True)
            return float((s * w).sum())

        (fd,) = finite_diff(f, [x_np])
        x = tensor(x_np, requires_grad=True)
        backward(ad.sum_reduce(ad.mul(ad.softmax(x, axis=1), tensor(w))))
        assert_close_rel(x.grad, fd)


class TestLayerNorm:
    def test_constant_slice_is_zeroed(self):
        out = ad.layer_norm(tensor([5.0, 5.0, 5.0]), tensor(np.ones(3)),
                            tensor(np.zeros(3)), eps=1e-5)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.0], atol=1e-12)

    def test_two_point_slice(self):
        out = ad.layer_norm(tensor([1.0, 3.0]), tensor(np.ones(2)),
                            tensor(np.zeros(2)), eps=1e-8)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-3)

    def test_normalized_statistics(self):
        rng = np.random.default_rng(5)
        x = tensor(rng.uniform(-2, 2, (4, 6)))
        out = ad.layer_norm(x, tensor(np.ones(6)), tensor(np.zeros(6)), eps=1e-12)
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(4), atol=1e-6)
        np.testing.assert_allclose(out.data.var(axis=1), np.ones(4), atol=1e-6)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        x_np = rng.uniform(-2, 2, (2, 4))
        g_np = rng.uniform(0.5, 1.5, 4)
        b_np = rng.uniform(-0.5, 0.5, 4)
        w = rng.uniform(-1, 1, (2, 4))
        eps = 1e-5

        def f(x_arr, g_arr, b_arr):
            mu = x_arr.mean(axis=1, keepdims=True)
            var = ((x_arr - mu) ** 2).mean(axis=1, keepdims=True)
            xh = (x_arr - mu) / np.sqrt(var + eps)
            return float(((g_arr * xh + b_arr) * w).sum())

        fd_x, fd_g, fd_b = finite_diff(f, [x_np, g_np, b_np])
        x = tensor(x_np, requires_grad=True)
        g = tensor(g_np, requires_grad=True)
        b = tensor(b_np, requires_grad=True)
        out = ad.layer_norm(x, g, b, eps=eps)
        backward(ad.sum_reduce(ad.mul(out, tensor(w))))
        assert_close_rel(x.grad, fd_x, tol=1e-4)
        assert_close_rel(g.grad, fd_g, tol=1e-4)
        assert_close_rel(b.grad, fd_b, tol=1e-4)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(ad.sum_reduce(w))
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic_gradient(self):
        w = tensor([1.0, 2.0], requires_grad=True)
        backward(ad.sum_reduce(ad.mul(w, w)))
        np.testing.assert_allclose(w.grad, [2.0, 4.0], atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(ad.mul(w, w))

    def test_repeated_backward_rejected(self):
        w = tensor([1.0], requires_grad=True)
        loss = ad.sum_reduce(w)
        backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            backward(loss)

    def test_detached_loss_warns(self):
        loss = ad.sum_reduce(tensor([1.0, 2.0]))
        with pytest.warns(UserWarning, match="no gradients"):
            backward(loss)

    def test_grad_accumulates_through_shared_subexpression(self):
        w = tensor([3.0], requires_grad=True)
        y = ad.mul(w, w)
        backward(ad.sum_reduce(ad.add(y, y)))
        np.testing.assert_allclose(w.grad, [12.0])

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        x_np = rng.uniform(-2, 2, (4, 4))

        def run():
            x = tensor(x_np, requires_grad=True)
            h = ad.gelu(ad.matmul(x, x))
            out = ad.softmax(h, axis=1)
            backward(ad.sum_reduce(ad.mul(out, out)))
            return x.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_tape_visits_each_node_once_in_reverse_topo_order(self):
        a = tensor([1.0], requires_grad=True)
        b = ad.mul(a, a)
        c = ad.add(b, a)
        d = ad.mul(c, b)
        tape = ad.GradientTape.from_root(d)
        seen = [id(n) for n in tape.nodes]
        assert len(seen) == len(set(seen))
        pos = {i: k for k, i in enumerate(seen)}
        for node in tape.nodes:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]


class TestElementwisePrimitives:
    @pytest.mark.parametrize("name,op,np_f", [
        ("relu", ad.relu, lambda x: np.maximum(x, 0.0)),
        ("gelu", ad.gelu, None),
        ("sigmoid", ad.sigmoid, lambda x: 1 / (1 + np.exp(-x))),
        ("log", ad.log, np.log),
    ])
    def test_gradient_vs_finite_differences(self, name, op, np_f):
        rng = np.random.default_rng(8)
        # keep log away from 0, relu away from its kink
        x_np = rng.uniform(0.3, 2.0, (3, 4))
        w = rng.uniform(-1, 1, (3, 4))

        def f(x_arr):
            t = op(tensor(x_arr)).data
            return float((t * w).sum())

        (fd,) = finite_diff(f, [x_np])
        x = tensor(x_np, requires_grad=True)
        backward(ad.sum_reduce(ad.mul(op(x), tensor(w))))
        assert_close_rel(x.grad, fd)

    def test_broadcast_add_mul_gradients(self):
        rng = np.random.default_rng(9)
        a_np = rng.uniform(-2, 2, (3, 4))
        b_np = rng.uniform(-2, 2, (4,))
        fd_a, fd_b = finite_diff(lambda a, b: float(((a + b) * b).sum()), [a_np, b_np])
        a = tensor(a_np, requires_grad=True)
        b = tensor(b_np, requires_grad=True)
        backward(ad.sum_reduce(ad.mul(ad.add(a, b), b)))
        assert_close_rel(a.grad, fd_a)
        assert_close_rel(b.grad, fd_b)

    def test_reductions_and_shape_ops(self):
        rng = np.random.default_rng(10)
        x_np = rng.uniform(-2, 2, (2, 3, 4))

        def f(x_arr):
            y = x_arr.transpose(1, 0, 2).reshape(3, 8)
            return float(y.max(axis=1).sum() + y.mean(axis=0).sum() + y.sum())

        (fd,) = finite_diff(f, [x_np])
        x = tensor(x_np, requires_grad=True)
        y = ad.reshape(ad.transpose(x, (1, 0, 2)), (3, 8))
        loss = ad.add(ad.add(ad.sum_reduce(ad.max_reduce(y, axis=1)),
                             ad.sum_reduce(ad.mean_reduce(y, axis=0))),
                      ad.sum_reduce(y))
        backward(loss)
        assert_close_rel(x.grad, fd)

    def test_concat_gradient(self):
        rng = np.random.default_rng(11)
        a_np = rng.uniform(-2, 2, (2, 3))
        b_np = rng.uniform(-2, 2, (2, 2))
        w = rng.uniform(-1, 1, (2, 5))
        fd_a, fd_b = finite_diff(
            lambda a, b: float((np.concatenate([a, b], axis=1) * w).sum()),
            [a_np, b_np])
        a = tensor(a_np, requires_grad=True)
        b = tensor(b_np, requires_grad=True)
        backward(ad.sum_reduce(ad.mul(ad.concat([a, b], axis=1), tensor(w))))
        assert_close_rel(a.grad, fd_a)
        assert_close_rel(b.grad, fd_b)

    def test_dropout_train_and_eval(self):
        x = tensor(np.ones((200, 10)), requires_grad=True)
        rng = np.random.default_rng(12)
        out = ad.dropout(x, 0.25, rng, train=True)
        kept = out.data != 0
        assert 0.6 < kept.mean() < 0.9
        np.testing.assert_allclose(out.data[kept], 1 / 0.75)
        assert ad.dropout(x, 0.25, None, train=False) is x

    def test_dropout_gradient_with_fixed_mask(self):
        x_np = np.random.default_rng(13).uniform(-2, 2, (5, 5))

        def f(x_arr):
            t = ad.dropout(tensor(x_arr), 0.4, np.random.default_rng(99), train=True)
            return float((t.data ** 2).sum())

        (fd,) = finite_diff(f, [x_np])
        x = tensor(x_np, requires_grad=True)
        out = ad.dropout(x, 0.4, np.random.default_rng(99), train=True)
        backward(ad.sum_reduce(ad.mul(out, out)))
        assert_close_rel(x.grad, fd)


class TestGelu:
    """The blocked A&S 7.1.26 kernel against scipy's erf, in both dtypes."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-7), (np.float32, 1e-6)])
    def test_values_match_scipy_erf(self, dtype, tol):
        x_np = np.concatenate([np.linspace(-12.0, 12.0, 48001),
                               [0.0, -0.0, 40.0, -40.0, np.inf]]).astype(dtype)
        with ad.compute_dtype(dtype):
            out = ad.gelu(tensor(x_np)).data
        x64 = x_np.astype(np.float64)
        ref = x64 * 0.5 * (1.0 + erf(x64 / math.sqrt(2.0)))
        finite = np.isfinite(x64)
        np.testing.assert_array_equal(out[~finite], [np.inf])
        err = np.abs(out[finite] - ref[finite]) / np.maximum(1.0, np.abs(x64[finite]))
        assert err.max() <= tol, f"max scaled error {err.max()} > {tol}"
        assert out[-4] == 0.0 and np.signbit(out[-4])        # gelu(-0.0) is -0.0

    def test_gradient_vs_finite_differences_across_signs(self):
        x_np = np.array([[-5.0, -3.2, -2.0, -1.1, -0.5, -0.2],
                         [-1e-3, -1e-6, 0.0, 1e-6, 1e-3, 0.05],
                         [-0.05, 0.2, 0.6, 1.3, 2.4, 4.0]])
        w = np.random.default_rng(8).uniform(-1, 1, x_np.shape)

        (fd,) = finite_diff(lambda a: float((ad.gelu(tensor(a)).data * w).sum()), [x_np])
        x = tensor(x_np, requires_grad=True)
        backward(ad.sum_reduce(ad.mul(ad.gelu(x), tensor(w))))
        assert_close_rel(x.grad, fd)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [0, 100, ad._GELU_BLOCK + 3],
                             ids=["empty", "below_one_block", "one_block_plus_3"])
    def test_blocks_match_elementwise(self, size, dtype):
        rng = np.random.default_rng(size)
        x_np, g_np = rng.uniform(-6, 6, size), rng.standard_normal(size)
        with ad.compute_dtype(dtype):
            x = tensor(x_np, requires_grad=True)
            out = ad.gelu(x)
            backward(ad.sum_reduce(ad.mul(out, tensor(g_np))))
            assert out.shape == x.grad.shape == (size,)
            # every element of a small input; beyond one block, every element
            # around the block edge plus a sample
            idx = np.arange(size)
            if size > ad._GELU_BLOCK:
                idx = np.unique(np.r_[0:3, ad._GELU_BLOCK - 3:size,
                                      rng.integers(0, size, 50)])
            for i in idx:
                xi = tensor(x_np[i:i + 1], requires_grad=True)
                yi = ad.gelu(xi)
                backward(ad.sum_reduce(ad.mul(yi, tensor(g_np[i:i + 1]))))
                assert yi.data[0] == out.data[i], i
                assert xi.grad[0] == x.grad[i], i


class TestRandomizedPrimitiveSweep:
    def test_all_primitives_within_rel_tolerance(self):
        # composite chain over random inputs in [-2, 2]
        rng = np.random.default_rng(14)
        for trial in range(5):
            x_np = rng.uniform(-2, 2, (3, 6))
            g_np = rng.uniform(0.5, 1.5, 6)
            b_np = rng.uniform(-0.5, 0.5, 6)
            params = {
                "x": tensor(x_np.copy(), requires_grad=True),
                "g": tensor(g_np.copy(), requires_grad=True),
                "b": tensor(b_np.copy(), requires_grad=True),
            }

            def f():
                h = ad.layer_norm(params["x"], params["g"], params["b"])
                h = ad.gelu(h)
                h = ad.softmax(h, axis=1)
                return ad.sum_reduce(ad.mul(h, h))

            report = grad_check(f, params, step=1e-5, tol=1e-3)
            assert report.passed, report


class TestGradCheck:
    def test_quadratic_passes(self):
        params = {"w": tensor([1.0, -2.0, 0.5], requires_grad=True)}

        def f():
            return ad.sum_reduce(ad.mul(params["w"], params["w"]))

        report = grad_check(f, params, step=1e-5, tol=1e-4)
        assert report.passed

    def test_constant_function_all_zero(self):
        params = {"w": tensor([1.0, 2.0], requires_grad=True)}

        def f():
            return ad.sum_reduce(ad.mul(params["w"], tensor([0.0, 0.0])))

        report = grad_check(f, params, step=1e-5, tol=1e-4)
        assert report.passed
        assert report.max_rel_error["w"] == 0.0

    def test_softmax_layernorm_chain_passes_at_1e3(self):
        rng = np.random.default_rng(15)
        params = {
            "x": tensor(rng.uniform(-2, 2, (2, 5)), requires_grad=True),
            "g": tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True),
        }
        zeros = tensor(np.zeros(5))
        # weight tensor must be constant across calls for FD to be valid
        w = tensor(np.random.default_rng(16).uniform(-1, 1, (2, 5)))

        def f():
            h = ad.layer_norm(params["x"], params["g"], zeros)
            return ad.sum_reduce(ad.mul(ad.softmax(h, axis=1), w))

        report = grad_check(f, params, step=1e-5, tol=1e-3)
        assert report.passed, report

    def test_float32_is_rejected(self):
        def float32_loss(w):
            with ad.compute_dtype(np.float32):
                return ad.sum_reduce(ad.mul(tensor(w.data), tensor(w.data)))

        with ad.compute_dtype(np.float32):
            params32 = {"w": tensor([1.0, 2.0], requires_grad=True)}
        with pytest.raises(TypeError, match="float64 parameters"):
            grad_check(lambda: float32_loss(params32["w"]), params32)
        params = {"w": tensor([1.0, 2.0], requires_grad=True)}
        with pytest.raises(TypeError, match="float64 loss"):
            grad_check(lambda: float32_loss(params["w"]), params)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda: tensor(0.0), {}, step=0.0)


def _preprocessor(rng):
    return dt.PreprocessorState(
        tv_mean=rng.standard_normal(3), tv_std=rng.uniform(0.5, 2.0, 3),
        static_mean=rng.standard_normal(4), static_std=rng.uniform(0.5, 2.0, 4),
        fitted_on="test")


class TestCheckpointRoundTrip:
    """Tape values survive training.save_checkpoint / load_checkpoint."""

    def test_value_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        cfg = md.BatConfig(sensors_count=3, value_embed_size=4, layers=1)
        arrays = {n: rng.standard_normal(a.shape)
                  for n, a in md.BatModel._init_arrays(cfg, rng).items()}
        path = tmp_path / "params.bax"
        tr.save_checkpoint(path, arrays, _preprocessor(rng), cfg,
                           meta={"kind": "test", "n": 3})
        back = tr.load_checkpoint(path)
        assert back["meta"] == {"kind": "test", "n": 3, "fitted_on": "test",
                                "model_cfg": asdict(cfg)}
        assert set(back["params"]) == set(arrays)
        for name in arrays:
            assert np.array_equal(back["params"][name], arrays[name])
            assert back["params"][name].shape == arrays[name].shape

    def test_identical_bytes_for_identical_content(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
        pp = _preprocessor(np.random.default_rng(0))
        p1, p2 = tmp_path / "a.bax", tmp_path / "b.bax"
        tr.save_checkpoint(p1, arrays, pp, md.BatConfig(), meta={"x": 1})
        tr.save_checkpoint(p2, arrays, pp, md.BatConfig(), meta={"x": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bax"
        path.write_bytes(b"NOTAPARM" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            tr.load_checkpoint(path)


def unfused_attention(q, k, v, heads, axis, key_bias, p, rng, train):
    """The transpose/matmul/mul/add/softmax/dropout/matmul chain that the
    fused attention core replaces, built from public primitives."""
    if axis == 1:
        q, k, v = (ad.transpose(t, (0, 2, 1, 3)) for t in (q, k, v))
    b, g, s, e = q.shape
    dk = e // heads
    split = lambda t: ad.transpose(ad.reshape(t, (b, g, s, heads, dk)), (0, 1, 3, 2, 4))
    q, k, v = split(q), split(k), split(v)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 2, 4, 3))),
                    tensor(1.0 / np.sqrt(dk)))
    if key_bias is not None:
        scores = ad.add(scores, tensor(key_bias.reshape(b, 1, 1, 1, s)))
    weights = ad.dropout(ad.softmax(scores, axis=-1), p, rng, train)
    ctx = ad.reshape(ad.transpose(ad.matmul(weights, v), (0, 1, 3, 2, 4)), (b, g, s, e))
    return ad.transpose(ctx, (0, 2, 1, 3)) if axis == 1 else ctx


class TestAttentionCore:
    SHAPE = (2, 3, 5, 4)       # (B, N1, N2, E)

    def _inputs(self, axis, masked, seed=20):
        rng = np.random.default_rng(seed)
        qkv = [rng.uniform(-2, 2, self.SHAPE) for _ in range(3)]
        w = rng.uniform(-1, 1, self.SHAPE)
        key_bias = None
        if masked:
            keys = rng.random((self.SHAPE[0], self.SHAPE[axis])) < 0.6
            keys[:, 0] = True
            key_bias = np.where(keys, 0.0, -1e9)
        return qkv, w, key_bias

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("train", [False, True])
    def test_matches_unfused_composition(self, heads, axis, masked, train):
        qkv, w, key_bias = self._inputs(axis, masked)
        outs, grads = [], []
        for attend in (ad._attention_core, unfused_attention):
            q, k, v = (tensor(a.copy(), requires_grad=True) for a in qkv)
            out = attend(q, k, v, heads, axis, key_bias, 0.3,
                         np.random.default_rng(21), train)
            outs.append(out.data.copy())
            backward(ad.sum_reduce(ad.mul(out, tensor(w))))
            grads.append([t.grad for t in (q, k, v)])
        fused, ref = outs
        np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=0)
        for g_fused, g_ref in zip(*grads):
            assert np.max(np.abs(g_fused - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))

    @pytest.mark.parametrize("heads,axis", [(1, 2), (2, 1)])
    def test_grad_check(self, heads, axis):
        qkv, w, key_bias = self._inputs(axis, masked=True, seed=22)
        params = {name: tensor(a, requires_grad=True) for name, a in zip("qkv", qkv)}

        def f():
            out = ad._attention_core(params["q"], params["k"], params["v"], heads, axis,
                                     key_bias, 0.3, np.random.default_rng(23), True)
            return ad.sum_reduce(ad.mul(out, tensor(w)))

        report = grad_check(f, params, tol=1e-6)
        assert report.passed, report

    def test_masked_keys_get_no_weight(self):
        qkv, _, key_bias = self._inputs(axis=2, masked=True, seed=24)
        q, k, v = (tensor(a) for a in qkv)
        out = ad._attention_core(q, k, v, 1, 2, key_bias, 0.0, None, False)
        v_changed = qkv[2] + 100.0 * (key_bias != 0.0)[:, None, :, None]
        out2 = ad._attention_core(q, k, tensor(v_changed), 1, 2, key_bias, 0.0, None, False)
        np.testing.assert_allclose(out.data, out2.data, rtol=0, atol=1e-9)

    def test_rejects_batch_axis(self):
        q = tensor(np.zeros(self.SHAPE))
        with pytest.raises(ValueError, match="axis"):
            ad._attention_core(q, q, q, 1, 0, None, 0.0, None, False)


class TestTapeRelease:
    @pytest.mark.parametrize("seed", range(4))
    def test_no_recorded_node_keeps_tape_state_after_backward(self, seed):
        rng = np.random.default_rng(seed)
        cfg = md.BatConfig(sensors_count=3, value_embed_size=4, layers=int(rng.integers(1, 3)),
                           heads=int(rng.choice([1, 2])), dropout=0.2, attn_dropout=0.2,
                           use_mask=bool(rng.integers(2)))
        model = md.BatModel.init(cfg, rng)
        values = rng.normal(size=(2, 3, 4))
        mask = rng.random((2, 3, 4)) < 0.7
        mask[:, 0, 0] = True
        loss = ad.sum_reduce(model.classify(values, mask, np.arange(4.0), np.zeros((2, 4)),
                                            train=True, rng=rng))
        nodes = ad.GradientTape.from_root(loss).nodes
        recorded = [n for n in nodes if n._grad_fn is not None]
        leaves = [n for n in nodes if n._grad_fn is None and n.requires_grad]
        assert recorded and leaves
        backward(loss)
        for node in recorded:
            assert node.grad is None and node._grad_fn is None and node._parents == ()
        assert all(leaf.grad is not None for leaf in leaves)

    def test_backward_through_released_shared_node_raises(self):
        # h feeds two losses; without the check a second backward reaching
        # h would add its stale gradient again (w.grad 9, not 3 + 3)
        w = tensor([1.0], requires_grad=True)
        h = ad.mul(w, tensor(3.0))
        backward(ad.sum_reduce(h))
        with pytest.raises(RuntimeError, match="released"):
            backward(ad.sum_reduce(ad.mul(h, tensor(1.0))))
        np.testing.assert_array_equal(w.grad, [3.0])

    def test_leaf_parameters_can_feed_many_graphs(self):
        w = tensor([2.0], requires_grad=True)
        backward(ad.sum_reduce(ad.mul(w, tensor(3.0))))
        backward(ad.sum_reduce(ad.mul(w, tensor(3.0))))
        np.testing.assert_array_equal(w.grad, [6.0])


class TestNoGrad:
    def test_eval_forward_records_nothing_and_is_bitwise_equal(self):
        cfg = md.BatConfig(sensors_count=3, value_embed_size=4, layers=2, heads=2,
                           dropout=0.2, attn_dropout=0.2)
        model = md.BatModel.init(cfg, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        batch = (rng.normal(size=(2, 3, 5)), rng.random((2, 3, 5)) < 0.6,
                 np.arange(5.0), rng.normal(size=(2, 4)))
        recorded = model.classify(*batch)
        assert recorded._grad_fn is not None
        with ad.no_grad():
            free = model.classify(*batch)
        assert free._grad_fn is None and free._parents == () and not free.requires_grad
        assert np.array_equal(free.data, recorded.data)
        # recording resumes after the block
        assert model.classify(*batch)._grad_fn is not None

    def test_restored_after_an_exception(self):
        w = tensor([1.0], requires_grad=True)
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError
        assert ad.mul(w, w).requires_grad


def reference_keep(rng, shape, p):
    """The keep rule spelled out: element i takes the low (even i) or high
    (odd i) half of raw 64-bit draw i // 2 and is kept when that 32-bit
    word is at least round(p * 2**32)."""
    n = math.prod(shape)
    raw = rng.bit_generator.random_raw((n + 1) // 2)
    words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(-1)[:n]
    return words.reshape(shape) >= round(p * 2 ** 32)


class TestDropoutMask:
    def test_bitwise_equal_to_float_mask(self):
        x = np.random.default_rng(40).normal(size=(50, 7))
        g = np.random.default_rng(41).normal(size=(50, 7))
        xt = tensor(x, requires_grad=True)
        out = ad.dropout(xt, 0.364, np.random.default_rng(42), train=True)
        backward(ad.sum_reduce(ad.mul(out, tensor(g))))
        keep = reference_keep(np.random.default_rng(42), x.shape, 0.364) / (1.0 - 0.364)
        assert np.array_equal(out.data, x * keep)
        assert np.array_equal(xt.grad, g * keep)

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.364, 0.5, 0.9])
    @pytest.mark.parametrize("shape", [(1,), (7,), (33, 17), (4, 3, 5, 11), (999, 1001)])
    def test_kept_fraction_and_repeatability(self, p, shape):
        seed = 100 + len(shape)
        keep, scale = ad._keep_mask(shape, p, np.random.default_rng(seed))
        assert keep.shape == shape and keep.dtype == bool and scale == 1.0 / (1.0 - p)
        n = keep.size
        assert abs(keep.sum() - n * (1 - p)) <= 5 * math.sqrt(n * p * (1 - p))
        again, _ = ad._keep_mask(shape, p, np.random.default_rng(seed))
        assert np.array_equal(keep, again)
        assert np.array_equal(keep, reference_keep(np.random.default_rng(seed), shape, p))

    def test_threshold_at_the_ends_of_p(self):
        rng = np.random.default_rng(7)
        for p in (1 - 1e-12, 1 - 2 ** -34):          # round(p * 2**32) == 2**32
            keep, _ = ad._keep_mask((1001,), p, rng)
            assert not keep.any()
        keep, _ = ad._keep_mask((1001,), 1e-12, rng)  # threshold 0
        assert keep.all()
