"""Tests for the autodiff engine: every primitive against central differences."""

import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    @pytest.mark.usefixtures("float64")
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
    @pytest.mark.usefixtures("float64")
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equals_three_exp_formula(self, dtype):
        fi = np.finfo(dtype)
        specials = [0.0, -0.0, fi.smallest_subnormal, -fi.smallest_subnormal,
                    fi.tiny, -fi.tiny, np.inf, -np.inf, np.nan, -np.nan, fi.max, -fi.max]
        x_np = np.concatenate([np.linspace(-120.0, 120.0, 4801), specials,
                               np.random.default_rng(4).standard_normal(2000) * 20]
                              ).astype(dtype)
        bits = f"u{x_np.itemsize}"
        with ad.compute_dtype(dtype), np.errstate(all="ignore"):
            out = ad.sigmoid(tensor(x_np)).data
            ref = np.where(x_np >= 0, 1.0 / (1.0 + np.exp(-np.abs(x_np))),
                           np.exp(-np.abs(x_np)) / (1.0 + np.exp(-np.abs(x_np))))
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.view(bits), ref.view(bits))

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

    @pytest.mark.usefixtures("float64")
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


def _copysign_cdf(x):
    """`ad._gelu_cdf` as it was with np.copysign setting the sign: the same
    passes in the same order, so its values are the kernel's own."""
    e = np.abs(x)
    e *= ad._GELU_P
    e += 1.0
    np.reciprocal(e, out=e)
    cdf = np.multiply(e, ad._GELU_POLY[-1])
    for a in ad._GELU_POLY[-2::-1]:
        cdf += a
        cdf *= e
    e = np.multiply(x, -0.5)
    e *= x
    np.exp(e, out=e)
    cdf *= e
    cdf += 0.5
    np.copysign(cdf, x, out=cdf)
    cdf += 0.5
    return cdf


def _gelu_grad(x_np, g_np):
    x = tensor(x_np, requires_grad=True)
    backward(ad.sum_reduce(ad.mul(ad.gelu(x), tensor(g_np))))
    return x.grad


class TestGelu:
    """The blocked A&S 7.1.26 kernel against scipy's erf, in both dtypes, and
    against the kernel it replaced: the np.copysign sign pass and a backward
    that recomputed Phi."""

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

    @pytest.mark.usefixtures("float64")
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bitwise_equals_copysign_kernel(self, dtype):
        fi = np.finfo(dtype)
        specials = [0.0, -0.0, fi.smallest_subnormal, -fi.smallest_subnormal,
                    fi.tiny / 4, -fi.tiny / 4, fi.tiny, -fi.tiny, 1e-35, -1e-35,
                    np.inf, -np.inf, np.nan, -np.nan, fi.max, -fi.max]
        x_np = np.concatenate([np.linspace(-40.0, 40.0, 8001), specials,
                               np.random.default_rng(3).standard_normal(2000)]
                              ).astype(dtype)
        bits = f"u{x_np.itemsize}"
        with ad.compute_dtype(dtype), np.errstate(all="ignore"):
            out = ad.gelu(tensor(x_np)).data
            ref = _copysign_cdf(x_np) * x_np
        np.testing.assert_array_equal(out.view(bits), ref.view(bits))

    def test_backward_multiplies_into_the_gradient_it_owns(self):
        rng = np.random.default_rng(3)
        x, w1, w2 = (tensor(rng.normal(size=s), requires_grad=True)
                     for s in ((3, 4), (4, 6), (6, 2)))
        b1, b2 = tensor(np.zeros(6)), tensor(np.zeros(2))
        h = ad.affine(x, w1, b1)
        a = ad.gelu(h)
        loss = ad.sum_reduce(ad.affine(a, w2, b2))
        received = {}
        for name, node in (("affine", h._node), ("gelu", a._node)):
            def grad_fn(g, fn=node._grad_fn, name=name):
                received[name] = g
                fn(g)
            node._grad_fn = grad_fn
        backward(loss)
        # w2's dx is made for GELU alone: GELU writes its dx into it
        assert received["gelu"].flags.writeable
        assert received["affine"] is received["gelu"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_is_half_g_at_tiny_x(self, dtype):
        x_np = np.array([0.0, -0.0, np.finfo(dtype).smallest_subnormal,
                         1e-35, -1e-35], dtype)
        g_np = np.array([1.0, -3.0, 0.7, 5.0, -0.25], dtype)
        with ad.compute_dtype(dtype), warnings.catch_warnings():
            warnings.simplefilter("error")                # 0 / 0 warns nothing
            grad = _gelu_grad(x_np, g_np)
        np.testing.assert_array_equal(grad, g_np / 2)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 4 * np.finfo(np.float32).eps),
                                            (np.float64, 1e-9)])
    def test_backward_matches_recomputed_cdf(self, dtype, tol):
        # tol is per unit |g|; Phi <= 1, so float32's 4 eps is 4 ulps of 1
        x_np = np.linspace(-12.0, 12.0, 24001).astype(dtype)
        g_np = np.random.default_rng(5).uniform(-2, 2, x_np.size).astype(dtype)
        with ad.compute_dtype(dtype):
            grad = _gelu_grad(x_np, g_np)
            x_pdf = np.exp(x_np * -0.5 * x_np) * x_np * ad._INV_SQRT2PI
            ref = (_copysign_cdf(x_np) + x_pdf) * g_np
        assert grad.dtype == dtype
        err = np.abs(grad - ref) / np.abs(g_np)
        assert err.max() <= tol, f"max error per unit |g| {err.max()} > {tol}"


class TestRandomizedPrimitiveSweep:
    @pytest.mark.usefixtures("float64")
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


@pytest.mark.usefixtures("float64")
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
    @pytest.mark.usefixtures("float64")
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
    @pytest.mark.usefixtures("float64")
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


def _bits(a):
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


def _two_sum_unbroadcast(g, shape):
    """`ad._unbroadcast` as it was: one np.sum over the leading axes, then
    one over the expanded size-1 axes."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _sums_rows_in_turn(g_shape, shape):
    """Whether `_two_sum_unbroadcast` adds whole rows in turn, the order of
    one einsum: it sums in one step, and the innermost axis of g longer
    than 1 is kept. Otherwise np.sum sums a contiguous run pairwise, or
    associates its two steps differently."""
    extra = len(g_shape) - len(shape)
    if extra and any(s == 1 and gs != 1 for s, gs in zip(shape, g_shape[extra:])):
        return False
    long_axes = [i for i, n in enumerate(g_shape) if n > 1]
    return not long_axes or (long_axes[-1] >= extra and shape[long_axes[-1] - extra] != 1)


def _max_attention(q, k, v, g, heads, axis, key_bias, p, rng):
    """`ad._attention_core`'s forward and backward as they were, with the
    softmax max from max(axis=-1); returns (ctx, dq, dk, dv) for output
    gradient g."""
    def split(a):
        return ad._split_heads(a, axis, heads)

    q5, k5, v5, g5 = map(split, (q, k, v, g))
    scale = 1.0 / math.sqrt(q.shape[3] // heads)
    w = q5 @ np.swapaxes(k5, -1, -2)
    w *= scale
    if key_bias is not None:
        w += key_bias.astype(w.dtype).reshape(q.shape[0], 1, 1, 1, -1)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.einsum("...i->...", w)[..., None]
    keep, drop_scale = ad._keep_mask(w.shape, p, rng) if p else (None, None)
    dropped = w if keep is None else ad._apply_keep(w, keep, drop_scale)
    ctx, dq, dk, dv = (np.empty_like(a) for a in (q, q, k, v))
    np.matmul(dropped, v5, out=split(ctx))
    np.matmul(np.swapaxes(dropped, -1, -2), g5, out=split(dv))
    ds = g5 @ np.swapaxes(v5, -1, -2)
    if keep is not None:
        ds = ad._apply_keep(ds, keep, drop_scale)
    ds -= np.einsum("...i,...i->...", ds, w)[..., None]
    ds *= w
    ds *= scale
    np.matmul(ds, k5, out=split(dq))
    np.matmul(np.swapaxes(ds, -1, -2), q5, out=split(dk))
    return ctx, dq, dk, dv


@st.composite
def _broadcast_shapes(draw):
    """(gradient shape, operand shape) pairs that numpy broadcasting makes."""
    shape = tuple(draw(st.lists(st.integers(1, 9), max_size=4)))
    lead = tuple(draw(st.lists(st.integers(1, 9), max_size=2)))
    grown = tuple(draw(st.integers(1, 9)) if n == 1 else n for n in shape)
    return lead + grown, shape


DTYPES = [np.float32, np.float64]


class TestReductionsBitwise:
    """The einsum column sums and the reduceat softmax max against the
    np.sum and max(axis=-1) formulas they replaced, bit for bit."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("x_shape, n", [((64, 12, 24, 16), 16), ((1536, 32), 32),
                                            ((64, 1, 20), 1), ((8, 17), 1), ((7, 3, 5), 2)])
    def test_affine_bias_gradient(self, dtype, x_shape, n):
        rng = np.random.default_rng(n)
        g_np = rng.standard_normal(x_shape[:-1] + (n,)).astype(dtype)
        with ad.compute_dtype(dtype):
            x = tensor(rng.standard_normal(x_shape))
            b = tensor(np.zeros(n), requires_grad=True)
            out = ad.affine(x, tensor(rng.standard_normal((x_shape[-1], n))), b)
            backward(ad.sum_reduce(ad.mul(out, tensor(g_np))))
        np.testing.assert_array_equal(_bits(b.grad), _bits(g_np.reshape(-1, n).sum(axis=0)))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(64, 12, 24, 16), (8, 48, 24, 128), (5, 7, 2), (9, 1)])
    def test_layer_norm_gain_and_bias_gradients(self, dtype, shape):
        rng = np.random.default_rng(len(shape))
        g_np = rng.standard_normal(shape).astype(dtype)
        n = shape[-1]
        with ad.compute_dtype(dtype):
            gain = tensor(np.ones(n), requires_grad=True)
            bias = tensor(np.zeros(n), requires_grad=True)
            out = ad.layer_norm(tensor(rng.standard_normal(shape)), gain, bias)
            backward(ad.sum_reduce(ad.mul(out, tensor(g_np))))
        other = tuple(range(len(shape) - 1))
        xhat = out.data                     # gain 1 and bias 0 leave xhat as it is
        np.testing.assert_array_equal(_bits(gain.grad), _bits((g_np * xhat).sum(axis=other)))
        np.testing.assert_array_equal(_bits(bias.grad), _bits(g_np.sum(axis=other)))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("g_shape, shape", [
        ((64, 12, 24, 16), (16,)), ((64, 12, 24, 16), (1, 12, 1, 16)),
        ((8, 48, 24, 128), (128,)), ((8, 48, 24, 128), (1, 48, 1, 128))])
    def test_unbroadcast_embedding_shapes(self, dtype, g_shape, shape):
        g = np.random.default_rng(3).standard_normal(g_shape).astype(dtype)
        np.testing.assert_array_equal(_bits(ad._unbroadcast(g, shape)),
                                      _bits(_two_sum_unbroadcast(g, shape)))

    @settings(max_examples=300, deadline=None)
    @given(shapes=_broadcast_shapes(), dtype=st.sampled_from(DTYPES), seed=st.integers(0, 99))
    def test_unbroadcast_sweep(self, shapes, dtype, seed):
        g_shape, shape = shapes
        g = np.random.default_rng(seed).standard_normal(g_shape).astype(dtype)
        out, ref = ad._unbroadcast(g, shape), _two_sum_unbroadcast(g, shape)
        assert out.shape == shape and out.dtype == dtype
        if _sums_rows_in_turn(g_shape, shape):
            np.testing.assert_array_equal(_bits(out), _bits(ref))
        else:           # the same sum in another order: within its rounding
            bound = 4 * np.finfo(dtype).eps * math.prod(g_shape) * np.abs(g).max(initial=0)
            assert np.abs(out - ref).max(initial=0) <= bound

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape, heads, axis", [
        ((2, 3, 5, 4), 1, 2), ((2, 7, 3, 4), 2, 1), ((3, 1, 4, 6), 2, 1),
        ((3, 4, 1, 6), 1, 2), ((2, 3, 24, 16), 1, 2), ((2, 12, 3, 16), 2, 1)])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_attention_core_with_row_max(self, dtype, shape, heads, axis, masked, p):
        rng = np.random.default_rng(shape[axis])
        s = shape[axis]
        qkv = [rng.uniform(-3, 3, shape).astype(dtype) for _ in range(3)]
        g_np = rng.standard_normal(shape).astype(dtype)
        key_bias = None
        if masked:
            keys = rng.random((shape[0], s)) < 0.5
            keys[-1, 0] = True
            keys[0] = s == 1                # batch 0 masks every key when S > 1
            key_bias = np.where(keys, 0.0, -1e9)
        with ad.compute_dtype(dtype):
            q, k, v = (tensor(a, requires_grad=True) for a in qkv)
            out = ad._attention_core(q, k, v, heads, axis, key_bias, p,
                                     np.random.default_rng(5), p > 0)
            backward(ad.sum_reduce(ad.mul(out, tensor(g_np))))
            ref = _max_attention(*qkv, g_np, heads, axis, key_bias, p,
                                 np.random.default_rng(5))
        for got, want in zip((out.data, q.grad, k.grad, v.grad), ref):
            assert got.dtype == dtype
            np.testing.assert_array_equal(_bits(got), _bits(want))


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
            assert node._rebuild is None and node._rebuilt is None
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


def _op(node):
    return node._grad_fn.__qualname__.split(".")[0]


def _freed(a):
    """A node's `.data` once nothing holds its array: a zero-stride view."""
    return a.ndim > 0 and not any(a.strides)


def _closure(node):
    fn = node._grad_fn
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))


# every op the model and losses call, plus the fused attention core
_MODEL_OPS = [name for name in ad.__all__ if callable(getattr(ad, name))
              and name not in ("Tensor", "GradientTape", "tensor", "backward",
                               "grad_check", "GradCheckReport")] + ["_attention_core"]


class TestSavedArrays:
    """A node keeps what its backward reads; every other output is freed as
    soon as the caller drops it."""

    CASES = [(arch, p, use_mask) for arch in sorted(md.ARCHS)
             for p in (0.0, 0.3) for use_mask in (False, True)]

    @staticmethod
    def _loss(arch, p, use_mask):
        cfg = md.BatConfig(sensors_count=3, value_embed_size=4, layers=2, heads=2,
                           dropout=p, attn_dropout=p, use_mask=use_mask)
        model = md.ARCHS[arch].init(cfg, np.random.default_rng(50))
        rng = np.random.default_rng(51)
        mask = rng.random((2, 3, 5)) < 0.6
        mask[:, :, 0] = True
        batch = (rng.normal(size=(2, 3, 5)), mask, np.arange(5.0), rng.normal(size=(2, 4)))
        probs = model.classify(*batch, train=True, rng=np.random.default_rng(52))
        return model, ad.sum_reduce(ad.mul(probs, tensor(rng.normal(size=2))))

    @pytest.mark.parametrize("arch,p,use_mask", CASES)
    def test_outputs_no_backward_reads_are_freed(self, arch, p, use_mask):
        model, loss = self._loss(arch, p, use_mask)
        nodes = [n for n in ad.GradientTape.from_root(loss).nodes if n._grad_fn is not None]
        unread = [n for n in nodes if _op(n) in ("add", "dropout")]
        # max pooling's backward reads its input, the last residual sum
        pooled = {id(parent) for n in nodes if _op(n) == "max_reduce" for parent in n._parents}
        unread = [n for n in unread if id(n) not in pooled]
        if arch == "bat":
            embed_muls = [n for n in nodes if _op(n) == "mul"][:-1]   # the last is the loss's
            assert len(embed_muls) == 3
            unread += embed_muls
        projections = [model.params[name] for name in model.params
                       if name.endswith(("/wo", "/w2"))]
        out_affines = [n for n in nodes if _op(n) == "affine"
                       and any(parent is w for parent in n._parents for w in projections)]
        assert len(out_affines) == len(projections)
        unread += out_affines
        branches = 2 if arch == "bat" else 1
        assert sum(_op(n) == "dropout" for n in unread) == (2 * (branches + 1) if p else 0)
        for node in unread:
            assert _freed(node.data), _op(node)
            assert node.data.shape == node.shape and node.data.dtype == node.dtype
        trunk_out = [n for n in nodes if id(n) in pooled and _op(n) == "add"]
        assert len(trunk_out) == 1 and not _freed(trunk_out[0].data)

    @pytest.mark.parametrize("arch,p,use_mask", CASES)
    def test_arrays_backward_reads_are_held(self, arch, p, use_mask, monkeypatch):
        made = {"layer_norm": [], "_attention_core": []}   # (node, copy of the output)

        def copying(fn):
            def op(*a, **k):
                out = fn(*a, **k)
                made[fn.__name__].append((out._node, out.data.copy()))
                return out
            return op

        for name in made:
            monkeypatch.setattr(ad, name, copying(getattr(ad, name)))
        _, loss = self._loss(arch, p, use_mask)
        nodes = [n for n in ad.GradientTape.from_root(loss).nodes if n._grad_fn is not None]
        by_op = {op: [n for n in nodes if _op(n) == op]
                 for op in ("_attention_core", "gelu", "layer_norm")}
        branches = 2 if arch == "bat" else 1
        assert [len(v) for v in by_op.values()] == [2 * branches, 2, 4]
        for node in by_op["_attention_core"]:          # q, k and v
            assert len(node._parents) == 3
            for held in node._parents:
                assert not _freed(held.data)
        for node in by_op["gelu"]:                     # output and input
            assert not _freed(node.data) and not _freed(node._parents[0].data)
        # a layer norm keeps xhat and the attention core its weights, mask
        # and v; each one's output is freed and rebuilt bitwise, and the
        # affines reading it keep the node
        for op, reader_count in (("layer_norm", 2 * (3 * branches + 1)),   # q, k, v, w1
                                 ("_attention_core", 2 * branches)):       # wo
            assert {id(n) for n, _ in made[op]} == {id(n) for n in by_op[op]}
            for node, out in made[op]:
                assert _freed(node.data)
                assert _bits(node.array()).tobytes() == _bits(out).tobytes()
            readers = [n for n in nodes if _op(n) == "affine"
                       and any(parent in by_op[op] for parent in n._parents)]
            assert len(readers) == reader_count
            for node in readers:
                assert _closure(node)["x_saved"] is node._parents[0]
        for node, _ in made["layer_norm"]:
            assert _closure(node)["xhat"].shape == node.shape

    @pytest.mark.parametrize("arch,p,use_mask", CASES)
    def test_branch_outputs_are_freed_when_the_ffn_starts(self, arch, p, use_mask,
                                                           monkeypatch):
        branches = 2 if arch == "bat" else 1
        checked = []
        gelu = ad.gelu

        def spying(x):
            below = [n for n in ad.GradientTape.from_root(x).nodes if n._grad_fn is not None]
            out_affines = [n for n in below if _op(n) == "affine" and any(
                parent._grad_fn is not None and _op(parent) == "_attention_core"
                for parent in n._parents)]
            dropouts = [n for n in below if _op(n) == "dropout"
                        and any(n._parents[0] is a for a in out_affines)]
            layer = len(checked)
            assert len(out_affines) == branches * (layer + 1)
            assert len(dropouts) == (branches * (layer + 1) if p else 0)
            for node in out_affines + dropouts:
                assert _freed(node.data), (layer, _op(node))
            checked.append(layer)
            return gelu(x)

        monkeypatch.setattr(ad, "gelu", spying)
        self._loss(arch, p, use_mask)
        assert checked == [0, 1]

    @pytest.mark.parametrize("arch,p,use_mask", CASES)
    def test_gradients_equal_a_run_that_keeps_every_output(self, arch, p, use_mask,
                                                           monkeypatch):
        model, loss = self._loss(arch, p, use_mask)
        backward(loss)
        freeing = {n: t.grad for n, t in model.params.items()}

        kept = []

        def keeping(fn):
            def op(*a, **k):
                kept.append(fn(*a, **k))
                return kept[-1]
            return op

        for name in _MODEL_OPS:
            monkeypatch.setattr(ad, name, keeping(getattr(ad, name)))
        model, loss = self._loss(arch, p, use_mask)
        assert not any(_freed(n.data) for n in ad.GradientTape.from_root(loss).nodes
                       if n._grad_fn is not None)
        backward(loss)
        assert kept
        for name, t in model.params.items():
            if freeing[name] is None:               # the forecast head
                assert t.grad is None, name
            else:
                assert _bits(t.grad).tobytes() == _bits(freeing[name]).tobytes(), name

    def test_a_norm_output_is_rebuilt_once_for_all_its_readers(self):
        rng = np.random.default_rng(4)
        x, w1, w2 = (tensor(rng.normal(size=s), requires_grad=True)
                     for s in ((2, 3, 4), (4, 5), (4, 5)))
        gain, bias, b = tensor(rng.normal(size=4)), tensor(rng.normal(size=4)), tensor(np.zeros(5))
        n = ad.layer_norm(x, gain, bias)
        loss = ad.sum_reduce(ad.add(ad.affine(n, w1, b), ad.affine(n, w2, b)))
        node, want = n._node, n.data.copy()
        del n
        assert _freed(node.data)
        rebuilt = []
        rebuild = node._rebuild
        node._rebuild = lambda: rebuilt.append(rebuild()) or rebuilt[-1]
        backward(loss)
        assert len(rebuilt) == 1
        assert _bits(rebuilt.pop()).tobytes() == _bits(want).tobytes()
        assert node._rebuilt is None and _freed(node.data)     # released by backward
        np.testing.assert_array_equal(w1.grad, w2.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_an_attention_context_is_rebuilt_once_for_all_its_readers(
            self, axis, heads, masked, p, dtype, monkeypatch):
        rng = np.random.default_rng(5)
        shape = (2, 3, 5, 4)
        arrays = [rng.normal(size=s) for s in (shape, shape, shape, (4, 5), (4, 5))]
        key_bias = None
        if masked:
            keys = rng.random((shape[0], shape[axis])) < 0.6
            keys[:, 0] = True
            key_bias = np.where(keys, 0.0, -1e9)
        apply_keep, passes = ad._apply_keep, []

        def counting(*a):
            passes.append(None)
            return apply_keep(*a)

        monkeypatch.setattr(ad, "_apply_keep", counting)
        runs = []
        for hold_context in (True, False):
            with ad.compute_dtype(dtype):
                q, k, v, w1, w2 = (tensor(a, requires_grad=True) for a in arrays)
                b = tensor(np.zeros(5))
                c = ad._attention_core(q, k, v, heads, axis, key_bias, p,
                                       np.random.default_rng(6), True)
                loss = ad.sum_reduce(ad.add(ad.affine(c, w1, b), ad.affine(c, w2, b)))
            node, want = c._node, c.data.copy()
            if not hold_context:
                del c
                assert _freed(node.data)
            rebuilt = []
            rebuild = node._rebuild
            node._rebuild = lambda: rebuilt.append(rebuild()) or rebuilt[-1]
            passes.clear()
            backward(loss)
            runs.append((len(passes), [t.grad for t in (q, k, v, w1, w2)]))
            assert len(rebuilt) == (0 if hold_context else 1)
            assert node._rebuilt is None
        assert _bits(rebuilt.pop()).tobytes() == _bits(want).tobytes()
        assert _freed(node.data)                    # released by the core's backward
        # the core's backward reads the rebuild's dropped weights for dv
        (held_count, held_grads), (count, grads) = runs
        assert count == held_count == (2 if p else 0)
        for got, ref in zip(grads, held_grads):
            assert got.dtype == dtype
            assert _bits(got).tobytes() == _bits(ref).tobytes()
        np.testing.assert_array_equal(grads[3], grads[4])

    def test_freed_data_is_a_zero_stride_view_of_the_shape(self):
        for dtype in (np.float32, np.float64):
            with ad.compute_dtype(dtype):
                x = tensor(np.ones((3, 4)), requires_grad=True)
                y = ad.add(x, x)
                h = ad.gelu(ad.add(y, x))
                node_y, node_h = y._node, h._node
                loss = ad.sum_reduce(h)
            del y, h
            assert _freed(node_y.data)          # only add reads y, and add keeps no array
            assert node_y.data.shape == (3, 4) and node_y.data.dtype == dtype
            assert not _freed(node_h.data)      # gelu's backward reads its output
            backward(loss)
            assert _freed(node_h.data)          # released by backward
            assert x.grad.dtype == dtype and x.grad.shape == (3, 4)

    def test_a_replaced_grad_fn_is_the_one_backward_calls(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, tensor([3.0, 4.0]))
        calls = []
        inner = y._grad_fn

        def wrapped(g):
            calls.append(g)
            inner(g)

        y._grad_fn = wrapped
        backward(ad.sum_reduce(y))
        assert len(calls) == 1
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])


def _hand_over(loss, read_only):
    """Wrap the backward of every recorded node below `loss`; returns the
    list that logs (op, whether its gradient arrived writable). With
    `read_only`, each gradient is handed on as a read-only view."""
    log = []
    for node in ad.GradientTape.from_root(loss).nodes:
        if node._grad_fn is None:
            continue

        def grad_fn(g, fn=node._grad_fn, op=_op(node)):
            writable = isinstance(g, np.ndarray) and g.flags.writeable
            log.append((op, writable))
            if read_only and writable:
                g = g.view()
                g.flags.writeable = False
            fn(g)

        node._grad_fn = grad_fn
    return log


def _assert_bitwise_equal(grads, want):
    """Gradients by name, bitwise; None (no gradient, e.g. the forecast
    head's) only where `want` has None too."""
    for name, g in grads.items():
        if g is None:
            assert want[name] is None, name
        else:
            assert _bits(g).tobytes() == _bits(want[name]).tobytes(), name


def _fed_twice_to_add(t):
    s = ad.add(*[ad.affine(t["x"], t["w1"], t["b1"])] * 2)
    return ad.mul(ad.add(ad.gelu(s), s), t["c"])


def _norm_feeding_two_affines(t):
    n = ad.layer_norm(t["x"], t["gain"], t["bias"])
    one = ad.mul(ad.gelu(ad.affine(n, t["w1"], t["b1"])), t["c"])
    return ad.add(one, ad.affine(ad.gelu(ad.affine(n, t["w2"], t["b1"])), t["w3"], t["b3"]))


def _gelu_input_read_elsewhere(t):
    h = ad.affine(t["x"], t["w1"], t["b1"])
    out = ad.affine(ad.gelu(h), t["w3"], t["b3"])
    return ad.add(ad.mul(out, t["c"]), ad.mul(h, t["d"]))


class TestOwnedGradients:
    """A backward writes only into a gradient its node owns: parameter
    gradients are bitwise those of a run that hands every gradient over
    read-only, so that nothing is written in place."""

    @pytest.mark.parametrize("arch,p,use_mask", TestSavedArrays.CASES)
    def test_model_gradients_equal_a_read_only_run(self, arch, p, use_mask):
        grads = {}
        for read_only in (False, True):
            model, loss = TestSavedArrays._loss(arch, p, use_mask)
            log = _hand_over(loss, read_only)
            backward(loss)
            grads[read_only] = {n: t.grad for n, t in model.params.items()}
            # GELU gets the w2 affine's dx writable and multiplies into it
            assert [w for op, w in log if op == "gelu"] == [True, True]
        _assert_bitwise_equal(grads[False], grads[True])

    @pytest.mark.parametrize("graph", [_fed_twice_to_add, _norm_feeding_two_affines,
                                       _gelu_input_read_elsewhere])
    @pytest.mark.usefixtures("float64")
    def test_fan_out_gradients_equal_a_read_only_run(self, graph):
        rng = np.random.default_rng(7)
        shapes = {"x": (2, 3, 4), "w1": (4, 5), "b1": (5,), "w2": (4, 5),
                  "w3": (5, 5), "b3": (5,), "gain": (4,), "bias": (4,),
                  "c": (2, 3, 5), "d": (2, 3, 5)}
        arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        grads, logs = {}, {}
        for read_only in (False, True):
            t = {name: tensor(a, requires_grad=True) for name, a in arrays.items()}
            loss = ad.sum_reduce(graph(t))
            logs[read_only] = _hand_over(loss, read_only)
            backward(loss)
            grads[read_only] = {name: v.grad for name, v in t.items()}
        assert any(w for _, w in logs[False])       # something was handed over writable
        _assert_bitwise_equal(grads[False], grads[True])
        used = {name: v for name, v in t.items() if v.grad is not None}
        for v in used.values():
            v.zero_grad()
        report = grad_check(lambda: ad.sum_reduce(graph(t)), used)
        assert report.passed, report


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
    @pytest.mark.usefixtures("float64")
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
