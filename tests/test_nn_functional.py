"""Unit tests for repro.nn.functional (conv2d, norms, softmax, losses)."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


def naive_conv2d(x, w, b, stride, padding):
    """Reference convolution implemented with plain loops."""
    n, c, h, width = x.shape
    oc, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for oi in range(oc):
            for yi in range(out_h):
                for xi in range(out_w):
                    patch = xp[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum() + (b[oi] if b is not None else 0.0)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_forward_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=(4,)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 4, 3, 3))))


#: op name -> (function of its array/tensor inputs, input shapes).  The
#: hand-written backward passes: each is checked against finite differences.
GRADIENT_CASES = {
    "conv2d": (
        lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1),
        [(1, 2, 4, 4), (2, 2, 3, 3), (2,)],
    ),
    "group_norm": (lambda x, w, b: F.group_norm(x, 2, w, b), [(2, 4, 3, 3), (4,), (4,)]),
    "layer_norm": (F.layer_norm, [(3, 5), (5,), (5,)]),
    "softmax": (F.softmax, [(3, 4)]),
    "silu": (F.silu, [(2, 5)]),
}


class TestGradients:
    @pytest.mark.parametrize("op", sorted(GRADIENT_CASES))
    def test_gradients_match_finite_differences(self, op):
        fn, shapes = GRADIENT_CASES[op]
        rng = np.random.default_rng(1)
        inputs = [rng.normal(size=shape) for shape in shapes]
        # A random probe makes the loss a generic vector-Jacobian product
        # (a plain sum would give softmax a zero gradient).
        probe = rng.normal(size=fn(*inputs).shape)

        def loss_value():
            # Arrays in: the same kernel runs untaped, here in float64.
            return float((fn(*inputs) * probe).sum())

        tensors = [Tensor(a.astype(np.float32), requires_grad=True) for a in inputs]
        (fn(*tensors) * Tensor(probe)).sum().backward()

        eps = 1e-3
        for target, tensor in zip(inputs, tensors):
            flat = target.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                plus = loss_value()
                flat[i] = orig - eps
                minus = loss_value()
                flat[i] = orig
                numeric[i] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(tensor.grad.reshape(-1), numeric, rtol=1e-3, atol=1e-3)


class TestPoolingAndUpsampling:
    def test_upsample_nearest_values(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        up = F.upsample_nearest(x, 2)
        assert up.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(up.numpy()[0, 0, :2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(up.numpy()[0, 0, 2:, 2:], np.full((2, 2), 3.0))

    def test_upsample_gradient_sums_blocks(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        F.upsample_nearest(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        pooled = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(pooled.numpy()[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_requires_divisible(self):
        with pytest.raises(ValueError):
            F.avg_pool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32))
        probs = F.softmax(x, axis=-1).numpy()
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(3), rtol=1e-5)

    def test_softmax_stability_with_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]], dtype=np.float32))
        probs = F.softmax(x, axis=-1).numpy()
        np.testing.assert_allclose(probs, [[0.5, 0.5]], rtol=1e-5)

    def test_log_softmax_consistency(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32))
        np.testing.assert_allclose(
            F.log_softmax(x).numpy(), np.log(F.softmax(x).numpy() + 1e-12), atol=1e-4
        )

    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32))
        targets = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        assert F.cross_entropy_with_logits(logits, targets).item() < 1e-3

    def test_cross_entropy_uniform_prediction(self):
        logits = Tensor(np.zeros((5, 2), dtype=np.float32))
        targets = np.eye(2, dtype=np.float32)[np.zeros(5, dtype=int)]
        assert F.cross_entropy_with_logits(logits, targets).item() == pytest.approx(np.log(2), rel=1e-3)

    def test_kl_divergence_zero_when_matching(self):
        target = np.array([[0.25, 0.75]], dtype=np.float32)
        logits = Tensor(np.log(target))
        kl = F.kl_divergence_categorical(target, logits).item()
        assert abs(kl) < 1e-4

    def test_kl_divergence_positive_when_mismatched(self):
        target = np.array([[0.9, 0.1]], dtype=np.float32)
        logits = Tensor(np.zeros((1, 2), dtype=np.float32))
        assert F.kl_divergence_categorical(target, logits).item() > 0.1


class TestNormalisation:
    def test_group_norm_normalises_groups(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(2, 4, 5, 5)).astype(np.float32))
        weight = Tensor(np.ones(4, dtype=np.float32))
        bias = Tensor(np.zeros(4, dtype=np.float32))
        out = F.group_norm(x, 2, weight, bias).numpy()
        grouped = out.reshape(2, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=-1), np.zeros((2, 2)), atol=1e-4)
        np.testing.assert_allclose(grouped.std(axis=-1), np.ones((2, 2)), atol=1e-2)

    def test_group_norm_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            F.group_norm(Tensor(np.zeros((1, 3, 2, 2))), 2, Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_layer_norm_normalises_last_axis(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(loc=-1.0, scale=3.0, size=(4, 8)).astype(np.float32))
        out = F.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-4)


class TestDropoutAndEmbeddingInputs:
    def test_dropout_identity_in_eval(self):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_dropout_scales_surviving_units(self):
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True).numpy()
        assert set(np.unique(out)).issubset({0.0, 2.0})
        assert abs(out.mean() - 1.0) < 0.15

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0), training=True)

    def test_sinusoidal_embedding_shape_and_range(self):
        emb = F.sinusoidal_embedding(np.array([0, 1, 100]), 16)
        assert emb.shape == (3, 16)
        assert np.abs(emb).max() <= 1.0 + 1e-6

    def test_sinusoidal_embedding_distinguishes_timesteps(self):
        emb = F.sinusoidal_embedding(np.array([1, 2]), 32)
        assert not np.allclose(emb[0], emb[1])

    def test_sinusoidal_embedding_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            F.sinusoidal_embedding(np.array([1]), 15)
