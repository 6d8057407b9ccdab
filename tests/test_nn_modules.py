"""Unit tests for the module system, layers, optimisers and serialisation."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    Conv2d,
    Dropout,
    Embedding,
    GroupNorm,
    Identity,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    SiLU,
    Tensor,
    UNet,
    UNetConfig,
    clip_grad_norm,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn import functional as F
from repro.nn.unet import (
    Downsample,
    ResidualBlock,
    SelfAttention2d,
    TimestepEmbedding,
    Upsample,
)


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.act = SiLU()
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))


class TestModuleSystem:
    def test_parameter_registration_recursive(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_propagates(self):
        net = Sequential(Dropout(0.5), Linear(2, 2))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self):
        net = TinyNet()
        out = net(Tensor(np.ones((3, 4), dtype=np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self):
        net = TinyNet()
        state = net.state_dict()
        other = TinyNet()
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_state_dict_rejects_missing_keys(self):
        net = TinyNet()
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_checkpoint_roundtrip(self, tmp_path):
        net = TinyNet()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(net, path)
        other = TinyNet()
        load_checkpoint(other, path)
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        np.testing.assert_allclose(net(x).numpy(), other(x).numpy())


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((7, 5), dtype=np.float32)))
        assert out.shape == (7, 3)

    def test_linear_without_bias(self):
        layer = Linear(5, 3, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert sum(1 for _ in layer.parameters()) == 1

    def test_conv2d_output_shape(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = layer(Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_groupnorm_validates_divisibility(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 8)

    def test_groupnorm_identity_stats(self):
        layer = GroupNorm(2, 4)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 3, 3)).astype(np.float32))
        out = layer(x).numpy()
        assert abs(out.mean()) < 0.1

    def test_layernorm_shape(self):
        layer = LayerNorm(6)
        out = layer(Tensor(np.ones((2, 5, 6), dtype=np.float32)))
        assert out.shape == (2, 5, 6)

    def test_identity_passthrough(self):
        x = Tensor(np.arange(4, dtype=np.float32))
        assert np.array_equal(Identity()(x).numpy(), x.numpy())

    def test_embedding_lookup_and_range_check(self):
        layer = Embedding(10, 4, rng=np.random.default_rng(0))
        out = layer(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        with pytest.raises(IndexError):
            layer(np.array([10]))

    def test_dropout_respects_training_flag(self):
        layer = Dropout(0.9, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100,), dtype=np.float32))
        layer.eval()
        np.testing.assert_array_equal(layer(x).numpy(), x.numpy())
        layer.train()
        assert (layer(x).numpy() == 0.0).any()


class TestOptimisers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0], dtype=np.float32)
        param = Parameter(np.zeros(2, dtype=np.float32))

        def loss_fn():
            diff = param - Tensor(target)
            return (diff * diff).sum()

        return param, target, loss_fn

    def test_sgd_converges_on_quadratic(self):
        param, target, loss_fn = self._quadratic_problem()
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            loss = loss_fn()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_sgd_momentum_converges(self):
        param, target, loss_fn = self._quadratic_problem()
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            loss = loss_fn()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_adam_converges_on_quadratic(self):
        param, target, loss_fn = self._quadratic_problem()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            loss = loss_fn()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=5e-2)

    def test_adam_weight_decay_shrinks_weights(self):
        param = Parameter(np.full(4, 10.0, dtype=np.float32))
        opt = Adam([param], lr=0.1, weight_decay=0.5)
        for _ in range(100):
            loss = (param * 0.0).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.abs(param.data).max() < 10.0

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_clip_grad_norm_scales_down(self):
        param = Parameter(np.zeros(3, dtype=np.float32))
        param.grad = np.array([3.0, 4.0, 0.0], dtype=np.float32)
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-4)

    def test_clip_grad_norm_no_scale_when_small(self):
        param = Parameter(np.zeros(2, dtype=np.float32))
        param.grad = np.array([0.3, 0.4], dtype=np.float32)
        clip_grad_norm([param], max_norm=1.0)
        np.testing.assert_allclose(param.grad, [0.3, 0.4])


class TestTraining:
    def test_small_network_fits_nonlinear_regression(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 4)).astype(np.float32)
        y = np.tanh(x[:, :1] * 2.0 - x[:, 1:2]).astype(np.float32)
        net = Sequential(
            Linear(4, 16, rng=rng), SiLU(), Linear(16, 1, rng=rng)
        )
        opt = Adam(net.parameters(), lr=1e-2)
        first_loss = None
        for _ in range(300):
            pred = net(Tensor(x))
            diff = pred - Tensor(y)
            loss = (diff * diff).mean()
            if first_loss is None:
                first_loss = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first_loss * 0.2


# --------------------------------------------------------------------------- #
# one forward per layer: the taped and the array forward are the same kernels
# --------------------------------------------------------------------------- #
def _tiny_unet_config(dropout=0.0):
    return UNetConfig(
        in_channels=2, num_classes=2, image_size=8, model_channels=8, channel_mult=(1, 2),
        num_res_blocks=1, attention_resolutions=(4,), dropout=dropout, seed=0,
    )


def _normal(*shape):
    return np.random.default_rng(7).normal(size=shape).astype(np.float32)


#: case id -> (factory(rng) building the layer, factory() building its inputs).
#: Float inputs are activations (wrapped in a Tensor for the taped call);
#: integer inputs (token ids, timesteps) are passed as they are.
LAYER_CASES = {
    "Linear": (lambda rng: Linear(5, 3, rng=rng), lambda: [_normal(4, 5)]),
    "Conv2d": (lambda rng: Conv2d(3, 4, 3, padding=1, rng=rng), lambda: [_normal(2, 3, 6, 6)]),
    "Conv2d-stride2": (
        lambda rng: Conv2d(3, 4, 3, stride=2, padding=1, rng=rng),
        lambda: [_normal(2, 3, 6, 6)],
    ),
    "Conv2d-1x1": (lambda rng: Conv2d(3, 4, 1, rng=rng), lambda: [_normal(2, 3, 5, 5)]),
    "GroupNorm": (lambda rng: GroupNorm(2, 4), lambda: [_normal(2, 4, 3, 3) * 3.0 + 1.0]),
    "LayerNorm": (lambda rng: LayerNorm(6), lambda: [_normal(2, 5, 6) * 2.0 - 1.0]),
    "Dropout-train": (lambda rng: Dropout(0.5, rng=rng), lambda: [_normal(3, 8)]),
    "Embedding": (
        lambda rng: Embedding(10, 4, rng=rng),
        lambda: [np.array([[1, 2], [9, 0]])],
    ),
    "Identity": (lambda rng: Identity(), lambda: [_normal(2, 3)]),
    "SiLU": (lambda rng: SiLU(), lambda: [_normal(4, 5) * 4.0]),
    "ReLU": (lambda rng: ReLU(), lambda: [_normal(4, 5)]),
    "Sigmoid": (lambda rng: Sigmoid(), lambda: [_normal(4, 5) * 4.0]),
    "Sequential": (
        lambda rng: Sequential(Linear(5, 6, rng=rng), SiLU(), Linear(6, 2, rng=rng)),
        lambda: [_normal(3, 5)],
    ),
    "TimestepEmbedding": (
        lambda rng: TimestepEmbedding(8, 16, rng),
        lambda: [F.sinusoidal_embedding(np.array([1, 4, 7]), 8)],
    ),
    "ResidualBlock": (
        lambda rng: ResidualBlock(4, 8, 16, 0.0, rng),
        lambda: [_normal(2, 4, 6, 6), _normal(2, 16)],
    ),
    "SelfAttention2d": (lambda rng: SelfAttention2d(8, rng), lambda: [_normal(2, 8, 4, 4)]),
    "Downsample": (lambda rng: Downsample(4, rng), lambda: [_normal(2, 4, 6, 6)]),
    "Upsample": (lambda rng: Upsample(4, rng), lambda: [_normal(2, 4, 3, 3)]),
    "UNet": (
        lambda rng: UNet(_tiny_unet_config()),
        lambda: [_normal(3, 4, 8, 8), np.array([5, 5, 5])],
    ),
    "UNet-mixed-steps-dropout-train": (
        lambda rng: UNet(_tiny_unet_config(dropout=0.3)),
        lambda: [_normal(3, 4, 8, 8), np.array([1, 5, 2])],
    ),
}


def _build(case):
    make_layer, make_inputs = LAYER_CASES[case]
    return make_layer(np.random.default_rng(0)), make_inputs()


class TestOneForward:
    @pytest.mark.parametrize("case", sorted(LAYER_CASES))
    def test_taped_forward_equals_infer_exactly(self, case):
        # Two identically seeded layers, so a train-mode Dropout draws the
        # same mask on both calls.
        layer, inputs = _build(case)
        taped = layer(*[Tensor(a) if a.dtype.kind == "f" else a for a in inputs])
        layer, inputs = _build(case)
        inferred = layer.infer(*inputs)
        assert isinstance(taped, Tensor)
        assert type(inferred) is np.ndarray
        np.testing.assert_array_equal(taped.data, inferred)

    def test_every_layer_class_is_covered(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        layer_classes = {
            cls for cls in subclasses(Module) if cls.__module__.startswith("repro.nn.")
        }
        covered = {type(_build(case)[0]) for case in LAYER_CASES}
        assert layer_classes <= covered, sorted(c.__name__ for c in layer_classes - covered)

    def test_array_forward_builds_no_tensor(self, monkeypatch):
        layer, (x, timesteps) = _build("UNet")
        built = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        out = layer(x, timesteps)
        assert type(out) is np.ndarray
        assert built == []
