"""Unit tests for the U-Net backbone."""

import numpy as np
import pytest

from repro.nn import Tensor, UNet, UNetConfig
from repro.nn import functional as F
from repro.nn.unet import ResidualBlock, SelfAttention2d, TimestepEmbedding, _norm_groups


def tiny_config(**overrides) -> UNetConfig:
    base = dict(
        in_channels=4,
        num_classes=2,
        image_size=8,
        model_channels=8,
        channel_mult=(1, 2),
        num_res_blocks=1,
        attention_resolutions=(4,),
        dropout=0.0,
        seed=0,
    )
    base.update(overrides)
    return UNetConfig(**base)


def one_hot_input(x, num_classes=2):
    n, c, h, w = x.shape
    encoded = np.zeros((n, c, num_classes, h, w), dtype=np.float32)
    for cls in range(num_classes):
        encoded[:, :, cls][x == cls] = 1.0
    return Tensor(encoded.reshape(n, c * num_classes, h, w))


class TestHelpers:
    def test_norm_groups_divides(self):
        assert _norm_groups(16) == 8
        assert _norm_groups(12) == 4
        assert _norm_groups(7) == 1

    def test_timestep_embedding_shape(self):
        emb = TimestepEmbedding(8, 32, np.random.default_rng(0))
        out = emb(F.sinusoidal_embedding(np.array([1, 5, 9]), 8))
        assert out.shape == (3, 32)

    def test_residual_block_preserves_spatial_shape(self):
        rng = np.random.default_rng(0)
        block = ResidualBlock(4, 8, 16, 0.0, rng)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))
        t = Tensor(rng.normal(size=(2, 16)).astype(np.float32))
        assert block(x, t).shape == (2, 8, 6, 6)

    def test_attention_preserves_shape(self):
        rng = np.random.default_rng(0)
        attn = SelfAttention2d(8, rng)
        x = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
        assert attn(x).shape == (2, 8, 4, 4)


class TestUNetConfig:
    def test_paper_defaults(self):
        cfg = UNetConfig(in_channels=16, image_size=32, paper_defaults=True)
        assert cfg.model_channels == 128
        assert cfg.channel_mult == (1, 2, 2, 2)

    def test_rejects_indivisible_image_size(self):
        with pytest.raises(ValueError):
            UNetConfig(in_channels=4, image_size=6, channel_mult=(1, 2, 2))


class TestUNetForwardBackward:
    def test_output_shape(self):
        net = UNet(tiny_config())
        x = np.random.default_rng(0).integers(0, 2, size=(2, 4, 8, 8))
        out = net(one_hot_input(x), np.array([1, 3]))
        assert out.shape == (2, 4, 2, 8, 8)

    def test_output_depends_on_timestep(self):
        net = UNet(tiny_config())
        net.eval()
        x = np.random.default_rng(0).integers(0, 2, size=(1, 4, 8, 8))
        out_a = net(one_hot_input(x), np.array([1])).numpy()
        out_b = net(one_hot_input(x), np.array([7])).numpy()
        assert not np.allclose(out_a, out_b)

    def test_gradients_reach_every_parameter(self):
        net = UNet(tiny_config())
        x = np.random.default_rng(0).integers(0, 2, size=(2, 4, 8, 8))
        logits = net(one_hot_input(x), np.array([2, 5]))
        target = np.zeros(logits.shape, dtype=np.float32)
        target[:, :, 0] = 1.0
        loss = F.cross_entropy_with_logits(logits, target, axis=2)
        loss.backward()
        missing = [name for name, p in net.named_parameters() if p.grad is None]
        assert missing == []

    def test_three_level_configuration_runs(self):
        net = UNet(tiny_config(image_size=16, channel_mult=(1, 2, 2), in_channels=1))
        x = np.random.default_rng(0).integers(0, 2, size=(1, 1, 16, 16))
        out = net(one_hot_input(x), np.array([1]))
        assert out.shape == (1, 1, 2, 16, 16)

    def test_deterministic_given_seed(self):
        cfg = tiny_config()
        net_a, net_b = UNet(cfg), UNet(cfg)
        x = np.random.default_rng(1).integers(0, 2, size=(1, 4, 8, 8))
        out_a = net_a(one_hot_input(x), np.array([3])).numpy()
        out_b = net_b(one_hot_input(x), np.array([3])).numpy()
        np.testing.assert_allclose(out_a, out_b)

    def test_parameter_count_grows_with_width(self):
        small = UNet(tiny_config(model_channels=8)).num_parameters()
        large = UNet(tiny_config(model_channels=16)).num_parameters()
        assert large > small * 2
