"""Unit and behaviour tests for the discrete diffusion generator."""

import numpy as np
import pytest

from repro.diffusion import DiffusionConfig, DiscreteDiffusion, linear_schedule
from repro.nn import UNet, UNetConfig
from repro.pipeline import SamplingEngine


def tiny_unet(channels=4, size=8, classes=2, dropout=0.0):
    return UNet(
        UNetConfig(
            in_channels=channels,
            num_classes=classes,
            image_size=size,
            model_channels=8,
            channel_mult=(1, 2),
            num_res_blocks=1,
            attention_resolutions=(4,),
            dropout=dropout,
            seed=0,
        )
    )


#: Loss history of ``test_loss_history_matches_recorded``'s run, recorded
#: when training still ran a separate taped forward (im2col convolution,
#: composite normalisation).  Training now runs the sampler's array kernels;
#: this gate keeps the change of numerics within float32 noise.
RECORDED_LOSSES = [
    0.7656537294387817,
    0.035068292170763016,
    0.17343519628047943,
    0.04386119544506073,
    0.03602989390492439,
    0.08089093118906021,
    0.33926665782928467,
    0.04333333298563957,
    0.04353133589029312,
    0.17094378173351288,
    0.33456140756607056,
    0.17114382982254028,
    0.6002860069274902,
    0.33139559626579285,
    0.03507154807448387,
    0.32486996054649353,
    0.03441719338297844,
    0.07849138975143433,
    0.5952895879745483,
    0.07909786701202393,
]


@pytest.fixture(scope="module")
def model():
    return DiscreteDiffusion(tiny_unet(), DiffusionConfig(num_steps=8, lambda_ce=0.05))


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    base = np.zeros((12, 4, 8, 8), dtype=np.int64)
    # simple structured data: solid vertical bars of random position/width
    for i in range(12):
        start = rng.integers(0, 6)
        base[i, :, :, start : start + 2] = 1
    return base


class TestConstruction:
    def test_schedule_step_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDiffusion(
                tiny_unet(), DiffusionConfig(num_steps=8), schedule=linear_schedule(16)
            )

    def test_num_classes_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDiffusion(tiny_unet(classes=1), DiffusionConfig(num_steps=8))

    def test_from_unet_config(self):
        model = DiscreteDiffusion.from_unet_config(
            UNetConfig(
                in_channels=4, num_classes=2, image_size=8, model_channels=8,
                channel_mult=(1, 2), num_res_blocks=1, attention_resolutions=(), dropout=0.0,
            ),
            DiffusionConfig(num_steps=4),
        )
        assert model.config.num_steps == 4


class TestLoss:
    def test_loss_is_finite_and_positive(self, model, data):
        loss, metrics = model.loss(data[:4], rng=0)
        assert np.isfinite(loss.item())
        assert metrics["loss"] >= 0.0
        assert 1 <= metrics["step"] <= model.config.num_steps

    def test_loss_at_fixed_step_one_reduces_to_ce(self, model, data):
        _, metrics = model.loss(data[:2], rng=0, k=1)
        # at k=1 the KL term equals -log p(x0|x1) up to the entropy of a
        # delta distribution (zero), so kl ~= ce
        assert metrics["kl"] == pytest.approx(metrics["ce"], rel=1e-3, abs=1e-3)

    def test_loss_rejects_bad_shape(self, model):
        with pytest.raises(ValueError):
            model.loss(np.zeros((2, 8, 8), dtype=np.int64))

    def test_loss_backward_produces_gradients(self, model, data):
        loss, _ = model.loss(data[:2], rng=1)
        model.model.zero_grad()
        loss.backward()
        grads = [p.grad for p in model.model.parameters() if p.grad is not None]
        assert grads and any(np.abs(g).sum() > 0 for g in grads)


class TestTraining:
    def test_fit_decreases_loss_on_simple_data(self, data):
        model = DiscreteDiffusion(tiny_unet(), DiffusionConfig(num_steps=8, lambda_ce=0.1))
        # Evaluate at a fixed timestep and fixed corruption before/after
        # training so the comparison is not dominated by timestep noise.
        fixed_step = 4
        before, _ = model.loss(data[:6], rng=123, k=fixed_step)
        model.fit(data, iterations=60, batch_size=6, rng=0)
        after, _ = model.loss(data[:6], rng=123, k=fixed_step)
        assert after.item() < before.item()

    def test_loss_history_matches_recorded(self, data):
        model = DiscreteDiffusion(
            tiny_unet(dropout=0.1), DiffusionConfig(num_steps=8, lambda_ce=0.05)
        )
        history = model.fit(data, iterations=20, batch_size=6, rng=0)
        losses = [h["loss"] for h in history]
        np.testing.assert_allclose(losses, RECORDED_LOSSES, rtol=1e-4)

    def test_fit_records_grad_norm(self, data):
        model = DiscreteDiffusion(tiny_unet(), DiffusionConfig(num_steps=4))
        history = model.fit(data, iterations=3, batch_size=4, rng=0)
        assert all("grad_norm" in h for h in history)

    def test_fit_rejects_bad_dataset_shape(self, model):
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 8, 8), dtype=np.int64), iterations=1)


class TestSampling:
    """Eq. 13's reverse process, walked by the production sampler."""

    @pytest.fixture(scope="class")
    def engine(self, model):
        return SamplingEngine(model, batch_size=8)

    def test_sample_shape_and_binary_values(self, engine):
        samples = engine.sample(3, seed=0)
        assert samples.shape == (3, 4, 8, 8)
        assert set(np.unique(samples)).issubset({0, 1})

    def test_sample_reproducible_with_seed(self, engine):
        a = engine.sample(2, seed=42)
        b = engine.sample(2, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_sample_chain_returned(self, engine):
        final, chain = engine.sample_chain(1, seed=0, chain_stride=2)
        assert len(chain) >= 2
        np.testing.assert_array_equal(chain[-1][0], final[0])
        # the chain starts from (roughly uniform) noise
        assert 0.2 < chain[0].mean() < 0.8

    def test_greedy_final_step_is_deterministic_given_chain(self, engine):
        for greedy_final in (True, False):
            a = engine.sample(1, seed=7, greedy_final=greedy_final)
            b = engine.sample(1, seed=7, greedy_final=greedy_final)
            np.testing.assert_array_equal(a, b)

    def test_sampling_leaves_model_in_train_mode(self, model, engine):
        model.model.train()
        engine.sample(1, seed=0)
        assert model.model.training
