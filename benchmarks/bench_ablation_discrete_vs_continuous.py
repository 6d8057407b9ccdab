"""Ablation — discrete diffusion vs. the "naive" continuous DDPM + threshold.

Section III-C argues that running a Gaussian diffusion model on the binary
topology and thresholding its output wastes model capacity compared to the
discrete formulation.  This ablation trains both models with an identical
budget (same U-Net size, same number of iterations, same data) and compares
how well their samples respect the most basic structural property of layout
topologies: no bow-ties and non-trivial sparsity.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import write_result

from repro.diffusion import (
    DiffusionConfig,
    DiscreteDiffusion,
    GaussianDiffusionConfig,
    GaussianTopologyDiffusion,
    gaussian_unet_config,
)
from repro.nn import UNet, UNetConfig
from repro.pipeline import SamplingEngine
from repro.prefilter import TopologyPrefilter
from repro.squish import unfold

_ITERATIONS = 250
_NUM_SAMPLES = 12
_STEPS = 24


def _unet_config(num_classes: int, channels: int, spatial: int) -> UNetConfig:
    return UNetConfig(
        in_channels=channels,
        num_classes=num_classes,
        image_size=spatial,
        model_channels=8,
        channel_mult=(1, 2),
        num_res_blocks=1,
        attention_resolutions=(4,),
        dropout=0.0,
        seed=0,
    )


def _sample_quality(samples: np.ndarray) -> dict[str, float]:
    matrices = [unfold(t) for t in samples]
    prefilter = TopologyPrefilter()
    keep = prefilter.filter(matrices).keep_rate
    fill = float(np.mean([m.mean() for m in matrices]))
    return {"keep_rate": keep, "fill_ratio": fill}


def bench_ablation_discrete_vs_continuous(benchmark, bench_dataset):
    tensors = bench_dataset.topology_tensors("train")
    channels, spatial = tensors.shape[1], tensors.shape[2]
    train_fill = float(tensors.mean())

    discrete = DiscreteDiffusion(
        UNet(_unet_config(2, channels, spatial)),
        DiffusionConfig(num_steps=_STEPS, lambda_ce=0.05),
    )
    discrete.fit(tensors, iterations=_ITERATIONS, batch_size=8, rng=0)
    discrete_samples = benchmark.pedantic(
        lambda: SamplingEngine(discrete).sample(_NUM_SAMPLES, seed=0), rounds=1, iterations=1
    )
    discrete_quality = _sample_quality(discrete_samples)

    continuous = GaussianTopologyDiffusion(
        UNet(gaussian_unet_config(channels, spatial, model_channels=8, channel_mult=(1, 2),
                                  num_res_blocks=1, attention_resolutions=(4,), dropout=0.0, seed=0)),
        GaussianDiffusionConfig(num_steps=_STEPS),
    )
    continuous.fit(tensors, iterations=_ITERATIONS, batch_size=8, rng=0)
    continuous_quality = _sample_quality(continuous.sample(_NUM_SAMPLES, rng=0))

    lines = [
        f"training fill ratio of real topologies: {train_fill:.3f}",
        "",
        "model                      prefilter keep rate   sample fill ratio",
        f"{'discrete diffusion':<26}{discrete_quality['keep_rate']:>20.2%}{discrete_quality['fill_ratio']:>20.3f}",
        f"{'continuous + threshold':<26}{continuous_quality['keep_rate']:>20.2%}{continuous_quality['fill_ratio']:>20.3f}",
        "",
        "Expected shape (paper, Sec. III-C): with an equal training budget the",
        "discrete formulation produces structurally valid (bow-tie free)",
        "topologies at a higher rate than thresholded continuous diffusion.",
    ]
    write_result("ablation_discrete_vs_continuous.txt", "\n".join(lines))

    assert 0.0 <= discrete_quality["keep_rate"] <= 1.0
    assert 0.0 <= continuous_quality["keep_rate"] <= 1.0
