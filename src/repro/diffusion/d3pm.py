"""Discrete denoising diffusion for topology tensors (Section III-C).

:class:`DiscreteDiffusion` couples a U-Net ``x_0``-posterior predictor with a
:class:`~repro.diffusion.transition.DiscreteTransitionModel` and implements

* the hybrid training loss of Eq. (9):
  ``KL(q(x_{k-1}|x_k,x_0) || p_θ(x_{k-1}|x_k)) − λ log p_θ(x_0 | x_k)``,
* the network wrappers the reverse process (Eq. 13) needs; the sampler that
  walks it is :class:`repro.pipeline.SamplingEngine`.

The state arrays handled here are integer tensors of shape ``(N, C, M, M)``
where ``C`` is the deep-squish channel count and every entry is in
``{0, .., S-1}`` (``S = 2`` for layout topologies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Adam, Tensor, UNet, UNetConfig, clip_grad_norm
from ..nn import functional as F
from ..utils import as_rng
from .schedule import NoiseSchedule, linear_schedule
from .transition import DiscreteTransitionModel, one_hot


@dataclass
class DiffusionConfig:
    """Hyper-parameters of the discrete diffusion generator.

    The paper's values are ``num_steps=1000``, ``beta_start=0.01``,
    ``beta_end=0.5``, ``lambda_ce=0.001``, learning rate ``2e-4``, gradient
    clip ``1.0``.  Tests and laptop runs shrink ``num_steps`` and the U-Net.
    """

    #: Length ``K`` of the forward/reverse chain.  The sampler may walk a
    #: respaced subsequence of it (see :class:`~repro.diffusion.RespacedSchedule`).
    num_steps: int = 1000
    #: Flip probability of the first forward step (Eq. 8 linear schedule).
    beta_start: float = 0.01
    #: Flip probability of the last forward step.
    beta_end: float = 0.5
    #: Weight of the auxiliary cross-entropy term in the hybrid loss (Eq. 9).
    lambda_ce: float = 0.001
    #: Adam learning rate used by :meth:`DiscreteDiffusion.fit`.
    learning_rate: float = 2e-4
    #: Global gradient-norm clip applied per training step.
    grad_clip: float = 1.0
    #: Discrete state count ``S`` (2 for binary layout topologies).
    num_states: int = 2
    #: Transition family: ``"binary"``, ``"uniform"`` or ``"absorbing"``
    #: (see :class:`~repro.diffusion.transition.DiscreteTransitionModel`).
    transition_kind: str = "binary"


class DiscreteDiffusion:
    """Discrete diffusion generator over ``(C, M, M)`` topology tensors."""

    def __init__(
        self,
        model: UNet,
        config: "DiffusionConfig | None" = None,
        schedule: "NoiseSchedule | None" = None,
    ) -> None:
        """Couple a U-Net posterior predictor with a transition model.

        Parameters
        ----------
        model:
            The ``x_0``-posterior backbone; its ``num_classes`` must equal
            the diffusion state count.
        config:
            Hyper-parameters; defaults to :class:`DiffusionConfig`.
        schedule:
            Explicit noise schedule; defaults to the paper's linear schedule
            over ``config.num_steps`` steps.

        Raises
        ------
        ValueError
            If the schedule length disagrees with ``config.num_steps``, or
            the U-Net's class count disagrees with ``config.num_states``.
        """
        self.config = config if config is not None else DiffusionConfig()
        self.model = model
        if schedule is None:
            schedule = linear_schedule(
                self.config.num_steps, self.config.beta_start, self.config.beta_end
            )
        if schedule.num_steps != self.config.num_steps:
            raise ValueError(
                f"schedule has {schedule.num_steps} steps but config asks for "
                f"{self.config.num_steps}"
            )
        self.transition = DiscreteTransitionModel(
            schedule, num_states=self.config.num_states, kind=self.config.transition_kind
        )
        unet_cfg: UNetConfig = model.config
        if unet_cfg.num_classes != self.config.num_states:
            raise ValueError(
                "UNet num_classes must equal the diffusion state count "
                f"({unet_cfg.num_classes} != {self.config.num_states})"
            )

    # ------------------------------------------------------------------ #
    # model wrappers
    # ------------------------------------------------------------------ #
    def _model_input(self, xk: np.ndarray) -> np.ndarray:
        """One-hot encode ``x_k`` and flatten the state axis into channels.

        Encodes straight into the ``(N, C*S, M, M)`` layout the U-Net wants,
        so no transpose copy is needed (the sampler calls this every step).
        """
        batch, channels, height, width = xk.shape
        num_states = self.config.num_states
        if xk.min() < 0 or xk.max() >= num_states:
            raise ValueError(f"states must lie in [0, {num_states})")
        encoded = np.zeros((batch, channels, num_states, height, width), dtype=np.float32)
        np.put_along_axis(encoded, xk[:, :, None, :, :], 1.0, axis=2)
        return encoded.reshape(batch, channels * num_states, height, width)

    @staticmethod
    def _timesteps(xk: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        return np.full(xk.shape[0], k, dtype=np.int64) if np.isscalar(k) else np.asarray(k)

    def predict_x0_logits(self, xk: np.ndarray, k: "int | np.ndarray") -> Tensor:
        """Taped network forward pass: logits of ``p_θ(x_0 | x_k)``.

        Returns a tensor of shape ``(N, C, S, M, M)``.
        """
        return self.model(Tensor(self._model_input(xk)), self._timesteps(xk, k))

    def predict_x0_probs(self, xk: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """``p_θ(x_0 | x_k)`` as a plain ``(N, C, S, M, M)`` array.

        Runs the same forward as :meth:`predict_x0_logits` on plain arrays,
        so no tape and no Tensor is built — the sampler's hot path.
        """
        logits = self.model(self._model_input(xk), self._timesteps(xk, k))
        return F.softmax(logits, axis=2)

    # ------------------------------------------------------------------ #
    # training loss (Eq. 9)
    # ------------------------------------------------------------------ #
    def loss(
        self,
        x0: np.ndarray,
        rng: "int | np.random.Generator | None" = None,
        k: "int | None" = None,
    ) -> tuple[Tensor, dict[str, float]]:
        """Hybrid loss on a batch of clean topology tensors ``x0``.

        Parameters
        ----------
        x0:
            Integer array of shape ``(N, C, M, M)``.
        rng:
            Randomness for the timestep and the forward corruption.
        k:
            Optional fixed timestep (used by tests); otherwise sampled
            uniformly from ``[1, K]`` per batch.

        Returns
        -------
        tuple[Tensor, dict[str, float]]
            The scalar loss tensor (differentiable) and a metrics dict with
            ``loss`` / ``kl`` / ``ce`` / ``step`` entries.
        """
        gen = as_rng(rng)
        x0 = np.asarray(x0, dtype=np.int64)
        if x0.ndim != 4:
            raise ValueError(f"x0 must have shape (N, C, M, M), got {x0.shape}")
        step = int(gen.integers(1, self.config.num_steps + 1)) if k is None else int(k)

        xk = self.transition.sample_xk(x0, step, gen)
        logits = self.predict_x0_logits(xk, step)  # (N, C, S, M, M)
        # Move the state axis last so it lines up with the posterior arrays.
        logits_last = logits.transpose(0, 1, 3, 4, 2)  # (N, C, M, M, S)
        probs_x0 = F.softmax(logits_last, axis=-1)

        # p_theta(x_{k-1} | x_k) = sum_i q(x_{k-1} | x_k, x_0=i) p_theta(x_0=i | x_k)
        posterior_all = self.transition.posterior_probs_all_x0(xk, step)  # (..., S_x0, S_prev)
        predicted_prev = None
        for clean_state in range(self.config.num_states):
            weight = probs_x0[..., clean_state : clean_state + 1]
            term = weight * Tensor(posterior_all[..., clean_state, :])
            predicted_prev = term if predicted_prev is None else predicted_prev + term

        target_prev = self.transition.posterior_probs(xk, x0, step)
        eps = 1e-10
        log_predicted = (predicted_prev + eps).log()
        entropy = float(
            (target_prev * np.log(np.clip(target_prev, eps, 1.0))).sum(axis=-1).mean()
        )
        kl_term = -(Tensor(target_prev.astype(np.float32)) * log_predicted).sum(axis=-1).mean() + entropy

        ce_targets = one_hot(x0, self.config.num_states)
        ce_term = F.cross_entropy_with_logits(logits_last, ce_targets, axis=-1)

        total = kl_term + self.config.lambda_ce * ce_term
        metrics = {
            "loss": float(total.item()),
            "kl": float(kl_term.item()),
            "ce": float(ce_term.item()),
            "step": float(step),
        }
        return total, metrics

    # ------------------------------------------------------------------ #
    # training loop
    # ------------------------------------------------------------------ #
    def fit(
        self,
        dataset: np.ndarray,
        iterations: int,
        batch_size: int = 16,
        rng: "int | np.random.Generator | None" = None,
        optimizer: "Adam | None" = None,
        log_every: int = 0,
        callback=None,
    ) -> list[dict[str, float]]:
        """Train the backbone on a dataset of clean topology tensors.

        Parameters
        ----------
        dataset:
            Integer array of shape ``(num_samples, C, M, M)``.
        iterations:
            Optimisation steps to run (one random mini-batch each).
        batch_size:
            Mini-batch size, capped at the dataset size.
        rng:
            Randomness for batch selection, timesteps and forward corruption.
        optimizer:
            Optional pre-built optimiser (resuming training keeps its
            moments); defaults to Adam at ``config.learning_rate``.
        log_every:
            Print a progress line every that-many iterations (0 = silent).
        callback:
            Optional ``callback(iteration, metrics)`` hook per iteration.

        Returns
        -------
        list[dict[str, float]]
            Per-iteration metric dictionaries (loss terms plus
            ``grad_norm`` / ``iteration``).

        Raises
        ------
        ValueError
            If ``dataset`` is not 4-dimensional.
        """
        gen = as_rng(rng)
        data = np.asarray(dataset, dtype=np.int64)
        if data.ndim != 4:
            raise ValueError(f"dataset must have shape (N, C, M, M), got {data.shape}")
        if optimizer is None:
            optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        history: list[dict[str, float]] = []
        self.model.train()
        for iteration in range(iterations):
            indices = gen.integers(0, data.shape[0], size=min(batch_size, data.shape[0]))
            batch = data[indices]
            loss, metrics = self.loss(batch, rng=gen)
            optimizer.zero_grad()
            loss.backward()
            grad_norm = clip_grad_norm(optimizer.parameters, self.config.grad_clip)
            optimizer.step()
            metrics["grad_norm"] = grad_norm
            metrics["iteration"] = float(iteration)
            history.append(metrics)
            if log_every and iteration % log_every == 0:
                print(f"[diffusion] iter={iteration} loss={metrics['loss']:.4f}")
            if callback is not None:
                callback(iteration, metrics)
        return history

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_unet_config(
        cls, unet_config: UNetConfig, diffusion_config: "DiffusionConfig | None" = None
    ) -> "DiscreteDiffusion":
        """Build a generator with a fresh U-Net from configuration objects."""
        return cls(UNet(unet_config), diffusion_config)
