"""Neural-network operators: one array kernel per op, differentiable on demand.

Contains the operations the U-Net backbone and the baseline generators need:
2-D convolution, nearest-neighbour upsampling, average pooling,
normalisation, activations, stable softmax / log-softmax, categorical losses
and dropout.

Every operator has exactly one forward implementation, a NumPy kernel, and
the type of its activation input ``x`` selects what comes back:

* plain arrays in — the kernel's array comes out and no :class:`Tensor` is
  built (parameters passed as tensors are read through ``.data``); this is
  the sampling hot path;
* tensors in — the same kernel runs and its result is wrapped in a
  :class:`Tensor` carrying a backward closure whenever the tape is recording.

Training and sampling therefore see the same forward bytes.  The losses at
the end of the module are training-only compositions of tensor operations.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import Tensor, _DTYPE


def _data(value):
    """The array behind a tensor; any other value unchanged."""
    return value.data if isinstance(value, Tensor) else value


# ---------------------------------------------------------------------- #
# convolution
# ---------------------------------------------------------------------- #
@functools.lru_cache(maxsize=256)
def _conv_tap_geometry(
    h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> tuple[int, int, tuple]:
    """Precomputed slice pairs mapping input windows to im2col tap planes.

    Returns ``(out_h, out_w, taps)`` where each tap entry is
    ``(tap_index, dst_row_slice, dst_col_slice, src_row_slice, src_col_slice)``
    restricted to the region where the (virtually padded) window overlaps the
    real input.  Cached because the sampler calls the same few convolution
    geometries thousands of times.
    """
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    taps = []
    for i in range(kh):
        off_i = i - padding
        r0 = 0 if off_i >= 0 else (-off_i + stride - 1) // stride
        r1 = min((h - 1 - off_i) // stride, out_h - 1)
        if r1 < r0:
            continue
        for j in range(kw):
            off_j = j - padding
            c0 = 0 if off_j >= 0 else (-off_j + stride - 1) // stride
            c1 = min((w - 1 - off_j) // stride, out_w - 1)
            if c1 < c0:
                continue
            taps.append(
                (
                    i * kw + j,
                    slice(r0, r1 + 1),
                    slice(c0, c1 + 1),
                    slice(off_i + stride * r0, off_i + stride * r1 + 1, stride),
                    slice(off_j + stride * c0, off_j + stride * c1 + 1, stride),
                )
            )
    return out_h, out_w, tuple(taps)


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add ``(N, C*kh*kw, out_h*out_w)`` patch columns back onto the input."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x_padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[
                :, :, i, j
            ]
    if pad:
        return x_padded[:, :, pad : pad + h, pad : pad + w]
    return x_padded


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0):
    """2-D convolution over ``(N, C, H, W)`` input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)`` and ``bias``
    shape ``(out_channels,)``.  The kernel gathers the ``kh*kw`` patch taps
    into im2col columns and contracts them with one matmul; the backward pass
    reuses those columns.
    """
    data = _data(x)
    w_mat = _data(weight)
    n, c, h, w = data.shape
    oc, ic, kh, kw = w_mat.shape
    if ic != c:
        raise ValueError(f"weight expects {ic} input channels, got {c}")
    w_mat = w_mat.reshape(oc, -1)
    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        # Pointwise convolution (attention qkv/proj, skip projections) is a
        # plain channel matmul: the input already is its column matrix.
        out_h, out_w = h, w
        cols = data.reshape(n, c, h * w)
    else:
        out_h, out_w, taps = _conv_tap_geometry(h, w, kh, kw, stride, padding)
        # Gather the taps with strided slice copies: on the small feature maps
        # of this model that beats materialising a 6-D as_strided view.
        # Padding is folded into the gather — border taps copy only the valid
        # sub-window of the *unpadded* input into a zeroed column buffer, so
        # no padded copy of the input is ever materialised.
        if padding:
            cols = np.zeros((n, c, kh * kw, out_h, out_w), dtype=data.dtype)
        else:
            cols = np.empty((n, c, kh * kw, out_h, out_w), dtype=data.dtype)
        for tap, dst_rows, dst_cols, src_rows, src_cols in taps:
            cols[:, :, tap, dst_rows, dst_cols] = data[:, :, src_rows, src_cols]
        cols = cols.reshape(n, c * kh * kw, out_h * out_w)
    out = np.matmul(w_mat, cols)
    if bias is not None:
        out += _data(bias).reshape(1, oc, 1)
    out = out.reshape(n, oc, out_h, out_w)
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, oc, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)))
        if weight.requires_grad:
            grad_w = np.einsum("nol,nkl->ok", grad_mat, cols, optimize=True)
            weight._accumulate(grad_w.reshape(weight.shape))
        if x.requires_grad:
            grad_cols = np.einsum("ok,nol->nkl", w_mat, grad_mat, optimize=True)
            x._accumulate(_col2im(grad_cols, (n, c, h, w), kh, kw, stride, padding))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward_fn)


def linear(x, weight, bias=None):
    """Affine map ``x @ weight.T + bias`` for ``(..., in_features)`` input."""
    w = _data(weight)
    data = _data(x)
    out = data @ w.T
    if bias is not None:
        out += _data(bias)
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        grad_rows = grad.reshape(-1, grad.shape[-1])
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_rows.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate(grad_rows.T @ data.reshape(-1, data.shape[-1]))
        if x.requires_grad:
            x._accumulate(grad @ w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward_fn)


# ---------------------------------------------------------------------- #
# resampling
# ---------------------------------------------------------------------- #
def upsample_nearest(x, scale: int = 2):
    """Nearest-neighbour upsampling of ``(N, C, H, W)`` by integer ``scale``."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    out = np.repeat(np.repeat(_data(x), scale, axis=2), scale, axis=3)
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        n, c, h_out, w_out = grad.shape
        h, w = h_out // scale, w_out // scale
        x._accumulate(grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5)))

    return Tensor._make(out, (x,), backward_fn)


def avg_pool2d(x, kernel: int = 2):
    """Non-overlapping average pooling with a square ``kernel``."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {h}x{w} not divisible by kernel {kernel}")
    out = _data(x).reshape(n, c, h // kernel, kernel, w // kernel, kernel).mean(axis=(3, 5))
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        spread = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3)
        x._accumulate(spread / (kernel * kernel))

    return Tensor._make(out, (x,), backward_fn)


# ---------------------------------------------------------------------- #
# activations
# ---------------------------------------------------------------------- #
def silu(x):
    """``x * sigmoid(x)``, the activation used by DDPM U-Nets.

    Computed as ``x / (1 + exp(-x))``: three ufunc passes and one temporary.
    """
    data = _data(x)
    denom = np.exp(-data)
    denom += 1.0
    out = data / denom
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        sig = 1.0 / denom
        x._accumulate(grad * sig * (1.0 + data * (1.0 - sig)))

    return Tensor._make(out, (x,), backward_fn)


def sigmoid(x):
    """Logistic function ``1 / (1 + exp(-x))``."""
    out = 1.0 / (1.0 + np.exp(-_data(x)))
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * out * (1.0 - out))

    return Tensor._make(out, (x,), backward_fn)


def relu(x):
    """Rectified linear unit ``max(x, 0)``."""
    data = _data(x)
    out = np.maximum(data, 0.0)
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * (data > 0))

    return Tensor._make(out, (x,), backward_fn)


def softmax(x, axis: int = -1):
    """Numerically stable softmax along ``axis``."""
    data = _data(x)
    out = data - data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(out * (grad - (grad * out).sum(axis=axis, keepdims=True)))

    return Tensor._make(out, (x,), backward_fn)


def log_softmax(x, axis: int = -1):
    """Numerically stable log-softmax along ``axis``."""
    data = _data(x)
    out = data - data.max(axis=axis, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=axis, keepdims=True))
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad - np.exp(out) * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward_fn)


# ---------------------------------------------------------------------- #
# losses (training only: tensor logits in, scalar tensor out)
# ---------------------------------------------------------------------- #
def cross_entropy_with_logits(logits: Tensor, targets: np.ndarray, axis: int = -1) -> Tensor:
    """Mean cross-entropy between ``logits`` and one-hot ``targets``.

    ``targets`` is a plain NumPy array of the same shape as ``logits`` whose
    entries along ``axis`` form a probability vector (usually one-hot).
    """
    log_probs = log_softmax(logits, axis=axis)
    per_element = -(Tensor(np.asarray(targets, dtype=_DTYPE)) * log_probs).sum(axis=axis)
    return per_element.mean()


def kl_divergence_categorical(
    target_probs: np.ndarray, logits: Tensor, axis: int = -1, eps: float = 1e-10
) -> Tensor:
    """Mean ``KL(target || softmax(logits))`` for fixed target distributions.

    The target is treated as a constant (exactly the role of the forward
    posterior ``q(x_{k-1} | x_k, x_0)`` in the diffusion loss).
    """
    target = np.asarray(target_probs, dtype=_DTYPE)
    log_probs = log_softmax(logits, axis=axis)
    entropy_term = float((target * np.log(np.clip(target, eps, 1.0))).sum(axis=axis).mean())
    cross_term = -(Tensor(target) * log_probs).sum(axis=axis).mean()
    return cross_term + entropy_term


# ---------------------------------------------------------------------- #
# normalisation
# ---------------------------------------------------------------------- #
def _normalised_input_grad(grad_hat: np.ndarray, x_hat: np.ndarray, inv_std, axis) -> np.ndarray:
    """Input gradient of ``x_hat = (x - mean) * inv_std`` over the ``axis`` group.

    ``grad_hat`` is the gradient reaching ``x_hat``; the two mean terms are
    the contributions routed through the group mean and variance.
    """
    mean_grad = grad_hat.mean(axis=axis, keepdims=True)
    mean_proj = (grad_hat * x_hat).mean(axis=axis, keepdims=True)
    return (grad_hat - mean_grad - x_hat * mean_proj) * inv_std


def group_norm(x, num_groups: int, weight, bias, eps: float = 1e-5):
    """Group normalisation for ``(N, C, H, W)`` input."""
    data = _data(x)
    gamma, beta = _data(weight), _data(bias)
    n, c, h, w = data.shape
    if c % num_groups:
        raise ValueError(f"{c} channels not divisible by {num_groups} groups")
    grouped = data.reshape(n, num_groups, -1)
    inv_count = _DTYPE(1.0 / grouped.shape[2])
    # np.add.reduce is np.sum minus the dispatch wrapper — measurable on the
    # thousands of small reductions a sampling run performs.  Variance must
    # be computed from the centred values: the two-moment shortcut
    # (E[x²] − E[x]²) cancels catastrophically in float32 once a feature map
    # develops a mean large relative to its spread.
    mean = np.add.reduce(grouped, axis=2) * inv_count
    centred = grouped - mean[:, :, None]
    var = np.add.reduce(centred * centred, axis=2) * inv_count
    inv_std = 1.0 / np.sqrt(var + eps)  # (n, groups)
    group_size = c // num_groups
    # Fold normalisation and the affine transform into one per-channel
    # scale/shift: out = x * scale + shift.
    scale = np.repeat(inv_std, group_size, axis=1) * gamma  # (n, c)
    shift = beta - np.repeat(mean, group_size, axis=1) * scale
    out = data * scale[:, :, None, None]
    out += shift[:, :, None, None]
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        x_hat = (centred * inv_std[:, :, None]).reshape(n, c, h, w)
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            weight._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_hat = (grad * gamma[:, None, None]).reshape(n, num_groups, -1)
            grad_x = _normalised_input_grad(
                grad_hat, x_hat.reshape(n, num_groups, -1), inv_std[:, :, None], axis=2
            )
            x._accumulate(grad_x.reshape(n, c, h, w))

    return Tensor._make(out, (x, weight, bias), backward_fn)


def layer_norm(x, weight, bias, eps: float = 1e-5):
    """Layer normalisation over the last dimension."""
    data = _data(x)
    gamma = _data(weight)
    mean = data.mean(axis=-1, keepdims=True, dtype=_DTYPE)
    centred = data - mean
    var = np.mean(centred * centred, axis=-1, keepdims=True, dtype=_DTYPE)
    std = np.sqrt(var + eps)
    x_hat = centred / std
    out = x_hat * gamma + _data(bias)
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(grad.reshape(-1, grad.shape[-1]).sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((grad * x_hat).reshape(-1, grad.shape[-1]).sum(axis=0))
        if x.requires_grad:
            x._accumulate(_normalised_input_grad(grad * gamma, x_hat, 1.0 / std, axis=-1))

    return Tensor._make(out, (x, weight, bias), backward_fn)


# ---------------------------------------------------------------------- #
# regularisation and inputs
# ---------------------------------------------------------------------- #
def dropout(x, rate: float, rng: np.random.Generator, training: bool = True):
    """Inverted dropout; identity when not training or ``rate`` is 0."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    mask = (rng.random(x.shape) >= rate).astype(_DTYPE) / (1.0 - rate)
    out = _data(x) * mask
    if not isinstance(x, Tensor):
        return out

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(out, (x,), backward_fn)


def sinusoidal_embedding(timesteps: np.ndarray, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Sinusoidal position embedding of diffusion timesteps (Transformer-style).

    Returns a plain ``(len(timesteps), dim)`` array; it is an input feature,
    not a learnable quantity.
    """
    if dim % 2:
        raise ValueError("embedding dimension must be even")
    timesteps = np.asarray(timesteps, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half, dtype=np.float64) / half)
    args = timesteps[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1).astype(_DTYPE)
