"""From-scratch dense CNN kernels and a configurable-depth U-Net.

All kernels operate on plain numpy arrays in (n, c, h, w) layout and come in
forward/backward pairs whose gradients are exact (validated against central
finite differences in float64). Conventions:

  * convolutions are cross-correlations with zero same-padding, stride 1,
    odd kernel sizes, computed as one im2col matrix product per image and band
    of output rows; results are bit-reproducible for fixed array shapes, band
    budget (``_BAND_ELEMENTS``) and BLAS thread count, but the summation order
    inside each product is BLAS's own
  * max-pooling is 2x2 stride 2; ties go to the first window element in
    row-major order, and the gradient is routed there
  * up-convolutions are 2x2 stride-2 transposed convolutions (each output
    pixel receives exactly one kernel tap), computed as one matrix product
    for all four taps followed by a pixel shuffle
  * arrays keep their dtype end to end: float32 for training, float64 for
    gradient checking

The U-Net is the classic encoder/decoder: ``depth`` resolution levels, a
double-convolution (two 3x3 conv + ReLU) per level, max-pool between encoder
levels, and up-conv + skip concatenation + double-convolution on the way up,
finished by a 1x1 convolution with no output activation. Encoder level ``i``
carries ``base_channels * 2**i`` features. ``_layers`` is the single description
of the network: the forward and backward passes, the parameter names and shapes,
the init draw order and the checkpoint tensor order are all read from it.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CKPT_MAGIC = b"UNP1"
CKPT_VERSION = 1


# ---------------------------------------------------------------------------
# kernels

# Elements of one im2col band, (ci*kh*kw) x (rows*w). 2**22 float32 values
# (16 MB) keep a full-grid conv's working set far below a whole-image column
# buffer while each band's GEMM stays large enough for BLAS to run at speed.
_BAND_ELEMENTS = 2**22

# (dy, dx) of the four 2x2 pooling-window elements; the index is the argmax.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _im2col_bands(x: np.ndarray, kh: int, kw: int):
    """Yield (image, r0, r1, cols) over bands of output rows [r0, r1).

    ``cols`` is the same-padded (ci*kh*kw, (r1-r0)*w) column matrix of that
    band, its rows ordered like ``k.reshape(co, -1)`` for a (co,ci,kh,kw) kernel.
    """
    n, ci, h, w = x.shape
    depth = ci * kh * kw
    rows = max(1, _BAND_ELEMENTS // (depth * w))
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    for i in range(n):
        for r0 in range(0, h, rows):
            r1 = min(h, r0 + rows)
            win = sliding_window_view(xp[i, :, r0 : r1 + kh - 1], (kh, kw), axis=(1, 2))
            yield i, r0, r1, win.transpose(0, 3, 4, 1, 2).reshape(depth, (r1 - r0) * w)


def _correlate(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation without bias, one GEMM per band."""
    n, _, h, w = x.shape
    co = k.shape[0]
    k2 = k.reshape(co, -1)
    out = np.empty((n, co, h, w), dtype=x.dtype)
    for i, r0, r1, cols in _im2col_bands(x, *k.shape[2:]):
        out[i, :, r0:r1] = (k2 @ cols).reshape(co, r1 - r0, w)
    return out


def conv2d_forward(x: np.ndarray, k: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation: (n,ci,h,w) * (co,ci,kh,kw) -> (n,co,h,w)."""
    ci = x.shape[1]
    co, ci_k, kh, kw = k.shape
    if ci != ci_k:
        raise ValueError(f"input has {ci} channels, kernel expects {ci_k}")
    if bias.shape != (co,):
        raise ValueError(f"bias shape {bias.shape} != ({co},)")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("same padding requires odd kernel dims")
    out = _correlate(x, k)
    out += bias[None, :, None, None]
    return out


def conv2d_backward(x: np.ndarray, k: np.ndarray, grad_out: np.ndarray):
    """Gradients of sum(grad_out * conv2d_forward(x, k, b)) w.r.t. x, k, b."""
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    if grad_out.shape != (n, co, h, w):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(n, co, h, w)}")
    grad_k = np.zeros((co, ci * kh * kw), dtype=k.dtype)
    for i, r0, r1, cols in _im2col_bands(x, kh, kw):
        grad_k += grad_out[i, :, r0:r1].reshape(co, -1) @ cols.T
    # the input gradient correlates grad_out with the flipped, transposed kernel
    grad_x = _correlate(grad_out, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_k.reshape(k.shape), grad_bias


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient passes where x > 0; the subgradient at exactly 0 is 0."""
    return grad_out * (x > 0)


def maxpool2d_forward(x: np.ndarray):
    """2x2 stride-2 max-pool; returns (pooled, argmax) with argmax recording the
    winning in-window index (row-major, first maximum wins)."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even, got {h}x{w}")
    pooled = x[:, :, ::2, ::2]
    argmax = np.zeros(pooled.shape, dtype=np.intp)
    for idx, (dy, dx) in enumerate(_WINDOW[1:], start=1):
        v = x[:, :, dy::2, dx::2]
        better = v > pooled  # strict, so an earlier equal element keeps the win
        pooled = np.where(better, v, pooled)
        argmax = np.where(better, idx, argmax)
    return pooled, argmax


def maxpool2d_backward(argmax: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Scatter grad_out back to the recorded argmax positions."""
    n, c, oh, ow = grad_out.shape
    grad = np.empty((n, c, 2 * oh, 2 * ow), dtype=grad_out.dtype)
    for idx, (dy, dx) in enumerate(_WINDOW):  # the four views cover grad exactly once
        np.multiply(grad_out, argmax == idx, out=grad[:, :, dy::2, dx::2])
    return grad


def upconv2d_forward(x: np.ndarray, k: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed convolution: (n,ci,h,w) * (ci,co,2,2) -> (n,co,2h,2w)."""
    n, ci, h, w = x.shape
    ci_k, co, kh, kw = k.shape
    if ci != ci_k or (kh, kw) != (2, 2):
        raise ValueError(f"kernel shape {k.shape} incompatible with input {x.shape}")
    if bias.shape != (co,):
        raise ValueError(f"bias shape {bias.shape} != ({co},)")
    # one (4co, ci) GEMM gives every tap; row o*4 + dy*2 + dx lands at (2y+dy, 2x+dx)
    taps = k.reshape(ci, 4 * co).T @ x.reshape(n, ci, h * w)
    out = (
        taps.reshape(n, co, 2, 2, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, co, 2 * h, 2 * w)
    )
    out += bias[None, :, None, None]
    return out


def upconv2d_backward(x: np.ndarray, k: np.ndarray, grad_out: np.ndarray):
    n, ci, h, w = x.shape
    _, co, _, _ = k.shape
    if grad_out.shape != (n, co, 2 * h, 2 * w):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(n, co, 2 * h, 2 * w)}")
    # inverse pixel shuffle: (n, co, 2h, 2w) -> (n, 4co, h*w), rows as in the forward
    g = (
        grad_out.reshape(n, co, h, 2, w, 2)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, 4 * co, h * w)
    )
    grad_x = (k.reshape(ci, 4 * co) @ g).reshape(n, ci, h, w)
    grad_k = (x.reshape(n, ci, h * w) @ g.transpose(0, 2, 1)).sum(axis=0)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_k.reshape(k.shape), grad_bias


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two (n,*,h,w) tensors along the channel axis."""
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return np.concatenate([a, b], axis=1)


def split_channels(grad: np.ndarray, first_channels: int):
    """Backward of concat_channels: split the gradient at the seam."""
    return grad[:, :first_channels], grad[:, first_channels:]


def pad_spatial(x: np.ndarray, multiple: int):
    """Zero-pad bottom/right so h and w become multiples of ``multiple``.

    Returns (padded, (h, w)) where (h, w) is the crop record.
    """
    h, w = x.shape[-2:]
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return x, (h, w)
    pad = [(0, 0)] * (x.ndim - 2) + [(0, ph), (0, pw)]
    return np.pad(x, pad), (h, w)


def crop_spatial(x: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    h, w = hw
    return x[..., :h, :w]


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all elements; returns (loss, dloss/dpred)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def clamp_255(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0, 255)


def round_half_up_uint8(x: np.ndarray) -> np.ndarray:
    """Clamp to [0, 255] and round half-up to uint8 (19.5 -> 20)."""
    return np.floor(clamp_255(x) + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# U-Net

@dataclass(frozen=True)
class UNetConfig:
    depth: int = 5
    in_channels: int = 36
    out_channels: int = 9
    base_channels: int = 64
    normalize: bool = False  # feed inputs/targets as value/255 instead of raw 0-255

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        for name in ("in_channels", "out_channels", "base_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def level_channels(self, i: int) -> int:
        return self.base_channels * 2**i

    @property
    def spatial_multiple(self) -> int:
        return 2 ** (self.depth - 1)


@dataclass
class UNetParams:
    """All weights of a U-Net: ``<layer>.w`` and ``<layer>.b`` for each conv
    and up layer that ``_layers`` names (enc{i}.conv{1,2} for i in
    0..depth-1, then up{i} and dec{i}.conv{1,2} for i in depth-2..0, then head).
    Dict insertion order follows ``_layers`` and is the canonical
    serialization order.
    """

    config: UNetConfig
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "UNetParams":
        return UNetParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def zeros_like(self) -> "UNetParams":
        return UNetParams(
            self.config, {k: np.zeros_like(v) for k, v in self.tensors.items()}
        )


def _layers(cfg: UNetConfig):
    """The network as a flat list of (kind, name, weight_shape) in forward order.

    Kinds: ``conv`` (weight (co, ci, kh, kw)), ``up`` (weight (ci, co, 2, 2)),
    ``relu``, ``pool``, ``skip`` (push the activation) and ``concat`` (pop the
    latest skip and put it in front of the current channels). Only conv and up
    layers have a name and a weight shape; they come in canonical UNP1 order.
    """
    layers = []

    def double_conv(prefix, ci, f):
        layers.extend([
            ("conv", f"{prefix}.conv1", (f, ci, 3, 3)),
            ("relu", None, None),
            ("conv", f"{prefix}.conv2", (f, f, 3, 3)),
            ("relu", None, None),
        ])

    prev = cfg.in_channels
    for i in range(cfg.depth):
        f = cfg.level_channels(i)
        double_conv(f"enc{i}", prev, f)
        if i < cfg.depth - 1:
            layers += [("skip", None, None), ("pool", None, None)]
        prev = f
    for i in reversed(range(cfg.depth - 1)):
        f = cfg.level_channels(i)
        layers += [("up", f"up{i}", (2 * f, f, 2, 2)), ("concat", None, None)]
        double_conv(f"dec{i}", 2 * f, f)
    layers.append(("conv", "head", (cfg.out_channels, cfg.level_channels(0), 1, 1)))
    return layers


def _weights(cfg: UNetConfig):
    """Yield (name, weight shape, fan-in, output channels) per conv/up layer."""
    for kind, name, shape in _layers(cfg):
        if name is not None:
            ci, co = (shape[0], shape[1]) if kind == "up" else (shape[1], shape[0])
            yield name, shape, ci * shape[2] * shape[3], co


def _param_shapes(cfg: UNetConfig):
    shapes = {}
    for name, shape, _, co in _weights(cfg):
        shapes[f"{name}.w"] = shape
        shapes[f"{name}.b"] = (co,)
    return shapes


def init_params(cfg: UNetConfig, seed: int, dtype=np.float32) -> UNetParams:
    """He-style fan-in init for weights, zeros for biases, seeded and deterministic."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape, fan_in, co in _weights(cfg):
        tensors[f"{name}.w"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)
        tensors[f"{name}.b"] = np.zeros(co, dtype=dtype)
    return UNetParams(cfg, tensors)


def unet_forward_cached(params: UNetParams, x: np.ndarray):
    """Forward pass keeping what the backward pass needs: one cache entry per
    layer of ``_layers``, the input of conv/relu/up, the argmax of pool, the
    skip's channel count for concat, and None for skip."""
    cfg = params.config
    n, ci, h, w = x.shape
    if ci != cfg.in_channels:
        raise ValueError(f"input has {ci} channels, config expects {cfg.in_channels}")
    m = cfg.spatial_multiple
    if h % m or w % m:
        raise ValueError(f"spatial dims {h}x{w} not divisible by {m}")
    t = params.tensors
    cache, skips = [], []
    for kind, name, _ in _layers(cfg):
        entry = x
        if kind == "conv":
            x = conv2d_forward(x, t[f"{name}.w"], t[f"{name}.b"])
        elif kind == "up":
            x = upconv2d_forward(x, t[f"{name}.w"], t[f"{name}.b"])
        elif kind == "relu":
            x = relu_forward(x)
        elif kind == "pool":
            x, entry = maxpool2d_forward(x)
        elif kind == "skip":
            skips.append(x)
            entry = None
        else:  # concat
            skip = skips.pop()
            entry = skip.shape[1]
            x = concat_channels(skip, x)
        cache.append(entry)
    return x, cache


def unet_forward(params: UNetParams, x: np.ndarray) -> np.ndarray:
    """Run the network; output spatial dims equal the (aligned) input dims."""
    out, _ = unet_forward_cached(params, x)
    return out


def unet_backward_cached(params: UNetParams, cache, grad_out: np.ndarray):
    """Run ``_layers`` in reverse over the forward cache; returns (parameter
    gradients in canonical order, input gradient)."""
    t = params.tensors
    grads: dict[str, np.ndarray] = {}
    skip_grads = []  # concat pushes the skip's share of the gradient, skip adds it back
    g = grad_out
    for (kind, name, _), entry in zip(reversed(_layers(params.config)), reversed(cache)):
        if kind == "conv":
            g, grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward(entry, t[f"{name}.w"], g)
        elif kind == "up":
            g, grads[f"{name}.w"], grads[f"{name}.b"] = upconv2d_backward(entry, t[f"{name}.w"], g)
        elif kind == "relu":
            g = relu_backward(entry, g)
        elif kind == "pool":
            g = maxpool2d_backward(entry, g)
        elif kind == "skip":
            g = g + skip_grads.pop()
        else:  # concat
            g_skip, g = split_channels(g, entry)
            skip_grads.append(g_skip)
    return {name: grads[name] for name in t}, g


def unet_backward(params: UNetParams, x: np.ndarray, grad_out: np.ndarray):
    """Full-network gradients of sum(grad_out * unet_forward(params, x)).

    Returns (parameter gradient dict mirroring params.tensors, input gradient).
    """
    out, cache = unet_forward_cached(params, x)
    if grad_out.shape != out.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != output {out.shape}")
    return unet_backward_cached(params, cache, grad_out)


# ---------------------------------------------------------------------------
# checkpoint format UNP1

def save_params(params: UNetParams, path: str | Path) -> Path:
    """Write a UNP1 checkpoint atomically: into ``<path>.part``, then renamed
    over ``path``, so a failed write leaves any earlier checkpoint intact.

    Layout (little-endian): magic "UNP1", u16 version, u16 depth, u32
    in_channels, u32 out_channels, u32 base_channels, u8 normalize, u32 tensor
    count; then per tensor: u16 name length + UTF-8 name, u8 rank, rank*u32
    dims, raw float32 values.
    """
    cfg = params.config
    path = Path(path)
    tmp = path.with_name(path.name + ".part")
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack(
                "<HHIIIBI", CKPT_VERSION, cfg.depth, cfg.in_channels, cfg.out_channels,
                cfg.base_channels, int(cfg.normalize), len(params.tensors),
            ))
            for name, arr in params.tensors.items():
                nb = name.encode("utf-8")
                f.write(struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_params(path: str | Path) -> UNetParams:
    """Read a UNP1 checkpoint. Raises ValueError unless the file holds exactly
    the tensors of its config, in canonical order, with finite values and
    nothing after the last one."""
    with open(path, "rb") as f:

        def read(n: int) -> bytes:
            data = f.read(n)
            if len(data) != n:
                raise ValueError(f"{path} is truncated")
            return data

        if read(4) != CKPT_MAGIC:
            raise ValueError(f"{path} is not a UNP1 checkpoint")
        version, depth, ci, co, base, normalize, count = struct.unpack("<HHIIIBI", read(21))
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        cfg = UNetConfig(depth, ci, co, base, bool(normalize))
        if cfg.level_channels(depth - 1) >= 2**32:  # dims are u32; also bounds the depth
            raise ValueError(f"{path}: config {cfg} has channel counts beyond u32")
        expected = _param_shapes(cfg)
        if count != len(expected):
            raise ValueError(f"checkpoint holds {count} tensors, config {cfg} has {len(expected)}")
        tensors = {}
        for name, shape in expected.items():
            (name_len,) = struct.unpack("<H", read(2))
            got = read(name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", read(1))
            dims = struct.unpack(f"<{rank}I", read(4 * rank))
            if (got, dims) != (name, shape):  # checked before the size is trusted
                raise ValueError(f"checkpoint tensor {got!r} {dims} where {name!r} {shape} belongs")
            data = np.frombuffer(read(4 * math.prod(dims)), dtype="<f4")
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: tensor {name!r} holds non-finite values")
            tensors[name] = data.reshape(dims).astype(np.float32)
        if f.read(1):
            raise ValueError(f"{path} has bytes after its last tensor")
    return UNetParams(cfg, tensors)
