"""From-scratch dense CNN kernels and a configurable-depth U-Net.

All kernels operate on plain numpy arrays in (n, c, h, w) layout and come in
forward/backward pairs whose gradients are exact (validated against central
finite differences in float64). Conventions:

  * convolutions are cross-correlations with zero same-padding, stride 1,
    odd kernel sizes, computed per band of flat positions of the whole padded
    batch from the kh row shifts of its input: one matrix product puts the kw
    column taps in its output rows, and kw-1 shifted adds sum them; results
    are bit-reproducible for fixed array shapes, band budget
    (``_BAND_ELEMENTS``) and BLAS thread count, but the summation order inside
    each product is BLAS's own
  * max-pooling is 2x2 stride 2 and a NaN in a window makes its max NaN; the
    gradient goes to the window's first row-major element equal to its max
  * up-convolutions are 2x2 stride-2 transposed convolutions (each output
    pixel receives exactly one kernel tap), computed as one matrix product
    for all four taps, each then written with its bias to its strided pixels
  * arrays keep their dtype end to end: float32 for training, float64 for
    gradient checking

The U-Net is the classic encoder/decoder: ``depth`` resolution levels, a
double-convolution (two 3x3 conv + ReLU) per level, max-pool between encoder
levels, and up-conv + skip concatenation + double-convolution on the way up,
finished by a 1x1 convolution with no output activation. Encoder level ``i``
carries ``base_channels * 2**i`` features. ``_layers`` is the single description
of the network: the forward and backward passes, the parameter names and shapes,
the init draw order and the checkpoint tensor order are all read from it.

Only ``unet_forward_cached`` keeps a backward cache, holding each activation once:
a ReLU caches its output, the very array the next conv, up-conv or pool caches as
its input, and the backward pass pops each entry once its layer is done. A pool's
input is also its level's skip, held only inside the concat that copies it: from
the concat on, the pool's entry and its ReLU's are one view of the concat's first
channels.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .movie_store import _atomic_write

# ---------------------------------------------------------------------------
# kernels

# Elements of a conv band's larger buffer, max(ci*kh row shifts, co*kw GEMM output rows) x positions:
# 4 MB of float32 keep the band buffers small beside the activations, and a desk batch within two
# bands. 2**22 (16 MB) saved no time beyond the run-to-run spread and raised peak RSS 9 % at desk
# scale and 11 % at 496x448 (78->86, 388->430 MB), measured on 9-tap column buffers.
_BAND_ELEMENTS = 2**20

# (dy, dx) of the four 2x2 pooling-window elements in row-major order.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pad_flat(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Same-pad (n, ci, h, w) ``x`` for an odd (kh, kw) kernel into one zeroed,
    channel-major (ci, n*H*W) copy, H = h+kh-1 and W = w+kw-1. A 1x1 kernel
    needs no padding: then it is a view of ``x`` where the layout allows (n == 1)."""
    n, ci, h, w = x.shape
    if kh == kw == 1:
        return x.transpose(1, 0, 2, 3).reshape(ci, -1)
    xp = np.zeros((ci, n, h + kh - 1, w + kw - 1), dtype=x.dtype)
    xp[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = x.transpose(1, 0, 2, 3)
    return xp.reshape(ci, -1)


def _row_bands(xpf: np.ndarray, kh: int, kw: int, w: int, co: int):
    """Yield (b0, b1, rows, taps) over bands of the flat output positions of
    ``_pad_flat``'s ``xpf``, for a kernel with ``co`` outputs. Position p reads
    ``xpf[:, p + dy*W + dx]`` for tap (dy, dx), so a band needs only its kh row
    shifts: ``rows`` is (ci*kh, b1-b0+kw-1) with ``rows[c*kh + dy, q] = xpf[c, b0 + dy*W + q]``,
    and tap (dy, dx) of position b0+j is ``rows[:, j + dx]``. ``taps`` is an
    uninitialized (co*kw, b1-b0+kw-1) buffer for the band's GEMM with the column
    taps in M. Bands cross into the next image; the columns of padding positions
    are computed, then cropped. The next band overwrites both buffers."""
    ci, size = xpf.shape
    W = w + kw - 1
    span = size - (kh - 1) * W - (kw - 1)  # one past the last output position
    band = max(1, _BAND_ELEMENTS // max(ci * kh, co * kw))
    row_buf = np.empty(ci * kh * (min(band, span) + kw - 1), dtype=xpf.dtype)
    tap_buf = np.empty(co * kw * (min(band, span) + kw - 1), dtype=xpf.dtype)
    for b0 in range(0, span, band):
        b1 = min(span, b0 + band)
        q = b1 - b0 + kw - 1
        rows = row_buf[: ci * kh * q].reshape(ci, kh, q)
        for dy in range(kh):
            rows[:, dy] = xpf[:, b0 + dy * W : b1 + dy * W + kw - 1]
        yield b0, b1, rows.reshape(ci * kh, q), tap_buf[: co * kw * q].reshape(co * kw, q)


def _correlate(xpf: np.ndarray, k: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """Same-padded stride-1 cross-correlation without bias of the (n, ci, h, w)
    batch that ``_pad_flat`` made into ``xpf``, into a (co, n, H, W) buffer of all
    flat positions; ``_unpad_flat`` crops it. One GEMM per band puts the column
    taps in M, ``P[(o, dx), q] = sum over (c, dy) of k[o, c, dy, dx] * rows[(c, dy), q]``,
    and position b0+j sums ``P[(o, dx), j + dx]`` over dx."""
    co, ci, kh, kw = k.shape
    k2 = k.transpose(0, 3, 1, 2).reshape(co * kw, ci * kh)
    out = np.empty((co, n, h + kh - 1, w + kw - 1), dtype=xpf.dtype)
    flat = out.reshape(co, -1)
    for b0, b1, rows, taps in _row_bands(xpf, kh, kw, w, co):
        if kw == 1:
            np.matmul(k2, rows, out=flat[:, b0:b1])
            continue
        m = b1 - b0
        p = np.matmul(k2, rows, out=taps).reshape(co, kw, -1)
        acc = np.add(p[:, 0, :m], p[:, 1, 1 : m + 1], out=flat[:, b0:b1])
        for dx in range(2, kw):
            acc += p[:, dx, dx : dx + m]
    return out


def _unpad_flat(out: np.ndarray, h: int, w: int) -> np.ndarray:
    """The contiguous (n, co, h, w) output in ``_correlate``'s (co, n, H, W) buffer:
    a copy unless no crop or transpose is needed (1x1 kernel, n == 1)."""
    return np.ascontiguousarray(out[:, :, :h, :w].transpose(1, 0, 2, 3))


def conv2d_forward(x: np.ndarray, k: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation: (n,ci,h,w) * (co,ci,kh,kw) -> (n,co,h,w)."""
    n, ci, h, w = x.shape
    co, ci_k, kh, kw = k.shape
    if ci != ci_k:
        raise ValueError(f"input has {ci} channels, kernel expects {ci_k}")
    if bias.shape != (co,):
        raise ValueError(f"bias shape {bias.shape} != ({co},)")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("same padding requires odd kernel dims")
    out = _unpad_flat(_correlate(_pad_flat(x, kh, kw), k, n, h, w), h, w)
    out += bias[None, :, None, None]
    return out


def conv2d_backward(x: np.ndarray, k: np.ndarray, grad_out: np.ndarray, *, input_grad: bool = True):
    """Gradients of sum(grad_out * conv2d_forward(x, k, b)) w.r.t. x, k, b; the
    gradient w.r.t. x is None when ``input_grad`` is false."""
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    if grad_out.shape != (n, co, h, w):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(n, co, h, w)}")
    xpf = _pad_flat(x, kh, kw)
    gpf = _pad_flat(grad_out, kh, kw)
    shift = (kh // 2) * (w + kw - 1) + kw // 2  # gpf[:, p + shift]: grad_out at p, 0 if cropped
    # grad_k[(o, dx), (c, dy)] sums grad_out at b0+j times rows[(c, dy), j + dx]: one
    # GEMM per band against grad_out copied kw times, shifted by dx, zero where j is
    # outside the band
    grad_k = np.zeros((co * kw, ci * kh), dtype=k.dtype)
    for b0, b1, rows, taps in _row_bands(xpf, kh, kw, w, co):
        m = b1 - b0
        g = taps.reshape(co, kw, -1)
        for dx in range(kw):
            g[:, dx, :dx] = 0
            g[:, dx, dx : dx + m] = gpf[:, b0 + shift : b1 + shift]
            g[:, dx, dx + m :] = 0
        grad_k += taps @ rows.T
    del xpf, rows, taps, g  # grad_x's buffers need not sit on top of the padded input
    grad_k = grad_k.reshape(co, kw, ci, kh).transpose(0, 2, 3, 1).copy()
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    if not input_grad:
        return None, grad_k, grad_bias
    # the input gradient correlates grad_out with the flipped, transposed kernel
    grad_x = _correlate(gpf, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), n, h, w)
    del gpf  # the cropped copy need not sit on top of the padded grad_out
    return _unpad_flat(grad_x, h, w), grad_k, grad_bias


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient passes where x > 0; the subgradient at exactly 0 is 0. ``x`` may
    be the ReLU's input or its output: ``x > 0`` is the same mask for both,
    also for NaN and -0.0."""
    return grad_out * (x > 0)


def _window_max(x: np.ndarray) -> np.ndarray:
    a, b, c, d = (x[:, :, dy::2, dx::2] for dy, dx in _WINDOW)
    return np.maximum(np.maximum(a, b), np.maximum(c, d))  # np.maximum propagates NaN


def maxpool2d_forward(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max-pool: (n,c,h,w) -> (n,c,h/2,w/2); a window holding a NaN pools to NaN."""
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even, got {h}x{w}")
    return _window_max(x)


def maxpool2d_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the forward input ``x``: each window's grad_out goes to its
    first row-major element equal to the window max; a NaN window equals nothing."""
    m = _window_max(x)  # not maxpool2d_forward: the backward is no second forward
    grad = np.empty(x.shape, dtype=grad_out.dtype)
    routed = np.zeros(m.shape, dtype=bool)
    for dy, dx in _WINDOW:  # the four views cover grad exactly once
        win = (x[:, :, dy::2, dx::2] == m) & ~routed
        np.multiply(grad_out, win, out=grad[:, :, dy::2, dx::2])
        routed |= win
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
    taps = (k.reshape(ci, 4 * co).T @ x.reshape(n, ci, h * w)).reshape(n, co, 2, 2, h, w)
    out = np.empty((n, co, 2 * h, 2 * w), dtype=taps.dtype)
    out6 = out.reshape(n, co, h, 2, w, 2)
    for dy, dx in _WINDOW:  # tap plus bias, written straight to its output pixels
        np.add(taps[:, :, dy, dx], bias[:, None, None], out=out6[:, :, :, dy, :, dx])
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
    diff *= 2.0  # in place, rounding as 2.0 * diff / diff.size does
    diff /= diff.size
    return loss, diff


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
    ``relu``, ``pool`` (also push its input as the level's skip) and ``concat``
    (pop the latest skip and put it in front of the current channels). Only conv
    and up layers have a name and a weight shape; they come in UNP2 checkpoint order.
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
            layers.append(("pool", None, None))
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


def _forward(params: UNetParams, x: np.ndarray, cache: list | None) -> np.ndarray:
    """Run ``_layers`` forward, appending each layer's entry to ``cache`` unless it is None."""
    cfg = params.config
    n, ci, h, w = x.shape
    if ci != cfg.in_channels:
        raise ValueError(f"input has {ci} channels, config expects {cfg.in_channels}")
    m = cfg.spatial_multiple
    if h % m or w % m:
        raise ValueError(f"spatial dims {h}x{w} not divisible by {m}")
    t = params.tensors
    skips = []  # (activation, index of the pool that pushed it)
    for i, (kind, name, _) in enumerate(_layers(cfg)):
        entry = x
        if kind == "conv":
            x = conv2d_forward(x, t[f"{name}.w"], t[f"{name}.b"])
        elif kind == "up":
            x = upconv2d_forward(x, t[f"{name}.w"], t[f"{name}.b"])
        elif kind == "relu":
            x = entry = relu_forward(x)
        elif kind == "pool":
            skips.append((x, i))
            x = maxpool2d_forward(x)
        else:  # concat
            skip, at = skips.pop()
            entry = skip.shape[1]
            x = concat_channels(skip, x)
            del skip
            if cache is not None:
                # the pool's entry and its ReLU's (one object) become a view of the skip's
                # copy in the concat, so the skip's own array is freed and held only there
                cache[at - 1] = cache[at] = x[:, :entry]
        if cache is not None:
            cache.append(entry)
    return x


def unet_forward_cached(params: UNetParams, x: np.ndarray):
    """Forward pass returning (output, cache), one cache entry per layer of ``_layers``:
    the input of conv/up/pool, the output of relu (the array the next layer caches,
    so it is held once) and the skip's channel count for concat. A pool's entry and
    its ReLU's are one view of the skip's channels in the concat, which the next
    conv caches as its input, so the skip's bytes are held once too."""
    cache = []
    return _forward(params, x, cache), cache


def unet_forward(params: UNetParams, x: np.ndarray) -> np.ndarray:
    """Run the network holding only the skips; output dims equal the (aligned) input dims."""
    return _forward(params, x, None)


def unet_backward_cached(params: UNetParams, cache, grad_out: np.ndarray, *, input_grad: bool = True):
    """Run ``_layers`` in reverse over the forward cache; returns (parameter
    gradients in canonical order, input gradient). With ``input_grad`` false the
    first conv skips its input gradient and None is returned in its place.

    Each entry is popped off ``cache`` as its layer runs, so an activation is
    freed once no later step reads it and ``cache`` ends up empty."""
    t = params.tensors
    grads: dict[str, np.ndarray] = {}
    skip_grads = []  # concat pushes the skip's share of the gradient, its pool adds it back
    g = grad_out
    for i, (kind, name, _) in reversed(list(enumerate(_layers(params.config)))):
        entry = cache.pop()
        if kind == "conv":
            g, grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward(
                entry, t[f"{name}.w"], g, input_grad=input_grad or i > 0
            )
        elif kind == "up":
            g, grads[f"{name}.w"], grads[f"{name}.b"] = upconv2d_backward(entry, t[f"{name}.w"], g)
        elif kind == "relu":
            g = relu_backward(entry, g)
        elif kind == "pool":
            g = maxpool2d_backward(entry, g) + skip_grads.pop()
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
# checkpoint format UNP2: the config fixes every tensor's name, order and shape

CKPT_MAGIC = b"UNP2"
_CKPT_HEADER = struct.Struct("<4sHIIIB")  # magic, depth, in/out/base channels, normalize 0/1


def save_params(params: UNetParams, path: str | Path) -> Path:
    """Write a UNP2 checkpoint: the header, then every tensor's little-endian
    float32 values in ``_param_shapes`` order. ValueError unless the tensors are
    exactly those, in that order and shape. The write goes to ``<path>.part``
    and is renamed over ``path``, so a failed write leaves an earlier file intact."""
    cfg = params.config
    expected = list(_param_shapes(cfg).items())
    if [(name, arr.shape) for name, arr in params.tensors.items()] != expected:
        raise ValueError(f"params do not hold the {len(expected)} tensors of {cfg} in order")
    with _atomic_write(path) as f:
        f.write(_CKPT_HEADER.pack(CKPT_MAGIC, cfg.depth, cfg.in_channels, cfg.out_channels,
                                  cfg.base_channels, cfg.normalize))
        for arr in params.tensors.values():
            f.write(np.ascontiguousarray(arr, dtype="<f4").data)  # the buffer, no bytes copy
    return Path(path)


def load_params(path: str | Path) -> UNetParams:
    """Read a UNP2 checkpoint. ValueError unless the header is a valid config
    and the file is exactly the header plus that config's values, all finite.
    The size is checked before the payload is read, so a forged header cannot
    make the reader allocate more than the file holds."""
    with open(path, "rb") as f:
        head = f.read(_CKPT_HEADER.size)
        if len(head) != _CKPT_HEADER.size or head[:4] != CKPT_MAGIC:
            raise ValueError(f"{path} is too short or not a UNP2 checkpoint")
        _, depth, ci, co, base, normalize = _CKPT_HEADER.unpack(head)
        if normalize > 1:
            raise ValueError(f"{path}: normalize byte {normalize} is not 0 or 1")
        cfg = UNetConfig(depth, ci, co, base, bool(normalize))
        if cfg.level_channels(depth - 1) >= 2**32:  # dims are u32; also bounds the depth
            raise ValueError(f"{path}: config {cfg} has channel counts beyond u32")
        shapes = _param_shapes(cfg)
        sizes = [math.prod(shape) for shape in shapes.values()]
        actual, expected = os.fstat(f.fileno()).st_size, _CKPT_HEADER.size + 4 * sum(sizes)
        if actual != expected:
            raise ValueError(f"{path}: file size {actual} != header + payload {expected} of {cfg}")
        values = np.fromfile(f, dtype="<f4", count=sum(sizes)).astype(np.float32, copy=False)
    if not np.isfinite(values).all():
        raise ValueError(f"{path} holds non-finite values")
    parts = np.split(values, np.cumsum(sizes)[:-1])
    return UNetParams(cfg, {name: p.reshape(shape) for (name, shape), p in zip(shapes.items(), parts)})
