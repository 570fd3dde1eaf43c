"""From-scratch dense CNN kernels and a configurable-depth U-Net.

All kernels take and return (n, c, h, w) arrays and come in forward/backward
pairs whose gradients are exact (validated against central finite differences
in float64).

Activations live in the *ringed* layout: an (n, c, h, w) activation is the
interior view of a channel-major (c, n, h+2, w+2) buffer whose one-pixel ring
is all zero, exactly the zero padding a 3x3 conv reads. A conv uses a ringed
input's buffer as its padded operand and writes its output straight into a
fresh ringed buffer, or with ``out=`` into one channel block of a larger one,
so no layer pads, crops or copies between kernels. A concat copies nothing
either: its two inputs must be adjacent channel blocks of one buffer, which
their kernels filled in place, and it returns the view of both. The invariant:
only the kernel that fills a ringed buffer or block writes its ring. A kernel
trusts a buffer only after it has checked that the ring is zero (``_ring``);
any other array, plain or a look-alike view, is rejected (ValueError). The
concat checks no ring: the conv that reads it checks the joined buffer. Pools,
the channel split and an up-conv's output gradient read views, of any array.
Every activation or gradient a kernel returns is ringed, and ``ringed_empty``
gives callers an input to fill. The ReLUs work in place on the array they are
given. Conventions:

  * convolutions are cross-correlations with zero same-padding, stride 1,
    kernel dims 1 or 3, computed per band of flat positions of the whole padded
    batch from the kh row shifts of its input: one matrix product puts the kw
    column taps in its output rows, and kw-1 shifted adds sum them; results
    are bit-reproducible for fixed array shapes, band budget
    (``_BAND_ELEMENTS``) and BLAS thread count, but the summation order inside
    each product is BLAS's own; bias gradients sum each channel's whole padded
    buffer, and an up-conv's weight gradient sums over its input's ring too
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

A level's skip lives in its concat from the start: the forward makes the
concat's (2f, n, h+2, w+2) buffer with ``np.empty`` when the level's second conv
runs, that conv writes the skip into the first f channels, and the level's
up-conv later writes the second f. Each fills its block's ring itself, so the
second block's pages are untouched until the up-conv.

Only ``unet_forward_cached`` keeps a backward cache, holding each activation once:
a ReLU caches its output, the very array the next conv, up-conv or pool caches as
its input, and the backward pass pops each entry once its layer is done. A pool's
input is its level's skip, so its entry and its ReLU's are a view of the concat's
first channels, and the decoder conv that reads the concat caches the joined view.
``cache_bytes`` gives the bytes such a cache holds, from shapes alone.
A caller may replace an entry by a function that rebuilds it: the backward pass
calls it when the entry's layer runs, so the array need not be held until then.
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


def _interior(buf: np.ndarray) -> np.ndarray:
    """The (n, c, h, w) view of a ringed (c, n, h+2, w+2) buffer."""
    return buf[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)


def _ring_rows_and_columns(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of the ring of every (n, c) image of a (c, n, H, W) buffer: its rows 0
    and H-1, and its columns 0 and W-1 as the (last of one row, first of the next)
    pairs they form in memory, each pair one complex element (float32 and float64
    buffers). The pairs miss only the buffer's first and last cells, which are in
    ring rows."""
    c, n, H, W = buf.shape
    flat = buf.reshape(-1)
    pairs = flat[W - 1 : W - 1 + (c * n * H - 1) * W].reshape(-1, W)[:, :2]
    return buf[:, :, :: H - 1], pairs.view(np.dtype(f"c{2 * buf.itemsize}"))


def _zero_ring(buf: np.ndarray) -> None:
    """Zero the one-pixel ring of every (n, c) image of a (c, n, H, W) buffer."""
    rows, columns = _ring_rows_and_columns(buf)
    rows[...] = 0
    columns[...] = 0


def ringed_empty(n: int, c: int, h: int, w: int, dtype=np.float32) -> np.ndarray:
    """An (n, c, h, w) activation in the ringed layout for its maker to fill: a
    fresh buffer with a zero ring around an uninitialized interior."""
    buf = np.empty((c, n, h + 2, w + 2), dtype)
    _zero_ring(buf)
    return _interior(buf)


def _buffer(x: np.ndarray) -> np.ndarray:
    """The (c, n, h+2, w+2) buffer whose interior ``x`` is, whatever its ring
    holds; ValueError if there is none."""
    base = x.base
    if x.ndim == 4 and isinstance(base, np.ndarray) and base.dtype == x.dtype and base.flags.c_contiguous:
        n, c, h, w = x.shape
        s, H, W = x.itemsize, h + 2, w + 2
        offset, misaligned = divmod(x.ctypes.data - base.ctypes.data, s)
        start, size = offset - (W + 1), c * n * H * W
        strides = (H * W * s, n * H * W * s, W * s, s)
        if x.strides == strides and not misaligned and 0 <= start <= base.size - size:
            return base.reshape(-1)[start : start + size].reshape(c, n, H, W)
    raise ValueError(f"a {x.shape} array that is not a ringed activation (see ringed_empty)")


def _ring(x: np.ndarray) -> np.ndarray:
    """``_buffer(x)`` if its ring is all zero; ValueError otherwise, so a
    look-alike view is never trusted."""
    buf = _buffer(x)
    rows, columns = _ring_rows_and_columns(buf)
    if rows.any() or columns.any():
        raise ValueError("a ringed activation whose ring is not zero")
    return buf


def _row_bands(xp: np.ndarray, kh: int, kw: int, co: int):
    """Yield (b0, b1, rows, taps) over bands of the flat positions of a ringed
    (ci, n, H, W) buffer ``xp``, for a kernel with ``co`` outputs. Position p reads
    ``xpf[:, p + dy*W + dx]`` for tap (dy, dx) of the flat ``xpf``, so a band needs
    only its kh row shifts: ``rows`` is (ci*kh, b1-b0+kw-1) with
    ``rows[c*kh + dy, q] = xpf[c, b0 + dy*W + q]``, and tap (dy, dx) of position
    b0+j is ``rows[:, j + dx]``. ``taps`` is an uninitialized (co*kw, b1-b0+kw-1)
    buffer for the band's GEMM with the column taps in M. Bands cross into the
    next image; positions whose output lands in the ring are computed there, then
    zeroed. The next band overwrites both buffers."""
    ci, W = xp.shape[0], xp.shape[3]
    xpf = xp.reshape(ci, -1)
    span = xpf.shape[1] - (kh - 1) * W - (kw - 1)  # one past the last position
    band = max(1, _BAND_ELEMENTS // max(ci * kh, co * kw))
    row_buf = np.empty(ci * kh * (min(band, span) + kw - 1), dtype=xp.dtype)
    tap_buf = np.empty(co * kw * (min(band, span) + kw - 1), dtype=xp.dtype)
    for b0 in range(0, span, band):
        b1 = min(span, b0 + band)
        q = b1 - b0 + kw - 1
        rows = row_buf[: ci * kh * q].reshape(ci, kh, q)
        for dy in range(kh):
            rows[:, dy] = xpf[:, b0 + dy * W : b1 + dy * W + kw - 1]
        yield b0, b1, rows.reshape(ci * kh, q), tap_buf[: co * kw * q].reshape(co * kw, q)


def _correlate(
    xp: np.ndarray, k: np.ndarray, bias: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Stride-1 cross-correlation, plus ``bias`` if given, of a ringed (ci, n, H, W)
    buffer ``xp``, as the (n, co, h, w) interior of a (co, n, H, W) buffer ``out``
    (a fresh one if None), each output at its input's position: flat position
    p + (kh//2)*W + kw//2 for band position p. One GEMM per band puts the
    column taps in M, ``P[(o, dx), q] = sum over (c, dy) of k[o, c, dy, dx] * rows[(c, dy), q]``,
    and position b0+j sums ``P[(o, dx), j + dx]`` over dx, then adds the bias."""
    co, ci, kh, kw = k.shape
    _, n, H, W = xp.shape
    k2 = k.transpose(0, 3, 1, 2).reshape(co * kw, ci * kh)
    if out is None:
        out = np.empty((co, n, H, W), dtype=xp.dtype)
    flat = out.reshape(co, -1)[:, (kh // 2) * W + kw // 2 :]
    for b0, b1, rows, taps in _row_bands(xp, kh, kw, co):
        acc = flat[:, b0:b1]
        if kw == 1:
            np.matmul(k2, rows, out=acc)
        else:
            m = b1 - b0
            p = np.matmul(k2, rows, out=taps).reshape(co, kw, -1)
            np.add(p[:, 0, :m], p[:, 1, 1 : m + 1], out=acc)
            acc += p[:, 2, 2 : m + 2]
        if bias is not None:
            acc += bias[:, None]
    _zero_ring(out)  # the bands wrote garbage there, or nothing
    return _interior(out)


def _check_conv_kernel(x: np.ndarray, k: np.ndarray) -> None:
    if x.shape[1] != k.shape[1]:
        raise ValueError(f"input has {x.shape[1]} channels, kernel expects {k.shape[1]}")
    if not {k.shape[2], k.shape[3]} <= {1, 3}:
        raise ValueError(f"kernel dims {k.shape[2:]} are not 1 or 3: the ring pads one pixel")


def _out_buffer(out: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """The buffer of ``out=``, an (n, c, h, w) channel block of a ringed buffer
    that the calling kernel fills, ring included; ValueError if ``out`` has
    another shape or dtype or is no such block."""
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(f"out is {out.shape} {out.dtype}, not {shape} {np.dtype(dtype)}")
    return _buffer(out)


def conv2d_forward(x: np.ndarray, k: np.ndarray, bias: np.ndarray, *, out: np.ndarray | None = None):
    """Same-padded stride-1 cross-correlation: (n,ci,h,w) * (co,ci,kh,kw) -> (n,co,h,w),
    written into ``out`` if given (see ``_out_buffer``) and returned."""
    n, _, h, w = x.shape
    _check_conv_kernel(x, k)
    if bias.shape != (k.shape[0],):
        raise ValueError(f"bias shape {bias.shape} != ({k.shape[0]},)")
    if out is not None:
        out = _out_buffer(out, (n, k.shape[0], h, w), x.dtype)
    return _correlate(_ring(x), k, bias, out)


def conv2d_backward(x: np.ndarray, k: np.ndarray, grad_out: np.ndarray, *, input_grad: bool = True):
    """Gradients of sum(grad_out * conv2d_forward(x, k, b)) w.r.t. x, k, b; the
    gradient w.r.t. x is None when ``input_grad`` is false."""
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    _check_conv_kernel(x, k)
    if grad_out.shape != (n, co, h, w):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(n, co, h, w)}")
    xp, gp = _ring(x), _ring(grad_out)
    gpf = gp.reshape(co, -1)
    shift = (kh // 2) * gp.shape[3] + kw // 2  # gpf[:, p + shift]: grad_out at p, 0 in the ring
    # grad_k[(o, dx), (c, dy)] sums grad_out at b0+j times rows[(c, dy), j + dx]: one
    # GEMM per band against grad_out copied kw times, shifted by dx, zero where j is
    # outside the band
    grad_k = np.zeros((co * kw, ci * kh), dtype=k.dtype)
    for b0, b1, rows, taps in _row_bands(xp, kh, kw, co):
        m = b1 - b0
        g = taps.reshape(co, kw, -1)
        for dx in range(kw):
            g[:, dx, :dx] = 0
            g[:, dx, dx : dx + m] = gpf[:, b0 + shift : b1 + shift]
            g[:, dx, dx + m :] = 0
        grad_k += taps @ rows.T
    del rows, taps, g  # the band buffers need not sit beside grad_x's
    grad_k = grad_k.reshape(co, kw, ci, kh).transpose(0, 2, 3, 1).copy()
    grad_bias = gpf.sum(axis=1)  # the ring adds zeros
    if not input_grad:
        return None, grad_k, grad_bias
    # the input gradient correlates grad_out with the flipped, transposed kernel
    return _correlate(gp, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)), grad_k, grad_bias


def relu_forward(x: np.ndarray) -> np.ndarray:
    """max(x, 0), written into ``x`` and returned: the caller hands over an array it owns."""
    buf = _ring(x)
    np.maximum(buf, 0, out=buf)
    return x


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient passes where x > 0; the subgradient at exactly 0 is 0. ``x`` may
    be the ReLU's input or its output: ``x > 0`` is the same mask for both,
    also for NaN and -0.0. Written into ``grad_out``, which is returned."""
    if x.shape != grad_out.shape:
        raise ValueError(f"x shape {x.shape} != grad_out shape {grad_out.shape}")
    # whole buffers: grad_out's zero ring times any mask, also one read from x's ring, stays zero
    xb, gb = _buffer(x), _ring(grad_out)
    np.multiply(gb, xb > 0, out=gb)
    return grad_out


def _window_max(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    a, b, c, d = (x[:, :, dy::2, dx::2] for dy, dx in _WINDOW)
    out = np.maximum(a, b, out=out)
    return np.maximum(out, np.maximum(c, d), out=out)  # np.maximum propagates NaN


def maxpool2d_forward(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max-pool: (n,c,h,w) -> (n,c,h/2,w/2); a window holding a NaN pools to NaN."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even, got {h}x{w}")
    return _window_max(x, ringed_empty(n, c, h // 2, w // 2, x.dtype))


def maxpool2d_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the forward input ``x``: each window's grad_out goes to its
    first row-major element equal to the window max; a NaN window equals nothing."""
    m = _window_max(x)  # not maxpool2d_forward: the backward is no second forward
    if grad_out.shape != m.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != {m.shape}")
    grad = ringed_empty(*x.shape, grad_out.dtype)
    routed = np.zeros(m.shape, dtype=bool)
    for dy, dx in _WINDOW:  # the four views cover grad exactly once
        win = (x[:, :, dy::2, dx::2] == m) & ~routed
        np.multiply(grad_out, win, out=grad[:, :, dy::2, dx::2])
        routed |= win
    return grad


def _check_upconv_kernel(x: np.ndarray, k: np.ndarray) -> None:
    if k.shape[0] != x.shape[1] or k.shape[2:] != (2, 2):
        raise ValueError(f"kernel shape {k.shape} incompatible with input {x.shape}")


def upconv2d_forward(x: np.ndarray, k: np.ndarray, bias: np.ndarray, *, out: np.ndarray | None = None):
    """2x2 stride-2 transposed convolution: (n,ci,h,w) * (ci,co,2,2) -> (n,co,2h,2w)
    in x's dtype, as a conv's, written into ``out`` if given (see ``_out_buffer``)
    and returned."""
    n, ci, h, w = x.shape
    co = k.shape[1]
    _check_upconv_kernel(x, k)
    if bias.shape != (co,):
        raise ValueError(f"bias shape {bias.shape} != ({co},)")
    xp = _ring(x)
    shape = (n, co, 2 * h, 2 * w)
    if out is None:
        out = ringed_empty(*shape, x.dtype)
    else:
        _zero_ring(_out_buffer(out, shape, x.dtype))
    # one (4co, ci) GEMM over the ringed input gives every tap; row o*4 + dy*2 + dx
    # lands at (2y+dy, 2x+dx). The bias is added while the taps are contiguous.
    taps = (k.reshape(ci, 4 * co).T @ xp.reshape(ci, -1)).reshape(co, 4, -1)
    taps += bias[:, None, None]
    taps = taps.reshape(co, 2, 2, n, h + 2, w + 2)
    out6 = out.reshape(n, co, h, 2, w, 2)
    for dy, dx in _WINDOW:  # each tap copied straight to its output pixels
        out6[:, :, :, dy, :, dx] = taps[:, dy, dx, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)
    return out


def upconv2d_backward(x: np.ndarray, k: np.ndarray, grad_out: np.ndarray):
    n, ci, h, w = x.shape
    co = k.shape[1]
    _check_upconv_kernel(x, k)
    if grad_out.shape != (n, co, 2 * h, 2 * w):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(n, co, 2 * h, 2 * w)}")
    # inverse pixel shuffle into x's ringed geometry: (n, co, 2h, 2w) -> (4co, n, h+2, w+2),
    # rows as in the forward, with a zero ring
    g = np.empty((4 * co, n, h + 2, w + 2), dtype=grad_out.dtype)
    _zero_ring(g)
    shuffled = grad_out.reshape(n, co, h, 2, w, 2).transpose(1, 3, 5, 0, 2, 4)
    g.reshape(co, 2, 2, n, h + 2, w + 2)[..., 1:-1, 1:-1] = shuffled
    g = g.reshape(4 * co, -1)
    grad_x = (k.reshape(ci, 4 * co) @ g).reshape(ci, n, h + 2, w + 2)
    _zero_ring(grad_x)
    grad_k = _ring(x).reshape(ci, -1) @ g.T  # the rings add zeros
    grad_bias = g.reshape(co, -1).sum(axis=1)
    return _interior(grad_x), grad_k.reshape(k.shape), grad_bias


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two (n,*,h,w) activations along the channel axis without a copy: ``b``'s
    channel block must directly follow ``a``'s in one ringed buffer, and the result
    is the interior view of the two blocks; ValueError otherwise. The rings are
    not scanned here: the next conv scans the joined buffer."""
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:] or a.dtype != b.dtype:
        raise ValueError(f"incompatible activations {a.shape} {a.dtype} and {b.shape} {b.dtype}")
    ab, bb = _buffer(a), _buffer(b)
    if a.base is not b.base or ab.ctypes.data + ab.nbytes != bb.ctypes.data:
        raise ValueError("the second activation's block does not directly follow the first's in one buffer")
    start = (ab.ctypes.data - a.base.ctypes.data) // a.itemsize
    return _interior(a.base.reshape(-1)[start : start + ab.size + bb.size].reshape(-1, *ab.shape[1:]))


def _add_ringed(a: np.ndarray, b: np.ndarray) -> None:
    """a += b, over the whole buffers of ringed a and b: their zero rings sum to zero."""
    ab = _ring(a)
    ab += _ring(b)


def split_channels(grad: np.ndarray, first_channels: int):
    """Backward of concat_channels: split the gradient at the seam."""
    return grad[:, :first_channels], grad[:, first_channels:]


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all elements; returns (loss, dloss/dpred)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = np.subtract(pred, target, order="C")  # summed in (n, c, h, w) order, whatever the layout
    loss = float(np.mean(diff * diff))
    diff *= 2.0  # in place, rounding as 2.0 * diff / diff.size does
    diff /= diff.size
    return loss, diff


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
    ``relu``, ``pool`` (its input is the level's skip, which the conv two layers
    before it wrote) and ``concat`` (join the latest skip with the up-conv output
    behind it). Only conv and up layers have a name and a weight shape; they come
    in UNP2 checkpoint order.
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


def _concat_blocks(n: int, f: int, h: int, w: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The (n, f, h, w) interiors of the two channel blocks of a fresh (2f, n, h+2,
    w+2) buffer, rings and all uninitialized: the kernel that fills a block
    (``out=``) writes its ring."""
    joined = np.empty((2 * f, n, h + 2, w + 2), dtype)
    return _interior(joined[:f]), _interior(joined[f:])


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
    layers = _layers(cfg)
    skip_convs = {i - 2 for i, (kind, _, _) in enumerate(layers) if kind == "pool"}  # conv, relu, pool
    blocks = []  # the (skip, up-conv) channel blocks of each pending concat's buffer
    for i, (kind, name, _) in enumerate(layers):
        entry = x
        if kind == "conv":
            out = None
            if i in skip_convs:  # the level's skip, written into its concat's first block
                blocks.append(_concat_blocks(n, t[f"{name}.w"].shape[0], *x.shape[2:], x.dtype))
                out = blocks[-1][0]
            x = conv2d_forward(x, t[f"{name}.w"], t[f"{name}.b"], out=out)
        elif kind == "up":
            x = upconv2d_forward(x, t[f"{name}.w"], t[f"{name}.b"], out=blocks[-1][1])
        elif kind == "relu":
            x = entry = relu_forward(x)
        elif kind == "pool":
            x = maxpool2d_forward(x)
        else:  # concat
            entry = blocks[-1][0].shape[1]
            x = concat_channels(blocks.pop()[0], x)
        if cache is not None:
            cache.append(entry)
    return x


def unet_forward_cached(params: UNetParams, x: np.ndarray):
    """Forward pass on a ringed input (``ringed_empty``) returning (output, cache),
    one cache entry per layer of ``_layers``:
    the input of conv/up/pool, the output of relu (the array the next layer caches,
    so it is held once) and the skip's channel count for concat. A pool's entry and
    its ReLU's are one view of the skip's channels in the concat's buffer, whose
    joined view the next conv caches as its input, so the skip's bytes are held
    once too."""
    cache = []
    return _forward(params, x, cache), cache


def cache_bytes(cfg: UNetConfig, n: int, h: int, w: int, dtype=np.float32) -> int:
    """Bytes that the cache of ``unet_forward_cached`` holds for a ringed (n,
    in_channels, h, w) input of ``dtype``, h and w multiples of
    ``cfg.spatial_multiple``: the ringed buffers of the input, and of the output
    of each ReLU (but a skip's, held in its concat), pool and concat."""
    layers = _layers(cfg)
    c = cfg.in_channels
    held = c * (h + 2) * (w + 2)
    for i, (kind, _, shape) in enumerate(layers):
        if kind == "conv":
            c = shape[0]
        elif kind == "up":
            c, h, w = shape[1], 2 * h, 2 * w
        elif kind == "pool":
            h, w = h // 2, w // 2
        elif kind == "concat":
            c *= 2
        if kind in ("pool", "concat") or (kind == "relu" and layers[i + 1][0] != "pool"):
            held += c * (h + 2) * (w + 2)
    return n * held * np.dtype(dtype).itemsize


def unet_forward(params: UNetParams, x: np.ndarray) -> np.ndarray:
    """Run the network on a ringed input (``ringed_empty``), holding only the skips;
    output dims equal the (aligned) input dims."""
    return _forward(params, x, None)


def unet_backward_cached(params: UNetParams, cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Run ``_layers`` in reverse over the forward cache; returns the parameter
    gradients of sum(grad_out * output) in canonical order. The first conv
    computes no input gradient: nothing reads one.

    Each entry is popped off ``cache`` as its layer runs, so an activation is
    freed once no later step reads it and ``cache`` ends up empty. An entry
    that is callable is called then, and its result is the entry: a caller can
    rebuild an array there instead of holding it through the backward pass."""
    t = params.tensors
    grads: dict[str, np.ndarray] = {}
    skip_grads = []  # concat pushes the skip's share of the gradient, its pool adds it back
    g = grad_out
    for i, (kind, name, _) in reversed(list(enumerate(_layers(params.config)))):
        entry = cache.pop()
        if callable(entry):
            entry = entry()
        if kind == "conv":
            g, grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward(
                entry, t[f"{name}.w"], g, input_grad=i > 0
            )
        elif kind == "up":
            g, grads[f"{name}.w"], grads[f"{name}.b"] = upconv2d_backward(entry, t[f"{name}.w"], g)
        elif kind == "relu":
            g = relu_backward(entry, g)
        elif kind == "pool":
            g = maxpool2d_backward(entry, g)
            _add_ringed(g, skip_grads.pop())
        else:  # concat
            g_skip, g = split_channels(g, entry)
            skip_grads.append(g_skip)
    return {name: grads[name] for name in t}


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
