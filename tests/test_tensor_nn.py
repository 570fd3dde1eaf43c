import dataclasses
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import max_rel_err, numeric_grad
from gridcast import tensor_nn as tn


# ---------------------------------------------------------------------------
# conv2d

def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 5))
    k = np.zeros((3, 3, 1, 1))
    for i in range(3):
        k[i, i, 0, 0] = 1.0
    out = tn.conv2d_forward(x, k, np.zeros(3))
    assert np.allclose(out, x)


def test_conv_ones_kernel_edge_effects():
    x = np.ones((1, 1, 4, 4))
    out = tn.conv2d_forward(x, np.ones((1, 1, 3, 3)), np.zeros(1))[0, 0]
    assert out[1, 1] == out[1, 2] == 9  # interior
    assert out[0, 0] == out[0, 3] == out[3, 0] == out[3, 3] == 4  # corners
    assert out[0, 1] == out[1, 0] == out[2, 3] == 6  # edges


def test_conv_zero_kernel_gives_bias():
    x = np.random.default_rng(1).normal(size=(1, 2, 3, 3))
    out = tn.conv2d_forward(x, np.zeros((4, 2, 3, 3)), np.array([1.0, -2.0, 0.5, 0.0]))
    for co, b in enumerate([1.0, -2.0, 0.5, 0.0]):
        assert np.all(out[0, co] == b)


def test_conv_backward_zero_grad():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 2, 4, 4))
    k = rng.normal(size=(3, 2, 3, 3))
    gx, gk, gb = tn.conv2d_backward(x, k, np.zeros((1, 3, 4, 4)))
    assert not gx.any() and not gk.any() and not gb.any()


def test_conv_backward_bias_is_channel_sum():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 4, 4))
    k = rng.normal(size=(3, 2, 3, 3))
    go = rng.normal(size=(2, 3, 4, 4))
    _, _, gb = tn.conv2d_backward(x, k, go)
    assert np.allclose(gb, go.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("seed", range(5))
def test_conv_backward_finite_difference(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 5, 5))
    k = rng.normal(size=(2, 3, 3, 3))
    b = rng.normal(size=2)
    go = rng.normal(size=(2, 2, 5, 5))
    loss = lambda: float(np.sum(go * tn.conv2d_forward(x, k, b)))
    gx, gk, gb = tn.conv2d_backward(x, k, go)
    assert max_rel_err(gx, numeric_grad(loss, x)) < 1e-5
    assert max_rel_err(gk, numeric_grad(loss, k)) < 1e-5
    assert max_rel_err(gb, numeric_grad(loss, b)) < 1e-5


# ---------------------------------------------------------------------------
# relu

def test_relu_values_and_gradient():
    x = np.array([-1.0, 0.0, 2.0])
    assert tn.relu_forward(x).tolist() == [0.0, 0.0, 2.0]
    assert tn.relu_backward(x, np.ones(3)).tolist() == [0.0, 0.0, 1.0]


def test_relu_finite_difference_away_from_zero():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40,))
    x[np.abs(x) < 0.05] = 0.5  # keep clear of the kink
    go = rng.normal(size=40)
    loss = lambda: float(np.sum(go * tn.relu_forward(x)))
    assert max_rel_err(tn.relu_backward(x, go), numeric_grad(loss, x)) < 1e-5


# ---------------------------------------------------------------------------
# maxpool

def test_maxpool_window_and_gradient_routing():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    pooled = tn.maxpool2d_forward(x)
    assert pooled[0, 0, 0, 0] == 4.0
    grad = tn.maxpool2d_backward(x, np.ones((1, 1, 1, 1)))
    assert grad[0, 0].tolist() == [[0.0, 0.0], [0.0, 1.0]]


def test_maxpool_tie_break_first_row_major():
    x = np.full((1, 1, 2, 2), 5.0)
    pooled = tn.maxpool2d_forward(x)
    assert pooled[0, 0, 0, 0] == 5.0
    grad = tn.maxpool2d_backward(x, np.ones((1, 1, 1, 1)))
    assert grad[0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("pos", range(4))
def test_maxpool_nan_anywhere_in_a_window_pools_to_nan_and_routes_nothing(pos):
    x = np.array([[[[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]]]])
    x[0, 0, pos // 2, pos % 2] = np.nan
    pooled = tn.maxpool2d_forward(x)
    assert np.isnan(pooled[0, 0, 0, 0]) and pooled[0, 0, 0, 1] == 8.0
    grad = tn.maxpool2d_backward(x, np.array([[[[2.0, 3.0]]]]))
    assert grad[0, 0].tolist() == [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 3.0]]


def test_maxpool_backward_does_not_call_the_forward(monkeypatch):
    # a benchmark wraps maxpool2d_forward by name and counts each call as a pool forward
    x = np.array([[[[1.0, 9.0], [9.0, 4.0]]]])

    def forbidden(_):
        raise AssertionError("maxpool2d_backward called maxpool2d_forward")

    monkeypatch.setattr(tn, "maxpool2d_forward", forbidden)
    grad = tn.maxpool2d_backward(x, np.full((1, 1, 1, 1), 2.5))
    assert grad[0, 0].tolist() == [[0.0, 2.5], [0.0, 0.0]]


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ValueError):
        tn.maxpool2d_forward(np.zeros((1, 1, 3, 4)))


@pytest.mark.parametrize("seed", range(5))
def test_maxpool_finite_difference_untied(seed):
    rng = np.random.default_rng(seed)
    x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)  # all distinct
    go = rng.normal(size=(1, 1, 4, 4))

    def loss():
        return float(np.sum(go * tn.maxpool2d_forward(x)))

    analytic = tn.maxpool2d_backward(x, go)
    assert max_rel_err(analytic, numeric_grad(loss, x)) < 1e-5


# ---------------------------------------------------------------------------
# upconv

def test_upconv_broadcasts_single_value():
    x = np.full((1, 1, 1, 1), 3.5)
    out = tn.upconv2d_forward(x, np.ones((1, 1, 2, 2)), np.zeros(1))
    assert out.shape == (1, 1, 2, 2)
    assert np.all(out == 3.5)


def test_upconv_zero_input_gives_bias():
    out = tn.upconv2d_forward(
        np.zeros((1, 2, 3, 3)), np.zeros((2, 3, 2, 2)), np.array([1.0, 2.0, -1.0])
    )
    assert out.shape == (1, 3, 6, 6)
    for co, b in enumerate([1.0, 2.0, -1.0]):
        assert np.all(out[0, co] == b)


@pytest.mark.parametrize("seed", range(5))
def test_upconv_backward_finite_difference(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 4, 4))
    k = rng.normal(size=(3, 2, 2, 2))
    b = rng.normal(size=2)
    go = rng.normal(size=(2, 2, 8, 8))
    loss = lambda: float(np.sum(go * tn.upconv2d_forward(x, k, b)))
    gx, gk, gb = tn.upconv2d_backward(x, k, go)
    assert max_rel_err(gx, numeric_grad(loss, x)) < 1e-5
    assert max_rel_err(gk, numeric_grad(loss, k)) < 1e-5
    assert max_rel_err(gb, numeric_grad(loss, b)) < 1e-5


# ---------------------------------------------------------------------------
# concat / pad / mse / clamp

def test_concat_and_split_shapes():
    a = np.zeros((2, 4, 3, 3))
    b = np.ones((2, 6, 3, 3))
    cat = tn.concat_channels(a, b)
    assert cat.shape == (2, 10, 3, 3)
    ga, gb = tn.split_channels(cat, 4)
    assert ga.shape == a.shape and gb.shape == b.shape
    assert np.array_equal(ga, a) and np.array_equal(gb, b)


def test_concat_rejects_mismatch():
    with pytest.raises(ValueError):
        tn.concat_channels(np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 4, 4)))


def test_pad_spatial_to_multiple_16():
    x = np.zeros((1, 3, 495, 436))
    padded, hw = tn.pad_spatial(x, 16)
    assert padded.shape == (1, 3, 496, 448)
    assert hw == (495, 436)
    aligned, hw2 = tn.pad_spatial(np.zeros((1, 3, 32, 48)), 16)
    assert aligned.shape == (1, 3, 32, 48) and hw2 == (32, 48)


def test_crop_inverts_pad():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 13, 22))
    padded, hw = tn.pad_spatial(x, 8)
    assert np.array_equal(tn.crop_spatial(padded, hw), x)
    assert np.all(padded[..., 13:, :] == 0) and np.all(padded[..., :, 22:] == 0)


def test_mse_loss_values():
    assert tn.mse_loss(np.ones(4), np.ones(4))[0] == 0.0
    assert tn.mse_loss(np.zeros(1), np.array([255.0]))[0] == 65025.0
    rng = np.random.default_rng(6)
    p, t = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    loss, grad = tn.mse_loss(p, t)
    assert loss == pytest.approx(((p - t) ** 2).mean())
    assert np.allclose(grad, 2 * (p - t) / 4)
    assert max_rel_err(grad, numeric_grad(lambda: tn.mse_loss(p, t)[0], p)) < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (2, 9, 31, 29), (1, 9, 495, 436)])
def test_mse_loss_gradient_rounds_as_the_textbook_expression(dtype, shape):
    rng = np.random.default_rng(len(shape))
    p = rng.normal(0, 300, size=shape).astype(dtype)
    t = rng.normal(0, 300, size=shape).astype(dtype)
    diff = p - t
    _, grad = tn.mse_loss(p, t)
    assert grad.dtype == dtype
    assert np.array_equal(grad, 2.0 * diff / diff.size)


def test_clamp_255():
    assert tn.clamp_255(np.array([-3.0, 300.0, 128.0])).tolist() == [0.0, 255.0, 128.0]
    assert tn.round_half_up_uint8(np.array([19.5, -3.0, 300.0])).tolist() == [20, 0, 255]


# ---------------------------------------------------------------------------
# U-Net

def toy_config(**kw):
    defaults = dict(depth=2, in_channels=4, out_channels=2, base_channels=3)
    defaults.update(kw)
    return tn.UNetConfig(**defaults)


def test_unet_shapes_toy():
    params = tn.init_params(toy_config(), seed=0, dtype=np.float64)
    out = tn.unet_forward(params, np.random.default_rng(0).normal(size=(1, 4, 16, 16)))
    assert out.shape == (1, 2, 16, 16)


def test_unet_full_scale_shape():
    cfg = tn.UNetConfig(depth=5, in_channels=36, out_channels=9, base_channels=4)
    params = tn.init_params(cfg, seed=0)
    x = np.zeros((1, 36, 496, 448), dtype=np.float32)
    assert tn.unet_forward(params, x).shape == (1, 9, 496, 448)


def test_unet_rejects_misaligned_input():
    params = tn.init_params(toy_config(), seed=0)
    with pytest.raises(ValueError):
        tn.unet_forward(params, np.zeros((1, 4, 15, 16), dtype=np.float32))


def test_unet_zero_params_output_is_head_bias():
    params = tn.init_params(toy_config(), seed=0, dtype=np.float64)
    for name, arr in params.tensors.items():
        arr[:] = 0.0
    params.tensors["head.b"][:] = [2.5, -1.0]
    out = tn.unet_forward(params, np.random.default_rng(1).normal(size=(1, 4, 8, 8)))
    assert np.all(out[0, 0] == 2.5) and np.all(out[0, 1] == -1.0)


def test_unet_channel_bookkeeping():
    cfg = tn.UNetConfig(depth=3, in_channels=5, out_channels=2, base_channels=6)
    params = tn.init_params(cfg, seed=0)
    for i in range(3):
        assert params.tensors[f"enc{i}.conv2.w"].shape[0] == 6 * 2**i
    assert params.tensors["dec1.conv1.w"].shape[1] == 2 * 12  # skip + upconv


def test_unet_backward_zero_grad_out():
    params = tn.init_params(toy_config(), seed=0, dtype=np.float64)
    x = np.random.default_rng(2).normal(size=(1, 4, 8, 8))
    grads, gx = tn.unet_backward(params, x, np.zeros((1, 2, 8, 8)))
    assert not gx.any()
    assert all(not g.any() for g in grads.values())


def test_unet_grad_shapes_mirror_params():
    params = tn.init_params(toy_config(), seed=0, dtype=np.float64)
    x = np.random.default_rng(3).normal(size=(2, 4, 8, 8))
    go = np.random.default_rng(4).normal(size=(2, 2, 8, 8))
    grads, gx = tn.unet_backward(params, x, go)
    assert list(grads) == list(params.tensors)
    for name in grads:
        assert grads[name].shape == params.tensors[name].shape
    assert gx.shape == x.shape


def test_unet_backward_without_input_grad_skips_only_the_first_conv(monkeypatch):
    params = tn.init_params(toy_config(), seed=0, dtype=np.float64)
    x = np.random.default_rng(3).normal(size=(2, 4, 8, 8))
    go = np.random.default_rng(4).normal(size=(2, 2, 8, 8))
    grads, _ = tn.unet_backward(params, x, go)
    skipped = []
    conv2d_backward = tn.conv2d_backward

    def spy(*args, input_grad=True):
        skipped.append(not input_grad)
        return conv2d_backward(*args, input_grad=input_grad)

    monkeypatch.setattr(tn, "conv2d_backward", spy)  # the module global, as a tracer wraps it
    _, cache = tn.unet_forward_cached(params, x)
    lean, gx = tn.unet_backward_cached(params, cache, go, input_grad=False)
    assert gx is None
    assert skipped[-1] and not any(skipped[:-1])  # only enc0.conv1, which runs last
    assert all(np.array_equal(lean[name], grads[name]) for name in grads)
    k = params.tensors["enc0.conv1.w"]
    assert conv2d_backward(x, k, np.ones((2, 3, 8, 8)), input_grad=False)[0] is None


def test_unet_backward_finite_difference():
    cfg = tn.UNetConfig(depth=2, in_channels=2, out_channels=1, base_channels=3)
    params = tn.init_params(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 2, 8, 8))
    go = rng.normal(size=(1, 1, 8, 8))
    grads, gx = tn.unet_backward(params, x, go)
    loss = lambda: float(np.sum(go * tn.unet_forward(params, x)))
    for name in ("enc0.conv1.w", "enc1.conv2.b", "up0.w", "dec0.conv1.w", "head.w"):
        numeric = numeric_grad(loss, params.tensors[name], eps=1e-5)
        assert max_rel_err(grads[name], numeric) < 1e-4, name
    assert max_rel_err(gx, numeric_grad(loss, x, eps=1e-5)) < 1e-4


def test_unet_forward_deterministic():
    params = tn.init_params(toy_config(), seed=3)
    x = np.random.default_rng(5).normal(size=(2, 4, 16, 16)).astype(np.float32)
    a = tn.unet_forward(params, x)
    b = tn.unet_forward(params, x)
    assert a.tobytes() == b.tobytes()


def test_unet_cache_holds_each_activation_once_and_backward_empties_it():
    cfg = tn.UNetConfig(depth=3, in_channels=4, out_channels=2, base_channels=3)
    params = tn.init_params(cfg, seed=0, dtype=np.float64)
    x = np.random.default_rng(6).normal(size=(2, 4, 8, 8))
    _, cache = tn.unet_forward_cached(params, x)
    layers = tn._layers(cfg)
    assert {kind for kind, _, _ in layers} == {"conv", "relu", "pool", "up", "concat"}
    assert len(cache) == len(layers)
    for i, (kind, _, _) in enumerate(layers):
        if kind == "relu":
            assert (cache[i] >= 0).all()  # the output, not the pre-activation
            reader = layers[i + 1][0]  # it shares its entry with the layer that reads it
            assert reader in ("conv", "up", "pool") and cache[i + 1] is cache[i], (i, reader)
        elif kind == "concat":
            assert type(cache[i]) is int  # the skip's channel count
        else:
            assert isinstance(cache[i], np.ndarray), (i, kind)
    tn.unet_backward_cached(params, cache, np.ones((2, 2, 8, 8)))
    assert cache == []


def _owned_bytes(arrays):
    """Bytes of the distinct buffers that own ``arrays``, each counted once."""
    roots = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        roots[id(a)] = a.nbytes
    return sum(roots.values())


def cache_bytes(cfg, n, h, w, itemsize):
    """Bytes of a backward cache holding each activation once: the input, each
    level's first ReLU, the bottom level's second ReLU, and for every other
    level its pool output, its concat and its two decoder ReLUs."""
    planes = cfg.in_channels * h * w
    for i in range(cfg.depth):
        f, area = cfg.level_channels(i), (h >> i) * (w >> i)
        planes += f * area + (f * area if i == cfg.depth - 1 else f * area // 4 + 4 * f * area)
    return n * planes * itemsize


def test_unet_cache_holds_each_skip_once_inside_its_concat():
    cfg = tn.UNetConfig(depth=3, in_channels=4, out_channels=2, base_channels=3)
    params = tn.init_params(cfg, seed=0, dtype=np.float64)
    x = np.random.default_rng(6).normal(size=(2, 4, 8, 8))
    _, cache = tn.unet_forward_cached(params, x)
    layers = [kind for kind, _, _ in tn._layers(cfg)]
    pools = [i for i, kind in enumerate(layers) if kind == "pool"]
    concats = [i for i, kind in enumerate(layers) if kind == "concat"]
    for pool, concat in zip(pools, reversed(concats)):  # the deepest skip is concatenated first
        cat = cache[concat + 1]  # the decoder conv caches the concat as its input
        assert np.shares_memory(cache[pool], cat)
        assert np.array_equal(cache[pool], cat[:, : cache[concat]])
    arrays = [a for a in cache if isinstance(a, np.ndarray)]
    assert _owned_bytes(arrays) == cache_bytes(cfg, 2, 8, 8, x.itemsize)


def test_unet_forward_without_cache_peaks_well_below_the_cached_forward(monkeypatch):
    # small bands keep the im2col buffer, which both forwards share, out of the peaks
    monkeypatch.setattr(tn, "_BAND_ELEMENTS", 2**12)
    cfg = tn.UNetConfig(depth=3, in_channels=4, out_channels=2, base_channels=4)
    params = tn.init_params(cfg, seed=0, dtype=np.float64)
    x = np.random.default_rng(7).normal(size=(1, 4, 64, 64))
    peaks = []
    for forward in (tn.unet_forward, tn.unet_forward_cached):
        tracemalloc.start()
        try:
            out = forward(params, x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del out
    assert peaks[0] < 0.6 * peaks[1], peaks


def test_relu_backward_same_mask_on_output():
    x = np.array([np.nan, -0.0, 0.0, 1.5, -1.5, 1e-300, -1e-300, np.inf, -np.inf])
    g = np.arange(1.0, x.size + 1)
    assert np.array_equal(tn.relu_backward(tn.relu_forward(x), g), tn.relu_backward(x, g))


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    cfg = tn.UNetConfig(depth=3, in_channels=6, out_channels=9, base_channels=4, normalize=True)
    params = tn.init_params(cfg, seed=11)
    path = tmp_path / "net.unp"
    tn.save_params(params, path)
    assert path.read_bytes()[:4] == b"UNP2"
    loaded = tn.load_params(path)
    assert loaded.config == cfg
    assert list(loaded.tensors) == list(params.tensors)
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name], params.tensors[name])


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.unp"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        tn.load_params(path)


def _small_params(seed=1):
    return tn.init_params(tn.UNetConfig(depth=2, in_channels=2, out_channels=3, base_channels=1), seed)


def _unp1_bytes(params) -> bytes:
    """``params`` in the retired UNP1 layout, which also stored a version, a
    tensor count and each tensor's name and dims."""
    c = params.config
    out = [b"UNP1", struct.pack("<HHIIIBI", 1, c.depth, c.in_channels, c.out_channels,
                                c.base_channels, int(c.normalize), len(params.tensors))]
    for name, arr in params.tensors.items():
        out.append(struct.pack(f"<H{len(name)}sB{arr.ndim}I", len(name), name.encode(), arr.ndim, *arr.shape))
        out.append(arr.astype("<f4").tobytes())
    return b"".join(out)


@pytest.mark.parametrize("fault", ["short_header", "short_tensor", "padded", "nan", "inf", "deep", "unp1"])
def test_checkpoint_rejects_truncated_padded_and_non_finite(tmp_path, fault):
    params = _small_params()
    if fault in ("nan", "inf"):
        params.tensors["up0.w"][0, 0, 1, 1] = float(fault)
    path = tn.save_params(params, tmp_path / "net.unp")
    good = path.read_bytes()
    edited = {
        "short_header": good[:15],
        "short_tensor": good[:-1],
        "padded": good + bytes(8),
        "deep": good[:4] + (65535).to_bytes(2, "little") + good[6:],  # rejected before 65535 levels are built
        "unp1": _unp1_bytes(params),
    }
    path.write_bytes(edited.get(fault, good))
    with pytest.raises(ValueError):
        tn.load_params(path)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checkpoint_every_strict_prefix_is_rejected(tmp_path_factory, data):
    path = tn.save_params(_small_params(), tmp_path_factory.mktemp("ckpt") / "net.unp")
    good = path.read_bytes()
    path.write_bytes(good[: data.draw(st.integers(0, len(good) - 1), label="length")])
    with pytest.raises(ValueError):
        tn.load_params(path)


# offset and format of each UNP2 header field after the magic
_CKPT_FIELDS = {
    "depth": (4, "<H"), "in_channels": (6, "<I"), "out_channels": (10, "<I"),
    "base_channels": (14, "<I"), "normalize": (18, "<B"),
}


@pytest.mark.parametrize("field", _CKPT_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_header_is_rejected(tmp_path_factory, field, data):
    """Any other value in a header field is a ValueError, except that a
    normalize byte of 0 or 1 loads the same weights with that flag."""
    params = _small_params()
    path = tn.save_params(params, tmp_path_factory.mktemp("ckpt") / "net.unp")
    good = path.read_bytes()
    off, fmt = _CKPT_FIELDS[field]
    size = struct.calcsize(fmt)
    old = struct.unpack_from(fmt, good, off)[0]
    new = data.draw(st.integers(0, 2 ** (8 * size) - 1).filter(lambda v: v != old), label="value")
    path.write_bytes(good[:off] + struct.pack(fmt, new) + good[off + size :])
    if field == "normalize" and new in (0, 1):
        loaded = tn.load_params(path)
        assert loaded.config == dataclasses.replace(params.config, normalize=bool(new))
        assert all(np.array_equal(loaded.tensors[k], v) for k, v in params.tensors.items())
    else:
        with pytest.raises(ValueError):
            tn.load_params(path)


def test_checkpoint_size_is_checked_before_the_payload_is_read(tmp_path):
    """A header whose config needs ~70 MB of values, on a file of a few
    hundred bytes, is rejected without allocating the claimed payload."""
    path = tn.save_params(_small_params(), tmp_path / "net.unp")
    good = path.read_bytes()
    path.write_bytes(good[:14] + struct.pack("<I", 682) + good[18:])  # base_channels
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="file size"):
            tn.load_params(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("fault", ["names", "order", "shape"])
def test_save_rejects_tensors_the_config_does_not_fix(tmp_path, fault):
    params = _small_params()
    t = dict(params.tensors)
    if fault == "names":
        t["extra"] = np.zeros(1, dtype=np.float32)
    elif fault == "order":
        t = dict(reversed(t.items()))
    else:
        t["head.b"] = np.zeros(4, dtype=np.float32)
    path = tmp_path / "net.unp"
    with pytest.raises(ValueError):
        tn.save_params(tn.UNetParams(params.config, t), path)
    assert list(tmp_path.iterdir()) == []


def test_parameter_order_is_canonical():
    """Tensor order is the UNP2 serialization order and the init draw order."""
    cfg = tn.UNetConfig(depth=3, in_channels=6, out_channels=9, base_channels=4)
    expected = [
        ("enc0.conv1.w", (4, 6, 3, 3)), ("enc0.conv1.b", (4,)),
        ("enc0.conv2.w", (4, 4, 3, 3)), ("enc0.conv2.b", (4,)),
        ("enc1.conv1.w", (8, 4, 3, 3)), ("enc1.conv1.b", (8,)),
        ("enc1.conv2.w", (8, 8, 3, 3)), ("enc1.conv2.b", (8,)),
        ("enc2.conv1.w", (16, 8, 3, 3)), ("enc2.conv1.b", (16,)),
        ("enc2.conv2.w", (16, 16, 3, 3)), ("enc2.conv2.b", (16,)),
        ("up1.w", (16, 8, 2, 2)), ("up1.b", (8,)),
        ("dec1.conv1.w", (8, 16, 3, 3)), ("dec1.conv1.b", (8,)),
        ("dec1.conv2.w", (8, 8, 3, 3)), ("dec1.conv2.b", (8,)),
        ("up0.w", (8, 4, 2, 2)), ("up0.b", (4,)),
        ("dec0.conv1.w", (4, 8, 3, 3)), ("dec0.conv1.b", (4,)),
        ("dec0.conv2.w", (4, 4, 3, 3)), ("dec0.conv2.b", (4,)),
        ("head.w", (9, 4, 1, 1)), ("head.b", (9,)),
    ]
    params = tn.init_params(cfg, seed=5)
    assert [(k, v.shape) for k, v in params.tensors.items()] == expected
    rng = np.random.default_rng(5)
    for name, shape in expected:
        if name.endswith(".b"):
            assert not params.tensors[name].any()
            continue
        # fan-in counts input channels: axis 1 of a conv weight, axis 0 of an up-conv's
        fan_in = (shape[0] if name.startswith("up") else shape[1]) * shape[2] * shape[3]
        draw = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)
        assert np.array_equal(params.tensors[name], draw), name


def test_config_validation():
    with pytest.raises(ValueError):
        tn.UNetConfig(depth=0)
    with pytest.raises(ValueError):
        tn.UNetConfig(in_channels=0)


# ---------------------------------------------------------------------------
# GEMM kernels against direct-loop references (float64)

def naive_conv(x, k, b):
    n, _, h, w = x.shape
    co, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.empty((n, co, h, w))
    for i in range(n):
        for y in range(h):
            for xx in range(w):
                out[i, :, y, xx] = np.tensordot(k, xp[i, :, y : y + kh, xx : xx + kw], axes=3) + b
    return out


def naive_conv_backward(x, k, go):
    n, _, h, w = x.shape
    _, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for i in range(n):
        for y in range(h):
            for xx in range(w):
                g = go[i, :, y, xx]
                gxp[i, :, y : y + kh, xx : xx + kw] += np.tensordot(g, k, axes=1)
                gk += np.multiply.outer(g, xp[i, :, y : y + kh, xx : xx + kw])
    return gxp[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w], gk, go.sum(axis=(0, 2, 3))


def assert_conv_matches_naive(x, k, rng):
    b = rng.normal(size=k.shape[0])
    go = rng.normal(size=(x.shape[0], k.shape[0], *x.shape[2:]))
    np.testing.assert_allclose(tn.conv2d_forward(x, k, b), naive_conv(x, k, b), rtol=1e-12, atol=1e-12)
    for got, want in zip(tn.conv2d_backward(x, k, go), naive_conv_backward(x, k, go)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-11)


@pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (1, 3), (5, 3), (3, 1)])
def test_conv_matches_direct_loops(kh, kw):
    rng = np.random.default_rng(kh * 10 + kw)
    for ci, co in ((3, 4), (3, 6), (5, 2)):  # co > ci, co = 2*ci and co < ci
        assert_conv_matches_naive(rng.normal(size=(2, ci, 6, 7)), rng.normal(size=(co, ci, kh, kw)), rng)


def test_conv_matches_direct_loops_across_row_bands():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 64, 17, 1000))
    k = rng.normal(size=(2, 64, 3, 3))
    band = tn._BAND_ELEMENTS // max(64 * 3, 2 * 3)
    span = 17 * 1002 - 2  # flat output positions of the image padded to 19x1002
    assert 1 <= band < span and span % band  # several bands, the last one short
    assert_conv_matches_naive(x, k, rng)


@pytest.mark.parametrize("kh,kw", [(3, 3), (1, 1), (1, 3), (5, 3)])
def test_conv_matches_direct_loops_with_bands_across_images(kh, kw, monkeypatch):
    rng = np.random.default_rng(20 + kh * 10 + kw)
    n, ci, h, w = 3, 2, 5, 6
    monkeypatch.setattr(tn, "_BAND_ELEMENTS", max(ci * kh, ci * kw) * 37)  # 37 positions per band
    x = rng.normal(size=(n, ci, h, w))
    image = (h + kh - 1) * (w + kw - 1)  # flat positions of one padded image
    bands = [(b0, b1) for b0, b1, _, _ in tn._row_bands(tn._pad_flat(x, kh, kw), kh, kw, w, ci)]
    assert any(b0 // image < (b1 - 1) // image for b0, b1 in bands)  # a band spans two images
    assert_conv_matches_naive(x, rng.normal(size=(ci, ci, kh, kw)), rng)


def test_1x1_conv_at_batch_one_copies_nothing():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 4, 5, 6))
    assert np.shares_memory(tn._pad_flat(x, 1, 1), x)
    assert not np.shares_memory(tn._pad_flat(x[[0, 0]], 1, 1), x)
    out = np.empty((3, 1, 5, 6))
    assert np.shares_memory(tn._unpad_flat(out, 5, 6), out)
    assert_conv_matches_naive(x, rng.normal(size=(3, 4, 1, 1)), rng)


@pytest.mark.parametrize("ci,co", [(1, 1), (3, 2), (8, 5)])
def test_upconv_matches_direct_loops(ci, co):
    rng = np.random.default_rng(ci * 10 + co)
    n, h, w = 2, 3, 4
    x = rng.normal(size=(n, ci, h, w))
    k = rng.normal(size=(ci, co, 2, 2))
    b = rng.normal(size=co)
    go = rng.normal(size=(n, co, 2 * h, 2 * w))
    out = np.empty((n, co, 2 * h, 2 * w))
    gx = np.zeros_like(x)
    gk = np.zeros_like(k)
    for i in range(n):
        for y in range(h):
            for xx in range(w):
                for dy in range(2):
                    for dx in range(2):
                        out[i, :, 2 * y + dy, 2 * xx + dx] = x[i, :, y, xx] @ k[:, :, dy, dx] + b
                        g = go[i, :, 2 * y + dy, 2 * xx + dx]
                        gx[i, :, y, xx] += k[:, :, dy, dx] @ g
                        gk[:, :, dy, dx] += np.multiply.outer(x[i, :, y, xx], g)
    np.testing.assert_allclose(tn.upconv2d_forward(x, k, b), out, rtol=1e-12, atol=1e-12)
    got = tn.upconv2d_backward(x, k, go)
    for g, want in zip(got, (gx, gk, go.sum(axis=(0, 2, 3)))):
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12)


def test_maxpool_ties_route_to_first_row_major_element():
    # channel s holds one window whose maxima sit at the positions in subset s
    subsets = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]
    x = np.zeros((1, len(subsets), 2, 2))
    for ch, subset in enumerate(subsets):
        for idx in subset:
            x[0, ch, idx // 2, idx % 2] = 7.0
    assert np.all(tn.maxpool2d_forward(x) == 7.0)
    grad = tn.maxpool2d_backward(x, np.ones((1, len(subsets), 1, 1)))
    for ch, subset in enumerate(subsets):
        assert grad[0, ch].reshape(-1).tolist() == [float(i == min(subset)) for i in range(4)]


def test_maxpool_matches_direct_loops_with_ties():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 3, size=(2, 3, 6, 8)).astype(np.float64)  # many tied windows
    go = rng.normal(size=(2, 3, 3, 4))
    pooled = tn.maxpool2d_forward(x)
    grad = tn.maxpool2d_backward(x, go)
    want_grad = np.zeros_like(x)
    for i, c, y, xx in np.ndindex(go.shape):
        win = [x[i, c, 2 * y + idx // 2, 2 * xx + idx % 2] for idx in range(4)]
        first = win.index(max(win))
        assert pooled[i, c, y, xx] == max(win)
        want_grad[i, c, 2 * y + first // 2, 2 * xx + first % 2] = go[i, c, y, xx]
    assert np.array_equal(grad, want_grad)


def test_conv_peak_memory_below_full_image_im2col():
    # numpy reports its buffers to tracemalloc; a single unbanded column matrix
    # for this layer would be ci*9*h*w float32 values (151 MB)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 64, 256, 256)).astype(np.float32)
    k = rng.normal(size=(64, 64, 3, 3)).astype(np.float32)
    b = np.zeros(64, np.float32)
    go = rng.normal(size=x.shape).astype(np.float32)
    full_cols = 64 * 9 * 256 * 256 * 4
    tracemalloc.start()
    try:
        for call, args in ((tn.conv2d_forward, (x, k, b)), (tn.conv2d_backward, (x, k, go))):
            tracemalloc.reset_peak()
            result = call(*args)
            peak = tracemalloc.get_traced_memory()[1]
            del result
            assert peak < full_cols, f"{call.__name__} peaked at {peak / 1e6:.0f} MB"
    finally:
        tracemalloc.stop()


def test_conv_backward_frees_the_padded_input_before_grad_x(monkeypatch):
    # grad_k needs the padded x and grad_out; grad_x needs the padded grad_out,
    # the padded buffer its GEMMs fill and the cropped grad_x, which is smaller
    # than the padded x. All of them at once means the padded x outlived grad_k.
    monkeypatch.setattr(tn, "_BAND_ELEMENTS", 2**10)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 64, 16, 24)).astype(np.float32)
    k = rng.normal(size=(4, 64, 3, 3)).astype(np.float32)
    go = rng.normal(size=(4, 4, 16, 24)).astype(np.float32)
    padded_x, padded_go = x.nbytes * 18 * 26 // (16 * 24), go.nbytes * 18 * 26 // (16 * 24)
    padded_grad_x = padded_x
    tracemalloc.start()
    try:
        tn.conv2d_backward(x, k, go)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < padded_x + padded_go + padded_grad_x, f"peaked at {peak} B"


def test_conv_backward_frees_the_padded_grad_out_before_cropping_grad_x(monkeypatch):
    # with ci > co, cropping grad_x out of its padded buffer is the backward's
    # peak; the padded grad_out is not needed by then
    monkeypatch.setattr(tn, "_BAND_ELEMENTS", 2**10)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 64, 32, 40)).astype(np.float32)
    k = rng.normal(size=(4, 64, 3, 3)).astype(np.float32)
    go = rng.normal(size=(2, 4, 32, 40)).astype(np.float32)
    padded_grad_x, padded_go = x.nbytes * 34 * 42 // (32 * 40), go.nbytes * 34 * 42 // (32 * 40)
    tracemalloc.start()
    try:
        grad_x = tn.conv2d_backward(x, k, go)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad_x.shape == x.shape
    assert peak < padded_grad_x + x.nbytes + padded_go, f"peaked at {peak} B"
