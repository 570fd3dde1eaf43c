import itertools
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
    pooled, argmax = tn.maxpool2d_forward(x)
    assert pooled[0, 0, 0, 0] == 4.0
    grad = tn.maxpool2d_backward(argmax, np.ones((1, 1, 1, 1)))
    assert grad[0, 0].tolist() == [[0.0, 0.0], [0.0, 1.0]]


def test_maxpool_tie_break_first_row_major():
    x = np.full((1, 1, 2, 2), 5.0)
    pooled, argmax = tn.maxpool2d_forward(x)
    assert pooled[0, 0, 0, 0] == 5.0
    assert argmax[0, 0, 0, 0] == 0
    grad = tn.maxpool2d_backward(argmax, np.ones((1, 1, 1, 1)))
    assert grad[0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ValueError):
        tn.maxpool2d_forward(np.zeros((1, 1, 3, 4)))


@pytest.mark.parametrize("seed", range(5))
def test_maxpool_finite_difference_untied(seed):
    rng = np.random.default_rng(seed)
    x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)  # all distinct
    go = rng.normal(size=(1, 1, 4, 4))

    def loss():
        pooled, _ = tn.maxpool2d_forward(x)
        return float(np.sum(go * pooled))

    _, argmax = tn.maxpool2d_forward(x)
    analytic = tn.maxpool2d_backward(argmax, go)
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


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    cfg = tn.UNetConfig(depth=3, in_channels=6, out_channels=9, base_channels=4, normalize=True)
    params = tn.init_params(cfg, seed=11)
    path = tmp_path / "net.unp"
    tn.save_params(params, path)
    assert path.read_bytes()[:4] == b"UNP1"
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


@pytest.mark.parametrize("fault", ["short_header", "short_tensor", "padded", "nan", "inf", "deep"])
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
        "deep": good[:6] + (65535).to_bytes(2, "little") + good[8:],  # rejected before 65535 levels are built
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


def test_failed_checkpoint_write_leaves_old_file(tmp_path):
    params = _small_params()
    path = tn.save_params(params, tmp_path / "net.unp")
    before = path.read_bytes()
    # the last name cannot be encoded, so the write fails after the other tensors
    broken = tn.UNetParams(params.config, {**_small_params(2).tensors, "\ud800": np.zeros(1)})
    with pytest.raises(UnicodeEncodeError):
        tn.save_params(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["net.unp"]


def test_parameter_order_is_canonical():
    """Tensor order is the UNP1 serialization order and the init draw order."""
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


@pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (1, 3), (5, 3)])
def test_conv_matches_direct_loops(kh, kw):
    rng = np.random.default_rng(kh * 10 + kw)
    assert_conv_matches_naive(rng.normal(size=(2, 3, 6, 7)), rng.normal(size=(4, 3, kh, kw)), rng)


def test_conv_matches_direct_loops_across_row_bands():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 64, 17, 1000))
    k = rng.normal(size=(2, 64, 3, 3))
    rows = tn._BAND_ELEMENTS // (64 * 9 * 1000)
    assert 1 <= rows < 17 and 17 % rows  # several bands, the last one short
    assert_conv_matches_naive(x, k, rng)


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
    pooled, argmax = tn.maxpool2d_forward(x)
    assert np.all(pooled == 7.0)
    assert argmax[0, :, 0, 0].tolist() == [min(s) for s in subsets]
    grad = tn.maxpool2d_backward(argmax, np.ones((1, len(subsets), 1, 1)))
    for ch, subset in enumerate(subsets):
        assert grad[0, ch].reshape(-1).tolist() == [float(i == min(subset)) for i in range(4)]


def test_maxpool_matches_direct_loops_with_ties():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 3, size=(2, 3, 6, 8)).astype(np.float64)  # many tied windows
    go = rng.normal(size=(2, 3, 3, 4))
    pooled, argmax = tn.maxpool2d_forward(x)
    grad = tn.maxpool2d_backward(argmax, go)
    want_grad = np.zeros_like(x)
    for i, c, y, xx in np.ndindex(go.shape):
        win = [x[i, c, 2 * y + idx // 2, 2 * xx + idx % 2] for idx in range(4)]
        first = win.index(max(win))
        assert pooled[i, c, y, xx] == max(win) and argmax[i, c, y, xx] == first
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
