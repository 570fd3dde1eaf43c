import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gridcast import tensor_nn as tn
from gridcast import trainer
from gridcast.dataset import ClipSpec, enumerate_clips, index_movies, load_clip, synth_movie
from gridcast.movie_store import ingest, open_movie
from gridcast.trainer import (
    EpochLog,
    NumericalError,
    SGDConfig,
    evaluate,
    lr_schedule,
    predict,
    sgd_step,
    train,
    write_epoch_log,
)
from gradcheck import ringed
from test_tensor_nn import cache_bytes, round_half_up_uint8


def scalar_params(value=1.0):
    """One-parameter params and velocity for hand-checking optimizer arithmetic."""
    cfg = tn.UNetConfig(depth=1, in_channels=1, out_channels=1, base_channels=1)
    params = tn.UNetParams(cfg, {"p": np.array([value], dtype=np.float64)})
    return params, params.zeros_like()


# ---------------------------------------------------------------------------
# optimizer arithmetic

def test_sgd_step_momentum_free_is_vanilla():
    params, velocity = scalar_params(1.0)
    sgd_step(params, velocity, {"p": np.array([1.0])}, lr=0.02, momentum=0.0)
    assert params.tensors["p"][0] == pytest.approx(1.0 - 0.02, abs=1e-15)


def test_sgd_step_nesterov_hand_value():
    params, velocity = scalar_params(1.0)
    sgd_step(params, velocity, {"p": np.array([1.0])}, lr=0.02, momentum=0.9)
    # v = 1; update = lr * (g + mu * v) = 0.02 * 1.9 = 0.038
    assert velocity.tensors["p"][0] == 1.0
    assert params.tensors["p"][0] - 1.0 == pytest.approx(-0.038, abs=1e-12)


def test_sgd_step_zero_grad_keeps_params():
    params, velocity = scalar_params(3.0)
    assert sgd_step(params, velocity, {"p": np.array([0.0])}, lr=0.5, momentum=0.9) is None
    assert params.tensors["p"][0] == 3.0
    assert velocity.tensors["p"][0] == 0.0


def test_sgd_step_rejects_non_finite():
    params, velocity = scalar_params(1.0)
    with pytest.raises(NumericalError, match="non-finite gradient for 'p'"):
        sgd_step(params, velocity, {"p": np.array([np.nan])}, lr=0.1, momentum=0.9)


def test_lr_schedule_boundaries():
    cfg = SGDConfig(epochs=12)
    assert lr_schedule(0, cfg) == 0.02
    assert lr_schedule(4, cfg) == 0.02
    assert lr_schedule(5, cfg) == 0.001
    assert lr_schedule(11, cfg) == 0.001


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SGDConfig(lr_initial=0.0)
    with pytest.raises(ValueError):
        SGDConfig(drop_epoch=20, epochs=10)
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        SGDConfig(drop_epoch=0, epochs=0)
    with pytest.raises(ValueError, match=r"drop_epoch must be in 0\.\.epochs, got -1"):
        SGDConfig(drop_epoch=-1)
    for momentum in (-5, -0.1, 1, 1.5):
        with pytest.raises(ValueError, match=r"momentum must be in \[0, 1\)"):
            SGDConfig(momentum=momentum)
    assert SGDConfig(momentum=0, drop_epoch=0).momentum == 0


# ---------------------------------------------------------------------------
# training loop

@pytest.fixture
def toy_clips(tmp_path):
    raw = synth_movie("slot_pattern", 2, (64, 3, 8, 8))
    movies = [
        open_movie(ingest(raw, "t", day, tmp_path / f"{day}.tmm"))
        for day in ("2019-04-01", "2019-04-02")
    ]
    by_key = index_movies(movies)
    specs = enumerate_clips(movies, stride=8)
    clips = [load_clip(s, by_key) for s in specs]
    train_clips = [c for c in clips if c.spec.day == "2019-04-01"]
    val_clips = [c for c in clips if c.spec.day == "2019-04-02"]
    yield train_clips, val_clips
    for m in movies:
        m.close()


TOY_UNET = tn.UNetConfig(depth=2, in_channels=36, out_channels=9, base_channels=4, normalize=True)


def test_train_log_shape_and_columns(toy_clips, tmp_path):
    train_clips, val_clips = toy_clips
    cfg = SGDConfig(lr_initial=0.05, lr_after_drop=0.01, drop_epoch=2, epochs=3, seed=1)
    result = train(TOY_UNET, cfg, train_clips, val_clips, test_slots={20, 28})
    assert len(result.log) == 3
    assert [row.epoch for row in result.log] == [0, 1, 2]
    assert [row.lr for row in result.log] == [0.05, 0.05, 0.01]
    for row in result.log:
        for v in (row.train_mse, row.val_mse, row.val_test_slots_mse):
            assert math.isfinite(v)
    path = write_epoch_log(tmp_path / "log.csv", result.log)
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epoch", "lr", "train_mse", "val_mse", "val_test_slots_mse"]
    assert len(rows) == 1 + 3


def test_train_deterministic_replay(toy_clips, tmp_path):
    train_clips, val_clips = toy_clips
    cfg = SGDConfig(lr_initial=0.05, lr_after_drop=0.01, drop_epoch=2, epochs=2, seed=9)
    a = train(TOY_UNET, cfg, train_clips, val_clips)
    b = train(TOY_UNET, cfg, train_clips, val_clips)
    assert a.log == b.log
    pa = tn.save_params(a.best_params, tmp_path / "a.unp").read_bytes()
    pb = tn.save_params(b.best_params, tmp_path / "b.unp").read_bytes()
    assert pa == pb


def test_train_warns_on_empty_test_slot_intersection(toy_clips):
    train_clips, val_clips = toy_clips
    cfg = SGDConfig(lr_initial=0.01, lr_after_drop=0.01, drop_epoch=1, epochs=1, seed=0)
    with pytest.warns(UserWarning, match="test slots"):
        result = train(TOY_UNET, cfg, train_clips, val_clips, test_slots={999})
    assert math.isnan(result.log[0].val_test_slots_mse)


@pytest.mark.parametrize(
    "spied, message",
    [
        ("mse_loss", "non-finite training loss at epoch 1 step 5"),
        ("unet_backward_cached", "non-finite gradient for 'head.b' at epoch 1 step 5"),
    ],
)
def test_train_names_the_epoch_and_step_of_a_non_finite_loss_or_gradient(toy_clips, monkeypatch, spied, message):
    train_clips, val_clips = toy_clips
    assert len(train_clips) == 7  # 4 steps an epoch in batches of 2: the sixth is step 5, epoch 1's second
    real, calls = getattr(trainer, spied), []

    def nan_on_the_sixth_call(*args):
        out = real(*args)
        calls.append(spied)
        if len(calls) == 6:
            if spied == "mse_loss":
                return math.nan, out[1]
            out["head.b"][0] = np.nan
        return out

    monkeypatch.setattr(trainer, spied, nan_on_the_sixth_call)
    cfg = SGDConfig(batch_size=2, epochs=3, drop_epoch=1, seed=0)
    with pytest.raises(NumericalError, match=f"^{message}$"):
        train(TOY_UNET, cfg, train_clips, val_clips)
    assert len(calls) == 6


def test_train_rejects_empty_sets(toy_clips):
    train_clips, val_clips = toy_clips
    cfg = SGDConfig(epochs=1, drop_epoch=1)
    with pytest.raises(ValueError):
        train(TOY_UNET, cfg, [], val_clips)
    with pytest.raises(ValueError):
        train(TOY_UNET, cfg, train_clips, [])


def test_train_copies_the_parameters_only_after_an_epoch_that_improves(toy_clips, monkeypatch):
    train_clips, val_clips = toy_clips
    losses = iter([5.0, 3.0, 4.0, 2.0, 2.0])  # improve in epochs 0, 1 and 3
    monkeypatch.setattr(trainer, "validation_losses", lambda *args: (next(losses), math.nan))
    copies = []
    copy = tn.UNetParams.copy

    def counting_copy(params):
        copies.append(copy(params))
        return copies[-1]

    monkeypatch.setattr(tn.UNetParams, "copy", counting_copy)
    cfg = SGDConfig(lr_initial=0.05, lr_after_drop=0.01, drop_epoch=2, epochs=5, seed=1)
    result = train(TOY_UNET, cfg, train_clips, val_clips)
    assert len(copies) == 3
    assert result.best_params is copies[-1] and result.best_val_mse == 2.0


def test_train_single_clip_overfit_quickly(tmp_path):
    # loss should collapse on one constant-frame clip within a few hundred steps
    raw = synth_movie("time_ramp", 0, (20, 3, 8, 8))
    movie = open_movie(ingest(raw, "t", "2019-04-01", tmp_path / "ramp.tmm"))
    clip = load_clip(ClipSpec("t", "2019-04-01", 0), index_movies([movie]))
    cfg = SGDConfig(lr_initial=0.1, lr_after_drop=0.1, drop_epoch=0, epochs=120, seed=0)
    result = train(TOY_UNET, cfg, [clip], [clip])
    movie.close()
    assert result.log[-1].train_mse < 1.0
    assert result.log[-1].train_mse < 0.01 * result.log[0].train_mse


# ---------------------------------------------------------------------------
# prediction

def forced_output_params(bias_value):
    params = tn.init_params(
        tn.UNetConfig(depth=2, in_channels=36, out_channels=9, base_channels=4), seed=0
    )
    for arr in params.tensors.values():
        arr[:] = 0.0
    params.tensors["head.b"][:] = bias_value
    return params


@pytest.fixture
def one_clip(tmp_path):
    raw = synth_movie("random", 1, (20, 3, 8, 8))
    movie = open_movie(ingest(raw, "t", "2019-04-01", tmp_path / "m.tmm"))
    yield load_clip(ClipSpec("t", "2019-04-01", 2), index_movies([movie]))
    movie.close()


def test_predict_clamps_floor(one_clip):
    pred = predict(forced_output_params(-10.0), one_clip)
    assert pred.dtype == np.uint8
    assert not pred.any()


def test_predict_clamps_ceiling(one_clip):
    pred = predict(forced_output_params(300.0), one_clip)
    assert np.all(pred == 255)


def test_predict_shape(one_clip):
    pred = predict(forced_output_params(7.0), one_clip)
    assert pred.shape == (3, 3, 8, 8)
    assert np.all(pred == 7)


def test_predict_rejects_indivisible_out_channels(one_clip):
    params = tn.init_params(
        tn.UNetConfig(depth=1, in_channels=36, out_channels=7, base_channels=2), seed=0
    )
    with pytest.raises(ValueError):
        predict(params, one_clip)


def test_predict_pads_and_crops_odd_grid(tmp_path):
    raw = synth_movie("random", 2, (20, 3, 7, 9))  # not divisible by 2
    movie = open_movie(ingest(raw, "t", "2019-04-01", tmp_path / "m.tmm"))
    clip = load_clip(ClipSpec("t", "2019-04-01", 0), index_movies([movie]))
    assert predict(forced_output_params(1.0), clip).shape == (3, 3, 7, 9)
    movie.close()


@pytest.mark.parametrize("normalize", [False, True])
def test_predict_rounds_and_clamps_as_round_half_up_uint8(normalize, monkeypatch, one_clip):
    # every half-integer from -1.5 to 256.5, the float32 values either side of
    # it, and values far past the 0 and 255 clamps, as the network's float32 output
    halves = np.arange(-2, 257).astype(np.float32) + np.float32(0.5)
    values = np.concatenate([halves, np.float32([-3e38, -1, -0.0, 0, 255, 256, 3e38])])
    if normalize:  # an output u is emitted as u * 255 + 128
        values = ((values.astype(np.float64) - 128) / 255).astype(np.float32)
    values = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    h = w = 17
    out = np.resize(values, 9 * h * w).reshape(1, 9, h, w)
    monkeypatch.setattr(trainer, "_batch_forward", lambda params, blocks: out)
    params = forced_output_params(0.0)
    params = tn.UNetParams(dataclasses.replace(params.config, normalize=normalize), params.tensors)
    got = predict(params, one_clip)
    emitted = out[0].astype(np.float64) * 255 + 128 if normalize else out[0].astype(np.float64)
    assert got.dtype == np.uint8 and got.shape == (3, 3, h, w)
    assert np.array_equal(got, round_half_up_uint8(emitted).reshape(3, 3, h, w))
    if not normalize:
        def at(v):
            return got.reshape(-1)[np.flatnonzero(out.reshape(-1) == v)[0]]

        assert [at(v) for v in (0.5, 254.5, 255.5, -0.5, np.float32(3e38), np.float32(-3e38))] == [1, 255, 255, 0, 255, 0]
        assert at(np.nextafter(np.float32(0.5), np.float32(0))) == 0


@pytest.mark.parametrize("normalize", [False, True])
def test_stack_inputs_pads_the_normalized_values_with_zeros(normalize):
    rng = np.random.default_rng(3)
    blocks = [rng.integers(0, 256, (12, 3, 7, 9), dtype=np.uint8) for _ in range(2)]
    cfg = tn.UNetConfig(depth=3, in_channels=36, out_channels=9, base_channels=2, normalize=normalize)
    x = np.stack([b.reshape(36, 7, 9) for b in blocks]).astype(np.float32)
    if normalize:
        x = (x - np.float32(128)) / np.float32(255)
    got = trainer._stack_inputs(blocks, cfg, 4)
    assert got.dtype == np.float32
    assert np.array_equal(got, np.pad(x, [(0, 0), (0, 0), (0, 1), (0, 3)]))  # 7x9 -> 8x12
    assert np.array_equal(trainer._stack_inputs(blocks, cfg), x)


def random_batch(rng, n, h, w):
    return [
        trainer.Clip(rng.integers(0, 256, (12, 3, h, w), dtype=np.uint8),
                     rng.integers(0, 256, (3, 3, h, w), dtype=np.uint8), ClipSpec("t", "d", i))
        for i in range(n)
    ]


def test_train_step_holds_the_input_once_and_the_targets_only_after_the_forward(monkeypatch):
    # small bands keep the conv buffers out of the peak, which is then the loss:
    # the cache, holding each activation once, beside the padded prediction and
    # three target-sized arrays (targets, difference and its square)
    monkeypatch.setattr(tn, "_BAND_ELEMENTS", 2**12)
    n, h, w = 2, 61, 53  # padded to 64x56
    cfg = tn.UNetConfig(depth=3, in_channels=36, out_channels=9, base_channels=8, normalize=True)
    batch = random_batch(np.random.default_rng(4), n, h, w)
    sgd = SGDConfig(batch_size=n, epochs=1, drop_epoch=1)
    params = tn.init_params(cfg, sgd.seed)
    velocity = params.zeros_like()
    trainer._train_step(params, velocity, batch, 0.01, sgd.momentum)  # first-call allocations stay out of the peak
    cache = cache_bytes(cfg, n, 64, 56, 4)  # its input is the only copy of the padded batch
    prediction, target = 4 * n * 9 * 64 * 56, 4 * n * 9 * h * w
    # a fourth target-sized allowance covers what else is alive: small arrays and
    # Python objects. The unpadded input (36 channels) alone would exceed it, and
    # so would the two skips held beside their concats.
    bound = cache + prediction + 4 * target
    tracemalloc.start()
    try:
        trainer._train_step(params, velocity, batch, 0.01, sgd.momentum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peaked at {peak} B, bound {bound} B"


def test_train_step_holds_no_input_while_the_backward_runs(monkeypatch):
    # small bands keep the conv buffers out of what is alive; at the backward's
    # entry that is the cache without its input, the padded loss gradient, and
    # small arrays and Python objects, which a target-sized allowance covers
    monkeypatch.setattr(tn, "_BAND_ELEMENTS", 2**12)
    n, h, w = 2, 61, 53  # padded to 64x56
    cfg = tn.UNetConfig(depth=3, in_channels=36, out_channels=9, base_channels=8, normalize=True)
    batch = random_batch(np.random.default_rng(4), n, h, w)
    sgd = SGDConfig(batch_size=n, epochs=1, drop_epoch=1)
    params = tn.init_params(cfg, sgd.seed)
    velocity = params.zeros_like()
    trainer._train_step(params, velocity, batch, 0.01, sgd.momentum)  # first-call allocations stay out of the count
    at_entry = []
    backward = trainer.unet_backward_cached

    def spy(*args, **kwargs):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return backward(*args, **kwargs)

    monkeypatch.setattr(trainer, "unet_backward_cached", spy)
    cache, stacked_input = cache_bytes(cfg, n, 64, 56, 4), 4 * n * 36 * 64 * 56
    grad_out, target = 4 * n * 9 * 64 * 56, 4 * n * 9 * h * w
    # holding the input adds 4 grad_out's bytes, more than the allowance
    bound = cache - stacked_input + grad_out + target
    tracemalloc.start()
    try:
        trainer._train_step(params, velocity, batch, 0.01, sgd.momentum)
    finally:
        tracemalloc.stop()
    assert at_entry[0] < bound, f"{at_entry[0]} B alive at the backward's entry, bound {bound} B"


def test_train_step_equals_a_reference_step_that_keeps_its_input(monkeypatch):
    n, h, w = 2, 13, 11  # padded to 16x12
    cfg = tn.UNetConfig(depth=3, in_channels=36, out_channels=9, base_channels=4, normalize=True)
    batch = random_batch(np.random.default_rng(5), n, h, w)
    sgd = SGDConfig(batch_size=n, epochs=1, drop_epoch=1)
    params, ref = tn.init_params(cfg, sgd.seed), tn.init_params(cfg, sgd.seed)
    velocity, ref_velocity = params.zeros_like(), ref.zeros_like()
    first_entries = []
    backward = trainer.unet_backward_cached

    def spy(params, cache, *args, **kwargs):
        first_entries.append(cache[0])
        return backward(params, cache, *args, **kwargs)

    monkeypatch.setattr(trainer, "unet_backward_cached", spy)
    for _ in range(2):  # the second step also applies the momentum
        loss = trainer._train_step(params, velocity, batch, 0.01, sgd.momentum)
        x = trainer._stack_inputs([c.input for c in batch], cfg, cfg.spatial_multiple)
        y = trainer._stack_inputs([c.target for c in batch], cfg)
        out, cache = tn.unet_forward_cached(ref, x)
        ref_loss, grad_pred = tn.mse_loss(out[:, :, :h, :w], y)
        grad_out = ringed(np.zeros(out.shape, np.float32))
        grad_out[:, :, :h, :w] = grad_pred
        sgd_step(ref, ref_velocity, tn.unet_backward_cached(ref, cache, grad_out), 0.01, sgd.momentum)
        assert loss == ref_loss
    assert len(first_entries) == 2 and all(callable(e) for e in first_entries)  # a rebuild, not the input
    for name, p in params.tensors.items():
        assert np.array_equal(p, ref.tensors[name]), name
        assert np.array_equal(velocity.tensors[name], ref_velocity.tensors[name]), name


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_perfect_prediction():
    rng = np.random.default_rng(0)
    frames = [rng.integers(0, 256, size=(3, 3, 4, 4), dtype=np.uint8) for _ in range(3)]
    m = evaluate(frames, [f.copy() for f in frames])
    assert m.overall == 0.0
    assert m.per_frame == [0.0, 0.0, 0.0]
    assert m.per_channel == [0.0, 0.0, 0.0]


def test_evaluate_single_pixel_error():
    truth = np.zeros((3, 3, 2, 2), dtype=np.uint8)
    pred = truth.copy()
    pred[1, 2, 0, 1] = 255
    m = evaluate([pred], [truth])
    assert m.overall == pytest.approx(65025 / 36)
    assert m.per_frame[1] == pytest.approx(65025 / 12)
    assert m.per_frame[0] == 0.0
    assert m.per_channel[2] == pytest.approx(65025 / 12)


def test_evaluate_per_channel_mean_equals_overall():
    rng = np.random.default_rng(1)
    preds = [rng.integers(0, 256, size=(3, 3, 5, 5), dtype=np.uint8) for _ in range(4)]
    truths = [rng.integers(0, 256, size=(3, 3, 5, 5), dtype=np.uint8) for _ in range(4)]
    m = evaluate(preds, truths)
    assert np.mean(m.per_channel) == pytest.approx(m.overall)
    assert np.mean(m.per_frame) == pytest.approx(m.overall)


def test_evaluate_per_city_split():
    a = np.zeros((3, 1, 1, 1), dtype=np.uint8)
    b = np.full((3, 1, 1, 1), 10, dtype=np.uint8)
    m = evaluate([a, a], [a, b], cities=["x", "y"])
    assert m.per_city == {"x": 0.0, "y": 100.0}
    assert m.clips == 2


def test_evaluate_equals_a_float64_oracle_exactly():
    rng = np.random.default_rng(5)
    grids = [(7, 9), (7, 9), (4, 11), (7, 9), (4, 11)]
    preds = [rng.integers(0, 256, size=(3, 3, *g), dtype=np.uint8) for g in grids]
    truths = [rng.integers(0, 256, size=(3, 3, *g), dtype=np.uint8) for g in grids]
    cities = ["y", "x", "y", "y", "x"]
    m = evaluate(preds, truths, cities)
    sq = [(p.astype(np.float64) - t.astype(np.float64)) ** 2 for p, t in zip(preds, truths)]

    def mse(parts):
        return sum(p.sum() for p in parts) / sum(p.size for p in parts)

    assert m.overall == mse(sq)
    assert m.per_frame == [mse([s[j] for s in sq]) for j in range(3)]
    assert m.per_channel == [mse([s[:, k] for s in sq]) for k in range(3)]
    assert m.per_city == {c: mse([s for s, sc in zip(sq, cities) if sc == c]) for c in ("x", "y")}
    assert list(m.per_city) == ["x", "y"]


def test_evaluate_rejects_frames_that_are_not_uint8():
    a = np.zeros((3, 3, 2, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="uint8.*float64"):
        evaluate([a.astype(np.float64)], [a.astype(np.float64)])
    with pytest.raises(ValueError, match="uint8.*int16"):
        evaluate([a], [a.astype(np.int16)])


def test_evaluate_rejects_clips_of_other_frames_or_channels():
    # a (3, 1) clip's sums would broadcast over the first clip's 3 channels
    a, b = np.zeros((3, 3, 2, 2), np.uint8), np.ones((3, 1, 2, 2), np.uint8)
    with pytest.raises(ValueError, match=r"\(frames, channels\) \(3, 1\) differ from \(3, 3\)"):
        evaluate([a, b], [a, np.zeros_like(b)])


def test_evaluate_takes_generators():
    rng = np.random.default_rng(2)
    preds = [rng.integers(0, 256, size=(3, 2, 4, 5), dtype=np.uint8) for _ in range(3)]
    truths = [rng.integers(0, 256, size=(3, 2, 4, 5), dtype=np.uint8) for _ in range(3)]
    cities = ["x", "y", "x"]
    m = evaluate(iter(preds), (t for t in truths), iter(cities))
    assert m == evaluate(preds, truths, cities)
    for p, t in ((preds, truths[:2]), (preds[:2], truths)):
        with pytest.raises(ValueError, match="prediction and truth counts differ"):
            evaluate(iter(p), iter(t))
    with pytest.raises(ValueError, match="nothing to evaluate"):
        evaluate(iter([]), iter([]))
    with pytest.raises(ValueError, match="fewer cities than clips"):  # not a sum over the first clips
        evaluate(preds, truths, cities[:2])


def test_evaluate_rejects_mismatch():
    with pytest.raises(ValueError):
        evaluate([np.zeros((3, 3, 2, 2))], [np.zeros((3, 3, 2, 3))])
    with pytest.raises(ValueError):
        evaluate([], [])
