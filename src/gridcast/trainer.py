"""SGD training loop, prediction, and the MSE evaluation protocol.

The optimizer is plain SGD with Nesterov momentum in the form

    v <- mu * v + g
    p <- p - lr * (g + mu * v)

with the learning rate dropped once after a fixed number of epochs. Training
monitors three losses per epoch: training MSE, full validation MSE, and
validation MSE restricted to the configured test slots. Losses are computed
on unclamped real outputs; clamping and uint8 rounding happen only when
predictions are emitted.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat, zip_longest
from pathlib import Path

import numpy as np

from .dataset import Clip, INPUT_FRAMES, TARGET_FRAMES
from .movie_store import _atomic_write
from .tensor_nn import (
    UNetConfig,
    UNetParams,
    crop_spatial,
    init_params,
    mse_loss,
    pad_spatial,
    round_half_up_uint8,
    unet_backward_cached,
    unet_forward,
    unet_forward_cached,
)


class NumericalError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass(frozen=True)
class SGDConfig:
    lr_initial: float = 0.02
    lr_after_drop: float = 0.001
    drop_epoch: int = 5
    momentum: float = 0.9
    batch_size: int = 5
    epochs: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.lr_initial <= 0 or self.lr_after_drop <= 0:
            raise ValueError("learning rates must be > 0")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.drop_epoch > self.epochs:
            raise ValueError("drop_epoch must be <= epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainState:
    params: UNetParams
    velocity: UNetParams
    epoch: int
    step: int
    rng: np.random.Generator


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    lr: float
    train_mse: float
    val_mse: float
    val_test_slots_mse: float


@dataclass
class TrainResult:
    state: TrainState
    best_params: UNetParams
    best_val_mse: float
    log: list[EpochLog]


def lr_schedule(epoch: int, config: SGDConfig) -> float:
    """lr_initial for epochs before the drop, lr_after_drop from then on."""
    return config.lr_initial if epoch < config.drop_epoch else config.lr_after_drop


def sgd_step(
    state: TrainState,
    grads: dict[str, np.ndarray],
    lr: float,
    momentum: float = 0.9,
) -> TrainState:
    """One in-place Nesterov-momentum SGD update over every parameter tensor."""
    for name, p in state.params.tensors.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericalError(
                f"non-finite gradient for {name!r} at step {state.step}"
            )
        v = state.velocity.tensors[name]
        v *= momentum
        v += g
        p -= (lr * (g + momentum * v)).astype(p.dtype, copy=False)
    state.step += 1
    return state


def new_state(unet_config: UNetConfig, sgd_config: SGDConfig) -> TrainState:
    params = init_params(unet_config, sgd_config.seed)
    return TrainState(
        params=params,
        velocity=params.zeros_like(),
        epoch=0,
        step=0,
        rng=np.random.default_rng(sgd_config.seed),
    )


def _stack_inputs(blocks: list[np.ndarray], cfg: UNetConfig, multiple: int = 1) -> np.ndarray:
    """Collapse (t, c, h, w) blocks frame-major, channel-minor and stack them
    into one float32 (n, t*c, H, W) batch, zero-padded bottom/right so that H
    and W are multiples of ``multiple``; the values are written straight into it.

    With cfg.normalize the 0-255 values are centered and scaled to
    (v - 128) / 255; otherwise they are fed raw. Padding stays 0 either way.
    """
    t, c, h, w = blocks[0].shape
    x = np.empty((len(blocks), t * c, h + (-h) % multiple, w + (-w) % multiple), np.float32)
    x[:, :, h:] = 0
    x[:, :, :h, w:] = 0
    values = x[:, :, :h, :w]
    for dst, b in zip(values, blocks):
        dst[...] = b.reshape(t * c, h, w)
    if cfg.normalize:
        values -= 128.0
        values /= 255.0
    return x


def _batch_forward(params: UNetParams, blocks: list[np.ndarray]) -> np.ndarray:
    """Cache-free forward on the stacked input ``blocks``, zero-padded to the
    U-Net's multiple and cropped back to their grid."""
    x = _stack_inputs(blocks, params.config, params.config.spatial_multiple)
    return crop_spatial(unet_forward(params, x), blocks[0].shape[-2:])


def _loss_scale(cfg: UNetConfig) -> float:
    # logged losses are always on the 0-255 value scale
    return 255.0**2 if cfg.normalize else 1.0


def _train_step(state: TrainState, batch: list[Clip], lr: float, sgd_config: SGDConfig) -> float:
    """Forward, backward and SGD update on one batch; returns its loss. The
    input is stacked straight into its padded array, which the cache then holds
    as the only copy; the targets are stacked only after the forward, and the
    loss gradient reuses the difference's buffer. The prediction, cache and
    gradients all die when it returns, so none of them is held while
    validation runs."""
    cfg = state.params.config
    out, cache = unet_forward_cached(
        state.params, _stack_inputs([c.input for c in batch], cfg, cfg.spatial_multiple)
    )
    y = _stack_inputs([c.target for c in batch], cfg)
    loss, grad_pred = mse_loss(crop_spatial(out, y.shape[-2:]), y)
    del out, y  # the backward pass reads only the cache and grad_out
    if not math.isfinite(loss):
        raise NumericalError(
            f"non-finite training loss at epoch {state.epoch} step {state.step}"
        )
    # the gradient of a crop is a zero pad
    grad_out, _ = pad_spatial(grad_pred, cfg.spatial_multiple)
    del grad_pred
    grads, _ = unet_backward_cached(state.params, cache, grad_out, input_grad=False)
    sgd_step(state, grads, lr, sgd_config.momentum)
    return loss


def train(
    unet_config: UNetConfig,
    sgd_config: SGDConfig,
    train_clips: list[Clip],
    val_clips: list[Clip],
    test_slots: set[int] | None = None,
) -> TrainResult:
    """Run the full training loop: seeded shuffling, mini-batches, per-epoch
    train/validation/test-slot loss logging, best-validation checkpointing."""
    if not train_clips or not val_clips:
        raise ValueError("train and validation clip sets must be nonempty")
    state = new_state(unet_config, sgd_config)
    scale = _loss_scale(unet_config)
    log: list[EpochLog] = []
    best_params = state.params.copy()
    best_val = math.inf

    for epoch in range(sgd_config.epochs):
        lr = lr_schedule(epoch, sgd_config)
        order = state.rng.permutation(len(train_clips))
        total_loss = 0.0
        total_n = 0
        for lo in range(0, len(order), sgd_config.batch_size):
            batch = [train_clips[i] for i in order[lo : lo + sgd_config.batch_size]]
            loss = _train_step(state, batch, lr, sgd_config)
            total_loss += loss * len(batch)
            total_n += len(batch)

        train_mse = scale * total_loss / total_n
        val_mse, val_slots_mse = validation_losses(
            state.params, val_clips, test_slots, sgd_config.batch_size
        )
        log.append(EpochLog(epoch, lr, train_mse, val_mse, val_slots_mse))
        if not math.isfinite(val_mse):
            # a NaN never compares below best_val, so "best" would stay the init
            raise NumericalError(f"non-finite validation loss at epoch {epoch}")
        if val_mse < best_val:
            best_val = val_mse
            best_params = state.params.copy()
        state.epoch = epoch + 1

    return TrainResult(state, best_params, best_val, log)


def validation_losses(
    params: UNetParams,
    clips: list[Clip],
    test_slots: set[int] | None,
    batch_size: int = 5,
) -> tuple[float, float]:
    """Unclamped MSE over all clips and over the test-slot subset (NaN if empty)."""
    cfg = params.config
    scale = _loss_scale(cfg)
    per_clip = []
    for lo in range(0, len(clips), batch_size):
        batch = clips[lo : lo + batch_size]
        pred = _batch_forward(params, [c.input for c in batch])
        y = _stack_inputs([c.target for c in batch], cfg)
        err = pred - y
        per_clip.extend(np.mean(err * err, axis=(1, 2, 3)).tolist())
    full = scale * float(np.mean(per_clip))
    if test_slots is None:
        return full, full
    subset = [
        m
        for m, c in zip(per_clip, clips)
        if (c.spec.t_start + INPUT_FRAMES) in test_slots
    ]
    if not subset:
        warnings.warn("no validation clips fall on the configured test slots")
        return full, float("nan")
    return full, scale * float(np.mean(subset))


def predict(params: UNetParams, clip: Clip) -> np.ndarray:
    """Predict the 3 target frames of a clip as clamped, rounded uint8.
    NumericalError if the network output is not finite: it has no rounding."""
    cfg = params.config
    if cfg.out_channels % TARGET_FRAMES:
        raise ValueError(
            f"out_channels {cfg.out_channels} not divisible by {TARGET_FRAMES} frames"
        )
    out = _batch_forward(params, [clip.input])[0].astype(np.float64)  # (3*c, h, w)
    if not math.isfinite(out.sum()):  # float32 values overflow no float64 sum
        bad = np.count_nonzero(~np.isfinite(out))
        raise NumericalError(f"{bad} of {out.size} predicted values are not finite")
    if cfg.normalize:
        out = out * 255.0 + 128.0
    return round_half_up_uint8(out.reshape(TARGET_FRAMES, -1, *out.shape[1:]))


# ---------------------------------------------------------------------------
# evaluation protocol

@dataclass
class Metrics:
    overall: float
    per_frame: list[float]    # one entry per prediction horizon
    per_channel: list[float]
    per_city: dict[str, float]
    clips: int


def evaluate(
    predictions: Iterable[np.ndarray],
    truths: Iterable[np.ndarray],
    cities: Iterable[str] | None = None,
) -> Metrics:
    """Per-element MSE of uint8 frames with per-frame/channel/city splits.

    The inputs may be any iterables; they are read one prediction/truth pair
    at a time, so generators need hold only one pair. Squared errors are summed
    in exact integers (int64), so every mean is one correctly rounded division
    and does not depend on the order of the clips. ValueError on no clips,
    unequal counts or shapes, fewer cities than clips, or non-uint8 frames.
    """
    cities = iter(repeat("") if cities is None else cities)
    sq_sum = None
    clips = pixels = 0  # pixels: h * w summed over the clips
    city_sq: dict[str, int] = {}
    city_n: dict[str, int] = {}
    for pred, truth in zip_longest(predictions, truths):
        if pred is None or truth is None:
            raise ValueError("prediction and truth counts differ")
        city = next(cities, None)
        if city is None:
            raise ValueError("fewer cities than clips")
        if sq_sum is None:
            frames, channels = pred.shape[:2]
            sq_sum = np.zeros((frames, channels), np.int64)
        if pred.shape != truth.shape:
            raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
        if pred.shape[:2] != (frames, channels):
            raise ValueError(f"(frames, channels) {pred.shape[:2]} differ from {(frames, channels)}")
        if pred.dtype != np.uint8 or truth.dtype != np.uint8:
            raise ValueError(f"expected uint8 frames, got {pred.dtype} and {truth.dtype}")
        sq = np.subtract(pred, truth, dtype=np.int32)
        sq *= sq
        clip_sq = sq.sum(axis=(2, 3), dtype=np.int64)
        sq_sum += clip_sq
        clips += 1
        pixels += sq.shape[2] * sq.shape[3]
        city_sq[city] = city_sq.get(city, 0) + int(clip_sq.sum())
        city_n[city] = city_n.get(city, 0) + sq.size
    if sq_sum is None:
        raise ValueError("nothing to evaluate")

    overall = float(sq_sum.sum() / (pixels * frames * channels))
    per_frame = (sq_sum.sum(axis=1) / (pixels * channels)).tolist()
    per_channel = (sq_sum.sum(axis=0) / (pixels * frames)).tolist()
    per_city = {c: city_sq[c] / city_n[c] for c in sorted(city_sq)}
    return Metrics(overall, per_frame, per_channel, per_city, clips)


def write_epoch_log(path: str | Path, log: list[EpochLog]) -> Path:
    """CSV with one row per epoch: epoch,lr,train_mse,val_mse,val_test_slots_mse."""
    path = Path(path)
    with _atomic_write(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "lr", "train_mse", "val_mse", "val_test_slots_mse"])
        for row in log:
            writer.writerow(
                [row.epoch, row.lr, row.train_mse, row.val_mse, row.val_test_slots_mse]
            )
    return path
