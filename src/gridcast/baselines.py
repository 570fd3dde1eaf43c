"""Statistical predictors: per-slot averages, persistence, and a zero baseline.

A slot-average model is the mean frame of each slot, rounded half-up to uint8.
Each slot's sum over its n training days is an exact integer, so the model
does not depend on the order of the days, and the mean is rounded once, in
integers, when the model is built: ``(2 * sum + n) // (2 * n)``, which is
``floor(sum / n + 1/2)``.
"""

from __future__ import annotations

import numpy as np

from .dataset import Clip, ClipSpec, INPUT_FRAMES, TARGET_FRAMES
from .movie_store import MovieReader, check_grid, ingest  # ingest: bench/hooks.py wraps baselines.ingest


def time_slot_average(train_movies: list[MovieReader], slots) -> dict[int, np.ndarray]:
    """Average each requested slot over the training days that reach it: the
    model, ``{slot: (c, h, w) uint8 mean}``. The days must share one (c, h, w)
    grid and every slot must be reached by one."""
    slots = sorted(set(slots))
    if not train_movies:
        raise ValueError("need at least one training day")
    if not slots:
        raise ValueError("need at least one slot")
    grid = train_movies[0].header.shape[1:]
    check_grid(train_movies, grid, "the first day's")
    days = {s: [m for m in train_movies if s < m.header.t] for s in slots}
    missing = [s for s in slots if not days[s]]
    if missing:
        raise ValueError(f"slots with zero observations: {missing}")
    frames = np.empty((len(slots), *grid), np.uint8)
    # 2 * sum + n <= 511 * n fits in uint32 for up to n = 8,405,024 days
    total = np.empty(grid, np.uint32)
    for frame, slot in zip(frames, slots):
        n = len(days[slot])
        total.fill(0)
        for m in days[slot]:
            total += m.read_frames(slot, 1)[0]
        total *= 2
        total += n
        total //= 2 * n
        frame[...] = total
    return dict(zip(slots, frames))


def predict_slot_average(frames: dict[int, np.ndarray], spec: ClipSpec) -> np.ndarray:
    """Predict the 3 target frames of a clip: the slot-average ``frames`` of
    the slots that follow its input."""
    first = spec.t_start + INPUT_FRAMES  # the first predicted slot
    return np.stack([frames[first + j] for j in range(TARGET_FRAMES)])


def persistence(clip: Clip) -> np.ndarray:
    """Repeat the last input frame for every prediction horizon."""
    return np.repeat(clip.input[-1:], TARGET_FRAMES, axis=0)


def zero_baseline(clip: Clip) -> np.ndarray:
    return np.zeros_like(clip.target)
