"""Statistical predictors: per-slot averages, persistence, and a zero baseline.

The slot-average model keeps exact 64-bit integer sums and day counts per
slot, so it is order-independent over training days and only divides once
when a mean frame is emitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Clip, ClipSpec, INPUT_FRAMES, TARGET_FRAMES
from .movie_store import MovieReader, ingest, open_movie
from .tensor_nn import round_half_up_uint8


@dataclass
class SlotAverageModel:
    sums: dict[int, np.ndarray]  # slot -> (c, h, w) int64 value sums
    counts: dict[int, int]       # slot -> number of observed days

    @property
    def slots(self) -> list[int]:
        return sorted(self.sums)

    def mean(self, slot: int) -> np.ndarray:
        """Real-valued mean frame for a slot, (c, h, w) float64."""
        if slot not in self.sums:
            raise KeyError(f"slot {slot} not covered by model")
        return self.sums[slot] / self.counts[slot]


def time_slot_average(train_movies: list[MovieReader], slots) -> SlotAverageModel:
    """Average each requested slot over all training days, which must share
    one (c, h, w) grid."""
    slots = sorted(set(slots))
    if not train_movies:
        raise ValueError("need at least one training day")
    if not slots:
        raise ValueError("need at least one slot")
    grid = train_movies[0].header.shape[1:]
    sums = dict(zip(slots, np.zeros((len(slots), *grid), np.int64)))
    counts = dict.fromkeys(slots, 0)
    for m in train_movies:
        if m.header.shape[1:] != grid:
            raise ValueError(f"{m.path}: grid (c, h, w) {m.header.shape[1:]} differs from {grid}")
        for slot in slots:
            if slot >= m.header.t:
                break
            sums[slot] += m.read_frames(slot, 1)[0]
            counts[slot] += 1
    missing = [s for s in slots if not counts[s]]
    if missing:
        raise ValueError(f"slots with zero observations: {missing}")
    return SlotAverageModel(sums, counts)


def predict_slot_average(model: SlotAverageModel, spec: ClipSpec) -> np.ndarray:
    """Predict the 3 target frames of a clip from the per-slot means.

    Means are rounded half-up to uint8 and clamped to [0, 255].
    """
    first = spec.t_start + INPUT_FRAMES  # the first predicted slot
    return np.stack([round_half_up_uint8(model.mean(first + j)) for j in range(TARGET_FRAMES)])


def persistence(clip: Clip) -> np.ndarray:
    """Repeat the last input frame for every prediction horizon."""
    return np.repeat(clip.input[-1:], TARGET_FRAMES, axis=0).copy()


def zero_baseline(clip: Clip) -> np.ndarray:
    return np.zeros_like(clip.target)


def save_model(model: SlotAverageModel, path: str | Path) -> Path:
    """Persist as one TMM1 movie: the rounded mean of each slot in slot order,
    date "MODEL" and city ``slot-average-s<s0>,<s1>,...`` naming the slots."""
    slots = model.slots
    frames = np.stack([round_half_up_uint8(model.mean(s)) for s in slots])
    return ingest(frames, "slot-average-s" + ",".join(map(str, slots)), "MODEL", path)


def load_model(path: str | Path) -> SlotAverageModel:
    """Read a model written by ``save_model``; ValueError unless the date is
    "MODEL" and the city names one strictly increasing slot per frame."""
    with open_movie(path) as m:
        hdr = m.header
        meta = re.fullmatch(r"slot-average-s([0-9]+(?:,[0-9]+)*)", hdr.city)
        slots = [int(s) for s in meta[1].split(",")] if meta else []
        if hdr.date != "MODEL" or len(slots) != hdr.t or slots != sorted(set(slots)):
            raise ValueError(
                f"{path}: date {hdr.date!r}, city {hdr.city!r}: not a model of {hdr.t} increasing slots"
            )
        frames = m.read_all()
    sums = {s: f.astype(np.int64) for s, f in zip(slots, frames)}
    return SlotAverageModel(sums, dict.fromkeys(slots, 1))
