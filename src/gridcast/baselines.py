"""Statistical predictors: per-slot averages, persistence, and a zero baseline.

The slot-average model keeps exact 64-bit integer sums and day counts per
slot, so it is order-independent over training days and only divides once
when a mean frame is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Clip, ClipSpec, INPUT_FRAMES, TARGET_FRAMES, read_slots, write_slots
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
    """Average each requested slot over all training days."""
    slots = sorted(set(slots))
    if not train_movies:
        raise ValueError("need at least one training day")
    if not slots:
        raise ValueError("need at least one slot")
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for m in train_movies:
        hdr = m.header
        for s0, n in _contiguous_runs(slots):
            n = min(n, hdr.t - s0)
            if n <= 0:
                continue
            frames = m.read_frames(s0, n).astype(np.int64)
            for j in range(n):
                slot = s0 + j
                if slot in sums:
                    sums[slot] += frames[j]
                    counts[slot] += 1
                else:
                    sums[slot] = frames[j].copy()
                    counts[slot] = 1
    missing = [s for s in slots if s not in sums]
    if missing:
        raise ValueError(f"slots with zero observations: {missing}")
    return SlotAverageModel(sums, counts)


def _contiguous_runs(sorted_slots: list[int]):
    start = prev = sorted_slots[0]
    for s in sorted_slots[1:]:
        if s != prev + 1:
            yield start, prev - start + 1
            start = s
        prev = s
    yield start, prev - start + 1


def predict_slot_average(model: SlotAverageModel, spec: ClipSpec) -> np.ndarray:
    """Predict the 3 target frames of a clip from the per-slot means.

    Means are rounded half-up to uint8 and clamped to [0, 255].
    """
    frames = []
    for j in range(TARGET_FRAMES):
        mean = model.mean(spec.t_start + INPUT_FRAMES + j)
        if spec.region is not None:
            r0, c0, rows, cols = spec.region
            mean = mean[:, r0 : r0 + rows, c0 : c0 + cols]
        frames.append(round_half_up_uint8(mean))
    return np.stack(frames)


def persistence(clip: Clip) -> np.ndarray:
    """Repeat the last input frame for every prediction horizon."""
    return np.repeat(clip.input[-1:], TARGET_FRAMES, axis=0).copy()


def zero_baseline(clip: Clip) -> np.ndarray:
    return np.zeros_like(clip.target)


def save_model(model: SlotAverageModel, path: str | Path) -> Path:
    """Persist as TMM1 with t = number of slots (rounded uint8 means, date
    "MODEL") plus a sidecar <path>.slots file listing the slot of each frame."""
    slots = model.slots
    frames = np.stack([round_half_up_uint8(model.mean(s)) for s in slots])
    out = ingest(frames, "slot-average", "MODEL", path)
    write_slots(f"{path}.slots", slots)
    return out


def load_model(path: str | Path) -> SlotAverageModel:
    with open_movie(path) as m:
        if m.header.date != "MODEL":
            raise ValueError(f"{path} is not a slot-average model file")
        frames = m.read_all()
    slots = sorted(read_slots(f"{path}.slots"))
    if len(slots) != frames.shape[0]:
        raise ValueError(f"{path}.slots lists {len(slots)} slots for {frames.shape[0]} frames")
    sums = {s: frames[i].astype(np.int64) for i, s in enumerate(slots)}
    counts = {s: 1 for s in slots}
    return SlotAverageModel(sums, counts)
