"""Clip enumeration and transforms over stored traffic movies.

A clip is 15 consecutive frames of one day: the first 12 are model input, the
last 3 the prediction target. A loaded clip copies nothing: its input and
target are read-only views into its reader's day buffer (``read_frames``), so
the 274 stride-1 clips of a day hold that day once, not 14 times. For 2-D CNN
consumption the input block is collapsed frame-major/channel-minor into a
single channel stack, e.g. (12, 3, h, w) -> (36, h, w).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .movie_store import MovieReader

INPUT_FRAMES = 12
TARGET_FRAMES = 3
CLIP_FRAMES = INPUT_FRAMES + TARGET_FRAMES

HEADING_CLASSES = (0, 85, 170, 255)
HEADING_CHANNEL = 2


@dataclass(frozen=True)
class ClipSpec:
    """Identifies one clip: (city, day) selects the movie, and the clip is its
    CLIP_FRAMES frames from t_start on, over the movie's full grid."""

    city: str
    day: str
    t_start: int


@dataclass(frozen=True)
class Clip:
    """One loaded clip; both arrays are read-only views into the day buffer of
    the reader that loaded it, and keep that buffer alive."""

    input: np.ndarray   # (12, c, h, w) uint8
    target: np.ndarray  # (3, c, h, w) uint8
    spec: ClipSpec


@dataclass(frozen=True)
class CollapsedSample:
    """Frame stack reshaped to (t*c, h, w); channel k holds frame k//c, channel k%c."""

    data: np.ndarray
    t: int
    c: int

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"expected (t*c, h, w) data, got shape {self.data.shape}")
        if self.data.shape[0] != self.t * self.c:
            raise ValueError(
                f"channel count {self.data.shape[0]} != t*c = {self.t}*{self.c}"
            )


def enumerate_clips(
    movies: list[MovieReader],
    stride: int = 1,
    test_slots: set[int] | None = None,
) -> list[ClipSpec]:
    """Enumerate clip windows over a set of movies, sorted (city, day, t_start).

    Windows start every ``stride`` frames. If ``test_slots`` is given, only
    windows whose first predicted slot (t_start + 12) is in it are kept.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not movies:
        raise ValueError("empty movie set")
    specs = []
    for m in movies:
        h = m.header
        for t_start in range(0, h.t - CLIP_FRAMES + 1, stride):
            if test_slots is not None and (t_start + INPUT_FRAMES) not in test_slots:
                continue
            specs.append(ClipSpec(h.city, h.date, t_start))
    specs.sort(key=lambda s: (s.city, s.day, s.t_start))
    return specs


def index_movies(movies: list[MovieReader]) -> dict[tuple[str, str], MovieReader]:
    """Key open movies by (city, date) for clip loading."""
    index = {}
    for m in movies:
        key = (m.header.city, m.header.date)
        if key in index:
            raise ValueError(f"duplicate movie for {key}")
        index[key] = m
    return index


def load_clip(spec: ClipSpec, movies: dict[tuple[str, str], MovieReader]) -> Clip:
    """Read the 15 frames of a clip and split them 12 input / 3 target, as
    views into the movie's day buffer."""
    key = (spec.city, spec.day)
    movie = movies.get(key)
    if movie is None:
        raise KeyError(f"no movie for city={spec.city!r} day={spec.day!r}")
    hdr = movie.header
    if spec.t_start < 0 or spec.t_start + CLIP_FRAMES > hdr.t:
        raise ValueError(
            f"t_start={spec.t_start} leaves no room for {CLIP_FRAMES} frames in [0, {hdr.t})"
        )
    frames = movie.read_frames(spec.t_start, CLIP_FRAMES)
    return Clip(frames[:INPUT_FRAMES], frames[INPUT_FRAMES:], spec)


def collapse_time(frames: np.ndarray) -> CollapsedSample:
    """Collapse (t, c, h, w) into (t*c, h, w), frame-major, channel-minor."""
    if frames.ndim != 4:
        raise ValueError(f"expected (t, c, h, w), got shape {frames.shape}")
    t, c, h, w = frames.shape
    return CollapsedSample(frames.reshape(t * c, h, w), t, c)


def expand_time(sample: CollapsedSample) -> np.ndarray:
    """Invert collapse_time: (t*c, h, w) back to (t, c, h, w)."""
    k, h, w = sample.data.shape
    return sample.data.reshape(sample.t, sample.c, h, w)


def read_slots(path: str | Path) -> set[int]:
    """Read a test-slot filter file: one integer slot index per line."""
    slots = set()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            slots.add(int(line))
    return slots


def synth_movie(kind: str, seed: int, shape: tuple[int, int, int, int], value: int = 0) -> np.ndarray:
    """Generate a deterministic synthetic movie of the given (t, c, h, w) shape.

    Kinds:
      constant      every cell equals ``value``
      time_ramp     frame i is constant i mod 256
      slot_pattern  cell value is a pure function of (slot, channel, y, x), so
                    averaging a slot over any number of generated days
                    reproduces the frames exactly
      random        uniform uint8 noise

    The heading channel (index 2) of slot_pattern and random movies only takes
    the four class values {0, 85, 170, 255}.
    """
    t, c, h, w = shape
    if min(shape) < 1:
        raise ValueError(f"invalid shape {shape}")
    if not 0 <= value <= 255:
        raise ValueError(f"value must be in 0..255, got {value}")
    if kind == "constant":
        return np.full(shape, value, dtype=np.uint8)
    if kind == "time_ramp":
        ramp = (np.arange(t, dtype=np.uint32) % 256).astype(np.uint8)
        return np.broadcast_to(ramp[:, None, None, None], shape).copy()
    if kind == "random":
        rng = np.random.default_rng(seed)
        movie = rng.integers(0, 256, size=shape, dtype=np.uint8)
        if c > HEADING_CHANNEL:
            classes = np.array(HEADING_CLASSES, dtype=np.uint8)
            # one frame at a time: the same stream as one (t, h, w) draw,
            # without its int64 temporary
            for frame in movie:
                frame[HEADING_CHANNEL] = classes[rng.integers(0, 4, size=(h, w))]
        return movie
    if kind == "slot_pattern":
        return _slot_pattern(t, c, h, w, seed)
    raise ValueError(f"unknown synth kind {kind!r}")


def _slot_pattern(t, c, h, w, seed) -> np.ndarray:
    """Smooth per-slot pattern: short-period sinusoids in the slot index with
    a spatial phase field for the continuous channels, static class bands for
    heading. Every value is a pure function of (slot, channel, y, x)."""
    rng = np.random.default_rng(seed)
    slots = np.arange(t, dtype=np.float64)
    yy, xx = np.mgrid[0:h, 0:w]
    spatial = (yy / h + xx / w) / 2.0  # in [0, 1)

    movie = np.empty((t, c, h, w), dtype=np.uint8)
    periods = (7.0, 5.0, 11.0, 4.0)
    for ch in range(c):
        if ch == HEADING_CHANNEL:
            idx = (np.floor(4 * spatial) + rng.integers(0, 4)) % 4
            movie[:, ch] = np.broadcast_to(
                (85 * idx).astype(np.uint8), (t, h, w)
            )
            continue
        period = periods[ch % len(periods)]
        amp = rng.uniform(70.0, 100.0)
        phase_scale = rng.uniform(1.0, 2.0)
        angle = 2 * np.pi * (slots[:, None, None] / period + phase_scale * spatial)
        vals = np.floor(128.0 + amp * np.sin(angle) + 0.5)
        movie[:, ch] = np.clip(vals, 0, 255).astype(np.uint8)
    return movie
