"""Clip enumeration and transforms over stored traffic movies.

A clip is 15 consecutive frames of one day: the first 12 are model input, the
last 3 the prediction target. A loaded clip copies nothing: its input and
target are read-only views into its reader's day buffer (``read_frames``), so
the 274 stride-1 clips of a day hold that day once, not 14 times. For 2-D CNN
consumption the input block is collapsed frame-major/channel-minor into a
single channel stack, e.g. (12, 3, h, w) -> (36, h, w).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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


def read_slots(path: str | Path, t: int) -> set[int]:
    """Read a test-slot filter file: one slot index per line, each in 0..t-1,
    where ``t`` is the frame count of the longest day the slots select from.

    ValueError naming the file and line of the first line that is not a
    nonnegative decimal integer, then naming every slot that no day has."""
    slots = set()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if not (line.isascii() and line.isdigit()):
            raise ValueError(f"{path}:{lineno}: {line!r} is not a slot")
        slots.add(int(line))
    past = sorted(s for s in slots if s >= t)
    if past:
        raise ValueError(f"{path}: slots {past} are in no day: the longest has {t} frames")
    return slots


def synth_movie(kind: str, seed: int, shape: tuple[int, int, int, int], value: int = 0) -> np.ndarray:
    """Generate a deterministic synthetic movie of the given (t, c, h, w) shape.

    Kinds:
      constant      every cell equals ``value``
      time_ramp     frame i is constant i mod 256
      slot_pattern  cell value is a pure function of (slot, channel, y, x), so
                    averaging a slot over any number of generated days
                    reproduces the frames exactly; a continuous channel's
                    slot s repeats slot s - period by construction, so
                    ``sin`` runs once per frame of one period
                    (``_slot_pattern``)
      random        uniform uint8 noise from PCG64's raw stream (``_random``)

    Each movie is a function of kind, seed, shape and value only. The heading
    channel (index 2) of slot_pattern and random movies only takes the four
    class values {0, 85, 170, 255}.
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
        return _random(seed, shape)
    if kind == "slot_pattern":
        return _slot_pattern(t, c, h, w, seed)
    raise ValueError(f"unknown synth kind {kind!r}")


_CHUNK_DRAWS = 1 << 16  # 64-bit draws per chunk: 512 KB


def _random(seed, shape) -> np.ndarray:
    """Uniform uint8 noise with a heading channel of classes, read straight
    from ``PCG64(seed)``'s raw stream, whose values numpy guarantees for a
    fixed seed.

    The stream's 64-bit draws are read as ``<u8`` and split into ``<u4``
    words, low half first, on any host. The first ceil(n/4) words are the
    movie's n bytes, low byte first; the next t*h*w words are the heading
    cells in (t, h, w) order, class ``85 * (word >> 30)``, over channel 2's
    bytes. Those are the bytes of ``rng.integers(0, 256, shape, np.uint8)``
    and then ``HEADING_CLASSES[rng.integers(0, 4, (t, h, w))]``: for a range
    of 4, Lemire's method takes one word per cell and never rejects.

    The draws are split into contiguous parts of whole chunks, one per
    available core and at most one per chunk. Each part (``_random_draws``)
    runs on a pool thread with its own ``PCG64(seed)`` jumped ahead to the
    part's first draw (``advance``, O(log n)). The byte words skip channel
    2's bytes, which the heading classes set, so every byte has one writer
    and no part waits for another. The bytes do not depend on the part
    count. The pool joins every thread before this returns or raises, and
    the lowest-numbered failing part's exception is raised here.
    """
    movie = np.empty(shape, dtype=np.uint8)
    draws = -(-_stream_words(shape) // 2)
    chunks = -(-draws // _CHUNK_DRAWS)
    parts = min(len(os.sched_getaffinity(0)), chunks)
    bounds = [chunks * k // parts * _CHUNK_DRAWS for k in range(parts)] + [draws]
    with ThreadPoolExecutor(parts) as pool:
        list(pool.map(lambda first, stop: _random_draws(seed, movie, first, stop), bounds, bounds[1:]))
    return movie


def _stream_words(shape) -> int:
    """The raw stream's 32-bit words that ``_random`` reads for ``shape``:
    ceil(n/4) byte words, then one word per heading cell."""
    t, c, h, w = shape
    return -(-(t * c * h * w) // 4) + (t * h * w if c > HEADING_CHANNEL else 0)


def _random_draws(seed, movie, first, stop):
    """Write draws ``first`` to ``stop - 1`` of ``PCG64(seed)``'s raw stream
    into ``movie`` as ``_random`` lays them out, a chunk of draws at a time.
    Byte words skip the heading channel's bytes, if the movie has one."""
    c, h, w = movie.shape[1:]
    flat = movie.reshape(-1)
    frame = h * w
    byte_words = -(-flat.size // 4)
    total = _stream_words(movie.shape)
    bitgen = np.random.default_rng(seed).bit_generator
    bitgen.advance(first)
    for d in range(first, stop, _CHUNK_DRAWS):
        words = bitgen.random_raw(min(_CHUNK_DRAWS, stop - d)).astype("<u8", copy=False).view("<u4")
        start, end = 2 * d, 2 * d + words.size  # the chunk's words
        if start < byte_words:
            data = words.view(np.uint8)
            p, stop_byte = 4 * start, min(4 * end, flat.size)
            while p < stop_byte:  # the bytes of one (frame, channel) plane at a time
                plane, k = divmod(p, frame)
                n = min(frame - k, stop_byte - p)
                if c <= HEADING_CHANNEL or plane % c != HEADING_CHANNEL:
                    flat[p : p + n] = data[p - 4 * start : p - 4 * start + n]
                p += n
        if end > byte_words:
            first_word = max(start, byte_words)  # the chunk's first heading word
            classes = words[first_word - start : total - start]
            classes >>= 30  # in place: a worker thread's heap keeps what it frees
            cell = first_word - byte_words
            while classes.size:  # the cells of one frame at a time
                f, k = divmod(cell, frame)
                n = min(frame - k, classes.size)
                cells = movie[f, HEADING_CHANNEL].reshape(-1)[k : k + n]
                np.multiply(classes[:n], 85, out=cells, casting="unsafe")
                classes, cell = classes[n:], cell + n


def _slot_pattern(t, c, h, w, seed) -> np.ndarray:
    """Smooth per-slot pattern: short-period sinusoids in the slot index with
    a spatial phase field for the continuous channels, static class bands for
    heading. Every value is a pure function of (slot, channel, y, x).

    A continuous channel's period is a whole number of slots, so slot s
    repeats slot s - period by construction: ``sin`` runs once per frame of
    the first period only, and every later frame is a copy. The float64
    temporaries are one frame's, not the day's."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    spatial = (yy / h + xx / w) / 2.0  # in [0, 1)

    movie = np.empty((t, c, h, w), dtype=np.uint8)
    periods = (7, 5, 11, 4)
    for ch in range(c):
        if ch == HEADING_CHANNEL:
            idx = (np.floor(4 * spatial) + rng.integers(0, 4)) % 4
            movie[:, ch] = (85 * idx).astype(np.uint8)
            continue
        period = periods[ch % len(periods)]
        amp = rng.uniform(70.0, 100.0)
        phase = rng.uniform(1.0, 2.0) * spatial
        for s in range(min(period, t)):
            angle = 2 * np.pi * (np.float64(s) / period + phase)
            vals = np.floor(128.0 + amp * np.sin(angle) + 0.5)
            movie[s, ch] = np.clip(vals, 0, 255).astype(np.uint8)
        for s in range(period, t):
            movie[s, ch] = movie[s - period, ch]
    return movie
