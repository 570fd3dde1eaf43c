import hashlib
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gridcast import dataset
from gridcast.dataset import (
    ClipSpec,
    CollapsedSample,
    collapse_time,
    enumerate_clips,
    index_movies,
    load_clip,
    read_slots,
    synth_movie,
)
from gridcast.movie_store import ingest, open_movie


@pytest.fixture
def ramp_movie(tmp_path):
    raw = synth_movie("time_ramp", 0, (288, 3, 6, 6))
    path = ingest(raw, "toy", "2019-01-07", tmp_path / "toy.tmm")
    with open_movie(path) as m:
        yield m


def test_enumerate_full_day(ramp_movie):
    specs = enumerate_clips([ramp_movie], stride=1)
    assert len(specs) == 274
    assert specs[0].t_start == 0
    assert specs[-1].t_start == 273


def test_enumerate_test_slot_filter(ramp_movie):
    specs = enumerate_clips([ramp_movie], stride=1, test_slots={100})
    assert [s.t_start for s in specs] == [88]


def test_enumerate_stride_full_day(ramp_movie):
    specs = enumerate_clips([ramp_movie], stride=288)
    assert [s.t_start for s in specs] == [0]


def test_enumerate_sorted_and_deterministic(tmp_path):
    movies = []
    for city, day in [("b", "2019-01-02"), ("a", "2019-01-03"), ("a", "2019-01-02")]:
        raw = synth_movie("constant", 0, (20, 1, 2, 2))
        movies.append(open_movie(ingest(raw, city, day, tmp_path / f"{city}{day}.tmm")))
    specs = enumerate_clips(movies, stride=4)
    keys = [(s.city, s.day, s.t_start) for s in specs]
    assert keys == sorted(keys)
    assert specs == enumerate_clips(list(reversed(movies)), stride=4)
    for m in movies:
        m.close()


def test_enumerate_rejects_bad_args(ramp_movie):
    with pytest.raises(ValueError):
        enumerate_clips([], stride=1)
    with pytest.raises(ValueError):
        enumerate_clips([ramp_movie], stride=0)


def test_load_clip_splits_input_and_target(ramp_movie):
    clip = load_clip(ClipSpec("toy", "2019-01-07", 0), index_movies([ramp_movie]))
    for i in range(12):
        assert np.all(clip.input[i] == i)
    for j in range(3):
        assert np.all(clip.target[j] == 12 + j)


def test_load_clip_frames_are_readonly_store_views(ramp_movie):
    movies = index_movies([ramp_movie])
    spec = ClipSpec("toy", "2019-01-07", 3)
    a = load_clip(spec, movies)
    b = load_clip(spec, movies)
    assert np.array_equal(a.input, b.input) and np.array_equal(a.target, b.target)
    assert not a.input.flags.writeable  # stored bytes cannot be mutated in place
    with pytest.raises(ValueError):
        a.input[0, 0, 0, 0] = 99


def test_stride_1_clips_of_a_day_are_views_into_one_day_buffer(tmp_path):
    raw = synth_movie("random", 3, (40, 3, 4, 5))
    with open_movie(ingest(raw, "toy", "2019-01-07", tmp_path / "toy.tmm")) as m:
        specs = enumerate_clips([m], stride=1)
        clips = [load_clip(s, index_movies([m])) for s in specs]
        for spec, clip in zip(specs, clips):
            assert np.array_equal(clip.input, raw[spec.t_start : spec.t_start + 12])
            assert np.array_equal(clip.target, raw[spec.t_start + 12 : spec.t_start + 15])
        bases = {id(a.base): a.base for c in clips for a in (c.input, c.target)}
        assert sum(b.nbytes for b in bases.values()) == m.header.payload_bytes
        assert m.payload_bytes_read == len(clips) * 15 * m.header.frame_bytes


def test_load_clip_errors(ramp_movie):
    movies = index_movies([ramp_movie])
    with pytest.raises(ValueError):
        load_clip(ClipSpec("toy", "2019-01-07", 274), movies)
    with pytest.raises(KeyError):
        load_clip(ClipSpec("elsewhere", "2019-01-07", 0), movies)


def test_collapse_shape_and_order():
    frames = np.zeros((12, 3, 5, 4), dtype=np.uint8)
    sample = collapse_time(frames)
    assert sample.data.shape == (36, 5, 4)
    assert (sample.t, sample.c) == (12, 3)


def test_collapse_identity_when_single_frame_channel():
    frames = np.array([[[[1, 2], [3, 4]]]], dtype=np.uint8)
    sample = collapse_time(frames)
    assert np.array_equal(sample.data, frames[0])


def test_collapse_matches_naive_oracle():
    t, c, h, w = 2, 3, 1, 1
    frames = np.empty((t, c, h, w), dtype=np.uint8)
    for ti in range(t):
        for ci in range(c):
            frames[ti, ci] = 10 * ti + ci
    sample = collapse_time(frames)
    assert sample.data[:, 0, 0].tolist() == [0, 1, 2, 10, 11, 12]
    # naive elementwise oracle: channel k holds frame k//c, channel k%c
    for k in range(t * c):
        assert np.array_equal(sample.data[k], frames[k // c, k % c])


def test_collapsed_sample_checks_its_shape():
    assert CollapsedSample(np.zeros((9, 4, 4)), 3, 3).data.shape == (9, 4, 4)
    with pytest.raises(ValueError, match=r"channel count 7 != t\*c = 3\*3"):
        CollapsedSample(np.zeros((7, 4, 4)), 3, 3)
    with pytest.raises(ValueError, match=r"expected \(t\*c, h, w\) data"):
        CollapsedSample(np.zeros((9, 4)), 3, 3)


def test_slots_file_roundtrip(tmp_path):
    path = tmp_path / "slots.txt"
    path.write_text("30\n12\n\n 100 \n")
    assert read_slots(path, 288) == {12, 30, 100}
    assert read_slots(path, 101) == {12, 30, 100}


@pytest.mark.parametrize("line", ["abc", "-5", "+5", "1_000", "2.0", "\u0663"])
def test_read_slots_names_the_file_and_line_of_a_line_that_is_no_slot(tmp_path, line):
    path = tmp_path / "slots.txt"
    path.write_text(f"20\n\n{line}\n30\n")
    with pytest.raises(ValueError) as e:
        read_slots(path, 288)
    assert str(e.value) == f"{path}:3: {line!r} is not a slot"


def test_read_slots_names_every_slot_that_no_day_has(tmp_path):
    path = tmp_path / "slots.txt"
    path.write_text("900\n20\n48\n47\n100\n")
    with pytest.raises(ValueError) as e:
        read_slots(path, 48)
    assert str(e.value) == f"{path}: slots [48, 100, 900] are in no day: the longest has 48 frames"


@pytest.mark.parametrize("value", [-1, 256, 300])
def test_synth_rejects_values_a_uint8_cannot_hold(value):
    assert np.all(synth_movie("constant", 0, (1, 1, 2, 2), value=255) == 255)
    with pytest.raises(ValueError, match="0..255"):
        synth_movie("constant", 0, (1, 1, 2, 2), value=value)


def test_synth_constant_and_ramp():
    zeros = synth_movie("constant", 0, (4, 3, 2, 2))
    assert not zeros.any()
    assert np.all(synth_movie("constant", 0, (1, 1, 2, 2), value=9) == 9)
    ramp = synth_movie("time_ramp", 0, (300, 1, 2, 2))
    for i in (0, 17, 255, 256, 299):
        assert np.all(ramp[i] == i % 256)


def test_synth_slot_pattern_repeatable_days():
    shape = (288, 3, 8, 8)
    day1 = synth_movie("slot_pattern", 5, shape)
    day2 = synth_movie("slot_pattern", 5, shape)
    assert np.array_equal(day1, day2)
    assert set(np.unique(day1[:, dataset.HEADING_CHANNEL])) <= set(dataset.HEADING_CLASSES)


def test_synth_random_heading_classes():
    movie = synth_movie("random", 3, (10, 3, 6, 6))
    assert set(np.unique(movie[:, dataset.HEADING_CHANNEL])) <= set(dataset.HEADING_CLASSES)
    assert np.array_equal(movie, synth_movie("random", 3, (10, 3, 6, 6)))


def _random_by_integers(seed, shape):
    """The ``Generator.integers`` draw that ``_random`` reads from the raw stream."""
    rng = np.random.default_rng(seed)
    t, c, h, w = shape
    old = rng.integers(0, 256, size=shape, dtype=np.uint8)
    if c > dataset.HEADING_CHANNEL:
        classes = np.array(dataset.HEADING_CLASSES, dtype=np.uint8)
        old[:, dataset.HEADING_CHANNEL] = classes[rng.integers(0, 4, size=(t, h, w))]
    return old


# ceil(t*c*h*w / 4) odd, so the heading starts at the last byte draw's high
# half, and even; c from 1 to 4; odd and even h*w; and (3, 3, 500, 701), whose
# 788,625 byte words and 1,051,500 heading words take 15 chunks, one with both
_STREAM_SHAPES = [
    (5, 3, 3, 5), (4, 3, 6, 6), (1, 3, 1, 1), (3, 1, 5, 7), (3, 2, 5, 7), (3, 4, 5, 7), (2, 3, 4, 4),
    (3, 3, 500, 701),
]


def _cores(monkeypatch, n):
    """Make ``_random`` see ``n`` available cores, so it splits its draws into
    up to ``n`` parts."""
    monkeypatch.setattr(dataset.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("shape", _STREAM_SHAPES)
def test_synth_random_keeps_its_stream(shape):
    assert np.array_equal(synth_movie("random", 11, shape), _random_by_integers(11, shape))


@pytest.mark.parametrize("draws", [1, 2, 3, 7])
@pytest.mark.parametrize("shape", _STREAM_SHAPES[:-1])
def test_synth_random_keeps_its_stream_in_chunks_of_any_size(monkeypatch, shape, draws):
    # chunk ends in every place: inside a frame, on the byte/heading boundary
    monkeypatch.setattr(dataset, "_CHUNK_DRAWS", draws)
    assert np.array_equal(synth_movie("random", 5, shape), _random_by_integers(5, shape))


@pytest.mark.parametrize("cores", [1, 2, 3, 7])
@pytest.mark.parametrize(
    "shape, draws",
    [(s, d) for s in _STREAM_SHAPES[:-1] for d in (1, 2, 3, 7)] + [(_STREAM_SHAPES[-1], dataset._CHUNK_DRAWS)],
)
def test_synth_random_keeps_its_stream_in_any_number_of_parts(monkeypatch, shape, draws, cores):
    # part ends inside a frame, on the byte/heading boundary, inside the
    # heading region; more cores than chunks on the smallest shapes
    monkeypatch.setattr(dataset, "_CHUNK_DRAWS", draws)
    _cores(monkeypatch, cores)
    assert np.array_equal(synth_movie("random", 5, shape), _random_by_integers(5, shape))


def _written(seed, movie_shape, first, stop):
    """The bytes that ``_random_draws`` writes for draws first..stop-1: each
    differs from a fill of 0 or from a fill of 255."""
    written = np.zeros(movie_shape, bool)
    for fill in (0, 255):
        movie = np.full(movie_shape, fill, np.uint8)
        dataset._random_draws(seed, movie, first, stop)
        written |= movie != fill
    return written


@pytest.mark.parametrize("shape", [(5, 3, 3, 5), (4, 3, 6, 6), (3, 4, 5, 7), (3, 2, 5, 7)])
def test_random_parts_split_at_any_draw_give_every_byte_one_writer(shape):
    # ceil(n/4) odd and even, a channel after the heading one, and no heading
    expected = _random_by_integers(7, shape)
    draws = -(-dataset._stream_words(shape) // 2)
    for split in range(draws + 1):
        movie = np.empty(shape, np.uint8)
        dataset._random_draws(7, movie, 0, split)
        dataset._random_draws(7, movie, split, draws)
        assert np.array_equal(movie, expected), split
        before, after = _written(7, shape, 0, split), _written(7, shape, split, draws)
        assert (before ^ after).all(), split


def test_synth_random_bytes_are_pinned():
    movie = synth_movie("random", 11, (7, 4, 33, 17))
    assert hashlib.sha256(movie.data).hexdigest() == (
        "1a2164f671391082634a27765d14ed33ec0137eb46d7befb143fc85947b17d24"
    )


def test_synth_random_holds_little_beside_the_movie(monkeypatch):
    shape = (6, 3, 600, 500)  # 5.4 MB, 25 chunks, in 4 parts that each hold their chunk
    _cores(monkeypatch, 4)
    synth_movie("random", 2, (1, 3, 1, 1))  # numpy's first-call set-up, not traced
    tracemalloc.start()
    try:
        movie = synth_movie("random", 2, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - movie.nbytes <= 16 * 2**20


@pytest.mark.parametrize("cores", [1, 2, 3, 7])
def test_synth_random_runs_one_part_per_core_and_leaves_no_thread(monkeypatch, cores):
    real = dataset._random_draws
    parts = []

    def spy(seed, movie, first, stop):
        parts.append((first, stop))
        real(seed, movie, first, stop)

    monkeypatch.setattr(dataset, "_random_draws", spy)
    monkeypatch.setattr(dataset, "_CHUNK_DRAWS", 4)
    _cores(monkeypatch, cores)
    threads = threading.active_count()
    synth_movie("random", 1, (2, 3, 3, 2))  # 9 byte words and 12 heading words: 11 draws in 3 chunks
    assert threading.active_count() == threads
    parts.sort()
    assert len(parts) == min(cores, 3)
    assert [first for first, _ in parts] + [11] == [0] + [stop for _, stop in parts]  # they tile 0..10


@pytest.mark.parametrize("failing", [0, 1, 2], ids=["first_part", "second_part", "last_part"])
def test_a_failing_part_fails_synth_random_and_leaves_no_thread(monkeypatch, failing):
    real = dataset._random_draws
    firsts = [0, 4, 8]  # 3 parts of 4, 4 and 3 draws: 9 byte words, then 12 heading words

    def one_part_fails(seed, movie, first, stop):
        if first == firsts[failing]:
            raise RuntimeError("part failed")
        time.sleep(0.05)  # still running when the failing part has ended
        real(seed, movie, first, stop)

    monkeypatch.setattr(dataset, "_random_draws", one_part_fails)
    monkeypatch.setattr(dataset, "_CHUNK_DRAWS", 4)
    _cores(monkeypatch, 3)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="part failed"):
        synth_movie("random", 1, (2, 3, 3, 2))
    assert threading.active_count() == threads


def _slot_pattern_broadcast(t, c, h, w, seed):
    """The whole-day formulation that ``_slot_pattern``'s per-frame loop replaced."""
    rng = np.random.default_rng(seed)
    slots = np.arange(t, dtype=np.float64)
    yy, xx = np.mgrid[0:h, 0:w]
    spatial = (yy / h + xx / w) / 2.0
    movie = np.empty((t, c, h, w), dtype=np.uint8)
    periods = (7.0, 5.0, 11.0, 4.0)
    for ch in range(c):
        if ch == dataset.HEADING_CHANNEL:
            idx = (np.floor(4 * spatial) + rng.integers(0, 4)) % 4
            movie[:, ch] = np.broadcast_to((85 * idx).astype(np.uint8), (t, h, w))
            continue
        period = periods[ch % len(periods)]
        amp = rng.uniform(70.0, 100.0)
        phase_scale = rng.uniform(1.0, 2.0)
        angle = 2 * np.pi * (slots[:, None, None] / period + phase_scale * spatial)
        vals = np.floor(128.0 + amp * np.sin(angle) + 0.5)
        movie[:, ch] = np.clip(vals, 0, 255).astype(np.uint8)
    return movie


@pytest.mark.parametrize(
    "shape", [(288, 3, 8, 8), (288, 4, 8, 8), (30, 1, 5, 7), (13, 2, 9, 4), (50, 4, 11, 13), (1, 3, 1, 1)]
)
@pytest.mark.parametrize("seed", [0, 11, 12345])
def test_synth_slot_pattern_matches_its_whole_day_formulation(shape, seed):
    assert np.array_equal(synth_movie("slot_pattern", seed, shape), _slot_pattern_broadcast(*shape, seed))


def test_synth_slot_pattern_holds_one_frame_of_temporaries():
    t, c, h, w = 288, 3, 64, 64
    synth_movie("slot_pattern", 4, (1, c, h, w))  # numpy's first-call set-up, not traced
    tracemalloc.start()
    try:
        movie = synth_movie("slot_pattern", 4, (t, c, h, w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - movie.nbytes <= 12 * h * w * 8  # a dozen float64 frames; the day's are 288 each


def test_synth_slot_pattern_computes_one_period_of_frames_per_channel(monkeypatch):
    calls = []
    real = np.sin
    monkeypatch.setattr(np, "sin", lambda x: calls.append(x.shape) or real(x))
    synth_movie("slot_pattern", 3, (288, 4, 8, 8))
    # one frame per slot of channels 0, 1 and 3's first period; channel 2 is
    # heading, and the whole day's frames would be 3 * 288
    assert len(calls) <= 7 + 5 + 4


def test_synth_rejects_unknown_kind():
    with pytest.raises(ValueError):
        synth_movie("noise", 0, (1, 1, 1, 1))
