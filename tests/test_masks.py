import contextlib
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast.masks import build_mask, load_mask, save_mask
from gridcast.movie_store import ingest, open_movie


@pytest.fixture
def store(tmp_path):
    """Store one movie of city "c"; the movies close at teardown."""
    with contextlib.ExitStack() as stack:

        def store(raw, name="m.tmm", day="2019-03-01"):
            return stack.enter_context(open_movie(ingest(raw, "c", day, tmp_path / name)))

        yield store


def test_zero_movie_threshold_zero_has_no_active_pixels(store):
    m = store(np.zeros((10, 3, 4, 4), dtype=np.uint8))
    mask = build_mask([m], threshold=0)
    assert not mask.active.any()
    assert mask.source_span == 10


def test_single_hot_pixel(store):
    raw = np.zeros((10, 3, 5, 6), dtype=np.uint8)
    raw[7, 1, 2, 3] = 255
    mask = build_mask([store(raw)], threshold=0)
    expected = np.zeros((5, 6), dtype=bool)
    expected[2, 3] = True
    assert np.array_equal(mask.active, expected)


def test_matches_brute_force_oracle(store):
    rng = np.random.default_rng(9)
    movies = []
    raws = []
    for i in range(3):
        raw = rng.integers(0, 256, size=(12, 3, 6, 6), dtype=np.uint8)
        raws.append(raw)
        movies.append(store(raw, name=f"{i}.tmm", day=f"2019-03-{i+1:02d}"))
    for threshold in (0, 50, 254, 255):
        mask = build_mask(movies, threshold)
        brute = np.stack(raws).max(axis=(0, 1, 2)) > threshold
        assert np.array_equal(mask.active, brute)


def test_reads_each_day_once_and_holds_one_day_at_a_time(store):
    days = [np.full((100, 3, 40, 40), i, np.uint8) for i in range(3)]  # 480,000 B each
    movies = [store(raw, name=f"{i}.tmm", day=f"2019-03-{i+1:02d}") for i, raw in enumerate(days)]
    del days
    calls = []
    for m in movies:
        read_frames = m.read_frames
        m.read_frames = lambda *a, read_frames=read_frames: calls.append(a) or read_frames(*a)
    tracemalloc.start()
    try:
        mask = build_mask(movies, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [(0, 100)] * 3
    assert mask.active.all() and mask.source_span == 300
    assert peak < 1.5 * 480_000, peak  # a day outliving its max would hold two


def test_threshold_monotonicity(store):
    rng = np.random.default_rng(10)
    m = store(rng.integers(0, 256, size=(8, 3, 5, 5), dtype=np.uint8))
    prev = build_mask([m], 0).active
    for threshold in (10, 60, 130, 255):
        cur = build_mask([m], threshold).active
        assert not np.any(cur & ~prev)  # raising threshold never adds pixels
        prev = cur


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_zero_threshold_truth_mask_never_hurts_on_dead_pixels(seed):
    """A threshold-0 mask built from the truth is inactive exactly where the
    truth is all zeros, so zeroing a prediction there removes its error."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 256, size=(3, 3, 5, 5), dtype=np.uint8)
    dead = rng.integers(0, 2, size=(5, 5)).astype(bool)
    truth[:, :, dead] = 0
    pred = rng.integers(0, 256, size=(3, 3, 5, 5), dtype=np.uint8)
    with tempfile.TemporaryDirectory() as tmp, open_movie(ingest(truth, "c", "2019-03-01", Path(tmp) / "t.tmm")) as m:
        mask = build_mask([m], threshold=0)
    assert np.array_equal(mask.active, ~dead)
    masked = np.where(mask.active, pred, 0)
    err = lambda p: ((p.astype(np.float64) - truth) ** 2)[:, :, dead].sum()
    assert err(masked) == 0 <= err(pred)


def test_mask_file_roundtrip(store, tmp_path):
    rng = np.random.default_rng(12)
    raw = rng.integers(0, 256, size=(6, 3, 5, 5), dtype=np.uint8)
    mask = build_mask([store(raw)], threshold=40)
    path = tmp_path / "mask.tmm"
    save_mask(mask, path)
    loaded = load_mask(path)
    assert np.array_equal(loaded.active, mask.active)
    assert loaded.threshold == 40
    assert loaded.source_span == 6
    with open_movie(path) as m:
        assert m.header.t == 1 and m.header.c == 1
        assert set(np.unique(m.read_all())) <= {0, 255}


@pytest.mark.parametrize(
    "city", ["mask-thr40-nX", "thr40-n6", "mask-thr40", "mask-thr-n6", "mask-thr40-n6-n7", "mask-thr+4-n6"]
)
def test_load_mask_rejects_malformed_metadata(tmp_path, city):
    path = ingest(np.zeros((1, 1, 3, 3), dtype=np.uint8), city, "MASK", tmp_path / "mask.tmm")
    with pytest.raises(ValueError, match="metadata"):
        load_mask(path)


def test_load_mask_rejects_values_other_than_0_and_255(tmp_path):
    grid = np.array([[[[0, 255, 1]]]], dtype=np.uint8)
    path = ingest(grid, "mask-thr0-n1", "MASK", tmp_path / "mask.tmm")
    with pytest.raises(ValueError, match="0 or 255"):
        load_mask(path)
