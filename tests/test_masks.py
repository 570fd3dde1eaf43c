import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast.masks import Mask, apply_mask, build_mask, load_mask, save_mask
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


def test_threshold_monotonicity(store):
    rng = np.random.default_rng(10)
    m = store(rng.integers(0, 256, size=(8, 3, 5, 5), dtype=np.uint8))
    prev = build_mask([m], 0).active
    for threshold in (10, 60, 130, 255):
        cur = build_mask([m], threshold).active
        assert not np.any(cur & ~prev)  # raising threshold never adds pixels
        prev = cur


def test_apply_mask_identity_and_zero():
    frames = np.full((3, 3, 4, 4), 9, dtype=np.uint8)
    all_active = Mask(np.ones((4, 4), dtype=bool), 0, 1)
    none_active = Mask(np.zeros((4, 4), dtype=bool), 0, 1)
    assert np.array_equal(apply_mask(frames, all_active), frames)
    assert not apply_mask(frames, none_active).any()


def test_apply_mask_checkerboard():
    frames = np.full((2, 1, 4, 4), 7, dtype=np.uint8)
    board = np.indices((4, 4)).sum(axis=0) % 2 == 0
    out = apply_mask(frames, Mask(board, 0, 1))
    assert np.array_equal(out[0, 0], np.where(board, 7, 0))


def test_apply_mask_idempotent(tmp_path):
    rng = np.random.default_rng(11)
    frames = rng.integers(0, 256, size=(3, 3, 6, 6), dtype=np.uint8)
    mask = Mask(rng.integers(0, 2, size=(6, 6)).astype(bool), 0, 1)
    once = apply_mask(frames, mask)
    assert np.array_equal(apply_mask(once, mask), once)


def test_apply_mask_shape_mismatch():
    with pytest.raises(ValueError):
        apply_mask(np.zeros((3, 3, 4, 4)), Mask(np.ones((5, 5), dtype=bool), 0, 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_zero_threshold_truth_mask_never_hurts_on_dead_pixels(seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 256, size=(3, 3, 5, 5), dtype=np.uint8)
    dead = rng.integers(0, 2, size=(5, 5)).astype(bool)
    truth[:, :, dead] = 0
    pred = rng.integers(0, 256, size=(3, 3, 5, 5), dtype=np.uint8)
    mask = Mask(truth.max(axis=(0, 1)) > 0, 0, truth.shape[0])
    masked = apply_mask(pred, mask)
    err = lambda p: ((p.astype(np.float64) - truth) ** 2)[:, :, dead].sum()
    assert err(masked) <= err(pred)


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
