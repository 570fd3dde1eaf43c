import contextlib

import numpy as np
import pytest

from gridcast.baselines import (
    SlotAverageModel,
    load_model,
    persistence,
    predict_slot_average,
    save_model,
    time_slot_average,
    zero_baseline,
)
from gridcast.dataset import ClipSpec, index_movies, load_clip, synth_movie
from gridcast.movie_store import ingest, open_movie
from gridcast.tensor_nn import round_half_up_uint8


@pytest.fixture
def store_days(tmp_path):
    """Store arrays as consecutive days of city "c"; the movies close at teardown."""
    with contextlib.ExitStack() as stack:

        def store(arrays):
            movies = []
            for i, raw in enumerate(arrays):
                day = f"2019-02-{i + 1:02d}"
                path = ingest(raw, "c", day, tmp_path / f"{day}.tmm")
                movies.append(stack.enter_context(open_movie(path)))
            return movies

        yield store


def test_mean_of_constant_days(store_days):
    days = [np.full((20, 3, 2, 2), v, dtype=np.uint8) for v in (10, 20, 30)]
    model = time_slot_average(store_days(days), slots=[5])
    assert np.all(model.mean(5) == 20.0)


def test_all_zero_training_data(store_days):
    days = [np.zeros((20, 1, 2, 2), dtype=np.uint8)] * 2
    model = time_slot_average(store_days(days), slots=[12, 13, 14])
    pred = predict_slot_average(model, ClipSpec("c", "2019-02-01", 0))
    assert pred.shape == (3, 1, 2, 2)
    assert not pred.any()


def test_matches_brute_force_oracle(store_days):
    rng = np.random.default_rng(7)
    days = [rng.integers(0, 256, size=(40, 3, 5, 4), dtype=np.uint8) for _ in range(5)]
    slots = [0, 3, 4, 5, 17, 39]
    model = time_slot_average(store_days(days), slots)
    stacked = np.stack(days).astype(np.float64)
    for s in slots:
        brute = stacked[:, s].mean(axis=0)
        assert np.max(np.abs(model.mean(s) - brute)) <= 1e-9


def test_day_permutation_invariance(store_days):
    rng = np.random.default_rng(8)
    days = [rng.integers(0, 256, size=(20, 2, 3, 3), dtype=np.uint8) for _ in range(4)]
    movies = store_days(days)
    a = time_slot_average(movies, [2, 9])
    b = time_slot_average(list(reversed(movies)), [2, 9])
    assert a.counts == b.counts
    for s in (2, 9):
        assert np.array_equal(a.sums[s], b.sums[s])


def test_errors(store_days):
    days = [np.zeros((20, 1, 2, 2), dtype=np.uint8)]
    movies = store_days(days)
    with pytest.raises(ValueError):
        time_slot_average([], [1])
    with pytest.raises(ValueError):
        time_slot_average(movies, [])
    with pytest.raises(ValueError, match="zero observations"):
        time_slot_average(movies, [25])  # beyond the 20-frame day
    model = time_slot_average(movies, [3, 4, 5])
    with pytest.raises(KeyError):
        predict_slot_average(model, ClipSpec("c", "2019-02-01", 0))  # needs 12..14


def test_prediction_rounding_rules():
    assert round_half_up_uint8(np.array([19.5])) == 20
    assert round_half_up_uint8(np.array([20.0])) == 20
    assert round_half_up_uint8(np.array([300.0])) == 255  # injected clamp path
    # a model whose sums force a .5 mean rounds up
    model = SlotAverageModel(
        sums={12: np.full((1, 1, 1), 39, dtype=np.int64),
              13: np.full((1, 1, 1), 39, dtype=np.int64),
              14: np.full((1, 1, 1), 39, dtype=np.int64)},
        counts={12: 2, 13: 2, 14: 2},
    )
    pred = predict_slot_average(model, ClipSpec("c", "2019-02-01", 0))
    assert np.all(pred == 20)


def test_persistence_on_ramp(store_days):
    raw = synth_movie("time_ramp", 0, (30, 3, 4, 4))
    movies = store_days([raw])
    clip = load_clip(ClipSpec("c", "2019-02-01", 5), index_movies(movies))
    pred = persistence(clip)
    assert pred.shape == (3, 3, 4, 4)
    assert np.all(pred == 16)  # last input frame
    err = pred.astype(int) - clip.target.astype(int)
    assert [np.unique(err[j])[0] for j in range(3)] == [-1, -2, -3]


def test_persistence_constant_movie_is_exact(store_days):
    raw = synth_movie("constant", 0, (20, 1, 2, 2), value=42)
    movies = store_days([raw])
    clip = load_clip(ClipSpec("c", "2019-02-01", 0), index_movies(movies))
    assert np.array_equal(persistence(clip), clip.target)


def test_zero_baseline(store_days):
    raw = synth_movie("constant", 0, (20, 1, 2, 2), value=255)
    movies = store_days([raw])
    clip = load_clip(ClipSpec("c", "2019-02-01", 0), index_movies(movies))
    pred = zero_baseline(clip)
    assert not pred.any()
    assert pred.shape == clip.target.shape
    sq = (pred.astype(np.float64) - clip.target) ** 2
    assert sq.mean() == 65025.0


def test_slot_average_beats_other_baselines_on_slot_pattern(store_days):
    raw = synth_movie("slot_pattern", 4, (60, 3, 8, 8))
    movies = store_days([raw, raw, raw])
    by_key = index_movies(movies)
    spec = ClipSpec("c", "2019-02-03", 20)
    clip = load_clip(spec, by_key)
    model = time_slot_average(movies[:2], [32, 33, 34])

    def mse(pred):
        return float(((pred.astype(np.float64) - clip.target) ** 2).mean())

    avg_mse = mse(predict_slot_average(model, spec))
    assert avg_mse == 0.0  # identical days: slot mean is exact
    assert avg_mse < mse(persistence(clip))
    assert avg_mse < mse(zero_baseline(clip))


def test_outputs_within_uint8_range(store_days):
    rng = np.random.default_rng(3)
    days = [rng.integers(0, 256, size=(20, 3, 3, 3), dtype=np.uint8) for _ in range(2)]
    movies = store_days(days)
    model = time_slot_average(movies, list(range(20)))
    clip = load_clip(ClipSpec("c", "2019-02-01", 2), index_movies(movies))
    for pred in (
        predict_slot_average(model, clip.spec),
        persistence(clip),
        zero_baseline(clip),
    ):
        assert pred.dtype == np.uint8


def test_model_save_load_roundtrip(store_days, tmp_path):
    rng = np.random.default_rng(5)
    days = [rng.integers(0, 256, size=(20, 3, 4, 4), dtype=np.uint8) for _ in range(3)]
    movies = store_days(days)
    model = time_slot_average(movies, [12, 13, 14, 17])
    path = tmp_path / "avg.tmm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.slots == [12, 13, 14, 17]
    spec = ClipSpec("c", "2019-02-01", 0)
    assert np.array_equal(
        predict_slot_average(loaded, spec), predict_slot_average(model, spec)
    )
