import contextlib
import tracemalloc

import numpy as np
import pytest

from gridcast.baselines import (
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
    assert model.frames[5].dtype == np.uint8
    assert np.all(model.frames[5] == 20)


def test_slot_averages_the_days_that_reach_it(store_days):
    days = [np.full((20, 1, 2, 2), 10, np.uint8), np.full((30, 1, 2, 2), 40, np.uint8)]
    model = time_slot_average(store_days(days), slots=[19, 25])
    assert np.all(model.frames[19] == 25) and np.all(model.frames[25] == 40)


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
        brute = np.floor(stacked[:, s].mean(axis=0) + 0.5)  # half-up
        assert np.array_equal(model.frames[s], brute)


@pytest.mark.parametrize("n", range(1, 8))
def test_integer_rounding_matches_float_half_up_for_every_residue(store_days, n):
    # one pixel per possible sum 0..255*n, so every residue mod n and each
    # .5 tie occurs; day i holds sum // n, plus 1 where i < sum % n
    sums = np.arange(255 * n + 1)
    days = [(sums // n + (i < sums % n)).astype(np.uint8).reshape(1, 1, 1, -1) for i in range(n)]
    assert np.array_equal(np.sum(days, axis=0, dtype=np.int64)[0, 0, 0], sums)
    model = time_slot_average(store_days(days), [0])
    expected = np.floor(sums.astype(np.float64) / n + 0.5)
    assert np.array_equal(model.frames[0][0, 0], expected)


def test_integer_rounding_of_slots_that_only_some_days_reach(store_days):
    rng = np.random.default_rng(11)
    days = [rng.integers(0, 256, size=(t, 2, 6, 5), dtype=np.uint8) for t in (3, 7, 5, 7, 4)]
    model = time_slot_average(store_days(days), range(7))
    for s in range(7):
        reached = [d[s] for d in days if s < len(d)]
        total = np.sum(reached, axis=0, dtype=np.int64).astype(np.float64)
        assert np.array_equal(model.frames[s], np.floor(total / len(reached) + 0.5)), s


def test_day_permutation_invariance(store_days):
    rng = np.random.default_rng(8)
    days = [rng.integers(0, 256, size=(20, 2, 3, 3), dtype=np.uint8) for _ in range(4)]
    movies = store_days(days)
    a = time_slot_average(movies, [2, 9])
    b = time_slot_average(list(reversed(movies)), [2, 9])
    assert a.slots == b.slots == [2, 9]
    for s in (2, 9):
        assert np.array_equal(a.frames[s], b.frames[s])


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


def test_rejects_days_on_different_grids(store_days):
    # sums of a (3, 1, 4) and a (3, 4, 4) frame would broadcast to a wrong mean
    movies = store_days([np.full((20, 3, 4, 4), 10, np.uint8), np.full((20, 3, 1, 4), 30, np.uint8)])
    with pytest.raises(ValueError, match=r"grid \(c, h, w\) \(3, 1, 4\) differs from the first day's \(3, 4, 4\)"):
        time_slot_average(movies, [5])
    assert [m.payload_bytes_read for m in movies] == [0, 0]  # every grid is checked first


def test_prediction_rounding_rules(store_days):
    assert round_half_up_uint8(np.array([19.5])) == 20
    assert round_half_up_uint8(np.array([20.0])) == 20
    assert round_half_up_uint8(np.array([300.0])) == 255  # injected clamp path
    # days of 19 and 20 make a .5 mean, which the model rounds up
    days = [np.full((20, 1, 1, 1), v, np.uint8) for v in (19, 20)]
    model = time_slot_average(store_days(days), [12, 13, 14])
    pred = predict_slot_average(model, ClipSpec("c", "2019-02-01", 0))
    assert np.all(pred == 20)


def test_rejects_a_slot_no_day_reaches_before_reading_a_frame(store_days):
    movies = store_days([np.zeros((20, 1, 2, 2), np.uint8), np.zeros((22, 1, 2, 2), np.uint8)])
    with pytest.raises(ValueError, match=r"zero observations: \[25\]"):
        time_slot_average(movies, [3, 25])  # 25 is beyond both days
    assert [m.payload_bytes_read for m in movies] == [0, 0]


def test_slot_average_peak_memory_below_one_int64_frame_per_slot(store_days):
    # an int64 sum per slot would be n_slots*c*h*w*8 bytes; the model itself
    # is one uint8 frame per slot, summed through one reused uint32 frame
    rng = np.random.default_rng(9)
    movies = store_days([rng.integers(0, 256, (48, 3, 64, 64), np.uint8) for _ in range(2)])
    tracemalloc.start()
    try:
        model = time_slot_average(movies, range(48))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.slots) == 48
    assert peak < 48 * 3 * 64 * 64 * 8, f"peaked at {peak} B"


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
    assert loaded.slots == model.slots == [12, 13, 14, 17]
    for s in model.slots:
        assert model.frames[s].dtype == loaded.frames[s].dtype == np.uint8
        assert np.array_equal(loaded.frames[s], model.frames[s])
    spec = ClipSpec("c", "2019-02-01", 0)
    assert np.array_equal(
        predict_slot_average(loaded, spec), predict_slot_average(model, spec)
    )
    with open_movie(path) as m:
        assert m.header.city == "slot-average-s12,13,14,17"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("avg")) == ["avg.tmm"]


@pytest.mark.parametrize(
    "city, date",
    [
        ("slot-average", "MODEL"),  # the old two-file format
        ("slot-average-s", "MODEL"),
        ("slot-average-s3,2,1", "MODEL"),
        ("slot-average-s1,1,2", "MODEL"),
        ("slot-average-s1,2", "MODEL"),
        ("slot-average-s1,x,3", "MODEL"),
        ("slot-average-s1,2,3", "2019-02-01"),
    ],
    ids=["old_city", "no_slots", "decreasing", "duplicate", "count", "non_digit", "date"],
)
def test_load_model_rejects_malformed_metadata(tmp_path, city, date):
    path = ingest(np.zeros((3, 1, 2, 2), dtype=np.uint8), city, date, tmp_path / "m.tmm")
    with pytest.raises(ValueError, match="not a model of 3 increasing slots"):
        load_model(path)
