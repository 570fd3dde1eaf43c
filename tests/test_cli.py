import contextlib
import dataclasses
import gc
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from gridcast import cli, dataset, masks, movie_store, tensor_nn as tn, trainer
from gridcast.cli import main
from gridcast.dataset import synth_movie
from gridcast.movie_store import open_movie
from test_tensor_nn import cache_bytes


def run(*argv):
    return main([str(a) for a in argv])


def test_ingest_inspect_roundtrip(tmp_path, capsys):
    raw = synth_movie("random", 0, (6, 3, 5, 5))
    npy = tmp_path / "raw.npy"
    np.save(npy, raw)
    movie = tmp_path / "m.tmm"
    assert run("ingest", "--input", npy, "--city", "Berlin", "--date", "2019-01-02", "--out", movie) == 0
    assert "city=Berlin" in capsys.readouterr().out

    dump = tmp_path / "dump.npy"
    assert run("inspect", movie, "--dump", dump) == 0
    assert np.array_equal(np.load(dump), raw)


def test_inspect_dump_takes_its_path_as_given_and_a_failed_dump_keeps_the_earlier_one(
    tmp_path, capsys, monkeypatch
):
    raw = synth_movie("random", 1, (4, 2, 3, 3))
    npy = tmp_path / "raw.npy"
    np.save(npy, raw)
    movie = tmp_path / "m.tmm"
    assert run("ingest", "--input", npy, "--city", "c", "--date", "d", "--out", movie) == 0
    dump = tmp_path / "frames"
    assert run("inspect", movie, "--dump", dump) == 0
    assert np.array_equal(np.load(dump), raw) and not (tmp_path / "frames.npy").exists()
    before = dump.read_bytes()

    def failing_save(f, arr):
        f.write(b"\x93NUMPY")
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", failing_save)
    assert run("inspect", movie, "--dump", dump) == 2
    assert "disk full" in capsys.readouterr().err
    assert dump.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frames", "m.tmm", "raw.npy"]


def test_ingest_rejects_wrong_shape(tmp_path, capsys):
    npy = tmp_path / "raw.npy"
    np.save(npy, np.zeros((3, 5, 5), dtype=np.uint8))
    code = run("ingest", "--input", npy, "--city", "x", "--date", "d", "--out", tmp_path / "m.tmm")
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["empty", "zip", "padded", "npz", "truncated", "pickled"])
def test_ingest_rejects_a_file_that_is_not_one_npy_array(tmp_path, capsys, case):
    npy, out = tmp_path / "raw.npy", tmp_path / "m.tmm"
    raw = np.zeros((2, 1, 3, 3), np.uint8)
    if case == "empty":
        npy.write_bytes(b"")
    elif case == "zip":
        npy.write_bytes(b"PK\x03\x04" + bytes(26))
    elif case == "padded":
        np.save(npy, raw)
        with open(npy, "ab") as f:
            f.write(b"junk")
    elif case == "npz":
        with open(npy, "wb") as f:  # a file object: np.savez would append .npz to a path
            np.savez(f, raw)
    elif case == "truncated":
        np.save(npy, raw)
        npy.write_bytes(npy.read_bytes()[:-4])
    else:
        np.save(npy, np.array([raw], dtype=object), allow_pickle=True)
    assert run("ingest", "--input", npy, "--city", "x", "--date", "d", "--out", out) == 2
    err = capsys.readouterr().err
    named = {"empty": "EOF", "zip": "magic string", "padded": "bytes follow the .npy array", "npz": "magic string",
             "truncated": "could only read 14 elements", "pickled": "allow_pickle=False"}
    assert err.startswith("error: ") and err.count("\n") == 1 and named[case] in err
    assert not out.exists()


def test_inspect_missing_file(tmp_path):
    assert run("inspect", tmp_path / "nope.tmm") == 2


def test_synth_writes_days(tmp_path):
    out = tmp_path / "days"
    assert run(
        "synth", "--kind", "slot_pattern", "--seed", 4, "--shape", "32,3,6,6",
        "--days", 3, "--city", "q", "--start-date", "2019-05-01", "--out", out,
    ) == 0
    paths = sorted(out.glob("*.tmm"))
    assert [p.name for p in paths] == [
        "q_2019-05-01.tmm", "q_2019-05-02.tmm", "q_2019-05-03.tmm",
    ]
    with open_movie(paths[0]) as a, open_movie(paths[1]) as b:
        assert np.array_equal(a.read_all(), b.read_all())  # same seed per day


@pytest.mark.parametrize("kind", ["constant", "time_ramp", "slot_pattern", "random"])
def test_synth_generates_one_movie_for_all_its_days(tmp_path, monkeypatch, kind):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return synth_movie(*args, **kwargs)

    monkeypatch.setattr(dataset, "synth_movie", counting)
    out = tmp_path / "days"
    assert run("synth", "--kind", kind, "--seed", 9, "--shape", "20,3,5,7", "--days", 3, "--out", out) == 0
    assert calls == [(kind, 9, (20, 3, 5, 7))]
    expected = synth_movie(kind, 9, (20, 3, 5, 7))
    paths = sorted(out.glob("*.tmm"))
    assert len(paths) == 3
    for p in paths:
        with open_movie(p) as m:
            assert np.array_equal(m.read_all(), expected)


def test_mask_threshold_zero_on_zero_movie(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    assert run("synth", "--kind", "constant", "--shape", "16,3,4,4", "--out", data) == 0
    mask_file = tmp_path / "mask.tmm"
    assert run("mask", "--data", data, "--threshold", 0, "--out", mask_file) == 0
    with open_movie(mask_file) as m:
        assert not m.read_all().any()


@pytest.mark.parametrize("bad", ["no_parent", "parent_is_a_file", "out_is_a_directory"])
def test_mask_rejects_an_unwritable_out_before_it_reads_a_frame(tmp_path, capsys, monkeypatch, bad):
    data = tmp_path / "data"
    assert run("synth", "--kind", "constant", "--shape", "16,3,4,4", "--out", data) == 0
    monkeypatch.setattr(masks, "build_mask", lambda *a: pytest.fail("a frame was read"))
    parent = {"no_parent": tmp_path / "nodir", "parent_is_a_file": tmp_path / "file"}.get(bad, tmp_path)
    out = parent / "mask.tmm"
    if bad == "parent_is_a_file":
        parent.write_bytes(b"")
    elif bad == "out_is_a_directory":
        out.mkdir()
    assert run("mask", "--data", data, "--threshold", 0, "--out", out) == 2
    assert f"error: --out {out}: " in capsys.readouterr().err


@pytest.fixture
def pipeline_dirs(tmp_path):
    data = tmp_path / "data"
    run(
        "synth", "--kind", "slot_pattern", "--seed", 6, "--shape", "48,3,8,8",
        "--days", 3, "--city", "q", "--start-date", "2019-05-01", "--out", data,
    )
    slots = tmp_path / "slots.txt"
    slots.write_text("20\n28\n")
    return data, slots


def test_baseline_zero_outputs_all_zero(pipeline_dirs, tmp_path):
    data, slots = pipeline_dirs
    out = tmp_path / "zero"
    assert run("baseline", "--kind", "zero", "--data", data, "--slots", slots, "--out", out) == 0
    files = list(out.glob("*.tmm"))
    assert len(files) == 6  # 2 slots x 3 days
    for f in files:
        with open_movie(f) as m:
            assert m.header.shape == (3, 3, 8, 8)
            assert not m.read_all().any()


@pytest.mark.parametrize(
    "command",
    [("predict",), ("targets",), ("baseline", "--kind", "persistence"),
     ("baseline", "--kind", "zero"), ("baseline", "--kind", "slot_avg")],
    ids=["predict", "targets", "persistence", "zero", "slot_avg"],
)
def test_a_selection_of_no_clip_exits_2_and_creates_no_out_dir(pipeline_dirs, tmp_path, capsys, monkeypatch, command):
    data, _ = pipeline_dirs  # 48-frame days: first predicted slots 12..45
    slots = tmp_path / "far.txt"
    slots.write_text("3\n46\n")  # in every day, first predicted by no clip
    cfg = tn.UNetConfig(depth=1, in_channels=36, out_channels=9, base_channels=2)
    ckpt = tn.save_params(tn.init_params(cfg, 0), tmp_path / "a.unp")
    ckpt_args = ("--ckpt", ckpt) if command[0] == "predict" else ()
    monkeypatch.setattr(cli, "_check_channels", lambda *_: pytest.fail("make_frames ran"))
    monkeypatch.setattr(cli.baselines, "time_slot_average", lambda *_: pytest.fail("make_frames ran"))
    out = tmp_path / "out"
    assert run(*command, *ckpt_args, "--data", data, "--slots", slots, "--out", out) == 2
    assert "no clip of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [("predict",), ("targets",), ("baseline", "--kind", "persistence"),
     ("baseline", "--kind", "zero"), ("baseline", "--kind", "slot_avg")],
    ids=["predict", "targets", "persistence", "zero", "slot_avg"],
)
@pytest.mark.parametrize(
    "lines, message",
    [("20\nabc\n", "far.txt:2: 'abc' is not a slot"), ("20\n\n-5\n", "far.txt:3: '-5' is not a slot"),
     ("900\n20\n48\n", "far.txt: slots [48, 900] are in no day: the longest has 48 frames")],
    ids=["malformed", "negative", "past_every_day"],
)
def test_a_slots_file_of_no_slots_exits_2_before_a_clip_is_read(
    pipeline_dirs, tmp_path, capsys, monkeypatch, command, lines, message
):
    data, _ = pipeline_dirs  # 48-frame days
    slots = tmp_path / "far.txt"
    slots.write_text(lines)
    cfg = tn.UNetConfig(depth=1, in_channels=36, out_channels=9, base_channels=2)
    ckpt = tn.save_params(tn.init_params(cfg, 0), tmp_path / "a.unp")
    ckpt_args = ("--ckpt", ckpt) if command[0] == "predict" else ()
    monkeypatch.setattr(dataset, "load_clip", lambda *a: pytest.fail("a clip was read"))
    monkeypatch.setattr(cli, "_check_channels", lambda *_: pytest.fail("make_frames ran"))
    monkeypatch.setattr(cli.baselines, "time_slot_average", lambda *_: pytest.fail("make_frames ran"))
    out = tmp_path / "out"
    assert run(*command, *ckpt_args, "--data", data, "--slots", slots, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.part").exists()


def test_slot_avg_baseline_matches_library(pipeline_dirs, tmp_path):
    from gridcast import baselines
    from gridcast.dataset import ClipSpec

    data, slots = pipeline_dirs
    out = tmp_path / "avg"
    assert run("baseline", "--kind", "slot_avg", "--data", data, "--slots", slots, "--out", out) == 0
    with contextlib.ExitStack() as stack:
        movies = [stack.enter_context(open_movie(p)) for p in sorted(data.glob("*.tmm"))]
        model = baselines.time_slot_average(movies, [20, 21, 22, 28, 29, 30])
    expected = baselines.predict_slot_average(model, ClipSpec("q", "2019-05-01", 8))
    with open_movie(out / "q__2019-05-01__t0008.tmm") as m:
        assert np.array_equal(m.read_all(), expected)


@pytest.mark.parametrize("train_shape", ["48,3,4,4", "48,1,8,8"], ids=["grid", "channels"])
def test_slot_avg_baseline_rejects_model_on_other_grid(pipeline_dirs, tmp_path, capsys, monkeypatch, train_shape):
    from gridcast import baselines

    data, slots = pipeline_dirs
    train = tmp_path / "train"
    run("synth", "--kind", "constant", "--shape", train_shape, "--days", 2, "--out", train)
    monkeypatch.setattr(baselines, "time_slot_average", lambda *a: pytest.fail("a training frame was read"))
    out = tmp_path / "avg"
    assert run("baseline", "--kind", "slot_avg", "--train", train, "--data", data, "--slots", slots, "--out", out) == 2
    assert "q_2019-05-01.tmm: grid (c, h, w) (3, 8, 8) differs from the slot-average" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("second_city_in", ["data", "train"])
def test_slot_avg_baseline_rejects_two_cities(tmp_path, capsys, monkeypatch, second_city_in):
    # one slot average over cities of values 10 and 200 would predict 105 for both
    dirs = {"data": tmp_path / "data", "train": tmp_path / "train"}
    run("synth", "--kind", "constant", "--value", 10, "--shape", "48,3,4,4", "--city", "a", "--out", dirs["data"])
    run("synth", "--kind", "constant", "--value", 200, "--shape", "48,3,4,4", "--city", "b",
        "--out", dirs[second_city_in])
    train_args = ("--train", dirs["train"]) if second_city_in == "train" else ()
    monkeypatch.setattr(cli.movie_store.MovieReader, "read_frames", lambda *a: pytest.fail("a frame was read"))
    out = tmp_path / "avg"
    assert run("baseline", "--kind", "slot_avg", *train_args, "--data", dirs["data"], "--out", out) == 2
    assert "the slot average is strictly per city; --train and --data hold ['a', 'b']" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_identical_dirs_reports_zero(pipeline_dirs, tmp_path, capsys):
    data, slots = pipeline_dirs
    pred, truth = tmp_path / "pred", tmp_path / "truth"
    for out in (pred, truth):
        assert run("targets", "--data", data, "--slots", slots, "--out", out) == 0
    report = tmp_path / "report.json"
    assert run("evaluate", "--pred", pred, "--truth", truth, "--report", report) == 0
    doc = json.loads(report.read_text())
    assert doc["overall"] == 0.0
    assert doc["per_frame"] == [0.0, 0.0, 0.0]
    assert doc["per_city"] == {"q": 0.0}
    assert doc["clips"] == 6
    assert set(doc) == {"overall", "per_frame", "per_channel", "per_city", "clips"}


@pytest.mark.parametrize("alias", ["as_given", "through_its_parent", "symlink"])
def test_evaluate_rejects_a_directory_scored_against_itself(pipeline_dirs, tmp_path, capsys, monkeypatch, alias):
    data, slots = pipeline_dirs
    truth = tmp_path / "truth"
    assert run("targets", "--data", data, "--slots", slots, "--out", truth) == 0
    pred = {"as_given": truth, "through_its_parent": tmp_path / "." / "truth" / ".." / "truth",
            "symlink": tmp_path / "link"}[alias]
    if alias == "symlink":
        pred.symlink_to(truth)
    monkeypatch.setattr(trainer, "evaluate", lambda *a: pytest.fail("a clip was scored"))
    report = tmp_path / "r.json"
    assert run("evaluate", "--pred", pred, "--truth", truth, "--report", report) == 2
    assert f"--pred {pred} and --truth {truth} are the same directory" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_single_pixel_error_report(tmp_path):
    from gridcast.movie_store import ingest

    truth_dir = tmp_path / "truth"
    pred_dir = tmp_path / "pred"
    truth_dir.mkdir()
    pred_dir.mkdir()
    truth = np.zeros((3, 3, 2, 2), dtype=np.uint8)
    pred = truth.copy()
    pred[0, 0, 0, 0] = 255
    ingest(truth, "q", "2019-05-01", truth_dir / "a.tmm")
    ingest(pred, "q", "2019-05-01", pred_dir / "a.tmm")
    report = tmp_path / "r.json"
    assert run("evaluate", "--pred", pred_dir, "--truth", truth_dir, "--report", report) == 0
    assert json.loads(report.read_text())["overall"] == pytest.approx(65025 / 36)


def test_evaluate_missing_truth_errors(pipeline_dirs, tmp_path):
    data, slots = pipeline_dirs
    out = tmp_path / "truth"
    run("targets", "--data", data, "--slots", slots, "--out", out)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("evaluate", "--pred", out, "--truth", empty, "--report", tmp_path / "r.json") == 2


def train_config(tmp_path, epochs=2, seed=3):
    cfg = {
        "unet": {"depth": 2, "base_channels": 4, "normalize": True},
        "sgd": {"lr_initial": 0.05, "lr_after_drop": 0.01, "drop_epoch": 1,
                "epochs": epochs, "seed": seed},
        "data": {"stride": 8, "val_dates": ["2019-05-03"],
                 "train_dates": ["2019-05-01", "2019-05-02"]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_predict_evaluate_pipeline(pipeline_dirs, tmp_path):
    data, slots = pipeline_dirs
    cfg = train_config(tmp_path)
    ckpt = tmp_path / "net.unp"
    assert run("train", "--config", cfg, "--data", data, "--out", ckpt) == 0
    assert ckpt.exists()
    log = (tmp_path / "net.unp.csv").read_text().splitlines()
    assert log[0] == "epoch,lr,train_mse,val_mse,val_test_slots_mse"
    assert len(log) == 3

    pred = tmp_path / "pred"
    assert run("predict", "--ckpt", ckpt, "--data", data, "--slots", slots, "--out", pred) == 0
    truth = tmp_path / "truth"
    assert run("targets", "--data", data, "--slots", slots, "--out", truth) == 0
    report = tmp_path / "report.json"
    assert run("evaluate", "--pred", pred, "--truth", truth, "--report", report) == 0
    doc = json.loads(report.read_text())
    assert doc["overall"] > 0.0
    assert len(doc["per_channel"]) == 3


def test_train_replay_identical_checkpoints(pipeline_dirs, tmp_path):
    data, _ = pipeline_dirs
    cfg = train_config(tmp_path)
    a, b = tmp_path / "a.unp", tmp_path / "b.unp"
    assert run("train", "--config", cfg, "--data", data, "--out", a) == 0
    assert run("train", "--config", cfg, "--data", data, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.unp.csv").read_text() == (tmp_path / "b.unp.csv").read_text()


def test_inspect_prints_a_checkpoints_config_and_each_tensors_shape_and_norm(pipeline_dirs, tmp_path, capsys):
    data, _ = pipeline_dirs
    ckpt = tmp_path / "net.unp"
    assert run("train", "--config", train_config(tmp_path, epochs=1), "--data", data, "--out", ckpt) == 0
    capsys.readouterr()
    assert run("inspect", ckpt) == 0
    head, *lines = capsys.readouterr().out.splitlines()
    params = tn.load_params(ckpt)
    assert params.config == tn.UNetConfig(depth=2, in_channels=36, out_channels=9, base_channels=4, normalize=True)
    assert head == f"{ckpt}: UNP2 checkpoint {params.config}"
    assert len(lines) == len(params.tensors)
    for line, (name, w) in zip(lines, params.tensors.items()):
        shown, shape, norm = line.split()
        assert shown == name and shape == "shape=" + "x".join(map(str, w.shape))
        assert float(norm.removeprefix("l2=")) == pytest.approx(np.sqrt((w.astype(np.float64) ** 2).sum()), rel=1e-5)
    assert run("inspect", ckpt, "--dump", tmp_path / "w.npy") == 2
    assert "is a UNP2 checkpoint" in capsys.readouterr().err and not (tmp_path / "w.npy").exists()


def test_inspect_prints_a_masks_threshold_span_and_active_pixels(tmp_path, capsys):
    active = np.zeros((4, 5), bool)
    active[1, 2] = active[3, 0] = active[3, 4] = True
    path = masks.save_mask(masks.Mask(active, 40, 96), tmp_path / "mask.tmm")
    assert run("inspect", path) == 0
    assert capsys.readouterr().out.splitlines()[1] == "mask: threshold=40 source_span=96 active=3 of 20 pixels"


@pytest.mark.parametrize(
    "frames, city, date, named",
    [
        (np.zeros((1, 1, 2, 2), np.uint8), "mask-thr40-nX", "MASK", "mask metadata"),
        (np.full((1, 1, 2, 2), 7, np.uint8), "mask-thr40-n9", "MASK", "values must be 0 or 255"),
        (np.zeros((2, 1, 2, 2), np.uint8), "mask-thr40-n9", "MASK", "not a mask file"),
    ],
)
def test_inspect_rejects_a_malformed_mask(tmp_path, capsys, frames, city, date, named):
    path = movie_store.ingest(frames, city, date, tmp_path / "bad.tmm")
    assert run("inspect", path) == 2
    assert named in capsys.readouterr().err


def test_inspect_rejects_a_file_that_is_neither_movie_nor_checkpoint(tmp_path, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"UNP1" + bytes(40))
    assert run("inspect", junk) == 2
    assert "bad magic b'UNP1'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda cfg: {**cfg, "unet": {**cfg["unet"], "base_channel": 4}}, "'base_channel'"),
        (lambda cfg: {**cfg, "data": {**cfg["data"], "val_strid": 4}}, "'val_strid'"),
        (lambda cfg: {**cfg, "optim": {}}, "'optim'"),
        (lambda cfg: [1, 2], "got list"),
        # channel counts come from the movies, and clips are never cropped
        (lambda cfg: {**cfg, "unet": {**cfg["unet"], "out_channels": 3}}, "'out_channels'"),
        (lambda cfg: {**cfg, "unet": {**cfg["unet"], "in_channels": 36}}, "'in_channels'"),
        (lambda cfg: {**cfg, "data": {**cfg["data"], "region": [0, 0, 4, 4]}}, "'region'"),
        # the optimizer is always Nesterov
        (lambda cfg: {**cfg, "sgd": {**cfg["sgd"], "nesterov": True}}, "'nesterov'"),
    ],
    ids=["unet_key", "data_key", "section", "not_object", "channels", "in_channels", "region", "nesterov"],
)
def test_train_rejects_unknown_config_keys(pipeline_dirs, tmp_path, capsys, edit, named):
    data, _ = pipeline_dirs
    path = train_config(tmp_path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", data, "--out", ckpt) == 2
    assert named in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("sgd", "epochs", "3"),
        ("unet", "depth", "2"),
        ("data", "stride", "2"),
        ("sgd", "batch_size", 2.5),
        ("sgd", "momentum", None),
        ("data", "val_stride", 0),
        ("sgd", "seed", True),
        ("sgd", "lr_initial", float("nan")),
        ("unet", "normalize", 1),
        ("data", "city", 3),
        ("data", "train_dates", ["2019-05-01", 2]),
    ],
)
def test_train_rejects_config_values_of_the_wrong_kind(
    pipeline_dirs, tmp_path, capsys, monkeypatch, section, key, value
):
    from gridcast import movie_store

    data, _ = pipeline_dirs
    path = train_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg[section][key] = value
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(movie_store, "open_movie", lambda *a: pytest.fail("a movie was opened"))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", data, "--out", ckpt) == 2
    assert f"config section {section!r}: {key!r} must be" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("stride", [0, -3])
def test_train_rejects_a_stride_below_one_before_it_opens_data(tmp_path, capsys, stride):
    path = train_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["data"]["stride"] = stride
    path.write_text(json.dumps(cfg))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", tmp_path / "missing", "--out", ckpt) == 2
    err = capsys.readouterr().err
    assert f"config data.stride must be >= 1, got {stride}" in err and "no matching" not in err
    assert not ckpt.exists()


def test_a_config_of_every_key_at_its_default_parses_to_the_default_configs(tmp_path):
    cfg = {
        "unet": {"depth": 5, "base_channels": 64, "normalize": False},
        "sgd": {"lr_initial": 0.02, "lr_after_drop": 0.001, "drop_epoch": 5, "momentum": 0.9,
                "batch_size": 5, "epochs": 12, "seed": 0},
        "data": {"city": None, "stride": 1, "val_stride": None, "train_dates": None, "val_dates": None,
                 "test_slots_file": None, "train_on_test_slots_only": False},
    }
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(cfg))
    defaults = (tn.UNetConfig(), trainer.SGDConfig(), cli.DataConfig())
    assert cli._read_config(path) == defaults
    settable = [f.name for c in defaults for f in dataclasses.fields(c) if f.name not in cli._FROM_MOVIES]
    assert [k for section in cfg.values() for k in section] == settable and len(settable) == 17


@pytest.mark.parametrize(
    "data, message",
    [
        ({"train_on_test_slots_only": True}, "sets train_on_test_slots_only but no test_slots_file"),
        ({"train_dates": ["2019-05-03", "2019-05-01"], "val_dates": ["2019-05-01"]},
         "config dates ['2019-05-01'] are in both train_dates and val_dates"),
        ({"train_dates": ["2019-05-01"]}, "must set both train_dates and val_dates or neither"),
    ],
    ids=["slots_only_without_slots", "date_in_both", "one_date_list"],
)
def test_train_rejects_a_data_section_that_contradicts_itself(pipeline_dirs, tmp_path, capsys, monkeypatch, data, message):
    from gridcast import movie_store

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sgd": {"epochs": 1, "drop_epoch": 1}, "data": {"stride": 8, **data}}))
    monkeypatch.setattr(movie_store, "open_movie", lambda *a: pytest.fail("a movie was opened"))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", pipeline_dirs[0], "--out", ckpt) == 2
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "data, message",
    [
        ({"train_dates": ["2019-05-01", "2019-05-09"], "val_dates": ["2019-05-03"]},
         "config dates ['2019-05-09'] have no movie in --data"),
        ({"train_dates": ["2019-05-01"], "val_dates": ["2019-04-30", "2019-05-03"]},
         "config dates ['2019-04-30'] have no movie in --data"),
        ({"city": "q", "train_dates": ["2019-05-01", "2019-05-04"], "val_dates": ["2019-05-05"]},
         "config dates ['2019-05-04', '2019-05-05'] have no movie of city q in --data"),
    ],
    ids=["train", "val", "city"],
)
def test_train_rejects_dates_with_no_movie(pipeline_dirs, tmp_path, capsys, monkeypatch, data, message):
    data_dir, _ = pipeline_dirs  # city q, 2019-05-01..03
    if "city" in data:  # another city's days do not count
        run("synth", "--kind", "constant", "--shape", "48,3,8,8", "--days", 2, "--city", "r",
            "--start-date", "2019-05-04", "--out", data_dir)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sgd": {"epochs": 1, "drop_epoch": 1}, "data": {"stride": 8, **data}}))
    monkeypatch.setattr(dataset, "load_clip", lambda *a: pytest.fail("a clip was loaded"))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", data_dir, "--out", ckpt) == 2
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_rejects_zero_epochs(pipeline_dirs, tmp_path, capsys):
    data, _ = pipeline_dirs
    path = train_config(tmp_path, epochs=0)
    cfg = json.loads(path.read_text())
    cfg["sgd"]["drop_epoch"] = 0
    path.write_text(json.dumps(cfg))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", data, "--out", ckpt) == 2
    assert "epochs must be >= 1" in capsys.readouterr().err
    assert not ckpt.exists() and not (tmp_path / "x.unp.csv").exists()


@pytest.mark.parametrize(
    "sgd, message",
    [
        ({"momentum": -5}, "momentum must be in [0, 1), got -5"),
        ({"momentum": 1}, "momentum must be in [0, 1), got 1"),
        ({"drop_epoch": -1}, "drop_epoch must be in 0..epochs, got -1"),
    ],
    ids=["momentum_negative", "momentum_one", "drop_epoch_negative"],
)
def test_train_rejects_sgd_values_out_of_bounds(pipeline_dirs, tmp_path, capsys, monkeypatch, sgd, message):
    from gridcast import movie_store

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sgd": {"epochs": 1, "drop_epoch": 1, **sgd}, "data": {"stride": 8}}))
    monkeypatch.setattr(movie_store, "open_movie", lambda *a: pytest.fail("a movie was opened"))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", pipeline_dirs[0], "--out", ckpt) == 2
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_on_one_day_with_the_default_split_exits_2(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    run("synth", "--kind", "random", "--shape", "20,3,8,8", "--days", 1, "--city", "q",
        "--start-date", "2019-05-01", "--out", data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"unet": {"depth": 2, "base_channels": 4}, "sgd": {"epochs": 1, "drop_epoch": 1}}))
    monkeypatch.setattr(dataset, "load_clip", lambda *a: pytest.fail("a clip was loaded"))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", data, "--out", ckpt) == 2
    err = capsys.readouterr().err
    assert "the default split needs at least two days, --data has ['2019-05-01']" in err
    assert "set data.train_dates and data.val_dates" in err
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--value", 300), "value must be in 0..255"),
        (("--value", -1), "value must be in 0..255"),
        (("--days", 0), "--days must be >= 1"),
        (("--days", 2, "--value", 256), "value must be in 0..255"),
    ],
    ids=["value_300", "value_negative", "no_days", "two_days"],
)
def test_synth_rejects_what_it_cannot_store(tmp_path, capsys, argv, message):
    # a .tmm --out with several days fails on that first (test_synth_rejects_several_days_into_one_tmm_file)
    names = ("days",) if argv[:2] == ("--days", 2) else ("days", "one.tmm")
    for out in (tmp_path / name for name in names):
        assert run("synth", "--kind", "constant", "--shape", "4,1,2,2", *argv, "--out", out) == 2
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [(), ("--value", 256)], ids=["value_ok", "value_bad"])
def test_synth_rejects_several_days_into_one_tmm_file(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setattr(dataset, "synth_movie", lambda *a, **k: pytest.fail("a movie was generated"))
    out = tmp_path / "day.tmm"
    assert run("synth", "--kind", "constant", "--shape", "4,1,2,2", "--days", 2, *value, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"--out {out} names one .tmm file, but --days 2 writes 2 days" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out_name", ["days", "one.tmm"])
def test_synth_beyond_memory_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, out_name):
    def beyond_memory(*args, **kwargs):  # what numpy raises, without the allocation
        raise MemoryError("Unable to allocate 1.70 TiB for an array with shape (288, 3, 49500, 43600)")

    monkeypatch.setattr(dataset, "synth_movie", beyond_memory)
    out = tmp_path / out_name
    assert run("synth", "--kind", "random", "--shape", "288,3,49500,43600", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Unable to allocate 1.70 TiB" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["time_ramp", "slot_pattern", "random"])
def test_synth_rejects_a_value_for_a_kind_that_has_none(tmp_path, capsys, kind):
    out = tmp_path / "days"
    assert run("synth", "--kind", kind, "--shape", "4,1,2,2", "--value", 0, "--out", out) == 2
    assert f"--value sets the cells of kind constant, not of {kind}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["persistence", "zero"])
def test_baseline_rejects_train_for_a_kind_without_a_model(pipeline_dirs, tmp_path, capsys, kind):
    data, slots = pipeline_dirs
    out = tmp_path / "out"
    train = tmp_path / "missing"  # never read
    assert run("baseline", "--kind", kind, "--train", train, "--data", data, "--slots", slots, "--out", out) == 2
    assert capsys.readouterr().err == f"error: --train is for --kind slot_avg; --kind {kind} has no model\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["no_parent", "parent_is_a_file", "out_is_a_directory", "log_is_a_directory"])
def test_train_rejects_an_unwritable_out_before_it_opens_a_movie(pipeline_dirs, tmp_path, capsys, monkeypatch, bad):
    data, _ = pipeline_dirs
    monkeypatch.setattr(cli.movie_store, "open_movie", lambda *a: pytest.fail("a movie was opened"))
    monkeypatch.setattr(trainer, "train", lambda *a: pytest.fail("trained"))
    parent = {"no_parent": tmp_path / "nodir", "parent_is_a_file": tmp_path / "file"}.get(bad, tmp_path)
    ckpt = parent / "x.unp"
    if bad == "parent_is_a_file":
        parent.write_bytes(b"")
    elif bad != "no_parent":
        Path(ckpt if bad == "out_is_a_directory" else f"{ckpt}.csv").mkdir()
    assert run("train", "--config", train_config(tmp_path), "--data", data, "--out", ckpt) == 2
    assert f"error: --out {ckpt}: " in capsys.readouterr().err


def test_train_missing_data_dir(tmp_path):
    cfg = train_config(tmp_path)
    assert run("train", "--config", cfg, "--data", tmp_path / "missing", "--out", tmp_path / "x.unp") == 2


def test_train_rejects_mixed_cities(tmp_path, capsys):
    data = tmp_path / "data"
    run("synth", "--kind", "constant", "--shape", "32,3,4,4", "--days", 2,
        "--city", "a", "--start-date", "2019-05-01", "--out", data)
    run("synth", "--kind", "constant", "--shape", "32,3,4,4", "--days", 2,
        "--city", "b", "--start-date", "2019-05-03", "--out", data)
    cfg = train_config(tmp_path)
    assert run("train", "--config", cfg, "--data", data, "--out", tmp_path / "x.unp") == 2
    assert "per city" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the diverged net's NaNs
def test_train_numerical_failure_exit_code(pipeline_dirs, tmp_path, capsys):
    data, _ = pipeline_dirs
    cfg = {
        "unet": {"depth": 2, "base_channels": 4, "normalize": False},
        "sgd": {"lr_initial": 1e6, "lr_after_drop": 1e6, "drop_epoch": 0,
                "epochs": 3, "seed": 0},
        "data": {"stride": 8, "val_dates": ["2019-05-03"],
                 "train_dates": ["2019-05-01", "2019-05-02"]},
    }
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(cfg))
    code = run("train", "--config", path, "--data", data, "--out", tmp_path / "x.unp")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_predict_non_finite_output_exit_code(pipeline_dirs, tmp_path, capsys):
    data, slots = pipeline_dirs
    params = tn.init_params(tn.UNetConfig(depth=2, in_channels=36, out_channels=9, base_channels=4), 0)
    for t in params.tensors.values():
        t[...] = np.where(np.signbit(t), -3e38, 3e38)  # finite weights whose products overflow
    ckpt = tn.save_params(params, tmp_path / "hot.unp")
    out = tmp_path / "pred"
    assert run("predict", "--ckpt", ckpt, "--data", data, "--slots", slots, "--out", out) == 3
    assert "numerical failure: 576 of 576 predicted values are not finite" in capsys.readouterr().err
    assert not list(out.glob("*"))


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_a_failed_predict_leaves_the_earlier_out_dir_as_it_was(pipeline_dirs, tmp_path, capsys, monkeypatch):
    data, _ = pipeline_dirs
    slots = tmp_path / "eight.txt"
    slots.write_text("".join(f"{s}\n" for s in range(12, 20)))  # 8 clips per day
    cfg = tn.UNetConfig(depth=1, in_channels=36, out_channels=9, base_channels=2)
    a, b = (tn.save_params(tn.init_params(cfg, seed), tmp_path / f"{seed}.unp") for seed in (1, 2))
    out = tmp_path / "pred"
    assert run("predict", "--ckpt", a, "--data", data, "--slots", slots, "--out", out) == 0
    written = _files(out)
    assert len(written) == 24

    predict, calls = trainer.predict, []

    def fails_at_clip_4(params, clip):
        calls.append(clip)
        if len(calls) == 4:
            raise trainer.NumericalError("clip 4 is not finite")
        return predict(params, clip)

    monkeypatch.setattr(trainer, "predict", fails_at_clip_4)
    assert run("predict", "--ckpt", b, "--data", data, "--slots", slots, "--out", out) == 3
    assert "clip 4 is not finite" in capsys.readouterr().err
    assert _files(out) == written  # not 3 clips of B beside 21 of A
    assert not Path(f"{out}.part").exists() and not Path(f"{out}.old").exists()


def test_a_per_clip_command_replaces_every_file_of_its_out_dir(pipeline_dirs, tmp_path):
    data, slots = pipeline_dirs
    out = tmp_path / "truth"
    out.mkdir()
    (out / "q__2019-04-30__t0008.tmm").write_bytes(b"stale")
    assert run("targets", "--data", data, "--slots", slots, "--out", out) == 0
    assert len(_files(out)) == 6 and not (out / "q__2019-04-30__t0008.tmm").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "slots.txt", "truth"]


@pytest.mark.parametrize("fault", ["other_file", "out_is_data", "out_is_file"])
def test_a_per_clip_command_replaces_no_out_but_a_dir_of_tmm_files(pipeline_dirs, tmp_path, capsys, monkeypatch, fault):
    data, slots = pipeline_dirs
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.tmm").write_bytes(b"clip")
    if fault == "other_file":
        (out / "notes.txt").write_text("keep me")
    elif fault == "out_is_data":
        out = data
    else:
        out = out / "a.tmm"
    before = {d: _files(d) for d in (tmp_path / "out", data)}
    monkeypatch.setattr(dataset, "enumerate_clips", lambda *_: pytest.fail("clips were enumerated"))
    assert run("targets", "--data", data, "--slots", slots, "--out", out) == 2
    message = "is an input directory" if fault == "out_is_data" else "not a directory of .tmm files only"
    assert message in capsys.readouterr().err
    assert {d: _files(d) for d in before} == before


@pytest.mark.parametrize("sibling", ["part", "old"])
def test_a_killed_clip_write_leaves_nothing_that_blocks_a_rerun(pipeline_dirs, tmp_path, sibling):
    # ingest writes each clip through <clip>.tmm.part, so a kill mid-write leaves one in <out>.part
    data, slots = pipeline_dirs
    out = tmp_path / "truth"
    left = Path(f"{out}.{sibling}")
    left.mkdir()
    (left / "q__2019-05-01__t0008.tmm").write_bytes(b"done")
    (left / "q__2019-05-01__t0009.tmm.part").write_bytes(b"half")
    assert run("targets", "--data", data, "--slots", slots, "--out", out) == 0
    assert len(_files(out)) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "slots.txt", "truth"]


@pytest.mark.parametrize("where, name", [("part", "notes.txt"), ("old", "clip.npy.part"), ("part", "a.part"),
                                         ("out", "q__2019-05-01__t0009.tmm.part")])
def test_a_per_clip_command_removes_no_other_leftover(pipeline_dirs, tmp_path, capsys, where, name):
    data, slots = pipeline_dirs
    out = tmp_path / "truth"
    d = out if where == "out" else Path(f"{out}.{where}")
    d.mkdir()
    (d / "q__2019-05-01__t0008.tmm.part").write_bytes(b"half")
    (d / name).write_bytes(b"keep me")
    before = _files(d)
    assert run("targets", "--data", data, "--slots", slots, "--out", out) == 2
    assert f"{d} exists and is not a directory of .tmm files only" in capsys.readouterr().err
    assert _files(d) == before


def test_evaluate_opens_each_file_once(pipeline_dirs, tmp_path, monkeypatch):
    data, slots = pipeline_dirs
    dirs = [tmp_path / "pred", tmp_path / "truth"]
    for d in dirs:
        assert run("targets", "--data", data, "--slots", slots, "--out", d) == 0
    opened, open_movie = [], movie_store.open_movie
    monkeypatch.setattr(movie_store, "open_movie", lambda path: opened.append(path) or open_movie(path))
    report = tmp_path / "r.json"
    assert run("evaluate", "--pred", dirs[0], "--truth", dirs[1], "--report", report) == 0
    assert sorted(opened) == sorted(p for d in dirs for p in d.glob("*.tmm"))
    assert json.loads(report.read_text())["per_city"] == {"q": 0.0}


@pytest.mark.parametrize("side", ["pred", "truth"])
def test_evaluate_rejects_partial_file_sets(pipeline_dirs, tmp_path, capsys, side):
    data, slots = pipeline_dirs
    dirs = {"pred": tmp_path / "pred", "truth": tmp_path / "truth"}
    for out in dirs.values():
        assert run("targets", "--data", data, "--slots", slots, "--out", out) == 0
    (dirs[side] / "q__2019-05-02__t0008.tmm").unlink()
    report = tmp_path / "r.json"
    assert run("evaluate", "--pred", dirs["pred"], "--truth", dirs["truth"], "--report", report) == 2
    assert "differ" in capsys.readouterr().err
    assert not report.exists()


def test_targets_reads_only_the_target_frames(pipeline_dirs, tmp_path, monkeypatch):
    data, _ = pipeline_dirs
    opened = []
    open_movies = cli._open_movies
    monkeypatch.setattr(cli, "_open_movies", lambda *a: opened.extend(open_movies(*a)) or opened)
    out = tmp_path / "truth"
    assert run("targets", "--data", data, "--out", out) == 0
    files = sorted(out.glob("*.tmm"))
    assert len(files) == 3 * 34  # stride 1 over three 48-frame days
    frame_bytes = 3 * 8 * 8
    assert sum(m.payload_bytes_read for m in opened) == len(files) * 3 * frame_bytes
    with contextlib.ExitStack() as stack:
        movies = dataset.index_movies(open_movies(stack, data))
        for spec, path in zip(dataset.enumerate_clips(list(movies.values())), files):
            with open_movie(path) as m:
                assert path.name == cli._clip_name(spec)
                assert np.array_equal(m.read_all(), dataset.load_clip(spec, movies).target)


def test_evaluate_reads_one_pair_at_a_time(pipeline_dirs, tmp_path, monkeypatch):
    from gridcast import movie_store

    data, slots = pipeline_dirs
    pred, truth = tmp_path / "pred", tmp_path / "truth"
    for out in (pred, truth):
        assert run("targets", "--data", data, "--slots", slots, "--out", out) == 0
    read_all, reads, held = movie_store.MovieReader.read_all, [], []

    def counted(self):
        reads.append(self.path)
        return read_all(self)

    def evaluate(preds, truths, cities):
        for pred, truth in zip(preds, truths):  # each pair is read only as it is asked for
            held.append(len(reads))
        return trainer.Metrics(0.0, [], [], {}, len(held))

    monkeypatch.setattr(movie_store.MovieReader, "read_all", counted)
    monkeypatch.setattr(trainer, "evaluate", evaluate)
    assert run("evaluate", "--pred", pred, "--truth", truth, "--report", tmp_path / "r.json") == 0
    assert held == [2, 4, 6, 8, 10, 12]


def test_train_non_finite_validation_loss_exit_code(pipeline_dirs, tmp_path, monkeypatch, capsys):
    from gridcast import trainer

    data, _ = pipeline_dirs
    monkeypatch.setattr(trainer, "validation_losses", lambda *args: (float("nan"), float("nan")))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", train_config(tmp_path), "--data", data, "--out", ckpt) == 3
    assert "validation loss" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("fault", ["short_header", "short_payload", "padded", "nan", "unp1", "normalize", "wide"])
def test_predict_rejects_broken_checkpoint(pipeline_dirs, tmp_path, capsys, fault):
    from test_tensor_nn import _unp1_bytes

    data, slots = pipeline_dirs
    params = tn.init_params(tn.UNetConfig(depth=1, in_channels=36, out_channels=9, base_channels=2), 0)
    if fault == "nan":
        params.tensors["head.w"][0, 0, 0, 0] = np.nan
    ckpt = tn.save_params(params, tmp_path / "net.unp")
    good = ckpt.read_bytes()
    ckpt.write_bytes({
        "short_header": good[:15],
        "short_payload": good[:-4],
        "padded": good + bytes(8),
        "unp1": _unp1_bytes(params),
        "normalize": good[:18] + bytes([2]) + good[19:],
        "wide": good[:14] + (2**20).to_bytes(4, "little") + good[18:],  # base_channels
    }.get(fault, good))
    out = tmp_path / "pred"
    assert run("predict", "--ckpt", ckpt, "--data", data, "--slots", slots, "--out", out) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_predict_rejects_checkpoint_for_other_channels(pipeline_dirs, tmp_path, capsys):
    data, slots = pipeline_dirs  # 3-channel days
    cfg = tn.UNetConfig(depth=1, out_channels=3, base_channels=2)
    ckpt = tn.save_params(tn.init_params(cfg, 0), tmp_path / "a.unp")
    out = tmp_path / "pred"
    assert run("predict", "--ckpt", ckpt, "--data", data, "--slots", slots, "--out", out) == 2
    assert "q_2019-05-01.tmm: c=3 needs a U-Net with 36 input and 9 output" in capsys.readouterr().err
    assert not out.exists()


def test_predict_rejects_data_with_other_channels(tmp_path, capsys):
    data = tmp_path / "data"
    run("synth", "--kind", "constant", "--shape", "32,1,8,8", "--out", data)
    ckpt = tn.save_params(tn.init_params(tn.UNetConfig(depth=1, base_channels=2), 0), tmp_path / "a.unp")
    out = tmp_path / "pred"
    assert run("predict", "--ckpt", ckpt, "--data", data, "--out", out) == 2
    assert "synthville_2019-01-07.tmm: c=1 needs a U-Net with 12 input" in capsys.readouterr().err
    assert not out.exists()


def test_train_takes_channels_from_the_movies(tmp_path):
    data = tmp_path / "data"
    run("synth", "--kind", "slot_pattern", "--seed", 6, "--shape", "48,1,8,8",
        "--days", 3, "--city", "q", "--start-date", "2019-05-01", "--out", data)
    ckpt = tmp_path / "net.unp"
    assert run("train", "--config", train_config(tmp_path, epochs=1), "--data", data, "--out", ckpt) == 0
    cfg = tn.load_params(ckpt).config
    assert (cfg.in_channels, cfg.out_channels) == (12, 3)
    pred = tmp_path / "pred"
    assert run("predict", "--ckpt", ckpt, "--data", data, "--out", pred, "--stride", 16) == 0
    with open_movie(pred / "q__2019-05-01__t0000.tmm") as m:
        assert m.header.shape == (3, 1, 8, 8)


def test_documented_configs_match_the_schema(tmp_path):
    """The cli docstring's example is the defaults; the README's config parses."""
    doc = cli.__doc__
    path = tmp_path / "doc.json"
    path.write_text(doc[doc.index("{") : doc.rindex("}") + 1])
    assert cli._read_config(path) == (tn.UNetConfig(), trainer.SGDConfig(), cli.DataConfig())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path.write_text(readme.split("cat > config.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0])
    unet, sgd, data = cli._read_config(path)
    assert (unet.depth, sgd.epochs, data.test_slots_file) == (2, 20, "slots.txt")


def test_train_rejects_days_on_different_grids(pipeline_dirs, tmp_path, capsys):
    data, _ = pipeline_dirs  # three 8x8 days
    run("synth", "--kind", "constant", "--shape", "48,3,6,8", "--city", "q", "--start-date", "2019-05-02",
        "--out", data / "q_2019-05-02.tmm")
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", train_config(tmp_path), "--data", data, "--out", ckpt) == 2
    assert "q_2019-05-02.tmm: grid (c, h, w) (3, 6, 8) differs from" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "short_day, data, message",
    [(None, {"train_on_test_slots_only": True, "test_slots_file": "slots.txt"},
      "no training clip in 2 days at stride 8 and the slots of slots.txt"),
     ("2019-05-04", {"val_dates": ["2019-05-04"], "val_stride": 2}, "no validation clip in 1 days at stride 2")],
    ids=["train", "val"],
)
def test_train_rejects_an_empty_clip_selection_before_reading_a_clip(
    pipeline_dirs, tmp_path, capsys, monkeypatch, short_day, data, message
):
    data_dir, _ = pipeline_dirs  # three 48-frame days: first predicted slots 12..45
    if short_day is not None:  # 14 frames hold no 15-frame clip
        run("synth", "--kind", "constant", "--shape", "14,3,8,8", "--city", "q", "--start-date", short_day,
            "--out", data_dir / f"q_{short_day}.tmm")
    (tmp_path / "slots.txt").write_text("5\n")  # in every day, first predicted by no clip
    path = train_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["data"].update(data)
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(dataset, "load_clip", lambda *a: pytest.fail("a clip was read"))
    monkeypatch.chdir(tmp_path)
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", data_dir, "--out", ckpt) == 2
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_rejects_a_slot_that_no_day_has_before_reading_a_clip(pipeline_dirs, tmp_path, capsys, monkeypatch):
    data_dir, _ = pipeline_dirs  # three 48-frame days
    (tmp_path / "slots.txt").write_text("20\n48\n100\n")
    path = train_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["data"]["test_slots_file"] = "slots.txt"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(dataset, "load_clip", lambda *a: pytest.fail("a clip was read"))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", path, "--data", data_dir, "--out", ckpt) == 2
    assert "slots.txt: slots [48, 100] are in no day: the longest has 48 frames" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_reads_a_relative_slots_file_from_the_config_files_directory(pipeline_dirs, tmp_path, monkeypatch):
    data_dir, _ = pipeline_dirs
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    (cfg_dir / "slots.txt").write_text("36\n")
    path = train_config(cfg_dir, epochs=1)
    cfg = json.loads(path.read_text())
    cfg["data"].update({"test_slots_file": "slots.txt", "train_on_test_slots_only": True})
    path.write_text(json.dumps(cfg))
    seen = []
    train = trainer.train
    monkeypatch.setattr(trainer, "train", lambda *a: seen.append(a[4]) or train(*a))
    monkeypatch.chdir(tmp_path)  # cfg/'s parent, whose slots.txt holds 20 and 28
    assert run("train", "--config", "cfg/config.json", "--data", data_dir, "--out", tmp_path / "x.unp") == 0
    assert seen == [{36}]


class _WeightsDrawn(Exception):
    pass


def test_train_rejects_a_unet_too_deep_for_the_grid(pipeline_dirs, tmp_path, capsys, monkeypatch):
    data, _ = pipeline_dirs  # three 8x8 days
    path = train_config(tmp_path)
    cfg = json.loads(path.read_text())

    def new_state(*args):
        raise _WeightsDrawn

    monkeypatch.setattr(trainer, "new_state", new_state)
    ckpt = tmp_path / "x.unp"
    cfg["unet"]["depth"] = 4  # pools 8x8 three times, down to 1x1: allowed
    path.write_text(json.dumps(cfg))
    with pytest.raises(_WeightsDrawn):
        run("train", "--config", path, "--data", data, "--out", ckpt)
    cfg["unet"]["depth"] = 5
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(dataset, "load_clip", lambda *args: pytest.fail("a clip was loaded"))
    assert run("train", "--config", path, "--data", data, "--out", ckpt) == 2
    assert "unet.depth 5 pools a 8x8 grid below 1 pixel" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_rejects_parameters_beyond_memory(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    run(
        "synth", "--kind", "random", "--shape", "16,3,256,8", "--days", 3,
        "--city", "q", "--start-date", "2019-05-01", "--out", data,
    )
    path = train_config(tmp_path)
    cfg = json.loads(path.read_text())

    def new_state(*args):
        raise _WeightsDrawn

    monkeypatch.setattr(trainer, "new_state", new_state)
    ckpt = tmp_path / "x.unp"
    cfg["unet"] = {"depth": 9, "base_channels": 4}  # 256 rows pool down to 1: allowed, and small
    path.write_text(json.dumps(cfg))
    with pytest.raises(_WeightsDrawn):
        run("train", "--config", path, "--data", data, "--out", ckpt)
    cfg["unet"]["base_channels"] = 4096  # its deepest conv alone is 9 * 2**40 weights
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(dataset, "load_clip", lambda *args: pytest.fail("a clip was loaded"))
    assert run("train", "--config", path, "--data", data, "--out", ckpt) == 2
    err = capsys.readouterr().err
    unet = tn.UNetConfig(depth=9, in_channels=36, out_channels=9, base_channels=4096)
    params = 4 * 4 * sum(map(math.prod, tn._param_shapes(unet).values()))
    assert str(unet) in err and f"{params:,} bytes of parameters and" in err
    assert not ckpt.exists()


def test_train_counts_the_days_it_holds_against_memory(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    run(
        "synth", "--kind", "random", "--shape", "20,3,8,8", "--days", 4,
        "--city", "q", "--start-date", "2019-05-01", "--out", data,
    )
    path = train_config(tmp_path)  # trains on 05-01 and 05-02, validates on 05-03; 05-04 is unused
    cfg = tn.UNetConfig(depth=2, in_channels=36, out_channels=9, base_channels=4, normalize=True)
    params = 4 * 4 * sum(w.size for w in tn.init_params(cfg, 0).tensors.values())
    days = 3 * 20 * 3 * 8 * 8
    cache = cache_bytes(cfg, 2, 8, 8, 4)  # one clip per training day at stride 8, below batch_size 5
    real_sysconf = os.sysconf

    def with_memory(memory):
        sizes = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: sizes.get(name) or real_sysconf(name))

    def new_state(*args):
        raise _WeightsDrawn

    monkeypatch.setattr(trainer, "new_state", new_state)
    ckpt = tmp_path / "x.unp"
    with_memory(params + days + cache)
    with pytest.raises(_WeightsDrawn):  # fits exactly: the clips are loaded and training starts
        run("train", "--config", path, "--data", data, "--out", ckpt)
    with_memory(params + days + cache - 1)
    monkeypatch.setattr(dataset, "load_clip", lambda *args: pytest.fail("a clip was loaded"))
    assert run("train", "--config", path, "--data", data, "--out", ckpt) == 2
    err = capsys.readouterr().err
    assert (
        f"{days:,} bytes of data (3 days), {params:,} bytes of parameters and {cache:,} bytes of "
        f"activations (batch 2, 8x8) exceed the {params + days + cache - 1:,} bytes of memory"
    ) in err
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["train", "predict", "baseline", "targets", "mask"])
def test_commands_close_every_movie(pipeline_dirs, tmp_path, command):
    data, slots = pipeline_dirs
    ckpt = tmp_path / "net.unp"
    if command == "predict":
        assert run("train", "--config", train_config(tmp_path, epochs=1), "--data", data, "--out", ckpt) == 0
    src = ("--data", data, "--slots", slots, "--out", tmp_path / "out")
    argv = {
        "train": ("train", "--config", train_config(tmp_path, epochs=1), "--data", data, "--out", ckpt),
        "predict": ("predict", "--ckpt", ckpt, *src),
        "baseline": ("baseline", "--kind", "slot_avg", "--train", data, *src),
        "targets": ("targets", *src),
        "mask": ("mask", "--data", data, "--threshold", 0, "--out", tmp_path / "mask.tmm"),
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(*argv) == 0
        gc.collect()
    leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaked
