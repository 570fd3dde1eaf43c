import contextlib
import dataclasses
import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gridcast import cli, dataset, tensor_nn as tn, trainer
from gridcast.cli import main
from gridcast.dataset import synth_movie
from gridcast.movie_store import open_movie


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


def test_mask_threshold_zero_on_zero_movie(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    assert run("synth", "--kind", "constant", "--shape", "16,3,4,4", "--out", data) == 0
    mask_file = tmp_path / "mask.tmm"
    assert run("mask", "--data", data, "--threshold", 0, "--out", mask_file) == 0
    with open_movie(mask_file) as m:
        assert not m.read_all().any()


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
    slots.write_text("3\n500\n")
    cfg = tn.UNetConfig(depth=1, in_channels=36, out_channels=9, base_channels=2)
    ckpt = tn.save_params(tn.init_params(cfg, 0), tmp_path / "a.unp")
    ckpt_args = ("--ckpt", ckpt) if command[0] == "predict" else ()
    monkeypatch.setattr(cli, "_check_channels", lambda *_: pytest.fail("make_frames ran"))
    monkeypatch.setattr(cli.baselines, "time_slot_average", lambda *_: pytest.fail("make_frames ran"))
    out = tmp_path / "out"
    assert run(*command, *ckpt_args, "--data", data, "--slots", slots, "--out", out) == 2
    assert "no clip of" in capsys.readouterr().err
    assert not out.exists()


def test_slot_avg_baseline_matches_library(pipeline_dirs, tmp_path):
    from gridcast import baselines
    from gridcast.dataset import ClipSpec

    data, slots = pipeline_dirs
    out = tmp_path / "avg"
    model_file = tmp_path / "avg_model.tmm"
    assert run(
        "baseline", "--kind", "slot_avg", "--data", data, "--slots", slots,
        "--out", out, "--model-out", model_file,
    ) == 0
    with contextlib.ExitStack() as stack:
        movies = [stack.enter_context(open_movie(p)) for p in sorted(data.glob("*.tmm"))]
        model = baselines.time_slot_average(movies, [20, 21, 22, 28, 29, 30])
    expected = baselines.predict_slot_average(model, ClipSpec("q", "2019-05-01", 8))
    with open_movie(out / "q__2019-05-01__t0008.tmm") as m:
        assert np.array_equal(m.read_all(), expected)
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("avg_model")) == ["avg_model.tmm"]
    assert baselines.load_model(model_file).slots == [20, 21, 22, 28, 29, 30]


@pytest.mark.parametrize("train_shape", ["48,3,4,4", "48,1,8,8"], ids=["grid", "channels"])
def test_slot_avg_baseline_rejects_model_on_other_grid(pipeline_dirs, tmp_path, capsys, monkeypatch, train_shape):
    from gridcast import baselines

    data, slots = pipeline_dirs
    train = tmp_path / "train"
    run("synth", "--kind", "constant", "--shape", train_shape, "--days", 2, "--out", train)
    monkeypatch.setattr(baselines, "time_slot_average", lambda *a: pytest.fail("a training frame was read"))
    out, model_file = tmp_path / "avg", tmp_path / "model.tmm"
    assert run(
        "baseline", "--kind", "slot_avg", "--train", train, "--data", data, "--slots", slots,
        "--out", out, "--model-out", model_file,
    ) == 2
    assert "q_2019-05-01.tmm: grid (c, h, w) (3, 8, 8) differs from the slot-average" in capsys.readouterr().err
    assert not out.exists() and not model_file.exists()


def test_evaluate_identical_dirs_reports_zero(pipeline_dirs, tmp_path, capsys):
    data, slots = pipeline_dirs
    out = tmp_path / "truth"
    assert run("targets", "--data", data, "--slots", slots, "--out", out) == 0
    report = tmp_path / "report.json"
    assert run("evaluate", "--pred", out, "--truth", out, "--report", report) == 0
    doc = json.loads(report.read_text())
    assert doc["overall"] == 0.0
    assert doc["per_frame"] == [0.0, 0.0, 0.0]
    assert doc["per_city"] == {"q": 0.0}
    assert doc["clips"] == 6
    assert set(doc) == {"overall", "per_frame", "per_channel", "per_city", "clips"}


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


def test_config_schema_covers_every_config_field():
    assert list(cli._SCHEMA["sgd"]) == [f.name for f in dataclasses.fields(trainer.SGDConfig)]
    assert list(cli._SCHEMA["data"]) == list(cli._DATA_DEFAULTS)


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
    for out in (tmp_path / "days", tmp_path / "one.tmm"):
        assert run("synth", "--kind", "constant", "--shape", "4,1,2,2", *argv, "--out", out) == 2
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_evaluate_reads_one_pair_at_a_time(pipeline_dirs, tmp_path, monkeypatch):
    from gridcast import movie_store

    data, slots = pipeline_dirs
    truth = tmp_path / "truth"
    assert run("targets", "--data", data, "--slots", slots, "--out", truth) == 0
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
    assert run("evaluate", "--pred", truth, "--truth", truth, "--report", tmp_path / "r.json") == 0
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
    assert cli._read_config(path) == (tn.UNetConfig(), trainer.SGDConfig(), cli._DATA_DEFAULTS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path.write_text(readme.split("cat > config.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0])
    unet, sgd, data = cli._read_config(path)
    assert (unet.depth, sgd.epochs, data["test_slots_file"]) == (2, 20, "slots.txt")


def test_train_rejects_days_on_different_grids(pipeline_dirs, tmp_path, capsys):
    data, _ = pipeline_dirs  # three 8x8 days
    run("synth", "--kind", "constant", "--shape", "48,3,6,8", "--city", "q", "--start-date", "2019-05-02",
        "--out", data / "q_2019-05-02.tmm")
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", train_config(tmp_path), "--data", data, "--out", ckpt) == 2
    assert "q_2019-05-02.tmm: grid (c, h, w) (3, 6, 8) differs from" in capsys.readouterr().err
    assert not ckpt.exists()


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
    assert "depth=9" in err and "base_channels=4096" in err and "bytes of parameters exceed" in err
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
