import gc
import json
import warnings

import numpy as np
import pytest

from gridcast import tensor_nn as tn
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
    movies = [open_movie(p) for p in sorted(data.glob("*.tmm"))]
    model = baselines.time_slot_average(movies, [20, 21, 22, 28, 29, 30])
    expected = baselines.predict_slot_average(model, ClipSpec("q", "2019-05-01", 8))
    with open_movie(out / "q__2019-05-01__t0008.tmm") as m:
        assert np.array_equal(m.read_all(), expected)
    assert model_file.exists() and (tmp_path / "avg_model.tmm.slots").exists()
    for m in movies:
        m.close()


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
        "unet": {"depth": 2, "in_channels": 36, "out_channels": 9,
                 "base_channels": 4, "normalize": True},
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
def test_train_numerical_failure_exit_code(pipeline_dirs, tmp_path, capsys):
    data, _ = pipeline_dirs
    cfg = {
        "unet": {"depth": 2, "in_channels": 36, "out_channels": 9,
                 "base_channels": 4, "normalize": False},
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


def test_train_non_finite_validation_loss_exit_code(pipeline_dirs, tmp_path, monkeypatch, capsys):
    from gridcast import trainer

    data, _ = pipeline_dirs
    monkeypatch.setattr(trainer, "validation_losses", lambda *args: (float("nan"), float("nan")))
    ckpt = tmp_path / "x.unp"
    assert run("train", "--config", train_config(tmp_path), "--data", data, "--out", ckpt) == 3
    assert "validation loss" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("fault", ["short_header", "padded", "nan"])
def test_predict_rejects_broken_checkpoint(pipeline_dirs, tmp_path, capsys, fault):
    data, slots = pipeline_dirs
    params = tn.init_params(tn.UNetConfig(depth=1, in_channels=36, out_channels=9, base_channels=2), 0)
    if fault == "nan":
        params.tensors["head.w"][0, 0, 0, 0] = np.nan
    ckpt = tn.save_params(params, tmp_path / "net.unp")
    good = ckpt.read_bytes()
    ckpt.write_bytes({"short_header": good[:15], "padded": good + bytes(8)}.get(fault, good))
    out = tmp_path / "pred"
    assert run("predict", "--ckpt", ckpt, "--data", data, "--slots", slots, "--out", out) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


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
