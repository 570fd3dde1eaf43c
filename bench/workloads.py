"""The three benchmark workloads.

Each workload has a ``setup`` (timed as ``setup_s``, repeated), an optional
``warm_up`` (not timed) and a ``round`` the measuring loop repeats until the
run's time is up. Every round does identical work, so per-round figures
repeat exactly. Outputs are checked against numpy computed here from the
workload's own inputs, never from the program's helpers.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import struct
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from gridcast import baselines, cli, dataset, masks, movie_store, tensor_nn, trainer

import hooks

_now = time.perf_counter

GRID = (495, 436)
DAY_START = "2019-01-07"
TEST_SLOTS = range(12, 288, 12)  # 23 slots: every 12th first-predicted slot
TRAIN_DAYS = 6  # of the desk workload's 8; the last 2 validate


class OperationFailed(RuntimeError):
    """A program call raised or exited non-zero; the run stops."""


class Outcome:
    """Counts operations and output checks; ``failed`` counts both kinds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:
            self.failed += 1
            raise OperationFailed(f"{getattr(fn, '__name__', fn)}: {e}") from e

    def cli(self, *argv):
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = self.op(cli.main, argv)
        if rc != 0:
            self.failed += 1
            raise OperationFailed(f"gridcast {argv[0]} exited {rc}: {out.getvalue().strip()}")

    def check(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# an independent reader and the numpy oracles the checks compare against

def read_tmm(path) -> np.ndarray:
    """Frames of a TMM1 file, parsed here rather than by movie_store."""
    data = Path(path).read_bytes()
    magic, _, c, t, h, w = struct.unpack_from("<4sHHIII", data, 0)
    if magic != b"TMM1":
        raise ValueError(f"{path}: bad magic {magic!r}")
    off = 20
    for _ in range(2):  # city, date
        off += 2 + struct.unpack_from("<H", data, off)[0]
    return np.frombuffer(data, np.uint8, offset=off).reshape(t, c, h, w)


def mse(a, b) -> float:
    d = np.asarray(a, np.float64) - np.asarray(b, np.float64)
    return float(np.mean(d * d))


def half_up(x) -> np.ndarray:
    return np.floor(np.clip(x, 0, 255) + 0.5).astype(np.uint8)


def clip_file(city: str, day: str, t_start: int) -> str:
    """File name the CLI gives a clip's prediction and target."""
    return f"{city}__{day}__t{t_start:04d}.tmm"


def day_name(i: int) -> str:
    return (date.fromisoformat(DAY_START) + timedelta(days=i)).isoformat()


def check_cli_outputs(out: Outcome, pred_dir, truth_dir, report, days, city, slots, shape):
    """Shared checks on CLI prediction/target files and the evaluate report.

    ``days`` maps a date to that day's raw (t, c, h, w) array.
    """
    preds, truths = [], []
    for day, raw in days.items():
        for s in slots:
            name = clip_file(city, day, s - dataset.INPUT_FRAMES)
            pred = read_tmm(Path(pred_dir) / name)
            out.check(pred.dtype == np.uint8 and pred.shape == shape, f"{name}: shape {pred.shape}")
            truth = read_tmm(Path(truth_dir) / name)
            out.check(np.array_equal(truth, raw[s : s + 3]), f"{name}: target frames differ from the day")
            preds.append(pred)
            truths.append(raw[s : s + 3])
    overall = json.loads(Path(report).read_text())["overall"]
    direct = mse(np.stack(preds), np.stack(truths))
    out.check(abs(overall - direct) <= 1e-9 * max(1.0, direct), f"evaluate {overall} != numpy {direct}")
    return overall


def check_slot_average(out: Outcome, pred_dir, history, city, day, slots, rng, samples=3):
    """Slot-average prediction files equal a brute-force mean of the history days."""
    stacked = np.stack(history)
    for s in rng.choice(list(slots), size=samples, replace=False):
        s = int(s)
        pred = read_tmm(Path(pred_dir) / clip_file(city, day, s - dataset.INPUT_FRAMES))
        brute = half_up(stacked[:, s : s + 3].astype(np.float64).mean(axis=0))
        out.check(np.array_equal(pred, brute), f"slot average at slot {s} differs from the brute-force mean")


# ---------------------------------------------------------------------------

class Workload:
    setup_reps = 3
    predictor = "trainer.predict"  # the model whose per-clip time is predict_clip_s

    def __init__(self, seed: int, work: Path, out: Outcome, tracer: "hooks.Tracer | None"):
        self.seed = seed
        self.work = work
        self.out = out
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.round_index = 0

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def warm_up(self):
        pass

    def trace_peak(self, key, value):
        if self.tracer is not None:
            self.tracer.peak(key, value)

    def median(self, key) -> float:
        return statistics.median(self.samples[key])

    def metrics(self) -> dict[str, float]:
        """Workload-specific end-to-end metrics; every round gives the same val_mse."""
        return {"val_mse": self.samples["val_mse"][0]}


class DeskPipeline(Workload):
    """The README pipeline through ``cli.main`` on 8 synthetic 32x32 days."""

    setup_reps = 10
    city = "desk"
    epochs = 2

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.movies = self.work / "movies"
        self.out.cli(
            "synth", "--kind", "slot_pattern", "--seed", self.seed, "--shape", "288,3,32,32",
            "--days", 8, "--city", self.city, "--start-date", DAY_START, "--out", self.movies,
        )
        self.slots = self.work / "slots.txt"
        self.slots.write_text("".join(f"{s}\n" for s in TEST_SLOTS))
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "unet": {"depth": 2, "base_channels": 16, "normalize": True},
            "sgd": {"lr_initial": 0.1, "lr_after_drop": 0.02, "drop_epoch": self.epochs - 1,
                    "epochs": self.epochs, "seed": 0},
            "data": {"train_dates": [day_name(i) for i in range(TRAIN_DAYS)],
                     "val_dates": [day_name(i) for i in range(TRAIN_DAYS, 8)], "val_stride": 12,
                     "test_slots_file": str(self.slots), "train_on_test_slots_only": True},
        }))

    def round(self):
        r = self.work / "round"
        shutil.rmtree(r, ignore_errors=True)
        r.mkdir()
        ckpt, pred, avg, truth, report = r / "unet.unp", r / "pred", r / "pred_avg", r / "truth", r / "net.json"
        src = ("--data", self.movies, "--slots", self.slots)
        t0 = _now()
        self.out.cli("train", "--config", self.config, "--data", self.movies, "--out", ckpt)
        t1 = _now()
        self.out.cli("predict", "--ckpt", ckpt, *src, "--out", pred)
        self.out.cli("baseline", "--kind", "slot_avg", *src, "--out", avg)
        self.out.cli("targets", *src, "--out", truth)
        self.out.cli("evaluate", "--pred", pred, "--truth", truth, "--report", report)
        t2 = _now()
        self.sample("pipeline_s", t2 - t0)
        self.sample("train_clips_per_s", self.epochs * TRAIN_DAYS * len(TEST_SLOTS) / (t1 - t0))

        days = {day_name(i): read_tmm(self.movies / f"{self.city}_{day_name(i)}.tmm") for i in range(8)}
        log = np.loadtxt(f"{ckpt}.csv", delimiter=",", skiprows=1, ndmin=2)
        self.out.check(log.shape == (self.epochs, 5) and np.isfinite(log).all(), "epoch log has non-finite losses")
        val_mse = check_cli_outputs(self.out, pred, truth, report, days, self.city, TEST_SLOTS, (3, 3, 32, 32))
        persistence = mse(
            np.stack([np.repeat(raw[s - 1 : s], 3, axis=0) for raw in days.values() for s in TEST_SLOTS]),
            np.stack([raw[s : s + 3] for raw in days.values() for s in TEST_SLOTS]),
        )
        self.out.check(val_mse < persistence, f"net MSE {val_mse} not below persistence {persistence}")
        day0 = day_name(0)
        check_slot_average(
            self.out, avg, list(days.values()), self.city, day0, TEST_SLOTS, np.random.default_rng(self.seed)
        )
        self.sample("val_mse", val_mse)


class FullgridStep(Workload):
    """Train steps and predictions at the real grid, batch of one clip."""

    setup_reps = 5
    ucfg = tensor_nn.UNetConfig(depth=5, in_channels=36, out_channels=9, base_channels=16, normalize=True)
    scfg = trainer.SGDConfig(lr_initial=0.01, lr_after_drop=0.01, drop_epoch=1, batch_size=1, epochs=1, seed=0)

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        raw = self.out.op(dataset.synth_movie, "random", self.seed, (288, 3, *GRID))
        path = self.out.op(movie_store.ingest, raw, "grid", DAY_START, self.work / "day.tmm")
        del raw
        reader = self.out.op(movie_store.open_movie, path)
        by_key = dataset.index_movies([reader])
        specs = self.out.op(dataset.enumerate_clips, [reader], 1)
        picks = np.random.default_rng(self.seed).choice(len(specs), size=4, replace=False)
        before = reader.payload_bytes_read
        self.warm, self.train_clip, self.val_clip, self.pred_clip = (
            self.out.op(dataset.load_clip, specs[i], by_key) for i in picks
        )
        read = reader.payload_bytes_read - before
        self.out.check(
            read == 4 * dataset.CLIP_FRAMES * reader.header.frame_bytes, f"clip loads read {read} bytes"
        )
        reader.close()
        self.params = self.out.op(tensor_nn.init_params, self.ucfg, 0)

    def warm_up(self):
        self.out.op(trainer.train, self.ucfg, self.scfg, [self.warm], [self.val_clip])
        self.out.op(trainer.predict, self.params, self.warm)

    def round(self):
        t0 = _now()
        result = self.out.op(trainer.train, self.ucfg, self.scfg, [self.train_clip], [self.val_clip])
        t1 = _now()
        pred = self.out.op(trainer.predict, result.best_params, self.pred_clip)
        metrics = self.out.op(trainer.evaluate, [pred], [self.pred_clip.target])
        t2 = _now()
        self.sample("pipeline_s", t2 - t0)
        self.sample("train_clips_per_s", 1 / (t1 - t0))

        log = result.log[0]
        self.out.check(np.isfinite([log.train_mse, log.val_mse]).all(), "non-finite training loss")
        self.out.check(
            all(np.isfinite(v).all() for v in result.best_params.tensors.values()), "non-finite parameters"
        )
        self.out.check(pred.dtype == np.uint8 and pred.shape == (3, 3, *GRID), f"prediction shape {pred.shape}")
        direct = mse(pred, self.pred_clip.target)
        self.out.check(abs(metrics.overall - direct) <= 1e-9 * direct, f"evaluate {metrics.overall} != {direct}")
        self.sample("val_mse", metrics.overall)


class FullgridData(Workload):
    """The data plane at the real grid: writes, clip loads, baseline, eval, mask."""

    predictor = "baselines.predict_slot_average"
    city = "grid"
    history_days = 2
    mask_threshold = 254

    def setup(self):
        self.days = None  # free the previous repetition's arrays first
        shutil.rmtree(self.work, ignore_errors=True)
        self.eval_dir, self.hist_dir = self.work / "eval", self.work / "history"
        self.eval_dir.mkdir(parents=True)
        self.hist_dir.mkdir()
        self.days = [
            self.out.op(dataset.synth_movie, "random", self.seed * 16 + i, (288, 3, *GRID))
            for i in range(1 + self.history_days)
        ]
        self.paths = [self.eval_dir / f"{self.city}_{day_name(0)}.tmm"] + [
            self.hist_dir / f"{self.city}_{day_name(i)}.tmm" for i in range(1, 1 + self.history_days)
        ]
        for i, (raw, path) in enumerate(zip(self.days, self.paths)):
            self.out.op(movie_store.ingest, raw, self.city, day_name(i), path)
        readers = [self.out.op(movie_store.open_movie, p) for p in self.paths]
        self.specs = self.out.op(dataset.enumerate_clips, readers[:1], 1)
        for r in readers:
            r.close()
        self.slots = self.work / "slots.txt"
        self.slots.write_text("".join(f"{s}\n" for s in TEST_SLOTS))

    def round(self):
        r = self.work / "round"
        shutil.rmtree(r, ignore_errors=True)
        r.mkdir()
        pred, truth, report = r / "pred", r / "truth", r / "report.json"
        t0 = _now()
        for i, (raw, path) in enumerate(zip(self.days, self.paths)):
            t = _now()
            self.out.op(movie_store.ingest, raw, self.city, day_name(i), path)
            self.sample("ingest_mb_per_s", raw.nbytes / 1e6 / (_now() - t))
        readers = [self.out.op(movie_store.open_movie, p) for p in self.paths]
        by_key = dataset.index_movies(readers[:1])

        t = _now()
        before = readers[0].payload_bytes_read
        clips = [self.out.op(dataset.load_clip, spec, by_key) for spec in self.specs]
        for lo in range(0, len(clips), trainer.SGDConfig.batch_size):
            batch = clips[lo : lo + trainer.SGDConfig.batch_size]
            x = np.stack([dataset.collapse_time(c.input).data for c in batch]).astype(np.float32)
            y = np.stack([dataset.collapse_time(c.target).data for c in batch]).astype(np.float32)
        self.sample("clip_load_clips_per_s", len(clips) / (_now() - t))
        read = readers[0].payload_bytes_read - before
        self.trace_peak("dataset.clip_bytes_held", hooks.clip_bytes(clips))
        frame_bytes = readers[0].header.frame_bytes
        self.out.check(
            read == len(clips) * dataset.CLIP_FRAMES * frame_bytes,
            f"{len(clips)} clip loads read {read} bytes",
        )
        self.out.check(x.shape[1:] == (36, *GRID) and y.shape[1:] == (9, *GRID), f"batch shapes {x.shape} {y.shape}")
        del clips, x, y

        src = ("--data", self.eval_dir, "--slots", self.slots)
        t = _now()
        self.out.cli("baseline", "--kind", "slot_avg", "--train", self.hist_dir, *src, "--out", pred)
        self.sample("baseline_clips_per_s", len(TEST_SLOTS) / (_now() - t))
        t = _now()
        self.out.cli("targets", *src, "--out", truth)
        self.out.cli("evaluate", "--pred", pred, "--truth", truth, "--report", report)
        self.sample("eval_clips_per_s", len(TEST_SLOTS) / (_now() - t))
        mask = self.out.op(masks.build_mask, readers, self.mask_threshold)
        for reader in readers:
            reader.close()
        self.sample("pipeline_s", _now() - t0)

        day0 = day_name(0)
        val_mse = check_cli_outputs(
            self.out, pred, truth, report, {day0: self.days[0]}, self.city, TEST_SLOTS, (3, 3, *GRID)
        )
        self.sample("val_mse", val_mse)
        if self.round_index == 0:  # the inputs do not change between rounds
            check_slot_average(
                self.out, pred, self.days[1:], self.city, day0, TEST_SLOTS, np.random.default_rng(self.seed)
            )
            peak = np.zeros(GRID, np.uint8)
            for raw in self.days:
                np.maximum(peak, raw.max(axis=(0, 1)), out=peak)
            self.out.check(np.array_equal(mask.active, peak > self.mask_threshold), "mask differs from numpy")

    def metrics(self):
        rates = ("clip_load_clips_per_s", "baseline_clips_per_s", "eval_clips_per_s", "ingest_mb_per_s")
        return {k: self.median(k) for k in rates} | super().metrics()


WORKLOADS = {"desk_pipeline": DeskPipeline, "fullgrid_step": FullgridStep, "fullgrid_data": FullgridData}
