"""Command-line pipeline: ingest, synth, train, predict, baseline, evaluate, mask.

Exit codes: 0 success, 2 usage or data error, 3 numerical failure.

The train command reads a single JSON config with three optional sections,
"unet", "sgd" and "data"; every omitted key falls back to the built-in
defaults (the published training recipe). Example:

    {
      "unet": {"depth": 5, "in_channels": 36, "out_channels": 9,
               "base_channels": 64, "normalize": false},
      "sgd":  {"lr_initial": 0.02, "lr_after_drop": 0.001, "drop_epoch": 5,
               "momentum": 0.9, "nesterov": true, "batch_size": 5,
               "epochs": 12, "seed": 0},
      "data": {"city": null, "stride": 1, "val_stride": null,
               "region": null, "train_dates": null, "val_dates": null,
               "test_slots_file": null, "train_on_test_slots_only": false}
    }
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from datetime import date as _date, timedelta
from pathlib import Path

import numpy as np

from . import baselines, dataset, masks, movie_store, tensor_nn, trainer


def _open_movies(stack: contextlib.ExitStack, data_dir: Path, city: str | None = None):
    """Open every movie in ``data_dir``; ``stack`` closes them all."""
    paths = sorted(data_dir.glob("*.tmm"))
    movies = [stack.enter_context(movie_store.open_movie(p)) for p in paths]
    if city is not None:
        movies = [m for m in movies if m.header.city == city]
    if not movies:
        raise ValueError(f"no matching .tmm movies in {data_dir}")
    return movies


def _clip_name(spec: dataset.ClipSpec) -> str:
    return f"{spec.city}__{spec.day}__t{spec.t_start:04d}.tmm"


def _load_slots(path: str | None):
    return dataset.read_slots(path) if path else None


def _write_clip_frames(frames: np.ndarray, spec: dataset.ClipSpec, out_dir: Path):
    movie_store.ingest(frames, spec.city, spec.day, out_dir / _clip_name(spec))


def cmd_ingest(args) -> int:
    raw = np.load(args.input)
    path = movie_store.ingest(raw, args.city, args.date, args.out)
    with movie_store.open_movie(path) as m:
        h = m.header
        print(f"{path}: city={h.city} date={h.date} t={h.t} c={h.c} h={h.h} w={h.w}")
    return 0


def cmd_inspect(args) -> int:
    with movie_store.open_movie(args.file) as m:
        h = m.header
        print(
            f"{args.file}: city={h.city} date={h.date} t={h.t} c={h.c} "
            f"h={h.h} w={h.w} payload={h.payload_bytes}B"
        )
        if args.dump:
            np.save(args.dump, m.read_all())
            print(f"dumped dense array to {args.dump}")
    return 0


def cmd_synth(args) -> int:
    shape = tuple(int(v) for v in args.shape.split(","))
    if len(shape) != 4:
        raise ValueError(f"--shape must be t,c,h,w, got {args.shape!r}")
    out = Path(args.out)
    start = _date.fromisoformat(args.start_date)
    if args.days == 1 and out.suffix == ".tmm":
        paths = [out]
    else:
        out.mkdir(parents=True, exist_ok=True)
        paths = None
    for i in range(args.days):
        day = (start + timedelta(days=i)).isoformat()
        seed = args.seed + i * args.day_seed_step
        movie = dataset.synth_movie(args.kind, seed, shape, value=args.value)
        path = paths[0] if paths else out / f"{args.city}_{day}.tmm"
        movie_store.ingest(movie, args.city, day, path)
        print(f"wrote {path}")
    return 0


def _unet_config(cfg: dict) -> tensor_nn.UNetConfig:
    return tensor_nn.UNetConfig(**cfg.get("unet", {}))


def _sgd_config(cfg: dict) -> trainer.SGDConfig:
    return trainer.SGDConfig(**cfg.get("sgd", {}))


def _split_dates(dates: list[str], data_cfg: dict) -> tuple[list[str], list[str]]:
    train_dates = data_cfg.get("train_dates")
    val_dates = data_cfg.get("val_dates")
    if train_dates is None and val_dates is None:
        # default split: last quarter of the days (at least one) validates
        n_val = max(1, len(dates) // 4)
        return dates[:-n_val], dates[-n_val:]
    if train_dates is None or val_dates is None:
        raise ValueError("config must set both train_dates and val_dates or neither")
    return list(train_dates), list(val_dates)


def _load_clips(specs, movies_by_key, region):
    clips = []
    for spec in specs:
        if region is not None:
            spec = dataclasses.replace(spec, region=tuple(region))
        clips.append(dataset.load_clip(spec, movies_by_key))
    return clips


def cmd_train(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    unet_cfg = _unet_config(cfg)
    sgd_cfg = _sgd_config(cfg)
    data_cfg = cfg.get("data", {})

    with contextlib.ExitStack() as stack:
        movies = _open_movies(stack, Path(args.data), data_cfg.get("city"))
        cities = sorted({m.header.city for m in movies})
        if len(cities) > 1:
            raise ValueError(
                f"training is strictly per city; found {cities}, set data.city in the config"
            )
        dates = sorted({m.header.date for m in movies})
        train_dates, val_dates = _split_dates(dates, data_cfg)
        by_key = dataset.index_movies(movies)
        test_slots = _load_slots(data_cfg.get("test_slots_file"))
        stride = data_cfg.get("stride", 1)
        val_stride = data_cfg.get("val_stride") or stride
        region = data_cfg.get("region")

        train_movies = [m for m in movies if m.header.date in train_dates]
        val_movies = [m for m in movies if m.header.date in val_dates]
        train_specs = dataset.enumerate_clips(
            train_movies,
            stride,
            test_slots if data_cfg.get("train_on_test_slots_only") else None,
        )
        val_specs = dataset.enumerate_clips(val_movies, val_stride)
        train_clips = _load_clips(train_specs, by_key, region)
        val_clips = _load_clips(val_specs, by_key, region)
    result = trainer.train(unet_cfg, sgd_cfg, train_clips, val_clips, test_slots)
    tensor_nn.save_params(result.best_params, args.out)
    log_path = args.log or f"{args.out}.csv"
    trainer.write_epoch_log(log_path, result.log)
    print(
        f"trained {sgd_cfg.epochs} epochs on {len(train_clips)} clips; "
        f"best val MSE {result.best_val_mse:.4f}; wrote {args.out} and {log_path}"
    )
    return 0


def _predict_specs(stack, args):
    movies = _open_movies(stack, Path(args.data))
    slots = _load_slots(args.slots)
    specs = dataset.enumerate_clips(movies, args.stride, slots)
    return movies, dataset.index_movies(movies), specs


def cmd_predict(args) -> int:
    params = tensor_nn.load_params(args.ckpt)
    out_dir = Path(args.out)
    with contextlib.ExitStack() as stack:
        _, by_key, specs = _predict_specs(stack, args)
        out_dir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            clip = dataset.load_clip(spec, by_key)
            _write_clip_frames(trainer.predict(params, clip), spec, out_dir)
    print(f"wrote {len(specs)} prediction files to {out_dir}")
    return 0


def cmd_baseline(args) -> int:
    out_dir = Path(args.out)
    with contextlib.ExitStack() as stack:
        movies, by_key, specs = _predict_specs(stack, args)
        out_dir.mkdir(parents=True, exist_ok=True)
        model = None
        if args.kind == "slot_avg":
            train_movies = _open_movies(stack, Path(args.train)) if args.train else movies
            needed = sorted(
                {
                    s.t_start + dataset.INPUT_FRAMES + j
                    for s in specs
                    for j in range(dataset.TARGET_FRAMES)
                }
            )
            model = baselines.time_slot_average(train_movies, needed)
            if args.model_out:
                baselines.save_model(model, args.model_out)
        for spec in specs:
            if args.kind == "slot_avg":
                pred = baselines.predict_slot_average(model, spec)
            else:
                clip = dataset.load_clip(spec, by_key)
                pred = (
                    baselines.persistence(clip)
                    if args.kind == "persistence"
                    else baselines.zero_baseline(clip)
                )
            _write_clip_frames(pred, spec, out_dir)
    print(f"wrote {len(specs)} {args.kind} baseline files to {out_dir}")
    return 0


def cmd_targets(args) -> int:
    out_dir = Path(args.out)
    with contextlib.ExitStack() as stack:
        _, by_key, specs = _predict_specs(stack, args)
        out_dir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            clip = dataset.load_clip(spec, by_key)
            _write_clip_frames(clip.target, spec, out_dir)
    print(f"wrote {len(specs)} target files to {out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    pred_dir, truth_dir = Path(args.pred), Path(args.truth)
    names = {p.name for p in pred_dir.glob("*.tmm")}
    if not names:
        raise ValueError(f"no prediction files in {pred_dir}")
    truth_names = {p.name for p in truth_dir.glob("*.tmm")}
    if names != truth_names:
        # a partial evaluation must not pass as a result over fewer clips
        raise ValueError(
            f"prediction and truth files differ: {len(truth_names - names)} without a "
            f"prediction, {len(names - truth_names)} without truth, e.g. "
            f"{sorted(names ^ truth_names)[:3]}"
        )
    preds, truths, cities = [], [], []
    for name in sorted(names):
        with movie_store.open_movie(pred_dir / name) as m:
            preds.append(m.read_all())
            cities.append(m.header.city)
        with movie_store.open_movie(truth_dir / name) as m:
            truths.append(m.read_all())
    metrics = trainer.evaluate(preds, truths, cities)
    Path(args.report).write_text(json.dumps(dataclasses.asdict(metrics), indent=2) + "\n")
    print(f"overall MSE {metrics.overall:.6f} over {metrics.clips} clips -> {args.report}")
    return 0


def cmd_mask(args) -> int:
    with contextlib.ExitStack() as stack:
        mask = masks.build_mask(_open_movies(stack, Path(args.data)), args.threshold)
    masks.save_mask(mask, args.out)
    print(f"mask {args.out}: {int(mask.active.sum())} active pixels at threshold {args.threshold}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gridcast", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="store a dense .npy array as a TMM1 movie")
    sp.add_argument("--input", required=True, help="(t,c,h,w) uint8 .npy file")
    sp.add_argument("--city", required=True)
    sp.add_argument("--date", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("inspect", help="print a movie header; optionally dump frames")
    sp.add_argument("file")
    sp.add_argument("--dump", help="write the dense array to this .npy path")
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("synth", help="generate synthetic movies")
    sp.add_argument("--kind", required=True, choices=["constant", "time_ramp", "slot_pattern", "random"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--shape", default="288,3,32,32", help="t,c,h,w")
    sp.add_argument("--days", type=int, default=1)
    sp.add_argument("--city", default="synthville")
    sp.add_argument("--start-date", default="2019-01-07")
    sp.add_argument("--value", type=int, default=0, help="cell value for kind=constant")
    sp.add_argument(
        "--day-seed-step",
        type=int,
        default=0,
        help="seed increment per day (0 repeats the same movie every day)",
    )
    sp.add_argument("--out", required=True, help="output directory (or .tmm path for a single day)")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="train a U-Net on stored movies")
    sp.add_argument("--config", required=True, help="JSON config (unet/sgd/data sections)")
    sp.add_argument("--data", required=True, help="directory of .tmm movies")
    sp.add_argument("--out", required=True, help="checkpoint output path (UNP1)")
    sp.add_argument("--log", help="epoch CSV path (default: <out>.csv)")
    sp.set_defaults(func=cmd_train)

    def add_clip_source(sp):
        sp.add_argument("--data", required=True, help="directory of .tmm movies")
        sp.add_argument("--slots", help="test-slot filter file (one slot per line)")
        sp.add_argument("--stride", type=int, default=1)
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("predict", help="write 3-frame prediction movies per clip")
    sp.add_argument("--ckpt", required=True)
    add_clip_source(sp)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("baseline", help="write baseline predictions per clip")
    sp.add_argument("--kind", required=True, choices=["slot_avg", "persistence", "zero"])
    sp.add_argument("--train", help="training movies for slot_avg (default: --data)")
    sp.add_argument("--model-out", help="persist the slot-average model here")
    add_clip_source(sp)
    sp.set_defaults(func=cmd_baseline)

    sp = sub.add_parser("targets", help="write ground-truth 3-frame movies per clip")
    add_clip_source(sp)
    sp.set_defaults(func=cmd_targets)

    sp = sub.add_parser("evaluate", help="MSE report over paired prediction/truth files")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--report", required=True, help="JSON output path")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("mask", help="build an activity mask from movies")
    sp.add_argument("--data", required=True)
    sp.add_argument("--threshold", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_mask)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except trainer.NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
