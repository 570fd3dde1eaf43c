"""Command-line pipeline: ingest, synth, train, predict, baseline, evaluate, mask.

Exit codes: 0 success, 2 usage or data error, 3 numerical failure.

The train command reads a single JSON config with three optional sections,
"unet", "sgd" and "data"; every omitted key falls back to the built-in
defaults (the published training recipe), and an unknown section or key is an
error (exit 2). The U-Net's 12*c input and 3*c output channels come from the
movies' c channels, not from the config. Example:

    {
      "unet": {"depth": 5, "base_channels": 64, "normalize": false},
      "sgd":  {"lr_initial": 0.02, "lr_after_drop": 0.001, "drop_epoch": 5,
               "momentum": 0.9, "batch_size": 5, "epochs": 12, "seed": 0},
      "data": {"city": null, "stride": 1, "val_stride": null,
               "train_dates": null, "val_dates": null,
               "test_slots_file": null, "train_on_test_slots_only": false}
    }
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import shutil
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


def _check_channels(movies, cfg: tensor_nn.UNetConfig) -> None:
    """ValueError naming the first movie whose c channels do not make the
    U-Net's 12*c input and 3*c output channels."""
    for m in movies:
        c = m.header.c
        if (cfg.in_channels, cfg.out_channels) != (dataset.INPUT_FRAMES * c, dataset.TARGET_FRAMES * c):
            raise ValueError(
                f"{m.path}: c={c} needs a U-Net with {dataset.INPUT_FRAMES * c} input and "
                f"{dataset.TARGET_FRAMES * c} output channels, not {cfg.in_channels} and {cfg.out_channels}"
            )


def _clip_name(spec: dataset.ClipSpec) -> str:
    return f"{spec.city}__{spec.day}__t{spec.t_start:04d}.tmm"


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
            with movie_store._atomic_write(args.dump) as f:
                np.save(f, m.read_all())
            print(f"dumped dense array to {args.dump}")
    return 0


def cmd_synth(args) -> int:
    shape = tuple(int(v) for v in args.shape.split(","))
    if len(shape) != 4:
        raise ValueError(f"--shape must be t,c,h,w, got {args.shape!r}")
    if args.days < 1:
        raise ValueError(f"--days must be >= 1, got {args.days}")
    out = Path(args.out)
    start = _date.fromisoformat(args.start_date)
    single = args.days == 1 and out.suffix == ".tmm"
    for i in range(args.days):
        day = (start + timedelta(days=i)).isoformat()
        movie = dataset.synth_movie(args.kind, args.seed, shape, value=args.value)
        if not single:  # made once the first movie exists, so a rejected one leaves nothing
            out.mkdir(parents=True, exist_ok=True)
        path = out if single else out / f"{args.city}_{day}.tmm"
        movie_store.ingest(movie, args.city, day, path)
        print(f"wrote {path}")
    return 0


_DATA_DEFAULTS = {
    "city": None, "stride": 1, "val_stride": None, "train_dates": None,
    "val_dates": None, "test_slots_file": None, "train_on_test_slots_only": False,
}

# the kinds of config value, named as an error names them, and their tests
# (``type(v) is int`` is false for true and false)
_INT, _NUMBER, _BOOL = "an integer", "a finite number", "true or false"
_STR, _DATES, _STRIDE = "null or a string", "null or a list of strings", "null or an integer >= 1"
_KINDS = {
    _INT: lambda v: type(v) is int,
    _NUMBER: lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    _BOOL: lambda v: type(v) is bool,
    _STR: lambda v: v is None or type(v) is str,
    _DATES: lambda v: v is None or (type(v) is list and all(type(d) is str for d in v)),
    _STRIDE: lambda v: v is None or (type(v) is int and v >= 1),
}

# every settable key of each config section and the kind of its value
_SCHEMA = {
    "unet": {"depth": _INT, "base_channels": _INT, "normalize": _BOOL},
    "sgd": {
        "lr_initial": _NUMBER, "lr_after_drop": _NUMBER, "drop_epoch": _INT, "momentum": _NUMBER,
        "batch_size": _INT, "epochs": _INT, "seed": _INT,
    },
    "data": {
        "city": _STR, "stride": _INT, "val_stride": _STRIDE, "train_dates": _DATES,
        "val_dates": _DATES, "test_slots_file": _STR, "train_on_test_slots_only": _BOOL,
    },
}


def _object(value, where: str, keys) -> dict:
    """``value`` itself; ValueError unless it is a JSON object with keys only from ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where}")
    return value


def _section(cfg: dict, name: str) -> dict:
    """Config section ``name``; ValueError naming the key of any value not of its kind."""
    where = f"config section {name!r}"
    section = _object(cfg.get(name, {}), where, _SCHEMA[name])
    for key, value in section.items():
        kind = _SCHEMA[name][key]
        if not _KINDS[kind](value):
            raise ValueError(f"{where}: {key!r} must be {kind}, got {json.dumps(value)}")
    return section


def _read_config(path) -> tuple[tensor_nn.UNetConfig, trainer.SGDConfig, dict]:
    """The train config's U-Net and SGD configs and its data section with
    defaults filled in; the U-Net's channel counts are left at their defaults
    for ``cmd_train`` to set from the movies."""
    cfg = _object(json.loads(Path(path).read_text()), "config", _SCHEMA)
    unet, sgd, data = (_section(cfg, name) for name in _SCHEMA)
    return tensor_nn.UNetConfig(**unet), trainer.SGDConfig(**sgd), {**_DATA_DEFAULTS, **data}


def _split_dates(dates: list[str], data_cfg: dict) -> tuple[list[str], list[str]]:
    train_dates = data_cfg["train_dates"]
    val_dates = data_cfg["val_dates"]
    if train_dates is None and val_dates is None:
        # default split: last quarter of the days (at least one) validates
        n_val = max(1, len(dates) // 4)
        return dates[:-n_val], dates[-n_val:]
    if train_dates is None or val_dates is None:
        raise ValueError("config must set both train_dates and val_dates or neither")
    return list(train_dates), list(val_dates)


def cmd_train(args) -> int:
    unet_cfg, sgd_cfg, data_cfg = _read_config(args.config)

    with contextlib.ExitStack() as stack:
        movies = _open_movies(stack, Path(args.data), data_cfg["city"])
        cities = sorted({m.header.city for m in movies})
        if len(cities) > 1:
            raise ValueError(
                f"training is strictly per city; found {cities}, set data.city in the config"
            )
        dates = sorted({m.header.date for m in movies})
        train_dates, val_dates = _split_dates(dates, data_cfg)
        by_key = dataset.index_movies(movies)
        slots_file = data_cfg["test_slots_file"]
        test_slots = dataset.read_slots(slots_file) if slots_file else None
        stride = data_cfg["stride"]
        val_stride = data_cfg["val_stride"] or stride

        train_movies = [m for m in movies if m.header.date in train_dates]
        val_movies = [m for m in movies if m.header.date in val_dates]
        train_specs = dataset.enumerate_clips(
            train_movies,
            stride,
            test_slots if data_cfg["train_on_test_slots_only"] else None,
        )
        val_specs = dataset.enumerate_clips(val_movies, val_stride)
        used = train_movies + val_movies  # both nonempty, or enumerate_clips raised
        grid = used[0].header.shape[1:]
        movie_store.check_grid(used, grid, f"{used[0].path}'s")
        if unet_cfg.spatial_multiple > max(grid[1:]):
            raise ValueError(f"unet.depth {unet_cfg.depth} pools a {grid[1]}x{grid[2]} grid below 1 pixel")
        c = grid[0]
        unet_cfg = dataclasses.replace(
            unet_cfg, in_channels=dataset.INPUT_FRAMES * c, out_channels=dataset.TARGET_FRAMES * c
        )
        # params, velocity, the best copy and the gradients, each float32
        need = 4 * 4 * sum(map(math.prod, tensor_nn._param_shapes(unet_cfg).values()))
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > memory:
            raise ValueError(f"{unet_cfg}: {need:,} bytes of parameters exceed the {memory:,} of memory")
        train_clips = [dataset.load_clip(s, by_key) for s in train_specs]
        val_clips = [dataset.load_clip(s, by_key) for s in val_specs]
    result = trainer.train(unet_cfg, sgd_cfg, train_clips, val_clips, test_slots)
    tensor_nn.save_params(result.best_params, args.out)
    log_path = f"{args.out}.csv"
    trainer.write_epoch_log(log_path, result.log)
    print(
        f"trained {sgd_cfg.epochs} epochs on {len(train_clips)} clips; "
        f"best val MSE {result.best_val_mse:.4f}; wrote {args.out} and {log_path}"
    )
    return 0


@contextlib.contextmanager
def _atomic_dir(path: Path):
    """Yield a fresh ``<path>.part`` directory and swap it in for ``path`` when the
    block ends: ``path`` is renamed to ``<path>.old``, ``<path>.part`` to ``path``,
    and the old one is removed. A failed block removes ``<path>.part`` and leaves
    ``path`` as it was. ValueError first if ``path`` or either sibling exists and
    is not a directory of only .tmm files, so no other file is ever removed."""
    part, old = Path(f"{path}.part"), Path(f"{path}.old")
    for d in (path, part, old):
        if d.exists() and not (d.is_dir() and all(p.suffix == ".tmm" and p.is_file() for p in d.iterdir())):
            raise ValueError(f"{d} exists and is not a directory of .tmm files only: not replaced")
    for d in (part, old):  # left by a run that was killed
        shutil.rmtree(d, ignore_errors=True)
    part.mkdir(parents=True)
    try:
        yield part
    except BaseException:
        shutil.rmtree(part)
        raise
    if path.exists():
        path.rename(old)
    part.rename(path)
    shutil.rmtree(old, ignore_errors=True)  # absent if there was no old path


def _write_per_clip(args, what: str, make_frames) -> int:
    """Write one 3-frame movie per clip of ``--data`` (enumerated with
    ``--slots`` and ``--stride``) as the new contents of ``--out``, named by
    ``_clip_name``; a failure leaves ``--out`` as it was (``_atomic_dir``).

    ``make_frames(stack, movies, specs)`` runs once before the loop and returns
    ``frames_of(spec, clip)``, which gives a clip's 3 frames; ``clip()`` loads
    the clip from its movie. ValueError, before ``--out`` is touched, if
    ``--out`` is an input directory or the selection has no clip.
    """
    out_dir = Path(args.out)
    inputs = [Path(d).resolve() for d in (args.data, getattr(args, "train", None)) if d]
    if out_dir.resolve() in inputs:
        raise ValueError(f"--out {out_dir} is an input directory")
    with _atomic_dir(out_dir) as part, contextlib.ExitStack() as stack:
        movies = _open_movies(stack, Path(args.data))
        slots = dataset.read_slots(args.slots) if args.slots else None
        specs = dataset.enumerate_clips(movies, args.stride, slots)
        if not specs:
            raise ValueError(f"no clip of {args.data} matches --slots and --stride: no {what} to write")
        by_key = dataset.index_movies(movies)
        frames_of = make_frames(stack, movies, specs)
        for spec in specs:
            frames = frames_of(spec, lambda: dataset.load_clip(spec, by_key))
            movie_store.ingest(frames, spec.city, spec.day, part / _clip_name(spec))
    print(f"wrote {len(specs)} {what} files to {out_dir}")
    return 0


def cmd_predict(args) -> int:
    params = tensor_nn.load_params(args.ckpt)

    def make_frames(stack, movies, specs):
        _check_channels(movies, params.config)  # grids may differ: the net is fully convolutional
        return lambda spec, clip: trainer.predict(params, clip())

    return _write_per_clip(args, "prediction", make_frames)


def cmd_baseline(args) -> int:
    def make_frames(stack, movies, specs):
        if args.kind == "persistence":
            return lambda spec, clip: baselines.persistence(clip())
        if args.kind == "zero":
            return lambda spec, clip: baselines.zero_baseline(clip())
        train_movies = _open_movies(stack, Path(args.train)) if args.train else movies
        needed = {
            s.t_start + dataset.INPUT_FRAMES + j
            for s in specs
            for j in range(dataset.TARGET_FRAMES)
        }
        movie_store.check_grid(movies, train_movies[0].header.shape[1:], "the slot-average model's")
        model = baselines.time_slot_average(train_movies, needed)
        if args.model_out:
            baselines.save_model(model, args.model_out)
        return lambda spec, clip: baselines.predict_slot_average(model, spec)

    return _write_per_clip(args, f"{args.kind} baseline", make_frames)


def cmd_targets(args) -> int:
    return _write_per_clip(args, "target", lambda *_: lambda spec, clip: clip().target)


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
    order = sorted(names)
    cities = []
    for name in order:  # headers only
        with movie_store.open_movie(pred_dir / name) as m:
            cities.append(m.header.city)

    def frames(directory):  # one clip's frames at a time, read as evaluate asks for them
        for name in order:
            with movie_store.open_movie(directory / name) as m:
                clip = m.read_all()
            yield clip

    metrics = trainer.evaluate(frames(pred_dir), frames(truth_dir), cities)
    with movie_store._atomic_write(args.report, "w") as f:
        json.dump(dataclasses.asdict(metrics), f, indent=2)
        f.write("\n")
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
    sp.add_argument("--dump", help="write the dense array in .npy format to this path, as given")
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("synth", help="generate synthetic movies")
    sp.add_argument("--kind", required=True, choices=["constant", "time_ramp", "slot_pattern", "random"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--shape", default="288,3,32,32", help="t,c,h,w")
    sp.add_argument("--days", type=int, default=1)
    sp.add_argument("--city", default="synthville")
    sp.add_argument("--start-date", default="2019-01-07")
    sp.add_argument("--value", type=int, default=0, help="cell value (0-255) for kind=constant")
    sp.add_argument("--out", required=True, help="output directory (or .tmm path for a single day)")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="train a U-Net on stored movies")
    sp.add_argument("--config", required=True, help="JSON config (unet/sgd/data sections)")
    sp.add_argument("--data", required=True, help="directory of .tmm movies")
    sp.add_argument("--out", required=True, help="UNP2 checkpoint path; the epoch log goes to <out>.csv")
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
