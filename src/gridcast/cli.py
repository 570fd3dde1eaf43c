"""Command-line pipeline: ingest, synth, train, predict, baseline, evaluate, mask.

Exit codes: 0 success, 2 usage or data error or a request for more memory than
the host gives, 3 numerical failure.

The train command reads a single JSON config with three optional sections,
"unet", "sgd" and "data". The fields of ``tensor_nn.UNetConfig``,
``trainer.SGDConfig`` and ``DataConfig`` are each section's keys, defaults
(the published training recipe) and value kinds; the U-Net's 12*c input and
3*c output channels come from the movies' c channels, not from the config.
An unknown section or key, a value of the wrong kind or one its dataclass
rejects is an error (exit 2) before any movie is opened; so, once the movies
are open, is a listed date with no movie. The defaults, in full:

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


def _check_out(out: str, *siblings: str) -> None:
    """ValueError naming ``--out`` when it could not be written once the work is
    done: its parent is not a directory, or it or one of ``siblings`` is one."""
    for p in (out, *siblings):
        if Path(p).is_dir():
            raise ValueError(f"--out {out}: {p} is a directory")
    if not Path(out).parent.is_dir():
        raise ValueError(f"--out {out}: {Path(out).parent} is not a directory")


def cmd_ingest(args) -> int:
    with open(args.input, "rb") as f:  # one .npy array, no pickles, and nothing after it
        raw = np.lib.format.read_array(f, allow_pickle=False)
        if f.read(1):
            raise ValueError(f"{args.input}: bytes follow the .npy array")
    path = movie_store.ingest(raw, args.city, args.date, args.out)
    with movie_store.open_movie(path) as m:
        h = m.header
        print(f"{path}: city={h.city} date={h.date} t={h.t} c={h.c} h={h.h} w={h.w}")
    return 0


def cmd_inspect(args) -> int:
    with open(args.file, "rb") as f:
        checkpoint = f.read(len(tensor_nn.CKPT_MAGIC)) == tensor_nn.CKPT_MAGIC
    if checkpoint:
        if args.dump:
            raise ValueError(f"{args.file} is a UNP2 checkpoint: --dump writes a movie's frames")
        params = tensor_nn.load_params(args.file)
        print(f"{args.file}: UNP2 checkpoint {params.config}")
        for name, w in params.tensors.items():
            print(f"{name} shape={'x'.join(map(str, w.shape))} l2={np.linalg.norm(w.astype(np.float64)):.6g}")
        return 0
    with movie_store.open_movie(args.file) as m:
        h = m.header
        print(
            f"{args.file}: city={h.city} date={h.date} t={h.t} c={h.c} "
            f"h={h.h} w={h.w} payload={h.payload_bytes}B"
        )
        if h.date == "MASK":
            mask = masks.load_mask(args.file)
            print(
                f"mask: threshold={mask.threshold} source_span={mask.source_span} "
                f"active={np.count_nonzero(mask.active)} of {mask.active.size} pixels"
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
    if args.value is not None and args.kind != "constant":
        raise ValueError(f"--value sets the cells of kind constant, not of {args.kind}")
    out = Path(args.out)
    single = out.suffix == ".tmm"
    if single and args.days > 1:
        raise ValueError(f"--out {out} names one .tmm file, but --days {args.days} writes {args.days} days")
    start = _date.fromisoformat(args.start_date)
    # a movie is a function of kind, seed, shape and value: every day is this one
    movie = dataset.synth_movie(args.kind, args.seed, shape, value=args.value or 0)
    # the first day's header: a city that MovieHeader rejects fails before --out is made
    movie_store.MovieHeader(movie_store.VERSION, *shape, args.city, start.isoformat())
    if not single:  # made once the movie exists, so a rejected one leaves nothing
        out.mkdir(parents=True, exist_ok=True)
    for i in range(args.days):
        day = (start + timedelta(days=i)).isoformat()
        path = out if single else out / f"{args.city}_{day}.tmm"
        movie_store.ingest(movie, args.city, day, path)
        print(f"wrote {path}")
    return 0


@dataclasses.dataclass(frozen=True)
class DataConfig:
    """The train config's "data" section: which days and clips to train and validate on."""

    city: str | None = None
    stride: int = 1
    val_stride: int | None = None  # None: stride
    train_dates: list[str] | None = None  # both None: the last quarter of the days validates
    val_dates: list[str] | None = None
    test_slots_file: str | None = None  # relative: to the config file's directory
    train_on_test_slots_only: bool = False

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"config data.stride must be >= 1, got {self.stride}")
        if (self.train_dates is None) != (self.val_dates is None):
            raise ValueError("config must set both train_dates and val_dates or neither")
        both = sorted(set(self.train_dates or ()) & set(self.val_dates or ()))
        if both:
            raise ValueError(f"config dates {both} are in both train_dates and val_dates")
        if self.train_on_test_slots_only and not self.test_slots_file:
            raise ValueError("config sets train_on_test_slots_only but no test_slots_file")


# each section's dataclass; its fields are the section's keys, defaults and
# kinds, less the U-Net's channel counts, which the movies set
_SECTIONS = {"unet": tensor_nn.UNetConfig, "sgd": trainer.SGDConfig, "data": DataConfig}
_FROM_MOVIES = ("in_channels", "out_channels")

# the kind of config value each field annotation takes, named as an error
# names it, and its test (``type(v) is int`` is false for true and false)
_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str | None": ("null or a string", lambda v: v is None or type(v) is str),
    "list[str] | None": (
        "null or a list of strings", lambda v: v is None or (type(v) is list and all(type(d) is str for d in v))
    ),
    "int | None": ("null or an integer >= 1", lambda v: v is None or (type(v) is int and v >= 1)),
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
    kinds = {f.name: f.type for f in dataclasses.fields(_SECTIONS[name]) if f.name not in _FROM_MOVIES}
    section = _object(cfg.get(name, {}), where, kinds)
    for key, value in section.items():
        kind, ok = _KINDS[kinds[key]]
        if not ok(value):
            raise ValueError(f"{where}: {key!r} must be {kind}, got {json.dumps(value)}")
    return section


def _read_config(path) -> tuple[tensor_nn.UNetConfig, trainer.SGDConfig, DataConfig]:
    """The train config's three sections with their defaults filled in; the U-Net's
    channel counts are left at their defaults for ``cmd_train`` to set from the movies."""
    cfg = _object(json.loads(Path(path).read_text()), "config", _SECTIONS)
    sections = {cls: _section(cfg, name) for name, cls in _SECTIONS.items()}  # every kind first
    return tuple(cls(**section) for cls, section in sections.items())


def _split_dates(dates: list[str], data_cfg: DataConfig) -> tuple[list[str], list[str]]:
    if data_cfg.train_dates is None:  # and so is val_dates
        # default split: last quarter of the days (at least one) validates
        if len(dates) < 2:
            raise ValueError(
                f"the default split needs at least two days, --data has {dates}: "
                "set data.train_dates and data.val_dates"
            )
        n_val = max(1, len(dates) // 4)
        return dates[:-n_val], dates[-n_val:]
    missing = sorted(set(data_cfg.train_dates + data_cfg.val_dates) - set(dates))
    if missing:
        city = f" of city {data_cfg.city}" if data_cfg.city is not None else ""
        raise ValueError(f"config dates {missing} have no movie{city} in --data")
    return data_cfg.train_dates, data_cfg.val_dates


def cmd_train(args) -> int:
    unet_cfg, sgd_cfg, data_cfg = _read_config(args.config)
    log_path = f"{args.out}.csv"
    _check_out(args.out, log_path)  # before the epochs, not after them

    with contextlib.ExitStack() as stack:
        movies = _open_movies(stack, Path(args.data), data_cfg.city)
        cities = sorted({m.header.city for m in movies})
        if len(cities) > 1:
            raise ValueError(
                f"training is strictly per city; found {cities}, set data.city in the config"
            )
        dates = sorted({m.header.date for m in movies})
        train_dates, val_dates = _split_dates(dates, data_cfg)
        by_key = dataset.index_movies(movies)
        test_slots = None
        if data_cfg.test_slots_file:  # a relative path starts at the config file's directory
            slots_path = Path(args.config).parent / data_cfg.test_slots_file
            test_slots = dataset.read_slots(slots_path, max(m.header.t for m in movies))

        train_movies = [m for m in movies if m.header.date in train_dates]
        val_movies = [m for m in movies if m.header.date in val_dates]
        train_slots = test_slots if data_cfg.train_on_test_slots_only else None
        train_specs = dataset.enumerate_clips(train_movies, data_cfg.stride, train_slots)
        val_stride = data_cfg.val_stride or data_cfg.stride
        val_specs = dataset.enumerate_clips(val_movies, val_stride)
        if not train_specs:  # before any clip is read
            slots = f" and the slots of {data_cfg.test_slots_file}" if train_slots is not None else ""
            raise ValueError(f"no training clip in {len(train_movies)} days at stride {data_cfg.stride}{slots}")
        if not val_specs:
            raise ValueError(f"no validation clip in {len(val_movies)} days at stride {val_stride}")
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
        params = 4 * 4 * sum(map(math.prod, tensor_nn._param_shapes(unet_cfg).values()))
        days = set(used)  # each counted once: a day's clips are views into one buffer
        data = sum(m.header.payload_bytes for m in days)
        batch = min(sgd_cfg.batch_size, len(train_specs))
        padded = [n + (-n) % unet_cfg.spatial_multiple for n in grid[1:]]
        cache = tensor_nn.cache_bytes(unet_cfg, batch, *padded)
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if params + data + cache > memory:
            raise ValueError(
                f"{unet_cfg}: {data:,} bytes of data ({len(days)} days), {params:,} bytes of "
                f"parameters and {cache:,} bytes of activations (batch {batch}, "
                f"{padded[0]}x{padded[1]}) exceed the {memory:,} bytes of memory"
            )
        train_clips = [dataset.load_clip(s, by_key) for s in train_specs]
        val_clips = [dataset.load_clip(s, by_key) for s in val_specs]
    result = trainer.train(unet_cfg, sgd_cfg, train_clips, val_clips, test_slots)
    tensor_nn.save_params(result.best_params, args.out)
    trainer.write_epoch_log(log_path, result.log)
    print(
        f"trained {sgd_cfg.epochs} epochs on {len(train_clips)} clips; "
        f"best val MSE {result.best_val_mse:.4f}; wrote {args.out} and {log_path}"
    )
    return 0


def _movie_file(p: Path, leftover: bool) -> bool:
    """Whether ``p`` is a .tmm file or, with ``leftover``, the .tmm.part file that
    a killed clip write leaves behind."""
    return p.is_file() and Path(p.name.removesuffix(".part") if leftover else p.name).suffix == ".tmm"


@contextlib.contextmanager
def _atomic_dir(path: Path):
    """Yield a fresh ``<path>.part`` directory and swap it in for ``path`` when the
    block ends: ``path`` is renamed to ``<path>.old``, ``<path>.part`` to ``path``,
    and the old one is removed. A failed block removes ``<path>.part`` and leaves
    ``path`` as it was. ValueError first if ``path`` or either sibling exists and
    is not a directory of only .tmm files (a sibling may also hold .tmm.part
    files), so no other file is ever removed."""
    part, old = Path(f"{path}.part"), Path(f"{path}.old")
    for d in (path, part, old):
        if d.exists() and not (d.is_dir() and all(_movie_file(p, d != path) for p in d.iterdir())):
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
    ``--out`` is an input directory, ``--slots`` holds a slot that no day
    has, or the selection has no clip.
    """
    out_dir = Path(args.out)
    inputs = [Path(d).resolve() for d in (args.data, getattr(args, "train", None)) if d]
    if out_dir.resolve() in inputs:
        raise ValueError(f"--out {out_dir} is an input directory")
    with _atomic_dir(out_dir) as part, contextlib.ExitStack() as stack:
        movies = _open_movies(stack, Path(args.data))
        slots = dataset.read_slots(args.slots, max(m.header.t for m in movies)) if args.slots else None
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
    if args.kind != "slot_avg" and args.train is not None:
        raise ValueError(f"--train is for --kind slot_avg; --kind {args.kind} has no model")

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
        cities = sorted({m.header.city for m in train_movies + movies})
        if len(cities) > 1:
            raise ValueError(f"the slot average is strictly per city; --train and --data hold {cities}")
        model = baselines.time_slot_average(train_movies, needed)
        return lambda spec, clip: baselines.predict_slot_average(model, spec)

    return _write_per_clip(args, f"{args.kind} baseline", make_frames)


def cmd_targets(args) -> int:
    def make_frames(stack, movies, specs):
        by_key = dataset.index_movies(movies)  # a clip's 3 target frames, not its 15
        start, n = dataset.INPUT_FRAMES, dataset.TARGET_FRAMES
        return lambda spec, clip: by_key[spec.city, spec.day].read_frames(spec.t_start + start, n)

    return _write_per_clip(args, "target", make_frames)


def cmd_evaluate(args) -> int:
    pred_dir, truth_dir = Path(args.pred), Path(args.truth)
    if pred_dir.resolve() == truth_dir.resolve():  # which would score a perfect 0
        raise ValueError(f"--pred {pred_dir} and --truth {truth_dir} are the same directory")
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
    keys = []  # each prediction's (city, date), recorded as evaluate reads it, before its truth

    def frames(directory, truth):  # one clip's frames at a time, read as evaluate asks for them
        for i, name in enumerate(order):
            with movie_store.open_movie(directory / name) as m:
                key = m.header.city, m.header.date
                if not truth:
                    keys.append(key)
                elif key != keys[i]:
                    raise ValueError(f"{name}: the truth is of {key}, its prediction of {keys[i]}")
                clip = m.read_all()
            yield clip

    metrics = trainer.evaluate(frames(pred_dir, False), frames(truth_dir, True), (city for city, _ in keys))
    with movie_store._atomic_write(args.report, "w") as f:
        json.dump(dataclasses.asdict(metrics), f, indent=2)
        f.write("\n")
    print(f"overall MSE {metrics.overall:.6f} over {metrics.clips} clips -> {args.report}")
    return 0


def cmd_mask(args) -> int:
    _check_out(args.out)
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

    sp = sub.add_parser(
        "inspect",
        help="print a movie header (and a mask's contents) or checkpoint tensors; "
        "optionally dump a movie's frames",
    )
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
    sp.add_argument("--value", type=int, help="cell value (0-255) for kind=constant (default 0)")
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
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
