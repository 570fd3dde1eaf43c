"""Timing hooks the benchmark installs around gridcast's public functions.

Nothing under ``src/`` knows about these hooks: they replace module
attributes from the outside and put the originals back on ``restore``.

* ``Clock`` is on in every run. It reads the clock once per training step
  (the time between two ``sgd_step`` returns, or from the epoch start that
  ``lr_schedule`` marks) and once per predicted clip (``trainer.predict`` and
  ``baselines.predict_slot_average``). That is all the end-to-end metrics
  need from inside a call.
* ``Tracer`` is on only in a traced run. It wraps the public functions of
  every layer, keeps a stack of open spans so each span's self time is its
  duration minus its children's, and adds counts computed from array shapes.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from gridcast import baselines, cli, dataset, masks, movie_store, tensor_nn, trainer

_now = time.perf_counter


class Patcher:
    """Replace attributes and put the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, owners, attr, make):
        """Replace ``attr`` on every owner with ``make(original)``.

        All owners must hold the same original object (a function imported
        by name into several modules).
        """
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {owners[0].__name__}.{attr}")
        wrapped = make(original)
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def owned_bytes(arrays) -> int:
    """Bytes of the distinct buffers that own ``arrays``, each counted once."""
    roots = {}
    for a in arrays:
        root = a
        while getattr(root, "base", None) is not None:
            root = root.base
        roots[id(root)] = root.nbytes if isinstance(root, np.ndarray) else memoryview(root).nbytes
    return sum(roots.values())


def clip_bytes(clips) -> int:
    return owned_bytes([a for c in clips for a in (c.input, c.target)])


class Clock:
    """Per-step and per-prediction wall times, recorded while ``recording``."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.recording = False
        self.steps: list[float] = []
        self.predicts: dict[str, list[float]] = {"trainer.predict": [], "baselines.predict_slot_average": []}
        self._tracer = tracer
        self._mark = _now()
        self._inner = 0.0

    def install(self, patcher: Patcher):
        def epoch_start(fn):
            def lr_schedule(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._start_step()
                return out
            return lr_schedule

        def step_end(fn):
            def sgd_step(*args, **kwargs):
                out = fn(*args, **kwargs)
                now = _now()
                if self.recording:
                    self.steps.append(now - self._mark)
                if self._tracer is not None:
                    self._tracer.add(
                        "trainer.step.self_s", now - self._mark - (self._step_inner() - self._inner)
                    )
                self._start_step()
                return out
            return sgd_step

        def per_clip(name):
            def make(fn):
                def predict(*args, **kwargs):
                    t0 = _now()
                    out = fn(*args, **kwargs)
                    if self.recording:
                        self.predicts[name].append(_now() - t0)
                    return out
                return predict
            return make

        patcher.wrap([trainer], "lr_schedule", epoch_start)
        patcher.wrap([trainer], "sgd_step", step_end)
        patcher.wrap([trainer], "predict", per_clip("trainer.predict"))
        patcher.wrap([baselines], "predict_slot_average", per_clip("baselines.predict_slot_average"))

    def _step_inner(self) -> float:
        t = self._tracer
        if t is None:
            return 0.0
        return t.running("tensor_nn.forward.s") + t.running("tensor_nn.backward.s") + t.running(
            "trainer.sgd_step.s"
        )

    def _start_step(self):
        self._inner = self._step_inner()
        self._mark = _now()


# kernel -> (metric kind, direction, height of the forward input from the call's arguments)
def _input_h(args):
    return args[0].shape[2]


def _pool_input_h(args):
    return 2 * args[1].shape[2]  # the pooled gradient is half the forward input


_KERNELS = {
    "conv2d_forward": ("conv", "fwd", _input_h),
    "conv2d_backward": ("conv", "bwd", _input_h),
    "maxpool2d_forward": ("pool", "fwd", _input_h),
    "maxpool2d_backward": ("pool", "bwd", _pool_input_h),
    "upconv2d_forward": ("upconv", "fwd", _input_h),
    "upconv2d_backward": ("upconv", "bwd", _input_h),
    "relu_forward": ("relu", "fwd", _input_h),
    "relu_backward": ("relu", "bwd", _input_h),
    "concat_channels": ("concat", "fwd", _input_h),
    "split_channels": ("concat", "bwd", _input_h),
}

_PEAKS = ("tensor_nn.activation_bytes", "dataset.clip_bytes_held")


def _conv_counts(args, backward: bool):
    x, k = args[0], args[1]
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    out = n * co * h * w
    flop = 2 * n * co * ci * kh * kw * h * w
    if backward:  # grad_k and grad_x each cost one forward; reads grad_out, writes grad_x and grad_k
        return 2 * flop, x.itemsize * (2 * x.size + 2 * k.size + out)
    return flop, x.itemsize * (x.size + k.size + out)


class Tracer:
    """Spans and counts per layer, kept in memory.

    ``bucket`` selects where spans go: "setup", "round" or None (not kept,
    used for warm-up). ``per_layer`` reports one set-up plus one round.
    """

    def __init__(self):
        self.bucket: str | None = None
        self._sums = {"setup": defaultdict(int), "round": defaultdict(int)}
        self._peaks: dict[str, int] = {}
        self._open: list[float] = []  # child time of each open span
        self._grid_h = 1

    def add(self, key: str, value):
        if self.bucket is not None:
            self._sums[self.bucket][key] += value

    def peak(self, key: str, value: int):
        if self.bucket is not None:
            self._peaks[key] = max(self._peaks.get(key, 0), value)

    def running(self, key: str):
        return self._sums["setup"].get(key, 0) + self._sums["round"].get(key, 0)

    def span(self, name: str, after=None, self_key: str | None = None):
        """Wrapper factory: time each call as ``name``; ``after(args, result, dt)``
        adds counts; ``self_key`` also records self time."""

        def make(fn):
            def traced(*args, **kwargs):
                self._open.append(0.0)
                t0 = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = _now() - t0
                    child = self._open.pop()
                    if self._open:
                        self._open[-1] += dt
                    self.add(name, dt)
                    if self_key:
                        self.add(self_key, dt - child)
                if after is not None:
                    after(args, result, dt)
                return result
            return traced

        return make

    def _level(self, h: int) -> int:
        return max(0, (self._grid_h // h).bit_length() - 1)

    def install(self, patcher: Patcher):
        for attr, (kind, direction, input_h) in _KERNELS.items():
            def after(args, result, dt, kind=kind, direction=direction, input_h=input_h):
                self.add(f"tensor_nn.level{self._level(input_h(args))}.{direction}_s", dt)
                if kind == "conv":
                    flop, nbytes = _conv_counts(args, direction == "bwd")
                    self.add("tensor_nn.conv.calls", 1)
                    self.add("tensor_nn.conv.flop", flop)
                    self.add("tensor_nn.conv.bytes", nbytes)
            patcher.wrap([tensor_nn], attr, self.span(f"tensor_nn.{kind}.{direction}_s", after))

        def grid_size(fn):
            def forward(params, x):
                self._grid_h = x.shape[2]
                return fn(params, x)
            return forward

        def after_forward(args, result, dt):
            cache = result[1]
            arrays = [a for a in _leaves(cache) if isinstance(a, np.ndarray)]
            self.peak("tensor_nn.activation_bytes", owned_bytes(arrays))

        fwd_owners = [tensor_nn, trainer]
        patcher.wrap(fwd_owners, "unet_forward_cached", self.span("tensor_nn.forward.s", after_forward))
        patcher.wrap(fwd_owners, "unet_forward_cached", grid_size)
        patcher.wrap([tensor_nn, trainer], "unet_backward_cached", self.span("tensor_nn.backward.s"))

        patcher.wrap([trainer], "sgd_step", self.span("trainer.sgd_step.s"))
        patcher.wrap([trainer], "validation_losses", self.span("trainer.validation_losses.s"))
        patcher.wrap([trainer], "predict", self.span("trainer.predict.s"))
        patcher.wrap([trainer], "evaluate", self.span("trainer.evaluate.s"))
        patcher.wrap(
            [trainer],
            "train",
            self.span(
                "trainer.train.s",
                lambda args, result, dt: self.peak(
                    "dataset.clip_bytes_held", clip_bytes(list(args[2]) + list(args[3]))
                ),
            ),
        )

        def after_read(args, result, dt):
            reader, _, count = args
            self.add("movie_store.read_frames.calls", 1)
            self.add("movie_store.read_frames.bytes", count * reader.header.frame_bytes)

        patcher.wrap([movie_store.MovieReader], "read_frames", self.span("movie_store.read_frames.s", after_read))
        patcher.wrap(
            [movie_store, baselines, masks],
            "ingest",
            self.span(
                "movie_store.ingest.s",
                lambda args, result, dt: self.add("movie_store.ingest.bytes", np.asarray(args[0]).nbytes),
            ),
        )

        patcher.wrap(
            [dataset],
            "load_clip",
            self.span("dataset.load_clip.s", lambda args, result, dt: self.add("dataset.load_clip.calls", 1)),
        )
        patcher.wrap([baselines], "time_slot_average", self.span("baselines.time_slot_average.s"))
        patcher.wrap([baselines], "predict_slot_average", self.span("baselines.predict_slot_average.s"))
        patcher.wrap(
            [masks],
            "build_mask",
            self.span(
                "masks.build_mask.s",
                lambda args, result, dt: self.add(
                    "masks.build_mask.bytes", sum(m.header.payload_bytes for m in args[0])
                ),
            ),
        )

        for command in ("synth", "train", "predict", "baseline", "targets", "evaluate"):
            patcher.wrap(
                [cli], f"cmd_{command}", self.span(f"cli.{command}.s", self_key=f"cli.{command}.self_s")
            )

    def per_layer(self, names, setup_reps: int, rounds: int) -> dict[str, float]:
        """Each metric as one set-up plus one round; counts stay exact integers."""

        def per_run(key):
            total = 0
            for bucket, n in (("setup", setup_reps), ("round", rounds)):
                value = self._sums[bucket].get(key, 0)
                if isinstance(value, int) and value % n == 0:
                    total += value // n
                else:
                    total += value / n
            return total

        out = {}
        conv_s = per_run("tensor_nn.conv.fwd_s") + per_run("tensor_nn.conv.bwd_s")
        for name in names:
            if name in _PEAKS:
                out[name] = self._peaks.get(name, 0)
            elif name == "tensor_nn.conv.gflop":
                out[name] = per_run("tensor_nn.conv.flop") / 1e9
            elif name == "tensor_nn.conv.gflop_per_s":
                out[name] = per_run("tensor_nn.conv.flop") / 1e9 / conv_s if conv_s else 0.0
            else:
                out[name] = per_run(name)
        return out


def _leaves(obj):
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj
