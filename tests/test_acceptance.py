"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Full-scale benchmark scores require the original multi-city dataset, which is
not redistributable; every criterion here is a desk-scale property check on
synthetic data with pinned tolerances. Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

import gridcast as gc
from gradcheck import max_rel_err, numeric_grad, numeric_grad_sampled
from gridcast import baselines, dataset, masks, tensor_nn as tn, trainer
from gridcast.cli import main as cli_main


def check(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


# ---------------------------------------------------------------------------
# storage

def test_storage_roundtrip_and_read_locality(tmp_path):
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    ok = True
    for i in range(100):
        shape = (
            int(rng.integers(1, 17)),
            int(rng.integers(1, 4)),
            int(rng.integers(1, 65)),
            int(rng.integers(1, 65)),
        )
        raw = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = gc.ingest(raw, f"city{i % 3}", f"2019-06-{i % 28 + 1:02d}", tmp_path / f"{i}.tmm")
        with gc.open_movie(path) as m:
            ok &= np.array_equal(m.read_all(), raw)
            ok &= m.payload_bytes_read == raw.size
            t, c, h, w = shape
            n = int(rng.integers(1, t + 1))
            start = int(rng.integers(0, t - n + 1))
            before = m.payload_bytes_read
            frames = m.read_frames(start, n)
            ok &= m.payload_bytes_read - before == n * c * h * w
            ok &= np.array_equal(frames, raw[start : start + n])
    elapsed = time.perf_counter() - t0
    check(f"storage round-trip: 100 movies byte-exact, per-call I/O exact ({elapsed:.1f}s < 10s)",
          ok and elapsed < 10.0)


# ---------------------------------------------------------------------------
# collapse transform

def naive_collapse(frames):
    t, c, h, w = frames.shape
    out = np.empty((t * c, h, w), dtype=frames.dtype)
    for ti in range(t):
        for ci in range(c):
            out[ti * c + ci] = frames[ti, ci]
    return out


def test_collapse_matches_oracle_and_inverts():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        frames = rng.integers(0, 256, size=(12, 3, h, w), dtype=np.uint8)
        sample = gc.collapse_time(frames)
        ok &= sample.data.shape == (36, h, w)
        ok &= np.array_equal(sample.data, naive_collapse(frames))
        ok &= np.array_equal(gc.expand_time(sample), frames)
    elapsed = time.perf_counter() - t0
    check(f"collapse: 50 random tensors match naive reshape oracle, expand inverts ({elapsed:.1f}s < 5s)",
          ok and elapsed < 5.0)


# ---------------------------------------------------------------------------
# slot-average baseline

def test_slot_average_equals_brute_force(tmp_path):
    t0 = time.perf_counter()
    days = [dataset.synth_movie("random", 200 + i, (48, 3, 12, 10)) for i in range(5)]
    movies = [
        gc.open_movie(gc.ingest(raw, "c", f"2019-07-{i + 1:02d}", tmp_path / f"{i}.tmm"))
        for i, raw in enumerate(days)
    ]
    slots = list(range(48))
    model = baselines.time_slot_average(movies, slots)
    stacked = np.stack(days).astype(np.float64)
    # the model holds each slot's mean rounded half-up
    exact = all(
        np.array_equal(model.frames[s], np.floor(stacked[:, s].mean(axis=0) + 0.5)) for s in slots
    )
    permuted = baselines.time_slot_average(list(reversed(movies)), slots)
    stable = permuted.slots == slots and all(
        np.array_equal(model.frames[s], permuted.frames[s]) for s in slots
    )
    elapsed = time.perf_counter() - t0
    for m in movies:
        m.close()
    check(
        f"slot-average: frames equal the half-up brute-force means, day-permutation invariant ({elapsed:.1f}s < 10s)",
        exact and stable and elapsed < 10.0,
    )


# ---------------------------------------------------------------------------
# gradients

def _kernel_checks(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0

    x = rng.normal(size=(1, 2, 4, 4))
    k = rng.normal(size=(2, 2, 3, 3))
    b = rng.normal(size=2)
    go = rng.normal(size=(1, 2, 4, 4))
    loss = lambda: float(np.sum(go * tn.conv2d_forward(x, k, b)))
    gx, gk, gb = tn.conv2d_backward(x, k, go)
    for a, v in ((gx, x), (gk, k), (gb, b)):
        worst = max(worst, max_rel_err(a, numeric_grad(loss, v)))

    xu = rng.normal(size=(1, 2, 3, 3))
    ku = rng.normal(size=(2, 3, 2, 2))
    bu = rng.normal(size=3)
    gou = rng.normal(size=(1, 3, 6, 6))
    loss_u = lambda: float(np.sum(gou * tn.upconv2d_forward(xu, ku, bu)))
    gxu, gku, gbu = tn.upconv2d_backward(xu, ku, gou)
    for a, v in ((gxu, xu), (gku, ku), (gbu, bu)):
        worst = max(worst, max_rel_err(a, numeric_grad(loss_u, v)))

    xm = rng.permutation(2 * 36).astype(np.float64).reshape(1, 2, 6, 6)  # untied
    gom = rng.normal(size=(1, 2, 3, 3))
    loss_m = lambda: float(np.sum(gom * tn.maxpool2d_forward(xm)))
    worst = max(worst, max_rel_err(tn.maxpool2d_backward(xm, gom), numeric_grad(loss_m, xm)))

    xr = rng.normal(size=30)
    xr[np.abs(xr) < 0.05] = 0.3  # away from the ReLU kink
    gor = rng.normal(size=30)
    loss_r = lambda: float(np.sum(gor * tn.relu_forward(xr)))
    worst = max(worst, max_rel_err(tn.relu_backward(xr, gor), numeric_grad(loss_r, xr)))

    p = rng.normal(size=(3, 4))
    targ = rng.normal(size=(3, 4))
    _, grad = tn.mse_loss(p, targ)
    worst = max(worst, max_rel_err(grad, numeric_grad(lambda: tn.mse_loss(p, targ)[0], p)))
    return worst


def _generic_net_point(cfg, seed):
    """Draw (params, x) whose pre-activations all sit clear of the ReLU kink,
    where central differences are well defined. Zero-init biases put dead
    patches exactly on the kink, so biases get jittered and near-kink draws
    are rejected."""
    rng = np.random.default_rng(1000 + seed)
    for _ in range(20):
        params = tn.init_params(cfg, seed, dtype=np.float64)
        for name, arr in params.tensors.items():
            if name.endswith(".b"):
                arr += rng.uniform(-0.2, 0.2, size=arr.shape)
        x = rng.normal(size=(1, cfg.in_channels, 8, 8))
        _, cache = tn.unet_forward_cached(params, x)
        # relu entries hold outputs, so each pre-activation is recomputed from
        # the cached input and the weights of the conv just before the relu
        layers, t = tn._layers(cfg), params.tensors
        margin = min(
            np.abs(tn.conv2d_forward(conv_in, t[f"{name}.w"], t[f"{name}.b"])).min()
            for (_, name, _), (kind, _, _), conv_in in zip(layers, layers[1:], cache)
            if kind == "relu"
        )
        if margin > 1e-3:
            return params, x, rng
    raise AssertionError("no kink-free evaluation point found")


def test_gradient_checks_all_kernels_and_unet():
    t0 = time.perf_counter()
    kernel_worst = max(_kernel_checks(seed) for seed in range(20))

    cfg = tn.UNetConfig(depth=2, in_channels=2, out_channels=1, base_channels=3)
    net_worst = 0.0
    for seed in range(20):
        params, x, rng = _generic_net_point(cfg, seed)
        go = rng.normal(size=(1, 1, 8, 8))
        grads, gx = tn.unet_backward(params, x, go)
        loss = lambda: float(np.sum(go * tn.unet_forward(params, x)))
        if seed == 0:  # one full sweep over every parameter
            for name, arr in params.tensors.items():
                net_worst = max(
                    net_worst, max_rel_err(grads[name], numeric_grad(loss, arr, eps=1e-6))
                )
            net_worst = max(net_worst, max_rel_err(gx, numeric_grad(loss, x, eps=1e-6)))
        else:  # sampled coordinates per extra seed
            for name in ("enc0.conv1.w", "up0.w", "dec0.conv2.w", "head.w", "head.b"):
                arr = params.tensors[name]
                idx = rng.choice(arr.size, size=min(8, arr.size), replace=False)
                numeric = numeric_grad_sampled(loss, arr, idx, eps=1e-6)
                net_worst = max(
                    net_worst, max_rel_err(grads[name].reshape(-1)[idx], numeric)
                )
            idx = rng.choice(x.size, size=8, replace=False)
            net_worst = max(
                net_worst,
                max_rel_err(gx.reshape(-1)[idx], numeric_grad_sampled(loss, x, idx, eps=1e-6)),
            )
    elapsed = time.perf_counter() - t0
    check(
        f"gradients: kernels {kernel_worst:.2e} < 1e-5, U-Net end-to-end {net_worst:.2e} < 1e-4, "
        f"20 seeds ({elapsed:.1f}s < 60s)",
        kernel_worst < 1e-5 and net_worst < 1e-4 and elapsed < 60.0,
    )


# ---------------------------------------------------------------------------
# optimizer

def test_optimizer_hand_values():
    cfg = tn.UNetConfig(depth=1, in_channels=1, out_channels=1, base_channels=1)
    params = tn.UNetParams(cfg, {"p": np.array([1.0], dtype=np.float64)})
    state = trainer.TrainState(params, params.zeros_like(), 0, 0, np.random.default_rng(0))
    trainer.sgd_step(state, {"p": np.array([1.0])}, lr=0.02, momentum=0.9)
    delta = state.params.tensors["p"][0] - 1.0
    nesterov_ok = abs(delta - (-0.038)) < 1e-12

    params2 = tn.UNetParams(cfg, {"p": np.array([1.0], dtype=np.float64)})
    state2 = trainer.TrainState(params2, params2.zeros_like(), 0, 0, np.random.default_rng(0))
    trainer.sgd_step(state2, {"p": np.array([1.0])}, lr=0.02, momentum=0.0)
    vanilla_ok = abs((state2.params.tensors["p"][0] - 1.0) - (-0.02)) < 1e-15

    sched = trainer.SGDConfig()
    schedule_ok = trainer.lr_schedule(4, sched) == 0.02 and trainer.lr_schedule(5, sched) == 0.001
    check(
        f"optimizer: Nesterov step {delta:+.6f} == -0.038, momentum-free == vanilla, lr drop at epoch 5",
        nesterov_ok and vanilla_ok and schedule_ok,
    )


# ---------------------------------------------------------------------------
# trained behavior

def test_overfit_single_clip(tmp_path):
    t0 = time.perf_counter()
    raw = dataset.synth_movie("time_ramp", 0, (288, 3, 16, 16))
    movie = gc.open_movie(gc.ingest(raw, "toy", "2019-01-07", tmp_path / "ramp.tmm"))
    clip = gc.load_clip(gc.ClipSpec("toy", "2019-01-07", 40), gc.index_movies([movie]))
    ucfg = tn.UNetConfig(depth=2, in_channels=36, out_channels=9, base_channels=8, normalize=True)
    scfg = trainer.SGDConfig(
        lr_initial=0.1, lr_after_drop=0.1, drop_epoch=0, momentum=0.9,
        batch_size=5, epochs=500, seed=0,
    )
    result = trainer.train(ucfg, scfg, [clip], [clip])
    movie.close()
    best = min(row.train_mse for row in result.log)
    steps = result.state.step
    elapsed = time.perf_counter() - t0
    check(
        f"overfit: single-clip train MSE reaches {best:.4f} < 1.0 within {steps} <= 500 steps ({elapsed:.0f}s < 120s)",
        best < 1.0 and steps <= 500 and elapsed < 120.0,
    )


def test_learning_beats_persistence_and_nears_slot_average(tmp_path):
    t0 = time.perf_counter()
    movie = dataset.synth_movie("slot_pattern", 11, (288, 3, 32, 32))
    days = [f"2019-01-{7 + i:02d}" for i in range(8)]
    readers = [
        gc.open_movie(gc.ingest(movie, "syn", day, tmp_path / f"{day}.tmm")) for day in days
    ]
    by_key = gc.index_movies(readers)
    test_slots = set(range(12, 288, 12))
    train_clips = [gc.load_clip(s, by_key) for s in gc.enumerate_clips(readers[:6], 1, test_slots)]
    val_specs = gc.enumerate_clips(readers[6:], 12)
    val_clips = [gc.load_clip(s, by_key) for s in val_specs]
    truth = [c.target for c in val_clips]

    mse_pers = trainer.evaluate([baselines.persistence(c) for c in val_clips], truth).overall
    needed = sorted({s.t_start + 12 + j for s in val_specs for j in range(3)})
    model = baselines.time_slot_average(readers[:6], needed)
    mse_avg = trainer.evaluate(
        [baselines.predict_slot_average(model, s) for s in val_specs], truth
    ).overall

    ucfg = tn.UNetConfig(depth=2, in_channels=36, out_channels=9, base_channels=16, normalize=True)
    scfg = trainer.SGDConfig(
        lr_initial=0.1, lr_after_drop=0.02, drop_epoch=16, momentum=0.9,
        batch_size=5, epochs=20, seed=0,
    )
    result = trainer.train(ucfg, scfg, train_clips, val_clips, test_slots)
    mse_net = trainer.evaluate(
        [trainer.predict(result.best_params, c) for c in val_clips], truth
    ).overall
    for r in readers:
        r.close()

    # "within 10% of the slot-average optimum" measured against the
    # persistence gap: the generator makes the optimum exactly 0.
    threshold = mse_avg + 0.1 * (mse_pers - mse_avg)
    monotone = result.log[-1].train_mse <= result.log[0].train_mse
    elapsed = time.perf_counter() - t0
    check(
        f"learning: net {mse_net:.1f} < persistence {mse_pers:.1f}, within 10% of optimum "
        f"({mse_net:.1f} <= {threshold:.1f}), final train <= epoch-1 train ({elapsed:.0f}s < 600s)",
        mse_net < mse_pers and mse_net <= threshold and monotone and elapsed < 600.0,
    )


# ---------------------------------------------------------------------------
# masks

def test_mask_properties(tmp_path):
    rng = np.random.default_rng(300)
    ok = True
    for i in range(20):
        shape = (int(rng.integers(1, 10)), 3, int(rng.integers(2, 16)), int(rng.integers(2, 16)))
        raw = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = gc.ingest(raw, "c", f"2019-08-{i + 1:02d}", tmp_path / f"{i}.tmm")
        with gc.open_movie(path) as m:
            threshold = int(rng.integers(0, 256))
            mask = masks.build_mask([m], threshold)
            ok &= np.array_equal(mask.active, raw.max(axis=(0, 1)) > threshold)
            higher = masks.build_mask([m], min(threshold + 40, 255))
            ok &= not np.any(higher.active & ~mask.active)  # monotone
            frames = rng.integers(0, 256, size=(3,) + shape[1:], dtype=np.uint8)
            once = masks.apply_mask(frames, mask)
            ok &= np.array_equal(masks.apply_mask(once, mask), once)  # idempotent
    check("masks: 20 random movies match brute force, monotone in threshold, idempotent", ok)


# ---------------------------------------------------------------------------
# clamp / round contract

def test_emitted_predictions_are_uint8(tmp_path):
    raw = dataset.synth_movie("random", 7, (20, 3, 8, 8))
    movie = gc.open_movie(gc.ingest(raw, "c", "2019-09-01", tmp_path / "m.tmm"))
    clip = gc.load_clip(gc.ClipSpec("c", "2019-09-01", 1), gc.index_movies([movie]))
    model = baselines.time_slot_average([movie], [13, 14, 15])

    emitted = [
        baselines.predict_slot_average(model, clip.spec),
        baselines.persistence(clip),
        baselines.zero_baseline(clip),
    ]
    cfg = tn.UNetConfig(depth=2, in_channels=36, out_channels=9, base_channels=4)
    params = tn.init_params(cfg, 0)
    for arr in params.tensors.values():
        arr[:] = 0.0
    params.tensors["head.b"][:] = -10.0
    floor = trainer.predict(params, clip)
    params.tensors["head.b"][:] = 300.0
    ceiling = trainer.predict(params, clip)
    movie.close()

    ok = all(p.dtype == np.uint8 for p in emitted + [floor, ceiling])
    ok &= not floor.any() and np.all(ceiling == 255)
    check("clamp/round: all emitted frames uint8; forced -10/+300 outputs map to 0/255", ok)


# ---------------------------------------------------------------------------
# determinism

def _pipeline_run(root):
    root.mkdir(parents=True, exist_ok=True)
    data = root / "data"
    slots = root / "slots.txt"
    slots.write_text("20\n28\n36\n")
    config = {
        "unet": {"depth": 2, "base_channels": 4, "normalize": True},
        "sgd": {"lr_initial": 0.05, "lr_after_drop": 0.01, "drop_epoch": 2,
                "epochs": 3, "seed": 42},
        "data": {"stride": 8, "train_dates": ["2019-05-01", "2019-05-02"],
                 "val_dates": ["2019-05-03"], "test_slots_file": str(slots)},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    ckpt = root / "net.unp"
    pred = root / "pred"
    truth = root / "truth"
    report = root / "report.json"
    steps = [
        ["synth", "--kind", "slot_pattern", "--seed", "6", "--shape", "48,3,8,8",
         "--days", "3", "--city", "q", "--start-date", "2019-05-01", "--out", str(data)],
        ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(ckpt)],
        ["predict", "--ckpt", str(ckpt), "--data", str(data), "--slots", str(slots),
         "--out", str(pred)],
        ["targets", "--data", str(data), "--slots", str(slots), "--out", str(truth)],
        ["evaluate", "--pred", str(pred), "--truth", str(truth), "--report", str(report)],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv
    preds = {p.name: p.read_bytes() for p in sorted(pred.glob("*.tmm"))}
    return ckpt.read_bytes(), (root / "net.unp.csv").read_bytes(), preds, report.read_text()


def test_full_pipeline_determinism(tmp_path):
    a = _pipeline_run(tmp_path / "run_a")
    b = _pipeline_run(tmp_path / "run_b")
    ok = a[0] == b[0] and a[1] == b[1] and a[3] == b[3]
    ok &= list(a[2]) == list(b[2]) and all(a[2][k] == b[2][k] for k in a[2])
    ok &= len(a[2]) > 0 and json.loads(a[3])["overall"] > 0.0
    check("determinism: two equal-seed pipeline runs give bit-identical checkpoints, predictions, reports", ok)
