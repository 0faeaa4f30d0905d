"""Acceptance checks for the shipped pipeline.

Each test prints one PASS/FAIL line (run pytest with -s or -rA to see them)
and enforces its own runtime budget. The whole module is the exit gate for
the build: every numerical contract is checked against an independent
oracle, and the end-to-end synthetic benchmark must reach its denoising
bar on a single CPU core.
"""

import time

import numpy as np
import pytest

from danae.attitude_kf import KfConfig, KfState, kf_step, run_kf
from danae.danae_model import TrainConfig, _run, build_model, denoise_series, train
from danae.dataio import FractionSplit, SynthConfig, make_windows, split, synth_trajectory
from danae.evalkit import deviations
from danae.series import AngleSeries
from danae.tensor_nn import ConvSpec, Tensor, conv1d, conv1d_transposed, l2_loss

from helpers import (
    conv1d_reference,
    conv1d_transposed_reference,
    kf_step_reference,
    random_spd,
)
from test_tensor_nn import finite_difference_check


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))


def test_kalman_step_matches_adjugate_transcription():
    """200 random well-conditioned systems, n <= 3, 1e-10 elementwise, < 1 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        cfg = KfConfig(n=n, A=rng.normal(size=(n, n)), B=rng.normal(size=(n, n)),
                       C=rng.normal(size=(n, n)), Q=random_spd(rng, n),
                       R=random_spd(rng, n), P0=np.eye(n))
        x, P = rng.normal(size=n), random_spd(rng, n)
        u, y = rng.normal(size=n), rng.normal(size=n)
        got = kf_step(KfState(x, P), cfg, u, y)
        want_x, want_P = kf_step_reference(x, P, cfg.A, cfg.B, cfg.C, cfg.Q,
                                           cfg.R, u, y)
        worst = max(worst,
                    float(np.max(np.abs(got.x - want_x))),
                    float(np.max(np.abs(got.P - 0.5 * (want_P + want_P.T)))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    report("kalman step vs independent transcription", ok,
           f"max |diff| {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_convolutions_match_naive_oracle_and_adjoint():
    """100 random shapes/dilations vs the triple loop (1e-12); adjoint 1e-10; < 5 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(20241)
    worst_fwd = worst_adj = 0.0
    for _ in range(100):
        in_ch, out_ch = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        dilation = int(rng.integers(1, 4))
        padding = int(rng.integers(0, dilation * (k - 1) + 1))
        length = int(rng.integers(dilation * (k - 1) + 1, 16))
        spec = ConvSpec(in_ch, out_ch, k, dilation=dilation, padding=padding)
        w = rng.normal(size=spec.weight_shape())
        b = rng.normal(size=out_ch)
        # a (channels, length, 1) batch of one; the oracles take (channels, length)
        x = rng.normal(size=(in_ch, length, 1))
        got = conv1d(Tensor(x), Tensor(w), Tensor(b), spec).data[..., 0]
        want = conv1d_reference(x[..., 0], w, b, padding, dilation)
        worst_fwd = max(worst_fwd, float(np.max(np.abs(got - want))))

        spec_t = ConvSpec(out_ch, in_ch, k, dilation=dilation, padding=padding,
                          transposed=True)
        u = rng.normal(size=(out_ch, spec.out_length(length), 1))
        bt = rng.normal(size=in_ch)
        got_t = conv1d_transposed(Tensor(u), Tensor(w), Tensor(bt), spec_t).data[..., 0]
        want_t = conv1d_transposed_reference(u[..., 0], w, bt, padding, dilation)
        worst_fwd = max(worst_fwd, float(np.max(np.abs(got_t - want_t))))

        lhs = float(np.sum(got_nobias(x, w, spec) * u))
        rhs = float(np.sum(x * conv1d_transposed(Tensor(u), Tensor(w), None,
                                                 spec_t).data))
        worst_adj = max(worst_adj,
                        abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    elapsed = time.perf_counter() - started
    ok = worst_fwd < 1e-12 and worst_adj < 1e-10 and elapsed < 5.0
    report("convolutions vs naive triple-loop oracle + adjoint identity", ok,
           f"fwd {worst_fwd:.2e}, adjoint {worst_adj:.2e}, {elapsed:.2f}s")
    assert worst_fwd < 1e-12
    assert worst_adj < 1e-10
    assert elapsed < 5.0


def got_nobias(x, w, spec):
    return conv1d(Tensor(x), Tensor(w), None, spec).data


def test_gradients_match_finite_differences():
    """Relative error < 1e-4 at 20 random coordinates per layer type and for
    the 4-channel toy model; < 30 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(20242)

    spec = ConvSpec(2, 3, 3, dilation=2, padding=2)
    w = Tensor(rng.normal(size=spec.weight_shape()))
    b = Tensor(rng.normal(size=3))
    x = Tensor(rng.normal(size=(2, 12, 1)))
    t1 = rng.normal(size=(3, 12, 1))
    finite_difference_check(lambda: l2_loss(conv1d(x, w, b, spec), t1),
                            [w, b, x], rng)

    spec_t = ConvSpec(3, 2, 3, dilation=2, padding=1, transposed=True)
    wt = Tensor(rng.normal(size=spec_t.weight_shape()))
    bt = Tensor(rng.normal(size=2))
    xt = Tensor(rng.normal(size=(3, 9, 1)))
    t2 = rng.normal(size=(2, spec_t.out_length(9), 1))
    finite_difference_check(lambda: l2_loss(conv1d_transposed(xt, wt, bt, spec_t), t2),
                            [wt, bt, xt], rng)

    model = build_model(99, channels=4)
    xm = Tensor(rng.normal(size=(1, 20, 1)))
    tm = rng.normal(size=(1, 20, 1))
    finite_difference_check(lambda: l2_loss(_run(model, xm), tm),
                            model.parameters(), rng)

    elapsed = time.perf_counter() - started
    report("gradients vs central finite differences", elapsed < 30.0,
           f"{elapsed:.1f}s")
    assert elapsed < 30.0


ACCEPTANCE_SCENARIO = SynthConfig(duration=120.0, rate=100.0, seed=42,
                                  gyro_noise=0.02, gyro_bias=0.01,
                                  accel_noise=0.5, mag_noise=0.05)


def test_synthetic_rmse_reduction():
    """The benchmark scenario, 80/20 temporal split, 50 epochs per angle:
    denoised RMSE <= 0.7 x filter RMSE on the held-out tail for roll and
    pitch; < 10 min on one core."""
    started = time.perf_counter()
    imu, gt = synth_trajectory(ACCEPTANCE_SCENARIO)
    estimates = run_kf(imu)
    policy = FractionSplit(0.8)
    kf_train, kf_test = split(estimates, policy)
    gt_train, gt_test = split(gt, policy)
    ratios = {}
    losses = {}
    for angle in ("roll", "pitch"):
        windows = make_windows(kf_train, gt_train, angle, stride=10)
        model = build_model(ACCEPTANCE_SCENARIO.seed)
        history = train(model, windows, TrainConfig(epochs=50,
                                                    seed=ACCEPTANCE_SCENARIO.seed))
        losses[angle] = (history[0], history[-1])
        denoised = denoise_series(model, kf_test, angle)
        ratios[angle] = (deviations(denoised, gt_test, angle).rmse
                         / deviations(kf_test, gt_test, angle).rmse)
    elapsed = time.perf_counter() - started
    ok = all(r <= 0.7 for r in ratios.values()) and elapsed < 600.0
    report("end-to-end synthetic denoising", ok,
           ", ".join(f"{a} ratio {r:.3f}" for a, r in ratios.items())
           + f", {elapsed:.0f}s")
    for angle, (first, last) in losses.items():
        assert last < first, f"{angle}: training loss did not decrease"
    for angle, ratio in ratios.items():
        assert ratio <= 0.7, f"{angle}: RMSE ratio {ratio:.3f} above 0.7"
    assert elapsed < 600.0


# RMSE rows previously reported for the OxIOD benchmark, filter vs denoiser.
OXIOD_REFERENCE_KF_RMSE = {"roll": 0.0815, "pitch": 0.0600, "yaw": 2.4000}
OXIOD_REFERENCE_DANAE_RMSE = {"roll": 0.0282, "pitch": 0.0196, "yaw": 1.3194}
OXIOD_REFERENCE_HEADLINE_REDUCTION = 63.0


@pytest.mark.xfail(
    strict=True,
    reason="the reference headline figure (63%) is not reproducible from the "
    "reference per-angle RMSE rows: the documented reduction formula gives "
    "59.25% (the 63% only emerges if the yaw ratio 0.5498 is mistaken for "
    "yaw's reduction, which would yield 62.57%)",
)
def test_reported_reduction_consistency():
    """Feed the reference RMSE rows through the reduction formula and compare
    against the reference headline mean reduction."""
    from danae.evalkit import reduction_percent

    reductions = [
        reduction_percent(OXIOD_REFERENCE_KF_RMSE[a], OXIOD_REFERENCE_DANAE_RMSE[a])
        for a in ("roll", "pitch", "yaw")
    ]
    mean = float(np.mean(reductions))
    ok = abs(mean - OXIOD_REFERENCE_HEADLINE_REDUCTION) <= 0.5
    report("reference reduction consistency", ok,
           f"formula gives {mean:.2f}%, headline {OXIOD_REFERENCE_HEADLINE_REDUCTION}%")
    assert ok, (
        f"mean reduction {mean:.2f}% differs from the headline "
        f"{OXIOD_REFERENCE_HEADLINE_REDUCTION}% by more than 0.5 points"
    )


def test_noiseless_sanity():
    """Zero sensor noise: filter RMSE < 0.01 rad per angle and a denoiser
    trained on this data reproduces its input within 0.02 RMSE."""
    started = time.perf_counter()
    cfg = SynthConfig(duration=12.0, rate=100.0, seed=42, gyro_noise=0.0,
                      gyro_bias=0.0, accel_noise=0.0, mag_noise=0.0)
    imu, gt = synth_trajectory(cfg)
    estimates = run_kf(imu)
    kf_worst = max(deviations(estimates, gt, a).rmse
                   for a in ("roll", "pitch", "yaw"))
    windows = make_windows(estimates, gt, "roll", stride=6)
    model = build_model(cfg.seed)
    train(model, windows, TrainConfig(epochs=30, seed=cfg.seed))
    denoised = denoise_series(model, estimates, "roll")
    identity_rmse = float(np.sqrt(np.mean((denoised.roll - estimates.roll) ** 2)))
    elapsed = time.perf_counter() - started
    ok = kf_worst < 0.01 and identity_rmse < 0.02
    report("noiseless sanity", ok,
           f"kf rmse {kf_worst:.2e}, identity rmse {identity_rmse:.4f}, {elapsed:.0f}s")
    assert kf_worst < 0.01
    assert identity_rmse < 0.02


def test_metric_properties_on_random_series():
    """rmse >= mean_dev and max_dev >= mean_dev over 1000 random series; < 5 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(20247)
    for _ in range(1000):
        n = int(rng.integers(1, 80))
        scale = float(rng.uniform(0.01, 4.0))
        a = AngleSeries(np.arange(n), rng.normal(0, scale, size=(n, 3)))
        b = AngleSeries(np.arange(n), rng.normal(0, scale, size=(n, 3)))
        wrap = bool(rng.integers(0, 2))
        stats = deviations(a, b, int(rng.integers(0, 3)), wrap=wrap)
        assert stats.rmse >= stats.mean_dev - 1e-15
        assert stats.max_dev >= stats.mean_dev - 1e-15
        assert stats.mean_dev >= 0.0
    elapsed = time.perf_counter() - started
    report("metric moment inequalities on 1000 random series",
           elapsed < 5.0, f"{elapsed:.2f}s")
    assert elapsed < 5.0
