import math
import re
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import danae.attitude_kf as attitude_kf
from danae.attitude_kf import (
    KfConfig,
    KfState,
    accel_to_roll_pitch,
    gyro_delta,
    integrate_gyro,
    kf_step,
    mag_to_yaw,
    measurement_angles,
    run_kf,
)
from danae.dataio import SynthConfig, load_oxiod, load_ucs, synth_trajectory
from danae.errors import InvalidInputError, NumericalError
from danae.evalkit import deviations
from danae.series import ImuSeries

from helpers import kf_step_reference, measure_reference, random_spd, run_kf_reference

FIXTURES = Path(__file__).parent / "fixtures"


class TestAccelToRollPitch:
    def test_level(self):
        roll, pitch = accel_to_roll_pitch((0.0, 0.0, 9.81))
        assert roll == 0.0 and pitch == 0.0

    def test_quarter_roll(self):
        g = 9.81 / math.sqrt(2.0)
        roll, pitch = accel_to_roll_pitch((0.0, g, g))
        assert roll == pytest.approx(math.pi / 4, abs=1e-12)
        assert pitch == pytest.approx(0.0, abs=1e-12)

    def test_nose_up(self):
        roll, pitch = accel_to_roll_pitch((-9.81, 0.0, 0.0))
        assert roll == pytest.approx(0.0, abs=1e-12)
        assert pitch == pytest.approx(math.pi / 2, abs=1e-12)

    def test_zero_accel_rejected(self):
        # a one-row call has no sample index to name
        with pytest.raises(InvalidInputError,
                           match="^accelerometer reading has zero magnitude$"):
            accel_to_roll_pitch((0.0, 0.0, 0.0))

    def test_ranges(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.normal(size=3)
            if np.linalg.norm(a) < 1e-6:
                continue
            roll, pitch = accel_to_roll_pitch(a)
            assert -math.pi < roll <= math.pi
            assert -math.pi / 2 <= pitch <= math.pi / 2


class TestMagToYaw:
    def test_level_north(self):
        assert mag_to_yaw((1.0, 0.0, 0.0), 0.0, 0.0) == pytest.approx(0.0)

    def test_level_east_field(self):
        assert mag_to_yaw((0.0, -1.0, 0.0), 0.0, 0.0) == pytest.approx(math.pi / 2)

    def test_rolled_quarter(self):
        assert mag_to_yaw((0.0, 0.0, 1.0), math.pi / 2, 0.0) == pytest.approx(math.pi / 2)

    def test_zero_mag_rejected(self):
        with pytest.raises(InvalidInputError,
                           match="^magnetometer reading has zero magnitude$"):
            mag_to_yaw((0.0, 0.0, 0.0), 0.0, 0.0)

    def test_vertical_field_degenerate(self):
        with pytest.raises(NumericalError):
            mag_to_yaw((0.0, 0.0, 1.0), 0.0, 0.0)


class TestGyroDelta:
    def test_zero_rates(self):
        assert np.allclose(gyro_delta((0.0, 0.0, 0.0), 0.3, -0.2, 0.01), 0.0)

    def test_level_identity(self):
        d = gyro_delta((0.1, 0.0, 0.0), 0.0, 0.0, 1.0)
        assert np.allclose(d, [0.1, 0.0, 0.0])

    def test_rolled_pitch_rate_becomes_yaw(self):
        d = gyro_delta((0.0, 0.2, 0.0), math.pi / 2, 0.0, 1.0)
        assert np.allclose(d, [0.0, 0.0, 0.2], atol=1e-12)

    def test_gimbal_lock_rejected(self):
        with pytest.raises(NumericalError):
            gyro_delta((0.0, 0.1, 0.0), 0.0, math.pi / 2, 0.01)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(InvalidInputError):
            gyro_delta((0.0, 0.0, 0.0), 0.0, 0.0, 0.0)


def _random_problems(count=200):
    """(cfg, x, P, u, y) for random 1- to 3-state models, seeded."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        C = rng.normal(size=(n, n))
        cfg = KfConfig(n=n, A=A, B=B, C=C, Q=random_spd(rng, n),
                       R=random_spd(rng, n), P0=np.eye(n))
        yield (cfg, rng.normal(size=n), random_spd(rng, n), rng.normal(size=n),
               rng.normal(size=n))


def _zero_config():
    """A 1-state model with every matrix 0, so S = 0 (Q = R = P0 = 0 pass the checks)."""
    zero = np.zeros((1, 1))
    return KfConfig(n=1, A=zero, B=zero, C=zero, Q=zero, R=zero, P0=zero)


class TestKfStep:
    def test_scalar_hand_example(self):
        # A=B=C=Q=R=1, x=0, P=1, u=0, y=1: P'=2, K=2/3, x=2/3, P=2/3
        cfg = KfConfig(n=1)
        new = kf_step(KfState(np.zeros(1), np.ones((1, 1))), cfg, [0.0], [1.0])
        assert new.x[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert new.P[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_huge_r_ignores_measurement(self):
        cfg = KfConfig(n=3, R=1e12 * np.eye(3))
        state = KfState(np.array([0.1, -0.2, 0.3]), np.eye(3))
        u = np.array([0.01, 0.02, -0.01])
        new = kf_step(state, cfg, u, np.array([5.0, -5.0, 5.0]))
        assert np.allclose(new.x, state.x + u, atol=1e-6)

    def test_huge_q_trusts_measurement(self):
        cfg = KfConfig(n=1, Q=np.array([[1e12]]))
        new = kf_step(KfState(np.zeros(1), np.ones((1, 1))), cfg, [0.0], [1.0])
        assert new.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_matches_adjugate_reference(self):
        for cfg, x, P, u, y in _random_problems():
            got = kf_step(KfState(x, P), cfg, u, y)
            want_x, want_P = kf_step_reference(x, P, cfg.A, cfg.B, cfg.C, cfg.Q, cfg.R, u, y)
            assert np.max(np.abs(got.x - want_x)) < 1e-10
            assert np.max(np.abs(got.P - 0.5 * (want_P + want_P.T))) < 1e-10

    def test_posterior_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cfg = KfConfig(n=3, Q=random_spd(rng, 3), R=random_spd(rng, 3))
            state = KfState(rng.normal(size=3), random_spd(rng, 3))
            new = kf_step(state, cfg, rng.normal(size=3), rng.normal(size=3))
            assert np.max(np.abs(new.P - new.P.T)) < 1e-9
            assert np.all(np.diag(new.P) >= 0)

    def test_update_shrinks_trace(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cfg = KfConfig(n=3, Q=random_spd(rng, 3), R=random_spd(rng, 3))
            state = KfState(rng.normal(size=3), random_spd(rng, 3))
            P_pred = cfg.A @ state.P @ cfg.A.T + cfg.Q
            new = kf_step(state, cfg, rng.normal(size=3), rng.normal(size=3))
            assert np.trace(new.P) <= np.trace(P_pred) + 1e-12

    def test_fixed_point_state(self):
        # with the identity model, u=0 and y=Cx leave the state untouched
        cfg = KfConfig(n=3)
        state = KfState(np.array([0.2, -0.1, 1.5]), 2.0 * np.eye(3))
        new = kf_step(state, cfg, np.zeros(3), cfg.C @ state.x)
        assert np.allclose(new.x, state.x, atol=1e-14)
        assert not np.allclose(new.P, state.P)

    def test_singular_innovation_rejected(self):
        cfg = _zero_config()
        with pytest.raises(NumericalError, match="condition"):
            kf_step(KfState(np.zeros(1), np.zeros((1, 1))), cfg, [0.0], [0.0])

    @pytest.mark.parametrize("r_diag, shown", [
        ((1.0, 0.0), "inf"),                          # singular S
        ((0.0, 0.0), "inf"),                          # S = 0
        ((1.0, 1e-15), f"{np.linalg.cond(np.diag([1.0, 1e-15])):.3e}"),
    ])
    def test_ill_conditioned_innovation_names_cond(self, r_diag, shown):
        # S = R here; the number shown is np.linalg.cond's, with no warning
        cfg = KfConfig(n=2, Q=np.zeros((2, 2)), R=np.diag(r_diag), P0=np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(f"(condition number {shown})")):
                kf_step(KfState(np.zeros(2), np.zeros((2, 2))), cfg, np.zeros(2),
                        np.zeros(2))


def _static_series(n=50, mag=(1.0, 0.0, 0.0)):
    t = np.arange(n) * 0.01
    gyro = np.zeros((n, 3))
    accel = np.tile([0.0, 0.0, 9.81], (n, 1))
    mags = np.tile(mag, (n, 1))
    return ImuSeries(t, gyro, accel, mags)


class TestRunKf:
    def test_static_series_stays_level(self):
        out = run_kf(_static_series())
        assert len(out) == 50
        assert np.max(np.abs(out.angles)) < 1e-6

    def test_output_length_matches_input(self):
        imu, _ = synth_trajectory(SynthConfig(duration=3.0, seed=1))
        assert len(run_kf(imu)) == len(imu)

    def test_huge_r_equals_pure_gyro_integration(self):
        imu, _ = synth_trajectory(SynthConfig(duration=5.0, seed=3))
        cfg = KfConfig(n=3, R=1e12 * np.eye(3))
        filtered = run_kf(imu, cfg)
        dead_reckoned = integrate_gyro(imu)
        assert np.max(np.abs(filtered.angles - dead_reckoned.angles)) < 1e-6

    def test_beats_both_baselines_on_noisy_data(self):
        imu, gt = synth_trajectory(SynthConfig(duration=30.0, seed=42))
        kf = run_kf(imu)
        gyro_only = integrate_gyro(imu)
        raw = measurement_angles(imu)
        for angle in ("roll", "pitch", "yaw"):
            kf_rmse = deviations(kf, gt, angle).rmse
            assert kf_rmse < deviations(gyro_only, gt, angle).rmse
            assert kf_rmse < deviations(raw, gt, angle).rmse

    def test_degenerate_sample_skipped_and_logged(self, caplog):
        series = _static_series()
        series.mag[10] = 0.0  # zero magnitude: measurement must be skipped
        with caplog.at_level("WARNING"):
            out = run_kf(series)
        assert len(out) == len(series)
        assert any("sample 10" in record.message for record in caplog.records)

    def test_non_finite_sample_rejected_before_filtering(self, caplog):
        # a NaN accel value used to reach the filter and be skipped as a
        # zero-magnitude reading
        imu, _ = synth_trajectory(SynthConfig(duration=1.0, seed=2))
        accel = imu.accel.copy()
        accel[7, 1] = np.nan
        with caplog.at_level("WARNING"), pytest.raises(
                InvalidInputError, match="holds nan in accel_y at sample 7$"):
            run_kf(ImuSeries(imu.t, imu.gyro, accel, imu.mag))
        assert not caplog.records

    def test_value_written_after_construction_rejected(self, caplog):
        # the series arrays stay writable, so run_kf repeats the check
        imu, _ = synth_trajectory(SynthConfig(duration=1.0, seed=2))
        imu.accel[7, 1] = np.nan
        with caplog.at_level("WARNING"), pytest.raises(
                InvalidInputError, match="holds nan in accel_y at sample 7$"):
            run_kf(imu)
        assert not caplog.records

    @pytest.mark.parametrize("baseline, channel, col, column", [
        (measurement_angles, "accel", 1, "accel_y"), (integrate_gyro, "gyro", 0, "gyro_x"),
    ], ids=["measurement_angles", "integrate_gyro"])
    def test_baseline_names_value_written_after_construction(self, baseline, channel,
                                                             col, column):
        # unchecked, these blamed a zero-magnitude reading or their own output
        imu, _ = synth_trajectory(SynthConfig(duration=1.0, seed=2))
        getattr(imu, channel)[7, col] = np.nan
        with pytest.raises(InvalidInputError, match=f"holds nan in {column} at sample 7$"):
            baseline(imu)

    def test_single_sample_series_rejected(self):
        # the length floor is enforced at construction time
        with pytest.raises(InvalidInputError):
            ImuSeries([0.0], np.zeros((1, 3)),
                      [[0.0, 0.0, 9.81]], [[1.0, 0.0, 0.0]])

    def test_wrong_state_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            run_kf(_static_series(), KfConfig(n=2))


class TestConfigValidation:
    def test_default_is_identity(self):
        cfg = KfConfig()
        for m in (cfg.A, cfg.B, cfg.C, cfg.Q, cfg.R, cfg.P0):
            assert np.array_equal(m, np.eye(3))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(InvalidInputError):
            KfConfig(Q=np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))

    def test_negative_diagonal_rejected(self):
        r = np.eye(3)
        r[1, 1] = -1.0
        with pytest.raises(InvalidInputError):
            KfConfig(R=r)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["A", "B", "C", "Q", "R", "P0"])
    def test_non_finite_entry_rejected_naming_the_matrix(self, name, value):
        # one used to build: run_kf then leaked numpy's LinAlgError or blamed
        # its own output, and a NaN in Q, R or P0 read as an asymmetry
        for index in [(0, 1), (2, 2)]:
            m = np.eye(3)
            m[index] = value
            with pytest.raises(InvalidInputError, match=f"^{name} holds a NaN or an infinity$"):
                KfConfig(**{name: m})


def _unmemoised_kf_step(state, cfg, u, y):
    """kf_step with the gain computed on every call, expression for expression."""
    u = np.asarray(u, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    x_pred = cfg.A @ state.x + cfg.B @ u
    P_pred = cfg.A @ state.P @ cfg.A.T + cfg.Q
    S = cfg.C @ P_pred @ cfg.C.T + cfg.R
    K = np.linalg.solve(S.T, cfg.C @ P_pred.T).T
    x_new = x_pred + K @ (y - cfg.C @ x_pred)
    P_new = (np.eye(cfg.n) - K @ cfg.C) @ P_pred
    return x_new, 0.5 * (P_new + P_new.T)


class TestGainMemo:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        attitude_kf._gain.cache_clear()

    def test_hits_and_misses_match_the_unmemoised_step_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for count, (cfg, x, P, u, y) in enumerate(_random_problems(), start=1):
            for u, y in ((u, y), (rng.normal(size=cfg.n), rng.normal(size=cfg.n))):
                got = kf_step(KfState(x, P), cfg, u, y)
                want_x, want_P = _unmemoised_kf_step(KfState(x, P), cfg, u, y)
                assert np.array_equal(got.x, want_x) and np.array_equal(got.P, want_P)
            # the second call was a hit: one entry per problem
            info = attitude_kf._gain.cache_info()
            assert info.misses == count and info.currsize == min(count, info.maxsize)

    def test_memo_never_exceeds_its_bound(self):
        rng = np.random.default_rng(10)
        cfg = KfConfig()
        maxsize = attitude_kf._gain.cache_info().maxsize
        for _ in range(maxsize + 50):
            kf_step(KfState(np.zeros(3), random_spd(rng, 3)), cfg, np.zeros(3), np.ones(3))
            assert attitude_kf._gain.cache_info().currsize <= maxsize
        assert attitude_kf._gain.cache_info().currsize == maxsize

    def test_second_default_run_kf_adds_no_misses(self):
        imu, _ = _dropout_series()
        first = run_kf(imu)
        misses = attitude_kf._gain.cache_info().misses
        again = run_kf(imu)
        assert attitude_kf._gain.cache_info().misses == misses
        assert np.array_equal(again.angles, first.angles)

    def test_mutating_a_returned_covariance_leaves_the_memo_alone(self):
        cfg = KfConfig()
        state = KfState(np.zeros(3), np.eye(3))
        first = kf_step(state, cfg, np.zeros(3), np.ones(3))
        want = first.P.copy()
        first.P[:] = 99.0
        again = kf_step(state, cfg, np.zeros(3), np.ones(3))
        assert np.array_equal(again.P, want) and np.array_equal(again.x, first.x)

    def test_singular_innovation_raises_on_every_call(self):
        cfg = _zero_config()
        for _ in range(3):
            with pytest.raises(NumericalError, match=r"condition number inf"):
                kf_step(KfState(np.zeros(1), np.zeros((1, 1))), cfg, [0.0], [0.0])
        assert attitude_kf._gain.cache_info().currsize == 0


def _step(cfg):
    return kf_step(KfState(np.zeros(3), np.eye(3)), cfg, np.zeros(3), np.ones(3))


class TestFrozenConfig:
    """Once KfConfig(...) returns, nothing written through it, its arrays or
    the arrays passed in changes what kf_step computes."""

    @pytest.mark.parametrize("name", ["A", "B", "C", "Q", "R", "P0"])
    def test_matrix_write_raises(self, name):
        cfg = KfConfig()
        with pytest.raises(ValueError, match="read-only"):
            getattr(cfg, name)[0, 0] = -1.0
        assert np.array_equal(getattr(cfg, name), np.eye(3))

    @pytest.mark.parametrize("name, value", [("n", 2), ("A", np.eye(2)), ("R", -np.eye(3))])
    def test_field_assignment_raises(self, name, value):
        cfg = KfConfig()
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
        assert cfg.n == 3 and np.array_equal(cfg.A, np.eye(3)) and np.array_equal(cfg.R, np.eye(3))

    def test_array_passed_in_is_copied(self):
        R = 4.0 * np.eye(3)
        cfg = KfConfig(R=R)
        want = _step(cfg)
        R[:] = -1.0
        assert R.flags.writeable and cfg.R is not R
        assert np.array_equal(cfg.R, 4.0 * np.eye(3))
        got = _step(cfg)
        assert np.array_equal(got.x, want.x) and np.array_equal(got.P, want.P)

    def test_replace_equals_a_fresh_config(self):
        cfg = KfConfig()
        _step(cfg)  # a cache entry for cfg must not leak into the new config
        got = _step(replace(cfg, R=4.0 * np.eye(3)))
        want = _step(KfConfig(R=4.0 * np.eye(3)))
        assert not np.array_equal(got.x, _step(cfg).x)
        assert np.array_equal(got.x, want.x) and np.array_equal(got.P, want.P)

    def test_replace_runs_the_checks(self):
        with pytest.raises(InvalidInputError, match="non-negative diagonal"):
            replace(KfConfig(), R=-np.eye(3))

    def test_configs_compare_by_identity(self):
        cfg = KfConfig()
        assert cfg == cfg and cfg != KfConfig() and hash(cfg) == object.__hash__(cfg)


def _dropout_series(share=0.02, seed=11):
    """A synthetic series with the magnetometer zeroed on a seeded share of
    rows after the first; returns it and those rows."""
    imu, _ = synth_trajectory(SynthConfig(duration=20.0, seed=seed))
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(np.arange(1, len(imu)), size=round(share * len(imu)),
                              replace=False))
    imu.mag[rows] = 0.0
    return imu, rows.tolist()


NOISELESS = SynthConfig(duration=12.0, seed=42, gyro_noise=0.0, gyro_bias=0.0,
                        accel_noise=0.0, mag_noise=0.0)
FILTER_INPUTS = {
    "benchmark_scenario": lambda: synth_trajectory(SynthConfig(duration=120.0, seed=42))[0],
    "noiseless": lambda: synth_trajectory(NOISELESS)[0],
    "oxiod_fixture": lambda: load_oxiod(FIXTURES / "oxiod_imu.csv",
                                        FIXTURES / "oxiod_vicon.csv")[0],
    "ucs_fixture": lambda: load_ucs(FIXTURES / "ucs.csv")[0],
}


class TestEquivalence:
    """run_kf and measurement_angles against the scalar per-sample reference."""

    @pytest.mark.parametrize("name", [*FILTER_INPUTS, "mag_dropouts"])
    def test_run_kf_matches_reference_loop(self, name):
        imu, dropouts = _dropout_series() if name == "mag_dropouts" else (
            FILTER_INPUTS[name](), [])
        cfg = KfConfig()
        want, predict_only = run_kf_reference(imu, cfg)
        assert predict_only == dropouts
        assert np.max(np.abs(run_kf(imu, cfg).angles - want)) <= 1e-12

    @pytest.mark.parametrize("name", FILTER_INPUTS)
    def test_measurement_angles_match_scalar_formulas(self, name):
        imu = FILTER_INPUTS[name]()
        want = np.array([measure_reference(a, m) for a, m in zip(imu.accel, imu.mag)])
        assert np.max(np.abs(measurement_angles(imu).angles - want)) <= 1e-12

    def test_kf_step_runs_once_per_measurement_update(self, monkeypatch, caplog):
        # the benchmark tracer counts kf_step calls as measurement updates
        imu, dropouts = _dropout_series()
        calls = []
        step = attitude_kf.kf_step
        monkeypatch.setattr(attitude_kf, "kf_step",
                            lambda *args: calls.append(None) or step(*args))
        with caplog.at_level("WARNING", logger="danae.attitude_kf"):
            run_kf(imu)
        assert len(calls) == len(imu) - 1 - len(dropouts)
        assert [r.getMessage() for r in caplog.records] == [
            f"sample {i}: magnetometer reading has zero magnitude; skipping measurement update"
            for i in dropouts]


# (accel, mag) readings the measurement model rejects, with the error it names
DEGENERATE_READINGS = {
    "zero_accel": ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), InvalidInputError,
                   "accelerometer reading has zero magnitude"),
    "zero_accel_and_mag": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), InvalidInputError,
                           "accelerometer reading has zero magnitude"),
    "zero_mag": ((0.0, 0.0, 9.81), (0.0, 0.0, 0.0), InvalidInputError,
                 "magnetometer reading has zero magnitude"),
    "vertical_field": ((0.0, 0.0, 9.81), (0.0, 0.0, 1.0), NumericalError,
                       "magnetic field is vertical: heading is undefined"),
}


@pytest.mark.parametrize("name", DEGENERATE_READINGS)
class TestDegenerateReadings:
    def _series(self, name, row):
        accel, mag, _, _ = DEGENERATE_READINGS[name]
        series = _static_series(n=8)
        series.accel[row], series.mag[row] = accel, mag
        return series

    def test_sample_0_raises(self, name):
        _, _, error, message = DEGENERATE_READINGS[name]
        for estimator in (run_kf, integrate_gyro, measurement_angles):
            with pytest.raises(error, match=f"^sample 0: {message}$"):
                estimator(self._series(name, 0))

    def test_later_sample_is_predict_only_in_run_kf(self, name, caplog):
        _, _, error, message = DEGENERATE_READINGS[name]
        with caplog.at_level("WARNING", logger="danae.attitude_kf"):
            out = run_kf(self._series(name, 5))
        assert np.max(np.abs(out.angles)) < 1e-6
        assert [r.getMessage() for r in caplog.records] == [
            f"sample 5: {message}; skipping measurement update"]
        with pytest.raises(error, match=f"^sample 5: {message}$"):
            measurement_angles(self._series(name, 5))
