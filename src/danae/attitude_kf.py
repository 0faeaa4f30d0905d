"""Linear Kalman filter attitude estimation from raw IMU/AHRS streams.

The filter state is x = (roll, pitch, yaw). Per step, the gyro supplies the
control input u (attitude increments through the Euler-rate kinematics) and
the accelerometer/magnetometer supply the measurement y (gravity-tilt roll
and pitch plus tilt-compensated compass yaw). All system matrices default to
identity and no noise tuning is applied anywhere; downstream denoising is
responsible for whatever error is left.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError, ShapeError
from .series import AngleSeries, ImuSeries, wrap_angle

__all__ = [
    "KfConfig",
    "KfState",
    "accel_to_roll_pitch",
    "mag_to_yaw",
    "gyro_delta",
    "kf_step",
    "run_kf",
    "integrate_gyro",
    "measurement_angles",
]

log = logging.getLogger(__name__)

GIMBAL_LOCK_MARGIN = 1e-6
MIN_HORIZONTAL_MAG = 1e-9
MAX_INNOVATION_COND = 1e14


@dataclass
class KfConfig:
    """System matrices for the linear filter; everything defaults to identity."""

    n: int = 3
    A: np.ndarray = None
    B: np.ndarray = None
    C: np.ndarray = None
    Q: np.ndarray = None
    R: np.ndarray = None
    P0: np.ndarray = None

    def __post_init__(self):
        for name in ("A", "B", "C", "Q", "R", "P0"):
            m = getattr(self, name)
            m = np.eye(self.n) if m is None else np.asarray(m, dtype=float)
            if m.shape != (self.n, self.n):
                raise ShapeError(f"{name} must be ({self.n}, {self.n}), got {m.shape}")
            setattr(self, name, m)
        for name in ("Q", "R", "P0"):
            m = getattr(self, name)
            if not np.allclose(m, m.T):
                raise InvalidInputError(f"{name} must be symmetric")
            if np.any(np.diag(m) < 0):
                raise InvalidInputError(f"{name} must have a non-negative diagonal")


@dataclass
class KfState:
    """Posterior mean x (n,) and covariance P (n, n)."""

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(-1)
        self.P = np.asarray(self.P, dtype=float)
        n = self.x.shape[0]
        if self.P.shape != (n, n):
            raise ShapeError(f"P must be ({n}, {n}), got {self.P.shape}")


def accel_to_roll_pitch(accel) -> tuple[float, float]:
    """Gravity-tilt angles from a specific-force reading.

    roll = atan2(a_y, a_z), pitch = atan2(-a_x, sqrt(a_y^2 + a_z^2)).
    Assumes the reaction convention: a level sensor reads (0, 0, +g).
    """
    a = np.asarray(accel, dtype=float).reshape(3)
    if not np.linalg.norm(a) > 0.0:
        raise InvalidInputError("accelerometer reading has zero magnitude")
    roll = math.atan2(a[1], a[2])
    pitch = math.atan2(-a[0], math.hypot(a[1], a[2]))
    return float(wrap_angle(roll)), pitch


def mag_to_yaw(mag, roll: float, pitch: float) -> float:
    """Tilt-compensated compass heading.

    The field vector is de-rotated by roll and pitch into the horizontal
    plane, then yaw = atan2(-m_y, m_x) of the horizontal components.
    """
    m = np.asarray(mag, dtype=float).reshape(3)
    if not np.linalg.norm(m) > 0.0:
        raise InvalidInputError("magnetometer reading has zero magnitude")
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    mx = m[0] * cp + m[1] * sp * sr + m[2] * sp * cr
    my = m[1] * cr - m[2] * sr
    if math.hypot(mx, my) < MIN_HORIZONTAL_MAG:
        raise NumericalError("magnetic field is vertical: heading is undefined")
    return float(wrap_angle(math.atan2(-my, mx)))


def euler_rate_matrix(roll: float, pitch: float) -> np.ndarray:
    """Matrix mapping body rates (p, q, r) to Euler-angle rates."""
    sr, cr = math.sin(roll), math.cos(roll)
    tp = math.tan(pitch)
    cp = math.cos(pitch)
    return np.array([
        [1.0, sr * tp, cr * tp],
        [0.0, cr, -sr],
        [0.0, sr / cp, cr / cp],
    ])


def gyro_delta(gyro, roll: float, pitch: float, dt: float) -> np.ndarray:
    """Euler-angle increment produced by body rates over one step of dt seconds."""
    if not dt > 0.0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    if abs(pitch) >= math.pi / 2 - GIMBAL_LOCK_MARGIN:
        raise NumericalError(f"pitch {pitch:.6f} rad is at gimbal lock")
    w = np.asarray(gyro, dtype=float).reshape(3)
    return euler_rate_matrix(roll, pitch) @ w * dt


def kf_step(state: KfState, cfg: KfConfig, u, y) -> KfState:
    """One predict/update cycle; returns the new posterior.

    x' = Ax + Bu, P' = APA^T + Q, K = P'C^T (CP'C^T + R)^-1,
    x = x' + K(y - Cx'), P = (I - KC)P' with P symmetrized.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if u.shape[0] != cfg.n or y.shape[0] != cfg.n:
        raise ShapeError(f"u and y must have dimension {cfg.n}")
    x_pred = cfg.A @ state.x + cfg.B @ u
    P_pred = cfg.A @ state.P @ cfg.A.T + cfg.Q
    S = cfg.C @ P_pred @ cfg.C.T + cfg.R
    with np.errstate(all="ignore"):  # np.linalg.cond's value: inf for a singular S
        s = np.linalg.svd(S, compute_uv=False)
        cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > MAX_INNOVATION_COND:
        raise NumericalError(
            f"innovation covariance is not invertible (condition number {cond:.3e})"
        )
    # K = P'C^T S^-1 solved as S^T K^T = C P'^T, avoiding an explicit inverse
    K = np.linalg.solve(S.T, cfg.C @ P_pred.T).T
    x_new = x_pred + K @ (y - cfg.C @ x_pred)
    P_new = (np.eye(cfg.n) - K @ cfg.C) @ P_pred
    P_new = 0.5 * (P_new + P_new.T)
    return KfState(x_new, P_new)


def _measure(accel, mag):
    roll, pitch = accel_to_roll_pitch(accel)
    yaw = mag_to_yaw(mag, roll, pitch)
    return np.array([roll, pitch, yaw])


def run_kf(series: ImuSeries, cfg: KfConfig | None = None) -> AngleSeries:
    """Filter a whole IMU series into an Euler-angle series.

    Sample 0 is initialized from the accel/mag measurement alone. Each later
    sample runs kf_step with u = gyro_delta over the elapsed dt and
    y = (accel roll, accel pitch, mag yaw). Measurements are shifted by
    multiples of 2*pi onto the branch nearest the prediction, so residuals
    stay within pi; the output therefore evolves continuously and is not
    wrapped. Samples with a degenerate accel/mag reading get a predict-only
    step and their index is logged. A NaN or infinity anywhere in the series,
    even one written after construction, raises InvalidInputError naming its
    sample and column.
    """
    cfg = KfConfig() if cfg is None else cfg
    if cfg.n != 3:
        raise InvalidInputError("run_kf requires a 3-state configuration")
    if len(series) < 2:
        raise InvalidInputError("run_kf needs at least 2 samples")
    series.check_finite()

    out = np.empty((len(series), 3))
    state = KfState(_measure(series.accel[0], series.mag[0]), cfg.P0.copy())
    out[0] = state.x
    for i in range(1, len(series)):
        dt = series.t[i] - series.t[i - 1]
        u = gyro_delta(series.gyro[i], state.x[0], state.x[1], dt)
        x_pred = cfg.A @ state.x + cfg.B @ u
        try:
            y = _measure(series.accel[i], series.mag[i])
        except (InvalidInputError, NumericalError) as err:
            log.warning("sample %d: %s; skipping measurement update", i, err)
            P_pred = cfg.A @ state.P @ cfg.A.T + cfg.Q
            state = KfState(x_pred, 0.5 * (P_pred + P_pred.T))
        else:
            # the update goes through the public kf_step (which repeats the state
            # prediction), so kf_step runs exactly once per measurement update
            y = cfg.C @ x_pred + wrap_angle(y - cfg.C @ x_pred)
            state = kf_step(state, cfg, u, y)
        out[i] = state.x
    return AngleSeries(series.t.copy(), out, {"estimator": "kf"})


def integrate_gyro(series: ImuSeries) -> AngleSeries:
    """Dead-reckoning baseline: start from sample 0's accel/mag measurement,
    as run_kf does, then accumulate gyro_delta with no measurements."""
    if len(series) < 2:
        raise InvalidInputError("integrate_gyro needs at least 2 samples")
    series.check_finite()
    x = _measure(series.accel[0], series.mag[0])
    out = np.empty((len(series), 3))
    out[0] = x
    for i in range(1, len(series)):
        dt = series.t[i] - series.t[i - 1]
        x = x + gyro_delta(series.gyro[i], x[0], x[1], dt)
        out[i] = x
    return AngleSeries(series.t.copy(), out, {"estimator": "gyro"})


def measurement_angles(series: ImuSeries) -> AngleSeries:
    """Raw accel/mag baseline: per-sample gravity-tilt and compass angles."""
    series.check_finite()
    out = np.empty((len(series), 3))
    for i in range(len(series)):
        out[i] = _measure(series.accel[i], series.mag[i])
    return AngleSeries(series.t.copy(), out, {"estimator": "measurement"})
