"""Linear Kalman filter attitude estimation from raw IMU/AHRS streams.

The filter state is x = (roll, pitch, yaw). Per step, the gyro supplies the
control input u (attitude increments through the Euler-rate kinematics) and
the accelerometer/magnetometer supply the measurement y (gravity-tilt roll
and pitch plus tilt-compensated compass yaw). All system matrices default to
identity and no noise tuning is applied anywhere; downstream denoising is
responsible for whatever error is left.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DanaeError, InvalidInputError, NumericalError, ShapeError, check_integer
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


@dataclass(frozen=True, eq=False)
class KfConfig:
    """System matrices for the linear filter; everything defaults to identity.
    Checked when built, then frozen: each matrix is a read-only float64 copy
    of the one passed in, dataclasses.replace(cfg, R=...) builds (and checks)
    a changed model, and configs compare and hash by identity."""

    n: int = 3
    A: np.ndarray = None
    B: np.ndarray = None
    C: np.ndarray = None
    Q: np.ndarray = None
    R: np.ndarray = None
    P0: np.ndarray = None

    def __post_init__(self):
        check_integer("n", self.n, 1)
        for name in ("A", "B", "C", "Q", "R", "P0"):
            m = getattr(self, name)
            m = np.eye(self.n) if m is None else np.array(m, dtype=float)
            if m.shape != (self.n, self.n):
                raise ShapeError(f"{name} must be ({self.n}, {self.n}), got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise InvalidInputError(f"{name} holds a NaN or an infinity")
            m.flags.writeable = False
            object.__setattr__(self, name, m)
        for name in ("Q", "R", "P0"):
            m = getattr(self, name)
            if not np.allclose(m, m.T):
                raise InvalidInputError(f"{name} must be symmetric")
            if np.any(np.diag(m) < 0):
                raise InvalidInputError(f"{name} must have a non-negative diagonal")


# run_kf's config when none is given, shared so default runs share _gain entries
_DEFAULT_CONFIG = KfConfig()


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


# measurement faults, one code per row (0 for a usable row); a row with more
# than one reports the first in this order: accel, then mag, then the field
_ZERO_ACCEL, _ZERO_MAG, _VERTICAL_FIELD = 1, 2, 3
_FAULTS = {
    _ZERO_ACCEL: (InvalidInputError, "accelerometer reading has zero magnitude"),
    _ZERO_MAG: (InvalidInputError, "magnetometer reading has zero magnitude"),
    _VERTICAL_FIELD: (NumericalError, "magnetic field is vertical: heading is undefined"),
}


def _fault_error(code) -> DanaeError:
    error, message = _FAULTS[int(code)]
    return error(message)


def _raise_first_fault(fault: np.ndarray) -> None:
    """Raise the first faulty row's error, naming its sample index."""
    bad = np.flatnonzero(fault)
    if bad.size:
        error, message = _FAULTS[int(fault[bad[0]])]
        raise error(f"sample {bad[0]}: {message}")


def _tilt(accel: np.ndarray):
    """Roll, pitch and fault code of each (N, 3) specific-force row.

    A row whose magnitude is not > 0 (zero, or NaN) is a fault. Huge or NaN
    readings raise no numpy warning; the fault code is their only report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        zero = ~(np.linalg.norm(accel, axis=1) > 0.0)
        roll = wrap_angle(np.arctan2(accel[:, 1], accel[:, 2]))
        pitch = np.arctan2(-accel[:, 0], np.hypot(accel[:, 1], accel[:, 2]))
    return roll, pitch, np.where(zero, _ZERO_ACCEL, 0)


def _heading(mag: np.ndarray, roll: np.ndarray, pitch: np.ndarray):
    """Tilt-compensated yaw and fault code of each (N, 3) field row."""
    with np.errstate(over="ignore", invalid="ignore"):
        zero = ~(np.linalg.norm(mag, axis=1) > 0.0)
        sr, cr = np.sin(roll), np.cos(roll)
        sp, cp = np.sin(pitch), np.cos(pitch)
        mx = mag[:, 0] * cp + mag[:, 1] * sp * sr + mag[:, 2] * sp * cr
        my = mag[:, 1] * cr - mag[:, 2] * sr
        vertical = np.hypot(mx, my) < MIN_HORIZONTAL_MAG
        yaw = wrap_angle(np.arctan2(-my, mx))
    return yaw, np.where(zero, _ZERO_MAG, np.where(vertical, _VERTICAL_FIELD, 0))


def _measure_rows(accel: np.ndarray, mag: np.ndarray):
    """The accel/mag measurement model on (N, 3) rows: (roll, pitch, yaw)
    rows and one fault code per row, 0 where the row is usable."""
    roll, pitch, tilt_fault = _tilt(accel)
    yaw, heading_fault = _heading(mag, roll, pitch)
    return (np.column_stack([roll, pitch, yaw]),
            np.where(tilt_fault > 0, tilt_fault, heading_fault))


def accel_to_roll_pitch(accel) -> tuple[float, float]:
    """Gravity-tilt angles from a specific-force reading.

    roll = atan2(a_y, a_z), pitch = atan2(-a_x, sqrt(a_y^2 + a_z^2)).
    Assumes the reaction convention: a level sensor reads (0, 0, +g).
    """
    roll, pitch, fault = _tilt(np.asarray(accel, dtype=float).reshape(1, 3))
    if fault[0]:
        raise _fault_error(fault[0])
    return float(roll[0]), float(pitch[0])


def mag_to_yaw(mag, roll: float, pitch: float) -> float:
    """Tilt-compensated compass heading.

    The field vector is de-rotated by roll and pitch into the horizontal
    plane, then yaw = atan2(-m_y, m_x) of the horizontal components.
    """
    yaw, fault = _heading(np.asarray(mag, dtype=float).reshape(1, 3),
                          np.asarray(roll, dtype=float).reshape(1),
                          np.asarray(pitch, dtype=float).reshape(1))
    if fault[0]:
        raise _fault_error(fault[0])
    return float(yaw[0])


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


@functools.lru_cache(maxsize=256)
def _gain(cfg: KfConfig, prior: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gain K and posterior covariance for the prior covariance P,
    passed as P.tobytes(): the part of kf_step that never reads u or y.

    With a fixed model the recursion visits few distinct P, so results are
    cached per config and P, the least recently used of 256 evicted first.
    A failure is not cached: it raises again on every call.
    """
    P = np.frombuffer(prior).reshape(cfg.n, cfg.n)
    if not np.isfinite(P).all():
        raise InvalidInputError("P holds a NaN or an infinity")
    P_pred = cfg.A @ P @ cfg.A.T + cfg.Q
    S = cfg.C @ P_pred @ cfg.C.T + cfg.R
    cond = np.linalg.cond(S)  # inf for a singular S
    if not np.isfinite(cond) or cond > MAX_INNOVATION_COND:
        raise NumericalError(
            f"innovation covariance is not invertible (condition number {cond:.3e})"
        )
    # K = P'C^T S^-1 solved as S^T K^T = C P'^T, avoiding an explicit inverse
    K = np.linalg.solve(S.T, cfg.C @ P_pred.T).T
    P_new = (np.eye(cfg.n) - K @ cfg.C) @ P_pred
    P_new = 0.5 * (P_new + P_new.T)
    K.flags.writeable = P_new.flags.writeable = False
    return K, P_new


def kf_step(state: KfState, cfg: KfConfig, u, y) -> KfState:
    """One predict/update cycle; returns the new posterior.

    x' = Ax + Bu, P' = APA^T + Q, K = P'C^T (CP'C^T + R)^-1,
    x = x' + K(y - Cx'), P = (I - KC)P' with P symmetrized.
    K and P do not depend on u or y, and are cached (see _gain).
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if u.shape[0] != cfg.n or y.shape[0] != cfg.n:
        raise ShapeError(f"u and y must have dimension {cfg.n}")
    x_pred = cfg.A @ state.x + cfg.B @ u
    K, P_new = _gain(cfg, state.P.tobytes())
    return KfState(x_pred + K @ (y - cfg.C @ x_pred), P_new.copy())


def run_kf(series: ImuSeries, cfg: KfConfig | None = None) -> AngleSeries:
    """Filter a whole IMU series into an Euler-angle series.

    Sample 0 is initialized from the accel/mag measurement alone. Each later
    sample runs kf_step with u = gyro_delta over the elapsed dt and
    y = (accel roll, accel pitch, mag yaw). Measurements are shifted by
    multiples of 2*pi onto the branch nearest the prediction, so residuals
    stay within pi; the output therefore evolves continuously and is not
    wrapped. Samples with a degenerate accel/mag reading get a predict-only
    step and their index is logged; at sample 0, which has no prediction,
    the reading's error is raised naming the sample. A NaN or infinity
    anywhere in the series, even one written after construction, raises
    InvalidInputError naming its sample and column.
    """
    cfg = _DEFAULT_CONFIG if cfg is None else cfg
    if cfg.n != 3:
        raise InvalidInputError("run_kf requires a 3-state configuration")
    if len(series) < 2:
        raise InvalidInputError("run_kf needs at least 2 samples")
    series.check_finite()
    measured, fault = _measure_rows(series.accel, series.mag)
    _raise_first_fault(fault[:1])

    out = np.empty((len(series), 3))
    state = KfState(measured[0], cfg.P0.copy())
    out[0] = state.x
    steps = zip(np.diff(series.t).tolist(), fault.tolist()[1:])
    for i, (dt, code) in enumerate(steps, start=1):
        u = gyro_delta(series.gyro[i], state.x[0], state.x[1], dt)
        x_pred = cfg.A @ state.x + cfg.B @ u
        if code:
            log.warning("sample %d: %s; skipping measurement update", i, _fault_error(code))
            P_pred = cfg.A @ state.P @ cfg.A.T + cfg.Q
            state = KfState(x_pred, 0.5 * (P_pred + P_pred.T))
        else:
            # the update goes through the public kf_step (which repeats the state
            # prediction), so kf_step runs exactly once per measurement update
            y = cfg.C @ x_pred + wrap_angle(measured[i] - cfg.C @ x_pred)
            state = kf_step(state, cfg, u, y)
        out[i] = state.x
    return AngleSeries(series.t.copy(), out, {"estimator": "kf"})


def integrate_gyro(series: ImuSeries) -> AngleSeries:
    """Dead-reckoning baseline: start from sample 0's accel/mag measurement,
    as run_kf does, then accumulate gyro_delta with no measurements."""
    if len(series) < 2:
        raise InvalidInputError("integrate_gyro needs at least 2 samples")
    series.check_finite()
    measured, fault = _measure_rows(series.accel[:1], series.mag[:1])
    _raise_first_fault(fault)
    x = measured[0]
    out = np.empty((len(series), 3))
    out[0] = x
    for i in range(1, len(series)):
        dt = series.t[i] - series.t[i - 1]
        x = x + gyro_delta(series.gyro[i], x[0], x[1], dt)
        out[i] = x
    return AngleSeries(series.t.copy(), out, {"estimator": "gyro"})


def measurement_angles(series: ImuSeries) -> AngleSeries:
    """Raw accel/mag baseline: per-sample gravity-tilt and compass angles.

    The first degenerate reading raises its error naming the sample index.
    """
    series.check_finite()
    measured, fault = _measure_rows(series.accel, series.mag)
    _raise_first_fault(fault)
    return AngleSeries(series.t.copy(), measured, {"estimator": "measurement"})
