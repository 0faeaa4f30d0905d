"""Core value types: one attitude, and time-aligned IMU or angle series.

Angle convention used package-wide: intrinsic Z-Y-X Euler angles
(roll phi about x, pitch theta about y, yaw psi about z), radians.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError

ANGLE_NAMES = ("roll", "pitch", "yaw")
# the column names of each series, in the order the canonical CSV files hold them
_IMU_COLUMNS = ("t",) + tuple(f"{s}_{a}" for s in ("gyro", "accel", "mag") for a in "xyz")
_ANGLE_COLUMNS = ("t",) + ANGLE_NAMES


def wrap_angle(x):
    """Wrap an angle (scalar or array) to the half-open interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)


def angle_index(angle_id) -> int:
    """Resolve 'roll'/'pitch'/'yaw' (or an integer index 0..2) to a column index.

    Anything else raises InvalidInputError, a float or a bool included:
    int() would silently take 1.7 or True as pitch.
    """
    if isinstance(angle_id, str):
        i = ANGLE_NAMES.index(angle_id) if angle_id in ANGLE_NAMES else None
    else:
        try:
            i = None if isinstance(angle_id, bool) else operator.index(angle_id)
        except TypeError:
            i = None
    if i not in (0, 1, 2):
        raise InvalidInputError(f"unknown angle id {angle_id!r}: expected one of "
                                f"{', '.join(ANGLE_NAMES)} or an index 0..2")
    return i


@dataclass(frozen=True)
class EulerAngles:
    """One attitude as roll/pitch/yaw in radians."""

    roll: float
    pitch: float
    yaw: float


def _as_matrix(name, values, cols):
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[1] != cols:
        raise ShapeError(f"{name} must be (N, {cols}), got {a.shape}")
    return a


def _check_finite(kind: str, columns, table: np.ndarray) -> None:
    """Raise InvalidInputError naming the first sample, and its column, that
    holds a NaN or an infinity."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise InvalidInputError(
            f"{kind} holds {table[row, col]} in {columns[col]} at sample {row}")


def _check_slice(key) -> None:
    if not isinstance(key, slice):
        raise TypeError(f"a series takes slices only, not {type(key).__name__}")


class ImuSeries:
    """A time-ordered IMU log held as (N,) / (N,3) arrays.

    Every value must be finite, timestamps must be strictly increasing and
    the series must contain at least two samples.
    """

    def __init__(self, t, gyro, accel, mag):
        self.t = np.asarray(t, dtype=float).reshape(-1)
        self.gyro = _as_matrix("gyro", gyro, 3)
        self.accel = _as_matrix("accel", accel, 3)
        self.mag = _as_matrix("mag", mag, 3)
        n = len(self.t)
        if not (n == len(self.gyro) == len(self.accel) == len(self.mag)):
            raise ShapeError("imu channel lengths disagree")
        if n < 2:
            raise InvalidInputError("an IMU series needs at least 2 samples")
        self.check_finite()
        bad = np.flatnonzero(np.diff(self.t) <= 0)
        if bad.size:
            raise InvalidInputError(
                f"timestamps must be strictly increasing (first violation at sample {bad[0] + 1})"
            )

    def check_finite(self) -> None:
        """Raise InvalidInputError naming the first non-finite value's sample and column."""
        _check_finite("IMU series", _IMU_COLUMNS,
                      np.column_stack([self.t, self.gyro, self.accel, self.mag]))

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key: slice) -> "ImuSeries":
        """A sub-series; there is no per-sample view, so only slices are taken."""
        _check_slice(key)
        return ImuSeries(self.t[key], self.gyro[key], self.accel[key], self.mag[key])

    # without this, iter() would fall back to __getitem__(0), (1), ...
    __iter__ = None


class AngleSeries:
    """Euler angles over time: t (N,) and angles (N, 3) = [roll, pitch, yaw]."""

    def __init__(self, t, angles, meta: dict | None = None):
        self.t = np.asarray(t, dtype=float).reshape(-1)
        self.angles = _as_matrix("angles", angles, 3)
        if len(self.t) != len(self.angles):
            raise ShapeError("t and angles lengths disagree")
        self.check_finite()
        self.meta = dict(meta) if meta else {}

    def check_finite(self) -> None:
        """Raise InvalidInputError naming the first non-finite value's sample and column."""
        _check_finite("angle series", _ANGLE_COLUMNS,
                      np.column_stack([self.t, self.angles]))

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key: slice) -> "AngleSeries":
        """A sub-series; there is no per-sample view, so only slices are taken."""
        _check_slice(key)
        return AngleSeries(self.t[key], self.angles[key], self.meta)

    __iter__ = None

    def angle(self, angle_id) -> np.ndarray:
        """The 1-D track of one angle, selected by name or index."""
        return self.angles[:, angle_index(angle_id)]

    @property
    def roll(self) -> np.ndarray:
        return self.angles[:, 0]

    @property
    def pitch(self) -> np.ndarray:
        return self.angles[:, 1]

    @property
    def yaw(self) -> np.ndarray:
        return self.angles[:, 2]

    def with_angle(self, angle_id, values) -> "AngleSeries":
        """A copy of the series with one angle track replaced."""
        values = np.asarray(values, dtype=float).reshape(-1)
        if len(values) != len(self):
            raise ShapeError("replacement track length disagrees with series")
        angles = self.angles.copy()
        angles[:, angle_index(angle_id)] = values
        return AngleSeries(self.t, angles, self.meta)
