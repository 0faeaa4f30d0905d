"""Dataset loaders, the synthetic IMU generator, window building and splits.

CSV schemas (documented; loaders validate and fail loudly):

* OxIOD-style IMU file, 16 columns, header optional:
    time, attitude_roll, attitude_pitch, attitude_yaw,
    rotation_rate_x/y/z [rad/s], gravity_x/y/z [g], user_acc_x/y/z [g],
    magnetic_x/y/z [uT]
  Specific force is (gravity + user_acc) * 9.80665 in the reaction
  convention (a level, static sensor reads gravity ~ (0, 0, +1)).
* OxIOD-style ground-truth (vicon) file, 8 columns, header optional:
    time, translation_x/y/z [m], rotation_w/x/y/z (unit quaternion)
* UCS-style file, 13 columns, header optional:
    time, gyro_x/y/z [rad/s], accel_x/y/z [m/s^2], mag_x/y/z,
    orientation_roll/pitch/yaw [rad]
  The orientation columns are the onboard AHRS output and double as the
  ground truth; its yaw is flagged unreliable in the returned metadata.
* Canonical angle-series file: t, roll, pitch, yaw (radians, 17
  significant digits).
* Canonical IMU file (synthetic output): t, gyro_x/y/z, accel_x/y/z,
  mag_x/y/z.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InvalidInputError, ShapeError, check_integer
from .series import _ANGLE_COLUMNS, _IMU_COLUMNS, AngleSeries, EulerAngles, ImuSeries, wrap_angle

__all__ = [
    "WindowSet",
    "SynthConfig",
    "FractionSplit",
    "quat_to_euler",
    "euler_to_quat",
    "load_oxiod",
    "load_ucs",
    "synth_trajectory",
    "make_windows",
    "sliding_windows",
    "split",
    "read_table",
    "read_angle_csv",
    "write_angle_csv",
    "read_imu_csv",
    "write_imu_csv",
    "read_config_file",
]

STANDARD_GRAVITY = 9.80665

# Fixed world magnetic field: unit vector pointing north with a 52 deg
# downward dip, a mid-latitude value.
WORLD_MAG_FIELD = np.array([math.cos(math.radians(52.0)), 0.0, math.sin(math.radians(52.0))])

DEFAULT_WINDOW = 20  # the denoiser's window length, for training and inference

OXIOD_IMU_COLUMNS = 16
OXIOD_VICON_COLUMNS = 8
UCS_COLUMNS = 13


# ---------------------------------------------------------------------------
# quaternion <-> Euler

def quat_to_euler(q) -> EulerAngles:
    """Euler angles (intrinsic Z-Y-X) of a unit quaternion (w, x, y, z)."""
    q = np.asarray(q, dtype=float).reshape(4)
    if not np.isfinite(q).all():
        raise InvalidInputError(f"quaternion {q.tolist()} holds a NaN or an infinity")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(q)
    if math.isinf(norm):
        # the squared norm overflows: scale by the largest component first
        q = q / np.max(np.abs(q))
        norm = np.linalg.norm(q)
    if norm < 1e-12:
        raise InvalidInputError("zero quaternion has no orientation")
    if abs(norm - 1.0) > 1e-6:
        q = q / norm
    w, x, y, z = q
    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    s = 2.0 * (w * y - z * x)
    pitch = math.asin(max(-1.0, min(1.0, s)))
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return EulerAngles(float(wrap_angle(roll)), pitch, float(wrap_angle(yaw)))


def euler_to_quat(angles: EulerAngles) -> np.ndarray:
    """Unit quaternion (w, x, y, z) composed as qz(yaw) * qy(pitch) * qx(roll)."""
    hr, hp, hy = angles.roll / 2.0, angles.pitch / 2.0, angles.yaw / 2.0
    cr, sr = math.cos(hr), math.sin(hr)
    cp, sp = math.cos(hp), math.sin(hp)
    cy, sy = math.cos(hy), math.sin(hy)
    return np.array([
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ])


# ---------------------------------------------------------------------------
# CSV plumbing

def _text_lines(path, error):
    """The (number, line) pairs of a UTF-8 text file, one at a time and
    without their line ends. A leading byte order mark is dropped by hand:
    "utf-8-sig" would also drop a 1- or 2-byte prefix of one at the end of
    the file. Text mode splits lines at "\n", "\r" and "\r\n";
    surrogateescape decodes each byte that is not UTF-8 to one of
    U+DC80..U+DCFF, which strict UTF-8 never yields, so a line that does not
    encode back raises `error` naming the line and its first such byte."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")
            if number == 1:
                line = line.removeprefix("\ufeff")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as err:
                raise error(f"{path}:{number}: byte {ord(line[err.start]) - 0xDC00:#04x} "
                            f"is not UTF-8 text") from None
            yield number, line


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_table(path, expected_columns: int) -> np.ndarray:
    """Read a numeric CSV of `expected_columns` columns into a 2-D float
    array, a line at a time into one float buffer. Line 1 is skipped as a
    header when none of its cells reads as a number.

    The first problem in file order raises DataError naming its line: a row
    of another width, a cell that does not parse or is not finite, or a
    byte that is not UTF-8.
    """
    path = Path(path)
    values = array("d")
    for lineno, line in _text_lines(path, DataError):
        text = line.strip()
        if not text:
            continue
        cells = text.split(",")
        # a row with one bad cell among numbers is a data row, and its error
        # names the line
        if lineno == 1 and not any(map(_is_number, cells)):
            continue
        if len(cells) != expected_columns:
            raise DataError(
                f"{path}:{lineno}: expected {expected_columns} columns, got {len(cells)}"
            )
        try:
            row = [float(c) for c in cells]
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: {err}") from None
        if not all(map(math.isfinite, row)):
            col = next(i for i, v in enumerate(row) if not math.isfinite(v))
            raise DataError(
                f"{path}:{lineno}: column {col + 1} holds {cells[col].strip()!r}, "
                f"not a finite number"
            )
        values.extend(row)
    if not values:
        raise DataError(f"{path}: no data rows")
    return np.frombuffer(values).reshape(-1, expected_columns)


def _check_monotonic(path, t):
    bad = np.flatnonzero(np.diff(t) <= 0)
    if bad.size:
        raise DataError(
            f"{path}: timestamps not strictly increasing at data row {bad[0] + 2}"
        )


def _write_table(path, header: str, table: np.ndarray) -> None:
    """A header line, then each table row as 17-significant-digit cells.
    savetxt gets an open file: given a path, it would compress by the
    file's extension (.gz, .bz2, .xz)."""
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=header, comments="")


def write_angle_csv(path, series: AngleSeries) -> None:
    # the arrays stay writable, so a value set after construction is checked
    # here rather than written as a cell read_table would reject
    series.check_finite()
    _write_table(path, ",".join(_ANGLE_COLUMNS), np.column_stack([series.t, series.angles]))


def read_angle_csv(path) -> AngleSeries:
    data = read_table(path, expected_columns=4)
    _check_monotonic(path, data[:, 0])
    return AngleSeries(data[:, 0], data[:, 1:4])


def write_imu_csv(path, series: ImuSeries) -> None:
    series.check_finite()
    _write_table(path, ",".join(_IMU_COLUMNS),
                 np.column_stack([series.t, series.gyro, series.accel, series.mag]))


def read_imu_csv(path) -> ImuSeries:
    data = read_table(path, expected_columns=10)
    _check_monotonic(path, data[:, 0])
    return ImuSeries(data[:, 0], data[:, 1:4], data[:, 4:7], data[:, 7:10])


def _normalized_rows(m):
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return m / safe


def _nearest_indices(src_t, dst_t):
    """For each dst time, the index of the nearest src time."""
    pos = np.searchsorted(src_t, dst_t)
    pos = np.clip(pos, 1, len(src_t) - 1)
    left = src_t[pos - 1]
    right = src_t[pos]
    choose_left = (dst_t - left) <= (right - dst_t)
    return np.where(choose_left, pos - 1, pos)


# ---------------------------------------------------------------------------
# dataset loaders

def load_oxiod(imu_path, vicon_path) -> tuple[ImuSeries, AngleSeries]:
    """Load an OxIOD-style IMU/vicon file pair.

    Ground-truth quaternions are converted to Euler angles and resampled to
    the IMU timestamps by nearest neighbor.
    """
    imu = read_table(imu_path, expected_columns=OXIOD_IMU_COLUMNS)
    _check_monotonic(imu_path, imu[:, 0])
    vicon = read_table(vicon_path, expected_columns=OXIOD_VICON_COLUMNS)
    _check_monotonic(vicon_path, vicon[:, 0])

    t = imu[:, 0]
    gyro = imu[:, 4:7]
    accel = (imu[:, 7:10] + imu[:, 10:13]) * STANDARD_GRAVITY
    mag = _normalized_rows(imu[:, 13:16])
    series = ImuSeries(t, gyro, accel, mag)

    quats = vicon[:, 4:8]
    gt = np.empty((len(vicon), 3))
    for i, q in enumerate(quats):
        try:
            e = quat_to_euler(q)
        except InvalidInputError as err:
            raise DataError(f"{vicon_path}: data row {i + 1}: {err}") from None
        gt[i] = (e.roll, e.pitch, e.yaw)
    idx = _nearest_indices(vicon[:, 0], t)
    truth = AngleSeries(t, gt[idx], {"source": "oxiod"})
    return series, truth


def load_ucs(path) -> tuple[ImuSeries, AngleSeries]:
    """Load a UCS-style file; the AHRS orientation columns serve as ground truth."""
    data = read_table(path, expected_columns=UCS_COLUMNS)
    _check_monotonic(path, data[:, 0])
    t = data[:, 0]
    series = ImuSeries(t, data[:, 1:4], data[:, 4:7], _normalized_rows(data[:, 7:10]))
    truth = AngleSeries(t, data[:, 10:13],
                        {"source": "ucs", "yaw_reliable": False})
    return series, truth


# ---------------------------------------------------------------------------
# synthetic trajectories

@dataclass(frozen=True)
class SynthConfig:
    """Synthetic-scenario knobs: sinusoidal attitude plus sensor noise.

    Defaults describe the standard desk-scale benchmark trajectory: two
    minutes at 100 Hz with moderate sensor noise and a constant gyro bias.
    A config checks its fields when built and raises ConfigError.
    """

    duration: float = 120.0
    rate: float = 100.0
    roll_amp: float = 0.5
    roll_freq: float = 0.10
    pitch_amp: float = 0.35
    pitch_freq: float = 0.17
    yaw_amp: float = 0.8
    yaw_freq: float = 0.05
    gyro_noise: float = 0.02
    gyro_bias: float = 0.01
    accel_noise: float = 0.5
    mag_noise: float = 0.05
    seed: int = 42

    def __post_init__(self):
        check_integer("seed", self.seed, 0)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not self.duration > 0:
            raise ConfigError("duration must be positive")
        if not self.rate > 0:
            raise ConfigError("rate must be positive")
        for name in ("gyro_noise", "accel_noise", "mag_noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        # keep pitch well clear of +-pi/2 so the rate kinematics stay regular
        if abs(self.pitch_amp) >= 1.2:
            raise ConfigError("pitch amplitude must stay below 1.2 rad")
        # checked for finiteness before round(), which overflows on an infinity
        count = self.duration * self.rate
        if not (math.isfinite(count) and round(count) >= 2):
            raise ConfigError(f"duration * rate must give at least 2 samples, got {count}")
        if round(count) > np.iinfo(np.intp).max:
            raise ConfigError(f"duration * rate must give at most {np.iinfo(np.intp).max} "
                              f"samples, got {count}")

    @property
    def samples(self) -> int:
        """The scenario's sample count, round(duration * rate)."""
        return int(round(self.duration * self.rate))


# phase offsets keep the three sinusoids out of lockstep
_SYNTH_PHASES = np.array([0.0, 1.0, 2.0])


def _body_rate_matrices(angles):
    """Inverse Euler-rate kinematics for a batch of (N, 3) Euler angles: the
    (N, 3, 3) matrices that map Euler-angle rates to body rates."""
    sr, cr = np.sin(angles[:, 0]), np.cos(angles[:, 0])
    sp, cp = np.sin(angles[:, 1]), np.cos(angles[:, 1])
    B = np.zeros((len(angles), 3, 3))
    B[:, 0, 0] = 1.0
    B[:, 0, 2] = -sp
    B[:, 1, 1] = cr
    B[:, 1, 2] = sr * cp
    B[:, 2, 1] = -sr
    B[:, 2, 2] = cr * cp
    return B


def _world_to_body(angles):
    """Rows of R^T for a batch of (N, 3) Euler angles (vectorized)."""
    sr, cr = np.sin(angles[:, 0]), np.cos(angles[:, 0])
    sp, cp = np.sin(angles[:, 1]), np.cos(angles[:, 1])
    sy, cy = np.sin(angles[:, 2]), np.cos(angles[:, 2])
    # body->world, row-major entries of R = Rz(yaw) Ry(pitch) Rx(roll)
    R = np.empty((len(angles), 3, 3))
    R[:, 0, 0] = cy * cp
    R[:, 0, 1] = cy * sp * sr - sy * cr
    R[:, 0, 2] = cy * sp * cr + sy * sr
    R[:, 1, 0] = sy * cp
    R[:, 1, 1] = sy * sp * sr + cy * cr
    R[:, 1, 2] = sy * sp * cr - cy * sr
    R[:, 2, 0] = -sp
    R[:, 2, 1] = cp * sr
    R[:, 2, 2] = cp * cr
    return np.transpose(R, (0, 2, 1))


def synth_trajectory(cfg: SynthConfig) -> tuple[ImuSeries, AngleSeries]:
    """Generate an IMU series with exact sinusoidal attitude ground truth.

    The noiseless gyro is the exact discrete inverse of the filter's rate
    kinematics: integrating it with gyro_delta reproduces the ground truth
    to machine precision. Accelerometer samples are the gravity reaction
    rotated into the body frame (zero linear acceleration by construction)
    and magnetometer samples are a fixed dipping world field, both plus
    white noise; the gyro additionally carries a constant bias on each axis.
    """
    n = cfg.samples
    t = np.arange(n) / cfg.rate
    amps = np.array([cfg.roll_amp, cfg.pitch_amp, cfg.yaw_amp])
    freqs = np.array([cfg.roll_freq, cfg.pitch_freq, cfg.yaw_freq])
    angles = amps * np.sin(2.0 * np.pi * freqs * t[:, None] + _SYNTH_PHASES)

    # sample 0 takes the analytic rate, each later sample its step's finite
    # difference, mapped at the attitude the step starts from
    rates0 = amps * 2.0 * np.pi * freqs * np.cos(_SYNTH_PHASES)
    rates = np.vstack([rates0, (angles[1:] - angles[:-1]) / np.diff(t)[:, None]])
    start = np.vstack([angles[:1], angles[:-1]])
    gyro = (_body_rate_matrices(start) @ rates[:, :, None])[:, :, 0]

    Rt = _world_to_body(angles)
    accel = Rt @ np.array([0.0, 0.0, STANDARD_GRAVITY])
    mag = Rt @ WORLD_MAG_FIELD

    # the draw order is fixed so one seed pins the whole scenario
    rng = np.random.default_rng(cfg.seed)
    gyro = gyro + cfg.gyro_bias + rng.normal(0.0, cfg.gyro_noise, (n, 3))
    accel = accel + rng.normal(0.0, cfg.accel_noise, (n, 3))
    mag = mag + rng.normal(0.0, cfg.mag_noise, (n, 3))

    series = ImuSeries(t, gyro, accel, mag)
    truth = AngleSeries(t, angles, {"source": "synthetic", "seed": cfg.seed})
    return series, truth


# ---------------------------------------------------------------------------
# windows and splits

@dataclass
class WindowSet:
    """Aligned (estimate, truth) training windows for one angle."""

    inputs: np.ndarray   # (M, DEFAULT_WINDOW)
    targets: np.ndarray  # (M, DEFAULT_WINDOW)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.shape != self.targets.shape:
            raise ShapeError("inputs and targets must have identical shapes")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def window_length(self) -> int:
        return self.inputs.shape[1]


def sliding_windows(track: np.ndarray, stride: int = 1) -> np.ndarray:
    """The DEFAULT_WINDOW-long windows of a track, one per `stride` samples (read-only view)."""
    return np.lib.stride_tricks.sliding_window_view(track, DEFAULT_WINDOW)[::stride]


def make_windows(estimates: AngleSeries, truth: AngleSeries, angle_id,
                 stride: int = 1) -> WindowSet:
    """Cut one angle track into aligned windows, one per `stride` samples."""
    if len(estimates) != len(truth):
        raise ShapeError("estimate and truth series lengths disagree")
    if len(estimates) < DEFAULT_WINDOW:
        raise InvalidInputError(
            f"need at least {DEFAULT_WINDOW} samples, got {len(estimates)}"
        )
    if stride < 1:
        raise InvalidInputError("stride must be >= 1")
    return WindowSet(
        sliding_windows(estimates.angle(angle_id), stride),
        sliding_windows(truth.angle(angle_id), stride),
    )


@dataclass(frozen=True)
class FractionSplit:
    """Temporal head/tail split at floor(fraction * N)."""

    fraction: float = 0.8

    def __post_init__(self):
        if not (isinstance(self.fraction, numbers.Real) and 0.0 < self.fraction < 1.0):
            raise InvalidInputError(f"fraction must be in (0, 1), got {self.fraction!r}")

    def cut(self, n: int) -> int:
        """Where a series of n samples splits: floor(fraction * n)."""
        return int(math.floor(self.fraction * n))


def split(dataset, policy):
    """Partition a dataset into (train, test) without reordering anything.

    FractionSplit slices any sequence-like dataset at floor(fraction * N).
    """
    if isinstance(policy, FractionSplit):
        cut = policy.cut(len(dataset))
        return dataset[:cut], dataset[cut:]
    raise ConfigError(f"unknown split policy: {policy!r}")


# ---------------------------------------------------------------------------
# key=value config files

def read_config_file(path) -> dict[str, str]:
    """Parse a plain key=value file; '#' starts a comment, blank lines ignored.
    The first line without '=' or byte that is not UTF-8 raises ConfigError."""
    out: dict[str, str] = {}
    for lineno, line in _text_lines(path, ConfigError):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, value = text.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def synth_settings(mapping) -> dict:
    """The SynthConfig fields of string key=value pairs, each read as its field's type."""
    types = {f.name: type(f.default) for f in fields(SynthConfig)}
    settings = {}
    for key, value in mapping.items():
        if key not in types:
            raise ConfigError(f"unknown synth config key {key!r}")
        try:
            settings[key] = types[key](value)
        except ValueError:
            raise ConfigError(f"synth config key {key!r}: cannot read {value!r} "
                              f"as {types[key].__name__}") from None
    return settings
