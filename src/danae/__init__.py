"""Attitude estimation from IMU/AHRS data: a linear Kalman filter front end
and a learned convolutional denoiser that cleans up its Euler-angle output,
with a synthetic-data harness so the whole pipeline is testable offline.
"""

__version__ = "0.1.0"

from .attitude_kf import (
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
from .danae_model import (
    DanaeModel,
    TrainConfig,
    build_model,
    denoise_series,
    load_model,
    save_model,
    train,
)
from .dataio import (
    FractionSplit,
    SynthConfig,
    WindowSet,
    euler_to_quat,
    load_oxiod,
    load_ucs,
    make_windows,
    quat_to_euler,
    read_angle_csv,
    split,
    synth_trajectory,
    write_angle_csv,
)
from .evalkit import MetricsReport, build_report, deviations, emit_plot_data
from .series import AngleSeries, EulerAngles, ImuSeries
from .tensor_nn import (
    AdamState,
    ConvSpec,
    Tensor,
    activation,
    adam_step,
    backward,
    conv1d,
    conv1d_transposed,
    l2_loss,
)

__all__ = [
    "__version__",
    "EulerAngles", "KfConfig", "KfState",
    "accel_to_roll_pitch", "mag_to_yaw", "gyro_delta", "kf_step", "run_kf",
    "integrate_gyro", "measurement_angles",
    "DanaeModel", "TrainConfig", "build_model", "train",
    "denoise_series", "save_model", "load_model",
    "AngleSeries", "ImuSeries", "WindowSet", "SynthConfig",
    "FractionSplit",
    "quat_to_euler", "euler_to_quat", "load_oxiod", "load_ucs",
    "synth_trajectory", "make_windows", "split",
    "read_angle_csv", "write_angle_csv",
    "MetricsReport", "deviations", "build_report", "emit_plot_data",
    "Tensor", "ConvSpec", "AdamState",
    "conv1d", "conv1d_transposed", "activation", "l2_loss",
    "backward", "adam_step",
]
