"""Regenerate the bundled fixtures: loader inputs from the synthetic
scenario, and one small model checkpoint.

Run from the repository root:  PYTHONPATH=src python3 tests/fixtures/generate_fixtures.py

The CSV fixtures are small excerpts in the documented dataset schemas,
produced from one seeded synthetic trajectory so that loader tests have
exact expectations. Real OxIOD/UCS recordings are not redistributed here.
model_4ch.ckpt is a seeded 4-channel model as save_model writes it; a test
checks that today's save_model still writes those bytes, so any change to
the checkpoint format shows as a diff of this file.
"""

from pathlib import Path

import numpy as np

from danae.danae_model import build_model, save_model
from danae.dataio import (
    STANDARD_GRAVITY,
    SynthConfig,
    _world_to_body,
    euler_to_quat,
    synth_trajectory,
)
from danae.series import EulerAngles

HERE = Path(__file__).parent


def fmt(values) -> str:
    return ",".join(f"{v:.9g}" for v in values)


def main() -> None:
    cfg = SynthConfig(duration=2.5, rate=80.0, seed=7,
                      gyro_noise=0.005, gyro_bias=0.002,
                      accel_noise=0.1, mag_noise=0.01)
    imu, gt = synth_trajectory(cfg)
    n = len(imu)
    assert n == 200

    # OxIOD-style IMU file: accel split into a gravity direction (g units)
    # and the user-acceleration remainder; magnetics scaled to uT.
    gravity = _world_to_body(gt.angles) @ np.array([0.0, 0.0, 1.0])
    user_acc = imu.accel / STANDARD_GRAVITY - gravity
    with open(HERE / "oxiod_imu.csv", "w", encoding="utf-8") as fh:
        fh.write("time,attitude_roll,attitude_pitch,attitude_yaw,"
                 "rotation_rate_x,rotation_rate_y,rotation_rate_z,"
                 "gravity_x,gravity_y,gravity_z,"
                 "user_acc_x,user_acc_y,user_acc_z,"
                 "magnetic_x,magnetic_y,magnetic_z\n")
        for i in range(n):
            fh.write(fmt([imu.t[i], *gt.angles[i], *imu.gyro[i],
                          *gravity[i], *user_acc[i], *(45.0 * imu.mag[i])]) + "\n")

    # Vicon-style ground truth on its own (faster) clock with a small offset,
    # so the loader's nearest-neighbor resampling is exercised.
    vicon_rate = 100.0
    vn = int(cfg.duration * vicon_rate)
    vt = np.arange(vn) / vicon_rate + 0.0031
    traj = SynthConfig(duration=cfg.duration + 0.1, rate=vicon_rate, seed=cfg.seed,
                       gyro_noise=0.0, gyro_bias=0.0, accel_noise=0.0, mag_noise=0.0)
    _, dense_gt = synth_trajectory(traj)
    rng = np.random.default_rng(99)
    pos = np.cumsum(rng.normal(0.0, 1e-3, size=(vn, 3)), axis=0)
    with open(HERE / "oxiod_vicon.csv", "w", encoding="utf-8") as fh:
        fh.write("time,translation_x,translation_y,translation_z,"
                 "rotation_w,rotation_x,rotation_y,rotation_z\n")
        for i in range(vn):
            # nearest dense sample to this vicon timestamp
            j = int(np.argmin(np.abs(dense_gt.t - vt[i])))
            q = euler_to_quat(EulerAngles(*dense_gt.angles[j]))
            fh.write(fmt([vt[i], *pos[i], *q]) + "\n")

    # UCS-style file: one table with the onboard orientation as ground truth.
    with open(HERE / "ucs.csv", "w", encoding="utf-8") as fh:
        fh.write("time,gyro_x,gyro_y,gyro_z,accel_x,accel_y,accel_z,"
                 "mag_x,mag_y,mag_z,orientation_roll,orientation_pitch,"
                 "orientation_yaw\n")
        for i in range(n):
            fh.write(fmt([imu.t[i], *imu.gyro[i], *imu.accel[i],
                          *imu.mag[i], *gt.angles[i]]) + "\n")

    save_model(HERE / "model_4ch.ckpt", build_model(7, channels=4), angle_id="roll")

    print(f"wrote fixtures to {HERE}")


if __name__ == "__main__":
    main()
