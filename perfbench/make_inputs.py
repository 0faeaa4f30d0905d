"""Set-up step of one benchmark workload, run in a fresh interpreter.

Usage: python3 perfbench/make_inputs.py <workload> <seed> <work-dir>

Imports ``danae.cli`` (what every command pays on start) and builds the
workload's inputs from the seed, then prints one JSON line naming the
``danae`` package that was imported. run.py times this whole process as
``setup_s``.
"""

import json
import sys
from pathlib import Path

import numpy as np

import danae
import danae.cli  # noqa: F401  (the import is part of what set-up measures)
from danae.attitude_kf import run_kf
from danae.danae_model import TrainConfig, build_model, save_model, train
from danae.dataio import (SynthConfig, make_windows, synth_trajectory,
                          write_angle_csv, write_imu_csv)

# kf_stream: a long log with the magnetometer zeroed on a seeded share of
# rows, which is the documented degenerate case (predict-only step). NaN is
# not used: rejecting non-finite rows is planned, and would fail the run.
KF_STREAM_ROWS = 20_000
KF_STREAM_DROPOUT_SHARE = 0.02

# denoise: the checkpoint is trained on the benchmark scenario (seed 42,
# 120 s @ 100 Hz, stride 10, one epoch) and applied to a scenario whose seed
# it never saw, so only the held-out noise depends on the workload seed.
DENOISE_TRAIN_SEED = 42
DENOISE_TRAIN_EPOCHS = 1
DENOISE_STRIDE = 10
DENOISE_ANGLE = "roll"
DENOISE_TEST_SECONDS = 120.0
DENOISE_TEST_SEED_OFFSET = 1000


def kf_stream_inputs(seed: int, work: Path) -> dict:
    rate = SynthConfig().rate
    imu, _ = synth_trajectory(SynthConfig(duration=KF_STREAM_ROWS / rate, seed=seed))
    rng = np.random.default_rng(seed)
    count = round(KF_STREAM_DROPOUT_SHARE * len(imu))
    # row 0 initialises the filter from its measurement, so it keeps one
    rows = np.sort(rng.choice(np.arange(1, len(imu)), size=count, replace=False))
    imu.mag[rows] = 0.0
    write_imu_csv(work / "imu.csv", imu)
    return {"rows": len(imu), "dropouts": rows.tolist()}


def denoise_inputs(seed: int, work: Path) -> dict:
    imu, gt = synth_trajectory(SynthConfig(seed=DENOISE_TRAIN_SEED))
    windows = make_windows(run_kf(imu), gt, DENOISE_ANGLE, stride=DENOISE_STRIDE)
    model = build_model(DENOISE_TRAIN_SEED)
    train(model, windows, TrainConfig(epochs=DENOISE_TRAIN_EPOCHS,
                                      seed=DENOISE_TRAIN_SEED))
    save_model(work / "model.ckpt", model, angle_id=DENOISE_ANGLE)

    test_seed = DENOISE_TEST_SEED_OFFSET + seed
    imu, gt = synth_trajectory(SynthConfig(duration=DENOISE_TEST_SECONDS, seed=test_seed))
    write_angle_csv(work / "kf.csv", run_kf(imu))
    write_angle_csv(work / "gt.csv", gt)
    return {"angle": DENOISE_ANGLE, "windows": len(windows), "test_seed": test_seed}


INPUT_MAKERS = {
    "pipeline": lambda seed, work: {},
    "kf_stream": kf_stream_inputs,
    "denoise": denoise_inputs,
}


def main() -> None:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    work.mkdir(parents=True, exist_ok=True)
    info = INPUT_MAKERS[workload](seed, work)
    (work / "inputs.json").write_text(json.dumps(info), encoding="utf-8")
    print(json.dumps({"danae_file": danae.__file__}))


if __name__ == "__main__":
    main()
