"""Command line front end: one subcommand per pipeline phase.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure. Every invocation writes a run manifest (resolved configuration,
input/output paths, seed, version, wall-clock duration) alongside its
outputs. DANAE_SEED in the environment overrides default seeds; an explicit
--seed flag wins over both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__
from .attitude_kf import run_kf
from .danae_model import (
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
    load_oxiod,
    load_ucs,
    make_windows,
    read_angle_csv,
    read_config_file,
    read_imu_csv,
    split,
    synth_config_from_mapping,
    synth_trajectory,
    write_angle_csv,
    write_imu_csv,
)
from .errors import ConfigError, DataError, InvalidInputError, NumericalError
from .evalkit import build_report, emit_plot_data
from .series import ANGLE_NAMES

log = logging.getLogger("danae")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_SYNTH_KEYS = [f.name for f in dataclasses.fields(SynthConfig)]


def _resolve_seed(flag_value, fallback: int) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("DANAE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"DANAE_SEED must be an integer, got {env!r}") from None
    return fallback


def _write_manifest(path: Path, command: str, config: dict, inputs: dict,
                    outputs: list, seed, started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "version": __version__,
        "duration_s": round(time.perf_counter() - started, 6),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_loss_csv(path, history) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss\n")
        for epoch, value in enumerate(history, start=1):
            fh.write(f"{epoch},{value:.17g}\n")


def _write_plot_data(path, kf, danae, gt) -> None:
    """All three angles of each estimator as kf_roll, ..., gt_yaw columns."""
    labeled = [(f"{label}_{name}", series.angle(name))
               for label, series in (("kf", kf), ("danae", danae), ("gt", gt))
               for name in ANGLE_NAMES]
    emit_plot_data(kf.t, labeled, path)


def _synth_config(args) -> SynthConfig:
    cfg = SynthConfig()
    if getattr(args, "config", None):
        cfg = synth_config_from_mapping(read_config_file(args.config), cfg)
    overrides = {}
    for key in _SYNTH_KEYS:
        if key == "seed":
            continue
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    cfg = dataclasses.replace(cfg, **overrides)
    return dataclasses.replace(cfg, seed=_resolve_seed(args.seed, cfg.seed))


def _add_synth_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value file with synth settings")
    parser.add_argument("--seed", type=int, default=None)
    for key in _SYNTH_KEYS:
        if key == "seed":
            continue
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float,
                            default=None)


def cmd_synth(args) -> int:
    started = time.perf_counter()
    cfg = _synth_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    imu, gt = synth_trajectory(cfg)
    imu_path = out_dir / "imu.csv"
    gt_path = out_dir / "gt.csv"
    write_imu_csv(imu_path, imu)
    write_angle_csv(gt_path, gt)
    _write_manifest(out_dir / "manifest.json", "synth", dataclasses.asdict(cfg),
                    {}, [imu_path, gt_path], cfg.seed, started)
    log.info("wrote %s and %s (%d samples)", imu_path, gt_path, len(imu))
    return EXIT_OK


def _load_imu(args):
    if args.dataset == "synthetic":
        return read_imu_csv(args.imu), None
    if args.dataset == "oxiod":
        if not args.vicon:
            raise ConfigError("--dataset oxiod requires --vicon for the ground-truth file")
        return load_oxiod(args.imu, args.vicon)
    if args.dataset == "ucs":
        return load_ucs(args.imu)
    raise ConfigError(f"unknown dataset kind {args.dataset!r}")


def cmd_kf(args) -> int:
    started = time.perf_counter()
    imu, gt = _load_imu(args)
    estimates = run_kf(imu)
    out = Path(args.out)
    write_angle_csv(out, estimates)
    outputs = [out]
    if args.gt_out:
        if gt is None:
            raise ConfigError("--gt-out needs a dataset with ground truth "
                              "(synthetic ground truth comes from the synth step)")
        write_angle_csv(args.gt_out, gt)
        outputs.append(Path(args.gt_out))
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "kf",
                    {"dataset": args.dataset},
                    {"imu": args.imu, **({"vicon": args.vicon} if args.vicon else {})},
                    outputs, None, started)
    log.info("wrote %s (%d samples)", out, len(estimates))
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args.seed, 0)
    cfg = TrainConfig(epochs=args.epochs, seed=seed, batch_size=args.batch_size,
                      lr=args.lr)
    cfg.validate()
    if args.stride < 1:
        raise ConfigError("--stride must be >= 1")
    estimates = read_angle_csv(args.kf)
    truth = read_angle_csv(args.gt)
    windows = make_windows(estimates, truth, args.angle, stride=args.stride)
    model = build_model(seed)
    history = train(model, windows, cfg)
    out = Path(args.out)
    save_model(out, model, angle_id=args.angle)
    loss_path = Path(args.loss_log) if args.loss_log else out.with_suffix(out.suffix + ".loss.csv")
    _write_loss_csv(loss_path, history)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "train",
                    {**dataclasses.asdict(cfg), "angle": args.angle,
                     "stride": args.stride, "windows": len(windows)},
                    {"kf": args.kf, "gt": args.gt}, [out, loss_path], seed, started)
    log.info("trained %s on %d windows: loss %.3g -> %.3g",
             args.angle, len(windows), history[0], history[-1])
    return EXIT_OK


def cmd_denoise(args) -> int:
    started = time.perf_counter()
    model, meta = load_model(args.model)
    angle = args.angle or meta.get("angle")
    if angle is None:
        raise ConfigError("checkpoint does not record an angle; pass --angle")
    estimates = read_angle_csv(args.kf)
    denoised = denoise_series(model, estimates, angle)
    out = Path(args.out)
    write_angle_csv(out, denoised)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "denoise",
                    {"angle": angle}, {"model": args.model, "kf": args.kf},
                    [out], None, started)
    log.info("wrote %s", out)
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.perf_counter()
    kf = read_angle_csv(args.kf)
    danae = read_angle_csv(args.danae)
    gt = read_angle_csv(args.gt)
    report = build_report(kf, danae, gt, wrap=args.wrap)
    text = report.to_text()
    sys.stdout.write(text)
    outputs = []
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
        outputs.append(Path(args.report))
    if args.report_csv:
        Path(args.report_csv).write_text(report.to_csv(), encoding="utf-8")
        outputs.append(Path(args.report_csv))
    if args.plot_data:
        _write_plot_data(args.plot_data, kf, danae, gt)
        outputs.append(Path(args.plot_data))
    if outputs:
        manifest_path = outputs[0].with_suffix(outputs[0].suffix + ".manifest.json")
        _write_manifest(manifest_path, "eval", {"wrap": args.wrap},
                        {"kf": args.kf, "danae": args.danae, "gt": args.gt},
                        outputs, None, started)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    """synth -> kf -> split -> per-angle train -> denoise -> eval, in one run."""
    started = time.perf_counter()
    cfg = _synth_config(args)
    angles = [a.strip() for a in args.angles.split(",") if a.strip()]
    for name in angles:
        if name not in ANGLE_NAMES:
            raise ConfigError(f"unknown angle {name!r}")
    if not 0.0 < args.train_fraction < 1.0:
        raise ConfigError("--train-fraction must be in (0, 1)")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    imu, gt = synth_trajectory(cfg)
    write_imu_csv(out_dir / "imu.csv", imu)
    write_angle_csv(out_dir / "gt.csv", gt)
    estimates = run_kf(imu)
    write_angle_csv(out_dir / "kf.csv", estimates)

    policy = FractionSplit(args.train_fraction)
    kf_train, kf_test = split(estimates, policy)
    gt_train, gt_test = split(gt, policy)

    train_cfg = TrainConfig(epochs=args.epochs, seed=cfg.seed,
                            batch_size=args.batch_size, lr=args.lr)
    train_cfg.validate()
    denoised = kf_test
    outputs = [out_dir / n for n in ("imu.csv", "gt.csv", "kf.csv")]
    for name in angles:
        windows = make_windows(kf_train, gt_train, name, stride=args.stride)
        model = build_model(cfg.seed)
        history = train(model, windows, train_cfg)
        ckpt = out_dir / f"model_{name}.ckpt"
        save_model(ckpt, model, angle_id=name)
        loss_path = out_dir / f"loss_{name}.csv"
        _write_loss_csv(loss_path, history)
        log.info("angle %s: %d windows, loss %.3g -> %.3g",
                 name, len(windows), history[0], history[-1])
        denoised = denoise_series(model, denoised, name)
        outputs.extend([ckpt, loss_path])

    write_angle_csv(out_dir / "kf_test.csv", kf_test)
    write_angle_csv(out_dir / "gt_test.csv", gt_test)
    write_angle_csv(out_dir / "danae_test.csv", denoised)
    report = build_report(kf_test, denoised, gt_test)
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    _write_plot_data(out_dir / "plot_data.csv", kf_test, denoised, gt_test)
    outputs.extend(out_dir / n for n in
                   ("kf_test.csv", "gt_test.csv", "danae_test.csv",
                    "report.txt", "report.csv", "plot_data.csv"))
    _write_manifest(out_dir / "manifest.json", "pipeline",
                    {**dataclasses.asdict(cfg), "epochs": args.epochs,
                     "stride": args.stride, "angles": angles,
                     "train_fraction": args.train_fraction,
                     "batch_size": args.batch_size, "lr": args.lr},
                    {}, outputs, cfg.seed, started)
    sys.stdout.write(report.to_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="danae",
        description="Kalman-filter attitude estimation with a learned denoiser",
    )
    parser.add_argument("--version", action="version", version=f"danae {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic IMU scenario")
    _add_synth_options(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("kf", help="run the Kalman filter over an IMU log")
    p.add_argument("--imu", required=True)
    p.add_argument("--dataset", choices=("synthetic", "oxiod", "ucs"),
                   default="synthetic")
    p.add_argument("--vicon", help="ground-truth file for --dataset oxiod")
    p.add_argument("--gt-out", help="also write the dataset ground truth here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kf)

    p = sub.add_parser("train", help="train a denoiser for one angle")
    p.add_argument("--kf", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--angle", choices=ANGLE_NAMES, required=True)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.002)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--loss-log")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="apply a trained denoiser to a series")
    p.add_argument("--model", required=True)
    p.add_argument("--kf", required=True)
    p.add_argument("--angle", choices=ANGLE_NAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="compare estimators against ground truth")
    p.add_argument("--kf", required=True)
    p.add_argument("--danae", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report")
    p.add_argument("--report-csv")
    p.add_argument("--plot-data")
    p.add_argument("--wrap", action="store_true",
                   help="use minimal circular differences")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run synth/kf/train/denoise/eval end to end")
    _add_synth_options(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--angles", default="roll,pitch,yaw")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.002)
    p.add_argument("--stride", type=int, default=10,
                   help="training window stride (1 uses every window)")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:
        log.error("%s", err)
        return EXIT_USAGE
    except (DataError, InvalidInputError) as err:
        log.error("%s", err)
        return EXIT_DATA
    except NumericalError as err:
        log.error("%s", err)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
