"""Command line front end: one subcommand per pipeline phase.

The synth, train and eval stages each have one implementation, which the
per-phase commands and `pipeline` share. Exit codes: 0 success, 2
usage/config error or out of memory, 3 data error, 4 numerical failure.
Every command that writes files also writes a run manifest (resolved
configuration, input/output paths, seed, version, wall-clock duration)
beside them; `eval` without output flags writes none. DANAE_SEED in the
environment overrides default seeds; an explicit --seed flag wins over both.
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

import numpy as np

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
    DEFAULT_WINDOW,
    FractionSplit,
    SynthConfig,
    _write_table,
    load_oxiod,
    load_ucs,
    make_windows,
    read_angle_csv,
    read_config_file,
    read_imu_csv,
    split,
    synth_settings,
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

# the seed is left out: it has its own precedence rule, _resolve_seed
_SYNTH_KEYS = [f.name for f in dataclasses.fields(SynthConfig) if f.name != "seed"]


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


def _write_manifest(command: str, started: float, path: Path, config: dict,
                    inputs: dict, outputs: list, seed) -> None:
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


def _write_plot_data(path, kf, danae, gt) -> None:
    """All three angles of each estimator as kf_roll, ..., gt_yaw columns."""
    labeled = [(f"{label}_{name}", series.angle(name))
               for label, series in (("kf", kf), ("danae", danae), ("gt", gt))
               for name in ANGLE_NAMES]
    emit_plot_data(kf.t, labeled, path)


# the stages, each run by its per-phase command and by pipeline

def _synth(cfg: SynthConfig, out_dir: Path):
    """Synthesise the scenario into out_dir: (imu, gt, [imu.csv, gt.csv])."""
    imu, gt = synth_trajectory(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / "imu.csv", out_dir / "gt.csv"]
    write_imu_csv(paths[0], imu)
    write_angle_csv(paths[1], gt)
    log.info("wrote %s and %s (%d samples)", *paths, len(imu))
    return imu, gt, paths


def _train_angle(kf, gt, angle: str, stride: int, cfg: TrainConfig,
                 ckpt: Path, loss_path: Path):
    """Train, save and loss-log one angle's denoiser: (model, window count)."""
    windows = make_windows(kf, gt, angle, stride=stride)
    model = build_model(cfg.seed)
    history = train(model, windows, cfg)
    save_model(ckpt, model, angle_id=angle)
    _write_table(loss_path, "epoch,mean_loss",
                 np.column_stack([np.arange(1, len(history) + 1), history]))
    log.info("trained %s on %d windows: loss %.3g -> %.3g",
             angle, len(windows), history[0], history[-1])
    return model, len(windows)


def _check_time_axis(ref_path, ref, path, series) -> None:
    """Raise DataError unless two angle files hold the same timestamps: the
    same length, and equal at each sample. Files written here share t bit
    for bit, because 17-digit cells read back exactly."""
    if len(series) != len(ref):
        raise DataError(f"series lengths disagree: {path} has {len(series)} samples, "
                        f"{ref_path} has {len(ref)}")
    bad = np.flatnonzero(series.t != ref.t)
    if bad.size:
        i = bad[0]
        raise DataError(f"time axes disagree: {path} has t = {series.t[i]:.17g} at data "
                        f"row {i + 1}, {ref_path} has t = {ref.t[i]:.17g}")


def _evaluate(kf, danae, gt, wrap: bool, report, report_csv, plot_data) -> list:
    """Print the report, write each output given a path; the paths written."""
    result = build_report(kf, danae, gt, wrap=wrap)
    text = result.to_text()
    sys.stdout.write(text)
    outputs = []
    if report:
        Path(report).write_text(text, encoding="utf-8")
        outputs.append(Path(report))
    if report_csv:
        Path(report_csv).write_text(result.to_csv(), encoding="utf-8")
        outputs.append(Path(report_csv))
    if plot_data:
        _write_plot_data(plot_data, kf, danae, gt)
        outputs.append(Path(plot_data))
    return outputs


# each command returns (manifest path, config, inputs, outputs, seed) for
# main to record, or None when it writes no file

def _synth_config(args) -> SynthConfig:
    """Built, and so checked, once: a --config value its flag overrides is never checked."""
    settings = {}
    if getattr(args, "config", None):
        mapping = read_config_file(args.config)
        try:
            settings = synth_settings(mapping)
        except ConfigError as err:
            raise ConfigError(f"{args.config}: {err}") from None
    settings.update((key, getattr(args, key)) for key in _SYNTH_KEYS
                    if getattr(args, key, None) is not None)
    settings["seed"] = _resolve_seed(args.seed, settings.get("seed", SynthConfig.seed))
    return SynthConfig(**settings)


def _add_synth_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value file with synth settings")
    parser.add_argument("--seed", type=int, default=None)
    for key in _SYNTH_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float,
                            default=None)


def cmd_synth(args):
    cfg = _synth_config(args)
    out_dir = Path(args.out_dir)
    _, _, outputs = _synth(cfg, out_dir)
    return out_dir / "manifest.json", dataclasses.asdict(cfg), {}, outputs, cfg.seed


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


def cmd_kf(args):
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
    log.info("wrote %s (%d samples)", out, len(estimates))
    return (Path(f"{out}.manifest.json"), {"dataset": args.dataset},
            {"imu": args.imu, **({"vicon": args.vicon} if args.vicon else {})},
            outputs, None)


def _train_config(args, seed: int) -> TrainConfig:
    """The validated training settings shared by train and pipeline."""
    cfg = TrainConfig(epochs=args.epochs, seed=seed, batch_size=args.batch_size,
                      lr=args.lr)
    if args.stride < 1:
        raise ConfigError("--stride must be >= 1")
    return cfg


def _add_train_options(parser: argparse.ArgumentParser, stride: int) -> None:
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--lr", type=float, default=0.002)
    parser.add_argument("--stride", type=int, default=stride,
                        help="training window stride (1 uses every window)")


def cmd_train(args):
    cfg = _train_config(args, _resolve_seed(args.seed, 0))
    out = Path(args.out)
    loss_path = Path(args.loss_log or f"{out}.loss.csv")
    kf, gt = read_angle_csv(args.kf), read_angle_csv(args.gt)
    _check_time_axis(args.kf, kf, args.gt, gt)
    _, windows = _train_angle(kf, gt, args.angle, args.stride, cfg, out, loss_path)
    return (Path(f"{out}.manifest.json"),
            {**dataclasses.asdict(cfg), "angle": args.angle, "stride": args.stride,
             "windows": windows},
            {"kf": args.kf, "gt": args.gt}, [out, loss_path], cfg.seed)


def cmd_denoise(args):
    model, meta = load_model(args.model)
    recorded = meta.get("angle")
    if args.angle and recorded and args.angle != recorded:
        raise ConfigError(f"{args.model}: checkpoint records angle {recorded}, "
                          f"but --angle is {args.angle}")
    angle = args.angle or recorded
    if angle is None:
        raise ConfigError(f"{args.model}: checkpoint does not record an angle; pass --angle")
    estimates = read_angle_csv(args.kf)
    denoised = denoise_series(model, estimates, angle)
    out = Path(args.out)
    write_angle_csv(out, denoised)
    log.info("wrote %s", out)
    return (Path(f"{out}.manifest.json"), {"angle": angle},
            {"model": args.model, "kf": args.kf}, [out], None)


def cmd_eval(args):
    kf, danae, gt = (read_angle_csv(path) for path in (args.kf, args.danae, args.gt))
    for path, series in ((args.danae, danae), (args.gt, gt)):
        _check_time_axis(args.kf, kf, path, series)
    outputs = _evaluate(kf, danae, gt, args.wrap, args.report, args.report_csv,
                        args.plot_data)
    if not outputs:
        return None
    return (Path(f"{outputs[0]}.manifest.json"), {"wrap": args.wrap},
            {"kf": args.kf, "danae": args.danae, "gt": args.gt}, outputs, None)


def cmd_pipeline(args):
    """synth -> kf -> split -> per-angle train -> denoise -> eval, in one run."""
    cfg = _synth_config(args)
    angles = [a.strip() for a in args.angles.split(",") if a.strip()]
    if not angles:
        raise ConfigError("--angles names no angle")
    for i, name in enumerate(angles):
        if name not in ANGLE_NAMES:
            raise ConfigError(f"unknown angle {name!r}")
        if name in angles[:i]:
            raise ConfigError(f"--angles names {name} twice")
    try:
        policy = FractionSplit(args.train_fraction)
    except InvalidInputError:
        raise ConfigError("--train-fraction must be in (0, 1)") from None
    train_cfg = _train_config(args, cfg.seed)
    n = cfg.samples
    cut = policy.cut(n)
    if min(cut, n - cut) < DEFAULT_WINDOW:
        raise ConfigError(f"{n} samples split {cut}/{n - cut} for training/testing; each "
                          f"side needs at least {DEFAULT_WINDOW} (raise --duration or --rate)")
    out_dir = Path(args.out_dir)
    imu, gt, outputs = _synth(cfg, out_dir)
    estimates = run_kf(imu)
    write_angle_csv(out_dir / "kf.csv", estimates)
    outputs.append(out_dir / "kf.csv")
    kf_train, kf_test = split(estimates, policy)
    gt_train, gt_test = split(gt, policy)

    # each angle's model denoises the previous one's output
    denoised = kf_test
    for name in angles:
        ckpt, loss_path = out_dir / f"model_{name}.ckpt", out_dir / f"loss_{name}.csv"
        model, _ = _train_angle(kf_train, gt_train, name, args.stride, train_cfg,
                                ckpt, loss_path)
        denoised = denoise_series(model, denoised, name)
        outputs.extend([ckpt, loss_path])

    for stem, series in (("kf_test", kf_test), ("gt_test", gt_test),
                         ("danae_test", denoised)):
        write_angle_csv(out_dir / f"{stem}.csv", series)
        outputs.append(out_dir / f"{stem}.csv")
    outputs += _evaluate(kf_test, denoised, gt_test, wrap=False,
                         report=out_dir / "report.txt", report_csv=out_dir / "report.csv",
                         plot_data=out_dir / "plot_data.csv")
    return (out_dir / "manifest.json",
            {**dataclasses.asdict(cfg), **dataclasses.asdict(train_cfg),
             "stride": args.stride, "angles": angles, "train_fraction": args.train_fraction},
            {}, outputs, cfg.seed)


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
    p.add_argument("--seed", type=int, default=None)
    _add_train_options(p, stride=1)
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
    _add_train_options(p, stride=10)
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
    started = time.perf_counter()
    try:
        run = args.func(args)
        if run is not None:
            _write_manifest(args.command, started, *run)
        return EXIT_OK
    except (ConfigError, OSError) as err:
        log.error("%s", err)
        return EXIT_USAGE
    except (DataError, InvalidInputError) as err:
        log.error("%s", err)
        return EXIT_DATA
    except NumericalError as err:
        log.error("%s", err)
        return EXIT_NUMERICAL
    except MemoryError as err:
        log.error("out of memory%s", f": {err}" if str(err) else "")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
