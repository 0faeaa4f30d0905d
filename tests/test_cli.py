import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import danae
from danae.cli import main
from danae.danae_model import load_model, save_model
from danae.dataio import read_angle_csv
from danae.errors import ConfigError
from danae.evalkit import deviations

from helpers import corrupt_checkpoints

NOISELESS = ["--duration", "4", "--gyro-noise", "0", "--gyro-bias", "0",
             "--accel-noise", "0", "--mag-noise", "0"]


def run(*argv):
    return main([str(a) for a in argv])


def run_fresh(*argv):
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(danae.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "danae.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "scenario"
    assert run("synth", "--out-dir", out, "--duration", "5", "--seed", "3") == 0
    return out


class TestSynth:
    def test_writes_expected_files_and_rows(self, tmp_path):
        out = tmp_path / "s"
        assert run("synth", "--out-dir", out, "--duration", "2", "--rate", "50") == 0
        assert (out / "imu.csv").exists() and (out / "gt.csv").exists()
        assert len((out / "imu.csv").read_text().splitlines()) == 101  # header + 100
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["rate"] == 50.0
        assert manifest["version"]

    def test_same_seed_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out-dir", out, "--duration", "2", "--seed", "9") == 0
        assert (a / "imu.csv").read_bytes() == (b / "imu.csv").read_bytes()
        assert (a / "gt.csv").read_bytes() == (b / "gt.csv").read_bytes()

    def test_invalid_rate_exits_2(self, tmp_path):
        assert run("synth", "--out-dir", tmp_path / "x", "--rate", "0") == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("duration=2\nrate=40\nseed=5\n")
        out = tmp_path / "out"
        assert run("synth", "--config", cfg, "--out-dir", out, "--rate", "80") == 0
        assert len((out / "imu.csv").read_text().splitlines()) == 161

    def test_config_value_overridden_by_its_flag_is_not_checked(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("duration=-1\nrate=40\n")
        assert run("synth", "--config", cfg, "--out-dir", tmp_path / "out",
                   "--duration", "2") == 0

    def test_env_seed_override_and_flag_priority(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DANAE_SEED", "1234")
        env_dir = tmp_path / "env"
        assert run("synth", "--out-dir", env_dir, "--duration", "2") == 0
        assert json.loads((env_dir / "manifest.json").read_text())["seed"] == 1234
        flag_dir = tmp_path / "flag"
        assert run("synth", "--out-dir", flag_dir, "--duration", "2",
                   "--seed", "7") == 0
        assert json.loads((flag_dir / "manifest.json").read_text())["seed"] == 7

    def test_negative_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DANAE_SEED", "-1")
        for command, duration in (("synth", "1"), ("pipeline", "6")):
            out = tmp_path / command
            assert run(command, "--out-dir", out, "--duration", duration) == 2
            assert not out.exists()

    def test_out_of_memory_exits_2_with_one_error(self, tmp_path, monkeypatch, caplog):
        def no_memory(cfg):
            raise MemoryError("Unable to allocate 745. GiB")
        monkeypatch.setattr("danae.cli.synth_trajectory", no_memory)
        out = tmp_path / "s"
        assert run("synth", "--out-dir", out, "--duration", "1e9") == 2
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("ERROR", "out of memory: Unable to allocate 745. GiB")]
        assert not out.exists()


class TestKf:
    def test_noiseless_run_matches_ground_truth(self, tmp_path):
        out = tmp_path / "s"
        assert run("synth", "--out-dir", out, *NOISELESS) == 0
        kf_path = tmp_path / "kf.csv"
        assert run("kf", "--imu", out / "imu.csv", "--out", kf_path) == 0
        kf = read_angle_csv(kf_path)
        gt = read_angle_csv(out / "gt.csv")
        assert len(kf) == len(gt)
        for angle in ("roll", "pitch", "yaw"):
            assert deviations(kf, gt, angle).rmse < 0.01

    def test_missing_file_exits_2(self, tmp_path):
        assert run("kf", "--imu", tmp_path / "nope.csv",
                   "--out", tmp_path / "kf.csv") == 2

    def test_non_finite_cell_exits_3_without_traceback(self, synth_dir, tmp_path):
        lines = (synth_dir / "imu.csv").read_text().splitlines()
        parts = lines[4].split(",")
        parts[1] = "nan"
        lines[4] = ",".join(parts)
        bad = tmp_path / "imu.csv"
        bad.write_text("\n".join(lines) + "\n")
        proc = run_fresh("kf", "--imu", bad, "--out", tmp_path / "kf.csv")
        assert proc.returncode == 3
        assert "imu.csv:5: column 2 holds 'nan'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_output_rows_match_input(self, synth_dir, tmp_path):
        kf_path = tmp_path / "kf.csv"
        assert run("kf", "--imu", synth_dir / "imu.csv", "--out", kf_path) == 0
        imu_rows = len((synth_dir / "imu.csv").read_text().splitlines())
        assert len(kf_path.read_text().splitlines()) == imu_rows

    def test_rerun_is_idempotent(self, synth_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("kf", "--imu", synth_dir / "imu.csv", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oxiod_requires_vicon(self, tmp_path):
        from pathlib import Path
        fixture = Path(__file__).parent / "fixtures" / "oxiod_imu.csv"
        assert run("kf", "--imu", fixture, "--dataset", "oxiod",
                   "--out", tmp_path / "kf.csv") == 2

    def test_oxiod_with_gt_out(self, tmp_path):
        from pathlib import Path
        fixtures = Path(__file__).parent / "fixtures"
        kf_path, gt_path = tmp_path / "kf.csv", tmp_path / "gt.csv"
        assert run("kf", "--imu", fixtures / "oxiod_imu.csv", "--dataset", "oxiod",
                   "--vicon", fixtures / "oxiod_vicon.csv",
                   "--out", kf_path, "--gt-out", gt_path) == 0
        assert len(read_angle_csv(gt_path)) == 200

    def test_synthetic_gt_out_exits_2_before_writing(self, synth_dir, tmp_path, caplog):
        kf_path = tmp_path / "kf.csv"
        assert run("kf", "--imu", synth_dir / "imu.csv", "--out", kf_path,
                   "--gt-out", tmp_path / "gt.csv") == 2
        assert "--gt-out needs a dataset with ground truth" in caplog.text
        assert not kf_path.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small end-to-end artifact set shared by train/denoise/eval tests."""
    root = tmp_path_factory.mktemp("pipeline_bits")
    out = root / "s"
    assert run("synth", "--out-dir", out, "--duration", "6", "--seed", "4") == 0
    kf_path = root / "kf.csv"
    assert run("kf", "--imu", out / "imu.csv", "--out", kf_path) == 0
    model = root / "roll.ckpt"
    assert run("train", "--kf", kf_path, "--gt", out / "gt.csv",
               "--angle", "roll", "--epochs", "3", "--seed", "0",
               "--stride", "5", "--out", model) == 0
    return {"dir": root, "kf": kf_path, "gt": out / "gt.csv", "model": model}


class TestTrain:
    def test_checkpoint_and_loss_log_written(self, trained):
        assert trained["model"].exists()
        loss_lines = (trained["dir"] / "roll.ckpt.loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,mean_loss"
        assert len(loss_lines) == 4
        losses = [float(l.split(",")[1]) for l in loss_lines[1:]]
        assert losses[-1] < losses[0]

    def test_zero_epochs_exits_2(self, trained, tmp_path):
        assert run("train", "--kf", trained["kf"], "--gt", trained["gt"],
                   "--angle", "roll", "--epochs", "0",
                   "--out", tmp_path / "m.ckpt") == 2

    def test_non_finite_lr_exits_2(self, trained, tmp_path):
        out = tmp_path / "m.ckpt"
        assert run("train", "--kf", trained["kf"], "--gt", trained["gt"],
                   "--angle", "roll", "--epochs", "1", "--lr", "nan",
                   "--out", out) == 2
        assert not out.exists()

    def test_divergence_exits_4_before_saving(self, trained, tmp_path, caplog):
        out = tmp_path / "m.ckpt"
        assert run("train", "--kf", trained["kf"], "--gt", trained["gt"],
                   "--angle", "roll", "--epochs", "2", "--lr", "1e200", "--stride", "5",
                   "--out", out) == 4
        assert "diverged: epoch 1" in caplog.text
        assert not out.exists() and not Path(f"{out}.loss.csv").exists()

    def test_divergence_reports_one_error_and_no_numpy_warning(self, trained, tmp_path):
        out = tmp_path / "m.ckpt"
        proc = run_fresh("train", "--kf", trained["kf"], "--gt", trained["gt"],
                         "--angle", "roll", "--epochs", "2", "--lr", "1e200",
                         "--stride", "5", "--out", out)
        assert proc.returncode == 4 and not out.exists()
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "ERROR training diverged: epoch 1's mean loss is nan (learning rate 1e+200)"]

    def test_same_seed_identical_checkpoints(self, trained, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert run("train", "--kf", trained["kf"], "--gt", trained["gt"],
                       "--angle", "pitch", "--epochs", "1", "--seed", "6",
                       "--stride", "5", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_records_settings(self, trained):
        manifest = json.loads(
            (trained["dir"] / "roll.ckpt.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["epochs"] == 3
        assert manifest["config"]["angle"] == "roll"


class TestDenoise:
    def test_output_length_matches_input(self, trained, tmp_path):
        out = tmp_path / "danae.csv"
        assert run("denoise", "--model", trained["model"], "--kf", trained["kf"],
                   "--out", out) == 0
        assert len(read_angle_csv(out)) == len(read_angle_csv(trained["kf"]))

    def test_checkpoint_reload_reproduces_output(self, trained, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("denoise", "--model", trained["model"],
                       "--kf", trained["kf"], "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_magic_exits_2(self, trained, tmp_path):
        bad = tmp_path / "bad.ckpt"
        raw = trained["model"].read_bytes()
        bad.write_bytes(b"XXXX" + raw[4:])
        assert run("denoise", "--model", bad, "--kf", trained["kf"],
                   "--out", tmp_path / "d.csv") == 2

    def test_corrupt_checkpoints_exit_cleanly(self, trained, tmp_path):
        for case, (path, error) in corrupt_checkpoints(trained["model"], tmp_path).items():
            proc = run_fresh("denoise", "--model", path, "--kf", trained["kf"],
                             "--out", tmp_path / "d.csv")
            assert proc.returncode == (2 if issubclass(error, ConfigError) else 3), case
            assert "Traceback" not in proc.stderr, case

    def test_angle_contradicting_the_checkpoint_exits_2(self, trained, tmp_path):
        # it used to apply the roll model to pitch and record "pitch"
        out = tmp_path / "d.csv"
        proc = run_fresh("denoise", "--model", trained["model"], "--kf", trained["kf"],
                         "--angle", "pitch", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"ERROR {trained['model']}: checkpoint records angle roll, but --angle is pitch"]
        assert list(tmp_path.iterdir()) == []

    def test_no_angle_anywhere_exits_2_naming_the_checkpoint(self, trained, tmp_path):
        unnamed = tmp_path / "unnamed.ckpt"
        save_model(unnamed, load_model(trained["model"])[0])
        proc = run_fresh("denoise", "--model", unnamed, "--kf", trained["kf"],
                         "--out", tmp_path / "d.csv")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"ERROR {unnamed}: checkpoint does not record an angle; pass --angle"]
        assert list(tmp_path.iterdir()) == [unnamed]

    def test_angle_agreeing_with_or_absent_from_the_checkpoint_is_used(self, trained,
                                                                        tmp_path):
        plain, agreeing = tmp_path / "plain.csv", tmp_path / "agreeing.csv"
        assert run("denoise", "--model", trained["model"], "--kf", trained["kf"],
                   "--out", plain) == 0
        assert run("denoise", "--model", trained["model"], "--kf", trained["kf"],
                   "--angle", "roll", "--out", agreeing) == 0
        assert agreeing.read_bytes() == plain.read_bytes()
        unnamed = tmp_path / "unnamed.ckpt"
        save_model(unnamed, load_model(trained["model"])[0])
        out = tmp_path / "pitch.csv"
        assert run("denoise", "--model", unnamed, "--kf", trained["kf"],
                   "--angle", "pitch", "--out", out) == 0
        assert json.loads(Path(f"{out}.manifest.json").read_text())["config"] == {
            "angle": "pitch"}


class TestEval:
    def test_perfect_denoiser_reports_full_reduction(self, trained, tmp_path):
        report = tmp_path / "report.txt"
        assert run("eval", "--kf", trained["kf"], "--danae", trained["gt"],
                   "--gt", trained["gt"], "--report", report,
                   "--report-csv", tmp_path / "report.csv",
                   "--plot-data", tmp_path / "plot.csv") == 0
        text = report.read_text()
        assert "100.00" in text
        plot_header = (tmp_path / "plot.csv").read_text().splitlines()[0]
        assert plot_header.startswith("t,kf_roll")
        assert len(plot_header.split(",")) == 10

    def test_mismatched_lengths_exit_3(self, trained, tmp_path):
        short = tmp_path / "short.csv"
        lines = trained["kf"].read_text().splitlines()
        short.write_text("\n".join(lines[:-10]) + "\n")
        assert run("eval", "--kf", trained["kf"], "--danae", short,
                   "--gt", trained["gt"]) == 3


@pytest.mark.parametrize("fault", ["short", "shifted"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_gt_on_another_time_axis_exits_3(trained, tmp_path, caplog, command, fault):
    lines = _lines(trained["gt"])
    if fault == "short":
        lines = lines[:-10]
    else:  # every timestamp 5 s late
        lines[1:] = [f"{float(t) + 5.0!r},{rest}"
                     for t, rest in (line.split(",", 1) for line in lines[1:])]
    gt = _write(tmp_path / "gt.csv", lines)
    kf, out = trained["kf"], tmp_path / "out"
    if command == "train":
        argv = ["train", "--kf", kf, "--gt", gt, "--angle", "roll", "--epochs", "1",
                "--out", out]
    else:
        argv = ["eval", "--kf", kf, "--danae", kf, "--gt", gt, "--report-csv", out]
    assert run(*argv) == 3
    assert not out.exists()
    message = (f"series lengths disagree: {gt} has {len(lines) - 1} samples, {kf} has"
               if fault == "short" else
               f"time axes disagree: {gt} has t = 5 at data row 1, {kf} has t = 0")
    assert message in caplog.text


class TestPipeline:
    def test_small_end_to_end_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("pipeline", "--out-dir", out, "--duration", "6",
                   "--seed", "1", "--angles", "roll", "--epochs", "2",
                   "--stride", "8") == 0
        for name in ("imu.csv", "gt.csv", "kf.csv", "model_roll.ckpt",
                     "loss_roll.csv", "kf_test.csv", "gt_test.csv",
                     "danae_test.csv", "report.txt", "report.csv",
                     "plot_data.csv", "manifest.json"):
            assert (out / name).exists(), name
        assert "rmse" in capsys.readouterr().out
        kf_test = read_angle_csv(out / "kf_test.csv")
        danae_test = read_angle_csv(out / "danae_test.csv")
        assert len(kf_test) == len(danae_test) == 120  # 20% of 600 samples

    def test_equals_its_phases(self, tmp_path):
        # train on the rows before the 80 % cut of pipeline's kf.csv/gt.csv,
        # denoise its kf_test.csv: the same checkpoint and output bytes
        out = tmp_path / "run"
        assert run("pipeline", "--out-dir", out, "--duration", "6", "--seed", "5",
                   "--angles", "roll", "--epochs", "2", "--stride", "10") == 0
        cut = 1 + int(math.floor(0.8 * (len(_lines(out / "kf.csv")) - 1)))
        kf = _write(tmp_path / "kf_train.csv", _lines(out / "kf.csv")[:cut])
        gt = _write(tmp_path / "gt_train.csv", _lines(out / "gt.csv")[:cut])
        model, denoised = tmp_path / "roll.ckpt", tmp_path / "danae_test.csv"
        assert run("train", "--kf", kf, "--gt", gt, "--angle", "roll", "--epochs", "2",
                   "--seed", "5", "--stride", "10", "--out", model) == 0
        assert run("denoise", "--model", model, "--kf", out / "kf_test.csv",
                   "--out", denoised) == 0
        assert model.read_bytes() == (out / "model_roll.ckpt").read_bytes()
        assert denoised.read_bytes() == (out / "danae_test.csv").read_bytes()
        report = tmp_path / "report.csv"
        assert run("eval", "--kf", out / "kf_test.csv", "--danae", out / "danae_test.csv",
                   "--gt", out / "gt_test.csv", "--report-csv", report) == 0
        assert report.read_bytes() == (out / "report.csv").read_bytes()

    def test_unknown_angle_exits_2(self, tmp_path):
        assert run("pipeline", "--out-dir", tmp_path / "x", "--duration", "6",
                   "--angles", "heading") == 2

    @pytest.mark.parametrize("flags", [
        ("--stride", "0"), ("--epochs", "0"), ("--angles", ","),
        ("--angles", "roll,roll"), ("--lr", "nan"), ("--lr", "-5"), ("--lr", "0"),
        # 30 samples: 24 to train on, 6 to denoise, fewer than one window
        ("--duration", "0.3", "--angles", "roll", "--epochs", "1"),
        ("--seed", "-1"), ("--duration", "1e308", "--rate", "10"), ("--duration", "1e300"),
    ], ids=["stride_0", "epochs_0", "no_angle", "angle_twice", "lr_nan", "lr_negative",
            "lr_0", "test_split_short", "seed_negative", "sample_count_overflow",
            "sample_count_too_large"])
    def test_bad_setting_exits_2_before_synth(self, tmp_path, flags):
        out = tmp_path / "x"
        assert run("pipeline", "--out-dir", out, "--duration", "6", *flags) == 2
        assert not out.exists()


def _lines(path):
    return Path(path).read_text().splitlines()


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


# synth on a broken setting: (config file bytes, flags, what stderr names); exit 2
_BROKEN_SYNTH = {
    "synth": (b"duration=3\nrate 40\n", [], "bad.cfg:2: expected key=value"),
    "synth_config_not_a_number": (b"duration=abc\n", [],
                                  "bad.cfg: synth config key 'duration': cannot read 'abc'"),
    "synth_config_fractional_seed": (b"seed=1.5\n", [],
                                     "bad.cfg: synth config key 'seed': cannot read '1.5'"),
    "synth_config_not_utf8": (b"duration=3\n\xff\n", [], "bad.cfg:2: byte 0xff is not UTF-8"),
    # the first problem in file order wins
    "synth_config_bad_line_then_byte": (b"duration=3\nrate 40\n\xff\n", [],
                                        "bad.cfg:2: expected key=value"),
    "synth_config_byte_then_bad_line": (b"duration=3\n\xff\nrate 40\n", [],
                                        "bad.cfg:2: byte 0xff is not UTF-8"),
    "synth_infinite_duration": (b"", ["--duration", "inf"], "duration must be finite"),
    "synth_nan_gyro_noise": (b"", ["--gyro-noise", "nan"], "gyro_noise must be finite"),
    "synth_negative_seed": (b"", ["--seed", "-1"], "seed must be >= 0, got -1"),
    "synth_sample_count_overflow": (b"", ["--duration", "1e308", "--rate", "10"],
                                    "duration * rate"),
    "synth_sample_count_too_large": (b"", ["--duration", "1e300"], "duration * rate"),
}


def _broken_run(case, scenario, tmp):
    """(argv, exit code, what stderr names) for one subcommand on a broken
    input or setting."""
    gt = scenario / "gt.csv"
    if case in _BROKEN_SYNTH:
        text, flags, message = _BROKEN_SYNTH[case]
        bad = tmp / "bad.cfg"
        bad.write_bytes(text)
        return ["synth", "--config", bad, *flags, "--out-dir", tmp / "out"], 2, message
    if case == "kf":
        lines = _lines(scenario / "imu.csv")
        lines[6] = lines[6].rsplit(",", 1)[0]  # one cell short
        return (["kf", "--imu", _write(tmp / "imu.csv", lines), "--out", tmp / "kf.csv"],
                3, "imu.csv:7: expected 10 columns, got 9")
    if case == "kf_not_utf8":
        raw = bytearray((scenario / "imu.csv").read_bytes())
        raw[raw.index(b"\n") + 3] = 0xff  # a digit of the first data row
        bad = tmp / "imu.csv"
        bad.write_bytes(raw)
        return (["kf", "--imu", bad, "--out", tmp / "kf.csv"],
                3, "imu.csv:2: byte 0xff is not UTF-8")
    if case in ("kf_bad_row_then_byte", "kf_byte_then_bad_row"):
        # line 7 holds the first problem and line 10 the second
        lines = _lines(scenario / "imu.csv")
        short, byte = (6, 9) if case == "kf_bad_row_then_byte" else (9, 6)
        lines[short] = lines[short].rsplit(",", 1)[0]  # one cell short
        raw = [line.encode() for line in lines]
        raw[byte] = b"\xff" + raw[byte][1:]
        bad = tmp / "imu.csv"
        bad.write_bytes(b"\n".join(raw) + b"\n")
        message = "expected 10 columns, got 9" if short == 6 else "byte 0xff is not UTF-8"
        return ["kf", "--imu", bad, "--out", tmp / "kf.csv"], 3, f"imu.csv:7: {message}"
    if case == "train":
        lines = _lines(gt)
        lines[9] = lines[8]  # t no longer increases
        return (["train", "--kf", _write(tmp / "kf.csv", lines), "--gt", gt,
                 "--angle", "roll", "--epochs", "1", "--out", tmp / "m.ckpt"],
                3, "timestamps not strictly increasing at data row 9")
    if case == "train_negative_seed":
        return (["train", "--kf", gt, "--gt", gt, "--angle", "roll", "--seed", "-1",
                 "--out", tmp / "m.ckpt"], 2, "seed must be >= 0, got -1")
    if case == "eval":
        short = _write(tmp / "short.csv", _lines(gt)[:-10])
        return (["eval", "--kf", gt, "--danae", short, "--gt", gt], 3,
                f"{short} has {len(_lines(short)) - 1} samples, {gt} has")
    assert case == "pipeline"
    return (["pipeline", "--out-dir", tmp / "run", "--duration", "6", "--lr", "nan"],
            2, "lr")


@pytest.mark.parametrize("case", [*_BROKEN_SYNTH, "kf", "kf_not_utf8", "kf_bad_row_then_byte",
                                  "kf_byte_then_bad_row", "train", "train_negative_seed",
                                  "eval", "pipeline"])
def test_broken_input_exits_cleanly(synth_dir, tmp_path, case):
    argv, code, message = _broken_run(case, synth_dir, tmp_path)
    proc = run_fresh(*argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
