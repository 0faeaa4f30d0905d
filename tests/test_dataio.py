import math
from pathlib import Path

import numpy as np
import pytest

from danae.attitude_kf import gyro_delta, integrate_gyro, run_kf
from danae.dataio import (
    FractionSplit,
    SynthConfig,
    euler_to_quat,
    load_oxiod,
    load_ucs,
    make_windows,
    quat_to_euler,
    read_angle_csv,
    read_config_file,
    read_imu_csv,
    read_table,
    split,
    synth_settings,
    synth_trajectory,
    write_angle_csv,
    write_imu_csv,
)
from danae.errors import ConfigError, DataError, InvalidInputError
from danae.evalkit import deviations
from danae.series import AngleSeries, EulerAngles, ImuSeries, angle_index, wrap_angle

FIXTURES = Path(__file__).parent / "fixtures"


class TestQuatEuler:
    def test_identity_rotation(self):
        e = quat_to_euler((1.0, 0.0, 0.0, 0.0))
        assert (e.roll, e.pitch, e.yaw) == (0.0, 0.0, 0.0)

    def test_pure_z_rotation(self):
        e = quat_to_euler((math.cos(math.pi / 8), 0.0, 0.0, math.sin(math.pi / 8)))
        assert e.yaw == pytest.approx(math.pi / 4, abs=1e-12)
        assert e.roll == pytest.approx(0.0, abs=1e-12)
        assert e.pitch == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_away_from_gimbal_lock(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            want = EulerAngles(
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-1.4, 1.4)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            got = quat_to_euler(euler_to_quat(want))
            assert got.roll == pytest.approx(want.roll, abs=1e-9)
            assert got.pitch == pytest.approx(want.pitch, abs=1e-9)
            assert got.yaw == pytest.approx(want.yaw, abs=1e-9)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(InvalidInputError):
            quat_to_euler((0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("q", [(math.nan, 0.0, 0.0, 0.0), (1.0, math.inf, 0.0, 0.0)],
                             ids=["nan", "inf"])
    def test_non_finite_quaternion_rejected(self, q):
        # used to return a finite pitch of pi/2 with NaN roll and yaw
        with pytest.raises(InvalidInputError, match=r"^quaternion \[.*\] holds a NaN or an "
                                                    r"infinity$"):
            quat_to_euler(q)

    def test_unnormalized_input_is_normalized(self):
        e = quat_to_euler((2.0, 0.0, 0.0, 0.0))
        assert (e.roll, e.pitch, e.yaw) == (0.0, 0.0, 0.0)


class TestLoadOxiod:
    def test_fixture_parses_with_row_fidelity(self):
        imu, gt = load_oxiod(FIXTURES / "oxiod_imu.csv", FIXTURES / "oxiod_vicon.csv")
        assert len(imu) == 200 and len(gt) == 200
        # first data row of the fixture, verbatim
        assert imu.t[0] == 0.0
        assert imu.gyro[0] == pytest.approx(
            [0.346525084, 0.205485489, -0.0994565124], abs=1e-12)
        # accel = (gravity + user_acc) * 9.80665
        want = (np.array([-0.290275618, 0.0, 0.956943084])
                + np.array([-0.0167178326, 0.00592120429, -0.000562274914])) * 9.80665
        assert imu.accel[0] == pytest.approx(want, abs=1e-9)
        # magnetics are normalized on load
        assert np.linalg.norm(imu.mag[0]) == pytest.approx(1.0, abs=1e-12)

    def test_ground_truth_resampled_to_imu_clock(self):
        imu, gt = load_oxiod(FIXTURES / "oxiod_imu.csv", FIXTURES / "oxiod_vicon.csv")
        assert np.array_equal(gt.t, imu.t)
        # quaternions came from the same trajectory: angles must be close to
        # the attitude columns of the imu fixture within the resampling gap
        table = np.loadtxt(FIXTURES / "oxiod_imu.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(gt.angles - table[:, 1:4])) < 0.02

    def test_shuffled_timestamp_names_the_row(self, tmp_path):
        lines = (FIXTURES / "oxiod_imu.csv").read_text().splitlines()
        lines[10], lines[11] = lines[11], lines[10]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="row 11"):
            load_oxiod(bad, FIXTURES / "oxiod_vicon.csv")

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError):
            load_oxiod(empty, FIXTURES / "oxiod_vicon.csv")

    def test_wrong_column_count_rejected(self, tmp_path):
        bad = tmp_path / "columns.csv"
        bad.write_text("0.0,1.0,2.0\n")
        with pytest.raises(DataError, match="columns"):
            load_oxiod(bad, FIXTURES / "oxiod_vicon.csv")


class TestLoadUcs:
    def test_fixture_parses_with_row_fidelity(self):
        imu, gt = load_ucs(FIXTURES / "ucs.csv")
        assert len(imu) == 200 and len(gt) == 200
        assert imu.gyro[0] == pytest.approx(
            [0.346525084, 0.205485489, -0.0994565124], abs=1e-12)
        assert imu.accel[0] == pytest.approx(
            [-3.01057733, 0.0580671781, 9.37889186], abs=1e-12)
        assert gt.angles[0] == pytest.approx([0.0, 0.294514845, 0.727437941],
                                             abs=1e-12)

    def test_yaw_flagged_unreliable(self):
        _, gt = load_ucs(FIXTURES / "ucs.csv")
        assert gt.meta["yaw_reliable"] is False

    def test_missing_orientation_columns_rejected(self, tmp_path):
        lines = (FIXTURES / "ucs.csv").read_text().splitlines()
        truncated = [",".join(line.split(",")[:10]) for line in lines]
        bad = tmp_path / "short.csv"
        bad.write_text("\n".join(truncated) + "\n")
        with pytest.raises(DataError, match="columns"):
            load_ucs(bad)

    def test_malformed_cell_names_the_line(self, tmp_path):
        lines = (FIXTURES / "ucs.csv").read_text().splitlines()
        parts = lines[5].split(",")
        parts[3] = "not-a-number"
        lines[5] = ",".join(parts)
        bad = tmp_path / "cell.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":6"):
            load_ucs(bad)


class TestCsvRoundTrip:
    def test_angle_series_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        series = AngleSeries(np.sort(rng.uniform(0, 10, 50)),
                             rng.normal(size=(50, 3)))
        path = tmp_path / "angles.csv"
        write_angle_csv(path, series)
        loaded = read_angle_csv(path)
        assert np.max(np.abs(loaded.t - series.t)) < 1e-12
        assert np.max(np.abs(loaded.angles - series.angles)) < 1e-12

    def test_imu_series_round_trip_exact(self, tmp_path):
        imu, _ = synth_trajectory(SynthConfig(duration=1.0, seed=5))
        path = tmp_path / "imu.csv"
        write_imu_csv(path, imu)
        loaded = read_imu_csv(path)
        assert np.array_equal(loaded.t, imu.t)
        assert np.array_equal(loaded.gyro, imu.gyro)
        assert np.array_equal(loaded.accel, imu.accel)
        assert np.array_equal(loaded.mag, imu.mag)


    def test_special_values_written_exactly(self, tmp_path):
        cells = "-0,4.9406564584124654e-324,1.0000000000000001e+300"
        series = AngleSeries([-0.0, 0.1], [[-0.0, 5e-324, 1e300], [1e300, -0.0, 5e-324]])
        write_angle_csv(tmp_path / "angles.csv", series)
        assert (tmp_path / "angles.csv").read_bytes() == (
            "t,roll,pitch,yaw\n"
            f"-0,{cells}\n"
            "0.10000000000000001,1.0000000000000001e+300,-0,4.9406564584124654e-324\n"
        ).encode()
        imu = ImuSeries([-0.0, 1.0], [[-0.0, 5e-324, 1e300]] * 2,
                        [[1e300, -0.0, 5e-324]] * 2, [[5e-324, 1e300, -0.0]] * 2)
        write_imu_csv(tmp_path / "imu.csv", imu)
        assert (tmp_path / "imu.csv").read_bytes() == (
            "t,gyro_x,gyro_y,gyro_z,accel_x,accel_y,accel_z,mag_x,mag_y,mag_z\n"
            f"-0,{cells},1.0000000000000001e+300,-0,4.9406564584124654e-324,"
            "4.9406564584124654e-324,1.0000000000000001e+300,-0\n"
            f"1,{cells},1.0000000000000001e+300,-0,4.9406564584124654e-324,"
            "4.9406564584124654e-324,1.0000000000000001e+300,-0\n"
        ).encode()

    @pytest.mark.parametrize("header", [True, False])
    def test_byte_order_mark_before_line_1(self, tmp_path, header):
        # a UTF-8 byte order mark is dropped: a headerless file keeps its
        # first row, and a header is still skipped alone
        series = AngleSeries([0.0, 0.1, 0.2], [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        path = tmp_path / "angles.csv"
        write_angle_csv(path, series)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"\xef\xbb\xbf" + b"".join(lines if header else lines[1:]))
        loaded = read_angle_csv(path)
        assert loaded.t.tobytes() == series.t.tobytes()
        assert loaded.angles.tobytes() == series.angles.tobytes()

    @pytest.mark.parametrize("name", ["angles.csv.gz", "angles.csv.bz2", "angles.csv.xz"])
    def test_compression_suffix_still_writes_plain_text(self, tmp_path, name):
        series = AngleSeries([0.0, 0.5], [[0.25, -0.0, 1.0], [2.0, 3.0, -4.0]])
        write_angle_csv(tmp_path / name, series)
        assert (tmp_path / name).read_bytes() == b"t,roll,pitch,yaw\n0,0.25,-0,1\n0.5,2,3,-4\n"
        assert read_angle_csv(tmp_path / name).angles.tobytes() == series.angles.tobytes()


def test_non_utf8_byte_names_the_line(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_bytes(b"t,roll,pitch,yaw\n0,0,0,0\n0.1,0,\xff,0\n")
    with pytest.raises(DataError, match=r"imu.csv:3: byte 0xff is not UTF-8"):
        read_angle_csv(path)


@pytest.mark.parametrize("raw, message", [
    (b"t,roll,pitch,yaw\n0,0,0,0\n0.1,0,x,0\n0.2,0,\xff,0\n",
     ":3: could not convert string to float: 'x'"),
    (b"t,roll,pitch,yaw\n0,0,0,0\n0.1,0,\xff,0\n0.2,0,x,0\n",
     ":3: byte 0xff is not UTF-8 text"),
    # "\r" ends a text line: a bad byte and a bad row are numbered and met
    # in text-line order within one "\n"-ended piece too
    (b"t,roll,pitch,yaw\r0,0,x,0\r0.1,0,\xff,0\n",
     ":2: could not convert string to float: 'x'"),
    (b"t,roll,pitch,yaw\r\n0,0,0,0\r0.1,0,\xff,0\r0.2,x,0,0\n", ":3: byte 0xff is not UTF-8 text"),
    # a first row with one bad cell among numbers is data, not a header
    (b"0.0,0.1,O.2,0.3\n0.1,0,0,0\n", ":1: could not convert string to float: 'O.2'"),
    # a byte order mark is not part of the first cell
    (b"\xef\xbb\xbf0,0,0\n0.1,0,0,0\n", ":1: expected 4 columns, got 3"),
], ids=["row_then_byte", "byte_then_row", "one_piece", "byte_on_cr_line", "bad_cell_in_row_1",
        "bom_then_short_row_1"])
def test_table_reader_raises_the_first_problem_in_file_order(tmp_path, raw, message):
    path = tmp_path / "angles.csv"
    path.write_bytes(raw)
    with pytest.raises(DataError) as err:
        read_table(path, 4)
    assert str(err.value) == f"{path}{message}"


class TestNonFiniteCells:
    # the bad row goes after a blank line, so the named line counts the
    # header and blank lines as the file does
    def _with_bad_cell(self, path, lines, row, col, cell, header=True):
        parts = lines[row].split(",")
        parts[col] = cell
        lines = [*lines[:row], ",".join(parts), *lines[row + 1:]]
        if not header:
            lines = lines[1:]
        lines.insert(2, "")
        path.write_text("\n".join(lines) + "\n")
        # row r of `lines` (header at 0) sits on file line r + 2 after the
        # blank one, or r + 1 without the header
        return row + 2 if header else row + 1

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    @pytest.mark.parametrize("col", [1, 5])
    def test_imu_csv_names_the_line(self, tmp_path, cell, col):
        imu, _ = synth_trajectory(SynthConfig(duration=0.2, seed=5))
        path = tmp_path / "imu.csv"
        write_imu_csv(path, imu)
        lines = path.read_text().splitlines()
        lineno = self._with_bad_cell(path, lines, 7, col, cell)
        with pytest.raises(DataError, match=f"imu.csv:{lineno}: column {col + 1} "):
            read_imu_csv(path)

    @pytest.mark.parametrize("header", [True, False])
    def test_angle_csv_names_the_first_bad_line(self, tmp_path, header):
        series = AngleSeries(np.arange(12) * 0.01, np.zeros((12, 3)))
        path = tmp_path / "angles.csv"
        write_angle_csv(path, series)
        lines = path.read_text().splitlines()
        lines[9] = lines[9].rsplit(",", 1)[0] + ",inf"  # a later bad cell
        lineno = self._with_bad_cell(path, lines, 4, 2, "nan", header)
        with pytest.raises(DataError, match=f"angles.csv:{lineno}: column 3 holds 'nan'"):
            read_angle_csv(path)

    # the series arrays stay writable: a value set after construction is
    # rejected before the file is opened, not written as a cell read_table
    # would later reject
    def test_angle_writer_names_value_written_after_construction(self, tmp_path):
        series = AngleSeries(np.arange(12) * 0.01, np.zeros((12, 3)))
        series.angles[7, 1] = np.nan
        path = tmp_path / "angles.csv"
        with pytest.raises(InvalidInputError,
                           match="angle series holds nan in pitch at sample 7"):
            write_angle_csv(path, series)
        assert not path.exists()

    def test_imu_writer_names_value_written_after_construction(self, tmp_path):
        imu, _ = synth_trajectory(SynthConfig(duration=0.2, seed=5))
        imu.gyro[4, 2] = -np.inf
        path = tmp_path / "imu.csv"
        with pytest.raises(InvalidInputError,
                           match="IMU series holds -inf in gyro_z at sample 4"):
            write_imu_csv(path, imu)
        assert not path.exists()


class TestSynthTrajectory:
    def test_same_seed_bitwise_identical(self):
        cfg = SynthConfig(duration=2.0, seed=11)
        a_imu, a_gt = synth_trajectory(cfg)
        b_imu, b_gt = synth_trajectory(cfg)
        assert np.array_equal(a_imu.gyro, b_imu.gyro)
        assert np.array_equal(a_imu.accel, b_imu.accel)
        assert np.array_equal(a_imu.mag, b_imu.mag)
        assert np.array_equal(a_gt.angles, b_gt.angles)

    def test_noiseless_gyro_integrates_to_ground_truth(self):
        # 60 s at 100 Hz: the discrete inverse kinematics make this exact
        cfg = SynthConfig(duration=60.0, gyro_noise=0.0, gyro_bias=0.0,
                          accel_noise=0.0, mag_noise=0.0, seed=0)
        imu, gt = synth_trajectory(cfg)
        x = gt.angles[0].copy()
        worst = 0.0
        for i in range(1, len(imu)):
            x = x + gyro_delta(imu.gyro[i], x[0], x[1], imu.t[i] - imu.t[i - 1])
            worst = max(worst, float(np.max(np.abs(x - gt.angles[i]))))
        assert worst < 1e-3

    def test_noiseless_kf_recovers_ground_truth(self):
        cfg = SynthConfig(duration=20.0, gyro_noise=0.0, gyro_bias=0.0,
                          accel_noise=0.0, mag_noise=0.0, seed=1)
        imu, gt = synth_trajectory(cfg)
        kf = run_kf(imu)
        for angle in ("roll", "pitch", "yaw"):
            assert deviations(kf, gt, angle).rmse < 0.01

    def test_gyro_bias_drifts_integration_but_not_kf(self):
        bias, duration = 0.01, 30.0
        cfg = SynthConfig(duration=duration, gyro_noise=0.0, gyro_bias=bias,
                          accel_noise=0.0, mag_noise=0.0, seed=2)
        imu, gt = synth_trajectory(cfg)
        # dead reckoning accumulates on the order of bias * t (the Euler-rate
        # coupling spreads the three axis biases unevenly across angles)
        drift = integrate_gyro(imu).roll[-1] - gt.roll[-1]
        assert 0.25 * bias * duration < abs(drift) < 2.0 * bias * duration
        kf_err = deviations(run_kf(imu), gt, "roll").rmse
        assert kf_err < 0.05 * bias * duration
        assert kf_err < 0.1 * abs(drift)

    def test_pitch_amplitude_limit(self):
        with pytest.raises(ConfigError):
            synth_trajectory(SynthConfig(pitch_amp=math.pi / 2))
        with pytest.raises(ConfigError):
            synth_trajectory(SynthConfig(pitch_amp=1.3))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigError):
            synth_trajectory(SynthConfig(rate=0.0))

    @pytest.mark.parametrize("key", ["duration", "gyro_noise", "roll_freq"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_setting_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            synth_trajectory(SynthConfig(**{key: value}))

    def test_pitch_stays_in_safe_range(self):
        _, gt = synth_trajectory(SynthConfig(duration=5.0, seed=3))
        assert np.max(np.abs(gt.pitch)) < 1.2


class TestMakeWindows:
    def _series(self, n):
        rng = np.random.default_rng(n)
        return (AngleSeries(np.arange(n) * 0.01, rng.normal(size=(n, 3))),
                AngleSeries(np.arange(n) * 0.01, rng.normal(size=(n, 3))))

    def test_exactly_one_window(self):
        est, gt = self._series(20)
        assert len(make_windows(est, gt, "roll", stride=1)) == 1

    def test_count_formula_stride_one(self):
        est, gt = self._series(39)
        assert len(make_windows(est, gt, "roll", stride=1)) == 20

    def test_count_formula_non_overlapping(self):
        est, gt = self._series(40)
        ws = make_windows(est, gt, "roll", stride=20)
        assert len(ws) == 2
        assert np.array_equal(ws.inputs[0], est.roll[:20])
        assert np.array_equal(ws.inputs[1], est.roll[20:40])

    def test_alignment_of_inputs_and_targets(self):
        est, gt = self._series(30)
        ws = make_windows(est, gt, "pitch", stride=3)
        for i, start in enumerate(range(0, 11, 3)):
            assert np.array_equal(ws.inputs[i], est.pitch[start:start + 20])
            assert np.array_equal(ws.targets[i], gt.pitch[start:start + 20])

    def test_short_series_rejected(self):
        est, gt = self._series(19)
        with pytest.raises(InvalidInputError):
            make_windows(est, gt, "roll")


class TestSplit:
    def test_fraction_cut_indices(self):
        data = np.arange(100)
        train, test = split(data, FractionSplit(0.8))
        assert np.array_equal(train, np.arange(80))
        assert np.array_equal(test, np.arange(80, 100))

    def test_fraction_floor_arithmetic(self):
        train, test = split(np.arange(5), FractionSplit(0.8))
        assert len(train) == 4 and len(test) == 1

    def test_fraction_on_angle_series(self):
        series = AngleSeries(np.arange(50) * 0.1, np.zeros((50, 3)))
        train, test = split(series, FractionSplit(0.8))
        assert len(train) == 40 and len(test) == 10
        assert test.t[0] == pytest.approx(4.0)

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 400))
            frac = float(rng.uniform(0.05, 0.95))
            data = np.arange(n)
            train, test = split(data, FractionSplit(frac))
            rebuilt = np.concatenate([train, test])
            assert np.array_equal(rebuilt, data)
            assert len(set(train) & set(test)) == 0

    def test_bad_fraction_rejected(self):
        with pytest.raises(InvalidInputError):
            split(np.arange(10), FractionSplit(1.0))


class TestSeriesTypes:
    @pytest.mark.parametrize("column, row, value", [
        ("t", 4, np.nan), ("gyro_z", 9, np.inf), ("accel_x", 3, np.nan),
        ("mag_y", 0, -np.inf),
    ])
    def test_imu_series_rejects_non_finite_naming_sample(self, column, row, value):
        imu, _ = synth_trajectory(SynthConfig(duration=1.0, seed=6))
        channels = {"t": imu.t.copy(), "gyro": imu.gyro.copy(),
                    "accel": imu.accel.copy(), "mag": imu.mag.copy()}
        name, _, axis = column.partition("_")
        if axis:
            channels[name][row, "xyz".index(axis)] = value
        else:
            channels[name][row] = value
        # a later bad value in another channel: the first sample is named
        channels["gyro"][row + 20, 0] = np.nan
        with pytest.raises(InvalidInputError,
                           match=rf"IMU series holds {value} in {column} at sample {row}$"):
            ImuSeries(**channels)

    def test_angle_series_rejects_non_finite_naming_sample(self):
        angles = np.zeros((30, 3))
        angles[12, 2] = np.inf
        angles[20, 0] = np.nan
        with pytest.raises(InvalidInputError,
                           match=r"angle series holds inf in yaw at sample 12$"):
            AngleSeries(np.arange(30) * 0.01, angles)
        t = np.arange(30) * 0.01
        t[5] = np.nan
        with pytest.raises(InvalidInputError, match=r"holds nan in t at sample 5$"):
            AngleSeries(t, np.zeros((30, 3)))

    def test_series_take_slices_only(self):
        imu, gt = synth_trajectory(SynthConfig(duration=1.0, seed=6))
        assert len(imu[2:5]) == len(gt[2:5]) == 3
        for series in (imu, gt):
            with pytest.raises(TypeError, match="slices only"):
                series[0]
            with pytest.raises(TypeError):
                iter(series)

    @pytest.mark.parametrize("angle_id", [1.7, True, [1], {}, None, "heading", 3, -1])
    def test_angle_index_rejects_anything_else(self, angle_id):
        with pytest.raises(InvalidInputError):
            angle_index(angle_id)

    def test_wrap_angle(self):
        wrapped = wrap_angle([3 * math.pi, 0.2, -3 * math.pi / 2])
        assert wrapped == pytest.approx([math.pi, 0.2, math.pi / 2])
        # the interval is half-open: -pi maps to pi, and pi stays
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(math.pi) == math.pi


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("# scenario\nduration = 3.5\nseed = 9\ngyro_noise=0.01\n\n")
        cfg = SynthConfig(**synth_settings(read_config_file(path)))
        assert cfg.duration == 3.5
        assert cfg.seed == 9
        assert cfg.gyro_noise == 0.01
        assert cfg.rate == SynthConfig().rate

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("not_a_key=1\n")
        with pytest.raises(ConfigError):
            synth_settings(read_config_file(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("duration 3\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    @pytest.mark.parametrize("line", ["duration=abc", "seed=1.5"])
    def test_unreadable_value_names_the_key(self, line):
        key, value = line.split("=")
        with pytest.raises(ConfigError, match=f"'{key}': cannot read '{value}'"):
            synth_settings({key: value})

    @pytest.mark.parametrize("raw, message", [
        (b"duration=3\nrate 4\n\xff\n", ":2: expected key=value, got 'rate 4'"),
        (b"duration=3\n\xff\nrate 4\n", ":2: byte 0xff is not UTF-8 text"),
    ], ids=["line_then_byte", "byte_then_line"])
    def test_first_problem_in_file_order(self, tmp_path, raw, message):
        path = tmp_path / "synth.cfg"
        path.write_bytes(raw)
        with pytest.raises(ConfigError) as err:
            read_config_file(path)
        assert str(err.value) == f"{path}{message}"

    def test_non_utf8_byte_names_the_line(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_bytes(b"duration=3\nrate=4\xff0\n")
        with pytest.raises(ConfigError, match=r"synth.cfg:2: byte 0xff is not UTF-8"):
            read_config_file(path)
