import numpy as np
import pytest

from danae.dataio import read_table
from danae.errors import InvalidInputError, ShapeError
from danae.evalkit import build_report, deviations, emit_plot_data, reduction_percent
from danae.series import AngleSeries


def _series(values, angle="roll"):
    values = np.asarray(values, dtype=float)
    angles = np.zeros((len(values), 3))
    angles[:, {"roll": 0, "pitch": 1, "yaw": 2}[angle]] = values
    return AngleSeries(np.arange(len(values)) * 0.1, angles)


class TestDeviations:
    def test_identical_series(self):
        a = _series([0.1, 0.2, 0.3])
        assert deviations(a, a, "roll") == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        a = _series([0.1, 0.1, 0.1])
        b = _series([0.0, 0.0, 0.0])
        stats = deviations(a, b, "roll")
        assert stats.mean_dev == pytest.approx(0.1)
        assert stats.max_dev == pytest.approx(0.1)
        assert stats.rmse == pytest.approx(0.1)

    def test_hand_arithmetic(self):
        stats = deviations(_series([0.3, -0.4]), _series([0.0, 0.0]), "roll")
        assert stats.mean_dev == pytest.approx(0.35)
        assert stats.max_dev == pytest.approx(0.4)
        assert stats.rmse == pytest.approx(np.sqrt(0.125), abs=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            deviations(_series([1.0, 2.0]), _series([1.0]), "roll")

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = _series(rng.normal(size=40)), _series(rng.normal(size=40))
        assert deviations(a, b, "roll") == deviations(b, a, "roll")

    def test_wrap_mode_never_exceeds_plain(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = _series(rng.uniform(-6, 6, size=30))
            b = _series(rng.uniform(-6, 6, size=30))
            plain = deviations(a, b, "roll", wrap=False)
            wrapped = deviations(a, b, "roll", wrap=True)
            assert wrapped.mean_dev <= plain.mean_dev + 1e-12
            assert wrapped.max_dev <= plain.max_dev + 1e-12
            assert wrapped.rmse <= plain.rmse + 1e-12

    def test_wrap_mode_uses_circular_distance(self):
        a = _series([2 * np.pi - 0.05])
        b = _series([0.0])
        assert deviations(a, b, "roll", wrap=True).max_dev == pytest.approx(0.05)

    def test_moment_inequalities_random_series(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            a = _series(rng.normal(scale=rng.uniform(0.01, 3.0), size=n))
            b = _series(rng.normal(scale=rng.uniform(0.01, 3.0), size=n))
            stats = deviations(a, b, "roll")
            assert stats.max_dev >= stats.mean_dev >= 0.0
            assert stats.rmse >= stats.mean_dev - 1e-15
            assert stats.rmse >= 0.0


class TestBuildReport:
    def _triplet(self):
        rng = np.random.default_rng(7)
        gt = AngleSeries(np.arange(60) * 0.1, rng.normal(size=(60, 3)))
        kf = AngleSeries(gt.t, gt.angles + rng.normal(0, 0.3, size=(60, 3)))
        return kf, gt

    def test_perfect_denoiser_reduces_100_percent(self):
        kf, gt = self._triplet()
        report = build_report(kf, gt, gt)
        for angle in ("roll", "pitch", "yaw"):
            assert report.rmse_reduction_percent[angle] == pytest.approx(100.0)
        assert report.mean_rmse_reduction_percent == pytest.approx(100.0)

    def test_identity_denoiser_reduces_0_percent(self):
        kf, gt = self._triplet()
        report = build_report(kf, kf, gt)
        for angle in ("roll", "pitch", "yaw"):
            assert report.rmse_reduction_percent[angle] == pytest.approx(0.0)
        assert report.mean_rmse_reduction_percent == pytest.approx(0.0)

    def test_zero_baseline_is_not_applicable(self):
        _, gt = self._triplet()
        noisy = AngleSeries(gt.t, gt.angles + 0.1)
        report = build_report(gt, noisy, gt)  # baseline has zero rmse
        assert all(v is None for v in report.rmse_reduction_percent.values())
        assert report.mean_rmse_reduction_percent is None

    def test_text_and_csv_rendering(self):
        kf, gt = self._triplet()
        report = build_report(kf, gt, gt)
        text = report.to_text()
        assert "rmse" in text and "roll" in text and "DANAE" in text
        csv = report.to_csv()
        assert csv.splitlines()[0] == (
            "estimator,angle,mean_dev,max_dev,rmse,rmse_reduction_percent")
        assert len(csv.splitlines()) == 8  # header + 6 angle rows + mean row


class TestReductionFormula:
    def test_per_angle_reduction(self):
        assert reduction_percent(0.1, 0.05) == pytest.approx(50.0)
        assert reduction_percent(0.0, 0.05) is None

    def test_ucs_reference_values(self):
        # previously reported roll/pitch RMSE pairs for the UCS scenario:
        # the formula reproduces the published 55% mean reduction
        kf_rmse = {"roll": 0.0410, "pitch": 0.0412}
        danae_rmse = {"roll": 0.0177, "pitch": 0.0190}
        reductions = [100.0 * (1.0 - danae_rmse[a] / kf_rmse[a]) for a in kf_rmse]
        assert np.mean(reductions) == pytest.approx(55.0, abs=0.5)


class TestEmitPlotData:
    def test_three_series_four_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        t = np.arange(25) * 0.5
        labeled = [(name, rng.normal(size=25)) for name in ("kf", "danae", "gt")]
        path = tmp_path / "plot.csv"
        emit_plot_data(t, labeled, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,kf,danae,gt"
        assert len(lines) == 26
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_empty_series_list_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            emit_plot_data(np.arange(3), [], tmp_path / "plot.csv")

    def test_round_trip_through_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0, 9, size=40))
        values = rng.normal(size=40)
        path = tmp_path / "plot.csv"
        emit_plot_data(t, [("x", values)], path)
        table = read_table(path, expected_columns=2)
        assert np.max(np.abs(table[:, 0] - t)) < 1e-12
        assert np.max(np.abs(table[:, 1] - values)) < 1e-12

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            emit_plot_data(np.arange(3), [("x", np.arange(4))], tmp_path / "p.csv")

    def test_cells_written_exactly(self, tmp_path):
        path = tmp_path / "p.csv"
        emit_plot_data([0, 0.1], [("x", [1e300, -0.0]), ("y", [5e-324, 1.0])], path)
        assert path.read_text() == ("t,x,y\n0,1.0000000000000001e+300,4.9406564584124654e-324\n"
                                    "0.10000000000000001,-0,1\n")

    def test_unwritable_path_reports_context(self, tmp_path):
        with pytest.raises(OSError, match="plot"):
            emit_plot_data(np.arange(2), [("x", np.arange(2))],
                           tmp_path / "missing" / "plot.csv")
