"""Error estimators and comparison reports for attitude series.

Three statistics per angle: mean absolute deviation, maximum absolute
deviation, and RMSE. Deviations are plain differences by default; the
wrap-aware mode measures the minimal signed circular difference instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataio import _write_table
from .errors import InvalidInputError, ShapeError
from .series import ANGLE_NAMES, AngleSeries, wrap_angle

__all__ = [
    "DeviationStats",
    "MetricsReport",
    "deviations",
    "build_report",
    "emit_plot_data",
]


class DeviationStats(NamedTuple):
    mean_dev: float
    max_dev: float
    rmse: float


def deviations(a: AngleSeries, b: AngleSeries, angle_id, wrap: bool = False) -> DeviationStats:
    """Deviation statistics of one angle track of a against b."""
    if len(a) != len(b):
        raise ShapeError(f"series lengths disagree: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise InvalidInputError("cannot evaluate empty series")
    d = a.angle(angle_id) - b.angle(angle_id)
    if wrap:
        d = wrap_angle(d)
    mag = np.abs(d)
    return DeviationStats(float(mag.mean()), float(mag.max()),
                          float(np.sqrt(np.mean(d * d))))


@dataclass
class MetricsReport:
    """Per-angle statistics for two estimators vs a shared ground truth."""

    kf: dict[str, DeviationStats]
    danae: dict[str, DeviationStats]
    rmse_reduction_percent: dict[str, float | None]
    mean_rmse_reduction_percent: float | None

    def to_text(self) -> str:
        lines = []
        header = f"{'':14s}" + "".join(f"{name:>12s}" for name in ANGLE_NAMES)
        for label, stats in (("KF", self.kf), ("DANAE", self.danae)):
            lines.append(label)
            lines.append(header)
            for row, attr in (("mean dev", "mean_dev"), ("max dev", "max_dev"),
                              ("rmse", "rmse")):
                cells = "".join(
                    f"{getattr(stats[name], attr):12.4f}" for name in ANGLE_NAMES
                )
                lines.append(f"{row + ' [rad]':14s}" + cells)
            lines.append("")
        cells = "".join(
            f"{self.rmse_reduction_percent[name]:12.2f}"
            if self.rmse_reduction_percent[name] is not None else f"{'n/a':>12s}"
            for name in ANGLE_NAMES
        )
        lines.append(f"{'rmse red. [%]':14s}" + cells)
        mean = self.mean_rmse_reduction_percent
        lines.append(f"{'mean red. [%]':14s}{mean:12.2f}" if mean is not None
                     else f"{'mean red. [%]':14s}{'n/a':>12s}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["estimator,angle,mean_dev,max_dev,rmse,rmse_reduction_percent"]
        for label, stats in (("kf", self.kf), ("danae", self.danae)):
            for name in ANGLE_NAMES:
                s = stats[name]
                red = self.rmse_reduction_percent[name] if label == "danae" else None
                red_cell = "" if red is None else f"{red:.17g}"
                lines.append(
                    f"{label},{name},{s.mean_dev:.17g},{s.max_dev:.17g},"
                    f"{s.rmse:.17g},{red_cell}"
                )
        mean = self.mean_rmse_reduction_percent
        lines.append("danae,mean,,,," + ("" if mean is None else f"{mean:.17g}"))
        return "\n".join(lines) + "\n"


def reduction_percent(kf_rmse: float, danae_rmse: float) -> float | None:
    """100 * (1 - danae/kf); not applicable when the baseline RMSE is zero."""
    if kf_rmse == 0.0:
        return None
    return 100.0 * (1.0 - danae_rmse / kf_rmse)


def build_report(kf: AngleSeries, danae: AngleSeries, gt: AngleSeries,
                 wrap: bool = False) -> MetricsReport:
    """All nine statistics per estimator plus per-angle and mean RMSE reductions."""
    kf_stats = {name: deviations(kf, gt, name, wrap) for name in ANGLE_NAMES}
    danae_stats = {name: deviations(danae, gt, name, wrap) for name in ANGLE_NAMES}
    per_angle = {
        name: reduction_percent(kf_stats[name].rmse, danae_stats[name].rmse)
        for name in ANGLE_NAMES
    }
    usable = [v for v in per_angle.values() if v is not None]
    mean = float(np.mean(usable)) if usable else None
    return MetricsReport(kf_stats, danae_stats, per_angle, mean)


def emit_plot_data(t, labeled_series, path) -> None:
    """Write one CSV: column t plus one column per (label, values) pair."""
    labeled = list(labeled_series)
    if not labeled:
        raise InvalidInputError("nothing to plot")
    t = np.asarray(t, dtype=float).reshape(-1)
    columns = []
    for label, values in labeled:
        v = np.asarray(values, dtype=float).reshape(-1)
        if len(v) != len(t):
            raise ShapeError(f"column {label!r} has length {len(v)}, t has {len(t)}")
        columns.append((str(label), v))
    path = Path(path)
    try:
        _write_table(path, "t," + ",".join(label for label, _ in columns),
                     np.column_stack([t] + [v for _, v in columns]))
    except OSError as err:
        raise OSError(f"cannot write plot data to {path}: {err}") from err
