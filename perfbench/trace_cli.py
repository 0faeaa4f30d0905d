"""Run danae CLI commands in this process with spans around each layer call.

Usage: python3 perfbench/trace_cli.py <plan.json> <spans.json>

The plan is ``{"runs": [{"id": ..., "argv": [...]}, ...]}``. Each run calls
``danae.cli.main(argv)`` under a ``cli.main`` span. Before the runs, the
public functions of each layer are replaced, at the name their caller
imported them under, by wrappers that record a span (name, start, end,
parent, run id, work size); ``kf_step`` only counts calls, since it runs once
per sample. The originals are put back afterwards. Spans stay in memory and
are written to <spans.json> when the runs end; run.py computes self times.
"""

import json
import logging
import sys
import time
from collections import Counter
from pathlib import Path

import danae
import danae.attitude_kf
import danae.cli
import danae.danae_model


def _rows_arg(index):
    return lambda args, result: len(args[index])


def _rows_result(args, result):
    return len(result)


def _epochs(args, result):
    return args[2].epochs


# (span name, module, attribute, size of the work done or None); each
# attribute is the name the calling module looks up at call time
SPANS = [
    ("dataio.synth_trajectory", danae.cli, "synth_trajectory", None),
    ("dataio.write_imu_csv", danae.cli, "write_imu_csv", _rows_arg(1)),
    ("dataio.read_imu_csv", danae.cli, "read_imu_csv", _rows_result),
    ("dataio.write_angle_csv", danae.cli, "write_angle_csv", _rows_arg(1)),
    ("dataio.read_angle_csv", danae.cli, "read_angle_csv", _rows_result),
    ("dataio.make_windows", danae.cli, "make_windows", None),
    ("attitude_kf.run_kf", danae.cli, "run_kf", _rows_arg(0)),
    ("danae_model.train", danae.cli, "train", _epochs),
    ("danae_model.denoise_series", danae.cli, "denoise_series", _rows_arg(1)),
    ("danae_model.save_model", danae.cli, "save_model", None),
    ("danae_model.load_model", danae.cli, "load_model", None),
    ("tensor_nn.conv1d", danae.danae_model, "conv1d", None),
    ("tensor_nn.conv1d_transposed", danae.danae_model, "conv1d_transposed", None),
    ("tensor_nn.activation", danae.danae_model, "activation", None),
    ("tensor_nn.l2_loss", danae.danae_model, "l2_loss", None),
    ("tensor_nn.backward", danae.danae_model, "backward", None),
    ("tensor_nn.adam_step", danae.danae_model, "adam_step", None),
    ("evalkit.build_report", danae.cli, "build_report", None),
    ("evalkit.emit_plot_data", danae.cli, "emit_plot_data", _rows_arg(0)),
]
COUNTERS = [("attitude_kf.kf_step", danae.attitude_kf, "kf_step")]


class Tracer(logging.Handler):
    """Span recorder; also counts the log records each run emits."""

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index, run id, size]
        self.stack = []
        self.counts = Counter()
        self.log_lines = Counter()
        self.run_id = None

    def emit(self, record):
        self.log_lines[self.run_id] += 1

    def span(self, name, fn, size=None):
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self.stack[-1] if self.stack else -1, self.run_id, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if size is not None:
                record[5] = size(args, result)
            return result
        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[f"{self.run_id}:{name}"] += 1
            return fn(*args, **kwargs)
        return counted


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = Tracer()
    originals = [(module, attr, getattr(module, attr))
                 for _, module, attr, *_ in SPANS + COUNTERS]
    for name, module, attr, size in SPANS:
        setattr(module, attr, tracer.span(name, getattr(module, attr), size))
    for name, module, attr in COUNTERS:
        setattr(module, attr, tracer.counter(name, getattr(module, attr)))
    logging.getLogger("danae").addHandler(tracer)
    main_span = tracer.span("cli.main", danae.cli.main)
    codes = {}
    try:
        for run in plan["runs"]:
            tracer.run_id = run["id"]
            codes[run["id"]] = main_span(run["argv"])
    finally:
        logging.getLogger("danae").removeHandler(tracer)
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    result = {"danae_file": danae.__file__, "codes": codes, "spans": tracer.spans,
              "spans_wrapped": ["cli.main", *(name for name, *_ in SPANS)],
              "counters_wrapped": [name for name, *_ in COUNTERS],
              "counts": dict(tracer.counts), "log_lines": dict(tracer.log_lines)}
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
