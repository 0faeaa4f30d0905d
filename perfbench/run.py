"""Benchmark of the danae command line: workloads, each timed end to end
as fresh processes and checked against an oracle, plus a traced run that
times each layer. BENCHMARK.json lists ``pipeline`` and ``denoise``;
``kf_stream`` runs the same way but is left out of it (see README.md).

    python3 perfbench/run.py --workload {pipeline,kf_stream,denoise}
                             --seed N --seconds S --trace {0,1}

The checkout is the directory above this file. Its ``src/`` goes first on
the path of every process, and the run stops if ``danae`` is imported from
anywhere else. Set-up builds the inputs from the seed in a fresh interpreter
(repeated, median reported as ``setup_s``). A plain run (``--trace 0``) then
runs the workload's command as a closed loop, one process at a time, for
as many runs as fit in S seconds (at least one), and reports the medians
over the runs that passed their check. A traced run (``--trace 1``) runs the command once plain and
once under perfbench/trace_cli.py, runs a small probe of every subcommand
under the tracer, then perfbench/layer_bench.py, and reports per-layer
metrics. perfbench/README.md lists the metrics and what each should move.
The last line of standard output is the JSON result; the environment and
every raw measurement go to .perfbench/<workload>-seed<N>-trace<T>.json.
"""

import os

# one BLAS thread, set before numpy loads here and passed to every child
THREAD_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD_ENV = {**os.environ, **THREAD_PIN, "PYTHONPATH": str(SRC)}

RUN_BUDGET_S = 170  # a run must end within 180 s
SETUP_REPS = 3
RATIO_LIMIT = 0.7  # the acceptance bar: denoised RMSE <= 0.7 x KF RMSE
KF_TOLERANCE = 1e-12

# spans that decide which enclosing stage a tensor_nn call belongs to
TRAIN, DENOISE = "danae_model.train", "danae_model.denoise_series"
CONV = ("tensor_nn.conv1d", "tensor_nn.conv1d_transposed")


class BenchError(Exception):
    """The benchmark cannot produce a result (bad checkout, missing span...)."""


@dataclass
class Run:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: Path
    stderr: Path


def spawn(argv, cwd: Path, label: str, limit: float) -> Run:
    """Run one child to its exit: wall time from spawn to exit, CPU time and
    peak RSS of that child alone (wait4), output to <label>.out/.err."""
    out_path, err_path = cwd / f"{label}.out", cwd / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=CHILD_ENV,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(limit, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss * 1024 / 1e6, out_path, err_path)


def spawn_ok(argv, cwd: Path, label: str, deadline: float) -> Run:
    """spawn() for a helper of the benchmark, which must succeed."""
    run = spawn(argv, cwd, label, deadline - time.monotonic())
    if run.code != 0:
        raise BenchError(f"{label} exited {run.code}: "
                         + run.stderr.read_text(encoding="utf-8")[-2000:])
    return run


def cli_argv(args):
    return [sys.executable, "-m", "danae.cli", *args]


def check_danae_file(path: str) -> None:
    expected = (SRC / "danae").resolve()
    if Path(path).resolve().parent != expected:
        raise BenchError(f"danae was imported from {path}, not from {expected}")


def rmse(a, b):
    return float(np.sqrt(np.mean(np.square(a - b))))


def load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# workloads: each builds its command, an oracle, and checks one run's output,
# returning (problem or None, RMSE ratio or None if the output is unreadable);
# a failed run still reports its ratio, so that a wrong result shows in it


class Workload:
    expected: tuple = ()

    def prepare(self, work, info, seed):
        """Build the oracle, once per run and outside all timing."""

    def trace_problem(self, trace):
        """A check that only the traced run can make, or None."""
        return None


class Pipeline(Workload):
    """`danae pipeline` on the fixed benchmark scenario (120 s @ 100 Hz,
    seed 42, stride 10) for roll with two epochs, so that several runs fit
    in the window. The scenario does not follow the workload seed: the RMSE
    ratio of a two-epoch model moves by about a quarter between scenario
    seeds, more than any bound allows."""

    angles = ("roll",)
    expected = ("cli.main", "dataio.synth_trajectory", "dataio.write_imu_csv",
                "dataio.write_angle_csv", "attitude_kf.run_kf", "dataio.make_windows",
                TRAIN, "danae_model.save_model", DENOISE, *CONV, "tensor_nn.activation",
                "tensor_nn.l2_loss", "tensor_nn.backward", "tensor_nn.adam_step",
                "evalkit.build_report", "evalkit.emit_plot_data")

    def command(self, work, out):
        return ["pipeline", "--out-dir", out, "--seed", "42", "--duration", "120",
                "--angles", ",".join(self.angles), "--epochs", "2", "--stride", "10"]

    def check(self, work, out, run):
        rmses = {}
        for line in (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]:
            estimator, angle, _, _, value, _ = line.split(",")
            rmses[estimator, angle] = value
        # per denoised angle: the "mean" row also averages pass-through yaw
        ratios = [float(rmses["danae", a]) / float(rmses["kf", a]) for a in self.angles]
        ratio = statistics.fmean(ratios)
        for angle in self.angles:
            loss = load_csv(out / f"loss_{angle}.csv")[:, 1]
            if not loss[-1] < loss[0]:
                return f"{angle} loss did not fall: {loss.tolist()}", ratio
        if max(ratios) > RATIO_LIMIT:
            return f"RMSE ratios {ratios} above {RATIO_LIMIT}", ratio
        return None, ratio


class KfStream(Workload):
    """`danae kf` on a long synthetic log with seeded magnetometer dropouts."""

    expected = ("cli.main", "dataio.read_imu_csv", "attitude_kf.run_kf",
                "dataio.write_angle_csv")

    def prepare(self, work, info, seed):
        """Reference filter output and the raw-measurement RMSE, from the
        public per-sample functions; computed once, outside all timing."""
        from danae.attitude_kf import (KfConfig, KfState, accel_to_roll_pitch, gyro_delta,
                                       kf_step, mag_to_yaw, measurement_angles)
        from danae.dataio import SynthConfig, synth_trajectory
        from danae.errors import InvalidInputError, NumericalError
        from danae.series import ImuSeries, wrap_angle

        data = load_csv(work / "imu.csv")
        t, gyro, accel, mag = data[:, 0], data[:, 1:4], data[:, 4:7], data[:, 7:10]
        cfg = KfConfig()

        def measure(i):
            roll, pitch = accel_to_roll_pitch(accel[i])
            return np.array([roll, pitch, mag_to_yaw(mag[i], roll, pitch)])

        state = KfState(measure(0), cfg.P0.copy())
        ref = np.empty((len(t), 3))
        ref[0] = state.x
        predict_only = []
        for i in range(1, len(t)):
            u = gyro_delta(gyro[i], state.x[0], state.x[1], t[i] - t[i - 1])
            x_pred = cfg.A @ state.x + cfg.B @ u
            try:
                y = measure(i)
            except (InvalidInputError, NumericalError):
                predict_only.append(i)
                P_pred = cfg.A @ state.P @ cfg.A.T + cfg.Q
                state = KfState(x_pred, 0.5 * (P_pred + P_pred.T))
            else:
                state = kf_step(state, cfg, u, cfg.C @ x_pred + wrap_angle(y - cfg.C @ x_pred))
            ref[i] = state.x
        if predict_only != info["dropouts"]:
            raise BenchError("predict-only rows of the reference differ from the injected ones")

        _, gt = synth_trajectory(SynthConfig(duration=info["rows"] / SynthConfig().rate,
                                             seed=seed))
        keep = np.ones(len(t), bool)
        keep[info["dropouts"]] = False
        meas = measurement_angles(ImuSeries(t[keep], gyro[keep], accel[keep], mag[keep]))
        self.t, self.ref, self.gt, self.keep = t, ref, gt.angles, keep
        self.meas_rmse = [rmse(wrap_angle(meas.angles[:, k] - gt.angles[keep, k]), 0.0)
                          for k in range(3)]
        self.dropouts = len(info["dropouts"])

    def command(self, work, out):
        return ["kf", "--imu", work / "imu.csv", "--out", out / "kf.csv"]

    def check(self, work, out, run):
        from danae.series import wrap_angle
        got = load_csv(out / "kf.csv")
        if got.shape != (len(self.t), 4) or not (got[:, 0] == self.t).all():
            return f"output shape {got.shape} or timestamps differ from the input", None
        # filter RMSE against truth over raw accel/mag RMSE, rows with a measurement
        ratio = statistics.fmean(
            rmse(wrap_angle(got[self.keep, 1 + k] - self.gt[self.keep, k]), 0.0)
            / self.meas_rmse[k] for k in range(3))
        err = float(abs(got[:, 1:] - self.ref).max())
        if not err <= KF_TOLERANCE:
            return f"output differs from the kf_step reference by {err:.3e}", ratio
        warnings = sum(line.startswith(b"WARNING")
                       for line in run.stderr.read_bytes().splitlines())
        if warnings != self.dropouts:
            return f"{warnings} WARNING lines for {self.dropouts} dropouts", ratio
        return None, ratio

    def trace_problem(self, trace):
        stats, _ = span_stats(trace, "workload")
        calls, _, samples = stats["attitude_kf.run_kf", None]
        updates = trace["counts"].get("workload:attitude_kf.kf_step", 0)
        if samples - calls - updates != self.dropouts:
            return (f"{samples - calls - updates} predict-only steps for "
                    f"{self.dropouts} dropouts")
        return None


class Denoise(Workload):
    """`danae denoise` with a checkpoint trained in set-up, on a held-out scenario."""

    expected = ("cli.main", "danae_model.load_model", "dataio.read_angle_csv", DENOISE,
                *CONV, "tensor_nn.activation", "dataio.write_angle_csv")

    def prepare(self, work, info, seed):
        self.angle = info["angle"]
        self.column = 1 + ("roll", "pitch", "yaw").index(self.angle)
        self.kf_lines = (work / "kf.csv").read_text(encoding="utf-8").splitlines()
        self.gt = load_csv(work / "gt.csv")[:, self.column]
        self.kf_rmse = rmse(load_csv(work / "kf.csv")[:, self.column], self.gt)

    def command(self, work, out):
        return ["denoise", "--model", work / "model.ckpt", "--kf", work / "kf.csv",
                "--out", out / "danae.csv"]

    def check(self, work, out, run):
        lines = (out / "danae.csv").read_text(encoding="utf-8").splitlines()
        if len(lines) != len(self.kf_lines):
            return f"{len(lines)} output lines for {len(self.kf_lines)} input lines", None
        ratio = rmse(load_csv(out / "danae.csv")[:, self.column], self.gt) / self.kf_rmse
        for number, (got, want) in enumerate(zip(lines, self.kf_lines)):
            got, want = got.split(","), want.split(",")
            if [c for k, c in enumerate(got) if k != self.column] != \
                    [c for k, c in enumerate(want) if k != self.column]:
                return f"pass-through columns changed on line {number + 1}", ratio
        if ratio > RATIO_LIMIT:
            return f"RMSE ratio {ratio} above {RATIO_LIMIT}", None
        return None, ratio


WORKLOADS = {"pipeline": Pipeline, "kf_stream": KfStream, "denoise": Denoise}


# ---------------------------------------------------------------------------
# traced run


def probe_plan(probe: Path, seed: int):
    """A small run of every subcommand, so that every span fires in every
    traced run and supplies the metrics of layers the workload leaves idle."""
    return [
        ["pipeline", "--out-dir", probe, "--seed", seed, "--duration", "20",
         "--angles", "roll", "--epochs", "1", "--stride", "10"],
        ["kf", "--imu", probe / "imu.csv", "--out", probe / "kf_probe.csv"],
        ["denoise", "--model", probe / "model_roll.ckpt", "--kf", probe / "kf_test.csv",
         "--out", probe / "danae_probe.csv"],
    ]


def run_traced(runs, cwd: Path, label: str, deadline: float):
    plan = cwd / f"{label}.plan.json"
    spans = cwd / f"{label}.spans.json"
    plan.write_text(json.dumps({"runs": [{"id": run_id, "argv": [str(a) for a in argv]}
                                         for run_id, argv in runs]}), encoding="utf-8")
    run = spawn_ok([sys.executable, HERE / "trace_cli.py", plan, spans], cwd, label, deadline)
    trace = json.loads(spans.read_text(encoding="utf-8"))
    check_danae_file(trace["danae_file"])
    for run_id, code in trace["codes"].items():
        if code != 0:
            raise BenchError(f"traced command {run_id} exited {code}")
    return run, trace


def span_stats(trace, run_id):
    """{(span name, enclosing stage): [calls, seconds, work size]} for one run,
    plus the self time of the cli.main spans."""
    spans = trace["spans"]
    self_time = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    stats, cli_self = {}, 0.0
    for i, (name, start, end, parent, rid, size) in enumerate(spans):
        if rid != run_id:
            continue
        if name == "cli.main":
            cli_self += self_time[i]
        stage = None
        while parent >= 0 and stage is None:
            if spans[parent][0] in (TRAIN, DENOISE):
                stage = spans[parent][0]
            parent = spans[parent][3]
        entry = stats.setdefault((name, stage), [0, 0.0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += size or 0
    return stats, cli_self


# (metric, span, scale, divide by "size" or "calls"); the time of a span
# includes the wrapped calls it makes, which only train and denoise_series do
STAGE_METRICS = [
    ("attitude_kf.run_kf_us_per_sample", "attitude_kf.run_kf", 1e6, "size"),
    ("dataio.read_imu_csv_us_per_row", "dataio.read_imu_csv", 1e6, "size"),
    ("dataio.write_imu_csv_us_per_row", "dataio.write_imu_csv", 1e6, "size"),
    ("dataio.read_angle_csv_us_per_row", "dataio.read_angle_csv", 1e6, "size"),
    ("dataio.write_angle_csv_us_per_row", "dataio.write_angle_csv", 1e6, "size"),
    ("dataio.synth_trajectory_s", "dataio.synth_trajectory", 1.0, "calls"),
    ("dataio.make_windows_ms", "dataio.make_windows", 1e3, "calls"),
    ("danae_model.train_s_per_epoch", TRAIN, 1.0, "size"),
    ("danae_model.denoise_us_per_sample", DENOISE, 1e6, "size"),
    ("danae_model.save_model_ms", "danae_model.save_model", 1e3, "calls"),
    ("danae_model.load_model_ms", "danae_model.load_model", 1e3, "calls"),
    ("evalkit.build_report_ms", "evalkit.build_report", 1e3, "calls"),
    ("evalkit.emit_plot_data_us_per_row", "evalkit.emit_plot_data", 1e6, "size"),
]
# (metric, spans) timed per training batch
BATCH_METRICS = [
    ("tensor_nn.conv_ms_per_batch", CONV),
    ("tensor_nn.activation_ms_per_batch", ("tensor_nn.activation",)),
    ("tensor_nn.backward_ms_per_batch", ("tensor_nn.backward",)),
    ("tensor_nn.adam_step_ms_per_batch", ("tensor_nn.adam_step",)),
]


def layer_metrics(trace, run_id, conv_layers):
    """Per-layer metrics of the spans one run fired; absent layers are left out."""
    stats, cli_self = span_stats(trace, run_id)
    by_name = {}
    for (name, _), (calls, secs, size) in stats.items():
        total = by_name.setdefault(name, [0, 0.0, 0])
        total[0] += calls
        total[1] += secs
        total[2] += size
    metrics = {}
    for metric, span, scale, per in STAGE_METRICS:
        if span in by_name:
            calls, secs, size = by_name[span]
            metrics[metric] = secs * scale / (size if per == "size" else calls)
    if "attitude_kf.run_kf" in by_name:
        calls, _, samples = by_name["attitude_kf.run_kf"]
        updates = trace["counts"].get(f"{run_id}:attitude_kf.kf_step", 0)
        metrics["attitude_kf.update_frac"] = updates / (samples - calls)

    def under(names, stage):
        found = [stats[n, stage] for n in names if (n, stage) in stats]
        return sum(c for c, _, _ in found), sum(s for _, s, _ in found)

    batches, _ = under(("tensor_nn.adam_step",), TRAIN)
    if batches:
        for metric, names in BATCH_METRICS:
            calls, secs = under(names, TRAIN)
            metrics[metric] = secs * 1e3 / batches
            metrics[metric + ".calls"] = calls
    calls, secs = under(CONV, DENOISE)
    if calls:
        metrics["tensor_nn.conv_ms_per_chunk"] = secs * 1e3 / (calls / conv_layers)
        metrics["tensor_nn.conv_ms_per_chunk.calls"] = calls
    if cli_self:
        metrics["cli.self_s"] = cli_self
        metrics["cli.log_lines"] = trace["log_lines"].get(run_id, 0)
    return metrics


def fired(trace, run_id):
    return {name for name, _, _, _, rid, _ in trace["spans"] if rid == run_id}


# ---------------------------------------------------------------------------
# measurement


def read_cpu_ticks():
    """Aggregate CPU ticks from /proc/stat (read-only): (steal, total)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def environment(danae_file, ticks_before):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    ticks = read_cpu_ticks()
    steal = None
    if ticks and ticks_before and ticks[1] > ticks_before[1]:
        steal = (ticks[0] - ticks_before[0]) / (ticks[1] - ticks_before[1])
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "threads": THREAD_PIN,
            "commit": commit, "danae": danae_file, "steal_frac": steal}


def set_up(name, seed, work, reps, deadline):
    runs = []
    for rep in range(reps):
        run = spawn_ok([sys.executable, HERE / "make_inputs.py", name, seed, work], work,
                       f"setup{rep}", deadline)
        danae_file = json.loads(run.stdout.read_text(encoding="utf-8"))["danae_file"]
        check_danae_file(danae_file)
        runs.append(run)
    info = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    return runs, info, danae_file


def run_checked(workload, work, label, argv, deadline):
    """One plain run of the command, with its oracle verdict and RMSE ratio."""
    out = work / label
    out.mkdir()
    run = spawn(argv, out, "cli", deadline - time.monotonic())
    problem, ratio = (f"exit code {run.code}", None) if run.code != 0 else \
        workload.check(work, out, run)
    return run, problem, ratio


def measure_plain(workload, work, seconds, deadline):
    records = []
    start = time.monotonic()
    while True:
        label = f"run{len(records)}"
        run, problem, ratio = run_checked(workload, work, label,
                                          cli_argv(workload.command(work, work / label)),
                                          deadline)
        records.append((run, problem, ratio))
        shutil.rmtree(work / label)
        # stop before a run that would end past the window or the deadline
        now = time.monotonic()
        if now - start + run.wall > seconds or deadline - now < 2 * run.wall:
            return records


def measure_traced(workload, work, seed, deadline):
    records, metrics = [], {}
    label = "plain"
    plain = run_checked(workload, work, label, cli_argv(workload.command(work, work / label)),
                        deadline)
    records.append(plain)
    label = "traced"
    (work / label).mkdir()
    traced, trace = run_traced([("workload", workload.command(work, work / label))],
                               work / label, "trace", deadline)
    missing = set(workload.expected) - fired(trace, "workload")
    if missing:
        raise BenchError(f"spans never fired in the workload: {sorted(missing)}")
    problem, ratio = workload.check(work, work / label, traced)
    records.append((traced, problem or workload.trace_problem(trace), ratio))

    (work / "probe").mkdir()
    _, probe = run_traced([("probe", argv) for argv in probe_plan(work / "probe", seed)],
                          work / "probe", "trace", deadline)
    missing = set(probe["spans_wrapped"]) - fired(probe, "probe")
    missing |= {name for name in probe["counters_wrapped"]
                if not probe["counts"].get(f"probe:{name}")}
    if missing:
        raise BenchError(f"spans never fired in the probe: {sorted(missing)}")

    bench = spawn_ok([sys.executable, HERE / "layer_bench.py", seed], work, "layers",
                     deadline)
    layers = json.loads(bench.stdout.read_text(encoding="utf-8"))

    metrics.update(layer_metrics(probe, "probe", layers["layers"]))
    metrics.update(layer_metrics(trace, "workload", layers["layers"]))
    metrics.update(layers["metrics"])
    metrics["trace.overhead_frac"] = traced.wall / plain[0].wall - 1.0
    return records, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if not (SRC / "danae" / "cli.py").is_file():
        raise BenchError(f"no danae sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import danae
    check_danae_file(danae.__file__)

    deadline = time.monotonic() + RUN_BUDGET_S
    ticks = read_cpu_ticks()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload]()
    setups, info, danae_file = set_up(args.workload, args.seed, work,
                                      1 if args.trace else SETUP_REPS, deadline)
    workload.prepare(work, info, args.seed)

    if args.trace:
        records, metrics = measure_traced(workload, work, args.seed, deadline)
    else:
        records = measure_plain(workload, work, args.seconds, deadline)
        good = [r for r in records if r[1] is None] or records
        ratios = [ratio for _, _, ratio in good if ratio is not None]
        metrics = {
            "setup_s": statistics.median(r.wall for r in setups),
            "wall_s": statistics.median(r.wall for r, _, _ in good),
            "cpu_s": statistics.median(r.cpu for r, _, _ in good),
            "peak_rss_mb": statistics.median(r.rss_mb for r, _, _ in good),
        }
        if ratios:
            metrics["rmse_ratio"] = statistics.median(ratios)
    failed = [problem for _, problem, _ in records if problem is not None]
    for problem in failed:
        print(f"check failed: {problem}", file=sys.stderr)
    extra = set(metrics) - set(wanted)
    missing = set(wanted) - set(metrics)
    if extra or missing:
        raise BenchError(f"metrics not in BENCHMARK.json: {sorted(extra)}; "
                         f"listed but not measured: {sorted(missing)}")

    env = environment(danae_file, ticks)
    detail = {"args": vars(args), "env": env, "inputs": {k: v for k, v in info.items()
                                                        if k != "dropouts"},
              "setup_s": [r.wall for r in setups],
              "runs": [{"wall_s": r.wall, "cpu_s": r.cpu, "peak_rss_mb": r.rss_mb,
                        "code": r.code, "problem": p, "rmse_ratio": q}
                       for r, p, q in records],
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print("env " + json.dumps(env))
    for name in wanted:
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    result = {"correct": not failed and all(math.isfinite(v) for v in metrics.values()),
              "attempted": len(records), "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
