"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: the Kalman reference
inverts matrices by adjugate/cofactor expansion instead of linear solves,
the filter reference runs the measurement model and gyro kinematics one
sample at a time in scalar `math`, as the synthetic gyro reference runs the
inverse kinematics, and the convolution reference is a
direct triple loop over channels and taps. The backward reference keeps
every node's gradient slot and hands each backward function a copy of it.
The CSV and config readers
decode the whole file, then split it into lines, before parsing any row;
the table writer formats each cell with an f-string.
The checkpoint builders at the end feed the loaders' error tests.
"""

import codecs
import io
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

from danae.attitude_kf import MIN_HORIZONTAL_MAG
from danae.errors import ConfigError, DataError, ShapeError
from danae.tensor_nn import CHECKPOINT_MAGIC, read_checkpoint, write_checkpoint


def adjugate_inverse(m):
    """Inverse of a 1x1, 2x2 or 3x3 matrix via the adjugate formula."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return np.array([[1.0 / m[0, 0]]])
    if n == 2:
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    if n == 3:
        c = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
                c[i, j] = (-1.0) ** (i + j) * (
                    minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
                )
        det = sum(m[0, j] * c[0, j] for j in range(3))
        return c.T / det
    raise ValueError("adjugate_inverse supports n <= 3 only")


def kf_step_reference(x, P, A, B, C, Q, R, u, y):
    """Literal transcription of the predict/update recursion."""
    x_pred = A @ x + B @ u
    P_pred = A @ P @ A.T + Q
    K = P_pred @ C.T @ adjugate_inverse(C @ P_pred @ C.T + R)
    x_new = x_pred + K @ (y - C @ x_pred)
    P_new = (np.eye(len(x)) - K @ C) @ P_pred
    return x_new, P_new


def wrap_reference(angle):
    """An angle moved by whole turns into (-pi, pi]."""
    return angle - 2.0 * math.pi * math.ceil((angle - math.pi) / (2.0 * math.pi))


def measure_reference(accel, mag):
    """Gravity-tilt roll and pitch plus tilt-compensated yaw of one sample in
    scalar math, or None where the reading is degenerate."""
    ax, ay, az = (float(v) for v in accel)
    mx0, my0, mz0 = (float(v) for v in mag)
    if not math.sqrt(ax * ax + ay * ay + az * az) > 0.0:
        return None
    if not math.sqrt(mx0 * mx0 + my0 * my0 + mz0 * mz0) > 0.0:
        return None
    roll = wrap_reference(math.atan2(ay, az))
    pitch = math.atan2(-ax, math.hypot(ay, az))
    sr, cr, sp, cp = math.sin(roll), math.cos(roll), math.sin(pitch), math.cos(pitch)
    mx = mx0 * cp + my0 * sp * sr + mz0 * sp * cr
    my = my0 * cr - mz0 * sr
    if math.hypot(mx, my) < MIN_HORIZONTAL_MAG:
        return None
    return np.array([roll, pitch, wrap_reference(math.atan2(-my, mx))])


def run_kf_reference(imu, cfg):
    """The attitude filter as a literal per-sample loop.

    Sample 0 is its own measurement. Each later sample integrates the Euler
    kinematics of the body rates over dt, then either updates through
    kf_step_reference, with the measurement moved by whole turns next to the
    prediction, or, on a degenerate reading, keeps the prediction. Returns
    the (N, 3) estimates and the predict-only sample indices.
    """
    out = np.empty((len(imu), 3))
    x, P = measure_reference(imu.accel[0], imu.mag[0]), cfg.P0
    out[0] = x
    predict_only = []
    for i in range(1, len(imu)):
        dt = imu.t[i] - imu.t[i - 1]
        p, q, r = (float(v) for v in imu.gyro[i])
        sr, cr = math.sin(x[0]), math.cos(x[0])
        tp, cp = math.tan(x[1]), math.cos(x[1])
        u = dt * np.array([p + sr * tp * q + cr * tp * r,
                           cr * q - sr * r,
                           sr / cp * q + cr / cp * r])
        y = measure_reference(imu.accel[i], imu.mag[i])
        if y is None:
            predict_only.append(i)
            x, P = cfg.A @ x + cfg.B @ u, cfg.A @ P @ cfg.A.T + cfg.Q
        else:
            x_pred = cfg.A @ x + cfg.B @ u
            y = y + np.array([2.0 * math.pi * round((pred - meas) / (2.0 * math.pi))
                              for pred, meas in zip(cfg.C @ x_pred, y)])
            x, P = kf_step_reference(x, P, cfg.A, cfg.B, cfg.C, cfg.Q, cfg.R, u, y)
        P = 0.5 * (P + P.T)
        out[i] = x
    return out, predict_only


def body_rate_matrix_reference(roll, pitch):
    """Inverse Euler-rate kinematics for one attitude, in scalar math: maps
    Euler-angle rates to body rates."""
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    return np.array([
        [1.0, 0.0, -sp],
        [0.0, cr, sr * cp],
        [0.0, -sr, cr * cp],
    ])


def synth_gyro_reference(t, angles, rates0):
    """synth_trajectory's noiseless gyro one sample at a time: sample 0 maps
    the analytic Euler rate `rates0` at the first attitude, each later sample
    its step's finite-difference rate at the attitude the step starts from."""
    n = len(t)
    gyro = np.zeros((n, 3))
    gyro[0] = body_rate_matrix_reference(angles[0, 0], angles[0, 1]) @ rates0
    euler_rates = (angles[1:] - angles[:-1]) / np.diff(t)[:, None]
    for i in range(1, n):
        gyro[i] = (body_rate_matrix_reference(angles[i - 1, 0], angles[i - 1, 1])
                   @ euler_rates[i - 1])
    return gyro


def conv1d_reference(x, w, bias, padding, dilation):
    """Naive cross-correlation: explicit loops over out/in channels and taps."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    in_ch, length = x.shape
    out_ch, _, k = w.shape
    out_len = length + 2 * padding - dilation * (k - 1)
    y = np.zeros((out_ch, out_len))
    for o in range(out_ch):
        for t in range(out_len):
            acc = 0.0 if bias is None else float(np.asarray(bias)[o])
            for i in range(in_ch):
                for j in range(k):
                    src = t + j * dilation - padding
                    if 0 <= src < length:
                        acc += w[o, i, j] * x[i, src]
            y[o, t] = acc
    return y


def conv1d_transposed_reference(x, w, bias, padding, dilation):
    """Naive scatter form of the transposed convolution, weights (in, out, k)."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    in_ch, length = x.shape
    _, out_ch, k = w.shape
    out_len = length - 2 * padding + dilation * (k - 1)
    y = np.zeros((out_ch, out_len))
    for a in range(in_ch):
        for t in range(length):
            for c in range(out_ch):
                for j in range(k):
                    dst = t - padding + j * dilation
                    if 0 <= dst < out_len:
                        y[c, dst] += w[a, c, j] * x[a, t]
    if bias is not None:
        y += np.asarray(bias)[:, None]
    return y


def backward_reference(root):
    """tensor_nn.backward with every reachable grad slot kept: the same
    depth-first topological order, and each backward function is handed a
    copy of its node's gradient, so no slot is freed or overwritten."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents
                     if id(parent) not in seen)
    ones = np.ones_like(root.data)
    if root.grad is None:
        root.grad = ones
    else:
        root.grad += ones
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad.copy())


def random_spd(rng, n, scale=1.0):
    """A well-conditioned symmetric positive definite matrix."""
    m = rng.normal(size=(n, n))
    return scale * (m @ m.T + n * np.eye(n))


def relative_error(a, b):
    denom = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / denom


def _whole_file_lines(path, error):
    """(lines, byte error) of a whole decoded file: every line and None for
    UTF-8 text; otherwise the lines before the text line that holds the
    first bad byte, and that byte's error. A whole leading byte order mark
    is dropped; a truncated one is bad bytes. "\r", "\n" and "\r\n" each
    end one line."""
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return io.StringIO(raw.decode("utf-8"), newline=None).readlines(), None
    except UnicodeDecodeError as err:
        before = re.split(rb"\r\n|\r|\n", raw[:err.start])
        head = raw[:err.start - len(before[-1])].decode("utf-8")
        return (io.StringIO(head, newline=None).readlines(),
                error(f"{path}:{len(before)}: byte {raw[err.start]:#04x} is not UTF-8 text"))


def read_table_reference(path, expected_columns):
    """dataio.read_table with every line and row held at once: the first
    problem in file order, a bad row or a bad byte, is raised."""
    path = Path(path)
    lines, byte_error = _whole_file_lines(path, DataError)
    rows = []
    start = 0
    # line 1 is a header when none of its cells is a number
    if lines and lines[0].strip():
        numbers = 0
        for c in lines[0].strip().split(","):
            try:
                float(c)
                numbers += 1
            except ValueError:
                pass
        if numbers == 0:
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        text = line.strip()
        if not text:
            continue
        cells = text.split(",")
        if len(cells) != expected_columns:
            raise DataError(
                f"{path}:{lineno}: expected {expected_columns} columns, got {len(cells)}")
        try:
            values = [float(c) for c in cells]
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: {err}") from None
        for col, v in enumerate(values):
            if not math.isfinite(v):
                raise DataError(f"{path}:{lineno}: column {col + 1} holds "
                                f"{cells[col].strip()!r}, not a finite number")
        rows.append(values)
    if byte_error:
        raise byte_error
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows)


def write_table_reference(path, header, table):
    """dataio._write_table as a plain loop: the header line, then each row's
    cells as 17 significant digits joined by commas."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in np.asarray(table).tolist():
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_config_reference(path):
    """dataio.read_config_file with every line held at once: the first
    problem in file order, a bad line or a bad byte, is raised."""
    out = {}
    lines, byte_error = _whole_file_lines(path, ConfigError)
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, value = text.split("=", 1)
        out[key.strip()] = value.strip()
    if byte_error:
        raise byte_error
    return out


def header_only_checkpoint(header) -> bytes:
    """Checkpoint bytes holding this JSON header and no array payload."""
    blob = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<IQ", 1, len(blob)) + blob


def corrupt_checkpoints(good_path, out_dir):
    """Write broken variants of a valid model checkpoint.

    Returns {case: (path, error class the loader must raise)}.
    """
    raw = Path(good_path).read_bytes()
    meta, arrays = read_checkpoint(good_path)
    # enc0.w listed a second time, with an all-7.0 payload after the real ones
    entries = [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]
    entries.append({"name": "enc0.w", "shape": list(arrays["enc0.w"].shape)})
    payloads = [*arrays.values(), np.full(arrays["enc0.w"].shape, 7.0)]
    repeated = (header_only_checkpoint({"meta": meta, "arrays": entries})
                + b"".join(p.astype("<f8").tobytes() for p in payloads))
    files = {
        "version_0": (raw[:9] + struct.pack("<I", 0) + raw[13:], ConfigError),
        "13_bytes": (raw[:13], DataError),
        "header_past_end": (raw[:13] + struct.pack("<Q", len(raw)) + raw[21:], DataError),
        "no_arrays": (header_only_checkpoint({"meta": meta}), DataError),
        "bad_array_entry": (
            header_only_checkpoint({"meta": meta, "arrays": [{"name": "enc0.w"}]}),
            DataError),
        "enc0_w_repeated": (repeated, DataError),
    }
    # meta matches, one array's shape does not
    resized = {"enc1_w_one_tap": {**arrays, "enc1.w": arrays["enc1.w"][:, :, :1]},
               "std3_b_two": {**arrays, "std3.b": np.repeat(arrays["std3.b"], 2)}}
    cases = {}
    for case, (data, error) in files.items():
        path = Path(out_dir) / f"{case}.ckpt"
        path.write_bytes(data)
        cases[case] = (path, error)

    def changed(name, **fields):
        return [{**layer, **fields} if layer["name"] == name else layer
                for layer in meta["layers"]]

    renamed = [{**layer, "name": layer["name"].replace("std3", "dec3")}
               for layer in meta["layers"]]
    models = {
        "unknown_layer": ({**meta, "layers": renamed},
                          {k.replace("std3", "dec3"): v for k, v in arrays.items()}),
        "missing_weight": (meta, {k: v for k, v in arrays.items() if k != "up1.w"}),
        "enc0_dropped": ({**meta, "layers": meta["layers"][1:]},
                         {k: v for k, v in arrays.items() if not k.startswith("enc0.")}),
        "window_length_text": ({**meta, "window_length": "20"}, arrays),
        # a well-formed window length the denoiser was never built for
        "window_length_40": ({**meta, "window_length": 40}, arrays),
        # array shapes match the layer, the channel chain does not
        "enc0_two_channels": ({**meta, "layers": changed("enc0", in_channels=2)},
                              {**arrays, "enc0.w": np.repeat(arrays["enc0.w"], 2, axis=1)}),
        # array shapes and channels match, the window length or the network does not
        "enc1_padding_0": ({**meta, "layers": changed("enc1", padding=0)}, arrays),
        "enc2_dilation_2": ({**meta, "layers": changed("enc2", dilation=2, padding=2)},
                            arrays),
        "std3_activated": ({**meta, "layers": changed("std3", activate=True)}, arrays),
        # a channel count no layer has, so loading must not size anything by it
        "channels_too_wide": ({**meta, "channels": 100000}, arrays),
        # angles that are neither null nor a name; 1.7 must not be taken as pitch
        "angle_list": ({**meta, "angle": [1]}, arrays),
        "angle_number": ({**meta, "angle": 1.7}, arrays),
        "angle_unknown": ({**meta, "angle": "heading"}, arrays),
    }
    for case, (case_meta, case_arrays) in models.items():
        path = Path(out_dir) / f"{case}.ckpt"
        write_checkpoint(path, case_meta, case_arrays)
        cases[case] = (path, ConfigError)
    for case, case_arrays in resized.items():
        path = Path(out_dir) / f"{case}.ckpt"
        write_checkpoint(path, meta, case_arrays)
        cases[case] = (path, ShapeError)
    return cases
