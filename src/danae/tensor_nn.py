"""Minimal differentiable engine for 1-D convolutional denoisers.

Everything is float64 numpy. A Tensor wraps a value array plus a gradient
slot; operations build a reverse-mode graph and backward() walks it once in
topological order. Activations are (channels, length) arrays, optionally
with a leading batch axis; parameters reuse the same Tensor type with their
natural shapes.

Convolutions use cross-correlation semantics (no kernel flip) at stride 1.
The correlation is shift-and-add: one matrix product per kernel tap against
a shifted view of the padded input, summed. The transposed convolution is a
wrapper that runs the same correlation on swapped, flipped weights with
complementary padding, so it is the exact adjoint of the forward one:
<conv(x), y> == <x, conv_t(y)> for shared weights.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError, StateError

__all__ = [
    "Tensor",
    "ConvSpec",
    "AdamState",
    "conv1d",
    "conv1d_transposed",
    "activation",
    "add",
    "l2_loss",
    "backward",
    "adam_step",
    "write_checkpoint",
    "read_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

LEAKY_SLOPE = 0.01


class Tensor:
    """A float64 array with a gradient slot and reverse-mode bookkeeping."""

    __slots__ = ("data", "grad", "_parents", "_backward_fn")

    def __init__(self, data, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(_parents)
        self._backward_fn = _backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one convolution layer (stride is fixed at 1)."""

    in_channels: int
    out_channels: int
    kernel_size: int = 3
    dilation: int = 1
    stride: int = 1
    padding: int = 0
    transposed: bool = False

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.dilation < 1:
            raise ConfigError(f"dilation must be >= 1, got {self.dilation}")
        if self.stride != 1:
            raise ConfigError("only stride 1 is supported")
        if self.padding < 0:
            raise ConfigError(f"padding must be >= 0, got {self.padding}")

    @property
    def span(self) -> int:
        """Length covered by the dilated kernel: dilation * (kernel_size - 1)."""
        return self.dilation * (self.kernel_size - 1)

    def out_length(self, in_length: int) -> int:
        if self.transposed:
            return in_length - 2 * self.padding + self.span
        return in_length + 2 * self.padding - self.span

    def weight_shape(self) -> tuple[int, int, int]:
        if self.transposed:
            return (self.in_channels, self.out_channels, self.kernel_size)
        return (self.out_channels, self.in_channels, self.kernel_size)


# ---------------------------------------------------------------------------
# correlation core on (channels, length, batch) arrays
#
# The batch axis trails so that each tap's shifted input x_pad[:, j*d : j*d+T, :]
# of a contiguous x_pad reshapes to a strided (channels, T * batch) view without
# a copy, and every contraction below is one BLAS call per tap.

def _pad_or_crop(x: np.ndarray, p: int) -> np.ndarray:
    c, length, b = x.shape
    if p == 0:
        return x
    if p > 0:
        out = np.zeros((c, length + 2 * p, b))
        out[:, p:p + length, :] = x
        return out
    return x[:, -p:length + p, :]


def _taps(x: np.ndarray, padding: int, dilation: int, k: int) -> tuple[list, int]:
    """The k shifted inputs of a correlation as (C, T * B) arrays, and T."""
    c, length, b = x.shape
    t = length + 2 * padding - dilation * (k - 1)
    if t < 1:
        raise ShapeError(
            f"output length {t} for input length {length}, padding {padding}, "
            f"dilation {dilation}, kernel {k}"
        )
    xp = _pad_or_crop(x, padding)
    return [xp[:, j * dilation:j * dilation + t, :].reshape(c, t * b)
            for j in range(k)], t


def _corr(x: np.ndarray, w: np.ndarray, padding: int, dilation: int) -> np.ndarray:
    """Cross-correlate (I, L, B) with (O, I, k) -> (O, T, B)."""
    taps, t = _taps(x, padding, dilation, w.shape[2])
    # one contiguous (O, I) matrix per tap keeps every product on BLAS
    w_taps = np.ascontiguousarray(w.transpose(2, 0, 1))
    y = w_taps[0] @ taps[0]
    for w_j, x_j in zip(w_taps[1:], taps[1:]):
        y += w_j @ x_j
    return y.reshape(w.shape[0], t, x.shape[2])


def _corr_dw(x: np.ndarray, g: np.ndarray, padding: int, dilation: int, k: int) -> np.ndarray:
    """Weight gradient of _corr: contract (O, T, B) against each tap's input."""
    taps, _ = _taps(x, padding, dilation, k)
    g2 = g.reshape(g.shape[0], -1)
    return np.stack([g2 @ x_j.T for x_j in taps], axis=2)


def _flip_swap(w: np.ndarray) -> np.ndarray:
    """(O, I, k) -> (I, O, k) with the taps reversed; its own inverse."""
    return np.ascontiguousarray(w.transpose(1, 0, 2)[:, :, ::-1])


def _flipped(weights):
    """_flip_swap of array or Tensor weights; a Tensor gets a graph node so
    the gradient flows back to the stored layout."""
    wf = _flip_swap(_value(weights))
    if not isinstance(weights, Tensor):
        return wf
    return Tensor(wf, (weights,), lambda g: _accumulate(weights, _flip_swap(g)))


def _with_batch(data: np.ndarray) -> tuple[np.ndarray, bool]:
    if data.ndim == 2:
        return data[:, :, None], True
    if data.ndim == 3:
        return data, False
    raise ShapeError(
        f"expected (channels, length) or (channels, length, batch), got {data.shape}"
    )


def _tensor_parents(*candidates):
    return tuple(c for c in candidates if isinstance(c, Tensor))


def _value(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# operations

def conv1d(x: Tensor, weights, bias, spec: ConvSpec) -> Tensor:
    """Dilated 1-D convolution, weights (out_ch, in_ch, k), bias (out_ch,) or None."""
    if spec.transposed:
        raise ConfigError("conv1d needs a non-transposed spec")
    return _conv(x, weights, bias, spec)


def conv1d_transposed(x: Tensor, weights, bias, spec: ConvSpec) -> Tensor:
    """Adjoint of conv1d at the same padding/dilation; weights (in_ch, out_ch, k)."""
    if not spec.transposed:
        raise ConfigError("conv1d_transposed needs a transposed spec")
    return _conv(x, weights, bias, spec)


def _conv(x: Tensor, weights, bias, spec: ConvSpec) -> Tensor:
    """Shared body of conv1d and conv1d_transposed."""
    wd = _value(weights)
    if wd.shape != spec.weight_shape():
        raise ShapeError(f"weights must be {spec.weight_shape()}, got {wd.shape}")
    xd, squeeze = _with_batch(x.data)
    if xd.shape[0] != spec.in_channels:
        raise ShapeError(f"input has {xd.shape[0]} channels, spec wants {spec.in_channels}")
    padding = spec.padding
    if spec.transposed:
        # the scatter form is a correlation with swapped, flipped taps and
        # complementary padding
        weights = _flipped(weights)
        wd = _value(weights)
        padding = spec.span - spec.padding
    y = _corr(xd, wd, padding, spec.dilation)
    if bias is not None:
        bd = _value(bias)
        if bd.shape != (spec.out_channels,):
            raise ShapeError(f"bias must be ({spec.out_channels},), got {bd.shape}")
        y += bd[:, None, None]

    def backward_fn(g):
        g3 = g[:, :, None] if squeeze else g
        dx = _corr(g3, _flip_swap(wd), spec.span - padding, spec.dilation)
        _accumulate(x, dx[..., 0] if squeeze else dx)
        if isinstance(weights, Tensor):
            _accumulate(weights, _corr_dw(xd, g3, padding, spec.dilation,
                                          spec.kernel_size))
        if isinstance(bias, Tensor):
            _accumulate(bias, g3.sum(axis=(1, 2)))

    return Tensor(y[..., 0] if squeeze else y, _tensor_parents(x, weights, bias), backward_fn)


def activation(x: Tensor) -> Tensor:
    """Leaky rectifier: y = x where x > 0, else LEAKY_SLOPE * x."""
    slope = np.where(x.data > 0, 1.0, LEAKY_SLOPE)
    y = x.data * slope

    def backward_fn(g):
        _accumulate(x, g * slope)

    return Tensor(y, (x,), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (the skip-sum primitive)."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"cannot add shapes {a.data.shape} and {b.data.shape}")

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.data + b.data, (a, b), backward_fn)


def l2_loss(pred: Tensor, target) -> Tensor:
    """Mean squared difference as a scalar graph node; use .item() for the value."""
    td = _value(target)
    if pred.data.shape != td.shape:
        raise ShapeError(f"prediction {pred.data.shape} vs target {td.shape}")
    diff = pred.data - td
    n = diff.size

    def backward_fn(g):
        scaled = (2.0 / n) * float(g) * diff
        _accumulate(pred, scaled)
        if isinstance(target, Tensor):
            _accumulate(target, -scaled)

    return Tensor(np.mean(diff * diff), _tensor_parents(pred, target), backward_fn)


def backward(root: Tensor) -> None:
    """Propagate d(root)/d(node) into every reachable grad slot, additively."""
    if root._backward_fn is None and not root._parents:
        raise StateError("backward called on a leaf: run a forward computation first")
    if root.data.size != 1:
        raise ShapeError("backward needs a scalar root")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    _accumulate(root, np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    """Adam moment buffers, aligned index-for-index with a parameter list."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step_count: int = 0
    lr: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, lr: float = 0.002) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
            lr=lr,
        )


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update; parameters are mutated in place."""
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ShapeError("params, grads and Adam buffers must align")
    state.step_count += 1
    c1 = 1.0 - state.beta1 ** state.step_count
    c2 = 1.0 - state.beta2 ** state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} vs param shape {p.data.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        step = np.sqrt(v / c2)
        step += state.eps
        np.divide(m, step, out=step)
        p.data -= (state.lr / c1) * step
    return params, state


# ---------------------------------------------------------------------------
# checkpoint file format
#
# Layout (little endian):
#   bytes  0..8   magic "DANAECKPT"
#   bytes  9..12  format version, uint32
#   bytes 13..20  header length H, uint64
#   bytes 21..    header: UTF-8 JSON {"meta": {...}, "arrays": [{name, shape}]}
#   then each array's float64 C-order payload, in header order

CHECKPOINT_MAGIC = b"DANAECKPT"
CHECKPOINT_VERSION = 1


def write_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays plus a JSON meta block. Deterministic bytes."""
    header = {
        "meta": meta,
        "arrays": [{"name": k, "shape": list(np.asarray(v).shape)}
                   for k, v in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def _is_array_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"]))


def read_checkpoint(path) -> tuple[dict, dict]:
    """Read back (meta, arrays); raises ConfigError on a bad magic or version
    and DataError on a truncated or malformed file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    off = len(CHECKPOINT_MAGIC) + 12
    if len(raw) < off:
        raise DataError(f"{path}: {len(raw)} bytes, shorter than the "
                        f"{off}-byte checkpoint header")
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
    version, hlen = struct.unpack_from("<IQ", raw, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise DataError(f"{path}: corrupt checkpoint header: {err}") from None
    off += hlen
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)):
        raise DataError(f"{path}: checkpoint header needs a 'meta' object "
                        f"and an 'arrays' list")
    arrays = {}
    for index, entry in enumerate(header["arrays"]):
        if not _is_array_entry(entry):
            raise DataError(f"{path}: malformed checkpoint array entry {index}")
        shape = tuple(entry["shape"])
        end = off + 8 * math.prod(shape)
        if end > len(raw):
            raise DataError(f"{path}: truncated checkpoint payload")
        arrays[entry["name"]] = np.frombuffer(
            raw[off:end], dtype="<f8").reshape(shape).copy()
        off = end
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes after payload")
    return header["meta"], arrays
