"""Minimal differentiable engine for 1-D convolutional denoisers.

Everything is float64 numpy. A Tensor wraps a value array plus a gradient
slot; operations build a reverse-mode graph and backward() walks it once in
topological order. Each node's backward function owns the gradient array it
is handed and may overwrite it or pass it on to a parent (the rectifier
scales it in place); backward() empties an intermediate node's slot as it
hands the gradient over, so only leaves keep gradients. Activations are
(channels, length) arrays, optionally with a trailing batch axis;
parameters reuse the same Tensor type with their natural shapes.

The operations also take plain arrays: when no argument is a Tensor they
return a plain array and build no graph node or closure, so inference keeps
nothing alive beyond the activations it still needs. On that path conv1d,
conv1d_transposed, activation and add take a numpy-style `out=`: the result
is written into that C-contiguous float64 array of the result's shape, which
is returned, so a caller can keep one destination per layer across calls
(activation(x, out=x) rectifies in place). `out=` with a Tensor argument is
a StateError, since a graph node must own its value.

The one exception is activation(x, out=x) with a Tensor x, which rectifies
x's value in place and returns a node that shares x's buffer. It is safe
when the rectifier is x's only consumer, as it is for a conv layer's output
(danae_model.ConvLayer): the rectifier's backward reads only the 1-byte
mask it takes before the write, and no backward function reads its own
node's value (a conv's reads its input values, add's none, l2_loss's the
residual it saved), so nothing reads x's old value after the write. A
training graph then holds one array per rectified conv, not two.

Convolutions use cross-correlation semantics (no kernel flip) at stride 1.
The correlation is shift-and-add: one matrix product per kernel tap against
a shifted view of the padded input, summed. Each call copies the weights once,
into a contiguous stack of tap matrices. The transposed convolution runs the
same correlation on the flipped stack (taps swapped and reversed) with
complementary padding, so it is the exact adjoint of the forward one:
<conv(x), y> == <x, conv_t(y)> for shared weights.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError, StateError, check_integer

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


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into t's gradient slot. An owned g, computed for t alone, fills
    an empty slot as is; a g handed to several parents is copied first."""
    if t.grad is None:
        t.grad = g if owned else g.copy()
    else:
        t.grad += g


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one convolution layer (stride is fixed at 1)."""

    in_channels: int
    out_channels: int
    kernel_size: int = 3
    dilation: int = 1
    padding: int = 0
    transposed: bool = False

    def __post_init__(self):
        for name, minimum in (("in_channels", 1), ("out_channels", 1), ("kernel_size", 1),
                              ("dilation", 1), ("padding", 0)):
            check_integer(name, getattr(self, name), minimum)
        if self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")

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


def _tap_stack(w: np.ndarray, flipped: bool) -> np.ndarray:
    """(A, B, k) weights as one contiguous (k, A, B) stack of tap matrices, or
    flipped: (k, B, A) with each tap transposed and the taps reversed."""
    if flipped:
        return np.ascontiguousarray(w.transpose(2, 1, 0)[::-1])
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def _corr(x: np.ndarray, w_taps: np.ndarray, padding: int, dilation: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlate (I, L, B) with a (k, O, I) tap stack -> (O, T, B), into
    `out` when given (a checked C-contiguous array of that shape)."""
    taps, t = _taps(x, padding, dilation, len(w_taps))
    shape = (w_taps.shape[1], t, x.shape[2])
    # contiguous (O, I) tap matrices keep every product on BLAS
    y = np.matmul(w_taps[0], taps[0], out=None if out is None else out.reshape(shape[0], -1))
    for w_j, x_j in zip(w_taps[1:], taps[1:]):
        y += w_j @ x_j
    return y.reshape(shape)


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


def _check_out(out: np.ndarray, shape: tuple[int, ...], *args) -> None:
    """`out=` takes plain-array arguments only, since a graph node owns its
    value, and a C-contiguous float64 array of the result's shape: a conv
    writes it through a reshaped view, which other arrays would not give."""
    if _tensor_parents(*args):
        raise StateError("out= is for plain arrays; a Tensor result owns its value")
    if not (isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == np.float64 and out.flags.c_contiguous):
        got = (f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray)
               else type(out).__name__)
        raise ShapeError(f"out must be a C-contiguous float64 array of shape {shape}, "
                         f"got {got}")


# ---------------------------------------------------------------------------
# operations

def conv1d(x: Tensor | np.ndarray, weights, bias, spec: ConvSpec,
           out: np.ndarray | None = None) -> Tensor | np.ndarray:
    """Dilated 1-D convolution, weights (out_ch, in_ch, k), bias (out_ch,) or None."""
    if spec.transposed:
        raise ConfigError("conv1d needs a non-transposed spec")
    return _conv(x, weights, bias, spec, out)


def conv1d_transposed(x: Tensor | np.ndarray, weights, bias, spec: ConvSpec,
                      out: np.ndarray | None = None) -> Tensor | np.ndarray:
    """Adjoint of conv1d at the same padding/dilation; weights (in_ch, out_ch, k)."""
    if not spec.transposed:
        raise ConfigError("conv1d_transposed needs a transposed spec")
    return _conv(x, weights, bias, spec, out)


def _conv(x, weights, bias, spec: ConvSpec, out) -> Tensor | np.ndarray:
    """Shared body of conv1d and conv1d_transposed."""
    wd = _value(weights)
    if wd.shape != spec.weight_shape():
        raise ShapeError(f"weights must be {spec.weight_shape()}, got {wd.shape}")
    xd, squeeze = _with_batch(_value(x))
    if xd.shape[0] != spec.in_channels:
        raise ShapeError(f"input has {xd.shape[0]} channels, spec wants {spec.in_channels}")
    # the scatter form is a correlation with the flipped tap stack and
    # complementary padding
    padding = spec.span - spec.padding if spec.transposed else spec.padding
    if bias is not None:
        bd = _value(bias)
        if bd.shape != (spec.out_channels,):
            raise ShapeError(f"bias must be ({spec.out_channels},), got {bd.shape}")
    if out is not None:
        shape = (spec.out_channels, spec.out_length(xd.shape[1]), xd.shape[2])
        _check_out(out, shape[:2] if squeeze else shape, x, weights, bias)
    y = _corr(xd, _tap_stack(wd, spec.transposed), padding, spec.dilation,
              None if out is None else out.reshape(shape))
    if bias is not None:
        y += bd[:, None, None]
    if out is not None:
        return out
    y = y[..., 0] if squeeze else y
    parents = _tensor_parents(x, weights, bias)
    if not parents:
        return y

    def backward_fn(g):
        g3 = g[:, :, None] if squeeze else g
        if isinstance(x, Tensor):
            # the adjoint correlation runs on the other form of the stack
            dx = _corr(g3, _tap_stack(wd, not spec.transposed), spec.span - padding,
                       spec.dilation)
            _accumulate(x, dx[..., 0] if squeeze else dx, owned=True)
        if isinstance(weights, Tensor):
            # tap j's gradient is g against tap j's input; the transposed conv
            # stores taps swapped and reversed, and `out` keeps them C-ordered
            taps, _ = _taps(xd, padding, spec.dilation, spec.kernel_size)
            g2 = g3.reshape(g3.shape[0], -1)
            dw = [g2 @ x_j.T for x_j in taps]
            if spec.transposed:
                dw = [d.T for d in reversed(dw)]
            _accumulate(weights, np.stack(dw, axis=2, out=np.empty(wd.shape)), owned=True)
        if isinstance(bias, Tensor):
            _accumulate(bias, g3.sum(axis=(1, 2)), owned=True)

    return Tensor(y, parents, backward_fn)


def activation(x: Tensor | np.ndarray,
               out: Tensor | np.ndarray | None = None) -> Tensor | np.ndarray:
    """Leaky rectifier: y = x where x > 0, else LEAKY_SLOPE * x.

    activation(x, out=x) rectifies x's value in place, for a Tensor x too:
    the node it returns shares x's buffer (see the module docstring).
    """
    xd = _value(x)
    if out is x and isinstance(x, Tensor):
        out = xd
    elif out is not None:
        _check_out(out, xd.shape, x)
    if not isinstance(x, Tensor):
        return np.maximum(xd, LEAKY_SLOPE * xd, out=out)
    # the graph keeps a 1-byte mask, taken before out=x overwrites x's value;
    # scaling g by LEAKY_SLOPE where it is False is bit for bit
    # g * where(x > 0, 1.0, LEAKY_SLOPE), signed zeros included, and
    # rectifies the owned g in place
    positive = xd > 0
    y = np.maximum(xd, LEAKY_SLOPE * xd, out=out)

    def backward_fn(g):
        np.multiply(g, LEAKY_SLOPE, out=g, where=~positive)
        _accumulate(x, g, owned=True)

    return Tensor(y, (x,), backward_fn)


def add(a: Tensor | np.ndarray, b: Tensor | np.ndarray,
        out: np.ndarray | None = None) -> Tensor | np.ndarray:
    """Elementwise sum of two same-shape tensors (the skip-sum primitive)."""
    ad, bd = _value(a), _value(b)
    if ad.shape != bd.shape:
        raise ShapeError(f"cannot add shapes {ad.shape} and {bd.shape}")
    if out is not None:
        _check_out(out, ad.shape, a, b)
    y = np.add(ad, bd, out=out)
    parents = _tensor_parents(a, b)
    if not parents:
        return y

    def backward_fn(g):
        # g is owned: the first parent takes it, any other gets a copy
        _accumulate(parents[0], g, owned=True)
        for t in parents[1:]:
            _accumulate(t, g)

    return Tensor(y, parents, backward_fn)


def l2_loss(pred: Tensor, target) -> Tensor:
    """Mean squared difference as a scalar graph node; use .item() for the value."""
    td = _value(target)
    if pred.data.shape != td.shape:
        raise ShapeError(f"prediction {pred.data.shape} vs target {td.shape}")
    diff = pred.data - td
    n = diff.size

    def backward_fn(g):
        scaled = (2.0 / n) * float(g) * diff
        _accumulate(pred, scaled, owned=True)
        if isinstance(target, Tensor):
            _accumulate(target, -scaled, owned=True)

    return Tensor(np.mean(diff * diff), _tensor_parents(pred, target), backward_fn)


def backward(root: Tensor) -> None:
    """Add d(root)/d(leaf) into the grad slot of every reachable leaf.

    Leaves (parameters and inputs) keep their gradients, added to what their
    slots held; an intermediate node's slot is freed once its gradient has
    been passed on, so a second call on one graph adds the same amount again.
    """
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
    _accumulate(root, np.ones_like(root.data), owned=True)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            # the backward function owns the gradient it is handed
            g, node.grad = node.grad, None
            node._backward_fn(g)


# ---------------------------------------------------------------------------
# optimizer

# Adam's decay rates and denominator guard: the published defaults, which
# DANAE trains with; only the learning rate is a setting
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment buffers, aligned index-for-index with a parameter list."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step_count: int = 0
    lr: float = 0.002

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
    c1 = 1.0 - ADAM_BETA1 ** state.step_count
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    # every intermediate goes to one scratch buffer that is freed on return
    scratch = np.empty(max((p.data.size for p in params), default=0))
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} vs param shape {p.data.shape}")
        t = scratch[:g.size].reshape(g.shape)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=t)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.square(g, out=t), out=t)
        np.sqrt(np.divide(v, c2, out=t), out=t)
        t += ADAM_EPS
        np.divide(m, t, out=t)
        p.data -= np.multiply(state.lr / c1, t, out=t)
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
    if off + hlen > len(raw):
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as err:
        # bad UTF-8 or JSON, an integer past Python's digit limit, or nesting
        # past the recursion limit
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
        try:
            # an empty array may still claim more dimensions, or a longer
            # one, than numpy can hold
            arrays[entry["name"]] = np.frombuffer(
                raw[off:end], dtype="<f8").reshape(shape).copy()
        except ValueError as err:
            raise DataError(f"{path}: checkpoint array entry {index}: {err}") from None
        off = end
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes after payload")
    return header["meta"], arrays
