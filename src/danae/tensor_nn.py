"""Minimal differentiable engine for 1-D convolutional denoisers.

Everything is float64 numpy. A Tensor wraps a value array plus a gradient
slot; operations build a reverse-mode graph and backward() walks it once in
topological order. Each node's backward function owns the gradient array it
is handed and may overwrite it or pass it on to a parent (the rectifier
scales it in place). Activations have one layout, (channels, length, batch):
a single window is a batch of one, and a convolution raises ShapeError for
any other number of axes. Parameters reuse the same Tensor type with their
natural shapes.

backward() consumes the graph: leaves keep their gradients, and every other
node drops its gradient, closure and parent links once its backward
function has run, so a batch's activations are freed while its gradients
are built. backward on a graph that reaches a consumed node raises
StateError.

The operations also take plain arrays: when no argument is a Tensor they
return a plain array and build no graph node or closure, so inference keeps
nothing alive beyond the activations it still needs.

activation(x, out=x) rectifies x's value in place, on either path; it is
the one `out=` any operation takes. For a Tensor x it returns a node that
shares x's buffer. That is safe when the rectifier is x's only consumer, as
it is for a conv layer's output (danae_model.ConvLayer): the rectifier's
backward reads only the 1-byte mask it takes before the write, and no
backward function reads its own node's value (a conv's reads its input
values, add's none, l2_loss's the residual it saved), so nothing reads x's
old value after the write. A training graph then holds one array per
rectified conv, not two.

Importing this module frees one untouched 8 MB block, which raises glibc's
trim threshold to 16 MB, so the heap keeps what each training batch or
inference chunk frees instead of returning it to the kernel to be faulted
in again.

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

# backward frees each batch's graph, and inference each chunk's outputs,
# several MB at once, which glibc would hand back to the kernel and the next
# batch or chunk fault in again. Freeing one untouched mmap'd 8 MB block
# raises glibc's dynamic mmap and trim thresholds to 8 and 16 MB, so the heap
# keeps that memory for the next batch or chunk. mallopt(M_TRIM_THRESHOLD)
# would switch the dynamic thresholds off; to other allocators this is a
# short-lived mapping. Once per process is enough: the thresholds only rise.
np.empty(1 << 20)


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
        # only the two halos need zeros; the interior is overwritten anyway
        out = np.empty((c, length + 2 * p, b))
        out[:, :p, :] = 0.0
        out[:, p + length:, :] = 0.0
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


def _corr(x: np.ndarray, w_taps: np.ndarray, padding: int, dilation: int) -> np.ndarray:
    """Cross-correlate (I, L, B) with a (k, O, I) tap stack -> (O, T, B)."""
    taps, t = _taps(x, padding, dilation, len(w_taps))
    # contiguous (O, I) tap matrices keep every product on BLAS
    y = w_taps[0] @ taps[0]
    for w_j, x_j in zip(w_taps[1:], taps[1:]):
        y += w_j @ x_j
    return y.reshape(w_taps.shape[1], t, x.shape[2])


def _tensor_parents(*candidates):
    return tuple(c for c in candidates if isinstance(c, Tensor))


def _value(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# operations

def conv1d(x: Tensor | np.ndarray, weights, bias, spec: ConvSpec) -> Tensor | np.ndarray:
    """Dilated 1-D convolution of an (in_ch, length, batch) input, weights
    (out_ch, in_ch, k), bias (out_ch,) or None."""
    if spec.transposed:
        raise ConfigError("conv1d needs a non-transposed spec")
    return _conv(x, weights, bias, spec)


def conv1d_transposed(x: Tensor | np.ndarray, weights, bias,
                      spec: ConvSpec) -> Tensor | np.ndarray:
    """Adjoint of conv1d at the same padding/dilation; weights (in_ch, out_ch, k)."""
    if not spec.transposed:
        raise ConfigError("conv1d_transposed needs a transposed spec")
    return _conv(x, weights, bias, spec)


def _conv(x, weights, bias, spec: ConvSpec) -> Tensor | np.ndarray:
    """Shared body of conv1d and conv1d_transposed."""
    wd = _value(weights)
    if wd.shape != spec.weight_shape():
        raise ShapeError(f"weights must be {spec.weight_shape()}, got {wd.shape}")
    xd = _value(x)
    if xd.ndim != 3:
        raise ShapeError(f"input must be (channels, length, batch), got {xd.shape}")
    if xd.shape[0] != spec.in_channels:
        raise ShapeError(f"input has {xd.shape[0]} channels, spec wants {spec.in_channels}")
    # the scatter form is a correlation with the flipped tap stack and
    # complementary padding
    padding = spec.span - spec.padding if spec.transposed else spec.padding
    if bias is not None:
        bd = _value(bias)
        if bd.shape != (spec.out_channels,):
            raise ShapeError(f"bias must be ({spec.out_channels},), got {bd.shape}")
    y = _corr(xd, _tap_stack(wd, spec.transposed), padding, spec.dilation)
    if bias is not None:
        y += bd[:, None, None]
    parents = _tensor_parents(x, weights, bias)
    if not parents:
        return y

    def backward_fn(g):
        if isinstance(x, Tensor):
            # the adjoint correlation runs on the other form of the stack
            dx = _corr(g, _tap_stack(wd, not spec.transposed), spec.span - padding,
                       spec.dilation)
            _accumulate(x, dx, owned=True)
        if isinstance(weights, Tensor):
            # tap j's gradient is g against tap j's input; the transposed conv
            # stores taps swapped and reversed, and `out` keeps them C-ordered
            taps, _ = _taps(xd, padding, spec.dilation, spec.kernel_size)
            g2 = g.reshape(g.shape[0], -1)
            dw = [g2 @ x_j.T for x_j in taps]
            if spec.transposed:
                dw = [d.T for d in reversed(dw)]
            _accumulate(weights, np.stack(dw, axis=2, out=np.empty(wd.shape)), owned=True)
        if isinstance(bias, Tensor):
            _accumulate(bias, g.sum(axis=(1, 2)), owned=True)

    return Tensor(y, parents, backward_fn)


def activation(x: Tensor | np.ndarray,
               out: Tensor | np.ndarray | None = None) -> Tensor | np.ndarray:
    """Leaky rectifier: y = x where x > 0, else LEAKY_SLOPE * x.

    activation(x, out=x) rectifies x's value in place, for a Tensor x too:
    the node it returns shares x's buffer (see the module docstring). Any
    other `out`, or an x whose value is not a writable float64 array of its
    own (a list, another dtype), raises StateError and writes nothing.
    """
    xd = _value(x)
    if out is not None:
        # a plain x of another type was copied by _value, so only a float64
        # array is x's own value
        if out is not x or not (isinstance(x, Tensor) or xd is x) or not xd.flags.writeable:
            raise StateError("activation takes only out=x, for an x it can rectify "
                             "in place: a Tensor or a writable float64 array")
        out = xd
    if not isinstance(x, Tensor):
        return np.maximum(xd, LEAKY_SLOPE * xd, out=out)
    # the graph keeps a 1-byte mask, taken before out=x overwrites x's value
    positive = xd > 0
    y = np.maximum(xd, LEAKY_SLOPE * xd, out=out)

    def backward_fn(g):
        # the slope built from the mask is exactly 1.0 or LEAKY_SLOPE
        # (0.99 + 0.01 rounds to 1.0), so the owned g is scaled in place bit
        # for bit as g * where(x > 0, 1.0, LEAKY_SLOPE); a masked multiply
        # (where=) gives the same bytes but loops once per run of equal mask
        # values, several times slower on a batch's mask
        s = np.multiply(positive, 1.0 - LEAKY_SLOPE)
        s += LEAKY_SLOPE
        g *= s
        _accumulate(x, g, owned=True)

    return Tensor(y, (x,), backward_fn)


def add(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Elementwise sum of two same-shape tensors (the skip-sum primitive)."""
    ad, bd = _value(a), _value(b)
    if ad.shape != bd.shape:
        raise ShapeError(f"cannot add shapes {ad.shape} and {bd.shape}")
    y = ad + bd
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


def _consumed(g):
    """The backward function of a node that backward() has consumed."""
    raise StateError("graph already consumed by backward")


def backward(root: Tensor) -> None:
    """Add d(root)/d(leaf) into the grad slot of every reachable leaf, and
    consume the graph.

    Leaves (parameters and inputs) keep their gradients, added to what their
    slots held. Every other node is released as soon as its backward
    function has run: its gradient slot, closure and parent links go, so the
    activations a closure kept are freed while the gradients are still being
    built. A consumed node keeps its value, but backward on any graph that
    reaches it, itself included, raises StateError before it touches a
    gradient slot.
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
        if node._backward_fn is _consumed:
            raise StateError("graph already consumed by backward")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    _accumulate(root, np.ones_like(root.data), owned=True)
    # reverse topological order; popping drops the list's hold on each node
    while topo:
        node = topo.pop()
        if node._backward_fn is None:
            continue
        # the backward function owns the gradient it is handed
        g, node.grad = node.grad, None
        if g is not None:
            node._backward_fn(g)
        node._backward_fn, node._parents = _consumed, ()


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
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} vs param shape {p.data.shape}")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p.data -= (state.lr / c1) * (m / (np.sqrt(v / c2) + ADAM_EPS))
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
        if entry["name"] in arrays:
            raise DataError(f"{path}: checkpoint array entry {index} repeats the name "
                            f"{entry['name']!r}")
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
