"""The DANAE denoiser: a dilated convolutional encoder/decoder over
fixed-length windows of one Euler-angle track, plus training and
whole-series inference.

Architecture (windows of dataio.DEFAULT_WINDOW samples, 128 channels in the
shipped build):

    encoder   enc0..enc3   standard dilated convs, dilations 1,2,4,8
    decoder   std0, up0, std1, up1, std2, up2, std3
              up*  = transposed dilated convs, dilations 4,2,1
              std* = standard convs, dilation 1; std3 maps back to 1 channel
    skip rule std_i consumes enc_i's output summed with the decoder stream
              (std0's decoder stream is enc3's output)

A DanaeModel is these layers by name, in this order; the name's prefix
(enc, std, up) is the layer's role in the wiring.

Every convolution preserves the window length (tensor_nn pads each k = 3
layer by its dilation), so all skip sums are shape-aligned. Hidden layers
use the leaky rectifier; the final conv is linear because angles are
unbounded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .dataio import DEFAULT_WINDOW, WindowSet, sliding_windows
from .errors import ConfigError, InvalidInputError, NumericalError, ShapeError, check_integer
from .series import ANGLE_NAMES, AngleSeries, angle_index
from .tensor_nn import (
    AdamState,
    ConvSpec,
    Tensor,
    activation,
    adam_step,
    add,
    backward,
    conv1d,
    conv1d_transposed,
    l2_loss,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "ConvLayer",
    "DanaeModel",
    "TrainConfig",
    "build_model",
    "train",
    "denoise_series",
    "save_model",
    "load_model",
]

DEFAULT_CHANNELS = 128
# windows per model call in denoise_series: each chunk's layer outputs are
# allocated and freed per chunk, so a small chunk keeps the peak low. The
# width also fixes the output bits: BLAS may sum a product in another order
# at another shape (64 or 256 windows move the last bit of some samples)
DENOISE_CHUNK = 32
ENCODER_DILATIONS = (1, 2, 4, 8)
DECODER_UP_DILATIONS = (4, 2, 1)


@dataclass
class ConvLayer:
    """One convolution plus its optional activation."""

    spec: ConvSpec
    weight: Tensor
    bias: Tensor
    activate: bool = True

    def __call__(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """A Tensor input builds graph nodes; a plain array input gets a
        plain array back and builds none."""
        op = conv1d_transposed if self.spec.transposed else conv1d
        if isinstance(x, Tensor):
            y = op(x, self.weight, self.bias, self.spec)
        else:
            y = op(x, self.weight.data, self.bias.data, self.spec)
        # the conv's output is this layer's own and no backward reads it, so
        # it is rectified in place, in a graph too
        return activation(y, out=y) if self.activate else y


@dataclass
class DanaeModel:
    """The layers by name, in _architecture's forward order; see the module
    docstring for the wiring."""

    by_name: dict[str, ConvLayer]

    @property
    def channels(self) -> int:
        """The hidden width: enc0's output channels."""
        return self.by_name["enc0"].spec.out_channels

    def layers(self):
        """(name, layer) pairs in forward-execution order."""
        return self.by_name.items()

    def parameters(self) -> list[Tensor]:
        params = []
        for _, layer in self.layers():
            params.extend((layer.weight, layer.bias))
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())


@dataclass(frozen=True)
class TrainConfig:
    """Settings for train(); each epoch shuffles the windows with an order
    drawn from `seed`, and the window length is always DEFAULT_WINDOW. A
    config checks its fields when built and raises ConfigError."""

    epochs: int = 50
    seed: int = 0
    batch_size: int = 16
    lr: float = 0.002

    def __post_init__(self):
        check_integer("epochs", self.epochs, 1)
        check_integer("batch_size", self.batch_size, 1)
        check_integer("seed", self.seed, 0)
        if not (isinstance(self.lr, numbers.Real) and not isinstance(self.lr, bool)
                and math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr!r}")


def _architecture(channels: int) -> list[tuple[str, ConvSpec, bool]]:
    """The DANAE network as (name, spec, activate) rows in forward order:
    enc0..enc3, then std0, up0, std1, up1, std2, up2, std3.

    This table is the only description of the architecture: build_model
    draws its weights over it and load_model checks checkpoints against it.
    Both fill a DanaeModel's layers straight from its rows.
    """
    c = channels
    rows = [(f"enc{i}", ConvSpec(1 if i == 0 else c, c, dilation=d), True)
            for i, d in enumerate(ENCODER_DILATIONS)]
    for i, d in enumerate(DECODER_UP_DILATIONS):
        rows.append((f"std{i}", ConvSpec(c, c), True))
        rows.append((f"up{i}", ConvSpec(c, c, dilation=d, transposed=True), True))
    rows.append((f"std{len(DECODER_UP_DILATIONS)}", ConvSpec(c, 1), False))
    return rows


def build_model(seed: int, channels: int = DEFAULT_CHANNELS) -> DanaeModel:
    """Construct the denoiser with seed-determined initial weights.

    Weights are drawn in forward-execution order from one generator, so a
    seed pins every parameter bit-for-bit. A seed that is not an integer
    >= 0 raises ConfigError.
    """
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    layers = {}
    for name, spec, activate in _architecture(channels):
        # zero-mean uniform with scale 1/sqrt(fan_in), fan_in = in_channels * k
        scale = 1.0 / np.sqrt(spec.in_channels * spec.kernel_size)
        weight = Tensor(rng.uniform(-scale, scale, spec.weight_shape()))
        layers[name] = ConvLayer(spec, weight, Tensor(np.zeros(spec.out_channels)), activate)
    return DanaeModel(layers)


def _run(model: DanaeModel, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """The one forward pass, on a (1, DEFAULT_WINDOW, batch) stack of windows;
    the only description of the skip wiring.

    The layers run in model.layers() order, each on the stream. An enc*
    output is kept as a skip, and a std* layer first adds the oldest unused
    skip to the stream: std0 takes enc0 + enc3, std1 enc1 + up0's output.
    """
    skips = []
    h = x
    for name, layer in model.layers():
        if name.startswith("std"):
            h = add(skips.pop(0), h)
        h = layer(h)
        if name.startswith("enc"):
            skips.append(h)
    return h


def train(model: DanaeModel, windows: WindowSet, cfg: TrainConfig) -> list[float]:
    """Adam-train the model in place; returns the mean loss per epoch.

    An epoch whose mean loss is not finite raises NumericalError naming it:
    the weights have diverged, and every later epoch would be NaN too.
    """
    if len(windows) == 0:
        raise InvalidInputError("cannot train on an empty window set")
    if windows.window_length != DEFAULT_WINDOW:
        raise ShapeError(
            f"windows are {windows.window_length} samples long, the model takes {DEFAULT_WINDOW}"
        )
    params = model.parameters()
    state = AdamState.for_params(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    count = len(windows)
    history = []
    # diverging weights overflow on their way to a NaN loss; the finite-loss
    # check reports that once, where numpy's warnings would read like a crash
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(count)
            total = 0.0
            for start in range(0, count, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                # batches run channel-first with a trailing batch axis: (1, L, b)
                x = Tensor(windows.inputs[batch].T[None, :, :])
                target = windows.targets[batch].T[None, :, :]
                model.zero_grad()
                loss = l2_loss(_run(model, x), target)
                backward(loss)
                adam_step(params, [p.grad for p in params], state)
                total += loss.item() * len(batch)
            mean = total / count
            if not math.isfinite(mean):
                raise NumericalError(f"training diverged: epoch {epoch}'s mean loss is {mean} "
                                     f"(learning rate {cfg.lr})")
            history.append(mean)
    return history


def denoise_series(model: DanaeModel, series: AngleSeries, angle_id) -> AngleSeries:
    """Denoise one angle track of a series; other tracks pass through.

    A DEFAULT_WINDOW-long window slides with stride 1 and every output sample
    is the mean of all window reconstructions that cover it, added in window
    order, so the result is deterministic.

    Each chunk of DENOISE_CHUNK windows runs through the model as a plain
    array, so no autograd graph is built and each layer's output is freed
    once the next layers have read it. The values are bit-identical to a
    graph-building forward. The heap keeps what a chunk frees for the next
    one (tensor_nn raises glibc's trim threshold at import), so the chunk's
    arrays are not faulted in again.
    """
    n = len(series)
    if n < DEFAULT_WINDOW:
        raise InvalidInputError(f"series must have at least {DEFAULT_WINDOW} samples")
    windows = sliding_windows(series.angle(angle_id))
    total = np.zeros(n)
    for lo in range(0, len(windows), DENOISE_CHUNK):
        chunk = windows[lo:lo + DENOISE_CHUNK]
        recon = _run(model, chunk.T[None, :, :])[0]
        # row j is offset j of each window; last row first adds each
        # sample's reconstructions in window order
        for j in reversed(range(DEFAULT_WINDOW)):
            total[lo + j:lo + j + recon.shape[1]] += recon[j]
    counts = np.convolve(np.ones(len(windows)), np.ones(DEFAULT_WINDOW))
    return series.with_angle(angle_id, total / counts)


# ---------------------------------------------------------------------------
# checkpoints

def _layer_meta(name: str, spec: ConvSpec, activate: bool) -> dict:
    # padding is derived, not a field, but checkpoints still record it
    return {"name": name, **asdict(spec), "padding": spec.padding, "activate": activate}


def save_model(path, model: DanaeModel, angle_id=None) -> None:
    """Serialize the model to the package checkpoint format; the angle, given
    by name or index, is recorded by name."""
    meta = {
        "kind": "danae-model",
        "channels": model.channels,
        "window_length": DEFAULT_WINDOW,
        "angle": None if angle_id is None else ANGLE_NAMES[angle_index(angle_id)],
        "layers": [_layer_meta(name, layer.spec, layer.activate)
                   for name, layer in model.layers()],
    }
    arrays: dict[str, np.ndarray] = {}
    for name, layer in model.layers():
        arrays[f"{name}.w"] = layer.weight.data
        arrays[f"{name}.b"] = layer.bias.data
    write_checkpoint(path, meta, arrays)


def load_model(path) -> tuple[DanaeModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, meta).

    The checkpoint's window length must be DEFAULT_WINDOW, its angle null or
    one of ANGLE_NAMES, and its layer list must equal the DANAE architecture
    for its channel count; anything else is a ConfigError naming the file.
    The layers are built from that architecture; only the weights and biases
    come from the file.
    """
    meta, arrays = read_checkpoint(path)
    if meta.get("kind") != "danae-model":
        raise ConfigError(f"{path}: checkpoint does not hold a denoiser model")
    if not (type(meta.get("channels")) is int and meta["channels"] >= 1):
        raise ConfigError(f"{path}: channels must be a positive integer")
    if meta.get("window_length") != DEFAULT_WINDOW:
        raise ConfigError(f"{path}: window_length {meta.get('window_length')!r}, but the "
                          f"denoiser takes {DEFAULT_WINDOW}-sample windows")
    if meta.get("angle") is not None and meta["angle"] not in ANGLE_NAMES:
        raise ConfigError(f"{path}: angle {meta['angle']!r} is none of "
                          f"{', '.join(ANGLE_NAMES)}")
    rows = _architecture(meta["channels"])
    _check_layers(path, meta.get("layers"), [_layer_meta(*row) for row in rows],
                  meta["channels"])
    layers = {}
    for name, spec, activate in rows:
        params = []
        for key, shape in ((f"{name}.w", spec.weight_shape()),
                           (f"{name}.b", (spec.out_channels,))):
            if key not in arrays:
                raise ConfigError(f"{path}: model checkpoint has no array {key!r}")
            if arrays[key].shape != shape:
                raise ShapeError(f"{path}: {key} is {arrays[key].shape}, "
                                 f"layer {name} takes {shape}")
            params.append(Tensor(arrays[key]))
        layers[name] = ConvLayer(spec, *params, activate)
    return DanaeModel(layers), meta


def _check_layers(path, layers, expected: list[dict], channels: int) -> None:
    """Raise ConfigError unless a checkpoint's layer list equals `expected`,
    naming the first layer that differs and each of its differing fields."""
    if layers == expected:
        return
    if not isinstance(layers, list):
        raise ConfigError(f"{path}: model checkpoint has no layer list")
    index = next((i for i, (got, want) in enumerate(zip(layers, expected)) if got != want),
                 None)
    if index is None:
        raise ConfigError(f"{path}: {len(layers)} layers, but the DANAE architecture "
                          f"has {len(expected)}")
    got, want = layers[index], expected[index]
    got = got if isinstance(got, dict) else {}
    diffs = [f"{key} {got[key]!r} (expected {value!r})" if key in got
             else f"no {key} (expected {value!r})"
             for key, value in want.items() if key not in got or got[key] != value]
    diffs += [f"unexpected field {key!r}" for key in got if key not in want]
    raise ConfigError(f"{path}: layer {want['name']} differs from the DANAE architecture "
                      f"for {channels} channels: {', '.join(diffs)}")
