"""The DANAE denoiser: a dilated convolutional encoder/decoder over
fixed-length windows of one Euler-angle track, plus training and
whole-series inference.

Architecture (window length 20, 128 channels in the shipped build):

    encoder   enc1..enc4   standard dilated convs, dilations 1,2,4,8
    decoder   std1, up1, std2, up2, std3, up3, std4
              up*  = transposed dilated convs, dilations 4,2,1
              std* = standard convs, dilation 1; std4 maps back to 1 channel
    skip rule std_i consumes enc_i's output summed with the decoder stream

Every layer pads to preserve the window length (padding = dilation for the
dilated layers), so all skip sums are shape-aligned. Hidden layers use the
leaky rectifier; the final conv is linear because angles are unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import WindowSet
from .errors import ConfigError, InvalidInputError, ShapeError
from .series import AngleSeries
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
    "forward",
    "train",
    "denoise_series",
    "save_model",
    "load_model",
]

DEFAULT_CHANNELS = 128
DEFAULT_WINDOW = 20
ENCODER_DILATIONS = (1, 2, 4, 8)
DECODER_UP_DILATIONS = (4, 2, 1)


@dataclass
class ConvLayer:
    """One convolution plus its optional activation."""

    spec: ConvSpec
    weight: Tensor
    bias: Tensor
    activate: bool = True

    def __call__(self, x: Tensor) -> Tensor:
        op = conv1d_transposed if self.spec.transposed else conv1d
        y = op(x, self.weight, self.bias, self.spec)
        return activation(y) if self.activate else y


@dataclass
class DanaeModel:
    """Parameter container; see the module docstring for the wiring."""

    encoder: list[ConvLayer]
    decoder_up: list[ConvLayer]
    decoder_std: list[ConvLayer]
    channels: int = DEFAULT_CHANNELS
    window_length: int = DEFAULT_WINDOW

    def layers(self) -> list[tuple[str, ConvLayer]]:
        """(name, layer) pairs in forward-execution order."""
        named = [(f"enc{i}", l) for i, l in enumerate(self.encoder)]
        for i, std in enumerate(self.decoder_std):
            named.append((f"std{i}", std))
            if i < len(self.decoder_up):
                named.append((f"up{i}", self.decoder_up[i]))
        return named

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
    """Knobs for train(); the shipped architecture fixes the window at 20."""

    epochs: int = 50
    seed: int = 0
    window_length: int = DEFAULT_WINDOW
    batch_size: int = 16
    lr: float = 0.002
    shuffle: bool = True

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.window_length < 1:
            raise ConfigError("window_length must be >= 1")


def _init_layer(rng: np.random.Generator, spec: ConvSpec, activate: bool) -> ConvLayer:
    # zero-mean uniform with scale 1/sqrt(fan_in), fan_in = in_channels * k
    scale = 1.0 / np.sqrt(spec.in_channels * spec.kernel_size)
    weight = Tensor(rng.uniform(-scale, scale, spec.weight_shape()))
    bias = Tensor(np.zeros(spec.out_channels))
    return ConvLayer(spec, weight, bias, activate)


def build_model(seed: int, channels: int = DEFAULT_CHANNELS,
                window_length: int = DEFAULT_WINDOW) -> DanaeModel:
    """Construct the denoiser with seed-determined initial weights.

    Weights are drawn in forward-execution order from one generator, so a
    seed pins every parameter bit-for-bit.
    """
    c = channels
    rng = np.random.default_rng(seed)
    enc_specs = [
        ConvSpec(1 if i == 0 else c, c, dilation=d, padding=d)
        for i, d in enumerate(ENCODER_DILATIONS)
    ]
    up_specs = [
        ConvSpec(c, c, dilation=d, padding=d, transposed=True)
        for d in DECODER_UP_DILATIONS
    ]
    std_specs = [ConvSpec(c, c, dilation=1, padding=1) for _ in range(3)]
    std_specs.append(ConvSpec(c, 1, dilation=1, padding=1))

    encoder = [_init_layer(rng, s, True) for s in enc_specs]
    decoder_std: list[ConvLayer] = []
    decoder_up: list[ConvLayer] = []
    for i in range(4):
        decoder_std.append(_init_layer(rng, std_specs[i], activate=i < 3))
        if i < 3:
            decoder_up.append(_init_layer(rng, up_specs[i], True))
    return DanaeModel(encoder, decoder_up, decoder_std, c, window_length)


def _run(model: DanaeModel, x: Tensor) -> Tensor:
    skips = []
    h = x
    for layer in model.encoder:
        h = layer(h)
        skips.append(h)
    d = skips[-1]
    for i, std in enumerate(model.decoder_std):
        d = std(add(skips[i], d))
        if i < len(model.decoder_up):
            d = model.decoder_up[i](d)
    return d


def forward(model: DanaeModel, window) -> Tensor:
    """Reconstruct one (1, window_length) window."""
    x = window if isinstance(window, Tensor) else Tensor(window)
    if x.data.shape != (1, model.window_length):
        raise ShapeError(
            f"expected shape (1, {model.window_length}), got {x.data.shape}"
        )
    return _run(model, x)


def train(model: DanaeModel, windows: WindowSet, cfg: TrainConfig) -> list[float]:
    """Adam-train the model in place; returns the mean loss per epoch."""
    cfg.validate()
    if len(windows) == 0:
        raise InvalidInputError("cannot train on an empty window set")
    if windows.window_length != model.window_length or cfg.window_length != model.window_length:
        raise ShapeError(
            f"window length mismatch: data {windows.window_length}, "
            f"config {cfg.window_length}, model {model.window_length}"
        )
    params = model.parameters()
    state = AdamState.for_params(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    count = len(windows)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(count) if cfg.shuffle else np.arange(count)
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
        history.append(total / count)
    return history


def denoise_series(model: DanaeModel, series: AngleSeries, angle_id="roll",
                   chunk_size: int = 256) -> AngleSeries:
    """Denoise one angle track of a series; other tracks pass through.

    A window slides with stride 1 and every output sample is the mean of all
    window reconstructions that cover it. Windows are processed in order and
    accumulated in order, so the result is deterministic.
    """
    length = model.window_length
    n = len(series)
    if n < length:
        raise InvalidInputError(f"series must have at least {length} samples")
    track = series.angle(angle_id)
    starts = np.arange(n - length + 1)
    offsets = np.arange(length)
    windows = track[starts[:, None] + offsets]
    total = np.zeros(n)
    counts = np.zeros(n)
    np.add.at(counts, starts[:, None] + offsets, 1.0)
    for lo in range(0, len(windows), chunk_size):
        part = slice(lo, min(lo + chunk_size, len(windows)))
        recon = _run(model, Tensor(windows[part].T[None, :, :])).data[0].T
        np.add.at(total, starts[part, None] + offsets, recon)
    return series.with_angle(angle_id, total / counts)


# ---------------------------------------------------------------------------
# checkpoints

def _layer_meta(name: str, layer: ConvLayer) -> dict:
    s = layer.spec
    return {
        "name": name,
        "in_channels": s.in_channels,
        "out_channels": s.out_channels,
        "kernel_size": s.kernel_size,
        "dilation": s.dilation,
        "padding": s.padding,
        "transposed": s.transposed,
        "activate": layer.activate,
    }


def save_model(path, model: DanaeModel, angle_id: str | None = None) -> None:
    """Serialize the model to the package checkpoint format."""
    meta = {
        "kind": "danae-model",
        "channels": model.channels,
        "window_length": model.window_length,
        "angle": angle_id,
        "layers": [_layer_meta(name, layer) for name, layer in model.layers()],
    }
    arrays: dict[str, np.ndarray] = {}
    for name, layer in model.layers():
        arrays[f"{name}.w"] = layer.weight.data
        arrays[f"{name}.b"] = layer.bias.data
    write_checkpoint(path, meta, arrays)


def load_model(path) -> tuple[DanaeModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, meta)."""
    meta, arrays = read_checkpoint(path)
    if meta.get("kind") != "danae-model":
        raise ConfigError(f"{path}: checkpoint does not hold a denoiser model")
    groups: dict[str, list[ConvLayer]] = {"enc": [], "std": [], "up": []}
    names = []
    try:
        for entry in meta["layers"]:
            spec = ConvSpec(
                entry["in_channels"], entry["out_channels"], entry["kernel_size"],
                dilation=entry["dilation"], padding=entry["padding"],
                transposed=entry["transposed"],
            )
            name = entry["name"]
            if not isinstance(name, str) or name.rstrip("0123456789") not in groups:
                raise ConfigError(f"{path}: unknown layer name {name!r}")
            weight = arrays[f"{name}.w"]
            bias = arrays[f"{name}.b"]
            if weight.shape != spec.weight_shape() or bias.shape != (spec.out_channels,):
                raise ShapeError(f"{path}: array shapes disagree with layer {name}")
            layer = ConvLayer(spec, Tensor(weight), Tensor(bias), entry["activate"])
            groups[name.rstrip("0123456789")].append(layer)
            names.append(name)
        if not all(type(meta[key]) is int and meta[key] >= 1
                   for key in ("channels", "window_length")):
            raise ConfigError(f"{path}: channels and window_length must be positive integers")
        model = DanaeModel(groups["enc"], groups["up"], groups["std"],
                           meta["channels"], meta["window_length"])
    except KeyError as err:
        raise ConfigError(f"{path}: model checkpoint has no {err}") from None
    except TypeError as err:
        raise ConfigError(f"{path}: malformed model checkpoint: {err}") from None
    counts = (len(model.encoder), len(model.decoder_up), len(model.decoder_std))
    wiring = (len(ENCODER_DILATIONS), len(DECODER_UP_DILATIONS),
              len(DECODER_UP_DILATIONS) + 1)
    if counts != wiring or names != [name for name, _ in model.layers()]:
        raise ConfigError(
            f"{path}: layers {names} do not follow the DANAE wiring of "
            f"{wiring[0]} enc, {wiring[1]} up and {wiring[2]} std layers"
        )
    return model, meta
