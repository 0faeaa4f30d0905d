"""Layer microbenchmark of the denoiser, run in a fresh interpreter.

Usage: python3 perfbench/layer_bench.py <seed>

Times every layer of ``build_model(seed)`` through the public tensor_nn
functions: forward (conv1d or conv1d_transposed, then activation) at the
training batch (16, the TrainConfig default) and at the inference chunk
(256 windows, the denoise_series default), backward at batch 16, one
``adam_step`` over all parameters, and an f64 GEMM in the same process as
the peak to compare with. Every time is the median of several repetitions.
Operation counts are computed from the layer shapes, not measured: a
forward conv is 2*O*I*k*T*B, a backward one twice that (input and weight
gradients). Prints one JSON object of metrics.
"""

import json
import statistics
import sys
import time

import numpy as np

from danae.danae_model import DEFAULT_WINDOW, build_model
from danae.tensor_nn import (AdamState, Tensor, activation, adam_step, backward,
                             conv1d, conv1d_transposed, l2_loss)

TRAIN_BATCH = 16  # TrainConfig.batch_size default
CHUNK = 256  # denoise_series chunk_size default
REPS = {TRAIN_BATCH: 15, CHUNK: 5}
ADAM_REPS = 15
GEMM_SHAPE = (128, 384, 320)  # (M, K, N): a 128-channel k=3 conv at T*B=320
GEMM_REPS = 50


def median_time(fn, reps, prepare=None):
    times = []
    for _ in range(reps):
        arg = prepare() if prepare is not None else None
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def forward(layer, x):
    op = conv1d_transposed if layer.spec.transposed else conv1d
    y = op(x, layer.weight, layer.bias, layer.spec)
    return activation(y) if layer.activate else y


def main() -> None:
    seed = int(sys.argv[1])
    rng = np.random.default_rng(seed)
    model = build_model(seed)
    length = DEFAULT_WINDOW
    metrics = {}
    flops = {"fwd_b16": 0.0, "bwd_b16": 0.0, "fwd_b256": 0.0}
    secs = dict.fromkeys(flops, 0.0)
    for name, layer in model.layers():
        spec = layer.spec
        layer_flops = 2 * spec.out_channels * spec.in_channels * spec.kernel_size * length
        for batch in (TRAIN_BATCH, CHUNK):
            x = Tensor(rng.normal(size=(spec.in_channels, length, batch)))
            t = median_time(lambda _: forward(layer, x), REPS[batch])
            metrics[f"tensor_nn.{name}.fwd_b{batch}_ms"] = t * 1e3
            flops[f"fwd_b{batch}"] += layer_flops * batch
            secs[f"fwd_b{batch}"] += t
        x = Tensor(rng.normal(size=(spec.in_channels, length, TRAIN_BATCH)))
        target = rng.normal(size=(spec.out_channels, length, TRAIN_BATCH))

        def graph():
            model.zero_grad()
            x.zero_grad()
            return l2_loss(forward(layer, x), target)

        t = median_time(backward, REPS[TRAIN_BATCH], prepare=graph)
        metrics[f"tensor_nn.{name}.bwd_b{TRAIN_BATCH}_ms"] = t * 1e3
        flops["bwd_b16"] += 2 * layer_flops * TRAIN_BATCH
        secs["bwd_b16"] += t
    for key in flops:
        metrics[f"tensor_nn.{key}_gflops"] = flops[key] / secs[key] / 1e9

    params = model.parameters()
    grads = [rng.normal(size=p.data.shape) * 1e-3 for p in params]
    state = AdamState.for_params(params)
    t = median_time(lambda _: adam_step(params, grads, state), ADAM_REPS)
    metrics["tensor_nn.adam_step_ms"] = t * 1e3

    m, k, n = GEMM_SHAPE
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    t = median_time(lambda _: a @ b, GEMM_REPS)
    metrics["tensor_nn.gemm_peak_gflops"] = 2 * m * k * n / t / 1e9
    print(json.dumps({"layers": len(model.layers()), "parameters": model.parameter_count(),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
