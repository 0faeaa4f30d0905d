import json
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import danae
from danae.attitude_kf import KfConfig
from danae.danae_model import (
    DEFAULT_WINDOW,
    DENOISE_CHUNK,
    TrainConfig,
    _architecture,
    _run,
    build_model,
    denoise_series,
    load_model,
    save_model,
    train,
)
from danae.dataio import SynthConfig, WindowSet, make_windows, synth_trajectory
from danae.errors import ConfigError, InvalidInputError, NumericalError, ShapeError
from danae.series import AngleSeries
from danae.tensor_nn import (CHECKPOINT_MAGIC, ConvSpec, Tensor, l2_loss, read_checkpoint,
                             write_checkpoint)

from helpers import corrupt_checkpoints
from test_tensor_nn import finite_difference_check

FIXTURES = Path(__file__).parent / "fixtures"


def _fresh_interpreter_count(code, arg):
    """The integer `code` prints when run with `arg` in a new interpreter on
    this checkout, with one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(Path(danae.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return int(subprocess.run([sys.executable, "-c", code, str(arg)], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=120).stdout)


def _params_blob(model):
    return np.concatenate([p.data.reshape(-1) for p in model.parameters()])


class TestBuildModel:
    def test_same_seed_same_parameters(self):
        a = build_model(123, channels=8)
        b = build_model(123, channels=8)
        assert np.array_equal(_params_blob(a), _params_blob(b))

    def test_different_seed_different_parameters(self):
        a = build_model(1, channels=8)
        b = build_model(2, channels=8)
        assert not np.array_equal(_params_blob(a), _params_blob(b))

    def test_parameter_count_from_channel_plan(self):
        # out * (in * 3 + 1) summed over the 11 layers, computed independently
        for c in (4, 128):
            plan = [(1, c)] + [(c, c)] * 3          # encoder
            plan += [(c, c)] * 3                    # transposed stages
            plan += [(c, c)] * 3 + [(c, 1)]         # standard decoder convs
            want = sum(out * (inp * 3 + 1) for inp, out in plan)
            assert build_model(0, channels=c).parameter_count() == want

    def test_shipped_dilation_schedule(self):
        layer = dict(build_model(0, channels=4).layers())
        encoder = [layer[f"enc{i}"] for i in range(4)]
        decoder_up = [layer[f"up{i}"] for i in range(3)]
        decoder_std = [layer[f"std{i}"] for i in range(4)]
        assert [l.spec.dilation for l in encoder] == [1, 2, 4, 8]
        assert [l.spec.padding for l in encoder] == [1, 2, 4, 8]
        assert [l.spec.dilation for l in decoder_up] == [4, 2, 1]
        assert all(l.spec.transposed for l in decoder_up)
        assert [l.spec.dilation for l in decoder_std] == [1, 1, 1, 1]
        assert layer["std3"].spec.out_channels == 1
        assert not layer["std3"].activate

    def test_hidden_width_is_128_by_default(self):
        layer = dict(build_model(0).layers())
        assert layer["enc3"].spec.out_channels == 128

    def test_layer_order_and_checkpoint_header_are_pinned(self, tmp_path):
        model = build_model(0, channels=4)
        names = [name for name, _ in model.layers()]
        assert names == [name for name, _, _ in _architecture(4)]
        assert names == ["enc0", "enc1", "enc2", "enc3", "std0", "up0", "std1", "up1",
                         "std2", "up2", "std3"]
        layer = dict(model.layers())
        params = model.parameters()
        assert len(params) == 2 * len(names)
        for i, name in enumerate(names):
            assert params[2 * i] is layer[name].weight
            assert params[2 * i + 1] is layer[name].bias
        # the JSON header holds no floats, so its bytes do not depend on numpy
        path = tmp_path / "model.ckpt"
        save_model(path, model, angle_id="roll")
        raw = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 12
        _, size = struct.unpack_from("<IQ", raw, len(CHECKPOINT_MAGIC))
        header = json.loads(raw[start:start + size])
        # (name, in, out, dilation, transposed, activate) in forward order
        plan = [("enc0", 1, 4, 1, False, True), ("enc1", 4, 4, 2, False, True),
                ("enc2", 4, 4, 4, False, True), ("enc3", 4, 4, 8, False, True),
                ("std0", 4, 4, 1, False, True), ("up0", 4, 4, 4, True, True),
                ("std1", 4, 4, 1, False, True), ("up1", 4, 4, 2, True, True),
                ("std2", 4, 4, 1, False, True), ("up2", 4, 4, 1, True, True),
                ("std3", 4, 1, 1, False, False)]
        assert header == {
            "arrays": [entry for name, inp, out, *_ in plan
                       for entry in ({"name": f"{name}.w", "shape": [out, inp, 3]},
                                     {"name": f"{name}.b", "shape": [out]})],
            "meta": {
                "angle": "roll", "channels": 4, "kind": "danae-model", "window_length": 20,
                "layers": [{"activate": act, "dilation": d, "in_channels": inp,
                            "kernel_size": 3, "name": name, "out_channels": out,
                            "padding": d, "transposed": tr}
                           for name, inp, out, d, tr, act in plan],
            },
        }

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
    ])
    def test_bad_seed_raises_train_configs_error(self, seed, message):
        # numpy's own ValueError/TypeError used to reach library callers
        for bad in (lambda: build_model(seed, channels=2),
                    lambda: TrainConfig(seed=seed)):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                bad()


def _used_spec(*args, **kwargs):
    spec = ConvSpec(*args, **kwargs)
    return np.zeros(spec.weight_shape())


def _trained(**settings):
    windows = WindowSet(np.zeros((2, DEFAULT_WINDOW)), np.zeros((2, DEFAULT_WINDOW)))
    return train(build_model(0, channels=2), windows, TrainConfig(**settings))


@pytest.mark.parametrize("make, message", [
    (lambda: synth_trajectory(SynthConfig(seed=1.5)), "seed must be an integer, got 1.5"),
    (lambda: synth_trajectory(SynthConfig(duration="5")), "duration must be a number, got '5'"),
    (lambda: _trained(epochs=1.5), "epochs must be an integer, got 1.5"),
    (lambda: _trained(batch_size=2.5), "batch_size must be an integer, got 2.5"),
    (lambda: _trained(lr="0.1"), "lr must be a finite number > 0, got '0.1'"),
    (lambda: _used_spec(2.5, 3), "in_channels must be an integer, got 2.5"),
    (lambda: _used_spec(2, 3, dilation=1.5), "dilation must be an integer, got 1.5"),
    # padding is derived: one passed where it used to go lands in `transposed`
    (lambda: _used_spec(2, 3, 3, 1, 0.5), "transposed must be a bool, got 0.5"),
    (lambda: build_model(0, channels=2.5), "out_channels must be an integer, got 2.5"),
    (lambda: KfConfig(n=2.0), "n must be an integer, got 2.0"),
    # a bool is an int to Python, not a count or a rate to a config
    (lambda: TrainConfig(epochs=True), "epochs must be an integer, got True"),
    (lambda: TrainConfig(lr=True), "lr must be a finite number > 0, got True"),
    (lambda: build_model(True), "seed must be an integer, got True"),
    (lambda: ConvSpec(True, True), "in_channels must be an integer, got True"),
    (lambda: SynthConfig(roll_amp=True), "roll_amp must be a number, got True"),
    (lambda: KfConfig(n=True), "n must be an integer, got True"),
], ids=["synth_seed", "synth_duration", "epochs", "batch_size", "lr", "in_channels",
        "dilation", "padding", "channels", "kf_n", "bool_epochs", "bool_lr", "bool_seed",
        "bool_in_channels", "bool_synth_real", "bool_kf_n"])
def test_setting_of_the_wrong_type_raises_config_error(make, message):
    # each used to reach library callers as a builtin TypeError; a bool
    # used to build
    with pytest.raises(ConfigError, match=f"^{message}$"):
        make()


class TestForward:
    """The graph-building forward pass, _run on a Tensor, on one window: a
    (1, DEFAULT_WINDOW, 1) batch of one."""

    def test_zero_input_gives_finite_window(self):
        model = build_model(3, channels=8)
        y = _run(model, Tensor(np.zeros((1, 20, 1))))
        assert y.data.shape == (1, 20, 1)
        assert np.all(np.isfinite(y.data))

    def test_shape_preserved_for_random_parameters(self):
        rng = np.random.default_rng(0)
        for seed in range(3):
            model = build_model(seed, channels=4)
            y = _run(model, Tensor(rng.normal(size=(1, 20, 1))))
            assert y.data.shape == (1, 20, 1)

    def test_all_zero_parameters_give_zero_output(self):
        model = build_model(0, channels=4)
        for p in model.parameters():
            p.data[:] = 0.0
        y = _run(model, Tensor(np.ones((1, 20, 1))))
        assert np.array_equal(y.data, np.zeros((1, 20, 1)))

    def test_purity_same_input_same_output(self):
        model = build_model(5, channels=8)
        x = np.random.default_rng(1).normal(size=(1, 20, 1))
        assert np.array_equal(_run(model, Tensor(x)).data, _run(model, Tensor(x)).data)

    def test_wrong_shape_rejected(self):
        # two channels, and an unbatched (channels, length) window
        model = build_model(0, channels=4)
        with pytest.raises(ShapeError):
            _run(model, Tensor(np.zeros((2, 20, 1))))
        with pytest.raises(ShapeError):
            _run(model, Tensor(np.zeros((1, 20))))

    @pytest.mark.parametrize("channels", [2, 4])
    def test_toy_model_end_to_end_gradients(self, channels):
        rng = np.random.default_rng(200 + channels)
        model = build_model(7, channels=channels)
        x = Tensor(rng.normal(size=(1, 20, 1)))
        target = rng.normal(size=(1, 20, 1))

        def build():
            return l2_loss(_run(model, x), target)

        finite_difference_check(build, model.parameters(), rng,
                                coords_per_param=4)


def _toy_windows(rng, count=24, length=20, noise=0.0):
    base = np.sin(np.linspace(0, 2 * np.pi, length)) * 0.3
    targets = np.tile(base, (count, 1)) + 0.05 * rng.normal(size=(count, length)) * 0
    shifts = rng.uniform(-0.2, 0.2, size=(count, 1))
    targets = targets + shifts
    inputs = targets + noise * rng.normal(size=(count, length))
    return WindowSet(inputs, targets)


class TestTrain:
    def test_empty_window_set_rejected(self):
        model = build_model(0, channels=4)
        empty = WindowSet(np.empty((0, 20)), np.empty((0, 20)))
        with pytest.raises(InvalidInputError):
            train(model, empty, TrainConfig(epochs=1))

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("lr", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_lr_rejected_before_any_step(self, lr):
        rng = np.random.default_rng(31)
        model = build_model(2, channels=4)
        before = _params_blob(model)
        with pytest.raises(ConfigError, match="lr must be a finite number > 0"):
            train(model, _toy_windows(rng), TrainConfig(epochs=3, lr=lr, seed=0))
        assert np.array_equal(_params_blob(model), before)

    def test_loss_decreases_on_noisy_task(self):
        rng = np.random.default_rng(32)
        model = build_model(3, channels=8)
        history = train(model, _toy_windows(rng, noise=0.05),
                        TrainConfig(epochs=8, seed=1))
        assert history[-1] < history[0]

    def test_single_window_memorization(self):
        # one repeated window, 200 optimizer steps -> loss below 1e-3
        rng = np.random.default_rng(33)
        window = 0.3 * np.sin(np.linspace(0, 3.0, 20))[None, :]
        windows = WindowSet(window, window)
        model = build_model(4)
        history = train(model, windows, TrainConfig(epochs=200, seed=0))
        assert history[-1] < 1e-3

    def test_fixed_seed_reproduces_loss_curve(self):
        rng = np.random.default_rng(34)
        windows = _toy_windows(rng, noise=0.05)
        h1 = train(build_model(9, channels=8), windows, TrainConfig(epochs=4, seed=5))
        h2 = train(build_model(9, channels=8), windows, TrainConfig(epochs=4, seed=5))
        assert h1 == h2

    def test_divergence_raises_naming_the_epoch(self):
        # at lr 1e200 the first Adam step throws the weights past float range;
        # train used to return [nan, nan] here
        rng = np.random.default_rng(35)
        with np.errstate(all="ignore"), \
                pytest.raises(NumericalError, match="diverged: epoch 1's mean loss is nan"):
            train(build_model(0, channels=4), _toy_windows(rng),
                  TrainConfig(epochs=2, lr=1e200))

    def test_window_length_mismatch_rejected(self):
        model = build_model(0, channels=4)
        bad = WindowSet(np.zeros((4, 10)), np.zeros((4, 10)))
        with pytest.raises(ShapeError):
            train(model, bad, TrainConfig(epochs=1))

    def test_peak_memory_of_two_batches(self):
        # each rectifier's graph node keeps a 1-byte mask of its input, not
        # a float64 slope array (328 kB per layer at batch 16); each conv
        # output is rectified in place, so a layer's graph keeps one value
        # array, not two; and backward consumes the graph, freeing a batch's
        # activations while its gradients are built. Two batches of the
        # 128-channel model peaked at 37.7 MB with the slopes, 32.0 MB with
        # the masks, 24.1 MB once backward freed intermediate gradients,
        # 17.9 MB with the in-place rectifier and 14.1 MB with the consumed
        # graph
        rng = np.random.default_rng(15)
        windows = WindowSet(rng.normal(size=(32, 20)), rng.normal(size=(32, 20)))
        model = build_model(3)
        tracemalloc.start()
        try:
            train(model, windows, TrainConfig(epochs=1, batch_size=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts glibc's minor page faults")
    def test_no_page_faults_per_batch(self):
        # backward frees each batch's graph, several MB at once; glibc handed
        # that heap top back to the kernel and the next batch faulted it in
        # again, unless the trim threshold was raised first. 20 extra
        # batches (32 -> 352 windows) added 6.6k minor faults while the graph
        # lived on into the next batch, 15.4k with it freed in backward alone,
        # and none (3 797 -> 3 800) with tensor_nn's 8 MB block freed at
        # import. A fresh interpreter has glibc's default thresholds.
        code = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from danae.danae_model import TrainConfig, build_model, train
            from danae.dataio import WindowSet
            n = int(sys.argv[1])
            rng = np.random.default_rng(15)
            windows = WindowSet(rng.normal(size=(n, 20)), rng.normal(size=(n, 20)))
            model = build_model(3)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(model, windows, TrainConfig(epochs=1, batch_size=16))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        faults = [_fresh_interpreter_count(code, n) for n in (32, 352)]
        assert faults[1] - faults[0] < 2_000, faults

    def test_graph_holds_no_pre_activation_array(self):
        # the rectifier node shares its conv node's buffer, so no graph node
        # keeps a conv output that is not also the rectified value
        model = build_model(3)
        x = Tensor(np.random.default_rng(16).normal(size=(1, DEFAULT_WINDOW, 16)))
        nodes, stack = {}, [_run(model, x)]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        weights = {id(layer.weight) for _, layer in model.layers()}
        convs = {id(n) for n in nodes.values()
                 if any(id(p) in weights for p in n._parents)}
        rectifiers = [n for n in nodes.values()
                      if len(n._parents) == 1 and id(n._parents[0]) in convs]
        assert len(convs) == 11
        assert len(rectifiers) == 10
        for node in rectifiers:
            assert node.data.shape == (128, DEFAULT_WINDOW, 16)
            assert np.shares_memory(node.data, node._parents[0].data)


def _graph_denoise(model, series, angle_id, chunk_size=256):
    """denoise_series as it was with a Tensor input: every chunk builds
    and holds an autograd graph."""
    length = DEFAULT_WINDOW
    n = len(series)
    starts = np.arange(n - length + 1)
    index = starts[:, None] + np.arange(length)
    windows = series.angle(angle_id)[index]
    total = np.zeros(n)
    counts = np.zeros(n)
    np.add.at(counts, index, 1.0)
    for lo in range(0, len(windows), chunk_size):
        part = slice(lo, lo + chunk_size)
        recon = _run(model, Tensor(windows[part].T[None, :, :])).data[0].T
        np.add.at(total, index[part], recon)
    return total / counts


class TestDenoiseSeries:
    @pytest.mark.parametrize("channels, n, ref_chunk",
                             [(8, 600, 256), (128, 100, DENOISE_CHUNK)],
                             ids=["8-600", "128-100"])
    def test_bit_equal_to_graph_building_forward(self, channels, n, ref_chunk):
        rng = np.random.default_rng(12)
        model = build_model(5, channels=channels)
        # 8 channels, 581 windows: nineteen DENOISE_CHUNK chunks here and
        # three 256-window chunks in the reference, the last of each short.
        # The shipped 128 channels, 81 windows: three DENOISE_CHUNK chunks,
        # the last short, on both paths; at this width a multi-threaded BLAS
        # rounds a product differently for another batch width
        series = AngleSeries(np.arange(n) * 0.01, rng.normal(size=(n, 3)) * 0.3)
        out = denoise_series(model, series, "pitch")
        ref = _graph_denoise(model, series, "pitch", chunk_size=ref_chunk)
        assert out.pitch.tobytes() == ref.tobytes()

    def test_holds_no_graph(self):
        # the graph of a chunk keeps every layer's input, padded copy and
        # rectifier mask alive; without it the peak is the live activations only
        model = build_model(3, channels=16)
        n = 1200
        series = AngleSeries(np.arange(n) * 0.01,
                             np.random.default_rng(13).normal(size=(n, 3)))
        tracemalloc.start()
        try:
            _graph_denoise(model, series, "roll")
            graph_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            denoise_series(model, series, "roll")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * graph_peak, (peak, graph_peak)

    def test_peak_memory_is_one_small_chunk(self):
        # one 32-window chunk of the 128-channel model holds 655 kB per
        # 128-channel array: the four skips and the few decoder arrays live
        # at once, each freed when the chunk is done (5.3 MB). A 256-window
        # chunk put the peak near 48 MB, twelve buffers kept for the call at
        # 9.5 MB, and six kept buffers shared by liveness at 6.2 MB
        model = build_model(3)
        n = 1300
        series = AngleSeries(np.arange(n) * 0.01,
                             np.random.default_rng(14).normal(size=(n, 3)))
        tracemalloc.start()
        try:
            denoise_series(model, series, "roll")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts glibc's minor page faults")
    def test_no_page_faults_per_chunk(self):
        # freeing each chunk's layer outputs let glibc hand them back to the
        # kernel and fault them in again for the next chunk: 1 300 -> 3 000
        # samples added 79k minor faults. tensor_nn's 8 MB block, freed at
        # import, raises glibc's trim threshold so the heap keeps them, and
        # the longer series adds almost none (1 471 -> 1 473), as it did
        # with the outputs kept in buffers for the call. A fresh interpreter
        # has glibc's default thresholds, which the test process's earlier
        # work has raised.
        code = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from danae.danae_model import build_model, denoise_series
            from danae.series import AngleSeries
            n = int(sys.argv[1])
            series = AngleSeries(np.arange(n) * 0.01,
                                 np.random.default_rng(14).normal(size=(n, 3)))
            model = build_model(3)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            denoise_series(model, series, "roll")
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        faults = [_fresh_interpreter_count(code, n) for n in (1300, 3000)]
        assert faults[1] - faults[0] < 20_000, faults

    def test_constant_series_interior_output_constant(self):
        # every window is identical, so every sample covered by all 20
        # offsets averages to the same value; the first/last 19 samples see
        # only partial coverage and may deviate
        model = build_model(6, channels=4)
        n = 60
        series = AngleSeries(np.arange(n) * 0.01,
                             np.column_stack([np.full(n, 0.4), np.zeros(n), np.zeros(n)]))
        out = denoise_series(model, series, "roll")
        assert len(out) == n
        interior = out.roll[19:n - 19]
        assert np.max(np.abs(np.diff(interior))) < 1e-12
        # untouched channels pass through
        assert np.array_equal(out.pitch, series.pitch)

    def test_exact_window_equals_single_forward(self):
        model = build_model(8, channels=4)
        rng = np.random.default_rng(3)
        track = rng.normal(size=20)
        series = AngleSeries(np.arange(20) * 0.01,
                             np.column_stack([track, np.zeros(20), np.zeros(20)]))
        stitched = denoise_series(model, series, "roll").roll
        direct = _run(model, Tensor(track[None, :, None])).data[0, :, 0]
        assert np.allclose(stitched, direct, atol=1e-12)

    def test_short_series_rejected(self):
        model = build_model(0, channels=4)
        series = AngleSeries(np.arange(10) * 0.01, np.zeros((10, 3)))
        with pytest.raises(InvalidInputError):
            denoise_series(model, series, "roll")

    def test_output_length_matches_input(self):
        model = build_model(1, channels=4)
        rng = np.random.default_rng(4)
        n = 83
        series = AngleSeries(np.arange(n) * 0.01, rng.normal(size=(n, 3)) * 0.1)
        assert len(denoise_series(model, series, "pitch")) == n


class TestSaveLoad:
    def test_round_trip_preserves_denoise_output(self, tmp_path):
        rng = np.random.default_rng(41)
        model = build_model(11, channels=8)
        windows = _toy_windows(rng, noise=0.05)
        train(model, windows, TrainConfig(epochs=2, seed=2))
        path = tmp_path / "model.ckpt"
        save_model(path, model, angle_id="roll")

        loaded, meta = load_model(path)
        assert meta["angle"] == "roll"
        assert meta["channels"] == 8
        n = 50
        series = AngleSeries(np.arange(n) * 0.01,
                             np.random.default_rng(5).normal(size=(n, 3)) * 0.2)
        assert np.array_equal(denoise_series(model, series, "roll").roll,
                              denoise_series(loaded, series, "roll").roll)

    def test_angle_recorded_by_name(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(path, build_model(0, channels=4), angle_id=1)
        assert load_model(path)[1]["angle"] == "pitch"

    def test_checkpoint_bytes_match_the_checked_in_fixture(self, tmp_path):
        # model_4ch.ckpt is save_model's output at an earlier commit
        # (tests/fixtures/generate_fixtures.py): saving the same model, and
        # loading the fixture and saving it again, must still give its bytes
        want = (FIXTURES / "model_4ch.ckpt").read_bytes()
        path = tmp_path / "model.ckpt"
        save_model(path, build_model(7, channels=4), angle_id="roll")
        assert path.read_bytes() == want
        model, meta = load_model(FIXTURES / "model_4ch.ckpt")
        save_model(path, model, angle_id=meta["angle"])
        assert path.read_bytes() == want

    def test_wrong_kind_rejected(self, tmp_path):
        from danae.tensor_nn import write_checkpoint
        path = tmp_path / "other.ckpt"
        write_checkpoint(path, {"kind": "something-else"}, {})
        with pytest.raises(ConfigError):
            load_model(path)

    def test_corrupt_checkpoints_rejected(self, tmp_path):
        good = tmp_path / "good.ckpt"
        save_model(good, build_model(0, channels=4), angle_id="roll")
        for path, error in corrupt_checkpoints(good, tmp_path).values():
            with pytest.raises(error):
                load_model(path)

    @pytest.mark.parametrize("case, message", [
        ("enc1_w_one_tap", r"enc1\.w is \(4, 4, 1\), layer enc1 takes \(4, 4, 3\)"),
        ("std3_b_two", r"std3\.b is \(2,\), layer std3 takes \(1,\)"),
    ], ids=["enc1_w_one_tap", "std3_b_two"])
    def test_array_shape_mismatch_names_array_and_shapes(self, tmp_path, case, message):
        good = tmp_path / "good.ckpt"
        save_model(good, build_model(0, channels=4), angle_id="roll")
        path, _ = corrupt_checkpoints(good, tmp_path)[case]
        with pytest.raises(ShapeError, match=f"{case}.ckpt: {message}$"):
            load_model(path)

    @pytest.mark.parametrize("case, layer", [
        ("enc1_padding_0", "enc1"), ("enc2_dilation_2", "enc2"),
        ("std3_activated", "std3"), ("channels_too_wide", "enc0"),
    ])
    def test_architecture_mismatch_names_file_and_layer(self, tmp_path, case, layer):
        good = tmp_path / "good.ckpt"
        save_model(good, build_model(0, channels=4), angle_id="roll")
        path, _ = corrupt_checkpoints(good, tmp_path)[case]
        with pytest.raises(ConfigError, match=f"{case}.ckpt: layer {layer} differs"):
            load_model(path)


def _rewired(meta, arrays, name, **fields):
    """meta/arrays with one layer's channel fields changed and its arrays
    resized to match."""
    layers = [{**l, **fields} if l["name"] == name else l for l in meta["layers"]]
    entry = next(l for l in layers if l["name"] == name)
    spec = ConvSpec(entry["in_channels"], entry["out_channels"], entry["kernel_size"],
                    transposed=entry["transposed"])
    return ({**meta, "layers": layers},
            {**arrays, f"{name}.w": np.zeros(spec.weight_shape()),
             f"{name}.b": np.zeros(spec.out_channels)})


class TestChannelChain:
    # `defect` says how each case breaks the channel chain; the error names
    # the first layer whose entry differs from the architecture, and its field
    @pytest.mark.parametrize("changes, defect", [
        ([("enc0", {"in_channels": 2})], "layer enc0 takes 2 channels but is fed 1"),
        ([("std1", {"in_channels": 3})], "layer std1 takes 3 channels but is fed 4"),
        ([("enc0", {"out_channels": 3}), ("enc1", {"in_channels": 3})],
         "layer std0 sums 3 channels from enc0 with 4 channels"),
        ([("std3", {"out_channels": 2})], "layer std3 outputs 2 channels, not 1"),
    ])
    def test_mismatch_names_file_and_layer(self, tmp_path, changes, defect):
        good = tmp_path / "good.ckpt"
        save_model(good, build_model(0, channels=4), angle_id="roll")
        meta, arrays = read_checkpoint(good)
        name, fields = changes[0]
        (field, value), = fields.items()
        want = next(l for l in meta["layers"] if l["name"] == name)[field]
        for layer, layer_fields in changes:
            meta, arrays = _rewired(meta, arrays, layer, **layer_fields)
        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, meta, arrays)
        with pytest.raises(ConfigError, match=rf"bad.ckpt: layer {name} differs .*: "
                                              rf"{field} {value} \(expected {want}\)$"):
            load_model(path)


class TestEndToEndNoiseless:
    def test_identity_task_reaches_low_rmse(self):
        # no noise: the filter output equals the target, the model must learn
        # to reproduce its input closely
        from danae.attitude_kf import run_kf
        imu, gt = synth_trajectory(SynthConfig(
            duration=12.0, gyro_noise=0.0, gyro_bias=0.0,
            accel_noise=0.0, mag_noise=0.0, seed=10))
        kf = run_kf(imu)
        windows = make_windows(kf, gt, "roll", stride=6)
        model = build_model(0, channels=16)
        history = train(model, windows, TrainConfig(epochs=30, seed=0))
        assert history[-1] < history[0]
        out = denoise_series(model, kf, "roll")
        rmse = float(np.sqrt(np.mean((out.roll - kf.roll) ** 2)))
        assert rmse < 0.02
