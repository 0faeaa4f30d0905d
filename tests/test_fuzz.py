"""Property tests: the file readers let only DanaeError subclasses escape,
whatever bytes or text they are given, so the CLI maps every bad file to an
exit code instead of a traceback.

hypothesis is a test-only dependency; without it this module is skipped and
the package still needs numpy alone.
"""

import json
import struct

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from danae.danae_model import build_model, load_model, save_model  # noqa: E402
from danae.dataio import read_angle_csv, read_imu_csv, read_table  # noqa: E402
from danae.errors import DanaeError  # noqa: E402
from danae.tensor_nn import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, read_checkpoint  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# magic and version, so the bytes after them reach the header parser
PREFIX = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)


def _header(blob: bytes) -> bytes:
    return PREFIX + struct.pack("<Q", len(blob)) + blob


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid") / "model.ckpt"
    save_model(path, build_model(0, channels=1), angle_id="roll")
    return path.read_bytes()


def _only_danae_errors(read, path):
    try:
        read(path)
    except DanaeError:
        pass


@FUZZ
@given(raw=st.one_of(st.binary(max_size=256), st.binary(max_size=256).map(PREFIX.__add__)))
# JSON nested past the recursion limit, and an integer past the digit limit
@example(raw=_header(b"[" * 100_000))
@example(raw=_header(b'{"meta": {}, "arrays": [], "n": ' + b"1" * 5000 + b"}"))
def test_checkpoint_from_arbitrary_bytes(input_file, raw):
    input_file.write_bytes(raw)
    _only_danae_errors(read_checkpoint, input_file)


_SHAPES = st.lists(st.one_of(st.integers(0, 3), st.integers(-2, 2**70)), max_size=70)
_ENTRIES = st.lists(st.fixed_dictionaries({"name": st.text(max_size=3), "shape": _SHAPES}),
                    max_size=3)


@FUZZ
@given(arrays=_ENTRIES, payload=st.binary(max_size=64))
# empty arrays claiming a dimension numpy cannot index, or more than 64 axes
@example(arrays=[{"name": "a", "shape": [0, 2**70]}], payload=b"")
@example(arrays=[{"name": "a", "shape": [1] * 70}], payload=b"\0" * 8)
def test_checkpoint_with_arbitrary_array_entries(input_file, arrays, payload):
    blob = json.dumps({"meta": {}, "arrays": arrays}).encode()
    input_file.write_bytes(_header(blob) + payload)
    _only_danae_errors(read_checkpoint, input_file)


@FUZZ
@given(data=st.data())
def test_mutated_valid_checkpoint(input_file, valid_checkpoint, data):
    raw = bytearray(valid_checkpoint)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] = data.draw(st.integers(0, 255))
    raw = raw[:data.draw(st.integers(0, len(raw)))]
    input_file.write_bytes(bytes(raw))
    _only_danae_errors(read_checkpoint, input_file)
    _only_danae_errors(load_model, input_file)


_CSV_TEXT = st.one_of(st.text(max_size=200),
                      st.text(st.sampled_from("0123456789.,-+eEinfatxyz_ \t\r\n"),
                              max_size=200))


@FUZZ
@given(text=_CSV_TEXT)
def test_table_from_arbitrary_text(input_file, text):
    input_file.write_text(text, encoding="utf-8", newline="")
    _only_danae_errors(read_table, input_file)
    _only_danae_errors(read_angle_csv, input_file)
    _only_danae_errors(read_imu_csv, input_file)
