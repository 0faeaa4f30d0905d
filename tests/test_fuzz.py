"""Property tests: the file readers and the dataset loaders let only
DanaeError subclasses escape, whatever bytes or text they are given, so the
CLI maps every bad file to an exit code instead of a traceback. The table
writer gives the reference writer's bytes on any finite table, and what it
writes reads back exactly.

hypothesis is a test-only dependency; without it this module is skipped and
the package still needs numpy alone.
"""

import json
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from danae.danae_model import build_model, load_model, save_model  # noqa: E402
from danae.dataio import (_write_table, load_oxiod, load_ucs,  # noqa: E402
                          read_angle_csv, read_config_file, read_imu_csv, read_table)
from danae.errors import DanaeError  # noqa: E402
from danae.tensor_nn import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, read_checkpoint  # noqa: E402

from helpers import (read_config_reference, read_table_reference,  # noqa: E402
                     write_table_reference)

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
# one UCS row (a series needs two samples), and two with a zero magnetometer
@example(text="0" + ",0" * 12 + "\n")
@example(text="0" + ",1" * 12 + "\n1" + ",0" * 12 + "\n")
def test_table_from_arbitrary_text(input_file, text):
    input_file.write_text(text, encoding="utf-8", newline="")
    _only_danae_errors(lambda path: read_table(path, 4), input_file)
    _only_danae_errors(read_angle_csv, input_file)
    _only_danae_errors(read_imu_csv, input_file)
    _only_danae_errors(load_ucs, input_file)
    _only_danae_errors(lambda path: load_oxiod(path, path), input_file)


def _outcome(read, path):
    """A reader's result as comparable bytes, or its error's class and message."""
    try:
        result = read(path)
    except DanaeError as err:
        return type(err), str(err)
    if isinstance(result, dict):
        return result
    return result.shape, result.dtype, result.tobytes()


def _with_bytes(text):
    # valid text around a few arbitrary bytes, which are often not UTF-8
    return st.tuples(text, st.binary(max_size=3), text).map(
        lambda p: p[0].encode() + p[1] + p[2].encode())


_CSV_BYTES = st.one_of(st.binary(max_size=200), _CSV_TEXT.map(str.encode),
                       _with_bytes(_CSV_TEXT))
_CONFIG_TEXT = st.text(st.sampled_from("ab=#1 \t\r\n"), max_size=60)


@FUZZ
@given(raw=_CSV_BYTES, columns=st.sampled_from([1, 2, 4]))
# a bad cell before a byte that is not UTF-8 and the reverse, both orders
# in one "\n"-ended piece of "\r"-ended lines, and line ends of every kind
@example(raw=b"1,2\nx,2\n\xff\n", columns=2)
@example(raw=b"1,2\n\xff\nx,2\n", columns=2)
@example(raw=b"1,2\rx,2\r\xff\n", columns=2)
@example(raw=b"1,2\r\xff\rx,2\n", columns=2)
@example(raw=b"t,a\r1,2\r\n\r3,4\r", columns=2)
# a byte order mark before a header, before a row and before a bad byte;
# a first row with one bad cell among numbers
@example(raw=b"\xef\xbb\xbft,a\n1,2\n", columns=2)
@example(raw=b"\xef\xbb\xbf1,2\n3,4\n", columns=2)
@example(raw=b"\xef\xbb\xbf\xff\n1,2\n", columns=2)
@example(raw=b"1,x\n3,4\n", columns=2)
# a truncated byte order mark is a bad byte, not an empty file
@example(raw=b"\xef", columns=1)
@example(raw=b"\xef\xbb", columns=1)
def test_table_reader_matches_whole_file_reference(input_file, raw, columns):
    input_file.write_bytes(raw)
    assert (_outcome(lambda path: read_table(path, columns), input_file)
            == _outcome(lambda path: read_table_reference(path, columns), input_file))


@FUZZ
@given(raw=st.one_of(_CONFIG_TEXT.map(str.encode), _with_bytes(_CONFIG_TEXT)))
@example(raw=b"a=1\rb\n\xff")
@example(raw=b"a=1\r\xff\rb\n")
@example(raw=b"a=1\n\xff\nb\n")
@example(raw=b"\xef\xbb\xbfa=1\n\xff\n")
@example(raw=b"\xef")
@example(raw=b"\xef\xbb")
def test_config_reader_matches_whole_file_reference(input_file, raw):
    input_file.write_bytes(raw)
    assert _outcome(read_config_file, input_file) == _outcome(read_config_reference,
                                                             input_file)


def _tables(min_rows):
    """Finite float64 tables of 1 to 5 columns; subnormals and signed zeros
    included."""
    cell = st.floats(allow_nan=False, allow_infinity=False)
    return st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(cell, min_size=cols, max_size=cols), min_size=min_rows, max_size=8,
    ).map(lambda rows: np.array(rows, dtype=float).reshape(-1, cols)))


def _column_names(table):
    return ",".join(f"c{k}" for k in range(table.shape[1]))


_EXTREMES = np.array([[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]])


@FUZZ
@given(table=_tables(min_rows=0))
@example(table=_EXTREMES)
# a loss log: the whole-number epoch column beside the losses
@example(table=np.column_stack([np.arange(1, 4), [0.5, 1e-3, 2.5e-7]]))
@example(table=np.empty((0, 4)))
@example(table=np.array([[1.0], [-2.0]]))
def test_table_writer_matches_reference_writer(input_file, table):
    reference = input_file.with_name("reference")
    _write_table(input_file, _column_names(table), table)
    write_table_reference(reference, _column_names(table), table)
    assert input_file.read_bytes() == reference.read_bytes()


@FUZZ
@given(table=_tables(min_rows=1))
@example(table=_EXTREMES)
def test_table_write_read_round_trip_is_exact(input_file, table):
    _write_table(input_file, _column_names(table), table)
    got = read_table(input_file, table.shape[1])
    assert got.shape == table.shape and got.tobytes() == table.tobytes()
