"""Every file layout the package reads and writes, pinned byte for byte.

The golden files are literals, not the writers' output of another run, so a
change to a writer that alters one byte fails here. The error corpus pins the
type, byte offset and message of each malformed file a reader rejects.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from dcom.cli import cli_dispatch
from dcom.data import (
    EmbeddingSet,
    MixtureSpec,
    gen_gaussian_mixture,
    read_embedding_file,
    read_label_file,
    write_embedding_file,
    write_label_file,
)
from dcom.errors import BadMagic, DimensionMismatch, NonFinite, PayloadOverflow, TruncatedPayload
from dcom.harness import ExperimentRecord, read_report, write_report

POINTS = EmbeddingSet([[0.1, -2.5], [1e-8, 3.0], [-0.0, 1e30]])
LABELS = [0, 3, -1, 2147483647]
RECORDS = [
    ExperimentRecord(0, "dcom", 0, 4, 0.5, 0.25, 1 / 3, 0.1, 0.0, 0.0),
    ExperimentRecord(1, "dcom", 0, 4, 2 / 3, 0.5, 0.0, 0.2, 1e-17, 1.5),
]

GOLDEN_DCM1 = (
    b"DCM1\x03\x00\x00\x00\x02\x00\x00\x00"
    b"\xcd\xcc\xcc=\x00\x00 \xc0w\xcc+2\x00\x00@@\x00\x00\x00\x80\xca\xf2Iq"
)
GOLDEN_DCL1 = (
    b"DCL1\x04\x00\x00\x00"
    b"\x00\x00\x00\x00\x03\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\x7f"
)
GOLDEN_EMBEDDING_CSV = (
    b"f0,f1\r\n"
    b"0.10000000149011612,-2.5\r\n"
    b"9.99999993922529e-09,3.0\r\n"
    b"-0.0,1.0000000150474662e+30\r\n"
)
GOLDEN_LABEL_CSV = b"label\r\n0\r\n3\r\n-1\r\n2147483647\r\n"
GOLDEN_REPORT_CSV = (
    b"run_seed,strategy,iteration,budget,accuracy,coverage,competence,delta_mean,"
    b"delta_std,seconds\r\n"
    b"0,dcom,0,4,0.5,0.25,0.3333333333333333,0.1,0.0,0.0\r\n"
    b"1,dcom,0,4,0.6666666666666666,0.5,0.0,0.2,1e-17,1.5\r\n"
)
GOLDEN_REPORT_JSON = (
    b'{\n  "dcom": {\n    "4": {\n      "mean_accuracy": 0.5833333333333333,\n'
    b'      "repetitions": 2,\n      "standard_error": 0.058925565098878946\n    }\n  }\n}\n'
)


@pytest.mark.parametrize(
    "name, write, value, golden",
    [
        ("points.dcm", write_embedding_file, POINTS, GOLDEN_DCM1),
        ("points.csv", write_embedding_file, POINTS, GOLDEN_EMBEDDING_CSV),
        ("labels.dcl", write_label_file, LABELS, GOLDEN_DCL1),
        ("labels.csv", write_label_file, LABELS, GOLDEN_LABEL_CSV),
    ],
)
def test_each_data_file_is_its_golden_bytes_and_reads_back(tmp_path, name, write, value, golden):
    path = tmp_path / name
    write(value, path)
    assert path.read_bytes() == golden
    if write is write_embedding_file:
        assert read_embedding_file(path) == value
    else:
        assert read_label_file(path).tolist() == value


def test_report_files_are_their_golden_bytes(tmp_path, capsys):
    path = tmp_path / "report.csv"
    write_report(RECORDS, path)
    assert path.read_bytes() == GOLDEN_REPORT_CSV
    assert path.with_suffix(".json").read_bytes() == GOLDEN_REPORT_JSON
    assert read_report(path) == RECORDS
    # dcom report prints the same summary, or writes it with --output.
    assert cli_dispatch(["report", "--records", str(path)]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_REPORT_JSON
    out = tmp_path / "summary.json"
    assert cli_dispatch(["report", "--records", str(path), "--output", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_REPORT_JSON and capsys.readouterr().out == ""


def _dcm1(n, d, *values):
    return b"DCM1" + struct.pack("<II", n, d) + np.array(values, "<f4").tobytes()


def _dcl1(n, *values):
    return b"DCL1" + struct.pack("<I", n) + np.array(values, "<i4").tobytes()


# Each case: the file's bytes, the error type, its offset and its message.
_BINARY_CORPUS = {
    "dcm1-empty": (b"", BadMagic, 0, "bad magic at byte 0: found b''"),
    "dcm1-wrong-magic": (b"DCL1" + _dcm1(1, 1, 1.0)[4:], BadMagic, 0,
                         "bad magic at byte 0: found b'DCL1'"),
    "dcm1-3-bytes": (b"DCM", BadMagic, 0, "bad magic at byte 0: found b'DCM'"),
    "dcm1-magic-only": (b"DCM1", TruncatedPayload, 4,
                        "truncated payload at byte 4: expected 12 bytes, got 4"),
    "dcm1-half-header": (b"DCM1\x01\x00", TruncatedPayload, 6,
                         "truncated payload at byte 6: expected 12 bytes, got 6"),
    "dcm1-header-only": (_dcm1(2, 1), TruncatedPayload, 12,
                         "truncated payload at byte 12: expected 20 bytes, got 12"),
    "dcm1-short-payload": (_dcm1(2, 1, 1.0) + b"\x00\x00", TruncatedPayload, 18,
                           "truncated payload at byte 18: expected 20 bytes, got 18"),
    "dcm1-long-payload": (_dcm1(2, 1, 1.0, 2.0) + b"\x00", TruncatedPayload, 20,
                          "truncated payload at byte 20: expected 20 bytes, got 21"),
    "dcm1-overflow": (_dcm1(65536, 32769), PayloadOverflow, 4,
                      "n*d overflow at byte 4: n=65536, d=32769"),
    "dcm1-at-the-element-limit": (_dcm1(65536, 32768), TruncatedPayload, 12,
                                  "truncated payload at byte 12: expected 8589934604 bytes, "
                                  "got 12"),
    "dcm1-nan": (_dcm1(2, 2, 1.0, 2.0, 3.0, np.nan), NonFinite, 24,
                 "non-finite value at byte 24"),
    "dcm1-first-of-two-non-finite": (_dcm1(2, 2, 1.0, 2.0, -np.inf, np.nan), NonFinite, 20,
                                     "non-finite value at byte 20"),
    "dcl1-empty": (b"", BadMagic, 0, "bad magic at byte 0: found b''"),
    "dcl1-wrong-magic": (b"DCM1" + _dcl1(1, 1)[4:], BadMagic, 0,
                         "bad magic at byte 0: found b'DCM1'"),
    "dcl1-3-bytes": (b"DCL", BadMagic, 0, "bad magic at byte 0: found b'DCL'"),
    "dcl1-magic-only": (b"DCL1", TruncatedPayload, 4,
                        "truncated payload at byte 4: expected 8 bytes, got 4"),
    "dcl1-half-header": (b"DCL1\x01", TruncatedPayload, 5,
                         "truncated payload at byte 5: expected 8 bytes, got 5"),
    "dcl1-header-only": (_dcl1(2), TruncatedPayload, 8,
                         "truncated payload at byte 8: expected 16 bytes, got 8"),
    "dcl1-short-payload": (_dcl1(2, 1) + b"\x00", TruncatedPayload, 13,
                           "truncated payload at byte 13: expected 16 bytes, got 13"),
    "dcl1-long-payload": (_dcl1(2, 1, 2) + b"\x00" * 4, TruncatedPayload, 16,
                          "truncated payload at byte 16: expected 16 bytes, got 20"),
    # DCL1 has no n*d product: its largest count is only a short payload.
    "dcl1-largest-count": (_dcl1(2**32 - 1), TruncatedPayload, 8,
                           "truncated payload at byte 8: expected 17179869188 bytes, got 8"),
}


@pytest.mark.parametrize("case", list(_BINARY_CORPUS))
def test_binary_error_corpus(tmp_path, case):
    raw, error, offset, message = _BINARY_CORPUS[case]
    path = tmp_path / "file.bin"
    path.write_bytes(raw)
    read = read_embedding_file if case.startswith("dcm1") else read_label_file
    with pytest.raises(error) as err:
        read(path)
    assert err.value.offset == offset and str(err.value) == message


@pytest.mark.parametrize(
    "read, raw, shape",
    [(read_embedding_file, _dcm1(0, 5), (0, 5)), (read_embedding_file, _dcm1(3, 0), (3, 0)),
     (read_label_file, _dcl1(0), (0,))],
)
def test_binary_files_of_no_cells_read_as_empty(tmp_path, read, raw, shape):
    path = tmp_path / "empty.bin"
    path.write_bytes(raw)
    loaded = read(path)
    assert getattr(loaded, "vectors", loaded).shape == shape


# Each case: the CSV text, then the embedding reader's and the label reader's
# outcome: an error type, its offset (None: it has no byte offset) and its
# message ("{path}" stands for the file), or the shape read. The label reader
# rejects the header f0,f1 before it reads a record.
_NO_LABEL_COLUMN = (ValueError, None,
                    "{path} header ['f0', 'f1'] has neither one column nor a 'label' column")
_CSV_CORPUS = {
    "empty": ("", (TruncatedPayload, 0, "truncated payload at byte 0: expected 1 bytes, got 0"),
              (0,)),
    "header-only": ("f0,f1\r\n", (0, 2), _NO_LABEL_COLUMN),
    "blank-line": ("f0,f1\n1,2\n\n3,4\n",
                   (DimensionMismatch, None, "{path} line 3 has 0 fields, the header 2"),
                   _NO_LABEL_COLUMN),
    "ragged-line": ("f0,f1\n1,2\n3\n",
                    (DimensionMismatch, None, "{path} line 3 has 1 fields, the header 2"),
                    _NO_LABEL_COLUMN),
    "ragged-label-line": ("label\n1\n2,3\n",
                          (DimensionMismatch, None, "{path} line 3 has 2 fields, the header 1"),
                          (DimensionMismatch, None, "{path} line 3 has 2 fields, the header 1")),
}


@pytest.mark.parametrize("case", list(_CSV_CORPUS))
@pytest.mark.parametrize("reader", ["embeddings", "labels"])
def test_csv_error_corpus(tmp_path, case, reader):
    text, *outcomes = _CSV_CORPUS[case]
    path = tmp_path / "file.csv"
    path.write_text(text, newline="")
    read, outcome = {"embeddings": (read_embedding_file, outcomes[0]),
                     "labels": (read_label_file, outcomes[1])}[reader]
    if isinstance(outcome[0], type):
        error, offset, message = outcome
        with pytest.raises(error) as err:
            read(path)
        assert getattr(err.value, "offset", None) == offset
        assert str(err.value) == message.format(path=path)
    else:
        loaded = read(path)
        assert getattr(loaded, "vectors", loaded).shape == outcome


@pytest.mark.parametrize(
    "name, labels, message",
    [
        ("labels.dcl", [0, 2**31 + 5], "label 1 is 2147483653, outside [-1, 2147483647]"),
        ("labels.dcl", [3, -2, 2**31], "label 1 is -2, outside [-1, 2147483647]"),
        ("labels.csv", [0, 1, -7], "label 2 is -7, outside [-1, 9223372036854775807]"),
    ],
    ids=["dcl1-past-int32", "dcl1-below-unknown", "csv-below-unknown"],
)
def test_a_label_outside_the_layouts_range_is_rejected_before_the_file_opens(
    tmp_path, name, labels, message
):
    path = tmp_path / name
    with pytest.raises(ValueError) as err:
        write_label_file(labels, path)
    assert str(err.value) == message
    assert not path.exists()


@pytest.mark.parametrize(
    "text, labels",
    [("id,label\n7,2\n8,0\n", [2, 0]), ("label,id\n2,7\n", [2]), ("y\n3\n-1\n", [3, -1]),
     (f"label\n{2**63 - 1}\n{-(2**63)}\n", [2**63 - 1, -(2**63)])],
    ids=["label-second", "label-first", "one-column", "int64-ends"],
)
def test_a_label_csv_reads_its_label_column_or_its_only_column(tmp_path, text, labels):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    assert read_label_file(path).tolist() == labels


def test_a_label_csv_of_two_columns_none_named_label_is_rejected(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("a,b\n1,x\n")  # 'x' is never parsed: the header fails first
    with pytest.raises(ValueError) as err:
        read_label_file(path)
    assert str(err.value) == f"{path} header ['a', 'b'] has neither one column nor a 'label' column"


def test_csv_errors_come_in_file_order(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("f0,f1\n1,2\n3,abc\n5,6\n7\n")
    with pytest.raises(ValueError) as err:
        read_embedding_file(path)
    assert str(err.value) == f"{path} line 3, field 2: cannot parse 'abc' as float"


def test_reading_an_embedding_csv_holds_no_python_float_per_value(tmp_path):
    # A Python float and its list slot take 32 bytes a value; the reader's
    # one float64 buffer takes 8, and the float32 vectors 4 more.
    points = gen_gaussian_mixture(MixtureSpec(4, 1000, 64, 6.0, 1.0, seed=1))
    path = tmp_path / "points.csv"
    write_embedding_file(points, path)
    tracemalloc.start()
    try:
        loaded = read_embedding_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == EmbeddingSet(points.vectors)
    assert peak < 3 * points.vectors.size * 8, peak


def test_a_csv_label_past_int32_round_trips(tmp_path):
    path = tmp_path / "labels.csv"
    write_label_file([2**31 + 5, -1], path)
    assert read_label_file(path).tolist() == [2**31 + 5, -1]


def test_a_dcl1_label_below_unknown_is_named_with_its_position(tmp_path):
    path = tmp_path / "labels.dcl"
    path.write_bytes(_dcl1(4, 0, -1, -7, -2))
    with pytest.raises(ValueError) as err:
        EmbeddingSet(np.zeros((4, 2)), read_label_file(path))
    assert str(err.value) == "labels[2] is -7: labels must be >= 0 or the unknown sentinel -1"


def test_a_report_path_ending_in_json_is_rejected_before_anything_is_written(tmp_path):
    # The summary goes to the path with a .json suffix: here the CSV's own path.
    path = tmp_path / "out" / "report.json"
    with pytest.raises(ValueError) as err:
        write_report(RECORDS, path)
    assert str(err.value) == (f"report path {path} ends in .json, "
                              "where its summary would overwrite it")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "read, text, message",
    [
        (read_embedding_file, "f0,f1\n1.0,2.0\n3.0,abc\n",
         "line 3, field 2: cannot parse 'abc' as float"),
        (read_embedding_file, "f0,f1\n,2.0\n", "line 2, field 1: cannot parse '' as float"),
        (read_label_file, "label\n0\nx\n", "line 3, field 1: cannot parse 'x' as int"),
        (read_label_file, "label\n1.0\n", "line 2, field 1: cannot parse '1.0' as int"),
        (read_label_file, "label\n0\n99999999999999999999\n",
         "line 3, field 1: cannot parse '99999999999999999999' as int64"),
        (read_label_file, "label\n-9223372036854775809\n",
         "line 2, field 1: cannot parse '-9223372036854775809' as int64"),
        (read_report, GOLDEN_REPORT_CSV.decode().replace("\r\n1,dcom", "\r\none,dcom"),
         "line 3, field 1: cannot parse 'one' as int"),
    ],
    ids=["embedding-word", "embedding-empty", "label-word", "label-float", "label-past-int64",
         "label-below-int64", "report-word"],
)
def test_a_csv_token_that_does_not_parse_names_its_line_field_and_text(tmp_path, read, text,
                                                                        message):
    path = tmp_path / "file.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == f"{path} {message}"
