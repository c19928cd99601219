"""The file boundary: the indent-2 JSON writer against ``json.dumps``, byte
for byte; the reader against ``open``; and the atomic file writer."""

import codecs
import copy
import errno
import json
import math
import os
import pickle
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanmeta._jsontext import (
    InputError,
    json_pieces,
    json_text,
    parse_json,
    read_lines,
    read_text,
    write_text,
)


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


class _Float(float):
    """A float subclass whose own repr both writers must ignore."""

    def __repr__(self):
        return "not a number"


class _Int(int):
    def __repr__(self):
        return "not a number"


# strings with quotes, backslashes, control characters, line separators,
# non-ASCII letters, astral characters and lone surrogates
_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "😀", "\ud800", "\udfff"]),
)
_TEXT = st.text(_CHARS, max_size=8)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    _TEXT,
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    _FLOATS.map(_Float),
    st.integers().map(_Int),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(_FLOATS, min_size=1, max_size=5),  # the all-float join
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(_VALUES)
def test_matches_json_dumps(value):
    assert json_text(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        (),
        [[], {}, ()],
        {"a": [], "b": {}},
        [1, 1.0, 2, 2.5, True, None],
        [1.0, 2.0, _Float(3.5)],
        [0.1, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308],
        {"b": 1, "a": 2, "A": 3, "é": 4, "": 5},
        {1: "int keys", 2: "sorted as numbers", 10: "x"},
        {2.5: "float keys", -1.0: "x"},
        {True: "bool key"},
        {None: "null key"},
        {_Int(3): "an int subclass key"},
    ],
)
def test_matches_json_dumps_on_edge_cases(value):
    assert json_text(value) == _reference(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x,
        lambda x: [1.0, x],
        lambda x: [1, x],
        lambda x: {"k": [x]},
        lambda x: {x: 1},
        lambda x: _Float(x),
    ],
)
def test_non_finite_floats_raise_value_error(bad, wrap):
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text(wrap(bad))


@pytest.mark.parametrize(
    "value, message",
    [
        (object(), "Object of type object is not JSON serializable"),
        ([1.0, {1, 2}], "Object of type set is not JSON serializable"),
        ({"k": b"bytes"}, "Object of type bytes is not JSON serializable"),
        ({(1, 2): 3}, "keys must be str, int, float, bool or None, not tuple"),
    ],
)
def test_other_types_raise_type_error(value, message):
    with pytest.raises(TypeError, match=message):
        json_text(value)
    with pytest.raises(TypeError, match=message):
        _reference(value)


@settings(max_examples=100, deadline=None)
@given(_VALUES)
def test_the_pieces_join_to_the_text(value):
    assert "".join(json_pieces(value)) == json_text(value)


_ARRAYS = {
    "rows": np.arange(12.0).reshape(4, 3) / 7 - 0.5,
    "vector": np.array([0.1, -0.0, 1e16, 5e-324]),
    "one row": np.array([[2.5, -1.0]]),
    "no rows": np.zeros((0, 3)),
    "empty vector": np.zeros(0),
    "three dimensions": np.arange(24.0).reshape(2, 3, 4) / 3,
    "integers": np.arange(6).reshape(2, 3),
    "float32": np.array([[0.1, 0.2]], dtype=np.float32),
}


@pytest.mark.parametrize("array", _ARRAYS.values(), ids=_ARRAYS.keys())
def test_an_array_is_written_as_its_list(array):
    obj = {"w": array, "labels": ("O", "B-p"), "n": 1}
    plain = {"w": array.tolist(), "labels": ["O", "B-p"], "n": 1}
    assert json_text(obj) == json_text(plain) == _reference(plain)


def test_a_matrix_is_written_a_row_at_a_time():
    weights = np.arange(300.0).reshape(100, 3) / 9
    rows = [json_text(row.tolist())[:-1].replace("\n", "\n  ") for row in weights]
    pieces = ["[\n  " + rows[0], *[",\n  " + row for row in rows[1:]], "\n]", "\n"]
    assert list(json_pieces(weights)) == pieces
    assert "".join(pieces) == _reference(weights.tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(5,), (4, 3)], ids=["vector", "matrix"])
def test_a_non_finite_array_value_is_refused_as_in_its_list(bad, shape):
    array = np.ones(shape)
    array.flat[-2] = bad
    with pytest.raises(ValueError) as listed:
        json_text(array.tolist())
    with pytest.raises(ValueError) as arrayed:
        json_text(array)
    assert str(arrayed.value) == str(listed.value)
    assert "not JSON compliant" in str(listed.value)


def test_a_matrix_row_is_refused_before_it_is_yielded():
    array = np.ones((3, 2))
    array[1, 1] = math.nan
    pieces = json_pieces(array)
    written = []
    with pytest.raises(ValueError, match="not JSON compliant"):
        for piece in pieces:
            written.append(piece)
    assert "".join(written) == "[\n  [\n    1.0,\n    1.0\n  ]"


@pytest.mark.parametrize("value", [np.array(1.5), np.int64(3), [np.int32(1)]])
def test_what_json_dumps_refuses_of_numpy_is_refused(value):
    name = (value[0] if isinstance(value, list) else value).__class__.__name__
    with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
        json_text(value)
    with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
        _reference(value)


# ---------------------------------------------------------------------------
# reading


@settings(max_examples=100, deadline=None)
@given(st.text(st.sampled_from("a\r\n,\"é\u2028\x85\ufeff"), max_size=12))
def test_read_text_matches_open_less_a_leading_byte_order_mark(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "read.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert read_text(path) == fh.read().removeprefix("\ufeff")
    with open(path, encoding="utf-8", newline="") as fh:
        assert read_text(path, newline="") == fh.read().removeprefix("\ufeff")


@pytest.mark.parametrize(
    "data, reason",
    [(b"\xef", "unexpected end of data"), (b"\xef\xbb", "unexpected end of data"),
     (b"\xef\xbbx", "invalid continuation byte")],
)
def test_part_of_a_byte_order_mark_is_not_utf8(tmp_path, data, reason):
    # the utf-8-sig codec would read the first two as an empty file
    path = tmp_path / "short.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        read_text(path)
    assert str(info.value) == f"{path}: line 1: not UTF-8 text ({reason})"


@pytest.mark.parametrize("newline", [None, ""])
@pytest.mark.parametrize("lines_before", [0, 100_000])  # the latter: past any read buffer
def test_bytes_that_are_not_utf8_name_the_path_and_line(tmp_path, newline, lines_before):
    path = tmp_path / "latin1.txt"
    # \r\n, \r and \n each end one line, for the csv module as for open()
    path.write_bytes(b"x\n" * lines_before + b"one\r\ntwo\rthree\nfour \xe9t\xe9\n")
    with pytest.raises(InputError) as info:
        read_text(path, newline=newline)
    line = lines_before + 4
    assert str(info.value) == f"{path}: line {line}: not UTF-8 text (invalid continuation byte)"
    assert (info.value.path, info.value.line) == (path, line)


def _lines_or_refusal(read):
    try:
        return read()
    except InputError as e:
        return str(e)


def _lines_of(text: str) -> list[str]:
    """``text`` split at each ``\\n``, less the last piece if that is empty."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


@settings(max_examples=100, deadline=None)
@given(st.text(st.sampled_from("a\r\n,\"é\u2028\x85\ufeff"), max_size=12))
def test_read_lines_yields_the_lines_of_open_less_a_leading_byte_order_mark(
    tmp_path_factory, text
):
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = _lines_of(fh.read().removeprefix("\ufeff"))
    assert list(read_lines(path)) == want


# line ends, a byte-order mark, bytes that are not UTF-8 on their own, and
# multi-byte sequences whole and cut short
_PIECES = [b"a", b"\r", b"\n", b"\r\n", codecs.BOM_UTF8, b"\xff", b"\xe2\x82", b"\xac",
           b"\xc3\xa9", b"\xe2\x82\xac"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map(b"".join))
def test_read_lines_reads_and_refuses_as_read_text(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "bytes.txt"
    path.write_bytes(data)
    want = _lines_or_refusal(lambda: _lines_of(read_text(path)))
    assert _lines_or_refusal(lambda: list(read_lines(path))) == want


@pytest.mark.parametrize("lines_before", [0, 100_000])  # the latter: past any read buffer
def test_read_lines_names_the_line_of_bytes_that_are_not_utf8(tmp_path, lines_before):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"x\n" * lines_before + b"one\r\ntwo\rthree\nfour \xe9t\xe9\n")
    lines = read_lines(path)
    for _ in range(lines_before + 3):  # every line before the faulty one is read
        next(lines)
    with pytest.raises(InputError) as info:
        next(lines)
    line = lines_before + 4
    assert str(info.value) == f"{path}: line {line}: not UTF-8 text (invalid continuation byte)"
    assert (info.value.path, info.value.line) == (path, line)


@pytest.mark.parametrize(
    "line, text", [(3, "in.csv: line 3: bad row"), (None, "in.csv: bad row")]
)
def test_an_input_error_names_the_path_and_any_line(line, text):
    e = InputError("in.csv", "bad row", line)
    assert isinstance(e, ValueError)
    assert (str(e), e.args) == (text, ("in.csv", "bad row", line))
    for back in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert type(back) is InputError
        assert (str(back), back.path, back.reason, back.line) == (text, "in.csv", "bad row", line)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{oops", "Expecting property name"),
        ("[" * 100_000, "maximum recursion depth"),
        ("[1" + "0" * 5000 + "]", "Exceeds the limit"),
    ],
    ids=["syntax", "too-deep", "too-many-digits"],
)
def test_every_json_refusal_is_one_value_error(text, reason):
    if reason == "Exceeds the limit" and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length")
    with pytest.raises(ValueError, match=f"^invalid JSON: {reason}"):
        parse_json(text)


@pytest.mark.parametrize(
    "nested",
    [lambda depth: "[" * depth + "]" * depth,
     lambda depth: '{"k": ' * (depth - 1) + "{}" + "}" * (depth - 1)],
    ids=["list", "object"],
)
def test_nesting_is_refused_past_a_fixed_depth(nested):
    at_limit = nested(100)
    assert parse_json(at_limit) == json.loads(at_limit)
    # one level deeper, parsed by json.loads and refused by the walk, and far
    # deeper, where json.loads runs out of recursion: the same refusal
    for depth in (101, 100_000):
        with pytest.raises(ValueError) as info:
            parse_json(nested(depth))
        assert str(info.value) == (
            "invalid JSON: maximum recursion depth exceeded: containers nest more than 100 deep"
        )


def test_brackets_inside_strings_do_not_count_as_nesting():
    text = json.dumps({"s": "[" * 500, "t": [["{" * 500]]})
    assert parse_json(text) == json.loads(text)


# ---------------------------------------------------------------------------
# writing: never a path under /dev, where a wrong replace would swap a device
# node for a regular file


def test_new_file_gets_opens_mode_and_a_replaced_one_keeps_its_own(tmp_path):
    old = os.umask(0o027)
    try:
        write_text(tmp_path / "new", "x")
        (tmp_path / "plain").write_text("x")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o640
    existing = tmp_path / "existing"
    existing.write_text("x")
    existing.chmod(0o751)
    write_text(existing, "y\n")
    assert existing.read_bytes() == b"y\n"
    assert stat.S_IMODE(existing.stat().st_mode) == 0o751


def test_a_symlink_is_written_through(tmp_path):
    (tmp_path / "sub").mkdir()
    real = tmp_path / "sub" / "real.json"
    real.write_bytes(b"earlier\n")
    link = tmp_path / "link.json"
    link.symlink_to(Path("sub") / "real.json")
    write_text(link, "later\n")
    assert link.is_symlink()
    assert real.read_bytes() == b"later\n"
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(Path("sub") / "made.json")
    write_text(dangling, "made\n")
    assert dangling.is_symlink()
    assert (tmp_path / "sub" / "made.json").read_bytes() == b"made\n"
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["made.json", "real.json"]


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    # a daemon, so that a writer that never opens the FIFO fails the test
    # instead of hanging the run
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_text(fifo, "through a pipe\n")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [b"through a pipe\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_a_pipe_is_written_in_place_whatever_realpath_makes_of_it(tmp_path, monkeypatch):
    # realpath turns a /proc/self/fd/N link to a pipe into a path that does
    # not exist ("pipe:[N]"), so the file type must come from os.stat; here
    # a FIFO stands in for the pipe, and realpath gives what it gives there
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(os.path, "realpath", lambda p, **kw: str(tmp_path / "gone" / "pipe:[1]"))
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_text(fifo, "through a pipe\n")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [b"through a pipe\n"]
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_pieces_are_written_as_one_text(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"earlier, longer\n")
    write_text(path, (piece for piece in ["a", "", "é\n", "b\r\n"]))
    assert path.read_bytes() == "aé\nb\r\n".encode()
    write_text(path, iter([]))
    assert path.read_bytes() == b""


def test_pieces_that_fail_leave_the_target_and_no_hidden_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"earlier\n")

    def pieces():
        yield "x" * 100_000 + "\n"
        raise ValueError("no second piece")

    with pytest.raises(ValueError, match="no second piece"):
        write_text(target, pieces())
    assert target.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize(
    "pieces", [["ab\n", "c\ud800d"], ["ab\n", "", "c\udc00\ud800d"]], ids=["one", "two"]
)
def test_an_unencodable_piece_is_refused_as_in_the_whole_text(tmp_path, pieces):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError) as whole:
        write_text(path, "".join(pieces))
    with pytest.raises(ValueError) as piecewise:
        write_text(path, iter(pieces))
    assert str(piecewise.value) == str(whole.value)
    assert str(whole.value).startswith(f"cannot write {path}: 'utf-8' codec can't encode")
    assert "in position 4" in str(whole.value)
    assert list(tmp_path.iterdir()) == []


def test_a_fifo_gets_no_byte_of_pieces_that_fail(tmp_path):
    # a special file is written only once every piece is encoded
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def pieces():
        yield "first line\n"
        yield "\ud800\n"

    # a reader that does not wait for a writer, so that no open for writing blocks
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(ValueError, match=f"cannot write {fifo}: .*position 11"):
            write_text(fifo, pieces())
        assert os.read(reader, 100) == b""  # no writer has written: end of stream
    finally:
        os.close(reader)


@pytest.mark.parametrize("step", ["create", "replace"])
def test_a_writable_file_that_cannot_be_replaced_is_written_in_place(
    tmp_path, monkeypatch, step
):
    # create: a directory the user may not write to; replace: a sticky
    # directory holding another user's file. open() writes both in place.
    target = tmp_path / "out.json"
    target.write_bytes(b"earlier, longer\n")
    target.chmod(0o640)
    real_open, real_replace = os.open, os.replace

    def refuse_create(name, flags, *args):
        if flags & os.O_EXCL:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
        return real_open(name, flags, *args)

    def refuse_replace(src, dst):
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), dst)

    if step == "create":
        monkeypatch.setattr(os, "open", refuse_create)
    else:
        monkeypatch.setattr(os, "replace", refuse_replace)
    write_text(target, "later\n")
    monkeypatch.setattr(os, "replace", real_replace)
    assert target.read_bytes() == b"later\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("step", ["create", "replace"])
def test_pieces_for_a_file_that_cannot_be_replaced_are_written_in_place(
    tmp_path, monkeypatch, step
):
    # create: nothing is written before the refusal, so the pieces are
    # encoded and written in place; replace: the hidden file is whole, and
    # it is copied in place
    target = tmp_path / "out.json"
    target.write_bytes(b"earlier, longer\n")
    target.chmod(0o640)
    real_open = os.open

    def refuse_create(name, flags, *args):
        if flags & os.O_EXCL:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
        return real_open(name, flags, *args)

    def refuse_replace(src, dst):
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), dst)

    if step == "create":
        monkeypatch.setattr(os, "open", refuse_create)
    else:
        monkeypatch.setattr(os, "replace", refuse_replace)
    write_text(target, (line + "\n" for line in ["lat", "er"] * 20_000))
    assert target.read_bytes() == b"lat\ner\n" * 20_000
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_a_new_file_in_a_directory_that_refuses_it_is_named(tmp_path, monkeypatch):
    def refuse(name, flags, *args):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)

    monkeypatch.setattr(os, "open", refuse)
    path = tmp_path / "new.json"
    with pytest.raises(PermissionError) as info:
        write_text(path, "x")
    assert info.value.filename == str(path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root may write any directory"
)
def test_a_file_in_a_read_only_directory_is_written_in_place(tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir()
    target = locked / "out.json"
    target.write_bytes(b"earlier\n")
    locked.chmod(0o555)
    try:
        write_text(target, "later\n")
        assert target.read_bytes() == b"later\n"
        assert [p.name for p in locked.iterdir()] == ["out.json"]
    finally:
        locked.chmod(0o755)


def test_a_failed_replace_keeps_the_target_and_removes_the_hidden_file(
    tmp_path, monkeypatch
):
    target = tmp_path / "out.json"
    target.write_bytes(b"earlier\n")

    def fail(src, dst):
        raise OSError(errno.EIO, "Input/output error", src)

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError) as info:
        write_text(target, "later\n")
    assert (info.value.errno, info.value.filename) == (errno.EIO, str(target))
    assert target.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_a_missing_directory_is_named_in_the_error(tmp_path):
    path = tmp_path / "missing" / "out.json"
    with pytest.raises(FileNotFoundError) as info:
        write_text(path, "x")
    assert info.value.filename == str(path)


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root may write any file"
)
def test_a_read_only_file_is_refused_as_open_refuses_it(tmp_path):
    target = tmp_path / "locked.json"
    target.write_bytes(b"earlier\n")
    target.chmod(0o444)
    with pytest.raises(PermissionError):
        write_text(target, "later\n")
    assert target.read_bytes() == b"earlier\n"


_FSIZE_CHILD = """
import resource, signal, sys
from spanmeta.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # so a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
sys.exit(main(["meta", "fit", "--out", sys.argv[1]]))
"""


def test_a_write_past_the_file_size_limit_leaves_the_earlier_file(tmp_path):
    pytest.importorskip("resource")
    out = tmp_path / "out.json"
    out.write_bytes(b"earlier\n")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(sys.path),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    done = subprocess.run(
        [sys.executable, "-c", _FSIZE_CHILD, str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    # the model file is about 10 kB, past the 4096-byte limit
    assert (done.returncode, done.stdout) == (2, "")
    reason = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    assert done.stderr == f"spanmeta: i/o error: {reason}: {str(out)!r}\n"
    assert out.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
