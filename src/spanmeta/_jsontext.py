"""The file boundary: how a user's file becomes text or JSON, and how
text, JSON or CSV rows go into a file.

Reading. :func:`read_text` decodes a file as UTF-8, drops a byte-order
mark at its start, as Windows editors write one, and, by default,
turns ``\\r\\n`` and ``\\r`` line ends into ``\\n``, as ``open`` does;
bytes that are not UTF-8 raise :class:`InputError`. It serves the inputs
read whole: model JSON, ``--config`` files and observation CSVs.
:func:`read_lines` reads a corpus file the same way, one line at a time,
so a reader holds one line of the file, not the whole of it. It yields
the lines of the text ``read_text`` returns, and refuses the bytes that
``read_text`` refuses, with the same message, without reading the file
twice, so a pipe reads as a file does. :func:`parse_json`
is ``json.loads`` whose every refusal (a syntax error, containers nested
more than 100 deep, an integer longer than ``sys.get_int_max_str_digits()``
digits) is one ``ValueError``, the same from any depth of the caller's
stack.

Refusing. :class:`InputError` is the one error a reader raises for a
file it refuses, and the one place that words it: ``<path>: line N:
<reason>``, or ``<path>: <reason>`` when no line is at fault.

Writing. :func:`json_pieces` writes ``json.dumps(indent=2,
sort_keys=True)`` text for model files, reports and command output as a
stream of pieces, and :func:`json_text` joins them. ``json.dumps`` with an
``indent`` falls back to the standard library's pure-Python encoder,
which spends most of a model file's time yielding one chunk per float;
this writer yields one piece per scalar or container entry, and one join
of ``float.__repr__`` per all-float list. It also takes numpy arrays, and
writes a two-dimensional one a row at a time, each row ``tolist()``
joined the same way, so a model's weights are written with no nested-list
copy of them. :func:`csv_text` writes CSV rows with LF line ends.
:func:`write_text` puts a text, a model file's pieces or a corpus's lines
into a file as UTF-8 through a hidden file that then replaces the target:
each piece is encoded as it is written, so a writer holds one piece, not
the whole text, and a failure at any point, from a NaN weight or text with
no UTF-8 form to a full disk, leaves an earlier file at the path as it
was. A killed process can leave the hidden file behind; a special file,
or a writable file in a directory the user may not write to, is written
in place, and only once the whole text is encoded.

The module imports nothing numerical: it knows an array by the type that
an already loaded numpy gives it.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import os
import shutil
import stat
import sys
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _string
from operator import is_
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "InputError",
    "csv_text",
    "json_pieces",
    "json_text",
    "parse_json",
    "read_lines",
    "read_text",
    "write_text",
]

_INDENT = "  "
_WRITE_BUFFER = 1 << 16  # bytes


class InputError(ValueError):
    """A reader refused the file at ``path``, for ``reason``, at ``line``
    if one line is at fault.

    ``str()`` of it, ``<path>: line N: <reason>`` or ``<path>: <reason>``,
    is the only wording of a refused file. The three fields are the
    exception's ``args``, so it pickles and copies as any exception does.
    """

    def __init__(self, path, reason: str, line: int | None = None) -> None:
        super().__init__(path, reason, line)
        self.path, self.reason, self.line = path, reason, line

    def __str__(self) -> str:
        if self.line is None:
            return f"{self.path}: {self.reason}"
        return f"{self.path}: line {self.line}: {self.reason}"


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` plus a
    newline: the pieces of :func:`json_pieces` joined, so ``obj`` may hold
    numpy arrays, each written as its ``tolist()`` a row at a time."""
    return "".join(json_pieces(obj))


def json_pieces(obj) -> Iterator[str]:
    """The text of :func:`json_text` in pieces, for :func:`write_text`.

    Types are tried in ``json.dumps``'s order: str, None, bool, int and
    float (subclasses included, written as their base type), then list or
    tuple, then dict. Containers must not hold themselves. A numpy array of
    one or more dimensions is written as the list its ``tolist()`` gives,
    one row at a time, so no nested-list copy of it is made.

    A piece is a scalar, a whole all-float list or array row, or the
    brackets, keys and separators around them; a non-finite float is
    refused before the piece that would hold it is yielded.

    Raises:
        ValueError: on a NaN or infinite float.
        TypeError: on any other type, or a dict key that is not a str,
            int, float, bool or None.
    """
    yield from _pieces(obj, "\n")
    yield "\n"


def _float(x: float) -> str:
    text = float.__repr__(x)
    if "n" in text:  # nan, inf or -inf: finite reprs hold no letter n
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return text


def _key(key) -> str:
    """A dict key as a JSON string, converted as ``json.dumps`` converts it."""
    if isinstance(key, str):
        text = key
    elif isinstance(key, float):
        text = _float(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return _string(text)


def _flat(o, newline: str) -> str | None:
    """``o`` as JSON whose nested lines start with ``newline``, if it is a
    str, None, bool, int, float, empty container or all-float list or
    tuple; else None."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + _INDENT
        try:  # float.__repr__ takes floats and their subclasses only
            body = ("," + inner).join(map(float.__repr__, o))
        except TypeError:
            return None
        if "n" in body:  # a nan or an inf: raise as for a lone float
            for v in o:
                _float(v)
        return "[" + inner + body + newline + "]"
    if isinstance(o, dict) and not o:
        return "{}"
    return None


def _pieces(o, newline: str) -> Iterator[str]:
    """``o`` as JSON whose nested lines start with ``newline``, in pieces."""
    text = _flat(o, newline)
    if text is None:
        yield from _nested(o, newline)
    else:
        yield text


def _nested(o, newline: str) -> Iterator[str]:
    """The pieces of ``o``, which :func:`_flat` did not write."""
    if isinstance(o, (list, tuple)):
        yield from _entries("[", (("", v) for v in o), "]", newline)
    elif isinstance(o, dict):
        keys = sorted(o)  # keys are distinct, so this is the order of the items
        yield from _entries("{", ((_key(k) + ": ", o[k]) for k in keys), "}", newline)
    else:
        numpy = sys.modules.get("numpy")  # no array exists unless numpy is loaded
        if numpy is None or not isinstance(o, numpy.ndarray) or not o.ndim:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if o.ndim == 1:
            yield from _pieces(o.tolist(), newline)
        elif len(o):
            # a row at a time: each row's list is made, written and dropped
            yield from _entries("[", (("", row.tolist()) for row in o), "]", newline)
        else:
            yield "[]"


def _entries(opener: str, entries: Iterable, closer: str, newline: str) -> Iterator[str]:
    """A non-empty container of ``(head, value)`` entries, a head being a
    dict entry's key and colon or ``""``, between ``opener`` and ``closer``."""
    inner = newline + _INDENT
    before = opener + inner
    for head, v in entries:
        text = _flat(v, inner)
        if text is None:
            yield before + head
            yield from _nested(v, inner)
        else:
            yield before + head + text
        before = "," + inner
    yield newline + closer


def csv_text(header, rows) -> str:
    """``header``, then each of ``rows``, as CSV records ended by ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_text(path, newline: str | None = None) -> str:
    """The text of the UTF-8 file at ``path``, less a leading byte-order mark.

    ``newline`` is ``open``'s: with ``None`` each ``\\r\\n`` and ``\\r``
    becomes ``\\n``; with ``""`` line ends are kept as they are, as the
    ``csv`` module needs.

    Raises:
        InputError: naming ``path`` and the line (``\\n``, ``\\r\\n`` and
            ``\\r`` each end one) of the first byte that is not UTF-8.
        OSError: if the file cannot be read.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            # not "utf-8-sig": its decoder reads a lone b"\xef" as empty text
            return f.read().removeprefix("\ufeff")
    except UnicodeDecodeError as e:  # read() decodes the whole file in one call
        raise _not_utf8(path, e) from None


def read_lines(path) -> Iterator[str]:
    """The lines of the UTF-8 file at ``path``, without their line ends,
    read and decoded one at a time.

    They are the lines of ``read_text(path)``: its text split at each
    ``\\n``, less the last piece if that is empty. So ``\\n``,
    ``\\r\\n`` and ``\\r`` each end a line, and a byte-order mark at the
    start of the file is dropped. The file is read once, front to back, so
    a pipe reads as a file does.

    Raises:
        InputError: as :func:`read_text` raises it, once the lines before
            the one that holds the first byte that is not UTF-8 are yielded.
        OSError: if the file cannot be read.
    """
    with open(path, "rb") as f:
        number = 1  # of the next line to yield
        for raw in f:  # split at b"\n", which no multi-byte sequence holds
            try:
                # with its b"\n", so that a sequence cut off before it is
                # refused as read_text refuses it
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise _not_utf8(path, e, number) from None
            if number == 1:
                line = line.removeprefix("\ufeff")
                if not line:  # the file holds a byte-order mark only
                    return
            if "\r" in line:
                lines = line.replace("\r\n", "\n").replace("\r", "\n").split("\n")
                if not lines[-1]:  # the text after a last line end
                    lines.pop()
                number += len(lines)
                yield from lines
            else:
                number += 1
                yield line.removesuffix("\n")


def _not_utf8(path, e: UnicodeDecodeError, first_line: int = 1) -> InputError:
    """The refusal of the bytes ``e`` failed on, in text whose first line
    is ``first_line``: ``\\n``, ``\\r\\n`` and ``\\r`` each end one."""
    head = e.object[: e.start]
    line = first_line + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return InputError(path, f"not UTF-8 text ({e.reason})", line)


#: How deep containers may nest in a parsed value, the outermost counted;
#: the file formats nest at most 5 deep. ``json.loads``'s own limit counts
#: Python frames, so it would move with the depth of the caller's stack.
_MAX_DEPTH = 100
_TOO_DEEP = (
    f"invalid JSON: maximum recursion depth exceeded: containers nest more than "
    f"{_MAX_DEPTH} deep"
)


def parse_json(text: str):
    """``json.loads(text)``, with every refusal one ``ValueError``.

    Containers may nest at most ``_MAX_DEPTH`` deep, wherever the caller's
    stack stands: a value ``json.loads`` cannot recurse into and one
    that it parses but nests deeper are refused with the same text.

    Raises:
        ValueError: ``invalid JSON: `` and the reason, for a syntax error,
            nesting deeper than ``_MAX_DEPTH``, or an integer with more
            digits than the interpreter converts.
    """
    try:
        value = json.loads(text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    except ValueError as e:
        raise ValueError(f"invalid JSON: {e}") from e
    # each level of nesting opens with a bracket, so with few brackets in
    # the text the walk is skipped
    if text.count("[") + text.count("{") > _MAX_DEPTH and _nests_deeper(value, _MAX_DEPTH):
        raise ValueError(_TOO_DEEP)
    return value


def _nests_deeper(value, limit: int) -> bool:
    """Whether containers nest more than ``limit`` deep in a parsed value.

    Walked a level at a time, with no recursion; each level's values are
    sorted into lists and dicts by ``itertools``, which costs about as much
    as ``json.loads`` took to parse them.
    """
    level = [value]
    for _ in range(limit):
        types = list(map(type, level))
        lists = compress(level, map(is_, repeat(list), types))
        dicts = compress(level, map(is_, repeat(dict), types))
        level = [*chain.from_iterable(lists), *chain.from_iterable(map(dict.values, dicts))]
        if not level:
            return False
    return any(t is list or t is dict for t in map(type, level))


def write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text``, a str or an iterable of str pieces, to ``path`` as
    UTF-8, with no newline translation.

    Each piece is encoded as it is written to a new hidden file beside the
    target, which ``os.replace`` then puts in the target's place, so the
    writer holds one piece at a time, not the whole text. No failure, be it
    a piece with no UTF-8 form, such as a lone surrogate, an error raised
    by the iterable, or a full disk, leaves a half-written target: it keeps
    its earlier bytes, and the hidden file is removed. A process killed
    while it writes can leave the hidden ``.<name>.<hex>.tmp`` file behind,
    and nothing is synced to disk, so a power cut can lose either file.

    A symlink is followed to the file it names. A new file gets the
    permission bits a plain ``open`` would give it, and a replaced file
    keeps its own, but not its owner, group, ACLs or extended attributes,
    nor its other hard links, which keep the earlier bytes. A target that
    exists but is not a regular file, such as a FIFO, a terminal or a
    pipe named by ``/proc/self/fd/N``, is written in place. So is a
    writable file that cannot be replaced, as in a directory the user may
    not write to; such a write is not atomic. Either is written only once
    every piece is encoded, so a failure to encode writes nothing there.

    Raises:
        ValueError: naming ``path`` if a piece cannot be encoded, at the
            position counted from the start of the whole text.
        OSError: naming ``path`` if it cannot be written, as ``open`` would,
            including a read-only regular file.
    """
    pieces = [text] if isinstance(text, str) else text
    try:  # stat follows /proc's links to pipes, which realpath cannot
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        Path(path).write_bytes(b"".join(_encoded(pieces, path)))
        return
    if st is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        # O_EXCL: never write through a file or link that is already there;
        # mode 0o666 less the umask, as open() gives a new file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        if st is None or not isinstance(e, PermissionError):
            raise OSError(e.errno, e.strerror, os.fspath(path)) from None
        # a directory the user may not write to: in place, as open() would
        Path(path).write_bytes(b"".join(_encoded(pieces, path)))
        return
    try:
        # a buffer of many lines, so that a corpus written a line at a time
        # costs about as few write calls as one written whole
        with open(fd, "wb", buffering=_WRITE_BUFFER) as f:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            f.writelines(_encoded(pieces, path))
        try:
            os.replace(tmp, target)
        except PermissionError:
            if st is None:
                raise
            # a sticky directory holding another user's file: in place, as
            # open() would, from the whole text in the hidden file
            with open(tmp, "rb") as whole, open(path, "wb") as out:
                shutil.copyfileobj(whole, out)
            os.unlink(tmp)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError):  # name the target, not the hidden file
            raise OSError(e.errno, e.strerror, os.fspath(path)) from None
        raise


def _encoded(pieces: Iterable[str], path) -> Iterator[bytes]:
    """Each of ``pieces`` as UTF-8; ValueError naming ``path`` for one with
    no UTF-8 form, worded as for the pieces joined into one text."""
    before = 0  # characters in the pieces before this one
    for piece in pieces:
        try:
            data = piece.encode("utf-8")
        except UnicodeEncodeError as e:
            raise ValueError(f"cannot write {path}: {_moved(e, before)}") from e
        before += len(piece)
        yield data


def _moved(e: UnicodeEncodeError, by: int) -> str:
    """``str(e)`` with its position ``by`` characters further on."""

    def position(shift: int) -> str:
        last = f"-{e.end - 1 + shift}" if e.end - e.start > 1 else ""
        return f" in position {e.start + shift}{last}:"

    return str(e).replace(position(0), position(by), 1)
