"""The file boundary: how a user's file becomes text or JSON, and how
text, JSON or CSV rows go into a file.

Reading. :func:`read_text` decodes a file as UTF-8, drops a byte-order
mark at its start, as Windows editors write one, and, by default,
turns ``\\r\\n`` and ``\\r`` line ends into ``\\n``, as ``open`` does;
bytes that are not UTF-8 raise :class:`InputError`. :func:`parse_json`
is ``json.loads`` whose every refusal (a syntax error, containers nested
more than 100 deep, an integer longer than ``sys.get_int_max_str_digits()``
digits) is one ``ValueError``, the same from any depth of the caller's
stack.

Refusing. :class:`InputError` is the one error a reader raises for a
file it refuses, and the one place that words it: ``<path>: line N:
<reason>``, or ``<path>: <reason>`` when no line is at fault.

Writing. :func:`json_text` writes ``json.dumps(indent=2, sort_keys=True)``
text for model files, reports and command output. ``json.dumps`` with an
``indent`` falls back to the standard library's pure-Python encoder,
which spends most of a model file's time yielding one chunk per float;
``json_text`` writes the same bytes with one join per container, and one
join of ``float.__repr__`` per all-float list. :func:`csv_text` writes
CSV rows with LF line ends. :func:`write_text` puts any of these into a
file as UTF-8 through a hidden file that then replaces the target: a
failure at any point, from text with no UTF-8 form to a full disk, leaves
an earlier file at the path as it was. A killed process can leave the
hidden file behind; a special file, or a writable file in a directory
the user may not write to, is written in place.

The module imports nothing numerical.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import os
import stat
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _string
from operator import is_
from pathlib import Path

__all__ = ["InputError", "csv_text", "json_text", "parse_json", "read_text", "write_text"]

_INDENT = "  "


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
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` plus a newline.

    Types are tried in ``json.dumps``'s order: str, None, bool, int and
    float (subclasses included, written as their base type), then list or
    tuple, then dict. Containers must not hold themselves.

    Raises:
        ValueError: on a NaN or infinite float.
        TypeError: on any other type, or a dict key that is not a str,
            int, float, bool or None.
    """
    return _value(obj, "\n") + "\n"


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


def _value(o, newline: str) -> str:
    """``o`` as JSON whose nested lines start with ``newline``."""
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
    inner = newline + _INDENT
    separator = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        try:  # float.__repr__ takes floats and their subclasses only
            body = separator.join(map(float.__repr__, o))
        except TypeError:
            body = separator.join([_value(v, inner) for v in o])
        else:
            if "n" in body:  # a nan or an inf: raise as for a lone float
                for v in o:
                    _float(v)
        return "[" + inner + body + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = separator.join(
            [_key(k) + ": " + _value(v, inner) for k, v in sorted(o.items())]
        )
        return "{" + inner + body + newline + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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
        head = e.object[: e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise InputError(path, f"not UTF-8 text ({e.reason})", line) from None


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


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, with no newline translation.

    The whole text is encoded first, then written to a new hidden file
    beside the target, which ``os.replace`` puts in the target's place.
    So no failure, be it text with no UTF-8 form, such as a lone
    surrogate, or a full disk, leaves a half-written target: it keeps its
    earlier bytes, and the hidden file is removed. A process killed while
    it writes can leave the hidden ``.<name>.<hex>.tmp`` file behind, and
    nothing is synced to disk, so a power cut can lose either file.

    A symlink is followed to the file it names. A new file gets the
    permission bits a plain ``open`` would give it, and a replaced file
    keeps its own, but not its owner, group, ACLs or extended attributes,
    nor its other hard links, which keep the earlier bytes. A target that
    exists but is not a regular file, such as a FIFO, a terminal or a
    pipe named by ``/proc/self/fd/N``, is written in place. So is a
    writable file that cannot be replaced, as in a directory the user may
    not write to; such a write is not atomic.

    Raises:
        ValueError: naming ``path`` if ``text`` cannot be encoded.
        OSError: naming ``path`` if it cannot be written, as ``open`` would,
            including a read-only regular file.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise ValueError(f"cannot write {path}: {e}") from e
    try:  # stat follows /proc's links to pipes, which realpath cannot
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        Path(path).write_bytes(data)
        return
    if st is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
    try:
        _replace(os.path.realpath(path), data, None if st is None else stat.S_IMODE(st.st_mode))
    except OSError as e:
        if st is None or not isinstance(e, PermissionError):
            # name the target, not the hidden file
            raise OSError(e.errno, e.strerror, os.fspath(path)) from None
        Path(path).write_bytes(data)  # in place, as open() would


def _replace(target: str, data: bytes, mode: int | None) -> None:
    """Put ``data`` at ``target`` through a hidden file in its directory,
    with permission bits ``mode``, or ``open``'s for a new file."""
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL: never write through a file or link that is already there;
    # mode 0o666 less the umask, as open() gives a new file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            if mode is not None:
                os.chmod(tmp, mode)
            f.write(data)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
