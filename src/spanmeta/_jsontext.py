"""Indent-2 JSON text for model files, reports and command output.

``json.dumps`` with an ``indent`` falls back to the standard library's
pure-Python encoder, which spends most of a model file's time yielding
one chunk per float. :func:`json_text` writes the same bytes with one
join per container, and one join of ``float.__repr__`` per all-float list.
:func:`write_text` puts that text, or any other, into a file. The module
imports nothing numerical.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

__all__ = ["json_text", "write_text"]

_INDENT = "  "


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


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, with no newline translation.

    The whole text is encoded before the file is opened, so text with no
    UTF-8 form, such as a lone surrogate, leaves an earlier file intact.

    Raises:
        ValueError: naming ``path`` if ``text`` cannot be encoded.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise ValueError(f"cannot write {path}: {e}") from e
    Path(path).write_bytes(data)
