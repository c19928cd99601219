"""Property tests of the corpus boundary: arbitrary file content in, a
``Corpus`` or a ``CorpusFormatError`` out, and never a traceback from the CLI.

A JSONL file is a few documents whose ids, span types and offsets are now
and then a look-alike of another JSON type, in which one value anywhere may
have its key removed or be replaced by arbitrary JSON (nulls, bools, floats,
nested lists), plus now and then a line that is not JSON at all, so the
generator reaches each check of the reader and of the data model.
A TSV file is rows of a surface, a label and features, each cell short text
that now and then is empty or holds a carriage return, mixed with blank
lines and lines of one cell.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from spanmeta import Corpus, CorpusFormatError, read_corpus, write_corpus
from spanmeta.cli import main

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(-2, 6, allow_nan=False)
    | st.sampled_from([1e400, -0.0, 2**70])
    | st.text('ab"\\é\t\n\x00', max_size=3)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "surface", "type", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _mostly(strategy, other):
    """Most draws from ``strategy``, now and then one from ``other``. ``one_of``
    would merge repeated branches, so repeating one does not weight it, and
    Hypothesis favours the lower bound of an integer range, so ``other`` is
    chosen at the upper one."""
    return st.integers(0, 5).flatmap(lambda i: other if i == 5 else strategy)


_NOW_AND_THEN = _mostly(st.just(False), st.just(True))
_NAME = st.text("abé \t\x85", min_size=1, max_size=2)


def _look_alikes(value) -> list:
    """Values of another JSON type that a careless writer might put in its place."""
    if isinstance(value, int):  # a bool or float equal to 0 or 1 passes a range check
        return [bool(value), float(value), str(value), None]
    return [None, 7, [value]]


@st.composite
def _document(draw) -> dict:
    """A document in the JSONL layout, well formed but for its id, span types
    and offsets: each is now and then a look-alike of another type (``true``
    or ``1.0`` for ``1``, ``"1"``, ``null``, ``["t"]``)."""

    def odd(value):
        return draw(_mostly(st.just(value), st.sampled_from(_look_alikes(value))))

    n = draw(st.integers(1, 5))
    tokens = []
    for _ in range(n):
        tokens.append({"surface": draw(_NAME), "features": draw(st.lists(_NAME, max_size=2))})
    spans, pos = [], 0
    while pos < n and draw(st.booleans()):
        start = draw(st.integers(pos, n - 1))
        end = draw(st.integers(start + 1, n))
        span_type = draw(st.sampled_from(["t", "u", "B-t", "é\t"]))
        spans.append({"type": odd(span_type), "start": odd(start), "end": odd(end)})
        pos = end
    return {"id": odd(draw(st.text("dé", max_size=2))), "tokens": tokens, "spans": spans}


def _slots(value):
    """Every (container, key) pair inside a JSON value, depth first."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return
    for key, child in items:
        yield value, key
        yield from _slots(child)


@st.composite
def _jsonl(draw) -> str:
    documents = draw(st.lists(_document(), max_size=3))
    slots = list(_slots(documents))
    if slots and draw(_NOW_AND_THEN):
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JSON)
    lines = [json.dumps(value, ensure_ascii=False) for value in documents]
    if draw(_NOW_AND_THEN):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text('{}[]":, a1', max_size=6)))
    return "".join(line + "\n" for line in lines)


_CELL = _mostly(st.text("aé \x85", min_size=1, max_size=2), st.sampled_from(["", "\r", "a\rb"]))
_LABEL = _mostly(
    st.sampled_from(["O", "B-t", "I-t", "B-u", "I-u"]), st.sampled_from(["B-", "t"]) | _CELL
)
_ROW = st.builds(
    lambda surface, label, features: "\t".join([surface, label, *features]),
    _CELL,
    _LABEL,
    st.lists(_CELL, max_size=2),
)
_TSV = st.lists(_mostly(_ROW, st.just("") | _CELL), max_size=8).map("\n".join)


def _read(path, fmt):
    """The corpus read, or None if the reader refused the file."""
    try:
        corpus = read_corpus(path, format=fmt)
    except CorpusFormatError:
        return None
    assert isinstance(corpus, Corpus)
    return corpus


def _assert_round_trips(corpus: Corpus, path, fmt: str) -> None:
    write_corpus(corpus, path, format=fmt)
    back = read_corpus(path, format=fmt)
    assert back.documents == corpus.documents
    assert back.span_type_inventory == corpus.span_type_inventory


def _run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI run in process; an exception
    that ``main`` does not handle, which would print a traceback, propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} in output")


def _assert_cli_handles(path, fmt: str) -> None:
    for argv in (
        ["profile", str(path)],
        ["eval", "--gold", str(path), "--pred", str(path)],
    ):
        code, out, err = _run([*argv, "--input-format", fmt])
        assert code in (0, 1), err
        if code == 0:  # strict JSON: no NaN or Infinity either
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == "" and err.startswith("spanmeta: error: ")


class TestJsonl:
    @settings(max_examples=300, deadline=None)
    @given(_jsonl())
    def test_read_returns_a_corpus_or_refuses(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_text(text, encoding="utf-8")
        corpus = _read(path, "jsonl")
        if corpus is not None:
            _assert_round_trips(corpus, tmp_path_factory.getbasetemp() / "back.jsonl", "jsonl")

    @settings(max_examples=50, deadline=None)
    @given(_jsonl())
    def test_cli_exits_0_or_1_without_traceback(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz-cli.jsonl"
        path.write_text(text, encoding="utf-8")
        _assert_cli_handles(path, "jsonl")


class TestConllTsv:
    @settings(max_examples=150, deadline=None)
    @given(_TSV)
    def test_read_returns_a_corpus_or_refuses(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.tsv"
        path.write_text(text, encoding="utf-8")
        corpus = _read(path, "conll_tsv")
        if corpus is not None:
            _assert_round_trips(corpus, tmp_path_factory.getbasetemp() / "back.tsv", "conll_tsv")

    @settings(max_examples=50, deadline=None)
    @given(_TSV)
    def test_cli_exits_0_or_1_without_traceback(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz-cli.tsv"
        path.write_text(text, encoding="utf-8")
        _assert_cli_handles(path, "conll_tsv")
