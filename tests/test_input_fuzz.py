"""Property tests of the input boundaries: arbitrary file content or flag
text in, and out a result or a refusal, never a traceback.

The corpus readers return a ``Corpus`` or raise ``CorpusFormatError``.
The command line exits 0, 1 or 2 with no traceback, and on exit 0 what it
printed parses as strict JSON; that is checked for corpora, meta-model
files, observation CSVs, ``train --config`` files and the numeric flags of
``meta predict`` and ``meta select-alpha --grid``. A refusal leaves an
earlier ``--out`` file as it was. Where ``read_corpus``,
``observations_from_csv`` or ``meta_model_from_dict`` refuses a file in
process, the command line prints that refusal, named by the file, as its
one error line.

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
import dataclasses
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from spanmeta import Corpus, CorpusFormatError, Span, read_corpus, write_corpus
from spanmeta._jsontext import parse_json, read_text
from spanmeta.cli import main
from spanmeta.meta import meta_model_from_dict, observations_from_csv
from spanmeta.seqlab import TrainConfig

from helpers import make_doc

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
    except CorpusFormatError as e:
        assert str(e).startswith(f"{path}: "), e
        return None
    assert isinstance(corpus, Corpus)
    return corpus


def _refusal(read, path) -> str | None:
    """The text of ``read()``'s refusal, which must name ``path`` first;
    None if ``read()`` returns."""
    try:
        read()
    except ValueError as e:
        assert str(e).startswith(f"{path}: "), e
        return str(e)
    return None


def _assert_refused_as(refusal: str | None, code, err: str) -> None:
    """A file the reader refused in process is refused by the command line
    with that refusal as its one error line."""
    if refusal is not None:
        assert (code, err) == (1, f"spanmeta: error: {refusal}\n")


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
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refused a flag
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} in output")


def _assert_clean(code, out: str, err: str) -> None:
    """Exit 0 with strict JSON on stdout (no NaN or Infinity either), or a
    refusal with nothing on stdout; no traceback either way."""
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    event(f"exit {code}")
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and err.splitlines()[-1].startswith("spanmeta"), err


def _assert_cli_handles(path, fmt: str) -> None:
    # eval reads its gold file first, and strictly, as read_corpus does here
    refusal = _refusal(lambda: read_corpus(path, format=fmt), path)
    for argv in (
        ["profile", str(path)],
        ["eval", "--gold", str(path), "--pred", str(path)],
    ):
        code, out, err = _run([*argv, "--input-format", fmt])
        assert code in (0, 1), err
        _assert_clean(code, out, err)
        if code:
            assert err.startswith("spanmeta: error: ")
        _assert_refused_as(refusal, code, err)


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


# ---------------------------------------------------------------------------
# meta-model files, observation CSVs, train --config files and numeric flags


def _mutated(data, value):
    """``value`` with now and then one slot replaced by arbitrary JSON or a
    look-alike, or a dict key removed."""
    slots = list(_slots(value))
    if slots and data.draw(st.booleans()):
        container, key = data.draw(st.sampled_from(slots))
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            old = container[key]
            looks = _look_alikes(old) if isinstance(old, (int, str)) else [None, "1"]
            container[key] = data.draw(st.sampled_from(looks) | _JSON)
    return value


def _damaged(data, text: str) -> str:
    """``text`` now and then cut short, or with a few characters spliced in."""
    if data.draw(_NOW_AND_THEN):
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + data.draw(st.text('{}[]":,\n\r0e-', max_size=3))
    return text


@pytest.fixture(scope="module")
def meta_files(tmp_path_factory):
    from spanmeta import load_embedded, to_observations
    from spanmeta.meta import observations_to_csv

    root = tmp_path_factory.mktemp("meta-fuzz")
    model = root / "model.json"
    assert _run(["meta", "fit", "--out", str(model)])[0] == 0
    # seven span types: enough for every leave-one-type-out fold to be full rank
    observations = to_observations(load_embedded())
    kept = sorted({o.span_type_id for o in observations})[:7]
    obs = root / "obs.csv"
    observations_to_csv([o for o in observations if o.span_type_id in kept], obs)
    corpus = root / "tiny.jsonl"
    docs = [make_doc(f"d{i}", ["a", "per", "son", "b"], [Span("p", 1, 3)]) for i in range(4)]
    write_corpus(Corpus(tuple(docs), ("p",)), corpus)
    return {"root": root, "model": model, "obs": obs, "corpus": str(corpus)}


_ARCH_FLAGS = st.lists(st.sampled_from(["--feat", "--crf", "--lstm", "--bert"]), unique=True)
# number-like text that a flag refuses, or that float() and int() accept
# though a user might not mean it, or that lies at the edge of a range
_ODD_NUMBER = st.sampled_from(
    ["0", "-1", "1e400", "-0.0", "nan", "inf", "-inf", "1e-320", "1_000", " 7 ", "٣",
     "", "x", "0x10", "1" + "0" * 400, "1" + "0" * 5000, "1e308"]
)
_PROFILE_FLAGS = {
    "--freq": _mostly(st.integers(1, 10**6).map(str), _ODD_NUMBER),
    "--length": _mostly(st.floats(1, 20).map(repr), _ODD_NUMBER),
    "--sd": _mostly(st.floats(0, 10).map(repr), _ODD_NUMBER),
    "--bd": _mostly(st.floats(0, 10).map(repr), _ODD_NUMBER),
}
# select-alpha's padding lies in [0, 0.5)
_ALPHA = _mostly(st.floats(0, 0.49).map(repr), _ODD_NUMBER)


class TestMetaModelFiles:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_predict_exits_cleanly(self, meta_files, data):
        model = _mutated(data, json.loads(meta_files["model"].read_text("utf-8")))
        text = _damaged(data, json.dumps(model, indent=data.draw(st.sampled_from([None, 2]))))
        path = meta_files["root"] / "fuzz-model.json"
        path.write_text(text, encoding="utf-8")
        argv = ["meta", "predict", "--model", str(path), "--freq", "50", "--length", "2",
                "--sd", "1", "--bd", "1", *data.draw(_ARCH_FLAGS)]
        code, out, err = _run(argv)
        _assert_clean(code, out, err)
        try:  # the dict reader knows no path: the command line puts it first
            # read back as the command reads it, each "\r" a line end
            meta_model_from_dict(parse_json(read_text(path)))
        except ValueError as e:
            _assert_refused_as(f"{path}: {e}", code, err)


class TestNumericFlags:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_predict_exits_cleanly(self, meta_files, data):
        argv = ["meta", "predict", "--model", str(meta_files["model"]), *data.draw(_ARCH_FLAGS)]
        for flag, value in _PROFILE_FLAGS.items():
            argv += [flag, data.draw(value)]
        _assert_clean(*_run(argv))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_ALPHA, min_size=1, max_size=3).map(",".join))
    def test_select_alpha_grid_exits_cleanly(self, meta_files, grid):
        argv = ["meta", "select-alpha", "--obs", str(meta_files["obs"]), "--grid", grid]
        _assert_clean(*_run(argv))


_OBS_CELL = _mostly(
    st.sampled_from(["0", "1", "12", "0.5", "a"]),
    st.sampled_from(
        ["", "-1", "2", "nan", "inf", "1e400", "1" + "0" * 400, "1.5", "true", '"q,r"', '"a\nb"']
    ),
)


@st.composite
def _obs_csv(draw, text: str) -> str:
    """An observation CSV with now and then one cell replaced, a field added
    or dropped, the header changed or CRLF line ends."""
    lines = text.split("\n")
    if draw(_NOW_AND_THEN):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells)))
        choice = draw(st.integers(0, 2))
        if choice == 0 and j < len(cells):
            cells[j] = draw(_OBS_CELL)
        elif choice == 1:
            cells.insert(j, draw(_OBS_CELL))
        else:
            del cells[j - 1 : j]
        lines[i] = ",".join(cells)
    text = "\n".join(lines)
    if draw(_NOW_AND_THEN):
        text = text.replace("\n", "\r\n")
    return text


class TestObservationCsv:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fit_and_cv_exit_cleanly(self, meta_files, data):
        path = meta_files["root"] / "fuzz-obs.csv"
        path.write_text(data.draw(_obs_csv(meta_files["obs"].read_text("utf-8"))))
        command = data.draw(st.sampled_from(["fit", "cv"]))
        code, out, err = _run(["meta", command, "--obs", str(path)])
        _assert_clean(code, out, err)
        _assert_refused_as(_refusal(lambda: observations_from_csv(path), path), code, err)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_refusal_keeps_an_earlier_out_file(self, meta_files, data):
        path = meta_files["root"] / "fuzz-obs-out.csv"
        path.write_text(data.draw(_obs_csv(meta_files["obs"].read_text("utf-8"))))
        out = meta_files["root"] / "earlier.json"
        out.write_bytes(b"earlier\n")
        code, stdout, err = _run(["meta", "fit", "--obs", str(path), "--out", str(out)])
        _assert_clean(code, "{}" if code == 0 else stdout, err)
        _assert_refused_as(_refusal(lambda: observations_from_csv(path), path), code, err)
        if code == 0:
            json.loads(out.read_text("utf-8"), parse_constant=_reject_constant)
        else:
            assert out.read_bytes() == b"earlier\n"


_OPTIONS = [f.name for f in dataclasses.fields(TrainConfig)]
_CONFIG_LINE = _mostly(
    st.builds(
        "{} = {}".format,
        st.sampled_from(_OPTIONS),
        st.sampled_from(["1", "0", "0.5", "yes", "off", "0.9,0.99", "8"]),
    ),
    st.sampled_from(["", "# note", "unknown = 1", "seed", "=1", "seed = x", "seed = 1.5",
                     "betas = 1", "betas = 0.9,nan", "learning_rate = inf",
                     "learning_rate = 1e300", "dev_fraction = 1", "batch_size = 0",
                     "max_epochs = 500", "eps = -1", "ema_decay = 2"]),
)


class TestTrainConfig:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["baseline", "crf"]), st.lists(_CONFIG_LINE, max_size=4))
    def test_train_exits_cleanly(self, meta_files, arch, lines):
        path = meta_files["root"] / "fuzz.cfg"
        path.write_text("\r\n".join(lines), encoding="utf-8")
        argv = ["train", "--arch", arch, "--train", meta_files["corpus"],
                "--max-epochs", "1", "--seed", "0", "--config", str(path)]
        _assert_clean(*_run(argv))
