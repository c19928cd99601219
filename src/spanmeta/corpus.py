"""Tokenized, span-annotated corpora: data model, BIO tagging, file I/O.

The data model is deliberately small. A ``Document`` is an ordered tuple of
``Token`` objects plus a tuple of non-overlapping, token-indexed ``Span``
annotations, and a ``Corpus`` bundles documents with a span-type inventory
and a partition tag. Everything is immutable after construction, so corpora
can be shared freely between threads. Construction is the one place that
checks what a token, span or document may hold, so readers and writers
rely on it rather than checking again. ``read_corpus`` builds and checks
each distinct token once: equal tokens of one read share one immutable
``Token`` object, whatever the order or repetition of their feature
names. Tokens with equal feature bags share one bag too: the read's
token table keeps each distinct bag, and its name strings, once, and a
new token whose raw feature names the table has filed gets that bag
without a ``frozenset`` being built. So a corpus costs memory by its
distinct tokens, and its bags once each; a bag of five names costs about
as much as the rest of a token. A command that reads two files, such as
``spanmeta eval`` (gold, then predictions) or ``spanmeta train --dev``,
reads both through one token table, so equal tokens and bags of its two
files are one object too, and a token of the second file that the first
one holds is not parsed or checked again.
``write_corpus`` likewise encodes and checks each distinct token once per
call, so writing costs time by the distinct tokens, not the token count.

Reading and writing stream the file. ``_read_documents``, the one parse
path of both formats, reads it one line at a time
(``_jsontext.read_lines``) and yields each document as soon as its line,
or its block of TSV rows, is parsed, so it never holds the file's bytes,
its text or its list of lines; ``read_corpus`` gathers what it yields.
``write_corpus`` encodes and writes one document's line, or its block of
TSV rows, at a time. So a command's memory follows the corpus, which holds
each distinct token once, and not the size of the file; ``spanmeta eval``
walks the generator itself and drops each document once it is scored, so
its memory follows its token table. A file is refused at its first faulty
line; the lines after it are not read.

Reading a JSONL file in the writer's layout, which is ``json.dumps``'s
default for its keys (``{"id": "…", "tokens": [{…}, {…}], "spans": […]}``),
costs time by its distinct token texts as well. Such a line is read
without ``json.loads`` over its tokens. The id is scanned as a JSON
string, and the token array is split at the writer's ``}, {`` separator.
Each piece is looked up in the token table, which is itself the memo
of pieces; a piece not seen before is parsed as the object
``"{" + piece + "}"`` by json's own scanner and checked as any token
is. The members after the array are scanned as ``"{" + rest``. This
is sound because a memo key is only ever a piece whose
``"{" + piece + "}"`` the scanner consumed whole as one JSON object,
and JSON objects are self-delimiting: if every piece of
``[{p1}, {p2}, …]`` is such a text, that text is an array of exactly
those objects, and a parser that starts at its ``[`` stops at its ``]``.
A string that holds ``}, {`` or ``}]`` only cuts pieces into texts that
do not parse. Any line the layout path cannot read goes to ``json.loads``
and the checks it always went through: another layout, a key the writer
does not write (a repeated ``id`` or ``tokens``, of which ``json.loads``
keeps the last, or a nested value that could reach the parser's depth
limit), a token or span that fails a check, or any scanner error. So
every file reads to the same documents, or fails with the same message,
as it would through ``json.loads`` alone.

The memo pays only when texts repeat. A new text costs a scanner call
and a memo entry besides its token, so a file whose texts mostly do not
repeat reads slower, and holds more memory while it is read, than it
would through ``json.loads``. The reader does not choose between the two
paths by repetition. The second file of a shared table repeats the
first's texts wherever the two hold the same tokens, as a predicted file
holds its gold file's.

Sharing a table cannot change what a read returns or refuses: a memo key
is a piece the scanner consumed whole as one token object that passed
the token checks, a ``seen`` key the ``(surface, bag)`` of a token that
was built and checked, and a filed bag a tuple of names that passed the
checks of a token's bag, which do not depend on its surface; a bag is
immutable, so the tokens that hold it cannot tell it from a bag of their
own. None of these facts depends on the file the key came from, and a
read that fails leaves only such keys behind.

``read_corpus`` pauses Python's cyclic garbage collector while it parses
and builds the corpus; ``_read_documents`` leaves it as it finds it, and
``spanmeta eval`` pauses it while it reads and scores its two files. A
parse allocates millions of small objects and no reference cycles; with
the collector on, those allocations trigger full collections whose cost
grows with the corpus, and none of them frees anything that reference
counting does not. The collector is process-wide: another thread may
see it paused for the length of a parse. It is switched back on when the
read ends, by return or by error, and only if it was on when the read
began, so a caller that disabled it keeps it disabled.

A ``Corpus`` indexes its spans by type on first use (``Corpus._spans_by_type``),
so the per-type measurements in ``metrics`` cost time by the spans of one
type rather than by the whole corpus.

Two interchange formats are supported:

* JSONL: one document per line, each a JSON object with ``id``, ``tokens``
  (surface plus a feature list) and ``spans`` (type, start, end).
* CoNLL-style TSV: one token per row with columns surface, BIO label, and
  optional feature columns; documents are separated by blank lines.

Writing is deterministic (feature bags are emitted sorted), so a
write/read/write cycle is byte-stable.
"""

from __future__ import annotations

import gc
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.decoder import JSONDecoder, scanstring
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ._jsontext import InputError, parse_json, read_lines, write_text

__all__ = [
    "PARTITIONS",
    "OUTSIDE",
    "CorpusFormatError",
    "Token",
    "Span",
    "Document",
    "Corpus",
    "BioSequence",
    "bio_labels",
    "bio_encode",
    "bio_decode",
    "read_corpus",
    "write_corpus",
]

PARTITIONS = ("train", "dev", "test")

#: The outside label of the BIO alphabet.
OUTSIDE = "O"

_FORMATS = ("jsonl", "conll_tsv")
_DECODE_MODES = ("strict", "lenient")

#: The feature bag of every token with no features: one set, not one per token.
_NO_FEATURES: frozenset[str] = frozenset()


class CorpusFormatError(InputError):
    """A corpus file does not parse under the declared format.

    Its text is ``<path>: line N: <reason>``, as for every refused file
    (see ``_jsontext.InputError``).
    """


@dataclass(frozen=True)
class Token:
    """A single token: a surface form plus a bag of named features.

    The surface must be non-empty, and so must every feature name; the
    feature bag may be empty, and every empty one is the same set. The
    bag is a collection of names: a string is refused, not read as a bag
    of its letters. Tokens may share one bag object, as the tokens of one
    read with equal bags do, since a bag is immutable.
    """

    surface: str
    features: frozenset[str] = _NO_FEATURES

    def __post_init__(self) -> None:
        if not isinstance(self.surface, str) or not self.surface:
            raise ValueError("token surface must be a non-empty string")
        message = "feature names must be non-empty strings"
        features = self.features
        if not isinstance(features, frozenset):
            if isinstance(features, str):
                raise ValueError("token features must be a collection of names, not a string")
            try:
                features = frozenset(features)
            except TypeError:  # an unhashable entry, such as a list
                raise ValueError(message) from None
        if not features:
            features = _NO_FEATURES
        elif any(not isinstance(f, str) or not f for f in features):
            raise ValueError(message)
        if features is not self.features:
            object.__setattr__(self, "features", features)


@dataclass(frozen=True)
class Span:
    """A typed, token-indexed, half-open interval ``[start, end)``.

    The type id must be a non-empty string and the offsets exactly ``int``:
    a ``bool`` or ``float`` offset is rejected.
    """

    type_id: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not isinstance(self.type_id, str) or not self.type_id:
            raise ValueError(f"span type id must be a non-empty string, got {self.type_id!r}")
        if type(self.start) is not int or type(self.end) is not int:
            raise ValueError(
                f"span offsets must be ints, got start={self.start!r}, end={self.end!r}"
            )
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"invalid span bounds [{self.start}, {self.end}): "
                "need 0 <= start < end"
            )

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Document:
    """An identified token sequence with non-overlapping typed spans.

    Spans are stored sorted by start offset. Construction rejects an id
    that is not a string and spans that run past the end of the document
    or overlap one another, so a ``Document`` that exists is always well
    formed.
    """

    id: str
    tokens: tuple[Token, ...]
    spans: tuple[Span, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.id, str):
            raise ValueError(f"document id must be a string, got {self.id!r}")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        spans = tuple(sorted(self.spans, key=lambda s: (s.start, s.end, s.type_id)))
        object.__setattr__(self, "spans", spans)
        n = len(self.tokens)
        for s in spans:
            if s.end > n:
                raise ValueError(
                    f"document {self.id!r}: span {s.type_id}@[{s.start},{s.end}) "
                    f"exceeds document length {n}"
                )
        for prev, cur in zip(spans, spans[1:]):
            if cur.start < prev.end:
                raise ValueError(
                    f"document {self.id!r}: overlapping spans "
                    f"{prev.type_id}@[{prev.start},{prev.end}) and "
                    f"{cur.type_id}@[{cur.start},{cur.end})"
                )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """Documents plus a span-type inventory and a partition tag."""

    documents: tuple[Document, ...]
    span_type_inventory: tuple[str, ...]
    partition: str = "train"

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        object.__setattr__(
            self, "span_type_inventory", tuple(self.span_type_inventory)
        )
        if self.partition not in PARTITIONS:
            raise ValueError(
                f"partition must be one of {PARTITIONS}, got {self.partition!r}"
            )
        if len(set(self.span_type_inventory)) != len(self.span_type_inventory):
            raise ValueError("span type inventory contains duplicates")
        known = set(self.span_type_inventory)
        for doc in self.documents:
            for s in doc.spans:
                if s.type_id not in known:
                    raise ValueError(
                        f"document {doc.id!r} uses span type {s.type_id!r} "
                        "missing from the inventory"
                    )

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    def __getstate__(self) -> dict:
        """The instance state less the span index, which a copy rebuilds on first use.

        So a pickle, a copy and a deep copy are the same whether or not
        the index was built.
        """
        state = dict(vars(self))
        state.pop("_spans_by_type", None)
        return state

    @cached_property
    def _spans_by_type(self) -> dict[str, tuple[tuple[Document, Span], ...]]:
        """Each span type's ``(document, span)`` pairs, in document order.

        Built once, on first use, in one pass over the corpus; a type with
        no spans has no entry. The cache lives in the instance ``__dict__``,
        not in a dataclass field, so equality, hash and repr ignore it. Two
        threads that ask at once may each build it; they build equal ones.
        """
        index: dict[str, list[tuple[Document, Span]]] = {}
        for doc in self.documents:
            for s in doc.spans:
                index.setdefault(s.type_id, []).append((doc, s))
        return {t: tuple(pairs) for t, pairs in index.items()}


# ---------------------------------------------------------------------------
# BIO tagging


def bio_labels(inventory: Sequence[str]) -> tuple[str, ...]:
    """Label alphabet for an inventory of n types: O plus B/I per type, 2n+1 labels."""
    labels = [OUTSIDE]
    for t in inventory:
        labels.append(f"B-{t}")
        labels.append(f"I-{t}")
    return tuple(labels)


@dataclass(frozen=True)
class BioSequence:
    """Per-token BIO labels for one document."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)


def bio_encode(doc: Document, inventory: Sequence[str]) -> BioSequence:
    """Encode a document's spans as one BIO label per token.

    The first token of each span gets ``B-type``, the remaining tokens get
    ``I-type``, and everything else is ``O``. Adjacent spans of the same
    type stay distinguishable because the second one starts with its own B.

    Raises:
        ValueError: if a span's type is missing from ``inventory``.
    """
    known = set(inventory)
    labels = [OUTSIDE] * len(doc)
    for s in doc.spans:
        if s.type_id not in known:
            raise ValueError(f"unknown span type {s.type_id!r}")
        labels[s.start] = f"B-{s.type_id}"
        for i in range(s.start + 1, s.end):
            labels[i] = f"I-{s.type_id}"
    return BioSequence(tuple(labels))


def bio_decode(
    seq: BioSequence | Sequence[str], mode: str = "strict"
) -> list[Span]:
    """Recover spans from a BIO label sequence.

    In strict mode an I label that does not continue an open span of the
    same type is an error. In lenient mode such a label opens a new span,
    as if it had been a B; this is the conventional repair for sequence
    models that emit stray continuations.
    """
    if mode not in _DECODE_MODES:
        raise ValueError(f"decode mode must be one of {_DECODE_MODES}, got {mode!r}")
    labels = tuple(seq.labels if isinstance(seq, BioSequence) else seq)
    spans: list[Span] = []
    open_type: str | None = None
    open_start = 0

    def close(end: int) -> None:
        nonlocal open_type
        if open_type is not None:
            spans.append(Span(open_type, open_start, end))
            open_type = None

    for i, lab in enumerate(labels):
        if lab == OUTSIDE:
            close(i)
        elif lab.startswith("B-") and len(lab) > 2:
            close(i)
            open_type, open_start = lab[2:], i
        elif lab.startswith("I-") and len(lab) > 2:
            t = lab[2:]
            if open_type != t:
                if mode == "strict":
                    raise ValueError(
                        f"position {i}: stray continuation label {lab!r} "
                        f"(open span: {open_type!r})"
                    )
                close(i)
                open_type, open_start = t, i
        else:
            raise ValueError(f"position {i}: not a BIO label: {lab!r}")
    close(len(labels))
    return spans


# ---------------------------------------------------------------------------
# File I/O


def write_corpus(corpus: Corpus, path: str | Path, format: str = "jsonl") -> None:
    """Serialize a corpus to ``path`` in the given format (UTF-8, LF), one
    document at a time.

    ``conll_tsv`` keeps neither document ids nor empty documents, and its
    columns cannot hold a tab, line feed or carriage return, so a document
    with no tokens, or such a character in a surface, span type or feature
    name, raises ``ValueError`` naming the document and token position, as
    does a first surface that starts with a byte-order mark, which the
    reader drops. ``jsonl`` holds all of these. Text with no UTF-8 form,
    such as a lone surrogate read from a ``\\ud800`` escape, raises
    ``ValueError`` naming ``path``. A write that fails for any reason
    leaves an earlier file there as it was (see ``_jsontext.write_text``).
    """
    if format == "jsonl":
        pieces = _to_jsonl(corpus)
    elif format == "conll_tsv":
        pieces = _to_conll_tsv(corpus)
    else:
        raise ValueError(f"corpus format must be one of {_FORMATS}, got {format!r}")
    write_text(path, pieces)


def read_corpus(
    path: str | Path,
    format: str = "jsonl",
    *,
    partition: str = "train",
    decode_mode: str = "strict",
    _tokens: _TokenTable | None = None,
) -> Corpus:
    """Parse a corpus file.

    The corpus holds the documents that ``_read_documents`` yields, one
    per JSONL line or TSV block as each is parsed: that generator is the
    one parse path of both formats, and ``spanmeta eval`` walks it itself,
    so that it holds no whole corpus.

    Document ids are strings and span offsets are ints; both are checked
    when each ``Document`` and ``Span`` is built, as every other invariant
    of the data model is. The span-type inventory is always derived, in
    order of first appearance, and no span is ever dropped: a span that
    does not fit its document makes the whole read fail. The partition tag
    is not representable in the file formats, so it is supplied here.

    The cyclic garbage collector is paused for the parse and the
    construction of the corpus, and switched back on afterwards only if it
    was on at entry (see the module docstring). The pause is process-wide,
    so another thread may see the collector off for the length of the read.

    Args:
        path: file to read.
        format: ``jsonl`` or ``conll_tsv``.
        partition: partition tag for the returned corpus.
        decode_mode: BIO decode mode for the TSV label column.
        _tokens: private; the ``_TokenTable`` of an earlier read of the
            same command, so that equal tokens and bags across its reads
            are one object each, each token parsed and checked once. A
            fresh table by default.

    Raises:
        CorpusFormatError: at the first faulty line, the lines after it
            unread: bytes that are not UTF-8 or malformed content, naming
            ``path`` and that line; for a TSV label sequence that does not
            decode, the line of its document's first row. Span errors also
            carry the document id.
    """
    table = _TokenTable() if _tokens is None else _tokens
    with _gc_paused():
        docs = tuple(_read_documents(path, format, table, decode_mode))
        return Corpus(docs, _derive_inventory(docs), partition)


def _read_documents(
    path: str | Path, format: str, table: _TokenTable, decode_mode: str = "strict"
) -> Iterator[Document]:
    """The documents of the corpus file at ``path``, each yielded as soon as
    its JSONL line or TSV block is parsed, through the token table ``table``.

    This is ``read_corpus``'s one parse path: it refuses what
    ``read_corpus`` refuses, at the same line, once the documents before
    that line are yielded. It leaves the collector as it finds it.
    """
    if format not in _FORMATS:
        raise ValueError(f"corpus format must be one of {_FORMATS}, got {format!r}")
    try:
        with closing(read_lines(path)) as lines:
            if format == "jsonl":
                yield from _parse_jsonl(lines, path, table)
            else:
                yield from _parse_conll_tsv(lines, path, decode_mode, table)
    except CorpusFormatError:
        raise
    except InputError as e:  # bytes that are not UTF-8
        raise CorpusFormatError(*e.args) from None


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic collector; re-enable it only if it was enabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _derive_inventory(docs: Iterable[Document]) -> tuple[str, ...]:
    seen: set[str] = set()
    inv: list[str] = []
    for doc in docs:
        for s in doc.spans:
            if s.type_id not in seen:
                seen.add(s.type_id)
                inv.append(s.type_id)
    return tuple(inv)


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``, so each distinct
    key costs one call; ``map(memo.__getitem__, keys)`` looks keys up in C."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# The JSONL layout: ``json.dumps``'s default for these keys, written by
# ``_to_jsonl`` and read without ``json.loads`` by ``_TokenTable``.
_JSONL_ID = '{"id": '
_JSONL_TOKENS = ', "tokens": ['
_JSONL_SPANS = '"spans": ['
_JSONL_ITEMS = ", "  # between array items and between an object's members


def _token_json(token: Token) -> str:
    features = _JSONL_ITEMS.join(map(encode_basestring, sorted(token.features)))
    return f'{{"surface": {encode_basestring(token.surface)}, "features": [{features}]}}'


def _to_jsonl(corpus: Corpus) -> Iterator[str]:
    """One ``json.dumps(..., ensure_ascii=False)`` line per document, with its
    line end, assembled from each distinct token's and span type's text,
    encoded once per call."""
    tokens = _Memo(_token_json)
    span_heads = _Memo(lambda type_id: f'{{"type": {encode_basestring(type_id)}, "start": ')
    for doc in corpus.documents:
        spans = _JSONL_ITEMS.join(
            [
                f'{span_heads[s.type_id]}{s.start}, "end": {s.end}}}'
                for s in doc.spans
            ]
        )
        yield (
            f"{_JSONL_ID}{encode_basestring(doc.id)}"
            f"{_JSONL_TOKENS}{_JSONL_ITEMS.join(map(tokens.__getitem__, doc.tokens))}]"
            f"{_JSONL_ITEMS}{_JSONL_SPANS}{spans}]}}\n"
        )


# the token array's item separator, its end, and the opening of the id string
_TOKEN_SPLIT = "}" + _JSONL_ITEMS + "{"
_TOKENS_END = "}]" + _JSONL_ITEMS
_ID_OPEN = _JSONL_ID + '"'
_TOKEN_KEYS = frozenset({"surface", "features"})
# scan_once(text, 0) -> (value, end), as json.loads scans, with no check
# that the value fills the text
_scan_once = make_scanner(JSONDecoder())


class _TokenTable(dict):
    """The token table of one command's reads, for both formats: each
    distinct token and feature bag, and each distinct token text of
    ``_to_jsonl``'s layout. ``read`` reads a line in that layout, each
    distinct token text once, and returns None for any line it cannot read.

    As a dict, the table maps each token's text between the layout's
    separators, such as ``"surface": "w1", "features": []``, to its token;
    a text not seen before is parsed and checked by ``_piece_token``. The
    table holds no reference to itself, so it is freed as soon as its
    command lets go of it. ``seen`` maps each ``(surface, bag)`` to its
    token, one entry per distinct token. ``bags`` maps each raw tuple of
    feature names, and each bag's sorted names, to the table's one bag of
    those names, so that every token of the table with an equal bag holds
    that one ``frozenset``. Only a bag that passed ``Token``'s checks is
    filed.
    """

    __slots__ = ("seen", "bags")

    def __init__(self) -> None:
        super().__init__()
        self.seen: dict[tuple[str, frozenset[str]], Token] = {}
        self.bags: dict[tuple, frozenset[str]] = {}

    def __missing__(self, text: str) -> Token:
        token = self[text] = _piece_token(self, text)
        return token

    def read(self, line: str) -> Document | None:
        try:
            return self._parse(line)
        except (ValueError, StopIteration, RecursionError):
            return None

    def _parse(self, line: str) -> Document | None:
        if not line.startswith(_ID_OPEN):
            return None
        doc_id, at = scanstring(line, len(_ID_OPEN))
        if not line.startswith(_JSONL_TOKENS, at):
            return None
        at += len(_JSONL_TOKENS)
        if line.startswith("]" + _JSONL_ITEMS, at):
            tokens = ()
            at += 1 + len(_JSONL_ITEMS)
        else:
            end = line.find(_TOKENS_END, at)
            if end < 0 or not line.startswith("{", at):
                return None
            texts = line[at + 1 : end].split(_TOKEN_SPLIT)
            tokens = tuple(map(self.__getitem__, texts))
            at = end + len(_TOKENS_END)
        # the members after the array, as an object of their own: the one
        # member the writer writes, since "{}" would parse where ", }" does not
        rest, end = _scan_once("{" + line[at:], 0)
        if end != len(line) - at + 1 or rest.keys() != {"spans"}:
            return None
        doc = _document(doc_id, tokens, rest)
        # each span object holds type, start and end, as _document found,
        # and nothing else
        spans = rest["spans"]
        return doc if sum(map(len, spans)) == 3 * len(spans) else None


def _token(table: _TokenTable, surface: str, features: list) -> Token:
    """The token with this surface and these features, built and checked
    on first sight; later sightings through the same table reuse that object.

    The bag is the table's, found by the raw names, so that a bag seen
    before costs no ``frozenset``; a bag not seen before is checked, with
    the surface, as ``Token`` checks any, and filed only if it passes. The
    token is then found by its surface and bag, so names in another order
    or repeated give the same object."""
    bags = table.bags
    try:
        bag = bags.get(raw := tuple(features))
    except TypeError:  # an unhashable entry, such as a list: Token rejects it
        return Token(surface, features)
    if bag is None:
        bag = Token(surface, features).features
        bag = bags[raw] = bags.setdefault(tuple(sorted(bag)), bag)
    seen = table.seen
    try:
        token = seen.get(key := (surface, bag))
    except TypeError:  # an unhashable surface: Token rejects it
        return Token(surface, bag)
    if token is None:
        token = seen[key] = Token(surface, bag)
    return token


def _piece_token(table: _TokenTable, text: str) -> Token:
    """The token whose object is ``{`` + ``text`` + ``}``, checked as
    ``_document_from_obj`` checks a token; ValueError for any other text."""
    try:
        tk, end = _scan_once("{" + text + "}", 0)
    except StopIteration:  # not a value: StopIteration would end map() early
        raise ValueError("not a token object") from None
    # the writer's keys only, so no value nests deeper than the layout's:
    # a deep value goes to parse_json, which alone decides how deep is too deep
    if end != len(text) + 2 or not tk.keys() <= _TOKEN_KEYS:
        raise ValueError("not one token object in the layout")
    return _tokens_from_objs([tk], table, None)[0]


def _parse_jsonl(lines: Iterable[str], path, table: _TokenTable) -> Iterator[Document]:
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        doc = table.read(line)
        if doc is None:
            try:
                doc = _document_from_obj(parse_json(line), table)
            except ValueError as e:
                raise CorpusFormatError(path, str(e), lineno) from e
        yield doc


def _document_from_obj(obj: object, table: _TokenTable) -> Document:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object per line")
    doc_id = obj.get("id")
    raw_tokens = obj.get("tokens")
    if not isinstance(raw_tokens, list):
        raise ValueError(f"document {doc_id!r}: missing or non-list 'tokens'")
    return _document(doc_id, _tokens_from_objs(raw_tokens, table, doc_id), obj)


def _tokens_from_objs(entries: list, table: _TokenTable, doc_id) -> list[Token]:
    """The tokens of parsed token entries of document ``doc_id``, each
    checked as both JSONL readers check an entry."""
    tokens = []
    for tk in entries:
        if not isinstance(tk, dict):
            raise ValueError(f"document {doc_id!r}: malformed token entry")
        feats = tk.get("features", [])
        if not isinstance(feats, list):  # an object would pass as the bag of its keys
            raise ValueError(f"document {doc_id!r}: malformed feature list")
        tokens.append(_token(table, tk.get("surface"), feats))
    return tokens


def _document(doc_id, tokens: Sequence[Token], obj: dict) -> Document:
    """The document of ``doc_id`` and ``tokens`` with the spans of ``obj``."""
    raw_spans = obj.get("spans", [])
    if not isinstance(raw_spans, list):
        raise ValueError(f"document {doc_id!r}: non-list 'spans'")
    spans = []
    for sp in raw_spans:
        if not isinstance(sp, dict):
            raise ValueError(f"document {doc_id!r}: malformed span entry")
        try:
            spans.append(Span(sp.get("type"), sp.get("start"), sp.get("end")))
        except ValueError as e:
            raise ValueError(f"document {doc_id!r}: {e}") from None
    return Document(doc_id, tuple(tokens), tuple(spans))


def _holds_tsv_separator(text: str) -> bool:
    return "\t" in text or "\n" in text or "\r" in text


def _tsv_cells(token: Token) -> tuple[str, str] | None:
    """A token's row text before and after its label, or None if TSV cannot hold it."""
    features = sorted(token.features)
    if _holds_tsv_separator(token.surface) or any(map(_holds_tsv_separator, features)):
        return None
    return token.surface + "\t", "".join(["\t" + f for f in features])


def _to_conll_tsv(corpus: Corpus) -> Iterator[str]:
    """Rows of surface, label and sorted features, one document's block at a
    time, each ended by a line end and blocks parted by a blank line; each
    distinct token's columns and each distinct label are built and checked
    once per call."""
    cells = _Memo(_tsv_cells)
    label_fits = _Memo(lambda label: not _holds_tsv_separator(label))
    parting = ""  # before every block but the first
    for doc in corpus.documents:
        if not doc.tokens:
            raise ValueError(
                f"document {doc.id!r}: conll_tsv cannot hold a document with no tokens"
            )
        labels = bio_encode(doc, corpus.span_type_inventory).labels
        around = list(map(cells.__getitem__, doc.tokens))
        if not (all(around) and all(map(label_fits.__getitem__, labels))):
            position = next(
                i for i, lab in enumerate(labels) if around[i] is None or not label_fits[lab]
            )
            raise ValueError(
                f"document {doc.id!r}, token {position}: conll_tsv cannot hold "
                "a tab, line feed or carriage return in a surface, label or "
                "feature name"
            )
        if not parting and doc.tokens[0].surface.startswith("\ufeff"):
            raise ValueError(
                f"document {doc.id!r}, token 0: conll_tsv cannot start "
                "a file with a byte-order mark (U+FEFF), which readers drop"
            )
        rows = "\n".join([head + lab + tail for (head, tail), lab in zip(around, labels)])
        yield parting + rows + "\n"
        parting = "\n"


def _parse_conll_tsv(
    lines: Iterable[str], path, decode_mode: str, table: _TokenTable
) -> Iterator[Document]:
    rows: list[tuple[Token, str]] = []
    number = first_row_line = 0
    # a blank line after the last ends the last block
    for lineno, line in enumerate(chain(lines, [""]), start=1):
        if not line.strip():
            if rows:
                try:
                    spans = bio_decode([lab for _, lab in rows], mode=decode_mode)
                except ValueError as e:
                    raise CorpusFormatError(path, str(e), first_row_line) from None
                yield Document(f"doc-{number}", tuple(tok for tok, _ in rows), tuple(spans))
                number += 1
                rows = []
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            raise CorpusFormatError(
                path, f"expected at least 2 tab-separated columns, got {len(cols)}", lineno
            )
        if not rows:
            first_row_line = lineno
        try:
            token = _token(table, cols[0], cols[2:])
        except ValueError as e:
            raise CorpusFormatError(path, str(e), lineno) from None
        rows.append((token, cols[1]))
