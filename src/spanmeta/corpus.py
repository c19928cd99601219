"""Tokenized, span-annotated corpora: data model, BIO tagging, file I/O.

The data model is deliberately small. A ``Document`` is an ordered tuple of
``Token`` objects plus a tuple of non-overlapping, token-indexed ``Span``
annotations, and a ``Corpus`` bundles documents with a span-type inventory
and a partition tag. Everything is immutable after construction, so corpora
can be shared freely between threads.

Two interchange formats are supported:

* JSONL: one document per line, each a JSON object with ``id``, ``tokens``
  (surface plus a feature list) and ``spans`` (type, start, end).
* CoNLL-style TSV: one token per row with columns surface, BIO label, and
  optional feature columns; documents are separated by blank lines.

Writing is deterministic (feature bags are emitted sorted), so a
write/read/write cycle is byte-stable.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

log = logging.getLogger(__name__)

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


class CorpusFormatError(ValueError):
    """A corpus file does not parse under the declared format."""


@dataclass(frozen=True)
class Token:
    """A single token: a surface form plus a bag of named features.

    The surface must be non-empty, and so must every feature name; the
    feature bag may be empty.
    """

    surface: str
    features: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.surface, str) or not self.surface:
            raise ValueError("token surface must be a non-empty string")
        message = "feature names must be non-empty strings"
        if not isinstance(self.features, frozenset):
            try:
                object.__setattr__(self, "features", frozenset(self.features))
            except TypeError:  # an unhashable entry, such as a list
                raise ValueError(message) from None
        if any(not isinstance(f, str) or not f for f in self.features):
            raise ValueError(message)


@dataclass(frozen=True)
class Span:
    """A typed, token-indexed, half-open interval ``[start, end)``."""

    type_id: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not self.type_id:
            raise ValueError("span type id must be non-empty")
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

    Spans are stored sorted by start offset. Construction rejects spans
    that run past the end of the document or overlap one another, so a
    ``Document`` that exists is always well formed.
    """

    id: str
    tokens: tuple[Token, ...]
    spans: tuple[Span, ...] = ()

    def __post_init__(self) -> None:
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
    """Serialize a corpus to ``path`` in the given format (UTF-8, LF)."""
    if format == "jsonl":
        text = _to_jsonl(corpus)
    elif format == "conll_tsv":
        text = _to_conll_tsv(corpus)
    else:
        raise ValueError(f"corpus format must be one of {_FORMATS}, got {format!r}")
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_corpus(
    path: str | Path,
    format: str = "jsonl",
    *,
    partition: str = "train",
    inventory: Sequence[str] | None = None,
    drop_misaligned: bool = False,
    decode_mode: str = "strict",
) -> Corpus:
    """Parse a corpus file.

    Neither the partition tag nor the inventory is representable in the
    file formats, so both can be supplied here; by default the partition is
    ``train`` and the inventory is derived in order of first appearance.

    Args:
        path: file to read.
        format: ``jsonl`` or ``conll_tsv``.
        partition: partition tag for the returned corpus.
        inventory: span-type inventory to use instead of deriving one.
        drop_misaligned: drop spans whose indices do not line up with the
            document's tokens (out of range or inverted) instead of
            raising; the dropped count is reported through a log warning.
        decode_mode: BIO decode mode for the TSV label column.

    Raises:
        CorpusFormatError: on malformed content, with the offending line
            number; span errors carry the document id.
    """
    if format not in _FORMATS:
        raise ValueError(f"corpus format must be one of {_FORMATS}, got {format!r}")
    text = Path(path).read_text(encoding="utf-8")
    if format == "jsonl":
        docs, dropped = _parse_jsonl(text, drop_misaligned)
    else:
        docs, dropped = _parse_conll_tsv(text, decode_mode)
    if dropped:
        log.warning("dropped %d misaligned span(s) while reading %s", dropped, path)
    if inventory is None:
        inventory = _derive_inventory(docs)
    return Corpus(tuple(docs), tuple(inventory), partition)


def _derive_inventory(docs: Iterable[Document]) -> tuple[str, ...]:
    seen: set[str] = set()
    inv: list[str] = []
    for doc in docs:
        for s in doc.spans:
            if s.type_id not in seen:
                seen.add(s.type_id)
                inv.append(s.type_id)
    return tuple(inv)


def _to_jsonl(corpus: Corpus) -> str:
    lines = []
    for doc in corpus.documents:
        obj = {
            "id": doc.id,
            "tokens": [
                {"surface": t.surface, "features": sorted(t.features)}
                for t in doc.tokens
            ],
            "spans": [
                {"type": s.type_id, "start": s.start, "end": s.end}
                for s in doc.spans
            ],
        }
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_jsonl(text: str, drop_misaligned: bool) -> tuple[list[Document], int]:
    docs: list[Document] = []
    dropped = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusFormatError(f"line {lineno}: invalid JSON: {e}") from e
        try:
            doc, n_bad = _document_from_obj(obj, drop_misaligned)
        except (KeyError, TypeError, ValueError) as e:
            raise CorpusFormatError(f"line {lineno}: {e}") from e
        docs.append(doc)
        dropped += n_bad
    return docs, dropped


def _document_from_obj(obj: object, drop_misaligned: bool) -> tuple[Document, int]:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object per line")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str):
        raise ValueError("missing or non-string 'id'")
    raw_tokens = obj.get("tokens")
    if not isinstance(raw_tokens, list):
        raise ValueError(f"document {doc_id!r}: missing or non-list 'tokens'")
    tokens = []
    for tk in raw_tokens:
        if not isinstance(tk, dict) or not isinstance(tk.get("surface"), str):
            raise ValueError(f"document {doc_id!r}: malformed token entry")
        feats = tk.get("features", [])
        if not isinstance(feats, list):
            raise ValueError(f"document {doc_id!r}: malformed feature list")
        tokens.append(Token(tk["surface"], feats))
    raw_spans = obj.get("spans", [])
    if not isinstance(raw_spans, list):
        raise ValueError(f"document {doc_id!r}: non-list 'spans'")
    n = len(tokens)
    spans = []
    dropped = 0
    for sp in raw_spans:
        if (
            not isinstance(sp, dict)
            or not isinstance(sp.get("type"), str)
            or not isinstance(sp.get("start"), int)
            or not isinstance(sp.get("end"), int)
            or isinstance(sp.get("start"), bool)
            or isinstance(sp.get("end"), bool)
        ):
            raise ValueError(f"document {doc_id!r}: malformed span entry")
        start, end = sp["start"], sp["end"]
        if start < 0 or end <= start or end > n:
            if drop_misaligned:
                dropped += 1
                continue
            raise ValueError(
                f"document {doc_id!r}: span {sp['type']}@[{start},{end}) "
                f"does not fit a {n}-token document"
            )
        spans.append(Span(sp["type"], start, end))
    return Document(doc_id, tuple(tokens), tuple(spans)), dropped


def _to_conll_tsv(corpus: Corpus) -> str:
    blocks = []
    for doc in corpus.documents:
        labels = bio_encode(doc, corpus.span_type_inventory)
        rows = []
        for tok, lab in zip(doc.tokens, labels):
            cols = [tok.surface, lab]
            cols.extend(sorted(tok.features))
            rows.append("\t".join(cols))
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _parse_conll_tsv(text: str, decode_mode: str) -> tuple[list[Document], int]:
    docs: list[Document] = []
    rows: list[tuple[Token, str]] = []
    first_row_line = 0

    def flush() -> None:
        nonlocal rows
        if not rows:
            return
        tokens = tuple(tok for tok, _ in rows)
        labels = [lab for _, lab in rows]
        try:
            spans = bio_decode(labels, mode=decode_mode)
        except ValueError as e:
            raise CorpusFormatError(
                f"document starting at line {first_row_line}: {e}"
            ) from None
        docs.append(Document(f"doc-{len(docs)}", tokens, tuple(spans)))
        rows = []

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            raise CorpusFormatError(
                f"line {lineno}: expected at least 2 tab-separated columns, "
                f"got {len(cols)}"
            )
        surface, label = cols[0], cols[1]
        if not surface:
            raise CorpusFormatError(f"line {lineno}: empty surface column")
        if not rows:
            first_row_line = lineno
        try:
            token = Token(surface, frozenset(cols[2:]))
        except ValueError as e:
            raise CorpusFormatError(f"line {lineno}: {e}") from None
        rows.append((token, label))
    flush()
    return docs, 0
