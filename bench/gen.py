"""Seeded synthetic span corpora for the benchmark.

A *language* fixes the vocabularies: a Zipf-distributed background
vocabulary, and for each of 18 span types its own in-span vocabulary and
a few cue words that tend to sit right before its spans. Documents drawn
from one language share those vocabularies, so a labeler trained on one
draw has something to learn about another.

Everything comes from ``random.Random`` seeded by the caller, whose
stream is stable across Python versions, so a seed always gives the
same files. Documents are plain dicts in the JSONL layout that
``spanmeta.read_corpus`` parses; this module imports nothing from
``spanmeta``, so the inputs do not depend on the code being measured.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

N_TYPES = 18
TOKENS_PER_DOC = 25
BACKGROUND_VOCAB = 3000
BACKGROUND_ZIPF_S = 1.1
TYPE_ZIPF_S = 0.8
MAX_SPANS_PER_DOC = 3
MAX_SPAN_LEN = 4


@dataclass(frozen=True)
class Language:
    background: tuple[str, ...]
    background_cum: tuple[float, ...]
    type_ids: tuple[str, ...]
    type_cum: tuple[float, ...]
    span_vocab: tuple[tuple[str, ...], ...]
    in_span_prob: tuple[float, ...]
    cues: tuple[tuple[str, ...], ...]
    cue_prob: tuple[float, ...]


def _zipf_cum_weights(n: int, s: float) -> tuple[float, ...]:
    return tuple(itertools.accumulate(1.0 / (rank**s) for rank in range(1, n + 1)))


def make_language(seed: int | str) -> Language:
    """Vocabularies and per-type habits, fixed by ``seed``."""
    rng = random.Random(seed)
    type_ids = tuple(f"T{i:02d}" for i in range(N_TYPES))
    span_vocab = tuple(
        tuple(f"t{i}v{j}" for j in range(rng.randint(4, 40))) for i in range(N_TYPES)
    )
    cues = tuple(
        tuple(f"t{i}c{j}" for j in range(rng.randint(1, 4))) for i in range(N_TYPES)
    )
    return Language(
        background=tuple(f"w{j}" for j in range(BACKGROUND_VOCAB)),
        background_cum=_zipf_cum_weights(BACKGROUND_VOCAB, BACKGROUND_ZIPF_S),
        type_ids=type_ids,
        type_cum=_zipf_cum_weights(N_TYPES, TYPE_ZIPF_S),
        span_vocab=span_vocab,
        in_span_prob=tuple(rng.uniform(0.45, 0.9) for _ in range(N_TYPES)),
        cues=cues,
        cue_prob=tuple(rng.uniform(0.3, 0.9) for _ in range(N_TYPES)),
    )


def _token(surface: str, in_span: bool, rng: random.Random) -> dict:
    features = [f"suffix={surface[-1]}"]
    if rng.random() < (0.5 if in_span else 0.05):
        features.append("cap")
    return {"surface": surface, "features": sorted(features)}


def _document(
    lang: Language, rng: random.Random, doc_id: str, forced_type: int | None
) -> dict:
    if forced_type is None:
        n_spans = rng.randint(0, MAX_SPANS_PER_DOC)
        kinds = rng.choices(range(N_TYPES), cum_weights=lang.type_cum, k=n_spans)
    else:
        kinds = [forced_type]
    lengths = [rng.randint(1, MAX_SPAN_LEN) for _ in kinds]
    # Every span gets at least one background token in front of it, so each
    # span has an in-document left neighbour and boundary statistics exist.
    free = TOKENS_PER_DOC - sum(lengths) - len(kinds)
    cuts = sorted(rng.randint(0, free) for _ in kinds)
    gaps = [b - a for a, b in zip([0] + cuts, cuts + [free])]

    def background(n: int) -> list[str]:
        return rng.choices(lang.background, cum_weights=lang.background_cum, k=n)

    tokens: list[dict] = []
    spans: list[dict] = []
    for kind, length, gap in zip(kinds, lengths, gaps):
        before = background(gap + 1)
        if rng.random() < lang.cue_prob[kind]:
            before[-1] = rng.choice(lang.cues[kind])
        tokens.extend(_token(s, False, rng) for s in before)
        start = len(tokens)
        for _ in range(length):
            if rng.random() < lang.in_span_prob[kind]:
                surface = rng.choice(lang.span_vocab[kind])
            else:
                surface = background(1)[0]
            tokens.append(_token(surface, True, rng))
        spans.append({"type": lang.type_ids[kind], "start": start, "end": len(tokens)})
    tokens.extend(_token(s, False, rng) for s in background(gaps[-1]))
    return {"id": doc_id, "tokens": tokens, "spans": spans}


def make_documents(
    lang: Language, n_docs: int, rng: random.Random, prefix: str
) -> list[dict]:
    """``n_docs`` documents; the first ``N_TYPES`` hold one span each, of
    types T00, T01, ... in order, so every split has every type and the
    span-type inventory that ``read_corpus`` derives by first appearance
    is the same for every split."""
    if n_docs < N_TYPES:
        raise ValueError(f"need at least {N_TYPES} documents, got {n_docs}")
    docs = [
        _document(lang, rng, f"{prefix}{i}", i if i < N_TYPES else None)
        for i in range(n_docs)
    ]
    check_documents(docs)
    return docs


def check_documents(docs: list[dict]) -> None:
    """Raise unless every type has spans and a span with an in-document
    neighbour, which ``spanmeta profile`` needs for every type."""
    seen: set[str] = set()
    bordered: set[str] = set()
    for doc in docs:
        n = len(doc["tokens"])
        if n != TOKENS_PER_DOC:
            raise ValueError(f"document {doc['id']} has {n} tokens")
        for s in doc["spans"]:
            seen.add(s["type"])
            if s["start"] > 0 or s["end"] < n:
                bordered.add(s["type"])
    missing = N_TYPES - len(bordered)
    if len(seen) != N_TYPES or missing:
        raise ValueError(f"{missing} span type(s) lack a span with a neighbour")


def write_jsonl(docs: list[dict], path: Path) -> None:
    text = "".join(json.dumps(d, ensure_ascii=False) + "\n" for d in docs)
    path.write_text(text, encoding="utf-8")


def token_count(docs: list[dict]) -> int:
    return sum(len(d["tokens"]) for d in docs)


def surface_counts(docs: list[dict]) -> Counter:
    return Counter(t["surface"] for d in docs for t in d["tokens"])
