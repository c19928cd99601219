"""Corpus statistics that characterize a span type.

Four measurements describe how a span type behaves inside a training
corpus: how often it occurs (frequency), how long its spans run
(geometric mean length), and how sharply its interior and boundary token
distributions diverge from the corpus-wide unigram distribution. Both
divergences are Kullback-Leibler divergences in nats, computed from
unsmoothed maximum-likelihood estimates; no smoothing is needed because
span and boundary tokens are drawn from the same corpus whose
distribution they are compared against.

Span distinctiveness is ``D_KL(P_span || P)`` where ``P_span`` pools the
tokens inside every span of the type. Boundary distinctiveness is
``D_KL(P_boundary || P)`` where the boundary tokens are those
immediately before a span's start and immediately after its end;
positions outside the document are skipped.

All measurements are defined on the training partition only.

Each measurement reads a type's spans from the corpus's per-type index:
the ``(document, span)`` pairs of every type, in document order, built in
one pass over the corpus the first time any type is asked for and kept on
the ``Corpus``. Profiling every type of a corpus thus costs time by the
corpus size, not by the number of types times the corpus size.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .corpus import Corpus, Document, Span

__all__ = [
    "UnigramDistribution",
    "SpanTypeProfile",
    "DatasetMetrics",
    "kl_divergence",
    "corpus_unigram_distribution",
    "span_token_distribution",
    "boundary_token_distribution",
    "span_frequency",
    "geometric_mean_length",
    "span_distinctiveness",
    "boundary_distinctiveness",
    "profile_span_type",
    "dataset_profile",
]


@dataclass(frozen=True)
class UnigramDistribution:
    """Maximum-likelihood unigram distribution over surface forms.

    Entries are strictly positive and sum to one within 1e-12 (the sum is
    checked with exact summation, so roundoff cannot accumulate with
    vocabulary size).
    """

    probabilities: dict[str, float]

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ValueError("distribution must have non-empty support")
        if any(p <= 0.0 for p in self.probabilities.values()):
            raise ValueError("all probabilities must be strictly positive")
        total = math.fsum(self.probabilities.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_counts(cls, counts: Counter[str] | dict[str, int]) -> "UnigramDistribution":
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("cannot build a distribution from zero counts")
        return cls({w: c / total for w, c in counts.items() if c > 0})

    def __getitem__(self, word: str) -> float:
        return self.probabilities[word]


class DatasetMetrics(NamedTuple):
    """Frequency-weighted dataset-level aggregate of per-type metrics.

    The fields are the four measurements, named as in ``SpanTypeProfile``.
    """

    frequency: float
    span_length: float
    span_distinctiveness: float
    boundary_distinctiveness: float


@dataclass(frozen=True)
class SpanTypeProfile:
    """The four measurements for one span type."""

    type_id: str
    frequency: int
    span_length: float
    span_distinctiveness: float
    boundary_distinctiveness: float

    def __post_init__(self) -> None:
        measurements = (
            self.span_length,
            self.span_distinctiveness,
            self.boundary_distinctiveness,
        )
        if not all(math.isfinite(v) for v in measurements):
            raise ValueError("span length and distinctiveness values must be finite")
        if self.frequency < 1:
            raise ValueError("profile requires at least one span occurrence")
        if self.span_length < 1.0 - 1e-9:
            raise ValueError("geometric mean span length cannot be below 1")
        if self.span_distinctiveness < 0.0 or self.boundary_distinctiveness < 0.0:
            raise ValueError("distinctiveness values are non-negative")


def kl_divergence(p: UnigramDistribution, q: UnigramDistribution) -> float:
    """``D_KL(p || q)`` in nats, summed over p's support.

    Raises if q assigns no mass to something p supports. The result is
    clamped at zero; tiny negative values can appear through roundoff
    when p and q are numerically identical.
    """
    total = 0.0
    for w, pw in p.probabilities.items():
        qw = q.probabilities.get(w)
        if qw is None:
            raise ValueError(
                f"KL divergence undefined: {w!r} is outside the reference support"
            )
        total += pw * math.log(pw / qw)
    return max(total, 0.0)


def _require_train(corpus: Corpus) -> None:
    if corpus.partition != "train":
        raise ValueError(
            "span-type metrics are defined on the training partition, "
            f"got partition {corpus.partition!r}"
        )


def _require_known(corpus: Corpus, type_id: str) -> None:
    if type_id not in corpus.span_type_inventory:
        raise ValueError(f"unknown span type {type_id!r}")


def _spans_of(corpus: Corpus, type_id: str) -> tuple[tuple[Document, Span], ...]:
    return corpus._spans_by_type.get(type_id, ())


def corpus_unigram_distribution(corpus: Corpus) -> UnigramDistribution:
    """Unigram MLE over every token in the corpus."""
    counts = Counter(t.surface for d in corpus.documents for t in d.tokens)
    if not counts:
        raise ValueError("corpus has no tokens")
    return UnigramDistribution.from_counts(counts)


def span_token_distribution(corpus: Corpus, type_id: str) -> UnigramDistribution:
    """Unigram MLE pooled over the tokens inside all spans of a type."""
    counts: Counter[str] = Counter()
    for doc, s in _spans_of(corpus, type_id):
        for tok in doc.tokens[s.start : s.end]:
            counts[tok.surface] += 1
    if not counts:
        raise ValueError(f"span type {type_id!r} has no spans")
    return UnigramDistribution.from_counts(counts)


def boundary_token_distribution(corpus: Corpus, type_id: str) -> UnigramDistribution:
    """Unigram MLE over the tokens adjacent to spans of a type.

    For each span this takes the token immediately before its start and
    the token immediately after its end; neighbors that would fall
    outside the document are skipped. When every span is flush with both
    document edges there are no boundary tokens and the distribution is
    undefined.
    """
    counts: Counter[str] = Counter()
    for doc, s in _spans_of(corpus, type_id):
        if s.start > 0:
            counts[doc.tokens[s.start - 1].surface] += 1
        if s.end < len(doc.tokens):
            counts[doc.tokens[s.end].surface] += 1
    if not counts:
        raise ValueError(
            f"boundary distribution undefined for span type {type_id!r}: "
            "no span has an in-document neighbor"
        )
    return UnigramDistribution.from_counts(counts)


def span_frequency(corpus: Corpus, type_id: str) -> int:
    """Number of spans of the type in the training corpus."""
    _require_train(corpus)
    _require_known(corpus, type_id)
    return len(_spans_of(corpus, type_id))


def geometric_mean_length(corpus: Corpus, type_id: str) -> float:
    """exp(mean(ln length)) over all spans of the type, in tokens."""
    _require_train(corpus)
    _require_known(corpus, type_id)
    logs = [math.log(len(s)) for _, s in _spans_of(corpus, type_id)]
    if not logs:
        raise ValueError(
            f"span type {type_id!r} has no spans; geometric mean length undefined"
        )
    return math.exp(math.fsum(logs) / len(logs))


def span_distinctiveness(corpus: Corpus, type_id: str) -> float:
    """KL divergence of the type's interior tokens from the corpus unigrams."""
    _require_train(corpus)
    _require_known(corpus, type_id)
    return kl_divergence(
        span_token_distribution(corpus, type_id),
        corpus_unigram_distribution(corpus),
    )


def boundary_distinctiveness(corpus: Corpus, type_id: str) -> float:
    """KL divergence of the type's boundary tokens from the corpus unigrams."""
    _require_train(corpus)
    _require_known(corpus, type_id)
    return kl_divergence(
        boundary_token_distribution(corpus, type_id),
        corpus_unigram_distribution(corpus),
    )


def profile_span_type(
    corpus: Corpus, type_id: str, unigrams: UnigramDistribution | None = None
) -> SpanTypeProfile:
    """All four measurements for one span type.

    ``unigrams``, when given, must be ``corpus_unigram_distribution(corpus)``;
    passing it lets a caller profiling many types build it once.
    """
    frequency = span_frequency(corpus, type_id)
    span_length = geometric_mean_length(corpus, type_id)
    if unigrams is None:
        unigrams = corpus_unigram_distribution(corpus)
    return SpanTypeProfile(
        type_id=type_id,
        frequency=frequency,
        span_length=span_length,
        span_distinctiveness=kl_divergence(
            span_token_distribution(corpus, type_id), unigrams
        ),
        boundary_distinctiveness=kl_divergence(
            boundary_token_distribution(corpus, type_id), unigrams
        ),
    )


def dataset_profile(profiles: Iterable[SpanTypeProfile]) -> DatasetMetrics:
    """Frequency-weighted arithmetic mean of per-type profiles.

    Every metric is weighted by the type's span frequency; frequency
    itself is also weighted by frequency, i.e. ``sum(f^2) / sum(f)``, so
    the aggregate reflects the span a randomly drawn span lives under.
    The weighted sums go through ``math.fsum``, which rounds once and so
    gives the same value on every Python version; the built-in ``sum``
    of floats rounds differently from 3.12 on.
    """
    rows = list(profiles)
    if not rows:
        raise ValueError("no profiles to aggregate")
    total = float(sum(p.frequency for p in rows))
    return DatasetMetrics._make(
        math.fsum(p.frequency * getattr(p, name) for p in rows) / total
        for name in DatasetMetrics._fields
    )
