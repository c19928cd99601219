"""Exact-match span evaluation on the 0-100 scale.

A predicted span counts as a true positive only when the gold annotation
contains a span with the same type and identical start and end offsets.
Matching is one-to-one: a duplicate prediction of an already matched
span is a false positive. Micro averages are computed from summed
counts, never from averaged ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import Span

__all__ = [
    "TypeCounts",
    "EvalCounts",
    "PRF",
    "F1Report",
    "count_matches",
    "f1_report",
    "average_trials",
]


class TypeCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def merged(self, other: "TypeCounts") -> "TypeCounts":
        return TypeCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass(frozen=True)
class EvalCounts:
    """Per-type true positive / false positive / false negative counts.

    Merging with ``+`` sums counts per type, so counts gathered over
    document subsets can be combined in any order.
    """

    per_type: Mapping[str, TypeCounts] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_type", dict(self.per_type))
        for t, c in self.per_type.items():
            if min(c) < 0:
                raise ValueError(f"negative counts for type {t!r}: {c}")

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        merged = dict(self.per_type)
        for t, c in other.per_type.items():
            merged[t] = merged.get(t, TypeCounts()).merged(c)
        return EvalCounts(merged)

    def total(self, types: Iterable[str] | None = None) -> TypeCounts:
        keys = self.per_type.keys() if types is None else types
        out = TypeCounts()
        for t in keys:
            out = out.merged(self.per_type.get(t, TypeCounts()))
        return out


def count_matches(gold: Sequence[Span], pred: Sequence[Span]) -> EvalCounts:
    """Count exact (type, start, end) matches between two span lists.

    One pass counts each list's spans per type, and one intersection of
    the two lists' ``(type, start, end)`` sets finds the matches, so the
    time does not grow with the number of types. Types come in sorted
    order.
    """
    n_gold: dict[str, int] = {}
    for s in gold:
        n_gold[s.type_id] = n_gold.get(s.type_id, 0) + 1
    n_pred: dict[str, int] = {}
    for s in pred:
        n_pred[s.type_id] = n_pred.get(s.type_id, 0) + 1
    tps: dict[str, int] = {}
    matched = {(s.type_id, s.start, s.end) for s in gold} & {
        (s.type_id, s.start, s.end) for s in pred
    }
    for t, _, _ in matched:
        tps[t] = tps.get(t, 0) + 1
    per_type: dict[str, TypeCounts] = {}
    for t in sorted(n_gold.keys() | n_pred.keys()):
        tp = tps.get(t, 0)
        per_type[t] = TypeCounts(tp, n_pred.get(t, 0) - tp, n_gold.get(t, 0) - tp)
    return EvalCounts(per_type)


def _sum_counts(parts: Iterable[EvalCounts]) -> EvalCounts:
    """The sum of ``parts``, equal to folding them with ``+`` from ``EvalCounts()``.

    Types keep the order of their first appearance, as with ``+``, but the
    totals are built once, not once per part.
    """
    sums: dict[str, list[int]] = {}
    for part in parts:
        for t, (tp, fp, fn) in part.per_type.items():
            total = sums.get(t)
            if total is None:
                sums[t] = [tp, fp, fn]
            else:
                total[0] += tp
                total[1] += fp
                total[2] += fn
    return EvalCounts({t: TypeCounts(*total) for t, total in sums.items()})


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def _prf(c: TypeCounts) -> PRF:
    p = 100.0 * c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    r = 100.0 * c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r else 0.0
    return PRF(p, r, f1)


@dataclass(frozen=True)
class F1Report:
    """Per-type precision/recall/F1 plus the micro average, all in [0, 100]."""

    per_type: Mapping[str, PRF]
    micro: PRF

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_type", dict(self.per_type))
        cells = [v for prf in self.per_type.values() for v in prf] + list(self.micro)
        if any(v < 0.0 or v > 100.0 for v in cells):
            raise ValueError("precision, recall, and F1 must lie in [0, 100]")


def f1_report(counts: EvalCounts, types: Sequence[str] | None = None) -> F1Report:
    """Score counts as percentages.

    Args:
        counts: match counts, typically summed over documents.
        types: restrict the report to these types; types without counts
            report zeros and a repeated type counts once. Defaults to
            every type present in ``counts``.
    """
    keys = sorted(counts.per_type) if types is None else list(dict.fromkeys(types))
    per_type = {t: _prf(counts.per_type.get(t, TypeCounts())) for t in keys}
    return F1Report(per_type=per_type, micro=_prf(counts.total(keys)))


def average_trials(reports: Sequence[F1Report]) -> F1Report:
    """Arithmetic mean per cell across repeated trials.

    All reports must cover the same type set. The averaged F1 is the mean
    of the per-trial F1 values, not the F1 of averaged precision and
    recall, so the harmonic-mean identity intentionally does not survive
    averaging.
    """
    if not reports:
        raise ValueError("no reports to average")
    keys = list(reports[0].per_type.keys())
    for r in reports[1:]:
        if list(r.per_type.keys()) != keys:
            raise ValueError("reports cover different type sets")
    n = len(reports)

    def mean_prf(rows: list[PRF]) -> PRF:
        return PRF(
            sum(r.precision for r in rows) / n,
            sum(r.recall for r in rows) / n,
            sum(r.f1 for r in rows) / n,
        )

    return F1Report(
        per_type={t: mean_prf([r.per_type[t] for r in reports]) for t in keys},
        micro=mean_prf([r.micro for r in reports]),
    )
