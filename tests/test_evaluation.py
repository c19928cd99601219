"""Exact-match scoring: hand-counted cases and structural properties."""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanmeta import Span
from spanmeta.evaluation import (
    EvalCounts,
    F1Report,
    PRF,
    TypeCounts,
    _sum_counts,
    average_trials,
    count_matches,
    f1_report,
)


def spans(*triples):
    return [Span(t, a, b) for t, a, b in triples]


class TestCountMatches:
    def test_tp_fp_fn_one_each(self):
        gold = spans(("t", 0, 1), ("t", 2, 3))
        pred = spans(("t", 0, 1), ("t", 5, 6))
        counts = count_matches(gold, pred)
        assert counts.per_type["t"] == TypeCounts(tp=1, fp=1, fn=1)

    def test_perfect_prediction(self):
        gold = spans(("t", 0, 2), ("u", 3, 4))
        assert count_matches(gold, gold).per_type == {
            "t": TypeCounts(1, 0, 0),
            "u": TypeCounts(1, 0, 0),
        }

    def test_empty_prediction_all_fn(self):
        gold = spans(("t", 0, 1), ("t", 2, 3), ("u", 4, 5))
        counts = count_matches(gold, [])
        assert counts.per_type["t"] == TypeCounts(0, 0, 2)
        assert counts.per_type["u"] == TypeCounts(0, 0, 1)

    def test_empty_gold_all_fp(self):
        counts = count_matches([], spans(("t", 0, 1)))
        assert counts.per_type["t"] == TypeCounts(0, 1, 0)

    def test_type_must_match_not_just_offsets(self):
        counts = count_matches(spans(("t", 0, 1)), spans(("u", 0, 1)))
        assert counts.per_type["t"] == TypeCounts(0, 0, 1)
        assert counts.per_type["u"] == TypeCounts(0, 1, 0)

    def test_duplicate_prediction_is_fp(self):
        # one-to-one matching: the second identical prediction cannot
        # claim the same gold span again
        gold = spans(("t", 0, 1))
        pred = spans(("t", 0, 1), ("t", 0, 1))
        assert count_matches(gold, pred).per_type["t"] == TypeCounts(1, 1, 0)

    def test_swap_symmetry(self):
        gold = spans(("t", 0, 1), ("t", 3, 5), ("u", 6, 7))
        pred = spans(("t", 0, 1), ("t", 2, 3), ("u", 8, 9))
        forward = count_matches(gold, pred)
        backward = count_matches(pred, gold)
        for t in forward.per_type:
            f, b = forward.per_type[t], backward.per_type[t]
            assert (f.tp, f.fp, f.fn) == (b.tp, b.fn, b.fp)


class TestF1Report:
    def test_half_right(self):
        counts = EvalCounts({"t": TypeCounts(1, 1, 1)})
        rep = f1_report(counts)
        assert rep.per_type["t"] == PRF(50.0, 50.0, 50.0)
        assert rep.micro == PRF(50.0, 50.0, 50.0)

    def test_zero_denominators_report_zero(self):
        rep = f1_report(EvalCounts({"t": TypeCounts(0, 0, 0)}))
        assert rep.per_type["t"] == PRF(0.0, 0.0, 0.0)

    def test_micro_pools_counts(self):
        counts = EvalCounts({"a": TypeCounts(1, 0, 0), "b": TypeCounts(0, 1, 1)})
        rep = f1_report(counts)
        # pooled: tp=1 fp=1 fn=1 -> 50 across the board
        assert rep.micro == PRF(50.0, 50.0, 50.0)
        assert rep.per_type["a"] == PRF(100.0, 100.0, 100.0)
        assert rep.per_type["b"] == PRF(0.0, 0.0, 0.0)

    def test_explicit_types_pad_with_zeros(self):
        counts = EvalCounts({"a": TypeCounts(1, 0, 0)})
        rep = f1_report(counts, types=["a", "b"])
        assert rep.per_type["b"] == PRF(0.0, 0.0, 0.0)
        assert rep.micro.f1 == 100.0  # type b adds no counts

    def test_explicit_types_restrict(self):
        counts = EvalCounts({"a": TypeCounts(1, 0, 0), "b": TypeCounts(0, 5, 5)})
        rep = f1_report(counts, types=["a"])
        assert "b" not in rep.per_type
        assert rep.micro.f1 == 100.0

    def test_repeated_type_counts_once(self):
        # one correct A span and one spurious B span
        counts = EvalCounts({"A": TypeCounts(1, 0, 0), "B": TypeCounts(0, 1, 0)})
        once = f1_report(counts, types=["A", "B"])
        repeated = f1_report(counts, types=["A", "A", "B"])
        assert repeated == once
        assert once.micro.f1 == pytest.approx(200.0 / 3.0)

    def test_precision_recall_formulas(self):
        rep = f1_report(EvalCounts({"t": TypeCounts(3, 1, 2)}))
        prf = rep.per_type["t"]
        assert prf.precision == pytest.approx(75.0)
        assert prf.recall == pytest.approx(60.0)
        assert prf.f1 == pytest.approx(2 * 75 * 60 / 135)

    def test_f1_monotone_in_tp(self):
        f1s = [
            f1_report(EvalCounts({"t": TypeCounts(tp, 2, 2)})).per_type["t"].f1
            for tp in range(6)
        ]
        assert f1s == sorted(f1s)
        assert f1s[0] == 0.0

    def test_report_validates_range(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            F1Report(per_type={}, micro=PRF(101.0, 0.0, 0.0))


class TestEvalCounts:
    def test_addition_merges_types(self):
        a = EvalCounts({"t": TypeCounts(1, 0, 0)})
        b = EvalCounts({"t": TypeCounts(0, 1, 1), "u": TypeCounts(2, 0, 0)})
        merged = a + b
        assert merged.per_type == {
            "t": TypeCounts(1, 1, 1),
            "u": TypeCounts(2, 0, 0),
        }

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EvalCounts({"t": TypeCounts(-1, 0, 0)})

    def test_total_restricts_to_requested_types(self):
        c = EvalCounts({"a": TypeCounts(1, 2, 3), "b": TypeCounts(4, 5, 6)})
        assert c.total() == TypeCounts(5, 7, 9)
        assert c.total(["a"]) == TypeCounts(1, 2, 3)
        assert c.total(["missing"]) == TypeCounts(0, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["t", "u"]),
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=8,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["t", "u"]),
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=8,
        ),
    )
    def test_micro_counts_equal_summed_per_type(self, gold_raw, pred_raw):
        gold = [Span(t, a, a + n) for t, a, n in gold_raw]
        pred = [Span(t, a, a + n) for t, a, n in pred_raw]
        counts = count_matches(gold, pred)
        total = counts.total()
        assert total.tp == sum(c.tp for c in counts.per_type.values())
        assert total.fp == sum(c.fp for c in counts.per_type.values())
        assert total.fn == sum(c.fn for c in counts.per_type.values())
        # every span lands in exactly one bucket
        assert total.tp + total.fn == len(gold)
        assert total.tp + total.fp == len(pred)


_PARTS = st.lists(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.tuples(*[st.integers(min_value=0, max_value=50)] * 3).map(TypeCounts._make),
    ).map(EvalCounts),
    max_size=12,
)


class TestSumCounts:
    """``_sum_counts`` is the ``+`` fold over per-document counts, done once."""

    @settings(max_examples=200, deadline=None)
    @given(_PARTS)
    def test_equals_the_plus_fold_in_values_and_type_order(self, parts):
        folded = functools.reduce(operator.add, parts, EvalCounts())
        summed = _sum_counts(iter(parts))
        assert summed == folded
        assert list(summed.per_type.items()) == list(folded.per_type.items())
        assert all(type(c) is TypeCounts for c in summed.per_type.values())

    def test_nothing_sums_to_empty_counts(self):
        assert _sum_counts([]) == EvalCounts()

    def test_per_document_match_counts_in_first_seen_order(self):
        docs = [
            (spans(("u", 0, 1)), spans(("u", 0, 1), ("t", 2, 3))),
            (spans(("v", 0, 2)), []),
            (spans(("t", 1, 2)), spans(("t", 1, 2))),
        ]
        summed = _sum_counts(count_matches(g, p) for g, p in docs)
        assert list(summed.per_type.items()) == [
            ("t", TypeCounts(1, 1, 0)),
            ("u", TypeCounts(1, 0, 0)),
            ("v", TypeCounts(0, 0, 1)),
        ]


class TestAverageTrials:
    def _report(self, f1):
        counts = EvalCounts({"t": TypeCounts(1, 1, 1)})
        rep = f1_report(counts)
        scaled = PRF(rep.micro.precision, rep.micro.recall, f1)
        return F1Report(per_type={"t": scaled}, micro=scaled)

    def test_mean_of_two(self):
        avg = average_trials([self._report(40.0), self._report(60.0)])
        assert avg.micro.f1 == pytest.approx(50.0)
        assert avg.per_type["t"].f1 == pytest.approx(50.0)

    def test_single_report_is_identity(self):
        rep = self._report(73.0)
        avg = average_trials([rep])
        assert avg.micro == rep.micro
        assert avg.per_type == rep.per_type

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            average_trials([])

    def test_type_set_mismatch_rejected(self):
        a = f1_report(EvalCounts({"t": TypeCounts(1, 0, 0)}))
        b = f1_report(EvalCounts({"u": TypeCounts(1, 0, 0)}))
        with pytest.raises(ValueError, match="different type sets"):
            average_trials([a, b])
