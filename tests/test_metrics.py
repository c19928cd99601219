"""Span-type measurements against hand calculations and exact-arithmetic oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanmeta import (
    Corpus,
    DatasetMetrics,
    Span,
    SpanTypeProfile,
    UnigramDistribution,
    boundary_distinctiveness,
    dataset_profile,
    geometric_mean_length,
    kl_divergence,
    load_embedded,
    profile_span_type,
    span_distinctiveness,
    span_frequency,
)
from spanmeta import metrics
from spanmeta.metrics import (
    boundary_token_distribution,
    corpus_unigram_distribution,
    span_token_distribution,
)
from spanmeta.reference import dataset_of

from helpers import (
    _spans_of as scan_spans_of,
    make_doc,
    oracle_boundary_distinctiveness,
    oracle_frequency,
    oracle_geometric_length,
    oracle_span_distinctiveness,
    random_corpus,
)


def _corpus(docs, inventory, partition="train"):
    return Corpus(tuple(docs), tuple(inventory), partition)


class TestHandCases:
    def test_span_distinctiveness_half_corpus(self):
        # interior {a}, corpus {a: 1/2, b: 1/2} -> KL = ln 2
        c = _corpus([make_doc("d", ["a", "b"], [Span("t", 0, 1)])], ["t"])
        assert span_distinctiveness(c, "t") == pytest.approx(math.log(2), abs=1e-15)

    def test_boundary_distinctiveness_single_neighbor(self):
        # span [1,2) in a 2-token doc: only the left neighbor "a" exists
        c = _corpus([make_doc("d", ["a", "b"], [Span("t", 1, 2)])], ["t"])
        assert boundary_distinctiveness(c, "t") == pytest.approx(math.log(2), abs=1e-15)

    def test_boundary_uses_both_neighbors(self):
        c = _corpus([make_doc("d", ["x", "m", "x", "y"], [Span("t", 1, 3)])], ["t"])
        dist = boundary_token_distribution(c, "t")
        assert dist.probabilities == {"x": 0.5, "y": 0.5}

    def test_geometric_mean_lengths_1_2_4(self):
        spans = [Span("t", 0, 1), Span("t", 1, 3), Span("t", 3, 7)]
        c = _corpus([make_doc("d", list("abcdefg"), spans)], ["t"])
        assert geometric_mean_length(c, "t") == pytest.approx(2.0, rel=1e-12)

    def test_frequency_counts_across_documents(self):
        docs = [
            make_doc("a", ["x", "y"], [Span("t", 0, 1)]),
            make_doc("b", ["x", "y"], [Span("t", 0, 1), Span("u", 1, 2)]),
        ]
        c = _corpus(docs, ["t", "u"])
        assert span_frequency(c, "t") == 2
        assert span_frequency(c, "u") == 1

    def test_frequency_zero_for_unused_type(self):
        c = _corpus([make_doc("d", ["a"], [Span("t", 0, 1)])], ["t", "u"])
        assert span_frequency(c, "u") == 0

    def test_identical_distributions_give_zero(self):
        # every token inside a span, so interior == corpus distribution
        c = _corpus([make_doc("d", ["a", "b"], [Span("t", 0, 2)])], ["t"])
        assert span_distinctiveness(c, "t") == 0.0

    def test_profile_matches_individual_functions(self):
        c = _corpus(
            [make_doc("d", list("abcde"), [Span("t", 1, 3), Span("t", 4, 5)])], ["t"]
        )
        p = profile_span_type(c, "t")
        assert p.type_id == "t"
        assert p.frequency == span_frequency(c, "t")
        assert p.span_length == geometric_mean_length(c, "t")
        assert p.span_distinctiveness == span_distinctiveness(c, "t")
        assert p.boundary_distinctiveness == boundary_distinctiveness(c, "t")
        assert profile_span_type(c, "t", corpus_unigram_distribution(c)) == p


class TestErrors:
    @pytest.mark.parametrize(
        "fn",
        [span_frequency, geometric_mean_length, span_distinctiveness, boundary_distinctiveness],
    )
    def test_non_train_partition_rejected(self, fn):
        c = _corpus([make_doc("d", ["a"], [Span("t", 0, 1)])], ["t"], partition="test")
        with pytest.raises(ValueError, match="training partition"):
            fn(c, "t")

    @pytest.mark.parametrize(
        "fn",
        [span_frequency, geometric_mean_length, span_distinctiveness, boundary_distinctiveness],
    )
    def test_unknown_type_rejected(self, fn):
        c = _corpus([make_doc("d", ["a"], [Span("t", 0, 1)])], ["t"])
        with pytest.raises(ValueError, match="unknown span type"):
            fn(c, "nope")

    def test_no_spans_means_no_length_or_distinctiveness(self):
        c = _corpus([make_doc("d", ["a"], [Span("t", 0, 1)])], ["t", "u"])
        with pytest.raises(ValueError, match="no spans"):
            geometric_mean_length(c, "u")
        with pytest.raises(ValueError, match="no spans"):
            span_distinctiveness(c, "u")

    def test_boundary_undefined_when_flush_with_edges(self):
        c = _corpus([make_doc("d", ["a", "b"], [Span("t", 0, 2)])], ["t"])
        with pytest.raises(ValueError, match="boundary distribution undefined"):
            boundary_distinctiveness(c, "t")

    def test_empty_corpus_has_no_unigrams(self):
        with pytest.raises(ValueError, match="no tokens"):
            corpus_unigram_distribution(_corpus([], []))


class TestUnigramDistribution:
    def test_from_counts(self):
        d = UnigramDistribution.from_counts({"a": 3, "b": 1})
        assert d["a"] == 0.75
        assert d["b"] == 0.25

    def test_from_counts_drops_zero_entries(self):
        d = UnigramDistribution.from_counts({"a": 2, "b": 0})
        assert d.probabilities == {"a": 1.0}

    def test_from_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="zero counts"):
            UnigramDistribution.from_counts({})

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="non-empty support"):
            UnigramDistribution({})

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            UnigramDistribution({"a": 1.0, "b": 0.0})

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            UnigramDistribution({"a": 0.6, "b": 0.5})

    def test_kl_support_violation(self):
        p = UnigramDistribution({"a": 0.5, "b": 0.5})
        q = UnigramDistribution({"a": 1.0})
        with pytest.raises(ValueError, match="outside the reference support"):
            kl_divergence(p, q)

    def test_kl_identity_is_zero(self):
        p = UnigramDistribution({"a": 0.3, "b": 0.7})
        assert kl_divergence(p, p) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=6),
        st.lists(st.integers(min_value=1, max_value=50), min_size=6, max_size=6),
    )
    def test_kl_nonnegative(self, p_counts, q_counts):
        words = [f"w{i}" for i in range(len(p_counts))]
        p = UnigramDistribution.from_counts(dict(zip(words, p_counts)))
        q = UnigramDistribution.from_counts(
            {f"w{i}": c for i, c in enumerate(q_counts)}
        )
        assert kl_divergence(p, q) >= 0.0


class TestSpanTypeProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one span"):
            SpanTypeProfile("t", 0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="cannot be below 1"):
            SpanTypeProfile("t", 1, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="non-negative"):
            SpanTypeProfile("t", 1, 1.0, -0.1, 0.0)
        for values in [(math.inf, 0.0, 0.0), (math.nan, 0.0, 0.0), (1.0, 0.0, math.nan)]:
            with pytest.raises(ValueError, match="finite"):
                SpanTypeProfile("t", 1, *values)


class TestDatasetProfile:
    def test_frequency_weighted_hand_case(self):
        rows = [
            SpanTypeProfile("a", 3, 2.0, 0.5, 0.25),
            SpanTypeProfile("b", 1, 4.0, 1.0, 0.75),
        ]
        agg = dataset_profile(rows)
        assert agg.frequency == pytest.approx(2.5)  # (9 + 1) / 4
        assert agg.span_length == pytest.approx(2.5)
        assert agg.span_distinctiveness == pytest.approx(0.625)
        assert agg.boundary_distinctiveness == pytest.approx(0.375)

    def test_single_profile_aggregates_to_itself(self):
        p = SpanTypeProfile("a", 7, 3.0, 0.4, 0.2)
        agg = dataset_profile([p])
        assert agg == (7.0, 3.0, 0.4, 0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no profiles"):
            dataset_profile([])

    def test_bundled_chemdner_sums_are_correctly_rounded(self):
        # the built-in sum of floats rounds differently from Python 3.12 on;
        # math.fsum rounds once, so the aggregate is the same on every version
        rows = [p for p in load_embedded().profiles if dataset_of(p.type_id) == "chemdner"]
        total = float(sum(p.frequency for p in rows))
        agg = dataset_profile(rows)
        for name in DatasetMetrics._fields:
            want = math.fsum(p.frequency * getattr(p, name) for p in rows) / total
            assert getattr(agg, name) == want
        assert agg.span_length == 1.6188861705742439


def _agree(module_fn, oracle_fn, corpus, type_id, tol):
    """Module and oracle must both fail, or both succeed within tol."""
    try:
        expected = oracle_fn(corpus, type_id)
    except ValueError:
        with pytest.raises(ValueError):
            module_fn(corpus, type_id)
        return
    assert module_fn(corpus, type_id) == pytest.approx(expected, abs=tol)


class TestOracleAgreement:
    def test_random_corpora_match_fraction_oracle(self):
        rng = np.random.default_rng(20260822)
        for _ in range(60):
            corpus = random_corpus(rng)
            for t in corpus.span_type_inventory:
                assert span_frequency(corpus, t) == oracle_frequency(corpus, t)
                _agree(geometric_mean_length, oracle_geometric_length, corpus, t, 1e-12)
                _agree(
                    span_distinctiveness, oracle_span_distinctiveness, corpus, t, 1e-12
                )
                _agree(
                    boundary_distinctiveness,
                    oracle_boundary_distinctiveness,
                    corpus,
                    t,
                    1e-12,
                )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_geometric_length_bounded_by_extremes(self, seed):
        corpus = random_corpus(np.random.default_rng(seed))
        for t in corpus.span_type_inventory:
            lengths = [
                len(s) for d in corpus.documents for s in d.spans if s.type_id == t
            ]
            if not lengths:
                continue
            g = geometric_mean_length(corpus, t)
            assert min(lengths) - 1e-9 <= g <= max(lengths) + 1e-9

    def test_distribution_helpers_expose_mle(self):
        c = _corpus(
            [make_doc("d", ["a", "a", "b", "c"], [Span("t", 0, 2)])], ["t"]
        )
        assert span_token_distribution(c, "t").probabilities == {"a": 1.0}
        full = corpus_unigram_distribution(c)
        assert full.probabilities == {"a": 0.5, "b": 0.25, "c": 0.25}


@st.composite
def _multi_type_corpora(draw):
    """Corpora of several span types, some in the inventory with no spans."""
    used = draw(st.lists(st.sampled_from(["p", "q", "r", "s"]), min_size=1, unique=True))
    unused = draw(st.lists(st.sampled_from(["x", "y"]), unique=True))
    docs = []
    for d in range(draw(st.integers(min_value=1, max_value=5))):
        n = draw(st.integers(min_value=0, max_value=10))
        spans = []
        pos = 0
        while pos < n:
            if draw(st.booleans()):
                length = draw(st.integers(min_value=1, max_value=min(3, n - pos)))
                spans.append(Span(draw(st.sampled_from(used)), pos, pos + length))
                pos += length
            else:
                pos += 1
        surfaces = draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
        docs.append(make_doc(f"d{d}", surfaces, spans))
    return _corpus(docs, used + unused)


def _outcome(fn, corpus, type_id):
    """What a measurement gives: its value, or its error's type and message."""
    try:
        value = fn(corpus, type_id)
    except ValueError as e:
        return type(e), str(e)
    if isinstance(value, UnigramDistribution):  # in insertion order too
        return list(value.probabilities.items())
    return value


_MEASUREMENTS = (
    span_frequency,
    geometric_mean_length,
    span_distinctiveness,
    boundary_distinctiveness,
    span_token_distribution,
    boundary_token_distribution,
    profile_span_type,
)


def _scanning(corpus, type_id):
    return tuple(scan_spans_of(corpus, type_id))


class TestSpanIndex:
    """The per-type index gives what a scan of every document gives."""

    @settings(max_examples=150, deadline=None)
    @given(_multi_type_corpora())
    def test_every_measurement_equals_the_scanning_reference(self, corpus):
        types = (*corpus.span_type_inventory, "absent")
        indexed = [_outcome(fn, corpus, t) for t in types for fn in _MEASUREMENTS]
        with mock.patch.object(metrics, "_spans_of", _scanning):
            scanned = [_outcome(fn, corpus, t) for t in types for fn in _MEASUREMENTS]
        assert indexed == scanned
        for t in types:
            assert metrics._spans_of(corpus, t) == _scanning(corpus, t)
        for t in corpus.span_type_inventory:
            assert span_frequency(corpus, t) == oracle_frequency(corpus, t)
            _agree(geometric_mean_length, oracle_geometric_length, corpus, t, 1e-12)
            _agree(span_distinctiveness, oracle_span_distinctiveness, corpus, t, 1e-12)
            _agree(
                boundary_distinctiveness, oracle_boundary_distinctiveness, corpus, t, 1e-12
            )

    def test_types_the_corpus_lacks_fail_as_before(self):
        corpus = _corpus([make_doc("d", ["a", "b"], [Span("t", 0, 1)])], ["t", "none"])
        with pytest.raises(ValueError, match="^unknown span type 'absent'$"):
            span_frequency(corpus, "absent")
        assert span_frequency(corpus, "none") == 0
        with pytest.raises(ValueError, match="'none' has no spans; geometric mean"):
            geometric_mean_length(corpus, "none")
        with pytest.raises(ValueError, match="^span type 'none' has no spans$"):
            span_distinctiveness(corpus, "none")
        with pytest.raises(ValueError, match="^span type 'absent' has no spans$"):
            span_token_distribution(corpus, "absent")
