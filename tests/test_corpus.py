"""Data model, BIO round trips, and file format round trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanmeta import (
    BioSequence,
    Corpus,
    CorpusFormatError,
    Document,
    Span,
    Token,
    bio_decode,
    bio_encode,
    bio_labels,
    read_corpus,
    write_corpus,
)

from helpers import make_doc


class TestDataModel:
    def test_token_rejects_empty_surface(self):
        with pytest.raises(ValueError):
            Token("")

    def test_token_rejects_empty_feature_name(self):
        with pytest.raises(ValueError):
            Token("a", frozenset({""}))

    @pytest.mark.parametrize("feature", [1, None, b"f", ["f"]])
    def test_token_rejects_non_string_feature(self, feature):
        with pytest.raises(ValueError, match="non-empty strings"):
            Token("a", ["f", feature])

    def test_token_features_coerced_to_frozenset(self):
        assert Token("a", ["f2", "f1"]).features == frozenset({"f1", "f2"})

    def test_span_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Span("t", 2, 2)
        with pytest.raises(ValueError):
            Span("t", -1, 1)
        with pytest.raises(ValueError):
            Span("", 0, 1)

    def test_span_length(self):
        assert len(Span("t", 3, 7)) == 4

    def test_document_rejects_span_past_end(self):
        with pytest.raises(ValueError, match="exceeds document length"):
            make_doc("d", ["a", "b"], [Span("t", 1, 3)])

    def test_document_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlapping"):
            make_doc("d", list("abcd"), [Span("t", 0, 2), Span("u", 1, 3)])

    def test_document_sorts_spans(self):
        doc = make_doc("d", list("abcd"), [Span("t", 2, 3), Span("t", 0, 1)])
        assert [s.start for s in doc.spans] == [0, 2]

    def test_adjacent_spans_allowed(self):
        doc = make_doc("d", list("abcd"), [Span("t", 0, 2), Span("t", 2, 4)])
        assert len(doc.spans) == 2

    def test_corpus_rejects_unknown_type(self):
        doc = make_doc("d", ["a"], [Span("t", 0, 1)])
        with pytest.raises(ValueError, match="missing from the inventory"):
            Corpus((doc,), ("u",))

    def test_corpus_rejects_duplicate_inventory(self):
        with pytest.raises(ValueError, match="duplicates"):
            Corpus((), ("t", "t"))

    def test_corpus_rejects_bad_partition(self):
        with pytest.raises(ValueError, match="partition"):
            Corpus((), ("t",), partition="validation")


class TestBioLabels:
    def test_alphabet_size_and_order(self):
        assert bio_labels(("a", "b")) == ("O", "B-a", "I-a", "B-b", "I-b")

    def test_encode_worked_example(self):
        doc = make_doc("d", list("abcde"), [Span("x", 1, 3), Span("y", 4, 5)])
        seq = bio_encode(doc, ("x", "y"))
        assert seq.labels == ("O", "B-x", "I-x", "O", "B-y")

    def test_encode_adjacent_same_type_gets_second_b(self):
        doc = make_doc("d", list("abcd"), [Span("t", 0, 2), Span("t", 2, 4)])
        assert bio_encode(doc, ("t",)).labels == ("B-t", "I-t", "B-t", "I-t")

    def test_encode_unknown_type_errors(self):
        doc = make_doc("d", ["a"], [Span("t", 0, 1)])
        with pytest.raises(ValueError, match="unknown span type"):
            bio_encode(doc, ("u",))

    def test_decode_strict_rejects_stray_continuation(self):
        with pytest.raises(ValueError, match="stray continuation"):
            bio_decode(["O", "I-t"], mode="strict")
        with pytest.raises(ValueError, match="stray continuation"):
            bio_decode(["B-t", "I-u"], mode="strict")

    def test_decode_lenient_opens_span_on_stray_continuation(self):
        assert bio_decode(["O", "I-t"], mode="lenient") == [Span("t", 1, 2)]
        assert bio_decode(["B-t", "I-u"], mode="lenient") == [
            Span("t", 0, 1),
            Span("u", 1, 2),
        ]

    def test_decode_rejects_garbage_label(self):
        for bad in ("Z", "B-", "I-", "b-t"):
            with pytest.raises(ValueError, match="not a BIO label"):
                bio_decode(["O", bad])

    def test_decode_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="decode mode"):
            bio_decode(["O"], mode="fuzzy")

    def test_decode_span_at_sequence_end(self):
        assert bio_decode(["O", "B-t", "I-t"]) == [Span("t", 1, 3)]

    def test_lenient_same_type_continuation_after_b_continues(self):
        # I-t directly after B-t is a continuation in both modes
        assert bio_decode(["B-t", "I-t", "I-t"], mode="lenient") == [Span("t", 0, 3)]


@st.composite
def documents(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    types = draw(st.sets(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3))
    spans = []
    pos = 0
    while pos < n:
        if draw(st.booleans()):
            length = draw(st.integers(min_value=1, max_value=min(3, n - pos)))
            spans.append(Span(draw(st.sampled_from(sorted(types))), pos, pos + length))
            pos += length
        else:
            pos += 1
    tokens = [f"w{draw(st.integers(min_value=0, max_value=4))}" for _ in range(n)]
    return make_doc("d", tokens, spans), tuple(sorted(types))


class TestBioRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(documents())
    def test_encode_decode_recovers_spans(self, case):
        doc, inventory = case
        decoded = bio_decode(bio_encode(doc, inventory), mode="strict")
        assert sorted(decoded, key=lambda s: s.start) == list(doc.spans)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["O", "B-x", "I-x", "B-y", "I-y"]), max_size=10))
    def test_lenient_decode_never_fails_and_spans_are_valid(self, labels):
        spans = bio_decode(labels, mode="lenient")
        for s in spans:
            assert 0 <= s.start < s.end <= len(labels)
        # recovered spans re-encode to a strict-decodable sequence
        doc = make_doc("d", ["t"] * max(1, len(labels)), spans)
        strict = bio_decode(bio_encode(doc, ("x", "y")), mode="strict")
        assert sorted(strict, key=lambda s: s.start) == list(doc.spans)


def _sample_corpus() -> Corpus:
    docs = (
        Document(
            "doc-a",
            (Token("Alice", frozenset({"cap", "alpha"})), Token("ran"), Token("home")),
            (Span("person", 0, 1),),
        ),
        make_doc("doc-b", ["to", "Par", "is"], [Span("place", 1, 3)]),
        make_doc("doc-c", ["nothing", "here"]),
    )
    return Corpus(docs, ("person", "place"))


class TestFileRoundTrips:
    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_round_trip_preserves_everything(self, tmp_path, fmt):
        path = tmp_path / f"c.{fmt}"
        original = _sample_corpus()
        write_corpus(original, path, format=fmt)
        loaded = read_corpus(path, format=fmt)
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert [t.surface for t in a.tokens] == [t.surface for t in b.tokens]
            assert [t.features for t in a.tokens] == [t.features for t in b.tokens]
            assert a.spans == b.spans
        assert loaded.span_type_inventory == original.span_type_inventory

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_write_is_byte_stable(self, tmp_path, fmt):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_corpus(_sample_corpus(), p1, format=fmt)
        write_corpus(read_corpus(p1, format=fmt), p2, format=fmt)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_unicode_line_breaks_inside_names_round_trip(self, tmp_path, fmt):
        # str.splitlines also breaks at these; in a corpus file only "\n" does
        breaks = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"
        tokens = tuple(Token(f"a{c}b", frozenset({f"f{c}", "cap"})) for c in breaks)
        docs = (Document("doc", tokens, (Span("t", 1, 3),)), make_doc("x", ["y"]))
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_corpus(Corpus(docs, ("t",)), p1, format=fmt)
        loaded = read_corpus(p1, format=fmt)
        assert [(d.tokens, d.spans) for d in loaded] == [(d.tokens, d.spans) for d in docs]
        write_corpus(loaded, p2, format=fmt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_ids_preserved_tsv_ids_positional(self, tmp_path):
        path = tmp_path / "c"
        write_corpus(_sample_corpus(), path, format="jsonl")
        assert [d.id for d in read_corpus(path)] == ["doc-a", "doc-b", "doc-c"]
        write_corpus(_sample_corpus(), path, format="conll_tsv")
        loaded = read_corpus(path, format="conll_tsv")
        assert [d.id for d in loaded] == ["doc-0", "doc-1", "doc-2"]

    def test_inventory_first_appearance_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        docs = (
            make_doc("a", ["x", "y"], [Span("beta", 0, 1)]),
            make_doc("b", ["x", "y"], [Span("alpha", 0, 1)]),
        )
        write_corpus(Corpus(docs, ("beta", "alpha")), path)
        assert read_corpus(path).span_type_inventory == ("beta", "alpha")

    def test_explicit_inventory_wins(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(_sample_corpus(), path)
        loaded = read_corpus(path, inventory=("place", "person", "extra"))
        assert loaded.span_type_inventory == ("place", "person", "extra")

    def test_partition_tag(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(_sample_corpus(), path)
        assert read_corpus(path).partition == "train"
        assert read_corpus(path, partition="test").partition == "test"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_corpus(_sample_corpus(), tmp_path / "x", format="xml")


class TestReadErrors:
    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "tokens": [], "spans": []}\n{oops\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            read_corpus(path)

    @pytest.mark.parametrize(
        "features,message",
        [
            ('"f"', "malformed feature list"),
            ('["f", 3]', "non-empty strings"),
            ('[""]', "non-empty strings"),
            ('[["f"]]', "non-empty strings"),
        ],
    )
    def test_malformed_features_report_line(self, tmp_path, features, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "tokens": [], "spans": []}\n'
            f'{{"id": "b", "tokens": [{{"surface": "x", "features": {features}}}]}}\n'
        )
        with pytest.raises(CorpusFormatError, match=f"line 2: .*{message}"):
            read_corpus(path)

    def test_span_past_end_reports_document(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        doc = {
            "id": "short",
            "tokens": [{"surface": "a", "features": []}],
            "spans": [{"type": "t", "start": 0, "end": 5}],
        }
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(CorpusFormatError, match="short"):
            read_corpus(path)

    def test_overlapping_spans_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        doc = {
            "id": "d",
            "tokens": [{"surface": s, "features": []} for s in "abcd"],
            "spans": [
                {"type": "t", "start": 0, "end": 2},
                {"type": "t", "start": 1, "end": 3},
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(CorpusFormatError, match="overlapping"):
            read_corpus(path)

    def test_drop_misaligned_keeps_document(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        doc = {
            "id": "d",
            "tokens": [{"surface": s, "features": []} for s in "abcd"],
            "spans": [
                {"type": "t", "start": 0, "end": 2},
                {"type": "t", "start": 3, "end": 9},
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(CorpusFormatError, match="does not fit"):
            read_corpus(path)
        with caplog.at_level("WARNING"):
            loaded = read_corpus(path, drop_misaligned=True)
        assert loaded.documents[0].spans == (Span("t", 0, 2),)
        assert any(
            "dropped 1 misaligned" in r.getMessage() for r in caplog.records
        )

    def test_tsv_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only_one_column\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            read_corpus(path, format="conll_tsv")

    def test_tsv_stray_continuation_strict_vs_lenient(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tO\nb\tI-t\n")
        with pytest.raises(CorpusFormatError):
            read_corpus(path, format="conll_tsv")
        loaded = read_corpus(path, format="conll_tsv", decode_mode="lenient")
        assert loaded.documents[0].spans == (Span("t", 1, 2),)

    def test_tsv_features_in_extra_columns(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tB-t\tf1\tf2\nb\tI-t\n")
        doc = read_corpus(path, format="conll_tsv").documents[0]
        assert doc.tokens[0].features == frozenset({"f1", "f2"})
        assert doc.spans == (Span("t", 0, 2),)

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(read_corpus(path)) == 0


class TestBioSequence:
    def test_len_and_iter(self):
        seq = BioSequence(("O", "B-t"))
        assert len(seq) == 2
        assert list(seq) == ["O", "B-t"]
