"""Data model, BIO round trips, and file format round trips."""

import codecs
import copy
import dataclasses
import gc
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
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

from spanmeta import corpus as corpus_mod
from spanmeta._jsontext import InputError, parse_json, read_text

from helpers import make_doc, random_corpus


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

    def test_token_hash_is_the_dataclass_hash_of_its_fields(self):
        token = Token("naïve", frozenset({"cap", "x"}))
        assert hash(token) == hash((token.surface, token.features))

    def test_token_equality_fields_and_repr(self):
        assert Token("a", ["f"]) == Token("a", frozenset({"f"}))
        assert Token("a") != Token("a", ["f"])
        assert Token("a") != Token("b")
        assert [f.name for f in dataclasses.fields(Token)] == ["surface", "features"]
        assert dataclasses.asdict(Token("a")) == {"surface": "a", "features": frozenset()}
        assert repr(Token("a")) == "Token(surface='a', features=frozenset())"

    def test_every_empty_feature_bag_is_one_set(self):
        tokens = [Token("a"), Token("b", []), Token("c", frozenset()), Token("d", ())]
        assert all(t.features is corpus_mod._NO_FEATURES for t in tokens)
        assert Token("a", []) == Token("a", frozenset()) == Token("a")
        assert hash(Token("a", [])) == hash(("a", frozenset()))
        assert Token("a", ["f"]).features is not corpus_mod._NO_FEATURES

    def test_token_pickles_and_copies_to_an_equal_token(self):
        token = Token("naïve", frozenset({"cap", "x"}))
        back = pickle.loads(pickle.dumps(token))
        assert back is not token
        assert back == token and hash(back) == hash(token)
        for clone in (copy.copy(token), copy.deepcopy(token)):
            assert clone == token and hash(clone) == hash(token)

    def test_token_pickled_under_another_hash_seed_hashes_as_here(self):
        # str hashes differ between processes, so a hash must not travel
        code = (
            "import pickle, sys\nfrom spanmeta.corpus import Token\n"
            "token = Token('naïve', {'cap', 'x'})\nhash(token)\n"
            "sys.stdout.buffer.write(pickle.dumps(token))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": "12345"}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, check=True
        )
        here = Token("naïve", frozenset({"cap", "x"}))
        token = pickle.loads(done.stdout)
        assert token == here and hash(token) == hash(here)
        assert {token: "found"}[here] == "found"

    def test_span_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Span("t", 2, 2)
        with pytest.raises(ValueError):
            Span("t", -1, 1)
        with pytest.raises(ValueError):
            Span("", 0, 1)

    @pytest.mark.parametrize(
        "type_id, start, end",
        [("t", False, True), ("t", 0, True), ("t", 0.0, 1), ("t", 0, 1.0), ("t", "0", 1),
         (None, 0, 1), (7, 0, 1), (["t"], 0, 1)],
    )
    def test_span_rejects_what_is_not_a_type_id_or_an_int(self, type_id, start, end):
        with pytest.raises(ValueError, match="span (type id|offsets) must be"):
            Span(type_id, start, end)

    @pytest.mark.parametrize("doc_id", [7, None, b"d", ("d",)])
    def test_document_rejects_non_string_id(self, doc_id):
        with pytest.raises(ValueError, match="document id must be a string"):
            Document(doc_id, ())

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


def _indexed_corpus() -> Corpus:
    docs = (
        make_doc("d0", list("abcde"), [Span("t", 0, 1), Span("u", 1, 3), Span("t", 4, 5)]),
        make_doc("d1", list("xy")),
        make_doc("d2", list("xyz"), [Span("u", 0, 3)]),
    )
    return Corpus(docs, ("t", "u", "unused"))


class TestSpanIndex:
    def test_pairs_each_type_in_document_order(self):
        corpus = _indexed_corpus()
        d0, _, d2 = corpus.documents
        assert corpus._spans_by_type == {
            "t": ((d0, Span("t", 0, 1)), (d0, Span("t", 4, 5))),
            "u": ((d0, Span("u", 1, 3)), (d2, Span("u", 0, 3))),
        }
        assert corpus._spans_by_type is corpus._spans_by_type

    def test_index_changes_no_equality_hash_repr_or_asdict(self):
        corpus, twin = _indexed_corpus(), _indexed_corpus()
        before = (hash(corpus), repr(corpus), dataclasses.asdict(corpus))
        corpus._spans_by_type
        assert "_spans_by_type" in vars(corpus) and "_spans_by_type" not in vars(twin)
        assert corpus == twin and twin == corpus
        assert (hash(corpus), repr(corpus), dataclasses.asdict(corpus)) == before
        assert (hash(twin), repr(twin), dataclasses.asdict(twin)) == before
        assert [f.name for f in dataclasses.fields(Corpus)] == [
            "documents", "span_type_inventory", "partition"
        ]

    @pytest.mark.parametrize("built", [False, True])
    def test_pickle_and_copy_give_equal_corpora_with_the_same_index(self, built):
        corpus = _indexed_corpus()
        if built:
            corpus._spans_by_type
        clones = (
            pickle.loads(pickle.dumps(corpus)), copy.copy(corpus), copy.deepcopy(corpus)
        )
        for clone in clones:
            assert clone == corpus and hash(clone) == hash(corpus)
            assert "_spans_by_type" not in vars(clone)  # rebuilt, not carried over
            assert clone._spans_by_type == corpus._spans_by_type

    @pytest.mark.parametrize(
        "make",
        [_indexed_corpus, lambda: random_corpus(np.random.default_rng(1), max_types=4)],
        ids=["indexed", "random"],
    )
    def test_a_pickle_leaves_the_index_out(self, make):
        corpus = make()
        before = pickle.dumps(corpus)
        corpus._spans_by_type
        assert "_spans_by_type" in vars(corpus)
        assert pickle.dumps(corpus) == before
        assert "_spans_by_type" in vars(corpus)  # pickling keeps the original's index

    def test_a_replaced_corpus_builds_its_own_index(self):
        corpus = _indexed_corpus()
        corpus._spans_by_type
        fewer = dataclasses.replace(corpus, documents=corpus.documents[1:])
        assert "_spans_by_type" not in vars(fewer)
        assert fewer._spans_by_type == {"u": ((fewer.documents[1], Span("u", 0, 3)),)}
        same = dataclasses.replace(corpus)
        assert same == corpus and "_spans_by_type" not in vars(same)
        assert same._spans_by_type == corpus._spans_by_type


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

    @pytest.mark.parametrize(
        "doc, where",
        [
            (Document("d", (Token("x"), Token("y", frozenset({"x\ty"})))), "token 1"),
            (make_doc("d", ["x", "a\tb"]), "token 1"),
            (make_doc("d", ["a\rb", "x"]), "token 0"),
            (make_doc("d", ["x", "y", "a\nb"]), "token 2"),
            (Document("d", (Token("x", frozenset({"f\r"})),)), "token 0"),
            (make_doc("d", ["x", "y"], [Span("t\tu", 1, 2)]), "token 1"),
            (Document("d", ()), "no tokens"),
        ],
        ids=["tab-feature", "tab-surface", "cr-surface", "lf-surface", "cr-feature",
             "tab-type", "empty-doc"],
    )
    def test_tsv_writer_refuses_what_tsv_cannot_hold(self, tmp_path, doc, where):
        inventory = tuple(dict.fromkeys(s.type_id for s in doc.spans))
        corpus = Corpus((make_doc("a", ["p"]), doc, make_doc("b", ["q"])), inventory)
        path = tmp_path / "c"
        with pytest.raises(ValueError, match=f"document 'd'.*{where}"):
            write_corpus(corpus, path, format="conll_tsv")
        assert not path.exists()
        write_corpus(corpus, path)
        assert read_corpus(path).documents == corpus.documents

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

    def test_partition_tag(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(_sample_corpus(), path)
        assert read_corpus(path).partition == "train"
        assert read_corpus(path, partition="test").partition == "test"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_corpus(_sample_corpus(), tmp_path / "x", format="xml")

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_unencodable_text_leaves_an_earlier_file_intact(self, tmp_path, fmt):
        # JSON reads a \ud800 escape as a lone surrogate, which has no UTF-8 form
        source = tmp_path / "lone.jsonl"
        source.write_text('{"id": "d", "tokens": [{"surface": "\\ud800"}], "spans": []}\n')
        corpus = read_corpus(source)
        path = tmp_path / "out"
        path.write_bytes(b"earlier\n")
        with pytest.raises(ValueError, match=f"cannot write {path}: .*surrogates"):
            write_corpus(corpus, path, format=fmt)
        assert path.read_bytes() == b"earlier\n"


class TestReadErrors:
    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "tokens": [], "spans": []}\n{oops\n')
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path)
        assert (info.value.path, info.value.line) == (path, 2)
        assert str(info.value).startswith(f"{path}: line 2: invalid JSON: Expecting ")

    def test_deeply_nested_json_reports_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"id": "a", "tokens": [], "spans": []}\n' + "[" * 100_000 + "\n")
        with pytest.raises(CorpusFormatError, match=_at(path, 2) + "invalid JSON: "):
            read_corpus(path)

    def test_over_long_integer_reports_line(self, tmp_path):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter converts integers of any length")
        path = tmp_path / "long.jsonl"
        path.write_text(
            '{"id": "a", "tokens": [], "spans": []}\n'
            '{"id": "b", "tokens": [], "spans": [], "n": 1' + "0" * 5000 + "}\n"
        )
        with pytest.raises(
            CorpusFormatError, match=_at(path, 2) + "invalid JSON: Exceeds the limit"
        ):
            read_corpus(path)

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["no-mark", "mark"])
    @pytest.mark.parametrize(
        "fault, reason",
        [
            (b"b\xff\tO{end}", "invalid start byte"),
            (b"b\xe2\x82", "unexpected end of data"),
            (b"b\xe2\x82{end}a\tO{end}", "invalid continuation byte"),
        ],
        ids=["invalid-byte", "cut-at-end-of-file", "cut-before-line-end"],
    )
    def test_bytes_that_are_not_utf8_report_path_and_line(
        self, tmp_path, fmt, end, mark, fault, reason
    ):
        path = tmp_path / "latin1"
        # a document on line 1, a blank line 2, and the bytes at fault on line 3
        path.write_bytes(mark + _FIRST_LINE[fmt] + end + end + fault.replace(b"{end}", end))
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path, format=fmt)
        assert str(info.value) == f"{path}: line 3: not UTF-8 text ({reason})"
        with pytest.raises(InputError) as whole:
            read_text(path)
        assert str(whole.value) == str(info.value)
        back = pickle.loads(pickle.dumps(info.value))
        assert (type(back), str(back)) == (CorpusFormatError, str(info.value))

    @pytest.mark.parametrize(
        "fmt, malformed, reason",
        [
            ("jsonl", b"{oops", "invalid JSON: Expecting property name"),
            ("conll_tsv", b"only_one_column", "expected at least 2 tab-separated columns"),
        ],
    )
    def test_the_first_faulty_line_is_refused(self, tmp_path, fmt, malformed, reason):
        # lines are decoded and parsed one at a time, so a malformed line 2
        # is refused before the reader meets the byte on line 5
        path = tmp_path / "two-faults"
        first = _FIRST_LINE[fmt]
        path.write_bytes(first + b"\n" + malformed + b"\n" + first + b"\n\nb\xff\tO\n")
        with pytest.raises(CorpusFormatError, match=_at(path, 2) + reason):
            read_corpus(path, format=fmt)

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
        with pytest.raises(CorpusFormatError, match=_at(path, 2) + f".*{message}"):
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

    @pytest.mark.parametrize(
        "doc_id, message",
        [(7, "document id must be a string, got 7"),
         (None, "document id must be a string, got None")],
    )
    def test_non_string_id_reports_line(self, tmp_path, doc_id, message):
        path = tmp_path / "bad.jsonl"
        lines = [_jsonl_line("a", [("x", [])]), _jsonl_line(doc_id, [("x", [])])]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path)
        assert str(info.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize(
        "span, message",
        [
            ({"type": "t", "start": True, "end": 1}, "offsets must be ints, got start=True, end=1"),
            ({"type": "t", "start": 0, "end": 1.0}, "offsets must be ints, got start=0, end=1.0"),
            ({"type": "t", "end": 1}, "offsets must be ints, got start=None, end=1"),
            ({"type": 3, "start": 0, "end": 1}, "type id must be a non-empty string, got 3"),
            ({"start": 0, "end": 1}, "type id must be a non-empty string, got None"),
            ({"type": "t", "start": 1, "end": 1}, "bounds [1, 1): need 0 <= start < end"),
        ],
        ids=["bool-start", "float-end", "no-start", "int-type", "no-type", "empty"],
    )
    def test_malformed_span_reports_line_and_document(self, tmp_path, span, message):
        path = tmp_path / "bad.jsonl"
        doc = {"id": "d", "tokens": [{"surface": "x", "features": []}], "spans": [span]}
        path.write_text(_jsonl_line("a", [("x", [])]) + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path)
        assert str(info.value).startswith(f"{path}: line 2: document 'd': ")
        assert str(info.value).endswith(f" span {message}")

    def test_tsv_empty_surface_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tO\n\tB-t\n")
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path, format="conll_tsv")
        assert str(info.value) == f"{path}: line 2: token surface must be a non-empty string"

    def test_tsv_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tO\nonly_one_column\n")
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path, format="conll_tsv")
        assert str(info.value) == (
            f"{path}: line 2: expected at least 2 tab-separated columns, got 1"
        )

    def test_tsv_stray_continuation_strict_vs_lenient(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tO\n\nb\tO\nc\tI-t\n")
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path, format="conll_tsv")
        # the line of the document's first row, then the label's position in it
        assert str(info.value) == (
            f"{path}: line 3: position 1: stray continuation label 'I-t' (open span: None)"
        )
        loaded = read_corpus(path, format="conll_tsv", decode_mode="lenient")
        assert loaded.documents[1].spans == (Span("t", 1, 2),)

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


def _read_from_a_pipe(data: bytes, **options):
    """``read_corpus`` of ``/proc/self/fd/N`` for a pipe that a thread
    fills with ``data``, which must fit in the pipe's buffer: the path and
    the corpus, or the path and the error raised."""
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as f:
            f.write(data)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    path = f"/proc/self/fd/{read_end}"
    try:
        return path, read_corpus(path, **options)
    except CorpusFormatError as e:
        return path, e
    finally:
        feeder.join(timeout=30)
        os.close(read_end)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/fd is Linux's")
class TestPipe:
    """A pipe can be read only once: a corpus read from one reads and fails
    as the same bytes do from a file on disk."""

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_bytes_that_are_not_utf8_report_path_and_line(self, fmt):
        path, error = _read_from_a_pipe(
            _FIRST_LINE[fmt] + b"\r\n\r\nb\xff\tO\n", format=fmt
        )
        assert type(error) is CorpusFormatError
        assert str(error) == f"{path}: line 3: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_a_valid_file_reads_as_from_disk(self, tmp_path, fmt):
        disk = tmp_path / "c"
        write_corpus(_sample_corpus(), disk, format=fmt)
        _, corpus = _read_from_a_pipe(disk.read_bytes(), format=fmt)
        assert corpus == read_corpus(disk, format=fmt)
        assert len(corpus) == len(_sample_corpus())


def _megabyte_corpus(fmt: str) -> Corpus:
    """A corpus whose file is about 1 MB in ``fmt``, of 300 distinct tokens
    repeated, as words repeat in text, so it holds much less than its file."""
    words = [Token(f"w{i}", frozenset({"cap"} if i % 3 else ())) for i in range(300)]
    n = {"jsonl": 900, "conll_tsv": 4000}[fmt]
    docs = tuple(
        Document(
            f"d{d}",
            tuple(words[(7 * d + 13 * i) % 300] for i in range(25)),
            (Span("t", 1, 3), Span("u", 5, 6)),
        )
        for d in range(n)
    )
    return Corpus(docs, ("t", "u"))


def _traced(call):
    """The bytes traced before ``call()``, its result, the bytes traced
    after it and their peak during it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return before, result, after, peak


@pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
class TestMemory:
    """Reading and writing go one line at a time, so neither holds a copy
    of the whole file: memory follows the corpus, not the file."""

    def test_a_read_peaks_less_than_half_the_file_above_the_corpus(self, tmp_path, fmt):
        path = tmp_path / "c"
        corpus = _megabyte_corpus(fmt)
        write_corpus(corpus, path, format=fmt)
        size = path.stat().st_size
        assert 900_000 < size < 1_300_000
        _, back, held, peak = _traced(lambda: read_corpus(path, format=fmt))
        assert peak - held < size / 2
        assert len(back) == len(corpus)

    def test_a_write_peaks_less_than_half_the_file_above_what_it_held(self, tmp_path, fmt):
        path = tmp_path / "c"
        corpus = _megabyte_corpus(fmt)
        before, _, _, peak = _traced(lambda: write_corpus(corpus, path, format=fmt))
        size = path.stat().st_size
        assert 900_000 < size < 1_300_000
        assert peak - before < size / 2


# a first line in each format: a document with no spans
_FIRST_LINE = {"jsonl": b'{"id": "a", "tokens": [], "spans": []}', "conll_tsv": b"a\tO"}


def _at(path, line: int) -> str:
    """The pattern of a refusal's text up to its reason."""
    return "^" + re.escape(f"{path}: line {line}: ")


def _jsonl_line(doc_id, tokens, spans=()):
    return json.dumps(
        {
            "id": doc_id,
            "tokens": [{"surface": s, "features": f} for s, f in tokens],
            "spans": [{"type": t, "start": a, "end": b} for t, a, b in spans],
        }
    )


def _tsv_row(surface, features, label="O"):
    return "\t".join([surface, label, *features])


class TestInterning:
    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_equal_tokens_of_one_read_are_one_object(self, tmp_path, fmt):
        path = tmp_path / "c"
        docs = (
            Document("a", (Token("x", frozenset({"f", "g"})), Token("y"), Token("x"))),
            Document("b", (Token("y"), Token("x", frozenset({"g", "f"})), Token("x"))),
        )
        write_corpus(Corpus(docs, ()), path, format=fmt)
        first, second = read_corpus(path, format=fmt), read_corpus(path, format=fmt)
        a, b = first.documents
        assert a.tokens[0] is b.tokens[1]  # x with {f, g}
        assert a.tokens[1] is b.tokens[0]  # y
        assert a.tokens[2] is b.tokens[2]  # x with no features
        assert a.tokens[0] is not a.tokens[2]
        assert first.documents[0].tokens[0] is not second.documents[0].tokens[0]
        assert [d.tokens for d in first] == [d.tokens for d in docs]

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_feature_order_does_not_matter(self, tmp_path, fmt):
        path = tmp_path / "c"
        orders = (["b", "a"], ["a", "b"], ["a", "b", "a"])
        if fmt == "jsonl":
            path.write_text(_jsonl_line("d", [("x", f) for f in orders]) + "\n")
        else:
            path.write_text("".join(_tsv_row("x", f) + "\n" for f in orders))
        tokens = read_corpus(path, format=fmt).documents[0].tokens
        assert tokens[0] == tokens[1] == tokens[2] == Token("x", frozenset("ab"))
        assert len({hash(t) for t in tokens}) == 1
        assert tokens[0] is tokens[1] is tokens[2]

    def test_one_object_whichever_path_reads_the_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        layout = _jsonl_line("a", [("x", ["x", "y"]), ("x", ["y", "x"])])
        compact = json.dumps(
            {"id": "b", "tokens": [{"surface": "x", "features": ["x", "y", "x"]}]},
            separators=(",", ":"),
        )
        path.write_text(layout + "\n" + compact + "\n")
        a, b = read_corpus(path).documents
        assert a.tokens[0] is a.tokens[1] is b.tokens[0]

    @pytest.mark.parametrize(
        "bad", [["f", ""], ["f", 3], [""], ["f", None]], ids=["empty", "int", "only", "null"]
    )
    def test_jsonl_malformed_repeat_reports_its_own_line(self, tmp_path, bad):
        path = tmp_path / "c.jsonl"
        path.write_text(
            _jsonl_line("a", [("x", ["f"]), ("y", [])]) + "\n"
            + _jsonl_line("b", [("y", []), ("x", ["f"])]) + "\n"
            + _jsonl_line("c", [("x", ["f"]), ("x", bad)]) + "\n"
        )  # fmt: skip
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path)
        assert str(info.value) == f"{path}: line 3: feature names must be non-empty strings"

    @pytest.mark.parametrize("bad", [["f", ""], [""]], ids=["trailing_tab", "empty"])
    def test_tsv_malformed_repeat_reports_its_own_line(self, tmp_path, bad):
        path = tmp_path / "c.tsv"
        rows = [_tsv_row("x", ["f"]), _tsv_row("x", ["f"]), "", _tsv_row("x", bad)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path, format="conll_tsv")
        assert str(info.value) == f"{path}: line 4: feature names must be non-empty strings"

    @pytest.mark.parametrize("entry", [["f"], {"f": 1}], ids=["list", "object"])
    def test_unhashable_feature_entry_reports_its_line(self, tmp_path, entry):
        path = tmp_path / "c.jsonl"
        path.write_text(
            _jsonl_line("a", [("x", ["f"])]) + "\n"
            + _jsonl_line("b", [("x", ["f"]), ("x", ["f", entry])]) + "\n"
        )  # fmt: skip
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path)
        assert str(info.value) == f"{path}: line 2: feature names must be non-empty strings"
        assert isinstance(info.value.__cause__, ValueError)


# The writers as they were before they encoded each distinct token once:
# one dict per token and one json.dumps per document, and one joined and
# checked row per token. Their bytes and their refusals are the oracle.


def _dict_jsonl(corpus: Corpus, reordered: bool = False, **dumps) -> str:
    """``json.dumps(..., ensure_ascii=False)`` lines, or with other ``dumps``
    options; ``reordered`` reverses the order of every object's keys."""
    def ordered(obj: dict) -> dict:
        return dict(reversed(obj.items())) if reordered else obj

    lines = []
    for doc in corpus.documents:
        obj = {
            "id": doc.id,
            "tokens": [
                ordered({"surface": t.surface, "features": sorted(t.features)})
                for t in doc.tokens
            ],
            "spans": [
                ordered({"type": s.type_id, "start": s.start, "end": s.end})
                for s in doc.spans
            ],
        }
        lines.append(json.dumps(ordered(obj), **{"ensure_ascii": False, **dumps}))
    return "\n".join(lines) + ("\n" if lines else "")


def _row_conll_tsv(corpus: Corpus) -> str:
    blocks = []
    for doc in corpus.documents:
        if not doc.tokens:
            raise ValueError(
                f"document {doc.id!r}: conll_tsv cannot hold a document with no tokens"
            )
        labels = bio_encode(doc, corpus.span_type_inventory)
        rows = []
        for position, (tok, lab) in enumerate(zip(doc.tokens, labels)):
            cols = [tok.surface, lab, *sorted(tok.features)]
            row = "\t".join(cols)
            if row.count("\t") != len(cols) - 1 or "\n" in row or "\r" in row:
                raise ValueError(
                    f"document {doc.id!r}, token {position}: conll_tsv cannot hold "
                    "a tab, line feed or carriage return in a surface, label or "
                    "feature name"
                )
            rows.append(row)
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


_ORACLES = {"jsonl": _dict_jsonl, "conll_tsv": _row_conll_tsv}


def _written(write, *args) -> bytes | str:
    """The bytes written, or the refusal's message."""
    try:
        return write(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_writes_as_oracle(corpus: Corpus, path, fmt: str) -> None:
    def write(corpus):
        write_corpus(corpus, path, format=fmt)
        return path.read_bytes()

    want = _written(lambda c: _ORACLES[fmt](c).encode("utf-8"), corpus)
    assert _written(write, corpus) == want


# quotes, backslashes, non-ASCII, C0 and C1 controls, Unicode line breaks,
# and the tab, line feed and carriage return that TSV refuses
_NAMES = st.text(
    st.sampled_from('ab"\\é😀\x00\x1f\x7f\x85\u2028 \t\n\r'), min_size=1, max_size=4
)


@st.composite
def _corpora(draw, names=_NAMES):
    token = st.builds(Token, names, st.frozensets(names, max_size=3))
    pool = draw(st.lists(token, min_size=1, max_size=6))
    types = draw(st.lists(names, max_size=3, unique=True))
    docs = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 8))
        # some repeats are the same object, as after a read, some only equal
        tokens = [draw(st.sampled_from(pool)) for _ in range(n)]
        tokens = [Token(t.surface, t.features) if draw(st.booleans()) else t for t in tokens]
        spans, pos = [], 0
        while types and pos < n:
            start = pos + draw(st.integers(0, 2))
            end = start + draw(st.integers(1, 3))
            if end > n:
                break
            spans.append(Span(draw(st.sampled_from(types)), start, end))
            pos = end
        docs.append(Document(draw(names), tuple(tokens), tuple(spans)))
    return Corpus(tuple(docs), tuple(types))


def _tricky_corpus() -> Corpus:
    quoted = Token('say "hi" \\ é\x00', frozenset({'f"1', "b\\", "ü\x1f", "\u2028"}))
    docs = (
        Document('id "q" \\ é\x01', (quoted, Token("x"), quoted), (Span('ty"pe\\é', 0, 2),)),
        Document("empty", ()),
        # equal to the tokens above, but other objects
        Document("copies", (Token(quoted.surface, quoted.features), Token("x"))),
        # every token distinct
        Document("distinct", tuple(Token(f"w{i}", frozenset({f"f{i}"})) for i in range(9))),
    )
    return Corpus(docs, ('ty"pe\\é',))


class TestWritersMatchTheDictEncoders:
    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_tricky_names_empty_bags_and_repeats(self, tmp_path, fmt):
        corpus = _tricky_corpus()
        if fmt == "conll_tsv":  # it cannot hold the empty document
            corpus = Corpus(
                tuple(d for d in corpus.documents if d.tokens), corpus.span_type_inventory
            )
        _assert_writes_as_oracle(corpus, tmp_path / "c", fmt)

    def test_empty_corpus(self, tmp_path):
        for fmt in _ORACLES:
            _assert_writes_as_oracle(Corpus((), ()), tmp_path / "c", fmt)

    @pytest.mark.parametrize(
        "tokens, spans, position",
        [
            (["x", "y", "a\tb", "c\nd"], [], 2),
            (["x", "y", "z"], [Span("t\nu", 1, 3)], 1),
            (["x", "a\rb", "z"], [Span("t\nu", 2, 3)], 1),
            (["x", "y", "a\rb"], [Span("t\nu", 0, 2)], 0),
        ],
    )
    def test_tsv_refusal_names_the_first_bad_position(self, tmp_path, tokens, spans, position):
        corpus = Corpus(
            (make_doc("ok", ["p"]), make_doc("d", tokens, spans)),
            tuple(dict.fromkeys(s.type_id for s in spans)),
        )
        with pytest.raises(ValueError, match=f"^document 'd', token {position}: "):
            write_corpus(corpus, tmp_path / "c", format="conll_tsv")
        _assert_writes_as_oracle(corpus, tmp_path / "c", "conll_tsv")

    def test_tsv_refuses_to_start_with_a_byte_order_mark(self, tmp_path):
        # the reader drops a byte-order mark at the start of a file, so TSV
        # would lose it from the first surface; a JSONL line starts with "{"
        corpus = Corpus((make_doc("d", ["\ufeffa", "\ufeffb"]),), ())
        with pytest.raises(ValueError, match="^document 'd', token 0: .*byte-order mark"):
            write_corpus(corpus, tmp_path / "c", format="conll_tsv")
        write_corpus(corpus, tmp_path / "c", format="jsonl")
        assert read_corpus(tmp_path / "c").documents == corpus.documents
        later = Corpus((make_doc("d", ["a", "\ufeffb"]),), ())
        write_corpus(later, tmp_path / "c", format="conll_tsv")
        assert read_corpus(tmp_path / "c", format="conll_tsv").documents[0].tokens == (
            later.documents[0].tokens
        )

    @settings(max_examples=100, deadline=None)
    @given(_corpora())
    def test_random_corpora(self, tmp_path_factory, corpus):
        path = tmp_path_factory.getbasetemp() / "random-corpus"
        for fmt in _ORACLES:
            _assert_writes_as_oracle(corpus, path, fmt)


# names that cut or fake the layout's separators and keys, and a lone
# surrogate, which only a file written with escapes can hold
_LAYOUT_NAMES = st.one_of(
    _NAMES,
    st.lists(
        st.sampled_from(
            ["}, {", "}]", "}], ", "]", '"', "\\", "é", "\ud800", "a", ', "spans": [', '{"id": "']
        ),
        min_size=1,
        max_size=3,
    ).map("".join),
)


def _read(path) -> tuple[Document, ...] | str:
    """The documents ``read_corpus`` reads from ``path``, or its refusal."""
    try:
        return read_corpus(path).documents
    except CorpusFormatError as e:
        return str(e)


def _read_with_json_loads(path) -> tuple[Document, ...] | str:
    """What ``json.loads`` and the checks of ``_document_from_obj`` make of
    each line of ``path``: the documents, or the first refusal."""
    seen: dict = {}
    docs = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            docs.append(corpus_mod._document_from_obj(parse_json(line), seen))
        except ValueError as e:
            return f"{path}: line {lineno}: {e}"
    return tuple(docs)


def _read_noting_json_loads(monkeypatch, path) -> tuple[tuple[Document, ...], list[str]]:
    """The documents of ``path`` and the lines the read passed to ``parse_json``."""
    calls = []
    monkeypatch.setattr(corpus_mod, "parse_json", lambda line: calls.append(line) or parse_json(line))
    return read_corpus(path).documents, calls


class TestJsonlLayouts:
    """A line in the writer's layout is read without ``json.loads`` over its
    tokens; every file reads as ``json.loads`` and the checks read it."""

    @settings(max_examples=100, deadline=None)
    @given(_corpora(_LAYOUT_NAMES))
    def test_every_layout_reads_to_the_same_documents(self, tmp_path_factory, corpus):
        path = tmp_path_factory.getbasetemp() / "layouts"
        try:
            write_corpus(corpus, path)
        except ValueError:  # a lone surrogate has no UTF-8 form: write escapes
            texts, escape = [], True
        else:
            texts, escape = [path.read_text(encoding="utf-8")], False
        texts += [
            _dict_jsonl(corpus, separators=(",", ":"), ensure_ascii=escape),
            _dict_jsonl(corpus, reordered=True, ensure_ascii=escape),
            _dict_jsonl(corpus, ensure_ascii=True),
        ]
        for text in texts:
            path.write_text(text, encoding="utf-8")
            assert _read(path) == corpus.documents

    def test_separators_inside_strings(self, tmp_path, monkeypatch):
        fake = '}, {"surface": "z", "features": []}], "spans": [], "id": "x'
        corpus = Corpus(
            (
                make_doc("a", ["p", "}, {", "q"]),
                make_doc("b", ["p", "}]", "}], "], [Span("t", 1, 2)]),
                make_doc("c", [fake, "p"]),
                Document(fake, (Token("p", frozenset({"}, {", fake})),)),
                make_doc("d", ["p", "q"]),
            ),
            ("t",),
        )
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path)
        docs, generic = _read_noting_json_loads(monkeypatch, path)
        assert docs == corpus.documents
        # a cut piece does not parse, so those lines go to json.loads
        lines = path.read_text().splitlines()
        assert generic == [lines[0], lines[1], lines[2], lines[3]]

    def test_mutated_lines_read_as_json_loads_reads_them(self, tmp_path):
        good = _jsonl_line("d", [("x", ["f"]), ("y", []), ("x", ["f"])], [("t", 0, 2)])
        token = '{"surface": "y", "features": []}'
        mutants = [good[:cut] for cut in range(len(good))] + [
            good[:-1] + ", }",  # trailing commas
            good[: good.index('"spans"')] + "}",
            good.replace("}], ", "}, ], "),
            good.replace(token, '{"surface": "y", "features": [], }'),
            good[:-1] + ', "id": "e"}',  # a repeated key, of which json.loads keeps the last
            good[:-1] + ', "tokens": []}',
            good[:-1] + ', "tokens": [{"surface": "z"}]}',
            good[:-1] + ', "spans": []}',
            good[:-1] + ', "note": [{"a": [{}]}]}',  # keys the writer does not write
            good.replace(token, '{"surface": "y", "features": [], "x": [{"a": 1}]}'),
            good.replace(token, '{"features": [], "surface": "y", "surface": "z"}'),
            good.replace('"end": 2}', '"end": 2, "x": [1]}'),
            good.replace(token, '{"surface": "y", "features": [{"a": 1}]}'),  # objects in a token
            good.replace(token, '{"surface": "y", "features": [["f"]]}'),
            good.replace(token, '{"surface": "y", "features": "ab"}'),  # features not a list
            good.replace(token, '{"surface": "y", "features": null}'),
            good.replace(token, '{"surface": "y", "features": {"f": 1}}'),
            good.replace(token, '{"surface": "y"}'),
            good.replace(token, '{"surface": 3, "features": []}'),
            good.replace(token, "[]"),
            good.replace(token, "{}"),
            good.replace(token, token + ", {}"),
            good.replace(token, token + " "),
            _jsonl_line("d", []),  # an empty token array
            _jsonl_line("d", [], [("t", 0, 1)]),
            good.replace('"id": "d"', '"id": 3'),
            good.replace('"id": "d"', '"id": "\\u0000\\ud800"'),
            good.replace('"id": "d"', '"id": "\x01"'),
            good.replace('"spans": [', '"spans": [[], '),
            good.replace('"start": 0', '"start": 0.0'),
            " " + good,
            good + " ",
            good + "x",
            good.replace(", ", ",", 1),
            good.replace(": ", ":", 1),
            good.replace("}, {", "},{", 1),
        ]
        path = tmp_path / "c.jsonl"
        for mutant in mutants:
            # a good line first, so that the memo holds the good tokens
            path.write_text(good + "\n" + mutant + "\n", encoding="utf-8")
            assert _read(path) == _read_with_json_loads(path), mutant

    @pytest.mark.parametrize("where", ["token", "span", "document"])
    def test_nesting_at_the_depth_limit_reads_as_json_loads_reads_it(self, tmp_path, where):
        # the layout path parses a token two levels nearer the top than
        # json.loads does, and from another stack depth: a key the writer
        # does not write must send a deep value to json.loads
        good = _jsonl_line("d", [("x", [])], [("t", 0, 1)])
        path = tmp_path / "c.jsonl"

        def read(depth: int, layout: bool = True):
            deep = "[" * depth + "]" * depth
            line = {
                "token": good.replace('"features": []', f'"features": [], "x": {deep}'),
                "span": good.replace('"end": 1', f'"end": 1, "x": {deep}'),
                "document": good[:-1] + f', "x": {deep}}}',
            }[where]
            path.write_text(good + "\n" + line + "\n")
            with pytest.MonkeyPatch.context() as monkeypatch:
                if not layout:
                    monkeypatch.setattr(corpus_mod._LayoutReader, "read", lambda self, line: None)
                return _read(path)

        # the least depth json.loads refuses
        low, high = 1, 1 << 17
        assert isinstance(read(low, False), tuple) and isinstance(read(high, False), str)
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if isinstance(read(mid, False), str) else (mid, high)
        for depth in range(high - 4, high + 4):
            assert read(depth) == read(depth, False), depth

    @settings(max_examples=100, deadline=None)
    @given(_corpora())
    def test_every_written_line_takes_the_layout_path(self, corpus):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
            path = os.path.join(tmp, "c.jsonl")
            write_corpus(corpus, path)
            docs, generic = _read_noting_json_loads(monkeypatch, path)
        assert docs == corpus.documents
        assert generic == []


def _read_through(table, path, **options) -> tuple[Document, ...] | str:
    """As ``_read``, through the token table ``table``."""
    try:
        return read_corpus(path, _tokens=table, **options).documents
    except CorpusFormatError as e:
        return str(e)


def _layouts(corpus: Corpus) -> dict[str, str]:
    """The text of ``corpus`` in the writer's layout and in two that go to
    ``json.loads``."""
    return {
        "default": _dict_jsonl(corpus),
        "compact": _dict_jsonl(corpus, separators=(",", ":")),
        "spans-first": _dict_jsonl(corpus, reordered=True),
    }


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _called_deeper(frames: int, fn):
    """``fn()``, called ``frames`` Python frames below this call."""
    return fn() if frames <= 0 else _called_deeper(frames - 1, fn)


class TestNestingLimit:
    """Whether a line is read does not depend on the caller's stack depth."""

    # frames left below the interpreter's limit on the deep call: enough for
    # the read and a value at the limit, too few for json.loads to parse the
    # deeper values itself
    _HEADROOM = 250

    @pytest.mark.parametrize("lists", [99, 100, 500, 980, 989, 5000])
    def test_a_deep_meta_member_reads_alike_from_two_stack_depths(self, tmp_path, lists):
        path = tmp_path / "c.jsonl"
        good = _jsonl_line("d", [("x", [])])
        path.write_text(good[:-1] + ', "meta": ' + "[" * lists + "]" * lists + "}\n")
        shallow = _read(path)
        frames = sys.getrecursionlimit() - _stack_depth() - self._HEADROOM
        assert frames > 50
        assert _called_deeper(frames, lambda: _read(path)) == shallow
        if lists < 100:  # with the document, 100 levels: the limit
            assert isinstance(shallow, tuple) and len(shallow) == 1
        else:
            assert shallow == (
                f"{path}: line 1: invalid JSON: maximum recursion depth exceeded: "
                "containers nest more than 100 deep"
            )


class TestSharedTokenTable:
    """Reads through one token table, as ``eval`` and ``train --dev`` make
    them, return and refuse what fresh reads do, and share equal tokens."""

    @pytest.mark.parametrize("layout", ["default", "compact", "spans-first", "conll_tsv"])
    def test_equal_tokens_of_two_files_are_one_object(self, tmp_path, layout):
        fmt = "conll_tsv" if layout == "conll_tsv" else "jsonl"
        gold = _sample_corpus()
        docs = [Document(d.id, d.tokens, d.spans[1:]) for d in gold.documents]
        docs[2] = Document("doc-c", docs[2].tokens, (Span("place", 0, 2),))
        pred = Corpus(tuple(docs), ("place",))
        gold_path, pred_path = tmp_path / "gold", tmp_path / "pred"
        write_corpus(gold, gold_path, format=fmt)
        if fmt == "jsonl":
            pred_path.write_text(_layouts(pred)[layout], encoding="utf-8")
        else:
            write_corpus(pred, pred_path, format=fmt)
        table = corpus_mod._LayoutReader()
        first = read_corpus(gold_path, format=fmt, _tokens=table)
        second = read_corpus(pred_path, format=fmt, _tokens=table, decode_mode="lenient")
        assert second.documents == read_corpus(pred_path, format=fmt).documents
        for g, p in zip(first.documents, second.documents):
            assert all(a is b for a, b in zip(g.tokens, p.tokens))

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_featureless_tokens_share_one_empty_bag(self, tmp_path, fmt):
        def corpus(surfaces):
            doc = Document("d", tuple(Token(s, ["cap"] if s == "X" else []) for s in surfaces))
            return Corpus((doc,), ())

        paths = tmp_path / "first", tmp_path / "second"
        write_corpus(corpus(["a", "b", "X", "c"]), paths[0], format=fmt)
        write_corpus(corpus(["d", "a", "e"]), paths[1], format=fmt)
        table = corpus_mod._LayoutReader()
        reads = [read_corpus(path, format=fmt, _tokens=table) for path in paths]
        [a, b, x, c], [d, a2, e] = (r.documents[0].tokens for r in reads)
        assert a2 is a
        # within one read, and for new texts of a second read through the table
        assert all(t.features is a.features for t in (b, c, d, e))
        assert a.features == frozenset() and x.features == frozenset({"cap"})

    @settings(max_examples=100, deadline=None)
    @given(_corpora(_LAYOUT_NAMES), _corpora(_LAYOUT_NAMES), st.data())
    def test_a_second_file_reads_as_a_fresh_read_reads_it(
        self, tmp_path_factory, first, second, data
    ):
        base = tmp_path_factory.getbasetemp()
        paths = []
        for name, corpus in (("first", first), ("second", second)):
            # ensure_ascii writes the lone surrogates that UTF-8 cannot hold
            texts = dict(_layouts(corpus), escaped=_dict_jsonl(corpus, ensure_ascii=True))
            try:
                texts["default"].encode("utf-8")
            except UnicodeEncodeError:
                texts = {"escaped": texts["escaped"]}
            paths.append(base / f"shared-{name}")
            paths[-1].write_text(
                data.draw(st.sampled_from(sorted(texts.values()))), encoding="utf-8"
            )
        table = corpus_mod._LayoutReader()
        gold = read_corpus(paths[0], _tokens=table).documents
        docs = _read_through(table, paths[1])
        assert docs == _read(paths[1]) == second.documents
        tokens = {t: t for d in gold for t in d.tokens}
        assert all(tokens.get(t, t) is t for d in docs for t in d.tokens)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda line: line.replace('"end": 2', '"end": 4'),  # a span past the end
            lambda line: line.replace('"features": ["f"]', '"features": "f"', 1),
            lambda line: line.replace('"end": 2}', '"end": 2}, {"type": "t", "start": 1, "end": 3}'),
            lambda line: line.replace('"start": 0', '"start": 0.0'),
            lambda line: line.replace('"id": "d"', '"id": 3'),
        ]
        + [lambda line, cut=cut: line[:cut] for cut in range(5, 80, 5)],  # truncated
    )
    def test_a_refused_line_reads_as_a_fresh_read_refuses_it(self, tmp_path, mutate):
        good = _jsonl_line("d", [("x", ["f"]), ("y", []), ("x", ["f"])], [("t", 0, 2)])
        gold, pred = tmp_path / "gold", tmp_path / "pred"
        gold.write_text(good + "\n")
        pred.write_text(good + "\n" + mutate(good) + "\n")
        table = corpus_mod._LayoutReader()
        read_corpus(gold, _tokens=table)
        refusal = _read(pred)
        assert isinstance(refusal, str) and refusal.startswith(f"{pred}: line 2: ")
        assert _read_through(table, pred) == refusal

    def test_a_token_piece_with_no_value_is_refused_not_cut_short(self, tmp_path):
        # the scanner ends a piece with no value in StopIteration, which would
        # end the map over the line's pieces early: a one-token document
        gold, bad = tmp_path / "gold", tmp_path / "bad"
        gold.write_text(_jsonl_line("g", [("x", [])]) + "\n")
        bad.write_text(
            '{"id": "a", "tokens": [{"surface": "x", "features": []}, {"surface": }], '
            '"spans": []}\n'
        )
        refusal = f"{bad}: line 1: invalid JSON: Expecting value: line 1 column 70 (char 69)"
        assert _read(bad) == refusal
        table = corpus_mod._LayoutReader()
        read_corpus(gold, _tokens=table)
        assert '"surface": "x", "features": []' in table.texts
        assert _read_through(table, bad) == refusal

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_a_failed_read_leaves_the_table_usable(self, tmp_path, fmt):
        if fmt == "jsonl":
            rows = [_jsonl_line(f"d{i}", [(w, ["f"]), ("y", [])]) for i, w in enumerate("abc")]
            bad = _jsonl_line("e", [("b", ["f"]), ("z", [""])])
        else:
            rows = [_tsv_row(w, ["f"]) + "\n" + _tsv_row("y", []) + "\n" for w in "abc"]
            bad = _tsv_row("z", [""])
        gold, broken, good = tmp_path / "gold", tmp_path / "broken", tmp_path / "good"
        gold.write_text(rows[0] + "\n")
        broken.write_text(rows[1] + "\n" + bad + "\n")
        good.write_text("\n".join(rows) + "\n")
        table = corpus_mod._LayoutReader()
        read_corpus(gold, format=fmt, _tokens=table)
        with pytest.raises(CorpusFormatError) as refused:
            read_corpus(broken, format=fmt, _tokens=table)
        # the refused token left nothing behind that a later read could take
        assert _read_through(table, broken, format=fmt) == str(refused.value)
        assert _read_through(table, good, format=fmt) == read_corpus(good, format=fmt).documents


_GOOD = {"jsonl": _jsonl_line("a", [("w", [])], [("t", 0, 1)]), "conll_tsv": "w\tB-t\n"}
_MALFORMED = {"jsonl": '{"id": "a", "tokens": 3}\n', "conll_tsv": "w\n"}


class TestGarbageCollectorState:
    """``read_corpus`` pauses the cyclic collector for the parse and leaves
    ``gc.isenabled()`` as it found it, whether the read succeeds or not."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_at_entry(self, request):
        was = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        yield request.param
        if was:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_a_successful_read_pauses_then_restores(
        self, tmp_path, monkeypatch, gc_at_entry, fmt
    ):
        path = tmp_path / "c"
        path.write_text(_GOOD[fmt])
        seen = []
        parse = {"jsonl": "_parse_jsonl", "conll_tsv": "_parse_conll_tsv"}[fmt]
        exact = getattr(corpus_mod, parse)

        def recording(*args):
            seen.append(gc.isenabled())
            return exact(*args)

        def inventory(docs):
            seen.append(gc.isenabled())
            return ("t",)

        monkeypatch.setattr(corpus_mod, parse, recording)
        monkeypatch.setattr(corpus_mod, "_derive_inventory", inventory)
        corpus = read_corpus(path, format=fmt)
        assert corpus.span_type_inventory == ("t",)
        assert seen == [False, False]
        assert gc.isenabled() is gc_at_entry

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_a_format_error_restores(self, tmp_path, gc_at_entry, fmt):
        path = tmp_path / "c"
        path.write_text(_MALFORMED[fmt])
        with pytest.raises(CorpusFormatError, match=_at(path, 1)):
            read_corpus(path, format=fmt)
        assert gc.isenabled() is gc_at_entry

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    def test_a_file_that_is_not_utf8_restores(self, tmp_path, gc_at_entry, fmt):
        path = tmp_path / "c"
        path.write_bytes(b"w\xff\tO\n")
        with pytest.raises(CorpusFormatError, match="not UTF-8"):
            read_corpus(path, format=fmt)
        assert gc.isenabled() is gc_at_entry

    def test_a_corpus_that_breaks_an_invariant_restores(self, tmp_path, gc_at_entry):
        path = tmp_path / "c"
        path.write_text(_jsonl_line("a", [("w", [])], [("t", 0, 2)]))
        with pytest.raises(CorpusFormatError, match="exceeds document length"):
            read_corpus(path)
        assert gc.isenabled() is gc_at_entry


class TestBioSequence:
    def test_len_and_iter(self):
        seq = BioSequence(("O", "B-t"))
        assert len(seq) == 2
        assert list(seq) == ["O", "B-t"]
