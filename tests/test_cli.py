"""End-to-end checks of the command line, run in process through main().

Exit codes, output bytes, and schema conformance are asserted the way a
shell pipeline would observe them.  Validation failures inside a command
must come back as return code 1, missing files as 2, and argparse-level
mistakes as SystemExit(1).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import random
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spanmeta import (
    ArchitectureFeatures,
    Corpus,
    Document,
    EvalCounts,
    Observation,
    Span,
    SpanTypeProfile,
    Token,
    alpha_mae_curve,
    count_matches,
    export_table,
    f1_report,
    fit_meta_model,
    load_embedded,
    loso_cv,
    predict_f1,
    predict_labels,
    to_observations,
    write_corpus,
)
from spanmeta import cli
from spanmeta._jsontext import json_text
from spanmeta.cli import build_parser, main
from spanmeta.meta import meta_model_to_dict, observations_to_csv
from spanmeta.report import build_reproduction_report
from spanmeta.seqlab import training as training_mod
from spanmeta.seqlab.models import model_from_dict

from helpers import make_doc

ARCH_COMBOS = [
    (False, False, False, False),
    (True, False, False, False),
    (False, True, False, False),
    (False, False, True, False),
    (False, False, False, True),
    (True, True, False, False),
    (True, False, True, False),
    (True, False, False, True),
    (False, True, True, False),
    (False, True, False, True),
    (False, False, True, True),
    (True, True, True, True),
]


def _schema(name: str) -> dict:
    text = resources.files("spanmeta").joinpath(f"schemas/{name}").read_text("utf-8")
    return json.loads(text)


def _valid(payload, schema_name: str) -> None:
    jsonschema.validate(payload, _schema(schema_name))


def _synth_obs(seed: int = 5, n_types: int = 7) -> list[Observation]:
    # 7 span types keeps every leave-one-type-out fold full rank
    rng = np.random.default_rng(seed)
    out = []
    for t in range(n_types):
        profile = SpanTypeProfile(
            f"type{t}",
            int(rng.integers(2, 3000)),
            float(rng.uniform(1.0, 5.0)),
            float(rng.uniform(0.0, 3.0)),
            float(rng.uniform(0.0, 2.0)),
        )
        for flags in ARCH_COMBOS:
            out.append(
                Observation(
                    profile.type_id,
                    ArchitectureFeatures(*flags),
                    profile,
                    float(rng.uniform(1.0, 99.0)),
                )
            )
    return out


def _toy_training_corpus(n_docs: int, partition: str, seed: int) -> Corpus:
    """Trivially separable tagging task: 'per son' is always a p span."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        surfaces: list[str] = []
        spans: list[Span] = []
        for _ in range(int(rng.integers(2, 5))):
            surfaces.append("the")
            start = len(surfaces)
            surfaces.extend(["per", "son"])
            spans.append(Span("p", start, start + 2))
        docs.append(make_doc(f"{partition}-{i}", surfaces, spans))
    return Corpus(tuple(docs), ("p",), partition=partition)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    two_types = Corpus(
        (
            make_doc("d0", ["a", "b", "c", "d"], [Span("t0", 1, 2), Span("t1", 2, 4)]),
            make_doc("d1", ["x", "a", "y"], [Span("t0", 1, 2)]),
        ),
        ("t0", "t1"),
    )
    paths["two_types"] = root / "two_types.jsonl"
    write_corpus(two_types, paths["two_types"])

    one_type = Corpus(
        (make_doc("d0", ["a", "b", "c"], [Span("t0", 1, 2)]),), ("t0",)
    )
    paths["one_type"] = root / "one_type.jsonl"
    write_corpus(one_type, paths["one_type"])

    spanless = Corpus((make_doc("d0", ["a", "b"]),), ())
    paths["spanless"] = root / "spanless.jsonl"
    write_corpus(spanless, paths["spanless"])

    paths["train"] = root / "train.jsonl"
    write_corpus(_toy_training_corpus(12, "train", 71), paths["train"])
    paths["dev"] = root / "dev.jsonl"
    write_corpus(_toy_training_corpus(4, "dev", 72), paths["dev"])
    toy = _toy_training_corpus(12, "train", 71)
    with_empty = (make_doc("empty-0", []), *toy.documents, make_doc("empty-1", []))
    paths["train_with_empty"] = root / "train_with_empty.jsonl"
    write_corpus(Corpus(with_empty, toy.span_type_inventory), paths["train_with_empty"])

    gold = Corpus(
        (
            make_doc("e0", ["u", "v", "w", "x"], [Span("p", 0, 2), Span("q", 3, 4)]),
            make_doc("e1", ["u", "v", "w"], [Span("p", 1, 3)]),
        ),
        ("p", "q"),
    )
    pred = Corpus(
        (
            make_doc("e0", ["u", "v", "w", "x"], [Span("p", 0, 2), Span("q", 2, 4)]),
            make_doc("e1", ["u", "v", "w"], [Span("q", 1, 3)]),
        ),
        ("p", "q"),
    )
    paths["gold"] = root / "gold.jsonl"
    paths["pred"] = root / "pred.jsonl"
    write_corpus(gold, paths["gold"])
    write_corpus(pred, paths["pred"])

    pl_docs = (
        make_doc("a0", ["per", "son", "in", "paris"], [Span("p", 0, 2), Span("l", 3, 4)]),
        make_doc("a1", ["paris", "per", "son"], [Span("l", 0, 1), Span("p", 1, 3)]),
    )
    paths["train_pl"] = root / "train_pl.jsonl"
    write_corpus(Corpus(pl_docs, ("p", "l")), paths["train_pl"])
    # the same type set, first seen in the opposite order
    paths["dev_lp"] = root / "dev_lp.jsonl"
    write_corpus(Corpus(pl_docs[1:], ("l", "p"), partition="dev"), paths["dev_lp"])
    # a type the training file never uses
    extra = make_doc("x0", ["per", "son", "on", "monday"], [Span("p", 0, 2), Span("d", 3, 4)])
    paths["dev_extra"] = root / "dev_extra.jsonl"
    write_corpus(Corpus((extra,), ("p", "d"), partition="dev"), paths["dev_extra"])

    # one correct span plus one of a type the gold file never uses
    words = ["u", "v", "w"]
    paths["gold_one"] = root / "gold_one.jsonl"
    write_corpus(Corpus((make_doc("s0", words, [Span("p", 0, 1)]),), ("p",)), paths["gold_one"])
    spurious = make_doc("s0", words, [Span("p", 0, 1), Span("Q", 2, 3)])
    paths["pred_spurious"] = root / "pred_spurious.jsonl"
    write_corpus(Corpus((spurious,), ("p", "Q")), paths["pred_spurious"])

    shorter = Corpus((make_doc("e0", ["u", "v"]), make_doc("e1", ["u", "v", "w"])), ())
    paths["pred_short"] = root / "pred_short.jsonl"
    write_corpus(shorter, paths["pred_short"])

    renamed = Corpus((make_doc("z9", ["u", "v", "w"]),), ())
    paths["pred_renamed"] = root / "pred_renamed.jsonl"
    write_corpus(renamed, paths["pred_renamed"])

    paths["dup_ids"] = root / "dup_ids.jsonl"
    record = {"id": "e0", "tokens": [{"surface": "u"}], "spans": []}
    paths["dup_ids"].write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")

    paths["gold_tsv"] = root / "gold.tsv"
    paths["gold_tsv"].write_text("the\tB-p\nper\tI-p\nson\tO\n")
    # stray continuation: lenient decoding must open a fresh span here
    paths["pred_tsv"] = root / "pred.tsv"
    paths["pred_tsv"].write_text("the\tO\nper\tI-p\nson\tI-p\n")

    obs_csv = root / "obs.csv"
    observations_to_csv(_synth_obs(), obs_csv)
    paths["obs"] = obs_csv

    bad_obs = root / "bad_obs.csv"
    bad_obs.write_text("kind,f1\nx,50\n")
    paths["bad_obs"] = bad_obs

    return {k: str(v) for k, v in paths.items()}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _plus_fold(parts) -> EvalCounts:
    """The reference sum: per-document counts folded one ``+`` at a time."""
    counts = EvalCounts()
    for part in parts:
        counts = counts + part
    return counts


def _random_spans(rng, n: int, types) -> list[Span]:
    spans, pos = [], 0
    while pos < n:
        if rng.random() < 0.4:
            length = int(rng.integers(1, min(3, n - pos) + 1))
            spans.append(Span(str(rng.choice(types)), pos, pos + length))
            pos += length
        pos += 1
    return spans


def _random_gold_and_pred(root: Path, fmt: str) -> tuple[str, str]:
    """Gold and predicted corpora of 40 documents, five span types, in ``fmt``."""
    rng = np.random.default_rng(404)
    gold, pred = [], []
    for i in range(40):
        n = int(rng.integers(1, 12))
        words = [f"w{int(rng.integers(9))}" for _ in range(n)]
        gold.append(make_doc(f"d{i}", words, _random_spans(rng, n, ["a", "b", "c", "d"])))
        pred.append(make_doc(f"d{i}", words, _random_spans(rng, n, ["a", "b", "c", "e"])))
    paths = []
    for name, docs in (("gold", gold), ("pred", pred)):
        path = root / f"{name}.{fmt}"
        types = tuple(dict.fromkeys(s.type_id for d in docs for s in d.spans))
        write_corpus(Corpus(tuple(docs), types), path, format=fmt)
        paths.append(str(path))
    return paths[0], paths[1]


# ---------------------------------------------------------------------------
# argparse plumbing


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """``parser``'s subcommand parsers by name; empty for a leaf command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _command_paths(parser: argparse.ArgumentParser, path=()):
    yield list(path)
    for name, sub in _subcommands(parser).items():
        yield from _command_paths(sub, (*path, name))


def _leaves(parser: argparse.ArgumentParser) -> list:
    subs = _subcommands(parser).values()
    return [leaf for sub in subs for leaf in _leaves(sub)] if subs else [parser]


# every command path of the full parser with -h, with nothing more and with
# an unknown flag; then words that name no command, and an option before one
_PARITY_ARGVS = [
    *(path + tail for path in _command_paths(build_parser()) for tail in (["-h"], [], ["--x"])),
    ["bogus"],
    ["meta", "bogus"],
    ["--x", "meta", "cv"],
    ["meta", "cv", "--set", "arch_only", "--alpha", "0.3", "--out", "o.json"],
    ["meta", "predict", "--freq", "5", "--length", "2", "--sd", "1", "--bd", "1", "--crf"],
    ["eval", "--gold", "g", "--pred", "p", "--types", "a", "b"],
]


@pytest.fixture
def handlers(monkeypatch):
    """The Namespaces that commands are called with; no command runs."""
    called = []
    for name in list(vars(cli)):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, called.append)
    return called


class TestParsing:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["profile", "--help"],
            ["train", "--help"],
            ["eval", "--help"],
            ["meta", "--help"],
            ["meta", "fit", "--help"],
            ["meta", "cv", "--help"],
            ["meta", "ablate", "--help"],
            ["meta", "predict", "--help"],
            ["meta", "select-alpha", "--help"],
            ["data", "--help"],
            ["data", "export", "--help"],
            ["reproduce", "--help"],
        ],
        ids=lambda argv: "_".join(argv[:-1]) or "top",
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", _PARITY_ARGVS, ids=" ".join)
    def test_main_parses_as_the_full_parser(self, argv, handlers, capsys):
        # main builds only the parsers that argv names; what the user sees
        # and what the command gets must be what the full parser gives
        def full_parser(argv):
            args = build_parser().parse_args(argv)
            args.func(args)
            return 0

        def outcome(run):
            handlers.clear()
            try:
                code = run(argv)
            except SystemExit as e:
                code = e.code
            return (code, *capsys.readouterr(), list(handlers))

        assert outcome(main) == outcome(full_parser)

    def test_a_command_line_builds_only_its_commands_parser(self):
        assert [p.prog for p in _leaves(build_parser(["meta", "cv"]))] == ["spanmeta meta cv"]
        assert len(_leaves(build_parser())) == 10

    @pytest.mark.parametrize(
        "argv", [["data", "export", "--table", "f1"], ["meta", "--x", "cv"]], ids=" ".join
    )
    def test_main_without_argv_reads_sys_argv(self, argv, monkeypatch, capsys):
        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            return (code, *capsys.readouterr())

        monkeypatch.setattr(sys, "argv", ["spanmeta", *argv])
        assert outcome(None) == outcome(sys.argv[1:])

    def test_no_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_choice_is_a_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--arch", "transformer", "--train", files["train"]])
        assert err.value.code == 1

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["meta", "predict", "--freq", "10", "--length", "2"])
        assert err.value.code == 1

    def test_unknown_table_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["data", "export", "--table", "bogus"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "command, argv, unknown",
        [
            ("meta cv", ["meta", "cv", "--bogus", "1"], "--bogus 1"),
            ("eval", ["eval", "--gold", "g", "--pred", "p", "--bogus", "1"], "--bogus 1"),
            ("meta", ["meta", "--bogus", "cv"], "--bogus"),
        ],
        ids=["meta_cv", "eval", "meta"],
    )
    def test_unknown_flag_shows_the_subcommands_usage(self, command, argv, unknown, capsys):
        # argparse hands a subcommand's leftovers up to the top-level parser,
        # which would print ``usage: spanmeta [-h] {profile,...}``
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines[0].startswith(f"usage: spanmeta {command} [-h]")
        assert err_lines[-1] == f"spanmeta {command}: error: unrecognized arguments: {unknown}"


# ---------------------------------------------------------------------------
# profile


class TestProfile:
    def test_json_matches_library_and_schema(self, files, capsys):
        code, out, _ = run_cli(["profile", files["two_types"]], capsys)
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "profile.schema.json")
        from spanmeta import dataset_profile, profile_span_type, read_corpus

        corpus = read_corpus(files["two_types"])
        p0 = profile_span_type(corpus, "t0")
        rows = {r["span_type"]: r for r in payload["span_types"]}
        assert set(rows) == {"t0", "t1"}
        assert rows["t0"]["frequency"] == p0.frequency == 2
        assert rows["t0"]["span_distinctiveness"] == pytest.approx(
            p0.span_distinctiveness, rel=1e-12
        )
        agg = dataset_profile([p0, profile_span_type(corpus, "t1")])
        assert payload["dataset"]["frequency"] == pytest.approx(agg.frequency, rel=1e-12)

    def test_unigram_table_built_once_per_run(self, files, capsys, monkeypatch):
        from spanmeta import cli, metrics

        calls = []
        exact = metrics.corpus_unigram_distribution

        def counting(corpus):
            calls.append(corpus)
            return exact(corpus)

        monkeypatch.setattr(metrics, "corpus_unigram_distribution", counting)
        monkeypatch.setattr(cli, "corpus_unigram_distribution", counting)
        code, _, _ = run_cli(["profile", files["two_types"]], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_span_index_built_once_per_run(self, files, capsys, monkeypatch):
        calls = []
        build = Corpus._spans_by_type.func

        def counting(corpus):
            calls.append(corpus)
            return build(corpus)

        index = functools.cached_property(counting)
        index.__set_name__(Corpus, "_spans_by_type")
        monkeypatch.setattr(Corpus, "_spans_by_type", index)
        code, _, _ = run_cli(["profile", files["two_types"]], capsys)
        assert code == 0
        # two types, four measurements each, one pass over the corpus
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    @pytest.mark.parametrize(
        "extra", [[], ["--format", "csv"], ["--type", "c"]], ids=["json", "csv", "type"]
    )
    def test_output_equals_a_scan_of_every_document(
        self, tmp_path, capsys, monkeypatch, fmt, extra
    ):
        from spanmeta import metrics

        from helpers import _spans_of as scan_spans_of

        gold, _ = _random_gold_and_pred(tmp_path, fmt)
        argv = ["profile", gold, "--input-format", fmt, *extra]
        code, indexed, _ = run_cli(argv, capsys)
        assert code == 0
        monkeypatch.setattr(metrics, "_spans_of", lambda c, t: tuple(scan_spans_of(c, t)))
        assert run_cli(argv, capsys) == (0, indexed, "")

    def test_single_type_has_null_aggregate(self, files, capsys):
        code, out, _ = run_cli(["profile", files["one_type"]], capsys)
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "profile.schema.json")
        assert payload["dataset"] is None

    def test_csv_layout(self, files, capsys):
        code, out, _ = run_cli(
            ["profile", files["two_types"], "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "span_type,frequency,span_length,span_distinctiveness,"
            "boundary_distinctiveness"
        )
        assert len(lines) == 4  # header, t0, t1, ALL
        assert lines[-1].startswith("ALL,")
        assert lines[1].split(",")[1] == "2"  # integer count, not a float

    def test_type_filter(self, files, capsys):
        code, out, _ = run_cli(["profile", files["two_types"], "--type", "t1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [r["span_type"] for r in payload["span_types"]] == ["t1"]
        assert payload["dataset"] is None

    def test_type_without_spans_fails(self, files, capsys):
        code, _, err = run_cli(["profile", files["two_types"], "--type", "zz"], capsys)
        assert code == 1
        assert "has no spans" in err

    def test_spanless_corpus_fails(self, files, capsys):
        code, _, err = run_cli(["profile", files["spanless"]], capsys)
        assert code == 1
        assert "no spans to profile" in err

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(["profile", "/nonexistent/corpus.jsonl"], capsys)
        assert code == 2
        assert "i/o error" in err

    def test_out_flag_writes_identical_text(self, files, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        code, stdout, _ = run_cli(["profile", files["two_types"]], capsys)
        assert code == 0
        code2, _, _ = run_cli(
            ["profile", files["two_types"], "--out", str(out_path)], capsys
        )
        assert code2 == 0
        assert out_path.read_text(encoding="utf-8") == stdout

    def test_unencodable_output_keeps_an_earlier_out_file(self, tmp_path, capsys):
        # a span type read from a \ud800 escape cannot be written as UTF-8 CSV
        corpus = tmp_path / "lone.jsonl"
        corpus.write_text(
            '{"id": "d", "tokens": [{"surface": "a"}, {"surface": "b"}, {"surface": "c"}], '
            '"spans": [{"type": "\\ud800", "start": 1, "end": 2}]}\n'
        )
        out = tmp_path / "profile.csv"
        out.write_bytes(b"earlier\n")
        code, stdout, err = run_cli(
            ["profile", str(corpus), "--format", "csv", "--out", str(out)], capsys
        )
        assert (code, stdout) == (1, "")
        assert err.startswith(f"spanmeta: error: cannot write {out}: ")
        assert out.read_bytes() == b"earlier\n"

    def test_tsv_input(self, files, capsys):
        code, out, _ = run_cli(
            ["profile", files["gold_tsv"], "--input-format", "conll_tsv"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["span_types"][0]["span_type"] == "p"
        assert payload["span_types"][0]["frequency"] == 1


# ---------------------------------------------------------------------------
# train


class TestTrain:
    def test_output_schema_and_usable_model(self, files, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, _, _ = run_cli(
            [
                "train",
                "--arch",
                "baseline",
                "--train",
                files["train"],
                "--dev",
                files["dev"],
                "--seed",
                "3",
                "--max-epochs",
                "2",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        _valid(payload, "model.schema.json")
        log = payload["training_log"]
        assert 1 <= len(log) <= 2
        assert [r["epoch"] for r in log] == list(range(1, len(log) + 1))
        assert isinstance(payload["stopped_early"], bool)
        model = model_from_dict(payload)
        query = Corpus((make_doc("q", ["the", "per", "son"]),), ("p",))
        [seq] = predict_labels(model, query)
        assert seq.labels == ("O", "B-p", "I-p")

    def test_same_seed_is_byte_identical(self, files, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = [
            "train",
            "--arch",
            "crf",
            "--train",
            files["train"],
            "--dev",
            files["dev"],
            "--seed",
            "11",
            "--max-epochs",
            "2",
        ]
        assert run_cli(argv + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "arch, config",
        [("crf", ""), ("crf", "mask_invalid_transitions = true\n"), ("baseline", "")],
        ids=["crf", "masked-crf", "baseline"],
    )
    def test_dev_f1_equals_the_plus_fold(
        self, files, tmp_path, capsys, monkeypatch, arch, config
    ):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(config)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["train", "--arch", arch, "--train", files["train"], "--dev", files["dev"],
                "--config", str(cfg), "--seed", "11", "--max-epochs", "3"]
        assert run_cli(argv + ["--out", str(a)], capsys)[0] == 0
        monkeypatch.setattr(training_mod, "_sum_counts", _plus_fold)
        assert run_cli(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["training_log"][0]["dev_f1"] > 0

    def test_different_seeds_differ(self, files, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = [
            "train",
            "--arch",
            "crf",
            "--train",
            files["train"],
            "--max-epochs",
            "2",
        ]
        assert run_cli(base + ["--seed", "1", "--out", str(a)], capsys)[0] == 0
        assert run_cli(base + ["--seed", "2", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() != b.read_bytes()

    def test_flag_overrides_config_file(self, files, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# comment line\nseed = 1\nmax_epochs = 3\n")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        common = ["train", "--arch", "baseline", "--train", files["train"]]
        code, _, _ = run_cli(
            common + ["--config", str(cfg), "--seed", "2", "--out", str(a)], capsys
        )
        assert code == 0
        code, _, _ = run_cli(
            common + ["--seed", "2", "--max-epochs", "3", "--out", str(b)], capsys
        )
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"], ids=["LS", "PS", "NEL"])
    def test_unicode_line_break_stays_inside_a_comment(self, files, tmp_path, capsys, brk):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"# old value{brk}seed = 3\n# retired{brk}warmup = 5\nmax_epochs = 1\n")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        common = ["train", "--arch", "baseline", "--train", files["train"]]
        assert run_cli(common + ["--config", str(cfg), "--out", str(a)], capsys)[0] == 0
        assert run_cli(common + ["--max-epochs", "1", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_fails_with_location(self, files, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed = 1\nwarmup = 5\n")
        code, _, err = run_cli(
            ["train", "--arch", "baseline", "--train", files["train"], "--config", str(cfg)],
            capsys,
        )
        assert code == 1
        assert err == f"spanmeta: error: {cfg}: line 2: unknown training option 'warmup'\n"

    @pytest.mark.parametrize(
        "line", ["seed = eleven", "betas = 0.9", "batch_size = 2.5", "learning_rate = -1"]
    )
    def test_bad_config_value_fails(self, files, tmp_path, capsys, line):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"# options\n{line}\n")
        code, _, err = run_cli(
            ["train", "--arch", "baseline", "--train", files["train"], "--config", str(cfg)],
            capsys,
        )
        assert code == 1
        option = line.split()[0]
        assert err.startswith(f"spanmeta: error: {cfg}: line 2: option {option}: ")
        assert err.count("\n") == 1

    def test_negative_seed_fails_before_reading_corpora(self, capsys):
        argv = ["train", "--arch", "crf", "--train", "/nonexistent.jsonl", "--seed", "-1"]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "seed" in err

    @pytest.mark.parametrize("option", ["learning_rate", "eps"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_step_size_fails_before_training(
        self, files, tmp_path, capsys, option, value
    ):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{option} = {value}\n")
        out = tmp_path / "model.json"
        argv = ["train", "--arch", "crf", "--train", files["train"], "--config", str(cfg)]
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert option in err
        assert not out.exists()

    def test_missing_corpus_is_io_error(self, capsys):
        code, _, err = run_cli(
            ["train", "--arch", "baseline", "--train", "/nonexistent.jsonl"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("arch", ["baseline", "crf"])
    @pytest.mark.parametrize("dev", [True, False], ids=["dev", "held-out"])
    def test_documents_without_tokens_are_skipped(self, files, tmp_path, capsys, arch, dev):
        argv = ["train", "--arch", arch, "--max-epochs", "2", "--seed", "3"]
        if dev:
            argv += ["--dev", files["dev"]]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv_a = argv + ["--train", files["train_with_empty"], "--out", str(a)]
        code, _, err = run_cli(argv_a, capsys)
        assert code == 0, err
        assert model_from_dict(json.loads(a.read_text("utf-8"))).labels == ("O", "B-p", "I-p")
        if dev:
            # with no held-out split to shift, the empty documents change nothing
            argv_b = argv + ["--train", files["train"], "--out", str(b)]
            assert run_cli(argv_b, capsys)[0] == 0
            assert a.read_bytes() == b.read_bytes()

    def test_dev_types_in_another_order_are_accepted(self, files, capsys):
        argv = ["train", "--arch", "crf", "--train", files["train_pl"], "--max-epochs", "1"]
        code, out, err = run_cli(argv + ["--dev", files["dev_lp"]], capsys)
        assert code == 0, err
        assert json.loads(out)["labels"] == ["O", "B-p", "I-p", "B-l", "I-l"]

    def test_dev_type_missing_from_training_fails(self, files, capsys):
        argv = ["train", "--arch", "crf", "--train", files["train_pl"], "--max-epochs", "1"]
        code, _, err = run_cli(argv + ["--dev", files["dev_extra"]], capsys)
        assert code == 1
        assert "share a span-type inventory" in err
        assert "'d'" in err

    @pytest.mark.parametrize("learning_rate", ["1e16", "1e20"])
    def test_diverging_training_fails_with_one_line(self, tmp_path, learning_rate):
        # a fresh interpreter, whose default warning filters print numpy's
        # RuntimeWarnings to stderr
        rng = random.Random(7)
        lines = []
        for d in range(20):
            tokens, spans = [], []
            while len(tokens) < 30:
                if rng.random() < 0.2:
                    n = rng.randint(1, 3)
                    spans.append({"type": rng.choice("pq"), "start": len(tokens), "end": len(tokens) + n})
                    tokens += [{"surface": f"e{rng.randrange(40)}", "features": ["cap"]}] * n
                else:
                    tokens.append({"surface": f"w{rng.randrange(300)}", "features": []})
            lines.append(json.dumps({"id": f"d{d}", "tokens": tokens, "spans": spans}))
        corpus, cfg, out = tmp_path / "c.jsonl", tmp_path / "train.cfg", tmp_path / "m.json"
        corpus.write_text("\n".join(lines) + "\n")
        cfg.write_text(f"learning_rate = {learning_rate}\n")
        done = _run_module(["train", "--arch", "crf", "--train", str(corpus), "--config", str(cfg),
                            "--max-epochs", "2", "--seed", "1", "--out", str(out)])
        assert done.returncode == 1
        assert re.fullmatch(
            r"spanmeta: error: training diverged in epoch \d+, batch \d+: the loss is not "
            rf"finite; lower learning_rate \(got {re.escape(str(float(learning_rate)))}\)\n",
            done.stderr,
        ), done.stderr
        assert not out.exists()


# ---------------------------------------------------------------------------
# eval


class TestEval:
    def test_json_matches_library(self, files, capsys):
        code, out, _ = run_cli(
            ["eval", "--gold", files["gold"], "--pred", files["pred"]], capsys
        )
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "eval.schema.json")

        from spanmeta import read_corpus

        gold = read_corpus(files["gold"])
        pred = read_corpus(files["pred"])
        counts = EvalCounts()
        for g, p in zip(gold.documents, pred.documents):
            counts = counts + count_matches(g.spans, p.spans)
        report = f1_report(counts, types=["p", "q"])
        assert payload["micro"]["f1"] == pytest.approx(report.micro.f1, rel=1e-12)
        for t in ("p", "q"):
            assert payload["per_type"][t]["precision"] == pytest.approx(
                report.per_type[t].precision, rel=1e-12
            )

    @pytest.mark.parametrize("fmt", ["jsonl", "conll_tsv"])
    @pytest.mark.parametrize(
        "extra",
        [[], ["--format", "csv"], ["--types", "e", "a", "b"]],
        ids=["json", "csv", "types"],
    )
    def test_output_equals_the_plus_fold(self, tmp_path, capsys, monkeypatch, fmt, extra):
        gold, pred = _random_gold_and_pred(tmp_path, fmt)
        argv = ["eval", "--gold", gold, "--pred", pred, "--input-format", fmt, *extra]
        summed = run_cli(argv, capsys)
        assert summed[0] == 0
        monkeypatch.setattr(cli, "_sum_counts", _plus_fold)
        assert run_cli(argv, capsys) == summed

    @pytest.mark.parametrize("layout", ["default", "compact", "spans-first", "conll_tsv"])
    @pytest.mark.parametrize("extra", [[], ["--format", "csv"]], ids=["json", "csv"])
    def test_a_shared_token_table_prints_what_fresh_reads_print(
        self, tmp_path, capsys, monkeypatch, layout, extra
    ):
        fmt = "conll_tsv" if layout == "conll_tsv" else "jsonl"
        gold, pred = _random_gold_and_pred(tmp_path, fmt)
        if layout in ("compact", "spans-first"):  # read through json.loads
            docs = [json.loads(line) for line in Path(pred).read_text().splitlines()]
            Path(pred).write_text(
                "".join(
                    json.dumps(d, separators=(",", ":")) + "\n"
                    if layout == "compact"
                    else json.dumps(dict(reversed(d.items()))) + "\n"
                    for d in docs
                )
            )
        argv = ["eval", "--gold", gold, "--pred", pred, "--input-format", fmt, *extra]
        shared = run_cli(argv, capsys)
        assert shared[0] == 0
        fresh = cli.read_corpus

        def read_alone(*args, _tokens, **kwargs):  # each read with a table of its own
            return fresh(*args, **kwargs)

        monkeypatch.setattr(cli, "read_corpus", read_alone)
        assert run_cli(argv, capsys) == shared

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_each_call_reads_its_two_files_through_a_table_of_its_own(
        self, files, capsys, monkeypatch, command
    ):
        tables = []
        read = cli.read_corpus

        def noting_tables(*args, _tokens, **kwargs):
            tables.append(_tokens)
            return read(*args, _tokens=_tokens, **kwargs)

        monkeypatch.setattr(cli, "read_corpus", noting_tables)
        argv = {
            "eval": ["eval", "--gold", files["gold"], "--pred", files["pred"]],
            "train": ["train", "--arch", "baseline", "--train", files["train"],
                      "--dev", files["dev"], "--max-epochs", "1"],
        }[command]  # fmt: skip
        first, second = run_cli(argv, capsys), run_cli(argv, capsys)
        assert first == second and first[0] == 0
        assert len(tables) == 4
        assert tables[0] is tables[1] and tables[2] is tables[3]
        assert tables[0] is not tables[2]

    def test_csv_ends_with_micro_row(self, files, capsys):
        code, out, _ = run_cli(
            ["eval", "--gold", files["gold"], "--pred", files["pred"], "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "span_type,precision,recall,f1"
        assert lines[-1].startswith("micro,")
        assert len(lines) == 4

    def test_types_flag_restricts_report(self, files, capsys):
        code, out, _ = run_cli(
            ["eval", "--gold", files["gold"], "--pred", files["pred"], "--types", "p"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload["per_type"]) == ["p"]

    def test_types_flag_reports_unscored_spans(self, files, capsys):
        code, _, err = run_cli(
            ["eval", "--gold", files["gold"], "--pred", files["pred"], "--types", "p"],
            capsys,
        )
        assert code == 0
        # q: two predicted spans and one gold span fall outside --types p
        assert "--types leaves 2 predicted and 1 gold span(s) unscored" in err

    def test_types_flag_covering_every_span_is_silent(self, files, capsys):
        argv = ["eval", "--gold", files["gold"], "--pred", files["pred"]]
        code, _, err = run_cli(argv + ["--types", "q", "p"], capsys)
        assert code == 0
        assert err == ""

    def test_predicted_type_missing_from_gold_is_a_false_positive(self, files, capsys):
        argv = ["eval", "--gold", files["gold_one"], "--pred", files["pred_spurious"]]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "eval.schema.json")
        assert payload["micro"] == {
            "precision": 50.0,
            "recall": 100.0,
            "f1": pytest.approx(200 / 3),
        }
        assert payload["per_type"]["Q"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == [
            "p,100.0000,100.0000,100.0000",
            "Q,0.0000,0.0000,0.0000",
            "micro,50.0000,100.0000,66.6667",
        ]

    def test_stray_continuation_in_pred_tsv_is_tolerated(self, files, capsys):
        code, out, _ = run_cli(
            [
                "eval",
                "--gold",
                files["gold_tsv"],
                "--pred",
                files["pred_tsv"],
                "--input-format",
                "conll_tsv",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        # gold span is [0,2), repaired pred span is [1,3): no overlap credit
        assert payload["micro"]["f1"] == 0.0

    def test_stray_continuation_in_gold_tsv_fails(self, files, capsys):
        code, _, err = run_cli(
            [
                "eval",
                "--gold",
                files["pred_tsv"],
                "--pred",
                files["gold_tsv"],
                "--input-format",
                "conll_tsv",
            ],
            capsys,
        )
        assert code == 1

    def test_document_id_mismatch_fails(self, files, capsys):
        code, _, err = run_cli(
            ["eval", "--gold", files["gold"], "--pred", files["pred_renamed"]], capsys
        )
        assert code == 1
        assert "do not cover the same documents" in err

    def test_token_count_mismatch_fails(self, files, capsys):
        code, _, err = run_cli(
            ["eval", "--gold", files["gold"], "--pred", files["pred_short"]], capsys
        )
        assert code == 1
        assert "gold tokens" in err

    def test_duplicate_document_id_fails(self, files, capsys):
        code, _, err = run_cli(
            ["eval", "--gold", files["dup_ids"], "--pred", files["pred"]], capsys
        )
        assert code == 1
        assert "duplicate" in err


# ---------------------------------------------------------------------------
# meta


class TestMeta:
    def test_fit_embedded_schema(self, capsys):
        code, out, _ = run_cli(["meta", "fit"], capsys)
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "meta_fit.schema.json")
        assert payload["predictor_set"] == "full"
        assert len(payload["columns"]) == 31

    def test_fit_custom_obs_matches_library(self, files, capsys):
        code, out, _ = run_cli(["meta", "fit", "--obs", files["obs"]], capsys)
        assert code == 0
        payload = json.loads(out)
        model = fit_meta_model(_synth_obs(), 0.2, "full")
        got = payload["coefficients"]
        want = dict(zip(model.column_names, model.coefficients))
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == pytest.approx(want[name], rel=1e-9, abs=1e-12)

    def test_cv_custom_obs_matches_library(self, files, capsys):
        code, out, _ = run_cli(
            ["meta", "cv", "--obs", files["obs"], "--set", "arch_only"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "meta_cv.schema.json")
        result = loso_cv(_synth_obs(), 0.2, "arch_only")
        assert payload["mae"] == pytest.approx(result.mae, rel=1e-12)
        assert payload["r2"] == pytest.approx(result.r2, rel=1e-12)
        assert payload["n"] == 84

    def test_cv_empty_set_has_null_r2(self, capsys):
        code, out, _ = run_cli(["meta", "cv", "--set", "empty"], capsys)
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "meta_cv.schema.json")
        assert payload["r2"] is None
        assert payload["n"] == 432

    def test_ablate_order_and_schema(self, files, capsys):
        code, out, _ = run_cli(["meta", "ablate", "--obs", files["obs"]], capsys)
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "meta_ablate.schema.json")
        assert payload["alpha"] == 0.2
        assert [r["predictor_set"] for r in payload["results"]] == [
            "full",
            "no_interactions",
            "arch_only",
            "task_only",
            "empty",
        ]

    def test_predict_matches_library(self, capsys):
        argv = [
            "meta",
            "predict",
            "--crf",
            "--bert",
            "--freq",
            "1000",
            "--length",
            "2.0",
            "--sd",
            "1.5",
            "--bd",
            "0.8",
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "meta_predict.schema.json")
        model = fit_meta_model(to_observations(load_embedded()), 0.2)
        want = predict_f1(
            model,
            ArchitectureFeatures(False, True, False, True),
            SpanTypeProfile("query", 1000, 2.0, 1.5, 0.8),
        )
        assert payload["f1"] == pytest.approx(want, rel=1e-9)

    def test_predict_from_saved_model(self, tmp_path, capsys):
        model_path = tmp_path / "meta.json"
        assert run_cli(["meta", "fit", "--out", str(model_path)], capsys)[0] == 0
        argv_tail = [
            "--freq", "50", "--length", "3.5", "--sd", "0.9", "--bd", "1.1", "--lstm",
        ]
        code, out, _ = run_cli(
            ["meta", "predict", "--model", str(model_path)] + argv_tail, capsys
        )
        assert code == 0
        from_file = json.loads(out)["f1"]
        code, out, _ = run_cli(["meta", "predict"] + argv_tail, capsys)
        assert code == 0
        assert from_file == pytest.approx(json.loads(out)["f1"], rel=1e-12)

    @pytest.mark.parametrize("flag,value", [("--length", "inf"), ("--sd", "nan")])
    def test_predict_non_finite_flag_fails(self, flag, value, capsys):
        argv = ["meta", "predict", "--freq", "50", "--length", "2", "--sd", "1",
                "--bd", "1"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_predict_overflowing_standardized_value_fails(self, capsys):
        # finite flags whose standardized column overflows used to print a
        # RuntimeWarning and then an F1 of 100
        argv = ["meta", "predict", "--freq", "5", "--length", "1.5", "--sd", "1e308",
                "--bd", "1e308"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("spanmeta: error: ")
        assert "_dist = 1e+308" in err and "not finite" in err

    @pytest.mark.parametrize(
        "extra",
        [["--obs", "/nonexistent.csv"], ["--alpha", "0.3"], ["--alpha", "0.2"]],
        ids=["obs", "alpha", "default-alpha"],
    )
    def test_predict_model_refuses_obs_and_alpha(self, tmp_path, capsys, extra):
        model_path = tmp_path / "meta.json"
        assert run_cli(["meta", "fit", "--out", str(model_path)], capsys)[0] == 0
        argv = ["meta", "predict", "--model", str(model_path), "--freq", "50",
                "--length", "2", "--sd", "1", "--bd", "1"]
        code, out, err = run_cli(argv + extra, capsys)
        assert (code, out) == (1, "")
        assert f"--model cannot be combined with {extra[0]}" in err
        assert "Traceback" not in err

    def test_predict_model_that_is_not_json_fails(self, tmp_path, capsys):
        model_path = tmp_path / "meta.json"
        model_path.write_text("{oops\n", encoding="utf-8")
        argv = ["meta", "predict", "--model", str(model_path), "--freq", "50",
                "--length", "2", "--sd", "1", "--bd", "1"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"spanmeta: error: {model_path}: invalid JSON: ")

    def test_predict_model_without_columns_fails(self, tmp_path, capsys):
        model_path = tmp_path / "meta.json"
        assert run_cli(["meta", "fit", "--out", str(model_path)], capsys)[0] == 0
        payload = json.loads(model_path.read_text("utf-8"))
        del payload["columns"]
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["meta", "predict", "--model", str(model_path), "--freq", "50",
                "--length", "2", "--sd", "1", "--bd", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "lacks columns" in err
        assert "Traceback" not in err

    def test_cv_rank_deficient_fold_fails(self, tmp_path, capsys):
        # type3 alone varies in boundary distinctiveness
        obs = [
            o if o.span_type_id == "type3" else Observation(
                o.span_type_id, o.arch, SpanTypeProfile(
                    o.span_type_id, o.profile.frequency, o.profile.span_length,
                    o.profile.span_distinctiveness, 0.5,
                ), o.f1,
            )
            for o in _synth_obs()
        ]
        path = tmp_path / "obs.csv"
        observations_to_csv(obs, path)
        code, out, err = run_cli(["meta", "cv", "--obs", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert "'type3'" in err and "rank deficient" in err

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_fit_on_an_overflowing_column_names_it(self, tmp_path, capsys, command):
        # one span type's distinctiveness at 1e308 overflows the column's mean;
        # numpy used to warn twice and the error blamed a held-out value
        obs = to_observations(load_embedded())
        big = obs[0].span_type_id
        obs = [
            dataclasses.replace(
                o, profile=dataclasses.replace(o.profile, span_distinctiveness=1e308)
            )
            if o.span_type_id == big
            else o
            for o in obs
        ]
        path = tmp_path / "obs.csv"
        observations_to_csv(obs, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["meta", command, "--obs", str(path)], capsys)
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (1, "")
        assert err == (
            "spanmeta: error: predictor column span_dist: its mean over the "
            "observations is not finite, so it cannot be standardized\n"
        )

    def test_select_alpha_matches_library(self, files, capsys):
        code, out, _ = run_cli(
            ["meta", "select-alpha", "--obs", files["obs"], "--grid", "0.1,0.3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        _valid(payload, "select_alpha.schema.json")
        curve = alpha_mae_curve(_synth_obs(), (0.1, 0.3))
        assert payload["curve"] == [
            [a, pytest.approx(m, rel=1e-12)] for a, m in curve
        ]
        best = min(curve, key=lambda pair: pair[1])[0]
        assert payload["selected_alpha"] == best

    def test_select_alpha_single_point(self, files, capsys):
        code, out, _ = run_cli(
            ["meta", "select-alpha", "--obs", files["obs"], "--grid", "0.25"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["selected_alpha"] == 0.25
        assert len(payload["curve"]) == 1

    @pytest.mark.parametrize("grid", ["", "0.1,,0.2", "low"])
    def test_grid_that_is_not_numbers_fails(self, files, capsys, grid):
        code, out, err = run_cli(
            ["meta", "select-alpha", "--obs", files["obs"], "--grid", grid], capsys
        )
        assert (code, out) == (1, "")
        assert f"--grid must be comma-separated numbers, got {grid!r}" in err

    def test_select_alpha_refuses_alpha(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["meta", "select-alpha", "--alpha", "0.3", "--grid", "0.1,0.2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --alpha 0.3" in capsys.readouterr().err

    def test_bad_grid_value_fails(self, files, capsys):
        code, _, err = run_cli(
            ["meta", "select-alpha", "--obs", files["obs"], "--grid", "0.7"], capsys
        )
        assert code == 1

    def test_bad_obs_header_fails(self, files, capsys):
        code, _, err = run_cli(["meta", "cv", "--obs", files["bad_obs"]], capsys)
        assert code == 1
        assert "header" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cells: cells[:1] + ["2", "-1"] + cells[3:], "feat must be 0 or 1, got '2'"),
            (lambda cells: cells + ["x"], "1 more field(s) than the header"),
            (lambda cells: cells[:3], "7 fewer field(s) than the header"),
            (lambda cells: ["", *cells[1:]], "span type must be a non-empty string"),
        ],
        ids=["flag", "extra-field", "missing-field", "empty-span-type"],
    )
    def test_malformed_obs_row_fails(self, files, tmp_path, capsys, edit, message):
        with open(files["obs"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["meta", "cv", "--obs", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"spanmeta: error: {path}: line 3: {message}\n"

    def test_missing_obs_is_io_error(self, capsys):
        code, _, err = run_cli(["meta", "cv", "--obs", "/nonexistent.csv"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["meta", "fit", "--alpha", "0"],
            ["meta", "cv", "--alpha", "0"],
            ["meta", "ablate", "--alpha", "0"],
            ["meta", "select-alpha", "--grid", "0,0.1"],
            ["meta", "predict", "--alpha", "0", "--freq", "100", "--length", "1.5",
             "--sd", "1", "--bd", "1"],
            ["reproduce", "--alpha", "0"],
        ],
        ids=["fit", "cv", "ablate", "select-alpha", "predict", "reproduce"],
    )
    def test_alpha_zero_on_an_f1_of_0_fails_cleanly(self, argv, tmp_path, capsys):
        # the bundled tables hold F1 scores of 0.0, whose logit at alpha 0 is infinite
        if argv[0] == "reproduce":
            argv = [*argv, "--out-dir", str(tmp_path / "run")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == (
            "spanmeta: error: at alpha 0 the padded logit of span type "
            "'chemdner/Identifier', architecture feat=0 crf=0 lstm=0 bert=0, F1 0 "
            "is not finite; alpha 0 needs every F1 strictly between 0 and 100\n"
        )
        assert not (tmp_path / "run").exists()

    def test_alpha_zero_with_the_empty_set_takes_no_logit(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["meta", "cv", "--set", "empty", "--alpha", "0"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        _valid(payload, "meta_cv.schema.json")
        assert payload["alpha"] == 0.0 and payload["r2"] is None


# ---------------------------------------------------------------------------
# bytes that are not UTF-8, and JSON the parser refuses, in any input file


_PREDICT = ["meta", "predict", "--freq", "50", "--length", "2", "--sd", "1", "--bd", "1"]
_TSV = ["--input-format", "conll_tsv"]
_BAD_JSONL = '{"id": "d0", "tokens": [], "spans": []}\n{oops\n'
_BAD_TSV = "a\tO\nb\n"
_BAD_OBS_HEADER = "span_type,feat\nt,0\n"
_BAD_OBS_ROW = "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1\nt,0,0,0,0,many,2,1,1,50\n"
_JSON_AT_2 = "line 2: invalid JSON: "
_TSV_AT_2 = "line 2: expected at least 2 tab-separated columns, got 1"
_OBS_ROW_AT_2 = "line 2: invalid literal for int() with base 10: 'many'"
_OBS_HEADER_AT_1 = "line 1: observation CSV must have header span_type,feat,crf,"
_DEV_Q = (
    '{"id": "v0", "tokens": [{"surface": "per", "features": []}], '
    '"spans": [{"type": "q", "start": 0, "end": 1}]}\n'
)


def _doc_line(doc_id: str, n_tokens: int) -> str:
    tokens = [{"surface": "u", "features": []}] * n_tokens
    return json.dumps({"id": doc_id, "tokens": tokens, "spans": []}) + "\n"


class TestInputFiles:
    @pytest.mark.parametrize(
        "first_line, argv",
        [
            (b'{"id": "d0", "tokens": [], "spans": []}', lambda bad, f: ["profile", bad]),
            (b'{"id": "e0", "tokens": [], "spans": []}',
             lambda bad, f: ["eval", "--gold", bad, "--pred", f["pred"]]),
            (b'{"id": "e0", "tokens": [], "spans": []}',
             lambda bad, f: ["eval", "--gold", f["gold"], "--pred", bad]),
            (b"seed = 1", lambda bad, f: ["train", "--arch", "baseline", "--train",
                                          f["train"], "--config", bad]),
            (b"{", lambda bad, f: [*_PREDICT, "--model", bad]),
            (b"span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1",
             lambda bad, f: ["meta", "fit", "--obs", bad]),
        ],
        ids=["profile", "eval-gold", "eval-pred", "train-config", "meta-predict-model",
             "meta-fit-obs"],
    )
    def test_bytes_that_are_not_utf8_name_the_file_and_line(
        self, files, tmp_path, capsys, first_line, argv
    ):
        bad = tmp_path / "latin1"
        bad.write_bytes(first_line + b"\n\xff\n")
        code, out, err = run_cli(argv(str(bad), files), capsys)
        assert (code, out) == (1, "")
        assert err == f"spanmeta: error: {bad}: line 2: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize(
        "text, reason, argv",
        [
            (_BAD_JSONL, _JSON_AT_2, lambda bad, f: ["profile", bad]),
            (_BAD_JSONL, _JSON_AT_2, lambda bad, f: ["eval", "--gold", bad, "--pred", f["pred"]]),
            (_BAD_JSONL, _JSON_AT_2, lambda bad, f: ["eval", "--gold", f["gold"], "--pred", bad]),
            (_BAD_TSV, _TSV_AT_2, lambda bad, f: ["profile", bad, *_TSV]),
            (_BAD_TSV, _TSV_AT_2,
             lambda bad, f: ["eval", "--gold", bad, "--pred", f["tsv"], *_TSV]),
            (_BAD_TSV, _TSV_AT_2,
             lambda bad, f: ["eval", "--gold", f["tsv"], "--pred", bad, *_TSV]),
            (_BAD_JSONL, _JSON_AT_2,
             lambda bad, f: ["train", "--arch", "baseline", "--train", bad]),
            (_BAD_JSONL, _JSON_AT_2,
             lambda bad, f: ["train", "--arch", "baseline", "--train", f["train"], "--dev", bad]),
            ('{"id": "v0", "tokens": [{"surface": "per", "features": []}], "spans": []}\n',
             "no dev document has a span",
             lambda bad, f: ["train", "--arch", "baseline", "--train", f["train"], "--dev", bad]),
            (_DEV_Q, "train and dev corpora must share a span-type inventory; the training "
             "corpus has no 'q'",
             lambda bad, f: ["train", "--arch", "baseline", "--train", f["train"], "--dev", bad]),
            ("", "training corpus is empty",
             lambda bad, f: ["train", "--arch", "baseline", "--train", bad]),
            (_doc_line("a", 0) + _doc_line("b", 0), "no training document has any tokens",
             lambda bad, f: ["train", "--arch", "baseline", "--train", bad]),
            (_DEV_Q, "need a dev corpus or at least two training documents to hold out from",
             lambda bad, f: ["train", "--arch", "baseline", "--train", bad]),
            # both files are bad: the training file is named, not the dev file's foreign type
            ("", "training corpus is empty",
             lambda bad, f: ["train", "--arch", "baseline", "--train", bad,
                             "--dev", f["one_type"]]),
            (_doc_line("z9", 3), "gold and pred corpora do not cover the same documents; ",
             lambda bad, f: ["eval", "--gold", f["gold"], "--pred", bad]),
            (_doc_line("e0", 2) + _doc_line("e1", 3),
             "document 'e0': 4 gold tokens vs 2 predicted",
             lambda bad, f: ["eval", "--gold", f["gold"], "--pred", bad]),
            (_doc_line("e0", 4) * 2, "duplicate document id 'e0' in pred corpus",
             lambda bad, f: ["eval", "--gold", f["gold"], "--pred", bad]),
            (_doc_line("e0", 4) * 2, "duplicate document id 'e0' in gold corpus",
             lambda bad, f: ["eval", "--gold", bad, "--pred", f["pred"]]),
            ("seed = 1\nwarmup = 5\n", "line 2: unknown training option 'warmup'",
             lambda bad, f: ["train", "--arch", "baseline", "--train", f["train"],
                             "--config", bad]),
            (_BAD_OBS_ROW, _OBS_ROW_AT_2, lambda bad, f: ["meta", "fit", "--obs", bad]),
            (_BAD_OBS_HEADER, _OBS_HEADER_AT_1, lambda bad, f: ["meta", "fit", "--obs", bad]),
            (_BAD_OBS_ROW, _OBS_ROW_AT_2, lambda bad, f: ["meta", "cv", "--obs", bad]),
            (_BAD_OBS_HEADER, _OBS_HEADER_AT_1, lambda bad, f: ["meta", "cv", "--obs", bad]),
            ("{oops\n", "invalid JSON: ", lambda bad, f: [*_PREDICT, "--model", bad]),
            ("{}\n", "meta-model file lacks alpha, ",
             lambda bad, f: [*_PREDICT, "--model", bad]),
            ('{"alpha": ' + "[" * 100 + "]" * 100 + "}\n",
             "invalid JSON: maximum recursion depth exceeded: containers nest more than 100 deep",
             lambda bad, f: [*_PREDICT, "--model", bad]),
        ],
        ids=["profile-jsonl", "eval-gold-jsonl", "eval-pred-jsonl", "profile-tsv",
             "eval-gold-tsv", "eval-pred-tsv", "train", "train-dev", "train-dev-no-spans",
             "train-dev-foreign-type", "train-empty", "train-no-tokens",
             "train-one-document", "train-empty-dev-foreign-type", "eval-pred-ids", "eval-pred-token-count",
             "eval-pred-duplicate-id", "eval-gold-duplicate-id", "train-config",
             "meta-fit-obs-row", "meta-fit-obs-header", "meta-cv-obs-row",
             "meta-cv-obs-header", "meta-predict-model-syntax", "meta-predict-model-empty",
             "meta-predict-model-deep"],
    )
    def test_every_refused_file_is_named_once(
        self, files, tmp_path, capsys, text, reason, argv
    ):
        bad, good_tsv = tmp_path / "bad", tmp_path / "good.tsv"
        bad.write_text(text, encoding="utf-8")
        good_tsv.write_text("a\tB-t\nb\tO\n", encoding="utf-8")
        code, out, err = run_cli(argv(str(bad), {**files, "tsv": str(good_tsv)}), capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"spanmeta: error: {bad}: {reason}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.count(str(bad)) == 1

    @pytest.mark.parametrize(
        "text, argv",
        [
            (lambda f: Path(f["two_types"]).read_text("utf-8"),
             lambda path, f: ["profile", path]),
            (lambda f: Path(f["obs"]).read_text("utf-8"),
             lambda path, f: ["meta", "cv", "--obs", path]),
            (lambda f: json_text(meta_model_to_dict(fit_meta_model(_synth_obs(), 0.2))),
             lambda path, f: [*_PREDICT, "--model", path]),
            (lambda f: "seed = 1\nmax_epochs = 1\n",
             lambda path, f: ["train", "--arch", "baseline", "--train", f["train"],
                              "--config", path]),
        ],
        ids=["corpus", "observation-csv", "meta-predict-model", "train-config"],
    )
    def test_a_leading_byte_order_mark_is_dropped(self, files, tmp_path, capsys, text, argv):
        # as Windows editors write one
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text(files), encoding="utf-8")
        marked.write_text(text(files), encoding="utf-8-sig")
        want = run_cli(argv(str(plain), files), capsys)
        assert want[0] == 0
        assert run_cli(argv(str(marked), files), capsys) == want

    def test_over_long_integer_in_a_model_file_names_the_file(self, tmp_path, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter converts integers of any length")
        model_path = tmp_path / "meta.json"
        model_path.write_text('{"alpha": 1' + "0" * 5000 + "}\n", encoding="utf-8")
        code, out, err = run_cli([*_PREDICT, "--model", str(model_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"spanmeta: error: {model_path}: invalid JSON: Exceeds the limit")
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# data export / reproduce


class TestDataExport:
    @pytest.mark.parametrize("table", ["profiles", "f1"])
    def test_stdout_is_exact_table_text(self, table, capsys):
        code, out, _ = run_cli(["data", "export", "--table", table], capsys)
        assert code == 0
        assert out == export_table(table)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "profiles.csv"
        code, _, _ = run_cli(
            ["data", "export", "--table", "profiles", "--out", str(path)], capsys
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == export_table("profiles")


class TestReproduce:
    def test_writes_report_and_scatter(self, tmp_path, capsys):
        out_dir = tmp_path / "nested" / "run"
        code, out, _ = run_cli(["reproduce", "--out-dir", str(out_dir)], capsys)
        assert code == 0
        assert "Overall" in out
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        _valid(report, "report.schema.json")
        assert report["all_checks_pass"] is True
        svg = (out_dir / "scatter.svg").read_text(encoding="utf-8")
        assert svg.count("<circle") == 432

    def test_report_json_rejects_nan(self):
        report = build_reproduction_report().report
        with pytest.raises(ValueError, match="not JSON compliant"):
            dataclasses.replace(report, selected_alpha=float("nan")).to_json()

    def test_report_json_dict_is_asdict_less_copies(self):
        # dataclasses.asdict, which deep-copies every row, is the reference
        report = build_reproduction_report().report
        want = {**dataclasses.asdict(report), "all_checks_pass": report.all_checks_pass}
        assert json_text(report.to_json_dict()) == json_text(want)

    def test_report_bytes_are_stable(self, tmp_path, capsys):
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert run_cli(["reproduce", "--out-dir", str(first)], capsys)[0] == 0
        assert run_cli(["reproduce", "--out-dir", str(second)], capsys)[0] == 0
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
        assert (first / "scatter.svg").read_bytes() == (second / "scatter.svg").read_bytes()


# ---------------------------------------------------------------------------
# python -m spanmeta and python -m spanmeta.cli, in a fresh interpreter


def _run_module(args, module="spanmeta.cli", **env):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
    )


_OOM_CHILD = """
import os, resource, sys
from spanmeta.cli import main
# room for what the process maps now plus 32 MB; either input needs more
mapped = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
limit = mapped + 32 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(["profile", sys.argv[1]]))
"""


def _distinct_tokens(path: Path) -> None:
    """100,000 distinct tokens, each parsed, checked and kept: about 80 MB."""
    with path.open("w") as f:
        for d in range(0, 100_000, 50):
            tokens = [{"surface": f"w{d + i}", "features": []} for i in range(50)]
            spans = [{"type": "t", "start": 1, "end": 3}]
            f.write(json.dumps({"id": f"d{d}", "tokens": tokens, "spans": spans}) + "\n")


def _larger_than_the_limit(path: Path) -> None:
    """A 128 MB file, sparse where the file system allows, that is read whole."""
    with path.open("wb") as f:
        f.truncate(128 * 2**20)


class TestModuleEntry:
    @pytest.mark.parametrize(
        "write", [_distinct_tokens, _larger_than_the_limit], ids=["parse", "read"]
    )
    def test_running_out_of_memory_exits_2_with_one_line(self, tmp_path, write):
        pytest.importorskip("resource")
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs /proc/self/statm to size the address-space limit")
        path = tmp_path / "corpus.jsonl"
        write(path)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", _OOM_CHILD, str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        if "returned NULL without setting an exception" in done.stderr:
            # CPython 3.12.1 can fail to raise MemoryError when a new frame
            # finds no memory; no Python code can catch what it raises instead
            pytest.xfail("the interpreter raised SystemError, not MemoryError")
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr == (
            "spanmeta: error: out of memory: the input needs more memory "
            "than this process may use\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile"],
            ["meta", "predict", "--freq", "50", "--length", "2", "--sd", "1", "--bd", "1",
             "--model"],
        ],
        ids=["profile", "meta-predict"],
    )
    def test_deeply_nested_json_is_an_input_error(self, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "\n")
        done = _run_module([*argv, str(path)])
        assert (done.returncode, done.stdout) == (1, "")
        assert "invalid JSON" in done.stderr
        assert "Traceback" not in done.stderr


    def test_help_prints_usage(self):
        done = _run_module(["--help"])
        assert done.returncode == 0
        assert done.stdout.startswith("usage: spanmeta")

    def test_unknown_command_is_a_usage_error(self):
        done = _run_module(["transmogrify"])
        assert done.returncode == 1
        assert "invalid choice" in done.stderr

    def test_package_runs_the_same_command_line(self):
        done = _run_module(["--help"], module="spanmeta")
        assert done.returncode == 0
        assert done.stdout == _run_module(["--help"]).stdout
        done = _run_module(["transmogrify"], module="spanmeta")
        assert done.returncode == 1
        assert "invalid choice" in done.stderr

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # several features per token and two span types, so any iteration
        # over a set or a str-keyed hash order would show in the bytes
        rng = np.random.default_rng(17)
        docs = []
        for i in range(30):
            n = int(rng.integers(4, 9))
            tokens = []
            for _ in range(n):
                w = int(rng.integers(12))
                features = {f"len={w % 3}", f"suffix={w % 4}", "cap"} if w < 4 else set()
                tokens.append(Token(f"w{w}", frozenset(features)))
            spans = [Span("p", 0, 2), Span("l", n - 1, n)]
            docs.append(Document(f"d{i}", tuple(tokens), tuple(spans)))
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(Corpus(tuple(docs), ("p", "l")), corpus)

        outputs = []
        for seed in ("0", "1"):
            model = tmp_path / f"model{seed}.json"
            profile = tmp_path / f"profile{seed}.json"
            for args in (
                ["train", "--arch", "crf", "--train", str(corpus), "--max-epochs", "1",
                 "--seed", "5", "--out", str(model)],
                ["profile", str(corpus), "--out", str(profile)],
            ):
                done = _run_module(args, PYTHONHASHSEED=seed)
                assert done.returncode == 0, done.stderr
            outputs.append((model.read_bytes(), profile.read_bytes()))
        assert outputs[0] == outputs[1]
