"""End-to-end checks of the command line, run in process through main().

Exit codes, output bytes, and schema conformance are asserted the way a
shell pipeline would observe them.  Validation failures inside a command
must come back as return code 1, missing files as 2, and argparse-level
mistakes as SystemExit(1).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources

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
from spanmeta.cli import main
from spanmeta.meta import observations_to_csv
from spanmeta.report import build_reproduction_report
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


# ---------------------------------------------------------------------------
# argparse plumbing


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
        assert f"{cfg}:2: unknown training option" in err

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
        assert f"{cfg}:2: option {option}: " in err

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

    def test_missing_obs_is_io_error(self, capsys):
        code, _, err = run_cli(["meta", "cv", "--obs", "/nonexistent.csv"], capsys)
        assert code == 2


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


class TestModuleEntry:
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
