"""Workload set-up, the timed operations, and the checks on their outputs.

Each workload builds its inputs in a scratch directory and offers a few
*op kinds*. An op is one timed call into the program through its public
API or the in-process CLI (``spanmeta.cli.main``); its check runs after
the clock stops and lists what is wrong with the op's output. Every name
in ``spanmeta`` is looked up at call time, so the layer wrappers of
``layers.Tracer`` see the calls.

The CLI has no ``tag`` command, so tagging goes through
``seqlab.model_from_dict`` and ``seqlab.predict`` directly. A future
``spanmeta tag`` command would be a change to this benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

import spanmeta
from spanmeta import cli, seqlab

TRAIN_DOCS = 200
DEV_DOCS = 40
TEST_DOCS = 100
TAG_DOCS = 2000  # 10x the training corpus

# With the default learning rate of 1e-3 both labelers score F1 0 after a
# few epochs on these corpora; at 0.5 they reach F1 5-30 in two epochs, so
# the floor catches a labeler that stops learning.
LEARNING_RATE = 0.5
F1_FLOOR = 1.0
# Early stopping can only prevent a third epoch, so with two every train op
# does the same work whatever the seed.
TRAIN_EPOCHS = 2
PRETRAIN_EPOCHS = {"crf": 1, "baseline": 2}

FULL_MAE = 11.15  # the full meta-model's LOSO MAE on the bundled tables
FULL_MAE_TOL = 0.01
N_OBSERVATIONS = 432
REL_TOL = 1e-9


@dataclass
class OpKind:
    """A kind of timed op, run ``repeat`` times in each round.

    ``check`` takes what ``run`` returned and gives the problems found
    plus the tokens the op processed (0 where ops have no tokens).
    """

    name: str
    repeat: int
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``spanmeta <argv>`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _exit_problem(code: int, what: str) -> list[str]:
    return [] if code == 0 else [f"{what} exited {code}"]


# ---------------------------------------------------------------------------
# reproduce


def reproduce_problems(code: int, text: str, out_dir: Path) -> list[str]:
    """Checks one ``spanmeta reproduce`` run, then removes its files so
    the next run cannot pass on stale output."""
    problems = _exit_problem(code, "reproduce")
    if problems:
        return problems
    report_path, svg_path = out_dir / "report.json", out_dir / "scatter.svg"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    svg = svg_path.read_text(encoding="utf-8")
    report_path.unlink()
    svg_path.unlink()
    flags = {
        "table1": all(c["within_tolerance"] for c in report["table1"]),
        "correlation": report["correlation"]["within_tolerance"],
        "cv_ordering_holds": report["cv_ordering_holds"],
        "all_signs_agree": report["all_signs_agree"],
        "bert_largest_positive_main": report["bert_largest_positive_main"],
        "all_checks_pass": report["all_checks_pass"],
    }
    problems += [f"report flag {k} is not set" for k, ok in flags.items() if not ok]
    full = next(r for r in report["cv"] if r["predictor_set"] == "full")
    if abs(full["mae"] - FULL_MAE) > FULL_MAE_TOL:
        problems.append(f"full-model MAE {full['mae']} is not {FULL_MAE}")
    if "MISMATCH" in text or text.rstrip().splitlines()[-1] != "Overall: ok":
        problems.append("reproduce text report has a mismatch")
    if svg.count("<circle") != N_OBSERVATIONS or not svg.rstrip().endswith("</svg>"):
        problems.append("scatter.svg does not plot every observation")
    return problems


class Reproduce:
    """The bundled study tables; the seed does not change the input."""

    def __init__(self, workdir: Path, seed: int):
        self.out_dir = workdir / "reproduce"
        self.out_dir.mkdir()
        self.first_report: str | None = None
        self.full_mae: float | None = None
        self.kinds = [
            OpKind("reproduce", 1, self.reproduce, self.check_reproduce),
            OpKind("meta_cv", 3, self.meta_cv, self.check_meta_cv),
        ]

    def reproduce(self):
        return run_cli(["reproduce", "--out-dir", str(self.out_dir)])

    def check_reproduce(self, out) -> tuple[list[str], int]:
        code, text = out
        if code == 0:
            report = (self.out_dir / "report.json").read_text(encoding="utf-8")
            if self.first_report is None:
                self.first_report = report
                self.full_mae = next(
                    r["mae"] for r in json.loads(report)["cv"] if r["predictor_set"] == "full"
                )
            elif report != self.first_report:
                return ["report.json differs between runs"], 0
        return reproduce_problems(code, text, self.out_dir), 0

    def meta_cv(self):
        return run_cli(["meta", "cv"])

    def check_meta_cv(self, out) -> tuple[list[str], int]:
        code, text = out
        problems = _exit_problem(code, "meta cv")
        if problems:
            return problems, 0
        result = json.loads(text)
        if result["n"] != N_OBSERVATIONS or result["predictor_set"] != "full":
            problems.append("meta cv did not score the full set on every observation")
        if abs(result["mae"] - FULL_MAE) > FULL_MAE_TOL:
            problems.append(f"meta cv MAE {result['mae']} is not {FULL_MAE}")
        if self.full_mae is not None and not _close(result["mae"], self.full_mae):
            problems.append("meta cv MAE differs from the reproduce report")
        return problems, 0


# ---------------------------------------------------------------------------
# train


def _span_set(spans) -> set[tuple[str, int, int]]:
    return {(s.type_id, s.start, s.end) for s in spans}


def micro_f1(gold: list[set], pred: list[set]) -> float:
    """Exact-match micro F1 on the 0..100 scale, counted here, not by spanmeta."""
    tp = sum(len(g & p) for g, p in zip(gold, pred))
    n_gold = sum(len(g) for g in gold)
    n_pred = sum(len(p) for p in pred)
    if tp == 0:
        return 0.0
    precision, recall = tp / n_pred, tp / n_gold
    return 100.0 * 2 * precision * recall / (precision + recall)


def _gold_sets(docs: list[dict]) -> list[set]:
    return [{(s["type"], s["start"], s["end"]) for s in d["spans"]} for d in docs]


def _with_spans(docs: list[dict], spans: list[set]) -> list[dict]:
    return [
        {
            "id": d["id"],
            "tokens": d["tokens"],
            "spans": [{"type": t, "start": a, "end": b} for t, a, b in sorted(s)],
        }
        for d, s in zip(docs, spans)
    ]


def write_training_inputs(
    docs: dict[str, list[dict]], workdir: Path
) -> tuple[dict[str, Path], Path]:
    paths = {}
    for split, split_docs in docs.items():
        paths[split] = workdir / f"{split}.jsonl"
        gen.write_jsonl(split_docs, paths[split])
    config = workdir / "train.cfg"
    config.write_text(f"learning_rate={LEARNING_RATE}\n", encoding="utf-8")
    return paths, config


def train_argv(arch: str, paths, config: Path, seed: int, epochs: int, out: Path):
    return [
        "train", "--arch", arch, "--train", str(paths["train"]), "--dev", str(paths["dev"]),
        "--config", str(config), "--seed", str(seed), "--max-epochs", str(epochs),
        "--out", str(out),
    ]  # fmt: skip


class Train:
    """``spanmeta train`` for both labelers on a seeded corpus, then
    ``spanmeta eval`` of the CRF's held-out predictions."""

    def __init__(self, workdir: Path, seed: int):
        lang = gen.make_language(f"train/{seed}")
        rng = random.Random(f"train/{seed}/docs")
        self.docs = {
            "train": gen.make_documents(lang, TRAIN_DOCS, rng, "train"),
            "dev": gen.make_documents(lang, DEV_DOCS, rng, "dev"),
            "test": gen.make_documents(lang, TEST_DOCS, rng, "test"),
        }
        self.paths, self.config = write_training_inputs(self.docs, workdir)
        self.test_corpus = spanmeta.read_corpus(self.paths["test"])
        self.train_tokens = gen.token_count(self.docs["train"])
        self.seed = seed
        self.workdir = workdir
        self.pred_path = workdir / "test_pred.jsonl"
        self.pred_f1: float | None = None
        self.kinds = [
            OpKind("train_crf", 1, lambda: self.train("crf"), lambda o: self.check_train("crf", o)),
            OpKind(
                "train_baseline",
                3,
                lambda: self.train("baseline"),
                lambda o: self.check_train("baseline", o),
            ),
            OpKind("eval", 4, self.eval, self.check_eval),
        ]

    def model_path(self, arch: str) -> Path:
        return self.workdir / f"{arch}.model.json"

    def train(self, arch: str):
        argv = train_argv(
            arch, self.paths, self.config, self.seed, TRAIN_EPOCHS, self.model_path(arch)
        )
        return run_cli(argv)

    def check_train(self, arch: str, out) -> tuple[list[str], int]:
        code, _ = out
        problems = _exit_problem(code, f"train --arch {arch}")
        if problems:
            return problems, 0
        path = self.model_path(arch)
        obj = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        log = obj.pop("training_log")
        obj.pop("stopped_early")
        if not log:
            return [f"{arch}: no epoch ran"], 0
        if not all(math.isfinite(r["train_loss"]) and math.isfinite(r["dev_f1"]) for r in log):
            problems.append(f"{arch}: non-finite loss or dev F1 in the training log")
        model = seqlab.model_from_dict(obj)
        if seqlab.model_to_dict(model) != obj:
            problems.append(f"{arch}: model JSON does not round-trip")
        pred = [
            _span_set(spanmeta.bio_decode(seq, mode="lenient"))
            for seq in seqlab.predict(model, self.test_corpus)
        ]
        f1 = micro_f1(_gold_sets(self.docs["test"]), pred)
        if f1 < F1_FLOOR:
            problems.append(f"{arch}: held-out F1 {f1:.2f} is below {F1_FLOOR}")
        if arch == "crf":
            gen.write_jsonl(_with_spans(self.docs["test"], pred), self.pred_path)
            self.pred_f1 = f1
        return problems, self.train_tokens * len(log)

    def eval(self):
        return run_cli(["eval", "--gold", str(self.paths["test"]), "--pred", str(self.pred_path)])

    def check_eval(self, out) -> tuple[list[str], int]:
        code, text = out
        problems = _exit_problem(code, "eval")
        if not problems and not _close(json.loads(text)["micro"]["f1"], self.pred_f1):
            problems.append("eval micro-F1 differs from the exact-match count")
        return problems, gen.token_count(self.docs["test"])


# ---------------------------------------------------------------------------
# tag_profile


def _kl(p: Counter, q: Counter) -> float:
    n_p, n_q = sum(p.values()), sum(q.values())
    return math.fsum((c / n_p) * math.log((c / n_p) / (q[w] / n_q)) for w, c in p.items())


def expected_profile(docs: list[dict]) -> dict[str, dict[str, float]]:
    """The four measurements per type, recounted with Counters from the
    generated documents, plus the frequency-weighted aggregate."""
    unigrams = gen.surface_counts(docs)
    by_type: dict[str, list] = {}
    for d in docs:
        for s in d["spans"]:
            by_type.setdefault(s["type"], []).append((d["tokens"], s["start"], s["end"]))
    out = {}
    for type_id, spans in by_type.items():
        inside, boundary = Counter(), Counter()
        for tokens, start, end in spans:
            inside.update(t["surface"] for t in tokens[start:end])
            if start > 0:
                boundary[tokens[start - 1]["surface"]] += 1
            if end < len(tokens):
                boundary[tokens[end]["surface"]] += 1
        out[type_id] = {
            "frequency": len(spans),
            "span_length": math.exp(math.fsum(math.log(b - a) for _, a, b in spans) / len(spans)),
            "span_distinctiveness": _kl(inside, unigrams),
            "boundary_distinctiveness": _kl(boundary, unigrams),
        }
    total = sum(v["frequency"] for v in out.values())
    out["dataset"] = {
        key: math.fsum(v["frequency"] * v[key] for v in out.values()) / total
        for key in ("frequency", "span_length", "span_distinctiveness", "boundary_distinctiveness")
    }
    return out


class TagProfile:
    """A corpus 10x the training size: ``spanmeta profile`` over it, and
    tagging it with both labelers through ``spanmeta eval``. Set-up
    pre-trains the labelers briefly through ``spanmeta train``."""

    def __init__(self, workdir: Path, seed: int):
        lang = gen.make_language(f"tag_profile/{seed}")
        rng = random.Random(f"tag_profile/{seed}/docs")
        self.docs = gen.make_documents(lang, TAG_DOCS, rng, "doc")
        self.corpus_path = workdir / "corpus.jsonl"
        gen.write_jsonl(self.docs, self.corpus_path)
        training = {
            "train": gen.make_documents(lang, TRAIN_DOCS, rng, "train"),
            "dev": gen.make_documents(lang, DEV_DOCS, rng, "dev"),
        }
        paths, config = write_training_inputs(training, workdir)
        self.model_paths = {}
        for arch, epochs in PRETRAIN_EPOCHS.items():
            self.model_paths[arch] = workdir / f"{arch}.model.json"
            code, _ = run_cli(train_argv(arch, paths, config, seed, epochs, self.model_paths[arch]))
            if code != 0:
                raise RuntimeError(f"pre-training {arch} exited {code}")
        self.pred_path = workdir / "pred.jsonl"
        self.tokens = gen.token_count(self.docs)
        self._gold_spans = None
        self._expected = None
        self.kinds = [
            OpKind("tag_crf", 1, lambda: self.tag("crf"), self.check_tag),
            OpKind("tag_baseline", 1, lambda: self.tag("baseline"), self.check_tag),
            OpKind("profile", 2, self.profile, self.check_profile),
        ]

    def tag(self, arch: str):
        """Load a model, tag the corpus, decode leniently, write, and score."""
        obj = json.loads(self.model_paths[arch].read_text(encoding="utf-8"))
        model = seqlab.model_from_dict(obj)
        corpus = spanmeta.read_corpus(self.corpus_path)
        predicted = tuple(
            spanmeta.Document(doc.id, doc.tokens, tuple(spanmeta.bio_decode(seq, mode="lenient")))
            for doc, seq in zip(corpus, seqlab.predict(model, corpus))
        )
        spanmeta.write_corpus(
            spanmeta.Corpus(predicted, corpus.span_type_inventory), self.pred_path
        )
        code, text = run_cli(
            ["eval", "--gold", str(self.corpus_path), "--pred", str(self.pred_path)]
        )
        return code, text, predicted

    def check_tag(self, out) -> tuple[list[str], int]:
        code, text, predicted = out
        problems = _exit_problem(code, "eval")
        if problems:
            return problems, 0
        if self._gold_spans is None:
            self._gold_spans = [
                tuple(spanmeta.Span(s["type"], s["start"], s["end"]) for s in d["spans"])
                for d in self.docs
            ]
        if [len(d) for d in predicted] != [len(d["tokens"]) for d in self.docs]:
            return ["tagged documents do not line up with the corpus"], 0
        counts = spanmeta.EvalCounts()
        for gold, doc in zip(self._gold_spans, predicted):
            counts = counts + spanmeta.count_matches(gold, doc.spans)
        types = [f"T{i:02d}" for i in range(gen.N_TYPES)]
        library = spanmeta.f1_report(counts, types=types).micro.f1
        counted = micro_f1(_gold_sets(self.docs), [_span_set(d.spans) for d in predicted])
        reported = json.loads(text)["micro"]["f1"]
        if not (_close(reported, library) and _close(reported, counted)):
            problems.append(
                f"eval micro-F1 {reported} differs from f1_report {library}"
                f" or the exact-match count {counted}"
            )
        if reported < F1_FLOOR:
            problems.append(f"tagging micro-F1 {reported:.2f} is below {F1_FLOOR}")
        return problems, self.tokens

    def profile(self):
        return run_cli(["profile", str(self.corpus_path)])

    def check_profile(self, out) -> tuple[list[str], int]:
        code, text = out
        problems = _exit_problem(code, "profile")
        if problems:
            return problems, 0
        if self._expected is None:
            self._expected = expected_profile(self.docs)
        result = json.loads(text)
        got = {row.pop("span_type"): row for row in result["span_types"]}
        got["dataset"] = result["dataset"]
        if got.keys() != self._expected.keys():
            return ["profile does not cover every span type"], 0
        for type_id, want in self._expected.items():
            for key, value in want.items():
                if not _close(got[type_id][key], value):
                    problems.append(f"profile {type_id} {key}: {got[type_id][key]} != {value}")
        return problems, self.tokens


WORKLOADS = {"reproduce": Reproduce, "train": Train, "tag_profile": TagProfile}
