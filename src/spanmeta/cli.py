"""Command-line front end.

Subcommands wrap the library one-to-one and stay deliberately thin:
``profile`` measures a corpus, ``train``/``eval`` drive the labelers,
``meta ...`` fits and cross-validates the performance model, ``data
export`` dumps the bundled tables, and ``reproduce`` reruns the whole
embedded-data analysis and writes report.json plus scatter.svg.

Only the corpus, evaluation and metrics modules are imported here; each
handler imports the rest of what it uses when it runs, so ``eval`` and
``profile`` load no numpy and ``train`` no meta-model. No command loads
scipy. The parser's choices and defaults come from ``_options``, which
imports nothing numerical. A call builds only the parsers of the command
it names (see :func:`build_parser`): ``meta cv`` builds those of
``spanmeta``, ``meta`` and ``cv``, not all thirteen.

Exit codes: 0 on success, 1 on any validation problem (bad flags, bad
file contents, bad values), 2 on I/O failure or when the process runs out
of memory. An error in an input file names the file, and the line when one
is at fault, as ``<path>: line N: <reason>``. No failure prints a
traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import closing
from itertools import islice
from pathlib import Path

from ._jsontext import (
    InputError,
    csv_text,
    json_pieces,
    json_text,
    parse_json,
    read_text,
    write_text,
)
from ._options import ARCHITECTURES, DEFAULT_ALPHA, PREDICTOR_SETS
from .corpus import Document, _gc_paused, _LayoutReader, _read_documents, read_corpus
from .evaluation import PRF, F1Report, _sum_counts, count_matches, f1_report
from .metrics import (
    DatasetMetrics,
    SpanTypeProfile,
    corpus_unigram_distribution,
    dataset_profile,
    profile_span_type,
)

__all__ = ["main", "entry_point"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1.

    Each parser reports the arguments it does not know itself, so an
    unknown flag on a subcommand prints that subcommand's usage, not the
    top-level one (argparse would hand the leftovers up to ``spanmeta``).
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _write_or_print(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, a str or its pieces, to ``out``, or to stdout when
    ``out`` is None: pieces are joined first, so that one refused by the
    writer that makes them leaves nothing on stdout."""
    if out is None:
        sys.stdout.write(text if isinstance(text, str) else "".join(text))
    else:
        write_text(out, text)


# ---------------------------------------------------------------------------
# profile


def _cmd_profile(args) -> None:
    if args.type == "":
        raise ValueError("--type: a span type name cannot be empty")
    corpus = read_corpus(args.corpus, format=args.input_format)
    # the inventory is derived from the spans, so every type in it has some
    types = corpus.span_type_inventory
    if args.type is not None:
        if args.type not in types:
            raise ValueError(f"span type {args.type!r} has no spans in this corpus")
        types = (args.type,)
    if not types:
        raise ValueError("corpus contains no spans to profile")
    unigrams = corpus_unigram_distribution(corpus)
    profiles = [profile_span_type(corpus, t, unigrams) for t in types]
    aggregate = dataset_profile(profiles) if len(profiles) > 1 else None
    rows = [
        (p.type_id, DatasetMetrics._make(getattr(p, f) for f in DatasetMetrics._fields))
        for p in profiles
    ]

    if args.format == "json":
        obj = {
            "span_types": [{"span_type": t, **m._asdict()} for t, m in rows],
            "dataset": None if aggregate is None else aggregate._asdict(),
        }
        _write_or_print(json_text(obj), args.out)
    else:
        if aggregate is not None:
            rows.append(("ALL", aggregate))
        # span counts are written as integers, everything else to 6 places
        text = csv_text(
            ["span_type", *DatasetMetrics._fields],
            [[t, *(v if isinstance(v, int) else f"{v:.6f}" for v in m)] for t, m in rows],
        )
        _write_or_print(text, args.out)


# ---------------------------------------------------------------------------
# train


def _coerce_option(value: str, default):
    """Parse a config-file value as the type of the option's default."""
    if isinstance(default, bool):
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(default, int):
        kind = "an integer"
    elif isinstance(default, float):
        kind = "a number"
    elif isinstance(default, tuple):
        kind = f"{len(default)} comma-separated numbers"
    else:
        raise ValueError("cannot be set from the config file")
    try:
        if not isinstance(default, tuple):
            return type(default)(value)
        parts = tuple(float(part) for part in value.split(","))
        if len(parts) == len(default):
            return parts
    except ValueError:
        pass
    raise ValueError(f"expected {kind}, got {value!r}")


def _train_config(args):
    from .seqlab import TrainConfig

    config = TrainConfig()
    if args.config:
        options = {f.name for f in dataclasses.fields(TrainConfig)}
        text = read_text(args.config)
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or not key:
                raise InputError(args.config, "expected key=value", lineno)
            if key not in options:
                raise InputError(args.config, f"unknown training option {key!r}", lineno)
            try:
                value = _coerce_option(value.strip(), getattr(config, key))
                config = dataclasses.replace(config, **{key: value})
            except ValueError as exc:
                raise InputError(args.config, f"option {key}: {exc}", lineno) from None
    if args.seed is not None:  # flag beats config file
        config = dataclasses.replace(config, seed=args.seed)
    if args.max_epochs is not None:
        config = dataclasses.replace(config, max_epochs=args.max_epochs)
    return config


def _cmd_train(args) -> None:
    from .seqlab import model_to_dict, train
    from .seqlab.training import _RefusedCorpus

    config = _train_config(args)
    tokens = _LayoutReader()  # one token table for both reads
    train_corpus = read_corpus(args.train, format=args.input_format, _tokens=tokens)
    dev_corpus = None
    if args.dev:
        dev_corpus = read_corpus(
            args.dev, format=args.input_format, partition="dev", _tokens=tokens
        )
    del tokens  # training needs the corpora, not the table
    try:
        result = train(args.arch, train_corpus, dev_corpus, config)
    except _RefusedCorpus as exc:
        raise InputError(args.dev if exc.corpus == "dev" else args.train, str(exc)) from None
    # the model's own arrays, written a row at a time as each is encoded
    obj = model_to_dict(result.model, _arrays=True)
    obj["training_log"] = [dataclasses.asdict(r) for r in result.log]
    obj["stopped_early"] = result.stopped_early
    _write_or_print(json_pieces(obj), args.out)


# ---------------------------------------------------------------------------
# eval


# documents that eval reads from each file before it scores the pairs among them
_EVAL_STEP = 128


def _eval_pairs(args, types: tuple[dict, dict]) -> Iterator[tuple[Document, Document]]:
    """The gold and predicted documents of each id, paired as they are read.

    The two files are read in step through one token table, ``_EVAL_STEP``
    documents of each at a time. A document whose partner has not been
    read yet waits by id; a pair is yielded once the second of the two is
    read, and then dropped. So eval holds its token table, each id once,
    a step's documents and those that wait, not the two corpora. A step
    lets the parser, then the scorer, run over many documents in a row,
    which keeps each one's code and data in the processor's caches: one
    document at a time, eval of a pair of 2,000-document files took about
    1.11 times as long as reading both whole before scoring; 128 at a
    time, about 0.97 times. ``types`` gets the span types of gold's and
    of pred's documents, in order of first appearance. The walk leaves
    the collector as it finds it; ``_cmd_eval`` pauses it around the
    walk and the scoring.

    A fault is held until both files are read, and then raised as if
    gold had been read whole, then pred, and the two then paired in gold
    order: a read error in gold first (it is raised at once), then one in
    pred, a duplicate id in gold, then in pred, ids that differ, and the
    first document in gold order whose token counts differ.
    """
    table = _LayoutReader()  # one token table for both reads
    gold = _read_documents(args.gold, args.input_format, table)
    # model output may contain stray continuation labels
    pred = _read_documents(args.pred, args.input_format, table, "lenient")
    pred_fault: list[Exception] = []
    files: dict[str, int] = {}  # by id, the files that hold it: 1 gold, 2 pred, 3 both
    waiting: tuple[dict, dict] = ({}, {})  # by id: (gold position, document)
    duplicate: list = [None, None]  # each file's first repeated id
    short = None  # (gold position, reason) of the first token-count mismatch

    def pred_docs() -> Iterator[Document]:
        try:
            yield from pred
        except (OSError, ValueError) as exc:
            pred_fault.append(exc)

    with closing(gold), closing(pred):
        preds = pred_docs()
        position = 0  # of the step's first gold document
        while True:
            step = (list(islice(gold, _EVAL_STEP)), list(islice(preds, _EVAL_STEP)))
            if not (step[0] or step[1]):
                break
            pairs = []
            for side, (docs, inventory) in enumerate(zip(step, types)):
                for at, doc in enumerate(docs, position):  # a gold position for gold
                    for span in doc.spans:
                        if span.type_id not in inventory:
                            inventory[span.type_id] = None
                    held = files.get(doc.id, 0)
                    if held & (1 << side):
                        if duplicate[side] is None:
                            duplicate[side] = doc.id
                        continue
                    files[doc.id] = held | (1 << side)
                    partner = waiting[1 - side].pop(doc.id, None)
                    if partner is None:
                        waiting[side][doc.id] = (at, doc)
                    elif side == 0:
                        pairs.append((at, doc, partner[1]))
                    else:
                        pairs.append((*partner, doc))
            position += len(step[0])
            for at, g, p in pairs:
                if len(g.tokens) == len(p.tokens):
                    yield g, p
                elif short is None or at < short[0]:
                    short = (at, f"document {g.id!r}: {len(g)} gold tokens vs {len(p)} predicted")
    if pred_fault:
        raise pred_fault[0]
    for path, label, first in zip((args.gold, args.pred), ("gold", "pred"), duplicate):
        if first is not None:
            raise InputError(path, f"duplicate document id {first!r} in {label} corpus")
    unpaired = [doc_id for doc_id, held in files.items() if held != 3]
    if unpaired:
        missing = sorted(unpaired)[:5]
        raise InputError(
            args.pred,
            f"gold and pred corpora do not cover the same documents; "
            f"first differences: {missing}",
        )
    if short is not None:
        raise InputError(args.pred, short[1])


def _report_to_json(report: F1Report) -> dict:
    return {
        "per_type": {t: prf._asdict() for t, prf in sorted(report.per_type.items())},
        "micro": report.micro._asdict(),
    }


def _cmd_eval(args) -> None:
    if args.types and "" in args.types:
        raise ValueError("--types: a span type name cannot be empty")
    inventories: tuple[dict, dict] = ({}, {})
    with _gc_paused():  # for the reads and the scoring: neither makes a cycle
        counts = _sum_counts(
            count_matches(g.spans, p.spans) for g, p in _eval_pairs(args, inventories)
        )
    if args.types:
        types = args.types
        left = counts.total(set(counts.per_type) - set(types))
        if left.tp + left.fp + left.fn:
            print(
                f"spanmeta: warning: --types leaves {left.tp + left.fp} predicted "
                f"and {left.tp + left.fn} gold span(s) unscored",
                file=sys.stderr,
            )
    else:
        # predicted types the gold file lacks are scored too, as false positives
        types = (*inventories[0], *inventories[1])
    report = f1_report(counts, types=types)
    if args.format == "json":
        _write_or_print(json_text(_report_to_json(report)), args.out)
    else:
        rows = [*report.per_type.items(), ("micro", report.micro)]
        text = csv_text(
            ["span_type", *PRF._fields],
            [[t, *(f"{v:.4f}" for v in prf)] for t, prf in rows],
        )
        _write_or_print(text, args.out)


# ---------------------------------------------------------------------------
# meta


def _observations(args):
    if args.obs:
        from .meta import observations_from_csv

        return observations_from_csv(args.obs)
    from .reference import _bundled, load_embedded

    return _bundled(load_embedded())


def _cv_to_dict(result) -> dict:
    return {
        "predictor_set": result.predictor_set,
        "alpha": result.alpha,
        "mae": result.mae,
        "r2": result.r2,
        "n": int(len(result.actual)),
    }


def _cmd_meta_fit(args) -> None:
    from .meta import fit_meta_model, meta_model_to_dict

    model = fit_meta_model(_observations(args), args.alpha, args.set)
    _write_or_print(json_text(meta_model_to_dict(model)), args.out)


def _cmd_meta_cv(args) -> None:
    from .meta import loso_cv

    result = loso_cv(_observations(args), args.alpha, args.set)
    _write_or_print(json_text(_cv_to_dict(result)), args.out)


def _cmd_meta_ablate(args) -> None:
    from .meta import ablate

    results = ablate(_observations(args), args.alpha)
    obj = {
        "alpha": args.alpha,
        "results": [_cv_to_dict(r) for r in results.values()],
    }
    _write_or_print(json_text(obj), args.out)


def _cmd_meta_predict(args) -> None:
    from .meta import ArchitectureFeatures, fit_meta_model, meta_model_from_dict, predict

    if args.model:
        # a saved model carries its own padding and was fitted on its own data
        given = (("--obs", args.obs), ("--alpha", args.alpha))
        clash = [flag for flag, value in given if value is not None]
        if clash:
            raise ValueError(f"--model cannot be combined with {' or '.join(clash)}")
        text = read_text(args.model)
        try:
            model = meta_model_from_dict(parse_json(text))
        except ValueError as e:
            raise InputError(args.model, str(e)) from e
    else:
        alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
        model = fit_meta_model(_observations(args), alpha)
    arch = ArchitectureFeatures(args.feat, args.crf, args.lstm, args.bert)
    profile = SpanTypeProfile(
        type_id="query",
        frequency=args.freq,
        span_length=args.length,
        span_distinctiveness=args.sd,
        boundary_distinctiveness=args.bd,
    )
    f1 = predict(model, arch, profile)
    _write_or_print(json_text({"f1": f1}), args.out)


def _cmd_meta_select_alpha(args) -> None:
    from .meta import alpha_mae_curve, best_alpha

    grid = None
    if args.grid is not None:
        try:
            grid = tuple(float(part) for part in args.grid.split(","))
        except ValueError:
            raise ValueError(
                f"--grid must be comma-separated numbers, got {args.grid!r}"
            ) from None
    curve = alpha_mae_curve(_observations(args), grid)
    obj = {
        "selected_alpha": best_alpha(curve),
        "curve": [[a, m] for a, m in curve],
    }
    _write_or_print(json_text(obj), args.out)


# ---------------------------------------------------------------------------
# data export / reproduce


def _cmd_data_export(args) -> None:
    from .reference import export_table

    _write_or_print(export_table(args.table), args.out)


def _cmd_reproduce(args) -> None:
    from .report import build_reproduction_report
    from .svgplot import scatter_svg

    run = build_reproduction_report(args.alpha)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "report.json", run.report.to_json())
    svg = scatter_svg(run.full_cv.actual, run.full_cv.predictions)
    write_text(out_dir / "scatter.svg", svg)
    sys.stdout.write(run.report.to_text())


# ---------------------------------------------------------------------------
# parser


def _add_input_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input-format",
        choices=("jsonl", "conll_tsv"),
        default="jsonl",
        help="corpus file format (default jsonl)",
    )


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output here instead of stdout")


def _add_obs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--obs", help="observations CSV (default: bundled study data)")


def _add_obs_alpha(p: argparse.ArgumentParser) -> None:
    _add_obs(p)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="logit padding")


def _profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus", help="corpus file")
    _add_input_format(p)
    p.add_argument("--type", help="profile a single span type")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)
    p.set_defaults(func=_cmd_profile)


def _train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", choices=ARCHITECTURES, required=True)
    p.add_argument("--train", required=True, help="training corpus file")
    p.add_argument("--dev", help="dev corpus file (default: held-out split)")
    _add_input_format(p)
    p.add_argument("--seed", type=int, help="rng seed (overrides config file)")
    p.add_argument("--max-epochs", type=int, help="epoch cap (overrides config file)")
    p.add_argument("--config", help="key=value training options, one per line")
    _add_out(p)
    p.set_defaults(func=_cmd_train)


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--types", nargs="+", help="restrict scoring to these types")
    _add_input_format(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)
    p.set_defaults(func=_cmd_eval)


def _meta_fit_args(p: argparse.ArgumentParser) -> None:
    _add_obs_alpha(p)
    p.add_argument("--set", choices=PREDICTOR_SETS, default="full")
    _add_out(p)
    p.set_defaults(func=_cmd_meta_fit)


def _meta_cv_args(p: argparse.ArgumentParser) -> None:
    _add_obs_alpha(p)
    p.add_argument("--set", choices=PREDICTOR_SETS, default="full")
    _add_out(p)
    p.set_defaults(func=_cmd_meta_cv)


def _meta_ablate_args(p: argparse.ArgumentParser) -> None:
    _add_obs_alpha(p)
    _add_out(p)
    p.set_defaults(func=_cmd_meta_ablate)


def _meta_predict_args(p: argparse.ArgumentParser) -> None:
    _add_obs_alpha(p)
    p.set_defaults(alpha=None)  # so that --model can refuse an explicit --alpha
    p.add_argument("--model", help="fitted model JSON (default: fit on --obs with --alpha)")
    for flag in ("feat", "crf", "lstm", "bert"):
        p.add_argument(f"--{flag}", action="store_true")
    p.add_argument("--freq", type=int, required=True, help="span count")
    p.add_argument("--length", type=float, required=True, help="geometric mean length")
    p.add_argument("--sd", type=float, required=True, help="span distinctiveness")
    p.add_argument("--bd", type=float, required=True, help="boundary distinctiveness")
    _add_out(p)
    p.set_defaults(func=_cmd_meta_predict)


def _meta_select_alpha_args(p: argparse.ArgumentParser) -> None:
    _add_obs(p)
    p.add_argument("--grid", help="comma-separated padding values to sweep")
    _add_out(p)
    p.set_defaults(func=_cmd_meta_select_alpha)


def _data_export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", choices=("profiles", "f1"), required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_data_export)


def _reproduce_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--out-dir", default=".", help="where report.json and scatter.svg go")
    p.set_defaults(func=_cmd_reproduce)


# Each entry is (name, help, body): body adds the command's arguments and
# handler to its parser, or is the table of its subcommands, whose choice
# goes to ``<name>_command``.
_COMMANDS = (
    ("profile", "measure span types in a corpus", _profile_args),
    ("train", "fit a labeler on a corpus", _train_args),
    ("eval", "score predicted spans against gold", _eval_args),
    ("meta", "fit and evaluate the F1 meta-model", (
        ("fit", "fit on all observations", _meta_fit_args),
        ("cv", "leave-one-span-type-out cross-validation", _meta_cv_args),
        ("ablate", "cross-validate every predictor set", _meta_ablate_args),
        ("predict", "predict F1 for one configuration", _meta_predict_args),
        ("select-alpha", "pick padding by cross-validated MAE", _meta_select_alpha_args),
    )),
    ("data", "bundled study tables", (
        ("export", "dump a bundled table as CSV", _data_export_args),
    )),
    ("reproduce", "rerun the embedded-data analysis", _reproduce_args),
)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser for the command line ``argv``; for every command if None.

    Where the next word of ``argv`` names a command, only that command's
    parser is built. argparse hands the rest of the line to that parser
    alone, so help, usage, errors and exit codes are the full parser's.
    Anywhere else (``-h``, an option, an unknown word, no word at all)
    every command at that level is built.
    """
    parser = _ArgumentParser(
        prog="spanmeta",
        description="Span identification metrics, labelers, and the F1 meta-model.",
    )
    _add_commands(parser, "command", _COMMANDS, argv)
    return parser


def _add_commands(parser, dest: str, table, argv: Sequence[str] | None) -> None:
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_ArgumentParser)
    named = [entry for entry in table if argv and entry[0] == argv[0]]
    for name, summary, body in named or table:
        p = sub.add_parser(name, help=summary)
        if callable(body):
            body(p)
        else:
            _add_commands(p, f"{name}_command", body, argv[1:] if named else None)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        args.func(args)
    except OSError as exc:
        print(f"spanmeta: i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # unwinding the failed command has freed what it held, so this line can print
        print(
            "spanmeta: error: out of memory: the input needs more memory "
            "than this process may use",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"spanmeta: error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
