"""The package's public names, and which modules each command loads.

``import spanmeta`` loads no submodule: each public name is looked up in
its submodule on first use. Commands import what they use inside their
handlers, so ``eval`` and ``profile`` run without numpy, and no command
loads scipy; the subprocess tests below hold those to account.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import spanmeta
from spanmeta import Corpus, Span, write_corpus

from helpers import make_doc

# every name ``spanmeta`` exported before its imports became lazy, with the
# submodule attribute it stands for
PUBLIC = {
    "corpus": (
        "BioSequence", "Corpus", "CorpusFormatError", "Document", "Span", "Token",
        "bio_decode", "bio_encode", "bio_labels", "read_corpus", "write_corpus",
    ),
    "evaluation": (
        "EvalCounts", "F1Report", "PRF", "TypeCounts", "average_trials",
        "count_matches", "f1_report",
    ),
    "meta": (
        "ArchitectureFeatures", "CrossValidationResult", "DesignMatrix", "MetaModel",
        "Observation", "ablate", "alpha_mae_curve", "build_design_matrix",
        "fit_elastic_net", "fit_meta_model", "fit_ols", "inverse_padded_logit",
        "loso_cv", "padded_logit", "select_alpha",
    ),
    "metrics": (
        "DatasetMetrics", "SpanTypeProfile", "UnigramDistribution",
        "boundary_distinctiveness", "dataset_profile", "geometric_mean_length",
        "kl_divergence", "profile_span_type", "span_distinctiveness", "span_frequency",
    ),
    "reference": ("EmbeddedTables", "export_table", "load_embedded", "to_observations"),
    "report": ("ReproductionReport", "build_reproduction_report"),
    "seqlab": (
        "FeatureIndex", "LinearChainCrfModel", "TokenClassifierModel", "TrainConfig",
        "TrainResult", "crf_log_partition", "crf_viterbi", "sequence_score", "train",
    ),
    "svgplot": ("scatter_svg",),
}  # fmt: skip
ALIASES = {"predict_f1": ("meta", "predict"), "predict_labels": ("seqlab", "predict")}
NAMES = {
    **{name: (module, name) for module, names in PUBLIC.items() for name in names},
    **ALIASES,
}


@pytest.mark.parametrize("name", sorted(NAMES))
def test_public_name_is_the_submodule_attribute(name):
    module, attr = NAMES[name]
    assert getattr(spanmeta, name) is getattr(
        importlib.import_module(f"spanmeta.{module}"), attr
    )


def test_dir_and_all_cover_the_public_names():
    assert set(NAMES) <= set(spanmeta.__all__)
    assert set(NAMES) | set(PUBLIC) <= set(dir(spanmeta))
    assert spanmeta.__version__ == "0.1.0"


def test_submodules_resolve_as_attributes():
    for module in PUBLIC:
        assert getattr(spanmeta, module) is importlib.import_module(f"spanmeta.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spanmeta.no_such_name  # noqa: B018
    assert not hasattr(spanmeta, "cli_main")


# ---------------------------------------------------------------------------
# modules loaded by a fresh interpreter

_REPORT = (
    "import sys; print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] in ('numpy', 'scipy', 'spanmeta'))))"
)


def _loaded(code: str, *argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", f"import json\n{code}\n{_REPORT}", *argv],
        capture_output=True, text=True, env=env, check=True,
    )  # fmt: skip
    return set(json.loads(done.stdout.splitlines()[-1]))


def _run_cli(*argv: str) -> set[str]:
    code = "import sys\nfrom spanmeta.cli import main\nassert main(sys.argv[1:]) == 0"
    return _loaded(code, *argv)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("package") / "corpus.jsonl"
    docs = tuple(
        make_doc(f"d{i}", ["the", "per", "son", "said"], [Span("p", 1, 3)])
        for i in range(6)
    )
    write_corpus(Corpus(docs, ("p",)), path)
    return path


def test_import_loads_no_submodule():
    assert _loaded("import spanmeta") == {"spanmeta"}


def test_parser_options_are_shared_not_copied():
    from spanmeta import _options, meta
    from spanmeta.seqlab import training

    for name in ("PREDICTOR_SETS", "MAIN_COLUMNS", "INTERACTION_COLUMNS", "DEFAULT_ALPHA"):
        assert getattr(meta, name) is getattr(_options, name)
    assert training.ARCHITECTURES is _options.ARCHITECTURES


@pytest.mark.parametrize("command", ["train", "meta predict", "reproduce"])
def test_help_leaves_numpy_unloaded(command):
    code = (
        "import sys\nfrom spanmeta.cli import main\ntry:\n    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n    assert exc.code == 0"
    )
    loaded = _loaded(code, *command.split(), "--help")
    assert "numpy" not in loaded
    assert "spanmeta._options" in loaded


def test_eval_leaves_numpy_unloaded(corpus_path, tmp_path):
    out = tmp_path / "eval.json"
    loaded = _run_cli(
        "eval", "--gold", str(corpus_path), "--pred", str(corpus_path), "--out", str(out)
    )
    assert json.loads(out.read_text("utf-8"))["micro"]["f1"] == 100.0
    assert "numpy" not in loaded
    assert "spanmeta.evaluation" in loaded


def test_profile_leaves_numpy_unloaded(corpus_path, tmp_path):
    out = tmp_path / "profile.json"
    loaded = _run_cli("profile", str(corpus_path), "--out", str(out))
    assert json.loads(out.read_text("utf-8"))["span_types"][0]["frequency"] == 6
    assert "numpy" not in loaded
    assert "spanmeta.metrics" in loaded


def test_train_leaves_scipy_unloaded(corpus_path, tmp_path):
    out = tmp_path / "model.json"
    loaded = _run_cli(
        "train", "--arch", "crf", "--train", str(corpus_path), "--dev", str(corpus_path),
        "--max-epochs", "1", "--out", str(out),
    )  # fmt: skip
    assert json.loads(out.read_text("utf-8"))["arch"] == "crf"
    assert "scipy" not in loaded
    assert {"numpy", "spanmeta.seqlab"} <= loaded
    assert "spanmeta.meta" not in loaded


@pytest.mark.parametrize(
    "command",
    [
        "meta fit --out {out}",
        "meta cv --out {out}",
        "meta predict --freq 50 --length 2 --sd 1 --bd 1 --crf --out {out}",
        "data export --table f1 --out {out}",
        "reproduce --out-dir {out}",
    ],
    ids=lambda command: command.split(" --")[0],
)
def test_meta_model_commands_leave_scipy_unloaded(command, tmp_path):
    argv = command.format(out=tmp_path / "out").split()
    loaded = _run_cli(*argv)
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert {"numpy", "spanmeta.meta"} <= loaded


def test_writers_leave_numpy_unloaded():
    # so that each interpreter can check them against its own json module
    loaded = _loaded("import spanmeta._jsontext, spanmeta.corpus")
    assert loaded == {"spanmeta", "spanmeta._jsontext", "spanmeta.corpus"}
