"""The package's public names, which modules each command loads, and
that no module imports a name it never uses.

``import spanmeta`` loads no submodule: each public name is looked up in
its submodule on first use. Commands import what they use inside their
handlers, so ``eval`` and ``profile`` run without numpy, and no command
loads scipy; the subprocess tests below hold those to account.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


# ---------------------------------------------------------------------------
# unused imports


def _unused_imports(path: Path) -> list[str]:
    """``<file>:<line>: <name>`` for each name ``path`` imports and never uses.

    A name counts as used where it is read or assigned, inside an
    annotation written as a string, or in a literal ``__all__``; the
    ``__future__`` switches and ``*`` imports bind nothing to check.
    """
    tree = ast.parse(path.read_text("utf-8"), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    roots = [tree]
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                roots.extend(ast.Name(name) for name in ast.literal_eval(node.value))
            except ValueError:  # a computed __all__: its names are read below
                pass
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    roots.append(ast.parse(part.value, mode="eval"))
    used = {node.id for root in roots for node in ast.walk(root) if isinstance(node, ast.Name)}
    return [f"{path}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(Path(spanmeta.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    assert [entry for path in modules for entry in _unused_imports(path)] == []


def test_the_unused_import_check_sees_each_form(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Sequence, Mapping\n"
        "from .x import *\n"
        "from .y import exported, dropped\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Sequence[int]') -> None:\n"
        "    return os.sep\n",
        encoding="utf-8",
    )
    assert _unused_imports(path) == [
        f"{path}:3: j", f"{path}:4: Mapping", f"{path}:6: dropped"
    ]
