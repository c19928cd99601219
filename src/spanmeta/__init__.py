"""Span identification toolkit.

Corpora of token-indexed span annotations, BIO tagging, span-type
metrics, exact-match span F1, desk-scale sequence labelers, a linear
meta-model that predicts an architecture's F1 on a span type, and the
bundled reference study the meta-model analysis reproduces.

Importing the package loads none of it. ``_PUBLIC`` maps each public
name to the submodule that defines it (``"meta.predict"`` for the alias
``predict_f1``), and the module-level ``__getattr__`` of PEP 562 imports
that submodule on first use and reads the name from it on every access,
so ``spanmeta.read_corpus`` costs no numpy and ``spanmeta.fit_ols`` is
always whatever ``spanmeta.meta.fit_ols`` is now. A submodule name such
as ``spanmeta.meta`` resolves the same way.
"""

import importlib


def _names(module: str, names: str) -> dict[str, str]:
    return dict.fromkeys(names.split(), module)


_PUBLIC = {
    **_names(
        "corpus",
        "BioSequence Corpus CorpusFormatError Document Span Token "
        "bio_decode bio_encode bio_labels read_corpus write_corpus",
    ),
    **_names(
        "evaluation",
        "EvalCounts F1Report PRF TypeCounts average_trials count_matches f1_report",
    ),
    **_names(
        "meta",
        "ArchitectureFeatures CrossValidationResult DesignMatrix MetaModel "
        "Observation ablate alpha_mae_curve build_design_matrix fit_elastic_net "
        "fit_meta_model fit_ols inverse_padded_logit loso_cv padded_logit select_alpha",
    ),
    "predict_f1": "meta.predict",
    **_names(
        "metrics",
        "DatasetMetrics SpanTypeProfile UnigramDistribution boundary_distinctiveness "
        "dataset_profile geometric_mean_length kl_divergence profile_span_type "
        "span_distinctiveness span_frequency",
    ),
    **_names("reference", "EmbeddedTables export_table load_embedded to_observations"),
    **_names("report", "ReproductionReport build_reproduction_report"),
    **_names(
        "seqlab",
        "FeatureIndex LinearChainCrfModel TokenClassifierModel TrainConfig "
        "TrainResult crf_log_partition crf_viterbi sequence_score train",
    ),
    "predict_labels": "seqlab.predict",
    **_names("svgplot", "scatter_svg"),
}
_SUBMODULES = {path.partition(".")[0] for path in _PUBLIC.values()}

__all__ = list(_PUBLIC)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _PUBLIC[name].partition(".")
    return getattr(importlib.import_module(f"{__name__}.{module}"), attr or name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
