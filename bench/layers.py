"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS``
with a wrapper, in every ``spanmeta`` module namespace that holds it, so
calls made through a name imported elsewhere (``seqlab.training`` imports
``crf_nll_gradient`` by name, ``report`` imports ``ablate``, ``cli``
imports most entry points) are seen too. Methods are replaced on their
class. ``uninstall`` puts the originals back.

A wrapper keeps a stack of open spans. A layer's self time is its span's
duration minus the time of the spans it encloses; time the tracer spends
on its own bookkeeping is charged to no layer, so it shows only in the
overhead that the benchmark reports as the gap between traced and
untraced ops.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

def _n_tokens(docs) -> int:
    return sum(len(d) for d in docs)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _batch_tokens(args, kwargs, result) -> int:
    return sum(len(encoded) for encoded, _ in _arg(args, kwargs, 1, "batch"))


def _fit_tokens(args, kwargs, result) -> int:
    docs = _arg(args, kwargs, 1, "documents")  # args[0] is the class
    return _n_tokens(docs) if isinstance(docs, (list, tuple)) else 0


def _tokens_of_arg(pos: int, name: str) -> Callable:
    def tokens(args, kwargs, result) -> int:
        value = _arg(args, kwargs, pos, name)
        return _n_tokens(value) if hasattr(value, "documents") else len(value)

    return tokens


def _tokens_of_result(args, kwargs, result) -> int:
    return _n_tokens(result)


@dataclass(frozen=True)
class Layer:
    """One traced callable: ``<module>.<attribute path>`` under spanmeta.

    ``primary`` is the workload on which the layer must show calls.
    ``tokens`` maps (args, kwargs, result) to the tokens the call handled.
    """

    name: str
    primary: str
    tokens: Callable | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("meta.build_design_matrix", "reproduce"),
    Layer("meta.fit_ols", "reproduce"),
    Layer("meta.DesignMatrix.transform", "reproduce"),
    Layer("meta.loso_cv", "reproduce"),
    Layer("meta.alpha_mae_curve", "reproduce"),
    Layer("meta.ablate", "reproduce"),
    Layer("meta.fit_meta_model", "reproduce"),
    Layer("reference.load_embedded", "reproduce"),
    Layer("report.build_reproduction_report", "reproduce"),
    Layer("svgplot.scatter_svg", "reproduce"),
    Layer("metrics.dataset_profile", "reproduce"),
    Layer("cli.main", "reproduce"),
    Layer("seqlab.crf_nll_gradient", "train", _batch_tokens),
    Layer("seqlab.baseline_nll_gradient", "train", _batch_tokens),
    Layer("seqlab.Adam.step", "train"),  # tokens: those of the batch just differentiated
    Layer("seqlab.train", "train"),
    Layer("seqlab.FeatureIndex.fit", "train", _fit_tokens),
    Layer("seqlab.model_to_dict", "train"),
    Layer("corpus.bio_encode", "train", _tokens_of_arg(0, "doc")),
    Layer("seqlab.FeatureIndex.encode_document", "tag_profile", _tokens_of_arg(1, "doc")),
    Layer("seqlab.predict", "tag_profile", _tokens_of_arg(1, "corpus")),
    Layer("seqlab.crf_viterbi", "tag_profile", _tokens_of_arg(1, "encoded")),
    Layer("seqlab.model_from_dict", "tag_profile"),
    Layer("corpus.read_corpus", "tag_profile", _tokens_of_result),
    Layer("corpus.write_corpus", "tag_profile", _tokens_of_arg(0, "corpus")),
    Layer("corpus.bio_decode", "tag_profile", _tokens_of_arg(0, "seq")),
    Layer("metrics.profile_span_type", "tag_profile", _tokens_of_arg(0, "corpus")),
    Layer("metrics.corpus_unigram_distribution", "tag_profile", _tokens_of_arg(0, "corpus")),
    Layer("evaluation.count_matches", "tag_profile"),
    Layer("evaluation.f1_report", "tag_profile"),
)

# Layers that must show no calls at all on a workload: the predictions the
# workloads were chosen for. A labeler change cannot touch ``reproduce``,
# and a meta-model change cannot touch the labeler workloads.
_GRADIENT_PATH = (
    "seqlab.crf_nll_gradient",
    "seqlab.baseline_nll_gradient",
    "seqlab.Adam.step",
    "seqlab.train",
)
_META_PATH = tuple(
    layer.name
    for layer in LAYERS
    if layer.name.split(".")[0] in ("meta", "reference", "report", "svgplot")
)
MUST_BE_IDLE = {
    "reproduce": tuple(
        layer.name
        for layer in LAYERS
        if layer.name.split(".")[0] in ("seqlab", "corpus", "evaluation")
        or layer.name in ("metrics.profile_span_type", "metrics.corpus_unigram_distribution")
    ),
    "train": _META_PATH,
    "tag_profile": _META_PATH + _GRADIENT_PATH,
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    cpu_s: float = 0.0
    tokens: int = 0
    # Distinct inputs seen by the current op and the sum over finished ops.
    op_keys: set = field(default_factory=set)
    distinct: int = 0
    # loso_cv folds, or train epochs run; and train's best epochs.
    units: int = 0
    useful_units: int = 0


def _resolve(layer_name: str):
    """(owner, attribute, original callable) for a layer name."""
    module_name, *path = layer_name.split(".")
    owner = importlib.import_module(f"spanmeta.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    attr = path[-1]
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        if raw is None:
            raise AttributeError(f"layer {layer_name}: {owner.__name__} has no {attr}")
        return owner, attr, raw
    value = getattr(owner, attr, None)
    if value is None:
        raise AttributeError(f"layer {layer_name}: spanmeta.{module_name} has no {attr}")
    return owner, attr, value


class Tracer:
    """Wraps every listed layer; records only while ``enabled`` is true."""

    def __init__(self) -> None:
        self.stats = {layer.name: LayerStats() for layer in LAYERS}
        self.enabled = False
        self._stack: list[list[float]] = []
        self._batch_tokens = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            owner, attr, raw = _resolve(layer.name)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                else:
                    wrapped = self._wrap(layer, raw)
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._wrap(layer, raw)
            for name, module in list(sys.modules.items()):
                if name != "spanmeta" and not name.startswith("spanmeta."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        stats = self.stats[layer.name]
        stack = self._stack
        clock = time.perf_counter
        cpu_clock = time.process_time
        after = _AFTER.get(layer.name)
        tokens_fn = layer.tokens
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            c0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stats.cpu_s += cpu_clock() - c0
                stack.pop()
                stats.calls += 1
                stats.total_s += t1 - t0
                stats.self_s += t1 - t0 - frame[0]
            if tokens_fn is not None:
                stats.tokens += tokens_fn(args, kwargs, result)
            if after is not None:
                after(tracer, stats, args, kwargs, result)
            if stack:  # the parent's self time excludes this span and its bookkeeping
                stack[-1][0] += clock() - t0
            return result

        return traced

    def end_op(self) -> None:
        """Fold per-op distinct-input sets into the run totals."""
        for stats in self.stats.values():
            stats.distinct += len(stats.op_keys)
            stats.op_keys.clear()


def _after_fit_ols(tracer, stats, args, kwargs, result) -> None:
    design = _arg(args, kwargs, 0, "design")
    stats.op_keys.add(hash(design.matrix.tobytes()))


def _after_unigrams(tracer, stats, args, kwargs, result) -> None:
    stats.op_keys.add(id(_arg(args, kwargs, 0, "corpus")))


def _after_loso(tracer, stats, args, kwargs, result) -> None:
    stats.units += len({o.span_type_id for o in _arg(args, kwargs, 0, "observations")})


def _after_gradient(tracer, stats, args, kwargs, result) -> None:
    tracer._batch_tokens = _batch_tokens(args, kwargs, result)


def _after_adam(tracer, stats, args, kwargs, result) -> None:
    stats.tokens += tracer._batch_tokens


def _after_train(tracer, stats, args, kwargs, result) -> None:
    stats.units += len(result.log)
    stats.useful_units += max((r.epoch for r in result.log if r.checkpointed), default=0)


_AFTER = {
    "meta.fit_ols": _after_fit_ols,
    "metrics.corpus_unigram_distribution": _after_unigrams,
    "meta.loso_cv": _after_loso,
    "seqlab.crf_nll_gradient": _after_gradient,
    "seqlab.baseline_nll_gradient": _after_gradient,
    "seqlab.Adam.step": _after_adam,
    "seqlab.train": _after_train,
}

_RATIO_LAYERS = ("meta.fit_ols", "metrics.corpus_unigram_distribution")
TOKEN_LAYERS = tuple(layer.name for layer in LAYERS if layer.tokens is not None) + (
    "seqlab.Adam.step",
)


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.self_s", "s", "lower"))
        out.append((f"{layer.name}.calls", "count", "lower"))
        if layer.name in TOKEN_LAYERS:
            out.append((f"{layer.name}.tokens", "count", "lower"))
    out.append(("meta.loso_cv.fold_s", "s", "lower"))
    out.append(("meta.fit_ols.cpu_per_wall", "ratio", "lower"))
    out.append(("meta.fit_ols.useful_ratio", "ratio", "higher"))
    out.append(("metrics.corpus_unigram_distribution.useful_ratio", "ratio", "higher"))
    out.append(("seqlab.train.useful_epoch_ratio", "ratio", "higher"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer values per round of the workload's op mix.

    Ratios are over the whole traced phase. ``meta.fit_ols.cpu_per_wall``
    and ``trace.overhead_ratio`` are filled in by the caller.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        s = tracer.stats[layer.name]
        out[f"{layer.name}.self_s"] = s.self_s / rounds
        out[f"{layer.name}.calls"] = s.calls / rounds
        if layer.name in TOKEN_LAYERS:
            out[f"{layer.name}.tokens"] = s.tokens / rounds
    loso = tracer.stats["meta.loso_cv"]
    out["meta.loso_cv.fold_s"] = _ratio(loso.total_s, loso.units)
    for name in _RATIO_LAYERS:
        s = tracer.stats[name]
        out[f"{name}.useful_ratio"] = _ratio(s.distinct, s.calls)
    train = tracer.stats["seqlab.train"]
    out["seqlab.train.useful_epoch_ratio"] = _ratio(train.useful_units, train.units)
    return out


def layer_problems(tracer: Tracer, workload: str) -> list[str]:
    """Listed layers with no calls on their primary workload, and layers
    that ran on a workload that must leave them idle."""
    problems = [
        f"layer {layer.name} has 0 calls on its primary workload {workload}"
        for layer in LAYERS
        if layer.primary == workload and tracer.stats[layer.name].calls == 0
    ]
    problems += [
        f"layer {name} ran {tracer.stats[name].calls} times on {workload}"
        for name in MUST_BE_IDLE[workload]
        if tracer.stats[name].calls
    ]
    return problems
