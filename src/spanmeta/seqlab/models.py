"""Token-softmax and linear-chain CRF labelers over sparse indicators.

Both models score a token as the sum of the weight rows of its active
indicators plus a bias row, giving one score per BIO label. The softmax
baseline treats positions independently; the CRF adds label-bigram
transition scores plus start/stop scores and normalizes over whole
sequences. All sequence computations run in log space.

Label ids follow the order of the model's ``labels`` tuple. Argmax ties
resolve toward the lower label id everywhere, including each Viterbi
backpointer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .._numbers import finite_floats
from ..corpus import BioSequence, Corpus
from .features import FeatureIndex

__all__ = [
    "NEG_INF",
    "TokenClassifierModel",
    "LinearChainCrfModel",
    "bio_transition_mask",
    "bio_start_mask",
    "crf_log_partition",
    "crf_viterbi",
    "sequence_score",
    "crf_nll_gradient",
    "baseline_nll_gradient",
    "predict",
    "model_to_dict",
    "model_from_dict",
]

# Additive penalty standing in for -inf; keeps every log-space entry finite.
NEG_INF = -1e30

Encoded = Sequence[Sequence[int]]


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` after shifting by the maximum."""
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _indicators(encoded: Encoded) -> tuple[np.ndarray, np.ndarray]:
    """Position and id of every active indicator, in token order."""
    sizes = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    ids = np.fromiter(chain.from_iterable(encoded), dtype=np.intp, count=sizes.sum())
    return np.repeat(np.arange(len(encoded)), sizes), ids


def _emissions(weights: np.ndarray, encoded: Encoded) -> np.ndarray:
    """Per-position label scores: summed indicator rows plus the bias row."""
    if len(encoded) == 0:
        raise ValueError("sequence must contain at least one position")
    positions, ids = _indicators(encoded)
    out = np.zeros((len(encoded), weights.shape[1]))
    np.add.at(out, positions, weights[ids])
    return out + weights[-1]


def _scatter(grad: np.ndarray, resid: np.ndarray, encoded: Encoded) -> None:
    """Transpose of :func:`_emissions`, added into ``grad``: each position's
    row of ``resid`` goes to the rows of its indicators and to the bias row."""
    positions, ids = _indicators(encoded)
    np.add.at(grad, ids, resid[positions])
    grad[-1] += resid.sum(axis=0)


@dataclass(frozen=True)
class TokenClassifierModel:
    """Independent per-token softmax over the label alphabet.

    ``weights`` has shape (num_features + 1, num_labels); the final row
    is the bias, added at every position.
    """

    feature_index: FeatureIndex
    labels: tuple[str, ...]
    weights: np.ndarray

    arch = "baseline"

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        expected = (self.feature_index.num_features + 1, len(self.labels))
        if self.weights.shape != expected:
            raise ValueError(
                f"weight shape {self.weights.shape} != expected {expected}"
            )

    def parameters(self) -> list[np.ndarray]:
        return [self.weights]

    def clone(self) -> "TokenClassifierModel":
        return TokenClassifierModel(
            self.feature_index, self.labels, self.weights.copy()
        )


@dataclass(frozen=True)
class LinearChainCrfModel:
    """Linear-chain CRF: emissions plus transition, start, and stop scores.

    A sequence's score is the sum of its per-position emissions, the
    transition score of each label bigram, the start score of the first
    label, and the stop score of the last. With ``masked`` set, additive
    penalties rule out label bigrams that break BIO well-formedness.
    """

    feature_index: FeatureIndex
    labels: tuple[str, ...]
    emission_weights: np.ndarray  # (num_features + 1, L), last row is bias
    transitions: np.ndarray  # (L, L), indexed [previous, next]
    start: np.ndarray  # (L,)
    stop: np.ndarray  # (L,)
    masked: bool = False

    arch = "crf"

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        n_labels = len(self.labels)
        expected = (self.feature_index.num_features + 1, n_labels)
        if self.emission_weights.shape != expected:
            raise ValueError(
                f"emission shape {self.emission_weights.shape} != {expected}"
            )
        if self.transitions.shape != (n_labels, n_labels):
            raise ValueError("transition matrix must be num_labels x num_labels")
        if self.start.shape != (n_labels,) or self.stop.shape != (n_labels,):
            raise ValueError("start and stop scores must have one entry per label")

    def parameters(self) -> list[np.ndarray]:
        return [self.emission_weights, self.transitions, self.start, self.stop]

    def clone(self) -> "LinearChainCrfModel":
        params = [p.copy() for p in self.parameters()]
        return LinearChainCrfModel(
            self.feature_index, self.labels, *params, self.masked
        )


def bio_transition_mask(labels: Sequence[str]) -> np.ndarray:
    """Additive mask, NEG_INF where a label bigram breaks BIO structure.

    An I-t label may only follow B-t or I-t of the same type; every
    other bigram is left unpenalized.
    """
    n = len(labels)
    mask = np.zeros((n, n))
    for j, nxt in enumerate(labels):
        if not nxt.startswith("I-"):
            continue
        allowed = {"B-" + nxt[2:], "I-" + nxt[2:]}
        for i, prev in enumerate(labels):
            if prev not in allowed:
                mask[i, j] = NEG_INF
    return mask


def bio_start_mask(labels: Sequence[str]) -> np.ndarray:
    """Additive mask forbidding a sequence from opening on a continuation."""
    return np.array(
        [NEG_INF if lab.startswith("I-") else 0.0 for lab in labels]
    )


@lru_cache(maxsize=8)
def _bio_masks(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Both BIO masks of a label alphabet, built once and read-only."""
    masks = bio_transition_mask(labels), bio_start_mask(labels)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _potentials(model: LinearChainCrfModel) -> tuple[np.ndarray, ...]:
    """Transition, start and stop scores, BIO penalties added if masked."""
    if model.masked:
        trans_mask, start_mask = _bio_masks(model.labels)
        return model.transitions + trans_mask, model.start + start_mask, model.stop
    return model.transitions, model.start, model.stop


def _chain(model: LinearChainCrfModel, encoded: Encoded) -> tuple[np.ndarray, ...]:
    """Emissions and potentials of one sequence."""
    return (_emissions(model.emission_weights, encoded), *_potentials(model))


def _forward_backward(em, trans, start, stop) -> tuple[np.ndarray, np.ndarray, float]:
    """Log forward and backward messages of one chain, and its log partition.

    ``alpha[t, j]`` sums the prefixes ending in label j at position t;
    ``beta[t, i]`` sums the continuations after label i at t, stop included.
    """
    alpha = np.empty_like(em)
    beta = np.empty_like(em)
    alpha[0] = start + em[0]
    for t in range(1, len(em)):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans, axis=0) + em[t]
    beta[-1] = stop
    for t in range(len(em) - 2, -1, -1):
        beta[t] = _logsumexp(trans + (em[t + 1] + beta[t + 1]), axis=1)
    return alpha, beta, float(_logsumexp(alpha[-1] + stop))


def _path_score(em, trans, start, stop, ids) -> float:
    """Score of the label-id path ``ids`` through one chain."""
    return float(
        start[ids[0]]
        + stop[ids[-1]]
        + em[np.arange(len(ids)), ids].sum()
        + trans[ids[:-1], ids[1:]].sum()
    )


def _gold_ids(labels: Sequence[str], gold: Iterable[str], n: int) -> np.ndarray:
    """Label ids of the gold labels of a sequence of ``n`` positions."""
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        ids = np.array([index[lab] for lab in gold], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(
            f"label {exc.args[0]!r} outside the model alphabet"
        ) from None
    if len(ids) != n:
        raise ValueError(f"{len(ids)} gold labels for {n} positions")
    return ids


def crf_log_partition(model: LinearChainCrfModel, encoded: Encoded) -> float:
    """Log of the sum over all label sequences of exp(sequence score)."""
    return _forward_backward(*_chain(model, encoded))[2]


def crf_viterbi(model: LinearChainCrfModel, encoded: Encoded) -> BioSequence:
    """Highest-scoring label sequence under the model."""
    em, trans, start, stop = _chain(model, encoded)
    n, n_labels = em.shape
    delta = start + em[0]
    back = np.zeros((n, n_labels), dtype=np.intp)
    for t in range(1, n):
        scores = delta[:, None] + trans
        back[t] = np.argmax(scores, axis=0)  # first max = lowest prior id
        delta = scores[back[t], np.arange(n_labels)] + em[t]
    path = [int(np.argmax(delta + stop))]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return BioSequence(tuple(model.labels[i] for i in path))


def sequence_score(
    model: LinearChainCrfModel,
    encoded: Encoded,
    labels: BioSequence | Sequence[str],
) -> float:
    """Unnormalized log score of one labeling of one sequence."""
    scaffold = _chain(model, encoded)
    return _path_score(*scaffold, _gold_ids(model.labels, labels, len(encoded)))


Batch = Sequence[tuple[Encoded, "BioSequence | Sequence[str]"]]


def crf_nll_gradient(
    model: LinearChainCrfModel, batch: Batch
) -> tuple[float, list[np.ndarray]]:
    """Summed negative log-likelihood and its gradient over a batch.

    The loss is the sum over examples of log-partition minus gold score.
    The gradient of each parameter block is expected counts under the
    model (forward-backward marginals) minus observed gold counts, in
    the same order as ``model.parameters()``.
    """
    trans, start, stop = _potentials(model)
    d_em, d_trans, d_start, d_stop = (np.zeros_like(p) for p in model.parameters())
    loss = 0.0
    for encoded, gold in batch:
        em = _emissions(model.emission_weights, encoded)
        ids = _gold_ids(model.labels, gold, len(encoded))
        alpha, beta, log_z = _forward_backward(em, trans, start, stop)
        loss += log_z - _path_score(em, trans, start, stop, ids)
        # node marginals minus gold one-hots; rows 0 and -1 feed start and stop
        resid = np.exp(alpha + beta - log_z)
        resid[np.arange(len(ids)), ids] -= 1.0
        _scatter(d_em, resid, encoded)
        d_start += resid[0]
        d_stop += resid[-1]
        # label-pair marginals minus gold bigram counts, summed over positions
        after = em[1:] + beta[1:]
        pairs = np.exp(alpha[:-1, :, None] + trans + after[:, None, :] - log_z)
        pairs[np.arange(len(ids) - 1), ids[:-1], ids[1:]] -= 1.0
        d_trans += pairs.sum(axis=0)
    return loss, [d_em, d_trans, d_start, d_stop]


def baseline_nll_gradient(
    model: TokenClassifierModel, batch: Batch
) -> tuple[float, list[np.ndarray]]:
    """Summed per-token cross-entropy and its gradient over a batch."""
    d_w = np.zeros_like(model.weights)
    loss = 0.0
    for encoded, gold in batch:
        em = _emissions(model.weights, encoded)
        ids = _gold_ids(model.labels, gold, len(encoded))
        lse = _logsumexp(em, axis=1)
        rows = np.arange(len(ids))
        loss += float(lse.sum() - em[rows, ids].sum())
        resid = np.exp(em - lse[:, None])
        resid[rows, ids] -= 1.0
        _scatter(d_w, resid, encoded)
    return loss, [d_w]


def predict(
    model: "TokenClassifierModel | LinearChainCrfModel", corpus: Corpus
) -> list[BioSequence]:
    """One label sequence per document; argmax per token or Viterbi.

    Prediction always uses the full feature bags. Downstream span
    recovery should use the lenient decode, since unconstrained models
    may emit stray continuation labels.
    """
    out: list[BioSequence] = []
    for doc in corpus:
        encoded = model.feature_index.encode_document(doc)
        if not encoded:
            out.append(BioSequence(()))
        elif isinstance(model, LinearChainCrfModel):
            out.append(crf_viterbi(model, encoded))
        else:
            em = _emissions(model.weights, encoded)
            picks = np.argmax(em, axis=1)  # first max = lowest label id
            out.append(BioSequence(tuple(model.labels[i] for i in picks)))
    return out


# ---------------------------------------------------------------------------
# JSON round trip, used by the CLI model files.


# Each architecture's parameter blocks, in ``parameters()`` order.
_PARAMETERS = {
    "crf": ("emission_weights", "transitions", "start", "stop"),
    "baseline": ("weights",),
}


def model_to_dict(model: "TokenClassifierModel | LinearChainCrfModel") -> dict:
    obj: dict = {
        "arch": model.arch,
        "labels": list(model.labels),
        "feature_ids": dict(model.feature_index.ids),
    }
    for key, p in zip(_PARAMETERS[model.arch], model.parameters()):
        obj[key] = p.tolist()
    if isinstance(model, LinearChainCrfModel):
        obj["masked"] = model.masked
    return obj


def model_from_dict(obj: dict) -> "TokenClassifierModel | LinearChainCrfModel":
    """Rebuild a labeler saved by :func:`model_to_dict`.

    Raises ValueError, naming the field, on any missing or malformed one.
    """
    arch = obj.get("arch")
    if arch not in _PARAMETERS:
        raise ValueError(f"unknown architecture {arch!r}")
    labels, ids = obj.get("labels"), obj.get("feature_ids")
    masked = obj.get("masked", False)
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("model labels must be a list of strings")
    if len(set(labels)) != len(labels):
        raise ValueError("model labels must be distinct")
    if not isinstance(ids, dict):
        raise ValueError("model feature ids must be a map")
    if not isinstance(masked, bool):
        raise ValueError(f"model masked flag must be true or false, got {masked!r}")
    params = [finite_floats(obj.get(key), f"model {key}") for key in _PARAMETERS[arch]]
    if arch == "crf":
        return LinearChainCrfModel(FeatureIndex(ids), tuple(labels), *params, masked)
    return TokenClassifierModel(FeatureIndex(ids), tuple(labels), *params)
