"""Token-softmax and linear-chain CRF labelers over sparse indicators.

Both models score a token as the sum of the weight rows of its active
indicators plus a bias row, giving one score per BIO label. The softmax
baseline treats positions independently; the CRF adds label-bigram
transition scores plus start/stop scores and normalizes over whole
sequences.

A batch of sequences is laid end to end as one run of tokens. Its
emissions sum the indicator rows one rank at a time (the first indicator
of every token, then the second, ...), and its gradients scatter back
with one ``np.add.at``, since indicator ids repeat across tokens.
The CRF's forward-backward runs once per batch, over a padded
(T, B, L) grid whose rows hold the sequences longest first: the Python
loop runs over the positions of the longest sequence, and padded cells
are never read. It runs on probabilities rather than in log
space (the scaled recursion of Rabiner, 1989, section V.A): each message
is normalised to sum 1 at every step, and one BLAS product with
``E = exp(transitions - column maxima)``, whose entries lie in [0, 1],
advances the forward and the backward message together. The step sums
give the log partition, and the scaled messages give the node marginals
and the label-pair marginals, the latter as one (L, L) product with no
(T, L, L) pair tensor. A batch in which any step sum or node normaliser
falls below ``_TINY``, where underflow would cost precision, is redone in
log space, so results stay exact for any finite weights.

Viterbi decoding runs on the same grid, with max and argmax in place of
the scaled sum; max-product cannot underflow, so it needs neither the
scaling nor the guard. Each step scores a (rows, next, prev) array, so
the argmax over previous labels runs along its contiguous last axis, and
the backtrack moves every row at once. A corpus is decoded in chunks of
consecutive documents whose padded cells, the (T, rows, L) grid and the
(rows, L, L) step array, stay within ``_CHUNK_CELLS``; memory does not grow
with the corpus, and a document too long for the bound is decoded alone.
The baseline's per-token argmax reads the same chunks.

Label ids follow the order of the model's ``labels`` tuple. Argmax ties
resolve toward the lower label id everywhere, including each Viterbi
backpointer and the choice of the last label, so a batch decodes every
sequence exactly as it would be decoded alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Sequence

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

# Step sums and node normalisers at or above this keep full relative precision
# (it is far above the subnormal range); a batch with a smaller one is redone
# in log space.
_TINY = 1e-300

# Padded cells one decoding chunk may hold, in its (T, rows, L) grid and
# its (rows, L, L) step array; a document past it is decoded on its own.
_CHUNK_CELLS = 1 << 16

Encoded = Sequence[Sequence[int]]


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` after shifting by the maximum."""
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


class _Tokens(NamedTuple):
    """A batch of sequences laid end to end as one run of tokens."""

    heads: np.ndarray  # first token of each sequence
    lengths: np.ndarray  # tokens in each sequence
    positions: np.ndarray  # token of every active indicator
    ids: np.ndarray  # id of every active indicator

    @property
    def tails(self) -> np.ndarray:
        return self.heads + self.lengths - 1

    @property
    def links(self) -> np.ndarray:
        """Every token followed by another token of its sequence."""
        inner = np.ones(self.lengths.sum(), dtype=bool)
        inner[self.tails] = False
        return np.flatnonzero(inner)


def _flatten(docs: Sequence[Encoded]) -> _Tokens:
    lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
    if not lengths.all():
        raise ValueError("sequence must contain at least one position")
    heads = np.cumsum(lengths) - lengths
    bags = list(chain.from_iterable(docs))
    sizes = np.fromiter(map(len, bags), dtype=np.intp, count=len(bags))
    ids = np.fromiter(chain.from_iterable(bags), dtype=np.intp, count=sizes.sum())
    return _Tokens(heads, lengths, np.repeat(np.arange(len(bags)), sizes), ids)


def _emissions(weights: np.ndarray, tokens: _Tokens) -> np.ndarray:
    """Per-token label scores: summed indicator rows plus the bias row.

    The sum runs rank by rank: step ``r`` adds the ``r``-th indicator row
    of every token that has more than ``r`` indicators. Each token's rows
    are added in the order ``np.add.at`` would add them, so the result is
    the same to the bit.
    """
    n = tokens.lengths.sum()
    sizes = np.bincount(tokens.positions, minlength=n)
    starts = np.cumsum(sizes) - sizes
    out = np.zeros((n, weights.shape[1]))
    for r in range(sizes.max(initial=0)):
        rows = np.flatnonzero(sizes > r)
        out[rows] += weights[tokens.ids[starts[rows] + r]]
    return out + weights[-1]


def _scatter(grad: np.ndarray, resid: np.ndarray, tokens: _Tokens) -> None:
    """Transpose of :func:`_emissions`, added into ``grad``: each token's
    row of ``resid`` goes to the rows of its indicators and to the bias row."""
    np.add.at(grad, tokens.ids, resid[tokens.positions])
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


def _chain(model: LinearChainCrfModel, docs: Sequence[Encoded]) -> tuple:
    """Token layout and emissions of a batch, and the model's potentials."""
    tokens = _flatten(docs)
    return tokens, _emissions(model.emission_weights, tokens), *_potentials(model)


def _layout(tokens: _Tokens) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a batch's tokens sit on its padded (T, B) grid: each token's
    position ``t`` and grid row ``row``, and ``live``.

    Grid row b holds the b-th longest sequence (ties in batch order), so
    the sequences still running at position t are the rows ``:live[t]``,
    and ``T = len(live)``. ``grid[t, row] = em`` lays per-token rows out on
    a grid, and ``grid[t, row]`` reads them back in token order.
    """
    n_seq = len(tokens.lengths)
    rank = np.empty_like(tokens.lengths)
    rank[np.argsort(-tokens.lengths, kind="stable")] = np.arange(n_seq)
    width = tokens.lengths.max(initial=1)  # an empty batch keeps one position
    live = np.count_nonzero(tokens.lengths[:, None] > np.arange(width), axis=0)
    seq = np.repeat(np.arange(n_seq), tokens.lengths)
    return np.arange(len(seq)) - tokens.heads[seq], rank[seq], live


def _forward_backward(
    em: np.ndarray, tokens: _Tokens, trans: np.ndarray, start, stop
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node marginals of every token, label-pair marginals summed over the
    batch, and the log partition of every sequence.

    The scaled pass runs first; a batch it cannot hold to full precision is
    redone in log space.
    """
    out = _scaled_pass(em, tokens, trans, start, stop)
    return _log_pass(em, tokens, trans, start, stop) if out is None else out


@np.errstate(all="ignore")  # whatever is lost fails the guard
def _scaled_pass(em: np.ndarray, tokens: _Tokens, trans, start, stop):
    """:func:`_forward_backward` on probabilities scaled to sum 1 at every
    step; None if a step sum or node normaliser falls below ``_TINY``.

    With ``E = exp(trans - column maxima)`` and ``q = exp(x - row max)``,
    where ``x`` is a token's emissions plus those maxima (plus ``start`` in
    their place at a head), the forward message ``f`` before each token's
    emission and the backward message ``b`` after it are
    ``f[t] ~ (f[t-1] * q[t-1]) @ E`` from ``f = 1`` at the head and
    ``b[t] ~ (q[t+1] * b[t+1]) @ E.T`` from ``b = exp(stop - max)`` at the
    tail. Token t's marginals are ``(f * q * b)[t]`` and, with the token
    after it, ``E * outer((f * q)[t], (q * b)[t+1])``, each over its
    normaliser.

    Both directions advance in one (2, B, L + 1) product per step ``u``, the
    backward one counting its steps from each sequence's tail. Every grid
    row takes every step: a row past its sequence's end multiplies zeros,
    and its cells, NaN after 0 / 0, are never read.
    """
    t, row, live = _layout(tokens)  # the rows' order does not matter here
    n_seq, n_labels = len(tokens.lengths), em.shape[1]
    back = np.repeat(tokens.lengths, tokens.lengths) - 1 - t  # steps from the tail
    shift = trans.max(axis=0)
    scale = np.exp(trans - shift)
    x = em + shift
    x[tokens.heads] = em[tokens.heads] + start
    top = x.max(axis=1)
    q = np.exp(x - top[:, None])
    # [step, direction, row, label], with one more label whose column in
    # ``both`` holds the row sums of E and of E.T, so that each product
    # carries its step sum in its last column
    grid = np.zeros((len(live), 2, n_seq, n_labels + 1))
    grid[t, 0, row, :-1] = grid[back, 1, row, :-1] = q
    both = np.zeros((2, n_labels + 1, n_labels + 1))
    both[0, :-1, :-1], both[1, :-1, :-1] = scale, scale.T
    both[:, :-1, -1] = scale.sum(axis=1), scale.sum(axis=0)
    msg = np.ones_like(grid)
    msg[0, 1, :, :-1] = np.exp(stop - stop.max())  # the value at every last token
    sums = np.ones(grid.shape[:3])
    for u in range(1, len(live)):
        np.matmul(msg[u - 1] * grid[u - 1], both, out=msg[u])
        sums[u] = msg[u, :, :, -1]
        msg[u] /= sums[u, :, :, None]
    a, b = msg[t, 0, row, :-1] * q, msg[back, 1, row, :-1]  # scaled alpha and beta
    node = a * b
    z = node.sum(axis=1)
    # the forward step sums, and the backward ones times z (z alone at a tail)
    steps = np.stack([sums[t, 0, row], sums[back, 1, row] * z])
    if not steps.min(initial=1.0) >= _TINY:  # false on NaN too
        return None
    a /= steps[1, :, None]
    a[tokens.tails] = 0.0  # a last token pairs with no next one
    pair = scale * (a[:-1].T @ (q * b)[1:])
    log_z = np.add.reduceat(np.log(steps[0]) + top, tokens.heads)
    return node / z[:, None], pair, log_z + np.log(z[tokens.tails]) + stop.max()


def _log_pass(em: np.ndarray, tokens: _Tokens, trans, start, stop):
    """:func:`_forward_backward` with log messages summed by ``_logsumexp``."""
    t, row, live = _layout(tokens)
    cells = np.zeros((len(live), len(tokens.lengths), em.shape[1]))
    cells[t, row] = em
    alpha = np.zeros_like(cells)
    beta = np.zeros_like(cells) + stop  # the value at every last token
    alpha[0] = start + cells[0]
    for u in range(1, len(live)):
        k = live[u]
        alpha[u, :k] = cells[u, :k] + _logsumexp(alpha[u - 1, :k, :, None] + trans, axis=1)
    log_z = _logsumexp(alpha[t, row][tokens.tails] + stop, axis=1)
    by_row = np.empty_like(log_z)
    by_row[row[tokens.heads]] = log_z
    pair = np.zeros_like(trans)
    for u in range(len(live) - 2, -1, -1):
        k = live[u + 1]
        after = trans + (cells[u + 1, :k] + beta[u + 1, :k])[:, None, :]
        beta[u, :k] = _logsumexp(after, axis=2)
        pair += np.exp(alpha[u, :k, :, None] + after - by_row[:k, None, None]).sum(axis=0)
    node = (alpha + beta - by_row[:, None])[t, row]
    return np.exp(node), pair, log_z


def _viterbi(model: LinearChainCrfModel, tokens: _Tokens) -> np.ndarray:
    """Label ids of the best path through every sequence of a batch, in
    token order."""
    em = _emissions(model.emission_weights, tokens)
    trans, start, stop = _potentials(model)
    t, row, live = _layout(tokens)
    grid = np.zeros((len(live), len(tokens.lengths), em.shape[1]))
    grid[t, row] = em
    into = np.ascontiguousarray(trans.T)  # [next, prev]
    delta = start + grid[0]
    back = np.empty(grid.shape, dtype=np.intp)
    scores = np.empty((len(delta), *into.shape))  # [row, next, prev]
    cell = np.arange(delta.size).reshape(delta.shape) * len(into)  # at [row, next, 0]
    for u in range(1, len(live)):
        k = live[u]
        np.add(delta[:k, None, :], into, out=scores[:k])
        np.argmax(scores[:k], axis=2, out=back[u, :k])  # first max = lowest previous id
        delta[:k] = scores.reshape(-1)[back[u, :k] + cell[:k]] + grid[u, :k]
    ids = np.empty(grid.shape[:2], dtype=np.intp)
    label = np.argmax(delta + stop, axis=1)
    for u in range(len(live) - 1, 0, -1):
        k = live[u]
        ids[u, :k] = label[:k]
        label[:k] = back[u, np.arange(k), label[:k]]
    ids[0] = label
    return ids[t, row]


def _path_score(em, trans, start, stop, ids, tokens: _Tokens) -> float:
    """Summed score of the label-id paths ``ids`` through a batch of chains."""
    prev = tokens.links
    return float(
        start[ids[tokens.heads]].sum()
        + stop[ids[tokens.tails]].sum()
        + em[np.arange(len(ids)), ids].sum()
        + trans[ids[prev], ids[prev + 1]].sum()
    )


def _gold_ids(labels: Sequence[str], batch: Batch) -> np.ndarray:
    """Label ids of the gold labels of every sequence of a batch, in token order."""
    index = {lab: i for i, lab in enumerate(labels)}
    ids: list[int] = []
    for encoded, gold in batch:
        try:
            seq = [index[lab] for lab in gold]
        except KeyError as exc:
            raise ValueError(
                f"label {exc.args[0]!r} outside the model alphabet"
            ) from None
        if len(seq) != len(encoded):
            raise ValueError(f"{len(seq)} gold labels for {len(encoded)} positions")
        ids += seq
    return np.array(ids, dtype=np.intp)


def crf_log_partition(model: LinearChainCrfModel, encoded: Encoded) -> float:
    """Log of the sum over all label sequences of exp(sequence score)."""
    tokens, em, trans, start, stop = _chain(model, [encoded])
    return float(_forward_backward(em, tokens, trans, start, stop)[2][0])


def crf_viterbi(
    model: LinearChainCrfModel, encoded: Encoded | Corpus
) -> BioSequence | list[BioSequence]:
    """Highest-scoring label sequence under the model.

    Given a ``Corpus`` in place of one encoded sequence, decodes every
    document in chunks and returns one sequence per document, empty for an
    empty document.
    """
    if isinstance(encoded, Corpus):
        return _decode(model, encoded, partial(_viterbi, model))
    ids = _viterbi(model, _flatten([encoded]))
    return BioSequence(tuple(model.labels[i] for i in ids.tolist()))


def sequence_score(
    model: LinearChainCrfModel,
    encoded: Encoded,
    labels: BioSequence | Sequence[str],
) -> float:
    """Unnormalized log score of one labeling of one sequence."""
    tokens, em, trans, start, stop = _chain(model, [encoded])
    ids = _gold_ids(model.labels, [(encoded, labels)])
    return _path_score(em, trans, start, stop, ids, tokens)


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
    tokens, em, trans, start, stop = _chain(model, [encoded for encoded, _ in batch])
    ids = _gold_ids(model.labels, batch)
    resid, d_trans, log_z = _forward_backward(em, tokens, trans, start, stop)
    loss = float(log_z.sum()) - _path_score(em, trans, start, stop, ids, tokens)
    # node marginals minus gold one-hots; first and last tokens feed start and stop
    resid[np.arange(len(ids)), ids] -= 1.0
    d_em = np.zeros_like(model.emission_weights)
    _scatter(d_em, resid, tokens)
    # label-pair marginals minus gold bigram counts, summed over positions
    prev = tokens.links
    gold = np.zeros_like(d_trans)
    np.add.at(gold, (ids[prev], ids[prev + 1]), 1.0)
    d_trans -= gold
    d_start = resid[tokens.heads].sum(axis=0)
    d_stop = resid[tokens.tails].sum(axis=0)
    return loss, [d_em, d_trans, d_start, d_stop]


def baseline_nll_gradient(
    model: TokenClassifierModel, batch: Batch
) -> tuple[float, list[np.ndarray]]:
    """Summed per-token cross-entropy and its gradient over a batch."""
    tokens = _flatten([encoded for encoded, _ in batch])
    em = _emissions(model.weights, tokens)
    ids = _gold_ids(model.labels, batch)
    lse = _logsumexp(em, axis=1)
    rows = np.arange(len(ids))
    loss = float(lse.sum() - em[rows, ids].sum())
    resid = np.exp(em - lse[:, None])
    resid[rows, ids] -= 1.0
    d_w = np.zeros_like(model.weights)
    _scatter(d_w, resid, tokens)
    return loss, [d_w]


def _chunks(docs: Sequence[Encoded], n_labels: int) -> Iterator[list[int]]:
    """Indices of the non-empty documents, in runs whose padded cells
    ``rows * L * max(T, L)`` stay within ``_CHUNK_CELLS``."""
    chunk: list[int] = []
    width = n_labels  # max(T, L) over the chunk
    for i, doc in enumerate(docs):
        if not doc:
            continue
        if chunk and (len(chunk) + 1) * n_labels * max(width, len(doc)) > _CHUNK_CELLS:
            yield chunk
            chunk, width = [], n_labels
        chunk.append(i)
        width = max(width, len(doc))
    if chunk:
        yield chunk


def _decode(
    model: "TokenClassifierModel | LinearChainCrfModel",
    corpus: Corpus,
    best: Callable[[_Tokens], np.ndarray],
) -> list[BioSequence]:
    """One label sequence per document; ``best`` gives the label ids of
    every token of a chunk of documents, in token order."""
    docs = [model.feature_index.encode_document(doc) for doc in corpus]
    out = [BioSequence(())] * len(docs)
    for chunk in _chunks(docs, len(model.labels)):
        tokens = _flatten([docs[i] for i in chunk])
        labels = [model.labels[i] for i in best(tokens).tolist()]
        for i, head, n in zip(chunk, tokens.heads.tolist(), tokens.lengths.tolist()):
            out[i] = BioSequence(tuple(labels[head : head + n]))
    return out


def predict(
    model: "TokenClassifierModel | LinearChainCrfModel", corpus: Corpus
) -> list[BioSequence]:
    """One label sequence per document; argmax per token or Viterbi.

    Prediction always uses the full feature bags. Downstream span
    recovery should use the lenient decode, since unconstrained models
    may emit stray continuation labels.
    """
    if isinstance(model, LinearChainCrfModel):
        return crf_viterbi(model, corpus)

    def best(tokens: _Tokens) -> np.ndarray:
        em = _emissions(model.weights, tokens)
        return np.argmax(em, axis=1)  # first max = lowest label id

    return _decode(model, corpus, best)


# ---------------------------------------------------------------------------
# JSON round trip, used by the CLI model files.


# Each architecture's parameter blocks, in ``parameters()`` order.
_PARAMETERS = {
    "crf": ("emission_weights", "transitions", "start", "stop"),
    "baseline": ("weights",),
}


def model_to_dict(
    model: "TokenClassifierModel | LinearChainCrfModel", *, _arrays: bool = False
) -> dict:
    """The model as plain JSON values: what ``json.loads`` gives back for
    the model part of a model file that ``spanmeta train`` writes.

    Labels become a list, the feature ids a new dict and each parameter
    block nested lists of floats; :func:`model_from_dict` rebuilds the
    model from it. With ``_arrays``, for the CLI's model file, the values
    are the model's own labels tuple, feature-id map and parameter arrays,
    uncopied, which ``_jsontext.json_pieces`` writes to the same text a
    row at a time, with no nested-list copy of the weights.
    """
    obj: dict = {
        "arch": model.arch,
        "labels": model.labels,
        "feature_ids": model.feature_index.ids,
    }
    obj.update(zip(_PARAMETERS[model.arch], model.parameters()))
    if isinstance(model, LinearChainCrfModel):
        obj["masked"] = model.masked
    if not _arrays:
        obj["labels"] = list(model.labels)
        obj["feature_ids"] = dict(model.feature_index.ids)
        for key in _PARAMETERS[model.arch]:
            obj[key] = obj[key].tolist()
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
