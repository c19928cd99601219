"""Training loop shared by both labelers.

One protocol for both architectures: Adam on minibatches of whole
documents, indicator dropout re-sampled at every presentation, and early
stopping gated by an exponential moving average of dev micro-F1. After
each epoch the model is checkpointed if its dev F1 is the best so far;
training stops once an epoch's F1 falls below the running average, and
the best checkpoint is returned. Everything downstream of the seed is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from .._options import ARCHITECTURES
from ..corpus import Corpus, Document, bio_decode, bio_encode, bio_labels
from ..evaluation import _sum_counts, count_matches, f1_report
from .features import FeatureIndex
from .models import (
    LinearChainCrfModel,
    TokenClassifierModel,
    baseline_nll_gradient,
    crf_nll_gradient,
    predict,
)

__all__ = ["TrainConfig", "Adam", "EpochRecord", "TrainResult", "train"]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    feature_dropout_prob: float = 0.5
    ema_decay: float = 0.9
    batch_size: int = 8
    max_epochs: int = 50
    seed: int = 0
    mask_invalid_transitions: bool = False
    dev_fraction: float = 0.1

    def __post_init__(self) -> None:
        # chained comparisons, so that NaN fails as well as infinity
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if len(self.betas) != 2 or not all(isinstance(b, Real) for b in self.betas):
            raise ValueError(
                f"adam betas must be exactly two numbers, got {self.betas!r}"
            )
        b1, b2 = self.betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ValueError("adam betas must lie in [0, 1)")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0 <= self.feature_dropout_prob < 1:
            raise ValueError("feature dropout probability must lie in [0, 1)")
        if not 0 < self.ema_decay < 1:
            raise ValueError("ema decay must lie in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max epochs cannot be negative")
        if not 0 < self.dev_fraction < 1:
            raise ValueError("dev fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


#: Elements of an array that ``Adam.step`` updates at a time.
_ADAM_BLOCK = 8192


class Adam:
    """Diagonal Adam with bias correction, updating arrays in place.

    A step walks each array a block of rows at a time, about
    ``_ADAM_BLOCK`` elements, through two scratch buffers of a block's
    size, so it holds no temporary the size of the array. Each element
    goes through the textbook expressions in their order of evaluation,
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p -= (lr*m_hat) / (sqrt(v_hat) + eps)``, so the result is bit for
    bit what whole-array arithmetic gives.
    """

    def __init__(self, params: Sequence[np.ndarray], config: TrainConfig):
        self.params = list(params)
        self.lr = config.learning_rate
        self.b1, self.b2 = config.betas
        self.eps = config.eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        c1 = 1 - self.b1**self.t
        c2 = 1 - self.b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if not p.size:
                continue
            rows = max(1, _ADAM_BLOCK * len(p) // p.size)
            a = np.empty((min(rows, len(p)), *p.shape[1:]), dtype=m.dtype)
            b = np.empty_like(a)
            for lo in range(0, len(p), rows):
                blk = slice(lo, lo + rows)
                pb, gb, mb, vb = p[blk], g[blk], m[blk], v[blk]
                ab, bb = a[: len(pb)], b[: len(pb)]
                mb *= self.b1
                mb += np.multiply(gb, 1 - self.b1, out=ab)
                vb *= self.b2
                np.multiply(gb, 1 - self.b2, out=ab)
                vb += np.multiply(ab, gb, out=ab)
                np.divide(mb, c1, out=ab)  # m_hat
                ab *= self.lr
                np.divide(vb, c2, out=bb)  # v_hat
                np.sqrt(bb, out=bb)
                bb += self.eps
                ab /= bb
                pb -= ab


@dataclass(frozen=True)
class EpochRecord:
    """One training epoch: mean per-document loss and the dev snapshot.

    ``ema`` is the running average after this epoch was folded in; on
    the epoch that triggers early stopping it is the prior average the
    epoch failed to reach.
    """

    epoch: int
    train_loss: float
    dev_f1: float
    ema: float
    checkpointed: bool


@dataclass(frozen=True)
class TrainResult:
    model: "TokenClassifierModel | LinearChainCrfModel"
    log: tuple[EpochRecord, ...]
    stopped_early: bool


def _init_model(
    arch: str, index: FeatureIndex, labels: tuple[str, ...], config: TrainConfig
):
    rows = index.num_features + 1
    n_labels = len(labels)
    if arch == "crf":
        return LinearChainCrfModel(
            index,
            labels,
            np.zeros((rows, n_labels)),
            np.zeros((n_labels, n_labels)),
            np.zeros(n_labels),
            np.zeros(n_labels),
            config.mask_invalid_transitions,
        )
    return TokenClassifierModel(index, labels, np.zeros((rows, n_labels)))


def _dropout(
    encoded: list[list[int]], prob: float, rng: np.random.Generator
) -> list[list[int]]:
    """Drop each indicator of a document with probability ``prob``.

    One draw per indicator, in token order, from a single ``rng.random``
    call: the same stream a call per token would consume.
    """
    if prob == 0.0:
        return encoded
    keep = iter((rng.random(sum(map(len, encoded))) >= prob).tolist())
    return [[i for i in bag if next(keep)] for bag in encoded]


def _dev_f1(model, dev_docs: list[Document], inventory: Sequence[str]) -> float:
    corpus = Corpus(tuple(dev_docs), tuple(inventory), partition="dev")
    counts = _sum_counts(
        count_matches(doc.spans, bio_decode(seq, mode="lenient"))
        for doc, seq in zip(dev_docs, predict(model, corpus))
    )
    return f1_report(counts, types=inventory).micro.f1


class _RefusedCorpus(ValueError):
    """Training data :func:`train` refuses: ``reason``, and ``corpus``, the
    one at fault, ``"train"`` or ``"dev"``. ``str()`` of it is the reason."""

    def __init__(self, reason: str, corpus: str) -> None:
        super().__init__(reason, corpus)
        self.reason, self.corpus = reason, corpus

    def __str__(self) -> str:
        return self.reason


def _diverged(config: TrainConfig, where: str, what: str) -> ValueError:
    return ValueError(
        f"training diverged in {where}: {what} is not finite; "
        f"lower learning_rate (got {config.learning_rate})"
    )


def train(
    arch: str,
    train_corpus: Corpus,
    dev_corpus: Corpus | None = None,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Fit one architecture and return the best dev checkpoint plus a log.

    A dev corpus may use any of the training span types, in any order;
    its F1 is scored over the training inventory. With no dev corpus, a
    fraction of the training documents is held out for the
    early-stopping signal. A dev corpus with no spans raises
    ``ValueError``, as its F1 would be 0 in every epoch; held-out
    documents may have none. Training documents with no tokens are
    skipped. ``max_epochs`` of 0 returns the zero-weight initial model
    with an empty log.

    Every refusal of the training data is a ``ValueError`` whose
    ``corpus`` attribute names the corpus at fault, ``"train"`` or
    ``"dev"``; the training corpus is checked first.

    Training that diverges raises ``ValueError`` naming the epoch and
    ``learning_rate``: a batch whose loss, or an epoch after which a
    weight, is not finite. Numpy's overflow warnings are silenced for the
    batches, so this error is all a caller sees.
    """
    if arch not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {arch!r}")
    config = TrainConfig() if config is None else config
    if len(train_corpus) == 0:
        raise _RefusedCorpus("training corpus is empty", "train")

    rng = np.random.default_rng(config.seed)
    inventory = tuple(train_corpus.span_type_inventory)
    if dev_corpus is not None:
        train_docs = list(train_corpus.documents)
        dev_docs = list(dev_corpus.documents)
    else:
        docs = list(train_corpus.documents)
        if len(docs) < 2:
            raise _RefusedCorpus(
                "need a dev corpus or at least two training documents to hold out from",
                "train",
            )
        n_held = max(1, round(config.dev_fraction * len(docs)))
        n_held = min(n_held, len(docs) - 1)
        held = set(rng.permutation(len(docs))[:n_held].tolist())
        dev_docs = [d for i, d in enumerate(docs) if i in held]
        train_docs = [d for i, d in enumerate(docs) if i not in held]
    # a document with no tokens has nothing to learn from; dropped after the
    # split, so that it does not change which documents are held out
    train_docs = [d for d in train_docs if len(d)]
    if not train_docs:
        raise _RefusedCorpus("no training document has any tokens", "train")
    if dev_corpus is not None:
        unknown = [t for t in dev_corpus.span_type_inventory if t not in inventory]
        if unknown:
            raise _RefusedCorpus(
                "train and dev corpora must share a span-type inventory; "
                f"the training corpus has no {', '.join(map(repr, unknown))}",
                "dev",
            )
        # with no spans, dev F1 is 0 in every epoch: training would run to
        # max_epochs and keep epoch 1's weights
        if not any(d.spans for d in dev_docs):
            raise _RefusedCorpus(
                "no dev document has a span, so dev F1 cannot choose a checkpoint", "dev"
            )

    labels = bio_labels(inventory)
    index = FeatureIndex.fit(train_docs)
    model = _init_model(arch, index, labels, config)
    grad_fn = crf_nll_gradient if arch == "crf" else baseline_nll_gradient
    optimizer = Adam(model.parameters(), config)

    encoded = [index.encode_document(d) for d in train_docs]
    gold = [bio_encode(d, inventory) for d in train_docs]

    best_model = model.clone()
    best_f1 = -np.inf
    ema = 0.0
    log: list[EpochRecord] = []
    stopped = False

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_docs))
        epoch_loss = 0.0
        # weights that run away overflow; the checks below report it as one error
        with np.errstate(all="ignore"):
            for number, lo in enumerate(range(0, len(order), config.batch_size), start=1):
                picks = order[lo : lo + config.batch_size]
                batch = [
                    (_dropout(encoded[i], config.feature_dropout_prob, rng), gold[i])
                    for i in picks
                ]
                loss, grads = grad_fn(model, batch)
                if not math.isfinite(loss):
                    raise _diverged(config, f"epoch {epoch}, batch {number}", "the loss")
                epoch_loss += loss
                for g in grads:
                    g /= len(picks)
                optimizer.step(grads)
        if not all(np.isfinite(p).all() for p in model.parameters()):
            raise _diverged(config, f"epoch {epoch}", "a weight")

        f1 = _dev_f1(model, dev_docs, inventory)
        checkpointed = f1 > best_f1
        if checkpointed:
            best_f1 = f1
            best_model = model.clone()

        if epoch == 1:
            ema = f1
        elif f1 < ema:
            stopped = True
        else:
            ema = config.ema_decay * ema + (1 - config.ema_decay) * f1
        log.append(
            EpochRecord(epoch, epoch_loss / len(train_docs), f1, ema, checkpointed)
        )
        if stopped:
            break

    return TrainResult(best_model, tuple(log), stopped)
