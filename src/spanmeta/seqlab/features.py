"""Sparse indicator features for the trainable labelers.

Each token contributes one indicator for its surface form plus one per
named feature in its bag. A ``FeatureIndex`` interns indicator names as
dense integer ids; it is fitted once on training data and frozen, and
anything unseen afterwards falls into a single shared UNK slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping

from ..corpus import Document, Token

__all__ = ["FeatureIndex", "token_feature_names"]

_SURFACE = "surface="
_BAG = "bag="


def token_feature_names(token: Token) -> list[str]:
    """Indicator names for one token: its surface plus its feature bag."""
    return [_SURFACE + token.surface] + sorted(_BAG + f for f in token.features)


@dataclass(frozen=True)
class FeatureIndex:
    """Injective map from indicator name to dense id, frozen after fitting.

    ``encode_document`` caches the encoded bag of each distinct token and
    hands out the cached list every time that token recurs, so the bags it
    returns are shared and must not be mutated.
    """

    ids: Mapping[str, int] = field(default_factory=dict)
    _bags: dict[Token, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", dict(self.ids))
        ids = list(self.ids.values())
        if any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(ids))):
            raise ValueError("feature ids must be exactly the integers 0..len-1")

    @property
    def unk_id(self) -> int:
        return len(self.ids)

    @property
    def num_features(self) -> int:
        """Weight rows a model needs for features: seen ids plus UNK."""
        return len(self.ids) + 1

    @classmethod
    def fit(cls, documents: Iterable[Document]) -> "FeatureIndex":
        """Assign ids in first-appearance order over the given documents.

        A repeated token names nothing new, so only the first appearance of
        each distinct token is walked.
        """
        ids: dict[str, int] = {}
        for token in dict.fromkeys(chain.from_iterable(doc.tokens for doc in documents)):
            for name in token_feature_names(token):
                if name not in ids:
                    ids[name] = len(ids)
        return cls(ids)

    def encode(self, token: Token) -> list[int]:
        unk = self.unk_id
        return [self.ids.get(name, unk) for name in token_feature_names(token)]

    def encode_document(self, doc: Document) -> list[list[int]]:
        bags = self._bags  # no bag is empty: each holds its surface indicator
        return [bags.get(t) or bags.setdefault(t, self.encode(t)) for t in doc.tokens]
