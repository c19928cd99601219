"""Trainable span labelers: token softmax and linear-chain CRF."""

from . import features, models, training
from .features import *  # noqa: F403
from .models import *  # noqa: F403
from .training import *  # noqa: F403

__all__ = [*features.__all__, *models.__all__, *training.__all__]
