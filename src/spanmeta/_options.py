"""Choices and defaults the command line offers, free of numerical imports.

Building the parser needs only these names, so ``spanmeta --help`` and
the commands that never fit a meta-model or a labeler load no numpy.
:mod:`spanmeta.meta` and :mod:`spanmeta.seqlab.training` re-export the
same objects.
"""

#: Labeler architectures that :func:`spanmeta.seqlab.train` fits.
ARCHITECTURES = ("baseline", "crf")

ARCH_MAINS = ("feat", "crf", "lstm", "bert")
TASK_MAINS = ("log_freq", "log_length", "span_dist", "boundary_dist")
MAIN_COLUMNS = ARCH_MAINS + TASK_MAINS

_ARCH_TASK_PAIRS = tuple((a, t) for a in ARCH_MAINS for t in TASK_MAINS)
_ARCH_ARCH_PAIRS = (
    ("feat", "crf"),
    ("feat", "lstm"),
    ("feat", "bert"),
    ("crf", "lstm"),
    ("crf", "bert"),
    ("lstm", "bert"),
)
INTERACTION_PAIRS = _ARCH_TASK_PAIRS + _ARCH_ARCH_PAIRS
INTERACTION_COLUMNS = tuple(f"{a}:{b}" for a, b in INTERACTION_PAIRS)

#: Non-intercept columns used by each named predictor set of the meta-model.
PREDICTOR_SETS: dict[str, tuple[str, ...]] = {
    "full": MAIN_COLUMNS + INTERACTION_COLUMNS,
    "no_interactions": MAIN_COLUMNS,
    "arch_only": ARCH_MAINS,
    "task_only": TASK_MAINS,
    "empty": (),
}

#: Padding of the meta-model's logit scale.
DEFAULT_ALPHA = 0.2
