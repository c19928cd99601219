"""Bundled reference study: measurements and results shipped with the package.

A previously reported large-scale evaluation measured 36 span types drawn
from five English span identification datasets and trained twelve labeler
architectures (every meaningful combination of handcrafted features, a
CRF output layer, a BiLSTM encoder, and BERT embeddings) on each one,
five trials per cell. This module ships that study's numbers:

* per-span-type measurements (frequency, geometric mean span length,
  span distinctiveness, boundary distinctiveness),
* the 36 x 12 matrix of trial-averaged exact-match F1 scores,
* the architecture catalog, and
* the dataset-level aggregates, correlation, cross-validation scores,
  and coefficient table that a reproduction run checks itself against.

The two data tables live in committed CSV fixtures guarded by sha256
checksums, so a transcription edit cannot slip through silently. Span
type ids are dataset-qualified ("parc/Cue" and "riqua/Cue" are distinct
types).

:func:`to_observations` flattens the tables into the 432 cells the
meta-model's public functions take. The commands that run on the bundled
study (``meta`` without ``--obs``, and ``reproduce``) skip that step: they
hand the meta-model the private holder that ``meta._grid`` builds from
the tables' columns, which gives the same numbers and builds the
:class:`Observation` objects only if one is asked for. ``meta._grid``
also decides the cells' order, and ``to_observations`` lists that holder.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .meta import ArchitectureFeatures, Observation, _SharedObservations, _grid
from .metrics import DatasetMetrics, SpanTypeProfile

__all__ = [
    "ARCHITECTURES",
    "ARCHITECTURE_NAMES",
    "DATASETS",
    "EmbeddedTables",
    "load_embedded",
    "export_table",
    "to_observations",
    "dataset_of",
    "REFERENCE_DATASET_METRICS",
    "REFERENCE_PREDICTOR_CORRELATION",
    "REFERENCE_CV_SCORES",
    "REFERENCE_COEFFICIENTS",
    "EXPECTED_COEFFICIENT_SIGNS",
]

_PROFILE_FILE = "span_type_profiles.csv"
_F1_FILE = "architecture_f1.csv"
_PROFILE_SHA256 = "85bd83e2f1224e1f70a6aeb9c634a3cb462767faff77dd92ad59d87b77c920e5"
_F1_SHA256 = "d3fa48f2ef5bb5123c569a219350dab9bb44b2f6f2d7cd9f481b8a40a8cd041f"

#: The twelve architectures, in the fixture's column order.
ARCHITECTURES: tuple[tuple[str, ArchitectureFeatures], ...] = (
    ("baseline", ArchitectureFeatures(False, False, False, False)),
    ("feat-baseline", ArchitectureFeatures(True, False, False, False)),
    ("crf", ArchitectureFeatures(False, True, False, False)),
    ("feat-crf", ArchitectureFeatures(True, True, False, False)),
    ("lstm", ArchitectureFeatures(False, False, True, False)),
    ("feat-lstm", ArchitectureFeatures(True, False, True, False)),
    ("lstm-crf", ArchitectureFeatures(False, True, True, False)),
    ("feat-lstm-crf", ArchitectureFeatures(True, True, True, False)),
    ("bert", ArchitectureFeatures(False, False, False, True)),
    ("bert-crf", ArchitectureFeatures(False, True, False, True)),
    ("bert-lstm-crf", ArchitectureFeatures(False, True, True, True)),
    ("bert-feat-lstm-crf", ArchitectureFeatures(True, True, True, True)),
)

ARCHITECTURE_NAMES: tuple[str, ...] = tuple(name for name, _ in ARCHITECTURES)

#: Datasets and their span-type counts.
DATASETS: dict[str, int] = {
    "chemdner": 7,
    "conll00": 7,
    "ontonotes": 18,
    "parc": 2,
    "riqua": 2,
}


def dataset_of(span_type_id: str) -> str:
    """The dataset half of a dataset-qualified span type id."""
    return span_type_id.split("/", 1)[0]


@dataclass(frozen=True)
class EmbeddedTables:
    """The reference study's data, validated and joined."""

    profiles: tuple[SpanTypeProfile, ...]
    f1_matrix: np.ndarray  # (36, 12), rows align with profiles, cols with ARCHITECTURES

    def profile(self, span_type_id: str) -> SpanTypeProfile:
        for p in self.profiles:
            if p.type_id == span_type_id:
                return p
        raise KeyError(span_type_id)

    def f1(self, span_type_id: str, architecture: str) -> float:
        row = [p.type_id for p in self.profiles].index(span_type_id)
        col = ARCHITECTURE_NAMES.index(architecture)
        return float(self.f1_matrix[row, col])


def _read_fixture(name: str, expected_sha256: str) -> str:
    data = resources.files("spanmeta").joinpath(f"data/{name}").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != expected_sha256:
        raise ValueError(
            f"checksum mismatch for bundled table {name}: expected "
            f"{expected_sha256}, got {digest}; the fixture was modified"
        )
    return data.decode("utf-8")


def export_table(table: str) -> str:
    """Checksum-verified raw CSV text of one bundled table."""
    if table == "profiles":
        return _read_fixture(_PROFILE_FILE, _PROFILE_SHA256)
    if table == "f1":
        return _read_fixture(_F1_FILE, _F1_SHA256)
    raise ValueError(f"table must be 'profiles' or 'f1', got {table!r}")


def _fixture_rows(name: str, expected_sha256: str) -> tuple[dict[str, int], list[list[str]]]:
    """A checksummed fixture's column positions by name, and its non-blank rows."""
    header, *rows = csv.reader(io.StringIO(_read_fixture(name, expected_sha256)))
    return {column: i for i, column in enumerate(header)}, [row for row in rows if row]


def load_embedded() -> EmbeddedTables:
    """Load and validate the bundled tables.

    Raises:
        ValueError: if a fixture fails its checksum or the tables do not
            line up (row counts, dataset sizes, value ranges).
    """
    pcol, profile_rows = _fixture_rows(_PROFILE_FILE, _PROFILE_SHA256)
    fcol, f1_rows = _fixture_rows(_F1_FILE, _F1_SHA256)
    if len(profile_rows) != 36 or len(f1_rows) != 36:
        raise ValueError("bundled tables must each have 36 rows")

    profiles = []
    per_dataset = dict.fromkeys(DATASETS, 0)
    for row in profile_rows:
        ds = row[pcol["dataset"]]
        if ds not in DATASETS:
            raise ValueError(f"unknown dataset {ds!r} in profiles table")
        per_dataset[ds] += 1
        profiles.append(
            SpanTypeProfile(
                type_id=f"{ds}/{row[pcol['span_type']]}",
                frequency=int(row[pcol["frequency"]]),
                span_length=float(row[pcol["span_length"]]),
                span_distinctiveness=float(row[pcol["span_distinctiveness"]]),
                boundary_distinctiveness=float(row[pcol["boundary_distinctiveness"]]),
            )
        )
    ids = [p.type_id for p in profiles]
    if len(set(ids)) != 36:
        raise ValueError("span type ids are not unique across datasets")
    for ds, expected in DATASETS.items():
        if per_dataset[ds] != expected:
            raise ValueError(
                f"dataset {ds} has {per_dataset[ds]} span types, expected {expected}"
            )

    arch_cols = [(arch, fcol[arch]) for arch in ARCHITECTURE_NAMES]
    by_id: dict[str, list[float]] = {}
    for row in f1_rows:
        key = f"{row[fcol['dataset']]}/{row[fcol['span_type']]}"
        values = []
        for arch, col in arch_cols:
            v = float(row[col])
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"F1 out of range for {key}/{arch}: {v}")
            values.append(v)
        by_id[key] = values
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ValueError(f"F1 table is missing span types: {missing}")
    matrix = np.array([by_id[i] for i in ids])

    flag_tuples = {a.flags() for _, a in ARCHITECTURES}
    if len(flag_tuples) != 12:
        raise ValueError("architecture catalog contains duplicate flag tuples")
    return EmbeddedTables(tuple(profiles), matrix)


def to_observations(tables: EmbeddedTables) -> list[Observation]:
    """Flatten the tables into the 432 (span type, architecture) cells.

    They come profile-major, each type's twelve architectures in
    :data:`ARCHITECTURES` order, from the holder ``meta._grid`` builds.
    """
    return list(_bundled(tables))


def _bundled(tables: EmbeddedTables) -> _SharedObservations:
    """The meta-model's holder of :func:`to_observations`, built by ``meta._grid``.

    It takes the raw mains, span types and F1 vector from the tables'
    columns; the 432 observations are built only if it is indexed or
    iterated.
    """
    return _grid(tables.profiles, [arch for _, arch in ARCHITECTURES], tables.f1_matrix)


# ---------------------------------------------------------------------------
# Reported results a reproduction run compares itself against.

#: Reported dataset-level frequency-weighted aggregates.
REFERENCE_DATASET_METRICS: dict[str, DatasetMetrics] = {
    "parc": DatasetMetrics(16480, 7.89, 1.34, 1.43),
    "riqua": DatasetMetrics(4026, 9.84, 1.46, 1.57),
    "conll00": DatasetMetrics(37168, 1.55, 1.26, 0.64),
    "chemdner": DatasetMetrics(6110, 1.62, 3.08, 0.96),
    "ontonotes": DatasetMetrics(16861, 1.63, 3.36, 1.00),
}

#: Reported Pearson correlation between standardized log frequency and
#: span distinctiveness across the 36 span types.
REFERENCE_PREDICTOR_CORRELATION = -0.46

#: Reported leave-one-span-type-out scores per predictor set: (MAE, r2).
REFERENCE_CV_SCORES: dict[str, tuple[float, float | None]] = {
    "full": (11.38, 0.73),
    "no_interactions": (14.00, 0.61),
    "arch_only": (18.88, 0.37),
    "task_only": (20.87, 0.22),
    "empty": (23.78, None),
}

#: Reported standardized coefficients: name -> (value, significant at
#: the Bonferroni-corrected threshold).
REFERENCE_COEFFICIENTS: dict[str, tuple[float, bool]] = {
    "feat": (-0.11, False),
    "crf": (0.50, True),
    "lstm": (-0.35, True),
    "bert": (1.00, True),
    "log_freq": (0.40, True),
    "log_length": (-0.49, True),
    "span_dist": (-0.22, True),
    "boundary_dist": (0.16, True),
    "feat:log_freq": (0.05, False),
    "feat:log_length": (-0.04, False),
    "feat:span_dist": (-0.09, False),
    "feat:boundary_dist": (0.09, False),
    "crf:log_freq": (-0.33, True),
    "crf:log_length": (0.19, True),
    "crf:span_dist": (0.34, True),
    "crf:boundary_dist": (-0.30, True),
    "lstm:log_freq": (0.47, True),
    "lstm:log_length": (0.08, True),
    "lstm:span_dist": (-0.09, False),
    "lstm:boundary_dist": (0.22, True),
    "bert:log_freq": (-0.43, True),
    "bert:log_length": (0.13, True),
    "bert:span_dist": (0.04, False),
    "bert:boundary_dist": (-0.05, False),
    "feat:crf": (0.10, True),
    "feat:lstm": (0.05, True),
    "feat:bert": (-0.05, True),
    "crf:lstm": (-0.05, False),
    "crf:bert": (-0.24, True),
    "lstm:bert": (-0.17, True),
}

#: The sign checks a reproduction must reproduce exactly (a subset of the
#: significant coefficients above).
EXPECTED_COEFFICIENT_SIGNS: dict[str, int] = {
    "bert": +1,
    "crf": +1,
    "lstm": -1,
    "log_freq": +1,
    "log_length": -1,
    "boundary_dist": +1,
    "bert:log_freq": -1,
    "lstm:log_freq": +1,
    "crf:span_dist": +1,
    "crf:boundary_dist": -1,
    "crf:bert": -1,
    "lstm:bert": -1,
}
