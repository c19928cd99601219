"""End-to-end reproduction run against the embedded study data.

The report gathers four comparisons: dataset-level aggregate metrics,
the frequency vs distinctiveness correlation, cross-validated error of
the meta-model and its ablations, and the refit coefficient table with
sign agreement. Everything is computed offline from the embedded
fixtures; the published numbers it checks against live in
``spanmeta.reference``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jsontext import json_text
from .meta import (
    ARCH_MAINS,
    DEFAULT_ALPHA,
    DEFAULT_ALPHA_GRID,
    CrossValidationResult,
    ablate,
    alpha_mae_curve,
    best_alpha,
    fit_meta_model,
)
from .metrics import DatasetMetrics, dataset_profile
from .reference import (
    EXPECTED_COEFFICIENT_SIGNS,
    REFERENCE_CV_SCORES,
    REFERENCE_DATASET_METRICS,
    REFERENCE_PREDICTOR_CORRELATION,
    _bundled,
    dataset_of,
    load_embedded,
)

__all__ = [
    "DatasetCheck",
    "CorrelationCheck",
    "CvRow",
    "CoefficientRow",
    "ReproductionReport",
    "ReproductionRun",
    "build_reproduction_report",
]

# Comparison bands: frequency to one span, the rest to the table's
# printed precision; correlation to the rounding band of "-0.46".
FREQ_TOL = 1.0
METRIC_TOL = 0.01
CORRELATION_TOL = 0.03
_TABLE1_TOL = DatasetMetrics._make(
    FREQ_TOL if name == "frequency" else METRIC_TOL for name in DatasetMetrics._fields
)


@dataclass(frozen=True)
class DatasetCheck:
    dataset: str
    computed: DatasetMetrics
    reference: DatasetMetrics
    within_tolerance: bool


@dataclass(frozen=True)
class CorrelationCheck:
    computed: float
    reference: float
    within_tolerance: bool


@dataclass(frozen=True)
class CvRow:
    predictor_set: str
    mae: float
    r2: float | None
    reference_mae: float
    reference_r2: float | None


@dataclass(frozen=True)
class CoefficientRow:
    """One fitted coefficient beside what the study reported for it.

    ``expected_sign`` and ``sign_agrees`` are None for columns outside
    the sign-agreement checklist (including the intercept).
    """

    name: str
    coefficient: float
    standard_error: float
    t_statistic: float
    p_value: float
    significant: bool
    expected_sign: int | None
    sign_agrees: bool | None


@dataclass(frozen=True)
class ReproductionReport:
    table1: tuple[DatasetCheck, ...]
    correlation: CorrelationCheck
    cv: tuple[CvRow, ...]
    cv_ordering_holds: bool
    coefficients: tuple[CoefficientRow, ...]
    all_signs_agree: bool
    bert_largest_positive_main: bool
    alpha_grid: tuple[float, ...]
    alpha_mae: tuple[float, ...]
    selected_alpha: float

    @property
    def all_checks_pass(self) -> bool:
        return (
            all(c.within_tolerance for c in self.table1)
            and self.correlation.within_tolerance
            and self.cv_ordering_holds
            and self.all_signs_agree
            and self.bert_largest_positive_main
        )

    def to_json_dict(self) -> dict:
        """The fields, each row a dict of its own fields, plus ``all_checks_pass``.

        Rows are frozen and hold only immutable values, so each dict is a
        shallow copy of the row's ``vars``; ``dataclasses.asdict`` would
        deep-copy every value.
        """
        return {
            **vars(self),
            "table1": [dict(vars(c)) for c in self.table1],
            "correlation": dict(vars(self.correlation)),
            "cv": [dict(vars(r)) for r in self.cv],
            "coefficients": [dict(vars(r)) for r in self.coefficients],
            "all_checks_pass": self.all_checks_pass,
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    def to_text(self) -> str:
        def mark(ok: bool) -> str:
            return "ok" if ok else "MISMATCH"

        lines = ["Reproduction report", "===================", ""]
        lines.append("Dataset aggregates (computed / published)")
        for c in self.table1:
            a, b = c.computed, c.reference
            lines.append(
                f"  {c.dataset:<10} freq {a.frequency:8.1f}/{b.frequency:<8.1f}"
                f" len {a.span_length:5.2f}/{b.span_length:<5.2f}"
                f" SD {a.span_distinctiveness:5.2f}/{b.span_distinctiveness:<5.2f}"
                f" BD {a.boundary_distinctiveness:5.2f}/{b.boundary_distinctiveness:<5.2f}"
                f"  {mark(c.within_tolerance)}"
            )
        lines.append("")
        c = self.correlation
        lines.append(
            "Correlation of standardized log frequency with span distinctiveness: "
            f"{c.computed:+.3f} (published {c.reference:+.2f})  {mark(c.within_tolerance)}"
        )
        lines.append("")
        lines.append("Leave-one-span-type-out CV (computed / published)")
        for r in self.cv:
            r2 = "  n/a" if r.r2 is None else f"{r.r2:5.2f}"
            ref_r2 = "  n/a" if r.reference_r2 is None else f"{r.reference_r2:5.2f}"
            lines.append(
                f"  {r.predictor_set:<16} MAE {r.mae:5.2f}/{r.reference_mae:<5.2f}"
                f" r2 {r2}/{ref_r2}"
            )
        lines.append(f"  strict MAE ordering: {mark(self.cv_ordering_holds)}")
        lines.append("")
        lines.append("Refit coefficients (standardized)")
        for r in self.coefficients:
            star = " *" if r.significant else "  "
            sign = ""
            if r.expected_sign is not None:
                sign = (
                    f"  expected {'+' if r.expected_sign > 0 else '-'}"
                    f" {mark(bool(r.sign_agrees))}"
                )
            lines.append(
                f"  {r.name:<22} {r.coefficient:+7.3f}{star}"
                f" (se {r.standard_error:.3f}, p {r.p_value:.3g}){sign}"
            )
        lines.append(f"  all expected signs reproduced: {mark(self.all_signs_agree)}")
        lines.append(
            "  largest positive model main effect is bert: "
            f"{mark(self.bert_largest_positive_main)}"
        )
        lines.append("")
        curve = ", ".join(
            f"{a:.2f}:{m:.2f}" for a, m in zip(self.alpha_grid, self.alpha_mae)
        )
        lines.append(f"Padding sweep (alpha:MAE)  {curve}")
        lines.append(f"  selected alpha: {self.selected_alpha:.2f}")
        lines.append("")
        lines.append(f"Overall: {mark(self.all_checks_pass)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReproductionRun:
    """A finished reproduction: the report plus the scatter coordinates."""

    report: ReproductionReport
    full_cv: CrossValidationResult


def build_reproduction_report(alpha: float = DEFAULT_ALPHA) -> ReproductionRun:
    """Recompute the study's headline numbers from the embedded tables."""
    tables = load_embedded()
    # one holder, built from the tables' columns, so the ablation, the fit
    # and the sweep share the catalogue and each design, its QR and its folds
    observations = _bundled(tables)

    table1 = []
    for ds, ref in REFERENCE_DATASET_METRICS.items():
        rows = [p for p in tables.profiles if dataset_of(p.type_id) == ds]
        agg = dataset_profile(rows)
        ok = all(abs(a - b) <= tol for a, b, tol in zip(agg, ref, _TABLE1_TOL))
        table1.append(DatasetCheck(ds, agg, ref, ok))

    log_freq = np.log([p.frequency for p in tables.profiles])
    span_dist = np.array([p.span_distinctiveness for p in tables.profiles])
    r = float(np.corrcoef(log_freq, span_dist)[0, 1])
    correlation = CorrelationCheck(
        r,
        REFERENCE_PREDICTOR_CORRELATION,
        abs(r - REFERENCE_PREDICTOR_CORRELATION) <= CORRELATION_TOL,
    )

    cv_results = ablate(observations, alpha)
    cv_rows = tuple(
        CvRow(name, res.mae, res.r2, *REFERENCE_CV_SCORES[name])
        for name, res in cv_results.items()
    )
    maes = [row.mae for row in cv_rows]
    ordering = all(a < b for a, b in zip(maes, maes[1:]))

    model = fit_meta_model(observations, alpha)
    rows = []
    for i, name in enumerate(model.column_names):
        expected = EXPECTED_COEFFICIENT_SIGNS.get(name)
        coef = float(model.coefficients[i])
        rows.append(
            CoefficientRow(
                name=name,
                coefficient=coef,
                standard_error=float(model.standard_errors[i]),
                t_statistic=float(model.t_statistics[i]),
                p_value=float(model.p_values[i]),
                significant=bool(model.significant[i]),
                expected_sign=expected,
                sign_agrees=None if expected is None else (coef > 0) == (expected > 0),
            )
        )
    by_name = {row.name: row.coefficient for row in rows}
    arch_coefs = {a: by_name[a] for a in ARCH_MAINS}
    bert_largest = (
        arch_coefs["bert"] > 0
        and arch_coefs["bert"] == max(arch_coefs.values())
    )

    curve = alpha_mae_curve(observations, DEFAULT_ALPHA_GRID)

    report = ReproductionReport(
        table1=tuple(table1),
        correlation=correlation,
        cv=cv_rows,
        cv_ordering_holds=ordering,
        coefficients=tuple(rows),
        all_signs_agree=all(
            row.sign_agrees for row in rows if row.sign_agrees is not None
        ),
        bert_largest_positive_main=bert_largest,
        alpha_grid=tuple(a for a, _ in curve),
        alpha_mae=tuple(m for _, m in curve),
        selected_alpha=best_alpha(curve),
    )
    return ReproductionRun(report, cv_results["full"])
