"""Performance prediction for span identification tasks.

A linear meta-model maps architecture flags, span-type measurements, and
their pairwise interactions onto the expected exact-match F1 of an
architecture on a span type. Scores are fitted in a padded-logit space,
which keeps scores of exactly 0 or 100 finite, and every predictor
column is standardized to mean zero and unit variance before fitting so
coefficient magnitudes are comparable.

The full design has 31 columns: an intercept, eight standardized main
effects (four architecture flags and the logs of frequency and span
length plus the two distinctiveness scores), sixteen architecture by
measurement interactions, and six architecture by architecture
interactions. Interaction columns are products of the raw mains,
standardized after the product is taken; for the architecture by
architecture terms the raw product is simply the logical AND of the two
flags. Built this way, the refit coefficient table reproduces the
reference study's reported signs and magnitudes (see the ledgered
comparison in the reproduction report).

Generalization is estimated with leave-one-span-type-out cross
validation: each fold holds out every observation of one span type and
scores the least squares prediction from the rest in F1 space. Every
design column is an affine map of a raw predictor beside an intercept,
so a fold's own standardization would predict the same; one QR
``X = QR`` of the full design therefore gives each held-out group ``g``
in closed form as ``y_g - inv(I - Q_g Q_g') e_g`` with ``e = y - QQ'y``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg as sla
from scipy import special

from ._numbers import finite_floats
from .metrics import SpanTypeProfile

__all__ = [
    "ARCH_MAINS",
    "TASK_MAINS",
    "MAIN_COLUMNS",
    "INTERACTION_COLUMNS",
    "FULL_COLUMNS",
    "PREDICTOR_SETS",
    "DEFAULT_ALPHA",
    "DEFAULT_ALPHA_GRID",
    "BONFERRONI_P",
    "ArchitectureFeatures",
    "Observation",
    "DesignMatrix",
    "MetaModel",
    "CrossValidationResult",
    "padded_logit",
    "inverse_padded_logit",
    "build_design_matrix",
    "fit_ols",
    "fit_elastic_net",
    "fit_meta_model",
    "loso_cv",
    "ablate",
    "alpha_mae_curve",
    "best_alpha",
    "select_alpha",
    "predict",
    "meta_model_to_dict",
    "meta_model_from_dict",
    "observations_to_csv",
    "observations_from_csv",
]

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

INTERCEPT = "intercept"
FULL_COLUMNS = (INTERCEPT,) + MAIN_COLUMNS + INTERACTION_COLUMNS

#: Non-intercept columns used by each named predictor set.
PREDICTOR_SETS: dict[str, tuple[str, ...]] = {
    "full": MAIN_COLUMNS + INTERACTION_COLUMNS,
    "no_interactions": MAIN_COLUMNS,
    "arch_only": ARCH_MAINS,
    "task_only": TASK_MAINS,
    "empty": (),
}

DEFAULT_ALPHA = 0.2
DEFAULT_ALPHA_GRID = tuple(round(0.05 * k, 2) for k in range(1, 10))

#: Bonferroni-corrected two-sided significance threshold.
BONFERRONI_P = 0.002


@dataclass(frozen=True)
class ArchitectureFeatures:
    """Which of the four architectural ingredients a labeler uses."""

    has_feat: bool
    has_crf: bool
    has_lstm: bool
    has_bert: bool

    def flags(self) -> tuple[float, float, float, float]:
        return (
            float(self.has_feat),
            float(self.has_crf),
            float(self.has_lstm),
            float(self.has_bert),
        )


@dataclass(frozen=True)
class Observation:
    """One (span type, architecture) cell: predictors plus observed F1."""

    span_type_id: str
    arch: ArchitectureFeatures
    profile: SpanTypeProfile
    f1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f1 <= 100.0:
            raise ValueError(f"F1 must lie in [0, 100], got {self.f1}")


# ---------------------------------------------------------------------------
# Padded logit


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5), got {alpha}")


def padded_logit(f1, alpha: float = DEFAULT_ALPHA):
    """Map F1 in [0, 100] onto an unbounded fitting scale.

    The score is squeezed affinely into [alpha, 1 - alpha] and passed
    through the logit. Strictly increasing in f1; for alpha > 0 the
    endpoints 0 and 100 stay finite. Accepts scalars or arrays.
    """
    _check_alpha(alpha)
    arr = np.asarray(f1, dtype=float)
    if np.any((arr < 0.0) | (arr > 100.0)):
        raise ValueError("F1 scores must lie in [0, 100]")
    squeezed = (1.0 - alpha) * arr / 100.0 + alpha * (100.0 - arr) / 100.0
    out = special.logit(squeezed)
    return float(out) if np.isscalar(f1) else out


def inverse_padded_logit(value, alpha: float = DEFAULT_ALPHA):
    """Invert :func:`padded_logit`, clamping the result into [0, 100].

    The clamp matters for model predictions, which can leave the padded
    band even though every attainable F1 maps inside it.
    """
    _check_alpha(alpha)
    arr = np.asarray(value, dtype=float)
    squeezed = special.expit(arr)
    f1 = 100.0 * (squeezed - alpha) / (1.0 - 2.0 * alpha)
    out = np.clip(f1, 0.0, 100.0)
    return float(out) if np.isscalar(value) else out


# ---------------------------------------------------------------------------
# Design matrix


def raw_predictors(observations: Sequence[Observation]) -> np.ndarray:
    """The eight untransformed mains, one row per observation."""
    rows = []
    for o in observations:
        p = o.profile
        rows.append(
            o.arch.flags()
            + (
                math.log(p.frequency),
                math.log(p.span_length),
                p.span_distinctiveness,
                p.boundary_distinctiveness,
            )
        )
    return np.asarray(rows, dtype=float)


@dataclass(frozen=True)
class DesignMatrix:
    """A standardized predictor matrix plus the state needed to reuse it.

    ``means`` and ``sds`` hold one entry per non-intercept column, in
    column order. They let held-out observations be mapped through
    exactly the transformation fitted on training rows, which is what
    cross validation requires.
    """

    predictor_set: str
    means: np.ndarray
    sds: np.ndarray
    matrix: np.ndarray | None = None

    @property
    def column_names(self) -> tuple[str, ...]:
        return (INTERCEPT, *PREDICTOR_SETS[self.predictor_set])

    def transform(self, observations: Sequence[Observation]) -> np.ndarray:
        """Build rows for new observations with the stored statistics."""
        z = (_raw_columns(observations, self.predictor_set) - self.means) / self.sds
        return np.column_stack([np.ones(len(z)), *z.T])


def _raw_columns(observations: Sequence[Observation], predictor_set: str) -> np.ndarray:
    """Raw values of a predictor set's columns, selected from the catalogue.

    The catalogue is the eight raw mains followed by their pairwise
    products, one column per interaction.
    """
    raw = raw_predictors(observations)
    col = dict(zip(MAIN_COLUMNS, raw.T))
    catalogue = np.column_stack([raw, *(col[a] * col[b] for a, b in INTERACTION_PAIRS)])
    full = PREDICTOR_SETS["full"]
    return catalogue[:, [full.index(name) for name in PREDICTOR_SETS[predictor_set]]]


def build_design_matrix(
    observations: Sequence[Observation], predictor_set: str = "full"
) -> DesignMatrix:
    """Standardize predictors and assemble the design matrix.

    Every non-intercept column of the result has mean 0 and standard
    deviation 1; interaction columns are standardized products of the
    raw mains. A predictor that is constant across the observations
    cannot be standardized and raises, naming the offending column.
    """
    if predictor_set not in PREDICTOR_SETS:
        raise ValueError(
            f"predictor set must be one of {sorted(PREDICTOR_SETS)}, "
            f"got {predictor_set!r}"
        )
    observations = list(observations)
    if len(observations) < 2:
        raise ValueError("need at least two observations")
    raw = _raw_columns(observations, predictor_set)
    sds = raw.std(axis=0)
    for name, sd in zip(PREDICTOR_SETS[predictor_set], sds):
        if sd == 0.0:
            raise ValueError(f"zero-variance predictor column: {name}")
    design = DesignMatrix(predictor_set, raw.mean(axis=0), sds)
    return replace(design, matrix=design.transform(observations))


# ---------------------------------------------------------------------------
# Fitting


@dataclass(frozen=True)
class MetaModel:
    """A fitted linear model over a standardized design.

    Inference fields are populated by :func:`fit_ols`; the elastic net
    leaves them ``None`` because classical standard errors do not apply
    to penalized estimates.
    """

    alpha: float
    design: DesignMatrix
    coefficients: np.ndarray
    standard_errors: np.ndarray | None = None
    t_statistics: np.ndarray | None = None
    p_values: np.ndarray | None = None
    significant: np.ndarray | None = None
    residual_df: int | None = None
    sigma2: float | None = None

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.design.column_names

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.column_names.index(name)])


def _check_xy(design: DesignMatrix, y) -> tuple[np.ndarray, np.ndarray]:
    if design.matrix is None:
        raise ValueError("design matrix has no rows; was it deserialized?")
    X = design.matrix
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
    return X, y


def _factor(design: DesignMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivoted QR ``X[:, piv] = QR``; raises unless X is tall and full rank."""
    X = design.matrix
    n, k = X.shape
    if n <= k:
        raise ValueError(f"need more observations ({n}) than columns ({k})")
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag.max() * max(n, k) * np.finfo(float).eps
    rank = int((diag > tol).sum())
    if rank < k:
        dependent = sorted(design.column_names[j] for j in piv[rank:])
        raise ValueError(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(dependent)
        )
    return Q, R, piv


def fit_ols(design: DesignMatrix, y, alpha: float = DEFAULT_ALPHA) -> MetaModel:
    """Ordinary least squares with classical inference statistics.

    One pivoted QR ``X[:, piv] = QR`` gives the coefficients from
    ``R b = Q'y`` and the standard errors from ``sigma2 * inv(X'X)``,
    which is ``sigma2 * inv(R) inv(R)'`` in pivoted order, with
    ``sigma2 = RSS / (n - k)``; p-values are two-sided t tests on n - k
    degrees of freedom, and the significance flag applies the
    Bonferroni-corrected threshold p < 0.002.

    Raises:
        ValueError: if the design is rank deficient, listing the columns
            that are linearly dependent on earlier ones.
    """
    _check_alpha(alpha)
    X, y = _check_xy(design, y)
    Q, R, piv = _factor(design)
    n, k = X.shape
    beta = np.empty(k)
    beta[piv] = sla.solve_triangular(R, Q.T @ y)
    resid = y - X @ beta
    dof = n - k
    sigma2 = float(resid @ resid) / dof
    r_inv = sla.solve_triangular(R, np.eye(k))
    se = np.empty(k)
    se[piv] = np.sqrt(sigma2 * (r_inv * r_inv).sum(axis=1))
    t = beta / se
    p = 2.0 * special.stdtr(dof, -np.abs(t))
    return MetaModel(
        alpha=alpha,
        design=design,
        coefficients=beta,
        standard_errors=se,
        t_statistics=t,
        p_values=p,
        significant=p < BONFERRONI_P,
        residual_df=dof,
        sigma2=sigma2,
    )


#: Coordinate descent stops once no coefficient moves by more than the
#: tolerance relative to the largest, or after the sweep cap.
_ENET_MAX_SWEEPS = 200_000
_ENET_TOL = 1e-13


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def fit_elastic_net(
    design: DesignMatrix,
    y,
    l1_weight: float,
    l2_weight: float,
    alpha: float = DEFAULT_ALPHA,
) -> MetaModel:
    """Elastic net by cyclic coordinate descent.

    Minimizes ``0.5 * ||y - X b||^2 + 0.5 * l2 * ||b||^2 + l1 * sum_j |b_j|``
    where the l1 sum skips the intercept. The l2 term covers every
    coefficient, so with ``l1_weight = 0`` the solution is exactly ridge
    regression ``inv(X'X + l2 I) X'y``; with both weights zero it matches
    ordinary least squares.
    """
    _check_alpha(alpha)
    if l1_weight < 0.0 or l2_weight < 0.0:
        raise ValueError("penalty weights must be non-negative")
    X, y = _check_xy(design, y)
    n, k = X.shape
    beta = np.zeros(k)
    col_sq = (X * X).sum(axis=0)
    if np.any(col_sq == 0.0):
        raise ValueError("design matrix contains an all-zero column")
    skip_l1 = np.array([name == INTERCEPT for name in design.column_names])
    resid = y.copy()
    for _ in range(_ENET_MAX_SWEEPS):
        max_delta = 0.0
        for j in range(k):
            xj = X[:, j]
            rho = float(xj @ resid) + col_sq[j] * beta[j]
            if l1_weight > 0.0 and not skip_l1[j]:
                rho = _soft_threshold(rho, l1_weight)
            new = rho / (col_sq[j] + l2_weight)
            if new != beta[j]:
                resid += xj * (beta[j] - new)
                max_delta = max(max_delta, abs(new - beta[j]))
                beta[j] = new
        if max_delta <= _ENET_TOL * max(1.0, float(np.abs(beta).max())):
            break
    return MetaModel(alpha=alpha, design=design, coefficients=beta)


def fit_meta_model(
    observations: Sequence[Observation],
    alpha: float = DEFAULT_ALPHA,
    predictor_set: str = "full",
) -> MetaModel:
    """Standardize over all observations and fit by least squares."""
    observations = list(observations)
    design = build_design_matrix(observations, predictor_set)
    y = padded_logit(np.array([o.f1 for o in observations]), alpha)
    return fit_ols(design, y, alpha)


def predict(
    model: MetaModel, arch: ArchitectureFeatures, profile: SpanTypeProfile
) -> float:
    """Predicted F1 for one architecture on one span-type profile."""
    obs = Observation(profile.type_id, arch, profile, f1=0.0)
    x = model.design.transform([obs])
    value = float((x @ model.coefficients)[0])
    return float(inverse_padded_logit(value, model.alpha))


# ---------------------------------------------------------------------------
# Cross validation


@dataclass(frozen=True)
class CrossValidationResult:
    """Pooled held-out predictions plus summary errors, all in F1 space."""

    predictor_set: str
    alpha: float
    predictions: np.ndarray
    actual: np.ndarray
    mae: float
    r2: float | None


def _groups(observations: Sequence[Observation]) -> dict[str, np.ndarray]:
    """Row indices of each span type, in order of first appearance."""
    rows: dict[str, list[int]] = {}
    for i, o in enumerate(observations):
        rows.setdefault(o.span_type_id, []).append(i)
    return {type_id: np.array(idx) for type_id, idx in rows.items()}


def _loso(
    observations: list[Observation], predictor_set: str
) -> Callable[[float], CrossValidationResult]:
    """Leave-one-span-type-out CV of one design, at any padding value.

    The design, its QR and every fold check are built here once, since
    none depends on the padding value; the returned function only maps
    the F1 scores to that value's scale and solves each fold.
    """
    groups = _groups(observations)
    if len(groups) < 2:
        raise ValueError(
            "leave-one-span-type-out needs at least two span types, "
            f"got {len(groups)}"
        )
    actual = np.array([o.f1 for o in observations])
    folds: dict[str, np.ndarray] = {}
    if predictor_set != "empty":
        Q, _, _ = _factor(build_design_matrix(observations, predictor_set))
        n, k = Q.shape
        tol = max(n, k) * np.finfo(float).eps
        for type_id, idx in groups.items():
            fold = f"fold holding out span type {type_id!r}"
            if n - len(idx) <= k:
                raise ValueError(f"{fold}: needs more training rows than columns ({k})")
            h = Q[idx] @ Q[idx].T
            if 1.0 - np.linalg.eigvalsh(h)[-1] <= tol:
                raise ValueError(f"{fold}: training rows are rank deficient")
            folds[type_id] = np.eye(len(idx)) - h

    def cross_validate(alpha: float) -> CrossValidationResult:
        preds = np.empty(len(observations))
        if predictor_set == "empty":
            for idx in groups.values():
                preds[idx] = float(np.mean(np.delete(actual, idx)))
        else:
            y = padded_logit(actual, alpha)
            resid = y - Q @ (Q.T @ y)
            for type_id, idx in groups.items():
                held_out = y[idx] - np.linalg.solve(folds[type_id], resid[idx])
                preds[idx] = inverse_padded_logit(held_out, alpha)
        mae = float(np.mean(np.abs(preds - actual)))
        ss_tot = float(np.sum((actual - actual.mean()) ** 2))
        r2 = None
        if predictor_set != "empty" and ss_tot != 0.0:
            r2 = 1.0 - float(np.sum((preds - actual) ** 2)) / ss_tot
        return CrossValidationResult(
            predictor_set=predictor_set,
            alpha=alpha,
            predictions=preds,
            actual=actual,
            mae=mae,
            r2=r2,
        )

    return cross_validate


def loso_cv(
    observations: Sequence[Observation],
    alpha: float = DEFAULT_ALPHA,
    predictor_set: str = "full",
) -> CrossValidationResult:
    """Leave-one-span-type-out cross validation.

    Each span type's rows ``g`` are held out in turn, predicted by least
    squares on the other types and mapped back to F1; MAE and r2 pool the
    held-out predictions. No fold is refitted: the design columns are
    affine maps of raw predictors beside an intercept, so a fold's own
    standardization would predict the same, and one QR ``X = QR`` of the
    full design gives ``y_g - inv(I - Q_g Q_g') e_g`` with ``e = y - QQ'y``.
    The ``empty`` predictor set predicts the training fold's mean F1 and
    has no defined r2.

    Raises:
        ValueError: naming the held-out span type when its fold has no
            more training rows than columns, or when ``1 - max eig(Q_g Q_g')``,
            zero exactly if the training rows are rank deficient, is
            within ``max(n, k)`` machine epsilons of zero.
    """
    _check_alpha(alpha)
    return _loso(list(observations), predictor_set)(alpha)


def ablate(
    observations: Sequence[Observation], alpha: float = DEFAULT_ALPHA
) -> dict[str, CrossValidationResult]:
    """Cross-validate every named predictor set, strongest first."""
    return {name: loso_cv(observations, alpha, name) for name in PREDICTOR_SETS}


def alpha_mae_curve(
    observations: Sequence[Observation],
    grid: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """Full-model cross-validation MAE at each padding value."""
    grid = DEFAULT_ALPHA_GRID if grid is None else tuple(grid)
    if not grid:
        raise ValueError("alpha grid is empty")
    for a in grid:
        _check_alpha(a)
    cross_validate = _loso(list(observations), "full")
    return [(a, cross_validate(a).mae) for a in grid]


def best_alpha(curve: Sequence[tuple[float, float]]) -> float:
    """Padding value of the smallest MAE on a curve; ties go to the first."""
    return min(curve, key=lambda point: point[1])[0]


def select_alpha(observations: Sequence[Observation]) -> float:
    """Default-grid value minimizing cross-validated MAE; ties go to the first."""
    return best_alpha(alpha_mae_curve(observations))


# ---------------------------------------------------------------------------
# Serialization and observation CSV I/O


def _moment_parts(names: Sequence[str]) -> dict[str, list[str]]:
    """A model file's two standardization maps and the columns in each."""
    return {
        "mains": [name for name in names if name in MAIN_COLUMNS],
        "interactions": [name for name in names if name in INTERACTION_COLUMNS],
    }


def meta_model_to_dict(model: MetaModel) -> dict:
    """JSON-ready representation, including the standardization state."""
    d = model.design

    def named(values: np.ndarray | None) -> dict | None:
        return None if values is None else dict(zip(model.column_names, values.tolist()))

    moments = {
        name: {"mean": m, "sd": s}
        for name, m, s in zip(d.column_names[1:], d.means.tolist(), d.sds.tolist())
    }
    return {
        "alpha": model.alpha,
        "predictor_set": d.predictor_set,
        "columns": list(model.column_names),
        "coefficients": named(model.coefficients),
        "standard_errors": named(model.standard_errors),
        "t_statistics": named(model.t_statistics),
        "p_values": named(model.p_values),
        "significant": named(model.significant),
        "residual_df": model.residual_df,
        "sigma2": model.sigma2,
        "standardization": {
            part: {name: moments[name] for name in names}
            for part, names in _moment_parts(d.column_names[1:]).items()
        },
    }


def _column_map(values, names: Sequence[str], what: str) -> Mapping:
    """``values`` if it is a map holding every one of ``names``."""
    if not isinstance(values, Mapping):
        raise ValueError(f"meta-model {what} must be a map")
    missing = [name for name in names if name not in values]
    if missing:
        raise ValueError(f"meta-model {what} lacks {', '.join(missing)}")
    return values


def meta_model_from_dict(payload: Mapping) -> MetaModel:
    """Rebuild a model saved by :func:`meta_model_to_dict`.

    The design matrix rows are not stored, so the result supports
    prediction but not refitting.

    Raises:
        ValueError: if a required key is missing, if ``columns`` is not
            the intercept, mains and interactions of the predictor set in
            catalogue order, if a per-column map lacks a column, or if
            ``residual_df`` or ``sigma2`` is neither null nor in range.
    """
    required = ("alpha", "predictor_set", "columns", "coefficients", "standardization")
    _column_map(payload, required, "file")
    alpha = payload["alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ValueError(f"meta-model alpha must be a number, got {alpha!r}")
    _check_alpha(alpha)
    predictor_set = payload["predictor_set"]
    if not isinstance(predictor_set, str) or predictor_set not in PREDICTOR_SETS:
        raise ValueError(f"meta-model has unknown predictor set {predictor_set!r}")
    columns = (INTERCEPT, *PREDICTOR_SETS[predictor_set])
    if not isinstance(payload["columns"], list) or tuple(payload["columns"]) != columns:
        raise ValueError(
            f"meta-model columns must be the {predictor_set!r} catalogue: "
            "intercept, then main effects, then interactions"
        )
    std = _column_map(
        payload["standardization"], ("mains", "interactions"), "standardization"
    )
    # key order in the payload is not trustworthy (JSON writers may sort),
    # so the moments are read in the canonical catalogue order
    moments = []
    for (part, names), label in zip(
        _moment_parts(columns[1:]).items(), ("main-effect", "interaction")
    ):
        given = _column_map(std[part], names, f"standardization of {part}")
        unknown = sorted(set(given) - set(names))
        if unknown:
            raise ValueError(f"unknown {label} columns: {', '.join(unknown)}")
        pairs = []
        for name in names:
            entry = _column_map(given[name], ("mean", "sd"), f"moments of {name}")
            pairs.extend((entry["mean"], entry["sd"]))
        what = f"meta-model standardization of {part}"
        moments.append(finite_floats(pairs, what).reshape(-1, 2))
        if np.any(moments[-1][:, 1] <= 0.0):
            raise ValueError(f"{what} needs sd > 0")
    means, sds = np.concatenate(moments).T
    design = DesignMatrix(predictor_set, means, sds)

    def column_values(key: str) -> list | None:
        if key != "coefficients" and payload.get(key) is None:
            return None
        values = _column_map(payload[key], columns, key)
        return [values[name] for name in columns]

    def arr(key: str) -> np.ndarray | None:
        values = column_values(key)
        return None if values is None else finite_floats(values, f"meta-model {key}")

    sig = column_values("significant")
    if sig is not None and not all(isinstance(v, bool) for v in sig):
        raise ValueError("meta-model significant flags must be true or false")
    residual_df = payload.get("residual_df")
    if residual_df is not None and (type(residual_df) is not int or residual_df < 1):
        raise ValueError("meta-model residual_df must be null or a positive integer")
    sigma2 = payload.get("sigma2")
    if sigma2 is not None:
        value = finite_floats(sigma2, "meta-model sigma2")
        if value.ndim or value < 0.0:
            raise ValueError("meta-model sigma2 must be null or a number >= 0")
        sigma2 = float(value)
    return MetaModel(
        alpha=float(alpha),
        design=design,
        coefficients=arr("coefficients"),
        standard_errors=arr("standard_errors"),
        t_statistics=arr("t_statistics"),
        p_values=arr("p_values"),
        significant=None if sig is None else np.array(sig),
        residual_df=residual_df,
        sigma2=sigma2,
    )


_CSV_HEADER = [
    "span_type",
    "feat",
    "crf",
    "lstm",
    "bert",
    "freq",
    "length",
    "sd",
    "bd",
    "f1",
]


def observations_to_csv(observations: Sequence[Observation], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for o in observations:
            p = o.profile
            writer.writerow(
                [
                    o.span_type_id,
                    int(o.arch.has_feat),
                    int(o.arch.has_crf),
                    int(o.arch.has_lstm),
                    int(o.arch.has_bert),
                    p.frequency,
                    repr(p.span_length),
                    repr(p.span_distinctiveness),
                    repr(p.boundary_distinctiveness),
                    repr(o.f1),
                ]
            )


def observations_from_csv(path: str | Path) -> list[Observation]:
    """Read observations from the flat CSV interchange format."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or list(reader.fieldnames) != _CSV_HEADER:
            raise ValueError(
                f"observation CSV must have header {','.join(_CSV_HEADER)}"
            )
        out = []
        for lineno, row in enumerate(reader, start=2):
            try:
                arch = ArchitectureFeatures(
                    bool(int(row["feat"])),
                    bool(int(row["crf"])),
                    bool(int(row["lstm"])),
                    bool(int(row["bert"])),
                )
                profile = SpanTypeProfile(
                    type_id=row["span_type"],
                    frequency=int(row["freq"]),
                    span_length=float(row["length"]),
                    span_distinctiveness=float(row["sd"]),
                    boundary_distinctiveness=float(row["bd"]),
                )
                out.append(
                    Observation(row["span_type"], arch, profile, float(row["f1"]))
                )
            except (TypeError, ValueError, KeyError) as e:
                raise ValueError(f"observation CSV line {lineno}: {e}") from e
    return out
