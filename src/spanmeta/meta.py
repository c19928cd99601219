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

A command that fits, cross-validates and sweeps the padding over one set
of observations wraps them once in a private holder, a sequence of the
same observations built from three columns: the eight raw mains, the
span types and the F1 vector. It computes the mains' products and the
span-type groups on first use, and per predictor set the standardized
design, whose QR the design keeps, and the batched fold systems. Every
public function takes the holder through its observation parameter and
wraps a plain sequence in a new one, so nothing outlives the call that
made it.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._jsontext import InputError, csv_text, read_text, write_text
from ._numbers import finite_floats
from ._options import (
    ARCH_MAINS,
    DEFAULT_ALPHA,
    INTERACTION_COLUMNS,
    INTERACTION_PAIRS,
    MAIN_COLUMNS,
    PREDICTOR_SETS,
    TASK_MAINS,
)
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

INTERCEPT = "intercept"
FULL_COLUMNS = (INTERCEPT,) + MAIN_COLUMNS + INTERACTION_COLUMNS

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
    # log(p / (1 - p)) loses precision near p = 1/2, where log1p(s) - log1p(-s)
    # with s = 2p - 1 keeps it; at alpha 0 the endpoints map to -inf and inf
    s = 2.0 * (squeezed - 0.5)
    with np.errstate(divide="ignore"):
        out = np.where(
            (squeezed < 0.3) | (squeezed > 0.65),
            np.log(squeezed / (1.0 - squeezed)),
            np.log1p(s) - np.log1p(-s),
        )
    return float(out) if np.isscalar(f1) else out


def inverse_padded_logit(value, alpha: float = DEFAULT_ALPHA):
    """Invert :func:`padded_logit`, clamping the result into [0, 100].

    The clamp matters for model predictions, which can leave the padded
    band even though every attainable F1 maps inside it.
    """
    _check_alpha(alpha)
    arr = np.asarray(value, dtype=float)
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf for x << 0: squeezed 0
        squeezed = 1.0 / (1.0 + np.exp(-arr))
    f1 = 100.0 * (squeezed - alpha) / (1.0 - 2.0 * alpha)
    out = np.clip(f1, 0.0, 100.0)
    return float(out) if np.isscalar(value) else out


# ---------------------------------------------------------------------------
# Design matrix


def raw_predictors(observations: Sequence[Observation]) -> np.ndarray:
    """The eight untransformed mains, one row per observation.

    Built a column at a time; the logs go through ``math.log``, which
    ``np.log`` is not guaranteed to match bit for bit.
    """
    archs = [o.arch for o in observations]
    profiles = [o.profile for o in observations]
    columns = [
        [a.has_feat for a in archs],
        [a.has_crf for a in archs],
        [a.has_lstm for a in archs],
        [a.has_bert for a in archs],
        list(map(math.log, [p.frequency for p in profiles])),
        list(map(math.log, [p.span_length for p in profiles])),
        [p.span_distinctiveness for p in profiles],
        [p.boundary_distinctiveness for p in profiles],
    ]
    return np.array(columns, dtype=float).T


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
        """Build rows for new observations with the stored statistics.

        Raises:
            ValueError: naming the first raw value whose standardized
                value overflows, which no prediction could use.
        """
        raw = _shared(observations).columns(self.predictor_set)
        with np.errstate(over="ignore", invalid="ignore"):
            z = (raw - self.means) / self.sds
        bad = np.argwhere(~np.isfinite(z))
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"{PREDICTOR_SETS[self.predictor_set][j]} = {raw[i, j]:g} is too far "
                "from the fitted data: its standardized value is not finite"
            )
        return np.column_stack([np.ones(len(z)), *z.T])

    @cached_property
    def _qr(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_factor` of this design, computed on first use and kept."""
        return _factor(self)


def _with_products(raw: np.ndarray) -> np.ndarray:
    """The eight raw mains followed by their products, one per interaction."""
    col = dict(zip(MAIN_COLUMNS, raw.T))
    return np.column_stack([raw, *(col[a] * col[b] for a, b in INTERACTION_PAIRS)])


class _SharedObservations(SequenceABC):
    """One command's observations, as columns, with the work its calls have in common.

    Built from three columns, one entry per observation: the eight raw
    mains, the span type and the F1 score, and from a zero-argument
    callable that returns the observations themselves. The callable runs
    only when the holder is indexed or iterated, and its result is kept;
    nothing else here reads an observation. The catalogue's products and
    the span-type groups are computed on first use, and so, per predictor
    set, are the standardized design and the batched LOSO fold systems;
    each is then kept for the holder's lifetime.

    :func:`_shared` builds one from observations; the commands on the
    bundled study use ``spanmeta.reference._bundled``, which takes the
    columns from the tables and builds no observation.
    """

    def __init__(
        self,
        raw: np.ndarray,
        span_types: Sequence[str],
        f1: np.ndarray,
        observations: Callable[[], Sequence[Observation]],
    ) -> None:
        self._raw = raw
        self._span_types = span_types
        self.f1 = f1
        self._observations = observations
        self._designs: dict[str, DesignMatrix] = {}
        self._folds: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    def __len__(self) -> int:
        return len(self._span_types)

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self):
        return iter(self._items)

    @cached_property
    def _items(self) -> list[Observation]:
        return list(self._observations())

    @cached_property
    def catalogue(self) -> np.ndarray:
        """The eight raw mains followed by their products, one per interaction."""
        return _with_products(self._raw)

    def columns(self, predictor_set: str) -> np.ndarray:
        """Raw values of a predictor set's columns, selected from the catalogue."""
        full = PREDICTOR_SETS["full"]
        return self.catalogue[:, [full.index(name) for name in PREDICTOR_SETS[predictor_set]]]

    @cached_property
    def groups(self) -> dict[str, np.ndarray]:
        """Row indices of each span type, in order of first appearance."""
        rows: dict[str, list[int]] = {}
        for i, type_id in enumerate(self._span_types):
            rows.setdefault(type_id, []).append(i)
        return {type_id: np.array(idx) for type_id, idx in rows.items()}

    def logit(self, alpha: float) -> np.ndarray:
        """The F1 vector on the padded-logit scale of ``alpha``.

        Raises:
            ValueError: naming alpha and the first observation whose logit
                is infinite, which at alpha 0 is any F1 of 0 or 100.
        """
        y = padded_logit(self.f1, alpha)
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            i = bad[0]
            # the first raw mains are the architecture flags, in ARCH_MAINS order
            arch = " ".join(f"{name}={int(on)}" for name, on in zip(ARCH_MAINS, self._raw[i]))
            raise ValueError(
                f"at alpha {alpha:g} the padded logit of span type {self._span_types[i]!r}, "
                f"architecture {arch}, F1 {self.f1[i]:g} is not finite; alpha 0 needs every "
                "F1 strictly between 0 and 100"
            )
        return y

    def design(self, predictor_set: str) -> DesignMatrix:
        """The predictor set's standardized design, built on first use."""
        if predictor_set not in self._designs:
            self._designs[predictor_set] = build_design_matrix(self, predictor_set)
        return self._designs[predictor_set]

    def folds(self, predictor_set: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per fold size, the held-out rows (m, g) and the systems I - Q_g Q_g' (m, g, g).

        Folds of one size, in order of first appearance, are stacked so
        that one batched solve serves them all.

        Raises:
            ValueError: naming the first held-out span type, in order of
                appearance, whose fold cannot be fitted.
        """
        if predictor_set in self._folds:
            return self._folds[predictor_set]
        Q, _ = self.design(predictor_set)._qr
        n, k = Q.shape
        tol = max(n, k) * np.finfo(float).eps
        by_size: dict[int, list[str]] = {}
        for type_id, idx in self.groups.items():
            by_size.setdefault(len(idx), []).append(type_id)
        batches = []
        failures: dict[str, str] = {}
        for size, type_ids in by_size.items():
            rows = np.stack([self.groups[type_id] for type_id in type_ids])
            # one 2-D product per fold: a batched matmul may round differently
            h = np.stack([Q[idx] @ Q[idx].T for idx in rows])
            if n - size <= k:
                failures.update(
                    dict.fromkeys(type_ids, f"needs more training rows than columns ({k})")
                )
            else:
                deficient = 1.0 - np.linalg.eigvalsh(h)[:, -1] <= tol
                for type_id, bad in zip(type_ids, deficient):
                    if bad:
                        failures[type_id] = "training rows are rank deficient"
            batches.append((rows, np.eye(size) - h))
        # the batches run by size, but the error names the first bad fold in order of appearance
        for type_id in self.groups:
            if type_id in failures:
                raise ValueError(
                    f"fold holding out span type {type_id!r}: {failures[type_id]}"
                )
        self._folds[predictor_set] = batches
        return batches


def _shared(observations: Iterable[Observation]) -> _SharedObservations:
    """``observations`` if it is already a holder, else a new one over them."""
    if isinstance(observations, _SharedObservations):
        return observations
    items = list(observations)
    span_types, f1 = [o.span_type_id for o in items], np.array([o.f1 for o in items])
    return _SharedObservations(raw_predictors(items), span_types, f1, lambda: items)


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
    observations = _shared(observations)
    if len(observations) < 2:
        raise ValueError("need at least two observations")
    raw = observations.columns(predictor_set)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        means, sds = raw.mean(axis=0), raw.std(axis=0)
    names = PREDICTOR_SETS[predictor_set]
    for moment, values in (("mean", means), ("standard deviation", sds)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(
                f"predictor column {names[bad[0]]}: its {moment} over the observations "
                "is not finite, so it cannot be standardized"
            )
    for name, sd in zip(names, sds):
        if sd == 0.0:
            raise ValueError(f"zero-variance predictor column: {name}")
    design = DesignMatrix(predictor_set, means, sds)
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


def _factor(design: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR ``X = QR``; raises unless X is tall and full rank.

    Without pivoting, ``|R_jj|`` is the distance of column j from the span
    of the columns before it, so the columns whose ``|R_jj|`` is at most
    ``max(n, k)`` machine epsilons times the largest are the ones linearly
    dependent on earlier ones.
    """
    X = design.matrix
    n, k = X.shape
    if n <= k:
        raise ValueError(f"need more observations ({n}) than columns ({k})")
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    tol = diag.max() * max(n, k) * np.finfo(float).eps
    dependent = [name for name, d in zip(design.column_names, diag) if d <= tol]
    if dependent:
        raise ValueError(
            "design matrix is rank deficient; dependent columns: " + ", ".join(dependent)
        )
    return Q, R


def _log_beta_half(a: float) -> float:
    """``log B(a, 1/2)``.

    ``lgamma(a)`` and ``lgamma(a + 1/2)`` are each about ``a log a``, and
    their rounding errors at that size leave 7e-12 in their difference at
    a = 5000. From a = 20 on, the difference comes instead from Stirling's
    series, whose first omitted term is below 2e-15 there.
    """
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)

    def stirling(z: float) -> float:  # log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2
        w = 1.0 / (z * z)
        return (1 / 12 - (1 / 360 - (1 / 1260 - w / 1680) * w) * w) / z

    return (
        math.lgamma(0.5) + 0.5 - 0.5 * math.log(a) - a * math.log1p(0.5 / a)
        + stirling(a) - stirling(a + 0.5)
    )  # fmt: skip


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b)``, by the modified Lentz method.

    It converges fast for ``x < (a + 1) / (a + b + 2)``. ``tiny`` stands in
    for a denominator that reaches zero.
    """
    tiny, eps = 1e-300, math.ulp(1.0)
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c, h = 1.0, d
    for m in range(1, 10_000):
        a2m = a + 2 * m
        even = m * (b - m) * x / ((a2m - 1.0) * a2m)
        odd = -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))
        for term in (even, odd):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            if abs(c) < tiny:
                c = tiny
            h *= d * c
        if abs(d * c - 1.0) <= eps:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}")


def _t_pvalue(t: float, dof: int) -> float:
    """Two-sided p-value ``P(|T| >= |t|)`` of Student's t on ``dof`` degrees of freedom.

    That is the regularised incomplete beta ``I_x(dof/2, 1/2)`` at
    ``x = dof / (dof + t^2)``. Its continued fraction is summed at ``x``
    or, through ``I_x(a, b) = 1 - I_{1-x}(b, a)``, at ``1 - x =
    t^2 / (dof + t^2)``, whichever converges fast; ``1 - x`` is formed
    directly, so small ``|t|`` keeps its precision. Relative error stays
    below 1e-12 up to 10,000 degrees of freedom.
    """
    t2 = t * t
    if math.isnan(t2):
        return math.nan
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a, b = dof / 2.0, 0.5
    x, y = dof / (dof + t2), t2 / (dof + t2)
    # x^a y^b / B(a, b), with log x as -log1p(t^2 / dof) for x near 1
    front = math.exp(-a * math.log1p(t2 / dof) + b * math.log(y) - _log_beta_half(a))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def fit_ols(design: DesignMatrix, y, alpha: float = DEFAULT_ALPHA) -> MetaModel:
    """Ordinary least squares with classical inference statistics.

    One QR ``X = QR``, the design's own, factored on its first use, gives
    the coefficients from ``R b = Q'y`` and the standard errors from
    ``sigma2 * inv(X'X)``, which is ``sigma2 * inv(R) inv(R)'``, with
    ``sigma2 = RSS / (n - k)``; p-values are two-sided t tests on n - k
    degrees of freedom, and the significance flag applies the
    Bonferroni-corrected threshold p < 0.002.

    Raises:
        ValueError: if the design is rank deficient, listing the columns
            that are linearly dependent on earlier ones.
    """
    _check_alpha(alpha)
    X, y = _check_xy(design, y)
    Q, R = design._qr
    n, k = X.shape
    # R is upper triangular with a nonzero diagonal, so the LU inside solve
    # and inv keeps every row in place and reduces to back substitution
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    dof = n - k
    sigma2 = float(resid @ resid) / dof
    r_inv = np.linalg.inv(R)
    se = np.sqrt(sigma2 * (r_inv * r_inv).sum(axis=1))
    t = beta / se
    p = np.array([_t_pvalue(value, dof) for value in t.tolist()])
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
    """Standardize over all observations and fit by least squares.

    Raises:
        ValueError: if an F1 of 0 or 100 meets alpha 0, whose logit is
            infinite, naming the first such observation.
    """
    observations = _shared(observations)
    design = observations.design(predictor_set)
    return fit_ols(design, observations.logit(alpha), alpha)


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


def _cross_validate(
    observations: _SharedObservations, predictor_set: str, alpha: float
) -> CrossValidationResult:
    """Leave-one-span-type-out CV of one predictor set at one padding value.

    The design, its QR and the fold systems come from the holder, which
    builds them on first use, since none depends on the padding value;
    here the F1 scores are only mapped to that value's scale and the
    folds solved, one batched call per fold size.
    """
    groups = observations.groups
    if len(groups) < 2:
        raise ValueError(
            "leave-one-span-type-out needs at least two span types, "
            f"got {len(groups)}"
        )
    actual = observations.f1
    if predictor_set == "empty":
        preds = np.empty(len(observations))
        for idx in groups.values():
            preds[idx] = float(np.mean(np.delete(actual, idx)))
    else:
        batches = observations.folds(predictor_set)
        Q, _ = observations.design(predictor_set)._qr
        y = observations.logit(alpha)
        resid = y - Q @ (Q.T @ y)
        held_out = np.empty(len(observations))
        for rows, systems in batches:
            held_out[rows] = y[rows] - np.linalg.solve(systems, resid[rows, None])[..., 0]
        preds = inverse_padded_logit(held_out, alpha)
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
    Folds are solved in batches, one per fold size: the systems of every
    fold of one size go to a single batched solve, and all held-out
    values are mapped back to F1 at once. The ``empty`` predictor set
    predicts the training fold's mean F1 and has no defined r2.

    Raises:
        ValueError: naming the first held-out span type, in order of
            appearance, whose fold has no more training rows than columns,
            or whose ``1 - max eig(Q_g Q_g')``, zero exactly if the training
            rows are rank deficient, is within ``max(n, k)`` machine
            epsilons of zero; or if an F1 of 0 or 100 meets alpha 0 in a
            set other than ``empty``.
    """
    _check_alpha(alpha)
    return _cross_validate(_shared(observations), predictor_set, alpha)


def ablate(
    observations: Sequence[Observation], alpha: float = DEFAULT_ALPHA
) -> dict[str, CrossValidationResult]:
    """Cross-validate every named predictor set, strongest first."""
    observations = _shared(observations)
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
    observations = _shared(observations)
    return [(a, _cross_validate(observations, "full", a).mae) for a in grid]


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
    """Write observations in the flat CSV interchange format.

    Raises:
        ValueError: naming ``path`` if a span type has no UTF-8 form, such
            as a lone surrogate; the file is then left as it was.
    """
    rows = [
        [
            o.span_type_id,
            int(o.arch.has_feat),
            int(o.arch.has_crf),
            int(o.arch.has_lstm),
            int(o.arch.has_bert),
            o.profile.frequency,
            repr(o.profile.span_length),
            repr(o.profile.span_distinctiveness),
            repr(o.profile.boundary_distinctiveness),
            repr(o.f1),
        ]
        for o in observations
    ]
    write_text(path, csv_text(_CSV_HEADER, rows))


def _csv_flag(row: dict, column: str) -> bool:
    value = row[column]
    if value not in ("0", "1"):
        raise ValueError(f"{column} must be 0 or 1, got {value!r}")
    return value == "1"


def observations_from_csv(path: str | Path) -> list[Observation]:
    """Read observations from the flat CSV interchange format.

    Raises:
        InputError: naming ``path`` and the line at fault, on bytes that
            are not UTF-8, a header other than the format's (line 1), or a
            malformed row.
    """
    # newline="": the csv module reads line ends, quoted ones included
    reader = csv.DictReader(io.StringIO(read_text(path, newline=""), newline=""))
    if reader.fieldnames is None or list(reader.fieldnames) != _CSV_HEADER:
        raise InputError(path, f"observation CSV must have header {','.join(_CSV_HEADER)}", 1)
    out = []
    for row in reader:
        try:
            if None in row:  # DictReader's key for fields past the header
                raise ValueError(f"{len(row[None])} more field(s) than the header")
            missing = sum(value is None for value in row.values())  # DictReader's fill
            if missing:
                raise ValueError(f"{missing} fewer field(s) than the header")
            if not row["span_type"]:  # "" would pass as one more span type
                raise ValueError("span type must be a non-empty string")
            arch = ArchitectureFeatures(
                _csv_flag(row, "feat"),
                _csv_flag(row, "crf"),
                _csv_flag(row, "lstm"),
                _csv_flag(row, "bert"),
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
            # physical lines: a quoted field may hold a line break
            raise InputError(path, str(e), reader.line_num) from e
    return out
