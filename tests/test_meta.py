"""Performance meta-model: transform identities, OLS against a
high-precision oracle, penalized fits against closed forms, and the
cross-validation protocol."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy import special

import spanmeta.meta as meta_module
from spanmeta import (
    ArchitectureFeatures,
    Observation,
    SpanTypeProfile,
    build_design_matrix,
    fit_elastic_net,
    fit_meta_model,
    fit_ols,
    inverse_padded_logit,
    load_embedded,
    loso_cv,
    padded_logit,
    select_alpha,
    to_observations,
)
from spanmeta.cli import main
from spanmeta.meta import (
    ARCH_MAINS,
    DEFAULT_ALPHA,
    DEFAULT_ALPHA_GRID,
    FULL_COLUMNS,
    INTERACTION_COLUMNS,
    MAIN_COLUMNS,
    PREDICTOR_SETS,
    _factor,
    _shared,
    _t_pvalue,
    ablate,
    alpha_mae_curve,
    meta_model_from_dict,
    meta_model_to_dict,
    observations_from_csv,
    observations_to_csv,
    predict,
    raw_predictors,
)
from spanmeta.reference import ARCHITECTURES, EmbeddedTables, _bundled
from spanmeta.report import build_reproduction_report

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# Synthetic observations

ARCH_COMBOS = (
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
    (1, 1, 1, 1),
)


def synth_observations(rng, n_types=6):
    out = []
    for i in range(n_types):
        profile = SpanTypeProfile(
            type_id=f"s{i}",
            frequency=int(rng.integers(2, 3000)),
            span_length=1.0 + float(rng.uniform(0.0, 4.0)),
            span_distinctiveness=float(rng.uniform(0.0, 3.0)),
            boundary_distinctiveness=float(rng.uniform(0.0, 2.0)),
        )
        for combo in ARCH_COMBOS:
            out.append(
                Observation(
                    profile.type_id,
                    ArchitectureFeatures(*map(bool, combo)),
                    profile,
                    float(rng.uniform(1.0, 99.0)),
                )
            )
    return out


class TestPaddedLogit:
    def test_exact_endpoint_values(self):
        assert padded_logit(100.0, 0.2) == pytest.approx(math.log(4), abs=1e-12)
        assert padded_logit(0.0, 0.2) == pytest.approx(-math.log(4), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.45])
    def test_midpoint_is_zero_for_any_alpha(self, alpha):
        assert padded_logit(50.0, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_across_the_scale(self):
        f1 = np.linspace(0.0, 100.0, 201)
        for alpha in (0.05, 0.2, 0.45):
            back = inverse_padded_logit(padded_logit(f1, alpha), alpha)
            assert np.max(np.abs(back - f1)) < 1e-9

    def test_strictly_increasing(self):
        f1 = np.linspace(0.0, 100.0, 300)
        out = padded_logit(f1, 0.2)
        assert np.all(np.diff(out) > 0)

    def test_inverse_clamps_extremes(self):
        assert inverse_padded_logit(1e6, 0.2) == 100.0
        assert inverse_padded_logit(-1e6, 0.2) == 0.0

    def test_alpha_zero_hits_infinities(self):
        assert padded_logit(100.0, 0.0) == math.inf
        assert padded_logit(0.0, 0.0) == -math.inf
        assert padded_logit(50.0, 0.0) == 0.0

    def test_scalar_in_scalar_out(self):
        assert isinstance(padded_logit(30.0), float)
        assert isinstance(inverse_padded_logit(0.3), float)

    @pytest.mark.parametrize("alpha", [-0.01, 0.5, 1.0])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            padded_logit(50.0, alpha)
        with pytest.raises(ValueError, match="alpha"):
            inverse_padded_logit(0.0, alpha)

    def test_f1_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            padded_logit(100.5)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            padded_logit(-0.1)

    def test_matches_scipy_logit_and_expit_without_warnings(self):
        # at alpha 0 the padding is the identity: logit(f1 / 100) and 100 expit(x);
        # 0.3 and 0.65 are the ends of the band where the logit changes formula
        f1 = np.array([0.0, 30.0, 50.0, 65.0, 100.0])
        x = np.array([-1e6, -40.0, -0.3, 0.0, 0.3, 40.0, 1e6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logit = padded_logit(f1, 0.0)
            expit = inverse_padded_logit(x, 0.0)
            logit_each = [padded_logit(v, 0.0) for v in f1.tolist()]
        np.testing.assert_allclose(logit, special.logit(f1 / 100.0), rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(logit_each, logit)
        np.testing.assert_allclose(expit, 100.0 * special.expit(x), rtol=1e-15, atol=0.0)
        assert (expit[0], expit[-1]) == (0.0, 100.0)


class TestObservation:
    def test_f1_range_enforced(self):
        profile = SpanTypeProfile("t", 1, 1.0, 0.0, 0.0)
        arch = ArchitectureFeatures(False, False, False, False)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            Observation("t", arch, profile, 101.0)

    def test_flags_order(self):
        arch = ArchitectureFeatures(True, False, True, False)
        assert arch.flags() == (1.0, 0.0, 1.0, 0.0)

    def test_raw_predictors_row(self):
        profile = SpanTypeProfile("t", 100, 2.5, 0.7, 0.3)
        obs = Observation(
            "t", ArchitectureFeatures(False, True, False, True), profile, 50.0
        )
        row = raw_predictors([obs])[0]
        assert row.tolist() == pytest.approx(
            [0.0, 1.0, 0.0, 1.0, math.log(100), math.log(2.5), 0.7, 0.3]
        )


class TestDesignMatrix:
    def test_full_shape_and_names_on_embedded_observations(self):
        obs = to_observations(load_embedded())
        design = build_design_matrix(obs, "full")
        assert design.matrix.shape == (432, 31)
        assert design.column_names == FULL_COLUMNS
        assert len(FULL_COLUMNS) == 1 + 8 + 22
        assert design.column_names[0] == "intercept"

    def test_columns_standardized(self):
        obs = synth_observations(np.random.default_rng(0))
        design = build_design_matrix(obs, "full")
        X = design.matrix
        assert np.allclose(X[:, 0], 1.0)
        assert np.max(np.abs(X[:, 1:].mean(axis=0))) < 1e-10
        assert np.max(np.abs(X[:, 1:].std(axis=0) - 1.0)) < 1e-10

    @pytest.mark.parametrize(
        "name,count",
        [("full", 31), ("no_interactions", 9), ("arch_only", 5), ("task_only", 5), ("empty", 1)],
    )
    def test_predictor_set_column_counts(self, name, count):
        obs = synth_observations(np.random.default_rng(1))
        design = build_design_matrix(obs, name)
        assert design.matrix.shape == (len(obs), count)
        assert len(design.column_names) == count

    def test_arch_only_and_task_only_pick_the_right_mains(self):
        obs = synth_observations(np.random.default_rng(2))
        assert build_design_matrix(obs, "arch_only").column_names == (
            "intercept", "feat", "crf", "lstm", "bert",
        )
        assert build_design_matrix(obs, "task_only").column_names == (
            "intercept", "log_freq", "log_length", "span_dist", "boundary_dist",
        )

    def test_interaction_catalog(self):
        assert len(INTERACTION_COLUMNS) == 22
        assert INTERACTION_COLUMNS[0] == "feat:log_freq"
        # four arch mains against four task mains, then arch pairs
        arch_task = [f"{a}:{t}" for a in ARCH_MAINS for t in MAIN_COLUMNS[4:]]
        assert list(INTERACTION_COLUMNS[:16]) == arch_task
        assert "feat:crf" in INTERACTION_COLUMNS
        assert "lstm:bert" in INTERACTION_COLUMNS

    def test_transform_reproduces_training_matrix(self):
        obs = synth_observations(np.random.default_rng(3))
        design = build_design_matrix(obs, "full")
        again = design.transform(obs)
        assert np.max(np.abs(again - design.matrix)) < 1e-12

    def test_zero_variance_column_named(self):
        rng = np.random.default_rng(4)
        obs = [
            o
            for o in synth_observations(rng, n_types=3)
            if not o.arch.has_feat
        ]
        with pytest.raises(ValueError, match="zero-variance predictor column: feat"):
            build_design_matrix(obs, "full")

    def test_log_base_invariance_of_standardized_mains(self):
        # z-scores of ln(freq) equal z-scores of log2(freq): the base
        # change is an overall scale that standardization divides away
        obs = synth_observations(np.random.default_rng(5))
        design = build_design_matrix(obs, "no_interactions")
        j = design.column_names.index("log_freq")
        log2_freq = np.array([math.log2(o.profile.frequency) for o in obs])
        z = (log2_freq - log2_freq.mean()) / log2_freq.std()
        assert np.max(np.abs(design.matrix[:, j] - z)) < 1e-10

    def test_too_few_observations_rejected(self):
        obs = synth_observations(np.random.default_rng(6))[:1]
        with pytest.raises(ValueError, match="at least two"):
            build_design_matrix(obs)

    def test_unknown_predictor_set_rejected(self):
        obs = synth_observations(np.random.default_rng(7))
        with pytest.raises(ValueError, match="predictor set"):
            build_design_matrix(obs, "everything")


class TestOls:
    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(8)
        obs = synth_observations(rng)
        design = build_design_matrix(obs, "no_interactions")
        beta_true = rng.standard_normal(9)
        y = design.matrix @ beta_true
        model = fit_ols(design, y)
        assert np.max(np.abs(model.coefficients - beta_true)) < 1e-8

    def test_matches_mpmath_normal_equations(self):
        rng = np.random.default_rng(9)
        obs = synth_observations(rng)
        design = build_design_matrix(obs, "no_interactions")
        y = rng.standard_normal(len(obs)) + design.matrix @ rng.standard_normal(9)
        model = fit_ols(design, y)

        X = mpmath.matrix(design.matrix.tolist())
        ym = mpmath.matrix(y.tolist())
        xtx = X.T * X
        beta = mpmath.lu_solve(xtx, X.T * ym)
        resid = ym - X * beta
        n, k = design.matrix.shape
        rss = sum(resid[i] ** 2 for i in range(n))
        sigma2 = rss / (n - k)
        inv = xtx**-1
        dof = n - k
        for j in range(k):
            se = mpmath.sqrt(sigma2 * inv[j, j])
            t = beta[j] / se
            x = dof / (dof + t**2)
            p = mpmath.betainc(dof / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)
            assert abs(model.coefficients[j] - float(beta[j])) < 1e-8
            assert abs(model.standard_errors[j] - float(se)) / float(se) < 1e-8
            assert abs(model.t_statistics[j] - float(t)) / max(1.0, abs(float(t))) < 1e-8
            if float(p) > 1e-12:
                assert abs(model.p_values[j] - float(p)) / float(p) < 1e-8
            else:
                assert model.p_values[j] < 1e-10
        assert model.residual_df == dof
        assert model.sigma2 == pytest.approx(float(sigma2), rel=1e-10)
        assert np.array_equal(model.significant, model.p_values < 0.002)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(10)
        obs = synth_observations(rng)
        design = build_design_matrix(obs, "full")
        y = rng.standard_normal(len(obs))
        model = fit_ols(design, y)
        resid = y - design.matrix @ model.coefficients
        assert np.max(np.abs(design.matrix.T @ resid)) < 1e-8

    def test_rank_deficiency_names_dependent_columns(self):
        obs = synth_observations(np.random.default_rng(11))
        design = build_design_matrix(obs, "no_interactions")
        X = design.matrix.copy()
        names = design.column_names
        X[:, names.index("lstm")] = X[:, names.index("crf")]
        with pytest.raises(ValueError, match="rank deficient") as err:
            fit_ols(dataclasses.replace(design, matrix=X), np.zeros(len(obs)))
        assert str(err.value).split(": ")[-1] in ("crf", "lstm")

    @pytest.mark.parametrize(
        "later, sources", [("bert", ("crf",)), ("boundary_dist", ("log_freq", "span_dist"))]
    )
    def test_rank_deficiency_names_only_the_later_column(self, later, sources):
        # a copy of one earlier column, or the sum of two: only the later column
        # is linearly dependent on earlier ones
        obs = synth_observations(np.random.default_rng(11))
        design = build_design_matrix(obs, "no_interactions")
        X = design.matrix.copy()
        names = design.column_names
        X[:, names.index(later)] = sum(X[:, names.index(name)] for name in sources)
        with pytest.raises(ValueError) as err:
            fit_ols(dataclasses.replace(design, matrix=X), np.zeros(len(obs)))
        assert str(err.value) == f"design matrix is rank deficient; dependent columns: {later}"

    def test_needs_more_rows_than_columns(self):
        obs = synth_observations(np.random.default_rng(12))
        # eight rows spread over types and architectures so every main
        # varies, but still fewer rows than the nine columns
        picks = [obs[t * 12 + c] for t, c in
                 [(0, 11), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (0, 5), (1, 6)]]
        design = build_design_matrix(picks, "no_interactions")
        with pytest.raises(ValueError, match="more observations"):
            fit_ols(design, np.zeros(8))

    def test_y_shape_checked(self):
        obs = synth_observations(np.random.default_rng(13))
        design = build_design_matrix(obs, "empty")
        with pytest.raises(ValueError, match="shape"):
            fit_ols(design, np.zeros(3))


T_DOF = (1, 2, 3, 10, 30, 401, 10_000)
T_ABS = (0.0, 1e-8, 0.3, 1.96, 3.3, 10.0, 40.0)
# scipy's stdtr forms dof / (dof + t^2), which rounds to 1 at this point and leaves
# it 3.1e-9 away from the 50-digit value, so here mpmath is the oracle
STDTR_IMPRECISE = {(1, 1e-8)}


def _betainc_pvalue(t, dof):
    """Two-sided t p-value ``I_x(dof/2, 1/2)``, ``x = dof / (dof + t^2)``, in mpmath."""
    x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
    return float(mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


class TestTPValue:
    @pytest.mark.parametrize("dof", T_DOF)
    @pytest.mark.parametrize("t", T_ABS)
    def test_matches_scipy_stdtr(self, dof, t):
        if (dof, t) in STDTR_IMPRECISE:
            expected = _betainc_pvalue(t, dof)
        else:
            expected = 2.0 * float(special.stdtr(dof, -t))
        for value in (t, -t):
            got = _t_pvalue(value, dof)
            if expected < 1e-300:  # underflowed: 10,000 degrees of freedom at t = 40
                assert abs(got - expected) <= 1e-300
            else:
                assert abs(got - expected) <= 1e-11 * expected

    @pytest.mark.parametrize(
        "dof, t", [(1, 1e-8), (2, 1e-8), (30, 1e-8), (1, 1e4), (3, 40.0), (401, 40.0),
                   (10_000, 10.0)],
    )  # fmt: skip
    def test_extremes_match_mpmath(self, dof, t):
        expected = _betainc_pvalue(t, dof)
        assert abs(_t_pvalue(t, dof) - expected) <= 1e-12 * expected

    def test_non_finite_and_huge_t(self):
        assert _t_pvalue(math.inf, 5) == _t_pvalue(-math.inf, 5) == 0.0
        assert _t_pvalue(1e200, 5) == 0.0  # t^2 overflows
        assert math.isnan(_t_pvalue(math.nan, 5))


class TestElasticNet:
    def _design_y(self, seed, predictor_set="no_interactions"):
        rng = np.random.default_rng(seed)
        obs = synth_observations(rng)
        design = build_design_matrix(obs, predictor_set)
        y = padded_logit(np.array([o.f1 for o in obs]))
        return design, y

    def test_unpenalized_matches_ols(self):
        design, y = self._design_y(14)
        enet = fit_elastic_net(design, y, l1_weight=0.0, l2_weight=0.0)
        ols = fit_ols(design, y)
        assert np.max(np.abs(enet.coefficients - ols.coefficients)) < 1e-6
        assert enet.standard_errors is None
        assert enet.p_values is None

    def test_pure_l2_matches_ridge_closed_form(self):
        design, y = self._design_y(15)
        lam = 3.7
        enet = fit_elastic_net(design, y, l1_weight=0.0, l2_weight=lam)
        X = design.matrix
        closed = np.linalg.solve(X.T @ X + lam * np.eye(X.shape[1]), X.T @ y)
        assert np.max(np.abs(enet.coefficients - closed)) < 1e-8

    def test_huge_l1_zeroes_everything_but_the_intercept(self):
        design, y = self._design_y(16)
        enet = fit_elastic_net(design, y, l1_weight=1e9, l2_weight=0.0)
        assert np.allclose(enet.coefficients[1:], 0.0)
        assert enet.coefficients[0] == pytest.approx(float(np.mean(y)), rel=1e-10)

    def test_l1_shrinks_toward_sparsity(self):
        design, y = self._design_y(17)
        dense = fit_elastic_net(design, y, l1_weight=0.0, l2_weight=0.0)
        sparse = fit_elastic_net(design, y, l1_weight=50.0, l2_weight=0.0)
        n_dense = int(np.sum(np.abs(dense.coefficients[1:]) > 1e-10))
        n_sparse = int(np.sum(np.abs(sparse.coefficients[1:]) > 1e-10))
        assert n_sparse < n_dense

    def test_negative_penalties_rejected(self):
        design, y = self._design_y(18)
        with pytest.raises(ValueError, match="non-negative"):
            fit_elastic_net(design, y, l1_weight=-1.0, l2_weight=0.0)


class TestFitAndPredict:
    def test_fit_meta_model_round_trips_training_scale(self):
        obs = synth_observations(np.random.default_rng(19))
        model = fit_meta_model(obs)
        # in-sample predictions are ordinary fitted values mapped back
        fitted = inverse_padded_logit(
            model.design.matrix @ model.coefficients, model.alpha
        )
        for o, f in zip(obs, fitted):
            assert predict(model, o.arch, o.profile) == pytest.approx(f, abs=1e-9)

    def test_prediction_invariant_to_frequency_rescaling(self):
        # multiplying every frequency by 10 shifts log_freq by a constant;
        # the spanned column space is unchanged, so fitted values agree
        obs = synth_observations(np.random.default_rng(20))
        scaled = [
            dataclasses.replace(
                o,
                profile=dataclasses.replace(
                    o.profile, frequency=o.profile.frequency * 10
                ),
            )
            for o in obs
        ]
        a = fit_meta_model(obs)
        b = fit_meta_model(scaled)
        fitted_a = inverse_padded_logit(a.design.matrix @ a.coefficients, a.alpha)
        fitted_b = inverse_padded_logit(b.design.matrix @ b.coefficients, b.alpha)
        assert np.max(np.abs(fitted_a - fitted_b)) < 1e-6

    @pytest.mark.parametrize("predictor_set", list(PREDICTOR_SETS))
    def test_serialization_round_trip_predicts_identically(self, predictor_set):
        obs = synth_observations(np.random.default_rng(21))
        model = fit_meta_model(obs, predictor_set=predictor_set)
        payload = json.loads(json.dumps(meta_model_to_dict(model)))
        std = payload["standardization"]
        assert set(std["mains"]) <= set(MAIN_COLUMNS)
        assert set(std["interactions"]) <= set(INTERACTION_COLUMNS)
        names = PREDICTOR_SETS[predictor_set]
        assert [*std["mains"], *std["interactions"]] == list(names)
        back = meta_model_from_dict(payload)
        assert back.column_names == model.column_names == ("intercept", *names)
        assert back.alpha == model.alpha
        assert back.residual_df == model.residual_df
        assert np.array_equal(back.design.means, model.design.means)
        assert np.array_equal(back.design.sds, model.design.sds)
        for o in obs[:10]:
            assert predict(back, o.arch, o.profile) == predict(model, o.arch, o.profile)

    def test_round_trip_survives_sorted_json_keys(self):
        # writers are free to reorder object keys, so the standardization
        # moments must be re-paired by column name, not by key position
        obs = synth_observations(np.random.default_rng(23))
        model = fit_meta_model(obs)
        payload = json.loads(json.dumps(meta_model_to_dict(model), sort_keys=True))
        back = meta_model_from_dict(payload)
        for o in obs[:10]:
            assert predict(back, o.arch, o.profile) == pytest.approx(
                predict(model, o.arch, o.profile), abs=1e-12
            )

    def test_fit_statistics_may_be_null_or_zero(self):
        obs = synth_observations(np.random.default_rng(23))
        payload = json.loads(json.dumps(meta_model_to_dict(fit_meta_model(obs))))
        for df, sigma2 in ((None, None), (1, 0), (7, 0.25)):
            back = meta_model_from_dict({**payload, "residual_df": df, "sigma2": sigma2})
            assert (back.residual_df, back.sigma2) == (df, sigma2)

    def test_unknown_standardization_column_is_rejected(self):
        obs = synth_observations(np.random.default_rng(23))
        payload = meta_model_to_dict(fit_meta_model(obs))
        payload["standardization"]["mains"]["bogus"] = {"mean": 0.0, "sd": 1.0}
        with pytest.raises(ValueError, match="unknown main-effect columns: bogus"):
            meta_model_from_dict(payload)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda d: d.pop("columns"), "lacks columns"),
            (lambda d: d["columns"].reverse(), "catalogue"),
            (lambda d: d.update(predictor_set="arch_only"), "catalogue"),
            (lambda d: d["coefficients"].pop("bert"), "coefficients lacks bert"),
            (lambda d: d["p_values"].pop("intercept"), "p_values lacks intercept"),
            (lambda d: d["standardization"]["mains"].pop("crf"), "lacks crf"),
            (lambda d: d["standardization"]["mains"]["crf"].pop("sd"), "lacks sd"),
            (lambda d: d["coefficients"].update(bert="big"), "must be finite numbers"),
            (lambda d: d["coefficients"].update(bert=None), "must be finite numbers"),
            (lambda d: d["coefficients"].update(bert="1.5"), "must be finite numbers"),
            (lambda d: d["coefficients"].update(bert=True), "must be finite numbers"),
            (
                lambda d: d["standardization"]["mains"]["crf"].update(mean="0.5"),
                "must be finite numbers",
            ),
            (
                lambda d: d["standardization"]["mains"]["crf"].update(sd=False),
                "must be finite numbers",
            ),
            (lambda d: d["p_values"].update(bert="0.01"), "must be finite numbers"),
            (lambda d: d["significant"].update(bert=1), "true or false"),
            (
                lambda d: d["standardization"]["mains"]["crf"].update(sd=0.0),
                "sd > 0",
            ),
            (lambda d: d.update(alpha=None), "alpha must be a number"),
            (lambda d: d.update(residual_df=-3.5), "residual_df must be"),
            (lambda d: d.update(residual_df=0), "residual_df must be"),
            (lambda d: d.update(residual_df=12.0), "residual_df must be"),
            (lambda d: d.update(residual_df="12"), "residual_df must be"),
            (lambda d: d.update(residual_df=True), "residual_df must be"),
            (lambda d: d.update(sigma2="abc"), "sigma2 must be finite numbers"),
            (lambda d: d.update(sigma2=True), "sigma2 must be finite numbers"),
            (lambda d: d.update(sigma2=[1.0]), "sigma2 must be null or a number"),
            (lambda d: d.update(sigma2=-0.5), "sigma2 must be null or a number"),
        ],
    )
    def test_malformed_payload_is_rejected(self, corrupt, message):
        obs = synth_observations(np.random.default_rng(23))
        payload = json.loads(json.dumps(meta_model_to_dict(fit_meta_model(obs))))
        corrupt(payload)
        with pytest.raises(ValueError, match=message):
            meta_model_from_dict(payload)

    def test_deserialized_model_cannot_be_refitted(self):
        obs = synth_observations(np.random.default_rng(22))
        model = fit_meta_model(obs)
        back = meta_model_from_dict(meta_model_to_dict(model))
        with pytest.raises(ValueError, match="no rows"):
            fit_ols(back.design, np.zeros(len(obs)))


class TestLosoCv:
    def test_folds_match_explicit_refits(self):
        # folds drop one type, so enough types must remain for the task
        # mains to stay linearly independent
        obs = synth_observations(np.random.default_rng(23), n_types=7)
        for predictor_set in ("full", "no_interactions", "arch_only", "task_only"):
            result = loso_cv(obs, predictor_set=predictor_set)
            for type_id in {o.span_type_id for o in obs}:
                train = [o for o in obs if o.span_type_id != type_id]
                test_idx = [
                    i for i, o in enumerate(obs) if o.span_type_id == type_id
                ]
                design = build_design_matrix(train, predictor_set)
                y = padded_logit(np.array([o.f1 for o in train]))
                beta, *_ = np.linalg.lstsq(design.matrix, y, rcond=None)
                x_test = design.transform([obs[i] for i in test_idx])
                expected = inverse_padded_logit(x_test @ beta)
                assert np.max(np.abs(result.predictions[test_idx] - expected)) < 1e-9

    @pytest.mark.parametrize("predictor_set", ["full", "no_interactions", "task_only"])
    def test_fold_rank_deficient_only_when_held_out_is_named(self, predictor_set):
        # every type but s3 shares one boundary distinctiveness, so the
        # full design is fine but dropping s3 makes boundary_dist constant
        obs = [
            o if o.span_type_id == "s3" else dataclasses.replace(
                o, profile=dataclasses.replace(o.profile, boundary_distinctiveness=0.5)
            )
            for o in synth_observations(np.random.default_rng(40), n_types=7)
        ]
        fit_meta_model(obs, predictor_set=predictor_set)
        with pytest.raises(ValueError, match="span type 's3'.*rank deficient"):
            loso_cv(obs, predictor_set=predictor_set)

    def test_fold_with_too_few_training_rows_is_named(self):
        obs = synth_observations(np.random.default_rng(41), n_types=2)
        obs = obs[:12] + obs[12:15]  # s1 keeps three of its twelve rows
        with pytest.raises(ValueError, match="span type 's0'.*more training rows"):
            loso_cv(obs, predictor_set="arch_only")

    def test_summary_statistics_match_pooled_predictions(self):
        obs = synth_observations(np.random.default_rng(24), n_types=7)
        result = loso_cv(obs)
        actual = np.array([o.f1 for o in obs])
        assert np.array_equal(result.actual, actual)
        assert result.mae == pytest.approx(
            float(np.mean(np.abs(result.predictions - actual)))
        )
        ss_res = float(np.sum((result.predictions - actual) ** 2))
        ss_tot = float(np.sum((actual - actual.mean()) ** 2))
        assert result.r2 == pytest.approx(1.0 - ss_res / ss_tot)

    def test_empty_set_predicts_fold_means(self):
        obs = synth_observations(np.random.default_rng(25), n_types=3)
        result = loso_cv(obs, predictor_set="empty")
        assert result.r2 is None
        for type_id in {o.span_type_id for o in obs}:
            fold_mean = float(
                np.mean([o.f1 for o in obs if o.span_type_id != type_id])
            )
            for i, o in enumerate(obs):
                if o.span_type_id == type_id:
                    assert result.predictions[i] == fold_mean

    def test_needs_two_span_types(self):
        obs = [o for o in synth_observations(np.random.default_rng(26)) if o.span_type_id == "s0"]
        with pytest.raises(ValueError, match="at least two span types"):
            loso_cv(obs)

    def test_ablate_covers_all_sets_in_order(self):
        obs = synth_observations(np.random.default_rng(27), n_types=7)
        results = ablate(obs)
        assert list(results) == [
            "full", "no_interactions", "arch_only", "task_only", "empty",
        ]
        for name, res in results.items():
            assert res.predictor_set == name
        direct = loso_cv(obs, predictor_set="task_only")
        assert results["task_only"].mae == direct.mae



def _per_fold_loso(observations, predictor_set, alpha):
    """Leave-one-span-type-out CV with one solve and one inverse map per fold.

    This is the fold-by-fold loop that the batched folds replaced, kept as
    an exact reference: the same QR and the same 2-D products, so every
    prediction and summary must match bit for bit.
    """
    groups = {}
    for i, o in enumerate(observations):
        groups.setdefault(o.span_type_id, []).append(i)
    groups = {type_id: np.array(idx) for type_id, idx in groups.items()}
    actual = np.array([o.f1 for o in observations])
    preds = np.empty(len(observations))
    if predictor_set == "empty":
        for idx in groups.values():
            preds[idx] = float(np.mean(np.delete(actual, idx)))
    else:
        Q, _ = _factor(build_design_matrix(observations, predictor_set))
        n, k = Q.shape
        tol = max(n, k) * np.finfo(float).eps
        folds = {}
        for type_id, idx in groups.items():
            fold = f"fold holding out span type {type_id!r}"
            if n - len(idx) <= k:
                raise ValueError(f"{fold}: needs more training rows than columns ({k})")
            h = Q[idx] @ Q[idx].T
            if 1.0 - np.linalg.eigvalsh(h)[-1] <= tol:
                raise ValueError(f"{fold}: training rows are rank deficient")
            folds[type_id] = np.eye(len(idx)) - h
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
    return preds, mae, r2


def _unequal_folds(observations):
    """Drop 0-3 rows per span type, cycling, so folds of one size are not adjacent."""
    types = list(dict.fromkeys(o.span_type_id for o in observations))
    drop = {type_id: i % 4 for i, type_id in enumerate(types)}
    seen = dict.fromkeys(types, 0)
    out = []
    for o in observations:
        seen[o.span_type_id] += 1
        if seen[o.span_type_id] > drop[o.span_type_id]:
            out.append(o)
    return out


class TestBatchedLosoOracle:
    """The batched folds against the fold-by-fold loop, compared exactly."""

    @pytest.fixture(scope="class", params=["bundled", "unequal"])
    def observations(self, request):
        obs = to_observations(load_embedded())
        if request.param == "unequal":
            obs = _unequal_folds(obs)
            assert sorted(set(Counter(o.span_type_id for o in obs).values())) == [9, 10, 11, 12]
        return obs

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("predictor_set", list(PREDICTOR_SETS))
    def test_matches_per_fold_solves_exactly(self, observations, predictor_set, alpha):
        result = loso_cv(observations, alpha, predictor_set)
        preds, mae, r2 = _per_fold_loso(observations, predictor_set, alpha)
        assert np.array_equal(result.predictions, preds)
        assert result.mae == mae
        assert result.r2 == r2

    @pytest.mark.parametrize("predictor_set", ["no_interactions", "task_only"])
    def test_first_bad_fold_in_order_of_appearance_is_named(self, predictor_set):
        # s3 alone varies in boundary distinctiveness and s5 alone in span
        # distinctiveness, so both folds are rank deficient; s3 keeps nine
        # rows, so its batch of one size comes after s5's batch of twelve
        obs = []
        for o in synth_observations(np.random.default_rng(40), n_types=7):
            p = o.profile
            if o.span_type_id != "s3":
                p = dataclasses.replace(p, boundary_distinctiveness=0.5)
            if o.span_type_id != "s5":
                p = dataclasses.replace(p, span_distinctiveness=1.5)
            obs.append(dataclasses.replace(o, profile=p))
        obs = [o for i, o in enumerate(obs) if not (o.span_type_id == "s3" and i % 12 < 3)]
        fit_meta_model(obs, predictor_set=predictor_set)
        with pytest.raises(ValueError) as batched:
            loso_cv(obs, predictor_set=predictor_set)
        with pytest.raises(ValueError) as reference:
            _per_fold_loso(obs, predictor_set, 0.2)
        assert str(batched.value) == str(reference.value)
        assert str(batched.value) == (
            "fold holding out span type 's3': training rows are rank deficient"
        )


class TestSharedObservations:
    """One holder shared by every call gives what separate plain-list calls give."""

    @pytest.fixture(scope="class", params=["bundled", "subset"])
    def observations(self, request):
        obs = to_observations(load_embedded())
        if request.param == "subset":
            obs = _unequal_folds(obs)
            assert len(obs) == 378
        return obs

    def test_is_a_sequence_of_the_same_observations(self, observations):
        shared = _shared(observations)
        assert len(shared) == len(observations)
        assert list(shared) == observations
        assert shared[3] is observations[3]

    def test_sharing_changes_no_result(self, observations):
        shared = _shared(observations)
        # in the reproduction report's order: ablation, fit, padding sweep
        shared_cv = ablate(shared, DEFAULT_ALPHA)
        shared_fits = {
            name: fit_meta_model(shared, DEFAULT_ALPHA, name) for name in PREDICTOR_SETS
        }
        shared_curve = alpha_mae_curve(shared)
        for name in PREDICTOR_SETS:
            plain = loso_cv(list(observations), DEFAULT_ALPHA, name)
            assert np.array_equal(shared_cv[name].predictions, plain.predictions)
            assert shared_cv[name].mae == plain.mae
            assert shared_cv[name].r2 == plain.r2
            model = fit_meta_model(list(observations), DEFAULT_ALPHA, name)
            for field in ("coefficients", "standard_errors", "t_statistics", "p_values"):
                assert np.array_equal(getattr(shared_fits[name], field), getattr(model, field))
        assert shared_curve == alpha_mae_curve(list(observations))


class TestSharedWork:
    """Counting wrappers around the two raw-catalogue functions, the task
    mains, the QR and the building of an ``Observation``.

    Every count is exact: a function missing from ``counts`` ran 0 times.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        for owner, name in (
            (meta_module, "raw_predictors"),
            (meta_module, "_task_columns"),
            (meta_module, "_factor"),
            (Observation, "__post_init__"),
        ):
            original = getattr(owner, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        return counts

    def test_reproduction_report_builds_each_design_once(self, counts):
        # four non-empty predictor sets, one QR each; a second report
        # recomputes everything, so nothing is kept between calls; the
        # catalogue comes from the tables' columns, not from observations
        for _ in range(2):
            counts.clear()
            build_reproduction_report()
            assert counts == {"_task_columns": 1, "_factor": 4}

    def test_reproduce_builds_no_observation(self, counts, tmp_path, capsys):
        assert main(["reproduce", "--out-dir", str(tmp_path)]) == 0
        assert counts == {"_task_columns": 1, "_factor": 4}

    def test_meta_cv_computes_the_catalogue_once(self, counts, capsys):
        assert main(["meta", "cv"]) == 0
        assert counts == {"_task_columns": 1, "_factor": 1}

    def test_meta_cv_on_a_csv_computes_the_catalogue_once(self, counts, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        observations_to_csv(to_observations(load_embedded()), path)
        counts.clear()
        assert main(["meta", "cv", "--obs", str(path)]) == 0
        # the reader builds one observation per row
        assert counts == {
            "raw_predictors": 1, "_task_columns": 1, "_factor": 1, "__post_init__": 432
        }


def _random_tables(rng) -> EmbeddedTables:
    """Tables shaped like the bundled ones, with random measurements and scores."""
    profiles = tuple(
        SpanTypeProfile(
            f"d{i % 3}/t{i}",
            int(rng.integers(1, 100_000)),
            float(rng.uniform(1.0, 12.0)),
            float(rng.uniform(0.1, 5.0)),
            float(rng.uniform(0.1, 3.0)),
        )
        for i in range(36)
    )
    return EmbeddedTables(profiles, rng.uniform(0.0, 100.0, size=(36, 12)))


class TestBundledObservations:
    """The holder built from the tables' columns against one built from observations."""

    @pytest.fixture(scope="class", params=["bundled", "random"])
    def tables(self, request):
        if request.param == "bundled":
            return load_embedded()
        return _random_tables(np.random.default_rng(44))

    def test_columns_equal_the_observation_built_ones(self, tables):
        bundled = _bundled(tables)
        plain = _shared(to_observations(tables))
        assert len(bundled) == len(plain) == 432
        for name in ("catalogue", "f1"):
            got, want = getattr(bundled, name), getattr(plain, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert list(bundled.groups) == list(plain.groups)
        for type_id, rows in plain.groups.items():
            assert bundled.groups[type_id].dtype == rows.dtype
            assert bundled.groups[type_id].tobytes() == rows.tobytes()
        assert "_items" not in vars(bundled)

    def test_to_observations_is_the_profile_major_double_loop(self, tables):
        want = [
            (profile.type_id, arch, profile, float(tables.f1_matrix[i, j]))
            for i, profile in enumerate(tables.profiles)
            for j, (_, arch) in enumerate(ARCHITECTURES)
        ]
        got = [(o.span_type_id, o.arch, o.profile, o.f1) for o in to_observations(tables)]
        assert len(got) == len(want) == 432
        for cell, (have, expected) in enumerate(zip(got, want)):
            assert have == expected, cell
            assert type(have[3]) is float, cell

    def test_f1_does_not_alias_the_tables(self, tables):
        assert not np.shares_memory(_bundled(tables).f1, tables.f1_matrix)

    def test_results_build_no_observation_and_equal_the_plain_ones(self, tables):
        bundled = _bundled(tables)
        observations = to_observations(tables)
        cv = ablate(bundled)
        for name, result in ablate(observations).items():
            assert np.array_equal(cv[name].predictions, result.predictions)
            assert (cv[name].mae, cv[name].r2) == (result.mae, result.r2)
            model = fit_meta_model(bundled, DEFAULT_ALPHA, name)
            want = fit_meta_model(observations, DEFAULT_ALPHA, name)
            assert model.coefficients.tobytes() == want.coefficients.tobytes()
            assert model.p_values.tobytes() == want.p_values.tobytes()
        assert alpha_mae_curve(bundled) == alpha_mae_curve(observations)
        assert "_items" not in vars(bundled)

    def test_items_are_built_on_demand(self, tables):
        want = to_observations(tables)
        bundled = _bundled(tables)
        assert bundled[17] == want[17]
        assert bundled[-3:] == want[-3:]
        assert list(bundled) == want
        assert bundled[17] is bundled[17]

    def test_alpha_zero_names_the_same_cell(self, tables):
        tables = dataclasses.replace(tables, f1_matrix=tables.f1_matrix.copy())
        tables.f1_matrix[30, 5] = 100.0
        with pytest.raises(ValueError) as plain:
            loso_cv(to_observations(tables), 0.0)
        bundled = _bundled(tables)
        with pytest.raises(ValueError) as info:
            loso_cv(bundled, 0.0)
        assert str(info.value) == str(plain.value)
        assert "_items" not in vars(bundled)


_PREDICT_TAIL = ["--freq", "500", "--length", "2.5", "--sd", "3", "--bd", "1"]


class TestBundledMatchesCsv:
    """A meta command on the bundled study prints what it prints with ``--obs``
    pointing at the same observations, written as CSV."""

    @pytest.fixture(scope="class")
    def bundled_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bundled") / "bundled.csv"
        observations_to_csv(to_observations(load_embedded()), path)
        return str(path)

    def _both(self, argv, bundled_csv, capsys):
        outcomes = []
        for extra in ([], ["--obs", bundled_csv]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*argv, *extra])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @pytest.mark.parametrize(
        "argv",
        [
            *(["meta", command, "--set", name] for command in ("cv", "fit")
              for name in PREDICTOR_SETS),
            ["meta", "cv", "--set", "empty", "--alpha", "0"],
            ["meta", "fit", "--alpha", "0.35"],
            ["meta", "ablate"],
            ["meta", "ablate", "--alpha", "0.1"],
            ["meta", "select-alpha"],
            ["meta", "select-alpha", "--grid", "0.3,0.05"],
            ["meta", "predict", *_PREDICT_TAIL],
            ["meta", "predict", "--feat", "--crf", "--lstm", "--bert", *_PREDICT_TAIL],
            ["meta", "predict", "--alpha", "0.1", "--lstm", *_PREDICT_TAIL],
        ],
        ids=lambda argv: "-".join(argv[1:]),
    )
    def test_same_output(self, argv, bundled_csv, capsys):
        code, out, err = self._both(argv, bundled_csv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("{")

    @pytest.mark.parametrize(
        "argv",
        [
            *(["meta", command, "--set", name, "--alpha", "0"] for command in ("cv", "fit")
              for name in PREDICTOR_SETS if (command, name) != ("cv", "empty")),
            ["meta", "ablate", "--alpha", "0"],
            ["meta", "select-alpha", "--grid", "0.1,0"],
            ["meta", "predict", "--alpha", "0", *_PREDICT_TAIL],
        ],
        ids=lambda argv: "-".join(argv[1:]),
    )
    def test_same_alpha_zero_refusal(self, argv, bundled_csv, capsys):
        code, out, err = self._both(argv, bundled_csv, capsys)
        assert (code, out) == (1, "")
        assert err == f"spanmeta: error: {TestAlphaZero.BUNDLED}\n"


class TestAlphaZero:
    """At alpha 0 an F1 of 0 or 100 has an infinite logit: a clean refusal."""

    # the bundled tables' first cell at F1 0 or 100
    BUNDLED = (
        "at alpha 0 the padded logit of span type 'chemdner/Identifier', "
        "architecture feat=0 crf=0 lstm=0 bert=0, F1 0 is not finite; "
        "alpha 0 needs every F1 strictly between 0 and 100"
    )

    @pytest.fixture(scope="class")
    def observations(self):
        return to_observations(load_embedded())

    @pytest.mark.parametrize(
        "call",
        [
            lambda obs: loso_cv(obs, 0.0),
            lambda obs: loso_cv(obs, 0.0, "task_only"),
            lambda obs: ablate(obs, 0.0),
            lambda obs: fit_meta_model(obs, 0.0),
            lambda obs: alpha_mae_curve(obs, (0.1, 0.0)),
        ],
        ids=["loso_cv", "loso_cv-task_only", "ablate", "fit_meta_model", "alpha_mae_curve"],
    )
    def test_names_the_first_such_observation(self, observations, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call(observations)
        assert str(info.value) == self.BUNDLED

    def test_an_f1_of_100_is_named_too(self):
        obs = synth_observations(np.random.default_rng(42), n_types=7)
        obs[17] = dataclasses.replace(obs[17], f1=100.0)
        with pytest.raises(ValueError) as info:
            loso_cv(obs, 0.0)
        assert str(info.value).startswith(
            "at alpha 0 the padded logit of span type 's1', "
            "architecture feat=1 crf=1 lstm=0 bert=0, F1 100 is not finite"
        )

    def test_empty_set_takes_no_logit(self, observations):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = loso_cv(observations, 0.0, "empty")
        assert result.mae == loso_cv(observations, 0.2, "empty").mae

    def test_inside_the_open_interval_alpha_zero_fits(self):
        obs = synth_observations(np.random.default_rng(43), n_types=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(loso_cv(obs, 0.0).mae)
            assert np.all(np.isfinite(fit_meta_model(obs, 0.0).p_values))


class TestAlphaSelection:
    def test_curve_matches_individual_runs(self):
        obs = synth_observations(np.random.default_rng(28), n_types=7)
        grid = (0.1, 0.2, 0.3)
        curve = alpha_mae_curve(obs, grid)
        assert [a for a, _ in curve] == list(grid)
        for a, mae in curve:
            assert mae == loso_cv(obs, alpha=a).mae

    def test_default_grid(self):
        assert DEFAULT_ALPHA_GRID == (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_way_tie_selects_smallest_alpha(self):
        # constant F1 means zero error at every alpha: the tie must go
        # to the first grid value
        rng = np.random.default_rng(29)
        obs = [
            dataclasses.replace(o, f1=50.0)
            for o in synth_observations(rng, n_types=7)
        ]
        assert select_alpha(obs) == 0.05

    def test_empty_grid_rejected(self):
        obs = synth_observations(np.random.default_rng(30), n_types=3)
        with pytest.raises(ValueError, match="grid"):
            alpha_mae_curve(obs, ())

    def test_grid_values_validated(self):
        obs = synth_observations(np.random.default_rng(31), n_types=3)
        with pytest.raises(ValueError, match="alpha"):
            alpha_mae_curve(obs, (0.1, 0.6))


class TestObservationCsv:
    def test_round_trip_is_exact(self, tmp_path):
        obs = synth_observations(np.random.default_rng(32), n_types=3)
        path = tmp_path / "obs.csv"
        observations_to_csv(obs, path)
        back = observations_from_csv(path)
        assert back == obs

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError) as info:
            observations_from_csv(path)
        assert str(info.value) == (
            f"{path}: line 1: observation CSV must have header "
            "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1"
        )

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1\n"
            "t,0,0,0,0,10,2.0,0.5,0.5,55.0\n"
            "u,0,0,0,0,not_a_number,2.0,0.5,0.5,55.0\n"
        )
        with pytest.raises(ValueError) as info:
            observations_from_csv(path)
        assert str(info.value) == (
            f"{path}: line 3: invalid literal for int() with base 10: 'not_a_number'"
        )

    def test_line_number_counts_line_breaks_inside_quoted_fields(self, tmp_path):
        # the first record spans lines 2 and 3, so the bad freq is on line 4
        path = tmp_path / "bad.csv"
        path.write_text(
            "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1\n"
            '"two\nlines",0,0,0,0,10,2.0,0.5,0.5,55.0\n'
            "u,0,0,0,0,not_a_number,2.0,0.5,0.5,55.0\n"
        )
        with pytest.raises(ValueError) as info:
            observations_from_csv(path)
        assert str(info.value).startswith(f"{path}: line 4: invalid literal for int() ")

    @pytest.mark.parametrize("flag", ["2", "-1", "", " 1", "true", "1.0"])
    def test_flag_other_than_0_or_1_rejected(self, tmp_path, flag):
        # bool(int("2")) and bool(int("-1")) once read both as a present component
        path = tmp_path / "bad.csv"
        path.write_text(
            "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1\n"
            "t,0,1,0,0,10,2.0,0.5,0.5,55.0\n"
            f"u,0,0,{flag},0,10,2.0,0.5,0.5,55.0\n"
        )
        with pytest.raises(ValueError) as info:
            observations_from_csv(path)
        assert str(info.value) == f"{path}: line 3: lstm must be 0 or 1, got {flag!r}"

    def test_row_longer_than_the_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1\n"
            "t,0,1,0,0,10,2.0,0.5,0.5,55.0,extra,more\n"
        )
        with pytest.raises(ValueError) as info:
            observations_from_csv(path)
        assert str(info.value) == f"{path}: line 2: 2 more field(s) than the header"

    @pytest.mark.parametrize("column", ["length", "sd", "bd"])
    def test_non_finite_measurement_rejected(self, tmp_path, column):
        values = {"length": "2.0", "sd": "0.5", "bd": "0.5"}
        values[column] = "nan"
        path = tmp_path / "nan.csv"
        path.write_text(
            "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1\n"
            f"t,0,0,0,0,10,{values['length']},{values['sd']},{values['bd']},55.0\n"
        )
        with pytest.raises(ValueError) as info:
            observations_from_csv(path)
        assert str(info.value) == (
            f"{path}: line 2: span length and distinctiveness values must be finite"
        )

    def test_unencodable_span_type_leaves_the_file_intact(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes(b"earlier contents\n")
        obs = synth_observations(np.random.default_rng(33), n_types=2)
        obs[3] = dataclasses.replace(obs[3], span_type_id="\ud800")
        with pytest.raises(ValueError) as info:
            observations_to_csv(obs, path)
        assert str(path) in str(info.value)
        assert path.read_bytes() == b"earlier contents\n"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats would be most of the import time of every command
    code = "import sys, spanmeta, spanmeta.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"
