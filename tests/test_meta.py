"""Performance meta-model: transform identities, OLS against a
high-precision oracle, penalized fits against closed forms, and the
cross-validation protocol."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

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
from spanmeta.meta import (
    ARCH_MAINS,
    DEFAULT_ALPHA_GRID,
    FULL_COLUMNS,
    INTERACTION_COLUMNS,
    MAIN_COLUMNS,
    PREDICTOR_SETS,
    ablate,
    alpha_mae_curve,
    meta_model_from_dict,
    meta_model_to_dict,
    observations_from_csv,
    observations_to_csv,
    predict,
    raw_predictors,
)

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
        with pytest.raises(ValueError, match="header"):
            observations_from_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1\n"
            "t,0,0,0,0,10,2.0,0.5,0.5,55.0\n"
            "u,0,0,0,0,not_a_number,2.0,0.5,0.5,55.0\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            observations_from_csv(path)

    @pytest.mark.parametrize("column", ["length", "sd", "bd"])
    def test_non_finite_measurement_rejected(self, tmp_path, column):
        values = {"length": "2.0", "sd": "0.5", "bd": "0.5"}
        values[column] = "nan"
        path = tmp_path / "nan.csv"
        path.write_text(
            "span_type,feat,crf,lstm,bert,freq,length,sd,bd,f1\n"
            f"t,0,0,0,0,10,{values['length']},{values['sd']},{values['bd']},55.0\n"
        )
        with pytest.raises(ValueError, match="line 2.*finite"):
            observations_from_csv(path)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats would be most of the import time of every command
    code = "import sys, spanmeta, spanmeta.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"
