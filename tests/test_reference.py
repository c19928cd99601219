"""Bundled reference tables: integrity, spot values, and internal consistency."""

import numpy as np
import pytest

from spanmeta import load_embedded, to_observations
from spanmeta.meta import FULL_COLUMNS, MAIN_COLUMNS
from spanmeta.reference import (
    ARCHITECTURES,
    ARCHITECTURE_NAMES,
    DATASETS,
    EXPECTED_COEFFICIENT_SIGNS,
    REFERENCE_COEFFICIENTS,
    REFERENCE_CV_SCORES,
    REFERENCE_DATASET_METRICS,
    REFERENCE_PREDICTOR_CORRELATION,
    _PROFILE_FILE,
    _PROFILE_SHA256,
    _read_fixture,
    dataset_of,
    export_table,
)


@pytest.fixture(scope="module")
def tables():
    return load_embedded()


class TestLoad:
    def test_row_counts_and_shape(self, tables):
        assert len(tables.profiles) == 36
        assert tables.f1_matrix.shape == (36, 12)

    def test_dataset_sizes(self, tables):
        for ds, expected in DATASETS.items():
            got = sum(1 for p in tables.profiles if dataset_of(p.type_id) == ds)
            assert got == expected
        assert sum(DATASETS.values()) == 36

    def test_type_ids_are_dataset_qualified_and_unique(self, tables):
        ids = [p.type_id for p in tables.profiles]
        assert len(set(ids)) == 36
        assert all("/" in i for i in ids)
        assert dataset_of("parc/Cue") == "parc"

    def test_f1_values_in_range(self, tables):
        assert np.all(tables.f1_matrix >= 0.0)
        assert np.all(tables.f1_matrix <= 100.0)

    def test_profile_spot_value(self, tables):
        p = tables.profile("chemdner/Identifier")
        assert p.frequency == 672
        assert p.span_length == pytest.approx(2.59)
        assert p.span_distinctiveness == pytest.approx(3.61)
        assert p.boundary_distinctiveness == pytest.approx(1.43)

    def test_f1_spot_values(self, tables):
        assert tables.f1("parc/Content", "bert-feat-lstm-crf") == pytest.approx(78.1)
        assert tables.f1("riqua/Quotation", "baseline") == pytest.approx(0.0)

    def test_profile_lookup_unknown_id(self, tables):
        with pytest.raises(KeyError):
            tables.profile("nowhere/Nothing")

    def test_checksum_guard_fires_on_mismatch(self):
        with pytest.raises(ValueError, match="checksum mismatch"):
            _read_fixture(_PROFILE_FILE, "0" * 64)

    def test_checksummed_fixture_loads(self):
        text = _read_fixture(_PROFILE_FILE, _PROFILE_SHA256)
        assert text.splitlines()[0].startswith("dataset,")


class TestArchitectureCatalog:
    def test_twelve_distinct_architectures(self):
        assert len(ARCHITECTURES) == 12
        assert len({a.flags() for _, a in ARCHITECTURES}) == 12
        assert len(ARCHITECTURE_NAMES) == 12

    def test_baseline_has_no_ingredients(self):
        name, arch = ARCHITECTURES[0]
        assert name == "baseline"
        assert arch.flags() == (0.0, 0.0, 0.0, 0.0)

    def test_full_stack_has_all_ingredients(self):
        by_name = dict(ARCHITECTURES)
        assert by_name["bert-feat-lstm-crf"].flags() == (1.0, 1.0, 1.0, 1.0)

    def test_names_reflect_ingredients(self):
        for name, arch in ARCHITECTURES:
            if name == "baseline":
                continue
            assert arch.has_feat == ("feat" in name)
            assert arch.has_crf == ("crf" in name)
            assert arch.has_lstm == ("lstm" in name)
            assert arch.has_bert == ("bert" in name)


class TestObservations:
    def test_432_cells(self, tables):
        obs = to_observations(tables)
        assert len(obs) == 432
        assert len({o.span_type_id for o in obs}) == 36
        assert len({o.arch.flags() for o in obs}) == 12

    def test_cells_align_with_matrix(self, tables):
        obs = to_observations(tables)
        # row-major over (profile, architecture)
        assert obs[0].span_type_id == tables.profiles[0].type_id
        assert obs[0].f1 == tables.f1_matrix[0, 0]
        assert obs[12].span_type_id == tables.profiles[1].type_id
        assert obs[11].arch == ARCHITECTURES[-1][1]

    def test_each_type_appears_once_per_architecture(self, tables):
        obs = to_observations(tables)
        pairs = {(o.span_type_id, o.arch.flags()) for o in obs}
        assert len(pairs) == 432


class TestExport:
    @pytest.mark.parametrize("table,fname", [("profiles", _PROFILE_FILE), ("f1", None)])
    def test_export_matches_fixture(self, table, fname):
        text = export_table(table)
        assert text.startswith("dataset,")
        assert len(text.splitlines()) == 37  # header + 36 rows

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="'profiles' or 'f1'"):
            export_table("everything")


class TestReportedResults:
    def test_dataset_metrics_cover_all_datasets(self):
        assert set(REFERENCE_DATASET_METRICS) == set(DATASETS)

    def test_correlation_is_a_plausible_pearson_value(self):
        assert -1.0 <= REFERENCE_PREDICTOR_CORRELATION <= 1.0
        assert REFERENCE_PREDICTOR_CORRELATION == -0.46

    def test_cv_scores_ordering_and_keys(self):
        names = list(REFERENCE_CV_SCORES)
        assert names == ["full", "no_interactions", "arch_only", "task_only", "empty"]
        maes = [mae for mae, _ in REFERENCE_CV_SCORES.values()]
        assert maes == sorted(maes)  # strongest set has the lowest error
        assert REFERENCE_CV_SCORES["empty"][1] is None
        for name, (mae, r2) in REFERENCE_CV_SCORES.items():
            assert mae > 0
            if r2 is not None:
                assert 0.0 <= r2 <= 1.0

    def test_coefficient_names_are_design_columns(self):
        assert set(REFERENCE_COEFFICIENTS) <= set(FULL_COLUMNS)
        # every non-intercept column is reported
        assert len(REFERENCE_COEFFICIENTS) == 30
        assert "intercept" not in REFERENCE_COEFFICIENTS

    def test_expected_signs_agree_with_reported_coefficients(self):
        for name, sign in EXPECTED_COEFFICIENT_SIGNS.items():
            value, significant = REFERENCE_COEFFICIENTS[name]
            assert sign in (-1, 1)
            assert np.sign(value) == sign
            assert significant, f"{name} must be significant to carry a sign check"

    def test_bert_is_the_largest_architecture_main(self):
        arch_values = [REFERENCE_COEFFICIENTS[m][0] for m in MAIN_COLUMNS[:4]]
        assert REFERENCE_COEFFICIENTS["bert"][0] == max(arch_values)
        assert REFERENCE_COEFFICIENTS["bert"][0] > 0
