import numpy as np
import pytest

from envload.dataset import FeatureId
from envload.pca import (
    PcaModel,
    REPORT_ROW_ORDER,
    fit_pca,
    fit_pca_matrix,
    loading_report,
    project,
    top_features,
)


@pytest.fixture(scope="module")
def default_model(normalized_train):
    return fit_pca(normalized_train)


class TestFit:
    def test_isotropic_data_spreads_variance_evenly(self):
        rng = np.random.default_rng(77)
        model = fit_pca_matrix(rng.normal(size=(20000, 7)))
        assert model.explained_variance_ratio == pytest.approx(
            np.full(7, 1.0 / 7.0), abs=0.02
        )

    def test_perfectly_correlated_pair_is_rank_one(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=4000)
        x = np.column_stack([z, 2.0 * z])
        x = (x - x.mean(axis=0)) / x.std(axis=0)  # operation expects z-scores
        model = fit_pca_matrix(x)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-10)
        assert model.explained_variance_ratio[1] == pytest.approx(0.0, abs=1e-10)
        assert np.abs(model.loadings[:, 0]) == pytest.approx(
            [1.0 / np.sqrt(2.0)] * 2, abs=1e-9
        )

    def test_ratio_identity_and_bounds(self, default_model):
        m = default_model
        assert m.explained_variance_ratio == pytest.approx(
            m.eigenvalues / m.eigenvalues.sum(), rel=1e-15
        )
        assert abs(m.explained_variance_ratio.sum() - 1.0) <= 1e-10
        assert np.all(np.diff(m.cumulative_ratio) >= -1e-15)
        assert abs(m.cumulative_ratio[-1] - 1.0) <= 1e-10
        assert np.all(m.eigenvalues >= -1e-10)

    def test_loading_columns_orthonormal(self, default_model):
        gram = default_model.loadings.T @ default_model.loadings
        assert np.max(np.abs(gram - np.eye(7))) <= 1e-10

    def test_loading_rows_follow_canonical_feature_order(self):
        # give feature j the dominant variance; PC1's largest |loading|
        # must sit at row j
        rng = np.random.default_rng(11)
        for j in range(7):
            x = rng.normal(size=(300, 7))
            x[:, j] *= 20.0
            model = fit_pca_matrix(x)
            assert int(np.argmax(np.abs(model.loadings[:, 0]))) == j

    def test_matches_numpy_eigh(self, normalized_train, default_model):
        x = normalized_train.features
        xc = x - x.mean(axis=0)
        w, _ = np.linalg.eigh(xc.T @ xc / (len(x) - 1))
        assert default_model.eigenvalues == pytest.approx(w[::-1], rel=1e-9, abs=1e-12)

    def test_permuting_features_permutes_loading_rows(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(500, 3)) @ np.array(
            [[2.0, 0.3, 0.0], [0.0, 1.0, 0.4], [0.0, 0.0, 0.5]]
        )
        perm = [2, 0, 1]
        a = fit_pca_matrix(x)
        b = fit_pca_matrix(x[:, perm])
        assert b.eigenvalues == pytest.approx(a.eigenvalues, rel=1e-9)
        for row_b, row_a in enumerate(perm):
            assert b.loadings[row_b] == pytest.approx(a.loadings[row_a], abs=1e-8)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_pca_matrix(np.zeros((1, 7)))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            fit_pca_matrix(np.ones((10, 3)))

    def test_dataset_and_matrix_paths_agree(self, normalized_train, default_model):
        twin = fit_pca_matrix(normalized_train.features)
        assert np.array_equal(twin.loadings, default_model.loadings)
        assert twin.n_fit == default_model.n_fit == 210


class TestLoadingReport:
    def test_row_labels_in_report_order(self, default_model):
        report = loading_report(default_model)
        assert [name for name, _ in report] == [
            "thickness",
            "thermal_conductivity",
            "specific_heat_capacity",
            "density",
            "thermal_absorptance",
            "solar_absorptance",
            "visual_absorptance",
        ]
        assert [f.column_name for f in REPORT_ROW_ORDER] == [name for name, _ in report]

    def test_entries_are_absolute_and_bounded(self, default_model):
        report = loading_report(default_model)
        for _, row in report:
            assert all(0.0 <= v <= 1.0 for v in row)

    def test_column_squared_sums_are_one(self, default_model):
        table = np.array([row for _, row in loading_report(default_model)])
        assert np.sum(table * table, axis=0) == pytest.approx(np.ones(7), abs=1e-10)

    def test_report_reorders_labels_only(self, default_model):
        # values must come from the canonical-order loading matrix
        report = dict(loading_report(default_model))
        for f in FeatureId:
            assert report[f.column_name] == pytest.approx(
                np.abs(default_model.loadings[f]), rel=1e-15
            )


class TestTopFeatures:
    def test_k7_is_a_permutation(self, default_model):
        assert sorted(top_features(default_model, 7)) == sorted(FeatureId)

    def test_k_bounds(self, default_model):
        with pytest.raises(ValueError):
            top_features(default_model, 0)
        with pytest.raises(ValueError):
            top_features(default_model, 8)

    def test_ties_break_by_canonical_order(self):
        # crafted model: PC1 loads only feature 0; all other |loadings| tie at 0
        model = PcaModel(
            eigenvalues=np.array([7.0] + [0.0] * 6),
            explained_variance_ratio=np.array([1.0] + [0.0] * 6),
            cumulative_ratio=np.ones(7),
            loadings=np.eye(7),
            n_fit=10,
        )
        assert top_features(model, 7) == list(FeatureId)


class TestProject:
    def test_full_projection_reconstructs(self, default_model, normalized_train):
        scores = project(default_model, normalized_train, list(range(1, 8)))
        rebuilt = scores @ default_model.loadings.T
        assert np.max(np.abs(rebuilt - normalized_train.features)) <= 1e-8

    def test_scores_have_zero_mean_on_fit_data(self, default_model, normalized_train):
        scores = project(default_model, normalized_train, [1, 2, 3])
        assert np.max(np.abs(scores.mean(axis=0))) <= 1e-8

    def test_pc1_score_variance_equals_top_eigenvalue(self, default_model, normalized_train):
        scores = project(default_model, normalized_train, [1])[:, 0]
        var = float(np.sum((scores - scores.mean()) ** 2) / (len(scores) - 1))
        assert var == pytest.approx(float(default_model.eigenvalues[0]), rel=1e-8)

    def test_score_covariance_is_diagonal(self, default_model, normalized_train):
        scores = project(default_model, normalized_train, list(range(1, 8)))
        sc = scores - scores.mean(axis=0)
        cov = sc.T @ sc / (len(scores) - 1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-8

    def test_component_index_validation(self, default_model, normalized_train):
        with pytest.raises(ValueError):
            project(default_model, normalized_train, [0])
        with pytest.raises(ValueError):
            project(default_model, normalized_train, [8])
