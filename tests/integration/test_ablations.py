"""Integration tests for the five ablations (docs/paper_map.md, "The five
ablations")."""

import numpy as np
import pytest

from repro.api import builtin_spec, run_spec


class TestSelectionAblation:
    @pytest.fixture(scope="class")
    def series(self):
        spec = builtin_spec(
            "ablation-selection", n_attributes=30, n_records=800, seed=3
        )
        return run_spec(spec).to_series()

    def test_two_level_rules_agree(self, series):
        two_level = [series.curve(m)[0] for m in series.methods]
        assert max(two_level) - min(two_level) < 0.1

    def test_decaying_rules_diverge(self, series):
        decaying = [series.curve(m)[1] for m in series.methods]
        assert max(decaying) - min(decaying) > 0.05


class TestCovarianceAblation:
    @pytest.fixture(scope="class")
    def series(self):
        spec = builtin_spec(
            "ablation-covariance",
            sample_sizes=(100, 500, 2000),
            n_attributes=20,
            seed=5,
        )
        return run_spec(spec).to_series()

    def test_oracle_never_meaningfully_worse(self, series):
        for family in ("PCA", "BE"):
            estimated = series.curve(f"{family}-estimated")
            oracle = series.curve(f"{family}-oracle")
            assert np.all(oracle <= estimated + 0.2)

    def test_gap_closes_with_n(self, series):
        """Theorem 5.1's estimate is consistent: the oracle's edge
        shrinks with n and is gone at the largest n."""
        for family in ("PCA", "BE"):
            gap = series.curve(f"{family}-estimated") - series.curve(
                f"{family}-oracle"
            )
            assert gap[-1] < gap[0], family
            assert abs(gap[-1]) < 0.1, family


class TestSamplesizeAblation:
    def test_attack_improves_then_saturates(self):
        spec = builtin_spec(
            "ablation-samplesize",
            sample_sizes=(100, 500, 2000, 4000),
            n_attributes=25,
            seed=7,
        )
        series = run_spec(spec).to_series()
        be = series.curve("BE-DR")
        assert be[-1] < be[0]
        assert abs(be[-1] - be[-2]) < 0.15
        # The correlation attack dominates UDR at every sample size.
        assert np.all(be <= series.curve("UDR") + 0.05)


class TestUtilityAblation:
    def test_corrected_training_tracks_oracle(self):
        spec = builtin_spec(
            "ablation-utility", n_train=3000, n_test=1500, seed=1
        )
        series = run_spec(spec).to_series()
        original = series.curve("original")
        corrected = series.curve("disguised_corrected")
        assert np.all(corrected >= original - 0.05)
        assert np.all(original > 0.85)


class TestMarginalsAblation:
    @pytest.fixture(scope="class")
    def series(self):
        spec = builtin_spec(
            "ablation-marginals",
            marginals=("normal", "lognormal", "bimodal"),
            n_attributes=20,
            n_records=1500,
            seed=13,
        )
        return run_spec(spec).to_series()

    def test_attack_still_beats_udr_on_normal(self, series):
        assert series.curve("BE-DR")[0] < series.curve("UDR")[0] - 0.5

    def test_bedr_survives_non_normal_marginals(self, series):
        """BE-DR's edge shrinks but persists under misspecification."""
        for index in range(series.x_values.size):
            assert (
                series.curve("BE-DR")[index]
                < series.curve("UDR")[index]
            ), series.metadata["marginals"][index]

    def test_misspecification_costs_accuracy(self, series):
        """Non-normal marginals must hurt relative to the normal case."""
        be = series.curve("BE-DR")
        assert min(be[1:]) > be[0]
