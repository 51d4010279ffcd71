"""Tests for the scaling-exponent analysis — including the headline
check: the measured KAP exponents match the paper's asymptotic claims."""

import pytest

from repro.kap.analysis import (classify_scaling, fit_power_law,
                                scaling_exponents)
from repro.kap.sweep import SweepSpec, run_sweep


class TestFit:
    def test_exact_linear(self):
        fit = fit_power_law([1, 2, 4, 8], [3, 6, 12, 24])
        assert fit.exponent == pytest.approx(1.0)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_exact_quadratic(self):
        fit = fit_power_law([1, 2, 4], [5, 20, 80])
        assert fit.exponent == pytest.approx(2.0)

    def test_flat_series(self):
        fit = fit_power_law([1, 10, 100], [7.0, 7.0, 7.0])
        assert fit.exponent == pytest.approx(0.0)

    def test_predict_roundtrip(self):
        fit = fit_power_law([1, 2, 4, 8], [2, 4, 8, 16])
        assert fit.predict(16) == pytest.approx(32.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_power_law([2, 2], [1, 3])

    def test_classify(self):
        assert classify_scaling(0.05) == "flat"
        assert classify_scaling(0.5) == "sublinear"
        assert classify_scaling(1.02) == "linear"


class TestMeasuredExponents:
    """The paper's Section V-B asymptotics as numbers, measured from a
    real (reduced-scale) sweep of fully populated nodes, as in the
    paper: with 4 procs/node the per-hop constant still dominates a
    streamed unique fence (exponent 0.56)."""

    @pytest.fixture(scope="class")
    def sweep_rows(self):
        spec = SweepSpec(nodes=(8, 16, 32, 64), procs_per_node=(16,),
                         value_sizes=(2048,), redundant=(False, True),
                         naccess=(0,))
        return run_sweep(spec)

    def test_put_is_flat(self, sweep_rows):
        fits = scaling_exponents(
            sweep_rows, x_field="nprocs", y_field="max_put_s",
            group_by=lambda r: r["redundant"])
        for fit in fits.values():
            assert classify_scaling(fit.exponent) == "flat", fit

    def test_unique_fence_is_linear_ish(self, sweep_rows):
        fits = scaling_exponents(
            sweep_rows, x_field="nprocs", y_field="max_fence_s",
            group_by=lambda r: r["redundant"])
        unique = fits[0]
        assert unique.exponent > 0.6, unique
        assert unique.r2 > 0.98

    def test_redundant_fence_sublinear_but_not_flat(self, sweep_rows):
        fits = scaling_exponents(
            sweep_rows, x_field="nprocs", y_field="max_fence_s",
            group_by=lambda r: r["redundant"])
        red = fits[1]
        # "Fails short of logarithmic": still grows (not flat), but
        # clearly slower than the unique case.
        assert 0.05 < red.exponent < fits[0].exponent

    def test_consumer_linear_when_g_grows_with_c(self):
        spec = SweepSpec(nodes=(8, 16, 32, 64), procs_per_node=(4,),
                         value_sizes=(8,), naccess=(1,), nputs=(16,))
        rows = run_sweep(spec)
        fits = scaling_exponents(rows, x_field="nprocs",
                                 y_field="max_get_s")
        fit = fits["all"]
        assert fit.exponent > 0.6, fit


class TestGrouping:
    def test_group_by_families(self):
        rows = [
            {"n": 1, "y": 1.0, "fam": "a"},
            {"n": 2, "y": 2.0, "fam": "a"},
            {"n": 1, "y": 5.0, "fam": "b"},
            {"n": 2, "y": 5.0, "fam": "b"},
        ]
        fits = scaling_exponents(rows, x_field="n", y_field="y",
                                 group_by=lambda r: r["fam"])
        assert fits["a"].exponent == pytest.approx(1.0)
        assert fits["b"].exponent == pytest.approx(0.0)
