import math

import pytest

from fiberphase import (
    GyrotropicMedium,
    classify,
    refractive_indices,
)


class TestRefractiveIndices:
    def test_negative_eps1_positive_eps2(self):
        n_plus_sq, n_minus_sq = refractive_indices(GyrotropicMedium(-1.0, 2.0, 1.0, 1.0))
        assert n_plus_sq == 1.0
        assert n_minus_sq == -3.0

    def test_isotropic(self):
        n_plus_sq, n_minus_sq = refractive_indices(GyrotropicMedium(1.0, 0.0, 1.0, 1.0))
        assert n_plus_sq == 1.0 and n_minus_sq == 1.0

    def test_negative_eps2_flips_branches(self):
        n_plus_sq, n_minus_sq = refractive_indices(GyrotropicMedium(-1.0, -2.0, 1.0, 1.0))
        assert n_plus_sq == -3.0
        assert n_minus_sq == 1.0

    def test_sum_difference_identities_exact(self):
        for eps1, eps2, mu in [(-1.0, 2.0, 1.0), (2.5, -0.75, 2.0), (0.5, 0.25, 4.0)]:
            m = GyrotropicMedium(eps1, eps2, 1.0, mu)
            n_plus_sq, n_minus_sq = refractive_indices(m)
            assert n_plus_sq + n_minus_sq == 2.0 * mu * eps1
            assert n_plus_sq - n_minus_sq == 2.0 * mu * eps2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GyrotropicMedium(float("nan"), 0.0, 1.0, 1.0)


class TestClassify:
    def test_appendix_positive_eps2(self):
        plus, minus = classify(GyrotropicMedium(-1.0, 2.0, 1.0, 1.0), omega=1.0)
        assert plus.status == "propagating" and plus.propagation_constant == 1.0
        assert minus.status == "evanescent"
        assert minus.propagation_constant == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_isotropic_both_propagate(self):
        plus, minus = classify(GyrotropicMedium(1.0, 0.0, 1.0, 1.0), omega=2.0)
        assert plus.status == minus.status == "propagating"
        assert plus.propagation_constant == minus.propagation_constant == 2.0

    def test_negative_eps2_only_minus_propagates(self):
        plus, minus = classify(GyrotropicMedium(-1.0, -2.0, 1.0, 1.0), omega=1.0)
        assert plus.status == "evanescent"
        assert minus.status == "propagating"

    def test_boundary_counts_as_evanescent(self):
        plus, _ = classify(GyrotropicMedium(-1.0, 1.0, 1.0, 1.0), omega=1.0)
        assert plus.n_squared == 0.0
        assert plus.status == "evanescent"
        assert plus.propagation_constant == 0.0

    def test_monotone_flip_at_threshold(self):
        # the plus branch flips exactly where epsilon2 = -epsilon1
        eps1 = -1.0
        statuses = []
        for eps2 in (0.5, 0.999, 1.0, 1.001, 2.0):
            plus, _ = classify(GyrotropicMedium(eps1, eps2, 1.0, 1.0), omega=1.0)
            statuses.append(plus.status)
        assert statuses == ["evanescent", "evanescent", "evanescent", "propagating", "propagating"]

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            classify(GyrotropicMedium(1.0, 0.0, 1.0, 1.0), omega=0.0)


    def test_boundary_constant_is_positive_zero(self):
        # sqrt(-n^2) of n^2 = +0.0 would be -0.0, and mu < 0 times eps1 +/- eps2 = +0.0 is n^2 = -0.0.
        boundaries = [
            classify(GyrotropicMedium(-1.0, 1.0, 1.0, 1.0), omega=1.0)[0],
            classify(GyrotropicMedium(1.0, 1.0, 1.0, 1.0), omega=2.0)[1],
            classify(GyrotropicMedium(1.0, -1.0, 1.0, -1.0), omega=1.0)[0],
            classify(GyrotropicMedium(1.0, 1.0, 1.0, -1.0), omega=1.0)[1],
        ]
        for verdict in boundaries:
            assert verdict.n_squared == 0.0 and math.copysign(1.0, verdict.n_squared) == 1.0
            assert math.copysign(1.0, verdict.propagation_constant) == 1.0

    @pytest.mark.parametrize(
        "medium, omega, branch",
        [
            (GyrotropicMedium(1e308, 1e308, 1.0, 1.0), 1.0, "plus"),
            (GyrotropicMedium(1e308, -1e308, 1.0, 1.0), 1.0, "minus"),
            # n^2 = 0 * inf is nan.
            (GyrotropicMedium(1e308, 1e308, 1.0, 0.0), 1.0, "plus"),
            # n^2 is finite, the constant sqrt(n^2) * omega is not.
            (GyrotropicMedium(1e300, 0.0, 1.0, 1.0), 1e300, "plus"),
        ],
        ids=["n-squared-inf", "minus-n-squared-inf", "n-squared-nan", "constant-inf"],
    )
    def test_refuses_non_finite_branch(self, medium, omega, branch):
        with pytest.raises(ValueError, match=f"^{branch} branch overflows"):
            classify(medium, omega)

    @pytest.mark.parametrize("omega", [float("nan"), float("inf")])
    def test_refuses_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match="omega"):
            classify(GyrotropicMedium(1.0, 0.0, 1.0, 1.0), omega)
