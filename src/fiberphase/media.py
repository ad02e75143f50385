"""Dispersion of circularly polarized waves in a gyroelectric medium.

The permittivity tensor has equal diagonal transverse components
epsilon1, an antisymmetric imaginary off-diagonal pair +/- i epsilon2,
and an axial component epsilon3; permeability mu is scalar.  For
propagation along the symmetry axis the two circular field
combinations decouple with refractive indices squared

    n_plus^2  = mu * (epsilon1 + epsilon2)
    n_minus^2 = mu * (epsilon1 - epsilon2)

so one handedness can propagate while the other is evanescent, which
is what lets a single handedness be isolated inside such a fibre.
Units: c = 1, omega supplied in the same units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GyrotropicMedium:
    """Real material parameters; epsilon3 plays no role for axial propagation
    but is kept so the tensor is fully specified."""

    epsilon1: float
    epsilon2: float
    epsilon3: float
    mu: float

    def __post_init__(self):
        for name in ("epsilon1", "epsilon2", "epsilon3", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DispersionVerdict:
    """One circular branch: propagating with real wavenumber, or
    evanescent with the magnitude of the imaginary propagation constant."""

    handedness: str  # "plus" or "minus" branch of n^2 = mu (eps1 +/- eps2)
    n_squared: float
    status: str  # "propagating" or "evanescent"
    propagation_constant: float


def refractive_indices(medium: GyrotropicMedium) -> tuple[float, float]:
    """(n_plus^2, n_minus^2) = mu * (epsilon1 +/- epsilon2).

    The sum and difference identities n+^2 + n-^2 = 2 mu eps1 and
    n+^2 - n-^2 = 2 mu eps2 hold exactly in this arithmetic.  A branch
    at n^2 = 0 reads +0.0: adding +0.0 turns the -0.0 of a negative
    factor times a zero into +0.0 and leaves every other value as it is.
    """
    n_plus_sq = medium.mu * (medium.epsilon1 + medium.epsilon2) + 0.0
    n_minus_sq = medium.mu * (medium.epsilon1 - medium.epsilon2) + 0.0
    return n_plus_sq, n_minus_sq


def classify(medium: GyrotropicMedium, omega: float) -> tuple[DispersionVerdict, DispersionVerdict]:
    """Per-branch propagation verdicts at angular frequency omega.

    A branch with n^2 > 0 propagates with k = sqrt(n^2) * omega; with
    n^2 <= 0 it is evanescent and the constant reported is the decay
    magnitude sqrt(-n^2) * omega (+0.0 exactly at the n^2 = 0 boundary).
    A ValueError refuses an omega that is not finite and positive, and
    a branch whose n^2 or constant overflows, naming that branch.

    The branches belong to the circular field combinations
    (E1 + i E2)/sqrt2 (plus) and (E1 - i E2)/sqrt2 (minus), so a purely
    circular field lands in one branch alone.  The plus combination
    carries left-handed annihilation with right-handed creation content
    and the minus combination the reverse, the convention of
    fock.circular_operators (a_R+ = (b1+ + i b2+)/sqrt2).
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    verdicts = []
    for handedness, n_sq in zip(("plus", "minus"), refractive_indices(medium)):
        # |n^2| is -n^2 on the evanescent side, but +0.0 where n^2 is +0.0.
        constant = math.sqrt(abs(n_sq)) * omega
        if not (math.isfinite(n_sq) and math.isfinite(constant)):
            raise ValueError(
                f"{handedness} branch overflows with epsilon2 = {medium.epsilon2!r}: n^2 = {n_sq!r}, "
                f"propagation constant = {constant!r}"
            )
        status = "propagating" if n_sq > 0 else "evanescent"
        verdicts.append(DispersionVerdict(handedness, n_sq, status, constant))
    return verdicts[0], verdicts[1]

