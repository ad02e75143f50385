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
    n+^2 - n-^2 = 2 mu eps2 hold exactly in this arithmetic.
    """
    n_plus_sq = medium.mu * (medium.epsilon1 + medium.epsilon2)
    n_minus_sq = medium.mu * (medium.epsilon1 - medium.epsilon2)
    return n_plus_sq, n_minus_sq


def classify(medium: GyrotropicMedium, omega: float) -> tuple[DispersionVerdict, DispersionVerdict]:
    """Per-branch propagation verdicts at angular frequency omega.

    A branch with n^2 > 0 propagates with k = sqrt(n^2) * omega; with
    n^2 <= 0 it is evanescent and the constant reported is the decay
    magnitude sqrt(-n^2) * omega (zero exactly at the n^2 = 0 boundary).

    The branches belong to the circular field combinations
    (E1 + i E2)/sqrt2 (plus) and (E1 - i E2)/sqrt2 (minus), so a purely
    circular field lands in one branch alone.  The plus combination
    carries left-handed annihilation with right-handed creation content
    and the minus combination the reverse, the convention of
    fock.circular_operators (a_R+ = (b1+ + i b2+)/sqrt2).
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    verdicts = []
    for handedness, n_sq in zip(("plus", "minus"), refractive_indices(medium)):
        if n_sq > 0:
            verdicts.append(
                DispersionVerdict(handedness, n_sq, "propagating", math.sqrt(n_sq) * omega)
            )
        else:
            verdicts.append(
                DispersionVerdict(handedness, n_sq, "evanescent", math.sqrt(-n_sq) * omega)
            )
    return verdicts[0], verdicts[1]

