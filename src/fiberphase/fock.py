"""Truncated multimode bosonic Fock spaces and photon spin operators.

The state space is the tensor product of 2 or 3 harmonic modes, each cut
off at occupation ``n_max``.  Two-mode spaces carry the circular modes
(right- and left-handed) directly; three-mode spaces carry the Cartesian
modes b1, b2, b3 of the laboratory frame, from which the circular and
spin operators are assembled.  The library operators are dense complex
arrays in units with hbar = 1; the runner needs none of them.

Each spin component is a one-body bilinear, S_i = -i A_i with
A_i = b_j+ b_k - b_k+ b_j real, so it conserves photon number;
sector_generators builds the A_i on any photon-number sectors from
ladder moves over the basis array.  It is their only construction:
spin_fixed is -i A_i over every sector.  spin_scale and sector_size
give the Liouville-von Neumann norm scale of a box and the size of a
sector in closed form, with no basis, and build_photon_state applies
creation operators by index shifts.  Nothing on the runner's path is
(n_max+1)^3 square.

The spin projected onto a direction, v.S or v.A, is one construction,
_field_operator, on dense spin matrices or on generators: the helicity
k.S here, and in phases the run's u.A and evolution_operator_V's
generator.  A run reads its energies and
invariants off the state's spin <S>, not off a projected matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIT_VECTOR_TOL = 1e-12


@dataclass(frozen=True)
class FockSpace:
    """Truncated occupation-number basis for 2 or 3 bosonic modes.

    The basis enumeration is lexicographic in the occupation tuple
    (n1, ..., nm), the C order of the box, which makes every matrix and
    vector layout in this package reproducible byte for byte.
    """

    num_modes: int
    n_max: int

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** self.num_modes

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The occupations as a read-only int array (dimension, num_modes), row i for basis state i."""
        m = self.num_modes
        return _readonly(np.indices((self.n_max + 1,) * m).reshape(m, -1).T)

    def index_of(self, occupation: tuple[int, ...]) -> int:
        try:
            return int(np.ravel_multi_index(tuple(occupation), (self.n_max + 1,) * self.num_modes))
        except ValueError:
            raise ValueError(f"occupation {occupation!r} not in basis") from None

    def bounded_indices(self) -> np.ndarray:
        """Indices of states with every mode occupation <= n_max - 1.

        Truncation breaks [b, b+] = 1 on the top rung, so canonical
        commutator identities are only exact on this subspace.
        """
        return np.flatnonzero((self.basis < self.n_max).all(axis=1))

    def complete_sector_indices(self) -> np.ndarray:
        """Indices of states with total occupation <= n_max.

        Total-number sectors up to n_max survive the per-mode cutoff
        intact; rotation identities built from exponentials of the spin
        algebra are exact only there.
        """
        return np.flatnonzero(self.basis.sum(axis=1) <= self.n_max)


def build_space(num_modes: int, n_max: int) -> FockSpace:
    """Build the truncated Fock space with lexicographic basis order."""
    if num_modes not in (2, 3):
        raise ValueError(f"num_modes must be 2 or 3, got {num_modes}")
    if not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    return FockSpace(num_modes=int(num_modes), n_max=int(n_max))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix representing an operator on a FockSpace."""

    space: FockSpace
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        d = self.space.dimension
        if entries.shape != (d, d):
            raise ValueError(f"entries shape {entries.shape} does not match dimension {d}")
        object.__setattr__(self, "entries", _readonly(entries))

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.entries.conj().T)

    def apply(self, state: "StateVector") -> "StateVector":
        self._check_space(state.space)
        return StateVector(self.space, self.entries @ state.amplitudes)

    def _check_space(self, other: FockSpace) -> None:
        if other is not self.space and other != self.space:
            raise ValueError("operands live on different Fock spaces")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_space(other.space)
        return OperatorMatrix(self.space, self.entries @ other.entries)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_space(other.space)
        return OperatorMatrix(self.space, self.entries + other.entries)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_space(other.space)
        return OperatorMatrix(self.space, self.entries - other.entries)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.entries * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a FockSpace basis."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.space.dimension,):
            raise ValueError(f"amplitude length {amp.shape} does not match dimension {self.space.dimension}")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _readonly(amp))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def expectation(self, op: OperatorMatrix) -> complex:
        return complex(np.vdot(self.amplitudes, op.entries @ self.amplitudes))


def vacuum_state(space: FockSpace) -> StateVector:
    return basis_state(space, (0,) * space.num_modes)


def basis_state(space: FockSpace, occupation: tuple[int, ...]) -> StateVector:
    amp = np.zeros(space.dimension, dtype=complex)
    amp[space.index_of(occupation)] = 1.0
    return StateVector(space, amp)


def annihilation(space: FockSpace, mode: int) -> OperatorMatrix:
    """Annihilation operator for one mode, <n-1|b|n> = sqrt(n)."""
    if not 0 <= mode < space.num_modes:
        raise ValueError(f"mode {mode} out of range for {space.num_modes} modes")
    d = space.dimension
    m = np.zeros((d, d), dtype=complex)
    n = space.basis[:, mode]
    rows = np.flatnonzero(n > 0)
    m[rows - _stride(space, mode), rows] = np.sqrt(n[rows])
    return OperatorMatrix(space, m)


def identity(space: FockSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dimension, dtype=complex))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return a @ b - b @ a


def circular_operators(space: FockSpace) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Right- and left-handed circular mode operators (a_R, a_R+, a_L, a_L+).

    In a 2-mode space the two modes are the circular modes themselves.
    In a 3-mode space the circular operators mix the transverse Cartesian
    modes: a_R+ = (b1+ + i b2+)/sqrt(2), a_L+ = (b1+ - i b2+)/sqrt(2).
    """
    if space.num_modes == 2:
        a_r = annihilation(space, 0)
        a_l = annihilation(space, 1)
    else:
        b1 = annihilation(space, 0)
        b2 = annihilation(space, 1)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        a_r = inv_sqrt2 * (b1 - 1j * b2)
        a_l = inv_sqrt2 * (b1 + 1j * b2)
    return a_r, a_r.dagger(), a_l, a_l.dagger()


def spin_fixed(space: FockSpace) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Photon spin components in the laboratory frame (3-mode spaces only).

    S1 = -i(b2+ b3 - b3+ b2), S2 = -i(b3+ b1 - b1+ b3),
    S3 = -i(b1+ b2 - b2+ b1), i.e. -i A_i for the sector_generators A_i of
    every sector.  The triple obeys S x S = iS on the occupation-bounded
    subspace.
    """
    _, generators = sector_generators(space, range(3 * space.n_max + 1))
    return tuple(OperatorMatrix(space, -1j * a) for a in generators)


# (j, k) of S_i = -i(b_j+ b_k - b_k+ b_j) for i = 1, 2, 3, modes counted from 0.
_SPIN_MODES = ((1, 2), (2, 0), (0, 1))


def _stride(space: FockSpace, mode: int) -> int:
    """How far one quantum in mode moves a basis index: the box is in C order."""
    return (space.n_max + 1) ** (space.num_modes - 1 - mode)


def _hops(space: FockSpace, rows: np.ndarray, j: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where b_j+ b_k (j != k) takes the basis states rows: (states it acts on, their targets, entries).

    An entry is sqrt(n_j + 1) * sqrt(n_k), the product of the two ladder
    factors the dense matrix product multiplies, so both constructions
    round it alike.
    """
    occupations = space.basis[rows]
    moves = (occupations[:, k] > 0) & (occupations[:, j] < space.n_max)
    source = rows[moves]
    target = source + _stride(space, j) - _stride(space, k)
    return source, target, np.sqrt(occupations[moves, j] + 1.0) * np.sqrt(occupations[moves, k])


def sector_size(space: FockSpace, n: int) -> int:
    """How many basis states of the box hold n photons in all, by inclusion-exclusion over the modes past n_max."""
    m, top = space.num_modes, space.n_max + 1
    return sum((-1) ** j * math.comb(m, j) * math.comb(n - j * top + m - 1, m - 1) for j in range(m + 1) if n >= j * top)


def occupied_sectors(state: StateVector) -> list[int]:
    """Photon numbers on which the state has a nonzero amplitude, ascending, from their indices alone."""
    space = state.space
    occupations = np.unravel_index(np.flatnonzero(state.amplitudes), (space.n_max + 1,) * space.num_modes)
    return np.flatnonzero(np.bincount(np.sum(occupations, axis=0), minlength=1)).tolist()


def sector_generators(space: FockSpace, sectors) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of the given photon-number sectors and the spin generators on them.

    Returns (keep, a): keep the ascending basis indices whose total
    occupation is one of sectors, and a the (3, d, d) stack of the real
    antisymmetric matrices A_i = b_j+ b_k - b_k+ b_j on those rows and
    columns, so that S_i = -i A_i.  The entries come from the ladder
    moves of the basis, sectors the cutoff truncates included; no
    (n_max+1)^3 square matrix is built.
    """
    if space.num_modes != 3:
        raise ValueError("spin components require a 3-mode space")
    totals = space.basis.sum(axis=1)
    wanted = np.zeros(3 * space.n_max + 1, dtype=bool)
    for n in sectors:
        if not 0 <= n <= 3 * space.n_max:
            raise ValueError(f"sector {n!r} outside 0..{3 * space.n_max}")
        wanted[n] = True
    keep = np.flatnonzero(wanted[totals])
    position = np.zeros(space.dimension, dtype=int)
    position[keep] = np.arange(len(keep))
    generators = np.zeros((3, len(keep), len(keep)))
    for a, (j, k) in zip(generators, _SPIN_MODES):
        for sign, p, q in ((1.0, j, k), (-1.0, k, j)):
            source, target, values = _hops(space, keep, p, q)
            a[position[target], position[source]] = sign * values
    return keep, generators


def spin_scale(space: FockSpace) -> float:
    """max|S_i|, the one value i = 1, 2, 3 share, on the block where the truncated spin algebra is exact.

    The block is the union of the occupation-bounded states and the
    complete photon-number sectors (see FockSpace.bounded_indices and
    complete_sector_indices).  An entry of S_i is sqrt(a) * sqrt(b) for a
    move b_j+ b_k with a = n_j + 1 after it and b = n_k before it; an
    empty third mode keeps the most moves inside the block: those with
    a, b <= n_max - 1 and, beyond them, (n_max, 1) and (1, n_max).
    Rounding keeps the order of the products, so the largest is
    sqrt(n_max - 1) squared or sqrt(n_max).  That equals
    np.abs(spin_fixed(space)[i].entries[box]).max() on the block bit for
    bit for each i; no basis is built.
    """
    if space.num_modes != 3:
        raise ValueError("spin components require a 3-mode space")
    n = space.n_max
    return max(math.sqrt(n - 1) * math.sqrt(n - 1), math.sqrt(n))


def _check_unit(k_hat: np.ndarray) -> np.ndarray:
    k = np.asarray(k_hat, dtype=float)
    if k.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if not abs(np.linalg.norm(k) - 1.0) <= UNIT_VECTOR_TOL:  # NaN fails too
        raise ValueError(f"direction must be a unit vector, |k| = {float(np.linalg.norm(k))!r}")
    return k


def _field_operator(v: np.ndarray, s) -> np.ndarray:
    """v . S for the three matrices s (spin or generators); v is one 3-vector or a stack (..., 3) of them.

    One matrix product over s's first axis.  On the generators distinct mode
    pairs never share an entry, so each entry is the exact product v_i * A_i.
    """
    return np.tensordot(v, s, axes=1)


def helicity_operator(space: FockSpace, k_hat: np.ndarray) -> OperatorMatrix:
    """Projection of the spin onto the unit propagation direction k_hat."""
    k = _check_unit(k_hat)
    return OperatorMatrix(space, _field_operator(k, [op.entries for op in spin_fixed(space)]))


def s3_split(space: FockSpace) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Per-handedness pieces of S3 in both operator orderings.

    Returns (r_nonnormal, l_nonnormal, r_normal, l_normal) with

        r_normal    =  a_R+ a_R          l_normal    = -a_L+ a_L
        r_nonnormal =  a_R+ a_R + 1/2    l_nonnormal = -(a_L+ a_L + 1/2)

    The half-quantum shifts come from applying the exchange identity
    a a+ = a+ a + 1 before truncation, so the two orderings sum to the
    same matrix exactly: the zero-point shifts of the two handednesses
    cancel in the total.
    """
    a_r, a_r_dag, a_l, a_l_dag = circular_operators(space)
    half = 0.5 * identity(space)
    r_normal = a_r_dag @ a_r
    l_normal = -1.0 * (a_l_dag @ a_l)
    r_nonnormal = r_normal + half
    l_nonnormal = l_normal - half
    return r_nonnormal, l_nonnormal, r_normal, l_normal


def _rotation_to_direction(k_hat: np.ndarray) -> np.ndarray:
    """Rotation matrix taking the z axis to k_hat.

    Minimal rotation about z x k_hat; at the poles the gauge is fixed to
    the identity (k = +z) or a half turn about x (k = -z).
    """
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.clip(k_hat[2], -1.0, 1.0))
    axis = np.cross(z, k_hat)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        if c > 0.0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])
    axis = axis / s
    angle = math.atan2(s, c)
    return _axis_angle_matrix(axis, angle)


def _axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def polarization_triad(k_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two real unit polarization vectors transverse to k_hat.

    Gauge: (e1, e2) = (x, y) at k = z, transported elsewhere by the
    minimal rotation taking z to k_hat.  By construction e1 x e2 = k_hat,
    so the antisymmetric combinations e_i f_j - e_j f_i reproduce the
    spherical components of k_hat.
    """
    k = _check_unit(k_hat)
    rot = _rotation_to_direction(k)
    return rot[:, 0].copy(), rot[:, 1].copy()


def build_photon_state(space: FockSpace, n_r: int, n_l: int, k_hat: np.ndarray | None = None) -> StateVector:
    """Normalized state with n_r right- and n_l left-handed photons.

    In 3-mode spaces the circular quanta occupy the transverse modes of
    the direction k_hat (default +z); the combined Cartesian occupations
    must fit under the cutoff, i.e. n_r + n_l <= n_max.  In 2-mode
    spaces the occupations fill the two circular modes directly.
    """
    if n_r < 0 or n_l < 0:
        raise ValueError("photon numbers must be non-negative")
    if space.num_modes == 2:
        if k_hat is not None:
            raise ValueError("a propagation direction only applies to 3-mode spaces")
        if n_r > space.n_max or n_l > space.n_max:
            raise ValueError(
                f"cutoff overflow: occupations ({n_r}, {n_l}) exceed n_max = {space.n_max}"
            )
        return basis_state(space, (n_r, n_l))

    if n_r + n_l > space.n_max:
        raise ValueError(
            f"cutoff overflow: n_r + n_l = {n_r + n_l} photons need n_max >= {n_r + n_l}, "
            f"space has n_max = {space.n_max}"
        )
    e1, e2 = polarization_triad(np.array([0.0, 0.0, 1.0]) if k_hat is None else k_hat)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    # a_R+ and a_L+ as combinations sum_m c_m b_m+, applied by index shifts.
    amp = vacuum_state(space).amplitudes.copy()
    for coefficients, count in ((inv_sqrt2 * (e1 + 1j * e2), n_r), (inv_sqrt2 * (e1 - 1j * e2), n_l)):
        for _ in range(count):
            amp = _create(space, amp, coefficients)
    return StateVector(space, amp / math.sqrt(math.factorial(n_r) * math.factorial(n_l)))


def _create(space: FockSpace, amp: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_m c_m b_m+ applied to an amplitude vector: each b_m+ moves n_m -> n_m + 1 with factor sqrt(n_m + 1)."""
    out = np.zeros_like(amp)
    for m, c in enumerate(coefficients):
        n = space.basis[:, m]
        rows = np.flatnonzero(n < space.n_max)
        out[rows + _stride(space, m)] += c * (np.sqrt(n[rows] + 1.0) * amp[rows])
    return out
