"""Geometric phases: closed-form quadrature and direct Schrodinger evolution.

Two independent routes to the same physics.  The closed form multiplies
the anholonomy integral of the tangent trace by a spin-3 expectation;
the numerical route integrates i d|psi>/dt = H(t)|psi> under the
effective Hamiltonian H = (k x kdot)/|k|^2 . S with fixed-step RK4 and
separates total, dynamical and geometric parts afterwards.

One evolution is one pass: the precession field u = (k x kdot)/|k|^2 is
the trajectory's own, built once per trajectory.  H = u.S is linear,
so an RK4 step is psi -> M psi with a d x d matrix M, the stage
formulas applied to the identity; these matrices are built in batches
of steps, and the only per-step Python work left is the product M psi,
one ndarray.dot that writes the new state into its stored row.
The energies <psi|H|psi> of a batch are one batched product after its
loop.  The phase series is an array expression over the step
boundaries.  The Liouville-von Neumann residual of the helicity
invariant is the trajectory's motion residual rescaled, a trajectory
diagnostic: evolve_state never reads it, and the scenario runner
computes it next to the motion identity.

H conserves photon number, so the evolution runs only on the sectors the
initial state occupies, with generators built on those sectors alone,
and the step guard is the closed form N|u|.  With S = -iA for real A,
K = -iH = -u.A is real, so M is built in real arithmetic.

Sign convention: a phase reported as +phi appears on the state as the
amplitude factor exp(-i phi), so the reported total is
-arg<psi(0)|psi(t)> and a right-handed photon on a counterclockwise
cone accumulates a positive geometric phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .fock import (
    FockSpace,
    OperatorMatrix,
    StateVector,
    _field_operator,
    helicity_expectation,
    occupied_sectors,
    sector_generators,
    spin_scale,
)
from .geometry import TangentTrajectory, _row_norms, grid_index

STEP_GUARD = 0.1
# Bytes of one (chunk, d, d) real stack of per-step matrices in evolve_state.
CHUNK_BYTES = 64 * 1024
OVERLAP_FLOOR = 1e-6
TWO_PI = 2.0 * math.pi


class StepGuardError(ValueError):
    """A grid whose bound max|H|*dt reaches STEP_GUARD, refused by evolve_state before any RK4 step."""

    def __init__(self, bound: float):
        self.bound = bound
        super().__init__(f"step-size guard violated: bound max|H|*dt = {bound:.3e} >= {STEP_GUARD}; refine the grid")


@dataclass(frozen=True)
class PhaseBreakdown:
    """Phase components of one evolution, all in radians.

    geometric_phase is total_phase - dynamical_phase by definition;
    closed_form_phase is the independent quadrature prediction
    s3_expectation * anholonomy_integral, meaningful for helicity
    eigenstates.
    """

    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    geometric_phase_mod_2pi: float
    closed_form_phase: float
    anholonomy_integral: float

    @classmethod
    def from_series(cls, series: dict[str, np.ndarray], s3_expectation: float, anholonomy: float) -> "PhaseBreakdown":
        """End-point phases of a phase_series plus the closed-form prediction."""
        total = float(series["total"][-1])
        dynamical = float(series["dynamical"][-1])
        geometric = total - dynamical
        mod = geometric % TWO_PI
        return cls(
            total_phase=total,
            dynamical_phase=dynamical,
            geometric_phase=geometric,
            # A tiny negative phase reduces to TWO_PI itself; fold it onto 0.
            geometric_phase_mod_2pi=mod if mod < TWO_PI else 0.0,
            closed_form_phase=float(s3_expectation) * anholonomy,
            anholonomy_integral=anholonomy,
        )


@dataclass(frozen=True)
class EvolutionResult:
    """States and diagnostics from one RK4 integration, over the step boundaries.

    states holds the amplitudes on the evolved sectors only, one row of
    length len(keep) per boundary; sectors lists their photon numbers,
    keep their basis indices, and every other amplitude is exactly zero.
    norms holds |psi| and energies <psi|H|psi> at each boundary, the
    latter the integrand of the dynamical phase.
    """

    space: FockSpace
    times: np.ndarray
    sectors: list[int]
    keep: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    max_h_dt: float

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def state_at(self, index: int) -> StateVector:
        """The state at a boundary over the whole space."""
        amplitudes = np.zeros(self.space.dimension, dtype=complex)
        amplitudes[self.keep] = self.states[index]
        return StateVector(self.space, amplitudes)


def effective_hamiltonian(traj: TangentTrajectory, spin: tuple[OperatorMatrix, ...], t: float) -> OperatorMatrix:
    """H(t) = (k x kdot)/|k|^2 . S at a grid time t.

    Homogeneous of degree zero in the tangent magnitude, so rescaling
    all tangents leaves every entry unchanged.
    """
    u = traj.precession_field[grid_index(traj.times, t)]
    return OperatorMatrix(spin[0].space, _field_operator(u, [op.entries for op in spin]))


def _lvn_residuals(traj: TangentTrajectory, scale: float, indices: np.ndarray) -> np.ndarray:
    """Max-norm of dI/dt + (1/i)[I, H] for I = khat.S at the given samples.

    The norm is taken on the union of the occupation-bounded subspace and
    the complete photon-number sectors, where the truncated spin algebra
    is exact; the full matrix always carries an O(1) cutoff defect that
    says nothing about the trajectory.  Each S_i conserves photon number,
    and two basis states of one sector lie both in a complete sector or,
    if both are kept, both in the bounded block, so on every pair the
    norm reads [S_i, S_j] = i eps_ijk S_k.  At n_max = 1 the bounded
    block is the vacuum alone and the one-photon sector is what makes
    the check able to fail.  The residual operator is v.S with
    v = khat_dot + khat x u = (kdot + k x u)/|k|, the motion residual
    over |k| (constant tangent magnitude assumed), and since every pair
    of basis states is linked by at most one S_i its max-norm is
    max_i |v_i| * scale, with scale = fock.spin_scale(space) the
    max|S_i| all three components share on that block; a positive scale
    keeps the order of rounded products, so the max is taken first.
    Differencing noise in the stored derivative data shows up in the
    residual instead of being projected away.
    """
    norms = _row_norms(traj.tangents[indices])[:, None]
    v = traj.motion_residual[indices] / norms
    return np.abs(v).max(axis=1) * scale


def lvn_residual(traj: TangentTrajectory, space: FockSpace, t: float) -> float:
    """Liouville-von Neumann residual of the helicity invariant at time t, on a 3-mode space."""
    i = grid_index(traj.times, t)
    return float(_lvn_residuals(traj, spin_scale(space), np.array([i]))[0])


def check_rk4_grid(times: np.ndarray) -> None:
    """Raise ValueError unless times holds 2N+1 samples, each odd one centred between its neighbours."""
    n = len(times)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"trajectory grid must hold an odd number >= 3 of samples, got {n}")
    halves = np.diff(times)
    if np.abs(halves[0::2] - halves[1::2]).max() > 1e-9 * halves.max():
        raise ValueError("each RK4 step needs its midpoint sample centered in the pane")


def evolve_state(psi0: StateVector, traj: TangentTrajectory) -> EvolutionResult:
    """Integrate i d|psi>/dt = H(t)|psi> along the trajectory grid.

    The grid must hold 2N+1 samples; each RK4 step spans two intervals
    and uses the middle sample for the internal stages, which keeps the
    scheme fourth order without interpolating H.  With H0, H1, H2 the
    field operators at a step's three samples and h its length, the
    step is psi -> M psi with K1 = -i H0, K2 = -i H1 (I + h/2 K1),
    K3 = -i H1 (I + h/2 K2), K4 = -i H2 (I + h K3) and
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4): the RK4 stages applied to the
    identity.  H conserves photon number, so only the sectors psi0
    occupies are integrated, on the generators A_i of
    fock.sector_generators (S_i = -i A_i); there K = -iH = -u.A is real
    and so is M.  These matrices are built as real batched products for
    CHUNK_BYTES worth of steps at a time, so scratch memory stays flat
    in the step count; each batch's sum for M is assembled in place and
    copied into the real part of one complex buffer, allocated once per
    call.  Only u = traj.precession_field is read; the motion residual
    is left unbuilt.  The step loop only applies M: mj.dot(psi, out=row)
    writes each new state straight into its row of states, the same BLAS
    product as mj @ psi with no temporary.  The energies <psi|H0|psi>
    before a batch's steps are one batched product after its loop.  Norms
    are recorded at every step and the drift is left in as an integration
    diagnostic.  states holds the sector block, (steps + 1, len(keep));
    state_at gives a state over the whole space.  The guard
    max|H| * step <= N_top * max|u| * step (N_top the largest occupied
    sector) holds because a complete sector N has spectral radius N|u|
    and, by Cauchy interlacing, a sector cut off at n_max no larger; it
    is enforced (StepGuardError) and reported, never silently accepted.
    """
    check_rk4_grid(traj.times)
    if abs(psi0.norm() - 1.0) > 1e-9:
        raise ValueError(f"initial state must be normalized, |norm - 1| = {abs(psi0.norm() - 1.0):.3e}")

    times = traj.times
    u = traj.precession_field
    sectors = occupied_sectors(psi0)
    keep, a = sector_generators(psi0.space, sectors)
    step_h = times[2::2] - times[0:-2:2]
    max_h_dt = float(sectors[-1] * _row_norms(u).max() * step_h.max())
    if max_h_dt >= STEP_GUARD:
        raise StepGuardError(max_h_dt)

    steps = (len(times) - 1) // 2
    d = len(keep)
    # Distinct mode pairs never share a matrix entry, so each entry of u.A has
    # one nonzero term and this product has the bits of _field_operator(u, a).
    flat_a = np.reshape(a, (3, d * d))
    chunk = max(1, CHUNK_BYTES // (8 * d * d))
    eye = np.eye(d)
    # The complex M of a batch; its imaginary part stays zero.
    m_buf = np.zeros((min(chunk, steps), d, d), dtype=complex)
    states = np.empty((steps + 1, d), dtype=complex)
    norms = np.empty(steps + 1)
    energies = np.empty(steps + 1)
    psi = states[0] = psi0.amplitudes[keep]
    norms[0] = np.linalg.norm(psi)
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        # The RK4 stages applied to the identity, with K = -u.A real:
        # psi -> m[j] @ psi is step start + j.
        h = step_h[start:stop, None, None]
        # Step j ends on the sample step j + 1 starts from.
        g_even = (u[2 * start : 2 * stop + 1 : 2] @ flat_a).reshape(-1, d, d)
        g0, g2 = g_even[:-1], g_even[1:]
        g1 = (u[2 * start + 1 : 2 * stop : 2] @ flat_a).reshape(-1, d, d)
        k1 = -g0
        k2 = -(g1 @ (eye + 0.5 * h * k1))
        k3 = -(g1 @ (eye + 0.5 * h * k2))
        k4 = -(g2 @ (eye + h * k3))
        # eye + (h/6) (k1 + 2 k2 + 2 k3 + k4), the same IEEE operations in the same order.
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= h / 6.0
        k1 += eye
        m = m_buf[: stop - start]
        m.real = k1
        # The product lands in the stored row: no temporary, the zgemv of mj @ psi.
        for mj, row in zip(m, states[start + 1 : stop + 1]):
            mj.dot(psi, out=row)
            psi = row
        norms[start + 1 : stop + 1] = np.linalg.norm(states[start + 1 : stop + 1], axis=1)
        # <psi|H0|psi> before each step, with H0 = -i g0, as 1 x d @ d x 1 products:
        # the bits np.vdot gives on the contiguous rows.
        before = states[start:stop, :, None]
        energies[start:stop] = (before.conj().transpose(0, 2, 1) @ ((-1j * g0) @ before))[:, 0, 0].real
    # The last chunk's final g_even is u[-1].A.
    energies[steps] = np.vdot(psi, (-1j * g_even[-1]) @ psi).real

    return EvolutionResult(
        space=psi0.space,
        times=times[::2].copy(),
        sectors=sectors,
        keep=keep,
        states=states,
        norms=norms,
        energies=energies,
        max_h_dt=max_h_dt,
    )


def phase_series(result: EvolutionResult) -> dict[str, np.ndarray]:
    """Per-step phase accumulations extracted from an evolution.

    The overlaps are taken on the evolved sector block.  Returns arrays
    over the step boundaries: the reported total phase
    -arg<psi(0)|psi(t)> (unwrapped), the dynamical accumulation of
    <psi|H|psi> and their difference, the geometric phase.  The times
    and norms are the result's own.
    """
    overlaps = result.states @ result.states[0].conj()
    mags = np.abs(overlaps)
    if mags.min() < OVERLAP_FLOOR:
        worst = int(np.argmin(mags))
        raise ValueError(
            f"phase extraction ill-conditioned: |<psi(0)|psi(t)>| = {mags.min():.3e} "
            f"at t = {float(result.times[worst])!r}"
        )
    total = -np.unwrap(np.angle(overlaps))
    total -= total[0]
    dynamical = quadrature.cumulative_dense(result.energies, result.times)
    return {"total": total, "dynamical": dynamical, "geometric": total - dynamical}


def extract_phases(result: EvolutionResult, traj: TangentTrajectory) -> PhaseBreakdown:
    """Total/dynamical/geometric phases of an evolution plus the closed form.

    The closed form multiplies the anholonomy by the initial helicity
    expectation <psi(0)| k(0).S |psi(0)> (fock.helicity_expectation, on
    the evolved sectors), which reproduces it for helicity eigenstates;
    for other initial states the closed-form column is only an
    eigenstate-weighted average and the numerical route is authoritative.
    """
    if (len(traj.times) + 1) // 2 != len(result.times):
        raise ValueError("evolution result does not match this trajectory grid")
    s3_expectation = helicity_expectation(result.state_at(0), traj.unit_tangents[0])
    anholonomy = float(traj.running_anholonomy()[-1])
    return PhaseBreakdown.from_series(phase_series(result), s3_expectation, anholonomy)


def evolution_operator_V(polar_angle: float, azimuth: float, space: FockSpace) -> OperatorMatrix:
    """Unitary V = exp(beta S+ - beta* S-) with beta = -(lam/2) e^{-i gamma}.

    V maps the spin-3 eigenbasis onto the helicity eigenbasis of the
    direction (polar_angle, azimuth): V+ (k.S) V = S3 on every complete
    total-occupation sector of the space.  The exponent is -i G with the
    Hermitian generator G = i(beta S+ - beta* S-) = lam n.S, n = (-sin gamma,
    cos gamma, 0), which conserves photon number: one eigendecomposition
    of G per sector, and V is 0 between sectors.
    """
    if not math.isfinite(polar_angle):
        raise ValueError(f"polar_angle must be finite, got {polar_angle!r}")
    if not math.isfinite(azimuth):
        raise ValueError(f"azimuth must be finite, got {azimuth!r}")
    rotation = polar_angle * np.array([-math.sin(azimuth), math.cos(azimuth), 0.0])
    v = np.zeros((space.dimension, space.dimension), dtype=complex)
    for sector in range(3 * space.n_max + 1):
        keep, a = sector_generators(space, [sector])
        w, q = np.linalg.eigh(-1j * _field_operator(rotation, a))
        v[np.ix_(keep, keep)] = (q * np.exp(-1j * w)) @ q.conj().T
    return OperatorMatrix(space, v)
