"""Geometric phases: closed-form quadrature and direct Schrodinger evolution.

Two independent routes to the same physics.  The closed form multiplies
the anholonomy integral of the tangent trace by a spin-3 expectation;
the numerical route integrates i d|psi>/dt = H(t)|psi> under the
effective Hamiltonian H = (k x kdot)/|k|^2 . S with fixed-step RK4 and
separates total, dynamical and geometric parts afterwards.

One evolution is one pass: the precession field u = (k x kdot)/|k|^2 is
the trajectory's own, read a block of rows at a time.  H = u.S is linear,
so an RK4 step is psi -> M psi with a d x d matrix M, the stage
formulas applied to the identity.  On a cone every M is one constant
matrix turned about z, so the states are powers of one matrix, a block
of rows per product, with no per-step Python work; on any other path
the M are built in batches of steps and the only per-step Python work
left is the product M psi, one ndarray.dot that writes the new state
into its stored row.  Each stored state is read once, through its
fixed-frame spin <S>: the energy <psi|H|psi> = u.<S> and the helicity
invariant <psi|khat.S|psi> = khat.<S> are its two projections.  That
pass also gives the run CSV's polar angle lambda and azimuth gamma at
the step boundaries.  The phase series is an array expression over them.
lvn_residual rescales the trajectory's motion residual; no run calls it.

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
    occupied_sectors,
    sector_generators,
    spin_scale,
)
from .geometry import BLOCK_SAMPLES, TWO_PI, ConeTrajectory, TangentTrajectory, _row_norms, grid_index

STEP_GUARD = 0.1
# Bytes of one stack in evolve_state: a batch of step matrices, the cone's power table, or a block of states.
CHUNK_BYTES = 64 * 1024
OVERLAP_FLOOR = 1e-6


class StepGuardError(ValueError):
    """A grid whose bound max|H|*dt reaches STEP_GUARD, refused by evolve_state before any RK4 step."""

    def __init__(self, bound: float, remedy: str = "refine the grid"):
        self.bound = bound
        super().__init__(f"step-size guard violated: bound max|H|*dt = {bound:.3e} >= {STEP_GUARD}; {remedy}")


@dataclass(frozen=True)
class PhaseBreakdown:
    """Phase components of one evolution, all in radians.

    geometric_phase is total_phase - dynamical_phase by definition;
    closed_form_phase is the independent quadrature prediction
    s3_expectation * anholonomy, meaningful for helicity eigenstates.
    """

    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    geometric_phase_mod_2pi: float
    closed_form_phase: float

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
        )


@dataclass(frozen=True)
class EvolutionResult:
    """States and diagnostics from one RK4 integration, over the step boundaries.

    times views the trajectory's grid.  states holds the amplitudes on
    the evolved sectors only, one row of length len(keep) per boundary:
    sectors lists their photon numbers and keep their basis indices in
    psi0's space, where every other amplitude is exactly zero.  norms,
    energies, invariants, lam and gamma hold |psi|, u.<S> = <psi|H|psi>
    (the dynamical integrand), khat.<S> = <psi|khat.S|psi> and traj.lam
    and traj.gamma at each boundary.
    """

    times: np.ndarray
    sectors: list[int]
    keep: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    invariants: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    max_h_dt: float

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def effective_hamiltonian(traj: TangentTrajectory, spin: tuple[OperatorMatrix, ...], t: float) -> OperatorMatrix:
    """H(t) = (k x kdot)/|k|^2 . S at a grid time t.

    Homogeneous of degree zero in the tangent magnitude, so rescaling
    all tangents leaves every entry unchanged.
    """
    i = grid_index(traj.times, t)
    u = traj.rows(i, i + 1).precession_field[0]
    return OperatorMatrix(spin[0].space, _field_operator(u, [op.entries for op in spin]))


def lvn_residual(traj: TangentTrajectory, space: FockSpace, t: float) -> float:
    """Max-norm of dI/dt + (1/i)[I, H] for I = khat.S at a grid time t, on a 3-mode space.

    The norm is taken on the union of the occupation-bounded subspace and
    the complete photon-number sectors, where the truncated spin algebra
    is exact; the full matrix always carries an O(1) cutoff defect that
    says nothing about the trajectory.  Each S_i conserves photon number,
    and two basis states of one sector lie both in a complete sector or,
    if both are kept, both in the bounded block, so on every pair the
    norm reads [S_i, S_j] = i eps_ijk S_k.  At n_max = 1 the bounded
    block is the vacuum alone and the one-photon sector is what makes
    it nonzero.  The residual operator is v.S with
    v = khat_dot + khat x u = (kdot + k x u)/|k|, the motion residual
    over |k| (constant tangent magnitude assumed), and since every pair
    of basis states is linked by at most one S_i its max-norm is
    max_i |v_i| * scale, with scale = fock.spin_scale(space) the
    max|S_i| all three components share on that block; a positive scale
    keeps the order of rounded products, so the max is taken first.
    Differencing noise in the stored derivative data shows up in the
    residual instead of being projected away.
    """
    i = grid_index(traj.times, t)
    sample = traj.rows(i, i + 1)
    v = sample.motion_residual[0] / _row_norms(sample.tangents)[0]
    return float(np.abs(v).max() * spin_scale(space))


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
    scheme fourth order without interpolating H.  A step is psi -> M psi,
    M the RK4 stages applied to the identity (_step_matrices).  H
    conserves photon number, so only the sectors psi0 occupies are
    integrated, on the generators A_i of fock.sector_generators
    (S_i = -i A_i); there K = -iH = -u.A is real and so is M.  The
    trajectory is read through traj.rows a block at a time: no whole
    per-sample array is built.

    On a ConeTrajectory whose occupied sectors are all complete,
    _power_states gives the states as powers of one matrix, the field
    turning about z at 2*pi*turns; elsewhere (a sampled path, a scaled
    cone, a sector cut off at n_max) _loop_states applies each step's M.
    Each state psi = x + iy is then read once, CHUNK_BYTES of states at a
    time, for its norm and its spin <S_i> = 2 x.A_i y: the energies are
    u.<S>, the invariants khat.<S>, and the norm drift is left in as a
    diagnostic.  Each block of states reads its samples once, midpoints
    included: u, khat and lam at its boundaries, and gamma unwrapped
    through every sample by gamma_from, so it keeps its bits however far
    the azimuth turns in a step.  states holds the sector block,
    (steps + 1, len(keep)).  The guard max|H| * step <= N_top * max|u| *
    step (N_top the largest occupied sector) holds because a complete
    sector N has spectral radius N|u| and, by Cauchy interlacing, a
    sector cut off at n_max no larger; a bound at or over STEP_GUARD, or NaN, raises
    StepGuardError before any step, naming u's first non-finite sample
    if there is one.
    """
    check_rk4_grid(traj.times)
    if abs(psi0.norm() - 1.0) > 1e-9:
        raise ValueError(f"initial state must be normalized, |norm - 1| = {abs(psi0.norm() - 1.0):.3e}")

    times = traj.times
    sectors = occupied_sectors(psi0)
    keep, a = sector_generators(psi0.space, sectors)
    step_h = times[2::2] - times[0:-2:2]
    max_h_dt = float(sectors[-1] * traj.max_norms[0] * step_h.max())
    if not max_h_dt < STEP_GUARD:
        for start in range(0, len(times), BLOCK_SAMPLES):
            u = traj.rows(start, start + BLOCK_SAMPLES).precession_field
            bad = start + np.flatnonzero(~np.isfinite(u).all(axis=1))
            if bad.size:
                raise StepGuardError(max_h_dt, f"precession field sample {bad[0]} at t = {float(times[bad[0]])!r} is not finite")
        raise StepGuardError(max_h_dt)

    steps = (len(times) - 1) // 2
    d = len(keep)
    states = np.empty((steps + 1, d), dtype=complex)
    states[0] = psi0.amplitudes[keep]
    if isinstance(traj, ConeTrajectory) and sectors[-1] <= psi0.space.n_max:
        _power_states(states, times, traj.rows(0, 3).precession_field, a, TWO_PI * traj.turns)
    else:
        _loop_states(states, traj, step_h, a)

    # <S_i> = <psi|-iA_i|psi> = 2 x.A_i y for psi = x + iy, as A_i is real and antisymmetric.
    a_rows = np.concatenate(a, axis=1)
    norms, energies, invariants, lam, gamma = np.empty((5, steps + 1))
    rows = max(1, CHUNK_BYTES // (16 * d))
    carry = None
    for start in range(0, steps + 1, rows):
        stop = min(start + rows, steps + 1)
        # The block's boundaries and the midpoints after them: gamma unwraps through every sample.
        samples = traj.rows(2 * start, 2 * stop)
        unwrapped, carry = samples.gamma_from(carry)
        gamma[start:stop] = unwrapped[::2]
        lam[start:stop] = samples.lam[::2]
        khat = samples.unit_tangents[::2]
        # From the block's own tangents: a cone's rows(..., 2) would evaluate them again.
        u = TangentTrajectory(samples.times[::2], samples.tangents[::2], samples.derivatives[::2]).precession_field
        block = states[start:stop]
        spin = 2.0 * np.einsum("nid,nd->ni", (block.real @ a_rows).reshape(-1, 3, d), block.imag)
        energies[start:stop] = np.einsum("ni,ni->n", u, spin)
        invariants[start:stop] = np.einsum("ni,ni->n", khat, spin)
        norms[start:stop] = np.linalg.norm(block, axis=1)
    norms[0] = np.linalg.norm(states[0])  # psi0's own norm, by the 1-D kernel

    return EvolutionResult(
        times=times[::2],
        sectors=sectors,
        keep=keep,
        states=states,
        norms=norms,
        energies=energies,
        invariants=invariants,
        lam=lam,
        gamma=gamma,
        max_h_dt=max_h_dt,
    )


def _step_matrices(g0: np.ndarray, g1: np.ndarray, g2: np.ndarray, h, eye: np.ndarray) -> np.ndarray:
    """RK4 step matrices I + h/6 (K1 + 2 K2 + 2 K3 + K4) from g = u.A at a step's three samples.

    K1 = -g0, K2 = -g1 (I + h/2 K1), K3 = -g1 (I + h/2 K2) and
    K4 = -g2 (I + h K3); g a d x d matrix or a stack, h a scalar or (n, 1, 1).
    """
    k1 = -g0
    k2 = -(g1 @ (eye + 0.5 * h * k1))
    k3 = -(g1 @ (eye + 0.5 * h * k2))
    k4 = -(g2 @ (eye + h * k3))
    # The sum in place, in the IEEE operations and order of the expression.
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= h / 6.0
    k1 += eye
    return k1


def _loop_states(states: np.ndarray, traj: TangentTrajectory, step_h: np.ndarray, a: np.ndarray) -> None:
    """Fill states[1:] from states[0] a step at a time: u and M for CHUNK_BYTES of steps, then mj.dot(psi, out=row)."""
    steps, d = states.shape[0] - 1, states.shape[1]
    chunk = max(1, CHUNK_BYTES // (8 * d * d))
    m_buf = np.empty((min(chunk, steps), d, d), dtype=complex)
    eye = np.eye(d)
    psi = states[0]
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        # Step j ends on the sample step j + 1 starts from.
        u = traj.rows(2 * start, 2 * stop + 1).precession_field
        g_even = _field_operator(u[::2], a)
        g1 = _field_operator(u[1::2], a)
        m = m_buf[: stop - start]
        m[...] = _step_matrices(g_even[:-1], g1, g_even[1:], step_h[start:stop, None, None], eye)
        # The product lands in the stored row: no temporary, the zgemv of mj @ psi.
        for mj, row in zip(m, states[start + 1 : stop + 1]):
            mj.dot(psi, out=row)
            psi = row


def _power_states(states: np.ndarray, times: np.ndarray, u: np.ndarray, a: np.ndarray, rate: float) -> None:
    """Fill states[1:] from states[0] on a cone, as powers of one step matrix: no per-step Python work.

    u holds the precession field at samples 0 to 2.  u(t) is u(0)
    turned about z by rate * t, so with W_n the rotation of n steps
    M_n = W_n M_0 W_n^T and psi_n = W_n P^n psi_0, P = W_1^T M_0.
    W_1 = exp(+-rate h A_3), the sign that carries u.A from sample 0 to
    sample 2.  A table T_j = W_j P^j, j = 1..B, of at most CHUNK_BYTES
    gives B rows at a time: psi_{s+j} = W_s T_j P^s psi_0.
    """
    steps, d = states.shape[0] - 1, states.shape[1]
    h = (times[-1] - times[0]) / steps
    g0, g1, g2 = _field_operator(u, a)
    w = _expm((rate * h) * a[2])
    # exp(-x) = exp(x)^T for the antisymmetric x.
    gaps = [np.abs(r @ g0 @ r.T - g2).max() for r in (w, w.T)]
    if gaps[1] < gaps[0]:
        w = w.T
    if not min(gaps) <= 1e-9 * np.abs(g0).max():
        raise ValueError(f"azimuth rate {rate!r} does not turn the precession field from one step to the next")
    p = w.T @ _step_matrices(g0, g1, g2, h, np.eye(d))
    block = 1 << (max(1, min(steps, CHUNK_BYTES // (8 * d * d))).bit_length() - 1)
    table = np.empty((block, d, d))
    table[0] = w @ p
    # Doubling: T_{k+j} = W_k T_j P^k, until p and w hold P^B and W_B.
    k = 1
    while k < block:
        np.matmul(w @ table[:k], p, out=table[k : 2 * k])
        p = p @ p
        w = w @ w
        k *= 2
    # Complex vectors as real (d, 2) arrays, so every product stays real.
    phi = states[0].view(float).reshape(d, 2).copy()
    w_s = np.eye(d)
    for s in range(0, steps, block):
        n = min(block, steps - s)
        y = (table[:n].reshape(n * d, d) @ phi).reshape(n, d, 2)
        np.matmul(w_s, y, out=states[s + 1 : s + 1 + n].view(float).reshape(n, d, 2))
        phi = p @ phi
        w_s = w_s @ w


def _expm(x: np.ndarray) -> np.ndarray:
    """exp(x) of a real matrix from products alone: a Taylor series of x / 2**k, then k squarings."""
    norm = np.abs(x).sum(axis=0).max()
    squarings = math.ceil(math.log2(norm / 0.25)) if norm > 0.25 else 0
    x = x / 2.0**squarings
    out = np.eye(len(x)) + x
    term, k = x, 1
    # At |x|_1 <= 1/4 the terms fall below 2**-60 within 13 products.
    while np.abs(term).max() > 2.0**-60:
        k += 1
        term = (term @ x) / k
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


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
    expectation <psi(0)| k(0).S |psi(0)>, the invariant's first value,
    which reproduces it for helicity eigenstates;
    for other initial states the closed-form column is only an
    eigenstate-weighted average and the numerical route is authoritative.
    """
    if (len(traj.times) + 1) // 2 != len(result.times):
        raise ValueError("evolution result does not match this trajectory grid")
    anholonomy = float(traj.running_anholonomy()[-1])
    return PhaseBreakdown.from_series(phase_series(result), float(result.invariants[0]), anholonomy)


def evolution_operator_V(polar_angle: float, azimuth: float, space: FockSpace) -> OperatorMatrix:
    """Unitary V = exp(beta S+ - beta* S-) with beta = -(lam/2) e^{-i gamma}.

    V maps the spin-3 eigenbasis onto the helicity eigenbasis of the
    direction (polar_angle, azimuth): V+ (k.S) V = S3 on every complete
    total-occupation sector of the space.  The exponent is -i G with the
    Hermitian generator G = i(beta S+ - beta* S-) = lam n.S, n = (-sin gamma,
    cos gamma, 0), which conserves photon number: V = exp(-lam n.A) is one
    _expm per sector, sum d_N^3 work rather than D^3, and 0 between sectors.
    """
    if not math.isfinite(polar_angle):
        raise ValueError(f"polar_angle must be finite, got {polar_angle!r}")
    if not math.isfinite(azimuth):
        raise ValueError(f"azimuth must be finite, got {azimuth!r}")
    rotation = polar_angle * np.array([-math.sin(azimuth), math.cos(azimuth), 0.0])
    v = np.zeros((space.dimension, space.dimension))
    for sector in range(3 * space.n_max + 1):
        keep, a = sector_generators(space, [sector])
        v[np.ix_(keep, keep)] = _expm(-_field_operator(rotation, a))
    return OperatorMatrix(space, v)
