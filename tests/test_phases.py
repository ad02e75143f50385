import math
import tracemalloc

import numpy as np
import pytest

from fiberphase import (
    OperatorMatrix,
    PhaseBreakdown,
    StateVector,
    TangentTrajectory,
    build_photon_state,
    build_space,
    cone_trajectory,
    effective_hamiltonian,
    evolution_operator_V,
    evolve_state,
    extract_phases,
    geodesic_closure,
    helicity_operator,
    helix_cone,
    helix_points,
    lvn_residual,
    phase_series,
    sampled_path,
    spin_fixed,
    tangent_trajectory,
    trajectory_from_tangents,
    wrap_angle,
)
from fiberphase.fock import _field_operator, occupied_sectors, sector_generators
import fiberphase.geometry as geometry
import fiberphase.phases as phases
from fiberphase.phases import CHUNK_BYTES, StepGuardError
from test_scenario import WHOLE_ARRAYS

BERRY_45 = 1.84030236902122  # 2*pi*(1 - cos(pi/4))
# evolve_state reads <S_i> as 2 x.A_i y on psi = x + iy; a per-sample np.vdot
# of the dense product rounds in another order.  Measured worst over N = 0-8
# on cones and sampled paths: 2.6 eps N max|u| (energies), 3.2 eps N (invariants).
EXPECTATION_EPS = 8 * np.finfo(float).eps


def expectation_tolerances(result, traj):
    """Bounds on |energies - reference| and |invariants - reference|: EXPECTATION_EPS * N (* max|u|)."""
    photons = result.sectors[-1]
    return EXPECTATION_EPS * photons * np.linalg.norm(traj.precession_field, axis=1).max(), EXPECTATION_EPS * photons


def term_sum(v, s):
    """v . S summed term by term, v_1 S_1 + v_2 S_2 + v_3 S_3: the reference for _field_operator's one product."""
    v = np.asarray(v)[..., None, None]
    return v[..., 0, :, :] * s[0] + v[..., 1, :, :] * s[1] + v[..., 2, :, :] * s[2]


def helix_traj(lam=math.pi / 4.0, turns=1.0, steps=1024):
    pitch = 2.0 * math.pi / math.tan(lam)
    polar, offset = helix_cone(1.0, pitch)
    return cone_trajectory(polar, turns, 2 * steps + 1, azimuth_offset=offset)


def loop_only(traj):
    """The same samples as a plain TangentTrajectory, so evolve_state applies every step's M."""
    return TangentTrajectory(traj.times, traj.tangents, traj.derivatives)


def box_state(space, result, index):
    """The state at a boundary over the whole space: the evolved block at keep, zero elsewhere."""
    amplitudes = np.zeros(space.dimension, dtype=complex)
    amplitudes[result.keep] = result.states[index]
    return StateVector(space, amplitudes)


def random_smooth_field(n):
    """Smooth non-unit tangent field: a tilted axis plus two random Fourier modes."""
    rng = np.random.default_rng(11)
    coeffs = [(rng.normal(scale=0.03, size=3), rng.normal(scale=0.03, size=3)) for _ in range(2)]
    t = np.linspace(0.0, 1.0, n)
    base = np.tile(np.array([0.1, -0.05, 1.0]), (n, 1))
    for m, (a, b) in enumerate(coeffs):
        base += np.outer(np.cos(2.0 * math.pi * (m + 1) * t), a)
        base += np.outer(np.sin(2.0 * math.pi * (m + 1) * t), b)
    return trajectory_from_tangents(t, base)


def lvn_oracle(traj, spin, i):
    """LvN residual at sample i from the explicit d x d matrix dI/dt + (1/i)[I, H].

    The commutators are built from matrix products and the norm is taken
    on the occupation-bounded block together with the complete sectors,
    with no use of the spin algebra.
    """
    s = [op.entries for op in spin]
    c12 = s[0] @ s[1] - s[1] @ s[0]
    c23 = s[1] @ s[2] - s[2] @ s[1]
    c31 = s[2] @ s[0] - s[0] @ s[2]
    space = spin[0].space
    exact = np.union1d(space.bounded_indices(), space.complete_sector_indices())
    box = np.ix_(exact, exact)
    k, kd = traj.tangents[i], traj.derivatives[i]
    norm = np.linalg.norm(k)
    khat, khat_dot = k / norm, kd / norm
    u = np.cross(k, kd) / np.dot(k, k)
    w = np.cross(khat, u)
    res = (
        khat_dot[0] * s[0]
        + khat_dot[1] * s[1]
        + khat_dot[2] * s[2]
        - 1j * (w[2] * c12 + w[0] * c23 + w[1] * c31)
    )
    return np.abs(res[box]).max()


def eigenstate_run(sigma, lam=math.pi / 4.0, turns=1.0, steps=1024, n_max=2):
    traj = helix_traj(lam, turns, steps)
    space = build_space(3, n_max)
    k0 = traj.tangents[0] / np.linalg.norm(traj.tangents[0])
    n_r, n_l = (1, 0) if sigma > 0 else (0, 1)
    psi0 = build_photon_state(space, n_r, n_l, k_hat=k0)
    result = evolve_state(psi0, traj)
    return traj, result


class TestAnholonomyIntegral:
    def test_polar_zero_vanishes(self):
        traj = cone_trajectory(0.0, 1.0, 257)
        assert traj.running_anholonomy()[-1] == 0.0

    def test_equator_full_turn(self):
        traj = cone_trajectory(math.pi / 2.0, 1.0, 257)
        assert traj.running_anholonomy()[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_quarter_pi_value(self):
        traj = cone_trajectory(math.pi / 4.0, 1.0, 257)
        assert traj.running_anholonomy()[-1] == pytest.approx(BERRY_45, abs=1e-10)

    def test_partial_trace(self):
        # Pane 64 of 128 ends at sample 128, half a turn: pi * (1 - cos(pi/3)) = pi/2.
        traj = cone_trajectory(math.pi / 3.0, 1.0, 257)
        running = traj.running_anholonomy()
        assert running[64] == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_reparametrization_invariance(self):
        # same tangent trace traversed with a smooth nonuniform speed
        lam, turns, n = 0.8, 1.0, 2049
        t = np.linspace(0.0, 1.0, n)
        w = 3.0 * t**2 - 2.0 * t**3
        gamma = 2.0 * math.pi * turns * w
        sl, cl = math.sin(lam), math.cos(lam)
        tangents = np.column_stack([sl * np.cos(gamma), sl * np.sin(gamma), np.full(n, cl)])
        rate = 2.0 * math.pi * turns * (6.0 * t - 6.0 * t**2)
        derivatives = np.column_stack(
            [-sl * np.sin(gamma) * rate, sl * np.cos(gamma) * rate, np.zeros(n)]
        )
        warped = TangentTrajectory(t, tangents, derivatives)
        uniform = cone_trajectory(lam, turns, n)
        a_w = warped.running_anholonomy()[-1]
        a_u = uniform.running_anholonomy()[-1]
        assert abs(a_w - a_u) < 1e-8


class TestClosedFormPhase:
    def test_vacuum_right_attribution(self):
        traj = cone_trajectory(math.pi / 3.0, 1.0, 257)
        assert 0.5 * traj.running_anholonomy()[-1] == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_two_one_multiphoton(self):
        traj = cone_trajectory(math.pi / 3.0, 1.0, 257)
        assert traj.running_anholonomy()[-1] == pytest.approx(math.pi, abs=1e-12)

    def test_vacuum_pair_cancels(self):
        anholonomy = cone_trajectory(1.1, 2.3, 513).running_anholonomy()[-1]
        assert 0.5 * anholonomy + -0.5 * anholonomy == 0.0


class TestEffectiveHamiltonian:
    def test_straight_path_is_zero(self):
        traj = cone_trajectory(0.0, 1.0, 65)
        spin = spin_fixed(build_space(3, 1))
        h = effective_hamiltonian(traj, spin, traj.times[7])
        assert np.abs(h.entries).max() == 0.0

    def test_equator_matches_s3_rate(self):
        traj = cone_trajectory(math.pi / 2.0, 1.0, 257)
        space = build_space(3, 2)
        spin = spin_fixed(space)
        h = effective_hamiltonian(traj, spin, traj.times[100])
        expected = 2.0 * math.pi * spin[2].entries
        assert np.abs(h.entries - expected).max() < 1e-12
        assert h.is_hermitian()

    def test_tangent_rescaling_invariance(self):
        traj = helix_traj(steps=128)
        spin = spin_fixed(build_space(3, 2))
        t = traj.times[64]
        h1 = effective_hamiltonian(traj, spin, t)
        h2 = effective_hamiltonian(traj.scaled(5.0), spin, t)
        assert np.abs(h1.entries - h2.entries).max() < 1e-12

    def test_off_grid_time_rejected(self):
        traj = cone_trajectory(1.0, 1.0, 65)
        spin = spin_fixed(build_space(3, 1))
        with pytest.raises(ValueError):
            effective_hamiltonian(traj, spin, 0.123456789)

    def test_one_sample_readers_build_no_whole_array(self):
        # effective_hamiltonian and lvn_residual read their one sample through rows.
        traj = helix_traj(steps=128)
        space = build_space(3, 1)
        spin, t = spin_fixed(space), traj.times[7]
        h, residual = effective_hamiltonian(traj, spin, t), lvn_residual(traj, space, t)
        assert not traj.__dict__.keys() & set(WHOLE_ARRAYS)
        # The same values as from whole arrays.
        whole = traj.scaled(1.0)
        assert np.array_equal(h.entries, effective_hamiltonian(whole, spin, t).entries)
        assert residual == lvn_residual(whole, space, t)


class TestEvolveState:
    def test_free_evolution(self):
        traj = loop_only(cone_trajectory(0.0, 1.0, 129))
        space = build_space(3, 1)
        psi0 = build_photon_state(space, 1, 0)
        result = evolve_state(psi0, traj)
        assert np.abs(result.states - psi0.amplitudes[result.keep]).max() == 0.0
        assert np.array_equal(box_state(space, result, -1).amplitudes, psi0.amplitudes)

    def test_eigenstate_returns_with_closed_form_phase(self):
        traj, result = eigenstate_run(+1, steps=8192)
        overlap = abs(np.vdot(result.states[0], result.states[-1]))
        assert abs(overlap - 1.0) < 1e-9
        breakdown = extract_phases(result, traj)
        assert abs(breakdown.geometric_phase - breakdown.closed_form_phase) < 1e-5

    def test_norm_drift_small_over_1e4_steps(self):
        traj, result = eigenstate_run(+1, steps=10000)
        assert np.abs(result.norms - 1.0).max() < 1e-9

    def test_step_guard_violation_reported(self):
        space = build_space(3, 2)
        psi0 = build_photon_state(space, 1, 0)
        fast = cone_trajectory(math.pi / 2.0, 10.0, 65)
        with pytest.raises(ValueError, match="guard"):
            evolve_state(psi0, fast)

    def test_rejects_unnormalized_state(self):
        space = build_space(3, 1)
        psi0 = StateVector(space, 0.5 * build_photon_state(space, 1, 0).amplitudes)
        with pytest.raises(ValueError, match="normalized"):
            evolve_state(psi0, cone_trajectory(0.5, 1.0, 65))

    def test_rejects_even_sample_grid(self):
        space = build_space(3, 1)
        psi0 = build_photon_state(space, 1, 0)
        traj = cone_trajectory(0.5, 1.0, 64)
        with pytest.raises(ValueError, match="odd"):
            evolve_state(psi0, traj)

    def test_fourth_order_convergence(self):
        gaps = []
        for steps in (128, 256, 512):
            traj, result = eigenstate_run(+1, steps=steps)
            breakdown = extract_phases(result, traj)
            gaps.append(abs(breakdown.geometric_phase - BERRY_45))
        assert gaps[0] / gaps[1] > 12.0
        assert gaps[1] / gaps[2] > 12.0


def field_along(traj):
    k, kd = traj.tangents, traj.derivatives
    return np.cross(k, kd) / np.einsum("ij,ij->i", k, k)[:, None]


def full_box_rk4(psi0, traj, spin):
    """States from the RK4 loop over the whole (n_max+1)^3 box, no sector slicing."""
    u = field_along(traj)
    s = [op.entries for op in spin]

    def hamiltonian(i):
        return u[i, 0] * s[0] + u[i, 1] * s[1] + u[i, 2] * s[2]

    psi = psi0.amplitudes.astype(complex)
    states = [psi]
    for i0 in range(0, len(traj.times) - 1, 2):
        h = traj.times[i0 + 2] - traj.times[i0]
        h0, h1, h2 = hamiltonian(i0), hamiltonian(i0 + 1), hamiltonian(i0 + 2)
        k1 = -1j * (h0 @ psi)
        k2 = -1j * (h1 @ (psi + 0.5 * h * k1))
        k3 = -1j * (h1 @ (psi + 0.5 * h * k2))
        k4 = -1j * (h2 @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(psi)
    return np.array(states)


def multi_sector_state(space, sectors, seed=5):
    """Normalized random amplitudes on the given photon-number sectors only."""
    rng = np.random.default_rng(seed)
    totals = np.sum(space.basis, axis=1)
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    amps[~np.isin(totals, sectors)] = 0.0
    return StateVector(space, amps / np.linalg.norm(amps))


class TestSectorEvolution:
    # Each step rounds O(dim) products in complex128 (eps = 2.2e-16); over 256
    # steps of norm-1 states the two summation orders drift apart by well under
    # 450 eps.
    ORACLE_TOL = 1e-13

    @pytest.mark.parametrize(
        "label, occupation",
        [("N=0", (0, 0)), ("N=1", (1, 0)), ("N=2", (1, 1)), ("N=3", (2, 1)), ("sectors 1+4", None)],
    )
    def test_matches_full_box_oracle(self, label, occupation):
        traj = helix_traj(lam=0.6, steps=256)
        space = build_space(3, 3)
        spin = spin_fixed(space)
        if occupation is None:
            psi0 = multi_sector_state(space, [1, 4])  # sector 4 is cut off at n_max = 3
        else:
            psi0 = build_photon_state(space, *occupation)
        result = evolve_state(psi0, traj)
        oracle = full_box_rk4(psi0, traj, spin)
        totals = np.sum(space.basis, axis=1)
        inside = np.isin(totals, totals[psi0.amplitudes != 0])
        assert np.array_equal(result.keep, np.flatnonzero(inside)), label
        assert np.abs(result.states - oracle[:, result.keep]).max() <= self.ORACLE_TOL, label

    def test_cutoff_independent(self):
        traj = helix_traj(lam=0.6, steps=256)
        runs = []
        for n_max in range(1, 6):
            space = build_space(3, n_max)
            result = evolve_state(build_photon_state(space, 1, 0), traj)
            runs.append((result.max_h_dt, extract_phases(result, traj).geometric_phase))
        assert all(run == runs[0] for run in runs), runs

    @pytest.mark.parametrize("photons", [0, 1, 2, 3])
    def test_guard_is_photon_number_times_field(self, photons):
        traj = helix_traj(lam=0.6, steps=256)
        space = build_space(3, 3)
        result = evolve_state(build_photon_state(space, photons, 0), traj)
        step = (traj.times[2::2] - traj.times[0:-2:2]).max()
        assert result.max_h_dt == photons * np.linalg.norm(field_along(traj), axis=1).max() * step


class TestChunkedPropagators:
    @pytest.mark.parametrize("photons, n_max", [(1, 1), (4, 4)])
    def test_chunk_boundaries_match_full_box_oracle(self, photons, n_max):
        space = build_space(3, n_max)
        spin = spin_fixed(space)
        psi0 = build_photon_state(space, photons, 0)
        keep = np.flatnonzero(np.sum(space.basis, axis=1) == photons)
        chunk = CHUNK_BYTES // (8 * len(keep) ** 2)
        # Three whole chunks of step propagators and a partial fourth.
        traj = loop_only(helix_traj(lam=0.6, turns=0.25, steps=3 * chunk + chunk // 2))
        result = evolve_state(psi0, traj)
        assert np.array_equal(result.keep, keep)
        oracle = full_box_rk4(psi0, traj, spin)
        assert np.abs(result.states - oracle[:, keep]).max() <= TestSectorEvolution.ORACLE_TOL
        s = [op.entries[np.ix_(keep, keep)] for op in spin]
        energies = [
            np.vdot(psi, (ui[0] * s[0] + ui[1] * s[1] + ui[2] * s[2]) @ psi).real
            for psi, ui in zip(result.states, field_along(traj)[::2])
        ]
        assert np.abs(result.energies - energies).max() <= expectation_tolerances(result, traj)[0]

    @pytest.mark.parametrize("kind", ["cone", "sampled"])
    def test_expectations_match_whole_array_reads(self, kind):
        # d = 15: u and khat are read with each state block of 273 rows, and 4097 boundaries end in a
        # partial sixteenth block; the whole arrays give the same bits.
        space = build_space(3, 4)
        psi0 = build_photon_state(space, 2, 2)
        traj = helix_traj(lam=0.3, turns=0.2, steps=4096) if kind == "cone" else random_smooth_field(8193)
        result = evolve_state(psi0, traj)
        keep, a = sector_generators(space, occupied_sectors(psi0))
        d, rows = len(keep), CHUNK_BYTES // (16 * len(keep))
        a_rows = np.concatenate(a, axis=1)
        u, khat = traj.precession_field[::2], traj.unit_tangents[::2]
        for start in range(0, result.steps + 1, rows):
            block = result.states[start : start + rows]
            spin = 2.0 * np.einsum("nid,nd->ni", (block.real @ a_rows).reshape(-1, 3, d), block.imag)
            energies = np.einsum("ni,ni->n", u[start : start + rows], spin)
            invariants = np.einsum("ni,ni->n", khat[start : start + rows], spin)
            assert np.array_equal(result.energies[start : start + rows].view(np.int64), energies.view(np.int64))
            assert np.array_equal(result.invariants[start : start + rows].view(np.int64), invariants.view(np.int64))

    @pytest.mark.parametrize("photons", [0, 1, 2, 3, 4, 5, 6])
    def test_matches_per_sample_field_operators(self, photons):
        # d = 1, 3, 6, 10, 15 at n_max = 4, and 21, 28 at n_max = 6.  The step
        # loop with u.A built term by term at each of a step's three samples
        # and psi -> mj @ psi, the reference for the batched products and the
        # in-place step, bit for bit; <H> and <khat.S> as np.vdot of the
        # term-by-term u.S and khat.S, within rounding.
        space = build_space(3, 4 if photons <= 4 else 6)
        psi0 = build_photon_state(space, photons // 2 + photons % 2, photons // 2)
        traj = random_smooth_field(513)
        result = evolve_state(psi0, traj)
        keep, a = sector_generators(space, occupied_sectors(psi0))
        u, khat, d = traj.precession_field, traj.unit_tangents, len(keep)
        step_h = traj.times[2::2] - traj.times[0:-2:2]
        chunk = max(1, CHUNK_BYTES // (8 * d * d))
        eye = np.eye(d)
        psi = psi0.amplitudes[keep]
        states, energies, invariants = [psi], [], []
        for start in range(0, result.steps, chunk):
            stop = min(start + chunk, result.steps)
            h = step_h[start:stop, None, None]
            g0 = term_sum(u[2 * start : 2 * stop : 2], a)
            g1 = term_sum(u[2 * start + 1 : 2 * stop : 2], a)
            g2 = term_sum(u[2 * start + 2 : 2 * stop + 1 : 2], a)
            k1 = -g0
            k2 = -(g1 @ (eye + 0.5 * h * k1))
            k3 = -(g1 @ (eye + 0.5 * h * k2))
            k4 = -(g2 @ (eye + h * k3))
            m = (eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).astype(complex)
            for j, (mj, gj) in enumerate(zip(m, g0), start):
                energies.append(np.vdot(psi, (-1j * gj) @ psi).real)
                invariants.append(np.vdot(psi, (-1j * term_sum(khat[2 * j], a)) @ psi).real)
                psi = mj @ psi
                states.append(psi)
        energies.append(np.vdot(psi, (-1j * term_sum(u[-1], a)) @ psi).real)
        invariants.append(np.vdot(psi, (-1j * term_sum(khat[-1], a)) @ psi).real)
        assert np.array_equal(result.states, states)
        assert np.array_equal(np.signbit(result.states.view(float)), np.signbit(np.array(states).view(float)))
        energy_tol, invariant_tol = expectation_tolerances(result, traj)
        assert np.abs(result.energies - energies).max() <= energy_tol
        assert np.array_equal(np.signbit(result.energies), np.signbit(energies))
        assert np.abs(result.invariants - invariants).max() <= invariant_tol
        # At photons = 6 the state |3, 3> has helicity 0, so its invariant at boundary 0 is an
        # exact 0 that each form rounds to a residue of its own sign: only that entry's sign is
        # not compared.
        signed = np.ones(len(invariants), dtype=bool)
        if photons == 6:
            assert max(abs(result.invariants[0]), abs(invariants[0])) < 1e-32
            signed[0] = False
        assert np.array_equal(np.signbit(result.invariants)[signed], np.signbit(invariants)[signed])

    @pytest.mark.parametrize("last_rows", [157, 1], ids=["partial", "one-row"])
    @pytest.mark.parametrize("form", ["_loop_states", "_power_states"], ids=["sampled", "cone"])
    def test_expectation_blocks_match_dense_operators(self, monkeypatch, form, last_rows):
        # Sectors 1 and 3 at n_max = 3 make d = 13, so the expectations are read 315 boundaries at
        # a time: three whole blocks, then a partial or a one-row fourth.  Each boundary's energy and
        # invariant against <psi|u.S|psi> and <psi|khat.S|psi> of the dense spin matrices.
        def refuse(*args):
            raise AssertionError("the other state form")

        monkeypatch.setattr(phases, "_power_states" if form == "_loop_states" else "_loop_states", refuse)
        space = build_space(3, 3)
        rows = CHUNK_BYTES // (16 * 13)
        steps = 3 * rows + last_rows - 1
        traj = random_smooth_field(2 * steps + 1) if form == "_loop_states" else helix_traj(0.6, 0.25, steps)
        result = evolve_state(multi_sector_state(space, [1, 3]), traj)
        assert len(result.keep) == 13 and result.steps == steps
        s = [op.entries for op in spin_fixed(space)]
        energies, invariants = [], []
        for i in range(steps + 1):
            psi = box_state(space, result, i)
            energies.append(psi.expectation(OperatorMatrix(space, _field_operator(traj.precession_field[2 * i], s))).real)
            invariants.append(psi.expectation(OperatorMatrix(space, _field_operator(traj.unit_tangents[2 * i], s))).real)
        assert min(np.abs(energies).max(), np.abs(invariants).max()) > 0.01
        energy_tol, invariant_tol = expectation_tolerances(result, traj)
        assert np.abs(result.energies - energies).max() <= energy_tol
        assert np.abs(result.invariants - invariants).max() <= invariant_tol

    @pytest.mark.parametrize("lam", [0.7, math.pi / 2.0], ids=["mixed-helicity", "great-circle"])
    def test_invariant_conserved_for_any_state(self, lam):
        # 0.6|x> + 0.8i|y> is no helicity eigenstate, and on the equatorial cone a right-handed
        # photon turns orthogonal to psi0: the closed form judges neither run, while <khat.S> stays put.
        traj = cone_trajectory(lam, 1.0, 2049)
        space = build_space(3, 1)
        if lam == 0.7:
            amp = np.zeros(space.dimension, dtype=complex)
            amp[4], amp[2] = 0.6, 0.8j  # (1, 0, 0) and (0, 1, 0)
            psi0 = StateVector(space, amp)
        else:
            psi0 = build_photon_state(space, 1, 0, k_hat=traj.unit_tangents[0])
        result = evolve_state(psi0, traj)
        assert result.invariants[0] > 0.7
        assert np.abs(result.invariants - result.invariants[0]).max() < 1e-10

    @pytest.mark.parametrize("kind", ["cone", "sampled"])
    def test_evolution_builds_no_whole_array(self, kind):
        # Evolution reads u and the unit tangents by rows, and a sampled path keeps only its stored arrays.
        traj = helix_traj(lam=0.6, turns=0.25, steps=256) if kind == "cone" else random_smooth_field(513)
        evolve_state(build_photon_state(build_space(3, 2), 1, 0), traj)
        stored = {"tangents", "derivatives"} if kind == "sampled" else set()
        assert traj.__dict__.keys() & set(WHOLE_ARRAYS) == stored

    @pytest.mark.parametrize("steps", [1024, 8192])
    @pytest.mark.parametrize("photons, n_max", [(1, 1), (4, 4)])
    def test_scratch_memory_is_flat(self, photons, n_max, steps):
        # Scratch beyond the returned arrays stays O(samples) with a small
        # constant; at 8192 steps one full-length (steps, d, d) stack
        # would exceed it.
        space = build_space(3, n_max)
        psi0 = build_photon_state(space, photons, 0)
        traj = helix_traj(lam=0.6, turns=0.25, steps=steps)
        tracemalloc.start()
        try:
            result = evolve_state(psi0, traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # times is a view of the trajectory's grid, which evolve_state does not allocate.
        arrays = (result.keep, result.states, result.norms, result.energies, result.invariants, result.lam,
                  result.gamma)
        returned = sum(a.nbytes for a in arrays)
        assert peak - returned <= 160 * len(traj.times) + 2 * 2**20


def same_angles(result, traj):
    """Whether result.lam and result.gamma are traj.lam[::2] and traj.gamma[::2] bit for bit."""
    return all(np.array_equal(ours.view(np.int64), theirs[::2].view(np.int64))
               for ours, theirs in ((result.lam, traj.lam), (result.gamma, traj.gamma)))


class TestBoundaryAngles:
    """lambda and gamma at the step boundaries, read by the expectations loop a state block at a time."""

    @pytest.mark.parametrize("turns", [1.0, 2.5, 5.0])
    @pytest.mark.parametrize("polar", [0.0, 0.7, math.pi / 2.0, math.pi])
    def test_cones_match_whole_arrays(self, polar, turns):
        # 4,096 steps at d = 3 are three blocks of 1,365 boundaries and a last of two; cut at sample
        # 6,001 the grid ends at t = 0.73 inside the third block.  Off the poles the edges fall in
        # different wraps; on a pole every gamma is 0.
        psi0 = build_photon_state(build_space(3, 1), 1, 0)
        full = cone_trajectory(polar, turns, 8193, azimuth_offset=0.4)
        for traj in (full, full.rows(0, 6001)):
            result = evolve_state(psi0, traj)
            assert same_angles(result, traj)
        assert result.times[-1] < 1.0
        if 0.0 < polar < math.pi:
            assert result.gamma[-1] > 0.4 + 2.0 * math.pi * (0.73 * turns - 1.0)

    @pytest.mark.parametrize("photons, rows", [(1, 1365), (3, 409), (4, 273)], ids=["d3", "d10", "d15"])
    @pytest.mark.parametrize("kind", ["cone", "sampled", "pole"])
    def test_block_sizes_match_whole_arrays(self, kind, photons, rows):
        if kind == "cone":
            traj = helix_traj(lam=0.9, turns=3.0, steps=4096)
        elif kind == "sampled":
            t, points = helix_points(1.0, 2.0, 3.0, 8193)
            traj = tangent_trajectory(sampled_path(t, points))
        else:
            # A great circle through both poles, on a pole exactly at samples 0, 2730, 5460 and 8190:
            # at d = 3 each of them starts a block.
            theta = math.pi / 2730.0 * np.arange(8193)
            tangents = np.column_stack([np.sin(theta) * 0.6, np.sin(theta) * 0.8, np.cos(theta)])
            tangents[::2730, :2] = 0.0
            traj = trajectory_from_tangents(np.linspace(0.0, 1.0, 8193), tangents)
            assert not geometry._off_pole(traj.unit_tangents[::2730]).any()
        result = evolve_state(build_photon_state(build_space(3, photons), photons, 0), traj)
        assert CHUNK_BYTES // (16 * len(result.keep)) == rows
        assert same_angles(result, traj)

    def test_aliased_vacuum_cone_unwraps_through_the_midpoints(self):
        # 20 turns in 32 steps turn the azimuth by 225 degrees a step and 112.5 a half step: an unwrap
        # over the boundaries alone reads -2.356 rad a row where the true azimuth gains +3.927.
        traj = cone_trajectory(0.7, 20.0, 65)
        result = evolve_state(build_photon_state(build_space(3, 1), 0, 0), traj)
        assert same_angles(result, traj)
        assert np.diff(result.gamma) == pytest.approx(np.full(32, 1.25 * math.pi))
        assert np.diff(traj.rows(0, 65, 2).gamma) == pytest.approx(np.full(32, -0.75 * math.pi))


def exact_cone_states(result, polar, offset, rate):
    """psi(t) = exp(-rate t A3) exp(rate t cos(polar) k0.A) psi(0) at the result's boundaries, by eigh.

    On a cone k(t) is k0 turned about z by rate t, so in the frame turning
    with it the Hamiltonian is constant; exact on complete sectors, whose
    generators the smallest box holding them gives in the run's order.
    """
    _, a = sector_generators(build_space(3, max(1, result.sectors[-1])), result.sectors)
    k0 = np.array([math.sin(polar) * math.cos(offset), math.sin(polar) * math.sin(offset), math.cos(polar)])
    t = result.times[:, None]
    # exp(theta X) = q exp(-i theta w) q^H for X real antisymmetric and i X = q w q^H.
    w3, q3 = np.linalg.eigh(1j * a[2])
    wk, qk = np.linalg.eigh(1j * _field_operator(k0, a))
    turned = ((qk.conj().T @ result.states[0]) * np.exp(-1j * wk * (rate * math.cos(polar)) * t)) @ qk.T
    return ((turned @ q3.conj()) * np.exp(1j * w3 * rate * t)) @ q3.T


class TestConeStates:
    """The step loop and the power form of evolve_state against the exact states of a cone, and each other."""

    # Global RK4 error over these one-turn-and-a-bit runs: the worst measured
    # |psi - psi_exact| / (N |u| h)^4 is 0.11, for the loop and the power form
    # alike, so C = 0.5.  Rounding adds at most 0.46 * steps * eps (on the
    # poles, where u = 0 and RK4 is exact, the power form's rotations round
    # coherently); ROUNDING = 1e-15 per step.  The two forms differ by at
    # most 0.6 * steps * eps, within the same 1e-15 per step.
    C = 0.5
    ROUNDING = 1e-15

    @pytest.mark.parametrize("polar", [0.0, 0.2, math.pi / 2.0, math.pi], ids=["pole", "0.2", "equator", "south"])
    @pytest.mark.parametrize("photons", range(9))
    def test_both_forms_match_the_exact_states(self, photons, polar):
        # Offsets 0 and 1.1 and t_end = 1 and 0.6 (1.3 turns over the unit grid either way) by photon number.
        offset = 1.1 if photons % 2 else 0.0
        turns = 1.3 * (0.6 if photons % 3 == 1 else 1.0)
        steps = 768
        traj = cone_trajectory(polar, turns, 2 * steps + 1, azimuth_offset=offset)
        psi0 = multi_sector_state(build_space(3, max(1, photons)), [photons], seed=photons)
        power = evolve_state(psi0, traj)
        loop = evolve_state(psi0, loop_only(traj))
        exact = exact_cone_states(power, polar, offset, 2.0 * math.pi * turns)
        x = photons * np.linalg.norm(traj.precession_field, axis=1).max() / steps
        bound = self.C * x**4 + self.ROUNDING * steps
        assert np.abs(loop.states - exact).max() <= bound
        assert np.abs(power.states - exact).max() <= bound
        assert np.abs(power.states - loop.states).max() <= self.ROUNDING * steps

    def test_several_complete_sectors_match_the_exact_states(self):
        # Sectors 0..3 at n_max = 3 (d = 20): the rotation and the table are block-diagonal.
        steps, turns = 512, 0.8
        traj = cone_trajectory(0.7, turns, 2 * steps + 1, azimuth_offset=-0.5)
        psi0 = multi_sector_state(build_space(3, 3), [0, 1, 2, 3])
        power = evolve_state(psi0, traj)
        assert power.sectors == [0, 1, 2, 3]
        exact = exact_cone_states(power, 0.7, -0.5, 2.0 * math.pi * turns)
        x = 3 * np.linalg.norm(traj.precession_field, axis=1).max() / steps
        assert np.abs(power.states - exact).max() <= self.C * x**4 + self.ROUNDING * steps

    @pytest.mark.parametrize("photons, n_max", [(1, 1), (4, 4)], ids=["d=3", "d=15"])
    def test_power_blocks_match_the_loop(self, photons, n_max):
        # d = 3 fills blocks of 512 rows and d = 15 of 32; three whole blocks and half of a fourth.
        d = (photons + 1) * (photons + 2) // 2
        block = 1 << (CHUNK_BYTES // (8 * d * d)).bit_length() - 1
        traj = helix_traj(lam=0.6, turns=0.25, steps=3 * block + block // 2)
        psi0 = build_photon_state(build_space(3, n_max), photons, 0)
        power = evolve_state(psi0, traj)
        loop = evolve_state(psi0, loop_only(traj))
        tol = self.ROUNDING * power.steps
        assert np.array_equal(power.states[0], loop.states[0])
        assert np.abs(power.states - loop.states).max() <= tol
        for name in ("norms", "energies", "invariants"):
            assert np.abs(getattr(power, name) - getattr(loop, name)).max() <= 2 * photons * tol, name

    def test_complete_cone_takes_the_power_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("step loop on a complete-sector cone")

        monkeypatch.setattr(phases, "_loop_states", refuse)
        result = evolve_state(build_photon_state(build_space(3, 2), 1, 1), helix_traj(steps=256))
        assert np.abs(result.norms - 1.0).max() < 1e-9

    def test_truncated_sector_and_sampled_path_take_the_loop(self, monkeypatch):
        # The rotation covariance fails on a sector the cutoff truncates, and a sampled path has no rate.
        def refuse(*args):
            raise AssertionError("power form off a complete-sector cone")

        monkeypatch.setattr(phases, "_power_states", refuse)
        space = build_space(3, 1)
        evolve_state(multi_sector_state(space, [1, 2]), helix_traj(steps=256))
        evolve_state(build_photon_state(space, 1, 0), random_smooth_field(513))

    @pytest.mark.parametrize("copy", ["scaled", "plain"])
    def test_scaled_and_plain_copies_of_a_cone_take_the_loop(self, monkeypatch, copy):
        # Only a ConeTrajectory takes the power form; its samples in a plain trajectory, scaled or not,
        # take the loop and agree with it to rounding.
        def refuse(*args):
            raise AssertionError("power form off a ConeTrajectory")

        traj = helix_traj(lam=0.6, steps=512)
        psi0 = build_photon_state(build_space(3, 2), 2, 0)
        power = evolve_state(psi0, traj)
        monkeypatch.setattr(phases, "_power_states", refuse)
        loop = evolve_state(psi0, traj.scaled(3.0) if copy == "scaled" else loop_only(traj))
        assert np.abs(loop.states - power.states).max() <= self.ROUNDING * power.steps

    def test_rate_that_does_not_turn_the_field_is_refused(self):
        # Twice the cone's rate 2 pi turns: the rotation check refuses it before any state is written.
        traj = helix_traj(steps=256)
        keep, a = sector_generators(build_space(3, 1), [1])
        states = np.zeros((257, len(keep)), dtype=complex)
        states[0, 0] = 1.0
        with pytest.raises(ValueError, match="does not turn the precession field"):
            phases._power_states(states, traj.times, traj.rows(0, 3).precession_field, a,
                                 2.0 * (2.0 * math.pi * traj.turns))

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 0.2, 7.0], ids=["zero", "taylor", "squared", "squared-more"])
    def test_expm_matches_eigh(self, scale):
        x = scale * _field_operator(np.array([0.3, -0.2, 1.0]), sector_generators(build_space(3, 4), [4])[1])
        w, q = np.linalg.eigh(1j * x)
        exact = ((q * np.exp(-1j * w)) @ q.conj().T).real
        got = phases._expm(x)
        assert np.abs(got - exact).max() <= 1e-14 * max(1.0, scale)
        if scale == 0.0:
            assert np.array_equal(got, np.eye(len(x)))


class TestNonFiniteTrajectory:
    def test_nan_tangent_trips_the_step_guard(self):
        # A NaN bound compares False against any threshold: the guard must still refuse it.
        traj = cone_trajectory(0.7, 1.0, 9)
        tangents = traj.tangents.copy()
        tangents[3, 1] = math.nan
        bad = TangentTrajectory(traj.times, tangents, traj.derivatives)
        # No grid helps there: the message names the sample instead.
        with pytest.raises(StepGuardError, match=r"precession field sample 3 at t = 0\.375 is not finite$") as err:
            evolve_state(build_photon_state(build_space(3, 1), 1, 0), bad)
        assert math.isnan(err.value.bound)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tangent_samples_refused(self, bad):
        tangents = np.tile([0.0, 0.6, 0.8], (9, 1))
        tangents[4, 0] = bad
        with pytest.raises(ValueError, match="tangents must be finite"):
            trajectory_from_tangents(np.linspace(0.0, 1.0, 9), tangents)


class TestPhaseBreakdown:
    @pytest.mark.parametrize("geometric", [-1e-300, -8e-34, -0.0, 0.0, 2.0 * math.pi])
    def test_mod_2pi_lies_in_half_open_range(self, geometric):
        # A tiny negative phase reduces to 2*pi itself under float %; it must read 0.
        series = {"total": np.array([0.0, geometric]), "dynamical": np.zeros(2)}
        b = PhaseBreakdown.from_series(series, 1.0, 0.0)
        assert b.geometric_phase == geometric
        assert 0.0 <= b.geometric_phase_mod_2pi < 2.0 * math.pi
        assert b.geometric_phase_mod_2pi == 0.0


class TestExtractPhases:
    def test_free_evolution_all_zero(self):
        traj = loop_only(cone_trajectory(0.0, 1.0, 129))
        space = build_space(3, 1)
        psi0 = build_photon_state(space, 1, 0)
        breakdown = extract_phases(evolve_state(psi0, traj), traj)
        assert breakdown.total_phase == 0.0
        assert breakdown.dynamical_phase == 0.0
        assert breakdown.geometric_phase == 0.0

    def test_geometric_is_total_minus_dynamical(self):
        traj, result = eigenstate_run(+1, steps=512)
        b = extract_phases(result, traj)
        assert b.geometric_phase == b.total_phase - b.dynamical_phase

    def test_positive_helicity_quarter_pi(self):
        traj, result = eigenstate_run(+1, steps=2048)
        b = extract_phases(result, traj)
        assert b.geometric_phase == pytest.approx(BERRY_45, abs=1e-4)

    def test_negative_helicity_flips_sign(self):
        traj, result = eigenstate_run(-1, steps=2048)
        b = extract_phases(result, traj)
        assert b.geometric_phase == pytest.approx(-BERRY_45, abs=1e-4)

    def test_handedness_antisymmetry(self):
        _, plus = eigenstate_run(+1, steps=1024)
        traj, minus = eigenstate_run(-1, steps=1024)
        gp = extract_phases(plus, traj).geometric_phase
        gm = extract_phases(minus, traj).geometric_phase
        assert abs(gp + gm) < 1e-6

    def test_dynamical_phase_vanishes_for_eigenstates(self):
        traj, result = eigenstate_run(+1, steps=1024)
        assert abs(extract_phases(result, traj).dynamical_phase) < 1e-9

    def test_multi_turn_raw_phase_exceeds_2pi(self):
        traj, result = eigenstate_run(+1, lam=math.pi / 3.0, turns=3.0, steps=4096)
        b = extract_phases(result, traj)
        assert b.geometric_phase == pytest.approx(3.0 * math.pi, abs=1e-4)
        assert b.geometric_phase_mod_2pi == pytest.approx(
            b.geometric_phase % (2.0 * math.pi), abs=1e-15
        )
        assert abs(wrap_angle(b.geometric_phase - b.closed_form_phase)) < 1e-4

    def test_ill_conditioned_overlap_reported(self):
        space = build_space(3, 2)
        k0 = np.array([1.0, 0.0, 0.0])
        plus = build_photon_state(space, 1, 0, k_hat=k0)
        minus = build_photon_state(space, 0, 1, k_hat=k0)
        psi0 = StateVector(space, (plus.amplitudes + 1j * minus.amplitudes) / math.sqrt(2.0))
        traj = cone_trajectory(math.pi / 2.0, 1.0, 1025)
        result = evolve_state(psi0.normalized(), traj)
        with pytest.raises(ValueError, match="ill-conditioned"):
            phase_series(result)

    def test_overlap_just_under_the_floor_is_refused(self):
        # A one-photon cone 3e-4 rad off the equator: half a turn on, |<psi0|psi>| = 9.0e-8, between 1e-9 and
        # the floor's 1e-6, so a floor set a thousand times lower would let it through.
        traj = cone_trajectory(math.pi / 2.0 - 3e-4, 1.0, 2049)
        result = evolve_state(build_photon_state(build_space(3, 1), 1, 0, k_hat=traj.rows(0, 1).unit_tangents[0]), traj)
        overlaps = np.abs(result.states @ result.states[0].conj())
        assert 1e-9 < overlaps.min() < 1e-6 and result.times[overlaps.argmin()] == 0.5
        with pytest.raises(ValueError, match=r"ill-conditioned: \|<psi\(0\)\|psi\(t\)>\| = 9\.000e-08 at t = 0\.5"):
            phase_series(result)

    def test_grid_mismatch_rejected(self):
        _, result = eigenstate_run(+1, steps=128)
        with pytest.raises(ValueError, match="does not match"):
            extract_phases(result, helix_traj(steps=64))

    def test_energies_match_per_sample_loop(self):
        # A +z photon on a tilted helix is no helicity eigenstate, so <H> != 0.
        traj = helix_traj(lam=0.6, steps=256)
        space = build_space(3, 2)
        spin = spin_fixed(space)
        result = evolve_state(build_photon_state(space, 1, 0), traj)
        u = field_along(traj)[::2]
        # evolve_state integrates the one-photon sector, so the loop does too.
        keep = np.flatnonzero(np.sum(space.basis, axis=1) == 1)
        s = [op.entries[np.ix_(keep, keep)] for op in spin]
        assert np.array_equal(result.keep, keep)
        energies = [
            np.vdot(psi, (ui[0] * s[0] + ui[1] * s[1] + ui[2] * s[2]) @ psi).real
            for psi, ui in zip(result.states, u)
        ]
        assert np.abs(energies).max() > 0.1
        assert np.abs(result.energies - energies).max() <= expectation_tolerances(result, traj)[0]

    def test_energies_match_per_sample_loop_multi_sector(self):
        # Sectors 0..3 at n_max = 3 make d = 20, so the 257 boundaries span
        # two blocks of 204 rows for the expectations, the last one partial.
        traj = helix_traj(lam=0.6, steps=256)
        space = build_space(3, 3)
        spin = spin_fixed(space)
        result = evolve_state(multi_sector_state(space, [0, 1, 2, 3]), traj)
        keep = np.flatnonzero(np.sum(space.basis, axis=1) <= 3)
        assert len(keep) == 20
        assert np.array_equal(result.keep, keep)
        s = [op.entries[np.ix_(keep, keep)] for op in spin]
        energies = [
            np.vdot(psi, (ui[0] * s[0] + ui[1] * s[1] + ui[2] * s[2]) @ psi).real
            for psi, ui in zip(result.states, field_along(traj)[::2])
        ]
        assert np.abs(energies).max() > 0.1
        assert np.abs(result.energies - energies).max() <= expectation_tolerances(result, traj)[0]

    def test_k_rescaling_leaves_phases(self):
        traj, result = eigenstate_run(+1, steps=512)
        scaled = traj.scaled(1000.0)
        space = build_space(3, 2)
        psi0 = build_photon_state(space, 1, 0, k_hat=traj.tangents[0])
        result2 = evolve_state(psi0, scaled)
        b1 = extract_phases(result, traj)
        b2 = extract_phases(result2, scaled)
        assert abs(b1.geometric_phase - b2.geometric_phase) < 1e-10
        assert abs(b1.closed_form_phase - b2.closed_form_phase) < 1e-10


def sampled_helix_run(times, points, n_r, n_l):
    """(A, RK4 geometric phase) of an (n_r, n_l) number state on a sampled path."""
    traj = tangent_trajectory(sampled_path(times, points))
    psi0 = build_photon_state(build_space(3, max(1, n_r + n_l)), n_r, n_l, k_hat=traj.tangents[0])
    return traj.running_anholonomy()[-1], extract_phases(evolve_state(psi0, traj), traj).geometric_phase


class TestPathSymmetries:
    """Rigid motions, reversal and reparametrisation of a sampled path whose trace stays off the poles (z chart valid)."""

    T, POINTS = helix_points(1.0, 2.0 * math.pi, 1.3, 4097)  # open trace, 1.3 turns

    def test_mirror_negates_anholonomy_and_swaps_handedness(self):
        a, phase = sampled_helix_run(self.T, self.POINTS, 1, 0)
        a_mirror, phase_mirror = sampled_helix_run(self.T, self.POINTS * np.array([-1.0, 1.0, 1.0]), 0, 1)
        assert a_mirror == -a
        assert phase_mirror == phase

    def test_rotation_about_z_keeps_phases(self):
        c, s = math.cos(0.9), math.sin(0.9)
        rotated = self.POINTS @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T
        a, phase = sampled_helix_run(self.T, self.POINTS, 1, 0)
        a_rot, phase_rot = sampled_helix_run(self.T, rotated, 1, 0)
        assert abs(a_rot - a) <= 1e-12
        assert abs(phase_rot - phase) <= 1e-12

    def test_reversal_keeps_phase_and_closed_form_mod_4pi(self):
        # Reversed, the tangent traces -k(T - t): the antipodal trace run backwards, whose
        # geodesically closed solid angle differs by a multiple of 4 pi.
        def closed_solid_angle(points):
            k = tangent_trajectory(sampled_path(self.T, points)).tangents
            return geodesic_closure(k[0], k[-1])

        a, phase = sampled_helix_run(self.T, self.POINTS, 1, 0)
        a_rev, phase_rev = sampled_helix_run(self.T, self.POINTS[::-1], 1, 0)
        assert abs(phase_rev - phase) <= 1e-12
        gap = (a_rev + closed_solid_angle(self.POINTS[::-1])) - (a + closed_solid_angle(self.POINTS))
        assert abs(gap - 4.0 * math.pi * round(gap / (4.0 * math.pi))) <= 1e-4

    @pytest.mark.parametrize("n_r, n_l", [(1, 0), (2, 1)])
    def test_smooth_reparametrisation_keeps_phases(self, n_r, n_l):
        # The same points reached at times w = s + 0.5 sin(2 pi s)/(2 pi), each odd sample's time
        # re-centred in its pane so that the RK4 grid holds.
        s = self.T
        w = s + 0.5 * np.sin(2.0 * math.pi * s) / (2.0 * math.pi)
        w[1::2] = 0.5 * (w[:-1:2] + w[2::2])
        a, phase = sampled_helix_run(s, self.POINTS, n_r, n_l)
        a_w, phase_w = sampled_helix_run(w, self.POINTS, n_r, n_l)
        assert abs(a_w - a) <= 1e-9
        assert abs(phase_w - phase) <= 1e-6


class TestLvnResidual:
    def test_helix_analytic(self):
        traj = helix_traj(steps=2048)
        assert lvn_residual(traj, build_space(3, 2), traj.times[2048]) < 1e-6

    def test_straight_fibre_machine_zero(self):
        traj = cone_trajectory(0.0, 1.0, 65)
        assert lvn_residual(traj, build_space(3, 1), traj.times[32]) < 1e-15

    def test_off_grid_time_refused(self):
        traj = cone_trajectory(math.pi / 3.0, 1.0, 257)
        for t in (0.1234567, 2.0):
            with pytest.raises(ValueError, match="not a sample of the grid"):
                lvn_residual(traj, build_space(3, 1), t)

    @pytest.mark.parametrize("scale", [2.0**-40, 2.0**40], ids=["span-2^-40", "span-2^40"])
    def test_grid_times_judged_against_the_span_in_any_unit(self, scale):
        # A tolerance of 1e-9 * max(span, 1) took t = 5e-10 as a sample of a span of 2**-40.
        t, points = helix_points(1.0, 2.0 * math.pi, 1.0, 257)
        traj = tangent_trajectory(sampled_path(t * scale, points))
        space = build_space(3, 1)
        for i in (0, 128, 256):
            assert math.isfinite(lvn_residual(traj, space, traj.times[i]))
        off_grid = [0.5 * (traj.times[128] + traj.times[129])] + ([5e-10] if scale < 1.0 else [])
        for t_off in off_grid:
            with pytest.raises(ValueError, match="not a sample of the grid"):
                lvn_residual(traj, space, t_off)

    def test_random_smooth_tangent_field(self):
        space = build_space(3, 2)

        def worst(traj):
            probe = traj.times[:: (len(traj.times) - 1) // 16]
            return max(lvn_residual(traj, space, t) for t in probe)

        coarse, fine = worst(random_smooth_field(2049)), worst(random_smooth_field(4097))
        assert coarse < 1e-5
        assert coarse / fine >= 2.0

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    def test_matches_explicit_matrix_oracle(self, n_max):
        space = build_space(3, n_max)
        spin = spin_fixed(space)
        t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, 513)
        helix = helix_traj(steps=256)
        fields = {
            "helix": helix,
            "helix x1000": helix.scaled(1000.0),
            "sampled helix": tangent_trajectory(sampled_path(t, pts)),
            "random smooth": random_smooth_field(513),
        }
        for name, traj in fields.items():
            for i in range(0, 513, 32):
                gap = abs(lvn_residual(traj, space, traj.times[i]) - lvn_oracle(traj, spin, i))
                assert gap <= 1e-13, (name, i, gap)


class TestEvolutionOperatorV:
    def test_identity_at_pole(self):
        space = build_space(3, 2)
        v = evolution_operator_V(0.0, 0.7, space)
        assert np.abs(v.entries - np.eye(space.dimension)).max() < 1e-14

    def test_transforms_helicity_to_s3(self):
        space = build_space(3, 2)
        _, _, s3 = spin_fixed(space)
        sel = space.complete_sector_indices()
        lam, gam = math.pi / 4.0, 0.0
        v = evolution_operator_V(lam, gam, space)
        k = np.array([math.sin(lam) * math.cos(gam), math.sin(lam) * math.sin(gam), math.cos(lam)])
        i_op = helicity_operator(space, k)
        defect = (v.dagger() @ i_op @ v - s3).entries[np.ix_(sel, sel)]
        assert np.abs(defect).max() < 1e-9

    def test_unitary_for_random_angles(self):
        space = build_space(3, 2)
        eye = np.eye(space.dimension)
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = evolution_operator_V(rng.uniform(0, math.pi), rng.uniform(-6, 6), space)
            assert np.abs((v.dagger() @ v).entries - eye).max() < 1e-10

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
    def test_per_sector_matches_full_box_eigh(self, n_max):
        # Oracle: one eigh of the generator on the whole box, sectors the cutoff truncates included.
        space = build_space(3, n_max)
        s1, s2, _ = spin_fixed(space)
        s_plus, s_minus = s1.entries + 1j * s2.entries, s1.entries - 1j * s2.entries
        totals = space.basis.sum(axis=1)
        between = totals[:, None] != totals[None, :]
        eye = np.eye(space.dimension)
        rng = np.random.default_rng(29)
        for _ in range(10):
            lam, gam = rng.uniform(0, math.pi), rng.uniform(-6, 6)
            beta = -(lam / 2.0) * np.exp(-1j * gam)
            w, q = np.linalg.eigh(1j * (beta * s_plus - np.conj(beta) * s_minus))
            v = evolution_operator_V(lam, gam, space).entries
            assert np.abs(v - (q * np.exp(-1j * w)) @ q.conj().T).max() <= 1e-13
            assert not v[between].any()
            assert np.abs(v.conj().T @ v - eye).max() < 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, bad):
        space = build_space(3, 1)
        with pytest.raises(ValueError, match="polar_angle must be finite"):
            evolution_operator_V(bad, 0.0, space)
        with pytest.raises(ValueError, match="azimuth must be finite"):
            evolution_operator_V(0.5, bad, space)
