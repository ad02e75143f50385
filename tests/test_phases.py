import math
import tracemalloc

import numpy as np
import pytest

from fiberphase import (
    PhaseBreakdown,
    StateVector,
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
from fiberphase.phases import CHUNK_BYTES

BERRY_45 = 1.84030236902122  # 2*pi*(1 - cos(pi/4))


def helix_traj(lam=math.pi / 4.0, turns=1.0, steps=1024):
    pitch = 2.0 * math.pi / math.tan(lam)
    polar, offset = helix_cone(1.0, pitch)
    return cone_trajectory(polar, turns, 2 * steps + 1, azimuth_offset=offset)


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
        from fiberphase import TangentTrajectory

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


class TestEvolveState:
    def test_free_evolution(self):
        traj = cone_trajectory(0.0, 1.0, 129)
        space = build_space(3, 1)
        psi0 = build_photon_state(space, 1, 0)
        result = evolve_state(psi0, traj)
        assert np.abs(result.states - psi0.amplitudes[result.keep]).max() == 0.0
        assert np.array_equal(result.state_at(len(result.times) - 1).amplitudes, psi0.amplitudes)

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
        for i in (0, 1, len(result.times) - 1):
            assert np.all(result.state_at(i).amplitudes[~inside] == 0.0), label

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
        traj = helix_traj(lam=0.6, turns=0.25, steps=3 * chunk + chunk // 2)
        result = evolve_state(psi0, traj)
        assert np.array_equal(result.keep, keep)
        oracle = full_box_rk4(psi0, traj, spin)
        assert np.abs(result.states - oracle[:, keep]).max() <= TestSectorEvolution.ORACLE_TOL
        outside = np.setdiff1d(np.arange(space.dimension), keep)
        for i in (chunk, chunk + 1, len(result.times) - 1):
            assert np.all(result.state_at(i).amplitudes[outside] == 0.0)
        s = [op.entries[np.ix_(keep, keep)] for op in spin]
        energies = [
            np.vdot(psi, (ui[0] * s[0] + ui[1] * s[1] + ui[2] * s[2]) @ psi).real
            for psi, ui in zip(result.states, field_along(traj)[::2])
        ]
        assert np.array_equal(result.energies, energies)

    @pytest.mark.parametrize("photons", [0, 1, 2, 3, 4, 5, 6])
    def test_matches_per_sample_field_operators(self, photons):
        # d = 1, 3, 6, 10, 15 at n_max = 4, and 21, 28 at n_max = 6.  The step
        # loop with u.A built term by term at each of a step's three samples
        # and psi -> mj @ psi, the reference for the batched products and the
        # in-place step.
        space = build_space(3, 4 if photons <= 4 else 6)
        psi0 = build_photon_state(space, photons // 2 + photons % 2, photons // 2)
        traj = random_smooth_field(513)
        result = evolve_state(psi0, traj)
        keep, a = sector_generators(space, occupied_sectors(psi0))
        u, d = traj.precession_field, len(keep)
        step_h = traj.times[2::2] - traj.times[0:-2:2]
        chunk = max(1, CHUNK_BYTES // (8 * d * d))
        eye = np.eye(d)
        psi = psi0.amplitudes[keep]
        states, energies = [psi], []
        for start in range(0, result.steps, chunk):
            stop = min(start + chunk, result.steps)
            h = step_h[start:stop, None, None]
            g0 = _field_operator(u[2 * start : 2 * stop : 2], a)
            g1 = _field_operator(u[2 * start + 1 : 2 * stop : 2], a)
            g2 = _field_operator(u[2 * start + 2 : 2 * stop + 1 : 2], a)
            k1 = -g0
            k2 = -(g1 @ (eye + 0.5 * h * k1))
            k3 = -(g1 @ (eye + 0.5 * h * k2))
            k4 = -(g2 @ (eye + h * k3))
            m = (eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).astype(complex)
            for mj, gj in zip(m, g0):
                energies.append(np.vdot(psi, (-1j * gj) @ psi).real)
                psi = mj @ psi
                states.append(psi)
        energies.append(np.vdot(psi, (-1j * _field_operator(u[-1], a)) @ psi).real)
        assert np.array_equal(result.states, states)
        assert np.array_equal(np.signbit(result.states.view(float)), np.signbit(np.array(states).view(float)))
        assert np.array_equal(result.energies, energies)
        assert np.array_equal(np.signbit(result.energies), np.signbit(energies))

    def test_trajectory_residual_left_unbuilt(self):
        # The LvN residual is a trajectory diagnostic: evolution reads u alone.
        traj = helix_traj(lam=0.6, turns=0.25, steps=256)
        evolve_state(build_photon_state(build_space(3, 2), 1, 0), traj)
        assert "precession_field" in traj.__dict__
        assert "motion_residual" not in traj.__dict__

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
        arrays = (result.times, result.keep, result.states, result.norms, result.energies)
        returned = sum(a.nbytes for a in arrays)
        assert peak - returned <= 160 * len(traj.times) + 2 * 2**20


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
        traj = cone_trajectory(0.0, 1.0, 129)
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
        assert np.array_equal(result.energies, energies)

    def test_energies_match_per_sample_loop_multi_sector(self):
        # Sectors 0..3 at n_max = 3 make d = 20, so a chunk holds 10 steps
        # and 256 steps span 26 chunks, the last one partial.
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
        assert np.array_equal(result.energies, energies)

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
