import dataclasses
import math

import numpy as np
import pytest

from fiberphase import (
    FockSpace,
    OperatorMatrix,
    StateVector,
    annihilation,
    basis_state,
    build_photon_state,
    build_space,
    circular_operators,
    commutator,
    evolve_state,
    helicity_operator,
    identity,
    polarization_triad,
    s3_split,
    spin_fixed,
    vacuum_state,
)
from fiberphase.fock import _field_operator, occupied_sectors, sector_generators, sector_size, spin_scale
from fiberphase.geometry import _unit_trajectory
from test_phases import box_state, term_sum

Z = np.array([0.0, 0.0, 1.0])


def bounded_norm(op_entries, space):
    sel = space.bounded_indices()
    return np.abs(op_entries[np.ix_(sel, sel)]).max()


def dense_spin(space):
    """S_i = -i(b_j+ b_k - b_k+ b_j) as dense products of the ladder matrices, the independent oracle of spin_fixed."""
    b = [annihilation(space, m) for m in range(3)]
    bd = [op.dagger() for op in b]
    return tuple(-1j * (bd[j] @ b[k] - bd[k] @ b[j]) for j, k in ((1, 2), (2, 0), (0, 1)))


def scan_spin_scale(n):
    """spin_scale's former O(n_max^2) form: the largest sqrt(a) * sqrt(b) over the moves (a, b) inside the block."""
    a = np.arange(1, n + 1)[:, None]
    b = np.arange(1, n + 1)[None, :]
    inside = (a - 1 + b <= n) | ((a < n) & (b < n))
    return float((np.sqrt(a + 0.0) * np.sqrt(b))[inside].max())


def scan_spin_scales(top):
    """scan_spin_scale(n) for every n from 1 to top in one pass over the top x top moves.

    Move (a, b) is inside from n = min(a - 1 + b, max(a, b) + 1) on, so the
    scale at n is the running max of the moves that enter by n.
    """
    entering = np.zeros(2 * top + 1)
    b = np.arange(1, top + 1)
    for a in range(1, top + 1):
        np.maximum.at(entering, np.minimum(a - 1 + b, np.maximum(a, b) + 1), np.sqrt(a + 0.0) * np.sqrt(b))
    return np.maximum.accumulate(entering)[1 : top + 1]


def random_unit_vectors(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestBuildSpace:
    def test_dimensions(self):
        assert build_space(2, 1).dimension == 4
        assert build_space(3, 2).dimension == 27

    def test_lexicographic_enumeration(self):
        space = build_space(2, 2)
        assert tuple(space.basis[0]) == (0, 0)
        assert tuple(space.basis[1]) == (0, 1)
        assert tuple(space.basis[-1]) == (2, 2)
        assert space.index_of((1, 2)) == 5
        assert [space.index_of(occ) for occ in space.basis] == list(range(9))

    def test_index_of_rejects_occupations_outside_the_box(self):
        space = build_space(3, 2)
        for occupation in ((-1, 0, 0), (0, 3, 0), (0, 0), (0, 0, 0, 0)):
            with pytest.raises(ValueError, match="not in basis"):
                space.index_of(occupation)

    def test_space_is_its_two_fields(self):
        assert [f.name for f in dataclasses.fields(FockSpace)] == ["num_modes", "n_max"]
        a, b = build_space(3, 2), build_space(3, 2)
        a.basis  # built on one side only
        assert a == b and hash(a) == hash(b)
        assert a != build_space(3, 1) and a != build_space(2, 2)
        assert len({a, b, build_space(2, 2)}) == 2

    def test_basis_is_read_only(self):
        space = build_space(3, 2)
        assert space.basis.shape == (27, 3)
        assert space.basis is space.basis
        with pytest.raises(ValueError):
            space.basis[0, 0] = 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_space(2, 0)
        with pytest.raises(ValueError):
            build_space(1, 3)
        with pytest.raises(ValueError):
            build_space(4, 2)


class TestLadderOperators:
    def test_matrix_elements(self):
        space = build_space(2, 2)
        b = annihilation(space, 0)
        out = b.apply(basis_state(space, (2, 0)))
        expected = np.sqrt(2.0) * basis_state(space, (1, 0)).amplitudes
        assert np.abs(out.amplitudes - expected).max() < 1e-15

    def test_vacuum_annihilation(self):
        space = build_space(2, 2)
        b = annihilation(space, 1)
        assert b.apply(vacuum_state(space)).norm() == 0.0

    def test_canonical_commutator_on_bounded_subspace(self):
        space = build_space(2, 2)
        for mode in range(2):
            b = annihilation(space, mode)
            defect = commutator(b, b.dagger()) - identity(space)
            assert bounded_norm(defect.entries, space) < 1e-14

    def test_cross_mode_commutators_vanish(self):
        space = build_space(3, 2)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                c = commutator(annihilation(space, i), annihilation(space, j).dagger())
                assert bounded_norm(c.entries, space) < 1e-14

    def test_dagger_is_conjugate_transpose(self):
        b = OperatorMatrix(build_space(2, 1), np.arange(16).reshape(4, 4) * (1.0 + 2.0j))
        assert np.array_equal(b.dagger().entries, b.entries.conj().T)

    def test_mode_out_of_range(self):
        space = build_space(2, 1)
        with pytest.raises(ValueError):
            annihilation(space, 2)


class TestCircularOperators:
    def test_right_creation_on_vacuum(self):
        space = build_space(3, 2)
        _, a_r_dag, _, _ = circular_operators(space)
        out = a_r_dag.apply(vacuum_state(space)).amplitudes
        expected = (
            basis_state(space, (1, 0, 0)).amplitudes + 1j * basis_state(space, (0, 1, 0)).amplitudes
        ) / np.sqrt(2.0)
        assert np.abs(out - expected).max() < 1e-15

    def test_circular_commutators(self):
        for num_modes in (2, 3):
            space = build_space(num_modes, 2)
            a_r, a_r_dag, a_l, a_l_dag = circular_operators(space)
            assert bounded_norm((commutator(a_r, a_r_dag) - identity(space)).entries, space) < 1e-14
            assert bounded_norm((commutator(a_l, a_l_dag) - identity(space)).entries, space) < 1e-14
            assert bounded_norm(commutator(a_r, a_l_dag).entries, space) < 1e-14

    def test_opposite_handedness_orthogonal(self):
        space = build_space(3, 2)
        a_r, a_r_dag, a_l, _ = circular_operators(space)
        assert a_l.apply(a_r_dag.apply(vacuum_state(space))).norm() < 1e-15


class TestSpinFixed:
    def test_requires_three_modes(self):
        with pytest.raises(ValueError):
            spin_fixed(build_space(2, 2))

    def test_hermitian(self):
        for s in spin_fixed(build_space(3, 2)):
            assert np.abs(s.entries - s.entries.conj().T).max() <= 1e-12

    def test_s3_eigenstate(self):
        space = build_space(3, 2)
        _, _, s3 = spin_fixed(space)
        psi = build_photon_state(space, 1, 0)
        assert np.abs(s3.apply(psi).amplitudes - psi.amplitudes).max() < 1e-14

    def test_mode3_photon_carries_no_transverse_spin(self):
        space = build_space(3, 2)
        _, _, s3 = spin_fixed(space)
        assert s3.apply(basis_state(space, (0, 0, 1))).norm() == 0.0

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6])
    def test_bytes_equal_dense_products(self, n_max):
        # tobytes, not array_equal: the sign of every zero must match too.
        space = build_space(3, n_max)
        for op, oracle in zip(spin_fixed(space), dense_spin(space)):
            assert op.entries.tobytes() == oracle.entries.tobytes()

    def test_angular_momentum_algebra(self):
        space = build_space(3, 2)
        s = spin_fixed(space)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            defect = commutator(s[a], s[b]) - 1j * s[c]
            assert bounded_norm(defect.entries, space) < 1e-12


class TestSectorGenerators:
    SECTOR_SETS = ([0], [1], [2], [3], [4], [1, 4], [0, 1, 2, 3], None)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6])
    def test_equal_to_dense_slice(self, n_max):
        # Sectors above n_max are cut off by the per-mode cutoff; None is all of them.
        space = build_space(3, n_max)
        spin = dense_spin(space)
        for sectors in self.SECTOR_SETS:
            sectors = range(3 * n_max + 1) if sectors is None else [n for n in sectors if n <= 3 * n_max]
            keep, generators = sector_generators(space, sectors)
            totals = np.sum(space.basis, axis=1)
            assert np.array_equal(keep, np.flatnonzero(np.isin(totals, list(sectors))))
            for op, a in zip(spin, generators):
                assert a.dtype == np.float64
                assert np.array_equal(a, -op.entries[np.ix_(keep, keep)].imag), (n_max, sectors)
                assert np.array_equal(a, -a.T)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    def test_field_operator_entries_are_single_products(self, n_max):
        # Distinct mode pairs never share an entry, so the one product of _field_operator has the bits
        # of v_1 A_1 + v_2 A_2 + v_3 A_3 summed term by term, for one vector and for a stack of them.
        _, a = sector_generators(build_space(3, n_max), range(3 * n_max + 1))
        assert ((a != 0).sum(axis=0) <= 1).all()
        rng = np.random.default_rng(n_max)
        for v in (rng.normal(size=3), rng.normal(size=(7, 3)), rng.normal(size=(2, 5, 3))):
            assert np.array_equal(_field_operator(v, a), term_sum(v, a))

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6])
    def test_scale_equal_to_dense_block_max(self, n_max):
        space = build_space(3, n_max)
        exact = np.union1d(space.bounded_indices(), space.complete_sector_indices())
        box = np.ix_(exact, exact)
        dense = np.array([np.abs(op.entries[box]).max() for op in dense_spin(space)])
        assert type(spin_scale(space)) is float
        assert np.array_equal(np.full(3, spin_scale(space)), dense)

    @pytest.mark.parametrize("n_max", [7, 12, 20])
    def test_scale_equal_to_ladder_move_scan(self, n_max):
        # Every move b_j+ b_k of the box whose source and target lie in the block.
        space = build_space(3, n_max)
        n = space.basis
        exact = (n < n_max).all(axis=1) | (n.sum(axis=1) <= n_max)
        scan = []
        for j, k in ((1, 2), (2, 0), (0, 1)):
            largest = 0.0
            for p, q in ((j, k), (k, j)):
                step = np.zeros(3, dtype=int)
                step[p], step[q] = 1, -1
                moves = np.flatnonzero((n[:, q] > 0) & (n[:, p] < n_max))
                targets = np.ravel_multi_index((n[moves] + step).T, (n_max + 1,) * 3)
                values = np.sqrt(n[moves, p] + 1.0) * np.sqrt(n[moves, q])
                largest = max(largest, values[exact[moves] & exact[targets]].max())
            scan.append(largest)
        assert np.array_equal(np.full(3, spin_scale(space)), np.array(scan))

    def test_one_pass_scan_is_the_former_scan(self):
        assert np.array_equal(scan_spin_scales(300), [scan_spin_scale(n) for n in range(1, 301)])

    def test_closed_form_scale_equal_to_former_scan(self):
        closed = [spin_scale(build_space(3, n)) for n in range(1, 3001)]
        assert np.array_equal(closed, scan_spin_scales(3000))

    def test_scale_memory_is_not_box_sized(self):
        import tracemalloc

        space = build_space(3, 60)  # 226981 basis states, 60 x 60 moves
        tracemalloc.start()
        try:
            spin_scale(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * space.dimension

    def test_requires_three_modes(self):
        with pytest.raises(ValueError):
            sector_generators(build_space(2, 2), [1])
        with pytest.raises(ValueError):
            spin_scale(build_space(2, 2))
        with pytest.raises(ValueError, match="sector"):
            sector_generators(build_space(3, 1), [4])

    @pytest.mark.parametrize("num_modes", [2, 3])
    def test_sector_size_counts_the_basis(self, num_modes):
        for n_max in range(1, 9):
            space = build_space(num_modes, n_max)
            counts = np.bincount(space.basis.sum(axis=1), minlength=num_modes * n_max + 2)
            assert [sector_size(space, n) for n in range(num_modes * n_max + 2)] == counts.tolist()

    def test_occupied_sectors(self):
        space = build_space(3, 3)
        assert occupied_sectors(build_photon_state(space, 2, 1)) == [3]
        assert occupied_sectors(vacuum_state(space)) == [0]
        mixed = basis_state(space, (1, 0, 0)).amplitudes + basis_state(space, (3, 1, 0)).amplitudes
        assert occupied_sectors(StateVector(space, mixed)) == [1, 4]
        assert occupied_sectors(StateVector(space, np.zeros(space.dimension))) == []

    @pytest.mark.parametrize("num_modes, n_max", [(2, 5), (3, 1), (3, 4)])
    def test_occupied_sectors_are_the_totals_of_the_nonzero_basis_states(self, num_modes, n_max):
        space = build_space(num_modes, n_max)
        rng = np.random.default_rng(n_max)
        for _ in range(20):
            amplitudes = np.where(rng.random(space.dimension) < 0.1, 1.0, 0.0)
            totals = space.basis.sum(axis=1)[amplitudes != 0]
            assert occupied_sectors(StateVector(space, amplitudes)) == sorted(set(totals.tolist()))


class TestHelicityOperator:
    def test_along_z_is_s3(self):
        space = build_space(3, 2)
        _, _, s3 = spin_fixed(space)
        h = helicity_operator(space, Z)
        assert np.abs(h.entries - s3.entries).max() < 1e-15

    def test_along_x_matches_component(self):
        space = build_space(3, 2)
        b2, b3 = annihilation(space, 1), annihilation(space, 2)
        expected = -1j * (b2.dagger() @ b3 - b3.dagger() @ b2)
        h = helicity_operator(space, np.array([1.0, 0.0, 0.0]))
        assert np.abs(h.entries - expected.entries).max() < 1e-14

    def test_one_photon_spectrum(self):
        # independent oracle: dense eigensolve of the one-photon block
        space = build_space(3, 1)
        k = np.array([0.3, -0.4, np.sqrt(1 - 0.25)])
        h = helicity_operator(space, k)
        one_photon = [space.index_of(occ) for occ in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        block = h.entries[np.ix_(one_photon, one_photon)]
        eigs = np.sort(np.linalg.eigvalsh(block))
        assert np.abs(eigs - np.array([-1.0, 0.0, 1.0])).max() < 1e-12

    def test_matches_k_dot_s_for_random_directions(self):
        space = build_space(3, 2)
        s1, s2, s3 = spin_fixed(space)
        for k in random_unit_vectors(100, seed=3):
            h = helicity_operator(space, k)
            direct = k[0] * s1.entries + k[1] * s2.entries + k[2] * s3.entries
            assert np.abs(h.entries - direct).max() < 1e-13
            assert np.abs(h.entries - h.entries.conj().T).max() <= 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            helicity_operator(build_space(3, 1), np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        space = build_space(3, 1)
        for k in ([bad, 0.0, 0.0], [0.0, bad, 1.0]):
            with pytest.raises(ValueError, match="unit vector"):
                helicity_operator(space, np.array(k))
            with pytest.raises(ValueError, match="unit vector"):
                polarization_triad(np.array(k))

    def test_non_unit_refusal_prints_a_plain_float(self):
        with pytest.raises(ValueError) as err:
            polarization_triad([0.0, 0.0, 2.0])
        assert str(err.value) == "direction must be a unit vector, |k| = 2.0"
        assert "np.float64" not in str(err.value)

    def test_evolved_invariant_matches_dense(self):
        # Random states over sectors 1 and 4 at n_max = 3, sector 4 cut off by the cutoff, held
        # for one step along a fixed direction k: every recorded <k.S> is the dense expectation.
        # Then the same state along k bending away, u = (k x kdot)/|k|^2 growing from 0: at every
        # boundary <khat.S> and <u.S> are the dense expectations on the evolved state.
        space = build_space(3, 3)
        spin = spin_fixed(space)
        rng = np.random.default_rng(11)
        inside = np.isin(np.sum(space.basis, axis=1), [1, 4])
        t = np.linspace(0.0, 1.0, 17)
        for k, bend in zip(random_unit_vectors(10, seed=12), random_unit_vectors(10, seed=13)):
            amp = np.where(inside, rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension), 0.0)
            psi = StateVector(space, amp / np.linalg.norm(amp))
            dense = psi.expectation(helicity_operator(space, k)).real
            result = evolve_state(psi, _unit_trajectory(np.linspace(0.0, 1.0, 3), np.tile(k, (3, 1))))
            assert result.sectors == [1, 4]
            assert np.abs(result.invariants - dense).max() < 1e-13

            traj = _unit_trajectory(t, k + 0.1 * np.outer(t**2, bend))
            result = evolve_state(psi, traj)
            assert result.sectors == [1, 4]
            assert np.abs(result.energies).max() > 1e-3
            for i, (u, k_hat) in enumerate(zip(traj.precession_field[::2], traj.unit_tangents[::2])):
                state = box_state(space, result, i)
                energy = state.expectation(OperatorMatrix(space, _field_operator(u, [s.entries for s in spin]))).real
                helicity = state.expectation(helicity_operator(space, k_hat)).real
                assert abs(result.energies[i] - energy) < 1e-13
                assert abs(result.invariants[i] - helicity) < 1e-13


class TestS3Split:
    def test_vacuum_expectations(self):
        space = build_space(2, 2)
        r_nn, l_nn, r_n, l_n = s3_split(space)
        vac = vacuum_state(space)
        assert vac.expectation(r_nn).real == pytest.approx(0.5, abs=1e-15)
        assert vac.expectation(r_nn + l_nn).real == pytest.approx(0.0, abs=1e-15)

    def test_normal_order_counts_photons(self):
        space = build_space(2, 2)
        _, _, r_n, l_n = s3_split(space)
        psi = build_photon_state(space, 2, 1)
        assert psi.expectation(r_n + l_n).real == pytest.approx(1.0, abs=1e-14)

    def test_orderings_sum_to_same_matrix(self):
        for num_modes in (2, 3):
            space = build_space(num_modes, 2)
            r_nn, l_nn, r_n, l_n = s3_split(space)
            assert np.array_equal((r_nn + l_nn).entries, (r_n + l_n).entries)

    def test_half_shift_structure(self):
        space = build_space(3, 2)
        r_nn, l_nn, r_n, l_n = s3_split(space)
        half = 0.5 * identity(space)
        assert np.abs((r_nn - r_n - half).entries).max() == 0.0
        assert np.abs((l_nn - l_n + half).entries).max() == 0.0

    def test_split_sums_to_s3_on_three_modes(self):
        space = build_space(3, 2)
        _, _, s3 = spin_fixed(space)
        r_nn, l_nn, _, _ = s3_split(space)
        assert bounded_norm((r_nn + l_nn - s3).entries, space) < 1e-13


class TestPolarizationTriad:
    def test_canonical_gauge_at_pole(self):
        e1, e2 = polarization_triad(Z)
        assert np.abs(e1 - np.array([1.0, 0.0, 0.0])).max() < 1e-15
        assert np.abs(e2 - np.array([0.0, 1.0, 0.0])).max() < 1e-15

    def test_antipode(self):
        e1, e2 = polarization_triad(-Z)
        assert np.abs(np.cross(e1, e2) + Z).max() < 1e-15

    def test_x_direction_combination(self):
        k = np.array([1.0, 0.0, 0.0])
        e1, e2 = polarization_triad(k)
        # first spherical combination e2[1]*f[2] - e[2]*f[1] equals sin(lam)cos(gam) = 1
        assert e1[1] * e2[2] - e1[2] * e2[1] == pytest.approx(1.0, abs=1e-12)

    def test_transversality_and_spherical_components(self):
        for k in random_unit_vectors(100, seed=5):
            e1, e2 = polarization_triad(k)
            assert abs(np.dot(e1, e2)) < 1e-12
            assert np.linalg.norm(np.cross(e1, e2) - k) < 1e-12
            lam = np.arccos(np.clip(k[2], -1, 1))
            combos = np.array(
                [
                    e1[1] * e2[2] - e1[2] * e2[1],
                    e1[2] * e2[0] - e1[0] * e2[2],
                    e1[0] * e2[1] - e1[1] * e2[0],
                ]
            )
            gam = np.arctan2(k[1], k[0]) if np.sin(lam) > 1e-12 else 0.0
            spherical = np.array(
                [np.sin(lam) * np.cos(gam), np.sin(lam) * np.sin(gam), np.cos(lam)]
            )
            assert np.abs(combos - spherical).max() < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            polarization_triad(np.array([0.5, 0.0, 0.0]))


class TestPhotonStates:
    def test_single_right_photon_is_helicity_plus(self):
        space = build_space(3, 2)
        psi = build_photon_state(space, 1, 0)
        h = helicity_operator(space, Z)
        assert np.abs(h.apply(psi).amplitudes - psi.amplitudes).max() < 1e-12

    def test_vacuum(self):
        space = build_space(2, 1)
        psi = build_photon_state(space, 0, 0)
        _, _, r_n, l_n = s3_split(space)
        assert psi.expectation(r_n + l_n).real == 0.0

    def test_balanced_occupations(self):
        space = build_space(2, 2)
        psi = build_photon_state(space, 2, 2)
        _, _, r_n, l_n = s3_split(space)
        assert psi.expectation(r_n + l_n).real == pytest.approx(0.0, abs=1e-14)

    def test_normal_s3_eigenvalue(self):
        space = build_space(3, 3)
        psi = build_photon_state(space, 2, 1)
        assert abs(psi.norm() - 1.0) < 1e-12
        r_nn, l_nn, r_n, l_n = s3_split(space)
        out = (r_n + l_n).apply(psi)
        assert np.abs(out.amplitudes - 1.0 * psi.amplitudes).max() < 1e-12

    def test_cutoff_overflow_reported(self):
        space = build_space(3, 3)
        with pytest.raises(ValueError, match="cutoff overflow"):
            build_photon_state(space, 2, 2)
        with pytest.raises(ValueError, match="cutoff overflow"):
            build_photon_state(build_space(2, 1), 2, 0)

    def test_rotated_state_is_helicity_eigenstate(self):
        space = build_space(3, 2)
        for k in random_unit_vectors(20, seed=9):
            psi = build_photon_state(space, 1, 0, k_hat=k)
            h = helicity_operator(space, k)
            assert np.abs(h.apply(psi).amplitudes - psi.amplitudes).max() < 1e-12

    def test_helicity_eigenequations_both_signs(self):
        space = build_space(3, 2)
        h = helicity_operator(space, Z)
        plus = build_photon_state(space, 1, 0)
        minus = build_photon_state(space, 0, 1)
        assert np.abs(h.apply(plus).amplitudes - plus.amplitudes).max() < 1e-12
        assert np.abs(h.apply(minus).amplitudes + minus.amplitudes).max() < 1e-12


def dense_circular_creation(space, k_hat):
    """a_R+ and a_L+ of the direction k_hat as dense matrices built from the creation operators."""
    e1, e2 = polarization_triad(k_hat)
    bd = [annihilation(space, m).dagger() for m in range(3)]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    a_r_dag = inv_sqrt2 * sum(((e1[m] + 1j * e2[m]) * bd[m] for m in range(3)), start=0.0 * bd[0])
    a_l_dag = inv_sqrt2 * sum(((e1[m] - 1j * e2[m]) * bd[m] for m in range(3)), start=0.0 * bd[0])
    return a_r_dag, a_l_dag


class TestMatrixFreePhotonState:
    def test_matches_dense_creation_matrices(self):
        # Every (n_r, n_l) under the cutoff, n_max 1..5, three random directions each.
        for n_max in range(1, 6):
            space = build_space(3, n_max)
            for k in random_unit_vectors(3, seed=13):
                a_r_dag, a_l_dag = dense_circular_creation(space, k)
                for n_r in range(n_max + 1):
                    for n_l in range(n_max + 1 - n_r):
                        oracle = vacuum_state(space)
                        for op in [a_r_dag] * n_r + [a_l_dag] * n_l:
                            oracle = op.apply(oracle)
                        scale = math.sqrt(math.factorial(n_r) * math.factorial(n_l))
                        psi = build_photon_state(space, n_r, n_l, k_hat=k)
                        gap = np.abs(psi.amplitudes - oracle.amplitudes / scale).max()
                        assert gap < 1e-15, (n_max, n_r, n_l, gap)


class TestSerialization:
    def test_entries_are_immutable(self):
        space = build_space(2, 1)
        op = annihilation(space, 0)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 1.0


class TestRefusals:
    # Each guard of the operator and state layer, reached by a direct call, with its message.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: OperatorMatrix(build_space(2, 1), np.zeros((3, 3))),
             r"entries shape \(3, 3\) does not match dimension 4"),
            (lambda: OperatorMatrix(build_space(2, 1), np.zeros(16)), r"entries shape \(16,\) does not match"),
            (lambda: annihilation(build_space(2, 1), 0) @ annihilation(build_space(2, 2), 0),
             "operands live on different Fock spaces"),
            (lambda: annihilation(build_space(2, 1), 0).apply(vacuum_state(build_space(3, 1))),
             "operands live on different Fock spaces"),
            (lambda: StateVector(build_space(2, 1), np.zeros(3)), r"amplitude length \(3,\) does not match dimension 4"),
            (lambda: StateVector(build_space(2, 1), [1.0, math.nan, 0.0, 0.0]), "amplitudes must be finite"),
            (lambda: StateVector(build_space(2, 1), [1.0, complex(0.0, math.inf), 0.0, 0.0]),
             "amplitudes must be finite"),
            (lambda: polarization_triad([0.0, 1.0]), "direction must be a 3-vector"),
            (lambda: helicity_operator(build_space(3, 1), np.eye(3)), "direction must be a 3-vector"),
            (lambda: build_photon_state(build_space(3, 2), -1, 0), "photon numbers must be non-negative"),
            (lambda: build_photon_state(build_space(2, 2), 0, -1), "photon numbers must be non-negative"),
            (lambda: build_photon_state(build_space(2, 2), 1, 0, k_hat=Z),
             "a propagation direction only applies to 3-mode spaces"),
        ],
        ids=["entries-square", "entries-flat", "matmul-spaces", "apply-spaces", "amplitude-length", "amplitude-nan",
             "amplitude-inf", "direction-2-vector", "direction-matrix", "n_r-negative", "n_l-negative",
             "direction-2-modes"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
