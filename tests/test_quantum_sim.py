import dataclasses
import functools
import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import chem_io, embedding, fci, fingerprint_ml, mean_field, pipeline, quantum_sim as qs
from qfp.quantum_sim import GateSequence, NoiseSpec, PauliHamiltonian

from conftest import (PAULI_2X2, counted_mu_fits, dmet_h2, fold_sequence, full_width,
                      h4_molecule, hamiltonian_matrix, kron_string, number_expectation,
                      pauli_hamiltonian, pauli_masks, pauli_matrix)


@pytest.fixture(scope="module")
def h2_pauli(h2_active):
    return qs.jordan_wigner(h2_active)


pauli_strings = st.text(alphabet="IXYZ", min_size=1, max_size=5)


@settings(max_examples=50, deadline=None)
@given(s=pauli_strings, seed=st.integers(0, 1000))
def test_apply_pauli_matches_dense_matrix(s, seed):
    n = len(s)
    re, im = np.random.default_rng(seed).normal(size=(2, 1 << n))
    psi = re + 1j * im
    M = pauli_matrix([(1.0, s)], n)
    gs = GateSequence(gates=[(None, pauli_masks(s))], n_qubits=n)
    assert np.allclose(qs.run_sequence(gs, psi), M @ psi, atol=1e-12)
    # Pauli strings are involutions with unit square
    assert np.allclose(M @ M, np.eye(1 << n), atol=1e-12)


def test_pauli_hamiltonian_canonicalization(h2_pauli, h4_pauli):
    # Masks qubit 0 at bit 0: x = 1, z = 0 is X on qubit 0, x = z = 2 is Y on qubit 1.
    ph = PauliHamiltonian(np.array([1, 0, 0, 2]), np.array([0, 2, 0, 2]),
                          np.array([0.5, -1.0, 2.0, 0.25]), n_qubits=2)
    assert ph.terms == [(0.5, "XI"), (-1.0, "IZ"), (2.0, "II"), (0.25, "IY")]
    assert ph.identity_coefficient == 2.0
    # jordan_wigner sorts its strings with I < X < Y < Z, qubit 0 first.
    strings = [s for _, s in h2_pauli.terms]
    assert strings == sorted(strings) and len(set(strings)) == len(strings)
    # Each string displays its row's masks, and a Lie step is one gate
    # (2 c t, (x, z)) per non-identity row, in row order.
    for ph in (h2_pauli, h4_pauli):
        rows = list(zip(ph.coeffs.tolist(), ph.x.tolist(), ph.z.tolist()))
        assert [pauli_masks(s) for _, s in ph.terms] == [(x, z) for _, x, z in rows]
        assert qs.trotter_sequence(ph, 0.37, 1, 1).gates == [
            (2 * c * 0.37, (x, z)) for c, x, z in rows if x | z]


def test_jw_spectrum_matches_determinant_oracle_h2(h2_active, h2_pauli):
    H_q = hamiltonian_matrix(h2_pauli)
    H_f = fci.fock_space_hamiltonian(h2_active.h_eff, h2_active.eri_active,
                                     h2_active.e_core)
    assert np.max(np.abs(H_q - H_f)) < 1e-10


def test_jw_spectrum_matches_determinant_oracle_h4():
    m = h4_molecule(1.4)
    mf = mean_field.scf_solve(m)
    eh = embedding.homo_lumo_active_space(m, mf, 4, 4)
    w_q = np.linalg.eigvalsh(hamiltonian_matrix(qs.jordan_wigner(eh)))
    w_f = np.linalg.eigvalsh(
        fci.fock_space_hamiltonian(eh.h_eff, eh.eri_active, eh.e_core))
    assert np.max(np.abs(w_q - w_f)) < 1e-10


def test_prepare_initial_occupations():
    gs, psi = qs.prepare_initial("hf_ground", 4, 2)
    assert number_expectation(psi) == pytest.approx(2.0)
    assert psi[0b0011] == 1.0  # lowest two spin orbitals filled
    gs, psi = qs.prepare_initial("homo_lumo_excited", 8, 4)
    assert psi[0b00110011] == 1.0  # HOMO pair promoted to the LUMO
    gs, psi = qs.prepare_initial("half_occupied", 4, 2)
    probs = np.abs(psi) ** 2
    assert number_expectation(psi) == pytest.approx(2.0)
    assert np.allclose(probs, 1.0 / 16)  # Ry(pi/2) on every qubit
    with pytest.raises(ValueError):
        qs.prepare_initial("hf_ground", 4, 3)
    with pytest.raises(ValueError):
        qs.prepare_initial("nope", 4, 2)


def test_prot_gate_is_pauli_rotation():
    theta = 0.731
    M = pauli_matrix([(1.0, "XY")], 2)
    U = scipy.linalg.expm(-0.5j * theta * M)
    psi = np.random.default_rng(3).normal(size=4) + 0j
    psi /= np.linalg.norm(psi)
    seq = GateSequence(gates=[(theta, pauli_masks("XY"))], n_qubits=2)
    assert np.allclose(qs.run_sequence(seq, psi), U @ psi, atol=1e-12)


def test_exact_evolution_conserves_everything(h2_active, h2_pauli):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    ev = qs.ExactEvolver(h2_pauli)
    e0 = np.vdot(psi0, hamiltonian_matrix(h2_pauli) @ psi0).real
    for t in np.arange(0, 14.01, 0.5):
        psi = full_width(*ev.evolve(psi0, t), 4)
        assert abs(np.linalg.norm(psi) - 1) < 1e-10
        assert abs(number_expectation(psi) - 2.0) < 1e-10
        assert abs(np.vdot(psi, hamiltonian_matrix(h2_pauli) @ psi).real - e0) < 1e-10


def test_trotter_converges_to_exact(h2_pauli):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    exact = full_width(*qs.ExactEvolver(h2_pauli).evolve(psi0, 2.0), 4)
    for order in (1, 2):
        approx = qs.run_sequence(
            qs.trotter_sequence(h2_pauli, 2.0, order=order, r=256), psi0)
        assert np.linalg.norm(approx - exact) < 2e-3


def test_trotter_error_scaling_with_r(h2_pauli):
    # one halving of dt: order-1 error ~ /2, order-2 error ~ /4
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    exact = full_width(*qs.ExactEvolver(h2_pauli).evolve(psi0, 1.0), 4)
    for order, expected in ((1, 2.0), (2, 4.0)):
        errs = [np.linalg.norm(
            qs.run_sequence(qs.trotter_sequence(h2_pauli, 1.0, order, r), psi0)
            - exact) for r in (16, 32)]
        assert errs[0] / errs[1] == pytest.approx(expected, rel=0.1)


def test_trotter_preserves_norm_and_number(h2_pauli):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    psi = qs.run_sequence(qs.trotter_sequence(h2_pauli, 6.0, order=2, r=3), psi0)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert abs(number_expectation(psi) - 2.0) < 1e-10


def test_trotter_t_zero_is_identity_with_phase(h2_pauli):
    psi0 = qs.basis_state(3, 4)
    psi = qs.run_sequence(qs.trotter_sequence(h2_pauli, 0.0, order=2, r=1), psi0)
    assert np.allclose(psi, psi0, atol=1e-12)


@pytest.fixture(scope="module")
def h4_pauli():
    m = h4_molecule(1.5)
    return qs.jordan_wigner(
        embedding.homo_lumo_active_space(m, mean_field.scf_solve(m), 4, 3))


def _grouped(ph):
    """ph with its strings reordered by x mask (the X or Y positions), each group
    where its first string was."""
    groups = {}
    for c, s in ph.terms:
        groups.setdefault(tuple(ch in "XY" for ch in s), []).append((c, s))
    return pauli_hamiltonian([t for g in groups.values() for t in g], ph.n_qubits)


def _random_state(n_qubits, seed):
    re, im = np.random.default_rng(seed).normal(size=(2, 1 << n_qubits))
    psi = re + 1j * im
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("order", [1, 2])
def test_grouped_step_matches_per_string_step(h2_pauli, h4_pauli, order):
    # One step: the group exponentials equal the PauliRotation gates of the
    # strings reordered by group, the identity's phase included.
    for ph in (h2_pauli, h4_pauli):
        gph = _grouped(ph)
        assert [s for _, s in gph.terms] != [s for _, s in ph.terms]
        for seed in range(3):
            psi0 = _random_state(ph.n_qubits, seed)
            for h in (0.5, 1.7):
                got = full_width(*qs.trotter_evolve(ph, psi0, [h], order=order, r=1),
                                 ph.n_qubits)[0]
                ref = qs.run_sequence(qs.trotter_sequence(gph, h, order, 1), psi0)
                assert np.max(np.abs(got - ref)) < 1e-13, (ph.n_qubits, seed, h)


@pytest.mark.parametrize("kind", ["hf_ground", "homo_lumo_excited", "half_occupied"])
def test_trotter_evolve_is_r_steps_per_interval(h2_pauli, h4_pauli, kind):
    # On an even grid from 0, the state at t_k has taken r * k steps of t_1 / r.
    grid = np.arange(0.0, 6.5, 0.5)
    for ph, n_electrons in ((h2_pauli, 2), (h4_pauli, 4)):
        gph = _grouped(ph)
        _, psi0 = qs.prepare_initial(kind, ph.n_qubits, n_electrons)
        for order in (1, 2):
            for r in (1, 2):
                idx, states = qs.trotter_evolve(ph, psi0, grid, order=order, r=r)
                assert states.shape == (grid.size, idx.size)
                batch = full_width(idx, states, ph.n_qubits)
                assert np.array_equal(batch[0], psi0)
                for k in range(1, grid.size):
                    ref = qs.run_sequence(
                        qs.trotter_sequence(gph, grid[k], order, r * k), psi0)
                    assert np.max(np.abs(batch[k] - ref)) < 1e-12, (order, r, k)


def test_trotter_evolve_uneven_grid_composes_intervals(h4_pauli):
    # The first interval is [0, times[0]]; each interval takes r steps of its own length.
    grid = [0.3, 0.7, 1.9, 2.0, 5.5, 11.25]
    gph = _grouped(h4_pauli)
    for kind in ("homo_lumo_excited", "half_occupied"):
        _, psi0 = qs.prepare_initial(kind, h4_pauli.n_qubits, 4)
        for order in (1, 2):
            batch = full_width(*qs.trotter_evolve(h4_pauli, psi0, grid, order=order, r=3),
                               h4_pauli.n_qubits)
            psi, prev = psi0, 0.0
            for t, row in zip(grid, batch):
                psi = qs.run_sequence(qs.trotter_sequence(gph, t - prev, order, 3), psi)
                prev = t
                assert np.max(np.abs(row - psi)) < 1e-12, (kind, order, t)


def test_trotter_evolve_rejects_bad_input(h2_pauli):
    psi0 = qs.basis_state(3, 4)
    with pytest.raises(ValueError, match="state dimension"):
        qs.trotter_evolve(h2_pauli, qs.basis_state(0, 3), [1.0])
    with pytest.raises(ValueError, match="1-D"):
        qs.trotter_evolve(h2_pauli, psi0, [[1.0]])
    with pytest.raises(ValueError, match="orders"):
        qs.trotter_evolve(h2_pauli, psi0, [1.0], order=3)
    with pytest.raises(ValueError, match="repetition"):
        qs.trotter_evolve(h2_pauli, psi0, [1.0], r=0)
    with pytest.raises(ValueError, match="couples"):
        qs.trotter_evolve(pauli_hamiltonian([(0.3, "XXII")], 4), psi0, [1.0])
    # An odd-Y string has an imaginary matrix.
    with pytest.raises(ValueError, match="real Hamiltonian matrix: term 0.3 YIII"):
        qs.trotter_evolve(pauli_hamiltonian([(1.0, "ZIII"), (0.3, "YIII")], 4), psi0, [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_evolvers_reject_non_finite_times(h2_pauli, bad):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    message = f"time {bad} is not finite"
    with pytest.raises(ValueError, match=message):
        qs.trotter_evolve(h2_pauli, psi0, [0.0, bad, 1.0])
    with pytest.raises(ValueError, match=message):
        qs.ExactEvolver(h2_pauli).evolve(psi0, [0.0, bad])
    with pytest.raises(ValueError, match=message):
        qs.ExactEvolver(h2_pauli).evolve(psi0, bad)


def test_propagator_rule_weighs_sector_size_against_shared_intervals():
    build = qs._builds_propagator
    # A length used once is always stepped, whatever the sector size.
    assert not any(build(d, 1) for d in range(1, 5000))
    # The benchmark's 29-point grid (28 intervals of one length) at H6 (4e,4o),
    # d = 36, builds; at H8 (6e,6o), d = 400, it steps, as it measured faster.
    assert build(36, 28) and not build(400, 28)
    # At d = 36 the step-0.3 grid's lengths, used 16, 13, 8, 4, 2, 2 and 1 times,
    # split 4 built / 3 stepped; the measured crossover there is about 4 intervals.
    assert [build(36, n) for n in (16, 13, 8, 4, 2, 2, 1)] == [True] * 4 + [False] * 3
    # More sharing never turns a build off, and a smaller sector builds sooner.
    for d in (2, 9, 36, 100, 225, 400, 4900):
        first = next(n for n in range(1, 10 ** 5) if build(d, n))
        assert all(build(d, n) for n in range(first, first + 50))
        assert build(d - 1, first)


def _trotter_route_case(name):
    """(ph, n_electrons, grid) of a route case."""
    if name == "h8_66_d400":  # 12 qubits, (3,3) sector of 400 states
        return qs.jordan_wigner(_chain_active(8, 6, 6)), 6, 0.5 * np.arange(4)
    ph = qs.jordan_wigner(_h6_active_44())  # (2,2) sector of 36 states
    if name == "step_0.3":  # the config grid 0..14 step 0.3: seven distinct lengths
        return ph, 4, 0.3 * np.arange(47)
    return ph, 4, np.array([0.3, 0.7, 1.9, 2.0, 5.5, 11.25])


@functools.lru_cache(maxsize=None)
def _trotter_route_reference(name, order):
    """The case, its start state and the interval circuits composed one by one."""
    ph, n_electrons, grid = _trotter_route_case(name)
    _, psi0 = qs.prepare_initial("homo_lumo_excited", ph.n_qubits, n_electrons)
    gph = _grouped(ph)
    psi, prev, rows = psi0, 0.0, []
    for t in grid:
        if t != prev:
            psi = qs.run_sequence(qs.trotter_sequence(gph, t - prev, order, 2), psi)
        prev = t
        rows.append(psi)
    return ph, psi0, grid, np.array(rows)


@pytest.mark.parametrize("route", ["rule", "propagator", "vector"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case, rule_builds", [("h8_66_d400", {False}),
                                                ("step_0.3", {True, False}),
                                                ("uneven", {False})])
def test_trotter_evolve_routes_match_interval_circuits(monkeypatch, case, rule_builds, order,
                                                       route):
    # Both routes, forced and as the rule picks them per length, against r = 2
    # steps per interval run as gates.  Order 1 also pins the propagator's
    # orientation: a Strang step is a palindrome of complex symmetric
    # factors, so its matrix equals its transpose.
    ph, psi0, grid, ref = _trotter_route_reference(case, order)
    rule, built = qs._builds_propagator, []

    def choose(d, uses):
        built.append({"rule": rule(d, uses), "propagator": True, "vector": False}[route])
        return built[-1]

    monkeypatch.setattr(qs, "_builds_propagator", choose)
    batch = full_width(*qs.trotter_evolve(ph, psi0, grid, order=order, r=2), ph.n_qubits)
    expected = {"rule": rule_builds, "propagator": {True}, "vector": {False}}[route]
    assert set(built) == expected
    assert np.max(np.abs(batch - ref)) < 1e-12


def _parity_vector_bit_loop(mask, n_qubits):
    """The per-bit reference: XOR one bit of the mask at a time."""
    b = np.arange(1 << n_qubits)
    acc = np.zeros(1 << n_qubits, dtype=np.int64)
    mm = mask
    while mm:
        low = mm & -mm
        acc ^= (b & low) != 0
        mm ^= low
    return 1 - 2 * acc


@pytest.mark.parametrize("n_qubits", range(13))
def test_parity_vector_matches_bit_loop(n_qubits):
    rng = np.random.default_rng(n_qubits)
    full = (1 << n_qubits) - 1
    masks = {0, full, full & 0b1010101010101} | set(
        int(m) for m in rng.integers(0, full + 1, size=20))
    for mask in masks:
        got = qs._parity_vector(mask, n_qubits)
        ref = _parity_vector_bit_loop(mask, n_qubits)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref), mask


def test_rdm1_properties(h2_pauli):
    _, psi0 = qs.prepare_initial("half_occupied", 4, 2)
    idx, psi = qs.ExactEvolver(h2_pauli).evolve(psi0, 1.5)
    rho = qs.rdm1(psi, idx, 4)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(number_expectation(full_width(idx, psi, 4)),
                                               abs=1e-10)
    w = np.linalg.eigvalsh(rho)
    assert w.min() > -1e-10 and w.max() < 2 + 1e-10


@pytest.mark.parametrize("length", [3, 6, 12, 24])
def test_rdm1_rejects_amplitudes_not_matching_idx(length):
    # Amplitudes on the 16 indices of 4 qubits, one state or a batch of them.
    message = r"amplitudes of shape \(.*\) do not match 16 basis indices"
    for shape in ((length,), (2, length)):
        with pytest.raises(ValueError, match=message):
            qs.rdm1(np.ones(shape), np.arange(16), 4)
    with pytest.raises(ValueError, match="odd qubit count"):
        qs.rdm1(np.ones(8), np.arange(8), 3)


def test_expval_F_at_t0_matches_direct_sum(h2_active):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    rho = qs.rdm1(psi0, np.arange(16), 4)
    val = qs.expval_O(h2_active.h_eff, rho)
    assert val == pytest.approx(2.0 * h2_active.h_eff[0, 0], abs=1e-12)


def test_expval_O_batch_matches_each_matrix_bitwise():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 8):
        A = rng.normal(size=(3, 7, n, n)) + 1j * rng.normal(size=(3, 7, n, n))
        rdm = A + A.conj().swapaxes(-1, -2)
        O = rng.normal(size=(n, n))
        O = O + O.T
        vals = qs.expval_O(O, rdm)
        assert vals.shape == (3, 7)
        one = [qs.expval_O(O, rho) for rho in rdm.reshape(-1, n, n)]
        assert all(type(v) is float for v in one)
        assert vals.ravel().tolist() == one
    with pytest.raises(ValueError, match="dimension mismatch"):
        qs.expval_O(np.eye(2), np.zeros((3, 2, 3)))


def test_expval_O_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qs.expval_O(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) + 0j)


def test_expval_O_rejects_imaginary_residue():
    # Hermitian O against a non-Hermitian density leaves <O> = 1j
    with pytest.raises(ValueError, match="imaginary residue"):
        qs.expval_O([[0, 1], [1, 0]], [[0, 1j], [0, 0]])


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(p=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(p=0.1, scale=0.5)
    with pytest.raises(ValueError):
        NoiseSpec(p=0.5, scale=3)  # p * scale >= 1
    for scale in (np.inf, np.nan):  # p * scale is NaN at p = 0
        with pytest.raises(ValueError, match="scale must be finite"):
            NoiseSpec(p=0.0, scale=scale)


def test_fold_sequence_preserves_unitary(h2_pauli):
    gs = qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    psi0 = qs.basis_state(3, 4)
    ref = qs.run_sequence(gs, psi0)
    folded = fold_sequence(gs, 3)
    assert len(folded.gates) == 3 * len(gs.gates)
    assert np.allclose(qs.run_sequence(folded, psi0), ref, atol=1e-10)
    for scale in (2, 2.5):  # only odd integer scales fold
        with pytest.raises(ValueError, match="odd integer"):
            NoiseSpec(p=0.1, scale=scale)


def test_noisy_expectation_zero_noise_matches_ideal(h2_active, h2_pauli):
    prep, _ = qs.prepare_initial("hf_ground", 4, 2)
    circ = prep + qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    O = h2_active.h_eff
    ideal_state = qs.run_sequence(circ, qs.basis_state(0, 4))
    ideal = qs.expval_O(O, qs.rdm1(ideal_state, np.arange(16), 4))
    # Without noise every frame is the identity, and the folded copies of a
    # rotation merge into the gate itself: every scale gives the same bits.
    got = [qs.noisy_expectation(circ, O, NoiseSpec(p=0.0, scale=scale), 5, seed=0)
           for scale in (1, 3, 5)]
    assert got[0] == got[1] == got[2], got
    mean, err = got[0]
    assert mean == pytest.approx(ideal, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_noisy_expectation_deterministic_given_seed(h2_active, h2_pauli):
    prep, _ = qs.prepare_initial("hf_ground", 4, 2)
    circ = prep + qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    a = qs.noisy_expectation(circ, h2_active.h_eff, NoiseSpec(p=0.05), 50, seed=9)
    b = qs.noisy_expectation(circ, h2_active.h_eff, NoiseSpec(p=0.05), 50, seed=9)
    assert a == b


@pytest.mark.parametrize("n_trajectories", [0, -1])
def test_noisy_expectation_rejects_fewer_than_one_trajectory(h2_pauli, n_trajectories):
    circ = qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    with pytest.raises(ValueError, match="n_trajectories"):
        qs.noisy_expectation(circ, np.eye(2), NoiseSpec(p=0.05), n_trajectories, seed=0)


def _exact_noisy_expectation(gs, O, p, scale):
    """Tr(rho O) after the folded circuit under the per-gate Pauli channel.

    Brute-force density-matrix reference built from Kronecker products:
    after each folded gate rho -> (1 - p) rho + p * mean(P rho P) over the
    4^k - 1 non-identity Pauli strings on the gate's k-qubit support.
    """
    n = gs.n_qubits
    eye = [np.eye(2)] * n
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    channels = {}
    for theta, (x, z) in fold_sequence(gs, scale).gates:
        string = "".join("IXZY"[(x >> q & 1) + 2 * (z >> q & 1)] for q in range(n))
        support = [q for q, ch in enumerate(string) if ch != "I"]
        U = kron_string([PAULI_2X2[ch] for ch in string])
        if theta is not None:
            U = np.cos(theta / 2) * np.eye(1 << n) - 1j * np.sin(theta / 2) * U
        rho = U @ rho @ U.conj().T
        key = tuple(support)
        if key not in channels:
            errors = []
            for symbols in itertools.product("IXYZ", repeat=len(support)):
                if set(symbols) != {"I"}:
                    factors = list(eye)
                    for q, ch in zip(support, symbols):
                        factors[q] = PAULI_2X2[ch]
                    errors.append(kron_string(factors))
            channels[key] = errors
        errors = channels[key]
        rho = (1 - p) * rho + p * sum(E @ rho @ E for E in errors) / len(errors)
    return float(np.real(np.trace(rho @ O)))


@pytest.mark.parametrize("scale", [1, 3, 5])
def test_noisy_expectation_matches_density_matrix_oracle(h2_pauli, scale):
    # O is the LUMO occupation.  p = 0.05 moves it 25, 39 and 41 standard
    # errors from the ideal value at scales 1, 3 and 5; a Pauli on only the
    # first support qubit misses by 30 and 24 at scales 1 and 3.  The oracle's Fock-space O comes from the
    # determinant-basis fci module, not from the Jordan-Wigner route.
    prep, _ = qs.prepare_initial("hf_ground", 4, 2)
    circ = prep + qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    O = np.diag([0.0, 1.0])
    O_fock = fci.fock_space_hamiltonian(O, np.zeros((2, 2, 2, 2)), 0.0)
    exact = _exact_noisy_expectation(circ, O_fock, 0.05, scale)
    ideal = _exact_noisy_expectation(circ, O_fock, 0.0, scale)
    mean, err = qs.noisy_expectation(circ, O, NoiseSpec(p=0.05, scale=scale), 1000, seed=3)
    assert abs(exact - ideal) > 15 * err
    assert abs(mean - exact) < 4 * err


def _scalar_noisy_expectation(gs, O, ns, n_trajectories, seed):
    """The one-trajectory-at-a-time loop that noisy_expectation batches.

    It draws the noise events in noisy_expectation's order: one
    rng.random((K, G)) array whose entries below p mark the hits, then one
    rng.integers(1, 4^k) call giving each hit, in row-major order, its Pauli
    code on the gate's k-qubit support.  Each trajectory then runs the
    physically folded circuit gate by gate, applying each drawn Pauli after
    its gate, and each final state is measured with its own rdm1 and
    expval_O.
    """
    folded = fold_sequence(gs, ns.scale)
    rng = np.random.default_rng(seed)
    n = gs.n_qubits
    supports = [[q for q in range(n) if (x | z) >> q & 1] for _, (x, z) in folded.gates]
    errors = {}
    if ns.p > 0:
        hits = np.argwhere(rng.random((n_trajectories, len(supports))) < ns.p)
        highs = [4 ** len(supports[g]) for _, g in hits]
        for (k, g), code in zip(hits.tolist(), rng.integers(1, highs).tolist()):
            s = ["I"] * n
            for q in supports[g]:
                s[q] = "IXYZ"[code % 4]
                code //= 4
            errors[k, g] = pauli_masks("".join(s))
    vals = np.empty(n_trajectories)
    for k in range(n_trajectories):
        psi = qs.basis_state(0, n)
        for g, gate in enumerate(folded.gates):
            psi = qs.run_sequence(GateSequence(gates=[gate], n_qubits=n), psi)
            if (k, g) in errors:
                psi = qs.run_sequence(GateSequence(gates=[(None, errors[k, g])], n_qubits=n),
                                      psi)
        vals[k] = qs.expval_O(O, qs.rdm1(psi, np.arange(1 << n), n))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_trajectories)) if n_trajectories > 1 else 0.0
    return mean, stderr


@pytest.mark.parametrize("kind", ["hf_ground", "homo_lumo_excited", "half_occupied"])
def test_noisy_expectation_matches_scalar_loop_bitwise(monkeypatch, h2_pauli, h4_pauli, kind):
    # rdm1 records the states it measures: the batch, then the loop's states.
    states = []
    rdm1 = qs.rdm1
    monkeypatch.setattr(qs, "rdm1", lambda psi, idx, n: states.append(psi) or rdm1(psi, idx, n))
    # The second circuit repeats the prep gates after the evolution, so that a
    # bare X gate can meet a frame that anticommutes with it.
    for ph, n_electrons, repeat in ((h2_pauli, 2, False), (h4_pauli, 4, False),
                                    (h4_pauli, 4, True)):
        prep, _ = qs.prepare_initial(kind, ph.n_qubits, n_electrons)
        circ = prep + qs.trotter_sequence(ph, 1.0, order=2, r=1)
        if repeat:
            circ = circ + prep
        n = ph.n_qubits // 2
        O = np.diag(np.arange(1.0, n + 1)) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
        for scale in (1, 3, 5):
            for p in (0.0, 0.1):
                for n_traj in (1, 12):
                    ns = NoiseSpec(p=p, scale=scale)
                    states.clear()
                    got = qs.noisy_expectation(circ, O, ns, n_traj, seed=scale + 7)
                    ref = _scalar_noisy_expectation(circ, O, ns, n_traj, scale + 7)
                    if scale == 1:
                        assert got == ref, (ph.n_qubits, p, n_traj)
                        # Each frame carries its phase: the final states
                        # themselves are the loop's, not just their rdm1.
                        assert np.array_equal(states[0], states[1:]), (ph.n_qubits, p, n_traj)
                    else:
                        # Merged folds apply G where the copies G G+ G give G
                        # up to round-off.
                        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12, (
                            ph.n_qubits, scale, p, n_traj, got, ref)


def test_noisy_expectation_draws_uniform_non_identity_paulis(monkeypatch):
    # Record the noise draw: the (x, z) masks of the Pauli drawn after each
    # folded gate in each trajectory, (0, 0) where none was.  Folding at scale
    # 3 turns the two gates into six, three on a one-qubit and three on a
    # two-qubit support.
    gs = GateSequence(gates=[(0.3, pauli_masks("XI")), (0.7, pauli_masks("YZ"))], n_qubits=2)
    K, p = 20000, 0.1
    draws = []
    draw_errors = qs._draw_errors

    def spy(*args):
        draws.append(draw_errors(*args))
        return draws[-1]

    monkeypatch.setattr(qs, "_draw_errors", spy)
    qs.noisy_expectation(gs, np.eye(1), NoiseSpec(p=p, scale=3), K, seed=11)
    [(ex, ez)] = draws
    assert ex.shape == ez.shape == (K, 6)
    drawn = (ex | ez) != 0
    # Hits per folded gate are Binomial(K, p): each within 4 sigma of K p.
    hits = drawn.sum(axis=0)
    assert np.all(np.abs(hits - K * p) < 4 * np.sqrt(K * p * (1 - p))), hits
    # Given a hit, the Pauli is uniform over the 4^k - 1 non-identity strings
    # on the support: every one is drawn, each count within 4 sigma of N / m.
    for gates, support in ((range(3), 1), (range(3, 6), 2)):
        cols = list(gates)
        hit = drawn[:, cols]
        counts = {}
        for s in zip(ex[:, cols][hit].tolist(), ez[:, cols][hit].tolist()):
            counts[s] = counts.get(s, 0) + 1
        expected = {pauli_masks("".join(c) + "I" * (2 - support))
                    for c in itertools.product("IXYZ", repeat=support)} - {(0, 0)}
        assert set(counts) == expected
        c = np.array(list(counts.values()))
        m, N = len(expected), c.sum()
        assert np.all(np.abs(c - N / m) < 4 * np.sqrt(N / m * (1 - 1 / m))), counts


def test_run_time_path_reads_no_pauli_text(monkeypatch, h2_active):
    # From jordan_wigner to a measured value every route reads the (x, z)
    # masks: exact, Trotter and noisy Trotter fingerprints, and the DMET
    # mu-fit's fragment count.
    def terms(self):
        raise AssertionError("Pauli strings built on the run-time path")

    monkeypatch.setattr(PauliHamiltonian, "terms", property(terms))
    grid = np.arange(0.5, 2.01, 0.5)
    for evolver, noise in (({"kind": "exact"}, None),
                           ({"kind": "trotter", "order": 2, "r": 2}, None),
                           ({"kind": "trotter", "order": 2, "r": 1},
                            {"p": 0.02, "scale": 3, "n_trajectories": 20})):
        fp = fingerprint_ml.compute_fingerprint(h2_active, "hf_ground", grid,
                                                evolver=evolver, noise=noise)
        assert fp.values.shape == grid.shape
    assert 0.0 < embedding.fragment_count_builder(_h4_dmet_cluster())(0.0) < 4.0
    with pytest.raises(AssertionError, match="run-time path"):
        qs.jordan_wigner(h2_active).terms


def _apply_annihilation_reference(psi, mode):
    """a_mode |psi> with the Jordan-Wigner parity sign, one full copy per mode."""
    n = int(round(np.log2(psi.shape[0])))
    bit = 1 << mode
    b = np.arange(psi.shape[0])
    occ = (b & bit) != 0
    sign = qs._parity_vector(bit - 1, n)
    out = np.zeros_like(psi, dtype=complex)
    src = b[occ]
    out[src ^ bit] = sign[src] * psi[src]
    return out


def _rdm1_reference(psi):
    m = int(round(np.log2(psi.shape[0])))
    n = m // 2
    lowered = [_apply_annihilation_reference(psi, P) for P in range(m)]
    rho = np.zeros((n, n), dtype=complex)
    for r in range(n):
        for s in range(n):
            for sp in range(2):
                rho[r, s] += np.vdot(lowered[2 * s + sp], lowered[2 * r + sp])
    return rho


@pytest.mark.parametrize("n_qubits", [2, 4, 8, 10])
def test_rdm1_matches_reference_bytes(n_qubits):
    rng = np.random.default_rng(n_qubits)
    dim = 1 << n_qubits
    states = [qs.basis_state(dim - 1, n_qubits), rng.normal(size=dim)]
    for _ in range(20):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states.append(psi / np.linalg.norm(psi))
    for psi in states:
        assert qs.rdm1(psi, np.arange(dim), n_qubits).tobytes() == _rdm1_reference(psi).tobytes()


@pytest.mark.parametrize("chunk", [1 << 14, 8192], ids=["one_chunk", "chunks_of_4"])
def test_rdm1_batch_rows_match_reference_bytes(monkeypatch, chunk):
    # Each row of a batch gets the bytes of the one-state reference, also
    # when the rows are split into chunks (4 + 2 rows at 8192 values).
    monkeypatch.setattr(qs, "_RDM1_CHUNK", chunk)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(2, 3, 256)) + 1j * rng.normal(size=(2, 3, 256))
    batch[1, 2] = qs.basis_state(255, 8)
    rho = qs.rdm1(batch, np.arange(256), 8)
    assert rho.shape == (2, 3, 4, 4)
    for i in np.ndindex(2, 3):
        assert rho[i].tobytes() == _rdm1_reference(batch[i]).tobytes(), i


def test_zne_recovers_polynomials():
    quad = lambda lam: 1.0 - 0.1 * lam + 0.02 * lam ** 2
    pts = {lam: quad(lam) for lam in (1, 3, 5)}
    assert qs.zne_extrapolate(pts, fit_order=2) == pytest.approx(1.0, abs=1e-12)
    lin = {1: 0.9, 3: 0.7}
    assert qs.zne_extrapolate(lin, fit_order=1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        qs.zne_extrapolate({1: 0.9}, fit_order=1)


def test_dmet_cluster_evolution_consistency():
    # JW evolution of the DMET cluster agrees with dense evolution of the
    # determinant-basis Hamiltonian (independent operator route)
    eh = dmet_h2(1.4)
    H = qs.jordan_wigner(eh)
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    H_f = fci.fock_space_hamiltonian(eh.h_eff, eh.eri_active, eh.e_core)
    w, V = np.linalg.eigh(H_f)
    ref = V @ (np.exp(-1j * w * 2.5) * (V.conj().T @ psi0))
    assert np.linalg.norm(full_width(*qs.ExactEvolver(H).evolve(psi0, 2.5), 4) - ref) < 1e-10


def _h4_dmet_cluster():
    m = h4_molecule(1.4)
    m_loc, D_loc = embedding.dmet_setup(m, mean_field.scf_solve(m))
    cb = embedding.dmet_cluster_basis(D_loc, [0, 1])
    return embedding.dmet_hamiltonian(m_loc, cb)


def _h6_active_44():
    m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(6) * 1.8))
    return embedding.homo_lumo_active_space(m, mean_field.scf_solve(m), 4, 4)


EVOLVE_TIMES = (0.0, 0.5, 3.7, 14.0)


@pytest.fixture(scope="module", params=["h2", "h4_dmet_cluster", "h6_44", "h8_45"])
def sector_system(request, h2_active):
    eh = {"h2": lambda: h2_active, "h4_dmet_cluster": _h4_dmet_cluster,
          "h6_44": _h6_active_44, "h8_45": lambda: _chain_active(8, 4, 5)}[request.param]()
    # H from the determinant oracle, which equals the Jordan-Wigner matrix to
    # round-off: the Kronecker product of every string takes 4 s at 10 qubits.
    H = fci.fock_space_hamiltonian(eh.h_eff, eh.eri_active, eh.e_core)
    return eh, qs.jordan_wigner(eh), scipy.sparse.csr_matrix(H)


@pytest.mark.parametrize("kind", ["hf_ground", "homo_lumo_excited", "half_occupied"])
def test_sector_evolver_matches_expm(sector_system, kind):
    eh, ph, H = sector_system
    n = ph.n_qubits
    _, psi0 = qs.prepare_initial(kind, n, eh.n_active_electrons)
    ev = qs.ExactEvolver(ph)
    built = []
    sector_matrix = ev.sector_matrix
    ev.sector_matrix = lambda index: built.append(index) or sector_matrix(index)
    idx, batch = ev.evolve(psi0, np.array(EVOLVE_TIMES))
    # The states live on the sorted indices of the sectors psi0 touches: a
    # determinant's (N/2, N/2) sector (100 indices for H8 (4e,5o)), or all
    # 2^n for half filling.
    even, half = sum(1 << q for q in range(0, n, 2)), eh.n_active_electrons // 2
    touched = [b for b in range(1 << n) if kind == "half_occupied"
               or bin(b & even).count("1") == bin(b >> 1 & even).count("1") == half]
    assert idx.tolist() == touched
    assert batch.shape == (len(EVOLVE_TIMES), len(touched))
    # A determinant lies in one (N_alpha, N_beta) sector; half filling in all.
    # Only those sectors are built, once each per evolve call.
    n_sectors = ((n + 2) // 2) ** 2 if kind == "half_occupied" else 1
    assert len(built) == len(set(built)) == n_sectors
    for k, (t, row) in enumerate(zip(EVOLVE_TIMES, batch), start=2):
        single_idx, single = ev.evolve(psi0, t)
        assert len(built) == k * n_sectors
        assert np.array_equal(single_idx, idx) and single.shape == idx.shape
        ref = scipy.sparse.linalg.expm_multiply(-1j * t * H, psi0)
        assert np.max(np.abs(full_width(idx, single, n) - ref)) < 1e-10
        # Grid rows and single-time calls differ only in BLAS summation order.
        assert np.max(np.abs(row - single)) < 1e-13
    # Both evolvers' sector states give the density matrices of their
    # full-width scatter, to round-off.
    for got_idx, states in ((idx, batch), qs.trotter_evolve(ph, psi0, EVOLVE_TIMES)):
        assert np.array_equal(got_idx, idx)
        full = qs.rdm1(full_width(idx, states, n), np.arange(1 << n), n)
        assert np.max(np.abs(qs.rdm1(states, idx, n) - full)) < 1e-14


def test_sector_evolver_rejects_sector_coupling_and_non_hermitian():
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    with pytest.raises(ValueError, match="couples"):
        qs.ExactEvolver(pauli_hamiltonian([(0.3, "XXII")], 4)).evolve(psi0, 1.0)
    with pytest.raises(ValueError, match="real Hamiltonian matrix: term 0.3 YIII"):
        qs.ExactEvolver(pauli_hamiltonian([(1.0, "ZIII"), (0.3, "YIII")], 4)).evolve(psi0, 1.0)
    with pytest.raises(ValueError, match="state dimension"):
        qs.ExactEvolver(pauli_hamiltonian([(0.3, "ZIII")], 4)).evolve(psi0[:8], 1.0)


def _compile_groups_lists(ph):
    """The per-group lists [(x, zs, cs)] that _compile_groups gave before its
    groups became slices of one table, each group's arrays a fresh copy."""
    ny = np.bitwise_count(ph.x & ph.z).astype(np.int64)
    xs, first, inverse = np.unique(ph.x, return_index=True, return_inverse=True)
    rows = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    cs = ph.coeffs * (1 - (ny & 2))
    return [(int(xs[g]), ph.z[rows[g]], cs[rows[g]]) for g in np.argsort(first)]


def _group_values_loop(groups, sector, idx):
    """The per-group loop that _group_values replaced, kept as its reference:
    one sign table, one product and one searchsorted per group."""
    labels = sector[idx]
    for x, zs, cs in groups:
        signs = 1.0 - 2.0 * (np.bitwise_count(zs[:, None] & idx) & 1)
        f = cs @ signs
        dst = idx ^ x
        inside = sector[dst] == labels
        if np.any(np.abs(f[~inside]) > 1e-10):
            raise ValueError("Hamiltonian couples (N_alpha, N_beta) sectors")
        src = np.arange(idx.size)
        src[inside] = np.searchsorted(idx, dst[inside])
        yield x, np.where(inside, f, 0.0), src


def _stacked_group_values_loop(groups, sector, idx):
    """_group_values_loop's groups stacked into the (xs, F, SRC) table."""
    xs, fs, srcs = zip(*_group_values_loop(groups, sector, idx))
    return np.array(xs), np.array(fs), np.array(srcs)


def _sector_matrix_loop(ph, index):
    """The per-group scatter H[src, cols] += f that sector_matrix replaced,
    over _group_values_loop's groups."""
    sector = qs._sector_labels(ph.n_qubits)
    idx = np.flatnonzero(sector == sector[index])
    H, cols = np.zeros((idx.size, idx.size)), np.arange(idx.size)
    for _, f, src in _group_values_loop(_compile_groups_lists(ph), sector, idx):
        H[src, cols] += f
    return idx, H


# At the default _GROUP_CHUNK the sign table of an hf_ground block takes 1
# chunk for h8_45 (d = 100), 2 for h8_66_12_qubits (d = 400) and 9 for
# h10_67_14_qubits (d = 1,225).
GROUP_SYSTEMS = {
    "h8_45": lambda: _chain_active(8, 4, 5),
    "h8_66_12_qubits": lambda: _chain_active(8, 6, 6),
    "h10_67_14_qubits": lambda: _chain_active(10, 6, 7),
    "h4_dmet_cluster": _h4_dmet_cluster,
}


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("kind, system", [
    *[("hf_ground", s) for s in GROUP_SYSTEMS], ("half_occupied", "h4_dmet_cluster")])
def test_group_values_match_per_group_loop_bitwise(monkeypatch, kind, system, chunk):
    # Sector blocks and Trotter states from the chunked group table equal
    # those of the per-group loop bit for bit, at the default chunk and at one
    # group per chunk: the blocks against the loop's per-group scatter, the
    # states against the loop's groups stacked.  half_occupied spans every
    # sector.
    eh = GROUP_SYSTEMS[system]()
    ph = qs.jordan_wigner(eh)
    _, psi0 = qs.prepare_initial(kind, ph.n_qubits, eh.n_active_electrons)
    if chunk is not None:
        monkeypatch.setattr(qs, "_GROUP_CHUNK", chunk)

    nz = np.flatnonzero(psi0)
    # One basis index in each (N_alpha, N_beta) sector psi0 touches.
    firsts = nz[np.unique(qs._sector_labels(ph.n_qubits)[nz], return_index=True)[1]]
    ev = qs.ExactEvolver(ph)
    blocks = [ev.sector_matrix(int(b)) for b in firsts]
    idx, states = qs.trotter_evolve(ph, psi0, EVOLVE_TIMES, 2, 2)
    ref_blocks = [_sector_matrix_loop(ph, int(b)) for b in firsts]
    with monkeypatch.context() as m:
        m.setattr(qs, "_compile_groups", _compile_groups_lists)
        m.setattr(qs, "_group_values", _stacked_group_values_loop)
        ref_idx, ref_states = qs.trotter_evolve(ph, psi0, EVOLVE_TIMES, 2, 2)
    assert len(blocks) == len(ref_blocks) == (25 if kind == "half_occupied" else 1)
    for (i, H), (ri, rH) in zip(blocks, ref_blocks):
        assert i.tobytes() == ri.tobytes() and H.tobytes() == rH.tobytes()
    assert idx.tobytes() == ref_idx.tobytes() and states.tobytes() == ref_states.tobytes()


def test_zero_state_gives_empty_states_from_both_evolvers(h2_pauli):
    # A zero state touches no sector: the group table is (G, 0), and both
    # evolvers return no indices and (T, 0) states.  Two intervals of one
    # length make trotter_evolve build that length's (0 x 0) propagator.
    n, times = h2_pauli.n_qubits, [0.0, 1.0, 2.0]
    zero = np.zeros(1 << n)
    groups = qs._compile_groups(h2_pauli)
    _, F, SRC = qs._group_values(groups, qs._sector_labels(n), np.arange(0))
    assert F.shape == SRC.shape == (groups[0].size, 0)
    for idx, states in (qs.ExactEvolver(h2_pauli).evolve(zero, times),
                        qs.trotter_evolve(h2_pauli, zero, times)):
        assert idx.shape == (0,) and states.shape == (3, 0)


def test_group_values_reject_sector_coupling_in_any_chunk(monkeypatch):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    ph = pauli_hamiltonian([(1.0, "ZIII"), (0.5, "IZII"), (0.3, "XXII")], 4)
    for chunk in (1, qs._GROUP_CHUNK):
        monkeypatch.setattr(qs, "_GROUP_CHUNK", chunk)
        with pytest.raises(ValueError, match="couples"):
            qs.ExactEvolver(ph).evolve(psi0, 1.0)
        with pytest.raises(ValueError, match="couples"):
            qs.trotter_evolve(ph, psi0, [1.0])


def _jordan_wigner_loop(eh, all_quartets=False):
    """The scalar dict loop that jordan_wigner replaced, kept as its reference.

    It takes each unordered pair of same-spin pairs PQ < RS with P != R and
    Q != S once, with weight (PQ|RS), as jordan_wigner does; with
    all_quartets, every ordered (PQ, RS) with weight (PQ|RS) / 2, the same
    operator summed in another order."""
    h, eri, m = eh.h_eff, eh.eri_active, 2 * len(eh.h_eff)
    pairs = [(P, Q) for P in range(m) for Q in range(P % 2, m, 2)]
    if all_quartets:
        quartets = [(P, Q, R, S, 0.5) for P, Q in pairs for R, S in pairs]
    else:
        quartets = [(P, Q, R, S, 1.0) for i, (P, Q) in enumerate(pairs)
                    for R, S in pairs[i + 1:] if P != R and Q != S]

    def ladder(p, dagger):
        e = 1 << p
        return ((0.5, e, e - 1), (0.5 if dagger else -0.5, e, (e - 1) | e))

    acc = {}

    def accumulate(factors, weight):
        prods = [(weight, 0, 0)]
        for terms in factors:
            new = []
            for c1, x1, z1 in prods:
                for c2, x2, z2 in terms:
                    sign = -1.0 if (z1 & x2).bit_count() & 1 else 1.0
                    new.append((c1 * c2 * sign, x1 ^ x2, z1 ^ z2))
            prods = new
        for c, x, z in prods:
            acc[(x, z)] = acc.get((x, z), 0.0) + c

    for P in range(m):
        for Q in range(P % 2, m, 2):
            if h[P >> 1, Q >> 1] != 0.0:
                accumulate([ladder(P, True), ladder(Q, False)], h[P >> 1, Q >> 1])
    for P, Q, R, S, factor in quartets:
        w = factor * eri[P >> 1, Q >> 1, R >> 1, S >> 1]
        if w != 0.0:
            accumulate([ladder(P, True), ladder(R, True),
                        ladder(S, False), ladder(Q, False)], w)
    acc[(0, 0)] = acc.get((0, 0), 0.0) + eh.e_core

    # Each (x, z) key as its string and complex coefficient; the real ones
    # past 1e-12, in sorted string order, are the Hamiltonian's terms.
    table = {}
    for (x, z), c in acc.items():
        s = "".join("IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)] for q in range(m))
        table[s] = table.get(s, 0.0) + c * (-1j) ** (x & z).bit_count()
    assert all(abs(c.imag) <= 1e-10 for c in table.values())
    return [(c.real, s) for s, c in sorted(table.items()) if abs(c.real) > 1e-12]


def _chain_active(n_atoms, n_elec, n_orb):
    m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(n_atoms) * 1.8))
    return embedding.homo_lumo_active_space(m, mean_field.scf_solve(m), n_elec, n_orb)


def _h4_dmet_fit_mu():
    # A target filling off the mean-field one gives a nonzero fitted mu (0.517).
    return pipeline.embed_molecule(h4_molecule(1.4), {
        "mode": "dmet", "fragment": [0, 1], "fit_mu": True, "target_filling": 2.2})


JW_SYSTEMS = {
    "h4_dmet_fit_mu": _h4_dmet_fit_mu,
    "h6_44": _h6_active_44,
    "h8_45": lambda: _chain_active(8, 4, 5),
    "h8_66_12_qubits": lambda: _chain_active(8, 6, 6),
    "e_core_zero": lambda: dataclasses.replace(_h4_dmet_cluster(), e_core=0.0),
}


@pytest.mark.parametrize("system", ["h2", *JW_SYSTEMS])
def test_jordan_wigner_matches_loop_bitwise(h2_active, system):
    eh = h2_active if system == "h2" else JW_SYSTEMS[system]()
    got, ref = qs.jordan_wigner(eh), _jordan_wigner_loop(eh)
    assert got.n_qubits == 2 * eh.n_active_orbitals
    # Strings, their order and every coefficient's bits.
    assert [(s, c.hex()) for c, s in got.terms] == [(s, c.hex()) for c, s in ref]
    assert all(type(c) is float for c, _ in got.terms)


@pytest.mark.parametrize("system", ["h2", *JW_SYSTEMS])
def test_jordan_wigner_matches_all_quartet_loop(h2_active, system):
    # The loop over every ordered quartet, which jordan_wigner ran before
    # merging (PQ|RS) with (RS|PQ), gives the same strings in the same order;
    # the coefficients differ only in summation order.
    eh = h2_active if system == "h2" else JW_SYSTEMS[system]()
    got, ref = qs.jordan_wigner(eh).terms, _jordan_wigner_loop(eh, all_quartets=True)
    assert [s for _, s in got] == [s for _, s in ref]
    assert max(abs(c - r) for (c, _), (r, _) in zip(got, ref)) <= 1e-13


@pytest.mark.parametrize("asymmetry, raises", [(1e-9, True), (2e-10, False)])
def test_jordan_wigner_rejects_non_hermitian_h_eff(asymmetry, raises):
    # h_01 - h_10 = d gives the odd-Y strings XZYI, YZXI, IXZY and IYZX
    # coefficients of magnitude d / 4: above 1e-10 jordan_wigner raises naming
    # one, at or below it they are dropped.
    h = np.array([[-1.0, 0.2 + asymmetry], [0.2, -0.5]])
    eh = embedding.EmbeddedHamiltonian(2, 2, h, np.zeros((2, 2, 2, 2)), 0.7)
    if raises:
        with pytest.raises(ValueError, match="non-Hermitian.*(XZYI|YZXI|IXZY|IYZX)"):
            qs.jordan_wigner(eh)
        return
    ph = qs.jordan_wigner(eh)
    strings = [s for _, s in ph.terms]
    assert all(s.count("Y") % 2 == 0 for s in strings)
    sym = qs.jordan_wigner(dataclasses.replace(eh, h_eff=np.array([[-1.0, 0.2], [0.2, -0.5]])))
    assert strings == [s for _, s in sym.terms]


def _counted_jw_table(monkeypatch):
    """Replace quantum_sim._jw_table by an empty cache of the same size that
    records the qubit count of every build."""
    builds = []
    build = qs._jw_table.__wrapped__
    monkeypatch.setattr(qs, "_jw_table", functools.lru_cache(
        maxsize=qs._jw_table.cache_parameters()["maxsize"])(
            lambda m: builds.append(m) or build(m)))
    return builds


@pytest.mark.parametrize("embed", [
    {"mode": "active_space", "n_active_electrons": 4, "n_active_orbitals": 4},
    {"mode": "dmet", "fragment": [0, 1], "fit_mu": True},
])
def test_jw_table_built_once_per_qubit_count(monkeypatch, embed):
    # Six same-size molecules share one table: the first jordan_wigner call
    # builds it and the others read it.  A fit-mu molecule calls it for the
    # mu = 0 block of the fit and for the fitted Hamiltonian; its fit calls
    # the builder at least 3 times, so a call per mu step would make 4.
    builds = _counted_jw_table(monkeypatch)
    fits = counted_mu_fits(monkeypatch)
    calls = []
    jw = qs.jordan_wigner
    monkeypatch.setattr(qs, "jordan_wigner", lambda eh: calls.append(eh) or jw(eh))
    cfg = pipeline.PipelineConfig.from_dict({
        "dataset": {"kind": "manifest", "path": "manifest.json"}, "embedding": embed,
        "initial_state": "hf_ground", "time_grid": {"start": 0, "stop": 1, "step": 0.5}})
    entries = [chem_io.ManifestEntry(f"h4_{i}", {"generator": {
        "kind": "chain", "z_positions": [0.0, d, 2 * d, 3 * d]}}, d, "")
        for i, d in enumerate((1.4, 1.6, 1.8, 2.0, 2.2, 2.4))]
    values = pipeline.run_fingerprints(cfg, entries)
    assert values.shape == (6, 3) and np.all(np.isfinite(values))
    fit_mu = embed.get("fit_mu", False)
    assert len(calls) == 6 * (2 if fit_mu else 1)
    assert len(fits) == (6 if fit_mu else 0) and all(n >= 3 for n in fits)
    assert builds == [8]


@pytest.mark.parametrize("m", [2, 4, 10])
def test_jw_table_arrays_are_read_only(m):
    at, factors, keys = qs._jw_table(m)
    for a in (at, factors, *keys):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a
    # A result holds its own arrays, not views of the shared table.
    ph = qs.jordan_wigner(embedding.EmbeddedHamiltonian(
        m // 2, 2, np.eye(m // 2), np.ones((m // 2,) * 4), 0.5))
    assert all(a.flags.writeable for a in (ph.x, ph.z, ph.coeffs))


def test_jw_table_holds_no_molecule_zeros(monkeypatch):
    # The symmetric chain's integrals that inversion symmetry forbids are set
    # to exact zeros, which the loop skips.  It builds the 8-qubit table
    # first; the scattered geometry, with no zero integral, and the chain
    # again must still each equal the loop bit for bit.
    builds = _counted_jw_table(monkeypatch)
    chain = _h6_active_44()
    chain = dataclasses.replace(
        chain, h_eff=np.where(np.abs(chain.h_eff) < 1e-12, 0.0, chain.h_eff),
        eri_active=np.where(np.abs(chain.eri_active) < 1e-12, 0.0, chain.eri_active))
    assert np.sum(chain.eri_active == 0.0) == 128 and np.sum(chain.h_eff == 0.0) == 8
    m = chem_io.s_orbital_integrals(np.random.default_rng(5).normal(scale=1.5, size=(6, 3)))
    scattered = embedding.homo_lumo_active_space(m, mean_field.scf_solve(m), 4, 4)
    assert np.all(scattered.eri_active != 0.0) and np.all(scattered.h_eff != 0.0)
    for eh in (chain, scattered, chain):
        got, ref = qs.jordan_wigner(eh), _jordan_wigner_loop(eh)
        assert [(s, c.hex()) for c, s in got.terms] == [(s, c.hex()) for c, s in ref]
    assert builds == [8]
