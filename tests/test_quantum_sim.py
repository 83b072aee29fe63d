import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import embedding, fci, mean_field, quantum_sim as qs
from qfp.quantum_sim import GateSequence, NoiseSpec, PauliHamiltonian

from conftest import dmet_h2, h4_molecule


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
    M = qs.pauli_matrix([(1.0, s)], n)
    assert np.allclose(qs.apply_pauli(s, psi), M @ psi, atol=1e-12)
    # Pauli strings are involutions with unit square
    assert np.allclose(M @ M, np.eye(1 << n), atol=1e-12)


def test_pauli_hamiltonian_canonicalization():
    ph = PauliHamiltonian.from_dict({"XI": 0.5, "IZ": -1.0, "II": 2.0}, n_qubits=2)
    assert [s for _, s in ph.terms] == sorted(s for _, s in ph.terms)
    assert ph.identity_coefficient == pytest.approx(2.0)
    with pytest.raises(ValueError):
        PauliHamiltonian.from_dict({"XY": 1.0 + 0.5j}, n_qubits=2)  # non-Hermitian


def test_jw_spectrum_matches_determinant_oracle_h2(h2_active, h2_pauli):
    H_q = h2_pauli.to_matrix()
    H_f = fci.fock_space_hamiltonian(h2_active.h_eff, h2_active.eri_active,
                                     h2_active.e_core)
    assert np.max(np.abs(H_q - H_f)) < 1e-10


def test_jw_spectrum_matches_determinant_oracle_h4():
    m = h4_molecule(1.4)
    mf = mean_field.scf_solve(m)
    eh = embedding.homo_lumo_active_space(m, mf, 4, 4)
    w_q = np.linalg.eigvalsh(qs.jordan_wigner(eh).to_matrix())
    w_f = np.linalg.eigvalsh(
        fci.fock_space_hamiltonian(eh.h_eff, eh.eri_active, eh.e_core))
    assert np.max(np.abs(w_q - w_f)) < 1e-10


def test_prepare_initial_occupations():
    gs, psi = qs.prepare_initial("hf_ground", 4, 2)
    assert qs.number_expectation(psi) == pytest.approx(2.0)
    assert psi[0b0011] == 1.0  # lowest two spin orbitals filled
    gs, psi = qs.prepare_initial("homo_lumo_excited", 8, 4)
    assert psi[0b00110011] == 1.0  # HOMO pair promoted to the LUMO
    gs, psi = qs.prepare_initial("half_occupied", 4, 2)
    probs = np.abs(psi) ** 2
    assert qs.number_expectation(psi) == pytest.approx(2.0)
    assert np.allclose(probs, 1.0 / 16)  # Ry(pi/2) on every qubit
    with pytest.raises(ValueError):
        qs.prepare_initial("hf_ground", 4, 3)
    with pytest.raises(ValueError):
        qs.prepare_initial("nope", 4, 2)


def test_prot_gate_is_pauli_rotation():
    theta = 0.731
    M = qs.pauli_matrix([(1.0, "XY")], 2)
    U = scipy.linalg.expm(-0.5j * theta * M)
    psi = np.random.default_rng(3).normal(size=4) + 0j
    psi /= np.linalg.norm(psi)
    seq = GateSequence(gates=[("PROT", theta, "XY")], n_qubits=2)
    assert np.allclose(qs.run_sequence(seq, psi), U @ psi, atol=1e-12)


def test_exact_evolution_conserves_everything(h2_active, h2_pauli):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    ev = qs.ExactEvolver(h2_pauli)
    e0 = np.vdot(psi0, h2_pauli.to_matrix() @ psi0).real
    for t in np.arange(0, 14.01, 0.5):
        psi = ev.evolve(psi0, t)
        assert abs(np.linalg.norm(psi) - 1) < 1e-10
        assert abs(qs.number_expectation(psi) - 2.0) < 1e-10
        assert abs(np.vdot(psi, h2_pauli.to_matrix() @ psi).real - e0) < 1e-10


def test_trotter_converges_to_exact(h2_pauli):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    exact = qs.evolve_exact(h2_pauli, psi0, 2.0)
    for order in (1, 2):
        approx = qs.run_sequence(
            qs.trotter_sequence(h2_pauli, 2.0, order=order, r=256), psi0)
        assert np.linalg.norm(approx - exact) < 2e-3


def test_trotter_error_scaling_with_r(h2_pauli):
    # one halving of dt: order-1 error ~ /2, order-2 error ~ /4
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    exact = qs.evolve_exact(h2_pauli, psi0, 1.0)
    for order, expected in ((1, 2.0), (2, 4.0)):
        errs = [np.linalg.norm(
            qs.run_sequence(qs.trotter_sequence(h2_pauli, 1.0, order, r), psi0)
            - exact) for r in (16, 32)]
        assert errs[0] / errs[1] == pytest.approx(expected, rel=0.1)


def test_trotter_preserves_norm_and_number(h2_pauli):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    psi = qs.run_sequence(qs.trotter_sequence(h2_pauli, 6.0, order=2, r=3), psi0)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert abs(qs.number_expectation(psi) - 2.0) < 1e-10


def test_trotter_t_zero_is_identity_with_phase(h2_pauli):
    psi0 = qs.basis_state(3, 4)
    psi = qs.run_sequence(qs.trotter_sequence(h2_pauli, 0.0, order=2, r=1), psi0)
    assert np.allclose(psi, psi0, atol=1e-12)


@pytest.fixture(scope="module")
def h4_pauli():
    m = h4_molecule(1.5)
    return qs.jordan_wigner(
        embedding.homo_lumo_active_space(m, mean_field.scf_solve(m), 4, 3))


@pytest.mark.parametrize("grid", [np.arange(0.0, 6.5, 0.5), [0.3, 0.7, 1.9, 2.0, 5.5, 11.25]],
                         ids=["from_zero", "uneven"])
@pytest.mark.parametrize("kind", ["hf_ground", "homo_lumo_excited", "half_occupied"])
def test_trotter_states_match_run_sequence_bitwise(h2_pauli, h4_pauli, kind, grid):
    for ph, n_electrons in ((h2_pauli, 2), (h4_pauli, 4)):
        _, psi0 = qs.prepare_initial(kind, ph.n_qubits, n_electrons)
        for order in (1, 2):
            for r in (1, 2, 3):
                batch = qs.trotter_states(ph, psi0, grid, order=order, r=r)
                assert batch.shape == (len(grid), 1 << ph.n_qubits)
                for t, psi in zip(grid, batch):
                    ref = (psi0 if t == 0.0 else qs.run_sequence(
                        qs.trotter_sequence(ph, t, order=order, r=r), psi0))
                    assert np.array_equal(psi, ref), (order, r, t)


def test_trotter_states_all_zero_times_copy_the_state(h2_pauli):
    psi0 = qs.basis_state(3, 4)
    out = qs.trotter_states(h2_pauli, psi0, [0.0, 0.0])
    assert np.array_equal(out, [psi0, psi0])
    out[0, 0] = 7.0
    assert psi0[0] == 0.0
    with pytest.raises(ValueError):
        qs.trotter_states(h2_pauli, qs.basis_state(0, 3), [1.0])


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


def test_sequence_text_round_trip():
    gs = GateSequence(
        gates=[("X", 0), ("RY", 0.5, 2), ("PROT", -1.25, "XZYI")],
        n_qubits=4, global_phase=0.75,
    )
    back = qs.sequence_from_text(qs.sequence_to_text(gs))
    assert back.gates == gs.gates
    assert back.n_qubits == gs.n_qubits
    assert back.global_phase == gs.global_phase


def test_rdm1_properties(h2_pauli):
    _, psi0 = qs.prepare_initial("half_occupied", 4, 2)
    psi = qs.evolve_exact(h2_pauli, psi0, 1.5)
    rho = qs.rdm1(psi)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(qs.number_expectation(psi), abs=1e-10)
    w = np.linalg.eigvalsh(rho)
    assert w.min() > -1e-10 and w.max() < 2 + 1e-10


def test_expval_F_at_t0_matches_direct_sum(h2_active):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    rho = qs.rdm1(psi0)
    val = qs.expval_F(h2_active.h_eff, rho)
    assert val == pytest.approx(2.0 * h2_active.h_eff[0, 0], abs=1e-12)


def test_expval_O_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qs.expval_O(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) + 0j)


def test_expval_O_rejects_imaginary_residue():
    # Hermitian O against a non-Hermitian density leaves <O> = 1j
    with pytest.raises(ValueError, match="imaginary residue"):
        qs.expval_O([[0, 1], [1, 0]], [[0, 1j], [0, 0]])


def test_sample_histogram_basis_state():
    hist = qs.sample_histogram(qs.basis_state(0b0101, 4), shots=100, seed=7)
    assert hist == {"0101": 100}


def test_sample_histogram_deterministic_and_normalized():
    psi = np.sqrt(np.array([0.5, 0.25, 0.25, 0.0])) + 0j
    h1 = qs.sample_histogram(psi, 1000, seed=3)
    h2 = qs.sample_histogram(psi, 1000, seed=3)
    assert h1 == h2
    assert sum(h1.values()) == 1000
    assert "11" not in h1


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(p=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(p=0.1, scale=0.5)
    with pytest.raises(ValueError):
        NoiseSpec(p=0.5, scale=3)  # p * scale >= 1


def test_fold_sequence_preserves_unitary(h2_pauli):
    gs = qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    psi0 = qs.basis_state(3, 4)
    ref = qs.run_sequence(gs, psi0)
    folded = qs.fold_sequence(gs, 3)
    assert len(folded.gates) == 3 * len(gs.gates)
    assert np.allclose(qs.run_sequence(folded, psi0), ref, atol=1e-10)
    with pytest.raises(ValueError):
        qs.fold_sequence(gs, 2)  # even scales are not foldable


def test_noisy_expectation_zero_noise_matches_ideal(h2_active, h2_pauli):
    prep, _ = qs.prepare_initial("hf_ground", 4, 2)
    circ = prep + qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    obs = lambda psi: qs.expval_F(h2_active.h_eff, qs.rdm1(psi))
    ideal = obs(qs.run_sequence(circ, qs.basis_state(0, 4)))
    mean, err = qs.noisy_expectation(circ, obs, NoiseSpec(p=0.0), 5, seed=0)
    assert mean == pytest.approx(ideal, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_noisy_expectation_deterministic_given_seed(h2_active, h2_pauli):
    prep, _ = qs.prepare_initial("hf_ground", 4, 2)
    circ = prep + qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    obs = lambda psi: qs.expval_F(h2_active.h_eff, qs.rdm1(psi))
    a = qs.noisy_expectation(circ, obs, NoiseSpec(p=0.05), 50, seed=9)
    b = qs.noisy_expectation(circ, obs, NoiseSpec(p=0.05), 50, seed=9)
    assert a == b


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
    assert np.linalg.norm(qs.evolve_exact(H, psi0, 2.5) - ref) < 1e-10
