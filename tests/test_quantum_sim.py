import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import chem_io, embedding, fci, mean_field, pipeline, quantum_sim as qs
from qfp.quantum_sim import GateSequence, NoiseSpec, PauliHamiltonian

from conftest import (PAULI_2X2, dmet_h2, h4_molecule, hamiltonian_matrix, kron_string,
                      pauli_matrix)


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
    gs = GateSequence(gates=[(None, s)], n_qubits=n)
    assert np.allclose(qs.run_sequence(gs, psi), M @ psi, atol=1e-12)
    # Pauli strings are involutions with unit square
    assert np.allclose(M @ M, np.eye(1 << n), atol=1e-12)


def test_pauli_hamiltonian_canonicalization():
    ph = PauliHamiltonian.from_dict({"XI": 0.5, "IZ": -1.0, "II": 2.0}, n_qubits=2)
    assert [s for _, s in ph.terms] == sorted(s for _, s in ph.terms)
    assert ph.identity_coefficient == pytest.approx(2.0)
    with pytest.raises(ValueError):
        PauliHamiltonian.from_dict({"XY": 1.0 + 0.5j}, n_qubits=2)  # non-Hermitian


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
    M = pauli_matrix([(1.0, "XY")], 2)
    U = scipy.linalg.expm(-0.5j * theta * M)
    psi = np.random.default_rng(3).normal(size=4) + 0j
    psi /= np.linalg.norm(psi)
    seq = GateSequence(gates=[(theta, "XY")], n_qubits=2)
    assert np.allclose(qs.run_sequence(seq, psi), U @ psi, atol=1e-12)


def test_exact_evolution_conserves_everything(h2_active, h2_pauli):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    ev = qs.ExactEvolver(h2_pauli)
    e0 = np.vdot(psi0, hamiltonian_matrix(h2_pauli) @ psi0).real
    for t in np.arange(0, 14.01, 0.5):
        psi = ev.evolve(psi0, t)
        assert abs(np.linalg.norm(psi) - 1) < 1e-10
        assert abs(qs.number_expectation(psi) - 2.0) < 1e-10
        assert abs(np.vdot(psi, hamiltonian_matrix(h2_pauli) @ psi).real - e0) < 1e-10


def test_trotter_converges_to_exact(h2_pauli):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    exact = qs.ExactEvolver(h2_pauli).evolve(psi0, 2.0)
    for order in (1, 2):
        approx = qs.run_sequence(
            qs.trotter_sequence(h2_pauli, 2.0, order=order, r=256), psi0)
        assert np.linalg.norm(approx - exact) < 2e-3


def test_trotter_error_scaling_with_r(h2_pauli):
    # one halving of dt: order-1 error ~ /2, order-2 error ~ /4
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    exact = qs.ExactEvolver(h2_pauli).evolve(psi0, 1.0)
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


def _grouped(ph):
    """ph with its strings reordered by x mask (the X or Y positions), each group
    where its first string was."""
    groups = {}
    for c, s in ph.terms:
        groups.setdefault(tuple(ch in "XY" for ch in s), []).append((c, s))
    return PauliHamiltonian([t for g in groups.values() for t in g], ph.n_qubits)


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
                got = qs.trotter_evolve(ph, psi0, [h], order=order, r=1)[0]
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
                batch = qs.trotter_evolve(ph, psi0, grid, order=order, r=r)
                assert batch.shape == (grid.size, 1 << ph.n_qubits)
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
            batch = qs.trotter_evolve(h4_pauli, psi0, grid, order=order, r=3)
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
        qs.trotter_evolve(PauliHamiltonian([(0.3, "XXII")], 4), psi0, [1.0])
    with pytest.raises(ValueError, match="real Hamiltonian"):
        qs.trotter_evolve(PauliHamiltonian([(0.3, "YIII")], 4), psi0, [1.0])


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
    psi = qs.ExactEvolver(h2_pauli).evolve(psi0, 1.5)
    rho = qs.rdm1(psi)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(qs.number_expectation(psi), abs=1e-10)
    w = np.linalg.eigvalsh(rho)
    assert w.min() > -1e-10 and w.max() < 2 + 1e-10


def test_expval_F_at_t0_matches_direct_sum(h2_active):
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    rho = qs.rdm1(psi0)
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
    folded = qs.fold_sequence(gs, 3)
    assert len(folded.gates) == 3 * len(gs.gates)
    assert np.allclose(qs.run_sequence(folded, psi0), ref, atol=1e-10)
    with pytest.raises(ValueError):
        qs.fold_sequence(gs, 2)  # even scales are not foldable


def test_noisy_expectation_zero_noise_matches_ideal(h2_active, h2_pauli):
    prep, _ = qs.prepare_initial("hf_ground", 4, 2)
    circ = prep + qs.trotter_sequence(h2_pauli, 1.0, order=2, r=1)
    O = h2_active.h_eff
    ideal = qs.expval_O(O, qs.rdm1(qs.run_sequence(circ, qs.basis_state(0, 4))))
    mean, err = qs.noisy_expectation(circ, O, NoiseSpec(p=0.0), 5, seed=0)
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
    for gate in qs.fold_sequence(gs, scale).gates:
        theta, string = gate
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


@pytest.mark.parametrize("scale", [1, 3])
def test_noisy_expectation_matches_density_matrix_oracle(h2_pauli, scale):
    # O is the LUMO occupation.  p = 0.05 moves it 25 (scale 1) and 39 (scale 3)
    # standard errors from the ideal value; a Pauli on only the first support
    # qubit misses by 30 and 24.  The oracle's Fock-space O comes from the
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
    code on the gate's k-qubit support.  Each trajectory then runs gate by
    gate with its own Paulis, and each final state is measured with its own
    rdm1 and expval_O.
    """
    folded = qs.fold_sequence(gs, ns.scale)
    rng = np.random.default_rng(seed)
    n = gs.n_qubits
    supports = [qs._gate_support(gate) for gate in folded.gates]
    errors = {}
    if ns.p > 0:
        hits = np.argwhere(rng.random((n_trajectories, len(supports))) < ns.p)
        highs = [4 ** len(supports[g]) for _, g in hits]
        for (k, g), code in zip(hits.tolist(), rng.integers(1, highs).tolist()):
            s = ["I"] * n
            for q in supports[g]:
                s[q] = "IXYZ"[code % 4]
                code //= 4
            errors[k, g] = "".join(s)
    vals = np.empty(n_trajectories)
    for k in range(n_trajectories):
        psi = qs.basis_state(0, n)
        for g, gate in enumerate(folded.gates):
            psi = qs.run_sequence(GateSequence(gates=[gate], n_qubits=n), psi)
            if (k, g) in errors:
                psi = qs.run_sequence(GateSequence(gates=[(None, errors[k, g])], n_qubits=n),
                                      psi)
        vals[k] = qs.expval_O(O, qs.rdm1(psi))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_trajectories)) if n_trajectories > 1 else 0.0
    return mean, stderr


@pytest.mark.parametrize("kind", ["hf_ground", "homo_lumo_excited", "half_occupied"])
def test_noisy_expectation_matches_scalar_loop_bitwise(h2_pauli, h4_pauli, kind):
    for ph, n_electrons in ((h2_pauli, 2), (h4_pauli, 4)):
        prep, _ = qs.prepare_initial(kind, ph.n_qubits, n_electrons)
        circ = prep + qs.trotter_sequence(ph, 1.0, order=2, r=1)
        n = ph.n_qubits // 2
        O = np.diag(np.arange(1.0, n + 1)) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
        for scale in (1, 3, 5):
            for p in (0.0, 0.1):
                for n_traj in (1, 12):
                    ns = NoiseSpec(p=p, scale=scale)
                    got = qs.noisy_expectation(circ, O, ns, n_traj, seed=scale + 7)
                    ref = _scalar_noisy_expectation(circ, O, ns, n_traj, scale + 7)
                    assert got == ref, (ph.n_qubits, scale, p, n_traj)


def test_noisy_expectation_draws_uniform_non_identity_paulis(monkeypatch):
    # Every Pauli applied without an angle is a noise event: record its folded
    # gate, its string and its row count.  Folding at scale 3 turns the two
    # gates into six, three on a one-qubit and three on a two-qubit support.
    gs = GateSequence(gates=[(0.3, "XI"), (0.7, "YZ")], n_qubits=2)
    K, p = 20000, 0.1
    events, folded = [], [-1]
    apply_gate = qs._apply_gate

    def spy(psi, gate, actions):
        if gate[0] is None:
            events.append((folded[0], gate[1], len(psi)))
        else:
            folded[0] += 1
        return apply_gate(psi, gate, actions)

    monkeypatch.setattr(qs, "_apply_gate", spy)
    qs.noisy_expectation(gs, np.eye(1), NoiseSpec(p=p, scale=3), K, seed=11)
    assert folded[0] == 5
    # Hits per folded gate are Binomial(K, p): each within 4 sigma of K p.
    hits = np.bincount([g for g, _, _ in events], [rows for _, _, rows in events], 6)
    assert np.all(np.abs(hits - K * p) < 4 * np.sqrt(K * p * (1 - p))), hits
    # Given a hit, the Pauli is uniform over the 4^k - 1 non-identity strings
    # on the support: every one is drawn, each count within 4 sigma of N / m.
    for gates, support in ((range(3), 1), (range(3, 6), 2)):
        counts = {}
        for g, s, rows in events:
            if g in gates:
                counts[s] = counts.get(s, 0) + rows
        expected = {"".join(c) + "I" * (2 - support)
                    for c in itertools.product("IXYZ", repeat=support)} - {"II"}
        assert set(counts) == expected
        c = np.array(list(counts.values()))
        m, N = len(expected), c.sum()
        assert np.all(np.abs(c - N / m) < 4 * np.sqrt(N / m * (1 - 1 / m))), counts


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
        assert qs.rdm1(psi).tobytes() == _rdm1_reference(psi).tobytes()


@pytest.mark.parametrize("chunk", [1 << 14, 8192], ids=["one_chunk", "chunks_of_4"])
def test_rdm1_batch_rows_match_reference_bytes(monkeypatch, chunk):
    # Each row of a batch gets the bytes of the one-state reference, also
    # when the rows are split into chunks (4 + 2 rows at 8192 values).
    monkeypatch.setattr(qs, "_RDM1_CHUNK", chunk)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(2, 3, 256)) + 1j * rng.normal(size=(2, 3, 256))
    batch[1, 2] = qs.basis_state(255, 8)
    rho = qs.rdm1(batch)
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
    assert np.linalg.norm(qs.ExactEvolver(H).evolve(psi0, 2.5) - ref) < 1e-10


def _h4_dmet_cluster():
    m = h4_molecule(1.4)
    m_loc, D_loc = embedding.dmet_setup(m, mean_field.scf_solve(m))
    cb = embedding.dmet_cluster_basis(D_loc, [0, 1])
    return embedding.dmet_hamiltonian(m_loc, cb)


def _h6_active_44():
    m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(6) * 1.8))
    return embedding.homo_lumo_active_space(m, mean_field.scf_solve(m), 4, 4)


EVOLVE_TIMES = (0.0, 0.5, 3.7, 14.0)


@pytest.fixture(scope="module", params=["h2", "h4_dmet_cluster", "h6_44"])
def sector_system(request, h2_active):
    eh = {"h2": lambda: h2_active, "h4_dmet_cluster": _h4_dmet_cluster,
          "h6_44": _h6_active_44}[request.param]()
    ph = qs.jordan_wigner(eh)
    H = hamiltonian_matrix(ph)
    return eh, ph, {t: scipy.linalg.expm(-1j * t * H) for t in EVOLVE_TIMES}


@pytest.mark.parametrize("kind", ["hf_ground", "homo_lumo_excited", "half_occupied"])
def test_sector_evolver_matches_expm(sector_system, kind):
    eh, ph, expm = sector_system
    _, psi0 = qs.prepare_initial(kind, ph.n_qubits, eh.n_active_electrons)
    ev = qs.ExactEvolver(ph)
    batch = ev.evolve(psi0, np.array(EVOLVE_TIMES))
    assert batch.shape == (len(EVOLVE_TIMES), 1 << ph.n_qubits)
    for t, row in zip(EVOLVE_TIMES, batch):
        single = ev.evolve(psi0, t)
        assert np.max(np.abs(single - expm[t] @ psi0)) < 1e-10
        # Grid rows and single-time calls differ only in BLAS summation order.
        assert np.max(np.abs(row - single)) < 1e-13
    # A determinant lies in one (N_alpha, N_beta) sector; half filling in all.
    n_sectors = ((ph.n_qubits + 2) // 2) ** 2 if kind == "half_occupied" else 1
    assert len(ev._blocks) == n_sectors


def test_sector_evolver_rejects_sector_coupling_and_non_hermitian():
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    with pytest.raises(ValueError, match="couples"):
        qs.ExactEvolver(PauliHamiltonian([(0.3, "XXII")], 4)).evolve(psi0, 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        qs.ExactEvolver(PauliHamiltonian([(0.3j, "ZIII")], 4)).evolve(psi0, 1.0)
    with pytest.raises(ValueError, match="state dimension"):
        qs.ExactEvolver(PauliHamiltonian([(0.3, "ZIII")], 4)).evolve(psi0[:8], 1.0)


def _jordan_wigner_loop(eh):
    """The scalar dict loop that jordan_wigner replaced, kept as its reference."""
    h, eri, m = eh.h_eff, eh.eri_active, 2 * len(eh.h_eff)

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
    for P in range(m):
        for Q in range(P % 2, m, 2):
            for R in range(m):
                for S in range(R % 2, m, 2):
                    w = 0.5 * eri[P >> 1, Q >> 1, R >> 1, S >> 1]
                    if w != 0.0:
                        accumulate([ladder(P, True), ladder(R, True),
                                    ladder(S, False), ladder(Q, False)], w)
    acc[(0, 0)] = acc.get((0, 0), 0.0) + eh.e_core

    table = {}
    for (x, z), c in acc.items():
        s = "".join("IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)] for q in range(m))
        table[s] = table.get(s, 0.0) + c * (-1j) ** (x & z).bit_count()
    return PauliHamiltonian.from_dict(table, n_qubits=m)


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
    assert got.n_qubits == ref.n_qubits == 2 * eh.n_active_orbitals
    # Strings, their order and every coefficient's bits.
    assert [(s, c.hex()) for c, s in got.terms] == [(s, c.hex()) for c, s in ref.terms]
    assert all(type(c) is float for c, _ in got.terms)
