import numpy as np
import pytest

from qfp import chem_io, embedding, mean_field, quantum_sim

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"

ACCEPTANCE_VERDICTS = []

PAULI_2X2 = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
             "Y": np.array([[0.0, -1j], [1j, 0.0]]), "Z": np.diag([1.0, -1.0])}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def kron_string(symbols):
    """Dense operator of one 2x2 factor per qubit, qubit 0 the least significant bit."""
    M = np.eye(1)
    for factor in symbols:
        M = np.kron(factor, M)
    return M


def pauli_matrix(terms, n_qubits):
    """Dense matrix of a weighted Pauli-string sum [(coeff, string)], qubit 0 first.

    The tests' reference, built from Kronecker products of 2x2 matrices.
    """
    H = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    for coeff, s in terms:
        H += coeff * kron_string([PAULI_2X2[ch] for ch in s])
    return H


def pauli_masks(string):
    """(x, z) int masks of a Pauli string, qubit 0 first: x on X and Y, z on Y and Z."""
    if bad := set(string) - set("IXYZ"):
        raise ValueError(f"bad Pauli symbols {sorted(bad)} in {string!r}")
    return (sum(1 << q for q, ch in enumerate(string) if ch in "XY"),
            sum(1 << q for q, ch in enumerate(string) if ch in "YZ"))


def pauli_hamiltonian(terms, n_qubits):
    """PauliHamiltonian of a weighted Pauli-string sum [(coeff, string)], rows in that order."""
    x, z = np.array([pauli_masks(s) for _, s in terms], dtype=np.int64).reshape(-1, 2).T
    return quantum_sim.PauliHamiltonian(x, z, np.array([c for c, _ in terms], dtype=float),
                                        n_qubits)


def fold_sequence(gs, scale):
    """Gate folding G -> G (G+ G)^k with k = (scale - 1) / 2, as physical copies.

    quantum_sim.noisy_expectation merges the copies of a gate into one
    rotation; the tests' references run them one by one.
    """
    k = (int(scale) - 1) // 2
    gates = []
    for theta, xz in gs.gates:
        inverse = (None if theta is None else -theta, xz)
        gates += [(theta, xz)] + [inverse, (theta, xz)] * k
    return quantum_sim.GateSequence(gates=gates, n_qubits=gs.n_qubits,
                                    global_phase=gs.global_phase)


def counted_mu_fits(monkeypatch):
    """Wrap embedding.fragment_count_builder; the returned list holds, for
    each builder made, the number of times the mu-fit called it."""
    fits = []
    make = embedding.fragment_count_builder

    def counted(eh):
        count, i = make(eh), len(fits)
        fits.append(0)

        def builder(mu):
            fits[i] += 1
            return count(mu)

        return builder

    monkeypatch.setattr(embedding, "fragment_count_builder", counted)
    return fits


def full_width(idx, states, n_qubits):
    """An evolver's (idx, states) as (..., 2^n) statevectors: each state's
    amplitudes scattered to its basis indices idx, zero elsewhere."""
    out = np.zeros(np.shape(states)[:-1] + (1 << n_qubits,), dtype=complex)
    out[..., idx] = states
    return out


def hamiltonian_matrix(ph):
    """Dense matrix of a PauliHamiltonian."""
    return pauli_matrix(ph.terms, ph.n_qubits)


def number_expectation(psi):
    """<N> of a statevector: each basis state's probability times its number of
    set bits, the occupied spin orbitals.  The tests' reference for particle
    number and for the trace of quantum_sim.rdm1."""
    counts = [bin(b).count("1") for b in range(psi.shape[0])]
    return float(np.sum(np.array(counts) * np.abs(psi) ** 2))


def h2_molecule(z=1.4):
    return chem_io.s_orbital_integrals(chem_io.hydrogen_chain([0.0, z]))


def h4_molecule(spacing=1.4):
    return chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(4) * spacing))


def dmet_h2(z, fragment=(0,)):
    """H2 DMET cluster Hamiltonian in the Lowdin-localized atomic basis."""
    m = h2_molecule(z)
    m_loc, D_loc = embedding.dmet_setup(m, mean_field.scf_solve(m))
    cb = embedding.dmet_cluster_basis(D_loc, list(fragment))
    return embedding.dmet_hamiltonian(m_loc, cb)


@pytest.fixture(scope="session")
def h2():
    return h2_molecule()


@pytest.fixture(scope="session")
def h2_mf(h2):
    return mean_field.scf_solve(h2)


@pytest.fixture(scope="session")
def h2_active(h2, h2_mf):
    return embedding.homo_lumo_active_space(h2, h2_mf, 2, 2)
