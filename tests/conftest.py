import numpy as np
import pytest

from qfp import chem_io, embedding, mean_field

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


def hamiltonian_matrix(ph):
    """Dense matrix of a PauliHamiltonian."""
    return pauli_matrix(ph.terms, ph.n_qubits)


def h2_molecule(z=1.4):
    return chem_io.s_orbital_integrals(chem_io.h2_geometry(z))


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
