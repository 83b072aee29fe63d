import numpy as np
import pytest

from qfp import chem_io, embedding, mean_field

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"

ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def h2_molecule(z=1.4):
    return chem_io.s_orbital_integrals(chem_io.h2_geometry(z))


def h4_molecule(spacing=1.4):
    return chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(4) * spacing))


def dmet_h2(z, fragment=(0,)):
    """H2 DMET cluster Hamiltonian in the Lowdin-localized atomic basis."""
    m = h2_molecule(z)
    m_loc, D_loc = embedding.dmet_setup(m, mean_field.scf_solve(m))
    cb = embedding.dmet_cluster_basis(D_loc, embedding.FragmentSpec(list(fragment)))
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
