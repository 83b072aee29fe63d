import dataclasses

import numpy as np
import pytest
import scipy.linalg

from qfp import chem_io, mean_field
from qfp.chem_io import MolecularIntegrals
from qfp.mean_field import DegeneracyError, LinearDependenceError, SCFOverflowError

from conftest import h2_molecule, h4_molecule


def test_lowdin_orthonormalizes():
    m = h2_molecule(1.4)
    X = mean_field.lowdin_orthonormalize(m.S)
    assert np.allclose(X.T @ m.S @ X, np.eye(2), atol=1e-12)
    assert np.allclose(X, X.T, atol=1e-12)  # symmetric orthogonalization


def test_lowdin_rejects_linear_dependence():
    S = np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]])
    with pytest.raises(LinearDependenceError):
        mean_field.lowdin_orthonormalize(S)


def test_h2_hf_energy_literature():
    # E_HF(H2/STO-3G, 1.4 bohr) = -1.1167 Ha (standard textbook value)
    mf = mean_field.scf_solve(h2_molecule(1.4))
    assert mf.converged
    assert mf.e_total == pytest.approx(-1.1167, abs=2e-3)


def test_density_invariants():
    m = h4_molecule(1.4)
    mf = mean_field.scf_solve(m)
    assert mf.converged
    # spin-summed density: trace(D S) = N, idempotency D S D = 2 D
    assert np.trace(mf.D @ m.S) == pytest.approx(m.n_electrons, abs=1e-6)
    assert np.allclose(mf.D @ m.S @ mf.D, 2.0 * mf.D, atol=1e-5)
    assert np.all(np.diff(mf.eps) >= -1e-12)


def test_fock_of_zero_density_is_core():
    m = h2_molecule(1.4)
    assert np.allclose(mean_field.fock_build(np.zeros((2, 2)), m), m.h_core)


def test_energy_expression_consistency():
    m = h2_molecule(1.4)
    mf = mean_field.scf_solve(m)
    e = 0.5 * np.sum(mf.D * (m.h_core + mf.F)) + m.e_nuclear
    assert mf.e_total == pytest.approx(e, abs=1e-12)


def test_odd_electron_count_rejected():
    m = h2_molecule(1.4)
    bad = MolecularIntegrals(
        n_orbitals=2, n_electrons=1, S=m.S, h_core=m.h_core, eri=m.eri,
        e_nuclear=m.e_nuclear,
    )
    with pytest.raises(ValueError, match="even"):
        mean_field.scf_solve(bad)


def test_fermi_level_degeneracy_detected():
    m = MolecularIntegrals(
        n_orbitals=2, n_electrons=2, S=np.eye(2), h_core=np.zeros((2, 2)),
        eri=np.zeros((2, 2, 2, 2)), e_nuclear=0.0,
    )
    with pytest.raises(DegeneracyError):
        mean_field.scf_solve(m)


def test_honest_convergence_flag():
    m = h4_molecule(1.6)
    mf = mean_field.scf_solve(m, max_iter=1)
    assert not mf.converged
    assert mf.n_iterations == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, what", [("h_core", "energy"), ("eri", "Fock matrix")])
def test_overflow_to_non_finite_is_an_error(field, what):
    # Finite integrals near the float limit: h_11 = 1.7e308 overflows only the
    # energy, and ERIs of 1e308 overflow J(D) in the first Fock build.
    m = h2_molecule(1.4)
    big = getattr(m, field).copy()
    if field == "h_core":
        big[0, 0] = 1.7e308
    else:
        big[:] = 1e308
    with pytest.raises(SCFOverflowError, match=f"SCF overflow: non-finite {what}"):
        mean_field.scf_solve(dataclasses.replace(m, **{field: big}))


@pytest.mark.parametrize("n_atoms", range(2, 13))
def test_roothaan_eigh_matches_scipy_generalized_eigh(n_atoms):
    # scf_solve's eigensolver against scipy.linalg.eigh(F, S), on the core
    # Hamiltonian and the last Fock matrix of the SCF (H12 at 3.0 bohr does
    # not converge in 200 damped iterations).  Both reduce F C = S C eps
    # by the Cholesky factor of S, so no MO column flips sign.  Round-off of
    # size 1e-16 |F| turns a column by about 1e-16 |F| / gap, gap being the
    # distance to the nearest other eigenvalue: H12 at 3.0 bohr has gaps of
    # 1e-5 and columns 5e-11 apart.
    geometries = [chem_io.hydrogen_chain(np.arange(n_atoms) * d) for d in (0.8, 1.4, 2.2, 3.0)]
    if n_atoms == 6:
        geometries.append(np.random.default_rng(5).normal(scale=1.5, size=(6, 3)))
    for centres in geometries:
        m = chem_io.s_orbital_integrals(centres, n_electrons=n_atoms + n_atoms % 2)
        mf = mean_field.scf_solve(m)
        eigh = mean_field._roothaan_eigh(m.S)
        for F in (m.h_core, mf.F):
            eps, C = eigh(F)
            eps_ref, C_ref = scipy.linalg.eigh(F, m.S)
            assert np.all(np.abs(eps - eps_ref) <= 1e-12 * np.abs(eps_ref))
            assert np.all(np.sum(C * (m.S @ C_ref), axis=0) > 0.5)
            gap = np.min(np.abs(eps_ref[:, None] - eps_ref) + np.diag(np.full(len(eps), np.inf)),
                         axis=1)
            assert np.all(np.max(np.abs(C - C_ref), axis=0) <= 1e-12 + 1e-14 / gap)
