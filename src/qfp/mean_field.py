"""Restricted Hartree-Fock via the Roothaan equations.

The SCF extrapolates the Fock matrix by Pulay's DIIS (Chem. Phys. Lett. 73,
393, 1980), with damped density mixing as its fallback.  Stretched chains
such as H8 at 3.4 bohr and H12 at 3.0 bohr converge in about 15 iterations;
far-apart atoms, such as H8 at 6.0 bohr, still end unconverged and the CLI
exits 4.  Also provides Lowdin symmetric orthonormalization, which defines
the localized orbital basis used by the embedding layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from qfp.chem_io import MolecularIntegrals


class LinearDependenceError(ValueError):
    """Overlap matrix has a near-zero eigenvalue; basis is linearly dependent."""


class DegeneracyError(ValueError):
    """Orbital degeneracy at the Fermi level; closed-shell filling is ambiguous."""


class SCFOverflowError(ValueError):
    """The Fock matrix or the SCF energy overflowed to a non-finite value."""


@dataclass
class MeanFieldSolution:
    """Converged (or honestly flagged unconverged) RHF solution."""

    C: np.ndarray          # MO coefficients, AO x MO
    eps: np.ndarray        # orbital energies, ascending
    D: np.ndarray          # spin-summed AO density, trace(D S) = n_electrons
    F: np.ndarray          # final AO Fock matrix
    e_total: float         # electronic + nuclear energy, Hartree
    converged: bool
    n_iterations: int


def lowdin_orthonormalize(S: np.ndarray) -> np.ndarray:
    """Symmetric orthonormalization X = S^{-1/2}, so X.T @ S @ X = I."""
    S = np.asarray(S, dtype=float)
    w, U = np.linalg.eigh(S)
    if w.min() < 1e-10:
        raise LinearDependenceError(f"overlap eigenvalue {w.min():.3e} below 1e-10")
    return (U / np.sqrt(w)) @ U.T


def fock_build(D: np.ndarray, m: MolecularIntegrals) -> np.ndarray:
    """Closed-shell Fock matrix F = h + J(D) - K(D)/2 for spin-summed D."""
    if D.shape != m.h_core.shape:
        raise ValueError("density/integral dimension mismatch")
    J = np.einsum("pqrs,rs->pq", m.eri, D)
    K = np.einsum("prqs,rs->pq", m.eri, D)
    return m.h_core + J - 0.5 * K


def _density(C: np.ndarray, n_occ: int) -> np.ndarray:
    Cocc = C[:, :n_occ]
    return 2.0 * Cocc @ Cocc.T


def _roothaan_eigh(S: np.ndarray):
    """The solver F -> (eps, C) of F C = S C diag(eps), ascending eps, as
    LAPACK's sygvd runs it: with S = L L^T, (eps, V) = eigh(L^-1 F L^-T) and
    C = L^-T V.  The MO signs are those of scipy.linalg.eigh(F, S)."""
    Linv = np.linalg.inv(np.linalg.cholesky(S))

    def eigh(F):
        eps, V = np.linalg.eigh(Linv @ F @ Linv.T)
        return eps, Linv.T @ V

    return eigh


DIIS_SIZE = 8  # Fock/error pairs kept for the extrapolation


def _diis_fock(focks, errors):
    """Pulay's extrapolated Fock matrix sum_i c_i F_i, the c_i minimising
    |sum_i c_i e_i| subject to sum_i c_i = 1; None when that linear system
    is singular or its solution is not finite."""
    k = len(focks)
    E = np.reshape(errors, (k, -1))
    B = np.zeros((k + 1, k + 1))
    B[:k, :k] = E @ E.T
    B[k, :k] = B[:k, k] = -1.0
    rhs = np.zeros(k + 1)
    rhs[k] = -1.0
    try:
        c = np.linalg.solve(B, rhs)[:k]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(c)):
        return None
    return np.einsum("i,ipq->pq", c, focks)


def scf_solve(m: MolecularIntegrals, max_iter: int = 200) -> MeanFieldSolution:
    """Iterate the Roothaan equations to self-consistency.

    Each iteration diagonalizes the Fock matrix F of the current density D.
    Once the density of that step moves no element of D by 1e-8 or more, it
    is the result.  Otherwise the next D is the density of Pulay's DIIS
    extrapolation of the last DIIS_SIZE Fock matrices, whose errors are
    F D S - S D F; when the DIIS system is singular, it is the step's
    density with 0.3 of D mixed in.
    Non-convergence is reported via the `converged` flag, never hidden.
    A non-finite F or e_total (from integrals near the float limit) raises.
    """
    if m.n_electrons % 2 != 0:
        raise ValueError("restricted HF needs an even electron count")
    n_occ = m.n_electrons // 2
    if n_occ > m.n_orbitals:
        raise ValueError("more electron pairs than orbitals")

    def finite(value, what):
        if not np.all(np.isfinite(value)):
            raise SCFOverflowError(f"SCF overflow: non-finite {what}")
        return value

    eigh = _roothaan_eigh(m.S)
    # Overflow is reported by the checks, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        eps, C = eigh(m.h_core)
        D = _density(C, n_occ)
        converged = False
        n_iter = 0
        F = finite(fock_build(D, m), "Fock matrix")
        focks, errors = deque(maxlen=DIIS_SIZE), deque(maxlen=DIIS_SIZE)
        for n_iter in range(1, max_iter + 1):
            eps, C = eigh(F)
            if n_occ < m.n_orbitals and abs(eps[n_occ] - eps[n_occ - 1]) < 1e-9:
                raise DegeneracyError(
                    f"HOMO/LUMO degenerate at eps={eps[n_occ - 1]:.10f}; "
                    "closed-shell occupation undefined"
                )
            D_new = _density(C, n_occ)
            if np.max(np.abs(D_new - D)) < 1e-8:
                D, converged = D_new, True
                F = finite(fock_build(D, m), "Fock matrix")
                break
            FDS = F @ D @ m.S
            focks.append(F)
            errors.append(FDS - FDS.T)
            F_diis = _diis_fock(focks, errors)
            D = 0.3 * D + 0.7 * D_new if F_diis is None else _density(eigh(F_diis)[1], n_occ)
            F = finite(fock_build(D, m), "Fock matrix")

        e_total = finite(0.5 * np.sum(D * (m.h_core + F)) + m.e_nuclear, "energy")
    return MeanFieldSolution(
        C=C, eps=eps, D=D, F=F, e_total=e_total, converged=converged, n_iterations=n_iter
    )
