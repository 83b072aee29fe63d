"""Restricted Hartree-Fock via the Roothaan equations.

Plain damped fixed-point SCF (no DIIS): the systems handled here are small
enough that simplicity wins.  Also provides Lowdin symmetric
orthonormalization, which defines the localized orbital basis used by the
embedding layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qfp.chem_io import MolecularIntegrals

__all__ = [
    "MeanFieldSolution",
    "lowdin_orthonormalize",
    "fock_build",
    "scf_solve",
    "LinearDependenceError",
    "DegeneracyError",
    "SCFOverflowError",
]


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


def scf_solve(m: MolecularIntegrals, max_iter: int = 200) -> MeanFieldSolution:
    """Iterate the Roothaan equations to self-consistency.

    Each update mixes 0.3 of the previous density into the new one, and the
    iteration stops once no density element moves by 1e-8 or more.
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
        for n_iter in range(1, max_iter + 1):
            eps, C = eigh(F)
            if n_occ < m.n_orbitals and abs(eps[n_occ] - eps[n_occ - 1]) < 1e-9:
                raise DegeneracyError(
                    f"HOMO/LUMO degenerate at eps={eps[n_occ - 1]:.10f}; "
                    "closed-shell occupation undefined"
                )
            D_new = _density(C, n_occ)
            delta = np.max(np.abs(D_new - D))
            D = 0.3 * D + 0.7 * D_new
            F = finite(fock_build(D, m), "Fock matrix")
            if delta < 1e-8:
                converged = True
                break

        e_total = finite(0.5 * np.sum(D * (m.h_core + F)) + m.e_nuclear, "energy")
    return MeanFieldSolution(
        C=C, eps=eps, D=D, F=F, e_total=e_total, converged=converged, n_iterations=n_iter
    )
