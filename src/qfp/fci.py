"""Exact diagonalization in the determinant (occupation-number) basis.

Builds many-body Hamiltonian matrices directly from fermionic ladder-operator
action on bitstrings, independent of the Pauli-string route in quantum_sim.
It is the oracle of the tests, demos and perfbench; no production module imports it.
Spin-orbital convention: mode 2p is spatial orbital p spin-alpha, mode 2p+1
spin-beta; mode 0 is the least significant bit of the determinant index.

Intended for small clusters (<= ~12 spin orbitals).
"""

from __future__ import annotations

import numpy as np


def spin_orbital_integrals(h: np.ndarray, eri: np.ndarray):
    """Expand spatial-orbital h, (pq|rs) to interleaved spin-orbital tensors."""
    n = h.shape[0]
    m = 2 * n
    h_so = np.zeros((m, m))
    eri_so = np.zeros((m, m, m, m))
    for s in range(2):
        h_so[s::2, s::2] = h
        for t in range(2):
            eri_so[s::2, s::2, t::2, t::2] = eri
    return h_so, eri_so


def _parity_table(n_modes: int) -> np.ndarray:
    dim = 1 << n_modes
    t = np.zeros(dim, dtype=np.int8)
    for b in range(n_modes):
        t ^= (np.arange(dim) >> b).astype(np.int8) & 1
    return t


def fock_space_hamiltonian(
    h: np.ndarray, eri: np.ndarray, e_core: float = 0.0
) -> np.ndarray:
    """Dense Hamiltonian over the full 2^(2n) Fock space.

    H = sum h_PQ a+_P a_Q + 1/2 sum (PQ|RS) a+_P a+_R a_S a_Q + e_core.
    """
    h_so, eri_so = spin_orbital_integrals(np.asarray(h), np.asarray(eri))
    m = h_so.shape[0]
    if m > 16:
        raise ValueError("Fock-space build capped at 16 spin orbitals")
    dim = 1 << m
    parity = _parity_table(m)
    x = np.arange(dim)
    H = np.zeros((dim, dim))
    H[np.diag_indices(dim)] += e_core

    def apply_ops(creators, annihilators):
        """Apply a_Q... then a+_P... to every determinant; returns (mask, y, sign)."""
        y = x.copy()
        sign = np.ones(dim, dtype=np.int8)
        ok = np.ones(dim, dtype=bool)
        for q in annihilators:
            bit = 1 << q
            ok &= (y & bit) != 0
            sign = sign * (1 - 2 * parity[y & (bit - 1)])
            y = y ^ bit
        for p in creators:
            bit = 1 << p
            ok &= (y & bit) == 0
            sign = sign * (1 - 2 * parity[y & (bit - 1)])
            y = y ^ bit
        return ok, y, sign

    for P in range(m):
        for Q in range(m):
            if h_so[P, Q] == 0.0:
                continue
            ok, y, sg = apply_ops([P], [Q])
            np.add.at(H, (y[ok], x[ok]), h_so[P, Q] * sg[ok])

    for P in range(m):
        for Q in range(P % 2, m, 2):
            for R in range(m):
                if R == P:
                    continue
                for S in range(R % 2, m, 2):
                    c = 0.5 * eri_so[P, Q, R, S]
                    if c == 0.0:
                        continue
                    # a+_P a+_R a_S a_Q: rightmost operator acts first
                    ok, y, sg = apply_ops([R, P], [Q, S])
                    if not ok.any():
                        continue
                    np.add.at(H, (y[ok], x[ok]), c * sg[ok])
    return H


def sector_indices(n_modes: int, n_electrons: int) -> np.ndarray:
    x = np.arange(1 << n_modes)
    counts = np.zeros(1 << n_modes, dtype=np.int64)
    for b in range(n_modes):
        counts += (x >> b) & 1
    return x[counts == n_electrons]


def fci_ground_state(h, eri, e_core: float, n_electrons: int):
    """Lowest eigenpair in the fixed-particle-number sector.

    Returns (energy, full Fock-space vector).
    """
    H = fock_space_hamiltonian(h, eri, e_core)
    m = 2 * np.asarray(h).shape[0]
    idx = sector_indices(m, n_electrons)
    w, v = np.linalg.eigh(H[np.ix_(idx, idx)])
    psi = np.zeros(H.shape[0])
    psi[idx] = v[:, 0]
    return w[0], psi


def determinant_rdm1(psi: np.ndarray, n_spatial: int) -> np.ndarray:
    """Spin-summed 1-RDM rho_rs = sum_sigma <a+_{s,sigma} a_{r,sigma}>."""
    m = 2 * n_spatial
    dim = 1 << m
    if psi.shape[0] != dim:
        raise ValueError("state dimension does not match orbital count")
    parity = _parity_table(m)
    x = np.arange(dim)
    rho = np.zeros((n_spatial, n_spatial), dtype=complex)
    psi_c = psi.conj()
    for r in range(n_spatial):
        for s in range(n_spatial):
            val = 0.0 + 0.0j
            for sp in range(2):
                R, S = 2 * r + sp, 2 * s + sp
                br, bs = 1 << R, 1 << S
                # a_R then a+_S
                ok = (x & br) != 0
                y = x ^ br
                sg = (1 - 2 * parity[x & (br - 1)]).astype(np.int8)
                ok2 = ok & ((y & bs) == 0)
                sg2 = sg * (1 - 2 * parity[y & (bs - 1)])
                z = y ^ bs
                val += np.sum(psi_c[z[ok2]] * psi[x[ok2]] * sg2[ok2])
            rho[r, s] = val
    rho = np.real_if_close(rho, tol=1e6)
    return np.asarray(rho, dtype=float) if np.isrealobj(rho) else rho
