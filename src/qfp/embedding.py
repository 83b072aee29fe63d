"""Fragment embedding: HOMO-LUMO active spaces and single-shot DMET.

Both embeddings are one frozen-core construction: a density outside the
active orbitals enters as a mean field J - K/2 on the one-electron term and
as a core energy, and the integrals are projected onto the active columns.
The active space freezes the MOs below a HOMO/LUMO window; DMET freezes the
occupied environment of a fragment+bath cluster, built from the Schmidt
decomposition of the mean-field density matrix in the Lowdin-localized
basis.  A chemical potential on the fragment diagonal can then be fitted to
a target fragment filling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from qfp import quantum_sim
from qfp.chem_io import MolecularIntegrals
from qfp.mean_field import MeanFieldSolution, lowdin_orthonormalize


class EmbeddingError(ValueError):
    pass


@dataclass
class ClusterBasis:
    """Column-orthonormal split of the localized space around a fragment."""

    fragment: np.ndarray      # n x n_frag
    bath: np.ndarray          # n x n_bath
    env_occupied: np.ndarray  # n x n_eo
    bath_singular_values: np.ndarray

    @property
    def cluster(self) -> np.ndarray:
        """Active cluster columns: fragment first, then bath."""
        return np.hstack([self.fragment, self.bath])


@dataclass
class EmbeddedHamiltonian:
    """Effective Hamiltonian on an active orbital set.

    h_eff already contains the frozen mean field and the -mu shift on
    fragment diagonals (shift_chemical_potential); e_core is the
    frozen-orbital constant including nuclear repulsion.  pauli_form keeps
    the qubit form it builds, so change a Hamiltonian with
    dataclasses.replace, not in place: a replaced copy builds its own.
    """

    n_active_orbitals: int
    n_active_electrons: int
    h_eff: np.ndarray
    eri_active: np.ndarray
    e_core: float
    fragment_mask: np.ndarray = field(default=None)
    # The qubit form once built, or the (Hamiltonian, mu) a shifted one derives
    # it from; init=False fields are not copied by dataclasses.replace.
    _pauli: object = field(default=None, init=False, repr=False, compare=False)
    _shifted_from: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.fragment_mask is None:
            self.fragment_mask = np.zeros(self.n_active_orbitals, dtype=bool)
        if self.n_active_electrons % 2 != 0:
            raise EmbeddingError("active electron count must be even")
        if self.n_active_electrons > 2 * self.n_active_orbitals:
            raise EmbeddingError("more electrons than spin orbitals in active space")

    def pauli_form(self) -> quantum_sim.PauliHamiltonian:
        """The Jordan-Wigner form of this Hamiltonian, built on the first call
        and kept.  A shift_chemical_potential result derives it from its
        source's form (quantum_sim.number_shifted on the fragment spin
        orbitals), so a DMET molecule with a fitted mu runs jordan_wigner once."""
        if self._pauli is None:
            if self._shifted_from is None:
                self._pauli = quantum_sim.jordan_wigner(self)
            else:
                eh, mu = self._shifted_from
                frag = np.flatnonzero(self.fragment_mask)
                self._pauli = quantum_sim.number_shifted(
                    eh.pauli_form(), mu, np.concatenate([2 * frag, 2 * frag + 1]))
                self._shifted_from = None
        return self._pauli


def transform_integrals(h, eri, C):
    """Rotate one- and two-electron integrals into the basis given by C's columns."""
    h_t = C.T @ h @ C
    tmp = np.einsum("pqrs,pa->aqrs", eri, C, optimize=True)
    tmp = np.einsum("aqrs,qb->abrs", tmp, C, optimize=True)
    tmp = np.einsum("abrs,rc->abcs", tmp, C, optimize=True)
    eri_t = np.einsum("abcs,sd->abcd", tmp, C, optimize=True)
    return h_t, eri_t


def localize_integrals(m: MolecularIntegrals, X: np.ndarray) -> MolecularIntegrals:
    """Integrals in the S-orthonormal basis given by X's columns (X^T S X = I).

    X is the Lowdin S^{-1/2} for DMET or the RHF orbitals C for an MO basis.
    """
    h_loc, eri_loc = transform_integrals(m.h_core, m.eri, X)
    return MolecularIntegrals(
        n_orbitals=m.n_orbitals,
        n_electrons=m.n_electrons,
        S=np.eye(m.n_orbitals),
        h_core=h_loc,
        eri=eri_loc,
        e_nuclear=m.e_nuclear,
    )


def dmet_setup(m: MolecularIntegrals, mf: MeanFieldSolution):
    """Lowdin-localized integrals and mean-field 1-RDM, the input of a DMET cluster.

    Returns (m_loc, D_loc) with D_loc = S^{1/2} D S^{1/2}; pass D_loc to
    dmet_cluster_basis and m_loc to dmet_hamiltonian.
    """
    X = lowdin_orthonormalize(m.S)
    S_half = np.linalg.inv(X)
    return localize_integrals(m, X), S_half @ mf.D @ S_half


def _coulomb_exchange(eri, D):
    """Closed-shell mean-field potential J - K/2 of a spin-summed density D."""
    J = np.einsum("pqrs,rs->pq", eri, D, optimize=True)
    K = np.einsum("prqs,rs->pq", eri, D, optimize=True)
    return J - 0.5 * K


def _frozen_core(h, eri, e_const, D_frozen):
    """The density D_frozen frozen as a mean field: (h + V, e_core).

    V = J - K/2 of D_frozen and e_core = e_const + tr(D h) + tr(D V) / 2.  The
    caller projects h + V and eri onto its active orbitals.
    """
    V = _coulomb_exchange(eri, D_frozen)
    return h + V, e_const + np.sum(D_frozen * h) + 0.5 * np.sum(D_frozen * V)


def _freeze_window(n, n_electrons, n_elec_act, n_orb_act, eps):
    """Orbital window [lo, hi) centered on the Fermi level.

    Orbitals are ordered by their energies eps; the window must fit and must
    not split a degenerate pair.
    """
    n_occ = n_electrons // 2
    n_act_occ = n_elec_act // 2
    if n_act_occ > n_occ or n_orb_act - n_act_occ > n - n_occ or n_orb_act < n_act_occ:
        raise EmbeddingError(
            f"active window ({n_elec_act}e,{n_orb_act}o) infeasible for "
            f"{n_electrons}e in {n}o"
        )
    lo = n_occ - n_act_occ
    hi = lo + n_orb_act
    for edge in (lo, hi):
        if 0 < edge < n and abs(eps[edge] - eps[edge - 1]) < 1e-8:
            raise EmbeddingError(
                f"active window edge splits a degenerate pair at index {edge}"
            )
    return lo, hi


def homo_lumo_active_space(m: MolecularIntegrals, mf: MeanFieldSolution,
                           n_elec_act: int, n_orb_act: int) -> EmbeddedHamiltonian:
    """Freeze MOs outside a HOMO/LUMO-centered window at the SCF level."""
    n = m.n_orbitals
    lo, hi = _freeze_window(n, m.n_electrons, n_elec_act, n_orb_act, mf.eps)
    h_mo, eri_mo = transform_integrals(m.h_core, m.eri, mf.C)
    h_fc, e_core = _frozen_core(h_mo, eri_mo, m.e_nuclear,
                                np.diag(2.0 * (np.arange(n) < lo)))
    act = np.arange(lo, hi)
    return EmbeddedHamiltonian(
        n_active_orbitals=n_orb_act,
        n_active_electrons=n_elec_act,
        h_eff=h_fc[np.ix_(act, act)],
        eri_active=eri_mo[np.ix_(act, act, act, act)],
        e_core=e_core,
    )


def dmet_cluster_basis(D_loc: np.ndarray, fragment) -> ClusterBasis:
    """Schmidt fragment+bath split of the localized mean-field 1-RDM.

    fragment lists distinct orbital indices into the localized basis.
    """
    tol = 1e-6  # occupation slack, and the smallest bath singular value kept
    n = D_loc.shape[0]
    frag_idx = np.asarray(fragment, dtype=int)
    if frag_idx.size and (frag_idx.min() < 0 or frag_idx.max() >= n):
        raise EmbeddingError("fragment index out of range")
    if len(set(frag_idx.tolist())) != frag_idx.size:
        raise EmbeddingError("fragment indices must be unique")
    occs = np.linalg.eigvalsh(D_loc)
    if occs.min() < -tol or occs.max() > 2.0 + tol:
        raise EmbeddingError(
            f"density matrix not a valid mean-field RDM (occupations in "
            f"[{occs.min():.3e}, {occs.max():.3e}])"
        )
    env_idx = np.array([i for i in range(n) if i not in set(frag_idx.tolist())])

    fragment = np.eye(n)[:, frag_idx]
    if env_idx.size == 0:
        empty = np.zeros((n, 0))
        return ClusterBasis(fragment, empty, empty, np.zeros(0))

    block = D_loc[np.ix_(env_idx, frag_idx)] / 2.0
    U, s, _ = np.linalg.svd(block, full_matrices=True)
    n_bath = int(np.sum(s > tol))
    if n_bath < s.size and n_bath > 0 and abs(s[n_bath - 1] - s[n_bath]) < tol * 1e-2:
        raise EmbeddingError("degenerate bath singular values at the truncation cutoff")

    def embed(cols):
        out = np.zeros((n, cols.shape[1]))
        out[env_idx, :] = cols
        return out

    rest = U[:, n_bath:]
    w, V = np.linalg.eigh(rest.T @ D_loc[np.ix_(env_idx, env_idx)] @ rest)
    return ClusterBasis(
        fragment=fragment,
        bath=embed(U[:, :n_bath]),
        env_occupied=embed(rest @ V[:, w > 0.5]),
        bath_singular_values=s[:n_bath],
    )


def dmet_hamiltonian(m_loc: MolecularIntegrals, cb: ClusterBasis) -> EmbeddedHamiltonian:
    """Cluster Hamiltonian at mu = 0, the occupied environment frozen as a mean field."""
    D_env = 2.0 * cb.env_occupied @ cb.env_occupied.T
    n_act = m_loc.n_electrons - float(np.trace(D_env))
    n_act_round = int(round(n_act / 2.0)) * 2
    if abs(n_act - n_act_round) > 0.05:
        raise EmbeddingError(
            f"cluster electron count {n_act:.4f} not close to an even integer"
        )
    h_fc, e_core = _frozen_core(m_loc.h_core, m_loc.eri, m_loc.e_nuclear, D_env)
    h_eff, eri_act = transform_integrals(h_fc, m_loc.eri, cb.cluster)
    return EmbeddedHamiltonian(
        n_active_orbitals=h_eff.shape[0],
        n_active_electrons=n_act_round,
        h_eff=h_eff,
        eri_active=eri_act,
        e_core=e_core,
        fragment_mask=np.arange(h_eff.shape[0]) < cb.fragment.shape[1],
    )


def shift_chemical_potential(eh: EmbeddedHamiltonian, mu: float) -> EmbeddedHamiltonian:
    """eh with -mu added to its fragment diagonal.  Its pauli_form is eh's
    with -mu * N_frag added, -mu n_frag on the identity row and +mu / 2 on
    each fragment spin orbital's Z row (quantum_sim.number_shifted): equal to
    jordan_wigner of the shifted integrals to round-off, without a second
    transform."""
    if not np.isfinite(mu):
        raise EmbeddingError("chemical potential must be finite")
    h_eff = eh.h_eff.copy()
    h_eff[np.diag_indices_from(h_eff)] -= mu * eh.fragment_mask
    shifted = replace(eh, h_eff=h_eff)
    shifted._shifted_from = (eh, mu)
    return shifted


def fragment_count_builder(eh: EmbeddedHamiltonian):
    """builder(mu) -> fragment electron count in the ground state of eh at mu.

    eh is the mu = 0 cluster Hamiltonian of dmet_hamiltonian.  H0 is the
    (N/2, N/2) block of its Jordan-Wigner form (eh.pauli_form(), kept for
    the fitted-mu Hamiltonian; ExactEvolver.sector_matrix at index
    (1 << N) - 1).  H0 is spin-free and N is even, so every spin
    multiplet has an Ms = 0 member, and N_frag commutes with total spin:
    this block's lowest state has the fragment count of the whole
    N-electron sector's (36 x 36, not 70 x 70, for 4 orbitals).  The -mu
    shift adds -mu * N_frag, diagonal here: with fragment orbitals first,
    n_f is a state's low 2 * n_frag bit count.  Each call is one eigh of
    H0 - mu diag(n_f); the count is v0^2 @ n_f.
    """
    evolver = quantum_sim.ExactEvolver(eh.pauli_form())
    idx, H0 = evolver.sector_matrix((1 << eh.n_active_electrons) - 1)
    n_frag = int(np.count_nonzero(eh.fragment_mask))
    n_f = np.bitwise_count(idx & ((1 << 2 * n_frag) - 1)).astype(float)

    def count(mu: float) -> float:
        if not np.isfinite(mu):
            raise EmbeddingError("chemical potential must be finite")
        _, v = np.linalg.eigh(H0 - np.diag(mu * n_f))
        return float(v[:, 0] ** 2 @ n_f)

    return count


def fit_chemical_potential(builder, n_target: float) -> float:
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 168, 1971) on the
    (monotone) fragment filling as a function of mu in [-1, 1].

    Each step evaluates the builder where the secant through the bracket
    ends crosses n_target; an end kept twice in a row has its residual
    halved, so the bracket closes from both sides.  Raises EmbeddingError
    when 100 steps leave the filling further than 1e-6 from n_target.
    """
    tol, max_iter = 1e-6, 100
    lo, hi = -1.0, 1.0
    f_lo = builder(lo) - n_target
    f_hi = builder(hi) - n_target
    if abs(f_lo) < tol:
        return lo
    if abs(f_hi) < tol:
        return hi
    # Filling increases with mu (deeper fragment levels attract electrons).
    if f_lo * f_hi > 0:
        raise EmbeddingError(
            f"bracket [{lo}, {hi}] does not straddle target filling {n_target}"
        )
    # g_lo, g_hi are the residuals the secant runs through: f_lo, f_hi
    # halved once for every further step that keeps their end.
    g_lo, g_hi, kept = f_lo, f_hi, None
    for _ in range(max_iter):
        mu = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        f_mu = builder(mu) - n_target
        if abs(f_mu) < tol:
            return mu
        if f_mu * f_lo < 0:
            hi, f_hi, g_hi = mu, f_mu, f_mu
            if kept == "lo":
                g_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo, g_lo = mu, f_mu, f_mu
            if kept == "hi":
                g_hi *= 0.5
            kept = "hi"
    raise EmbeddingError(
        f"chemical potential not within {tol:g} of filling {n_target} after "
        f"{max_iter} regula falsi steps: bracket [{lo:.17g}, {hi:.17g}], "
        f"residuals {f_lo:+.3e} / {f_hi:+.3e}"
    )
