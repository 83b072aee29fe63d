"""Fermion-to-qubit mapping, statevector evolution, noise and mitigation.

Conventions frozen here:

* qubit 0 is the least significant bit of a basis-state index;
* spatial orbital p maps to qubits 2p (spin-alpha) and 2p+1 (spin-beta);
* a Pauli P is a symplectic (x, z) pair of int masks: X on the qubits set
  only in x, Z on those only in z and Y = i X Z on both, so products are
  bitwise operations; its string, for display only, puts qubit 0 first;
* a gate (theta, (x, z)) applies cos(theta/2) I - i sin(theta/2) P, and
  (None, (x, z)) applies P itself.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

_SYMBOLS = "IXYZ"


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

def _symbol_codes(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """(len(x), n_qubits) index into _SYMBOLS of each term's symbol on each qubit."""
    q = np.arange(n_qubits)
    return (x[:, None] >> q & 1) ^ 3 * (z[:, None] >> q & 1)


def _parity_vector(mask: int, n_qubits: int) -> np.ndarray:
    """(-1)^popcount(b & mask) for every basis index b, as int64."""
    b = np.arange(1 << n_qubits)
    # bitwise_count returns uint8: cast before 1 - 2x, which would wrap.
    return 1 - 2 * (np.bitwise_count(b & mask) & 1).astype(np.int64)


@functools.lru_cache(maxsize=1024)
def _pauli_action(x: int, z: int, n: int):
    """(perm, pv) with P|b> = pv[b] |b ^ x>, so (P psi)[j] = (pv * psi)[perm[j]].

    Built once per (x, z, n) and kept for the 1,024 used last: every Pauli
    on up to 5 qubits.  An entry is 2^n x 24 B (int64 perm, complex128 pv),
    24 KB at 10 qubits and 96 KB at 12, so a full cache holds 24 MB at 10
    qubits and 96 MB at 12.  The arrays are read-only because every caller
    shares them.
    """
    action = np.arange(1 << n) ^ x, 1j ** (x & z).bit_count() * _parity_vector(z, n)
    for a in action:
        a.flags.writeable = False
    return action


@dataclass
class PauliHamiltonian:
    """Real sum of Pauli strings: row k is coeffs[k] (float64) times X on the
    qubits set only in the int64 mask x[k], Z on those set only in z[k] and
    Y on those set in both.  jordan_wigner sorts the rows in string order."""

    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray
    n_qubits: int

    @property
    def terms(self) -> list:
        """[(coeff, string)] in row order, qubit 0 first: for display only."""
        chars = np.frombuffer(_SYMBOLS.encode(), np.uint8)[
            _symbol_codes(self.x, self.z, self.n_qubits)]
        strings = chars.view(f"S{self.n_qubits}").ravel().astype(str).tolist()
        return list(zip(self.coeffs.tolist(), strings))

    @property
    def identity_coefficient(self) -> float:
        return float(self.coeffs[(self.x | self.z) == 0].sum())


def _ladder_branches(modes: np.ndarray, daggers, m: int):
    """Flat (keys, factors) of the 2^k branches of each row, key = x << m | z.

    Row i is the product of ladder operators on modes[i], creators where
    daggers[f]; a_P = X_P Z^low / 2 -+ X_P Z^(low|P) / 2.  Branch j takes
    term (j >> (k - 1 - f)) & 1 of factor f; each factor in turn applies its
    +-0.5, the sign (-1)^parity(z & x_f), then x ^= x_f, z ^= z_f, so every
    factor is +-2^-k exactly."""
    k = len(daggers)
    bits = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    x, z = np.zeros((2, len(modes), 1 << k), dtype=np.int64)
    c = np.ones((len(modes), 1))
    for f, dagger in enumerate(daggers):
        p = modes[:, f, None]
        e = np.int64(1) << p
        sign = np.where((z >> p) & 1, -1.0, 1.0)
        c = c * np.where(bits[f], 0.5 if dagger else -0.5, 0.5) * sign
        x ^= e
        z ^= (e - 1) | (e * bits[f])
    return ((x << m) | z).ravel(), c.ravel()


@functools.lru_cache(maxsize=8)
def _jw_table(m: int):
    """(at, factors, keys) of jordan_wigner on m qubits, built once per m.

    One entry per ladder branch, in the merged-pair loop's order and then
    the core energy: the index of its weight in [h.ravel(), eri.ravel(),
    e_core] and its factor +-2^-k (1 for e_core).  keys is (inverse, x, z,
    sign, odd, order) of the np.unique branch keys x << m | z: each key's
    masks, its sign 1 - (nY & 2), whether nY is odd, and the string order
    (I < X < Y < Z, qubit 0 first).  Nothing here depends on a molecule;
    the 8 qubit counts used last are kept.  189 KB at 8 qubits, 482 KB at
    10 and 3.4 MB at 16, read-only because every call shares them.
    """
    n = m // 2
    P, Q = np.array([(p, q) for p in range(m) for q in range(p % 2, m, 2)],
                    dtype=np.int64).reshape(-1, 2).T
    k1, f1 = _ladder_branches(np.stack([P, Q], 1), (True, False), m)
    # (P, Q) outer and (R, S) inner, as the loop nests them.
    pq, rs = np.triu_indices(P.size, 1)
    keep = (P[pq] != P[rs]) & (Q[pq] != Q[rs])
    pq, rs = pq[keep], rs[keep]
    k2, f2 = _ladder_branches(np.stack([P[pq], P[rs], Q[rs], Q[pq]], 1),
                              (True, True, False, False), m)
    h_at = (P >> 1) * n + (Q >> 1)
    eri_at = (((P[pq] >> 1) * n + (Q[pq] >> 1)) * n + (P[rs] >> 1)) * n + (Q[rs] >> 1)
    at = np.concatenate([np.repeat(h_at, 4), n * n + np.repeat(eri_at, 16), [n * n + n ** 4]])
    keys, inverse = np.unique(np.concatenate([k1, k2, [0]]), return_inverse=True)
    x, z = keys >> m, keys & ((1 << m) - 1)
    ny = np.bitwise_count(x & z).astype(np.int64)  # uint8: cast before the arithmetic
    order = np.lexsort(_symbol_codes(x, z, m).T[::-1])
    table = (at, np.concatenate([f1, f2, [1.0]]),
             (inverse, x, z, 1 - (ny & 2), (ny & 1) == 1, order))
    for a in (*table[:2], *table[2]):
        a.flags.writeable = False
    return table


def jordan_wigner(eh) -> PauliHamiltonian:
    """Jordan-Wigner map of an EmbeddedHamiltonian; spin orbital P is spatial P >> 1.

    Bit for bit the merged-pair loop: same-spin h_PQ a+_P a_Q, then
    (PQ|RS) a+_P a+_R a_S a_Q once for each unordered pair of same-spin
    pairs PQ < RS with P != R and Q != S.  The ordered pair RS, PQ is the
    same operator, and P = R or Q = S gives zero, so for an eri with
    (PQ|RS) = (RS|PQ), which the embeddings give to round-off, this is the
    1/2 sum over all ordered quartets (1,025 quartets instead of 2,500 at 10
    qubits, 7,232 instead of 16,384 at 16).  Everything but the weights
    comes from _jw_table(m); each branch is w * +-2^-k, exact unless it is
    subnormal, and np.bincount adds each (x, z) key's branches in the loop's
    order from 0.0, e_core last.  A zero weight, which the loop skips, adds
    +-0.0 and changes no sum.  A key is (-i)^nY times its string: odd-nY
    (imaginary) sums must be at most 1e-10 (ValueError naming one otherwise),
    and they and real ones of |coefficient| <= 1e-12 are dropped.  m <= 31.
    """
    h, eri, m = eh.h_eff, eh.eri_active, 2 * len(eh.h_eff)
    if m > 31:
        raise ValueError("jordan_wigner packs (x, z) masks into int64: at most 31 qubits")
    at, factors, (inverse, x, z, sign, odd, order) = _jw_table(m)
    weights = np.concatenate([np.ravel(h), np.ravel(eri), [eh.e_core]])
    sums = np.bincount(inverse, weights[at] * factors, x.size)
    # The string's coefficient is sums * sign for even nY, and sums times -i,
    # imaginary, for odd nY, which only a non-symmetric h_eff or eri gives.
    signed = sums * sign
    if np.any(bad := odd & (np.abs(sums) > 1e-10)):
        coeff, string = PauliHamiltonian(x, z, signed, m).terms[np.argmax(bad)]
        raise ValueError(f"non-Hermitian coefficient {-coeff}j for {string}")
    rows = order[(~odd & (np.abs(sums) > 1e-12))[order]]
    return PauliHamiltonian(x[rows], z[rows], signed[rows], m)


# ---------------------------------------------------------------------------
# Gates and sequences
# ---------------------------------------------------------------------------

@dataclass
class GateSequence:
    """Ordered list of gates (theta, (x, z)), P the Pauli of masks (x, z) as in a
    PauliHamiltonian row: the rotation exp(-i theta P / 2), or P if theta is None."""

    gates: list
    n_qubits: int
    global_phase: float = 0.0  # run_sequence multiplies by exp(-i * global_phase)

    def __add__(self, other: "GateSequence") -> "GateSequence":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        return GateSequence(
            gates=self.gates + other.gates,
            n_qubits=self.n_qubits,
            global_phase=self.global_phase + other.global_phase,
        )


def basis_state(index: int, n_qubits: int) -> np.ndarray:
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def prepare_initial(kind: str, n_qubits: int, n_electrons: int):
    """Initial-state circuits: HF ground, HOMO-LUMO pair excitation, half filling.

    Returns (GateSequence, Statevector): X gates (1 << q, 0) on the occupied
    spin orbitals q, or Y rotations (1 << q, 1 << q) by pi/2 on every qubit for
    half filling, and that circuit run on |0...0>.  Occupied spin orbitals
    follow the interleaved convention with orbitals in ascending energy order.
    """
    if n_electrons % 2 != 0:
        raise ValueError("even electron count required")
    if n_electrons > n_qubits:
        raise ValueError("more electrons than spin orbitals")
    theta, y = None, False
    if kind == "hf_ground":
        qubits = range(n_electrons)
    elif kind == "homo_lumo_excited":
        if n_electrons < 2 or n_electrons >= n_qubits - 1:
            raise ValueError("pair excitation needs >=2 electrons and a virtual orbital")
        homo = n_electrons // 2 - 1
        lumo = homo + 1
        occ = [q for q in range(n_electrons) if q not in (2 * homo, 2 * homo + 1)]
        qubits = sorted(occ + [2 * lumo, 2 * lumo + 1])
    elif kind == "half_occupied":
        theta, y, qubits = math.pi / 2, True, range(n_qubits)
    else:
        raise ValueError(f"unknown initial state kind {kind!r}")
    gates = [(theta, (1 << q, y << q)) for q in qubits]
    gs = GateSequence(gates=gates, n_qubits=n_qubits)
    return gs, run_sequence(gs, basis_state(0, n_qubits))


def _apply_gate(psi, gate):
    """Apply gate (theta, (x, z)) to a state or to every row of a (..., 2^n) batch:
    cos(theta/2) psi - i sin(theta/2) P psi, or P psi when theta is None."""
    theta, (x, z) = gate
    perm, pv = _pauli_action(x, z, psi.shape[-1].bit_length() - 1)
    p_psi = (pv * psi).take(perm, axis=-1)
    if theta is None:
        return p_psi
    return math.cos(theta / 2) * psi - 1j * math.sin(theta / 2) * p_psi


def run_sequence(gs: GateSequence, psi0: np.ndarray) -> np.ndarray:
    """Apply gates in order to a state (or to each row of a batch); includes
    the tracked global phase."""
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape[-1] != 1 << gs.n_qubits:
        raise ValueError("state dimension does not match sequence qubit count")
    for gate in gs.gates:
        psi = _apply_gate(psi, gate)
    if gs.global_phase:
        psi = psi * np.exp(-1j * gs.global_phase)
    return psi


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

def _compile_groups(ph: PauliHamiltonian):
    """(xs, zs, cs, bounds): the terms of ph grouped by x mask.

    Group g has x mask xs[g] and the rows bounds[g]:bounds[g + 1] of zs, their
    z masks, and cs, their coefficients times i^nY = 1 - (nY & 2), so that a
    group acts as A_x|b> = f_x(b)|b ^ x> and its strings commute.  Groups
    keep the order in which their x masks first appear in ph.x, and each
    keeps its terms in row order.  Raises ValueError naming an odd-Y
    string, whose matrix is imaginary: jordan_wigner never gives one, so
    every term is a real symmetric matrix, H is too (to round-off) and no
    block needs a Hermiticity check.
    """
    ny = np.bitwise_count(ph.x & ph.z).astype(np.int64)  # uint8: cast before 1 - x
    if np.any(odd := (ny & 1) == 1):
        coeff, string = ph.terms[np.argmax(odd)]
        raise ValueError(f"evolution needs a real Hamiltonian matrix: term {coeff} {string}")
    xs, first, inverse = np.unique(ph.x, return_index=True, return_inverse=True)
    order = np.argsort(first)  # group g's x mask is xs[order[g]]
    rows = np.argsort(np.argsort(order)[inverse], kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(inverse)[order])])
    return xs[order], ph.z[rows], (ph.coeffs * (1 - (ny & 2)))[rows], bounds


def _sector_labels(n_qubits: int) -> np.ndarray:
    """N_alpha * (n + 1) + N_beta for every basis index (alpha on even qubits)."""
    b = np.arange(1 << n_qubits)
    even = sum(1 << q for q in range(0, n_qubits, 2))
    return (np.bitwise_count(b & even).astype(np.int64) * (n_qubits + 1)
            + np.bitwise_count(b & ~even))


# Sign-table values (terms x basis indices) that _group_values holds at once,
# 2 MB of float64.  The whole table of an H8 (4e,5o) block, 444 terms x 100
# indices, is one chunk; for H10 (8e,8o) at 16 qubits, 2,913 terms x 4,900
# indices would take 114 MB, and a chunk holds about 53 terms.
_GROUP_CHUNK = 1 << 18


def _group_values(groups, sector: np.ndarray, idx: np.ndarray):
    """(xs, F, SRC): the groups of _compile_groups on the d sorted basis indices
    idx, which hold whole sectors, as (G, d) tables, row g for x = xs[g].

    F[g, i] = f_x(idx[i]) = sum_k c_k (-1)^popcount(idx[i] & z_k) and SRC[g, i]
    is the position in idx of idx[i] ^ x, so A_x takes the amplitude at
    position i to position SRC[g, i] with weight F[g, i].  Where idx[i] ^ x
    leaves the sectors, SRC[g, i] = i and F[g, i] is set to 0; it raises
    ValueError if f_x there is above 1e-10 (H couples sectors).  Chunks of
    whole groups whose terms x d sign table holds at most _GROUP_CHUNK values
    (or one group) take their signs from one bitwise_count and their SRC
    rows from one gather in a 2^n table of positions in idx.  F stays one
    cs @ signs product per group, so every value is bit for bit that of a
    loop over the groups.  Memory: G x d x 16 B, 0.1 MB for H8 (4e,5o)
    (67 groups, d = 100) and 39 MB at 16 qubits (501 groups, d = 4,900).
    """
    xs, zs, cs, bounds = groups
    labels = sector[idx]
    pos = np.searchsorted(idx, np.arange(sector.size))  # pos[idx[i]] = i
    F, SRC = np.empty((xs.size, idx.size)), np.empty((xs.size, idx.size), np.int64)
    g = 0
    while g < xs.size:
        # Groups g to end - 1: as many whole groups as fit, at least one.
        end = max(g + 1, int(np.searchsorted(
            bounds, bounds[g] + _GROUP_CHUNK // max(idx.size, 1), "right")) - 1)
        lo = bounds[g]
        signs = 1.0 - 2.0 * (np.bitwise_count(zs[lo:bounds[end], None] & idx) & 1)
        f = np.stack([cs[a:b] @ signs[a - lo:b - lo]
                      for a, b in zip(bounds[g:end].tolist(), bounds[g + 1:end + 1].tolist())])
        dst = xs[g:end, None] ^ idx
        inside = sector[dst] == labels
        if np.any(np.abs(f[~inside]) > 1e-10):
            raise ValueError("Hamiltonian couples (N_alpha, N_beta) sectors")
        f[~inside] = 0.0
        F[g:end], SRC[g:end] = f, np.where(inside, pos[dst], np.arange(idx.size))
        g = end
    return xs, F, SRC


def _sector_start(psi0, sector: np.ndarray, times):
    """(idx, psi0[idx], times as floats), idx the sorted basis indices of the sectors
    where psi0 is nonzero; ValueError for a state that is not sector.size long,
    or naming the first time that is not finite."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != sector.shape:
        raise ValueError("state dimension does not match Hamiltonian qubit count")
    times = np.asarray(times, dtype=float)
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"time {bad[0]} is not finite")
    idx = np.flatnonzero(np.isin(sector, sector[psi0 != 0]))
    return idx, psi0[idx], times


def _check_steps(order: int, r: int) -> None:
    """ValueError unless the product formula is of order 1 or 2 with r >= 1."""
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 supported")
    if r < 1:
        raise ValueError("repetition count must be >= 1")


class ExactEvolver:
    """Exact evolution exp(-iHt) psi0 on the (N_alpha, N_beta) sector blocks of H.

    N_alpha counts the set bits on even qubits and N_beta those on odd ones;
    a Jordan-Wigner molecular Hamiltonian conserves both.  The terms' masks
    are grouped by x mask (_compile_groups), and sector_matrix builds a
    block from f_x on that sector's indices only (_group_values).  It raises
    ValueError if H has an odd-Y string (_compile_groups) or if a group maps
    an index out of the sector (H couples sectors).  Each evolve call builds
    and diagonalizes the block of every sector where the state has
    amplitude.  Memory: d^2 per sector block, 8 B per element, and while it
    is built the G x d group table, 16 B per value; no 2^n x 2^n matrix.
    """

    def __init__(self, ph: PauliHamiltonian):
        if ph.n_qubits > 16:
            raise ValueError("dense evolution capped at 16 qubits")
        self._groups = _compile_groups(ph)
        self._sector = _sector_labels(ph.n_qubits)

    def sector_matrix(self, index: int):
        """(indices, H): the sorted basis indices of the sector holding `index`, and
        the real block H[i, j] = <indices[i]|H|indices[j]>."""
        idx = np.flatnonzero(self._sector == self._sector[index])
        xs, F, SRC = _group_values(self._groups, self._sector, idx)
        H = np.zeros((idx.size, idx.size))
        # Off the diagonal, entry (i, j) gets one write, from the group of
        # x = idx[i] ^ idx[j].  The diagonal gets the zeros of every group that
        # leaves the sector, which the Z-only group's row (if any) replaces.
        H[SRC, np.arange(idx.size)] = F
        np.fill_diagonal(H, F[xs == 0].sum(axis=0))
        return idx, H

    def evolve(self, psi0: np.ndarray, t):
        """(idx, states): exp(-iHt) psi0 for a time t, (d,), or a 1-D grid of T
        times, (T, d), on the sorted basis indices idx of the sectors where psi0
        is nonzero, which alone are built and propagated; every state is zero
        off idx.  Row k of a batch equals evolve(psi0, times[k]) up to the
        summation order of one matrix product per sector (round-off, ~1e-16).
        A time that is not finite raises ValueError.
        """
        idx, psi0, times = _sector_start(psi0, self._sector, t)
        labels = self._sector[idx]
        out = np.zeros((times.size, idx.size), dtype=complex)
        for key in sorted(set(labels.tolist())):
            pos = np.flatnonzero(labels == key)
            _, H = self.sector_matrix(idx[pos[0]])
            w, V = np.linalg.eigh(H)
            c = V.T @ psi0[pos]
            out[:, pos] = (np.exp(-1j * np.outer(times, w)) * c) @ V.T
        return idx, out.reshape(times.shape + idx.shape)


def trotter_sequence(ph: PauliHamiltonian, t: float, order: int = 2,
                     r: int = 1) -> GateSequence:
    """Product-formula approximation to exp(-iHt) as Pauli rotation gates.

    r is the total number of repetitions over the whole of [0, t], not a
    count per unit time: order 1 takes r steps of t/r, order 2 takes r
    symmetric (Strang) steps built from half-steps of t/(2r). For a fixed
    step size on a time grid, scale r with t, or use trotter_evolve.  A step
    is one gate (2 c dt, (x, z)) per non-identity row, in row order.
    """
    _check_steps(order, r)
    body = (ph.x | ph.z) != 0
    phase = ph.identity_coefficient * t

    dt = t / (order * r)
    fwd = [(2.0 * c * dt, (x, z)) for c, x, z in
           zip(ph.coeffs[body].tolist(), ph.x[body].tolist(), ph.z[body].tolist())]
    cycle = fwd + fwd[::-1] if order == 2 else fwd
    return GateSequence(gates=cycle * r, n_qubits=ph.n_qubits, global_phase=phase)


# A grouped step on a block of m rows of d values costs about one numpy call
# plus d*m element updates, and one call costs about as much as
# _CALL_ELEMENTS updates.  An interval length used by n intervals either
# steps the state n times, n * (C + d) per group step, or steps the d x d
# identity once, C + d^2 per group step, and then costs one vector-matrix
# product per interval.  C = 500 is fitted to the crossovers of the two
# routes measured on homo_lumo_excited H chains at r = 2 (medians of six
# runs; x86-64, one BLAS thread): d = 36 at 4.3 intervals, d = 100 at 12.4,
# d = 225 at 51 and d = 400 at 186, where the rule switches at 3.4, 17.5,
# 70.5 and 178.
_CALL_ELEMENTS = 500


def _builds_propagator(d: int, uses: int) -> bool:
    """Whether an interval length that `uses` intervals share gets its own
    d x d propagator on a sector block of d basis states."""
    return uses * (_CALL_ELEMENTS + d) > _CALL_ELEMENTS + d * d


def _step_rows(B, steps, r: int):
    """Every row of B (a state, or a stack of them) after r passes of the
    grouped steps (src, c, s): row <- c * row + s * row[src], or c * row
    when src is None.  B is updated in place."""
    for _ in range(r):
        for src, c, s in steps:
            if src is None:
                B *= c
            else:
                moved = B.take(src, axis=-1)
                moved *= s
                B *= c
                B += moved
    return B


def trotter_evolve(ph: PauliHamiltonian, psi0: np.ndarray, times, order: int = 2,
                   r: int = 1):
    """Stroboscopic product-formula states (idx, states), as ExactEvolver.evolve
    gives them: row k of the (T, d) states is psi(times[k]) on the indices idx.

    psi goes from 0 to times[0], then from each grid time to the next, by r
    steps of that interval's own length: Lie steps (order 1) or symmetric
    Strang steps (order 2), so the step does not grow with t.  A step
    applies exp(-i theta A_x) one x-mask group at a time, in the order the
    groups first appear in ph.x (then back again, for order 2).  The
    strings of a group commute, so this is trotter_sequence with the strings
    reordered by group and the identity folded into the Z-only group.  With
    f = f_x(b) real, a group step is cos(theta f) psi - i sin(theta f)
    psi[b ^ x], and the Z-only group is one phase multiply.  Only the basis
    indices idx of the (N_alpha, N_beta) sectors where psi0 is nonzero are
    stepped, all of them together: d of them.

    Each distinct interval length takes one of two routes, chosen by
    _builds_propagator from d and the number n of intervals of that length:
    the state takes the r steps on every interval, or, when
    n * (C + d) > C + d^2 with C = 500 (from 4 intervals at d = 36, 18 at
    d = 100 and 179 at d = 400), the same steps are applied once to the rows
    of the d x d identity, giving the interval's propagator, and each
    interval is then one vector-matrix product.  A length used once is
    always stepped.  The two routes differ by round-off.  Raises ValueError
    for a time that is not finite, a Hamiltonian that is not real
    (_compile_groups) or one that couples sectors.  Memory: 16 B per value
    of the G x d group table (0.1 MB for H8 (4e,5o), 39 MB at 16 qubits) and
    of the T x d states (2.3 MB for 29 times at d = 4,900), and d^2 values
    per distinct length that builds a propagator (21 KB at d = 36), fewer
    than T * (C + d) in all, since each serves over (C + d^2) / (C + d).
    """
    _check_steps(order, r)
    sector = _sector_labels(ph.n_qubits)
    idx, psi, times = _sector_start(psi0, sector, times)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid")
    xs, F, SRC = _group_values(_compile_groups(ph), sector, idx)

    def step(h):
        theta = h / (order * r)
        fwd = [(src, np.cos(theta * f), -1j * np.sin(theta * f)) if x else
               (None, np.exp(-1j * theta * f), None) for x, f, src in zip(xs.tolist(), F, SRC)]
        return fwd + fwd[::-1] if order == 2 else fwd

    lengths = np.diff(times, prepend=0.0).tolist()
    uses = collections.Counter(lengths)
    steps, props = {}, {}
    out = np.zeros((times.size, idx.size), dtype=complex)
    for k, h in enumerate(lengths):
        if h:
            if h not in steps:
                steps[h] = step(h)
                if _builds_propagator(idx.size, uses[h]):
                    # Row j becomes U e_j, so psi @ props[h] is U psi.
                    props[h] = _step_rows(np.eye(idx.size, dtype=complex), steps[h], r)
            psi = psi @ props[h] if h in props else _step_rows(psi, steps[h], r)
        out[k] = psi
    return idx, out


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def _lowering_table(idx: np.ndarray, n_qubits: int):
    """(dst, src, sign, width): (a_P psi)[j] = sign * psi[src] for every mode P at once.

    For amplitudes psi on the sorted basis indices idx and mode P, src are the
    positions of the indices with P occupied.  Each of them with P cleared is
    at position j of the sorted union of idx and all such images, width long,
    and dst holds P * width + j, its place in the (n_qubits, width) array of
    the a_P psi.  sign is the int64 Jordan-Wigner parity of the modes below P.
    """
    bits = np.int64(1) << np.arange(n_qubits)
    src, mode = np.nonzero(idx[:, None] & bits)
    lowered = idx[src] ^ bits[mode]
    # A plain np.unique would import numpy.ma (10-16 ms); return_inverse does not.
    union, pos = np.unique(np.concatenate([idx, lowered]), return_inverse=True)
    sign = 1 - 2 * (np.bitwise_count(lowered & (bits[mode] - 1)) & 1).astype(np.int64)
    return mode * union.size + pos[idx.size:], src, sign, union.size


# Values of a_P psi held at once, 256 KB: a fresh array much larger than this
# costs more in first-touch page faults than it saves in calls (a (29, 2^8)
# batch took 1.2 ms in one chunk and 0.47 ms in chunks of 8 rows).
_RDM1_CHUNK = 1 << 14


def rdm1(psi: np.ndarray, idx, n_qubits: int) -> np.ndarray:
    """Spin-summed spatial one-body density matrix rho_rs = sum <a+_s a_r>.

    psi is one state (d,) or a batch (..., d) of amplitudes on the sorted basis
    indices idx of n_qubits = 2n qubits, zero elsewhere, as the evolvers give
    them (a statevector has idx = np.arange(2^2n)); the result is (n, n) or
    (..., n, n).  One gather builds every a_P psi of a chunk of rows, and one
    batched inner product per spin gives its block.  np.vecdot takes each
    element as the BLAS dot product np.vdot takes, so each row's matrix equals
    that of the row alone, bit for bit.  Chunks hold at most _RDM1_CHUNK
    values of a_P psi, or one row of n_qubits x width (3.3 MB for the 4,900
    indices of the (4,4) sector at 16 qubits, width 12,740).
    """
    psi, idx = np.asarray(psi), np.asarray(idx)
    if psi.shape[-1:] != idx.shape:
        raise ValueError(f"amplitudes of shape {psi.shape} do not match {idx.size} basis indices")
    if n_qubits % 2 != 0:
        raise ValueError("odd qubit count; interleaved spin convention violated")
    dst, src, sign, width = _lowering_table(idx, n_qubits)
    rows = psi.reshape(-1, idx.size)
    rho = np.zeros((len(rows), n_qubits // 2, n_qubits // 2), dtype=complex)
    chunk = max(1, _RDM1_CHUNK // (n_qubits * width))
    for lo in range(0, len(rows), chunk):
        block = rows[lo:lo + chunk]
        lowered = np.zeros((len(block), n_qubits, width), dtype=complex)
        # The reshape of a fresh array is a view: the scatter fills lowered.
        lowered.reshape(len(block), -1)[:, dst] = sign * block[:, src]
        for sp in range(2):
            a = lowered[:, sp::2]
            rho[lo:lo + chunk] += np.vecdot(a[:, None], a[:, :, None])
    if np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) > 1e-10:
        raise ValueError("one-body density matrix not Hermitian")
    return rho.reshape(psi.shape[:-1] + rho.shape[1:])


# Entries near 1e308 overflow the products to inf or nan without a warning;
# a non-finite value is rejected below.
@np.errstate(over="ignore", invalid="ignore")
def expval_O(O: np.ndarray, rdm: np.ndarray):
    """General one-body expectation <O> = sum O_rs <a+_s a_r>: a float for one (n, n) rdm,
    or a (...) array for a (..., n, n) batch, each value bit for bit its matrix's own."""
    O, rdm = np.asarray(O), np.asarray(rdm)
    if O.ndim != 2 or O.shape != rdm.shape[-2:]:
        raise ValueError("operator/density dimension mismatch")
    if np.max(np.abs(O - O.conj().T)) > 1e-10:
        raise ValueError("observable must be Hermitian")
    val = np.sum(O * rdm, axis=(-2, -1))
    if not np.all(np.isfinite(val)):
        raise ValueError("observable value overflows a float")
    residue = np.max(np.abs(val.imag), initial=0.0)
    if not residue < 1e-10:
        raise ValueError(f"imaginary residue {residue:.2e}")
    return float(val.real) if rdm.ndim == 2 else val.real


# ---------------------------------------------------------------------------
# Noise and mitigation
# ---------------------------------------------------------------------------

@dataclass
class NoiseSpec:
    """Depolarizing probability per gate and ZNE folding scale 2k + 1, G -> G (G+ G)^k."""

    p: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError("depolarizing probability must be in [0, 1)")
        if not 1.0 <= self.scale < math.inf:
            raise ValueError("noise scale must be finite and >= 1")
        if self.scale % 2 != 1:
            raise ValueError("noise scale must be an odd integer")
        if self.p * self.scale >= 1.0:
            raise ValueError("p * scale must stay below 1")


def _draw_errors(rng, supports: np.ndarray, n_trajectories: int, p: float):
    """(K, G) int64 masks (ex, ez) of the Pauli drawn after each of G gates of
    support masks `supports` in K trajectories, (0, 0) where none was: the hits
    are u < p in one rng.random((K, G)), and one rng.integers(1, 4^k) over them,
    row-major, gives each a code whose digit j, code >> 2j & 3, is the I, X, Y or
    Z on the j-th lowest qubit of its gate's k-qubit support."""
    rows, gates = np.nonzero(rng.random((n_trajectories, len(supports))) < p)
    left = supports[gates]
    codes = rng.integers(1, 4 ** np.bitwise_count(left).astype(np.int64))
    ex, ez = np.zeros((2, n_trajectories, len(supports)), dtype=np.int64)
    while np.any(left):
        low = left & -left  # each hit's next support qubit, 0 past its support
        ex[rows, gates] |= low * ((codes & 3) % 3 > 0)  # digit 1 or 2: X or Y
        ez[rows, gates] |= low * (codes >> 1 & 1)  # digit 2 or 3: Y or Z
        left, codes = left ^ low, codes >> 2
    return ex, ez


def noisy_expectation(gs: GateSequence, O: np.ndarray, ns: NoiseSpec,
                      n_trajectories: int = 100, seed: int = 0):
    """Stochastic Pauli-trajectory estimate (mean, standard error) of the one-body
    <O> of expval_O, O n x n, after a circuit on 2n qubits.

    At scale 2k + 1 each gate G runs as the copies G (G+ G)^k, each followed,
    with probability p, by a random non-identity Pauli on its support
    (_draw_errors).  The K trajectories run as a (K, 2^n) batch and keep their
    drawn Paulis as frames i^e X^fx Z^fz.  A rotation by theta about Q passes
    a frame as one by -theta where popcount((fx & qz) ^ (fz & qx)) is odd, so
    the copies of a rotation merge into one by theta times the row's signed
    turn count: each gate updates the batch once, at any scale, and one
    take_along_axis applies the frames at the end.  At scale 1 the result is
    bit for bit that of applying each Pauli after its gate, and folded that of
    physical copies up to round-off.  Memory: K x 2^n complex128 per batch
    array, and a few K x G int64 arrays for G = scale x len(gs.gates).
    """
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")
    n, s, K = gs.n_qubits, int(ns.scale), n_trajectories
    # Folded gate f is copy f % s of gate f // s: G on even copies, G+ on odd ones.
    qx, qz, bare = np.array([(*xz, theta is None) for theta, xz in gs.gates],
                            dtype=np.int64).reshape(-1, 3).repeat(s, 0).T
    ex, ez = _draw_errors(np.random.default_rng(seed), qx | qz, K, ns.p)
    # The frame before each folded gate: the errors drawn after the gates before it.
    fx, fz = (np.bitwise_xor.accumulate(a, axis=1) ^ a for a in (ex, ez))
    flip = np.bitwise_count((fx & qz) ^ (fz & qx)) & 1
    turns = (1 - 2 * (flip ^ np.arange(qx.size) % s % 2)).reshape(K, -1, s).sum(2)
    # A drawn E = i^popcount(ex & ez) X^ex Z^ez adds that popcount and
    # 2 popcount(ez & fx) to e; a bare Pauli that anticommutes with the frame adds 2.
    e = (np.bitwise_count(ex & ez) + 2 * (np.bitwise_count(ez & fx) + flip * bare)).sum(1)

    psi = np.repeat(basis_state(0, n)[None, :], K, axis=0)
    # No global phase: it cannot change a measured value.
    for (theta, xz), t in zip(gs.gates, turns.T):
        if theta is not None:  # row k turns by t[k] theta; cos and sin as in _apply_gate
            c, isin = np.array([(math.cos(m * theta / 2), 1j * math.sin(m * theta / 2))
                                for m in range(-s, s + 1, 2)]).T[:, (t + s) // 2, None]
        p_psi = _apply_gate(psi, (None, xz))
        psi = p_psi if theta is None else c * psi - isin * p_psi
    fx, fz = (np.bitwise_xor.reduce(a, axis=1)[:, None] for a in (ex, ez))
    b = np.arange(1 << n)
    units = np.array([1, 1j, -1, -1j])[(e[:, None] + 2 * np.bitwise_count(b & fz)) % 4]
    psi = np.take_along_axis(units * psi, b ^ fx, axis=1)

    vals = expval_O(O, rdm1(psi, b, n))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(K)) if K > 1 else 0.0


def zne_extrapolate(points: dict, fit_order: int = 1) -> float:
    """Polynomial zero-noise extrapolation of {scale: value} to scale 0."""
    lam = np.array(sorted(points))
    if len(set(lam.tolist())) < fit_order + 1:
        raise ValueError(f"need at least {fit_order + 1} distinct noise scales")
    vals = np.array([points[v] for v in lam])
    coeffs = np.polyfit(lam, vals, fit_order)
    return float(np.polyval(coeffs, 0.0))
