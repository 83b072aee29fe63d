"""Fermion-to-qubit mapping, statevector evolution, noise and mitigation.

Conventions frozen here:

* qubit 0 is the least significant bit of a basis-state index;
* spatial orbital p maps to qubits 2p (spin-alpha) and 2p+1 (spin-beta);
* Pauli strings are written with the qubit-0 symbol first;
* a gate (theta, P) applies cos(theta/2) I - i sin(theta/2) P, and
  (None, P) applies the Pauli string P itself.

Pauli algebra is done in the symplectic (x_mask, z_mask) representation,
with Y = i X Z, so products are bitwise operations.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

_SYMBOLS = "IXYZ"
_DROP_TOL = 1e-12  # |coefficient| at or below which from_dict drops a term


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

def _masks_from_string(s: str):
    """(x_mask, z_mask, n_y) for a Pauli string, qubit 0 first."""
    x = z = ny = 0
    for q, ch in enumerate(s):
        if ch == "X":
            x |= 1 << q
        elif ch == "Z":
            z |= 1 << q
        elif ch == "Y":
            x |= 1 << q
            z |= 1 << q
            ny += 1
        elif ch != "I":
            raise ValueError(f"bad Pauli symbol {ch!r}")
    return x, z, ny


def _parity_vector(mask: int, n_qubits: int) -> np.ndarray:
    """(-1)^popcount(b & mask) for every basis index b, as int64."""
    b = np.arange(1 << n_qubits)
    # bitwise_count returns uint8: cast before 1 - 2x, which would wrap.
    return 1 - 2 * (np.bitwise_count(b & mask) & 1).astype(np.int64)


@functools.lru_cache(maxsize=1024)
def _pauli_action(string: str):
    """(perm, pv) with P|b> = pv[b] |b ^ x>, so (P psi)[j] = (pv * psi)[perm[j]].

    Built once per string and kept for the 1,024 strings used last: every
    string on up to 5 qubits, at most 24 MB at 10 qubits.  The arrays are
    read-only because every caller shares them.
    """
    n = len(string)
    x, z, ny = _masks_from_string(string)
    action = np.arange(1 << n) ^ x, 1j ** ny * _parity_vector(z, n)
    for a in action:
        a.flags.writeable = False
    return action


@dataclass
class PauliHamiltonian:
    """Hermitian sum of weighted Pauli strings in canonical order."""

    terms: list  # [(coeff: float, string: str)]
    n_qubits: int

    @staticmethod
    def from_dict(table: dict, n_qubits: int) -> "PauliHamiltonian":
        terms = []
        for s, c in table.items():
            if abs(c.imag) > 1e-10:
                raise ValueError(f"non-Hermitian coefficient {c} for {s}")
            if abs(c.real) > _DROP_TOL:
                terms.append((float(c.real), s))
        terms.sort(key=lambda t: t[1])
        return PauliHamiltonian(terms=terms, n_qubits=n_qubits)

    @property
    def identity_coefficient(self) -> float:
        ident = "I" * self.n_qubits
        return sum(c for c, s in self.terms if s == ident)


def _ladder_branches(modes: np.ndarray, daggers, weights: np.ndarray, m: int):
    """Flat (keys, coeffs) of the 2^k branches of each row, key = x << m | z.

    Row i is weights[i] times ladder operators on modes[i], creators where
    daggers[f]; a_P = X_P Z^low / 2 -+ X_P Z^(low|P) / 2.  Branch j takes
    term (j >> (k - 1 - f)) & 1 of factor f; each factor in turn applies its
    +-0.5, the sign (-1)^parity(z & x_f), then x ^= x_f, z ^= z_f, and zero
    weights are skipped, all as a scalar loop does."""
    keep = weights != 0.0
    modes, weights, k = modes[keep], weights[keep], len(daggers)
    bits = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    x, z = np.zeros((2, len(modes), 1 << k), dtype=np.int64)
    c = weights[:, None]
    for f, dagger in enumerate(daggers):
        p = modes[:, f, None]
        e = np.int64(1) << p
        sign = np.where((z >> p) & 1, -1.0, 1.0)
        c = c * np.where(bits[f], 0.5 if dagger else -0.5, 0.5) * sign
        x ^= e
        z ^= (e - 1) | (e * bits[f])
    return ((x << m) | z).ravel(), c.ravel()


def jordan_wigner(eh) -> PauliHamiltonian:
    """Jordan-Wigner map of an EmbeddedHamiltonian; spin orbital P is spatial P >> 1.

    Bit for bit the dict loop over same-spin h_PQ a+_P a_Q and 1/2 (PQ|RS)
    a+_P a+_R a_S a_Q terms: the tuples are int64 arrays in that loop's
    order, every branch is +-w / 2^k exactly, and np.bincount adds each
    (x, z) key's branches in that order from 0.0, e_core last.  Working set
    about (m^2/2)^2 x 16 x 64 B, 17 MB at m = 16 qubits; m <= 31.
    """
    h, eri, m = eh.h_eff, eh.eri_active, 2 * len(eh.h_eff)
    if m > 31:
        raise ValueError("jordan_wigner packs (x, z) masks into int64: at most 31 qubits")
    P, Q = np.array([(p, q) for p in range(m) for q in range(p % 2, m, 2)],
                    dtype=np.int64).reshape(-1, 2).T
    k1, c1 = _ladder_branches(np.stack([P, Q], 1), (True, False), h[P >> 1, Q >> 1], m)
    # (P, Q) outer and (R, S) inner, as the loop P, Q, R, S nests.
    pq, rs = np.divmod(np.arange(P.size ** 2), P.size)
    k2, c2 = _ladder_branches(np.stack([P[pq], P[rs], Q[rs], Q[pq]], 1),
                              (True, True, False, False),
                              0.5 * eri[P[pq] >> 1, Q[pq] >> 1, P[rs] >> 1, Q[rs] >> 1], m)
    keys, inverse = np.unique(np.concatenate([k1, k2, [0]]), return_inverse=True)
    sums = np.bincount(inverse, np.concatenate([c1, c2, [eh.e_core]]), keys.size)
    # from_dict drops the other keys, and they cannot fail its imaginary check.
    keep = np.abs(sums) > _DROP_TOL
    keys, sums = keys[keep], sums[keep]
    x, z = keys >> m, keys & ((1 << m) - 1)
    codes = (x[:, None] >> np.arange(m) & 1) + 2 * (z[:, None] >> np.arange(m) & 1)
    text = np.frombuffer(b"IXZY", dtype=np.uint8)[codes].tobytes().decode("ascii")
    # E(x, z) = (-i)^nY * PauliString
    phase = np.array([(-1j) ** ny for ny in range(m + 1)])[np.bitwise_count(x & z)]
    table = {text[i * m:(i + 1) * m]: c for i, c in enumerate((sums * phase).tolist())}
    return PauliHamiltonian.from_dict(table, n_qubits=m)


# ---------------------------------------------------------------------------
# Gates and sequences
# ---------------------------------------------------------------------------

@dataclass
class GateSequence:
    """Ordered list of gates (theta, P) on Pauli strings P: the rotation
    exp(-i theta P / 2), or P itself when theta is None."""

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

    Returns (GateSequence, Statevector): X gates on the occupied spin
    orbitals, or a Y rotation by pi/2 on every qubit for half filling, and
    that circuit run on |0...0>.  Occupied spin orbitals follow the
    interleaved convention with orbitals in ascending energy order.
    """
    if n_electrons % 2 != 0:
        raise ValueError("even electron count required")
    if n_electrons > n_qubits:
        raise ValueError("more electrons than spin orbitals")
    theta, symbol = None, "X"
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
        theta, symbol, qubits = math.pi / 2, "Y", range(n_qubits)
    else:
        raise ValueError(f"unknown initial state kind {kind!r}")
    gates = [(theta, "I" * q + symbol + "I" * (n_qubits - 1 - q)) for q in qubits]
    gs = GateSequence(gates=gates, n_qubits=n_qubits)
    return gs, run_sequence(gs, basis_state(0, n_qubits))


def _apply_gate(psi, gate):
    """Apply gate (theta, P) to a state or to every row of a (..., 2^n) batch:
    cos(theta/2) psi - i sin(theta/2) P psi, or P psi when theta is None."""
    theta, string = gate
    perm, pv = _pauli_action(string)
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
    """[(x, zs, cs)]: the Pauli strings grouped by x mask.

    Groups keep the order in which their x masks first appear in ph.terms;
    zs holds each string's z mask and cs its coefficient times i^nY, as
    floats, so that a group acts as A_x|b> = f_x(b)|b ^ x> and its strings
    commute.  Raises ValueError for an imaginary coefficient or an odd-Y
    string, which jordan_wigner never gives: without them every term is a
    real symmetric matrix, so H is too (to round-off) and no block needs a
    Hermiticity check.
    """
    groups: dict = {}
    for coeff, s in ph.terms:
        x, z, ny = _masks_from_string(s)
        if coeff.imag or ny % 2:
            raise ValueError(f"evolution needs a real Hamiltonian matrix: term {coeff} {s}")
        zs, cs = groups.setdefault(x, ([], []))
        zs.append(z)
        cs.append(coeff * 1j ** ny)
    # cs is the strided real view of the complex products: cs @ signs sums a
    # strided vector in another order than a contiguous copy (round-off), and
    # the features are pinned to this order.
    return [(x, np.array(zs), np.array(cs).real) for x, (zs, cs) in groups.items()]


def _sector_labels(n_qubits: int) -> np.ndarray:
    """N_alpha * (n + 1) + N_beta for every basis index (alpha on even qubits)."""
    b = np.arange(1 << n_qubits)
    even = sum(1 << q for q in range(0, n_qubits, 2))
    return (np.bitwise_count(b & even).astype(np.int64) * (n_qubits + 1)
            + np.bitwise_count(b & ~even))


def _group_values(groups, sector: np.ndarray, idx: np.ndarray):
    """Yield (x, f, src) for each group on the sorted basis indices idx.

    idx holds whole sectors; f[i] = f_x(idx[i]) = sum_k c_k (-1)^popcount(idx[i] & z_k)
    and src[i] is the position in idx of idx[i] ^ x, so A_x takes the
    amplitude at position i to position src[i] with weight f[i].  Where
    idx[i] ^ x leaves the sectors, src[i] = i and f[i] is set to 0; it raises
    ValueError if f_x there is above 1e-10 (H couples sectors).
    """
    labels = sector[idx]
    for x, zs, cs in groups:
        signs = 1.0 - 2.0 * (np.bitwise_count(zs[:, None] & idx) & 1)
        f = cs @ signs
        dst = idx ^ x
        inside = sector[dst] == labels
        if np.any(np.abs(f[~inside]) > 1e-10):
            raise ValueError("Hamiltonian couples (N_alpha, N_beta) sectors")
        src = np.arange(idx.size)
        src[inside] = np.searchsorted(idx, dst[inside])
        yield x, np.where(inside, f, 0.0), src


def _state_and_times(psi0, n_qubits: int, times):
    """(psi0 as complex, times as floats); ValueError for a state that is not
    2^n_qubits long, or naming the first time that is not finite."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (1 << n_qubits,):
        raise ValueError("state dimension does not match Hamiltonian qubit count")
    times = np.asarray(times, dtype=float)
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"time {bad[0]} is not finite")
    return psi0, times


def _check_steps(order: int, r: int) -> None:
    """ValueError unless the product formula is of order 1 or 2 with r >= 1."""
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 supported")
    if r < 1:
        raise ValueError("repetition count must be >= 1")


class ExactEvolver:
    """Exact evolution exp(-iHt) psi0 on the (N_alpha, N_beta) sector blocks of H.

    N_alpha counts the set bits on even qubits and N_beta those on odd ones;
    a Jordan-Wigner molecular Hamiltonian conserves both.  The Pauli strings
    are grouped by x mask (_compile_groups), and sector_matrix builds a
    block from f_x on that sector's indices only (_group_values).  It
    raises ValueError if H is not real (_compile_groups) or if a group maps
    an index out of the sector (H couples sectors).  Each evolve call builds and diagonalizes the block of every
    sector where the state has amplitude.  Memory: d^2 per sector block, 8 B
    per element, e.g. d = 100 for (4e,5o) at 10 qubits; no 2^n x 2^n matrix
    is formed.
    """

    def __init__(self, ph: PauliHamiltonian):
        if ph.n_qubits > 16:
            raise ValueError("dense evolution capped at 16 qubits")
        self.n_qubits = ph.n_qubits
        self._groups = _compile_groups(ph)
        self._sector = _sector_labels(ph.n_qubits)

    def sector_matrix(self, index: int):
        """(indices, H): the sorted basis indices of the sector holding `index`, and
        the real block H[i, j] = <indices[i]|H|indices[j]>."""
        idx = np.flatnonzero(self._sector == self._sector[index])
        H = np.zeros((idx.size, idx.size))
        cols = np.arange(idx.size)
        for _, f, src in _group_values(self._groups, self._sector, idx):
            H[src, cols] += f
        return idx, H

    def evolve(self, psi0: np.ndarray, t) -> np.ndarray:
        """exp(-iHt) psi0 for a time t, or a (T, 2^n) batch for a 1-D grid of T times.

        Only the sectors where psi0 is nonzero are built and propagated.  Row
        k of a batch equals evolve(psi0, times[k]) up to the summation order
        of one matrix product per sector (round-off, ~1e-16).  A time that
        is not finite raises ValueError.
        """
        psi0, times = _state_and_times(psi0, self.n_qubits, t)
        out = np.zeros((times.size, psi0.size), dtype=complex)
        for key in sorted(set(self._sector[psi0 != 0].tolist())):
            idx, H = self.sector_matrix(np.argmax(self._sector == key))
            w, V = np.linalg.eigh(H)
            c = V.T @ psi0[idx]
            out[:, idx] = (np.exp(-1j * np.outer(times, w)) * c) @ V.T
        return out.reshape(times.shape + psi0.shape)


def trotter_sequence(ph: PauliHamiltonian, t: float, order: int = 2,
                     r: int = 1) -> GateSequence:
    """Product-formula approximation to exp(-iHt) as Pauli rotation gates.

    r is the total number of repetitions over the whole of [0, t], not a
    count per unit time: order 1 takes r steps of t/r, order 2 takes r
    symmetric (Strang) steps built from half-steps of t/(2r). For a fixed
    step size on a time grid, scale r with t, or use trotter_evolve.
    """
    _check_steps(order, r)
    ident = "I" * ph.n_qubits
    body = [(c, s) for c, s in ph.terms if s != ident]
    phase = ph.identity_coefficient * t

    dt = t / (order * r)
    fwd = [(2.0 * c * dt, s) for c, s in body]
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
                   r: int = 1) -> np.ndarray:
    """Stroboscopic product-formula states: row k of the (T, 2^n) result is psi(times[k]).

    psi goes from 0 to times[0], then from each grid time to the next, by r
    steps of that interval's own length: Lie steps (order 1) or symmetric
    Strang steps (order 2), so the step does not grow with t.  A step
    applies exp(-i theta A_x) one x-mask group at a time, in the order the
    groups first appear in ph.terms (then back again, for order 2).  The
    strings of a group commute, so this is trotter_sequence with the strings
    reordered by group and the identity folded into the Z-only group.  With
    f = f_x(b) real, a group step is cos(theta f) psi - i sin(theta f)
    psi[b ^ x], and the Z-only group is one phase multiply.  Only the basis
    indices of the (N_alpha, N_beta) sectors where psi0 is nonzero are
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
    (_compile_groups) or one that couples sectors.  Memory: the T x 2^n complex128 result, 16 B per
    value (119 KB for 29 times at 8 qubits), and d^2 complex values per
    distinct length that builds a propagator (21 KB at d = 36); each such
    length serves more than (C + d^2) / (C + d) intervals, so all of them
    together hold fewer than T * (C + d) values.
    """
    _check_steps(order, r)
    psi0, times = _state_and_times(psi0, ph.n_qubits, times)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid")
    groups = _compile_groups(ph)
    sector = _sector_labels(ph.n_qubits)
    idx = np.flatnonzero(np.isin(sector, sector[psi0 != 0]))
    acts = list(_group_values(groups, sector, idx))

    def step(h):
        theta = h / (order * r)
        fwd = [(None, np.exp(-1j * theta * f), None) if x == 0 else
               (src, np.cos(theta * f), -1j * np.sin(theta * f)) for x, f, src in acts]
        return fwd + fwd[::-1] if order == 2 else fwd

    lengths = np.diff(times, prepend=0.0).tolist()
    uses = collections.Counter(lengths)
    steps, props = {}, {}
    out = np.zeros((times.size, psi0.size), dtype=complex)
    psi = psi0[idx]
    for k, h in enumerate(lengths):
        if h:
            if h not in steps:
                steps[h] = step(h)
                if _builds_propagator(idx.size, uses[h]):
                    # Row j becomes U e_j, so psi @ props[h] is U psi.
                    props[h] = _step_rows(np.eye(idx.size, dtype=complex), steps[h], r)
            psi = psi @ props[h] if h in props else _step_rows(psi, steps[h], r)
        out[k, idx] = psi
    return out


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _lowering_table(n_qubits: int):
    """(dst, src, sign) with (a_P psi)[d] = sign * psi[src] for every mode P at once.

    For mode P, src are the indices with mode P occupied, d = src with it
    cleared, stored in dst as the flat position P * 2^n + d in the
    (n_qubits, 2^n) array of the states a_P psi, and sign is the
    Jordan-Wigner parity of the modes below P, as int64.  Built once per qubit count; the arrays are
    read-only because every caller shares them.
    """
    dim = 1 << n_qubits
    b = np.arange(dim)
    parts = []
    for mode in range(n_qubits):
        bit = 1 << mode
        src = b[(b & bit) != 0]
        parts.append((mode * dim + (src ^ bit), src, _parity_vector(bit - 1, n_qubits)[src]))
    table = tuple(np.concatenate(a) for a in zip(*parts))
    for a in table:
        a.flags.writeable = False
    return table


# Values of a_P psi held at once, 256 KB: a fresh array much larger than this
# costs more in first-touch page faults than it saves in calls (a (29, 2^8)
# batch took 1.2 ms in one chunk and 0.47 ms in chunks of 8 rows).
_RDM1_CHUNK = 1 << 14


def rdm1(psi: np.ndarray) -> np.ndarray:
    """Spin-summed spatial one-body density matrix rho_rs = sum <a+_s a_r>.

    psi is one state (2^n,) or a batch (..., 2^n), giving (n, n) or (..., n, n).
    One gather builds every a_P psi of a chunk of rows, and one batched
    inner product per spin gives that spin's block.  np.vecdot takes each
    element as the BLAS dot product np.vdot takes, so each row's matrix
    equals that of the row alone, bit for bit.  Chunks hold at most
    _RDM1_CHUNK values of a_P psi, or one row (16 MB at 16 qubits).
    """
    psi = np.asarray(psi)
    dim = psi.shape[-1]
    m = int(round(math.log2(dim)))
    if m % 2 != 0:
        raise ValueError("odd qubit count; interleaved spin convention violated")
    n = m // 2
    dst, src, sign = _lowering_table(m)
    rows = psi.reshape(-1, dim)
    rho = np.zeros((len(rows), n, n), dtype=complex)
    chunk = max(1, _RDM1_CHUNK // (m * dim))
    for lo in range(0, len(rows), chunk):
        block = rows[lo:lo + chunk]
        lowered = np.zeros((len(block), m * dim), dtype=complex)
        lowered[:, dst] = sign * block[:, src]
        lowered = lowered.reshape(-1, m, dim)
        for sp in range(2):
            a = lowered[:, sp::2]
            rho[lo:lo + chunk] += np.vecdot(a[:, None], a[:, :, None])
    if np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) > 1e-10:
        raise ValueError("one-body density matrix not Hermitian")
    return rho.reshape(psi.shape[:-1] + (n, n))


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
    """Depolarizing probability per gate and ZNE folding scale."""

    p: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError("depolarizing probability must be in [0, 1)")
        if not 1.0 <= self.scale < math.inf:
            raise ValueError("noise scale must be finite and >= 1")
        if self.p * self.scale >= 1.0:
            raise ValueError("p * scale must stay below 1")


def _inverse_gate(gate):
    theta, string = gate
    return gate if theta is None else (-theta, string)


def fold_sequence(gs: GateSequence, scale: float) -> GateSequence:
    """Gate folding G -> G (G+ G)^k with k = (scale - 1) / 2."""
    k = int(round((scale - 1) / 2))
    if abs(scale - (2 * k + 1)) > 1e-9 or k < 0:
        raise ValueError("folding scale must be an odd integer >= 1")
    gates = []
    for gate in gs.gates:
        gates.append(gate)
        for _ in range(k):
            gates.append(_inverse_gate(gate))
            gates.append(gate)
    return GateSequence(gates=gates, n_qubits=gs.n_qubits,
                        global_phase=gs.global_phase)


def _gate_support(gate):
    return [q for q, ch in enumerate(gate[1]) if ch != "I"]


def noisy_expectation(
    gs: GateSequence,
    O: np.ndarray,
    ns: NoiseSpec,
    n_trajectories: int = 100,
    seed: int = 0,
):
    """Stochastic Pauli-trajectory estimate of the one-body <O> after a circuit.

    The sequence is physically folded to the noise scale; each folded gate
    is followed, with probability p, by a uniformly random non-identity
    Pauli on its support.  O is the n x n one-body operator of expval_O, for
    a circuit on 2n qubits.  Returns (mean, standard error).

    Noise events do not depend on the state, so all are drawn first: one
    rng.random((K, G)) array for K trajectories and G folded gates (K x G x 8 B)
    marks the hits u < p, and one rng.integers(1, 4^k) call over the hits, in
    row-major (trajectory, gate) order, gives each its Pauli on the gate's
    k-qubit support.  The folded circuit then runs once on a (K, 2^n) batch,
    and after each gate every drawn Pauli string is applied to the rows that
    drew it.  One rdm1 and one batched expval_O call measure the batch, so
    mean and standard error equal a one-trajectory-at-a-time loop over the
    same draws bit for bit.

    Memory: the batch and each per-gate temporary hold K x 2^n complex128
    values, 16 B each: 25.6 KB for 100 trajectories at 4 qubits, 8.2 MB for
    500 at 10 qubits.
    """
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")
    folded = fold_sequence(gs, ns.scale)
    rng = np.random.default_rng(seed)
    n = gs.n_qubits
    # drawn[g] maps each Pauli string drawn after folded gate g to its rows.
    drawn = [{} for _ in folded.gates]
    supports = [_gate_support(gate) for gate in folded.gates]
    hit_rows, hit_gates = np.nonzero(rng.random((n_trajectories, len(supports))) < ns.p)
    codes = rng.integers(1, 4 ** np.array([len(sup) for sup in supports])[hit_gates])
    for k, g, code in zip(hit_rows.tolist(), hit_gates.tolist(), codes.tolist()):
        s = ["I"] * n
        for j, q in enumerate(supports[g]):
            s[q] = _SYMBOLS[code >> 2 * j & 3]
        drawn[g].setdefault("".join(s), []).append(k)

    psi = np.repeat(basis_state(0, n)[None, :], n_trajectories, axis=0)
    # No global phase: it cannot change a measured value.
    for gate, errors in zip(folded.gates, drawn):
        psi = _apply_gate(psi, gate)
        for s, rows in errors.items():
            psi[rows] = _apply_gate(psi[rows], (None, s))

    vals = expval_O(O, rdm1(psi))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_trajectories)) if n_trajectories > 1 else 0.0
    return mean, stderr


def zne_extrapolate(points: dict, fit_order: int = 1) -> float:
    """Polynomial zero-noise extrapolation of {scale: value} to scale 0."""
    lam = np.array(sorted(points))
    if len(set(lam.tolist())) < fit_order + 1:
        raise ValueError(f"need at least {fit_order + 1} distinct noise scales")
    vals = np.array([points[v] for v in lam])
    coeffs = np.polyfit(lam, vals, fit_order)
    return float(np.polyval(coeffs, 0.0))
