"""Fermion-to-qubit mapping, statevector evolution, noise and mitigation.

Conventions frozen here:

* qubit 0 is the least significant bit of a basis-state index;
* spatial orbital p maps to qubits 2p (spin-alpha) and 2p+1 (spin-beta);
* Pauli strings are written with the qubit-0 symbol first;
* a PauliRotation gate with angle theta applies cos(theta/2) I - i sin(theta/2) P.

Pauli algebra is done in the symplectic (x_mask, z_mask) representation,
with Y = i X Z, so products are bitwise operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qfp.embedding import EmbeddedHamiltonian
from qfp.fci import spin_orbital_integrals

__all__ = [
    "PauliHamiltonian",
    "GateSequence",
    "NoiseSpec",
    "ExactEvolver",
    "jordan_wigner",
    "prepare_initial",
    "evolve_exact",
    "trotter_sequence",
    "trotter_states",
    "run_sequence",
    "fold_sequence",
    "rdm1",
    "expval_F",
    "expval_O",
    "number_expectation",
    "sample_histogram",
    "noisy_expectation",
    "zne_extrapolate",
    "pauli_matrix",
    "apply_pauli",
    "sequence_to_text",
    "sequence_from_text",
]

_SYMBOLS = "IXYZ"


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


def _string_from_masks(x: int, z: int, n_qubits: int) -> str:
    out = []
    for q in range(n_qubits):
        bit = 1 << q
        xi, zi = bool(x & bit), bool(z & bit)
        out.append("I" if not (xi or zi) else "X" if xi and not zi else
                   "Z" if zi and not xi else "Y")
    return "".join(out)


def _parity_vector(mask: int, n_qubits: int) -> np.ndarray:
    """(-1)^popcount(b & mask) for every basis index b, as int64."""
    b = np.arange(1 << n_qubits)
    # bitwise_count returns uint8: cast before 1 - 2x, which would wrap.
    return 1 - 2 * (np.bitwise_count(b & mask) & 1).astype(np.int64)


def _pauli_action(string: str):
    """(perm, pv) with P|b> = pv[b] |b ^ x>, so (P psi)[j] = (pv * psi)[perm[j]]."""
    n = len(string)
    x, z, ny = _masks_from_string(string)
    return np.arange(1 << n) ^ x, 1j ** ny * _parity_vector(z, n)


def apply_pauli(string: str, psi: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to a statevector (or to each row of a batch)."""
    perm, pv = _pauli_action(string)
    return (pv * psi).take(perm, axis=-1)


def pauli_matrix(terms, n_qubits: int) -> np.ndarray:
    """Dense matrix of a weighted Pauli-string sum."""
    dim = 1 << n_qubits
    H = np.zeros((dim, dim), dtype=complex)
    b = np.arange(dim)
    for coeff, s in terms:
        x, z, ny = _masks_from_string(s)
        H[b ^ x, b] += coeff * (1j ** ny) * _parity_vector(z, n_qubits)
    return H


@dataclass
class PauliHamiltonian:
    """Hermitian sum of weighted Pauli strings in canonical order."""

    terms: list  # [(coeff: float, string: str)]
    n_qubits: int

    @staticmethod
    def from_dict(table: dict, n_qubits: int, drop_tol: float = 1e-12) -> "PauliHamiltonian":
        terms = []
        for s, c in table.items():
            if abs(c.imag) > 1e-10:
                raise ValueError(f"non-Hermitian coefficient {c} for {s}")
            if abs(c.real) > drop_tol:
                terms.append((float(c.real), s))
        terms.sort(key=lambda t: t[1])
        return PauliHamiltonian(terms=terms, n_qubits=n_qubits)

    @property
    def identity_coefficient(self) -> float:
        ident = "I" * self.n_qubits
        return sum(c for c, s in self.terms if s == ident)

    def to_matrix(self) -> np.ndarray:
        return pauli_matrix(self.terms, self.n_qubits)


def jordan_wigner(eh: EmbeddedHamiltonian) -> PauliHamiltonian:
    """Map an embedded Hamiltonian to qubits via the Jordan-Wigner transform."""
    h_so, eri_so = spin_orbital_integrals(eh.h_eff, eh.eri_active)
    m = h_so.shape[0]

    def ladder(p: int, dagger: bool):
        e = 1 << p
        low = e - 1
        s = -0.5 if not dagger else 0.5
        # a_p = X^e Z^low / 2 - X^e Z^(low|e) / 2; dagger flips the sign.
        return ((0.5, e, low), (s, e, low | e))

    acc: dict = {}

    def accumulate(factors, weight):
        # Expand a product of 2-term ladder operators over all branches.
        prods = [(weight, 0, 0)]
        for terms in factors:
            new = []
            for c1, x1, z1 in prods:
                for c2, x2, z2 in terms:
                    sign = -1.0 if (z1 & x2).bit_count() & 1 else 1.0
                    new.append((c1 * c2 * sign, x1 ^ x2, z1 ^ z2))
            prods = new
        for c, x, z in prods:
            acc[(x, z)] = acc.get((x, z), 0.0) + c

    for P in range(m):
        for Q in range(m):
            if h_so[P, Q] != 0.0:
                accumulate([ladder(P, True), ladder(Q, False)], h_so[P, Q])
    for P in range(m):
        for Q in range(P % 2, m, 2):
            for R in range(m):
                for S in range(R % 2, m, 2):
                    w = 0.5 * eri_so[P, Q, R, S]
                    if w != 0.0:
                        accumulate(
                            [ladder(P, True), ladder(R, True),
                             ladder(S, False), ladder(Q, False)],
                            w,
                        )

    acc[(0, 0)] = acc.get((0, 0), 0.0) + eh.e_core

    table = {}
    for (x, z), c in acc.items():
        ny = (x & z).bit_count()
        coeff = c * (-1j) ** ny  # E(x,z) = (-i)^nY * PauliString
        s = _string_from_masks(x, z, m)
        table[s] = table.get(s, 0.0) + coeff
    return PauliHamiltonian.from_dict(table, n_qubits=m)


# ---------------------------------------------------------------------------
# Gates and sequences
# ---------------------------------------------------------------------------

@dataclass
class GateSequence:
    """Ordered list of gates: ("X", q), ("RY", theta, q), ("PROT", theta, string)."""

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

    Returns (GateSequence, Statevector).  Occupied spin orbitals follow the
    interleaved convention with orbitals in ascending energy order.
    """
    if n_electrons % 2 != 0:
        raise ValueError("even electron count required")
    if n_electrons > n_qubits:
        raise ValueError("more electrons than spin orbitals")
    gates = []
    if kind == "hf_ground":
        occ = list(range(n_electrons))
    elif kind == "homo_lumo_excited":
        if n_electrons < 2 or n_electrons >= n_qubits - 1:
            raise ValueError("pair excitation needs >=2 electrons and a virtual orbital")
        homo = n_electrons // 2 - 1
        lumo = homo + 1
        occ = [q for q in range(n_electrons) if q not in (2 * homo, 2 * homo + 1)]
        occ += [2 * lumo, 2 * lumo + 1]
    elif kind == "half_occupied":
        theta = math.pi / 2
        gates = [("RY", theta, q) for q in range(n_qubits)]
        gs = GateSequence(gates=gates, n_qubits=n_qubits)
        return gs, run_sequence(gs, basis_state(0, n_qubits))
    else:
        raise ValueError(f"unknown initial state kind {kind!r}")
    gates = [("X", q) for q in sorted(occ)]
    gs = GateSequence(gates=gates, n_qubits=n_qubits)
    index = sum(1 << q for q in occ)
    return gs, basis_state(index, n_qubits)


def _apply_x(psi, q):
    b = np.arange(psi.shape[0])
    return psi[b ^ (1 << q)]


def _apply_ry(psi, theta, q):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    v = psi.reshape(-1, 2, 1 << q)
    out = np.empty_like(v)
    out[:, 0, :] = c * v[:, 0, :] - s * v[:, 1, :]
    out[:, 1, :] = s * v[:, 0, :] + c * v[:, 1, :]
    return out.reshape(psi.shape)


def _apply_prot(psi, theta, action):
    """cos(theta/2) psi - i sin(theta/2) P psi on states of shape (..., 2^n).

    theta is a scalar, or a sequence of one angle per row of a (T, 2^n) psi;
    action is _pauli_action(P).  A per-row angle gives each row the same bits
    as the scalar call on that row alone: the factors are the same Python
    floats, broadcast as complex128 so that no cast enters the product.
    """
    perm, pv = action
    if np.ndim(theta):
        c = np.array([math.cos(a / 2) for a in theta], dtype=complex)[..., None]
        js = np.array([1j * math.sin(a / 2) for a in theta])[..., None]
    else:
        c, js = math.cos(theta / 2), 1j * math.sin(theta / 2)
    return c * psi - js * (pv * psi).take(perm, axis=-1)


def _apply_gate(psi, gate):
    # PROT first: Trotter circuits are almost all PauliRotation gates.
    if gate[0] == "PROT":
        return _apply_prot(psi, gate[1], _pauli_action(gate[2]))
    if gate[0] == "X":
        return _apply_x(psi, gate[1])
    if gate[0] == "RY":
        return _apply_ry(psi, gate[1], gate[2])
    raise ValueError(f"unknown gate {gate[0]!r}")


def run_sequence(gs: GateSequence, psi0: np.ndarray) -> np.ndarray:
    """Apply gates in order; includes the tracked global phase."""
    if psi0.shape[0] != 1 << gs.n_qubits:
        raise ValueError("state dimension does not match sequence qubit count")
    psi = np.asarray(psi0, dtype=complex)
    for gate in gs.gates:
        psi = _apply_gate(psi, gate)
    if gs.global_phase:
        psi = psi * np.exp(-1j * gs.global_phase)
    return psi


def sequence_to_text(gs: GateSequence) -> str:
    lines = [f"# qubits {gs.n_qubits} phase {gs.global_phase:.17g}"]
    for gate in gs.gates:
        if gate[0] == "X":
            lines.append(f"X {gate[1]}")
        elif gate[0] == "RY":
            lines.append(f"RY {gate[1]:.17g} {gate[2]}")
        else:
            lines.append(f"PROT {gate[1]:.17g} {gate[2]}")
    return "\n".join(lines) + "\n"


def sequence_from_text(text: str) -> GateSequence:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    n_qubits, phase = int(head[2]), float(head[4])
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "X":
            gates.append(("X", int(parts[1])))
        elif parts[0] == "RY":
            gates.append(("RY", float(parts[1]), int(parts[2])))
        elif parts[0] == "PROT":
            gates.append(("PROT", float(parts[1]), parts[2]))
        else:
            raise ValueError(f"unknown gate line {ln!r}")
    return GateSequence(gates=gates, n_qubits=n_qubits, global_phase=phase)


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

class ExactEvolver:
    """Eigendecomposition-backed exact evolution, reusable across times."""

    def __init__(self, ph: PauliHamiltonian):
        if ph.n_qubits > 16:
            raise ValueError("dense evolution capped at 16 qubits")
        H = ph.to_matrix()
        if np.max(np.abs(H - H.conj().T)) > 1e-10:
            raise ValueError("Hamiltonian matrix is not Hermitian")
        self.n_qubits = ph.n_qubits
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(H)

    def evolve(self, psi0: np.ndarray, t: float) -> np.ndarray:
        V = self.eigenvectors
        return V @ (np.exp(-1j * self.eigenvalues * t) * (V.conj().T @ psi0))


def evolve_exact(ph: PauliHamiltonian, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) |psi0> via dense eigendecomposition."""
    return ExactEvolver(ph).evolve(psi0, t)


def trotter_sequence(ph: PauliHamiltonian, t: float, order: int = 2, r: int = 1) -> GateSequence:
    """Product-formula approximation to exp(-iHt) as PauliRotation gates.

    r is the total number of repetitions over the whole of [0, t], not a
    count per unit time: order 1 takes r steps of t/r, order 2 takes r
    symmetric (Strang) steps built from half-steps of t/(2r). For a fixed
    step size on a time grid, scale r with t.  trotter_states applies these
    sequences for a whole time grid at once, with the same meaning of r.
    """
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 supported")
    if r < 1:
        raise ValueError("repetition count must be >= 1")
    ident = "I" * ph.n_qubits
    body = [(c, s) for c, s in ph.terms if s != ident]
    phase = ph.identity_coefficient * t

    gates = []
    if order == 1:
        dt = t / r
        cycle = [("PROT", 2.0 * c * dt, s) for c, s in body]
        for _ in range(r):
            gates.extend(cycle)
    else:
        dt = t / (2 * r)
        fwd = [("PROT", 2.0 * c * dt, s) for c, s in body]
        cycle = fwd + fwd[::-1]
        for _ in range(r):
            gates.extend(cycle)
    return GateSequence(gates=gates, n_qubits=ph.n_qubits, global_phase=phase)


def trotter_states(ph: PauliHamiltonian, psi0: np.ndarray, times,
                   order: int = 2, r: int = 1) -> np.ndarray:
    """States trotter_sequence(ph, t, order, r) |psi0> for every t in times, shape (T, 2^n).

    The sequences of all nonzero times share their Pauli strings and their
    order; only the angles and the global phase scale with t.  So every
    nonzero time is evolved in one (T, 2^n) batch, one gate call per string
    occurrence, with each string's permutation and phase-parity vector built
    once.  Angles and phases come from trotter_sequence itself, and r keeps
    its meaning (r steps over the whole of [0, t]).  Row k equals
    run_sequence(trotter_sequence(ph, times[k], order, r), psi0) bit for bit;
    a row with t = 0 is a copy of psi0.

    Memory: the batch and each per-gate temporary hold T x 2^n complex128
    values, 16 B each: 119 KB for 29 times at 8 qubits, 30 MB at 16 qubits.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (1 << ph.n_qubits,):
        raise ValueError("state dimension does not match Hamiltonian qubit count")
    times = np.asarray(times, dtype=float)
    out = np.repeat(psi0[None, :], times.size, axis=0)
    live = np.flatnonzero(times != 0.0)
    if live.size == 0:
        return out
    seqs = [trotter_sequence(ph, t, order=order, r=r) for t in times[live]]
    psi = out[live]
    actions = {}
    for g, gate in enumerate(seqs[0].gates):
        if gate[2] not in actions:
            actions[gate[2]] = _pauli_action(gate[2])
        psi = _apply_prot(psi, [gs.gates[g][1] for gs in seqs], actions[gate[2]])
    for k, gs in enumerate(seqs):
        if gs.global_phase:
            psi[k] = psi[k] * np.exp(-1j * gs.global_phase)
    out[live] = psi
    return out


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def _apply_annihilation(psi: np.ndarray, mode: int) -> np.ndarray:
    """a_mode |psi> with the Jordan-Wigner parity sign."""
    n = int(round(math.log2(psi.shape[0])))
    bit = 1 << mode
    b = np.arange(psi.shape[0])
    occ = (b & bit) != 0
    sign = _parity_vector(bit - 1, n)
    out = np.zeros_like(psi, dtype=complex)
    src = b[occ]
    out[src ^ bit] = sign[src] * psi[src]
    return out


def rdm1(psi: np.ndarray) -> np.ndarray:
    """Spin-summed spatial one-body density matrix rho_rs = sum <a+_s a_r>."""
    dim = psi.shape[0]
    m = int(round(math.log2(dim)))
    if m % 2 != 0:
        raise ValueError("odd qubit count; interleaved spin convention violated")
    n = m // 2
    lowered = [_apply_annihilation(psi, P) for P in range(m)]
    rho = np.zeros((n, n), dtype=complex)
    for r in range(n):
        for s in range(n):
            for sp in range(2):
                rho[r, s] += np.vdot(lowered[2 * s + sp], lowered[2 * r + sp])
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("one-body density matrix not Hermitian")
    return rho


def expval_F(h_eff: np.ndarray, rdm: np.ndarray) -> float:
    """Energy-weighted density observable F = sum h_eff_rs rho_rs."""
    return expval_O(h_eff, rdm)


def expval_O(O: np.ndarray, rdm: np.ndarray) -> float:
    """General one-body expectation <O> = sum O_rs <a+_s a_r>."""
    O, rdm = np.asarray(O), np.asarray(rdm)
    if O.shape != rdm.shape:
        raise ValueError("operator/density dimension mismatch")
    if np.max(np.abs(O - O.conj().T)) > 1e-10:
        raise ValueError("observable must be Hermitian")
    val = complex(np.sum(O * rdm))
    if not abs(val.imag) < 1e-10:
        raise ValueError(f"imaginary residue {val.imag:.2e}")
    return float(val.real)


def number_expectation(psi: np.ndarray) -> float:
    n = int(round(math.log2(psi.shape[0])))
    b = np.arange(psi.shape[0])
    counts = np.zeros(psi.shape[0])
    for q in range(n):
        counts += (b >> q) & 1
    return float(np.sum(counts * np.abs(psi) ** 2))


def sample_histogram(psi: np.ndarray, shots: int, seed: int) -> dict:
    """Multinomial measurement histogram {bitstring: count}, qubit 0 rightmost."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = int(round(math.log2(psi.shape[0])))
    probs = np.abs(psi) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    return {
        format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0
    }


# ---------------------------------------------------------------------------
# Noise and mitigation
# ---------------------------------------------------------------------------

@dataclass
class NoiseSpec:
    """Depolarizing probability per gate and ZNE folding scale."""

    p: float
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError("depolarizing probability must be in [0, 1)")
        if self.scale < 1.0:
            raise ValueError("noise scale must be >= 1")
        if self.p * self.scale >= 1.0:
            raise ValueError("p * scale must stay below 1")


def _inverse_gate(gate):
    if gate[0] == "X":
        return gate
    if gate[0] == "RY":
        return ("RY", -gate[1], gate[2])
    return ("PROT", -gate[1], gate[2])


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
    if gate[0] in ("X",):
        return [gate[1]]
    if gate[0] == "RY":
        return [gate[2]]
    return [q for q, ch in enumerate(gate[2]) if ch != "I"]


def noisy_expectation(
    gs: GateSequence,
    observable,
    ns: NoiseSpec,
    n_trajectories: int = 100,
    seed: int | None = None,
):
    """Stochastic Pauli-trajectory estimate of an observable after a circuit.

    The sequence is physically folded to the noise scale; each folded gate
    is followed, with probability p, by a uniformly random non-identity
    Pauli on its support.  `observable` is a dense matrix or a callable
    psi -> float.  Returns (mean, standard error).
    """
    folded = fold_sequence(gs, ns.scale)
    rng = np.random.default_rng(ns.seed if seed is None else seed)
    n = gs.n_qubits
    psi0 = basis_state(0, n)

    def measure(psi):
        if callable(observable):
            return observable(psi)
        val = np.vdot(psi, observable @ psi)
        return float(val.real)

    vals = np.empty(n_trajectories)
    for k in range(n_trajectories):
        psi = psi0
        # No global phase: it cannot change a measured value.
        for gate in folded.gates:
            psi = _apply_gate(psi, gate)
            if ns.p > 0 and rng.random() < ns.p:
                support = _gate_support(gate)
                code = rng.integers(1, 4 ** len(support))
                s = ["I"] * n
                for q in support:
                    s[q] = _SYMBOLS[code % 4]
                    code //= 4
                if all(ch == "I" for ch in s):
                    s[support[0]] = "X"
                psi = apply_pauli("".join(s), psi)
        vals[k] = measure(psi)
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
