"""References the benchmark checks each run's outputs against.

The exact reference F(t) is computed in the determinant basis with
`fci.fock_space_hamiltonian`, an N-electron-sector `eigh` and
`fci.determinant_rdm1`; this route never touches `quantum_sim`.  The
embedded Hamiltonian it starts from comes from the program's own
`pipeline.build_molecule` and `pipeline.embed_molecule`, so the check covers
the mapping, propagation and measurement layers.  References are computed
once per benchmark invocation, outside the timed region.
"""

from __future__ import annotations

import numpy as np

from qfp import fci, fingerprint_ml, mean_field, pipeline
from qfp.chem_io import ManifestEntry
from qfp.pipeline import PipelineConfig


def _entries(manifest: dict):
    return [ManifestEntry(molecule_id=e["id"], source={"generator": e["generator"]},
                          target=e["target"], label=e["label"])
            for e in manifest["entries"]]


def _initial_determinant(kind: str, n_electrons: int) -> int:
    """Occupied spin orbitals: interleaved alpha/beta, ascending orbital energy."""
    occ = set(range(n_electrons))
    if kind == "homo_lumo_excited":
        homo = n_electrons // 2 - 1
        occ -= {2 * homo, 2 * homo + 1}
        occ |= {2 * homo + 2, 2 * homo + 3}
    elif kind != "hf_ground":
        raise ValueError(f"no determinant reference for initial state {kind!r}")
    return sum(1 << q for q in occ)


def exact_fingerprint(eh, initial_state: str, grid) -> np.ndarray:
    """F(t) = sum_rs h_eff_rs rho_rs(t) under exact dynamics, determinant basis."""
    n = eh.n_active_orbitals
    H = fci.fock_space_hamiltonian(eh.h_eff, eh.eri_active, eh.e_core)
    idx = fci.sector_indices(2 * n, eh.n_active_electrons)
    w, V = np.linalg.eigh(H[np.ix_(idx, idx)])
    c0 = V[np.searchsorted(idx, _initial_determinant(initial_state,
                                                      eh.n_active_electrons))]
    psi = np.zeros(H.shape[0], dtype=complex)
    out = np.empty(len(grid))
    for k, t in enumerate(grid):
        psi[idx] = V @ (np.exp(-1j * w * t) * c0)
        out[k] = float(np.real(np.sum(eh.h_eff * fci.determinant_rdm1(psi, n))))
    return out


def fragment_filling(m, emb: dict, eh) -> tuple:
    """(filling of the fragment in the cluster ground state at the fitted mu, target)."""
    frag = list(emb["fragment"])
    mf = mean_field.scf_solve(m)
    X = mean_field.lowdin_orthonormalize(m.S)
    S_half = np.linalg.inv(X)
    D_loc = S_half @ mf.D @ S_half
    target = float(np.trace(D_loc[np.ix_(frag, frag)]))
    _, psi = fci.fci_ground_state(eh.h_eff, eh.eri_active, 0.0, eh.n_active_electrons)
    rho = fci.determinant_rdm1(psi, eh.n_active_orbitals)
    return float(np.trace(rho[:len(frag), :len(frag)])), target


def sample(n: int, k: int) -> list:
    """A fixed, evenly spread sample of k indices out of n, ends included."""
    return sorted(set(np.linspace(0, n - 1, min(n, k)).round().astype(int).tolist()))


def references(name: str, files: dict) -> dict:
    """Reference values for one workload's inputs.

    grid: the time grid.  trotter: whether the evolver is Trotter.  exact: {molecule id: exact F(t)} for the checked
    molecules.  filling: [(id, filling, target)] under a mu fit.  ideal (noisy
    workloads only): the noiseless Trotter F(t) per molecule, computed by
    the program's own Trotter path, which the ZNE check measures against.
    """
    noisy = name == "h2-noisy"
    cfg = PipelineConfig.from_dict(files["config_l1.json" if noisy else "config.json"])
    grid = cfg.grid()
    entries = _entries(files["manifest.json"])
    # Each mu fit costs ~0.5 s, so dmet-mu checks a fixed sample of its molecules.
    picks = sample(len(entries), 3) if name == "dmet-mu" else range(len(entries))
    ref = {"grid": grid, "exact": {}, "filling": [], "ideal": {},
           "trotter": cfg.evolver["kind"] == "trotter"}
    for i in picks:
        e = entries[i]
        m = pipeline.build_molecule(e)
        eh = pipeline.embed_molecule(m, cfg.embedding)
        ref["exact"][e.molecule_id] = exact_fingerprint(eh, cfg.initial_state, grid)
        if cfg.embedding.get("fit_mu"):
            ref["filling"].append((e.molecule_id, *fragment_filling(m, cfg.embedding, eh)))
        if noisy:
            ref["ideal"][e.molecule_id] = fingerprint_ml.compute_fingerprint(
                eh, cfg.initial_state, grid, evolver=cfg.evolver).values
    return ref

