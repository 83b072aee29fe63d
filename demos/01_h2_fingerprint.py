"""H2 walkthrough: integrals -> SCF -> active space -> dynamics -> fingerprint.

Builds the STO-3G H2 molecule at its equilibrium-ish separation, solves the
restricted Hartree-Fock problem, carves out the (2e, 2o) active space, maps it
to qubits, and prints the temporal energy-observable fingerprint F(t).
"""

import numpy as np

from qfp import chem_io, embedding, fci, fingerprint_ml as ml, mean_field, quantum_sim as qs

z = 1.4  # bohr
m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain([0.0, z]))
print(f"H2 at {z} bohr: {m.n_orbitals} orbitals, {m.n_electrons} electrons")
print(f"overlap S01 = {m.S[0, 1]:.4f}, nuclear repulsion = {m.e_nuclear:.4f} Ha")

mf = mean_field.scf_solve(m)
print(f"\nSCF converged in {mf.n_iterations} iterations")
print(f"E_HF  = {mf.e_total:.6f} Ha")
print(f"orbital energies: {np.round(mf.eps, 4)}")

eh = embedding.homo_lumo_active_space(m, mf, 2, 2)
e_fci, _ = fci.fci_ground_state(eh.h_eff, eh.eri_active, eh.e_core, 2)
w = np.linalg.eigvalsh(eh.h_eff)
print(f"\n(2e, 2o) active space, HOMO-LUMO gap = {w[1] - w[0]:.4f} Ha")
print(f"E_FCI = {e_fci:.6f} Ha (correlation {e_fci - mf.e_total:.6f} Ha)")

H = qs.jordan_wigner(eh)
print(f"\nJordan-Wigner Hamiltonian: {len(H.terms)} Pauli terms on {H.n_qubits} qubits")

grid = np.arange(0.0, 14.001, 0.5)
fp = ml.compute_fingerprint(eh, "homo_lumo_excited", grid)
print("\nfingerprint F(t) from the HOMO->LUMO excited determinant:")
for t, v in zip(grid[::4], fp.values[::4]):
    bar = "#" * int(40 * (v - fp.values.min()) / np.ptp(fp.values))
    print(f"  t={t:5.1f}  F={v:+.4f}  {bar}")
