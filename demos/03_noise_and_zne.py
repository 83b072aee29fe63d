"""Trotterized dynamics under depolarizing noise, rescued by ZNE.

Runs a second-order Trotter circuit for the H2 DMET cluster, corrupts it with
per-gate depolarizing noise at folded noise scales lambda = 1, 3, 5, and
extrapolates to the zero-noise limit with a quadratic fit.
"""

import numpy as np

from qfp import chem_io, embedding, mean_field, quantum_sim as qs

m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain([0.0, 1.4]))
m_loc, D_loc = embedding.dmet_setup(m, mean_field.scf_solve(m))
cb = embedding.dmet_cluster_basis(D_loc, [0])
eh = embedding.dmet_hamiltonian(m_loc, cb)

H = qs.jordan_wigner(eh)
prep, _ = qs.prepare_initial("hf_ground", H.n_qubits, eh.n_active_electrons)
circuit = prep + qs.trotter_sequence(H, 1.0, order=2, r=1)
print(f"circuit: {len(circuit.gates)} gates on {circuit.n_qubits} qubits")

O = np.array([[0.4, -0.8], [-0.8, 0.8]])
ideal_state = qs.run_sequence(circuit, qs.basis_state(0, circuit.n_qubits))
ideal = qs.expval_O(O, qs.rdm1(ideal_state, np.arange(ideal_state.size), circuit.n_qubits))
print(f"ideal <O> = {ideal:+.6f}")

points = {}
for lam in (1, 3, 5):
    ns = qs.NoiseSpec(p=0.02, scale=lam)
    mean, err = qs.noisy_expectation(circuit, O, ns, n_trajectories=500,
                                     seed=100 + lam)
    points[lam] = mean
    print(f"lambda={lam}: <O> = {mean:+.6f} +/- {err:.6f}"
          f"  (bias {mean - ideal:+.6f})")

zne = qs.zne_extrapolate(points, fit_order=2)
print(f"\nZNE estimate = {zne:+.6f}  (bias {zne - ideal:+.6f})")
print(f"raw lambda=1 bias was {points[1] - ideal:+.6f}")
