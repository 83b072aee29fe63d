"""Single-shot DMET on an H4 chain: fragment+bath construction and mu fitting.

Localizes the orbitals (Lowdin), builds the Schmidt fragment+bath cluster for
the first two atoms, solves the cluster with FCI, and fits the chemical
potential so the fragment holds the right number of electrons.
"""

import numpy as np

from qfp import chem_io, embedding, fci, mean_field
from qfp.embedding import FragmentSpec

spacing = 1.8  # stretched chain: correlation matters here
m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(4) * spacing))
mf = mean_field.scf_solve(m)
# full-system FCI needs orthonormal orbitals; localize first
m_loc, D_loc = embedding.dmet_setup(m, mf)
e_fci_full, _ = fci.fci_ground_state(m_loc.h_core, m_loc.eri, m_loc.e_nuclear, 4)
print(f"H4 chain, spacing {spacing} bohr")
print(f"E_HF        = {mf.e_total:.6f} Ha")
print(f"E_FCI(full) = {e_fci_full:.6f} Ha")

cb = embedding.dmet_cluster_basis(D_loc, FragmentSpec([0, 1]))
print(f"\nfragment {{0,1}}: {cb.fragment.shape[1]} fragment "
      f"+ {cb.bath.shape[1]} bath orbitals")

eh = embedding.dmet_hamiltonian(m_loc, cb)
e_clu, _ = fci.fci_ground_state(eh.h_eff, eh.eri_active, eh.e_core,
                                eh.n_active_electrons)
print(f"cluster FCI (mu=0): {e_clu:.6f} Ha")

builder = embedding.fragment_count_builder(m_loc, cb)
n_target = float(np.trace(D_loc[np.ix_([0, 1], [0, 1])]))
print(f"\nfragment filling at mu=0: {builder(0.0):.6f} (target {n_target:.6f})")
mu = embedding.fit_chemical_potential(builder, n_target)
print(f"fitted mu = {mu:+.6f}, filling = {builder(mu):.6f}")
