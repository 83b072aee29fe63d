"""Learning bond lengths from quantum fingerprints, then tuning the probe.

Scans 30 H2 separations, computes the F(t) fingerprint of each DMET cluster,
fits kernel ridge regression, then lets a Gaussian-process optimizer pick the
one-body measurement operator O that predicts best on the validation set.
"""

import numpy as np

from qfp import chem_io, embedding, fingerprint_ml as ml, mean_field


def dmet_h2(z):
    m = chem_io.s_orbital_integrals(chem_io.h2_geometry(z))
    m_loc, D_loc = embedding.dmet_setup(m, mean_field.scf_solve(m))
    cb = embedding.dmet_cluster_basis(D_loc, [0])
    return embedding.dmet_hamiltonian(m_loc, cb)

zs = np.linspace(1.0, 3.0, 30)
grid = np.linspace(0.0, 4.0, 8)
hams = [dmet_h2(z) for z in zs]

X = np.stack([ml.compute_fingerprint(eh, "hf_ground", grid).values for eh in hams])
tr, va, te = ml.train_val_test_split(30, seed=7)
model = ml.krr_fit(X[tr], zs[tr], length_scale=1.0, ridge=1e-6)
pred = ml.krr_predict(model, X[va])
r2 = 1 - np.sum((pred - zs[va]) ** 2) / np.sum((zs[va] - zs[va].mean()) ** 2)
print(f"F(t) fingerprints -> KRR: validation R^2 = {r2:.4f}")

# swap the energy observable for a learnable one-body operator O
rdms = np.real(np.stack([ml.rdm_trajectory(eh, "hf_ground", grid) for eh in hams]))


def objective(vec):
    O = np.array([[vec[0], vec[2]], [vec[2], vec[1]]])
    feats = ml.one_body_features(rdms, O)
    mdl = ml.krr_fit(feats[tr], zs[tr], length_scale=1.0, ridge=1e-3)
    return float(np.mean((ml.krr_predict(mdl, feats[va]) - zs[va]) ** 2))


state = ml.gp_optimize(objective, [(-1, 1)] * 3, budget=60, seed=0)
a, b, c = state.best_point
print(f"\nGP-optimized operator (60 evaluations):")
print(f"  O = [[{a:+.3f}, {c:+.3f}], [{c:+.3f}, {b:+.3f}]]")
print(f"  validation MSE = {state.best_value:.3e}")
print("note: the objective is invariant under O -> -O and O -> O + c*I,")
print("so the optimum is a family of equivalent operators")
