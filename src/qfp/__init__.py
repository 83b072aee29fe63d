"""Quantum fingerprint pipeline.

Mean-field chemistry, fragment embedding, fermion-to-qubit mapping,
Hamiltonian simulation and the data-driven modelling layer on top of the
resulting temporal features.
"""

from qfp.chem_io import (
    GaussianGeometry,
    MolecularIntegrals,
    hydrogen_chain,
    parse_fcidump,
    emit_fcidump,
    s_orbital_integrals,
)
from qfp.mean_field import MeanFieldSolution, lowdin_orthonormalize, scf_solve
from qfp.embedding import (
    ClusterBasis,
    EmbeddedHamiltonian,
    FragmentSpec,
    dmet_cluster_basis,
    dmet_hamiltonian,
    fit_chemical_potential,
    homo_lumo_active_space,
)
from qfp.quantum_sim import (
    GateSequence,
    NoiseSpec,
    PauliHamiltonian,
    jordan_wigner,
    prepare_initial,
    rdm1,
    trotter_sequence,
)
from qfp.fingerprint_ml import Fingerprint, compute_fingerprint

__all__ = [
    "GaussianGeometry",
    "MolecularIntegrals",
    "hydrogen_chain",
    "parse_fcidump",
    "emit_fcidump",
    "s_orbital_integrals",
    "MeanFieldSolution",
    "lowdin_orthonormalize",
    "scf_solve",
    "ClusterBasis",
    "EmbeddedHamiltonian",
    "FragmentSpec",
    "dmet_cluster_basis",
    "dmet_hamiltonian",
    "fit_chemical_potential",
    "homo_lumo_active_space",
    "GateSequence",
    "NoiseSpec",
    "PauliHamiltonian",
    "jordan_wigner",
    "prepare_initial",
    "rdm1",
    "trotter_sequence",
    "Fingerprint",
    "compute_fingerprint",
]

__version__ = "0.1.0"
