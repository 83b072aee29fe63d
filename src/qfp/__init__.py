"""Quantum fingerprint pipeline.

Mean-field chemistry, fragment embedding, fermion-to-qubit mapping,
Hamiltonian simulation and the data-driven modelling layer on top of the
resulting temporal features.  Import the modules by name, e.g.
`from qfp import chem_io`; the package re-exports nothing.
"""

__version__ = "0.1.0"
