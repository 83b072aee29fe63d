import dataclasses

import numpy as np
import pytest

from qfp import chem_io, embedding, fci, fingerprint_ml, mean_field, pipeline, quantum_sim
from qfp.chem_io import MolecularIntegrals
from qfp.embedding import EmbeddingError

from conftest import counted_mu_fits, dmet_h2, h2_molecule, h4_molecule


def _localized(m):
    mf = mean_field.scf_solve(m)
    return (mf, *embedding.dmet_setup(m, mf))


def test_h2_active_space_fci_matches_full_fci():
    # (2e,2o) active space on a 2-orbital molecule is exact
    m = h2_molecule(1.4)
    mf = mean_field.scf_solve(m)
    eh = embedding.homo_lumo_active_space(m, mf, 2, 2)
    e_act, _ = fci.fci_ground_state(eh.h_eff, eh.eri_active, eh.e_core, 2)
    h_mo, eri_mo = embedding.transform_integrals(m.h_core, m.eri, mf.C)
    e_full, _ = fci.fci_ground_state(h_mo, eri_mo, m.e_nuclear, 2)
    assert e_act == pytest.approx(e_full, abs=1e-10)
    # E_FCI(H2/STO-3G, 1.4 bohr) = -1.1373 Ha (standard textbook value)
    assert e_act == pytest.approx(-1.1373, abs=2e-3)


def test_h4_frozen_core_energy_window():
    # freezing the lowest orbital of H4 must stay variationally sane
    m = h4_molecule(1.6)
    mf = mean_field.scf_solve(m)
    h_mo, eri_mo = embedding.transform_integrals(m.h_core, m.eri, mf.C)
    e_full, _ = fci.fci_ground_state(h_mo, eri_mo, m.e_nuclear, 4)
    eh = embedding.homo_lumo_active_space(m, mf, 2, 3)
    e_act, _ = fci.fci_ground_state(eh.h_eff, eh.eri_active, eh.e_core, 2)
    assert e_full - 1e-8 <= e_act <= mf.e_total + 1e-8


def test_active_space_window_infeasible():
    m = h2_molecule(1.4)
    mf = mean_field.scf_solve(m)
    with pytest.raises(EmbeddingError):
        embedding.homo_lumo_active_space(m, mf, 2, 3)  # only 2 orbitals exist
    with pytest.raises(EmbeddingError):
        embedding.homo_lumo_active_space(m, mf, 4, 1)


def _freeze_window_slicing(h, eri, e_const, lo, hi):
    """The active-space construction from before the frozen core was shared,
    kept as its reference: (h_eff, eri_act, e_core) of the MO window [lo, hi)."""
    n = h.shape[0]
    inact, act = np.arange(lo), np.arange(lo, hi)
    D_in = np.zeros((n, n))
    D_in[inact, inact] = 2.0
    V = embedding._coulomb_exchange(eri, D_in)
    h_eff = (h + V)[np.ix_(act, act)]
    e_core = e_const + np.sum(D_in * h) + 0.5 * np.sum(D_in * V)
    return h_eff, eri[np.ix_(act, act, act, act)], e_core


@pytest.mark.parametrize("n_atoms", [2, 6, 8])
@pytest.mark.parametrize("spacing", [1.2, 1.8, 2.6])
def test_active_space_matches_slicing_reference_bitwise(n_atoms, spacing):
    m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(n_atoms) * spacing))
    mf = mean_field.scf_solve(m)
    h_mo, eri_mo = embedding.transform_integrals(m.h_core, m.eri, mf.C)
    checked = 0
    for ne, no in [(2, 2), (4, 4), (4, 5), (6, 6), (2, 3)]:
        n_act_occ = ne // 2
        lo = m.n_electrons // 2 - n_act_occ
        if lo < 0 or lo + no > m.n_orbitals or no < n_act_occ:
            continue
        eh = embedding.homo_lumo_active_space(m, mf, ne, no)
        h_ref, eri_ref, e_ref = _freeze_window_slicing(h_mo, eri_mo, m.e_nuclear, lo, lo + no)
        assert eh.h_eff.tobytes() == h_ref.tobytes()
        assert eh.eri_active.tobytes() == eri_ref.tobytes()
        assert eh.e_core == e_ref
        checked += 1
    assert checked >= 1


def test_cluster_basis_orthonormal_and_complete():
    m = h4_molecule(1.4)
    _, m_loc, D_loc = _localized(m)
    cb = embedding.dmet_cluster_basis(D_loc, [0, 1])
    C = cb.cluster
    assert np.allclose(C.T @ C, np.eye(C.shape[1]), atol=1e-12)
    # fragment columns are the fragment sites themselves
    assert np.allclose(np.abs(C[:2, :2]), np.eye(2), atol=1e-12)


def test_cluster_basis_rejects_invalid_occupations():
    with pytest.raises(EmbeddingError):
        embedding.dmet_cluster_basis(np.diag([2.5, 0.0]), [0])
    with pytest.raises(EmbeddingError):
        embedding.dmet_cluster_basis(np.diag([-0.5, 2.0]), [0])


@pytest.mark.parametrize("fragment", [[0, 0], [4], [-1], [1, 0, 1]])
def test_cluster_basis_rejects_bad_fragment(fragment):
    _, _, D_loc = _localized(h4_molecule(1.4))
    with pytest.raises(EmbeddingError, match="fragment"):
        embedding.dmet_cluster_basis(D_loc, fragment)


def test_whole_system_fragment_reproduces_spectrum():
    m = h2_molecule(1.4)
    _, m_loc, D_loc = _localized(m)
    cb = embedding.dmet_cluster_basis(D_loc, [0, 1])
    eh = embedding.dmet_hamiltonian(m_loc, cb)
    H_emb = fci.fock_space_hamiltonian(eh.h_eff, eh.eri_active, eh.e_core)
    H_ref = fci.fock_space_hamiltonian(m_loc.h_core, m_loc.eri, m_loc.e_nuclear)
    w_emb = np.linalg.eigvalsh(H_emb)
    w_ref = np.linalg.eigvalsh(H_ref)
    assert np.allclose(w_emb, w_ref, atol=1e-10)


def test_noninteracting_embedding_recovers_mean_field():
    m = h4_molecule(1.4)
    m0 = MolecularIntegrals(
        n_orbitals=4, n_electrons=4, S=m.S, h_core=m.h_core,
        eri=np.zeros_like(m.eri), e_nuclear=m.e_nuclear,
    )
    mf, m_loc, D_loc = _localized(m0)
    cb = embedding.dmet_cluster_basis(D_loc, [0, 1])
    eh = embedding.dmet_hamiltonian(m_loc, cb)
    e, _ = fci.fci_ground_state(eh.h_eff, eh.eri_active, eh.e_core,
                                eh.n_active_electrons)
    assert e == pytest.approx(mf.e_total, abs=1e-8)


def test_h4_chemical_potential_fit():
    m = h4_molecule(1.4)
    _, m_loc, D_loc = _localized(m)
    cb = embedding.dmet_cluster_basis(D_loc, [0, 1])
    builder = embedding.fragment_count_builder(embedding.dmet_hamiltonian(m_loc, cb))
    mu = embedding.fit_chemical_potential(builder, 2.0)
    assert abs(builder(mu) - 2.0) < 1e-6


def _per_step_count_builder(m_loc, cb):
    """Fragment count from a fresh cluster FCI at every mu: the reference route."""
    n_frag = cb.fragment.shape[1]
    eh0 = embedding.dmet_hamiltonian(m_loc, cb)

    def count(mu):
        eh = embedding.shift_chemical_potential(eh0, mu)
        _, psi = fci.fci_ground_state(eh.h_eff, eh.eri_active, 0.0,
                                      eh.n_active_electrons)
        rho = fci.determinant_rdm1(psi, eh.n_active_orbitals)
        return float(np.trace(rho[:n_frag, :n_frag]))

    return count


@pytest.mark.parametrize("n_atoms,fragment", [(4, [0, 1]), (6, [0, 1]), (6, [2, 3])],
                         ids=["4", "6", "6-middle"])
def test_fragment_count_builder_matches_per_step_fci(n_atoms, fragment):
    # builder works on the Jordan-Wigner (N/2, N/2) sector block; the
    # reference is the determinant-basis fci oracle on the whole N sector
    m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(n_atoms) * 1.4))
    _, m_loc, D_loc = _localized(m)
    cb = embedding.dmet_cluster_basis(D_loc, fragment)
    builder = embedding.fragment_count_builder(embedding.dmet_hamiltonian(m_loc, cb))
    reference = _per_step_count_builder(m_loc, cb)
    for mu in (-1.0, -0.3, 0.0, 0.4, 1.0):
        assert abs(builder(mu) - reference(mu)) < 1e-10
    # The two builders differ by round-off, and a regula falsi step reads
    # residual values, so their fits differ too: each fitted mu must fill
    # the fragment to within the fit's tolerance under both builders.
    target = float(np.trace(D_loc[np.ix_(fragment, fragment)]))
    for fitted_by in (builder, reference):
        mu = embedding.fit_chemical_potential(fitted_by, target)
        assert abs(builder(mu) - target) < 1e-6
        assert abs(reference(mu) - target) < 1e-6
    for mu in (np.nan, np.inf, -np.inf):
        with pytest.raises(EmbeddingError, match="finite"):
            builder(mu)


def test_mu_fit_raises_when_filling_never_within_tol():
    # the filling jumps across the target, so no mu comes within tol
    step = lambda mu: 2.0 if mu > 0.3 else 1.0
    with pytest.raises(EmbeddingError, match="bracket"):
        embedding.fit_chemical_potential(step, 1.5)


def test_mu_fit_takes_at_most_10_builder_calls_per_h8_chain(monkeypatch):
    # 16 jittered H8 chains from 1.2 to 2.6 bohr with fragment [0, 1], as the
    # dmet-mu benchmark workload builds them: bisection took 14-21 calls each.
    counts, count_builder = [], embedding.fragment_count_builder

    def counted(eh):
        builder = count_builder(eh)
        counts.append(0)

        def count(mu):
            counts[-1] += 1
            return builder(mu)

        return count

    monkeypatch.setattr(embedding, "fragment_count_builder", counted)
    rng = np.random.default_rng(7)
    for d in np.linspace(1.2, 2.6, 16) + rng.uniform(-0.01, 0.01, 16):
        m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(8) * d))
        pipeline.embed_molecule(m, {"mode": "dmet", "fragment": [0, 1], "fit_mu": True})
    assert len(counts) == 16 and max(counts) <= 10


def test_dmet_h2_bath_size():
    eh = dmet_h2(1.4)
    assert eh.n_active_orbitals == 2  # one fragment + one bath orbital
    assert eh.n_active_electrons == 2
    assert eh.fragment_mask.tolist() == [True, False]


def test_mu_shifts_fragment_diagonal_only():
    m = h2_molecule(1.4)
    _, m_loc, D_loc = _localized(m)
    cb = embedding.dmet_cluster_basis(D_loc, [0])
    eh0 = embedding.dmet_hamiltonian(m_loc, cb)
    eh1 = embedding.shift_chemical_potential(eh0, 0.3)
    diff = eh0.h_eff - eh1.h_eff
    assert diff[0, 0] == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(diff - np.diag(np.diag(diff)), 0.0, atol=1e-12)
    assert diff[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_fit_mu_builds_one_cluster_hamiltonian(monkeypatch):
    # the mu fit and the fitted Hamiltonian share the one mu = 0 cluster build
    calls = []
    build = embedding.dmet_hamiltonian

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(embedding, "dmet_hamiltonian", counted)
    m = h4_molecule(1.6)
    eh = pipeline.embed_molecule(m, {"mode": "dmet", "fragment": [0, 1], "fit_mu": True,
                                     "target_filling": 1.9})
    assert len(calls) == 1
    eh0 = build(*calls[0])
    mu = embedding.fit_chemical_potential(embedding.fragment_count_builder(eh0), 1.9)
    assert mu != 0.0
    assert eh.h_eff.tobytes() == embedding.shift_chemical_potential(eh0, mu).h_eff.tobytes()


def _h4_cluster():
    m = h4_molecule(1.4)
    _, m_loc, D_loc = _localized(m)
    return embedding.dmet_hamiltonian(m_loc, embedding.dmet_cluster_basis(D_loc, [0, 1]))


@pytest.mark.parametrize("orbitals", [[0, 1, 2, 3], [0]])
def test_in_place_edit_reaches_the_fingerprint(orbitals):
    # An EmbeddedHamiltonian keeps no qubit form, so a fingerprint taken
    # after an in-place edit of h_eff sees the edit, bit for bit as a fresh
    # copy with the edited h_eff does.  0.01 on every diagonal entry is
    # 0.01 N, a phase on the state; on orbital 0 alone it moves the dynamics.
    eh = _h4_cluster()
    assert eh.n_active_orbitals == 4
    grid = np.linspace(0.0, 2.0, 5)
    before = fingerprint_ml.compute_fingerprint(eh, "hf_ground", grid).values
    eh.h_eff[orbitals, orbitals] += 0.01
    after = fingerprint_ml.compute_fingerprint(eh, "hf_ground", grid).values
    fresh = fingerprint_ml.compute_fingerprint(
        dataclasses.replace(eh, h_eff=eh.h_eff.copy()), "hf_ground", grid).values
    assert after.tobytes() == fresh.tobytes()
    assert not np.allclose(after, before)


@pytest.mark.parametrize("evolver, noise", [
    ({"kind": "exact"}, None),
    ({"kind": "trotter", "order": 2, "r": 2}, None),
    ({"kind": "trotter", "order": 2, "r": 1}, {"p": 0.02, "scale": 3, "n_trajectories": 4}),
])
def test_fit_mu_fingerprints_run_jordan_wigner_twice_per_molecule(monkeypatch, evolver, noise):
    # One call for the mu = 0 block of the fit and one for the fitted
    # Hamiltonian.  Each fit calls its builder at least 3 times, so a call
    # per mu step would make at least 4.
    fits = counted_mu_fits(monkeypatch)
    calls = []
    jw = quantum_sim.jordan_wigner
    monkeypatch.setattr(quantum_sim, "jordan_wigner", lambda eh: calls.append(eh) or jw(eh))
    cfg = pipeline.PipelineConfig.from_dict({
        "dataset": {"kind": "manifest", "path": "manifest.json"},
        "embedding": {"mode": "dmet", "fragment": [0, 1], "fit_mu": True},
        "initial_state": "hf_ground", "time_grid": {"start": 0, "stop": 1, "step": 0.5},
        "evolver": evolver, "noise": noise})
    entries = [chem_io.ManifestEntry(f"h4_{i}", {"generator": {
        "kind": "chain", "z_positions": [0.0, d, 2 * d, 3 * d]}}, d, "") for i, d in
        enumerate((1.4, 1.8, 2.4))]
    values = pipeline.run_fingerprints(cfg, entries)
    assert values.shape == (3, 3) and np.all(np.isfinite(values))
    assert len(fits) == len(entries) and min(fits) >= 3
    assert len(calls) == 2 * len(entries)
