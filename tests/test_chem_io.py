import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import chem_io
from qfp.chem_io import (
    DatasetManifest,
    FcidumpError,
    ManifestEntry,
    ManifestError,
    MolecularIntegrals,
)

from conftest import h2_molecule


def test_h2_overlap_literature_value():
    # S12 = 0.6593 for H2/STO-3G at 1.4 bohr (standard textbook value)
    m = h2_molecule(1.4)
    assert m.S[0, 1] == pytest.approx(0.6593, abs=1e-3)
    assert np.allclose(np.diag(m.S), 1.0, atol=1e-12)


def test_nuclear_repulsion_is_coulomb():
    m = h2_molecule(1.4)
    assert m.e_nuclear == pytest.approx(1.0 / 1.4, abs=1e-14)


def test_integral_tensor_symmetries():
    m = h2_molecule(1.1)
    m.validate()
    eri = m.eri
    assert np.array_equal(eri, eri.transpose(1, 0, 2, 3))
    assert np.array_equal(eri, eri.transpose(0, 1, 3, 2))
    assert np.array_equal(eri, eri.transpose(2, 3, 0, 1))


def test_coincident_nuclei_rejected():
    with pytest.raises(ValueError):
        chem_io.s_orbital_integrals(chem_io.hydrogen_chain([0.0, 0.0]))


def test_boys_function_branches_agree():
    # the small-argument Taylor branch must join the erf branch smoothly
    xs = np.array([1e-12, 1e-8, 1e-6, 1e-4, 1e-2])
    vals = chem_io._boys_f0(xs)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(1.0, abs=1e-10)
    dense = chem_io._boys_f0(np.linspace(1e-7, 1e-3, 1001))
    assert np.all(np.diff(dense) < 0)  # F0 is strictly decreasing


def _random_integrals(rng, n):
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    eri = rng.normal(size=(n, n, n, n))
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
        eri = 0.5 * (eri + eri.transpose(perm))
    return MolecularIntegrals(
        n_orbitals=n, n_electrons=2, S=np.eye(n), h_core=h, eri=eri,
        e_nuclear=float(rng.normal()),
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
def test_fcidump_round_trip(seed, n):
    m = _random_integrals(np.random.default_rng(seed), n)
    back = chem_io.parse_fcidump(chem_io.emit_fcidump(m))
    assert back.n_orbitals == n and back.n_electrons == 2
    assert np.allclose(back.h_core, m.h_core, atol=1e-12)
    assert np.allclose(back.eri, m.eri, atol=1e-12)
    assert back.e_nuclear == pytest.approx(m.e_nuclear, abs=1e-12)


def test_fcidump_canonical_emission_deterministic():
    m = _random_integrals(np.random.default_rng(5), 2)
    assert chem_io.emit_fcidump(m) == chem_io.emit_fcidump(m)


def test_fcidump_fortran_d_exponent():
    text = "&FCI NORB=1,NELEC=2,MS2=0,\n&END\n 1.5D-01 1 1 1 1\n -2.0d0 1 1 0 0\n 0.5 0 0 0 0\n"
    m = chem_io.parse_fcidump(text)
    assert m.eri[0, 0, 0, 0] == pytest.approx(0.15)
    assert m.h_core[0, 0] == pytest.approx(-2.0)


def test_fcidump_parse_errors_carry_line_numbers():
    good_header = "&FCI NORB=1,NELEC=2,MS2=0,\n&END\n"
    with pytest.raises(FcidumpError, match="NORB"):
        chem_io.parse_fcidump("&FCI NELEC=2,\n&END\n")
    with pytest.raises(FcidumpError):
        chem_io.parse_fcidump(good_header + " 0.1 5 1 1 1\n")  # index out of range
    with pytest.raises(FcidumpError):
        chem_io.parse_fcidump(good_header + " 0.1 1 1\n")  # truncated record


def test_manifest_round_trip(tmp_path):
    man = DatasetManifest(entries=[
        ManifestEntry("a", {"generator": {"kind": "h2", "separation": 1.0}}, 1.0, "x"),
        ManifestEntry("b", {"generator": {"kind": "h2", "separation": 2.0}}, 2.0, "y"),
    ])
    path = tmp_path / "manifest.json"
    chem_io.save_manifest(man, str(path))
    back = chem_io.load_manifest(str(path))
    assert [e.molecule_id for e in back.entries] == ["a", "b"]
    assert back.entries[1].target == 2.0


def test_manifest_duplicate_id_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        '{"entries": [{"id": "a", "generator": {}}, {"id": "a", "generator": {}}]}'
    )
    with pytest.raises(ManifestError, match="duplicate"):
        chem_io.load_manifest(str(path))


def test_manifest_missing_file_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"entries": [{"id": "a", "fcidump": "nope.fcidump"}]}')
    with pytest.raises(ManifestError, match="missing file"):
        chem_io.load_manifest(str(path))


def test_feature_table_round_trip(tmp_path):
    ids = ["m0", "m1", "m2"]
    grid = np.array([0.0, 0.5, 1.0])
    vals = np.random.default_rng(0).normal(size=(3, 3))
    path = tmp_path / "features.csv"
    chem_io.save_features(ids, grid, vals, str(path))
    ids2, grid2, vals2 = chem_io.load_features(str(path))
    assert ids2 == ids
    assert np.array_equal(grid2, grid)
    assert np.array_equal(vals2, vals)  # 17 significant digits is lossless


def test_validate_raises_value_error():
    m = h2_molecule(1.4)
    h = m.h_core.copy()
    h[0, 1] += 1e-3
    bad = MolecularIntegrals(m.n_orbitals, m.n_electrons, m.S, h, m.eri, m.e_nuclear)
    with pytest.raises(ValueError, match="h_core not symmetric"):
        bad.validate()
