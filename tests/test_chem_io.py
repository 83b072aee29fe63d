import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import chem_io
from qfp.chem_io import (
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


@pytest.mark.parametrize("centres, match", [
    (np.zeros((0, 3)), "non-empty"),
    (np.zeros((2, 2)), "non-empty"),
    ([[0.0, 0.0, 0.0], [0.0, 0.0, np.nan]], "non-finite"),
    ([[0.0, 0.0, 0.0], [np.inf, 0.0, 1.4]], "non-finite"),
])
def test_bad_centres_rejected(centres, match):
    with pytest.raises(ValueError, match=match):
        chem_io.s_orbital_integrals(centres)


def test_hydrogen_chain_centres():
    assert chem_io.hydrogen_chain([0, 1.4, 2.8]).tolist() == [
        [0.0, 0.0, 0.0], [0.0, 0.0, 1.4], [0.0, 0.0, 2.8]]
    assert chem_io.hydrogen_chain([0.0, 1.4]).shape == (2, 3)


def test_coincident_nuclei_rejected():
    with pytest.raises(ValueError):
        chem_io.s_orbital_integrals(chem_io.hydrogen_chain([0.0, 0.0]))


@pytest.mark.parametrize("z_positions", [
    [0.0, 3e-3],
    # Overlap eigenvalue 8.1e-5: as DMET fragment [0, 1], this chain failed the
    # Jordan-Wigner Hermiticity check.
    [0.0, 1.4, 1.4244, 2.8244],
])
def test_nearly_dependent_basis_rejected(z_positions):
    with pytest.raises(ValueError, match="nearly linearly dependent"):
        chem_io.s_orbital_integrals(chem_io.hydrogen_chain(z_positions))


def test_boys_function_branches_agree():
    # the small-argument Taylor branch must join the erf branch smoothly
    xs = np.array([1e-12, 1e-8, 1e-6, 1e-4, 1e-2])
    vals = chem_io._boys_f0(xs)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(1.0, abs=1e-10)
    dense = chem_io._boys_f0(np.linspace(1e-7, 1e-3, 1001))
    assert np.all(np.diff(dense) < 0)  # F0 is strictly decreasing


def test_boys_f0_matches_scipy_erf():
    # chem_io's numpy erf against scipy's, through F0 = sqrt(pi/x) erf(sqrt(x)) / 2,
    # on both sides of the branch points at 1e-6 (Taylor), 1 (s = 1) and 36 (s = 6).
    from scipy.special import erf

    x = np.concatenate([np.geomspace(1e-300, 1e-6, 2001), np.linspace(0.0, 1e4, 200001)[1:],
                        np.geomspace(1e-6, 1e4, 20001)]
                       + [[np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
                          for b in (1e-6, 1.0, 36.0)])
    ref = 0.5 * np.sqrt(np.pi / x) * erf(np.sqrt(x))
    assert np.max(np.abs(chem_io._boys_f0(x) - ref) / np.spacing(ref)) <= 4
    assert chem_io._boys_f0(np.zeros(1))[0] == 1.0


def test_erfc_matches_math_erfc():
    # On z in [-40, 40], both sides of the branch points at |z| = 1 and 8.  Both
    # sides round z^2 inside exp(-z^2), a relative error up to z^2 * 2^-53 each.
    z = np.concatenate([np.linspace(-40.0, 40.0, 400001)]
                       + [[np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)]
                          for b in (-8.0, -1.0, 1.0, 8.0)])
    got = chem_io.erfc(z)
    ref = np.array([math.erfc(v) for v in z.tolist()])
    normal = ref >= np.finfo(float).tiny
    rel = np.abs(got[normal] - ref[normal]) / ref[normal]
    assert np.all(rel <= 1e-14 + 4e-16 * z[normal] ** 2)
    assert np.all(np.abs(got[~normal] - ref[~normal]) <= np.finfo(float).tiny)
    assert chem_io.erfc([-40.0, 0.0, 40.0]).tolist() == [2.0, 1.0, 0.0]
    assert np.isnan(chem_io.erfc([np.nan])).all()


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


def test_fcidump_padded_header_values():
    # Writers such as PySCF pad header values: NORB=   1.
    m = chem_io.parse_fcidump("&FCI NORB=   1,NELEC= 2,MS2=0,\n&END\n -1.0 1 1 0 0\n")
    assert (m.n_orbitals, m.n_electrons) == (1, 2)


def test_fcidump_parse_errors_carry_line_numbers():
    good_header = "&FCI NORB=1,NELEC=2,MS2=0,\n&END\n"
    with pytest.raises(FcidumpError, match="NORB"):
        chem_io.parse_fcidump("&FCI NELEC=2,\n&END\n")
    with pytest.raises(FcidumpError):
        chem_io.parse_fcidump(good_header + " 0.1 5 1 1 1\n")  # index out of range
    with pytest.raises(FcidumpError):
        chem_io.parse_fcidump(good_header + " 0.1 1 1\n")  # truncated record


def test_manifest_round_trip(tmp_path):
    entries = [
        ManifestEntry("a", {"generator": {"kind": "h2", "separation": 1.0}}, 1.0, "x"),
        ManifestEntry("b", {"generator": {"kind": "h2", "separation": 2.0}}, 2.0, "y"),
    ]
    path = tmp_path / "manifest.json"
    chem_io.save_manifest(entries, str(path))
    assert chem_io.load_manifest(str(path)) == entries


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


def test_write_table_formats_and_round_trips(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["m0", 0.1, np.int64(3)], ["m1", -2.5e-300, 7], ["m2", np.float64(1e17), -0.0]]
    chem_io.write_table(str(path), ["molecule_id", "a", "b"], rows)
    assert path.read_text() == ("molecule_id,a,b\n"
                                "m0,0.10000000000000001,3\n"
                                "m1,-2.5e-300,7\n"
                                "m2,1e+17,-0\n")
    columns, ids, values = chem_io.read_table(str(path))
    assert (columns, ids) == (["a", "b"], ["m0", "m1", "m2"])
    assert np.array_equal(values, np.array([r[1:] for r in rows], dtype=float))
    chem_io.write_table(str(path), ["axis", "r2"], [("x", float("nan"))])
    assert path.read_text() == "axis,r2\nx,nan\n"


def test_validate_raises_value_error():
    m = h2_molecule(1.4)
    h = m.h_core.copy()
    h[0, 1] += 1e-3
    bad = MolecularIntegrals(m.n_orbitals, m.n_electrons, m.S, h, m.eri, m.e_nuclear)
    with pytest.raises(ValueError, match="h_core not symmetric"):
        bad.validate()


def _s_orbital_integrals_loop(centres):
    """The per-bra-pair ERI loop that s_orbital_integrals replaced, kept as its
    reference: (S, h_core, eri, e_nuclear, bra pairs skipped below 1e-18).
    It takes F0 from chem_io._boys_f0, which test_boys_f0_matches_scipy_erf
    checks, so that the comparison pins the assembly of the integrals."""
    boys_f0 = chem_io._boys_f0
    centers = np.asarray(centres, dtype=float)
    charges = np.ones(len(centers))
    n = len(centers)
    prims = [(i, a, c * (2.0 * a / np.pi) ** 0.75)
             for i in range(n) for a, c in chem_io.STO3G_HYDROGEN]
    fn = np.array([i for i, _, _ in prims])
    alpha = np.array([a for _, a, _ in prims])
    coef = np.array([c for _, _, c in prims])
    A = centers[fn]
    m = len(alpha)
    p = alpha[:, None] + alpha[None, :]
    mu = alpha[:, None] * alpha[None, :] / p
    ab2 = np.sum((A[:, None, :] - A[None, :, :]) ** 2, axis=-1)
    K = np.exp(-mu * ab2)
    P = (alpha[:, None, None] * A[:, None, :] + alpha[None, :, None] * A[None, :, :]) / p[:, :, None]
    s_prim = (np.pi / p) ** 1.5 * K
    t_prim = mu * (3.0 - 2.0 * mu * ab2) * s_prim
    pc2 = np.sum((P[:, :, None, :] - centers[None, None, :, :]) ** 2, axis=-1)
    v_prim = -(2.0 * np.pi / p)[:, :, None] * K[:, :, None] * boys_f0(p[:, :, None] * pc2)
    v_prim = np.einsum("abc,c->ab", v_prim, charges)

    def contract2(prim, cc):
        out = np.zeros((n, n))
        np.add.at(out, (fn[:, None], fn[None, :]), cc * prim)
        return out

    S = contract2(s_prim, coef[:, None] * coef[None, :])
    coef = coef * (1.0 / np.sqrt(np.diag(S)))[fn]
    cc = coef[:, None] * coef[None, :]
    S, h = contract2(s_prim, cc), contract2(t_prim + v_prim, cc)

    eri = np.zeros((n, n, n, n))
    pref = 2.0 * np.pi ** 2.5
    skipped = 0
    for a in range(m):
        for b in range(m):
            pab, Kab = p[a, b], K[a, b]
            if Kab * abs(cc[a, b]) < 1e-18:
                skipped += 1
                continue
            pq2 = np.sum((P[a, b][None, None, :] - P) ** 2, axis=-1)
            val = pref / (pab * p * np.sqrt(pab + p)) * Kab * K * boys_f0(pab * p / (pab + p) * pq2)
            np.add.at(eri, (fn[a], fn[b], fn[:, None], fn[None, :]), cc[a, b] * cc * val)
    eri = (eri + eri.transpose(1, 0, 2, 3)) / 2.0
    eri = (eri + eri.transpose(0, 1, 3, 2)) / 2.0
    eri = (eri + eri.transpose(2, 3, 0, 1)) / 2.0
    e_nuc = sum(charges[a] * charges[b] / np.linalg.norm(centers[a] - centers[b])
                for a in range(n) for b in range(a + 1, n))
    return S, h, eri, e_nuc, skipped


def _scattered_h6():
    return np.random.default_rng(5).normal(scale=1.5, size=(6, 3))


def _helix(n_atoms):
    # Neighbours 1.38 bohr apart; x, y and z all differ between any two atoms,
    # so every squared distance adds three inexact terms and pins their order.
    i = np.arange(n_atoms)
    return np.stack([1.0 * np.cos(1.1 * i), 1.0 * np.sin(1.1 * i), 0.9 * i], axis=1)


@pytest.mark.parametrize("n_atoms", range(2, 13))
def test_s_orbital_integrals_match_loop_bitwise(n_atoms):
    geometries = [_helix(n_atoms)] + [
        chem_io.hydrogen_chain(np.arange(n_atoms) * d) for d in (0.8, 1.4, 2.2, 3.0)]
    if n_atoms == 6:
        geometries.append(_scattered_h6())  # off-axis: every coordinate enters pq2
    for centres in geometries:
        got = chem_io.s_orbital_integrals(centres, n_electrons=n_atoms + n_atoms % 2)
        S, h, eri, e_nuc, skipped = _s_orbital_integrals_loop(centres)
        assert got.S.tobytes() == S.tobytes()
        assert got.h_core.tobytes() == h.tobytes()
        assert got.eri.tobytes() == eri.tobytes()
        assert got.e_nuclear == e_nuc
    if n_atoms == 12:
        # At 3.0 bohr the 1e-18 bra-pair skip fires (560 of 1296 pairs here).
        assert skipped > 400
