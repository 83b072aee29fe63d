import ast
import inspect
import math

import numpy as np
import pytest

from qfp import chem_io, embedding, fci, fingerprint_ml as ml, mean_field, quantum_sim as qs
from qfp.fingerprint_ml import Fingerprint, TS_FEATURE_NAMES

from conftest import dmet_h2


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_invariants():
    with pytest.raises(ValueError):
        Fingerprint(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        Fingerprint(np.array([0.0, 1.0]), np.array([1.0, np.nan]))


def test_compute_fingerprint_grid_shape(h2_active):
    grid = np.arange(0, 14.001, 0.5)
    fp = ml.compute_fingerprint(h2_active, "hf_ground", grid)
    assert fp.values.shape == (29,)
    assert np.all(np.isfinite(fp.values))


def test_fingerprint_t0_value(h2_active):
    fp = ml.compute_fingerprint(h2_active, "hf_ground", [0.0])
    _, psi0 = qs.prepare_initial("hf_ground", 4, 2)
    expected = qs.expval_O(h2_active.h_eff, qs.rdm1(psi0, np.arange(16), 4))
    assert fp.values[0] == pytest.approx(expected, abs=1e-12)


def test_exact_vs_trotter_fingerprints_agree(h2_active):
    grid = np.arange(0, 4.001, 0.5)
    exact = ml.compute_fingerprint(h2_active, "hf_ground", grid)
    trot = ml.compute_fingerprint(
        h2_active, "hf_ground", grid,
        evolver={"kind": "trotter", "order": 2, "r": 8})
    assert np.max(np.abs(exact.values - trot.values)) < 2e-3
    finer = ml.compute_fingerprint(
        h2_active, "hf_ground", grid,
        evolver={"kind": "trotter", "order": 2, "r": 16})
    assert np.max(np.abs(exact.values - finer.values)) < 1e-3


@pytest.mark.parametrize("n_atoms, n_elec, n_orb", [(6, 4, 4), (8, 6, 6)],
                         ids=["h6_44", "h8_66"])
def test_trotter_fingerprint_tracks_exact_at_long_times(n_atoms, n_elec, n_orb):
    # r = 2 Strang steps per 0.5-wide interval out to t = 14 (12 qubits for
    # (6e,6o)); r steps spread over all of [0, t] were 0.44 and 0.69 off here.
    m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(n_atoms) * 1.8))
    eh = embedding.homo_lumo_active_space(m, mean_field.scf_solve(m), n_elec, n_orb)
    grid = np.arange(0, 14.001, 0.5)
    exact = ml.compute_fingerprint(eh, "homo_lumo_excited", grid)
    trot = ml.compute_fingerprint(eh, "homo_lumo_excited", grid,
                                  evolver={"kind": "trotter", "order": 2, "r": 2})
    assert np.max(np.abs(trot.values - exact.values)) < 5e-3


@pytest.mark.parametrize("scale", [1, 3])
@pytest.mark.parametrize("observable", [{"kind": "F"},
                                        {"kind": "O", "matrix": [[0.4, -0.8], [-0.8, 0.8]]}],
                         ids=["F", "O"])
def test_noisy_fingerprint_is_noisy_expectation_per_time(h2_active, observable, scale):
    # Whole-interval circuits over [0, t_i], trajectory seed seed + i.
    grid = np.array([0.0, 0.5, 1.5])
    noise = {"p": 0.05, "scale": scale, "n_trajectories": 20, "seed": 4}
    fp = ml.compute_fingerprint(h2_active, "homo_lumo_excited", grid, observable=observable,
                                evolver={"kind": "trotter", "order": 1, "r": 3}, noise=noise)
    prep, _ = qs.prepare_initial("homo_lumo_excited", 4, 2)
    O = h2_active.h_eff if observable["kind"] == "F" else np.array(observable["matrix"])
    H = qs.jordan_wigner(h2_active)
    ref = [qs.noisy_expectation(prep + qs.trotter_sequence(H, t, 1, 3), O,
                                qs.NoiseSpec(0.05, scale), 20, 4 + i)[0]
           for i, t in enumerate(grid)]
    assert fp.values.tolist() == ref
    with pytest.raises(ValueError, match="trotter"):
        ml.compute_fingerprint(h2_active, "hf_ground", grid, noise=noise)


def test_rdm_trajectory_and_one_body_features(h2_active):
    grid = np.arange(0, 2.001, 0.5)
    traj = ml.rdm_trajectory(h2_active, "hf_ground", grid)
    assert traj.shape == (5, 2, 2)
    O = np.array([[0.4, -0.8], [-0.8, 0.8]])
    feats = qs.expval_O(O, np.real(traj)[None])
    fp = ml.compute_fingerprint(h2_active, "hf_ground", grid,
                                observable={"kind": "O", "matrix": O})
    assert np.allclose(feats[0], fp.values, atol=1e-10)


def test_h8_66_exact_fingerprint_matches_determinant_reference():
    # 12 qubits: the sector-block evolver diagonalizes one 400x400 block for
    # hf_ground.  The reference evolves the N-electron sector of fci's
    # determinant-basis Hamiltonian and never touches quantum_sim.
    m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(8) * 1.8))
    eh = embedding.homo_lumo_active_space(m, mean_field.scf_solve(m), 6, 6)
    grid = np.array([0.0, 0.5, 2.0, 7.0, 14.0])
    fp = ml.compute_fingerprint(eh, "hf_ground", grid)

    H = fci.fock_space_hamiltonian(eh.h_eff, eh.eri_active, eh.e_core)
    idx = fci.sector_indices(12, 6)
    w, V = np.linalg.eigh(H[np.ix_(idx, idx)])
    del H
    c0 = V[np.searchsorted(idx, 0b111111)]  # HF determinant in the eigenbasis
    psi = np.zeros(1 << 12, dtype=complex)
    ref = []
    for t in grid:
        psi[idx] = V @ (np.exp(-1j * w * t) * c0)
        ref.append(np.real(np.sum(eh.h_eff * fci.determinant_rdm1(psi, 6))))
    assert np.max(np.abs(fp.values - ref)) < 1e-10
    # The oracle stays independent of the Pauli route: fci imports no qfp module.
    for node in ast.walk(ast.parse(inspect.getsource(fci))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            assert not any(name.startswith("qfp") for name in names)


# ---------------------------------------------------------------------------
# PLS
# ---------------------------------------------------------------------------

def test_pls_exact_linear_fit():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    y = X @ beta + 1.7
    pred = ml.pls_fit(X, y, n_components=4)(X)
    ss = 1 - np.sum((pred - y) ** 2) / np.sum((y - y.mean()) ** 2)
    assert ss == pytest.approx(1.0, abs=1e-8)


def test_pls_one_component_equals_least_squares():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(25, 1))
    y = 2.0 * X[:, 0] + rng.normal(scale=0.1, size=25)
    pred = ml.pls_fit(X, y, n_components=1)(X)
    slope, intercept = np.polyfit(X[:, 0], y, 1)
    assert np.allclose(pred, slope * X[:, 0] + intercept, atol=1e-10)


def test_pls_drops_zero_variance_columns():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 3))
    X[:, 1] = 5.0
    y = X[:, 0] - X[:, 2]
    with pytest.warns(UserWarning, match="zero-variance"):
        predict = ml.pls_fit(X, y, n_components=2)
    Z = rng.normal(size=(7, 3))
    moved = Z.copy()
    moved[:, 1] = rng.normal(scale=100.0, size=7)
    assert np.array_equal(predict(moved), predict(Z))


def test_pls_component_cap():
    X = np.random.default_rng(3).normal(size=(5, 2))
    with pytest.raises(ValueError):
        ml.pls_fit(X, np.arange(5.0), n_components=3)


# ---------------------------------------------------------------------------
# KRR
# ---------------------------------------------------------------------------

def test_krr_large_ridge_predicts_mean():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    predict = ml.krr_fit(X, y, length_scale=1.0, ridge=1e9)
    assert np.allclose(predict(X), 0.0, atol=1e-6)
    # with the mean re-added externally this is the ridge limit; the raw
    # dual predictor collapses toward zero


def test_krr_interpolates_with_small_ridge():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    predict = ml.krr_fit(X, y, length_scale=1.0, ridge=1e-8)
    assert np.max(np.abs(predict(X) - y)) < 1e-4


# ---------------------------------------------------------------------------
# cross-validation and splits
# ---------------------------------------------------------------------------

def test_kfold_constant_target_r2_zero():
    X = np.random.default_rng(6).normal(size=(12, 2))
    rep = ml.kfold_cv(X, np.full(12, 3.0), {"kind": "krr"}, k=3, seed=0)
    assert rep["r2"] == 0.0


def test_kfold_perfect_predictions():
    X = np.linspace(0, 1, 20).reshape(-1, 1)
    y = X[:, 0].copy()
    rep = ml.kfold_cv(X, y, {"kind": "krr", "ridge": 1e-9,
                             "length_scale": 1.0}, k=4, seed=1)
    assert rep["r2"] > 0.999
    assert rep["rmse"] < 0.01


def test_kfold_deterministic_given_seed():
    X = np.random.default_rng(7).normal(size=(15, 3))
    y = X @ np.array([1.0, 0.5, -1.0])
    a = ml.kfold_cv(X, y, {"kind": "pls", "n_components": 2}, k=5, seed=42)
    b = ml.kfold_cv(X, y, {"kind": "pls", "n_components": 2}, k=5, seed=42)
    assert a == b


def test_kfold_folds_partition():
    ids = [f"m{i}" for i in range(11)]
    X = np.random.default_rng(8).normal(size=(11, 2))
    rep = ml.kfold_cv(X, X[:, 0], {"kind": "krr"}, k=3, seed=2, ids=ids)
    seen = [i for fold in rep["folds"] for i in fold["validation_ids"]]
    assert sorted(seen) == sorted(ids)


def test_train_val_test_split_sizes():
    tr, va, te = ml.train_val_test_split(30, seed=7)
    assert (len(tr), len(va), len(te)) == (21, 6, 3)
    assert sorted(np.concatenate([tr, va, te])) == list(range(30))


# ---------------------------------------------------------------------------
# GP measurement optimization
# ---------------------------------------------------------------------------

def test_gp_optimize_convex_bowl():
    state = ml.gp_optimize(lambda x: (x[0] - 0.3) ** 2, [(0.0, 1.0)],
                           budget=25, seed=0)
    assert abs(state.best_point[0] - 0.3) < 0.05
    assert len(state.values) == 25
    assert np.all((state.points >= 0.0) & (state.points <= 1.0))
    assert state.best_value == state.values.min()


def test_gp_optimize_constant_objective():
    state = ml.gp_optimize(lambda x: 1.0, [(-1.0, 1.0)], budget=7, seed=1)
    assert state.best_value == 1.0


def _cholesky_loglik(X, y, ls, nv):
    """The GP log likelihood from a Cholesky factor of K = R + nv I."""
    K = ml._rbf(X, X, ls) + nv * np.eye(len(y))
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return -np.inf
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    return float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))))


def _grown(X, ls, nv):
    """Factors of K = R(ls_g) + nv_g I grown point by point through X."""
    factors = ml._GPFactors(ls, nv, X.shape[1])
    for x in X:
        factors.add(x)
    return factors


@pytest.mark.filterwarnings("error")
def test_gp_loglik_grown_factor_matches_cholesky_on_the_grid():
    # Both forms are backward stable, so each carries a relative error of about
    # n kappa(K) eps, kappa the condition number of K: 1e-10 where K is well
    # conditioned, and up to ~1e-6 at nv = 1e-8 with long length scales.
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    ls_grid = np.geomspace(0.05, 5.0, 8) * 2.0
    nv_grid = np.geomspace(1e-8, 1e-2, 4)
    well = []  # relative differences where kappa(K) < 1e4
    for n in (5, 12, 30, 60):
        for d in (1, 3, 6):
            X = rng.uniform(-1.0, 1.0, (n, d))
            y = rng.normal(size=n)
            yn = ml._standardized(y)
            got = _grown(X, np.repeat(ls_grid, 4), np.tile(nv_grid, 8)).loglik(yn)
            for ls, row in zip(ls_grid, got.reshape(8, 4)):
                lam = np.linalg.eigvalsh(ml._rbf(X, X, ls))
                for nv, value in zip(nv_grid, row):
                    ref = _cholesky_loglik(X, yn, ls, nv)
                    kappa = (lam[-1] + nv) / (lam[0] + nv)
                    rel = abs(value - ref) / abs(ref)
                    assert rel <= max(1e-10, n * kappa * eps), (n, d, ls, nv)
                    if kappa < 1e4:
                        well.append(rel)
    assert len(well) > 50 and max(well) <= 1e-10
    # At nv = -lam_min, K of the 8 points is singular and its last pivot is
    # round-off of either sign.  A ninth point makes K indefinite (R's smallest
    # eigenvalue drops below lam_min by interlacing), so no Cholesky factor
    # exists and the pivot is negative: -inf, as at nv = -1, where the first
    # pivot is 0.  A factor stays at -inf, with finite rows, once extended.
    X = rng.uniform(-1.0, 1.0, (10, 2))
    lam = np.linalg.eigvalsh(ml._rbf(X[:8], X[:8], 0.5))
    factors = _grown(X[:9], np.full(3, 0.5), np.array([-lam[0], -1.0, 1e-2]))
    y = rng.normal(size=10)
    got = factors.loglik(y[:9])
    assert got[0] == got[1] == -np.inf and np.isfinite(got[2])
    assert _cholesky_loglik(X[:9], y[:9], 0.5, -lam[0]) == -np.inf
    factors.add(X[9])
    got = factors.loglik(y)
    assert got[0] == got[1] == -np.inf and np.isfinite(got[2])
    assert np.all(np.isfinite(factors.W))


def _reference_gp_optimize(objective, bounds, budget, seed):
    """gp_optimize with the hyperparameters refit from scratch at every step: an
    eigh of each length scale's kernel gives the log likelihood at every noise
    variance, and a Cholesky factor of the winner's kernel the posterior."""
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    rng = np.random.default_rng(seed)
    ls_grid = np.geomspace(0.05, 5.0, 8) * float(np.mean(bounds[:, 1] - bounds[:, 0]))
    nv_grid = np.geomspace(1e-8, 1e-2, 4)

    def hyperparameters(X, y):
        ym, ys = y.mean(), y.std()
        yn = (y - ym) / (ys if ys > 1e-12 else 1.0)
        ll = np.empty((8, 4))
        for i, ls in enumerate(ls_grid):
            lam, Q = np.linalg.eigh(ml._rbf(X, X, ls))
            dd = lam + nv_grid[:, None]
            ll[i] = -0.5 * np.sum((Q.T @ yn) ** 2 / dd, axis=1) - 0.5 * np.sum(np.log(dd), axis=1)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        return yn, ls_grid[i], nv_grid[j]

    X = ml._latin_hypercube(5, d, bounds, rng)
    y = np.array([float(objective(x)) for x in X])
    while len(y) < budget:
        yn, ls, nv = hyperparameters(X, y)
        cand = bounds[:, 0] + rng.random((1024, d)) * (bounds[:, 1] - bounds[:, 0])
        L = np.linalg.cholesky(ml._rbf(X, X, ls) + nv * np.eye(len(y)))
        Ks = ml._rbf(cand, X, ls)
        mean = Ks @ np.linalg.solve(L.T, np.linalg.solve(L, yn))
        sd = np.sqrt(np.maximum(1.0 + nv - np.sum(np.linalg.solve(L, Ks.T) ** 2, axis=0), 1e-12))
        fbest = yn.min()
        z = (fbest - mean) / sd
        cdf = 0.5 * chem_io.erfc(-z * math.sqrt(0.5))
        pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
        x_next = cand[int(np.argmax((fbest - mean) * cdf + sd * pdf))]
        X = np.vstack([X, x_next])
        y = np.append(y, float(objective(x_next)))
    _, ls, nv = hyperparameters(X, y)
    return X, ls, nv


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("bounds, objective", [
    ([(0.0, 1.0)], lambda x: math.sin(9.0 * x[0]) + (x[0] - 0.3) ** 2),
    ([(-1.0, 1.0)] * 3,
     lambda x: float(np.sum((x - [0.4, 0.2, -0.5]) ** 2) + 0.3 * np.cos(4.0 * x[0] * x[1]))),
], ids=["1d", "3d"])
def test_gp_optimize_acquires_the_points_of_a_from_scratch_refit(seed, bounds, objective):
    state = ml.gp_optimize(objective, bounds, budget=40, seed=seed)
    X, ls, nv = _reference_gp_optimize(objective, bounds, 40, seed)
    assert np.array_equal(state.points, X)
    assert state.length_scale == ls and state.noise_variance == nv


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("at", [2, 7])  # in the initial design, in an acquisition step
def test_gp_optimize_rejects_non_finite_objective(bad, at):
    calls = []

    def objective(x):
        calls.append(x)
        return bad if len(calls) == at else float(x[0] ** 2)

    with pytest.raises(RuntimeError, match="at point") as info:
        ml.gp_optimize(objective, [(-1.0, 1.0)], budget=10, seed=0)
    assert str(calls[-1].tolist()) in str(info.value) and len(calls) == at


def test_gp_optimize_names_the_point_an_objective_fails_at():
    def objective(x):
        raise ZeroDivisionError("boom")

    with pytest.raises(RuntimeError, match="objective failed at point") as info:
        ml.gp_optimize(objective, [(-1.0, 1.0)], budget=10, seed=0)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_gp_optimize_budget_floor():
    with pytest.raises(ValueError):
        ml.gp_optimize(lambda x: 0.0, [(0, 1)], budget=3)


# ---------------------------------------------------------------------------
# time-series features, PCA, clustering
# ---------------------------------------------------------------------------

def test_ts_feature_names_and_shape():
    assert len(TS_FEATURE_NAMES) == 16
    X = np.random.default_rng(9).normal(size=(4, 12))
    assert ml.ts_feature_matrix(X).shape == (4, 16)
    with pytest.raises(ValueError):
        ml.ts_feature_matrix(np.zeros((2, 8)))


def test_ts_features_constant_series():
    feats = ml.ts_feature_matrix(np.full((1, 10), 2.5))[0]
    named = dict(zip(TS_FEATURE_NAMES, feats))
    assert named["mean"] == 2.5
    assert named["variance"] == 0.0
    assert named["trend_slope"] == pytest.approx(0.0, abs=1e-12)
    for k, v in named.items():
        if k.startswith("dft"):
            assert v == pytest.approx(0.0, abs=1e-12)


def test_ts_features_cosine_concentrates_energy():
    T = 16
    x = np.cos(2 * np.pi * 2 * np.arange(T) / T)  # frequency index 2
    feats = dict(zip(TS_FEATURE_NAMES, ml.ts_feature_matrix(x[None])[0]))
    e1 = feats["dft1_re"] ** 2 + feats["dft1_im"] ** 2
    e2 = feats["dft2_re"] ** 2 + feats["dft2_im"] ** 2
    e3 = feats["dft3_re"] ** 2 + feats["dft3_im"] ** 2
    assert e2 > 100 * max(e1, e3)


def test_ts_features_distinct_frequencies_separable():
    rng = np.random.default_rng(10)
    T, n = 24, 10
    t = np.arange(T)
    a = np.cos(2 * np.pi * 1 * t / T) + 0.05 * rng.normal(size=(n, T))
    b = np.cos(2 * np.pi * 3 * t / T) + 0.05 * rng.normal(size=(n, T))
    X = ml.ts_feature_matrix(np.vstack([a, b]))
    y = np.array([-1.0] * n + [1.0] * n)
    Xs = (X - X.mean(0)) / np.maximum(X.std(0), 1e-12)
    w = np.zeros(Xs.shape[1] + 1)
    A = np.hstack([Xs, np.ones((2 * n, 1))])
    for _ in range(200):  # perceptron
        wrong = (A @ w) * y <= 0
        if not wrong.any():
            break
        w += (y[wrong, None] * A[wrong]).sum(axis=0)
    margins = (A @ w) * y
    assert margins.min() > 0  # linearly separable


def test_pca_orders_variance():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 4)) * np.array([5.0, 1.0, 0.5, 0.1])
    scores = ml.pca_project(X, 2)
    assert scores.shape == (50, 2)
    v = scores.var(axis=0)
    assert v[0] >= v[1]
    with pytest.raises(ValueError):
        ml.pca_project(X, 5)


def test_kmeans_recovers_blobs():
    rng = np.random.default_rng(12)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    X = np.vstack([c + 0.3 * rng.normal(size=(20, 2)) for c in centers])
    labels, inertia = ml.kmeans_cluster(X, 3, seed=0)
    # each blob maps to a single cluster
    for g in range(3):
        assert len(set(labels[20 * g:20 * (g + 1)])) == 1
    assert len(set(labels)) == 3
    labels2, inertia2 = ml.kmeans_cluster(X, 3, seed=0)
    assert np.array_equal(labels, labels2) and inertia == inertia2


# ---------------------------------------------------------------------------
# the H2 study end to end (library level)
# ---------------------------------------------------------------------------

def test_h2_krr_study_validation_r2():
    zs = np.linspace(1.0, 3.0, 30)
    grid = np.linspace(0, 4, 8)
    X = np.stack([
        ml.compute_fingerprint(dmet_h2(z), "hf_ground", grid).values for z in zs
    ])
    tr, va, _ = ml.train_val_test_split(30, seed=7)
    predict = ml.krr_fit(X[tr], zs[tr], length_scale=1.0, ridge=1e-6)
    pred = predict(X[va])
    r2 = 1 - np.sum((pred - zs[va]) ** 2) / np.sum((zs[va] - zs[va].mean()) ** 2)
    assert r2 > 0.9
