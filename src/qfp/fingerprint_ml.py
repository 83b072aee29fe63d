"""Temporal fingerprints and the data-driven layer on top of them.

PLS (NIPALS), kernel ridge regression, GP-based measurement optimization,
fixed time-series features, PCA and k-means.  Everything is deterministic
given the data and seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from qfp import quantum_sim
from qfp.embedding import EmbeddedHamiltonian

__all__ = [
    "Fingerprint",
    "PLSModel",
    "KRRModel",
    "GPState",
    "compute_fingerprint",
    "rdm_trajectory",
    "one_body_features",
    "pls_fit",
    "pls_predict",
    "kfold_cv",
    "krr_fit",
    "krr_predict",
    "gp_optimize",
    "ts_feature_matrix",
    "TS_FEATURE_NAMES",
    "pca_project",
    "kmeans_cluster",
    "train_val_test_split",
]


@dataclass
class Fingerprint:
    """An observable's time series on a grid (t_H units)."""

    time_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float)
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite fingerprint values")


def _trotter_steps(evolver: dict):
    """(order, r) of a trotter evolver spec: 2 and 1 unless it sets them."""
    return int(evolver.get("order", 2)), int(evolver.get("r", 1))


def compute_fingerprint(
    eh: EmbeddedHamiltonian,
    initial_kind: str,
    time_grid,
    observable: dict | None = None,
    evolver: dict | None = None,
    noise: dict | None = None,
) -> Fingerprint:
    """Evolve and measure: one observable value per grid point.

    observable: {"kind": "F"} (energy-weighted density, the default) or
    {"kind": "O", "matrix": O} for a general one-body operator.  evolver: see
    rdm_trajectory.  For the whole one-body density matrix along the
    evolution, use rdm_trajectory.

    noise: None, or {"p": p, "scale": s, "n_trajectories": K, "seed": seed}
    (defaults 1, 100 and 0) for gate-level noise on a trotter evolver.  The
    value at t_i is then the noisy_expectation of the whole-interval circuit
    prep + trotter_sequence(H, t_i, order, r) with seed + i, so r counts the
    steps over [0, t_i]; a ValueError for any other evolver.
    """
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid.size == 0:
        raise ValueError("empty time grid")
    evolver = evolver or {"kind": "exact"}
    O = _observable_matrix(eh, observable or {"kind": "F"})
    if noise is None:
        rdms = rdm_trajectory(eh, initial_kind, time_grid, evolver)
        return Fingerprint(time_grid, quantum_sim.expval_O(O, rdms))
    if evolver.get("kind", "exact") != "trotter":
        raise ValueError("noise requires a trotter evolver (gate-level noise)")
    ph = quantum_sim.jordan_wigner(eh)
    prep, _ = quantum_sim.prepare_initial(initial_kind, ph.n_qubits, eh.n_active_electrons)
    ns = quantum_sim.NoiseSpec(p=noise["p"], scale=noise.get("scale", 1))
    values = [quantum_sim.noisy_expectation(
        prep + quantum_sim.trotter_sequence(ph, float(t), *_trotter_steps(evolver)), O, ns,
        n_trajectories=noise.get("n_trajectories", 100), seed=noise.get("seed", 0) + i)[0]
        for i, t in enumerate(time_grid)]
    return Fingerprint(time_grid, np.asarray(values))


def _observable_matrix(eh: EmbeddedHamiltonian, observable: dict) -> np.ndarray:
    """The one-body operator of an observable spec (see compute_fingerprint)."""
    kind = observable["kind"]
    if kind not in ("F", "O"):
        raise ValueError(f"unknown observable kind {kind!r}")
    return eh.h_eff if kind == "F" else np.asarray(observable["matrix"], dtype=float)


def rdm_trajectory(eh: EmbeddedHamiltonian, initial_kind: str, time_grid,
                   evolver: dict | None = None) -> np.ndarray:
    """One-body density matrices along the evolution, shape (T, n, n).

    evolver: {"kind": "exact"} (the default) or {"kind": "trotter", "order":
    o, "r": r}.  The exact evolver propagates the sector blocks psi0 touches
    (see ExactEvolver).  A trotter evolver steps psi from one grid time to
    the next with r steps of order o per interval (see trotter_evolve), so
    its step does not grow with t.  Lets linear observables O be swept
    cheaply after a single simulation.
    """
    evolver = evolver or {"kind": "exact"}
    time_grid = np.asarray(time_grid, float)
    ph = quantum_sim.jordan_wigner(eh)
    _, psi0 = quantum_sim.prepare_initial(initial_kind, ph.n_qubits, eh.n_active_electrons)
    kind = evolver.get("kind", "exact")
    if kind == "exact":
        states = quantum_sim.ExactEvolver(ph).evolve(psi0, time_grid)
    elif kind == "trotter":
        states = quantum_sim.trotter_evolve(ph, psi0, time_grid, *_trotter_steps(evolver))
    else:
        raise ValueError(f"unknown evolver kind {kind!r}")
    return quantum_sim.rdm1(states)


def one_body_features(rdm_traj: np.ndarray, O: np.ndarray) -> np.ndarray:
    """<O(t)> per molecule from cached density trajectories (n_mol, T, n, n)."""
    return np.real(np.einsum("mtrs,rs->mt", rdm_traj, O, optimize=True))


# ---------------------------------------------------------------------------
# PLS regression (NIPALS)
# ---------------------------------------------------------------------------

@dataclass
class PLSModel:
    x_mean: np.ndarray
    y_mean: float
    coefficients: np.ndarray  # n_features, 0 on dropped zero-variance columns


def pls_fit(X: np.ndarray, y: np.ndarray, n_components: int) -> PLSModel:
    """PLS1 via NIPALS deflation."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n_samples, n_features_all = X.shape
    mask = X.std(axis=0) > 1e-14
    if not mask.all():
        warnings.warn(f"dropping {int((~mask).sum())} zero-variance feature columns")
    Xm = X[:, mask]
    n_features = Xm.shape[1]
    if n_components > min(n_samples - 1, n_features):
        raise ValueError(
            f"n_components={n_components} exceeds min(n_samples-1, n_features)"
            f"={min(n_samples - 1, n_features)}"
        )
    x_mean = Xm.mean(axis=0)
    y_mean = float(y.mean())
    E = Xm - x_mean
    f = y - y_mean

    W = np.zeros((n_features, n_components))
    P = np.zeros((n_features, n_components))
    q = np.zeros(n_components)
    used = 0
    for a in range(n_components):
        w = E.T @ f
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            break
        w /= nw
        t = E @ w
        tt = t @ t
        if tt < 1e-14:
            break
        p = E.T @ t / tt
        qa = f @ t / tt
        E = E - np.outer(t, p)
        f = f - qa * t
        W[:, a], P[:, a], q[a] = w, p, qa
        used = a + 1
    W, P, q = W[:, :used], P[:, :used], q[:used]
    if used:
        coef = W @ np.linalg.solve(P.T @ W, q)
    else:
        coef = np.zeros(n_features)

    full_mean = np.zeros(n_features_all)
    full_mean[mask] = x_mean
    full_coef = np.zeros(n_features_all)
    full_coef[mask] = coef
    return PLSModel(x_mean=full_mean, y_mean=y_mean, coefficients=full_coef)


def pls_predict(model: PLSModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return (X - model.x_mean) @ model.coefficients + model.y_mean


# ---------------------------------------------------------------------------
# Kernel ridge regression
# ---------------------------------------------------------------------------

@dataclass
class KRRModel:
    X_train: np.ndarray
    dual_coef: np.ndarray
    length_scale: float
    ridge: float


# RBF length scales a model accepts; above the maximum, length_scale ** 2 overflows.
LENGTH_SCALE_RANGE = (1e-12, 1e150)


def _rbf(A, B, length_scale):
    d2 = np.sum(A ** 2, axis=1)[:, None] + np.sum(B ** 2, axis=1)[None, :] - 2 * A @ B.T
    return np.exp(-0.5 * np.maximum(d2, 0.0) / length_scale ** 2)


def krr_fit(X: np.ndarray, y: np.ndarray, length_scale: float = 1.0,
            ridge: float = 1e-6) -> KRRModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    ridge = max(ridge, 1e-10)  # conditioning floor
    K = _rbf(X, X, length_scale)
    alpha = np.linalg.solve(K + ridge * np.eye(len(y)), y)
    return KRRModel(X_train=X.copy(), dual_coef=alpha, length_scale=length_scale, ridge=ridge)


def krr_predict(model: KRRModel, X: np.ndarray) -> np.ndarray:
    K = _rbf(np.asarray(X, dtype=float), model.X_train, model.length_scale)
    return K @ model.dual_coef


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def _fit_model(spec: dict, X, y):
    kind = spec["kind"]
    if kind == "pls":
        m = pls_fit(X, y, int(spec["n_components"]))
        return lambda Z: pls_predict(m, Z)
    if kind == "krr":
        m = krr_fit(X, y, length_scale=float(spec.get("length_scale", 1.0)),
                    ridge=float(spec.get("ridge", 1e-6)))
        return lambda Z: krr_predict(m, Z)
    raise ValueError(f"unknown model kind {kind!r}")


# Features near 1e154 or above overflow the fits to inf or nan without a
# warning; the caller rejects a non-finite R2 or RMSE.
@np.errstate(over="ignore", invalid="ignore")
def kfold_cv(X, y, model_spec: dict, k: int = 5, seed: int = 0, ids=None) -> dict:
    """Seeded shuffle + contiguous folds; pooled out-of-fold metrics.

    Returns the cv_report.json object: model_spec, k, seed, r2, rmse and
    folds, one {train_ids, validation_ids, predictions} per fold.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = len(y)
    if k < 2:
        raise ValueError("need k >= 2 folds")
    if n < k:
        raise ValueError("fewer samples than folds")
    if ids is None:
        ids = [str(i) for i in range(n)]
    order = np.random.default_rng(seed).permutation(n)
    bounds = np.linspace(0, n, k + 1).astype(int)

    pred = np.empty(n)
    folds = []
    for f in range(k):
        va = order[bounds[f]:bounds[f + 1]]
        tr = np.concatenate([order[:bounds[f]], order[bounds[f + 1]:]])
        predict = _fit_model(model_spec, X[tr], y[tr])
        pv = predict(X[va])
        pred[va] = pv
        folds.append({"train_ids": [ids[i] for i in tr],
                      "validation_ids": [ids[i] for i in va],
                      "predictions": pv.tolist()})

    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rmse = math.sqrt(ss_res / n)
    return {"model_spec": dict(model_spec), "k": k, "seed": seed, "r2": r2,
            "rmse": rmse, "folds": folds}


def train_val_test_split(n: int, seed: int):
    """Seeded random 70/20/10 index split; sizes round to those fractions."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.2 * n))
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


# ---------------------------------------------------------------------------
# GP measurement optimization
# ---------------------------------------------------------------------------

@dataclass
class GPState:
    points: np.ndarray
    values: np.ndarray
    length_scale: float
    noise_variance: float
    best_point: np.ndarray = field(default=None)
    best_value: float = float("inf")
    signal_variance = 1.0  # not a field: the kernel is unit-signal, y is standardized

    def __post_init__(self):
        i = int(np.argmin(self.values))
        self.best_point = self.points[i].copy()
        self.best_value = float(self.values[i])


def _latin_hypercube(n, d, bounds, rng):
    u = (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.random((n, d))) / n
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def _gp_loglik(X, y, ls, nv):
    """Log marginal likelihood (up to a constant) of y under a unit-signal RBF GP, at
    each noise variance of the array nv: K = R + nv I shares R's eigenvectors Q, so
    it is -1/2 sum b^2 / (lam + nv) - 1/2 sum log(lam + nv), b = Q^T y, or -inf
    where some lam + nv <= 0 (K not positive definite)."""
    lam, Q = np.linalg.eigh(_rbf(X, X, ls))
    d = lam + nv[:, None]
    ok = np.all(d > 0, axis=1)
    d[~ok] = 1.0
    ll = -0.5 * np.sum((Q.T @ y) ** 2 / d, axis=1) - 0.5 * np.sum(np.log(d), axis=1)
    return np.where(ok, ll, -np.inf)


def _gp_hyperparameters(X, y, bounds):
    """Standardized y and the (length scale, noise variance) of the fixed
    log-grid with the highest marginal likelihood (the first on a tie)."""
    ym, ys = y.mean(), y.std()
    ys = ys if ys > 1e-12 else 1.0
    yn = (y - ym) / ys
    ls_grid = np.geomspace(0.05, 5.0, 8) * float(np.mean(bounds[:, 1] - bounds[:, 0]))
    nv_grid = np.geomspace(1e-8, 1e-2, 4)
    ll = np.array([_gp_loglik(X, yn, ls, nv_grid) for ls in ls_grid])
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    return yn, ls_grid[i], nv_grid[j]


def _gp_posterior(X, y, Xs, ls, nv):
    K = _rbf(X, X, ls) + nv * np.eye(len(y))
    Ks = _rbf(Xs, X, ls)
    L = np.linalg.cholesky(K)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    mean = Ks @ alpha
    v = np.linalg.solve(L, Ks.T)
    var = np.maximum(1.0 + nv - np.sum(v ** 2, axis=0), 1e-12)
    return mean, var


def gp_optimize(objective, bounds, budget: int = 25, seed: int = 0) -> GPState:
    """Minimize a deterministic objective with a GP surrogate + EI acquisition.

    5 Latin-hypercube points start the design; hyperparameters are refit on
    a fixed log-grid by marginal likelihood before each acquisition step,
    which picks the best of 1024 uniform random candidates.
    """
    if budget < 5:
        raise ValueError("budget must allow the 5-point initial design")
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    rng = np.random.default_rng(seed)

    X = _latin_hypercube(5, d, bounds, rng)
    y = np.array([float(objective(x)) for x in X])

    while len(y) < budget:
        yn, ls, nv = _gp_hyperparameters(X, y, bounds)
        cand = bounds[:, 0] + rng.random((1024, d)) * (bounds[:, 1] - bounds[:, 0])
        mean, var = _gp_posterior(X, yn, cand, ls, nv)
        sd = np.sqrt(var)
        fbest = yn.min()
        z = (fbest - mean) / sd
        # Expected improvement for minimization.  The normal cdf as erfc(-z/√2)/2
        # keeps the lower tail, where 1 + erf(z/√2) would cancel; it agrees with
        # scipy.special.ndtr to 3e-15 relative for z >= -8 and to 6e-14 below.
        # This pdf is bit for bit scipy.stats.norm's.
        cdf = np.array([0.5 * math.erfc(-v * math.sqrt(0.5)) for v in z.tolist()])
        pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
        ei = (fbest - mean) * cdf + sd * pdf
        x_next = cand[int(np.argmax(ei))]
        try:
            y_next = float(objective(x_next))
        except Exception as exc:
            raise RuntimeError(f"objective failed at point {x_next.tolist()}") from exc
        X = np.vstack([X, x_next])
        y = np.append(y, y_next)

    _, ls, nv = _gp_hyperparameters(X, y, bounds)
    return GPState(points=X, values=y, length_scale=ls, noise_variance=nv)


# ---------------------------------------------------------------------------
# Time-series features, PCA, k-means
# ---------------------------------------------------------------------------

TS_FEATURE_NAMES = (
    "mean", "variance", "min", "max", "final_minus_initial", "mean_abs_diff",
    "autocorr_lag1", "autocorr_lag2", "autocorr_lag4", "trend_slope",
    "dft1_re", "dft1_im", "dft2_re", "dft2_im", "dft3_re", "dft3_im",
)


def _autocorr(x, lag):
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom < 1e-30:
        return 0.0
    return float(xc[:-lag] @ xc[lag:]) / denom


# Values near 1e154 or above overflow the variance to inf or nan without a
# warning; the caller rejects non-finite features.
@np.errstate(over="ignore", invalid="ignore")
def ts_feature_matrix(series: np.ndarray, time_grid=None) -> np.ndarray:
    """Fixed 16-feature summary per series (rows), see TS_FEATURE_NAMES."""
    series = np.atleast_2d(np.asarray(series, dtype=float))
    n, T = series.shape
    if T < 9:
        raise ValueError("series must have at least 9 points (lag-4 + DFT)")
    t = np.arange(T, dtype=float) if time_grid is None else np.asarray(time_grid, float)
    out = np.empty((n, 16))
    for i, x in enumerate(series):
        dft = np.fft.rfft(x - x.mean())
        with warnings.catch_warnings():
            # polyfit warns on a grid spanning ~1e154 or more; the slope it
            # returns there is about 0, as the least-squares slope is.
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            slope = np.polyfit(t, x, 1)[0]
        out[i] = [
            x.mean(), x.var(), x.min(), x.max(), x[-1] - x[0],
            float(np.mean(np.abs(np.diff(x)))),
            _autocorr(x, 1), _autocorr(x, 2), _autocorr(x, 4),
            slope,
            dft[1].real, dft[1].imag, dft[2].real, dft[2].imag,
            dft[3].real, dft[3].imag,
        ]
    return out


def pca_project(X: np.ndarray, n: int):
    """Scores of column-standardized X on its top-n covariance eigenvectors.

    Raises FloatingPointError if a column's variance overflows (values near
    1e154 or above), which would otherwise zero that column.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(over="raise"):
        std = X.std(axis=0)
    mask = std > 1e-14
    Xs = (X[:, mask] - X[:, mask].mean(axis=0)) / std[mask]
    if n > min(Xs.shape):
        raise ValueError("requested more components than the data supports")
    cov = np.cov(Xs, rowvar=False)
    w, V = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:n]
    return Xs @ V[:, order]


def kmeans_cluster(X: np.ndarray, k: int, seed: int = 0):
    """Seeded k-means++, best of 50 restarts of at most 300 Lloyd steps each.

    Returns (labels, inertia).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if k < 1 or k > n:
        raise ValueError("k must be in 1..n_samples")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(50):
        centers = _kmeanspp(X, k, rng)
        for _ in range(300):
            d2 = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            labels = np.argmin(d2, axis=1)
            new_centers = centers.copy()
            for j in range(k):
                pts = X[labels == j]
                if len(pts):
                    new_centers[j] = pts.mean(axis=0)
            if np.allclose(new_centers, centers):
                break
            centers = new_centers
        inertia = float(np.sum((X - centers[labels]) ** 2))
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels.copy()
    return best_labels, best_inertia


def _kmeanspp(X, k, rng):
    n = X.shape[0]
    centers = [X[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            np.sum((X[:, None, :] - np.array(centers)[None, :, :]) ** 2, axis=2),
            axis=1,
        )
        total = d2.sum()
        if total < 1e-30:
            centers.append(X[rng.integers(n)])
            continue
        centers.append(X[rng.choice(n, p=d2 / total)])
    return np.array(centers)
