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
from scipy.special import ndtr

from qfp import quantum_sim
from qfp.embedding import EmbeddedHamiltonian

__all__ = [
    "Fingerprint",
    "PLSModel",
    "KRRModel",
    "CVReport",
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
    """Per-molecule time series of an observable on a shared grid (t_H units)."""

    molecule_id: str
    time_grid: np.ndarray
    label: str
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float)
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite fingerprint values")


def _evolved_states(eh: EmbeddedHamiltonian, initial_kind: str, time_grid, evolver):
    """Yield the state at each grid time for the requested evolver spec.

    evolver: {"kind": "exact"} or {"kind": "trotter", "order": o, "r": r}.
    Either kind evolves all grid times together as one (T, 2^n) batch.  The
    exact evolver propagates the sector blocks psi0 touches (see
    ExactEvolver).  A trotter evolver applies trotter_sequence(H, t, o, r) at
    each grid time, so its r steps span the whole of [0, t]: the step size
    grows with t.  The sequence is built once on the whole grid and run by
    run_sequence (memory: see run_sequence).
    """
    ph = quantum_sim.jordan_wigner(eh)
    n_qubits = 2 * eh.n_active_orbitals
    _, psi0 = quantum_sim.prepare_initial(initial_kind, n_qubits, eh.n_active_electrons)
    kind = evolver.get("kind", "exact")
    if kind == "exact":
        yield from quantum_sim.ExactEvolver(ph).evolve(psi0, time_grid)
    elif kind == "trotter":
        order = int(evolver.get("order", 2))
        r = int(evolver.get("r", 1))
        yield from quantum_sim.run_sequence(
            quantum_sim.trotter_sequence(ph, time_grid, order=order, r=r), psi0)
    else:
        raise ValueError(f"unknown evolver kind {kind!r}")


def compute_fingerprint(
    eh: EmbeddedHamiltonian,
    initial_kind: str,
    time_grid,
    observable: dict | None = None,
    evolver: dict | None = None,
    molecule_id: str = "",
) -> Fingerprint:
    """Evolve and measure: one observable value per grid point.

    observable: {"kind": "F"} (energy-weighted density, the default) or
    {"kind": "O", "matrix": O} for a general one-body operator.  For the
    whole one-body density matrix along the evolution, use rdm_trajectory.
    """
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid.size == 0:
        raise ValueError("empty time grid")
    observable = observable or {"kind": "F"}
    evolver = evolver or {"kind": "exact"}
    measure = _observable_fn(eh, observable)
    rows = [measure(psi) for psi in _evolved_states(eh, initial_kind, time_grid, evolver)]
    label = "custom-O" if observable["kind"] == "O" else observable["kind"]
    return Fingerprint(
        molecule_id=molecule_id,
        time_grid=time_grid,
        label=f"{label}|{evolver.get('kind', 'exact')}",
        values=np.asarray(rows),
    )


def _observable_fn(eh: EmbeddedHamiltonian, observable: dict):
    """psi -> value of an observable spec (see compute_fingerprint)."""
    kind = observable["kind"]
    if kind not in ("F", "O"):
        raise ValueError(f"unknown observable kind {kind!r}")
    O = eh.h_eff if kind == "F" else np.asarray(observable["matrix"], dtype=float)
    return lambda psi: quantum_sim.expval_O(O, quantum_sim.rdm1(psi))


def rdm_trajectory(eh: EmbeddedHamiltonian, initial_kind: str, time_grid,
                   evolver: dict | None = None) -> np.ndarray:
    """One-body density matrices along the evolution, shape (T, n, n).

    Lets linear observables O be swept cheaply after a single simulation.
    """
    evolver = evolver or {"kind": "exact"}
    return np.stack([
        quantum_sim.rdm1(psi)
        for psi in _evolved_states(eh, initial_kind, np.asarray(time_grid, float), evolver)
    ])


def one_body_features(rdm_traj: np.ndarray, O: np.ndarray) -> np.ndarray:
    """<O(t)> per molecule from cached density trajectories (n_mol, T, n, n)."""
    return np.real(np.einsum("mtrs,rs->mt", rdm_traj, O, optimize=True))


# ---------------------------------------------------------------------------
# PLS regression (NIPALS)
# ---------------------------------------------------------------------------

@dataclass
class PLSModel:
    n_components: int
    x_mean: np.ndarray
    y_mean: float
    weights: np.ndarray       # n_features x n_components
    loadings: np.ndarray      # n_features x n_components
    coefficients: np.ndarray  # n_features
    column_mask: np.ndarray   # features retained after zero-variance drop


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
    return PLSModel(
        n_components=used,
        x_mean=full_mean,
        y_mean=y_mean,
        weights=W,
        loadings=P,
        coefficients=full_coef,
        column_mask=mask,
    )


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

@dataclass
class CVReport:
    model_spec: dict
    k: int
    seed: int
    r2: float
    rmse: float
    folds: list  # [(train ids, validation ids, predictions)]

    def to_json_dict(self) -> dict:
        return {
            "model_spec": self.model_spec,
            "k": self.k,
            "seed": self.seed,
            "r2": self.r2,
            "rmse": self.rmse,
            "folds": [
                {
                    "train_ids": list(tr),
                    "validation_ids": list(va),
                    "predictions": [float(p) for p in pred],
                }
                for tr, va, pred in self.folds
            ],
        }


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


def kfold_cv(X, y, model_spec: dict, k: int = 5, seed: int = 0, ids=None) -> CVReport:
    """Seeded shuffle + contiguous folds; pooled out-of-fold metrics."""
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
        folds.append((
            [ids[i] for i in tr], [ids[i] for i in va], pv.tolist(),
        ))

    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rmse = math.sqrt(ss_res / n)
    return CVReport(model_spec=dict(model_spec), k=k, seed=seed, r2=r2,
                    rmse=rmse, folds=folds)


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
    signal_variance: float
    noise_variance: float
    bounds: np.ndarray
    best_point: np.ndarray = field(default=None)
    best_value: float = float("inf")

    def __post_init__(self):
        i = int(np.argmin(self.values))
        self.best_point = self.points[i].copy()
        self.best_value = float(self.values[i])


def _latin_hypercube(n, d, bounds, rng):
    u = (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.random((n, d))) / n
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def _gp_loglik(X, y, ls, sv, nv):
    K = sv * _rbf(X, X, ls) + nv * np.eye(len(y))
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return -np.inf
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    return float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))))


def _gp_hyperparameters(X, y, bounds):
    """Standardized y and the (length scale, signal, noise variance) of the
    fixed log-grid with the highest marginal likelihood."""
    ym, ys = y.mean(), y.std()
    ys = ys if ys > 1e-12 else 1.0
    yn = (y - ym) / ys
    ls_grid = np.geomspace(0.05, 5.0, 8) * float(np.mean(bounds[:, 1] - bounds[:, 0]))
    nv_grid = np.geomspace(1e-8, 1e-2, 4)
    best = (-np.inf, ls_grid[0], 1.0, nv_grid[0])
    for ls in ls_grid:
        for nv in nv_grid:
            ll = _gp_loglik(X, yn, ls, 1.0, nv)
            if ll > best[0]:
                best = (ll, ls, 1.0, nv)
    return (yn, *best[1:])


def _gp_posterior(X, y, Xs, ls, sv, nv):
    K = sv * _rbf(X, X, ls) + nv * np.eye(len(y))
    Ks = sv * _rbf(Xs, X, ls)
    L = np.linalg.cholesky(K)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    mean = Ks @ alpha
    v = np.linalg.solve(L, Ks.T)
    var = np.maximum(sv + nv - np.sum(v ** 2, axis=0), 1e-12)
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
        yn, ls, sv, nv = _gp_hyperparameters(X, y, bounds)
        cand = bounds[:, 0] + rng.random((1024, d)) * (bounds[:, 1] - bounds[:, 0])
        mean, var = _gp_posterior(X, yn, cand, ls, sv, nv)
        sd = np.sqrt(var)
        fbest = yn.min()
        z = (fbest - mean) / sd
        # Expected improvement for minimization.  ndtr and this pdf are bit for bit
        # scipy.stats.norm's cdf and pdf, without its 0.3 s import.
        pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
        ei = (fbest - mean) * ndtr(z) + sd * pdf
        x_next = cand[int(np.argmax(ei))]
        try:
            y_next = float(objective(x_next))
        except Exception as exc:
            raise RuntimeError(f"objective failed at point {x_next.tolist()}") from exc
        X = np.vstack([X, x_next])
        y = np.append(y, y_next)

    _, ls, sv, nv = _gp_hyperparameters(X, y, bounds)
    return GPState(points=X, values=y, length_scale=ls,
                   signal_variance=sv, noise_variance=nv, bounds=bounds)


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
    """Scores of column-standardized X on its top-n covariance eigenvectors."""
    X = np.asarray(X, dtype=float)
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
