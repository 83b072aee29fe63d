"""Span tracing around the public functions of each qfp layer.

`install()` replaces each function named in WRAPPED with a wrapper that
records a span (name, parent, molecule id, start, end) and the counters of
that row.  Spans stay in memory; `layer_metrics()` turns them into
per-layer self times and counts when the run ends.  Nothing in `src/` is
modified: wrappers are set as module (or class) attributes, and every
`from module import name` copy inside the package is rebound too.

A layer's self time is its spans' durations minus the part of each
interval that child spans cover.

Spans opened on a pool thread with no open parent hang under the
`pipeline.run_fingerprints` span that is open at the time, and carry the
molecule id set when `pipeline.build_molecule(entry)` was entered on that
thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from contextlib import contextmanager

import numpy as np


def _calls(counter):
    return lambda a, out: {counter: 1}


def _scf(a, out):
    return {"mean_field.scf_iterations": out.n_iterations,
            "mean_field.unconverged": int(not out.converged)}


def _cluster(a, out):
    return {"embedding.cluster_orbitals": out.n_active_orbitals}


def _jw(a, out):
    return {"quantum_sim.pauli_terms": len(out.terms),
            "quantum_sim.n_qubits": out.n_qubits}


def _gates(a, out):
    gs = a["gs"]
    n = len(gs.gates)
    # Each gate reads and writes the whole complex128 statevector once.
    return {"quantum_sim.gates_applied": n,
            "quantum_sim.bytes_moved_computed": n * (1 << gs.n_qubits) * 16 * 2}


def _noisy(a, out):
    folded = len(a["gs"].gates) * int(round(a["ns"].scale))
    return {"quantum_sim.trajectories": a["n_trajectories"],
            "quantum_sim.noisy_gates_applied": folded * a["n_trajectories"]}


def _gp(a, out):
    return {"fingerprint_ml.gp_evals": len(out.values)}


# The one table of wrapped functions: (module, attribute, self-time metric,
# counter).  A counter maps (bound arguments, result) to {name: count}.  A row
# whose function no longer exists is reported as an absent span.  Per-gate
# helpers such as apply_pauli (about 10^6 calls a run) are deliberately left out.
WRAPPED = (
    ("chem_io", "s_orbital_integrals", "chem_io.integrals_s", None),
    ("chem_io", "load_manifest", "chem_io.io_s", None),
    ("chem_io", "parse_fcidump", "chem_io.io_s", None),
    ("chem_io", "save_features", "chem_io.io_s", None),
    ("chem_io", "load_features", "chem_io.io_s", None),
    ("mean_field", "scf_solve", "mean_field.scf_s", _scf),
    ("embedding", "localize_integrals", "embedding.setup_s", None),
    ("embedding", "dmet_cluster_basis", "embedding.setup_s", None),
    ("embedding", "homo_lumo_active_space", "embedding.setup_s", None),
    ("embedding", "fit_chemical_potential", "embedding.mu_fit_s", None),
    ("fci", "fci_ground_state", "fci.solve_s", _calls("fci.solves")),
    ("quantum_sim", "jordan_wigner", "quantum_sim.jw_s", _jw),
    ("quantum_sim", "ExactEvolver.__init__", "quantum_sim.exact_build_s", None),
    ("quantum_sim", "ExactEvolver.evolve", "quantum_sim.exact_evolve_s", None),
    ("quantum_sim", "trotter_sequence", "quantum_sim.trotter_build_s", None),
    ("quantum_sim", "run_sequence", "quantum_sim.run_sequence_s", _gates),
    ("quantum_sim", "noisy_expectation", "quantum_sim.noisy_s", _noisy),
    ("quantum_sim", "rdm1", "quantum_sim.rdm1_s", _calls("quantum_sim.rdm1_calls")),
    ("fingerprint_ml", "compute_fingerprint", "fingerprint_ml.fingerprint_s", None),
    ("fingerprint_ml", "rdm_trajectory", "fingerprint_ml.fingerprint_s", None),
    ("fingerprint_ml", "kfold_cv", "fingerprint_ml.cv_s", None),
    ("fingerprint_ml", "ts_feature_matrix", "fingerprint_ml.cluster_s", None),
    ("fingerprint_ml", "pca_project", "fingerprint_ml.cluster_s", None),
    ("fingerprint_ml", "kmeans_cluster", "fingerprint_ml.cluster_s", None),
    ("fingerprint_ml", "gp_optimize", "fingerprint_ml.gp_s", _gp),
    ("pipeline", "run_fingerprints", "pipeline.self_s", None),
    ("pipeline", "build_molecule", "pipeline.self_s", None),
    ("pipeline", "embed_molecule", "pipeline.self_s", _cluster),
)
COUNTERS = ("fci.solves", "quantum_sim.gates_applied", "quantum_sim.bytes_moved_computed",
            "quantum_sim.trajectories", "quantum_sim.noisy_gates_applied",
            "quantum_sim.rdm1_calls", "quantum_sim.pauli_terms", "quantum_sim.n_qubits",
            "mean_field.scf_iterations", "mean_field.unconverged",
            "embedding.cluster_orbitals", "fingerprint_ml.gp_evals")
MAX_COUNTERS = ("quantum_sim.n_qubits", "embedding.cluster_orbitals")
RUN_FINGERPRINTS = "pipeline.run_fingerprints"
BUILD_MOLECULE = "pipeline.build_molecule"
MU_FIT = "embedding.fit_chemical_potential"
FCI_SOLVE = "fci.fci_ground_state"
# Every per-layer metric a traced benchmark run reports, with its unit.
LAYER_UNITS = {
    "fci.solve_s": "s", "fci.solves": "count",
    "embedding.mu_fit_s": "s", "embedding.mu_fit_evals": "count",
    "embedding.setup_s": "s", "embedding.cluster_orbitals": "count",
    "quantum_sim.run_sequence_s": "s", "quantum_sim.trotter_build_s": "s",
    "quantum_sim.gates_applied": "count", "quantum_sim.gates_per_s": "1/s",
    "quantum_sim.bytes_moved_computed": "B",
    "quantum_sim.noisy_s": "s", "quantum_sim.trajectories": "count",
    "quantum_sim.noisy_gates_applied": "count",
    "quantum_sim.rdm1_s": "s", "quantum_sim.rdm1_calls": "count",
    "quantum_sim.exact_build_s": "s", "quantum_sim.exact_evolve_s": "s",
    "quantum_sim.jw_s": "s", "quantum_sim.pauli_terms": "count",
    "quantum_sim.n_qubits": "count",
    "mean_field.scf_s": "s", "mean_field.scf_iterations": "count",
    "mean_field.unconverged": "count",
    "chem_io.integrals_s": "s", "chem_io.io_s": "s",
    "fingerprint_ml.fingerprint_s": "s", "fingerprint_ml.cv_s": "s",
    "fingerprint_ml.cluster_s": "s", "fingerprint_ml.gp_s": "s",
    "fingerprint_ml.gp_evals": "count",
    "pipeline.self_s": "s", "pipeline.molecule_p50_s": "s",
    "pipeline.molecule_p90_s": "s", "pipeline.pool_efficiency": "ratio",
    "pipeline.molecules_traced": "count", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.thread_s": "s",
    "trace.dominant_share": "ratio", "trace.absent_spans": "count",
    "trace.counter_errors": "count", "fail_ratio": "ratio",
}
PACKAGE_MODULES = ("chem_io", "mean_field", "embedding", "fci", "quantum_sim",
                   "fingerprint_ml", "pipeline", "cli")


class Span:
    __slots__ = ("name", "parent", "molecule", "t0", "t1")

    def __init__(self, name, parent, molecule):
        self.name, self.parent, self.molecule = name, parent, molecule
        self.t0, self.t1 = time.perf_counter(), None


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.counter_errors = 0
        self.absent = []
        self.pool_parent = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack, self._local.molecule = [], None
        return self._local.stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not self._main:
            parent = self.pool_parent
        else:
            parent = None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(name, parent, self._local.molecule))
        stack.append(sid)
        if name == RUN_FINGERPRINTS:
            self.pool_parent = sid
        return sid

    def close(self, sid):
        span = self.spans[sid]
        span.t1 = time.perf_counter()
        self._local.stack.pop()
        if span.name == RUN_FINGERPRINTS:
            self.pool_parent = None

    def set_molecule(self, molecule_id):
        self._stack()
        self._local.molecule = molecule_id

    def count(self, values):
        with self._lock:
            for k, v in values.items():
                if k in MAX_COUNTERS:
                    self.counters[k] = max(self.counters.get(k, 0), v)
                else:
                    self.counters[k] = self.counters.get(k, 0) + v

    @contextmanager
    def step(self, label):
        """Root span for one CLI step run on the main thread."""
        sid = self.open(f"cli.{label}")
        try:
            yield
        finally:
            self.close(sid)
            self._local.molecule = None


def _wrap(rec, name, fn, counter):
    sig = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name == BUILD_MOLECULE and args:
            rec.set_molecule(getattr(args[0], "molecule_id", None))
        sid = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if counter is not None:
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.count(counter(bound.arguments, out))
            except Exception:  # a refactored signature must not stop the run
                rec.counter_errors += 1
        return out

    return wrapper


def install() -> Recorder:
    """Wrap every function of WRAPPED that exists; return the recorder."""
    rec = Recorder()
    modules = [importlib.import_module(f"qfp.{m}") for m in PACKAGE_MODULES]
    for module, attr, _, counter in WRAPPED:
        name = f"{module}.{attr}"
        owner = importlib.import_module(f"qfp.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if not callable(fn):
            rec.absent.append(name)
            continue
        wrapped = _wrap(rec, name, fn, counter)
        setattr(owner, leaf, wrapped)
        if not path:
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, k, wrapped)
    return rec


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    intervals = {}
    for s in spans:
        if s.parent is not None:
            intervals.setdefault(s.parent, []).append((s.t0, s.t1))
    return [s.t1 - s.t0 - _covered(intervals.get(i, ())) for i, s in enumerate(spans)]


def _ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return None


def layer_metrics(rec: Recorder, workers: int) -> dict:
    """Per-layer metrics of a finished traced run, and its span table."""
    spans = rec.spans
    if any(s.t1 is None for s in spans):
        raise RuntimeError("traced run ended with open spans")
    selfs = self_times(spans)
    by_name = {}
    for s, st in zip(spans, selfs):
        acc = by_name.setdefault(s.name, [0, 0.0])
        acc[0] += 1
        acc[1] += st

    metrics = {m: 0.0 for _, _, m, _ in WRAPPED}
    for module, attr, metric, _ in WRAPPED:
        metrics[metric] += by_name.get(f"{module}.{attr}", (0, 0.0))[1]
    metrics["cli.self_s"] = sum(st for n, (_, st) in by_name.items() if n.startswith("cli."))
    for k in COUNTERS:
        metrics[k] = rec.counters.get(k, 0)
    metrics["embedding.mu_fit_evals"] = sum(
        1 for i, s in enumerate(spans)
        if s.name == FCI_SOLVE and _ancestor(spans, i, MU_FIT) is not None)
    rs = metrics["quantum_sim.run_sequence_s"]
    metrics["quantum_sim.gates_per_s"] = metrics["quantum_sim.gates_applied"] / rs if rs else 0.0

    # Per-molecule span: first to last span carrying the molecule id under
    # one run_fingerprints span.
    molecule = {}
    for i, s in enumerate(spans):
        rf = _ancestor(spans, i, RUN_FINGERPRINTS) if s.molecule is not None else None
        if rf is not None:
            lo, hi = molecule.get((rf, s.molecule), (np.inf, -np.inf))
            molecule[(rf, s.molecule)] = (min(lo, s.t0), max(hi, s.t1))
    per_mol = np.array([hi - lo for lo, hi in molecule.values()])
    rf_wall = sum(s.t1 - s.t0 for s in spans if s.name == RUN_FINGERPRINTS)
    metrics["pipeline.molecules_traced"] = len(per_mol)
    metrics["pipeline.molecule_p50_s"] = float(np.percentile(per_mol, 50)) if len(per_mol) else 0.0
    metrics["pipeline.molecule_p90_s"] = float(np.percentile(per_mol, 90)) if len(per_mol) else 0.0
    metrics["pipeline.pool_efficiency"] = (
        float(per_mol.sum()) / (workers * rf_wall) if rf_wall else 0.0)

    # Summed self time over all threads; the traced wall time at one worker.
    total = float(sum(selfs))
    table = sorted(((st, n, k) for n, (k, st) in by_name.items()), reverse=True)
    dominant = next((t for t in table if not t[1].startswith("cli.")), (0.0, "-", 0))
    metrics["trace.dominant_share"] = dominant[0] / total if total else 0.0
    metrics["trace.thread_s"] = total
    metrics["trace.absent_spans"] = len(rec.absent)
    metrics["trace.counter_errors"] = rec.counter_errors
    return {"metrics": metrics, "dominant": dominant[1], "absent": rec.absent,
            "table": [[n, k, st, st / total if total else 0.0] for st, n, k in table]}
