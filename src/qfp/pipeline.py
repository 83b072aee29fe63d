"""Configuration and orchestration shared by the command-line tools.

Configs are plain JSON, checked in full before any work.  The block table
_BLOCKS is the one place a config's keys are listed: each block's check names
its keys (for a block with kinds, each kind's) and rejects unknown ones, since
silent typos are the dominant failure mode in pipeline files.  The
orchestration layer maps module-level exceptions onto three coarse classes
(config, data, numerical) that the CLI translates into exit codes.
"""

from __future__ import annotations

import copy
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from qfp import chem_io, embedding, fingerprint_ml, mean_field
from qfp.chem_io import ManifestEntry, MolecularIntegrals

INITIAL_KINDS = ("hf_ground", "homo_lumo_excited", "half_occupied")

# Largest time grid a config may ask for.  The grid, and the states and
# values of all its times, are held in memory at once; a grid far past this
# fails to allocate instead of being rejected as a config error.
MAX_GRID_POINTS = 10**6
# Largest H2 scan a config or gen-h2 may ask for.  The scan's entries, about
# 0.7 KB each, are built at once, and gen-h2 holds every FCIDUMP text, 321 B
# each (32 MB at this cap), until the whole scan is solved; a count far past
# this fails to allocate instead of being rejected as a config error.
MAX_H2_MOLECULES = 10**5
# Round-off slack, in steps, when a time grid counts its points: a stop that
# is a multiple of the step up to round-off (0.3 with step 0.1) ends the grid.
_GRID_SLACK = 1e-9


class ConfigError(ValueError):
    """Invalid pipeline configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Invalid or inconsistent input data (CLI exit code 3)."""


class NumericalError(RuntimeError):
    """Numerical failure inside the pipeline (CLI exit code 4)."""


def _check_keys(d: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    if unknown := set(d) - set(required) - set(optional):
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    if missing := set(required) - set(d):
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _check_kind(d: dict, where: str, tag: str, kinds: dict) -> str:
    """The kind d[tag], once d holds its keys: kinds maps a kind to (required, optional)."""
    _check_keys(d, where, (tag,), [k for keys in kinds.values() for k in keys[0] + keys[1]])
    kind = d[tag]
    if not isinstance(kind, str) or kind not in kinds:  # a JSON list cannot be hashed
        raise ConfigError(f"{where}.{tag}: unknown {tag} {kind!r}")
    _check_keys(d, where, (tag, *kinds[kind][0]), kinds[kind][1])
    return kind


def bounded(v, name: str, lo=-math.inf, hi=math.inf, integer=False):
    """v, if it is a finite number (an integer, with integer) within [lo, hi];
    otherwise a ConfigError naming name, a config key or a command-line flag."""
    if integer and (not isinstance(v, int) or isinstance(v, bool)):
        raise ConfigError(f"{name}: expected an integer, got {v!r}")
    if not integer and not chem_io.finite_number(v):
        raise ConfigError(f"{name}: expected a finite number, got {v!r}")
    if not lo <= v <= hi:
        raise ConfigError(f"{name}: {v} outside [{lo}, {hi}]")
    return v


def _validate_initial_state(s):
    if s not in INITIAL_KINDS:
        raise ConfigError(f"initial_state: {s!r} not one of {INITIAL_KINDS}")


def _validate_dataset(d):
    if _check_kind(d, "dataset", "kind", {"manifest": (("path",), ()),
                                          "h2": (("rmin", "rmax", "count"), ())}) == "manifest":
        if not isinstance(d["path"], str):
            raise ConfigError("dataset.path: expected a string")
        return
    rmin = bounded(d["rmin"], "dataset.rmin", lo=0.2)
    if bounded(d["rmax"], "dataset.rmax") <= rmin:
        raise ConfigError("dataset: rmax must exceed rmin")
    bounded(d["count"], "dataset.count", 2, MAX_H2_MOLECULES, integer=True)


def _validate_embedding(d):
    if _check_kind(d, "embedding", "mode", {
            "active_space": (("n_active_electrons", "n_active_orbitals"), ()),
            "dmet": (("fragment",), ("fit_mu", "target_filling"))}) == "active_space":
        ne = bounded(d["n_active_electrons"], "embedding.n_active_electrons", lo=2, integer=True)
        no = bounded(d["n_active_orbitals"], "embedding.n_active_orbitals", lo=1, integer=True)
        if ne % 2:
            raise ConfigError("embedding.n_active_electrons: must be even")
        if ne > 2 * no:
            raise ConfigError("embedding: more electrons than spin orbitals")
        return
    frag = d["fragment"]
    if (not isinstance(frag, list) or not frag
            or not all(isinstance(i, int) and not isinstance(i, bool) and i >= 0
                        for i in frag)):
        raise ConfigError("embedding.fragment: expected a list of orbital indices")
    if len(set(frag)) != len(frag):
        raise ConfigError("embedding.fragment: duplicate indices")
    if not isinstance(d.get("fit_mu", False), bool):
        raise ConfigError("embedding.fit_mu: expected a boolean")
    if d.get("target_filling") is not None:
        if not d.get("fit_mu", False):
            raise ConfigError("embedding.target_filling: applies only with fit_mu true")
        bounded(d["target_filling"], "embedding.target_filling", 0.0, 2 * len(frag))


def _validate_time_grid(d):
    _check_keys(d, "time_grid", ("start", "stop", "step"))
    start = bounded(d["start"], "time_grid.start", lo=0.0)
    stop = bounded(d["stop"], "time_grid.stop")
    step = bounded(d["step"], "time_grid.step")
    if step <= 0:
        raise ConfigError("time_grid.step: must be positive")
    if stop < start:
        raise ConfigError("time_grid: stop must be >= start")
    if _grid_size(start, stop, step) > MAX_GRID_POINTS:
        raise ConfigError(f"time_grid: more than {MAX_GRID_POINTS} points")


def _grid_size(start, stop, step) -> float:
    """Points of the grid start, start + step, ... that stay at or below stop
    (inf when the count overflows a float)."""
    return np.floor((stop - start) / step + _GRID_SLACK) + 1


def _validate_evolver(d):
    if _check_kind(d, "evolver", "kind",
                   {"exact": ((), ()), "trotter": ((), ("order", "r"))}) == "trotter":
        bounded(d.get("order", 2), "evolver.order", 1, 2, integer=True)
        bounded(d.get("r", 1), "evolver.r", lo=1, integer=True)


# Entries near 1e308 overflow allclose's differences to inf without a warning;
# the matrix is then not symmetric.
@np.errstate(over="ignore")
def _validate_observable(d):
    if _check_kind(d, "observable", "kind", {"F": ((), ()), "O": (("matrix",), ())}) == "O":
        try:
            O = np.asarray(d["matrix"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # or an int past a float
            raise ConfigError(f"observable.matrix: not numeric: {exc}") from exc
        if O.ndim != 2 or O.shape[0] != O.shape[1]:
            raise ConfigError("observable.matrix: expected a square matrix")
        if not np.allclose(O, O.T):
            raise ConfigError("observable.matrix: must be symmetric")
        # np.asarray also reads true and "1" as 1.0, and keeps inf and nan.
        if not all(chem_io.finite_number(v) for row in d["matrix"] for v in row):
            raise ConfigError("observable.matrix: expected finite numbers")


def _validate_model(d):
    if _check_kind(d, "model", "kind", {"pls": (("n_components",), ()),
                                        "krr": ((), ("length_scale", "ridge"))}) == "pls":
        bounded(d["n_components"], "model.n_components", lo=1, integer=True)
        return
    if "length_scale" in d:
        bounded(d["length_scale"], "model.length_scale", *fingerprint_ml.LENGTH_SCALE_RANGE)
    if "ridge" in d:
        bounded(d["ridge"], "model.ridge", lo=0.0)


def _validate_cv(d):
    _check_keys(d, "cv", ("k",), ("seed",))
    bounded(d["k"], "cv.k", lo=2, integer=True)
    if "seed" in d:
        bounded(d["seed"], "cv.seed", lo=0, integer=True)


def _validate_noise(d):
    if d is None:
        return
    _check_keys(d, "noise", ("p",), ("scale", "n_trajectories", "seed"))
    bounded(d["p"], "noise.p", 0.0, 0.999)
    if "scale" in d and bounded(d["scale"], "noise.scale", lo=1, integer=True) % 2 == 0:
        raise ConfigError("noise.scale: must be odd")
    try:
        product = d["p"] * d.get("scale", 1)
    except OverflowError as exc:  # a scale too large for a float
        raise ConfigError("noise.scale: too large for a float") from exc
    if product >= 1.0:  # as NoiseSpec requires
        raise ConfigError(f"noise: p * scale = {product!r} must stay below 1")
    if "n_trajectories" in d:
        bounded(d["n_trajectories"], "noise.n_trajectories", lo=1, integer=True)
    if "seed" in d:
        bounded(d["seed"], "noise.seed", lo=0, integer=True)


# The config's blocks, each with its check, in the order they are checked.
# The four without a default in PipelineConfig are required.
_BLOCKS = {
    "initial_state": _validate_initial_state,
    "dataset": _validate_dataset,
    "embedding": _validate_embedding,
    "time_grid": _validate_time_grid,
    "evolver": _validate_evolver,
    "observable": _validate_observable,
    "model": _validate_model,
    "cv": _validate_cv,
    "noise": _validate_noise,
}


@dataclass
class PipelineConfig:
    """Validated pipeline configuration; round-trips through to_dict."""

    dataset: dict
    embedding: dict
    initial_state: str
    time_grid: dict
    evolver: dict = field(default_factory=lambda: {"kind": "exact"})
    observable: dict = field(default_factory=lambda: {"kind": "F"})
    model: dict = field(default_factory=lambda: {"kind": "pls", "n_components": 2})
    cv: dict = field(default_factory=lambda: {"k": 5, "seed": 0})
    noise: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        _check_keys(raw, "config", ("initial_state", "dataset", "embedding", "time_grid"), _BLOCKS)
        for name, check in _BLOCKS.items():
            if name in raw:
                check(raw[name])
        cfg = cls(**{name: copy.copy(block) for name, block in raw.items()})
        # Rules across blocks, once each block is valid.
        if cfg.noise is not None and cfg.evolver["kind"] != "trotter":
            raise ConfigError("noise: requires a trotter evolver (gate-level noise)")
        # A DMET cluster's size is known only after SCF: prepare_initial checks it.
        emb = cfg.embedding
        if (cfg.initial_state == "homo_lumo_excited" and emb["mode"] == "active_space"
                and emb["n_active_electrons"] == 2 * emb["n_active_orbitals"]):
            raise ConfigError("initial_state: homo_lumo_excited needs a virtual orbital")
        return cfg

    def to_dict(self) -> dict:
        return {name: block for name, block in asdict(self).items() if block is not None}

    def grid(self) -> np.ndarray:
        g = self.time_grid
        n = int(_grid_size(g["start"], g["stop"], g["step"]))
        return g["start"] + g["step"] * np.arange(n)


def build_molecule(entry: ManifestEntry) -> MolecularIntegrals:
    """Integrals for a manifest entry (FCIDUMP file or geometry generator); a bad
    file or geometry is a DataError, which molecule_errors names."""
    try:
        if "fcidump" in entry.source:
            with open(entry.source["fcidump"]) as fh:
                return chem_io.parse_fcidump(fh.read())
        return chem_io.s_orbital_integrals(
            chem_io.generator_centres(entry.source["generator"]))
    except (OSError, ValueError, MemoryError) as exc:  # bad file or geometry, or too large
        raise DataError(str(exc)) from exc


def embed_molecule(m: MolecularIntegrals, emb: dict) -> embedding.EmbeddedHamiltonian:
    """Mean field + the configured embedding for one molecule.  SCF and embedding
    errors propagate as raised; molecule_errors names the molecule (exit 4)."""
    if emb["mode"] == "dmet" and max(emb["fragment"]) >= m.n_orbitals:
        raise ConfigError(f"embedding.fragment: index {max(emb['fragment'])} out of "
                          f"range for a molecule with {m.n_orbitals} orbitals")
    mf = mean_field.scf_solve(m)
    if not mf.converged:
        raise NumericalError("SCF did not converge")
    if emb["mode"] == "active_space":
        return embedding.homo_lumo_active_space(
            m, mf, emb["n_active_electrons"], emb["n_active_orbitals"])
    m_loc, D_loc = embedding.dmet_setup(m, mf)
    cb = embedding.dmet_cluster_basis(D_loc, emb["fragment"])
    eh = embedding.dmet_hamiltonian(m_loc, cb)
    if emb.get("fit_mu", False):
        target = emb.get("target_filling")
        if target is None:
            frag = list(emb["fragment"])
            target = float(np.trace(D_loc[np.ix_(frag, frag)]))
        builder = embedding.fragment_count_builder(eh)
        eh = embedding.shift_chemical_potential(
            eh, embedding.fit_chemical_potential(builder, target))
    return eh


def load_dataset(cfg: PipelineConfig, config_path: str) -> list:
    """The config's dataset entries; a relative manifest path is taken from
    the directory of the config file at config_path."""
    ds = cfg.dataset
    if ds["kind"] == "manifest":
        path = os.path.join(os.path.dirname(os.path.abspath(config_path)), ds["path"])
        if not os.path.exists(path):
            raise DataError(f"manifest not found: {path}")
        try:
            return chem_io.load_manifest(path)
        except chem_io.ManifestError as exc:
            raise DataError(str(exc)) from exc
    return _h2_scan(ds["rmin"], ds["rmax"], ds["count"])


def _h2_scan(rmin, rmax, count) -> list:
    """Uniform H2 separation scan: ids h2_000.., geometry generators, z targets."""
    width = max(3, len(str(count - 1)))
    return [
        ManifestEntry(
            molecule_id=f"h2_{i:0{width}d}",
            source={"generator": {"kind": "h2", "separation": float(z)}},
            target=float(z),
            label=f"H2 z={z:.6f} bohr",
        )
        for i, z in enumerate(np.linspace(rmin, rmax, count))
    ]


@contextmanager
def molecule_errors(molecule_id: str):
    """Name the molecule in a failure: a ConfigError (exit 2) or DataError (exit 3)
    keeps its class, and any other error, running out of memory included, is a
    numerical failure (exit 4)."""
    try:
        yield
    except (ConfigError, DataError) as exc:
        raise type(exc)(f"molecule {molecule_id!r}: {exc}") from exc
    except (NumericalError, ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        raise NumericalError(f"molecule {molecule_id!r}: {exc}") from exc


def molecule_results(entries: list, emb: dict, measure) -> list:
    """measure(eh) for each entry's embedded Hamiltonian eh, in entry order; the
    first failure, named by molecule_errors, stops the loop."""
    results = []
    for entry in entries:
        with molecule_errors(entry.molecule_id):
            results.append(measure(embed_molecule(build_molecule(entry), emb)))
    return results


def run_fingerprints(cfg: PipelineConfig, entries: list) -> np.ndarray:
    """Fingerprints of the entries on cfg.grid(): (n_molecules, n_times), rows
    in entry order."""
    grid = cfg.grid()

    def measure(eh):
        n = eh.n_active_orbitals
        if cfg.observable["kind"] == "O" and np.shape(cfg.observable["matrix"]) != (n, n):
            raise ConfigError(f"observable.matrix: expected {n}x{n} for the active space")
        return fingerprint_ml.compute_fingerprint(
            eh, cfg.initial_state, grid, observable=cfg.observable,
            evolver=cfg.evolver, noise=cfg.noise,
        ).values

    rows = molecule_results(entries, cfg.embedding, measure)
    return np.stack(rows) if rows else np.zeros((0, len(grid)))


def make_out_dir(path: str) -> None:
    """Create the --out directory; a path that cannot be one is a data error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"--out {path}: cannot create output directory: {exc}") from exc


def generate_h2_dataset(rmin: float, rmax: float, count: int, out_dir: str):
    """FCIDUMP files + manifest + targets for a uniform H2 separation scan.
    The bounds are an h2 dataset config's; every molecule is solved before
    out_dir is made, so a failed scan writes nothing."""
    _validate_dataset({"kind": "h2", "rmin": rmin, "rmax": rmax, "count": count})
    entries = _h2_scan(rmin, rmax, count)
    texts = []
    for e in entries:
        with molecule_errors(e.molecule_id):
            m = build_molecule(e)
            mf = mean_field.scf_solve(m)
            if not mf.converged:
                raise NumericalError(f"SCF did not converge for z={e.target:.6f}")
        texts.append(chem_io.emit_fcidump(embedding.localize_integrals(m, mf.C)))
    make_out_dir(out_dir)
    for i, (e, text) in enumerate(zip(entries, texts)):
        fname = f"{e.molecule_id}.fcidump"
        with open(os.path.join(out_dir, fname), "w") as fh:
            fh.write(text)
        entries[i] = replace(e, source={"fcidump": fname})
    chem_io.save_manifest(entries, os.path.join(out_dir, "manifest.json"))
    chem_io.write_table(os.path.join(out_dir, "targets.csv"), ["molecule_id", "target"],
                        ([e.molecule_id, e.target] for e in entries))
    return [e.molecule_id for e in entries]
