"""Configuration and orchestration shared by the command-line tools.

Configs are plain JSON with exhaustive validation: every key is checked
against a schema and unknown keys are rejected, since silent typos are the
dominant failure mode in pipeline files.  The orchestration layer maps
module-level exceptions onto three coarse classes (config, data, numerical)
that the CLI translates into exit codes.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from qfp import chem_io, embedding, fingerprint_ml, mean_field
from qfp.chem_io import ManifestEntry, MolecularIntegrals

__all__ = [
    "ConfigError",
    "DataError",
    "NumericalError",
    "PipelineConfig",
    "build_molecule",
    "embed_molecule",
    "molecule_errors",
    "run_fingerprints",
    "generate_h2_dataset",
]

INITIAL_KINDS = ("hf_ground", "homo_lumo_excited", "half_occupied")

# Largest time grid a config may ask for.  The grid, and the states and
# values of all its times, are held in memory at once; a grid far past this
# fails to allocate instead of being rejected as a config error.
MAX_GRID_POINTS = 10**6
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
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(d, key, where, lo=None, hi=None):
    v = d[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{where}.{key}: expected a finite number, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{where}.{key}: {v} below minimum {lo}")
    if hi is not None and v > hi:
        raise ConfigError(f"{where}.{key}: {v} above maximum {hi}")
    return float(v)


def _integer(d, key, where, lo=None):
    v = d[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{where}.{key}: {v} below minimum {lo}")
    return v


def _validate_dataset(d):
    _check_keys(d, "dataset", ("kind",), ("path", "rmin", "rmax", "count"))
    kind = d["kind"]
    if kind == "manifest":
        _check_keys(d, "dataset", ("kind", "path"))
        if not isinstance(d["path"], str):
            raise ConfigError("dataset.path: expected a string")
    elif kind == "h2":
        _check_keys(d, "dataset", ("kind", "rmin", "rmax", "count"))
        rmin = _number(d, "rmin", "dataset", lo=0.2)
        rmax = _number(d, "rmax", "dataset")
        if rmax <= rmin:
            raise ConfigError("dataset: rmax must exceed rmin")
        _integer(d, "count", "dataset", lo=2)
    else:
        raise ConfigError(f"dataset.kind: unknown kind {kind!r}")
    return dict(d)


def _validate_embedding(d):
    _check_keys(d, "embedding", ("mode",),
                ("n_active_electrons", "n_active_orbitals", "fragment",
                 "fit_mu", "target_filling"))
    mode = d["mode"]
    if mode == "active_space":
        _check_keys(d, "embedding", ("mode", "n_active_electrons", "n_active_orbitals"))
        ne = _integer(d, "n_active_electrons", "embedding", lo=2)
        no = _integer(d, "n_active_orbitals", "embedding", lo=1)
        if ne % 2:
            raise ConfigError("embedding.n_active_electrons: must be even")
        if ne > 2 * no:
            raise ConfigError("embedding: more electrons than spin orbitals")
    elif mode == "dmet":
        _check_keys(d, "embedding", ("mode", "fragment"), ("fit_mu", "target_filling"))
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
            _number(d, "target_filling", "embedding", lo=0.0, hi=2 * len(frag))
    else:
        raise ConfigError(f"embedding.mode: unknown mode {mode!r}")
    return dict(d)


def _validate_time_grid(d):
    _check_keys(d, "time_grid", ("start", "stop", "step"))
    start = _number(d, "start", "time_grid", lo=0.0)
    stop = _number(d, "stop", "time_grid")
    step = _number(d, "step", "time_grid")
    if step <= 0:
        raise ConfigError("time_grid.step: must be positive")
    if stop < start:
        raise ConfigError("time_grid: stop must be >= start")
    if _grid_size(start, stop, step) > MAX_GRID_POINTS:
        raise ConfigError(f"time_grid: more than {MAX_GRID_POINTS} points")
    return dict(d)


def _grid_size(start, stop, step) -> float:
    """Points of the grid start, start + step, ... that stay at or below stop
    (inf when the count overflows a float)."""
    return np.floor((stop - start) / step + _GRID_SLACK) + 1


def _validate_evolver(d):
    _check_keys(d, "evolver", ("kind",), ("order", "r"))
    if d["kind"] == "exact":
        _check_keys(d, "evolver", ("kind",))
    elif d["kind"] == "trotter":
        _check_keys(d, "evolver", ("kind",), ("order", "r"))
        if _integer({"order": d.get("order", 2)}, "order", "evolver") not in (1, 2):
            raise ConfigError("evolver.order: must be 1 or 2")
        _integer({"r": d.get("r", 1)}, "r", "evolver", lo=1)
    else:
        raise ConfigError(f"evolver.kind: unknown kind {d['kind']!r}")
    return dict(d)


def _validate_observable(d):
    _check_keys(d, "observable", ("kind",), ("matrix",))
    kind = d["kind"]
    if kind == "F":
        _check_keys(d, "observable", ("kind",))
    elif kind == "O":
        _check_keys(d, "observable", ("kind", "matrix"))
        try:
            O = np.asarray(d["matrix"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"observable.matrix: not numeric: {exc}") from exc
        if O.ndim != 2 or O.shape[0] != O.shape[1]:
            raise ConfigError("observable.matrix: expected a square matrix")
        if not np.allclose(O, O.T):
            raise ConfigError("observable.matrix: must be symmetric")
    else:
        raise ConfigError(f"observable.kind: unknown kind {kind!r}")
    return dict(d)


def _validate_model(d):
    _check_keys(d, "model", ("kind",), ("n_components", "length_scale", "ridge"))
    if d["kind"] == "pls":
        _check_keys(d, "model", ("kind", "n_components"))
        _integer(d, "n_components", "model", lo=1)
    elif d["kind"] == "krr":
        _check_keys(d, "model", ("kind",), ("length_scale", "ridge"))
        if "length_scale" in d:
            _number(d, "length_scale", "model", *fingerprint_ml.LENGTH_SCALE_RANGE)
        if "ridge" in d:
            _number(d, "ridge", "model", lo=0.0)
    else:
        raise ConfigError(f"model.kind: unknown kind {d['kind']!r}")
    return dict(d)


def _validate_cv(d):
    _check_keys(d, "cv", ("k",), ("seed",))
    _integer(d, "k", "cv", lo=2)
    if "seed" in d:
        _integer(d, "seed", "cv", lo=0)
    return dict(d)


def _validate_noise(d):
    if d is None:
        return None
    _check_keys(d, "noise", ("p",), ("scale", "n_trajectories", "seed"))
    _number(d, "p", "noise", lo=0.0, hi=0.999)
    if "scale" in d:
        v = d["scale"]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1 or v % 2 == 0:
            raise ConfigError("noise.scale: must be an odd integer >= 1")
    try:
        product = d["p"] * d.get("scale", 1)
    except OverflowError as exc:  # a scale too large for a float
        raise ConfigError("noise.scale: too large for a float") from exc
    if product >= 1.0:  # as NoiseSpec requires
        raise ConfigError(f"noise: p * scale = {product!r} must stay below 1")
    if "n_trajectories" in d:
        _integer(d, "n_trajectories", "noise", lo=1)
    if "seed" in d:
        _integer(d, "seed", "noise", lo=0)
    return dict(d)


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
        _check_keys(raw, "config",
                    ("dataset", "embedding", "initial_state", "time_grid"),
                    ("evolver", "observable", "model", "cv", "noise"))
        if raw["initial_state"] not in INITIAL_KINDS:
            raise ConfigError(
                f"initial_state: {raw['initial_state']!r} not one of {INITIAL_KINDS}"
            )
        cfg = cls(
            dataset=_validate_dataset(raw["dataset"]),
            embedding=_validate_embedding(raw["embedding"]),
            initial_state=raw["initial_state"],
            time_grid=_validate_time_grid(raw["time_grid"]),
        )
        if "evolver" in raw:
            cfg.evolver = _validate_evolver(raw["evolver"])
        if "observable" in raw:
            cfg.observable = _validate_observable(raw["observable"])
        if "model" in raw:
            cfg.model = _validate_model(raw["model"])
        if "cv" in raw:
            cfg.cv = _validate_cv(raw["cv"])
        if "noise" in raw:
            cfg.noise = _validate_noise(raw["noise"])
        if cfg.noise is not None and cfg.evolver["kind"] != "trotter":
            raise ConfigError("noise: requires a trotter evolver (gate-level noise)")
        return cfg

    def to_dict(self) -> dict:
        out = {
            "dataset": self.dataset,
            "embedding": self.embedding,
            "initial_state": self.initial_state,
            "time_grid": self.time_grid,
            "evolver": self.evolver,
            "observable": self.observable,
            "model": self.model,
            "cv": self.cv,
        }
        if self.noise is not None:
            out["noise"] = self.noise
        return out

    def grid(self) -> np.ndarray:
        g = self.time_grid
        n = int(_grid_size(g["start"], g["stop"], g["step"]))
        return g["start"] + g["step"] * np.arange(n)


def build_molecule(entry: ManifestEntry) -> MolecularIntegrals:
    """Integrals for a manifest entry (FCIDUMP file or geometry generator)."""
    if "fcidump" in entry.source:
        try:
            with open(entry.source["fcidump"]) as fh:
                return chem_io.parse_fcidump(fh.read())
        except (OSError, ValueError) as exc:  # unreadable file or bad FCIDUMP
            raise DataError(f"molecule {entry.molecule_id!r}: {exc}") from exc
    gen = dict(entry.source["generator"])
    kind = gen.pop("kind", None)
    if kind == "h2":
        if set(gen) != {"separation"}:
            raise DataError(
                f"molecule {entry.molecule_id!r}: h2 generator takes `separation`"
            )
        zs = [0.0, _generator_number(gen["separation"], entry, "separation")]
    elif kind == "chain":
        if set(gen) != {"z_positions"}:
            raise DataError(
                f"molecule {entry.molecule_id!r}: chain generator takes `z_positions`"
            )
        zs = gen["z_positions"]
        if not isinstance(zs, (list, tuple)):
            raise DataError(f"molecule {entry.molecule_id!r}: `z_positions` must be a list")
        zs = [_generator_number(z, entry, "z_positions") for z in zs]
    else:
        raise DataError(f"molecule {entry.molecule_id!r}: unknown generator kind {kind!r}")
    try:
        return chem_io.s_orbital_integrals(chem_io.hydrogen_chain(zs))
    except ValueError as exc:  # coincident nuclei, or integrals that overflow
        raise DataError(f"molecule {entry.molecule_id!r}: {exc}") from exc


def _generator_number(v, entry: ManifestEntry, key: str) -> float:
    """A coordinate in bohr: a finite JSON number, not a boolean or a string."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise DataError(f"molecule {entry.molecule_id!r}: bad `{key}` value {v!r}")
    try:
        z = float(v)
    except OverflowError as exc:  # an integer too large for a float
        raise DataError(f"molecule {entry.molecule_id!r}: bad `{key}` value {v!r}") from exc
    if not math.isfinite(z):
        raise DataError(f"molecule {entry.molecule_id!r}: non-finite `{key}` value {v!r}")
    return z


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


def load_dataset(cfg: PipelineConfig, base_dir: str = ".") -> list:
    ds = cfg.dataset
    if ds["kind"] == "manifest":
        path = ds["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
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
    """Name the molecule in its ConfigError (exit 2) or numerical failure (exit 4)."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"molecule {molecule_id!r}: {exc}") from exc
    except (NumericalError, ValueError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"molecule {molecule_id!r}: {exc}") from exc


def _one_fingerprint(entry, cfg, grid):
    m = build_molecule(entry)
    with molecule_errors(entry.molecule_id):
        eh = embed_molecule(m, cfg.embedding)
        n = eh.n_active_orbitals
        if cfg.observable["kind"] == "O" and np.shape(cfg.observable["matrix"]) != (n, n):
            raise ConfigError(f"observable.matrix: expected {n}x{n} for the active space")
        return fingerprint_ml.compute_fingerprint(
            eh, cfg.initial_state, grid, observable=cfg.observable,
            evolver=cfg.evolver, noise=cfg.noise,
        ).values


def run_fingerprints(cfg: PipelineConfig, base_dir: str = "."):
    """Fingerprints for every molecule in the dataset, one after another.

    Returns (ids, targets, grid, values) with values of shape
    (n_molecules, n_times), rows in manifest order.
    """
    entries = load_dataset(cfg, base_dir)
    grid = cfg.grid()
    ids = [e.molecule_id for e in entries]
    targets = np.array([e.target for e in entries])
    if not entries:
        return ids, targets, grid, np.zeros((0, len(grid)))
    rows = [_one_fingerprint(e, cfg, grid) for e in entries]
    return ids, targets, grid, np.stack(rows)


def generate_h2_dataset(rmin: float, rmax: float, count: int, out_dir: str):
    """FCIDUMP files + manifest + targets for a uniform H2 separation scan."""
    # Written so that NaN fails every check.
    if not 0.2 <= rmin < math.inf:
        raise ConfigError(f"--rmin: expected a finite separation >= 0.2 bohr, got {rmin}")
    if count < 2:
        raise ConfigError("--count: need at least 2 molecules")
    if not rmin < rmax < math.inf:
        raise ConfigError(f"--rmax: expected a finite separation above --rmin, got {rmax}")
    os.makedirs(out_dir, exist_ok=True)
    entries = _h2_scan(rmin, rmax, count)
    for i, e in enumerate(entries):
        with molecule_errors(e.molecule_id):
            m = build_molecule(e)
            mf = mean_field.scf_solve(m)
            if not mf.converged:
                raise NumericalError(f"SCF did not converge for z={e.target:.6f}")
        fname = f"{e.molecule_id}.fcidump"
        with open(os.path.join(out_dir, fname), "w") as fh:
            fh.write(chem_io.emit_fcidump(embedding.localize_integrals(m, mf.C)))
        entries[i] = replace(e, source={"fcidump": fname})
    chem_io.save_manifest(entries, os.path.join(out_dir, "manifest.json"))
    with open(os.path.join(out_dir, "targets.csv"), "w") as fh:
        fh.write("molecule_id,target\n")
        for e in entries:
            fh.write(f"{e.molecule_id},{e.target:.17g}\n")
    return [e.molecule_id for e in entries]
