"""The four benchmark workloads: inputs made from a seed, and their CLI steps.

Every workload writes its inputs (manifests, targets, pipeline configs) into
a fresh directory and then runs a fixed list of `qfp` subcommands on them.
The seed jitters each molecule's bond length by up to JITTER bohr and, on
`h2-noisy`, seeds the noise trajectories.  Chains are stretched uniformly, so
they keep their inversion symmetry and its zero integrals; per-atom jitter
would double the Pauli-term count of the H6 and H8 Hamiltonians.  Molecules
come from the manifest's geometry generators, so integrals are computed
inside the timed run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

JITTER = 0.01  # bohr, uniform per molecule
LONG_GRID = {"start": 0.0, "stop": 14.0, "step": 0.5}
SHORT_GRID = {"start": 0.0, "stop": 4.0, "step": 0.5}
NOISE_SCALES = (1, 3, 5)


@dataclass(frozen=True)
class Step:
    """One `qfp` subcommand run: its label, argv, and molecules it touches."""

    label: str
    argv: tuple
    molecules: int

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # pinned --workers of the fingerprint steps
    molecules: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Sizes keep one repetition near 2-8 s on a 2-core x86-64 VM, so that a
# run holds several repetitions and its median shrugs off a burst of
# contention from other tenants (bursts of ~5 s at +30-40 % were measured).
# dmet-mu is larger because its mu-fit bisection count varies by molecule.
# Every workload runs one pool worker: at two, GIL contention made dmet-mu
# slower (median 9.0 s against 7.9 s over 8 alternating runs) and the spread
# of its wall time over ten seeds 32 %.
WORKLOADS = {w.name: w for w in (Workload("dmet-mu", 1, 16),
                                 Workload("h6-trotter", 1, 10),
                                 Workload("h8-exact", 1, 6),
                                 Workload("h2-noisy", 1, 2))}
N_TRAJECTORIES = 100
H2_FAMILY = 10  # optimize-measurement needs >= 5 molecules with targets


def _chain(mid, n_atoms, spacing, rng):
    d = float(spacing + rng.uniform(-JITTER, JITTER))
    z = np.arange(n_atoms) * d
    return {"id": mid, "generator": {"kind": "chain", "z_positions": z.tolist()},
            "target": d, "label": f"H{n_atoms} d={d:.4f}"}


def _h2(mid, separation, rng):
    r = float(separation + rng.uniform(-JITTER, JITTER))
    return {"id": mid, "generator": {"kind": "h2", "separation": r},
            "target": r, "label": f"H2 r={r:.4f}"}


def _chains(name, n_atoms, rng):
    count = WORKLOADS[name].molecules
    return [_chain(f"h{n_atoms}_{i:03d}", n_atoms, d, rng)
            for i, d in enumerate(np.linspace(1.2, 2.6, count))]


def _config(manifest, embedding, initial_state, grid, evolver, **extra):
    cfg = {"dataset": {"kind": "manifest", "path": manifest},
           "embedding": embedding, "initial_state": initial_state,
           "time_grid": grid, "evolver": evolver}
    cfg.update(extra)
    return cfg


def _targets_csv(entries):
    return "molecule_id,target\n" + "".join(
        f"{e['id']},{e['target']:.17g}\n" for e in entries)


def inputs(name: str, seed: int) -> dict:
    """{relative file name: JSON-able object or text} for one workload and seed."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    files = {}
    if name == "dmet-mu":
        entries = _chains(name, 8, rng)
        files["config.json"] = _config(
            "manifest.json", {"mode": "dmet", "fragment": [0, 1], "fit_mu": True},
            "hf_ground", LONG_GRID, {"kind": "exact"})
    elif name == "h6-trotter":
        entries = _chains(name, 6, rng)
        files["config.json"] = _config(
            "manifest.json",
            {"mode": "active_space", "n_active_electrons": 4, "n_active_orbitals": 4},
            "homo_lumo_excited", LONG_GRID, {"kind": "trotter", "order": 2, "r": 2})
    elif name == "h8-exact":
        entries = _chains(name, 8, rng)
        files["config.json"] = _config(
            "manifest.json",
            {"mode": "active_space", "n_active_electrons": 4, "n_active_orbitals": 5},
            "hf_ground", LONG_GRID, {"kind": "exact"})
    elif name == "h2-noisy":
        entries = [_h2(f"h2_{i:03d}", r, rng)
                   for i, r in enumerate(np.linspace(1.0, 2.5, WORKLOADS[name].molecules))]
        family = [_h2(f"h2f_{i:03d}", r, rng)
                  for i, r in enumerate(np.linspace(1.0, 2.5, H2_FAMILY))]
        active = {"mode": "active_space", "n_active_electrons": 2,
                  "n_active_orbitals": 2}
        for lam in NOISE_SCALES:
            files[f"config_l{lam}.json"] = _config(
                "manifest.json", active, "hf_ground", SHORT_GRID,
                {"kind": "trotter", "order": 2, "r": 1},
                noise={"p": 0.02, "scale": lam, "n_trajectories": N_TRAJECTORIES,
                       "seed": seed})
        files["family.json"] = {"format_version": 1, "entries": family}
        files["config_opt.json"] = _config(
            "family.json", active, "hf_ground", SHORT_GRID, {"kind": "exact"},
            model={"kind": "krr", "length_scale": 1.0, "ridge": 1e-6})
    else:
        raise KeyError(f"unknown workload {name!r}")
    files["manifest.json"] = {"format_version": 1, "entries": entries}
    files["targets.csv"] = _targets_csv(entries)
    return files


def write_inputs(files: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for rel, content in files.items():
        with open(os.path.join(out_dir, rel), "w") as fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                json.dump(content, fh, indent=1)


def steps(name: str, files: dict) -> list:
    """The CLI steps of a workload, with paths relative to its input directory."""
    n = len(files["manifest.json"]["entries"])
    workers = str(WORKLOADS[name].workers)
    if name == "h2-noisy":
        out = [Step(f"fingerprint_l{lam}",
                    ("fingerprint", "--config", f"config_l{lam}.json",
                     "--workers", workers, "--out", f"fp_l{lam}"), n)
               for lam in NOISE_SCALES]
        out.append(Step("optimize", ("optimize-measurement", "--config", "config_opt.json",
                                     "--budget", "60", "--out", "opt"), H2_FAMILY))
        return out
    out = [Step("fingerprint", ("fingerprint", "--config", "config.json",
                                "--workers", workers, "--out", "fp"), n)]
    if name == "h6-trotter":
        out.append(Step("train", ("train", "--features", "fp/features.csv",
                                  "--targets", "targets.csv", "--model", "pls",
                                  "--components", "4", "--out", "train"), n))
        out.append(Step("cluster", ("cluster", "--features", "fp/features.csv",
                                    "--k", "3", "--out", "cluster"), n))
    else:
        out.append(Step("train", ("train", "--features", "fp/features.csv",
                                  "--targets", "targets.csv", "--model", "krr",
                                  "--out", "train"), n))
    return out
