"""Command-line orchestration of the fingerprint pipeline.

Subcommands: gen-h2, fingerprint, train, sweep, cluster,
optimize-measurement.  All outputs land under --out with fixed filenames;
every run writes a provenance.json sufficient to reproduce it.  Exit codes:
0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from qfp import __version__, chem_io, fingerprint_ml, pipeline, quantum_sim
from qfp.pipeline import ConfigError, DataError, NumericalError, PipelineConfig


def _load_config(path: str) -> PipelineConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = chem_io.read_json(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return PipelineConfig.from_dict(raw)


def _write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _provenance(out_dir: str, command: str, args: dict, config: dict | None):
    _write_json(
        {"command": command, "args": args, "config": config, "version": __version__},
        os.path.join(out_dir, "provenance.json"),
    )


def _read_targets(path: str) -> dict:
    columns, ids, values = chem_io.read_table(path)
    if columns != ["target"]:
        raise ValueError(f"{path}: line 1: expected header `molecule_id,target`")
    return dict(zip(ids, values[:, 0]))


def _load_table(read, path: str):
    """read(path), with an unreadable file or a bad table as a data error."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc


def _cross_validate(X, y, spec: dict, k: int, seed: int, ids) -> dict:
    """kfold_cv's report; NumericalError for a singular fit or an R2 or RMSE that is not finite."""
    try:
        report = fingerprint_ml.kfold_cv(X, y, spec, k=k, seed=seed, ids=ids)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    if not (math.isfinite(report["r2"]) and math.isfinite(report["rmse"])):
        raise NumericalError("cross-validation gave a non-finite R2 or RMSE")
    return report


def _align_targets(ids, targets: dict) -> np.ndarray:
    missing = [i for i in ids if i not in targets]
    extra = sorted(set(targets) - set(ids))
    if missing or extra:
        raise DataError(
            "feature/target id mismatch; "
            f"missing targets: {missing}; unmatched targets: {extra}"
        )
    return np.array([targets[i] for i in ids])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_h2(args) -> int:
    ids = pipeline.generate_h2_dataset(args.rmin, args.rmax, args.count, args.out)
    _provenance(args.out, "gen-h2",
                {"rmin": args.rmin, "rmax": args.rmax, "count": args.count}, None)
    print(f"wrote {len(ids)} molecules to {args.out}")
    return 0


def cmd_fingerprint(args) -> int:
    # Molecules run one after another; 1 is the only value --workers takes.
    pipeline.bounded(args.workers, "--workers", 1, 1, integer=True)
    cfg = _load_config(args.config)
    entries = pipeline.load_dataset(cfg, args.config)
    values = pipeline.run_fingerprints(cfg, entries)
    ids = [e.molecule_id for e in entries]
    pipeline.make_out_dir(args.out)
    chem_io.save_features(ids, cfg.grid(), values,
                          os.path.join(args.out, "features.csv"))
    _provenance(args.out, "fingerprint", {"workers": args.workers}, cfg.to_dict())
    print(f"wrote {len(ids)}x{values.shape[1] if len(ids) else 0} feature table")
    return 0


def cmd_train(args) -> int:
    # The model flags are checked as a config's model block would be.
    if args.model == "pls":
        spec = {"kind": "pls", "n_components": args.components}
    else:
        spec = {"kind": "krr", "length_scale": args.length_scale, "ridge": args.ridge}
    pipeline._validate_model(spec)
    pipeline.bounded(args.folds, "--folds", lo=2, integer=True)
    pipeline.bounded(args.seed, "--seed", lo=0, integer=True)
    ids, grid, X = _load_table(chem_io.load_features, args.features)
    y = _align_targets(ids, _load_table(_read_targets, args.targets))
    try:
        report = _cross_validate(X, y, spec, args.folds, args.seed, ids)
    except ValueError as exc:  # more folds than molecules, or PLS components than a fold has
        raise ConfigError(f"{exc} (--folds {args.folds}, {len(ids)} molecules)") from exc
    pipeline.make_out_dir(args.out)
    _write_json(report, os.path.join(args.out, "cv_report.json"))
    pred = {i: p for fold in report["folds"]
            for i, p in zip(fold["validation_ids"], fold["predictions"])}
    chem_io.write_table(os.path.join(args.out, "predictions.csv"),
                        ["molecule_id", "actual", "predicted"],
                        ([i, yi, pred[i]] for i, yi in zip(ids, y)))
    _provenance(args.out, "train",
                {"features": os.path.basename(args.features),
                 "targets": os.path.basename(args.targets),
                 "model": spec, "folds": args.folds, "seed": args.seed}, None)
    print(f"cv R2={report['r2']:.4f} rmse={report['rmse']:.4g}")
    return 0


def _sweep_value(convert, axis: str, value: str):
    try:
        return convert(value)
    except ValueError as exc:
        raise ConfigError(f"--axis {axis}: bad value {value!r}") from exc


def _sweep_config(cfg: PipelineConfig, axis: str, value: str) -> PipelineConfig:
    raw = cfg.to_dict()
    if axis == "time_max":
        raw["time_grid"] = dict(raw["time_grid"], stop=_sweep_value(float, axis, value))
    elif axis == "trotter_r":
        if raw["evolver"]["kind"] != "trotter":
            raise ConfigError("--axis trotter_r requires a trotter evolver")
        raw["evolver"] = dict(raw["evolver"], r=_sweep_value(int, axis, value))
    elif axis == "initial_state":
        raw["initial_state"] = value
    else:  # active_space, the last of the parser's choices
        try:
            ne, no = (int(v) for v in value.split(":"))
        except ValueError as exc:
            raise ConfigError(
                f"--axis active_space values look like `n_elec:n_orb`, got {value!r}"
            ) from exc
        if raw["embedding"]["mode"] != "active_space":
            raise ConfigError("--axis active_space requires active_space embedding")
        raw["embedding"] = dict(raw["embedding"],
                                n_active_electrons=ne, n_active_orbitals=no)
    return PipelineConfig.from_dict(raw)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    # Every value is checked before any is run: a malformed one is a config error.
    subs = [_sweep_config(cfg, args.axis, value) for value in args.values]
    # No axis changes the dataset: it is read, and its targets checked, once.
    entries = pipeline.load_dataset(cfg, args.config)
    ids = [e.molecule_id for e in entries]
    y = np.array([e.target for e in entries])
    if not np.all(np.isfinite(y)):
        raise DataError("dataset is missing finite targets")
    if cfg.cv["k"] > len(entries):  # as kfold_cv requires; no axis changes cv
        raise ConfigError(f"cv.k: {cfg.cv['k']} folds for {len(entries)} molecules")
    pipeline.make_out_dir(args.out)
    rows, errors = [], {}
    for value, sub in zip(args.values, subs):
        try:
            X = pipeline.run_fingerprints(sub, entries)
            report = _cross_validate(X, y, sub.model, sub.cv["k"], sub.cv.get("seed", 0), ids)
            _write_json(report, os.path.join(args.out, f"cv_report_{args.axis}_{value}.json"))
            rows.append((value, report["r2"], report["rmse"]))
        except ConfigError:
            raise
        except (DataError, NumericalError, ValueError) as exc:
            errors[value] = str(exc)
            rows.append((value, float("nan"), float("nan")))
    chem_io.write_table(os.path.join(args.out, "summary.csv"), [args.axis, "r2", "rmse"], rows)
    _provenance(args.out, "sweep",
                {"axis": args.axis, "values": list(args.values),
                 "errors": errors}, cfg.to_dict())
    print(f"swept {args.axis} over {len(args.values)} values "
          f"({len(errors)} failed)")
    return 0


def cmd_cluster(args) -> int:
    pipeline.bounded(args.seed, "--seed", lo=0, integer=True)
    pipeline.bounded(args.pca_dims, "--pca-dims", lo=1, integer=True)
    ids, grid, X = _load_table(chem_io.load_features, args.features)
    if len(ids) == 0:
        raise DataError(f"{args.features}: empty feature table")
    pipeline.bounded(args.k, "--k", 1, len(ids), integer=True)
    try:
        feats = fingerprint_ml.ts_feature_matrix(X, grid)
        if not np.all(np.isfinite(feats)):
            raise NumericalError("time-series features are not finite")
        scores = fingerprint_ml.pca_project(feats, args.pca_dims)
        labels, inertia = fingerprint_ml.kmeans_cluster(scores, args.k, seed=args.seed)
    except FloatingPointError as exc:
        raise NumericalError(f"time-series features overflow in PCA: {exc}") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    pipeline.make_out_dir(args.out)
    chem_io.write_table(os.path.join(args.out, "labels.csv"), ["molecule_id", "cluster"],
                        zip(ids, labels))
    chem_io.write_table(
        os.path.join(args.out, "cluster_means.csv"),
        ["cluster", *(f"t={t:.17g}" for t in grid)],
        ([j, *(X[labels == j].mean(axis=0) if np.any(labels == j) else 0 * grid)]
         for j in range(args.k)))
    _provenance(args.out, "cluster",
                {"features": os.path.basename(args.features), "k": args.k,
                 "pca_dims": args.pca_dims, "seed": args.seed,
                 "inertia": inertia}, None)
    print(f"clustered {len(ids)} molecules into {args.k} groups")
    return 0


def cmd_optimize_measurement(args) -> int:
    # Before the RDM trajectories: the GP needs its 5-point initial design.
    pipeline.bounded(args.budget, "--budget", lo=5, integer=True)
    pipeline.bounded(args.seed, "--seed", lo=0, integer=True)
    cfg = _load_config(args.config)
    if cfg.model["kind"] != "krr":
        raise ConfigError("optimize-measurement requires a krr model spec")
    if cfg.noise is not None:
        raise ConfigError("noise: optimize-measurement measures noiseless RDM trajectories")
    entries = pipeline.load_dataset(cfg, args.config)
    y = np.array([e.target for e in entries])
    if len(y) < 5 or not np.all(np.isfinite(y)):
        raise DataError("measurement optimization needs >= 5 molecules with targets")
    grid = cfg.grid()
    sizes = []

    def measure(eh):  # one operator must fit every molecule
        sizes.append(eh.n_active_orbitals)
        if sizes[-1] != sizes[0]:
            raise DataError(f"{sizes[-1]} active orbitals, not the {sizes[0]} "
                            "of the first molecule")
        return fingerprint_ml.rdm_trajectory(eh, cfg.initial_state, grid, evolver=cfg.evolver)

    trajs = np.real(np.array(pipeline.molecule_results(entries, cfg.embedding, measure)))
    n_orb = trajs.shape[-1]
    tr, va, _ = fingerprint_ml.train_val_test_split(len(y), seed=args.seed)
    iu = np.triu_indices(n_orb)

    def symmetric(vec):
        O = np.zeros((n_orb, n_orb))
        O[iu] = vec
        return O + np.triu(O, k=1).T

    # Targets near 1e154 or above overflow the squared error to inf without a
    # warning; gp_optimize rejects the non-finite value.
    @np.errstate(over="ignore", invalid="ignore")
    def objective(vec):
        X = quantum_sim.expval_O(symmetric(vec), trajs)
        predict = fingerprint_ml.fit_model(cfg.model, X[tr], y[tr])
        return float(np.mean((predict(X[va]) - y[va]) ** 2))

    bounds = [(-1.0, 1.0)] * len(iu[0])
    try:
        state = fingerprint_ml.gp_optimize(objective, bounds, budget=args.budget,
                                           seed=args.seed)
    except RuntimeError as exc:  # the objective raised or gave a non-finite MSE
        raise NumericalError(str(exc)) from exc
    O_best = symmetric(state.best_point)
    pipeline.make_out_dir(args.out)
    _write_json(
        {"points": state.points.tolist(), "values": state.values.tolist(),
         "length_scale": state.length_scale,
         "signal_variance": state.signal_variance,
         "noise_variance": state.noise_variance,
         "best_point": state.best_point.tolist(),
         "best_value": state.best_value},
        os.path.join(args.out, "gp_history.json"))
    _write_json({"operator": O_best.tolist(), "validation_mse": state.best_value},
                os.path.join(args.out, "best_operator.json"))
    _provenance(args.out, "optimize-measurement",
                {"budget": args.budget, "seed": args.seed}, cfg.to_dict())
    print(f"best validation MSE {state.best_value:.4g}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qfp",
                                description="quantum fingerprint pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-h2", help="generate an H2 separation-scan dataset")
    g.add_argument("--rmin", type=float, required=True)
    g.add_argument("--rmax", type=float, required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_h2)

    f = sub.add_parser("fingerprint", help="compute fingerprint features")
    f.add_argument("--config", required=True)
    f.add_argument("--workers", type=int, default=1)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fingerprint)

    t = sub.add_parser("train", help="cross-validated model fit")
    t.add_argument("--features", required=True)
    t.add_argument("--targets", required=True)
    t.add_argument("--model", choices=("pls", "krr"), required=True)
    t.add_argument("--components", type=int, default=2)
    t.add_argument("--length-scale", type=float, default=1.0)
    t.add_argument("--ridge", type=float, default=1e-6)
    t.add_argument("--folds", type=int, default=5)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sweep", help="sweep one config axis")
    s.add_argument("--config", required=True)
    s.add_argument("--axis", required=True,
                   choices=("time_max", "active_space", "trotter_r", "initial_state"))
    s.add_argument("--values", nargs="+", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("cluster", help="PCA + k-means on fingerprint features")
    c.add_argument("--features", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--pca-dims", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_cluster)

    o = sub.add_parser("optimize-measurement",
                       help="GP search for the best one-body measurement")
    o.add_argument("--config", required=True)
    o.add_argument("--budget", type=int, default=60)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out", required=True)
    o.set_defaults(func=cmd_optimize_measurement)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Here, before any work: each command makes --out just before its first
        # output, which fails if the nearest existing ancestor is not a directory.
        path = os.path.abspath(args.out)
        while not os.path.exists(path):
            path = os.path.dirname(path)
        if not os.path.isdir(path):
            raise DataError(f"--out {args.out}: {path} is not a directory")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:  # an input or output file the OS refuses
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
