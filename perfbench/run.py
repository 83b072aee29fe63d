"""The qfp benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A repetition runs the workload's CLI
steps through `qfp.cli.main` in a fresh process (perfbench/worker.py);
repetitions start while less than --seconds of them have run, and every
metric is the median over repetitions.  Set-up is sampled SETUP_SAMPLES
more times in processes that stop once the inputs are written and qfp is
imported.  Each repetition's outputs are checked against references
computed before timing starts (perfbench/oracle.py).  With --trace 1 a
repetition is a pair: an untraced run and a traced run of the same inputs,
whose feature tables must be byte-identical; the traced run gives the
per-layer metrics and the difference of the two is the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment.  An operation is one molecule in one CLI step, and
fail_ratio = failed / attempted.  A non-zero exit, a traceback or a failed
check fails every operation of its step.  Without a qfp source tree under
./src the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170.0
EXACT_TOL = 1e-8     # |F - F_oracle| for exact evolution; also trotter_err's floor
FILLING_TOL = 1e-5   # |fragment filling(mu) - target| after the mu fit
ZNE_FIT_ORDER = 1    # linear fit through the scale 1/3/5 points

# One BLAS thread per worker process.  OpenBLAS threads spin while they
# wait, so with its default of one thread per core any other busy process
# stalls them: a 30-molecule dmet-mu run (2 pool threads) went from 14 s to
# 139 s, and an 8-molecule h8-exact run (1 pool thread) from about 4 s to 21 s.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "molecules_per_s": "1/s",
                    "peak_rss_mb": "MB", "trotter_err": "1"}


def environment(name: str, seed: int, blas_threads) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads,
            "workers": workloads.WORKLOADS[name].workers, "workload": name, "seed": seed}


def spawn(name, seed, rep_dir, deadline, *flags):
    """Run one worker process to completion and return its result.json."""
    t0 = time.perf_counter()
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
           "--dir", rep_dir, "--t0", repr(t0), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=WORKER_ENV,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(os.path.join(rep_dir, "result.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_features(path):
    """(ids, grid, values) of a features.csv, parsed without qfp."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()]
    if header[0] != "molecule_id" or any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: malformed feature table")
    grid = np.array([float(c[2:]) for c in header[1:]])
    return [r[0] for r in rows], grid, np.array([[float(v) for v in r[1:]] for r in rows])


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _flag(step, flag):
    return step.argv[step.argv.index(flag) + 1]


def _check_step(step, out, ids, ref, found):
    """Problem text for one step whose exit code was 0, or None."""
    if step.kind == "fingerprint":
        got_ids, grid, X = read_features(os.path.join(out, "features.csv"))
        found[step.label] = X
        if got_ids != ids or not np.allclose(grid, ref["grid"], rtol=0, atol=1e-12):
            return "feature table ids or grid differ from the inputs"
        if not _finite(X):
            return "non-finite features"
        if not ref["ideal"]:  # noiseless: compare with the determinant-basis oracle
            rows = dict(zip(got_ids, X))
            err = max(float(np.max(np.abs(rows[i] - f))) for i, f in ref["exact"].items())
            found["err"] = max(found.get("err", 0.0), err)
            if not ref["trotter"] and err > EXACT_TOL:
                return f"max |F - F_oracle| = {err:.3e} above {EXACT_TOL:.0e}"
    elif step.kind == "train":
        report = _json(os.path.join(out, "cv_report.json"))
        with open(os.path.join(out, "predictions.csv")) as fh:
            n_pred = sum(1 for ln in fh if ln.strip()) - 1
        if n_pred != len(ids) or not _finite(report["r2"], report["rmse"]):
            return "missing predictions or non-finite CV scores"
    elif step.kind == "cluster":
        with open(os.path.join(out, "labels.csv")) as fh:
            labels = [ln.rstrip("\n").split(",") for ln in fh][1:]
        k = int(_flag(step, "--k"))
        if [r[0] for r in labels] != ids or any(int(r[1]) not in range(k) for r in labels):
            return "cluster labels do not cover the molecules"
    elif step.kind == "optimize-measurement":
        hist = _json(os.path.join(out, "gp_history.json"))
        best = _json(os.path.join(out, "best_operator.json"))
        if (len(hist["values"]) != int(_flag(step, "--budget"))
                or not _finite(best["operator"], best["validation_mse"])):
            return "GP history or best operator incomplete"
    return None


def _zne_check(ref, found, labels):
    """Problem text unless RMS|ZNE - ideal| < RMS|lambda=1 - ideal|."""
    from qfp import quantum_sim

    ideal = np.array(list(ref["ideal"].values()))
    noisy = [found[lb] for lb in labels]
    zne = np.vectorize(lambda *v: quantum_sim.zne_extrapolate(
        dict(zip(workloads.NOISE_SCALES, v)), fit_order=ZNE_FIT_ORDER))(*noisy)
    rms_zne = float(np.sqrt(np.mean((zne - ideal) ** 2)))
    rms_raw = float(np.sqrt(np.mean((noisy[0] - ideal) ** 2)))
    found["zne"] = {"rms_zne": rms_zne, "rms_raw": rms_raw, "points": int(ideal.size),
                    "wins": int(np.sum(np.abs(zne - ideal) < np.abs(noisy[0] - ideal)))}
    if not rms_zne < rms_raw:
        return f"ZNE does not help: RMS {rms_zne:.4f} vs lambda=1 {rms_raw:.4f}"
    return None


def check_rep(name, files, ref, rep_dir, result):
    """Check one repetition: (attempted, failed, problems, found values)."""
    ids = [e["id"] for e in files["manifest.json"]["entries"]]
    plan = workloads.steps(name, files)
    problems, found, ok = [], {}, {}
    for step, got in zip(plan, result["steps"]):
        ok[step.label] = got["code"] == 0
        if not ok[step.label]:
            problems.append(f"{step.label}: exit {got['code']} {got['error'] or ''}")
            continue
        try:
            bad = _check_step(step, os.path.join(rep_dir, _flag(step, "--out")),
                              ids, ref, found)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            bad = f"unreadable output: {exc}"
        if bad:
            ok[step.label] = False
            problems.append(f"{step.label}: {bad}")
    fingerprints = [s.label for s in plan if s.kind == "fingerprint"]
    if ref["ideal"] and all(ok[lb] for lb in fingerprints):
        bad = _zne_check(ref, found, fingerprints)
        if bad:
            problems.append(bad)
            ok.update(dict.fromkeys(fingerprints, False))
    for mid, filling, target in ref["filling"]:
        if abs(filling - target) > FILLING_TOL:
            problems.append(f"{mid}: fragment filling {filling:.8f}, target {target:.8f}")
            ok.update(dict.fromkeys(fingerprints, False))
    failed = sum(s.molecules for s in plan if not ok.get(s.label, False))
    return sum(s.molecules for s in plan), failed, problems, found


def same_features(dir_a, dir_b, files, name):
    """True when every fingerprint step wrote byte-identical feature tables."""
    for step in workloads.steps(name, files):
        if step.kind == "fingerprint":
            rel = os.path.join(_flag(step, "--out"), "features.csv")
            with open(os.path.join(dir_a, rel), "rb") as fa, \
                    open(os.path.join(dir_b, rel), "rb") as fb:
                if fa.read() != fb.read():
                    return False
    return True


# ---------------------------------------------------------------------------
# measurement and report
# ---------------------------------------------------------------------------

def timed_metrics(result):
    fp = [s for s in result["steps"] if s["kind"] == "fingerprint"]
    return {"wall_s": sum(s["seconds"] for s in result["steps"]),
            "molecules_per_s": sum(s["molecules"] for s in fp) / sum(s["seconds"] for s in fp),
            "peak_rss_mb": result["peak_rss_mb"]}


def trotter_error(ref, found):
    """max |F_trotter - F_oracle|, floored at the exact-evolution tolerance.

    Noiseless Trotter workloads measure the CLI's features; the noisy
    workload measures the noiseless Trotter reference of its circuits;
    exact-evolution workloads sit at the floor.
    """
    if ref["ideal"]:
        err = max(float(np.max(np.abs(ref["ideal"][i] - f))) for i, f in ref["exact"].items())
    else:
        err = found.get("err", 0.0) if ref["trotter"] else 0.0
    return max(err, EXACT_TOL)


def measure(name, seed, files, ref, work, seconds, trace, deadline):
    """Repetitions until `seconds` have passed; each is checked as it ends."""
    reps, totals, problems, found = [], [0, 0], [], {}
    t_start = time.perf_counter()
    while not reps or time.perf_counter() - t_start < seconds:
        rep_dir = os.path.join(work, f"rep{len(reps)}")
        runs = [(rep_dir, ())] + [(rep_dir + "t", ("--trace",))] * trace
        results = []
        for d, flags in runs:
            results.append(spawn(name, seed, d, deadline, *flags))
            a, f, bad, checked = check_rep(name, files, ref, d, results[-1])
            totals, problems = [totals[0] + a, totals[1] + f], problems + bad
            found = found or checked
        if trace and not problems and not same_features(rep_dir, rep_dir + "t", files, name):
            problems.append("traced run's feature tables differ from the untraced run's")
        reps.append(results)
    return reps, totals, problems, found


def layer_report(reps, totals):
    """Per-layer metrics: medians over the traced runs, plus tracing overhead."""
    layers = [traced["trace"] for _, traced in reps]
    metrics = {k: statistics.median(lay["metrics"][k] for lay in layers)
               for k in layers[0]["metrics"]}
    metrics["trace.wall_s"] = statistics.median(
        timed_metrics(traced)["wall_s"] for _, traced in reps)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        timed_metrics(plain)["wall_s"] for plain, _ in reps)
    metrics["fail_ratio"] = totals[1] / totals[0]
    print(f"traced spans by self time; dominant: {layers[-1]['dominant']}")
    for span, calls, self_s, share in layers[-1]["table"][:12]:
        print(f"  {span:<36s} {calls:>7d} calls {self_s:9.3f} s {100 * share:5.1f} %")
    if layers[-1]["absent"]:
        print("absent spans: " + ", ".join(layers[-1]["absent"]))
    return {k: {"value": metrics[k], "unit": u} for k, u in tracing.LAYER_UNITS.items()}


def end_to_end_report(reps, setups, ref, found):
    timed = [timed_metrics(plain) for plain, *_ in reps]
    med = {k: statistics.median(t[k] for t in timed) for k in timed[0]}
    med["setup_s"] = statistics.median(setups + [plain["setup_s"] for plain, *_ in reps])
    med["trotter_err"] = trotter_error(ref, found)
    return {k: {"value": med[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "qfp", "cli.py")):
        print("perfbench: no qfp sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import oracle

    name, seed = args.workload, args.seed
    work = os.path.abspath(os.path.join(WORK_DIR, f"{name}-seed{seed}"))
    shutil.rmtree(work, ignore_errors=True)
    files = workloads.inputs(name, seed)
    setups = [spawn(name, seed, os.path.join(work, f"setup{i}"), deadline,
                    "--setup-only")["setup_s"] for i in range(SETUP_SAMPLES)]
    ref = oracle.references(name, files)
    reps, totals, problems, found = measure(name, seed, files, ref, work,
                                            args.seconds, args.trace, deadline)
    if args.trace:
        metrics = layer_report(reps, totals)
    else:
        metrics = end_to_end_report(reps, setups, ref, found)
    for bad in problems:
        print(f"check failed: {bad}", file=sys.stderr)
    env = environment(name, seed, reps[0][0].get("blas_threads"))
    env.update(repetitions=len(reps), setup_samples=SETUP_SAMPLES + len(reps),
               checks={k: found[k] for k in ("err", "zne") if k in found})
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not problems, "attempted": totals[0],
                      "failed": totals[1], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
