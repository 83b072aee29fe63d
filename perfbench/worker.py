"""One benchmark repetition, run in a fresh process by perfbench/run.py.

Writes the workload's inputs, imports qfp from the checkout's `src/`, runs
the workload's CLI steps through `qfp.cli.main` and writes `result.json`
into the repetition directory: set-up time (from the parent's spawn time,
on the shared monotonic clock), per-step exit codes and seconds, peak RSS
and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR --t0 T
        [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import sys
import time
import traceback

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    files = workloads.inputs(args.workload, args.seed)
    workloads.write_inputs(files, args.dir)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qfp import cli

    result = {"setup_s": time.perf_counter() - args.t0, "steps": []}
    if not args.setup_only:
        rec = tracing.install() if args.trace else None
        os.chdir(args.dir)
        for step in workloads.steps(args.workload, files):
            span = rec.step(step.label) if rec else contextlib.nullcontext()
            err, t = None, time.perf_counter()
            with span:
                try:
                    code = cli.main(list(step.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a traceback is a failed step, not a crash
                    code, err = None, traceback.format_exc()
            result["steps"].append({"label": step.label, "kind": step.kind,
                                    "molecules": step.molecules, "code": code,
                                    "seconds": time.perf_counter() - t, "error": err})
        result["blas_threads"] = blas_threads()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rec:
            result["trace"] = tracing.layer_metrics(
                rec, workloads.WORKLOADS[args.workload].workers)
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
