"""Package structure: fci is the tests' oracle, not a production dependency,
pipeline reaches the simulator only through fingerprint_ml, the package needs
nothing beyond the standard library, numpy and scipy at run time, and
importing the CLI loads only what it runs."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qfp"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def imported_names(module: str) -> list:
    """Dotted names `module` imports, anywhere in its source; for `from a import b`,
    both a and a.b."""
    names = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) imports from inside qfp
            base = (("qfp." if node.level else "") + (node.module or "")).rstrip(".")
            names += [base] + [f"{base}.{a.name}" for a in node.names]
    return names


def qfp_imports(module: str) -> set:
    """Names of the qfp modules that `module` imports, anywhere in its source."""
    found = set()
    for name in imported_names(module):
        parts = name.split(".")
        if parts[0] == "qfp" and len(parts) > 1 and parts[1] in MODULES:
            found.add(parts[1])
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "fci"])
def test_no_production_module_imports_fci(module):
    assert "fci" not in qfp_imports(module)


def test_quantum_sim_imports_no_qfp_module():
    assert qfp_imports("quantum_sim") == set()


def test_pipeline_imports_no_quantum_sim():
    # Every fingerprint, noisy or not, comes from fingerprint_ml.compute_fingerprint.
    assert "quantum_sim" not in qfp_imports("pipeline")


@pytest.mark.parametrize("module", MODULES)
def test_runtime_imports_are_stdlib_numpy_scipy_or_qfp(module):
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "qfp"}
    assert {name.split(".")[0] for name in imported_names(module)} <= allowed


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about 0.3 s of start-up in every process; nothing needs it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qfp.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
