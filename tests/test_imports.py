"""Package structure: fci is the tests' oracle, not a production dependency,
pipeline reaches the simulator only through fingerprint_ml, the package needs
nothing beyond the standard library and numpy at run time (scipy is a test
dependency), importing the CLI and running a fingerprint load no scipy module
and no numpy.ma, importing the package loads no module of it, and no check
rests on an `assert`, which `python -O` strips."""

import ast
import json
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
    # Standard library, numpy and qfp only: scipy is a test dependency.
    allowed = set(sys.stdlib_module_names) | {"numpy", "qfp"}
    assert {name.split(".")[0] for name in imported_names(module)} <= allowed


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    # Validation raises typed errors; `python -O` would strip an assert.
    tree = ast.parse((SRC / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def fresh_python(code: str) -> str:
    """Standard output of `code` run in a new interpreter that imports qfp from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, check=True).stdout


def test_cli_import_skips_scipy_stats():
    # Importing scipy costs about 0.4 s of start-up in every process; nothing
    # at run time needs any of it.
    out = fresh_python("import sys, qfp.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_fingerprints_load_no_scipy_or_numpy_ma(tmp_path):
    # One exact and one DMET mu-fit fingerprint in a fresh process.  np.unique
    # without return_* arguments imports numpy.ma (10-16 ms) on first use.
    chain = {"kind": "chain", "z_positions": [0.0, 1.6, 3.2, 4.8]}
    (tmp_path / "manifest.json").write_text(json.dumps({"format_version": 1, "entries": [
        {"id": "h4", "generator": chain, "target": 1.6}]}))
    embeddings = {
        "exact": {"mode": "active_space", "n_active_electrons": 2, "n_active_orbitals": 2},
        "dmet": {"mode": "dmet", "fragment": [0, 1], "fit_mu": True},
    }
    argvs = []
    for name, embedding in embeddings.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "dataset": {"kind": "manifest", "path": str(tmp_path / "manifest.json")},
            "embedding": embedding, "initial_state": "hf_ground",
            "time_grid": {"start": 0, "stop": 1, "step": 0.5}, "evolver": {"kind": "exact"}}))
        argvs.append(["fingerprint", "--config", str(tmp_path / f"{name}.json"),
                      "--out", str(tmp_path / name)])
    out = fresh_python(
        "import sys, numpy\n"
        "ma_before = 'numpy.ma' in sys.modules\n"
        "from qfp import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "      'numpy.ma' in sys.modules and not ma_before)")
    assert out.splitlines()[-1] == "[0, 0] [] False"
    assert (tmp_path / "dmet" / "features.csv").exists()


def test_package_import_loads_no_submodule():
    # Modules are imported by name (from qfp import chem_io); the package re-exports nothing.
    out = fresh_python("import sys, qfp; "
                       "print(sorted(m for m in sys.modules if m.startswith('qfp.')), "
                       "qfp.__version__)")
    assert out.split() == ["[]", "0.1.0"]
