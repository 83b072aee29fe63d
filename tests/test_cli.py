import contextlib
import io
import json
import math
import os
import pathlib
import shutil
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import qfp
from qfp import chem_io, embedding, mean_field, pipeline, quantum_sim
from qfp.cli import main
from qfp.pipeline import PipelineConfig

from conftest import FIXTURES


def run(*argv):
    return main(list(argv))


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "dataset": {"kind": "manifest", "path": "data/manifest.json"},
        "embedding": {"mode": "active_space",
                      "n_active_electrons": 2, "n_active_orbitals": 2},
        "initial_state": "hf_ground",
        "time_grid": {"start": 0, "stop": 2, "step": 0.5},
        "model": {"kind": "krr", "length_scale": 1.0, "ridge": 1e-6},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def h2_dataset(tmp_path):
    out = tmp_path / "data"
    assert run("gen-h2", "--rmin", "1.0", "--rmax", "3.0", "--count", "6",
               "--out", str(out)) == 0
    return tmp_path


def test_gen_h2_endpoints_and_determinism(tmp_path):
    out = tmp_path / "d1"
    assert run("gen-h2", "--rmin", "1.0", "--rmax", "3.0", "--count", "2",
               "--out", str(out)) == 0
    entries = chem_io.load_manifest(str(out / "manifest.json"))
    assert [e.target for e in entries] == [1.0, 3.0]
    out2 = tmp_path / "d2"
    run("gen-h2", "--rmin", "1.0", "--rmax", "3.0", "--count", "2",
        "--out", str(out2))
    for name in ("manifest.json", "targets.csv", "h2_000.fcidump"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_h2_validates_range(tmp_path):
    assert run("gen-h2", "--rmin", "0.05", "--rmax", "1.0", "--count", "5",
               "--out", str(tmp_path / "x")) == 2
    assert run("gen-h2", "--rmin", "2.0", "--rmax", "1.0", "--count", "5",
               "--out", str(tmp_path / "x")) == 2
    assert not (tmp_path / "x").exists()


def test_gen_h2_bad_molecule_exit_3_and_no_out(tmp_path, capsys):
    # h2_000 is solved; h2_001, 1e200 bohr apart, has overflowing integrals.
    out = tmp_path / "data"
    assert run("gen-h2", "--rmin", "1", "--rmax", "1e200", "--count", "2",
               "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: molecule 'h2_001': ")
    assert err.count("h2_001") == 1
    assert not out.exists()


def test_fingerprint_writes_feature_table(h2_dataset):
    cfg = write_config(h2_dataset)
    out = h2_dataset / "run"
    assert run("fingerprint", "--config", cfg, "--out", str(out)) == 0
    ids, grid, X = chem_io.load_features(str(out / "features.csv"))
    assert len(ids) == 6 and X.shape == (6, 5)
    assert np.array_equal(grid, np.arange(0, 2.001, 0.5))
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["args"] == {"workers": 1}
    assert prov["version"] == qfp.__version__
    # provenance config round-trips through validation
    assert PipelineConfig.from_dict(prov["config"]).to_dict() == prov["config"]


def test_fingerprint_deterministic(h2_dataset):
    cfg = write_config(h2_dataset)
    run("fingerprint", "--config", cfg, "--out", str(h2_dataset / "r1"))
    run("fingerprint", "--config", cfg, "--out", str(h2_dataset / "r2"))
    a = (h2_dataset / "r1" / "features.csv").read_bytes()
    assert a == (h2_dataset / "r2" / "features.csv").read_bytes()


def test_run_fingerprints_on_calling_thread(h2_dataset, monkeypatch):
    path = write_config(h2_dataset)
    cfg = PipelineConfig.from_dict(json.loads(pathlib.Path(path).read_text()))
    entries = pipeline.load_dataset(cfg, path)
    seen = []
    build = pipeline.build_molecule
    monkeypatch.setattr(pipeline, "build_molecule", lambda e: seen.append(
        (e.molecule_id, threading.current_thread())) or build(e))
    values = pipeline.run_fingerprints(cfg, entries)
    assert seen == [(e.molecule_id, threading.current_thread()) for e in entries]
    assert values.shape == (6, 5)


def test_workers_flag_accepts_only_one(tmp_path, monkeypatch, capsys):
    # fingerprint keeps --workers for existing command lines; sweep has none.
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    assert run("fingerprint", "--config", "config.json", "--workers", "2", "--out", "o") == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--config", "config.json", "--axis", "time_max", "--values", "1",
            "--workers", "1", "--out", "o")
    assert exc.value.code == 2


def test_fingerprint_empty_manifest(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text('{"entries": []}')
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("fingerprint", "--config", cfg, "--out", str(out)) == 0
    text = (out / "features.csv").read_text()
    assert text.startswith("molecule_id,") and len(text.splitlines()) == 1


def test_unknown_config_key_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dataset": {"kind": "h2"}, "bogus": 1}')
    assert run("fingerprint", "--config", str(path), "--out",
               str(tmp_path / "o")) == 2


def test_missing_manifest_exit_3(tmp_path):
    cfg = write_config(tmp_path)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 3


def test_numerical_failure_exit_4(h2_dataset):
    # window larger than the orbital space -> numerical/embedding failure
    cfg = write_config(
        h2_dataset, name="big.json",
        embedding={"mode": "active_space",
                   "n_active_electrons": 2, "n_active_orbitals": 5})
    assert run("fingerprint", "--config", cfg, "--out",
               str(h2_dataset / "o")) == 4


def test_train_on_pipeline_output(h2_dataset):
    cfg = write_config(h2_dataset)
    out = h2_dataset / "run"
    run("fingerprint", "--config", cfg, "--out", str(out))
    trained = h2_dataset / "trained"
    assert run("train",
               "--features", str(out / "features.csv"),
               "--targets", str(h2_dataset / "data" / "targets.csv"),
               "--model", "krr", "--folds", "3", "--seed", "1",
               "--out", str(trained)) == 0
    rep = json.loads((trained / "cv_report.json").read_text())
    assert rep["r2"] > 0.9
    lines = (trained / "predictions.csv").read_text().splitlines()
    assert lines[0] == "molecule_id,actual,predicted"
    assert len(lines) == 7


def test_train_id_mismatch_exit_3(h2_dataset, tmp_path):
    cfg = write_config(h2_dataset)
    out = h2_dataset / "run"
    run("fingerprint", "--config", cfg, "--out", str(out))
    bad = tmp_path / "targets.csv"
    bad.write_text("molecule_id,target\nnot_a_molecule,1.0\n")
    assert run("train", "--features", str(out / "features.csv"),
               "--targets", str(bad), "--model", "krr",
               "--out", str(tmp_path / "t")) == 3


def test_train_toy_linear_r2(tmp_path):
    grid = np.arange(9.0)
    ids = [f"m{i}" for i in range(12)]
    y = np.linspace(0, 1, 12)
    X = np.outer(y, np.ones(9))
    chem_io.save_features(ids, grid, X, str(tmp_path / "f.csv"))
    with open(tmp_path / "t.csv", "w") as fh:
        fh.write("molecule_id,target\n")
        for i, yi in zip(ids, y):
            fh.write(f"{i},{yi}\n")
    assert run("train", "--features", str(tmp_path / "f.csv"),
               "--targets", str(tmp_path / "t.csv"),
               "--model", "pls", "--components", "1", "--folds", "3",
               "--out", str(tmp_path / "out")) == 0
    rep = json.loads((tmp_path / "out" / "cv_report.json").read_text())
    assert rep["r2"] == pytest.approx(1.0, abs=1e-6)


def test_sweep_time_max(h2_dataset):
    cfg = write_config(h2_dataset, time_grid={"start": 0, "stop": 4, "step": 0.5})
    out = h2_dataset / "swept"
    assert run("sweep", "--config", cfg, "--axis", "time_max",
               "--values", "2", "4", "--out", str(out)) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "time_max,r2,rmse"
    assert len(lines) == 3
    assert (out / "cv_report_time_max_2.json").exists()
    assert (out / "cv_report_time_max_4.json").exists()


def test_sweep_isolates_per_value_failures(h2_dataset):
    cfg = write_config(h2_dataset)
    out = h2_dataset / "swfail"
    # 9 components cannot be fit on 6 molecules: that value fails, 1 survives
    cfg2 = write_config(h2_dataset, name="c2.json",
                        model={"kind": "pls", "n_components": 9},
                        time_grid={"start": 0, "stop": 4, "step": 0.5})
    assert run("sweep", "--config", cfg2, "--axis", "time_max",
               "--values", "4", "--out", str(out)) == 0
    summary = (out / "summary.csv").read_text()
    assert "nan" in summary
    prov = json.loads((out / "provenance.json").read_text())
    assert list(prov["args"]["errors"]) == ["4"]


def test_cluster_three_blobs(tmp_path):
    rng = np.random.default_rng(0)
    T = 16
    grid = np.arange(float(T))
    rows, ids = [], []
    for g in range(3):
        base = 10.0 * g + (g + 1) * np.cos(2 * np.pi * (g + 1) * grid / T)
        for i in range(6):
            ids.append(f"g{g}_{i}")
            rows.append(base + 0.05 * rng.normal(size=T))
    chem_io.save_features(ids, grid, np.array(rows), str(tmp_path / "f.csv"))
    out = tmp_path / "clus"
    assert run("cluster", "--features", str(tmp_path / "f.csv"),
               "--k", "3", "--pca-dims", "2", "--out", str(out)) == 0
    labels = {}
    for line in (out / "labels.csv").read_text().splitlines()[1:]:
        mid, lab = line.split(",")
        labels[mid] = lab
    groups = [{labels[f"g{g}_{i}"] for i in range(6)} for g in range(3)]
    assert all(len(g) == 1 for g in groups)
    assert len(set.union(*groups)) == 3
    assert (out / "cluster_means.csv").exists()


def test_optimize_measurement_h2(h2_dataset):
    cfg = write_config(
        h2_dataset, name="opt.json",
        dataset={"kind": "h2", "rmin": 1.0, "rmax": 3.0, "count": 8},
        embedding={"mode": "dmet", "fragment": [0]},
        time_grid={"start": 0, "stop": 4, "step": 0.5})
    out = h2_dataset / "opt"
    assert run("optimize-measurement", "--config", cfg, "--budget", "10",
               "--seed", "3", "--out", str(out)) == 0
    best = json.loads((out / "best_operator.json").read_text())
    O = np.array(best["operator"])
    assert O.shape == (2, 2) and np.allclose(O, O.T)
    hist = json.loads((out / "gp_history.json").read_text())
    assert len(hist["values"]) == 10
    assert min(hist["values"]) == best["validation_mse"]


def test_optimize_measurement_non_finite_validation_mse_exit_4(tmp_path, capsys):
    # Targets near 1e200 overflow every squared validation error to inf.
    entries = [{"id": f"h2_{i}", "generator": {"kind": "h2", "separation": 1.0 + 0.25 * i},
                "target": 1e200 * (1 + i)} for i in range(6)]
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": entries}))
    cfg = write_config(tmp_path)
    out = tmp_path / "opt"
    assert run("optimize-measurement", "--config", cfg, "--budget", "8",
               "--out", str(out)) == 4
    assert "numerical failure: objective is inf at point" in capsys.readouterr().err
    assert not (out / "best_operator.json").exists()


def test_optimize_measurement_active_space_size_mismatch_exit_3(tmp_path, capsys,
                                                               monkeypatch):
    # A DMET cluster is the fragment and its bath: 2 orbitals for H2, 4 for H4.
    entries = [{"id": f"h2_{i}", "generator": {"kind": "h2", "separation": 1.2 + 0.2 * i},
                "target": 1.0 * i} for i in range(4)]
    entries.append({"id": "h4", "generator": {"kind": "chain",
                                              "z_positions": [0.0, 1.4, 2.8, 4.2]},
                    "target": 5.0})
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": entries}))
    cfg = write_config(tmp_path, embedding={"mode": "dmet", "fragment": [0, 1]})
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "fp")) == 0
    # h8_far's SCF does not converge (exit 4), but the mismatch at h4 stops
    # the run before h8_far is solved.
    entries.append({"id": "h8_far", "target": 3.6,
                    "generator": {"kind": "chain", "z_positions": [3.6 * i for i in range(8)]}})
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": entries}))
    calls, scf_solve = [], mean_field.scf_solve
    monkeypatch.setattr(mean_field, "scf_solve",
                        lambda m: calls.append(m.n_orbitals) or scf_solve(m))
    assert run("optimize-measurement", "--config", cfg, "--budget", "5",
               "--out", str(tmp_path / "opt")) == 3
    assert capsys.readouterr().err == ("data error: molecule 'h4': 4 active orbitals, "
                                       "not the 2 of the first molecule\n")
    assert calls == [2, 2, 2, 2, 4]
    assert not (tmp_path / "opt").exists()


def test_dmet_fragment_out_of_range_exit_2(h2_dataset):
    # H2 has orbitals 0 and 1 only
    cfg = write_config(h2_dataset, name="frag.json",
                       embedding={"mode": "dmet", "fragment": [2]})
    assert run("fingerprint", "--config", cfg, "--out",
               str(h2_dataset / "o")) == 2


def test_observable_matrix_size_mismatch_exit_2(h2_dataset):
    # a 3x3 operator on the (2e,2o) active space
    cfg = write_config(h2_dataset, name="obs.json",
                       observable={"kind": "O", "matrix": np.eye(3).tolist()})
    assert run("fingerprint", "--config", cfg, "--out",
               str(h2_dataset / "o")) == 2


@pytest.mark.parametrize("entry", [
    {"generator": {"kind": "h2", "separation": 1.4}, "target": 1.4},
    "h2_000",
])
def test_manifest_entry_without_id_exit_3(tmp_path, entry):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": [entry]}))
    cfg = write_config(tmp_path)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 3


@pytest.mark.parametrize("command,args", [
    ("train", ["--targets", "t.csv", "--model", "krr"]),
    ("cluster", ["--k", "2"]),
])
def test_ragged_feature_table_exit_3(tmp_path, monkeypatch, command, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.csv").write_text("molecule_id,t=0,t=1\nm0,0.1,0.2\nm1,0.3\n")
    (tmp_path / "t.csv").write_text("molecule_id,target\nm0,1.0\nm1,2.0\n")
    assert run(command, "--features", "f.csv", *args, "--out", "o") == 3


# The commands that read the ten-molecule f.csv (and t.csv).
TABLE_COMMANDS = {
    "train_pls": ["train", "--features", "f.csv", "--targets", "t.csv", "--model", "pls"],
    "train_krr": ["train", "--features", "f.csv", "--targets", "t.csv", "--model", "krr"],
    "cluster": ["cluster", "--features", "f.csv", "--k", "2"],
}


def _edit_table(directory, row, col, text, table="f.csv"):
    """Replace field col of line row (0 is the header) of the ten-molecule f.csv or t.csv."""
    _ten_molecule_table(directory)
    lines = (directory / table).read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = text
    lines[row] = ",".join(fields)
    (directory / table).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("row,col,text,command", [
    (3, 5, "inf", "cluster"),
    (3, 5, "nan", "train_pls"),
    (0, 4, "t=nan", "train_pls"),
    (0, 4, "t=1e999", "train_krr"),
    (0, 4, "t=0.5", "train_krr"),
    (0, 4, "x=1.7", "train_krr"),
], ids=["inf_cell", "nan_cell", "nan_time", "infinite_time", "repeated_time", "not_a_time"])
def test_bad_feature_table_exit_3(tmp_path, monkeypatch, capsys, row, col, text, command):
    monkeypatch.chdir(tmp_path)
    _edit_table(tmp_path, row, col, text)
    assert run(*TABLE_COMMANDS[command], "--out", "o") == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("table,col,text,message", [
    ("f.csv", 0, "m2", "f.csv: line 5: repeated molecule id 'm2'"),
    ("t.csv", 0, "m2", "t.csv: line 5: repeated molecule id 'm2'"),
    ("t.csv", 1, "nan", "t.csv: line 5: 'nan' is not a finite number"),
    ("t.csv", 1, "-inf", "t.csv: line 5: '-inf' is not a finite number"),
    ("t.csv", 1, "1.0,2.0", "t.csv: line 5: expected 2 fields, got 3"),
], ids=["repeated_feature_id", "repeated_target_id", "nan_target", "inf_target",
        "three_field_target_row"])
def test_repeated_id_or_non_finite_target_exit_3(tmp_path, monkeypatch, capsys,
                                                 table, col, text, message):
    # A repeated id used to train on one of its targets and drop the other.
    monkeypatch.chdir(tmp_path)
    _edit_table(tmp_path, 4, col, text, table)
    assert run(*TABLE_COMMANDS["train_krr"], "--folds", "2", "--out", "o") == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_targets_with_wrong_header_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _edit_table(tmp_path, 0, 1, "y", "t.csv")
    assert run(*TABLE_COMMANDS["train_krr"], "--out", "o") == 3
    assert "t.csv: line 1: expected header `molecule_id,target`" in capsys.readouterr().err


def test_feature_table_without_times_exit_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _ten_molecule_table(tmp_path)
    (tmp_path / "f.csv").write_text("molecule_id\n" + "".join(f"m{i}\n" for i in range(10)))
    assert run(*TABLE_COMMANDS["train_krr"], "--out", "o") == 3


@pytest.mark.filterwarnings("error")
def test_cluster_overflowing_features_exit_4(tmp_path, monkeypatch, capfd):
    # 1e308 is a finite cell, but the variance of its series overflows.
    monkeypatch.chdir(tmp_path)
    _edit_table(tmp_path, 3, 5, "1e308")
    assert run(*TABLE_COMMANDS["cluster"], "--out", "o") == 4
    err = capfd.readouterr().err
    assert "not finite" in err
    assert "DLASCL" not in err
    assert not (tmp_path / "o" / "labels.csv").exists()


H2_ENTRY = {"id": "h2_000", "generator": {"kind": "h2", "separation": 1.4}, "target": 1.4}


@pytest.mark.parametrize("manifest", [
    {"entries": 5},
    {"entries": [{**H2_ENTRY, "target": "abc"}]},
    {"entries": [H2_ENTRY], "format_version": "x"},
    {"entries": [{**H2_ENTRY, "generator": 5}]},
    {"entries": [{"id": "m0", "fcidump": 5, "target": 1.0}]},
    {"entries": [{**H2_ENTRY, "generator": {"kind": "h2", "separation": "x"}}]},
    {"entries": [{**H2_ENTRY, "generator": {"kind": "chain", "z_positions": 5}}]},
    {"entries": [{**H2_ENTRY, "generator": {"kind": "chain", "z_positions": [0.0, "a"]}}]},
    *[{"entries": [H2_ENTRY, {**H2_ENTRY, "id": bad}]} for bad in ("a,b", "c\nd", "e\rf")],
    {"entries": [{**H2_ENTRY, "id": True}]},
    {"entries": [{**H2_ENTRY, "id": 7}]},
    {"entries": [{**H2_ENTRY, "target": True}]},
    {"entries": [{**H2_ENTRY, "target": "1.4"}]},
    {"entries": [H2_ENTRY], "format_version": 3.7},
    {"entries": [H2_ENTRY], "format_version": True},
    {"entries": [H2_ENTRY], "format_version": "1"},
    {"entries": [H2_ENTRY], "format_version": 2},
], ids=["entries", "target", "format_version", "generator", "fcidump",
        "separation", "z_positions", "z_position_item", "id_comma", "id_newline",
        "id_carriage_return", "id_true", "id_number", "target_true", "target_string",
        "format_version_float", "format_version_true", "format_version_string",
        "format_version_2"])
def test_malformed_manifest_value_exit_3(tmp_path, manifest):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
    cfg = write_config(tmp_path)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert not (tmp_path / "o" / "features.csv").exists()


# A 2-molecule H2 manifest: an h2 generator, and the same molecule as a chain.
FUZZ_MANIFEST = {"format_version": 1, "entries": [
    {"id": "h2_a", "generator": {"kind": "h2", "separation": 1.4}, "target": 1.4,
     "label": "a"},
    {"id": "h2_b", "generator": {"kind": "chain", "z_positions": [0.0, 1.6]}, "target": 1.6,
     "label": "b"},
]}
# (entry index, field): generator fields go inside the entry's generator; an
# index of None is a top-level key.
MANIFEST_TARGETS = (
    [(i, f) for i in (0, 1) for f in ("id", "generator", "kind", "separation",
                                       "z_positions", "fcidump", "target", "label")]
    + [(None, "format_version")]
)
MANIFEST_SCALARS = st.one_of(
    st.integers(-2, 5),
    st.integers(-2**70, 2**70),
    st.integers(-30, 60).map(lambda k: k / 10),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, 1e-300, 10**400]),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["a,b", "c\nd", "e\rf", "h2", "chain", "h2.fcidump", "1.4"]),
)
MANIFEST_VALUES = st.one_of(
    MANIFEST_SCALARS,
    st.lists(st.one_of(st.integers(-1, 3), st.integers(-30, 30).map(lambda k: k / 10),
                       st.booleans(), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.sampled_from(["kind", "separation", "z_positions", "x"]),
                    MANIFEST_SCALARS, max_size=2),
    st.sampled_from([{"kind": "h2", "separation": 2.0},
                     {"kind": "chain", "z_positions": [0, 1.2]}]),
)


@pytest.fixture(scope="module")
def fuzz_manifest_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("manifests")
    shutil.copy(os.path.join(FIXTURES, "h2_sto3g_1.4_reference.fcidump"),
                directory / "h2.fcidump")
    (directory / "config.json").write_text(json.dumps({
        "dataset": {"kind": "manifest", "path": "manifest.json"},
        "embedding": {"mode": "active_space", "n_active_electrons": 2,
                      "n_active_orbitals": 2},
        "initial_state": "hf_ground",
        "time_grid": {"start": 0, "stop": 0.5, "step": 0.5},
    }))
    return directory


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(MANIFEST_TARGETS), value=MANIFEST_VALUES)
@example(target=(0, "id"), value="a,b")
@example(target=(1, "id"), value="c\nd")
@example(target=(1, "z_positions"), value=[])
@example(target=(None, "format_version"), value=math.inf)
@example(target=(0, "target"), value=10**400)
def test_manifest_values_fuzz_exit_codes(fuzz_manifest_dir, target, value):
    index, key = target
    manifest = json.loads(json.dumps(FUZZ_MANIFEST))
    if index is None:
        manifest[key] = value
    elif key in ("kind", "separation", "z_positions"):
        manifest["entries"][index]["generator"][key] = value
    else:
        manifest["entries"][index][key] = value
    path = fuzz_manifest_dir / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tempfile.mkdtemp(dir=fuzz_manifest_dir)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["fingerprint", "--config", str(fuzz_manifest_dir / "config.json"),
                     "--workers", "1", "--out", out])
    event(f"{key} exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    # id is a string and target a number; a boolean or a numeric string is
    # neither.  format_version is the integer 1 or absent.
    json_types = {"id": str, "target": (int, float)}
    if key in json_types and (isinstance(value, bool) or not isinstance(value, json_types[key])):
        assert code == 3
    if key == "format_version" and (value != 1 or type(value) is not int):
        assert code == 3
    if code == 0:
        ids, _, values = chem_io.load_features(os.path.join(out, "features.csv"))
        assert ids == [e.molecule_id for e in chem_io.load_manifest(str(path))]
        assert values.shape == (2, 2)


def _localized_chain(norb):
    m = chem_io.s_orbital_integrals(chem_io.hydrogen_chain(np.arange(norb) * 1.4), 2)
    return embedding.localize_integrals(m, mean_field.lowdin_orthonormalize(m.S))


# Orthonormal-basis integrals of H1..H4 chains.  NORB stays small: the ERI
# tensor of an FCIDUMP holds NORB^4 floats (12.8 GB at NORB = 200).
FCIDUMP_BASES = {norb: chem_io.emit_fcidump(_localized_chain(norb)) for norb in range(1, 5)}
FCIDUMP_TOKENS = st.one_of(
    st.none(),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1.0D+300", "0", "abc"]),
)


def _fcidump_number(token):
    try:
        return float(token.replace("D", "E"))
    except ValueError:
        return math.nan


@settings(max_examples=100, deadline=None)
@given(norb=st.integers(1, 4), nelec=st.one_of(st.just(2), st.integers(-4, 12)),
       record=st.integers(-40, 40), token=FCIDUMP_TOKENS)
# Each of these used to exit 0 or 4: a NaN core energy, a NaN h_11, and more
# electron pairs than orbitals.
@example(norb=2, nelec=2, record=-1, token="nan")
@example(norb=2, nelec=2, record=-2, token="nan")
@example(norb=2, nelec=6, record=0, token=None)
def test_fcidump_values_fuzz_exit_codes(fuzz_manifest_dir, norb, nelec, record, token):
    lines = FCIDUMP_BASES[norb].splitlines()
    lines[0] = f"&FCI NORB={norb},NELEC={nelec},MS2=0,"
    records = lines[3:]  # "value p q r s"; the core energy is last
    if token is not None:
        k = record % len(records)
        records[k] = " ".join([token, *records[k].split()[1:]])
    (fuzz_manifest_dir / "fuzzed.fcidump").write_text("\n".join(lines[:3] + records) + "\n")
    (fuzz_manifest_dir / "manifest.json").write_text(json.dumps({"entries": [
        {"id": "fuzzed", "fcidump": "fuzzed.fcidump", "target": 1.0},
        {"id": "h2", "fcidump": "h2.fcidump", "target": 1.4},
    ]}))
    out = tempfile.mkdtemp(dir=fuzz_manifest_dir)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["fingerprint", "--config", str(fuzz_manifest_dir / "config.json"),
                     "--out", out])
    event(f"exit {code}")
    assert "Traceback" not in stderr.getvalue()
    invalid = (nelec % 2 or not 0 < nelec <= 2 * norb
               or (token is not None and not math.isfinite(_fcidump_number(token))))
    if invalid:
        assert code == 3, stderr.getvalue()
        assert "'fuzzed'" in stderr.getvalue()
    else:
        assert code in (0, 4), stderr.getvalue()


@pytest.mark.parametrize("header", [
    "&FCI NORB=,NELEC=2,MS2=0,",
    "&FCI NORB=2,NELEC=,MS2=0,",
    "&FCI NORB=2,MS2=0,NELEC=",
    "&FCI NORB=2,MS2=0,",
    "&FCI NORB=2.5,NELEC=2,MS2=0,",
], ids=["empty_norb", "empty_nelec", "trailing_nelec", "missing_nelec", "fractional_norb"])
def test_bad_fcidump_header_value_exit_3(fuzz_manifest_dir, capsys, header):
    # An empty NORB or NELEC value used to end in an IndexError traceback.
    lines = FCIDUMP_BASES[2].splitlines()
    (fuzz_manifest_dir / "header.fcidump").write_text("\n".join([header, *lines[1:]]) + "\n")
    (fuzz_manifest_dir / "manifest.json").write_text(json.dumps({"entries": [
        {"id": "header", "fcidump": "header.fcidump", "target": 1.0}]}))
    out = tempfile.mkdtemp(dir=fuzz_manifest_dir)
    assert main(["fingerprint", "--config", str(fuzz_manifest_dir / "config.json"),
                 "--out", out]) == 3
    assert capsys.readouterr().err.startswith("data error: molecule 'header': line 1: ")


def test_fcidump_too_large_to_allocate_exit_3(fuzz_manifest_dir, capsys):
    # 10^5 orbitals need an 80 GB h_core and far more for the ERIs: the
    # allocation fails before any integral record is read.
    lines = FCIDUMP_BASES[2].splitlines()
    (fuzz_manifest_dir / "big.fcidump").write_text(
        "\n".join(["&FCI NORB=100000,NELEC=2,MS2=0,", *lines[1:]]) + "\n")
    (fuzz_manifest_dir / "manifest.json").write_text(json.dumps({"entries": [
        {"id": "big", "fcidump": "big.fcidump", "target": 1.0}]}))
    out = tempfile.mkdtemp(dir=fuzz_manifest_dir)
    assert main(["fingerprint", "--config", str(fuzz_manifest_dir / "config.json"),
                 "--out", out]) == 3
    assert capsys.readouterr().err.startswith("data error: molecule 'big': ")


def test_out_of_memory_in_evolution_names_the_molecule(h2_dataset, monkeypatch, capsys):
    def evolve(self, psi0, t):
        raise MemoryError("Unable to allocate 61.0 GiB for an array")

    monkeypatch.setattr(quantum_sim.ExactEvolver, "evolve", evolve)
    cfg = write_config(h2_dataset)
    assert run("fingerprint", "--config", cfg, "--out", str(h2_dataset / "fp")) == 4
    assert capsys.readouterr().err == ("numerical failure: molecule 'h2_000': "
                                       "Unable to allocate 61.0 GiB for an array\n")
    # sweep records the value as failed and goes on.
    out = h2_dataset / "sw"
    assert run("sweep", "--config", cfg, "--axis", "time_max", "--values", "1",
               "--out", str(out)) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert list(prov["args"]["errors"]) == ["1"]


@pytest.mark.filterwarnings("error")
def test_fcidump_near_float_limit_exits_4_naming_scf_overflow(fuzz_manifest_dir, capsys):
    # h_11 = 1.7e308 is finite, so the FCIDUMP parses, but the SCF energy overflows.
    text = FCIDUMP_BASES[2].splitlines()
    records = [r.split() for r in text[3:]]
    for r in records:
        if r[1:] == ["1", "1", "0", "0"]:
            r[0] = "1.7e308"
    (fuzz_manifest_dir / "huge.fcidump").write_text(
        "\n".join(text[:3] + [" ".join(r) for r in records]) + "\n")
    (fuzz_manifest_dir / "manifest.json").write_text(json.dumps({"entries": [
        {"id": "huge", "fcidump": "huge.fcidump", "target": 1.0}]}))
    out = tempfile.mkdtemp(dir=fuzz_manifest_dir)
    code = main(["fingerprint", "--config", str(fuzz_manifest_dir / "config.json"),
                 "--out", out])
    err = capsys.readouterr().err
    assert code == 4
    assert err == ("numerical failure: molecule 'huge': "
                   "SCF overflow: non-finite energy\n")


H2_SCAN = {"kind": "h2", "rmin": 1.0, "rmax": 2.0, "count": 2}


@pytest.mark.parametrize("time_grid", [
    {"start": 0, "stop": float("inf"), "step": 0.5},
    {"start": 0, "stop": float("nan"), "step": 0.5},
    {"start": 0, "stop": 1e12, "step": 1e-3},
], ids=["infinite_stop", "nan_stop", "too_many_points"])
def test_unusable_time_grid_exit_2(tmp_path, time_grid):
    cfg = write_config(tmp_path, dataset=H2_SCAN, time_grid=time_grid)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 2


def _config_with_grid(time_grid):
    return PipelineConfig.from_dict({
        "dataset": H2_SCAN, "initial_state": "hf_ground", "time_grid": time_grid,
        "embedding": {"mode": "active_space", "n_active_electrons": 2,
                      "n_active_orbitals": 2}})


@pytest.mark.parametrize("time_grid, expected", [
    # stop 1.0 lies 0.4 steps past 0.6: rounding the step count gave 1.2
    ({"start": 0, "stop": 1.0, "step": 0.6}, [0.0, 0.6]),
    # (0.3 - 0) / 0.1 = 2.9999999999999996: stop is a multiple up to round-off
    ({"start": 0, "stop": 0.3, "step": 0.1}, [0.0, 0.1, 0.2, 0.1 * 3]),
    ({"start": 0, "stop": 14, "step": 0.5}, [0.5 * i for i in range(29)]),
])
def test_time_grid_never_passes_stop(time_grid, expected):
    assert _config_with_grid(time_grid).grid().tolist() == expected


def test_time_grid_point_limit_counts_as_the_grid():
    limit = pipeline.MAX_GRID_POINTS
    _config_with_grid({"start": 0, "stop": limit - 0.3, "step": 1})  # limit points
    with pytest.raises(pipeline.ConfigError, match="more than"):
        _config_with_grid({"start": 0, "stop": limit, "step": 1})


def test_config_path_is_directory_exit_2(tmp_path):
    assert run("fingerprint", "--config", str(tmp_path), "--out",
               str(tmp_path / "o")) == 2


def test_config_not_utf8_exit_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dataset": {"kind": "h2"}, "label": "café"}'.encode("latin-1"))
    assert run("fingerprint", "--config", str(path), "--out",
               str(tmp_path / "o")) == 2


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_config_nested_too_deeply_exit_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    assert run("fingerprint", "--config", str(path), "--out",
               str(tmp_path / "o")) == 2


def test_manifest_nested_too_deeply_exit_3(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(DEEP_JSON)
    cfg = write_config(tmp_path)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 3


@pytest.mark.parametrize("name,code", [("config.json", 2), ("data/manifest.json", 3)])
def test_json_integer_too_long_to_read_exit_2_or_3(tmp_path, name, code):
    # Python refuses integers of more than 4300 digits with a plain ValueError,
    # which used to end in a traceback.
    cfg = write_config(tmp_path)
    (tmp_path / "data").mkdir()
    (tmp_path / name).write_text('{"entries": ' + "1" * 5000 + "}")
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == code


FEATURES_CSV = "molecule_id,t=0,t=1\nm0,0.1,0.2\nm1,0.3,0.4\n"
TARGETS_CSV = "molecule_id,target\nm0,1.0\nm1,2.0\n"
FINGERPRINT = ["fingerprint", "--config", "config.json"]
TRAIN = ["train", "--features", "f.csv", "--targets", "t.csv", "--model", "krr"]


# {path: text, bytes, or None for a directory}, CLI arguments
@pytest.mark.parametrize("files,argv", [
    ({"data/manifest.json": '{"entries": [], "label": "café"}'.encode("latin-1")},
     FINGERPRINT),
    ({"data/manifest.json": None}, FINGERPRINT),
    ({"data/manifest.json": json.dumps({"entries": [{"id": "m0", "fcidump": "m0"}]}),
      "data/m0": None}, FINGERPRINT),
    ({"f.csv": FEATURES_CSV, "t.csv": None}, TRAIN),
    ({"f.csv": None, "t.csv": TARGETS_CSV}, TRAIN),
    ({"f.csv": None}, ["cluster", "--features", "f.csv", "--k", "2"]),
], ids=["manifest_not_utf8", "manifest_is_directory", "fcidump_is_directory",
        "targets_is_directory", "train_features_is_directory",
        "cluster_features_is_directory"])
def test_unreadable_input_file_exit_3(tmp_path, monkeypatch, files, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "data").mkdir()
    for name, content in files.items():
        path = tmp_path / name
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    assert run(*argv, "--out", "o") == 3


def test_optimize_measurement_names_failing_molecule_exit_4(tmp_path, capsys):
    # Four H2 and then a stretched H8 (3.6 bohr spacing) whose damped RHF
    # iterations do not converge.
    entries = [{"id": f"h2_{i}", "generator": {"kind": "h2", "separation": 1.0 + 0.3 * i},
                "target": 1.0 + 0.3 * i} for i in range(4)]
    entries.append({"id": "h8_far", "target": 3.6,
                    "generator": {"kind": "chain", "z_positions": [3.6 * i for i in range(8)]}})
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": entries}))
    cfg = write_config(tmp_path)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "fp")) == 4
    assert "molecule 'h8_far'" in capsys.readouterr().err
    assert run("optimize-measurement", "--config", cfg, "--budget", "5",
               "--out", str(tmp_path / "opt")) == 4
    assert "molecule 'h8_far'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen-h2", "--rmin", "1.0", "--rmax", "2.0", "--count", "2"],
    FINGERPRINT,
    TRAIN,
    ["sweep", "--config", "config.json", "--axis", "time_max", "--values", "1"],
    ["cluster", "--features", "f.csv", "--k", "2"],
    ["optimize-measurement", "--config", "config.json", "--budget", "5"],
], ids=lambda argv: argv[0])
def test_out_path_is_a_file_exit_3(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "f.csv").write_text(FEATURES_CSV)
    (tmp_path / "t.csv").write_text(TARGETS_CSV)
    (tmp_path / "afile").write_text("not a directory\n")
    assert run(*argv, "--out", "afile") == 3
    assert "--out afile" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    FINGERPRINT, ["optimize-measurement", "--config", "config.json", "--budget", "5"],
], ids=lambda argv: argv[0])
def test_out_path_below_a_file_exit_3_before_any_scf(tmp_path, monkeypatch, capsys, argv):
    calls, scf_solve = [], mean_field.scf_solve
    monkeypatch.setattr(mean_field, "scf_solve", lambda m: calls.append(m) or scf_solve(m))
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, dataset={**H2_SCAN, "count": 5})
    (tmp_path / "afile").write_text("not a directory\n")
    assert run(*argv, "--out", "afile/sub") == 3
    assert "--out afile/sub" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("output,argv", [
    ("labels.csv", ["cluster", "--features", "f.csv", "--k", "2"]),
    ("cv_report.json", ["train", "--features", "f.csv", "--targets", "t.csv",
                        "--model", "krr", "--folds", "3"]),
    ("features.csv", ["fingerprint", "--config", "config.json"]),
], ids=["cluster", "train", "fingerprint"])
def test_output_file_is_a_directory_exit_3(tmp_path, monkeypatch, capsys, output, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, dataset=H2_SCAN)
    ids = [f"m{i}" for i in range(6)]
    grid = 0.5 * np.arange(12)
    chem_io.save_features(ids, grid, np.sin(np.outer(np.arange(1, 7), grid)), "f.csv")
    (tmp_path / "t.csv").write_text(
        "molecule_id,target\n" + "".join(f"{i},{k}\n" for k, i in enumerate(ids)))
    (tmp_path / "o" / output).mkdir(parents=True)
    assert run(*argv, "--out", "o") == 3
    assert output in capsys.readouterr().err


def test_scf_failure_names_the_molecule_exit_4(tmp_path, capsys):
    # stretched H8 at 3.6 bohr spacing: the damped RHF iterations do not converge
    (tmp_path / "data").mkdir()
    entry = {"id": "h8_far", "target": 3.6,
             "generator": {"kind": "chain", "z_positions": [3.6 * i for i in range(8)]}}
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": [entry]}))
    cfg = write_config(tmp_path)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 4
    assert "molecule 'h8_far'" in capsys.readouterr().err


def _ten_molecule_table(directory):
    """f.csv and t.csv: 10 molecules x 12 times, the shape of a small fingerprint run."""
    ids = [f"m{i}" for i in range(10)]
    grid = 0.5 * np.arange(1, 13)
    X = np.sin(np.outer(np.linspace(1.0, 2.0, 10), grid))
    chem_io.save_features(ids, grid, X, str(directory / "f.csv"))
    (directory / "t.csv").write_text(
        "molecule_id,target\n" + "".join(f"{i},{x:.17g}\n" for i, x in zip(ids, X[:, 3])))


TRAIN_10 = ["train", "--features", "f.csv", "--targets", "t.csv"]


# (the bad flag, argv).  gen-h2's flags and train's model flags are checked as
# the config keys they fill, which carry the flag's name: dataset.rmin,
# model.length_scale.
BAD_FLAGS = [
    ("folds", [*TRAIN_10, "--model", "krr", "--folds", "1"]),
    ("folds", [*TRAIN_10, "--model", "krr", "--folds", "0"]),
    ("folds", [*TRAIN_10, "--model", "krr", "--folds", "50"]),
    ("components", [*TRAIN_10, "--model", "pls", "--components", "99"]),
    ("length_scale", [*TRAIN_10, "--model", "krr", "--length-scale", "0"]),
    ("length_scale", [*TRAIN_10, "--model", "krr", "--length-scale", "nan"]),
    ("ridge", [*TRAIN_10, "--model", "krr", "--ridge=-1"]),
    ("--pca-dims", ["cluster", "--features", "f.csv", "--k", "3", "--pca-dims", "0"]),
    ("rmin", ["gen-h2", "--rmin", "nan", "--rmax", "3", "--count", "2"]),
    ("rmax", ["gen-h2", "--rmin", "1", "--rmax", "inf", "--count", "2"]),
    # np.linspace fails on a scan this long: the count is rejected first.
    ("count", ["gen-h2", "--rmin", "1", "--rmax", "2", "--count", str(10**20)]),
    *[("--budget", ["optimize-measurement", "--config", "config.json", f"--budget={b}"])
      for b in (0, 1, 3, -1)],
    ("--workers", ["fingerprint", "--config", "config.json", "--workers", "0"]),
]


@pytest.mark.parametrize("flag,argv", [
    pytest.param(flag, argv, id="_".join(a.lstrip("-") for a in argv if a not in TRAIN_10[1:]))
    for flag, argv in BAD_FLAGS])
def test_bad_numeric_flag_exit_2(tmp_path, monkeypatch, capsys, flag, argv):
    monkeypatch.chdir(tmp_path)
    _ten_molecule_table(tmp_path)
    write_config(tmp_path, dataset={**H2_SCAN, "count": 6})
    assert run(*argv, "--out", "o") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert flag in err
    assert not (tmp_path / "o").exists()


# Each flag is often in range, so that valid runs are drawn too.
@pytest.mark.filterwarnings("error")
def test_train_non_finite_cv_exit_4(tmp_path, monkeypatch, capsys):
    # A feature of 1e300 overflows the kernel's squared distances, which gives
    # NaN out-of-fold predictions; cv_report.json would not be JSON.
    monkeypatch.chdir(tmp_path)
    _ten_molecule_table(tmp_path)
    ids, grid, X = chem_io.load_features("f.csv")
    X[4, 7] = 1e300
    chem_io.save_features(ids, grid, X, "f.csv")
    assert run(*TRAIN_10, "--model", "krr", "--out", "o") == 4
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "cv_report.json").exists()


INT_FLAG = st.one_of(st.integers(1, 5), st.integers(-3, 12), st.integers())
FLOAT_FLAG = st.one_of(st.floats(0.2, 5.0), st.floats(0.0, 10.0), st.floats())
FLAG_ARGVS = st.one_of(
    st.builds(lambda k, c, s: [*TRAIN_10, "--model", "pls", f"--folds={k}",
                               f"--components={c}", f"--seed={s}"],
              INT_FLAG, INT_FLAG, INT_FLAG),
    st.builds(lambda k, ls, r: [*TRAIN_10, "--model", "krr", f"--folds={k}",
                                f"--length-scale={ls!r}", f"--ridge={r!r}"],
              INT_FLAG, FLOAT_FLAG, FLOAT_FLAG),
    st.builds(lambda k, d, s: ["cluster", "--features", "f.csv", f"--k={k}",
                               f"--pca-dims={d}", f"--seed={s}"],
              INT_FLAG, INT_FLAG, INT_FLAG),
    # A few molecules at most: each one is an SCF and an FCIDUMP.
    st.builds(lambda lo, hi, n: ["gen-h2", f"--rmin={lo!r}", f"--rmax={hi!r}", f"--count={n}"],
              FLOAT_FLAG, FLOAT_FLAG, st.one_of(st.integers(2, 3), st.integers(-2, 3))),
)


@pytest.fixture(scope="module")
def ten_molecule_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("flags")
    _ten_molecule_table(directory)
    return directory


@settings(max_examples=200, deadline=None)
@given(argv=FLAG_ARGVS)
# A length scale whose square overflows, and a separation whose square does.
@example(argv=[*TRAIN_10, "--model", "krr", "--length-scale=1.3407807929942597e+154"])
@example(argv=["gen-h2", "--rmin=1.0", "--rmax=1e+200", "--count=2"])
def test_numeric_flags_fuzz_exit_codes(ten_molecule_dir, argv):
    out = tempfile.mkdtemp(dir=ten_molecule_dir)
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ten_molecule_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main([*argv, "--out", out])
            except SystemExit as exc:  # argparse rejects the value itself
                code = exc.code
    finally:
        os.chdir(cwd)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    report = os.path.join(out, "cv_report.json")
    if os.path.exists(report):
        with open(report) as fh:  # strict JSON: no NaN or Infinity
            json.load(fh, parse_constant=lambda c: pytest.fail(f"{c} in cv_report.json"))


FEATURE_CELLS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: f"t={v!r}"),
    st.sampled_from(["", "x", "inf", "-inf", "nan", "1e999", "1e308", "-1e308", "0x10",
                     "1,2", "t=", "t=x", "t=0.5", "t=1e999", "1_0", " 2.5 "]),
    st.text(max_size=4),
)


def _bad_cell(text: str, header: bool) -> bool:
    """True for a time or value that is not a finite number (a time needs t=)."""
    if header:
        if not text.startswith("t="):
            return True
        text = text[2:]
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return True


# DeprecationWarnings stay warnings: hypothesis' explanation of a failing
# example imports libcst, whose DeprecationWarning would otherwise end the run
# in an INTERNALERROR instead of reporting the example.
@pytest.mark.filterwarnings("error", "ignore::DeprecationWarning")
@settings(max_examples=100, deadline=None)
@given(row=st.integers(0, 10), col=st.integers(0, 12), text=FEATURE_CELLS)
# Each of these used to exit 0; 1e308 also made LAPACK print DLASCL errors.
@example(row=3, col=5, text="inf")
@example(row=3, col=5, text="1e308")
@example(row=0, col=4, text="t=nan")
# Each of these printed numpy warnings: finite time-series features whose PCA
# standardization overflows, and a time grid too wide for polyfit.
@example(row=1, col=1, text="4.4161370087347275e+77")
@example(row=0, col=12, text="t=1.3407807929942597e+154")
def test_feature_table_fuzz_exit_codes(ten_molecule_dir, row, col, text):
    directory = tempfile.mkdtemp(dir=ten_molecule_dir)
    _edit_table(pathlib.Path(directory), row, col, text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in TABLE_COMMANDS.items():
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", name])
            event(f"{name} exit {code}")
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in stderr.getvalue()
            if col > 0 and _bad_cell(text, header=row == 0):
                assert code == 3, name
    finally:
        os.chdir(cwd)


# "__RAW__" is replaced by raw JSON text: 1e400 parses to inf.
@pytest.mark.parametrize("overrides,key", [
    ({"embedding": {"mode": "active_space", "n_active_electrons": 2,
                    "n_active_orbitals": 2, "exchange_factor": 1.0}}, "exchange_factor"),
    ({"embedding": {"mode": "dmet", "fragment": [0], "exchange_factor": 0.5}},
     "exchange_factor"),
    ({"observable": {"kind": "rdm"}}, "observable.kind"),
    *[({"embedding": {"mode": "dmet", "fragment": [0], "fit_mu": True,
                      "target_filling": tf}}, "target_filling")
      for tf in (float("nan"), float("inf"), "__RAW__", 2.5, -0.5)],
    ({"embedding": {"mode": "dmet", "fragment": [True, 0]}}, "fragment"),
    *[({"embedding": {"mode": "dmet", "fragment": [0], "target_filling": 0.3, **fit}},
       "target_filling") for fit in ({}, {"fit_mu": False})],
    ({"dataset": {**H2_SCAN, "count": 10**20}}, "dataset.count"),
    *[({"observable": {"kind": "O", "matrix": [[x, 0], [0, 1]]}}, "observable.matrix")
      for x in (float("inf"), float("nan"), "__RAW__", True, "1", 10**400)],
    ({"observable": {"kind": "O", "matrix": [[1e308, -1e308], [1e308, 1]]}},
     "observable.matrix"),
    ({"initial_state": "homo_lumo_excited",
      "embedding": {"mode": "active_space", "n_active_electrons": 2, "n_active_orbitals": 1}},
     "initial_state"),
], ids=["exchange_factor_active_space", "exchange_factor_dmet", "rdm_observable",
        "target_filling_nan", "target_filling_infinity", "target_filling_1e400",
        "target_filling_above_2n", "target_filling_negative", "fragment_bool",
        "target_filling_without_fit_mu", "target_filling_fit_mu_false", "h2_count_1e20",
        "matrix_infinity", "matrix_nan", "matrix_1e400", "matrix_true", "matrix_string",
        "matrix_int_past_float", "matrix_asymmetric_past_float",
        "homo_lumo_excited_without_virtual"])
def test_invalid_config_value_exit_2(tmp_path, capsys, monkeypatch, overrides, key):
    calls, scf_solve = [], mean_field.scf_solve
    monkeypatch.setattr(mean_field, "scf_solve", lambda m: calls.append(m) or scf_solve(m))
    cfg = write_config(tmp_path, **{"dataset": H2_SCAN, **overrides})
    with open(cfg) as fh:
        text = fh.read().replace('"__RAW__"', "1e400")
    with open(cfg, "w") as fh:
        fh.write(text)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert key in capsys.readouterr().err
    assert calls == []


def test_sweep_to_a_full_active_space_exit_2_before_any_scf(tmp_path, capsys, monkeypatch):
    # (2e,1o) leaves homo_lumo_excited no virtual orbital: the sweep's first
    # value, (2e,2o), does not run either.
    calls, scf_solve = [], mean_field.scf_solve
    monkeypatch.setattr(mean_field, "scf_solve", lambda m: calls.append(m) or scf_solve(m))
    cfg = write_config(tmp_path, dataset=H2_SCAN, initial_state="homo_lumo_excited")
    assert run("sweep", "--config", cfg, "--axis", "active_space", "--values", "2:2", "2:1",
               "--out", str(tmp_path / "o")) == 2
    assert "initial_state" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides", [
    {}, {"evolver": {"kind": "trotter", "order": 2, "r": 1},
         "noise": {"p": 0.01, "n_trajectories": 4}},
], ids=["exact", "noisy"])
def test_overflowing_observable_exits_4_without_warnings(tmp_path, capsys, overrides):
    # Finite entries whose products with the density matrix pass 1e308.
    cfg = write_config(tmp_path, dataset=H2_SCAN,
                       observable={"kind": "O", "matrix": [[1e308, 1e308], [1e308, 1e308]]},
                       **overrides)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 4
    err = capsys.readouterr().err
    assert "molecule 'h2_000'" in err
    assert "overflows" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("generator", [
    {"kind": "h2", "separation": "nan"},
    {"kind": "h2", "separation": 1e200},
    {"kind": "h2", "separation": 0},
    {"kind": "chain", "z_positions": [0, "inf"]},
    {"kind": "h2", "separation": True},
    {"kind": "h2", "separation": "3.5"},
    {"kind": "chain", "z_positions": [0, True, 2.8, 4.2]},
    *[{"kind": "chain", "z_positions": [0, z]} for z in (1e-3, 1e-5, 1e-9)],
], ids=["nan_separation", "huge_separation", "zero_separation", "infinite_z",
        "true_separation", "string_separation", "true_z",
        "near_coincident_1e-3", "near_coincident_1e-5", "near_coincident_1e-9"])
@pytest.mark.parametrize("argv", [
    ["fingerprint"], ["optimize-measurement", "--budget", "5"],
], ids=lambda argv: argv[0])
def test_bad_generator_geometry_exit_3(tmp_path, capsys, generator, argv):
    # Five entries, as optimize-measurement needs; the bad one comes first.
    entries = [{"id": "bad", "generator": generator, "target": 1.0}] + [
        {"id": f"h2_{i}", "generator": {"kind": "h2", "separation": 1.0 + 0.3 * i},
         "target": 1.0 + 0.3 * i} for i in range(4)]
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": entries}))
    cfg = write_config(tmp_path)
    assert run(*argv, "--config", cfg, "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert "molecule 'bad'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["fingerprint"], ["optimize-measurement", "--budget", "5"],
    ["sweep", "--axis", "time_max", "--values", "1", "2"],
], ids=lambda argv: argv[0])
def test_malformed_last_generator_exit_3_before_any_scf(tmp_path, capsys, monkeypatch, argv):
    # The manifest's format is checked when it is read: the four good
    # molecules before the bad one run no SCF.
    calls, scf_solve = [], mean_field.scf_solve
    monkeypatch.setattr(mean_field, "scf_solve", lambda m: calls.append(m) or scf_solve(m))
    entries = [{"id": f"h2_{i}", "generator": {"kind": "h2", "separation": 1.0 + 0.3 * i},
                "target": 1.0 + 0.3 * i} for i in range(4)]
    entries.append({"id": "bad", "generator": {"kind": "h2", "separation": "x"},
                    "target": 1.0})
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": entries}))
    cfg = write_config(tmp_path)
    assert run(*argv, "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert "molecule 'bad'" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


def test_sweep_dataset_without_targets_exit_3_before_any_scf(tmp_path, capsys, monkeypatch):
    # sweep cross-validates every value on the dataset's targets, so a missing
    # one fails the whole run, not each value.
    calls, scf_solve = [], mean_field.scf_solve
    monkeypatch.setattr(mean_field, "scf_solve", lambda m: calls.append(m) or scf_solve(m))
    entries = [{"id": f"h2_{i}", "generator": {"kind": "h2", "separation": 1.0 + 0.3 * i},
                "target": 1.0 + 0.3 * i} for i in range(4)]
    entries.append({"id": "untargeted", "generator": {"kind": "h2", "separation": 2.5}})
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": entries}))
    cfg = write_config(tmp_path)
    assert run("sweep", "--config", cfg, "--axis", "time_max", "--values", "1", "2",
               "--out", str(tmp_path / "o")) == 3
    assert "missing finite targets" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_huge_separation_exits_3_without_warnings(tmp_path, capsys):
    # Overflowing integrals are rejected by validation, with numpy's
    # floating-point warnings silenced inside s_orbital_integrals.
    entries = [{"id": "bad", "generator": {"kind": "h2", "separation": 1e200}, "target": 1.0}]
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps({"entries": entries}))
    cfg = write_config(tmp_path)
    assert run("fingerprint", "--config", cfg, "--workers", "1",
               "--out", str(tmp_path / "o")) == 3
    assert "molecule 'bad'" in capsys.readouterr().err


@pytest.mark.parametrize("noise, message", [
    ({"p": 0.5, "scale": 3}, "p * scale"),
    ({"p": 0.2, "scale": 5}, "p * scale"),
    ({"p": 0.0, "scale": 10**400 + 1}, "too large"),
], ids=["product_1.5", "product_1", "scale_overflows"])
def test_noise_product_at_least_one_exit_2_before_any_scf(tmp_path, capsys, monkeypatch,
                                                         noise, message):
    from qfp import mean_field

    def scf_solve(m):
        raise AssertionError("SCF ran for a config that fails validation")

    monkeypatch.setattr(mean_field, "scf_solve", scf_solve)
    cfg = write_config(tmp_path, dataset=H2_SCAN,
                       evolver={"kind": "trotter", "order": 2, "r": 1}, noise=noise)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err


def test_optimize_measurement_rejects_noise_exit_2_before_any_scf(tmp_path, capsys,
                                                                  monkeypatch):
    # It fits O on noiseless RDM trajectories, so a noise block would go unused.
    from qfp import mean_field

    def scf_solve(m):
        raise AssertionError("SCF ran for a config optimize-measurement rejects")

    monkeypatch.setattr(mean_field, "scf_solve", scf_solve)
    cfg = write_config(tmp_path, dataset={**H2_SCAN, "count": 6},
                       evolver={"kind": "trotter", "order": 2, "r": 1},
                       noise={"p": 0.05, "scale": 3})
    assert run("optimize-measurement", "--config", cfg, "--budget", "5",
               "--out", str(tmp_path / "o")) == 2
    assert "noiseless" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("axis,values,overrides", [
    ("trotter_r", ["1", "2"], {"evolver": {"kind": "trotter", "order": 2, "r": 1}}),
    ("initial_state", ["hf_ground", "homo_lumo_excited"], {}),
    ("active_space", ["2:2", "2:1"], {}),
])
def test_sweep_axes(h2_dataset, axis, values, overrides):
    cfg = write_config(h2_dataset, name="sweep.json", **overrides)
    out = h2_dataset / "swept"
    assert run("sweep", "--config", cfg, "--axis", axis, "--values", *values,
               "--out", str(out)) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == f"{axis},r2,rmse"
    assert [line.split(",")[0] for line in lines[1:]] == values
    for value in values:
        assert (out / f"cv_report_{axis}_{value}.json").exists()


@pytest.mark.parametrize("axis,value", [
    ("time_max", "x"), ("trotter_r", "1.5"), ("trotter_r", "two"),
])
def test_sweep_malformed_value_exit_2(tmp_path, capsys, axis, value):
    cfg = write_config(tmp_path, dataset=H2_SCAN,
                       evolver={"kind": "trotter", "order": 2, "r": 1})
    out = tmp_path / "o"
    assert run("sweep", "--config", cfg, "--axis", axis, "--values", "1", value,
               "--out", str(out)) == 2
    assert repr(value) in capsys.readouterr().err
    assert not out.exists()


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or isinstance(v, float)


# The JSON type each fuzzed config key accepts.
CONFIG_TYPES = {
    "mode": lambda v: isinstance(v, str), "kind": lambda v: isinstance(v, str),
    "n_active_electrons": _is_int, "n_active_orbitals": _is_int,
    "fragment": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "fit_mu": lambda v: isinstance(v, bool), "target_filling": _is_number,
    "start": _is_number, "stop": _is_number, "step": _is_number,
    "order": _is_int, "r": _is_int, "k": _is_int,
    "p": _is_number, "scale": _is_int, "n_trajectories": _is_int, "seed": _is_int,
}
FUZZ_EMBEDDINGS = {
    "active": {"mode": "active_space", "n_active_electrons": 2, "n_active_orbitals": 2},
    "dmet": {"mode": "dmet", "fragment": [0], "fit_mu": True, "target_filling": 1.0},
}
# (section, embedding variant, key); a "sweep" key is the --axis.
FUZZ_TARGETS = (
    [("embedding", v, k) for v, emb in FUZZ_EMBEDDINGS.items() for k in emb]
    + [("time_grid", "active", k) for k in ("start", "stop", "step")]
    + [("evolver", "active", k) for k in ("kind", "order", "r")]
    + [("noise", "active", k) for k in ("p", "scale", "n_trajectories", "seed")]
    + [(block, "active", "kind") for block in ("dataset", "observable", "model")]
    + [("cv", "active", "k")]
    + [("sweep", "active", a) for a in ("time_max", "trotter_r", "initial_state",
                                        "active_space")]
)
# Small ints and floats on a 0.1 grid: a value in range must stay cheap to run
# (a 10^-5 step is 50,001 grid points, and r or n_trajectories scale the work).
FUZZ_VALUES = st.one_of(
    st.integers(-2, 5),
    st.integers(-30, 60).map(lambda k: k / 10),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, 1e-300]),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["exact", "trotter", "dmet", "active_space", "hf_ground", "2:1"]),
    st.lists(st.one_of(st.integers(-1, 2), st.booleans()), max_size=3),
)


def _config_error_expected(target, value):
    """True when no valid config can hold `value` at `target`."""
    section, _, key = target
    if section != "sweep":
        non_finite = isinstance(value, float) and not math.isfinite(value)
        return non_finite or not CONFIG_TYPES[key](value)
    value = str(value)
    try:
        if key == "time_max":
            return not math.isfinite(float(value))
        if key == "trotter_r":
            int(value)
        elif key == "active_space":
            _, _ = map(int, value.split(":"))
    except ValueError:
        return True
    return key == "initial_state" and value not in ("hf_ground", "homo_lumo_excited",
                                                    "half_occupied")


@pytest.fixture(scope="module")
def two_h2_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("configs")
    entries = [{"id": f"h2_{i}", "generator": {"kind": "h2", "separation": z}, "target": z}
               for i, z in enumerate((1.2, 1.6))]
    (directory / "manifest.json").write_text(json.dumps({"entries": entries}))
    return directory


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(FUZZ_TARGETS), value=FUZZ_VALUES)
@example(target=("embedding", "dmet", "target_filling"), value=math.nan)
@example(target=("embedding", "dmet", "target_filling"), value=math.inf)
@example(target=("embedding", "dmet", "fragment"), value=[True, 0])
@example(target=("sweep", "active", "time_max"), value="x")
@example(target=("sweep", "active", "trotter_r"), value=1.5)
def test_config_values_fuzz_exit_codes(two_h2_dir, target, value):
    section, variant, key = target
    cfg = {"dataset": {"kind": "manifest", "path": str(two_h2_dir / "manifest.json")},
           "embedding": dict(FUZZ_EMBEDDINGS[variant]),
           "initial_state": "hf_ground",
           "time_grid": {"start": 0, "stop": 0.5, "step": 0.5},
           "evolver": {"kind": "trotter", "order": 2, "r": 1},
           "observable": {"kind": "F"},
           "model": {"kind": "krr", "length_scale": 1.0, "ridge": 1e-6},
           "cv": {"k": 2, "seed": 0}}
    if section == "noise":
        cfg["noise"] = {"p": 0.02, "scale": 1, "n_trajectories": 4, "seed": 0}
    if section == "sweep":
        argv = ["sweep", "--axis", key, f"--values={value}"]  # "=": "-inf" is no flag
    else:
        cfg[section][key] = value
        argv = ["fingerprint"]
    out = tempfile.mkdtemp(dir=two_h2_dir)
    path = os.path.join(out, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--config", path, "--out", out])
    event(f"{section} exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if _config_error_expected(target, value):
        assert code == 2, stderr.getvalue()
