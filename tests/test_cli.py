import json
import os

import numpy as np
import pytest

from qfp import chem_io
from qfp.cli import main
from qfp.pipeline import PipelineConfig


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
    man = chem_io.load_manifest(str(out / "manifest.json"))
    assert [e.target for e in man.entries] == [1.0, 3.0]
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


def test_fingerprint_writes_feature_table(h2_dataset):
    cfg = write_config(h2_dataset)
    out = h2_dataset / "run"
    assert run("fingerprint", "--config", cfg, "--out", str(out)) == 0
    ids, grid, X = chem_io.load_features(str(out / "features.csv"))
    assert len(ids) == 6 and X.shape == (6, 5)
    assert np.array_equal(grid, np.arange(0, 2.001, 0.5))
    prov = json.loads((out / "provenance.json").read_text())
    # provenance config round-trips through validation
    assert PipelineConfig.from_dict(prov["config"]).to_dict() == prov["config"]


def test_fingerprint_deterministic(h2_dataset):
    cfg = write_config(h2_dataset)
    run("fingerprint", "--config", cfg, "--out", str(h2_dataset / "r1"))
    run("fingerprint", "--config", cfg, "--out", str(h2_dataset / "r2"))
    a = (h2_dataset / "r1" / "features.csv").read_bytes()
    assert a == (h2_dataset / "r2" / "features.csv").read_bytes()


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


def test_qfp_threads_env(h2_dataset, monkeypatch):
    cfg = write_config(h2_dataset)
    monkeypatch.setenv("QFP_THREADS", "2")
    assert run("fingerprint", "--config", cfg, "--out",
               str(h2_dataset / "thr")) == 0
    monkeypatch.setenv("QFP_THREADS", "zero")
    assert run("fingerprint", "--config", cfg, "--out",
               str(h2_dataset / "thr2")) == 2


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
], ids=["entries", "target", "format_version", "generator", "fcidump",
        "separation", "z_positions", "z_position_item"])
def test_malformed_manifest_value_exit_3(tmp_path, manifest):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
    cfg = write_config(tmp_path)
    assert run("fingerprint", "--config", cfg, "--out", str(tmp_path / "o")) == 3
