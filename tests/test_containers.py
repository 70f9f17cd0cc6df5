import numpy as np
import pytest
import scipy.sparse as sp

from phmor import (Index2Partition, InterpolationData, PHDAESystem, cli, evaluate,
                   partition_index2, reduce_index2)
from phmor.benchmarks import (MassSpringSpec, mass_spring_chain, mass_spring_chain_sparse,
                              random_ph_index1)
from phmor.containers import (
    load_phdae,
    load_phdae_sparse,
    load_reduced,
    read_manifest,
    save_phdae,
    save_reduced,
    write_manifest,
)
from phmor.linalg import LinAlgContractError


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(path, {"kind": "phdae", "n": 3, "note": "a = b"})
    entries = read_manifest(path)
    assert entries["kind"] == "phdae"
    assert entries["n"] == "3"
    assert entries["note"] == "a = b"


def test_manifest_rejects_malformed_line(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("kind phdae\n")
    with pytest.raises(LinAlgContractError):
        read_manifest(path)


def test_dense_round_trip(tmp_path):
    sys = random_ph_index1(6, 2, 2, seed=0).parent
    save_phdae(tmp_path / "model", sys, extra={"index": "1", "n1": 6})
    loaded, manifest = load_phdae(tmp_path / "model")
    for name in ("E", "J", "R", "B", "P", "S", "N"):
        assert np.allclose(getattr(loaded, name), getattr(sys, name))
    assert manifest["format"] == "dense"
    assert manifest["index"] == "1"
    assert int(manifest["n1"]) == 6


def test_zero_matrices_omitted(tmp_path, index2_fixture):
    out = save_phdae(tmp_path / "model", index2_fixture)
    # P, S, N are all zero for this fixture and must not be written
    for name in ("P", "S", "N"):
        assert not (out / f"{name}.mtx").exists()
    loaded, _ = load_phdae(out)
    assert np.allclose(loaded.P, 0.0) and loaded.P.shape == (3, 1)
    for w in (0.5, 2.0):
        assert np.allclose(evaluate(loaded, 1j * w), evaluate(index2_fixture, 1j * w))


def test_sparse_round_trip(tmp_path):
    sys = mass_spring_chain_sparse(MassSpringSpec(k=10))
    out = save_phdae(tmp_path / "model", sys, extra={"index": "2", "n1": 20})
    loaded, manifest = load_phdae_sparse(out)
    assert manifest["format"] == "sparse"
    assert manifest["n1"] == "20"
    assert isinstance(loaded, PHDAESystem) and sp.issparse(loaded.E)
    for name in "EJR":
        assert (getattr(loaded, name) - getattr(sys, name)).nnz == 0
    for name in "BPSN":
        assert np.array_equal(getattr(loaded, name), getattr(sys, name))


def test_csr_system_saves_sparse_and_partitions_sparse(tmp_path):
    spec = MassSpringSpec(k=10)
    out = save_phdae(tmp_path / "model", mass_spring_chain_sparse(spec),
                     extra={"index": "2", "n1": spec.n1})
    assert read_manifest(out / "manifest.txt")["format"] == "sparse"
    part, _ = cli._load_partition(out)
    assert isinstance(part, Index2Partition) and part.n1 == spec.n1
    assert all(sp.issparse(getattr(part.parent, name)) for name in "EJR")
    dense = mass_spring_chain(spec)
    for s in (1j, 2.0):
        assert np.allclose(evaluate(part, s), evaluate(dense, s), rtol=1e-12, atol=0)


def test_reduced_round_trip(tmp_path, index2_fixture):
    part = partition_index2(index2_fixture, 2)
    data = InterpolationData(points=[1.0 + 0j], directions=[[1.0]])
    model = reduce_index2(part, data)
    save_reduced(tmp_path / "red", model)
    loaded = load_reduced(tmp_path / "red")
    assert loaded.method == model.method
    assert loaded.ph_valid == model.ph_valid
    assert loaded.w_min_eig == model.w_min_eig
    assert loaded.augmented_input == model.augmented_input
    for s in (1j, 2.0, 0.5 + 0.5j):
        assert np.allclose(loaded.transfer_eval(s), model.transfer_eval(s))


def test_load_reduced_rejects_plain_container(tmp_path, index2_fixture):
    save_phdae(tmp_path / "model", index2_fixture)
    with pytest.raises(LinAlgContractError):
        load_reduced(tmp_path / "model")


def test_shape_mismatch_detected(tmp_path, index1_fixture):
    out = save_phdae(tmp_path / "model", index1_fixture)
    manifest = read_manifest(out / "manifest.txt")
    manifest["n"] = 5
    write_manifest(out / "manifest.txt", manifest)
    with pytest.raises(LinAlgContractError):
        load_phdae(out)


def test_sparse_shape_mismatch_detected(tmp_path):
    sys = mass_spring_chain_sparse(MassSpringSpec(k=10))
    out = save_phdae(tmp_path / "model", sys, extra={"index": "2"})
    manifest = read_manifest(out / "manifest.txt")
    manifest["n"] = int(manifest["n"]) + 1
    write_manifest(out / "manifest.txt", manifest)
    with pytest.raises(LinAlgContractError, match="E.mtx has shape"):
        load_phdae_sparse(out)
