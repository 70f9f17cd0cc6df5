import shutil

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io._mmio import MMFile

from phmor import (Index2Partition, InterpolationData, PHDAESystem, cli, evaluate,
                   partition_index2, reduce_index2)
from phmor.benchmarks import (MassSpringSpec, mass_spring_chain, mass_spring_chain_sparse,
                              random_ph_index1)
from phmor.containers import (
    _read_matrix,
    _symmetry,
    _write_matrix,
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
    # the basis is not stored: a loaded model's condition estimate is unknown
    assert model.basis_cond == 1.0 and np.isnan(loaded.basis_cond)
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


# --- matrices written by their nonzeros -------------------------------------

_KINDS = ("general", "symmetric", "skew", "skew-diagonal", "symmetric-ulp", "block")


@st.composite
def _matrices(draw):
    """(kind, dense matrix, input as given to the writer): n from 1 to 120,
    zero, sparse or full density, dense or CSR input.  Values span many
    orders of magnitude; zeros are +0 (a load never gives -0)."""
    kind = draw(st.sampled_from(_KINDS))
    n = draw(st.integers(1, 120))
    m = draw(st.integers(1, 120)) if kind == "block" else n
    density = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-30, 30, (n, m))
    X = np.where(rng.random((n, m)) < density, X, 0.0)
    if kind in ("symmetric", "symmetric-ulp"):
        X = np.triu(X) + np.triu(X, 1).T
        if kind == "symmetric-ulp" and n > 1:
            i, j = rng.choice(n, 2, replace=False)
            X[i, j] = np.nextafter(X[i, j], np.inf)
    elif kind in ("skew", "skew-diagonal"):
        X = np.tril(X, -1) - np.tril(X, -1).T
        if kind == "skew-diagonal":
            i = rng.integers(n)
            X[i, i] = 1.0 + rng.random()
    X = X + 0.0
    return kind, X, sp.csr_matrix(X) if draw(st.booleans()) else X


@settings(max_examples=150, deadline=None)
@given(case=_matrices())
def test_matrix_round_trip_is_exact(tmp_path_factory, case):
    kind, X, given_ = case
    directory = tmp_path_factory.mktemp("mtx")
    _write_matrix(directory, "M", given_)
    f = directory / "M.mtx"
    nnz = np.count_nonzero(X)
    assert f.exists() == (nnz > 0)
    if nnz:
        rows, cols, _, form, field, symmetry = scipy.io.mminfo(str(f))
        assert (rows, cols, field) == (*X.shape, "real")
        coordinate = sp.issparse(given_) or 3 * nnz < X.size
        assert form == ("coordinate" if coordinate else "array")
        assert symmetry == _symmetry(given_) == MMFile._get_symmetry(X)
        if kind == "symmetric":
            assert symmetry == "symmetric"
        elif kind == "skew" and X.shape[0] > 1:
            assert symmetry == "skew-symmetric"
        elif kind == "symmetric-ulp" and X.shape[0] > 1:
            assert symmetry == "general"
    dense = _read_matrix(directory, "M", X.shape)
    assert dense.dtype == X.dtype and dense.tobytes() == X.tobytes()
    csr, ref = _read_matrix(directory, "M", X.shape, sparse=True), sp.csr_matrix(X)
    for attr in ("data", "indices", "indptr"):
        assert getattr(csr, attr).tobytes() == getattr(ref, attr).tobytes()


@pytest.mark.parametrize("n", [3, 50, 101])
@pytest.mark.parametrize("kind, symmetry", [
    ("symmetric", "symmetric"), ("skew", "skew-symmetric"),
    ("skew-diagonal", "general"), ("symmetric-ulp", "general")])
def test_symmetry_of_each_kind_at_every_size(n, kind, symmetry):
    # scipy's writer decided symmetry only below 100 rows; the rule does at any size
    rng = np.random.default_rng(n)
    L = np.tril(rng.standard_normal((n, n)), -1)
    X = {"symmetric": L + L.T + np.eye(n), "skew": L - L.T,
         "skew-diagonal": L - L.T + np.eye(n) * (np.arange(n) == 1),
         "symmetric-ulp": L + L.T}[kind]
    if kind == "symmetric-ulp":
        X[0, 2] = np.nextafter(X[0, 2], np.inf)
    assert _symmetry(X) == _symmetry(sp.csr_matrix(X)) == symmetry
    assert MMFile._get_symmetry(X) == symmetry
    assert _symmetry(X[:, :-1]) == "general"


def _stored(X, rng):
    """COO triplets whose sum is X, with stored zeros (+0 and -0) and
    duplicate entries: some nonzeros split in two, and some zeros stored as
    a cancelling pair.  Only integer entries are split or cancelled, with
    integers, so every sum is exact in any order."""
    n = X.shape[0]
    row, col = np.nonzero(X)
    data = X[row, col]
    split = (rng.random(row.size) < 0.3) & (data == np.round(data))
    parts = rng.integers(-2, 3, split.sum()).astype(float)
    data[split] -= parts
    zr, zc = rng.integers(0, n, (2, rng.integers(0, n + 1)))
    zeros = rng.choice([0.0, -0.0], zr.size)
    cr, cc = rng.integers(0, n, (2, rng.integers(0, n + 1)))
    exact = X[cr, cc] == np.round(X[cr, cc])
    cr, cc = cr[exact], cc[exact]
    cancel = rng.integers(1, 3, cr.size).astype(float)
    row = np.concatenate([row, row[split], zr, cr, cr])
    col = np.concatenate([col, col[split], zc, cc, cc])
    data = np.concatenate([data, parts, zeros, cancel, -cancel])
    order = rng.permutation(row.size)
    return row[order], col[order], data[order]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       form=st.sampled_from(["dense", "csr", "coo", "csr-raw"]),
       shape=st.sampled_from(["general", "symmetric", "skew"]))
def test_symmetry_rule_is_scipys_on_random_inputs(seed, n, form, shape):
    # small integers make exact (skew-)symmetry and near misses likely
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, (n, n)).astype(float)
    if shape == "symmetric":
        X = X + X.T
    elif shape == "skew":
        X = X - X.T
    if rng.random() < 0.3:
        X[rng.integers(n), rng.integers(n)] += rng.choice([0.5, 1e-300])
    # -0 equals +0, in the rule as in scipy's
    X[(X == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    if form == "dense":
        M = X
    elif form == "csr":
        M = sp.csr_matrix(X)
    else:
        # stored zeros and duplicates: the rule sees the matrix they sum to
        row, col, data = _stored(X, rng)
        if form == "coo":
            M = sp.coo_matrix((data, (row, col)), shape=(n, n))
        else:  # CSR arrays as given: duplicates kept, columns unsorted
            order = np.argsort(row, kind="stable")
            indptr = np.searchsorted(row[order], np.arange(n + 1))
            M = sp.csr_matrix((data[order], col[order], indptr), shape=(n, n))
        assert np.array_equal(M.toarray(), X)
    assert _symmetry(M) == MMFile._get_symmetry(X)


def test_no_entrywise_symmetry_loop_on_any_write(tmp_path, monkeypatch):
    # generate, regularize, reduce and sweep write every kind of container;
    # scipy's Python loop over the entries is never reached
    def forbidden(*args):
        raise AssertionError("MMFile._get_symmetry was called")

    monkeypatch.setattr(MMFile, "_get_symmetry", staticmethod(forbidden))
    with pytest.raises(AssertionError, match="was called"):  # scipy's own choice reaches it
        scipy.io.mmwrite(str(tmp_path / "probe.mtx"), np.eye(3))
    models = {"chain": ["--benchmark", "chain", "--k", 6],
              "b2": ["--benchmark", "chain-b2", "--k", 6],
              "oseen": ["--benchmark", "oseen", "--n-grid", 3],
              "sparse": ["--benchmark", "chain", "--k", 60, "--sparse"],
              "ri1": ["--benchmark", "random-index1", "--n1", 6, "--n2", 2],
              "mixed": ["--benchmark", "mixed", "--k", 4]}
    grid = ["--freq-grid", "1e-2:1e2:8"]
    for name, args in models.items():
        assert cli.main(["generate", *map(str, args), "--out", str(tmp_path / name)]) == 0
    assert cli.main(["regularize", str(tmp_path / "chain"), "--condense",
                     "--out", str(tmp_path / "reg")]) == 0
    for name, method in (("b2", "irka"), ("oseen", "index2"), ("sparse", "index2"),
                         ("ri1", "index1-shifted"), ("mixed", "auto")):
        assert cli.main(["reduce", str(tmp_path / name), "--method", method, "--r", "2",
                         *grid, "--out", str(tmp_path / f"red-{name}")]) == 0
    assert cli.main(["sweep", str(tmp_path / "chain"), "--r-sweep", "2:4:2", *grid,
                     "--out", str(tmp_path / "sweep")]) == 0
    red = load_reduced(tmp_path / "sweep" / "r004")
    save_reduced(tmp_path / "again", red)
    assert sorted(p.name for p in (tmp_path / "again").glob("*.mtx"))


def test_container_io_runs_on_one_fast_matrix_market_thread(tmp_path, monkeypatch):
    # every read and write of generate, reduce, sweep and regularize sees
    # PARALLELISM == 1, and the caller's value is back after each, also
    # when the read fails
    fmm = pytest.importorskip("scipy.io._fast_matrix_market")
    monkeypatch.setattr(fmm, "PARALLELISM", 2)
    seen = {"mmread": [], "mmwrite": []}

    def spy(name):
        call = getattr(scipy.io, name)

        def wrapped(*args, **kwargs):
            seen[name].append(fmm.PARALLELISM)
            return call(*args, **kwargs)
        return wrapped

    for name in seen:
        monkeypatch.setattr(scipy.io, name, spy(name))
    model, sparse = str(tmp_path / "chain"), str(tmp_path / "sparse")
    grid = ["--freq-grid", "1e-2:1e2:8"]
    for argv in (["generate", "--benchmark", "chain", "--k", "6", "--out", model],
                 ["generate", "--benchmark", "chain", "--k", "6", "--sparse", "--out", sparse],
                 ["reduce", sparse, "--method", "index2", "--r", "2", *grid,
                  "--out", str(tmp_path / "red")],
                 ["sweep", model, "--r-sweep", "2:4:2", *grid, "--out", str(tmp_path / "sw")],
                 ["regularize", model, "--condense", "--out", str(tmp_path / "reg")]):
        assert cli.main(argv) == 0
        assert fmm.PARALLELISM == 2
    assert all(seen.values()) and set(seen["mmread"] + seen["mmwrite"]) == {1}
    with pytest.raises(LinAlgContractError, match="manifest implies"):
        _read_matrix(tmp_path / "chain", "E", (3, 3))
    assert fmm.PARALLELISM == 2
    (tmp_path / "chain" / "E.mtx").write_text("%%MatrixMarket matrix\nnot a matrix\n")
    with pytest.raises(ValueError):
        _read_matrix(tmp_path / "chain", "E", (3, 3))
    assert fmm.PARALLELISM == 2


@settings(max_examples=150, deadline=None)
@given(case=_matrices())
def test_one_thread_writes_the_bytes_of_scipys_default(tmp_path_factory, case):
    # the same file as scipy.io.mmwrite at its default parallelism, given the
    # same matrix (a mostly-zero dense one as COO) and symmetry
    _, X, given_ = case
    nnz = np.count_nonzero(X)
    if not nnz:
        return
    fmm = getattr(scipy.io, "_fast_matrix_market", None)
    assert fmm is None or fmm.PARALLELISM == 0
    directory = tmp_path_factory.mktemp("mtx")
    _write_matrix(directory, "M", given_)
    plain = given_ if sp.issparse(given_) or 3 * nnz >= X.size else sp.coo_matrix(X)
    scipy.io.mmwrite(str(directory / "ref.mtx"), plain, symmetry=_symmetry(X))
    assert (directory / "M.mtx").read_bytes() == (directory / "ref.mtx").read_bytes()


def test_generated_containers_store_nonzeros(tmp_path):
    # chain k=50: 101 x 101 blocks with a few hundred nonzeros go in
    # coordinate form, with J stored as its strictly lower triangle
    spec = MassSpringSpec(k=50)
    part = mass_spring_chain(spec)
    out = save_phdae(tmp_path / "chain", part.parent)
    rows, cols, entries, form, _, symmetry = scipy.io.mminfo(str(out / "J.mtx"))
    assert (rows, cols, form, symmetry) == (part.parent.n, part.parent.n, "coordinate",
                                            "skew-symmetric")
    assert 2 * entries == np.count_nonzero(part.parent.J)
    assert scipy.io.mminfo(str(out / "E.mtx"))[3:] == ("coordinate", "real", "symmetric")
    loaded, _ = load_phdae(out)
    for name in "EJRBPSN":
        assert getattr(loaded, name).tobytes() == getattr(part.parent, name).tobytes()


def test_mixed_manifest_of_earlier_versions_loads_as_the_index2_view(tmp_path):
    # `generate --benchmark mixed` writes the index-2 view (index = 2,
    # n1 = n1 + n2); a container that recorded the mixed blocks
    # (index = mixed, n1, n2) loads, through the mixed checks, to the same view
    new, old = tmp_path / "new", tmp_path / "old"
    assert cli.main(["generate", "--benchmark", "mixed", "--k", "4", "--out", str(new)]) == 0
    manifest = read_manifest(new / "manifest.txt")
    assert (manifest["index"], manifest["n1"], "n2" in manifest) == ("2", "9", False)
    shutil.copytree(new, old)
    write_manifest(old / "manifest.txt", {**manifest, "index": "mixed", "n1": 1, "n2": 8})
    views = [cli._load_partition(path)[0] for path in (new, old)]
    assert all(type(view) is Index2Partition for view in views)
    assert [(view.n1, view.n2) for view in views] == [(9, 1), (9, 1)]
    points = 1j * np.logspace(-3, 3, 25)
    assert np.array_equal(views[0].transfer_evals(points), views[1].transfer_evals(points))
