"""On-disk model containers.

A model is stored as a directory holding a plain-text ``manifest.txt``
(``key = value`` lines, ``#`` comments) and one Matrix Market file per
system matrix (``E.mtx`` ... ``N.mtx``).  All-zero matrices may be
omitted; their shapes are reconstructed from the manifest.  Reduced
models additionally record their metadata (method, passivity flag,
polynomial part, augmentation) so that a round trip preserves the
transfer function exactly.

A matrix is written by its nonzeros.  A sparse matrix, and a dense one
with 3 nnz < rows * cols, goes in Matrix Market coordinate form (three
numbers per nonzero); any other dense matrix goes in array form (one
number per entry).  A square matrix equal to its transpose, entry for
entry, is stored as ``symmetric`` and one equal to its negated transpose
as ``skew-symmetric``: only the lower triangle (the strictly lower one
for skew) is written, and reading mirrors it.  Both forms hold every
value exactly; a zero entry loads as +0.
"""

from __future__ import annotations

import pathlib

import numpy as np
import scipy.io
import scipy.sparse as sp

from .linalg import LinAlgContractError
from .reducers import ReducedModel
from .systems import PHDAESystem
from .transfer import PolynomialPart

__all__ = [
    "read_manifest",
    "write_manifest",
    "save_phdae",
    "load_phdae",
    "load_phdae_sparse",
    "save_reduced",
    "load_reduced",
]

_MATRIX_NAMES = ("E", "J", "R", "B", "P", "S", "N")


def write_manifest(path, entries):
    lines = ["# phmor model manifest"]
    for key, value in entries.items():
        lines.append(f"{key} = {value}")
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path):
    entries = {}
    for raw in pathlib.Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise LinAlgContractError(f"malformed manifest line: {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _shape_of(name, n, m):
    return {
        "E": (n, n), "J": (n, n), "R": (n, n),
        "B": (n, m), "P": (n, m), "S": (m, m), "N": (m, m),
        "P0": (m, m), "P1": (m, m),
    }[name]


def _symmetry(M):
    """The Matrix Market symmetry of a real matrix, dense or sparse:
    ``symmetric`` when M == M^T exactly, ``skew-symmetric`` when
    M == -M^T exactly (its diagonal is then zero), else ``general``.  For
    a finite matrix this is what scipy's entry-by-entry
    ``MMFile._get_symmetry`` returns, from two array comparisons."""
    if M.shape[0] != M.shape[1]:
        return "general"
    if sp.issparse(M):
        T = M.T
        if (M != T).nnz == 0:
            return "symmetric"
        return "skew-symmetric" if (M != -T).nnz == 0 else "general"
    if np.array_equal(M, M.T):
        return "symmetric"
    return "skew-symmetric" if np.array_equal(M, -M.T) else "general"


def _write_matrix(directory, name, M):
    """Write M unless it is all zero (an omitted matrix reads back as
    zeros): in coordinate form when it is sparse or when its nonzeros are
    fewer than a third of its entries, else in array form, with its
    :func:`_symmetry`."""
    if sp.issparse(M):
        if not M.nnz:
            return
    else:
        M = np.atleast_2d(np.asarray(M))
        nnz = np.count_nonzero(M)
        if not nnz:
            return
        if 3 * nnz < M.size:
            M = sp.coo_matrix(M)
    scipy.io.mmwrite(str(directory / f"{name}.mtx"), M, symmetry=_symmetry(M))


def _read_matrix(directory, name, shape, sparse=False):
    f = directory / f"{name}.mtx"
    if not f.exists():
        return sp.csr_matrix(shape) if sparse else np.zeros(shape)
    M = scipy.io.mmread(str(f))
    if M.shape != shape:
        raise LinAlgContractError(
            f"{name}.mtx has shape {M.shape}, manifest implies {shape}"
        )
    if sparse:
        return sp.csr_matrix(M)
    return M.toarray() if sp.issparse(M) else np.asarray(M)


def save_phdae(path, system, extra=None):
    """Write a :class:`PHDAESystem` to a directory container.

    The manifest records ``format = sparse`` exactly when ``system.E`` is
    sparse; a sparse container holds every matrix in coordinate form.
    ``extra`` entries (for example ``n1`` or ``index``) are merged into the
    manifest, an entry of the same key keeping its position.
    """
    directory = pathlib.Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    sparse = sp.issparse(system.E)
    manifest = {"kind": "phdae", "n": system.n, "m": system.m,
                "format": "sparse" if sparse else "dense", **(extra or {})}
    write_manifest(directory / "manifest.txt", manifest)
    for name in _MATRIX_NAMES:
        M = getattr(system, name)
        _write_matrix(directory, name, sp.csr_matrix(M) if sparse else M)
    return directory


def _load_matrices(directory, sparse):
    manifest = read_manifest(directory / "manifest.txt")
    n, m = int(manifest["n"]), int(manifest["m"])
    mats = {
        name: _read_matrix(directory, name, _shape_of(name, n, m), sparse=sparse)
        for name in _MATRIX_NAMES
    }
    return mats, manifest


def load_phdae(path):
    """Load a container as a dense :class:`PHDAESystem`.

    Returns ``(system, manifest)``; manifest values are strings except
    for the reconstructed n/m.
    """
    mats, manifest = _load_matrices(pathlib.Path(path), sparse=False)
    return PHDAESystem(**mats), manifest


def load_phdae_sparse(path):
    """Load a container as a :class:`PHDAESystem` with CSR E, J and R.

    Returns ``(system, manifest)`` like :func:`load_phdae`.
    """
    mats, manifest = _load_matrices(pathlib.Path(path), sparse=True)
    return PHDAESystem(**mats), manifest


def save_reduced(path, model):
    """Write a reduced model (matrices, metadata, polynomial part)."""
    directory = save_phdae(path, model.system, extra={
        "kind": "reduced",
        "method": model.method,
        "ph_valid": int(model.ph_valid),
        "w_min_eig": repr(model.w_min_eig),
        "augmented_input": int(model.augmented_input),
    })
    _write_matrix(directory, "P0", model.polynomial.P0)
    _write_matrix(directory, "P1", model.polynomial.P1)
    return directory


def load_reduced(path):
    """Round-trip counterpart of :func:`save_reduced`."""
    directory = pathlib.Path(path)
    mats, manifest = _load_matrices(directory, sparse=False)
    if manifest.get("kind") != "reduced":
        raise LinAlgContractError(f"{path} does not hold a reduced model")
    m = int(manifest["m"])
    poly = PolynomialPart(
        P0=_read_matrix(directory, "P0", (m, m)),
        P1=_read_matrix(directory, "P1", (m, m)),
    )
    sys = PHDAESystem(**mats)
    return ReducedModel(
        system=sys,
        method=manifest["method"],
        ph_valid=bool(int(manifest["ph_valid"])),
        w_min_eig=float(manifest["w_min_eig"]),
        polynomial=poly,
        augmented_input=bool(int(manifest["augmented_input"])),
    )
