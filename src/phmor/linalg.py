"""Linear-algebra kernels shared by all other modules.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy) for the
decompositions and solves the reduction machinery needs: SVD-based
rank/nullspace decisions, shifted complex solves (dense LAPACK or sparse
SuperLU, chosen by the matrix's storage), shifted solves of one
symmetric-definite pencil at many shifts against a single Schur form, and
generalized eigenproblems with two-sided eigenvectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spsla
from scipy.linalg import lapack

__all__ = [
    "LinAlgContractError",
    "SingularMatrixError",
    "GenEig",
    "solve_complex",
    "SchurPencil",
    "gen_eig",
    "nullspace_basis",
    "rank_tolerance",
    "orthonormalize",
]

#: Condition-number threshold beyond which a matrix is treated as singular
#: to working precision.
COND_LIMIT = 1e12


class LinAlgContractError(ValueError):
    """An input violates a kernel precondition (shape, symmetry, finiteness)."""


class SingularMatrixError(LinAlgContractError):
    """A solve hit a matrix that is singular to working precision."""

    def __init__(self, message, cond_estimate=None):
        if cond_estimate is not None:
            message = f"{message} (condition estimate {cond_estimate:.3e})"
        super().__init__(message)
        self.cond_estimate = cond_estimate


def _as_matrix(M, name="matrix"):
    M = np.asarray(M)
    if M.ndim != 2:
        raise LinAlgContractError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise LinAlgContractError(f"{name} contains non-finite entries")
    return M


def rank_tolerance(M, sigma_max=None):
    """Default numerical-rank tolerance: max(rows, cols) * eps * sigma_1."""
    M = np.asarray(M)
    if sigma_max is None:
        sigma_max = spla.norm(M, 2) if M.size else 0.0
    return max(M.shape or (1,)) * np.finfo(float).eps * sigma_max


@dataclass(frozen=True)
class GenEig:
    """Eigenpairs of A v = lambda E v with two-sided eigenvectors.

    Right eigenvectors are the columns of ``right``; rows of ``left.T``
    satisfy w^T A = lambda w^T E, normalized so that w_i^T E v_i = 1.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray


def solve_complex(M, rhs, cond_limit=COND_LIMIT):
    """Solve M X = rhs for square complex (or real) M.

    Raises :class:`SingularMatrixError` with a condition estimate when M is
    singular to working precision.  Callers solving shifted pencils
    s E - A at large |s| (whose condition number grows like |s| without
    any loss of relative solution accuracy) may pass a larger
    ``cond_limit``.  It solves sparse full models, bare systems and
    reduced models; a dense partitioned full model is solved by its
    partition's elimination solver and :class:`SchurPencil` instead.

    The condition number compared against ``cond_limit`` is a 1-norm
    *estimate* (Hager/Higham) from the LU factors already computed for the
    solve; no inverse is formed.  A dense M goes straight to LAPACK
    (``zgetrf``, ``zgetrs``, ``zgecon``, without SciPy's wrappers); the one
    pass that takes ||M||_1 doubles as the finiteness check, so a NaN or
    inf in M or rhs raises :class:`LinAlgContractError`, never
    :class:`SingularMatrixError`.  A ``scipy.sparse`` M (whose stored entries
    and rhs get the same finiteness check) is factored by SuperLU and
    estimated by ``onenormest`` with one column, the same deterministic
    iteration (it draws no random numbers).  The estimate is a lower bound
    (up to rounding) on the exact kappa_1(M); on the pencils of the
    benchmark workloads it stayed within a factor 2.6 of the exact value.
    """
    if not sp.issparse(M):
        M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise LinAlgContractError(f"solve_complex needs a square matrix, got {M.shape}")
    rhs = np.asarray(rhs, dtype=complex)
    squeeze = rhs.ndim == 1
    B = rhs[:, None] if squeeze else rhs
    if B.shape[0] != M.shape[0]:
        raise LinAlgContractError("right-hand side has incompatible row count")
    solve = _solve_sparse if sp.issparse(M) else _solve_dense
    X, cond = solve(M, B)
    if not np.all(np.isfinite(X)) or cond > cond_limit:
        raise SingularMatrixError("matrix is singular to working precision", cond)
    return X[:, 0] if squeeze else X


def _solve_dense(M, B):
    """LAPACK ``zgetrf``/``zgetrs`` solve plus the ``zgecon`` estimate of
    kappa_1(M), called directly: the 1-norm pass doubles as the finiteness
    check of M, so no other pass over the n x n matrix is made."""
    anorm = np.abs(M).sum(axis=0).max(initial=0.0)
    if not np.isfinite(anorm) or not np.all(np.isfinite(B)):
        raise LinAlgContractError("matrix or right-hand side contains non-finite entries")
    lu, piv, info = lapack.zgetrf(M)  # copies M: the caller's array is kept
    if info != 0:  # > 0: a zero pivot; < 0 only for an empty M
        raise SingularMatrixError("matrix is exactly singular")
    X, _ = lapack.zgetrs(lu, piv, B)
    rcond, info = lapack.zgecon(lu, anorm)
    return X, (np.inf if info != 0 or rcond == 0.0 else 1.0 / rcond)


def _solve_sparse(M, B):
    """SuperLU solve plus ||M||_1 times the one-column estimate of ||M^-1||_1.
    The stored entries of M and the rhs are checked for finiteness first,
    as in the dense branch."""
    M = sp.csc_array(M, dtype=complex)
    if not np.all(np.isfinite(M.data)) or not np.all(np.isfinite(B)):
        raise LinAlgContractError("matrix or right-hand side contains non-finite entries")
    try:
        lu = spsla.splu(M)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError("matrix is exactly singular") from exc
    with np.errstate(all="ignore"):
        X = lu.solve(B)
        inverse = spsla.LinearOperator(
            M.shape, dtype=complex, matvec=lu.solve, matmat=lu.solve,
            rmatvec=lambda x: lu.solve(x, trans="H"),
            rmatmat=lambda x: lu.solve(x, trans="H"))
        inv_norm = spsla.onenormest(inverse, t=1)
    cond = spsla.norm(M, 1) * inv_norm
    return X, (cond if np.isfinite(cond) else np.inf)


class SchurPencil:
    """Shifted solves (s M - A) X = F at many shifts s, from one
    factorization; M is symmetric positive definite.

    The Cholesky factor M = L L^T whitens the pencil, and the whitened
    L^{-1} A L^{-T} = Z T Z^H is taken to complex Schur form once, so that
    (s M - A)^{-1} = L^{-T} Z (s I - T)^{-1} Z^H L^{-1}.  A shift then costs
    one triangular solve (LAPACK ``ztrtrs``), the ``ztrcon`` estimate of
    kappa_1(s I - T) and O(n^2) products, where a dense LU costs O(n^3).

    With an orthonormal ``basis`` Phi (n x k), M and A are the restricted
    k x k matrices Phi^T M0 Phi and Phi^T A0 Phi, and :meth:`solve` maps
    an n-row F to Phi (s M - A)^{-1} Phi^T F.
    """

    def __init__(self, M, A, basis=None):
        M = _as_matrix(M, "M")
        A = _as_matrix(A, "A")
        if M.shape != A.shape or M.shape[0] != M.shape[1]:
            raise LinAlgContractError("M and A must be square and of equal shape")
        L, info = lapack.dpotrf(M, lower=1, clean=1)
        if info != 0:
            raise LinAlgContractError("M is not positive definite")
        X = spla.solve_triangular(L, A, lower=True)
        T, Z = spla.rsf2csf(*spla.schur(spla.solve_triangular(L, X.T, lower=True).T))
        right = spla.solve_triangular(L, Z, lower=True, trans="T")  # L^{-T} Z
        if basis is not None:
            right = basis @ right
        self._negT = np.asfortranarray(-T)
        self._right = right
        self._left = right.conj().T  # Z^H L^{-1} Phi^T

    def solve(self, s, rhs, cond_limit=COND_LIMIT):
        """X with (s M - A) X = rhs (rhs a finite 2-D array).

        Raises :class:`SingularMatrixError` when s I - T has an exactly
        zero diagonal entry, the solution is not finite, or the ``ztrcon``
        estimate of kappa_1(s I - T) exceeds ``cond_limit``.
        """
        n = self._negT.shape[0]
        if n == 0:
            return np.zeros((self._right.shape[0], rhs.shape[1]), dtype=complex)
        U = self._negT.copy(order="F")
        U.ravel(order="F")[:: n + 1] += s  # s I - T
        X, info = lapack.ztrtrs(U, self._left @ rhs)
        if info > 0:
            raise SingularMatrixError("matrix is exactly singular")
        rcond, info = lapack.ztrcon(U)
        cond = np.inf if info != 0 or rcond == 0.0 else 1.0 / rcond
        if not np.all(np.isfinite(X)) or cond > cond_limit:
            raise SingularMatrixError("matrix is singular to working precision", cond)
        return self._right @ X


def gen_eig(A, E, defective_cond_limit=1e8):
    """Generalized eigenpairs of (A, E) with E symmetric positive definite.

    Returns eigenvalues together with right eigenvectors ``v_i`` and left
    eigenvectors ``w_i`` satisfying ``A v_i = lambda_i E v_i`` and
    ``w_i^T A = lambda_i w_i^T E``, scaled so that ``w_i^T E v_i = 1``.
    Warns when the right-eigenvector basis is ill conditioned (defective or
    nearly defective pencil).
    """
    A = _as_matrix(A, "A")
    E = _as_matrix(E, "E")
    if A.shape != E.shape or A.shape[0] != A.shape[1]:
        raise LinAlgContractError("A and E must be square and of equal shape")
    nrmE = spla.norm(E, "fro")
    if nrmE > 0 and spla.norm(E - E.T, "fro") > 1e-10 * nrmE:
        raise LinAlgContractError("E must be symmetric")
    lam_min = spla.eigh(0.5 * (E + E.T), eigvals_only=True, subset_by_index=[0, 0])[0]
    if lam_min <= 0:
        raise LinAlgContractError(f"E must be positive definite (min eig {lam_min:.3e})")

    lam, VL, VR = spla.eig(A, E, left=True, right=True)
    # scipy's left vectors satisfy VL^H A = lam VL^H E; conjugate for the
    # transpose convention used throughout (real A, E).
    W = VL.conj()
    scale = np.einsum("ij,jk,ki->i", W.T, E, VR)
    if np.any(np.abs(scale) < 1e-14 * max(1.0, spla.norm(E, 2))):
        warnings.warn("near-defective pencil: w^T E v ~ 0 for some pair", RuntimeWarning)
        scale = np.where(np.abs(scale) < 1e-300, 1.0, scale)
    W = W / scale[None, :]
    if np.linalg.cond(VR) > defective_cond_limit:
        warnings.warn("eigenvector basis badly conditioned; pencil may be defective", RuntimeWarning)
    return GenEig(eigenvalues=lam, right=VR, left=W)


def nullspace_basis(M, tol=None):
    """Orthonormal basis of the right nullspace of M at tolerance `tol`.

    The column count is ``cols - rank(M, tol)``; an empty basis is a valid
    result. Transpose the input to obtain a left-nullspace basis.
    """
    M = _as_matrix(M, "M")
    if M.size == 0 or not np.any(M):
        return np.eye(M.shape[1])
    U, s, Vt = spla.svd(M)
    if tol is None:
        tol = rank_tolerance(M, s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return Vt[rank:].T.copy()


def orthonormalize(V, tol_factor=1e-12):
    """Orthonormal basis of span(V) via rank-revealing QR.

    Columns whose contribution falls below ``tol_factor * sigma_1`` are
    dropped; the caller is told how many survived via the returned shape.
    """
    V = _as_matrix(V, "V")
    if V.shape[1] == 0:
        return V.copy()
    Q, R, _ = spla.qr(V, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return np.empty((V.shape[0], 0))
    keep = int(np.sum(diag > tol_factor * diag[0]))
    return Q[:, :keep]
