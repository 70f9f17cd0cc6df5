"""Linear-algebra kernels shared by all other modules.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy) for the
decompositions and solves the reduction machinery needs: SVD-based
rank/nullspace decisions, shifted complex solves (dense LAPACK or sparse
SuperLU, chosen by the matrix's storage), solves of a stack of dense
matrices, shifted solves of one symmetric-definite pencil at many shifts
against a single Schur form, LAPACK's 1-norm condition estimator run on
many matrices at once, and generalized eigenproblems with two-sided
eigenvectors.
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
    "solve_stacked",
    "inverse_norm_estimates",
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


#: LAPACK's safe minimum, ``dlamch('S')``: zlacn2 takes the sign of an
#: entry no larger than this as 1.
_SAFMIN = np.finfo(float).tiny
#: zlacn2's bound on its main-loop iterations.
_ITMAX = 5
#: Fewest shifts :meth:`SchurPencil.solve` solves in one batch.  The batched
#: estimator costs a fixed number of passes over the n rows of s I - T, so
#: below about 20 (n = 12, 99) to 50 (n = 40, 49) shifts one LAPACK solve
#: and estimate per shift is faster; grids are batched, interpolation sets
#: (one point per reduced order) are not.
_MIN_BATCH = 32


def _cond_from_rcond(rcond):
    """kappa = 1 / rcond, and inf where LAPACK would report no usable rcond
    (0, inf or NaN)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isfinite(rcond) & (rcond > 0.0), 1.0 / rcond, np.inf)


def _signs(X):
    """x / |x| entrywise, and 1 where |x| <= safmin (zlacn2's rule)."""
    a = np.abs(X)
    S = np.empty_like(X)
    with np.errstate(invalid="ignore", divide="ignore"):
        S.real = X.real / a
        S.imag = X.imag / a
    S[~(a > _SAFMIN)] = 1.0
    return S


def inverse_norm_estimates(solve, solve_adjoint, n, k):
    """Lower bounds on ||M_i^{-1}||_1 for k matrices M_i of order n at once.

    This is LAPACK's ``zlacn2`` (Hager's method as refined by Higham, ACM
    TOMS 14(4), 1988), the estimator inside ``zgecon`` and ``ztrcon``, run
    for all k matrices in lockstep: start from x = 1/n, take safmin-guarded
    signs, pick j by the first largest |z|, stop when the estimate does not
    grow, j repeats its |z| or five iterations have run, then try the
    alternating-sign vector.  ``solve(X, idx)`` returns M_i^{-1} X_i and
    ``solve_adjoint(X, idx)`` returns M_i^{-H} X_i for the matrices numbered
    ``idx``, with X of shape (n, len(idx), c) (column block X[:, i] belongs
    to matrix idx[i]); X may also have shape (n, 1, c), one block shared by
    all.  The alternating-sign vector is solved with the first one, which
    changes no estimate.
    """
    every = np.arange(k)
    if n == 1:
        return np.abs(solve(np.ones((1, 1, 1), dtype=complex), every)[0, :, 0])
    start = np.empty((n, 1, 2), dtype=complex)
    start[:, 0, 0] = 1.0 / n
    start[:, 0, 1] = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    with np.errstate(all="ignore"):
        Y = solve(start, every)
        est = np.abs(Y[:, :, 0]).sum(axis=0)
        alternating = 2.0 * (np.abs(Y[:, :, 1]).sum(axis=0) / (3 * n))
        S = _signs(Y[:, :, :1])
        del Y
        Z = solve_adjoint(S, every)[:, :, 0]
        del S
        act, j = every, np.argmax(np.abs(Z), axis=0)
        for it in range(2, _ITMAX + 1):
            if not act.size:
                break
            E = np.zeros((n, act.size, 1), dtype=complex)
            E[j, np.arange(act.size), 0] = 1.0
            V = solve(E, act)[:, :, 0]
            new = np.abs(V).sum(axis=0)
            grew = new > est[act]
            est[act] = new
            act, j, V = act[grew], j[grew], V[:, grew]
            if not act.size or it == _ITMAX:  # zlacn2's last z picks nothing
                break
            Z = np.abs(solve_adjoint(_signs(V)[:, :, None], act)[:, :, 0])
            j_new = np.argmax(Z, axis=0)
            cols = np.arange(act.size)
            moved = Z[j, cols] != Z[j_new, cols]
            act, j = act[moved], j_new[moved]
    return np.where(alternating > est, alternating, est)


def _stack_lower(M, X):
    """Y with L_i Y_i = X_i, L_i the unit lower triangle of M_i (k, n, n);
    Y has shape (n, k, c), X that or (n, 1, c)."""
    Y = np.empty((X.shape[0], M.shape[0], X.shape[2]), dtype=complex)
    for r in range(M.shape[1]):
        Y[r] = X[r] - np.einsum("kj,jkc->kc", M[:, r, :r], Y[:r])
    return Y


def _stack_upper(M, X):
    """Y with U_i Y_i = X_i, U_i the upper triangle of M_i (k, n, n);
    Y has shape (n, k, c), X that or (n, 1, c)."""
    n = M.shape[1]
    Y = np.empty((n, M.shape[0], X.shape[2]), dtype=complex)
    for r in range(n - 1, -1, -1):
        acc = X[r] - np.einsum("kj,jkc->kc", M[:, r, r + 1:], Y[r + 1:])
        Y[r] = acc / M[:, r, r, None]
    return Y


def solve_stacked(M, rhs):
    """X_i = M_i^{-1} rhs for a stack M of K square matrices, shape
    (K, n, n), with the ``zgecon`` estimate of each kappa_1(M_i).

    Returns ``(X, cond)``, X of shape (K, n, m).  Nothing is rejected here:
    the caller compares ``cond`` (inf where an LU pivot is exactly zero,
    and there X is NaN) with its limit, as :func:`solve_complex` does for
    one matrix.  Each M_i is factored and solved by the LAPACK calls that
    :func:`solve_complex` makes (``zgetrf``, ``zgetrs``), so X is the same
    to the last bit; the estimates are batched: :func:`inverse_norm_estimates`
    applied through (L U)^{-1}, as ``zgecon`` applies it, for all K at once.
    A NaN or inf in M or rhs raises :class:`LinAlgContractError`.
    """
    M = np.asarray(M, dtype=complex)
    B = np.asarray(rhs, dtype=complex)
    K, n = M.shape[:2]
    if M.shape != (K, n, n) or B.ndim != 2 or B.shape[0] != n:
        raise LinAlgContractError(f"cannot solve a stack of shape {M.shape} with {B.shape}")
    anorm = np.abs(M).sum(axis=1).max(axis=1, initial=0.0)
    if not np.all(np.isfinite(anorm)) or not np.all(np.isfinite(B)):
        raise LinAlgContractError("matrix or right-hand side contains non-finite entries")
    X = np.full((K, n, B.shape[1]), np.nan, dtype=complex)
    cond = np.full(K, np.inf)
    if n == 0:
        return X, cond
    LU = np.empty_like(M)
    ok = np.zeros(K, dtype=bool)
    for i in range(K):
        lu, piv, info = lapack.zgetrf(M[i])
        if info == 0:  # > 0: an exactly zero pivot
            LU[i], X[i], ok[i] = lu, lapack.zgetrs(lu, piv, B)[0], True
    k = np.count_nonzero(ok)
    if k == 0:
        return X, cond
    if k < K:
        LU = LU[ok]
    # zgecon applies (L U)^{-1} = U^{-1} L^{-1}, the inverse of the row-permuted
    # M, by two triangular solves; formed once, it applies as one product
    eye = np.eye(n, dtype=complex)[:, None]
    inv = np.ascontiguousarray(_stack_upper(LU, _stack_lower(LU, eye)).transpose(1, 0, 2))
    del LU

    def apply(V, idx, adjoint=False):  # inv_i V_i (or inv_i^H V_i), V (n, len(idx), c)
        F = inv if idx.size == k else inv[idx]  # index sets are sorted subsets
        V = V.transpose(1, 0, 2)
        Y = np.matmul(F.transpose(0, 2, 1), V.conj()).conj() if adjoint else F @ V
        return Y.transpose(1, 0, 2)

    est = inverse_norm_estimates(apply, lambda V, idx: apply(V, idx, adjoint=True), n, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond[ok] = _cond_from_rcond((1.0 / est) / anorm[ok])  # zgecon's order
    return X, cond


class SchurPencil:
    """Shifted solves (s M - A) X = F at many shifts s, from one
    factorization; M is symmetric positive definite.

    The Cholesky factor M = L L^T whitens the pencil, and the whitened
    L^{-1} A L^{-T} = Z T Z^H is taken to complex Schur form once, so that
    (s M - A)^{-1} = L^{-T} Z (s I - T)^{-1} Z^H L^{-1}.  A shift then costs
    a triangular solve with s I - T, an estimate of kappa_1(s I - T) and
    O(n^2) products, where a dense LU costs O(n^3).

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
        self._diag = np.diag(T).copy()
        self._upper = np.triu(T, 1)  # -(s I - T) off the diagonal
        self._upper_h = np.ascontiguousarray(self._upper.conj().T[::-1, ::-1])
        self._colsums = np.abs(self._upper).sum(axis=0)  # ||.||_1 without the diagonal
        self._right = right
        self._left = right.conj().T  # Z^H L^{-1} Phi^T

    def solve(self, s, F, cond_limit=COND_LIMIT):
        """X_k with (s_k M - A) X_k = F_k for each shift of the 1-D array s.

        F has shape (n, K, m), or (n, 1, m) for one F shared by every
        shift, and is finite; X has shape (n, K, m).  Fewer than
        ``_MIN_BATCH`` shifts are solved one by one by LAPACK (``ztrtrs``
        and the ``ztrcon`` estimate).  More are solved in one
        back-substitution over the rows of s I - T, each row one
        matrix-vector product over all K*m columns (the off-diagonal part
        of s I - T is the same for every shift), and kappa_1(s_k I - T) is
        estimated for all of them by :func:`inverse_norm_estimates`,
        ``ztrcon``'s own iteration, with ||s_k I - T||_1 taken from the
        diagonal and the fixed off-diagonal column sums.

        Raises :class:`SingularMatrixError` at the first shift, in order,
        where s I - T has an exactly zero diagonal entry, the solution is
        not finite, or the estimate of kappa_1(s I - T) exceeds
        ``cond_limit`` (a scalar or one limit per shift).
        """
        s = np.asarray(s, dtype=complex).reshape(-1)
        n, K = self._diag.size, s.size
        if n == 0:
            return np.zeros((self._right.shape[0], K, F.shape[2]), dtype=complex)
        G = _stack_mul(self._left, F)
        limit = np.asarray(cond_limit, dtype=float).reshape(-1)
        if K < _MIN_BATCH:
            X = np.empty((n, K, G.shape[2]), dtype=complex)
            for k in range(K):  # k % size: index k, or 0 where one G or limit serves all
                X[:, k] = self._solve_one(s[k], G[:, k % G.shape[1]], limit[k % limit.size])
        else:
            X = self._solve_many(s, G, np.broadcast_to(limit, (K,)))
        return _stack_mul(self._right, X)

    def _solve_one(self, s, G, cond_limit):
        n = self._diag.size
        U = self._negT.copy(order="F")
        U.ravel(order="F")[:: n + 1] += s  # s I - T
        X, info = lapack.ztrtrs(U, G)
        if info > 0:
            raise SingularMatrixError("matrix is exactly singular")
        rcond, info = lapack.ztrcon(U)
        cond = np.inf if info != 0 or rcond == 0.0 else 1.0 / rcond
        if not np.all(np.isfinite(X)) or cond > cond_limit:
            raise SingularMatrixError("matrix is singular to working precision", cond)
        return X

    def _solve_many(self, s, G, cond_limit):
        d = s[None, :] - self._diag[:, None]  # diagonals of s_k I - T, (n, K)
        with np.errstate(all="ignore"):
            cond = self._cond_estimates(d)
            X = self._backsolve(d, G)
        exact = np.any(d == 0.0, axis=0)
        failed = exact | ~np.isfinite(X).all(axis=(0, 2)) | ~(cond <= cond_limit)
        if failed.any():
            k = int(np.argmax(failed))
            if exact[k]:
                raise SingularMatrixError("matrix is exactly singular")
            raise SingularMatrixError("matrix is singular to working precision", cond[k])
        return X

    def _backsolve(self, d, G, adjoint=False):
        """Y with (s_k I - T) Y_k = G_k, or (s_k I - T)^H Y_k = G_k, for every
        column k of the diagonals d (n, K'); Y has shape (n, K', c), and G
        that or (n, 1, c).

        Back-substitution over the rows, each row one product of a row of
        T with all K' c columns solved so far.  The adjoint, lower
        triangular, is solved as the upper triangular system of the
        reversed row and column order."""
        if adjoint:
            d, G = d[::-1].conj(), G[::-1]
        upper = self._upper_h if adjoint else self._upper
        n, K = d.shape
        Y = np.empty((n, K, G.shape[2]), dtype=complex)
        flat = Y.reshape(n, -1)
        for r in range(n - 1, -1, -1):
            Y[r] = G[r] + (upper[r, r + 1:] @ flat[r + 1:]).reshape(K, -1)
            Y[r] /= d[r][:, None]
        return Y[::-1] if adjoint else Y

    def _cond_estimates(self, d):
        """ztrcon's kappa_1(s_k I - T) for every column of the diagonals d."""
        anorm = (self._colsums[:, None] + np.abs(d)).max(axis=0)

        def solve(V, idx, adjoint=False):
            return self._backsolve(d if idx.size == d.shape[1] else d[:, idx], V, adjoint)

        est = inverse_norm_estimates(
            solve, lambda V, idx: solve(V, idx, adjoint=True), d.shape[0], d.shape[1])
        return _cond_from_rcond((1.0 / anorm) / est)  # ztrcon's order


def _stack_mul(M, X):
    """M @ X_k for every k of a stack X of shape (b, K, m): (a, K, m)."""
    b, K, m = X.shape
    return (M @ X.reshape(b, K * m)).reshape(M.shape[0], K, m)


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
