"""Linear-algebra kernels shared by all other modules.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy) for the
decompositions and solves the reduction machinery needs: SVD-based
rank/nullspace decisions, shifted complex solves, shifted solves of one
symmetric-definite pencil at many shifts against a single Schur form
(:class:`SchurPencil`), and generalized eigenproblems with two-sided
eigenvectors.

There is one dense LU kernel: :func:`solve_stacked` factors, solves and
estimates kappa_1 of each matrix of a stack by ``zgetrf``, ``zgetrs`` and
``zgecon``, and :func:`solve_complex` runs it on a stack of one.  There is
one sparse kernel: a SuperLU factorization, its solve and a one-column
Higham-Tisseur estimate of ||M^{-1}||_1 taken on the SuperLU factor
directly; :func:`solve_complex` runs it on a sparse matrix, and
:class:`SparsePencil` once per shift of a sparse pencil, with one column
ordering per pencil.  :class:`LUFactor` keeps the ``dgetrf`` factor and
``dgecon`` estimate of a real constraint block.
:func:`inverse_norm_estimates`, LAPACK's 1-norm condition estimator run on
many triangular systems at once, serves :class:`SchurPencil` only.
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
    "LUFactor",
    "SchurPencil",
    "SparsePencil",
    "solve_stacked",
    "inverse_norm_estimates",
    "gen_eig",
    "nullspace_basis",
    "rank_tolerance",
    "qr_rank",
    "orthonormalize",
]

#: Condition-number threshold beyond which a matrix is treated as singular
#: to working precision.
COND_LIMIT = 1e12

#: Condition number of a pencil's right-eigenvector basis beyond which
#: :func:`gen_eig` warns that the pencil may be defective.
DEFECTIVE_COND_LIMIT = 1e8


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
    ``cond_limit``.  It solves sparse full models and bare systems; a dense
    partitioned full model is solved by its partition's elimination solver
    and :class:`SchurPencil`, and reduced models by :func:`solve_stacked`.

    The condition number compared against ``cond_limit`` is a 1-norm
    *estimate* (Hager/Higham) from the LU factors already computed for the
    solve; no inverse is formed.  A dense M is :func:`solve_stacked`'s
    stack of one (``zgetrf``, ``zgetrs``, ``zgecon``): a zero pivot or an
    empty M raises "exactly singular", and a NaN or inf in M or rhs raises
    :class:`LinAlgContractError`, never :class:`SingularMatrixError`.  A
    ``scipy.sparse`` M (whose stored entries and rhs get the same
    finiteness check, and which raises the same way when empty) is
    factored by SuperLU with the COLAMD ordering, and ||M^{-1}||_1 is
    estimated on that factor by SciPy's sparse 1-norm estimator with one
    column, reproduced step for step (it draws no random numbers).  The
    estimate is a lower bound (up to rounding) on the exact kappa_1(M); on
    the pencils of the benchmark workloads it stayed within a factor 2.6
    of the exact value.
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
    if sp.issparse(M):
        X = _sparse_solve(sp.csc_array(M, dtype=complex), B, cond_limit)[1]
    else:
        X, cond, exact = _lu_solves(M[None], B)
        if exact[0]:
            raise SingularMatrixError("matrix is exactly singular")
        X, cond = X[0], cond[0]
        if not np.all(np.isfinite(X)) or cond > cond_limit:
            raise SingularMatrixError("matrix is singular to working precision", cond)
    return X[:, 0] if squeeze else X


def _sparse_solve(M, B, cond_limit, order=None):
    """The one sparse factor-and-estimate step: X with M0 X = B from one
    SuperLU factorization, and the decision on it that :func:`solve_complex`
    documents.  Returns (lu, X).

    M is a complex CSC matrix.  Without ``order`` it is M0 itself and is
    factored with the COLAMD ordering.  With ``order`` (an earlier COLAMD
    ordering of the same pattern) it holds the columns of M0 in that order,
    M = M0[:, order], and is factored in its natural order; solutions and
    adjoint right-hand sides are permuted here, so the estimate is that of
    M0.  B is solved together with the estimator's first product, as one
    block.
    """
    if not (np.isfinite(M.data).all() and np.isfinite(B).all()):
        raise LinAlgContractError("matrix or right-hand side contains non-finite entries")
    n, m = M.shape[0], B.shape[1]
    if n == 0:  # an empty matrix has no LU factor, as in the dense branch
        raise SingularMatrixError("matrix is exactly singular")
    try:
        lu = spsla.splu(M, permc_spec="COLAMD" if order is None else "NATURAL")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError("matrix is exactly singular") from exc
    if order is None:
        solve, solve_adjoint = lu.solve, lambda V: lu.solve(V, trans="H")
    else:
        unpermute = np.argsort(order)
        solve = lambda V: lu.solve(V)[unpermute]  # noqa: E731
        solve_adjoint = lambda V: lu.solve(V[order], trans="H")  # noqa: E731
    # ||M||_1 from the column sums of |M|, each summed in row order
    columns = np.repeat(np.arange(n), np.diff(M.indptr))
    anorm = np.bincount(columns, weights=np.abs(M.data), minlength=n).max()
    with np.errstate(all="ignore"):
        Y = solve(np.column_stack((B, np.full(n, 1.0 / n))))
        cond = anorm * _inverse_norm_estimate(solve, solve_adjoint, Y[:, m])
    X = Y[:, :m]
    if not np.isfinite(cond):
        cond = np.inf
    if not np.all(np.isfinite(X)) or cond > cond_limit:
        raise SingularMatrixError("matrix is singular to working precision", cond)
    return lu, X


def _inverse_norm_estimate(solve, solve_adjoint, y):
    """||M^{-1}||_1 estimated as SciPy's sparse 1-norm estimator with t = 1
    estimates it, step for step: Higham & Tisseur's block method (SIMAX
    21(4), 2000, Algorithm 2.4) with one column and at most five
    iterations, which draws no random numbers.  ``solve(V)`` applies M^{-1}
    and ``solve_adjoint(V)`` M^{-H}; y = M^{-1} 1/n is the first product,
    already solved.  For n = 1 the value is exact."""
    n = y.size
    if n == 1:  # y is M^{-1} itself
        return np.abs(y).sum()
    est_old, S, j = 0.0, np.zeros(n), None
    for k in range(1, _ITMAX + 2):
        est = np.abs(y).sum()
        if k >= 2 and est <= est_old:
            return est_old
        est_old, S_old = est, S
        if k > _ITMAX:
            break
        S = y.copy()
        S[S == 0] = 1
        S /= np.abs(S)
        if np.dot(S, S_old) == n:  # S repeats S_old: no new direction
            break
        h = np.abs(solve_adjoint(S))
        hmax = h.max()
        if hmax != hmax:  # NaN: the estimator compares with Python's max()
            hmax = max(h)
        if k >= 2 and hmax == h[j]:
            break
        j = np.argsort(h)[-1]
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        y = solve(e)
    return est


def solve_stacked(M, rhs):
    """X_i = M_i^{-1} rhs for a stack M of K square matrices, shape
    (K, n, n), with the ``zgecon`` estimate of each kappa_1(M_i).

    Returns ``(X, cond)``, X of shape (K, n, m).  Nothing is rejected here:
    the caller compares ``cond`` (inf where an LU pivot is exactly zero,
    and there X is NaN) with its limit, as :func:`solve_complex` does for
    one matrix.  A NaN or inf in M or rhs raises
    :class:`LinAlgContractError`.
    """
    X, cond, _ = _lu_solves(M, rhs)
    return X, cond


def _lu_solves(M, rhs):
    """The one dense LU kernel: ``zgetrf``, ``zgetrs`` and ``zgecon`` on
    each matrix of the stack M, called directly.  Returns X, the condition
    estimates and a mask of the matrices with an exactly zero pivot (an
    empty matrix counts as one), whose X is NaN and estimate inf.  The one
    pass that takes each ||M_i||_1 doubles as the finiteness check."""
    M = np.asarray(M, dtype=complex)
    B = np.asarray(rhs, dtype=complex)
    K, n = M.shape[:2]
    if M.shape != (K, n, n) or B.ndim != 2 or B.shape[0] != n:
        raise LinAlgContractError(f"cannot solve a stack of shape {M.shape} with {B.shape}")
    anorm = np.abs(M).sum(axis=1).max(axis=1, initial=0.0)
    if not (np.isfinite(anorm).all() and np.isfinite(B).all()):
        raise LinAlgContractError("matrix or right-hand side contains non-finite entries")
    X = np.empty((K, n, B.shape[1]), dtype=complex)
    cond = np.full(K, np.inf)
    if n == 0:  # an empty matrix has no LU factor
        return X, cond, np.ones(K, dtype=bool)
    exact = np.zeros(K, dtype=bool)
    for i in range(K):
        lu, piv, info = lapack.zgetrf(M[i])  # copies M_i: the caller's array is kept
        if info != 0:  # an exactly zero pivot
            exact[i], X[i] = True, np.nan
            continue
        X[i] = lapack.zgetrs(lu, piv, B)[0]
        rcond, info = lapack.zgecon(lu, anorm[i])
        if info == 0 and rcond > 0.0:  # else no usable estimate: cond stays inf
            cond[i] = 1.0 / rcond
    return X, cond, exact


class LUFactor:
    """The LU factor of one real square matrix M (``dgetrf``) and the
    ``dgecon`` estimate ``cond`` of kappa_1(M): inf for an exactly zero
    pivot, 1 for an empty M.  :meth:`solve` applies M^{-1} (M^{-T} with
    ``trans=1``) to a real or complex F of shape (n, ...)."""

    def __init__(self, M):
        M = _as_matrix(M, "M").astype(float)
        self.cond = 1.0
        if M.size:
            self._lu, self._piv, info = lapack.dgetrf(M)
            rcond = lapack.dgecon(self._lu, np.abs(M).sum(axis=0).max())[0] if info == 0 else 0
            self.cond = 1.0 / rcond if rcond > 0.0 else np.inf

    def solve(self, F, trans=0):
        if np.iscomplexobj(F):
            return self.solve(F.real, trans) + 1j * self.solve(F.imag, trans)
        if F.size == 0:
            return np.zeros(F.shape)
        flat = F.reshape(F.shape[0], -1)
        return lapack.dgetrs(self._lu, self._piv, flat, trans=trans)[0].reshape(F.shape)


class SparsePencil:
    """Shifted solves (s E - A) X = F of one sparse pencil at many shifts s,
    one SuperLU factorization per shift, with :class:`SchurPencil`'s
    ``solve`` signature.

    E and A are stored once, as values on the union of their nonzero
    patterns in CSC form, so a shift forms the values of s E - A by one
    vector operation.  The pattern does not change with s, and neither
    does its COLAMD column ordering: the first factorization computes it,
    the stored pattern's columns are then permuted into that order once,
    and every later shift is factored in its natural order.  Each shift is
    solved and estimated as by :func:`solve_complex`.
    """

    def __init__(self, E, A):
        E, A = sp.coo_array(E, dtype=float), sp.coo_array(A, dtype=float)
        if E.shape != A.shape or E.shape[0] != E.shape[1]:
            raise LinAlgContractError("E and A must be square and of equal shape")
        E.eliminate_zeros()
        A.eliminate_zeros()
        at = (np.concatenate((E.row, A.row)), np.concatenate((E.col, A.col)))
        # the same coordinates give both the same canonical CSC pattern
        Eu = sp.csc_array((np.concatenate((E.data, np.zeros(A.nnz))), at), shape=E.shape)
        Au = sp.csc_array((np.concatenate((np.zeros(E.nnz), A.data)), at), shape=A.shape)
        self._E, self._A = Eu.data, Au.data
        self._pattern = Eu.indices, Eu.indptr
        self._order = None  # the COLAMD column order, once a shift has found it

    def solve(self, s, F, cond_limit=COND_LIMIT):
        """X_k with (s_k E - A) X_k = F_k for each shift of the 1-D array s.

        F has shape (n, K, m), or (n, 1, m) for one F shared by every
        shift; X has shape (n, K, m).  The shifts are solved in order, and
        the first that :func:`solve_complex` would reject raises the same
        error: :class:`SingularMatrixError` for an exactly singular or
        ill-conditioned s E - A (``cond_limit`` is a scalar or one limit
        per shift), :class:`LinAlgContractError` for non-finite values."""
        limit = np.asarray(cond_limit, dtype=float).reshape(-1)
        n = F.shape[0]
        X = np.empty((n, s.size, F.shape[2]), dtype=complex)
        for k in range(s.size):  # k % size: index k, or 0 where one F or limit serves all
            M = sp.csc_array((s[k] * self._E - self._A, *self._pattern), shape=(n, n))
            lu, X[:, k] = _sparse_solve(M, F[:, k % F.shape[1]], limit[k % limit.size],
                                        self._order)
            if self._order is None:
                self._permute_columns(np.argsort(lu.perm_c))
        return X

    def _permute_columns(self, order):
        """Store the pattern with its columns in ``order``."""
        indices, indptr = self._pattern
        counts = np.diff(indptr)[order]
        new_indptr = np.concatenate(([0], np.cumsum(counts))).astype(indptr.dtype)
        # entry i of new column c is entry i of old column order[c]
        take = np.repeat(indptr[order] - new_indptr[:-1], counts) + np.arange(new_indptr[-1])
        self._E, self._A = self._E[take], self._A[take]
        self._pattern = indices[take], new_indptr
        self._order = order


#: LAPACK's safe minimum, ``dlamch('S')``: zlacn2 takes the sign of an
#: entry no larger than this as 1.
_SAFMIN = np.finfo(float).tiny
#: zlacn2's bound on its main-loop iterations, and SciPy's 1-norm estimator's.
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
    alternating-sign vector; :class:`SchurPencil` estimates a grid's shifted
    triangular factors with it.  ``solve(X, idx)`` returns M_i^{-1} X_i and
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
        abs_upper = np.abs(self._upper)
        self._colsums = abs_upper.sum(axis=0)  # ||.||_1 without the diagonal
        # the comparison matrix of s I - T; its diagonal is set per shift
        self._comparison = np.asfortranarray(-abs_upper)
        self._right = right
        self._left = right.conj().T  # Z^H L^{-1} Phi^T

    def solve(self, s, F, cond_limit=COND_LIMIT):
        """X_k with (s_k M - A) X_k = F_k for each shift of the 1-D array s.

        F has shape (n, K, m), or (n, 1, m) for one F shared by every
        shift, and is finite; X has shape (n, K, m).  Fewer than
        ``_MIN_BATCH`` shifts are solved one by one by LAPACK (``ztrtrs``).
        More are solved in one back-substitution over the rows of s I - T,
        each row one matrix-vector product over all K*m columns (the
        off-diagonal part of s I - T is the same for every shift).

        Each shift is first tested by an O(n^2) upper bound on
        kappa_1(s I - T) (:meth:`_cond_bounds`, Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., Thm 8.12).  A shift
        whose bound is within ``cond_limit`` is accepted, which is the
        decision the ``ztrcon`` estimate (a lower bound on kappa_1) would
        make.  Only the other shifts, and any shift whose solution is not
        finite, are estimated as before: by ``ztrcon`` one by one, or, in
        a batch, by :func:`inverse_norm_estimates`, ``ztrcon``'s own
        iteration, with ||s_k I - T||_1 taken from the diagonal and the
        fixed off-diagonal column sums.

        Raises :class:`SingularMatrixError` at the first shift, in order,
        where s I - T has an exactly zero diagonal entry, the solution is
        not finite, or the estimate of kappa_1(s I - T) exceeds
        ``cond_limit`` (a scalar or one limit per shift); the error
        carries the estimate.
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
        finite = np.all(np.isfinite(X))
        if finite and self._cond_bounds(U.diagonal()[:, None])[0] <= cond_limit:
            return X
        rcond, info = lapack.ztrcon(U)
        cond = np.inf if info != 0 or rcond == 0.0 else 1.0 / rcond
        if not finite or cond > cond_limit:
            raise SingularMatrixError("matrix is singular to working precision", cond)
        return X

    def _solve_many(self, s, G, cond_limit):
        d = s[None, :] - self._diag[:, None]  # diagonals of s_k I - T, (n, K)
        with np.errstate(all="ignore"):
            X = self._backsolve(d, G)
            finite = np.isfinite(X).all(axis=(0, 2))
            cond = self._cond_bounds(d)
            estimate = ~(cond <= cond_limit) | ~finite
            if estimate.any():
                cond[estimate] = self._cond_estimates(d[:, estimate])
        exact = np.any(d == 0.0, axis=0)
        failed = exact | ~finite | ~(cond <= cond_limit)
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

    def _cond_bounds(self, d):
        """Upper bounds on kappa_1(s_k I - T) for every column of the
        diagonals d (n, K'), in O(n^2) each; inf or NaN where none is
        found.

        For triangular U, |U^{-1}| <= M(U)^{-1} entrywise, with the
        comparison matrix M(U) (|u_ii| on the diagonal, -|u_ij| above it),
        so ||U^{-1}||_1 <= max(y) with M(U)^T y = 1, a recurrence over the
        rows that adds non-negative terms only.  Times ||U||_1 that bounds
        kappa_1(U) and so ``ztrcon``'s estimate, which is ||U||_1 times a
        lower bound on ||U^{-1}||_1 (Higham, Thm 8.12 and Sec. 15.3).
        Rounding may raise the estimate above the exact kappa_1: its
        solves are exact for some U + dU with |dU| <= c n u |U|, whose
        comparison matrix differs from M(U) by that much, and this grows
        M^{-1} by at most a factor 1 + 2 c n^2 u; with the rounding of the
        sums here the returned bound is the computed one times
        1 + 10 (n + 2)^2 u.  A single shift solves the recurrence by one
        ``dtrtrs``; a batch runs it over the rows for all shifts at once,
        each row one product with a (contiguous) column of M(U)."""
        absd = np.abs(d)
        n, K = d.shape
        M = self._comparison
        if K == 1:
            M.ravel(order="F")[:: n + 1] = absd[:, 0]
            y, info = lapack.dtrtrs(M, np.ones(n), trans=1)
            y = y[:, None] if info == 0 else np.full((n, 1), np.inf)
        else:
            y = np.empty((n, K))
            for j in range(n):  # rows above j only: the diagonal is not read
                y[j] = (1.0 - M[:j, j] @ y[:j]) / absd[j]
        anorm = (self._colsums[:, None] + absd).max(axis=0)
        return anorm * y.max(axis=0) * (1.0 + 10.0 * (n + 2) ** 2 * np.finfo(float).eps)

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


def gen_eig(A, E):
    """Generalized eigenpairs of (A, E) with E symmetric positive definite.

    Returns eigenvalues together with right eigenvectors ``v_i`` and left
    eigenvectors ``w_i`` satisfying ``A v_i = lambda_i E v_i`` and
    ``w_i^T A = lambda_i w_i^T E``, scaled so that ``w_i^T E v_i = 1``.
    Warns when the condition number of the right-eigenvector basis exceeds
    ``DEFECTIVE_COND_LIMIT`` (defective or nearly defective pencil).
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
    return _definite_gen_eig(A, E)


def _definite_gen_eig(A, E):
    """:func:`gen_eig` after its checks of E, for a caller that has made
    them: A must be a finite square matrix of E's shape."""
    lam, VL, VR = spla.eig(A, E, left=True, right=True)
    W = _scaled_left_vectors(VL, E, VR)
    if np.linalg.cond(VR) > DEFECTIVE_COND_LIMIT:
        warnings.warn("eigenvector basis badly conditioned; pencil may be defective", RuntimeWarning)
    return GenEig(eigenvalues=lam, right=VR, left=W)


def _scaled_left_vectors(VL, E, VR):
    """Left eigenvectors W of a real pencil (A, E) in the transpose
    convention w_i^T A = lambda_i w_i^T E, scaled so that w_i^T E v_i = 1,
    from scipy's ``VL`` (VL^H A = lam VL^H E) and right vectors ``VR``.

    Warns when some w_i^T E v_i is below 1e-14 max(1, ||E||_2) (a
    near-defective pencil); a scale below 1e-300 is left at 1.
    """
    W = VL.conj()
    scale = np.einsum("ij,jk,ki->i", W.T, E, VR)
    if np.any(np.abs(scale) < 1e-14 * max(1.0, spla.norm(E, 2))):
        warnings.warn("near-defective pencil: w^T E v ~ 0 for some pair", RuntimeWarning)
        scale = np.where(np.abs(scale) < 1e-300, 1.0, scale)
    return W / scale[None, :]


def nullspace_basis(M):
    """Orthonormal basis of the right nullspace of M at the tolerance
    :func:`rank_tolerance`.

    The column count is ``cols - rank(M)``; an empty basis is a valid
    result. Transpose the input to obtain a left-nullspace basis.
    """
    M = _as_matrix(M, "M")
    if M.size == 0 or not np.any(M):
        return np.eye(M.shape[1])
    U, s, Vt = spla.svd(M)
    rank = int(np.sum(s > rank_tolerance(M, s[0] if s.size else 0.0)))
    return Vt[rank:].T.copy()


def qr_rank(V):
    """Pivoted QR V[:, piv] = Q R and the rank it reveals: the number of
    |R_ii| above 1e-12 |R_00| (0 when R_00 = 0).  Returns (Q, rank, piv);
    Q[:, :rank] spans the kept columns V[:, piv[:rank]]."""
    Q, R, piv = spla.qr(V, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > 1e-12 * d[0])) if d.size and d[0] > 0 else 0
    return Q, rank, piv


def orthonormalize(V):
    """Orthonormal basis of span(V): the first :func:`qr_rank` columns of
    its pivoted QR.  The caller is told how many columns survived via the
    returned shape.
    """
    V = _as_matrix(V, "V")
    if V.shape[1] == 0:
        return V.copy()
    Q, rank, _ = qr_rank(V)
    return Q[:, :rank]
