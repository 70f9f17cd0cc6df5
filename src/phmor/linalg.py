"""Linear-algebra kernels shared by all other modules.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy) for the
decompositions and solves the reduction machinery needs: SVD-based
rank/nullspace decisions, shifted complex solves, shifted solves of one
symmetric-definite pencil at many shifts against a single Schur form
(:class:`SchurPencil`), and generalized eigenproblems with two-sided
eigenvectors.

The eigensolver and the rank rule are SciPy's own: :func:`gen_eig` is
``scipy.linalg.eig`` with left and right vectors, and :func:`pivoted_rank`
is ``scipy.linalg.qr`` with column pivoting.

There is one dense LU kernel: :func:`solve_stacked` factors, solves and
estimates kappa_1 of each matrix of a stack by ``zgetrf``, ``zgetrs`` and
``zgecon``, and :func:`solve_complex` runs it on a stack of one.  There is
one sparse kernel: a SuperLU factorization, its solve and a one-column
Higham-Tisseur estimate of ||M^{-1}||_1 taken on the SuperLU factor
directly; :func:`solve_complex` runs it on a sparse matrix, and
:class:`SparsePencil` once per distinct shift of a pencil stored by its
nonzeros, with one column ordering and one matrix container per pencil.
A factor lives for one shift's solve.  For its latest interpolation set a
pencil holds, per shift, the solution (s E - A)^{-1} B of the model's input
matrix B (n x m) and the kappa_1 estimate, until the next set replaces
them, so that the transfer function there is C X + D with no solve.  :class:`LUFactor` keeps
the ``dgetrf`` factor and ``dgecon`` estimate of a real constraint block.
:class:`SchurPencil` accepts a shift by an O(n^2) bound on
kappa_1(s I - T), and estimates kappa_1 of any other shift by ``ztrcon``,
one shift at a time.
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
    "gen_eig",
    "nullspace_basis",
    "rank_tolerance",
    "pivoted_rank",
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
    """Finite eigenpairs of A v = lambda E v with two-sided eigenvectors.

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
    ``cond_limit``.  It is the LU reference of a full model's solvers
    (:func:`phmor.transfer.eval_transfer`): a partition of a dense parent
    is solved by its elimination solver and :class:`SchurPencil`, every
    other full model by :class:`SparsePencil`, and reduced models by
    :func:`solve_stacked`.

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
        X = _sparse_solve(sp.csc_array(M, dtype=complex), B, cond_limit)
    else:
        X, cond, exact = _lu_solves(M[None], B)
        if exact[0]:
            raise SingularMatrixError("matrix is exactly singular")
        X = _checked(X[0], cond[0], cond_limit)
    return X[:, 0] if squeeze else X


def _sparse_solve(M, B, cond_limit):
    """X with M X = B for a complex CSC matrix M, from one SuperLU
    factorization with the COLAMD ordering, and the decision on it that
    :func:`solve_complex` documents."""
    _check_sparse_finite(M.data, B)
    lu = _splu(M, "COLAMD")
    columns = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    X, cond = _estimated_solve(lu.solve, lambda V: lu.solve(V, trans="H"), B,
                               _one_norm(M.data, columns, M.shape[0]))
    return _checked(X, cond, cond_limit)


def _check_sparse_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise LinAlgContractError("matrix or right-hand side contains non-finite entries")


def _splu(M, permc_spec):
    """The SuperLU factor of the complex CSC matrix M; an empty or exactly
    singular M raises "exactly singular", as the dense branch does."""
    if M.shape[0] == 0:  # an empty matrix has no LU factor
        raise SingularMatrixError("matrix is exactly singular")
    try:
        return spsla.splu(M, permc_spec=permc_spec)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError("matrix is exactly singular") from exc


def _one_norm(values, columns, n):
    """||M||_1 of an n x n CSC matrix from the column sums of |M|, each
    summed in row order; ``columns`` holds the column of each stored value."""
    return np.bincount(columns, weights=np.abs(values), minlength=n).max()


def _estimated_solve(solve, solve_adjoint, B, anorm):
    """(X, cond): X = M^{-1} B by ``solve`` and the one-column estimate of
    kappa_1(M) = ``anorm`` ||M^{-1}||_1 (inf where it is not finite),
    ``solve_adjoint`` applying M^{-H}.  B and the estimator's first
    product, 1/n in every row, are solved as one block."""
    m = B.shape[1]
    with np.errstate(all="ignore"):
        Y = solve(np.column_stack((B, np.full(B.shape[0], 1.0 / B.shape[0]))))
        cond = anorm * _inverse_norm_estimate(solve, solve_adjoint, Y[:, m])
    return Y[:, :m], cond if np.isfinite(cond) else np.inf


def _checked(X, cond, cond_limit):
    """X, unless it is not finite or ``cond`` exceeds ``cond_limit``: then
    :class:`SingularMatrixError` with the estimate."""
    if not np.all(np.isfinite(X)) or cond > cond_limit:
        raise SingularMatrixError("matrix is singular to working precision", cond)
    return X


#: The iteration bound of SciPy's 1-norm estimator.
_ITMAX = 5


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
    """Shifted solves (s E - A) X = F of one pencil, dense or sparse, at
    many shifts s, one SuperLU factorization per shift it does not answer
    from its held set, with :class:`SchurPencil`'s ``solve`` signature.
    It solves every full model but a partition of a dense parent.

    E and A are stored once, as values on the union of their nonzero
    patterns in CSC form, and one CSC container on that pattern holds
    s E - A: each shift rewrites its values in place.  The pattern does not
    change with s, and neither does its COLAMD column ordering: the first
    factorization computes it, the pattern's columns are then permuted into
    that order once, and every later shift is factored in its natural
    order.  The column of each stored value (for ||s E - A||_1) and the
    inverse permutation are formed once too.  Each shift is solved and
    estimated as by :func:`solve_complex` of a sparse matrix.

    A solve with ``hold``, the model's input matrix B (n x m), is an
    interpolation set: each of its shifts solves one block, F_k, B and the
    estimator's first column, and the pencil keeps the solution
    X = (s E - A)^{-1} B and the kappa_1 estimate of each, in place of the
    set held before; the SuperLU factor is dropped once its shift is
    solved, so a shift the set repeats, or shares with the set before, is
    factored again.  A solve without ``hold`` of that same B (one F shared by
    every shift: the transfer function) takes the held X at a held shift,
    after checking the held estimate against the caller's limit, and
    factors every other shift for that solve only; a solve of any other F
    factors every shift.  So the set is held, at n x m values a shift,
    from its basis through the evaluations that follow (the interpolation
    residuals and the frequency grid) until the next set.  This is
    bit-identical to factoring each shift afresh because a column of
    ``SuperLU.solve`` does not depend on the columns solved beside it.
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
        self._set_pattern(Eu.indices, Eu.indptr)
        self._order = self._unpermute = None  # the COLAMD column order, once found
        self._held_input = None  # the B of the held set
        self._held = {}  # shift -> ((s E - A)^{-1} B, kappa_1 estimate) of the held set

    def _set_pattern(self, indices, indptr):
        """The container of s E - A on this pattern, and each value's column."""
        n = indptr.size - 1
        self._M = sp.csc_array((np.zeros(indices.size, dtype=complex), indices, indptr),
                               shape=(n, n))
        self._columns = np.repeat(np.arange(n), np.diff(indptr))

    def solve(self, s, F, cond_limit=COND_LIMIT, hold=None):
        """X_k with (s_k E - A) X_k = F_k for each shift of the 1-D array s.

        F has shape (n, K, m), or (n, 1, m) for one F shared by every
        shift; X has shape (n, K, m).  The shifts are solved in order, and
        the first that :func:`solve_complex` would reject raises the same
        error: :class:`SingularMatrixError` for an exactly singular or
        ill-conditioned s E - A (``cond_limit`` is a scalar or one limit
        per shift), :class:`LinAlgContractError` for non-finite values.
        A held shift's estimate is the one made when it was factored.
        With ``hold`` (the input matrix B, n x m) these shifts'
        solutions of B replace the held set; without it a shared F equal
        to the held B is answered from the held set."""
        limit = np.asarray(cond_limit, dtype=float).reshape(-1)
        if hold is not None:  # a new set replaces the held one
            self._held_input, self._held = hold, {}
            held = self._held
        else:  # the held set answers only the one F it solved, B
            held = self._held if F.shape[1] == 1 and np.array_equal(
                F[:, 0], self._held_input) else {}
        X = np.empty((F.shape[0], s.size, F.shape[2]), dtype=complex)
        for k in range(s.size):  # k % size: index k, or 0 where one F or limit serves all
            B, sk = F[:, k % F.shape[1]], complex(s[k])
            if hold is None and sk in held:
                X[:, k], cond = held[sk]
            else:
                Y, cond = self._factor_solve(s[k], B if hold is None else np.hstack((B, hold)))
                X[:, k] = Y[:, :B.shape[1]]
                if hold is not None:
                    held[sk] = (Y[:, B.shape[1]:].copy(), cond)
            _checked(X[:, k], cond, limit[k % limit.size])
        return X

    def _factor_solve(self, s, B):
        """(X, cond) of s E - A: X = (s E - A)^{-1} B from its SuperLU
        factor, which is then dropped, and the one-column estimate of its
        kappa_1, not yet checked against a limit."""
        M = self._M
        np.subtract(np.multiply(s, self._E, out=M.data), self._A, out=M.data)  # s E - A
        _check_sparse_finite(M.data, B)
        order, unpermute = self._order, self._unpermute
        lu = _splu(M, "COLAMD" if order is None else "NATURAL")
        if order is None:
            solve, solve_adjoint = lu.solve, lambda V: lu.solve(V, trans="H")
        else:  # M holds the columns of s E - A in ``order``
            solve = lambda V: lu.solve(V)[unpermute]  # noqa: E731
            solve_adjoint = lambda V: lu.solve(V[order], trans="H")  # noqa: E731
        X, cond = _estimated_solve(solve, solve_adjoint, B,
                                   _one_norm(M.data, self._columns, M.shape[0]))
        if order is None:
            self._permute_columns(np.argsort(lu.perm_c))
        return X, cond

    def _permute_columns(self, order):
        """Store the pattern with its columns in ``order``."""
        indices, indptr = self._M.indices, self._M.indptr
        counts = np.diff(indptr)[order]
        new_indptr = np.concatenate(([0], np.cumsum(counts))).astype(indptr.dtype)
        # entry i of new column c is entry i of old column order[c]
        take = np.repeat(indptr[order] - new_indptr[:-1], counts) + np.arange(new_indptr[-1])
        self._E, self._A = self._E[take], self._A[take]
        self._set_pattern(indices[take], new_indptr)
        self._order, self._unpermute = order, np.argsort(order)


#: Fewest shifts :meth:`SchurPencil.solve` solves in one batch, by one
#: back-substitution over the rows of s I - T for all of them; fewer are
#: solved by one ``ztrtrs`` each.  Grids are batched, interpolation sets
#: (one point per reduced order) are not.  The two solves round
#: differently, so this number decides which solver a point gets, and with
#: that the output bits.
_MIN_BATCH = 32


class SchurPencil:
    """Shifted solves (s M - A) X = F at many shifts s, from one
    factorization; M is symmetric positive definite.

    The Cholesky factor M = L L^T whitens the pencil, and the whitened
    L^{-1} A L^{-T} = Z T Z^H is taken to complex Schur form once, so that
    (s M - A)^{-1} = L^{-T} Z (s I - T)^{-1} Z^H L^{-1}.  A shift then costs
    a triangular solve with s I - T, a bound on kappa_1(s I - T) and
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
        finite, are estimated, by ``ztrcon``, one at a time and in order.

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
        if not (finite and self._cond_bounds(U.diagonal()[:, None])[0] <= cond_limit):
            _check_estimate(U, finite, cond_limit)
        return X

    def _solve_many(self, s, G, cond_limit):
        d = s[None, :] - self._diag[:, None]  # diagonals of s_k I - T, (n, K)
        with np.errstate(all="ignore"):
            X = self._backsolve(d, G)
            finite = np.isfinite(X).all(axis=(0, 2))
            cleared = finite & (self._cond_bounds(d) <= cond_limit)
        if not cleared.all():
            U = self._negT.copy(order="F")
            diagonal = U.ravel(order="F")[:: d.shape[0] + 1]
            for k in np.flatnonzero(~cleared):
                if np.any(d[:, k] == 0.0):
                    raise SingularMatrixError("matrix is exactly singular")
                diagonal[:] = d[:, k]  # s_k I - T
                _check_estimate(U, finite[k], cond_limit[k])
        return X

    def _backsolve(self, d, G):
        """Y with (s_k I - T) Y_k = G_k for every column k of the diagonals
        d (n, K); Y has shape (n, K, c), and G that or (n, 1, c).

        Back-substitution over the rows, each row one product of a row of
        T with all K c columns solved so far."""
        n, K = d.shape
        Y = np.empty((n, K, G.shape[2]), dtype=complex)
        flat = Y.reshape(n, -1)
        for r in range(n - 1, -1, -1):
            Y[r] = G[r] + (self._upper[r, r + 1:] @ flat[r + 1:]).reshape(K, -1)
            Y[r] /= d[r][:, None]
        return Y

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


def _check_estimate(U, finite, cond_limit):
    """Raise :class:`SingularMatrixError` with the ``ztrcon`` estimate of
    kappa_1(U), U = s I - T, unless the solution is finite and the estimate
    is within ``cond_limit``."""
    rcond, info = lapack.ztrcon(U)
    cond = np.inf if info != 0 or rcond == 0.0 else 1.0 / rcond
    if not finite or not cond <= cond_limit:
        raise SingularMatrixError("matrix is singular to working precision", cond)


def _stack_mul(M, X):
    """M @ X_k for every k of a stack X of shape (b, K, m): (a, K, m)."""
    b, K, m = X.shape
    return (M @ X.reshape(b, K * m)).reshape(M.shape[0], K, m)


def gen_eig(A, E):
    """Finite generalized eigenpairs of a real square pencil (A, E).

    Returns the finite eigenvalues together with right eigenvectors ``v_i``
    and left eigenvectors ``w_i`` satisfying ``A v_i = lambda_i E v_i`` and
    ``w_i^T A = lambda_i w_i^T E``, scaled so that ``w_i^T E v_i = 1``: one
    ``scipy.linalg.eig(A, E, left=True, right=True)``, the eigenvalues that
    ``np.isfinite`` passes (the infinite ones of a singular E drop out) and
    :func:`_scaled_left_vectors`.  E need not be symmetric or definite.
    """
    A = _as_matrix(A, "A")
    E = _as_matrix(E, "E")
    if A.shape != E.shape or A.shape[0] != A.shape[1]:
        raise LinAlgContractError("A and E must be square and of equal shape")
    lam, VL, VR = spla.eig(A, E, left=True, right=True)
    finite = np.isfinite(lam)
    lam, VL, VR = lam[finite], VL[:, finite], VR[:, finite]
    return GenEig(eigenvalues=lam, right=VR, left=_scaled_left_vectors(VL, E, VR))


def _scaled_left_vectors(VL, E, VR):
    """Left eigenvectors W of a real pencil (A, E) in the transpose
    convention w_i^T A = lambda_i w_i^T E, scaled so that w_i^T E v_i = 1,
    from scipy's ``VL`` (VL^H A = lam VL^H E) and right vectors ``VR``.

    Warns when some w_i^T E v_i is below 1e-14 max(1, ||E||_2) (a
    near-defective pencil); a scale below 1e-300 is left at 1.  ||E||_2
    takes an SVD, so it is computed only when the bound ||E||_2 <= ||E||_F
    (with a margin for the rounding of both) does not already clear every
    scale.
    """
    W = VL.conj()
    scale = np.einsum("ij,jk,ki->i", W.T, E, VR)
    size = np.abs(scale)
    if (np.any(size < 1e-14 * max(1.0, (1.0 + 1e-8) * np.linalg.norm(E)))
            and np.any(size < 1e-14 * max(1.0, spla.norm(E, 2)))):
        warnings.warn("near-defective pencil: w^T E v ~ 0 for some pair", RuntimeWarning)
        scale = np.where(size < 1e-300, 1.0, scale)
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


def pivoted_rank(V):
    """(rank, piv, cond) of the pivoted QR V[:, piv] = Q R, without forming
    Q: the rank is the number of |R_ii| above 1e-12 |R_00| (0 when
    R_00 = 0), and V[:, piv[:rank]] are the columns it keeps.  ``cond`` is
    |R_00| / |R_{rank-1,rank-1}|, the pivoted QR's estimate of the condition
    number of the kept columns (inf at rank 0).  R and the pivots are
    ``scipy.linalg.qr(V, mode="r", pivoting=True)``'s.  A non-finite V
    raises ``ValueError``."""
    R, piv = spla.qr(V, mode="r", pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > 1e-12 * d[0])) if d.size and d[0] > 0 else 0
    cond = float(d[0] / d[rank - 1]) if rank else np.inf
    return rank, piv, cond
