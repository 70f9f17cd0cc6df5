"""Structured system model: the seven-matrix container, its validation,
and the block-partitioned index views used by the reducers.

A system is described by (E, J, R, B, P, S, N) with E = E^T >= 0, skew J,
and positive semidefinite passivity matrix W = [[R, P], [P^T, S]].  The
dynamics read::

    E x' = (J - R) x + (B - P) u
    y    = (B + P)^T x + (S + N) u

Systems are immutable after construction (the arrays are frozen), so the
partition views can safely alias parent storage.  E, J and R may be held
as read-only ``scipy.sparse`` CSR arrays (large benchmark containers);
B, P, S and N, being n x m or m x m, are always dense.  Partition checks
work on either storage.

Every full model (a bare system, or a partition view, which stands for
its parent) solves its shifted pencil s E - A through one
``shifted_solver`` (``solve_shifted``) and evaluates its transfer function
through ``transfer_evals``.  A partition of a dense parent eliminates the
algebraic equations exactly and factors the ODE that remains once per
partition; every other model, dense or sparse, factors its pencil once per
shift (:class:`~phmor.linalg.SparsePencil`) and holds the solutions
(s E - A)^{-1} B at the shifts of its latest interpolation set
(``solve_shifted``).

A partition factors its constraint block once, A22 = J22 - R22 (index 1)
or M = J12^T E11^{-1} J12 (index 2), for its check, polynomial part,
reducers and solver.  There is one partition class per index: a mixed
index-1/index-2 model is checked by :func:`partition_mixed` and returned as
its :class:`Index2Partition`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spsla
from scipy.linalg import lapack

from .linalg import (COND_LIMIT, LinAlgContractError, LUFactor, SchurPencil, SparsePencil,
                     _stack_mul)
from .transfer import (
    polynomial_part_index1,
    polynomial_part_index2,
    transfer_cond_limit,
)

__all__ = [
    "PHDAESystem",
    "GenericLTISystem",
    "ValidationReport",
    "ConditionCheck",
    "Index1Partition",
    "Index2Partition",
    "PartitionError",
    "validate_structure",
    "hamiltonian",
    "symmetric_skew_split",
    "congruence",
    "as_generic",
    "partition_index1",
    "partition_index2",
    "partition_mixed",
]

#: Relative tolerance for positive-semidefiniteness decisions.
TOL_PSD = 1e-10


class PartitionError(ValueError):
    """A block partition's invariants do not hold; the message names the
    failed condition."""


def _dense(M):
    return M.toarray() if sp.issparse(M) else M


def _frozen(a, sparse_ok=False, dtype=float):
    """Read-only copy of `a`.  Sparse input stays sparse, as a CSR array,
    where `sparse_ok`; otherwise it is densified."""
    if sparse_ok and sp.issparse(a):
        a = sp.csr_array(a, dtype=dtype, copy=True)
        a.sum_duplicates()  # canonical now, so no later operation sorts in place
        for part in (a.data, a.indices, a.indptr):
            part.setflags(write=False)
        return a
    a = np.array(_dense(a), dtype=dtype)
    a.setflags(write=False)
    return a


def _min_eig_sym(M):
    if M.size == 0:
        return 0.0
    return float(spla.eigh(0.5 * (M + M.T), eigvals_only=True, subset_by_index=[0, 0])[0])


class _ShiftedSolves:
    """Solves with a full model's shifted pencil s E - A (A = J - R) and
    its transfer function, shared by the bare systems and the partition
    views; ``generic`` is the model's realization (a view's parent's)."""

    @functools.cached_property
    def shifted_solver(self):
        """The solver of s E - A, built on first use and kept for the
        model's lifetime: for a dense model as for a sparse one, a
        :class:`~phmor.linalg.SparsePencil` (one SuperLU factorization per
        shift it does not answer from its held set, one column ordering per
        model).  A partition view of a dense parent eliminates instead."""
        gen = self.generic
        return SparsePencil(gen.E, gen.A)

    def solve_shifted(self, s, rhs, cond_limit=COND_LIMIT, dynamic=False):
        """Solve (s E - A) X = rhs, with the contract of
        :func:`phmor.linalg.solve_complex`: ``SingularMatrixError`` when
        the pencil is singular to working precision, ``LinAlgContractError``
        for a non-finite shift or right-hand side.

        ``s`` is one shift, with rhs of shape (n,) or (n, m), or a 1-D
        array of K shifts (an interpolation set) with one right-hand side
        per shift, rhs of shape (n, K), whose column k X returns; the first
        failing shift, in order, raises.  A
        :class:`~phmor.linalg.SparsePencil` solves the set in one call,
        which solves the model's B beside rhs at each shift and holds those
        solutions and the estimates (``hold``) until the next set, so that
        :meth:`transfer_evals` at these shifts solves nothing; the factors
        are dropped when the call returns.

        A partition of a dense parent is solved one shift at a time, each
        as if it were alone, by its elimination solver, whose singular
        decision is the ``ztrcon`` estimate of the remaining ODE's shifted
        Schur factor (:class:`phmor.linalg.SchurPencil`); the blocks a
        valid partition requires to vanish are taken as zero.
        With ``dynamic`` a semi-explicit view returns only the dynamic block
        X[:n1], the same bits; a dense index-2 view then does not form its
        multiplier."""
        gen = self.generic
        shifts = np.asarray(s, dtype=complex)
        rhs = np.asarray(rhs, dtype=complex)
        F = rhs[:, None] if rhs.ndim == 1 else rhs
        if F.ndim != 2 or F.shape[0] != gen.n or shifts.ndim > 1 or (
                shifts.ndim == 1 and F.shape[1] != shifts.size):
            raise LinAlgContractError(f"right-hand side of shape {rhs.shape} does not fit "
                                      f"n={gen.n} and {shifts.size} shift(s)")
        if not (np.all(np.isfinite(shifts)) and np.all(np.isfinite(F))):
            raise LinAlgContractError("shift or right-hand side contains non-finite entries")
        solve = self._solve_dynamic if dynamic else self._solve_set
        if shifts.ndim == 1:
            return solve(shifts, F[:, :, None], cond_limit)[:, :, 0]
        X = solve(shifts.reshape(1), F[:, None], cond_limit)
        return X[:, 0, 0] if rhs.ndim == 1 else X[:, 0]

    def _solve_set(self, s, F, cond_limit):
        """``shifted_solver.solve`` of the shifts s, F of shape (n, K, m):
        a :class:`~phmor.linalg.SparsePencil`'s in one call that holds
        their solutions of B, an elimination's one shift at a time."""
        solver = self.shifted_solver
        if isinstance(solver, SparsePencil):
            return solver.solve(s, F, cond_limit, hold=self.generic.B)
        return _one_by_one(solver.solve, s, F, cond_limit)

    def transfer_evals(self, points):
        """H(s_k) at every point of a 1-D array, shape (K, p, m), solved at
        all points by :attr:`shifted_solver` with the condition limit
        :func:`~phmor.transfer.transfer_cond_limit`; the first point, in
        order, that is singular or not finite raises."""
        gen = self.generic
        points = np.asarray(points, dtype=complex).reshape(-1)
        finite = np.isfinite(points)
        if not finite.all():
            k = int(np.argmin(finite))
            self.transfer_evals(points[:k])  # an earlier singular point raises first
            raise LinAlgContractError("shift or right-hand side contains non-finite entries")
        B = np.asarray(gen.B, dtype=complex)[:, None]
        X = self.shifted_solver.solve(points, B, transfer_cond_limit(points))
        return _stack_mul(gen.C, X).transpose(1, 0, 2) + gen.D


def _one_by_one(solve, s, F, cond_limit):
    """``solve`` called once per shift of s, F of shape (n, K, m), each
    call the one a single shift makes."""
    return np.concatenate([solve(s[k:k + 1], np.ascontiguousarray(F[:, k:k + 1]), cond_limit)
                           for k in range(s.size)], axis=1)


@dataclass(frozen=True)
class PHDAESystem(_ShiftedSolves):
    """The structured seven-matrix model.

    E, J, R are n x n (dense or sparse); B, P are n x m; S, N are m x m
    (always stored dense).  Construction only checks shapes and
    finiteness; structural validity is reported by
    :func:`validate_structure`.
    """

    E: np.ndarray
    J: np.ndarray
    R: np.ndarray
    B: np.ndarray
    P: np.ndarray
    S: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        for name in ("E", "J", "R", "B", "P", "S", "N"):
            arr = _frozen(getattr(self, name), sparse_ok=name in ("E", "J", "R"))
            if not np.all(np.isfinite(arr.data if sp.issparse(arr) else arr)):
                raise LinAlgContractError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        n = self.E.shape[0]
        m = self.B.shape[1] if self.B.ndim == 2 else 1
        if self.B.ndim == 1:
            object.__setattr__(self, "B", _frozen(self.B.reshape(n, 1)))
        if self.P.ndim == 1:
            object.__setattr__(self, "P", _frozen(self.P.reshape(n, 1)))
        for name, shape in (
            ("E", (n, n)), ("J", (n, n)), ("R", (n, n)),
            ("B", (n, m)), ("P", (n, m)), ("S", (m, m)), ("N", (m, m)),
        ):
            if getattr(self, name).shape != shape:
                raise LinAlgContractError(
                    f"{name} has shape {getattr(self, name).shape}, expected {shape}"
                )

    @property
    def n(self):
        return self.E.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def passivity_matrix(self):
        """W = [[R, P], [P^T, S]], dense (R is densified if sparse)."""
        return np.block([[_dense(self.R), self.P], [self.P.T, self.S]])

    @functools.cached_property
    def generic(self):
        """The unstructured realization :func:`as_generic`, derived once."""
        return as_generic(self)


@dataclass(frozen=True)
class GenericLTISystem(_ShiftedSolves):
    """Unstructured descriptor realization E x' = A x + B u, y = C x + D u.

    E and A may be sparse; B, C and D are always stored dense.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("E", "A", "B", "C", "D"):
            arr = _frozen(getattr(self, name), sparse_ok=name in ("E", "A"))
            object.__setattr__(self, name, arr)
        n = self.E.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n or self.C.shape[1] != n:
            raise LinAlgContractError("inconsistent dimensions in descriptor realization")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise LinAlgContractError("feedthrough shape inconsistent with B, C")

    @property
    def n(self):
        return self.E.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def generic(self):
        return self


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    violation: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<14s} {status}  violation={c.violation:.3e}  {c.detail}")
        return "\n".join(lines)


def validate_structure(sys):
    """Check the four defining structural conditions of a system.

    Returns a :class:`ValidationReport` listing, per condition, whether it
    holds at tolerance ``TOL_PSD`` and the measured violation:

    - ``E_symmetric`` : ||E - E^T||_F relative to ||E||_F
    - ``E_psd``       : negative part of the smallest eigenvalue of sym(E)
    - ``J_skew``      : ||J + J^T||_F relative to ||J||_F
    - ``W_psd``       : negative part of the smallest eigenvalue of sym(W)

    S = S^T and N = -N^T are folded into the W check plus an explicit
    ``SN_split`` check.  Sparse E and J are densified: the eigenvalue
    checks need them dense anyway.
    """
    E, J = _dense(sys.E), _dense(sys.J)
    nrmE = spla.norm(E, "fro") or 1.0
    nrmJ = spla.norm(J, "fro") or 1.0
    scaleE = spla.norm(E, 2) or 1.0

    e_sym_viol = spla.norm(E - E.T, "fro") / nrmE
    j_skew_viol = spla.norm(J + J.T, "fro") / nrmJ
    min_eig_E = _min_eig_sym(E)
    W = sys.passivity_matrix
    scaleW = spla.norm(W, 2) or 1.0
    min_eig_W = _min_eig_sym(W)
    sn_viol = max(
        spla.norm(sys.S - sys.S.T, "fro"),
        spla.norm(sys.N + sys.N.T, "fro"),
    ) / (spla.norm(sys.S + sys.N, "fro") or 1.0)

    checks = (
        ConditionCheck("E_symmetric", e_sym_viol <= TOL_PSD, e_sym_viol),
        ConditionCheck("E_psd", min_eig_E >= -TOL_PSD * scaleE, max(0.0, -min_eig_E),
                       f"min eig {min_eig_E:.3e}"),
        ConditionCheck("J_skew", j_skew_viol <= TOL_PSD, j_skew_viol),
        ConditionCheck("W_psd", min_eig_W >= -TOL_PSD * scaleW, max(0.0, -min_eig_W),
                       f"min eig {min_eig_W:.3e}"),
        ConditionCheck("SN_split", sn_viol <= TOL_PSD, sn_viol),
    )
    return ValidationReport(checks=checks)


def hamiltonian(sys, x):
    """Stored energy 0.5 x^T E x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise LinAlgContractError(f"state has shape {x.shape}, expected ({sys.n},)")
    return 0.5 * float(x @ sys.E @ x)


def symmetric_skew_split(M):
    """The parts sym = (M + M^T)/2 and skew = (M - M^T)/2 of a square M.
    Each is symmetric or skew bit for bit; M = sym + skew to rounding."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise LinAlgContractError("symmetric_skew_split needs a square matrix")
    return 0.5 * (M + M.T), 0.5 * (M - M.T)


def congruence(T, E, J, R, B, P, S, N):
    """The pH model (E, J, R, B, P, S, N) projected by T (n x r, dense):
    (sym(T^T E T), skew(T^T J T), sym(T^T R T), T^T B, T^T P, S, N).

    E, J and R may be sparse.  The result is a pH model whenever the input
    is one: its passivity matrix is diag(T, I)^T W diag(T, I), and its E and
    R are symmetric, and J skew, bit for bit.  Every structure-preserving
    projection of a pH model is this one function."""
    Et, Jt, Rt = (T.T @ M @ T for M in (E, J, R))
    return PHDAESystem(E=0.5 * (Et + Et.T), J=0.5 * (Jt - Jt.T), R=0.5 * (Rt + Rt.T),
                       B=T.T @ B, P=T.T @ P, S=S, N=N)


def as_generic(sys):
    """Unstructured realization: A = J - R, B = B - P, C = (B+P)^T, D = S + N."""
    return GenericLTISystem(
        E=sys.E,
        A=sys.J - sys.R,
        B=sys.B - sys.P,
        C=(sys.B + sys.P).T,
        D=sys.S + sys.N,
    )


def _fro(M):
    return spsla.norm(M) if sp.issparse(M) else spla.norm(M, "fro")


def _norm2_lower(M):
    """Largest column 2-norm of M: a lower bound on ||M||_2 that needs no
    SVD, for dense or sparse M.  As the scale of a zero-block tolerance it
    keeps the check at least as strict as ||M||_2 would."""
    if 0 in M.shape:
        return 0.0
    cols = spsla.norm(M, axis=0) if sp.issparse(M) else np.linalg.norm(M, axis=0)
    return float(np.max(cols))


def _check_spd(M, what):
    """Positive definiteness of sym(M): its smallest eigenvalue must exceed
    tau = TOL_PSD * ||M||_F (an upper bound on ||M||_2), that is,
    sym(M) - tau I must be positive definite.  A dense M is decided by one
    Cholesky factorization (``dpotrf``) of that matrix, a sparse one by
    :func:`_sparse_positive_definite`; both decisions are exact.  The
    eigenvalue is computed only for the error message."""
    if 0 in M.shape:
        raise PartitionError(f"{what} is empty")
    tau = TOL_PSD * (_fro(M) or 1.0)
    if sp.issparse(M):
        definite = _sparse_positive_definite(0.5 * (M + M.T) - tau * sp.identity(M.shape[0]))
    else:
        shifted = 0.5 * (M + M.T)
        shifted[np.diag_indices_from(shifted)] -= tau
        definite = lapack.dpotrf(shifted, overwrite_a=True)[1] == 0
    if not definite:
        lam = _min_eig_sym(_dense(M))
        raise PartitionError(f"{what} is not positive definite (min eig {lam:.3e})")


def _sparse_positive_definite(S):
    """Whether the sparse symmetric S is positive definite, by a SuperLU
    factorization in symmetric mode with no pivoting: with equal row and
    column permutations it is an L D L^T, and S > 0 exactly when D > 0."""
    try:
        lu = spsla.splu(sp.csc_array(S), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return False
    return np.array_equal(lu.perm_r, lu.perm_c) and bool(np.all(lu.U.diagonal() > 0.0))


def _check_nonsingular(factor, what):
    """The ``dgecon`` estimate of an :class:`~phmor.linalg.LUFactor` must
    not exceed COND_LIMIT."""
    if not factor.cond <= COND_LIMIT:
        raise PartitionError(
            f"{what} is singular to working precision (cond {factor.cond:.3e})")


def _check_zero(M, what, scale):
    if M.size and _fro(M) > TOL_PSD * max(1.0, scale):
        raise PartitionError(f"{what} must be zero in this semi-explicit form")


def _triangular_solve(R, F, trans=0):
    """R^{-1} F (R^{-T} F for ``trans=1``) for a complex upper-triangular R
    and F of shape (n, K, m).  LAPACK ``ztrtrs`` is called directly: these
    blocks are solved at every call and are often 1 x 1, too small to pay
    for SciPy's checks."""
    n, K, m = F.shape
    if n == 0:
        return np.zeros(F.shape, dtype=complex)
    return lapack.ztrtrs(R, F.reshape(n, K * m), trans=trans)[0].reshape(n, K, m)


# The elimination solvers below take a 1-D array of K shifts s and a
# right-hand side F of shape (n, 1, m), one F shared by every shift, and
# return X of shape (n, K, m).  Quantities that do not depend on the shift
# keep a middle axis of length 1 and are computed once; numpy broadcasts
# them against the (., K, m) ones.  `s[:, None]` scales a (., K, m) stack
# shift by shift.


class _Index1Elimination:
    """(s E - A)^{-1} of a dense index-1 model with E = diag(E11, 0), from
    the partition's :attr:`~Index1Partition.schur`: x2 = -A22^{-1} (F2 +
    A21 x1), and x1 solves the ODE (s E11 - A^) x1 = F1 - A12 A22^{-1} F2."""

    def __init__(self, part):
        n1 = self._n1 = part.n1
        self._A22_lu = part.A22_lu
        G, _, A_hat = part.schur
        self._A12, self._G = part.generic.A[:n1, n1:].astype(complex), G.astype(complex)
        self._ode = SchurPencil(part.E11, A_hat)

    def solve(self, s, F, cond_limit):
        n1 = self._n1
        w = self._A22_lu.solve(F[n1:])
        x1 = self._ode.solve(s, F[:n1] - _stack_mul(self._A12, w), cond_limit)
        return np.concatenate([x1, -(w + _stack_mul(self._G, x1))])


class _Index2Elimination:
    """(s E - A)^{-1} of a dense index-2 model, E = diag(E11, 0) and
    A = [[A11, J12], [-J12^T, 0]].  A QR J12 = Q1 R1, with Phi completing
    Q1 to an orthonormal basis (Phi spans ker J12^T), solves the constraint
    J12^T x1 = F2 exactly: x1 = Q1 R1^{-T} F2 + Phi y, where y solves the
    ODE (Phi^T E11 Phi, Phi^T A11 Phi).  The multiplier comes back through
    the left inverse of J12: x2 = R1^{-1} Q1^T ((s E11 - A11) x1 - F1)."""

    def __init__(self, J12, E11, A11):
        self._n1, n2 = J12.shape
        Q, R = spla.qr(J12)  # stored complex, R in Fortran order for ztrtrs
        self._R1 = np.asfortranarray(R[:n2], dtype=complex)
        self._Q1, Phi = Q[:, :n2].astype(complex), Q[:, n2:]
        self._Q1t = self._Q1.T
        self._E11, self._A11 = E11.astype(complex), A11.astype(complex)
        self._ode = SchurPencil(Phi.T @ E11 @ Phi, Phi.T @ A11 @ Phi, basis=Phi)

    def _residual(self, s, x, F1):
        """(s E11 - A11) x - F1."""
        return s[:, None] * _stack_mul(self._E11, x) - _stack_mul(self._A11, x) - F1

    def solve_dynamic(self, s, F, cond_limit):
        """x1 of :meth:`solve`, without the multiplier."""
        F1, F2 = F[:self._n1], F[self._n1:]
        if not np.any(F2):  # no particular solution without constraint inputs
            return self._ode.solve(s, F1, cond_limit)
        x1 = _stack_mul(self._Q1, _triangular_solve(self._R1, F2, trans=1))
        return x1 - self._ode.solve(s, self._residual(s, x1, F1), cond_limit)

    def solve(self, s, F, cond_limit):
        x1 = self.solve_dynamic(s, F, cond_limit)
        x2 = _triangular_solve(self._R1, _stack_mul(self._Q1t, self._residual(s, x1, F[:self._n1])))
        return np.concatenate([x1, x2])


class _SemiExplicit(_ShiftedSolves):
    """Blocks of a semi-explicit view, its states split after the first n1
    (the dynamic block) and its parent model in ``parent``, which it stands
    for (it solves and evaluates the parent's realization), and the checks
    both kinds make: block sizes that sum to n, E = diag(E11, 0) and
    E11 > 0.  A view checks its own blocks in ``_check_blocks``."""

    def __post_init__(self):
        n1, n2, sys = self.n1, self.n2, self.parent
        if n1 < 0 or n2 < 0 or n1 + n2 != sys.n:
            raise PartitionError(f"block sizes ({n1}, {n2}) do not sum to n={sys.n}")
        scale = _norm2_lower(sys.E)
        _check_zero(sys.E[:n1, n1:], "E12", scale)
        _check_zero(sys.E[n1:, :n1], "E21", scale)
        _check_zero(sys.E[n1:, n1:], "E22", scale)
        _check_spd(self.E11, "E11")
        self._check_blocks()

    @property
    def generic(self):
        return self.parent.generic

    @property
    def E11(self):
        return self.parent.E[: self.n1, : self.n1]

    @property
    def J11(self):
        return self.parent.J[: self.n1, : self.n1]

    @property
    def J12(self):
        return self.parent.J[: self.n1, self.n1:]

    @property
    def R11(self):
        return self.parent.R[: self.n1, : self.n1]

    @property
    def B1(self):
        return self.parent.B[: self.n1]

    @property
    def B2(self):
        return self.parent.B[self.n1:]

    @property
    def P1(self):
        return self.parent.P[: self.n1]

    @property
    def P2(self):
        return self.parent.P[self.n1:]

    @functools.cached_property
    def b2_zero(self):
        """Whether the algebraic equations carry no input (B2 = P2 = 0)."""
        return not (np.any(self.B2) or np.any(self.P2))

    @functools.cached_property
    def shifted_solver(self):
        """A view of a dense parent eliminates its algebraic equations
        (``_elimination``); a view of a sparse parent solves as a bare
        system does."""
        if sp.issparse(self.parent.E):
            return super().shifted_solver
        return self._elimination()

    def _solve_dynamic(self, s, F, cond_limit):
        """The x1 rows of :meth:`_solve_set`; a dense index-2 view does not
        form its multiplier."""
        solver = self.shifted_solver
        if isinstance(solver, _Index2Elimination):
            return _one_by_one(solver.solve_dynamic, s, F, cond_limit)
        return self._solve_set(s, F, cond_limit)[: self.n1]


@dataclass(frozen=True)
class Index1Partition(_SemiExplicit):
    """Semi-explicit index-1 view: E = diag(E11, 0) with E11 > 0 and
    J22 - R22 nonsingular."""

    index_kind = "1"  # the container manifest's ``index`` entry

    parent: PHDAESystem
    n1: int
    n2: int

    def _check_blocks(self):
        _check_nonsingular(self.A22_lu, "J22 - R22")

    def _elimination(self):
        return _Index1Elimination(self)

    @property
    def A22(self):
        return self.parent.J[self.n1:, self.n1:] - self.parent.R[self.n1:, self.n1:]

    @functools.cached_property
    def A22_lu(self):
        """The partition's one :class:`~phmor.linalg.LUFactor` of A22."""
        return LUFactor(_dense(self.A22))

    @functools.cached_property
    def schur(self):
        """(G, K, A^): G = A22^{-1} A21 and K = A22^{-1} (B2 - P2) from one
        solve with :attr:`A22_lu`, and A^ = A11 - A12 G.  The solver, the
        polynomial part and :attr:`ode` read it."""
        n1, A = self.n1, _dense(self.generic.A)
        GK = self.A22_lu.solve(np.hstack([A[n1:, :n1], self.B2 - self.P2]))
        G = GK[:, :n1]
        return G, GK[:, n1:], A[:n1, :n1] - A[:n1, n1:] @ G

    @functools.cached_property
    def polynomial_part(self):
        """The constant polynomial part
        (:func:`phmor.transfer.polynomial_part_index1`), computed once per
        partition."""
        return polynomial_part_index1(self)

    @functools.cached_property
    def ode(self):
        """The pH ODE (E11, J, R, B, P, S, N) left when x2 is eliminated: the
        Schur complement of the pH system matrix with respect to A22, so
        passive.  With B^ = (B1 - P1) - A12 K, C^ = (B1 + P1)^T - (B2 + P2)^T G
        (:attr:`schur`) and D^ = P0 it is (E11, skew A^, -sym A^,
        (B^ + C^^T)/2, (C^^T - B^)/2, sym D^, skew D^)."""
        n1 = self.n1
        G, K, A_hat = self.schur
        B_hat = (self.B1 - self.P1) - _dense(self.generic.A[:n1, n1:]) @ K
        C_hat = (self.B1 + self.P1).T - (self.B2 + self.P2).T @ G
        sym_a, skew_a = symmetric_skew_split(A_hat)
        return (self.E11, skew_a, -sym_a, 0.5 * (B_hat + C_hat.T), 0.5 * (C_hat.T - B_hat),
                *symmetric_skew_split(self.polynomial_part.P0))


@dataclass(frozen=True)
class Index2Partition(_SemiExplicit):
    """Semi-explicit index-2 view: E = diag(E11, 0), trailing J, R blocks
    zero, with E11 > 0 and J12^T E11^{-1} J12 nonsingular."""

    index_kind = "2"  # the container manifest's ``index`` entry

    parent: PHDAESystem
    n1: int
    n2: int

    def _check_blocks(self):
        n1, n2, sys = self.n1, self.n2, self.parent
        _check_zero(sys.J[n1:, n1:], "J22", _norm2_lower(sys.J))
        scaleR = _norm2_lower(sys.R)
        _check_zero(sys.R[:n1, n1:], "R12", scaleR)
        _check_zero(sys.R[n1:, :n1], "R21", scaleR)
        _check_zero(sys.R[n1:, n1:], "R22", scaleR)
        if n2 > 0:
            _check_nonsingular(self.coupling_lu, "J12^T E11^{-1} J12 (coupling)")

    @property
    def A11(self):
        return self.J11 - self.R11

    def _elimination(self):
        return _Index2Elimination(self.J12, self.E11, self.A11)

    @functools.cached_property
    def Einv_J12(self):
        """E11^{-1} J12 (dense n1 x n2), from one factorization of E11 per
        partition: Cholesky-based for dense E11, SuperLU for sparse E11."""
        if sp.issparse(self.E11):
            return spsla.splu(sp.csc_array(self.E11)).solve(_dense(self.J12))
        return spla.solve(self.E11, self.J12, assume_a="pos")

    @functools.cached_property
    def coupling(self):
        """M = J12^T E11^{-1} J12 (nonsingular for a valid index-2 form)."""
        return self.J12.T @ self.Einv_J12

    @functools.cached_property
    def coupling_lu(self):
        """The partition's one :class:`~phmor.linalg.LUFactor` of M."""
        return LUFactor(self.coupling)

    @functools.cached_property
    def input_lift(self):
        """G = E11^{-1} J12 M^{-1} (B2 - P2), the constraint lift of the input."""
        return self.Einv_J12 @ self.coupling_lu.solve(self.B2 - self.P2)

    @functools.cached_property
    def output_lift(self):
        """H = E11^{-1} J12 M^{-T} (B2 + P2), the constraint lift of the output."""
        return self.Einv_J12 @ self.coupling_lu.solve(self.B2 + self.P2, trans=1)

    @functools.cached_property
    def polynomial_part(self):
        """The polynomial part, :func:`phmor.transfer.polynomial_part_index2`
        with its large-frequency check, computed once per partition."""
        return polynomial_part_index2(self)

    @property
    def ode(self):
        """The pH ODE (E11, J11, R11, *lifted_ports) of the x1 equations,
        the constraints eliminated on a basis with J12^T V = 0."""
        return (self.E11, self.J11, self.R11, *self.lifted_ports)

    @functools.cached_property
    def lifted_ports(self):
        """The port blocks (B1~, P1~, S~, N~) of the x1 equations with the
        constraint lifts G, H folded in, A11 = J11 - R11 and D = S + N::

            B1~ = B1 + (A11 G - A11^T H) / 2,   P1~ = P1 - (A11 G + A11^T H) / 2
            S~ = S + sym(P0 - D),               N~ = N + skew(P0 - D)

        (:func:`phmor.reducers.reduce_index2_augmented`), computed once per
        partition."""
        sys, A11 = self.parent, self.A11
        AG, AtH = A11 @ self.input_lift, A11.T @ self.output_lift
        sym_d, skew_d = symmetric_skew_split(self.polynomial_part.P0 - (sys.S + sys.N))
        return (self.B1 + 0.5 * (AG - AtH), self.P1 - 0.5 * (AG + AtH),
                sys.S + sym_d, sys.N + skew_d)


def partition_index1(sys, n1):
    """Semi-explicit index-1 view with dynamic block size `n1`."""
    return Index1Partition(parent=sys, n1=n1, n2=sys.n - n1)


def partition_index2(sys, n1):
    """Semi-explicit index-2 view with dynamic block size `n1`."""
    return Index2Partition(parent=sys, n1=n1, n2=sys.n - n1)


def partition_mixed(sys, n1, n2):
    """A mixed index-1/index-2 model as its index-2 view, with dynamic block
    n1 + n2 and multiplier block n3 = n - n1 - n2.

    The states are (x1, x2, x3): x3 holds the multipliers of the constraint
    J31 x1 = 0, J31 square and nonsingular, so x1 is pinned to zero and x2
    solves the ODE with E22 and A22 = J22 - R22, which may be singular.
    The view's constraint block [J13; 0] has full column rank and its null
    space is the x2 block.  Besides the index-2 checks of the view (E, R,
    J33 and the coupling), it requires n3 = n1, J23 = J32 = 0, B3 = P3 = 0
    and a nonsingular J31; with B3 = P3 = 0 its polynomial part is the
    constant D = S + N."""
    n3 = sys.n - n1 - n2
    if min(n1, n2, n3) < 0:
        raise PartitionError(f"block sizes ({n1}, {n2}, {n3}) do not sum to n={sys.n}")
    if n3 != n1:
        raise PartitionError(f"index-2 constraint block must be square: n3={n3} != n1={n1}")
    nd = n1 + n2
    part = Index2Partition(parent=sys, n1=nd, n2=n3)
    scaleJ = _norm2_lower(sys.J)
    _check_zero(sys.J[n1:nd, nd:], "J23", scaleJ)
    _check_zero(sys.J[nd:, n1:nd], "J32", scaleJ)
    _check_zero(sys.B[nd:], "B3", _norm2_lower(sys.B))
    _check_zero(sys.P[nd:], "P3", _norm2_lower(sys.P))
    _check_nonsingular(LUFactor(_dense(sys.J[nd:, :n1])), "J31")
    return part
