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

Each partition view also solves its parent's shifted pencil s E - A
(:meth:`Index1Partition.solve_shifted` and its twins) and evaluates its
transfer function, so that it can stand in for the full model.  A dense
parent is solved by eliminating the algebraic equations exactly and
factoring the ODE that remains once per partition; a sparse parent keeps
one SuperLU factorization per shift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spsla
from scipy.linalg import lapack

from .linalg import COND_LIMIT, LinAlgContractError, SchurPencil, _stack_mul, solve_complex

__all__ = [
    "PHDAESystem",
    "GenericLTISystem",
    "ValidationReport",
    "ConditionCheck",
    "Index1Partition",
    "Index2Partition",
    "MixedPartition",
    "PartitionError",
    "validate_structure",
    "hamiltonian",
    "symmetric_skew_split",
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


def _values(M):
    """The stored entries of a dense or sparse matrix."""
    return M.data if sp.issparse(M) else M


def _min_eig_sym(M):
    if M.size == 0:
        return 0.0
    Ms = 0.5 * (M + M.T)
    return float(spla.eigh(Ms, eigvals_only=True, subset_by_index=[0, 0])[0])


@dataclass(frozen=True)
class PHDAESystem:
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
            if not np.all(np.isfinite(_values(arr))):
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
class GenericLTISystem:
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
    def p(self):
        return self.C.shape[0]


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


def validate_structure(sys, tol=TOL_PSD):
    """Check the four defining structural conditions of a system.

    Returns a :class:`ValidationReport` listing, per condition, whether it
    holds at tolerance `tol` and the measured violation:

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
        ConditionCheck("E_symmetric", e_sym_viol <= tol, e_sym_viol),
        ConditionCheck("E_psd", min_eig_E >= -tol * scaleE, max(0.0, -min_eig_E),
                       f"min eig {min_eig_E:.3e}"),
        ConditionCheck("J_skew", j_skew_viol <= tol, j_skew_viol),
        ConditionCheck("W_psd", min_eig_W >= -tol * scaleW, max(0.0, -min_eig_W),
                       f"min eig {min_eig_W:.3e}"),
        ConditionCheck("SN_split", sn_viol <= tol, sn_viol),
    )
    return ValidationReport(checks=checks)


def hamiltonian(sys, x):
    """Stored energy 0.5 x^T E x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise LinAlgContractError(f"state has shape {x.shape}, expected ({sys.n},)")
    return 0.5 * float(x @ sys.E @ x)


def symmetric_skew_split(M):
    """Exact decomposition M = sym + skew with sym = (M+M^T)/2."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise LinAlgContractError("symmetric_skew_split needs a square matrix")
    sym = 0.5 * (M + M.T)
    return sym, M - sym


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
    tau = TOL_PSD * ||M||_F (an upper bound on ||M||_2).  Decided by one
    Cholesky factorization of sym(M) - tau I, which exists exactly when it
    does; the eigenvalue is computed only for the error message.  A sparse
    M is densified."""
    if 0 in M.shape:
        raise PartitionError(f"{what} is empty")
    Md = _dense(M)
    tau = TOL_PSD * (_fro(M) or 1.0)
    shifted = 0.5 * (Md + Md.T)
    shifted[np.diag_indices_from(shifted)] -= tau
    _, info = lapack.dpotrf(shifted, overwrite_a=True)
    if info != 0:
        lam = _min_eig_sym(Md)
        raise PartitionError(f"{what} is not positive definite (min eig {lam:.3e})")


def _check_nonsingular(M, what):
    if 0 in M.shape:
        return
    cond = np.linalg.cond(_dense(M))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise PartitionError(f"{what} is singular to working precision (cond {cond:.3e})")


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


def _complex_qr(M):
    """Full QR of a real block with full column rank: Q and the square top
    of R, both stored complex (R in Fortran order for ``ztrtrs``), so that
    the per-shift products need no conversion."""
    Q, R = spla.qr(M)
    return Q.astype(complex), np.asfortranarray(R[:M.shape[1]], dtype=complex)


# The elimination solvers below take a 1-D array of K shifts s and a
# right-hand side F of shape (n, 1, m), one F shared by every shift, and
# return X of shape (n, K, m).  Quantities that do not depend on the shift
# keep a middle axis of length 1 and are computed once; numpy broadcasts
# them against the (., K, m) ones.  `s[:, None]` scales a (., K, m) stack
# shift by shift.


class _Index1Elimination:
    """(s E - A)^{-1} of a dense index-1 partition.  One QR of A22 solves
    the algebraic rows: x2 = -A22^{-1} (F2 + A21 x1), and x1 solves the ODE
    (s E11 - A11 + A12 A22^{-1} A21) x1 = F1 - A12 A22^{-1} F2."""

    def __init__(self, part):
        n1 = self._n1 = part.n1
        A = _dense(part.parent.generic.A)
        Q, self._R = _complex_qr(A[n1:, n1:])
        self._Qt = Q.T
        G = self._solve_A22(A[n1:, :n1][:, None]).real[:, 0]  # A22^{-1} A21
        self._A12, self._G = A[:n1, n1:].astype(complex), G.astype(complex)
        self._ode = SchurPencil(_dense(part.E11), A[:n1, :n1] - A[:n1, n1:] @ G)

    def _solve_A22(self, F):
        return _triangular_solve(self._R, _stack_mul(self._Qt, F))

    def solve(self, s, F, cond_limit):
        n1 = self._n1
        w = self._solve_A22(F[n1:])
        x1 = self._ode.solve(s, F[:n1] - _stack_mul(self._A12, w), cond_limit)
        return np.concatenate([x1, -(w + _stack_mul(self._G, x1))])


class _Index2Elimination:
    """(s E - A)^{-1} of a dense index-2 partition.  A QR J12 = Q1 R1, with
    Phi completing Q1 to an orthonormal basis (Phi spans ker J12^T), solves
    the constraint J12^T x1 = F2 exactly: x1 = Q1 R1^{-T} F2 + Phi y, where y
    solves the ODE (Phi^T E11 Phi, Phi^T A11 Phi).  The multiplier comes back
    through the left inverse of J12: x2 = R1^{-1} Q1^T ((s E11 - A11) x1 - F1)."""

    def __init__(self, part):
        self._n1, n2 = part.n1, part.n2
        Q, self._R1 = _complex_qr(_dense(part.J12))
        self._Q1, Phi = Q[:, :n2], Q[:, n2:].real
        self._Q1t = self._Q1.T
        E11, A11 = _dense(part.E11), _dense(part.A11)
        self._E11, self._A11 = E11.astype(complex), A11.astype(complex)
        self._ode = SchurPencil(Phi.T @ E11 @ Phi, Phi.T @ A11 @ Phi, basis=Phi)

    def solve(self, s, F, cond_limit):
        F1, F2 = F[:self._n1], F[self._n1:]

        def residual(x):  # (s E11 - A11) x - F1
            return s[:, None] * _stack_mul(self._E11, x) - _stack_mul(self._A11, x) - F1

        if np.any(F2):  # the particular solution; zero without constraint inputs
            x1 = _stack_mul(self._Q1, _triangular_solve(self._R1, F2, trans=1))
            x1 = x1 - self._ode.solve(s, residual(x1), cond_limit)
        else:
            x1 = self._ode.solve(s, F1, cond_limit)
        x2 = _triangular_solve(self._R1, _stack_mul(self._Q1t, residual(x1)))
        return np.concatenate([x1, x2])


class _MixedElimination:
    """(s E - A)^{-1} of a dense mixed partition.  With Kij = s Eij - Aij,
    the index-2 constraint gives x1 = -J31^{-1} F3, x2 solves the ODE
    (s E22 - A22) x2 = F2 - K21 x1, and the multiplier is
    x3 = J31^{-T} (F1 - K11 x1 - K12 x2); one QR of J31 serves both."""

    def __init__(self, part):
        n1, nd = part.n1, part.n1 + part.n2
        self._n1, self._nd = n1, nd
        gen = part.parent.generic
        E, A = _dense(gen.E)[:nd, :nd], _dense(gen.A)[:nd, :nd]
        Q, self._R = _complex_qr(_dense(part.J31))
        self._Q, self._Qt = Q, Q.T
        self._E1, self._A1 = E[:, :n1].astype(complex), A[:, :n1].astype(complex)
        self._E12, self._A12 = E[:n1, n1:].astype(complex), A[:n1, n1:].astype(complex)
        self._ode = SchurPencil(E[n1:, n1:], A[n1:, n1:])

    def solve(self, s, F, cond_limit):
        n1, nd = self._n1, self._nd
        x1 = -_triangular_solve(self._R, _stack_mul(self._Qt, F[nd:]))
        K1x1 = s[:, None] * _stack_mul(self._E1, x1) - _stack_mul(self._A1, x1)
        x2 = self._ode.solve(s, F[n1:nd] - K1x1[n1:], cond_limit)
        K12x2 = s[:, None] * _stack_mul(self._E12, x2) - _stack_mul(self._A12, x2)
        x3 = _stack_mul(self._Q, _triangular_solve(self._R, F[:n1] - K1x1[:n1] - K12x2,
                                                   trans=1))
        return np.concatenate([np.broadcast_to(x1, (n1, *x2.shape[1:])), x2, x3])


class _ShiftedSolves:
    """Solves with the parent model's shifted pencil s E - A (A = J - R),
    shared by the partition views; ``_elimination`` names the dense solver
    class of each view."""

    @functools.cached_property
    def shifted_solver(self):
        """The dense elimination solver, built on first use and kept for
        the partition's lifetime."""
        return self._elimination(self)

    def solve_shifted(self, s, rhs, cond_limit=COND_LIMIT):
        """Solve (s E - A) X = rhs for the parent model, with the contract
        of :func:`phmor.linalg.solve_complex`: ``SingularMatrixError`` when
        the pencil is singular to working precision, ``LinAlgContractError``
        for a non-finite shift or right-hand side.

        A sparse parent keeps the per-shift SuperLU solve of
        ``solve_complex``.  A dense one is solved by :attr:`shifted_solver`,
        which removes the algebraic equations exactly and solves the ODE
        left over against one Schur form (:class:`phmor.linalg.SchurPencil`),
        so the singular decision is the ``ztrcon`` estimate of that ODE's
        shifted triangular factor.  The blocks a valid partition requires to
        vanish are taken as zero, and J21 = -J12^T (J31 = -J13^T for a mixed
        view)."""
        gen = self.parent.generic
        if sp.issparse(gen.E):
            return solve_complex(s * gen.E - gen.A, rhs, cond_limit=cond_limit)
        rhs = np.asarray(rhs, dtype=complex)
        F = rhs[:, None] if rhs.ndim == 1 else rhs
        if F.ndim != 2 or F.shape[0] != gen.n:
            raise LinAlgContractError(
                f"right-hand side of shape {rhs.shape} does not fit n={gen.n}")
        if not (np.isfinite(s) and np.all(np.isfinite(F))):
            raise LinAlgContractError("shift or right-hand side contains non-finite entries")
        X = self.shifted_solver.solve(np.array([s], dtype=complex), F[:, None], cond_limit)
        return X[:, 0, 0] if rhs.ndim == 1 else X[:, 0]

    def transfer_eval(self, s):
        """H(s) of the parent model (:func:`phmor.transfer.eval_transfer`
        solved through :meth:`solve_shifted`), so that a partition can be
        passed wherever the full model is evaluated."""
        from .transfer import eval_transfer

        return eval_transfer(self.parent.generic, s, solve=self.solve_shifted)

    def transfer_evals(self, points):
        """H(s_k) of the parent model at every point of a 1-D array, shape
        (K, p, m), with the condition limit of :meth:`transfer_eval`.

        A dense parent is solved at all points at once by
        :attr:`shifted_solver`; the first point, in order, at which
        :meth:`transfer_eval` would raise raises the same error.  A sparse
        parent is evaluated point by point (one SuperLU factorization
        each)."""
        from .transfer import eval_transfer, transfer_cond_limit

        gen = self.parent.generic
        points = np.asarray(points, dtype=complex).reshape(-1)
        if sp.issparse(gen.E):
            H = [eval_transfer(gen, s, solve=self.solve_shifted) for s in points]
            return np.array(H, dtype=complex).reshape(points.size, gen.p, gen.m)
        finite = np.isfinite(points)
        if not finite.all():
            k = int(np.argmin(finite))
            self.transfer_evals(points[:k])  # an earlier singular point raises first
            raise LinAlgContractError("shift or right-hand side contains non-finite entries")
        B = np.asarray(gen.B, dtype=complex)[:, None]
        X = self.shifted_solver.solve(points, B, transfer_cond_limit(points))
        return _stack_mul(gen.C, X).transpose(1, 0, 2) + gen.D


@dataclass(frozen=True)
class Index1Partition(_ShiftedSolves):
    """Semi-explicit index-1 view: E = diag(E11, 0) with E11 > 0 and
    J22 - R22 nonsingular."""

    _elimination = _Index1Elimination

    parent: PHDAESystem
    n1: int
    n2: int

    def __post_init__(self):
        n1, n2 = self.n1, self.n2
        sys = self.parent
        if n1 < 0 or n2 < 0 or n1 + n2 != sys.n:
            raise PartitionError(f"block sizes ({n1}, {n2}) do not sum to n={sys.n}")
        scale = _norm2_lower(sys.E)
        _check_zero(sys.E[:n1, n1:], "E12", scale)
        _check_zero(sys.E[n1:, :n1], "E21", scale)
        _check_zero(sys.E[n1:, n1:], "E22", scale)
        _check_spd(self.E11, "E11")
        _check_nonsingular(self.A22, "J22 - R22")

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
    def J22(self):
        return self.parent.J[self.n1:, self.n1:]

    @property
    def R11(self):
        return self.parent.R[: self.n1, : self.n1]

    @property
    def R12(self):
        return self.parent.R[: self.n1, self.n1:]

    @property
    def R22(self):
        return self.parent.R[self.n1:, self.n1:]

    @property
    def A22(self):
        return self.J22 - self.R22

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

    @property
    def b2_zero(self):
        return not (np.any(self.B2) or np.any(self.P2))

    @functools.cached_property
    def polynomial_part(self):
        """The constant polynomial part
        (:func:`phmor.transfer.polynomial_part_index1`), computed once per
        partition."""
        from . import transfer

        return transfer.polynomial_part_index1(self)


@dataclass(frozen=True)
class Index2Partition(_ShiftedSolves):
    """Semi-explicit index-2 view: E = diag(E11, 0), trailing J, R blocks
    zero, with E11 > 0 and J12^T E11^{-1} J12 nonsingular."""

    _elimination = _Index2Elimination

    parent: PHDAESystem
    n1: int
    n2: int
    b2_zero: bool = field(init=False)

    def __post_init__(self):
        n1, n2 = self.n1, self.n2
        sys = self.parent
        if n1 <= 0 or n2 < 0 or n1 + n2 != sys.n:
            raise PartitionError(f"block sizes ({n1}, {n2}) do not sum to n={sys.n}")
        scale = _norm2_lower(sys.E)
        _check_zero(sys.E[:n1, n1:], "E12", scale)
        _check_zero(sys.E[n1:, :n1], "E21", scale)
        _check_zero(sys.E[n1:, n1:], "E22", scale)
        _check_zero(sys.J[n1:, n1:], "J22", _norm2_lower(sys.J))
        scaleR = _norm2_lower(sys.R)
        _check_zero(sys.R[:n1, n1:], "R12", scaleR)
        _check_zero(sys.R[n1:, :n1], "R21", scaleR)
        _check_zero(sys.R[n1:, n1:], "R22", scaleR)
        _check_spd(self.E11, "E11")
        if n2 > 0:
            _check_nonsingular(self.coupling, "J12^T E11^{-1} J12 (coupling)")
        object.__setattr__(
            self, "b2_zero", not (np.any(self.B2) or np.any(self.P2))
        )

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
    def A11(self):
        return self.J11 - self.R11

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
    def Einv_J12(self):
        """E11^{-1} J12 (dense n1 x n2), from one factorization of E11 per
        partition: Cholesky-based for dense E11, SuperLU for sparse E11."""
        if sp.issparse(self.E11):
            return spsla.splu(sp.csc_array(self.E11)).solve(_dense(self.J12))
        return spla.solve(self.E11, self.J12, assume_a="pos")

    @functools.cached_property
    def coupling(self):
        """J12^T E11^{-1} J12 (nonsingular for a valid index-2 form)."""
        return self.J12.T @ self.Einv_J12

    @functools.cached_property
    def polynomial_part(self):
        """The polynomial part, :func:`phmor.transfer.polynomial_part_index2`
        with its large-frequency check, computed once per partition."""
        from . import transfer

        return transfer.polynomial_part_index2(self, check=True)


@dataclass(frozen=True)
class MixedPartition(_ShiftedSolves):
    """Combined index-1/index-2 view: states (x1, x2, x3) where x1 carries
    the index-2 constraint (J31 x1 = 0 with J31 square nonsingular), x2 the
    index-1 algebraic part (J22 - R22 nonsingular), and the leading 2x2
    block of E is positive definite.  B3 = P3 = 0 is required."""

    _elimination = _MixedElimination

    parent: PHDAESystem
    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        n1, n2, n3 = self.n1, self.n2, self.n3
        sys = self.parent
        if min(n1, n2, n3) < 0 or n1 + n2 + n3 != sys.n:
            raise PartitionError(f"block sizes ({n1}, {n2}, {n3}) do not sum to n={sys.n}")
        if n3 != n1:
            raise PartitionError(
                f"index-2 constraint block must be square: n3={n3} != n1={n1}"
            )
        nd = n1 + n2
        scaleE = _norm2_lower(sys.E)
        scaleJ = _norm2_lower(sys.J)
        scaleR = _norm2_lower(sys.R)
        _check_zero(sys.E[:nd, nd:], "E(:,3)", scaleE)
        _check_zero(sys.E[nd:, :], "E(3,:)", scaleE)
        _check_zero(sys.J[n1:nd, nd:], "J23", scaleJ)
        _check_zero(sys.J[nd:, n1:nd], "J32", scaleJ)
        _check_zero(sys.J[nd:, nd:], "J33", scaleJ)
        _check_zero(sys.R[:, nd:], "R(:,3)", scaleR)
        _check_zero(sys.R[nd:, :], "R(3,:)", scaleR)
        _check_zero(sys.B[nd:], "B3", _norm2_lower(sys.B))
        _check_zero(sys.P[nd:], "P3", _norm2_lower(sys.P))
        _check_spd(self.E_dyn, "leading 2x2 block of E")
        _check_nonsingular(self.A22, "J22 - R22")
        if n3 > 0:
            _check_nonsingular(self.J31, "J31")

    @property
    def E_dyn(self):
        nd = self.n1 + self.n2
        return self.parent.E[:nd, :nd]

    @property
    def A22(self):
        n1, nd = self.n1, self.n1 + self.n2
        Ablk = self.parent.J - self.parent.R
        return Ablk[n1:nd, n1:nd]

    @property
    def J31(self):
        nd = self.n1 + self.n2
        return self.parent.J[nd:, : self.n1]

    @property
    def B1(self):
        return self.parent.B[: self.n1]

    @property
    def B2(self):
        return self.parent.B[self.n1: self.n1 + self.n2]

    @property
    def P1(self):
        return self.parent.P[: self.n1]

    @property
    def P2(self):
        return self.parent.P[self.n1: self.n1 + self.n2]


def partition_index1(sys, n1):
    """Semi-explicit index-1 view with dynamic block size `n1`."""
    return Index1Partition(parent=sys, n1=n1, n2=sys.n - n1)


def partition_index2(sys, n1):
    """Semi-explicit index-2 view with dynamic block size `n1`."""
    return Index2Partition(parent=sys, n1=n1, n2=sys.n - n1)


def partition_mixed(sys, n1, n2):
    """Mixed index-1/index-2 view with constrained block `n1` and index-1
    algebraic block `n2`; the multiplier block size follows."""
    return MixedPartition(parent=sys, n1=n1, n2=n2, n3=sys.n - n1 - n2)
