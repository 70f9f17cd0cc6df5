"""Structure-preserving tangential interpolation of pHDAE systems.

Each reducer takes a partitioned system and interpolation data
(points sigma_i with tangent directions b_i, closed under conjugation)
and returns a reduced model matching H(sigma_i) b_i.  Four families:

* ``reduce_index1_shifted`` — index-1, projects the dynamic block and
  shifts the feedthrough so the reduced model matches the full model's
  constant polynomial part.  The shift can break the passivity
  structure; the result carries an explicit ``ph_valid`` flag.
* ``reduce_index1_blockdiag`` — index-1, block-diagonal congruence that
  keeps the algebraic equations; always structure-preserving, reduced
  order r + n2.
* ``reduce_index2`` — index-2 with no input in the constraint
  equations; Galerkin projection with constraint-satisfying basis
  vectors from saddle-point solves.  Always structure-preserving.
* ``reduce_index2_augmented`` — index-2 with inputs entering the
  constraints; the transfer function has a linear-in-s polynomial part,
  reproduced exactly through an augmented (u, u') feedthrough.
* ``reduce_mixed`` — combined index-1/index-2 structure, block-diagonal
  congruence reducing only the unconstrained dynamic block.

The reduced matrices of the shifted and saddle reducers are formed from
the raw (non-orthonormalized) basis so that they coincide with the
closed-form projected quantities; near-dependent basis columns are
detected by a rank-revealing QR and dropped with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .linalg import (
    LinAlgContractError,
    SingularMatrixError,
    orthonormalize,
    solve_complex,
    solve_stacked,
)
from .systems import (
    GenericLTISystem,
    PHDAESystem,
    _dense,
    symmetric_skew_split,
)
from .transfer import PolynomialPart

__all__ = [
    "InterpolationData",
    "ProjectionBasis",
    "ReducedModel",
    "build_V_generic",
    "build_V_saddle",
    "reduce_index1_shifted",
    "reduce_index1_blockdiag",
    "reduce_index2",
    "reduce_index2_augmented",
    "reduce_mixed",
    "projector_oracle_index2",
    "constraint_projectors",
]

PH_TOL = 1e-10
_CONJ_TOL = 1e-10


def _reduced_cond_limit(s):
    """The condition limit above which a reduced pencil s E - A is solved
    by least squares instead: 1e14 (1 + |s|), for a point or an array."""
    return 1e14 * (1.0 + np.abs(s))


@dataclass(frozen=True)
class InterpolationData:
    """Interpolation points and right tangent directions.

    ``points`` is a length-r complex vector, ``directions`` an r x m
    complex matrix (row i is the direction at points[i]).  The set must
    be closed under conjugation so that real bases exist: every point
    with nonzero imaginary part needs a partner at the conjugate point
    with the conjugate direction.
    """

    points: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=complex))
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=complex))
        if dirs.shape[0] != pts.size:
            raise LinAlgContractError(
                f"{pts.size} points but {dirs.shape[0]} direction rows"
            )
        if np.any(np.all(dirs == 0, axis=1)):
            raise LinAlgContractError("tangent directions must be nonzero")
        pts = pts.copy()
        dirs = dirs.copy()
        pts.setflags(write=False)
        dirs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "directions", dirs)
        self._check_conjugate_closed()

    def _check_conjugate_closed(self):
        pts, dirs = self.points, self.directions
        scale = 1.0 + np.abs(pts).max()
        matched = np.zeros(pts.size, dtype=bool)
        for i, s in enumerate(pts):
            if matched[i] or abs(s.imag) <= _CONJ_TOL * scale:
                continue
            found = False
            for j in range(pts.size):
                if j == i or matched[j]:
                    continue
                if (abs(pts[j] - s.conjugate()) <= _CONJ_TOL * scale
                        and np.allclose(dirs[j], dirs[i].conjugate(),
                                        atol=_CONJ_TOL, rtol=_CONJ_TOL)):
                    matched[i] = matched[j] = True
                    found = True
                    break
            if not found:
                raise LinAlgContractError(
                    f"interpolation set not closed under conjugation at point {s}"
                )

    @property
    def r(self):
        return self.points.size

    @property
    def m(self):
        return self.directions.shape[1]

    @classmethod
    def log_spaced(cls, r, m, lo=1e-2, hi=1e4):
        """r real positive points log-spaced in [lo, hi], all-ones directions."""
        pts = np.logspace(np.log10(lo), np.log10(hi), r).astype(complex)
        return cls(points=pts, directions=np.ones((r, m), dtype=complex))


@dataclass(frozen=True)
class ProjectionBasis:
    """Real projection basis with consistently transformed directions.

    ``V`` is n x r' real; ``directions`` is m x r', column k being the
    tangent direction expressed in the same (realified) coordinates as
    column k of V, so that shift formulas B^T (...) B remain valid after
    realification.
    """

    V: np.ndarray
    directions: np.ndarray
    points: np.ndarray

    @property
    def r(self):
        return self.V.shape[1]


def _conjugate_pairs(points):
    """The points a real basis is built from, in order, as (index, is_real).

    A real point (|Im| <= _CONJ_TOL * (1 + max |point|)) stands alone; a
    complex point is kept and its conjugate partner, the first unused point
    within the same tolerance of its conjugate, is skipped.  For a real
    model the partner's solution is the conjugate of the kept one, so it
    adds nothing to the real span and is never solved for.
    """
    scale = 1.0 + np.abs(points).max()
    used = np.zeros(len(points), dtype=bool)
    kept = []
    for i, s in enumerate(points):
        if used[i]:
            continue
        used[i] = True
        is_real = abs(s.imag) <= _CONJ_TOL * scale
        if not is_real:
            for j in range(len(points)):
                if not used[j] and abs(points[j] - s.conjugate()) <= _CONJ_TOL * scale:
                    used[j] = True
                    break
        kept.append((i, is_real))
    return kept


def _realify(cols, dirs, kept):
    """Turn complex solution columns into a real basis.

    ``cols[:, k]`` is the solution at point ``kept[k]`` of
    :func:`_conjugate_pairs`.  A real point contributes Re(v); a conjugate
    pair contributes (Re v, Im v), with the direction columns transformed
    identically so direction-dependent shift formulas stay exact.
    """
    Vcols, Bcols = [], []
    for v, (i, is_real) in zip(cols.T, kept):
        if is_real:
            Vcols.append(v.real)
            Bcols.append(dirs[i].real)
        else:
            Vcols.extend([v.real, v.imag])
            Bcols.extend([dirs[i].real, dirs[i].imag])
    return np.column_stack(Vcols), np.column_stack(Bcols)


def _rank_filter(V, Bd):
    """Drop near-dependent basis columns (rank-revealing QR, tol 1e-12).

    Columns are normalized for the rank decision only (their norms can
    span many orders of magnitude over wide point ranges); the returned
    basis keeps the original, unscaled columns.
    """
    norms = np.linalg.norm(V, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    _, Rq, piv = spla.qr(V / norms, mode="economic", pivoting=True)
    d = np.abs(np.diag(Rq))
    rank = int(np.sum(d > 1e-12 * d[0])) if d.size and d[0] > 0 else 0
    if rank < V.shape[1]:
        warnings.warn(
            f"near-duplicate interpolation points: basis rank {rank} < "
            f"{V.shape[1]} columns; dependent columns dropped",
            RuntimeWarning,
        )
        keep = np.sort(piv[:rank])
        V, Bd = V[:, keep], Bd[:, keep]
    return V, Bd


def _shifted_solve(model):
    """(generic realization, solve(s, rhs)) of the full model: a partition
    solves through its :meth:`~phmor.systems.Index2Partition.solve_shifted`,
    a bare system by one LU of s E - A per point."""
    if hasattr(model, "solve_shifted"):
        return model.parent.generic, model.solve_shifted
    gen = model.generic if isinstance(model, PHDAESystem) else model
    return gen, lambda s, rhs: solve_complex(s * gen.E - gen.A, rhs)


def build_V_generic(model, data):
    """Tangential Krylov basis of (sigma_i E - A)^{-1} (B - P) b_i.

    ``model`` is a partition view (the reducers pass one, so that its
    factored elimination solver serves every point), a PHDAESystem or a
    GenericLTISystem; the returned basis is realified (conjugate pairs
    merged into real/imaginary columns) and rank-filtered, with no further
    orthonormalization so that projected matrices match the closed-form
    expressions.  The model's
    matrices are real, so the solution at conj(sigma) is the conjugate of
    the one at sigma: one solve is made per conjugate pair.
    """
    gen, solve = _shifted_solve(model)
    kept = _conjugate_pairs(data.points)
    cols = np.empty((gen.n, len(kept)), dtype=complex)
    for k, (i, _) in enumerate(kept):
        s, b = data.points[i], data.directions[i]
        cols[:, k] = solve(s, gen.B @ b)
    V, Bd = _realify(cols, data.directions, kept)
    V, Bd = _rank_filter(V, Bd)
    return ProjectionBasis(V=V, directions=Bd, points=data.points)


def build_V_saddle(part, data):
    """Constraint-compatible basis for index-2 systems via saddle solves.

    Solves, for each interpolation point, the saddle-point system

        [ A11 - sigma E11   J12 ] [v]   [ (B1 - P1) b ]
        [      -J12^T        0  ] [z] = [ (B2 - P2) b ]

    whose matrix is exactly -(sigma E - A) on a valid index-2 partition,
    so it is solved with the partition's full-model solver
    (:meth:`~phmor.systems.Index2Partition.solve_shifted`) and
    v = -x[:n1].  When the constraint equations carry inputs, v is then
    projected back onto ker(J12^T) along the energy inner product, so that
    J12^T V = 0 holds for the returned basis.  As in
    :func:`build_V_generic`, the matrices are real and only one member of
    each conjugate pair is solved for.
    """
    n1 = part.n1
    gen = part.parent.generic
    kept = _conjugate_pairs(data.points)
    cols = np.empty((n1, len(kept)), dtype=complex)
    for k, (i, _) in enumerate(kept):
        s, b = data.points[i], data.directions[i]
        rhs = gen.B @ b
        v = -part.solve_shifted(s, rhs)[:n1]
        if not part.b2_zero:
            v = v + part.Einv_J12 @ np.linalg.solve(part.coupling, rhs[n1:])
        cols[:, k] = v
    V, Bd = _realify(cols, data.directions, kept)
    V, Bd = _rank_filter(V, Bd)
    return ProjectionBasis(V=V, directions=Bd, points=data.points)


@dataclass(frozen=True)
class ReducedModel:
    """Reduced pHDAE model with structure metadata.

    ``system`` holds the reduced matrices in pH form (which may fail the
    passivity inequality when ``ph_valid`` is False).  ``polynomial`` is
    the reduced model's polynomial part; when ``augmented_input`` is
    True its linear coefficient multiplies the input derivative and the
    transfer function is C (sE - A)^{-1} B + P0 + s P1.
    """

    system: PHDAESystem
    method: str
    ph_valid: bool
    w_min_eig: float
    polynomial: PolynomialPart
    augmented_input: bool = False
    interpolation: InterpolationData | None = None

    @property
    def order(self):
        return self.system.n

    @property
    def generic(self):
        return self.system.generic

    @cached_property
    def _balanced(self):
        """The balanced (E, A, B, C) that :meth:`transfer_eval` solves
        with; B is stored complex, the solve's right-hand side type."""
        from .transfer import balance_realization

        gen = self.generic
        E, A, B, C = balance_realization(gen.E, gen.A, gen.B, gen.C)
        return E, A, B.astype(complex), C

    def transfer_eval(self, s):
        gen = self.generic
        E, A, B, C = self._balanced
        # Reduced pencils from raw (unorthonormalized) bases can be very
        # ill-conditioned while the transfer values stay accurate: the
        # near-singular directions typically do not couple to the input
        # and output maps.  Fall back to the minimum-norm solution when
        # the guarded solve rejects the pencil.
        pencil = s * E - A
        try:
            X = solve_complex(pencil, B, cond_limit=_reduced_cond_limit(s))
        except SingularMatrixError:
            X = np.linalg.lstsq(pencil, B, rcond=None)[0]
        H = C @ X
        H = H + gen.D
        if self.augmented_input:
            H = H + s * self.polynomial.P1
        return H

    def transfer_evals(self, points):
        """:meth:`transfer_eval` at every point of a 1-D array, shape
        (K, p, m), from one stacked solve of the pencils s_k E - A
        (:func:`~phmor.linalg.solve_stacked`).  A pencil is rejected by the
        same rule, its ``zgecon`` estimate against the same limit, and a
        rejected point gets the same least-squares solve."""
        gen = self.generic
        E, A, B, C = self._balanced
        s = np.asarray(points, dtype=complex).reshape(-1)
        pencils = s[:, None, None] * E - A
        X, cond = solve_stacked(pencils, B)
        rejected = ~(cond <= _reduced_cond_limit(s)) | ~np.isfinite(X).all(axis=(1, 2))
        for k in np.flatnonzero(rejected):
            X[k] = np.linalg.lstsq(pencils[k], B, rcond=None)[0]
        H = C @ X
        H = H + gen.D
        if self.augmented_input:
            H = H + s[:, None, None] * self.polynomial.P1
        return H


def _ph_from_generic(Er, Ar, Br, Cr, Dr):
    """Split projected generic matrices into pH form and test passivity."""
    sym_A, Jr = symmetric_skew_split(Ar)
    Rr = -sym_A  # A = J - R
    Bph = 0.5 * (Br + Cr.T)
    Pph = 0.5 * (Cr.T - Br)
    Sr, Nr = symmetric_skew_split(Dr)
    Esym = 0.5 * (Er + Er.T)
    sys_r = PHDAESystem(E=Esym, J=Jr, R=Rr, B=Bph, P=Pph, S=Sr, N=Nr)
    W = sys_r.passivity_matrix
    w_min = float(spla.eigh(W, eigvals_only=True, subset_by_index=[0, 0])[0]) if W.size else 0.0
    return sys_r, w_min


def reduce_index1_shifted(part, data):
    """Interpolatory reduction of an index-1 system with a feedthrough
    shift that matches the full model's constant polynomial part.

    With Delta = P0 - D (the algebraic contribution to the feedthrough)
    and direction matrix Bd paired with the basis columns, the reduced
    matrices are::

        Er = V^T E V
        Ar = V^T (J - R) V + Bd^T Delta Bd
        Br = V^T (B - P) - Bd^T Delta
        Cr = (B + P)^T V - Delta Bd
        Dr = D + Delta

    The shift preserves interpolation and the polynomial part but can
    make the passivity matrix indefinite; the returned model reports
    this through ``ph_valid`` / ``w_min_eig``.
    """
    sys = part.parent
    basis = build_V_generic(part, data)
    V, Bd = basis.V, basis.directions
    poly = part.polynomial_part
    D = sys.S + sys.N
    Delta = poly.P0 - D
    Bin = sys.B - sys.P
    Cout = (sys.B + sys.P).T
    Er = V.T @ sys.E @ V
    Ar = V.T @ (sys.J - sys.R) @ V + Bd.T @ Delta @ Bd
    Br = V.T @ Bin - Bd.T @ Delta
    Cr = Cout @ V - Delta @ Bd
    Dr = D + Delta
    sys_r, w_min = _ph_from_generic(Er, Ar, Br, Cr, Dr)
    return ReducedModel(
        system=sys_r,
        method="index1-shifted",
        ph_valid=w_min >= -PH_TOL,
        w_min_eig=w_min,
        polynomial=poly,
        interpolation=data,
    )


def reduce_index1_blockdiag(part, data):
    """Structure-preserving index-1 reduction keeping the algebraic block.

    Projects only the dynamic block with the (orthonormalized) top rows
    of the interpolation basis and carries the algebraic equations over
    unchanged: a congruence with diag(V1, I), so the result is always a
    valid pHDAE of order r + n2.
    """
    sys = part.parent
    n1 = part.n1
    basis = build_V_generic(part, data)
    V1 = orthonormalize(basis.V[:n1])
    if V1.shape[1] < basis.r:
        warnings.warn(
            f"dynamic-block basis rank-deficient: dropped "
            f"{basis.r - V1.shape[1]} columns",
            RuntimeWarning,
        )
    r1 = V1.shape[1]
    Vhat = np.zeros((sys.n, r1 + part.n2))
    Vhat[:n1, :r1] = V1
    Vhat[n1:, r1:] = np.eye(part.n2)
    sys_r = _congruence(sys, Vhat)
    W = sys_r.passivity_matrix
    w_min = float(spla.eigh(W, eigvals_only=True, subset_by_index=[0, 0])[0]) if W.size else 0.0
    return ReducedModel(
        system=sys_r,
        method="index1-blockdiag",
        ph_valid=w_min >= -PH_TOL,
        w_min_eig=w_min,
        polynomial=part.polynomial_part,
        interpolation=data,
    )


def _congruence(sys, V):
    """V^T (.) V congruence of all system matrices; preserves pH structure."""
    return PHDAESystem(
        E=V.T @ sys.E @ V,
        J=V.T @ sys.J @ V,
        R=V.T @ sys.R @ V,
        B=V.T @ sys.B,
        P=V.T @ sys.P,
        S=sys.S,
        N=sys.N,
    )


def reduce_index2(part, data):
    """Galerkin reduction of an index-2 system without constraint inputs.

    Requires B2 = P2 = 0.  The saddle-point basis satisfies J12^T V = 0,
    so projecting the dynamic block alone reproduces the behavior on the
    constraint manifold; the result is always a valid pHDAE (an ODE of
    order r) with the same constant polynomial part D.
    """
    if not part.b2_zero:
        raise LinAlgContractError(
            "constraint equations carry inputs; use reduce_index2_augmented"
        )
    basis = build_V_saddle(part, data)
    V = basis.V
    sys = part.parent
    n1 = part.n1
    Er = V.T @ part.E11 @ V
    Jr = V.T @ part.J11 @ V
    Rr = V.T @ part.R11 @ V
    sys_r = PHDAESystem(
        E=0.5 * (Er + Er.T),
        J=0.5 * (Jr - Jr.T),
        R=0.5 * (Rr + Rr.T),
        B=V.T @ part.B1,
        P=V.T @ part.P1,
        S=sys.S,
        N=sys.N,
    )
    W = sys_r.passivity_matrix
    w_min = float(spla.eigh(W, eigvals_only=True, subset_by_index=[0, 0])[0]) if W.size else 0.0
    return ReducedModel(
        system=sys_r,
        method="index2-galerkin",
        ph_valid=w_min >= -PH_TOL,
        w_min_eig=w_min,
        polynomial=PolynomialPart.constant(sys.S + sys.N),
        interpolation=data,
    )


def reduce_index2_augmented(part, data):
    """Interpolatory reduction of an index-2 system with constraint inputs.

    Eliminating the constraints turns the system into an ODE on
    ker(J12^T) driven by (u, u'): with Z = (J12^T E11^{-1} J12)^{-1},

        E11 xbar' = Pi (J11 - R11) xbar + Pi Beff u,  J12^T xbar = 0
        y = Ceff xbar + P0 u + P1 u'

    where Beff = (B1 - P1) + (J11 - R11) E11^{-1} J12 Z (B2 - P2) and
    Ceff = (B1 + P1)^T - (B2 + P2)^T Z J12^T E11^{-1} (J11 - R11).
    Galerkin projection with the constraint-compatible saddle basis
    yields a reduced model whose transfer function
    C (sE - A)^{-1} B + P0 + s P1 matches the full model tangentially
    and reproduces the polynomial part exactly.  Passivity of the
    reduced (u, u') realization is tested and reported via ``ph_valid``.
    """
    if part.b2_zero:
        return reduce_index2(part, data)
    basis = build_V_saddle(part, data)
    V = basis.V
    poly = part.polynomial_part
    A11 = part.A11
    Bi1, Bi2 = part.B1 - part.P1, part.B2 - part.P2
    Ci1, Ci2 = (part.B1 + part.P1).T, (part.B2 + part.P2).T
    Einv_J12, M = part.Einv_J12, part.coupling
    Beff = Bi1 + A11 @ (Einv_J12 @ np.linalg.solve(M, Bi2))
    Ceff = Ci1 - np.linalg.solve(M.T, Ci2.T).T @ (Einv_J12.T @ A11)
    Er = V.T @ part.E11 @ V
    Ar = V.T @ A11 @ V
    Br = V.T @ Beff
    Cr = Ceff @ V
    sys_r, w_min = _ph_from_generic(Er, Ar, Br, Cr, poly.P0)
    return ReducedModel(
        system=sys_r,
        method="index2-augmented",
        ph_valid=w_min >= -PH_TOL,
        w_min_eig=w_min,
        polynomial=poly,
        augmented_input=True,
        interpolation=data,
    )


def reduce_mixed(part, data):
    """Reduction of a combined index-1/index-2 system.

    The constrained states x1 (pinned to zero by the nonsingular
    constraint matrix) and the multipliers x3 are kept; only the
    unconstrained dynamic block x2 is reduced with the middle rows of
    the interpolation basis: a congruence with diag(I, V2, I), which
    always preserves the pH structure and the polynomial part.
    """
    sys = part.parent
    n1, n2 = part.n1, part.n2
    basis = build_V_generic(part, data)
    V2 = orthonormalize(basis.V[n1:n1 + n2])
    if V2.shape[1] < basis.r:
        warnings.warn(
            f"dynamic-block basis rank-deficient: dropped "
            f"{basis.r - V2.shape[1]} columns",
            RuntimeWarning,
        )
    r2 = V2.shape[1]
    Vhat = np.zeros((sys.n, n1 + r2 + part.n3))
    Vhat[:n1, :n1] = np.eye(n1)
    Vhat[n1:n1 + n2, n1:n1 + r2] = V2
    Vhat[n1 + n2:, n1 + r2:] = np.eye(part.n3)
    sys_r = _congruence(sys, Vhat)
    W = sys_r.passivity_matrix
    w_min = float(spla.eigh(W, eigvals_only=True, subset_by_index=[0, 0])[0]) if W.size else 0.0
    return ReducedModel(
        system=sys_r,
        method="mixed-blockdiag",
        ph_valid=w_min >= -PH_TOL,
        w_min_eig=w_min,
        polynomial=PolynomialPart.constant(sys.S + sys.N),
        interpolation=data,
    )


def constraint_projectors(part):
    """Oblique projectors eliminating the index-2 constraints.

    Returns (pi_l, pi_r) with pi_l = I - E11^{-1} J12 Z J12^T and
    pi_r = I - J12 Z J12^T E11^{-1}, Z = (J12^T E11^{-1} J12)^{-1}.
    They satisfy pi_r E11 pi_l^T = E11 pi_l (the projected energy matrix
    stays symmetric) and pi_l maps onto ker(J12^T)-compatible states.
    """
    X = part.Einv_J12 @ np.linalg.solve(part.coupling, _dense(part.J12).T)
    n1 = part.n1
    pi_l = np.eye(n1) - X
    pi_r = np.eye(n1) - X.T
    return pi_l, pi_r


def projector_oracle_index2(part):
    """Explicit ODE realization of an index-2 system with B2 = P2 = 0.

    Restricts the dynamics to an orthonormal basis Phi of ker(J12^T):
    (Phi^T E11 Phi, Phi^T (J11 - R11) Phi, Phi^T (B1 - P1),
    (B1 + P1)^T Phi, D).  Its transfer function equals that of the
    original differential-algebraic system exactly, which makes it an
    independent reference for the saddle-point reducer.
    """
    if not part.b2_zero:
        raise LinAlgContractError("oracle requires B2 = P2 = 0")
    Phi = spla.null_space(_dense(part.J12).T)
    E11, A11 = _dense(part.E11), _dense(part.A11)
    D = part.parent.S + part.parent.N
    return GenericLTISystem(
        E=Phi.T @ E11 @ Phi,
        A=Phi.T @ A11 @ Phi,
        B=Phi.T @ (part.B1 - part.P1),
        C=(part.B1 + part.P1).T @ Phi,
        D=D,
    )
