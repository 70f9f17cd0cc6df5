"""Structure-preserving tangential interpolation of pHDAE systems.

Each reducer takes a partitioned system and interpolation data
(points sigma_i with tangent directions b_i, closed under conjugation)
and returns a reduced model matching H(sigma_i) b_i.  Every reducer
projects the pH matrices by one congruence,
:func:`~phmor.systems.congruence` (sym(T^T E T), skew(T^T J T),
sym(T^T R T), T^T B, T^T P), which keeps the pH structure:

* ``reduce_index1_shifted`` — index-1, the congruence with the
  interpolation basis plus a feedthrough shift that matches the full
  model's constant polynomial part.  The shift can break the passivity
  structure; the result carries an explicit ``ph_valid`` flag.
* ``reduce_index1_blockdiag`` — index-1, block-diagonal congruence that
  keeps the algebraic equations; always structure-preserving, reduced
  order r + n2.
* ``reduce_index2_augmented`` — index-2, the congruence of the x1 blocks
  with a constraint-satisfying basis from saddle-point solves, the
  constraint lifts folded into the port terms.  With inputs entering the
  constraints the transfer function has a linear-in-s polynomial part,
  reproduced exactly through an augmented (u, u') feedthrough; without
  them the lifts vanish and the model is a valid pHDAE.
  ``reduce_index2`` is the same reducer restricted to the latter case.
* ``reduce_mixed`` — combined index-1/index-2 structure, block-diagonal
  congruence reducing only the unconstrained dynamic block.

:data:`REDUCERS` maps each reducer's name to its function, and
:func:`default_method` names the one that runs when none is asked for.

The shifted and saddle reducers project with the raw (non-orthonormalized)
basis so that the reduced matrices coincide with the closed-form projected
quantities; near-dependent basis columns are detected by a rank-revealing
QR and dropped with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .linalg import LinAlgContractError, orthonormalize, qr_rank, solve_stacked
from .systems import (
    Index1Partition,
    Index2Partition,
    MixedPartition,
    PHDAESystem,
    congruence,
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
    "REDUCERS",
    "default_method",
]

PH_TOL = 1e-10
_CONJ_TOL = 1e-10


@dataclass(frozen=True)
class InterpolationData:
    """Interpolation points and right tangent directions.

    ``points`` is a length-r complex vector, ``directions`` an r x m
    complex matrix (row i is the direction at points[i]).  The set must
    be finite and closed under conjugation so that real bases exist:
    every point with nonzero imaginary part needs a partner at the
    conjugate point with the conjugate direction.  ``pairs`` holds the
    points a real basis is built from, the :func:`_conjugate_pairs` of the
    set, found once here.
    """

    points: np.ndarray
    directions: np.ndarray
    pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=complex))
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=complex))
        if pts.size == 0:
            raise LinAlgContractError("interpolation set is empty: need at least one point")
        if dirs.shape[0] != pts.size:
            raise LinAlgContractError(
                f"{pts.size} points but {dirs.shape[0]} direction rows"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(dirs))):
            raise LinAlgContractError("interpolation points and directions must be finite")
        if np.any(np.all(dirs == 0, axis=1)):
            raise LinAlgContractError("tangent directions must be nonzero")
        pts = pts.copy()
        dirs = dirs.copy()
        pts.setflags(write=False)
        dirs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "directions", dirs)
        # raises unless closed under conjugation
        object.__setattr__(self, "pairs", tuple(_conjugate_pairs(pts, dirs)))

    @property
    def r(self):
        return self.points.size

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

    @property
    def r(self):
        return self.V.shape[1]


def _conjugate_pairs(points, directions):
    """The points a real basis is built from, in order, as (index, is_real).

    A real point (|Im| <= _CONJ_TOL * (1 + max |point|)) stands alone.  A
    complex point is kept, and its partner is skipped: the first unused
    point within the same tolerance of its conjugate whose direction is the
    conjugate direction (entrywise to within _CONJ_TOL, absolute and
    relative, the test of :func:`numpy.allclose`).  For a real model the
    partner's solution is the conjugate of the kept one, so it adds nothing
    to the real span and is never solved for.  A complex point without a
    partner raises ``LinAlgContractError``: the set is not closed under
    conjugation.  Every point's possible partners are found at once, from
    one distance matrix (``np.hypot``, which is Python's ``abs`` of a
    complex number bit for bit) and one direction comparison.
    """
    tol = _CONJ_TOL * (1.0 + np.abs(points).max())
    is_real = np.abs(points.imag) <= tol
    gap = points[None, :] - points.conj()[:, None]  # [i, j]: points[j] - conj(points[i])
    # np.allclose(directions[j], directions[i].conj()), for finite values
    wanted = directions.conj()[:, None, :]
    partner = (np.hypot(gap.real, gap.imag) <= tol) & (
        np.abs(directions[None, :, :] - wanted) <= _CONJ_TOL + _CONJ_TOL * np.abs(wanted)
    ).all(axis=2)
    used = np.zeros(len(points), dtype=bool)
    kept = []
    for i in range(len(points)):
        if used[i]:
            continue
        used[i] = True
        if not is_real[i]:
            free = np.flatnonzero(partner[i] & ~used)
            if not free.size:
                raise LinAlgContractError(
                    f"interpolation set not closed under conjugation at point {points[i]}")
            used[free[0]] = True
        kept.append((i, is_real[i]))
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
    """Drop near-dependent basis columns (:func:`~phmor.linalg.qr_rank`).

    Columns are normalized for the rank decision only (their norms can
    span many orders of magnitude over wide point ranges); the returned
    basis keeps the original, unscaled columns.
    """
    norms = np.linalg.norm(V, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    _, rank, piv = qr_rank(V / norms)
    if rank < V.shape[1]:
        warnings.warn(
            f"near-duplicate interpolation points: basis rank {rank} < "
            f"{V.shape[1]} columns; dependent columns dropped",
            RuntimeWarning,
        )
        keep = np.sort(piv[:rank])
        V, Bd = V[:, keep], Bd[:, keep]
    return V, Bd


def _basis(data, column):
    """Realified, rank-filtered basis whose column at each point kept by
    :func:`_conjugate_pairs` (``data.pairs``) is ``column(sigma, b)``."""
    cols = np.column_stack([column(data.points[i], data.directions[i]) for i, _ in data.pairs])
    V, Bd = _rank_filter(*_realify(cols, data.directions, data.pairs))
    return ProjectionBasis(V=V, directions=Bd)


def build_V_generic(model, data):
    """Tangential Krylov basis of (sigma_i E - A)^{-1} (B - P) b_i.

    ``model`` is a full model, solved by its ``solve_shifted``: a partition
    view (the reducers pass one, so that its factored elimination solver
    serves every point), a PHDAESystem or a GenericLTISystem.  The returned
    basis is realified (conjugate pairs merged into real/imaginary columns)
    and rank-filtered, with no further orthonormalization so that projected
    matrices match the closed-form expressions.  The model's matrices are
    real, so the solution at conj(sigma) is the conjugate of the one at
    sigma: one solve is made per conjugate pair.
    """
    B = model.generic.B
    return _basis(data, lambda s, b: model.solve_shifted(s, B @ b))


def build_V_saddle(part, data):
    """Constraint-compatible basis for index-2 systems via saddle solves.

    Solves, for each interpolation point, the saddle-point system

        [ A11 - sigma E11   J12 ] [v]   [ (B1 - P1) b ]
        [      -J12^T        0  ] [z] = [ (B2 - P2) b ]

    whose matrix is exactly -(sigma E - A) on a valid index-2 partition,
    so it is solved with the partition's full-model solver
    (:meth:`~phmor.systems.Index2Partition.solve_shifted`) and
    v = -x[:n1].  When the constraint equations carry inputs, v is then
    projected back onto ker(J12^T) along the energy inner product by adding
    G b, G the partition's input lift E11^{-1} J12 M^{-1} (B2 - P2), so
    that J12^T V = 0 holds for the returned basis.  As in
    :func:`build_V_generic`, the matrices are real and only one member of
    each conjugate pair is solved for.
    """
    n1 = part.n1
    B = part.generic.B

    def column(s, b):
        v = -part.solve_shifted(s, B @ b)[:n1]
        if not part.b2_zero:
            v = v + part.input_lift @ b
        return v

    return _basis(data, column)


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

    @property
    def order(self):
        return self.system.n

    @property
    def generic(self):
        return self.system.generic

    @cached_property
    def _balanced(self):
        """The balanced (E, A, B, C) that :meth:`transfer_evals` solves
        with; B is stored complex, the solve's right-hand side type."""
        from .transfer import balance_realization

        gen = self.generic
        E, A, B, C = balance_realization(gen.E, gen.A, gen.B, gen.C)
        return E, A, B.astype(complex), C

    def transfer_eval(self, s):
        """H(s) at one point: :meth:`transfer_evals` of a one-point array."""
        return self.transfer_evals(s)[0]

    def transfer_evals(self, points):
        """H(s_k) at every point of a 1-D array, shape (K, p, m), from one
        stacked solve of the pencils s_k E - A
        (:func:`~phmor.linalg.solve_stacked`).

        Reduced pencils from raw (unorthonormalized) bases can be very
        ill-conditioned while the transfer values stay accurate: the
        near-singular directions typically do not couple to the input and
        output maps.  A pencil whose ``zgecon`` estimate exceeds
        1e14 (1 + |s|), or that has an exactly zero pivot, is solved in the
        minimum-norm least-squares sense instead."""
        gen = self.generic
        E, A, B, C = self._balanced
        s = np.asarray(points, dtype=complex).reshape(-1)
        pencils = s[:, None, None] * E - A
        X, cond = solve_stacked(pencils, B)
        rejected = ~(cond <= 1e14 * (1.0 + np.abs(s))) | ~np.isfinite(X).all(axis=(1, 2))
        for k in np.flatnonzero(rejected):
            X[k] = np.linalg.lstsq(pencils[k], B, rcond=None)[0]
        H = C @ X + gen.D
        if self.augmented_input:
            H = H + s[:, None, None] * self.polynomial.P1
        return H


def _finish(sys_r, method, poly, augmented_input=False):
    """The :class:`ReducedModel` of the reduced pH system ``sys_r``, with
    its passivity test: ``ph_valid`` when the smallest eigenvalue of the
    passivity matrix is at least -PH_TOL."""
    W = sys_r.passivity_matrix
    w_min = float(spla.eigh(W, eigvals_only=True, subset_by_index=[0, 0])[0]) if W.size else 0.0
    return ReducedModel(
        system=sys_r,
        method=method,
        ph_valid=w_min >= -PH_TOL,
        w_min_eig=w_min,
        polynomial=poly,
        augmented_input=augmented_input,
    )


def _block_congruence(sys, basis, lo, hi):
    """:func:`~phmor.systems.congruence` with diag(I, V, I), which reduces
    only the states lo:hi.  V is an orthonormal basis of those rows of the
    interpolation basis; columns lost to rank deficiency are dropped with a
    warning."""
    V = orthonormalize(basis.V[lo:hi])
    if V.shape[1] < basis.r:
        warnings.warn(
            f"dynamic-block basis rank-deficient: dropped "
            f"{basis.r - V.shape[1]} columns",
            RuntimeWarning,
        )
    r = V.shape[1]
    T = np.zeros((sys.n, sys.n - (hi - lo) + r))
    T[:lo, :lo] = np.eye(lo)
    T[lo:hi, lo:lo + r] = V
    T[hi:, lo + r:] = np.eye(sys.n - hi)
    return congruence(T, sys.E, sys.J, sys.R, sys.B, sys.P, sys.S, sys.N)


def reduce_index1_shifted(part, data):
    """Interpolatory reduction of an index-1 system with a feedthrough
    shift that matches the full model's constant polynomial part.

    The congruence with the basis V is shifted by Delta = P0 - D (the
    algebraic contribution to the feedthrough), with the direction matrix
    Bd paired with the basis columns: K = Bd^T Delta Bd adds skew(K) to J
    and -sym(K) to R, -Bd^T sym(Delta) to B, Bd^T skew(Delta) to P, and
    sym(Delta), skew(Delta) to S, N.  That is the generic projection
    (V^T E V, V^T A V + K, V^T (B - P) - Bd^T Delta,
    (B + P)^T V - Delta Bd, P0) in pH form.

    The shift preserves interpolation and the polynomial part but can
    make the passivity matrix indefinite; the returned model reports
    this through ``ph_valid`` / ``w_min_eig``.  With B2 = P2 = 0 the shift
    is exactly zero and the reduction is a plain congruence.
    """
    sys = part.parent
    basis = build_V_generic(part, data)
    Bd = basis.directions
    poly = part.polynomial_part
    proj = congruence(basis.V, sys.E, sys.J, sys.R, sys.B, sys.P, sys.S, sys.N)
    Delta = poly.P0 - (sys.S + sys.N)
    sym_d, skew_d = symmetric_skew_split(Delta)
    sym_k, skew_k = symmetric_skew_split(Bd.T @ Delta @ Bd)
    sys_r = PHDAESystem(E=proj.E, J=proj.J + skew_k, R=proj.R - sym_k,
                        B=proj.B - Bd.T @ sym_d, P=proj.P + Bd.T @ skew_d,
                        S=sys.S + sym_d, N=sys.N + skew_d)
    return _finish(sys_r, "index1-shifted", poly)


def reduce_index1_blockdiag(part, data):
    """Structure-preserving index-1 reduction keeping the algebraic block.

    Projects only the dynamic block with the (orthonormalized) top rows
    of the interpolation basis and carries the algebraic equations over
    unchanged: a congruence with diag(V1, I), so the result is always a
    valid pHDAE of order r + n2.
    """
    sys_r = _block_congruence(part.parent, build_V_generic(part, data), 0, part.n1)
    return _finish(sys_r, "index1-blockdiag", part.polynomial_part)


def reduce_index2(part, data):
    """:func:`reduce_index2_augmented` of an index-2 system without
    constraint inputs (B2 = P2 = 0), which it requires: a Galerkin
    projection of the x1 blocks, always a valid pHDAE (an ODE of order r)
    with the same constant polynomial part D."""
    if not part.b2_zero:
        raise LinAlgContractError(
            "constraint equations carry inputs; use reduce_index2_augmented"
        )
    return reduce_index2_augmented(part, data)


def reduce_index2_augmented(part, data):
    """Galerkin reduction of an index-2 system, with or without inputs in
    the constraint equations.

    The saddle basis V satisfies J12^T V = 0, so the constraints reduce to
    the x1 blocks (E11, J11, R11), projected by V, with the constraint
    lifts folded into the port terms.  With the partition's lifts G and H,
    A11 = J11 - R11 and D = S + N::

        B1~ = B1 + (A11 G - A11^T H) / 2,   P1~ = P1 - (A11 G + A11^T H) / 2
        S~ = S + sym(P0 - D),               N~ = N + skew(P0 - D)

    The reduced transfer function C (sE - A)^{-1} B + P0 + s P1 matches
    the full model tangentially and reproduces the polynomial part.  With
    B2 = P2 = 0 the lifts and P0 - D are zero, and the model is
    ``index2-galerkin``, a valid pHDAE; otherwise it is
    ``index2-augmented``, with an augmented (u, u') input, and its
    passivity is tested and reported via ``ph_valid``.
    """
    V = build_V_saddle(part, data).V
    poly = part.polynomial_part
    sys, A11 = part.parent, part.A11
    AG, AtH = A11 @ part.input_lift, A11.T @ part.output_lift
    sym_d, skew_d = symmetric_skew_split(poly.P0 - (sys.S + sys.N))
    sys_r = congruence(V, part.E11, part.J11, part.R11,
                       part.B1 + 0.5 * (AG - AtH), part.P1 - 0.5 * (AG + AtH),
                       sys.S + sym_d, sys.N + skew_d)
    method = "index2-galerkin" if part.b2_zero else "index2-augmented"
    return _finish(sys_r, method, poly, augmented_input=not part.b2_zero)


def reduce_mixed(part, data):
    """Reduction of a combined index-1/index-2 system.

    The constrained states x1 (pinned to zero by the nonsingular
    constraint matrix) and the multipliers x3 are kept; only the
    unconstrained dynamic block x2 is reduced with the middle rows of
    the interpolation basis: a congruence with diag(I, V2, I), which
    always preserves the pH structure and the polynomial part.
    """
    sys_r = _block_congruence(part.parent, build_V_generic(part, data),
                              part.n1, part.n1 + part.n2)
    return _finish(sys_r, "mixed-blockdiag", part.polynomial_part)


#: Reducer name -> reducer; the name is the ``method`` of the models it
#: returns.  The values are the functions themselves, so that a wrapper
#: rebinding a module's functions also rebinds them here.
REDUCERS = {
    "index1-shifted": reduce_index1_shifted,
    "index1-blockdiag": reduce_index1_blockdiag,
    "index2-galerkin": reduce_index2,
    "index2-augmented": reduce_index2_augmented,
    "mixed-blockdiag": reduce_mixed,
}


def default_method(part):
    """Name of the :data:`REDUCERS` entry that runs on ``part`` when no
    reducer is named: ``index1-shifted`` for index 1, which matches the
    polynomial part at order r; for index 2 ``index2-augmented`` when the
    constraints carry inputs, else ``index2-galerkin``; ``mixed-blockdiag``
    for a mixed view.  Any other object raises ``LinAlgContractError``."""
    if isinstance(part, Index1Partition):
        return "index1-shifted"
    if isinstance(part, Index2Partition):
        return "index2-galerkin" if part.b2_zero else "index2-augmented"
    if isinstance(part, MixedPartition):
        return "mixed-blockdiag"
    raise LinAlgContractError(f"unsupported partition type {type(part)!r}")
