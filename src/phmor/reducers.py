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
* ``reduce_index1_blockdiag`` and ``reduce_index2_augmented`` — one
  Galerkin formula: the congruence of the partition's pH ODE ``ode`` (its
  algebraic part eliminated) with an orthonormal basis of the x1 rows of
  the full model's solves.  An index-1 model is a valid pH ODE of order r
  with feedthrough P0 (``index1-galerkin``).  With inputs entering the
  index-2 constraints the transfer function has a linear-in-s polynomial
  part, reproduced exactly through an augmented (u, u') feedthrough
  (``index2-augmented``); without them the model is a valid pH ODE of
  order r (``index2-galerkin``).  ``reduce_index2`` is the same reducer
  restricted to the latter case, and ``reduce_mixed`` another name for
  it: a mixed model is its index-2 view
  (:func:`~phmor.systems.partition_mixed`).

:data:`REDUCERS` maps each reducer's name to its function, and
:func:`default_method` names the one that runs when none is asked for.

Both bases are of one kind: the Householder Q of the solves' normalized
columns that one rank-revealing QR keeps (near-dependent ones are dropped
with a warning).  The generic basis also carries its tangent directions,
written in Q's coordinates, for the shift formula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla

from .linalg import LinAlgContractError, pivoted_rank, solve_complex, solve_stacked
from .systems import (
    Index1Partition,
    Index2Partition,
    PHDAESystem,
    congruence,
    symmetric_skew_split,
)
from .transfer import PolynomialPart, transfer_cond_limit

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
    """Real orthonormal projection basis, with its directions when it has any.

    ``V`` is n x r' real with orthonormal columns (:func:`_orthonormal`).
    For :func:`build_V_generic`, ``directions`` is m x r': the realified
    tangent directions Bd of the kept solves X = V T, in V's coordinates,
    Bd T^{-1}, so that the shift formula's terms Bd^T (...) Bd are those of
    the solves after the change of coordinates T.  :func:`build_V_saddle`
    has none, and its ``directions`` is None.  ``cond`` is the pivoted QR's
    condition estimate of the kept normalized columns; the unit roundoff
    times it is the rounding floor that :mod:`phmor.irka` stops at.
    """

    V: np.ndarray
    cond: float
    directions: np.ndarray | None = None

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


def _realify(cols, kept):
    """Real columns of the complex ``cols``, whose column k belongs to the
    point ``kept[k]`` of :func:`_conjugate_pairs`: a real point contributes
    Re(v), a conjugate pair (Re v, Im v)."""
    real = []
    for v, (_, is_real) in zip(cols.T, kept):
        real.extend((v.real,) if is_real else (v.real, v.imag))
    return np.column_stack(real)


def _solves(model, data, dynamic=False):
    """The complex solutions x_i = (sigma_i E - A)^{-1} B b_i at each point
    kept by :func:`_conjugate_pairs` (``data.pairs``), column by column,
    from one ``solve_shifted`` call with the whole set (x_i[:n1] with
    ``dynamic``), so that a sparse model holds the set's solutions of B."""
    kept = [i for i, _ in data.pairs]
    B = model.generic.B
    rhs = np.column_stack([B @ data.directions[i] for i in kept])
    return model.solve_shifted(data.points[kept], rhs, dynamic=dynamic)


def _orthonormal(V, directions=None):
    """The :class:`ProjectionBasis` of the columns of V that the rank rule
    keeps: the Householder Q of W[:, keep] = Q R, W = V D^{-1} the columns
    normalized (D their norms; a zero column stays zero), since the norms
    can span many orders of magnitude over wide point ranges.  ``keep``
    are the indices, in order, that the rank rule of
    :func:`~phmor.linalg.pivoted_rank` keeps of W; a drop is warned about.
    ``directions`` Bd (m x k, column j paired with V's column j) become
    Bd[:, keep] D^{-1} R^{-1}, their coordinates in Q, since
    V[:, keep] = Q R D."""
    norms = np.linalg.norm(V, axis=0)
    W = V / np.where(norms > 0, norms, 1.0)
    rank, piv, cond = pivoted_rank(W)
    if rank < W.shape[1]:
        warnings.warn(
            f"rank-deficient basis: {rank} of {W.shape[1]} normalized columns kept, "
            f"the rest numerically dependent (pivoted QR, |R_ii| <= 1e-12 |R_00|)",
            RuntimeWarning,
        )
    keep = np.sort(piv[:rank])
    Q, R = spla.qr(W[:, keep], mode="economic")
    if directions is not None:
        directions = spla.solve_triangular(R, (directions[:, keep] / norms[keep]).T,
                                           trans="T").T
    return ProjectionBasis(V=Q, cond=cond, directions=directions)


def build_V_generic(model, data):
    """Tangential Krylov basis of (sigma_i E - A)^{-1} (B - P) b_i.

    ``model`` is a full model, solved by its ``solve_shifted``: a partition
    view (the reducers pass one, so that its factored elimination solver
    serves every point), a PHDAESystem or a GenericLTISystem.  The solves
    are realified (conjugate pairs merged into real/imaginary columns), as
    are their directions, and the basis is :func:`_orthonormal` of them:
    an orthonormal basis of the kept columns, whose ``directions`` pair
    with it for the shift formula of :func:`reduce_index1_shifted`.  The
    model's matrices are real, so the solution at conj(sigma) is the
    conjugate of the one at sigma: one solve is made per conjugate pair.
    """
    V = _realify(_solves(model, data), data.pairs)
    Bd = _realify(data.directions[[i for i, _ in data.pairs]].T, data.pairs)
    return _orthonormal(V, Bd)


def _lifted(part):
    """Whether ``part`` is an index-2 view whose constraints carry inputs."""
    return isinstance(part, Index2Partition) and not part.b2_zero


def build_V_saddle(part, data):
    """Orthonormal basis of the x1 rows of an index-1 or index-2
    partition's solves (sigma E - A) x = (B - P) b, v = -x[:n1], asked of
    ``solve_shifted`` for x[:n1] only.  On an index-1 view x1 solves the
    x2-eliminated ODE itself.  On an index-2 view the matrix is minus the
    saddle-point matrix

        [ A11 - sigma E11   J12 ] [v]   [ (B1 - P1) b ]
        [      -J12^T        0  ] [z] = [ (B2 - P2) b ]

    and when the constraint equations carry inputs, v is projected back
    onto ker(J12^T) along the energy inner product by adding G b, G the
    partition's input lift E11^{-1} J12 M^{-1} (B2 - P2), so that
    J12^T V = 0 holds for the returned basis.  As in
    :func:`build_V_generic`, the matrices are real, only one member of
    each conjugate pair is solved for, and the basis is :func:`_orthonormal`
    of the solves, so that the reduced E is no worse conditioned than E11.
    Its ``directions`` is None.
    """
    X = -_solves(part, data, dynamic=True)
    if _lifted(part):
        X = X + np.column_stack([part.input_lift @ data.directions[i] for i, _ in data.pairs])
    return _orthonormal(_realify(X, data.pairs))


@dataclass(frozen=True)
class ReducedModel:
    """Reduced pHDAE model with structure metadata.

    ``system`` holds the reduced matrices in pH form (which may fail the
    passivity inequality when ``ph_valid`` is False).  ``polynomial`` is
    the reduced model's polynomial part; when ``augmented_input`` is
    True its linear coefficient multiplies the input derivative and the
    transfer function is C (sE - A)^{-1} B + P0 + s P1.  ``basis_cond``
    is the condition estimate of the projection basis
    (:attr:`ProjectionBasis.cond`); a model loaded from a container has
    nan.
    """

    system: PHDAESystem
    method: str
    ph_valid: bool
    w_min_eig: float
    polynomial: PolynomialPart
    augmented_input: bool = False
    basis_cond: float = np.nan

    @property
    def order(self):
        return self.system.n

    @property
    def generic(self):
        return self.system.generic

    def transfer_eval(self, s):
        """H(s) at one point: :meth:`transfer_evals` of a one-point array."""
        return self.transfer_evals(s)[0]

    def transfer_evals(self, points):
        """H(s_k) at every point of a 1-D array, shape (K, p, m), from one
        stacked solve of the pencils s_k E - A
        (:func:`~phmor.linalg.solve_stacked`).  The rule is a full model's:
        the first point, in order, whose pencil has an exactly zero pivot,
        a solution that is not finite or a ``zgecon`` estimate above
        :func:`~phmor.transfer.transfer_cond_limit` raises
        ``SingularMatrixError``, as its LU reference
        :func:`~phmor.linalg.solve_complex` raises there."""
        gen = self.generic
        s = np.asarray(points, dtype=complex).reshape(-1)
        pencils = s[:, None, None] * gen.E - gen.A
        B = gen.B.astype(complex)
        limit = transfer_cond_limit(s)
        X, cond = solve_stacked(pencils, B)
        failed = ~(cond <= limit) | ~np.isfinite(X).all(axis=(1, 2))
        if failed.any():
            k = int(np.argmax(failed))
            # the same LU of that one pencil, which raises with its message
            solve_complex(pencils[k], B, cond_limit=limit[k])
        H = gen.C @ X + gen.D
        if self.augmented_input:
            H = H + s[:, None, None] * self.polynomial.P1
        return H


def _finish(sys_r, method, poly, augmented_input=False, basis_cond=np.nan):
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
        basis_cond=basis_cond,
    )


def reduce_index1_shifted(part, data):
    """Interpolatory reduction of an index-1 system with a feedthrough
    shift that matches the full model's constant polynomial part.

    The congruence with the orthonormal basis V of :func:`build_V_generic`
    is shifted by Delta = P0 - D (the algebraic contribution to the
    feedthrough), with the basis directions Bd: K = Bd^T Delta Bd adds
    skew(K) to J and -sym(K) to R, -Bd^T sym(Delta) to B, Bd^T skew(Delta)
    to P, and sym(Delta), skew(Delta) to S, N.  That is the generic projection
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
    return _finish(sys_r, "index1-shifted", poly, basis_cond=basis.cond)


def _galerkin(part, data):
    """The congruence of ``part.ode`` with :func:`build_V_saddle`."""
    augmented = _lifted(part)
    basis = build_V_saddle(part, data)
    sys_r = congruence(basis.V, *part.ode)
    method = f"index{part.index_kind}-{'augmented' if augmented else 'galerkin'}"
    return _finish(sys_r, method, part.polynomial_part, augmented_input=augmented,
                   basis_cond=basis.cond)


def reduce_index1_blockdiag(part, data):
    """Galerkin reduction of an index-1 system: the formula of
    :func:`reduce_index2_augmented` on the x2-eliminated pH ODE
    (:attr:`~phmor.systems.Index1Partition.ode`).  The model,
    ``index1-galerkin``, is a valid pH ODE of order r (the columns the rank
    rule keeps) that interpolates, with feedthrough P0."""
    return _galerkin(part, data)


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
    the x1 blocks (E11, J11, R11) with the constraint lifts folded into the
    port terms, :attr:`~phmor.systems.Index2Partition.ode`, projected by V.
    The reduced transfer function C (sE - A)^{-1} B + P0 + s P1 matches the
    full model tangentially and reproduces the polynomial part.  With
    B2 = P2 = 0 the model is ``index2-galerkin``, a valid pH ODE; otherwise
    it is ``index2-augmented``, with an augmented (u, u') input, and its
    passivity is reported via ``ph_valid``.
    """
    return _galerkin(part, data)


#: A mixed model's view is an index-2 view, reduced by the index-2 reducer;
#: once the multipliers x3 are eliminated its constrained states x1 are
#: pinned to zero, so the model is an ``index2-galerkin`` pH ODE of order r.
reduce_mixed = reduce_index2_augmented


#: Reducer name -> reducer.  A model's ``method`` is the registry name,
#: except that the ``index2`` reducer names its models ``index2-galerkin``
#: or ``index2-augmented`` by whether the constraints carry inputs.  The
#: values are the functions themselves, so that a wrapper rebinding a
#: module's functions also rebinds them here.
REDUCERS = {
    "index1-shifted": reduce_index1_shifted,
    "index1-blockdiag": reduce_index1_blockdiag,
    "index2": reduce_index2_augmented,
}


def default_method(part):
    """Name of the :data:`REDUCERS` entry that runs on ``part`` when no
    reducer is named: ``index1-shifted`` for index 1, which matches the
    polynomial part at order r, and ``index2`` for index 2 (a mixed model
    included).  Any other object raises ``LinAlgContractError``."""
    if isinstance(part, Index1Partition):
        return "index1-shifted"
    if isinstance(part, Index2Partition):
        return "index2"
    raise LinAlgContractError(f"unsupported partition type {type(part)!r}")
