"""Transfer-function evaluation, polynomial parts, pole-residue
decompositions, and frequency-domain error norms.

The transfer function of a descriptor realization is
H(s) = C (sE - A)^{-1} B + D.  It splits into a strictly proper part and
a polynomial part; the polynomial part is constant for index <= 1 and at
most linear in s for index-2 systems.  Finite H2/Hinf errors require the
polynomial parts of the two models to agree, so the norm routines detect
and report divergence instead of returning a meaningless number.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg as spla
import scipy.sparse as sp

from .linalg import LinAlgContractError, SingularMatrixError, gen_eig, solve_complex
from .systems import PHDAESystem

__all__ = [
    "FrequencyGrid",
    "PolynomialPart",
    "PoleResidueForm",
    "DivergentNormError",
    "PolynomialMismatchError",
    "evaluate",
    "eval_transfer",
    "transfer_cond_limit",
    "frequency_response",
    "polynomial_part_index1",
    "polynomial_part_index2",
    "pole_residue",
    "hinf_error",
    "h2_error",
    "tangential_residuals",
    "balance_realization",
]

log = logging.getLogger(__name__)

#: Points per batched call of :func:`frequency_response`: a grid is split
#: into equal parts of at most this many points, which bounds the (n, K)
#: temporaries of one call to a few MB at n ~ 100.
_BATCH = 200


class DivergentNormError(ValueError):
    """The requested error norm diverges, so no number is returned."""


class PolynomialMismatchError(DivergentNormError):
    """The two models' polynomial parts differ, so the requested error
    norm diverges."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly ascending frequencies omega_1 < ... < omega_K (rad/s)."""

    omegas: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.ndim != 1 or om.size < 2:
            raise LinAlgContractError("frequency grid needs at least two points")
        if not np.all(np.diff(om) > 0):
            raise LinAlgContractError("frequencies must be strictly ascending")
        om = om.copy()
        om.setflags(write=False)
        object.__setattr__(self, "omegas", om)

    @classmethod
    def log_spaced(cls, lo=1e-4, hi=1e4, num=400):
        return cls(np.logspace(np.log10(lo), np.log10(hi), num))

    @property
    def points(self):
        """Evaluation points s = i*omega."""
        return 1j * self.omegas

    def __len__(self):
        return self.omegas.size


@dataclass(frozen=True)
class PolynomialPart:
    """P(s) = P0 + s * P1; P1 = 0 for index <= 1."""

    P0: np.ndarray
    P1: np.ndarray

    def __post_init__(self):
        # read-only copies: a partition caches its part and shares it with
        # every reduced model built from it
        for name in ("P0", "P1"):
            arr = np.array(getattr(self, name), dtype=float, ndmin=2)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.P0.shape != self.P1.shape:
            raise LinAlgContractError("P0 and P1 must have equal shape")

    @property
    def is_constant(self):
        return not np.any(self.P1)

    def __call__(self, s):
        return self.P0 + s * self.P1

    def transfer_eval(self, s):
        """Polynomial parts act as (improper) models in their own right,
        e.g. as the subtrahend when computing strictly proper norms."""
        return self(s)

    def transfer_evals(self, points):
        """P(s_k) at every point of a 1-D array, shape (K, p, m)."""
        return self(np.asarray(points, dtype=complex).reshape(-1, 1, 1))

    @classmethod
    def constant(cls, P0):
        P0 = np.atleast_2d(np.asarray(P0, dtype=float))
        return cls(P0=P0, P1=np.zeros_like(P0))


def transfer_cond_limit(s):
    """The condition limit of a full-model transfer-function value at s (a
    point or an array of points): 1e12 (1 + |s|).  The pencil condition
    number grows linearly in |s| for DAEs without the solve losing relative
    accuracy."""
    return 1e12 * (1.0 + np.abs(s))


def eval_transfer(sys, s, solve=None):
    """H(s) = C (sE - A)^{-1} B + D for a descriptor realization, at one
    point s, solved with the limit :func:`transfer_cond_limit`.

    ``solve(s, rhs, cond_limit=...)`` replaces the dense or sparse LU of
    :func:`solve_complex`; a partition passes its
    :meth:`~phmor.systems.Index2Partition.solve_shifted` here.
    """
    B = np.asarray(sys.B, dtype=complex)
    cond_limit = transfer_cond_limit(s)
    if solve is None:
        X = solve_complex(s * sys.E - sys.A, B, cond_limit=cond_limit)
    else:
        X = solve(s, B, cond_limit=cond_limit)
    return sys.C @ X + sys.D


def evaluate(model, s):
    """Transfer-function value of any supported model at a complex point.

    Accepts :class:`GenericLTISystem`, :class:`PHDAESystem`, or any object
    exposing ``transfer_eval(s)``: a partition view, which stands for its
    full model and solves it by constraint elimination, and reduced models,
    including those with an augmented (u, u') input whose feedthrough
    carries a linear-in-s term.  A bare system is solved by LU per point.
    """
    if hasattr(model, "transfer_eval"):
        return model.transfer_eval(s)
    if isinstance(model, PHDAESystem):
        return eval_transfer(model.generic, s)
    return eval_transfer(model, s)


def polynomial_part_index1(part):
    """Constant polynomial part of a semi-explicit index-1 system.

    P0 = D - (B2+P2)^T (J22-R22)^{-1} (B2-P2), the limit of H(s) as
    |s| -> infinity; the linear term vanishes for index-1 systems.
    """
    D = part.parent.S + part.parent.N
    if part.n2 == 0 or part.b2_zero:
        return PolynomialPart.constant(D)
    A22 = part.A22.toarray() if sp.issparse(part.A22) else part.A22
    X = spla.solve(A22, part.B2 - part.P2)
    P0 = D - (part.B2 + part.P2).T @ X
    return PolynomialPart.constant(P0)


def polynomial_part_index2(part, check=True):
    """Polynomial part P0 + s P1 of a semi-explicit index-2 system.

    With M = J12^T E11^{-1} J12 (the coupling matrix), Z = M^{-1},
    Bi = B_i - P_i and Ci = (B_i + P_i)^T::

        P1 = C2 Z B2
        P0 = D + C1 G - C2 Z J12^T E11^{-1} (A11 G + B1),   G = E11^{-1} J12 Z B2

    These coefficients are obtained from the constraint elimination
    x2 = Z B2 u' - Z J12^T E11^{-1} (A11 x1 + B1 u); the sign of the
    linear term is fixed against the large-frequency limit of the
    transfer function (``check=True``) rather than taken on faith.
    """
    D = part.parent.S + part.parent.N
    if part.n2 == 0 or part.b2_zero:
        return PolynomialPart.constant(D)
    Bi1, Bi2 = part.B1 - part.P1, part.B2 - part.P2
    Ci1, Ci2 = (part.B1 + part.P1).T, (part.B2 + part.P2).T
    Einv_J12, M = part.Einv_J12, part.coupling
    ZB2 = spla.solve(M, Bi2)
    G = Einv_J12 @ ZB2
    P1 = Ci2 @ ZB2
    rhs = part.A11 @ G + Bi1
    P0 = D + Ci1 @ G - Ci2 @ spla.solve(M, Einv_J12.T @ rhs)
    poly = PolynomialPart(P0=P0, P1=P1)
    if check:
        _check_poly_against_limit(part, poly)
    return poly


def _check_poly_against_limit(part, poly):
    """Confirm H(i w) - P(i w) stays bounded for large w; log otherwise."""
    rem = []
    for w in (1e6, 1e8):
        H = part.transfer_eval(1j * w)
        rem.append(np.linalg.norm(H - poly(1j * w)))
    scale = 1.0 + np.linalg.norm(poly.P0)
    if rem[1] > 10.0 * rem[0] + 1e-8 * scale:
        log.warning(
            "polynomial part disagrees with the large-frequency limit of the "
            "transfer function (remainders %.3e -> %.3e); check sign conventions",
            rem[0], rem[1],
        )


def balance_realization(E, A, B, C):
    """Symmetric diagonal scaling improving the pencil's conditioning.

    Reduced bases are deliberately not normalized (their projected
    matrices are the quantities of interest), so column norms — and with
    them the diagonal of E — can span many orders of magnitude.  Scaling
    state i by 1/sqrt(E_ii) (skipped for E_ii ~ 0) leaves the transfer
    function, poles, and residues unchanged while making the pencil
    numerically tractable.
    """
    d = np.sqrt(np.abs(np.diag(E)))
    dmax = d.max(initial=0.0)
    d = np.where(d > 1e-150 * max(dmax, 1.0), d, 1.0)
    Dinv = 1.0 / d
    Eb = Dinv[:, None] * E * Dinv[None, :]
    Ab = Dinv[:, None] * A * Dinv[None, :]
    Bb = Dinv[:, None] * np.atleast_2d(B)
    Cb = np.atleast_2d(C) * Dinv[None, :]
    return Eb, Ab, Bb, Cb


@dataclass(frozen=True)
class PoleResidueForm:
    """H(s) = sum_i c_i b_i^T / (s - lambda_i) + D.

    ``left[i]`` is the output residue vector c_i and ``right[i]`` the input
    residue vector b_i; complex poles occur in conjugate pairs with
    conjugate residue vectors.
    """

    poles: np.ndarray
    left: np.ndarray
    right: np.ndarray
    D: np.ndarray

    def __call__(self, s):
        H = np.array(self.D, dtype=complex)
        for lam, c, b in zip(self.poles, self.left, self.right):
            H = H + np.outer(c, b) / (s - lam)
        return H


def pole_residue(model, defective_cond_limit=1e8):
    """Pole-residue decomposition of a reduced model.

    The fast path assumes the reduced energy matrix is positive definite
    (reduced models from the ODE-producing reducers satisfy this); DAE
    reduced models fall back to a generalized eigendecomposition keeping
    only the finite eigenvalues.  Residue vectors are normalized so the
    largest-magnitude entry of each right residue is real and positive.
    """
    gen = model.generic if hasattr(model, "generic") else model
    E, A, B, C = balance_realization(gen.E, gen.A, gen.B, gen.C)
    D = gen.D
    lam_min = spla.eigh(0.5 * (E + E.T), eigvals_only=True, subset_by_index=[0, 0])[0]
    if lam_min > 0 and spla.norm(E - E.T, "fro") <= 1e-10 * spla.norm(E, "fro"):
        eig = gen_eig(A, E, defective_cond_limit=defective_cond_limit)
        lam, VR, W = eig.eigenvalues, eig.right, eig.left
    else:
        lam, VL, VR = spla.eig(A, E, left=True, right=True)
        finite = np.isfinite(lam) & (np.abs(lam) < 1e12)
        lam, VL, VR = lam[finite], VL[:, finite], VR[:, finite]
        W = VL.conj()
        scale = np.einsum("ij,jk,ki->i", W.T, E, VR)
        if np.any(np.abs(scale) < 1e-14):
            warnings.warn("near-defective pencil in pole_residue", RuntimeWarning)
            scale = np.where(np.abs(scale) < 1e-300, 1.0, scale)
        W = W / scale[None, :]
    lefts = (C @ VR).T            # c_i rows
    rights = (B.T @ W).T          # b_i rows
    # Phase normalization: largest entry of b_i real positive.
    for i in range(len(lam)):
        b = rights[i]
        k = int(np.argmax(np.abs(b)))
        if np.abs(b[k]) > 0:
            phase = b[k] / np.abs(b[k])
            rights[i] = b / phase
            lefts[i] = lefts[i] * phase
    return PoleResidueForm(poles=lam, left=lefts, right=rights, D=np.asarray(D, dtype=float))


def frequency_response(model, grid):
    """Transfer-function values H(s_k), shape (K, p, m), at the points
    s_k = i w_k of a :class:`FrequencyGrid` or at a 1-D array of points.

    A partition view, a reduced model and a polynomial part evaluate the
    points in batched calls of their ``transfer_evals`` (a 400-point grid
    in two), which take the singular decisions that :func:`evaluate` takes
    point by point and raise at the first failing point, in order.  Any
    other model is evaluated point by point.
    """
    if isinstance(grid, FrequencyGrid):
        points = grid.points
    else:
        points = np.asarray(grid, dtype=complex).reshape(-1)
    if hasattr(model, "transfer_evals"):
        parts = np.array_split(points, -(-points.size // _BATCH))
        return np.concatenate([model.transfer_evals(part) for part in parts])
    return np.array([np.atleast_2d(evaluate(model, s)) for s in points])


def _grid_errors(full_response, reduced, grid):
    """Per-point ||H - Hr||_2 and ||H||_2, each one batched SVD over the
    stacked (K, p, m) responses."""
    diff = full_response - frequency_response(reduced, grid)
    errs = np.linalg.norm(diff, 2, axis=(1, 2))
    mags = np.linalg.norm(full_response, 2, axis=(1, 2))
    return errs, mags


def _check_divergence(errs, mags, grid):
    """Flag monotone error growth at the grid's high end (polynomial-part
    mismatch makes the sup diverge)."""
    top = grid.omegas >= grid.omegas[-1] / 10.0
    if np.count_nonzero(top) < 3:
        top = np.zeros(len(errs), dtype=bool)
        top[-3:] = True
    e = errs[top]
    if np.all(np.diff(e) > 0) and e[-1] > 5.0 * e[0] and e[-1] > 1e-8 * (1.0 + mags.max()):
        raise PolynomialMismatchError(
            "error grows monotonically toward omega = "
            f"{grid.omegas[-1]:.3e} (from {e[0]:.3e} to {e[-1]:.3e}); "
            "the polynomial parts of the two models do not match"
        )


def hinf_error(full, reduced, grid=None, check_divergence=True, full_response=None):
    """(absolute, relative) grid estimate of the H-infinity error.

    The supremum of the spectral norm of H(i w) - Hr(i w) is approximated
    by its maximum over the grid, and normalized by the grid maximum of
    ||H(i w)||_2 for the relative value.  ``full_response``, the full
    model's :func:`frequency_response` on the same grid, lets callers
    comparing several reduced models against one full model evaluate the
    full model once.
    """
    if grid is None:
        grid = FrequencyGrid.log_spaced()
    if full_response is None:
        full_response = frequency_response(full, grid)
    errs, mags = _grid_errors(full_response, reduced, grid)
    if check_divergence:
        _check_divergence(errs, mags, grid)
    absolute = float(errs.max())
    denom = float(mags.max())
    relative = absolute / denom if denom > 0 else np.inf
    return absolute, relative


def h2_error(full, reduced, lo=0.0, hi=np.inf, limit=200, poly_tol=1e-8):
    """H2 distance via adaptive frequency quadrature.

    sqrt( (1/pi) * int_0^inf ||H(i w) - Hr(i w)||_F^2 dw ), using the
    conjugate symmetry of real-matrix systems to halve the integration
    range.  Before integrating, the difference is probed at both ends of
    the range with one rule: growth by more than tenfold over two decades
    means the integral diverges, and :class:`DivergentNormError` is raised.
    From w = 1e-6 to 1e-8 such growth means ||H - Hr||_F^2 >~ 1/w, which is
    not integrable at the origin; a pencil singular to working precision at
    these probes (a pole at the origin) counts the same.  From w = 1e6 to
    1e8 it means the polynomial parts differ
    (:class:`PolynomialMismatchError`, a subclass).  The low end is probed
    first, so a difference that diverges at both ends raises the base class.
    """
    def gap(w):
        diff = np.atleast_2d(evaluate(full, 1j * w)) - np.atleast_2d(evaluate(reduced, 1j * w))
        return np.linalg.norm(diff, "fro")

    scale = max(1.0, np.linalg.norm(np.atleast_2d(evaluate(full, 1j))))
    try:
        low = [gap(w) for w in (1e-6, 1e-8)]
    except SingularMatrixError as exc:
        raise DivergentNormError(
            f"pencil singular at a low-frequency probe ({exc}); H2 error diverges"
        ) from exc
    if low[1] > 10.0 * low[0] + poly_tol * scale:
        raise DivergentNormError(
            "transfer-function difference grows toward omega = 0 "
            f"({low[0]:.3e} at 1e-6, {low[1]:.3e} at 1e-8); H2 error diverges"
        )
    high = [gap(w) for w in (1e6, 1e8)]
    if high[1] > 10.0 * high[0] + poly_tol * scale or high[1] > 1e-2 * scale:
        raise PolynomialMismatchError(
            "transfer-function difference does not vanish at large frequency "
            f"({high[0]:.3e} at 1e6, {high[1]:.3e} at 1e8); H2 error diverges"
        )

    val, _ = scipy.integrate.quad(lambda w: gap(w) ** 2, lo, hi, limit=limit)
    return float(np.sqrt(val / np.pi))


def tangential_residuals(full, reduced, data):
    """Relative interpolation residuals
    ||H(s_i) b_i - Hr(s_i) b_i|| / (1 + ||H(s_i) b_i||), each model
    evaluated at all interpolation points by one :func:`frequency_response`
    call, the same call the H-infinity grid makes."""
    b = data.directions[:, :, None]
    hb = (frequency_response(full, data.points) @ b)[:, :, 0]
    hrb = (frequency_response(reduced, data.points) @ b)[:, :, 0]
    return np.linalg.norm(hb - hrb, axis=1) / (1.0 + np.linalg.norm(hb, axis=1))
