"""Transfer-function evaluation, polynomial parts, pole-residue
decompositions, and frequency-domain error norms.

The transfer function of a descriptor realization is
H(s) = C (sE - A)^{-1} B + D.  It splits into a strictly proper part and
a polynomial part; the polynomial part is constant for index <= 1 and at
most linear in s for index-2 systems.  Finite H2/Hinf errors require the
polynomial parts of the two models to agree, so the norm routines detect
and report divergence instead of returning a meaningless number.  Every
norm evaluates the models through :func:`frequency_response`: the
H-infinity error on a grid, the H2 error on the nodes of an adaptive
Gauss-Kronrod rule, one batch per refinement round.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import LinAlgContractError, SingularMatrixError, gen_eig, solve_complex

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
#: Absolute slack, relative to ||H(i)||, of :func:`h2_error`'s divergence probes.
_H2_PROBE_TOL = 1e-8

# QUADPACK's 15-point Kronrod rule (qk15) on [-1, 1]: the nonnegative nodes
# in descending order, their Kronrod weights, and the weights of the 7-point
# Gauss rule embedded in it (nonzero at every other node).
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.concatenate([_WG, _WG[-2::-1]])
#: Absolute and relative tolerance of the H2 quadrature, on the integral
#: of ||H - Hr||_F^2 over [0, inf) (QUADPACK's customary default).
_H2_QUAD_TOL = 1.49e-8
#: Equal panels the H2 quadrature starts from, and the most it may hold.
_H2_PANELS = 8
_H2_PANEL_LIMIT = 200


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
        """``num`` frequencies log-spaced from lo to hi, which must be
        finite with 0 < lo < hi."""
        if not (0 < lo < hi < np.inf):
            raise LinAlgContractError(
                f"log-spaced grid bounds must be finite with 0 < lo < hi, got {lo}:{hi}")
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

    def __call__(self, s):
        return self.P0 + s * self.P1

    def transfer_evals(self, points):
        """P(s_k) at every point of a 1-D array, shape (K, p, m): a
        polynomial part acts as an (improper) model in its own right, e.g.
        as the subtrahend when computing strictly proper norms."""
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


def eval_transfer(model, s):
    """H(s) = C (sE - A)^{-1} B + D of ``model.generic`` at one point s, by
    one :func:`solve_complex` with the limit :func:`transfer_cond_limit`:
    the LU reference for a model's own evaluation."""
    gen = model.generic
    B = np.asarray(gen.B, dtype=complex)
    X = solve_complex(s * gen.E - gen.A, B, cond_limit=transfer_cond_limit(s))
    return gen.C @ X + gen.D


def evaluate(model, s):
    """Transfer-function value of any model at one complex point: its
    ``transfer_evals`` at a one-point array.  Every model has that one
    evaluation method: a bare system, a partition view (which stands for
    its full model), a reduced model and a polynomial part."""
    return model.transfer_evals(s)[0]


def polynomial_part_index1(part):
    """Constant polynomial part of a semi-explicit index-1 system.

    P0 = D - (B2+P2)^T (J22-R22)^{-1} (B2-P2), the limit of H(s) as
    |s| -> infinity, read from the partition's one solve with A22
    (:attr:`~phmor.systems.Index1Partition.schur`); the linear term
    vanishes for index-1 systems.
    """
    D = part.parent.S + part.parent.N
    if part.n2 == 0 or part.b2_zero:
        return PolynomialPart.constant(D)
    P0 = D - (part.B2 + part.P2).T @ part.schur[1]
    return PolynomialPart.constant(P0)


def polynomial_part_index2(part):
    """Polynomial part P0 + s P1 of a semi-explicit index-2 system.

    With M = J12^T E11^{-1} J12, Bi = B_i - P_i, Ci = (B_i + P_i)^T, and the
    lifts G = E11^{-1} J12 M^{-1} B2, H = E11^{-1} J12 M^{-T} C2^T and M^{-1} B2
    from the partition's one saddle solve (M itself is not formed)::

        P1 = C2 M^{-1} B2
        P0 = D + C1 G - H^T (A11 G + B1)

    These coefficients are obtained from the constraint elimination
    x2 = M^{-1} B2 u' - M^{-1} J12^T E11^{-1} (A11 x1 + B1 u); the sign of
    the linear term is checked against the large-frequency limit of the
    transfer function rather than taken on faith.
    """
    D = part.parent.S + part.parent.N
    if part.n2 == 0 or part.b2_zero:
        return PolynomialPart.constant(D)
    Bi1 = part.B1 - part.P1
    Ci1, Ci2 = (part.B1 + part.P1).T, (part.B2 + part.P2).T
    G, H = part.input_lift, part.output_lift
    P1 = Ci2 @ part.multiplier_gain
    P0 = D + Ci1 @ G - H.T @ (part.A11 @ G + Bi1)
    poly = PolynomialPart(P0=P0, P1=P1)
    _check_poly_against_limit(part, poly)
    return poly


def _check_poly_against_limit(part, poly):
    """Confirm H(i w) - P(i w) stays bounded for large w; log otherwise."""
    rem = []
    for w in (1e6, 1e8):
        H = evaluate(part, 1j * w)
        rem.append(np.linalg.norm(H - poly(1j * w)))
    scale = 1.0 + np.linalg.norm(poly.P0)
    if rem[1] > 10.0 * rem[0] + 1e-8 * scale:
        log.warning(
            "polynomial part disagrees with the large-frequency limit of the "
            "transfer function (remainders %.3e -> %.3e); check sign conventions",
            rem[0], rem[1],
        )


def balance_realization(E, A, B, C):
    """Symmetric diagonal scaling of a realization, for
    :func:`pole_residue`'s eigensolve.

    Scaling state i by 1/sqrt(E_ii) (skipped for E_ii ~ 0) leaves the
    transfer function, poles, and residues unchanged.  Every reducer
    projects with an orthonormal basis, so a reduced E's diagonal is
    already on the full model's scale and the scaling changes the
    eigenpairs only by rounding, but that rounding steers IRKA's sweeps.
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


def pole_residue(model):
    """Pole-residue decomposition of a reduced model.

    One path for every model: the realization is balanced
    (:func:`balance_realization`), and the finite eigenpairs of the pencil
    (A, E), with left vectors scaled so that w_i^T E v_i = 1, come from one
    :func:`~phmor.linalg.gen_eig`; the infinite eigenvalues of a singular E
    drop out.  Residue vectors are normalized so the largest-magnitude entry
    of each right residue is real and positive.
    """
    gen = model.generic
    E, A, B, C = balance_realization(gen.E, gen.A, gen.B, gen.C)
    D = gen.D
    eig = gen_eig(A, E)
    lam = eig.eigenvalues
    lefts = (C @ eig.right).T     # c_i rows
    rights = (B.T @ eig.left).T   # b_i rows
    # Phase normalization: largest entry of b_i real positive.
    big = rights[np.arange(len(lam)), np.argmax(np.abs(rights), axis=1)]
    size = np.abs(big)
    turn = (size > 0)[:, None]  # a zero (or NaN) row keeps its phase
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = (big / size)[:, None]
        rights = np.where(turn, rights / phase, rights)
        lefts = np.where(turn, lefts * phase, lefts)
    return PoleResidueForm(poles=lam, left=lefts, right=rights, D=np.asarray(D, dtype=float))


def frequency_response(model, grid):
    """Transfer-function values H(s_k), shape (K, p, m), at the points
    s_k = i w_k of a :class:`FrequencyGrid` or at a 1-D array of points.

    The points go in batched calls of the model's ``transfer_evals`` (a
    400-point grid in two), its one evaluation path, which raises at the
    first failing point, in order.
    """
    if isinstance(grid, FrequencyGrid):
        points = grid.points
    else:
        points = np.asarray(grid, dtype=complex).reshape(-1)
    parts = np.array_split(points, -(-points.size // _BATCH))
    return np.concatenate([model.transfer_evals(part) for part in parts])


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


def hinf_error(full, reduced, grid=None, full_response=None):
    """(absolute, relative) grid estimate of the H-infinity error.

    The supremum of the spectral norm of H(i w) - Hr(i w) is approximated
    by its maximum over the grid, and normalized by the grid maximum of
    ||H(i w)||_2 for the relative value; monotone error growth at the
    grid's high end raises :class:`PolynomialMismatchError`.
    ``full_response``, the full model's :func:`frequency_response` on the
    same grid, lets callers comparing several reduced models against one
    full model evaluate the full model once.
    """
    if grid is None:
        grid = FrequencyGrid.log_spaced()
    if full_response is None:
        full_response = frequency_response(full, grid)
    errs, mags = _grid_errors(full_response, reduced, grid)
    _check_divergence(errs, mags, grid)
    absolute = float(errs.max())
    denom = float(mags.max())
    relative = absolute / denom if denom > 0 else np.inf
    return absolute, relative


def _gk15_panels(f, lo, hi):
    """(value, error estimate) per panel [lo, hi] of the 15-point Kronrod
    rule, given f at its nodes (shape (panels, 15)).  The error is
    QUADPACK's qk15 estimate: the Kronrod-Gauss difference scaled by
    (200 |K - G| / resasc)^1.5, with resasc the rule applied to
    |f - mean f|, and never below 50 eps times the rule applied to |f|."""
    half = 0.5 * (hi - lo)
    kronrod = f @ _GK_KRONROD
    resabs = half * (np.abs(f) @ _GK_KRONROD)
    resasc = half * (np.abs(f - 0.5 * kronrod[:, None]) @ _GK_KRONROD)
    err = half * np.abs(kronrod - f @ _GK_GAUSS)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((err > 0) & (resasc > 0), scaled, err)
    return half * kronrod, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


def _h2_integral(full, reduced):
    """int_0^inf ||H(i w) - Hr(i w)||_F^2 dw by a globally adaptive
    15-point Gauss-Kronrod rule on t in (0, 1], w = (1 - t) / t (QUADPACK's
    qagi map), the integrand being f(w) / t^2.

    It starts from ``_H2_PANELS`` equal panels.  While the summed error
    estimate exceeds max(tol, tol * |value|) (tol = ``_H2_QUAD_TOL``), every
    panel whose estimate exceeds its share of the tolerance (in proportion
    to its width) is bisected, worst first, up to ``_H2_PANEL_LIMIT``
    panels; at that cap it warns once and returns the value.  Each round
    evaluates each model at the nodes of all new panels in one
    :func:`frequency_response` call."""
    def panels(lo, hi):
        t = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _GK_NODES
        points = 1j * ((1.0 - t) / t).ravel()
        diff = frequency_response(full, points) - frequency_response(reduced, points)
        f = np.sum(np.abs(diff) ** 2, axis=(1, 2)).reshape(t.shape) / t ** 2
        return _gk15_panels(f, lo, hi)

    lo = np.arange(_H2_PANELS) / _H2_PANELS
    hi = np.arange(1, _H2_PANELS + 1) / _H2_PANELS
    value, err = panels(lo, hi)
    while True:
        total = value.sum()
        tol = max(_H2_QUAD_TOL, _H2_QUAD_TOL * abs(total))
        if err.sum() <= tol:
            return total
        room = _H2_PANEL_LIMIT - lo.size
        if room <= 0:
            warnings.warn(
                f"H2 quadrature reached {_H2_PANEL_LIMIT} panels with error estimate "
                f"{err.sum():.3e} above the tolerance {tol:.3e}", RuntimeWarning)
            return total
        # shares sum to tol, so the worst panel always exceeds its share
        worse = np.flatnonzero(err >= np.minimum(tol * (hi - lo), err.max()))
        split = worse[np.argsort(err[worse])[::-1][:room]]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_value, new_err = panels(new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


def h2_error(full, reduced):
    """H2 distance via adaptive frequency quadrature.

    sqrt( (1/pi) * int_0^inf ||H(i w) - Hr(i w)||_F^2 dw ), using the
    conjugate symmetry of real-matrix systems to halve the integration
    range.  The integral is a globally adaptive 15-point Gauss-Kronrod
    rule with absolute and relative tolerance 1.49e-8 and at most 200
    panels (:func:`_h2_integral`), which evaluates both models at the
    nodes of each refinement round in one :func:`frequency_response`
    call.  Before integrating, the difference is probed at both ends of
    the range with one rule: growth by more than tenfold (plus
    ``_H2_PROBE_TOL`` times the scale ||H(i)||) over two decades means the
    integral diverges, and :class:`DivergentNormError` is raised.
    From w = 1e-6 to 1e-8 such growth means ||H - Hr||_F^2 >~ 1/w, which is
    not integrable at the origin; a pencil singular to working precision at
    these probes (a pole at the origin) counts the same.  From w = 1e6 to
    1e8 it means the polynomial parts differ
    (:class:`PolynomialMismatchError`, a subclass).  The low end is probed
    first, so a difference that diverges at both ends raises the base class.
    The scale and the four probes are the only one-point evaluations.
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
    if low[1] > 10.0 * low[0] + _H2_PROBE_TOL * scale:
        raise DivergentNormError(
            "transfer-function difference grows toward omega = 0 "
            f"({low[0]:.3e} at 1e-6, {low[1]:.3e} at 1e-8); H2 error diverges"
        )
    high = [gap(w) for w in (1e6, 1e8)]
    if high[1] > 10.0 * high[0] + _H2_PROBE_TOL * scale or high[1] > 1e-2 * scale:
        raise PolynomialMismatchError(
            "transfer-function difference does not vanish at large frequency "
            f"({high[0]:.3e} at 1e6, {high[1]:.3e} at 1e8); H2 error diverges"
        )
    return float(np.sqrt(_h2_integral(full, reduced) / np.pi))


def tangential_residuals(full, reduced, data):
    """Relative interpolation residuals
    ||H(s_i) b_i - Hr(s_i) b_i|| / (1 + ||H(s_i) b_i||), each model
    evaluated at all interpolation points by one :func:`frequency_response`
    call, the same call the H-infinity grid makes.  A sparse full model
    that has just built the basis at ``data`` holds the solutions
    (s_i E - A)^{-1} B at the points it solved
    (:class:`~phmor.linalg.SparsePencil`), until its next basis, and
    evaluates there from them, with the same bits: only the conjugate
    partners the basis skipped are factored."""
    b = data.directions[:, :, None]
    hb = (frequency_response(full, data.points) @ b)[:, :, 0]
    hrb = (frequency_response(reduced, data.points) @ b)[:, :, 0]
    return np.linalg.norm(hb - hrb, axis=1) / (1.0 + np.linalg.norm(hb, axis=1))
