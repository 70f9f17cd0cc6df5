"""Iterative rational Krylov (IRKA-style) fixed-point iteration for
structure-preserving pHDAE reduction.

Starting from an interpolation set, each sweep reduces the system,
computes the reduced model's pole-residue decomposition, and uses the
mirrored poles with the matching residue directions as the next
interpolation set.  At a fixed point the reduced model satisfies
first-order tangential optimality conditions for the H2 error among
structure-preserving models of that order.

A run ends in one of three ways, named by ``IRKAResult.stop_reason``:

* ``"converged"`` — the point movement fell to ``tol``;
* ``"rounding floor"`` — the movement stayed at or below the sweep's
  rounding floor, u times the basis condition estimate
  (:attr:`~phmor.reducers.ReducedModel.basis_cond`), for
  ``FLOOR_SWEEPS`` sweeps in a row while that floor lies above ``tol``:
  the map cannot resolve a smaller movement, so more sweeps only wander;
* ``"max iterations"`` — the iteration budget ran out.

Neither of the last two is an error: the best iterate seen (smallest
point movement) is returned with ``converged=False``, with a warning, so
callers can inspect the trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import LinAlgContractError
from .reducers import REDUCERS, InterpolationData, default_method
from .transfer import pole_residue

__all__ = [
    "IRKAConfig",
    "IRKATrace",
    "IRKAResult",
    "irka_reduce",
    "mirror_and_sanitize",
    "convergence_metric",
]

AXIS_TOL = 1e-8
#: sweeps in a row at the rounding floor that end the iteration
FLOOR_SWEEPS = 3


@dataclass(frozen=True)
class IRKAConfig:
    """Iteration parameters.

    ``initial`` overrides the default start,
    :meth:`InterpolationData.log_spaced` (r positive real points in
    1e-2..1e4 with all-ones directions); it must hold r points.
    """

    r: int
    max_iterations: int = 100
    tol: float = 1e-6
    initial: InterpolationData | None = None

    def __post_init__(self):
        if self.r < 1:
            raise LinAlgContractError("reduced order must be at least 1")
        if self.max_iterations < 1 or self.tol <= 0:
            raise LinAlgContractError("need max_iterations >= 1 and tol > 0")
        if self.initial is not None and self.initial.r != self.r:
            raise LinAlgContractError(
                f"{self.initial.r} initial interpolation points for reduced order {self.r}")


@dataclass
class IRKATrace:
    """Per-iteration history of the fixed-point iteration."""

    iterations: list = field(default_factory=list)

    def append(self, iteration, metric, points, ph_valid, w_min_eig, floor):
        self.iterations.append({
            "iteration": iteration,
            "metric": metric,
            "points": np.array(points, dtype=complex),
            "ph_valid": ph_valid,
            "w_min_eig": w_min_eig,
            "floor": floor,
        })

    def __len__(self):
        return len(self.iterations)

    def export_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iteration,metric,ph_valid,w_min_eig,floor,points\n")
            for rec in self.iterations:
                pts = ";".join(f"{p.real:.16e}{p.imag:+.16e}j" for p in rec["points"])
                fh.write(
                    f"{rec['iteration']},{rec['metric']:.16e},"
                    f"{int(rec['ph_valid'])},{rec['w_min_eig']:.16e},"
                    f"{rec['floor']:.16e},{pts}\n"
                )


@dataclass(frozen=True)
class IRKAResult:
    model: object
    converged: bool
    iterations: int
    final_metric: float
    data: InterpolationData
    trace: IRKATrace
    stop_reason: str  # "converged", "rounding floor" or "max iterations"


def mirror_and_sanitize(poles, residues):
    """Next interpolation set from reduced-model poles and their right residues.

    A real model's poles are real or come in conjugate pairs, a pair's
    residues conjugate too.  Each real pole, and the member of each pair
    with Im lambda > 0, gives the point sigma = -lambda with lambda's own
    residue b as direction (all ones where b is zero); a pair also gives
    conj(sigma) with conj(b), its partner's mirror and residue.  Real parts
    are taken absolute and kept at least 1e-8 so the shifted systems stay
    solvable.  A point with |Im sigma| <= 1e-8 (1 + |sigma|) becomes one
    real point with a real direction.  The set is ordered by |Im sigma| and
    is exactly closed under conjugation.  Non-finite poles are dropped with
    a warning; no finite pole, or unequal counts of poles above and below
    the real axis, raise ``LinAlgContractError``.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    residues = np.atleast_2d(np.asarray(residues, dtype=complex))
    finite = np.isfinite(poles) & np.all(np.isfinite(residues), axis=1)
    if not finite.all():
        warnings.warn("dropping non-finite poles from the interpolation set",
                      RuntimeWarning)
        poles, residues = poles[finite], residues[finite]
    if poles.size == 0:
        raise LinAlgContractError("no finite poles available for the next sweep")
    above, below = np.count_nonzero(poles.imag > 0), np.count_nonzero(poles.imag < 0)
    if above != below:
        raise LinAlgContractError(
            f"pole set not closed under conjugation: {above} poles above the real "
            f"axis and {below} below")
    keep = poles.imag >= 0
    sigma, residues = -poles[keep], residues[keep]
    sigma = np.maximum(np.abs(sigma.real), AXIS_TOL) + 1j * sigma.imag

    order = np.argsort(np.abs(sigma.imag), kind="stable")
    sigma, residues = sigma[order], residues[order]
    residues[~residues.any(axis=1)] = 1.0
    on_axis = np.abs(sigma.imag) <= AXIS_TOL * (1.0 + np.hypot(sigma.real, sigma.imag))
    pts, dirs = [], []
    for s, b, real in zip(sigma, residues, on_axis):
        if real:
            pts.append(complex(s.real, 0.0))
            dirs.append(b.real if np.any(b.real) else np.abs(b))
        else:
            pts.extend([s.conjugate(), s])
            dirs.extend([b.conj(), b])
    return InterpolationData(points=np.array(pts), directions=np.vstack(dirs))


def convergence_metric(prev, new):
    """Largest relative movement of interpolation points between sweeps.

    Points are matched greedily (closest pairs first) so reorderings do
    not register as movement; each matched pair contributes
    |s_old - s_new| / (1 + |s_old|).  Mismatched set sizes give inf.
    The distances form one matrix, and each match masks its row and column.
    """
    prev = np.atleast_1d(np.asarray(prev, dtype=complex))
    new = np.atleast_1d(np.asarray(new, dtype=complex))
    if prev.size != new.size:
        return np.inf
    gap = prev[:, None] - new[None, :]
    dist = np.hypot(gap.real, gap.imag)  # Python's abs(complex), bit for bit
    scale = 1.0 + np.hypot(prev.real, prev.imag)
    left = dist.copy()  # matched rows and columns masked by inf
    rows, cols = np.ones(prev.size, dtype=bool), np.ones(new.size, dtype=bool)
    worst = 0.0
    for _ in range(prev.size):
        i, j = divmod(int(np.argmin(left)), new.size)  # the first NaN, if any
        if left[i, j] == np.inf:  # every entry left is inf: take the first
            i, j = int(np.argmax(rows)), int(np.argmax(cols))
        worst = max(worst, dist[i, j] / scale[i])
        left[i], left[:, j] = np.inf, np.inf
        rows[i] = cols[j] = False
    return float(worst)


def irka_reduce(part, config, method=None):
    """Run the fixed-point iteration on a partitioned pHDAE.

    ``method`` names the reducer (a :data:`~phmor.reducers.REDUCERS` key);
    by default :func:`~phmor.reducers.default_method` picks it.  Returns an
    :class:`IRKAResult` whose ``stop_reason`` says how the run ended (see
    the module docstring).  A sweep's rounding floor is u kappa, u the unit
    roundoff and kappa the condition estimate of the basis that sweep
    projected with; the trace records it.  ``converged=False`` means the
    point movement never fell below ``config.tol``, because it stayed at
    the rounding floor for ``FLOOR_SWEEPS`` sweeps or the budget ran out,
    and the best iterate is returned with a warning.  The first sweep whose
    mirrored pole set holds fewer than ``config.r`` points warns
    (``RuntimeWarning``): the basis lost columns, non-finite poles were
    dropped, or a near-real pair became one real point (see
    :func:`mirror_and_sanitize`).  The iteration goes on with that set.
    """
    reducer = REDUCERS[method or default_method(part)]
    m = part.parent.m
    data = config.initial
    if data is None:
        data = InterpolationData.log_spaced(config.r, m)

    trace = IRKATrace()
    best = None  # (metric, model, data)
    stop_reason = "max iterations"
    short = False  # whether a sweep has already warned of a short pole set
    at_floor = 0  # sweeps in a row whose movement is at most their floor
    for it in range(1, config.max_iterations + 1):
        model = reducer(part, data)
        pr = pole_residue(model)
        nxt = mirror_and_sanitize(pr.poles, pr.right)
        if nxt.r < config.r and not short:
            short = True
            warnings.warn(
                f"sweep {it}: {nxt.r} mirrored poles for r = {config.r}; the basis lost "
                "columns, non-finite poles were dropped or a near-real pair merged into "
                "one real point, so the order falls short",
                RuntimeWarning,
            )
        metric = convergence_metric(data.points, nxt.points)
        floor = np.finfo(float).eps * model.basis_cond
        trace.append(it, metric, data.points, model.ph_valid, model.w_min_eig, floor)
        if best is None or metric < best[0]:
            best = (metric, model, data)
        if metric <= config.tol:
            return IRKAResult(model=model, converged=True, iterations=it,
                              final_metric=metric, data=data, trace=trace,
                              stop_reason="converged")
        # a movement above tol that is at most the floor puts the floor above tol
        at_floor = at_floor + 1 if metric <= floor else 0
        if at_floor == FLOOR_SWEEPS:
            stop_reason = "rounding floor"
            break
        data = nxt

    if stop_reason == "rounding floor":
        why = (f"stopped at its rounding floor in sweep {it}: point movement "
               f"{metric:.3e} <= floor {floor:.3e} for {FLOOR_SWEEPS} sweeps")
    else:
        why = f"did not converge in {config.max_iterations} sweeps"
    warnings.warn(f"fixed-point iteration {why} (best point movement {best[0]:.3e}); "
                  "returning best iterate", RuntimeWarning)
    metric, model, data = best
    return IRKAResult(model=model, converged=False, iterations=len(trace),
                      final_metric=metric, data=data, trace=trace,
                      stop_reason=stop_reason)
