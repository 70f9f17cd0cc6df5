"""Iterative rational Krylov (IRKA-style) fixed-point iteration for
structure-preserving pHDAE reduction.

Starting from an interpolation set, each sweep reduces the system,
computes the reduced model's pole-residue decomposition, and uses the
mirrored poles with the matching residue directions as the next
interpolation set.  At a fixed point the reduced model satisfies
first-order tangential optimality conditions for the H2 error among
structure-preserving models of that order.

Non-convergence within the iteration budget is not an error: the best
iterate seen (smallest point movement) is returned with
``converged=False`` so callers can inspect the trace.
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


@dataclass(frozen=True)
class IRKAConfig:
    """Iteration parameters.

    ``initial`` overrides the default start,
    :meth:`InterpolationData.log_spaced` (r positive real points in
    1e-2..1e4 with all-ones directions).
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


@dataclass
class IRKATrace:
    """Per-iteration history of the fixed-point iteration."""

    iterations: list = field(default_factory=list)

    def append(self, iteration, metric, points, ph_valid, w_min_eig):
        self.iterations.append({
            "iteration": iteration,
            "metric": metric,
            "points": np.array(points, dtype=complex),
            "ph_valid": ph_valid,
            "w_min_eig": w_min_eig,
        })

    def __len__(self):
        return len(self.iterations)

    def export_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iteration,metric,ph_valid,w_min_eig,points\n")
            for rec in self.iterations:
                pts = ";".join(f"{p.real:.16e}{p.imag:+.16e}j" for p in rec["points"])
                fh.write(
                    f"{rec['iteration']},{rec['metric']:.16e},"
                    f"{int(rec['ph_valid'])},{rec['w_min_eig']:.16e},{pts}\n"
                )


@dataclass(frozen=True)
class IRKAResult:
    model: object
    converged: bool
    iterations: int
    final_metric: float
    data: InterpolationData
    trace: IRKATrace


def mirror_and_sanitize(poles, residues=None):
    """Next interpolation set from reduced-model poles and residues.

    Points are the poles mirrored into the open right half-plane; real
    parts within 1e-8 of the imaginary axis are shifted to +1e-8 so the
    shifted systems stay solvable.  The returned set is exactly closed
    under conjugation; residue directions (if given) are paired the same
    way, so the result is directly usable as interpolation data.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if residues is None:
        residues = np.ones((poles.size, 1), dtype=complex)
    residues = np.atleast_2d(np.asarray(residues, dtype=complex))
    finite = np.isfinite(poles) & np.all(np.isfinite(residues), axis=1)
    if not finite.all():
        warnings.warn("dropping non-finite poles from the interpolation set",
                      RuntimeWarning)
        poles, residues = poles[finite], residues[finite]
    if poles.size == 0:
        raise LinAlgContractError("no finite poles available for the next sweep")
    sigma = -poles
    re = np.abs(sigma.real)
    re = np.where(re < AXIS_TOL, AXIS_TOL, re)
    sigma = re + 1j * sigma.imag

    order = np.argsort(np.abs(sigma.imag), kind="stable")
    sigma, residues = sigma[order], residues[order]
    on_axis = np.abs(sigma.imag) <= AXIS_TOL * (1.0 + np.hypot(sigma.real, sigma.imag))
    gap = sigma[None, :] - sigma.conj()[:, None]  # [i, j]: sigma[j] - conj(sigma[i])
    # Python's abs(complex), bit for bit; a partner is a later point at a
    # finite distance, so the rest (NaN included) are masked by inf
    dist = np.hypot(gap.real, gap.imag)
    dist[np.tri(sigma.size, dtype=bool) | np.isnan(dist)] = np.inf
    pts, dirs = [], []
    used = np.zeros(sigma.size, dtype=bool)
    for i, s in enumerate(sigma):
        if used[i]:
            continue
        used[i] = True
        b = residues[i]
        if not np.any(b):
            b = np.ones_like(b)
        if on_axis[i]:
            pts.append(complex(s.real, 0.0))
            dirs.append(b.real if np.any(b.real) else np.abs(b))
        else:
            # consume the nearest (the first nearest) unused conjugate
            # partner and emit an exact pair
            j = int(np.argmin(dist[i]))
            if dist[i, j] < np.inf:
                used[j] = True
                dist[:, j] = np.inf
            s = complex(s.real, abs(s.imag))
            pts.extend([s, s.conjugate()])
            dirs.extend([b, b.conjugate()])
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
    :class:`IRKAResult`; ``converged=False`` means the point movement
    never fell below ``config.tol`` and the best iterate is returned.  The
    first sweep whose mirrored pole set holds fewer than ``config.r`` points
    warns (``RuntimeWarning``); the iteration goes on with that set.
    """
    reducer = REDUCERS[method or default_method(part)]
    m = part.parent.m
    data = config.initial
    if data is None:
        data = InterpolationData.log_spaced(config.r, m)

    trace = IRKATrace()
    best = None  # (metric, model, data, iteration)
    converged = False
    short = False  # whether a sweep has already warned of a short pole set
    model = None
    it = 0
    for it in range(1, config.max_iterations + 1):
        model = reducer(part, data)
        pr = pole_residue(model)
        nxt = mirror_and_sanitize(pr.poles, pr.right)
        if nxt.r < config.r and not short:
            short = True
            warnings.warn(
                f"sweep {it}: {nxt.r} mirrored poles for r = {config.r}; the basis lost "
                "columns or non-finite poles were dropped, so the order falls short",
                RuntimeWarning,
            )
        metric = convergence_metric(data.points, nxt.points)
        trace.append(it, metric, data.points, model.ph_valid, model.w_min_eig)
        if best is None or metric < best[0]:
            best = (metric, model, data, it)
        if metric <= config.tol:
            converged = True
            break
        data = nxt

    if not converged:
        warnings.warn(
            f"fixed-point iteration did not converge in {config.max_iterations} "
            f"sweeps (best point movement {best[0]:.3e}); returning best iterate",
            RuntimeWarning,
        )
        metric, model, data, it = best
        return IRKAResult(model=model, converged=False, iterations=len(trace),
                          final_metric=metric, data=data, trace=trace)
    return IRKAResult(model=model, converged=True, iterations=it,
                      final_metric=trace.iterations[-1]["metric"], data=data,
                      trace=trace)
