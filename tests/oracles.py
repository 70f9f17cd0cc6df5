"""Independent references for the reducers.

The index-2 references are built from explicit projectors and a
null-space basis of the constraints, and accept dense or CSR partitions.
The generic-form references reduce a dense partition through its
unstructured realization (E, A, B, C, D) and convert the projection to pH
form at the end, the route the reducers took before they were written as
one congruence.  The H2 reference integrates the error one point at a
time with ``scipy.integrate.quad``.  The sparse condition reference is
``scipy.sparse.linalg.onenormest`` on M^{-1} applied through SuperLU.
The diagnosis reference ranks C1 and O1 by SVD at every finite
eigenvalue, and the IRKA bookkeeping references (conjugate pairing,
mirroring, the convergence metric) are the loops the package ran before
it worked on whole arrays."""

import warnings

import numpy as np
import scipy.integrate
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spsla

from phmor import GenericLTISystem, PHDAESystem, build_V_generic, build_V_saddle
from phmor.irka import AXIS_TOL
from phmor.linalg import LinAlgContractError
from phmor.reducers import _CONJ_TOL, InterpolationData, _finish
from phmor.regularization import _PROBES, RankTest, _rank, _spectrum
from phmor.transfer import evaluate


def _dense(M):
    return M.toarray() if sp.issparse(M) else M


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


def ph_form(Er, Ar, Br, Cr, Dr):
    """pH form of projected generic matrices (A = J - R, B - P, (B + P)^T,
    S + N); it may fail the passivity inequality."""
    sym_A, skew_A = 0.5 * (Ar + Ar.T), 0.5 * (Ar - Ar.T)
    return PHDAESystem(E=0.5 * (Er + Er.T), J=skew_A, R=-sym_A,
                       B=0.5 * (Br + Cr.T), P=0.5 * (Cr.T - Br),
                       S=0.5 * (Dr + Dr.T), N=0.5 * (Dr - Dr.T))


def generic_index1_shifted(part, data):
    """Shifted index-1 reduction in generic form: with Delta = P0 - D and
    the basis directions Bd, (V^T E V, V^T A V + Bd^T Delta Bd,
    V^T (B - P) - Bd^T Delta, (B + P)^T V - Delta Bd, P0)."""
    sys, poly = part.parent, part.polynomial_part
    basis = build_V_generic(part, data)
    V, Bd = basis.V, basis.directions
    D = sys.S + sys.N
    Delta = poly.P0 - D
    sys_r = ph_form(V.T @ sys.E @ V,
                    V.T @ (sys.J - sys.R) @ V + Bd.T @ Delta @ Bd,
                    V.T @ (sys.B - sys.P) - Bd.T @ Delta,
                    (sys.B + sys.P).T @ V - Delta @ Bd,
                    D + Delta)
    return _finish(sys_r, "index1-shifted", poly)


def generic_index2(part, data):
    """Index-2 reduction in generic form: the ODE on ker(J12^T) driven by
    (u, u'), with Beff = (B1 - P1) + A11 G and Ceff = (B1 + P1)^T - H^T A11
    (G, H the partition's constraint lifts), projected by the saddle basis:
    (V^T E11 V, V^T A11 V, V^T Beff, Ceff V, P0), plus s P1 with constraint
    inputs."""
    V = build_V_saddle(part, data).V
    poly = part.polynomial_part
    A11 = part.A11
    Beff = part.B1 - part.P1 + A11 @ part.input_lift
    Ceff = (part.B1 + part.P1).T - part.output_lift.T @ A11
    sys_r = ph_form(V.T @ part.E11 @ V, V.T @ A11 @ V, V.T @ Beff, Ceff @ V, poly.P0)
    return _finish(sys_r, "index2-augmented", poly, augmented_input=not part.b2_zero)


def quad_h2_error(full, reduced):
    """H2 distance sqrt((1/pi) int_0^inf ||H(i w) - Hr(i w)||_F^2 dw) by
    ``scipy.integrate.quad`` (at most 200 subintervals, its default
    tolerances 1.49e-8), evaluating both models one point at a time."""
    def gap(w):
        diff = np.atleast_2d(evaluate(full, 1j * w)) - np.atleast_2d(evaluate(reduced, 1j * w))
        return np.linalg.norm(diff, "fro")

    val, _ = scipy.integrate.quad(lambda w: gap(w) ** 2, 0.0, np.inf, limit=200)
    return float(np.sqrt(val / np.pi))


def onenormest_inverse(M):
    """||M^{-1}||_1 estimated by ``scipy.sparse.linalg.onenormest`` with
    one column, M^{-1} (and its adjoint, through ``trans="H"``) applied by
    a SuperLU factor of M with its default COLAMD ordering."""
    lu = spsla.splu(sp.csc_array(M, dtype=complex))
    inverse = spsla.LinearOperator(
        M.shape, dtype=complex, matvec=lu.solve, matmat=lu.solve,
        rmatvec=lambda x: lu.solve(x, trans="H"), rmatmat=lambda x: lu.solve(x, trans="H"))
    return spsla.onenormest(inverse, t=1)


def reference_spectrum_tests(gen):
    """C1 and O1 of :func:`phmor.regularization.diagnose`, ranked by SVD at
    every finite eigenvalue (both members of each conjugate pair) plus the
    same random probes: the measured rank is the smallest, the witness the
    first point where it is reached."""
    E, A, B, C = (_dense(M) for M in (gen.E, gen.A, gen.B, gen.C))
    rng = np.random.default_rng(0)
    scale = 1.0 + max(np.linalg.norm(A, 2), np.linalg.norm(E, 2))
    lam_rand = scale * (rng.standard_normal(_PROBES) + 1j * rng.standard_normal(_PROBES))
    points = np.concatenate([_spectrum(A, E)[0], lam_rand])
    tests = []
    for name, stack in (("C1", lambda lam: np.hstack([lam * E - A, B])),
                        ("O1", lambda lam: np.vstack([lam * E - A, C]))):
        ranks = [_rank(stack(lam)) for lam in points]
        worst = int(np.argmin(ranks))  # the first point of minimum rank
        rank = min(ranks)
        tests.append(RankTest(name=name, passed=rank == gen.n, expected_rank=gen.n,
                              measured_rank=rank,
                              witness=points[worst] if rank < gen.n else None))
    return tests


def conjugate_pairs(points, directions):
    """The kept (index, is_real) entries of a conjugate-closed point set,
    pairing each complex point with the first unused point at its
    conjugate (within _CONJ_TOL) that carries the conjugate direction."""
    scale = 1.0 + np.abs(points).max()
    used = np.zeros(len(points), dtype=bool)
    kept = []
    for i, s in enumerate(points):
        if used[i]:
            continue
        used[i] = True
        is_real = abs(s.imag) <= _CONJ_TOL * scale
        if not is_real:
            for j in np.flatnonzero(~used):
                if (abs(points[j] - s.conjugate()) <= _CONJ_TOL * scale
                        and np.allclose(directions[j], directions[i].conjugate(),
                                        atol=_CONJ_TOL, rtol=_CONJ_TOL)):
                    used[j] = True
                    break
            else:
                raise LinAlgContractError(
                    f"interpolation set not closed under conjugation at point {s}")
        kept.append((i, is_real))
    return kept


def mirror_and_sanitize(poles, residues=None):
    """:func:`phmor.irka.mirror_and_sanitize`, each partner found by a
    scalar loop over the unused points."""
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
    pts, dirs = [], []
    used = np.zeros(sigma.size, dtype=bool)
    for i, s in enumerate(sigma):
        if used[i]:
            continue
        used[i] = True
        b = residues[i]
        if not np.any(b):
            b = np.ones_like(b)
        if abs(s.imag) <= AXIS_TOL * (1.0 + abs(s)):
            pts.append(complex(s.real, 0.0))
            dirs.append(b.real if np.any(b.real) else np.abs(b))
        else:
            best, dist = -1, np.inf
            for j in range(i + 1, sigma.size):
                if not used[j]:
                    d = abs(sigma[j] - s.conjugate())
                    if d < dist:
                        best, dist = j, d
            if best >= 0:
                used[best] = True
            s = complex(s.real, abs(s.imag))
            pts.extend([s, s.conjugate()])
            dirs.extend([b, b.conjugate()])
    return InterpolationData(points=np.array(pts), directions=np.vstack(dirs))


def convergence_metric(prev, new):
    """:func:`phmor.irka.convergence_metric` by rebuilding the distance
    list after each greedy match."""
    prev = list(np.atleast_1d(np.asarray(prev, dtype=complex)))
    new = list(np.atleast_1d(np.asarray(new, dtype=complex)))
    if len(prev) != len(new):
        return np.inf
    worst = 0.0
    while prev:
        dist = np.array([[abs(p - q) for q in new] for p in prev])
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, dist[i, j] / (1.0 + abs(prev[i])))
        prev.pop(i)
        new.pop(j)
    return float(worst)


def normalize_phases(lefts, rights):
    """The phase normalization of :func:`phmor.transfer.pole_residue`, one
    pole at a time: the largest-magnitude entry of each right residue
    becomes real and positive, and the left residue takes the phase."""
    lefts, rights = lefts.copy(), rights.copy()
    for i in range(rights.shape[0]):
        b = rights[i]
        k = int(np.argmax(np.abs(b)))
        if np.abs(b[k]) > 0:
            phase = b[k] / np.abs(b[k])
            rights[i] = b / phase
            lefts[i] = lefts[i] * phase
    return lefts, rights
