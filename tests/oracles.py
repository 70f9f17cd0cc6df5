"""Independent references for the reducers.

The index-2 references are built from explicit projectors and a
null-space basis of the constraints, and accept dense or CSR partitions;
their E11^{-1} J12 and M = J12^T E11^{-1} J12 are formed densely here, not
read from the partition, which forms neither.
The generic-form references reduce a dense partition through its
unstructured realization (E, A, B, C, D) and convert the projection to pH
form at the end, the route the reducers took before they were written as
one congruence.  The H2 reference integrates the error one point at a
time with ``scipy.integrate.quad``.  The sparse condition reference is
``scipy.sparse.linalg.onenormest`` on M^{-1} applied through SuperLU.
The diagnosis reference ranks C1 and O1 by SVD at every finite
eigenvalue, and the IRKA bookkeeping references (conjugate pairing and
the convergence metric) are the loops the package ran before it worked on
whole arrays.  The pencil eigensolver reference is
``scipy.linalg.eig``, the near-defective test's reference takes ||E||_2
by SVD every time, and the index-2 port reference forms the lifted port
blocks at every call.  The raw saddle and generic bases are the bases
before they were orthonormalized (the rank-filtered solves themselves,
with their directions for the generic one).  The block-diagonal
references are the deleted ``mixed-blockdiag`` reducer, which kept the
constrained states and the multipliers and reduced only x2, and the
deleted block-diagonal ``index1-blockdiag`` route, which kept the
algebraic states; both split the raw generic basis and rank with
:func:`orthonormalize`, the rule of phmor's deleted
``linalg.orthonormalize``."""

import warnings

import numpy as np
import scipy.integrate
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spsla

from phmor import GenericLTISystem, PHDAESystem, build_V_generic, build_V_saddle
from phmor.linalg import LinAlgContractError, pivoted_rank
from phmor.reducers import _CONJ_TOL, ProjectionBasis, _finish, _realify
from phmor.systems import congruence, symmetric_skew_split
from phmor.regularization import _PROBES, RankTest, _rank, _spectrum
from phmor.transfer import PolynomialPart, evaluate


def _dense(M):
    return M.toarray() if sp.issparse(M) else M


def constraint_blocks(part):
    """(E11^{-1} J12, M) of an index-2 view, M = J12^T E11^{-1} J12, both
    dense: one Cholesky-based solve with the densified E11, then one
    product."""
    J12 = _dense(part.J12)
    Einv_J12 = spla.solve(_dense(part.E11), J12, assume_a="pos")
    return Einv_J12, J12.T @ Einv_J12


def constraint_lifts(part):
    """(G, H, M^{-1} (B2 - P2), P0, P1) of an index-2 view from the dense
    :func:`constraint_blocks` and a dense LU of M: the lifts
    G = E11^{-1} J12 M^{-1} (B2 - P2) and H = E11^{-1} J12 M^{-T} (B2 + P2),
    and the polynomial part P1 = C2 M^{-1} B2, P0 = D + C1 G - H^T (A11 G + B1)
    with Bi = B_i - P_i and Ci = (B_i + P_i)^T."""
    Einv_J12, M = constraint_blocks(part)
    Bi2, Ci2 = part.B2 - part.P2, (part.B2 + part.P2).T
    gain = np.linalg.solve(M, Bi2)
    G, H = Einv_J12 @ gain, Einv_J12 @ np.linalg.solve(M.T, Ci2.T)
    D = part.parent.S + part.parent.N
    P0 = D + (part.B1 + part.P1).T @ G - H.T @ (_dense(part.A11) @ G + part.B1 - part.P1)
    return G, H, gain, P0, Ci2 @ gain


def constraint_projectors(part):
    """Oblique projectors eliminating the index-2 constraints.

    Returns (pi_l, pi_r) with pi_l = I - E11^{-1} J12 Z J12^T and
    pi_r = I - J12 Z J12^T E11^{-1}, Z = (J12^T E11^{-1} J12)^{-1}, from the
    dense :func:`constraint_blocks`.  They satisfy pi_r E11 pi_l^T = E11 pi_l
    (the projected energy matrix stays symmetric) and pi_l maps onto
    ker(J12^T)-compatible states.
    """
    Einv_J12, M = constraint_blocks(part)
    X = Einv_J12 @ np.linalg.solve(M, _dense(part.J12).T)
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


def point_solves(data, column):
    """The realified columns ``column(sigma, b)`` at each point that
    ``data.pairs`` keeps, one call per point: the per-point reference of
    the reducers' one-call interpolation-set solves."""
    return _realify(np.column_stack([column(data.points[i], data.directions[i])
                                     for i, _ in data.pairs]), data.pairs)


def raw_saddle_basis(part, data):
    """The raw saddle basis: the realified solves of :func:`build_V_saddle`
    at the points ``data.pairs`` keeps, rank-filtered by the same rule but
    not orthonormalized.  Its columns span the orthonormal basis's."""
    B = part.generic.B

    def column(s, b):
        v = -part.solve_shifted(s, B @ b, dynamic=True)
        return v if part.b2_zero else v + part.input_lift @ b

    V = point_solves(data, column)
    return V[:, _rank_filter(V)[0]]


def raw_generic_basis(part, data):
    """The raw generic basis: the realified solves of :func:`build_V_generic`
    at the points ``data.pairs`` keeps, and their realified directions,
    rank-filtered by the same rule but not orthonormalized.  Its columns
    span the orthonormal basis's."""
    B = part.generic.B
    V = point_solves(data, lambda s, b: part.solve_shifted(s, B @ b))
    Bd = _realify(data.directions[[i for i, _ in data.pairs]].T, data.pairs)
    keep, cond = _rank_filter(V)
    return ProjectionBasis(V=V[:, keep], cond=cond, directions=Bd[:, keep])


def _rank_filter(V):
    """(indices, in order, of the columns of V that the reducers' rank rule
    keeps of its normalized columns, their condition estimate)."""
    norms = np.linalg.norm(V, axis=0)
    rank, piv, cond = pivoted_rank(V / np.where(norms > 0, norms, 1.0))
    return np.sort(piv[:rank]), cond


def reference_raw_index2(part, data):
    """:func:`~phmor.reducers.reduce_index2_augmented` projecting with
    :func:`raw_saddle_basis`, the index-2 route before the basis was
    orthonormalized: the same transfer function in exact arithmetic, but
    a reduced E that can be numerically singular."""
    sys_r = congruence(raw_saddle_basis(part, data), part.E11, part.J11, part.R11,
                       *part.lifted_ports)
    method = "index2-galerkin" if part.b2_zero else "index2-augmented"
    return _finish(sys_r, method, part.polynomial_part, augmented_input=not part.b2_zero)


def orthonormalize(V):
    """Orthonormal basis of span(V): the first columns of its pivoted QR
    whose |R_ii| exceed 1e-12 |R_00| (none when R_00 = 0).  Unlike the
    reducers' rule, it ranks the columns as they are, not normalized."""
    if V.shape[1] == 0:
        return V.copy()
    Q, R, _ = spla.qr(V, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    return Q[:, :int(np.sum(d > 1e-12 * d[0])) if d[0] > 0 else 0]


def reference_index1_blockdiag(part, data):
    """The deleted block-diagonal ``index1-blockdiag`` reducer: the
    congruence with diag(V1, I), V1 an orthonormal basis of the x1 rows of
    the raw generic basis, which keeps the algebraic equations.  A pH DAE of
    order r' + n2 (r' the columns V1 keeps) with a singular reduced E, and
    the transfer function of the Galerkin reducer of the x2-eliminated
    ODE wherever both keep every column."""
    sys, basis = part.parent, raw_generic_basis(part, data)
    V1 = orthonormalize(basis.V[:part.n1])
    if V1.shape[1] < basis.r:
        warnings.warn(f"dynamic-block basis rank-deficient: dropped "
                      f"{basis.r - V1.shape[1]} columns", RuntimeWarning)
    T = spla.block_diag(V1, np.eye(part.n2))
    sys_r = congruence(T, sys.E, sys.J, sys.R, sys.B, sys.P, sys.S, sys.N)
    return _finish(sys_r, "index1-blockdiag", part.polynomial_part)


def reference_mixed_blockdiag(part, data):
    """The deleted ``mixed-blockdiag`` reducer of a mixed model, given as
    its index-2 view, whose blocks fix the mixed ones: n3 = n2 multipliers,
    n1 = n3 constrained states and n2 = n1 - n3 dynamic states x2 of the
    view's n1.  It is the congruence with diag(I, V2, I), V2 an orthonormal
    basis of the x2 rows of the raw generic basis, which keeps x1 and x3.  Its
    order is n1 + r' + n3, r' (the dynamic order) the columns V2 keeps."""
    n3 = n1 = part.n2
    n2 = part.n1 - n3
    sys, basis = part.parent, raw_generic_basis(part, data)
    V2 = orthonormalize(basis.V[n1:n1 + n2])
    T = spla.block_diag(np.eye(n1), V2, np.eye(n3))
    sys_r = congruence(T, sys.E, sys.J, sys.R, sys.B, sys.P, sys.S, sys.N)
    return _finish(sys_r, "mixed-blockdiag", PolynomialPart.constant(sys.S + sys.N))


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
    a SuperLU factor of M with its default COLAMD ordering, in real
    arithmetic for a real M and in complex arithmetic otherwise."""
    dtype = float if np.isrealobj(M.data) else complex
    lu = spsla.splu(sp.csc_array(M, dtype=dtype))
    inverse = spsla.LinearOperator(
        M.shape, dtype=dtype, matvec=lu.solve, matmat=lu.solve,
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


def reference_pencil_eig(A, E):
    """Eigenvalues, left and right eigenvectors of (A, E) by scipy."""
    return spla.eig(A, E, left=True, right=True)


def reference_scaled_left_vectors(VL, E, VR):
    """(W, warned): the left-vector scaling of
    :func:`phmor.linalg._scaled_left_vectors`, with ||E||_2 taken by SVD
    at every call."""
    W = VL.conj()
    scale = np.einsum("ij,jk,ki->i", W.T, E, VR)
    warned = bool(np.any(np.abs(scale) < 1e-14 * max(1.0, spla.norm(E, 2))))
    if warned:
        scale = np.where(np.abs(scale) < 1e-300, 1.0, scale)
    return W / scale[None, :], warned


def reference_index2_ports(part):
    """The lifted port blocks (B1~, P1~, S~, N~) of an index-2 view,
    formed from its lifts at each call."""
    sys, A11 = part.parent, part.J11 - part.R11
    AG, AtH = A11 @ part.input_lift, A11.T @ part.output_lift
    sym_d, skew_d = symmetric_skew_split(part.polynomial_part.P0 - (sys.S + sys.N))
    return (part.B1 + 0.5 * (AG - AtH), part.P1 - 0.5 * (AG + AtH),
            sys.S + sym_d, sys.N + skew_d)
