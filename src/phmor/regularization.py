"""Diagnosis and regularization of pHDAE systems.

Systems coming from automated modeling are often not in one of the
semi-explicit forms the reducers need: the pencil may contain a
non-dynamic singular part, the state may not be ordered by index, or
the feedthrough may be deficient.  This module provides

* ``diagnose`` — rank tests for controllability/observability at
  infinity and along the finite spectrum, pencil regularity, and an
  index <= 1 certificate, in O(n^3): one QZ with both eigenvector sets
  settles most eigenvalues, and an SVD ranks the rest;
* ``remove_singular_part`` — splits off states that appear in no
  equation (common nullspace of E, J, R) by an orthogonal congruence;
* ``condensed_form`` — staircase congruence ordering the state into
  dynamic, dissipative-algebraic, skew-algebraic, index-2 coupled and
  free blocks, with rank-gap reporting;
* ``output_feedback_regularize`` — closes the loop u = -K y, which
  absorbs a nonsingular feedthrough into the dynamics and returns a
  pHDAE without input terms.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp

from .linalg import LinAlgContractError, nullspace_basis, pencil_eig, rank_tolerance
from .systems import PHDAESystem, _dense, congruence

__all__ = [
    "DIAGNOSE_MAX_N",
    "RankTest",
    "DiagnosisReport",
    "CondensedForm",
    "diagnose",
    "remove_singular_part",
    "condensed_form",
    "condensed_report",
    "output_feedback_regularize",
]


#: Largest order whose finite spectrum :func:`diagnose` computes, and above
#: which ``phmor validate`` skips the diagnosis.  The O(n^3) diagnosis of a
#: chain takes 1.2, 6.5, 16 and 39 s at n = 401, 601, 801 and 1001 (one
#: BLAS thread, 2-vCPU VM), against 24.5 s at n = 399 for the earlier
#: O(n^4) one; 801 is the largest of those orders that is no slower.
DIAGNOSE_MAX_N = 801
_PROBES = 16  # random probe points of diagnose, drawn with seed 0
_GAP_WARN = 10.0  # condensed_form warns about a staircase rank gap below this


@dataclass(frozen=True)
class RankTest:
    """Outcome of a single rank condition: expected vs measured rank and
    the worst evaluation point (for spectrum-dependent tests)."""

    name: str
    passed: bool
    expected_rank: int
    measured_rank: int
    witness: complex | None = None

    @property
    def gap(self):
        return self.expected_rank - self.measured_rank


@dataclass(frozen=True)
class DiagnosisReport:
    """Results of the regularity/index diagnosis of a descriptor system."""

    pencil_regular: bool
    index_leq1: bool
    tests: tuple

    def __getitem__(self, name):
        for t in self.tests:
            if t.name == name:
                return t
        raise KeyError(name)

    def summary(self):
        lines = [
            f"pencil regular:   {'yes' if self.pencil_regular else 'NO'}",
            f"index at most 1:  {'yes' if self.index_leq1 else 'NO'}",
        ]
        for t in self.tests:
            status = "ok " if t.passed else "FAIL"
            wit = f" at lambda={t.witness:.6g}" if (t.witness is not None and not t.passed) else ""
            lines.append(
                f"  [{status}] {t.name}: rank {t.measured_rank}/{t.expected_rank}{wit}"
            )
        return "\n".join(lines)


def _rank(M):
    return _rank_gap(M, spla.svdvals(M))[0] if M.size else 0


def _spectrum(A, E):
    """The finite eigenvalues (|lambda| < 1e10) of the pencil (A, E) with
    their left vectors (columns of VL, w^H A = lambda w^H E) and right
    vectors (columns of VR), from one QZ: ``(lam, VL, VR)``."""
    lam, VL, VR = pencil_eig(A, E)
    finite = np.isfinite(lam) & (np.abs(lam) < 1e10)
    return lam[finite], VL[:, finite], VR[:, finite]


def _rank_floors(lam, VL, VR, A, E, B, C, norms, probe):
    """Lower bounds on the numerical rank of [lambda_i E - A, B] (C1) and of
    [lambda_i E - A; C] (O1) at each eigenvalue, as two integer arrays:
    n where the one-vector screen proves full rank, n - 1 at a simple
    eigenvalue it does not clear, 0 at an eigenvalue too close to another
    (or too ill-conditioned) for either statement.  ``norms`` holds
    ||A||_2 and ||E||_2, ``probe`` the regularity probe z and the smallest
    singular value of z E - A.

    With u the unit roundoff, K = lambda E - A and s = ||A|| + |lambda| ||E||
    >= ||K||, :func:`_rank` calls [K, B] rank deficient when its n-th
    singular value is at most t = (n + m) u (s + ||B||), i.e. when some unit
    x has ||x^H K|| <= t and ||x^H B|| <= t.  If sigma_{n-1}(K) >= g, both
    x and the computed unit left vector w (residual rho = ||w^H K||) lie
    within (t + rho) / g of the left singular vector of sigma_n(K), so
    ||w^H B|| <= t + 2 (t + rho) ||B|| / g.  A larger ||w^H B|| therefore
    proves full rank; O1 is the same with the right vector v, ||K v|| and
    ||C v||.  The estimate of sigma_{n-1}(K) is first order: a
    perturbation of A that gives lambda a second eigenvector must move
    another eigenvalue onto it, which takes at least
    |lambda - lambda_j| / (kappa + kappa_j), kappa = ||w|| ||v|| / |w^H E v|
    each eigenvalue's condition number; and a nearly singular pencil (a
    tiny algebraic pivot) keeps sigma_{n-1}(K) small with no eigenvalue
    near, which sigma_min(z E - A) at the probe shows, scaled by
    min(1, |z| / |lambda|) for the growth of an index-2 part away from z.
    g is the smallest of these over the other finite eigenvalues, divided
    by 10 for the neglected higher-order terms.  Where g >= sqrt(u) s (far
    above t), sigma_{n-1} of the stack exceeds the rank tolerance and the
    rank is at least n - 1.  An eigenvalue in a cluster (a repeated
    eigenvalue, whose geometric multiplicity may exceed the port count
    whatever its computed vectors say), a defective one, and one with
    kappa ||E|| >= 1/sqrt(u) fail that and get the floor 0."""
    n = A.shape[0]
    u = np.finfo(float).eps
    nA, nE = norms
    VL, VR = VL / np.linalg.norm(VL, axis=0), VR / np.linalg.norm(VR, axis=0)
    W = VL.conj().T
    WE = W @ E
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = 1.0 / np.abs(np.sum(WE * VR.T, axis=1))
        dist = np.abs(lam[:, None] - lam[None, :]) / (kappa[:, None] + kappa[None, :])
    np.fill_diagonal(dist, np.inf)
    z, sigma_z = probe
    with np.errstate(divide="ignore"):
        g = np.minimum(dist.min(axis=1, initial=np.inf),
                       sigma_z * np.minimum(1.0, np.abs(z) / np.abs(lam))) / 10.0
    s = nA + np.abs(lam) * nE
    simple = (g >= np.sqrt(u) * s) & (kappa * nE < 1.0 / np.sqrt(u))

    def floors(rho, seen, port, size):
        nP = spla.norm(port, 2) if port.size else 0.0
        t = (n + size) * u * (s + nP)
        with np.errstate(divide="ignore", invalid="ignore"):
            cleared = seen > t + 2.0 * (t + rho) * nP / g
        return np.where(simple & cleared, n, np.where(simple, n - 1, 0))

    c1 = floors(np.linalg.norm(lam[:, None] * WE - W @ A, axis=1),
                np.linalg.norm(W @ B, axis=1), B, B.shape[1])
    o1 = floors(np.linalg.norm((E @ VR) * lam - A @ VR, axis=0),
                np.linalg.norm(C @ VR, axis=0), C, C.shape[0])
    return c1, o1


def diagnose(model):
    """Rank-based regularity diagnosis of a descriptor realization.

    Reads ``model.generic`` (a :class:`GenericLTISystem` returns itself),
    densified once if its matrices are sparse.  The finite-spectrum
    conditions (C1/O1) are checked at every finite pencil eigenvalue, both
    members of each conjugate pair (none above order ``DIAGNOSE_MAX_N``),
    plus ``_PROBES`` random complex points drawn with a fixed seed; the
    conditions at infinity (C2/O2) use nullspace bases of E.
    ``index_leq1`` certifies that the pencil has differentiation index at
    most one.

    The rank at a point is that of an SVD (:func:`_rank`); a test's
    measured rank is the smallest over its points, its witness the first
    point that reaches it.  The eigenvalues and both vector sets come from
    one QZ, and :func:`_rank_floors` bounds the rank at each eigenvalue
    from below: full rank where the one-vector screen clears it, n - 1 at
    another simple eigenvalue, 0 at a clustered or ill-conditioned one.
    Points of floor 0 are ranked first; the others are ranked in order
    only while they could still lower the rank, so the first simple
    eigenvalue that fails ends the search.  At a probe of a regular pencil
    (decided by the probe loop) lambda E - A is nonsingular, so C1 and O1
    hold there; the probes are ranked only for a singular pencil, where
    every point is ranked.  The cost is O(n^3) unless many eigenvalues
    cluster: one QZ with vectors and a few SVDs.
    """
    gen = model.generic
    E, A, B, C = _dense(gen.E), _dense(gen.A), gen.B, gen.C
    n = gen.n
    rng = np.random.default_rng(0)
    norms = spla.norm(A, 2), spla.norm(E, 2)
    scale = 1.0 + max(norms)

    if n > DIAGNOSE_MAX_N:
        lam = np.array([], dtype=complex)
        VL = VR = np.zeros((n, 0), dtype=complex)
    else:
        lam, VL, VR = _spectrum(A, E)
    lam_rand = scale * (rng.standard_normal(_PROBES) + 1j * rng.standard_normal(_PROBES))
    points = np.concatenate([lam, lam_rand])

    # pencil regularity: det(lambda E - A) != 0 somewhere; the probe found
    # keeps the smallest singular value there
    probe = None
    for lam_r in lam_rand:
        M = lam_r * E - A
        sv = spla.svdvals(M)
        if (_rank_gap(M, sv)[0] if M.size else 0) == n:  # _rank(M), keeping sv
            probe = lam_r, sv[-1] if sv.size else 0.0
            break
    regular = probe is not None

    def spectrum_test(name, stack, floors):
        # floors[k] is a lower bound on the rank at points[k].  A point of
        # floor 0 is ranked whatever else is found, so those go first; the
        # rest are ranked in order while they could still lower the rank
        ranks = floors.copy()  # the rank where known, else the floor
        known = floors == n
        for k in np.flatnonzero(floors == 0):
            ranks[k], known[k] = _rank(stack(points[k])), True
        ahead = np.minimum.accumulate(ranks[::-1])[::-1]
        worst_rank, worst_lam = n, None
        for k, lam_k in enumerate(points):
            if worst_rank <= ahead[k]:  # no later point can go lower
                break
            if not known[k] and ranks[k] < worst_rank:
                ranks[k] = _rank(stack(lam_k))
            if ranks[k] < worst_rank:
                worst_rank, worst_lam = ranks[k], lam_k
        return RankTest(name=name, passed=worst_rank == n,
                        expected_rank=n, measured_rank=worst_rank,
                        witness=worst_lam)

    if regular:
        probes = np.full(_PROBES, n)
        f_c1, f_o1 = (np.concatenate([f, probes])
                      for f in _rank_floors(lam, VL, VR, A, E, B, C, norms, probe))
    else:  # a singular pencil: rank at every point
        f_c1 = f_o1 = np.zeros(points.size, dtype=int)
    c1 = spectrum_test("C1", lambda lam_k: np.hstack([lam_k * E - A, B]), f_c1)
    o1 = spectrum_test("O1", lambda lam_k: np.vstack([lam_k * E - A, C]), f_o1)

    S_inf = nullspace_basis(E)       # right nullspace of E
    T_inf = nullspace_basis(E.T)     # left nullspace of E
    r_c2 = _rank(np.hstack([E, A @ S_inf, B]))
    c2 = RankTest(name="C2", passed=r_c2 == n, expected_rank=n, measured_rank=r_c2)
    r_o2 = _rank(np.vstack([E, T_inf.T @ A, C]))
    o2 = RankTest(name="O2", passed=r_o2 == n, expected_rank=n, measured_rank=r_o2)

    core = T_inf.T @ A @ S_inf
    index_leq1 = (
        core.shape[0] == core.shape[1]
        and (core.size == 0 or _rank(core) == core.shape[0])
    )

    report = DiagnosisReport(
        pencil_regular=regular,
        index_leq1=bool(index_leq1),
        tests=(c1, c2, o1, o2),
    )
    if not regular:
        warnings.warn("pencil appears singular at all probe points", RuntimeWarning)
    return report


def _dense_system(sys):
    """``sys`` with dense E, J and R: a CSR system's dense copy, as
    :func:`~phmor.containers.load_phdae` would read it."""
    if not any(sp.issparse(M) for M in (sys.E, sys.J, sys.R)):
        return sys
    return dataclasses.replace(sys, E=_dense(sys.E), J=_dense(sys.J), R=_dense(sys.R))


def remove_singular_part(sys):
    """Split off states appearing in no dynamic or algebraic equation.

    States in the common nullspace of E, J and R (one stacked SVD)
    either couple to the input only through B (they move to the tail of
    the kept block as pure input constraints) or not at all (dropped).
    Returns ``(subsystem, dropped, V)`` with V orthogonal and
    V^T (.) V / V^T B reproducing the transformed system; the leading
    ``sys.n - dropped`` states form the subsystem.  A CSR system is
    densified first.
    """
    sys = _dense_system(sys)
    K = nullspace_basis(np.vstack([sys.E, sys.J, sys.R]))
    k = K.shape[1]
    if k == 0:
        return sys, 0, np.eye(sys.n)
    # complement of the common nullspace
    U1 = nullspace_basis(K.T)
    V1 = np.hstack([U1, K])
    P2 = K.T @ sys.P
    if np.any(np.abs(P2) > 1e-10 * (1.0 + spla.norm(sys.P, 2))):
        raise LinAlgContractError(
            "nonzero P rows on states outside range(E, J, R); "
            "the passivity matrix would be indefinite"
        )
    B2 = K.T @ sys.B
    r2 = _rank(B2)
    if r2 > 0:
        # rotate the nullspace block so input-coupled rows come first
        U, _, _ = spla.svd(B2)
        V1 = V1 @ spla.block_diag(np.eye(sys.n - k), U)
    dropped = k - r2
    sub = congruence(V1[:, :sys.n - dropped], sys.E, sys.J, sys.R, sys.B, sys.P, sys.S, sys.N)
    return sub, dropped, V1


@dataclass(frozen=True)
class CondensedForm:
    """Staircase congruence of a pHDAE.

    Block sizes (in order): dynamic (E11 > 0), dissipative algebraic
    (R22 > 0), skew algebraic (J33 nonsingular), index-2 coupled
    (rows of [J41 J42] independent), and free states.  ``system`` is the
    transformed pHDAE V^T (.) V; ``rank_gaps`` records, per staircase
    step, the ratio between the smallest accepted and largest rejected
    singular value (large is good; inf if nothing was rejected).
    """

    system: PHDAESystem
    V: np.ndarray
    block_sizes: tuple
    rank_gaps: tuple
    warnings: tuple


def _rank_gap(M, s, scale=None):
    """Numerical rank of M from its singular values s (or, for a symmetric
    psd M, its eigenvalues), sorted descending, and the rank gap: the ratio
    of the smallest value kept to the largest dropped (inf if none is).
    The rank tolerance is relative to ``scale``, by default to s[0]."""
    rank = int(np.sum(s > rank_tolerance(M, max(s[0], 0.0) if scale is None else scale)))
    gap = s[rank - 1] / s[rank] if 0 < rank < s.size and s[rank] > 0 else np.inf
    return rank, gap


def _split_psd(M, scale=None):
    """Eigendecomposition split of a symmetric psd matrix: returns
    (Q, rank, gap) with the positive eigenvector block first, the rank
    relative to ``scale`` (see :func:`_rank_gap`).  The rank is decided on
    the eigenvalues-only call: the call with eigenvectors leaves a zero
    eigenvalue above the rank tolerance n eps ||M|| (up to 3.6e-15 for a
    rotated diag(I4, 0) of order 7), the eigenvalues-only one well below
    it."""
    if M.size == 0:
        return np.eye(M.shape[0]), 0, np.inf
    S = 0.5 * (M + M.T)
    w, Q = spla.eigh(S)
    return (Q[:, np.argsort(w)[::-1]],
            *_rank_gap(M, spla.eigh(S, eigvals_only=True)[::-1], scale))


def _split_range(M):
    """Orthogonal split of the rows of M into range(M) and its orthogonal
    complement: (Q, rank, gap) with Q the left singular vectors (I at rank
    0).  For a skew M the complement is its null space."""
    if M.size == 0:
        return np.eye(M.shape[0]), 0, np.inf
    U, s, _ = spla.svd(M)
    rank, gap = _rank_gap(M, s)
    return (U if rank else np.eye(M.shape[0])), rank, gap


def condensed_form(sys):
    """Orthogonal staircase congruence separating the system by index.

    Steps: (1) eigendecompose E to isolate the dynamic block, (2) split
    the algebraic block of R into definite and zero parts, with its rank
    relative to ||R||_2 of the whole system (so that a block of rounding
    noise left by step 1 has rank 0), (3) split the
    remaining skew block of J into nonsingular and zero parts, (4) row
    compress the couplings of the leftover states into the earlier
    blocks.  Each step is an orthogonal :func:`~phmor.systems.congruence`
    of the trailing states, so the result is a pHDAE with the same
    transfer function.  Small rank gaps (below ``_GAP_WARN``) are
    reported — they mean the block sizes are decided by nearly-tied
    singular values.  A CSR system is densified first.
    """
    sys = _dense_system(sys)
    n = sys.n
    V, cur = np.eye(n), sys
    sizes, gaps, notes = [], [], []

    def step(split, block):
        """Split the trailing states by ``split(block)`` and project the
        system; returns the number of states placed so far."""
        nonlocal V, cur
        Qt, size, gap = split(block)
        off = n - Qt.shape[0]
        Q = spla.block_diag(np.eye(off), Qt)
        V = V @ Q
        cur = congruence(Q, cur.E, cur.J, cur.R, cur.B, cur.P, cur.S, cur.N)
        sizes.append(size)
        gaps.append(gap)
        return off + size

    off = step(_split_psd, sys.E)  # 1: dynamic block from E
    R_norm = spla.norm(sys.R, 2) if n else 0.0
    # 2: dissipative algebraic block, its rank on the scale of the whole R
    off = step(lambda M: _split_psd(M, R_norm), cur.R[off:, off:])
    off3 = step(_split_range, cur.J[off:, off:])  # 3: skew algebraic block
    step(_split_range, cur.J[off3:, :off])  # 4: index-2 couplings [J41 J42]
    sizes.append(n - sum(sizes))

    for i, g in enumerate(gaps):
        if g < _GAP_WARN:
            notes.append(
                f"staircase step {i + 1} decided a rank with gap {g:.2f} "
                f"(below {_GAP_WARN:g}); block sizes may be unreliable"
            )
            warnings.warn(notes[-1], RuntimeWarning)

    return CondensedForm(
        system=cur,
        V=V,
        block_sizes=tuple(sizes),
        rank_gaps=tuple(gaps),
        warnings=tuple(notes),
    )


def condensed_report(cf):
    """Human-readable staircase report (block sizes and rank gaps)."""
    names = ("dynamic", "algebraic (dissipative)", "algebraic (skew)",
             "index-2 coupled", "free")
    lines = ["condensed form block sizes:"]
    for name, size in zip(names, cf.block_sizes):
        lines.append(f"  {name:<24s} {size}")
    lines.append("rank gaps per staircase step: "
                 + ", ".join("inf" if not np.isfinite(g) else f"{g:.3g}"
                             for g in cf.rank_gaps))
    for w in cf.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def output_feedback_regularize(sys, K):
    """Close the loop u = -K y (K symmetric positive definite).

    The closed-loop system E x' = (J_cl - R_cl) x is again a pHDAE with
    the same E and Hamiltonian but no input/output terms:
    A_cl = (J - R) - (B - P)(K^{-1} + S + N)^{-1}(B + P)^T.  Requires
    K^{-1} + S + N to be nonsingular; feedback makes many otherwise
    deficient feedthroughs regular.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape[0] != K.shape[1] or K.shape[0] != sys.m:
        raise LinAlgContractError(f"K must be {sys.m} x {sys.m}")
    if spla.norm(K - K.T, 2) > 1e-12 * (1.0 + spla.norm(K, 2)):
        raise LinAlgContractError("K must be symmetric")
    if spla.eigh(K, eigvals_only=True, subset_by_index=[0, 0])[0] <= 0:
        raise LinAlgContractError("K must be positive definite")
    Kinv = spla.inv(K)
    T = Kinv + sys.S + sys.N
    A_cl = (sys.J - sys.R) - (sys.B - sys.P) @ spla.solve(T, (sys.B + sys.P).T)
    sym_A, J_cl = 0.5 * (A_cl + A_cl.T), 0.5 * (A_cl - A_cl.T)
    m0 = np.zeros((sys.n, 0))
    return PHDAESystem(
        E=sys.E,
        J=J_cl,
        R=-sym_A,
        B=m0,
        P=m0,
        S=np.zeros((0, 0)),
        N=np.zeros((0, 0)),
    )
