"""Benchmark pHDAE generators.

* ``mass_spring_chain`` — damped mass-spring-damper chain with a rigid
  bar constraining the first and last masses to equal velocity; a
  semi-explicit index-2 system of order 2k + 1 (positions, velocities,
  one Lagrange multiplier).
* ``mass_spring_chain_b2`` — same chain with an input entering the
  constraint equation, exercising the augmented-feedthrough reduction.
* ``oseen_grid`` — linearized incompressible flow (Oseen equations) on
  a staggered (MAC) grid of an enclosed square cavity: symmetric
  positive definite viscous dissipation, skew-symmetric convection at a
  constant wind, and the divergence-free constraint with one pressure
  degree of freedom pinned; semi-explicit index-2.
* ``random_ph_index1`` — randomized semi-explicit index-1 system with a
  certified positive semidefinite passivity matrix, deterministic for a
  given seed.
* ``mixed_chain`` — the constrained chain rotated so the constraint
  couples to a single state, giving the combined index-1/index-2 block
  form.

The chain and the Oseen flow are assembled once, by
``mass_spring_chain_sparse`` and ``oseen_grid_sparse``, as a
:class:`PHDAESystem` with CSR E, J and R for orders where dense storage
is not an option; ``mass_spring_chain`` and ``oseen_grid`` are the
index-2 partitions of its dense copy.  The physical parameters are the
module constants below.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp

from .linalg import LinAlgContractError
from .systems import PHDAESystem, partition_index1, partition_index2, partition_mixed

__all__ = [
    "MassSpringSpec",
    "OseenSpec",
    "mass_spring_chain",
    "mass_spring_chain_sparse",
    "mass_spring_chain_b2",
    "oseen_grid",
    "oseen_grid_sparse",
    "random_ph_index1",
    "mixed_chain",
]

# chain: masses, spring and damper constants, and the mass the input forces
CHAIN_MASS = 4.0
CHAIN_SPRING = 4.0
CHAIN_DAMPER = 1.0
CHAIN_GROUND_SPRING = 4.0
CHAIN_GROUND_DAMPER = 1.0
CHAIN_INPUT_NODE = 0
# Oseen flow: viscosity and the constant wind (a1, a2)
OSEEN_VISCOSITY = 0.1
OSEEN_WIND = (1.0, 0.0)
# mixed chain: strength of the skew interconnection of the pinned mass
MIXED_COUPLING = 0.5


@dataclasses.dataclass(frozen=True)
class MassSpringSpec:
    """Chain of k masses with nearest-neighbor and ground springs/dampers
    (the ``CHAIN_*`` constants).

    The input is a force on mass ``CHAIN_INPUT_NODE``; the collocated
    output is that mass's velocity.  The first and last masses are linked
    by a rigid (velocity) constraint enforced through one Lagrange
    multiplier.
    """

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise LinAlgContractError("chain needs at least two masses")

    @property
    def n(self):
        return 2 * self.k + 1

    @property
    def n1(self):
        """Dynamic block size: the velocities and positions."""
        return 2 * self.k


def _chain_graph_matrices(spec):
    """Sparse stiffness and damping matrices of the chain."""
    k = spec.k
    main_s = np.full(k, CHAIN_GROUND_SPRING)
    main_s[:-1] += CHAIN_SPRING
    main_s[1:] += CHAIN_SPRING
    off_s = np.full(k - 1, -CHAIN_SPRING)
    main_c = np.full(k, CHAIN_GROUND_DAMPER)
    main_c[:-1] += CHAIN_DAMPER
    main_c[1:] += CHAIN_DAMPER
    off_c = np.full(k - 1, -CHAIN_DAMPER)
    Kmat = sp.diags([off_s, main_s, off_s], [-1, 0, 1], format="csr")
    Cmat = sp.diags([off_c, main_c, off_c], [-1, 0, 1], format="csr")
    return Kmat, Cmat


def _dense_index2(sys, n1, **changes):
    """The index-2 partition, with dynamic block size n1, of the dense copy
    of the sparse system ``sys`` with the matrices in ``changes`` replaced."""
    dense = dataclasses.replace(sys, E=sys.E.toarray(), J=sys.J.toarray(),
                                R=sys.R.toarray(), **changes)
    return partition_index2(dense, n1)


def mass_spring_chain(spec):
    """Constrained mass-spring chain as an index-2 partition of the dense
    copy of :func:`mass_spring_chain_sparse`."""
    return _dense_index2(mass_spring_chain_sparse(spec), spec.n1)


def mass_spring_chain_sparse(spec):
    """The constrained chain as a :class:`PHDAESystem` with CSR E, J, R.

    State (v, p, lam): velocities, positions, multiplier.  In energy
    coordinates E11 = diag(M, K), the dynamics carry
    J11 = [[0, -K], [K, 0]], R11 = diag(C, 0); the rigid-bar constraint
    G v = 0 with G = e_1^T - e_k^T enters through J12 = [G^T; 0].
    """
    k, n = spec.k, spec.n
    Kmat, Cmat = _chain_graph_matrices(spec)
    M = sp.identity(k, format="csr") * CHAIN_MASS
    E = sp.block_diag([M, Kmat, sp.csr_matrix((1, 1))], format="csr")
    G = sp.csr_matrix((np.array([1.0, -1.0]), (np.array([0, k - 1]), np.array([0, 0]))),
                      shape=(k, 1))
    Z = sp.csr_matrix((k, k))
    J = sp.bmat(
        [[None, -Kmat, G],
         [Kmat, None, None],
         [-G.T, None, None]],
        format="csr",
    )
    R = sp.block_diag([Cmat, Z, sp.csr_matrix((1, 1))], format="csr")
    B = np.zeros((n, 1))
    B[CHAIN_INPUT_NODE, 0] = 1.0
    return PHDAESystem(E=E, J=J, R=R, B=B, P=np.zeros((n, 1)),
                       S=np.zeros((1, 1)), N=np.zeros((1, 1)))


def mass_spring_chain_b2(spec, amplitude=1.0):
    """Constrained chain with the input also forcing the constraint row.

    The amplitude enters B in the multiplier equation, so the transfer
    function gains a linear polynomial part with slope
    amplitude^2 / (1/m_1 + 1/m_k).
    """
    sys = mass_spring_chain_sparse(spec)
    B = sys.B.copy()
    B[spec.n1, 0] = amplitude
    return _dense_index2(sys, spec.n1, B=B)


@dataclasses.dataclass(frozen=True)
class OseenSpec:
    """Staggered-grid discretization of the Oseen equations on the unit
    square with no-slip walls, constant wind ``OSEEN_WIND`` and viscosity
    ``OSEEN_VISCOSITY``; ``n_grid`` cells per direction.  The input forces
    the horizontal velocity on the left half of the domain."""

    n_grid: int

    def __post_init__(self):
        if self.n_grid < 2:
            raise LinAlgContractError("need at least a 2 x 2 grid")

    @property
    def n_velocity(self):
        """Dynamic block size: the face velocities."""
        return 2 * (self.n_grid - 1) * self.n_grid

    @property
    def n_pressure(self):
        return self.n_grid ** 2 - 1

    @property
    def n(self):
        return self.n_velocity + self.n_pressure


def _oseen_operators(spec):
    """1-D building blocks for the staggered-grid Oseen operators."""
    g = spec.n_grid
    h = 1.0 / g
    # interior second difference (Dirichlet at both walls, on faces)
    T_int = sp.diags([-np.ones(g - 2), 2 * np.ones(g - 1), -np.ones(g - 2)],
                     [-1, 0, 1])
    # tangential second difference with no-slip ghost reflection
    main = 2 * np.ones(g)
    main[0] = main[-1] = 3.0
    T_tan = sp.diags([-np.ones(g - 1), main, -np.ones(g - 1)], [-1, 0, 1])
    # centered first difference (skew) on faces / centers
    def skew(m):
        return sp.diags([-np.ones(m - 1), np.ones(m - 1)], [-1, 1])
    # cell divergence of face-normal velocities
    d = sp.diags([np.ones(g - 1), -np.ones(g - 1)], [0, -1], shape=(g, g - 1))
    return h, T_int, T_tan, skew, d


def _oseen_blocks(spec):
    g = spec.n_grid
    h, T_int, T_tan, skew, d = _oseen_operators(spec)
    I_g = sp.identity(g)
    I_f = sp.identity(g - 1)
    mu, (a1, a2) = OSEEN_VISCOSITY, OSEEN_WIND

    L_u = (sp.kron(T_int, I_g) + sp.kron(I_f, T_tan)) / h ** 2
    L_v = (sp.kron(T_tan, I_f) + sp.kron(I_g, T_int)) / h ** 2
    R11 = mu * sp.block_diag([L_u, L_v])

    C_u = (a1 * sp.kron(skew(g - 1), I_g) + a2 * sp.kron(I_f, skew(g))) / (2 * h)
    C_v = (a1 * sp.kron(skew(g), I_f) + a2 * sp.kron(I_g, skew(g - 1))) / (2 * h)
    J11 = -sp.block_diag([C_u, C_v])

    Du = sp.kron(d, I_g) / h
    Dv = sp.kron(I_g, d) / h
    Div = sp.hstack([Du, Dv], format="csr")
    # pin the first pressure degree of freedom
    Div = Div[1:, :]
    J12 = Div.T.tocsr()

    # input: horizontal body force on the lower-left quadrant (u-faces
    # with x <= 1/2 and y <= 1/2).  The y-dependence gives the force a
    # rotational component; a force constant in y would be a discrete
    # gradient and the divergence-free projection would annihilate it.
    B1 = np.zeros((spec.n_velocity, 1))
    for i in range(1, g):        # face index (x = i*h)
        if i * h > 0.5 + 1e-12:
            continue
        for j in range(g):       # cell index (y = (j + 1/2)*h)
            if (j + 0.5) * h <= 0.5 + 1e-12:
                B1[(i - 1) * g + j, 0] = 1.0
    return R11, J11, J12, B1


def oseen_grid(spec):
    """Oseen flow as an index-2 partition of the dense copy of
    :func:`oseen_grid_sparse` (use that beyond a few thousand unknowns)."""
    return _dense_index2(oseen_grid_sparse(spec), spec.n_velocity)


def oseen_grid_sparse(spec):
    """The Oseen flow as a :class:`PHDAESystem` with CSR E, J, R; the
    velocities are its first ``spec.n_velocity`` states."""
    R11, J11, J12, B1 = _oseen_blocks(spec)
    n1, n2 = spec.n_velocity, spec.n_pressure
    n = n1 + n2
    E = sp.block_diag([sp.identity(n1), sp.csr_matrix((n2, n2))], format="csr")
    J = sp.bmat([[0.5 * (J11 - J11.T), J12], [-J12.T, None]], format="csr")
    R = sp.block_diag([0.5 * (R11 + R11.T), sp.csr_matrix((n2, n2))], format="csr")
    B = np.vstack([B1, np.zeros((n2, 1))])
    return PHDAESystem(E=E, J=J, R=R, B=B, P=np.zeros((n, 1)),
                       S=np.zeros((1, 1)), N=np.zeros((1, 1)))


def random_ph_index1(n1, n2, m, seed):
    """Random semi-explicit index-1 pHDAE, deterministic per seed.

    The passivity matrix is built as F F^T (hence positive
    semidefinite by construction) with the algebraic dissipation block
    boosted so that J22 - R22 is safely nonsingular; E11 is a shifted
    Gram matrix.  Returns an index-1 partition with generically nonzero
    B2.
    """
    rng = np.random.default_rng(seed)
    n = n1 + n2
    L = rng.standard_normal((n1, n1))
    E11 = L @ L.T + 0.1 * np.eye(n1)
    E = spla.block_diag(E11, np.zeros((n2, n2)))
    F = rng.standard_normal((n + m, n + m))
    W = F @ F.T / (n + m)
    R = W[:n, :n].copy()
    R[n1:, n1:] += 0.5 * np.eye(n2)
    P = W[:n, n:]
    S = 0.5 * (W[n:, n:] + W[n:, n:].T)
    Jr = rng.standard_normal((n, n))
    J = 0.5 * (Jr - Jr.T)
    Nr = rng.standard_normal((m, m))
    N = 0.5 * (Nr - Nr.T)
    B = rng.standard_normal((n, m))
    sys = PHDAESystem(E=E, J=J, R=R, B=B, P=P, S=S, N=N)
    return partition_index1(sys, n1)


def mixed_chain(spec):
    """Combined index-1/index-2 benchmark built from the chain.

    An extra mass is adjoined to the unconstrained chain and pinned to
    zero velocity by one Lagrange multiplier (its constraint block is
    the 1x1 identity, trivially nonsingular), while coupling into the
    chain dynamics through a skew interconnection of strength
    ``MIXED_COUPLING``.  State ordering: (pinned velocity, chain states,
    multiplier), giving a mixed partition with block sizes
    (1, 2k, 1); the dynamic chain block has a nonsingular J22 - R22
    because the ground springs make its stiffness matrix definite.
    """
    k = spec.k
    Kmat, Cmat = (M.toarray() for M in _chain_graph_matrices(spec))
    nc = spec.n1  # chain block (velocities, positions)
    n = 1 + nc + 1
    E = np.zeros((n, n))
    E[0, 0] = CHAIN_MASS
    E[1:1 + k, 1:1 + k] = CHAIN_MASS * np.eye(k)
    E[1 + k:1 + nc, 1 + k:1 + nc] = Kmat
    J = np.zeros((n, n))
    J[1:1 + k, 1 + k:1 + nc] = -Kmat
    J[1 + k:1 + nc, 1:1 + k] = Kmat
    # skew interconnection between the pinned mass and the chain positions
    J[0, 1 + k] = MIXED_COUPLING
    J[1 + k, 0] = -MIXED_COUPLING
    # constraint: multiplier pins the adjoined velocity
    J[0, n - 1] = 1.0
    J[n - 1, 0] = -1.0
    R = np.zeros((n, n))
    R[0, 0] = CHAIN_GROUND_DAMPER
    R[1:1 + k, 1:1 + k] = Cmat
    B = np.zeros((n, 1))
    B[0, 0] = 0.5
    B[1 + CHAIN_INPUT_NODE, 0] = 1.0
    sys = PHDAESystem(E=E, J=J, R=R, B=B, P=np.zeros((n, 1)),
                      S=np.zeros((1, 1)), N=np.zeros((1, 1)))
    return partition_mixed(sys, 1, nc)
