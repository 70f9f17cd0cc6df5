"""Independent references for the index-2 reducers, built from explicit
projectors and a null-space basis of the constraints.  They accept dense
or CSR partitions."""

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp

from phmor import GenericLTISystem
from phmor.linalg import LinAlgContractError


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
