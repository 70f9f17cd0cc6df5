"""Independent references for the reducers.

The index-2 references are built from explicit projectors and a
null-space basis of the constraints, and accept dense or CSR partitions.
The generic-form references reduce a dense partition through its
unstructured realization (E, A, B, C, D) and convert the projection to pH
form at the end, the route the reducers took before they were written as
one congruence.  The H2 reference integrates the error one point at a
time with ``scipy.integrate.quad``.  The sparse condition reference is
``scipy.sparse.linalg.onenormest`` on M^{-1} applied through SuperLU."""

import numpy as np
import scipy.integrate
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spsla

from phmor import GenericLTISystem, PHDAESystem, build_V_generic, build_V_saddle
from phmor.linalg import LinAlgContractError
from phmor.reducers import _finish
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
