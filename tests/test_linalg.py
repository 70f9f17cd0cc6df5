import warnings

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spsla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import onenormest_inverse, reference_pencil_eig, reference_scaled_left_vectors
from phmor.linalg import (
    LinAlgContractError,
    SingularMatrixError,
    _inverse_norm_estimate,
    _scaled_left_vectors,
    gen_eig,
    nullspace_basis,
    pivoted_rank,
    rank_tolerance,
    solve_complex,
)


def test_solve_complex_matches_numpy():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal(6)
    x = solve_complex(M, b)
    assert np.allclose(M @ x, b)


def test_solve_complex_raises_on_singular():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve_complex(M, np.ones(2))


def test_solve_complex_cond_limit_override():
    # nearly singular but solvable with a relaxed limit
    M = np.diag([1.0, 1e-13])
    with pytest.raises(SingularMatrixError):
        solve_complex(M, np.ones(2))
    x = solve_complex(M, np.ones(2), cond_limit=1e15)
    assert np.allclose(M @ x, np.ones(2))


def test_solve_complex_cond_estimate_exact_on_diagonal():
    # the 1-norm estimator is exact for diagonal matrices
    with pytest.raises(SingularMatrixError) as info:
        solve_complex(np.diag([1.0, 1e-13]), np.ones(2))
    assert info.value.cond_estimate == pytest.approx(1e13, rel=1e-12)


def test_solve_complex_cond_estimate_bounds_exact_value():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    kappa = np.linalg.cond(M, 1)
    with pytest.raises(SingularMatrixError) as info:
        solve_complex(M, np.ones(50), cond_limit=1.0)
    assert kappa / 10 <= info.value.cond_estimate <= kappa * (1 + 1e-10)


def _sparse_complex(n, seed):
    """I plus independent real and imaginary parts, each with about 5 % of
    its entries drawn uniformly from [0, 1) (scipy 1.10's API suffices)."""
    rng = np.random.default_rng(seed)
    re, im = (np.where(rng.random((n, n)) < 0.05, rng.random((n, n)), 0.0)
              for _ in range(2))
    return sp.csr_array(np.eye(n) + re + 1j * im)


def test_solve_complex_sparse_matches_dense():
    M = _sparse_complex(80, 2)
    b = np.random.default_rng(3).standard_normal((80, 2))
    x = solve_complex(M, b)
    assert np.allclose(x, solve_complex(M.toarray(), b), rtol=0, atol=1e-12)


def test_solve_complex_sparse_raises_on_exactly_singular():
    M = sp.csr_array(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        solve_complex(M, np.ones(2))


def test_solve_complex_sparse_cond_estimate_exact_on_diagonal():
    with pytest.raises(SingularMatrixError) as info:
        solve_complex(sp.csr_array(np.diag([1.0, 1e-13])), np.ones(2))
    assert info.value.cond_estimate == pytest.approx(1e13, rel=1e-12)


def test_solve_complex_sparse_cond_estimate_bounds_exact_value():
    M = _sparse_complex(60, 11)
    kappa = np.linalg.cond(M.toarray(), 1)
    with pytest.raises(SingularMatrixError) as info:
        solve_complex(M, np.ones(60), cond_limit=1.0)
    assert kappa / 10 <= info.value.cond_estimate <= kappa * (1 + 1e-10)


def test_solve_complex_sparse_cond_estimate_ignores_global_rng():
    # the one-column estimator draws nothing from numpy's global generator
    M = _sparse_complex(60, 5)
    estimates = []
    for seed in (0, 12345):
        np.random.seed(seed)
        with pytest.raises(SingularMatrixError) as info:
            solve_complex(M, np.ones(60), cond_limit=1.0)
        estimates.append(info.value.cond_estimate)
    assert estimates[0] == estimates[1]


def _random_sparse_complex(n, seed):
    """A sparse complex n x n matrix with random entries, a few per column,
    and a random complex diagonal."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < min(1.0, 3.0 / n)
    M = np.where(mask, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0.0)
    M[np.diag_indices(n)] += rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sp.csr_array(M)


@pytest.mark.parametrize("n", range(1, 61))
def test_inverse_norm_estimate_is_scipy_onenormest(n):
    M = _random_sparse_complex(n, seed=100 + n)
    lu = spsla.splu(sp.csc_array(M))
    y = lu.solve(np.full(n, 1.0 / n, dtype=complex))
    est = _inverse_norm_estimate(lu.solve, lambda V: lu.solve(V, trans="H"), y)
    assert est == onenormest_inverse(M)
    # solve_complex's condition estimate is ||M||_1 times that estimate
    with pytest.raises(SingularMatrixError) as info:
        solve_complex(M, np.ones(n), cond_limit=0.0)
    assert info.value.cond_estimate == spsla.norm(M, 1) * est


@pytest.mark.parametrize("n", range(1, 31))
def test_inverse_norm_estimate_of_a_real_matrix_is_scipy_onenormest(n):
    # a real M (an index-2 partition's saddle matrix) is estimated in real
    # arithmetic, probes included, step for step as onenormest does
    M = sp.csr_array(_random_sparse_complex(n, seed=200 + n).toarray().real
                     + 4.0 * np.eye(n))
    lu = spsla.splu(sp.csc_array(M))
    y = lu.solve(np.full(n, 1.0 / n))
    est = _inverse_norm_estimate(lu.solve, lambda V: lu.solve(V, trans="H"), y)
    assert est == onenormest_inverse(M)


def test_solve_complex_empty_sparse_is_exactly_singular():
    # the dense branch's answer: an empty matrix has no LU factor
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        solve_complex(sp.csr_array((0, 0)), np.ones(0))
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        solve_complex(np.zeros((0, 0)), np.ones(0))


def test_gen_eig_biorthogonal_scaling():
    rng = np.random.default_rng(1)
    n = 7
    L = rng.standard_normal((n, n))
    E = L @ L.T + n * np.eye(n)
    A = rng.standard_normal((n, n))
    res = gen_eig(A, E)
    for lam, v, w in zip(res.eigenvalues, res.right.T, res.left.T):
        assert np.linalg.norm(A @ v - lam * (E @ v)) < 1e-8 * np.linalg.norm(A)
        assert abs(w @ E @ v - 1.0) < 1e-8


def test_nullspace_basis_known_kernel():
    A = np.array([[1.0, 0.0, -1.0]])
    N = nullspace_basis(A)
    assert N.shape == (3, 2)
    assert np.allclose(A @ N, 0.0, atol=1e-12)
    assert np.allclose(N.T @ N, np.eye(2), atol=1e-12)


def test_nullspace_basis_zero_matrix_is_identity():
    N = nullspace_basis(np.zeros((3, 4)))
    assert N.shape == (4, 4)
    assert np.allclose(N.T @ N, np.eye(4))


def test_nullspace_basis_full_rank_is_empty():
    assert nullspace_basis(np.eye(3)).shape == (3, 0)


def test_pivoted_rank_threshold_is_relative_to_leading_pivot():
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((8, 4)))[0]
    for d, rank, cond in (([1.0, 1e-3, 1e-11, 1e-13], 3, 1e11),
                          ([1e5, 1e-6, 1e-8, 0.0], 2, 1e11), ([0.0] * 4, 0, np.inf)):
        got, piv, got_cond = pivoted_rank(U * np.array(d))
        assert got == rank
        assert sorted(piv) == [0, 1, 2, 3]
        assert got_cond == pytest.approx(cond, rel=1e-9)


def test_rank_tolerance_scales_with_sigma():
    A = np.eye(4)
    assert rank_tolerance(A, 10.0) == pytest.approx(40 * np.finfo(float).eps)


def _reference_dense_solve(M, b):
    """SciPy's wrapped LU path plus zgecon: what the dense branch must
    reproduce bit for bit by calling LAPACK directly."""
    from scipy.linalg import lapack, lu_factor, lu_solve

    M = np.asarray(M, dtype=complex)
    lu, piv = lu_factor(M)
    x = lu_solve((lu, piv), np.asarray(b, dtype=complex))
    rcond, _ = lapack.zgecon(lu, np.linalg.norm(M, 1))
    return x, 1.0 / rcond


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("ncols", [None, 3])
def test_solve_complex_dense_bitwise_equals_scipy_reference(kind, ncols):
    rng = np.random.default_rng(17)
    n = 40
    M = rng.standard_normal((n, n))
    if kind == "complex":
        M = M + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n if ncols is None else (n, ncols))
    x_ref, cond_ref = _reference_dense_solve(M, b)
    assert np.array_equal(solve_complex(M, b), x_ref)
    with pytest.raises(SingularMatrixError) as info:
        solve_complex(M, b, cond_limit=1.0)
    assert np.array_equal(info.value.cond_estimate, cond_ref)


@pytest.mark.parametrize("where", ["M", "rhs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_complex_non_finite_input_is_contract_error(where, bad):
    M = np.eye(3, dtype=complex)
    b = np.ones(3)
    if where == "M":
        M[1, 2] = bad
    else:
        b[0] = bad
    with pytest.raises(LinAlgContractError) as info:
        solve_complex(M, b)
    assert not isinstance(info.value, SingularMatrixError)


@pytest.mark.parametrize("where", ["M", "rhs"])
def test_solve_complex_sparse_non_finite_input_is_contract_error(where):
    M = _sparse_complex(20, 4)
    b = np.ones(20)
    if where == "M":
        M.data[0] = np.nan
    else:
        b[3] = np.nan
    with pytest.raises(LinAlgContractError) as info:
        solve_complex(M, b)
    assert not isinstance(info.value, SingularMatrixError)


def test_solve_complex_keeps_caller_matrix():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    M = np.asfortranarray(M)  # the layout LAPACK could factor in place
    before = M.copy()
    solve_complex(M, np.ones(8))
    assert np.array_equal(M, before)


def test_reduced_transfer_eval_rejects_nan_pencil():
    from phmor import GenericLTISystem, PHDAESystem
    from phmor.reducers import ReducedModel
    from phmor.transfer import PolynomialPart

    sys_r = PHDAESystem(E=np.eye(2), J=np.zeros((2, 2)), R=np.eye(2),
                        B=np.ones((2, 1)), P=np.zeros((2, 1)),
                        S=np.zeros((1, 1)), N=np.zeros((1, 1)))
    model = ReducedModel(system=sys_r, method="test", ph_valid=True, w_min_eig=0.0,
                         polynomial=PolynomialPart.constant(np.zeros((1, 1))))
    gen = sys_r.generic
    A = gen.A.copy()
    A[0, 0] = np.nan
    # the realization the model solves with, which PHDAESystem would refuse
    sys_r.__dict__["generic"] = GenericLTISystem(E=gen.E, A=A, B=gen.B, C=gen.C, D=gen.D)
    with pytest.raises(LinAlgContractError) as info:
        model.transfer_eval(1j)
    assert not isinstance(info.value, SingularMatrixError)


@st.composite
def _pencils(draw):
    """Real pencils (A, E), n from 1 to 24: a third with a real spectrum
    (A symmetric, E positive definite), a third general, and a third with
    a singular (possibly zero) E, which gives infinite and nan eigenvalues."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["real", "general", "singular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, E = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    if kind == "real":
        A, E = A + A.T, E @ E.T + n * np.eye(n)
    elif kind == "singular":
        E[:, : draw(st.integers(0, n))] = 0.0
        A[:, : draw(st.integers(0, n))] *= draw(st.sampled_from([0.0, 1.0]))
    return A, E


@settings(max_examples=150, deadline=None)
@given(pencil=_pencils())
def test_gen_eig_is_scipys_eig_on_the_finite_eigenvalues(pencil):
    # any real square pencil, E symmetric or not, singular or not: the
    # finite eigenvalues of scipy's eig, its right vectors and the scaled
    # left vectors, bit for bit
    A, E = pencil
    with warnings.catch_warnings(), np.errstate(invalid="ignore", divide="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        got = gen_eig(A, E)
        lam, VL, VR = reference_pencil_eig(A, E)
        finite = np.isfinite(lam)
        W, _ = reference_scaled_left_vectors(VL[:, finite], E, VR[:, finite])
    for g, r in zip((got.eigenvalues, got.right, got.left), (lam[finite], VR[:, finite], W)):
        assert g.dtype == r.dtype and g.shape == r.shape and g.tobytes() == r.tobytes()


@pytest.mark.parametrize("A, E, match", [
    (np.array([[np.nan]]), np.eye(1), "A contains non-finite entries"),
    (np.eye(1), np.array([[np.inf]]), "E contains non-finite entries"),
    (np.eye(2), np.eye(3), "A and E must be square and of equal shape"),
])
def test_gen_eig_rejects_bad_input(A, E, match):
    with pytest.raises(LinAlgContractError, match=match):
        gen_eig(A, E)


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, any("near-defective" in str(w.message) for w in caught)


@pytest.mark.parametrize("smallest, warns", [(5e-12, True), (2e-11, False), (1.0, False)])
def test_near_defective_decision_is_the_two_norm_rule(smallest, warns):
    # ||E||_2 = 1e3 and ||E||_F ~ 9.95e3: a scale of 2e-11 is not cleared by
    # the Frobenius bound (9.95e-11) but is by the two-norm (1e-11)
    d = np.full(100, 1e3)
    d[-1] = smallest
    E, I = np.diag(d), np.eye(100)
    (W, warned) = _warned(_scaled_left_vectors, I, E, I)
    W_ref, warned_ref = reference_scaled_left_vectors(I, E, I)
    assert warned == warned_ref == warns
    assert W.tobytes() == W_ref.tobytes()


def test_near_defective_warning_fires_on_a_jordan_pencil():
    A, E = np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)
    lam, VL, VR = reference_pencil_eig(A, E)
    (W, warned) = _warned(_scaled_left_vectors, VL, E, VR)
    W_ref, warned_ref = reference_scaled_left_vectors(VL, E, VR)
    assert warned and warned_ref
    assert W.tobytes() == W_ref.tobytes()
    with pytest.warns(RuntimeWarning) as caught:
        gen_eig(A, E)
    assert {str(w.message).split(":")[0] for w in caught} == {"near-defective pencil"}


@settings(max_examples=100, deadline=None)
@given(pencil=_pencils())
def test_near_defective_decision_matches_reference(pencil):
    A, E = pencil
    with np.errstate(invalid="ignore", divide="ignore"):
        lam, VL, VR = reference_pencil_eig(A, E)
    finite = np.isfinite(lam)
    VL, VR = VL[:, finite], VR[:, finite]
    (W, warned) = _warned(_scaled_left_vectors, VL, E, VR)
    W_ref, warned_ref = reference_scaled_left_vectors(VL, E, VR)
    assert warned == warned_ref
    assert W.tobytes() == W_ref.tobytes()


@st.composite
def _bases(draw):
    """Tall real matrices with column scales up to 1e14 and, in half of
    them, a column that nearly repeats another."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 80)), draw(st.integers(1, 20))
    V = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-14, 14, k)
    if k > 1 and draw(st.booleans()):
        j = rng.integers(1, k)
        V[:, j] = 3.0 * V[:, 0] + 1e-13 * np.abs(V[:, 0]).max() * rng.standard_normal(n)
    return V


@settings(max_examples=150, deadline=None)
@given(V=_bases())
def test_pivoted_rank_matches_scipy_pivoted_qr(V):
    _, R, piv = spla.qr(V, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > 1e-12 * d[0])) if d[0] > 0 else 0
    got_rank, got_piv, got_cond = pivoted_rank(V)
    assert got_rank == rank
    assert got_piv.dtype == piv.dtype and np.array_equal(got_piv, piv)
    # the condition ratio of the kept columns, from the same R bit for bit
    want = d[0] / d[rank - 1] if rank else np.inf
    assert got_cond == want
