"""frequency_response evaluates every model -- a partition view, a sparse
partition, a bare system, a reduced model -- at all points in batched calls.
Checked against the per-point evaluate, the LAPACK condition estimates
(ztrcon, zgecon) and the per-point singular decisions."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from phmor import (
    InterpolationData,
    PHDAESystem,
    partition_index1,
    partition_index2,
    reduce_index1_blockdiag,
    reduce_index1_shifted,
    reduce_index2,
    reduce_index2_augmented,
    reduce_mixed,
    tangential_residuals,
)
from phmor.benchmarks import (
    MassSpringSpec,
    OseenSpec,
    mass_spring_chain,
    mass_spring_chain_b2,
    mass_spring_chain_sparse,
    mixed_chain,
    oseen_grid,
    random_ph_index1,
)
from phmor.irka import IRKAConfig, irka_reduce
from phmor.linalg import (
    LinAlgContractError,
    SingularMatrixError,
    inverse_norm_estimates,
    solve_complex,
    solve_stacked,
)
from phmor.transfer import FrequencyGrid, evaluate, frequency_response

PARTITIONS = {
    "chain": lambda: mass_spring_chain(MassSpringSpec(k=6)),
    "chain-b2": lambda: mass_spring_chain_b2(MassSpringSpec(k=6)),
    "oseen": lambda: oseen_grid(OseenSpec(n_grid=5)),
    "mixed": lambda: mixed_chain(MassSpringSpec(k=6)),
    **{f"random-index1-{seed}": (lambda seed=seed: random_ph_index1(8, 3, 2, seed))
       for seed in range(2)},
}


def _csr_chain():
    spec = MassSpringSpec(k=6)
    return partition_index2(mass_spring_chain_sparse(spec), spec.n1)


# Full models solved by one LU per shift: a sparse partition and a bare system.
LU_MODELS = {
    "chain-csr": _csr_chain,
    "bare-chain": lambda: mass_spring_chain(MassSpringSpec(k=6)).parent,
}
REDUCED = {
    "index1-shifted": lambda: reduce_index1_shifted(
        random_ph_index1(12, 4, 2, seed=1), InterpolationData.log_spaced(6, 2)),
    # keeps the algebraic block, so its reduced E is singular
    "index1-blockdiag": lambda: reduce_index1_blockdiag(
        random_ph_index1(12, 4, 2, seed=2), InterpolationData.log_spaced(4, 2)),
    "index2": lambda: reduce_index2(_model("chain"), InterpolationData.log_spaced(4, 1)),
    # carries the s P1 term of the polynomial part
    "index2-augmented": lambda: reduce_index2_augmented(
        _model("chain-b2"), InterpolationData.log_spaced(4, 1)),
    "mixed": lambda: reduce_mixed(_model("mixed"), InterpolationData.log_spaced(4, 1)),
}
_MODELS = {}


def _model(name):
    """One model per name for the whole module (a partition builds its
    solver once)."""
    if name not in _MODELS:
        _MODELS[name] = {**PARTITIONS, **LU_MODELS,
                         **{f"reduced-{k}": v for k, v in REDUCED.items()}}[name]()
    return _MODELS[name]


def _per_point(model, points):
    return np.array([np.atleast_2d(evaluate(model, s)) for s in points])


def _padded(points):
    """`points` after 40 points on the imaginary axis, so that a partition
    solves them in one batch (SchurPencil solves fewer than 32 shifts one by
    one)."""
    return np.concatenate([1j * np.logspace(-2, 2, 40), points])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PARTITIONS) + sorted(LU_MODELS)
                            + [f"reduced-{k}" for k in sorted(REDUCED)]),
       log_omegas=st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=48),
       sign=st.sampled_from([-1.0, 1.0]),
       real=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
def test_batched_equals_per_point(name, log_omegas, sign, real):
    model = _model(name)
    points = real + 1j * sign * 10.0 ** np.array(log_omegas)
    H = frequency_response(model, points)
    ref = _per_point(model, points)
    assert H.shape == ref.shape
    assert np.linalg.norm(H - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", sorted(PARTITIONS) + sorted(LU_MODELS)
                         + ["reduced-index2-augmented"])
def test_full_grid_in_batches_equals_per_point(name):
    # 400 points go in two batched calls
    model = _model(name)
    grid = FrequencyGrid.log_spaced()
    H = frequency_response(model, grid)
    ref = _per_point(model, grid.points)
    assert np.linalg.norm(H - ref) <= 1e-12 * np.linalg.norm(ref)


def _ztrcon(negT, s):
    U = negT.copy(order="F")
    U[np.diag_indices_from(U)] += s
    rcond, info = lapack.ztrcon(U)
    return np.inf if info != 0 or rcond == 0.0 else 1.0 / rcond


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_schur_estimates_equal_ztrcon(name):
    ode = _model(name).shifted_solver._ode
    eig = -np.diag(ode._negT)
    # the imaginary axis, and points ever closer to the ODE's eigenvalues
    shifts = np.concatenate([1j * np.logspace(-3, 4, 40)]
                            + [eig + t * (1.0 + np.abs(eig)) for t in (1e-2, 1e-5, 1e-8)])
    got = ode._cond_estimates(shifts[None, :] - ode._diag[:, None])
    ref = np.array([_ztrcon(ode._negT, s) for s in shifts])
    checked = ref <= 1e10
    assert np.count_nonzero(ref[checked] > 1e5) >= 1
    np.testing.assert_allclose(got[checked], ref[checked], rtol=1e-10)
    assert np.all(got[~checked] > 1e9)


def _pencils(model, points):
    E, A, B, _ = model._balanced
    return points[:, None, None] * E - A, B


def _zgecon(M):
    lu, piv, info = lapack.zgetrf(M)
    if info != 0:
        return np.inf
    rcond, info = lapack.zgecon(lu, np.abs(M).sum(axis=0).max())
    return np.inf if info != 0 or rcond == 0.0 else 1.0 / rcond


@pytest.mark.parametrize("log_kappa", [0, 4, 8, 10, 13])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_stacked_estimates_equal_zgecon(n, log_kappa):
    rng = np.random.default_rng(100 * n + log_kappa)

    def unitary():
        return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

    M = np.array([(unitary() * np.logspace(0, -log_kappa, n)) @ unitary() for _ in range(20)])
    B = rng.standard_normal((n, 2)) + 0j
    X, cond = solve_stacked(M, B)
    for Mi, Xi, ci in zip(M, X, cond):
        assert ci == _zgecon(Mi)
        lu, piv, _ = lapack.zgetrf(Mi)
        assert np.array_equal(Xi, lapack.zgetrs(lu, piv, B)[0])


def test_stacked_zero_pivot_is_inf_and_nan_like_solve_complex():
    M = np.array([np.eye(2), np.diag([1.0, 0.0]), np.zeros((2, 2))], dtype=complex)
    B = np.ones((2, 1), dtype=complex)
    X, cond = solve_stacked(M, B)
    assert cond[0] == 1.0 and np.array_equal(X[0], B)
    assert np.all(cond[1:] == np.inf) and np.all(np.isnan(X[1:]))
    for Mi in M[1:]:
        with pytest.raises(SingularMatrixError, match="^matrix is exactly singular$"):
            solve_complex(Mi, B)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_pencil_estimates_equal_zgecon(name):
    model = _model(f"reduced-{name}")
    pencils, B = _pencils(model, np.concatenate([1j * np.logspace(-4, 4, 60),
                                                  np.logspace(-3, 3, 20)]))
    _, cond = solve_stacked(pencils, B)
    np.testing.assert_array_equal(cond, [_zgecon(M) for M in pencils])


def test_estimator_counts_iterations_like_zlacn2():
    # diag(1, 2, ..., n): the first iteration already finds the largest
    # column; with n = 1 no sign vector is formed
    for n in (1, 4):
        d = np.arange(1.0, n + 1.0)

        def solve(X, idx):
            return np.broadcast_to(X, (n, idx.size, X.shape[2])) / d[:, None, None]

        est = inverse_norm_estimates(solve, solve, n, 3)
        assert np.allclose(est, 1.0)


def test_exact_ode_eigenvalue_raises_like_the_loop():
    part = _model("chain")
    eig = -np.diag(part.shifted_solver._ode._negT)
    points = _padded([0.5j, 2j, eig[0], 3j])
    with pytest.raises(SingularMatrixError) as batched:
        frequency_response(part, points)
    with pytest.raises(SingularMatrixError) as loop:
        _per_point(part, points)
    assert str(batched.value) == str(loop.value) == "matrix is exactly singular"


def test_first_failing_point_raises_with_the_loop_estimate(index1_fixture, index2_fixture):
    # both fixtures have their one pole at s = -1; just off it the estimate
    # exceeds the limit, at it the factor has an exact zero.  The index-2
    # fixture is also solved as a CSR partition and as a bare system.
    csr = PHDAESystem(**{name: sp.csr_array(getattr(index2_fixture, name)) if name in "EJR"
                         else getattr(index2_fixture, name) for name in "EJRBPSN"})
    for part in (partition_index1(index1_fixture, 1), partition_index2(index2_fixture, 2),
                 partition_index2(csr, 2), index2_fixture):
        for points in ([0.5j, -1.0 + 1e-14, -1.0], [0.5j, -1.0, -1.0 + 1e-14]):
            points = _padded(points)
            with pytest.raises(SingularMatrixError) as batched:
                frequency_response(part, points)
            with pytest.raises(SingularMatrixError) as loop:
                _per_point(part, points)
            assert str(batched.value) == str(loop.value)
            if loop.value.cond_estimate is not None:
                assert batched.value.cond_estimate == pytest.approx(
                    loop.value.cond_estimate, rel=1e-10)


def test_singular_point_in_second_batch_raises():
    part = _model("chain")
    grid = FrequencyGrid.log_spaced()
    eig = -np.diag(part.shifted_solver._ode._negT)
    points = np.concatenate([grid.points, [eig[0]]])
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        frequency_response(part, points)


def test_nan_point_raises_contract_error(index1_fixture):
    part = partition_index1(index1_fixture, 1)
    for model in (part, index1_fixture, _model("reduced-index2")):
        with pytest.raises(LinAlgContractError) as info:
            frequency_response(model, np.array([1j, np.nan, 2j]))
        assert not isinstance(info.value, SingularMatrixError)
    # the loop would meet the singular point first
    for model in (part, index1_fixture):
        with pytest.raises(SingularMatrixError):
            frequency_response(model, _padded([1j, -1.0, np.nan]))


def test_raw_basis_chain_lstsq_points_match_per_point():
    # the reduced model of the large-sparse-reduce workload at k = 50: its
    # raw-basis pencil is rejected at most grid points
    spec = MassSpringSpec(k=50)
    model = reduce_index2(partition_index2(mass_spring_chain_sparse(spec), spec.n1),
                          InterpolationData.log_spaced(10, 1))
    grid = FrequencyGrid.log_spaced(1e-4, 1e4, 40)
    _, cond = solve_stacked(*_pencils(model, grid.points))
    assert np.count_nonzero(cond > 1e14 * (1.0 + np.abs(grid.points))) > len(grid) // 2
    assert np.array_equal(frequency_response(model, grid), _per_point(model, grid.points))


def test_tangential_residuals_keep_the_per_point_formula():
    part = _model("chain-b2")
    result = irka_reduce(part, IRKAConfig(r=4))
    data, model = result.data, result.model
    ref = []
    for s, b in zip(data.points, data.directions):
        hb = evaluate(part, s) @ b
        ref.append(np.linalg.norm(hb - model.transfer_eval(s) @ b) / (1.0 + np.linalg.norm(hb)))
    np.testing.assert_allclose(tangential_residuals(part, model, data), ref, rtol=0, atol=1e-13)
