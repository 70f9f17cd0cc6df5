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
    COND_LIMIT,
    LinAlgContractError,
    SchurPencil,
    SingularMatrixError,
    solve_complex,
    solve_stacked,
)
from phmor.reducers import ReducedModel
from phmor.transfer import (
    FrequencyGrid,
    PolynomialPart,
    eval_transfer,
    evaluate,
    frequency_response,
    transfer_cond_limit,
)

from oracles import reference_index1_blockdiag, reference_raw_index2

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


# Full models solved by one SuperLU factorization per shift: a sparse
# partition and bare systems, one of them with dense E, J and R (a full
# pattern).
LU_MODELS = {
    "chain-csr": _csr_chain,
    "bare-chain": lambda: mass_spring_chain(MassSpringSpec(k=6)).parent,
    "bare-random-index1": lambda: random_ph_index1(12, 4, 2, 3).parent,
}
REDUCED = {
    "index1-shifted": lambda: reduce_index1_shifted(
        random_ph_index1(12, 4, 2, seed=1), InterpolationData.log_spaced(6, 2)),
    # the deleted block-diagonal route keeps the algebraic block, so its
    # reduced E is singular
    "index1-blockdiag": lambda: reference_index1_blockdiag(
        random_ph_index1(12, 4, 2, seed=2), InterpolationData.log_spaced(4, 2)),
    "index1-galerkin": lambda: reduce_index1_blockdiag(
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


def _raised(solve, *args):
    with pytest.raises(SingularMatrixError) as info:
        solve(*args)
    return info.value


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_schur_estimates_equal_ztrcon(name):
    # a batch whose last shift lies just off an eigenvalue of the ODE: it
    # raises with ztrcon's estimate for that shift, bit for bit, the error
    # the one-shift solve raises there
    ode = _model(name).shifted_solver._ode
    eig = -np.diag(ode._negT)
    k = int(np.argmax(np.abs(eig)))
    near = eig[k] + 1e-14 * (1.0 + np.abs(eig[k]))
    shifts = np.concatenate([1j * np.logspace(-3, 4, 40), eig[:5] + 1.0, [near]])
    F = np.ones((ode._right.shape[0], 1, 1))
    batched = _raised(ode.solve, shifts, F)
    one = _raised(ode._solve_one, near, F[:, 0], COND_LIMIT)
    assert str(batched) == str(one)
    assert batched.cond_estimate == one.cond_estimate == _ztrcon(ode._negT, near)
    assert batched.cond_estimate > COND_LIMIT
    ode.solve(shifts[:-1], F)  # the rest of the batch passes


@st.composite
def _triangles(draw):
    """A SchurPencil of a real matrix drawn upper quasi-triangular (2x2
    blocks give complex pairs), with off-diagonal entries up to 1e4 times
    the diagonal and diagonals down to 1e-12, and shifts near and far
    from its eigenvalues."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    skew = 10.0 ** draw(st.integers(0, 4))
    tiny = 10.0 ** -draw(st.integers(0, 12))
    A = np.triu(skew * rng.standard_normal((n, n)), 1)
    diag = rng.standard_normal(n) * np.where(rng.random(n) < 0.3, tiny, 1.0)
    A[np.diag_indices(n)] = diag
    for i in range(0, n - 1, 3):  # a complex pair every third position
        A[i + 1, i] = -A[i, i + 1]
    pencil = SchurPencil(np.eye(n), A)
    eig = pencil._diag
    near = eig + rng.standard_normal(eig.size) * 10.0 ** rng.integers(-14, 1, eig.size)
    shifts = np.concatenate([near, 1j * 10.0 ** rng.uniform(-3, 3, 4), rng.standard_normal(4)])
    return pencil, shifts


@settings(max_examples=80, deadline=None)
@given(case=_triangles())
def test_comparison_bound_dominates_kappa_and_ztrcon(case):
    pencil, shifts = case
    n = pencil._diag.size
    d = shifts[None, :] - pencil._diag[:, None]
    with np.errstate(all="ignore"):
        batched = pencil._cond_bounds(d)
    for k, s in enumerate(shifts):
        U = -pencil._negT.copy(order="F")
        U[np.diag_indices(n)] = d[:, k]
        one = pencil._cond_bounds(d[:, [k]])[0]
        # the one-shift dtrtrs and the batched recurrence agree to rounding
        assert one == pytest.approx(batched[k], rel=1e-12) or not np.isfinite(one)
        if not np.isfinite(one):
            continue
        inverse = lapack.ztrtri(U)[0]
        kappa = np.abs(U).sum(axis=0).max() * np.abs(np.triu(inverse)).sum(axis=0).max()
        if kappa < 1e8:  # the dense inverse is accurate to about 1e-8 here
            assert one >= kappa * (1.0 - 1e-7)
        # where the bound clears a limit, ztrcon's estimate clears it too
        assert _ztrcon(pencil._negT, s) <= one


@pytest.fixture
def ztrcon_calls(monkeypatch):
    """The matrices passed to lapack.ztrcon, copied."""
    calls = []
    ztrcon = lapack.ztrcon
    monkeypatch.setattr(lapack, "ztrcon", lambda U, *a, **k: calls.append(U.copy())
                        or ztrcon(U, *a, **k))
    return calls


@pytest.mark.filterwarnings("ignore:near-defective pencil")
def test_irka_basis_solves_call_no_ztrcon(monkeypatch, ztrcon_calls):
    # chain k=50, IRKA r=10: every basis shift is cleared by the bound, and
    # each solution is LAPACK's ztrtrs solution, bit for bit
    solved = []
    solve_one = SchurPencil._solve_one

    def recording(self, s, G, cond_limit):
        X = solve_one(self, s, G, cond_limit)
        solved.append((self._negT, s, G, X))
        return X

    monkeypatch.setattr(SchurPencil, "_solve_one", recording)
    result = irka_reduce(mass_spring_chain(MassSpringSpec(k=50)), IRKAConfig(r=10))
    assert result.converged and len(solved) > 50
    assert ztrcon_calls == []
    for negT, s, G, X in solved:
        U = negT.copy(order="F")
        U[np.diag_indices_from(U)] += s
        assert np.array_equal(X, lapack.ztrtrs(U, G)[0])


def test_grid_estimates_only_uncleared_shifts(ztrcon_calls):
    # the 400-point H-inf grid of chain k=6 is cleared by the bound; a shift
    # at an eigenvalue is not, and is the one shift ztrcon estimates
    part = mass_spring_chain(MassSpringSpec(k=6))
    ode = part.shifted_solver._ode
    frequency_response(part, FrequencyGrid.log_spaced())
    assert ztrcon_calls == []
    eig = ode._diag[0]
    shifts = np.concatenate([1j * np.logspace(-2, 2, 40), [eig * (1 + 1e-15)]])
    F = np.ones((ode._right.shape[0], 1, 1))
    error = _raised(ode.solve, shifts, F)
    assert len(ztrcon_calls) == 1
    U = ode._negT.copy(order="F")
    U[np.diag_indices_from(U)] = shifts[-1] - ode._diag
    assert np.array_equal(ztrcon_calls[0], U)
    assert error.cond_estimate == _ztrcon(ode._negT, shifts[-1])


def test_uncleared_shifts_are_decided_in_order(ztrcon_calls):
    # two shifts the bound does not clear, one at an eigenvalue and one
    # just off another: whichever comes first decides the error
    ode = _model("chain").shifted_solver._ode
    eig = -np.diag(ode._negT)
    near = eig[1] * (1 + 1e-14)
    estimate = _ztrcon(ode._negT, near)
    ztrcon_calls.clear()
    axis = 1j * np.logspace(-2, 2, 40)
    F = np.ones((ode._right.shape[0], 1, 1))
    error = _raised(ode.solve, np.concatenate([axis, [near, eig[0], 2j]]), F)
    assert str(error).startswith("matrix is singular to working precision")
    assert error.cond_estimate == estimate
    assert len(ztrcon_calls) == 1
    ztrcon_calls.clear()
    error = _raised(ode.solve, np.concatenate([axis, [eig[0], near, 2j]]), F)
    assert str(error) == "matrix is exactly singular"
    assert ztrcon_calls == []
    # a near-singular shift that ztrcon accepts (its limit is its estimate)
    # does not hide the exact eigenvalue after it
    shifts = np.concatenate([axis, [near, eig[0]]])
    limits = np.full(shifts.size, COND_LIMIT)
    limits[40] = estimate
    assert ode._cond_bounds((near - ode._diag)[:, None])[0] > estimate
    error = _raised(ode.solve, shifts, F, limits)
    assert str(error) == "matrix is exactly singular"
    assert len(ztrcon_calls) == 1


def _pencils(model, points):
    gen = model.generic
    return points[:, None, None] * gen.E - gen.A, gen.B.astype(complex)


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


def test_raw_basis_chain_pencils_raise_at_the_first_point():
    # the large-sparse-reduce workload's reduction at k = 50 projected with
    # the raw saddle basis: its reduced E is numerically singular, so every
    # grid pencil is above the full models' limit, and the first one raises
    spec = MassSpringSpec(k=50)
    model = reference_raw_index2(partition_index2(mass_spring_chain_sparse(spec), spec.n1),
                                 InterpolationData.log_spaced(10, 1))
    grid = FrequencyGrid.log_spaced(1e-4, 1e4, 40)
    _, cond = solve_stacked(*_pencils(model, grid.points))
    assert np.all(cond > transfer_cond_limit(grid.points))
    with pytest.raises(SingularMatrixError) as info:
        frequency_response(model, grid)
    assert str(info.value).startswith("matrix is singular to working precision")
    assert info.value.cond_estimate == cond[0]


def test_reduced_pole_on_the_imaginary_axis_raises_there():
    # E = I, A = J with poles at +-i: the pencil at s = i has an exactly
    # zero pivot; just off it, the estimate exceeds the limit
    sys_r = PHDAESystem(E=np.eye(2), J=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                        R=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]), P=np.zeros((2, 1)),
                        S=np.zeros((1, 1)), N=np.zeros((1, 1)))
    model = ReducedModel(system=sys_r, method="test", ph_valid=True, w_min_eig=0.0,
                         polynomial=PolynomialPart.constant(np.zeros((1, 1))))
    H = model.transfer_evals(np.array([0.5j, 2j]))
    np.testing.assert_allclose(H[:, 0, 0], [s / (s * s + 1) for s in (0.5j, 2j)],
                               rtol=1e-14)
    with pytest.raises(SingularMatrixError, match="^matrix is exactly singular$"):
        frequency_response(model, np.array([0.5j, 1j, 2j]))
    with pytest.raises(SingularMatrixError, match="singular to working precision"):
        model.transfer_eval(1j * (1 + 1e-15))
    with pytest.raises(SingularMatrixError, match="^matrix is exactly singular$"):
        eval_transfer(model, 1j)


def test_tangential_residuals_keep_the_per_point_formula():
    part = _model("chain-b2")
    result = irka_reduce(part, IRKAConfig(r=4))
    data, model = result.data, result.model
    ref = []
    for s, b in zip(data.points, data.directions):
        hb = evaluate(part, s) @ b
        ref.append(np.linalg.norm(hb - model.transfer_eval(s) @ b) / (1.0 + np.linalg.norm(hb)))
    np.testing.assert_allclose(tangential_residuals(part, model, data), ref, rtol=0, atol=1e-13)
