import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phmor import (
    PartitionError,
    PHDAESystem,
    as_generic,
    congruence,
    hamiltonian,
    partition_index1,
    partition_index2,
    partition_mixed,
    symmetric_skew_split,
    validate_structure,
)
from phmor.benchmarks import OseenSpec
from phmor.linalg import LinAlgContractError

from oracles import (constraint_blocks, constraint_lifts, constraint_projectors,
                     projector_oracle_index2)


def _fixture_matrices():
    return dict(
        E=np.diag([1.0, 0.0]),
        J=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        R=np.diag([0.0, 1.0]),
        B=np.array([[2.0], [1.0]]),
        P=np.zeros((2, 1)),
        S=np.zeros((1, 1)),
        N=np.zeros((1, 1)),
    )


def test_validate_structure_passes_on_fixture(index1_fixture):
    report = validate_structure(index1_fixture)
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_validate_structure_flags_indefinite_W():
    mats = _fixture_matrices()
    mats["R"] = np.diag([0.0, -1.0])
    report = validate_structure(PHDAESystem(**mats))
    assert not report.passed
    check = report["W_psd"]
    assert not check.passed
    assert check.violation == pytest.approx(1.0, abs=1e-12)


def test_validate_structure_flags_nonskew_J():
    mats = _fixture_matrices()
    mats["J"] = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = validate_structure(PHDAESystem(**mats))
    assert not report["J_skew"].passed


def test_hamiltonian_quadratic(index1_fixture):
    x = np.array([3.0, 5.0])
    assert hamiltonian(index1_fixture, x) == pytest.approx(4.5)
    with pytest.raises(Exception):
        hamiltonian(index1_fixture, np.ones(3))


def test_symmetric_skew_split_exact():
    M = np.array([[1.0, 2.0], [0.0, 3.0]])
    sym, skew = symmetric_skew_split(M)
    assert np.allclose(sym, sym.T)
    assert np.allclose(skew, -skew.T)
    assert np.allclose(sym + skew, M)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), m=st.integers(1, 3),
       r=st.integers(1, 10), w_rank=st.integers(0, 13))
def test_congruence_keeps_passivity(seed, n, m, r, w_rank):
    # W = [[R, P], [P^T, S]] >= 0 of rank w_rank (at most n + m), and any T
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n + m, min(w_rank, n + m)))
    W = X @ X.T
    Y, K = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    T = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-3, 3, r)
    sys_r = congruence(T, Y @ Y.T, K - K.T, W[:n, :n], rng.standard_normal((n, m)),
                       W[:n, n:], W[n:, n:], np.zeros((m, m)))
    assert sys_r.n == r and sys_r.m == m
    Wr = sys_r.passivity_matrix
    assert np.linalg.eigvalsh(Wr)[0] >= -1e-12 * np.linalg.norm(Wr, 2)
    E, J, R = sys_r.E, sys_r.J, sys_r.R
    assert np.array_equal(E, E.T) and np.array_equal(R, R.T) and np.array_equal(J, -J.T)
    assert np.allclose(E, T.T @ Y @ Y.T @ T, rtol=1e-12, atol=1e-12 * np.abs(E).max())


def test_as_generic_transfer_ingredients(index1_fixture):
    gen = as_generic(index1_fixture)
    assert np.allclose(gen.A, index1_fixture.J - index1_fixture.R)
    assert np.allclose(gen.C, index1_fixture.B.T)
    assert gen.D.shape == (1, 1)


def test_matrices_are_frozen(index1_fixture):
    with pytest.raises(ValueError):
        index1_fixture.E[0, 0] = 5.0


def test_partition_index1_blocks(index1_fixture):
    part = partition_index1(index1_fixture, 1)
    assert part.n1 == 1 and part.n2 == 1
    assert part.A22 == pytest.approx(-1.0)
    assert not part.b2_zero


def test_partition_index1_rejects_singular_A22():
    mats = _fixture_matrices()
    mats["R"] = np.zeros((2, 2))
    mats["J"] = np.zeros((2, 2))  # A22 = 0
    with pytest.raises(PartitionError):
        partition_index1(PHDAESystem(**mats), 1)


def test_partition_index1_empty_algebraic_block(index1_fixture):
    # n2 = 0 degenerates to an ODE and must be accepted
    mats = _fixture_matrices()
    mats["E"] = np.eye(2)
    part = partition_index1(PHDAESystem(**mats), 2)
    assert part.n2 == 0 and part.b2_zero


def test_partition_index2_blocks(index2_fixture):
    part = partition_index2(index2_fixture, 2)
    assert part.b2_zero
    assert constraint_blocks(part)[1] == pytest.approx(np.array([[1.0]]))
    # B2 = P2 = 0: the saddle solve's lifts and multiplier gain are exact zeros
    assert part.input_lift.shape == part.output_lift.shape == (2, 1)
    assert part.multiplier_gain.shape == (1, 1)
    assert not (np.any(part.input_lift) or np.any(part.output_lift) or np.any(part.multiplier_gain))


def test_partition_index2_rejects_nonzero_E22(index2_fixture):
    mats = dict(
        E=np.eye(3),
        J=index2_fixture.J,
        R=index2_fixture.R,
        B=index2_fixture.B,
        P=index2_fixture.P,
        S=index2_fixture.S,
        N=index2_fixture.N,
    )
    with pytest.raises(PartitionError):
        partition_index2(PHDAESystem(**mats), 2)


def _constraint_columns(delta, sparse):
    """n1 = 3, n2 = 2, E11 = I and the constraint columns e1 and
    e1 + delta e2 (delta = 0 repeats the first): kappa_1(M) grows like
    1 / delta^2, and with B2 = e1 the multiplier gain is M^{-1} e1."""
    n = 5
    J = np.zeros((n, n))
    J[0, 3] = J[0, 4] = 1.0
    J[1, 4] = delta
    J = J - J.T
    B = np.zeros((n, 1))
    B[3] = 1.0
    mats = dict(E=np.diag([1.0, 1.0, 1.0, 0.0, 0.0]), J=J, R=np.diag([1.0, 1.0, 1.0, 0.0, 0.0]),
                B=B, P=np.zeros((n, 1)), S=np.zeros((1, 1)), N=np.zeros((1, 1)))
    return PHDAESystem(**(_sparse_copy(mats) if sparse else mats))


_COUPLING = r"^J12\^T E11\^\{-1\} J12 \(coupling\) is singular to working precision"


def test_partition_index2_rejects_singular_coupling():
    n = 4
    E = np.diag([1.0, 1.0, 0.0, 0.0])
    J = np.zeros((n, n))
    J[0, 2], J[2, 0] = 1.0, -1.0  # second constraint column zero
    sys = PHDAESystem(E=E, J=J, R=np.zeros((n, n)), B=np.zeros((n, 1)),
                      P=np.zeros((n, 1)), S=np.zeros((1, 1)), N=np.zeros((1, 1)))
    with pytest.raises(PartitionError, match=_COUPLING):
        partition_index2(sys, 2)


@pytest.mark.parametrize("case", ["dependent", "nearly-dependent", "nearly-dependent-csr",
                                  "well-conditioned"])
def test_partition_index2_coupling_condition(case):
    # the check is the saddle matrix's kappa_1 estimate against COND_LIMIT,
    # and its message names M = J12^T E11^{-1} J12, dense parent or CSR
    delta = {"dependent": 0.0, "well-conditioned": 1.0}.get(case, 1e-7)
    sys = _constraint_columns(delta, sparse=case.endswith("csr"))
    if case == "well-conditioned":
        part = partition_index2(sys, 3)
        M = constraint_blocks(part)[1]
        assert np.linalg.cond(M, 1) < 10
        assert np.allclose(part.multiplier_gain, np.linalg.solve(M, [[1.0], [0.0]]),
                           rtol=0, atol=1e-14)
        return
    J12 = np.array([[1.0, 1.0], [0.0, delta], [0.0, 0.0]])
    assert np.linalg.cond(J12.T @ J12, 1) > 1e12  # M, with E11 = I
    with pytest.raises(PartitionError, match=_COUPLING):
        partition_index2(sys, 3)


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_check_spd_threshold_is_tol_times_frobenius_norm(factor, sparse):
    import scipy.sparse as sp

    from phmor.systems import TOL_PSD, _check_spd

    # smallest eigenvalue of sym(M) on either side of tau = TOL_PSD * ||M||_F
    # (||M||_F = sqrt(50) up to rounding); the skew part of M does not count
    lam = factor * TOL_PSD * np.sqrt(50.0)
    M = np.diag([3.0, 3.0, lam])
    M[0, 1] = 4.0
    M[1, 0] = -4.0
    tau = TOL_PSD * np.linalg.norm(M, "fro")
    assert (lam > tau) == (factor > 1)
    M_in = sp.csr_array(M) if sparse else M
    if factor > 1:
        _check_spd(M_in, "M")
    else:
        with pytest.raises(PartitionError, match=rf"M is not positive definite \(min eig {lam:.3e}\)"):
            _check_spd(M_in, "M")


def _spd_fixtures():
    """(name, sparse matrix) parameters: definite, indefinite, and with a
    smallest eigenvalue of sym(M) just below tau = TOL_PSD * ||M||_F."""
    import scipy.sparse as sp

    from phmor.benchmarks import MassSpringSpec, mass_spring_chain_sparse, oseen_grid_sparse
    from phmor.systems import TOL_PSD

    rng = np.random.default_rng(3)
    chain = MassSpringSpec(k=30)
    n1 = chain.n1
    E11 = mass_spring_chain_sparse(chain).E[:n1, :n1]
    oseen = OseenSpec(n_grid=4)
    K = sp.random(40, 40, density=0.1, random_state=rng, format="csr")
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(50, 50), format="csr")
    lam_min = np.linalg.eigvalsh(lap.toarray())[0]
    below = lap - (lam_min - 0.5 * TOL_PSD * sp.linalg.norm(lap)) * sp.identity(50)
    fixtures = {
        "chain-E11": E11,
        "oseen-E11": oseen_grid_sparse(oseen).E[:oseen.n_velocity, :oseen.n_velocity],
        "laplacian": lap,
        "random-spd-plus-skew": K @ K.T + sp.identity(40) + (K - K.T),
        "indefinite": lap - 1.0 * sp.identity(50),
        "negative-pivot-first": sp.csr_array(np.diag([-1.0, 2.0, 3.0])),
        "zero-diagonal": sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])),
        "singular": sp.csr_array(np.diag([1.0, 0.0, 2.0])),
        "below-tau": below,
        "chain-E11-shifted-below-tau": E11 - (np.linalg.eigvalsh(E11.toarray())[0]
                                              - 0.5 * TOL_PSD * sp.linalg.norm(E11))
        * sp.identity(n1),
    }
    return [pytest.param(name, M, id=name) for name, M in fixtures.items()]


@pytest.mark.parametrize("name,M", _spd_fixtures())
def test_sparse_check_spd_decides_like_dense(name, M):
    import scipy.sparse as sp

    from phmor.systems import _check_spd

    outcomes = []
    for variant in (M.toarray(), sp.csr_array(M)):
        try:
            _check_spd(variant, "M")
            outcomes.append(None)
        except PartitionError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    definite = np.linalg.eigvalsh(0.5 * (M + M.T).toarray())[0] > 0
    assert (outcomes[0] is None) == (definite and "below-tau" not in name)


def test_sparse_definiteness_needs_symmetric_pivots():
    # SuperLU takes the pivots of [[0, 1], [1, 0]] off the diagonal, both
    # positive: not an L D L^T, and the matrix is indefinite
    import scipy.sparse as sp

    from phmor.systems import _sparse_positive_definite

    assert not _sparse_positive_definite(sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert _sparse_positive_definite(sp.csr_array(np.array([[2.0, 1.0], [1.0, 2.0]])))


@pytest.mark.parametrize("k", [3, 6, 20])
def test_mixed_view_is_its_index2_split(k):
    from phmor import Index2Partition
    from phmor.benchmarks import MassSpringSpec, mixed_chain
    from phmor.transfer import PolynomialPart

    # mixed blocks (1, 2k, 1): the index-2 view with blocks (1 + 2k, 1)
    part = mixed_chain(MassSpringSpec(k=k))
    assert type(part) is Index2Partition and (part.n1, part.n2) == (1 + 2 * k, 1)
    # B3 = P3 = 0: the view's polynomial part is the constant D = S + N
    poly = PolynomialPart.constant(part.parent.S + part.parent.N)
    for name in ("P0", "P1"):
        assert np.array_equal(getattr(poly, name), getattr(part.polynomial_part, name))


def test_partition_mixed_requires_square_constraint():
    from phmor.benchmarks import MassSpringSpec, mixed_chain

    part = mixed_chain(MassSpringSpec(k=4))
    assert part.n2 == 1  # as many multipliers as constrained states
    with pytest.raises(PartitionError):
        partition_mixed(part.parent, 2, part.n1 - 2)


def _mixed_matrices():
    from phmor.benchmarks import MassSpringSpec, mixed_chain

    sys = mixed_chain(MassSpringSpec(k=3)).parent
    return {name: np.array(getattr(sys, name)) for name in "EJRBPSN"}


# (entries set, mixed block sizes (n1, n2), message) on the mixed chain k=3,
# blocks (1, 6, 1) and n = 8: the checks run in this order, so a model
# failing several raises the first
_MIXED_FAILURES = {
    "sizes": ({}, (1, 8), r"block sizes \(1, 8, -1\) do not sum to n=8"),
    "square": ({}, (2, 5), r"index-2 constraint block must be square: n3=1 != n1=2"),
    "split-E": ({("E", 7, 7): 1.0, ("J", 1, 7): 1.0}, (1, 6),
                r"E22 must be zero in this semi-explicit form"),
    "J23": ({("J", 1, 7): 1.0, ("B", 7, 0): 1.0}, (1, 6),
            r"J23 must be zero in this semi-explicit form"),
    "J32": ({("J", 7, 1): 1.0}, (1, 6), r"J32 must be zero in this semi-explicit form"),
    "B3": ({("B", 7, 0): 1.0, ("J", 7, 0): 0.0}, (1, 6),
           r"B3 must be zero in this semi-explicit form"),
    "P3": ({("P", 7, 0): 1.0}, (1, 6), r"P3 must be zero in this semi-explicit form"),
    "J31": ({("J", 7, 0): 0.0}, (1, 6), r"J31 is singular to working precision"),
}


@pytest.mark.parametrize("case", sorted(_MIXED_FAILURES))
def test_partition_mixed_failure_messages(case):
    entries, sizes, message = _MIXED_FAILURES[case]
    mats = _mixed_matrices()
    for (name, i, j), value in entries.items():
        mats[name][i, j] = value
    with pytest.raises(PartitionError, match=f"^{message}"):
        partition_mixed(PHDAESystem(**mats), *sizes)


def test_partition_mixed_accepts_singular_A22():
    # x2 solves the ODE (s E22 - A22) x2 = ..., which needs no nonsingular
    # A22 = J22 - R22; with J22 = R22 = 0 the model is an integrator
    import scipy.linalg as spla

    from phmor import InterpolationData, reduce_mixed, tangential_residuals
    from phmor.benchmarks import MassSpringSpec, mixed_chain
    from phmor.transfer import FrequencyGrid, frequency_response

    chain = mixed_chain(MassSpringSpec(k=3))
    n1, nd = chain.n2, chain.n1  # the constrained states, as many as the multipliers
    mats = {name: getattr(chain.parent, name).copy() for name in "EJRBPSN"}
    for name in "JR":
        mats[name][n1:nd, n1:nd] = 0.0
    sys = PHDAESystem(**mats)
    part = partition_mixed(sys, n1, nd - n1)

    grid = FrequencyGrid.log_spaced(1e-3, 1e3, 40)
    gen = sys.generic
    ref = np.array([gen.C @ spla.lu_solve(spla.lu_factor(s * gen.E - gen.A), gen.B) + gen.D
                    for s in grid.points])
    H = frequency_response(part, grid)
    assert np.linalg.norm(H - ref) <= 1e-12 * np.linalg.norm(ref)

    data = InterpolationData(points=np.array([1.0]), directions=np.ones((1, sys.m)))
    model = reduce_mixed(part, data)
    assert model.ph_valid
    assert np.max(tangential_residuals(part, model, data)) <= 1e-10


def _index2_chain_matrices():
    from phmor.benchmarks import MassSpringSpec, mass_spring_chain

    sys = mass_spring_chain(MassSpringSpec(k=4)).parent
    return {name: getattr(sys, name).copy() for name in "EJRBPSN"}, sys.n - 1


def _sparse_copy(mats):
    import scipy.sparse as sp

    return {name: sp.csr_array(M) if name in "EJR" else M for name, M in mats.items()}


@pytest.mark.parametrize("block", ["E22", "R12"])
def test_sparse_partition_rejects_like_dense(block):
    mats, n1 = _index2_chain_matrices()
    if block == "E22":
        mats["E"][n1, n1] = 1.0
    else:
        mats["R"][0, n1] = mats["R"][n1, 0] = 0.5
    errors = []
    for variant in (mats, _sparse_copy(mats)):
        with pytest.raises(PartitionError) as info:
            partition_index2(PHDAESystem(**variant), n1)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert block in errors[0]


def test_sparse_system_is_frozen_and_checked():
    import scipy.sparse as sp

    mats, _ = _index2_chain_matrices()
    sys = PHDAESystem(**_sparse_copy(mats))
    assert isinstance(sys.E, sp.csr_array) and isinstance(sys.B, np.ndarray)
    with pytest.raises(ValueError):
        sys.E.data[0] = 5.0
    mats["J"][0, 1] = np.nan
    with pytest.raises(LinAlgContractError):
        PHDAESystem(**_sparse_copy(mats))


def test_sparse_index2_constraint_quantities_match_dense():
    from phmor.benchmarks import MassSpringSpec, mass_spring_chain_b2

    dense = mass_spring_chain_b2(MassSpringSpec(k=6))
    sparse = _csr_view(dense)
    assert not sparse.b2_zero
    for name in ("input_lift", "output_lift", "multiplier_gain"):
        assert np.allclose(getattr(sparse, name), getattr(dense, name), rtol=0, atol=1e-13)
    for name in ("P0", "P1"):
        assert np.allclose(getattr(sparse.polynomial_part, name),
                           getattr(dense.polynomial_part, name), rtol=0, atol=1e-13)


def _csr_view(part):
    mats = _sparse_copy({name: getattr(part.parent, name) for name in "EJRBPSN"})
    return partition_index2(PHDAESystem(**mats), part.n1)


def _oseen_b2():
    """Dense Oseen n_grid=4 with seeded B and P added: constraint inputs on
    every multiplier, and B2 - P2 != B2 + P2, so each quantity of the
    saddle solve is nonzero and G != H, with n2 = 15."""
    from phmor.benchmarks import oseen_grid

    parent = oseen_grid(OseenSpec(n_grid=4)).parent
    mats = {name: getattr(parent, name) for name in "EJRBPSN"}
    rng = np.random.default_rng(3)
    for name in "BP":
        mats[name] = mats[name] + rng.standard_normal(mats[name].shape)
    return partition_index2(PHDAESystem(**mats), OseenSpec(n_grid=4).n_velocity)


def _constraint_views():
    from phmor.benchmarks import MassSpringSpec, mass_spring_chain_b2, mixed_chain, oseen_grid

    chain_b2 = lambda: mass_spring_chain_b2(MassSpringSpec(k=6), amplitude=0.7)  # noqa: E731
    no_constraints = _fixture_matrices()
    no_constraints["E"] = np.eye(2)
    return {
        "chain-b2": chain_b2,
        "chain-b2-csr": lambda: _csr_view(chain_b2()),
        "mixed": lambda: mixed_chain(MassSpringSpec(k=3)),
        "oseen-4": lambda: oseen_grid(OseenSpec(n_grid=4)),
        "oseen-4-b2": _oseen_b2,
        "oseen-4-b2-csr": lambda: _csr_view(_oseen_b2()),
        "n2=0": lambda: partition_index2(PHDAESystem(**no_constraints), 2),
    }


@pytest.mark.parametrize("name", sorted(_constraint_views()))
def test_index2_constraint_quantities_match_dense_oracle(name):
    # G, H, M^{-1} (B2 - P2), P0 and P1 from the one saddle solve against
    # the dense E11^{-1} J12 and M; each is a backward-stable solve with K
    # or M, so the relative error is bounded by a modest multiple of
    # n u kappa_1, kappa the larger of kappa_1(K) and kappa_1(M)
    from oracles import _dense

    part = _constraint_views()[name]()
    E11, J12 = _dense(part.E11), _dense(part.J12)
    K = np.block([[E11, J12], [J12.T, np.zeros((part.n2, part.n2))]])
    kappa = max(np.linalg.cond(K, 1), np.linalg.cond(constraint_blocks(part)[1], 1)
                if part.n2 else 1.0)
    tol = 10 * part.parent.n * np.finfo(float).eps * kappa
    poly = part.polynomial_part
    got = (part.input_lift, part.output_lift, part.multiplier_gain, poly.P0, poly.P1)
    for value, ref in zip(got, constraint_lifts(part)):
        assert value.shape == ref.shape
        assert np.linalg.norm(value - ref) <= tol * max(1.0, np.linalg.norm(ref))
    if name == "n2=0":
        assert not (np.any(got[0]) or np.any(got[1]) or np.any(poly.P1))
    if name.startswith("oseen-4-b2"):
        assert np.linalg.norm(got[2]) > 0.1 and np.linalg.norm(poly.P1) > 0.1


def test_sparse_index2_partition_forms_no_dense_constraint_block():
    # a CSR Oseen n_grid=30 view (n1 = 1740, n2 = 899): its check, lifts and
    # polynomial part come from one sparse solve with the saddle matrix, so
    # they allocate far less than one dense n1 x n2 array of E11^{-1} J12
    import tracemalloc

    from phmor.benchmarks import oseen_grid_sparse

    spec = OseenSpec(n_grid=30)
    sys = oseen_grid_sparse(spec)
    n1, n2 = spec.n_velocity, sys.n - spec.n_velocity
    assert (n1, n2) == (1740, 899)
    tracemalloc.start()
    try:
        part = partition_index2(sys, n1)
        part.lifted_ports, part.polynomial_part
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n1 * n2 * np.dtype(float).itemsize


def _validation_values(part):
    return [(c.name, c.passed, c.violation) for c in validate_structure(part.parent).checks]


@pytest.mark.parametrize("routine", [
    _validation_values,
    lambda part: part.parent.passivity_matrix,
    lambda part: np.stack(constraint_projectors(part)),
    lambda part: [getattr(projector_oracle_index2(part), name) for name in "EABCD"],
], ids=["validate_structure", "passivity_matrix", "constraint_projectors",
        "projector_oracle_index2"])
def test_csr_system_routines_match_dense(routine):
    mats, n1 = _index2_chain_matrices()
    dense = partition_index2(PHDAESystem(**mats), n1)
    sparse = partition_index2(PHDAESystem(**_sparse_copy(mats)), n1)
    expected, got = routine(dense), routine(sparse)
    if routine is _validation_values:
        assert got == expected
    else:
        for a, b in zip(expected, got):
            assert np.allclose(a, b, rtol=0, atol=1e-13)
