"""The full models' shifted solvers: for a partition of a dense parent,
exact elimination of the algebraic equations plus one Schur form per
partition, checked against a dense LU of the full pencil s E - A; for any
other model, dense or sparse, one SuperLU factorization per shift with one
column ordering per model, checked against :func:`solve_complex` of
s E - A, and the solutions (s E - A)^{-1} B of the latest interpolation set
held for evaluation at its points."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spsla
from hypothesis import given, settings
from hypothesis import strategies as st

from phmor import cli, systems
from phmor.benchmarks import (
    MassSpringSpec,
    OseenSpec,
    mass_spring_chain,
    mass_spring_chain_b2,
    mass_spring_chain_sparse,
    mixed_chain,
    oseen_grid,
    oseen_grid_sparse,
    random_ph_index1,
)
from phmor.irka import IRKAConfig, irka_reduce
from phmor.linalg import (
    LinAlgContractError,
    SchurPencil,
    SingularMatrixError,
    SparsePencil,
    solve_complex,
)
from phmor.systems import PHDAESystem, partition_index1, partition_index2, partition_mixed
from phmor.reducers import REDUCERS, InterpolationData, build_V_generic
from phmor.transfer import (FrequencyGrid, eval_transfer, evaluate, frequency_response,
                            tangential_residuals)

MODELS = {
    "chain": lambda: mass_spring_chain(MassSpringSpec(k=6)),
    "chain-b2": lambda: mass_spring_chain_b2(MassSpringSpec(k=6)),
    "oseen": lambda: oseen_grid(OseenSpec(n_grid=5)),
    "mixed": lambda: mixed_chain(MassSpringSpec(k=6)),
    **{f"random-index1-{seed}": (lambda seed=seed: random_ph_index1(8, 3, 2, seed))
       for seed in range(4)},
}
_PARTS = {}


def _part(name):
    """One partition per model for the whole module, as one CLI command
    keeps one: its solver is built on the first example only."""
    if name not in _PARTS:
        _PARTS[name] = MODELS[name]()
    return _PARTS[name]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)),
       log_omega=st.floats(-3.0, 4.0),
       sign=st.sampled_from([-1.0, 1.0]),
       real=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       seed=st.integers(0, 2**32 - 1))
def test_matches_dense_lu(name, log_omega, sign, real, seed):
    part = _part(name)
    gen = part.parent.generic
    s = complex(real, sign * 10.0 ** log_omega)
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((gen.n, 2)) + 1j * rng.standard_normal((gen.n, 2))
    ref = solve_complex(s * gen.E - gen.A, F, cond_limit=np.inf)
    got = part.solve_shifted(s, F, cond_limit=np.inf)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    # a vector right-hand side comes back as a vector
    col = part.solve_shifted(s, F[:, 0], cond_limit=np.inf)
    assert col.shape == (gen.n,)
    assert np.linalg.norm(col - ref[:, 0]) <= 1e-10 * np.linalg.norm(ref[:, 0])


def _random_ph(n, n1, rng):
    """A pH system whose leading n1 x n1 block of E is SPD and the rest of E
    zero, with J12^T of full rank and zero trailing J, R blocks."""
    M = rng.standard_normal((n1, n1))
    E = np.zeros((n, n))
    E[:n1, :n1] = M @ M.T + n1 * np.eye(n1)
    K = rng.standard_normal((n, n))
    J = K - K.T
    J[n1:, n1:] = 0.0
    R = np.zeros((n, n))
    R[:n1, :n1] = 0.1 * np.eye(n1)
    return PHDAESystem(E=E, J=J, R=R, B=rng.standard_normal((n, 1)), P=np.zeros((n, 1)),
                       S=np.zeros((1, 1)), N=np.zeros((1, 1)))


@pytest.mark.parametrize("view", ["index1-ode", "index2-ode", "mixed-ode", "index2-no-ode"])
def test_empty_blocks_match_dense_lu(view):
    # partitions with no algebraic block, or (index 2 with n1 = n2) no ODE
    rng = np.random.default_rng(7)
    if view == "index2-no-ode":
        part = partition_index2(_random_ph(4, 2, rng), 2)
    else:
        sys_ = _random_ph(5, 5, rng)
        part = {"index1-ode": lambda: partition_index1(sys_, 5),
                "index2-ode": lambda: partition_index2(sys_, 5),
                "mixed-ode": lambda: partition_mixed(sys_, 0, 5)}[view]()
    gen = part.parent.generic
    F = rng.standard_normal((gen.n, 2)) + 1j * rng.standard_normal((gen.n, 2))
    for s in (0.5j, 2.0 + 1j):
        ref = solve_complex(s * gen.E - gen.A, F)
        assert np.linalg.norm(part.solve_shifted(s, F) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("omega", [1e6, 1e8])
def test_oseen_high_frequency_matches_lu(omega):
    part = oseen_grid(OseenSpec(n_grid=8))
    H = evaluate(part, 1j * omega)
    ref = eval_transfer(part.parent.generic, 1j * omega)
    assert np.linalg.norm(H - ref) <= 1e-10 * np.linalg.norm(ref)


def test_mixed_view_solves_as_an_index2_view():
    part = _part("mixed")
    assert type(part.shifted_solver) is systems._Index2Elimination
    # the constraint's null space is the x2 block: the ODE maps to no row of
    # the constrained states x1, as many as the multipliers (the view's n2)
    assert not np.any(part.shifted_solver._ode._right[:part.n2])


@pytest.mark.parametrize("name, solver", [("random-index1-0", systems._Index1Elimination),
                                          ("chain", systems._Index2Elimination),
                                          ("mixed", systems._Index2Elimination)])
def test_dense_views_solve_by_elimination(name, solver):
    assert type(_part(name).shifted_solver) is solver


def test_every_other_full_model_solves_by_sparse_pencil():
    # a bare dense system, its realization, a CSR system and a CSR view
    spec = MassSpringSpec(k=6)
    bare, csr = mass_spring_chain(spec).parent, mass_spring_chain_sparse(spec)
    for model in (bare, bare.generic, csr, partition_index2(csr, spec.n1)):
        assert type(model.shifted_solver) is SparsePencil


BARE_MODELS = {
    "chain-10": lambda: mass_spring_chain(MassSpringSpec(k=10)).parent,
    "oseen-4": lambda: oseen_grid(OseenSpec(n_grid=4)).parent,
    "random-index1-3": lambda: random_ph_index1(12, 4, 2, 3).parent,
    "mixed-6": lambda: mixed_chain(MassSpringSpec(k=6)).parent,
}


@pytest.mark.parametrize("name", sorted(BARE_MODELS))
def test_bare_frequency_response_matches_eval_transfer(name):
    model = BARE_MODELS[name]()
    grid = FrequencyGrid.log_spaced(1e-4, 1e4, 40)
    ref = np.array([eval_transfer(model, s) for s in grid.points])
    assert np.linalg.norm(frequency_response(model, grid) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_exact_eigenvalue_raises(index1_fixture, index2_fixture):
    # both fixtures have their one finite pole at s = -1, exactly
    for part in (partition_index1(index1_fixture, 1), partition_index2(index2_fixture, 2)):
        with pytest.raises(SingularMatrixError):
            part.solve_shifted(-1.0, np.ones(part.parent.n))
        assert np.all(np.isfinite(part.solve_shifted(-1.0 + 1e-3, np.ones(part.parent.n))))


def test_non_finite_input_raises_contract_error(index2_fixture):
    part = partition_index2(index2_fixture, 2)
    rhs = np.ones(3)
    rhs[0] = np.nan
    for s, b in ((1.0, rhs), (np.nan, np.ones(3))):
        with pytest.raises(LinAlgContractError) as info:
            part.solve_shifted(s, b)
        assert not isinstance(info.value, SingularMatrixError)


def test_schur_pencil_rejects_indefinite_mass():
    with pytest.raises(LinAlgContractError):
        SchurPencil(np.diag([1.0, -1.0]), np.eye(2))


@pytest.fixture
def count_builds(monkeypatch):
    built = []

    class Counting(SchurPencil):
        def __init__(self, *args, **kwargs):
            built.append(args[0].shape)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(systems, "SchurPencil", Counting)
    return built


def test_solver_built_once_per_partition(count_builds):
    part = mass_spring_chain_b2(MassSpringSpec(k=6))
    result = irka_reduce(part, IRKAConfig(r=4))
    grid = FrequencyGrid.log_spaced(1e-4, 1e4, 20)
    cli._errors_row(part, result.model, result.data, grid, cli._h2_denominator(part))
    assert len(count_builds) == 1


def test_cli_builds_once_per_command_and_never_in_generate(count_builds, tmp_path):
    for bench, args in (("chain", "--k 4"), ("chain-b2", "--k 4"), ("oseen", "--n-grid 3"),
                        ("random-index1", "--n1 6 --n2 2"), ("mixed", "--k 4")):
        assert cli.main(["generate", "--benchmark", bench, *args.split(),
                         "--out", str(tmp_path / bench)]) == 0
    assert count_builds == []
    assert cli.main(["reduce", str(tmp_path / "chain-b2"), "--method", "irka", "--r", "2",
                     "--h2", "--freq-grid", "1e-4:1e4:20", "--out", str(tmp_path / "out")]) == 0
    assert len(count_builds) == 1


SPARSE_MODELS = {
    "chain-6": lambda: mass_spring_chain_sparse(MassSpringSpec(k=6)),
    "chain-50": lambda: mass_spring_chain_sparse(MassSpringSpec(k=50)),
    "oseen-3": lambda: oseen_grid_sparse(OseenSpec(n_grid=3)),
    "oseen-8": lambda: oseen_grid_sparse(OseenSpec(n_grid=8)),
}
_SPARSE = {}


def _sparse_model(name):
    """One sparse model per module, so its solver keeps the column ordering
    of its first shift across examples, as within one CLI command."""
    if name not in _SPARSE:
        _SPARSE[name] = SPARSE_MODELS[name]()
    return _SPARSE[name]


def _outcome(solve):
    """The solution, or the type and message of the error raised."""
    try:
        return solve()
    except LinAlgContractError as exc:
        return type(exc), str(exc)


_shifts = st.builds(
    complex,
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e) | st.just(0.0),
)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SPARSE_MODELS)),
       shifts=st.lists(_shifts, min_size=1, max_size=4),
       held=st.lists(_shifts, max_size=3),
       log_limit=st.one_of(st.just(12.0), st.floats(0.0, 8.0)),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_pencil_matches_solve_complex(name, shifts, held, log_limit, seed):
    # ``held`` is first solved as an interpolation set, at the basis's
    # limit, and then leads the shifts solved at the caller's limit
    model = _sparse_model(name)
    assert type(model.shifted_solver) is SparsePencil
    gen = model.generic
    rng = np.random.default_rng(seed)
    if held:
        rhs = rng.standard_normal((gen.n, len(held))) + 0j
        _outcome(lambda: model.solve_shifted(np.array(held, dtype=complex), rhs))
    F = rng.standard_normal((gen.n, 1, 2)) + 1j * rng.standard_normal((gen.n, 1, 2))
    s = np.array(held + shifts, dtype=complex)
    limit = 10.0 ** log_limit
    got = _outcome(lambda: model.shifted_solver.solve(s, F, limit))

    def reference():  # solve_complex of each shift in order: the first error raises
        return np.stack([solve_complex(sk * gen.E - gen.A, F[:, 0], cond_limit=limit)
                         for sk in s], axis=1)

    ref = _outcome(reference)
    if isinstance(ref, tuple):  # the same error, with the same estimate
        assert got == ref
    else:
        assert not isinstance(got, tuple), got
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def _sparse_pole_at_minus_one(index2_fixture):
    """The index-2 fixture with CSR E, J and R; its one pole is s = -1."""
    f = index2_fixture
    return SparsePencil(sp.csr_array(f.E), sp.csr_array(f.J - f.R))


def test_sparse_pencil_exact_eigenvalue_raises(index2_fixture):
    pencil = _sparse_pole_at_minus_one(index2_fixture)
    F = np.ones((3, 1, 1), dtype=complex)
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        pencil.solve(np.array([-1.0 + 0j]), F)
    assert np.all(np.isfinite(pencil.solve(np.array([-1.0 + 1e-3j]), F)))


def test_sparse_pencil_nan_shift_is_contract_error(index2_fixture):
    pencil = _sparse_pole_at_minus_one(index2_fixture)
    with pytest.raises(LinAlgContractError) as info:
        pencil.solve(np.array([np.nan + 0j]), np.ones((3, 1, 1), dtype=complex))
    assert not isinstance(info.value, SingularMatrixError)


@pytest.mark.parametrize("shifts, error", [
    ([0.5j, -1.0, np.nan], SingularMatrixError),
    ([0.5j, np.nan, -1.0], LinAlgContractError),
])
def test_sparse_pencil_first_failing_shift_raises(index2_fixture, shifts, error):
    pencil = _sparse_pole_at_minus_one(index2_fixture)
    with pytest.raises(LinAlgContractError) as info:
        pencil.solve(np.array(shifts, dtype=complex), np.ones((3, 1, 1), dtype=complex))
    assert type(info.value) is error


def test_sparse_pencil_empty_is_exactly_singular():
    pencil = SparsePencil(sp.csr_array((0, 0)), sp.csr_array((0, 0)))
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        pencil.solve(np.array([1j]), np.ones((0, 1, 1), dtype=complex))


def test_sparse_reduce_orders_each_pencil_once(monkeypatch, tmp_path):
    # the large-sparse-reduce command on small models: 52 factorizations
    # per model, of which 50 of the n x n pencil, one per distinct shift
    # (10 interpolation points, 40 grid points), the first with COLAMD and
    # the rest in that order; the interpolation residuals reuse the basis's
    splu, calls, in_residuals = spsla.splu, [], []

    def counting(A, permc_spec=None, *args, **kwargs):
        calls.append((A.shape[0], permc_spec))
        return splu(A, permc_spec, *args, **kwargs)

    def residuals(*args):
        before = len(calls)
        res = tangential_residuals(*args)
        in_residuals.append(len(calls) - before)
        return res

    monkeypatch.setattr(spsla, "splu", counting)
    monkeypatch.setattr(cli, "tangential_residuals", residuals)
    for bench, args in (("chain", "--k 10"), ("oseen", "--n-grid 5")):
        out = tmp_path / bench
        assert cli.main(["generate", "--benchmark", bench, *args.split(), "--sparse",
                         "--out", str(out)]) == 0
        calls.clear()
        in_residuals.clear()
        assert cli.main(["reduce", str(out), "--method", "index2", "--r", "10",
                         "--freq-grid", "1e-4:1e4:40", "--out", str(tmp_path / "r")]) == 0
        assert len(calls) == 52
        assert in_residuals == [0]
        n = max(size for size, _ in calls)
        pencil = [spec for size, spec in calls if size == n]
        assert pencil == ["COLAMD"] + ["NATURAL"] * 49


def _csr_random_index1():
    """A CSR copy of ``random_ph_index1(12, 4, 2, 0)``, a MIMO index-1 model."""
    parent = random_ph_index1(12, 4, 2, 0).parent
    sparse = PHDAESystem(**{name: sp.csr_array(getattr(parent, name)) if name in "EJR"
                            else getattr(parent, name) for name in "EJRBPSN"})
    return partition_index1(sparse, 12)


_RESIDUAL_CASES = {
    "chain-10": (lambda: partition_index2(mass_spring_chain_sparse(MassSpringSpec(k=10)),
                                          MassSpringSpec(k=10).n1), "index2", None),
    "oseen-5": (lambda: partition_index2(oseen_grid_sparse(OseenSpec(n_grid=5)),
                                         OseenSpec(n_grid=5).n_velocity), "index2", None),
    "random-index1-mimo": (_csr_random_index1, "index1-shifted",
                           ([0.5, 1 + 2j, 1 - 2j, 10.0],
                            [[1.0, -0.5], [1 - 1j, 0.3j], [1 + 1j, -0.3j], [0.2, 1.0]])),
}


def _no_other_reference(objects):
    """Whether nothing but the list ``objects`` refers to its members: the
    reference counts of fresh objects held the same way."""
    control = [object() for _ in objects]
    return [sys.getrefcount(x) for x in objects] == [sys.getrefcount(x) for x in control]


def _assert_holds(part, data):
    """The pencil holds one (n, m) solution of B and one finite estimate
    per point the basis solved, and nothing else."""
    pencil, gen = part.shifted_solver, part.generic
    assert set(pencil._held) == {complex(data.points[i]) for i, _ in data.pairs}
    for X, cond in pencil._held.values():
        assert isinstance(X, np.ndarray) and X.shape == (gen.n, gen.m)
        assert isinstance(cond, float) and np.isfinite(cond)


@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
def test_residuals_reuse_the_basis_solutions_invisibly(monkeypatch, case):
    # after the basis, the pencil holds the solutions (s E - A)^{-1} B of
    # the points it solved and no SuperLU factor; the interpolation
    # residuals factor only the points the basis did not (a conjugate
    # partner), and match bit for bit the same call on a freshly built
    # partition, which holds nothing
    build, method, points = _RESIDUAL_CASES[case]
    part = build()
    if points is None:
        data = InterpolationData.log_spaced(6, part.parent.m)
    else:
        data = InterpolationData(points=np.array(points[0], dtype=complex),
                                 directions=np.array(points[1], dtype=complex))
    splu, calls, factors = spsla.splu, [], []

    def counting(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        calls.append(A.shape[0])
        if A.shape[0] == part.parent.n:  # a factor of s E - A
            factors.append(lu)
        return lu

    monkeypatch.setattr(spsla, "splu", counting)
    model = REDUCERS[method](part, data)
    kept = [i for i, _ in data.pairs]
    _assert_holds(part, data)
    assert len(factors) == len(kept)
    assert _no_other_reference(factors)  # each factor dropped after its solve
    held = dict(part.shifted_solver._held)

    calls.clear()
    got = tangential_residuals(part, model, data)
    assert len(calls) == data.r - len(kept)  # the partners, and nothing else
    fresh = build()
    assert fresh.shifted_solver._held == {}
    ref = tangential_residuals(fresh, model, data)
    assert got.tobytes() == ref.tobytes()
    # evaluation leaves the held set in place, here and on a grid
    grid = np.logspace(-2, 4, 7) * 1j
    assert (frequency_response(part, grid).tobytes()
            == frequency_response(build(), grid).tobytes())
    assert part.shifted_solver._held.keys() == held.keys()
    assert all(part.shifted_solver._held[s][0] is X for s, (X, _) in held.items())
    # the transfer values themselves, from the held set, bit for bit
    calls.clear()
    H = frequency_response(part, data.points[kept])
    assert calls == []
    assert H.tobytes() == frequency_response(build(), data.points[kept]).tobytes()
    # the next basis replaces the set
    moved = InterpolationData(points=2.0 * data.points, directions=data.directions)
    REDUCERS[method](part, moved)
    _assert_holds(part, moved)


@pytest.mark.parametrize("name", sorted(BARE_MODELS))
def test_bare_system_holds_its_interpolation_set(monkeypatch, name):
    # a bare dense system's basis holds its set as a sparse model's does:
    # evaluation at the set factors only the partner 1 - 2j the basis
    # skipped, and the held points give the bits of a fresh system
    model = BARE_MODELS[name]()
    data = InterpolationData(points=np.array([0.5, 1 + 2j, 1 - 2j, 30.0]),
                             directions=np.ones((4, model.m)))
    build_V_generic(model, data)
    _assert_holds(model, data)
    splu, calls = spsla.splu, []

    def counting(A, *args, **kwargs):
        calls.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spsla, "splu", counting)
    H = frequency_response(model, data.points)
    assert calls == [model.n]
    assert H.tobytes() == frequency_response(BARE_MODELS[name](), data.points).tobytes()


def test_held_solutions_answer_only_their_input():
    # a right-hand side other than the held B is solved afresh at a held
    # shift, as solve_complex solves it
    part = _RESIDUAL_CASES["random-index1-mimo"][0]()
    gen, s = part.parent.generic, np.array([0.5, 3.0j])
    part.solve_shifted(s, np.ones((gen.n, 2), dtype=complex))
    F = np.asarray(gen.B, dtype=complex)[:, None, ::-1]  # B with its columns swapped
    got = part.shifted_solver.solve(s, F)
    for k, sk in enumerate(s):
        ref = solve_complex(sk * gen.E - gen.A, F[:, 0])
        assert np.linalg.norm(got[:, k] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_sparse_irka_holds_one_set(monkeypatch):
    # each sweep's basis replaces the held set: after every sweep the
    # pencil holds one solution of B and one estimate per point of that
    # sweep, and no others
    part = partition_index2(oseen_grid_sparse(OseenSpec(n_grid=4)), OseenSpec(n_grid=4).n_velocity)
    reducer, sizes = REDUCERS["index2"], []

    def sweep(part, data):
        model = reducer(part, data)
        _assert_holds(part, data)
        sizes.append(len(part.shifted_solver._held))
        return model

    monkeypatch.setitem(REDUCERS, "index2", sweep)
    result = irka_reduce(part, IRKAConfig(r=4), method="index2")
    assert len(sizes) == result.iterations > 1  # one basis per sweep
    assert max(sizes) <= 4


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SPARSE_MODELS) + sorted(BARE_MODELS)),
       s=_shifts,
       spec=st.sampled_from(["COLAMD", "NATURAL"]),
       trans=st.sampled_from(["N", "H"]),
       order=st.permutations(range(4)),
       seed=st.integers(0, 2**32 - 1))
def test_superlu_solve_columns_do_not_see_each_other(name, s, spec, trans, order, seed):
    # what the held set's bits rest on: a column of SuperLU.solve is the
    # same bits whichever columns share its block, and in whatever order,
    # on a sparse pattern and on a bare dense system's
    model = _sparse_model(name) if name in SPARSE_MODELS else BARE_MODELS[name]()
    gen = model.generic
    M = sp.csc_array(s * gen.E - gen.A, dtype=complex)
    try:
        lu = spsla.splu(M, permc_spec=spec)
    except RuntimeError:  # exactly singular at this shift
        return
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((gen.n, 4)) + 1j * rng.standard_normal((gen.n, 4))
    F[:, 3] = 1.0 / gen.n  # the estimator's first column
    block = lu.solve(F, trans=trans)
    shuffled = lu.solve(F[:, order], trans=trans)
    for j in range(4):
        alone = lu.solve(F[:, [j]], trans=trans)
        assert alone.tobytes() == block[:, [j]].tobytes()
        assert shuffled[:, [order.index(j)]].tobytes() == alone.tobytes()

