import warnings

import numpy as np
import pytest
import scipy.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from phmor import (
    InterpolationData,
    PHDAESystem,
    build_V_generic,
    build_V_saddle,
    evaluate,
    eval_transfer,
    partition_index1,
    partition_index2,
    reduce_index1_blockdiag,
    reduce_index1_shifted,
    reduce_index2,
    reduce_index2_augmented,
    reduce_mixed,
    tangential_residuals,
    validate_structure,
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
from phmor.linalg import LinAlgContractError, pivoted_rank
from phmor.reducers import REDUCERS
from phmor.systems import congruence

from oracles import (
    constraint_projectors,
    generic_index1_shifted,
    generic_index2,
    point_solves,
    projector_oracle_index2,
    raw_saddle_basis,
    reference_index1_blockdiag,
    reference_index2_ports,
    reference_mixed_blockdiag,
)


def _data(points, directions):
    return InterpolationData(points=np.array(points, dtype=complex),
                             directions=np.array(directions, dtype=complex))


class TestInterpolationData:
    def test_requires_conjugate_closure(self):
        with pytest.raises(LinAlgContractError):
            _data([1.0 + 1j], [[1.0]])
        with pytest.raises(LinAlgContractError):
            # conjugate point present but direction not conjugated
            _data([1 + 1j, 1 - 1j], [[1j], [1j]])
        data = _data([1 + 1j, 1 - 1j], [[1j], [-1j]])
        assert data.r == 2

    def test_rejects_zero_direction(self):
        with pytest.raises(LinAlgContractError):
            _data([1.0], [[0.0]])

    @pytest.mark.parametrize("points, directions", [
        ([np.nan, 1.0], [[1.0], [1.0]]),
        ([np.inf], [[1.0]]),
        ([1.0], [[np.nan]]),
    ], ids=["nan-point", "inf-point", "nan-direction"])
    def test_rejects_non_finite_data(self, points, directions):
        with pytest.raises(LinAlgContractError, match="must be finite"):
            _data(points, directions)

    def test_rejects_empty_set(self):
        with pytest.raises(LinAlgContractError, match="interpolation set is empty"):
            InterpolationData(points=[], directions=np.zeros((0, 1)))

    def test_log_spaced(self):
        data = InterpolationData.log_spaced(3, 2, 1e-1, 1e1)
        assert np.allclose(data.points, [0.1, 1.0, 10.0])
        assert data.directions.shape == (3, 2)


class TestBases:
    def test_generic_basis_is_real_and_tall(self):
        part = random_ph_index1(8, 2, 1, seed=0)
        data = _data([1 + 2j, 1 - 2j, 3.0], [[1j], [-1j], [1.0]])
        basis = build_V_generic(part.parent, data)
        assert basis.V.shape == (10, 3)
        assert np.isrealobj(basis.V)
        assert basis.directions.shape == (1, 3)

    def test_duplicate_points_shrink_basis(self, index1_fixture):
        data = _data([2.0, 2.0], [[1.0], [1.0]])
        with pytest.warns(RuntimeWarning, match="1 of 2 normalized columns kept"):
            basis = build_V_generic(index1_fixture, data)
        assert basis.V.shape[1] == 1

    def test_saddle_basis_satisfies_constraint(self):
        part = mass_spring_chain(MassSpringSpec(k=7))
        data = _data([0.5 + 1j, 0.5 - 1j], [[1.0], [1.0]])
        basis = build_V_saddle(part, data)
        assert np.max(np.abs(part.J12.T @ basis.V)) < 1e-10

    def test_saddle_basis_constraint_with_b2(self):
        part = mass_spring_chain_b2(MassSpringSpec(k=7), amplitude=2.0)
        data = _data([1.0, 5.0], [[1.0], [1.0]])
        basis = build_V_saddle(part, data)
        assert np.max(np.abs(part.J12.T @ basis.V)) < 1e-10


    @pytest.mark.parametrize("saddle", [False, True], ids=["generic", "saddle"])
    def test_one_solve_per_conjugate_pair(self, monkeypatch, saddle):
        from phmor import reducers
        from phmor.systems import Index2Partition

        part = mass_spring_chain(MassSpringSpec(k=9))
        data = _data([0.4, 2 + 1j, 2 - 1j, 3 + 0.5j, 3 - 0.5j],
                     np.ones((5, part.parent.m)))
        calls = []
        solve_shifted = Index2Partition.solve_shifted

        def counting(self, s, rhs, **kwargs):
            calls.append(s)
            return solve_shifted(self, s, rhs, **kwargs)

        monkeypatch.setattr(Index2Partition, "solve_shifted", counting)
        basis = (build_V_saddle(part, data) if saddle
                 else build_V_generic(part, data))
        # one call with the whole set: one shift per conjugate pair
        assert len(calls) == 1
        assert np.array_equal(calls[0], data.points[[0, 1, 3]])
        monkeypatch.undo()

        # reference: solve at every point, realify the first member of each pair
        gen = part.parent.generic
        cols = np.column_stack([part.solve_shifted(s, gen.B @ b)
                                for s, b in zip(data.points, data.directions)])
        if saddle:
            cols = -cols[:part.n1]
        # the skipped partners' solutions are the conjugates of the kept ones
        assert np.allclose(cols[:, 2], cols[:, 1].conj(), rtol=1e-12, atol=0)
        assert np.allclose(cols[:, 4], cols[:, 3].conj(), rtol=1e-12, atol=0)
        kept = [(0, True), (1, False), (3, False)]
        assert reducers._conjugate_pairs(data.points, data.directions) == kept
        V = reducers._realify(cols[:, [0, 1, 3]], kept)
        W = reducers._normalized(V)
        keep, cond = reducers._kept(W)
        assert basis.V.shape == (cols.shape[0], 5)
        assert basis.cond == cond and 1.0 <= cond < np.inf
        if saddle:
            assert np.array_equal(basis.V, spla.qr(W[:, keep], mode="economic")[0])
            assert basis.directions is None
        else:
            Bd = reducers._realify(data.directions[[0, 1, 3]].T, kept)
            assert np.array_equal(basis.V, V[:, keep])
            assert np.array_equal(basis.directions, Bd[:, keep])

    def test_mimo_pairs_match_point_and_direction(self, monkeypatch):
        # [s, s, conj s, conj s] with directions [b1, b2, conj b2, conj b1]:
        # each point pairs with the partner that carries its conjugate
        # direction, so two solves give the whole real span
        from phmor import reducers
        from phmor.systems import Index1Partition

        part = random_ph_index1(8, 3, 2, seed=0)
        s = 0.5 + 2j
        b1, b2 = np.array([1.0, 2j]), np.array([1j - 0.5, 1.0])
        data = _data([s, s, s.conjugate(), s.conjugate()],
                     [b1, b2, b2.conj(), b1.conj()])
        assert reducers._conjugate_pairs(data.points, data.directions) == [
            (0, False), (1, False)]
        calls = []
        solve_shifted = Index1Partition.solve_shifted

        def counting(self, s, rhs, **kwargs):
            calls.append(s)
            return solve_shifted(self, s, rhs, **kwargs)

        monkeypatch.setattr(Index1Partition, "solve_shifted", counting)
        basis = build_V_generic(part, data)
        assert len(calls) == 1 and np.array_equal(calls[0], [s, s])
        monkeypatch.undo()

        gen = part.parent.generic
        cols = np.column_stack([part.solve_shifted(p, gen.B @ b)
                                for p, b in zip(data.points, data.directions)])
        every = np.column_stack([cols.real, cols.imag])
        assert basis.V.shape == (part.parent.n, 4)
        assert np.linalg.matrix_rank(every) == 4
        assert np.max(spla.subspace_angles(basis.V, every)) < 1e-10

    def test_mimo_pair_with_unmatched_direction_is_rejected(self):
        s, b1, b2 = 0.5 + 2j, np.array([1.0, 2j]), np.array([1j - 0.5, 1.0])
        with pytest.raises(LinAlgContractError, match="not closed under conjugation"):
            _data([s, s, s.conjugate(), s.conjugate()], [b1, b2, b2.conj(), b2.conj()])


class TestHandVerifiedValues:
    def test_index1_shifted_fixture(self, index1_fixture):
        part = partition_index1(index1_fixture, 1)
        model = reduce_index1_shifted(part, _data([1.0], [[1.0]]))
        gen = model.generic
        assert gen.E == pytest.approx(np.array([[2.25]]))
        assert gen.A == pytest.approx(np.array([[0.75]]))
        assert gen.B == pytest.approx(np.array([[1.5]]))
        assert gen.C == pytest.approx(np.array([[1.5]]))
        assert gen.D == pytest.approx(np.array([[1.0]]))
        assert model.system.R == pytest.approx(np.array([[-0.75]]))
        assert not model.ph_valid
        # interpolation at sigma = 1 despite the broken structure
        assert model.transfer_eval(1.0)[0, 0] == pytest.approx(2.5, abs=1e-12)

    def test_index2_galerkin_fixture(self, index2_fixture):
        part = partition_index2(index2_fixture, 2)
        data = _data([1.0], [[1.0]])
        model = reduce_index2(part, data)
        # the hand values are those of the raw saddle column V_raw = V T, V
        # the orthonormal basis the reducer projects with
        T = build_V_saddle(part, data).V.T @ raw_saddle_basis(part, data)
        assert T.T @ model.system.E @ T == pytest.approx(np.array([[0.25]]))
        assert T.T @ model.generic.A @ T == pytest.approx(np.array([[-0.25]]))
        assert T.T @ model.system.B == pytest.approx(np.array([[-0.5]]))
        assert model.generic.C @ T == pytest.approx(np.array([[-0.5]]))
        assert model.ph_valid
        # Hr(s) = 1/(s+1) exactly
        for s in (1j, 0.3, 2.0 + 1j):
            assert model.transfer_eval(s)[0, 0] == pytest.approx(1 / (s + 1), abs=1e-12)


class TestInterpolationProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_index1_reducers(self, seed):
        part = random_ph_index1(10, 3, 2, seed=seed)
        rng = np.random.default_rng(100 + seed)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        data = _data([0.7, 1.5 + 1j, 1.5 - 1j],
                     [rng.standard_normal(2), b, b.conjugate()])
        for reducer in (reduce_index1_shifted, reduce_index1_blockdiag):
            model = reducer(part, data)
            res = tangential_residuals(part.parent, model, data)
            assert res.max() < 1e-8

    def test_index2_reducers(self):
        part0 = mass_spring_chain(MassSpringSpec(k=9))
        data = _data([0.4, 2.0 + 1j, 2.0 - 1j], [[1.0], [1j], [-1j]])
        model = reduce_index2(part0, data)
        assert tangential_residuals(part0.parent, model, data).max() < 1e-8

        partb = mass_spring_chain_b2(MassSpringSpec(k=9), amplitude=0.7)
        modelb = reduce_index2_augmented(partb, data)
        assert modelb.augmented_input
        assert tangential_residuals(partb.parent, modelb, data).max() < 1e-8

    def test_augmented_matches_polynomial_part(self):
        part = mass_spring_chain_b2(MassSpringSpec(k=6), amplitude=1.1)
        data = _data([1.0, 10.0], [[1.0], [1.0]])
        model = reduce_index2_augmented(part, data)
        # difference decays at large frequency because P0 + s P1 is shared
        d6 = abs(evaluate(part.parent, 1e6j) - model.transfer_eval(1e6j))[0, 0]
        d8 = abs(evaluate(part.parent, 1e8j) - model.transfer_eval(1e8j))[0, 0]
        assert d8 < d6 < 1e-6

    def test_sparse_storage_matches_dense(self):
        # the same partitions with E, J, R held as CSR arrays: sparse shifted
        # solves and sparse E11 factor give the dense models to rounding
        import scipy.sparse as sp

        from phmor import PHDAESystem

        data = _data([0.4, 2.0 + 1j, 2.0 - 1j], [[1.0], [1j], [-1j]])
        for dense, reducer in ((mass_spring_chain(MassSpringSpec(k=9)), reduce_index2),
                               (mass_spring_chain_b2(MassSpringSpec(k=9), amplitude=0.7),
                                reduce_index2_augmented)):
            mats = {name: getattr(dense.parent, name) for name in "EJRBPSN"}
            mats.update({name: sp.csr_array(mats[name]) for name in "EJR"})
            sparse = partition_index2(PHDAESystem(**mats), dense.n1)
            expect, got = reducer(dense, data), reducer(sparse, data)
            assert tangential_residuals(sparse.parent, got, data).max() < 1e-8
            for s in (0.1j, 1.0 + 3j, 1e3j):
                assert np.allclose(got.transfer_eval(s), expect.transfer_eval(s),
                                   rtol=1e-9, atol=0)

    def test_augmented_delegates_when_b2_zero(self, index2_fixture):
        part = partition_index2(index2_fixture, 2)
        model = reduce_index2_augmented(part, _data([1.0], [[1.0]]))
        assert model.method == "index2-galerkin"
        assert not model.augmented_input

    def test_mixed_reducer(self):
        part = mixed_chain(MassSpringSpec(k=6))
        data = _data([0.5, 3.0 + 2j, 3.0 - 2j], [[1.0], [1.0], [1.0]])
        model = reduce_mixed(part, data)
        assert tangential_residuals(part.parent, model, data).max() < 1e-8
        assert model.order == 3 and model.method == "index2-galerkin"

    def test_index2_requires_zero_b2(self):
        part = mass_spring_chain_b2(MassSpringSpec(k=5), amplitude=1.0)
        with pytest.raises(LinAlgContractError):
            reduce_index2(part, _data([1.0], [[1.0]]))


_MIXED_GRID = 1j * np.logspace(-3, 3, 20)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(2, 40), r=st.integers(1, 8))
def test_mixed_model_reduces_as_its_split(k, r):
    # the index-2 route against the deleted block route (x1 and x3 kept, x2
    # reduced), from the default start
    part = mixed_chain(MassSpringSpec(k=k))
    data = InterpolationData.log_spaced(r, part.parent.m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rank drops
        model = reduce_mixed(part, data)
        ref = reference_mixed_blockdiag(part, data)
    assert model.method == "index2-galerkin" and model.ph_valid
    assert np.array_equal(model.generic.D, part.parent.S + part.parent.N)
    assert tangential_residuals(part, model, data).max() <= 1e-12
    # order r, or all of x2 when r exceeds its size 2k; the block route's
    # rank test on the unnormalized x2 rows can drop one more column.  The
    # view's n2 is the size of x1 and of x3
    dynamic = ref.order - 2 * part.n2
    assert model.order == min(r, 2 * k) >= dynamic
    if dynamic == r:
        H, Hr = ref.transfer_evals(_MIXED_GRID), model.transfer_evals(_MIXED_GRID)
        gap = np.max(np.linalg.norm(H - Hr, 2, axis=(1, 2)))
        assert gap <= 1e-8 * np.max(np.linalg.norm(H, 2, axis=(1, 2)))


def _random_index2_with_constraint_inputs(seed, n1=10, n2=3, m=2):
    """A random index-2 pH model whose constraint rows carry inputs (B2 != 0,
    P = 0, S = I), partitioned after n1."""
    from phmor import PHDAESystem

    rng = np.random.default_rng(seed)
    n = n1 + n2
    E, J, R = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    X, K, Y = (rng.standard_normal((n1, n1)) for _ in range(3))
    E[:n1, :n1] = X @ X.T + n1 * np.eye(n1)
    J[:n1, :n1] = K - K.T
    J12 = rng.standard_normal((n1, n2))
    J[:n1, n1:], J[n1:, :n1] = J12, -J12.T
    R[:n1, :n1] = Y @ Y.T / n1 + 0.1 * np.eye(n1)
    sys = PHDAESystem(E=E, J=J, R=R, B=rng.standard_normal((n, m)), P=np.zeros((n, m)),
                      S=np.eye(m), N=np.zeros((m, m)))
    return partition_index2(sys, n1)


class TestMIMOConstraintInputs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_augmented_reduction(self, seed):
        part = _random_index2_with_constraint_inputs(seed)
        assert part.n2 == 3 and part.parent.m == 2 and not part.b2_zero
        b = np.array([0.3 + 1j, -0.7 + 0.2j])
        data = _data([0.5, 1 + 2j, 1 - 2j, 3.0],
                     [[1.0, 1.0], b, b.conj(), [1.0, -1.0]])
        assert np.max(np.abs(part.J12.T @ build_V_saddle(part, data).V)) <= 1e-12
        model = reduce_index2_augmented(part, data)
        assert model.augmented_input and model.ph_valid and model.order == 4
        assert tangential_residuals(part, model, data).max() <= 1e-8

        # closed form with explicit inverses: P1 = C2 M^-1 B2 and
        # P0 = D + C1 G - C2 M^-1 J12^T E11^-1 (A11 G + B1), G = E11^-1 J12 M^-1 B2
        E11inv = np.linalg.inv(part.E11)
        Minv = np.linalg.inv(part.J12.T @ E11inv @ part.J12)
        B1, B2 = part.B1 - part.P1, part.B2 - part.P2
        C1, C2 = (part.B1 + part.P1).T, (part.B2 + part.P2).T
        G = E11inv @ part.J12 @ Minv @ B2
        P1 = C2 @ Minv @ B2
        P0 = (part.parent.S + part.parent.N + C1 @ G
              - C2 @ Minv @ part.J12.T @ E11inv @ (part.A11 @ G + B1))
        for got in (part.polynomial_part, model.polynomial):
            assert np.allclose(got.P0, P0, rtol=0, atol=1e-12 * (1 + np.abs(P0).max()))
            assert np.allclose(got.P1, P1, rtol=0, atol=1e-12 * (1 + np.abs(P1).max()))


class TestConstraintFactorsOnce:
    """The constraint blocks, the saddle matrix [[E11, J12], [J12^T, 0]]
    and A22 = J22 - R22, are factored when the partition is checked, and
    every later use of them reads that check's solve or factor."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import scipy.sparse.linalg as spsla

        from phmor import linalg

        calls = []

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for mod, name in ((np.linalg, "solve"), (np.linalg, "inv"), (spla, "solve"),
                          (spla, "inv"), (spla, "lu_factor"), (spla, "lstsq"),
                          (spsla, "splu")):
            monkeypatch.setattr(mod, name, recording(name, getattr(mod, name)))
        monkeypatch.setattr(linalg.LUFactor, "__init__",
                            recording("LUFactor", linalg.LUFactor.__init__))
        return calls

    def test_irka_on_chain_b2(self, solves):
        from phmor import IRKAConfig, irka_reduce

        parent = mass_spring_chain_b2(MassSpringSpec(k=10), amplitude=0.7).parent
        solves.clear()
        part = partition_index2(parent, parent.n - 1)
        assert solves == ["splu"]  # the saddle matrix, once; no E11^{-1} J12, M or LU(M)
        solves.clear()
        result = irka_reduce(part, IRKAConfig(r=4), method="index2")
        assert result.model.order == 4 and not part.b2_zero
        assert solves == []

    @pytest.mark.parametrize("reducer", [reduce_index1_shifted, reduce_index1_blockdiag])
    def test_index1_reduction(self, solves, reducer):
        part = random_ph_index1(12, 4, 2, seed=3)
        assert solves == ["LUFactor"]  # A22, once, by the partition check
        solves.clear()
        data = _data([0.5, 2.0], np.ones((2, 2)))
        reducer(part, data)
        assert solves == []

    def test_index1_partition_solves_with_A22_once(self, monkeypatch):
        from phmor import linalg

        calls = []
        solve = linalg.LUFactor.solve

        def counted(self, *args, **kwargs):
            calls.append(self)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(linalg.LUFactor, "solve", counted)
        part = random_ph_index1(12, 4, 2, seed=3)
        part.polynomial_part, part.ode, part.shifted_solver
        assert len(calls) == 1  # the solver, the polynomial part and the ODE share it


class TestStructurePreservation:
    @pytest.mark.parametrize("seed", range(3))
    def test_blockdiag_always_ph(self, seed):
        part = random_ph_index1(12, 4, 2, seed=seed)
        data = InterpolationData.log_spaced(4, 2, 1e-1, 1e2)
        model = reduce_index1_blockdiag(part, data)
        assert model.ph_valid
        assert model.order == 4
        report = validate_structure(model.system)
        assert report.passed

    def test_galerkin_reduced_is_valid_phdae(self):
        part = mass_spring_chain(MassSpringSpec(k=10))
        data = InterpolationData.log_spaced(5, 1, 1e-1, 1e2)
        model = reduce_index2(part, data)
        assert model.ph_valid
        assert validate_structure(model.system).passed
        J = model.system.J
        assert np.linalg.norm(J + J.T) <= 1e-12 * max(np.linalg.norm(J), 1e-300)


def _kept_x1_columns(part, data):
    """W: the normalized x1 rows of the full model's solves at ``data``
    that the rank rule keeps, in order, computed apart from the reducer."""
    B = part.generic.B
    raw = point_solves(data, lambda s, b: part.solve_shifted(s, B @ b)[:part.n1])
    W = raw / np.linalg.norm(raw, axis=0)
    rank, piv, _ = pivoted_rank(W)
    return W[:, np.sort(piv[:rank])]


def _transfer_gap(model, reference, data):
    """max ||H - Href||_2 over the interpolation points and _GRID, relative
    to the largest ||Href||_2 there."""
    points = np.concatenate([data.points, _GRID])
    got, want = model.transfer_evals(points), reference.transfer_evals(points)
    return (np.max(np.linalg.norm(got - want, 2, axis=(1, 2)))
            / np.max(np.linalg.norm(want, 2, axis=(1, 2))))


class TestIndex1Galerkin:
    """``index1-blockdiag`` is the Galerkin formula of the index-2 reducer on
    the x2-eliminated pH ODE: order r where the normalized rank rule keeps
    every column, Dr = P0, and the transfer function of the deleted
    block-diagonal route (``reference_index1_blockdiag``) of order r + n2."""

    @pytest.mark.parametrize("seed, r", [(seed, r) for seed in range(4) for r in (9, 10)
                                         if (seed, r) != (2, 10)])
    def test_order_r_where_the_block_route_dropped_a_column(self, seed, r):
        # the block route ranked the unnormalized x1 rows and returned
        # order r + n2 - 1 here; the normalized rule keeps every column
        part = random_ph_index1(12, 4, 2, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = reduce_index1_blockdiag(part, InterpolationData.log_spaced(r, 2))
        assert model.order == r and model.method == "index1-galerkin"

    def test_a_column_the_normalized_rule_drops_is_warned_about(self):
        part = random_ph_index1(12, 4, 2, seed=2)
        with pytest.warns(RuntimeWarning, match="9 of 10 normalized columns kept"):
            model = reduce_index1_blockdiag(part, InterpolationData.log_spaced(10, 2))
        assert model.order == 9

    @settings(max_examples=40, deadline=None)
    @given(part=st.builds(random_ph_index1, n1=st.integers(2, 16), n2=st.integers(1, 5),
                          m=st.integers(1, 3), seed=st.integers(0, 2**16)),
           r=st.integers(1, 10), order=st.randoms(use_true_random=False))
    def test_galerkin_properties(self, part, r, order):
        data = InterpolationData.log_spaced(r, part.parent.m)
        perm = order.sample(range(r), r)
        shuffled = InterpolationData(points=data.points[perm], directions=data.directions[perm])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rank drops
            model = reduce_index1_blockdiag(part, data)
            moved = reduce_index1_blockdiag(part, shuffled)
            reference = reference_index1_blockdiag(part, data)
        W = _kept_x1_columns(part, data)
        bound = 1e-13 + 10 * np.finfo(float).eps * np.linalg.cond(W)
        P0 = part.polynomial_part.P0
        assert model.method == "index1-galerkin" and model.ph_valid
        assert model.order == W.shape[1]
        assert np.linalg.norm(model.generic.D - P0) <= 1e-14 * np.linalg.norm(P0)
        assert tangential_residuals(part, model, data).max() <= 1e-12
        if model.order == r and reference.order == r + part.n2:
            assert _transfer_gap(model, reference, data) <= bound
        if model.order == moved.order == r:
            assert _transfer_gap(moved, model, data) <= bound

    def test_ode_is_the_schur_complement_in_ph_form(self):
        part = random_ph_index1(9, 3, 2, seed=4)
        E, J, R, B, P, S, N = part.ode
        A = part.generic.A
        A22inv = np.linalg.inv(A[9:, 9:])
        Bf, Cf = part.generic.B, part.generic.C
        assert np.allclose(J - R, A[:9, :9] - A[:9, 9:] @ A22inv @ A[9:, :9], atol=1e-12)
        assert np.allclose(B - P, Bf[:9] - A[:9, 9:] @ A22inv @ Bf[9:], atol=1e-12)
        assert np.allclose((B + P).T, Cf[:, :9] - Cf[:, 9:] @ A22inv @ A[9:, :9], atol=1e-12)
        assert np.allclose(S + N, part.polynomial_part.P0, rtol=0, atol=1e-14)
        assert np.array_equal(E, part.E11)
        assert validate_structure(PHDAESystem(*part.ode)).passed


class TestProjectors:
    def test_projector_identities(self):
        part = mass_spring_chain(MassSpringSpec(k=6))
        pi_l, pi_r = constraint_projectors(part)
        assert np.allclose(pi_l @ pi_l, pi_l, atol=1e-10)
        assert np.allclose(pi_r @ pi_r, pi_r, atol=1e-10)
        # pi_l maps into ker(J12^T); pi_r annihilates range(J12)
        assert np.max(np.abs(part.J12.T @ pi_l)) < 1e-10
        assert np.max(np.abs(pi_r @ part.J12)) < 1e-10

    def test_projectors_identity_without_constraints(self, index1_fixture):
        # index-2 partition with empty constraint block
        import phmor

        sys = phmor.PHDAESystem(
            E=np.eye(2), J=index1_fixture.J, R=np.diag([0.5, 1.0]),
            B=index1_fixture.B, P=index1_fixture.P,
            S=index1_fixture.S, N=index1_fixture.N,
        )
        part = partition_index2(sys, 2)
        pi_l, pi_r = constraint_projectors(part)
        assert np.allclose(pi_l, np.eye(2))
        assert np.allclose(pi_r, np.eye(2))

    def test_oracle_matches_dae_transfer(self):
        part = mass_spring_chain(MassSpringSpec(k=8))
        oracle = projector_oracle_index2(part)
        for w in (0.05, 1.0, 30.0):
            assert np.allclose(
                eval_transfer(oracle, 1j * w),
                evaluate(part.parent, 1j * w),
                atol=1e-10,
            )

    def test_oracle_rejects_constraint_inputs(self):
        part = mass_spring_chain_b2(MassSpringSpec(k=5), amplitude=1.0)
        with pytest.raises(LinAlgContractError):
            projector_oracle_index2(part)


class TestReducedModelRoundTrip:
    def test_generic_and_transfer_consistent(self, index2_fixture):
        part = partition_index2(index2_fixture, 2)
        model = reduce_index2(part, _data([2.0], [[1.0]]))
        gen = model.generic
        s = 1.5 + 0.5j
        direct = gen.C @ np.linalg.solve(s * gen.E - gen.A, gen.B) + gen.D
        assert np.allclose(direct, model.transfer_eval(s))


def _chain(k):
    return mass_spring_chain(MassSpringSpec(k=k))


def _chain_b2(k):
    return mass_spring_chain_b2(MassSpringSpec(k=k), amplitude=0.7)


_index1_models = st.builds(random_ph_index1, n1=st.integers(4, 14), n2=st.integers(1, 5),
                           m=st.integers(1, 3), seed=st.integers(0, 2**16))
_chain_sizes = st.integers(3, 12)
#: Model kind, the ``method`` its models record -> (the REDUCERS entry
#: that returns it, the models it is drawn on).
_MODELS = {
    "index1-shifted": ("index1-shifted", _index1_models),
    "index1-galerkin": ("index1-blockdiag", _index1_models),
    "index2-galerkin": ("index2", st.one_of(
        _chain_sizes.map(_chain),
        _chain_sizes.map(lambda k: mixed_chain(MassSpringSpec(k=k))))),
    "index2-augmented": ("index2", st.one_of(_chain_sizes.map(_chain),
                                             _chain_sizes.map(_chain_b2))),
}


class TestExactStructure:
    """Every reducer returns E and R symmetric and J skew bit for bit: the
    one congruence symmetrizes its projections, and the index-1 shift adds
    exactly symmetric and skew parts."""

    def test_every_reducer_is_drawn(self):
        assert {name for name, _ in _MODELS.values()} == set(REDUCERS)

    @pytest.mark.parametrize("kind", sorted(_MODELS))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_reduced_matrices_exactly_structured(self, kind, data):
        method, models = _MODELS[kind]
        part = data.draw(models)
        r = data.draw(st.integers(1, 4))
        interp = InterpolationData.log_spaced(r, part.parent.m, 1e-1, 1e2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rank drops
            model = REDUCERS[method](part, interp)
        E, J, R = model.system.E, model.system.J, model.system.R
        assert np.array_equal(E, E.T)
        assert np.array_equal(R, R.T)
        assert np.array_equal(J, -J.T)


_GRID = 1j * np.logspace(-2, 3, 50)


def _assert_same_transfer(model, reference, data):
    """Transfer functions equal to 1e-12 relative at the interpolation
    points and on a 50-point imaginary-axis grid."""
    for points in (data.points, _GRID):
        got, want = model.transfer_evals(points), reference.transfer_evals(points)
        scale = np.max(np.linalg.norm(want, 2, axis=(1, 2)))
        assert np.max(np.linalg.norm(got - want, 2, axis=(1, 2))) <= 1e-12 * scale
    assert model.augmented_input == reference.augmented_input
    assert np.array_equal(model.polynomial.P0, reference.polynomial.P0)


class TestGenericFormReferences:
    """The congruence reducers against the generic-form route (project
    (E, A, B, C, D), then take the pH form) that they replace."""

    @pytest.mark.parametrize("k", [6, 20])
    def test_index2_chain_b2(self, k):
        part = _chain_b2(k)
        data = _data([0.4, 2.0 + 1j, 2.0 - 1j, 10.0], [[1.0], [1j], [-1j], [1.0]])
        _assert_same_transfer(reduce_index2_augmented(part, data), generic_index2(part, data), data)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index2_mimo_constraint_inputs(self, seed):
        part = _random_index2_with_constraint_inputs(seed)
        b = np.array([0.3 + 1j, -0.7 + 0.2j])
        data = _data([0.5, 1 + 2j, 1 - 2j, 3.0],
                     [[1.0, 1.0], b, b.conj(), [1.0, -1.0]])
        _assert_same_transfer(reduce_index2_augmented(part, data), generic_index2(part, data), data)

    def test_index2_without_constraint_inputs(self):
        part = _chain(9)
        data = _data([0.4, 2.0 + 1j, 2.0 - 1j], [[1.0], [1j], [-1j]])
        _assert_same_transfer(reduce_index2(part, data), generic_index2(part, data), data)

    @pytest.mark.parametrize("seed", range(5))
    def test_index1_shifted(self, seed):
        part = random_ph_index1(10, 3, 2, seed=seed)
        rng = np.random.default_rng(100 + seed)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        data = _data([0.7, 1.5 + 1j, 1.5 - 1j],
                     [rng.standard_normal(2), b, b.conjugate()])
        model = reduce_index1_shifted(part, data)
        reference = generic_index1_shifted(part, data)
        _assert_same_transfer(model, reference, data)
        assert model.w_min_eig == pytest.approx(reference.w_min_eig, rel=1e-10, abs=1e-12)


_SADDLE_VIEWS = {
    "chain": lambda: mass_spring_chain(MassSpringSpec(k=9)),
    "oseen": lambda: oseen_grid(OseenSpec(n_grid=3)),
    "chain-b2": lambda: mass_spring_chain_b2(MassSpringSpec(k=9), amplitude=0.7),
    "sparse-chain": lambda: partition_index2(mass_spring_chain_sparse(MassSpringSpec(k=9)),
                                             MassSpringSpec(k=9).n1),
}


class TestSaddleColumnsWithoutMultiplier:
    """The saddle basis takes only x1 of each solve; a dense index-2 view
    then skips the multiplier, with the same bits."""

    @pytest.mark.parametrize("name", sorted(_SADDLE_VIEWS))
    def test_dynamic_block_is_the_full_solve_sliced(self, name):
        part = _SADDLE_VIEWS[name]()
        assert part.b2_zero == (name != "chain-b2")
        B = part.generic.B
        for s in (0.3, 2.0 + 5.0j, 1e3 - 1e-2j):
            for b in (np.ones(B.shape[1]), np.array([1.0 - 2.0j])):
                rhs = B @ b
                x1 = part.solve_shifted(s, rhs, dynamic=True)
                full = part.solve_shifted(s, rhs)
                assert x1.shape == (part.n1,)
                assert x1.tobytes() == full[:part.n1].tobytes()
        F = np.column_stack([B[:, 0], 2.0 * B[:, 0]])
        assert (part.solve_shifted(1.5j, F, dynamic=True).tobytes()
                == part.solve_shifted(1.5j, F)[:part.n1].tobytes())

    def test_index1_dynamic_block_is_the_full_solve_sliced(self):
        part = random_ph_index1(8, 3, 2, seed=0)
        rhs = part.generic.B @ np.array([1.0, 2.0j])
        assert (part.solve_shifted(0.5 + 1j, rhs, dynamic=True).tobytes()
                == part.solve_shifted(0.5 + 1j, rhs)[:part.n1].tobytes())

    @pytest.mark.parametrize("name", sorted(_SADDLE_VIEWS))
    def test_saddle_basis_is_the_sliced_solves(self, name):
        part = _SADDLE_VIEWS[name]()
        data = _data([0.1, 1 + 2j, 1 - 2j, 30.0], np.ones((4, 1)))
        B = part.generic.B

        def column(s, b):
            v = -part.solve_shifted(s, B @ b)[:part.n1]
            return v if part.b2_zero else v + part.input_lift @ b

        # the Householder Q of the kept normalized columns, in their order
        raw = point_solves(data, column)
        W = raw / np.linalg.norm(raw, axis=0)
        rank, piv, _ = pivoted_rank(W)
        Q = spla.qr(W[:, np.sort(piv[:rank])], mode="economic")[0]
        basis = build_V_saddle(part, data)
        assert basis.V.tobytes() == Q.tobytes()


@pytest.mark.parametrize("name", sorted(_SADDLE_VIEWS))
def test_index2_ports_are_formed_once_with_the_same_bits(name):
    part = _SADDLE_VIEWS[name]()
    ports = part.lifted_ports
    assert part.lifted_ports is ports
    for got, ref in zip(ports, reference_index2_ports(part)):
        assert got.tobytes() == ref.tobytes()
    data = _data([0.5, 4.0], np.ones((2, 1)))
    model = reduce_index2_augmented(part, data)
    assert part.lifted_ports is ports
    ref = congruence(build_V_saddle(part, data).V, part.E11, part.J11, part.R11,
                     *reference_index2_ports(part))
    for M in "EJRBPSN":
        assert getattr(model.system, M).tobytes() == getattr(ref, M).tobytes()
