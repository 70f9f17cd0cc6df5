import warnings

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_spectrum_tests
from phmor import (
    GenericLTISystem,
    PHDAESystem,
    congruence,
    evaluate,
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
from phmor.regularization import (
    _rank,
    _rank_floors,
    _spectrum,
    condensed_form,
    condensed_report,
    diagnose,
    output_feedback_regularize,
    remove_singular_part,
)
from phmor.linalg import LinAlgContractError


def _pad(sys, d, b_rows=None):
    """Adjoin d states with zero rows/columns in E, J, R (and B unless
    b_rows marks entries to keep)."""
    n, m = sys.n, sys.m
    Z = np.zeros
    E = np.block([[sys.E, Z((n, d))], [Z((d, n)), Z((d, d))]])
    J = np.block([[sys.J, Z((n, d))], [Z((d, n)), Z((d, d))]])
    R = np.block([[sys.R, Z((n, d))], [Z((d, n)), Z((d, d))]])
    Bpad = Z((d, m))
    if b_rows is not None:
        Bpad = b_rows
    B = np.vstack([sys.B, Bpad])
    P = np.vstack([sys.P, Z((d, m))])
    return PHDAESystem(E=E, J=J, R=R, B=B, P=P, S=sys.S, N=sys.N)


GRID = np.logspace(-2, 2, 50)


def _transfer_close(a, b, tol=1e-12):
    scale = max(np.max([np.linalg.norm(evaluate(a, 1j * w)) for w in GRID]), 1.0)
    return all(
        np.linalg.norm(evaluate(a, 1j * w) - evaluate(b, 1j * w)) <= tol * scale
        for w in GRID
    )


class TestRemoveSingularPart:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_round_trip(self, d):
        part = random_ph_index1(8, 3, 2, seed=d)
        sys = part.parent
        sub, dropped, V = remove_singular_part(_pad(sys, d))
        assert dropped == d
        assert sub.n == sys.n
        assert _transfer_close(sys, sub)
        assert V.shape == (sys.n + d, sys.n + d)
        assert np.allclose(V.T @ V, np.eye(sys.n + d), atol=1e-12)

    def test_input_coupled_state_is_kept(self):
        part = random_ph_index1(6, 2, 1, seed=0)
        sys = part.parent
        b_rows = np.zeros((2, 1))
        b_rows[0, 0] = 1.0  # first padded state still sees the input
        padded = _pad(sys, 2, b_rows=b_rows)
        sub, dropped, _ = remove_singular_part(padded)
        assert dropped == 1
        assert sub.n == sys.n + 1

    def test_noop_on_regular_system(self):
        part = random_ph_index1(5, 2, 1, seed=1)
        sub, dropped, V = remove_singular_part(part.parent)
        assert dropped == 0
        assert sub is part.parent
        assert np.allclose(V, np.eye(part.parent.n))


def _skew_staircase(K):
    """(E, J, R) with four dynamic states (skew part K - K^T), a skew-coupled
    algebraic pair and a multiplier on state 0: block sizes (4, 0, 2, 1, 0)."""
    n = 7
    E, J, R = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    E[:4, :4] = np.eye(4)
    J[:4, :4] = K - K.T
    J[4, 5], J[5, 4], J[6, 0], J[0, 6] = 2.0, -2.0, 1.0, -1.0
    R[:4, :4] = 0.1 * np.eye(4)
    return E, J, R


class TestCondensedForm:
    def test_fixture_block_sizes(self, index2_fixture):
        cf = condensed_form(index2_fixture)
        # rank(E) = 2 dynamic states, one index-2 coupled multiplier
        assert cf.block_sizes == (2, 0, 0, 1, 0)
        assert _transfer_close(index2_fixture, cf.system)

    def test_index1_fixture_blocks(self, index1_fixture):
        cf = condensed_form(index1_fixture)
        assert cf.block_sizes == (1, 1, 0, 0, 0)
        assert _transfer_close(index1_fixture, cf.system)

    def test_free_states_detected(self):
        part = random_ph_index1(5, 2, 1, seed=2)
        padded = _pad(part.parent, 2)
        cf = condensed_form(padded)
        assert cf.block_sizes[-1] == 2
        assert cf.V.shape == (padded.n, padded.n)
        assert np.allclose(cf.V.T @ cf.V, np.eye(padded.n), atol=1e-12)

    def test_certificates(self):
        part = mass_spring_chain(MassSpringSpec(k=4))
        cf = condensed_form(part.parent)
        n_dyn = cf.block_sizes[0]
        assert n_dyn == 2 * 4
        E11 = cf.system.E[:n_dyn, :n_dyn]
        assert np.linalg.eigvalsh(E11).min() > 0
        report = condensed_report(cf)
        assert "dynamic" in report and "index-2 coupled" in report

    def test_skew_algebraic_block(self):
        # the algebraic states randomly rotated among themselves
        rng = np.random.default_rng(0)
        n = 7
        E, J, R = _skew_staircase(rng.standard_normal((4, 4)))
        Q = np.eye(n)
        Q[4:, 4:] = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        sys = congruence(Q, E, J, R, rng.standard_normal((n, 1)), np.zeros((n, 1)),
                         np.eye(1), np.zeros((1, 1)))
        cf = condensed_form(sys)
        assert cf.block_sizes == (4, 0, 2, 1, 0)
        assert np.allclose(cf.V.T @ cf.V, np.eye(n), atol=1e-12)
        Jc = cf.system.J
        assert np.abs(np.linalg.eigvals(Jc[4:6, 4:6])).min() > 1.0
        # the trailing rows of the skew split are its null space: no coupling back
        assert np.max(np.abs(Jc[6:, 4:6])) <= 1e-12
        assert np.array_equal(Jc, -Jc.T) and np.array_equal(cf.system.E, cf.system.E.T)
        assert _transfer_close(sys, cf.system)

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_of_rotated_energy_matrix(self, seed):
        # every state rotated: eigh with eigenvectors returns the zero
        # eigenvalues of E above the rank tolerance 7 eps ||E|| (5 of 6 seeds),
        # and step 1 leaves a trailing R block of rounding noise (eigenvalues
        # below 1e-17) that must get rank 0 against ||R|| = 0.1
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((7, 7)))[0]
        E, J, R = _skew_staircase(rng.standard_normal((4, 4)))
        sys = congruence(Q, E, J, R, rng.standard_normal((7, 1)), np.zeros((7, 1)),
                         np.eye(1), np.zeros((1, 1)))
        cf = condensed_form(sys)
        assert cf.block_sizes == (4, 0, 2, 1, 0)
        assert _transfer_close(sys, cf.system)

    def test_transformed_system_is_ph(self, index2_fixture):
        cf = condensed_form(index2_fixture)
        assert validate_structure(cf.system).passed


class TestDiagnose:
    def test_index1_random_is_index_leq1(self):
        part = random_ph_index1(8, 3, 2, seed=3)
        rep = diagnose(part.parent)
        assert rep.pencil_regular
        assert rep.index_leq1

    def test_index2_chain_fails_infinity_conditions(self):
        part = mass_spring_chain(MassSpringSpec(k=4))
        rep = diagnose(part.parent)
        assert rep.pencil_regular
        assert not rep.index_leq1
        assert not (rep["C2"].passed and rep["O2"].passed)

    def test_summary_text(self, index2_fixture):
        rep = diagnose(index2_fixture)
        text = rep.summary()
        assert "C1" in text and "O2" in text

    def test_ode_sanity(self):
        sys = PHDAESystem(
            E=np.eye(2), J=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            R=np.eye(2), B=np.ones((2, 1)), P=np.zeros((2, 1)),
            S=np.zeros((1, 1)), N=np.zeros((1, 1)),
        )
        rep = diagnose(sys)
        assert rep.index_leq1
        assert all(t.passed for t in rep.tests)


def _assert_reference(gen):
    """diagnose's C1 and O1 equal the SVD ranking at every eigenvalue,
    field for field; returns the report."""
    rep = diagnose(gen)
    c1, o1 = reference_spectrum_tests(gen)
    assert rep["C1"] == c1
    assert rep["O1"] == o1
    return rep


BENCHMARK_GENERICS = {
    **{f"{make.__name__}-k{k}": (lambda make=make, k=k: make(MassSpringSpec(k=k)))
       for make in (mass_spring_chain, mixed_chain, mass_spring_chain_b2) for k in (20, 50)},
    **{f"oseen-{g}": (lambda g=g: oseen_grid(OseenSpec(n_grid=g))) for g in (3, 8)},
    **{f"random-index1-{seed}": (lambda seed=seed: random_ph_index1(12, 4, 2, seed=seed))
       for seed in range(10)},
}


def _lti(E, A, B, C):
    return GenericLTISystem(E=np.asarray(E, dtype=float), A=np.asarray(A, dtype=float),
                            B=np.asarray(B, dtype=float), C=np.asarray(C, dtype=float),
                            D=np.zeros((np.shape(C)[0], np.shape(B)[1])))


def _rotated(E, A, B, C, seed):
    """(Q^T E Z, Q^T A Z, Q^T B, C Z) for random orthogonal Q, Z: the same
    pencil, controllability and observability in other coordinates."""
    rng = np.random.default_rng(seed)
    n = len(A)
    Q, Z = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return _lti(Q.T @ E @ Z, Q.T @ A @ Z, Q.T @ B, C @ Z)


class TestDiagnoseConjugatePairs:
    @pytest.mark.parametrize("make", [mass_spring_chain, mixed_chain], ids=["chain", "mixed"])
    def test_report_equals_ranking_every_eigenvalue(self, make):
        gen = make(MassSpringSpec(k=20)).parent.generic
        assert np.any(_spectrum(gen.A, gen.E)[0].imag < 0)  # both members ranked
        _assert_reference(gen)

    def test_uncontrollable_complex_mode_witness(self):
        # the mode pair -1 +- 2i does not see the input
        A = np.zeros((4, 4))
        A[:2, :2] = [[-1.0, 2.0], [-2.0, -1.0]]
        A[2, 2], A[3, 3] = -3.0, -4.0
        gen = GenericLTISystem(E=np.eye(4), A=A, B=np.array([[0.0], [0.0], [1.0], [1.0]]),
                               C=np.ones((1, 4)), D=np.zeros((1, 1)))
        rep = diagnose(gen)
        c1 = rep["C1"]
        assert not c1.passed
        assert c1.measured_rank == 3
        assert c1.witness == pytest.approx(-1.0 + 2.0j, rel=1e-12)
        assert rep["O1"].passed
        assert [rep["C1"], rep["O1"]] == reference_spectrum_tests(gen)


class TestDiagnoseEqualsSVDRanking:
    """The screened diagnosis ranks by SVD only where the one-vector test
    cannot decide, and must report what ranking every eigenvalue reports."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_GENERICS))
    def test_benchmark_models(self, name):
        _assert_reference(BENCHMARK_GENERICS[name]().parent.generic)

    @pytest.mark.parametrize("seed", range(3))
    def test_double_eigenvalue_beyond_the_port_count(self, seed):
        # -1 twice with two eigenvectors and one input: no B reaches both
        gen = _rotated(np.eye(4), np.diag([-1.0, -1.0, -2.0, -3.0]), np.ones((4, 1)),
                       np.ones((1, 4)), seed)
        rep = _assert_reference(gen)
        assert not rep["C1"].passed and not rep["O1"].passed
        assert rep["C1"].measured_rank == 3
        assert rep["C1"].witness == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("controllable", [True, False])
    def test_jordan_block(self, controllable):
        # the left eigenvector of the block at -1 is e2: B = e1 + e3 misses it.
        # QZ splits the block into -1 +- O(sqrt(eps)) with condition ~1/sqrt(eps),
        # where no one-vector test is trusted: both get the floor 0 (ranked)
        A = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
        B = np.array([[0.0], [1.0], [1.0]]) if controllable else np.array([[1.0], [0.0], [1.0]])
        gen = _rotated(np.eye(3), A, B, np.ones((1, 3)), 3)
        _assert_reference(gen)
        lam, VL, VR = _spectrum(gen.A, gen.E)
        norms = (np.linalg.norm(gen.A, 2), 1.0)
        c1, o1 = _rank_floors(lam, VL, VR, gen.A, gen.E, gen.B, gen.C, norms, (10.0, 1.0))
        at_block = np.abs(lam + 1.0) < 1e-6
        assert np.count_nonzero(at_block) == 2
        assert np.all(c1[at_block] == 0) and np.all(o1[at_block] == 0)

    def test_unobservable_mode(self):
        A = np.diag([-1.0, -2.0, -3.0])
        A[0, 1] = 0.5
        # the right eigenvector of -2 is (0.5, -1, 0); C annihilates it
        C = np.array([[2.0, 1.0, 1.0]])
        rep = _assert_reference(_rotated(np.diag([1.0, 1.0, 2.0]), A, np.ones((3, 1)), C, 4))
        assert rep["C1"].passed
        assert not rep["O1"].passed and rep["O1"].witness == pytest.approx(-2.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_unobservable_mode_beside_a_tiny_algebraic_pivot(self, seed):
        # the pivot 1e-6 keeps sigma_{n-1}(lambda E - A) near 1e-6 at every
        # lambda, so the computed eigenvector of -0.5 is off by ~1e-10 and
        # C v is not small; only the probe's sigma_min reveals it
        gen = _rotated(np.diag([1.0, 1.0, 0.0]), np.diag([-0.5, -2.0, -1e-6]),
                       np.array([[1.0], [1.0], [0.0]]), np.array([[0.0, 1.0, 1.0]]), seed)
        rep = _assert_reference(gen)
        assert rep["C1"].passed
        assert not rep["O1"].passed and rep["O1"].witness == pytest.approx(-0.5)

    def test_singular_pencil_ranks_every_point(self):
        # the third state appears in no equation: det(lambda E - A) = 0 everywhere
        gen = _lti(np.diag([1.0, 1.0, 0.0]), np.diag([-1.0, -2.0, 0.0]),
                   np.ones((3, 1)), np.ones((1, 3)))
        with pytest.warns(RuntimeWarning, match="singular at all probe points"):
            rep = diagnose(gen)
        assert not rep.pencil_regular
        assert [rep["C1"], rep["O1"]] == reference_spectrum_tests(gen)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_planted_block_diagonal_models(self, data):
        # blocks: real modes, complex pairs, Jordan pairs and algebraic states,
        # eigenvalues from a short list (so some repeat); inputs and outputs
        # left out of planted blocks
        kind = st.sampled_from(["real", "pair", "jordan", "algebraic"])
        blocks = data.draw(st.lists(st.tuples(kind, st.sampled_from([-0.5, -1.0, -2.0, 0.0]),
                                              st.sampled_from([0.5, 1.0, 3.0]),
                                              st.booleans(), st.booleans()),
                                    min_size=1, max_size=6))
        m = data.draw(st.integers(1, 2))
        p = data.draw(st.integers(1, 2))
        seed = data.draw(st.integers(0, 2**32 - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a singular pencil warns
            _assert_reference(_planted(blocks, m, p, seed))

    @pytest.mark.parametrize("blocks, m, p, seed", [
        ([("pair", -2.0, 0.5, True, True), ("algebraic", 0.0, 1.0, True, True)],
         1, 2, 4060661573),
        ([("pair", -2.0, 1.0, True, True), ("real", -2.0, 0.5, True, False),
          ("real", -0.5, 3.0, False, True)], 2, 2, 2955271019),
    ], ids=["O1-decision", "C1-witness"])
    def test_conjugate_members_ranked_apart(self, blocks, m, p, seed):
        # a pair no port sees, whose two members get different ranks at the
        # tolerance: ranking only the Im >= 0 member passed O1 in the first
        # model and named the real -2 as the C1 witness in the second
        gen = _planted(blocks, m, p, seed)
        lam = _spectrum(gen.A, gen.E)[0]
        pair = lam[np.abs(lam.imag) > 0.1]
        ranks = {name: [_rank(stack(z)) for z in pair] for name, stack in (
            ("C1", lambda z: np.hstack([z * gen.E - gen.A, gen.B])),
            ("O1", lambda z: np.vstack([z * gen.E - gen.A, gen.C])))}
        assert any(len(set(r)) == 2 for r in ranks.values())
        rep = _assert_reference(gen)
        assert not rep["C1"].passed or not rep["O1"].passed
        witnesses = [t.witness for t in (rep["C1"], rep["O1"]) if t.witness is not None]
        assert any(w.imag < 0 for w in witnesses)


def _planted(blocks, m, p, seed):
    """The rotated block-diagonal model of (kind, a, b, blind, deaf) blocks:
    a real mode a, an algebraic state -b, a pair a +- ib or a Jordan pair
    at a; a blind block has no input and a deaf one no output."""
    rng = np.random.default_rng(seed)
    Es, As, Bs, Cs = [], [], [], []
    for name, a, b, blind, deaf in blocks:
        size = 2 if name in ("pair", "jordan") else 1
        As.append({"real": [[a]], "algebraic": [[-b]], "pair": [[a, b], [-b, a]],
                   "jordan": [[a, b], [0.0, a]]}[name])
        Es.append(np.zeros((1, 1)) if name == "algebraic" else np.eye(size))
        Bs.append(np.zeros((size, m)) if blind else rng.standard_normal((size, m)))
        Cs.append(np.zeros((p, size)) if deaf else rng.standard_normal((p, size)))
    return _rotated(spla.block_diag(*Es), spla.block_diag(*As), np.vstack(Bs),
                    np.hstack(Cs), seed)


class TestSparseModels:
    """A CSR model is diagnosed and regularized as its dense copy is."""

    def _pair(self):
        sparse = mass_spring_chain_sparse(MassSpringSpec(k=4))
        return sparse, mass_spring_chain(MassSpringSpec(k=4)).parent

    def test_diagnose(self):
        sparse, dense = self._pair()
        assert diagnose(sparse) == diagnose(dense)
        assert diagnose(sparse.generic) == diagnose(dense)

    def test_condensed_form(self):
        sparse, dense = self._pair()
        got, want = condensed_form(sparse), condensed_form(dense)
        assert got.block_sizes == want.block_sizes
        assert np.array_equal(got.V, want.V)
        assert np.array_equal(got.system.J, want.system.J)

    def test_remove_singular_part(self):
        sparse, dense = self._pair()
        padded = _pad(dense, 2)
        sub, dropped, V = remove_singular_part(
            PHDAESystem(E=sp.csr_array(padded.E), J=sp.csr_array(padded.J),
                        R=sp.csr_array(padded.R), B=padded.B, P=padded.P, S=padded.S, N=padded.N))
        want = remove_singular_part(padded)
        assert dropped == want[1] == 2
        assert np.array_equal(V, want[2]) and np.array_equal(sub.E, want[0].E)
        assert remove_singular_part(sparse)[1] == 0


class TestOutputFeedback:
    def test_closed_loop_is_ph(self):
        part = random_ph_index1(7, 2, 2, seed=4)
        cl = output_feedback_regularize(part.parent, np.eye(2))
        assert cl.m == 0
        assert validate_structure(cl).passed
        assert np.allclose(cl.E, part.parent.E)

    def test_rejects_bad_K(self):
        part = random_ph_index1(5, 2, 2, seed=5)
        with pytest.raises(LinAlgContractError):
            output_feedback_regularize(part.parent, -np.eye(2))
        with pytest.raises(LinAlgContractError):
            output_feedback_regularize(part.parent, np.eye(3))
        with pytest.raises(LinAlgContractError):
            output_feedback_regularize(part.parent, np.array([[1.0, 0.5], [0.0, 1.0]]))
