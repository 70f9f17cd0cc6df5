import numpy as np
import pytest

from phmor import (
    GenericLTISystem,
    PHDAESystem,
    congruence,
    evaluate,
    validate_structure,
)
from phmor.benchmarks import MassSpringSpec, mass_spring_chain, mixed_chain, random_ph_index1
from phmor.regularization import (
    RankTest,
    _finite_spectrum,
    _rank,
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


def _reference_spectrum_tests(gen, probes=16, seed=0):
    """C1 and O1 ranked at every finite eigenvalue, both members of each
    conjugate pair, plus the same random probes as :func:`diagnose`."""
    E, A, B, C = gen.E, gen.A, gen.B, gen.C
    rng = np.random.default_rng(seed)
    scale = 1.0 + max(np.linalg.norm(A, 2), np.linalg.norm(E, 2))
    lam_rand = scale * (rng.standard_normal(probes) + 1j * rng.standard_normal(probes))
    points = np.concatenate([_finite_spectrum(A, E), lam_rand])
    tests = []
    for name, stack in (("C1", lambda lam: np.hstack([lam * E - A, B])),
                        ("O1", lambda lam: np.vstack([lam * E - A, C]))):
        ranks = [_rank(stack(lam)) for lam in points]
        worst = int(np.argmin(ranks))  # the first point of minimum rank
        rank = min(ranks)
        tests.append(RankTest(name=name, passed=rank == gen.n, expected_rank=gen.n,
                              measured_rank=rank,
                              witness=points[worst] if rank < gen.n else None))
    return tests


class TestDiagnoseConjugatePairs:
    @pytest.mark.parametrize("make", [mass_spring_chain, mixed_chain], ids=["chain", "mixed"])
    def test_report_equals_ranking_every_eigenvalue(self, make):
        gen = make(MassSpringSpec(k=20)).parent.generic
        assert np.any(_finite_spectrum(gen.A, gen.E).imag < 0)  # pairs to skip
        rep = diagnose(gen)
        c1, o1 = _reference_spectrum_tests(gen)
        assert rep["C1"] == c1
        assert rep["O1"] == o1

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
        assert [rep["C1"], rep["O1"]] == _reference_spectrum_tests(gen)


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
