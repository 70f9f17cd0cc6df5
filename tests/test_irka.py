import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from phmor import (
    IRKAConfig,
    InterpolationData,
    PHDAESystem,
    convergence_metric,
    irka_reduce,
    mirror_and_sanitize,
    partition_index2,
    pole_residue,
)
from phmor.benchmarks import MassSpringSpec, mass_spring_chain
from phmor.linalg import LinAlgContractError, gen_eig
from phmor.reducers import _conjugate_pairs
from phmor.transfer import balance_realization


class TestMirrorAndSanitize:
    def test_mirrors_stable_poles(self):
        data = mirror_and_sanitize(np.array([-2.0, -1.0 + 3j, -1.0 - 3j]))
        assert np.all(data.points.real > 0)
        assert sorted(np.abs(data.points.imag)) == pytest.approx([0.0, 3.0, 3.0])

    def test_shifts_points_near_imaginary_axis(self):
        data = mirror_and_sanitize(np.array([-1e-12 + 2j, -1e-12 - 2j]))
        assert np.all(data.points.real == pytest.approx(1e-8))

    def test_exact_conjugate_closure(self):
        # slightly asymmetric inputs come out exactly paired
        poles = np.array([-1.0 + 2.0000001j, -1.0 - 1.9999999j])
        res = np.array([[1.0 + 0.5j], [1.0 - 0.5000001j]])
        data = mirror_and_sanitize(poles, res)
        p = data.points
        assert p[0].conjugate() == p[1]
        assert np.allclose(data.directions[0].conjugate(), data.directions[1])

    def test_reflects_unstable_poles(self):
        data = mirror_and_sanitize(np.array([3.0]))
        assert data.points[0].real == pytest.approx(3.0)


class TestConvergenceMetric:
    def test_disjoint_singletons(self):
        assert convergence_metric([1.0], [10.0]) == pytest.approx(4.5)

    def test_small_relative_move(self):
        assert convergence_metric([1.0], [1.001]) == pytest.approx(5e-4)

    def test_permutation_invariance(self):
        a = np.array([1.0, 5.0, 2.0 + 1j, 2.0 - 1j])
        b = a[::-1]
        assert convergence_metric(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_size_mismatch_is_inf(self):
        assert convergence_metric([1.0], [1.0, 2.0]) == np.inf


class TestIRKAFixture:
    @pytest.mark.parametrize("start", [1e-2, 0.5, 1.0, 37.0, 1e2])
    def test_fixture_converges_in_two_iterations(self, index2_fixture, start):
        part = partition_index2(index2_fixture, 2)
        init = InterpolationData(points=[complex(start)], directions=[[1.0]])
        result = irka_reduce(part, IRKAConfig(r=1, initial=init))
        assert result.converged
        assert result.iterations <= 2
        assert result.data.points[0] == pytest.approx(1.0, abs=1e-10)

    def test_trace_records_iterations(self, index2_fixture, tmp_path):
        part = partition_index2(index2_fixture, 2)
        init = InterpolationData(points=[5.0 + 0j], directions=[[1.0]])
        result = irka_reduce(part, IRKAConfig(r=1, initial=init))
        assert len(result.trace) == result.iterations
        csv = tmp_path / "trace.csv"
        result.trace.export_csv(csv)
        lines = csv.read_text().strip().splitlines()
        assert lines[0].startswith("iteration,metric,ph_valid")
        assert len(lines) == 1 + result.iterations


class TestIRKAChain:
    def test_chain_converges_and_is_ph(self):
        part = mass_spring_chain(MassSpringSpec(k=20))
        result = irka_reduce(part, IRKAConfig(r=4))
        assert result.converged
        assert result.model.ph_valid
        assert result.model.order == 4

    def test_fixed_point_is_stationary(self):
        part = mass_spring_chain(MassSpringSpec(k=20))
        result = irka_reduce(part, IRKAConfig(r=4))
        pr = pole_residue(result.model)
        nxt = mirror_and_sanitize(pr.poles, pr.right)
        assert convergence_metric(result.data.points, nxt.points) <= 1e-5

    def test_nonconvergence_returns_best_iterate(self):
        part = mass_spring_chain(MassSpringSpec(k=20))
        cfg = IRKAConfig(r=4, max_iterations=2, tol=1e-14)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            result = irka_reduce(part, cfg)
        assert not result.converged
        assert result.model is not None
        assert np.isfinite(result.final_metric)


def test_short_pole_set_warns_once():
    # chain k=50 at r=12: the rank filter drops a column in the first sweep,
    # which leaves 11 mirrored poles
    part = mass_spring_chain(MassSpringSpec(k=50))
    with pytest.warns(RuntimeWarning) as record:
        result = irka_reduce(part, IRKAConfig(r=12, max_iterations=1))
    short = [str(w.message) for w in record if "mirrored poles" in str(w.message)]
    assert short == ["sweep 1: 11 mirrored poles for r = 12; the basis lost columns or "
                     "non-finite poles were dropped, so the order falls short"]
    assert result.model.order == 11


def test_full_pole_set_does_not_warn():
    part = mass_spring_chain(MassSpringSpec(k=20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert irka_reduce(part, IRKAConfig(r=4)).converged


def test_config_validation():
    with pytest.raises(LinAlgContractError):
        IRKAConfig(r=0)
    with pytest.raises(LinAlgContractError):
        IRKAConfig(r=2, tol=0.0)


def test_irka_checks_polynomial_part_once_per_partition(monkeypatch):
    import phmor.transfer as transfer
    from phmor.benchmarks import mass_spring_chain_b2

    calls = []
    check = transfer._check_poly_against_limit
    monkeypatch.setattr(transfer, "_check_poly_against_limit",
                        lambda *args: calls.append(1) or check(*args))
    part = mass_spring_chain_b2(MassSpringSpec(k=6))
    result = irka_reduce(part, IRKAConfig(r=2))
    assert result.converged and len(result.trace) > 1
    assert len(calls) == 1


# Values with ties, points on and within 1e-8 of the imaginary axis, parts
# below and near the pairing tolerances, and non-finite poles.
_PARTS = st.sampled_from([0.0, -0.0, 1e-12, -1e-9, 1e-8, 2e-8, 0.5, -1.0, 1.0, 1.0 + 1e-11,
                          -2.5, 3.0, 1e3, -1e6])
_ODD = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _poles(draw, odd=True):
    """Poles closed under conjugation (each complex pole with its partner,
    in any order), with residue rows that are conjugate for partners."""
    m = draw(st.integers(1, 2))
    poles, rows = [], []
    for _ in range(draw(st.integers(1, 8))):
        re = draw(_PARTS)
        im = draw(_PARTS) if draw(st.booleans()) else 0.0
        if odd and draw(st.integers(0, 9)) == 0:
            re = draw(_ODD)
        row = np.array([complex(draw(_PARTS), draw(_PARTS)) for _ in range(m)])
        poles.append(complex(re, im))
        rows.append(row)
        if im != 0.0:
            poles.append(complex(re, -im))
            rows.append(row.conj())
    order = draw(st.permutations(range(len(poles))))
    return np.array(poles)[order], np.array(rows)[order]


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestBookkeepingMatchesLoops:
    """The array forms of the IRKA bookkeeping give the old loops' result,
    bit for bit (tests/oracles.py holds the loops)."""

    @settings(max_examples=200, deadline=None)
    @given(case=_poles(), residues=st.booleans())
    def test_mirror_and_sanitize(self, case, residues):
        poles, rows = case
        args = (poles, rows) if residues else (poles,)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                want = oracles.mirror_and_sanitize(*args)
            except LinAlgContractError as exc:
                with pytest.raises(LinAlgContractError, match=re.escape(str(exc))):
                    mirror_and_sanitize(*args)
                return
            got = mirror_and_sanitize(*args)
        assert _same(got.points, want.points)
        assert _same(got.directions, want.directions)
        assert got.pairs == tuple(want.pairs)

    @settings(max_examples=200, deadline=None)
    @given(a=_poles(), b=_poles(), shuffle=st.booleans())
    def test_convergence_metric(self, a, b, shuffle):
        prev, new = a[0], (a[0][::-1] if shuffle else b[0])
        with warnings.catch_warnings(), np.errstate(invalid="ignore", over="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = convergence_metric(prev, new), oracles.convergence_metric(prev, new)
        assert got == want or (np.isnan(got) and np.isnan(want))

    @settings(max_examples=200, deadline=None)
    @given(case=_poles(odd=False), broken=st.booleans())
    def test_conjugate_pairs(self, case, broken):
        points, rows = case
        if broken:  # the first complex point loses its partner's direction
            rows = rows.copy()
            rows[np.flatnonzero(points.imag)[:1]] += 1e-3
        try:
            want = oracles.conjugate_pairs(points, rows)
        except LinAlgContractError as exc:
            with pytest.raises(LinAlgContractError, match=re.escape(str(exc))):
                _conjugate_pairs(points, rows)
            return
        assert _conjugate_pairs(points, rows) == want


def test_pole_residue_phases_match_the_loop():
    # the phase of each residue pair is normalized in one array operation
    for k in (6, 20):
        result = irka_reduce(mass_spring_chain(MassSpringSpec(k=k)), IRKAConfig(r=4))
        pr = pole_residue(result.model)
        gen = result.model.generic
        E, A, B, C = balance_realization(gen.E, gen.A, gen.B, gen.C)
        eig = gen_eig(A, E)
        lefts, rights = oracles.normalize_phases((C @ eig.right).T, (B.T @ eig.left).T)
        assert _same(pr.poles, eig.eigenvalues)
        assert _same(pr.left, lefts) and _same(pr.right, rights)


def test_pole_residue_keeps_the_gen_eig_message():
    # balancing E = diag(1e-200, 1) scales A's first entry by 1e200 to -inf;
    # E passes the definiteness test, so gen_eig's own check of A reports it
    sys = PHDAESystem(E=np.diag([1e-200, 1.0]), J=np.zeros((2, 2)), R=np.diag([1e200, 1.0]),
                      B=np.ones((2, 1)), P=np.zeros((2, 1)), S=np.zeros((1, 1)),
                      N=np.zeros((1, 1)))
    with pytest.raises(LinAlgContractError, match="A contains non-finite entries"):
        with np.errstate(over="ignore"):
            pole_residue(sys)
