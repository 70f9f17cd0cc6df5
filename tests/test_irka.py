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
from phmor.benchmarks import (
    MassSpringSpec,
    OseenSpec,
    mass_spring_chain,
    oseen_grid,
    random_ph_index1,
)
from phmor.irka import AXIS_TOL
from phmor.linalg import LinAlgContractError, gen_eig
from phmor.reducers import REDUCERS, _conjugate_pairs, default_method
from phmor.transfer import balance_realization, tangential_residuals


class TestMirrorAndSanitize:
    def test_mirrors_stable_poles(self):
        data = mirror_and_sanitize(np.array([-2.0, -1.0 + 3j, -1.0 - 3j]), np.ones((3, 1)))
        assert np.all(data.points.real > 0)
        assert sorted(np.abs(data.points.imag)) == pytest.approx([0.0, 3.0, 3.0])

    def test_shifts_points_near_imaginary_axis(self):
        data = mirror_and_sanitize(np.array([-1e-12 + 2j, -1e-12 - 2j]), np.ones((2, 1)))
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
        data = mirror_and_sanitize(np.array([3.0]), np.ones((1, 1)))
        assert data.points[0].real == pytest.approx(3.0)

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_each_point_takes_the_residue_of_the_pole_it_mirrors(self, order):
        # the point 2 + 3j mirrors the pole -2 - 3j, whose residue is [1, -1j]
        poles = np.array([-2.0 + 3j, -2.0 - 3j])[order]
        res = np.array([[1.0, 1j], [1.0, -1j]])[order]
        data = mirror_and_sanitize(poles, res)
        assert data.points.tolist() == [2.0 + 3j, 2.0 - 3j]
        assert data.directions.tolist() == [[1.0, -1j], [1.0, 1j]]

    def test_near_real_pair_gives_one_real_point(self):
        data = mirror_and_sanitize(np.array([-1.0 + 1e-9j, -1.0 - 1e-9j]), np.ones((2, 1)))
        assert data.points.tolist() == [1.0]
        assert data.directions.tolist() == [[1.0]]

    def test_unbalanced_pole_set_raises(self):
        with pytest.raises(LinAlgContractError,
                           match="^pole set not closed under conjugation: 1 poles above "
                                 "the real axis and 0 below$"):
            mirror_and_sanitize(np.array([-1.0 + 1j, -2.0]), np.ones((2, 1)))


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
        assert lines[0] == "iteration,metric,ph_valid,w_min_eig,floor,points"
        assert len(lines) == 1 + result.iterations
        floors = [float(line.split(",")[4]) for line in lines[1:]]
        assert floors == [rec["floor"] for rec in result.trace.iterations]


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
        with pytest.warns(RuntimeWarning, match="did not converge in 2 sweeps"):
            result = irka_reduce(part, cfg)
        assert not result.converged
        assert result.stop_reason == "max iterations"
        assert result.iterations == 2
        assert result.model is not None
        assert np.isfinite(result.final_metric)


def test_chain_sweep_converges_in_the_same_sweeps():
    # the floor rule leaves a run that converges alone: on chain k=50 its
    # floors after the first sweep lie decades below tol
    part = mass_spring_chain(MassSpringSpec(k=50))
    counts = {}
    for r in range(2, 21, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # short pole sets
            result = irka_reduce(part, IRKAConfig(r=r))
        assert result.converged and result.stop_reason == "converged"
        counts[r] = result.iterations
    assert list(counts.values()) == [15, 10, 11, 12, 11, 12, 11, 12, 11, 11]


def test_oseen_r10_stops_at_its_rounding_floor():
    # the movement reaches 1e-5 by sweep 5 and then wanders below the
    # floor u * kappa ~ 5.6e-5, which lies above tol = 1e-6
    part = oseen_grid(OseenSpec(n_grid=8))
    config = IRKAConfig(r=10)
    with pytest.warns(RuntimeWarning, match="stopped at its rounding floor") as record:
        result = irka_reduce(part, config)
    assert not any("did not converge" in str(w.message) for w in record)
    assert result.stop_reason == "rounding floor" and not result.converged
    assert result.iterations <= 20 and result.iterations == len(result.trace)
    assert all(config.tol < rec["metric"] <= rec["floor"]
               for rec in result.trace.iterations[-3:])
    model = result.model
    assert model.order == 10 and model.ph_valid
    assert np.max(tangential_residuals(part.parent, model, result.data)) <= 1e-6


@pytest.mark.parametrize("name, r", [("chain", 10), ("chain", 20), ("oseen", 4),
                                     ("oseen", 10)])
def test_reordering_the_final_set_moves_the_mirrored_points_within_the_floor(name, r):
    # reordering the interpolation set is a no-op in exact arithmetic, so
    # the mirrored points may move by rounding only: by at most the floor
    part = (mass_spring_chain(MassSpringSpec(k=50)) if name == "chain"
            else oseen_grid(OseenSpec(n_grid=8)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = irka_reduce(part, IRKAConfig(r=r))
    # the final sweep's data, its mirrored points and its floor
    data, floor = result.data, np.finfo(float).eps * result.model.basis_cond
    pr = pole_residue(result.model)
    mirrored = mirror_and_sanitize(pr.poles, pr.right).points
    reducer = REDUCERS[default_method(part)]
    rng = np.random.default_rng(0)
    orders = [np.arange(data.r)[::-1], *(rng.permutation(data.r) for _ in range(3))]
    for order in orders:
        shuffled = InterpolationData(points=data.points[order],
                                     directions=data.directions[order])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pr = pole_residue(reducer(part, shuffled))
        moved = convergence_metric(mirrored, mirror_and_sanitize(pr.poles, pr.right).points)
        assert moved <= floor, (order, moved, floor)


def test_short_pole_set_warns_once():
    # chain k=50 at r=12: the rank filter drops a column in the first sweep,
    # which leaves 11 mirrored poles
    part = mass_spring_chain(MassSpringSpec(k=50))
    with pytest.warns(RuntimeWarning) as record:
        result = irka_reduce(part, IRKAConfig(r=12, max_iterations=1))
    short = [str(w.message) for w in record if "mirrored poles" in str(w.message)]
    assert short == ["sweep 1: 11 mirrored poles for r = 12; the basis lost columns, "
                     "non-finite poles were dropped or a near-real pair merged into one "
                     "real point, so the order falls short"]
    assert result.model.order == 11


def test_full_pole_set_does_not_warn():
    part = mass_spring_chain(MassSpringSpec(k=20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert irka_reduce(part, IRKAConfig(r=4)).converged


@settings(max_examples=15, deadline=None)
@given(part=st.builds(random_ph_index1, n1=st.integers(4, 14), n2=st.integers(1, 5),
                      m=st.integers(1, 3), seed=st.integers(0, 2**16)),
       r=st.integers(1, 6))
def test_index1_galerkin_irka_delivers_order_r(part, r):
    # the Galerkin index-1 reducer returns a pH ODE, whose poles IRKA mirrors
    r = min(r, part.n1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # non-convergence
        result = irka_reduce(part, IRKAConfig(r=r), method="index1-blockdiag")
    assert result.model.order == r and result.model.ph_valid


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_index1_galerkin_irka_converges(seed):
    # each mirrored point carries the residue of the pole it mirrors; with
    # a pair's two directions swapped these runs took all 100 sweeps
    part = random_ph_index1(40, 10, 2, seed=seed)
    result = irka_reduce(part, IRKAConfig(r=4), method="index1-blockdiag")
    assert result.stop_reason == "converged"
    assert result.model.order == 4 and result.model.ph_valid


def test_config_validation():
    with pytest.raises(LinAlgContractError):
        IRKAConfig(r=0)
    with pytest.raises(LinAlgContractError):
        IRKAConfig(r=2, tol=0.0)


def test_config_rejects_a_start_of_another_size():
    # a start of 2 points for r = 4 would run the whole iteration at order 2
    start = InterpolationData(points=[1.0, 2.0], directions=[[1.0], [1.0]])
    with pytest.raises(LinAlgContractError,
                       match="^2 initial interpolation points for reduced order 4$"):
        IRKAConfig(r=4, initial=start)
    assert IRKAConfig(r=2, initial=start).initial is start


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


def _rows(points, directions):
    """The rows (Re p, Im p, Re d1, Im d1, ...) of a set, sorted."""
    return sorted(tuple(np.concatenate([[p], d]).astype(complex).view(float).tolist())
                  for p, d in zip(points, directions))


@settings(max_examples=200, deadline=None)
@given(case=_poles())
def test_mirrored_set_properties(case):
    poles, rows = case
    finite = np.isfinite(poles) & np.isfinite(rows).all(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # non-finite poles
        if not finite.any():
            with pytest.raises(LinAlgContractError, match="^no finite poles"):
                mirror_and_sanitize(poles, rows)
            return
        data = mirror_and_sanitize(poles, rows)
    pts, dirs = data.points, data.directions
    # exactly closed under conjugation, in the right half-plane
    assert _rows(pts, dirs) == _rows(pts.conj(), dirs.conj())
    assert np.all(pts.real >= AXIS_TOL)
    # each finite pole with Im >= 0 accounts for its own points: -pole with
    # its residue (ones if zero) and, off the axis, the partner's mirror
    # with the conjugate residue; a pair never gives two real points
    left = _rows(pts, dirs)
    for lam, b in zip(poles[finite], rows[finite]):
        if lam.imag < 0:
            continue
        s = complex(max(abs(lam.real), AXIS_TOL), -lam.imag)
        b = b if b.any() else np.ones_like(b)
        if abs(s.imag) <= AXIS_TOL * (1.0 + abs(s)):
            want = [(s.real, b.real if b.real.any() else np.abs(b))]
        else:
            want = [(s, b), (s.conjugate(), b.conj())]
        for row in _rows(*zip(*want)):
            assert row in left, (lam, row)
            left.remove(row)
    assert left == []


class TestBookkeepingMatchesLoops:
    """The array forms of the IRKA bookkeeping give the old loops' result,
    bit for bit (tests/oracles.py holds the loops)."""

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
    # pole_residue checks A as gen_eig does, with gen_eig's message
    sys = PHDAESystem(E=np.diag([1e-200, 1.0]), J=np.zeros((2, 2)), R=np.diag([1e200, 1.0]),
                      B=np.ones((2, 1)), P=np.zeros((2, 1)), S=np.zeros((1, 1)),
                      N=np.zeros((1, 1)))
    with pytest.raises(LinAlgContractError, match="A contains non-finite entries"):
        with np.errstate(over="ignore"):
            pole_residue(sys)
