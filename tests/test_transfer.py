import numpy as np
import pytest
import scipy.linalg as spla

from phmor import (
    DivergentNormError,
    FrequencyGrid,
    GenericLTISystem,
    InterpolationData,
    PolynomialMismatchError,
    PolynomialPart,
    evaluate,
    eval_transfer,
    h2_error,
    hinf_error,
    partition_index1,
    partition_index2,
    pole_residue,
    polynomial_part_index1,
    polynomial_part_index2,
    reduce_index1_blockdiag,
    reduce_index1_shifted,
)
from phmor.benchmarks import (CHAIN_MASS, MassSpringSpec, mass_spring_chain,
                              mass_spring_chain_b2, random_ph_index1)
from phmor.reducers import reduce_index2
from phmor.transfer import balance_realization, frequency_response
from phmor.linalg import LinAlgContractError

from oracles import quad_h2_error, reference_index1_blockdiag, reference_pencil_eig

#: Absolute and relative tolerance of h2_error's quadrature, on the integral
#: pi * h2_error**2.
H2_QUAD_TOL = 1.49e-8


def _scalar_lag():
    """H(s) = 1 / (s + 1) as an explicit first-order model."""
    return GenericLTISystem(E=np.eye(1), A=-np.eye(1), B=np.ones((1, 1)),
                            C=np.ones((1, 1)), D=np.zeros((1, 1)))


def test_transfer_value_index1_fixture(index1_fixture):
    # H(s) = (s + 4) / (s + 1)
    for s in (1.0, 2j, 0.5 + 0.5j):
        H = evaluate(index1_fixture, s)
        assert H[0, 0] == pytest.approx((s + 4) / (s + 1), abs=1e-13)


def test_transfer_value_index2_fixture(index2_fixture):
    for s in (1.0, 2j, 3.0 + 1j):
        H = evaluate(index2_fixture, s)
        assert H[0, 0] == pytest.approx(1.0 / (s + 1), abs=1e-13)


def test_frequency_grid_validation():
    with pytest.raises(LinAlgContractError):
        FrequencyGrid(np.array([1.0, 1.0]))
    grid = FrequencyGrid.log_spaced(1e-2, 1e2, 5)
    assert len(grid) == 5
    assert np.allclose(grid.points.imag, grid.omegas)


def test_polynomial_part_index1_matches_limit(index1_fixture):
    part = partition_index1(index1_fixture, 1)
    poly = polynomial_part_index1(part)
    assert not np.any(poly.P1)
    # limit of (s+4)/(s+1) at infinity is 1
    assert poly.P0 == pytest.approx(np.array([[1.0]]))
    H = evaluate(index1_fixture, 1e9j)
    assert abs(H[0, 0] - poly.P0[0, 0]) < 1e-8


def test_polynomial_part_index2_linear_term():
    amp = 1.3
    spec = MassSpringSpec(k=6)
    part = mass_spring_chain_b2(spec, amplitude=amp)
    poly = polynomial_part_index2(part)
    # slope amp^2 / (1/m_1 + 1/m_k) with equal masses m
    expected = amp ** 2 * CHAIN_MASS / 2.0
    assert poly.P1[0, 0] == pytest.approx(expected, rel=1e-12)
    # large-frequency agreement: H(iw) ~ P0 + iw P1
    for w in (1e6, 1e8):
        H = evaluate(part.parent, 1j * w)
        assert abs(H[0, 0] - poly(1j * w)[0, 0]) < 1e-6 * (1 + w * abs(poly.P1[0, 0]))


def test_polynomial_part_evaluates_to_the_part():
    # a polynomial part is evaluated as a model through its transfer_evals
    poly = PolynomialPart(P0=[[1.0, 2.0], [0.5, -1.0]], P1=[[0.3, 0.0], [0.0, 2.0]])
    points = np.array([0.5j, 3.0 + 1j, 1e4j])
    H = frequency_response(poly, points)
    assert np.array_equal(H, np.array([poly.P0 + s * poly.P1 for s in points]))
    gen = _scalar_lag()
    assert gen.generic is gen


def test_polynomial_part_index2_constant_when_b2_zero(index2_fixture):
    part = partition_index2(index2_fixture, 2)
    poly = polynomial_part_index2(part)
    assert not np.any(poly.P1)
    assert poly.P0 == pytest.approx(np.zeros((1, 1)))


def test_pole_residue_reconstructs_transfer():
    rng = np.random.default_rng(7)
    n, m = 8, 2
    L = rng.standard_normal((n, n))
    E = L @ L.T + n * np.eye(n)
    Q = rng.standard_normal((n, n))
    A = -(Q @ Q.T) - 0.5 * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((m, n))
    D = rng.standard_normal((m, m))
    gen = GenericLTISystem(E=E, A=A, B=B, C=C, D=D)
    pr = pole_residue(gen)
    assert pr.poles.size == n
    for s in (1j, 2.0 + 0.5j, 10.0):
        assert np.allclose(pr(s), eval_transfer(gen, s), atol=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_pole_residue_of_a_singular_E_keeps_the_finite_poles(seed):
    # the block-diagonal index-1 route keeps the n2 algebraic equations: a
    # model of order r + n2 whose reduced E has rank r
    part = random_ph_index1(8, 3, 2, seed=seed)
    model = reference_index1_blockdiag(part, InterpolationData.log_spaced(4, part.parent.m))
    gen = model.generic
    assert model.order == 4 + part.n2 and np.linalg.matrix_rank(gen.E) == 4
    E, A, _, _ = balance_realization(gen.E, gen.A, gen.B, gen.C)
    lam = reference_pencil_eig(A, E)[0]
    assert np.count_nonzero(np.isinf(lam)) == part.n2
    pr = pole_residue(model)
    assert np.array_equal(pr.poles, lam[np.isfinite(lam)])
    # the residues give the strictly proper part: differences of H cancel
    # the constant the infinite eigenvalues add
    s1, s2 = 0.7j, 2.0 + 1.0j
    assert np.allclose(pr(s1) - pr(s2), model.transfer_eval(s1) - model.transfer_eval(s2),
                       rtol=1e-10, atol=1e-12)


def test_pole_residue_normalization_phase():
    gen = _scalar_lag()
    pr = pole_residue(gen)
    # the largest entry of each right residue direction is real positive
    for b in pr.right:
        k = int(np.argmax(np.abs(b)))
        assert b[k].imag == pytest.approx(0.0, abs=1e-12)
        assert b[k].real > 0


def test_hinf_error_scalar_lag():
    full = _scalar_lag()
    zero = GenericLTISystem(E=np.eye(1), A=-np.eye(1), B=np.zeros((1, 1)),
                            C=np.zeros((1, 1)), D=np.zeros((1, 1)))
    absolute, relative = hinf_error(full, zero)
    # sup |1/(1+iw)| = 1 attained at the low end of the grid
    assert absolute == pytest.approx(1.0, rel=1e-6)
    assert relative == pytest.approx(1.0, rel=1e-6)


def test_h2_error_scalar_lag_oracle():
    full = _scalar_lag()
    zero = GenericLTISystem(E=np.eye(1), A=-np.eye(1), B=np.zeros((1, 1)),
                            C=np.zeros((1, 1)), D=np.zeros((1, 1)))
    # ||1/(s+1)||_H2 = 1/sqrt(2)
    assert h2_error(full, zero) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-8)


def test_norms_detect_polynomial_mismatch():
    full = _scalar_lag()
    biased = GenericLTISystem(E=np.eye(1), A=-np.eye(1), B=np.ones((1, 1)),
                              C=np.ones((1, 1)), D=np.ones((1, 1)))
    with pytest.raises(PolynomialMismatchError):
        h2_error(full, biased)
    # constant offset: hinf stays finite, no divergence flagged
    absolute, _ = hinf_error(full, biased)
    assert absolute == pytest.approx(1.0, rel=1e-6)
    ramp = PolynomialPart(P0=np.zeros((1, 1)), P1=np.ones((1, 1)))
    with pytest.raises(PolynomialMismatchError):
        hinf_error(full, ramp)
    grid = FrequencyGrid.log_spaced()
    with pytest.raises(PolynomialMismatchError):
        hinf_error(full, ramp, grid, full_response=frequency_response(full, grid))


def _count_evaluations(monkeypatch):
    import phmor.transfer as transfer

    points = []
    evaluate_ = transfer.evaluate

    def counting(model, s):
        points.append(s)
        return evaluate_(model, s)

    monkeypatch.setattr(transfer, "evaluate", counting)
    return points


def test_h2_error_flags_pole_at_origin(monkeypatch):
    # ||H - P|| ~ 3.2 / omega: the chain-b2 model has a pole at s = 0
    part = mass_spring_chain_b2(MassSpringSpec(k=6))
    points = _count_evaluations(monkeypatch)
    with pytest.raises(DivergentNormError) as info:
        h2_error(part.parent, part.polynomial_part)
    assert not isinstance(info.value, PolynomialMismatchError)
    assert len(points) <= 8
    assert issubclass(PolynomialMismatchError, DivergentNormError)


def test_h2_error_low_probe_quiet_without_pole_at_origin(monkeypatch):
    part = random_ph_index1(12, 4, 2, seed=0)
    reduced = reduce_index1_shifted(part, InterpolationData.log_spaced(6, 2))
    points = _count_evaluations(monkeypatch)
    value = h2_error(part.parent, reduced)
    assert np.isfinite(value) and value > 0
    # the only one-point evaluations: the scale at omega = 1 and the four
    # probes at both models; the quadrature nodes go through frequency_response
    assert points == [1j, 1e-6j, 1e-6j, 1e-8j, 1e-8j, 1e6j, 1e6j, 1e8j, 1e8j]


def _h2_agrees(value, reference):
    """h2_error's integral pi * value**2 is within the quadrature tolerance
    of the reference's."""
    integral, exact = np.pi * value ** 2, np.pi * reference ** 2
    return abs(integral - exact) <= H2_QUAD_TOL * max(1.0, exact)


def _resonant_pair(zeta, eps):
    """(full, reduced, exact H2 error): a stable 12-state model plus the
    resonance eps / (s^2 + 2 zeta w0 s + w0^2), w0 = 1.5, and the 12-state
    model alone.  Their difference is the resonance, whose squared H2 norm
    is C P C^T with P the controllability Gramian."""
    rng = np.random.default_rng(3)
    n, w0 = 12, 1.5
    Q, K = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    A1 = -(Q @ Q.T) / n - 0.1 * np.eye(n) + (K - K.T)
    B1, C1 = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
    A2 = np.array([[0.0, 1.0], [-w0 ** 2, -2.0 * zeta * w0]])
    B2, C2 = np.array([[0.0], [eps]]), np.array([[1.0, 0.0]])
    D = np.zeros((1, 1))
    full = GenericLTISystem(E=np.eye(n + 2), A=spla.block_diag(A1, A2),
                            B=np.vstack([B1, B2]), C=np.hstack([C1, C2]), D=D)
    reduced = GenericLTISystem(E=np.eye(n), A=A1, B=B1, C=C1, D=D)
    gram = spla.solve_continuous_lyapunov(A2, -B2 @ B2.T)
    return full, reduced, float(np.sqrt((C2 @ gram @ C2.T)[0, 0]))


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
@pytest.mark.parametrize("zeta", [0.1, 0.01, 0.001])
def test_h2_error_resonant_oracle(zeta, eps):
    # the peak at w0 narrows to a width of about zeta * w0
    full, reduced, exact = _resonant_pair(zeta, eps)
    assert _h2_agrees(h2_error(full, reduced), exact)


@pytest.mark.parametrize("case", ["random-index1-0", "random-index1-1", "random-index1-2",
                                  "chain-r4", "chain-r8"])
def test_h2_error_agrees_with_point_by_point_quadrature(case):
    model, _, number = case.rpartition("-")
    if model == "random-index1":
        part = random_ph_index1(12, 4, 2, seed=int(number))
        reduced = reduce_index1_shifted(part, InterpolationData.log_spaced(6, 2))
    else:
        part = mass_spring_chain(MassSpringSpec(k=20))
        reduced = reduce_index2(part, InterpolationData.log_spaced(int(number[1:]), 1))
    assert _h2_agrees(h2_error(part, reduced), quad_h2_error(part, reduced))


def test_h2_error_warns_once_at_the_panel_cap(monkeypatch):
    import phmor.transfer as transfer

    monkeypatch.setattr(transfer, "_H2_PANEL_LIMIT", 10)
    full, reduced, _ = _resonant_pair(0.001, 0.1)
    with pytest.warns(RuntimeWarning, match="H2 quadrature reached 10 panels") as caught:
        value = h2_error(full, reduced)
    assert len(caught) == 1
    assert np.isfinite(value) and value > 0


def test_hinf_error_equals_per_point_spectral_norms():
    part = random_ph_index1(12, 4, 2, seed=5)
    reduced = reduce_index1_blockdiag(part, InterpolationData.log_spaced(4, 2))
    grid = FrequencyGrid.log_spaced(1e-3, 1e3, 60)
    errs, mags = [], []
    for s in grid.points:
        Hf = evaluate(part.parent, s)
        errs.append(spla.norm(Hf - evaluate(reduced, s), 2))
        mags.append(spla.norm(Hf, 2))
    assert np.asarray(Hf).shape == (2, 2)
    absolute, relative = hinf_error(part.parent, reduced, grid)
    assert absolute == max(errs)
    assert relative == max(errs) / max(mags)

