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
from phmor.benchmarks import MassSpringSpec, mass_spring_chain_b2, random_ph_index1
from phmor.transfer import frequency_response
from phmor.linalg import LinAlgContractError


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
    assert poly.is_constant
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
    expected = amp ** 2 * spec.mass / 2.0
    assert poly.P1[0, 0] == pytest.approx(expected, rel=1e-12)
    # large-frequency agreement: H(iw) ~ P0 + iw P1
    for w in (1e6, 1e8):
        H = evaluate(part.parent, 1j * w)
        assert abs(H[0, 0] - poly(1j * w)[0, 0]) < 1e-6 * (1 + w * abs(poly.P1[0, 0]))


def test_polynomial_part_index2_constant_when_b2_zero(index2_fixture):
    part = partition_index2(index2_fixture, 2)
    poly = polynomial_part_index2(part)
    assert poly.is_constant
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
    assert 1e-8j in points and 1e-6j in points


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

