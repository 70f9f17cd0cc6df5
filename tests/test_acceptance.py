"""Release acceptance gate.

Each test checks one release criterion end to end on a shared corpus of
benchmark and random systems and prints a single PASS/FAIL line (visible
with ``pytest -s`` or in captured output).  Tolerances are fixed here and
must not be loosened to make a failing criterion pass.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg as spla

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
from phmor.irka import IRKAConfig, convergence_metric, irka_reduce, mirror_and_sanitize
from phmor.reducers import (
    InterpolationData,
    build_V_generic,
    build_V_saddle,
    reduce_index1_blockdiag,
    reduce_index1_shifted,
    reduce_index2,
    reduce_index2_augmented,
    reduce_mixed,
)
from phmor.regularization import remove_singular_part
from phmor.systems import GenericLTISystem, PHDAESystem, partition_index2
from phmor.transfer import (
    FrequencyGrid,
    balance_realization,
    evaluate,
    hinf_error,
    pole_residue,
    polynomial_part_index1,
    tangential_residuals,
)

from oracles import projector_oracle_index2, raw_generic_basis, raw_saddle_basis

PH_METHODS = {"index1-blockdiag", "index2-galerkin"}

# every reduced model produced while running the gate, inspected by the
# closing stability criterion
_ALL_REDUCED = []


def _finish(num, desc, ok, detail=""):
    print(f"criterion {num:2d} ({desc}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({desc}) failed {detail}"


def _random_data(m, rng):
    """One real point plus one conjugate pair with random directions."""
    a = rng.uniform(0.5, 5.0)
    b = rng.uniform(0.5, 5.0) + 1j * rng.uniform(0.5, 5.0)
    d0 = rng.standard_normal(m)
    dc = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return InterpolationData(points=[a, b, np.conj(b)],
                             directions=[d0, dc, np.conj(dc)])


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(2026)
    random_parts = []
    for i in range(200):
        n2 = int(rng.integers(1, 5))
        n1 = int(rng.integers(4, 56))
        m = int(rng.integers(1, 3))
        random_parts.append(random_ph_index1(n1, n2, m, seed=i))
    chain_ks = list(range(2, 51)) + [50]  # 50 chains, all with k <= 50
    chains = [mass_spring_chain(MassSpringSpec(k=k)) for k in chain_ks]
    chains_b2 = [mass_spring_chain_b2(MassSpringSpec(k=k), amplitude=0.7)
                 for k in (3, 8, 15)]
    mixed = [mixed_chain(MassSpringSpec(k=k)) for k in (2, 5, 10, 20)]
    return random_parts, chains, chains_b2, mixed


@pytest.fixture(scope="module")
def reduced_corpus(corpus):
    """(method, partition, model, data) for every reducer over the corpus."""
    rng = np.random.default_rng(7)
    random_parts, chains, chains_b2, mixed = corpus
    start = time.monotonic()
    entries = []
    for part in random_parts:
        data = _random_data(part.parent.m, rng)
        entries.append(("index1-blockdiag", part,
                        reduce_index1_blockdiag(part, data), data))
        entries.append(("index1-shifted", part,
                        reduce_index1_shifted(part, data), data))
    for part in chains:
        data = _random_data(1, rng)
        entries.append(("index2-galerkin", part, reduce_index2(part, data), data))
    for part in chains_b2:
        data = _random_data(1, rng)
        entries.append(("index2-augmented", part,
                        reduce_index2_augmented(part, data), data))
    for part in mixed:
        data = _random_data(1, rng)
        # a mixed model is reduced as its index-2 split
        entries.append(("index2-galerkin", part, reduce_mixed(part, data), data))
    elapsed = time.monotonic() - start
    _ALL_REDUCED.extend((m, mod) for m, _, mod, _ in entries)
    return entries, elapsed


def test_criterion_1_structure_preservation(reduced_corpus):
    entries, build_time = reduced_corpus
    start = time.monotonic()
    ok = True
    worst = 0.0
    for method, _, model, _ in entries:
        if method not in PH_METHODS:
            continue
        worst = min(worst, model.w_min_eig)
        ok &= model.ph_valid and model.w_min_eig >= -1e-10
        J, E = model.system.J, model.system.E
        ok &= spla.norm(J + J.T, "fro") <= 1e-12 * max(spla.norm(J, "fro"), 1e-300)
        ok &= np.allclose(E, E.T, rtol=0, atol=1e-13 * max(np.abs(E).max(), 1.0))
    elapsed = build_time + time.monotonic() - start
    ok &= elapsed < 60.0
    _finish(1, "structure preservation",
            ok, f"[min eig W >= {worst:.2e}, {elapsed:.1f}s]")


def test_criterion_2_interpolation(reduced_corpus):
    entries, _ = reduced_corpus
    start = time.monotonic()
    worst = 0.0
    for _, part, model, data in entries:
        res = tangential_residuals(part.parent, model, data)
        worst = max(worst, res.max())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _finish(2, "tangential interpolation",
            ok, f"[max residual {worst:.2e}, {elapsed:.1f}s]")


def test_criterion_3_polynomial_part(reduced_corpus):
    entries, _ = reduced_corpus
    ok = True
    checked_i1 = 0
    worst_i1 = 0.0
    for method, part, model, _ in entries:
        if method != "index1-shifted" or checked_i1 >= 20:
            continue
        if np.linalg.norm(part.B2 - part.P2) == 0.0:
            continue
        s = 1e8j
        diff = np.linalg.norm(evaluate(part.parent, s) - model.transfer_eval(s))
        p0 = np.linalg.norm(polynomial_part_index1(part).P0)
        worst_i1 = max(worst_i1, diff / (1.0 + p0))
        ok &= diff <= 1e-6 * (1.0 + p0)
        checked_i1 += 1
    ok &= checked_i1 == 20

    omegas = np.logspace(2, 8, 25)
    worst_ratio = 0.0
    for method, part, model, _ in entries:
        if method != "index2-augmented":
            continue
        errs = np.array([
            np.linalg.norm(evaluate(part.parent, 1j * w) - model.transfer_eval(1j * w))
            for w in omegas
        ])
        ratio = errs.max() / max(errs[0], 1e-300)
        worst_ratio = max(worst_ratio, ratio)
        ok &= errs.max() <= 10.0 * errs[0]
    _finish(3, "polynomial part matching", ok,
            f"[hf mismatch {worst_i1:.2e}, growth ratio {worst_ratio:.2f}]")


def test_criterion_4_projector_oracle():
    rng = np.random.default_rng(11)
    grid = FrequencyGrid.log_spaced(1e-2, 1e2, 50)
    ok = True
    worst = 0.0
    for k in (5, 12, 25):
        part = mass_spring_chain(MassSpringSpec(k=k))
        data = _random_data(1, rng)
        model = reduce_index2(part, data)
        _ALL_REDUCED.append(("index2-galerkin", model))
        basis = build_V_saddle(part, data)
        oracle = projector_oracle_index2(part)
        Phi = spla.null_space(part.J12.T)
        W = Phi.T @ basis.V
        oracle_red = GenericLTISystem(
            E=W.T @ oracle.E @ W, A=W.T @ oracle.A @ W,
            B=W.T @ oracle.B, C=oracle.C @ W, D=oracle.D,
        )
        for s in grid.points:
            hs = np.atleast_2d(model.transfer_eval(s))
            ho = np.atleast_2d(evaluate(oracle_red, s))
            rel = np.linalg.norm(hs - ho) / (1.0 + np.linalg.norm(ho))
            worst = max(worst, rel)
            ok &= rel <= 1e-8
    _finish(4, "saddle reducer vs projector oracle", ok, f"[max rel {worst:.2e}]")


def test_criterion_5_hand_verified_fixtures(index1_fixture, index2_fixture):
    ok = True
    # order-1 reduction of the constrained oscillator at sigma = 1
    part2 = partition_index2(index2_fixture, 2)
    data = InterpolationData(points=[1.0 + 0j], directions=[[1.0]])
    m2 = reduce_index2(part2, data)
    _ALL_REDUCED.append(("index2-galerkin", m2))
    # the hand values are those of the raw saddle column V_raw = V T, V the
    # orthonormal basis the reducer projects with
    T = build_V_saddle(part2, data).V.T @ raw_saddle_basis(part2, data)
    ok &= abs((T.T @ m2.system.E @ T)[0, 0] - 0.25) <= 1e-12
    ok &= abs((T.T @ m2.generic.A @ T)[0, 0] + 0.25) <= 1e-12
    ok &= abs((T.T @ m2.system.B)[0, 0] + 0.5) <= 1e-12
    ok &= abs((m2.generic.C @ T)[0, 0] + 0.5) <= 1e-12
    grid = FrequencyGrid.log_spaced(1e-2, 1e2, 50)
    for s in grid.points:
        ok &= abs(m2.transfer_eval(s)[0, 0] - 1.0 / (s + 1.0)) <= 1e-12

    # shift-corrected order-1 reduction of the index-1 fixture at sigma = 1
    from phmor.systems import partition_index1

    part1 = partition_index1(index1_fixture, 1)
    m1 = reduce_index1_shifted(part1, data)
    _ALL_REDUCED.append(("index1-shifted", m1))
    ok &= abs(m1.transfer_eval(1.0)[0, 0] - 2.5) <= 1e-12
    ok &= abs(evaluate(index1_fixture, 1.0)[0, 0] - 2.5) <= 1e-12
    ok &= m1.ph_valid is False
    # the hand value is that of the raw column, mapped as for index 2
    T = build_V_generic(part1, data).V.T @ raw_generic_basis(part1, data).V
    ok &= abs((T.T @ m1.system.R @ T)[0, 0] + 0.75) <= 1e-12
    _finish(5, "hand-verified reduced matrices", ok)


def test_criterion_6_large_sparse_assembly():
    start = time.monotonic()
    chain = mass_spring_chain_sparse(MassSpringSpec(k=5000))
    ok = chain.E.shape == (10001, 10001)

    spec = OseenSpec(n_grid=50)
    oseen = oseen_grid_sparse(spec)
    n1, n = spec.n_velocity, oseen.n
    ok &= n1 == 4900 and n - n1 == 2499 and n == 7399

    import scipy.sparse.linalg as spsla

    for sys in (chain, oseen):
        ok &= abs(sys.E - sys.E.T).max() <= 1e-12
        ok &= abs(sys.J + sys.J.T).max() <= 1e-12
        R = sys.R.tocsc()
        ok &= abs(R - R.T).max() <= 1e-12
        lam = spsla.eigsh(R, k=1, sigma=-1.0, which="LM",
                          return_eigenvectors=False)[0]
        ok &= lam >= -1e-8
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _finish(6, "large sparse benchmark dimensions", ok, f"[{elapsed:.1f}s]")


def test_criterion_7_error_decay():
    start = time.monotonic()
    grid = FrequencyGrid.log_spaced(1e-4, 1e4, 200)
    part = mass_spring_chain(MassSpringSpec(k=100))
    errs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r in range(2, 21, 2):
            result = irka_reduce(part, IRKAConfig(r=r))
            _ALL_REDUCED.append(("irka-index2", result.model))
            _, rel = hinf_error(part.parent, result.model, grid)
            errs.append(rel)
        oseen = oseen_grid(OseenSpec(n_grid=8))
        res_o = irka_reduce(oseen, IRKAConfig(r=10))
        _ALL_REDUCED.append(("irka-oseen", res_o.model))
        _, rel_o = hinf_error(oseen.parent, res_o.model, grid)
    non_increasing = sum(errs[i + 1] <= errs[i] for i in range(9))
    elapsed = time.monotonic() - start
    ok = errs[-1] <= 1e-2 and non_increasing >= 8 and rel_o <= 1e-2
    ok &= elapsed < 300.0
    _finish(7, "error decay under order sweep", ok,
            f"[chain r=20 rel {errs[-1]:.2e}, monotone {non_increasing}/9, "
            f"oseen r=10 rel {rel_o:.2e}, {elapsed:.1f}s]")


def test_criterion_8_fixed_point(index2_fixture):
    ok = True
    part = partition_index2(index2_fixture, 2)
    for start in np.logspace(-2, 2, 7):
        cfg = IRKAConfig(
            r=1,
            initial=InterpolationData(points=[complex(start)], directions=[[1.0]]),
        )
        result = irka_reduce(part, cfg)
        ok &= result.converged and result.iterations <= 2
        ok &= abs(result.data.points[0] - 1.0) <= 1e-8
        _ALL_REDUCED.append(("irka-fixture", result.model))

    chain = mass_spring_chain(MassSpringSpec(k=100))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = irka_reduce(chain, IRKAConfig(r=10))
    model = reduce_index2(chain, result.data)
    pr = pole_residue(model)
    nxt = mirror_and_sanitize(pr.poles, pr.right)
    movement = convergence_metric(result.data.points, nxt.points)
    ok &= movement <= 1e-5
    _ALL_REDUCED.append(("irka-index2", result.model))
    _finish(8, "fixed-point stationarity", ok, f"[one-step movement {movement:.2e}]")


def _zero_pad(system, d):
    n, m = system.n, system.m
    pad_sq = lambda M: np.pad(M, ((0, d), (0, d)))
    pad_in = lambda M: np.pad(M, ((0, d), (0, 0)))
    return PHDAESystem(
        E=pad_sq(system.E), J=pad_sq(system.J), R=pad_sq(system.R),
        B=pad_in(system.B), P=pad_in(system.P), S=system.S, N=system.N,
    )


def test_criterion_9_regularization_round_trip():
    grid = FrequencyGrid.log_spaced(1e-2, 1e2, 50)
    ok = True
    worst = 0.0
    for i in range(20):
        full = random_ph_index1(6 + i, 1 + i % 3, 1 + i % 2, seed=100 + i).parent
        for d in (1, 2, 5):
            sub, dropped, _ = remove_singular_part(_zero_pad(full, d))
            ok &= dropped == d and sub.n == full.n
            for s in grid.points[::10]:
                diff = np.linalg.norm(evaluate(full, s) - evaluate(sub, s))
                rel = diff / (1.0 + np.linalg.norm(evaluate(full, s)))
                worst = max(worst, rel)
                ok &= rel <= 1e-12
    _finish(9, "zero-padding round trip", ok, f"[max rel mismatch {worst:.2e}]")


def test_criterion_10_stability_by_structure():
    assert len(_ALL_REDUCED) > 250, "corpus criteria must run before this one"
    ok = True
    worst = -np.inf
    n_checked = 0
    for _, model in _ALL_REDUCED:
        if not model.ph_valid:
            continue
        gen = model.generic
        E, A, _, _ = balance_realization(gen.E, gen.A, gen.B, gen.C)
        (alpha, beta), _ = spla.eig(A, E, right=True, homogeneous_eigvals=True)
        # |alpha| ~ |beta| ~ 0 marks an indeterminate direction of a
        # numerically singular pencil, not a genuine eigenvalue; |beta| ~ 0
        # alone marks an eigenvalue at infinity.  Keep the determinate
        # finite ones.
        scale = max(1.0, spla.norm(A, "fro"), spla.norm(E, "fro"))
        keep = (np.maximum(np.abs(alpha), np.abs(beta)) > 1e-10 * scale) \
            & (np.abs(beta) > 1e-12 * scale)
        lam = alpha[keep] / beta[keep]
        lam = lam[np.isfinite(lam) & (np.abs(lam) < 1e10)]
        if lam.size:
            worst = max(worst, lam.real.max())
            ok &= lam.real.max() <= 1e-8
        n_checked += 1
    ok &= n_checked > 200
    _finish(10, "stability of structure-preserving models", ok,
            f"[{n_checked} models, max Re(lambda) = {worst:.2e}]")
