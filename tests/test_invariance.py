"""No-op transformations must not move a reported number.

Scaling B and P by 2^k and S and N by 4^k scales the transfer function
by 4^k.  With powers of two every product is scaled exactly in binary
floating point, so the delivered order, IRKA's sweep count and stop reason,
and the relative H-infinity error must come out bit for bit the same.
Left out: ``interp_residual_max`` (its ``1 +`` term does not scale),
``min_eig_W`` (S scales but R does not) and ``rel_h2`` (its quadrature
tolerance is absolute).

A container round trip (``phmor generate``, then the partition the CLI
loads) changes nothing at all, so those numbers, the interpolation
residuals and the reduced E must come out bit for bit the same too.
"""

import dataclasses
import functools

import pytest

from phmor import (
    DivergentNormError,
    FrequencyGrid,
    Index1Partition,
    LinAlgContractError,
    cli,
    hinf_error,
    partition_index1,
    partition_index2,
    tangential_residuals,
)
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
from phmor.reducers import REDUCERS, InterpolationData

#: The CLI's default ``--freq-grid``.
GRID = FrequencyGrid.log_spaced(1e-4, 1e4, 400)
#: The grid of the round trip's ``rel_hinf``.
GRID40 = FrequencyGrid.log_spaced(1e-4, 1e4, 40)
R = 4

CHAIN, OSEEN = MassSpringSpec(k=10), OseenSpec(n_grid=4)
FAMILIES = {
    "chain": lambda: mass_spring_chain(CHAIN),
    "chain-b2": lambda: mass_spring_chain_b2(CHAIN),
    "oseen": lambda: oseen_grid(OSEEN),
    "random-index1": lambda: random_ph_index1(12, 4, 2, 3),
    "mixed": lambda: mixed_chain(MassSpringSpec(k=6)),
    "sparse-chain": lambda: partition_index2(mass_spring_chain_sparse(CHAIN), CHAIN.n1),
    "sparse-oseen": lambda: partition_index2(oseen_grid_sparse(OSEEN), OSEEN.n_velocity),
}
#: ``--method`` choices: a reducer at the default points, or IRKA with it.
INDEX1_METHODS = ("index1-blockdiag", "index1-shifted", "irka-index1-blockdiag",
                  "irka-index1-shifted")
INDEX2_METHODS = ("index2", "irka-index2")
CASES = [(family, method) for family in FAMILIES
         for method in (INDEX1_METHODS if family == "random-index1" else INDEX2_METHODS)]


def _scaled(part, k):
    """The same partition of the model with B, P times 2^k and S, N times 4^k."""
    sys = part.parent
    scaled = dataclasses.replace(sys, B=sys.B * 2.0**k, P=sys.P * 2.0**k,
                                 S=sys.S * 4.0**k, N=sys.N * 4.0**k)
    partition = partition_index1 if isinstance(part, Index1Partition) else partition_index2
    return partition(scaled, part.n1)


def _reduce(part, method):
    """(model, final interpolation data, IRKA sweeps, IRKA stop reason) of
    one reduction to order R from the default points, the way ``reduce``
    runs it."""
    data = InterpolationData.log_spaced(R, part.parent.m)
    name = method.removeprefix("irka-")
    if name == method:
        return REDUCERS[name](part, data), data, None, None
    result = irka_reduce(part, IRKAConfig(r=R, initial=data), method=name)
    return result.model, result.data, result.iterations, result.stop_reason


def _rel_hinf(part, model, grid):
    """The relative H-infinity error in hex, inf where it diverges."""
    try:
        rel_hinf = hinf_error(part, model, grid)[1]
    except DivergentNormError:
        rel_hinf = float("inf")
    return float(rel_hinf).hex()


@functools.cache
def _row(family, method, k):
    """(order, rel_hinf in hex, IRKA sweeps, IRKA stop reason) of one
    reduction, the way ``reduce`` reports it, or the message of the error
    it exits with."""
    part = _scaled(FAMILIES[family](), k)
    try:
        model, _, sweeps, stop = _reduce(part, method)
    except LinAlgContractError as exc:
        return str(exc)
    return model.order, _rel_hinf(part, model, GRID), sweeps, stop


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [2, -3])
@pytest.mark.parametrize("family, method", CASES)
def test_port_scaling_moves_no_reported_bit(family, method, k):
    assert _row(family, method, k) == _row(family, method, 0)


#: The ``phmor generate`` arguments of each family.
GENERATE = {
    "chain": "--benchmark chain --k 10",
    "chain-b2": "--benchmark chain-b2 --k 10",
    "oseen": "--benchmark oseen --n-grid 4",
    "random-index1": "--benchmark random-index1 --n1 12 --n2 4 --m 2 --seed 3",
    "mixed": "--benchmark mixed --k 6",
    "sparse-chain": "--benchmark chain --k 10 --sparse",
    "sparse-oseen": "--benchmark oseen --n-grid 4 --sparse",
}


def _report(part, method):
    """The order, IRKA sweeps and stop reason, rel_hinf on a 40-point grid,
    the interpolation residuals and the reduced E of one reduction, or the
    message of the error it exits with."""
    try:
        model, data, sweeps, stop = _reduce(part, method)
    except LinAlgContractError as exc:
        return str(exc)
    return (model.order, sweeps, stop, _rel_hinf(part, model, GRID40),
            tangential_residuals(part, model, data).tobytes(), model.system.E.tobytes())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family, method", CASES)
def test_container_round_trip_moves_no_reported_bit(family, method, tmp_path):
    assert cli.main(["generate", *GENERATE[family].split(), "--out", str(tmp_path / "m")]) == 0
    loaded, _ = cli._load_partition(tmp_path / "m")
    assert _report(loaded, method) == _report(FAMILIES[family](), method)
