"""No-op transformations must not move a reported number.

Scaling B and P by 2^k and S and N by 4^k scales the transfer function
by 4^k.  With powers of two every product is scaled exactly in binary
floating point, so the delivered order, IRKA's sweep count and stop reason,
and the relative H-infinity error must come out bit for bit the same.
Left out: ``interp_residual_max`` (its ``1 +`` term does not scale),
``min_eig_W`` (S scales but R does not) and ``rel_h2`` (its quadrature
tolerance is absolute).
"""

import dataclasses
import functools

import pytest

from phmor import (
    DivergentNormError,
    FrequencyGrid,
    Index1Partition,
    LinAlgContractError,
    hinf_error,
    partition_index1,
    partition_index2,
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


@functools.cache
def _row(family, method, k):
    """(order, rel_hinf in hex, IRKA sweeps, IRKA stop reason) of one
    reduction to order R from the default points, the way ``reduce``
    reports it, or the message of the error it exits with."""
    part = _scaled(FAMILIES[family](), k)
    data = InterpolationData.log_spaced(R, part.parent.m)
    name = method.removeprefix("irka-")
    sweeps = stop = None
    try:
        if name != method:
            result = irka_reduce(part, IRKAConfig(r=R, initial=data), method=name)
            model, sweeps, stop = result.model, result.iterations, result.stop_reason
        else:
            model = REDUCERS[name](part, data)
    except LinAlgContractError as exc:
        return str(exc)
    try:
        rel_hinf = hinf_error(part, model, GRID)[1]
    except DivergentNormError:
        rel_hinf = float("inf")
    return model.order, float(rel_hinf).hex(), sweeps, stop


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [2, -3])
@pytest.mark.parametrize("family, method", CASES)
def test_port_scaling_moves_no_reported_bit(family, method, k):
    assert _row(family, method, k) == _row(family, method, 0)
