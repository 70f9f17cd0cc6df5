"""Command-line experiment driver.

Subcommands::

    phmor generate   --benchmark chain --k 100 --out DIR
    phmor validate   DIR
    phmor reduce     DIR --method index2 --r 4 --out OUT
    phmor regularize DIR --condense --out OUT
    phmor sweep      DIR --method irka --r-sweep 2:20:2 --out OUT

Models live in directory containers (manifest + Matrix Market files).
``reduce`` and ``sweep`` append rows to ``errors.csv`` in the output
directory with the fixed schema

    r, interp_residual_max, min_eig_W, rel_hinf, rel_h2, converged, iterations

(rel_h2 is left empty unless --h2 is given).  ``--method`` names a
:data:`phmor.reducers.REDUCERS` entry, run once or, with the ``irka-``
prefix, inside IRKA; ``auto`` and ``irka`` take
:func:`phmor.reducers.default_method`.  An IRKA run prints how it stopped
(:attr:`phmor.irka.IRKAResult.stop_reason`).  Every command is deterministic:
``reduce`` and ``sweep`` draw no random numbers, and ``generate --seed``
fixes the random index-1 model.  The default output directory is taken
from the ``PHMOR_OUT`` environment variable, falling back to the current
directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import pathlib
import sys

import numpy as np

from . import benchmarks, containers, regularization
from .irka import IRKAConfig, irka_reduce
from .linalg import LinAlgContractError
from .reducers import REDUCERS, InterpolationData, default_method
from .systems import (
    Index1Partition,
    Index2Partition,
    PartitionError,
    partition_index1,
    partition_index2,
    partition_mixed,
    validate_structure,
)
from .transfer import (
    FrequencyGrid,
    DivergentNormError,
    frequency_response,
    h2_error,
    hinf_error,
    tangential_residuals,
)

#: The ``--method`` choices of ``reduce`` and ``sweep``: a reducer's
#: registry name, or ``irka-`` and one; ``auto`` and ``irka`` take the
#: default one.
_REDUCER_NAMES = sorted(REDUCERS)
METHODS = ["auto", *_REDUCER_NAMES, "irka", *(f"irka-{name}" for name in _REDUCER_NAMES)]

CSV_HEADER = "r,interp_residual_max,min_eig_W,rel_hinf,rel_h2,converged,iterations\n"


def _default_out():
    return pathlib.Path(os.environ.get("PHMOR_OUT", "."))


def _parse_int_range(text):
    """'2:20:2' -> [2, 4, ..., 20] (inclusive upper end)."""
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 2:
        lo, hi = map(int, parts)
        return list(range(lo, hi + 1))
    lo, hi, step = map(int, parts)
    return list(range(lo, hi + 1, step))


def _parse_freq_grid(text):
    """'1e-4:1e4:400' -> log-spaced FrequencyGrid."""
    lo, hi, num = text.split(":")
    return FrequencyGrid.log_spaced(float(lo), float(hi), int(num))


def _parse_points(text):
    return np.array([complex(tok) for tok in text.split(",")])


#: Manifest ``index`` (a partition class's ``index_kind``) -> (partition
#: function, the block sizes it takes from the manifest and ``generate``
#: records).  A mixed model is an index-2 view, so ``generate`` writes it
#: as ``index = 2``; the ``mixed`` entry loads the containers that recorded
#: the mixed block sizes n1, n2, through the mixed checks, as the same
#: view.  The lambdas look the functions up when called, so a wrapper that
#: rebinds them also wraps these calls.
_PARTITIONS = {
    Index1Partition.index_kind: (lambda *a: partition_index1(*a), ("n1",)),
    Index2Partition.index_kind: (lambda *a: partition_index2(*a), ("n1",)),
    "mixed": (lambda *a: partition_mixed(*a), ("n1", "n2")),
}


def _load_partition(path):
    """Partition view of a container; a sparse container stays sparse."""
    manifest = containers.read_manifest(pathlib.Path(path) / "manifest.txt")
    if manifest.get("format") == "sparse":
        sys_, manifest = containers.load_phdae_sparse(path)
    else:
        sys_, manifest = containers.load_phdae(path)
    index = manifest.get("index")
    if index is None:
        raise LinAlgContractError(
            f"container {path} has no 'index' manifest entry; cannot partition"
        )
    if index not in _PARTITIONS:
        raise LinAlgContractError(f"unknown index kind {index!r} in {path}")
    partition, sizes = _PARTITIONS[index]
    return partition(sys_, *(int(manifest[name]) for name in sizes)), manifest


def _h2_denominator(part):
    """||H - P||_H2 of the full model against its polynomial part, or inf
    when that integral diverges; computed once per command."""
    try:
        return h2_error(part, part.polynomial_part)
    except DivergentNormError:
        return np.inf


def _errors_row(part, model, data, grid, h2_denom, converged="", iterations="",
                full_response=None):
    """One ``errors.csv`` row.  The partition stands for the full model, so
    every full-model evaluation goes through its elimination solver.
    ``h2_denom`` is :func:`_h2_denominator`, or None without ``--h2``: when
    it is infinite or zero the entry is inf whatever the numerator is, and
    that quadrature is skipped."""
    res = tangential_residuals(part, model, data)
    try:
        _, rel_hinf = hinf_error(part, model, grid, full_response=full_response)
    except DivergentNormError:
        rel_hinf = np.inf
    rel_h2 = ""
    if h2_denom is not None:
        try:
            rel_h2 = (f"{h2_error(part, model) / h2_denom:.16e}"
                      if 0 < h2_denom < np.inf else f"{np.inf}")
        except DivergentNormError:
            rel_h2 = f"{np.inf}"
    return (
        f"{model.order},{res.max():.16e},{model.w_min_eig:.16e},"
        f"{rel_hinf:.16e},{rel_h2},{converged},{iterations}\n"
    )


def _chain_spec(args):
    return benchmarks.MassSpringSpec(k=args.k)


def _oseen_spec(args):
    return benchmarks.OseenSpec(n_grid=args.n_grid)


def _sparse_chain(args):
    spec = _chain_spec(args)
    return benchmarks.mass_spring_chain_sparse(spec), spec.n1


def _sparse_oseen(args):
    spec = _oseen_spec(args)
    return benchmarks.oseen_grid_sparse(spec), spec.n_velocity


#: --benchmark -> (builder of the partition, builder of the sparse index-2
#: system and its dynamic block size or None, argument names recorded in
#: the manifest).  Builders take the parsed arguments and look their
#: benchmark function up when called.
_GENERATORS = {
    "chain": (lambda a: benchmarks.mass_spring_chain(_chain_spec(a)), _sparse_chain, ()),
    "chain-b2": (lambda a: benchmarks.mass_spring_chain_b2(
        _chain_spec(a), amplitude=a.b2_amplitude), None, ()),
    "oseen": (lambda a: benchmarks.oseen_grid(_oseen_spec(a)), _sparse_oseen, ()),
    "random-index1": (lambda a: benchmarks.random_ph_index1(a.n1, a.n2, a.m, a.seed),
                      None, ("seed",)),
    "mixed": (lambda a: benchmarks.mixed_chain(_chain_spec(a)), None, ()),
}


def cmd_generate(args):
    out = pathlib.Path(args.out) if args.out else _default_out() / "model"
    build, build_sparse, recorded = _GENERATORS[args.benchmark]
    if args.sparse:
        if build_sparse is None:
            raise LinAlgContractError(f"benchmark {args.benchmark!r} has no sparse builder; "
                                      "generate it without --sparse")
        system, n1 = build_sparse(args)
        containers.save_phdae(out, system, extra={
            "index": Index2Partition.index_kind, "benchmark": args.benchmark, "n1": n1})
        print(f"wrote sparse {args.benchmark} model (n={system.n}) to {out}")
        return 0
    part = build(args)
    sizes = {name: getattr(part, name) for name in _PARTITIONS[part.index_kind][1]}
    extra = {"index": part.index_kind, **sizes, "benchmark": args.benchmark,
             **{name: getattr(args, name) for name in recorded}}
    system = part.parent
    containers.save_phdae(out, system, extra=extra)
    print(f"wrote {args.benchmark} model (n={system.n}, m={system.m}) to {out}")
    return 0


def cmd_validate(args):
    system, _ = containers.load_phdae(args.model)
    report = validate_structure(system)
    print(report.summary())
    if system.n <= regularization.DIAGNOSE_MAX_N:
        print(regularization.diagnose(system).summary())
    else:
        print(f"diagnosis skipped: n = {system.n} > {regularization.DIAGNOSE_MAX_N}")
    return 0 if report.passed else 1


def _parse_method(method, part):
    """(reducer name, run inside IRKA) of a ``--method`` choice on ``part``.

    A reducer's name starts with the index kind it reduces (``index1``,
    ``index2``); one that does not fit ``part.index_kind`` raises
    ``LinAlgContractError``."""
    irka = method.startswith("irka")
    name = method.removeprefix("irka").removeprefix("-") or "auto"
    name = default_method(part) if name == "auto" else name
    kind = name.split("-")[0].removeprefix("index")
    if kind != part.index_kind:
        raise LinAlgContractError(
            f"--method {method}: reducer {name!r} does not fit a model of index "
            f"kind {part.index_kind!r}")
    return name, irka


def _reduce(part, name, irka, r, data):
    """(model, interpolation data, converged, iterations, IRKA result) of one
    reduction to order r by the reducer ``name`` from the points ``data``,
    inside IRKA when ``irka``; converged and iterations are empty strings,
    and the result None, for a direct reduction."""
    if not irka:
        return REDUCERS[name](part, data), data, "", "", None
    result = irka_reduce(part, IRKAConfig(r=r, initial=data), method=name)
    return (result.model, result.data, int(result.converged), result.iterations,
            result)


def cmd_reduce(args):
    part, _ = _load_partition(args.model)
    name, irka = _parse_method(args.method, part)
    out = pathlib.Path(args.out) if args.out else _default_out() / "reduced"
    grid = _parse_freq_grid(args.freq_grid)
    if args.points is not None:
        pts = _parse_points(args.points)
        data = InterpolationData(points=pts,
                                 directions=np.ones((pts.size, part.parent.m)))
        if data.r != args.r:
            raise LinAlgContractError(
                f"{data.r} initial interpolation points for reduced order {args.r}")
    else:
        data = InterpolationData.log_spaced(args.r, part.parent.m)
    model, data, conv, iters, result = _reduce(part, name, irka, args.r, data)
    containers.save_reduced(out, model)
    out.mkdir(parents=True, exist_ok=True)
    h2_denom = _h2_denominator(part) if args.h2 else None
    row = _errors_row(part, model, data, grid, h2_denom, conv, iters)
    csv_path = out / "errors.csv"
    new = not csv_path.exists()
    with open(csv_path, "a") as fh:
        if new:
            fh.write(CSV_HEADER)
        fh.write(row)
    print(f"reduced to order {model.order} with {model.method}; "
          f"ph_valid={model.ph_valid} (min eig W = {model.w_min_eig:.3e})")
    if result is not None:
        print(f"IRKA stopped after {iters} sweeps: {result.stop_reason}")
    print(f"wrote reduced model and errors.csv to {out}")
    return 0


def _condensed_index(sizes, system):
    """The manifest entries ``index`` and ``n1`` that condensed block sizes
    (dynamic, dissipative, skew, index-2 coupled, free) determine: no
    algebraic block and an index-2 block give index 2, algebraic blocks
    and no index-2 block give index 1.  They are written only if that
    partition of ``system`` constructs and ``system`` has ports (a closed
    loop has no transfer function to reduce); otherwise a printed line
    says why there is none."""
    dynamic, dissipative, skew, coupled, _ = sizes
    algebraic = dissipative + skew
    if system.m == 0:
        print("no index entry: the model has no inputs or outputs to reduce")
        return {}
    if coupled and not algebraic:
        index = Index2Partition.index_kind
    elif algebraic and not coupled:
        index = Index1Partition.index_kind
    else:
        print(f"no index entry: {algebraic} algebraic and {coupled} index-2 coupled "
              "states fit no semi-explicit partition")
        return {}
    try:
        _PARTITIONS[index][0](system, dynamic)
    except PartitionError as exc:
        print(f"no index entry: the index-{index} partition with n1 = {dynamic} "
              f"does not construct ({exc})")
        return {}
    return {"index": index, "n1": dynamic}


def cmd_regularize(args):
    system, _ = containers.load_phdae(args.model)
    out = pathlib.Path(args.out) if args.out else _default_out() / "regularized"
    sub, dropped, _ = regularization.remove_singular_part(system)
    if dropped == 0:
        print("no singular part found; system copied unchanged")
    else:
        print(f"removed singular part: dropped {dropped} state(s)")
    current = sub
    extra = {"regularized": "1"}
    if args.condense:
        cf = regularization.condensed_form(current)
        print(regularization.condensed_report(cf))
        current = cf.system
        extra["block_sizes"] = ":".join(str(b) for b in cf.block_sizes)
    if args.feedback is not None:
        K = args.feedback * np.eye(current.m)
        current = regularization.output_feedback_regularize(current, K)
        print(f"applied output feedback u = -{args.feedback:g} I y")
    if args.condense:
        extra.update(_condensed_index(cf.block_sizes, current))
    containers.save_phdae(out, current, extra=extra)
    print(f"wrote regularized model (n={current.n}) to {out}")
    return 0


def cmd_sweep(args):
    part, _ = _load_partition(args.model)
    name, irka = _parse_method(args.method, part)
    out = pathlib.Path(args.out) if args.out else _default_out() / "sweep"
    grid = _parse_freq_grid(args.freq_grid)
    rs = _parse_int_range(args.r_sweep)
    if not rs:
        raise LinAlgContractError(f"--r-sweep {args.r_sweep} requests no reduced order")
    if any(r < 1 for r in rs):
        raise LinAlgContractError("reduced orders must be >= 1")
    out.mkdir(parents=True, exist_ok=True)
    full_response = frequency_response(part, grid)
    h2_denom = _h2_denominator(part) if args.h2 else None
    rows = []
    for r in rs:
        start = InterpolationData.log_spaced(r, part.parent.m)
        model, data, conv, iters, result = _reduce(part, name, irka, r, start)
        stop = ""
        if result is not None:
            result.trace.export_csv(out / f"trace_r{r:03d}.csv")
            stop = f", IRKA stopped after {iters} sweeps: {result.stop_reason}"
        containers.save_reduced(out / f"r{r:03d}", model)
        rows.append(_errors_row(part, model, data, grid, h2_denom, conv, iters,
                                full_response))
        print(f"r={r}: done (order {model.order}, ph_valid={model.ph_valid}{stop})")
    with open(out / "errors.csv", "w") as fh:
        fh.write(CSV_HEADER)
        fh.writelines(rows)
    print(f"wrote sweep artifacts to {out}")
    return 0


@functools.cache
def build_parser():
    """The ``phmor`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="phmor",
        description="Structure-preserving model reduction of port-Hamiltonian DAEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a benchmark model container")
    gen.add_argument("--benchmark", required=True, choices=list(_GENERATORS))
    gen.add_argument("--k", type=int, default=10, help="chain length")
    gen.add_argument("--n-grid", type=int, default=8, help="grid cells per direction")
    gen.add_argument("--n1", type=int, default=12)
    gen.add_argument("--n2", type=int, default=4)
    gen.add_argument("--m", type=int, default=2)
    gen.add_argument("--b2-amplitude", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--sparse", action="store_true",
                     help="assemble and store sparse matrices")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser("validate", help="check pHDAE structure of a container")
    val.add_argument("model")
    val.set_defaults(func=cmd_validate)

    red = sub.add_parser("reduce", help="reduce a model once")
    red.add_argument("model")
    red.add_argument("--method", default="auto", choices=METHODS)
    red.add_argument("--r", type=int, default=4)
    red.add_argument("--points", default=None,
                     help="comma-separated interpolation points (complex literals)")
    red.add_argument("--freq-grid", default="1e-4:1e4:400")
    red.add_argument("--h2", action="store_true", help="also compute relative H2 error")
    red.add_argument("--out", default=None)
    red.set_defaults(func=cmd_reduce)

    reg = sub.add_parser("regularize", help="remove singular part / condense")
    reg.add_argument("model")
    reg.add_argument("--condense", action="store_true")
    reg.add_argument("--feedback", type=float, default=None,
                     help="apply output feedback u = -K y with K = value * I")
    reg.add_argument("--out", default=None)
    reg.set_defaults(func=cmd_regularize)

    sw = sub.add_parser("sweep", help="sweep reduced orders, emit errors.csv")
    sw.add_argument("model")
    sw.add_argument("--method", default="irka", choices=METHODS)
    sw.add_argument("--r-sweep", required=True, help="lo:hi:step (inclusive)")
    sw.add_argument("--freq-grid", default="1e-4:1e4:400")
    sw.add_argument("--h2", action="store_true")
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error [{args.command}]: no such file or directory: {exc.filename}",
              file=sys.stderr)
        return 2
    except (LinAlgContractError, PartitionError, DivergentNormError,
            ValueError, KeyError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
