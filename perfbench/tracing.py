"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each phmor module (the layers)
and rebinds every name that refers to them, in every phmor module and in
module-level dispatch tables such as ``cli._DIRECT_METHODS``.  It is
installed only in the traced worker process; untraced runs never import
this module.  Spans live in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Calls a layer makes to itself (``reduce_index2_augmented`` falling back to
``reduce_index2``) stay inside the outer span, so no span nests in one of
its own stem and ``incl_s`` counts no interval twice.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

# stem -> (module, function names); the stem is the per-layer metric prefix.
LAYERS = {
    "benchmarks.generate": ("benchmarks", (
        "mass_spring_chain", "mass_spring_chain_sparse", "mass_spring_chain_b2",
        "oseen_grid", "oseen_grid_sparse", "random_ph_index1", "mixed_chain")),
    "containers.load": ("containers", ("load_phdae", "load_phdae_sparse", "load_reduced")),
    "containers.save": ("containers", ("save_phdae", "save_reduced")),
    "systems.partition": ("systems", ("partition_index1", "partition_index2", "partition_mixed")),
    "systems.validate_structure": ("systems", ("validate_structure",)),
    "linalg.solve": ("linalg", ("solve_complex",)),
    "linalg.gen_eig": ("linalg", ("gen_eig",)),
    "transfer.hinf_error": ("transfer", ("hinf_error",)),
    "transfer.h2_error": ("transfer", ("h2_error",)),
    "transfer.tangential_residuals": ("transfer", ("tangential_residuals",)),
    "transfer.pole_residue": ("transfer", ("pole_residue",)),
    "transfer.polynomial_part": ("transfer", ("polynomial_part_index1", "polynomial_part_index2")),
    "reducers.reduce": ("reducers", (
        "reduce_index1_shifted", "reduce_index1_blockdiag", "reduce_index2",
        "reduce_index2_augmented", "reduce_mixed")),
    "reducers.build_V": ("reducers", ("build_V_generic", "build_V_saddle")),
    "irka.irka_reduce": ("irka", ("irka_reduce",)),
    "regularization.diagnose": ("regularization", ("diagnose",)),
    "regularization.condensed_form": ("regularization", ("condensed_form",)),
    "regularization.remove_singular_part": ("regularization", ("remove_singular_part",)),
    "regularization.output_feedback_regularize": ("regularization", ("output_feedback_regularize",)),
}
CLI_STEM = "cli"  # phmor.cli.main; its self time is parsing, row formatting, the rest
STEMS = (*LAYERS, CLI_STEM)

# Derived per-layer metrics: name -> (unit, better).
COUNTERS = {
    "containers.bytes_written": ("bytes", "lower"),
    "linalg.solve_calls.full": ("count", "lower"),
    "linalg.solve_calls.reduced": ("count", "lower"),
    "linalg.solve_gflop": ("Gflop", "lower"),
    "linalg.solve_gbyte": ("GB", "lower"),
    "linalg.solve_gflops": ("Gflop/s", "higher"),
    "linalg.singular_raised": ("count", "lower"),
    "transfer.full_evals": ("count", "lower"),
    "transfer.full_evals_distinct": ("count", "lower"),
    "transfer.full_eval_useful_ratio": ("ratio", "higher"),
    "transfer.reduced_evals": ("count", "lower"),
    "transfer.h2_evals": ("count", "lower"),
    "reducers.columns_dropped": ("count", "lower"),
    "reducers.ph_valid_ratio": ("ratio", "higher"),
    "irka.sweeps": ("count", "lower"),
    "irka.converged_ratio": ("ratio", "higher"),
    "irka.s_per_sweep": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def metric_units():
    """Every per-layer metric name with its (unit, better)."""
    units = {}
    for stem in STEMS:
        units[f"{stem}.calls"] = ("count", "lower")
        units[f"{stem}.incl_s"] = ("s", "lower")
        units[f"{stem}.self_s"] = ("s", "lower")
    units.update(COUNTERS)
    return units


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries.

    A span is ``[name, start, end, parent index, op id]``.  ``active`` is
    true only while an op runs, so the harness's own checks record nothing.
    """

    def __init__(self):
        self.spans = []
        self.stack = []  # indices of open spans
        self.active = False
        self.op = None
        self.op_n = 0  # order of the op's full model, to bucket solves
        self.counts = collections.Counter()
        self.full_points = set()
        self.saved_dirs = set()

    # -- recording ---------------------------------------------------------
    def _top_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, stem, fn, after=None):
        """`fn` recorded as a span named `stem`; `after(args, result)` runs
        once the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or tracer._top_name() == stem:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [stem, time.perf_counter(), None, parent, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{stem}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counting(self, fn, count):
        """`fn` with `count(args)` called first while an op runs (no span)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                count(args)
            return fn(*args, **kwargs)

        return counted

    # -- hooks -------------------------------------------------------------
    def _solve(self, args):
        n = args[0].shape[0]
        rhs = args[1]
        k = 1 if getattr(rhs, "ndim", 1) == 1 else rhs.shape[1]
        bucket = "full" if n >= self.op_n else "reduced"
        self.counts[f"linalg.solve_calls.{bucket}"] += 1
        self.counts["flop"] += 8.0 / 3.0 * n**3 + 8.0 * n**2 * k
        self.counts["byte"] += 16.0 * n**2

    def _full_eval(self, args):
        self.counts["transfer.full_evals"] += 1
        self.full_points.add((self.op, args[0].n, complex(args[1])))
        if "transfer.h2_error" in self._open_names():
            self.counts["transfer.h2_evals"] += 1

    def _evaluate(self, args):
        if type(args[0]).__name__ == "ReducedModel":
            self.counts["transfer.reduced_evals"] += 1
            if "transfer.h2_error" in self._open_names():
                self.counts["transfer.h2_evals"] += 1

    def _open_names(self):
        return {self.spans[i][0] for i in self.stack}

    def _reduced(self, args, model):
        self.counts["reducers.ph_valid"] += int(bool(model.ph_valid))
        if self._top_name() == "irka.irka_reduce":
            self.counts["irka.sweeps"] += 1

    def _basis(self, args, basis):
        self.counts["reducers.columns_dropped"] += args[1].r - basis.r

    def _irka(self, args, result):
        self.counts["irka.converged"] += int(bool(result.converged))

    def _saved(self, args, directory):
        self.saved_dirs.add(directory)

    # -- installation ------------------------------------------------------
    def install(self, phmor):
        """Wrap every layer function and rebind all references to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "phmor" or name.startswith("phmor.")]
        hooks = {"reducers.reduce": self._reduced,
                 "reducers.build_V": self._basis, "irka.irka_reduce": self._irka,
                 "containers.save": self._saved}
        replace = {}
        for stem, (module, names) in LAYERS.items():
            for name in names:
                original = getattr(getattr(phmor, module), name)
                wrapped = self.wrap(stem, original, hooks.get(stem))
                if stem == "linalg.solve":
                    wrapped = self.counting(wrapped, self._solve)
                replace[id(original)] = wrapped
        transfer = phmor.transfer
        replace[id(transfer.eval_transfer)] = self.counting(transfer.eval_transfer, self._full_eval)
        replace[id(transfer.evaluate)] = self.counting(transfer.evaluate, self._evaluate)
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, key, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in replace:
                            value[k] = replace[id(v)]
        phmor.cli.main = self.wrap(CLI_STEM, phmor.cli.main)
        return phmor.cli.main

    # -- results -----------------------------------------------------------
    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def layer_metrics(self):
        """calls / incl_s / self_s per stem, plus the derived counters."""
        out = {}
        for stem in STEMS:
            out[f"{stem}.calls"] = 0
            out[f"{stem}.incl_s"] = 0.0
            out[f"{stem}.self_s"] = 0.0
        for span, self_s in zip(self.spans, self.self_times()):
            stem = span[0]
            out[f"{stem}.calls"] += 1
            out[f"{stem}.self_s"] += self_s
            out[f"{stem}.incl_s"] += span[2] - span[1]
        c = self.counts
        solve_s = out["linalg.solve.incl_s"]
        full = c["transfer.full_evals"]
        reduces = out["reducers.reduce.calls"]
        irkas = out["irka.irka_reduce.calls"]
        out.update({
            "linalg.solve_calls.full": c["linalg.solve_calls.full"],
            "linalg.solve_calls.reduced": c["linalg.solve_calls.reduced"],
            "linalg.solve_gflop": c["flop"] / 1e9,
            "linalg.solve_gbyte": c["byte"] / 1e9,
            "linalg.solve_gflops": c["flop"] / 1e9 / solve_s if solve_s > 0 else 0.0,
            "linalg.singular_raised": c["linalg.solve.raised.SingularMatrixError"],
            "transfer.full_evals": full,
            "transfer.full_evals_distinct": len(self.full_points),
            "transfer.full_eval_useful_ratio": len(self.full_points) / full if full else 0.0,
            "transfer.reduced_evals": c["transfer.reduced_evals"],
            "transfer.h2_evals": c["transfer.h2_evals"],
            "reducers.columns_dropped": c["reducers.columns_dropped"],
            "reducers.ph_valid_ratio": c["reducers.ph_valid"] / reduces if reduces else 0.0,
            "irka.sweeps": c["irka.sweeps"],
            "irka.converged_ratio": c["irka.converged"] / irkas if irkas else 0.0,
            "irka.s_per_sweep": (out["irka.irka_reduce.incl_s"] / c["irka.sweeps"]
                                 if c["irka.sweeps"] else 0.0),
        })
        return out

    def dump(self, path, meta):
        """Write the spans (times relative to the first span) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "op": op}
                for name, start, end, parent, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": rows}))
