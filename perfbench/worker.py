"""One workload in one fresh Python process.

Started by ``run.py`` with the BLAS thread variables already set, so they
take effect before numpy loads.  Order of work:

1. warm-up: import phmor (numpy, scipy and their submodules) and make one
   BLAS call; not timed;
2. set-up: the workload's ``phmor generate`` commands, timed three times
   before the first pass and once after each measured command
   (``setup_s`` is the median over all repetitions);
3. measurement: passes over the command list, at least two, until the
   time budget is spent; ``wall_s`` sums the per-command medians;
4. checks of every op's output, outside the timed region.

With ``--traced`` the tracer is installed and one set-up plus one pass
are traced instead; the per-layer metrics come from those spans.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_SETUPS = 3  # before the first pass
HARD_STOP_S = 110.0  # no new pass after this, whatever the budget


def call_cli(main, argv):
    """(exit code, captured stdout+stderr) of one in-process CLI command.

    An exception the CLI lets escape counts as exit 1, as it would for the
    console script; its traceback is kept in the captured text.  An
    argument error exits with argparse's code.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc(file=buf)
            rc = 1
    return rc, buf.getvalue()


class Harness:
    """Runs one workload's CLI commands in process and checks their outputs."""

    def __init__(self, phmor, wl, workdir, tracer=None):
        self.phmor = phmor
        self.wl = wl
        self.workdir = workdir
        self.tracer = tracer
        self.main = phmor.cli.main
        self.saved = {}  # resolved directory -> reduced model the CLI saved
        self.busy_s = 0.0  # time inside CLI calls, as the harness clocks it
        self._keep_saved_models()

    def _keep_saved_models(self):
        containers = self.phmor.containers
        save = containers.save_reduced
        saved = self.saved

        def save_reduced(path, model):
            directory = save(path, model)
            saved[pathlib.Path(directory).resolve()] = model
            return directory

        containers.save_reduced = save_reduced

    def _run(self, op, n, argv):
        if self.tracer is not None:
            self.tracer.op, self.tracer.op_n, self.tracer.active = op, n, True
        t0 = time.perf_counter()
        try:
            return call_cli(self.main, argv)
        finally:
            self.busy_s += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False

    def setup(self, index):
        model_dir = self.workdir / f"models{index}"
        t0 = time.perf_counter()
        for k, argv in enumerate(self.wl.setup_argvs(model_dir)):
            rc, text = self._run(f"setup{k}", 0, argv)
            if rc != 0:
                raise RuntimeError(f"set-up command {argv} exited {rc}:\n{text}")
        return time.perf_counter() - t0, model_dir

    def run_pass(self, model_dir, index, after_command=None):
        """Run the command list once; per-command times and raw outcomes.

        `after_command` runs after each command, outside its timing."""
        out_root = self.workdir / f"pass{index}"
        self.saved.clear()
        times, outcomes = [], []
        for i, cmd in enumerate(self.wl.commands):
            manifest = self.phmor.containers.read_manifest(
                model_dir / cmd.model / "manifest.txt")
            out_dir = out_root / f"c{i:02d}"
            argv = cmd.argv(model_dir, out_dir)
            t0 = time.perf_counter()
            rc, text = self._run(i, int(manifest["n"]), argv)
            times.append(time.perf_counter() - t0)
            outcomes.append((cmd, rc, text, out_dir, manifest))
            if after_command is not None:
                after_command()
        return times, out_root, outcomes

    def check_pass(self, out_root, outcomes):
        """One record per op, with its failure reasons; removes the outputs."""
        records = []
        for cmd, rc, text, out_dir, manifest in outcomes:
            reasons = checks.check_command(self.phmor, cmd, rc, text, out_dir,
                                           manifest, self.saved)
            for op_id, r, why in zip(cmd.op_ids(), cmd.orders, reasons):
                records.append({"op": op_id, "n": int(manifest["n"]),
                                "m": int(manifest["m"]), "r": r,
                                "grid": cmd.grid_points, "failed": bool(why),
                                "reasons": why})
        shutil.rmtree(out_root, ignore_errors=True)
        return records


def measure(harness, seconds):
    """Passes over the command list with one set-up repetition after each
    command, so that the set-up median samples the same stretch of time
    as the command medians."""
    setups = []

    def setup_rep():
        dt, model_dir = harness.setup(len(setups))
        setups.append(dt)
        return model_dir

    model_dir = setup_rep()
    for _ in range(MIN_SETUPS - 1):
        shutil.rmtree(setup_rep(), ignore_errors=True)
    start = time.perf_counter()
    per_cmd, passes = [], []
    while True:
        times, out_root, outcomes = harness.run_pass(
            model_dir, len(passes), after_command=lambda: shutil.rmtree(setup_rep()))
        per_cmd.append(times)
        passes.append(harness.check_pass(out_root, outcomes))
        elapsed = time.perf_counter() - start
        # stop where the window ends closest to `seconds`
        if len(passes) >= MIN_PASSES and (elapsed + sum(times) / 2 > seconds
                                          or elapsed > HARD_STOP_S):
            break
    wall = sum(statistics.median(col) for col in zip(*per_cmd))
    return {"setup_s": statistics.median(setups), "setup_reps": len(setups),
            "wall_s": wall, "passes": len(passes),
            "pass_wall_s": [sum(t) for t in per_cmd], "command_s": per_cmd}, passes


def traced(harness, tracer):
    """One traced set-up and one traced pass.

    The harness's own time is the traced wall time minus the time inside
    CLI calls, both read from the harness's clock, so the layers' self
    times plus harness time add up to the wall time only if the spans
    account for every CLI call.  Output checks come after the clock stops.
    """
    t0 = time.perf_counter()
    _, model_dir = harness.setup(0)
    times, out_root, outcomes = harness.run_pass(model_dir, 0)
    wall = time.perf_counter() - t0
    metrics = tracer.layer_metrics()
    metrics["containers.bytes_written"] = sum(
        f.stat().st_size for d in tracer.saved_dirs
        for f in pathlib.Path(d).iterdir() if f.is_file())
    metrics["trace.wall_s"] = wall
    metrics["harness.self_s"] = wall - harness.busy_s
    return metrics, sum(times), [harness.check_pass(out_root, outcomes)]


def runtime_meta():
    """BLAS threading as configured and as the loaded OpenBLAS reports it."""
    import ctypes
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reported = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                reported[pathlib.Path(lib).name] = fn()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_reported": reported,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    # warm-up: imports and one BLAS call
    import phmor
    import phmor.cli
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    float(np.linalg.solve(a @ a.T + np.eye(64), a[:, 0]).sum())

    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(phmor)
    harness = Harness(phmor, wl, workdir, tracer)
    try:
        if tracer is None:
            result, passes = measure(harness, args.seconds)
        else:
            layers, wall, passes = traced(harness, tracer)
            result = {"layers": layers, "traced_wall_s": wall}
            if args.trace_out:
                tracer.dump(pathlib.Path(args.trace_out),
                            {"workload": wl.name, "seed": args.seed,
                             "waiting": "none: one process, one client, no queues"})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed_ids = sorted({rec["op"] for p in passes for rec in p if rec["failed"]})
    result.update({
        "attempted": attempted,
        "failed": sum(rec["failed"] for p in passes for rec in p),
        "unexpected_failures": [op for op in failed_ids if op not in wl.known_defects],
        "known_defects_failed": [op for op in failed_ids if op in wl.known_defects],
        "known_defects_passed": sorted(set(wl.known_defects) - set(failed_ids)),
        "ops": passes[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runtime": runtime_meta(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
