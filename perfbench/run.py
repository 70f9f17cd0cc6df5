"""phmor benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout that holds ``src/phmor``.  Each
workload runs in a fresh Python process (``worker.py``) with one BLAS
thread, pinned through the environment before numpy loads.  Load is a
closed loop: one client issues one CLI command at a time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then once more traced, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``correct`` is false when an op fails that is not a known seed defect
(``workloads.KNOWN_DEFECTS``); known defects still count in ``failed``.

``--smoke`` is the harness self-check: every workload at tiny sizes,
untraced and traced, asserting that each metric named in BENCHMARK.json
is emitted with its unit and that the layers' self times plus harness
time add up to the traced wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = 1  # at most nproc; one thread keeps results and timings repeatable
DEADLINE_S = 170.0  # every run ends well inside 180 s
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
SELF_TIME_TOL = 0.01

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def source_meta():
    """Identify the code measured: git commit when there is one, and a
    digest of the package sources either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phmor").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_worker(workload, seed, seconds, deadline, traced=False, smoke=False):
    """Start worker.py in a fresh process and return its parsed result."""
    tag = f"{workload}-{seed}-{os.getpid()}-{'t' if traced else 'u'}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--workdir", str(WORK / tag)]
    if traced:
        cmd += ["--traced", "--trace-out", str(TRACES / f"spans-{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the run")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(res, seed):
    return {
        "seed": seed,
        **source_meta(),
        **res["runtime"],
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "blas_pinned_by": "OPENBLAS/OMP/MKL_NUM_THREADS set before numpy import "
                          "(threadpoolctl is not installed)",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client, one command at a time",
        "ops": res["ops"],
    }


def end_to_end(res):
    attempted, failed = res["attempted"], res["failed"]
    return {
        "setup_s": res["setup_s"],
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": (attempted - failed) / attempted,
    }


def run_one(workload, seed, seconds, trace, smoke=False):
    """(result line, record) for one workload."""
    deadline = time.monotonic() + DEADLINE_S
    res = run_worker(workload, seed, seconds, deadline, smoke=smoke)
    record = {"workload": workload, **metadata(res, seed),
              "setup_reps": res["setup_reps"], "passes": res["passes"],
              "pass_wall_s": res["pass_wall_s"], "command_s": res["command_s"],
              "fail_ratio": res["failed"] / res["attempted"],
              "unexpected_failures": res["unexpected_failures"],
              "known_defects_failed": res["known_defects_failed"],
              "known_defects_passed": res["known_defects_passed"]}
    if trace:
        traced = run_worker(workload, seed, seconds, deadline, traced=True, smoke=smoke)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["traced_wall_s"] / res["wall_s"] - 1.0
        units = tracing.metric_units()
        values = {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}
        record["waiting"] = "none: one process, no queues, so no time waits for a layer"
        record["untraced_wall_s"] = res["wall_s"]
        correct = not res["unexpected_failures"] and not traced["unexpected_failures"]
    else:
        values = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(res).items()}
        correct = not res["unexpected_failures"]
    line = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": values}
    return line, record


def print_summary(line, record):
    m = line["metrics"]
    if "wall_s" in m:
        print(f"{record['workload']}: setup_s={m['setup_s']['value']:.4f} s  "
              f"wall_s={m['wall_s']['value']:.4f} s  "
              f"peak_rss_mb={m['peak_rss_mb']['value']:.1f} MB  "
              f"fail_ratio={record['fail_ratio']:.4f} "
              f"({line['failed']} failed / {line['attempted']} attempted)")
    else:
        print(f"{record['workload']} (traced): "
              f"trace.overhead_ratio={m['trace.overhead_ratio']['value']:.4f}; "
              f"{record['waiting']}")
        for name, v in m.items():
            print(f"  {name} = {v['value']:.6g} {v['unit']}")


def smoke():
    """Harness self-check at tiny sizes; raises AssertionError on a defect."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(workloads.NAMES), names
    for name in names:
        for trace in (0, 1):
            line, _ = run_one(name, 0, 1, trace, smoke=True)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["attempted"] >= 1
            wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
            got = line["metrics"]
            assert set(got) == {m["name"] for m in wanted}, (
                name, trace, set(got) ^ {m["name"] for m in wanted})
            for m in wanted:
                assert got[m["name"]]["unit"] == m["unit"], (name, m)
                assert isinstance(got[m["name"]]["value"], (int, float)), (name, m)
            if trace:
                layers = sum(v["value"] for k, v in got.items()
                             if k.endswith(".self_s") and k != "harness.self_s")
                total = layers + got["harness.self_s"]["value"]
                wall = got["trace.wall_s"]["value"]
                assert abs(total - wall) <= SELF_TIME_TOL * wall, (name, total, wall)
                print(f"smoke {name}: traced layers {layers:.4f} s + harness "
                      f"{got['harness.self_s']['value']:.4f} s = {total:.4f} s "
                      f"vs wall {wall:.4f} s")
            else:
                print(f"smoke {name}: {len(got)} end-to-end metrics, "
                      f"{line['attempted']} ops")
    print("smoke: ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-check the harness at tiny sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "phmor" / "__init__.py").is_file():
        print(f"error: no phmor sources under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        smoke()
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        line, record = run_one(name, args.seed, args.seconds, args.trace)
        print("record: " + json.dumps(record))
        print_summary(line, record)
        lines[name] = line
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
