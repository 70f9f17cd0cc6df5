"""Output checks: one verdict per op.

An op fails when its command exits non-zero, or when its output fails a
check below.  The checks read only what the CLI wrote (``errors.csv``,
saved containers, printed report) plus the reduced models the CLI handed
to ``containers.save_reduced``, which the harness keeps to test the save
and load round trip.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np

INTERP_TOL = 1e-6
PH_TOL = 1e-10
ROUND_TRIP_TOL = 1e-8
TEST_POINT = 0.3 + 1.7j
_NOT_STRUCTURE_PRESERVING = {"index1-shifted"}


def kept_blocks(method, manifest):
    """States a block-diagonal reducer carries over unreduced."""
    n, n1 = int(manifest["n"]), int(manifest.get("n1", 0))
    if method == "index1-blockdiag":
        return n - n1
    if method == "mixed-blockdiag":
        return n - int(manifest["n2"])
    return 0


def _parse_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _row_reasons(row):
    reasons = []
    for key in ("r", "interp_residual_max", "min_eig_W", "rel_hinf", "rel_h2",
                "converged", "iterations"):
        text = row.get(key)
        if text is None:
            reasons.append(f"errors.csv has no {key} field")
        elif text and not math.isfinite(float(text)):
            reasons.append(f"{key} is not finite ({text})")
    return reasons


def check_reduction(phmor, cmd, out_dir, full_manifest, saved):
    """Reasons per requested order of a `reduce` or `sweep` command."""
    orders = cmd.orders
    csv_path = out_dir / "errors.csv"
    rows = _parse_rows(csv_path) if csv_path.exists() else []
    verdicts = []
    for k, r in enumerate(orders):
        if k >= len(rows):
            verdicts.append(["errors.csv row missing"])
            continue
        row = rows[k]
        reasons = _row_reasons(row)
        model_dir = out_dir / f"r{r:03d}" if cmd.verb == "sweep" else out_dir
        try:
            loaded = phmor.containers.load_reduced(model_dir)
        except (OSError, ValueError, KeyError) as exc:
            verdicts.append(reasons + [f"saved model does not load: {exc}"])
            continue
        if not reasons:
            if float(row["interp_residual_max"]) > INTERP_TOL:
                reasons.append(f"interp_residual_max {row['interp_residual_max']} > {INTERP_TOL}")
            if (loaded.method not in _NOT_STRUCTURE_PRESERVING
                    and float(row["min_eig_W"]) < -PH_TOL):
                reasons.append(f"min_eig_W {row['min_eig_W']} < -{PH_TOL} for {loaded.method}")
        delivered = loaded.order - kept_blocks(loaded.method, full_manifest)
        if delivered != r:
            reasons.append(f"delivered order {delivered}, requested {r}")
        model = saved.get(pathlib.Path(model_dir).resolve())
        if model is None:
            reasons.append("the CLI saved no reduced model here")
        else:
            h_mem = np.atleast_2d(model.transfer_eval(TEST_POINT))
            h_disk = np.atleast_2d(loaded.transfer_eval(TEST_POINT))
            gap = np.linalg.norm(h_mem - h_disk)
            if not gap <= ROUND_TRIP_TOL * (1.0 + np.linalg.norm(h_mem)):
                reasons.append(f"save/load changes H({TEST_POINT}) by {gap:.3e}")
        verdicts.append(reasons)
    return verdicts


def check_validate(output):
    if "pencil regular" not in output:
        return [["validate printed no pencil diagnosis"]]
    return [[]]


def check_regularize(phmor, out_dir, full_manifest):
    try:
        system, manifest = phmor.containers.load_phdae(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [[f"regularized model does not load: {exc}"]]
    reasons = []
    if manifest.get("regularized") != "1":
        reasons.append("manifest does not mark the model regularized")
    if system.n > int(full_manifest["n"]):
        reasons.append(f"regularized order {system.n} exceeds {full_manifest['n']}")
    if not phmor.systems.validate_structure(system).passed:
        reasons.append("regularized model fails the pHDAE structure checks")
    return [reasons]


def check_command(phmor, cmd, rc, output, out_dir, full_manifest, saved):
    """A list of failure reasons per op of `cmd` (empty list: op passed)."""
    if rc != 0:
        last = output.strip().splitlines()[-1:] or [""]
        return [[f"exit {rc}: {last[0][:200]}"] for _ in cmd.op_ids()]
    if cmd.verb == "validate":
        return check_validate(output)
    if cmd.verb == "regularize":
        return check_regularize(phmor, out_dir, full_manifest)
    return check_reduction(phmor, cmd, out_dir, full_manifest, saved)
