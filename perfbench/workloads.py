"""The benchmark's three workloads and the per-operation correctness gates.

Every operation is one `klcert` command line, run in-process through
`klcert.cli.main(argv)`.  A workload is a fixed list of operations (one
"pass"); the runner repeats passes until its time budget is spent.

Why these workloads: each one loads a different pipeline layer heavily, so
an optimisation of that layer shows on one workload and is predicted to
leave the others unchanged (the prediction table is in BENCHMARK.json).

- lasso-fleet: reference-minimum generation (grid + polish) dominates.
- falsify-battery: per-sample sampling checks dominate.
- long-trajectory: the descent loop, the trajectory checks and artifact
  writes and reads dominate; it also holds the full step-size sweep.

Every workload also reports `run`, `certify` and `sweep` latencies, so each
end-to-end metric exists on each workload; lasso-fleet and falsify-battery
carry a short sweep (50 steps per grid point) for that purpose only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("lasso-fleet", "falsify-battery", "long-trajectory")

RUN_ARTIFACTS = ("instance.json", "run.json", "trace.csv", "majorant.csv",
                 "certificate.json", "report.json", "config.json")
TRAJECTORY_CHECKS = ("majorization", "distance-bound", "prox-step-domination")
WORST_RTOL = 1e-9
SMALL_SWEEP_REPEATS = 6
CERTIFY_REPLAYS = 3


@dataclass
class Op:
    """One command line; `out` is the directory it writes into."""

    kind: str                      # "run" | "certify" | "sweep"
    name: str                      # unique within a pass
    argv: list
    out: str
    broken: bool = False           # a run that must fail
    run_op: Optional[str] = None   # the run a certify replays


@dataclass
class Outcome:
    """What an operation produced, read back from its exit code and files."""

    exit: Optional[int]
    checks: list = field(default_factory=list)   # [name, status, worst]
    rows: list = field(default_factory=list)     # sweep rows
    digests: dict = field(default_factory=dict)
    error: str = ""


def build_configs(workload: str, seed: int):
    """ExperimentConfigs of the workload's `run` operations, in pass order.

    `seed` shifts the sampling seeds everywhere and the uniformly-convex
    instance seeds of long-trajectory.  lasso-fleet keeps criterion 04's
    instances 400-419: their reference-minimum cost is heavy-tailed (about
    one lasso seed in twenty hits the 200000-iteration polish cap, ~2.8 s
    against ~0.2 s), so shifted instance seeds would move the pass time
    between about 2.3 s and 8.5 s.  Step budgets in long-trajectory sit
    below the runs' convergence points, so every seed does the same number
    of steps.
    """
    from klcert.experiments import (PRESET_NAMES, ExperimentConfig,
                                    preset_configs)
    if workload == "lasso-fleet":
        return [ExperimentConfig(
            name=f"lasso-{400 + i}",
            instance={"family": "lasso", "n": 2 + i % 2, "seed": 400 + i},
            method={"name": "ista", "relative_step": 0.5, "steps": 2000},
            checks={"samples": 2000, "seed": seed},
        ) for i in range(20)]
    if workload == "falsify-battery":
        configs = [c for p in PRESET_NAMES for c in preset_configs(p)]
        for c in configs:
            c.checks["samples"] = 20000
            c.checks["seed"] = int(c.checks.get("seed", 0)) + seed
        return configs
    if workload == "long-trajectory":
        configs = [ExperimentConfig(
            name=f"uniformly-convex-{5 + 3 * seed + j}",
            instance={"family": "uniformly-convex", "n": 3,
                      "seed": 5 + 3 * seed + j},
            method={"name": "gradient", "relative_step": 0.005,
                    "steps": 5000},
            checks={"samples": 300, "seed": 7 + seed},
        ) for j in range(3)]
        configs.append(ExperimentConfig(
            name="tiny-lasso-d0.02",
            instance={"family": "lasso", "n": 2, "m": 3, "seed": 7},
            method={"name": "ista", "relative_step": 0.02, "steps": 2000},
            checks={"samples": 300, "seed": 11 + seed},
        ))
        return configs
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def setup(workload: str, seed: int, work_dir: str) -> list:
    """Import klcert, write the workload's config files, return its ops.

    This is what `setup_s` times.
    """
    import klcert.cli  # noqa: F401  (the import is part of set-up)
    from klcert.experiments import ExperimentConfig

    config_dir = os.path.join(work_dir, "configs")
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(config_dir, exist_ok=True)
    ops = []
    for config in build_configs(workload, seed):
        path = os.path.join(config_dir, config.name + ".json")
        config.to_json(path)
        run_out = os.path.join(out_dir, "run")
        run_name = "run:" + config.name
        ops.append(Op("run", run_name,
                      ["run", "--config", path, "--out", run_out],
                      os.path.join(run_out, config.name),
                      broken=config.name.startswith("broken-")))
        for r in range(CERTIFY_REPLAYS):
            stored = os.path.join(run_out, config.name)
            out = os.path.join(out_dir, "certify", f"{config.name}.{r}")
            ops.append(Op("certify", f"certify:{config.name}.{r}",
                          ["certify",
                           "--run", os.path.join(stored, "run.json"),
                           "--certificate",
                           os.path.join(stored, "certificate.json"),
                           "--out", os.path.join(out, "report.json")],
                          out, run_op=run_name))
    if workload == "long-trajectory":
        sweeps = [("sweep:tiny-lasso", ["--preset", "tiny-lasso"])]
    else:
        # the pool over the full d grid, 50 steps per point, on an instance
        # this pass already stored: little descent and no generation
        stored = ops[0].out if workload == "lasso-fleet" else next(
            op.out for op in ops if op.name == "run:tiny-lasso")
        config = ExperimentConfig(
            name="sweep", instance={"path": os.path.join(stored,
                                                         "instance.json")})
        path = os.path.join(config_dir, "sweep.json")
        config.to_json(path)
        sweeps = [(f"sweep:{os.path.basename(stored)}-steps50.{r}",
                   ["--config", path, "--steps", "50"])
                  for r in range(SMALL_SWEEP_REPEATS)]
    for name, extra in sweeps:
        out = os.path.join(out_dir, name.replace(":", "-"))
        ops.append(Op("sweep", name, ["sweep", "--out", out] + extra, out))
    return ops


def clear_outputs(ops: list) -> None:
    """Remove last pass's outputs, so a gate never reads stale files."""
    for op in ops:
        shutil.rmtree(op.out, ignore_errors=True)
        os.makedirs(op.out if op.kind != "run" else os.path.dirname(op.out),
                    exist_ok=True)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report_checks(path: str) -> list:
    with open(path, "r", encoding="ascii") as fh:
        report = json.load(fh)
    return [[c["name"], c["status"], c["worst_violation"]]
            for c in report["checks"]]


def read_outcome(op: Op, exit_code: Optional[int]) -> Outcome:
    """Read an operation's results back from the files it wrote."""
    outcome = Outcome(exit=exit_code)
    try:
        if op.kind == "run":
            for name in RUN_ARTIFACTS:
                outcome.digests[name] = _sha256(os.path.join(op.out, name))
            outcome.checks = _report_checks(os.path.join(op.out,
                                                         "report.json"))
        elif op.kind == "certify":
            path = os.path.join(op.out, "report.json")
            outcome.digests["report.json"] = _sha256(path)
            outcome.checks = _report_checks(path)
        else:
            path = os.path.join(op.out, "sweep.csv")
            outcome.digests["sweep.csv"] = _sha256(path)
            with open(path, "r", encoding="ascii", newline="") as fh:
                outcome.rows = [dict(r) for r in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError) as exc:
        outcome.error = f"unreadable output: {exc!r}"
    return outcome


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(float(a), float(b), rel_tol=WORST_RTOL, abs_tol=0.0)


def _checks_match(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        g[0] == w[0] and g[1] == w[1] and _close(g[2], w[2])
        for g, w in zip(got, want))


def _sweep_rows_match(got: list, want: list) -> bool:
    def same(g, w):
        return (_close(g["relative_step"], w["relative_step"])
                and _close(g["q"], w["q"])
                and g["certified_steps"] == w["certified_steps"]
                and g["empirical_steps"] == w["empirical_steps"])
    return len(got) == len(want) and all(map(same, got, want))


def _trajectory_verdict(checks: list) -> bool:
    return all(status != "fail" for name, status, _ in checks
               if name in TRAJECTORY_CHECKS)


def gate(op: Op, outcome: Outcome, outcomes: dict, reference: dict,
         default_seed: bool) -> list:
    """Names of the gates this operation failed (empty when it passed).

    Rules that hold at every seed: non-broken runs pass and broken-* runs
    fail; `certify` exits 0 exactly when the run it replays passed its
    trajectory checks; the sweep grid matches the reference (its instance
    does not depend on the seed).  At the default seed the reference also
    fixes every check's status and worst violation (relative 1e-9).
    """
    if outcome.error:
        return ["error"]
    failed = []
    if op.kind == "run":
        passed = all(status != "fail" for _, status, _ in outcome.checks)
        if outcome.exit != (0 if passed else 1):
            failed.append("exit-code")
        if passed == op.broken:
            failed.append("broken-must-fail" if op.broken
                          else "must-pass")
    elif op.kind == "certify":
        if outcome.exit not in (0, 1):
            failed.append("exit-code")
        run_outcome = outcomes.get(op.run_op)
        if run_outcome is None or run_outcome.error:
            failed.append("missing-run")
        elif (outcome.exit == 0) != _trajectory_verdict(run_outcome.checks):
            failed.append("certify-agrees-with-run")
    else:
        if outcome.exit != 0:
            failed.append("exit-code")
    if default_seed or op.kind == "sweep":
        want = reference.get(op.name)
        if want is None:
            failed.append("no-reference")
        elif op.kind == "sweep":
            if not _sweep_rows_match(outcome.rows, want["rows"]):
                failed.append("reference")
        elif (outcome.exit != want["exit"]
              or not _checks_match(outcome.checks, want["checks"])):
            failed.append("reference")
    return failed


def reference_entry(op: Op, outcome: Outcome) -> dict:
    entry = {"exit": outcome.exit, "digests": outcome.digests}
    if op.kind == "sweep":
        entry["rows"] = outcome.rows
    else:
        entry["checks"] = outcome.checks
    return entry


def digest_mismatches(op: Op, outcome: Outcome, reference: dict,
                      default_seed: bool) -> int:
    """Artifacts whose SHA-256 differs from the default-seed reference.

    Information only: a change meant to alter artifacts still lands.
    """
    if op.name not in reference or not (default_seed or op.kind == "sweep"):
        return 0
    want = reference[op.name]["digests"]
    return sum(1 for name, digest in want.items()
               if outcome.digests.get(name) != digest)
