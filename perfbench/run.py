"""klcert benchmark: three workloads through `klcert.cli.main(argv)`.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from `src/`).  One
invocation is one fresh process running one workload: it sets up (imports
klcert, writes the workload's config files), repeats the workload's pass
of `run` / `certify` / `sweep` operations until `--seconds` is spent,
checks every operation's output after each pass, and prints a summary
followed by one JSON line, the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (timed with tracing off).
`--trace 1` alternates untraced and traced passes and reports per-layer
self times and exact counts of the traced pass with the median wall time,
plus the tracing overhead against the untraced ones.  Details
(provenance, per-operation latencies, gate failures, that pass's spans)
go to `.perfbench/results/` under the repository root.

`--workload all` runs the three workloads one after the other, each in its
own process.  `--record-reference` runs one pass of every workload at the
default seed and rewrites `perfbench/reference.json`, the per-operation
statuses, worst violations and artifact digests the gates compare against.
"""

import os

# One computing thread per process; `klcert sweep` keeps its own 2-worker
# pool, which is the program's behaviour under test.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_PROBES = 12
KERNEL_WINDOW = 6

# Gate failures that are defects of the program, present when the
# reference was recorded.  They count as failed operations; `correct`
# stays true only while every failure is one of these.
KNOWN_DEFECTS = {
    # ROADMAP item 4a: certificate.json does not record override_q, so
    # `klcert certify` passes the stored broken-rate run that
    # `klcert run` failed.
    (f"certify:broken-rate.{r}", "certify-agrees-with-run")
    for r in range(workloads.CERTIFY_REPLAYS)
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("run_ms.p50", "ms"),
              ("certify_ms.p50", "ms"), ("sweep_s", "s"),
              ("peak_rss_mb", "MB"))


PER_LAYER = (
    ("problems.generate_s", "s"), ("problems.calls", "count"),
    ("error_bounds.constants_s", "s"),
    ("descent.run_s", "s"), ("descent.steps", "count"),
    ("descent.us_per_step", "us"),
    ("majorant.sequence_s", "s"), ("majorant.steps", "count"),
    ("verification.kl_s", "s"), ("verification.eb_s", "s"),
    ("verification.samples_drawn", "count"),
    ("verification.samples_valid", "count"),
    ("verification.valid_ratio", "ratio"),
    ("verification.us_per_sample", "us"),
    ("verification.trajectory_s", "s"),
    ("verification.trajectory_points", "count"),
    ("experiments.write_s", "s"), ("experiments.bytes_written", "bytes"),
    ("tracefmt.write_s", "s"), ("tracefmt.rows", "count"),
    ("experiments.certify_s", "s"), ("experiments.bytes_read", "bytes"),
    ("experiments.sweep_self_s", "s"), ("experiments.self_s", "s"),
    ("cli.self_s", "s"),
    ("desingularization.kl_gap_calls", "count"),
    ("convex.value_gap_calls", "count"),
    ("experiments.artifact_digest_mismatches", "count"),
    ("trace.wall_s", "s"), ("trace.uninstrumented_s", "s"),
    ("trace.overhead_pct", "%"),
)


def run_op(op) -> tuple:
    """Run one command line in-process; returns (exit code, seconds, log)."""
    import klcert.cli
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            code = klcert.cli.main(op.argv)
        except SystemExit as exc:        # argparse rejects the arguments
            code = exc.code
        except Exception:                # noqa: BLE001  (recorded, gated)
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, log.getvalue()


class Pass:
    """Timings and gate results of one pass over the workload's operations.

    `latency` holds raw seconds.  A speed-kernel sample precedes each
    operation and follows the last; `scaled_latency` converts each
    operation's time to reference-host seconds (see speed.py) by the median
    of the KERNEL_WINDOW samples around it.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.latency = {}       # op name -> seconds
        self.kernel = []        # speed-kernel seconds, between operations
        self.failures = {}      # op name -> [gate names]
        self.digest_mismatches = 0
        self.layer = None       # per-layer metrics of a traced pass

    @property
    def wall(self) -> float:
        """Sum of the operations' raw latencies."""
        return sum(self.latency.values())

    def scaled_latency(self) -> dict:
        half = KERNEL_WINDOW // 2
        return {name: seconds * speed.REFERENCE_S / statistics.median(
                    self.kernel[max(0, i + 1 - half):i + 1 + half])
                for i, (name, seconds) in enumerate(self.latency.items())}

    @property
    def scale(self) -> float:
        """Reference-host seconds per raw second, over the whole pass."""
        return sum(self.scaled_latency().values()) / self.wall


def run_pass(ops, traced, reference, default_seed) -> tuple:
    workloads.clear_outputs(ops)
    result = Pass(traced)
    tracer = Tracer() if traced else None
    exits, logs = {}, {}
    if tracer:
        tracer.install()
    try:
        result.kernel.append(speed.kernel_seconds())
        for op in ops:
            exits[op.name], result.latency[op.name], logs[op.name] = \
                run_op(op)
            result.kernel.append(speed.kernel_seconds())
    finally:
        if tracer:
            tracer.uninstall()
    outcomes = {}
    for op in ops:
        outcome = workloads.read_outcome(op, exits[op.name])
        if exits[op.name] is None:
            outcome.error = "exception:\n" + logs[op.name]
        outcomes[op.name] = outcome
        failed = workloads.gate(op, outcome, outcomes, reference,
                                default_seed)
        if failed:
            result.failures[op.name] = failed
        result.digest_mismatches += workloads.digest_mismatches(
            op, outcome, reference, default_seed)
    if tracer:
        result.layer = tracer.layer_metrics()
        result.layer["absent_layers"] = tracer.absent_layers()
        result.layer["missing"] = tracer.missing
        result.layer["spans"] = [s.to_list() for s in tracer.spans]
    return result, outcomes


def setup_probe(workload: str, seed: int, work_dir: str) -> float:
    start = time.perf_counter()
    workloads.setup(workload, seed, work_dir)
    return time.perf_counter() - start


def fresh_setup_times(workload, seed, work_dir) -> list:
    """Set-up time of SETUP_PROBES fresh interpreter processes, each in
    reference-host seconds by the speed-kernel samples either side of it."""
    times, before = [], speed.kernel_seconds()
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"setup-probe-{k}")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--work-dir", probe_dir],
            capture_output=True, text=True, timeout=120, check=True)
        after = speed.kernel_seconds()
        times.append(float(proc.stdout.strip().splitlines()[-1])
                     * speed.REFERENCE_S / statistics.mean((before, after)))
        before = after
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def provenance(workload, seed, seconds, trace) -> dict:
    import numpy
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "klcert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "commit": commit, "klcert_source_sha256": digest.hexdigest()}


def load_reference(workload: str) -> dict:
    with open(REFERENCE, "r", encoding="ascii") as fh:
        return json.load(fh)["workloads"][workload]


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(ops, passes, setup_times) -> tuple:
    """Latency metrics are medians over a kind's operations of each
    operation's median over passes, so they do not depend on how many
    passes fit into the run."""
    per_op = {op.name: [] for op in ops}
    walls = []
    for p in passes:
        scaled = p.scaled_latency()
        walls.append(sum(scaled.values()))
        for name, seconds in scaled.items():
            per_op[name].append(seconds)

    def typical(kind):
        return _median([_median(per_op[op.name]) for op in ops
                        if op.kind == kind])

    def count(kind):
        return sum(len(per_op[op.name]) for op in ops if op.kind == kind)

    values = {
        "setup_s": _median(setup_times),
        "wall_s": _median(walls),
        "run_ms.p50": typical("run") * 1e3,
        "certify_ms.p50": typical("certify") * 1e3,
        "sweep_s": typical("sweep"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup_times), "wall_s": len(passes),
               "run_ms.p50": count("run"), "certify_ms.p50": count("certify"),
               "sweep_s": count("sweep"), "peak_rss_mb": 1}
    return values, samples


def per_layer_metrics(passes) -> tuple:
    """Per-layer metrics of the traced pass with the median wall time, so
    its layer self times and uninstrumented time add up to its wall."""
    traced = sorted((p for p in passes if p.traced),
                    key=lambda p: p.wall * p.scale)
    plain = [p for p in passes if not p.traced]
    chosen = traced[(len(traced) - 1) // 2]
    layer, scale = chosen.layer, chosen.scale
    values = {name: layer[name] * scale
              for name in set(TIME_METRICS.values())}
    values.update({name: layer[name] for name in COUNT_METRICS})
    counts_repeat = all(p.layer[name] == layer[name]
                        for p in traced for name in COUNT_METRICS)
    steps = values["descent.steps"]
    samples = values["verification.samples_drawn"]
    values["descent.us_per_step"] = (
        values["descent.run_s"] / steps * 1e6 if steps else 0.0)
    values["verification.valid_ratio"] = (
        values["verification.samples_valid"] / samples if samples else 0.0)
    values["verification.us_per_sample"] = (
        (values["verification.kl_s"] + values["verification.eb_s"])
        / samples * 1e6 if samples else 0.0)
    values["experiments.artifact_digest_mismatches"] = \
        chosen.digest_mismatches
    values["trace.wall_s"] = chosen.wall * scale
    values["trace.uninstrumented_s"] = (chosen.wall - layer["traced_s"]) \
        * scale
    values["trace.overhead_pct"] = (values["trace.wall_s"] / _median(
        [p.wall * p.scale for p in plain]) - 1.0) * 100.0
    return ({name: values[name] for name, _ in PER_LAYER}, counts_repeat,
            chosen)


def measure(args) -> int:
    work_dir = os.path.join(OUT_ROOT, f"work-{os.getpid()}")
    try:
        ops = workloads.setup(args.workload, args.seed, work_dir)
        setup_times = ([] if args.trace else
                       fresh_setup_times(args.workload, args.seed, work_dir))
        reference = load_reference(args.workload)
        default_seed = args.seed == DEFAULT_SEED

        passes, durations = [], []
        loop_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            start = time.perf_counter()
            passes.append(run_pass(ops, traced, reference, default_seed)[0])
            durations.append(time.perf_counter() - start)
            spent = time.perf_counter() - loop_start
            longest = max(durations)
            if args.trace and len(passes) < 2:
                continue
            if args.trace and len(passes) % 2 == 1:
                continue                 # finish the untraced/traced pair
            if spent + (2 if args.trace else 1) * longest > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(p.latency) for p in passes)
    failures = [(p_i, name, gate) for p_i, p in enumerate(passes)
                for name, gates in p.failures.items() for gate in gates]
    failed_ops = sum(len(p.failures) for p in passes)
    unexpected = [f for f in failures if (f[1], f[2]) not in KNOWN_DEFECTS]
    correct = not unexpected

    if args.trace:
        values, counts_repeat, chosen = per_layer_metrics(passes)
        absent = chosen.layer["absent_layers"]
        correct = correct and counts_repeat
        units = dict(PER_LAYER)
        samples = {name: sum(p.traced for p in passes) for name in values}
    else:
        values, samples = end_to_end_metrics(ops, passes, setup_times)
        units = dict(END_TO_END)
        absent = []

    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    print(f"klcert benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} "
          f"python={prov['python']} numpy={prov['numpy']} "
          f"nproc={prov['nproc']} commit={prov['commit']}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} "
              f"(n={samples[name]})")
    print(f"  ops attempted {attempted}, failed {failed_ops} "
          f"(ops_failed = {failed_ops / attempted:.4%})")
    for p_i, name, gate in failures:
        known = " (known defect)" if (name, gate) in KNOWN_DEFECTS else ""
        print(f"    pass {p_i}: {name} failed {gate}{known}")
    if absent:
        print(f"  absent layers: {', '.join(absent)}")

    os.makedirs(os.path.join(OUT_ROOT, "results"), exist_ok=True)
    details = {
        "provenance": prov, "correct": correct, "attempted": attempted,
        "failed": failed_ops, "failures": failures, "metrics": values,
        "samples": samples, "setup_times": setup_times,
        "passes": [{"traced": p.traced, "raw_wall": p.wall,
                    "scale": p.scale, "raw_latency": p.latency,
                    "kernel": p.kernel, "failures": p.failures,
                    "digest_mismatches": p.digest_mismatches}
                   for p in passes],
    }
    if args.trace:
        details["absent_layers"] = absent
        details["missing_entry_points"] = chosen.layer["missing"]
        details["span_fields"] = ["id", "parent", "layer", "name", "thread",
                                  "start", "end"]
        details["spans"] = chosen.layer["spans"]
    path = os.path.join(OUT_ROOT, "results", f"{args.workload}-seed"
                        f"{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(details, fh)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, with its own summary."""
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)], timeout=900)
        code = max(code, proc.returncode)
    return code


def record_reference() -> int:
    recorded = {}
    for workload in workloads.WORKLOADS:
        work_dir = os.path.join(OUT_ROOT, f"record-{os.getpid()}")
        try:
            ops = workloads.setup(workload, DEFAULT_SEED, work_dir)
            result, outcomes = run_pass(ops, False, {}, False)
            recorded[workload] = {
                op.name: workloads.reference_entry(op, outcomes[op.name])
                for op in ops}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        unexpected = [(n, g) for n, gates in result.failures.items()
                      for g in gates if g != "no-reference"
                      and (n, g) not in KNOWN_DEFECTS]
        if unexpected:
            print(f"error: {workload}: gates failed: {unexpected}",
                  file=sys.stderr)
            return 1
    prov = provenance(None, DEFAULT_SEED, None, None)
    with open(REFERENCE, "w", encoding="ascii") as fh:
        json.dump({"seed": DEFAULT_SEED, "commit": prov["commit"],
                   "klcert_source_sha256": prov["klcert_source_sha256"],
                   "workloads": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "klcert", "__init__.py")):
        print(f"error: no klcert sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.work_dir))
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
