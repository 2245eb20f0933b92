"""Command line driver.

Subcommands: generate (write an instance file), run (execute experiment
configs or shipped presets and check their certificates), sweep (step-size
study on an l1 instance), certify (re-check stored run artifacts).  `run`
and `certify` exit 1 exactly when some check fails; skipped or
inconclusive checks never fail a run.  Everything else that stops a command
exits 2 with one "error:" line on stderr and no traceback: bad arguments, a
file that cannot be read (certify reads the iterates.bin, instance.json and
config.json beside run.json), a JSON file whose top level is not an object,
a record that lacks a field, has another schema version or another key (at
any level: a desingularizer's region and a config's top level among them),
or another desingularizer form or region or set kind, a config or instance
key that nothing reads (the sweep reads no rescaled constant or rate), a
value of another type than its key or stored field takes (never
converted), a stored or config number that is not finite, a feasibility
set or certificate region of another dimension than its instance, an
iterates.bin that holds no whole float64 points in the problem's
dimension, more than the step budget allows, or points that are not
finite or not the method's steps, a method the instance's family does not
run, a step budget or cap below one, a step so small, or a start so far
from its instance's anchor, that a value its run or checks form is beyond
the range of a float (the error names the step or the start), a --seed
given to a config that reads its instance from a path, a run with an
iterate that is not finite (the error names its step), and a projection
that does not converge.

The argument parser is built once per process, on the first call of
`main`, and reused by every later call: a driver that calls `main` many
times in one process (a script, the test suite, the benchmark) pays for
argparse's set-up once.  Importing this module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from klcert.convex import NotConvergedError
from klcert.experiments import (
    PRESET_NAMES,
    ExperimentConfig,
    certify_run,
    preset_configs,
    run_experiment,
    sweep_relative_step,
    write_sweep,
)
from klcert.problems import FAMILIES, generate_instance, generator_parameters


def _cmd_generate(args) -> int:
    dims = {key: getattr(args, key)
            for parameters in generator_parameters().values()
            for key in parameters
            if key != "seed" and getattr(args, key) is not None}
    gi = generate_instance(args.family, seed=args.seed, **dims)
    gi.to_json(args.out)
    print(f"wrote {args.out} (family={gi.family}, seed={gi.seed})")
    return 0


def _load_configs(args) -> list[ExperimentConfig]:
    if (args.config is None) == (args.preset is None):
        raise ValueError("provide exactly one of --config or --preset")
    if args.config is not None:
        return [ExperimentConfig.from_json(args.config)]
    return preset_configs(args.preset)


def _set_seed(configs: list[ExperimentConfig], seed) -> None:
    """Give every config's generated instance the --seed value; a config
    that reads its instance from a path has no seed to set."""
    if seed is None:
        return
    for config in configs:
        if "family" not in config.instance:
            raise ValueError("--seed sets the seed of a generated instance, "
                             "and this config reads its instance from a path")
        config.instance["seed"] = seed


def _cmd_run(args) -> int:
    configs = _load_configs(args)
    _set_seed(configs, args.seed)
    failed = 0
    for i, config in enumerate(configs):
        if args.steps is not None:
            config.method["steps"] = args.steps
        name = config.name or f"experiment-{i}"
        out_dir = os.path.join(args.out, name)
        result = run_experiment(config, out_dir=out_dir)
        print(f"== {name} [{result.bundle.certificate_id}] -> {out_dir}")
        print(result.report.format_table())
        print()
        if not result.report.passed:
            failed += 1
    if failed:
        print(f"{failed} of {len(configs)} experiment(s) FAILED")
        return 1
    print(f"all {len(configs)} experiment(s) passed")
    return 0


def _cmd_sweep(args) -> int:
    configs = _load_configs(args)
    config = configs[0]
    _set_seed([config], args.seed)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("empty sweep grid")
    kwargs = {} if args.steps is None else {"max_steps": args.steps}
    rows = sweep_relative_step(config, values, **kwargs)
    path = os.path.join(args.out, "sweep.csv")
    write_sweep(path, rows)
    best = min(rows, key=lambda r: r["certified_steps"])
    print(f"{'d':>6} {'q':>12} {'certified':>10} {'empirical':>10}")
    for r in rows:
        emp = "" if r["empirical_steps"] is None else r["empirical_steps"]
        print(f"{r['relative_step']:>6.3g} {r['q']:>12.8f} "
              f"{r['certified_steps']:>10} {emp:>10}")
    print(f"fastest certified rate at d = {best['relative_step']:g} "
          f"(q = {best['q']:.8f}); wrote {path}")
    return 0


def _cmd_certify(args) -> int:
    report = certify_run(args.run, args.certificate, out_path=args.out)
    print(report.format_table())
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0 if report.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klcert",
        description="Certified first-order descent: run methods against "
                    "worst-case one-dimensional majorants and check growth "
                    "certificates by sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random problem instance",
                       description="A default of None is derived from the "
                                   "other parameters or drawn from the seed.")
    g.add_argument("--family", choices=FAMILIES, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="instance JSON path")
    # one flag per generator parameter, in order of first appearance
    flags = {}
    for family, parameters in generator_parameters().items():
        for key, (kind, _, default) in parameters.items():
            flags.setdefault(key, (kind, []))[1].append(
                f"{family} (default {default!r})")
    del flags["seed"]
    for key, (kind, takers) in flags.items():
        g.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                       help=", ".join(takers))
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("run", help="run experiments and check certificates")
    r.add_argument("--config", default=None, help="experiment config JSON")
    r.add_argument("--preset", default=None, choices=PRESET_NAMES)
    r.add_argument("--out", required=True, help="artifact directory")
    r.add_argument("--steps", type=int, default=None,
                   help="override the iteration budget")
    r.add_argument("--seed", type=int, default=None,
                   help="override the instance seed")
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("sweep", help="step-size sweep on an l1 instance")
    s.add_argument("--config", default=None)
    s.add_argument("--preset", default=None, choices=PRESET_NAMES)
    s.add_argument("--values",
                   default=",".join(f"{v:.1f}" for v in
                                    np.arange(0.1, 2.0, 0.1)),
                   help="comma-separated relative step sizes in (0, 2)")
    s.add_argument("--steps", type=int, default=None,
                   help="cap on iterations per sweep point")
    s.add_argument("--seed", type=int, default=None,
                   help="override the instance seed")
    s.add_argument("--out", default=".", help="directory for sweep.csv")
    s.set_defaults(func=_cmd_sweep)

    c = sub.add_parser("certify", help="re-check stored run artifacts")
    c.add_argument("--run", required=True, help="run.json of a stored run")
    c.add_argument("--certificate", required=True, help="certificate JSON")
    c.add_argument("--out", default=None, help="report JSON path")
    c.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
