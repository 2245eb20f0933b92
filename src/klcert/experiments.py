"""End-to-end pipelines: instance -> method -> certificate -> majorant ->
checks -> artifacts, plus re-certification of stored artifacts, the
step-size sweep and the shipped presets.

Each family's builder yields its problem (composite, start, step, minimum
value), then the certificate pieces; `run_experiment` runs every family's
method through one `forward_backward` call, and its sampling checks test
the objective derived from that same composite
(`CompositeObjective.objective`), so no family writes its objective twice.
`run_experiment` and `certify_run` compute the start's gap, the majorant
and the trajectory-check report through one function, and certificate.json
(schema 2) holds only what certify reads: the desingularizer and the
certificate id.  zeta, q and the worst-case sequence all follow from the
desingularizer and the step constants (a, b), so none is stored.

A config fully determines an experiment; identical configs produce byte-
identical artifacts (seeded sampling, sorted JSON keys, fixed-format CSV),
all written through `klcert.tracefmt`.  The certificate block accepts two
escape hatches used by the falsification harness: "scale_gamma" multiplies
the growth constant, "override_q" replaces the certified rate — both exist
so the check suite can prove it catches bad constants.  The sweep runs its
grid of relative steps one after another in the calling thread, each d only
until its gap first halves.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from klcert.convex import (
    Ball,
    CompositeObjective,
    IntersectionSet,
    as_point,
    half_squared_distance,
    indicator,
    quadratic_objective,
    row_norms,
    row_sums,
    zero_objective,
)
from klcert.descent import (
    DescentRun,
    certificate_params,
    forward_backward,
    step_over_lipschitz,
)
from klcert.desingularization import (
    DESINGULARIZERS,
    Desingularizer,
    ErrorBoundCertificate,
    PowerDesingularizer,
    _power,
    from_error_bound,
    libm_pow,
    to_error_bound,
)
from klcert.error_bounds import (
    FeasibilityInstance,
    LassoConstants,
    LassoInstance,
    feasibility_bound,
    lasso_gamma,
    lasso_nu,
    uniformly_convex_profile,
)
from klcert.majorant import (
    MajorantSequence,
    steps_to_epsilon,
    worst_case_sequence,
    zeta,
)
from klcert.problems import GeneratedInstance, generate_instance
from klcert.regions import L1Ball
from klcert.tracefmt import (
    TRACE_COLUMNS,
    read_json,
    read_value,
    require,
    require_number,
    require_type,
    write_json,
    write_table,
    write_value,
)
from klcert.verification import (
    CertificationReport,
    check_error_bound_sampling,
    check_kl_sampling,
    scale_certificate,
    scale_desingularizer,
    trajectory_checks,
)


@dataclass
class Problem:
    """The part of a pipeline that `certify` rebuilds: one forward-backward
    composite, its start, step size and minimum value."""

    composite: CompositeObjective
    start: np.ndarray
    step: float
    min_value: float


@dataclass
class PipelineBundle(Problem):
    """What a family pipeline hands the generic runner: its problem and the
    certificate pieces the checker needs, among them the bounded region
    (an L1Ball or a Ball) that the sampling checks draw from."""

    desingularizer: Desingularizer
    certificate: ErrorBoundCertificate
    solution_set: object
    sample_region: object
    minimizer: Optional[np.ndarray]
    certificate_id: str
    # raises when a run leaves the region its certificate covers
    guard: Callable[[DescentRun], None] = lambda run: None


def _refuse_far_start(start, anchor, what: str, reach: float = 1.0,
                      offset: float = 0.0, weight: float = 1.0) -> None:
    """Refuse (ValueError naming the start) a start so far from anchor
    that weight (reach t + offset)^2, t the distance between them, is
    beyond the range of a float: the family's bound on the values that its
    run and checks form from the start.  Taken in Python floats, where an
    overflow is inf with no warning, before numpy takes the start."""
    t = math.hypot(*[s - a for s, a in zip(start.tolist(), anchor.tolist())])
    r = reach * t + offset
    if not weight * r * r < math.inf:
        raise ValueError(f"start {start.tolist()} is too far from {what} "
                         f"{anchor.tolist()}: the values its run and checks "
                         "form are beyond the range of a float")


def _lasso_growth(inst, config: ExperimentConfig) -> LassoConstants:
    """Growth constants from the certificate block's source."""
    source = config.setting("certificate", "source")
    if source == "computed":
        nu = lasso_nu(inst, mode="exact")
    elif source == "supplied":
        nu = config.setting("certificate", "nu")
        if nu is None:
            raise ValueError("a supplied certificate lacks nu")
    else:
        raise ValueError(
            f"unknown certificate source {source!r}; growth constants need "
            "an exact (upper-bound) Hoffman constant or a supplied one")
    return lasso_gamma(inst, nu)


def _check_l1_ball(run: DescentRun, R: float) -> None:
    """Every iterate of a lasso run started at x0 stays in the l1 ball of
    radius R = inst.radius_bound()."""
    worst = float(np.max(row_sums(np.abs(run.iterates))))
    if worst > R + 1e-9:
        # Guaranteed for any step below 2/L; tripping it means a bug, not
        # an unlucky instance.
        raise RuntimeError(
            f"iterate escaped the l1 ball: {worst!r} > R = {R!r}")


def _build_lasso(gi: GeneratedInstance, config: ExperimentConfig,
                 method: str) -> Iterator[Problem]:
    v = gi.values()
    inst = LassoInstance(v["A"], v["y"], v["mu"], v["x0"])
    minimizer = as_point(v["minimizer"], inst.dimension)
    composite = inst.composite
    norm_A, norm_y = math.sqrt(composite.lipschitz), math.hypot(*v["y"])
    # ||A x - y|| <= ||A|| ||x|| + ||y||
    _refuse_far_start(inst.x0, np.zeros(inst.dimension), "the origin",
                      reach=norm_A, offset=norm_y)
    d_rel = config.setting("method", "relative_step")
    problem = Problem(composite, inst.x0, step_over_lipschitz(
        d_rel, composite.lipschitz), v["min_value"])
    yield problem
    consts = _lasso_growth(inst, config)
    # the values on the l1 ball of radius R are at most
    # 0.5 (||A|| R + ||y||)^2 + mu R, and the checks divide them by gamma_R
    top = norm_A * consts.R + norm_y
    largest = 0.5 * top * top + inst.mu * consts.R
    if not (consts.gamma_R > 0 and largest / consts.gamma_R < math.inf):
        raise ValueError(
            f"start {inst.x0.tolist()} is too far from the origin: its l1 "
            f"radius R = {consts.R!r} leaves gamma_R = {consts.gamma_R!r}, "
            "and the values its checks form are beyond the range of a float")
    cert = ErrorBoundCertificate(form="power", p=2.0,
                                 gamma=2.0 * consts.gamma_R,
                                 region=L1Ball(consts.R))
    desing = from_error_bound(cert)
    yield PipelineBundle(
        **vars(problem),
        desingularizer=desing,
        certificate=cert,
        solution_set=Ball(minimizer, 0.0),
        sample_region=cert.region,
        minimizer=minimizer,
        certificate_id=f"lasso-growth(gamma_R={consts.gamma_R:.6g})",
        guard=lambda run: _check_l1_ball(run, consts.R),
    )


def _build_feasibility(gi: GeneratedInstance, config: ExperimentConfig,
                       variant: str) -> Iterator[Problem]:
    """Averaged projections: unit gradient steps on 0.5 sum_i w_i
    dist^2(., C_i).  Alternating projections, for exactly two sets: unit
    forward-backward steps on indicator(C_1) + 0.5 dist^2(., C_2), started
    in C_1.  Both have a = 1/2 and b = 2."""
    v = gi.values()
    inst = FeasibilityInstance(v["sets"], v["xbar"], v["R"], v["weights"])
    start = as_point(v["x0"], inst.dimension)
    # every set holds xbar, so a distance to a set is at most one to xbar
    _refuse_far_start(start, inst.xbar, "xbar")
    if variant == "barycentric":
        solution = IntersectionSet(inst.sets)
        composite = CompositeObjective(
            smooth=inst.objective(), nonsmooth=zero_objective(inst.dimension))
    else:
        solution = IntersectionSet(inst.sets[:2])
        if len(inst.sets) != 2:
            raise ValueError("alternating projections are exposed for two "
                             "sets only; use barycentric for more")
        c1, c2 = inst.sets
        if not bool(c1.contains(start, tol=1e-12)):
            start = c1.project(start)
        composite = CompositeObjective(
            smooth=half_squared_distance(c2, inst.dimension),
            nonsmooth=indicator(c1, inst.dimension))
    problem = Problem(composite, start, step=1.0, min_value=0.0)
    yield problem
    desing = feasibility_bound(inst, start, variant)
    cert = to_error_bound(desing)
    yield PipelineBundle(
        **vars(problem),
        desingularizer=desing,
        certificate=cert,
        solution_set=solution,
        sample_region=desing.region,
        minimizer=None,
        certificate_id=f"feasibility-{variant}(M={desing.ell:.6g})",
    )


def _build_uniformly_convex(gi: GeneratedInstance, config: ExperimentConfig,
                            method: str) -> Iterator[Problem]:
    v = gi.values()
    center, weight, x0 = v["center"], v["weight"], v["x0"]
    # the sampling ball about the center has radius 2 t + 1
    _refuse_far_start(x0, center, "the center", reach=2.0, offset=1.0,
                      weight=weight)
    obj = quadratic_objective(center, weight=weight)
    d_rel = config.setting("method", "relative_step")
    problem = Problem(CompositeObjective(
        smooth=obj, nonsmooth=zero_objective(obj.dimension)),
        x0, step_over_lipschitz(d_rel, obj.lipschitz), 0.0)
    yield problem
    # Modulus of 2-uniform convexity of w ||x - c||^2 is 2w.
    desing = uniformly_convex_profile(sigma=2.0 * weight, p=2.0, alpha0=1.0)
    cert = to_error_bound(desing)
    anchor_scale = 2.0 * float(np.linalg.norm(x0 - center)) + 1.0
    yield PipelineBundle(
        **vars(problem),
        desingularizer=desing,
        certificate=cert,
        solution_set=Ball(center, 0.0),
        sample_region=Ball(center, anchor_scale),
        minimizer=center,
        certificate_id=f"uniformly-convex(sigma={2.0 * weight:.6g})",
    )


def _build_tight_quadratic(gi: GeneratedInstance, config: ExperimentConfig,
                           method: str) -> Iterator[Problem]:
    v = gi.values()
    ball = Ball(v["center"], v["radius"])
    x0 = v["x0"]
    # the sampling ball about the center has radius 1.2 t
    _refuse_far_start(x0, ball.center, "the center", reach=1.2)
    n = ball.center.shape[0]
    smooth = half_squared_distance(ball, n)
    problem = Problem(CompositeObjective(smooth=smooth,
                                         nonsmooth=zero_objective(n)),
                      x0, step=1.0, min_value=0.0)
    yield problem
    # f = 0.5 dist^2 grows with constant exactly 1; the certificate below
    # has zero slack, which is the whole point of this instance.
    growth = 1.0
    desing = PowerDesingularizer(scale=math.sqrt(2.0 / growth), exponent=2.0,
                                 ell=growth)
    cert = to_error_bound(desing)
    anchor_scale = 1.2 * float(np.linalg.norm(x0 - ball.center))
    yield PipelineBundle(
        **vars(problem),
        desingularizer=desing,
        certificate=cert,
        solution_set=ball,
        sample_region=Ball(ball.center, anchor_scale),
        minimizer=None,
        certificate_id=f"tight-quadratic(M={growth:.6g})",
    )


# every key of the method, certificate and checks blocks, as (type,
# default); a default of None for the method name and step budget means the
# family's (PIPELINES).  Any other key is a typo, and a value of another
# type is refused: an int passes for a float, a bool for nothing.
SETTINGS = {
    "method": {"name": (str, None), "steps": (int, None),
               "relative_step": (float, 0.5)},
    "certificate": {"source": (str, "computed"), "nu": (float, None),
                    "scale_gamma": (float, None),
                    "override_q": (float, None)},
    "checks": {"samples": (int, 2000), "seed": (int, 0)},
}

# the certificate keys run_experiment reads for every family
RESCALING = ("scale_gamma", "override_q")

# per family: the method names its pipeline runs, the first being the
# default; the step budget when the config sets none; the certificate keys
# it reads; the builder, which yields the problem, then the bundle
PIPELINES = {
    "lasso": (("ista",), 1000, ("source", "nu") + RESCALING, _build_lasso),
    "feasibility": (("barycentric", "alternating"), 1000, RESCALING,
                    _build_feasibility),
    "uniformly-convex": (("gradient",), 1000, RESCALING,
                         _build_uniformly_convex),
    "tight-quadratic": (("projection-gradient",), 50, RESCALING,
                        _build_tight_quadratic),
}


@dataclass
class ExperimentConfig:
    instance: dict
    method: dict = field(default_factory=dict)
    certificate: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError("config name must be a string")
        # the name is a directory under --out, never a path out of it
        if self.name in (".", "..") or any(
                sep and sep in self.name for sep in ("/", os.sep, os.altsep)):
            raise ValueError(f"config name {self.name!r} is not a plain "
                             "directory name")
        for block in ("instance",) + tuple(SETTINGS):
            if not isinstance(getattr(self, block), dict):
                raise ValueError(f"config {block} must be an object")
        for block, keys in SETTINGS.items():
            unknown = sorted(set(getattr(self, block)) - set(keys))
            if unknown:
                raise ValueError(
                    f"config {block} has unknown keys {', '.join(unknown)}")
            for key in getattr(self, block):
                self.setting(block, key)
        if "path" not in self.instance and "family" not in self.instance:
            raise ValueError("instance needs either a path or a family")

    def setting(self, block: str, key: str, default=None):
        """block.key, refused unless of its SETTINGS type (an int given for
        a float comes back as a float, and a float must be finite); when
        left out, its SETTINGS default, or default where that is None.  The
        blocks stay as given."""
        kind, fallback = SETTINGS[block][key]
        if key not in getattr(self, block):
            return default if fallback is None else fallback
        value = getattr(self, block)[key]
        what = f"config {block}.{key}"
        if kind is float:
            return require_number(value, what)
        require_type(value, kind, what)
        return value

    def to_dict(self) -> dict:
        return dict(vars(self), schema_version=1)

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """Inverse of to_dict: instance, any other field and no other key
        but a schema_version, which is the int 1."""
        require(data, ("instance",), "config")
        unknown = sorted(set(data) - {"schema_version"}
                         - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(
                f"config record has unknown keys {', '.join(unknown)}")
        if "schema_version" in data:
            require(data, ("schema_version",), "config")
        return ExperimentConfig(**{key: value for key, value in data.items()
                                   if key != "schema_version"})

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_json(path))


def load_instance(config: ExperimentConfig) -> GeneratedInstance:
    fields = dict(config.instance)
    if "path" in fields:
        if len(fields) > 1:
            raise ValueError("an instance read from a path takes no other keys")
        require_type(fields["path"], str, "instance path")
        return GeneratedInstance.from_json(fields["path"])
    return generate_instance(**fields)


def pipeline_settings(family: str, config: ExperimentConfig
                      ) -> tuple[str, int]:
    """(method, step budget) of config for family, refused unless the
    family runs that method, the budget is at least one step and the
    family reads every certificate key the config gives."""
    methods, default_steps, certificate_keys, _ = PIPELINES[family]
    method = config.setting("method", "name", methods[0])
    if method not in methods:
        raise ValueError(f"method {method!r} does not apply to the {family}"
                         f" family, which runs {', '.join(methods)}")
    steps = config.setting("method", "steps", default_steps)
    if steps < 1:
        raise ValueError("need at least one step")
    unread = sorted(set(config.certificate) - set(certificate_keys))
    if unread:
        raise ValueError(f"config certificate has keys the {family} family "
                         f"does not read: {', '.join(unread)}")
    return method, steps


def build_pipeline(gi: GeneratedInstance, config: ExperimentConfig
                   ) -> PipelineBundle:
    method = pipeline_settings(gi.family, config)[0]
    _, bundle = PIPELINES[gi.family][-1](gi, config, method)
    return bundle


def majorant_from_rate(d: Desingularizer, q: float, f0: float, params,
                       steps: int) -> MajorantSequence:
    """Geometric value bounds f0 / q^k packaged as a majorant sequence.

    Exists for the rate-override escape hatch: an inflated q produces bounds
    the run cannot honor, and the majorization check must say so.
    """
    if q <= 1.0:
        raise ValueError("rate q must exceed 1")
    if _power(q, float(steps)) == math.inf:
        raise ValueError(f"rate q = {q:g} to the power {steps}, the run's "
                         f"last step, is beyond the range of a float")
    psi_values = f0 / libm_pow(q, np.arange(steps + 1))
    alpha = d.phi(psi_values)
    ell = d.ell if d.ell is not None else d.psi_prime_lipschitz(float(alpha[0]))
    if ell is None:
        raise ValueError("profile has no Lipschitz constant for its inverse")
    return MajorantSequence(zeta=zeta(params.a, params.b, ell), alpha=alpha,
                            psi_values=psi_values, params=params, ell=ell)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    instance: GeneratedInstance
    bundle: PipelineBundle
    run: DescentRun
    majorant: MajorantSequence
    report: CertificationReport

    @property
    def passed(self) -> bool:
        return self.report.passed


def trace_columns(run: DescentRun, maj: MajorantSequence,
                  xstar=None) -> dict:
    """trace.csv's columns by name, as write_table takes them: (first row,
    values), one row per iterate."""
    columns = {
        "k": (0, range(len(run.raw_values))),
        "value_bound": (0, maj.psi_values),
        "step_norm": (1, run.step_norms),
        "witness_norm": (1, run.witness_norms),
        "distance_bound": (1, maj.distance_bounds),
    }
    if run.min_value is not None:
        # no gap at an infinite value: only the start's can be (a start
        # outside the domain)
        first = int(math.isinf(run.raw_values[0]))
        columns["value_gap"] = (first, run.gaps[first:])
    if xstar is not None:
        columns["distance_to_xstar"] = (0, row_norms(run.iterates - xstar))
    return columns


# the columns of majorant.csv that hold values; they equal trace.csv's
MAJORANT_COLUMNS = ("k", "value_bound", "distance_bound")


def _trajectory_report(run: DescentRun, desing: Desingularizer, run_id: str,
                       certificate_id: str, q: Optional[float] = None,
                       xstar=None
                       ) -> tuple[MajorantSequence, CertificationReport]:
    """The majorant of run from its start's gap f0, and a report of the
    trajectory checks against it; `run_experiment` and `certify_run` both
    make them here.  The majorant is desing's worst-case sequence, or the
    geometric one of rate q when q is given."""
    f0 = float(run.gaps[0])
    if f0 <= 0:
        raise ValueError("start is already optimal; nothing to certify")
    if q is not None:
        maj = majorant_from_rate(desing, q, f0, run.params, run.num_steps)
    else:
        maj = worst_case_sequence(desing, f0, run.params, run.num_steps)
    return maj, CertificationReport(
        checks=trajectory_checks(run, maj, desing, xstar=xstar),
        run_id=run_id, certificate_id=certificate_id)


def run_experiment(config: ExperimentConfig,
                   out_dir: Optional[str] = None) -> ExperimentResult:
    gi = load_instance(config)
    steps = pipeline_settings(gi.family, config)[1]
    bundle = build_pipeline(gi, config)
    # the sampling checks test the function the run descends; a composite
    # without a least-norm subgradient is refused here, before the run
    objective = bundle.composite.objective(bundle.min_value)
    run = forward_backward(bundle.composite, bundle.start, bundle.step,
                           steps, min_value=bundle.min_value)
    bundle.guard(run)

    desing = bundle.desingularizer
    cert = bundle.certificate
    factor = config.setting("certificate", "scale_gamma")
    if factor is not None:
        desing = scale_desingularizer(desing, factor)
        cert = scale_certificate(cert, factor)
        bundle.certificate_id += f"*scaled({factor:g})"

    q = config.setting("certificate", "override_q")
    if q is not None:
        bundle.certificate_id += f"*q={q:g}"
    maj, report = _trajectory_report(
        run, desing, config.name or f"{gi.family}-seed{gi.seed}",
        bundle.certificate_id, q=q, xstar=bundle.minimizer)

    samples = config.setting("checks", "samples")
    seed = config.setting("checks", "seed")
    report.add(check_kl_sampling(desing, objective, bundle.sample_region,
                                 n_samples=samples, seed=seed))
    report.add(check_error_bound_sampling(cert, objective, bundle.solution_set,
                                          bundle.sample_region,
                                          n_samples=samples, seed=seed + 1))

    result = ExperimentResult(config=config, instance=gi, bundle=bundle,
                              run=run, majorant=maj, report=report)
    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


# every key of a certificate.json record: the stored desingularizer and the
# id are all certify reads, and no other key is accepted on load
CERTIFICATE_FIELDS = ("schema_version", "desingularizer", "certificate_id")


def write_artifacts(result: ExperimentResult, out_dir: str) -> dict:
    """Write result's artifacts into out_dir; their paths, by file name."""
    run = result.run
    maj = result.majorant
    xstar = result.bundle.minimizer
    if xstar is None:
        xstar = run.settled_point()

    paths = {name: os.path.join(out_dir, name) for name in (
        "instance.json", "run.json", "iterates.bin", "trace.csv",
        "majorant.csv", "certificate.json", "report.json", "config.json")}
    result.instance.to_json(paths["instance.json"])
    run.write(paths["run.json"], paths["iterates.bin"])
    # the majorant has one entry per iterate, so majorant.csv writes the
    # cells of trace.csv's majorant columns again rather than format them
    rows = range(len(run.raw_values))
    cells = write_table(paths["trace.csv"], TRACE_COLUMNS, rows,
                        trace_columns(run, maj, xstar))
    write_table(paths["majorant.csv"], TRACE_COLUMNS, rows,
                {name: cells[name] for name in MAJORANT_COLUMNS})
    write_json(paths["certificate.json"], {
        "schema_version": 2,
        "desingularizer": write_value(result.bundle.desingularizer,
                                      DESINGULARIZERS),
        "certificate_id": result.bundle.certificate_id,
    })
    result.report.to_json(paths["report.json"])
    result.config.to_json(paths["config.json"])
    return paths


def certify_run(run_path: str, certificate_path: str,
                out_path: Optional[str] = None) -> CertificationReport:
    """Re-check stored artifacts without re-running the method.

    The run is recomputed from its stored iterates, in the iterates.bin
    beside run.json, on the problem rebuilt from the instance.json and
    config.json beside it too.  Covers the trajectory checks, the same
    ones run_experiment makes; the sampling checks need live oracles, so
    they belong to run_experiment.
    """
    record = read_json(run_path)
    cert_doc = read_json(certificate_path)
    require(cert_doc, CERTIFICATE_FIELDS, "certificate", version=2,
            exact=True)
    require_type(cert_doc["certificate_id"], str, "certificate id")
    desing = read_value(cert_doc["desingularizer"], DESINGULARIZERS,
                        "certificate desingularizer")
    directory = os.path.dirname(run_path)
    gi = GeneratedInstance.from_json(os.path.join(directory, "instance.json"))
    config = ExperimentConfig.from_json(os.path.join(directory, "config.json"))
    method, steps = pipeline_settings(gi.family, config)
    problem = next(PIPELINES[gi.family][-1](gi, config, method))
    region, dimension = desing.region, len(problem.start)
    if isinstance(region, Ball) and region.dimension != dimension:
        raise ValueError(f"certificate region center is in dimension "
                         f"{region.dimension}, not the instance's {dimension}")
    run = DescentRun.from_metadata_dict(
        record, os.path.join(directory, "iterates.bin"), problem.composite,
        problem.start, problem.step, steps, min_value=problem.min_value)
    report = _trajectory_report(run, desing, os.path.basename(run_path),
                                cert_doc["certificate_id"])[1]
    if out_path is not None:
        report.to_json(out_path)
    return report


# ---------------------------------------------------------------------------
# step-size sweep
# ---------------------------------------------------------------------------


SWEEP_COLUMNS = ("relative_step", "q", "certified_steps", "empirical_steps")


def sweep_relative_step(config: ExperimentConfig, values: Sequence[float],
                        max_steps: int = 20000) -> list[dict]:
    """One row per relative step d: certified rate q(d), certified steps to
    halve the gap, and the first step k of the actual run with a gap of at
    most half the start's, or None.

    The certified q(d) = 1 + d (2 - d) gamma_R / ((d + 1)^2 L) peaks at
    d = 1/2 on any grid containing it.  Each run may take min(certified,
    max_steps) steps (max_steps at least one), and it stops at its first
    halved gap: it goes in chunks of 1, 2, 4, ... steps, each started from
    the last iterate of the one before, until a chunk holds a halved gap,
    ends converged or spends the budget.  A run has one step size, so
    each step depends only on the iterate before it and the chunks take the
    steps of one uncut run to the bit.  Every chunk goes through the
    l1-ball guard.  A rescaled growth constant or an overridden rate is
    refused: one q cannot hold across a grid of d.
    """
    if max_steps < 1:
        raise ValueError("need at least one step")
    rescaled = sorted(set(config.certificate) & set(RESCALING))
    if rescaled:
        raise ValueError("the sweep does not read certificate "
                         f"{', '.join(rescaled)}")
    gi = load_instance(config)
    if gi.family != "lasso":
        raise ValueError("the step-size sweep targets the l1 family")
    bundle = build_pipeline(gi, config)
    L = bundle.composite.lipschitz
    f0 = bundle.composite.value(bundle.start) - bundle.min_value
    eps = 0.5 * f0

    rows = []
    for d_rel in values:
        lam = step_over_lipschitz(d_rel, L)
        params = certificate_params(lam, L)
        # certificate.gamma is 2 gamma_R, so q has the bits of
        # 1 + 2 a gamma_R / b^2
        q = 1.0 + params.a * bundle.certificate.gamma / params.b ** 2
        certified = steps_to_epsilon(q, f0, eps)
        budget = min(certified, max_steps)
        empirical, done, chunk, x = None, 0, 1, bundle.start
        while done < budget:
            run = forward_backward(bundle.composite, x, lam,
                                   min(chunk, budget - done),
                                   min_value=bundle.min_value)
            bundle.guard(run)
            below = np.nonzero(run.gaps <= eps)[0]
            if below.size:
                empirical = done + int(below[0])
                break
            if run.converged:
                break
            done, chunk, x = done + run.num_steps, 2 * chunk, run.iterates[-1]
        rows.append({"relative_step": float(d_rel), "q": q,
                     "certified_steps": certified,
                     "empirical_steps": empirical})
    return rows


def write_sweep(path, rows: Sequence[dict]) -> None:
    write_table(path, SWEEP_COLUMNS, rows,
                {c: (0, [row[c] for row in rows]) for c in SWEEP_COLUMNS})


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


# the shipped experiment batteries; every battery finishes well under a
# minute.  The two broken-* presets are supposed to exit nonzero: they
# demonstrate that corrupted certificates are caught, not silently passed.
PRESETS = {
    "tiny-lasso": [
        {
            "name": "tiny-lasso",
            "instance": {"family": "lasso", "n": 2, "m": 3, "seed": 7},
            "method": {"name": "ista", "relative_step": 0.5, "steps": 400},
            "checks": {"samples": 2000, "seed": 11},
        },
    ],
    "feasibility": [
        {
            "name": "feasibility-barycentric",
            "instance": {"family": "feasibility", "dim": 2, "seed": 3},
            "method": {"name": "barycentric", "steps": 600},
            "checks": {"samples": 2000, "seed": 5},
        },
        {
            # Thin-lens geometry: the slow zigzag regime where the
            # certified alternating rate is actually informative.
            "name": "feasibility-alternating",
            "instance": {"family": "feasibility", "dim": 2, "seed": 3,
                         "geometry": "lens"},
            "method": {"name": "alternating", "steps": 600},
            "checks": {"samples": 2000, "seed": 6},
        },
    ],
    "uniformly-convex": [
        {
            "name": "uniformly-convex",
            "instance": {"family": "uniformly-convex", "n": 3, "seed": 5},
            "method": {"name": "gradient", "relative_step": 0.5, "steps": 300},
            "checks": {"samples": 2000, "seed": 7},
        },
    ],
    "tight-quadratic": [
        {
            "name": "tight-quadratic",
            "instance": {"family": "tight-quadratic", "dim": 2, "seed": 9},
            "method": {"steps": 50},
            "checks": {"samples": 2000, "seed": 13},
        },
    ],
    "broken-certificate": [
        {
            "name": "broken-certificate",
            "instance": {"family": "tight-quadratic", "dim": 2, "seed": 9},
            "method": {"steps": 50},
            "certificate": {"scale_gamma": 2.0},
            "checks": {"samples": 2000, "seed": 13},
        },
    ],
    "broken-rate": [
        {
            # Gradient descent at relative step 1/2 contracts the gap by
            # exactly 4 per step; a claimed rate of 6 is unachievable.
            "name": "broken-rate",
            "instance": {"family": "uniformly-convex", "n": 3, "seed": 5},
            "method": {"name": "gradient", "relative_step": 0.5, "steps": 300},
            "certificate": {"override_q": 6.0},
            "checks": {"samples": 2000, "seed": 7},
        },
    ],
}
PRESET_NAMES = tuple(PRESETS)


def preset_configs(name: str) -> list[ExperimentConfig]:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; "
                         f"available: {', '.join(sorted(PRESETS))}")
    # copies: a command may change a config's blocks
    return [ExperimentConfig.from_dict(copy.deepcopy(d))
            for d in PRESETS[name]]
