"""End-to-end pipelines, artifacts, presets, sweep, and the command line."""

import base64
import copy
import csv
import hashlib
import inspect
import json
import math
import os
import struct

import numpy as np
import pytest

import klcert.cli
import klcert.convex
import klcert.experiments
from klcert.cli import main
from klcert.descent import (
    RUN_FIELDS,
    DescentRun,
    StepSchedule,
    certificate_params,
    forward_backward,
)
from klcert.desingularization import DESINGULARIZERS, PowerDesingularizer
from klcert.experiments import (
    CERTIFICATE_FIELDS,
    PRESET_NAMES,
    SWEEP_COLUMNS,
    ExperimentConfig,
    build_pipeline,
    certify_run,
    load_instance,
    majorant_from_rate,
    preset_configs,
    run_experiment,
    sweep_relative_step,
    write_sweep,
)
from klcert.majorant import steps_to_epsilon
from klcert.problems import (
    FAMILIES,
    INSTANCE_FIELDS,
    PAYLOADS,
    generate_instance,
    generator_parameters,
)
from klcert.tracefmt import TRACE_COLUMNS, write_value

GOOD_PRESETS = ("tiny-lasso", "feasibility", "uniformly-convex",
                "tight-quadratic")


def _failed_names(report):
    return sorted(c.name for c in report.checks if c.status == "fail")


def _stored_iterates(doc: dict) -> np.ndarray:
    """A run.json record's iterates, decoded as README shows."""
    raw = base64.b64decode(doc["iterates"], validate=True)
    return np.frombuffer(raw, "<f8").reshape(-1, doc["dimension"])


def _encoded(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _read_trace(path):
    """trace.csv rows by column name: a float per cell, None when empty."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        return [{k: None if v == "" else float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# configs and presets
# ---------------------------------------------------------------------------


def test_preset_names_are_buildable():
    assert set(GOOD_PRESETS) <= set(PRESET_NAMES)
    for name in PRESET_NAMES:
        configs = preset_configs(name)
        assert configs and all(isinstance(c, ExperimentConfig) for c in configs)
    with pytest.raises(ValueError):
        preset_configs("typo")


def test_config_round_trip(tmp_path):
    cfg = preset_configs("tiny-lasso")[0]
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    back = ExperimentConfig.from_json(path)
    assert back.to_dict() == cfg.to_dict()
    with pytest.raises(ValueError):
        ExperimentConfig(instance={})  # neither path nor family
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"instance": {"family": "lasso"},
                                    "schema_version": 2})


def test_load_instance_from_path_and_family(tmp_path):
    cfg = ExperimentConfig(instance={"family": "lasso", "seed": 7, "n": 2})
    gi = load_instance(cfg)
    path = tmp_path / "inst.json"
    gi.to_json(path)
    again = load_instance(ExperimentConfig(instance={"path": str(path)}))
    assert again.payload == gi.payload


# ---------------------------------------------------------------------------
# experiment outcomes per preset
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", GOOD_PRESETS)
def test_shipped_presets_certify(name):
    for cfg in preset_configs(name):
        result = run_experiment(cfg)
        assert result.passed, (cfg.name, _failed_names(result.report))
        assert result.majorant.num_steps == result.run.num_steps


def test_broken_certificate_flips_sampling_checks():
    cfg = preset_configs("broken-certificate")[0]
    result = run_experiment(cfg)
    assert not result.passed
    assert _failed_names(result.report) == ["error-bound-sampling",
                                            "kl-sampling"]
    assert "*scaled(" in result.report.certificate_id


def test_broken_rate_flips_trajectory_checks():
    cfg = preset_configs("broken-rate")[0]
    result = run_experiment(cfg)
    assert not result.passed
    assert _failed_names(result.report) == ["distance-bound", "majorization"]
    assert "*q=" in result.report.certificate_id


def test_rate_override_majorant_shape():
    d = PowerDesingularizer(scale=2.0, exponent=2.0)
    from klcert.descent import DescentCertificateParams

    params = DescentCertificateParams(a=0.5, b=2.0)
    maj = majorant_from_rate(d, q=2.0, f0=1.0, params=params, steps=4)
    np.testing.assert_allclose(maj.psi_values,
                               [1.0, 0.5, 0.25, 0.125, 0.0625], rtol=1e-14)
    with pytest.raises(ValueError):
        majorant_from_rate(d, q=1.0, f0=1.0, params=params, steps=4)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


ARTIFACTS = ("instance.json", "run.json", "trace.csv", "majorant.csv",
             "certificate.json", "report.json", "config.json")


def _hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_artifacts_are_complete_and_byte_stable(tmp_path, name):
    for cfg in preset_configs(name):
        d1, d2 = tmp_path / cfg.name / "a", tmp_path / cfg.name / "b"
        run_experiment(cfg, out_dir=str(d1))
        run_experiment(cfg, out_dir=str(d2))
        assert sorted(os.listdir(d1)) == sorted(ARTIFACTS)
        assert _hash_dir(d1) == _hash_dir(d2)
        # the five JSON artifacts and certify's report are each in
        # write_json's layout
        certified = tmp_path / cfg.name / "certify" / "report.json"
        assert main(["certify", "--run", str(d1 / "run.json"),
                     "--certificate", str(d1 / "certificate.json"),
                     "--out", str(certified)]) in (0, 1)
        written = [*sorted(d1.glob("*.json")), *certified.parent.iterdir()]
        assert len(written) == 6 and written[-1] == certified
        for path in written:
            text = path.read_text(encoding="ascii")
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      indent=2) + "\n", path


def _int64_view(X):
    return np.asarray(X, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_json_holds_the_iterates_bit_for_bit(tmp_path, name):
    for cfg in preset_configs(name):
        run = run_experiment(cfg, out_dir=str(tmp_path / cfg.name)).run
        doc = json.loads((tmp_path / cfg.name / "run.json").read_text())
        assert sorted(doc) == sorted(RUN_FIELDS)
        assert (doc["schema_version"], doc["dimension"]) == (
            3, run.iterates.shape[1])
        np.testing.assert_array_equal(_int64_view(_stored_iterates(doc)),
                                      _int64_view(run.iterates))


def test_long_run_json_is_bit_exact_and_compact(tmp_path):
    # a 5000-step run in dimension 3, as long-trajectory in perfbench runs
    cfg = ExperimentConfig(
        name="long", instance={"family": "uniformly-convex", "n": 3,
                               "seed": 5},
        method={"name": "gradient", "relative_step": 0.005, "steps": 5000},
        checks={"samples": 50, "seed": 7})
    result = run_experiment(cfg, out_dir=str(tmp_path))
    run, bundle, path = result.run, result.bundle, tmp_path / "run.json"
    assert run.iterates.shape == (5001, 3)
    doc = json.loads(path.read_text())
    np.testing.assert_array_equal(_int64_view(_stored_iterates(doc)),
                                  _int64_view(run.iterates))
    back = DescentRun.from_metadata_dict(doc, bundle.composite, bundle.start,
                                         bundle.schedule, 5000)
    np.testing.assert_array_equal(_int64_view(back.iterates),
                                  _int64_view(run.iterates))
    # base64 takes 4/3 byte per byte of float64, and the keys about 60
    # bytes; number text needs about 20 bytes per coordinate, not 32/3
    assert path.stat().st_size < 8 * 3 * 5001 * 4 / 3 + 200


def test_trace_csv_format(tmp_path):
    cfg = preset_configs("tiny-lasso")[0]
    run_experiment(cfg, out_dir=str(tmp_path))
    raw = (tmp_path / "trace.csv").read_bytes()
    lines = raw.split(b"\r\n")
    assert raw.endswith(b"\r\n")
    assert b"\n" not in raw.replace(b"\r\n", b"")  # CRLF only
    assert lines[0].decode("ascii") == ",".join(TRACE_COLUMNS)
    cell = lines[1].decode("ascii").split(",")[1]  # value_gap at k = 0
    assert "," not in cell and float(cell) > 0
    # 17 significant digits survive a parse round trip
    assert f"{float(cell):.17g}" == cell

    rows = _read_trace(tmp_path / "trace.csv")
    assert rows[0]["k"] == 0 and rows[0]["value_gap"] is not None
    assert rows[1]["distance_bound"] is not None


def test_certificate_artifact_contents(tmp_path):
    cfg = preset_configs("uniformly-convex")[0]
    result = run_experiment(cfg, out_dir=str(tmp_path))
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert set(doc) == {"schema_version", "desingularizer", "certificate_id"}
    assert doc["schema_version"] == 2
    assert doc["desingularizer"] == write_value(result.bundle.desingularizer,
                                                DESINGULARIZERS)
    assert doc["certificate_id"] == result.bundle.certificate_id
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 5


def test_certify_run_round_trip(tmp_path):
    cfg = preset_configs("uniformly-convex")[0]
    run_experiment(cfg, out_dir=str(tmp_path))
    report = certify_run(str(tmp_path / "run.json"),
                         str(tmp_path / "certificate.json"),
                         out_path=str(tmp_path / "recheck.json"))
    assert report.passed
    assert [c.name for c in report.checks] == [
        "majorization", "distance-bound", "prox-step-domination"]
    assert json.loads((tmp_path / "recheck.json").read_text())["passed"]


def test_certify_run_rejects_tampered_certificate(tmp_path):
    cfg = preset_configs("uniformly-convex")[0]
    run_experiment(cfg, out_dir=str(tmp_path))
    doc = json.loads((tmp_path / "certificate.json").read_text())
    # claim 100x faster growth than the instance has
    doc["desingularizer"]["scale"] /= 10.0
    doc["desingularizer"]["ell"] = None
    (tmp_path / "certificate.json").write_text(json.dumps(doc))
    report = certify_run(str(tmp_path / "run.json"),
                         str(tmp_path / "certificate.json"))
    assert not report.passed


# the files certify reads; run.json, certificate.json and the two beside
# run.json from which it rebuilds the problem
CERTIFY_READS = ("run.json", "certificate.json", "instance.json",
                 "config.json")


@pytest.fixture(scope="module")
def stored_artifacts(tmp_path_factory):
    """The files certify reads of a passing run, as parsed JSON, and the
    fields run.json and certificate.json held at schema 1, with the values
    the run has."""
    out = tmp_path_factory.mktemp("stored")
    result = run_experiment(preset_configs("uniformly-convex")[0],
                            out_dir=str(out))
    run = result.run
    assert run.converged
    assert certify_run(str(out / "run.json"),
                       str(out / "certificate.json")).passed
    docs = {name: json.loads((out / name).read_text())
            for name in CERTIFY_READS}
    docs["legacy"] = {
        "method": "gradient", "a": run.params.a, "b": run.params.b,
        "min_value": run.min_value, "converged": run.converged,
        "num_steps": run.num_steps,
        "step_sizes": np.broadcast_to(result.bundle.schedule.sizes(
            run.num_steps), run.num_steps).tolist(),
        "step_norms": run.step_norms.tolist(),
        "witness_norms": run.witness_norms.tolist(),
        "raw_values": np.where(np.isinf(run.raw_values), None,
                               run.raw_values).tolist()}
    cert, maj = result.bundle.certificate, result.majorant
    docs["legacy-certificate"] = {
        "residual": {"form": cert.form, "p": cert.p, "gamma": cert.gamma,
                     "gamma0": None, "r0": None, "region": None},
        "constants": {"modulus": cert.gamma, "relative_step": 0.5,
                      "lipschitz": result.bundle.composite.lipschitz},
        "zeta": maj.zeta, "q": maj.closed_form.q}
    return docs


# the fields run.json held at schema 1, all derived from the iterates;
# their cases write them beside the iterates of a schema-3 record, and
# certify refuses them as unknown keys instead of leaving stale values
# unchecked beside the recomputed run
LEGACY_FIELDS = ("method", "a", "b", "min_value", "converged", "num_steps",
                 "step_sizes", "step_norms", "witness_norms", "raw_values")
# the fields certificate.json held at schema 1 that certify never read, all
# computed from the desingularizer and the step constants; refused likewise
LEGACY_CERTIFICATE_FIELDS = ("residual", "constants", "zeta", "q")
RUN_ARRAYS = ("iterates", "raw_values", "step_norms", "witness_norms",
              "step_sizes")
# certificate.json records whose refusal names a key: an unknown key in
# the desingularizer, its region and a globalized record's base, an unknown
# region kind or desingularizer form, a region without one of its keys, a
# region or desingularizer that is not an object, a null region (every
# region is an object, the whole space included), a metric-ball center
# shorter or longer than the instance's dimension, and an exponent whose
# power of the scale overflows a float
NAMED_MALFORMED = (
    [("certificate.json", "extra-" + where, "bogus")
     for where in ("desingularizer", "region", "base")]
    + [("certificate.json", "unknown-region", "kind"),
       ("certificate.json", "unknown-form", "form")]
    + [("certificate.json", "drop-region", key)
       for key in ("kind", "radius", "center")]
    + [("certificate.json", "list", key)
       for key in ("region", "desingularizer")]
    + [("certificate.json", "null-nested", "region")]
    + [("certificate.json", edit, "center") for edit in ("short", "long")]
    + [("certificate.json", "overflow", "exponent")]
)
# run.json records whose refusal names a key: a missing or an extra key,
# a dimension that is not an int (a string, a null, a bool or 3.0) or not
# the problem's, and iterates that are not one string of strict base64 of
# one or more float64 points: null, a list (schema 2's form under schema
# 3), empty text, text and bytes that ITERATE_TEXT_EDITS break
RUN_NAMED_MALFORMED = (
    [("run.json", "drop", key) for key in ("dimension", "iterates")]
    + [("run.json", "extra", "bogus")]
    + [("run.json", edit, "dimension")
       for edit in ("string", "null", "bool", "float", "plus-one",
                    "minus-one")]
    + [("run.json", edit, "iterates")
       for edit in ("null", "as-list", "empty", "byte-short", "byte-long",
                    "short-row", "pad-extra", "pad-inside", "whitespace",
                    "non-ascii")]
)
MALFORMED = (
    [("run.json", "drop", key) for key in ("schema_version",) + LEGACY_FIELDS]
    + [("run.json", "truncate", key) for key in RUN_ARRAYS]
    + [("run.json", "version", "schema_version"),
       ("run.json", "schema-2", "schema_version")]
    + [("certificate.json", "drop", key)
       for key in CERTIFICATE_FIELDS + LEGACY_CERTIFICATE_FIELDS]
    + [("certificate.json", "version", "schema_version"),
       ("certificate.json", "schema-1", "schema_version"),
       ("certificate.json", "stale", "q")]
    + [("certificate.json", "drop-nested", key)
       for key in ("form", "scale", "exponent", "r0", "ell", "region")]
    + [("run.json", "nan", key) for key in RUN_ARRAYS + ("a", "b", "min_value")]
    + [("run.json", "inf", key)
       for key in ("iterates", "step_norms", "witness_norms", "step_sizes",
                   "a", "b", "min_value")]
    + [("run.json", "-inf", key) for key in ("raw_values", "iterates")]
    + [("run.json", "all-nan", "raw_values")]
    + [("run.json", "string", key)
       for key in ("converged", "num_steps", "a", "b", "min_value")]
    + [("run.json", "bool", key)
       for key in ("num_steps", "a", "b", "min_value")]
    + [("run.json", "number", key) for key in ("method", "converged")]
    + [("run.json", "fraction", "num_steps")]
    # the stored arrays as a string or a null: for the iterates, the
    # list form's JSON text, which is not base64, and null (named)
    + [("run.json", edit, key) for edit in ("string", "null")
       for key in RUN_ARRAYS
       if (edit, key) not in (("null", "raw_values"), ("null", "iterates"))]
    + [("certificate.json", "number", "certificate_id")]
    + [("certificate.json", edit + "-nested", key)
       for edit in ("string", "bool", "nan", "inf")
       for key in ("scale", "exponent", "r0", "ell")
       if (edit, key) != ("inf", "r0")]
    + [("certificate.json", edit + "-region", key)
       for edit in ("string", "nan") for key in ("radius", "center")]
    + NAMED_MALFORMED
    + RUN_NAMED_MALFORMED
    # iterates that are not the method's steps: one bit off at the start,
    # in the middle or at the end, two steps swapped, the last one stored
    # twice (truncate drops it from this converged run)
    + [("run.json", edit, "iterates")
       for edit in ("flip-first", "flip-middle", "flip-last", "swap",
                    "repeat-last")]
    + [("run.json", "schema-1", "schema_version"),
       ("run.json", "legacy", "fields")]
    # the problem rebuilt from the files beside run.json is another one,
    # or cannot be rebuilt
    + [("config.json", "relative_step", "method"),
       ("config.json", "steps", "method"),
       ("instance.json", "missing", "file"), ("config.json", "missing", "file")]
)
# each edit of one stored value, as a function of the value it replaces
EDITS = {"nan": lambda v: math.nan, "inf": lambda v: math.inf,
         "-inf": lambda v: -math.inf, "string": str, "bool": lambda v: True,
         "number": lambda v: 5, "fraction": lambda v: v + 0.7,
         "null": lambda v: None, "float": float,
         "plus-one": lambda v: v + 1, "minus-one": lambda v: v - 1}
# each edit of run.json's iterates text that makes it other than the one
# strict base64 text of whole float64 points: no bytes, a byte short or
# long, one coordinate short of a point, padding where the bytes need
# none, padding inside the text, MIME line breaks and a non-ASCII digit
ITERATE_TEXT_EDITS = {
    "empty": lambda text: "",
    "byte-short": lambda text: _encoded(base64.b64decode(text)[:-1]),
    "byte-long": lambda text: _encoded(base64.b64decode(text) + b"\0"),
    "short-row": lambda text: _encoded(base64.b64decode(text)[:-8]),
    "pad-extra": lambda text: text + "==",
    "pad-inside": lambda text: text[:4] + "=" + text[4:],
    "whitespace": lambda text: base64.encodebytes(
        base64.b64decode(text)).decode("ascii"),
    "non-ascii": lambda text: text[:-1] + "\u00e9",
}
# edits of the decoded iterates, re-encoded after the edit
ITERATE_ROW_EDITS = ("truncate", "nan", "inf", "-inf", "flip-first",
                     "flip-middle", "flip-last", "swap", "repeat-last")


def _flip_last_bit(v: float) -> float:
    bits = struct.unpack("<q", struct.pack("<d", v))[0] ^ 1
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@pytest.mark.parametrize("artifact,edit,key", [
    pytest.param(*case, id="-".join(case)) for case in MALFORMED])
def test_certify_rejects_malformed_artifacts(stored_artifacts, tmp_path,
                                             capsys, artifact, edit, key):
    docs = copy.deepcopy(stored_artifacts)
    legacy = docs.pop("legacy")
    legacy_certificate = docs.pop("legacy-certificate")
    doc = docs[artifact]
    if artifact == "run.json" and (key in LEGACY_FIELDS or edit == "legacy"):
        doc.update(legacy)
    rows_edited = artifact == "run.json" and key == "iterates" and (
        edit in ITERATE_ROW_EDITS)
    if rows_edited:
        doc[key] = _stored_iterates(doc).tolist()
    if artifact == "certificate.json" and (
            key in LEGACY_CERTIFICATE_FIELDS or edit == "schema-1"):
        # a schema-1 record, or a schema-2 one with all stale fields but key
        doc.update(legacy_certificate)
    if edit == "drop":
        del doc[key]
    elif edit == "missing":
        del docs[artifact]
    elif edit == "drop-nested":
        del doc["desingularizer"][key]
    elif edit == "truncate":
        doc[key] = doc[key][:-1]
    elif edit == "all-nan":
        doc[key] = [math.nan] * len(doc[key])
    elif edit.startswith("flip-"):
        at = {"first": 0, "middle": len(doc[key]) // 2, "last": -1}
        row = doc[key][at[edit[5:]]]
        row[-1] = _flip_last_bit(row[-1])
    elif edit == "swap":
        doc[key][1], doc[key][2] = doc[key][2], doc[key][1]
    elif edit == "repeat-last":
        doc[key].append(doc[key][-1])
    elif edit == "schema-1":
        doc[key] = 1
    elif edit == "schema-2":
        # the list form run.json held at schema 2
        docs[artifact] = {"schema_version": 2,
                          "iterates": _stored_iterates(doc).tolist()}
    elif edit == "as-list":
        doc[key] = _stored_iterates(doc).tolist()
    elif edit == "extra":
        doc[key] = 1
    elif edit in ITERATE_TEXT_EDITS:
        doc[key] = ITERATE_TEXT_EDITS[edit](doc[key])
    elif (edit, key) == ("string", "iterates"):
        doc[key] = json.dumps(_stored_iterates(doc).tolist())
    elif edit == "stale":
        doc[key] = 2.0
    elif edit == "relative_step":
        doc[key][edit] = 0.4
    elif edit == "steps":
        doc[key][edit] = 10
    elif edit.endswith("-nested"):
        nested = doc["desingularizer"]
        nested[key] = EDITS[edit.rsplit("-", 1)[0]](nested[key])
    elif edit == "extra-desingularizer":
        doc["desingularizer"]["bogus"] = 1
    elif edit == "overflow":
        # scale ** exponent is beyond the range of a float
        doc["desingularizer"].update(exponent=1e6, r0=4.0, ell=None)
    elif edit == "unknown-form":
        doc["desingularizer"]["form"] = "spline"
    elif edit == "extra-base":
        doc["desingularizer"] = {"form": "globalized", "junction": 1.0,
                                 "base": dict(doc["desingularizer"], bogus=1)}
    elif edit == "list":
        nested = doc["desingularizer"]
        if key == "region":
            nested[key] = [{"kind": "whole-space"}]
        else:
            doc[key] = [nested]
    elif edit.endswith("-region") or key == "center":
        # a metric ball in the stored run's dimension, 3, edited
        region = {"kind": "metric-ball", "center": [0.0, 0.5, 0.0],
                  "radius": 1.0}
        if edit == "extra-region":
            region["bogus"] = 1
        elif edit == "unknown-region":
            region["kind"] = "hexagon"
        elif edit == "drop-region":
            del region[key]
        elif edit == "short":
            region["center"] = [0.0]
        elif edit == "long":
            region["center"] = [0.0, 0.5, 0.0, 0.0]
        elif key == "radius":
            # a region of either kind that holds numbers
            region = {"kind": "l1-ball",
                      "radius": EDITS[edit.rsplit("-", 1)[0]](0.5)}
        else:
            region["center"][1] = EDITS[edit.rsplit("-", 1)[0]](0.5)
        doc["desingularizer"]["region"] = region
    elif edit in EDITS and isinstance(doc[key], list):
        # the last entry; the last coordinate of the last iterate
        row = doc[key][-1] if key == "iterates" else doc[key]
        row[-1] = EDITS[edit](row[-1])
    elif edit in EDITS:
        doc[key] = EDITS[edit](doc[key])
    elif edit == "version":
        doc[key] += 1
    if rows_edited:
        doc[key] = _encoded(np.array(doc[key], dtype="<f8").tobytes())
    for name, content in docs.items():
        (tmp_path / name).write_text(json.dumps(content))
    code = main(["certify", "--run", str(tmp_path / "run.json"),
                 "--certificate", str(tmp_path / "certificate.json")])
    assert code == 2
    named = key if (artifact, edit, key) in (
        NAMED_MALFORMED + RUN_NAMED_MALFORMED) else ""
    _one_error_line(capsys.readouterr().err, named)


def _bits(checks) -> str:
    """checks as JSON text, in which every float is written by repr: equal
    texts mean equal checks, bit for bit in the worst values."""
    return json.dumps([c.to_dict() for c in checks])


# presets whose certify report is known to differ from run's trajectory
# checks, and why
CERTIFY_DISAGREES = {
    "uniformly-convex": (
        "certify passes no x*, so its distance-bound check measures against "
        "the last iterate, not the stored minimizer: worst "
        "-0.02617260455635073 against run's -0.026172604556350575 "
        "(ROADMAP item 1 (e))"),
    "broken-certificate": (
        "certificate.json stores the unscaled desingularizer, not the one "
        "scale_gamma gave the run (ROADMAP item 1 (a))"),
    "broken-rate": (
        "certificate.json does not store override_q, so certify checks the "
        "worst-case sequence, not the overridden rate (ROADMAP item 1 (a))"),
}


@pytest.mark.parametrize("name,index", [
    pytest.param(name, index, id=cfg.name, marks=[
        pytest.mark.xfail(strict=True, reason=CERTIFY_DISAGREES[cfg.name])
    ] if cfg.name in CERTIFY_DISAGREES else [])
    for name in PRESET_NAMES
    for index, cfg in enumerate(preset_configs(name))])
def test_certify_matches_run_trajectory_checks(tmp_path, name, index):
    result = run_experiment(preset_configs(name)[index], out_dir=str(tmp_path))
    report = certify_run(str(tmp_path / "run.json"),
                         str(tmp_path / "certificate.json"))
    assert _bits(report.checks) == _bits(result.report.checks[:3])


def test_certify_writes_its_report_into_a_missing_directory(tmp_path):
    assert main(["run", "--preset", "tiny-lasso", "--out", str(tmp_path)]) == 0
    stored = tmp_path / "tiny-lasso"
    out = tmp_path / "fresh" / "deeper" / "report.json"
    assert main(["certify", "--run", str(stored / "run.json"),
                 "--certificate", str(stored / "certificate.json"),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True
    assert os.listdir(out.parent) == ["report.json"]


def test_certify_builds_no_certificate(tmp_path, monkeypatch):
    # certify rebuilds the problem alone: no Hoffman constant is computed
    assert main(["run", "--preset", "tiny-lasso", "--out", str(tmp_path)]) == 0

    def refuse(*args, **kwargs):
        raise RuntimeError("certify computed a Hoffman constant")

    monkeypatch.setattr(klcert.experiments, "lasso_nu", refuse)
    stored = tmp_path / "tiny-lasso"
    assert main(["certify", "--run", str(stored / "run.json"),
                 "--certificate", str(stored / "certificate.json")]) == 0


@pytest.fixture(scope="module")
def stored_instances(tmp_path_factory):
    """instance.json of every family, as parsed JSON."""
    out = tmp_path_factory.mktemp("instances")
    docs = {}
    for family in FAMILIES:
        generate_instance(family, seed=3).to_json(out / "instance.json")
        docs[family] = json.loads((out / "instance.json").read_text())
    return docs


def _run_stored_instance(tmp_path, instance: dict, config: dict) -> int:
    (tmp_path / "instance.json").write_text(json.dumps(instance))
    config = dict(config, instance={"path": str(tmp_path / "instance.json")})
    (tmp_path / "config.json").write_text(json.dumps(config))
    return main(["run", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")])


SMALL_RUN = {"name": "stored", "method": {"steps": 5},
             "checks": {"samples": 10}}
MALFORMED_INSTANCES = (
    [("lasso", "drop", key) for key in ("schema_version",) + INSTANCE_FIELDS]
    + [(family, "drop-payload", key)
       for family, keys in PAYLOADS.items() for key in keys]
    + [("feasibility", "drop-nested", "kind")]
)


@pytest.mark.parametrize("family", FAMILIES)
def test_run_accepts_stored_instances(stored_instances, tmp_path, family):
    assert _run_stored_instance(tmp_path, stored_instances[family],
                                SMALL_RUN) == 0


@pytest.mark.parametrize("family,edit,key", [
    pytest.param(*case, id="-".join(case)) for case in MALFORMED_INSTANCES])
def test_run_rejects_malformed_instances(stored_instances, tmp_path, capsys,
                                         family, edit, key):
    doc = copy.deepcopy(stored_instances[family])
    if edit == "drop":
        del doc[key]
    elif edit == "drop-payload":
        del doc["payload"][key]
    else:
        del doc["payload"]["sets"][0][key]
    assert _run_stored_instance(tmp_path, doc, SMALL_RUN) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_config_without_instance(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_RUN))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "lacks instance" in capsys.readouterr().err


def test_run_rejects_a_nested_intersection(stored_instances, tmp_path,
                                           capsys):
    # a set record is a ball or a halfspace, so an intersection is refused
    # as a kind, with any other
    doc = copy.deepcopy(stored_instances["feasibility"])
    sets = doc["payload"]["sets"]
    sets[0] = {"kind": "intersection", "sets": [sets[0], sets[1]]}
    assert _run_stored_instance(tmp_path, doc, SMALL_RUN) == 2
    assert "unknown kind 'intersection'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def stored_runs(tmp_path_factory):
    """The directory of a short passing run of each family, by family; the
    feasibility instance is a lens, whose sets are both balls."""
    out = tmp_path_factory.mktemp("runs")
    dims = {"lasso": {"n": 2, "m": 3}, "feasibility": {"geometry": "lens"}}
    for family in FAMILIES:
        config = ExperimentConfig(
            instance={"family": family, "seed": 3, **dims.get(family, {})},
            method={"steps": 5}, checks={"samples": 10})
        run_experiment(config, out_dir=str(out / family))
        stored = out / family / "run.json"
        assert certify_run(str(stored),
                           str(out / family / "certificate.json")).passed
    return out


def _set_payload(**values):
    return lambda doc: doc["payload"].update(values)


# instance.json edits that run and certify refuse alike, with one error
# line naming the key: (family, edit of the parsed record, key named)
TAMPERED_INSTANCES = {
    "mu-string": ("lasso", _set_payload(mu="0.5"), "payload mu"),
    "mu-null": ("lasso", _set_payload(mu=None), "payload mu"),
    "A-entry-string": ("lasso", lambda doc: doc["payload"]["A"][0].__setitem__(
        0, "0.5"), "payload A[0][0]"),
    "A-ragged": ("lasso", lambda doc: doc["payload"]["A"][1].pop(),
                 "payload A"),
    "A-not-a-list": ("lasso", _set_payload(A=1.0), "payload A"),
    "radius-string": ("feasibility", lambda doc: doc["payload"]["sets"][0]
                      .update(radius="1.5"), "payload sets[0] radius"),
    "radius-infinity": ("feasibility", lambda doc: doc["payload"]["sets"][0]
                        .update(radius=math.inf),
                        "payload sets[0] radius is not finite"),
    # a set of another dimension than xbar's would broadcast, or end in a
    # NumPy error
    "center-too-short": ("feasibility", lambda doc: doc["payload"]["sets"][0]
                         .update(center=doc["payload"]["sets"][0]["center"]
                                 [:1]), "sets[0] is a ball in dimension 1"),
    "center-too-long": ("feasibility", lambda doc: doc["payload"]["sets"][1]
                        ["center"].append(0.0),
                        "sets[1] is a ball in dimension 3"),
    "R-bool": ("feasibility", _set_payload(R=True), "payload R"),
    "weight-nan": ("uniformly-convex", _set_payload(weight=math.nan),
                   "payload weight is not finite"),
    "x0-entry-null": ("tight-quadratic", lambda doc: doc["payload"]["x0"]
                      .__setitem__(0, None), "payload x0[0]"),
    "unknown-top-level-key": ("lasso", lambda doc: doc.update(bogus=1),
                              "bogus"),
    # keys that no pipeline reads, which schema 1 held
    "lasso-grid-certified": ("lasso", _set_payload(grid_certified=True),
                             "grid_certified"),
    "uniformly-convex-min-value": ("uniformly-convex",
                                   _set_payload(min_value=0.0), "min_value"),
    "tight-quadratic-growth-constant": (
        "tight-quadratic", _set_payload(growth_constant=1.0),
        "growth_constant"),
    "unknown-set-key": ("feasibility", lambda doc: doc["payload"]["sets"][1]
                        .update(bogus=1), "sets[1] record has unknown keys"),
    "affine-set": ("feasibility", lambda doc: doc["payload"]["sets"]
                   .__setitem__(0, {"kind": "affine", "matrix": [[1.0, 0.0]],
                                    "rhs": [0.0]}), "sets[0]"),
    "schema-1": ("lasso", lambda doc: doc.update(schema_version=1),
                 "schema version"),
}


def _tampered_instance(stored_runs, tmp_path, case) -> str:
    """A copy of the stored run of the case's family, its instance.json
    edited; the key the refusal must name."""
    family, edit, named = TAMPERED_INSTANCES[case]
    for name in CERTIFY_READS:
        doc = json.loads((stored_runs / family / name).read_text())
        if name == "instance.json":
            edit(doc)
        (tmp_path / name).write_text(json.dumps(doc))
    return named


def _one_error_line(err: str, named: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err


@pytest.mark.parametrize("case", TAMPERED_INSTANCES)
def test_run_refuses_tampered_instance_json(stored_runs, tmp_path, capsys,
                                            monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(klcert.experiments, "forward_backward", refuse)
    named = _tampered_instance(stored_runs, tmp_path, case)
    doc = json.loads((tmp_path / "instance.json").read_text())
    assert _run_stored_instance(tmp_path, doc, SMALL_RUN) == 2
    _one_error_line(capsys.readouterr().err, named)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", TAMPERED_INSTANCES)
def test_certify_refuses_tampered_instance_json(stored_runs, tmp_path, capsys,
                                                case):
    named = _tampered_instance(stored_runs, tmp_path, case)
    assert main(["certify", "--run", str(tmp_path / "run.json"),
                 "--certificate", str(tmp_path / "certificate.json")]) == 2
    _one_error_line(capsys.readouterr().err, named)


def test_run_reports_unconverged_projection(tmp_path, capsys, monkeypatch):
    # the feasibility preset's error-bound check projects onto the
    # intersection; one Dykstra cycle is not enough for its samples
    real = klcert.convex.dykstra_projection
    monkeypatch.setattr(klcert.convex, "dykstra_projection",
                        lambda sets, x: real(sets, x, max_cycles=1))
    assert main(["run", "--preset", "feasibility", "--out",
                 str(tmp_path)]) == 2
    assert "did not converge" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the step-size sweep
# ---------------------------------------------------------------------------


def test_sweep_certifies_fastest_rate_at_half(tmp_path):
    cfg = preset_configs("tiny-lasso")[0]
    values = [0.1, 0.3, 0.5, 0.7, 1.0, 1.5]
    rows = sweep_relative_step(cfg, values, max_steps=50)
    assert [r["relative_step"] for r in rows] == values
    assert all(set(SWEEP_COLUMNS) <= set(r) for r in rows)
    qs = [r["q"] for r in rows]
    assert values[int(np.argmax(qs))] == 0.5
    assert all(r["certified_steps"] >= 1 for r in rows)

    path = tmp_path / "sweep.csv"
    write_sweep(path, rows)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0].decode("ascii") == ",".join(SWEEP_COLUMNS)
    assert len(lines) == len(values) + 2  # header + rows + trailing CRLF


def _uncut_sweep_rows(config, values, max_steps):
    """The sweep's rows from one uncut run of min(certified, max_steps)
    steps per d, and the first index of that run with a halved gap."""
    bundle = build_pipeline(load_instance(config), config)
    L = bundle.composite.lipschitz
    f0 = bundle.composite.value(bundle.start) - bundle.min_value
    rows = []
    for d_rel in values:
        schedule = StepSchedule.over_lipschitz(d_rel, L)
        params = certificate_params(schedule, L)
        gamma_R = bundle.certificate.gamma / 2.0
        q = 1.0 + 2.0 * params.a * gamma_R / params.b ** 2
        certified = steps_to_epsilon(q, f0, 0.5 * f0)
        run = forward_backward(bundle.composite, bundle.start, schedule,
                               min(certified, max_steps),
                               min_value=bundle.min_value)
        below = np.nonzero(run.gaps <= 0.5 * f0)[0]
        rows.append({"relative_step": float(d_rel), "q": q,
                     "certified_steps": certified,
                     "empirical_steps": int(below[0]) if below.size else None})
    return rows


def test_sweep_rows_match_single_runs(tmp_path):
    # tiny-lasso and lasso-fleet's instances, each generated once
    instances = [("tiny-lasso", preset_configs("tiny-lasso")[0].instance)]
    instances += [(f"lasso-{400 + i}", {"family": "lasso", "n": 2 + i % 2,
                                        "seed": 400 + i}) for i in range(20)]
    grid = [round(0.1 * i, 1) for i in range(1, 20)]
    unreached = 0
    for label, instance in instances:
        path = str(tmp_path / f"{label}.json")
        load_instance(ExperimentConfig(instance=instance)).to_json(path)
        config = ExperimentConfig(instance={"path": path})
        # caps of 2, 50 and 20000 end inside a chunk of 1, 2, 4, ... steps
        for max_steps in (1, 2, 3, 50, 20000):
            rows = sweep_relative_step(config, grid, max_steps=max_steps)
            assert rows == _uncut_sweep_rows(config, grid, max_steps), (
                label, max_steps)
            unreached += sum(r["empirical_steps"] is None for r in rows)
    assert unreached > 0


def test_l1_ball_guard_trips_on_the_run_and_sweep_paths(monkeypatch):
    real = klcert.experiments.forward_backward

    def escaping(*args, **kwargs):
        run = real(*args, **kwargs)
        run.iterates[-1] += 1e6
        return run

    monkeypatch.setattr(klcert.experiments, "forward_backward", escaping)
    cfg = preset_configs("tiny-lasso")[0]
    cfg.checks["samples"] = 10
    with pytest.raises(RuntimeError, match="escaped the l1 ball"):
        run_experiment(cfg)
    with pytest.raises(RuntimeError, match="escaped the l1 ball"):
        sweep_relative_step(cfg, [0.5], max_steps=5)

    # an escape in a later chunk of a row: lasso seed 400 at d = 0.2 first
    # halves its gap at step 2, in the row's second forward_backward call
    calls = []

    def escaping_second(*args, **kwargs):
        run = real(*args, **kwargs)
        calls.append(run)
        if len(calls) == 2:
            run.iterates[-1] += 1e6
        return run

    monkeypatch.setattr(klcert.experiments, "forward_backward",
                        escaping_second)
    cfg = ExperimentConfig(instance={"family": "lasso", "n": 2, "seed": 400})
    with pytest.raises(RuntimeError, match="escaped the l1 ball"):
        sweep_relative_step(cfg, [0.2])
    assert len(calls) == 2


def test_sweep_rejects_other_families():
    cfg = preset_configs("uniformly-convex")[0]
    with pytest.raises(ValueError, match="l1 family"):
        sweep_relative_step(cfg, [0.5])


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_generate_writes_instance(tmp_path):
    out = tmp_path / "inst.json"
    code = main(["generate", "--family", "lasso", "--seed", "3",
                 "--n", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["family"] == "lasso" and doc["seed"] == 3


# edits of a config's top level, and the key each refusal names
CONFIG_TOP_LEVEL_EDITS = {
    "typo": ({"metod": {"steps": 3}}, "metod"),
    "schema-version-bool": ({"schema_version": True}, "schema_version"),
    "schema-version-2": ({"schema_version": 2}, "schema_version"),
}


@pytest.mark.parametrize("command", ["run", "sweep", "certify"])
@pytest.mark.parametrize("case", CONFIG_TOP_LEVEL_EDITS)
def test_config_top_level_is_exact(stored_artifacts, tmp_path, capsys,
                                   command, case):
    edits, named = CONFIG_TOP_LEVEL_EDITS[case]
    if command == "certify":
        # the config.json stored beside run.json
        for name in CERTIFY_READS:
            doc = dict(stored_artifacts[name])
            if name == "config.json":
                doc.update(edits)
            (tmp_path / name).write_text(json.dumps(doc))
        argv = ["certify", "--run", str(tmp_path / "run.json"),
                "--certificate", str(tmp_path / "certificate.json"),
                "--out", str(tmp_path / "out" / "report.json")]
    else:
        argv = _run_config(command, **edits)(tmp_path)
    assert main(argv) == 2
    _one_error_line(capsys.readouterr().err, named)
    assert not (tmp_path / "out").exists()


def test_config_schema_version_may_be_left_out():
    doc = preset_configs("uniformly-convex")[0].to_dict()
    assert doc["schema_version"] == 1
    del doc["schema_version"]
    config = ExperimentConfig.from_dict(doc)
    assert config.to_dict() == dict(doc, schema_version=1)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_flag_sets_the_instance_seed(tmp_path, command):
    # the README's `klcert run --config config.json --out out/ --seed 11`
    # makes what a config with instance seed 11 makes
    config = preset_configs("tiny-lasso")[0]
    assert config.instance["seed"] == 7
    config.to_json(tmp_path / "seven.json")
    config.instance["seed"] = 11
    config.to_json(tmp_path / "eleven.json")
    for name, source, extra in (("flag", "seven", ["--seed", "11"]),
                                ("config", "eleven", []),
                                ("unflagged", "seven", [])):
        assert main([command, "--config", str(tmp_path / f"{source}.json"),
                     "--out", str(tmp_path / name), *extra]) == 0

    def files(name):
        root = tmp_path / name
        return {p.relative_to(root): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    assert files("flag") == files("config") != files("unflagged")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_flag_is_refused_for_an_instance_read_from_a_path(
        tmp_path, capsys, command):
    # a stored instance has its seed: --seed has nothing to set
    generate_instance("lasso", seed=7, n=2, m=3).to_json(tmp_path / "i.json")
    ExperimentConfig(name="stored", instance={
        "path": str(tmp_path / "i.json")}).to_json(tmp_path / "c.json")
    assert main([command, "--config", str(tmp_path / "c.json"),
                 "--out", str(tmp_path / "out"), "--seed", "11"]) == 2
    _one_error_line(capsys.readouterr().err, "--seed")
    assert not (tmp_path / "out").exists()


def test_run_from_an_optimal_start_exits_2(tmp_path, capsys):
    # x0 at the center of w ||x - c||^2: a zero initial gap has nothing to
    # certify
    def optimal_start(doc):
        doc["payload"]["x0"] = doc["payload"]["center"]

    argv = _stored_instance_run(tmp_path, "uniformly-convex", optimal_start,
                                {"name": "gradient"})
    assert main(argv) == 2
    _one_error_line(capsys.readouterr().err, "start is already optimal")
    assert not (tmp_path / "out").exists()


# the instance flags of `klcert generate`, with their types
GENERATE_FLAGS = {"--n": int, "--m": int, "--mu": float, "--dim": int,
                  "--num-sets": int, "--geometry": str, "--weight": float}


def test_generate_flags_are_the_generators_parameters(capsys):
    text = _printed_help(["generate", "--help"], capsys)
    flags = [word for word in text.split("options:")[1].split()
             if word.startswith("--")]
    assert flags == ["--help", "--family", "--seed", "--out",
                     *GENERATE_FLAGS]
    values = {int: "2", float: "0.5", str: "lens"}
    argv = ["generate", "--family", "lasso", "--out", "i.json"]
    for flag, kind in GENERATE_FLAGS.items():
        argv += [flag, values[kind]]
    args = klcert.cli._build_parser().parse_args(argv)
    for flag, kind in GENERATE_FLAGS.items():
        assert type(getattr(args, flag[2:].replace("-", "_"))) is kind, flag
    # each flag's help names the families that take it, with defaults
    for family, parameters in generator_parameters().items():
        for key, (_, _, default) in parameters.items():
            assert (key == "seed") is (f"--{key.replace('_', '-')}"
                                       not in GENERATE_FLAGS)
            if key != "seed":
                assert f"{family} (default {default!r})" in text, key


def test_generate_instance_reads_no_signature_per_call(monkeypatch):
    first = generate_instance("feasibility", seed=3, geometry="lens")

    def refuse(*args, **kwargs):
        raise AssertionError("a signature was read again")

    monkeypatch.setattr(inspect, "signature", refuse)
    again = generate_instance("feasibility", seed=3, geometry="lens")
    assert again.payload == first.payload
    with pytest.raises(ValueError, match="take no m"):
        generate_instance("feasibility", m=2)
    with pytest.raises(ValueError, match="geometry must be str, not int"):
        generate_instance("feasibility", geometry=2)


def test_cli_run_preset_and_exit_codes(tmp_path, capsys):
    code = main(["run", "--preset", "tiny-lasso", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "tiny-lasso" in printed and "overall: PASS" in printed
    run_dir = tmp_path / "tiny-lasso"
    assert sorted(os.listdir(run_dir)) == sorted(ARTIFACTS)

    code = main(["run", "--preset", "broken-rate", "--out", str(tmp_path)])
    assert code == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_cli_run_config_file_with_step_override(tmp_path):
    cfg = preset_configs("tiny-lasso")[0]
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--steps", "37"])
    assert code == 0
    rows = _read_trace(tmp_path / "o" / "tiny-lasso" / "trace.csv")
    assert len(rows) <= 38


def test_cli_certify(tmp_path, capsys):
    assert main(["run", "--preset", "uniformly-convex",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    run_dir = tmp_path / "uniformly-convex"
    code = main(["certify", "--run", str(run_dir / "run.json"),
                 "--certificate", str(run_dir / "certificate.json"),
                 "--out", str(tmp_path / "recheck.json")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert (tmp_path / "recheck.json").exists()


def test_cli_sweep(tmp_path, capsys):
    code = main(["sweep", "--preset", "tiny-lasso",
                 "--values", "0.3,0.5,0.8", "--steps", "40",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()
    assert "d = 0.5" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unknown_certificate_source_exits_2(tmp_path, capsys, command):
    cfg = preset_configs("tiny-lasso")[0]
    cfg.certificate["source"] = "bogus"
    cfg.to_json(tmp_path / "cfg.json")
    assert main([command, "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "unknown certificate source 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_error_paths(tmp_path, capsys):
    # config and preset are mutually exclusive; neither is an error too
    cfg = preset_configs("tiny-lasso")[0]
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    assert main(["run", "--config", str(path), "--preset", "tiny-lasso",
                 "--out", str(tmp_path)]) == 2
    assert main(["run", "--out", str(tmp_path)]) == 2
    assert main(["certify", "--run", str(tmp_path / "missing.json"),
                 "--certificate", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "tiny-lasso", "--workers", "2"])
    assert exc.value.code == 2


# every call of main in a process parses with one parser; these check that
# a call leaves nothing behind for the next one
def test_cli_reuses_one_parser():
    assert klcert.cli._build_parser() is klcert.cli._build_parser()


def test_run_without_steps_after_a_step_override(tmp_path):
    cfg = preset_configs("uniformly-convex")[0]
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    for out, extra in (("capped", ["--steps", "3"]), ("own", [])):
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / out), *extra]) == 0
    run_experiment(cfg, out_dir=str(tmp_path / "direct"))

    def stored(out):
        return (tmp_path / out / "uniformly-convex" / "run.json").read_bytes()

    assert len(_stored_iterates(json.loads(stored("capped")))) == 4
    assert stored("own") == (tmp_path / "direct" / "run.json").read_bytes()


def test_certify_without_out_after_certify_with_out(tmp_path, capsys):
    assert main(["run", "--preset", "uniformly-convex",
                 "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "uniformly-convex"
    argv = ["certify", "--run", str(run_dir / "run.json"),
            "--certificate", str(run_dir / "certificate.json")]
    assert main([*argv, "--out", str(tmp_path / "recheck.json")]) == 0
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(argv) == 0
    assert "wrote" not in capsys.readouterr().out
    assert {p: p.read_bytes()
            for p in tmp_path.rglob("*") if p.is_file()} == files


def test_argparse_refusal_between_calls(tmp_path):
    def generate(name):
        assert main(["generate", "--family", "lasso", "--seed", "3",
                     "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name).read_bytes()

    before = generate("before.json")
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "lasso", "--bogus"])
    assert exc.value.code == 2
    assert generate("after.json") == before


HELP_ARGVS = (["--help"], *([command, "--help"] for command in
                            ("generate", "run", "sweep", "certify")))


def _printed_help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_is_the_same_on_reuse(capsys):
    first_use = []
    for argv in HELP_ARGVS:
        klcert.cli._build_parser.cache_clear()
        first_use.append(_printed_help(argv, capsys))
    assert first_use[0].startswith("usage: klcert ")
    for _ in range(2):
        assert [_printed_help(argv, capsys) for argv in HELP_ARGVS] \
            == first_use


# family parameters that no generator can use: each is refused by the
# generator, before its first random draw
BAD_FAMILY_PARAMETERS = {
    "lasso-mu-zero": (["--family", "lasso", "--mu", "0"], "mu"),
    "lasso-mu-negative": (["--family", "lasso", "--mu", "-1"], "mu"),
    "lasso-mu-nan": (["--family", "lasso", "--mu", "nan"], "mu"),
    "lasso-n-zero": (["--family", "lasso", "--n", "0"], "n"),
    "uniformly-convex-weight-zero": (
        ["--family", "uniformly-convex", "--weight", "0"], "weight"),
    "uniformly-convex-weight-negative": (
        ["--family", "uniformly-convex", "--weight", "-1"], "weight"),
    "uniformly-convex-weight-nan": (
        ["--family", "uniformly-convex", "--weight", "nan"], "weight"),
    "uniformly-convex-n-zero": (
        ["--family", "uniformly-convex", "--n", "0"], "n"),
    "tight-quadratic-dim-zero": (
        ["--family", "tight-quadratic", "--dim", "0"], "dim"),
    "feasibility-dim-zero": (["--family", "feasibility", "--dim", "0"], "dim"),
    "feasibility-lens-dim-zero": (
        ["--family", "feasibility", "--geometry", "lens", "--dim", "0"],
        "dim"),
    # a lens is two balls
    "feasibility-lens-num-sets-five": (
        ["--family", "feasibility", "--geometry", "lens", "--num-sets", "5"],
        "num_sets"),
}


@pytest.mark.parametrize("case", BAD_FAMILY_PARAMETERS)
def test_generate_refuses_bad_family_parameters(tmp_path, capsys, case,
                                                monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a random draw was made")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    args, name = BAD_FAMILY_PARAMETERS[case]
    out = tmp_path / "i.json"
    assert main(["generate", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: need {name} ") and err.count("\n") == 1
    assert not out.exists()


def _config_file(tmp_path, **edits) -> str:
    doc = dict(preset_configs("tiny-lasso")[0].to_dict(), **edits)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    return str(tmp_path / "config.json")


def _run_config(command, **edits):
    return lambda tmp_path: [command, "--config", _config_file(tmp_path, **edits),
                             "--out", str(tmp_path / "out")]


def _path_instance_with_seed(tmp_path):
    generate_instance("lasso", seed=1).to_json(tmp_path / "i.json")
    return _run_config("run", instance={"path": str(tmp_path / "i.json"),
                                        "seed": 2})(tmp_path)


def _stored_instance_run(tmp_path, family, edit, method):
    """argv of a run on a stored instance of family, edited in place."""
    doc = generate_instance(family, seed=3).to_dict()
    edit(doc)
    (tmp_path / "i.json").write_text(json.dumps(doc))
    return _run_config("run", instance={"path": str(tmp_path / "i.json")},
                       method=method)(tmp_path)


def _first_set_affine(doc):
    xbar = doc["payload"]["xbar"]
    doc["payload"]["sets"][0] = {
        "kind": "affine", "matrix": [[1.0, 0.0]], "rhs": [xbar[0]]}


# malformed inputs that must stop with one error line and exit 2; most of
# them once ended in a traceback, or ran on with the bad key ignored
MALFORMED_INPUTS = {
    "supplied-certificate-without-nu-run": _run_config(
        "run", certificate={"source": "supplied"}),
    "supplied-certificate-without-nu-sweep": _run_config(
        "sweep", certificate={"source": "supplied"}),
    "unknown-instance-key": _run_config(
        "run", instance={"family": "lasso", "n": 2, "bogus": 1}),
    "unknown-instance-key-sweep": _run_config(
        "sweep", instance={"family": "lasso", "n": 2, "bogus": 1}),
    "path-instance-with-another-key": _path_instance_with_seed,
    "instance-payload-not-an-object": lambda tmp_path: _stored_instance_run(
        tmp_path, "lasso", lambda doc: doc.update(payload=[1, 2]),
        {"name": "ista"}),
    # a set is a ball or a halfspace, whose normal cone the sampling checks
    # of alternating projections need; refused before the run
    "alternating-on-an-affine-first-set": lambda tmp_path: (
        _stored_instance_run(tmp_path, "feasibility", _first_set_affine,
                             {"name": "alternating", "steps": 5})),
    "lens-with-seven-sets": _run_config(
        "run", instance={"family": "feasibility", "dim": 2, "seed": 3,
                         "geometry": "lens", "num_sets": 7},
        method={"name": "alternating", "steps": 600}),
    "generate-lasso-dim": lambda tmp_path: [
        "generate", "--family", "lasso", "--dim", "2",
        "--out", str(tmp_path / "i.json")],
    "generate-uniformly-convex-m": lambda tmp_path: [
        "generate", "--family", "uniformly-convex", "--m", "2",
        "--out", str(tmp_path / "i.json")],
    "config-is-a-directory": lambda tmp_path: [
        "run", "--config", str(tmp_path), "--out", str(tmp_path / "out")],
    "instance-path-is-a-directory": lambda tmp_path: [
        "run", "--config", _config_file(
            tmp_path, instance={"path": str(tmp_path)}),
        "--out", str(tmp_path / "out")],
    "name-not-a-string": _run_config("run", name=5),
    # the name is a directory under --out: a path would leave it
    "name-absolute": lambda tmp_path: _run_config(
        "run", name=str(tmp_path / "elsewhere"))(tmp_path),
    "name-up-and-out": _run_config("run", name="../elsewhere"),
    "name-with-a-slash": _run_config("run", name="a/b"),
    "name-dot": _run_config("run", name="."),
    "name-dot-dot": _run_config("run", name=".."),
    "method-not-an-object": _run_config("run", method=[1]),
    "certificate-not-an-object": _run_config("run", certificate="computed"),
    "checks-not-an-object": _run_config("run", checks=None),
    # the top level holds exactly instance, method, certificate, checks,
    # name and schema_version: a misspelled block is not left unread
    "config-top-level-typo": _run_config("run", metod={"steps": 3}),
    "config-schema-version-bool": _run_config("run", schema_version=True),
    "instance-not-an-object": _run_config("run", instance=["lasso"]),
    "method-key-typo": _run_config(
        "run", method={"name": "ista", "relative_stpe": 0.5, "steps": 400}),
    "certificate-key-typo": _run_config(
        "run", certificate={"sorce": "computed"}),
    "checks-key-typo": _run_config(
        "sweep", checks={"samples": 2000, "sead": 11}),
    # no tolerance key: each check keeps its own, which certify uses too
    "checks-tolerance": _run_config(
        "run", checks={"samples": 2000, "seed": 11, "tolerance": 1e-9}),
    # a value of another type than its key's is refused, never converted
    "method-steps-float": _run_config(
        "run", method={"name": "ista", "steps": 2.7}),
    "method-steps-string": _run_config(
        "run", method={"name": "ista", "steps": "40"}),
    "method-name-null": _run_config("run", method={"name": None}),
    "certificate-scale-gamma-string": _run_config(
        "run", certificate={"scale_gamma": "2"}),
    "certificate-scale-gamma-beyond-float": _run_config(
        "run", certificate={"scale_gamma": 10 ** 400}),
    "certificate-nu-bool": _run_config(
        "sweep", certificate={"source": "supplied", "nu": True}),
    "checks-seed-bool": _run_config("run", checks={"seed": True}),
    "checks-samples-string": _run_config("run", checks={"samples": "30"}),
    "checks-samples-null": _run_config("run", checks={"samples": None}),
    "instance-seed-bool": _run_config(
        "run", instance={"family": "lasso", "n": 2, "seed": True}),
    "instance-n-string": _run_config(
        "run", instance={"family": "lasso", "n": "two"}),
    "instance-n-string-sweep": _run_config(
        "sweep", instance={"family": "lasso", "n": "two"}),
    "instance-family-list": _run_config("run", instance={"family": ["lasso"]}),
    "instance-path-number": _run_config("run", instance={"path": 0}),
    "method-of-another-family": _run_config(
        "run", instance={"family": "tight-quadratic", "dim": 2},
        method={"name": "ista"}),
    "zero-steps": lambda tmp_path: [
        "run", "--preset", "tiny-lasso", "--steps", "0",
        "--out", str(tmp_path / "out")],
    # source and nu feed the lasso growth constants and nothing else
    "certificate-source-of-another-family": _run_config(
        "run", instance={"family": "uniformly-convex", "n": 3, "seed": 5},
        method={"name": "gradient"},
        certificate={"source": "bogus", "nu": 3}),
    "certificate-nu-of-another-family": _run_config(
        "run", instance={"family": "tight-quadratic", "dim": 2},
        method={}, certificate={"nu": 3.0}),
    # the sweep checks its method block as run does
    "sweep-method-of-another-family": _run_config(
        "sweep", method={"name": "gradient"}),
    "sweep-zero-steps": _run_config(
        "sweep", method={"name": "ista", "steps": 0}),
    # the sweep's problem has the config's schedule, though it varies it
    "sweep-relative-step-beyond-2": _run_config(
        "sweep", method={"relative_step": 2.5}),
    # one rescaled growth constant or rate cannot hold across a grid of d
    "sweep-scale-gamma": _run_config(
        "sweep", certificate={"scale_gamma": 1000.0}),
    "sweep-override-q": _run_config(
        "sweep", certificate={"override_q": 6.0}),
    # q ** k overflows before the run's last step (56): the bounds
    # f0 / q^k cannot be formed
    "override-q-overflows": _run_config(
        "run", instance={"family": "uniformly-convex", "n": 3, "seed": 5},
        method={"name": "gradient", "relative_step": 0.5, "steps": 300},
        certificate={"override_q": 1e10}),
    "sweep-zero-step-cap": lambda tmp_path: [
        "sweep", "--preset", "tiny-lasso", "--steps", "0",
        "--out", str(tmp_path / "out")],
    "sweep-negative-step-cap": lambda tmp_path: [
        "sweep", "--preset", "tiny-lasso", "--steps", "-5",
        "--out", str(tmp_path / "out")],
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("block, key", [
    ("method", "relative_step"), ("certificate", "nu"),
    ("certificate", "scale_gamma"), ("certificate", "override_q")])
def test_run_refuses_a_non_finite_setting(tmp_path, capsys, block, key,
                                          value):
    # json reads NaN and Infinity; every comparison with NaN is false, so
    # an override_q of NaN would pass every check
    assert main(_run_config("run", **{block: {key: value}})(tmp_path)) == 2
    _one_error_line(capsys.readouterr().err,
                    f"config {block}.{key} is not finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_2(tmp_path, capsys, case):
    assert main(MALFORMED_INPUTS[case](tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_alternating_on_an_affine_first_set_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(klcert.experiments, "forward_backward", refuse)
    argv = MALFORMED_INPUTS["alternating-on-an-affine-first-set"](tmp_path)
    assert main(argv) == 2
    assert "unknown kind 'affine'" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["config", "instance", "run",
                                    "certificate"])
def test_json_list_in_place_of_a_record_exits_2(stored_artifacts, tmp_path,
                                                capsys, record):
    paths = {name: tmp_path / f"{name}.json"
             for name in ("config", "instance", "run", "certificate")}
    _config_file(tmp_path, instance={"path": str(paths["instance"])})
    for name in ("run", "certificate"):
        paths[name].write_text(json.dumps(stored_artifacts[f"{name}.json"]))
    paths[record].write_text("[]")
    if record in ("config", "instance"):
        argv = ["run", "--config", str(paths["config"]),
                "--out", str(tmp_path / "out")]
    else:
        argv = ["certify", "--run", str(paths["run"]),
                "--certificate", str(paths["certificate"])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "does not hold a JSON object" in err and "Traceback" not in err
