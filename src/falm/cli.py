"""Batch front-end: run experiments, compare rules, and gate rates in CI.

Subcommands::

    falm run <config.json> [--runs label1,label2]
    falm compare <config.json>
    falm ratecheck <config.json> <thresholds.json>

``main`` parses the command line and exits with the code that
:func:`execute` returns for it; library callers call ``execute`` and get
the code back.

The experiment config names a problem (a generator spec with a "kind" field,
or an inline dense problem document) and a list of labeled runs::

    {
      "problem": {"kind": "random_qp", "n": 50, "p": 10, "seed": 7, "cond": 100.0},
      "output_dir": "out",
      "runs": [
        {"label": "cd4", "rule": {"rule": "chambolle_dossal", "alpha": 4.0},
         "beta": 1.0, "max_iter": 10000, "record_every": 10}
      ]
    }

Per-run entries may pin "gamma", "sigma", "rho", "beta", "max_iter",
"record_every", "kkt_tol" and "cg_tol"; omitted or null values fall back to
the solver defaults, so minimally specified runs match the documented
parameter rules. Numeric fields, and the entries of an inline problem's
arrays, reject booleans, strings and null, and integer fields reject
fractions. Every object of either document holds only the keys that are
read from it: a misspelled key is refused, never ignored. A run label names
files, CSV and markdown table cells and ``--runs`` entries, so it holds none
of ``LABEL_REFUSED``. ``run`` writes one ``<label>.csv`` per run (the
columns ``RECORD_FIELDS``, 17 significant digits, '.' decimal separator, LF
line endings; reruns are byte-identical) plus ``summary.json``, which gives
each run's resolved ``parameters`` (``PARAMETER_FIELDS`` of its validated
config) next to its outcome. ``compare`` merges runs into one CSV keyed by
(label, k) and writes a markdown slope table. ``ratecheck`` evaluates a
thresholds document and exits nonzero on the first violation; see
``DEFAULT_WINDOW`` and the check kinds below.

Thresholds document::

    {"window": [100, 10000],
     "checks": [
       {"kind": "slope", "metric": "gap", "max_slope": -1.8, "min_r2": 0.9},
       {"kind": "slope", "metric": "gap", "label": "baseline", "min_slope": -1.3},
       {"kind": "monotone", "metric": "energy", "tol": 1e-9}
     ]}

A "slope" check fits log(metric) against log(k) over the window (two
integers, the first not above the second) and compares
against at least one of "max_slope", "min_slope" and "min_r2". A "monotone"
check allows per-step increases up to ``tol * |first value|``, starting at
the optional index "from_k"; the allowance scales with the data, so the
verdict does not depend on the data's scale. Floating-point noise means a
strict ``tol = 0`` will fail on any real run, so keep the 1e-9 scale. It
fails when fewer than two records lie at "from_k" or later, and reports the
records it compared (``n_used``, ``k_first``, ``k_last``). Every bound and
"tol" is a finite number.

This module is the one reader of both documents. Each object of either
goes through :func:`_read`: a key that nothing reads is refused, then each
field is parsed once by its reader, under the name its error message gives
it. The defaults live in one place each: ``CHECK_DEFAULTS`` for a check (the
document's ``window`` is the default of a check's own), and
:class:`~falm.solver.SolverParams`, :class:`~falm.benchgen.GenSpec` and
:class:`~falm.inertial.InertialRule` for the rest. :func:`rule_from_spec`,
:func:`spec_from_json` and :func:`problem_from_json` read a rule, a generator
spec and an inline problem; the package exports them. A document with more
than one fault is refused naming one of them.

Before any run starts, both documents are checked for shape (objects,
lists, string labels, numeric fields, known metrics and check kinds, check
labels that name a run) and every selected run's parameters are checked for
admissibility. Runs then execute one after another in config order. Output
files are written atomically per run.

Exit codes: 0 when every run completes (and, for ``ratecheck``, every check
passes); 1 when a rate check fails or a run fails; 2 for a bad config or
thresholds document or an inadmissible parameter, reported as ``error: ...``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import partial
from operator import attrgetter

import numpy as np

from . import solver
from .benchgen import GenSpec, generate
from .diagnostics import RunRecord, rate_fit
from .errors import ValidationError
from .inertial import RULE_KINDS, SPEC_KEYS, InertialRule, certify
from .linalg import dense_map
from .oracle import OracleError, QpInstance, kkt_solve, qp_from_problem
from .problem import Problem, least_squares_objective, quadratic_objective
from .solver import RunResult, SolverParams, ValidatedConfig, run

RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
CSV_HEADER = ",".join(RECORD_FIELDS)
DEFAULT_WINDOW = (100, 10000)
SLOPE_FIELDS = ("gap", "feas", "obj_err")
# The arrays each objective kind of an inline problem reads, a matrix and a
# vector, and the objective they build.
OBJECTIVE_KINDS = {"quadratic": ("Q", "c", quadratic_objective),
                   "least_squares": ("M", "d", least_squares_objective)}
# The keys each check kind reads, in the order they are parsed.
CHECK_KINDS = {"slope": ("kind", "metric", "label", "window", "max_slope", "min_slope",
                         "min_r2"),
               "monotone": ("kind", "metric", "label", "tol", "from_k")}
# What an absent key of a check reads as; an absent metric reads as null,
# which names no metric.
CHECK_DEFAULTS = {"kind": "slope", "metric": None, "tol": 1e-9, "from_k": 1}
# A label names its CSV file, a comparison.csv cell, a comparison.md table
# cell and a --runs entry.
LABEL_REFUSED = "/\\\0,|\n\r"
PARAMETER_FIELDS = ("gamma", "sigma", "rho", "beta", "lipschitz", "a_norm_sq",
                    "a_norm_probes", "sigma_bound", "convergence_certified")


# Readers of one field of a document: each takes the value as written and the
# name that an error message gives the field, and returns the parsed value.

def _as_is(value, name: str):
    return value


def _number(value, name: str, conv=float):
    """A JSON number parsed by ``conv`` (``float`` or ``int``).

    Anything but an ``int`` or a ``float`` (a string, a boolean, null), a
    number ``conv`` cannot convert, and for ``int`` a fraction raise
    ``ValueError`` naming the field (``float("4")`` is 4, ``float(true)`` is
    1, ``int(2.7)`` is 2).
    """
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not (conv is int and isinstance(value, float) and not value.is_integer())):
        try:
            return conv(value)
        except OverflowError:  # an integer beyond the float range
            pass
    expected = "an integer" if conv is int else "a number"
    raise ValueError(f"{name} must be {expected}, got {value!r}")


def _finite(value, name: str, conv=float):
    """A :func:`_number` that is finite and, for ``conv=int``, has no fraction."""
    number = _number(value, name)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if conv is int and not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return conv(value)


_integer, _index = partial(_number, conv=int), partial(_finite, conv=int)


def _numbers(values, name: str) -> np.ndarray:
    """A flat list of numbers, each entry parsed by :func:`_number`."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return np.array([_number(v, f"{name}[{i}]") for i, v in enumerate(values)],
                    dtype=float)


def _of_type(kind: type, what: str):
    """The reader that refuses a value that is not a ``kind`` as not ``what``."""
    def read(value, name: str):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}")
        return value
    return read


_object, _list, _string = (_of_type(dict, "an object"), _of_type(list, "a list"),
                           _of_type(str, "a string"))


def _window(value, name: str) -> tuple[int, int]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(k, int) and not isinstance(k, bool) for k in value)
            and value[0] <= value[1]):
        raise ValueError(f"{name} must be two ascending integers, got {value!r}")
    return tuple(value)


def _metric(value, name: str) -> str:
    if value not in RECORD_FIELDS:
        raise ValueError(f"{name} must be one of {list(RECORD_FIELDS)}")
    return value


def _read(doc: dict, where: str, readers: dict, *, defaults: dict | None = None,
          required=(), prefix: str | None = None) -> dict:
    """The fields of the document object ``doc``, each parsed by its reader.

    A key of ``doc`` that no reader reads raises ``ValueError`` naming
    ``where``: it is a misspelling or a field the writer thinks has effect.
    Then each reader, in the order of ``readers``, parses its field under the
    name ``key``, or ``prefix + repr(key)`` when a prefix is given. An absent
    key reads as its entry of ``defaults``; without one it raises
    ``KeyError`` when it is ``required`` and is left out otherwise.
    """
    for key in doc:
        if key not in readers:
            raise ValueError(f"{where} does not read the key {key!r}")
    given = {**(defaults or {}), **doc}
    return {key: read(given[key], key if prefix is None else f"{prefix}{key!r}")
            for key, read in readers.items() if key in given or key in required}


def _load(path: str, what: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return _of_type(dict, "a JSON object")(json.load(fh), what)


def rule_from_spec(doc: dict) -> InertialRule:
    """Build a rule from its wire format ``{"rule": ..., "alpha": ...}``.

    An unknown rule, a key its kind does not read (``SPEC_KEYS``: ``alpha``
    for the alpha rules, ``m`` for ``constant``, none for ``nesterov``), and
    an ``alpha`` or ``m`` that is not a JSON number raise ``ValueError``.
    """
    kind = doc["rule"]
    if not isinstance(kind, str) or kind not in SPEC_KEYS:
        raise ValueError(f"unknown rule {kind!r}; expected one of {RULE_KINDS}")
    readers = {"rule": _as_is, **dict.fromkeys(SPEC_KEYS[kind], _number)}
    params = _read(doc, f"rule {kind!r}", readers, required=("alpha",))
    del params["rule"]
    return InertialRule(kind=kind, **params)


def spec_from_json(doc: dict) -> GenSpec:
    """Parse a generator spec; a field of the wrong type, and a key other than
    ``kind``, ``n``, ``p``, ``seed`` and ``cond``, raise ``ValueError``."""
    readers = {"n": _integer, "p": _integer, "seed": _integer, "kind": _as_is, "cond": _number}
    spec = _read(doc, "generator spec", readers, required=("n", "p", "seed", "kind"))
    return GenSpec(**spec)


def problem_from_json(doc: dict) -> Problem:
    """Build a dense Problem from an inline problem document.

    The document holds ``n`` and ``p``, ``A`` as a flat row-major list of
    ``p*n`` numbers, ``b`` of length ``p``, and ``objective`` as ``{"kind":
    "quadratic", "Q": <n*n row-major>, "c": <n>}`` or ``{"kind":
    "least_squares", "M": <rows*n row-major>, "d": <rows>}``. A field of the
    wrong type, an entry of ``A``, ``b``, ``Q``, ``c``, ``M`` or ``d`` that
    :func:`_number` refuses (a string, a boolean, null, a nested list)
    among them, and a key the document or its objective does not read raise
    ``ValueError``; a missing one ``KeyError``.
    """
    readers = {"n": _integer, "p": _integer, "A": _numbers, "b": _numbers, "objective": _as_is}
    try:
        parsed = _read(doc, "problem", readers, required=tuple(readers))
        n, p = parsed["n"], parsed["p"]
        if n < 1 or p < 1:
            raise ValueError(f"dimensions must be positive, got n={n}, p={p}")
        a = parsed["A"].reshape(p, n)
        kind = parsed["objective"]["kind"]
        if not (isinstance(kind, str) and kind in OBJECTIVE_KINDS):
            raise ValueError(f"unknown objective kind {kind!r}; "
                             f"expected one of {tuple(OBJECTIVE_KINDS)}")
        mat, vec, build = OBJECTIVE_KINDS[kind]
        obj = _read(parsed["objective"], f"objective {kind!r}",
                    {"kind": _as_is, mat: _numbers, vec: _numbers}, required=(mat, vec))
        rows = n if kind == "quadratic" else obj[mat].size // n  # Q is n-by-n
        objective = build(obj[mat].reshape(rows, n), obj[vec])
    except (TypeError, OverflowError):
        raise ValueError(f"malformed problem document {doc!r}") from None
    return Problem(objective=objective, a_map=dense_map(a), b=parsed["b"])


@dataclass
class RunSpec:
    label: str
    params: SolverParams


@dataclass
class ExperimentConfig:
    problem: Problem
    qp: QpInstance | None
    problem_doc: dict
    runs: list[RunSpec]
    output_dir: str


def _problem(doc, name: str) -> tuple[Problem, QpInstance | None]:
    """The problem and its QP: generated from a spec with a "kind", else inline."""
    if "kind" in _object(doc, name):
        return generate(spec_from_json(doc))
    prob = problem_from_json(doc)
    return prob, qp_from_problem(prob)


# A run's fields in the order they are parsed; an absent rule reads as null.
_RUN_READERS = {"label": _as_is, "rule": lambda doc, name: rule_from_spec(_object(doc, name)),
                "gamma": _number, "sigma": _number, "rho": _number, "beta": _number,
                "max_iter": _integer, "kkt_tol": _number, "cg_tol": _number,
                "record_every": _integer}


def _runs(entries, name: str) -> list[RunSpec]:
    runs = []
    for entry in _list(entries, name):
        if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)):
            raise ValueError(f"each run must be an object with a string 'label', "
                             f"got {entry!r}")
        label = entry["label"]
        if not label or set(label) & set(LABEL_REFUSED):
            raise ValueError(f"run label {label!r} must be a non-empty file name "
                             f"without any of {LABEL_REFUSED!r}")
        if any(spec.label == label for spec in runs):
            raise ValueError(f"duplicate run label {label!r}")
        # A field that is null keeps the default of SolverParams, as an absent
        # one does; a key that no reader reads is refused whatever its value.
        given = {k: v for k, v in entry.items() if v is not None or k not in _RUN_READERS}
        where = f"run {label!r}"
        params = _read(given, where, _RUN_READERS, defaults={"rule": None},
                       prefix=f"{where}: ")
        del params["label"]
        runs.append(RunSpec(label=label, params=SolverParams(**params)))
    return runs


def load_experiment(path: str) -> ExperimentConfig:
    doc = _load(path, "config")
    config = _read(doc, "config", {"problem": _problem, "runs": _runs, "output_dir": _string},
                   defaults={"runs": [], "output_dir": "."}, required=("problem",),
                   prefix="")
    return ExperimentConfig(*config["problem"], problem_doc=doc["problem"],
                            runs=config["runs"], output_dir=config["output_dir"])


# The reader of each field that a check may hold.
_CHECK_READERS = {"kind": _as_is, "metric": _metric, "label": _as_is, "window": _window,
                  "max_slope": _finite, "min_slope": _finite, "min_r2": _finite,
                  "tol": _finite, "from_k": _index}


def _read_check(doc: dict, window: tuple[int, int], labels: list[str]) -> dict:
    """The fields of one check, parsed, with ``window`` as the default of its
    own; a field that its kind does not read is absent."""
    where = f"check {doc!r}"
    kind = doc.get("kind", CHECK_DEFAULTS["kind"])
    if not isinstance(kind, str) or kind not in CHECK_KINDS:
        raise ValueError(f"{where}: 'kind' must be one of {list(CHECK_KINDS)}")
    check = _read(doc, where, {key: _CHECK_READERS[key] for key in CHECK_KINDS[kind]},
                  defaults={**CHECK_DEFAULTS, "window": window}, prefix=f"{where}: ")
    if "label" in check and check["label"] not in labels:
        raise ValueError(f"{where}: no run labeled {check['label']!r}")
    if kind == "slope" and not {"max_slope", "min_slope", "min_r2"} & check.keys():
        raise ValueError(f"{where}: a slope check needs 'max_slope', 'min_slope' or 'min_r2'")
    return check


def load_thresholds(path: str, labels: list[str]) -> list[tuple[dict, dict]]:
    """Each check of a thresholds document as written, with its parsed fields
    (:func:`_read_check`); the labels are those of the config's runs."""
    doc = _read(_load(path, "thresholds document"), "thresholds",
                {"window": _window, "checks": _as_is},
                defaults={"window": DEFAULT_WINDOW, "checks": []}, prefix="thresholds: ")
    checks = doc["checks"]
    if not (isinstance(checks, list) and all(isinstance(c, dict) for c in checks)):
        raise ValueError("'checks' must be a list of objects")
    return [(check, _read_check(check, doc["window"], labels)) for check in checks]


def _fmt(value) -> str:
    """A CSV cell: empty for None, else 17 significant digits, which is every
    integer below 10^17 as written and every double as it round-trips."""
    return "" if value is None else format(value, ".17g")


_record_values = attrgetter(*RECORD_FIELDS)


def _record_row(rec: RunRecord, label: str | None = None) -> str:
    """The record's ``CSV_HEADER`` cells, after ``label`` when one is given."""
    row = ",".join([_fmt(value) for value in _record_values(rec)])
    return row if label is None else f"{label},{row}"


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def execute(command: str, config_path: str, labels_filter: str | None = None,
            thresholds_path: str | None = None) -> int:
    """Run the subcommand ``command`` and return its exit code: load, check,
    execute, report.

    Whatever can reject the command (one of ``run``, ``compare`` and
    ``ratecheck``, which needs ``thresholds_path``), a document or a run's
    parameters happens before the first run starts and exits 2. The selected
    runs then execute in config order and the command's writer reports them;
    a failed run exits 1.
    """
    try:
        if command not in _WRITERS:
            raise ValueError(f"unknown command {command!r}; expected one of {list(_WRITERS)}")
        if command == "ratecheck" and thresholds_path is None:
            raise ValueError("ratecheck needs a thresholds document")
        config = load_experiment(config_path)
        specs = config.runs
        if labels_filter is not None:
            labels = [s for s in labels_filter.split(",") if s]
            unknown = set(labels) - {spec.label for spec in config.runs}
            if unknown:
                raise ValueError(f"unknown run labels {sorted(unknown)}")
            specs = [spec for spec in config.runs if spec.label in labels]
            if not specs:
                raise ValueError(f"--runs {labels_filter!r} selects no run")
        if command == "compare" and len(config.runs) < 2:
            raise ValueError("compare needs at least 2 runs")
        if not config.runs:
            raise ValueError("config declares no runs")
        checks = (None if thresholds_path is None else
                  load_thresholds(thresholds_path, [s.label for s in config.runs]))
        # solver.validate is looked up at call time, like run and kkt_solve,
        # so a wrapper installed on the solver module sees these calls.
        cfgs = {spec.label: solver.validate(config.problem, spec.params)
                for spec in specs}
        os.makedirs(config.output_dir, exist_ok=True)
    except (ValidationError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        saddle = None if config.qp is None else kkt_solve(config.qp)
    except OracleError:
        saddle = None
    results = {spec.label: run(config.problem, spec.params, saddle=saddle,
                               cfg=cfgs[spec.label])
               for spec in specs}
    code = _WRITERS[command](config, results, cfgs, checks)
    failed = [label for label, res in results.items() if res.error is not None]
    if failed:
        print(f"error: runs failed: {failed}", file=sys.stderr)
        return 1
    return code


def _slopes(records) -> dict:
    """Rate fits of ``SLOPE_FIELDS`` from ``DEFAULT_WINDOW[0]`` to the last record."""
    k_last = max(r.k for r in records)
    out = {}
    for fld in SLOPE_FIELDS:
        try:
            out[fld] = asdict(rate_fit(records, fld, DEFAULT_WINDOW[0], k_last))
        except ValueError as exc:
            out[fld] = {"error": str(exc)}
    return out


def _summary(config: ExperimentConfig, results: dict[str, RunResult],
             cfgs: dict[str, ValidatedConfig]) -> dict:
    runs_doc = {}
    for label, res in results.items():
        cfg = cfgs[label]
        last = res.records[-1]
        cert = certify(cfg.rule, max(2, min(10000, cfg.max_iter)))
        runs_doc[label] = {
            "parameters": {name: getattr(cfg, name) for name in PARAMETER_FIELDS},
            "iterations": res.iterations,
            "reason": res.reason,
            "final_kkt_grad": last.kkt_grad,
            "final_kkt_feas": last.kkt_feas,
            "slopes": _slopes(res.records),
            "rule_certify": asdict(cert),
        }
        if res.error is not None:
            runs_doc[label]["error"] = res.error
    return {"problem": config.problem_doc, "oracle": config.qp is not None,
            "runs": runs_doc}


def _write_run(config: ExperimentConfig, results: dict[str, RunResult],
               cfgs: dict[str, ValidatedConfig], checks: list | None) -> int:
    for label, res in results.items():
        rows = [CSV_HEADER] + [_record_row(r) for r in res.records]
        _write_atomic(os.path.join(config.output_dir, f"{label}.csv"),
                      "\n".join(rows) + "\n")
    summary = _summary(config, results, cfgs)
    _write_atomic(os.path.join(config.output_dir, "summary.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(results)} run(s) to {config.output_dir}")
    return 0


def _write_compare(config: ExperimentConfig, results: dict[str, RunResult],
                   cfgs: dict[str, ValidatedConfig], checks: list | None) -> int:
    rows = ["label," + CSV_HEADER]
    for label, res in results.items():
        rows.extend(_record_row(r, label) for r in res.records)
    _write_atomic(os.path.join(config.output_dir, "comparison.csv"),
                  "\n".join(rows) + "\n")

    md = ["| label | gap slope | feas slope | obj_err slope | gap r2 |",
          "|---|---|---|---|---|"]
    for label, res in results.items():
        slopes = _slopes(res.records)

        def cell(fld, key="slope"):
            doc = slopes[fld]
            return f"{doc[key]:.3f}" if key in doc else "n/a"

        md.append(f"| {label} | {cell('gap')} | {cell('feas')} | "
                  f"{cell('obj_err')} | {cell('gap', 'r2')} |")
    _write_atomic(os.path.join(config.output_dir, "comparison.md"),
                  "\n".join(md) + "\n")
    print(f"wrote comparison for {len(results)} runs to {config.output_dir}")
    return 0


def _check_slope(check: dict, records) -> dict:
    fit = rate_fit(records, check["metric"], *check["window"])
    ok = ((check.get("max_slope") is None or fit.slope <= check["max_slope"])
          and (check.get("min_slope") is None or fit.slope >= check["min_slope"])
          and (check.get("min_r2") is None or fit.r2 >= check["min_r2"]))
    return {"ok": ok, **asdict(fit), "window": list(check["window"])}


def _check_monotone(check: dict, records) -> dict:
    field = check["metric"]
    values = [(r.k, getattr(r, field)) for r in records
              if getattr(r, field) is not None]
    if not values:
        raise ValueError(f"metric {field!r} not recorded")
    allowance = check["tol"] * abs(values[0][1])
    scoped = [(k, v) for k, v in values if k >= check["from_k"]]
    if len(scoped) < 2:  # nothing to compare
        raise ValueError(f"too few records of {field!r} at k >= {check['from_k']}: "
                         f"{len(scoped)}, need 2")
    span = {"n_used": len(scoped), "k_first": scoped[0][0], "k_last": scoped[-1][0]}
    for (_, prev), (k, cur) in zip(scoped, scoped[1:]):
        if cur > prev + allowance:
            return {"ok": False, "violation_k": k, "increase": cur - prev, **span}
    return {"ok": True, **span}


_CHECKS = {"slope": _check_slope, "monotone": _check_monotone}


def _write_ratecheck(config: ExperimentConfig, results: dict[str, RunResult],
                     cfgs: dict[str, ValidatedConfig],
                     checks: list[tuple[dict, dict]]) -> int:
    report = []
    first_violation = None
    for doc, check in checks:
        for label in [check["label"]] if "label" in check else list(results):
            try:
                outcome = _CHECKS[check["kind"]](check, results[label].records)
            except ValueError as exc:
                outcome = {"ok": False, "error": str(exc)}
            entry = {"check": doc, "label": label, **outcome}
            report.append(entry)
            if not outcome["ok"] and first_violation is None:
                first_violation = entry
    _write_atomic(os.path.join(config.output_dir, "ratecheck.json"),
                  json.dumps({"ok": first_violation is None, "results": report},
                             indent=2, sort_keys=True) + "\n")
    if first_violation is not None:
        if "error" in first_violation:
            detail = f": {first_violation['error']}"
        elif "violation_k" in first_violation:
            detail = f" at k={first_violation['violation_k']}"
        else:
            detail = f" over the window {first_violation['window']}"
        print(f"ratecheck FAILED: metric {first_violation['check']['metric']!r} "
              f"on run {first_violation['label']!r}{detail}", file=sys.stderr)
        return 1
    print(f"ratecheck passed ({len(report)} checks)")
    return 0


_WRITERS = {"run": _write_run, "compare": _write_compare,
            "ratecheck": _write_ratecheck}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="falm",
                                     description="benchmark front-end for the "
                                                 "inertial augmented Lagrangian solver")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each argument's dest is the name of the execute parameter it fills.
    p_run = sub.add_parser("run", help="execute runs, write per-run CSV + summary")
    p_run.add_argument("config_path", metavar="config")
    p_run.add_argument("--runs", dest="labels_filter", metavar="RUNS",
                       help="comma-separated labels to execute (default all)")

    p_cmp = sub.add_parser("compare", help="merged CSV and slope table across runs")
    p_cmp.add_argument("config_path", metavar="config")

    p_rc = sub.add_parser("ratecheck", help="evaluate rate thresholds, exit nonzero "
                                            "on violation")
    p_rc.add_argument("config_path", metavar="config")
    p_rc.add_argument("thresholds_path", metavar="thresholds")

    sys.exit(execute(**vars(parser.parse_args(argv))))


if __name__ == "__main__":
    main()
