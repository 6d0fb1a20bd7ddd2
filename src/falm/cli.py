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
check allows per-step increases up to ``tol * max(1, first value)``, starting
at the optional index "from_k"; floating-point noise means a strict ``tol =
0`` will fail on any real run, so keep the 1e-9 scale. Every bound and "tol"
is a finite number.

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
import os
import sys
from dataclasses import asdict, dataclass, fields
from operator import attrgetter

import numpy as np

from . import solver
from .benchgen import generate, spec_from_json
from .diagnostics import RunRecord, rate_fit
from .errors import ValidationError
from .inertial import certify, rule_from_spec
from .oracle import OracleError, QpInstance, kkt_solve, qp_from_problem
from .problem import Problem, _check_keys, json_number, problem_from_json
from .solver import RunResult, SolverParams, ValidatedConfig, run

RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
CSV_HEADER = ",".join(RECORD_FIELDS)
DEFAULT_WINDOW = (100, 10000)
SLOPE_FIELDS = ("gap", "feas", "obj_err")
# The keys each check kind reads.
CHECK_KINDS = {"slope": ("kind", "metric", "label", "window", "max_slope", "min_slope",
                         "min_r2"),
               "monotone": ("kind", "metric", "label", "tol", "from_k")}
CHECK_NUMBERS = ("max_slope", "min_slope", "min_r2", "tol", "from_k")
# A label names its CSV file, a comparison.csv cell, a comparison.md table
# cell and a --runs entry.
LABEL_REFUSED = "/\\\0,|\n\r"
PARAMETER_FIELDS = ("gamma", "sigma", "rho", "beta", "a_norm_sq", "a_norm_probes",
                    "sigma_bound", "convergence_certified")


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


def _params_from_doc(doc: dict, where: str) -> SolverParams:
    """The run's parameters; a key that is absent or null keeps the default of
    :class:`SolverParams`, and a key nothing reads raises ``ValueError``."""
    numbers = (("gamma", float), ("sigma", float), ("rho", float), ("beta", float),
               ("max_iter", int), ("kkt_tol", float), ("cg_tol", float),
               ("record_every", int))
    _check_keys(doc, ("label", "rule") + tuple(key for key, _ in numbers), where)
    if not isinstance(doc.get("rule"), dict):
        raise ValueError(f"{where}: 'rule' must be an object")
    rule = rule_from_spec(doc["rule"])
    given = {key: json_number(doc[key], conv, f"{where}: {key!r}")
             for key, conv in numbers if doc.get(key) is not None}
    return SolverParams(rule=rule, **given)


def load_experiment(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(doc, ("problem", "output_dir", "runs"), "config")
    prob_doc = doc["problem"]
    if not isinstance(prob_doc, dict):
        raise ValueError("'problem' must be an object")
    if "kind" in prob_doc:
        prob, qp = generate(spec_from_json(prob_doc))
    else:
        prob = problem_from_json(prob_doc)
        qp = qp_from_problem(prob)
    runs_doc = doc.get("runs", [])
    if not isinstance(runs_doc, list):
        raise ValueError("'runs' must be a list")
    runs = []
    for entry in runs_doc:
        if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)):
            raise ValueError(f"each run must be an object with a string 'label', "
                             f"got {entry!r}")
        label = entry["label"]
        if not label or set(label) & set(LABEL_REFUSED):
            raise ValueError(f"run label {label!r} must be a non-empty file name "
                             f"without any of {LABEL_REFUSED!r}")
        if any(spec.label == label for spec in runs):
            raise ValueError(f"duplicate run label {label!r}")
        runs.append(RunSpec(label=label,
                            params=_params_from_doc(entry, f"run {label!r}")))
    out_dir = doc.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise ValueError("'output_dir' must be a string")
    return ExperimentConfig(problem=prob, qp=qp, problem_doc=prob_doc,
                            runs=runs, output_dir=out_dir)


def _check_window(win, where: str) -> None:
    if not (isinstance(win, (list, tuple)) and len(win) == 2
            and all(isinstance(k, int) and not isinstance(k, bool) for k in win)
            and win[0] <= win[1]):
        raise ValueError(f"{where}: 'window' must be two ascending integers, got {win!r}")


def load_thresholds(path: str, labels: list[str]) -> dict:
    """Read a thresholds document and check its shape against the run labels."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("thresholds document must be a JSON object")
    _check_keys(doc, ("window", "checks"), "thresholds")
    _check_window(doc.get("window", DEFAULT_WINDOW), "thresholds")
    checks = doc.get("checks", [])
    if not (isinstance(checks, list) and all(isinstance(c, dict) for c in checks)):
        raise ValueError("'checks' must be a list of objects")
    for check in checks:
        where = f"check {check!r}"
        if check.get("metric") not in RECORD_FIELDS:
            raise ValueError(f"{where}: 'metric' must be one of {list(RECORD_FIELDS)}")
        if "label" in check and check["label"] not in labels:
            raise ValueError(f"{where}: no run labeled {check['label']!r}")
        kind = check.get("kind", "slope")
        if not isinstance(kind, str) or kind not in CHECK_KINDS:
            raise ValueError(f"{where}: 'kind' must be one of {list(CHECK_KINDS)}")
        _check_keys(check, CHECK_KINDS[kind], where)
        if kind == "slope" and not {"max_slope", "min_slope", "min_r2"} & check.keys():
            raise ValueError(f"{where}: a slope check needs 'max_slope', 'min_slope' "
                             f"or 'min_r2'")
        if "window" in check:
            _check_window(check["window"], where)
        for key in CHECK_NUMBERS:
            if key in check and not np.isfinite(json_number(check[key],
                                                            name=f"{where}: {key!r}")):
                raise ValueError(f"{where}: {key!r} must be finite, got {check[key]!r}")
        json_number(check.get("from_k", 1), int, f"{where}: 'from_k'")
    return doc


def _fmt(value) -> str:
    if type(value) is float:  # most cells; the cheapest test, so it comes first
        return format(value, ".17g")
    if value is None:  # the empty cells of a record without a saddle point
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


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

    Whatever can reject a document or a run's parameters happens before the
    first run starts and exits 2. The selected runs then execute in config
    order and the command's writer reports them; a failed run exits 1.
    """
    try:
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
        thresholds = (None if thresholds_path is None else
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
    code = _WRITERS[command](config, results, cfgs, thresholds)
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
               cfgs: dict[str, ValidatedConfig], thresholds: dict | None) -> int:
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
                   cfgs: dict[str, ValidatedConfig], thresholds: dict | None) -> int:
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


def _check_slope(check: dict, records, window) -> dict:
    win = check.get("window", list(window))
    fit = rate_fit(records, check["metric"], win[0], win[1])
    ok = True
    if "max_slope" in check:
        ok = ok and fit.slope <= check["max_slope"]
    if "min_slope" in check:
        ok = ok and fit.slope >= check["min_slope"]
    if "min_r2" in check:
        ok = ok and fit.r2 >= check["min_r2"]
    return {"ok": ok, **asdict(fit), "window": list(win)}


def _check_monotone(check: dict, records) -> dict:
    tol = float(check.get("tol", 1e-9))
    from_k = int(check.get("from_k", 1))
    field = check["metric"]
    values = [(r.k, getattr(r, field)) for r in records
              if getattr(r, field) is not None]
    if not values:
        return {"ok": False, "error": f"metric {field!r} not recorded"}
    allowance = tol * max(1.0, values[0][1])
    scoped = [(k, v) for k, v in values if k >= from_k]
    for (_, prev), (k, cur) in zip(scoped, scoped[1:]):
        if cur > prev + allowance:
            return {"ok": False, "violation_k": k, "increase": cur - prev}
    return {"ok": True}


def _write_ratecheck(config: ExperimentConfig, results: dict[str, RunResult],
                     cfgs: dict[str, ValidatedConfig], thresholds: dict) -> int:
    window = tuple(thresholds.get("window", DEFAULT_WINDOW))
    report = []
    first_violation = None
    for check in thresholds.get("checks", []):
        targets = [check["label"]] if "label" in check else list(results)
        for label in targets:
            records = results[label].records
            try:
                if check.get("kind", "slope") == "slope":
                    outcome = _check_slope(check, records, window)
                else:
                    outcome = _check_monotone(check, records)
            except ValueError as exc:
                outcome = {"ok": False, "error": str(exc)}
            entry = {"check": check, "label": label, **outcome}
            report.append(entry)
            if not outcome["ok"] and first_violation is None:
                first_violation = entry
    _write_atomic(os.path.join(config.output_dir, "ratecheck.json"),
                  json.dumps({"ok": first_violation is None, "results": report},
                             indent=2, sort_keys=True) + "\n")
    if first_violation is not None:
        where = first_violation.get("violation_k", "window")
        print(f"ratecheck FAILED: metric {first_violation['check']['metric']!r} "
              f"on run {first_violation['label']!r} at k={where}", file=sys.stderr)
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
