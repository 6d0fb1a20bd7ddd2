import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falm import cli
from falm.cli import CSV_HEADER, _check_monotone, _fmt, execute, main
from falm.diagnostics import RunRecord
from falm.linalg import LinearMap
from falm.problem import Problem
from falm.solver import validate


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _small_config(tmp_path, runs=None, max_iter=400):
    if runs is None:
        runs = [
            {"label": "cd4", "rule": {"rule": "chambolle_dossal", "alpha": 4.0},
             "beta": 1.0, "max_iter": max_iter, "record_every": 5},
            {"label": "baseline", "rule": {"rule": "constant"}, "beta": 1.0,
             "max_iter": max_iter, "record_every": 5},
        ]
    doc = {
        "problem": {"kind": "random_qp", "n": 8, "p": 3, "seed": 42, "cond": 10.0},
        "output_dir": str(tmp_path / "out"),
        "runs": runs,
    }
    return _write(tmp_path / "config.json", doc)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_writes_expected_files(tmp_path):
    cfg = _small_config(tmp_path)
    assert execute("run", cfg) == 0
    out = tmp_path / "out"
    header, rows = _read_csv(out / "cd4.csv")
    assert ",".join(header) == CSV_HEADER
    assert (out / "baseline.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["runs"]) == {"cd4", "baseline"}
    assert summary["oracle"] is True
    assert summary["runs"]["cd4"]["reason"] == "iteration budget"
    gap = summary["runs"]["cd4"]["slopes"]["gap"]
    assert {"slope", "n_used", "k_first", "k_last"} <= set(gap)


def test_summary_gives_the_parameters_each_run_used(tmp_path):
    runs = [{"label": "cd4", "rule": {"rule": "chambolle_dossal", "alpha": 4.0},
             "gamma": 0.9, "beta": 0.5, "max_iter": 50},
            {"label": "nesterov", "rule": {"rule": "nesterov"}, "max_iter": 50}]
    path = _small_config(tmp_path, runs=runs)
    assert execute("run", path) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    config = cli.load_experiment(path)
    for spec in config.runs:
        cfg = validate(config.problem, spec.params)
        assert summary["runs"][spec.label]["parameters"] == {
            name: getattr(cfg, name) for name in
            ("gamma", "sigma", "rho", "beta", "lipschitz", "a_norm_sq",
             "a_norm_probes", "sigma_bound", "convergence_certified")}
    assert summary["runs"]["cd4"]["parameters"]["gamma"] == 0.9
    assert summary["runs"]["cd4"]["parameters"]["convergence_certified"] is True
    # the Nesterov rule forces gamma = 1, so iterate convergence is not certified
    assert summary["runs"]["nesterov"]["parameters"]["convergence_certified"] is False


def test_summary_says_how_a_norm_sq_was_obtained(tmp_path, monkeypatch):
    path = _small_config(tmp_path, max_iter=50)
    assert execute("run", path) == 0
    out = tmp_path / "out"
    dense = json.loads((out / "summary.json").read_text())
    csv = (out / "cd4.csv").read_bytes()
    load = cli.load_experiment

    def load_matrix_free(config_path):
        config = load(config_path)
        a = config.problem.a_map
        a_map = LinearMap(forward=a.forward, adjoint=a.adjoint, dims=a.dims, matrix=None)
        config.problem = Problem(objective=config.problem.objective, a_map=a_map,
                                 b=config.problem.b)
        return config

    monkeypatch.setattr(cli, "load_experiment", load_matrix_free)
    assert execute("run", path) == 0
    probed = json.loads((out / "summary.json").read_text())
    for label in ("cd4", "baseline"):
        assert dense["runs"][label]["parameters"]["a_norm_probes"] == 0
        assert probed["runs"][label]["parameters"] == {
            **dense["runs"][label]["parameters"], "a_norm_probes": 3}
    # the map rebuilt from its adjoint probes is the dense map, bit for bit
    assert (out / "cd4.csv").read_bytes() == csv


def test_run_energy_column_monotone(tmp_path):
    cfg = _small_config(tmp_path)
    assert execute("run", cfg, labels_filter="cd4") == 0
    _, rows = _read_csv(tmp_path / "out" / "cd4.csv")
    idx = CSV_HEADER.split(",").index("energy")
    energies = [float(r[idx]) for r in rows]
    tol = 1e-9 * abs(energies[0])
    assert all(b <= a + tol for a, b in zip(energies, energies[1:]))


def test_run_byte_identical_reruns(tmp_path):
    cfg = _small_config(tmp_path)
    assert execute("run", cfg) == 0
    first = (tmp_path / "out" / "cd4.csv").read_bytes()
    first_summary = (tmp_path / "out" / "summary.json").read_bytes()
    assert execute("run", cfg) == 0
    assert (tmp_path / "out" / "cd4.csv").read_bytes() == first
    assert (tmp_path / "out" / "summary.json").read_bytes() == first_summary


def test_run_label_filter(tmp_path):
    cfg = _small_config(tmp_path)
    assert execute("run", cfg, labels_filter="baseline") == 0
    out = tmp_path / "out"
    assert (out / "baseline.csv").exists()
    assert not (out / "cd4.csv").exists()


def test_run_unknown_label(tmp_path, capsys):
    cfg = _small_config(tmp_path)
    assert execute("run", cfg, labels_filter="nope") == 2
    assert "unknown run labels" in capsys.readouterr().err


@pytest.mark.parametrize("labels", [",", ""])
def test_run_filter_selecting_no_run_exits_2(tmp_path, capsys, labels):
    cfg = _small_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--runs", labels])
    assert exc.value.code == 2
    assert "selects no run" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_invalid_sigma(tmp_path, capsys):
    runs = [{"label": "bad", "rule": {"rule": "nesterov"}, "beta": 1.0,
             "sigma": 10.0, "max_iter": 10, "record_every": 1}]
    cfg = _small_config(tmp_path, runs=runs)
    assert execute("run", cfg) == 2
    err = capsys.readouterr().err
    assert "σ ≤ γ/(L + γβ‖A‖²)" in err


def test_run_rejects_duplicate_labels(tmp_path):
    runs = [{"label": "x", "rule": {"rule": "nesterov"}, "max_iter": 5},
            {"label": "x", "rule": {"rule": "constant"}, "max_iter": 5}]
    cfg = _small_config(tmp_path, runs=runs)
    assert execute("run", cfg) == 2


def test_run_inline_problem(tmp_path):
    # inline dense problem document instead of a generator spec
    problem_doc = {
        "n": 2, "p": 1,
        "A": [1.0, 1.0], "b": [2.0],
        "objective": {"kind": "quadratic",
                      "Q": [1.0, 0.0, 0.0, 1.0], "c": [0.0, 0.0]},
    }
    doc = {"problem": problem_doc, "output_dir": str(tmp_path / "out"),
           "runs": [{"label": "r", "rule": {"rule": "nesterov"},
                     "beta": 1.0, "max_iter": 200, "record_every": 10}]}
    cfg = _write(tmp_path / "inline.json", doc)
    assert execute("run", cfg) == 0
    _, rows = _read_csv(tmp_path / "out" / "r.csv")
    gap_idx = CSV_HEADER.split(",").index("gap")
    assert rows[-1][gap_idx] != ""  # oracle recovered from the inline QP


def test_compare_outputs(tmp_path):
    runs = [
        {"label": "a", "rule": {"rule": "chambolle_dossal", "alpha": 4.0},
         "beta": 1.0, "max_iter": 300, "record_every": 5},
        {"label": "b", "rule": {"rule": "chambolle_dossal", "alpha": 4.0},
         "beta": 1.0, "max_iter": 300, "record_every": 5},
    ]
    cfg = _small_config(tmp_path, runs=runs)
    assert execute("compare", cfg) == 0
    out = tmp_path / "out"
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "label," + CSV_HEADER
    rows_a = [l for l in lines[1:] if l.startswith("a,")]
    rows_b = [l for l in lines[1:] if l.startswith("b,")]
    # identical duplicate runs produce identical columns
    assert [r[2:] for r in rows_a] == [r[2:] for r in rows_b]
    md = (out / "comparison.md").read_text()
    assert "| a |" in md and "| b |" in md


def test_compare_needs_two_runs(tmp_path, capsys):
    runs = [{"label": "only", "rule": {"rule": "nesterov"}, "max_iter": 5}]
    cfg = _small_config(tmp_path, runs=runs)
    assert execute("compare", cfg) == 2
    assert "at least 2" in capsys.readouterr().err


def test_compare_empty_runs(tmp_path):
    cfg = _small_config(tmp_path, runs=[])
    assert execute("compare", cfg) == 2


def test_ratecheck_pass_and_fail(tmp_path, capsys):
    cfg = _small_config(tmp_path, max_iter=600)
    good = _write(tmp_path / "good.json", {
        "window": [20, 600],
        "checks": [
            {"kind": "slope", "metric": "gap", "label": "cd4", "max_slope": -1.8},
            {"kind": "monotone", "metric": "energy", "label": "cd4", "tol": 1e-9},
        ]})
    assert execute("ratecheck", cfg, thresholds_path=good) == 0
    report = json.loads((tmp_path / "out" / "ratecheck.json").read_text())
    assert report["ok"] is True
    capsys.readouterr()

    impossible = _write(tmp_path / "bad.json", {
        "window": [20, 600],
        "checks": [{"kind": "slope", "metric": "gap", "label": "baseline",
                    "max_slope": -30.0}]})
    assert execute("ratecheck", cfg, thresholds_path=impossible) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err and "gap" in err and "baseline" in err


def _monotone(**fields):
    """An energy monotone check, read as a thresholds document holds it."""
    doc = {"kind": "monotone", "metric": "energy", **fields}
    return cli._read_check(doc, cli.DEFAULT_WINDOW, [])


def test_monotone_check_requires_scaled_tolerance():
    # strict tol=0 trips on rounding-level wiggle; the 1e-9 scale absorbs it
    records = [RunRecord(k=k, t_k=1.0, gap=None, feas=0.0, obj_err=None,
                         kkt_grad=0.0, kkt_feas=0.0,
                         energy=e, cg_iters=0)
               for k, e in [(1, 2.0), (2, 1.0), (3, 1.0 + 1e-12), (4, 0.5)]]
    strict = _check_monotone(_monotone(tol=0.0), records)
    assert not strict["ok"] and strict["violation_k"] == 3
    scaled = _check_monotone(_monotone(tol=1e-9), records)
    assert scaled["ok"]


def test_monotone_allowance_scales_with_the_first_value():
    # energies near 1e-8 that rise by 1e-10: a rise of 1% of the first value,
    # far above tol * |first value| = 1e-17, so the check fails at any scale
    energies = [(1, 1.0e-8), (2, 0.9e-8), (3, 0.9e-8 + 1e-10), (4, 0.5e-8)]
    for scale in (1.0, 1e8):
        records = [RunRecord(k=k, t_k=1.0, gap=None, feas=0.0, obj_err=None,
                             kkt_grad=0.0, kkt_feas=0.0, energy=scale * e, cg_iters=0)
                   for k, e in energies]
        verdict = _check_monotone(_monotone(tol=1e-9), records)
        assert not verdict["ok"] and verdict["violation_k"] == 3


def test_monotone_check_from_k():
    records = [RunRecord(k=k, t_k=1.0, gap=None, feas=0.0, obj_err=None,
                         kkt_grad=0.0, kkt_feas=0.0, energy=e, cg_iters=0)
               for k, e in [(1, 1.0), (2, 5.0), (3, 4.0), (4, 3.0)]]
    assert not _check_monotone(_monotone(tol=1e-9), records)["ok"]
    assert _check_monotone(_monotone(tol=1e-9, from_k=2), records)["ok"]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_csv_cells_round_trip_doubles(value):
    assert float(_fmt(value)) == value


def test_csv_cells_formatting():
    assert _fmt(None) == ""
    assert _fmt(7) == "7"
    assert "." in _fmt(0.1) and "," not in _fmt(0.1)
    assert _fmt(np.float64(0.1)) == _fmt(0.1) == "0.10000000000000001"
    assert _fmt(np.float64(-2.5e-300)) == "-2.5e-300"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(np.int64(-3)) == "-3"
    assert [_fmt(v) for v in (None, np.float64(1.0), np.int64(0), 1e300)] == \
        ["", "1", "0", "1.0000000000000001e+300"]


def test_main_exit_codes(tmp_path):
    cfg = _small_config(tmp_path)
    impossible = _write(tmp_path / "impossible.json", {
        "window": [10, 400],
        "checks": [{"kind": "slope", "metric": "gap", "label": "cd4", "max_slope": -50.0}]})
    for argv, code in ((["run", cfg, "--runs", "cd4"], 0),
                       (["run", str(tmp_path / "missing.json")], 2),
                       (["compare", cfg], 0),
                       (["ratecheck", cfg, impossible], 1),
                       (["ratecheck", cfg, str(tmp_path / "missing.json")], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code, argv
    assert (tmp_path / "out" / "comparison.csv").is_file()
    assert json.loads((tmp_path / "out" / "ratecheck.json").read_text())["ok"] is False


def test_csv_header_is_the_reference_records_schema():
    path = Path(__file__).parent / "data" / "reference_records.json"
    assert CSV_HEADER.split(",") == json.loads(path.read_text())["columns"]


def test_shipped_config_round(tmp_path, monkeypatch):
    # the repository config runs end to end; route its output to tmp
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    doc = json.loads(open(os.path.join(here, "configs", "qp_cd.json")).read())
    doc["output_dir"] = str(tmp_path / "out")
    doc["runs"] = [r for r in doc["runs"] if r["label"] == "cd4"]
    doc["runs"][0]["max_iter"] = 2000
    cfg = _write(tmp_path / "qp_cd.json", doc)
    assert execute("run", cfg) == 0
    _, rows = _read_csv(tmp_path / "out" / "cd4.csv")
    idx = CSV_HEADER.split(",").index("energy")
    energies = [float(r[idx]) for r in rows]
    tol = 1e-9 * abs(energies[0])
    assert all(b <= a + tol for a, b in zip(energies, energies[1:]))


def test_ratecheck_reports_what_each_slope_fit_used(tmp_path):
    # cd4's gap on the shipped instance falls to 1.2e-15 by k = 10^4, still
    # far above rounding noise relative to its largest value in the window, so
    # the [100, 10^4] fit uses all 991 records
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    doc = json.loads(open(os.path.join(here, "configs", "qp_cd.json")).read())
    doc["output_dir"] = str(tmp_path / "out")
    doc["runs"] = [r for r in doc["runs"] if r["label"] == "cd4"]
    cfg = _write(tmp_path / "qp_cd.json", doc)
    thresholds = _write(tmp_path / "thresholds.json", {
        "window": [100, 10000],
        "checks": [{"kind": "slope", "metric": "gap", "label": "cd4",
                    "max_slope": -1.8, "min_r2": 0.9}]})
    assert execute("ratecheck", cfg, thresholds_path=thresholds) == 0
    report = (tmp_path / "out" / "ratecheck.json").read_bytes()
    entry = json.loads(report)["results"][0]
    assert (entry["n_used"], entry["n_excluded"]) == (991, 0)
    assert (entry["k_first"], entry["k_last"]) == (100, 10000)
    assert execute("ratecheck", cfg, thresholds_path=thresholds) == 0
    assert (tmp_path / "out" / "ratecheck.json").read_bytes() == report


def test_run_subset_writes_same_bytes(tmp_path):
    # a run's records do not depend on which other runs the config holds
    cfg = _small_config(tmp_path)
    assert execute("run", cfg) == 0
    full = {label: (tmp_path / "out" / f"{label}.csv").read_bytes()
            for label in ("cd4", "baseline")}
    for label, data in full.items():
        shutil.rmtree(tmp_path / "out")
        assert execute("run", cfg, labels_filter=label) == 0
        assert (tmp_path / "out" / f"{label}.csv").read_bytes() == data


def test_failed_run_exits_1_in_every_command(tmp_path, capsys):
    # a residual target below rounding makes the inner solve fail at k=1
    runs = [{"label": "a", "rule": {"rule": "nesterov"}, "max_iter": 20,
             "cg_tol": 1e-300},
            {"label": "b", "rule": {"rule": "constant"}, "max_iter": 20}]
    cfg = _small_config(tmp_path, runs=runs)
    thresholds = _write(tmp_path / "thresholds.json", {"checks": []})
    for command in (lambda: execute("run", cfg), lambda: execute("compare", cfg),
                    lambda: execute("ratecheck", cfg, thresholds_path=thresholds)):
        assert command() == 1
        assert "runs failed: ['a']" in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["runs"]["a"]["reason"] == "inner solve failure"


def test_run_checks_every_run_before_the_first_starts(tmp_path, capsys,
                                                      monkeypatch):
    started = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: started.append(args))
    runs = [{"label": "good", "rule": {"rule": "nesterov"}, "max_iter": 5},
            {"label": "bad", "rule": {"rule": "nesterov"}, "sigma": 10.0,
             "max_iter": 5}]
    cfg = _small_config(tmp_path, runs=runs)
    assert execute("run", cfg) == 2
    assert "σ ≤ γ/(L + γβ‖A‖²)" in capsys.readouterr().err
    assert started == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, message", [
    ("ratecheck", "ratecheck needs a thresholds document"),
    ("check", "unknown command 'check'; expected one of ['run', 'compare', 'ratecheck']"),
], ids=["ratecheck_without_thresholds", "unknown_command"])
def test_execute_refuses_a_command_it_cannot_finish_before_any_run(tmp_path, capsys,
                                                                   monkeypatch, command,
                                                                   message):
    # both used to execute every run, then raise TypeError or KeyError
    started = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: started.append(args))
    assert execute(command, _small_config(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert started == [] and not (tmp_path / "out").exists()


def test_help_runs_without_warnings():
    # runpy warns when the package imports the module it runs as __main__,
    # so the package must export the CLI's readers lazily
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "falm.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: falm")


_INLINE_PROBLEM = {"n": 2, "p": 1, "A": [1.0, 1.0], "b": [1.0],
                   "objective": {"kind": "quadratic", "Q": [1.0, 0.0, 0.0, 1.0],
                                 "c": [0.0, 0.0]}}


def _tiny_runs():
    return [{"label": "cd4", "rule": {"rule": "chambolle_dossal", "alpha": 4.0},
             "beta": 1.0, "max_iter": 20, "record_every": 5}]


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(problem=5),
    lambda doc: doc.update(runs=[5]),
    lambda doc: doc["runs"][0].update(gamma="0.9"),  # m = 2/3 < 0.9 < 1 as a number
    lambda doc: doc["runs"][0].update(label="a/b"),
    lambda doc: doc["runs"][0].update(max_iter=2.7),
    lambda doc: doc["runs"][0].update(max_iter=True),
    lambda doc: doc["runs"][0].update(beta=True),
    lambda doc: doc["runs"][0].update(beta=float("nan"), sigma=0.001),
    lambda doc: doc["runs"][0].update(rho=float("inf")),
    lambda doc: doc["runs"][0].update(rule={"rule": "constant", "m": True}),
    lambda doc: doc["runs"][0].update(rule={"rule": "chambolle_dossal", "alpha": "4"}),
    lambda doc: doc["problem"].update(seed=1.5),
    lambda doc: doc["problem"].update(n="20"),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "n": 2.5}),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "objective": {
        "kind": "quadratic", "Q": [1.0, 1.0, 0.0, 1.0], "c": [0.0, 0.0]}}),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "objective": {
        "kind": "quadratic", "Q": [1.0, 0.0, 0.0, -5.0], "c": [0.0, 0.0]}}),
    lambda doc: doc["runs"][0].update(rule={"rule": "chambolle_dossal", "alpha": 4, "m": 0.1}),
    lambda doc: doc["runs"][0].update(rule={"rule": "nesterov", "alpha": "x"}),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "A": ["1", True], "b": ["2.0"]}),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "b": [None]}),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "objective": {
        "kind": "quadratic", "Q": [1, 0, 0, "1e0"], "c": [0, False]}}),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "p": 2, "A": [1.0, 1.0, 1.0, 1.0],
                                    "b": [1.0, 2.0]}),
    lambda doc: doc["runs"][0].update(max_iters=5),
    lambda doc: doc["runs"][0].update(record_evry=1),
    lambda doc: doc["problem"].update(cnd=5.0),
    lambda doc: doc.update(ouput_dir="elsewhere"),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "kind_": "quadratic"}),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "objective": {
        **_INLINE_PROBLEM["objective"], "M": [1.0, 0.0]}}),
    lambda doc: doc.update(problem={**_INLINE_PROBLEM, "objective": {
        "kind": "least_squares", "M": [1.0, 0.0], "d": [1.0], "c": [0.0, 0.0]}}),
    lambda doc: doc["runs"][0].update(label="a,b"),
    lambda doc: doc["runs"][0].update(label="a|b"),
    lambda doc: doc["runs"][0].update(label="a\nb"),
    lambda doc: doc["runs"][0].update(label="a\rb"),
], ids=["problem_not_object", "run_not_object", "gamma_string", "label_not_file_name",
        "max_iter_fraction", "max_iter_bool", "beta_bool", "beta_nan", "rho_inf",
        "rule_m_bool", "alpha_string",
        "seed_fraction", "generator_n_string", "inline_n_fraction", "q_asymmetric", "q_indefinite",
        "rule_unread_m", "rule_unread_alpha", "inline_a_strings", "inline_b_null",
        "inline_q_c_not_numbers", "b_infeasible", "run_unread_max_iters",
        "run_unread_record_evry", "generator_unread_cnd", "config_unread_ouput_dir",
        "inline_unread_key", "quadratic_unread_m", "least_squares_unread_c",
        "label_comma", "label_pipe", "label_newline", "label_carriage_return"])
def test_bad_config_document_exits_2(tmp_path, capsys, mutate):
    cfg = _small_config(tmp_path, runs=_tiny_runs())
    doc = json.loads(Path(cfg).read_text())
    mutate(doc)
    _write(tmp_path / "config.json", doc)
    assert execute("run", cfg) == 2
    assert "error:" in capsys.readouterr().err



def test_infinite_alpha_exits_2_naming_alpha(tmp_path, capsys):
    cfg = _small_config(tmp_path, runs=_tiny_runs())
    doc = json.loads(Path(cfg).read_text())
    doc["runs"][0]["rule"]["alpha"] = float("inf")  # written as the JSON token Infinity
    _write(tmp_path / "config.json", doc)
    assert "Infinity" in Path(cfg).read_text()
    assert execute("run", cfg) == 2
    assert "requires a finite alpha >= 3, got inf" in capsys.readouterr().err


def test_inline_least_squares_with_nan_m_exits_2(tmp_path, capsys):
    cfg = _small_config(tmp_path, runs=_tiny_runs())
    doc = json.loads(Path(cfg).read_text())
    doc["problem"] = {**_INLINE_PROBLEM, "objective": {
        "kind": "least_squares", "M": [1.0, float("nan"), 0.0, 1.0], "d": [0.0, 0.0]}}
    _write(tmp_path / "config.json", doc)
    assert execute("run", cfg) == 2
    assert "error: M contains NaN or infinite entries" in capsys.readouterr().err

_GOOD_CHECK = {"kind": "slope", "metric": "gap", "label": "cd4", "max_slope": -1.8}


@pytest.mark.parametrize("thresholds", [
    [1, 2],
    {"checks": [5]},
    {"window": 5, "checks": [_GOOD_CHECK]},
    {"checks": [{"kind": "slope", "label": "cd4", "max_slope": -1.8}]},
    {"checks": [{**_GOOD_CHECK, "metric": "nope"}]},
    {"checks": [{**_GOOD_CHECK, "label": "cd5"}]},
    {"checks": [{**_GOOD_CHECK, "kind": "steep"}]},
    {"window": [400, 100], "checks": [_GOOD_CHECK]},
    {"checks": [{**_GOOD_CHECK, "window": [20, 5]}]},
    {"checks": [{"kind": "monotone", "metric": "energy", "from_k": 2.5}]},
    {"checks": [{**_GOOD_CHECK, "max_slope": "-1.8"}]},
    {"checks": [_GOOD_CHECK], "windw": [1, 20]},
    {"checks": [{"kind": "slope", "metric": "gap", "label": "cd4", "max_slop": -1.8}]},
    {"checks": [{"kind": "slope", "metric": "gap", "label": "cd4"}]},
    {"checks": [{"metric": "gap", "window": [1, 20]}]},
    {"checks": [{"kind": "monotone", "metric": "energy", "tol": 1e-9, "max_slope": 0.0}]},
    {"checks": [{"kind": "monotone", "metric": "energy", "window": [1, 20]}]},
    {"checks": [{"kind": "monotone", "metric": "energy", "tol": float("nan")}]},
    {"checks": [{"kind": "monotone", "metric": "energy", "tol": float("inf")}]},
    {"checks": [{**_GOOD_CHECK, "max_slope": float("nan")}]},
], ids=["not_object", "check_not_object", "window_not_pair", "no_metric",
        "unknown_metric", "unknown_label", "unknown_kind", "window_descending",
        "check_window_descending", "from_k_fraction", "max_slope_string",
        "unread_document_key", "slope_unread_max_slop", "slope_without_bound",
        "default_kind_without_bound", "monotone_unread_max_slope",
        "monotone_unread_window", "tol_nan", "tol_infinite", "max_slope_nan"])
def test_bad_thresholds_document_exits_2(tmp_path, capsys, thresholds):
    cfg = _small_config(tmp_path, runs=_tiny_runs())
    path = _write(tmp_path / "thresholds.json", thresholds)
    assert execute("ratecheck", cfg, thresholds_path=path) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ratecheck.json").exists()


_FUZZ_CONFIG = {
    "problem": {"kind": "random_qp", "n": 8, "p": 3, "seed": 42, "cond": 10.0},
    "output_dir": "OUT",
    "runs": [{"label": "cd4", "rule": {"rule": "chambolle_dossal", "alpha": 4.0},
              "beta": 1.0, "gamma": 0.9, "max_iter": 20, "record_every": 5},
             {"label": "base", "rule": {"rule": "constant", "m": 1.0},
              "max_iter": 12, "kkt_tol": 1e-3}],
}
_FUZZ_INLINE = {
    "problem": {"n": 2, "p": 1, "A": [1.0, 1.0], "b": [2.0],
                "objective": {"kind": "least_squares", "M": [1.0, 0.0, 0.0, 2.0],
                              "d": [0.5, 1.0]}},
    "output_dir": "OUT",
    "runs": [{"label": "cd4", "rule": {"rule": "attouch_cabot", "alpha": 4.0},
              "sigma": 0.01, "rho": 0.01, "max_iter": 20}],
}
_FUZZ_THRESHOLDS = {
    "window": [1, 20],
    "checks": [{"kind": "slope", "metric": "gap", "label": "cd4", "max_slope": -1.0,
                "min_slope": -9.0, "min_r2": 0.5, "window": [2, 20]},
               {"kind": "monotone", "metric": "energy", "tol": 1e-9, "from_k": 2}],
}
# One value of each JSON type; a node is only replaced by a value of another type.
_FUZZ_VALUES = [None, True, 3, "x", [1], {"a": 1}]


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _node_paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_FUZZ_CASES = [(name, path, value)
               for name, base in (("config", _FUZZ_CONFIG), ("inline", _FUZZ_INLINE),
                                  ("thresholds", _FUZZ_THRESHOLDS))
               for path in _node_paths(base)
               for value in _FUZZ_VALUES
               if _json_type(value) != _json_type(_node(base, path))]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_FUZZ_CASES))
def test_malformed_documents_never_raise(case):
    name, path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        base = _FUZZ_INLINE if name == "inline" else _FUZZ_CONFIG
        config = base if name == "thresholds" else _replaced(base, path, value)
        if isinstance(config, dict) and config.get("output_dir") == "OUT":
            config = {**config, "output_dir": os.path.join(tmp, "out")}
        thresholds = (_replaced(_FUZZ_THRESHOLDS, path, value)
                      if name == "thresholds" else _FUZZ_THRESHOLDS)
        cfg = _write(Path(tmp) / "config.json", config)
        thr = _write(Path(tmp) / "thresholds.json", thresholds)
        if name != "thresholds":
            assert execute("run", cfg) in (0, 1, 2)
        assert execute("ratecheck", cfg, thresholds_path=thr) in (0, 1, 2)
