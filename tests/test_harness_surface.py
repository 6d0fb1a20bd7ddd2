"""The program surface that a tracing harness reads.

A harness may time and count the program by replacing module globals with
pass-through wrappers, so each name below must stay a module global that its
callers look up at call time, and the shapes it reads must stay as they are.
"""

import json

import numpy as np
import pytest

import falm
from falm import cli, diagnostics, solver

WRAPPED = {cli: ("load_experiment", "generate", "kkt_solve", "run", "rate_fit", "certify"),
           solver: ("validate", "op_norm_sq", "step", "solve_spd", "kkt_residuals"),
           diagnostics: ("gap", "energy")}


@pytest.fixture
def documents(tmp_path):
    config = {"problem": {"kind": "random_qp", "n": 8, "p": 3, "seed": 42, "cond": 10.0},
              "output_dir": str(tmp_path / "out"),
              "runs": [{"label": "cd4", "rule": {"rule": "chambolle_dossal", "alpha": 4.0},
                        "max_iter": 200, "record_every": 5}]}
    thresholds = {"window": [20, 200],
                  "checks": [{"kind": "slope", "metric": "gap", "max_slope": 0.0},
                             {"kind": "monotone", "metric": "energy"}]}
    paths = tmp_path / "config.json", tmp_path / "thresholds.json"
    for path, doc in zip(paths, (config, thresholds)):
        path.write_text(json.dumps(doc), encoding="utf-8")
    return tuple(map(str, paths))


def _counting(calls, key, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counted


def test_every_wrapped_name_sees_the_cli_calls(documents, monkeypatch):
    calls = {}
    for module, names in WRAPPED.items():
        for name in names:
            key = f"{module.__name__}.{name}"
            calls[key] = 0
            monkeypatch.setattr(module, name, _counting(calls, key, getattr(module, name)))
    config, thresholds = documents
    assert cli.execute("run", config) == 0
    assert cli.execute("ratecheck", config, thresholds_path=thresholds) == 0
    assert [key for key, count in calls.items() if count == 0] == []


def test_the_shapes_a_harness_reads(documents):
    prob, qp = falm.generate(falm.GenSpec("random_qp", 8, 3, 42, 10.0))
    x_star, lam_star = falm.kkt_solve(qp)
    assert (x_star.shape, lam_star.shape) == ((prob.n,), (prob.p,))
    assert cli.load_experiment(documents[0]).qp is not None
    params = falm.SolverParams(rule=falm.rule_from_spec({"rule": "nesterov"}), max_iter=5)
    cfg = solver.validate(prob, params)
    assert solver.run(prob, params, cfg=cfg).iterations == 5
    factor = solver.op_norm_sq(prob.a_map, prob.b)
    assert factor.iterations == 0
    sol = solver.solve_spd(prob.a_map, factor, 1.0, 1.0, np.ones(prob.n))
    assert sol.iterations == 0
