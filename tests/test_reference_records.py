"""Records and final iterates against reference values from an earlier commit.

Reruns are byte-identical, but a change to the arithmetic of an oracle may
move records by rounding. This test bounds that drift against
``tests/data/reference_records.json``: every CSV column at a few indices and
the final ``x``/``lam`` of 12 runs (two 50x10 instances, three rules, two
penalty weights). The file records the commit and command that wrote it;
regenerate it only at a commit whose records are the intended reference::

    PYTHONPATH=src python tests/test_reference_records.py --write
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from falm.benchgen import GenSpec, generate
from falm.inertial import attouch_cabot, chambolle_dossal, nesterov
from falm.oracle import kkt_solve
from falm.solver import SolverParams, run

PATH = os.path.join(os.path.dirname(__file__), "data", "reference_records.json")
KINDS = ("random_qp", "constrained_least_squares")
RULES = (("nesterov", nesterov()), ("cd4", chambolle_dossal(4.0)),
         ("ac4", attouch_cabot(4.0)))
BETAS = (0.5, 1.0)
MAX_ITER = 2000
KS = (1, 10, 100, 1000, MAX_ITER + 1)
COLUMNS = ("k", "t_k", "gap", "feas", "obj_err", "kkt_grad", "kkt_feas",
           "energy", "cg_iters")
COLUMN_RTOL = 1e-8     # per CSV value, relative to the reference value
COLUMN_ATOL = 1e-14    # floor for values near zero (the gap's noise level)
ITERATE_RTOL = 1e-10   # on ||x - x_ref|| / ||x_ref||, and the same for lam


def reference_runs() -> dict:
    """Every run's records at ``KS`` and final iterates, keyed by a run name."""
    out = {}
    for kind in KINDS:
        prob, qp = generate(GenSpec(kind, 50, 10, 7, 100.0))
        saddle = kkt_solve(qp)
        for label, rule in RULES:
            for beta in BETAS:
                params = SolverParams(rule=rule, beta=beta, max_iter=MAX_ITER,
                                      record_every=10)
                res = run(prob, params, saddle=saddle)
                assert res.error is None, res.error
                by_k = {rec.k: rec for rec in res.records}
                out[f"{kind}/{label}/beta={beta}"] = {
                    "records": [[getattr(by_k[k], col) for col in COLUMNS] for k in KS],
                    "x": res.x.tolist(),
                    "lam": res.lam.tolist(),
                }
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def write(path: str = PATH) -> None:
    """Write the reference file from the committed ``src`` at ``HEAD``."""
    if _git("status", "--porcelain", "src"):
        sys.exit("src has uncommitted changes; the reference must name its commit")
    commit = _git("rev-parse", "HEAD")
    doc = {"commit": commit,
           "command": "PYTHONPATH=src python tests/test_reference_records.py --write",
           "max_iter": MAX_ITER, "ks": list(KS), "columns": list(COLUMNS),
           "runs": reference_runs()}
    text = json.dumps(doc, indent=1)
    # one line per record row and per iterate vector keeps the file readable
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group().split()), text)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


@pytest.fixture(scope="module")
def reference():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return reference_runs()


def test_records_stay_within_the_drift_bounds(reference, current):
    assert reference["columns"] == list(COLUMNS) and reference["ks"] == list(KS)
    assert set(current) == set(reference["runs"])
    for name, ref in reference["runs"].items():
        for ref_row, row in zip(ref["records"], current[name]["records"]):
            for col, want, got in zip(COLUMNS, ref_row, row):
                allowed = max(COLUMN_RTOL * abs(want), COLUMN_ATOL)
                assert abs(got - want) <= allowed, (
                    f"{name} k={row[0]} {col}: {got!r} against {want!r}")


def test_final_iterates_stay_within_the_drift_bounds(reference, current):
    for name, ref in reference["runs"].items():
        for key in ("x", "lam"):
            want = np.array(ref[key])
            got = np.array(current[name][key])
            drift = float(np.linalg.norm(got - want))
            assert drift <= ITERATE_RTOL * float(np.linalg.norm(want)), (
                f"{name} {key}: drift {drift:.3e}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_reference_records.py --write")
    write()
