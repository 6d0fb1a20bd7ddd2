"""Print the per-call costs of a solver step and of a record, in µs, as one JSON line.

    python .github/scripts/step_cost.py [SRC_DIR]

Imports falm from SRC_DIR (default: the checkout's ``src``) with BLAS on one
thread, and times the cd4 run of ``configs/qp_cd.json`` (50x10, seed 7), best
of 7 repetitions each:

- ``in_run_step_us``: a run of 2,000 steps recorded at its first and last
  index, per step;
- ``lone_step_us``: a lone ``step(prob, cfg, st)``, which builds the one-row
  step block of its state, on the state after 100 steps;
- ``lone_records_us``: one 1-d call each of ``gap``, ``objective_error`` and
  ``energy`` on that state, against the config's KKT saddle point;
- ``cls1000_step_us``: the cd4 run of the seed-7 1000x200
  ``constrained_least_squares`` instance (``cond`` 100), its map wrapped
  matrix-free, to ``kkt_tol`` 1e-3, per step, best of 3: the step whose
  gradient goes to the run's worker thread.

A report, not a gate: the end-to-end benchmark times hide these costs.
"""

import json
import os
import sys
import timeit
from dataclasses import replace
from pathlib import Path

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parents[2]
SRC = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from falm import (GenSpec, LinearMap, Problem, SolverParams, chambolle_dossal,  # noqa: E402
                  cli, diagnostics, generate, kkt_solve, solver)

REPEATS = 7
RUN_STEPS = 2000
LONE_CALLS = 2000
WARM_STEPS = 100
CLS_REPEATS = 3


def best_us(fn, calls: int, per: int, repeats: int = REPEATS) -> float:
    """Best of ``repeats`` timings of ``calls`` calls of ``fn``, in µs per ``per``."""
    return round(min(timeit.repeat(fn, number=calls, repeat=repeats)) / per * 1e6, 1)


def cls1000_step_us() -> float:
    """Best of ``CLS_REPEATS`` in-run µs per step of the 1000x200 run to ``kkt_tol``."""
    prob, _ = generate(GenSpec("constrained_least_squares", 1000, 200, 7, 100.0))
    a = prob.a_map
    prob = Problem(prob.objective, LinearMap(a.forward, a.adjoint, a.dims), prob.b)
    params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=20_000,
                          kkt_tol=1e-3, record_every=100)
    cfg = solver.validate(prob, params)
    steps = solver.run(prob, params, cfg=cfg).iterations
    return best_us(lambda: solver.run(prob, params, cfg=cfg), 1, steps, CLS_REPEATS)


def main() -> None:
    config = cli.load_experiment(str(ROOT / "configs" / "qp_cd.json"))
    prob = config.problem
    spec = next(spec for spec in config.runs if spec.label == "cd4")
    params = replace(spec.params, max_iter=RUN_STEPS, record_every=10 * RUN_STEPS)
    cfg = solver.validate(prob, params)

    st = solver.initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    for _ in range(WARM_STEPS):
        st, _ = solver.step(prob, cfg, st)
    star = diagnostics.saddle_terms(prob, *kkt_solve(config.qp))
    res = st.ax_k - prob.b
    res_sq = float(res.dot(res))

    def records():
        g = diagnostics.gap(prob, st.x_k, st.lam_k, star)
        diagnostics.objective_error(star, g)
        diagnostics.energy(cfg, st, star, g, res, res_sq)

    print(json.dumps({
        "in_run_step_us": best_us(lambda: solver.run(prob, params, cfg=cfg), 1, RUN_STEPS),
        "lone_step_us": best_us(lambda: solver.step(prob, cfg, st), LONE_CALLS, LONE_CALLS),
        "lone_records_us": best_us(records, LONE_CALLS, LONE_CALLS),
        "cls1000_step_us": cls1000_step_us(),
        "src": str(SRC), "config": "configs/qp_cd.json cd4", "blas_threads": 1,
        "best_of": REPEATS,
    }))


if __name__ == "__main__":
    main()
