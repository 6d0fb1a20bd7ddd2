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
  ``energy`` on that state, against the config's KKT saddle point.

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

from falm import cli, diagnostics, kkt_solve, solver  # noqa: E402

REPEATS = 7
RUN_STEPS = 2000
LONE_CALLS = 2000
WARM_STEPS = 100


def best_us(fn, calls: int, per: int) -> float:
    """Best of ``REPEATS`` timings of ``calls`` calls of ``fn``, in µs per ``per``."""
    return round(min(timeit.repeat(fn, number=calls, repeat=REPEATS)) / per * 1e6, 1)


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
        "src": str(SRC), "config": "configs/qp_cd.json cd4", "blas_threads": 1,
        "best_of": REPEATS,
    }))


if __name__ == "__main__":
    main()
