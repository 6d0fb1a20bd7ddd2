"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 benchmarks/rep.py WORKLOAD --mode full|setup --config FILE
        [--thresholds FILE] [--trace --spans FILE]

``run.py`` starts this with ``src`` on PYTHONPATH and an empty working
directory, where the CLI writes its outputs. ``--config`` is the CLI
experiment config for the CLI workloads; for ``tol_cls1000_matfree`` it names
the generator spec, the solver settings and one instance seed per run.
``--mode setup`` only imports the package and repeats the set-up the
workload's program performs (generate, kkt_solve, validate); ``--mode full``
runs the whole workload and then checks its outputs. The last stdout line is
one JSON object.

falm is used as a black box: only its public functions and the CLI entry
point are called. Timings come from wrapping, here, the public names that the
program looks up at call time (``falm.cli.run``, ``falm.solver.solve_spd``,
...); oracle work is counted by handing the solver counting LinearMap and
Objective callables. Without ``--trace`` only the set-up calls,
``falm.cli.run`` and ``falm.solver.step`` are wrapped; the step wrapper times
the reference kernel of ``speed.py`` every few hundred steps, and the
repetition reports ``wall_s`` and ``setup_s`` scaled by it (``*_raw_s`` are
the unscaled times).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import astuple  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import RUN_SPAN, Tracer  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# Output checks: relative 2-norm distance of the final iterates to the
# kkt_solve reference, with a margin over the largest distances measured
# (benchmarks/README.md). The dual converges more slowly than the primal.
GRID_TOL = {"x": 2e-3, "lam": 0.4}
CLS_TOL = {"x": 5e-3, "lam": 0.5}

# Solver steps between two samples of the reference kernel (speed.py): every
# 0.1-0.15 s, costing about 3-5% of a repetition. The host switches between a
# fast and a slow state several times a second, so the mean over many short
# samples is what tracks it. Set-up-only repetitions take SETUP_SAMPLES
# samples once set-up is done.
SAMPLE_EVERY = {"ratecheck_qp50": 500, "record_grid_qp50": 200,
                "tol_cls1000_matfree": 50}
SETUP_SAMPLES = 16
REFERENCE_SPAN = "bench.reference"

# Spans that make up set-up time; generate nests inside load_experiment on
# the CLI path and is counted once.
SETUP_SPANS = ("cli.load_experiment", "benchgen.generate", "oracle.kkt_solve",
               "solver.validate")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--mode", choices=("full", "setup"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--thresholds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    return ap.parse_args(argv)


def setup_seconds(tr: Tracer, import_s: float) -> float:
    total = import_s
    for name, start, end, parent, _ in tr.spans:
        if name in SETUP_SPANS and (parent < 0 or tr.spans[parent][0] not in SETUP_SPANS):
            total += end - start
    return total


def usage() -> dict:
    """Peak RSS and CPU seconds of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"peak_rss_mb": ru.ru_maxrss * 1024 / 1e6, "cpu_s": ru.ru_utime + ru.ru_stime}


def streamed_bytes(prob) -> tuple[int, int]:
    """Computed bytes of matrix data read per operator apply and per gradient.

    Derived from array sizes (dense p x n operator behind the map; one pass
    over Q for a quadratic, two over M for least squares), not measured.
    """
    n, p = prob.a_map.dims
    kind, mat = (prob.objective.data or (None, None))[:2]
    passes = {"quadratic": 1, "least_squares": 2}.get(kind, 0)
    return 8 * n * p, passes * (mat.nbytes if mat is not None else 0)


def counting_problem(falm, tr: Tracer, prob):
    """The same problem with every oracle call counted."""
    a, obj = prob.a_map, prob.objective
    a_map = falm.LinearMap(forward=tr.counting("op_apply", a.forward),
                           adjoint=tr.counting("op_apply", a.adjoint),
                           dims=a.dims, matrix=a.matrix)
    objective = falm.Objective(value=tr.counting("value", obj.value),
                               gradient=tr.counting("gradient", obj.gradient),
                               lipschitz=obj.lipschitz, data=obj.data)
    return falm.Problem(objective=objective, a_map=a_map, b=prob.b)


def install_hooks(falm, tr: Tracer, traced: bool, seen: dict) -> None:
    cli, solver, diagnostics = falm.cli, falm.solver, falm.diagnostics

    def keep_instance(out):
        prob, qp = out
        seen["qps"].append(qp)
        seen["bytes"] = streamed_bytes(prob)
        return (counting_problem(falm, tr, prob), qp) if traced else out

    def keep_result(res):
        seen["results"].append(res)
        return res

    def add(counter, attr):
        def after(out):
            tr.add(counter, getattr(out, attr))
            return out
        return after

    tr.patch(cli, "load_experiment", "cli.load_experiment")
    tr.patch(cli, "generate", "benchgen.generate", keep_instance)
    tr.patch(cli, "kkt_solve", "oracle.kkt_solve")
    tr.patch(cli, "run", RUN_SPAN, keep_result)
    tr.patch(solver, "validate", "solver.validate")
    if not traced:
        return
    tr.patch(solver, "op_norm_sq", "linalg.op_norm_sq", add("op_norm_sq_iters", "iterations"))
    tr.patch(solver, "step", "solver.step")
    tr.patch(solver, "solve_spd", "linalg.solve_spd", add("cg_iters", "iterations"))
    tr.patch(solver, "kkt_residuals", "problem.kkt_residuals")
    tr.patch(diagnostics, "gap", "diagnostics.gap")
    tr.patch(diagnostics, "energy", "diagnostics.energy")
    tr.patch(cli, "rate_fit", "diagnostics.rate_fit")
    tr.patch(cli, "certify", "inertial.certify")


def sample_speed(falm, tr: Tracer, ref, every: int) -> None:
    """Time the reference kernel before every ``every``-th solver step, outside
    the step's span, so the sample sees the speed the steps around it saw."""
    step = falm.solver.step
    calls = [0]

    def sampled(*args, **kwargs):
        if calls[0] % every == 0:
            tr.call(REFERENCE_SPAN, ref.sample)
        calls[0] += 1
        return step(*args, **kwargs)

    falm.solver.step = sampled


def matrix_free(falm, prob):
    """Re-wrap A as the paper's interface describes: forward/adjoint only."""
    a = prob.a_map
    return falm.Problem(objective=prob.objective,
                        a_map=falm.LinearMap(forward=a.forward, adjoint=a.adjoint,
                                             dims=a.dims, matrix=None),
                        b=prob.b)


def cls_setup(falm, tr: Tracer, doc: dict, traced: bool, seen: dict) -> list:
    """Generate every instance, re-wrap A matrix-free and validate each run."""
    params = falm.SolverParams(rule=falm.rule_from_spec(doc["rule"]), beta=doc["beta"],
                               max_iter=doc["max_iter"], kkt_tol=doc["kkt_tol"],
                               record_every=doc["record_every"])
    ready = []
    for run in doc["runs"]:
        spec = falm.GenSpec(seed=run["seed"], **doc["problem"])
        prob, qp = tr.call("benchgen.generate", falm.generate, spec)
        prob = matrix_free(falm, prob)
        seen["qps"].append(qp)
        seen["bytes"] = streamed_bytes(prob)
        if traced:
            prob = counting_problem(falm, tr, prob)
        ready.append((prob, params, falm.solver.validate(prob, params)))
    return ready


def cli_setup(falm, config_path: str) -> None:
    """What the CLI does before iterating: load (generate), kkt_solve, validate."""
    config = falm.cli.load_experiment(config_path)
    if config.qp is not None:
        falm.cli.kkt_solve(config.qp)
    for spec in config.runs:
        falm.solver.validate(config.problem, spec.params)


def run_digest(res) -> str:
    h = hashlib.sha256()
    for rec in res.records:
        h.update(repr(astuple(rec)).encode())
    h.update(res.x.tobytes())
    h.update(res.lam.tobytes())
    return h.hexdigest()


def rel_err(np, got, ref) -> float:
    return float(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300))


def check_run(np, res, reason: str, reference, tol) -> dict:
    out = {"reason": res.reason, "error": res.error, "iterations": res.iterations,
           "digest": run_digest(res)}
    ok = res.reason == reason and res.error is None
    if reference is not None:
        out["x_err"] = rel_err(np, res.x, reference[0])
        out["lam_err"] = rel_err(np, res.lam, reference[1])
        ok = ok and out["x_err"] <= tol["x"] and out["lam_err"] <= tol["lam"]
    out["ok"] = ok
    return out


def output_files(out_dir: Path) -> tuple[int, str]:
    """Total bytes and a digest of every file the command wrote."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.rglob("*")) if out_dir.is_dir() else []:
        if path.is_file():
            data = path.read_bytes()
            total += len(data)
            h.update(path.name.encode() + b"\0" + data)
    return total, h.hexdigest()


def layer_metrics(tr: Tracer, results, bytes_written: int, streamed) -> dict:
    tot = tr.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def per_call_us(name):
        return seconds(name) / calls(name) * 1e6 if calls(name) else 0.0

    steps = calls("solver.step")

    def per_step(value):
        return value / steps if steps else 0.0

    in_step = ("solver.step", "linalg.solve_spd")
    applies = per_step(tr.count("op_apply", in_step))
    grads = per_step(tr.count("gradient", in_step))
    records = sum(len(r.records) for r in results)
    step_self = tot.get("solver.step", (0, 0.0, 0.0))[2]
    return {
        "solver.step_us": per_call_us("solver.step"),
        "solver.step_self_us": per_step(step_self) * 1e6,
        "linalg.solve_spd_us": per_call_us("linalg.solve_spd"),
        "linalg.cg_iters_per_step": per_step(tr.count("cg_iters")),
        "linalg.op_applies_per_iter": applies,
        "linalg.op_bytes_per_iter": applies * streamed[0],
        "problem.grad_calls_per_iter": grads,
        "problem.grad_bytes_per_iter": grads * streamed[1],
        "solver.iterations": steps,
        "problem.kkt_residuals_us": per_call_us("problem.kkt_residuals"),
        "diagnostics.gap_us": per_call_us("diagnostics.gap"),
        "diagnostics.energy_us": per_call_us("diagnostics.energy"),
        "problem.value_calls_per_record": tr.count("value") / records if records else 0.0,
        "diagnostics.records": records,
        "inertial.certify_s": seconds("inertial.certify"),
        "cli.self_s": tot.get("cli", (0, 0.0, 0.0))[2],
        "cli.bytes_written": bytes_written,
        "diagnostics.rate_fit_us": per_call_us("diagnostics.rate_fit"),
        "benchgen.generate_s": seconds("benchgen.generate"),
        "oracle.kkt_solve_s": seconds("oracle.kkt_solve"),
        "solver.validate_s": seconds("solver.validate"),
        "linalg.op_norm_sq_s": seconds("linalg.op_norm_sq"),
        "linalg.op_norm_sq_iters": tr.count("op_norm_sq_iters"),
        "cli.load_experiment_s": seconds("cli.load_experiment"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    tr = Tracer()
    t = time.perf_counter()
    import numpy as np
    import falm
    import falm.cli
    import falm.diagnostics
    import falm.solver
    import_s = time.perf_counter() - t
    if not Path(falm.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported falm from {falm.__file__}, expected {SRC}", file=sys.stderr)
        return 2

    seen = {"results": [], "qps": [], "bytes": (0, 0)}
    install_hooks(falm, tr, args.trace, seen)
    # Imported after the package: importing numpy belongs to set-up time.
    from speed import Reference
    t = time.perf_counter()
    ref = Reference("gemv" if args.workload == "tol_cls1000_matfree" else "small")
    ref_build_s = time.perf_counter() - t
    sample_speed(falm, tr, ref, SAMPLE_EVERY[args.workload])
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    labels = [r["label"] for r in doc["runs"]]
    cls = args.workload == "tol_cls1000_matfree"
    out: dict = {}

    if args.mode == "setup":
        if cls:
            cls_setup(falm, tr, doc, False, seen)
        else:
            cli_setup(falm, args.config)
        for _ in range(SETUP_SAMPLES):
            ref.sample()
        out["setup_raw_s"] = setup_seconds(tr, import_s)
        out["speed"] = ref.scale()
        out["setup_s"] = out["setup_raw_s"] * out["speed"]
        print(json.dumps(out))
        return 0

    if cls:
        for prob, params, cfg in cls_setup(falm, tr, doc, args.trace, seen):
            seen["results"].append(tr.call(RUN_SPAN, falm.solver.run, prob, params, cfg=cfg))
        wall_s = sum(e - s for n, s, e, *_ in tr.spans if n == RUN_SPAN) - ref.seconds
        reason, tol = "kkt tolerance", CLS_TOL
        out["exit_code"] = None
    else:
        ratecheck = args.workload.startswith("ratecheck")
        command = (["ratecheck", args.config, args.thresholds] if ratecheck
                   else ["run", args.config])
        try:
            tr.call("cli", falm.cli.main, command)
            code = 0
        except SystemExit as exc:
            code = exc.code
        wall_s = time.perf_counter() - T_START - ref_build_s - ref.seconds
        out["exit_code"] = code
        reason = "iteration budget"
        tol = None if ratecheck else GRID_TOL
        if ratecheck:
            verdict = Path("out", "ratecheck.json")
            out["verdict"] = (json.loads(verdict.read_text())["ok"]
                              if verdict.is_file() else None)
    out.update(usage())
    out["speed"] = ref.scale()
    out["wall_raw_s"] = wall_s
    out["setup_raw_s"] = setup_seconds(tr, import_s)
    out["wall_s"] = wall_s * out["speed"]
    out["setup_s"] = out["setup_raw_s"] * out["speed"]

    # Output checks, outside every timed span.
    bytes_written, out["outputs_digest"] = output_files(Path("out"))
    references = [falm.kkt_solve(qp) if tol is not None else None for qp in seen["qps"]]
    if len(references) == 1:  # every CLI run solves the config's one instance
        references *= len(labels)
    results = seen["results"]
    if len(results) == len(labels) == len(references):
        out["runs"] = {label: check_run(np, res, reason, ref, tol)
                       for label, res, ref in zip(labels, results, references)}
    else:
        print(f"error: {len(results)} solver runs for {len(labels)} labels",
              file=sys.stderr)
        out["runs"] = {}
    if args.trace:
        out["layers"] = layer_metrics(tr, results, bytes_written, seen["bytes"])
        out["spans"] = tr.totals()
        if args.spans:
            tr.dump(args.spans, T_START)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
