"""falm benchmark runner.

    python3 benchmarks/run.py --workload NAME [--seed 7] [--seconds 30] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy. Each repetition runs in a
fresh interpreter (``rep.py``), one at a time, because every CLI user pays
import and set-up on every call. BLAS is pinned to one thread and
``FALM_THREADS`` is removed, which is the shipped default.

Times are reported at a reference machine speed, measured by a kernel that
each repetition interleaves with the program's solver steps (``speed.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from traced repetitions that alternate with untraced ones. The line before it
records the environment. Workloads, checks and metrics are described in
``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIPPED_CONFIG = ROOT / "configs" / "qp_cd.json"
SHIPPED_THRESHOLDS = ROOT / "configs" / "thresholds.json"
REQUIRED = (ROOT / "src" / "falm" / "__init__.py", SHIPPED_CONFIG, SHIPPED_THRESHOLDS)

WORKLOADS = ("ratecheck_qp50", "record_grid_qp50", "tol_cls1000_matfree")
DEFAULT_SEED = 7          # the seed the shipped CI config uses
BLAS_THREADS = 1          # at most nproc; rounding of gemv results depends on it
SETUP_REPS = 2            # set-up-only repetitions per untraced run
MIN_FULL_REPS = 2         # the determinism check compares repetitions
EXIT_BY_S = 170.0         # every run must end within 180 s

# record_grid_qp50: the acceptance grid's rules and penalty weights on the CI
# instance, every iteration recorded.
GRID_RULES = ("nesterov", "cd3", "cd4", "ac4")
GRID_BETAS = (0.5, 1.0)
GRID_ITERS = 1000

# tol_cls1000_matfree: the library path on a matrix-free operator, one cd4 run
# per instance. Iterations to tolerance vary between instances (595 to 811 on
# seeds 1-10), so a repetition solves CLS_INSTANCES instances drawn from the
# seed and reports their total time.
CLS_PROBLEM = {"kind": "constrained_least_squares", "n": 1000, "p": 200, "cond": 100.0}
CLS_INSTANCES = 3
CLS_RUN = {"rule": {"rule": "chambolle_dossal", "alpha": 4.0}, "beta": 1.0,
           "kkt_tol": 1e-3, "max_iter": 20_000, "record_every": 100}

WORK_DIR = ".bench_work"
TRACE_DIR = ".bench_trace"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="falm benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare(workload: str, seed: int, work: Path) -> tuple[list[str], list[str]]:
    """Write the workload's inputs; return rep.py arguments and run labels."""
    args = []
    if workload == "tol_cls1000_matfree":
        doc = {"problem": CLS_PROBLEM, **CLS_RUN,
               "runs": [{"label": f"seed{seed + 1000 * j}", "seed": seed + 1000 * j}
                        for j in range(CLS_INSTANCES)]}
    else:
        doc = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
        doc["problem"]["seed"] = seed
        doc["output_dir"] = "out"
    if workload == "record_grid_qp50":
        rules = {r["label"]: r["rule"] for r in doc["runs"]}
        doc["runs"] = [{"label": f"{name}_b{beta}", "rule": rules[name], "beta": beta,
                        "max_iter": GRID_ITERS, "record_every": 1}
                       for name in GRID_RULES for beta in GRID_BETAS]
    elif workload == "ratecheck_qp50":
        args = ["--thresholds", str(SHIPPED_THRESHOLDS)]
    path = work / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return ["--config", str(path)] + args, [r["label"] for r in doc["runs"]]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FALM_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((ROOT / "src" / "falm").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "FALM_THREADS": None,
            "src_falm_lines": lines}


def cpu_pressure() -> str | None:
    text = read_text("/proc/pressure/cpu")
    return text.splitlines()[0] if text else None


def run_rep(workload: str, mode: str, seed: int, extra: list[str], work: Path,
            index: int, timeout: float) -> tuple[dict | None, float]:
    rep_dir = work / f"rep{index}"
    rep_dir.mkdir()
    cmd = [sys.executable, str(HERE / "rep.py"), workload, "--mode",
           "full" if mode != "setup" else "setup"] + extra
    if mode == "traced":
        cmd += ["--trace", "--spans",
                str(ROOT / TRACE_DIR / f"{workload}_seed{seed}.json")]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=rep_dir, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"rep {index} ({mode}) timed out after {timeout:.0f} s", file=sys.stderr)
        return None, time.perf_counter() - t
    elapsed = time.perf_counter() - t
    shutil.rmtree(rep_dir)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"rep {index} ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def command_ok(workload: str, seed: int, rep: dict) -> bool:
    """Exit status of the command. Off the default seed a failed rate gate
    (exit 1, ok false) is a verdict, not a failed operation."""
    code = rep["exit_code"]
    if workload == "ratecheck_qp50":
        if seed == DEFAULT_SEED:
            return code == 0 and rep["verdict"] is True
        return code in (0, 1) and rep["verdict"] is (code == 0)
    if workload == "record_grid_qp50":
        return code == 0
    return True


def judge(workload: str, seed: int, labels: list[str], reps: list[dict | None]):
    """Count failed solver runs; every repetition must reproduce the first."""
    attempted = failed = 0
    done = [r for r in reps if r is not None]
    first_files = done[0]["outputs_digest"] if done else None
    first_runs = {label: run["digest"] for r in done[:1] for label, run in r["runs"].items()}
    for i, rep in enumerate(reps):
        attempted += len(labels)
        if rep is None:
            failed += len(labels)
            continue
        cmd_ok = command_ok(workload, seed, rep)
        same_files = rep["outputs_digest"] == first_files
        if not cmd_ok or not same_files:
            print(f"rep {i}: exit {rep['exit_code']}, verdict {rep.get('verdict')}, "
                  f"outputs identical to the first rep: {same_files}", file=sys.stderr)
        for label in labels:
            run = rep["runs"].get(label)
            ok = cmd_ok and same_files and run is not None and run["ok"]
            if run is not None and run["digest"] != first_runs.get(label):
                print(f"rep {i}: run {label} records differ from the first rep",
                      file=sys.stderr)
                ok = False
            if run is not None and not run["ok"]:
                print(f"rep {i}: run {label} failed its check: {run}", file=sys.stderr)
            failed += not ok
    return attempted, failed


def schedule(trace: bool):
    """Repetition kinds: the ones every run makes, then the optional ones."""
    if trace:
        return ["plain", "traced"], itertools.cycle(["plain", "traced"])
    return (["setup"] * SETUP_REPS + ["plain"] * MIN_FULL_REPS,
            itertools.repeat("plain"))


LOGGED = ("wall_s", "wall_raw_s", "speed", "cpu_s", "setup_s", "exit_code", "verdict")


def measure(args, work: Path, extra: list[str]) -> dict[str, list]:
    start = time.perf_counter()
    required, optional = schedule(bool(args.trace))
    reps: dict[str, list] = {"setup": [], "plain": [], "traced": []}
    longest: dict[str, float] = {}
    index = 0
    while True:
        kind = required[index] if index < len(required) else next(optional)
        elapsed = time.perf_counter() - start
        if index >= len(required) and (elapsed + longest[kind] > args.seconds
                                       or elapsed + longest[kind] > EXIT_BY_S):
            break
        rep, took = run_rep(args.workload, kind, args.seed, extra, work, index,
                            timeout=max(1.0, EXIT_BY_S - elapsed))
        longest[kind] = max(longest.get(kind, 0.0), took)
        reps[kind].append(rep)
        shown = {k: rep[k] for k in LOGGED if k in rep} if rep else "FAILED"
        print(f"rep {index} {kind}: {took:.3f} s {shown}", file=sys.stderr)
        index += 1
        if rep is None and kind != "setup":
            break
    return reps


def end_to_end(reps: dict[str, list], runs_ok: float) -> dict[str, float]:
    full = [r for r in reps["plain"] if r is not None]
    setups = [r["setup_s"] for r in reps["setup"] + full if r is not None]
    return {"wall_s": statistics.median([r["wall_s"] for r in full]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in full]),
            "runs_ok": runs_ok}


def per_layer(reps: dict[str, list], units: dict[str, str]) -> tuple[dict, bool]:
    traced_reps = [r for r in reps["traced"] if r is not None]
    traced = [r["layers"] for r in traced_reps]
    plain = [r["wall_s"] for r in reps["plain"] if r is not None]
    out = {name: statistics.median([t[name] for t in traced]) for name in traced[0]}
    out["trace.overhead"] = (statistics.median([t["wall_s"] for t in traced_reps])
                             / statistics.median(plain))
    exact = True
    for name, unit in units.items():
        if unit in ("count", "B") and len({t[name] for t in traced}) > 1:
            print(f"count {name} differs across traced reps: "
                  f"{[t[name] for t in traced]}", file=sys.stderr)
            exact = False
    return out, exact


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a falm source checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    (ROOT / TRACE_DIR).mkdir(exist_ok=True)
    work = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    pressure_before = cpu_pressure()
    try:
        extra, labels = prepare(args.workload, args.seed, work)
        reps = measure(args, work, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    full = reps["plain"] + reps["traced"]
    if not any(r is not None for r in reps["plain"]) or (
            args.trace and not any(r is not None for r in reps["traced"])):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    attempted, failed = judge(args.workload, args.seed, labels, full)
    attempted += len(reps["setup"])
    failed += sum(r is None for r in reps["setup"])
    if args.trace:
        values, exact = per_layer(reps, units)
        correct = failed == 0 and exact
    else:
        values = end_to_end(reps, (attempted - failed) / attempted)
        correct = failed == 0
    if set(values) != set(units):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    env = environment()
    done = [r for r in full if r is not None]
    env.update(seed=args.seed, workload=args.workload, trace=args.trace,
               reps={k: len(v) for k, v in reps.items()},
               exit_codes=[r["exit_code"] for r in done],
               verdicts=[r.get("verdict") for r in done],
               max_err={k: max((run.get(k, 0.0) for r in done for run in r["runs"].values()),
                               default=None) for k in ("x_err", "lam_err")},
               cpu_pressure_before=pressure_before, cpu_pressure_after=cpu_pressure())
    if args.trace:
        # Calls, total and self seconds per span name, from the first traced rep.
        env["spans"] = next(r["spans"] for r in reps["traced"] if r is not None)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
