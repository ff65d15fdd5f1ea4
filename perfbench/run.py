"""anisomesh benchmark: three workloads, one per edge-decision path.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload adapt-expbump --seed 1 --seconds 30 --trace 0

Workloads (see worker.py for what one round does):

  adapt-expbump      closed-form convex decision; `anisomesh run` + `render`
  decide-quadrature  quadrature L1 and lp-split (p=inf) decisions on seeded
                     random root triangles; greedy runs + `render`
  uniform-sigma      `anisomesh sigma-study`: uniform bisection, no heap, no
                     error kernel, no trace; + `render --color-by sigma`

The seed only draws the random roots of decide-quadrature; the other two
workloads have fixed inputs.  Everything runs single-process and
single-threaded (BLAS threads pinned to 1) against ``src/`` of the
checkout, each part in a fresh process: set-up probes, a one-round
process whose peak RSS is reported, and the measuring process.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

  setup_s        median over fresh processes of importing anisomesh,
                 building the field catalog and filling the first-call
                 quadrature caches
  us_per_leaf    median over rounds of refinement wall / leaves produced
  render_s       median over rounds of the round's `anisomesh render` wall
  peak_rss_mb    ru_maxrss of a fresh process that runs one round (no
                 output checks, no calibration)
  n_error_ratio  geometric mean over ops of N * global error divided by
                 ||sqrt|det d2f|||_Ltau (the paper's quality figure)

Times are scaled to a reference machine speed (calibration.py): each op
time is multiplied by REFERENCE_S over the calibration kernel's time
measured in the same process just before and after the op.  The unscaled
medians are printed beside them.

With ``--trace 1`` the rounds alternate untraced and traced, and the last
line carries per-layer metrics: counts and self times per round, from
spans recorded around the package's functions by tracer.py.  Self times
of all layers plus ``unattributed.self_s`` equal ``trace.op_wall_s``.

Failed ops (an exception, a non-zero exit code or a wrong output) are
counted in ``failed`` and ``attempted``; ``correct`` is true when none
failed.  A report with every op, the output sha256 hashes, versions and
the span file of a traced run are written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from calibration import REFERENCE_S  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# metric names and units are declared once, in BENCHMARK.json
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="ascii") as _fh:
    BENCH = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import anisomesh
from anisomesh import approx, fields, geometry
catalog = fields.builtin_catalog()
tri = geometry.reference_triangle()
for f in catalog:
    approx.local_error(tri, f, 2.0)
    approx.local_error(tri, f, float("inf"))
setup = time.perf_counter() - t0
import sys
sys.path.insert(0, sys.argv[1])
from calibration import calibrate
print(repr(setup), repr(calibrate()))
"""


def bench_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark time limit reached")
    return left


def time_setup(env: dict, deadline: float) -> list[tuple[float, float]]:
    """(set-up s, calibration s) of SETUP_REPEATS fresh processes, after a warm-up."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, HERE], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=remaining(deadline))
        if i:
            setup, cal = out.stdout.strip().splitlines()[-1].split()
            times.append((float(setup), float(cal)))
    return times


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(report: dict, setup: list[tuple[float, float]]) -> dict:
    """End-to-end metrics; times are scaled to the calibration reference speed.

    An op's wall time is multiplied by REFERENCE_S over the mean of the
    calibration times measured just before and just after it; a set-up
    time by REFERENCE_S over the calibration time of its own process.
    """
    rounds = []
    for ops, cal in zip(report["rounds"], report["round_cal_s"]):
        if all(op["ok"] for op in ops):
            # cal[i] ran just before op i and cal[i + 1] just after it
            rounds.append([(op, REFERENCE_S * 2.0 / (cal[i] + cal[i + 1]))
                           for i, op in enumerate(ops)])
    if not rounds:
        raise RuntimeError("no round completed without a failed op")

    def per_round(kind, scaled, per_leaf):
        values = []
        for r in rounds:
            ops = [(op, k if scaled else 1.0) for op, k in r if op["kind"] == kind]
            wall = sum(op["wall"] * k for op, k in ops)
            values.append(1e6 * wall / sum(op["leaves"] for op, _ in ops) if per_leaf else wall)
        return values

    raw = {
        "setup_s": [t for t, _ in setup],
        "us_per_leaf": per_round("refine", False, True),
        "render_s": per_round("render", False, False),
    }
    scaled = {
        "setup_s": [REFERENCE_S / cal * t for t, cal in setup],
        "us_per_leaf": per_round("refine", True, True),
        "render_s": per_round("render", True, False),
    }
    metrics = {}
    for name, values in scaled.items():
        spread = quartiles(values)
        spread["raw_median"] = statistics.median(raw[name])
        metrics[name] = (spread["median"], spread)
    ratios = [op["ratio"] for op in report["ops"] if op["ok"] and op["ratio"] is not None]
    metrics["peak_rss_mb"] = (report["maxrss_kb"] / 1024.0, None)
    metrics["n_error_ratio"] = (math.exp(statistics.fmean(math.log(r) for r in ratios)), None)
    return metrics


def per_layer(report: dict) -> dict:
    """Per-round means of the traced counters and self times."""
    traced = report["traced_rounds"]
    n = len(traced)
    c = {k: v / n for k, v in report["counts"].items()}
    selfs = {k: v / n for k, v in report["self_s"].items()}
    incl = {k: v / n for k, v in report["inclusive_s"].items()}
    refine_counts = report["refine_counts"]
    wall_traced = incl.get("op.refine", 0.0) + incl.get("op.render", 0.0)
    plain = report["rounds"]
    wall_plain = sum(op["wall"] for r in plain for op in r) / len(plain)
    bisections = refine_counts.get("engine.bisect_node.calls", 0)
    pops = refine_counts.get("engine.heap.pops", 0)
    peak, nodes = report["memory_probe"]
    values = {
        "geometry.triangle.constructed": c.get("geometry.triangle.calls", 0.0),
        "approx.local_error.per_bisection":
            refine_counts.get("approx.local_error.calls", 0) / bisections if bisections else 0.0,
        "engine.heap.useful_ratio": bisections / pops if pops else 0.0,
        "engine.trace.records": c.get("engine.trace.calls", 0.0),
        "engine.forest.bytes_per_node": peak / nodes,
        "analysis.hessian_tau_norm.s": report["hessian_tau_norm_s"],
        "unattributed.self_s": selfs.get("op.refine", 0.0) + selfs.get("op.render", 0.0),
        "trace.op_wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.spans": report["spans"] / n,
    }
    metrics = {}
    for m in BENCH["per_layer"]:
        name = m["name"]
        layer, _, kind = name.rpartition(".")
        if name in values:
            value = values[name]
        elif kind == "self_s":
            value = selfs.get(layer, 0.0)
        elif kind == "s":
            value = incl.get(layer, 0.0)
        else:
            value = c.get(name, 0.0)
        metrics[name] = (value, None)
    return metrics


def git_sha() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="anisomesh benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("adapt-expbump", "decide-quadrature", "uniform-sigma"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="op sizes; 'tiny' is for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join("src", "anisomesh", "__init__.py")):
        print("error: run from the root of an anisomesh checkout (src/anisomesh missing)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = bench_env()
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report_path = stem + ".json"
    try:
        setup = [] if args.trace else time_setup(env, deadline)
        worker = [sys.executable, os.path.join(HERE, "worker.py"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--size", args.size]
        if not args.trace:
            subprocess.run(worker + ["--report", stem + "-rss.json", "--probe-rss"],
                           env=env, check=True, timeout=remaining(deadline))
        spans = ["--spans", stem + "-spans.npz"] if args.trace else []
        subprocess.run(worker + ["--report", report_path] + spans, env=env, check=True,
                       timeout=remaining(deadline))
        with open(report_path, encoding="ascii") as fh:
            report = json.load(fh)
        if args.trace:
            metrics = per_layer(report)
        else:
            with open(stem + "-rss.json", encoding="ascii") as fh:
                probe = json.load(fh)
            report["maxrss_kb"] = probe["maxrss_kb"]
            metrics = end_to_end(report, setup)
            report["ops"] += probe["ops"]  # attempted, but not measured
    except (OSError, subprocess.SubprocessError, TimeoutError, RuntimeError,
            ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    ops = report["ops"]
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"FAILED {op['kind']}: {op['reason']}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(report["rounds"]), "traced_rounds": len(report["traced_rounds"]),
        "failed_ops": len(failed) / len(ops),
        "python": platform.python_version(), "numpy": report["numpy"],
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
    }
    report["info"] = info
    report["metrics"] = {k: {"value": v, "unit": UNITS[k], "spread": q}
                         for k, (v, q) in metrics.items()}
    with open(report_path, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
    for name, (value, spread) in metrics.items():
        extra = ""
        if spread is not None:
            extra = (f"  (median of n={spread['n']}, q1 {spread['q1']:.6g}, "
                     f"q3 {spread['q3']:.6g}; unscaled median {spread['raw_median']:.6g})")
        print(f"{name:36s} {value:.6g} {UNITS[name]}{extra}")
    print(f"failed_ops {len(failed)}/{len(ops)} = {info['failed_ops']:.6g}")
    # the first round's outputs are the same inputs on every commit, so
    # their hashes say whether a change altered output bytes
    info["outputs"] = {kind: {"first_sha256": hashes[0], "distinct": len(set(hashes))}
                       for kind, hashes in report["outputs"].items()}
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
