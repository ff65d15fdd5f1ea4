"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script with ``src/`` on ``PYTHONPATH`` and BLAS
threads pinned to 1.  The script runs rounds of ops for the measuring
time, checks every op's outputs, and writes a JSON report for ``run.py``
to aggregate.  With ``--probe-rss`` it runs one round without checks and
reports only its own peak RSS.

A round is the unit of timing:

* ``adapt-expbump``: ``anisomesh run`` (expbump, p=2, unit square, closed
  form convex decision) to N leaves, then ``anisomesh render`` of that mesh
  coloured by local error;
* ``decide-quadrature``: two greedy runs on the same seeded random roots,
  ``mixed-saddle`` p=2 with the quadrature L1 decision and ``aniso-100``
  p=inf with ``lp-split``, each followed by a render coloured by error;
* ``uniform-sigma``: ``anisomesh sigma-study`` on ``aniso-10`` (uniform
  refinement, no heap, no error kernel, no trace), then a render coloured
  by sigma_q of a uniform mesh built once per run.

An op that raises, returns a non-zero exit code or writes a wrong output
is recorded as failed with its reason; it never stops the run.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from anisomesh import analysis, cli, engine, fields
from anisomesh.engine import GreedyConfig, RefinementForest, StopRule
from anisomesh.geometry import Triangle
from calibration import calibrate
from tracer import Tracer

# Sizes of one op.  "tiny" exists for the benchmark's own smoke test.
SIZES = {
    "full": {"adapt_n": 16384, "band": (1024, 4096, 16384), "decide_n": 1024,
             "roots": 2, "sigma_levels": 5, "render_sweeps": 12},
    "tiny": {"adapt_n": 256, "band": (64, 128, 256), "decide_n": 64,
             "roots": 2, "sigma_levels": 2, "render_sweeps": 4},
}
# criterion 7: N * error at the band checkpoints stays within this factor
BAND_MAX_SPREAD = 3.0
AREA_RTOL = 1e-12


class OpFailed(Exception):
    """An output check failed; the message says which."""


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("ascii")).hexdigest()


def read(path) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def write(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def tri_areas(verts: np.ndarray) -> np.ndarray:
    d1 = verts[:, 1] - verts[:, 0]
    d2 = verts[:, 2] - verts[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def parse_leaf_vertices(text: str) -> np.ndarray:
    """Leaf vertex array (n, 3, 2) read from mesh text independently of anisomesh."""
    verts, tris, leaves = [], [], []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if parts[0] == "v":
            verts.append((float(parts[1]), float(parts[2])))
        elif parts[0] == "t":
            tris.append([int(s) for s in parts[1:4]])
        elif parts[0] == "leaf":
            leaves.append(int(parts[1]))
    return np.array(verts)[np.array(tris)[leaves]]


def check_mesh(text: str, n_leaves: int, root_area: float, forest=None) -> None:
    """Leaf count, area sum and a bit-identical reload of one mesh text.

    With ``forest`` the reload is compared with the forest that was
    written; otherwise with an independent parse of the text, and the
    reloaded forest must serialize back to the same bytes.
    """
    leaves = parse_leaf_vertices(text)
    if len(leaves) != n_leaves:
        raise OpFailed(f"{len(leaves)} leaves, expected {n_leaves}")
    area = float(tri_areas(leaves).sum())
    if abs(area - root_area) > AREA_RTOL * root_area:
        raise OpFailed(f"leaf areas sum to {area!r}, roots to {root_area!r}")
    try:
        loaded = engine.mesh_from_text(text)
    except ValueError as exc:
        raise OpFailed(f"mesh does not reload: {exc}") from None
    expected = forest.leaf_vertex_array() if forest is not None else leaves
    if not np.array_equal(loaded.leaf_vertex_array(), expected):
        raise OpFailed("reloaded leaf vertices differ")
    if forest is None and engine.mesh_to_text(loaded) != text:
        raise OpFailed("reloaded mesh does not serialize to the same bytes")


def check_svg(text: str, n_leaves: int) -> None:
    n = text.count("<polygon ")
    if n != n_leaves:
        raise OpFailed(f"SVG has {n} polygons, expected {n_leaves}")


def csv_rows(text: str) -> list[dict]:
    head, *rows = text.strip().splitlines()
    keys = head.split(",")
    return [dict(zip(keys, (float(x) for x in r.split(",")))) for r in rows]


class Workload:
    """Inputs and ops of one workload.

    Subclasses define ``round(between)``, which runs one round of ops and
    calls ``between()`` between consecutive ops.
    """

    name = ""

    def __init__(self, size: dict, seed: int, workdir: str):
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.outputs: dict[str, list[str]] = {}
        self._verified: set[str] = set()
        self.tracer = None  # set while a traced round runs
        self.check_outputs = True
        self.tau_norm_s = 0.0
        self.tau_norm_calls = 0

    def path(self, name: str, fresh: bool = False) -> str:
        """Path in the work directory; ``fresh`` removes a stale file first."""
        path = os.path.join(self.dir, name)
        if fresh:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return path

    def measured(self, kind: str, fn, *args):
        """``(wall seconds, fn(*args))``; under a root span when tracing."""
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(*args)
        else:
            with self.tracer.root("op." + kind):
                out = fn(*args)
        return time.perf_counter() - t0, out

    def run_cli(self, kind: str, argv) -> float:
        """Wall seconds of one ``anisomesh`` command; raises if it fails."""
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            wall, rc = self.measured(kind, cli.main, argv)
        if rc != 0:
            raise OpFailed(f"exit code {rc}: {log.getvalue().strip()}")
        return wall

    def tau_norm(self, f, roots, p) -> float:
        """The rate target ||sqrt|det d2f|||_Ltau over ``roots``, timed."""
        t0 = time.perf_counter()
        target = analysis.hessian_tau_norm(f, roots, analysis.tau_from_p(p))
        self.tau_norm_s += time.perf_counter() - t0
        self.tau_norm_calls += 1
        return target

    def record(self, kind: str, text: str, check) -> None:
        """Hash an output and run ``check()`` unless these bytes passed it before."""
        digest = sha256(text)
        self.outputs.setdefault(kind, []).append(digest)
        if self.check_outputs and digest not in self._verified:
            check()
            self._verified.add(digest)

    def prepare(self) -> list[dict]:
        return []

    def op(self, kind: str, leaves: int, fn) -> dict:
        """Run ``fn() -> (wall, ratio)`` as one op and record its outcome."""
        res = {"kind": kind, "leaves": leaves, "wall": math.nan, "ratio": None,
               "ok": True, "reason": ""}
        try:
            res["wall"], res["ratio"] = fn()
        except Exception as exc:  # a failing op is reported, never fatal
            res["ok"] = False
            res["reason"] = f"{type(exc).__name__}: {exc}"
        return res

    def memory_probe(self) -> tuple[int, int]:
        """(tracemalloc peak bytes, forest nodes) of one refinement."""
        tracemalloc.start()
        try:
            forest = self.probe_forest()
            return tracemalloc.get_traced_memory()[1], len(forest.nodes)
        finally:
            tracemalloc.stop()


class AdaptExpbump(Workload):
    name = "adapt-expbump"
    field = "expbump"

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.n = size["adapt_n"]
        self.target = self.tau_norm(fields.get_field(self.field),
                                    engine.initial_mesh("unit-square"), 2.0)

    def refine(self):
        mesh, trace = self.path("mesh.txt", True), self.path("trace.csv", True)
        wall = self.run_cli("refine", [
            "run", "--field", self.field, "--p", "2", "--initial", "unit-square",
            "--target-n", str(self.n), "--mesh-out", mesh, "--trace-out", trace])
        text, trace_text = read(mesh), read(trace)
        rows = csv_rows(trace_text)

        def check_trace():
            if int(rows[-1]["n_leaves"]) != self.n:
                raise OpFailed(f"trace ends at {rows[-1]['n_leaves']} leaves")
            products = {}
            for r in rows:
                products.setdefault(int(r["n_leaves"]), r["n_leaves"] * r["global_error"])
            band = [products[k] for k in self.size["band"]]
            if max(band) / min(band) > BAND_MAX_SPREAD:
                raise OpFailed(f"N*error band {band} spreads more than {BAND_MAX_SPREAD}x")

        self.record("mesh", text, lambda: check_mesh(text, self.n, 1.0))
        self.record("trace_csv", trace_text, check_trace)
        return wall, self.n * rows[-1]["global_error"] / self.target

    def render(self):
        svg = self.path("mesh.svg", True)
        wall = self.run_cli("render", [
            "render", self.path("mesh.txt"), "--svg-out", svg,
            "--color-by", "error", "--field", self.field])
        text = read(svg)
        self.record("svg", text, lambda: check_svg(text, self.n))
        return wall, None

    def round(self, between):
        refine = self.op("refine", self.n, self.refine)
        between()
        return [refine, self.op("render", self.n, self.render)]

    def probe_forest(self):
        config = GreedyConfig(p=2.0, stop=StopRule("target-count", self.n),
                              initial="unit-square")
        return engine.greedy_run(fields.get_field(self.field), config)[0]


class DecideQuadrature(Workload):
    name = "decide-quadrature"
    # (field, p, decision): the quadrature L1 decision on an indefinite
    # quadratic and the lp-split decision in max norm on an anisotropic one
    paths = (("mixed-saddle", 2.0, "l1-interp"), ("aniso-100", math.inf, "lp-split"))

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.n = size["decide_n"]

    def random_roots(self) -> list[Triangle]:
        """Unit-square triangles with area >= 0.02 and diam^2/area <= 40."""
        roots = []
        while len(roots) < self.size["roots"]:
            v = self.rng.uniform(0.0, 1.0, (3, 2))
            area = float(tri_areas(v[None])[0])
            if area < 0:
                v, area = v[[0, 2, 1]], -area
            e = v[[2, 0, 1]] - v[[1, 2, 0]]
            if area >= 0.02 and (e * e).sum(axis=1).max() / area <= 40.0:
                roots.append(Triangle(v))
        return roots

    def config(self, p, decision, roots) -> GreedyConfig:
        return GreedyConfig(p=p, decision=decision, stop=StopRule("target-count", self.n),
                            initial=tuple(roots))

    def refine(self, label, p, decision, roots):
        f = fields.get_field(label)
        mesh = self.path(f"{label}.txt", True)
        wall, (forest, trace) = self.measured(
            "refine", engine.greedy_run, f, self.config(p, decision, roots))
        text = engine.mesh_to_text(forest)
        root_area = float(tri_areas(np.array([t.vertices for t in roots])).sum())
        self.record("mesh", text, lambda: check_mesh(text, self.n, root_area, forest))
        write(mesh, text)
        return wall, self.n * trace[-1].global_error / self.tau_norm(f, roots, p)

    def render(self, label, p):
        svg = self.path(f"{label}.svg", True)
        wall = self.run_cli("render", [
            "render", self.path(f"{label}.txt"), "--svg-out", svg,
            "--color-by", "error", "--field", label, "--p", str(p)])
        text = read(svg)
        self.record("svg", text, lambda: check_svg(text, self.n))
        return wall, None

    def round(self, between):
        roots = self.random_roots()
        ops = []
        for label, p, decision in self.paths:
            if ops:
                between()
            ops.append(self.op("refine", self.n, lambda: self.refine(label, p, decision, roots)))
            between()
            ops.append(self.op("render", self.n, lambda: self.render(label, p)))
        return ops

    def probe_forest(self):
        label, p, decision = self.paths[0]
        config = self.config(p, decision, self.random_roots())
        return engine.greedy_run(fields.get_field(label), config)[0]


class UniformSigma(Workload):
    name = "uniform-sigma"
    field = "aniso-10"

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.levels = size["sigma_levels"]
        self.n = 8 ** self.levels
        self.render_n = 2 ** size["render_sweeps"]

    def prepare(self):
        """Build the uniform mesh that each round renders (not timed).

        Its N * error ratio is this workload's quality figure, since the
        sigma study itself writes no mesh.
        """
        def build():
            f = fields.get_field(self.field)
            roots = engine.initial_mesh("ref-triangle")
            forest = engine.uniform_refine(RefinementForest(roots), f, GreedyConfig(),
                                           self.size["render_sweeps"])
            text = engine.mesh_to_text(forest)
            self.record("render_input_mesh", text,
                        lambda: check_mesh(text, self.render_n, 0.5, forest))
            write(self.path("uniform.txt"), text)
            error = engine.global_error(forest, f, 2.0)
            return 0.0, self.render_n * error / self.tau_norm(f, roots, 2.0)
        return [self.op("prepare", self.render_n, build)]

    def refine(self):
        csv = self.path("sigma.csv", True)
        wall = self.run_cli("refine", [
            "sigma-study", "--field", self.field, "--levels", str(self.levels),
            "--csv-out", csv])
        text = read(csv)

        def check():
            rows = csv_rows(text)
            if len(rows) != self.levels + 1:
                raise OpFailed(f"{len(rows)} sigma rows, expected {self.levels + 1}")
            if int(rows[-1]["count"]) != self.n:
                raise OpFailed(f"final count {rows[-1]['count']}, expected {self.n}")
            if rows[-1]["fraction_above"] != 0.0:
                raise OpFailed(f"fraction_above {rows[-1]['fraction_above']} != 0")

        self.record("sigma_csv", text, check)
        return wall, None

    def render(self):
        svg = self.path("uniform.svg", True)
        wall = self.run_cli("render", [
            "render", self.path("uniform.txt"), "--svg-out", svg,
            "--color-by", "sigma", "--field", self.field])
        text = read(svg)
        self.record("svg", text, lambda: check_svg(text, self.render_n))
        return wall, None

    def round(self, between):
        refine = self.op("refine", self.n, self.refine)
        between()
        return [refine, self.op("render", self.render_n, self.render)]

    def probe_forest(self):
        forest = RefinementForest(engine.initial_mesh("ref-triangle"))
        return engine.uniform_refine(forest, fields.get_field(self.field), GreedyConfig(),
                                     3 * self.levels)


WORKLOADS = {w.name: w for w in (AdaptExpbump, DecideQuadrature, UniformSigma)}


def run_rounds(wl: Workload, seconds: float, tracer=None) -> dict:
    """Rounds for ``seconds``: at least one, and no round that would not fit.

    Untraced, every round is measured, with the calibration kernel before,
    between and after its ops.  Traced, each measured round is followed by
    a round on the same inputs under the tracer, so the tracing overhead is
    measured on the same inputs and machine state.
    """
    report = {"ops": wl.prepare(), "rounds": [], "round_cal_s": [], "traced_rounds": []}
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        state = wl.rng.bit_generator.state
        cal = [calibrate()]
        ops = wl.round(lambda: cal.append(calibrate()))
        cal.append(calibrate())
        report["rounds"].append(ops)
        report["round_cal_s"].append(cal)
        report["ops"].extend(ops)
        if tracer is not None:
            wl.rng.bit_generator.state = state
            wl.tracer = tracer
            try:
                with tracer.installed():
                    ops = wl.round(lambda: None)
            finally:
                wl.tracer = None
            report["traced_rounds"].append(ops)
            report["ops"].extend(ops)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--report", required=True, help="JSON report path")
    ap.add_argument("--spans", help="span file written by a traced run (.npz)")
    ap.add_argument("--probe-rss", action="store_true",
                    help="run one round without checks and report only the peak RSS")
    args = ap.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(os.path.abspath(args.report)))
    try:
        wl = WORKLOADS[args.workload](SIZES[args.size], args.seed, workdir)
        if args.probe_rss:
            wl.check_outputs = False
            report = {"ops": wl.prepare() + wl.round(lambda: None)}
            report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            write(args.report, json.dumps(report))
            return 0
        tracer = Tracer() if args.trace else None
        report = run_rounds(wl, args.seconds, tracer)
        if tracer is not None:
            if args.spans:
                tracer.write(args.spans)
            report["self_s"] = tracer.self_times()
            report["refine_self_s"] = tracer.self_times("op.refine")
            report["inclusive_s"] = tracer.inclusive_times()
            report["counts"] = dict(tracer.counts)
            report["refine_counts"] = dict(tracer.root_counts["op.refine"])
            report["spans"] = len(tracer.start)
            report["memory_probe"] = wl.memory_probe()
        report["hessian_tau_norm_s"] = wl.tau_norm_s / wl.tau_norm_calls
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["outputs"] = wl.outputs
    report["numpy"] = np.__version__
    write(args.report, json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
