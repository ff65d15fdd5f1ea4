"""Quantitative verification suites for the refinement machinery.

Three empirical questions are answered here: how fast the shape measure
sigma_q washes out under uniform refinement of a quadratic (sigma_study),
whether the product N * ||f - f_N||_Lp stabilizes against the hessian
tau-norm that governs the optimal rate (convergence_study), and how tight
the equivalence between local errors and sigma_q * ||sqrt(det q)||_Ltau is
in practice (equivalence_constant_probe).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import approx, engine
from .engine import GreedyConfig, RefinementForest, StopRule
from .fields import QuadraticField, ScalarField
from .geometry import (QuadForm, Triangle, areas_of, bisect, edge_vectors_of, sigma,
                       sigma_batch)

__all__ = [
    "R0",
    "SIGMA_THRESHOLD",
    "tau_from_p",
    "gamma_factor",
    "SigmaStats",
    "ConvergencePoint",
    "hessian_tau_norm",
    "sigma_study",
    "convergence_study",
    "equivalence_constant_probe",
    "random_pd_form",
    "random_triangle",
    "sigma_csv",
    "convergence_csv",
    "trace_csv",
]

# Exponent for which three refinement levels contract the mean of sigma^r.
R0 = math.log(2.0) / (math.log(4.0) - math.log(3.0))

# Shape-measure level below which a triangle counts as well adapted.
SIGMA_THRESHOLD = 5.0

# Spread constant of the delta-near bisection perturbation bounds.
C2 = 61.0 / 4.0


def tau_from_p(p) -> float:
    """The exponent tau with 1/tau = 1/p + 1."""
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    return 1.0 if math.isinf(p) else p / (p + 1.0)


def gamma_factor(r: float, mu: float = 0.0) -> float:
    """Contraction rate of the mean of sigma^r per 3-bisection level.

    ``(0.69 (1+C2 mu))^r / 8 + 7 (1+C2 mu)^r / 8``; below 1 for mu small.
    """
    u = 0.69 * (1.0 + C2 * mu)
    v = 1.0 + C2 * mu
    return (u ** r + 7.0 * v ** r) / 8.0


@dataclass(frozen=True)
class SigmaStats:
    """Distribution summary of sigma_q over the leaves at one level."""

    level: int
    count: int
    mean: float
    max: float
    fraction_above: float  # share of leaves with sigma >= threshold
    mean_pow_r0: float     # mean of sigma ** R0


@dataclass(frozen=True)
class ConvergencePoint:
    """One checkpoint of a greedy run against the optimal-rate target."""

    n: int
    error: float
    product: float  # n * error
    target: float   # || sqrt|det d2f| ||_{L^tau(Omega)}
    ratio: float    # product / target


def _leaf_stats(form: QuadForm, verts: np.ndarray, level: int,
                threshold: float) -> SigmaStats:
    s = sigma_batch(form, verts)
    return SigmaStats(level, len(s), float(s.mean()), float(s.max()),
                      float((s >= threshold).mean()), float((s ** R0).mean()))


def sigma_study(f: QuadraticField, roots=None, levels: int = 5,
                threshold: float = SIGMA_THRESHOLD) -> list[SigmaStats]:
    """Track sigma_q while uniformly refining every triangle.

    One reported level is three bisection sweeps (the leaf count grows by
    8 per level).  The field must be quadratic with positive-definite
    form; the refinement uses the same L1 decision as the greedy engine.
    Raises RunawayRefinementError before refining when the sweeps would
    exceed the default node cap.
    """
    if not isinstance(f, QuadraticField) or not f.form.is_positive_definite:
        raise ValueError("sigma study needs a quadratic field with PD form")
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if not math.isfinite(threshold):
        raise ValueError(f"sigma threshold must be finite, got {threshold}")
    roots = engine.initial_mesh(roots if roots is not None else "ref-triangle")
    config = GreedyConfig()
    forest = RefinementForest(roots)
    engine._check_levels_fit(forest.n_roots, forest.n_roots, levels, config.node_cap,
                             sweeps_per_level=3)
    stats = [_leaf_stats(f.form, forest.leaf_vertex_array(), 0, threshold)]
    for level in range(1, levels + 1):
        engine.uniform_refine(forest, f, config, 3)
        stats.append(_leaf_stats(f.form, forest.leaf_vertex_array(), level, threshold))
    return stats


def hessian_tau_norm(f: ScalarField, domain, tau: float, depth: int = 9) -> float:
    """``|| sqrt|det d2f| ||_{L^tau}`` over a domain of triangles.

    Integrates ``|det d2f|^(tau/2)`` by per-triangle quadrature on a
    uniform background mesh obtained from ``depth`` euclidean longest-edge
    bisection sweeps of the domain triangles.
    """
    if not 0.5 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [1/2, 1], got {tau}")
    if not f.has_hessian:
        raise ValueError(f"field {f.label!r} has no analytic hessian")
    if isinstance(domain, RefinementForest):
        verts = domain.leaf_vertex_array()
    elif isinstance(domain, Triangle):
        verts = domain.vertices[None]
    else:
        verts = np.array([t.vertices for t in domain])
    for _ in range(depth):
        e = edge_vectors_of(verts)
        verts = np.concatenate(bisect(verts, np.argmax((e * e).sum(axis=2), axis=1)))
    areas = areas_of(edge_vectors_of(verts))
    xy = approx.RULE_NODES @ verts  # (n_tri, n_nodes, 2) via batched matmul
    h = f.hessian(xy[..., 0], xy[..., 1])
    dets = np.abs(h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0])
    integral = float((areas[:, None] * approx.RULE_WEIGHTS * dets ** (tau / 2.0)).sum())
    return integral ** (1.0 / tau)


def convergence_study(f: ScalarField, config: GreedyConfig,
                      checkpoints) -> list[ConvergencePoint]:
    """Greedy refinement with the product N * error recorded at checkpoints.

    The field must be convexity-tagged (the regime where the greedy
    algorithm provably meets the optimal rate) and carry a hessian for the
    target norm.  Checkpoints are increasing leaf counts.
    """
    checkpoints = [int(n) for n in checkpoints]
    if not checkpoints or any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if not f.is_convex:
        raise ValueError("convergence study expects a convexity-tagged field")
    roots = engine.initial_mesh(config.initial)
    if checkpoints[0] < len(roots):
        raise ValueError(f"checkpoint {checkpoints[0]} below the initial leaf count")
    target = hessian_tau_norm(f, roots, tau_from_p(config.p))
    run_cfg = replace(config, stop=StopRule("target-count", max(checkpoints)))
    _, trace = engine.greedy_run(f, run_cfg, record_at=checkpoints)
    by_n = {rec.n_leaves: rec for rec in trace}
    points = []
    for n in checkpoints:
        rec = by_n[n]
        product = n * rec.global_error
        ratio = product / target if target > 0 else math.nan
        points.append(ConvergencePoint(n, rec.global_error, product, target, ratio))
    return points


def random_pd_form(rng: np.random.Generator) -> QuadForm:
    """Random positive-definite form: rotated diag(10^u1, 10^u2), u in [-3, 3].

    Condition numbers reach 1e6, covering the strongly anisotropic regime.
    """
    theta = rng.uniform(0.0, math.pi)
    d = 10.0 ** rng.uniform(-3.0, 3.0, 2)
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return QuadForm.from_matrix((r * d) @ r.T)


def random_triangle(rng: np.random.Generator) -> Triangle:
    """Random triangle with unit-square vertices, area >= 0.01, rho <= 100."""
    while True:
        v = rng.uniform(0.0, 1.0, (3, 2))
        e = edge_vectors_of(v)
        area = areas_of(e)
        if area < 0:  # the reversed order has the same edge lengths
            v, area = v[[0, 2, 1]], -area
        if area < 0.01 or (e * e).sum(axis=1).max() / area > 100.0:
            continue
        return Triangle(v)


def equivalence_constant_probe(samples: int = 1000, seed: int = 0,
                               op: str = "interpolation"):
    """Empirical bracket of e_T(q)_p / (sigma_q(T) ||sqrt(det q)||_Ltau(T)).

    Samples random PD forms and triangles and evaluates the ratio for
    p in {1, 2, inf}; returns (lower, upper) over all samples.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        q = random_pd_form(rng)
        t = random_triangle(rng)
        f = QuadraticField("probe", q.a20, q.a11, q.a02)
        scale = sigma(q, t) * math.sqrt(q.det)
        ratios += [approx.local_error(t, f, p, op) / (scale * t.area ** (1.0 / tau_from_p(p)))
                   for p in (1.0, 2.0, math.inf)]
    return min(ratios), max(ratios)


# The header lines of the CSV writers below
SIGMA_HEADER = "level,count,mean_sigma,max_sigma,fraction_above,mean_sigma_pow_r0"
CONVERGENCE_HEADER = "n,error,product,target,ratio"
TRACE_HEADER = "step,n_leaves,global_error,max_diam,sigma_mean,sigma_max"


def _csv(header: str, records) -> str:
    """``header`` and one line per dataclass record: its fields (``vars``, not
    the deep copy of ``astuple``)."""
    return "\n".join([header] + [",".join(repr(float(v)) if isinstance(v, float) else str(v)
                                         for v in vars(r).values())
                                for r in records]) + "\n"


def sigma_csv(stats) -> str:
    """CSV with one row per refinement level, in level order."""
    return _csv(SIGMA_HEADER, stats)


def convergence_csv(points) -> str:
    """CSV with one row per checkpoint, in checkpoint order."""
    return _csv(CONVERGENCE_HEADER, points)


def trace_csv(trace) -> str:
    """CSV with one row per trace record of a greedy run."""
    return _csv(TRACE_HEADER, trace)
