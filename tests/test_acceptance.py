"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion n] PASS ...` line (visible with
``pytest -s``).  Random samples come from the seeded analysis samplers, so
every run checks the identical sample set.
"""

import math
import time

import numpy as np
import pytest

from anisomesh.analysis import (
    R0,
    convergence_study,
    gamma_factor,
    random_pd_form,
    random_triangle,
    sigma_study,
)
from anisomesh.approx import (
    RULE_NODES,
    RULE_WEIGHTS,
    decision_gains_convex,
    decision_l1,
    interpolate,
    local_error,
    project_l2,
    _BARY,
)
from anisomesh.cli import main as cli_main
from anisomesh.engine import GreedyConfig, StopRule, greedy_run, select_edge
from anisomesh.fields import QuadraticField, ScalarField, get_field
from anisomesh.geometry import (
    QuadForm,
    Triangle,
    bisect,
    psi,
    q_longest_edge_index,
    rho,
    sigma,
)

from test_approx import quadratic_pullback

SAMPLE_SEED = 20260810


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(SAMPLE_SEED)
    return [(random_pd_form(rng), random_triangle(rng)) for _ in range(1000)]


def quad_field(q: QuadForm) -> QuadraticField:
    return QuadraticField("sample", q.a20, q.a11, q.a02)


def test_criterion_1_longest_q_edge_lemma(samples):
    """Minimizing the L1 decision picks the q-longest edge (100%)."""
    t0 = time.time()
    checked = agreed = 0
    for q, t in samples:
        qvals = sorted((q(t.edge_vector(i)) for i in range(3)), reverse=True)
        if qvals[0] - qvals[1] <= 1e-6 * qvals[0]:
            continue
        chosen = int(np.argmin([decision_l1(t.vertices, quad_field(q))[e] for e in range(3)]))
        checked += 1
        agreed += chosen == q_longest_edge_index(q, t)
    elapsed = time.time() - t0
    assert checked > 900
    assert agreed == checked, f"{checked - agreed} disagreements"
    assert elapsed < 30.0
    print(f"\n[criterion 1] PASS longest-q-edge agreement {agreed}/{checked} "
          f"in {elapsed:.1f}s")


def test_criterion_2_exact_gain_formula(samples):
    """Gain formula equals |T| q(e)/12; child quadrature reproduces it."""
    worst_closed = worst_quad = 0.0
    for k, (q, t) in enumerate(samples):
        qf = quad_field(q)
        gains = decision_gains_convex(t.vertices, qf)
        for e in range(3):
            closed = t.area * q(t.edge_vector(e)) / 12.0
            worst_closed = max(worst_closed,
                               abs(gains[e] - closed) / (12.0 * closed))
            if k < 300:  # child quadrature is the slow path
                dq = local_error(t, qf, 1) - decision_l1(t.vertices, qf)[e]
                worst_quad = max(worst_quad, abs(dq - closed) / closed)
    assert worst_closed <= 1e-10
    assert worst_quad <= 1e-6
    print(f"\n[criterion 2] PASS gain formula: closed {worst_closed:.2e} "
          f"(tol 1e-10), quadrature {worst_quad:.2e} (tol 1e-6)")


def test_criterion_3_sigma_monotonicity(samples):
    """Children never increase sigma; 3-level descendants obey the disjunction."""
    for q, t in samples:
        s0 = sigma(q, t)
        for child in map(Triangle, bisect(t.vertices, q_longest_edge_index(q, t))):
            assert sigma(q, child) <= s0 * (1.0 + 1e-12)
        tris = [t]
        for _ in range(3):
            tris = [c for tt in tris
                    for c in map(Triangle, bisect(tt.vertices, q_longest_edge_index(q, tt)))]
        svals = [sigma(q, tt) for tt in tris]
        assert len(svals) == 8
        assert max(svals) <= s0 * (1.0 + 1e-12)
        assert min(svals) <= max(0.69 * s0, 5.0) * (1.0 + 1e-12)
    print(f"\n[criterion 3] PASS sigma monotonicity + 3-level disjunction "
          f"on {len(samples)} samples")


def test_criterion_4_psi_inequalities(samples):
    """sigma(psi) <= 5/8 rho, rho decay, and the psi^3 contraction."""
    contraction_hits = 0
    for q, t in samples:
        r0, s0 = rho(q, t), sigma(q, t)
        p1 = psi(q, t)
        assert sigma(q, p1) <= (5.0 / 8.0) * r0 * (1.0 + 1e-10)
        assert rho(q, p1) <= 0.5 * r0 * (1.0 + 16.0 / r0 ** 2) * (1.0 + 1e-10)
        s3 = sigma(q, psi(q, psi(q, p1)))
        if s3 >= 5.0:
            contraction_hits += 1
            assert s3 <= 0.69 * s0 * (1.0 + 1e-10)
    assert contraction_hits > 0
    print(f"\n[criterion 4] PASS psi inequalities; psi^3 contraction exercised "
          f"{contraction_hits} times")


def test_criterion_5_degeneracy_washout():
    """sigma fraction above 5 washes out; mean sigma^r0 obeys the chain bound."""
    t0 = time.time()
    stats = sigma_study(get_field("aniso-10"), roots="ref-triangle", levels=5)
    elapsed = time.time() - t0
    assert stats[-1].count == 2 ** 15
    fracs = [s.fraction_above for s in stats]
    for n in range(2, 6):
        assert fracs[n] < fracs[n - 1] or fracs[n] == 0.0
    assert fracs[5] <= 0.05
    g = gamma_factor(R0)  # mu = 0
    cap = 5.0 ** R0 / (8.0 * (1.0 - g))
    s0_r0 = stats[0].mean_pow_r0
    for s in stats:
        assert s.mean_pow_r0 <= s0_r0 * g ** s.level + cap
    assert elapsed < 120.0
    print(f"\n[criterion 5] PASS washout: fractions {fracs}, "
          f"final mean sigma^r0 {stats[-1].mean_pow_r0:.3f} "
          f"(chain cap {cap:.1f}) in {elapsed:.1f}s")


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_criterion_6_quadratic_optimal_rate(p):
    """N * error plateaus within x2 and stays under 20x the form norm."""
    t0 = time.time()
    cfg = GreedyConfig(p=p, initial="ref-triangle")
    points = convergence_study(get_field("aniso-2"), cfg, [256, 1024, 4096])
    elapsed = time.time() - t0
    prods = [pt.product for pt in points]
    for a, b in zip(prods, prods[1:]):
        assert 0.5 <= b / a <= 2.0
    # det d2q = 4 det q, so the form-normalized target is half the hessian one
    form_target = points[0].target / 2.0
    ratios = [x / form_target for x in prods]
    assert all(r <= 20.0 for r in ratios)
    assert elapsed < 120.0
    print(f"\n[criterion 6] PASS p={p}: products {['%.4f' % x for x in prods]}, "
          f"form ratios {['%.2f' % r for r in ratios]} in {elapsed:.1f}s")


def test_criterion_7_strictly_convex_case():
    """Bounded N * error and vanishing diameters for the exp-bump field."""
    t0 = time.time()
    f = get_field("expbump")
    cfg = GreedyConfig(p=2.0, initial="unit-square",
                       stop=StopRule("target-count", 4096))
    _, trace = greedy_run(f, cfg)  # records at 64, 256, 1024 and 4096 leaves
    elapsed = time.time() - t0
    by_n = {r.n_leaves: r for r in trace}
    prods = [n * by_n[n].global_error for n in (256, 1024, 4096)]
    assert max(prods) / min(prods) <= 3.0
    assert by_n[4096].max_diam < 0.25 * by_n[64].max_diam
    assert elapsed < 300.0
    print(f"\n[criterion 7] PASS expbump: products {['%.3f' % x for x in prods]}, "
          f"diam {by_n[64].max_diam:.3f} -> {by_n[4096].max_diam:.3f} "
          f"in {elapsed:.1f}s")


def _sandwich_pair(rng, mu):
    """(q, f) with d2q <= d2f <= (1+mu) d2q via f = q + mu * q~, q~ <= q."""
    q = random_pd_form(rng)
    w, r = np.linalg.eigh(q.matrix)
    sq = (r * np.sqrt(w)) @ r.T
    theta = rng.uniform(0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    smat = (rot * rng.uniform(0.0, 1.0, 2)) @ rot.T
    qt = sq @ smat @ sq
    fm = q.matrix + mu * qt
    f = QuadraticField("f", fm[0, 0], 0.5 * (fm[0, 1] + fm[1, 0]), fm[1, 1],
                       *rng.uniform(-1.0, 1.0, 3))
    return q, quad_field(q), f


def test_criterion_8_perturbation_sandwich():
    """Pointwise error sandwich and mu-near longest-edge selection."""
    rng = np.random.default_rng(SAMPLE_SEED + 1)
    bary = _BARY
    cfg = GreedyConfig()
    violations = 0
    for mu in (0.01, 0.1):
        for _ in range(100):
            q, qf, f = _sandwich_pair(rng, mu)
            t = random_triangle(rng)
            xy = bary @ t.vertices
            gap_f = interpolate(t, f)(xy[:, 0], xy[:, 1]) - f(xy[:, 0], xy[:, 1])
            gap_q = interpolate(t, qf)(xy[:, 0], xy[:, 1]) - qf(xy[:, 0], xy[:, 1])
            diff = gap_f - gap_q
            slack = 1e-12 * (1.0 + float(np.abs(gap_q).max()))
            violations += int(np.any(diff < -slack))
            violations += int(np.any(diff > mu * gap_q + slack))
            edge = select_edge(t.vertices, f, cfg)
            qvals = [q(t.edge_vector(i)) for i in range(3)]
            violations += int(qvals[edge] < (1.0 - mu) * max(qvals) * (1 - 1e-10))
    assert violations == 0
    print("\n[criterion 8] PASS sandwich + mu-near selection: 0 violations "
          "over 200 pairs")


def test_criterion_9_operator_axioms():
    """Affine reproduction, affine commutation, projection orthogonality."""
    rng = np.random.default_rng(SAMPLE_SEED + 2)

    # affine reproduction to 1e-12 (both operators)
    worst_repr = 0.0
    for _ in range(100):
        c = rng.uniform(-2.0, 2.0, 3)
        t = random_triangle(rng)
        f = ScalarField("aff", lambda x, y, c=c: c[0] + c[1] * x + c[2] * y)
        for op in (interpolate, project_l2):
            got = np.array(op(t, f).coefficients)
            worst_repr = max(worst_repr, float(np.abs(got - c).max()))
    assert worst_repr <= 1e-12

    # affine commutation to 1e-8 relative over 200 affine maps
    fields = [get_field("expbump"), QuadraticField("aniso", 1.0, 0.3, 2.0)]
    checked = 0
    worst_comm = 0.0
    while checked < 200:
        mat = rng.uniform(-1.5, 1.5, (2, 2))
        det = float(np.linalg.det(mat))
        if abs(det) < 0.1:
            continue
        checked += 1
        shift = rng.uniform(-0.5, 0.5, 2)
        t = random_triangle(rng)
        image_v = t.vertices @ mat.T + shift
        image = Triangle(image_v if det > 0 else image_v[[0, 2, 1]])
        f = fields[checked % 2]
        fphi = ScalarField("fphi", lambda x, y, m=mat, s=shift, f=f: f(
            m[0, 0] * x + m[0, 1] * y + s[0], m[1, 0] * x + m[1, 1] * y + s[1]))
        for p in (1.0, 2.0, math.inf):
            lhs = local_error(image, f, p)
            scale = 1.0 if math.isinf(p) else abs(det) ** (1.0 / p)
            # the exact maximum of a quadratic field against its pullback's;
            # at finite p the sampled pullback checks one kernel against the other
            g = quadratic_pullback(f, mat, shift) \
                if math.isinf(p) and isinstance(f, QuadraticField) else fphi
            rhs = scale * local_error(t, g, p)
            worst_comm = max(worst_comm, abs(lhs - rhs) / abs(rhs))
    assert worst_comm <= 1e-8

    # L2 projection orthogonality residual <= 1e-10 for polynomial inputs
    polys = [
        ScalarField("x2", lambda x, y: x * x),
        ScalarField("deg7", lambda x, y: x ** 4 * y ** 3 - 2.0 * x * y + y * y),
        QuadraticField("mix", 1.0, -0.7, 3.0, 0.2, 0.0, 1.0),
    ]
    worst_orth = 0.0
    for f in polys:
        for _ in range(30):
            t = random_triangle(rng)
            pi = project_l2(t, f)
            xy = RULE_NODES @ t.vertices
            w = t.area * RULE_WEIGHTS
            res = f(xy[:, 0], xy[:, 1]) - pi(xy[:, 0], xy[:, 1])
            for phi in (np.ones(len(xy)), xy[:, 0], xy[:, 1]):
                moment = abs(float((w * res * phi).sum()))
                scale = float((w * np.abs(f(xy[:, 0], xy[:, 1]) * phi)).sum())
                worst_orth = max(worst_orth, moment / max(scale, 1e-30))
    assert worst_orth <= 1e-10
    print(f"\n[criterion 9] PASS operator axioms: reproduction {worst_repr:.2e}, "
          f"commutation {worst_comm:.2e}, orthogonality {worst_orth:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical artifacts."""
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert cli_main(["run", "--field", "aniso-10", "--p", "2",
                         "--target-n", "256",
                         "--mesh-out", str(d / "mesh.txt"),
                         "--trace-out", str(d / "trace.csv")]) == 0
        assert cli_main(["converge", "--field", "aniso-2",
                         "--checkpoints", "64,256",
                         "--csv-out", str(d / "conv.csv")]) == 0
        assert cli_main(["sigma-study", "--field", "aniso-10", "--levels", "3",
                         "--csv-out", str(d / "sigma.csv")]) == 0
        assert cli_main(["render", str(d / "mesh.txt"),
                         "--svg-out", str(d / "mesh.svg"),
                         "--color-by", "sigma", "--field", "aniso-10"]) == 0
        blobs.append(b"".join((d / name).read_bytes() for name in
                              ("mesh.txt", "trace.csv", "conv.csv",
                               "sigma.csv", "mesh.svg")))
    assert blobs[0] == blobs[1]
    print("\n[criterion 10] PASS byte-identical mesh, CSVs and SVG across runs")
