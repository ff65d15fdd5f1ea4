"""Verification suites: tau-norms, sigma washout, convergence products."""

import math

import numpy as np
import pytest

from anisomesh import engine
from anisomesh.analysis import (
    R0,
    ConvergencePoint,
    convergence_csv,
    convergence_study,
    equivalence_constant_probe,
    gamma_factor,
    hessian_tau_norm,
    random_pd_form,
    random_triangle,
    sigma_csv,
    sigma_study,
    tau_from_p,
    trace_csv,
)
from anisomesh.engine import (
    GreedyConfig,
    RefinementForest,
    StopRule,
    greedy_run,
    initial_mesh,
    uniform_refine,
)
from anisomesh.fields import QuadraticField, ScalarField, get_field
from anisomesh.approx import RULE_NODES
from anisomesh.geometry import NEXT, PREV, QuadForm, Triangle, sigma, reference_triangle

from test_geometry import compose_linear


def test_tau_from_p():
    assert tau_from_p(1) == pytest.approx(0.5)
    assert tau_from_p(2) == pytest.approx(2 / 3)
    assert tau_from_p(math.inf) == 1.0
    with pytest.raises(ValueError):
        tau_from_p(0.5)


def test_r0_closed_form():
    assert R0 == math.log(2) / (math.log(4) - math.log(3))
    assert R0 == pytest.approx(2.409420839, rel=1e-9)


def test_gamma_factor():
    assert gamma_factor(R0) == pytest.approx((0.69 ** R0 + 7.0) / 8.0, rel=1e-14)
    assert 0 < gamma_factor(R0) < 1
    assert gamma_factor(R0, 0.01) > gamma_factor(R0)


class TestHessianTauNorm:
    def test_disk_unit_square(self):
        # det d2f = 4, tau = 1/2: (int 2^(1/2))^2 = 2 |Omega|^2 = 2
        f = get_field("disk")
        got = hessian_tau_norm(f, initial_mesh("unit-square"), 0.5, depth=4)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_affine_zero(self):
        f = QuadraticField("plane", 0, 0, 0, 1.0, 2.0, 3.0)
        assert hessian_tau_norm(f, initial_mesh("unit-square"), 0.5, depth=3) == 0.0

    def test_aniso_scaling(self):
        # constant hessian diag(2, 2k): norm = sqrt(4k) |Omega|^(1/tau)
        for k, label in ((2, "aniso-2"), (10, "aniso-10")):
            f = get_field(label)
            for p in (1.0, 2.0, math.inf):
                tau = tau_from_p(p)
                got = hessian_tau_norm(f, initial_mesh("unit-square"), tau, depth=3)
                assert got == pytest.approx(math.sqrt(4 * k), rel=1e-12)

    def test_depth_stability(self):
        f = get_field("expbump")
        a = hessian_tau_norm(f, initial_mesh("unit-square"), 2 / 3, depth=8)
        b = hessian_tau_norm(f, initial_mesh("unit-square"), 2 / 3, depth=16)
        assert abs(a - b) <= 1e-6 * abs(b)

    def test_rejects_bad_tau_and_missing_hessian(self):
        with pytest.raises(ValueError):
            hessian_tau_norm(get_field("disk"), initial_mesh("unit-square"), 0.3)
        bare = ScalarField("bare", lambda x, y: x * y)
        with pytest.raises(ValueError, match="hessian"):
            hessian_tau_norm(bare, initial_mesh("unit-square"), 0.5)

    def test_accepts_triangle_and_forest(self):
        f = get_field("disk")
        t = reference_triangle()
        direct = hessian_tau_norm(f, t, 0.5, depth=2)
        forest = RefinementForest([t])
        assert hessian_tau_norm(f, forest, 0.5, depth=2) == pytest.approx(direct)
        assert direct == pytest.approx(2.0 * 0.5 ** 2, rel=1e-12)


class TestSigmaStudy:
    def test_equilateral_identity_level0(self):
        root = Triangle([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        stats = sigma_study(get_field("disk"), roots=[root], levels=0)
        assert len(stats) == 1
        assert stats[0].count == 1
        assert stats[0].fraction_above == 0.0
        assert stats[0].mean == pytest.approx(2 / math.sqrt(3), rel=1e-12)

    def test_levels_and_counts(self):
        stats = sigma_study(get_field("aniso-10"), levels=3)
        assert [s.count for s in stats] == [1, 8, 64, 512]
        assert [s.level for s in stats] == [0, 1, 2, 3]

    def test_fraction_washes_out(self):
        stats = sigma_study(get_field("aniso-10"), levels=3)
        fracs = [s.fraction_above for s in stats]
        assert all(b <= a or b == 0.0 for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] <= 0.05
        assert all(s.mean >= 1.0 - 1e-12 for s in stats)

    def test_markov_chain_bound(self):
        stats = sigma_study(get_field("aniso-10"), levels=3)
        g = gamma_factor(R0)
        s0_r0 = stats[0].mean_pow_r0
        cap = 5.0 ** R0 / (8.0 * (1.0 - g))
        for s in stats:
            assert s.mean_pow_r0 <= s0_r0 * g ** s.level + cap

    def test_sigma_never_exceeds_three_up_ancestor(self):
        q = QuadForm(1.0, 0.2, 6.0)
        f = QuadraticField("s", q.a20, q.a11, q.a02)
        forest = RefinementForest([reference_triangle()])
        uniform_refine(forest, f, GreedyConfig(), 6)
        for leaf in forest.leaf_ids():
            anc = leaf
            for _ in range(3):
                anc = forest.nodes["parent"][anc]
            s_anc = sigma(q, Triangle(forest.nodes["verts"][anc]))
            assert sigma(q, Triangle(forest.nodes["verts"][leaf])) <= s_anc * (1 + 1e-9)
        # each 3-up ancestor has a descendant meeting the disjunction
        for anc in {a for a in range(len(forest.nodes))
                    if forest.nodes["level"][a] == 3}:
            s_anc = sigma(q, Triangle(forest.nodes["verts"][anc]))
            desc = [anc]
            for _ in range(3):
                desc = [forest.nodes["child"][d] + k for d in desc for k in (0, 1)]
            svals = [sigma(q, Triangle(forest.nodes["verts"][d])) for d in desc]
            assert min(svals) <= max(0.69 * s_anc, 5.0) * (1 + 1e-9)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            sigma_study(get_field("mixed-saddle"), levels=1)
        with pytest.raises(ValueError):
            sigma_study(get_field("expbump"), levels=1)


class TestConvergenceStudy:
    def test_affine_zero_error(self):
        f = QuadraticField("plane", 0, 0, 0, 2.0, 1.0, 0.0)
        cfg = GreedyConfig(p=2.0)
        points = convergence_study(f, cfg, [4, 8])
        for pt in points:
            assert pt.error <= 1e-12
            assert math.isnan(pt.ratio)  # target vanishes with the hessian

    def test_aniso2_ratio_stabilizes(self):
        cfg = GreedyConfig(p=2.0)
        points = convergence_study(get_field("aniso-2"), cfg, [256, 1024])
        r = [pt.ratio for pt in points]
        assert all(math.isfinite(x) and x > 0 for x in r)
        assert 0.5 <= r[1] / r[0] <= 2.0

    def test_expbump_linf_product_bounded(self):
        cfg = GreedyConfig(p=math.inf, initial="unit-square")
        points = convergence_study(get_field("expbump"), cfg, [256, 512, 1024])
        prods = [pt.product for pt in points]
        assert max(prods) <= 3.0 * min(prods)

    @pytest.mark.parametrize(
        "label", ["disk", "aniso-2", "aniso-10", "aniso-100",
                  "expbump", "gauss-ridge"])
    def test_product_bounded_for_all_strictly_convex_fields(self, label):
        f = get_field(label)
        assert f.convexity == "strictly-convex"
        # mesh the field's own convexity-checked rectangle
        (x0, x1), (y0, y1) = f.check_box
        roots = [Triangle([(x0, y0), (x1, y0), (x1, y1)]),
                 Triangle([(x0, y0), (x1, y1), (x0, y1)])]
        cfg = GreedyConfig(p=2.0, initial=tuple(roots))
        points = convergence_study(f, cfg, [128, 512])
        prods = [pt.product for pt in points]
        assert all(math.isfinite(x) and x > 0 for x in prods)
        assert max(prods) <= 3.0 * min(prods)

    def test_validation(self):
        cfg = GreedyConfig()
        with pytest.raises(ValueError):
            convergence_study(get_field("disk"), cfg, [64, 64])
        with pytest.raises(ValueError):
            convergence_study(get_field("mixed-saddle"), cfg, [8, 16])

    def test_checkpoint_below_the_roots_fails_before_refining(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("refined before checking the checkpoints")

        monkeypatch.setattr(engine, "greedy_run", ran)
        cfg = GreedyConfig(initial="unit-square")
        with pytest.raises(ValueError, match="checkpoint 1 below the initial leaf count"):
            convergence_study(get_field("expbump"), cfg, [1, 262144])


class TestEquivalenceProbe:
    def test_reference_identity_ratio(self):
        # e = 1/6, sigma = 1, ||sqrt det||_{L^(1/2)} = |T|^2 = 1/4 -> 2/3
        t = reference_triangle()
        from anisomesh.approx import local_error

        ratio = local_error(t, get_field("disk"), 1) / (1.0 * 0.25)
        assert ratio == pytest.approx(2 / 3, rel=1e-12)

    def test_bracket_regression(self):
        lo, hi = equivalence_constant_probe(samples=1000, seed=0)
        assert 0.01 < lo < hi < 100.0

    @pytest.mark.parametrize("samples, seed, op", [(1, 5, "interpolation"),
                                                   (70, 0, "interpolation"),
                                                   (70, 3, "l2-projection")])
    def test_matches_per_sample_loop(self, samples, seed, op):
        # one local_error call per sample and exponent, each on its own field
        from anisomesh.approx import local_error

        rng = np.random.default_rng(seed)
        ratios = []
        for _ in range(samples):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            qf = QuadraticField("probe", q.a20, q.a11, q.a02)
            s = sigma(q, t)
            for p in (1.0, 2.0, math.inf):
                denom = s * math.sqrt(q.det) * t.area ** (1.0 / tau_from_p(p))
                ratios.append(local_error(t, qf, p, op) / denom)
        got = equivalence_constant_probe(samples, seed, op)
        assert np.array(got).tobytes() == np.array([min(ratios), max(ratios)]).tobytes()

    def test_affine_invariance_of_ratio(self):
        # the probe ratio is invariant under affine maps of the triangle
        from anisomesh.approx import local_error

        rng = np.random.default_rng(5)
        for _ in range(20):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            mat = rng.uniform(-1.5, 1.5, (2, 2))
            if abs(np.linalg.det(mat)) < 0.2:
                continue
            if np.linalg.det(mat) < 0:
                mat = mat[::-1]
            image = Triangle(t.vertices @ mat.T)
            qc = compose_linear(q, mat)

            def ratio(form, tri):
                qf = QuadraticField("s", form.a20, form.a11, form.a02)
                s = sigma(form, tri)
                out = []
                for p in (1.0, 2.0, math.inf):
                    denom = s * math.sqrt(form.det) * tri.area ** (1 / tau_from_p(p))
                    out.append(local_error(tri, qf, p) / denom)
                return np.array(out)

            assert np.allclose(ratio(qc, t), ratio(q, image), rtol=1e-8)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            equivalence_constant_probe(samples=0)


def hessian_oscillation(f: ScalarField, t: Triangle) -> float:
    """Relative spread of d2f over a triangle, measured at sample points.

    Returns the smallest mu such that the hessians at the sample points
    (vertices, edge midpoints, quadrature nodes) satisfy
    ``H_lo <= d2f(x) <= (1 + mu) H_lo`` for the sampled lower envelope; the
    field must be strictly convex on the triangle.
    """
    corners = np.eye(3)
    mids = 0.5 * (corners[NEXT] + corners[PREV])
    bary = np.vstack([corners, mids, RULE_NODES, [[1 / 3, 1 / 3, 1 / 3]]])
    xy = bary @ t.vertices
    h = f.hessian(xy[:, 0], xy[:, 1])
    hb = h[-1]  # centroid
    w, r = np.linalg.eigh(hb)
    if w[0] <= 0:
        raise ValueError("hessian not positive definite at the centroid")
    b = (r / np.sqrt(w)) @ r.T  # hb^(-1/2)
    m = b @ h @ b
    eigs = np.linalg.eigvalsh(m)
    lo, hi = float(eigs.min()), float(eigs.max())
    if lo <= 0:
        raise ValueError("hessian not positive definite on the triangle")
    return hi / lo - 1.0


class TestDeltaNearStudy:
    def test_engine_chooses_near_longest_edge(self):
        # on small triangles the chosen edge is mu-near q-longest for the
        # barycenter-hessian metric, mu = measured hessian oscillation
        f = get_field("expbump")
        cfg = GreedyConfig()
        rng = np.random.default_rng(9)
        from anisomesh.engine import select_edge

        for _ in range(100):
            center = rng.uniform(0.1, 0.9, 2)
            t = Triangle(center + 0.05 * (random_triangle(rng).vertices
                                          - random_triangle(rng).centroid))
            if t.diameter > 0.05:
                v = t.vertices
                t = Triangle(center + (v - v.mean(axis=0)) * (0.04 / t.diameter))
            h = f.hessian(*t.centroid)
            q = QuadForm(h[0, 0] / 2, h[0, 1] / 2, h[1, 1] / 2)
            mu = hessian_oscillation(f, t)
            edge = select_edge(t.vertices, f, cfg)
            qvals = [q(t.edge_vector(i)) for i in range(3)]
            assert (1 + mu) * qvals[edge] >= max(qvals) * (1 - 1e-9)


class TestCsv:
    def test_sigma_csv(self):
        stats = sigma_study(get_field("aniso-2"), levels=1)
        text = sigma_csv(stats)
        lines = text.splitlines()
        assert lines[0] == "level,count,mean_sigma,max_sigma,fraction_above,mean_sigma_pow_r0"
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_convergence_csv(self):
        pts = [ConvergencePoint(4, 0.5, 2.0, 1.0, 2.0)]
        lines = convergence_csv(pts).splitlines()
        assert lines[0] == "n,error,product,target,ratio"
        assert lines[1] == "4,0.5,2.0,1.0,2.0"

    def test_trace_csv(self):
        _, trace = greedy_run(get_field("disk"),
                              GreedyConfig(stop=StopRule("target-count", 4)))
        lines = trace_csv(trace).splitlines()
        assert lines[0] == "step,n_leaves,global_error,max_diam,sigma_mean,sigma_max"
        assert len(lines) == 5  # records at N = 1..4
