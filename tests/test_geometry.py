"""Geometry primitives: forms, shape measures, bisection and psi."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisomesh.geometry import (
    QuadForm,
    Triangle,
    bisect,
    canonical_transform,
    delta,
    edge_vectors_of,
    psi,
    q_abs,
    q_longest_edge_index,
    q_metric,
    q_sorted_edge_indices,
    reference_triangle,
    rho,
    sigma,
)

IDENTITY = QuadForm(1.0, 0.0, 1.0)
SADDLE = QuadForm(1.0, 0.0, -1.0)


def compose_linear(q: QuadForm, mat) -> QuadForm:
    """The form ``q o L`` with matrix ``L^T Q L``."""
    mat = np.asarray(mat, dtype=float)
    return QuadForm.from_matrix(mat.T @ q.matrix @ mat)


def random_pd_form(rng):
    theta = rng.uniform(0.0, math.pi)
    d = 10.0 ** rng.uniform(-2.0, 2.0, 2)
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return QuadForm.from_matrix((r * d) @ r.T)


def random_triangle(rng):
    while True:
        v = rng.uniform(0.0, 1.0, (3, 2))
        u, w = v[1] - v[0], v[2] - v[0]
        a2 = float(u[0] * w[1] - u[1] * w[0])
        if a2 < 0:
            v = v[[0, 2, 1]]
            a2 = -a2
        if a2 / 2 >= 0.01:
            return Triangle(v)


@st.composite
def pd_form_and_triangle(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    return random_pd_form(rng), random_triangle(rng)


class TestTriangle:
    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            Triangle([(0, 0), (0, 1), (1, 0)])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Triangle([(0, 0), (1, 1), (2, 2)])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Triangle([(0, 0), (1, 0), (0, float("nan"))])

    def test_vertices_read_only(self):
        t = reference_triangle()
        with pytest.raises(ValueError):
            t.vertices[0, 0] = 5.0

    def test_area_and_diameter(self):
        t = reference_triangle()
        assert t.area == pytest.approx(0.5)
        assert t.diameter == pytest.approx(math.sqrt(2.0))

    def test_signed_zero_hash_matches_eq(self):
        t = Triangle([(0, 0), (1, 0), (0, 1)])
        u = Triangle([(-0.0, 0), (1, -0.0), (0, 1)])
        assert t == u
        assert hash(t) == hash(u)
        assert len({t, u}) == 1


class TestEdges:
    def test_reference(self):
        a, b, c = edge_vectors_of(reference_triangle().vertices)
        assert np.allclose(a, (-1, 1))
        assert np.allclose(b, (0, -1))
        assert np.allclose(c, (1, 0))

    def test_second_example(self):
        a, b, c = edge_vectors_of(Triangle([(0, 0), (2, 0), (1, 1)]).vertices)
        assert np.allclose(a, (-1, 1))
        assert np.allclose(b, (-1, -1))
        assert np.allclose(c, (2, 0))

    def test_telescoping(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t = random_triangle(rng)
            a, b, c = edge_vectors_of(t.vertices)
            assert np.abs(a + b + c).max() <= 1e-12 * t.diameter


class TestQuadForm:
    def test_eval_identity(self):
        assert IDENTITY((3, 4)) == 25

    def test_eval_null_direction(self):
        assert SADDLE((1, 1)) == 0

    def test_eval_hand_expansion(self):
        assert QuadForm(2, 1, 3)((1, -1)) == pytest.approx(3.0)

    def test_metric(self):
        assert q_metric(IDENTITY, (3, 4)) == pytest.approx(5.0)
        assert q_metric(QuadForm(-1, 0, -1), (3, 4)) == pytest.approx(5.0)
        assert q_metric(QuadForm(4, 0, 1), (1, 0)) == pytest.approx(2.0)

    def test_metric_rejects_indefinite(self):
        with pytest.raises(ValueError, match="metric undefined"):
            q_metric(SADDLE, (1, 0))

    def test_classify(self):
        assert IDENTITY.classify() == "positive-definite"
        assert QuadForm(-2, 0, -3).classify() == "negative-definite"
        assert SADDLE.classify() == "mixed"
        assert QuadForm(1, 0, 0).classify() == "degenerate"
        assert QuadForm(1, 1, 1).classify() == "degenerate"

    def test_abs_saddle(self):
        m = q_abs(SADDLE).matrix
        assert np.allclose(m, np.eye(2), atol=1e-12)

    def test_abs_fixes_pd(self):
        q = QuadForm(2, 1, 3)
        assert np.allclose(q_abs(q).matrix, q.matrix, atol=1e-12)

    def test_abs_offdiagonal(self):
        # eigenvalues +-1 with eigenvectors (1,1), (1,-1)
        assert np.allclose(q_abs(QuadForm(0, 1, 0)).matrix, np.eye(2), atol=1e-12)

    def test_abs_dominates(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = QuadForm(*rng.uniform(-2, 2, 3))
            absq = q_abs(q)
            v = rng.uniform(-1, 1, (20, 2))
            assert np.all(np.abs(q(v)) <= absq(v) + 1e-12)


class TestCanonicalTransform:
    def test_identity(self):
        l, eps = canonical_transform(IDENTITY)
        assert eps == 1
        assert np.allclose(l.T @ IDENTITY.matrix @ l, np.eye(2), atol=1e-10)

    def test_diag_4_9(self):
        q = QuadForm(4, 0, 9)
        l, eps = canonical_transform(q)
        assert eps == 1
        assert np.allclose(l.T @ q.matrix @ l, np.eye(2), atol=1e-10)
        assert np.allclose(sorted(np.abs(np.linalg.eigvals(l))), [1 / 3, 1 / 2])

    def test_negative_definite(self):
        q = QuadForm(-4, 0, -9)
        l, eps = canonical_transform(q)
        assert eps == -1
        assert np.allclose(l.T @ q.matrix @ l, -np.eye(2), atol=1e-10)

    def test_mixed(self):
        q = QuadForm(1, 0, -4)
        l, eps = canonical_transform(q)
        assert eps == 0
        assert np.allclose(l.T @ q.matrix @ l, np.diag([1.0, -1.0]), atol=1e-10)

    def test_random_forms(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = QuadForm(*rng.uniform(-3, 3, 3))
            if not abs(q.det) > 1e-6:
                continue
            l, eps = canonical_transform(q)
            target = eps * np.eye(2) if q.det > 0 else np.diag([1.0, -1.0])
            assert np.allclose(l.T @ q.matrix @ l, target, atol=1e-10)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            canonical_transform(QuadForm(1, 0, 0))

    @pytest.mark.parametrize("a02", [1e-14, -1e-14])
    def test_degenerate_is_what_classify_says(self, a02):
        # |det| == DEGENERATE_RTOL * scale**2 exactly: classify calls the form
        # degenerate, and so do the measures that need a non-degenerate form
        q = QuadForm(1, 0, a02)
        assert q.classify() == "degenerate"
        with pytest.raises(ValueError, match="degenerate"):
            canonical_transform(q)
        with pytest.raises(ValueError, match="degenerate"):
            rho(q, reference_triangle())

    def test_just_above_the_tolerance_is_accepted(self):
        q = QuadForm(1, 0, 2e-14)
        assert q.classify() == "positive-definite"
        assert canonical_transform(q)[1] == 1
        assert math.isfinite(rho(q, reference_triangle()))


class TestRho:
    def test_equilateral_minimum(self):
        t = Triangle([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        assert rho(IDENTITY, t) == pytest.approx(4 / math.sqrt(3), rel=1e-12)

    def test_saddle_half_square(self):
        assert rho(SADDLE, reference_triangle()) == pytest.approx(2.0)

    def test_reference_identity(self):
        assert rho(IDENTITY, reference_triangle()) == pytest.approx(4.0)

    def test_rejects_degenerate_form(self):
        with pytest.raises(ValueError):
            rho(QuadForm(1, 0, 0), reference_triangle())


class TestSigma:
    def test_reference_identity(self):
        assert sigma(IDENTITY, reference_triangle()) == pytest.approx(1.0)

    def test_hand_example(self):
        assert sigma(QuadForm(1, 0, 4), reference_triangle()) == pytest.approx(1.25)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            sigma(SADDLE, reference_triangle())

    @settings(max_examples=200, deadline=None)
    @given(pd_form_and_triangle())
    def test_equivalence_with_rho(self, sample):
        q, t = sample
        r, s = rho(q, t), sigma(q, t)
        assert r / 8 - 1e-12 * r <= s <= r / 2 + 1e-12 * r

    @settings(max_examples=200, deadline=None)
    @given(pd_form_and_triangle())
    def test_minimum_is_one(self, sample):
        q, t = sample
        assert sigma(q, t) >= 1.0 - 1e-12


class TestInvariance:
    def test_rho_sigma_under_linear_maps(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            phi = rng.uniform(-2, 2, (2, 2))
            if abs(np.linalg.det(phi)) < 0.05:
                continue
            if np.linalg.det(phi) < 0:
                phi = phi[::-1]  # keep phi(t) counter-clockwise
            qt = Triangle(t.vertices @ phi.T)
            qc = compose_linear(q, phi)
            assert rho(qc, t) == pytest.approx(rho(q, qt), rel=1e-10)
            assert sigma(qc, t) == pytest.approx(sigma(q, qt), rel=1e-10)


class TestBisect:
    def test_midpoint_construction(self):
        t = Triangle([(0, 0), (2, 0), (0, 2)])
        c1, c2 = map(Triangle, bisect(t.vertices, 0))
        assert np.allclose(c1.vertices, [(0, 0), (2, 0), (1, 1)])
        assert np.allclose(c2.vertices, [(0, 0), (1, 1), (0, 2)])
        assert c1.area == pytest.approx(1.0)
        assert c2.area == pytest.approx(1.0)

    def test_area_halves_and_union(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            t = random_triangle(rng)
            for e in range(3):
                c1, c2 = map(Triangle, bisect(t.vertices, e))
                assert c1.area == pytest.approx(t.area / 2, rel=1e-12)
                assert c2.area == pytest.approx(t.area / 2, rel=1e-12)

    def test_child_edge_multisets(self):
        # bisecting edge a yields children with edges {a/2, (b-c)/2, c}
        # and {a/2, b, (c-b)/2} up to sign
        rng = np.random.default_rng(29)
        for _ in range(50):
            t = random_triangle(rng)
            a, b, c = edge_vectors_of(t.vertices)
            c1, c2 = map(Triangle, bisect(t.vertices, 0))

            def lengths(tt):
                return sorted(float(np.dot(e, e)) for e in edge_vectors_of(tt.vertices))

            expect1 = sorted(float(np.dot(e, e)) for e in (a / 2, (b - c) / 2, c))
            expect2 = sorted(float(np.dot(e, e)) for e in (a / 2, b, (c - b) / 2))
            assert lengths(c1) == pytest.approx(expect1, rel=1e-12)
            assert lengths(c2) == pytest.approx(expect2, rel=1e-12)

    def test_bad_edge_index(self):
        # out of range, not an integer (bool included), or not one index
        for edge in (3, -1, 1.0, True, np.bool_(False), np.array(1.0),
                     np.array([1]), [0, 1]):
            with pytest.raises(ValueError, match="edge index"):
                bisect(reference_triangle().vertices, edge)

    @pytest.mark.parametrize("edges", [
        1, np.array([0]), np.array([0, 1, 2]), np.array([[0, 1]]), np.array([0, 3]),
        np.array([-1, 0]), np.array([0.0, 1.0]), np.array([True, False]),
    ], ids=["scalar", "short", "long", "2d", "three", "negative", "float", "bool"])
    def test_bad_edge_index_batch(self, edges):
        verts = np.stack([reference_triangle().vertices] * 2)
        with pytest.raises(ValueError, match="edge index"):
            bisect(verts, edges)

    @pytest.mark.parametrize("edge", [1, np.int64(1), np.uint8(1), np.array(1, np.int32)])
    def test_integer_edge_index_types(self, edge):
        v = reference_triangle().vertices
        assert all(np.array_equal(a, b) for a, b in zip(bisect(v, edge), bisect(v, 1)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(1, 20))
    def test_batch_matches_rows(self, seed, n):
        rng = np.random.default_rng(seed)
        verts = np.array([random_triangle(rng).vertices for _ in range(n)])
        edges = rng.integers(0, 3, n)
        c0, c1 = bisect(verts, edges)
        for k in range(n):
            r0, r1 = bisect(verts[k], int(edges[k]))
            assert np.array_equal(c0[k], r0) and np.array_equal(c1[k], r1)


class TestQSortedEdges:
    def test_tie_prefers_lower_index(self):
        # isoceles right triangle: edges b and c tie under the identity
        order = q_sorted_edge_indices(IDENTITY, reference_triangle())
        assert order == [0, 1, 2]
        assert q_longest_edge_index(IDENTITY, reference_triangle()) == 0

    def test_near_tie_snaps(self):
        # sub-tolerance perturbation must not reorder the tied pair
        t = Triangle([(0, 0), (1, 0), (1e-16, 1)])
        assert q_sorted_edge_indices(IDENTITY, t) == [0, 1, 2]


class TestPsi:
    def test_tie_keeps_edge_c(self):
        # both legs tie; the rule keeps the child containing c = (1,0)
        child = psi(IDENTITY, reference_triangle())
        assert np.allclose(child.vertices, [(0, 0), (1, 0), (0.5, 0.5)])

    def test_contains_q_shortest_edge(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            order = q_sorted_edge_indices(q, t)
            shortest = t.edge_vector(order[2])
            child = psi(q, t)
            child_edges = edge_vectors_of(child.vertices)
            match = min(
                min(np.abs(e - shortest).max(), np.abs(e + shortest).max())
                for e in child_edges
            )
            assert match <= 1e-12

    def test_sigma_58_rho(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            r = rho(q, t)
            assert sigma(q, psi(q, t)) <= (5.0 / 8.0) * r * (1 + 1e-10)

    def test_rho_decay(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            r = rho(q, t)
            bound = 0.5 * r * (1.0 + 16.0 / (r * r))
            assert rho(q, psi(q, t)) <= bound * (1 + 1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psi(SADDLE, reference_triangle())


class TestSigmaDecay:
    def test_children_never_increase_sigma(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            s0 = sigma(q, t)
            for child in map(Triangle, bisect(t.vertices, q_longest_edge_index(q, t))):
                assert sigma(q, child) <= s0 * (1 + 1e-12)

    def test_three_level_disjunction(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            s0 = sigma(q, t)
            tris = [t]
            for _level in range(3):
                tris = [c for tt in tris for c in map(
                    Triangle, bisect(tt.vertices, q_longest_edge_index(q, tt)))]
            svals = [sigma(q, tt) for tt in tris]
            assert len(svals) == 8
            assert max(svals) <= s0 * (1 + 1e-12)
            assert min(svals) <= max(0.69 * s0, 5.0) * (1 + 1e-12)

    def test_psi_cubed_contraction(self):
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(2000):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            s3 = sigma(q, psi(q, psi(q, psi(q, t))))
            if s3 >= 5.0:
                checked += 1
                assert s3 <= 0.69 * sigma(q, t) * (1 + 1e-10)
        assert checked > 0  # the sample must exercise the implication


class TestDeltaDistance:
    def test_self_distance(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            assert delta(q, t, t) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            q = random_pd_form(rng)
            t1, t2 = random_triangle(rng), random_triangle(rng)
            assert delta(q, t1, t2) == pytest.approx(delta(q, t2, t1), rel=1e-14)

    def test_hand_example(self):
        t2 = Triangle([(0, 0), (2, 0), (0, 1)])
        assert delta(IDENTITY, reference_triangle(), t2) == pytest.approx(3.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            delta(SADDLE, reference_triangle(), reference_triangle())


class TestPerturbedBisection:
    def test_pairing_lemma(self):
        # children of a longest-edge and a delta-near bisection stay
        # (5/4 Delta + delta q(a2))-close, up to pairing permutation
        rng = np.random.default_rng(67)
        for _ in range(200):
            q = random_pd_form(rng)
            t1 = random_triangle(rng)
            t2 = random_triangle(rng)
            qvals2 = [q(t2.edge_vector(i)) for i in range(3)]
            top2 = max(qvals2)
            r1, u1 = map(Triangle, bisect(t1.vertices, q_longest_edge_index(q, t1)))
            for e in range(3):
                dlt = 1.0 - qvals2[e] / top2
                r2, u2 = map(Triangle, bisect(t2.vertices, e))
                paired = min(
                    max(delta(q, r1, r2), delta(q, u1, u2)),
                    max(delta(q, r1, u2), delta(q, u1, r2)),
                )
                bound = 1.25 * delta(q, t1, t2) + dlt * top2
                assert paired <= bound * (1 + 1e-10) + 1e-14

    def test_near_bisection_sigma_growth(self):
        # children of a delta-near longest-edge bisection: sigma grows
        # at most by the factor (1 + 4 delta)
        rng = np.random.default_rng(71)
        for _ in range(300):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            qvals = [q(t.edge_vector(i)) for i in range(3)]
            top = max(qvals)
            s0 = sigma(q, t)
            for e in range(3):
                dlt = 1.0 - qvals[e] / top
                for child in map(Triangle, bisect(t.vertices, e)):
                    assert sigma(q, child) <= (1 + 4 * dlt) * s0 * (1 + 1e-10)
