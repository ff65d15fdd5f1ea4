"""Approximation operators, local errors and edge-decision functions."""

import math
import tracemalloc
from math import factorial

import numpy as np
import pytest

from anisomesh import approx
from anisomesh.approx import (
    DEFAULT_RULE,
    AffinePoly,
    decision_gains_convex,
    decision_l1,
    decision_lp_split,
    interpolate,
    local_error,
    local_errors,
    project_l2,
)
from anisomesh.fields import QuadraticField, ScalarField, get_field
from anisomesh.geometry import Triangle, bisect, q_longest_edge_index, reference_triangle

from test_geometry import random_pd_form, random_triangle

DISK = QuadraticField("disk", 1.0, 0.0, 1.0)
REF = reference_triangle()


def local_error_quadratic_exact(t: Triangle, qf: QuadraticField) -> float:
    """Exact ``||q - I_T q||_{L1(T)}`` for a convex (or concave) quadratic.

    Convexity makes ``I_T q - q`` one-signed, so the L1 norm is the plain
    integral of a quadratic, the sum of the ``decision_gains_convex`` gains;
    equals ``|T| * |q(a) + q(b) + q(c)| / 12`` in terms of the form.
    """
    if not isinstance(qf, QuadraticField):
        raise TypeError("expects a QuadraticField")
    lo, hi = np.linalg.eigvalsh(qf.form.matrix)
    tol = 1e-12 * max(qf.form.scale, 1e-300)
    if lo < -tol and hi > tol:
        raise ValueError("exact L1 error needs a semidefinite homogeneous part")
    return abs(float(decision_gains_convex(t.vertices, qf).sum()))


def affine_field(c0, c1, c2):
    return ScalarField(f"affine({c0},{c1},{c2})",
                       lambda x, y: c0 + c1 * x + c2 * y + 0.0 * x)


def composed_field(f, mat, shift):
    """The pullback f(phi(x)) for the affine map phi(x) = shift + mat x."""

    def func(x, y):
        u = mat[0, 0] * x + mat[0, 1] * y + shift[0]
        v = mat[1, 0] * x + mat[1, 1] * y + shift[1]
        return f(u, v)

    return ScalarField(f.label + "@phi", func)


class TestQuadratureRules:
    @pytest.mark.parametrize("rule", [DEFAULT_RULE])
    def test_exact_to_declared_degree(self, rule):
        # reference-triangle moments: int x^i y^j = i! j! / (i+j+2)!
        for i in range(rule.degree + 1):
            for j in range(rule.degree + 1 - i):
                xy = rule.nodes @ REF.vertices
                approx = 0.5 * float(
                    (rule.weights * xy[:, 0] ** i * xy[:, 1] ** j).sum())
                exact = factorial(i) * factorial(j) / factorial(i + j + 2)
                assert approx == pytest.approx(exact, rel=1e-13)

    def test_weights_sum_to_one(self):
        assert float(DEFAULT_RULE.weights.sum()) == pytest.approx(1.0, abs=1e-15)
        assert len(DEFAULT_RULE.weights) == 16


class TestInterpolate:
    def test_reproduces_affine(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = rng.uniform(-2, 2, 3)
            t = random_triangle(rng)
            got = interpolate(t, affine_field(*c)).coefficients
            assert np.abs(np.array(got) - c).max() <= 1e-12

    def test_disk_on_reference(self):
        pi = interpolate(REF, DISK)
        assert np.allclose(pi.coefficients, (0.0, 1.0, 1.0), atol=1e-14)

    def test_matches_at_vertices(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = random_triangle(rng)
            q = random_pd_form(rng)
            f = QuadraticField("s", q.a20, q.a11, q.a02, *rng.uniform(-1, 1, 3))
            pi = interpolate(t, f)
            v = t.vertices
            assert np.abs(pi(v[:, 0], v[:, 1]) - f(v[:, 0], v[:, 1])).max() <= 1e-12


class TestProjectL2:
    def test_fixes_affine(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            c = rng.uniform(-2, 2, 3)
            t = random_triangle(rng)
            got = project_l2(t, affine_field(*c)).coefficients
            assert np.abs(np.array(got) - c).max() <= 1e-11

    def test_orthogonality_residual(self):
        fields = [
            ScalarField("x2", lambda x, y: x * x),
            ScalarField("deg7", lambda x, y: x ** 4 * y ** 3 - 2 * x * y + y ** 2),
            DISK,
        ]
        rng = np.random.default_rng(17)
        for f in fields:
            for t in [REF] + [random_triangle(rng) for _ in range(10)]:
                pi = project_l2(t, f)
                xy = DEFAULT_RULE.nodes @ t.vertices
                w = t.area * DEFAULT_RULE.weights
                res = f(xy[:, 0], xy[:, 1]) - pi(xy[:, 0], xy[:, 1])
                for phi in (np.ones(len(xy)), xy[:, 0], xy[:, 1]):
                    moment = float((w * res * phi).sum())
                    scale = float((w * np.abs(f(xy[:, 0], xy[:, 1]) * phi)).sum())
                    assert abs(moment) <= 1e-10 * max(scale, 1e-30)

    def test_differs_from_interpolation_off_affine(self):
        pi_i = interpolate(REF, DISK)
        pi_p = project_l2(REF, DISK)
        assert abs(pi_i.c0 - pi_p.c0) > 1e-3
        e_i = local_error(REF, DISK, 2, "interpolation")
        e_p = local_error(REF, DISK, 2, "l2-projection")
        assert e_p <= e_i

    def test_rejects_flat_triangle(self):
        with pytest.raises(ValueError):
            project_l2(Triangle([(0, 0), (1, 0), (0.5, 1e-15)]), DISK)


class TestLocalError:
    def test_affine_is_exact(self):
        rng = np.random.default_rng(21)
        for op in ("interpolation", "l2-projection"):
            for _ in range(20):
                t = random_triangle(rng)
                f = affine_field(*rng.uniform(-2, 2, 3))
                assert local_error(t, f, 1, op) <= 1e-12 * t.area

    def test_disk_l1_reference(self):
        assert local_error(REF, DISK, 1) == pytest.approx(1 / 6, rel=1e-13)

    def test_disk_linf_reference(self):
        # max of x + y - x^2 - y^2 on the triangle, attained at (1/2, 1/2)
        assert local_error(REF, DISK, math.inf) == pytest.approx(0.5, rel=1e-13)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            local_error(REF, DISK, 0.5)

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            local_error(REF, DISK, 2, "nearest")


def reference_local_error(t, f, p, op, rule=DEFAULT_RULE, subdiv=1):
    """Per-triangle local error, written without the batched kernel."""
    from anisomesh.approx import _subdivided

    bary, w = _subdivided(rule, subdiv)
    if math.isinf(p):
        lattice = [(i / 16, j / 16, (16 - i - j) / 16)
                   for i in range(17) for j in range(17 - i)]
        bary = np.vstack([bary, lattice])
    xy = bary @ t.vertices
    if op == "interpolation":
        v = t.vertices
        nodes = bary @ np.asarray(f(v[:, 0], v[:, 1]), dtype=float)
    else:
        cx, cy = t.centroid
        h = t.diameter
        qxy = xy[: len(w)]
        phi = np.column_stack([np.ones(len(qxy)), (qxy[:, 0] - cx) / h, (qxy[:, 1] - cy) / h])
        gram = (phi * w[:, None]).T @ phi
        load = (phi * w[:, None]).T @ np.asarray(f(qxy[:, 0], qxy[:, 1]), dtype=float)
        alpha = np.linalg.solve(gram, load)
        nodes = alpha[0] + alpha[1] * (xy[:, 0] - cx) / h + alpha[2] * (xy[:, 1] - cy) / h
    res = np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float) - nodes
    if math.isinf(p):
        return float(np.abs(res).max())
    return float((t.area * (w * np.abs(res[: len(w)]) ** p).sum()) ** (1.0 / p))


class TestLocalErrorsKernel:
    """The batched kernel against a per-triangle reference loop."""

    @pytest.mark.parametrize("label", ["expbump", "aniso-100", "mixed-saddle"])
    @pytest.mark.parametrize("op", ["interpolation", "l2-projection"])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_matches_reference_loop(self, label, op, p):
        rng = np.random.default_rng(57)
        tris = [random_triangle(rng) for _ in range(40)]
        f = get_field(label)
        got = local_errors(np.array([t.vertices for t in tris]), f, p, op)
        want = np.array([reference_local_error(t, f, p, op) for t in tris])
        if op == "interpolation":
            assert np.array_equal(got, want)
        else:
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_chunk_boundary(self, p):
        # 65 triangles span two evaluation chunks
        rng = np.random.default_rng(61)
        tris = [random_triangle(rng) for _ in range(65)]
        f = get_field("expbump")
        got = local_errors(np.array([t.vertices for t in tris]), f, p)
        assert got.shape == (65,)
        assert np.array_equal(got, [local_error(t, f, p) for t in tris])

    @pytest.mark.parametrize("label", ["aniso-100", "expbump", "gauss-ridge"])
    def test_temporaries_of_one_chunk(self, label):
        """Peak traced memory of ``local_errors`` on one chunk at p = inf.

        The kernel keeps live the points ``xy``, (chunk, nodes, 2) floats,
        and at most two (chunk, nodes) float arrays: the field's value and
        its term buffer while the field evaluates, then the values ``fx`` and
        the residual, which is taken in place.  Besides these, it holds only
        per-triangle values (areas, squared diameters, the three vertex
        values of the interpolation), granted 16 floats per triangle with
        their array headers.  A third (chunk, nodes) array adds 220 floats
        per triangle, far beyond that grant.
        """
        rng = np.random.default_rng(71)
        verts = np.array([random_triangle(rng).vertices for _ in range(approx._CHUNK)])
        f = get_field(label)
        n_nodes = len(approx._ERROR_NODES_INF)
        block = approx._CHUNK * n_nodes * 8  # bytes of one (chunk, nodes) array
        xy = 2 * block
        bound = xy + 2 * block + 16 * 8 * approx._CHUNK
        local_errors(verts, f, math.inf)  # numpy's first-call set-up is not the kernel's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            local_errors(verts, f, math.inf)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_empty_batch_and_bad_shape(self):
        assert local_errors(np.empty((0, 3, 2)), DISK, 2.0).shape == (0,)
        with pytest.raises(ValueError, match="shape"):
            local_errors(REF.vertices, DISK, 2.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("op", ["interpolation", "l2-projection"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, op, bad):
        f = ScalarField("spike", lambda x, y: np.where(x + y > 1.5, bad, x * y))
        verts = np.array([REF.vertices, REF.vertices + 1.0])
        with pytest.raises(ValueError,
                           match=r"field 'spike' is not finite on triangle "
                                 r"\[\[1\.0, 1\.0\], \[2\.0, 1\.0\], \[1\.0, 2\.0\]\]"):
            local_errors(verts, f, 2.0, op)

    def test_flat_triangle_rejected(self):
        flat = np.array([[(0, 0), (1, 0), (0.5, 1e-15)]])
        with pytest.raises(ValueError, match="too flat"):
            local_errors(flat, DISK, 2.0)


class TestQuadraticExact:
    def test_reference_value(self):
        assert local_error_quadratic_exact(REF, DISK) == pytest.approx(1 / 6, rel=1e-14)

    def test_affine_vanishes(self):
        q = QuadraticField("flat", 0, 0, 0, 1.0, -2.0, 0.5)
        assert local_error_quadratic_exact(REF, q) == pytest.approx(0.0, abs=1e-15)

    def test_scaling_lambda4(self):
        t2 = Triangle(2.0 * REF.vertices)
        e1 = local_error_quadratic_exact(REF, DISK)
        e2 = local_error_quadratic_exact(t2, DISK)
        assert e2 == pytest.approx(16.0 * e1, rel=1e-13)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            qf = QuadraticField("s", q.a20, q.a11, q.a02, *rng.uniform(-1, 1, 3))
            exact = local_error_quadratic_exact(t, qf)
            quad = local_error(t, qf, 1)
            assert quad == pytest.approx(exact, rel=1e-12)

    def test_concave_accepted_indefinite_rejected(self):
        assert local_error_quadratic_exact(
            REF, QuadraticField("cap", -1, 0, -1)) == pytest.approx(1 / 6, rel=1e-13)
        with pytest.raises(ValueError):
            local_error_quadratic_exact(REF, QuadraticField("saddle", 1, 0, -1))


class TestDecisions:
    def test_gain_reference_values(self):
        assert decision_gains_convex(REF.vertices, DISK)[0] == pytest.approx(1 / 12, rel=1e-13)
        assert decision_gains_convex(REF.vertices, DISK)[1] == pytest.approx(1 / 24, rel=1e-13)
        assert decision_gains_convex(REF.vertices, DISK)[2] == pytest.approx(1 / 24, rel=1e-13)

    def test_gain_affine_vanishes(self):
        f = affine_field(1.0, 2.0, -3.0)
        assert np.abs(decision_gains_convex(REF.vertices, f)).max() <= 1e-14

    def test_l1_affine_vanishes(self):
        f = affine_field(0.5, 1.0, 1.0)
        assert decision_l1(REF.vertices, f).max() <= 1e-13

    def test_l1_matches_gain_identity(self):
        # || f - I_T f ||_1 - d_T(e, f) equals the closed-form reduction
        rng = np.random.default_rng(33)
        for _ in range(50):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            qf = QuadraticField("s", q.a20, q.a11, q.a02)
            for e in range(3):
                dq = local_error(t, qf, 1) - decision_l1(t.vertices, qf)[e]
                dc = decision_gains_convex(t.vertices, qf)[e]
                assert dq == pytest.approx(dc, rel=1e-8, abs=1e-14)

    def test_argmin_l1_is_q_longest_edge(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            qvals = [q(t.edge_vector(i)) for i in range(3)]
            svals = sorted(qvals, reverse=True)
            if svals[0] - svals[1] <= 1e-6 * svals[0]:
                continue
            qf = QuadraticField("s", q.a20, q.a11, q.a02)
            chosen = int(np.argmin(decision_l1(t.vertices, qf)))
            assert chosen == q_longest_edge_index(q, t)

    def test_lp_split_affine_vanishes(self):
        f = affine_field(0.0, 1.0, -1.0)
        assert decision_lp_split(REF.vertices, f, 2).max() <= 1e-26

    def test_lp_split_p1_equals_l1(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            t = random_triangle(rng)
            for e in range(3):
                a = decision_lp_split(t.vertices, DISK, 1)[e]
                b = decision_l1(t.vertices, DISK)[e]
                assert a == pytest.approx(b, rel=1e-13)

    def test_hypotenuse_split_wins_for_disk(self):
        vals = decision_lp_split(REF.vertices, DISK, 2)
        assert vals[0] < vals[1] and vals[0] < vals[2]

    def test_lp_split_inf_uses_max(self):
        e1 = decision_lp_split(REF.vertices, DISK, math.inf)[0]
        c1, c2 = map(Triangle, bisect(REF.vertices, 0))
        expect = max(local_error(c1, DISK, math.inf), local_error(c2, DISK, math.inf))
        assert e1 == pytest.approx(expect, rel=1e-14)


def reference_split(t, f, p, e, op="interpolation"):
    """One edge's decision value from its two children, one bisection at a time."""
    e1, e2 = local_errors(np.stack(bisect(t.vertices, e)), f, p, op).tolist()
    return max(e1, e2) if math.isinf(p) else e1 ** p + e2 ** p


class TestBatchedDecisions:
    """One call scores the three edges of one triangle or of a batch."""

    CASES = [(p, op) for p in (1.0, 2.0, 3.5, math.inf)
             for op in ("interpolation", "l2-projection")]

    @pytest.mark.parametrize("p, op", CASES)
    def test_lp_split_matches_per_edge_reference(self, p, op):
        rng = np.random.default_rng(11)
        f = get_field("mixed-saddle")
        for _ in range(5):
            t = random_triangle(rng)
            want = [reference_split(t, f, p, e, op) for e in range(3)]
            assert decision_lp_split(t.vertices, f, p, op).tolist() == want

    def test_l1_matches_per_edge_reference(self):
        rng = np.random.default_rng(12)
        f = get_field("expbump")
        t = random_triangle(rng)
        want = [reference_split(t, f, 1.0, e) for e in range(3)]
        assert decision_l1(t.vertices, f).tolist() == want

    @pytest.mark.parametrize("decide", [
        lambda v, f: decision_gains_convex(v, f),
        lambda v, f: decision_l1(v, f),
        lambda v, f: decision_lp_split(v, f, 2.0),
        lambda v, f: decision_lp_split(v, f, math.inf, "l2-projection"),
    ], ids=["gains-convex", "l1", "lp-split-2", "lp-split-inf-l2"])
    def test_batch_matches_rows(self, decide):
        rng = np.random.default_rng(13)
        f = get_field("expbump")
        verts = np.array([random_triangle(rng).vertices for _ in range(70)])
        batch = decide(verts, f)
        assert batch.shape == (70, 3)
        assert decide(verts[0], f).shape == (3,)
        assert np.array_equal(batch, [decide(v, f) for v in verts])

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_large_batch_is_decided_in_bounded_chunks(self, monkeypatch, p):
        # a greedy batch can hold thousands of leaves: the decision must not
        # build all their 3 n candidate parents and 6 n children at once
        rng = np.random.default_rng(14)
        f = get_field("mixed-saddle")
        verts = np.array([random_triangle(rng).vertices for _ in range(5000)])
        rows = {"bisect": [], "local_errors": []}
        for name in rows:
            real = getattr(approx, name)
            monkeypatch.setattr(approx, name, lambda v, *args, real=real, seen=rows[name]:
                                seen.append(len(v)) or real(v, *args))
        batch = decision_lp_split(verts, f, p)
        assert sum(rows["bisect"]) == 3 * 5000 and max(rows["bisect"]) <= 3 * approx._CHUNK
        assert sum(rows["local_errors"]) == 6 * 5000
        assert max(rows["local_errors"]) <= 6 * approx._CHUNK
        monkeypatch.undo()
        some = rng.choice(5000, 40, replace=False)
        assert np.array_equal(batch[some], [decision_lp_split(v, f, p) for v in verts[some]])


class TestAffineCommutation:
    @pytest.mark.parametrize("op", ["interpolation", "l2-projection"])
    def test_commutation(self, op):
        rng = np.random.default_rng(51)
        fields = [get_field("expbump"), QuadraticField("aniso", 1.0, 0.3, 2.0)]
        for _ in range(60):
            mat = rng.uniform(-1.5, 1.5, (2, 2))
            if abs(np.linalg.det(mat)) < 0.1:
                continue
            shift = rng.uniform(-0.5, 0.5, 2)
            t = random_triangle(rng)
            image = Triangle(t.vertices @ mat.T + shift) \
                if np.linalg.det(mat) > 0 else \
                Triangle((t.vertices @ mat.T + shift)[[0, 2, 1]])
            for f in fields:
                fphi = composed_field(f, mat, shift)
                for p in (1.0, 2.0, math.inf):
                    lhs = local_error(image, f, p, op)
                    rhs = abs(np.linalg.det(mat)) ** (1 / p) * local_error(t, fphi, p, op) \
                        if not math.isinf(p) else local_error(t, fphi, p, op)
                    assert lhs == pytest.approx(rhs, rel=1e-8)


class TestSandwich:
    def _make_pair(self, rng, mu):
        q = random_pd_form(rng)
        w, r = np.linalg.eigh(q.matrix)
        sq = (r * np.sqrt(w)) @ r.T  # Q^(1/2)
        theta = rng.uniform(0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        smat = (rot * rng.uniform(0.0, 1.0, 2)) @ rot.T  # 0 <= S <= I
        qt = sq @ smat @ sq  # 0 <= Q~ <= Q
        fm = q.matrix + mu * qt
        f = QuadraticField("f", fm[0, 0], fm[0, 1], fm[1, 1], *rng.uniform(-1, 1, 3))
        qf = QuadraticField("q", q.a20, q.a11, q.a02)
        return q, qf, f

    @pytest.mark.parametrize("mu", [0.01, 0.1])
    def test_pointwise_sandwich(self, mu):
        from anisomesh.approx import _subdivided

        rng = np.random.default_rng(77)
        bary, _ = _subdivided(DEFAULT_RULE, 1)
        for _ in range(60):
            q, qf, f = self._make_pair(rng, mu)
            t = random_triangle(rng)
            xy = bary @ t.vertices
            gap_f = interpolate(t, f)(xy[:, 0], xy[:, 1]) - f(xy[:, 0], xy[:, 1])
            gap_q = interpolate(t, qf)(xy[:, 0], xy[:, 1]) - qf(xy[:, 0], xy[:, 1])
            diff = gap_f - gap_q
            slack = 1e-12 * (1.0 + np.abs(gap_q).max())
            assert np.all(diff >= -slack)
            assert np.all(diff <= mu * gap_q + slack)

    @pytest.mark.parametrize("mu", [0.01, 0.1])
    def test_decision_bracket(self, mu):
        # |T| q(e) / 12 <= D_T(e, f) <= (1 + mu) |T| q(e) / 12
        rng = np.random.default_rng(81)
        for _ in range(60):
            q, qf, f = self._make_pair(rng, mu)
            t = random_triangle(rng)
            for e in range(3):
                lo = t.area * q(t.edge_vector(e)) / 12.0
                gain = decision_gains_convex(t.vertices, f)[e]
                assert lo * (1 - 1e-10) <= gain <= (1 + mu) * lo * (1 + 1e-10)


class TestEquivalenceBracket:
    def test_ratio_bracket_across_p(self):
        # e_T(q)_p / (sigma_q ||sqrt det q||_Ltau(T)) stays in [1/10, 10]
        from anisomesh.analysis import tau_from_p
        from anisomesh.geometry import sigma

        rng = np.random.default_rng(85)
        for _ in range(200):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            qf = QuadraticField("s", q.a20, q.a11, q.a02)
            for p in (1.0, 2.0, math.inf):
                denom = sigma(q, t) * math.sqrt(q.det) * t.area ** (1 / tau_from_p(p))
                ratio = local_error(t, qf, p) / denom
                assert 0.1 <= ratio <= 10.0


class TestQuadratureResolutionStability:
    """Flags the open question: edge choices vs quadrature resolution.

    For convex fields the residual f - I_T f is one-signed, quadrature
    converges fast, and doubling the resolution never flips the choice
    outside machine-level ties.  For mixed-sign fields the residual has
    kink curves; observed flips occur, but only when the two best
    decisions are within the ~1% quadrature tolerance band (a genuine
    near-tie at subdivision 1), never for clear-cut choices.
    """

    @staticmethod
    def _l1_subdiv2(t, f):
        """decision_l1 values at subdivision 2, from the per-triangle reference."""
        return np.array([sum(reference_local_error(Triangle(c), f, 1.0, "interpolation",
                                                   subdiv=2) for c in bisect(t.vertices, e))
                         for e in range(3)])

    @staticmethod
    def _min_rel_gap(v):
        top2 = np.sort(v)[:2]
        return (top2[1] - top2[0]) / max(top2[1], 1e-300)

    def test_convex_fields_never_flip(self):
        rng = np.random.default_rng(91)
        f = get_field("expbump")
        for _ in range(40):
            t = random_triangle(rng)
            v1 = decision_l1(t.vertices, f)
            v2 = self._l1_subdiv2(t, f)
            if min(self._min_rel_gap(v1), self._min_rel_gap(v2)) <= 1e-8:
                continue
            assert np.argmin(v1) == np.argmin(v2)

    def test_mixed_sign_flips_only_within_tolerance_band(self):
        rng = np.random.default_rng(91)
        f = get_field("mixed-saddle")
        flips = []
        for _ in range(60):
            t = random_triangle(rng)
            v1 = decision_l1(t.vertices, f)
            v2 = self._l1_subdiv2(t, f)
            if np.argmin(v1) != np.argmin(v2):
                flips.append(self._min_rel_gap(v1))
        # every observed flip is a sub-percent near-tie, not a clear choice
        assert all(gap < 1e-2 for gap in flips)


def test_affine_poly_eval():
    pi = AffinePoly(1.0, 2.0, 3.0)
    assert pi(1.0, 1.0) == pytest.approx(6.0)
    assert np.allclose(pi(np.array([0.0, 1.0]), np.array([0.0, 0.0])), [1.0, 3.0])
    with pytest.raises(ValueError):
        AffinePoly(math.nan, 0.0, 0.0)
