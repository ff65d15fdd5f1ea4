"""Catalog fields: values, analytic hessians, convexity declarations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisomesh.fields import (
    QuadraticField,
    ScalarField,
    builtin_catalog,
    get_field,
)

EXPECTED_LABELS = {"disk", "aniso-2", "aniso-10", "aniso-100",
                   "expbump", "mixed-saddle", "gauss-ridge"}


def hessian_fd(f: ScalarField, point, h: float = 1e-4) -> np.ndarray:
    """Central second differences of ``f`` at one point: the oracle for the
    analytic hessians; ``h`` must leave a margin of 2h inside the region where
    ``f`` is defined (catalog fields are global)."""
    if h <= 0:
        raise ValueError("step h must be positive")
    x, y = float(point[0]), float(point[1])
    f00 = float(f(x, y))
    fxx = (float(f(x + h, y)) - 2.0 * f00 + float(f(x - h, y))) / (h * h)
    fyy = (float(f(x, y + h)) - 2.0 * f00 + float(f(x, y - h))) / (h * h)
    fxy = (float(f(x + h, y + h)) - float(f(x + h, y - h))
           - float(f(x - h, y + h)) + float(f(x - h, y - h))) / (4.0 * h * h)
    return np.array([[fxx, fxy], [fxy, fyy]])


def grid_points(field, n=21):
    (x0, x1), (y0, y1) = field.check_box
    gx, gy = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n))
    return gx.ravel(), gy.ravel()


def test_catalog_labels():
    assert {f.label for f in builtin_catalog()} == EXPECTED_LABELS


def test_get_field_unknown():
    with pytest.raises(ValueError, match="available"):
        get_field("nope")


def test_disk_hessian_constant():
    f = get_field("disk")
    h = f.hessian([0.0, 0.3, -2.0], [0.0, 0.7, 5.0])
    assert h.shape == (3, 2, 2)
    assert np.allclose(h, 2.0 * np.eye(2))


def test_aniso2_hessian_constant():
    h = get_field("aniso-2").hessian(0.4, -0.2)
    assert np.allclose(h, np.diag([2.0, 4.0]))


def test_expbump_hessian_origin():
    assert np.allclose(get_field("expbump").hessian(0.0, 0.0), np.diag([2.0, 4.0]))


def test_expbump_hessian_vs_fd():
    f = get_field("expbump")
    analytic = f.hessian(0.3, 0.1)
    fd = hessian_fd(f, (0.3, 0.1), h=1e-5)
    assert np.abs(fd - analytic).max() <= 1e-4 * np.abs(analytic).max()


def test_mixed_saddle_tag():
    f = get_field("mixed-saddle")
    assert f.convexity == "general"
    assert not f.is_convex
    assert f.form.classify() == "mixed"


def test_quadratic_tags_and_margin():
    disk = get_field("disk")
    assert disk.convexity == "strictly-convex"
    assert disk.convexity_margin == pytest.approx(2.0)
    assert QuadraticField("slab", 1.0, 0.0, 0.0).convexity == "convex"


def test_hessian_fd_quadratics():
    bowl = ScalarField("bowl", lambda x, y: x * x + y * y)
    assert np.abs(hessian_fd(bowl, (0.3, -0.4)) - 2 * np.eye(2)).max() <= 1e-5
    cross = ScalarField("cross", lambda x, y: x * y)
    fd = hessian_fd(cross, (0.2, 0.5))
    assert abs(fd[0, 1] - 1.0) <= 1e-5
    assert abs(fd[1, 0] - 1.0) <= 1e-5


def test_hessian_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        hessian_fd(get_field("disk"), (0, 0), h=0.0)


def test_missing_hessian_rejected():
    bare = ScalarField("bare", lambda x, y: x + y)
    assert not bare.has_hessian
    with pytest.raises(ValueError, match="no analytic hessian"):
        bare.hessian(0.0, 0.0)


def test_tag_validation():
    with pytest.raises(ValueError):
        ScalarField("bad", lambda x, y: x, convexity="wavy")
    with pytest.raises(ValueError):
        ScalarField("bad", lambda x, y: x, convexity="strictly-convex")


@pytest.mark.parametrize("label", sorted(EXPECTED_LABELS))
def test_analytic_hessian_matches_fd_on_grid(label):
    f = get_field(label)
    xs, ys = grid_points(f)
    analytic = f.hessian(xs, ys)
    fd = np.array([hessian_fd(f, (x, y)) for x, y in zip(xs, ys)])
    scale = 1.0 + np.abs(analytic).reshape(len(xs), -1).max(axis=1)
    err = np.abs(analytic - fd).reshape(len(xs), -1).max(axis=1)
    assert np.all(err <= 1e-4 * scale)


@pytest.mark.parametrize(
    "label", sorted(f.label for f in builtin_catalog()
                    if f.convexity == "strictly-convex"))
def test_strict_convexity_margin_on_grid(label):
    f = get_field(label)
    xs, ys = grid_points(f)
    eig_min = np.linalg.eigvalsh(f.hessian(xs, ys))[:, 0]
    assert np.all(eig_min >= f.convexity_margin - 1e-12)


def test_vectorized_eval_shapes():
    f = get_field("expbump")
    assert np.shape(f(np.zeros((4, 5)), np.zeros((4, 5)))) == (4, 5)
    assert np.shape(f.hessian(np.zeros(7), np.zeros(7))) == (7, 2, 2)
    assert float(f(0.0, 0.0)) == pytest.approx(1.0)


def plain_expression(f: ScalarField):
    """The catalog field's value as one plain numpy expression: the oracle
    for its in-place evaluation."""
    if isinstance(f, QuadraticField):
        a20, a11, a02, a10, a01, a00 = f.coeffs
        return lambda x, y: (a20 * x * x + 2.0 * a11 * x * y + a02 * y * y
                             + a10 * x + a01 * y + a00)
    if f.label == "expbump":
        return lambda x, y: np.exp(x * x + 2.0 * y * y)
    if f.label == "gauss-ridge":
        def ridge(x, y):
            u = x - y
            return np.exp(-u * u) + x * x + y * y
        return ridge
    raise AssertionError(f"no plain expression for {f.label!r}")


# every float64 bit pattern class: signed zeros, subnormals, huge values whose
# squares overflow, and both infinities and NaN
_coords = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def field_inputs(draw):
    """(x, y) in the shapes callers pass: broadcast (n, 1) x (1, m) arrays, 0-d
    arrays, Python floats and strided views of an (..., 2) point array."""
    kind = draw(st.sampled_from(["broadcast", "zero-d", "python", "strided"]))
    if kind == "python":
        return draw(_coords), draw(_coords)
    if kind == "zero-d":
        return np.array(draw(_coords)), np.array(draw(_coords))
    if kind == "broadcast":
        n, m = draw(st.integers(1, 5)), draw(st.integers(1, 70))
        x = np.array(draw(st.lists(_coords, min_size=n, max_size=n)))[:, None]
        y = np.array(draw(st.lists(_coords, min_size=m, max_size=m)))[None, :]
        return x, y
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 70))
    xy = np.array(draw(st.lists(_coords, min_size=2 * n * m, max_size=2 * n * m)))
    xy = xy.reshape(n, m, 2)
    return xy[..., 0], xy[..., 1]


@settings(max_examples=300, deadline=None)
@given(label=st.sampled_from(sorted(EXPECTED_LABELS)), xy=field_inputs())
# a NaN that numpy's one-element and broadcast loops sign differently in place
@example(label="gauss-ridge", xy=(np.array([[0.0]]), np.array([[np.nan]])))
@example(label="gauss-ridge", xy=(np.array([[np.nan]]), np.zeros((1, 9))))
def test_field_values_equal_the_plain_expression_bit_for_bit(label, xy):
    f = get_field(label)
    x, y = xy
    with np.errstate(all="ignore"):
        got = f(x, y)
        want = plain_expression(f)(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    assert type(got) is type(want)  # a numpy scalar for 0-d input, else an ndarray
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))
