"""Target scalar fields with values, analytic hessians and convexity tags.

Fields are defined on all of the plane; the initial triangulation of a run
fixes the domain actually meshed.  Evaluation callables are vectorized:
``field(x, y)`` accepts broadcastable arrays, ``field.hessian(x, y)``
returns an array of symmetric 2x2 matrices with shape ``(..., 2, 2)``.

``expbump`` and ``gauss-ridge`` evaluate the error kernel's batches, two
coordinate arrays of one shape and more than one element, in two buffers:
the value and one term, combined in place in the order the formula reads,
so the values equal the plain expression bit for bit while a batch
allocates two arrays, not one per sub-expression.  Any other input (one
point, or coordinates that broadcast) takes the plain expression.  A
``QuadraticField`` evaluates its plain formula: the kernel takes its
interpolation error from its form, so it is evaluated only by the
convex-gain decision (six points per leaf) and by ``l2-projection``
chunks, whose peak the projection's basis arrays set.  A user's ``func``
is called as given.

Convexity tags are declared, not inferred; ``check_box`` is the rectangle
on which the declaration is grid-checked (and on which demo runs make
sense for fields that are only locally convex).
"""
from __future__ import annotations

import numpy as np

from .geometry import QuadForm

__all__ = [
    "ScalarField",
    "QuadraticField",
    "builtin_catalog",
    "get_field",
]

CONVEXITY_TAGS = ("strictly-convex", "convex", "general")


class ScalarField:
    """Evaluatable scalar function of the plane.

    Parameters
    ----------
    label : str
        Catalog identifier.
    func : callable
        ``func(x, y) -> values``, vectorized over broadcastable arrays.
    hess : callable, optional
        ``hess(x, y) -> (..., 2, 2)`` analytic hessian.
    convexity : {'strictly-convex', 'convex', 'general'}
    convexity_margin : float
        Lower bound m with ``d2f >= m I`` for strictly convex fields.
    check_box : ((xmin, xmax), (ymin, ymax))
        Rectangle on which the convexity declaration is spot-checked.
    """

    def __init__(self, label, func, hess=None, convexity="general",
                 convexity_margin=0.0, check_box=((0.0, 1.0), (0.0, 1.0))):
        if convexity not in CONVEXITY_TAGS:
            raise ValueError(f"unknown convexity tag {convexity!r}")
        if convexity == "strictly-convex" and not convexity_margin > 0.0:
            raise ValueError("strictly convex fields need a positive margin")
        self.label = label
        self._func = func
        self._hess = hess
        self.convexity = convexity
        self.convexity_margin = float(convexity_margin)
        self.check_box = check_box

    def __call__(self, x, y):
        return self._func(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    @property
    def has_hessian(self) -> bool:
        return self._hess is not None

    def hessian(self, x, y) -> np.ndarray:
        """Analytic hessian at (x, y); raises if the field has none."""
        if self._hess is None:
            raise ValueError(f"field {self.label!r} has no analytic hessian")
        return self._hess(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    @property
    def is_convex(self) -> bool:
        return self.convexity in ("strictly-convex", "convex")

    def __repr__(self):
        return f"<ScalarField {self.label!r} ({self.convexity})>"


def _batch(x, y):
    """Whether a built-in field evaluates (x, y) in place: only on the kernel's
    batches, two arrays of one shape and more than one element.  numpy meets
    a broadcast operand, or one element, through other loops, where a NaN
    may take the other operand's sign; those inputs take the plain
    expression."""
    return x.shape == y.shape and x.size > 1


class QuadraticField(ScalarField):
    """Polynomial of degree two; the homogeneous part is a QuadForm.

    ``q(x, y) = a20 x^2 + 2 a11 x y + a02 y^2 + a10 x + a01 y + a00``,
    evaluated as that plain expression (no buffers: the interpolation error
    reads ``form``, not values).  The convexity tag is derived from the
    eigenvalues of the form.
    """

    def __init__(self, label, a20, a11, a02, a10=0.0, a01=0.0, a00=0.0,
                 check_box=((0.0, 1.0), (0.0, 1.0))):
        self.coeffs = tuple(float(c) for c in (a20, a11, a02, a10, a01, a00))
        form = QuadForm(a20, a11, a02)
        lo, hi = np.linalg.eigvalsh(form.matrix)
        tol = 1e-14 * max(form.scale, 1e-300)
        if lo > tol:
            tag, margin = "strictly-convex", 2.0 * lo  # d2q = 2 Q
        elif lo >= -tol:
            tag, margin = "convex", 0.0
        else:
            tag, margin = "general", 0.0
        self.form = form  # approx.local_errors' interpolation error reads it
        a20, a11, a02, a10, a01, a00 = self.coeffs

        def func(x, y):
            return a20 * x * x + 2.0 * a11 * x * y + a02 * y * y + a10 * x + a01 * y + a00

        def hess(x, y, h=2.0 * form.matrix):
            return np.broadcast_to(h, np.broadcast(x, y).shape + (2, 2))

        super().__init__(label, func, hess, convexity=tag,
                         convexity_margin=margin, check_box=check_box)

    def __repr__(self):
        return f"<QuadraticField {self.label!r} coeffs={self.coeffs}>"


def _expbump():
    def func(x, y):
        if not _batch(x, y):
            return np.exp(x * x + 2.0 * y * y)
        out, term = np.empty(x.shape), np.empty(x.shape)
        np.multiply(x, x, out=out)
        np.multiply(2.0, y, out=term)
        term *= y
        out += term
        return np.exp(out, out=out)

    def hess(x, y):
        g = np.exp(x * x + 2.0 * y * y)
        h = np.empty(np.broadcast(x, y).shape + (2, 2))
        h[..., 0, 0] = (2.0 + 4.0 * x * x) * g
        h[..., 0, 1] = h[..., 1, 0] = 8.0 * x * y * g
        h[..., 1, 1] = (4.0 + 16.0 * y * y) * g
        return h

    return ScalarField("expbump", func, hess, convexity="strictly-convex",
                       convexity_margin=2.0)


def _gauss_ridge():
    # convex only away from the diagonal x = y; the check box keeps u >= 1/2
    def func(x, y):
        if not _batch(x, y):
            u = x - y
            return np.exp(-u * u) + x * x + y * y
        out, term = np.empty(x.shape), np.empty(x.shape)
        np.subtract(x, y, out=term)
        np.negative(term, out=out)
        out *= term
        np.exp(out, out=out)
        out += np.multiply(x, x, out=term)
        out += np.multiply(y, y, out=term)
        return out

    def hess(x, y):
        u = x - y
        g = (4.0 * u * u - 2.0) * np.exp(-u * u)
        h = np.empty(np.broadcast(x, y).shape + (2, 2))
        h[..., 0, 0] = 2.0 + g
        h[..., 0, 1] = h[..., 1, 0] = -g
        h[..., 1, 1] = 2.0 + g
        return h

    return ScalarField("gauss-ridge", func, hess, convexity="strictly-convex",
                       convexity_margin=0.4, check_box=((1.0, 2.0), (0.0, 0.5)))


def builtin_catalog() -> list[ScalarField]:
    """The named fields used by the demos, the CLI and the test suites."""
    fields = [
        QuadraticField("disk", 1.0, 0.0, 1.0),
        QuadraticField("aniso-2", 1.0, 0.0, 2.0),
        QuadraticField("aniso-10", 1.0, 0.0, 10.0),
        QuadraticField("aniso-100", 1.0, 0.0, 100.0),
        _expbump(),
        QuadraticField("mixed-saddle", 1.0, 0.0, -1.0),
        _gauss_ridge(),
    ]
    return fields


def get_field(label: str) -> ScalarField:
    """Look up a catalog field by label."""
    for f in builtin_catalog():
        if f.label == label:
            return f
    known = ", ".join(f.label for f in builtin_catalog())
    raise ValueError(f"unknown field {label!r}; available: {known}")

