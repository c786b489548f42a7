"""Moebius isometries of hyperbolic 3-space in the 2x2 complex matrix model.

An orientation-preserving isometry of H^3 is represented by a unit-determinant
complex matrix up to sign.  Everything downstream keys off the trace: a motion
translates along its axis without rotation exactly when the trace is real, so
the classifier below separates screw motions from the rest by the imaginary
part of the trace alone.

Only the constructor rescales, and only matrices from outside (group files,
library callers): a product of unit-determinant matrices has determinant
one, so products and inverses are taken as computed and keep the canonical
sign alone.  Dividing by the square root of a computed determinant would put
its roundoff into the trace of every long word.  `product_rows` repeats the
product on numpy arrays of entries, with the same float operations, and
takes no sign: a motion's kind, length and axis are functions of +-M, so a
word ball built a level at a time holds its rows as computed, and `_signed`
takes the sign once, where a row is read as a matrix.
"""

import cmath
import math

import numpy as np

from .errors import (
    AmbiguousClass,
    IdentityInput,
    NearSingular,
    UndefinedLength,
)

# Default tolerances.  Determinant checks run at machine-noise scale, trace
# classification at a looser scale that absorbs drift from long products.
TOL_DET = 1e-12
TOL_TRACE = 1e-9
CHORDAL_TOL = 1e-9

# Threshold for sign decisions inside the canonical representative rule.
SIGN_TOL = 1e-12

IDENTITY_CLASS = "identity"
PARABOLIC = "parabolic"
ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
SCREW = "screw"


def _canonical_sign(a, b, c, d):
    """Sign making the matrix the canonical representative of its PSL class.

    Prefer a trace with positive real part, then positive imaginary part.
    Traceless matrices fall back to the first entry among (a, b, c) of
    meaningful size; determinant one guarantees such an entry exists.
    """
    t = a + d
    if abs(t.real) > SIGN_TOL:
        return 1.0 if t.real > 0.0 else -1.0
    if abs(t.imag) > SIGN_TOL:
        return 1.0 if t.imag > 0.0 else -1.0
    for e in (a, b, c):
        if abs(e) > SIGN_TOL:
            if abs(e.real) > SIGN_TOL:
                return 1.0 if e.real > 0.0 else -1.0
            return 1.0 if e.imag > 0.0 else -1.0
    return 1.0


class MoebiusIsometry:
    """Unit-determinant canonically signed matrix acting on the sphere.

    Construction rescales by the principal square root of the determinant
    (branch with Re >= 0, ties toward Im >= 0) and then applies the sign rule,
    so equal group elements always build the same representative.  Products
    and inverses skip the rescale and take the sign rule alone.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        det = a * d - b * c
        if abs(det) <= TOL_DET:
            raise NearSingular("determinant %r too close to zero" % (det,))
        if abs(det - 1.0) > TOL_DET:
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        sgn = _canonical_sign(a, b, c, d)
        self.a = sgn * a
        self.b = sgn * b
        self.c = sgn * c
        self.d = sgn * d

    @classmethod
    def from_matrix(cls, rows):
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self):
        return self.a + self.d

    def to_matrix(self):
        return ((self.a, self.b), (self.c, self.d))

    def __mul__(self, other):
        return _signed(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return _signed(self.d, -self.b, -self.c, self.a)

    def conjugate_by(self, g):
        """g * self * g^-1."""
        return g * self * g.inverse()

    def max_entry_distance(self, other):
        return max(
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )

    def psl_distance(self, other):
        """Distance to the nearer of other and -other, entrywise max."""
        direct = self.max_entry_distance(other)
        flipped = max(
            abs(self.a + other.a),
            abs(self.b + other.b),
            abs(self.c + other.c),
            abs(self.d + other.d),
        )
        return min(direct, flipped)

    def is_identity(self, tol=TOL_TRACE):
        return (
            abs(self.a - 1.0) <= tol
            and abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.d - 1.0) <= tol
        ) or (
            abs(self.a + 1.0) <= tol
            and abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.d + 1.0) <= tol
        )

    def __repr__(self):
        return "MoebiusIsometry(%r, %r, %r, %r)" % (self.a, self.b, self.c, self.d)


def _signed(a, b, c, d):
    """The matrix of complex entries a, b, c, d times its canonical sign,
    without the constructor's determinant check and rescale: the one
    reader of a product taken as computed, such as a ball row."""
    m = object.__new__(MoebiusIsometry)
    sgn = _canonical_sign(a, b, c, d)
    m.a, m.b, m.c, m.d = sgn * a, sgn * b, sgn * c, sgn * d
    return m


def normalize(matrix):
    """Coerce a 2x2 matrix-like object into a MoebiusIsometry."""
    if isinstance(matrix, MoebiusIsometry):
        return MoebiusIsometry(matrix.a, matrix.b, matrix.c, matrix.d)
    return MoebiusIsometry.from_matrix(matrix)


# ---------------------------------------------------------------------------
# The same arithmetic on (n, 4) complex arrays of entries (a, b, c, d)

# Coordinate 4 r + o of p * l (Re a, Im a, ..., Im d), for o = 2 s + c the
# real (c = 0) or imaginary part of entry (r, s), is the sum over terms t
# of p[4 r + t] times l[_PRODUCT_LETTER[t, o]] * _PRODUCT_SIGN[t, o],
# summed as (t0 + t1) + (t2 + t3): the real part of an entry p_r0 l_0s +
# p_r1 l_1s is (x u - y v) + (x' u' - y' v') in CPython's complex product
# and sum, and x u - y v = x u + y (-v) exactly.
_PRODUCT_LETTER = np.array(
    [[0, 1, 2, 3], [1, 0, 3, 2], [4, 5, 6, 7], [5, 4, 7, 6]]
)
_PRODUCT_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0]] * 2)


def letter_factors(letters):
    """The factors of product_rows for an (n, 4) complex array of letter
    rows: l[_PRODUCT_LETTER[t, o]] * _PRODUCT_SIGN[t, o], as a (4, n, 1, 4,
    1) array over (term, letter, row r, o, parent): a factor does not
    depend on the row r of the product."""
    coords = np.ascontiguousarray(letters, dtype=complex).view(np.float64)
    factors = coords[:, _PRODUCT_LETTER] * _PRODUCT_SIGN
    return np.ascontiguousarray(
        factors.transpose(1, 0, 2)[:, :, None, :, None]
    )


def product_rows(parents, factors):
    """Coordinates of p * l for every parent row p and letter l, as an
    (n_parents, n_letters, 8) float view.

    parents is a C-contiguous (n, 4) complex array and factors the
    letter_factors of the letter rows.  Term t of row r reads parent
    coordinate 4 r + t of one transposed copy of the parents; the four
    products over (letter, r, o, parent), the long parent axis innermost,
    are summed in place in two buffers as CPython's complex product and
    sum form each coordinate (numpy's own complex multiply may differ in
    the last bit), so each entry equals MoebiusIsometry.__mul__'s before
    its sign, which is not taken.
    """
    p = np.ascontiguousarray(parents.view(np.float64).T).reshape(
        2, 4, 1, len(parents)
    )
    acc = p[:, 0] * factors[0]
    high = p[:, 1] * factors[1]
    acc += high
    # t2 + t3 in the spent buffer, then added as one: (t0 + t1) + (t2 + t3)
    np.multiply(p[:, 2], factors[2], out=high)
    high += p[:, 3] * factors[3]
    acc += high
    return acc.reshape(len(acc), 8, len(parents)).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Boundary points, complex lengths and classification


class BoundaryPoint:
    """Point of the sphere at infinity in homogeneous coordinates (z : w).

    The stored representative has its larger-modulus coordinate equal to one,
    with the z slot winning ties.  Infinity is (1 : 0).
    """

    __slots__ = ("z", "w")

    def __init__(self, z, w):
        z, w = complex(z), complex(w)
        if z == 0 and w == 0:
            raise ValueError("(0 : 0) is not a point")
        if abs(z) >= abs(w):
            self.z = complex(1.0)
            self.w = w / z
        else:
            self.z = z / w
            self.w = complex(1.0)

    @classmethod
    def from_complex(cls, value):
        return cls(value, 1.0)

    @classmethod
    def infinity(cls):
        return cls(1.0, 0.0)

    @property
    def is_infinity(self):
        return self.w == 0

    def to_complex(self):
        if self.w == 0:
            raise ValueError("point at infinity has no affine coordinate")
        return self.z / self.w

    def __repr__(self):
        if self.is_infinity:
            return "BoundaryPoint(inf)"
        return "BoundaryPoint(%r)" % (self.to_complex(),)


def chordal_distance(p, q):
    """Distance in the round metric on the sphere, diameter two."""
    cross = abs(p.z * q.w - q.z * p.w)
    np_ = math.sqrt(abs(p.z) ** 2 + abs(p.w) ** 2)
    nq = math.sqrt(abs(q.z) ** 2 + abs(q.w) ** 2)
    return 2.0 * cross / (np_ * nq)


def same_point(p, q, tol=CHORDAL_TOL):
    return chordal_distance(p, q) < tol


def apply_boundary(m, p):
    """Image of a boundary point under the isometry, renormalized."""
    return BoundaryPoint(m.a * p.z + m.b * p.w, m.c * p.z + m.d * p.w)


def _wrap_angle(x):
    # Reduce to (-pi, pi], sending the -pi tie to +pi.
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0.0:
        y += 2.0 * math.pi
    return y - math.pi


class ComplexLength:
    """Translation length and rotation angle of a non-parabolic motion."""

    __slots__ = ("length", "angle")

    def __init__(self, length, angle):
        self.length = float(length)
        self.angle = float(angle)

    def __repr__(self):
        return "ComplexLength(%g, %g)" % (self.length, self.angle)


def complex_length(m, tol_trace=TOL_TRACE):
    """Solve 2 cosh((l + i theta) / 2) = trace for l >= 0, theta in (-pi, pi].

    Uses the principal arccosh branch (nonnegative real part), so the result
    depends only on the PSL trace.  Identity and parabolic inputs have no
    complex length and raise UndefinedLength.
    """
    if m.is_identity(tol_trace):
        raise UndefinedLength("identity has no complex length")
    t = m.trace
    if abs(t - 2.0) <= tol_trace or abs(t + 2.0) <= tol_trace:
        raise UndefinedLength("parabolic trace %r" % (t,))
    if abs(t.imag) <= tol_trace:
        # project non-screw traces onto the real axis: otherwise the sign of
        # roundoff noise in Im(trace) would flip the elliptic angle branch
        t = complex(t.real, 0.0)
    lam = cmath.acosh(t / 2.0)
    length = 2.0 * lam.real
    if length < 0.0:
        length = 0.0
    return ComplexLength(length, _wrap_angle(2.0 * lam.imag))


def classify(m, tol_trace=TOL_TRACE):
    """The kind of a canonical representative, from its trace: one of
    identity, parabolic, elliptic, hyperbolic, screw.

    Trace within tol of +-2 is parabolic and that ball takes precedence, so
    conjugation roundoff never pushes a true parabolic across the boundary.
    Outside the ball, a real trace beyond 2 in modulus is hyperbolic and one
    below 2 - tol elliptic; a meaningfully nonreal trace is a screw motion.
    The leftover sliver at the parabolic/elliptic boundary (pushed out of the
    ball by an imaginary component yet still nominally real) raises
    AmbiguousClass instead of silently picking a side.
    """
    if m.is_identity(tol_trace):
        return IDENTITY_CLASS
    t = m.trace
    if abs(t - 2.0) <= tol_trace or abs(t + 2.0) <= tol_trace:
        return PARABOLIC
    if abs(t.imag) <= tol_trace:
        if abs(t.real) > 2.0:
            return HYPERBOLIC
        if abs(t.real) < 2.0 - tol_trace:
            return ELLIPTIC
        raise AmbiguousClass(
            "real trace %r between the elliptic and parabolic bands" % (t,)
        )
    return SCREW


def is_non_screw(m, tol_trace=TOL_TRACE):
    """Real-trace test: true exactly when the motion does not rotate-and-slide
    with an essentially nonreal trace."""
    return abs(m.trace.imag) <= tol_trace


def fixed_points(m, tol_trace=TOL_TRACE):
    """Boundary fixed points: the roots of c z^2 + (d - a) z - b = 0.

    Returns one point for parabolic input, two distinct points otherwise.
    Solved in homogeneous coordinates so roots at infinity need no special
    fallback, with the usual stable-quadratic choice of the larger root.
    """
    if m.is_identity(tol_trace):
        raise IdentityInput("identity fixes every boundary point")
    t = m.trace
    qa = m.c
    qb = m.d - m.a
    qc = -m.b
    if abs(t - 2.0) <= tol_trace or abs(t + 2.0) <= tol_trace:
        if abs(qa) > SIGN_TOL:
            return (BoundaryPoint(-qb, 2.0 * qa),)
        return (BoundaryPoint.infinity(),)
    sq = cmath.sqrt(t * t - 4.0)
    if abs(qb + sq) >= abs(qb - sq):
        q = -0.5 * (qb + sq)
    else:
        q = -0.5 * (qb - sq)
    return (BoundaryPoint(q, qa), BoundaryPoint(qc, q))
