"""Boundary circles, geodesic lines, and their mutual position.

A totally geodesic plane of H^3 is recorded by its boundary circle, written
as a Hermitian form A z zbar + B zbar + conj(B) z + C = 0 with A, C real.
Geodesic lines are unordered pairs of distinct ideal endpoints.  Distances
and angles between lines come from the trace of the product of the two
half-turns about them, which is exact and Moebius-invariant by construction.
"""

import cmath
import math

import numpy as np

from .errors import (
    DegeneratePoints,
    IdenticalLines,
    LoxoError,
    NotLoxodromic,
    SharedEndpoint,
    UndefinedLength,
)
from .isometry import (
    CHORDAL_TOL,
    TOL_TRACE,
    BoundaryPoint,
    MoebiusIsometry,
    apply_boundary,
    chordal_distance,
    complex_length,
    fixed_points,
    same_point,
)

# Two lines count as crossing when the computed gap drops below this.
INTERSECTION_TOL = 1e-7
# Tolerance for "this word maps the plane to itself" checks downstream.
PLANE_TOL = 1e-7


def _det2(p, q):
    return p.z * q.w - q.z * p.w


def cross_ratio(p1, p2, p3, p4):
    """[p1, p2; p3, p4] in homogeneous coordinates."""
    num = _det2(p1, p3) * _det2(p2, p4)
    den = _det2(p1, p4) * _det2(p2, p3)
    if den == 0:
        raise DegeneratePoints("cross ratio with coincident points")
    return num / den


class GeodesicLine:
    """Geodesic of H^3 named by its two ideal endpoints, order irrelevant."""

    __slots__ = ("p", "q")

    def __init__(self, p, q, tol=CHORDAL_TOL):
        if chordal_distance(p, q) < tol:
            raise DegeneratePoints("endpoints coincide within tolerance")
        self.p = p
        self.q = q

    @classmethod
    def from_complex(cls, zp, zq):
        return cls(BoundaryPoint.from_complex(zp), BoundaryPoint.from_complex(zq))

    def endpoints(self):
        return (self.p, self.q)

    def __repr__(self):
        return "GeodesicLine(%r, %r)" % (self.p, self.q)


def same_line(l1, l2, tol=CHORDAL_TOL):
    """Unordered endpoint-pair equality in the chordal metric."""
    return (
        same_point(l1.p, l2.p, tol) and same_point(l1.q, l2.q, tol)
    ) or (
        same_point(l1.p, l2.q, tol) and same_point(l1.q, l2.p, tol)
    )


def shares_endpoint(l1, l2, tol=CHORDAL_TOL):
    return any(
        same_point(a, b, tol)
        for a in l1.endpoints()
        for b in l2.endpoints()
    )


def transform_line(m, line):
    return GeodesicLine(apply_boundary(m, line.p), apply_boundary(m, line.q))


def axis_of(m, tol_trace=TOL_TRACE):
    """Axis of a loxodromic or elliptic isometry as a geodesic line."""
    pts = fixed_points(m, tol_trace)
    if len(pts) != 2:
        raise NotLoxodromic("parabolic input has no axis")
    return GeodesicLine(*pts)


def halfturn_matrix(line):
    """Rotation by pi about the line, as a canonical matrix.

    For endpoints (z1 : w1), (z2 : w2) the involution fixing both is
    [[s, -2 z1 z2], [2 w1 w2, -s]] / (i (z1 w2 - z2 w1)) with s = z1 w2 + z2 w1.
    """
    p, q = line.p, line.q
    s = p.z * q.w + q.z * p.w
    scale = 1j * _det2(p, q)
    return MoebiusIsometry(
        s / scale,
        -2.0 * p.z * q.z / scale,
        2.0 * p.w * q.w / scale,
        -s / scale,
    )


class BoundaryCircle:
    """Oriented circle on the sphere, stored as a normalized Hermitian form.

    The locus is A z zbar + B zbar + conj(B) z + C = 0 scaled so that
    |B|^2 - A C = 1.  The oriented form is orientation * (A, B, C); negating
    the triple and the flag together names the same oriented circle.
    """

    __slots__ = ("a", "b", "c", "orientation")

    def __init__(self, a, b, c, orientation=1):
        a = float(a)
        b = complex(b)
        c = float(c)
        k = abs(b) ** 2 - a * c
        if k <= 1e-14:
            raise DegeneratePoints("form does not cut out a real circle")
        scale = 1.0 / math.sqrt(k)
        self.a = a * scale
        self.b = b * scale
        self.c = c * scale
        self.orientation = 1 if orientation >= 0 else -1

    def signed_triple(self):
        o = self.orientation
        return (o * self.a, o * self.b, o * self.c)

    @property
    def is_line(self):
        return abs(self.a) <= 1e-12

    def evaluate(self, p):
        """Oriented homogeneous value at a boundary point; zero on the circle,
        positive on the side the orientation selects."""
        a, b, c = self.signed_triple()
        zw = p.z.conjugate() * p.w
        raw = (
            a * abs(p.z) ** 2
            + 2.0 * (b.real * zw.real - b.imag * zw.imag)
            + c * abs(p.w) ** 2
        )
        return raw / (abs(p.z) ** 2 + abs(p.w) ** 2)

    def flip(self):
        return BoundaryCircle(self.a, self.b, self.c, -self.orientation)

    def __repr__(self):
        return "BoundaryCircle(a=%g, b=%r, c=%g, orientation=%+d)" % (
            self.a,
            self.b,
            self.c,
            self.orientation,
        )


def same_circle(c1, c2, tol=PLANE_TOL):
    """Equality of the underlying loci, orientation ignored."""
    t1 = c1.signed_triple()
    t2 = c2.signed_triple()
    direct = max(
        abs(t1[0] - t2[0]), abs(t1[1] - t2[1]), abs(t1[2] - t2[2])
    )
    flipped = max(
        abs(t1[0] + t2[0]), abs(t1[1] + t2[1]), abs(t1[2] + t2[2])
    )
    return min(direct, flipped) <= tol


def same_oriented_circle(c1, c2, tol=PLANE_TOL):
    t1 = c1.signed_triple()
    t2 = c2.signed_triple()
    return (
        max(abs(t1[0] - t2[0]), abs(t1[1] - t2[1]), abs(t1[2] - t2[2])) <= tol
    )


def standardizing_map(p1, p2, p3):
    """Moebius transformation sending (p1, p2, p3) to (0, 1, infinity)."""
    d23 = _det2(p2, p3)
    d21 = _det2(p2, p1)
    a, b, c, d = p1.w * d23, -p1.z * d23, p3.w * d21, -p3.z * d21
    # det = d23 d21 d13 shrinks as the points close up; scale it to one
    # before the absolute determinant test in MoebiusIsometry sees it
    det = a * d - b * c
    if det == 0:
        raise DegeneratePoints("repeated point for standardizing_map")
    s = cmath.sqrt(det)
    return MoebiusIsometry(a / s, b / s, c / s, d / s)


def circle_through(p1, p2, p3, tol=CHORDAL_TOL):
    """Unique circle through three distinct boundary points.

    Each point imposes one real linear condition on (A, Re B, Im B, C); the
    kernel of the 3x4 system is the form, fixed to unit normalization.  The
    orientation follows the argument order: the side containing the pullback
    of i under the map standardizing (p1, p2, p3) gets positive sign.
    """
    pts = (p1, p2, p3)
    for i in range(3):
        for j in range(i + 1, 3):
            if same_point(pts[i], pts[j], tol):
                raise DegeneratePoints("repeated point for circle_through")
    rows = []
    for p in pts:
        zw = p.z.conjugate() * p.w
        rows.append(
            [abs(p.z) ** 2, 2.0 * zw.real, -2.0 * zw.imag, abs(p.w) ** 2]
        )
    vt = np.linalg.svd(np.array(rows))[2]
    vec = vt[-1]
    a, u, v, c = (float(x) for x in vec)
    if u * u + v * v - a * c <= 1e-14:
        raise DegeneratePoints("points do not span a circle")
    circle = BoundaryCircle(a, complex(u, v), c)
    probe = apply_boundary(
        standardizing_map(p1, p2, p3).inverse(), BoundaryPoint.from_complex(1j)
    )
    if circle.evaluate(probe) < 0.0:
        circle = BoundaryCircle(-circle.a, -circle.b, -circle.c)
    return circle


def on_circle(p, circle, tol=CHORDAL_TOL):
    return abs(circle.evaluate(p)) <= tol


def transform_circle(m, circle):
    """Pushforward of the circle: points p on C map to m(p) on the result.

    Congruence of the Hermitian matrix by the inverse transforms the form,
    preserving evaluation values exactly, so the orientation travels with it.
    """
    a, b, c = circle.signed_triple()
    n = m.inverse()
    # H' = N^* H N for H = [[a, b], [conj b, c]]
    h00 = a * n.a + b * n.c
    h01 = a * n.b + b * n.d
    h10 = b.conjugate() * n.a + c * n.c
    h11 = b.conjugate() * n.b + c * n.d
    na = n.a.conjugate() * h00 + n.c.conjugate() * h10
    nb = n.a.conjugate() * h01 + n.c.conjugate() * h11
    nd = n.b.conjugate() * h01 + n.d.conjugate() * h11
    return BoundaryCircle(na.real, nb, nd.real)


def preserves_circle(m, circle, tol=PLANE_TOL):
    """True when m maps the oriented circle to itself within tolerance."""
    return same_oriented_circle(transform_circle(m, circle), circle, tol)


def coplanar_plane(l1, l2, tol=CHORDAL_TOL):
    """Circle through all four endpoints, or None when the lines are skew.

    Lines sharing an endpoint are always coplanar.  Identical lines bound no
    unique plane and are rejected.
    """
    if same_line(l1, l2, tol):
        raise IdenticalLines("coplanar_plane needs two distinct lines")
    points = [l1.p, l1.q]
    for candidate in l2.endpoints():
        if not any(same_point(candidate, known, tol) for known in points):
            points.append(candidate)
    if len(points) == 3:
        return circle_through(*points)
    circle = circle_through(points[0], points[1], points[2])
    if on_circle(points[3], circle, tol):
        return circle
    return None


def common_perpendicular(l1, l2, tol=CHORDAL_TOL):
    """The unique geodesic meeting both lines at right angles.

    The product of the half-turns about l1 and l2 translates or rotates
    exactly along that perpendicular, so its fixed points name it.  Lines
    sharing an ideal endpoint admit no common perpendicular.
    """
    if same_line(l1, l2, tol):
        raise IdenticalLines("identical lines have no unique perpendicular")
    if shares_endpoint(l1, l2, tol):
        raise SharedEndpoint("lines meet at infinity")
    product = halfturn_matrix(l1) * halfturn_matrix(l2)
    perp = GeodesicLine(*fixed_points(product))
    for line in (l1, l2):
        harm = cross_ratio(line.p, line.q, perp.p, perp.q)
        if abs(harm + 1.0) > 1e-6:
            raise LoxoError(
                "perpendicular failed the harmonic cross-ratio check: %r" % harm
            )
    return perp


class GeodesicSeparation:
    """Distance and angle between two geodesics.

    distance is the infimum of pointwise hyperbolic distance, zero when the
    lines cross or share an endpoint.  For crossing lines angle is the
    (acute) intersection angle; for disjoint lines it is the twist of the
    mutual complex distance; for asymptotic lines it is zero.
    """

    __slots__ = ("distance", "angle")

    def __init__(self, distance, angle):
        self.distance = float(distance)
        self.angle = float(angle)

    @property
    def intersects(self):
        return self.distance == 0.0 and self.angle > 0.0

    def __repr__(self):
        return "GeodesicSeparation(distance=%g, angle=%g)" % (
            self.distance,
            self.angle,
        )


def geodesic_separation(l1, l2, tol=CHORDAL_TOL):
    """Mutual position of two distinct geodesics.

    Half of the complex length of the half-turn product: translation part
    twice the distance, rotation part twice the angle.  Computed distances
    under INTERSECTION_TOL collapse to an exact zero crossing report.
    """
    if same_line(l1, l2, tol):
        raise IdenticalLines("separation of a line from itself")
    if shares_endpoint(l1, l2, tol):
        return GeodesicSeparation(0.0, 0.0)
    product = halfturn_matrix(l1) * halfturn_matrix(l2)
    try:
        cl = complex_length(product)
    except UndefinedLength:
        # near-parabolic product: the lines all but share an endpoint
        return GeodesicSeparation(0.0, 0.0)
    distance = cl.length / 2.0
    angle = abs(cl.angle) / 2.0
    if distance < INTERSECTION_TOL:
        distance = 0.0
    return GeodesicSeparation(distance, angle)
