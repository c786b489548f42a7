"""Simplicity certificates for closed geodesics and cusp depth bounds.

A closed geodesic downstairs lifts to the orbit of its axis upstairs, so
self-intersection is visible as a group translate of the axis that crosses
it.  Scanning every translate by words up to a length bound either produces
such a crossing (a certificate of non-simplicity) or a positive lower bound
on the distance to all inspected translates, half of which bounds the radius
of an embedded tube around the geodesic.

The cusp depth functions convert between the length of the shortest
parabolic-translate loop on a horoball and how far that horoball must be
pushed in before those loops reach length one.
"""

import math

import numpy as np

from .enumeration import (
    _cosh_half_length,
    _row_matrix,
    conjugate_rows,
    enumerate_ball,
)
from .errors import NearSingular, OutOfRange
from .geometry import (
    INTERSECTION_TOL,
    geodesic_separation,
    halfturn_matrix,
    halfturn_separation,
    same_line,
    transform_line,
)
from .isometry import CHORDAL_TOL, TOL_TRACE


class SimplicityReport:
    """Outcome of the translate scan for one axis."""

    __slots__ = ("verdict", "witness", "distance", "angle", "tube_radius_lower")

    def __init__(
        self, verdict, witness=None, distance=None, angle=None,
        tube_radius_lower=None,
    ):
        self.verdict = verdict
        self.witness = witness
        self.distance = distance
        self.angle = angle
        self.tube_radius_lower = tube_radius_lower

    @property
    def is_simple(self):
        return self.verdict == "simple_up_to_bound"

    def __repr__(self):
        if self.is_simple:
            return "SimplicityReport(simple_up_to_bound, tube>=%r)" % (
                self.tube_radius_lower,
            )
        return "SimplicityReport(self_intersecting, witness=%r)" % (
            self.witness.name if self.witness else None,
        )


# cosh of the intersection tolerance: translates closer than this cross
_COSH_INTERSECTION = math.cosh(INTERSECTION_TOL)
_EPS = float(np.finfo(float).eps)


def _norm(z, w):
    return np.hypot(np.abs(z), np.abs(w))


def _chordal(z1, w1, n1, z2, w2, n2):
    """chordal_distance between arrays of homogeneous points (z : w) of
    norms n = _norm(z, w)."""
    return 2.0 * np.abs(z1 * w2 - z2 * w1) / (n1 * n2)


def _translate_screen(axis, entries):
    """Rows whose translate of the axis the scalar scan must look at.

    Returns the rows to scan, the rows among them that tie for the nearest
    translate, and the half-turn about the axis (None when it cannot be
    built, and then no row ties).  A row is left out when it surely
    stabilizes the axis, or when its translate is surely a proper line
    that shares no endpoint with the axis, does not cross it and stays
    clear of the nearest translate.  A tied row is surely such a proper
    line, apart from the axis and not crossing it, so only its distance
    is left to compute.

    Roundoff slack: an image w p is off in direction by 7 eps M |p| / |w p|
    (M the largest entry of w), so chordal distances get a slack of
    32 eps (1 + r_p + r_q) with r = M |p| / |w p|.  The trace t of
    h w h w^-1, h the half-turn about the axis, is off by at most
    512 eps (1 + M^2) |h|^2, the slack in t and in cosh of the distance,
    (|t/2 - 1| + |t/2 + 1|) / 2; the nearest translates keep a further
    relative 1e-9 for the scalar route through the translated endpoints.
    """
    p, q = axis.p, axis.q
    a, b, c, d = entries.T
    pz, pw = a * p.z + b * p.w, c * p.z + d * p.w
    qz, qw = a * q.z + b * q.w, c * q.z + d * q.w
    big = np.abs(entries).max(axis=1)
    p_norm, q_norm = _norm(p.z, p.w), _norm(q.z, q.w)
    wp_norm, wq_norm = _norm(pz, pw), _norm(qz, qw)
    with np.errstate(invalid="ignore", divide="ignore"):
        to_p = (
            _chordal(pz, pw, wp_norm, p.z, p.w, p_norm),
            _chordal(qz, qw, wq_norm, p.z, p.w, p_norm),
        )
        to_q = (
            _chordal(pz, pw, wp_norm, q.z, q.w, q_norm),
            _chordal(qz, qw, wq_norm, q.z, q.w, q_norm),
        )
        proper = _chordal(pz, pw, wp_norm, qz, qw, wq_norm)
        stretch = big * (
            math.hypot(abs(p.z), abs(p.w)) / wp_norm
            + math.hypot(abs(q.z), abs(q.w)) / wq_norm
        )
    slack = 32 * _EPS * (1.0 + stretch)
    below, above = CHORDAL_TOL - slack, CHORDAL_TOL + slack
    stabilizer = ((to_p[0] < below) & (to_q[1] < below)) | (
        (to_q[0] < below) & (to_p[1] < below)
    )
    apart = (
        (proper > above)
        & (to_p[0] > above) & (to_p[1] > above)
        & (to_q[0] > above) & (to_q[1] > above)
    )
    try:
        h = halfturn_matrix(axis)
    except NearSingular:
        # the scalar separation fails on every translate: scan them all
        return ~stabilizer, np.zeros(len(entries), dtype=bool), None

    g = conjugate_rows(h, entries)
    t = h.a * g[:, 0] + h.b * g[:, 2] + h.c * g[:, 1] + h.d * g[:, 3]
    size = max(abs(h.a), abs(h.b), abs(h.c), abs(h.d))
    error = 512 * _EPS * (1.0 + big**2) * size**2
    x = _cosh_half_length(t)
    # a crossing, or a product the scalar code takes for elliptic or
    # parabolic, both of which it reports at distance 0
    near_real = np.abs(t.imag) <= TOL_TRACE + error
    crossing = ~(x - error > _COSH_INTERSECTION) | (
        near_real & (np.abs(t.real) <= 2.0 + TOL_TRACE + error)
    )
    scan = ~stabilizer & (~apart | crossing)
    tied = ~stabilizer & ~scan
    if tied.any():
        reach = (x[tied] + error[tied]).min() * (1.0 + 1e-9)
        tied &= x - error <= reach
    return scan | tied, tied, h


def simplicity_check(group, axis, max_word_len, tol_trace=TOL_TRACE, ball=None):
    """Scan ball translates of the axis for a crossing.

    Words fixing the axis setwise are stabilizers and prove nothing.  A
    translate at distance below the intersection tolerance (including
    asymptotic translates sharing one ideal endpoint) is returned as
    self-intersection evidence with the first witness in shortlex order.
    Otherwise the geodesic is simple up to this bound and half the smallest
    translate distance is a tube radius bound (infinite when the whole ball
    stabilizes the axis).

    A numpy screen of the whole ball picks the words to scan; the scalar
    test runs on their matrices in ball order, so witnesses and distances
    are its.  For a translate the screen has proved to be a line apart
    from the axis, the test goes straight to the half-turn product.  ball,
    when given, must be an enumerate_ball result; only a witness's word is
    built.
    """
    if ball is None:
        ball = enumerate_ball(group, max_word_len)
    entries = ball.entries
    scan, tied, h = _translate_screen(axis, entries)
    closest = math.inf
    for i in np.flatnonzero(scan).tolist():
        translate = transform_line(_row_matrix(entries, i), axis)
        if tied[i]:
            sep = halfturn_separation(halfturn_matrix(translate), h)
        elif same_line(translate, axis):
            continue
        else:
            sep = geodesic_separation(translate, axis)
        if sep.distance < INTERSECTION_TOL:
            return SimplicityReport(
                "self_intersecting",
                witness=ball[i],
                distance=sep.distance,
                angle=sep.angle,
            )
        closest = min(closest, sep.distance)
    bound = closest / 2.0 if closest < math.inf else math.inf
    return SimplicityReport("simple_up_to_bound", tube_radius_lower=bound)


def margulis_filter(entries, epsilon=0.1):
    """Spectrum entries shorter than the chosen thinness threshold."""
    if epsilon <= 0:
        raise OutOfRange("threshold must be positive, got %r" % (epsilon,))
    return [e for e in entries if e.length < epsilon]


def cusp_depth(delta):
    """Depth at which horoball loops of length delta shrink to length one.

    A loop of length delta on the boundary horosphere subtends a geodesic
    arc of length 2 sinh(delta / 2), and pushing distance d into the cusp
    scales horospherical lengths by exp(-d); the returned depth makes the
    product equal to one.
    """
    if not 0.0 < delta < 1.0:
        raise OutOfRange("loop length must lie in (0, 1), got %r" % (delta,))
    return -math.log(2.0 * math.sinh(delta / 2.0))


def max_parabolic_length_at_depth(depth):
    """Longest horoball loop that still closes up short at the given depth.

    Inverse of cusp_depth: at depth d every parabolic translation of length
    at most 2 asinh(exp(-d) / 2) stays within the unit-length thin part.
    """
    if depth < 0.0:
        raise OutOfRange("depth must be nonnegative, got %r" % (depth,))
    return 2.0 * math.asinh(math.exp(-depth) / 2.0)
