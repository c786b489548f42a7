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

from .enumeration import _EPS, _cosh_half_length, conjugate_rows, enumerate_ball
from .errors import OutOfRange
from .geometry import INTERSECTION_TOL, halfturn_matrix, halfturn_separation
from .isometry import TOL_TRACE, _signed


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
# roundoff bound per unit of monomial magnitude, for the trace of
# h w h w^-1 and for the entries of w h w^-1
_SLACK = 64 * _EPS


def _halfturn_traces(h, entries):
    """Trace t of h w h w^-1 for each unit-determinant row w of entries,
    h = [[al, be], [ga, -al]] the half-turn about the axis, and the sum of
    the magnitudes of the monomials of t as a polynomial in the entries,

    t = 2 al^2 (ad + bc) + be ga (a^2 + d^2) + 2 al ga (bd - ab)
        + 2 al be (cd - ac) - be^2 c^2 - ga^2 b^2.

    Conjugating h and w by a diagonal matrix leaves each monomial
    unchanged, so a roundoff bound in their sum follows the scale of the
    group, not of its coordinates.
    """
    al, be, ga = h.a, h.b, h.c
    a, b, c, d = entries.T
    u, v = ga * b, be * c
    t = (
        2.0 * al * al * (a * d + b * c)
        + be * ga * (a * a + d * d)
        + 2.0 * al * (d - a) * (u + v)
        - u * u
        - v * v
    )
    ma, mb, mc, md = np.abs(entries).T
    mal, mbe, mga = abs(al), abs(be), abs(ga)
    mu, mv = mga * mb, mbe * mc
    monomials = (
        2.0 * mal * mal * (ma * md + mb * mc)
        + mbe * mga * (ma * ma + md * md)
        + 2.0 * mal * (ma + md) * (mu + mv)
        + mu * mu
        + mv * mv
    )
    return t, monomials


def _stabilizers(h, entries):
    """Rows w of entries with w h w^-1 = +-h entrywise within the roundoff
    bound of each entry's monomials, and the rows of w h w^-1."""
    al, be, ga = abs(h.a), abs(h.b), abs(h.c)
    ma, mb, mc, md = np.abs(entries).T
    diagonal = al * (ma * md + mb * mc) + ga * mb * md + be * ma * mc
    bound = _SLACK * np.stack(
        (
            diagonal,
            be * ma * ma + 2.0 * al * ma * mb + ga * mb * mb,
            ga * md * md + 2.0 * al * mc * md + be * mc * mc,
            diagonal,
        ),
        axis=1,
    )
    g = conjugate_rows(h, entries)
    hs = np.array([h.a, h.b, h.c, h.d])
    same = (np.abs(g - hs) <= bound).all(axis=1)
    flipped = (np.abs(g + hs) <= bound).all(axis=1)
    return same | flipped, g


def simplicity_check(group, axis, max_word_len, ball=None):
    """Scan ball translates of the axis for a crossing.

    Words fixing the axis setwise are stabilizers and prove nothing.  A
    translate at distance below the intersection tolerance (including
    asymptotic translates sharing one ideal endpoint) is returned as
    self-intersection evidence with the first witness in shortlex order.
    Otherwise the geodesic is simple up to this bound and half the smallest
    translate distance is a tube radius bound (infinite when the whole ball
    stabilizes the axis).

    Every translate w.axis is decided from t = tr(h w h w^-1), h the
    half-turn about the axis: cosh of its distance to the axis is
    (|t/2 - 1| + |t/2 + 1|) / 2.  Only the rows that may cross within the
    roundoff bound of t (the band) are looked at one by one: a row with
    w h w^-1 = +-h is a stabilizer, and every other band row goes to the
    scalar halfturn_separation, whose distance and angle are reported.
    Like any product, w h w^-1 is taken as computed, with the canonical
    sign only: no determinant of its large entries is taken.  The band
    takes TOL_TRACE plus the roundoff bound of t, whatever trace
    tolerance classified the group's words.  ball, when given, must be an
    enumerate_ball result; only a witness's word is built.  A half-turn
    about the axis that cannot be normalized raises NearSingular.
    """
    if ball is None:
        ball = enumerate_ball(group, max_word_len)
    h = halfturn_matrix(axis)
    entries = ball.entries
    t, monomials = _halfturn_traces(h, entries)
    bound = _SLACK * monomials
    x = _cosh_half_length(t)
    with np.errstate(invalid="ignore"):
        # a crossing, or a product the scalar code takes for elliptic or
        # parabolic, both of which it reports at distance 0; a row whose
        # trace is not finite goes to the scalar code too
        band = ~(x - bound > _COSH_INTERSECTION) | (
            (np.abs(t.imag) <= TOL_TRACE + bound)
            & (np.abs(t.real) <= 2.0 + TOL_TRACE + bound)
        )
    # the rows s w s', s and s' stabilizers, lie at one distance; reading
    # each row's cosh one eps per unit of monomial high lets the
    # best-conditioned of them, not the one rounded lowest, set the least
    far = (x + _EPS * monomials)[~band]
    closest = math.acosh(far.min()) if len(far) else math.inf
    rows = np.flatnonzero(band)
    stabilizer, conjugates = _stabilizers(h, entries[rows])
    for i, g in zip(rows[~stabilizer].tolist(), conjugates[~stabilizer].tolist()):
        sep = halfturn_separation(h, _signed(*g))
        if sep.distance < INTERSECTION_TOL:
            return SimplicityReport(
                "self_intersecting",
                witness=ball[i],
                distance=sep.distance,
                angle=sep.angle,
            )
        closest = min(closest, sep.distance)
    return SimplicityReport("simple_up_to_bound", tube_radius_lower=closest / 2.0)


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
    if not depth >= 0.0:
        raise OutOfRange("depth must be nonnegative, got %r" % (depth,))
    return 2.0 * math.asinh(math.exp(-depth) / 2.0)
