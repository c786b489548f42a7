"""Half-turn factorizations and the invariant plane of non-screw pairs.

Any non-identity isometry is a product of two rotations by pi.  The axes obey
one rule per class: parabolic factors share the parabolic fixed point,
loxodromic and elliptic factors cross the axis at right angles, and for an
elliptic both cross it at the same point.  One factor axis is free within
those constraints; fixing it forces the other factor as m times the chosen
half-turn.

When two motions and their product all have real traces, the factor axes can
be chained through a shared middle axis, and the resulting three axes span a
single plane whose boundary circle every word of the pair preserves.
"""

import itertools

from .errors import (
    DegeneratePoints,
    IdentityInput,
    InvalidChoice,
    NoValidSharedAxis,
    PlaneVerificationFailed,
    ScrewInput,
    SharedFixedPoint,
)
from .geometry import (
    PLANE_TOL,
    GeodesicLine,
    axis_of,
    circle_through,
    common_perpendicular,
    halfturn_matrix,
    on_circle,
    preserves_circle,
    same_point,
    transform_line,
)
from .isometry import (
    TOL_TRACE,
    BoundaryPoint,
    MoebiusIsometry,
    apply_boundary,
    chordal_distance,
    classify,
    fixed_points,
    is_non_screw,
)

# How far from zero the trace of a forced factor may sit before the free
# choice is declared inadmissible.
_FACTOR_TOL = 1e-7


class HalfTurn:
    """Rotation by pi about a geodesic axis."""

    __slots__ = ("axis", "matrix")

    def __init__(self, axis, matrix=None):
        self.axis = axis
        self.matrix = halfturn_matrix(axis) if matrix is None else matrix

    def __repr__(self):
        return "HalfTurn(%r)" % (self.axis,)


def _forced_factor(product):
    """Interpret a matrix forced by the factorization as a half-turn."""
    if abs(product.trace) > _FACTOR_TOL:
        raise InvalidChoice(
            "free choice leaves a factor of trace %r, not a half-turn"
            % (product.trace,)
        )
    return HalfTurn(axis_of(product), product)


def _standard_frame(axis):
    """Matrix sending (0, infinity) to the axis endpoints."""
    p, q = axis.p, axis.q
    return MoebiusIsometry(q.z, p.z, q.w, p.w)


def default_free_choice(m, tol_trace=TOL_TRACE):
    """Deterministic admissible choice for decompose.

    Parabolic: second axis endpoint 0, or 1 when the fixed point is 0.
    Otherwise: the pullback of the unit half-circle, which crosses the axis
    at the frame midpoint.
    """
    kind = classify(m, tol_trace)
    if kind == "identity":
        raise IdentityInput("identity admits no half-turn decomposition")
    if kind == "parabolic":
        (fixed,) = fixed_points(m, tol_trace)
        choice = BoundaryPoint.from_complex(0.0)
        if same_point(fixed, choice):
            choice = BoundaryPoint.from_complex(1.0)
        return choice
    frame = _standard_frame(axis_of(m, tol_trace))
    return transform_line(
        frame,
        GeodesicLine(
            BoundaryPoint.from_complex(-1.0), BoundaryPoint.from_complex(1.0)
        ),
    )


def decompose(m, free_choice=None, tol_trace=TOL_TRACE):
    """Write m as halfturn1 * halfturn2, honoring the free choice.

    For parabolic m the choice is the second ideal endpoint of the second
    axis; the first endpoint is pinned to the parabolic fixed point.  For
    every other class the choice is the entire second axis, which must cross
    the axis of m at a right angle.  The first factor is then m times the
    chosen half-turn and is checked to be a genuine half-turn.
    """
    kind = classify(m, tol_trace)
    if kind == "identity":
        raise IdentityInput("identity admits no half-turn decomposition")
    if free_choice is None:
        free_choice = default_free_choice(m, tol_trace)
    if kind == "parabolic":
        if not isinstance(free_choice, BoundaryPoint):
            raise InvalidChoice(
                "parabolic decomposition expects a boundary point"
            )
        (fixed,) = fixed_points(m, tol_trace)
        if same_point(fixed, free_choice):
            raise InvalidChoice("free endpoint coincides with the fixed point")
        second = HalfTurn(GeodesicLine(fixed, free_choice))
    else:
        if not isinstance(free_choice, GeodesicLine):
            raise InvalidChoice("decomposition expects a geodesic line")
        second = HalfTurn(free_choice)
    first = _forced_factor(m * second.matrix.inverse())
    return first, second


class SharedFactorization:
    """Factor axes of alpha = r_first r_shared and beta = r_shared r_second."""

    __slots__ = ("first", "shared", "second")

    def __init__(self, first, shared, second):
        self.first = first
        self.shared = shared
        self.second = second

    def axes(self):
        return (self.first.axis, self.shared.axis, self.second.axis)

    def __repr__(self):
        return "SharedFactorization(%r, %r, %r)" % (
            self.first,
            self.shared,
            self.second,
        )


def _fixed_point_sets_meet(alpha, beta, tol_trace):
    for p in fixed_points(alpha, tol_trace):
        for q in fixed_points(beta, tol_trace):
            if same_point(p, q):
                return True
    return False


def _drop_perpendicular(point, axis):
    """Geodesic from an ideal point meeting the axis at a right angle."""
    frame = _standard_frame(axis)
    moved = apply_boundary(frame.inverse(), point)
    z = moved.z / moved.w
    return transform_line(
        frame,
        GeodesicLine(BoundaryPoint.from_complex(z), BoundaryPoint.from_complex(-z)),
    )


def shared_factorization(alpha, beta, tol_trace=TOL_TRACE):
    """Chain decompositions of alpha and beta through one middle axis.

    The middle axis must be admissible for both motions at once: through both
    fixed points when both are parabolic, from the parabolic fixed point
    perpendicular to the other axis in the mixed case, and the common
    perpendicular of the two axes otherwise.
    """
    if classify(alpha, tol_trace) == "identity" or (
        classify(beta, tol_trace) == "identity"
    ):
        raise IdentityInput("shared factorization needs non-identity inputs")
    if _fixed_point_sets_meet(alpha, beta, tol_trace):
        raise SharedFixedPoint("inputs fix a common boundary point")

    alpha_parabolic = classify(alpha, tol_trace) == "parabolic"
    beta_parabolic = classify(beta, tol_trace) == "parabolic"
    if alpha_parabolic and beta_parabolic:
        (p,) = fixed_points(alpha, tol_trace)
        (q,) = fixed_points(beta, tol_trace)
        middle = GeodesicLine(p, q)
    elif alpha_parabolic:
        (p,) = fixed_points(alpha, tol_trace)
        middle = _drop_perpendicular(p, axis_of(beta, tol_trace))
    elif beta_parabolic:
        (q,) = fixed_points(beta, tol_trace)
        middle = _drop_perpendicular(q, axis_of(alpha, tol_trace))
    else:
        middle = common_perpendicular(
            axis_of(alpha, tol_trace), axis_of(beta, tol_trace)
        )

    shared = HalfTurn(middle)
    inv = shared.matrix.inverse()
    first_mat = alpha * inv
    second_mat = inv * beta
    if abs(first_mat.trace) > _FACTOR_TOL or abs(second_mat.trace) > _FACTOR_TOL:
        raise NoValidSharedAxis(
            "middle axis is not admissible for both inputs"
        )
    first = HalfTurn(axis_of(first_mat), first_mat)
    second = HalfTurn(axis_of(second_mat), second_mat)
    return SharedFactorization(first, shared, second)


def _spread_triple(points):
    """Three points maximizing the smallest pairwise gap, for a stable fit;
    DegeneratePoints when no three have a gap that is a number."""
    best = None
    best_gap = -1.0
    # each pair is measured once
    distance = {
        (i, j): chordal_distance(points[i], points[j])
        for i, j in itertools.combinations(range(len(points)), 2)
    }
    for i, j, k in itertools.combinations(range(len(points)), 3):
        gap = min(distance[i, j], distance[i, k], distance[j, k])
        if gap > best_gap:
            best_gap = gap
            best = (points[i], points[j], points[k])
    if best is None:
        raise DegeneratePoints("no three of %r lie apart" % (points,))
    return best


def _dedupe_points(points):
    kept = []
    for p in points:
        if not any(same_point(p, q) for q in kept):
            kept.append(p)
    return kept


def _verified(circle, points, alpha, beta):
    if circle is None:
        return False
    # anchor points are checked at the plane tolerance, not on_circle's default
    if not all(on_circle(p, circle, PLANE_TOL) for p in points):
        return False
    return preserves_circle(alpha, circle) and preserves_circle(beta, circle)


def invariant_plane(alpha, beta, tol_trace=TOL_TRACE):
    """Oriented circle preserved by alpha, beta, and hence all their words.

    Soundness requires alpha, beta and alpha beta to be non-screw motions
    with no common fixed point.  Fixed points of parabolic and hyperbolic
    members must lie on the circle, so when three such points exist the
    circle is fitted through them directly.  Elliptic members keep their
    fixed points off the plane (their axes cross it at right angles), so
    elliptic-heavy inputs fall back to the plane spanned by the shared
    factorization axes.
    """
    product = alpha * beta
    for m in (alpha, beta, product):
        if not is_non_screw(m, tol_trace):
            raise ScrewInput("input or product has a nonreal trace %r" % m.trace)
    if classify(alpha, tol_trace) == "identity" or (
        classify(beta, tol_trace) == "identity"
    ):
        raise IdentityInput("invariant plane needs non-identity inputs")
    if _fixed_point_sets_meet(alpha, beta, tol_trace):
        raise SharedFixedPoint("inputs fix a common boundary point")

    anchor_points = []
    for m in (alpha, beta, product):
        if classify(m, tol_trace) in ("hyperbolic", "parabolic"):
            anchor_points.extend(fixed_points(m, tol_trace))
    anchor_points = _dedupe_points(anchor_points)
    if len(anchor_points) >= 3:
        circle = circle_through(*_spread_triple(anchor_points))
        if _verified(circle, anchor_points, alpha, beta):
            return circle

    factorization = shared_factorization(alpha, beta, tol_trace)
    endpoints = []
    for axis in factorization.axes():
        endpoints.extend(axis.endpoints())
    endpoints = _dedupe_points(endpoints)
    circle = circle_through(*_spread_triple(endpoints))
    if not _verified(circle, endpoints, alpha, beta):
        raise PlaneVerificationFailed(
            "no oriented circle survived the preservation check"
        )
    return circle
