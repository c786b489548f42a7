import cmath

import pytest

from loxo.errors import (
    IdentityInput,
    InvalidChoice,
    ScrewInput,
    SharedFixedPoint,
)
from loxo.geometry import (
    GeodesicLine,
    circle_through,
    on_circle,
    preserves_circle,
    same_line,
    transform_circle,
    transform_line,
)
from loxo.halfturn import (
    HalfTurn,
    decompose,
    default_free_choice,
    invariant_plane,
    shared_factorization,
)
from loxo.isometry import (
    BoundaryPoint,
    MoebiusIsometry,
    is_non_screw,
    same_point,
)

from conftest import (
    FIGURE_EIGHT,
    random_classified,
    random_complex,
    random_isometry,
    seeded,
)


def line(p, q):
    return GeodesicLine.from_complex(p, q)


def pt(z):
    return BoundaryPoint.from_complex(z)


def real_pair(rng):
    """Two isometries conjugate into the real group by one shared map."""

    def real_matrix():
        while True:
            a, b, c = (rng.uniform(-2, 2) for _ in range(3))
            if abs(a) > 0.2:
                return MoebiusIsometry(a, b, c, (1 + b * c) / a)

    g = random_isometry(rng)
    alpha = real_matrix().conjugate_by(g)
    beta = real_matrix().conjugate_by(g)
    return alpha, beta, g


# ---------------------------------------------------------------------------
# decompose


def test_decompose_translation_with_free_endpoint():
    shift = MoebiusIsometry(1, 2, 0, 1)
    first, second = decompose(shift, free_choice=pt(0))
    assert same_line(second.axis, GeodesicLine(pt(0), BoundaryPoint.infinity()))
    assert same_line(first.axis, GeodesicLine(pt(1), BoundaryPoint.infinity()))
    assert (first.matrix * second.matrix).psl_distance(shift) < 1e-12


def test_decompose_dilation_with_unit_diameter():
    stretch = MoebiusIsometry(2, 0, 0, 0.5)
    first, second = decompose(stretch, free_choice=line(-1, 1))
    assert same_line(first.axis, line(-2, 2))
    assert (first.matrix * second.matrix).psl_distance(stretch) < 1e-12


def test_decompose_inversion_gives_crossing_axes():
    inv = MoebiusIsometry(0, 1, -1, 0)  # z -> -1/z, rotation by pi
    first, second = decompose(inv, free_choice=line(-1, 1))
    assert same_line(
        first.axis, GeodesicLine(pt(0), BoundaryPoint.infinity())
    )
    assert (first.matrix * second.matrix).psl_distance(inv) < 1e-12


def test_decompose_identity_rejected():
    with pytest.raises(IdentityInput):
        decompose(MoebiusIsometry.identity())


def test_decompose_parabolic_wants_boundary_point():
    shift = MoebiusIsometry(1, 2, 0, 1)
    with pytest.raises(InvalidChoice):
        decompose(shift, free_choice=line(0, 1))


def test_decompose_parabolic_rejects_fixed_point_choice():
    shift = MoebiusIsometry(1, 2, 0, 1)
    with pytest.raises(InvalidChoice):
        decompose(shift, free_choice=BoundaryPoint.infinity())


def test_decompose_rejects_slanted_axis():
    stretch = MoebiusIsometry(2, 0, 0, 0.5)
    with pytest.raises(InvalidChoice):
        decompose(stretch, free_choice=line(1, 3))


def test_decompose_axial_wants_line():
    stretch = MoebiusIsometry(2, 0, 0, 0.5)
    with pytest.raises(InvalidChoice):
        decompose(stretch, free_choice=pt(1))


def test_default_choice_avoids_parabolic_fixed_point():
    lower = MoebiusIsometry(1, 0, 2, 1)  # fixes 0
    choice = default_free_choice(lower)
    assert isinstance(choice, BoundaryPoint)
    assert choice.to_complex() == 1.0


def test_decompose_random_round_trip():
    rng = seeded("decompose round trip")
    for _ in range(300):
        kind, m = random_classified(rng)
        if kind == "identity":
            continue
        first, second = decompose(m)
        assert (first.matrix * second.matrix).psl_distance(m) < 1e-9
        for h in (first, second):
            assert abs(h.matrix.trace) < 1e-7
            assert (h.matrix * h.matrix).is_identity()
            assert h.matrix.psl_distance(HalfTurn(h.axis).matrix) < 1e-6


def test_decompose_explicit_perpendicular_choices():
    rng = seeded("decompose explicit choices")
    for _ in range(200):
        kind, m = random_classified(rng)
        if kind in ("identity", "parabolic"):
            free = pt(random_complex(rng))
            if kind == "identity":
                continue
            from loxo.isometry import fixed_points, same_point

            (fixed,) = fixed_points(m)
            if same_point(fixed, free):
                continue
        else:
            from loxo.geometry import axis_of

            axis = axis_of(m)
            w = random_complex(rng)
            if abs(w) < 1e-3:
                continue
            frame = MoebiusIsometry(axis.q.z, axis.p.z, axis.q.w, axis.p.w)
            free = transform_line(frame, line(w, -w))
        first, second = decompose(m, free_choice=free)
        assert (first.matrix * second.matrix).psl_distance(m) < 1e-9


def test_factor_axes_coplanar_iff_non_screw():
    rng = seeded("coplanar factor axes")
    checked_plain = 0
    checked_screw = 0
    for _ in range(200):
        kind, m = random_classified(rng)
        if kind == "identity":
            continue
        first, second = decompose(m)
        # the four endpoints, a shared one counted once, lie on one circle
        points = [first.axis.p, first.axis.q]
        points += [
            q for q in second.axis.endpoints()
            if not any(same_point(q, p) for p in points)
        ]
        coplanar = len(points) == 3 or on_circle(
            points[3], circle_through(*points[:3])
        )
        if is_non_screw(m):
            assert coplanar
            checked_plain += 1
        else:
            assert not coplanar
            checked_screw += 1
    assert checked_plain > 30 and checked_screw > 30


# ---------------------------------------------------------------------------
# shared_factorization


def test_shared_factorization_two_parabolics():
    alpha = MoebiusIsometry(1, 2, 0, 1)
    beta = MoebiusIsometry(1, 0, 2, 1)
    fac = shared_factorization(alpha, beta)
    assert same_line(
        fac.shared.axis, GeodesicLine(BoundaryPoint.infinity(), pt(0))
    )
    assert (fac.first.matrix * fac.shared.matrix).psl_distance(alpha) < 1e-9
    assert (fac.shared.matrix * fac.second.matrix).psl_distance(beta) < 1e-9
    assert same_line(
        fac.first.axis, GeodesicLine(pt(1), BoundaryPoint.infinity())
    )
    assert same_line(fac.second.axis, line(0, -1))


def test_shared_factorization_two_axials():
    alpha = MoebiusIsometry(2, 0, 0, 0.5)
    frame = MoebiusIsometry(3, -3, 1, 1)
    beta = MoebiusIsometry(2, 0, 0, 0.5).conjugate_by(frame)
    fac = shared_factorization(alpha, beta)
    assert same_line(fac.shared.axis, line(3j, -3j))
    assert (fac.first.matrix * fac.shared.matrix).psl_distance(alpha) < 1e-9
    assert (fac.shared.matrix * fac.second.matrix).psl_distance(beta) < 1e-9


def test_shared_factorization_parabolic_meets_axis():
    alpha = MoebiusIsometry(1, 1, 0, 1)  # fixes infinity
    frame = MoebiusIsometry(1, -1, 1, 1)
    beta = MoebiusIsometry(2, 0, 0, 0.5).conjugate_by(frame)  # axis (-1, 1)
    fac = shared_factorization(alpha, beta)
    assert same_line(
        fac.shared.axis, GeodesicLine(BoundaryPoint.infinity(), pt(0))
    )
    assert (fac.first.matrix * fac.shared.matrix).psl_distance(alpha) < 1e-9
    assert (fac.shared.matrix * fac.second.matrix).psl_distance(beta) < 1e-9


def test_shared_factorization_rejects_common_fixed_point():
    alpha = MoebiusIsometry(1, 2, 0, 1)
    beta = MoebiusIsometry(2, 0, 0, 0.5)
    with pytest.raises(SharedFixedPoint):
        shared_factorization(alpha, beta)


def test_shared_factorization_rejects_identity():
    with pytest.raises(IdentityInput):
        shared_factorization(MoebiusIsometry.identity(), MoebiusIsometry(1, 1, 0, 1))


def test_shared_factorization_random_round_trip():
    rng = seeded("shared factorization round trip")
    done = 0
    while done < 150:
        alpha, beta, _ = real_pair(rng)
        try:
            fac = shared_factorization(alpha, beta)
        except SharedFixedPoint:
            continue
        assert (fac.first.matrix * fac.shared.matrix).psl_distance(alpha) < 1e-8
        assert (fac.shared.matrix * fac.second.matrix).psl_distance(beta) < 1e-8
        done += 1


# ---------------------------------------------------------------------------
# invariant_plane


def test_invariant_plane_real_parabolic_pair():
    alpha = MoebiusIsometry(1, 2, 0, 1)
    beta = MoebiusIsometry(1, 0, 2, 1)
    plane = invariant_plane(alpha, beta)
    real_line = circle_through(pt(0), pt(1), BoundaryPoint.infinity())
    from loxo.geometry import same_circle

    assert same_circle(plane, real_line)
    assert preserves_circle(alpha, plane)
    assert preserves_circle(beta, plane)


def test_invariant_plane_two_inversions():
    # both factors elliptic, so only the geometric route can find the plane
    alpha = MoebiusIsometry(0, 1, 1, 0)  # z -> 1/z
    beta = MoebiusIsometry(0, 4, 1, 0)  # z -> 4/z
    plane = invariant_plane(alpha, beta)
    imag_line = circle_through(pt(0), pt(1j), BoundaryPoint.infinity())
    from loxo.geometry import same_circle

    assert same_circle(plane, imag_line)
    assert preserves_circle(alpha, plane)
    assert preserves_circle(beta, plane)
    assert preserves_circle(alpha * beta, plane)


def test_invariant_plane_rotation_with_dilation():
    c, s = cmath.cos(1.0).real, cmath.sin(1.0).real
    alpha = MoebiusIsometry(c, s, -s, c)  # elliptic, axis (i, -i)
    beta = MoebiusIsometry(2, 0, 0, 0.5)
    plane = invariant_plane(alpha, beta)
    real_line = circle_through(pt(0), pt(1), BoundaryPoint.infinity())
    from loxo.geometry import same_circle

    assert same_circle(plane, real_line)


def test_invariant_plane_rejects_screw_pair():
    (_, alpha), (_, beta) = FIGURE_EIGHT
    with pytest.raises(ScrewInput):
        invariant_plane(alpha, beta)


def test_invariant_plane_rejects_shared_fixed_point():
    alpha = MoebiusIsometry(2, 0, 0, 0.5)
    beta = MoebiusIsometry(1, 0, 1, 1)  # fixes 0 as well
    with pytest.raises(SharedFixedPoint):
        invariant_plane(alpha, beta)


def test_invariant_plane_random_conjugated_pairs():
    rng = seeded("invariant plane random pairs")
    done = 0
    while done < 120:
        alpha, beta, g = real_pair(rng)
        try:
            plane = invariant_plane(alpha, beta)
        except SharedFixedPoint:
            continue
        expected = transform_circle(
            g,
            circle_through(pt(0), pt(1), BoundaryPoint.infinity()),
        )
        from loxo.geometry import same_circle

        assert same_circle(plane, expected)
        assert preserves_circle(alpha, plane)
        assert preserves_circle(beta, plane)
        assert preserves_circle(alpha * beta, plane)
        assert preserves_circle(alpha.inverse() * beta, plane)
        done += 1


def test_invariant_plane_words_stay_non_screw():
    rng = seeded("invariant plane words")
    alpha, beta, _ = real_pair(rng)
    invariant_plane(alpha, beta)
    words = [alpha, beta, alpha * beta, beta * alpha, alpha * beta * alpha]
    for w in words:
        assert abs(w.trace.imag) < 1e-9
