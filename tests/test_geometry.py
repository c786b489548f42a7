import math

import pytest

from conftest import (
    oracle_min_distance,
    random_complex,
    random_isometry,
    seeded,
)
from loxo.errors import (
    DegeneratePoints,
    IdenticalLines,
    SharedEndpoint,
)
from loxo.geometry import (
    BoundaryCircle,
    GeodesicLine,
    axis_of,
    circle_through,
    common_perpendicular,
    cross_ratio,
    geodesic_separation,
    halfturn_matrix,
    on_circle,
    same_circle,
    same_line,
    same_oriented_circle,
    standardizing_map,
    transform_circle,
    transform_line,
)
from loxo.isometry import (
    BoundaryPoint,
    apply_boundary,
    classify,
    normalize,
    same_point,
)

INF = BoundaryPoint.infinity()


def pt(z):
    return BoundaryPoint.from_complex(z)


def line(zp, zq):
    ends = []
    for z in (zp, zq):
        ends.append(INF if z is None else pt(z))
    return GeodesicLine(*ends)


def random_line(rng, scale=3.0):
    while True:
        p = random_complex(rng, scale)
        q = random_complex(rng, scale)
        if abs(p - q) > 0.3:
            return line(p, q)


# ---------------------------------------------------------------------------
# circles


def test_circle_through_unit_circle():
    c = circle_through(pt(1.0), pt(1j), pt(-1.0))
    assert abs(abs(c.a) - 1.0) <= 1e-12
    assert abs(c.b) <= 1e-12
    assert abs(c.a + c.c) <= 1e-12
    assert abs(abs(c.b) ** 2 - c.a * c.c - 1.0) <= 1e-12


def test_circle_through_shifted_circle():
    # circle |z - 1| = 1 has form |z|^2 - zbar - z = 0
    c = circle_through(pt(0.0), pt(2.0), pt(1.0 + 1j))
    want = BoundaryCircle(1.0, -1.0, 0.0)
    assert same_circle(c, want, tol=1e-12)


def test_circle_through_real_line_orientation():
    c = circle_through(pt(0.0), pt(1.0), INF)
    assert abs(c.a) <= 1e-12 and abs(c.c) <= 1e-12
    a, b, _ = c.signed_triple()
    assert b == pytest.approx(1j, abs=1e-12)
    # upper half plane is the positive side for this argument order
    assert c.evaluate(pt(5j)) > 0.0
    assert c.evaluate(pt(-5j)) < 0.0


def test_circle_through_rejects_repeats():
    with pytest.raises(DegeneratePoints):
        circle_through(pt(1.0), pt(1.0), pt(2.0))


def test_standardizing_map_on_close_points():
    # d23 d21 d13 is about 1e-15 here, under the absolute determinant test
    p1, p2, p3 = pt(0.0), pt(1e-5), pt(2e-5)
    m = standardizing_map(p1, p2, p3)
    for p, image in ((p1, 0.0), (p2, 1.0)):
        assert same_point(apply_boundary(m, p), pt(image))
    assert apply_boundary(m, p3).is_infinity


def test_standardizing_map_rejects_repeats():
    with pytest.raises(DegeneratePoints):
        standardizing_map(pt(1.0), pt(1.0), pt(2.0))


def test_on_circle():
    c = circle_through(pt(1.0), pt(1j), pt(-1.0))
    assert on_circle(pt(-1j), c)
    assert on_circle(pt((1 + 1j) / math.sqrt(2.0)), c)
    assert not on_circle(pt(0.0), c)
    assert not on_circle(INF, c)
    assert on_circle(INF, circle_through(pt(0.0), pt(1.0), INF))


def test_transform_circle_cayley():
    # z -> (z - i)/(z + i) sends the real line to the unit circle
    cayley = normalize([[1.0, -1j], [1.0, 1j]])
    real_line = circle_through(pt(0.0), pt(1.0), INF)
    unit = circle_through(pt(-1.0), pt(-1j), pt(1.0))
    image = transform_circle(cayley, real_line)
    assert same_circle(image, unit, tol=1e-9)


def test_transform_circle_respects_composition():
    rng = seeded("circle-composition")
    base = circle_through(pt(0.0), pt(2.0), pt(1.0 + 1j))
    for _ in range(100):
        m = random_isometry(rng)
        g = random_isometry(rng)
        once = transform_circle(g, transform_circle(m, base))
        combined = transform_circle(g * m, base)
        assert same_oriented_circle(once, combined, tol=1e-9)


def test_transform_circle_preserves_evaluation_sign():
    rng = seeded("circle-orientation")
    base = circle_through(pt(0.0), pt(2.0), pt(1.0 + 1j))
    for _ in range(100):
        m = random_isometry(rng)
        p = pt(random_complex(rng, 4.0))
        from loxo.isometry import apply_boundary

        before = base.evaluate(p)
        after = transform_circle(m, base).evaluate(apply_boundary(m, p))
        # congruence preserves the form's values up to the normalization of
        # the representative point, hence at least the sign
        assert before * after >= 0.0
        if abs(before) > 1e-9:
            assert abs(after) > 1e-12


def test_circle_flip_reverses_sides():
    c = circle_through(pt(0.0), pt(1.0), INF)
    f = c.flip()
    assert same_circle(c, f)
    assert not same_oriented_circle(c, f)
    assert c.evaluate(pt(1j)) * f.evaluate(pt(1j)) < 0.0


# ---------------------------------------------------------------------------
# lines and half-turns


def test_halfturn_spec_matrices():
    m = halfturn_matrix(line(0.0, None))
    assert m.max_entry_distance(normalize([[1j, 0.0], [0.0, -1j]])) <= 1e-12

    m = halfturn_matrix(line(-1.0, 1.0))
    assert m.max_entry_distance(normalize([[0.0, 1j], [1j, 0.0]])) <= 1e-12

    m = halfturn_matrix(line(3.0, None))  # z -> 6 - z
    image = m.a * 2.0 + m.b
    assert image / (m.c * 2.0 + m.d) == pytest.approx(4.0, abs=1e-12)


def test_halfturn_is_involution_fixing_line():
    rng = seeded("halfturn")
    for _ in range(200):
        l = random_line(rng)
        m = halfturn_matrix(l)
        assert abs(m.trace) <= 1e-12
        assert (m * m).is_identity(1e-9)
        assert same_line(transform_line(m, l), l)


def test_axis_of_recovers_conjugated_axis():
    rng = seeded("axis")
    for _ in range(100):
        g = random_isometry(rng)
        m = normalize([[2.0, 0.0], [0.0, 0.5]]).conjugate_by(g)
        want = transform_line(g, line(0.0, None))
        assert same_line(axis_of(m), want, tol=1e-6)


def test_common_perpendicular_vertical_and_circle():
    e = math.e
    perp = common_perpendicular(line(0.0, None), line(1.0, e * e))
    assert same_line(perp, line(-e, e), tol=1e-9)


def test_common_perpendicular_intersecting_lines():
    perp = common_perpendicular(line(0.0, None), line(-1.0, 1.0))
    assert same_line(perp, line(-1j, 1j), tol=1e-9)


def test_common_perpendicular_shared_endpoint_rejected():
    with pytest.raises(SharedEndpoint):
        common_perpendicular(line(0.0, None), line(0.0, 1.0))


def test_common_perpendicular_is_harmonic():
    rng = seeded("perp-harmonic")
    for _ in range(100):
        l1 = random_line(rng)
        l2 = random_line(rng)
        if same_line(l1, l2) or geodesic_separation(l1, l2).distance == 0.0:
            continue
        perp = common_perpendicular(l1, l2)
        for l in (l1, l2):
            harm = cross_ratio(l.p, l.q, perp.p, perp.q)
            assert harm.real == pytest.approx(-1.0, abs=1e-7)
            assert abs(harm.imag) <= 1e-7
        sep1 = geodesic_separation(l1, perp)
        sep2 = geodesic_separation(l2, perp)
        assert sep1.distance == 0.0 and sep2.distance == 0.0
        assert sep1.angle == pytest.approx(math.pi / 2.0, abs=1e-7)
        assert sep2.angle == pytest.approx(math.pi / 2.0, abs=1e-7)


# ---------------------------------------------------------------------------
# separation


def test_separation_concentric_semicircles():
    e = math.e
    sep = geodesic_separation(line(-1.0, 1.0), line(-e, e))
    assert sep.distance == pytest.approx(1.0, abs=1e-12)
    assert sep.angle == pytest.approx(0.0, abs=1e-12)


def test_separation_crossing_at_right_angle():
    sep = geodesic_separation(line(0.0, None), line(-1.0, 1.0))
    assert sep.distance == 0.0
    assert sep.angle == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert sep.intersects


def test_separation_asymptotic_lines():
    sep = geodesic_separation(line(0.0, 1.0), line(0.0, 2.0))
    assert sep.distance == 0.0
    assert sep.angle == 0.0
    assert not sep.intersects


def test_separation_identical_rejected():
    with pytest.raises(IdenticalLines):
        geodesic_separation(line(0.0, 1.0), line(1.0, 0.0))


def test_separation_symmetric_and_moebius_invariant():
    rng = seeded("separation-invariance")
    for _ in range(100):
        l1 = random_line(rng)
        l2 = random_line(rng)
        if same_line(l1, l2):
            continue
        sep = geodesic_separation(l1, l2)
        swapped = geodesic_separation(l2, l1)
        assert swapped.distance == pytest.approx(sep.distance, abs=1e-9)
        assert swapped.angle == pytest.approx(sep.angle, abs=1e-9)
        g = random_isometry(rng)
        moved = geodesic_separation(transform_line(g, l1), transform_line(g, l2))
        assert moved.distance == pytest.approx(sep.distance, abs=1e-9)
        assert moved.angle == pytest.approx(sep.angle, abs=1e-9)


def test_separation_against_minimization_oracle():
    rng = seeded("separation-oracle")
    checked = 0
    while checked < 30:
        l1 = random_line(rng)
        l2 = random_line(rng)
        if same_line(l1, l2):
            continue
        sep = geodesic_separation(l1, l2)
        if sep.distance < 0.05:
            continue
        assert sep.distance == pytest.approx(
            oracle_min_distance(l1, l2), abs=1e-6
        )
        checked += 1


def test_separation_spec_pair_against_oracle():
    l1 = line(0.0, 1.0)
    l2 = line(2.0, 3.0)
    sep = geodesic_separation(l1, l2)
    assert sep.distance == pytest.approx(oracle_min_distance(l1, l2), abs=1e-9)
    assert sep.angle == pytest.approx(0.0, abs=1e-12)


def test_halfturn_product_classifies_by_position():
    # disjoint coplanar: hyperbolic; crossing: elliptic; skew: screw
    h = halfturn_matrix(line(-1.0, 1.0)) * halfturn_matrix(line(-2.0, 2.0))
    assert classify(h) == "hyperbolic"
    e = halfturn_matrix(line(0.0, None)) * halfturn_matrix(line(-1.0, 1.0))
    assert classify(e) in ("elliptic", "identity")
    s = halfturn_matrix(line(-1.0, 1.0)) * halfturn_matrix(line(-2j, 3.0 + 1j))
    assert classify(s) == "screw"


def test_cross_ratio_basic():
    # [0, 1; t, infinity] = -t / (1 - t) ... check a classical value instead:
    # [p1, p2; p3, p4] = -1 for the harmonic quadruple (0, inf, -1, 1)
    value = cross_ratio(pt(0.0), INF, pt(-1.0), pt(1.0))
    assert value == pytest.approx(-1.0, abs=1e-12)
