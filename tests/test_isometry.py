import cmath
import math

import numpy as np
import pytest

import loxo.isometry

from conftest import (
    bits,
    oracle_complex_length,
    parabolic_with,
    random_classified,
    random_isometry,
    scalar_products,
    seeded,
)
from loxo.errors import (
    AmbiguousClass,
    IdentityInput,
    NearSingular,
    UndefinedLength,
)
from loxo.isometry import (
    BoundaryPoint,
    MoebiusIsometry,
    apply_boundary,
    chordal_distance,
    classify,
    complex_length,
    fixed_points,
    is_non_screw,
    letter_factors,
    normalize,
    product_rows,
    same_point,
)

TWO_ARCCOSH_3 = 3.5254943480781717  # 2 log(3 + 2 sqrt(2))


def test_normalize_scales_determinant():
    m = normalize([[2.0, 0.0], [0.0, 2.0]])
    assert abs(m.a * m.d - m.b * m.c - 1.0) <= 1e-12
    assert m.is_identity()


def test_normalize_rejects_singular():
    with pytest.raises(NearSingular):
        normalize([[1.0, 2.0], [2.0, 4.0]])


def test_normalize_fixes_sign():
    m = normalize([[-1.0, -1.0], [0.0, -1.0]])
    assert m.trace.real > 0
    n = normalize([[1.0, 1.0], [0.0, 1.0]])
    assert m.max_entry_distance(n) == 0.0


def test_sign_rule_on_traceless_matrices():
    # z -> -z stores as diag(i, -i): first sizable entry is a = i, Im > 0
    m = normalize([[-1j, 0.0], [0.0, 1j]])
    assert m.a == 1j and m.d == -1j
    # first sizable entry b decides when a vanishes
    h = normalize([[0.0, -1j], [-1j, 0.0]])
    assert h.b == 1j


def test_normalize_idempotent_random():
    rng = seeded("normalize-idempotent")
    for _ in range(200):
        m = random_isometry(rng)
        again = normalize(m)
        assert m.max_entry_distance(again) <= 1e-12
        assert abs(m.a * m.d - m.b * m.c - 1.0) <= 1e-12


def test_psl_quotient_sign_insensitive():
    rng = seeded("psl-sign")
    for _ in range(200):
        m = random_isometry(rng)
        flipped = MoebiusIsometry.from_matrix(
            ((-m.a, -m.b), (-m.c, -m.d))
        )
        assert m.max_entry_distance(flipped) <= 1e-12


def test_classify_spec_values():
    assert classify(normalize([[1.0, 1.0], [0.0, 1.0]])) == "parabolic"

    hyp = normalize([[2.0, 0.0], [0.0, 0.5]])
    assert classify(hyp) == "hyperbolic"
    assert complex_length(hyp).length == pytest.approx(
        2.0 * math.log(2.0), abs=1e-12
    )

    rot = normalize([[cmath.exp(0.5j), 0.0], [0.0, cmath.exp(-0.5j)]])
    assert classify(rot) == "elliptic"
    assert complex_length(rot).angle == pytest.approx(1.0, abs=1e-12)

    half = (1.0 + 0.6j) / 2.0
    screw = normalize([[cmath.exp(half), 0.0], [0.0, cmath.exp(-half)]])
    assert classify(screw) == "screw"
    screw = complex_length(screw)
    assert screw.length == pytest.approx(1.0, abs=1e-12)
    assert screw.angle == pytest.approx(0.6, abs=1e-12)


def test_classify_identity():
    assert classify(MoebiusIsometry.identity()) == "identity"
    assert classify(normalize([[-1.0, 0.0], [0.0, -1.0]])) == "identity"


def test_classify_parabolic_ball_takes_precedence():
    # companion matrix of x^2 - t x + 1 has trace exactly t
    t = 2.0 + 1e-7
    got = classify(normalize([[t, -1.0], [1.0, 0.0]]), tol_trace=1e-6)
    assert got == "parabolic"


def test_classify_ambiguous_corner():
    # nominally real trace pushed out of the parabolic ball by its imaginary
    # part, yet too close to 2 for the elliptic rule: must be reported
    t = complex(2.0 - 0.9e-6, 0.9e-6)
    with pytest.raises(AmbiguousClass):
        classify(normalize([[t, -1.0], [1.0, 0.0]]), tol_trace=1e-6)


def test_classify_random_constructions():
    rng = seeded("classify-random")
    for _ in range(500):
        kind, m = random_classified(rng)
        assert classify(m) == kind
        assert is_non_screw(m) == (kind != "screw")


def test_complex_length_against_multiplier_oracle():
    rng = seeded("length-oracle")
    for _ in range(500):
        kind, m = random_classified(rng)
        if kind == "parabolic":
            with pytest.raises(UndefinedLength):
                complex_length(m)
            continue
        got = complex_length(m)
        want_l, want_theta = oracle_complex_length(m)
        assert got.length == pytest.approx(want_l, abs=1e-9)
        assert got.angle == pytest.approx(want_theta, abs=1e-9)
        # definition: 2 cosh((l + i theta)/2) matches the trace up to sign
        back = 2.0 * cmath.cosh((got.length + 1j * got.angle) / 2.0)
        assert min(abs(back - m.trace), abs(back + m.trace)) <= 1e-9


def test_complex_length_frozen_values():
    m = normalize([[5.0, 2.0], [2.0, 1.0]])  # trace 6
    cl = complex_length(m)
    assert cl.length == pytest.approx(TWO_ARCCOSH_3, abs=1e-12)
    assert cl.angle == pytest.approx(0.0, abs=1e-12)

    quarter = normalize([[0.0, 1.0], [-1.0, 0.0]])
    cl = complex_length(quarter)
    assert cl.length == 0.0
    assert cl.angle == pytest.approx(math.pi, abs=1e-12)


def test_complex_length_conjugation_invariant():
    rng = seeded("length-conjugation")
    for _ in range(200):
        kind, m = random_classified(rng)
        if kind == "parabolic":
            continue
        g = random_isometry(rng)
        a = complex_length(m)
        b = complex_length(m.conjugate_by(g))
        assert b.length == pytest.approx(a.length, abs=1e-9)
        assert b.angle == pytest.approx(a.angle, abs=1e-9)


def test_complex_length_inverse_symmetry():
    # trace(m) = trace(m^-1), so lengths agree and angles match up to the
    # orientation of the axis: |theta| is preserved
    rng = seeded("length-inverse")
    for _ in range(200):
        kind, m = random_classified(rng)
        if kind == "parabolic":
            continue
        a = complex_length(m)
        b = complex_length(m.inverse())
        assert b.length == pytest.approx(a.length, abs=1e-9)
        assert abs(b.angle) == pytest.approx(abs(a.angle), abs=1e-9)


def test_fixed_points_spec_value():
    pts = fixed_points(normalize([[5.0, 2.0], [2.0, 1.0]]))
    assert len(pts) == 2
    values = sorted(p.to_complex().real for p in pts)
    assert values[0] == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    assert values[1] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)


def test_fixed_points_parabolic_single():
    (p,) = fixed_points(normalize([[1.0, 1.0], [0.0, 1.0]]))
    assert p.is_infinity
    (p,) = fixed_points(normalize([[1.0, 0.0], [2.0, 1.0]]))
    assert same_point(p, BoundaryPoint.from_complex(0.0))


def test_fixed_points_identity_rejected():
    with pytest.raises(IdentityInput):
        fixed_points(MoebiusIsometry.identity())


def test_fixed_points_are_fixed():
    rng = seeded("fixed-points")
    for _ in range(400):
        kind, m = random_classified(rng)
        pts = fixed_points(m)
        assert len(pts) == (1 if kind == "parabolic" else 2)
        for p in pts:
            assert chordal_distance(apply_boundary(m, p), p) <= 1e-7
        if len(pts) == 2:
            assert not same_point(pts[0], pts[1])


def test_boundary_point_normalization():
    p = BoundaryPoint(4.0 + 0j, 2.0 + 0j)
    assert p.z == 1.0 and p.w == 0.5
    q = BoundaryPoint(1.0, 3.0)
    assert q.w == 1.0
    assert BoundaryPoint.infinity().is_infinity
    with pytest.raises(ValueError):
        BoundaryPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        BoundaryPoint.infinity().to_complex()


def test_chordal_distance_matches_stereographic():
    # |p - q| scaled by the conformal factors of stereographic projection
    rng = seeded("chordal")
    for _ in range(100):
        zp = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        zq = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        want = 2.0 * abs(zp - zq) / math.sqrt(
            (1 + abs(zp) ** 2) * (1 + abs(zq) ** 2)
        )
        got = chordal_distance(
            BoundaryPoint.from_complex(zp), BoundaryPoint.from_complex(zq)
        )
        assert got == pytest.approx(want, abs=1e-12)


def test_apply_boundary_moves_infinity():
    m = normalize([[0.0, 1.0], [-1.0, 0.0]])  # z -> -1/z
    image = apply_boundary(m, BoundaryPoint.infinity())
    assert same_point(image, BoundaryPoint.from_complex(0.0))
    image = apply_boundary(m, BoundaryPoint.from_complex(0.0))
    assert image.is_infinity


def test_parabolic_conjugates_stay_parabolic():
    rng = seeded("parabolic-conj")
    for _ in range(100):
        m = parabolic_with(rng)
        assert classify(m) == "parabolic"
        assert abs(abs(m.trace.real) - 2.0) <= 1e-9


def test_signed_flips_signed_zeros_as_the_constructor():
    # a negative trace of unit-determinant rows flips the sign; the zero
    # parts of the entries keep or lose their signs as the interpreter's
    # float times complex does, in _signed, the reader of a ball row, as
    # in the constructor
    zeros = (0.0, -0.0)
    rows = [
        (complex(-1.0, y), complex(x, -1.0), complex(x, y), complex(-1.0, x))
        for x in zeros
        for y in zeros
    ]
    for raw in rows:
        m = loxo.isometry._signed(*raw)
        n = MoebiusIsometry(*raw)
        assert bits([m.a, m.b, m.c, m.d]) == bits([n.a, n.b, n.c, n.d])


def test_products_keep_the_computed_determinant():
    # a product is taken as computed: _signed, the scalar product and the
    # inverse flip the sign of a row of determinant 4 and do not rescale it
    m = loxo.isometry._signed(*map(complex, (-2.0, 0.0, 0.0, -2.0)))
    for p in (m, m * MoebiusIsometry.identity(), m.inverse()):
        assert (p.a, p.b, p.c, p.d) == (2, 0, 0, 2)


@pytest.mark.parametrize("n_letters", [2, 6])
@pytest.mark.parametrize("n_parents", [1, 3000])
def test_product_rows_equal_the_scalar_product_bitwise(n_parents, n_letters):
    # coordinates drawn from signed zeros, the least subnormal and
    # magnitudes 1e150 and 1e-150 next to ordinary ones, so a term read
    # from the wrong coordinate, a lost sign of zero or another order of
    # the four terms shows in the bits; no sum overflows
    rng = np.random.default_rng(n_parents * 10 + n_letters)
    pool = np.array([0.0, 5e-324, 1e-150, 1e150, 0.75, 1.0, 3.0])

    def rows(n):
        coords = pool[rng.integers(0, len(pool), (n, 8))]
        coords *= rng.choice((-1.0, 1.0), (n, 8))
        coords *= rng.uniform(0.5, 2.0, (n, 8))
        return coords.view(complex)

    parents, letters = rows(n_parents), rows(n_letters)
    # a letter of signed zeros and one of least subnormals, in every
    # coordinate
    letters[0] = np.array([0.0, -0.0] * 4).view(complex)
    letters[1] = np.array([-5e-324, 5e-324] * 4).view(complex)
    got = product_rows(parents, letter_factors(letters))
    assert got.shape == (n_parents, n_letters, 8)
    assert bits(np.ascontiguousarray(got).view(complex).reshape(-1, 4)) == (
        bits(scalar_products(parents.tolist(), letters.tolist()))
    )
