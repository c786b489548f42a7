import cmath
import math

import pytest

from loxo.certification import (
    cusp_depth,
    max_parabolic_length_at_depth,
    simplicity_check,
)
from loxo.enumeration import (
    GroupPresentation,
    enumerate_ball,
    shortest_screw,
    spectrum,
)
from loxo.errors import OutOfRange
from loxo.geometry import (
    INTERSECTION_TOL,
    axis_of,
    geodesic_separation,
    same_line,
    transform_line,
)
from loxo.isometry import MoebiusIsometry, classify

from conftest import (
    FIGURE_EIGHT,
    THRICE_PUNCTURED,
    exact_generators,
    float_groups,
    mpmath_translate_distances,
    mpmath_words,
    reference_groups,
    seeded,
)


def presentation(pairs):
    return GroupPresentation([m for _, m in pairs], [l for l, _ in pairs])


def margulis_group(step=0.02 + 0.01j):
    lam = cmath.exp(step)
    return GroupPresentation([MoebiusIsometry(lam, 0, 0, 1 / lam)])


# ---------------------------------------------------------------------------
# simplicity_check


def test_cyclic_axis_has_no_translates():
    group = GroupPresentation([MoebiusIsometry(2, 0, 0, 0.5)])
    axis = axis_of(MoebiusIsometry(2, 0, 0, 0.5))
    report = simplicity_check(group, axis, 4)
    assert report.is_simple
    assert report.tube_radius_lower == math.inf
    assert report.witness is None


def test_thrice_punctured_systole_self_intersects():
    group = presentation(THRICE_PUNCTURED)
    word = group.word((0, 2))  # "a b"
    report = simplicity_check(group, axis_of(word.matrix), 6)
    assert report.verdict == "self_intersecting"
    assert report.witness is not None
    assert report.distance < 1e-7
    assert report.witness.length <= 6


def test_figure_eight_short_screw_is_simple():
    group = presentation(FIGURE_EIGHT)
    word = group.word((0, 2))  # "a b"
    report = simplicity_check(group, axis_of(word.matrix), 4)
    assert report.is_simple
    assert 0 < report.tube_radius_lower < math.inf


def test_witness_is_first_in_shortlex():
    group = presentation(THRICE_PUNCTURED)
    word = group.word((0, 2))
    axis = axis_of(word.matrix)
    report = simplicity_check(group, axis, 6)
    for earlier in enumerate_ball(group, 6):
        if earlier.sort_key >= report.witness.sort_key:
            break
        translate = transform_line(earlier.matrix, axis)
        if same_line(translate, axis):
            continue
        assert geodesic_separation(translate, axis).distance >= 1e-7


@pytest.mark.parametrize(
    "name, group",
    [
        pytest.param(name, g, id=name)
        for name, g in reference_groups() + float_groups()
    ],
)
def test_simplicity_check_matches_scalar_reference(name, group):
    # the reference is a 50-digit mpmath scan of the length-5 ball of the
    # group's exact generators; the balls of lengths 1-4 are its prefixes
    big = enumerate_ball(group, 5)
    words = mpmath_words(exact_generators(name), big)
    rows = {w.letters: i for i, w in enumerate(big)}
    scans = []
    for length in range(1, 6):
        ball = enumerate_ball(group, length)
        assert (ball.letters == big.letters[: len(ball)]).all()
        # axes of the words up to length 2 and of the shortest screw
        axis_words = [
            w
            for w in ball
            if w.length <= 2
            and classify(w.matrix) not in ("parabolic", "identity")
        ]
        screw = shortest_screw(group, length, ball=ball)
        if screw is not None:
            axis_words.append(screw.word)
        for word in axis_words:
            axis = axis_of(word.matrix)
            scan = next((d for line, d in scans if same_line(line, axis)), None)
            if scan is None:
                scan = mpmath_translate_distances(
                    words, words[rows[word.letters]], stop_at_crossing=True
                )
                scans.append((axis, scan))
            scan = scan[: len(ball)]
            report = simplicity_check(group, axis, length, ball=ball)
            crossing = next(
                (
                    i
                    for i, d in enumerate(scan)
                    if d is not None and d < INTERSECTION_TOL
                ),
                None,
            )
            if crossing is not None:
                assert report.verdict == "self_intersecting"
                assert report.witness is ball[crossing]
                assert report.distance < INTERSECTION_TOL
                continue
            assert report.verdict == "simple_up_to_bound"
            distances = [d for d in scan if d is not None]
            if not distances:
                assert report.tube_radius_lower == math.inf
                continue
            assert math.isclose(
                report.tube_radius_lower, min(distances) / 2.0, rel_tol=1e-12
            ), (word.name, length)


# half the least distance from the axis to a ball translate, from a
# 50-digit mpmath scan (mpmath_translate_distances) of the ball
MPMATH_TUBES = [
    ("torus", "a", 6, 0.8047189562170501),
    ("funnel", "a b'", 6, 1.1462158347805889),
    ("schottky", "a", 5, 3.3960593375902586),
]


@pytest.mark.parametrize(
    "name, word, length, tube",
    MPMATH_TUBES,
    ids=[case[0] for case in MPMATH_TUBES],
)
def test_tube_bounds_match_mpmath(name, word, length, tube):
    group = dict(reference_groups() + float_groups())[name]
    letters = next(
        w.letters for w in enumerate_ball(group, 2) if w.name == word
    )
    axis = axis_of(group.word(letters).matrix)
    report = simplicity_check(group, axis, length)
    assert report.is_simple
    assert math.isclose(report.tube_radius_lower, tube, rel_tol=1e-12)


# the axis each base group's survey scans: its shortest screw or a
# shortest hyperbolic word
AXIS_WORDS = {
    "figure_eight": (0, 2),
    "thrice_punctured": (0, 2),
    "funnel": (0, 3),
    "torus": (0,),
}


def unit_conjugator(rng, bound=2.3):
    """Complex-normal matrix scaled to unit determinant, entries <= bound."""
    while True:
        a, b, c, d = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
        det = a * d - b * c
        if abs(det) < 0.1:
            continue
        s = cmath.sqrt(det)
        entries = (a / s, b / s, c / s, d / s)
        if max(abs(e) for e in entries) <= bound:
            return MoebiusIsometry(*entries)


@pytest.mark.parametrize("name", sorted(AXIS_WORDS))
def test_simplicity_check_is_conjugation_invariant(name):
    group = dict(reference_groups())[name]
    letters = AXIS_WORDS[name]

    def check(g):
        moved = GroupPresentation([x.conjugate_by(g) for x in group.generators])
        return simplicity_check(moved, axis_of(moved.word(letters).matrix), 6)

    rng = seeded("conjugation invariance " + name)
    conjugators = [MoebiusIsometry(k, 0, 0, 1 / k) for k in (1e2, 1e3, 1e4)]
    conjugators += [unit_conjugator(rng) for _ in range(8)]
    want = check(MoebiusIsometry.identity())
    for g in conjugators:
        got = check(g)
        assert got.verdict == want.verdict, g
        if want.is_simple:
            assert math.isclose(
                got.tube_radius_lower, want.tube_radius_lower, rel_tol=1e-9
            ), g
        else:
            assert got.witness.name == want.witness.name, g


# ---------------------------------------------------------------------------
# the Margulis thin part: spectrum entries shorter than 0.1


def test_margulis_filter_keeps_short_entries():
    entries = spectrum(margulis_group(), 4)
    lengths = [e.length for e in entries]
    assert all(abs(l - 0.04 * (k + 1)) < 1e-12 for k, l in enumerate(lengths))
    short = [e for e in entries if e.length < 0.1]
    assert [e.word.name for e in short] == ["a", "a a"]


def test_margulis_short_entries_are_simple():
    group = margulis_group()
    for entry in spectrum(group, 4):
        if entry.length < 0.1:
            report = simplicity_check(group, entry.axis, 4)
            assert report.is_simple


# ---------------------------------------------------------------------------
# cusp depth


def test_cusp_depth_frozen_values():
    assert abs(cusp_depth(0.5) - 0.6827521295671886) < 1e-15
    assert abs(cusp_depth(0.1) - 2.302168461044091) < 1e-15
    assert abs(cusp_depth(2 * math.asinh(0.5))) < 1e-12


def test_cusp_depth_defining_identity():
    rng = seeded("cusp depth identity")
    for _ in range(200):
        delta = rng.uniform(1e-4, 0.999)
        depth = cusp_depth(delta)
        assert abs(2 * math.sinh(delta / 2) * math.exp(depth) - 1) < 1e-12


def test_cusp_depth_round_trip():
    rng = seeded("cusp depth round trip")
    for _ in range(200):
        depth = rng.uniform(0, 8)
        delta = max_parabolic_length_at_depth(depth)
        assert 0 < delta < 1
        assert abs(cusp_depth(delta) - depth) < 1e-10
    for _ in range(200):
        delta = rng.uniform(1e-3, 2 * math.asinh(0.5))
        depth = cusp_depth(delta)
        assert depth >= 0
        assert abs(max_parabolic_length_at_depth(depth) - delta) < 1e-10


def test_cusp_depth_monotone():
    rng = seeded("cusp depth monotone")
    for _ in range(500):
        d1, d2 = sorted((rng.uniform(1e-4, 0.999), rng.uniform(1e-4, 0.999)))
        if d1 == d2:
            continue
        assert cusp_depth(d1) > cusp_depth(d2)
        e1, e2 = sorted((rng.uniform(0, 6), rng.uniform(0, 6)))
        if e1 == e2:
            continue
        assert max_parabolic_length_at_depth(e1) > (
            max_parabolic_length_at_depth(e2)
        )


def test_cusp_depth_domain():
    for bad in (0.0, -0.2, 1.0, 1.5):
        with pytest.raises(OutOfRange):
            cusp_depth(bad)
    for bad in (-1e-9, math.nan):
        with pytest.raises(OutOfRange):
            max_parabolic_length_at_depth(bad)
    assert max_parabolic_length_at_depth(0.0) == 2 * math.asinh(0.5)
