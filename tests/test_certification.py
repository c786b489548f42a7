import cmath
import math

import pytest

from loxo.certification import (
    cusp_depth,
    margulis_filter,
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
    float_groups,
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


def reference_simplicity_check(axis, ball):
    """simplicity_check as a scalar loop over every ball word."""
    closest = math.inf
    for word in ball:
        translate = transform_line(word.matrix, axis)
        if same_line(translate, axis):
            continue
        sep = geodesic_separation(translate, axis)
        if sep.distance < INTERSECTION_TOL:
            return ("self_intersecting", word, sep.distance, sep.angle)
        closest = min(closest, sep.distance)
    return ("simple_up_to_bound", closest / 2.0)


# the reference scans every translate, and on the Schottky group the
# half-turn product of a far translate raises NearSingular
@pytest.mark.parametrize(
    "group",
    [
        pytest.param(g, id=name)
        for name, g in reference_groups() + float_groups()
        if name != "schottky"
    ],
)
def test_simplicity_check_matches_scalar_reference(group):
    # axes of the words up to length 2 and of the shortest screw
    for length in range(1, 6):
        ball = enumerate_ball(group, length)
        axes = [
            axis_of(w.matrix)
            for w in ball
            if w.length <= 2
            and classify(w.matrix).kind not in ("parabolic", "identity")
        ]
        screw = shortest_screw(group, length, ball=ball)
        if screw is not None:
            axes.append(screw.axis)
        for axis in axes:
            report = simplicity_check(group, axis, length, ball=ball)
            expected = reference_simplicity_check(axis, ball)
            assert report.verdict == expected[0]
            if report.is_simple:
                assert report.tube_radius_lower == expected[1]
            else:
                assert report.witness is expected[1]
                assert (report.distance, report.angle) == expected[2:]


# ---------------------------------------------------------------------------
# margulis_filter


def test_margulis_filter_keeps_short_entries():
    entries = spectrum(margulis_group(), 4)
    lengths = [e.length for e in entries]
    assert all(abs(l - 0.04 * (k + 1)) < 1e-12 for k, l in enumerate(lengths))
    short = margulis_filter(entries, 0.1)
    assert [e.word.name for e in short] == ["a", "a a"]


def test_margulis_filter_rejects_bad_threshold():
    with pytest.raises(OutOfRange):
        margulis_filter([], 0.0)
    with pytest.raises(OutOfRange):
        margulis_filter([], -0.5)


def test_margulis_short_entries_are_simple():
    group = margulis_group()
    for entry in margulis_filter(spectrum(group, 4), 0.1):
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
    with pytest.raises(OutOfRange):
        max_parabolic_length_at_depth(-1e-9)
    assert max_parabolic_length_at_depth(0.0) == 2 * math.asinh(0.5)
