import math

import pytest

import loxo.enumeration
from loxo.enumeration import (
    GroupPresentation,
    MatrixStore,
    elementary_test,
    enumerate_ball,
    fuchsian_test,
    jorgensen_warnings,
    shortest_screw,
    spectrum,
    thrice_punctured_test,
)
from loxo.errors import BudgetExceeded
from loxo.geometry import circle_through, same_circle, same_line
from loxo.isometry import BoundaryPoint, MoebiusIsometry, classify

from conftest import FIGURE_EIGHT, THRICE_PUNCTURED, seeded


def presentation(pairs):
    labels = [label for label, _ in pairs]
    gens = [m for _, m in pairs]
    return GroupPresentation(gens, labels)


def rotation(angle_half):
    c, s = math.cos(angle_half), math.sin(angle_half)
    return MoebiusIsometry(c, s, -s, c)


REAL_LINE = circle_through(
    BoundaryPoint.from_complex(0),
    BoundaryPoint.from_complex(1),
    BoundaryPoint.infinity(),
)


# ---------------------------------------------------------------------------
# MatrixStore


def test_store_finds_exact_match():
    store = MatrixStore()
    m = MoebiusIsometry(2, 1, 1, 1)
    store.add(m, "m")
    assert store.find(m) == "m"
    assert store.find(MoebiusIsometry(1, 1, 0, 1)) is None


def test_store_probes_across_cell_boundary():
    store = MatrixStore()
    low = MoebiusIsometry(2, 5.0e-7 - 4.9e-10, 0, 0.5)
    high = MoebiusIsometry(2, 5.0e-7 + 4.9e-10, 0, 0.5)
    store.add(high, "edge")
    assert store.find(low) == "edge"


def test_store_respects_merge_tolerance():
    store = MatrixStore()
    store.add(MoebiusIsometry(2, 0, 0, 0.5), "m")
    off = MoebiusIsometry(2, 5e-9, 0, 0.5)
    assert store.find(off) is None


def test_store_matches_opposite_sign():
    store = MatrixStore()
    m = MoebiusIsometry(1j, 2 + 1j, 1, -1j + 0.5)
    store.add(m, "m")
    # same PSL element reached through a different product ordering
    again = MoebiusIsometry(m.a, m.b, m.c, m.d)
    assert store.find(again) == "m"


# ---------------------------------------------------------------------------
# enumerate_ball


def test_ball_counts_free_rank_two():
    group = presentation(THRICE_PUNCTURED)
    sizes = [len(enumerate_ball(group, k)) for k in (1, 2, 3, 4)]
    assert sizes == [4, 16, 52, 160]


def test_ball_merges_inverse_generator():
    group = GroupPresentation(
        [MoebiusIsometry(2, 0, 0, 0.5), MoebiusIsometry(0.5, 0, 0, 2)]
    )
    ball = enumerate_ball(group, 4)
    assert len(ball) == 8
    assert [w.name for w in ball[:4]] == ["a", "a'", "a a", "a' a'"]


def test_ball_is_shortlex_and_prefix_closed():
    group = presentation(THRICE_PUNCTURED)
    ball = enumerate_ball(group, 4)
    keys = [w.sort_key for w in ball]
    assert keys == sorted(keys)
    seen = {w.letters for w in ball}
    for w in ball:
        for cut in range(1, len(w.letters)):
            assert w.letters[:cut] in seen


def test_ball_words_multiply_to_their_matrices():
    group = presentation(FIGURE_EIGHT)
    for word in enumerate_ball(group, 3):
        rebuilt = group.word(word.letters)
        assert rebuilt.matrix.psl_distance(word.matrix) < 1e-12
        assert rebuilt.name == word.name


def test_ball_budget():
    group = presentation(THRICE_PUNCTURED)
    with pytest.raises(BudgetExceeded):
        enumerate_ball(group, 3, cap=10)


def test_word_names_use_prime_for_inverse():
    group = presentation(THRICE_PUNCTURED)
    assert group.word((0, 3, 0)).name == "a b' a"


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_cyclic_group_lengths():
    group = GroupPresentation([MoebiusIsometry(2, 0, 0, 0.5)])
    entries = spectrum(group, 4)
    step = 2 * math.log(2)
    assert [e.word.name for e in entries] == ["a", "a a", "a a a", "a a a a"]
    for k, entry in enumerate(entries, start=1):
        assert entry.kind == "hyperbolic"
        assert abs(entry.length - k * step) < 1e-12
        assert entry.angle == 0.0


def test_spectrum_merges_conjugates_and_inverses():
    group = presentation(THRICE_PUNCTURED)
    entries = spectrum(group, 4)
    shortest = entries[0]
    assert shortest.word.name == "a b"
    assert abs(shortest.length - 2 * math.acosh(3)) < 1e-12
    # one geodesic per pair of cusps shares the bottom length; conjugates
    # and inverses within each class must have been merged away
    ties = [
        e.word.name
        for e in entries
        if abs(e.length - shortest.length) < 1e-7
    ]
    assert ties == ["a b", "a a b'", "a b' b'"]


def test_spectrum_respects_cutoff():
    group = GroupPresentation([MoebiusIsometry(2, 0, 0, 0.5)])
    entries = spectrum(group, 4, length_cutoff=3 * math.log(2) * 2 - 0.1)
    assert len(entries) == 2


def test_spectrum_skips_parabolic_words():
    group = presentation(THRICE_PUNCTURED)
    entries = spectrum(group, 2)
    assert all(e.kind == "hyperbolic" for e in entries)
    names = {e.word.name for e in entries}
    assert "a" not in names and "a a" not in names


# ---------------------------------------------------------------------------
# shortest_screw


def test_shortest_screw_figure_eight():
    group = presentation(FIGURE_EIGHT)
    entry = shortest_screw(group, 2)
    assert entry is not None
    assert entry.word.name == "a b"
    cls = classify(entry.word.matrix)
    assert cls.kind == "screw"
    assert abs(entry.length - cls.length) < 1e-15


def test_shortest_screw_none_for_real_group():
    group = presentation(THRICE_PUNCTURED)
    assert shortest_screw(group, 4) is None


def test_shortest_screw_shrinks_with_radius():
    group = presentation(FIGURE_EIGHT)
    lengths = []
    for radius in (2, 3, 4):
        entry = shortest_screw(group, radius)
        lengths.append(entry.length)
    assert lengths[0] >= lengths[1] >= lengths[2]


# ---------------------------------------------------------------------------
# fuchsian_test


def test_fuchsian_real_group_keeps_real_line():
    group = presentation(THRICE_PUNCTURED)
    result = fuchsian_test(group, 4)
    assert result.verdict == "all_non_screw_with_plane"
    assert same_circle(result.plane, REAL_LINE)


def test_fuchsian_screw_witness_is_first_shortlex():
    group = presentation(FIGURE_EIGHT)
    result = fuchsian_test(group, 2)
    assert result.verdict == "screw_found"
    assert result.witness.name == "a b"


def test_fuchsian_single_axis_is_elementary():
    group = GroupPresentation([MoebiusIsometry(2, 0, 0, 0.5)])
    result = fuchsian_test(group, 4)
    assert result.verdict == "elementary"


def test_fuchsian_conjugated_real_group():
    rng = seeded("fuchsian conjugated")
    from conftest import random_isometry

    g = random_isometry(rng)
    group = GroupPresentation(
        [
            MoebiusIsometry(1, 2, 0, 1).conjugate_by(g),
            MoebiusIsometry(1, 0, 2, 1).conjugate_by(g),
        ]
    )
    result = fuchsian_test(group, 3)
    assert result.verdict == "all_non_screw_with_plane"
    from loxo.geometry import transform_circle

    assert same_circle(result.plane, transform_circle(g, REAL_LINE))


# ---------------------------------------------------------------------------
# elementary_test


def test_elementary_single_hyperbolic():
    group = GroupPresentation([MoebiusIsometry(2, 0, 0, 0.5)])
    result = elementary_test(group)
    assert result.verdict == "limit_points_2"
    assert same_line(
        result.axis,
        __import__("loxo.geometry", fromlist=["axis_of"]).axis_of(
            MoebiusIsometry(2, 0, 0, 0.5)
        ),
    )


def test_elementary_single_parabolic():
    group = GroupPresentation([MoebiusIsometry(1, 1, 0, 1)])
    assert elementary_test(group).verdict == "limit_points_0_or_1"


def test_elementary_two_parabolic_fixed_points_differ():
    group = presentation(THRICE_PUNCTURED)
    assert elementary_test(group).verdict == "non_elementary"


def test_elementary_two_axes():
    group = GroupPresentation(
        [
            MoebiusIsometry(2, 0, 0, 0.5),
            MoebiusIsometry(2, 0, 0, 0.5).conjugate_by(
                MoebiusIsometry(1, 1, 1, 2)
            ),
        ]
    )
    assert elementary_test(group).verdict == "non_elementary"


def test_elementary_rotation_fixing_axis():
    # rotation about (0, infinity) plus translation along it
    group = GroupPresentation(
        [
            MoebiusIsometry(2, 0, 0, 0.5),
            MoebiusIsometry(math.e ** 0.25j, 0, 0, math.e ** -0.25j),
        ]
    )
    result = elementary_test(group)
    assert result.verdict == "limit_points_2"


def test_elementary_rotations_with_crossing_axes():
    # both axes pass through the point at height 1 over the origin
    group = GroupPresentation([rotation(0.4), MoebiusIsometry(0, 1, -1, 0)])
    assert elementary_test(group).verdict == "limit_points_0_or_1"


def test_elementary_rotations_with_separated_axes():
    shifted = rotation(0.4).conjugate_by(MoebiusIsometry(1, 3, 0, 1))
    group = GroupPresentation([rotation(0.4), shifted])
    assert elementary_test(group).verdict == "non_elementary"


def test_elementary_parabolic_against_axis():
    group = GroupPresentation(
        [MoebiusIsometry(2, 0, 0, 0.5), MoebiusIsometry(1, 1, 0, 1)]
    )
    assert elementary_test(group).verdict == "non_elementary"


def test_elementary_common_parabolic_point():
    group = GroupPresentation(
        [MoebiusIsometry(1, 1, 0, 1), MoebiusIsometry(1, 1j, 0, 1)]
    )
    assert elementary_test(group).verdict == "limit_points_0_or_1"


# ---------------------------------------------------------------------------
# thrice_punctured_test and jorgensen_warnings


def test_fuchsian_test_classifies_each_word_once(monkeypatch):
    group = presentation(THRICE_PUNCTURED)
    ball = enumerate_ball(group, 5)
    calls = []

    def counted(m, tol_trace):
        calls.append(m)
        return classify(m, tol_trace)

    monkeypatch.setattr(loxo.enumeration, "classify", counted)
    result = fuchsian_test(group, 5, ball=ball)
    assert result.verdict == "all_non_screw_with_plane"
    # one classification per ball word, plus the product of the chosen pair
    assert len(calls) <= len(ball) + 1


def test_thrice_punctured_fixture_matches():
    group = presentation(THRICE_PUNCTURED)
    evidence = thrice_punctured_test(group, max_word_len=4)
    assert evidence is not None
    assert evidence.first.name == "a"
    assert evidence.second.name == "b'"
    assert same_circle(evidence.plane, REAL_LINE)


def test_thrice_punctured_rejects_screw_group():
    group = presentation(FIGURE_EIGHT)
    assert thrice_punctured_test(group, max_word_len=2) is None


def test_thrice_punctured_needs_rank_two():
    group = GroupPresentation([MoebiusIsometry(1, 1, 0, 1)])
    assert thrice_punctured_test(group) is None


def test_thrice_punctured_needs_parabolic_pair():
    # real hyperbolic pair keeps a plane but has no parabolic pair
    group = GroupPresentation(
        [
            MoebiusIsometry(2, 0, 0, 0.5),
            MoebiusIsometry(2, 0, 0, 0.5).conjugate_by(
                MoebiusIsometry(1, 1, 1, 2)
            ),
        ]
    )
    assert thrice_punctured_test(group, max_word_len=3) is None


def test_jorgensen_quiet_on_fixture():
    group = presentation(THRICE_PUNCTURED)
    assert jorgensen_warnings(group) == []


def test_jorgensen_flags_two_small_rotations():
    near = rotation(0.05).conjugate_by(MoebiusIsometry(1, 0.1, 0, 1))
    group = GroupPresentation([rotation(0.05), near])
    warnings = jorgensen_warnings(group)
    assert len(warnings) == 1
    assert "a, b" in warnings[0]
