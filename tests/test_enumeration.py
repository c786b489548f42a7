import cmath
import itertools
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

import loxo.enumeration
import loxo.halfturn
from loxo.enumeration import (
    MERGE_TOL,
    FuchsianResult,
    GroupPresentation,
    MatrixStore,
    SpectrumEntry,
    elementary_test,
    enumerate_ball,
    fuchsian_test,
    jorgensen_warnings,
    shortest,
    shortest_screw,
    spectrum,
    thrice_punctured_test,
)
from loxo.certification import simplicity_check
from loxo.errors import BudgetExceeded, NearSingular
from loxo.geometry import (
    PLANE_TOL,
    axis_of,
    circle_json,
    circle_through,
    halfturn_matrix,
    line_json,
    preserves_circle,
    same_circle,
    same_line,
)
from loxo.halfturn import invariant_plane
from loxo.isometry import (
    TOL_TRACE,
    BoundaryPoint,
    MoebiusIsometry,
    classify,
    complex_length,
    same_point,
)
from loxo.pipeline import entry_json, load_group_file

from conftest import (
    FIGURE_EIGHT,
    THRICE_PUNCTURED,
    bits,
    float_groups,
    random_isometry,
    reference_groups,
    scalar_products,
    seeded,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
REFERENCE_GROUPS = [
    pytest.param(group, id=name) for name, group in reference_groups()
]
FLOAT_GROUPS = [pytest.param(group, id=name) for name, group in float_groups()]


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


def matrix_rows(*matrices):
    return np.array([(m.a, m.b, m.c, m.d) for m in matrices], dtype=complex)


def test_store_finds_exact_match():
    store = MatrixStore()
    m = MoebiusIsometry(2, 1, 1, 1)
    assert store.add_rows(matrix_rows(m)).tolist() == [0]
    assert store.find(m) == 0
    assert store.find(MoebiusIsometry(1, 1, 0, 1)) is None


def test_store_finds_rows_within_merge_tolerance():
    store = MatrixStore()
    low = MoebiusIsometry(2, 5.0e-7 - 4.9e-10, 0, 0.5)
    high = MoebiusIsometry(2, 5.0e-7 + 4.9e-10, 0, 0.5)
    store.add_rows(matrix_rows(high))
    assert store.find(low) == 0
    assert store.add_rows(matrix_rows(low)).tolist() == []


def test_store_respects_merge_tolerance():
    store = MatrixStore()
    store.add_rows(matrix_rows(MoebiusIsometry(2, 0, 0, 0.5)))
    off = MoebiusIsometry(2, 5e-9, 0, 0.5)
    assert store.find(off) is None
    assert store.add_rows(matrix_rows(off)).tolist() == [0]
    assert store.find(off) == 1


def test_store_matches_opposite_sign():
    store = MatrixStore()
    m = MoebiusIsometry(1j, 2 + 1j, 1, -1j + 0.5)
    store.add_rows(matrix_rows(m))
    # same PSL element reached through a different product ordering
    again = MoebiusIsometry(m.a, m.b, m.c, m.d)
    assert store.find(again) == 0
    assert store.add_rows(-matrix_rows(m)).tolist() == []


def test_store_window_comes_from_the_probe(psl_distance_calls):
    # a stored row of 1e13 widens no lookup of a small probe: with a window
    # from the largest coordinate ever stored this probe confirmed 217 rows
    rng = np.random.default_rng(0)
    store = MatrixStore()
    store.add_rows(
        rng.uniform(-3, 3, (1000, 4)) + 1j * rng.uniform(-3, 3, (1000, 4))
    )
    large = MoebiusIsometry(1e13, 0, 0, 1e-13)
    store.add_rows(matrix_rows(large))
    psl_distance_calls[0] = 0
    assert store.find(MoebiusIsometry(1, 0.5, 0, 1)) is None
    assert psl_distance_calls[0] == 0
    assert store.find(large) == 1000


def bare_isometry(row):
    """The entries of row as they stand, not rescaled or re-signed."""
    m = object.__new__(MoebiusIsometry)
    m.a, m.b, m.c, m.d = (complex(x) for x in row)
    return m


def brute_force_keep(rows):
    """Indices add_rows must keep: a row goes unless psl_distance puts it
    within MERGE_TOL of an earlier kept row."""
    kept = []
    for i, row in enumerate(rows):
        m = bare_isometry(row)
        if not any(
            m.psl_distance(bare_isometry(rows[j])) <= MERGE_TOL for j in kept
        ):
            kept.append(i)
    return kept


def planted_rows(rng):
    """Random rows with planted pairs within MERGE_TOL, pairs 2 MERGE_TOL
    apart, pairs within a few ulps of MERGE_TOL on either side, chains of
    rows 0.8 MERGE_TOL apart, sign flips, repeated integer rows and entries
    near 1e13."""
    def random_rows(n, scale=1.0):
        return (rng.uniform(-scale, scale, (n, 4))
                + 1j * rng.uniform(-scale, scale, (n, 4)))

    base = random_rows(50, 3.0)
    # each coordinate off by under 0.7 MERGE_TOL: within MERGE_TOL entrywise
    near = base[:20] + random_rows(20, 0.7 * MERGE_TOL)
    apart = base[20:30].copy()
    apart[:, 1] += 2 * MERGE_TOL
    # b entries 0 and MERGE_TOL (1 + k eps): psl_distance is exactly that
    edge = np.repeat(base[30:40], 2, axis=0)
    edge[:, 1] = 0.0
    edge[1::2, 1] = MERGE_TOL * (1.0 + np.arange(-5, 5) * np.finfo(float).eps)
    # a row merges only with a kept row: the ends of a chain are 1.6
    # MERGE_TOL apart, so whether both stay depends on the order
    chains = np.concatenate([base[40:50] + k * 0.8 * MERGE_TOL for k in (1, 2)])
    flipped = -np.concatenate((base[:10], near[10:]))
    pool = rng.integers(-3, 4, (6, 4)) + 1j * rng.integers(-1, 2, (6, 4))
    integers = np.concatenate((pool[rng.integers(0, 6, 30)], -pool[:3]))
    large = 1e13 * base[:10]
    large = np.concatenate((
        large,
        large[:5] + random_rows(5, 0.7 * MERGE_TOL),
        # one ulp up, far beyond MERGE_TOL at this size
        np.nextafter(large[5:].view(np.float64), np.inf).view(complex),
    ))
    rows = np.concatenate(
        (base, near, apart, edge, chains, flipped, integers, large)
    )
    return rows[rng.permutation(len(rows))]


def test_store_keeps_what_an_all_pairs_scan_keeps(monkeypatch):
    scalar_calls = [0]
    psl_distance = MoebiusIsometry.psl_distance

    def counted(m, other):
        scalar_calls[0] += 1
        return psl_distance(m, other)

    for seed in range(4):
        rows = planted_rows(np.random.default_rng(seed))
        expected = brute_force_keep(rows)
        assert len(expected) < len(rows)
        store = MatrixStore()
        kept = []
        monkeypatch.setattr(MoebiusIsometry, "psl_distance", counted)
        for start, stop in ((0, 50), (50, 51), (51, 120), (120, len(rows))):
            kept += (start + store.add_rows(rows[start:stop])).tolist()
        monkeypatch.undo()
        assert kept == expected
        for row in rows:
            m = bare_isometry(row)
            found = store.find(m)
            assert m.psl_distance(bare_isometry(rows[kept[found]])) <= MERGE_TOL
    # the pairs planted at MERGE_TOL are decided by the scalar psl_distance
    assert scalar_calls[0] > 0


def test_store_index_stays_sorted_and_whole():
    # a key is the one its row got in its own batch: the BLAS projection of
    # one row may differ in the last bit from batch to batch
    for seed in range(4):
        rows = planted_rows(np.random.default_rng(seed))
        store = MatrixStore()
        row_keys = np.empty(0)
        for start, stop in ((0, 50), (50, 51), (51, 120), (120, len(rows))):
            kept = store.add_rows(rows[start:stop])
            row_keys = np.concatenate(
                (row_keys, loxo.enumeration._keys(rows[start:stop])[kept])
            )
            keys = store._keys
            assert not (np.diff(keys) < 0).any()
            assert sorted(store._numbers.tolist()) == list(range(len(store.rows)))
            assert bits(keys) == bits(row_keys[store._numbers])
            for row in store.rows:
                m = bare_isometry(row)
                found = store.find(m)
                assert found is not None
                assert m.psl_distance(bare_isometry(store.rows[found])) <= (
                    MERGE_TOL
                )


def test_store_adds_an_empty_batch_and_one_copy_of_a_signed_row():
    store = MatrixStore()
    store.add_rows(planted_rows(np.random.default_rng(0))[:40])

    def state():
        return bits(store.rows), bits(store._keys), store._numbers.tolist()

    before = state()
    assert store.add_rows(np.empty((0, 4), dtype=complex)).tolist() == []
    assert state() == before
    n = len(store.rows)
    row = matrix_rows(MoebiusIsometry(1j, 2 + 1j, 1, -1j + 0.5))
    assert store.add_rows(np.concatenate((row, -row, row, -row))).tolist() == [0]
    assert len(store.rows) == n + 1
    assert store.add_rows(np.concatenate((-row, row))).tolist() == []
    assert store.find(bare_isometry(-row[0])) == n


def test_store_raises_only_on_rows_that_are_not_finite():
    # the entries' projections overflow, but every row is finite
    big = np.array([(1.0, 1e308, 1e308, 1.0)] * 2, dtype=complex)
    store = MatrixStore()
    with np.errstate(over="ignore", invalid="ignore"):
        assert store.add_rows(big).tolist() == [0]
    assert (store.rows == big[:1]).all()
    rows = np.array(
        [(1.0, 0.0, 0.0, 1.0), (complex(math.inf, 0.0), 0.0, 0.0, 1.0)]
    )
    with pytest.raises(NearSingular, match=r"entries \(\(inf\+0j\)"):
        store.add_rows(rows)
    assert len(store.rows) == 1


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


def exact_level_counts(generators, max_word_len):
    """Per-level ball sizes in exact arithmetic over Z[omega].

    An entry x + y omega, omega = exp(i pi / 3), is the pair (x, y); since
    omega^2 = omega - 1, products stay integer pairs.  Elements are merged
    up to sign, words walked in shortlex order with free reduction, as in
    enumerate_ball.
    """

    def product(m, n):
        # m, n are flat (x, y) pairs of a, b, c, d
        out = []
        for i, j, k, l in ((0, 0, 2, 4), (0, 2, 2, 6), (4, 0, 6, 4), (4, 2, 6, 6)):
            x1, y1, x2, y2 = m[i], m[i + 1], n[j], n[j + 1]
            x3, y3, x4, y4 = m[k], m[k + 1], n[l], n[l + 1]
            out.append(x1 * x2 - y1 * y2 + x3 * x4 - y3 * y4)
            out.append(x1 * y2 + y1 * x2 + y1 * y2 + x3 * y4 + y3 * x4 + y3 * y4)
        return tuple(out)

    def key(m):
        return max(m, tuple(-v for v in m))

    letters = []
    for a, b, c, d in generators:
        neg_b, neg_c = (-b[0], -b[1]), (-c[0], -c[1])
        letters += [a + b + c + d, d + neg_b + neg_c + a]
    identity = (1, 0, 0, 0, 0, 0, 1, 0)
    seen = {key(identity)}
    frontier = [(None, identity)]
    counts = []
    for _ in range(max_word_len):
        level = []
        for last, m in frontier:
            for letter, n in enumerate(letters):
                if last is not None and letter == last ^ 1:
                    continue
                p = product(m, n)
                k = key(p)
                if k not in seen:
                    seen.add(k)
                    level.append((letter, p))
        counts.append(len(level))
        frontier = level
    return counts


def level_counts(ball, max_word_len):
    counts = [0] * max_word_len
    for word in ball:
        counts[word.length - 1] += 1
    return counts


def test_ball_counts_match_exact_arithmetic():
    one, zero = (1, 0), (0, 0)
    figure_eight = [(one, one, zero, one), (one, zero, (0, -1), one)]
    thrice = [(one, (2, 0), zero, one), (one, zero, (2, 0), one)]
    exact = {
        "figure_eight": exact_level_counts(figure_eight, 9),
        "thrice_punctured": exact_level_counts(thrice, 9),
    }
    assert exact["figure_eight"] == [
        4, 12, 36, 108, 314, 900, 2580, 7396, 21188
    ]
    assert exact["thrice_punctured"] == [4 * 3 ** (k - 1) for k in range(1, 10)]
    for name, counts in exact.items():
        group, _ = load_group_file(os.path.join(FIXTURES, name + ".json"))
        assert level_counts(enumerate_ball(group, 9), 9) == counts


# a float group of rank 3, whose six letters give the product kernel a
# letter axis longer than four
def rank_3_group():
    rng = seeded("rank 3 ball")
    return GroupPresentation([random_isometry(rng, 1.5) for _ in range(3)])


RANK_3_GROUP = pytest.param(rank_3_group(), id="rank_3")


@pytest.mark.parametrize(
    "group", REFERENCE_GROUPS[:4] + FLOAT_GROUPS + [RANK_3_GROUP]
)
def test_ball_entries_equal_word_products_bitwise(group):
    ball = enumerate_ball(group, 5)
    assert ball.entries.shape == (len(ball), 4)
    identity = MoebiusIsometry.identity()
    letters = [
        (m.a, m.b, m.c, m.d)
        for m in map(group.letter_matrix, range(2 * group.rank))
    ]
    for word, row in zip(ball, ball.entries):
        m = group.word(word.letters).matrix
        expected = bits([m.a, m.b, m.c, m.d])
        assert bits([word.matrix.a, word.matrix.b, word.matrix.c, word.matrix.d]) == expected
        # the row is the product as computed from the identity, unsigned
        product = (identity.a, identity.b, identity.c, identity.d)
        for letter in word.letters:
            (product,) = scalar_products([product], [letters[letter]])
        assert bits(row) == bits(product)


def psl2z_conjugate():
    """PSL(2, Z) on <z -> -1/z, z -> z + 1>, conjugated by the seeded
    isometry of random.Random(5)."""
    g = random_isometry(random.Random(5))
    return GroupPresentation([
        MoebiusIsometry(0, -1, 1, 0).conjugate_by(g),
        MoebiusIsometry(1, 1, 0, 1).conjugate_by(g),
    ])


def _sign_even_groups():
    groups = dict(reference_groups() + float_groups())
    groups["psl2z conjugate"] = psl2z_conjugate()
    names = (
        "figure_eight",
        "torus",
        "torus conjugate",
        "thrice_punctured",
        "psl2z conjugate",
    )
    return [pytest.param(groups[name], id=name) for name in names]


def _up_to_zero_sign(value):
    """value with -0.0 read as 0.0 in every float it holds."""
    if isinstance(value, dict):
        return {k: _up_to_zero_sign(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_up_to_zero_sign(v) for v in value]
    if isinstance(value, float):
        return value + 0.0
    return value


@pytest.mark.parametrize("group", _sign_even_groups())
def test_ball_results_are_even_in_the_sign_of_each_row(group, monkeypatch):
    # a ball row is a product up to sign: negating any rows changes no
    # kernel's result, bit for bit up to the sign of a zero (_signed takes
    # the sign as the interpreter multiplies a float by a complex, whose
    # 0 * Im term can give r and -r zero parts of other signs)
    ball = enumerate_ball(group, 6)
    entries = ball.entries.copy()
    flip = np.random.default_rng(6).random(len(entries)) < 0.5
    entries[flip] = -entries[flip]
    flipped = loxo.enumeration.Ball(
        entries, ball.parents, ball.letters, ball._labels
    )

    def entry(e):
        return None if e is None else entry_json(e)

    def results(b):
        out = [b.trace_kinds(TOL_TRACE).tolist()]
        for kinds in (("elliptic",), ("hyperbolic",), ("screw",)):
            out.append(entry(shortest(b, kinds, TOL_TRACE)))
        fuchsian = fuchsian_test(group, 6, ball=b)
        out.append((
            fuchsian.verdict,
            fuchsian.witness and fuchsian.witness.name,
            fuchsian.plane and circle_json(fuchsian.plane),
        ))
        for kinds in (("hyperbolic",), ("screw",)):
            e = shortest(ball, kinds, TOL_TRACE)
            if e is not None:
                report = simplicity_check(group, e.axis, 6, ball=b)
                out.append((
                    report.verdict,
                    report.witness and report.witness.name,
                    report.distance,
                    report.angle,
                    report.tube_radius_lower,
                ))
        monkeypatch.setattr(
            loxo.enumeration, "enumerate_ball", lambda group, length: b
        )
        out.append([entry(e) for e in spectrum(group, 6)])
        return repr(_up_to_zero_sign(out))

    assert results(flipped) == results(ball)


def test_ball_near_singular_product_raises():
    # entries near 20^7 make the determinant of a length-7 product, taken
    # from its entries, cancel to 0; products are taken as computed, so
    # the ball holds the exact integer products and builds
    group = GroupPresentation(
        [MoebiusIsometry(19, 2, 9, 1), MoebiusIsometry(1, 0, 3, 1)]
    )
    for length in (7, 8):
        ball = enumerate_ball(group, length)
        assert (ball.entries == np.round(ball.entries.real)).all()
        entry = shortest(ball, ("hyperbolic",), TOL_TRACE)
        assert entry.word.name == "a b' b' b' b'"
        assert entry.length == pytest.approx(2 * math.acosh(2), rel=1e-12)


def test_ball_non_finite_product_raises():
    # entries of 1e100 overflow to inf and nan in products of length 4
    group = GroupPresentation(
        [MoebiusIsometry(1e100, 0, 0, 1e-100), MoebiusIsometry(1, 1e100, 0, 1)]
    )
    assert np.isfinite(enumerate_ball(group, 3).entries).all()
    with pytest.raises(NearSingular, match="not finite"):
        enumerate_ball(group, 4)


def test_ball_budget(monkeypatch):
    monkeypatch.setattr(loxo.enumeration, "DEFAULT_CAP", 10)
    group = presentation(THRICE_PUNCTURED)
    with pytest.raises(BudgetExceeded, match="exceeds 10 elements"):
        enumerate_ball(group, 3)


@pytest.mark.parametrize("name", ["torus", "figure_eight"])
def test_ball_temporaries_peak_below_two_and_a_half_balls(name):
    # a level's products, candidates and merge index are freed before the
    # next level: the traced peak, numpy's buffers included, stays within
    # 2.5 times what the finished ball holds
    group = dict(reference_groups())[name]
    enumerate_ball(group, 8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        # the ball is held while its size is read
        ball = enumerate_ball(group, 8)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del ball
    assert peak - base <= 2.5 * (size - base)


@pytest.fixture
def built_words(monkeypatch):
    """Count the GroupWords that loxo.enumeration constructs."""
    count = [0]

    class CountedWord(loxo.enumeration.GroupWord):
        __slots__ = ()

        def __init__(self, *args):
            count[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(loxo.enumeration, "GroupWord", CountedWord)
    return count


def test_enumerate_ball_builds_no_words(built_words):
    ball = enumerate_ball(presentation(FIGURE_EIGHT), 6)
    assert len(ball) == 4 + 12 + 36 + 108 + 314 + 900
    assert built_words[0] == 0
    ball[-1]
    assert built_words[0] == 6


def test_ball_words_are_built_once():
    ball = enumerate_ball(presentation(FIGURE_EIGHT), 4)
    n = len(ball)
    assert ball[n - 1] is ball[-1] is ball[n - 1]
    assert ball[7] is ball[7 - n]
    words = list(ball)
    assert len(words) == n
    assert all(ball[i] is word for i, word in enumerate(words))
    assert list(ball) == words
    assert ball[3:40:5] == words[3:40:5]
    assert ball[::-1] == words[::-1]
    assert ball[n:] == []
    assert words[-1] in ball
    # words compare by identity: an equal copy is not in the ball
    copy = loxo.enumeration.GroupWord(words[0].letters, words[0].name, words[0].matrix)
    assert copy not in ball
    with pytest.raises(IndexError):
        ball[n]
    with pytest.raises(IndexError):
        ball[-n - 1]


def test_ball_parents_and_letters_spell_every_word():
    ball = enumerate_ball(presentation(THRICE_PUNCTURED), 5)
    parents, letters = ball.parents.tolist(), ball.letters.tolist()
    spelled = []
    for i in range(len(ball)):
        word = []
        while i >= 0:
            word.append(letters[i])
            i = parents[i]
        spelled.append(tuple(reversed(word)))
    assert spelled == [w.letters for w in ball]
    assert all(p < i for i, p in enumerate(parents))


TORUS = (
    ("a", MoebiusIsometry(1, 1, 1, 2)),
    ("b", MoebiusIsometry(1, -1, -1, 2)),
)


@pytest.mark.parametrize(
    "pairs, simple",
    [(THRICE_PUNCTURED, False), (TORUS, True)],
    ids=["thrice_punctured", "torus"],
)
def test_ball_kernels_build_few_words(pairs, simple, built_words):
    group = presentation(pairs)
    ball = enumerate_ball(group, 8)
    axis = axis_of(group.word((0, 2)).matrix)  # the axis of a b
    built_words[0] = 0
    assert shortest_screw(group, 8, ball=ball) is None
    assert fuchsian_test(group, 8, ball=ball).verdict == "all_non_screw_with_plane"
    report = simplicity_check(group, axis, 8, ball=ball)
    assert report.is_simple == simple
    if not simple:
        assert report.witness is ball[0]
    assert 0 < built_words[0] <= 24


def test_word_names_use_prime_for_inverse():
    group = presentation(THRICE_PUNCTURED)
    assert group.word((0, 3, 0)).name == "a b' a"


@pytest.mark.parametrize(
    "labels",
    [("a'", "a"), ("x y", "b"), ("", "b"), (1, "b")],
    ids=["prime", "space", "empty", "not a string"],
)
def test_presentation_rejects_labels_words_cannot_spell(labels):
    # with the labels a' and a, the words a' and a'' would both read "a'"
    with pytest.raises(ValueError, match="no whitespace and no"):
        GroupPresentation([m for _, m in THRICE_PUNCTURED], labels)


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


def test_spectrum_large_entry_group_returns():
    # ball words reach entries near 2e4, so the determinant of a translate
    # w h w^-1 computed from its entries cancels to zero; the orbit test
    # must not take a determinant
    group = GroupPresentation(
        [
            MoebiusIsometry(-1.5, -7.75, 1, 4.5),
            MoebiusIsometry(4.5, -7.75, 1, -1.5),
        ]
    )
    entries = spectrum(group, 5)
    assert entries[0].word.name == "a"
    assert abs(entries[0].length - 2 * math.acosh(1.5)) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="11 conjugates of a and b, such as a a b a' a' and a b a b' a', "
    "have half-turns more than MERGE_TOL from the kept entry's "
    "ball-translates in floating point (8e-8 for a a b a' a', whose "
    "translate has entries near 1.4e3); an exact cyclic-word class key "
    "(ROADMAP item 7) mends it",
)
def test_spectrum_lists_each_class_once():
    # the Schottky group of the test above: a and b are the only classes
    # of length 2 arccosh 1.5 in its length-5 ball
    group = GroupPresentation(
        [
            MoebiusIsometry(-1.5, -7.75, 1, 4.5),
            MoebiusIsometry(4.5, -7.75, 1, -1.5),
        ]
    )
    bottom = 2 * math.acosh(1.5)
    entries = spectrum(group, 5)
    assert [
        e.word.name for e in entries if abs(e.length - bottom) < 1e-9
    ] == ["a", "b"]


def reference_spectrum(group, max_word_len):
    """Spectrum deduplicated by brute force, sharing no code with
    MatrixStore.

    A candidate merges into a kept entry of equal complex length when its
    half-turn lies within psl_distance MERGE_TOL of h or of some
    w h w^-1, h the kept entry's half-turn and w a ball word.
    """
    ball = enumerate_ball(group, max_word_len)
    candidates = []
    for word in ball:
        kind = classify(word.matrix)
        if kind in ("identity", "parabolic"):
            continue
        cl = complex_length(word.matrix)
        if cl.length > 12.0:
            continue
        candidates.append(
            SpectrumEntry(word, kind, cl.length, cl.angle, axis_of(word.matrix))
        )
    candidates.sort(key=lambda e: (e.length, e.angle, e.word.sort_key))
    kept = []
    for entry in candidates:
        h = halfturn_matrix(entry.axis)
        if not any(
            abs(entry.length - rep.length) <= 1e-7
            and abs(entry.angle - rep.angle) <= 1e-7
            and any(h.psl_distance(g) <= MERGE_TOL for g in translates)
            for rep, translates in kept
        ):
            translates = [h] + [w.matrix * h * w.matrix.inverse() for w in ball]
            kept.append((entry, translates))
    return [entry for entry, _ in kept]


def spectrum_rows(entries):
    return [
        (e.word.name, e.kind, e.length, e.angle, line_json(e.axis))
        for e in entries
    ]


@pytest.mark.parametrize("group", REFERENCE_GROUPS)
def test_spectrum_matches_store_reference(group):
    for length in range(1, 6):
        assert spectrum_rows(spectrum(group, length)) == spectrum_rows(
            reference_spectrum(group, length)
        )


def eager_spectrum(ball, length_cutoff=12.0):
    """The spectrum as a list built up front: every ball word classified,
    the candidates sorted, then each kept entry's translate orbit built
    and probed by every later candidate of equal complex length."""
    candidates = []
    for word in ball:
        kind = classify(word.matrix)
        if kind in ("identity", "parabolic"):
            continue
        cl = complex_length(word.matrix)
        if cl.length > length_cutoff:
            continue
        candidates.append(
            SpectrumEntry(word, kind, cl.length, cl.angle, axis_of(word.matrix))
        )
    candidates.sort(key=lambda e: (e.length, e.angle, e.word.sort_key))
    kept = []
    for entry in candidates:
        h = halfturn_matrix(entry.axis)
        if not any(
            abs(entry.length - rep.length) <= 1e-7
            and abs(entry.angle - rep.angle) <= 1e-7
            and orbit.find(h) is not None
            for rep, orbit in kept
        ):
            kept.append(
                (entry, loxo.enumeration._translate_orbit(h, ball.entries))
            )
    return [entry for entry, _ in kept]


def stream_groups():
    """The reference groups, two seeded conjugates, a Schottky group
    whose ball entries reach 2e4, and the modular group, whose spectrum
    holds elliptic entries."""
    groups = reference_groups()
    rng = seeded("geodesic stream conjugates")
    for name, group in list(groups):
        if name in ("figure_eight", "torus"):
            g = random_isometry(rng)
            groups.append((
                name + "_conjugate",
                GroupPresentation([m.conjugate_by(g) for m in group.generators]),
            ))
    groups.append((
        "schottky",
        GroupPresentation(
            [
                MoebiusIsometry(-1.5, -7.75, 1, 4.5),
                MoebiusIsometry(4.5, -7.75, 1, -1.5),
            ]
        ),
    ))
    groups.append((
        "modular",
        GroupPresentation(
            [MoebiusIsometry(0, -1, 1, 0), MoebiusIsometry(1, 1, 0, 1)]
        ),
    ))
    return groups


@pytest.mark.parametrize(
    "group", [pytest.param(group, id=name) for name, group in stream_groups()]
)
def test_geodesics_match_eager_reference(group):
    for length in range(1, 7):
        ball = enumerate_ball(group, length)
        assert spectrum_rows(spectrum(group, length)) == spectrum_rows(
            eager_spectrum(ball)
        )


@pytest.fixture
def length_traces(monkeypatch):
    """The trace bits of each complex_length call made in
    loxo.enumeration from here on."""
    traces = []

    def recorded(m, tol_trace):
        traces.append(tuple(bits([m.trace])))
        return complex_length(m, tol_trace)

    monkeypatch.setattr(loxo.enumeration, "complex_length", recorded)
    return traces


def test_geodesics_take_one_complex_length_per_trace(length_traces):
    # the words of torus's length-6 ball within the window of its least
    # key all have the trace of a
    group = dict(reference_groups())["torus"]
    entry = shortest(enumerate_ball(group, 6), ("hyperbolic",), TOL_TRACE)
    assert entry.word.name == "a"
    assert len(length_traces) == 1


def test_geodesics_keep_lengths_equal_to_the_cutoff():
    group = dict(reference_groups())["torus"]
    ball = enumerate_ball(group, 6)
    # 2 arccosh 1.5, the length of a, b and a b
    cutoff = complex_length(group.generators[0]).length
    entries = spectrum(group, 6, cutoff)
    assert [e.word.name for e in entries] == ["a", "b", "a b"]
    assert spectrum_rows(entries) == spectrum_rows(eager_spectrum(ball, cutoff))
    below = float(np.nextafter(cutoff, 0.0))
    assert spectrum(group, 6, below) == []
    # cosh(cutoff / 2) overflows: the window holds every word
    assert spectrum_rows(spectrum(group, 6, 2000.0)) == spectrum_rows(
        eager_spectrum(ball, 2000.0)
    )


# ---------------------------------------------------------------------------
# _trace_kinds


def test_ball_trace_kinds_are_screened_once_and_read_only():
    ball = enumerate_ball(presentation(FIGURE_EIGHT), 4)
    kinds = ball.trace_kinds(TOL_TRACE)
    assert ball.trace_kinds(TOL_TRACE) is kinds
    assert kinds.dtype == np.int8
    assert not kinds.flags.writeable
    expected = loxo.enumeration._trace_kinds(ball.entries, TOL_TRACE)
    assert kinds.tolist() == expected.tolist()
    assert ball.trace_kinds(1e-6) is not kinds


@pytest.mark.parametrize("group", REFERENCE_GROUPS + FLOAT_GROUPS)
def test_trace_kinds_agree_with_classify(group):
    entries = enumerate_ball(group, 6).entries
    kinds = loxo.enumeration._trace_kinds(entries, TOL_TRACE)
    decided = np.flatnonzero(kinds != loxo.enumeration._UNDECIDED)
    assert len(decided) > 0.9 * len(entries)
    for i in decided.tolist():
        kind = classify(bare_isometry(entries[i]), TOL_TRACE)
        assert loxo.enumeration._KINDS[kinds[i]] == kind


def reference_trace_kinds(entries, tol_trace):
    """_trace_kinds with classify's five tests run on every row, in order."""
    a, b, c, d = entries.T
    t = a + d
    off = np.maximum(np.abs(b), np.abs(c))
    identity = np.minimum(
        np.maximum(np.maximum(np.abs(a - 1.0), np.abs(d - 1.0)), off),
        np.maximum(np.maximum(np.abs(a + 1.0), np.abs(d + 1.0)), off),
    )
    parabolic = np.minimum(np.abs(t - 2.0), np.abs(t + 2.0))
    imag = np.abs(t.imag)
    real = np.abs(t.real)
    kinds = np.full(len(entries), loxo.enumeration._UNDECIDED, dtype=np.int8)
    undecided = np.isfinite(entries).all(axis=1)
    for q, threshold, passed, kind in (
        (identity, tol_trace, identity <= tol_trace, "identity"),
        (parabolic, tol_trace, parabolic <= tol_trace, "parabolic"),
        (imag, tol_trace, imag > tol_trace, "screw"),
        (real, 2.0, real > 2.0, "hyperbolic"),
        (real, 2.0 - tol_trace, real < 2.0 - tol_trace, "elliptic"),
    ):
        clear = np.abs(q - threshold) > 1e-12
        kinds[undecided & clear & passed] = loxo.enumeration._KINDS.index(kind)
        undecided &= clear & ~passed
    return kinds


SCREEN_TOLERANCES = [0.0, 1e-9, 1e-6, 1e-3]


@pytest.mark.parametrize("group", REFERENCE_GROUPS + FLOAT_GROUPS)
def test_trace_kinds_match_the_five_test_reference(group):
    entries = enumerate_ball(group, 6).entries
    for tol_trace in SCREEN_TOLERANCES:
        kinds = loxo.enumeration._trace_kinds(entries, tol_trace)
        expected = reference_trace_kinds(entries, tol_trace)
        assert kinds.dtype == expected.dtype
        assert kinds.tolist() == expected.tolist()


def adversarial_rows(rng, tol_trace):
    """Rows at the edges of the screen's tests: +-identity within 1e-9,
    +-identity at a distance within 1e-12 of tol along the real axis (so
    that the trace lies near +-(2 + 2 tol)), traces within 1e-12 of +-2,
    of +-(2 - tol) and of |Im| = tol, and rows with a non-finite entry."""
    def near(x, scale):
        return x + complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))

    def with_trace(trace):
        a = near(0.0, 3.0)
        return [a, near(0.0, 3.0), near(0.0, 3.0), trace - a]

    rows = []
    for _ in range(200):
        sign = rng.choice([1.0, -1.0])
        small = rng.choice([1e-9, tol_trace, tol_trace + 1e-12, 1e-12])
        rows.append([
            near(sign, small), near(0.0, small), near(0.0, small),
            near(sign, small),
        ])
        rows.append([
            sign * (1.0 + tol_trace + rng.uniform(-1e-12, 1e-12)), 0j, 0j,
            sign * (1.0 + tol_trace + rng.uniform(-1e-12, 1e-12)),
        ])
        for target in (2.0, 2.0 - tol_trace):
            edge = rng.choice([1.0, -1.0]) * target
            rows.append(with_trace(near(edge, 1e-12)))
            rows.append(with_trace(complex(edge, rng.uniform(-1e-12, 1e-12))))
        x = rng.uniform(-3.0, 3.0)
        im = rng.choice([1.0, -1.0]) * tol_trace
        rows.append(with_trace(complex(x, im + rng.uniform(-1e-12, 1e-12))))
        rows.append(with_trace(complex(x, im)))
        row = with_trace(near(2.0, 1e-12))
        row[rng.randrange(4)] = rng.choice([
            complex(math.inf, 0.0), complex(0.0, -math.inf),
            complex(math.nan, 1.0), complex(1.0, math.nan),
        ])
        rows.append(row)
    return np.array(rows, dtype=complex)


def test_trace_kinds_match_the_five_test_reference_on_adversarial_rows():
    rng = seeded("trace screen edges")
    codes = set()
    with np.errstate(invalid="ignore"):
        for tol_trace in SCREEN_TOLERANCES:
            entries = adversarial_rows(rng, tol_trace)
            kinds = loxo.enumeration._trace_kinds(entries, tol_trace)
            expected = reference_trace_kinds(entries, tol_trace)
            assert kinds.tolist() == expected.tolist()
            codes.update(expected.tolist())
    # every kind and the undecided code occur among these rows
    assert codes == set(range(6))


@pytest.mark.parametrize("name", ["figure_eight", "funnel", "torus"])
def test_ball_kernels_keep_the_screen_kinds(monkeypatch, name):
    # every row of these balls is decided by the screen, so the kernels
    # give their results without the scalar classify
    group = dict(reference_groups())[name]
    ball = enumerate_ball(group, 6)
    kinds = ball.trace_kinds(TOL_TRACE)
    assert not (kinds == loxo.enumeration._UNDECIDED).any()

    def run():
        entries = spectrum(group, 6)
        screw = shortest_screw(group, 6, ball=ball)
        fuch = fuchsian_test(group, 6, ball=ball)
        return (
            [(e.word.name, e.kind, e.length, e.angle) for e in entries],
            screw and (screw.word.name, screw.length, screw.angle),
            fuch.verdict,
            fuch.plane and (fuch.plane.a, fuch.plane.b, fuch.plane.c),
        )

    expected = run()

    def refused(m, tol_trace):
        raise AssertionError("classify ran on a row the screen decided")

    monkeypatch.setattr(loxo.enumeration, "classify", refused)
    assert run() == expected
    assert expected[0]


@pytest.mark.parametrize("group", REFERENCE_GROUPS + FLOAT_GROUPS)
def test_ball_trace_kinds_resolve_undecided_rows_for_the_kernels(
    monkeypatch, group
):
    # a screen that decides no row: Ball.trace_kinds gives each row
    # classify's kind, and the kernels read those kinds without classify
    def run(ball):
        out = []
        for kinds in (("screw",), ("hyperbolic",), ("hyperbolic", "screw")):
            entry = shortest(ball, kinds, TOL_TRACE)
            out.append(entry and (entry.word.name, entry.length, entry.angle))
        fuch = fuchsian_test(group, 5, ball=ball)
        out.append((
            fuch.verdict,
            fuch.witness and fuch.witness.name,
            fuch.plane and (fuch.plane.a, fuch.plane.b, fuch.plane.c),
        ))
        return out

    screened = enumerate_ball(group, 5)
    expected = run(screened)
    ball = enumerate_ball(group, 5)
    monkeypatch.setattr(
        loxo.enumeration,
        "_trace_kinds",
        lambda entries, tol_trace: np.full(
            len(entries), loxo.enumeration._UNDECIDED, dtype=np.int8
        ),
    )
    kinds = ball.trace_kinds(TOL_TRACE)
    assert kinds.tolist() == screened.trace_kinds(TOL_TRACE).tolist()
    assert not kinds.flags.writeable

    def refused(m, tol_trace):
        raise AssertionError("classify ran on a row of final kind")

    monkeypatch.setattr(loxo.enumeration, "classify", refused)
    assert run(ball) == expected


# ---------------------------------------------------------------------------
# shortest_screw


def test_shortest_screw_figure_eight():
    group = presentation(FIGURE_EIGHT)
    entry = shortest_screw(group, 2)
    assert entry is not None
    assert entry.word.name == "a b"
    assert classify(entry.word.matrix) == "screw"
    assert abs(entry.length - complex_length(entry.word.matrix).length) < 1e-15


def test_shortest_screw_ties_go_to_the_shortlex_first_word():
    # roundoff makes longer spellings of the systole's class a few ulps
    # shorter than a b, at L = 8 and in conjugates of the group
    group = presentation(FIGURE_EIGHT)
    assert shortest_screw(group, 8).word.name == "a b"
    for n in range(4):
        g = random_isometry(seeded("figure_eight conjugate %d" % n))
        conjugate = GroupPresentation(
            [m.conjugate_by(g) for m in group.generators], group.labels
        )
        entry = shortest_screw(conjugate, 6)
        assert entry.word.name == "a b"
        assert entry.length == complex_length(entry.word.matrix).length


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


def reference_shortest(ball, kinds):
    """shortest as a scalar loop: (word, length, angle) or None.  Lengths
    within a relative 1e-12 of the least tie, and the first tied word in
    shortlex order wins."""
    found = []
    for word in ball:
        if classify(word.matrix) in kinds:
            cl = complex_length(word.matrix)
            found.append((word, cl.length, cl.angle))
    if not found:
        return None
    least = min(length for _, length, _ in found)
    return min(
        (entry for entry in found if entry[1] <= least * (1.0 + 1e-12)),
        key=lambda entry: entry[0].sort_key,
    )


def test_shortest_screw_takes_one_complex_length_per_trace(length_traces):
    # the scan of figure_eight's length-8 ball holds 204 screws, whose
    # traces take 47 bit patterns
    group = presentation(FIGURE_EIGHT)
    ball = enumerate_ball(group, 8)
    entry = shortest_screw(group, 8, ball=ball)
    assert len(length_traces) == len(set(length_traces)) == 47
    expected = reference_shortest(ball, ("screw",))
    assert entry.word is expected[0]
    assert (entry.length, entry.angle) == expected[1:]


@pytest.mark.parametrize("group", REFERENCE_GROUPS + FLOAT_GROUPS)
def test_shortest_screw_matches_scalar_reference(group):
    # shortest_screw, and the kernel on the verdicts' other kind sets
    for length in range(1, 7):
        ball = enumerate_ball(group, length)
        runs = [
            (("screw",), shortest_screw(group, length, ball=ball)),
            (("hyperbolic",), shortest(ball, ("hyperbolic",), TOL_TRACE)),
            (
                ("hyperbolic", "screw"),
                shortest(ball, ("hyperbolic", "screw"), TOL_TRACE),
            ),
        ]
        for kinds, entry in runs:
            expected = reference_shortest(ball, kinds)
            if expected is None:
                assert entry is None
                continue
            assert entry.kind in kinds
            assert entry.word is expected[0]
            assert (entry.length, entry.angle) == expected[1:]


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


def test_fuchsian_pair_axes_take_the_trace_tolerance():
    # a, of trace 2 + 5e-10, is hyperbolic at tolerance 0 but has one fixed
    # point at the default tolerance
    group = GroupPresentation(
        [MoebiusIsometry(2 + 5e-10, -1, 1, 0), MoebiusIsometry(2, 1, 1, 1)]
    )
    result = fuchsian_test(group, 2, 0.0)
    assert result.verdict == "all_non_screw_with_plane"


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


def first_real_character_screw(group):
    """The first product a_i1 ... a_ik, i1 < ... < ik, by size and then
    lexicographically, over all 2^n - 1 of them, with a non-real trace."""
    for k in range(1, group.rank + 1):
        for subset in itertools.combinations(range(group.rank), k):
            word = group.word([2 * i for i in subset])
            if abs(word.matrix.trace.imag) > TOL_TRACE:
                return word
    return None


def reference_fuchsian_test(group, ball):
    """fuchsian_test from the character and a scalar loop for the pair."""
    screw = first_real_character_screw(group)
    if screw is not None:
        return FuchsianResult("screw_found", witness=screw)
    hyperbolic = [w for w in ball if classify(w.matrix) == "hyperbolic"]
    for i, u in enumerate(hyperbolic):
        axis_u = axis_of(u.matrix)
        for v in hyperbolic[i + 1:]:
            axis_v = axis_of(v.matrix)
            if not any(
                same_point(p, q)
                for p in axis_u.endpoints()
                for q in axis_v.endpoints()
            ):
                plane = invariant_plane(u.matrix, v.matrix)
                return FuchsianResult("all_non_screw_with_plane", plane=plane)
    return FuchsianResult("elementary")


@pytest.mark.parametrize("group", REFERENCE_GROUPS)
def test_fuchsian_test_matches_scalar_reference(group):
    for length in range(1, 6):
        ball = enumerate_ball(group, length)
        result = fuchsian_test(group, length, ball=ball)
        expected = reference_fuchsian_test(group, ball)
        assert result.verdict == expected.verdict
        assert getattr(result.witness, "name", None) == getattr(
            expected.witness, "name", None
        )
        if expected.plane is not None:
            assert result.plane.signed_triple() == expected.plane.signed_triple()


def assert_ball_keeps_the_plane(group, lengths):
    """Where fuchsian_test returns a plane, every ball word keeps it: its
    Hermitian form H satisfies |M* H M - H| <= 1e-7 max(1, |M|^2)
    entrywise, and preserves_circle agrees."""
    for length in lengths:
        ball = enumerate_ball(group, length)
        plane = fuchsian_test(group, length, ball=ball).plane
        if plane is None:
            continue
        A, B, C = plane.signed_triple()
        form = np.array([[A, B], [np.conj(B), C]])
        m = ball.entries.reshape(-1, 2, 2)
        image = np.conj(np.swapaxes(m, 1, 2)) @ form @ m
        deviation = np.abs(image - form).max(axis=(1, 2))
        size = np.abs(m).max(axis=(1, 2)) ** 2
        assert (deviation <= 1e-7 * np.maximum(1.0, size)).all()
        for i in range(len(ball)):
            m = bare_isometry(ball.entries[i])
            assert preserves_circle(m, plane, PLANE_TOL)


@pytest.mark.parametrize("group", REFERENCE_GROUPS + FLOAT_GROUPS)
def test_plane_screen_agrees_with_preserves_circle(group):
    # the plane test of fuchsian_test, checked on every word of its ball
    assert_ball_keeps_the_plane(group, range(1, 7))


@pytest.mark.parametrize("name", ["funnel", "torus"])
def test_plane_screen_agrees_with_preserves_circle_deep(name):
    assert_ball_keeps_the_plane(dict(reference_groups())[name], [8])


@pytest.mark.parametrize("group", REFERENCE_GROUPS + FLOAT_GROUPS)
def test_fuchsian_screw_witness_is_the_first_scalar_screw(group):
    for length in range(2, 7):
        ball = enumerate_ball(group, length)
        result = fuchsian_test(group, length, ball=ball)
        if result.verdict != "screw_found":
            continue
        first = next(w for w in ball if classify(w.matrix) == "screw")
        assert result.witness.name == first.name


def test_fuchsian_rank_three_witness_is_the_triple_product():
    # a, b, c and their pair products have real traces; tr a b c = -20 - 4i
    group = GroupPresentation([
        MoebiusIsometry(1, 2, 0, 1),
        MoebiusIsometry(1, 0, 2, 1),
        MoebiusIsometry(-2 - 1j, -2, -2, -2 + 1j),
    ])
    for letters in ((0,), (2,), (4,), (0, 2), (0, 4), (2, 4)):
        assert group.word(letters).matrix.trace.imag == 0.0
    # MoebiusIsometry keeps the sign with Re tr > 0
    assert group.word((0, 2, 4)).matrix.trace == 20 + 4j
    result = fuchsian_test(group, 3)
    assert result.verdict == "screw_found"
    assert result.witness.name == "a b c"
    ball = enumerate_ball(group, 3)
    first = next(w for w in ball if classify(w.matrix) == "screw")
    assert first.name == "a b c"


@pytest.fixture
def scalar_plane_tests(monkeypatch):
    """Count the calls of preserves_circle from invariant_plane."""
    calls = []

    def counted(*args):
        calls.append(args[0])
        return preserves_circle(*args)

    monkeypatch.setattr(loxo.halfturn, "preserves_circle", counted)
    return calls


def test_fuchsian_test_deep_ball_needs_no_scalar_plane_test(scalar_plane_tests):
    group = dict(reference_groups())["funnel"]
    result = fuchsian_test(group, 8)
    assert result.verdict == "all_non_screw_with_plane"
    # only the spanning pair's check: one call for each generator
    assert len(scalar_plane_tests) == 2


def test_fuchsian_test_keeps_the_real_line_of_an_all_real_group(
    scalar_plane_tests,
):
    # <[[19,2],[9,1]], [[1,0],[3,1]]>: a a a a has entries up to 1.5e5,
    # and it moved the plane under preserves_circle's absolute tolerance
    group = GroupPresentation(
        [MoebiusIsometry(19, 2, 9, 1), MoebiusIsometry(1, 0, 3, 1)]
    )
    result = fuchsian_test(group, 6)
    assert result.verdict == "all_non_screw_with_plane"
    assert same_circle(result.plane, REAL_LINE)
    assert len(scalar_plane_tests) == 2


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


def rotation_about(p, q, angle):
    """Rotation by angle about the geodesic from p to q (q None: infinity)."""
    half = cmath.exp(0.5j * angle)
    model = MoebiusIsometry(half, 0, 0, 1 / half)
    if q is None:
        return model
    return model.conjugate_by(MoebiusIsometry(q, p, 1, 1))


def test_elementary_rotations_with_pairwise_crossing_axes():
    # the three axes cross pairwise at three different points: the
    # length-3 ball holds screws
    angle = 2 * math.pi / 5
    group = GroupPresentation([
        rotation_about(-2, 1, angle),
        rotation_about(-1, 2, angle),
        rotation_about(0, 3, angle),
    ])
    assert elementary_test(group).verdict == "non_elementary"
    assert any(classify(w.matrix) == "screw" for w in enumerate_ball(group, 3))


def test_elementary_rotations_with_concurrent_axes():
    # the three axes pass through the point at height 1 over the origin
    angle = 2 * math.pi / 5
    group = GroupPresentation([
        rotation_about(-1, 1, angle),
        rotation_about(-1j, 1j, angle),
        rotation_about(0, None, angle),
    ])
    assert elementary_test(group).verdict == "limit_points_0_or_1"


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


def test_fuchsian_test_classifies_no_exact_parabolic(monkeypatch):
    group = presentation(THRICE_PUNCTURED)
    ball = enumerate_ball(group, 6)
    traces = []

    def counted(m, tol_trace):
        traces.append(m.trace)
        return classify(m, tol_trace)

    monkeypatch.setattr(loxo.enumeration, "classify", counted)
    result = fuchsian_test(group, 6, ball=ball)
    assert result.verdict == "all_non_screw_with_plane"
    assert [t for t in traces if abs(t) == 2.0] == []


def test_thrice_punctured_fixture_matches():
    group = presentation(THRICE_PUNCTURED)
    evidence = thrice_punctured_test(group, max_word_len=4)
    assert evidence is not None
    assert evidence.first.name == "a"
    assert evidence.second.name == "b'"
    assert same_circle(evidence.plane, REAL_LINE)


def test_thrice_punctured_builds_the_length_2_ball(ball_lengths):
    group = presentation(THRICE_PUNCTURED)
    evidence = thrice_punctured_test(group, max_word_len=8)
    assert ball_lengths == [2]
    full = thrice_punctured_test(group, 8, ball=enumerate_ball(group, 8))
    assert evidence.detail() == full.detail()


def test_thrice_punctured_builds_no_ball_at_length_1(ball_lengths):
    # the words of length 1 of the cusp pattern are all parabolic
    group = presentation(THRICE_PUNCTURED)
    assert thrice_punctured_test(group, max_word_len=1) is None
    assert ball_lengths == []


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


@pytest.mark.parametrize("name", ["figure_eight", "funnel", "torus"])
def test_thrice_punctured_seeks_the_pair_before_scanning(monkeypatch, name):
    def no_scan(*args, **kwargs):
        raise AssertionError("ball scanned for a group without a parabolic pair")

    monkeypatch.setattr(loxo.enumeration, "fuchsian_test", no_scan)
    group = dict(reference_groups())[name]
    assert thrice_punctured_test(group, 6) is None


def test_jorgensen_quiet_on_fixture():
    group = presentation(THRICE_PUNCTURED)
    assert jorgensen_warnings(group) == []


@pytest.mark.parametrize("c", [None, 0, 1])
def test_jorgensen_quiet_on_a_gaussian_integer_pair(c):
    # <[[1, 2], [0, 1]], [[1, 0], [i, 1]]> lies in PSL(2, Z[i]), so it is
    # discrete, and tr[a, b] = -2 puts its sum at 4; a sign on a partial
    # product of the commutator read +2 and a sum of 0
    group = GroupPresentation(
        [MoebiusIsometry(1, 2, 0, 1), MoebiusIsometry(1, 0, 1j, 1)]
    )
    if c is not None:
        g = random_isometry(random.Random(5 + c))
        group = GroupPresentation(
            [x.conjugate_by(g) for x in group.generators]
        )
    assert jorgensen_warnings(group) == []


def test_jorgensen_flags_two_small_rotations():
    near = rotation(0.05).conjugate_by(MoebiusIsometry(1, 0.1, 0, 1))
    group = GroupPresentation([rotation(0.05), near])
    warnings = jorgensen_warnings(group)
    assert len(warnings) == 1
    assert "a, b" in warnings[0]
