"""Acceptance gate: end-to-end checks at fixed volume and runtime budgets.

Each test here is one gate.  It drives a whole workflow (classification,
factorization, plane fitting, enumeration, certification, or the cusp
formulas) at a stated sample volume, checks results against independent
oracles or frozen constants at stated tolerances, and asserts the wall-clock
budget.  pytest -v reports one PASS/FAIL line per gate; each test also
prints its measured numbers for archived logs.
"""

import cmath
import math
import time

import pytest

from loxo.certification import (
    cusp_depth,
    max_parabolic_length_at_depth,
    simplicity_check,
)
from loxo.enumeration import (
    GroupPresentation,
    enumerate_ball,
    fuchsian_test,
    shortest_screw,
    spectrum,
    thrice_punctured_test,
)
from loxo.errors import SharedFixedPoint, UndefinedLength
from loxo.geometry import (
    GeodesicLine,
    axis_of,
    circle_through,
    geodesic_separation,
    preserves_circle,
    same_circle,
    transform_circle,
    transform_line,
)
from loxo.halfturn import decompose, invariant_plane, shared_factorization
from loxo.isometry import (
    BoundaryPoint,
    MoebiusIsometry,
    classify,
    complex_length,
    is_non_screw,
)
from loxo.pipeline import classify_manifold

from conftest import (
    FIGURE_EIGHT,
    FIGURE_EIGHT_OMEGA,
    SINGLE_HYPERBOLIC,
    SINGLE_PARABOLIC,
    THRICE_PUNCTURED,
    oracle_complex_length,
    oracle_min_distance,
    random_classified,
    random_complex,
    random_isometry,
    seeded,
)

REAL_LINE = circle_through(
    BoundaryPoint.from_complex(0.0),
    BoundaryPoint.from_complex(1.0),
    BoundaryPoint.infinity(),
)


def _group(pairs):
    return GroupPresentation([m for _, m in pairs])


def _reduced_matrices(alpha, beta, depth):
    """All freely reduced words up to the given length, one product each.

    Independent of the ball enumerator: no deduplication, plain stack walk.
    """
    letters = (alpha, alpha.inverse(), beta, beta.inverse())
    undo = (1, 0, 3, 2)
    stack = [(letters[i], i, 1) for i in range(4)]
    while stack:
        m, last, n = stack.pop()
        yield m
        if n < depth:
            for i in range(4):
                if i != undo[last]:
                    stack.append((m * letters[i], i, n + 1))


def _conjugator(rng):
    """Unit-determinant conjugator with a bounded condition number.

    Absolute tolerances on entries require moderate operator norms all the
    way through; a determinant floor before normalization caps the blowup.
    """
    while True:
        a = random_complex(rng, 0.9)
        b = random_complex(rng, 0.9)
        c = random_complex(rng, 0.9)
        d = random_complex(rng, 0.9)
        if abs(a * d - b * c) >= 0.6:
            return MoebiusIsometry(a, b, c, d)


def _tame_classified(rng):
    """Like random_classified but condition-bounded for entrywise checks."""
    kind = rng.choice(("hyperbolic", "elliptic", "parabolic", "screw"))
    if kind == "parabolic":
        shift = random_complex(rng, 2.0)
        if abs(shift) < 0.1:
            shift += 0.5
        model = MoebiusIsometry(1.0, shift, 0.0, 1.0)
    else:
        length = 0.0 if kind == "elliptic" else rng.uniform(0.3, 3.0)
        angle = (
            0.0
            if kind == "hyperbolic"
            else rng.choice((-1.0, 1.0)) * rng.uniform(0.3, math.pi - 0.2)
        )
        half = complex(length, angle) / 2.0
        model = MoebiusIsometry(cmath.exp(half), 0.0, 0.0, cmath.exp(-half))
    return kind, model.conjugate_by(_conjugator(rng))


def _real_sl2(rng):
    while True:
        a = rng.uniform(-1.2, 1.2)
        b = rng.uniform(-1.2, 1.2)
        c = rng.uniform(-1.2, 1.2)
        if abs(a) < 0.6:
            continue
        d = (1.0 + b * c) / a
        if abs(d) <= 1.6:
            return MoebiusIsometry(a, b, c, d)


def _real_mild(rng):
    """Small real conjugator: shifts fixed points without growing norms."""
    t = rng.uniform(-0.8, 0.8)
    half = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
    c, s = math.cos(half), math.sin(half)
    return MoebiusIsometry(1.0, t, 0.0, 1.0) * MoebiusIsometry(c, s, -s, c)


def _real_of_kind(rng, kind):
    if kind == "parabolic":
        shift = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        base = MoebiusIsometry(1.0, shift, 0.0, 1.0)
    elif kind == "elliptic":
        half = rng.uniform(0.3, 1.2)
        base = MoebiusIsometry(
            math.cos(half), math.sin(half), -math.sin(half), math.cos(half)
        )
    else:
        lam = rng.uniform(1.2, 1.8)
        base = MoebiusIsometry(lam, 0.0, 0.0, 1.0 / lam)
    return base.conjugate_by(_real_mild(rng))


_MIXED_KINDS = (
    ("parabolic", "elliptic"),
    ("parabolic", "hyperbolic"),
    ("elliptic", "hyperbolic"),
    ("parabolic", "parabolic"),
    ("elliptic", "elliptic"),
    ("hyperbolic", "hyperbolic"),
)


# ---------------------------------------------------------------------------
# gate 1: classification vs complex length, 10,000 mixed samples, < 5 s


def test_classification_consistent_at_volume():
    rng = seeded("acceptance classification volume")
    start = time.monotonic()
    counts = {}
    for i in range(10_000):
        if i % 100 == 99:
            sign = -1.0 if (i // 100) % 2 else 1.0
            kind, m = "identity", MoebiusIsometry(sign, 0.0, 0.0, sign)
        else:
            kind, m = random_classified(rng)
        counts[kind] = counts.get(kind, 0) + 1

        assert classify(m) == kind
        assert is_non_screw(m) == (kind != "screw")
        if kind in ("identity", "parabolic"):
            with pytest.raises(UndefinedLength):
                complex_length(m)
            continue
        cl = complex_length(m)
        olen, oang = oracle_complex_length(m)
        assert abs(cl.length - olen) <= 1e-9
        if kind == "hyperbolic":
            assert cl.angle == 0.0
        elif kind == "elliptic":
            assert cl.length == 0.0
            assert abs(abs(cl.angle) - oang) <= 1e-9
        else:
            assert abs(cl.angle - oang) <= 1e-9
    elapsed = time.monotonic() - start
    assert all(counts[k] >= 2000 for k in ("hyperbolic", "elliptic", "parabolic", "screw"))
    assert elapsed < 5.0, "classification volume run took %.2fs" % elapsed
    print("PASS classification: 10000 mixed samples consistent in %.2fs" % elapsed)


# ---------------------------------------------------------------------------
# gate 2: half-turn factorizations reproduce their inputs, < 10 s


def test_halfturn_factorizations_reproduce_inputs():
    rng = seeded("acceptance factorization volume")
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        _, m = _tame_classified(rng)
        first, second = decompose(m)
        assert abs(first.matrix.trace) <= 1e-7
        assert abs(second.matrix.trace) <= 1e-7
        gap = (first.matrix * second.matrix).psl_distance(m)
        worst = max(worst, gap)
        assert gap <= 1e-9

    for _ in range(500):
        for _attempt in range(20):
            _, alpha = _tame_classified(rng)
            _, beta = _tame_classified(rng)
            try:
                shared = shared_factorization(alpha, beta)
                break
            except SharedFixedPoint:
                continue
        else:
            raise AssertionError("could not sample a pair without shared fixed points")
        fm = shared.first.matrix
        mm = shared.shared.matrix
        sm = shared.second.matrix
        gaps = (
            (fm * mm).psl_distance(alpha),
            (mm * sm).psl_distance(beta),
            # middle factors cancel in the quotient group
            (fm * sm).psl_distance(alpha * beta),
        )
        worst = max(worst, *gaps)
        assert max(gaps) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "factorization volume run took %.2fs" % elapsed
    print(
        "PASS factorization: 1000 round trips + 500 shared pairs, worst gap %.2e in %.2fs"
        % (worst, elapsed)
    )


# ---------------------------------------------------------------------------
# gate 3: non-screw pairs admit a plane preserved by all short words, < 2 min


def test_nonscrew_pairs_admit_preserved_plane():
    rng = seeded("acceptance plane volume")
    start = time.monotonic()
    words_checked = 0
    worst_imag = 0.0
    for index in range(200):
        for _attempt in range(50):
            g = _conjugator(rng)
            if index % 5 < 3:
                alpha = _real_sl2(rng)
                beta = _real_sl2(rng)
            else:
                ka, kb = _MIXED_KINDS[index % len(_MIXED_KINDS)]
                alpha = _real_of_kind(rng, ka)
                beta = _real_of_kind(rng, kb)
            alpha = alpha.conjugate_by(g)
            beta = beta.conjugate_by(g)
            try:
                plane = invariant_plane(alpha, beta)
                break
            except SharedFixedPoint:
                continue
        else:
            raise AssertionError("could not sample a plane pair")
        assert same_circle(plane, transform_circle(g, REAL_LINE))
        for m in _reduced_matrices(alpha, beta, 6):
            words_checked += 1
            worst_imag = max(worst_imag, abs(m.trace.imag))
            assert abs(m.trace.imag) <= 1e-7
            assert preserves_circle(m, plane, 1e-7)
    elapsed = time.monotonic() - start
    assert words_checked == 200 * 1456
    assert elapsed < 120.0, "plane volume run took %.2fs" % elapsed
    print(
        "PASS planes: 200 pairs, %d words preserved, worst Im trace %.2e in %.2fs"
        % (words_checked, worst_imag, elapsed)
    )


# ---------------------------------------------------------------------------
# gate 4: parabolic pair fixture, full ball census and verdict, < 1 min


def test_thrice_punctured_fixture_census_and_verdict():
    start = time.monotonic()
    group = _group(THRICE_PUNCTURED)

    ball = enumerate_ball(group, 8)
    assert len(ball) == 13_120
    assert all(is_non_screw(w.matrix) for w in ball)

    fuchs = fuchsian_test(group, 8, ball=ball)
    assert fuchs.verdict == "all_non_screw_with_plane"
    assert same_circle(fuchs.plane, REAL_LINE)

    evidence = thrice_punctured_test(group, 8, ball=ball)
    assert evidence is not None
    assert evidence.first.name == "a"
    assert evidence.second.name == "b'"
    assert same_circle(evidence.plane, REAL_LINE)

    report = classify_manifold(group)
    assert report.verdict.kind == "ThricePuncturedSphereEvidence"

    word = group.word((0, 2))
    assert word.name == "a b"
    cl = complex_length(word.matrix)
    assert abs(cl.length - 2.0 * math.acosh(3.0)) <= 1e-6
    check = simplicity_check(group, axis_of(word.matrix), 6)
    assert check.verdict == "self_intersecting"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "census run took %.2fs" % elapsed
    print("PASS census: ball 13120, no screws, plane found, crossing found in %.2fs" % elapsed)


# ---------------------------------------------------------------------------
# gate 5: screw pair fixture, shortest screw matches brute force, < 2 min


def test_figure_eight_shortest_screw_matches_brute_force():
    start = time.monotonic()
    group = _group(FIGURE_EIGHT)
    (_, alpha), (_, beta) = FIGURE_EIGHT

    witness = next(w for w in enumerate_ball(group, 2) if w.name == "a b")
    assert classify(witness.matrix) == "screw"
    assert abs(witness.matrix.trace - (2.0 - FIGURE_EIGHT_OMEGA)) <= 1e-9
    assert abs(abs(witness.matrix.trace.imag) - math.sqrt(3.0) / 2.0) <= 1e-9

    found = shortest_screw(group, 5)
    assert found is not None
    best = None
    for m in _reduced_matrices(alpha, beta, 5):
        t = m.trace
        if abs(t.imag) > 1e-9:
            length = 2.0 * abs(cmath.acosh(t / 2.0).real)
            if best is None or length < best:
                best = length
    assert best is not None
    assert abs(found.length - best) <= 1e-9

    check = simplicity_check(group, found.axis, 5)
    assert check.verdict == "simple_up_to_bound"
    assert check.tube_radius_lower > 0.0

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, "screw search took %.2fs" % elapsed
    print("PASS screws: shortest %.12f == brute force, simple tube %.6f in %.2fs"
          % (found.length, check.tube_radius_lower, elapsed))


# ---------------------------------------------------------------------------
# gate 6: cyclic groups get exact verdicts, no tolerance


def test_cyclic_groups_get_exact_verdicts():
    report = classify_manifold(_group(SINGLE_HYPERBOLIC))
    assert report.verdict.kind == "SimpleGeodesicFound"
    assert report.exit_code == 0
    data = report.to_dict()
    assert data["geodesic"]["word"] == "a"

    report = classify_manifold(_group(SINGLE_PARABOLIC))
    assert report.verdict.kind == "Elementary"
    assert report.exit_code == 0
    assert report.to_dict()["limit_points"] == "0_or_1"
    print("PASS cyclic: axis verdict and few-limit-point verdict exact")


# ---------------------------------------------------------------------------
# gate 7: cusp depth formulas, round trip and monotonicity, < 1 s


def test_cusp_depth_round_trip_and_monotonic():
    rng = seeded("acceptance cusp volume")
    start = time.monotonic()
    assert abs(cusp_depth(2.0 * math.asinh(0.5))) <= 1e-12

    for _ in range(100):
        delta = rng.uniform(1e-6, 1.0 - 1e-6)
        depth = cusp_depth(delta)
        if depth >= 0.0:
            assert abs(max_parabolic_length_at_depth(depth) - delta) <= 1e-12
    for _ in range(100):
        depth = rng.uniform(0.0, 6.0)
        delta = max_parabolic_length_at_depth(depth)
        assert 0.0 < delta < 1.0
        assert abs(cusp_depth(delta) - depth) <= 1e-12

    for _ in range(1000):
        d1 = rng.uniform(1e-6, 1.0 - 1e-6)
        d2 = rng.uniform(1e-6, 1.0 - 1e-6)
        if d1 == d2:
            continue
        lo, hi = min(d1, d2), max(d1, d2)
        assert cusp_depth(lo) > cusp_depth(hi)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "cusp formula run took %.2fs" % elapsed
    print("PASS cusps: round trips and monotonicity in %.3fs" % elapsed)


# ---------------------------------------------------------------------------
# gate 8: separation vs numeric minimization, plus invariance, < 30 s


def _disjoint_pair(rng):
    for _attempt in range(100):
        points = []
        while len(points) < 4:
            z = random_complex(rng, 3.0)
            if all(abs(z - p) >= 0.3 for p in points):
                points.append(z)
        l1 = GeodesicLine.from_complex(points[0], points[1])
        l2 = GeodesicLine.from_complex(points[2], points[3])
        sep = geodesic_separation(l1, l2)
        if sep.distance >= 0.05:
            return l1, l2, sep
    raise AssertionError("could not sample a well-separated pair")


def test_separation_matches_minimization_and_is_invariant():
    rng = seeded("acceptance separation volume")
    start = time.monotonic()
    for _ in range(100):
        l1, l2, sep = _disjoint_pair(rng)
        assert abs(sep.distance - oracle_min_distance(l1, l2)) <= 1e-6

    for _ in range(100):
        l1, l2, sep = _disjoint_pair(rng)
        g = random_isometry(rng)
        moved = geodesic_separation(transform_line(g, l1), transform_line(g, l2))
        assert abs(moved.distance - sep.distance) <= 1e-9
        assert abs(moved.angle - sep.angle) <= 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "separation run took %.2fs" % elapsed
    print("PASS separation: 100 oracle pairs + 100 moved pairs in %.2fs" % elapsed)


# ---------------------------------------------------------------------------
# gate 9: every short spectrum entry is certified simple, < 30 s


def test_short_spectrum_entries_are_simple():
    start = time.monotonic()
    step = 0.02 + 0.01j
    margulis = GroupPresentation(
        [MoebiusIsometry(cmath.exp(step), 0.0, 0.0, cmath.exp(-step))]
    )
    named = [
        ("thrice punctured", _group(THRICE_PUNCTURED), 0),
        ("figure eight", _group(FIGURE_EIGHT), 0),
        ("single hyperbolic", _group(SINGLE_HYPERBOLIC), 0),
        ("single parabolic", _group(SINGLE_PARABOLIC), 0),
        ("short screw cyclic", margulis, 2),
    ]
    for label, group, expected_short in named:
        # the Margulis thin part at epsilon 0.1
        short = [e for e in spectrum(group, 6) if e.length < 0.1]
        assert len(short) == expected_short, label
        for entry in short:
            check = simplicity_check(group, entry.axis, 6)
            assert check.is_simple, "%s: %s" % (label, entry.word.name)
    assert [e.word.name for e in spectrum(margulis, 6) if e.length < 0.1] == [
        "a", "a a"
    ]

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "short spectrum run took %.2fs" % elapsed
    print("PASS short spectra: all entries below the cutoff embed in %.2fs" % elapsed)
