import cmath
import json
import math
import os
import random
import re

import numpy as np
import pytest

import loxo.enumeration
import loxo.pipeline
from loxo.cli import build_parser, main
from loxo.certification import simplicity_check
from loxo.enumeration import (
    FuchsianResult,
    GroupPresentation,
    enumerate_ball,
    jorgensen_warnings,
    parabolic_generator_pair,
    shortest,
    shortest_screw,
    spectrum,
    thrice_punctured_test,
)
from loxo.errors import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    AmbiguousClass,
    BudgetExceeded,
    DuplicateLabel,
    IdentityGenerator,
    NearSingular,
    OutOfRange,
    ParseError,
    SingularGenerator,
)
from loxo.isometry import TOL_TRACE, MoebiusIsometry, classify
from loxo.pipeline import (
    Inconclusive,
    ManifoldReport,
    RunConfig,
    classify_manifold,
    emit_report,
    load_group_file,
)

from conftest import float_groups, random_isometry, reference_groups, seeded

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


# ---------------------------------------------------------------------------
# RunConfig


def test_config_defaults():
    config = RunConfig()
    assert config.max_word_len == 6
    assert config.length_cutoff == 12.0
    assert config.to_dict()["cap"] == 10**7
    assert set(config.to_dict()) == {
        "max_word_len", "length_cutoff", "tol_trace", "cap",
    }


def test_config_validation():
    with pytest.raises(OutOfRange):
        RunConfig(max_word_len=0)
    with pytest.raises(OutOfRange):
        RunConfig(max_word_len=13)
    with pytest.raises(OutOfRange):
        RunConfig(length_cutoff=0.0)
    with pytest.raises(OutOfRange):
        RunConfig(length_cutoff=float("nan"))
    with pytest.raises(OutOfRange):
        RunConfig(length_cutoff=math.inf)


@pytest.mark.parametrize("bound", [6.0, True, "6", None])
def test_config_takes_only_an_integer_word_bound(bound):
    with pytest.raises(OutOfRange):
        RunConfig(max_word_len=bound)


@pytest.mark.parametrize("tol", [-1e-12, float("nan"), -math.inf, math.inf])
def test_config_rejects_bad_trace_tolerance(tol):
    with pytest.raises(OutOfRange):
        RunConfig(tol_trace=tol)


@pytest.mark.parametrize(
    "options",
    [
        {"length_cutoff": "5"},
        {"length_cutoff": True},
        {"length_cutoff": None},
        {"tol_trace": False},
        {"tol_trace": "0"},
    ],
    ids=["cutoff-str", "cutoff-bool", "cutoff-none", "tol-bool", "tol-str"],
)
def test_config_takes_only_numbers(options):
    with pytest.raises(OutOfRange):
        RunConfig(**options)


def test_config_accepts_zero_trace_tolerance():
    group, _ = load_group_file(fixture("thrice_punctured.json"))
    report = classify_manifold(group, RunConfig(max_word_len=4, tol_trace=0.0))
    assert report.to_dict()["config"]["tol_trace"] == 0.0


# ---------------------------------------------------------------------------
# load_group_file


def test_load_fixture_groups():
    for name, rank in (
        ("thrice_punctured.json", 2),
        ("figure_eight.json", 2),
        ("single_parabolic.json", 1),
        ("diag_hyperbolic.json", 1),
    ):
        group, warnings = load_group_file(fixture(name))
        assert group.rank == rank
        assert warnings == []


def test_load_missing_file():
    with pytest.raises(ParseError):
        load_group_file(fixture("no_such_group.json"))


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_group_file(str(path))


def test_load_rejects_bad_shapes(tmp_path):
    cases = [
        "[]",
        "{}",
        '{"generators": []}',
        '{"generators": [{"matrix": [[[1,0],[0,0]],[[0,0],[1,0]]]}]}',
        '{"generators": [{"label": "a", "matrix": [[[1,0],[0,0]]]}]}',
        '{"generators": [{"label": "a", "matrix": [[[1,0],"x"],[[0,0],[1,0]]]}]}',
        '{"generators": [{"label": "a", "matrix": [[[1,0],[0,0,3]],[[0,0],[1,0]]]}]}',
    ]
    for index, text in enumerate(cases):
        path = tmp_path / ("case%d.json" % index)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError):
            load_group_file(str(path))


# json.loads reads NaN and Infinity; a 400-digit int overflows a float
NON_FINITE_GROUPS = [
    '{"generators": [{"label": "a", "matrix": '
    '[[[%s, 0], [1, 0]], [[0, 0], [1, 0]]]}]}' % value
    for value in ("NaN", "Infinity", "-Infinity", "1" + "0" * 400)
]


def test_load_rejects_non_finite_entries(tmp_path):
    for index, text in enumerate(NON_FINITE_GROUPS):
        path = tmp_path / ("case%d.json" % index)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="must be finite"):
            load_group_file(str(path))


def test_load_rejects_duplicate_label(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps(
            {
                "generators": [
                    {"label": "a", "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]},
                    {"label": "a", "matrix": [[[1, 0], [2, 0]], [[0, 0], [1, 0]]]},
                ]
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(DuplicateLabel):
        load_group_file(str(path))


@pytest.mark.parametrize(
    "labels", [("a'", "a"), ("x y", "b")], ids=["prime", "space"]
)
def test_load_rejects_labels_words_cannot_spell(tmp_path, capsys, labels):
    path = tmp_path / "labels.json"
    write_group(path, zip(labels, (
        MoebiusIsometry(1, 2, 0, 1), MoebiusIsometry(1, 0, 2, 1)
    )))
    with pytest.raises(ParseError, match="no whitespace and no"):
        load_group_file(str(path))
    code, out, err = run_cli(capsys, "ball", str(path), "--max-word-len", "1")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "no whitespace and no" in err


def test_load_rejects_singular_generator(tmp_path):
    path = tmp_path / "sing.json"
    path.write_text(
        json.dumps(
            {
                "generators": [
                    {"label": "a", "matrix": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}
                ]
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(SingularGenerator):
        load_group_file(str(path))


def test_load_rejects_identity_generator(tmp_path):
    path = tmp_path / "ident.json"
    path.write_text(
        json.dumps(
            {
                "generators": [
                    {"label": "a", "matrix": [[[-1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
                ]
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(IdentityGenerator):
        load_group_file(str(path))


def test_load_rescales_with_warning(tmp_path):
    path = tmp_path / "scaled.json"
    path.write_text(
        json.dumps(
            {
                "generators": [
                    {"label": "a", "matrix": [[[4, 0], [0, 0]], [[0, 0], [1, 0]]]}
                ]
            }
        ),
        encoding="utf-8",
    )
    group, warnings = load_group_file(str(path))
    assert len(warnings) == 1 and "rescaled" in warnings[0]
    m = group.generators[0]
    assert abs(m.a * m.d - m.b * m.c - 1) < 1e-12
    assert abs(m.a - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# classify_manifold


def test_verdict_thrice_punctured():
    group, _ = load_group_file(fixture("thrice_punctured.json"))
    report = classify_manifold(group)
    assert report.verdict.kind == "ThricePuncturedSphereEvidence"
    assert report.exit_code == EXIT_OK
    data = report.to_dict()
    assert data["parabolic_pair"] == ["a", "b'"]
    assert data["plane"]["coefficient_a"] == 0.0


def test_verdict_figure_eight():
    group, _ = load_group_file(fixture("figure_eight.json"))
    report = classify_manifold(group)
    assert report.verdict.kind == "SimpleGeodesicFound"
    data = report.to_dict()
    assert data["geodesic"]["word"] == "a b"
    assert data["geodesic"]["kind"] == "screw"
    assert data["simplicity"]["verdict"] == "simple_up_to_bound"
    assert data["simplicity"]["tube_radius_lower"] > 0


def test_verdict_single_hyperbolic():
    group, _ = load_group_file(fixture("diag_hyperbolic.json"))
    report = classify_manifold(group)
    assert report.verdict.kind == "SimpleGeodesicFound"
    data = report.to_dict()
    assert data["geodesic"]["word"] == "a"
    assert abs(data["geodesic"]["length"] - 2 * math.log(2)) < 1e-12
    # cyclic group: no translates at all, bound serializes as null
    assert data["simplicity"]["tube_radius_lower"] is None


def test_verdict_single_parabolic():
    group, _ = load_group_file(fixture("single_parabolic.json"))
    report = classify_manifold(group)
    assert report.verdict.kind == "Elementary"
    assert report.to_dict()["limit_points"] == "0_or_1"


def test_verdict_inconclusive_crossing_screw():
    # parabolic fixing infinity plus a screw along (0, infinity): the
    # translated axis shares an endpoint with itself, so nothing certifies
    lam = cmath.exp((0.05 + 2.0j) / 2)
    group = GroupPresentation(
        [
            MoebiusIsometry(1, 1, 0, 1),
            MoebiusIsometry(lam, 0, 0, 1 / lam),
        ]
    )
    report = classify_manifold(group, RunConfig(max_word_len=3))
    assert report.verdict.kind == "Inconclusive"
    assert report.exit_code == EXIT_INCONCLUSIVE
    assert report.to_dict()["reason"]


def test_verdict_thrice_punctured_survives_large_conjugate():
    # diag(300, 1/300) moves the plane's points far apart; the standardizing
    # map of circle_through must not fail the determinant test on them
    k = 300.0
    group = GroupPresentation(
        [MoebiusIsometry(1, 2 * k * k, 0, 1), MoebiusIsometry(1, 0, 2 / (k * k), 1)]
    )
    report = classify_manifold(group)
    assert report.verdict.kind == "ThricePuncturedSphereEvidence"
    assert report.to_dict()["parabolic_pair"] == ["a", "b'"]


def write_group(path, generators):
    path.write_text(
        json.dumps(
            {
                "generators": [
                    {
                        "label": label,
                        "matrix": [
                            [[z.real, z.imag] for z in row]
                            for row in m.to_matrix()
                        ],
                    }
                    for label, m in generators
                ]
            }
        )
    )


# ball words reach entries near 2e4 at length 5, and 22 translates of the
# axis of a have endpoints about 6e-8 apart; their half-turn traces put
# them far from the axis
LARGE_ENTRY_GENERATORS = (
    ("a", MoebiusIsometry(-1.5, -7.75, 1, 4.5)),
    ("b", MoebiusIsometry(4.5, -7.75, 1, -1.5)),
)
# half the distance from the axis of a to its nearest translate by the
# length-5 ball, from a 60-digit mpmath scan of the ball (10 stabilizers,
# no crossing, nearest translates at 6.79211867518)
LARGE_ENTRY_TUBE = 3.39605933759


def test_verdict_large_entry_group_certifies_a():
    group = GroupPresentation([m for _, m in LARGE_ENTRY_GENERATORS])
    report = classify_manifold(group, RunConfig(max_word_len=5))
    assert report.verdict.kind == "SimpleGeodesicFound"
    assert report.exit_code == EXIT_OK
    assert report.verdict.entry.word.name == "a"
    tube = report.verdict.report.tube_radius_lower
    assert abs(tube - LARGE_ENTRY_TUBE) < 1e-9


def test_cli_large_entry_group_exits_ok(tmp_path, capsys):
    path = tmp_path / "large.json"
    write_group(path, LARGE_ENTRY_GENERATORS)
    code, out, _ = run_cli(
        capsys,
        "classify-manifold",
        str(path),
        "--max-word-len",
        "5",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["geodesic"]["word"] == "a"
    assert abs(data["simplicity"]["tube_radius_lower"] - LARGE_ENTRY_TUBE) < 1e-9


def figure_eight_far_conjugate():
    # diag(1e4, 1e-4) conjugate: a length-6 translate of the axis of a b
    # has endpoints within the chordal tolerance of each other
    group, _ = load_group_file(fixture("figure_eight.json"))
    k = MoebiusIsometry(1e4, 0, 0, 1e-4)
    return list(zip(group.labels, (g.conjugate_by(k) for g in group.generators)))


# the tube bound of a b in the figure_eight group itself at length 6
FIGURE_EIGHT_TUBE = 0.426679600941157


def test_verdict_far_conjugate_certifies_a_b():
    group = GroupPresentation([m for _, m in figure_eight_far_conjugate()])
    report = classify_manifold(group, RunConfig(max_word_len=6))
    assert report.verdict.kind == "SimpleGeodesicFound"
    assert report.exit_code == EXIT_OK
    assert report.verdict.entry.word.name == "a b"
    tube = report.verdict.report.tube_radius_lower
    assert abs(tube - FIGURE_EIGHT_TUBE) < 1e-9


def test_cli_far_conjugate_exits_ok(tmp_path, capsys):
    path = tmp_path / "far.json"
    write_group(path, figure_eight_far_conjugate())
    code, out, _ = run_cli(
        capsys,
        "classify-manifold",
        str(path),
        "--max-word-len",
        "6",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"] == "SimpleGeodesicFound"
    assert data["geodesic"]["word"] == "a b"
    assert abs(data["simplicity"]["tube_radius_lower"] - FIGURE_EIGHT_TUBE) < 1e-9


@pytest.mark.parametrize("length", [9, 10])
def test_torus_a_certifies_past_its_stabilizer_powers(length):
    # a^9 and a^10 stabilize the axis of a; their entries reach 4e3
    group = dict(reference_groups())["torus"]
    report = classify_manifold(group, RunConfig(max_word_len=length))
    assert report.verdict.kind == "SimpleGeodesicFound"
    assert report.verdict.entry.word.name == "a"


def test_verdicts_without_spectrum(monkeypatch):
    # a verdict reads one candidate per branch, never the spectrum's
    # translate dedupe
    def no_orbit(*args, **kwargs):
        raise AssertionError("translate orbit built for a verdict")

    monkeypatch.setattr(loxo.enumeration, "_translate_orbit", no_orbit)
    kinds = {
        "thrice_punctured": "ThricePuncturedSphereEvidence",
        "single_parabolic": "Elementary",
    }
    for name, group in reference_groups():
        report = classify_manifold(group, RunConfig(max_word_len=4))
        assert report.verdict.kind == kinds.get(name, "SimpleGeodesicFound")


def test_verdicts_screen_trace_kinds_once(monkeypatch):
    # a verdict screens the one ball it reads once
    calls = []
    screen = loxo.enumeration._trace_kinds

    def counted(entries, tol_trace):
        calls.append(tol_trace)
        return screen(entries, tol_trace)

    monkeypatch.setattr(loxo.enumeration, "_trace_kinds", counted)
    for _, group in reference_groups():
        del calls[:]
        report = classify_manifold(group, RunConfig(max_word_len=6))
        elementary = report.verdict.kind == "Elementary"
        assert len(calls) == (0 if elementary else 1)


def test_verdicts_stop_at_the_first_certified_geodesic(monkeypatch):
    # funnel and torus certify the first geodesic of the stream, so no
    # candidate after it is tested against the translates of a kept one
    def no_orbit(*args, **kwargs):
        raise AssertionError("translate orbit built after the verdict")

    monkeypatch.setattr(loxo.enumeration, "_translate_orbit", no_orbit)
    groups = dict(reference_groups())
    for name in ("funnel", "torus"):
        report = classify_manifold(groups[name], RunConfig(max_word_len=6))
        assert report.verdict.kind == "SimpleGeodesicFound"


@pytest.mark.parametrize(
    "name, reason",
    [
        (
            "funnel",
            "ball preserves a plane but contains no hyperbolic word below "
            "the length cutoff",
        ),
        (
            "diag_hyperbolic",
            "two limit points, but the ball has no loxodromic word on the "
            "common axis below the length cutoff",
        ),
        # the screw branch takes no cutoff
        ("figure_eight", None),
    ],
    ids=["plane", "limit_points_2", "screw"],
)
def test_verdict_candidates_keep_the_length_cutoff(name, reason):
    group = dict(reference_groups())[name]
    entry = classify_manifold(group, RunConfig(max_word_len=4)).verdict.entry
    at = RunConfig(max_word_len=4, length_cutoff=entry.length)
    assert classify_manifold(group, at).verdict.entry.length == entry.length
    below = float(np.nextafter(entry.length, 0.0))
    verdict = classify_manifold(
        group, RunConfig(max_word_len=4, length_cutoff=below)
    ).verdict
    if reason is None:
        assert verdict.entry.word.name == entry.word.name
    else:
        assert verdict.reason == reason


# the word the base group certifies: the funnel's boundary and the
# torus's systole
BASE_WORDS = {"funnel": "a b'", "torus": "a"}


@pytest.mark.parametrize(
    "name, length",
    [
        (name, length)
        for name in (
            "funnel conjugate", "funnel diagonal",
            "torus conjugate", "torus diagonal",
        )
        for length in range(2, 9)
    ],
)
def test_conjugates_certify_the_base_word(name, length):
    # every spelling of the systole's class ties in length, and the
    # shortlex-first one wins whatever the coordinates
    base = dict(reference_groups())[name.split()[0]]
    group = dict(float_groups())[name]
    config = RunConfig(max_word_len=length)
    expected = classify_manifold(base, config).verdict.entry
    entry = classify_manifold(group, config).verdict.entry
    assert expected.word.name == BASE_WORDS[name.split()[0]]
    assert entry.word.name == expected.word.name
    assert abs(entry.length - expected.length) <= 1e-12


# systoles of the funnel and torus groups
SYSTOLES = {"funnel": 2.633915793849633, "torus": 1.9248473002384139}


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("name", sorted(SYSTOLES))
def test_conjugates_certify_the_systole_at_depth(name, c):
    # long words of a conjugate keep traces within roundoff of the exact
    # ones, so no parabolic word is certified and classify never raises
    g = random_isometry(random.Random(5 + c))
    base = dict(reference_groups())[name]
    group = GroupPresentation([x.conjugate_by(g) for x in base.generators])
    for length in (8, 9, 10):
        verdict = classify_manifold(group, RunConfig(max_word_len=length)).verdict
        assert verdict.kind == "SimpleGeodesicFound"
        assert abs(verdict.entry.length - SYSTOLES[name]) <= 1e-9


# Gamma(2) on the bases <a, b a> and <a, b a^3> of the thrice_punctured
# generators a = [[1, 2], [0, 1]], b = [[1, 0], [2, 1]]
NIELSEN_BASIS = ((1, 2, 0, 1), (1, 2, 2, 5))
LONG_NIELSEN_BASIS = ((1, 2, 0, 1), (1, 6, 2, 13))


def basis_group(basis):
    return GroupPresentation([MoebiusIsometry(*m) for m in basis])


def test_plane_branch_probes_few_stored_rows(psl_distance_calls):
    # a verdict on this basis checks one geodesic and probes no orbit, so
    # the guard runs through spectrum: its 22,115 probes of translate
    # orbits, whose rows reach 1e8, make 6,919 scalar calls with a window
    # sized from each probe
    entries = spectrum(basis_group(NIELSEN_BASIS), 8)
    assert entries
    assert psl_distance_calls[0] < 10000


def test_long_basis_of_gamma_2_finds_no_simple_geodesic():
    # the paper's theorem: Gamma(2) has no simple closed geodesic; the
    # length-6 ball of this basis misses the translate that crosses
    # b' a' b' a' b b, so only its shortest geodesic may be certified
    report = classify_manifold(
        basis_group(LONG_NIELSEN_BASIS), RunConfig(max_word_len=6)
    )
    assert report.verdict.kind != "SimpleGeodesicFound"


@pytest.mark.parametrize(
    "basis, length, word",
    [
        # Gamma(2): no simple closed geodesic at all
        (LONG_NIELSEN_BASIS, 4, None),
        (((5, 22, 2, 9), (1, 4, 2, 9)), 4, None),
        # bases of the funnel group, a pair of pants with two cusps: its one
        # simple closed geodesic is the boundary, of length 2 arccosh 2
        (((1, 2, 0, 1), (1, 6, 3, 19)), 4, None),
        (((7, 30, 3, 13), (1, 4, 3, 13)), 4, None),
        (((1, 2, 0, 1), (1, 6, 3, 19)), 5, "a a a a b'"),
    ],
    ids=[
        "gamma2-long-basis-L4",
        "gamma2-basis-traces-14-10-L4",
        "funnel-basis-1-L4",
        "funnel-basis-2-L4",
        "funnel-basis-1-L5-boundary",
    ],
)
def test_plane_branch_certifies_only_its_shortest_geodesic(
    basis, length, word
):
    report = classify_manifold(
        basis_group(basis), RunConfig(max_word_len=length)
    )
    if word is None:
        assert report.verdict.kind == "Inconclusive"
        assert re.fullmatch(
            "shortest hyperbolic word [ab' ]+ self-intersects within the "
            "bound",
            report.verdict.reason,
        )
    else:
        assert report.verdict.kind == "SimpleGeodesicFound"
        assert report.verdict.entry.word.name == word
        assert report.verdict.entry.length == pytest.approx(
            2 * math.acosh(2), rel=1e-12
        )


def spy_groups():
    groups = reference_groups()
    groups.append(("Gamma(2) basis", basis_group(NIELSEN_BASIS)))
    groups.append(("long Gamma(2) basis", basis_group(LONG_NIELSEN_BASIS)))
    return [pytest.param(group, id=name) for name, group in groups]


@pytest.mark.parametrize("group", spy_groups())
@pytest.mark.parametrize("length", range(1, 7))
def test_a_verdict_checks_at_most_one_geodesic(monkeypatch, group, length):
    calls = []
    check = loxo.pipeline.simplicity_check

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(loxo.pipeline, "simplicity_check", counted)
    classify_manifold(group, RunConfig(max_word_len=length))
    assert len(calls) <= 1


# entries near 20^7 make the determinant of a length-7 product, taken from
# its entries, cancel to 0; the product itself is exact
NEAR_SINGULAR_GROUP = (((19, 2), (9, 1)), ((1, 0), (3, 1)))


def test_singular_ball_product_is_inconclusive():
    # products are taken as computed, so the group's funnel boundary is
    # certified at lengths whose determinants cancel
    group = GroupPresentation(
        [MoebiusIsometry(a, b, c, d) for (a, b), (c, d) in NEAR_SINGULAR_GROUP]
    )
    for length in (7, 8):
        report = classify_manifold(group, RunConfig(max_word_len=length))
        assert report.exit_code == EXIT_OK
        assert report.verdict.kind == "SimpleGeodesicFound"
        assert report.verdict.entry.word.name == "a b' b' b' b'"


# a thrice_punctured conjugate whose generator products have real traces:
# a screw, or a trace where classify raises AmbiguousClass, in its ball is
# an artefact of roundoff
AMBIGUOUS_GROUP = (
    (
        (1.989319748322289 - 5.5290098822471805j),
        (2.68438787963553 + 2.839137364493291j),
        (7.237622895049871 - 3.5794708857053683j),
        (0.010680251677711361 + 5.529009882247181j),
    ),
    (
        (-2.7488996512306665 - 5.694820025373096j),
        (6.4562319246045705 + 0.7679512851804888j),
        (2.0309559394142296 - 6.855127472889543j),
        (4.748899651230666 + 5.694820025373096j),
    ),
)
# products of length 4 overflow to entries that are not finite
OVERFLOW_GROUP = ((1e100, 0, 0, 1e-100), (1, 1e100, 0, 1))
# every fixed point of a, b and a b is nan: no circle passes through three
NAN_PLANE_GROUP = ((1e160, 0, 0, 1e-160), (1, 1e160, 0, 1))
# the generator a has trace (2 - 0.9e-9) + 0.9e-9 i, in the band where
# classify raises AmbiguousClass
AMBIGUOUS_GENERATOR_GROUP = (
    ((2 - 0.9e-9) + 0.9e-9j, -1, 1, 0),
    (2, 1, 1, 1),
)


FUNNEL_GROUP = ((1, 2, 0, 1), (1, 0, 3, 1))

BELOW_CUTOFF = (
    "ball preserves a plane but contains no hyperbolic word below the "
    "length cutoff"
)
NO_LOXODROMIC = (
    "generators pass the non-elementary test but the ball shows no "
    "certifiable loxodromic geodesic"
)


@pytest.fixture
def ambiguous_stream(monkeypatch):
    """Once the shortest-candidate kernel starts, every ball row's kind is
    ambiguous and classify in loxo.enumeration raises AmbiguousClass."""
    kernel = loxo.pipeline.shortest

    def ambiguous_rows(ball, tol_trace):
        return np.full(len(ball), loxo.enumeration._AMBIGUOUS, dtype=np.int8)

    def ambiguous(m, tol_trace):
        raise AmbiguousClass("real trace %r" % (m.trace,))

    def shortest(*args, **kwargs):
        monkeypatch.setattr(
            loxo.enumeration.Ball, "trace_kinds", ambiguous_rows
        )
        monkeypatch.setattr(loxo.enumeration, "classify", ambiguous)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(loxo.pipeline, "shortest", shortest)


def test_gamma_2_conjugate_has_no_screw():
    # every generator-product trace of the group is real, so no ball word
    # is a screw, and no row's trace falls where classify raises
    group = GroupPresentation([MoebiusIsometry(*m) for m in AMBIGUOUS_GROUP])
    ball = enumerate_ball(group, 9)
    kinds = ball.trace_kinds(TOL_TRACE)
    assert not (kinds == loxo.enumeration._AMBIGUOUS).any()
    assert shortest_screw(group, 9, ball=ball) is None


def test_ambiguous_group_gives_thrice_punctured_evidence():
    group = GroupPresentation([MoebiusIsometry(*m) for m in AMBIGUOUS_GROUP])
    report = classify_manifold(group, RunConfig(max_word_len=9))
    assert report.exit_code == EXIT_OK
    assert report.verdict.kind == "ThricePuncturedSphereEvidence"


def figure_eight_nielsen_draw():
    """figure_eight after a -> a b', then b -> b a twice."""
    group, _ = load_group_file(fixture("figure_eight.json"))
    a, b = group.generators
    a = a * b.inverse()
    return GroupPresentation([a, b * a * a], group.labels)


def test_screw_search_skips_rows_classify_cannot_call_screws():
    # the generator a has a trace in the band where classify raises, and
    # so have 190 rows of its length-8 ball, a first; the screw search
    # reads no ambiguous row, as none is a screw
    group = GroupPresentation(
        [MoebiusIsometry(*m) for m in AMBIGUOUS_GENERATOR_GROUP]
    )
    ball = enumerate_ball(group, 8)
    ambiguous = np.flatnonzero(
        ball.trace_kinds(TOL_TRACE) == loxo.enumeration._AMBIGUOUS
    )
    assert ambiguous.size == 190
    assert ball[int(ambiguous[0])].name == "a"
    for i in ambiguous.tolist():
        with pytest.raises(AmbiguousClass):
            classify(ball[i].matrix)
    assert shortest_screw(group, 8, ball=ball).kind == "screw"
    group = figure_eight_nielsen_draw()
    for length in (6, 7, 8):
        report = classify_manifold(group, RunConfig(max_word_len=length))
        assert report.verdict.kind == "SimpleGeodesicFound"


def test_figure_eight_nielsen_draw_certifies_the_systole():
    group = figure_eight_nielsen_draw()
    report = classify_manifold(group, RunConfig(max_word_len=8))
    assert report.verdict.kind == "SimpleGeodesicFound"
    assert abs(report.verdict.entry.length - 1.08707014499574) <= 1e-9


# Gamma(2) groups with the cusp pattern: the fixture, AMBIGUOUS_GROUP (the
# thrice_punctured conjugate of perfbench's verdict workload) and a large
# diagonal conjugate
def cusp_pattern_groups():
    k = 300.0
    return [
        pytest.param(load_group_file(fixture("thrice_punctured.json"))[0],
                     id="thrice_punctured"),
        pytest.param(
            GroupPresentation([MoebiusIsometry(*m) for m in AMBIGUOUS_GROUP]),
            id="conjugate",
        ),
        pytest.param(
            GroupPresentation([
                MoebiusIsometry(1, 2 * k * k, 0, 1),
                MoebiusIsometry(1, 0, 2 / (k * k), 1),
            ]),
            id="diagonal_conjugate",
        ),
    ]


@pytest.mark.parametrize("group", cusp_pattern_groups())
@pytest.mark.parametrize("length", [6, 12])
def test_cusp_pattern_evidence_builds_no_ball_past_length_2(
    ball_lengths, group, length
):
    report = classify_manifold(group, RunConfig(max_word_len=length))
    assert report.verdict.kind == "ThricePuncturedSphereEvidence"
    assert ball_lengths == [2]


@pytest.mark.parametrize("group", cusp_pattern_groups())
@pytest.mark.parametrize("length", range(2, 9))
def test_cusp_pattern_report_equals_full_ball_evidence(group, length):
    config = RunConfig(max_word_len=length)
    evidence = thrice_punctured_test(
        group, length, ball=enumerate_ball(group, length)
    )
    assert evidence is not None
    expected = ManifoldReport(evidence, config, jorgensen_warnings(group))
    report = classify_manifold(group, config)
    for fmt in ("json", "text"):
        assert emit_report(report, fmt) == emit_report(expected, fmt)


@pytest.mark.parametrize(
    "kernel, stage",
    [
        ("parabolic_generator_pair", "plane test up to length 4"),
        # thrice_punctured_test builds the short ball itself
        ("enumerate_ball", "plane test up to length 4"),
        ("fuchsian_test", "plane test up to length 4"),
    ],
)
def test_cusp_pattern_stages_name_their_failure(monkeypatch, kernel, stage):
    # the kernels thrice_punctured_test calls
    def fail(*args, **kwargs):
        raise NearSingular("forced")

    monkeypatch.setattr(loxo.enumeration, kernel, fail)
    group, _ = load_group_file(fixture("thrice_punctured.json"))
    report = classify_manifold(group, RunConfig(max_word_len=4))
    assert report.verdict.reason == stage + " failed: NearSingular: forced"


def test_cusp_pattern_budget_below_the_short_ball_raises(monkeypatch):
    # the ball of length 2 holds 16 words
    group, _ = load_group_file(fixture("thrice_punctured.json"))
    monkeypatch.setattr(loxo.enumeration, "DEFAULT_CAP", 16)
    assert classify_manifold(group).verdict.kind == (
        "ThricePuncturedSphereEvidence"
    )
    monkeypatch.setattr(loxo.enumeration, "DEFAULT_CAP", 15)
    with pytest.raises(BudgetExceeded):
        classify_manifold(group)


def one_ball_groups():
    """(group, whether it has the cusp pattern): the reference groups and a
    seeded conjugate of thrice_punctured."""
    groups = dict(reference_groups())
    g = random_isometry(seeded("one ball per verdict"))
    groups["thrice_punctured conjugate"] = GroupPresentation(
        [m.conjugate_by(g) for m in groups["thrice_punctured"].generators]
    )
    return [
        pytest.param(group, name.startswith("thrice_punctured"), id=name)
        for name, group in groups.items()
    ]


@pytest.mark.parametrize("group, cusp_pattern", one_ball_groups())
@pytest.mark.parametrize("length", range(1, 7))
def test_a_verdict_builds_at_most_one_ball(
    ball_lengths, group, cusp_pattern, length
):
    pair = parabolic_generator_pair(group, TOL_TRACE)
    assert (pair is not None) == cusp_pattern
    classify_manifold(group, RunConfig(max_word_len=length))
    assert ball_lengths in (
        [], [min(length, 2) if cusp_pattern else length]
    )


def forbid_plane_walk(monkeypatch):
    """From here on fuchsian_test raises, in loxo.enumeration and in any
    module that binds its own copy of the name."""
    def fail(*args, **kwargs):
        raise AssertionError("plane walk run")

    for module in (loxo.enumeration, loxo.pipeline):
        if hasattr(module, "fuchsian_test"):
            monkeypatch.setattr(module, "fuchsian_test", fail)


def test_verdicts_outside_the_cusp_pattern_walk_no_plane(monkeypatch):
    # a preserved plane is evidence only for the cusp pattern: any other
    # verdict is its shortest geodesic and one simplicity check
    cases = [
        (name, group, length)
        for name, group in reference_groups() + float_groups()
        if parabolic_generator_pair(group, TOL_TRACE) is None
        for length in (4, 5, 6)
    ]
    expected = [
        emit_report(classify_manifold(group, RunConfig(length)))
        for _, group, length in cases
    ]
    forbid_plane_walk(monkeypatch)
    for (name, group, length), want in zip(cases, expected):
        got = emit_report(classify_manifold(group, RunConfig(length)))
        assert got == want, (name, length)


@pytest.mark.parametrize(
    "group, length",
    [
        pytest.param(
            GroupPresentation([MoebiusIsometry(*m) for m in FUNNEL_GROUP]),
            1,
            id="funnel-1",
        ),
    ] + [
        pytest.param(
            GroupPresentation(
                [MoebiusIsometry(0, -1, 1, 0), MoebiusIsometry(1, 1, 0, 1)]
            ),
            length,
            id="modular-%d" % length,
        )
        for length in (1, 2, 3)
    ],
)
def test_real_ball_without_hyperbolic_word_shows_no_geodesic(
    monkeypatch, group, length
):
    # parabolic and elliptic words only: the verdict needs no plane
    ball = enumerate_ball(group, length)
    assert "hyperbolic" not in {classify(w.matrix) for w in ball}
    forbid_plane_walk(monkeypatch)
    report = classify_manifold(group, RunConfig(length))
    assert report.verdict.reason == NO_LOXODROMIC


@pytest.mark.parametrize("group", cusp_pattern_groups())
@pytest.mark.parametrize("length", [4, 6])
def test_cusp_pattern_without_plane_reads_the_full_ball(
    monkeypatch, ball_lengths, group, length
):
    # the short ball is made to show no plane: the group is then decided
    # like any other, on the ball of its word bound
    def no_plane(*args, **kwargs):
        return FuchsianResult("elementary")

    read = []

    def reading(kernel):
        # shortest takes its ball first, simplicity_check by keyword
        def wrapped(*args, **kwargs):
            ball = kwargs["ball"] if "ball" in kwargs else args[0]
            read.append((kernel.__name__, len(ball)))
            return kernel(*args, **kwargs)
        return wrapped

    # the thrice-punctured sphere has no simple closed geodesic that is not
    # peripheral, so the shortest one crosses itself
    full = enumerate_ball(group, length)
    entry = shortest(full, ("hyperbolic",), TOL_TRACE)
    assert not simplicity_check(group, entry.axis, length, ball=full).is_simple
    config = RunConfig(length)
    expected = ManifoldReport(
        Inconclusive(
            "shortest hyperbolic word %s self-intersects within the bound"
            % entry.word.name
        ),
        config,
        jorgensen_warnings(group),
    )
    monkeypatch.setattr(loxo.enumeration, "fuchsian_test", no_plane)
    for name in ("shortest", "simplicity_check"):
        monkeypatch.setattr(
            loxo.pipeline, name, reading(getattr(loxo.pipeline, name))
        )
    report = classify_manifold(group, config)
    assert ball_lengths == [2, length]
    assert read == [("shortest", len(full)), ("simplicity_check", len(full))]
    assert emit_report(report) == emit_report(expected)


def test_ambiguous_trace_is_inconclusive(ambiguous_stream):
    group = GroupPresentation([MoebiusIsometry(*m) for m in FUNNEL_GROUP])
    report = classify_manifold(group, RunConfig(max_word_len=4))
    assert report.exit_code == EXIT_INCONCLUSIVE
    assert report.verdict.reason.startswith(
        "geodesic stream up to length 4 failed: AmbiguousClass: real trace"
    )


def test_ambiguous_generator_is_inconclusive():
    group = GroupPresentation(
        [MoebiusIsometry(*m) for m in AMBIGUOUS_GENERATOR_GROUP]
    )
    report = classify_manifold(group, RunConfig(max_word_len=4))
    assert report.exit_code == EXIT_INCONCLUSIVE
    assert report.verdict.reason.startswith(
        "elementary test failed: AmbiguousClass: real trace"
    )


@pytest.mark.parametrize(
    "kernel, stage",
    [
        ("elementary_test", "elementary test"),
        ("enumerate_ball", "word ball up to length 4"),
        ("thrice_punctured_test", "plane test up to length 4"),
        ("shortest", "shortest screw search up to length 4"),
        ("simplicity_check", "simplicity check of a b"),
    ],
)
def test_each_stage_names_its_failure(monkeypatch, kernel, stage):
    def fail(*args, **kwargs):
        raise NearSingular("forced")

    monkeypatch.setattr(loxo.pipeline, kernel, fail)
    group, _ = load_group_file(fixture("figure_eight.json"))
    report = classify_manifold(group, RunConfig(max_word_len=4))
    assert report.exit_code == EXIT_INCONCLUSIVE
    assert report.verdict.reason == stage + " failed: NearSingular: forced"


def test_budget_exceeded_propagates(monkeypatch):
    monkeypatch.setattr(loxo.enumeration, "DEFAULT_CAP", 10)
    group, _ = load_group_file(fixture("figure_eight.json"))
    with pytest.raises(BudgetExceeded):
        classify_manifold(group, RunConfig(max_word_len=3))


def test_overflowing_ball_is_inconclusive():
    group = GroupPresentation([MoebiusIsometry(*m) for m in OVERFLOW_GROUP])
    report = classify_manifold(group, RunConfig(max_word_len=4))
    assert report.exit_code == EXIT_INCONCLUSIVE
    assert report.verdict.reason.startswith(
        "word ball up to length 4 failed: NearSingular: entries"
    )


def test_inconclusive_requires_reason():
    with pytest.raises(ValueError):
        Inconclusive("")


def test_dihedral_pair_of_inversions_certifies_core():
    group = GroupPresentation(
        [MoebiusIsometry(0, 1, 1, 0), MoebiusIsometry(0, 4, 1, 0)]
    )
    report = classify_manifold(group, RunConfig(max_word_len=4))
    assert report.verdict.kind == "SimpleGeodesicFound"
    data = report.to_dict()
    assert abs(data["geodesic"]["length"] - 2 * math.log(2)) < 1e-9


GOLDEN_REPORTS = os.path.join(os.path.dirname(__file__), "golden_reports.json")


def current_reports():
    """emit_report's JSON of classify_manifold on the reference groups at
    word lengths 4 and 6, keyed as in golden_reports.json.  A change that
    alters reports on purpose rewrites that file with
    json.dump(current_reports(), handle, indent=1, sort_keys=True)."""
    return {
        "%s L=%d" % (name, length): json.loads(
            emit_report(classify_manifold(group, RunConfig(length)), "json")
        )
        for name, group in reference_groups()
        for length in (4, 6)
    }


def assert_same_report(got, want, where):
    """Strings, ints, booleans and nulls equal; floats within a relative
    1e-12, so that another libm cannot fail the comparison."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same_report(got[key], want[key], where + "." + key)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for index, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, "%s[%d]" % (where, index))
    else:
        assert type(got) is type(want) and got == want, where


def test_reports_match_golden_reports():
    with open(GOLDEN_REPORTS, encoding="utf-8") as handle:
        golden = json.load(handle)
    current = current_reports()
    assert sorted(current) == sorted(golden)
    for key in golden:
        assert_same_report(current[key], golden[key], key)


def test_reports_are_deterministic():
    group, _ = load_group_file(fixture("figure_eight.json"))
    first = emit_report(classify_manifold(group), "json")
    second = emit_report(classify_manifold(group), "json")
    assert first == second
    assert emit_report(classify_manifold(group), "text") == emit_report(
        classify_manifold(group), "text"
    )


def test_json_report_round_trips():
    group, _ = load_group_file(fixture("thrice_punctured.json"))
    report = classify_manifold(group)
    data = json.loads(emit_report(report, "json"))
    assert data["verdict"] == "ThricePuncturedSphereEvidence"
    assert data["config"]["max_word_len"] == 6


def test_text_report_marks_unbounded_tube():
    group, _ = load_group_file(fixture("diag_hyperbolic.json"))
    text = emit_report(classify_manifold(group), "text")
    assert "simplicity.tube_radius_lower: unbounded" in text


# ---------------------------------------------------------------------------
# CLI


def test_readme_options_exist():
    # every --option the README names must be accepted by some subcommand
    accepted = set()
    for action in build_parser()._subparsers._group_actions:
        for sub in action.choices.values():
            for option in sub._actions:
                accepted.update(option.option_strings)
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    named = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("pip "):
                continue  # pip's own options
            named.update(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
    assert named, "README names no options"
    assert named <= accepted, sorted(named - accepted)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_classify_manifold_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify-manifold",
        fixture("thrice_punctured.json"),
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "ThricePuncturedSphereEvidence"


def test_cli_classify_manifold_deterministic(capsys):
    args = (
        "classify-manifold",
        fixture("figure_eight.json"),
        "--format",
        "json",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_missing_file(capsys):
    code, _, err = run_cli(
        capsys, "classify-manifold", fixture("absent.json")
    )
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_cli_bad_word_len(capsys):
    code, _, err = run_cli(
        capsys,
        "classify-manifold",
        fixture("single_parabolic.json"),
        "--max-word-len",
        "13",
    )
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_cli_non_finite_group_file_exits_input_error(tmp_path, capsys):
    for index, text in enumerate(NON_FINITE_GROUPS):
        path = tmp_path / ("case%d.json" % index)
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "classify-manifold", str(path))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify-element", "--matrix", "nan", "0", "1", "0", "1", "0", "2", "0"],
        ["classify-element", "--matrix", "2", "0", "0", "0", "0", "0", "0.5",
         "0", "--tol", "nan"],
        ["decompose", "--matrix", "1", "0", "2", "0", "0", "0", "1", "0",
         "--free-point", "inf", "0"],
        ["cusp-depth", "nan", "--invert"],
        ["classify-manifold", fixture("figure_eight.json"), "--cutoff", "inf"],
    ],
)
def test_cli_rejects_non_finite_floats(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify-manifold", fixture("thrice_punctured.json"), "--tol=-1e-12"],
        ["classify-manifold", fixture("figure_eight.json"), "--tol", "-1"],
        ["ball", fixture("figure_eight.json"), "--tol=-1"],
        ["classify-element", "--matrix", "2", "0", "0", "0", "0", "0", "0.5",
         "0", "--tol=-1e-9"],
    ],
)
def test_cli_rejects_negative_tolerance(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "negative tolerance" in capsys.readouterr().err


def test_cli_zero_tolerance_runs(capsys):
    code, out, _ = run_cli(
        capsys, "classify-manifold", fixture("thrice_punctured.json"),
        "--tol", "0", "--max-word-len", "4", "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["config"]["tol_trace"] == 0.0


def test_cli_classify_element(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify-element",
        "--matrix", "2", "0", "0", "0", "0", "0", "0.5", "0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "hyperbolic"
    assert abs(data["length"] - 2 * math.log(2)) < 1e-12


# classify-element's text report of a matrix of each kind
CLASSIFY_ELEMENT_REPORTS = [
    (
        "1 0 0 0 0 0 1 0",
        'angle: null\nkind: "identity"\nlength: null\ntrace: [2.0, 0.0]\n',
    ),
    (
        "1 0 1 0 0 0 1 0",
        'angle: null\nkind: "parabolic"\nlength: null\ntrace: [2.0, 0.0]\n',
    ),
    (
        "0.8775825618903728 0.479425538604203 0 0 0 0 0.8775825618903728 "
        "-0.479425538604203",
        'angle: 1.0\nkind: "elliptic"\nlength: null\n'
        "trace: [1.7551651237807455, 0.0]\n",
    ),
    (
        "2 0 0 0 0 0 0.5 0",
        'angle: null\nkind: "hyperbolic"\nlength: 1.3862943611198906\n'
        "trace: [2.5, 0.0]\n",
    ),
    (
        "2 1 0 0 0 0 0.4 -0.2",
        'angle: 0.9272952180016123\nkind: "screw"\nlength: 1.6094379124341\n'
        "trace: [2.4, 0.8]\n",
    ),
]


@pytest.mark.parametrize(
    "matrix, report",
    CLASSIFY_ELEMENT_REPORTS,
    ids=["identity", "parabolic", "elliptic", "hyperbolic", "screw"],
)
def test_cli_classify_element_reports_each_kind(capsys, matrix, report):
    code, out, _ = run_cli(
        capsys, "classify-element", "--matrix", *matrix.split()
    )
    assert code == EXIT_OK
    assert out == report


def test_cli_decompose_translation(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose",
        "--matrix", "1", "0", "2", "0", "0", "0", "1", "0",
        "--free-point", "0", "0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "parabolic"
    assert data["second_axis"] == ["inf", [0.0, 0.0]]
    assert data["first_axis"] == ["inf", [1.0, 0.0]]


def test_cli_decompose_takes_one_free_choice(capsys):
    # with both, the free line of this hyperbolic input used to be dropped
    with pytest.raises(SystemExit) as exc:
        main([
            "decompose", "--matrix", "2", "0", "0", "0", "0", "0", "0.5", "0",
            "--free-point", "0", "0", "--free-line", "-1", "0", "1", "0",
        ])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_shared_decomposition(capsys):
    code, out, _ = run_cli(
        capsys,
        "shared-decomposition",
        "--first", "1", "0", "2", "0", "0", "0", "1", "0",
        "--second", "1", "0", "0", "0", "2", "0", "1", "0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["shared_axis"] == ["inf", [0.0, 0.0]]


def test_cli_invariant_plane(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariant-plane",
        "--first", "1", "0", "2", "0", "0", "0", "1", "0",
        "--second", "1", "0", "0", "0", "2", "0", "1", "0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["plane"]["coefficient_a"] == 0.0
    assert data["plane"]["coefficient_b"] == [0.0, 1.0]
    assert data["plane"]["coefficient_c"] == 0.0


def test_cli_invariant_plane_rejects_screw_pair(capsys):
    code, _, err = run_cli(
        capsys,
        "invariant-plane",
        "--first", "1", "0", "1", "0", "0", "0", "1", "0",
        "--second", "1", "0", "0", "0", "-0.5", "-0.8660254037844386", "1", "0",
    )
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_cli_ball_counts(capsys):
    code, out, _ = run_cli(
        capsys,
        "ball",
        fixture("single_parabolic.json"),
        "--max-word-len", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 6
    assert data["words"][:2] == ["a", "a'"]


def test_cli_ball_text(capsys):
    code, out, _ = run_cli(
        capsys,
        "ball",
        fixture("single_parabolic.json"),
        "--max-word-len", "2",
    )
    assert code == 0
    assert out.splitlines() == ["count: 4", "a", "a'", "a a", "a' a'"]


def test_cli_spectrum(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        fixture("diag_hyperbolic.json"),
        "--max-word-len", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert [e["word"] for e in data["entries"]] == ["a", "a a", "a a a"]


FIGURE_EIGHT_SPECTRUM_TEXT = [
    "1.087070145 -1.72276844987 screw a b",
    "1.66288589106 -2.39212378817 screw a a b",
    "1.66288589106 -2.39212378817 screw a b b",
    "1.72510925532 0.921838931481 screw a b'",
    "2.41611328691 1.20868579318 screw a a b'",
    "2.41611328691 1.20868579318 screw a b' b'",
]


@pytest.mark.parametrize(
    "cutoff, lines",
    [("12", FIGURE_EIGHT_SPECTRUM_TEXT), ("0.5", [])],
    ids=["all", "below-every-length"],
)
def test_cli_spectrum_text(capsys, cutoff, lines):
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        fixture("figure_eight.json"),
        "--max-word-len", "3",
        "--format", "text",
        "--cutoff", cutoff,
    )
    assert code == EXIT_OK
    assert out == "".join(line + "\n" for line in lines)


def test_cli_shortest_screw(capsys):
    code, out, _ = run_cli(
        capsys,
        "shortest-screw",
        fixture("figure_eight.json"),
        "--max-word-len", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["found"] is True
    assert data["entry"]["word"] == "a b"

    code, out, _ = run_cli(
        capsys,
        "shortest-screw",
        fixture("thrice_punctured.json"),
        "--max-word-len", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["found"] is False


def test_cli_check_simple(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-simple",
        fixture("thrice_punctured.json"),
        "a b",
        "--max-word-len", "6",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "a b"
    assert data["simplicity"]["verdict"] == "self_intersecting"
    assert data["simplicity"]["witness"]


def test_cli_check_simple_ignores_trace_tolerance(capsys):
    # the translate test's band takes TOL_TRACE, not --tol
    outs = set()
    for tol in ("0", "1e-9", "0.5"):
        code, out, _ = run_cli(
            capsys,
            "check-simple",
            fixture("figure_eight.json"),
            "a b",
            "--tol", tol,
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_cli_check_simple_bad_word(capsys):
    code, _, err = run_cli(
        capsys,
        "check-simple",
        fixture("thrice_punctured.json"),
        "a z",
    )
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_cli_cusp_depth(capsys):
    code, out, _ = run_cli(
        capsys, "cusp-depth", "0.5", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["depth"] - 0.6827521295671886) < 1e-15

    code, out, _ = run_cli(
        capsys, "cusp-depth", "1.0", "--invert", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["max_loop_length"] - 2 * math.asinh(math.exp(-1) / 2)) < 1e-15

    code, _, err = run_cli(capsys, "cusp-depth", "1.5")
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_cli_det_warning_surfaces(tmp_path, capsys):
    path = tmp_path / "scaled.json"
    path.write_text(
        json.dumps(
            {
                "generators": [
                    {"label": "a", "matrix": [[[4, 0], [0, 0]], [[0, 0], [1, 0]]]}
                ]
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "classify-manifold", str(path), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert any("rescaled" in w for w in data["warnings"])


def test_cli_singular_ball_product_exits_inconclusive(tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(
        json.dumps(
            {
                "generators": [
                    {
                        "label": label,
                        "matrix": [[[x, 0] for x in row] for row in rows],
                    }
                    for label, rows in zip("ab", NEAR_SINGULAR_GROUP)
                ]
            }
        ),
        encoding="utf-8",
    )
    for length in ("7", "8"):
        code, out, _ = run_cli(
            capsys,
            "classify-manifold",
            str(path),
            "--max-word-len",
            length,
            "--format",
            "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "SimpleGeodesicFound"
        assert report["geodesic"]["word"] == "a b' b' b' b'"


def write_raw_group(path, generators):
    # entries as given: the loader, not MoebiusIsometry, normalizes them
    path.write_text(
        json.dumps(
            {
                "generators": [
                    {
                        "label": label,
                        "matrix": [
                            [[complex(z).real, complex(z).imag] for z in row]
                            for row in (m[:2], m[2:])
                        ],
                    }
                    for label, m in zip("ab", generators)
                ]
            }
        ),
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    "generators, length, prefix",
    [
        (FUNNEL_GROUP, "4", "geodesic stream up to length 4"),
        (OVERFLOW_GROUP, "4", "word ball up to length 4"),
        # below length 4 the ball builds, and its shortest hyperbolic
        # word, a, translates by 460: no plane is fitted to the pair whose
        # fixed points overflow
        (OVERFLOW_GROUP, "1", BELOW_CUTOFF),
        (OVERFLOW_GROUP, "2", BELOW_CUTOFF),
        (OVERFLOW_GROUP, "3", BELOW_CUTOFF),
        (
            AMBIGUOUS_GENERATOR_GROUP,
            "4",
            "elementary test failed: AmbiguousClass: real trace",
        ),
        (NAN_PLANE_GROUP, "1", BELOW_CUTOFF),
    ],
    ids=[
        "ambiguous_trace",
        "overflow",
        "overflow_1",
        "overflow_plane_2",
        "overflow_plane_3",
        "ambiguous_generator",
        "nan_plane",
    ],
)
def test_cli_kernel_failures_exit_inconclusive(
    request, tmp_path, capsys, generators, length, prefix
):
    if generators is FUNNEL_GROUP:
        # the funnel group has no such trace: classify is made to raise
        request.getfixturevalue("ambiguous_stream")
    path = tmp_path / "group.json"
    write_raw_group(path, generators)
    code, out, err = run_cli(
        capsys,
        "classify-manifold",
        str(path),
        "--max-word-len",
        length,
        "--format",
        "json",
    )
    assert code == EXIT_INCONCLUSIVE
    data = json.loads(out)
    assert data["verdict"] == "Inconclusive"
    assert data["reason"].startswith(prefix)
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [["ball"], ["spectrum"], ["shortest-screw"], ["check-simple", "a"]],
    ids=lambda argv: argv[0],
)
def test_cli_ball_commands_exit_inconclusive_on_overflow(
    tmp_path, capsys, argv
):
    # the ball of NAN_PLANE_GROUP overflows at length 3: a failure of the
    # search, not of the input, as classify-manifold reports it
    path = tmp_path / "group.json"
    write_raw_group(path, NAN_PLANE_GROUP)
    code, out, err = run_cli(
        capsys, argv[0], str(path), *argv[1:], "--max-word-len", "3"
    )
    assert code == EXIT_INCONCLUSIVE
    assert out == ""
    assert err.startswith("error: entries")
    assert "are not finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["check-simple", fixture("thrice_punctured.json"), "a"],
            "parabolic input has no axis",
        ),
        (
            ["classify-element", "--matrix", "1", "0", "2", "0", "0.5", "0",
             "1", "0"],
            "too close to zero",
        ),
    ],
    ids=["parabolic_word", "singular_matrix"],
)
def test_cli_input_library_errors_exit_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert message in err
