import cmath
import json
import math
import os
import re

import pytest

import loxo.pipeline
from loxo.cli import build_parser, main
from loxo.enumeration import GroupPresentation
from loxo.errors import (
    DuplicateLabel,
    IdentityGenerator,
    OutOfRange,
    ParseError,
    SingularGenerator,
)
from loxo.isometry import MoebiusIsometry
from loxo.pipeline import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    Inconclusive,
    RunConfig,
    classify_manifold,
    emit_report,
    load_group_file,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


# ---------------------------------------------------------------------------
# RunConfig


def test_config_defaults():
    config = RunConfig()
    assert config.max_word_len == 6
    assert config.length_cutoff == 12.0
    assert config.cap == 10**7
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
        RunConfig(cap=0)


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


def test_verdicts_without_spectrum(monkeypatch):
    # the screw and thrice-punctured branches never read the spectrum
    def no_spectrum(*args, **kwargs):
        raise AssertionError("spectrum built on a branch that does not read it")

    monkeypatch.setattr(loxo.pipeline, "spectrum", no_spectrum)
    config = RunConfig(max_word_len=4)
    for name, kind in (
        ("figure_eight.json", "SimpleGeodesicFound"),
        ("thrice_punctured.json", "ThricePuncturedSphereEvidence"),
    ):
        group, _ = load_group_file(fixture(name))
        assert classify_manifold(group, config).verdict.kind == kind


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
