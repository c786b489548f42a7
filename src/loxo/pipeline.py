"""End-to-end search: from a generating set to a certified geodesic verdict.

The trichotomy implemented here: an elementary group is reported as such
(with its preserved axis geodesic certified when there is one); a group
whose generator products all have real traces keeps an oriented plane, and
is matched against the doubly-cusped plane group or otherwise has its
shortest hyperbolic geodesic checked for simplicity; a group with a screw
word has its shortest screw checked.  Every conclusive verdict carries the
witnessing word and certificate data; anything short of that is an
explicit Inconclusive with a reason.
"""

import cmath
import json
import math

from .certification import simplicity_check
from .enumeration import (
    DEFAULT_CAP,
    DEFAULT_CUTOFF,
    DEFAULT_WORD_LEN,
    GroupPresentation,
    SpectrumEntry,
    _character_screw,
    _spells_letters,
    elementary_test,
    enumerate_ball,
    jorgensen_warnings,
    shortest,
    thrice_punctured_test,
)
from .errors import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    BudgetExceeded,
    DuplicateLabel,
    IdentityGenerator,
    LoxoError,
    NearSingular,
    OutOfRange,
    ParseError,
    SingularGenerator,
)
from .geometry import axis_of, line_json, same_line
from .isometry import (
    TOL_DET,
    TOL_TRACE,
    MoebiusIsometry,
    classify,
    complex_length,
)

MAX_WORD_LEN_LIMIT = 12
# load_group_file warns when a generator's determinant is this far from 1
RESCALE_WARN_TOL = 1e-9


def _is_number(value):
    # a JSON number; a bool is an int to Python but not a number here
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class RunConfig:
    """Knobs for the search: word bound, length cutoff, tolerance."""

    __slots__ = ("max_word_len", "length_cutoff", "tol_trace")

    def __init__(
        self,
        max_word_len=DEFAULT_WORD_LEN,
        length_cutoff=DEFAULT_CUTOFF,
        tol_trace=TOL_TRACE,
    ):
        if (
            not isinstance(max_word_len, int)
            or isinstance(max_word_len, bool)
            or not 1 <= max_word_len <= MAX_WORD_LEN_LIMIT
        ):
            raise OutOfRange(
                "word bound must lie in 1..%d, got %r"
                % (MAX_WORD_LEN_LIMIT, max_word_len)
            )
        if not _is_number(length_cutoff) or not 0 < length_cutoff < math.inf:
            raise OutOfRange(
                "length cutoff must be a positive finite number, got %r"
                % (length_cutoff,)
            )
        if not _is_number(tol_trace) or not 0 <= tol_trace < math.inf:
            raise OutOfRange(
                "trace tolerance must be a nonnegative finite number, got %r"
                % (tol_trace,)
            )
        self.max_word_len = max_word_len
        self.length_cutoff = length_cutoff
        self.tol_trace = tol_trace

    def to_dict(self):
        return {
            "max_word_len": self.max_word_len,
            "length_cutoff": self.length_cutoff,
            "tol_trace": self.tol_trace,
            "cap": DEFAULT_CAP,
        }


def entry_json(entry):
    return {
        "word": entry.word.name,
        "kind": entry.kind,
        "length": entry.length,
        "angle": entry.angle,
        "axis": line_json(entry.axis),
    }


def simplicity_json(report):
    data = {
        "verdict": report.verdict,
        "witness": report.witness.name if report.witness else None,
        "distance": report.distance,
        "angle": report.angle,
    }
    if report.verdict == "simple_up_to_bound":
        # null stands for an unbounded tube; crossing reports have no bound
        bound = report.tube_radius_lower
        data["tube_radius_lower"] = None if math.isinf(bound) else bound
    return data


class SimpleGeodesicFound:
    """A geodesic with a simplicity certificate at the word bound."""

    kind = "SimpleGeodesicFound"
    exit_code = EXIT_OK
    __slots__ = ("entry", "report")

    def __init__(self, entry, report):
        self.entry = entry
        self.report = report

    def detail(self):
        return {
            "geodesic": entry_json(self.entry),
            "simplicity": simplicity_json(self.report),
        }


class Elementary:
    """At most one limit point: no closed geodesics to hunt."""

    kind = "Elementary"
    exit_code = EXIT_OK
    __slots__ = ("limit_points",)

    def __init__(self, limit_points):
        self.limit_points = limit_points

    def detail(self):
        return {"limit_points": self.limit_points}


class Inconclusive:
    """The bounded search neither certified nor refuted anything."""

    kind = "Inconclusive"
    exit_code = EXIT_INCONCLUSIVE
    __slots__ = ("reason",)

    def __init__(self, reason):
        if not reason:
            raise ValueError("an inconclusive verdict needs a reason")
        self.reason = reason

    def detail(self):
        return {"reason": self.reason}


class ManifoldReport:
    """Verdict plus the configuration and advisories that produced it."""

    __slots__ = ("verdict", "config", "warnings")

    def __init__(self, verdict, config, warnings):
        self.verdict = verdict
        self.config = config
        self.warnings = warnings

    @property
    def exit_code(self):
        return self.verdict.exit_code

    def to_dict(self):
        data = {
            "verdict": self.verdict.kind,
            "config": self.config.to_dict(),
            "warnings": list(self.warnings),
        }
        data.update(self.verdict.detail())
        return data


def _entry_from_word(word, tol_trace):
    kind = classify(word.matrix, tol_trace)
    cl = complex_length(word.matrix, tol_trace)
    return SpectrumEntry(
        word, kind, cl.length, cl.angle, axis_of(word.matrix, tol_trace)
    )


def classify_manifold(group, config=None):
    """Run the trichotomy on a generating set and report with evidence.

    Each branch names one candidate, its shortest geodesic, and one
    simplicity_check decides it: outside the cusp pattern a shortest
    geodesic that crosses itself resolves into shorter curves, so no longer
    candidate is tried.  A library error other than BudgetExceeded (a trace
    in the band where classify raises AmbiguousClass, a product that cannot
    be normalized, a plane that invariant_plane cannot fit) ends the search
    with an Inconclusive naming the stage that raised it.
    """
    if config is None:
        config = RunConfig()
    warnings = jorgensen_warnings(group)
    stage = ["elementary test"]
    try:
        verdict = _verdict(group, config, stage)
    except BudgetExceeded:
        raise
    except LoxoError as exc:
        verdict = Inconclusive(
            "%s failed: %s: %s" % (stage[0], type(exc).__name__, exc)
        )
    return ManifoldReport(verdict, config, warnings)


def _verdict(group, config, stage):
    """classify_manifold's verdict; stage[0] names the step running, for a
    report of what it raises."""
    length, tol_trace = config.max_word_len, config.tol_trace
    bound = " up to length %d" % length
    elem = elementary_test(group, tol_trace)
    if elem.verdict == "limit_points_0_or_1":
        return Elementary("0_or_1")
    if elem.verdict == "non_elementary":
        stage[0] = "plane test" + bound
        evidence = thrice_punctured_test(group, length, tol_trace)
        if evidence is not None:
            return evidence
    stage[0] = "word ball" + bound
    ball = enumerate_ball(group, length)

    cutoff = config.length_cutoff
    if elem.verdict == "limit_points_2":
        stage[0] = "geodesic stream" + bound
        entry = shortest(ball, ("hyperbolic", "screw"), tol_trace)
        if entry is not None and (
            entry.length > cutoff or not same_line(entry.axis, elem.axis)
        ):
            entry = None
        absent = (
            "two limit points, but the ball has no loxodromic word on the "
            "common axis below the length cutoff"
        )
    else:
        screw = _character_screw(group, tol_trace)
        if screw is not None:
            stage[0] = "shortest screw search" + bound
            entry = shortest(ball, ("screw",), tol_trace)
            if entry is None:
                # the character's screw is longer than the ball's words
                entry = _entry_from_word(group.word(screw), tol_trace)
        else:
            # real traces and a non-elementary group: the group keeps a
            # plane (B. Maskit, Kleinian Groups, 1988)
            stage[0] = "geodesic stream" + bound
            entry = shortest(ball, ("hyperbolic",), tol_trace)
            if entry is None:
                absent = (
                    "generators pass the non-elementary test but the ball "
                    "shows no certifiable loxodromic geodesic"
                )
            elif entry.length > cutoff:
                entry = None
                absent = (
                    "ball preserves a plane but contains no hyperbolic word "
                    "below the length cutoff"
                )
    if entry is None:
        return Inconclusive(absent)
    stage[0] = "simplicity check of " + entry.word.name
    report = simplicity_check(group, entry.axis, length, ball=ball)
    if report.is_simple:
        return SimpleGeodesicFound(entry, report)
    return Inconclusive(
        "shortest %s word %s self-intersects within the bound"
        % (entry.kind, entry.word.name)
    )


# ---------------------------------------------------------------------------
# group files


def _parse_complex(value, where):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(map(_is_number, value))
    ):
        raise ParseError("%s must be a [re, im] pair, got %r" % (where, value))
    try:
        z = complex(value[0], value[1])
    except OverflowError:
        z = None
    if z is None or not cmath.isfinite(z):
        raise ParseError("%s must be finite, got %r" % (where, value))
    return z


def load_group_file(path, tol_trace=TOL_TRACE):
    """Read a generator file, returning the group and any rescale warnings.

    Schema: {"generators": [{"label": str, "matrix": [[[re,im],[re,im]],
    [[re,im],[re,im]]]}, ...], "comment": optional str}.  Determinants are
    rescaled to one with a warning; singular, identity, or relabeled
    generators are errors, and so is a label with whitespace or a '.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ParseError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    raw = data.get("generators")
    if not isinstance(raw, list) or not raw:
        raise ParseError("generators must be a non-empty list")

    labels = []
    matrices = []
    warnings = []
    for index, item in enumerate(raw):
        where = "generators[%d]" % index
        if not isinstance(item, dict):
            raise ParseError("%s must be an object" % where)
        label = item.get("label")
        if not isinstance(label, str) or not label:
            raise ParseError("%s.label must be a non-empty string" % where)
        if not _spells_letters(label):
            raise ParseError(
                "%s.label %r must hold no whitespace and no '" % (where, label)
            )
        if label in labels:
            raise DuplicateLabel("label %r appears twice" % label)
        rows = item.get("matrix")
        if (
            not isinstance(rows, list)
            or len(rows) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in rows)
        ):
            raise ParseError("%s.matrix must be a 2x2 nest" % where)
        a = _parse_complex(rows[0][0], where + ".matrix[0][0]")
        b = _parse_complex(rows[0][1], where + ".matrix[0][1]")
        c = _parse_complex(rows[1][0], where + ".matrix[1][0]")
        d = _parse_complex(rows[1][1], where + ".matrix[1][1]")
        det = a * d - b * c
        if abs(det - 1.0) > RESCALE_WARN_TOL and abs(det) > TOL_DET:
            warnings.append(
                "generator %s has determinant %r; rescaled to det 1"
                % (label, det)
            )
        try:
            m = MoebiusIsometry(a, b, c, d)
        except NearSingular as exc:
            raise SingularGenerator(
                "generator %s is singular: %s" % (label, exc)
            )
        if m.is_identity(tol_trace):
            raise IdentityGenerator("generator %s is the identity" % label)
        labels.append(label)
        matrices.append(m)
    return GroupPresentation(matrices, labels), warnings


# ---------------------------------------------------------------------------
# report emission


def _flatten(prefix, value, lines):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten("%s.%s" % (prefix, key) if prefix else key, value[key], lines)
        return
    if value is None:
        rendered = "unbounded" if prefix.endswith("tube_radius_lower") else "null"
    else:
        rendered = json.dumps(value)
    lines.append("%s: %s" % (prefix, rendered))


def emit_report(report, fmt="json"):
    """Render a dict-bearing report deterministically as JSON or text."""
    data = report.to_dict() if hasattr(report, "to_dict") else report
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError("format must be json or text, got %r" % (fmt,))
    lines = []
    _flatten("", data, lines)
    return "\n".join(lines) + "\n"
