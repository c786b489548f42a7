"""End-to-end search: from a generating set to a certified geodesic verdict.

The trichotomy implemented here: an elementary group is reported as such
(with its preserved axis geodesic certified when there is one); a group
whose ball keeps an oriented plane is matched against the doubly-cusped
plane group and otherwise has its shortest hyperbolic geodesics checked for
simplicity; a group with a screw word has its shortest screw checked.  Every
conclusive verdict carries the witnessing word and certificate data;
anything short of that is an explicit Inconclusive with a reason.
"""

import json
import math

from .certification import simplicity_check
from .enumeration import (
    DEFAULT_CAP,
    GroupPresentation,
    SpectrumEntry,
    elementary_test,
    enumerate_ball,
    fuchsian_test,
    jorgensen_warnings,
    parabolic_generator_pair,
    shortest_screw,
    spectrum,
)
from .errors import (
    DuplicateLabel,
    IdentityGenerator,
    NearSingular,
    OutOfRange,
    ParseError,
    SingularGenerator,
)
from .geometry import axis_of, same_line
from .isometry import TOL_TRACE, MoebiusIsometry, classify, complex_length

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3

MAX_WORD_LEN_LIMIT = 12


class RunConfig:
    """Knobs for the search: word bound, length cutoff, tolerance, budget."""

    __slots__ = ("max_word_len", "length_cutoff", "tol_trace", "cap")

    def __init__(
        self,
        max_word_len=6,
        length_cutoff=12.0,
        tol_trace=TOL_TRACE,
        cap=DEFAULT_CAP,
    ):
        if not 1 <= max_word_len <= MAX_WORD_LEN_LIMIT:
            raise OutOfRange(
                "word bound must lie in 1..%d, got %r"
                % (MAX_WORD_LEN_LIMIT, max_word_len)
            )
        if length_cutoff <= 0:
            raise OutOfRange("length cutoff must be positive")
        if cap <= 0:
            raise OutOfRange("element budget must be positive")
        self.max_word_len = max_word_len
        self.length_cutoff = length_cutoff
        self.tol_trace = tol_trace
        self.cap = cap

    def to_dict(self):
        return {
            "max_word_len": self.max_word_len,
            "length_cutoff": self.length_cutoff,
            "tol_trace": self.tol_trace,
            "cap": self.cap,
        }


def _point_json(p):
    if p.is_infinity:
        return "inf"
    z = p.to_complex()
    return [z.real, z.imag]


def _line_json(line):
    return [_point_json(line.p), _point_json(line.q)]


def _circle_json(circle):
    return {
        "coefficient_a": circle.a,
        "coefficient_b": [circle.b.real, circle.b.imag],
        "coefficient_c": circle.c,
        "orientation": circle.orientation,
    }


def _entry_json(entry):
    return {
        "word": entry.word.name,
        "kind": entry.kind,
        "length": entry.length,
        "angle": entry.angle,
        "axis": _line_json(entry.axis),
    }


def _simplicity_json(report):
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
            "geodesic": _entry_json(self.entry),
            "simplicity": _simplicity_json(self.report),
        }


class ThricePuncturedSphereEvidence:
    """Generator pair matching the doubly-cusped plane group."""

    kind = "ThricePuncturedSphereEvidence"
    exit_code = EXIT_OK
    __slots__ = ("first", "second", "plane")

    def __init__(self, first, second, plane):
        self.first = first
        self.second = second
        self.plane = plane

    def detail(self):
        return {
            "parabolic_pair": [self.first.name, self.second.name],
            "plane": _circle_json(self.plane),
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
    cls = classify(word.matrix, tol_trace)
    cl = complex_length(word.matrix, tol_trace)
    return SpectrumEntry(
        word, cls.kind, cl.length, cl.angle, axis_of(word.matrix, tol_trace)
    )


def _certify_first_simple(group, entries, config, ball):
    for entry in entries:
        report = simplicity_check(
            group, entry.axis, config.max_word_len, config.tol_trace, ball=ball
        )
        if report.is_simple:
            return SimpleGeodesicFound(entry, report)
    return None


def classify_manifold(group, config=None):
    """Run the trichotomy on a generating set and report with evidence."""
    if config is None:
        config = RunConfig()
    warnings = jorgensen_warnings(group, config.tol_trace)

    def report(verdict):
        return ManifoldReport(verdict, config, warnings)

    elem = elementary_test(group, config.tol_trace)
    if elem.verdict == "limit_points_0_or_1":
        return report(Elementary("0_or_1"))

    ball = enumerate_ball(group, config.max_word_len, config.cap)

    def entries_of(*kinds):
        # the spectrum is built only on the branches that read it
        entries = spectrum(
            group,
            config.max_word_len,
            config.length_cutoff,
            config.tol_trace,
            ball=ball,
        )
        return [e for e in entries if e.kind in kinds]

    if elem.verdict == "limit_points_2":
        on_axis = [
            e
            for e in entries_of("hyperbolic", "screw")
            if same_line(e.axis, elem.axis)
        ]
        found = _certify_first_simple(group, on_axis, config, ball)
        if found is not None:
            return report(found)
        return report(
            Inconclusive(
                "two limit points, but no loxodromic word below the length "
                "cutoff certifies as simple"
            )
        )

    fuch = fuchsian_test(
        group, config.max_word_len, config.tol_trace, ball=ball
    )

    if fuch.verdict == "all_non_screw_with_plane":
        pair = parabolic_generator_pair(group, config.tol_trace)
        if pair is not None:
            return report(
                ThricePuncturedSphereEvidence(pair[0], pair[1], fuch.plane)
            )
        hyperbolic = entries_of("hyperbolic")
        found = _certify_first_simple(group, hyperbolic, config, ball)
        if found is not None:
            return report(found)
        if hyperbolic:
            return report(
                Inconclusive(
                    "every plane-preserving hyperbolic word up to the bound "
                    "self-intersects"
                )
            )
        return report(
            Inconclusive(
                "ball preserves a plane but contains no hyperbolic word "
                "below the length cutoff"
            )
        )

    if fuch.verdict == "screw_found":
        entry = shortest_screw(
            group, config.max_word_len, config.tol_trace, ball=ball
        )
        if entry is None:
            entry = _entry_from_word(fuch.witness, config.tol_trace)
        found = _certify_first_simple(group, [entry], config, ball)
        if found is not None:
            return report(found)
        return report(
            Inconclusive(
                "shortest screw word %s self-intersects within the bound"
                % entry.word.name
            )
        )

    if fuch.verdict == "plane_failed":
        witness = fuch.witness.name if fuch.witness else "the chosen pair"
        return report(
            Inconclusive(
                "no screw word up to the bound, yet %s moves the candidate "
                "plane" % witness
            )
        )

    # fuchsian fallback: no two hyperbolic words with distinct endpoints
    found = _certify_first_simple(
        group, entries_of("hyperbolic"), config, ball
    )
    if found is not None:
        return report(found)
    return report(
        Inconclusive(
            "generators pass the non-elementary test but the ball shows "
            "no certifiable loxodromic geodesic"
        )
    )


# ---------------------------------------------------------------------------
# group files


def _parse_complex(value, where):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                   for x in value)
    ):
        raise ParseError("%s must be a [re, im] pair, got %r" % (where, value))
    return complex(value[0], value[1])


def load_group_file(path, tol_trace=TOL_TRACE):
    """Read a generator file, returning the group and any rescale warnings.

    Schema: {"generators": [{"label": str, "matrix": [[[re,im],[re,im]],
    [[re,im],[re,im]]]}, ...], "comment": optional str}.  Determinants are
    rescaled to one with a warning; singular, identity, or relabeled
    generators are errors.
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
        if abs(det - 1.0) > 1e-9 and abs(det) > 1e-12:
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
