"""Inputs, timed operations and output checks of the two workloads.

- ``verdict``: ``classify_manifold`` then ``emit_report`` (JSON) at the
  default word length 6, the wait of a ``loxo classify-manifold`` user.
- ``survey``: ``enumerate_ball``, ``shortest_screw``, ``fuchsian_test``,
  ``thrice_punctured_test`` and ``simplicity_check`` on one shared ball of
  word length 8, the deep-ball path behind ``ball``, ``shortest-screw`` and
  ``check-simple``; ``spectrum`` is never called.

A workload is a fixed list of cases.  ``case.run()`` is one timed
operation.  ``case.inspect(result)`` runs right after it, outside the timed
region: it checks what needs no exact oracle and returns a small record, so
that large results are dropped before the next operation.  After the timed
loop ``case.verify(record, exact)`` checks the record against the exact
oracles of ``oracles.py`` (cases whose record is None have nothing left to
verify).  Both raise ``CheckFailed`` on a wrong output;
``inspect`` returns ``KNOWN_FAULT`` for an output that shows the fault kept
in the ``verdict`` workload (see README.md).

Nothing here imports loxo or numpy at module level, so ``setup`` times the
import of the package together with group loading and input generation.
"""

import cmath
import json
import os
import random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

VERDICT_WORD_LEN = 6
SURVEY_WORD_LEN = 8
CONJUGATOR_BOUND = 2.3
# The thrice_punctured conjugator is a fixed draw, not one from --seed:
# whether a conjugate shows the kept fault depends on the draw (2 of the
# first 12 draws of this stream do), and the failed share must be the same
# on every seed.  Draw 4 is the first of the stream to show it.
THRICE_CONJUGATOR_SEED = "thrice_punctured conjugator"
THRICE_CONJUGATOR_DRAW = 4

KNOWN_FAULT = "known_fault"


class CheckFailed(Exception):
    """An output disagrees with its oracle or with a forced property."""


def require(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)


# name -> (group file, exact generators over Z[omega] as (x, y) pairs for
# x + y omega, expected outcome, axis word scanned when there is no screw)
ONE, ZERO = (1, 0), (0, 0)
GROUPS = {
    "figure_eight": (
        "fixtures/figure_eight.json",
        [(ONE, ONE, ZERO, ONE), (ONE, ZERO, (0, -1), ONE)],
        "screw",
        None,
    ),
    "thrice_punctured": (
        "fixtures/thrice_punctured.json",
        [(ONE, (2, 0), ZERO, ONE), (ONE, ZERO, (2, 0), ONE)],
        "thrice_punctured",
        "a b",
    ),
    "funnel": (
        "perfbench/groups/funnel.json",
        [(ONE, (2, 0), ZERO, ONE), (ONE, ZERO, (3, 0), ONE)],
        "hyperbolic",
        "a b'",
    ),
    "torus": (
        "perfbench/groups/torus.json",
        [(ONE, ONE, ONE, (2, 0)), (ONE, (-1, 0), (-1, 0), (2, 0))],
        "hyperbolic",
        "a",
    ),
}


def exact_groups():
    return [(name, spec[1], ["a", "b"]) for name, spec in GROUPS.items()]


def require_exact_generators(name, group):
    """The loaded generators are exactly the ones the oracle enumerates."""
    import oracles

    exact = [oracles.exact_matrix(g) for g in group.generators]
    require(exact == GROUPS[name][1], "%s: generators %r differ from the oracle's",
            name, exact)


def load_groups(loxo):
    groups = {}
    for name, spec in GROUPS.items():
        group, warnings = loxo.load_group_file(os.path.join(ROOT, spec[0]))
        require(not warnings, "%s loads with warnings %r", name, warnings)
        groups[name] = group
    return groups


def random_conjugator(loxo, rng, bound=CONJUGATOR_BOUND):
    """Complex-normal matrix scaled to unit determinant, entries <= bound."""
    while True:
        a, b, c, d = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
        det = a * d - b * c
        if abs(det) < 0.1:
            continue
        s = cmath.sqrt(det)
        entries = (a / s, b / s, c / s, d / s)
        if max(abs(e) for e in entries) <= bound:
            return loxo.MoebiusIsometry(*entries)


def conjugate_group(loxo, group, g):
    return loxo.GroupPresentation(
        [x.conjugate_by(g) for x in group.generators], group.labels
    )








# ---------------------------------------------------------------------------
# verdict


class VerdictCase:
    def __init__(self, loxo, label, base, group, conjugated):
        self.loxo = loxo
        self.label = label
        self.base = base
        self.group = group
        self.conjugated = conjugated
        self.expect = GROUPS[base][2]

    def run(self):
        report = self.loxo.classify_manifold(self.group)
        return report, self.loxo.emit_report(report, "json")

    def inspect(self, result):
        import oracles

        report, text = result
        data = json.loads(text)
        verdict = report.verdict
        require(data["verdict"] == verdict.kind, "%s: JSON verdict differs", self.label)
        if self.expect == "thrice_punctured":
            if (
                self.conjugated
                and verdict.kind == "Inconclusive"
                and verdict.reason.startswith("shortest screw word")
            ):
                return KNOWN_FAULT
            require(
                verdict.kind == "ThricePuncturedSphereEvidence",
                "%s: expected thrice-punctured evidence, got %s %r",
                self.label, verdict.kind, data,
            )
            gens, labels = self.group.generators, self.group.labels
            pair = [verdict.first.name, verdict.second.name]
            require(pair == data["parabolic_pair"], "%s: pair differs in JSON", self.label)
            for name in pair + [" ".join(pair)]:
                t = oracles.trace_of_word(gens, labels, name)
                require(
                    abs(abs(t) - 2.0) <= 1e-7 and abs(t.imag) <= 1e-7,
                    "%s: %s has trace %r, not parabolic", self.label, name, t,
                )
            for g in gens:
                require(
                    oracles.keeps_circle(g, verdict.plane),
                    "%s: a generator moves the reported plane", self.label,
                )
            return None
        require(
            verdict.kind == "SimpleGeodesicFound",
            "%s: expected a simple geodesic, got %s %r",
            self.label, verdict.kind, data,
        )
        entry = verdict.entry
        require(entry.kind == self.expect, "%s: geodesic kind %s", self.label, entry.kind)
        tube = verdict.report.tube_radius_lower
        require(tube > 0.0, "%s: tube bound %r not positive", self.label, tube)
        return entry.length

    def verify(self, record, exact):
        if not self.conjugated:
            require_exact_generators(self.base, self.group)
        if record is None:
            return
        ref = exact(self.base, VERDICT_WORD_LEN).shortest(self.expect)
        require(
            abs(record - ref) <= 1e-9,
            "%s: geodesic length %r, oracle %r", self.label, record, ref,
        )


def verdict_cases(loxo, seed):
    groups = load_groups(loxo)
    cases = [VerdictCase(loxo, name, name, g, False) for name, g in groups.items()]
    rng = random.Random("verdict conjugator %d" % seed)
    g = random_conjugator(loxo, rng)
    cases.append(
        VerdictCase(
            loxo, "figure_eight conjugate", "figure_eight",
            conjugate_group(loxo, groups["figure_eight"], g), True,
        )
    )
    rng = random.Random(THRICE_CONJUGATOR_SEED)
    for _ in range(THRICE_CONJUGATOR_DRAW + 1):
        g = random_conjugator(loxo, rng)
    cases.append(
        VerdictCase(
            loxo, "thrice_punctured conjugate", "thrice_punctured",
            conjugate_group(loxo, groups["thrice_punctured"], g), True,
        )
    )
    return cases


# ---------------------------------------------------------------------------
# survey


class SurveyStep:
    """One call of a group's survey, timed as one operation."""

    def __init__(self, survey, call):
        self.survey = survey
        self.call = call

    def run(self):
        return getattr(self.survey, self.call)()

    def inspect(self, result):
        results = self.survey.results
        if self.call == SurveyGroup.CALLS[0]:
            results.clear()  # drop the previous group's ball
        results[self.call] = result
        if self.call != SurveyGroup.CALLS[-1]:
            return None
        return self.survey.inspect(**results)

    def verify(self, record, exact):
        self.survey.verify(record, exact)


class SurveyGroup:
    """The five survey calls on one group, sharing one ball.

    ``results`` holds the outputs of the calls made so far; one dict is
    shared by all groups, so only one ball is alive at a time.
    """

    CALLS = ("ball", "screw", "fuchsian", "evidence", "simple")

    def __init__(self, loxo, name, group, results):
        self.loxo = loxo
        self.name = name
        self.group = group
        self.expect = GROUPS[name][2]
        self.axis_word = GROUPS[name][3]
        self.results = results

    def ball(self):
        return self.loxo.enumerate_ball(self.group, SURVEY_WORD_LEN)

    def screw(self):
        return self.loxo.shortest_screw(
            self.group, SURVEY_WORD_LEN, ball=self.results["ball"])

    def fuchsian(self):
        return self.loxo.fuchsian_test(
            self.group, SURVEY_WORD_LEN, ball=self.results["ball"])

    def evidence(self):
        return self.loxo.thrice_punctured_test(
            self.group, SURVEY_WORD_LEN, ball=self.results["ball"])

    def simple(self):
        """Scan the shortest screw axis, or the fixed shortest hyperbolic."""
        import oracles

        loxo, group = self.loxo, self.group
        screw = self.results["screw"]
        if screw is not None:
            axis = screw.axis
        else:
            word = group.word(oracles.letters_of(group.labels, self.axis_word))
            axis = loxo.axis_of(word.matrix)
        return loxo.simplicity_check(
            group, axis, SURVEY_WORD_LEN, ball=self.results["ball"])

    def inspect(self, ball, screw, fuchsian, evidence, simple):
        import oracles

        levels = [0] * SURVEY_WORD_LEN
        for word in ball:
            levels[len(word.letters) - 1] += 1
        record = {"levels": levels}
        gens = self.group.generators
        if self.expect == "screw":
            require(screw is not None and screw.kind == "screw",
                    "%s: no shortest screw", self.name)
            record["screw_length"] = screw.length
            require(fuchsian.verdict == "screw_found",
                    "%s: fuchsian_test says %s", self.name, fuchsian.verdict)
            record["fuchsian_witness"] = fuchsian.witness.name
            require(evidence is None, "%s: thrice-punctured evidence", self.name)
        else:
            require(screw is None, "%s: screw %r in a real-trace group", self.name, screw)
            require(fuchsian.verdict == "all_non_screw_with_plane",
                    "%s: fuchsian_test says %s", self.name, fuchsian.verdict)
            for g in gens:
                require(oracles.keeps_circle(g, fuchsian.plane),
                        "%s: a generator moves the fuchsian plane", self.name)
            if self.expect == "thrice_punctured":
                require(evidence is not None, "%s: no evidence", self.name)
                record["pair"] = [evidence.first.name, evidence.second.name]
                for g in gens:
                    require(oracles.keeps_circle(g, evidence.plane),
                            "%s: a generator moves the evidence plane", self.name)
            else:
                require(evidence is None, "%s: thrice-punctured evidence", self.name)
        if self.expect == "thrice_punctured":
            require(simple.verdict == "self_intersecting",
                    "%s: axis %s reported simple", self.name, self.axis_word)
            record["witness"] = simple.witness.name
        else:
            require(simple.is_simple and simple.tube_radius_lower > 0.0,
                    "%s: shortest axis not simple: %r", self.name, simple)
        return record

    def verify(self, record, exact):
        import oracles

        require_exact_generators(self.name, self.group)
        ball = exact(self.name, SURVEY_WORD_LEN)
        require(record["levels"] == ball.level_counts,
                "%s: level counts %r, exact %r",
                self.name, record["levels"], ball.level_counts)
        if self.expect == "screw":
            ref = ball.shortest("screw")
            require(abs(ref - oracles.FIGURE_EIGHT_SYSTOLE) <= 1e-12,
                    "%s: exact systole %r off the closed form", self.name, ref)
            require(abs(record["screw_length"] - ref) <= 1e-9,
                    "%s: shortest screw %r, oracle %r",
                    self.name, record["screw_length"], ref)
            witness = ball.matrix_of(record["fuchsian_witness"])
            require(oracles.trace_kind(oracles.trace(witness)) == "screw",
                    "%s: fuchsian witness is not a screw", self.name)
            return
        require("screw" not in ball.kinds(), "%s: exact ball has a screw", self.name)
        closed = {
            "thrice_punctured": oracles.THRICE_SHORTEST,
            "funnel": oracles.FUNNEL_SHORTEST,
            "torus": oracles.TORUS_SHORTEST,
        }[self.name]
        ref = ball.shortest("hyperbolic")
        require(abs(ref - closed) <= 1e-12,
                "%s: exact shortest %r off the closed form %r", self.name, ref, closed)
        length = oracles.trace_length(oracles.trace(ball.matrix_of(self.axis_word)))
        require(abs(length - ref) <= 1e-12,
                "%s: axis word %s is not a shortest hyperbolic", self.name, self.axis_word)
        if self.expect == "thrice_punctured":
            for name in record["pair"] + [" ".join(record["pair"])]:
                t = oracles.trace(ball.matrix_of(name))
                require(oracles.trace_kind(t) == "parabolic",
                        "%s: %s is not parabolic", self.name, name)
            require(not ball.stabilizes(record["witness"], self.axis_word),
                    "%s: crossing witness %s stabilises the axis",
                    self.name, record["witness"])


def survey_cases(loxo, seed):
    cases, results = [], {}
    for name, group in load_groups(loxo).items():
        survey = SurveyGroup(loxo, name, group, results)
        cases.extend(SurveyStep(survey, call) for call in SurveyGroup.CALLS)
    return cases


WORKLOAD_CASES = {
    "verdict": verdict_cases,
    "survey": survey_cases,
}


def setup(workload, seed):
    """Import loxo, load the groups and build the workload's cases."""
    import loxo

    return loxo, WORKLOAD_CASES[workload](loxo, seed)
