"""Word enumeration and trace surveys for finitely generated groups.

Words over the generators are walked in shortlex order (generator, then its
inverse, then the next generator) with free reduction, and matrices seen
before are merged so relations in the group do not inflate the ball.  The
merge store quantizes matrix entries to a grid three orders of magnitude
coarser than the merge tolerance and probes neighboring cells near grid
boundaries, so equal elements are never split by rounding.

The surveys built on the ball: the length spectrum (one entry per geodesic,
translates identified by conjugating the axis half-turn through the ball),
the shortest screw motion, and group-level tests for preserved planes and
elementary behavior.
"""

import itertools
import math

import numpy as np

from .errors import BudgetExceeded, PlaneVerificationFailed, ScrewInput
from .geometry import (
    PLANE_TOL,
    axis_of,
    geodesic_separation,
    halfturn_matrix,
    preserves_circle,
    same_line,
    transform_line,
)
from .halfturn import invariant_plane
from .isometry import (
    TOL_TRACE,
    MoebiusIsometry,
    classify,
    complex_length,
    fixed_points,
    same_point,
)

MERGE_TOL = 1e-9
MERGE_QUANT = 1e-6
DEFAULT_CAP = 10**7

_DEFAULT_LABELS = "abcdefghijklmnopqrstuvwxyz"


class MatrixStore:
    """Quantized index of PSL(2, C) matrices.

    Entries are keyed by rounding the eight real matrix coordinates to the
    quantization grid, under both signs of the matrix.  Lookups probe the
    adjacent cell for coordinates within tol of a cell boundary, then
    confirm with an exact distance test, so the grid never separates
    matrices that are genuinely within tol of each other.
    """

    __slots__ = ("quant", "tol", "_cells")

    def __init__(self, quant=MERGE_QUANT, tol=MERGE_TOL):
        self.quant = quant
        self.tol = tol
        self._cells = {}

    @staticmethod
    def _coords(m):
        return (
            m.a.real, m.a.imag, m.b.real, m.b.imag,
            m.c.real, m.c.imag, m.d.real, m.d.imag,
        )

    def _primary(self, coords):
        q = self.quant
        return tuple(math.floor(v / q + 0.5) for v in coords)

    def _probes(self, coords):
        q = self.quant
        slack = self.tol / q
        options = []
        for v in coords:
            x = v / q
            base = math.floor(x + 0.5)
            cells = [base]
            frac = x - base
            if frac > 0.5 - slack:
                cells.append(base + 1)
            elif frac < -0.5 + slack:
                cells.append(base - 1)
            options.append(cells)
        return itertools.product(*options)

    def find(self, m):
        coords = self._coords(m)
        for key in self._probes(coords):
            for stored, value in self._cells.get(key, ()):
                if m.psl_distance(stored) <= self.tol:
                    return value
        return None

    def add(self, m, value):
        coords = self._coords(m)
        for key in (
            self._primary(coords),
            self._primary(tuple(-v for v in coords)),
        ):
            self._cells.setdefault(key, []).append((m, value))


class GroupPresentation:
    """Generators of a subgroup of PSL(2, C) with display labels."""

    __slots__ = ("generators", "labels")

    def __init__(self, generators, labels=None):
        self.generators = list(generators)
        if labels is None:
            labels = [_DEFAULT_LABELS[i] for i in range(len(self.generators))]
        if len(labels) != len(self.generators):
            raise ValueError("one label per generator")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self.labels = list(labels)

    @property
    def rank(self):
        return len(self.generators)

    def letter_matrix(self, letter):
        gen = self.generators[letter // 2]
        return gen.inverse() if letter % 2 else gen

    def letter_label(self, letter):
        label = self.labels[letter // 2]
        return label + "'" if letter % 2 else label

    def word_name(self, letters):
        return " ".join(self.letter_label(l) for l in letters)

    def word(self, letters):
        m = MoebiusIsometry.identity()
        for letter in letters:
            m = m * self.letter_matrix(letter)
        return GroupWord(tuple(letters), self.word_name(letters), m)


class GroupWord:
    """A reduced word together with its matrix."""

    __slots__ = ("letters", "name", "matrix")

    def __init__(self, letters, name, matrix):
        self.letters = letters
        self.name = name
        self.matrix = matrix

    @property
    def length(self):
        return len(self.letters)

    @property
    def sort_key(self):
        return (len(self.letters), self.letters)

    def __repr__(self):
        return "GroupWord(%r)" % (self.name,)


def enumerate_ball(group, max_word_len, cap=DEFAULT_CAP):
    """All distinct non-identity elements spelled by words up to the bound.

    Words come out in shortlex order and the surviving set is closed under
    prefixes: a word that merges with an earlier one (or with the identity)
    is dropped and never extended.
    """
    letters = list(range(2 * group.rank))
    seen = MatrixStore()
    seen.add(MoebiusIsometry.identity(), "")
    ball = []
    frontier = [GroupWord((), "", MoebiusIsometry.identity())]
    for _ in range(max_word_len):
        next_frontier = []
        for parent in frontier:
            last = parent.letters[-1] if parent.letters else None
            for letter in letters:
                if last is not None and letter == last ^ 1:
                    continue
                matrix = parent.matrix * group.letter_matrix(letter)
                if seen.find(matrix) is not None:
                    continue
                word = GroupWord(
                    parent.letters + (letter,),
                    group.word_name(parent.letters + (letter,)),
                    matrix,
                )
                seen.add(matrix, word.name)
                ball.append(word)
                next_frontier.append(word)
                if len(ball) > cap:
                    raise BudgetExceeded(
                        "ball exceeds %d elements at radius %d"
                        % (cap, word.length)
                    )
        frontier = next_frontier
    return ball


class SpectrumEntry:
    """One closed geodesic: its shortest spelling, class, and axis."""

    __slots__ = ("word", "kind", "length", "angle", "axis")

    def __init__(self, word, kind, length, angle, axis):
        self.word = word
        self.kind = kind
        self.length = length
        self.angle = angle
        self.axis = axis

    def __repr__(self):
        return "SpectrumEntry(%r, %s, %.6f, %.6f)" % (
            self.word.name,
            self.kind,
            self.length,
            self.angle,
        )


# Generic weights of a real projection of the eight coordinates (Re a,
# Im a, ..., Im d).  Rows within MERGE_TOL of each other under either sign
# have |projection| within MERGE_TOL times the weight sum, so sorting an
# orbit by |projection| never separates a merge.
_WEIGHTS = np.array([0.97, 0.83, 0.71, 0.59, 0.43, 0.31, 0.23, 0.11])
_WEIGHT_SUM = float(_WEIGHTS.sum())


class _AxisOrbit:
    """All w h w^-1 for w the identity or a ball element, one row each.

    Rows of the ball array are (a, b, c, d) of unit determinant, so the
    inverse of w is [[d, -b], [-c, a]].  Rows are sorted by their
    |projection| so that a lookup confirms only the rows near its own.
    """

    __slots__ = ("rows", "keys", "scale")

    def __init__(self, h, ball_array):
        a, b, c, d = ball_array.T
        p = a * h.a + b * h.c
        q = a * h.b + b * h.d
        r = c * h.a + d * h.c
        s = c * h.b + d * h.d
        rows = np.stack(
            (p * d - q * c, q * a - p * b, r * d - s * c, s * a - r * b),
            axis=1,
        )
        keys = np.abs(rows.view(np.float64) @ _WEIGHTS)
        order = np.argsort(keys)
        self.rows = rows[order]
        self.keys = keys[order]
        self.scale = float(np.abs(rows.view(np.float64)).max())

    def contains(self, target):
        """True when some row lies within psl_distance MERGE_TOL of target.

        The target is the (4,) complex array of a matrix.
        """
        coords = target.view(np.float64)
        key = abs(float(coords @ _WEIGHTS))
        # the 1e-14 term exceeds the roundoff of both projections, so a
        # row whose key sits on a window edge cannot be within MERGE_TOL
        scale = max(self.scale, float(np.abs(coords).max()))
        slack = _WEIGHT_SUM * (MERGE_TOL + 1e-14 * scale)
        lo, hi = self.keys.searchsorted((key - slack, key + slack))
        if lo == hi:
            return False
        rows = self.rows[lo:hi]
        direct = np.abs(rows - target).max(axis=1)
        flipped = np.abs(rows + target).max(axis=1)
        return bool((np.minimum(direct, flipped) <= MERGE_TOL).any())


def spectrum(
    group,
    max_word_len,
    length_cutoff=12.0,
    tol_trace=TOL_TRACE,
    ball=None,
):
    """Rotation and translation lengths of the distinct short geodesics.

    Each elliptic, hyperbolic, or screw element of the ball contributes its
    axis; entries whose complex lengths agree within 1e-7 are identified
    when one axis is a ball-translate of the other, that is when the
    half-turn about one lies within MERGE_TOL of some w h w^-1 for the
    other, with w the identity or a ball element.  Parabolic and identity
    words carry no length and are skipped.  Sorted by length, then angle,
    then shortlex word.
    """
    if ball is None:
        ball = enumerate_ball(group, max_word_len)
    candidates = []
    for word in ball:
        cls = classify(word.matrix, tol_trace)
        if cls.kind in ("identity", "parabolic"):
            continue
        cl = complex_length(word.matrix, tol_trace)
        if cl.length > length_cutoff:
            continue
        axis = axis_of(word.matrix, tol_trace)
        candidates.append(
            SpectrumEntry(word, cls.kind, cl.length, cl.angle, axis)
        )
    candidates.sort(key=lambda e: (e.length, e.angle, e.word.sort_key))

    ball_array = np.array(
        [(1.0, 0.0, 0.0, 1.0)]
        + [(w.matrix.a, w.matrix.b, w.matrix.c, w.matrix.d) for w in ball],
        dtype=complex,
    )
    kept = []
    # Kept reps whose length is within 1e-7 of the current candidate, as
    # [rep, its half-turn, its orbit array]; both are filled in on first
    # use.  Candidates come in length order, so a rep that falls behind
    # can never pass the length gate again and its orbit is dropped.
    near = []
    for entry in candidates:
        near = [slot for slot in near if entry.length - slot[0].length <= 1e-7]
        h = None
        for slot in near:
            rep, rep_h, orbit = slot
            if abs(entry.angle - rep.angle) > 1e-7:
                continue
            if h is None:
                h = halfturn_matrix(entry.axis)
                target = np.array((h.a, h.b, h.c, h.d))
            if orbit is None:
                if rep_h is None:
                    rep_h = halfturn_matrix(rep.axis)
                orbit = slot[2] = _AxisOrbit(rep_h, ball_array)
            if orbit.contains(target):
                break
        else:
            kept.append(entry)
            near.append([entry, h, None])
    return kept


def shortest_screw(group, max_word_len, tol_trace=TOL_TRACE, ball=None):
    """Screw element of least translation length, shortlex tie-break."""
    if ball is None:
        ball = enumerate_ball(group, max_word_len)
    best = None
    best_key = None
    for word in ball:
        cls = classify(word.matrix, tol_trace)
        if cls.kind != "screw":
            continue
        key = (cls.length, word.sort_key)
        if best_key is None or key < best_key:
            best_key = key
            best = SpectrumEntry(
                word,
                cls.kind,
                cls.length,
                cls.angle,
                axis_of(word.matrix, tol_trace),
            )
    return best


class FuchsianResult:
    """Outcome of the preserved-plane search over a ball."""

    __slots__ = ("verdict", "witness", "plane")

    def __init__(self, verdict, witness=None, plane=None):
        self.verdict = verdict
        self.witness = witness
        self.plane = plane

    def __repr__(self):
        return "FuchsianResult(%r, witness=%r)" % (
            self.verdict,
            self.witness.name if self.witness else None,
        )


def _concatenated(group, first, second):
    letters = first.letters + second.letters
    return GroupWord(
        letters, group.word_name(letters), first.matrix * second.matrix
    )


def fuchsian_test(
    group,
    max_word_len,
    tol_trace=TOL_TRACE,
    tol=PLANE_TOL,
    ball=None,
):
    """Screw search, then a preserved oriented plane for the whole ball.

    Verdicts: "screw_found" (witness word), "all_non_screw_with_plane"
    (plane circle), "plane_failed" (first word moving the plane), or
    "elementary" when the ball has no two hyperbolic elements with four
    distinct endpoints to span a plane.
    """
    if ball is None:
        ball = enumerate_ball(group, max_word_len)
    hyperbolic = []
    for word in ball:
        kind = classify(word.matrix, tol_trace).kind
        if kind == "screw":
            return FuchsianResult("screw_found", witness=word)
        if kind == "hyperbolic":
            hyperbolic.append(word)

    pair = None
    for i, u in enumerate(hyperbolic):
        axis_u = axis_of(u.matrix)
        for v in hyperbolic[i + 1:]:
            axis_v = axis_of(v.matrix)
            if any(
                same_point(p, q)
                for p in axis_u.endpoints()
                for q in axis_v.endpoints()
            ):
                continue
            pair = (u, v)
            break
        if pair:
            break
    if pair is None:
        return FuchsianResult("elementary")

    u, v = pair
    product = _concatenated(group, u, v)
    if classify(product.matrix, tol_trace).kind == "screw":
        return FuchsianResult("screw_found", witness=product)
    try:
        plane = invariant_plane(u.matrix, v.matrix, tol_trace, tol)
    except (ScrewInput, PlaneVerificationFailed):
        return FuchsianResult("plane_failed")
    for word in ball:
        if not preserves_circle(word.matrix, plane, tol):
            return FuchsianResult("plane_failed", witness=word)
    return FuchsianResult("all_non_screw_with_plane", plane=plane)


class ElementaryResult:
    """Limit-set size evidence from the generators alone."""

    __slots__ = ("verdict", "axis")

    def __init__(self, verdict, axis=None):
        self.verdict = verdict
        self.axis = axis

    def __repr__(self):
        return "ElementaryResult(%r)" % (self.verdict,)


def elementary_test(group, tol_trace=TOL_TRACE):
    """Classify the generator configuration by its fixed geometry.

    Two distinct translation axes force a free pair somewhere, hence
    "non_elementary".  One axis kept setwise by every generator means
    exactly two limit points.  No axes at all: parabolic generators with a
    common fixed point, or rotations whose axes pairwise meet, keep at most
    one limit point; any other mix is reported non-elementary.
    """
    kinds = []
    for gen in group.generators:
        cls = classify(gen, tol_trace)
        if cls.kind != "identity":
            kinds.append((cls.kind, gen))
    if not kinds:
        return ElementaryResult("limit_points_0_or_1")

    axes = []
    for kind, gen in kinds:
        if kind in ("hyperbolic", "screw"):
            axis = axis_of(gen, tol_trace)
            if not any(same_line(axis, seen) for seen in axes):
                axes.append(axis)
    if len(axes) >= 2:
        return ElementaryResult("non_elementary")
    if len(axes) == 1:
        axis = axes[0]
        for kind, gen in kinds:
            if kind == "parabolic":
                return ElementaryResult("non_elementary")
            if not same_line(transform_line(gen, axis), axis):
                return ElementaryResult("non_elementary")
        return ElementaryResult("limit_points_2", axis=axis)

    if all(kind == "parabolic" for kind, _ in kinds):
        points = [fixed_points(gen, tol_trace)[0] for _, gen in kinds]
        if all(same_point(points[0], p) for p in points[1:]):
            return ElementaryResult("limit_points_0_or_1")
        return ElementaryResult("non_elementary")
    if all(kind == "elliptic" for kind, _ in kinds):
        axes = [axis_of(gen, tol_trace) for _, gen in kinds]
        for i, first in enumerate(axes):
            for second in axes[i + 1:]:
                if same_line(first, second):
                    continue
                if not geodesic_separation(first, second).intersects:
                    return ElementaryResult("non_elementary")
        return ElementaryResult("limit_points_0_or_1")
    return ElementaryResult("non_elementary")


class ThricePuncturedEvidence:
    """Witness pair of parabolic generators with parabolic product."""

    __slots__ = ("first", "second", "plane")

    def __init__(self, first, second, plane):
        self.first = first
        self.second = second
        self.plane = plane

    def __repr__(self):
        return "ThricePuncturedEvidence(%r, %r)" % (
            self.first.name,
            self.second.name,
        )


def thrice_punctured_test(group, max_word_len=6, tol_trace=TOL_TRACE, ball=None):
    """Evidence that a rank-2 group is the standard doubly-cusped plane group.

    Requires every ball word to keep one oriented plane, plus a generator
    pair (up to inversion) where both motions and their product are all
    parabolic.  Returns None when any ingredient is missing.
    """
    if group.rank != 2:
        return None
    result = fuchsian_test(group, max_word_len, tol_trace, ball=ball)
    if result.verdict != "all_non_screw_with_plane":
        return None
    pair = parabolic_generator_pair(group, tol_trace)
    if pair is None:
        return None
    return ThricePuncturedEvidence(pair[0], pair[1], result.plane)


def parabolic_generator_pair(group, tol_trace):
    """Generator words (u, v), up to inversion, with u, v and u v parabolic.

    This is the cusp pattern of the doubly-cusped plane group; None when the
    group does not have rank 2 or no such pair exists.
    """
    if group.rank != 2:
        return None
    for i in (0, 1):
        for j in (2, 3):
            u = group.word((i,))
            v = group.word((j,))
            if all(
                classify(m, tol_trace).kind == "parabolic"
                for m in (u.matrix, v.matrix, u.matrix * v.matrix)
            ):
                return u, v
    return None


def jorgensen_warnings(group, tol_trace=TOL_TRACE):
    """Pairs of generators violating the discreteness trace inequality.

    The inequality |tr(A)^2 - 4| + |tr(ABA'B') - 2| >= 1 holds for every
    discrete non-elementary two-generator group; a violation means the pair
    generates an indiscrete or elementary group.  Advisory only.
    """
    warnings = []
    for i, a in enumerate(group.generators):
        for j in range(i + 1, group.rank):
            b = group.generators[j]
            comm = a * b * a.inverse() * b.inverse()
            value = abs(a.trace * a.trace - 4.0) + abs(comm.trace - 2.0)
            if value < 1.0 - 1e-12:
                warnings.append(
                    "generators %s, %s give discreteness sum %.6f < 1; "
                    "the pair is indiscrete or elementary"
                    % (group.labels[i], group.labels[j], value)
                )
    return warnings
