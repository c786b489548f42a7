"""Word enumeration and trace surveys for finitely generated groups.

Words over the generators are walked in shortlex order (generator, then its
inverse, then the next generator) with free reduction, and matrices seen
before are merged so relations in the group do not inflate the ball.  The
merge store sorts matrices by a real projection of their entries and
confirms only the matrices whose projections lie within the merge
tolerance's reach, so equal elements are never split by rounding.

The ball keeps its words' products, as computed and with no sign, as one
(N, 4) complex array, built a level at a time in numpy, with each word's
prefix row and last letter; a word object is built, signed, only when it is
read.  The surveys built on the ball (the length spectrum and the shortest
word of given kinds) read it through one candidate scan over one screen
pass, whose kind of a row is final: the screen runs the scalar classify on
the rare rows its numpy tests cannot decide, and words are built only for
what the surveys return.  The preserved-plane test decides screws from the
traces of the generator products, not from the ball, and reads the ball
only for a hyperbolic pair to span the plane.
"""

import itertools
import math
import struct
from collections.abc import Sequence

import numpy as np

from .errors import EXIT_OK, AmbiguousClass, BudgetExceeded, NearSingular
from .geometry import (
    axis_of,
    circle_json,
    common_perpendicular,
    geodesic_separation,
    halfturn_matrix,
    same_line,
    shares_endpoint,
    transform_line,
)
from .halfturn import invariant_plane
from .isometry import (
    TOL_TRACE,
    _signed,
    classify,
    complex_length,
    fixed_points,
    letter_factors,
    product_rows,
    same_point,
)

MERGE_TOL = 1e-9
# the word bound and length cutoff defaults, and the ball's element budget
DEFAULT_WORD_LEN = 6
DEFAULT_CUTOFF = 12.0
DEFAULT_CAP = 10**7

_DEFAULT_LABELS = "abcdefghijklmnopqrstuvwxyz"

# Weights of a real projection of the eight coordinates (Re a, Im a, ...,
# Im d): the fractional parts of the square roots of the primes to 19.
# Rows within MERGE_TOL of each other under either sign have |projection|
# within MERGE_TOL times the weight sum.  Irrational weights keep the
# projections of integer-entry matrices apart.
_WEIGHTS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]) % 1.0
_WEIGHT_SUM = float(_WEIGHTS.sum())

# Relative margin of a numpy decision against the scalar code it repeats:
# a quantity tested against a threshold is computed with a hypot, which
# another libm may round otherwise; within the margin the scalar code runs.
_MARGIN = 1e-9


def _keys(rows):
    """|projection| of each row of an (n, 4) complex array."""
    return np.abs(rows.view(np.float64) @ _WEIGHTS)


def _window(rows):
    """Half-width of a key window around each of the complex rows that
    holds the key of every row within MERGE_TOL of it.

    With scale the largest |coordinate| of rows (taken without a copy), it
    is _WEIGHT_SUM * (MERGE_TOL + 1e-14 * (scale + MERGE_TOL)): a row within
    MERGE_TOL has no coordinate above scale + MERGE_TOL, and the 1e-14 term
    exceeds the roundoff of both projections at that size.
    """
    coords = rows.view(np.float64)
    scale = max(float(coords.max(initial=0.0)), -float(coords.min(initial=0.0)))
    return _WEIGHT_SUM * (MERGE_TOL + 1e-14 * (scale + MERGE_TOL))


def _ranges(lo, hi):
    """The concatenation of range(lo[k], hi[k]) over k, as one array."""
    counts = hi - lo
    return np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(
        counts.sum()
    )


def _matches(x, i, y, j):
    """Whether row i[k] of x lies within MERGE_TOL of row j[k] of y.

    psl_distance is taken in numpy with np.hypot of the real and imaginary
    parts, libm's hypot as in CPython's complex abs (numpy's own complex
    abs may differ in the last bit); a pair within _MARGIN of MERGE_TOL is
    decided by the scalar psl_distance.
    """
    def entrywise_max(z):
        return np.hypot(z.real, z.imag).max(axis=1)

    rows, partners = x[i], y[j]
    distance = np.minimum(
        entrywise_max(rows - partners), entrywise_max(rows + partners)
    )
    match = distance <= MERGE_TOL
    for k in np.flatnonzero(
        ~(np.abs(distance - MERGE_TOL) > _MARGIN * MERGE_TOL)
    ).tolist():
        match[k] = (
            _row_matrix(x, i[k]).psl_distance(_row_matrix(y, j[k])) <= MERGE_TOL
        )
    return match


class MatrixStore:
    """Index of PSL(2, C) matrices under MERGE_TOL, either sign.

    ``rows`` holds the stored rows in the order they were added; only their
    keys |projection| and row numbers are kept sorted, and add_rows keeps
    them so with one sort of the stored and added keys.  A lookup confirms
    with psl_distance only the rows whose keys lie in the _window of the
    probe's largest coordinate (find) or of the added batch's (add_rows),
    so no row within MERGE_TOL falls outside it, however large the other
    stored rows are.
    """

    __slots__ = ("rows", "_keys", "_numbers")

    def __init__(self, rows=None):
        self.rows = np.ascontiguousarray(
            np.empty((0, 4)) if rows is None else rows, dtype=complex
        )
        keys = _keys(self.rows)
        self._numbers = np.argsort(keys)
        self._keys = keys[self._numbers]

    def find(self, m):
        """Row number of a stored row within MERGE_TOL of m, or None."""
        row = np.array((m.a, m.b, m.c, m.d))
        key = abs(float(row.view(np.float64) @ _WEIGHTS))
        slack = _window(row)
        lo, hi = self._keys.searchsorted((key - slack, key + slack))
        for n in self._numbers[lo:hi].tolist():
            if m.psl_distance(_row_matrix(self.rows, n)) <= MERGE_TOL:
                return n
        return None

    def add_rows(self, rows):
        """Add each row of an (n, 4) complex array unless it merges.

        Rows are taken in order: a row within MERGE_TOL of a stored row or
        of an earlier added row of the array is skipped.  The stored keys
        and the array's are sorted together once.  Only a row with a
        neighbour in that order within its window is tested, against the
        stored and earlier rows whose keys lie in the window: one numpy
        psl_distance over all its (row, partner) pairs, the scalar
        psl_distance for a pair within _MARGIN of MERGE_TOL.  The merged
        order, less the rows that merge, is the new index.  Returns the
        indices of the rows added.  A row that is not finite raises
        NearSingular, and nothing is added.
        """
        rows = np.ascontiguousarray(rows, dtype=complex)
        slack = _window(rows)
        if not slack < math.inf:
            # the largest |coordinate| is not finite: name the first such row
            bad = np.isfinite(rows.view(np.float64)).all(axis=1).argmin()
            raise NearSingular(
                "entries %r are not finite" % (tuple(rows[bad].tolist()),)
            )
        n_stored = len(self._keys)
        keys = np.concatenate((self._keys, _keys(rows)))
        # merged key q is stored key order[q], or the key of row order[q] -
        # n_stored of the array; keys that tie lie in each other's window,
        # so the sort need not be stable
        order = np.argsort(keys)
        keys = keys[order]
        close = ~(np.diff(keys) > slack)
        crowded = np.zeros(len(keys), dtype=bool)
        crowded[:-1] |= close
        crowded[1:] |= close
        added = np.ones(len(rows), dtype=bool)
        at = np.flatnonzero(crowded & (order >= n_stored))
        if at.size:
            k = keys[at]
            lo, hi = keys.searchsorted(k - slack), keys.searchsorted(k + slack)
            row = np.repeat(order[at] - n_stored, hi - lo)
            partner = order[_ranges(lo, hi)]
            stored = partner < n_stored
            # (row, stored row) pairs, then (row, earlier row of the array)
            row_s = row[stored]
            added[row_s[_matches(
                rows, row_s, self.rows, self._numbers[partner[stored]]
            )]] = False
            partner -= n_stored
            earlier = ~stored & (partner < row)
            row_o, own = row[earlier], partner[earlier]
            match = _matches(rows, row_o, rows, own)
            for i, j in sorted(zip(row_o[match].tolist(), own[match].tolist())):
                if added[j]:
                    added[i] = False
        new = np.concatenate((np.ones(n_stored, dtype=bool), added))[order]
        numbers = np.concatenate(
            (self._numbers, len(self.rows) - 1 + np.cumsum(added))
        )
        self._keys = keys[new]
        self._numbers = numbers[order[new]]
        # the level's temporaries go before the store's rows grow
        del order, keys, new, numbers
        kept = np.flatnonzero(added)
        grown = np.empty((len(self.rows) + len(kept), 4), dtype=complex)
        grown[: len(self.rows)] = self.rows
        # mode "clip" takes straight into out; the default buffers a copy
        np.take(rows, kept, axis=0, out=grown[len(self.rows):], mode="clip")
        self.rows = grown
        return kept


def _spells_letters(label):
    """Whether a label can name a letter: a word spells its letters apart by
    spaces and an inverse by a '."""
    return isinstance(label, str) and label.split() == [label] and "'" not in label


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
        if not all(map(_spells_letters, labels)):
            raise ValueError("labels must hold no whitespace and no '")
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
        """The word's ball row, signed: the identity times the letters as
        computed, then _signed."""
        m = _signed(*_product([_IDENTITY_ROW] + [
            (x.a, x.b, x.c, x.d) for x in map(self.letter_matrix, letters)
        ]))
        return GroupWord(tuple(letters), self.word_name(letters), m)


# the identity's entries, from which a ball's rows and GroupPresentation.word
# take their products
_IDENTITY_ROW = (1 + 0j, 0j, 0j, 1 + 0j)


def _product(rows):
    """Entries of the product of (a, b, c, d) tuples, as computed, with no
    sign: MoebiusIsometry's product before _signed."""
    a, b, c, d = rows[0]
    for e, f, g, h in rows[1:]:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


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


class Ball(Sequence):
    """Words of a ball in shortlex order, stored as arrays.

    ``entries`` is an (N, 4) complex array whose row i holds word i's (a,
    b, c, d) as computed, with no sign; ``self[i].matrix``, like every
    scalar read of a row, is the row _signed.  ``parents[i]`` is the row of
    word i's prefix (-1 for a single letter) and ``letters[i]`` its last
    letter; parents come before their children.  ``self[i]`` builds the
    GroupWord of row i on first read, walking ``parents`` up to the nearest
    built ancestor, and caches every word it builds, so a word is the same
    object on every read.  ``trace_kinds(tol_trace)`` decides each row's
    kind once per tolerance.
    """

    __slots__ = (
        "entries", "parents", "letters", "_labels", "_words", "_kinds"
    )

    def __init__(self, entries, parents, letters, labels):
        self.entries = entries
        self.parents = parents
        self.letters = letters
        self._labels = labels
        self._words = [None] * len(entries)
        self._kinds = {}

    def trace_kinds(self, tol_trace):
        """The kind code of each row, as a read-only array made on the first
        call for each tolerance: _trace_kinds of the entries, with each row
        it leaves _UNDECIDED given classify's kind, or _AMBIGUOUS where
        classify raises AmbiguousClass."""
        kinds = self._kinds.get(tol_trace)
        if kinds is None:
            kinds = _trace_kinds(self.entries, tol_trace)
            for i in np.flatnonzero(kinds == _UNDECIDED).tolist():
                try:
                    kinds[i] = _KINDS.index(
                        classify(_row_matrix(self.entries, i), tol_trace)
                    )
                except AmbiguousClass:
                    kinds[i] = _AMBIGUOUS
            kinds.flags.writeable = False
            self._kinds[tol_trace] = kinds
        return kinds

    def __len__(self):
        return len(self._words)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        words = self._words
        word = words[index]
        if word is not None:
            return word
        i = index % len(words)
        chain = []
        while i >= 0 and words[i] is None:
            chain.append(i)
            i = int(self.parents[i])
        word = words[i] if i >= 0 else None
        for i in reversed(chain):
            word = words[i] = self._child(
                word, int(self.letters[i]), self.entries[i].tolist()
            )
        return word

    def __iter__(self):
        words = self._words
        if None in words:
            # one forward pass: each parent is built before its children;
            # rows become Python objects a chunk at a time, so that the
            # signed copies the words hold do not double the peak
            for start in range(0, len(words), _CHUNK):
                stop = start + _CHUNK
                for i, parent, letter, row in zip(
                    range(start, stop),
                    self.parents[start:stop].tolist(),
                    self.letters[start:stop].tolist(),
                    self.entries[start:stop].tolist(),
                ):
                    if words[i] is None:
                        words[i] = self._child(
                            words[parent] if parent >= 0 else None, letter, row
                        )
        return iter(words)

    def _child(self, parent, letter, row):
        label = self._labels[letter]
        if parent is None:
            return GroupWord((letter,), label, _signed(*row))
        return GroupWord(
            parent.letters + (letter,), parent.name + " " + label, _signed(*row)
        )


def _row_matrix(entries, i):
    """The signed matrix of row i of an (n, 4) entry array."""
    return _signed(*entries[i].tolist())


# rows per numpy pass (parents of a level, or rows Ball.__iter__ converts),
# so that a pass's temporaries stay bounded
_CHUNK = 1024


def enumerate_ball(group, max_word_len):
    """All distinct non-identity elements spelled by words up to the bound.

    Words come out in shortlex order and the surviving set is closed under
    prefixes: a word that merges with an earlier one (or with the identity)
    is dropped and never extended.  The result is a Ball: the entries of
    the words as one array, with each word's prefix row and last letter.
    Each row is product_rows' product of its parent row and letter, with no
    sign (see Ball).  A product whose entries overflow to a value that is
    not finite raises NearSingular (in MatrixStore.add_rows); a ball of
    more than DEFAULT_CAP words raises BudgetExceeded.
    """
    n_letters = 2 * group.rank
    factors = letter_factors(np.array(
        [
            (m.a, m.b, m.c, m.d)
            for m in (group.letter_matrix(l) for l in range(n_letters))
        ],
        dtype=complex,
    ).reshape(-1, 4))
    # the store's row 0 is the identity; ball row i is store row i + 1
    seen = MatrixStore(np.array([_IDENTITY_ROW]))
    frontier_rows = seen.rows
    frontier_last = np.array([-2])
    # ball row of the frontier's first word; the identity's row is -1
    offset = -1
    parents = [np.empty(0, dtype=np.intp)]
    letters = [np.empty(0, dtype=np.intp)]
    letter_index = np.arange(n_letters)
    # an overflowing product is reported as NearSingular, not warned of
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for length in range(1, max_word_len + 1):
            # free reduction: no letter right after its inverse
            allowed = letter_index[None, :] != (frontier_last ^ 1)[:, None]
            parent_of, letter_of = np.nonzero(allowed)
            rows = np.empty((len(parent_of), 4), dtype=complex)
            for start in range(0, len(frontier_rows), _CHUNK):
                stop = start + _CHUNK
                # parent_of is sorted, so the chunk's children are one run
                lo, hi = np.searchsorted(parent_of, (start, stop))
                coords = product_rows(frontier_rows[start:stop], factors)
                rows[lo:hi] = coords[allowed[start:stop]].view(complex)
            kept = seen.add_rows(rows)
            # the candidates go before the next level's are built
            del rows
            parents.append(offset + parent_of[kept])
            letters.append(letter_of[kept])
            offset = len(seen.rows) - 1 - len(kept)
            if len(seen.rows) - 1 > DEFAULT_CAP:
                raise BudgetExceeded(
                    "ball exceeds %d elements at radius %d"
                    % (DEFAULT_CAP, length)
                )
            if not len(kept):
                break
            frontier_rows = seen.rows[-len(kept):]
            frontier_last = letters[-1]
    return Ball(
        seen.rows[1:],
        np.concatenate(parents),
        np.concatenate(letters),
        [group.letter_label(l) for l in range(n_letters)],
    )


# kind codes: _KINDS[code] is classify's kind of the code, and
# Ball.trace_kinds gives _AMBIGUOUS where classify raises AmbiguousClass
_KINDS = ("identity", "parabolic", "elliptic", "hyperbolic", "screw")
_IDENTITY, _PARABOLIC, _ELLIPTIC, _HYPERBOLIC, _SCREW, _UNDECIDED = range(6)
_AMBIGUOUS = 6
_EPS = float(np.finfo(float).eps)


def _trace_kinds(entries, tol_trace):
    """classify's kind of each row, or _UNDECIDED where it must run.

    The tests repeat classify's float operations on the same entries, so
    numpy and the scalar code can differ only in the last bit of a hypot.
    They run in classify's order, and a row is left undecided when a test
    up to the one that decides it has its quantity within 1e-12 of the
    threshold, when it lies in the band where classify raises, or when it
    is not finite.

    Only the finite rows with ||Re tr| - 2| <= 2 tol + 1e-11 (tol raised
    by a relative 4 eps) get the identity and parabolic tests; every other
    row fails both by more than 1e-12.  For hypot(x, y) >= |x|, so
    |tr -+ 2| >= ||Re tr| - 2|; and a row whose identity quantity q (for
    the sign of +-1) is at most tol + 1e-12 has |tr -+ 2| <= 2 q plus the
    roundoff of the sums, a few eps of 2 + 2 q.  A row outside that set is
    also more than 1e-11 from 2 and from 2 - tol, so once its imaginary
    test is clear it is hyperbolic or elliptic by the sign of |Re tr| - 2.
    """
    t = entries[:, 0] + entries[:, 3]
    imag = np.abs(t.imag)
    real = np.abs(t.real)
    # a row's eight finiteness flags are the eight bytes of one uint64
    coords = entries.view(np.float64)
    finite = np.empty(coords.shape, dtype=bool)
    np.isfinite(coords, out=finite)
    finite = finite.view(np.uint64)[:, 0] == 0x0101010101010101
    # _HYPERBOLIC is _ELLIPTIC + 1
    kinds = (real > 2.0).view(np.int8) + np.int8(_ELLIPTIC)
    kinds[imag > tol_trace] = _SCREW
    kinds[~(finite & (np.abs(imag - tol_trace) > 1e-12))] = _UNDECIDED
    reach = 2.0 * tol_trace * (1.0 + 4.0 * _EPS) + 1e-11
    near = np.flatnonzero(finite & ~(np.abs(real - 2.0) > reach))
    kinds[near] = _near_kinds(entries[near], tol_trace)
    return kinds


# the kinds of classify's five tests, in classify's order
_TEST_KINDS = np.array(
    (_IDENTITY, _PARABOLIC, _SCREW, _HYPERBOLIC, _ELLIPTIC), dtype=np.int8
)


def _near_kinds(entries, tol_trace):
    """_trace_kinds of finite rows, with all five tests on every row.

    margins[k] is test k's quantity less its threshold, signed so that the
    test passes where it is positive.  The first test whose margin is not
    below -1e-12 decides a row: its kind when the margin is above 1e-12,
    undecided otherwise, and undecided too when every test fails.
    """
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
    margins = np.stack((
        tol_trace - identity,
        tol_trace - parabolic,
        imag - tol_trace,
        real - 2.0,
        (2.0 - tol_trace) - real,
    ))
    first = np.argmax(~(margins < -1e-12), axis=0)
    decided = margins[first, np.arange(len(entries))] > 1e-12
    return np.where(decided, _TEST_KINDS[first], np.int8(_UNDECIDED))


def _cosh_half_length(t):
    """cosh(l / 2) for l the translation length of trace t."""
    z = t / 2.0
    return (np.abs(z - 1.0) + np.abs(z + 1.0)) / 2.0


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


def conjugate_rows(h, entries):
    """Rows of w h w^-1 for each unit-determinant row w of entries.

    The inverse of w = (a, b, c, d) is (d, -b, -c, a).
    """
    a, b, c, d = entries.T
    p = a * h.a + b * h.c
    q = a * h.b + b * h.d
    r = c * h.a + d * h.c
    s = c * h.b + d * h.d
    return np.stack(
        (p * d - q * c, q * a - p * b, r * d - s * c, s * a - r * b), axis=1
    )


def _translate_orbit(h, entries):
    """MatrixStore of h and of w h w^-1 for each row w of entries."""
    return MatrixStore(
        np.concatenate(([(h.a, h.b, h.c, h.d)], conjugate_rows(h, entries)))
    )


# Relative slack between the numpy key cosh(l / 2) of a row and the cosh
# of the length complex_length gives it, which differ by a few ulps times l.
_KEY_SLACK = 1e-9
# Lengths within this relative slack of the least tie.
_TIE = 1e-12


def _scan(ball, kinds, tol_trace, length_bound):
    """(row, kind, ComplexLength, matrix) of the candidate rows of ball (an
    enumerate_ball result) whose kind is in kinds, in ball order.

    kinds names elliptic, hyperbolic or screw.  The candidates are the rows
    of those kinds in ball.trace_kinds and, when a non-screw kind is asked
    for, the _AMBIGUOUS rows, as classify raises only where |Im tr| <=
    tol_trace.  A row's numpy key cosh(l / 2) lies within a relative
    _KEY_SLACK of the cosh of its length, so only the candidates whose key
    allows a length of at most length_bound(least) are read, least the
    most length the least key of a row of those kinds allows (inf when
    there is none).  Each row read is signed and gets the complex_length
    of its trace, computed once per bit pattern of the trace; an _AMBIGUOUS
    row read raises classify's AmbiguousClass.
    """
    entries = ball.entries
    codes = ball.trace_kinds(tol_trace)
    # (rows, keys) of the candidates: the non-screws have |Im tr| <=
    # tol_trace, so their keys take the real part
    candidates = []
    for kind in kinds:
        rows = np.flatnonzero(codes == _KINDS.index(kind))
        t = entries[rows, 0] + entries[rows, 3]
        candidates.append(
            (rows, _cosh_half_length(t if kind == "screw" else t.real))
        )
    least_key = min(
        (float(x.min()) for _, x in candidates if x.size), default=math.inf
    )
    if any(kind != "screw" for kind in kinds):
        rows = np.flatnonzero(codes == _AMBIGUOUS)
        t = entries[rows, 0] + entries[rows, 3]
        candidates.append((rows, _cosh_half_length(t.real)))
    # cosh(l / 2) grows with the length l
    least = 2.0 * math.acosh(max(least_key * (1.0 + _KEY_SLACK), 1.0))
    try:
        reach = math.cosh(length_bound(least) / 2.0) * (1.0 + _KEY_SLACK)
    except OverflowError:
        reach = math.inf
    rows = np.sort(
        np.concatenate([rows[x <= reach] for rows, x in candidates])
    )
    if not rows.size:
        return []
    # complex_length reads only the trace of a row that is neither identity
    # nor parabolic, and is not even in it: the key is the signed row's
    # trace, and its bits, as 0.0 == -0.0 though a function of the trace
    # may tell the two apart
    lengths = {}
    found = []
    for i, code, row in zip(
        rows.tolist(), codes[rows].tolist(), entries[rows].tolist()
    ):
        m = _signed(*row)
        if code == _AMBIGUOUS:
            # raises AmbiguousClass
            classify(m, tol_trace)
        t = m.trace
        key = struct.pack("2d", t.real, t.imag)
        if key not in lengths:
            lengths[key] = complex_length(m, tol_trace)
        found.append((i, _KINDS[code], lengths[key], m))
    return found


def spectrum(
    group, max_word_len, length_cutoff=DEFAULT_CUTOFF, tol_trace=TOL_TRACE
):
    """The distinct short geodesics of the ball, shortest first.

    Each elliptic, hyperbolic, or screw element of the ball contributes its
    axis; entries whose complex lengths agree within 1e-7 are identified
    when one axis is a ball-translate of the other, that is when the
    half-turn about one lies within MERGE_TOL of some w h w^-1 for the
    other, with w the identity or a ball element.  Parabolic and identity
    words carry no length and are skipped.  Entries come sorted by length,
    then angle, then shortlex word; the first of each class is kept.

    The _scan rows within length_cutoff are sorted once by (length,
    angle, row).
    """
    ball = enumerate_ball(group, max_word_len)
    kinds = ("elliptic", "hyperbolic", "screw")
    found = _scan(ball, kinds, tol_trace, lambda least: length_cutoff)
    # ball rows are in shortlex order, so the row breaks ties
    candidates = sorted(
        (cl.length, cl.angle, i, kind, m)
        for i, kind, cl, m in found
        if not cl.length > length_cutoff
    )

    kept = []
    # Kept reps whose length is within 1e-7 of the current candidate, as
    # [rep, its orbit]; the orbit is built on first use.  Candidates come
    # in length order, so a rep that falls behind can never pass the
    # length gate again and its orbit is dropped.
    near = []
    for length, angle, i, kind, m in candidates:
        entry = SpectrumEntry(
            ball[i], kind, length, angle, axis_of(m, tol_trace)
        )
        near = [slot for slot in near if entry.length - slot[0].length <= 1e-7]
        h = None
        for slot in near:
            rep, orbit = slot
            if abs(entry.angle - rep.angle) > 1e-7:
                continue
            if h is None:
                h = halfturn_matrix(entry.axis)
            if orbit is None:
                orbit = slot[1] = _translate_orbit(
                    halfturn_matrix(rep.axis), ball.entries
                )
            if orbit.find(h) is not None:
                break
        else:
            near.append([entry, None])
            kept.append(entry)
    return kept


def shortest(ball, kinds, tol_trace):
    """SpectrumEntry of least translation length among the rows of ball (an
    enumerate_ball result) whose kind is in kinds, or None.

    kinds names elliptic, hyperbolic or screw.  Lengths within a relative
    _TIE of the least tie, so that roundoff does not choose among equal
    lengths: the first tied row in shortlex order wins, with its own length
    and angle.  The candidates are the _scan of the ball within the tie of
    the least decided length (all of them when none is decided).  Only the
    winner's word is built.
    """
    found = _scan(ball, kinds, tol_trace, lambda least: least * (1.0 + _TIE))
    if not found:
        return None
    least = min(cl.length for _, _, cl, _ in found)
    # ball rows are in shortlex order, so the first tied row wins; a length
    # that is not a number ties too, so the loop always stops
    for i, kind, cl, m in found:
        if not cl.length > least * (1.0 + _TIE):
            break
    return SpectrumEntry(
        ball[i], kind, cl.length, cl.angle, axis_of(m, tol_trace)
    )


def shortest_screw(group, max_word_len, tol_trace=TOL_TRACE, ball=None):
    """shortest of the screws of the ball; ball, when given, must be an
    enumerate_ball result."""
    if ball is None:
        ball = enumerate_ball(group, max_word_len)
    return shortest(ball, ("screw",), tol_trace)


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


def _character_screw(group, tol_trace):
    """Letters of the first generator product with a non-real trace, or None.

    The products a_i1 ... a_ik, i1 < ... < ik, are taken by size, then in
    lexicographic order.  Every word trace is an integer polynomial in
    their traces (R. Horowitz, Comm. Pure Appl. Math. 25, 1972), and the
    traces of products of four or more are polynomials in those of at most
    three (2 tr abcd is one in tr a, ..., tr abc, tr acd, ...), so only
    those are formed.  The first non-real product is therefore the
    shortlex-first word with a non-real trace of any ball that holds it.
    A trace is non-real when |Im t| exceeds tol_trace plus the roundoff of
    the product, 8 k eps times the product of the sums of |entries|.
    """
    generators = [(g.a, g.b, g.c, g.d) for g in group.generators]
    for k in range(1, min(group.rank, 3) + 1):
        for subset in itertools.combinations(range(group.rank), k):
            a, _, _, d = _product([generators[i] for i in subset])
            size = math.prod(sum(map(abs, generators[i])) for i in subset)
            if abs((a + d).imag) > tol_trace + 8.0 * k * _EPS * size:
                return tuple(2 * i for i in subset)
    return None


def fuchsian_test(group, max_word_len, tol_trace=TOL_TRACE, ball=None):
    """Screw test on the character, then the plane of a hyperbolic pair.

    Verdicts: "screw_found" when a generator product has a non-real trace
    (witness: the first such product, see _character_screw, which may be
    longer than the ball's words), "all_non_screw_with_plane" (plane
    circle), or "elementary" when the ball has no two hyperbolic elements
    with four distinct endpoints.  A group with real traces and such a pair
    is conjugate into PSL(2, R) (B. Maskit, Kleinian Groups, 1988), so it
    keeps the plane invariant_plane spans with the first such pair in ball
    order; the ball is read only for that pair, and an _AMBIGUOUS row of
    ball.trace_kinds raises classify's AmbiguousClass when the search
    reaches it.  ball, when given, must be an enumerate_ball result.
    """
    screw = _character_screw(group, tol_trace)
    if screw is not None:
        return FuchsianResult("screw_found", witness=group.word(screw))
    if ball is None:
        ball = enumerate_ball(group, max_word_len)
    entries = ball.entries
    kinds = ball.trace_kinds(tol_trace)
    axes = {}

    def axis(i):
        if i not in axes:
            m = _row_matrix(entries, i)
            if kinds[i] == _AMBIGUOUS:
                # raises AmbiguousClass
                classify(m, tol_trace)
            axes[i] = axis_of(m, tol_trace)
        return axes[i]

    # walked lazily: the search reads a few of these rows, not all
    rows = np.flatnonzero((kinds == _HYPERBOLIC) | (kinds == _AMBIGUOUS))
    for n in range(len(rows)):
        i = int(rows[n])
        axis_u = axis(i)
        for j in rows[n + 1:]:
            if shares_endpoint(axis_u, axis(int(j))):
                continue
            plane = invariant_plane(ball[i].matrix, ball[j].matrix, tol_trace)
            return FuchsianResult("all_non_screw_with_plane", plane=plane)
    return FuchsianResult("elementary")


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
    common fixed point, or rotations whose axes all pass through one point,
    keep at most one limit point; any other mix is reported non-elementary.
    """
    kinds = []
    for gen in group.generators:
        kind = classify(gen, tol_trace)
        if kind != "identity":
            kinds.append((kind, gen))
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
        for _, gen in kinds:
            axis = axis_of(gen, tol_trace)
            if not any(same_line(axis, seen) for seen in axes):
                axes.append(axis)
        for i, first in enumerate(axes):
            for second in axes[i + 1:]:
                if not geodesic_separation(first, second).intersects:
                    return ElementaryResult("non_elementary")
        # axes that cross pairwise meet at one point when each one after the
        # first two meets their common perpendicular at that point
        if len(axes) > 2:
            normal = common_perpendicular(axes[0], axes[1])
            for axis in axes[2:]:
                if not (
                    same_line(axis, normal)
                    or geodesic_separation(axis, normal).intersects
                ):
                    return ElementaryResult("non_elementary")
        return ElementaryResult("limit_points_0_or_1")
    return ElementaryResult("non_elementary")


class ThricePuncturedSphereEvidence:
    """Generator pair matching the doubly-cusped plane group: parabolic
    generators with parabolic product, and the plane the ball keeps."""

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
            "plane": circle_json(self.plane),
        }

    def __repr__(self):
        return "ThricePuncturedSphereEvidence(%r, %r)" % (
            self.first.name,
            self.second.name,
        )


def thrice_punctured_test(
    group, max_word_len=DEFAULT_WORD_LEN, tol_trace=TOL_TRACE, ball=None
):
    """Evidence that a rank-2 group is the standard doubly-cusped plane group.

    Requires a generator pair (up to inversion) where both motions and
    their product are all parabolic, plus the plane fuchsian_test finds
    from real generator-product traces.  Returns None when any ingredient
    is missing; the pair is sought first, so a group without one never
    reaches fuchsian_test.

    The plane is spanned by the first hyperbolic pair of ball, by default
    the ball of length 2; at max_word_len 1, whose words are all parabolic,
    there is none.  A non-elementary group with the cusp pattern has the
    traces (+-2, +-2, -+2) of Gamma(2) and is conjugate to it; its words of
    length 2 hold two hyperbolic words with distinct axes (a b and a' b',
    or a b' and a' b), and the first hyperbolic word's first partner lies
    among them.  The ball of length 2 is the first rows of any longer ball,
    bit for bit, so a longer ball gives the same pair and the same plane.
    """
    pair = parabolic_generator_pair(group, tol_trace)
    if pair is None or max_word_len < 2:
        return None
    if ball is None:
        ball = enumerate_ball(group, 2)
    result = fuchsian_test(group, max_word_len, tol_trace, ball=ball)
    if result.verdict != "all_non_screw_with_plane":
        return None
    return ThricePuncturedSphereEvidence(pair[0], pair[1], result.plane)


def parabolic_generator_pair(group, tol_trace):
    """Generator words (u, v), up to inversion, with u, v and u v parabolic.

    This is the cusp pattern of the doubly-cusped plane group; None when the
    group does not have rank 2, when a generator product has a non-real
    trace (so that no product is classified for a screw group), or when no
    such pair exists.  The words a and b are classified once each (a' and
    b' have the same traces), then the products of the pairs (a, b), (a,
    b'), (a', b) and (a', b') in turn.
    """
    if group.rank != 2 or _character_screw(group, tol_trace) is not None:
        return None
    words = [group.word((letter,)) for letter in range(4)]
    if any(
        classify(words[i].matrix, tol_trace) != "parabolic"
        for i in (0, 2)
    ):
        return None
    for u in words[:2]:
        for v in words[2:]:
            if classify(u.matrix * v.matrix, tol_trace) == "parabolic":
                return u, v
    return None


def jorgensen_warnings(group):
    """Pairs of generators violating the discreteness trace inequality.

    The inequality |tr(A)^2 - 4| + |tr(ABA'B') - 2| >= 1 holds for every
    discrete non-elementary two-generator group; a violation means the pair
    generates an indiscrete or elementary group.  Advisory only.  The
    commutator is taken as computed: a sign on a partial product flips it.
    """
    rows = [(g.a, g.b, g.c, g.d) for g in group.generators]
    inverses = [(d, -b, -c, a) for a, b, c, d in rows]
    warnings = []
    for i, a in enumerate(group.generators):
        for j in range(i + 1, group.rank):
            p, _, _, s = _product((rows[i], rows[j], inverses[i], inverses[j]))
            value = abs(a.trace * a.trace - 4.0) + abs(p + s - 2.0)
            if value < 1.0 - 1e-12:
                warnings.append(
                    "generators %s, %s give discreteness sum %.6f < 1; "
                    "the pair is indiscrete or elementary"
                    % (group.labels[i], group.labels[j], value)
                )
    return warnings
