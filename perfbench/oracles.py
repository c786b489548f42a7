"""Reference values computed apart from loxo.

- ``ExactBall``: the word ball enumerated in exact integer arithmetic over
  the Eisenstein integers Z[omega] (omega = exp(i pi / 3), so omega^2 =
  omega - 1), which contain Z.  Matrices are identified up to sign, words
  are walked in the same shortlex order with free reduction, and a word
  equal to an earlier element is dropped and not extended.  This gives the
  per-level counts and the exact trace of every ball word.
- ``eigen_complex_length``: complex length from numpy eigenvalues, no
  arccosh.
- ``keeps_circle``: Hermitian-form test that a matrix maps an oriented
  boundary circle onto itself.
- Closed forms for the lengths the benchmark expects.

Run ``python3 perfbench/oracles.py`` to print the oracle figures the
benchmark checks against; nothing is stored, every run recomputes them.
"""

import cmath
import math

import numpy as np

SQRT3_2 = math.sqrt(3.0) / 2.0

# Closed forms for the expected lengths.
FIGURE_EIGHT_SYSTOLE = 2.0 * cmath.acosh(complex(1.5, -SQRT3_2) / 2.0).real
FUNNEL_SHORTEST = 2.0 * math.acosh(2.0)
TORUS_SHORTEST = 2.0 * math.acosh(1.5)
THRICE_SHORTEST = 2.0 * math.acosh(3.0)


def letters_of(labels, name):
    """Letter indices of a word name such as "a b' a": 2 i, or 2 i + 1 for
    the inverse of generator i."""
    out = []
    for token in name.split():
        label = token.rstrip("'")
        out.append(2 * labels.index(label) + (token != label))
    return tuple(out)


# ---------------------------------------------------------------------------
# Z[omega] arithmetic: x + y omega stored as the pair (x, y)


def _mul(p, q):
    x1, y1 = p
    x2, y2 = q
    return (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1 + y1 * y2)


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _neg(p):
    return (-p[0], -p[1])


def _matmul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (
        _add(_mul(a, e), _mul(b, g)),
        _add(_mul(a, f), _mul(b, h)),
        _add(_mul(c, e), _mul(d, g)),
        _add(_mul(c, f), _mul(d, h)),
    )


def trace(m):
    return _add(m[0], m[3])


def _inverse(m):
    a, b, c, d = m
    return (d, _neg(b), _neg(c), a)


def _key(m):
    """Sign-free key: the larger of m and -m as a flat integer tuple."""
    flat = tuple(v for entry in m for v in entry)
    neg = tuple(-v for v in flat)
    return max(flat, neg)


def to_complex(p):
    return complex(p[0] + 0.5 * p[1], SQRT3_2 * p[1])


def eisenstein_of(z, tol=1e-12):
    """Exact Z[omega] element for a float complex number that is one."""
    y = round(z.imag / SQRT3_2)
    x = round(z.real - 0.5 * y)
    if abs(to_complex((x, y)) - z) > tol:
        raise ValueError("%r is not an Eisenstein integer" % (z,))
    return (x, y)


def exact_matrix(m):
    """Exact form of a loxo matrix whose entries lie in Z[omega]."""
    return tuple(eisenstein_of(complex(v)) for v in (m.a, m.b, m.c, m.d))


def trace_kind(t):
    """Isometry class of an exact non-identity trace."""
    x, y = t
    if y != 0:
        return "screw"
    if abs(x) == 2:
        return "parabolic"
    return "elliptic" if abs(x) < 2 else "hyperbolic"


def trace_length(t):
    """Translation length 2 Re arccosh(t / 2) of an exact trace."""
    return 2.0 * abs(cmath.acosh(to_complex(t) / 2.0).real)


class ExactBall:
    """Shortlex word ball of a group with Z[omega] generators."""

    def __init__(self, generators, labels, max_word_len):
        self.labels = list(labels)
        letters = []
        for gen in generators:
            letters.append(gen)
            letters.append(_inverse(gen))
        self.letter_matrices = letters
        one, zero = (1, 0), (0, 0)
        identity = (one, zero, zero, one)
        seen = {_key(identity)}
        self.level_counts = []
        self.traces = {}
        frontier = [((), identity)]
        for _ in range(max_word_len):
            next_frontier = []
            for word, matrix in frontier:
                last = word[-1] if word else None
                for letter, lm in enumerate(letters):
                    if last is not None and letter == last ^ 1:
                        continue
                    product = _matmul(matrix, lm)
                    key = _key(product)
                    if key in seen:
                        continue
                    seen.add(key)
                    spelled = word + (letter,)
                    self.traces[spelled] = trace(product)
                    next_frontier.append((spelled, product))
            self.level_counts.append(len(next_frontier))
            frontier = next_frontier

    def matrix_of(self, name):
        one, zero = (1, 0), (0, 0)
        m = (one, zero, zero, one)
        for letter in letters_of(self.labels, name):
            m = _matmul(m, self.letter_matrices[letter])
        return m

    def kinds(self):
        return {trace_kind(t) for t in self.traces.values()}

    def shortest(self, kind):
        """Least translation length over ball words of the given class."""
        lengths = {
            trace_length(t)
            for t in set(self.traces.values())
            if trace_kind(t) == kind
        }
        return min(lengths) if lengths else None

    def stabilizes(self, witness, axis_word):
        """True when the witness maps the axis of axis_word to itself.

        A loxodromic h and its axis: w keeps the axis exactly when w h w^-1
        is h or h^-1 up to sign.
        """
        w = self.matrix_of(witness)
        h = self.matrix_of(axis_word)
        moved = _key(_matmul(_matmul(w, h), _inverse(w)))
        return moved in (_key(h), _key(_inverse(h)))


# ---------------------------------------------------------------------------
# floating-point oracles


def as_array(m):
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=complex)


def eigen_complex_length(m):
    """(length, angle) from the eigenvalue of modulus at least one.

    For eigenvalue lam = +-exp((l + i theta) / 2): l = 2 log |lam| and
    theta = 2 arg lam, reduced to (-pi, pi].
    """
    lam = max(np.linalg.eigvals(as_array(m)), key=abs)
    length = 2.0 * math.log(abs(lam))
    angle = math.remainder(2.0 * math.atan2(lam.imag, lam.real), 2.0 * math.pi)
    if angle <= -math.pi:
        angle += 2.0 * math.pi
    return max(length, 0.0), angle


def hermitian_form(circle):
    """Oriented Hermitian matrix H with v* H v = 0 on the circle, v = (z, 1)."""
    a, b, c = circle.signed_triple()
    return np.array([[a, b], [complex(b).conjugate(), c]], dtype=complex)


def keeps_circle(m, circle, tol=1e-7):
    """m maps the oriented circle onto itself: M* H M = H for det M = 1."""
    h = hermitian_form(circle)
    mat = as_array(m)
    moved = mat.conj().T @ h @ mat
    return float(np.max(np.abs(moved - h))) <= tol * max(
        1.0, float(np.max(np.abs(mat))) ** 2
    )


def trace_of_word(generators, labels, name):
    """Float trace of a named word, multiplied out with numpy."""
    m = np.eye(2, dtype=complex)
    for letter in letters_of(labels, name):
        g = as_array(generators[letter // 2])
        m = m @ (np.linalg.inv(g) if letter % 2 else g)
    return complex(np.trace(m))


if __name__ == "__main__":
    import json
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    for name, gens, labels in workloads.exact_groups():
        for length in (6, 8):
            ball = ExactBall(gens, labels, length)
            print(json.dumps({
                "group": name,
                "max_word_len": length,
                "level_counts": ball.level_counts,
                "ball_words": len(ball.traces),
                "shortest_screw": ball.shortest("screw"),
                "shortest_hyperbolic": ball.shortest("hyperbolic"),
            }))
    print(json.dumps({
        "figure_eight_systole": FIGURE_EIGHT_SYSTOLE,
        "funnel_shortest": FUNNEL_SHORTEST,
        "torus_shortest": TORUS_SHORTEST,
        "thrice_punctured_shortest": THRICE_SHORTEST,
    }))
