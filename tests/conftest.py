"""Shared sampling helpers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are meant to check:
complex lengths come from eigenvalue multipliers instead of arccosh, and
geodesic separations come from numeric minimization in the upper half-space
model instead of the library's half-turn trace formula.
"""

import cmath
import math
import os
import random

import numpy as np
import pytest

import loxo.certification
import loxo.enumeration
import loxo.pipeline
from loxo.enumeration import GroupPresentation
from loxo.isometry import MoebiusIsometry
from loxo.pipeline import load_group_file

# ---------------------------------------------------------------------------
# samplers


def random_complex(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def random_isometry(rng, scale=1.0):
    """Generic unit-determinant matrix with entries of moderate size."""
    while True:
        a = random_complex(rng, scale)
        b = random_complex(rng, scale)
        c = random_complex(rng, scale)
        d = random_complex(rng, scale)
        if abs(a * d - b * c) > 1e-3:
            return MoebiusIsometry(a, b, c, d)


def loxodromic_with(rng, length, angle):
    """Conjugate of the standard screw/translation of given complex length."""
    half = (length + 1j * angle) / 2.0
    model = MoebiusIsometry(cmath.exp(half), 0.0, 0.0, cmath.exp(-half))
    return model.conjugate_by(random_isometry(rng))


def elliptic_with(rng, angle):
    model = MoebiusIsometry(
        cmath.exp(1j * angle / 2.0), 0.0, 0.0, cmath.exp(-1j * angle / 2.0)
    )
    return model.conjugate_by(random_isometry(rng))


def parabolic_with(rng, shift=None):
    if shift is None:
        shift = random_complex(rng, 2.0)
        if abs(shift) < 0.1:
            shift += 0.5
    model = MoebiusIsometry(1.0, shift, 0.0, 1.0)
    return model.conjugate_by(random_isometry(rng))


def random_classified(rng):
    """A sample across all non-identity classes, tagged with its true kind."""
    kind = rng.choice(["hyperbolic", "elliptic", "parabolic", "screw"])
    if kind == "hyperbolic":
        return kind, loxodromic_with(rng, rng.uniform(0.2, 4.0), 0.0)
    if kind == "elliptic":
        return kind, elliptic_with(rng, rng.uniform(0.2, math.pi - 0.2))
    if kind == "parabolic":
        return kind, parabolic_with(rng)
    return kind, loxodromic_with(
        rng,
        rng.uniform(0.2, 4.0),
        rng.choice([-1.0, 1.0]) * rng.uniform(0.2, math.pi - 0.2),
    )


def bits(values):
    """The bit patterns of complex values, for comparisons bit for bit."""
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def scalar_products(parents, letters):
    """p * l for each parent row p and letter row l, as CPython's complex
    product and sum form MoebiusIsometry.__mul__'s entries before the
    sign."""
    return [
        (
            p[0] * l[0] + p[1] * l[2],
            p[0] * l[1] + p[1] * l[3],
            p[2] * l[0] + p[3] * l[2],
            p[2] * l[1] + p[3] * l[3],
        )
        for p in parents
        for l in letters
    ]


@pytest.fixture
def ball_lengths(monkeypatch):
    """The word bounds of the enumerate_ball calls from here on, made in
    loxo.enumeration, loxo.certification or loxo.pipeline."""
    lengths = []
    build = loxo.enumeration.enumerate_ball

    def recorded(group, max_word_len, *args, **kwargs):
        lengths.append(max_word_len)
        return build(group, max_word_len, *args, **kwargs)

    monkeypatch.setattr(loxo.enumeration, "enumerate_ball", recorded)
    monkeypatch.setattr(loxo.certification, "enumerate_ball", recorded)
    monkeypatch.setattr(loxo.pipeline, "enumerate_ball", recorded)
    return lengths


@pytest.fixture
def psl_distance_calls(monkeypatch):
    """A one-item list counting the scalar psl_distance calls from here on."""
    calls = [0]
    psl_distance = MoebiusIsometry.psl_distance

    def counted(m, other):
        calls[0] += 1
        return psl_distance(m, other)

    monkeypatch.setattr(MoebiusIsometry, "psl_distance", counted)
    return calls


# ---------------------------------------------------------------------------
# oracles


def oracle_complex_length(m):
    """(l, theta) via the eigenvalue multiplier, no arccosh involved.

    Eigenvalues of a unit-determinant matrix solve x + 1/x = trace.  The
    squared large eigenvalue is the derivative of the map at its repelling
    fixed point; its log gives the complex translation length.
    """
    t = m.trace
    if abs(t.imag) <= 1e-9:
        t = complex(t.real, 0.0)
    root = cmath.sqrt(t * t - 4.0)
    lam = (t + root) / 2.0
    if abs(lam) < 1.0:
        lam = (t - root) / 2.0
    mult = lam * lam
    length = math.log(abs(mult))
    if length < 0.0:
        length = 0.0
    angle = cmath.phase(mult)
    if length == 0.0 and angle < 0.0:
        # elliptic rotations of a canonical representative measure in (0, pi]
        angle = -angle
    if angle <= -math.pi:
        angle = math.pi
    return length, angle


def _geodesic_chart(line):
    """Arclength chart s -> (point in C, height) of a finite-endpoint line."""
    p = line.p.to_complex()
    q = line.q.to_complex()
    center = (p + q) / 2.0
    radius = abs(q - p) / 2.0
    direction = (q - p) / abs(q - p)

    def chart(s):
        return center + radius * math.tanh(s) * direction, radius / math.cosh(s)

    return chart


def upper_half_space_distance(x, hx, y, hy):
    arg = 1.0 + (abs(x - y) ** 2 + (hx - hy) ** 2) / (2.0 * hx * hy)
    return math.acosh(arg)


def oracle_min_distance(line_a, line_b):
    """Infimum of pointwise distance by 2-parameter numeric minimization.

    Distance between points of two geodesics is jointly convex in the
    arclength parameters, so a quasi-Newton descent from the origin finds the
    global minimum.  Finite endpoints are required.
    """
    from scipy.optimize import minimize

    chart_a = _geodesic_chart(line_a)
    chart_b = _geodesic_chart(line_b)

    def objective(st):
        xa, ha = chart_a(st[0])
        xb, hb = chart_b(st[1])
        # cosh of distance: same minimizer, smooth everywhere
        return (abs(xa - xb) ** 2 + (ha - hb) ** 2) / (2.0 * ha * hb)

    best = None
    for start in ((0.0, 0.0), (1.0, -1.0), (-1.0, 1.0)):
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
        if best is None or res.fun < best:
            best = res.fun
    return math.acosh(1.0 + best)


def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3],
    )


# working precision of the mpmath oracles, in decimal digits
MP_DIGITS = 50


def mpmath_words(generators, ball):
    """The unit-determinant matrices of the ball's words in mpmath, each
    rebuilt from its prefix and last letter over exact generator entries
    (see exact_generators), so that no float product enters."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        letters = []
        for m in generators:
            m = tuple(mpmath.mpc(z) for z in m)
            root = mpmath.sqrt(m[0] * m[3] - m[1] * m[2])
            m = tuple(z / root for z in m)
            letters += [m, (m[3], -m[1], -m[2], m[0])]
        words = []
        for parent, letter in zip(ball.parents.tolist(), ball.letters.tolist()):
            m = letters[letter]
            words.append(m if parent < 0 else _mul(words[parent], m))
        return words


def mpmath_translate_distances(words, m, stop_at_crossing=False):
    """Distance in mpmath from the axis of the loxodromic m to its
    translate by each of the words (mpmath_words): None for a word that
    stabilizes the axis.

    The half-turn about the axis of m is i (m - m^-1) / sqrt(tr(m)^2 - 4);
    for t = tr(h w h w^-1) the distance is
    arccosh((|t/2 - 1| + |t/2 + 1|) / 2).  With stop_at_crossing the list
    ends at the first word whose translate lies within INTERSECTION_TOL of
    the axis.
    """
    import mpmath

    from loxo.geometry import INTERSECTION_TOL

    with mpmath.workdps(MP_DIGITS):
        inverse = (m[3], -m[1], -m[2], m[0])
        root = mpmath.sqrt((m[0] + m[3]) ** 2 - 4)
        h = tuple(1j * (x - y) / root for x, y in zip(m, inverse))
        h_size = max(abs(z) for z in h)
        small = mpmath.mpf(10) ** (10 - MP_DIGITS)
        crossing = mpmath.cosh(INTERSECTION_TOL)
        out = []
        for w in words:
            g = _mul(_mul(w, h), (w[3], -w[1], -w[2], w[0]))
            z = (h[0] * (g[0] - g[3]) + h[1] * g[2] + h[2] * g[1]) / 2
            x = (abs(z - 1) + abs(z + 1)) / 2
            if x - 1 <= small:
                size = small * h_size * max(abs(u) for u in w) ** 2
                if any(
                    max(abs(u - sign * v) for u, v in zip(g, h)) <= size
                    for sign in (1, -1)
                ):
                    out.append(None)
                    continue
            out.append(float(mpmath.acosh(x)))
            if stop_at_crossing and x < crossing:
                break
        return out


def exact_generators(name):
    """Generator entries, exact as far as mpmath's 50 digits go, of the
    reference or float group of that name: the integer, dyadic and
    Eisenstein entries of the base group, conjugated in mpmath by the
    float group's conjugator taken as exact."""
    import mpmath

    omega = (1 + 1j * mpmath.sqrt(3)) / 2
    base = {
        "figure_eight": [(1, 1, 0, 1), (1, 0, -omega, 1)],
        "thrice_punctured": [(1, 2, 0, 1), (1, 0, 2, 1)],
        "diag_hyperbolic": [(2, 0, 0, 0.5)],
        "single_parabolic": [(1, 1, 0, 1)],
        "funnel": [(1, 2, 0, 1), (1, 0, 3, 1)],
        "torus": [(1, 1, 1, 2), (1, -1, -1, 2)],
        "schottky": [(-1.5, -7.75, 1, 4.5), (4.5, -7.75, 1, -1.5)],
    }
    with mpmath.workdps(MP_DIGITS):
        if name in base:
            return [tuple(mpmath.mpc(z) for z in m) for m in base[name]]
        g = dict(_conjugators())[name]
        g = tuple(mpmath.mpc(z) for z in (g.a, g.b, g.c, g.d))
        det = g[0] * g[3] - g[1] * g[2]
        inverse = (g[3] / det, -g[1] / det, -g[2] / det, g[0] / det)
        return [
            _mul(_mul(g, m), inverse)
            for m in exact_generators(name.split()[0])
        ]


# ---------------------------------------------------------------------------
# fixture groups (matrices only; higher layers wrap them as needed)

THRICE_PUNCTURED = (
    ("a", MoebiusIsometry(1.0, 2.0, 0.0, 1.0)),
    ("b", MoebiusIsometry(1.0, 0.0, 2.0, 1.0)),
)

FIGURE_EIGHT_OMEGA = complex(0.5, math.sqrt(3.0) / 2.0)

FIGURE_EIGHT = (
    ("a", MoebiusIsometry(1.0, 1.0, 0.0, 1.0)),
    ("b", MoebiusIsometry(1.0, 0.0, -FIGURE_EIGHT_OMEGA, 1.0)),
)

SINGLE_HYPERBOLIC = (("a", MoebiusIsometry(2.0, 0.0, 0.0, 0.5)),)

SINGLE_PARABOLIC = (("a", MoebiusIsometry(1.0, 1.0, 0.0, 1.0)),)


def reference_groups():
    """(name, group) pairs on which the ball kernels meet their references:
    the four fixtures, a funnel group and a punctured-torus group."""
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    groups = [
        (name, load_group_file(os.path.join(fixtures, name + ".json"))[0])
        for name in (
            "figure_eight",
            "thrice_punctured",
            "diag_hyperbolic",
            "single_parabolic",
        )
    ]
    groups.append((
        "funnel",
        GroupPresentation(
            [MoebiusIsometry(1, 2, 0, 1), MoebiusIsometry(1, 0, 3, 1)]
        ),
    ))
    groups.append((
        "torus",
        GroupPresentation(
            [MoebiusIsometry(1, 1, 1, 2), MoebiusIsometry(1, -1, -1, 2)]
        ),
    ))
    return groups


def seeded(name):
    """Deterministic RNG per test, decoupled across tests by name."""
    return random.Random(name)


def _conjugators():
    """(float group name, conjugator) of the float groups' conjugates."""
    out = []
    for n, name in enumerate(
        ("figure_eight", "thrice_punctured", "funnel", "torus")
    ):
        k = 1.7 + 0.4 * n
        out.append((
            name + " conjugate", random_isometry(seeded("conjugate " + name))
        ))
        out.append((name + " diagonal", MoebiusIsometry(k, 0, 0, 1 / k)))
    return out


def float_groups():
    """(name, group) pairs with float entries, on which the numpy products
    of enumerate_ball meet MoebiusIsometry's: the figure_eight,
    thrice_punctured, funnel and torus groups conjugated by a seeded
    random isometry and by diag(k, 1/k), and a Schottky group."""
    groups = dict(reference_groups())
    out = [
        (
            name,
            GroupPresentation([
                x.conjugate_by(g) for x in groups[name.split()[0]].generators
            ]),
        )
        for name, g in _conjugators()
    ]
    out.append((
        "schottky",
        GroupPresentation([
            MoebiusIsometry(-1.5, -7.75, 1, 4.5),
            MoebiusIsometry(4.5, -7.75, 1, -1.5),
        ]),
    ))
    return out
