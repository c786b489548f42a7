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

from loxo.enumeration import GroupPresentation
from loxo.isometry import MoebiusIsometry, BoundaryPoint
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


def float_groups():
    """(name, group) pairs with float entries, on which the numpy rescale
    of enumerate_ball meets MoebiusIsometry's: the figure_eight,
    thrice_punctured, funnel and torus groups conjugated by a seeded
    random isometry and by diag(k, 1/k), and a Schottky group."""
    groups = dict(reference_groups())
    out = []
    for n, name in enumerate(
        ("figure_eight", "thrice_punctured", "funnel", "torus")
    ):
        gens = groups[name].generators
        k = 1.7 + 0.4 * n
        for tag, g in (
            ("conjugate", random_isometry(seeded("conjugate " + name))),
            ("diagonal", MoebiusIsometry(k, 0, 0, 1 / k)),
        ):
            out.append((
                "%s %s" % (name, tag),
                GroupPresentation([x.conjugate_by(g) for x in gens]),
            ))
    out.append((
        "schottky",
        GroupPresentation([
            MoebiusIsometry(-1.5, -7.75, 1, 4.5),
            MoebiusIsometry(4.5, -7.75, 1, -1.5),
        ]),
    ))
    return out
