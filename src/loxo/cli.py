"""Command line front end.

Every subcommand prints a deterministic report (JSON or flattened text) and
exits 0 on a conclusive answer, 2 on an input problem, and 3 when a bounded
search comes back inconclusive.
"""

import argparse
import math
import sys

from .certification import (
    cusp_depth,
    max_parabolic_length_at_depth,
    simplicity_check,
)
from .enumeration import (
    DEFAULT_CUTOFF,
    DEFAULT_WORD_LEN,
    enumerate_ball,
    shortest_screw,
    spectrum,
)
from .errors import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    AmbiguousClass,
    BudgetExceeded,
    LoxoError,
    ParseError,
)
from .geometry import GeodesicLine, axis_of, circle_json, line_json
from .halfturn import decompose, invariant_plane, shared_factorization
from .isometry import (
    TOL_TRACE, BoundaryPoint, MoebiusIsometry, classify, complex_length,
)
from .pipeline import (
    RunConfig,
    classify_manifold,
    emit_report,
    entry_json,
    load_group_file,
    simplicity_json,
)

_MATRIX_HELP = "eight floats: a_re a_im b_re b_im c_re c_im d_re d_im"


def _finite_float(text):
    """argparse type of every float argument; refuses NaN and infinities."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("not a finite number: %r" % text)
    return value


def _tolerance(text):
    """argparse type of --tol: a finite float, zero or more."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("negative tolerance: %r" % text)
    return value


def _matrix_from(values):
    return MoebiusIsometry(
        complex(values[0], values[1]),
        complex(values[2], values[3]),
        complex(values[4], values[5]),
        complex(values[6], values[7]),
    )


def _parse_word(group, text):
    letters = []
    for token in text.split():
        base = token
        primes = 0
        while base.endswith("'"):
            base = base[:-1]
            primes += 1
        if primes > 1 or base not in group.labels:
            raise ParseError("unknown letter %r in word" % token)
        letters.append(2 * group.labels.index(base) + (1 if primes else 0))
    if not letters:
        raise ParseError("empty word")
    return group.word(tuple(letters))


def _load(args):
    """The group file, its warnings and the RunConfig of the parsed flags;
    a command without --cutoff keeps RunConfig's length cutoff."""
    group, warnings = load_group_file(args.group, args.tol)
    cutoff = {"length_cutoff": args.cutoff} if "cutoff" in args else {}
    config = RunConfig(max_word_len=args.max_word_len, tol_trace=args.tol, **cutoff)
    return group, warnings, config


class _SearchFailed(Exception):
    """A library error of the ball or a kernel on parsed input: exit 3."""


def _search(kernel, *args):
    """kernel(*args), its LoxoError raised as _SearchFailed; a budget
    overrun stays an input error, since the word bound asked for it."""
    try:
        return kernel(*args)
    except BudgetExceeded:
        raise
    except LoxoError as exc:
        raise _SearchFailed(exc) from exc


def _print(data, fmt):
    sys.stdout.write(emit_report(data, fmt))


def _cmd_classify_element(args):
    m = _matrix_from(args.matrix)
    kind = classify(m, args.tol)
    cl = None
    if kind not in ("identity", "parabolic"):
        cl = complex_length(m, args.tol)
    data = {
        "kind": kind,
        "trace": [m.trace.real, m.trace.imag],
        # a length for hyperbolic and screw motions, an angle for elliptic
        # and screw ones
        "length": cl.length if kind in ("hyperbolic", "screw") else None,
        "angle": cl.angle if kind in ("elliptic", "screw") else None,
    }
    _print(data, args.format)
    return EXIT_OK


def _cmd_decompose(args):
    m = _matrix_from(args.matrix)
    free = None
    if args.free_point is not None:
        free = BoundaryPoint.from_complex(
            complex(args.free_point[0], args.free_point[1])
        )
    elif args.free_line is not None:
        free = GeodesicLine.from_complex(
            complex(args.free_line[0], args.free_line[1]),
            complex(args.free_line[2], args.free_line[3]),
        )
    first, second = decompose(m, free_choice=free, tol_trace=args.tol)
    data = {
        "kind": classify(m, args.tol),
        "first_axis": line_json(first.axis),
        "second_axis": line_json(second.axis),
    }
    _print(data, args.format)
    return EXIT_OK


def _cmd_shared_decomposition(args):
    alpha = _matrix_from(args.first)
    beta = _matrix_from(args.second)
    fac = shared_factorization(alpha, beta, args.tol)
    data = {
        "first_axis": line_json(fac.first.axis),
        "shared_axis": line_json(fac.shared.axis),
        "second_axis": line_json(fac.second.axis),
    }
    _print(data, args.format)
    return EXIT_OK


def _cmd_invariant_plane(args):
    alpha = _matrix_from(args.first)
    beta = _matrix_from(args.second)
    plane = invariant_plane(alpha, beta, tol_trace=args.tol)
    _print({"plane": circle_json(plane)}, args.format)
    return EXIT_OK


def _cmd_ball(args):
    group, warnings, config = _load(args)
    ball = _search(enumerate_ball, group, config.max_word_len)
    if args.format == "text":
        lines = ["count: %d" % len(ball)] + [w.name for w in ball]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _print(
            {
                "count": len(ball),
                "words": [w.name for w in ball],
                "warnings": warnings,
            },
            args.format,
        )
    return EXIT_OK


def _cmd_spectrum(args):
    group, warnings, config = _load(args)
    entries = _search(
        spectrum, group, config.max_word_len, config.length_cutoff, config.tol_trace
    )
    if args.format == "text":
        lines = [
            "%.12g %.12g %s %s" % (e.length, e.angle, e.kind, e.word.name)
            for e in entries
        ]
        sys.stdout.write("\n".join(lines) + "\n" if lines else "")
        return EXIT_OK
    _print(
        {
            "entries": [entry_json(e) for e in entries],
            "warnings": warnings,
        },
        args.format,
    )
    return EXIT_OK


def _cmd_shortest_screw(args):
    group, warnings, config = _load(args)
    entry = _search(shortest_screw, group, config.max_word_len, config.tol_trace)
    data = {
        "found": entry is not None,
        "entry": entry_json(entry) if entry else None,
        "warnings": warnings,
    }
    _print(data, args.format)
    return EXIT_OK


def _cmd_check_simple(args):
    group, warnings, config = _load(args)
    word = _parse_word(group, args.word)
    axis = axis_of(word.matrix, config.tol_trace)
    report = _search(simplicity_check, group, axis, config.max_word_len)
    data = {
        "word": word.name,
        "simplicity": simplicity_json(report),
        "warnings": warnings,
    }
    _print(data, args.format)
    return EXIT_OK


def _cmd_cusp_depth(args):
    if args.invert:
        data = {
            "depth": args.value,
            "max_loop_length": max_parabolic_length_at_depth(args.value),
        }
    else:
        data = {"loop_length": args.value, "depth": cusp_depth(args.value)}
    _print(data, args.format)
    return EXIT_OK


def _cmd_classify_manifold(args):
    group, warnings, config = _load(args)
    report = classify_manifold(group, config)
    report.warnings = warnings + list(report.warnings)
    _print(report, args.format)
    return report.exit_code


def _add_matrices(sub, *names):
    for name in names:
        sub.add_argument(
            name, type=_finite_float, nargs=8, required=True, help=_MATRIX_HELP
        )


def _add_common(sub, tol=True, word_len=False, cutoff=False):
    if tol:
        sub.add_argument(
            "--tol", type=_tolerance, default=TOL_TRACE,
            help="trace tolerance for classification (default %(default)g)",
        )
    sub.add_argument(
        "--format", choices=("json", "text"), default="text",
        help="output format (default text)",
    )
    if word_len:
        sub.add_argument(
            "--max-word-len", type=int, default=DEFAULT_WORD_LEN,
            help="word length bound for the ball (default %(default)s)",
        )
    if cutoff:
        sub.add_argument(
            "--cutoff", type=_finite_float, default=DEFAULT_CUTOFF,
            help="drop geodesics longer than this (default %(default)s)",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="loxo",
        description=(
            "Classify isometries, build half-turn factorizations, and hunt "
            "short simple geodesics in finitely generated isometry groups."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "classify-element", help="classify one matrix by its trace"
    )
    _add_matrices(sub, "--matrix")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_classify_element)

    sub = subs.add_parser(
        "decompose", help="factor a matrix into two half-turns"
    )
    _add_matrices(sub, "--matrix")
    free = sub.add_mutually_exclusive_group()
    free.add_argument(
        "--free-point", type=_finite_float, nargs=2, metavar=("RE", "IM"),
        help="free ideal endpoint for a parabolic input",
    )
    free.add_argument(
        "--free-line", type=_finite_float, nargs=4,
        metavar=("P_RE", "P_IM", "Q_RE", "Q_IM"),
        help="free axis, must cross the input's axis at a right angle",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_decompose)

    sub = subs.add_parser(
        "shared-decomposition",
        help="half-turn factorizations of two motions through one shared axis",
    )
    _add_matrices(sub, "--first", "--second")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_shared_decomposition)

    sub = subs.add_parser(
        "invariant-plane",
        help="oriented circle preserved by a non-screw pair",
    )
    _add_matrices(sub, "--first", "--second")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_invariant_plane)

    sub = subs.add_parser(
        "ball", help="enumerate distinct group elements up to a word length"
    )
    sub.add_argument("group", help="path to a generator file")
    _add_common(sub, word_len=True)
    sub.set_defaults(handler=_cmd_ball)

    sub = subs.add_parser(
        "spectrum", help="lengths and angles of the distinct short geodesics"
    )
    sub.add_argument("group", help="path to a generator file")
    _add_common(sub, word_len=True, cutoff=True)
    sub.set_defaults(handler=_cmd_spectrum)

    sub = subs.add_parser(
        "shortest-screw", help="screw word of least translation length"
    )
    sub.add_argument("group", help="path to a generator file")
    _add_common(sub, word_len=True)
    sub.set_defaults(handler=_cmd_shortest_screw)

    sub = subs.add_parser(
        "check-simple",
        help="scan ball translates of a word's axis for crossings",
    )
    sub.add_argument("group", help="path to a generator file")
    sub.add_argument("word", help="word over the labels, e.g. \"a b' a\"")
    _add_common(sub, word_len=True)
    sub.set_defaults(handler=_cmd_check_simple)

    sub = subs.add_parser(
        "cusp-depth",
        help="depth where horoball loops of the given length reach length one",
    )
    sub.add_argument(
        "value", type=_finite_float,
        help="loop length (or depth with --invert)",
    )
    sub.add_argument(
        "--invert", action="store_true",
        help="treat the input as a depth and return the longest loop",
    )
    _add_common(sub, tol=False)
    sub.set_defaults(handler=_cmd_cusp_depth)

    sub = subs.add_parser(
        "classify-manifold",
        help="full search: elementary test, plane test, geodesic certificates",
    )
    sub.add_argument("group", help="path to a generator file")
    _add_common(sub, word_len=True, cutoff=True)
    sub.set_defaults(handler=_cmd_classify_manifold)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (AmbiguousClass, _SearchFailed) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except LoxoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
