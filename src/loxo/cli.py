"""Command line front end.

Every subcommand prints a deterministic report (JSON or flattened text) and
exits 0 on a conclusive answer, 2 on an input problem, and 3 when a bounded
search comes back inconclusive.
"""

import argparse
import sys

from .certification import (
    cusp_depth,
    max_parabolic_length_at_depth,
    simplicity_check,
)
from .enumeration import enumerate_ball, shortest_screw, spectrum
from .errors import (
    AmbiguousClass,
    GroupFileError,
    LoxoError,
    ParseError,
)
from .geometry import GeodesicLine, axis_of
from .halfturn import decompose, invariant_plane, shared_factorization
from .isometry import BoundaryPoint, MoebiusIsometry, classify
from .pipeline import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    RunConfig,
    _circle_json,
    _entry_json,
    _line_json,
    _simplicity_json,
    classify_manifold,
    emit_report,
    load_group_file,
)

_MATRIX_HELP = "eight floats: a_re a_im b_re b_im c_re c_im d_re d_im"


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


def _config_from(args):
    return RunConfig(
        max_word_len=getattr(args, "max_word_len", 6),
        length_cutoff=getattr(args, "cutoff", 12.0),
        tol_trace=getattr(args, "tol", 1e-9),
    )


def _print(data, fmt):
    sys.stdout.write(emit_report(data, fmt))


def _cmd_classify_element(args):
    m = _matrix_from(args.matrix)
    cls = classify(m, args.tol)
    data = {
        "kind": cls.kind,
        "trace": [m.trace.real, m.trace.imag],
        "length": cls.length,
        "angle": cls.angle,
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
        "kind": classify(m, args.tol).kind,
        "first_axis": _line_json(first.axis),
        "second_axis": _line_json(second.axis),
    }
    _print(data, args.format)
    return EXIT_OK


def _cmd_shared_decomposition(args):
    alpha = _matrix_from(args.first)
    beta = _matrix_from(args.second)
    fac = shared_factorization(alpha, beta, args.tol)
    data = {
        "first_axis": _line_json(fac.first.axis),
        "shared_axis": _line_json(fac.shared.axis),
        "second_axis": _line_json(fac.second.axis),
    }
    _print(data, args.format)
    return EXIT_OK


def _cmd_invariant_plane(args):
    alpha = _matrix_from(args.first)
    beta = _matrix_from(args.second)
    plane = invariant_plane(alpha, beta, tol_trace=args.tol)
    _print({"plane": _circle_json(plane)}, args.format)
    return EXIT_OK


def _cmd_ball(args):
    group, warnings = load_group_file(args.group, args.tol)
    config = _config_from(args)
    ball = enumerate_ball(group, config.max_word_len, config.cap)
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
    group, warnings = load_group_file(args.group, args.tol)
    config = _config_from(args)
    entries = spectrum(
        group, config.max_word_len, config.length_cutoff, config.tol_trace
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
            "entries": [_entry_json(e) for e in entries],
            "warnings": warnings,
        },
        args.format,
    )
    return EXIT_OK


def _cmd_shortest_screw(args):
    group, warnings = load_group_file(args.group, args.tol)
    config = _config_from(args)
    entry = shortest_screw(group, config.max_word_len, config.tol_trace)
    data = {
        "found": entry is not None,
        "entry": _entry_json(entry) if entry else None,
        "warnings": warnings,
    }
    _print(data, args.format)
    return EXIT_OK


def _cmd_check_simple(args):
    group, warnings = load_group_file(args.group, args.tol)
    config = _config_from(args)
    word = _parse_word(group, args.word)
    axis = axis_of(word.matrix, config.tol_trace)
    report = simplicity_check(
        group, axis, config.max_word_len, config.tol_trace
    )
    data = {
        "word": word.name,
        "simplicity": _simplicity_json(report),
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
    group, warnings = load_group_file(args.group, args.tol)
    report = classify_manifold(group, _config_from(args))
    report.warnings = warnings + list(report.warnings)
    _print(report, args.format)
    return report.exit_code


def _add_common(sub, word_len=False, cutoff=False):
    sub.add_argument(
        "--tol", type=float, default=1e-9,
        help="trace tolerance for classification (default 1e-9)",
    )
    sub.add_argument(
        "--format", choices=("json", "text"), default="text",
        help="output format (default text)",
    )
    if word_len:
        sub.add_argument(
            "--max-word-len", type=int, default=6,
            help="word length bound for the ball (default 6)",
        )
    if cutoff:
        sub.add_argument(
            "--cutoff", type=float, default=12.0,
            help="drop geodesics longer than this (default 12.0)",
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
    sub.add_argument(
        "--matrix", type=float, nargs=8, required=True, help=_MATRIX_HELP
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_classify_element)

    sub = subs.add_parser(
        "decompose", help="factor a matrix into two half-turns"
    )
    sub.add_argument(
        "--matrix", type=float, nargs=8, required=True, help=_MATRIX_HELP
    )
    sub.add_argument(
        "--free-point", type=float, nargs=2, metavar=("RE", "IM"),
        help="free ideal endpoint for a parabolic input",
    )
    sub.add_argument(
        "--free-line", type=float, nargs=4,
        metavar=("P_RE", "P_IM", "Q_RE", "Q_IM"),
        help="free axis, must cross the input's axis at a right angle",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_decompose)

    sub = subs.add_parser(
        "shared-decomposition",
        help="half-turn factorizations of two motions through one shared axis",
    )
    sub.add_argument(
        "--first", type=float, nargs=8, required=True, help=_MATRIX_HELP
    )
    sub.add_argument(
        "--second", type=float, nargs=8, required=True, help=_MATRIX_HELP
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_shared_decomposition)

    sub = subs.add_parser(
        "invariant-plane",
        help="oriented circle preserved by a non-screw pair",
    )
    sub.add_argument(
        "--first", type=float, nargs=8, required=True, help=_MATRIX_HELP
    )
    sub.add_argument(
        "--second", type=float, nargs=8, required=True, help=_MATRIX_HELP
    )
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
    sub.add_argument("value", type=float, help="loop length (or depth with --invert)")
    sub.add_argument(
        "--invert", action="store_true",
        help="treat the input as a depth and return the longest loop",
    )
    _add_common(sub)
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
    except GroupFileError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except AmbiguousClass as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except LoxoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
