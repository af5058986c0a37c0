"""Command-line front end.

Subcommands: validate, gen, measure, moments, cesaro, duality, dita-check,
bench.  Exit codes: 0 pass, 1 mathematical check failed, 2 usage or parse
error, 3 size cap exceeded.  All output is deterministic given the spec
string and flags, except the timings: `elapsed_s` of duality and dita-check,
and `dense_ms`, `structured_ms` and `speedup` of bench.

Importing this module loads no numpy, and each command imports only the
layers that it runs: `validate` and `gen` load `matrices` to build their
matrix, and never `spectra`, `magic` or `duality`.  Each command that takes
`--cap` admits its request before it builds anything: the size N of the
matrix is read from the parsed spec, and the power of N that the library
call will admit is checked against the cap, so a refusal loads no numpy.
A `file=` matrix has no size until it is loaded, so a spec naming one is
built first and admitted by the library call.  The library keeps its own
admission either way.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import specs
from .errors import (DEFAULT_CAP, SEED_LIMIT, CapExceededError, EigensolverError,
                     HadamardValidationError, MagicGridError, MomentImagError, check_cap)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _sig15(value):
    return float(f"{value:.15g}")


def _jsonify(obj):
    """Floats to 15 significant digits, and to null if not finite (RFC 8259)."""
    if isinstance(obj, float):
        return _sig15(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit(text, out_path):
    """Write text, ending in one newline, to out_path or else to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, out_path):
    _emit(json.dumps(_jsonify(data), indent=2), out_path)


def _emit_csv(header, rows, out_path):
    """The header line, then one line per row: integers as they are, floats
    to 15 significant digits."""
    lines = (",".join(str(v) if isinstance(v, int) else f"{_sig15(v):.15g}" for v in row)
             for row in rows)
    _emit("\n".join([header, *lines]), out_path)


def measure_svg(measure):
    """Static 640 x 360 SVG bar chart of an atomic measure on [0, N]."""
    width, height, margin = 640, 360, 40
    n = measure.n
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    bar_w = max(4, plot_w // (4 * max(len(measure.atoms), 1)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width - margin}" y="{height - margin + 16}" '
        f'text-anchor="middle" font-size="12">{n}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" '
        f'text-anchor="middle" font-size="12">0</text>',
    ]
    for x, w in measure.atoms:
        px = margin + (x / n) * plot_w if n > 0 else margin
        bh = w * plot_h
        parts.append(
            f'<rect x="{px - bar_w / 2:.2f}" y="{height - margin - bh:.2f}" '
            f'width="{bar_w}" height="{bh:.2f}" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{height - margin - bh - 6:.2f}" '
            f'text-anchor="middle" font-size="11">{w:.4g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _admitted_matrix(args, exponent):
    """The matrix of args.spec, built once N^exponent, the power that the
    command's library call admits, fits args.cap; a spec that holds a
    `file=` matrix is built first and left to that call."""
    spec = specs.parse_matrix_spec(args.spec)
    size = specs.spec_size(spec)
    if size is not None:
        check_cap(size, exponent, args.cap)
    return specs.build_matrix(spec)


def _cmd_validate(args):
    from . import matrices

    spec = specs.parse_matrix_spec(args.spec)
    h = specs.build_matrix(spec, check=False)
    report = matrices.validate(h.array)
    if args.dump:
        matrices.save_matrix(h, args.dump)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_gen(args):
    from . import matrices

    h = specs.build_matrix(args.spec)
    # full precision here: generated matrices must round-trip exactly
    _emit(json.dumps(matrices.matrix_to_dict(h), indent=2), args.out)
    return EXIT_OK


def _cmd_measure(args):
    h = _admitted_matrix(args, args.r)
    from .spectra import truncated_law

    measure = truncated_law(h, args.r, cap=args.cap)
    if args.format == "json":
        _emit_json(measure.to_dict(), args.out)
    elif args.format == "csv":
        _emit_csv("x,w", measure.atoms, args.out)
    else:
        _emit(measure_svg(measure), args.out)
    return EXIT_OK


def _cmd_moments(args):
    h = _admitted_matrix(args, args.r_max)
    from .spectra import moment_table

    table = moment_table(h, args.p_max, args.r_max, cap=args.cap)
    if args.format == "csv":
        _emit_csv("p,r,c,gamma", ((p, r, table.c[p - 1, r], table.gamma[p - 1, r])
                                  for p in range(1, table.p_max + 1)
                                  for r in range(table.r_max + 1)), args.out)
    else:
        _emit_json(table.to_dict(), args.out)
    return EXIT_OK


def _cmd_cesaro(args):
    check_cap(args.k_max, 1, args.cap)  # the k_max-long output, as `cesaro_moments` admits it
    h = _admitted_matrix(args, args.p)
    from .spectra import cesaro_moments

    seq = cesaro_moments(h, args.p, args.k_max, cap=args.cap)
    if args.format == "csv":
        _emit_csv("k,s_k", enumerate(seq.partial_averages, start=1), args.out)
    else:
        _emit_json(seq.to_dict(), args.out)
    return EXIT_OK


def _cmd_duality(args):
    h = _admitted_matrix(args, max(args.p_max, args.r_max))
    from .duality import duality_residual

    report = duality_residual(h, args.p_max, args.r_max, cap=args.cap)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _admitted_phases(args, exponent):
    """(qsource, Q): the phase source that args name and its M x N phase
    matrix, resolved once (MN)^exponent, the power that the command's library
    call admits, fits args.cap."""
    qsource = ("file", args.qfile) if args.qfile else ("seed", args.seed)
    check_cap(args.m * args.n, exponent, args.cap)
    return qsource, specs.resolve_phase_matrix(args.m, args.n, qsource)


def _add_phase_source(sub):
    sub.add_argument("--m", type=_positive_int, required=True)
    sub.add_argument("--n", type=_positive_int, required=True)
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--seed", type=_seed)
    src.add_argument("--qfile")


def _cmd_dita_check(args):
    qsource, q = _admitted_phases(args, args.r_max)
    from .duality import dita_selfduality_residual

    report = dita_selfduality_residual(args.m, args.n, q, args.p_max, args.r_max, cap=args.cap)
    spec = specs.DitaSpec(args.m, args.n, qsource)
    _emit_json(report._replace(matrix=specs.unparse(spec)).to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_bench(args):
    _, q = _admitted_phases(args, args.r)
    from .dita import bench_structured_vs_dense

    report = bench_structured_vs_dense(args.m, args.n, q, args.p, args.r,
                                       repetitions=args.reps, cap=args.cap)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK


def _count(text):
    """An integer flag, read as the spec grammar reads an integer: 1 to
    MAX_DIGITS ASCII digits, with no sign, space, underscore or other digit."""
    if not (text.isascii() and text.isdigit() and len(text) <= specs.MAX_DIGITS):
        raise argparse.ArgumentTypeError(
            f"must be 1 to {specs.MAX_DIGITS} ASCII digits, got {text!r}")
    return int(text)


def _positive_int(text):
    value = _count(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text):
    value = _count(text)
    if value >= SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {value}")
    return value


def _add_common(sub, formats=("json",), cap=True):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if cap:
        sub.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                         help="dense size cap on N^p / N^r, and on the k_max-long output")
    if len(formats) > 1:
        sub.add_argument("--format", choices=formats, default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hadtrunc",
        description="Truncated spectral measures and duality checks for "
                    "complex Hadamard matrices",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the Hadamard property of a spec'd matrix")
    p.add_argument("spec")
    p.add_argument("--dump", default=None, help="also write the matrix as JSON")
    _add_common(p, cap=False)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("gen", help="write a spec'd matrix as JSON")
    p.add_argument("spec")
    _add_common(p, cap=False)
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("measure", help="truncated spectral measure at depth r")
    p.add_argument("spec")
    p.add_argument("--r", type=_count, required=True)
    _add_common(p, formats=("json", "csv", "svg"))
    p.set_defaults(func=_cmd_measure)

    p = subs.add_parser("moments", help="moment table c_p^r and gamma_p^r")
    p.add_argument("spec")
    p.add_argument("--p-max", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_count, required=True)
    _add_common(p, formats=("json", "csv"))
    p.set_defaults(func=_cmd_moments)

    p = subs.add_parser("cesaro", help="Cesaro averages of the depth-r moments")
    p.add_argument("spec")
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--k-max", type=_positive_int, required=True)
    _add_common(p, formats=("json", "csv"))
    p.set_defaults(func=_cmd_cesaro)

    p = subs.add_parser("duality", help="moment/truncation duality residuals")
    p.add_argument("spec")
    p.add_argument("--p-max", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_duality)

    p = subs.add_parser("dita-check", help="self-duality check for a deformed Fourier matrix")
    _add_phase_source(p)
    p.add_argument("--p-max", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_dita_check)

    p = subs.add_parser("bench", help="time structured vs dense moment evaluation")
    _add_phase_source(p)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--reps", type=_positive_int, default=3)
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (HadamardValidationError, MagicGridError, MomentImagError,
            EigensolverError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
