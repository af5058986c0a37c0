"""Command-line front end.

Subcommands: validate, gen, measure, moments, cesaro, duality, dita-check,
bench.  Exit codes: 0 pass, 1 mathematical check failed, 2 usage or parse
error, 3 size cap exceeded.  All output is deterministic given the spec
string and flags.

Each command builds its matrix first and only then imports the layer that it
runs, so `validate` and `gen` never load `spectra`, `magic` or `duality`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import matrices, specs
from .errors import (DEFAULT_CAP, PASS_TOL, CapExceededError, EigensolverError,
                     HadamardValidationError, MagicGridError, MomentImagError,
                     SpecSyntaxError)

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


def _cmd_validate(args):
    spec = specs.parse_matrix_spec(args.spec)
    h = specs.build_matrix(spec, check=False)
    report = matrices.validate(h.array, uni_tol=args.uni_tol,
                               orth_tol=args.orth_tol)
    if args.dump:
        matrices.save_matrix(h, args.dump)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_gen(args):
    h = specs.build_matrix(args.spec)
    # full precision here: generated matrices must round-trip exactly
    _emit(json.dumps(matrices.matrix_to_dict(h), indent=2), args.out)
    return EXIT_OK


def _cmd_measure(args):
    h = specs.build_matrix(args.spec)
    from .spectra import truncated_law

    measure = truncated_law(h, args.r, cap=args.cap)
    if args.format == "json":
        _emit_json(measure.to_dict(), args.out)
    elif args.format == "csv":
        rows = ["x,w"] + [f"{_sig15(x):.15g},{_sig15(w):.15g}" for x, w in measure.atoms]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit(measure_svg(measure), args.out)
    return EXIT_OK


def _cmd_moments(args):
    h = specs.build_matrix(args.spec)
    from .spectra import moment_table

    table = moment_table(h, args.p_max, args.r_max, cap=args.cap)
    if args.format == "csv":
        rows = ["p,r,c,gamma"]
        for p in range(1, table.p_max + 1):
            for r in range(table.r_max + 1):
                rows.append(f"{p},{r},{table.c[p - 1, r]:.15g},"
                            f"{table.gamma[p - 1, r]:.15g}")
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit_json(table.to_dict(), args.out)
    return EXIT_OK


def _cmd_cesaro(args):
    h = specs.build_matrix(args.spec)
    from .spectra import cesaro_moments

    seq = cesaro_moments(h, args.p, args.k_max, cap=args.cap)
    if args.format == "csv":
        rows = ["k,s_k"] + [f"{k + 1},{s:.15g}"
                            for k, s in enumerate(seq.partial_averages)]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit_json(seq.to_dict(), args.out)
    return EXIT_OK


def _cmd_duality(args):
    h = specs.build_matrix(args.spec)
    from .duality import duality_residual

    report = duality_residual(h, args.p_max, args.r_max, tol=args.tol, cap=args.cap)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _qsource(args):
    if args.qfile:
        return ("file", args.qfile)
    return ("seed", args.seed)


def _add_phase_source(sub):
    sub.add_argument("--m", type=_positive_int, required=True)
    sub.add_argument("--n", type=_positive_int, required=True)
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--seed", type=_seed)
    src.add_argument("--qfile")


def _cmd_dita_check(args):
    q = specs.resolve_phase_matrix(args.m, args.n, _qsource(args))
    from .duality import dita_selfduality_residual

    report = dita_selfduality_residual(args.m, args.n, q, args.p_max, args.r_max,
                                       tol=args.tol, cap=args.cap)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_bench(args):
    q = specs.resolve_phase_matrix(args.m, args.n, _qsource(args))
    from .dita import bench_structured_vs_dense

    report = bench_structured_vs_dense(args.m, args.n, q, args.p, args.r,
                                       repetitions=args.reps, cap=args.cap)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _seed(text):
    value = int(text)
    if not 0 <= value < specs.SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {value}")
    return value


def _add_common(sub, formats=("json",), cap=True):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if cap:
        sub.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                         help="dense size cap on N^p / N^r")
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
    p.add_argument("--uni-tol", type=_positive_float, default=matrices.UNIMODULARITY_TOL)
    p.add_argument("--orth-tol", type=_positive_float, default=matrices.ORTHOGONALITY_TOL)
    p.add_argument("--dump", default=None, help="also write the matrix as JSON")
    _add_common(p, cap=False)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("gen", help="write a spec'd matrix as JSON")
    p.add_argument("spec")
    _add_common(p, cap=False)
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("measure", help="truncated spectral measure at depth r")
    p.add_argument("spec")
    p.add_argument("--r", type=int, required=True)
    _add_common(p, formats=("json", "csv", "svg"))
    p.set_defaults(func=_cmd_measure)

    p = subs.add_parser("moments", help="moment table c_p^r and gamma_p^r")
    p.add_argument("spec")
    p.add_argument("--p-max", type=_positive_int, required=True)
    p.add_argument("--r-max", type=int, required=True)
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
    p.add_argument("--tol", type=_positive_float, default=PASS_TOL)
    _add_common(p)
    p.set_defaults(func=_cmd_duality)

    p = subs.add_parser("dita-check", help="self-duality check for a deformed Fourier matrix")
    _add_phase_source(p)
    p.add_argument("--p-max", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_positive_int, required=True)
    p.add_argument("--tol", type=_positive_float, default=PASS_TOL)
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
    except SpecSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HadamardValidationError, MagicGridError, MomentImagError,
            EigensolverError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
