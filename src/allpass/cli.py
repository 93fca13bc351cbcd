"""Command line front end.

Three subcommands: ``roots`` lists the determinantal roots of a polynomial
matrix, ``mirror`` relocates selected interior roots to their reciprocal
conjugates, and ``verify`` checks a stored rational factor against the
all-pass identity on circle samples.  Machine-readable JSON goes to stdout
(or to files named by ``--out``); diagnostics go to stderr.

Exit codes: 0 success, 1 unexpected computation failure, 2 usage or input
parse error, 3 identically singular input matrix, 4 a root sits on the unit
circle, 5 a residual exceeded its threshold (outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__, jsonio
from .config import DEFAULTS
from .errors import (
    AllPassError,
    DeconvolutionResidueTooLarge,
    ImaginaryResidueTooLarge,
    OnUnitCircle,
    SingularPolynomialMatrix,
)
from .mirror import METHODS, mirror_all_inside, mirror_set
from .roots import det_roots

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_ON_CIRCLE = 4
EXIT_BREACH = 5

_ENV_TOL = "BLASCHKE_TOL"


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _samples(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 8:
        raise argparse.ArgumentTypeError(f"need at least 8 samples, got {value}")
    return value


def _resolve_tol(explicit: float | None, default: float) -> float:
    """Precedence: --tol flag, then BLASCHKE_TOL, then the built-in default."""
    if explicit is not None:
        return explicit
    env = os.environ.get(_ENV_TOL)
    if env is not None and env.strip():
        try:
            value = float(env)
        except ValueError:
            raise UsageError(f"{_ENV_TOL} is not a number: {env!r}")
        if not value > 0.0:
            raise UsageError(f"{_ENV_TOL} must be positive: {env!r}")
        return value
    return default


class UsageError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}")


def _load_poly(path: str):
    obj = _load_json(path)
    try:
        return jsonio.poly_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: not a polynomial matrix: {exc}")


def _emit(obj, out_path: str | None):
    text = jsonio.dumps(obj)
    if out_path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_roots(args: argparse.Namespace) -> int:
    p = _load_poly(args.input)
    records = det_roots(p)
    _emit([jsonio.record_to_json(r) for r in records], args.out)
    return EXIT_OK


def _parse_selection(text: str, n_records: int) -> list[int]:
    indices = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k = int(part)
        except ValueError:
            raise UsageError(f"--select: not an index: {part!r}")
        if not 0 <= k < n_records:
            raise UsageError(
                f"--select: index {k} out of range for {n_records} roots"
            )
        indices.append(k)
    if not indices:
        raise UsageError("--select: empty selection")
    return sorted(set(indices))


def cmd_mirror(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args.tol, default=DEFAULTS.residual)
    p = _load_poly(args.input)

    if args.select == "all-inside":
        p_out, reports = mirror_all_inside(p, method=args.method)
    else:
        records = det_roots(p)
        chosen = [records[k] for k in _parse_selection(args.select, len(records))]
        p_out, reports = mirror_set(p, chosen, method=args.method)

    payload = {
        "p_tilde": jsonio.poly_to_json(p_out),
        "reports": [jsonio.report_to_json(r) for r in reports],
    }
    if args.out is None:
        _emit(payload, None)
    else:
        _emit(payload["p_tilde"], args.out)
        stem, _ = os.path.splitext(args.out)
        _emit(payload["reports"], stem + ".report.json")

    # max_imag is relative to the factor's coefficients, as b2_consecutive
    # judges it; the relocated root must be a root of the output by the same
    # normalized sigma_min test classify accepts roots with
    breach = any(
        r.residual_deconv > tol
        or r.max_imag > tol
        or r.spectral_dev > tol
        or r.new_root_residual > DEFAULTS.kernel
        for r in reports
    )
    if breach:
        print("mirror: residual threshold exceeded", file=sys.stderr)
        return EXIT_BREACH
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .blaschke import verify_allpass

    tol = _resolve_tol(args.tol, default=DEFAULTS.allpass)
    obj = _load_json(args.input)
    try:
        V = jsonio.allpass_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.input}: not a rational factor: {exc}")

    rep = verify_allpass(V, n_samples=args.samples, tol=tol)
    _emit(dataclasses.asdict(rep), args.out)
    if not rep.ok:
        print(
            f"verify: residual {rep.max_residual:.3e} exceeds {tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_BREACH
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allpass",
        description="Mirror determinantal roots of polynomial matrices "
        "at the unit circle.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="list determinantal roots")
    p_roots.add_argument("input", help="polynomial matrix JSON file")
    p_roots.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_roots.set_defaults(func=cmd_roots)

    p_mirror = sub.add_parser("mirror", help="relocate roots outside the circle")
    p_mirror.add_argument("input", help="polynomial matrix JSON file")
    p_mirror.add_argument(
        "--method",
        choices=METHODS,
        default="polynomial",
        help="construction used for generic complex pairs (default: polynomial)",
    )
    p_mirror.add_argument(
        "--select",
        default="all-inside",
        help="'all-inside' or comma-separated root indices as printed by "
        "the roots command (default: all-inside)",
    )
    p_mirror.add_argument("--tol", type=_positive_float, default=None,
                          help=f"residual threshold (default {DEFAULTS.residual:g})")
    p_mirror.add_argument("--out", default=None,
                          help="write the transformed matrix here and the "
                          "reports next to it as <stem>.report.json")
    p_mirror.set_defaults(func=cmd_mirror)

    p_verify = sub.add_parser("verify", help="check a stored factor")
    p_verify.add_argument("input", help="rational factor JSON file")
    p_verify.add_argument("--samples", type=_samples, default=64,
                          help="circle sample count, at least 8 (default 64)")
    p_verify.add_argument("--tol", type=_positive_float, default=None,
                          help=f"residual threshold (default {DEFAULTS.allpass:g})")
    p_verify.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_USAGE if code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularPolynomialMatrix as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OnUnitCircle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ON_CIRCLE
    except (DeconvolutionResidueTooLarge, ImaginaryResidueTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BREACH
    except AllPassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
