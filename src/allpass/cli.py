"""Command line front end.

Three subcommands: ``roots`` lists the determinantal roots of a polynomial
matrix, ``mirror`` relocates selected interior roots to their reciprocal
conjugates, and ``verify`` checks a stored rational factor against the
all-pass identity on circle samples.  Machine-readable JSON goes to stdout
(or to files named by ``--out``); diagnostics go to stderr.

Exit codes: 0 success, 1 unexpected computation failure, 2 usage or input
parse error, 3 identically singular input matrix (or ``verify`` denominator),
4 a root sits on the unit circle (for ``verify``: a pole of the factor), 5 a
residual exceeded its threshold.  ``mirror`` passes ``--tol`` to the library as
``Tolerances.residual``, and ``verify`` as ``Tolerances.allpass``; when
:func:`~allpass.mirror.mirror_set` refuses (``ResidualTooLarge``), the chain
the refusal carries is written before it exits 5; an output beyond the float
range exits 5 writing nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import __version__, errors, jsonio
from .blaschke import verify_allpass
from .config import DEFAULTS
from .mirror import METHODS, mirror_all_inside, mirror_set
from .roots import det_roots

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_ON_CIRCLE = 4
EXIT_BREACH = 5

_ENV_TOL = "BLASCHKE_TOL"


class UsageError(Exception):
    pass


# main's exit code for a refusal: that of the first row the error is an instance of
EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    (errors.SingularPolynomialMatrix, EXIT_SINGULAR),
    (errors.OnUnitCircle, EXIT_ON_CIRCLE),
    (errors.ResidualTooLarge, EXIT_BREACH),
    (errors.AllPassError, EXIT_FAILURE),
)


def _positive_float(text: str) -> float:
    """A ``--tol`` or ``BLASCHKE_TOL`` value; an infinite one would pass anything."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number: {text!r}")
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
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
            return _positive_float(env)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{_ENV_TOL} {exc}")
    return default


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


def _emit_mirror(p_out, reports, out_path: str | None):
    p_tilde = jsonio.poly_to_json(p_out)
    reports = [jsonio.report_to_json(r) for r in reports]
    if out_path is None:
        _emit({"p_tilde": p_tilde, "reports": reports}, None)
    else:
        _emit(p_tilde, out_path)
        _emit(reports, os.path.splitext(out_path)[0] + ".report.json")


def cmd_mirror(args: argparse.Namespace) -> int:
    residual = _resolve_tol(args.tol, default=DEFAULTS.residual)
    tol = dataclasses.replace(DEFAULTS, residual=residual)
    p = _load_poly(args.input)

    try:
        if args.select == "all-inside":
            p_out, reports = mirror_all_inside(p, args.method, tol)
        else:
            records = det_roots(p, tol)
            chosen = [records[k] for k in _parse_selection(args.select, len(records))]
            p_out, reports = mirror_set(p, chosen, args.method, tol)
    except errors.ResidualTooLarge as exc:
        # a refused certificate still leaves its chain to inspect, unless
        # the output is beyond the float range
        if exc.p_tilde is not None:
            _emit_mirror(exc.p_tilde, exc.reports, args.out)
        raise
    _emit_mirror(p_out, reports, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    tol = dataclasses.replace(DEFAULTS, allpass=_resolve_tol(args.tol, DEFAULTS.allpass))
    obj = _load_json(args.input)
    try:
        V = jsonio.allpass_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.input}: not a rational factor: {exc}")
    rep = verify_allpass(V, n_samples=args.samples, tol=tol)
    _emit(dataclasses.asdict(rep), args.out)
    if not rep.ok:
        print(
            f"verify: residual {rep.max_residual:.3e} exceeds {tol.allpass:.3e}",
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
        default="consecutive",
        help="construction used for generic complex pairs (default: consecutive)",
    )
    p_mirror.add_argument(
        "--select",
        default="all-inside",
        help="'all-inside' or comma-separated root indices as printed by "
        "the roots command (default: all-inside)",
    )
    p_mirror.add_argument("--tol", type=_positive_float, default=None,
                          help="the mirror's bound (Tolerances.residual) on each "
                          "step's division remainder, spectral deviation and "
                          f"drift (default {DEFAULTS.residual:g})")
    p_mirror.add_argument("--out", default=None,
                          help="write the transformed matrix here and the "
                          "reports next to it as <stem>.report.json")
    p_mirror.set_defaults(func=cmd_mirror)

    p_verify = sub.add_parser("verify", help="check a stored factor")
    p_verify.add_argument("input", help="rational factor JSON file")
    p_verify.add_argument("--samples", type=_samples, default=64,
                          help="circle sample count, at least 8 (default 64)")
    p_verify.add_argument("--tol", type=_positive_float, default=None,
                          help="the all-pass bound (Tolerances.allpass) on "
                          f"||V V^H - I|| (default {DEFAULTS.allpass:g})")
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
    except (UsageError, errors.AllPassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
