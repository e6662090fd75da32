"""Command line interface.

Exit codes: 0 all checks pass, 1 residual failure, 2 parse/usage error,
3 precondition failure (not Kahler / Kahler form not exact / bad kappa /
lie.PreconditionError), 4 candidate is not projective special Kahler
(c-map refused), 5 internal error (any other exception, a bare ValueError
included, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys

from .cmap import NotPSKError, qk_algebra, qk_verify
from .cone import (
    DSquaredError,
    cone_coframe,
    special_blocks,
    special_cone,
    verify_eta_conditions,
)
from .connection import NotKahlerError, kahler_check, levi_civita
from .intrinsic import all_residuals, build_geometry, pq_from_tensors
from .io import (
    ParseError,
    Report,
    _number,
    algebra_to_dict,
    load_algebra_file,
    load_template_file,
    save_algebra_file,
)
from .lie import AdaptedBasis, NotExactError, PreconditionError
from .solver import SolveConfig, scan_curvature, solve
from .tolerance import EXACT, GRAM_MIN_EIG, REPORT, SP1_FIT

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NOT_PSK = 4
EXIT_INTERNAL = 5


# argparse type= converters: a value they reject is a usage error (exit 2).

def _number_option(what: str, positive: bool = False):
    """Converter to a number under the input files' rule (finite, magnitude
    at most io.MAX_MAGNITUDE), and > 0 when positive is set."""
    def convert(text: str) -> float:
        try:
            x = _number(float(text), what)
        except (ValueError, ParseError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if positive and not x > 0:
            raise argparse.ArgumentTypeError(f"{what} must be positive, got {text!r}")
        return x
    return convert


def _integer_option(lo: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return value
    return convert


_parameter = _number_option("scan parameter")
_tolerance = _number_option("tolerance", positive=True)


def _env_seed() -> int:
    raw = os.environ.get("PSK_SEED", "0")
    try:
        return _integer_option(0)(raw)
    except argparse.ArgumentTypeError:
        raise ParseError(f"PSK_SEED must be a non-negative integer, got {raw!r}") from None


def _emit(report: Report, stream=None) -> None:
    print(report.to_json(), file=stream or sys.stdout)


def cmd_check(args) -> int:
    af = load_algebra_file(args.path)
    if af.candidate is None:
        raise ParseError("check requires a 'candidate' block in the file")
    kr = kahler_check(af.L, af.B)
    if not kr.is_kahler():
        _emit(Report("check", "NotKahler",
                     {"domega": kr.domega_norm, "shape": kr.shape_residual}))
        return EXIT_PRECONDITION
    try:
        af.candidate.validate(af.L)
        geom = build_geometry(af.L, af.B, allow_nonexact=True)
    except (PreconditionError, NotKahlerError) as exc:
        _emit(Report("check", "Precondition", {"error": str(exc)}))
        return EXIT_PRECONDITION
    res = all_residuals(geom, af.candidate)
    ok = max(res.values()) < args.tol
    _emit(Report("check", "ok" if ok else "ResidualFailure",
                 {"residuals": res, "tolerance": args.tol}))
    return EXIT_OK if ok else EXIT_RESIDUAL


def _unwritable(path: str, exc: OSError) -> ParseError:
    """An output path that cannot be written is a usage error (exit 2)."""
    return ParseError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_solve(args) -> int:
    af = load_algebra_file(args.path)
    cfg = SolveConfig(starts=args.starts, seed=args.seed,
                      success_threshold=args.tol)
    try:
        geom = build_geometry(af.L, af.B, allow_nonexact=args.kappa_free)
    except NotExactError as exc:
        _emit(Report("solve", "NotExact", {"error": str(exc)}, seed=args.seed))
        return EXIT_PRECONDITION
    except NotKahlerError as exc:
        _emit(Report("solve", "NotKahler", {"error": str(exc)}, seed=args.seed))
        return EXIT_PRECONDITION
    result = solve(geom, cfg)
    payload = {
        "best_residual": result.best_residual,
        "per_equation": result.per_equation,
        "mode": result.mode,
        "gauge": result.gauge_note,
        "distinct_orbits": result.distinct_orbits,
    }
    if result.candidate is not None and result.status == "Solved":
        payload["candidate"] = algebra_to_dict(af.L, af.B,
                                               candidate=result.candidate)["candidate"]
    _emit(Report("solve", result.status, payload, seed=args.seed))
    return EXIT_OK if result.status == "Solved" else EXIT_RESIDUAL


def cmd_scan(args) -> int:
    family, base = load_template_file(args.path)
    if args.values is not None:
        values = args.values
        if not values:
            raise ParseError("empty --values list")
    else:
        if args.range is None:
            raise ParseError("scan needs --range LO HI or --values")
        lo, hi = args.range
        if not hi > lo or args.steps < 2:
            raise ParseError("scan range must satisfy lo < hi and steps >= 2")
        values = [lo + (hi - lo) * i / (args.steps - 1) for i in range(args.steps)]
    cfg = SolveConfig(starts=args.starts, seed=args.seed,
                      success_threshold=args.tol)
    result = scan_curvature(family, values, cfg, polish=not args.no_polish)
    table = "\n".join(f"{p.parameter:.12g}\t{p.best_residual:.17g}"
                      for p in result.points)
    if args.table:
        try:
            with open(args.table, "w", encoding="utf-8") as fh:
                fh.write("# parameter\tbest_residual\n" + table + "\n")
        except OSError as exc:
            raise _unwritable(args.table, exc) from None
    payload = {
        "points": [[p.parameter, p.best_residual] for p in result.points],
        "statuses": [p.status for p in result.points],
        "feasible": result.feasible,
        "polished": result.polished,
        "table": table,
    }
    _emit(Report("scan", "ok", payload, seed=args.seed))
    return EXIT_OK


def cmd_cone_verify(args) -> int:
    """Cone-level verdict: the six special conditions and the flatness blocks.

    Both read one SpecialCone, so omega_LC and the curvature Omega are built
    once: the flatness entry of the conditions is the norm of that Omega,
    and the blocks T, U, V, W are cut from it.
    """
    af = load_algebra_file(args.path)
    if af.candidate is None:
        raise ParseError("cone-verify requires a 'candidate' block in the file")
    try:
        conn = levi_civita(af.L, af.B)
        CA = cone_coframe(af.L, af.B, af.candidate.kappa)
    except (NotKahlerError, DSquaredError) as exc:
        _emit(Report("cone-verify", "Precondition", {"error": str(exc)}))
        return EXIT_PRECONDITION
    p, q = pq_from_tensors(af.candidate.Sa, af.candidate.Sb)
    sc = special_cone(CA, conn, p, q)
    report = verify_eta_conditions(sc)
    T, U, V, W = special_blocks(sc)
    report["blocks_T"] = T.norm_inf()
    report["blocks_U"] = U.norm_inf()
    report["blocks_V"] = V.norm_inf()
    report["blocks_W"] = W.norm_inf()
    ok = max(report.values()) < args.tol
    _emit(Report("cone-verify", "ok" if ok else "ResidualFailure",
                 {"residuals": report, "tolerance": args.tol}))
    return EXIT_OK if ok else EXIT_RESIDUAL


def cmd_cmap(args) -> int:
    af = load_algebra_file(args.path)
    if af.candidate is None:
        raise ParseError("cmap requires a 'candidate' block in the file")
    try:
        Q = qk_algebra(af.L, af.B, af.candidate, tol=args.tol)
    except (NotExactError, NotKahlerError, DSquaredError, PreconditionError) as exc:
        _emit(Report("cmap", "Precondition", {"error": str(exc)}))
        return EXIT_PRECONDITION
    except NotPSKError as exc:
        _emit(Report("cmap", "NotPSK", {"error": str(exc)}))
        return EXIT_NOT_PSK
    rep = qk_verify(Q)
    if args.output:
        out_B = AdaptedBasis(Q.dim // 2)
        try:
            save_algebra_file(args.output, Q.algebra, out_B, labels=Q.labels)
        except OSError as exc:
            raise _unwritable(args.output, exc) from None
    payload = {
        "dimension": rep.dim,
        "jacobi_residual": rep.jacobi_residual,
        "gram_min_eigenvalue": rep.gram_min_eig,
        "sp1_fit_residual": rep.sp1_residual,
        "completely_solvable": rep.completely_solvable,
        "derived_series": list(rep.derived_series),
        "adjoint_imag_max": rep.adjoint_imag_max,
        "output_file": args.output,
    }
    green = (rep.jacobi_residual < EXACT and rep.gram_min_eig > GRAM_MIN_EIG
             and rep.sp1_residual < SP1_FIT and rep.completely_solvable)
    _emit(Report("cmap", "ok" if green else "ResidualFailure", payload))
    return EXIT_OK if green else EXIT_RESIDUAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pskmap",
        description="Left-invariant projective special Kahler structures: "
                    "verification, numerical discovery, and the c-map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate all intrinsic residuals of a candidate")
    p.add_argument("path")
    p.add_argument("--tol", type=_tolerance, default=REPORT)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="search for a candidate by least squares")
    p.add_argument("path")
    p.add_argument("--starts", type=_integer_option(1), default=64)
    p.add_argument("--seed", type=_integer_option(0), default=None)
    p.add_argument("--tol", type=_tolerance, default=REPORT)
    p.add_argument("--kappa-free", action="store_true",
                   help="fall back to the kappa-free system when the Kahler "
                        "form has no invariant primitive")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("scan", help="residual landscape of a one-parameter family")
    p.add_argument("path", help="template file with 'c' bracket constants")
    p.add_argument("--range", nargs=2, type=_parameter, metavar=("LO", "HI"))
    p.add_argument("--steps", type=_integer_option(1), default=11)
    p.add_argument("--values", default=None,
                   type=lambda text: [_parameter(v) for v in text.split(",") if v.strip()],
                   help="comma-separated explicit parameter list")
    p.add_argument("--starts", type=_integer_option(1), default=16)
    p.add_argument("--seed", type=_integer_option(0), default=None)
    p.add_argument("--tol", type=_tolerance, default=REPORT)
    p.add_argument("--no-polish", action="store_true")
    p.add_argument("--table", type=str, default=None,
                   help="also write a plain-text (parameter, residual) table")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("cone-verify", help="independent cone-level verification")
    p.add_argument("path")
    p.add_argument("--tol", type=_tolerance, default=REPORT)
    p.set_defaults(fn=cmd_cone_verify)

    p = sub.add_parser("cmap", help="apply the twist and emit the 4n+4 algebra")
    p.add_argument("path")
    p.add_argument("-o", "--output", type=str, default=None)
    p.add_argument("--tol", type=_tolerance, default=REPORT)
    p.set_defaults(fn=cmd_cmap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _env_seed()
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotExactError, NotKahlerError, DSquaredError, PreconditionError) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
