"""Command-line front end.

Subcommands: transmission (probability sweeps in either framework),
converge (short-range model error against its zero-range target), compare
(Schrodinger vs Dirac transmission at matched kinetic energy), classify
(delta/epsilon/trig/hyperbolic tag of a barrier), propagate (one transfer
matrix as eight reals).  All tabular output is CSV with a mandatory header
row, comma separators, "\\n" line endings and 17-significant-digit values,
so emitted files parse back to the exact doubles that produced them.

The library validates the physics; the CLI checks only its flags and maps
exceptions to exit codes: 0 success, 2 invalid parameters (any ValueError,
NaN and inf included), 3 domain singularity (SingularRenormalization),
4 the --output file could not be written (OSError).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from . import analysis, dirac, schrodinger
from .connection import ConnectionParams, transmission
from .dirac import BarrierParams, DiracMedium
from .schrodinger import NonRelMedium, SingularRenormalization

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_SINGULAR = 3
EXIT_IO = 4

# Looser than the ConnectionParams invariant: flag values within 1e-9 of
# SL(2,R) are accepted and rescaled onto determinant 1.
_CLI_DET_TOL = 1e-9


def _csv(header: str, table: np.ndarray) -> str:
    """The header line, then one line per row of a 2-d float table.

    Every value is written "%.17g", which is format(x, ".17g"): 17
    significant digits round-trip any double exactly.  The body is one
    %-format over the whole flattened table.
    """
    rows, cols = table.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    return header + "\n" + (line * rows) % tuple(table.ravel().tolist())


def _connection_from_args(args: argparse.Namespace) -> ConnectionParams:
    det = args.alpha * args.delta - args.beta * args.gamma
    if abs(det - 1.0) > _CLI_DET_TOL:
        raise ValueError(
            f"alpha*delta - beta*gamma = {det:.17g}; must be 1 within {_CLI_DET_TOL}"
        )
    scale = math.sqrt(det)
    return ConnectionParams(
        args.alpha / scale,
        args.beta / scale,
        args.gamma / scale,
        args.delta / scale,
        args.theta,
    )


def _require(args: argparse.Namespace, names: tuple[str, ...], context: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"{', '.join(missing)} required {context}")


def _sweep_values(args: argparse.Namespace) -> list[float]:
    if args.sweep_count < 2:
        raise ValueError("--sweep-count must be at least 2")
    if args.spacing == "log":
        if args.sweep_start <= 0.0 or args.sweep_stop <= 0.0:
            raise ValueError("log spacing requires positive endpoints")
        ratio = (args.sweep_stop / args.sweep_start) ** (1.0 / (args.sweep_count - 1))
        if not math.isfinite(ratio):
            raise ValueError("log spacing requires a finite --sweep-stop/--sweep-start ratio")
        values = [args.sweep_start * ratio**i for i in range(args.sweep_count)]
    else:
        step = (args.sweep_stop - args.sweep_start) / (args.sweep_count - 1)
        values = [args.sweep_start + step * i for i in range(args.sweep_count)]
    # Endpoints are part of the contract; never leave them to rounding.
    values[0] = args.sweep_start
    values[-1] = args.sweep_stop
    return values


def cmd_transmission(args: argparse.Namespace) -> str:
    p = _connection_from_args(args)
    x = np.array(_sweep_values(args))
    if args.framework == "schrodinger":
        rho = schrodinger.rho(args.mass, x)
        t2 = transmission(p, rho * rho)
    else:
        t2 = transmission(p, dirac.rho2(x, args.mass))
    return _csv("x,T2,R2", np.column_stack((x, t2, 1.0 - t2)))


def cmd_converge(args: argparse.Namespace) -> str:
    a_values = _sweep_values(args)
    if args.framework == "schrodinger":
        _require(args, ("alpha", "beta", "gamma", "delta", "k"), "for --framework schrodinger")
        p = _connection_from_args(args)
        rows = analysis.nonrel_convergence(p, args.mass, args.k, a_values)
        if p.beta != 0.0 and abs(p.beta) < 1e-6:
            print(
                "warning: |beta| < 1e-6; renormalized strengths suffer "
                "cancellation at small spacing",
                file=sys.stderr,
            )
    else:
        _require(args, ("s", "v", "energy"), "for --framework dirac")
        # The library also accepts E < -m; this subcommand does not.
        if args.energy <= args.mass:
            raise ValueError("--energy must exceed --mass")
        barrier = BarrierParams(args.s, args.v, args.theta)
        rows = analysis.dirac_convergence(barrier, args.energy, args.mass, a_values)
    return _csv("a,err", np.array([row[:2] for row in rows]))


def cmd_compare(args: argparse.Namespace) -> str:
    p = _connection_from_args(args)
    table = analysis.correspondence_table(p, args.mass, _sweep_values(args))
    return _csv("kinetic,T2_schrodinger,T2_dirac,diff", table)


def cmd_classify(args: argparse.Namespace) -> str:
    tag = dirac.classify(BarrierParams(args.s, args.v, args.theta))
    if tag.strength is None:
        return tag.kind + "\n"
    return "%s strength=%.17g\n" % tag


def cmd_propagate(args: argparse.Namespace) -> str:
    if not math.isfinite(args.x):
        raise ValueError("--x must be finite")
    if args.framework == "schrodinger":
        _require(args, ("k",), "for --framework schrodinger")
        matrix = schrodinger.propagator(args.x, NonRelMedium(m=args.mass, k=args.k, A=args.avec))
    else:
        _require(args, ("energy",), "for --framework dirac")
        med = DiracMedium(m=args.mass, E=args.energy, S=args.scalar, V=args.vector, A=args.avec)
        matrix = dirac.propagator(args.x, med)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("propagator overflows or is undefined at these parameters")
    # Row-major entries, each as its real and imaginary part.
    cells = np.stack((matrix.real, matrix.imag), axis=-1).reshape(1, 8)
    return _csv("re11,im11,re12,im12,re21,im21,re22,im22", cells)


def _add_connection_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    for name in ("alpha", "beta", "gamma", "delta"):
        parser.add_argument(
            f"--{name}", type=float, required=required, default=None,
            help=f"connection parameter {name}",
        )


def _add_sweep_flags(parser: argparse.ArgumentParser, what: str, spacing: str) -> None:
    parser.add_argument("--sweep-start", type=float, required=True, help=f"first {what}")
    parser.add_argument("--sweep-stop", type=float, required=True, help=f"last {what}")
    parser.add_argument(
        "--sweep-count", type=int, required=True, help="number of sweep points (>= 2)"
    )
    parser.add_argument(
        "--spacing", choices=("linear", "log"), default=spacing,
        help=f"sweep point spacing (default {spacing})",
    )


def _add_output_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output", default=None, help="write to this path instead of standard output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointscatter",
        description="Transfer-matrix computations for 1D quantum point interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transmission", help="transmission/reflection probability sweep")
    _add_connection_flags(t, required=True)
    t.add_argument("--theta", type=float, default=0.0, help="connection phase (radians)")
    t.add_argument("--framework", choices=("schrodinger", "dirac"), required=True)
    t.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    _add_sweep_flags(t, "wave number (schrodinger) or energy (dirac)", "linear")
    _add_output_flag(t)
    t.set_defaults(func=cmd_transmission)

    c = sub.add_parser("converge", help="short-range model error vs its point limit")
    c.add_argument("--framework", choices=("schrodinger", "dirac"), required=True)
    _add_connection_flags(c, required=False)
    c.add_argument(
        "--theta", type=float, default=0.0,
        help="connection phase (schrodinger) or integrated spatial potential (dirac)",
    )
    c.add_argument("--s", type=float, default=None, help="integrated scalar strength (dirac)")
    c.add_argument("--v", type=float, default=None, help="integrated vector strength (dirac)")
    c.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    c.add_argument("--k", type=float, default=None, help="wave number (schrodinger)")
    c.add_argument("--energy", type=float, default=None, help="energy (dirac)")
    _add_sweep_flags(c, "half-spacing a", "log")
    _add_output_flag(c)
    c.set_defaults(func=cmd_converge)

    cp = sub.add_parser("compare", help="Schrodinger vs Dirac transmission vs kinetic energy")
    _add_connection_flags(cp, required=True)
    cp.add_argument("--theta", type=float, default=0.0, help="connection phase (radians)")
    cp.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    _add_sweep_flags(cp, "kinetic energy", "log")
    _add_output_flag(cp)
    cp.set_defaults(func=cmd_compare)

    cl = sub.add_parser("classify", help="name the point interaction of a Dirac barrier")
    cl.add_argument("--s", type=float, required=True, help="integrated scalar strength")
    cl.add_argument("--v", type=float, required=True, help="integrated vector strength")
    cl.add_argument(
        "--theta", type=float, default=0.0, help="integrated spatial vector potential"
    )
    _add_output_flag(cl)
    cl.set_defaults(func=cmd_classify)

    pr = sub.add_parser("propagate", help="dump one propagator matrix as 8 reals")
    pr.add_argument("--framework", choices=("schrodinger", "dirac"), required=True)
    pr.add_argument("--x", type=float, required=True, help="displacement")
    pr.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    pr.add_argument("--k", type=float, default=None, help="wave number (schrodinger)")
    pr.add_argument("--energy", type=float, default=None, help="energy (dirac)")
    pr.add_argument("--scalar", type=float, default=0.0, help="scalar potential S (dirac)")
    pr.add_argument("--vector", type=float, default=0.0, help="vector potential V (dirac)")
    pr.add_argument(
        "--avec", type=float, default=0.0, help="spatial vector potential A (both frameworks)"
    )
    _add_output_flag(pr)
    pr.set_defaults(func=cmd_propagate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every printed value is checked finite; numpy's warnings would only
        # precede the error line of a rejected input.
        with np.errstate(all="ignore"):
            text = args.func(args)
    except SingularRenormalization as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK
