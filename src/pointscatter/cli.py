"""Command-line front end.

Subcommands: transmission (probability sweeps in either framework),
converge (short-range model error against its zero-range target), compare
(Schrodinger vs Dirac transmission at matched kinetic energy), classify
(delta/epsilon/trig/hyperbolic tag of a barrier), propagate (one transfer
matrix as eight reals).  Output is ASCII bytes, written unencoded to the
--output file or to stdout, with "\\n" line endings on every platform; tables
are CSV with a mandatory header row, commas and 17-significant-digit values,
so emitted files parse back to the exact doubles that produced them.

The library validates the physics; the CLI checks only its flags and maps
exceptions to exit codes: 0 success, 2 invalid parameters (any ValueError,
NaN and inf included), 3 domain singularity (SingularRenormalization),
4 the --output file could not be written (OSError).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from typing import Optional

import numpy as np

from . import analysis, dirac, schrodinger
from .connection import ConnectionParams, _onto_sl2
from .dirac import BarrierParams, DiracMedium
from .schrodinger import NonRelMedium, SingularRenormalization

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_SINGULAR = 3
EXIT_IO = 4

# Looser than the ConnectionParams floor 1e-12: flag values whose determinant is 1 within
# 1e-9 are rescaled onto det 1, and within only its rounding error kept (connection._onto_sl2).
_CLI_DET_TOL = 1e-9

# A negative number as "%.17g" prints it, -1e-05 say: argparse's own test admits only -5 and
# -0.5 and reads the rest as flags ("expected one argument").
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


# The digits of _csv.  A value v with 1e-280 <= |v| < 1e17 has exponent
# k = floor(log10 |v|) and 17 significant digits N = round(|v| * 10^(16-k)),
# formed exactly in float64 and int64 arithmetic (see _cells); whatever that
# arithmetic cannot decide, and every other value, goes to "%.17g" itself.
_K_MIN = -280  # 10^(16 - k) times _VELTKAMP stays finite
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
# Rounding X = |v| * 10^p for p > 22 is left to "%.17g" when the computed
# remainder lies within this of a half-integer; see _cells.
_TIE_MARGIN = 2.0**-46
_BLOCK_VALUES = 2048  # values per pass, in whole rows: no temporary exceeds 64 KiB

# Every value owns a 32-byte cell of four little-endian words and prints
# its bytes that are not NUL: 0 "-", 1-5 "0.000" (fixed notation below 1),
# 6-23 the digits, 24-28 "e-ddd", 29 the separator.  The 17 digits are
# written as 18, with a placeholder 1 where the point goes: after digit k
# in fixed notation at 0 <= k <= 16, after the first in exponent notation,
# before the first after "0.000".  It keeps the stripping of trailing zeros
# off the integer digits, then turns into the point if a digit follows it.
_CELL = 32


def _veltkamp(x):
    """x as hi + lo, each with at most 26 significant bits (Dekker 1971)."""
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _layout():
    """The fast path's per-exponent tables, built on the first call of _csv.

    Row k - _K_MIN holds exponent k; the extra last row is the fallback,
    whose cell is the text "%.17g" that _csv fills in afterwards.
    """
    k = np.arange(_K_MIN, 17)
    powers = [10 ** int(p) for p in 16 - k]
    head = np.array([float(q) for q in powers])
    # 10^p = head + tail within 2^-53 |tail|; tail is 0 where p <= 22.
    tail = np.array([float(q - int(f)) for q, f in zip(powers, head.tolist())])
    margin = np.where(tail != 0.0, _TIE_MARGIN, 0.0)
    # Per row: words 0 and 3 of the cell without the digits and the sign;
    # 10^(16 - s) and 9 times it, where the placeholder follows digit s
    # (s = -1: none); its byte 7 + s; the byte that decides the point.
    prefix = [b"0." + b"0" * (-1 - e) if -5 < e < 0 else b"" for e in k.tolist()] + [b"%.17g"]
    suffix = [b"e-%02d" % -e if e < -4 else b"" for e in k.tolist()] + [b""]
    front = np.array([int.from_bytes(f.rjust(6, b"\0"), "little") for f in prefix], np.uint64)
    back = np.array([int.from_bytes(b, "little") for b in suffix], np.uint64)
    s = np.append(np.where(k < -4, 0, np.where(k < 0, -1, k)), -1)
    # quads[z * 10^4 + i] is the four digits of i as a 4-byte word, at z = 1
    # (no later group has a digit not 0) with NUL for its trailing zeros;
    # tops[z * 100 + t] the last two in bytes 6-7, and at 200 more with "-".
    i, scale = np.arange(10**4, dtype=np.int16)[:, None], np.array([1000, 100, 10, 1], np.int16)
    digits = (i // scale % 10 + ord("0")).astype(np.uint8)
    quads = np.stack((digits, digits * (i % (10 * scale) != 0))).view("<u4").ravel()
    tops = quads.reshape(2, -1)[:, :100].astype(np.uint64).ravel() >> 16 << 48
    return (head, tail, *_veltkamp(head), margin, front, back, 10 ** (16 - s), 9 * 10 ** (16 - s),
            7 + s, np.where(s < 0, _CELL - 1, 8 + s), np.append(tops, tops | ord("-")), quads)


def _cells(v: np.ndarray, seps: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The text of v's cells, each ended by its entry of seps, and where v fell back.

    A fallback cell reads "%.17g", for _csv to fill in.
    """
    head, tail, head_hi, head_lo, margin, front, back, split, gap, point, after, tops, quads = _layout()
    a = np.abs(v)
    k = np.floor(np.log10(a))  # -inf at 0: _csv ignores the division by zero
    fast = (k >= _K_MIN) & (k <= 16)  # False for 0, NaN, inf and subnormals
    row = np.where(fast, k, 0.0).astype(np.intp) - _K_MIN
    x = np.where(fast, a, 1.0)
    # X = x * 10^p with p = 16 - k, rounded to an integer.  Dekker's product
    # gives hi + lo = x * head exactly, and r = lo + x * tail.  hi >= 2^53
    # is an even integer, so N = hi + rint(r) rounds half to even, as
    # "%.17g" does.  Where tail = 0, r = lo exactly.  Elsewhere, with
    # u = 2^-53 and X < 1e17: rounding x * tail errs by at most
    # u * |x tail| <= u^2 X < 1.3e-15; 10^p - head - tail, below u |tail|
    # <= u^2 head, adds at most as much; and |lo + x tail| < 8 + 12 rounds
    # by at most 2^-49 < 1.8e-15.  So |X - hi - r| < 4.4e-15 < 2^-47, and N
    # is X rounded wherever r lies further than _TIE_MARGIN from a half-integer.
    hi = x * head.take(row)
    xh, xl = _veltkamp(x)
    bh, bl = head_hi.take(row), head_lo.take(row)
    lo = ((xh * bh - hi) + xh * bl + xl * bh) + xl * bl
    r = lo + x * tail.take(row)
    near = np.rint(r)
    m = margin.take(row)
    fast &= np.abs(np.abs(r - near) - 0.5) >= m
    # log10 may put k one off near a power of ten, so X must be checked to
    # lie in [1e16, 1e17); N = 1e17, a carry into the next decade, falls
    # back too.  hi - 1e16 is exact wherever the sum is near m.
    fast &= (hi - 1e16) + r >= m
    n = hi.astype(np.int64) + near.astype(np.int64)
    del a, k, x, hi, xh, xl, bh, bl, lo, r, near, m
    fast &= n < 10**17
    slow = ~fast
    row[slow] = head.size
    n[slow] = 0
    # N with the placeholder after digit s is N + (9 I + 1) 10^(16 - s), at
    # I = N // 10^(16 - s): two digits from tops, four groups of four from quads.
    at = split.take(row)
    n += n // at * gap.take(row) + at
    groups, last = [], True
    for _ in range(4):
        q = n // 10**4
        n -= q * 10**4
        np.add(n, 10**4, out=n, where=last)
        groups.append(n)
        last, n = n == 10**4, q
    np.add(n, 100, out=n, where=last)
    np.add(n, 200, out=n, where=fast & (v < 0.0))
    cells = np.empty((v.size, _CELL // 8), "<u8")
    cells[:, 0] = front.take(row) | tops.take(n)
    cells[:, 3] = back.take(row) | seps
    for j, group in enumerate(groups):
        cells.view("<u4")[:, 5 - j] = quads.take(group)
    del n, q, groups
    # The placeholder turns into the point where a digit follows it.
    text = cells.view(np.uint8).ravel()
    base = np.arange(0, text.size, _CELL)
    text[point.take(row) + base] = (text.take(after.take(row) + base) != 0) * np.uint8(ord("."))
    return text.tobytes().translate(None, b"\0"), slow


def _csv(header: str, table: np.ndarray) -> bytes:
    """The header line, then one line per row of a 2-d float table, as ASCII bytes.

    Every value is written as format(x, ".17g"): 17 significant digits
    round-trip any double exactly.  numpy forms the digits of every finite
    value with 1e-280 <= |x| < 1e17 by exact arithmetic, _BLOCK_VALUES at a
    time (_cells); "%.17g" itself formats the values it cannot decide, and
    all others (0, NaN, inf, subnormals, huge and tiny magnitudes), in one
    % pass over the text of each block that has any.
    """
    rows, cols = table.shape
    values = np.ascontiguousarray(table, dtype=float).ravel()
    step = max(1, _BLOCK_VALUES // cols) * cols
    seps = np.tile(np.array([ord(",")] * (cols - 1) + [ord("\n")], np.uint64) << 40, step // cols)
    text = [header.encode("ascii") + b"\n"]
    with np.errstate(divide="ignore"):
        for start in range(0, values.size, step):
            block = values[start : start + step]
            cells, slow = _cells(block, seps[: block.size])
            if slow.any():
                cells %= tuple(block[slow].tolist())
            text.append(cells)
    return b"".join(text)


def _connection_from_args(args: argparse.Namespace) -> ConnectionParams:
    entries = [args.alpha, args.beta, args.gamma, args.delta]
    return ConnectionParams(*_onto_sl2(entries, _CLI_DET_TOL), args.theta)


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
        # Python's pow, not np.power: on AVX-512 hosts the two differ in the last bit.  The last
        # power is never formed: it can overflow by rounding, and --sweep-stop replaces it.
        values = [args.sweep_start * ratio**i for i in range(args.sweep_count - 1)] + [args.sweep_stop]
    else:
        step = (args.sweep_stop - args.sweep_start) / (args.sweep_count - 1)
        # The same two IEEE operations per entry as start + step * i.  Near the float range's ends
        # they can give inf, or NaN as inf * 0: the endpoints are set below, the library refuses the rest.
        with np.errstate(over="ignore", invalid="ignore"):
            values = (args.sweep_start + step * np.arange(args.sweep_count)).tolist()
    # Endpoints are part of the contract; never leave them to rounding.
    values[0] = args.sweep_start
    values[-1] = args.sweep_stop
    return values


def cmd_transmission(args: argparse.Namespace) -> bytes:
    p = _connection_from_args(args)
    x = np.array(_sweep_values(args))
    if args.framework == "schrodinger":
        t2 = schrodinger._transmission(p, args.mass, x)
    else:
        t2 = dirac.transmission(p, x, args.mass)
    return _csv("x,T2,R2", np.column_stack((x, t2, 1.0 - t2)))


def cmd_converge(args: argparse.Namespace) -> bytes:
    a_values = _sweep_values(args)
    if args.framework == "schrodinger":
        _require(args, ("alpha", "beta", "gamma", "delta", "k"), "for --framework schrodinger")
        p = _connection_from_args(args)
        sweep = analysis.nonrel_convergence(p, args.mass, args.k, a_values)
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
        sweep = analysis.dirac_convergence(barrier, args.energy, args.mass, a_values)
    return _csv("a,err", np.column_stack((sweep.x, sweep.value)))


def cmd_compare(args: argparse.Namespace) -> bytes:
    p = _connection_from_args(args)
    table = analysis.correspondence_table(p, args.mass, _sweep_values(args))
    return _csv("kinetic,T2_schrodinger,T2_dirac,diff", table)


def cmd_classify(args: argparse.Namespace) -> bytes:
    tag = dirac.classify(BarrierParams(args.s, args.v, args.theta))
    line = tag.kind if tag.strength is None else "%s strength=%.17g" % tag
    return line.encode("ascii") + b"\n"


def cmd_propagate(args: argparse.Namespace) -> bytes:
    if not math.isfinite(args.x):
        raise ValueError("--x must be finite")
    if args.framework == "schrodinger":
        _require(args, ("k",), "for --framework schrodinger")
        matrix = schrodinger.propagator(args.x, NonRelMedium(m=args.mass, k=args.k, A=args.avec))
    else:
        _require(args, ("energy",), "for --framework dirac")
        med = DiracMedium(m=args.mass, E=args.energy, S=args.scalar, V=args.vector, A=args.avec)
        matrix = dirac.propagator(args.x, med)
    # Row-major entries, each as its real and imaginary part: a C-contiguous view.
    cells = matrix.view(float).reshape(1, 8)
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

    for p in (parser, t, c, cp, cl, pr):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        data = args.func(args)
    except ValueError as exc:  # SingularRenormalization is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR if isinstance(exc, SingularRenormalization) else EXIT_PARAMS
    if args.output:
        try:
            with open(args.output, "wb") as handle:
                handle.write(data)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text a caller in this process printed first goes out first
        sys.stdout.buffer.write(data)
    else:  # a text-only stream, such as io.StringIO
        sys.stdout.write(data.decode("ascii"))
    return EXIT_OK
