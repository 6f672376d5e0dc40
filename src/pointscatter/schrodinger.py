"""Non-relativistic transfer-matrix machinery.

Propagates the pair (phi, phi'/2m) through constant vector potential,
provides the free plane-wave modes, and builds the three-delta short-range
model of a general point interaction: deltas of strengths v_minus, v_zero,
v_plus at x = -a, 0, +a with a constant vector potential A in between.
renormalized_strengths() makes the strengths a-dependent so the model
converges to a prescribed connection as a -> 0.  Free modes and
transmission are the shared scattering core of connection at rho = k/2m.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import connection
from .connection import ConnectionParams, ModePair, TransferMatrix
from .connection import _from_scalars, _propagation, _require_finite_fields

__all__ = [
    "NonRelMedium",
    "DeltaTriple",
    "ModesRequireFreeSpace",
    "propagator",
    "rho",
    "mode_vectors",
    "three_delta_transfer",
    "renormalized_strengths",
    "transmission",
]


class ModesRequireFreeSpace(ValueError):
    """Plane-wave modes are only defined at zero vector potential."""


@dataclass(frozen=True, init=False)
class NonRelMedium:
    """Mass, wave number k = sqrt(2mE) with E > 0, and vector potential A."""

    m: float
    k: float
    A: float = 0.0

    def __init__(self, m: float, k: float, A: float = 0.0) -> None:
        vars(self).update(m=float(m), k=float(k), A=float(A))
        self.__post_init__()

    def __post_init__(self) -> None:
        if not math.isfinite(self.A):
            raise ValueError("A must be finite")
        rho(self.m, self.k)


@dataclass(frozen=True, init=False)
class DeltaTriple:
    """Delta strengths at x = +a, 0, -a and the vector potential between them."""

    v_plus: float
    v_zero: float
    v_minus: float
    a: float
    A: float = 0.0

    def __init__(self, v_plus: float, v_zero: float, v_minus: float, a: float, A: float = 0.0) -> None:
        vars(self).update(v_plus=float(v_plus), v_zero=float(v_zero), v_minus=float(v_minus),
                          a=float(a), A=float(A))
        self.__post_init__()

    def __post_init__(self) -> None:
        # A field that is not finite makes the sum so; finite fields whose sum overflows pass below.
        if not math.isfinite(self.v_plus + self.v_zero + self.v_minus + self.a + self.A):
            _require_finite_fields(self, ("v_plus", "v_zero", "v_minus", "a", "A"))
        if not self.a > 0.0:
            raise ValueError("half-spacing a must be positive")


def _hop(x, m, k, A, iA):
    """Phase e^{iAx} and the four entries of the bracket of propagator(), at a float x.

    c I + s [[-iA, 2m], [(A^2 - k^2)/2m, iA]]: connection._propagation at w = sign = k, on its
    trigonometric branch, which enters no np.errstate.  iA = 1j * A is formed once by the caller:
    (1j * A) * s is how Python reads 1j * A * s.
    """
    phase, c, s = _propagation(x, k, k, iA)
    # "+ 0.0" turns the -0.0 that s = ±0 leaves off the diagonal into +0.0,
    # so the identity at x = 0 carries no signed zeros.
    off_lower = (A * A - k * k) / (2.0 * m) * s + 0.0
    ias = iA * s
    return phase, (c - ias, 2.0 * m * s + 0.0, off_lower, c + ias)


def propagator(x: float, med: NonRelMedium) -> TransferMatrix:
    """Transfer matrix over a float displacement x at constant vector potential.

    e^{iAx} [cos(kx) I + sin(kx)/k [[-iA, 2m], [(A^2 - k^2)/2m, iA]]], from both frameworks'
    kernel connection._propagation (_hop); ValueError where an entry is not finite, or for an
    array x.  At A = 0 this is the free propagator [[cos kx, (2m/k) sin kx], [-(k/2m) sin kx, cos kx]].
    """
    return connection._propagator(_hop, x, med.m, med.k, med.A, 1j * med.A)


def rho(m: float, k: float | np.ndarray) -> float | np.ndarray:
    """The mode parameter rho = k/2m of connection.modes and connection.transmission.

    Raises ValueError unless m > 0, k > 0 and m < inf, in that order (NaN
    fails each): the exterior check of every Schrodinger medium.  Entry-wise
    over an ndarray k against one mass, the column checked on its least entry.
    """
    if not m > 0.0:
        raise ValueError("mass must be positive")
    if not (k > 0.0 if k.__class__ is not np.ndarray else not k.size or k.min() > 0.0):
        raise ValueError("wave number must be positive (scattering states only)")
    if not m < math.inf:
        raise ValueError("mass must be finite")
    # Where 2m overflows, k/2m is (k/2)/m, rounded once: k/2 is exact unless k/2m rounds to 0.
    if m.__class__ is k.__class__ is float:
        return k / (2.0 * m) if 2.0 * m < math.inf else 0.5 * k / m
    with np.errstate(over="ignore"):  # to inf as floats do
        return k / (2.0 * m) if 2.0 * m < math.inf else 0.5 * k / m


def mode_vectors(med: NonRelMedium) -> ModePair:
    """Plane-wave modes connection.modes(rho(m, k)); u± propagate as e^{±ikx}.

    Only defined in free space: raises ModesRequireFreeSpace for A != 0.
    """
    if med.A != 0.0:
        raise ModesRequireFreeSpace("plane-wave modes require A = 0")
    return connection.modes(rho(med.m, med.k))


def _three_delta(a, m, k, v_plus, v_zero, v_minus, A, iA):
    """Phase and four entries of the three-delta model's product, at a float a.

    D(v_plus - edge) H D(v_zero) H D(v_minus + edge) with D(v) = [[1, 0], [v, 1]], H =
    propagator(a) and edge = iA/2m, iA = 1j * A.  Built right to left, so each delta factor is
    one row (or column) operation on the running product.  H's entries are computed once for
    both hops, with their phases pulled out as e^{2iAa}, which is returned beside the entries
    (m00, m01, m10, m11) of the rest.
    """
    phase, (h00, h01, h10, h11) = _hop(a, m, k, A, iA)
    edge = iA / (2.0 * m)
    # H D(v_minus + edge): column 0 += (v_minus + edge) * column 1
    w = v_minus + edge
    p00, p01, p10, p11 = h00 + h01 * w, h01, h10 + h11 * w, h11
    # D(v_zero) from the left: row 1 += v_zero * row 0
    p10, p11 = p10 + v_zero * p00, p11 + v_zero * p01
    # H from the left
    p00, p01, p10, p11 = (
        h00 * p00 + h01 * p10,
        h00 * p01 + h01 * p11,
        h10 * p00 + h11 * p10,
        h10 * p01 + h11 * p11,
    )
    # D(v_plus - edge) from the left: row 1 += (v_plus - edge) * row 0
    w = v_plus - edge
    return phase * phase, (p00, p01, p10 + w * p00, p11 + w * p01)


def _three_delta_block(a: np.ndarray, m: float, k: float, v_plus, v_zero, v_minus) -> np.ndarray:
    """_three_delta's entries over a column a at A = 0, up to a zero's sign: the rows of a (4, n) block.

    Its operations at A = iA = 0.0, on its operands, less those adding or subtracting an exact zero
    (c -+ iA s, + 0.0, -+ edge), in place on the block's (2, n) halves; under the caller's np.errstate.
    """
    _, c, s = _propagation(a, k, k, 0.0)
    h01, h10 = 2.0 * m * s, (0.0 - k * k) / (2.0 * m) * s
    block = np.array((h01 * v_minus + c, h01, c * v_minus + h10, c))  # H D(v_minus)
    top, bottom = block[:2], block[2:]
    bottom += v_zero * top  # D(v_zero) from the left: row 1 += v_zero * row 0
    lower = h10 * top  # H from the left
    top *= c
    top += h01 * bottom
    bottom *= c
    bottom += lower
    bottom += v_plus * top  # D(v_plus) from the left
    return block


def three_delta_transfer(cfg: DeltaTriple, med: NonRelMedium) -> TransferMatrix:
    """Transfer matrix of the three-delta model from x = -a-0 to x = +a+0.

    Five factors: delta at -a, propagation over a, delta at 0, propagation
    over a, delta at +a.  The side deltas pick up extra imaginary strengths
    ∓iA/2m from the vector potential switching on and off at x = ∓a.  Its
    error at one a is the Schrodinger convergence sweep's (_three_delta_block),
    bit for bit.  ValueError where an entry is not finite.
    """
    if med.A != cfg.A:
        raise ValueError("medium vector potential must equal the triple's A")
    phase, entries = _three_delta(cfg.a, med.m, med.k, cfg.v_plus, cfg.v_zero, cfg.v_minus, cfg.A, 1j * cfg.A)
    return _from_scalars(phase, entries, "half-spacing a=%r is out of range: "
                         "the three-delta products overflow", cfg.a)


def _require_quotient(a, numerator: float, divisor, names: tuple[str, str]) -> None:
    """Raise ValueError, naming the largest failing a, unless numerator/divisor is finite.

    names gives the two as formulas.  divisor >= 0 grows with a, a float or
    a column in descending order, so one float check of its last entry
    covers the column; an empty column has nothing to check.
    """
    if divisor.__class__ is not float and not divisor.size:
        return
    last = divisor if divisor.__class__ is float else float(divisor.flat[-1])
    if last > 0.0 and abs(numerator) / last < math.inf:
        return
    a, divisor = np.ravel(a), np.ravel(divisor)
    with np.errstate(all="ignore"):
        failed = np.flatnonzero(~(abs(numerator) / divisor < math.inf))
    i = failed[np.argmax(a[failed])]
    top, bottom = names
    what = f"{bottom} underflows to 0" if divisor[i] == 0.0 else f"{top} / ({bottom}) overflows"
    raise ValueError(f"half-spacing a={float(a[i])!r} is too small: {what}")


def _strengths(p: ConnectionParams, a, m: float):
    """(v_plus, v_zero, v_minus) of renormalized_strengths(), entry-wise over a, and their connection.

    That is p, or where beta = 0 and alpha + delta = -2 its sign representative: A = theta/2a of
    its theta, and at A = 0 the model tends to its real matrix.  a is a float or a column in
    descending order.  ValueError for a mass that is not positive (NaN included) or a spacing
    so small that a divisor below underflows to 0 or a quotient overflows.
    """
    if not m > 0.0:
        raise ValueError("mass must be positive")
    if p.beta != 0.0:
        # 2ma underflows to 0 only where 4m^2a^2 does.
        centre = 4.0 * m * m * a * a
        _require_quotient(a, p.beta, centre, ("beta", "4 m^2 a^2"))
        plus, minus = (p.delta + 1.0) / p.beta, (p.alpha + 1.0) / p.beta
        # Float division overflows to inf without a warning: a tiny beta
        # makes v± infinite at every a.
        if math.isinf(plus) or math.isinf(minus):
            raise ValueError(f"{'v_plus' if math.isinf(plus) else 'v_minus'} must be finite")
        side = -1.0 / (2.0 * m * a)
        v_plus, v_minus = side + plus, side + minus
        v_zero = p.beta / centre
    else:
        denom = p.alpha + p.delta + 2.0
        if denom == 0.0:  # the same matrix's sign representative, whose divisor is exactly 4
            p, denom = ConnectionParams(-p.alpha, -p.beta, -p.gamma, -p.delta, p.theta + math.pi), 4.0
        side = 4.0 * m * a
        top = max(abs(p.delta - 1.0), abs(p.alpha - 1.0))
        _require_quotient(a, top, side, ("max(|alpha - 1|, |delta - 1|)", "4 m a"))
        v_plus = (p.delta - 1.0) / side
        v_minus = (p.alpha - 1.0) / side
        v_zero = 4.0 * p.gamma / denom
        if math.isinf(v_zero):  # the same at every a: no a to blame
            raise ValueError("v_zero must be finite")
    return v_plus, v_zero, v_minus, p


def renormalized_strengths(p: ConnectionParams, a: float, m: float) -> DeltaTriple:
    """a-dependent strengths steering the three-delta model to connection p.

    Two disjoint schemes, selected on beta == 0 exactly:

        beta != 0:  v+ = -1/2ma + (delta+1)/beta,
                    v- = -1/2ma + (alpha+1)/beta,
                    v0 = beta/4m^2a^2
        beta == 0:  v+ = (delta-1)/4ma,
                    v- = (alpha-1)/4ma,
                    v0 = 4*gamma/(alpha+delta+2)

    Both carry vector potential A = theta/2a.  The plain delta potential
    (alpha = delta = 1, beta = 0) is the one case needing no a-dependence.
    A tiny nonzero beta makes v0 = beta/4m^2a^2 enormous and downstream
    matrix products lose digits at small a; the CLI warns below |beta| = 1e-6.
    Where beta = 0 and alpha + delta = -2, the strengths are those of the same
    matrix's sign representative (-alpha, -beta, -gamma, -delta, theta + pi).
    """
    if not a > 0.0:
        raise ValueError("half-spacing a must be positive")
    v_plus, v_zero, v_minus, p = _strengths(p, a, m)
    width = 2.0 * a
    _require_quotient(a, p.theta, width, ("theta", "2 a"))
    return DeltaTriple(v_plus, v_zero, v_minus, a, p.theta / width)


def transmission(p: ConnectionParams, med: NonRelMedium) -> float:
    """connection.transmission through p at rho = k/2m; independent of theta and med.A."""
    return _transmission(p, med.m, med.k)


def _transmission(p: ConnectionParams, m: float, k: float | np.ndarray):
    """transmission entry-wise over an ndarray k against one mass, also where rho^2 is not normal.

    Below about 1.5e-154 and above 1.3e154, rho^2 rounds to a subnormal, 0
    or inf and loses beta^2 rho^2 or gamma^2 / rho^2; so does rho itself
    where k/2m underflows or overflows.  Where k is finite there,
    rho = r 2^d, with r the ratio of k's and m's mantissas, rounded once,
    and the terms are those of beta 2^d and gamma 2^-d at r^2: powers of
    two keep beta*gamma, and so T.  Everywhere else T is
    connection.transmission(p, rho * rho), bit for bit.
    """
    r = np.asarray(rho(m, k))
    with np.errstate(over="ignore"):  # rho^2 and the powers of two overflow to inf
        r2 = r * r
        t = connection.transmission(p, r2)
        if sys.float_info.min <= r2.min(initial=math.inf) and r2.max(initial=0.0) < math.inf:
            return t  # the common case: two reductions, no mask
        odd = np.flatnonzero(((r2 < sys.float_info.min) | (r2 == math.inf)) & (k < math.inf))
        t, ks, (fm, em) = np.array(t), np.ravel(k), math.frexp(m)
        # Rare entries, one at a time: each has its own d.  An ldexp that
        # overflows gives T = 0; one that underflows, a term below 2^-2000.
        for i in odd.tolist():
            fk, ek = math.frexp(ks[i])
            d, q = ek - em - 1, fk / fm
            b, g = np.ldexp(p.beta, d), np.ldexp(p.gamma, -d)
            t.flat[i] = connection._transmission(p.alpha, b, g, p.delta, np.array(q * q))
    return t if t.ndim else float(t)
