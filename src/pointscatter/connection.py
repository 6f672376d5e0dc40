"""Point-interaction boundary conditions as 2x2 transfer matrices.

A point interaction in one dimension is a boundary condition tying the
two-component wave data on the right of a point to the data on the left,
psi(+0) = V psi(-0).  Conservation of the probability current
j = psi† sigma2 psi forces V = e^{i*theta} U with U real and det U = 1,
so the whole family is four real parameters plus one phase.  This module
owns that parametrisation, the delta/epsilon special cases, the current
conservation test, and plane-wave scattering off a single connection.
Both frameworks share one scattering core, modes(rho) and
transmission(p, rho2); only rho differs between them.

All operations are pure functions of immutable values and are safe to use
concurrently.  Natural units (hbar = c = 1) throughout the package.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "SIGMA2",
    "TransferMatrix",
    "ConnectionParams",
    "ModePair",
    "ScatteringResult",
    "NotConnectionForm",
    "SingularProjection",
    "as_matrix",
    "conserves_current",
    "decompose",
    "delta_connection",
    "epsilon_connection",
    "modes",
    "scatter",
    "transmission",
    "wrap_angle",
]

#: 2x2 complex matrix connecting two-component wave data across a region or
#: an interaction point.  A plain ndarray: validity (current conservation,
#: unimodularity) is checked by operations, never at construction.
TransferMatrix = np.ndarray

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])

_TWO_PI = 2.0 * math.pi
_RT2 = math.sqrt(2.0)
_RT2_INV = complex(1.0 / _RT2)
_COMPLEX = np.dtype(complex)

_DET_TOL = 1e-12          # SL(2,R) membership at construction: floor of the band
_BIORTHO_TOL = 1e-12      # mode-pair projections at construction
_UNITARITY_TOL = 1e-10    # |T|^2 + |R|^2 = 1 on scattering results
_REAL_FORM_TOL = 1e-8     # admission tolerance for decompose
# c*u, u = 2^-53, of the det band c u S, S = |alpha delta| + |beta gamma|.  fl(alpha*delta -
# beta*gamma) is within gamma_2 S ~ 2uS of the floats' exact det (Higham 2002, sec. 3.1), and
# rounding an SL(2,R) matrix's entries moves that det by ~2uS: c = 4.  Entries divided by r =
# fl(sqrt(det)), as decompose and the CLI rescale, have an exact det within 2uS + 2u + 2uS <=
# 6uS of 1 (det's, r's, the quotients' roundings); computing it adds 2uS: c = 8, 9 with O(u^2).
# Past the floor det is no better than its rounding, which spans more than 1 from S ~ 1e15,
# so only a det within the floor is rescaled (_onto_sl2); ConnectionParams admits the rest.
_DET_BAND = 9 * 2.0**-53
# c*u bounds modes(rho)'s projections v† u off 1 and 0 for every admitted rho.  s = fl(sqrt2) =
# sqrt2 (1 + e), e = 0.62u; a = fl(1/s) has fl(a*a) = 1/2 - u exactly.  b = fl(rho/s), r =
# fl(1/rho) and q = fl(r/s) err by u relative where normal.  At the ends one is subnormal, off
# by at most 2^-1075: rho <= DBL_MAX puts r > 2^-1024 (4u) and q > 2^-1024/s (4 sqrt2 u ~ 5.7u);
# 1/rho finite puts rho > 2^-1024, so b errs by 5.7u.  fl(b*q) = (1 + d)/2, |d| <= u + 4u + 5.7u
# + u + 2e ~ 12.9u: v±† u± = fl(fl(a*a) + fl(b*q)) is within u + 6.45u + u of 1, v∓† u± =
# fl(a*a) - fl(b*q), exact (Sterbenz), within 7.45u of 0.  c = 9 with O(u^2).
_MODES_BIORTHO_ERR = 9 * 2.0**-53
_PROJECTION_FLOOR = 1e-14


class NotConnectionForm(ValueError):
    """Matrix is not e^{i*theta} U with U real and det U = 1 to tolerance."""


class SingularProjection(ValueError):
    """Projection v-† M u- vanished for a non-current-conserving matrix."""


def _require_finite_fields(obj, names) -> None:
    """ValueError naming the first field of obj in names that is not finite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    t = theta % _TWO_PI
    if t > math.pi:
        t -= _TWO_PI
    return t


@dataclass(frozen=True, init=False)
class ConnectionParams:
    """Point-interaction parameters: e^{i*theta} [[alpha, beta], [gamma, delta]].

    alpha*delta - beta*gamma must equal 1 within 1e-12 or its rounding error
    (_unimodular_det).  theta must be finite and is stored in (-pi, pi]; no
    canonical range is standard, this one is the package convention and
    matches what decompose() returns.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    theta: float = 0.0

    def __init__(self, alpha: float, beta: float, gamma: float, delta: float, theta: float = 0.0) -> None:
        vars(self).update(alpha=float(alpha), beta=float(beta), gamma=float(gamma), delta=float(delta),
                          theta=wrap_angle(float(theta)))  # a non-finite theta wraps to NaN
        self.__post_init__()

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        _unimodular_det(self.alpha, self.beta, self.gamma, self.delta, _DET_TOL)


@dataclass(frozen=True)
class ModePair:
    """Right/left movers u_plus/u_minus with their dual modes v_plus/v_minus.

    Each field is a tuple of two Python complex numbers, which scatter
    reads; np.asarray(pair.u_plus) gives it as a complex (2,) array.  The
    duals project amplitudes out of two-component wave data:
    v_s† u_s = 1 and v_s† u_{-s} = 0, checked to 1e-12 at construction;
    modes() builds its pairs unchecked, within a derived bound instead.
    """

    u_plus: tuple[complex, complex]
    u_minus: tuple[complex, complex]
    v_plus: tuple[complex, complex]
    v_minus: tuple[complex, complex]

    def __post_init__(self) -> None:
        for field in fields(self):
            vec = np.asarray(getattr(self, field.name), dtype=complex)
            if vec.shape != (2,):
                raise ValueError(f"{field.name} must be a 2-component vector")
            vars(self)[field.name] = tuple(vec.tolist())
        projections = (
            ("v_plus† u_plus", self.v_plus, self.u_plus, 1.0),
            ("v_minus† u_minus", self.v_minus, self.u_minus, 1.0),
            ("v_plus† u_minus", self.v_plus, self.u_minus, 0.0),
            ("v_minus† u_plus", self.v_minus, self.u_plus, 0.0),
        )
        for label, (d0, d1), (u0, u1), want in projections:
            got = d0.conjugate() * u0 + d1.conjugate() * u1
            try:
                off = abs(got - want)
            except OverflowError:  # a modulus beyond the float range is not within tolerance
                off = math.inf
            if not off <= _BIORTHO_TOL:
                raise ValueError(f"modes not bi-orthogonal: {label} = {got!r}")


@dataclass(frozen=True, init=False)
class ScatteringResult:
    """Transmission/reflection amplitudes t, r with |t|^2 + |r|^2 = 1 within 1e-10."""

    t_amp: complex
    r_amp: complex

    def __init__(self, t_amp: complex, r_amp: complex) -> None:
        vars(self).update(t_amp=complex(t_amp), r_amp=complex(r_amp))
        self.__post_init__()

    def __post_init__(self) -> None:
        try:
            total = abs(self.t_amp) ** 2 + abs(self.r_amp) ** 2  # t_prob + r_prob
        except OverflowError:  # a modulus or its square beyond the float range
            total = math.inf
        if not abs(total - 1.0) <= _UNITARITY_TOL:
            raise ValueError(f"non-unitary amplitudes: |T|^2 + |R|^2 = {total!r}")

    @property
    def t_prob(self) -> float:
        return abs(self.t_amp) ** 2

    @property
    def r_prob(self) -> float:
        return abs(self.r_amp) ** 2


def _unimodular_det(alpha: float, beta: float, gamma: float, delta: float, floor: float) -> float:
    """alpha*delta - beta*gamma if finite, > 0 and 1 within max(floor, _DET_BAND S), floor < 1."""
    ad, bc = alpha * delta, beta * gamma
    det = ad - bc
    if abs(det - 1.0) <= floor:  # the usual case; a NaN or infinite det fails it
        return det
    # Scaled before the sum, the band is finite wherever det is; an infinite det meets floor.
    band = max(floor, _DET_BAND * abs(ad) + _DET_BAND * abs(bc)) if math.isfinite(det) else floor
    if det > 0.0 and abs(det - 1.0) <= band:
        return det
    raise NotConnectionForm(f"alpha*delta - beta*gamma = {det!r}, not 1: must be 1 within {band:.3g}")


def _onto_sl2(entries: list[float], floor: float) -> list[float]:
    """entries / sqrt(det) where det is 1 within floor; as given where only the band admits them."""
    det = _unimodular_det(*entries, floor)
    if abs(det - 1.0) > floor:  # sqrt(det) would be no correction: see _DET_BAND
        return entries
    root = math.sqrt(det)
    return [entries[0] / root, entries[1] / root, entries[2] / root, entries[3] / root]


def as_matrix(p: ConnectionParams) -> TransferMatrix:
    """Connection matrix e^{i*theta} [[alpha, beta], [gamma, delta]]."""
    phase = cmath.exp(1j * p.theta)
    return phase * np.array((p.alpha, p.beta, p.gamma, p.delta), dtype=complex).reshape(2, 2)


def _from_scalars(phase, entries, message: str, *args) -> np.ndarray:
    """The 2x2 matrix phase * [[m00, m01], [m10, m11]] of a 0-d kernel's (phase, entries).

    Every transfer-matrix kernel forms its matrix here.  ValueError(message % args), formatted only
    then, unless the phase and every entry are finite.  It owns no np.errstate: Python floats
    overflow silently.  The kernels' entries are real up to rounding or have a real part in
    [-1, 1], so a unit phase leaves a finite entry finite.
    """
    if not (cmath.isfinite(phase) and _finite(entries)):
        raise ValueError(message % args)
    # Still an array multiply: numpy's may round unlike a scalar complex multiply.
    return phase * np.array(entries, dtype=complex).reshape(2, 2)


def _propagation(x, w, sign, iA):
    """e^{iAx} and c, s of exp(xN) = c I + s N, for a traceless 2x2 N with N^2 = -sign w^2 I.

    Both frameworks' propagation kernel, given iA = 1j * A, which callers share: cos(wx),
    sin(wx)/w where sign > 0, cosh(wx), sinh(wx)/w where sign < 0, and 1, x where sign is 0 or
    NaN or x = ±0.  A float x takes Python numbers, which round as numpy's do, past numpy's
    functions; NaN where wx or Ax is not finite, on which those would warn; np.errstate only
    for cosh.  An array x is a sweep's column of x > 0 (a or 2a, which analysis._spacings
    admitted), under its np.errstate: a column of signs on one branch runs it alone, a mixed, zero
    or NaN one masks each branch to its own elements.  iA = 0.0 (every A is 0): float64, phase 1.0.
    """
    if x.__class__ is float:
        iax = iA * x
        if not x or not (sign > 0.0 or sign < 0.0):  # w x may be inf*0 here
            if cmath.isfinite(iax):
                return complex(np.exp(iax)), 1.0, x
        elif math.isfinite(wx := w * x) and cmath.isfinite(iax):
            if sign > 0.0:
                return complex(np.exp(iax)), float(np.cos(wx)), float(np.sin(wx)) / w
            with np.errstate(over="ignore"):
                return complex(np.exp(iax)), float(np.cosh(wx)), float(np.sinh(wx) / w)
        return math.nan, math.nan, math.nan
    wx, phase = w * x, np.exp(iA * x) if iA.__class__ is not float else 1.0  # e^0 = 1 where iA = 0.0
    if (sign.min(initial=math.inf) if sign.__class__ is np.ndarray else sign) > 0.0:
        return phase, np.cos(wx), np.sin(wx) / w
    if sign.max() < 0.0:  # a column: a float sign here is Schrodinger's k > 0
        return phase, np.cosh(wx), np.sinh(wx) / w
    trig, hyper = sign > 0.0, sign < 0.0
    t, h = np.where(trig, wx, 0.0), np.where(hyper, wx, 0.0)
    w = np.where(trig | hyper, w, 1.0)
    # Off their branches t = h = 0 and w = 1: cosh(0) = 1 and x / 1 = x exactly.
    c = np.where(trig, np.cos(t), np.cosh(h))
    s = np.where(trig, np.sin(t), np.where(hyper, np.sinh(h), x)) / w
    return phase, c, s


def _propagator(kernel, x, *args) -> np.ndarray:
    """Both frameworks' propagator: kernel(x, *args)'s matrix at float(x); ValueError for an array x."""
    if x.__class__ is not float and np.ndim(x):  # np.ndim costs about a microsecond
        raise ValueError("displacement x must be a scalar")
    x = float(x)
    return _from_scalars(*kernel(x, *args), "displacement x=%r is out of range: the propagator overflows", x)


def delta_connection(v: float) -> TransferMatrix:
    """Connection of a delta potential of strength v: [[1, 0], [v, 1]].

    The wave function stays continuous and its derivative jumps by 2mv
    times the value; composing two delta connections adds the strengths.
    """
    return np.array([[1.0, 0.0], [v, 1.0]], dtype=complex)


def epsilon_connection(v: float) -> TransferMatrix:
    """Connection of an epsilon potential of strength v: [[1, v], [0, 1]].

    Transpose of the delta case: the derivative stays continuous and the
    value jumps proportionally to it.
    """
    return np.array([[1.0, v], [0.0, 1.0]], dtype=complex)


def _entries(M: TransferMatrix) -> list[complex]:
    """The entries [a, b, c, d] of M = [[a, b], [c, d]] as Python complex numbers.

    ValueError unless M's shape is (2, 2).  Only an exact ndarray of native complex128 skips
    np.asarray.  On four entries, Python complex arithmetic costs a fraction of numpy's.
    """
    if M.__class__ is not np.ndarray or M.dtype is not _COMPLEX:
        M = np.asarray(M, dtype=complex)
    if M.shape != (2, 2):
        raise ValueError(f"transfer matrix must be 2x2, got shape {M.shape}")
    return M.ravel().tolist()


def _finite(entries: list[complex]) -> bool:
    """True iff none of the four entries has a NaN or infinite part."""
    a, b, c, d = entries
    return cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)


def conserves_current(M: TransferMatrix, tol: float) -> bool:
    """True iff M† sigma2 M = sigma2 componentwise within tol.

    For M = [[a, b], [c, d]] the residual M† sigma2 M - sigma2 is
    [[2 Im(conj(a) c), i (b conj(c) - conj(a) d + 1)], [its conjugate, 2 Im(conj(b) d)]].
    A matrix with a NaN or infinite entry does not conserve current.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a, b, c, d = entries = _entries(M)
    if not _finite(entries):
        return False
    upper = 2.0 * (a.real * c.imag - a.imag * c.real)
    lower = 2.0 * (b.real * d.imag - b.imag * d.real)
    off = b * c.conjugate() - a.conjugate() * d + 1.0
    try:
        # A NaN residual (inf - inf from overflowing products) fails every comparison.
        return abs(upper) <= tol and abs(lower) <= tol and abs(off) <= tol
    except OverflowError:  # |off| beyond the float range
        return False


def decompose(M: TransferMatrix) -> ConnectionParams:
    """Split M = e^{i*theta} U into connection parameters.

    The split is two-valued, (theta, U) vs (theta + pi, -U); the canonical
    one has theta in (-pi, pi] and makes positive the first entry of U, in
    row-major order, above 1e-8 max(1, max |U|).  Admission is looser than
    the ConnectionParams invariant: entries may miss the real form, and the
    determinant may miss 1 by up to 1e-8, when U is rescaled onto det 1, or
    by its rounding error, when U is kept as it is.

    Raises NotConnectionForm when the matrix is zero or has a NaN or
    infinite entry, when no global phase makes it real to tolerance, or
    when the determinant is not 1 to tolerance.
    """
    a, b, c, d = entries = _entries(M)
    try:
        # max(entries, key=abs), unrolled; a NaN scale, where an entry is not finite, fails below.
        largest, scale = a, (abs(a) if _finite(entries) else math.nan)
        if (s := abs(b)) > scale:
            largest, scale = b, s
        if (s := abs(c)) > scale:
            largest, scale = c, s
        if (s := abs(d)) > scale:
            largest, scale = d, s
    except OverflowError:  # a finite entry whose modulus is beyond the float range
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise NotConnectionForm("matrix is zero or non-finite")
    # Read the phase off the largest entry; a tiny one would give a noisy
    # argument.  The sign scan below restores the canonical branch.
    phase = cmath.phase(largest)
    turn = cmath.exp(-1j * phase)
    a, b, c, d = a * turn, b * turn, c * turn, d * turn
    floor = _REAL_FORM_TOL * max(1.0, scale)
    if abs(a.imag) > floor or abs(b.imag) > floor or abs(c.imag) > floor or abs(d.imag) > floor:
        raise NotConnectionForm("no global phase makes all entries real")
    a, b, c, d = a.real, b.real, c.real, d.real
    # The first entry above floor sets the sign: below -floor, U turns to -U.
    if (a if abs(a) > floor else b if abs(b) > floor else c if abs(c) > floor else d) < -floor:
        a, b, c, d = -a, -b, -c, -d
        phase += math.pi
    params = object.__new__(ConnectionParams)  # unchecked: _DET_BAND derives that these pass
    alpha, beta, gamma, delta = _onto_sl2([a, b, c, d], _REAL_FORM_TOL)
    vars(params).update(alpha=alpha, beta=beta, gamma=gamma, delta=delta, theta=wrap_angle(phase))
    return params


def modes(rho: float) -> ModePair:
    """Free modes u± = (1, ±i*rho)/sqrt2 and duals v± = (1, ±i/rho)/sqrt2, rho > 0.

    Computed in Python floats from float(rho), whatever its type, and
    bi-orthogonal within _MODES_BIORTHO_ERR, so not checked at run time.
    """
    rho = float(rho)  # before the checks: a long double can round to 0 or inf
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    if not 1.0 / rho < math.inf:
        raise ValueError(f"rho={rho!r} is too small: 1/rho overflows")
    pair = object.__new__(ModePair)
    # -1j * rho and -(1j * rho) differ in the sign of the real zero: keep these expressions.
    vars(pair).update(u_plus=(_RT2_INV, 1j * rho / _RT2), u_minus=(_RT2_INV, -1j * rho / _RT2),
                      v_plus=(_RT2_INV, 1j / rho / _RT2), v_minus=(_RT2_INV, -1j / rho / _RT2))
    return pair


def transmission(p: ConnectionParams, rho2: float | np.ndarray) -> float | np.ndarray:
    """Transmission probability 4 / [alpha^2 + delta^2 + 2 + beta^2 rho2 + gamma^2/rho2].

    Between the modes of rho = sqrt(rho2), independent of theta, in [0, 1].
    Entry-wise over an array rho2, giving an array of its shape; a scalar
    rho2 is the 0-d case and gives a float.  Where beta^2 or gamma^2 over-
    or underflows (is not a normal double), that term is formed as (beta*rho)^2
    or (gamma/rho)^2, squared as q*q (** 2 on a numpy scalar calls C pow, whose
    last bit can differ).  At rho2 = 0 and inf, IEEE arithmetic gives the limit.
    """
    rho2 = np.asarray(rho2, dtype=float)
    bad = ~(rho2 >= 0.0)
    if bad.any():
        raise ValueError(f"rho2 must be non-negative, got {float(rho2[bad][0])!r}")
    t = _transmission(p.alpha, p.beta, p.gamma, p.delta, rho2)
    return t if t.ndim else float(t)


def _transmission(alpha, beta, gamma, delta, rho2: np.ndarray) -> np.ndarray:
    """transmission's 4 / bracket, at most 1, over a checked rho2 array.

    The entries need not have determinant 1: schrodinger._transmission
    scales beta and gamma by 2^d and 2^-d, which rounds where either term
    is then negligible or infinite.
    """
    bracket = np.full(rho2.shape, alpha * alpha + delta * delta + 2.0)
    # Overflow and x/0 give the IEEE values wanted; numpy would only warn.
    with np.errstate(all="ignore"):
        if beta != 0.0:
            bb = beta * beta
            bracket += bb * rho2 if sys.float_info.min <= bb < math.inf else np.square(beta * np.sqrt(rho2))
        if gamma != 0.0:
            gg = gamma * gamma
            bracket += gg / rho2 if sys.float_info.min <= gg < math.inf else np.square(gamma / np.sqrt(rho2))
    # The bracket is 2 or more, or inf, never NaN: 0 and inf meet only nonzero finite factors.
    return np.minimum(4.0 / bracket, 1.0)


def scatter(M: TransferMatrix, modes: ModePair) -> ScatteringResult:
    """Transmission and reflection of a right mover incident from the left.

    The matching condition T u+ = M (u+ + R u-) across the interaction,
    projected onto the dual v-† (v-† u+ = 0), gives
    R = -(v-† M u+) / (v-† M u-), and with it T = det M / (v-† M u-).

    M must be 2x2, conserve current (to ~1e-8) and have a nonzero
    determinant whose modulus is a finite float; the modes must be
    bi-orthogonal.  If v-† M u- vanishes against det M, nothing gets
    through: for a current-conserving M this is reported as perfect
    reflection with r_amp = -1 (the modulus is forced to 1, the phase is
    not determined by the data).  Otherwise SingularProjection is raised.
    """
    a, b, c, d = entries = _entries(M)
    det = a * d - b * c
    if not _finite(entries) or det == 0 or not cmath.isfinite(det):
        raise ValueError("matrix is singular or not finite")
    (p0, p1), (m0, m1), (v0, v1) = modes.u_plus, modes.u_minus, modes.v_minus
    v0, v1 = v0.conjugate(), v1.conjugate()
    row0, row1 = v0 * a + v1 * c, v0 * b + v1 * d  # v-† M
    plus = row0 * p0 + row1 * p1
    minus = row0 * m0 + row1 * m1
    try:
        vanished = abs(minus) < _PROJECTION_FLOOR * abs(det)
    except OverflowError:  # a finite complex whose modulus is beyond the float range
        raise ValueError("|det M| or |v-† M u-| overflows the float range") from None
    if vanished:
        if conserves_current(M, 1e-8):
            return ScatteringResult(0.0, -1.0)
        raise SingularProjection(
            "projection v-† M u- vanished against det M and M does not conserve current"
        )
    return ScatteringResult(det / minus, -plus / minus)
