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
        _require_finite_fields(self, ("theta",))
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
            total = self.t_prob + self.r_prob
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
    return [x / root for x in entries]


def as_matrix(p: ConnectionParams) -> TransferMatrix:
    """Connection matrix e^{i*theta} [[alpha, beta], [gamma, delta]]."""
    phase = cmath.exp(1j * p.theta)
    return phase * np.array([[p.alpha, p.beta], [p.gamma, p.delta]], dtype=complex)


def _from_scalars(phase, entries, message: str, *args) -> np.ndarray:
    """The 2x2 matrix phase * [[m00, m01], [m10, m11]] of a 0-d kernel's (phase, entries).

    The one builder of every transfer-matrix kernel.  ValueError(message %
    args), formatted only then, unless the phase and every entry are
    finite: the scalars overflow without a warning, Python's silently and
    numpy's under the kernel's np.errstate.  The kernels' entries are real
    up to rounding or have a real part in [-1, 1], so a unit phase leaves
    a finite entry finite.
    """
    if not (cmath.isfinite(phase) and _finite(entries)):
        raise ValueError(message % args)
    # Still an array multiply: numpy's may round unlike a scalar complex multiply.
    return phase * np.array(entries, dtype=complex).reshape(2, 2)


def _chebyshev(phase, entries, target: TransferMatrix) -> np.ndarray:
    """max_ij |phase * m_ij - target_ij| over the broadcast shape of a kernel's phase and entries.

    Each product is an array multiply, as in _from_scalars.  Not checked
    for finiteness.
    """
    d00, d01, d10, d11 = (np.abs(phase * m - t) for m, t in zip(entries, _entries(target)))
    return np.maximum(np.maximum(d00, d01), np.maximum(d10, d11))


def _require_finite(a: np.ndarray, err: np.ndarray, why: str) -> np.ndarray:
    """err if every entry is finite, else ValueError naming the largest a at a non-finite one.

    a and err are columns of one length.  inf and NaN propagate through
    the kernels' + and *, through abs and np.maximum, so a kernel that
    overflowed anywhere leaves a non-finite error: checking after the
    kernel is exact.  NaN propagates through ndarray.max too, so one max
    covers the finite case; the failing entries are looked up only then.
    """
    if not err.size or math.isfinite(err.max()):
        return err
    worst = a[~np.isfinite(err)].max()
    raise ValueError(f"half-spacing a={float(worst)!r} is out of range: {why}")


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

    ValueError unless M's shape is (2, 2).  On four entries, Python complex
    arithmetic costs a fraction of numpy's per-call overhead.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (2, 2):
        raise ValueError(f"transfer matrix must be 2x2, got shape {M.shape}")
    return M.ravel().tolist()


def _finite(entries: list[complex]) -> bool:
    """True iff no entry has a NaN or infinite part."""
    return all(map(cmath.isfinite, entries))


def conserves_current(M: TransferMatrix, tol: float) -> bool:
    """True iff M† sigma2 M = sigma2 componentwise within tol.

    For M = [[a, b], [c, d]] the residual M† sigma2 M - sigma2 is
    [[2 Im(conj(a) c), i (b conj(c) - conj(a) d + 1)], [its conjugate, 2 Im(conj(b) d)]].
    A matrix with a NaN or infinite entry does not conserve current.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    entries = _entries(M)
    if not _finite(entries):
        return False
    a, b, c, d = entries
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
    entries = _entries(M)
    try:
        # The first entry of largest modulus in row-major order.  max skips
        # a NaN modulus, so finiteness is checked separately below.
        largest = max(entries, key=abs)
        scale = abs(largest)
    except OverflowError:  # a finite entry whose modulus is beyond the float range
        scale = math.inf
    if not (_finite(entries) and 0.0 < scale < math.inf):
        raise NotConnectionForm("matrix is zero or non-finite")
    # Read the phase off the largest entry; a tiny one would give a noisy
    # argument.  The sign scan below restores the canonical branch.
    phase = cmath.phase(largest)
    turn = cmath.exp(-1j * phase)
    rotated = [z * turn for z in entries]
    floor = _REAL_FORM_TOL * max(1.0, scale)
    if max(abs(z.imag) for z in rotated) > floor:
        raise NotConnectionForm("no global phase makes all entries real")
    u = [z.real for z in rotated]
    for entry in u:
        if abs(entry) > floor:
            if entry < 0.0:
                u = [-x for x in u]
                phase += math.pi
            break
    params = object.__new__(ConnectionParams)  # unchecked: _DET_BAND derives that these pass
    alpha, beta, gamma, delta = _onto_sl2(u, _REAL_FORM_TOL)
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
    rt2 = math.sqrt(2.0)
    h = complex(1.0 / rt2)
    pair = object.__new__(ModePair)
    # -1j * rho and -(1j * rho) differ in the sign of the real zero: keep these expressions.
    vars(pair).update(u_plus=(h, 1j * rho / rt2), u_minus=(h, -1j * rho / rt2),
                      v_plus=(h, 1j / rho / rt2), v_minus=(h, -1j / rho / rt2))
    return pair


def transmission(p: ConnectionParams, rho2: float | np.ndarray) -> float | np.ndarray:
    """Transmission probability 4 / [alpha^2 + delta^2 + 2 + beta^2 rho2 + gamma^2/rho2].

    Between the modes of rho = sqrt(rho2), independent of theta, in [0, 1].
    At rho2 = 0 and inf it is the limit: 0 if the diverging term is present.
    Entry-wise over an array rho2, giving an array of its shape; a scalar
    rho2 is the 0-d case and gives a float.  Where beta^2 or gamma^2
    overflows, that term is formed as (beta*rho)^2 or (gamma/rho)^2, squared
    as q*q: ** 2 on a numpy scalar calls C pow, whose last bit can differ.
    """
    rho2 = np.asarray(rho2, dtype=float)
    bad = ~(rho2 >= 0.0)
    if bad.any():
        raise ValueError(f"rho2 must be non-negative, got {float(rho2[bad][0])!r}")
    bracket = np.full(rho2.shape, p.alpha * p.alpha + p.delta * p.delta + 2.0)
    # Overflow and x/0 give the IEEE values wanted; numpy would only warn.
    with np.errstate(all="ignore"):
        if p.beta != 0.0:
            bb = p.beta * p.beta
            bracket += bb * rho2 if bb < math.inf else np.square(p.beta * np.sqrt(rho2))
        if p.gamma != 0.0:
            gg = p.gamma * p.gamma
            bracket += gg / rho2 if gg < math.inf else np.square(p.gamma / np.sqrt(rho2))
        t = 4.0 / bracket
    # min(1.0, t) keeps 1.0 unless t < 1.0, NaN included.
    t = np.where(t < 1.0, t, 1.0)
    # The endpoint limits are masked, not left to IEEE arithmetic: a beta^2
    # or gamma^2 that underflows to 0 would give 0 * inf or 0 / 0 there.
    if p.beta != 0.0:
        t[rho2 == math.inf] = 0.0
    if p.gamma != 0.0:
        t[rho2 == 0.0] = 0.0
    return t if t.ndim else float(t)


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
    entries = _entries(M)
    a, b, c, d = entries
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
